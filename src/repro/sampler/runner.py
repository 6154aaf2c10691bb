"""Workload execution harness (step 1 of Figure 1).

A :class:`Workload` bundles an assembly program with a set of per-run input
patches (secret keys, operand buffers...).  The runner assembles the program
once, then executes one fresh core per input — every simulation begins in the
same reset state, as in the paper.

Execution is delegated to :mod:`repro.sampler.exec_backend`: with ``jobs=1``
every input runs in-process; with ``jobs>1`` (or a ``pool``) inputs are
simulated on a worker pool and merged back in input order, bit-identical to
the serial result.  An optional :class:`~repro.sampler.trace_cache.TraceCache`
replays previously simulated (program, input, config) triples without
touching the core at all, and makes callers sharing it simulate each of
those triples once even while the first simulation is still running.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.assembler import Program, assemble
from repro.kernel.memory_map import MemoryMap
from repro.sampler.exec_backend import (
    RunOutput,
    RunTask,
    count,
    execute_groups,
    execute_tasks,
    merge_outputs,
)
from repro.trace.tracer import MicroarchTracer
from repro.uarch.config import CoreConfig, MEGA_BOOM
from repro.uarch.core import RunResult
from repro.util.profiling import current_span, span


class WorkloadError(RuntimeError):
    """Raised when a workload misbehaves (bad patch, nonzero exit...)."""


@dataclass
class Workload:
    """A program under verification plus its test inputs.

    ``inputs`` maps, per run, data-section symbol names to replacement bytes
    (e.g. ``{"key": b"..."}``).  The program is expected to exit with code 0;
    anything else aborts the campaign, which catches workload bugs early.
    """

    name: str
    source: str
    entry: str = "main"
    inputs: list[dict] = field(default_factory=list)
    description: str = ""
    #: (symbol, length) regions pre-installed in the L1D before each run,
    #: modeling prior accesses (used by the Fig. 6 "dst initialized" study).
    warm_regions: list = field(default_factory=list)
    #: Which input bytes are *secret* for the taint prescreen
    #: (:mod:`repro.taint`): each entry is a data-symbol name (the bytes the
    #: input patches into it) or a ``(symbol, offset, length)`` triple for a
    #: fixed sub-range.  Empty means "no declared secret" — taint analysis
    #: refuses to run rather than silently treating everything as public.
    secret_regions: list = field(default_factory=list)

    def assemble(self) -> Program:
        return assemble(self.source, entry=self.entry)


def patch_program(program: Program, patches: dict) -> Program:
    """Return a copy of ``program`` with data-section symbols overwritten."""
    data = bytearray(program.data)
    for symbol, payload in patches.items():
        if symbol not in program.symbols:
            raise WorkloadError(f"unknown data symbol {symbol!r}")
        offset = program.symbols[symbol] - program.data_base
        if offset < 0 or offset + len(payload) > len(data):
            raise WorkloadError(
                f"patch for {symbol!r} falls outside the data image"
            )
        data[offset:offset + len(payload)] = payload
    return Program(
        instructions=program.instructions,
        text_base=program.text_base,
        data=data,
        data_base=program.data_base,
        symbols=program.symbols,
        entry=program.entry,
    )


@dataclass
class CampaignResult:
    """All simulation outputs for one workload campaign."""

    workload: Workload
    config: CoreConfig
    tracer: MicroarchTracer
    runs: list[RunResult]
    #: How many of the runs were replayed from the trace cache.
    n_cached_runs: int = 0
    #: The span the campaign was finalized under (``campaign`` for
    #: :func:`run_campaign`): its ``prepare``/``execute``/``finalize``
    #: children are the campaign's timings.  None when nothing was open.
    span: object | None = None
    #: Instructions skipped via functional fast-forward, summed over runs
    #: (0 when checkpointing is disabled or nothing could be skipped).
    ff_steps_total: int = 0
    #: Lockstep divergences observed by the batch prepass **and** by the
    #: lane-batched cycle-accurate core
    #: (:class:`~repro.isa.batch_interpreter.DivergenceEvent`).  Divergent
    #: execution across inputs is data-dependent execution — itself a leak
    #: signal — so these are surfaced in reports rather than silently
    #: absorbed; ``lanes`` on core-phase events holds campaign input
    #: indices.
    divergences: list = field(default_factory=list)

    @property
    def iterations(self):
        return self.tracer.iterations

    def total_cycles(self) -> int:
        return sum(run.stats.cycles for run in self.runs)


def _build_tasks(workload: Workload, program: Program, config: CoreConfig, *,
                 features, keep_raw, log_commits, memory_map,
                 max_cycles_per_run, expect_exit_code,
                 warmup_insts=None, checkpoint_dir=None,
                 profile=False, pruned=(), core_lanes=None,
                 programs=None) -> list[RunTask]:
    """One :class:`RunTask` per input.  ``programs`` (when given) supplies
    pre-patched per-input programs — the cross-config sweep patches once
    and hands the same images to every config leg; ``patch_program`` is
    deterministic, so the tasks (and their cache keys) are identical to
    re-patching here."""
    return [
        RunTask(
            run_index=run_index,
            workload_name=workload.name,
            program=(programs[run_index] if programs is not None
                     else patch_program(program, patches)),
            config=config,
            warm_regions=tuple(tuple(region)
                               for region in workload.warm_regions),
            features=tuple(features) if features is not None else None,
            keep_raw=True if keep_raw is True else tuple(keep_raw),
            log_commits=bool(log_commits),
            memory_map=memory_map,
            max_cycles=max_cycles_per_run,
            expect_exit_code=expect_exit_code,
            warmup_insts=warmup_insts,
            checkpoint_dir=checkpoint_dir,
            profile=bool(profile),
            pruned=tuple(pruned),
            core_lanes=core_lanes,
        )
        for run_index, patches in enumerate(workload.inputs)
    ]


@dataclass
class CampaignPlan:
    """A campaign prepared for execution but not yet simulated.

    :func:`prepare_campaign` assembles the program, builds one
    :class:`RunTask` per input, claims and looks up every input in the
    trace cache (hits are replayed immediately and **never occupy a
    simulation slot**), folds duplicates — of an earlier input, or of an
    input another caller of the same cache is simulating — and runs the
    lockstep batch prepass.  What remains — ``to_run`` — is the simulation
    work: execute those tasks anywhere, in any order, record the outputs
    with :meth:`fill`, and :func:`finalize_campaign` returns a campaign
    bit-identical to a serial run — the deterministic input-order merge is
    what makes placement free.  Every path must end in :meth:`release`, so
    waiters on this plan's claims never hang.
    """

    workload: Workload
    config: CoreConfig
    tasks: list[RunTask]
    cache: object | None
    #: Per-task outputs; cache hits pre-filled, the rest ``None`` until
    #: :meth:`fill`.
    outputs: list[RunOutput | None]
    features: object
    keep_raw: object
    log_commits: bool
    #: Per-task content-addressed cache keys (None when cache is off).
    keys: list[str] | None = None
    #: task index -> cache key of an identical input simulated elsewhere
    #: (earlier in this campaign, or by another caller of the cache).
    duplicate_of: dict[int, str] = field(default_factory=dict)
    #: Task indices that actually need simulating, in input order.
    to_run: list[int] = field(default_factory=list)
    n_cached: int = 0
    divergences: list = field(default_factory=list)
    #: Cache keys this plan has claimed and not yet released.
    claimed: set = field(default_factory=set)
    #: cache key -> the other caller's claim future, for duplicates of
    #: inputs another caller is simulating.
    waiting: dict = field(default_factory=dict)

    def fill(self, index: int, output: RunOutput) -> None:
        """Record one simulated output, store it, and release its claim."""
        self.outputs[index] = output
        if self.cache is not None and self.keys is not None:
            key = self.keys[index]
            self.cache.store(key, output, config=self.tasks[index].config)
            if key in self.claimed:
                self.claimed.discard(key)
                self.cache.release(key)

    def release(self) -> None:
        """Release every claim still held (error, cancel or normal end)."""
        while self.claimed:
            self.cache.release(self.claimed.pop())

    @property
    def pending_tasks(self) -> list[RunTask]:
        return [self.tasks[index] for index in self.to_run]


def prepare_campaign(workload: Workload, config: CoreConfig = MEGA_BOOM, *,
                     features=None, keep_raw=(), log_commits: bool = False,
                     memory_map: MemoryMap | None = None,
                     max_cycles_per_run: int = 5_000_000,
                     expect_exit_code: int = 0,
                     cache=None,
                     warmup_insts: int | None = None,
                     checkpoint_dir: str | None = None,
                     batch_lanes=None,
                     profile: bool = False,
                     pruned=(),
                     programs=None) -> CampaignPlan:
    """Plan a campaign: build tasks, claim and replay cache hits, prepass.

    This is everything :func:`run_campaign` does before simulation.  The
    returned plan's ``to_run`` tasks must each be executed (see
    :func:`~repro.sampler.exec_backend.execute_groups`) and recorded with
    ``plan.fill(index, output)``; then :func:`finalize_campaign` merges.
    The plan holds a cache claim on every key it must simulate until it is
    filled; call ``plan.release()`` on every path.

    ``programs`` optionally supplies the per-input patched programs (one
    per ``workload.inputs`` entry), skipping the assemble + patch phase —
    the cross-config sweep pays those once and plans every config leg from
    the same images.
    """
    if not workload.inputs:
        raise WorkloadError(f"workload {workload.name!r} has no inputs")
    if programs is not None and len(programs) != len(workload.inputs):
        raise WorkloadError(
            f"pre-patched program count ({len(programs)}) does not match "
            f"input count ({len(workload.inputs)})")
    if cache is True:
        from repro.sampler.trace_cache import TraceCache

        cache = TraceCache()
    if warmup_insts is not None and checkpoint_dir is None and cache is not None:
        from repro.sampler.checkpoint import CheckpointStore

        checkpoint_dir = str(CheckpointStore.for_cache_root(cache.root).root)
    with span("prepare") as prepare:
        # Resolve the lockstep lane width up front: ``core_lanes`` joins
        # every task's cache key (a lane-batched run records the divergence
        # events of its lane group), so it must be stamped before the cache
        # is consulted.
        core_lanes = None
        if batch_lanes is not None:
            from repro.sampler.batch import resolve_batch_lanes

            width = resolve_batch_lanes(batch_lanes, len(workload.inputs))
            core_lanes = width if width > 1 else None
        program = workload.assemble() if programs is None else None
        tasks = _build_tasks(
            workload, program, config, features=features,
            keep_raw=keep_raw, log_commits=log_commits,
            memory_map=memory_map, max_cycles_per_run=max_cycles_per_run,
            expect_exit_code=expect_exit_code, warmup_insts=warmup_insts,
            checkpoint_dir=checkpoint_dir, profile=profile, pruned=pruned,
            core_lanes=core_lanes, programs=programs,
        )
        plan = CampaignPlan(
            workload=workload, config=config, tasks=tasks, cache=cache,
            outputs=[None] * len(tasks), features=features,
            keep_raw=keep_raw, log_commits=log_commits)
        try:
            _claim_and_replay(plan)
            if warmup_insts is not None and batch_lanes is not None \
                    and plan.to_run:
                from repro.sampler.batch import (
                    attach_batch_checkpoints,
                    resolve_batch_lanes,
                )

                lanes = resolve_batch_lanes(batch_lanes, len(plan.to_run))
                if lanes > 1:
                    with span("capture"):
                        plan.divergences = attach_batch_checkpoints(
                            tasks, plan.to_run, lanes=lanes,
                            warmup_insts=warmup_insts,
                            checkpoint_dir=checkpoint_dir,
                        )
            count(workload.name, campaigns=1, inputs=len(tasks),
                  cached=plan.n_cached)
        except BaseException:
            plan.release()
            raise
        prepare.count("inputs", len(tasks))
        prepare.count("cached", plan.n_cached)
    return plan


def _claim_and_replay(plan: CampaignPlan) -> None:
    """Sort a plan's inputs into cache hits, duplicates and ``to_run``.

    All keys are claimed at once, before any is looked up, so no other
    caller can store a key between its claim and its load, and an
    identical campaign running concurrently waits for all of this plan's
    inputs or none (splitting them would change the lane groups, and with
    them the divergence events).  A hit releases its claim, a miss keeps it
    until :meth:`CampaignPlan.fill`.  A key another caller holds makes the
    input a duplicate that :func:`finalize_campaign` replays once that
    caller is done — as does a key an earlier input of this campaign holds
    (MicroWalk-style trace deduplication; requires a cache to clone the
    outputs through).
    """
    cache = plan.cache
    if cache is None:
        plan.to_run = list(range(len(plan.tasks)))
        return
    plan.keys = [cache.key_for(task) for task in plan.tasks]
    holders = cache.claim_many(plan.keys)
    plan.claimed = {key for key, holder in holders.items() if holder is None}
    plan.waiting = {key: holder for key, holder in holders.items()
                    if holder is not None}
    missed = set()
    for index, key in enumerate(plan.keys):
        if key in plan.waiting or key in missed:
            plan.duplicate_of[index] = key
            continue
        output = cache.load(key)
        if output is None:
            missed.add(key)
            plan.to_run.append(index)
            continue
        if key in plan.claimed:
            plan.claimed.discard(key)
            cache.release(key)
        plan.outputs[index] = output
        plan.n_cached += 1


def finalize_campaign(plan: CampaignPlan, *,
                      pool=None) -> CampaignResult:
    """Merge a fully executed plan into a :class:`CampaignResult`.

    Every ``to_run`` index must have been :meth:`~CampaignPlan.fill`-ed.
    Duplicates are replayed from the cache — after waiting for the caller
    that simulates them, when that is someone else — falling back to
    simulating (on ``pool``, when given) if nothing was stored.  Then all
    outputs merge **in input order** — the deterministic merge from the
    parallel backend, so the result is bit-identical no matter where or in
    what order shards executed.
    """
    name = plan.workload.name
    owner = current_span()
    with span("finalize"):
        for index, key in plan.duplicate_of.items():
            holder = plan.waiting.get(key)
            output = (plan.cache.await_claim(key, holder)
                      if holder is not None else plan.cache.load(key))
            if output is None:
                # Nothing stored (the store or the other caller failed).
                with span("execute"):
                    [(outputs, _seconds)] = execute_groups(
                        [[plan.tasks[index]]], pool=pool)
                plan.fill(index, outputs[0])
                continue
            plan.outputs[index] = output
            count(name, waited=int(holder is not None),
                  cached=int(holder is None))
        missing = [index for index, output in enumerate(plan.outputs)
                   if output is None]
        if missing:
            raise WorkloadError(
                f"campaign {plan.workload.name!r} finalized with "
                f"{len(missing)} unexecuted input(s): {missing[:5]}")
        tracer = MicroarchTracer(
            features=plan.features, keep_raw=plan.keep_raw,
            log_commits=plan.log_commits,
            pruned=plan.tasks[0].pruned if plan.tasks else ())
        runs = merge_outputs(plan.outputs, tracer)
    # Core-phase lockstep divergences ride on each batch group's first
    # output; gather them after the prepass events, in input order.
    divergences = list(plan.divergences)
    for output in plan.outputs:
        divergences.extend(output.divergences)
    return CampaignResult(
        workload=plan.workload,
        config=plan.config,
        tracer=tracer,
        runs=runs,
        n_cached_runs=plan.n_cached,
        span=owner,
        ff_steps_total=sum(output.ff_steps for output in plan.outputs),
        divergences=divergences,
    )


def run_campaign(workload: Workload, config: CoreConfig = MEGA_BOOM, *,
                 features=None, keep_raw=(), log_commits: bool = False,
                 memory_map: MemoryMap | None = None,
                 max_cycles_per_run: int = 5_000_000,
                 expect_exit_code: int = 0,
                 jobs: int | None = 1, cache=None,
                 warmup_insts: int | None = None,
                 checkpoint_dir: str | None = None,
                 batch_lanes=None,
                 pool=None,
                 profile: bool = False,
                 pruned=()) -> CampaignResult:
    """Run ``workload`` over all its inputs, collecting iteration snapshots.

    ``jobs`` sets how many inputs simulate concurrently (``0``/``None`` =
    one per available CPU); the merged result is bit-identical to ``jobs=1``.
    ``pool`` routes simulation through a long-lived
    :class:`~repro.sampler.exec_backend.WorkerPool` instead (the campaign
    service's backend; overrides ``jobs``).
    ``cache`` is an optional :class:`~repro.sampler.trace_cache.TraceCache`
    (or ``True`` for the default directory): inputs simulated before — by
    any backend — are replayed from it, and identical inputs — inside one
    campaign, or in flight for another caller of the same cache — are
    simulated only once.  ``log_commits`` records each
    iteration's architectural ``(cycle, pc, mnemonic)`` commit stream for
    the localization phase (:mod:`repro.localize`).  ``warmup_insts``
    enables fast-forward checkpointing (``None`` = full simulation; see
    :mod:`repro.sampler.checkpoint`); checkpoints persist under
    ``checkpoint_dir``, defaulting to a ``checkpoints/`` subdirectory of the
    trace-cache root when a cache is in use.  ``batch_lanes`` selects
    lockstep lane batching (``None`` = off, ``"auto"``, or an int lane
    width; see :mod:`repro.sampler.batch`): the functional warm-up runs as
    a SIMD-across-inputs prepass (requires ``warmup_insts``), and the
    cycle-accurate phase carries the same inputs as value lanes through one
    shared core (:mod:`repro.uarch.batch_core`) — timing state is shared,
    so verdicts and per-unit digests stay bit-identical to scalar runs;
    any cross-lane divergence in timing-relevant state falls the affected
    lanes back to scalar simulation.  Divergences observed by either phase
    are returned on ``CampaignResult.divergences``.  The campaign's
    ``prepare``/``execute``/``finalize`` spans sit under a ``campaign``
    span on ``CampaignResult.span``; ``profile`` adds the per-stage core
    rows to every simulated run's subtree (cache hits, which do no
    simulation work, contribute none).
    """
    with span("campaign"):
        plan = prepare_campaign(
            workload, config, features=features, keep_raw=keep_raw,
            log_commits=log_commits, memory_map=memory_map,
            max_cycles_per_run=max_cycles_per_run,
            expect_exit_code=expect_exit_code, cache=cache,
            warmup_insts=warmup_insts, checkpoint_dir=checkpoint_dir,
            batch_lanes=batch_lanes, profile=profile, pruned=pruned,
        )
        try:
            with span("execute"):
                fresh = execute_tasks(plan.pending_tasks, jobs=jobs,
                                      pool=pool)
                for index, output in zip(plan.to_run, fresh):
                    plan.fill(index, output)
            return finalize_campaign(plan, pool=pool)
        finally:
            plan.release()
