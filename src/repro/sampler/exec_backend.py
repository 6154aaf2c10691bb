"""Campaign execution: one executor, in-process or on a worker pool.

``run_campaign`` and the cross-config sweep hand their per-input
simulations to :func:`execute_groups`.  Each input is wrapped in a
self-contained, picklable :class:`RunTask` (patched program + core
configuration + tracer settings), and tasks travel as *lane groups* (see
:func:`_lane_groups`).  A worker — in-process for ``jobs=1``, a
:class:`WorkerPool` member otherwise — rebuilds the core from the tasks,
runs it to completion under a private
:class:`~repro.trace.tracer.MicroarchTracer`, and returns
:class:`RunOutput`\\ s of finalized iteration snapshots.

Determinism is the design constraint: outputs are merged **in input order**
(never completion order) and re-stamped with their global run index and
iteration index, so the resulting trace matrix is bit-identical to a serial
campaign regardless of worker scheduling.  This is what lets the parallel
backend share a result cache with the serial one (see
:mod:`repro.sampler.trace_cache`) and what the differential test layer in
``tests/test_parallel_runner.py`` locks in.

The simulation itself is pure — a core built from the same program, patches
and configuration commits the same per-cycle state — so per-run tracers see
exactly what one shared tracer would have seen.  The one behavioural
subtlety is the tracer's ``roi_seen`` latch, which in a shared tracer
persists across runs; every run re-executes its own ``roi.begin``, so for
well-formed workloads the per-run latch is indistinguishable.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextvars
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
from dataclasses import dataclass, field, replace

from repro.isa.assembler import Program
from repro.kernel.memory_map import MemoryMap
from repro.kernel.proxy_kernel import ProxyKernel
from repro.trace.tracer import IterationRecord, MicroarchTracer
from repro.uarch.config import CoreConfig
from repro.uarch.core import Core, RunResult
from repro.util.profiling import STAGE_LABELS, Span, current_span, span


@dataclass(frozen=True)
class RunTask:
    """Everything a worker needs to simulate one campaign input."""

    run_index: int
    workload_name: str
    program: Program  # already patched with this run's inputs
    config: CoreConfig
    warm_regions: tuple = ()
    features: tuple | None = None
    keep_raw: tuple | bool = ()
    #: record per-iteration (cycle, pc, mnemonic) commit logs (localization).
    log_commits: bool = False
    memory_map: MemoryMap | None = None
    max_cycles: int = 5_000_000
    expect_exit_code: int | None = 0
    #: Fast-forward warm-up budget: ``None`` = full cycle-accurate
    #: simulation (no checkpointing, today's behaviour); an int = functional
    #: fast-forward to ``roi.begin`` minus that many instructions, which are
    #: replayed cycle-accurately and untraced (``sampler/checkpoint.py``).
    #: Changes what the core simulates, so it joins the trace-cache key.
    warmup_insts: int | None = None
    #: Directory for content-addressed checkpoint reuse (None = capture
    #: in-memory only).  Storage location, not content — excluded from the
    #: trace-cache key like ``profile``.
    checkpoint_dir: str | None = None
    #: Add the per-stage core rows to the run's span tree (``--profile``).
    #: Observational only — excluded from the trace-cache key, and cached
    #: replays simply carry no spans.
    profile: bool = False
    #: Checkpoint attached by the batch prepass (``sampler/batch.py``); the
    #: worker then skips its own capture.  Derived state, not configuration
    #: — excluded from the trace-cache key.
    checkpoint: object | None = None
    #: Checkpoint-store key the prepass computed for this task, so the
    #: worker does not hash the program again.  Derived state — excluded
    #: from the trace-cache key.
    checkpoint_key: str | None = None
    #: Feature IDs the taint prescreen proved secret-free
    #: (:mod:`repro.uarch.reachability`): the tracer skips sampling them and
    #: records the constant empty snapshot instead.  Changes the recorded
    #: trace, so it joins the trace-cache key.
    pruned: tuple = ()
    #: Lane width for batching the cycle-accurate core phase itself
    #: (:mod:`repro.uarch.batch_core`): consecutive tasks with the same
    #: width > 1 run through one shared pipeline.  The traced results are
    #: pinned bit-identical to scalar runs, but the lane set determines
    #: which inputs *can* share a pipeline — and hence which divergence
    #: events a cached trace records — so it **joins** the trace-cache key.
    core_lanes: int | None = None


@dataclass
class RunOutput:
    """One input's simulation result: snapshots plus run statistics."""

    run_index: int
    iterations: list[IterationRecord] = field(default_factory=list)
    run: RunResult | None = None
    cycles_sampled: int = 0
    #: True when this output was replayed from the trace cache.
    from_cache: bool = False
    #: Instructions skipped via functional fast-forward (0 = full sim).
    ff_steps: int = 0
    #: The run's span tree (fast-forward, warm-up, core or batch-core,
    #: fallback), on the first output of each lane group; the caller
    #: adopts it into its own tree.  None on cache replays.
    span: Span | None = None
    #: Content address of the checkpoint this run used (None = no
    #: checkpointing).  Persisted with cached traces so ``cache prune`` can
    #: tell live checkpoints from orphans.
    checkpoint_key: str | None = None
    #: Cross-lane divergence events observed while this input ran in a
    #: lane-batched core group (attached to the group's first output, with
    #: lanes remapped to run indices).  A divergence is simultaneously the
    #: scalar-fallback trigger and a first-class leak signal, mirroring the
    #: functional batch prepass (PR 6).
    divergences: tuple = ()


def _checkpoints_for(tasks: list[RunTask]) -> tuple[list, list]:
    """Each task's fast-forward checkpoint and the store key it lives under.

    The batch prepass attaches both to the tasks it covers; anything still
    missing is keyed (once) and loaded from the store or captured here.
    """
    checkpoints = [task.checkpoint for task in tasks]
    keys = [task.checkpoint_key for task in tasks]
    if tasks[0].warmup_insts is None:
        return checkpoints, keys
    from repro.sampler.checkpoint import (
        CheckpointStore,
        checkpoint_key,
        load_or_capture,
    )

    with span("fast-forward"):
        for lane, task in enumerate(tasks):
            store = (CheckpointStore(task.checkpoint_dir)
                     if task.checkpoint_dir else None)
            if store is not None and keys[lane] is None:
                keys[lane] = checkpoint_key(task.program, task.memory_map,
                                            task.warmup_insts)
            if checkpoints[lane] is None:
                checkpoints[lane] = load_or_capture(
                    task.program, memory_map=task.memory_map,
                    warmup_insts=task.warmup_insts, store=store,
                    key=keys[lane])
    return checkpoints, keys


def _phase(core, tracer, name: str, profile: bool) -> Span:
    """Open run phase ``name``; the tracer's ``parse`` rows (and with
    ``profile`` the per-stage core rows) land under it.  Iteration
    finalize runs inside the core's commit stage, so when profiling its
    ``parse`` row nests under ``commit``."""
    phase = span(name)
    if profile:
        core.profiler = tuple(phase.child(label) for label in STAGE_LABELS)
    tracer.span = core.profiler[0] if profile else phase
    return phase


def _run_core(core, tracer, tasks: list[RunTask], checkpoints: list,
              phase: str):
    """The set-up and run shared by the scalar and the lane-batched core.

    Attaches commit logging, restores the fast-forward checkpoint(s),
    warms the configured D-cache regions, runs the pre-ROI cycles under a
    ``warm-up`` span and the rest under ``phase``.  Returns ``(run result,
    instructions fast-forwarded)``.
    """
    head = tasks[0]
    if head.log_commits:
        core.commit_listener = tracer.on_commit
    checkpoint = checkpoints[0]
    if checkpoint is not None and checkpoint.steps > 0:
        # A step-0 checkpoint is the reset state: skip the restore so the
        # run is the full-simulation code path, not merely equivalent to it.
        with span("fast-forward"):
            if len(tasks) > 1:
                core.restore_architectural_states(checkpoints)
            else:
                core.restore_architectural_state(checkpoint)
    for symbol, length in head.warm_regions:
        base = head.program.symbols[symbol]
        for address in range(base, base + length, 64):
            core.dcache.warm_line(address)
    # Pre-ROI cycle-accurate simulation: the warm-up replay, or the whole
    # prologue when checkpointing is off.
    with _phase(core, tracer, "warm-up", head.profile):
        while (not core.halted and not tracer.roi_seen
                and core.cycle < head.max_cycles):
            core.step()
    with _phase(core, tracer, phase, head.profile):
        result = core.run(max_cycles=head.max_cycles)
    current_span().count("cycles", core.stats.cycles)
    return result, checkpoint.steps if checkpoint is not None else 0


def _check_exit(task: RunTask, exit_code: int) -> None:
    if task.expect_exit_code is not None and exit_code != task.expect_exit_code:
        # Imported here, not at module top, to avoid a circular import
        # (runner -> exec_backend -> runner).
        from repro.sampler.runner import WorkloadError

        raise WorkloadError(
            f"workload {task.workload_name!r} exited with "
            f"{exit_code} (expected {task.expect_exit_code})"
        )


def execute_run(task: RunTask) -> RunOutput:
    """Simulate one input from reset and collect its iteration snapshots.

    This is the worker entry point: module-level so it pickles under every
    ``multiprocessing`` start method, and self-contained so the same code
    path serves in-process runs, the pool workers and cache misses.  The
    run's span is named ``run <config>``, so a sweep's legs stay apart
    under one ``execute`` span.
    """
    with Span(f"run {task.config.name}") as root:
        tracer = MicroarchTracer(features=task.features,
                                 keep_raw=task.keep_raw,
                                 log_commits=task.log_commits,
                                 pruned=task.pruned)
        tracer.begin_run(task.run_index)
        checkpoints, keys = _checkpoints_for([task])
        core = Core(
            task.program, task.config,
            memory_map=task.memory_map,
            kernel=ProxyKernel(memory_map=task.memory_map or MemoryMap()),
            tracer=tracer,
        )
        result, ff_steps = _run_core(core, tracer, [task], checkpoints,
                                     "core")
        _check_exit(task, result.exit_code)
    return RunOutput(
        run_index=task.run_index,
        iterations=tracer.iterations,
        run=result,
        cycles_sampled=tracer.cycles_sampled,
        ff_steps=ff_steps,
        span=root,
        checkpoint_key=keys[0],
    )


def _execute_lockstep(tasks: list[RunTask]) -> list[RunOutput]:
    """Run one lane group through a shared :class:`BatchCore` pipeline.

    All tasks must come from one campaign (same program stream, config,
    memory map and tracer settings; only patched data and run indices
    differ).  Raises :class:`~repro.uarch.batch_core.LaneDivergence` when
    the lanes cannot share a pipeline — the caller partitions and retries.
    """
    from repro.trace.tracer import BatchTracer
    from repro.uarch.batch_core import BatchCore

    head = tasks[0]
    n_lanes = len(tasks)
    tracer = BatchTracer(n_lanes, features=head.features,
                         keep_raw=head.keep_raw,
                         log_commits=head.log_commits,
                         pruned=head.pruned)
    tracer.begin_lane_runs([task.run_index for task in tasks])
    checkpoints, keys = _checkpoints_for(tasks)
    core = BatchCore(
        [task.program for task in tasks], head.config,
        memory_map=head.memory_map,
        tracer=tracer,
    )
    have = sum(1 for ckpt in checkpoints if ckpt is not None)
    if 0 < have < n_lanes:
        # Some lanes checkpointed, some not: they cannot share a pipeline.
        core._diverge("checkpoint", core.fetch_pc, "<restore>",
                      tuple(ckpt is not None for ckpt in checkpoints))
    if have:
        heads = tuple((ckpt.pc, ckpt.steps) for ckpt in checkpoints)
        if any(entry != heads[0] for entry in heads[1:]):
            core._diverge("checkpoint", heads[0][0], "<restore>", heads)
    _result, ff_steps = _run_core(core, tracer, tasks, checkpoints,
                                  "batch-core")
    for lane, task in enumerate(tasks):
        _check_exit(task, core.kernel.kernels[lane].exit_code)
    outputs = []
    for lane, task in enumerate(tasks):
        kernel = core.kernel.kernels[lane]
        outputs.append(RunOutput(
            run_index=task.run_index,
            iterations=tracer.lane_iterations[lane],
            run=RunResult(
                exit_code=kernel.exit_code,
                # Timing is shared by construction, so every lane's stats
                # equal the scalar run's (pinned by the differential suite).
                stats=replace(core.stats),
                console=kernel.console_text,
            ),
            cycles_sampled=tracer.cycles_sampled,
            ff_steps=ff_steps,
            checkpoint_key=keys[lane],
        ))
    return outputs


def execute_run_batch(tasks: list[RunTask]) -> list[RunOutput]:
    """Execute one lane group, falling back to scalar on divergence.

    On :class:`~repro.uarch.batch_core.LaneDivergence` the lanes are
    partitioned by their divergence keys (lanes that still agree stay
    batched together) and re-run from the start under a ``fallback`` span;
    the event — with lanes remapped to campaign run indices — is attached
    to the group's first output as a first-class leak signal.  The group's
    span tree rides on that output too.
    """
    from repro.uarch.batch_core import LaneDivergence

    if len(tasks) == 1:
        return [execute_run(tasks[0])]
    with Span(f"run {tasks[0].config.name}") as root:
        try:
            outputs = _execute_lockstep(tasks)
        except LaneDivergence as exc:
            with span("fallback") as fallback:
                event = replace(exc.event, lanes=tuple(
                    tasks[lane].run_index for lane in exc.event.lanes))
                groups: dict = {}
                for lane, key in enumerate(exc.lane_keys):
                    groups.setdefault(key, []).append(lane)
                if len(groups) == 1:
                    # Defensive: a divergence with one equality class
                    # cannot be partitioned — run every lane scalar.
                    groups = {lane: [lane] for lane in range(len(tasks))}
                outputs = [None] * len(tasks)
                for members in groups.values():
                    results = execute_run_batch([tasks[lane]
                                                 for lane in members])
                    for member, result in zip(members, results):
                        outputs[member] = result
            events = [event]
            for output in outputs:
                events.extend(output.divergences)
                output.divergences = ()
                if output.span is not None:
                    fallback.adopt(output.span)
                    output.span = None
            outputs[0].divergences = tuple(events)
    outputs[0].span = root
    return outputs


def _lane_groups(tasks: list[RunTask]) -> list[list[RunTask]]:
    """Partition tasks (order-preserving) into batched-core lane groups.

    Consecutive tasks carrying the same ``core_lanes`` width > 1 form
    groups of at most that width; everything else stays a singleton.
    """
    groups: list[list[RunTask]] = []
    for task in tasks:
        if ((task.core_lanes or 0) > 1 and groups
                and len(groups[-1]) < (groups[-1][0].core_lanes or 0)):
            groups[-1].append(task)
        else:
            groups.append([task])
    return groups


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a job-count request: ``None``/``0`` means "all CPUs"."""
    if not jobs:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without CPU affinity
            return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _pool_context():
    """Prefer ``fork`` (cheap, inherits the loaded modules) where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


#: Per-caller progress counter sink: a callable taking
#: ``(workload name, {event: increment})``.  The events are ``campaigns``
#: and ``inputs`` (planned), ``cached`` (replayed from the cache),
#: ``waited`` (replayed after another caller's in-flight simulation),
#: ``dispatched`` (lane groups sent to execute) and ``simulated`` (inputs
#: simulated).  The campaign service sets the sink inside each job's worker
#: thread to feed the job's stats and progress events; everywhere else it
#: is unset and counting costs one lookup.
COUNTER_SINK: contextvars.ContextVar = contextvars.ContextVar(
    "microsampler_counter_sink", default=None)


def count(workload_name: str, **counts: int) -> None:
    """Report counter increments to the caller's :data:`COUNTER_SINK`."""
    sink = COUNTER_SINK.get()
    if sink is not None:
        sink(workload_name, counts)


def execute_groups(groups: list[list[RunTask]], *, jobs: int | None = 1,
                   pool: "WorkerPool | None" = None) -> list[tuple]:
    """Execute lane groups; returns ``[(outputs, seconds), ...]`` in group
    order, ``seconds`` being the group's in-worker wall-clock (its span's).

    The one dispatcher behind every front end.  With a ``pool`` (a
    long-lived :class:`WorkerPool`, e.g. the campaign service's) each lane
    group is one shard.  Without one, ``jobs > 1`` and more than one group
    open a transient pool for the call; anything else runs in-process.
    Results are gathered in submission order, so completion order never
    influences the merge, and each group's span tree is adopted into the
    caller's current span.  A batched-core group must land whole in one
    worker, and without core batching every group is a singleton.
    """
    if pool is None:
        workers = min(resolve_jobs(jobs), len(groups))
        if workers > 1:
            with WorkerPool(workers) as transient:
                return execute_groups(groups, pool=transient)
    if groups:
        count(groups[0][0].workload_name, dispatched=len(groups))
    futures = ([pool.submit(group) for group in groups]
               if pool is not None else None)
    parent = current_span()
    results = []
    for index, group in enumerate(groups):
        outputs = (futures[index].result() if futures is not None
                   else execute_run_batch(group))
        tree = outputs[0].span
        if parent is not None:
            parent.adopt(tree)
        results.append((outputs, tree.seconds))
        count(group[0].workload_name, simulated=len(group))
    return results


def execute_tasks(tasks: list[RunTask], jobs: int | None = 1,
                  pool: "WorkerPool | None" = None) -> list[RunOutput]:
    """Execute ``tasks`` as lane groups (see :func:`execute_groups`),
    returning their outputs in **task order**."""
    return [output
            for outputs, _seconds in execute_groups(
                _lane_groups(tasks), jobs=jobs, pool=pool)
            for output in outputs]


# -- persistent worker pool --------------------------------------------------
#
# Workers that outlive any one call, detect and replace crashed members,
# and re-dispatch the shard the victim held.  ``WorkerPool`` provides that
# on plain ``multiprocessing`` pipes — one duplex pipe per worker, a
# dispatcher thread multiplexing them with ``connection.wait``.  A worker
# death closes its pipe, so the EOF doubles as the health check: no
# polling interval, detection is immediate.


#: Environment variable naming a *fault-injection token file*.  When set,
#: every pool worker tries to atomically consume (unlink) the file before
#: executing a task; the single worker that wins the unlink SIGKILLs itself
#: mid-shard.  This exists purely so tests can exercise the crash-recovery
#: path deterministically — exactly one kill per token file, injected at a
#: real shard boundary inside a real worker process.
FAULT_TOKEN_ENV = "MICROSAMPLER_FAULT_TOKEN"


def maybe_inject_worker_fault() -> None:
    """Consume the fault token, if any, and die abruptly (test hook)."""
    path = os.environ.get(FAULT_TOKEN_ENV)
    if not path:
        return
    try:
        os.unlink(path)
    except OSError:
        return  # token already consumed (or never created): no fault
    os.kill(os.getpid(), signal.SIGKILL)


class WorkerCrashError(RuntimeError):
    """A shard's workers kept dying; the shard exceeded its re-dispatch
    budget and cannot complete."""


class ShardExecutionError(RuntimeError):
    """A worker reported a Python-level failure while executing a shard
    (e.g. a :class:`~repro.sampler.runner.WorkloadError`).  Deterministic —
    never retried."""


def _pool_worker(conn, parent_ends, wake_fds) -> None:
    """Worker main loop: receive ``(shard_id, tasks)``, send results back.

    Runs until the parent sends ``None`` or closes the pipe.  Failures are
    reported as data, not raised — the worker survives bad shards; only an
    OS-level death (crash, SIGKILL) takes it down, which the parent notices
    as EOF on this pipe.

    A forked worker first closes what it inherited from the pool: the
    pool's end of every worker pipe (its own included) and the wake pipe.
    Held open, those ends would keep the pipes alive after the pool's
    process dies, so no worker would see EOF and all would outlive it.
    """
    from repro.sampler.runner import WorkloadError

    for end in parent_ends:
        end.close()
    for fd in wake_fds:
        os.close(fd)

    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        shard_id, tasks = item
        try:
            outputs = []
            for group in _lane_groups(tasks):
                for _ in group:
                    maybe_inject_worker_fault()
                outputs.extend(execute_run_batch(group))
            reply = (shard_id, True, outputs)
        except WorkloadError as exc:
            # A misbehaving workload reaches the caller as itself.
            reply = (shard_id, False, exc)
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            reply = (shard_id, False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class _Shard:
    """One dispatch unit: a task list plus its result future."""

    __slots__ = ("shard_id", "tasks", "future", "dispatches")

    def __init__(self, shard_id: int, tasks: list[RunTask]):
        self.shard_id = shard_id
        self.tasks = tasks
        self.future = concurrent.futures.Future()
        self.dispatches = 0


class _WorkerHandle:
    """Parent-side view of one worker process."""

    __slots__ = ("worker_id", "process", "conn", "shard")

    def __init__(self, worker_id: int, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.shard: _Shard | None = None


class WorkerPool:
    """Long-lived simulation worker pool with crash recovery.

    ``submit(tasks)`` enqueues one *shard* (a list of :class:`RunTask`) and
    returns a :class:`concurrent.futures.Future` resolving to the shard's
    ``list[RunOutput]`` in task order (each lane group's span tree on its
    first output).  Shards are assigned to idle workers
    by a dispatcher thread; a worker that dies mid-shard (crash, OOM kill,
    :data:`FAULT_TOKEN_ENV` injection) is detected immediately via pipe
    EOF, replaced with a fresh process, and its shard re-dispatched — up to
    ``max_redispatch`` times, after which the shard's future fails with
    :class:`WorkerCrashError`.  Python-level worker errors (a misbehaving
    workload) are deterministic and fail the future without retrying: a
    :class:`~repro.sampler.runner.WorkloadError` as itself, anything else
    as :class:`ShardExecutionError`.

    Thread-safe: futures may be awaited from any thread (or wrapped with
    ``asyncio.wrap_future``).  Simulation results are bit-identical to
    in-process execution — workers run the exact same
    :func:`execute_run` — so pool output feeds the same deterministic
    merge as every other backend.
    """

    def __init__(self, workers: int | None = None, *,
                 max_redispatch: int = 2, ctx=None):
        self._ctx = ctx or _pool_context()
        self.n_workers = max(1, resolve_jobs(workers))
        self.max_redispatch = max_redispatch
        self._lock = threading.Lock()
        self._pending: collections.deque[_Shard] = collections.deque()
        self._handles: dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0
        self._next_shard_id = 0
        self._closed = False
        self._stats = {"workers": self.n_workers, **dict.fromkeys(
            ("workers_spawned", "workers_replaced", "shards_dispatched",
             "shards_redispatched", "shards_completed", "shards_failed",
             "tasks_completed"), 0)}
        self._wake_r, self._wake_w = os.pipe()
        with self._lock:
            for _ in range(self.n_workers):
                self._spawn_locked()
        self._thread = threading.Thread(
            target=self._dispatch_loop, daemon=True,
            name="microsampler-worker-pool")
        self._thread.start()

    # -- public API ---------------------------------------------------------

    def submit(self, tasks: list[RunTask]) -> concurrent.futures.Future:
        """Enqueue one shard; the future resolves to its ``RunOutput`` list."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            shard = _Shard(self._next_shard_id, list(tasks))
            self._next_shard_id += 1
            self._pending.append(shard)
        self._wake()
        return shard.future

    def stats(self) -> dict:
        """Snapshot of pool counters (workers replaced, shards moved...)."""
        with self._lock:
            snapshot = dict(self._stats)
            snapshot["busy_workers"] = sum(
                1 for handle in self._handles.values()
                if handle.shard is not None)
            snapshot["pending_shards"] = len(self._pending)
        return snapshot

    def close(self, timeout: float = 5.0) -> None:
        """Stop the dispatcher and terminate every worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles.values())
            pending = list(self._pending)
            self._pending.clear()
        self._wake()
        self._thread.join(timeout)
        for shard in pending:
            if not shard.future.done():
                shard.future.set_exception(
                    RuntimeError("worker pool closed"))
        for handle in handles:
            if (handle.shard is not None
                    and not handle.shard.future.done()):
                handle.shard.future.set_exception(
                    RuntimeError("worker pool closed"))
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            handle.process.join(timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatcher internals ----------------------------------------------

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _spawn_locked(self) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        inherited = ((), ())
        if self._ctx.get_start_method() == "fork":
            inherited = ([parent_conn] + [handle.conn for handle
                                          in self._handles.values()],
                         (self._wake_r, self._wake_w))
        process = self._ctx.Process(
            target=_pool_worker, args=(child_conn, *inherited), daemon=True,
            name=f"microsampler-worker-{self._next_worker_id}")
        process.start()
        child_conn.close()  # parent EOF-detects the child's death
        handle = _WorkerHandle(self._next_worker_id, process, parent_conn)
        self._handles[handle.worker_id] = handle
        self._next_worker_id += 1
        self._stats["workers_spawned"] += 1
        return handle

    def _assign_locked(self) -> None:
        for handle in self._handles.values():
            if not self._pending:
                return
            if handle.shard is None:
                shard = self._pending.popleft()
                shard.dispatches += 1
                handle.shard = shard
                if shard.dispatches == 1:
                    self._stats["shards_dispatched"] += 1
                try:
                    handle.conn.send((shard.shard_id, shard.tasks))
                except (BrokenPipeError, OSError):
                    # Worker already dead: the EOF path below re-dispatches.
                    self._pending.appendleft(shard)
                    shard.dispatches -= 1
                    handle.shard = None

    def _on_result(self, handle: _WorkerHandle, reply) -> None:
        shard_id, ok, payload = reply
        shard = handle.shard
        handle.shard = None
        if shard is None or shard.shard_id != shard_id:
            return  # stale reply from a shard already failed elsewhere
        if ok:
            self._stats["shards_completed"] += 1
            self._stats["tasks_completed"] += len(shard.tasks)
            if not shard.future.done():
                shard.future.set_result(payload)
        else:
            self._stats["shards_failed"] += 1
            if not shard.future.done():
                shard.future.set_exception(
                    payload if isinstance(payload, BaseException)
                    else ShardExecutionError(payload))

    def _on_death_locked(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker and requeue (or fail) its shard."""
        self._handles.pop(handle.worker_id, None)
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(0.1)
        shard = handle.shard
        handle.shard = None
        self._stats["workers_replaced"] += 1
        if not self._closed:
            self._spawn_locked()
        if shard is None:
            return
        if shard.dispatches > self.max_redispatch:
            self._stats["shards_failed"] += 1
            if not shard.future.done():
                shard.future.set_exception(WorkerCrashError(
                    f"shard {shard.shard_id} crashed its worker "
                    f"{shard.dispatches} time(s); giving up"))
            return
        self._stats["shards_redispatched"] += 1
        self._pending.appendleft(shard)

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                self._assign_locked()
                conn_map = {handle.conn: handle
                            for handle in self._handles.values()}
            ready = multiprocessing.connection.wait(
                list(conn_map) + [self._wake_r], timeout=1.0)
            for obj in ready:
                if obj is self._wake_r:
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:
                        pass
                    continue
                handle = conn_map.get(obj)
                if handle is None:
                    continue
                try:
                    reply = handle.conn.recv()
                except (EOFError, OSError):
                    with self._lock:
                        if self._closed:
                            return
                        self._on_death_locked(handle)
                    continue
                with self._lock:
                    self._on_result(handle, reply)


def merge_outputs(outputs: list[RunOutput],
                  tracer: MicroarchTracer) -> list[RunResult]:
    """Deterministically merge per-run outputs into a shared-tracer view.

    Outputs must already be ordered by campaign input.  Records are
    re-stamped with their global iteration index and run index (cached
    outputs are normalized to ``run_index=0``, and a cached input may be
    replayed at a different position), which reproduces exactly what one
    tracer shared across a serial campaign would have recorded.
    """
    runs: list[RunResult] = []
    for position, output in enumerate(outputs):
        for record in output.iterations:
            record.run_index = position
            tracer.append_record(record)  # re-stamps the global index
        tracer.cycles_sampled += output.cycles_sampled
        tracer.run_index = position
        if output.iterations:
            tracer.roi_seen = True
        runs.append(output.run)
    return runs
