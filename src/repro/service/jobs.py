"""Job model and orchestration for the campaign service.

A *job* is one analyze/localize/audit request from one tenant.  The
:class:`JobManager` owns the lifecycle: validated submission → priority
queue → one library call in a worker thread, simulating on the shared
worker pool → result.

Consistency contract
--------------------
A job's result is **bit-identical** to the equivalent one-shot CLI
invocation (``microsampler analyze/localize/audit ... --json``), modulo
wall-clock fields (scrub with :func:`strip_volatile`).  The mechanism:
each job calls the *same library entry point the CLI uses*
(``MicroSampler.analyze``, ``repro.localize.localize``, ``run_audit``)
exactly once, with a :class:`~repro.sampler.pipeline.MicroSampler` that
simulates on the service's :class:`~repro.sampler.exec_backend.WorkerPool`
and shares its trace cache.  The pool runs the same executor as
``--jobs N`` and the deterministic input-order merge makes placement
invisible, so the service adds scheduling, never a second result path.

Cross-tenant dedup
------------------
Identical (program, input, config) work anywhere in the fleet is one
simulation: the shared trace cache is the dedup index, and its claims
(see :mod:`repro.sampler.trace_cache`) cover work still in flight.  Three
tiers, counted separately in ``job.stats``:

* ``shards_cached`` — the trace cache already held the input (any earlier
  job, any backend, even a one-shot CLI run against the same cache dir).
* ``shards_deduped`` — another *in-flight* job claimed the identical
  input first; this job waits for it and replays the stored result.
* ``shards_simulated`` — fresh work this job dispatched to the pool.

Cache-served inputs never occupy a simulation slot.  The counts and the
``progress`` events come from the runner through
:data:`~repro.sampler.exec_backend.COUNTER_SINK`, which each job sets in
its own worker thread.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from dataclasses import dataclass, fields

from repro.sampler.exec_backend import COUNTER_SINK
from repro.service.queue import PriorityJobQueue

JOB_KINDS = ("analyze", "localize", "audit")
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Result keys that vary run-to-run (wall clock, profiler output) and are
#: excluded from bit-identity comparisons between service and one-shot
#: results.  ``seconds`` is the per-entry audit timing.
VOLATILE_KEYS = frozenset({"timings_seconds", "profile", "seconds"})

#: ``job.stats`` field for each runner counter event (see
#: :data:`~repro.sampler.exec_backend.COUNTER_SINK`).
JOB_STAT_FOR_EVENT = {
    "campaigns": "campaigns",
    "inputs": "inputs_total",
    "dispatched": "shards_dispatched",
    "cached": "shards_cached",
    "waited": "shards_deduped",
    "simulated": "shards_simulated",
}


def strip_volatile(value):
    """Recursively drop wall-clock/profiling keys from a result payload."""
    if isinstance(value, dict):
        return {key: strip_volatile(item) for key, item in value.items()
                if key not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [strip_volatile(item) for item in value]
    return value


class JobSpecError(ValueError):
    """A submission payload failed validation (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """Validated description of one job, mirroring the CLI's knobs.

    Defaults match the corresponding ``microsampler`` subcommand defaults,
    so an empty-field submission behaves exactly like the bare CLI verb.
    """

    kind: str = "analyze"
    #: target workload (analyze/localize).
    workload: str | None = None
    #: audit suite (empty = the full built-in expectation suite).
    workloads: tuple = ()
    config: str = "mega"
    fast_bypass: bool = False
    variable_div: bool = False
    inputs: int = 8
    seed: int = 3
    #: higher runs first; FIFO within a priority level.
    priority: int = 0
    tenant: str = ""
    #: attribution permutations (localize); None = CLI default.
    permutations: int | None = None
    #: fast-forward budget; "default" = the CLI default (512), accepts the
    #: CLI's ``none``/``full``/int forms.
    warmup_insts: object = "default"
    #: lockstep lane batching (functional prepass + lane-batched
    #: cycle-accurate core); each lane group is one pool shard.
    batch_lanes: object = "auto"
    no_timing_removed: bool = False
    #: secret-taint publicness prescreen (``--taint on``): prune tracing,
    #: restrict attribution, cross-check verdicts.  Verdict-neutral.
    taint: bool = False

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise JobSpecError("job spec must be a JSON object")
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobSpecError(f"unknown job spec field(s): {unknown}")
        merged = {**{f.name: getattr(cls, f.name) for f in fields(cls)},
                  **payload}
        if isinstance(merged.get("workloads"), list):
            merged["workloads"] = tuple(merged["workloads"])
        spec = cls(**merged)
        spec.validate()
        return spec

    def validate(self) -> None:
        from repro.cli import known_workloads

        if self.kind not in JOB_KINDS:
            raise JobSpecError(
                f"unknown job kind {self.kind!r}; choose from {JOB_KINDS}")
        if self.config not in ("mega", "medium", "small"):
            raise JobSpecError(
                f"unknown config {self.config!r}; choose 'mega', "
                "'medium' or 'small'")
        if not isinstance(self.inputs, int) or self.inputs < 1:
            raise JobSpecError("inputs must be a positive integer")
        if not isinstance(self.priority, int):
            raise JobSpecError("priority must be an integer")
        if not isinstance(self.taint, bool):
            raise JobSpecError("taint must be a boolean")
        names = known_workloads()
        if self.kind in ("analyze", "localize"):
            if not self.workload:
                raise JobSpecError(f"{self.kind} jobs need a 'workload'")
            if self.workload not in names:
                raise JobSpecError(f"unknown workload {self.workload!r}")
        else:
            for name in self.workloads:
                if name not in names:
                    raise JobSpecError(f"unknown workload {name!r}")
        self.resolve_warmup_insts()  # raises JobSpecError on bad values

    def resolve_warmup_insts(self) -> int | None:
        """The spec's fast-forward budget as the library's int-or-None."""
        from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS, parse_warmup

        value = self.warmup_insts
        if value == "default":
            return DEFAULT_WARMUP_INSTS
        if value is None or isinstance(value, int):
            return value
        try:
            return parse_warmup(str(value))
        except ValueError as error:
            raise JobSpecError(f"invalid warmup_insts {value!r}: {error}")

    def to_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["workloads"] = list(self.workloads)
        return payload


class Job:
    """One submission: state machine, progress events, stats, result."""

    def __init__(self, job_id: str, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self.state = "queued"
        self.error: str | None = None
        self.result: dict | None = None
        self.stats = dict.fromkeys(JOB_STAT_FOR_EVENT.values(), 0)
        self.events: list[dict] = []
        self.task: asyncio.Task | None = None
        #: Global start ordinal (scheduler dequeue order); None until run.
        self.start_seq: int | None = None
        self._change = asyncio.Event()

    @property
    def priority(self) -> int:
        return self.spec.priority

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def emit(self, event_type: str, **payload) -> None:
        event = {"seq": len(self.events), "type": event_type,
                 "state": self.state, **payload}
        self.events.append(event)
        change, self._change = self._change, asyncio.Event()
        change.set()

    async def stream(self, start: int = 0):
        """Yield events from ``start`` onward until the job is terminal."""
        index = start
        while True:
            while index < len(self.events):
                yield self.events[index]
                index += 1
            if self.terminal:
                return
            await self._change.wait()

    def to_dict(self, *, include_result: bool = True) -> dict:
        payload = {
            "id": self.id,
            "kind": self.spec.kind,
            "state": self.state,
            "priority": self.spec.priority,
            "tenant": self.spec.tenant,
            "spec": self.spec.to_dict(),
            "stats": dict(self.stats),
            "n_events": len(self.events),
            "error": self.error,
        }
        if include_result and self.result is not None:
            payload["result"] = self.result
        return payload


class JobCancelled(Exception):
    """Raised inside a cancelled job's worker thread at its next count."""


class JobManager:
    """Schedules jobs over one worker pool and one shared trace cache."""

    def __init__(self, *, pool, cache, max_active: int = 2):
        if cache is None:
            raise ValueError(
                "the campaign service requires a trace cache: it is the "
                "dedup index and the shard-result transport")
        self.pool = pool
        self.cache = cache
        self._jobs: dict[str, Job] = {}
        self._queue = PriorityJobQueue()
        self._active = asyncio.Semaphore(max_active)
        self._counter = itertools.count(1)
        self._start_counter = itertools.count(1)
        self._scheduler_task: asyncio.Task | None = None
        self._closing = False

    # -- submission & lifecycle --------------------------------------------

    def submit(self, spec) -> Job:
        """Validate, enqueue, and return the new job (call on the loop)."""
        if self._closing:
            raise RuntimeError("job manager is closing")
        if not isinstance(spec, JobSpec):
            spec = JobSpec.from_dict(spec)
        job = Job(f"job-{next(self._counter):06d}", spec)
        self._jobs[job.id] = job
        self._queue.push(job)
        job.emit("queued", priority=spec.priority)
        self._ensure_scheduler()
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; False if unknown/terminal."""
        job = self._jobs.get(job_id)
        if job is None or job.terminal:
            return False
        if self._queue.remove(job_id):
            job.state = "cancelled"
            job.emit("cancelled", reason="cancelled while queued")
            return True
        if job.task is not None and not job.task.done():
            job.task.cancel()
            return True
        return False

    def stats(self) -> dict:
        states = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            states[job.state] += 1
        return {
            "jobs": {"total": len(self._jobs), **states},
            "queue_depth": len(self._queue),
            "inflight_keys": self.cache.inflight_keys,
            "dedup_inflight_hits": self.cache.dedup_inflight_hits,
            "pool": self.pool.stats(),
            "cache": {"hits": self.cache.hits, "misses": self.cache.misses,
                      "stores": self.cache.stores,
                      "root": str(self.cache.root)},
        }

    async def close(self) -> None:
        """Cancel running jobs, drain the scheduler, leave the pool alone."""
        self._closing = True
        pending = [job.task for job in self._jobs.values()
                   if job.task is not None and not job.task.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._queue.close()
        if self._scheduler_task is not None:
            await self._scheduler_task
            self._scheduler_task = None

    def _ensure_scheduler(self) -> None:
        if self._scheduler_task is None or self._scheduler_task.done():
            self._scheduler_task = asyncio.get_running_loop().create_task(
                self._scheduler(), name="microsampler-job-scheduler")

    async def _scheduler(self) -> None:
        # Acquire the slot *before* popping: jobs stay in the queue (and
        # cancellable, and overtakable by higher priorities) until the
        # moment a slot is actually free for them.
        while True:
            await self._active.acquire()
            job = await self._queue.pop()
            if job is None:
                self._active.release()
                return
            if job.state != "queued":  # cancelled while queued
                self._active.release()
                continue
            job.start_seq = next(self._start_counter)
            job.task = asyncio.get_running_loop().create_task(
                self._run_job(job), name=f"microsampler-{job.id}")
            job.task.add_done_callback(lambda _task: self._active.release())

    async def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.emit("started", start_seq=job.start_seq)
        try:
            job.result = await self._execute(job)
        except asyncio.CancelledError:
            job.state = "cancelled"
            job.emit("cancelled", reason="cancelled while running")
            return
        except Exception as exc:  # noqa: BLE001 - reported on the job
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            job.emit("failed", error=job.error)
            return
        job.state = "done"
        job.emit("done", stats=dict(job.stats))

    # -- execution ----------------------------------------------------------

    async def _execute(self, job: Job) -> dict:
        """Run the job's one library call in a worker thread.

        The thread's counter sink adds the runner's counts to ``job.stats``
        and emits ``progress`` events on the loop; once the job is
        cancelled it raises :class:`JobCancelled` instead, so the call
        stops at its next count and releases its cache claims.
        """
        loop = asyncio.get_running_loop()
        cancelled = threading.Event()

        def record(workload_name: str, counts: dict) -> None:
            if job.terminal:
                return
            for event, value in counts.items():
                job.stats[JOB_STAT_FOR_EVENT[event]] += value
            job.emit("progress", workload=workload_name,
                     stats=dict(job.stats))

        def sink(workload_name: str, counts: dict) -> None:
            if cancelled.is_set():
                raise JobCancelled(job.id)
            loop.call_soon_threadsafe(record, workload_name, counts)

        def work() -> dict:
            token = COUNTER_SINK.set(sink)
            try:
                return self._run_spec(job.spec)
            finally:
                COUNTER_SINK.reset(token)

        try:
            return await loop.run_in_executor(None, work)
        except asyncio.CancelledError:
            cancelled.set()
            raise

    def _run_spec(self, spec: JobSpec) -> dict:
        """The library entry point the CLI verb calls, called once."""
        from repro.cli import (
            AUDIT_EXPECTATIONS,
            AUDIT_TAINT_EXPECTATIONS,
            _resolve_config,
            build_workload,
        )
        from repro.sampler.pipeline import MicroSampler

        sampler = MicroSampler(
            # The spec names its knobs like the CLI flags they mirror.
            _resolve_config(spec),
            warmup_iterations=0,
            analyze_timing_removed=not spec.no_timing_removed,
            pool=self.pool,
            cache=self.cache,
            warmup_insts=spec.resolve_warmup_insts(),
            batch_lanes=spec.batch_lanes,
            taint=spec.taint,
        )
        names = ([spec.workload] if spec.kind != "audit"
                 else list(spec.workloads) or list(AUDIT_EXPECTATIONS))
        workloads = [build_workload(name, inputs=spec.inputs,
                                    seed=spec.seed) for name in names]
        if spec.kind == "analyze":
            from repro.sampler.report import report_to_dict

            return report_to_dict(sampler.analyze(workloads[0]))
        if spec.kind == "localize":
            from repro.localize import localization_to_dict, localize
            from repro.localize.attribution import DEFAULT_PERMUTATIONS

            return localization_to_dict(localize(
                workloads[0], sampler=sampler,
                permutations=(spec.permutations
                              if spec.permutations is not None
                              else DEFAULT_PERMUTATIONS)))
        from repro.sampler.audit import audit_to_dict, run_audit

        expectations = {name: AUDIT_EXPECTATIONS[name]
                        for name in names if name in AUDIT_EXPECTATIONS}
        taint_expectations = ({name: AUDIT_TAINT_EXPECTATIONS[name]
                               for name in names
                               if name in AUDIT_TAINT_EXPECTATIONS}
                              if spec.taint else {})
        return audit_to_dict(run_audit(
            workloads, config=sampler.config, expectations=expectations,
            sampler=sampler, taint_expectations=taint_expectations))
