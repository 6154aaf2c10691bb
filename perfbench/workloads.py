"""The benchmark's workloads: inputs made from the seed, ops, verdict checks.

An op is one call into a library entry point that a CLI verb also calls
(``run_audit``, ``MicroSampler.localize``, ``sweep_configs``) and that
returns a verdict; every op checks its verdict.  Import this module only
after ``repro.cli`` has been imported and timed.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import repro.localize  # noqa: F401  (imported in set-up, not in an op)
import repro.taint  # noqa: F401
from repro.cli import (AUDIT_EXPECTATIONS, AUDIT_TAINT_EXPECTATIONS,
                       build_workload)
from repro.sampler import MicroSampler, sweep_configs
from repro.sampler.audit import run_audit
from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.sampler.trace_cache import TraceCache
from repro.uarch import MEDIUM_BOOM, MEGA_BOOM, SMALL_BOOM

#: Kernels of ``AUDIT_EXPECTATIONS`` the audit workloads leave out, each
#: with the reason.  ``test_perfbench`` pins the defect, so it stays
#: visible, and fails once it is fixed, so the kernel comes back.
EXCLUDED_KERNELS = {
    # A known false positive of the program: about one seed in twenty
    # (3 of 60 random seeds; 39, 70 and 49553821 too) flags the branchless
    # compare leaky on NLP-ADDR with V near 0.7.  The next-line prefetcher
    # address follows the pair's slot in the input array, not its bytes,
    # and the two runs reuse the slots, so a chance match of the shuffled
    # equal/unequal labels reads as a leak.  A run on an arbitrary seed
    # cannot be gated on that verdict.
    "ct-mem-cmp-safe": "seed-dependent NLP-ADDR false positive",
}
AUDIT_KERNELS = tuple(name for name in AUDIT_EXPECTATIONS
                      if name not in EXCLUDED_KERNELS)
#: ``explore`` input size: ee-mem-cmp's 16-pair floor, chacha20 with two
#: keys, so one op stays near two seconds and a run holds a dozen of them.
EXPLORE_INPUTS = 2
SWEEP_CONFIGS = (MEGA_BOOM, MEDIUM_BOOM, SMALL_BOOM)


@dataclass(frozen=True)
class Outcome:
    """What one op returned: its verdict check, the ROI iterations its
    reports scored, and a digest of the verdict for cross-run comparison."""

    ok: bool
    iterations: int
    verdict: tuple
    #: Core configs a sweep op scored (0 for other ops).
    legs: int = 0


def tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


def audit_op(workload, cache) -> Outcome:
    """``microsampler audit`` on one kernel: MegaBoom, default warm-up,
    ``--batch-lanes auto``, ``--jobs 1``."""
    result = run_audit([workload], config=MEGA_BOOM,
                       expectations={workload.name:
                                     AUDIT_EXPECTATIONS[workload.name]},
                       jobs=1, cache=cache,
                       warmup_insts=DEFAULT_WARMUP_INSTS,
                       batch_lanes="auto")
    entry = result.entries[0]
    return Outcome(
        ok=result.passed
        and entry.leakage_detected == AUDIT_EXPECTATIONS[workload.name],
        iterations=entry.n_iterations,
        verdict=(entry.name, entry.leakage_detected,
                 tuple(entry.leaky_units), entry.max_v))


def localize_op(workload) -> Outcome:
    """``microsampler localize ee-mem-cmp --taint on --no-cache``."""
    sampler = MicroSampler(MEGA_BOOM, jobs=1, cache=None,
                           warmup_insts=DEFAULT_WARMUP_INSTS,
                           batch_lanes="auto", taint=True)
    report = sampler.analyze(workload)
    localization = sampler.localize(workload, report=report)
    escalated = report.taint.escalated
    return Outcome(
        ok=localization.leakage_localized
        and escalated == AUDIT_TAINT_EXPECTATIONS["ee-mem-cmp"],
        iterations=report.n_iterations + localization.n_iterations,
        verdict=("localize", escalated,
                 tuple(localization.localized_units)))


def sweep_op(workload) -> Outcome:
    """``microsampler sweep chacha20 --configs mega,medium,small
    --no-cache``: constant-time ChaCha20 must be clean on every core."""
    result = sweep_configs(workload, SWEEP_CONFIGS, jobs=1, cache=None,
                           warmup_insts=DEFAULT_WARMUP_INSTS,
                           batch_lanes="auto")
    return Outcome(
        ok=not result.leaky_configs
        and len(result.legs) == len(SWEEP_CONFIGS),
        iterations=sum(leg.report.n_iterations for leg in result.legs),
        verdict=("sweep", tuple(result.leaky_configs)),
        legs=len(result.legs))


class Workload:
    """Base: ``setup`` pays the untimed costs, ``ops`` yields timed ops.

    ``ops`` is a generator so that per-pass housekeeping (fresh cache
    directories) runs between ops, outside each op's timing.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        #: Per-layer values this workload knows without tracing.
        self.extra = {}

    def setup(self, timed) -> None:
        raise NotImplementedError

    def ops(self, phase: str):
        raise NotImplementedError


class AuditCold(Workload):
    """The audit suite, each pass on a fresh, empty trace cache."""

    def __init__(self, seed, workdir, *, passes: int,
                 kernels=AUDIT_KERNELS):
        super().__init__(seed, workdir)
        self.passes = passes
        self.kernels = tuple(kernels)
        self.suite = []

    def build(self):
        self.suite = [build_workload(name, seed=self.seed)
                      for name in self.kernels]

    def setup(self, timed) -> None:
        timed("workloads.build", self.build)
        root = self.workdir / "first-op"
        timed("setup.first_op",
              lambda: audit_op(self.suite[0], TraceCache(root)))
        shutil.rmtree(root, ignore_errors=True)

    def ops(self, phase: str):
        for index in range(self.passes):
            root = self.workdir / f"{phase}-pass{index}"
            shutil.rmtree(root, ignore_errors=True)
            cache = TraceCache(root)
            for workload in self.suite:
                yield workload.name, (lambda w=workload: audit_op(w, cache))
            self.extra["trace_cache.bytes"] = tree_bytes(root)
            shutil.rmtree(root, ignore_errors=True)


class AuditWarm(AuditCold):
    """The same suite and seed, replayed from a cache filled in set-up."""

    def setup(self, timed) -> None:
        timed("workloads.build", self.build)
        root = self.workdir / "warm"
        shutil.rmtree(root, ignore_errors=True)
        self.cache = TraceCache(root)

        def fill():
            return [audit_op(workload, self.cache) for workload in self.suite]

        timed("setup.fill", fill)
        self.extra["trace_cache.bytes"] = tree_bytes(root)
        timed("setup.first_op", lambda: audit_op(self.suite[0], self.cache))

    def ops(self, phase: str):
        for _ in range(self.passes):
            for workload in self.suite:
                yield workload.name, (lambda w=workload: audit_op(w,
                                                                  self.cache))


class Explore(Workload):
    """Alternating ``localize ee-mem-cmp`` and ``sweep chacha20``, no cache,
    the workload seed advancing by one per op."""

    KINDS = (("localize", "ee-mem-cmp", localize_op),
             ("sweep", "chacha20", sweep_op))

    def __init__(self, seed, workdir, *, n_ops: int):
        super().__init__(seed, workdir)
        self.n_ops = n_ops
        self.suite = []

    def setup(self, timed) -> None:
        def build():
            self.suite = [
                build_workload(self.KINDS[index % 2][1],
                               inputs=EXPLORE_INPUTS, seed=self.seed + index)
                for index in range(self.n_ops)]
            # Inputs for the one untimed op, which no timed op uses.
            return build_workload("chacha20", inputs=EXPLORE_INPUTS,
                                  seed=self.seed + self.n_ops)

        first = timed("workloads.build", build)
        timed("setup.first_op", lambda: sweep_op(first))

    def ops(self, phase: str):
        for index, workload in enumerate(self.suite):
            label, _, op = self.KINDS[index % 2]
            yield label, (lambda w=workload, op=op: op(w))
