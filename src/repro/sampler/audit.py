"""Library-audit campaigns: verify a whole suite of primitives in one run.

The paper's deployment story (Section IV) is a full-stack vendor verifying
its crypto library against its own microarchitecture.  :func:`run_audit`
packages that: a list of workloads goes in, a per-workload verdict table
comes out, with optional *expected* verdicts so the audit doubles as a
regression gate (exit non-zero on any unexpected flip, in either direction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sampler.pipeline import MicroSampler
from repro.uarch.config import CoreConfig, MEGA_BOOM
from repro.util.profiling import span


@dataclass
class AuditEntry:
    """Verdict for one workload."""

    name: str
    leakage_detected: bool
    leaky_units: list
    max_v: float
    n_iterations: int
    #: Wall-clock of the entry's span.
    seconds: float
    expected: bool | None = None
    #: Taint prescreen outcome (``--taint on`` only, else all None/empty):
    #: did the engine see secret-dependent control or address flow?
    taint_escalated: bool | None = None
    #: Expected escalation verdict (folds into :attr:`as_expected`).
    taint_expected: bool | None = None
    #: Per-unit taint-vs-statistics agreement statuses.
    taint_agreement: dict = field(default_factory=dict)

    @property
    def taint_disagreements(self) -> list:
        return [fid for fid, status in self.taint_agreement.items()
                if status == "TAINT-DISAGREE"]

    @property
    def as_expected(self) -> bool:
        if self.expected is not None and \
                self.expected != self.leakage_detected:
            return False
        if self.taint_expected is not None and \
                self.taint_escalated is not None and \
                self.taint_expected != self.taint_escalated:
            return False
        return not self.taint_disagreements


@dataclass
class AuditResult:
    """Full audit outcome."""

    config_name: str
    entries: list = field(default_factory=list)
    #: The audit's span tree: one child per entry.
    spans: object | None = None
    #: The same tree when profiling was requested, else None.
    profile: object | None = None

    @property
    def unexpected(self) -> list:
        return [entry for entry in self.entries if not entry.as_expected]

    @property
    def passed(self) -> bool:
        return not self.unexpected

    def render(self) -> str:
        show_taint = any(entry.taint_escalated is not None
                         for entry in self.entries)
        header = (f"{'workload':<26} {'verdict':<10} {'max V':>6} "
                  f"{'iters':>6} {'time':>7}  ")
        if show_taint:
            header += f"{'taint':<10} {'agreement':<14} "
        header += f"{'status':<10} flagged units"
        lines = [
            f"Constant-time audit on {self.config_name}",
            header,
            "-" * max(100, len(header)),
        ]
        for entry in self.entries:
            verdict = "LEAK" if entry.leakage_detected else "clean"
            if entry.expected is None and entry.taint_expected is None:
                status = ""
            elif entry.as_expected:
                status = "expected"
            else:
                status = "UNEXPECTED"
            units = ", ".join(entry.leaky_units[:5])
            if len(entry.leaky_units) > 5:
                units += f" (+{len(entry.leaky_units) - 5})"
            row = (
                f"{entry.name:<26} {verdict:<10} {entry.max_v:>6.2f} "
                f"{entry.n_iterations:>6} {entry.seconds:>6.1f}s  "
            )
            if show_taint:
                taint = ("-" if entry.taint_escalated is None
                         else "escalated" if entry.taint_escalated
                         else "clean")
                if entry.taint_disagreements:
                    agreement = (f"DISAGREE x"
                                 f"{len(entry.taint_disagreements)}")
                elif entry.taint_agreement:
                    agreement = "agree"
                else:
                    agreement = "-"
                row += f"{taint:<10} {agreement:<14} "
            row += f"{status:<10} {units}"
            lines.append(row)
        lines.append("-" * 100)
        lines.append("AUDIT PASSED" if self.passed else
                     f"AUDIT FAILED: {len(self.unexpected)} unexpected "
                     f"verdict(s)")
        if self.profile is not None:
            lines.append("")
            lines.append(self.profile.render())
        return "\n".join(lines)


def audit_to_dict(result: AuditResult) -> dict:
    """JSON-serializable audit verdict table.

    Per-entry ``seconds`` is wall clock and varies run to run; strip it
    (see :func:`repro.service.strip_volatile`) before comparing audits
    for bit-identity.
    """
    entries = []
    for entry in result.entries:
        item = {
            "name": entry.name,
            "leakage_detected": entry.leakage_detected,
            "leaky_units": list(entry.leaky_units),
            "max_v": entry.max_v,
            "n_iterations": entry.n_iterations,
            "seconds": entry.seconds,
            "expected": entry.expected,
            "as_expected": entry.as_expected,
        }
        if entry.taint_escalated is not None:
            # Present only with --taint on: off-mode audit JSON unchanged.
            item["taint"] = {
                "escalated": entry.taint_escalated,
                "expected_escalated": entry.taint_expected,
                "agreement": dict(entry.taint_agreement),
                "disagreements": entry.taint_disagreements,
            }
        entries.append(item)
    return {
        "config": result.config_name,
        "passed": result.passed,
        "n_unexpected": len(result.unexpected),
        "entries": entries,
    }


def run_audit(workloads, *, config: CoreConfig = MEGA_BOOM,
              expectations: dict | None = None,
              sampler: MicroSampler | None = None,
              jobs: int | None = 1, cache=None,
              warmup_insts: int | None = None,
              batch_lanes=None,
              profile: bool = False,
              taint: bool = False,
              taint_expectations: dict | None = None,
              pool=None) -> AuditResult:
    """Analyze every workload; ``expectations[name]`` = True means "should
    leak" (a litmus), False means "must be clean" (a hardened primitive).

    ``jobs``/``pool``/``cache``/``warmup_insts``/``batch_lanes``/``profile``
    configure the simulation backend when no explicit ``sampler`` is
    supplied (see
    :func:`repro.sampler.run_campaign` and
    :class:`~repro.sampler.pipeline.MicroSampler`); with ``profile`` the
    audit's span tree, per-stage core rows included, lands on
    ``AuditResult.profile``.

    ``taint`` runs the secret-taint prescreen alongside every analysis and
    records the taint-vs-statistics agreement per entry;
    ``taint_expectations[name]`` = True means "should escalate" (folded
    into ``as_expected``, so the audit gates the taint engine too).  A
    ``TAINT-DISAGREE`` status on any unit also fails the entry."""
    sampler = sampler or MicroSampler(config, jobs=jobs, pool=pool,
                                      cache=cache,
                                      warmup_insts=warmup_insts,
                                      batch_lanes=batch_lanes,
                                      profile=profile,
                                      taint=taint)
    expectations = expectations or {}
    taint_expectations = taint_expectations or {}
    result = AuditResult(config_name=config.name)
    with span("audit") as root:
        for workload in workloads:
            with span(workload.name) as entry_span:
                report = sampler.analyze(workload)
            result.entries.append(AuditEntry(
                name=workload.name,
                leakage_detected=report.leakage_detected,
                leaky_units=report.leaky_units,
                max_v=max(report.cramers_v_by_unit().values()),
                n_iterations=report.n_iterations,
                seconds=entry_span.seconds,
                expected=expectations.get(workload.name),
                taint_escalated=(report.taint.escalated
                                 if report.taint is not None else None),
                taint_expected=(taint_expectations.get(workload.name)
                                if report.taint is not None else None),
                taint_agreement=(dict(report.taint.agreement)
                                 if report.taint is not None else {}),
            ))
    result.spans = root
    result.profile = root if sampler.profile else None
    return result
