"""Two-phase leakage localization: detection verdicts -> annotated causes.

Phase 1 is the ordinary MicroSampler pipeline: a campaign without raw-row
retention, scored per unit.  Phase 2 re-runs (or cache-replays) the
campaign **only for the flagged units**, with per-cycle digest retention
and the commit log enabled, then runs the temporal scan and instruction
attribution per unit.  Keeping the phases separate means the common
no-leak path never pays the localization memory cost, while the
content-addressed trace cache makes the second simulation a replay whenever
a localization campaign ran before.

The cache interaction is defensive on top of content addressing: a replay
that somehow lacks per-cycle digests or commit logs (a poisoned or
pre-versioning entry) is transparently re-simulated with the cache bypassed
rather than crashing the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.localize.attribution import (
    DEFAULT_PERMUTATIONS,
    AttributionResult,
    attribute_window,
)
from repro.localize.temporal import TemporalScan, temporal_scan
from repro.sampler.runner import Workload, run_campaign
from repro.util.profiling import scope, span, stage_seconds

#: Significance gate for localized findings (acceptance: p < 0.01 on the
#: secret-dependent instructions).  Stricter than the detection alpha
#: because phase 2 tests many offsets/instructions per unit.
LOCALIZATION_ALPHA = 0.01

#: Span name -> localization timing column (see
#: :func:`~repro.util.profiling.stage_seconds`): the phase-2 campaign is
#: ``simulate``; the phase-1 analysis it may include is not counted.
LOCALIZE_STAGES = {"campaign": "simulate", "scan": "scan",
                   "attribute": "attribute", "analyze": None}


@dataclass
class UnitLocalization:
    """Localization outcome for one leaky unit."""

    feature_id: str
    scan: TemporalScan
    attribution: AttributionResult | None = None

    @property
    def localized(self) -> bool:
        return self.scan.window is not None


@dataclass
class LocalizationReport:
    """Phase-2 verdicts: one :class:`UnitLocalization` per flagged unit."""

    workload_name: str
    config_name: str
    n_iterations: int
    n_classes: int
    #: units that phase 1 flagged (the localization targets).
    target_units: tuple = ()
    units: dict[str, UnitLocalization] = field(default_factory=dict)
    #: The localization's span tree (:class:`repro.util.profiling.Span`).
    spans: object | None = None
    #: The same tree when the sampler was profiling, else None.
    profile: object | None = None

    @property
    def timings(self) -> dict:
        """Seconds spent simulating, scanning and attributing."""
        return stage_seconds(self.spans, LOCALIZE_STAGES)

    @property
    def localized_units(self) -> list[str]:
        return [fid for fid, unit in self.units.items() if unit.localized]

    @property
    def leakage_localized(self) -> bool:
        return bool(self.localized_units)


def localize_campaign(campaign, feature_ids, *,
                      v_threshold: float | None = None,
                      alpha: float | None = None,
                      warmup_iterations: int = 0,
                      permutations: int = DEFAULT_PERMUTATIONS,
                      seed: int = 0,
                      taint=None) -> LocalizationReport:
    """Run temporal scan + attribution over an existing campaign.

    The campaign must have been run with ``keep_raw`` covering
    ``feature_ids`` and ``log_commits=True`` (see :func:`localize`).

    ``taint`` (a :class:`~repro.sampler.pipeline.TaintSummary`) enables the
    rank tier: permutation tests run only on PCs the taint engine saw
    touch secret data, the rest are reported as pre-excluded.  An
    escalated map (secret-dependent control or address flow) voids the
    per-PC exoneration, so no restriction is applied then — which is why
    the bundled leaky workloads localize bit-identically with taint on.
    """
    from repro.sampler.stats import (
        SIGNIFICANCE_ALPHA,
        STRONG_ASSOCIATION_THRESHOLD,
    )

    v_threshold = (STRONG_ASSOCIATION_THRESHOLD if v_threshold is None
                   else v_threshold)
    alpha = SIGNIFICANCE_ALPHA if alpha is None else alpha
    allowed_pcs = None
    if taint is not None and not taint.escalated:
        merged = taint.merged
        allowed_pcs = frozenset(
            merged.tainted_pcs | merged.tainted_mem_pcs
            | merged.tainted_branch_pcs | merged.transient_mem_pcs)
    iterations = [r for r in campaign.iterations
                  if r.ordinal >= warmup_iterations]
    report = LocalizationReport(
        workload_name=campaign.workload.name,
        config_name=campaign.config.name,
        n_iterations=len(iterations),
        n_classes=len({r.label for r in iterations}),
        target_units=tuple(feature_ids),
    )
    with scope(campaign.span, "localize") as root:
        for feature_id in feature_ids:
            with span("scan"):
                scan = temporal_scan(iterations, feature_id,
                                     v_threshold=v_threshold, alpha=alpha)
            unit = UnitLocalization(feature_id=feature_id, scan=scan)
            if scan.window is not None:
                with span("attribute"):
                    unit.attribution = attribute_window(
                        iterations, feature_id, scan.window,
                        permutations=permutations, seed=seed,
                        allowed_pcs=allowed_pcs,
                    )
            report.units[feature_id] = unit
    report.spans = root
    return report


def _missing_localization_inputs(campaign, feature_ids) -> bool:
    """True when any record lacks per-cycle digests or a commit log."""
    for record in campaign.iterations:
        if record.commits is None:
            return True
        for feature_id in feature_ids:
            feature = record.features.get(feature_id)
            if feature is None or feature.cycle_digests is None:
                return True
    return False


def localize(workload: Workload, *, sampler=None, report=None,
             features=None, permutations: int = DEFAULT_PERMUTATIONS,
             seed: int = 0,
             max_cycles_per_run: int = 5_000_000) -> LocalizationReport:
    """The full two-phase flow: detect, then localize every flagged unit.

    ``sampler`` supplies the core configuration, thresholds and the
    simulation backend (jobs/pool/cache); ``report`` is an existing phase-1
    :class:`~repro.sampler.pipeline.LeakageReport` to reuse (one is
    computed when omitted).  ``features`` overrides the localization
    targets — by default, the report's leaky units.
    """
    from repro.sampler.pipeline import MicroSampler

    sampler = sampler or MicroSampler()
    with span("localize") as root:
        if report is None and features is None:
            report = sampler.analyze(workload,
                                     max_cycles_per_run=max_cycles_per_run)
        taint = None
        if getattr(sampler, "taint", False):
            # Reuse the phase-1 prescreen when available; the map is a pure
            # function of the workload so recomputing is equivalent.
            if report is not None and report.taint is not None:
                taint = report.taint
            else:
                taint = sampler.compute_taint(workload)
        targets = tuple(features if features is not None
                        else report.leaky_units)
        result = LocalizationReport(
            workload_name=workload.name,
            config_name=sampler.config.name,
            n_iterations=report.n_iterations if report is not None else 0,
            n_classes=report.n_classes if report is not None else 0,
        )
        if targets:
            campaign_kwargs = dict(
                features=targets, keep_raw=True, log_commits=True,
                max_cycles_per_run=max_cycles_per_run, jobs=sampler.jobs,
                pool=getattr(sampler, "pool", None),
                warmup_insts=getattr(sampler, "warmup_insts", None),
                batch_lanes=getattr(sampler, "batch_lanes", None),
                profile=sampler.profile,
            )
            campaign = run_campaign(workload, sampler.config,
                                    cache=sampler.cache, **campaign_kwargs)
            if _missing_localization_inputs(campaign, targets):
                # Stale or pre-versioning cache entries replayed without
                # the localization inputs: re-simulate instead of
                # crashing the scan.
                campaign = run_campaign(workload, sampler.config,
                                        cache=None, **campaign_kwargs)
            result = localize_campaign(
                campaign, targets,
                v_threshold=sampler.v_threshold, alpha=sampler.alpha,
                warmup_iterations=sampler.warmup_iterations,
                permutations=permutations, seed=seed,
                taint=taint,
            )
    result.spans = root
    result.profile = root if sampler.profile else None
    return result
