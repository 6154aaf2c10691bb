"""MicroSampler reproduction: microarchitecture-level leakage detection.

Reproduction of "MicroSampler: A Framework for Microarchitecture-Level
Leakage Detection in Constant Time Execution" (DSN 2025), built on a
from-scratch cycle-accurate out-of-order RISC-V core model.

Quickstart::

    from repro import MicroSampler, MEGA_BOOM, make_me_v1_cv, render_report

    report = MicroSampler(MEGA_BOOM).analyze(make_me_v1_cv(n_keys=8))
    print(render_report(report))
"""

from repro.sampler import (
    AssociationResult,
    CampaignResult,
    ContingencyTable,
    LeakageReport,
    MicroSampler,
    RootCauseReport,
    UnitResult,
    Workload,
    adaptive_analyze,
    build_contingency_table,
    cramers_v,
    extract_root_causes,
    feature_ordering,
    feature_uniqueness,
    measure_association,
    render_bar_chart,
    render_histogram,
    render_report,
    run_campaign,
)
from repro.trace import FEATURE_ORDER, FEATURES, IterationRecord, MicroarchTracer
from repro.uarch import MEGA_BOOM, SMALL_BOOM, Core, CoreConfig
from repro.localize import (
    LocalizationReport,
    localization_to_dict,
    localize,
    render_localization,
)
from repro.workloads import (
    make_ct_memcmp,
    make_ct_memcmp_safe,
    make_early_exit_memcmp,
    make_me_v1_cv,
    make_me_v1_mv,
    make_me_v2_safe,
    make_primitive_workload,
    make_sam_ct,
    make_sam_leaky,
    primitive_names,
)

__version__ = "1.0.0"

__all__ = [
    "AssociationResult",
    "CampaignResult",
    "ContingencyTable",
    "Core",
    "CoreConfig",
    "FEATURES",
    "FEATURE_ORDER",
    "IterationRecord",
    "LeakageReport",
    "LocalizationReport",
    "MEGA_BOOM",
    "MicroSampler",
    "MicroarchTracer",
    "RootCauseReport",
    "SMALL_BOOM",
    "UnitResult",
    "Workload",
    "adaptive_analyze",
    "build_contingency_table",
    "cramers_v",
    "extract_root_causes",
    "feature_ordering",
    "feature_uniqueness",
    "localization_to_dict",
    "localize",
    "make_ct_memcmp",
    "make_ct_memcmp_safe",
    "make_early_exit_memcmp",
    "make_me_v1_cv",
    "make_me_v1_mv",
    "make_me_v2_safe",
    "make_primitive_workload",
    "make_sam_ct",
    "make_sam_leaky",
    "measure_association",
    "primitive_names",
    "render_bar_chart",
    "render_histogram",
    "render_localization",
    "render_report",
    "run_campaign",
]
