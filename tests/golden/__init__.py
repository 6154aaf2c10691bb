"""Golden-value regression fixtures for the paper's case studies.

Each ``<case>.json`` file in this directory pins the verdict for one
case-study campaign: the sorted leaky-unit set plus per-unit Cramér's V,
bias-corrected V and p-value (and timing-removed V).
``tests/test_case_studies.py`` asserts every fresh report against them to
1e-9, so any change to the simulator, the tracer's hashing, or the
statistics that moves a published number is caught as a diff.

The ``taint_*.json`` fixtures pin the secret-taint publicness engine's
merged campaign maps for the memcmp pair — the early-exit variant (must
escalate at the compare branch) and the branchless-safe negative control
(must stay data-only) — so a propagation-rule change that moves an
attribution or flips a prune decision is caught the same way.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python -m tests.golden.regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent
GOLDEN_TOLERANCE = 1e-9

#: Per-unit statistics pinned by the fixtures.
GOLDEN_FIELDS = ("cramers_v", "cramers_v_corrected", "p_value")


def case_workloads() -> dict:
    """The case-study campaigns, keyed by golden-fixture name.

    Sizes match the integration tests in ``test_case_studies.py`` exactly —
    the fixtures pin the verdicts of *those* campaigns, not the full-size
    paper runs.
    """
    from repro.uarch import MEGA_BOOM
    from repro.workloads.memcmp import make_ct_memcmp
    from repro.workloads.modexp import (
        make_me_v1_cv,
        make_me_v1_mv,
        make_me_v2_safe,
        make_sam_ct,
        make_sam_leaky,
    )

    fast_bypass = MEGA_BOOM.with_(fast_bypass=True)
    return {
        "sam_leaky": (make_sam_leaky(n_keys=4, seed=3), MEGA_BOOM),
        "sam_ct": (make_sam_ct(n_keys=6, seed=3), MEGA_BOOM),
        "me_v1_cv": (make_me_v1_cv(n_keys=6, seed=3), MEGA_BOOM),
        "me_v1_mv": (make_me_v1_mv(n_keys=6, seed=3), MEGA_BOOM),
        "me_v2_safe": (make_me_v2_safe(n_keys=6, seed=3), MEGA_BOOM),
        "me_v2_fb": (make_me_v2_safe(n_keys=6, seed=3), fast_bypass),
        "ct_memcmp": (make_ct_memcmp(n_pairs=24, seed=2, n_runs=2),
                      MEGA_BOOM),
    }


def localization_case():
    """The pinned localization campaign: early-exit memcmp, two units.

    Restricted to two representative units (an address trace and an
    occupancy trace) so the fixture stays compact and the tier-1 run fast;
    the full-unit behavior is covered by the e2e localization tests.
    """
    from repro.uarch import MEGA_BOOM
    from repro.workloads.memcmp import make_early_exit_memcmp

    workload = make_early_exit_memcmp(n_pairs=8, seed=2, n_runs=2)
    return workload, MEGA_BOOM, ("ROB-PC", "ROB-OCPNCY")


def localization_to_golden(report) -> dict:
    """Project a LocalizationReport onto the pinned fixture schema.

    Pins the scan's window and flagged offsets, the peak offset's
    statistics, and the full attribution ranking (PC, mnemonic, MI,
    permutation p) per unit.
    """
    units = {}
    for feature_id, unit in report.units.items():
        scan = unit.scan
        peak = scan.peak
        entry = {
            "n_offsets": scan.n_offsets,
            "flagged_offsets": list(scan.flagged_offsets),
            "window": ([scan.window.start, scan.window.end]
                       if scan.window is not None else None),
            "peak": (
                {"offset": peak.offset,
                 "cramers_v": peak.association.cramers_v,
                 "p_value": peak.association.p_value}
                if peak is not None else None
            ),
            "instructions": [
                {"pc": score.pc, "mnemonic": score.mnemonic,
                 "mi_bits": score.mi_bits, "p_value": score.p_value}
                for score in (unit.attribution.scores
                              if unit.attribution is not None else ())
            ],
        }
        units[feature_id] = entry
    return {
        "workload": report.workload_name,
        "config": report.config_name,
        "localized_units": sorted(report.localized_units),
        "units": units,
    }


def report_to_golden(report) -> dict:
    """Project a LeakageReport onto the pinned fixture schema."""
    units = {}
    for feature_id, unit in report.units.items():
        entry = {field: getattr(unit.association, field)
                 for field in GOLDEN_FIELDS}
        if unit.association_notiming is not None:
            entry["cramers_v_notiming"] = unit.association_notiming.cramers_v
        units[feature_id] = entry
    return {
        "workload": report.workload_name,
        "config": report.config_name,
        "leaky_units": sorted(report.leaky_units),
        "units": units,
    }


def taint_cases() -> dict:
    """The pinned taint campaigns, keyed by golden-fixture name.

    Sizes match the audit bundle and the taint differential tests: the
    escalating early-exit memcmp and its branchless negative control.
    """
    from repro.workloads.memcmp import (
        make_ct_memcmp_safe,
        make_early_exit_memcmp,
    )

    return {
        "taint_ee_memcmp": lambda: make_early_exit_memcmp(
            n_pairs=8, seed=2, n_runs=2),
        "taint_ct_memcmp_safe": lambda: make_ct_memcmp_safe(
            n_pairs=8, seed=2, n_runs=2),
    }


def taint_to_golden(publicness) -> dict:
    """Project a CampaignPublicness onto the pinned fixture schema."""
    return {
        "workload": publicness.workload_name,
        "seed_bytes": publicness.seed_bytes,
        "n_maps": len(publicness.maps),
        "merged": publicness.merged.to_dict(),
    }


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())
