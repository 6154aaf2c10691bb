"""Integration tests: the paper's case-study results, end to end.

These are the headline reproductions — each test asserts the *shape* of one
published result (which units flag, which stay clean, which root causes are
extracted), at reduced input sizes to keep the suite fast.

Each case-study campaign is simulated once per module (the report fixtures
below) and shared by every test that reads it; the same reports are also
checked against the golden-value fixtures in ``tests/golden/``, which pin
the exact statistics produced by the scalar reference engine.
"""

import pytest

from repro.sampler import MicroSampler, run_campaign
from repro.uarch import MEGA_BOOM

from tests.golden import (
    GOLDEN_FIELDS,
    GOLDEN_TOLERANCE,
    case_workloads,
    load_golden,
)

MEMORY_UNITS = {"SQ-ADDR", "NLP-ADDR", "Cache-ADDR", "TLB-ADDR", "MSHR-ADDR"}

_CASES = case_workloads()


def _analyze(name):
    """Simulate and analyze one case study; returns (workload, report)."""
    workload, config = _CASES[name]
    return workload, MicroSampler(config).analyze(workload)


@pytest.fixture(scope="module")
def sam_leaky():
    return _analyze("sam_leaky")


@pytest.fixture(scope="module")
def sam_ct():
    return _analyze("sam_ct")


@pytest.fixture(scope="module")
def me_v1_cv():
    return _analyze("me_v1_cv")


@pytest.fixture(scope="module")
def me_v1_mv():
    return _analyze("me_v1_mv")


@pytest.fixture(scope="module")
def me_v2_safe():
    return _analyze("me_v2_safe")


@pytest.fixture(scope="module")
def me_v2_fb():
    return _analyze("me_v2_fb")


@pytest.fixture(scope="module")
def ct_memcmp():
    return _analyze("ct_memcmp")


def test_leaky_square_and_multiply_detected(sam_leaky):
    _, report = sam_leaky
    assert report.leakage_detected
    # The secret-gated multiply/divide must be flagged with the exact PCs.
    assert "EUU-MUL" in report.leaky_units
    assert "EUU-DIV" in report.leaky_units
    mul = report.units["EUU-MUL"].root_cause
    assert mul is not None and mul.uniqueness.has_unique_features


def test_constant_time_sam_is_clean(sam_ct):
    _, report = sam_ct
    assert not report.leakage_detected


def test_me_v1_cv_flags_most_units(me_v1_cv):
    """Figure 3: compiler-introduced control flow correlates broadly."""
    _, report = me_v1_cv
    assert len(report.leaky_units) >= 10
    assert "ROB-PC" in report.leaky_units
    assert "EUU-ALU" in report.leaky_units


def test_me_v1_mv_flags_memory_units_only(me_v1_mv):
    """Figure 4: high V confined to memory-access units."""
    _, report = me_v1_mv
    flagged = set(report.leaky_units)
    assert MEMORY_UNITS <= flagged
    assert "EUU-ALU" not in flagged
    assert "ROB-PC" not in flagged


def test_me_v1_mv_uniqueness_pinpoints_dst_dummy(me_v1_mv):
    """Figure 5: per-class unique store addresses are dst vs dummy."""
    workload, report = me_v1_mv
    program = workload.assemble()
    dst = program.symbols["dst_buf"]
    dummy = program.symbols["dummy_buf"]
    for unit in ("SQ-ADDR", "Cache-ADDR"):
        cause = report.units[unit].root_cause
        unique1 = cause.uniqueness.unique_values[1]
        unique0 = cause.uniqueness.unique_values[0]
        assert all(dst <= v < dst + 64 for v in unique1) and unique1
        assert all(dummy <= v < dummy + 64 for v in unique0) and unique0


@pytest.mark.slow
def test_me_v1_mv_timing_channel_needs_warm_dst():
    """Figure 6: overlapping distributions cold, separable with dst warm."""
    from statistics import mean

    from repro.workloads.modexp import make_me_v1_mv
    cold = run_campaign(make_me_v1_mv(n_keys=4, seed=3), MEGA_BOOM)
    cold0 = mean(r.cycles for r in cold.iterations if r.label == 0)
    cold1 = mean(r.cycles for r in cold.iterations if r.label == 1)
    assert abs(cold0 - cold1) / max(cold0, cold1) < 0.05

    warm = run_campaign(make_me_v1_mv(n_keys=4, seed=3, warm_dst=True),
                        MEGA_BOOM)
    warm0 = mean(r.cycles for r in warm.iterations if r.label == 0)
    warm1 = mean(r.cycles for r in warm.iterations if r.label == 1)
    assert warm1 < warm0 * 0.7  # dst-writing iterations clearly faster


def test_me_v2_safe_is_clean(me_v2_safe):
    """Figure 7: no statistically significant correlation anywhere."""
    _, report = me_v2_safe
    assert not report.leakage_detected
    assert max(v for v in report.cramers_v_by_unit().values()) < 0.5


def test_me_v2_fb_fast_bypass_breaks_constant_time(me_v2_fb):
    """Figure 9: the same safe code leaks on the fast-bypass core."""
    _, report = me_v2_fb
    assert report.leakage_detected
    assert "EUU-ALU" in report.leaky_units


def test_me_v2_fb_timing_removal_isolates_alu_and_rob(me_v2_fb):
    """Figure 9, orange bars: SQ drops to ~0 with timing removed, while the
    ALU (skipped AND) and ROB (shared entry) stay perfectly correlated."""
    _, report = me_v2_fb
    v_nt = report.cramers_v_by_unit_notiming()
    assert v_nt["SQ-ADDR"] < 0.1
    assert v_nt["EUU-ALU"] > 0.9
    assert v_nt["ROB-PC"] > 0.9


def test_me_v2_fb_alu_uniqueness_finds_the_and(me_v2_fb):
    workload, report = me_v2_fb
    cause = report.units["EUU-ALU"].root_cause
    assert cause is not None
    # The AND executes on the ALU only for key bit 1.
    program = workload.assemble()
    start = program.symbols["ccopy_bear"]
    unique1 = cause.uniqueness.unique_values[1]
    assert any(start <= pc < start + 4 * 16 for pc in unique1)


def test_ct_memcmp_rob_flags_with_timing_removed(ct_memcmp):
    """Figure 10: with timing effects removed, the ROB stands out."""
    _, report = ct_memcmp
    assert "ROB-PC" in report.leaky_units
    v_nt = report.cramers_v_by_unit_notiming()
    assert v_nt["ROB-PC"] > 0.9
    assert v_nt["SQ-ADDR"] < 0.3
    assert v_nt["MSHR-ADDR"] < 0.5


@pytest.mark.slow
def test_ct_memcmp_speculative_double_calls(ct_memcmp):
    """Section VII-C1: wrong-path (in)equal calls appear in the ROB."""
    workload, _ = ct_memcmp
    campaign = run_campaign(workload, MEGA_BOOM)
    program = workload.assemble()
    eq = program.symbols["equal"]
    ineq = program.symbols["inequal"]
    double_calls = 0
    for record in campaign.iterations:
        values = record.features["ROB-PC"].values
        has_eq = any(eq <= v < eq + 12 for v in values)
        has_ineq = any(ineq <= v < ineq + 12 for v in values)
        if has_eq and has_ineq:
            double_calls += 1
        # equal-class runs must always (eventually) reach equal.
        if record.label == 1:
            assert has_eq
    assert double_calls > 0


@pytest.mark.parametrize("name", sorted(_CASES))
def test_golden_values(name, request):
    """Every case-study report must match its pinned golden fixture.

    Goldens are generated by ``tests/golden/regenerate.py``.
    """
    golden = load_golden(name)
    _, report = request.getfixturevalue(name)
    assert report.workload_name == golden["workload"]
    assert report.config_name == golden["config"]
    assert sorted(report.leaky_units) == golden["leaky_units"]
    assert set(report.units) == set(golden["units"])
    for feature_id, expected in golden["units"].items():
        unit = report.units[feature_id]
        for field in GOLDEN_FIELDS:
            assert getattr(unit.association, field) == pytest.approx(
                expected[field], abs=GOLDEN_TOLERANCE), (feature_id, field)
        if "cramers_v_notiming" in expected:
            assert unit.association_notiming.cramers_v == pytest.approx(
                expected["cramers_v_notiming"], abs=GOLDEN_TOLERANCE), feature_id


@pytest.mark.parametrize("name", [
    "constant_time_eq", "constant_time_select_64",
    "constant_time_lookup", "constant_time_cond_swap_buff",
    "constant_time_is_zero",
])
def test_table5_sample_primitives_clean(name):
    """Table V: the OpenSSL constant-time primitives show no leakage."""
    from repro.workloads.openssl import make_primitive_workload
    report = MicroSampler(MEGA_BOOM).analyze(
        make_primitive_workload(name, n_sets=12, n_runs=2, seed=11)
    )
    assert not report.leakage_detected
