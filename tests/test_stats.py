"""Statistics tests: contingency tables, chi-squared, Cramér's V, p-values."""

import math

import pytest
from hypothesis import given, strategies as st
from scipy import stats as scipy_stats

from repro.sampler import (
    ContingencyTable,
    build_contingency_table,
    chi_squared_p_value,
    chi_squared_statistic,
    cramers_v,
    hash_frequency,
    measure_association,
)
from repro.sampler.stats import cramers_v_corrected


def _table(counts, classes=None, hashes=None):
    classes = classes or tuple(range(len(counts)))
    hashes = hashes or tuple(range(len(counts[0])))
    return ContingencyTable(classes=tuple(classes), hashes=tuple(hashes),
                            counts=tuple(tuple(r) for r in counts))


class TestContingencyTable:
    def test_build_from_observations(self):
        labels = [0, 0, 1, 1, 0]
        hashes = [10, 20, 10, 10, 10]
        table = build_contingency_table(labels, hashes)
        assert table.classes == (0, 1)
        assert table.hashes == (10, 20)
        assert table.counts == ((2, 1), (2, 0))
        assert table.total == 5

    def test_row_and_column_totals(self):
        table = _table([[1, 2], [3, 4]])
        assert table.row_totals() == (3, 7)
        assert table.column_totals() == (4, 6)

    def test_degenerate_detection(self):
        assert _table([[1, 2]]).is_degenerate()
        assert _table([[1], [2]]).is_degenerate()
        assert not _table([[1, 2], [3, 4]]).is_degenerate()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            build_contingency_table([0, 1], [1])

    def test_render_is_textual(self):
        text = _table([[1, 2], [3, 4]]).render()
        assert "class" in text and "1" in text

    def test_hash_frequency(self):
        freq = hash_frequency([0, 0, 1], [5, 5, 6])
        assert freq[0][5] == 2
        assert freq[1][6] == 1


class TestChiSquared:
    def test_independent_table_is_zero(self):
        statistic, dof = chi_squared_statistic(_table([[10, 10], [10, 10]]))
        assert statistic == pytest.approx(0.0)
        assert dof == 1

    def test_known_value(self):
        # Classic 2x2 example: chi2 = N (ad - bc)^2 / (row/col products)
        table = _table([[20, 30], [30, 20]])
        statistic, dof = chi_squared_statistic(table)
        expected = 100 * (20 * 20 - 30 * 30) ** 2 / (50 * 50 * 50 * 50)
        assert statistic == pytest.approx(expected)

    def test_matches_scipy(self):
        import numpy as np
        counts = [[12, 7, 3], [5, 9, 14]]
        statistic, dof = chi_squared_statistic(_table(counts))
        ref = scipy_stats.chi2_contingency(np.array(counts), correction=False)
        assert statistic == pytest.approx(ref.statistic)
        assert dof == ref.dof

    def test_p_value_matches_scipy_sf(self):
        for statistic, dof in [(0.5, 1), (3.84, 1), (10.0, 4), (100.0, 20)]:
            assert chi_squared_p_value(statistic, dof) == pytest.approx(
                scipy_stats.chi2.sf(statistic, dof))

    def test_p_value_degenerate_dof(self):
        assert chi_squared_p_value(5.0, 0) == 1.0


class TestCramersV:
    def test_perfect_association(self):
        assert cramers_v(_table([[10, 0], [0, 10]])) == pytest.approx(1.0)

    def test_no_association(self):
        assert cramers_v(_table([[5, 5], [5, 5]])) == pytest.approx(0.0)

    def test_degenerate_is_zero(self):
        assert cramers_v(_table([[3, 4]])) == 0.0
        assert cramers_v(_table([[3], [4]])) == 0.0

    def test_intermediate_value(self):
        value = cramers_v(_table([[20, 30], [30, 20]]))
        assert 0.15 < value < 0.25  # chi2=4, N=100, V=0.2
        assert value == pytest.approx(0.2)

    def test_rectangular_table_uses_min_dimension(self):
        # 2 classes x 4 hashes, perfectly separable -> V = 1
        table = _table([[5, 5, 0, 0], [0, 0, 5, 5]])
        assert cramers_v(table) == pytest.approx(1.0)


class TestMeasureAssociation:
    def test_leaky_requires_strong_and_significant(self):
        strong = measure_association(_table([[50, 0], [0, 50]]))
        assert strong.leaky and strong.strong and strong.significant

    def test_small_sample_high_v_not_significant(self):
        """The paper's false-positive control: V high but p above alpha."""
        result = measure_association(_table([[1, 0], [0, 1]]))
        assert result.cramers_v == pytest.approx(1.0)
        assert not result.significant
        assert not result.leaky

    def test_clean_table_not_flagged(self):
        result = measure_association(_table([[25, 25], [25, 25]]))
        assert not result.leaky
        assert result.cramers_v == pytest.approx(0.0)

    def test_fields_populated(self):
        result = measure_association(_table([[10, 5], [5, 10]]))
        assert result.n_observations == 30
        assert result.n_classes == 2
        assert result.n_categories == 2
        assert result.dof == 1


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)),
                min_size=2, max_size=200))
def test_property_v_bounded(observations):
    labels = [o[0] for o in observations]
    hashes = [o[1] for o in observations]
    value = cramers_v(build_contingency_table(labels, hashes))
    assert 0.0 <= value <= 1.0 + 1e-9


@given(st.lists(st.integers(0, 1), min_size=4, max_size=100))
def test_property_identical_hashes_give_zero_v(labels):
    hashes = [42] * len(labels)
    table = build_contingency_table(labels, hashes)
    assert cramers_v(table) == 0.0


@given(st.integers(2, 30))
def test_property_perfect_separation_gives_v_one(n):
    labels = [0] * n + [1] * n
    hashes = [100] * n + [200] * n
    assert cramers_v(build_contingency_table(labels, hashes)) == pytest.approx(1.0)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 8)),
                min_size=2, max_size=100))
def test_property_p_value_in_unit_interval(observations):
    labels = [o[0] for o in observations]
    hashes = [o[1] for o in observations]
    result = measure_association(build_contingency_table(labels, hashes))
    assert 0.0 <= result.p_value <= 1.0


#: Random contingency tables: 2-4 classes x 2-6 categories, cell counts 0-40.
_random_counts = st.integers(2, 4).flatmap(
    lambda rows: st.integers(2, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(0, 40), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        )
    )
)


@given(_random_counts)
def test_fuzz_chi_squared_matches_scipy(counts):
    """Eq. 3/4 against scipy's reference, over random tables.

    scipy requires strictly positive marginals, so tables with an empty row
    or column are filtered out here; our implementation's behaviour on those
    is locked in by the explicit edge-case tests below.
    """
    import numpy as np
    array = np.array(counts)
    if (array.sum(axis=0) == 0).any() or (array.sum(axis=1) == 0).any():
        return
    statistic, dof = chi_squared_statistic(_table(counts))
    ref = scipy_stats.chi2_contingency(array, correction=False)
    assert statistic == pytest.approx(ref.statistic, abs=1e-9)
    assert dof == ref.dof
    assert chi_squared_p_value(statistic, dof) == pytest.approx(
        ref.pvalue, abs=1e-9)


@given(_random_counts)
def test_fuzz_corrected_v_bounded_by_plain_v(counts):
    """Bergsma's correction only ever shrinks V, and stays in [0, 1]."""
    table = _table(counts)
    plain = cramers_v(table)
    corrected = cramers_v_corrected(table)
    assert 0.0 <= corrected <= plain + 1e-9
    assert corrected <= 1.0 + 1e-9


class TestCramersVCorrected:
    def test_sparse_perfect_table_clamps_to_zero(self):
        """V = 1 on [[1,0],[0,1]], but the bias correction eats all of it."""
        table = _table([[1, 0], [0, 1]])
        assert cramers_v(table) == pytest.approx(1.0)
        assert cramers_v_corrected(table) == 0.0

    def test_large_perfect_table_stays_near_one(self):
        table = _table([[500, 0], [0, 500]])
        assert cramers_v_corrected(table) == pytest.approx(1.0, abs=1e-2)

    def test_independent_table_is_zero(self):
        assert cramers_v_corrected(_table([[25, 25], [25, 25]])) == 0.0

    def test_degenerate_single_row(self):
        assert cramers_v_corrected(_table([[3, 4]])) == 0.0

    def test_degenerate_single_column(self):
        assert cramers_v_corrected(_table([[3], [4]])) == 0.0

    def test_single_observation(self):
        # n <= 1 leaves the shrunk dimensions undefined; defined as 0.
        assert cramers_v_corrected(_table([[1, 0], [0, 0]])) == 0.0

    def test_empty_table(self):
        assert cramers_v_corrected(_table([[0, 0], [0, 0]])) == 0.0

    def test_measure_association_populates_both(self):
        result = measure_association(_table([[50, 0], [0, 50]]))
        assert result.cramers_v == pytest.approx(1.0)
        assert 0.9 < result.cramers_v_corrected <= result.cramers_v


class TestChiSquaredEdgeCases:
    def test_empty_row_contributes_nothing(self):
        # scipy rejects zero marginals; ours skips expected == 0 cells.
        statistic, dof = chi_squared_statistic(_table([[5, 5], [0, 0]]))
        assert statistic == pytest.approx(0.0)
        assert dof == 1

    def test_empty_column_contributes_nothing(self):
        statistic, dof = chi_squared_statistic(_table([[5, 0], [5, 0]]))
        assert statistic == pytest.approx(0.0)
        assert dof == 1

    def test_all_zero_table(self):
        statistic, dof = chi_squared_statistic(_table([[0, 0], [0, 0]]))
        assert statistic == 0.0
        assert dof == 0

    def test_single_cell_table(self):
        statistic, dof = chi_squared_statistic(_table([[7]]))
        assert statistic == 0.0
        assert dof == 0


# -- real campaigns -------------------------------------------------------------


@pytest.fixture(scope="module", params=["chacha20", "ct_memcmp"])
def campaign(request):
    """One simulated crypto campaign, scored below."""
    from repro.sampler import run_campaign
    from repro.uarch import MEGA_BOOM
    from repro.workloads.chacha import make_chacha20
    from repro.workloads.memcmp import make_ct_memcmp

    if request.param == "chacha20":
        workload = make_chacha20(n_keys=4, n_blocks=1, seed=6)
    else:
        workload = make_ct_memcmp(n_pairs=12, seed=2, n_runs=2)
    return run_campaign(workload, MEGA_BOOM)


def _unit_tables(records, feature_id):
    labels = [r.label for r in records]
    for attribute in ("snapshot_hash", "snapshot_hash_notiming"):
        yield build_contingency_table(labels, [
            getattr(r.features[feature_id], attribute) for r in records])


def _assert_same_score(reported, expected):
    for field in ("dof", "n_observations", "n_classes", "n_categories"):
        assert getattr(reported, field) == getattr(expected, field), field
    for field in ("chi_squared", "p_value", "cramers_v",
                  "cramers_v_corrected"):
        assert getattr(reported, field) == pytest.approx(
            getattr(expected, field), abs=1e-9), field


def test_campaign_tables_match_scipy(campaign):
    """Every unit table of a real campaign scores as scipy does, and the
    pipeline reports exactly that score."""
    import numpy as np

    from repro.sampler import MicroSampler
    from repro.uarch import MEGA_BOOM

    report = MicroSampler(MEGA_BOOM).analyze_campaign(campaign)
    for feature_id, unit in report.units.items():
        tables = list(_unit_tables(campaign.iterations, feature_id))
        scored = (unit.association, unit.association_notiming)
        for table, reported in zip(tables, scored):
            assert all(table.row_totals()) and all(table.column_totals())
            association = measure_association(table)
            _assert_same_score(reported, association)
            ref = scipy_stats.chi2_contingency(np.array(table.counts),
                                               correction=False)
            assert association.chi_squared == pytest.approx(
                ref.statistic, abs=1e-9), feature_id
            assert association.dof == ref.dof
            assert association.p_value == pytest.approx(
                ref.pvalue, abs=1e-9), feature_id


def test_warmup_iterations_score_only_later_records(campaign):
    """``warmup_iterations=1`` scores exactly the records with ordinal >= 1
    (none for chacha20, which runs one iteration per input)."""
    from repro.sampler import MicroSampler
    from repro.uarch import MEGA_BOOM

    kept = [r for r in campaign.iterations if r.ordinal >= 1]
    assert len(kept) < len(campaign.iterations)
    report = MicroSampler(MEGA_BOOM, warmup_iterations=1,
                          extract_root_causes_for_leaky=False,
                          ).analyze_campaign(campaign)
    assert report.n_iterations == len(kept)
    assert report.n_classes == len({r.label for r in kept})
    for feature_id, unit in report.units.items():
        table, table_notiming = _unit_tables(kept, feature_id)
        _assert_same_score(unit.association, measure_association(table))
        _assert_same_score(unit.association_notiming,
                           measure_association(table_notiming))
