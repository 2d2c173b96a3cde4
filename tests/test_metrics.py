import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from anomattr import (
    anomaly_score,
    collective_anomaly_score,
    consistency_report,
    hit_ratio_25,
    kendall_tau,
    sign_match_ratio,
    sinusoidal2d,
    spearman_rho,
)
from anomattr.metrics import MetricUndefinedError


def brute_force_tau_b(a, b):
    """Pairwise tau-b on absolute values, straight from the definition."""
    a, b = np.abs(np.asarray(a, float)), np.abs(np.asarray(b, float))
    concordant = discordant = ties_a = ties_b = 0
    for i, j in itertools.combinations(range(len(a)), 2):
        da, db = a[i] - a[j], b[i] - b[j]
        if da == 0 and db == 0:
            ties_a += 1
            ties_b += 1
        elif da == 0:
            ties_a += 1
        elif db == 0:
            ties_b += 1
        # compare signs, not the product: da * db underflows to 0 for
        # subnormal differences
        elif np.sign(da) * np.sign(db) > 0:
            concordant += 1
        else:
            discordant += 1
    n_pairs = len(a) * (len(a) - 1) / 2
    denom = np.sqrt((n_pairs - ties_a) * (n_pairs - ties_b))
    return (concordant - discordant) / denom


def brute_force_rho(a, b):
    """Spearman on absolute values via average ranks and Pearson."""
    def avg_ranks(v):
        v = np.abs(np.asarray(v, float))
        order = np.argsort(v, kind="stable")
        ranks = np.empty(len(v))
        i = 0
        sorted_v = v[order]
        while i < len(v):
            j = i
            while j + 1 < len(v) and sorted_v[j + 1] == sorted_v[i]:
                j += 1
            ranks[order[i : j + 1]] = (i + j) / 2 + 1
            i = j + 1
        return ranks

    ra, rb = avg_ranks(a), avg_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))


class TestAnomalyScore:
    def test_zero_residual_unit_variance(self):
        score = anomaly_score(0.0, 1.0)
        assert isinstance(score, float)
        assert score == pytest.approx(0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_residual_two(self):
        score = anomaly_score(2.0, 1.0)
        assert score == pytest.approx(0.5 * np.log(2 * np.pi) + 2.0)

    def test_array_equals_scalars_bit_for_bit(self):
        # the residuals of the sinusoid at three rows, from one batch
        m = sinusoidal2d()
        xs = np.array([[0.5, 0.0], [0.1, 0.2], [0.0, 0.0]])
        resid = np.array([1.0, -0.5, 2.5]) - m.evaluate_batch(xs)
        scores = anomaly_score(resid, 0.7)
        assert isinstance(scores, np.ndarray) and scores.shape == (3,)
        assert scores.tolist() == [anomaly_score(r, 0.7) for r in resid.tolist()]

    def test_collective_is_mean_of_singles(self):
        resid = np.array([1.0, -0.5, 2.5])
        singles = [anomaly_score(r, 0.7) for r in resid]
        collective = collective_anomaly_score(resid, 0.7)
        assert isinstance(collective, float)
        assert collective == pytest.approx(np.mean(singles), rel=1e-12)

    def test_collective_needs_residuals(self):
        with pytest.raises(ValueError, match="nonempty"):
            collective_anomaly_score(np.zeros(0), 1.0)

    def test_positive_variance_required(self):
        with pytest.raises(ValueError):
            anomaly_score(0.0, 0.0)

    @pytest.mark.parametrize("variance", [np.inf, np.nan])
    def test_finite_variance_required(self, variance):
        with pytest.raises(ValueError):
            anomaly_score(0.0, variance)

    @pytest.mark.parametrize("resid, named", [
        (1e160, "1e+160"), (np.array([0.5, -2e160, 1e170]), "-2e+160"),
    ])
    def test_overflow_names_the_residual(self, resid, named):
        # an array names its first residual whose square overflows
        with pytest.raises(ValueError, match=re.escape(
                f"the residual {named} or its square overflows")):
            anomaly_score(resid, 1.0)


class TestKendallTau:
    def test_identical_order(self):
        assert kendall_tau([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_reversed_order(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_one_swap(self):
        # pairs of (1,2,3) vs (1,3,2): two concordant, one discordant -> 1/3
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)

    def test_absolute_values_used(self):
        assert kendall_tau([-1, 2, -3], [1, -2, 3]) == pytest.approx(1.0)

    def test_constant_vector_rejected(self):
        with pytest.raises(MetricUndefinedError):
            kendall_tau([1, 1, 1], [1, 2, 3])
        with pytest.raises(MetricUndefinedError):
            kendall_tau([1, 2, 3], [-2, 2, 2])

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=10),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, a, data):
        b = data.draw(
            st.lists(st.floats(-100, 100), min_size=len(a), max_size=len(a))
        )
        a, b = np.asarray(a), np.asarray(b)
        if np.all(np.abs(a) == np.abs(a[0])) or np.all(np.abs(b) == np.abs(b[0])):
            return
        assert kendall_tau(a, b) == pytest.approx(brute_force_tau_b(a, b), abs=1e-12)


class TestSpearmanRho:
    def test_identical(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_one_swap(self):
        # rank differences (0, 1, 1): rho = 1 - 6*2/(3*8) = 0.5
        assert spearman_rho([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_constant_vector_rejected(self):
        with pytest.raises(MetricUndefinedError):
            spearman_rho([2, 2, 2], [1, 2, 3])

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=10),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, a, data):
        b = data.draw(
            st.lists(st.floats(-100, 100), min_size=len(a), max_size=len(a))
        )
        a, b = np.asarray(a), np.asarray(b)
        if np.all(np.abs(a) == np.abs(a[0])) or np.all(np.abs(b) == np.abs(b[0])):
            return
        assert spearman_rho(a, b) == pytest.approx(brute_force_rho(a, b), abs=1e-12)


def test_rank_correlations_match_scipy():
    # seeded pairs with m = 2..60; every third pair draws from seven values,
    # so ties are common; scipy.stats is the reference
    rng = np.random.default_rng(11)
    checked = 0
    for k in range(1100):
        m = int(rng.integers(2, 61))
        if k % 3 == 0:
            a, b = rng.integers(-3, 4, (2, m)).astype(float)
        else:
            a, b = rng.normal(size=(2, m))
        a_abs, b_abs = np.abs(a), np.abs(b)
        if np.all(a_abs == a_abs[0]) or np.all(b_abs == b_abs[0]):
            continue
        tau = stats.kendalltau(a_abs, b_abs, variant="b").statistic
        rho = stats.spearmanr(a_abs, b_abs).statistic
        assert abs(kendall_tau(a, b) - tau) <= 1e-15
        assert abs(spearman_rho(a, b) - rho) <= 1e-15
        checked += 1
    assert checked >= 1000


class TestSignMatchRatio:
    def test_zero_never_penalizes(self):
        assert sign_match_ratio([1, -1, 0], [2, -3, 5]) == pytest.approx(1.0)

    def test_zero_reference_always_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert sign_match_ratio(np.zeros(4), rng.normal(size=4)) == 1.0

    def test_half_opposed(self):
        assert sign_match_ratio([1, 1], [-1, 1]) == pytest.approx(0.5)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=50)
    def test_zeroing_reference_never_decreases(self, r, data):
        u = data.draw(st.lists(st.floats(-10, 10), min_size=len(r), max_size=len(r)))
        r, u = np.asarray(r), np.asarray(u)
        base = sign_match_ratio(r, u)
        for i in range(len(r)):
            zeroed = r.copy()
            zeroed[i] = 0.0
            assert sign_match_ratio(zeroed, u) >= base - 1e-12


class TestHitRatio25:
    def test_identical_vectors(self):
        v = np.array([5.0, -4.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        assert hit_ratio_25(v, v) == 1.0  # top-2 sets equal

    def test_disjoint_top_sets(self):
        r = np.array([9.0, 8.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        u = np.array([0.1, 0.1, 9.0, 8.0, 0.1, 0.1, 0.1, 0.1])
        assert hit_ratio_25(r, u) == 0.0

    def test_single_top_match(self):
        r = np.array([0.0, 0.0, 5.0, 0.0])
        u = np.array([1.0, 1.0, 9.0, 1.0])
        assert hit_ratio_25(r, u) == 1.0

    def test_tie_breaks_toward_lower_index(self):
        # both entries tie in |.|: index 0 wins the single top slot
        r = np.array([2.0, -2.0, 0.0, 0.0])
        u = np.array([2.0, 1.0, 0.0, 0.0])
        assert hit_ratio_25(r, u) == 1.0

    @given(st.lists(st.floats(0.1, 100), min_size=2, max_size=12), st.data())
    @settings(max_examples=50)
    def test_rescale_invariant(self, r, data):
        u = data.draw(st.lists(st.floats(0.1, 100), min_size=len(r), max_size=len(r)))
        r, u = np.asarray(r), np.asarray(u)
        # exact powers of two: 0.2 * [0.1, 0.10000000000000002] rounds to a
        # tie, which hands the top slot to the lower index
        assert hit_ratio_25(r, u) == hit_ratio_25(4.0 * r, 0.25 * u)


class TestSymmetryAndScaling:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_rank_metrics_symmetric_and_scale_free(self, data):
        n = data.draw(st.integers(3, 8))
        a = np.asarray(data.draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n)))
        b = np.asarray(data.draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n)))
        if np.all(np.abs(a) == np.abs(a[0])) or np.all(np.abs(b) == np.abs(b[0])):
            return
        assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a), abs=1e-12)
        assert spearman_rho(a, b) == pytest.approx(spearman_rho(b, a), abs=1e-12)
        # exact powers of two: a scale such as 0.3 rounds a subnormal to 0
        # and so changes the ties the metrics see
        assert kendall_tau(4.0 * a, b) == pytest.approx(kendall_tau(a, b), abs=1e-12)
        assert spearman_rho(a, 8.0 * b) == pytest.approx(spearman_rho(a, b), abs=1e-12)

    def test_subnormal_entries_keep_their_ranks_under_scaling(self):
        a, b = np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 5e-324])
        assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a), abs=1e-12)
        assert spearman_rho(a, b) == pytest.approx(spearman_rho(b, a), abs=1e-12)
        assert kendall_tau(4.0 * a, b) == pytest.approx(kendall_tau(a, b), abs=1e-12)
        assert spearman_rho(a, 8.0 * b) == pytest.approx(spearman_rho(a, b), abs=1e-12)


class TestConsistencyReport:
    def test_self_comparison_all_ones(self):
        v = np.array([0.3, -0.2, 0.0, 1.5])
        report = consistency_report(v, v)
        assert report.kendall_tau == pytest.approx(1.0)
        assert report.spearman_rho == pytest.approx(1.0)
        assert report.smr == 1.0
        assert report.hit25 == 1.0

    def test_zero_reference_null_correlations(self):
        report = consistency_report(np.zeros(3), np.array([1.0, -2.0, 3.0]))
        assert report.kendall_tau is None
        assert report.spearman_rho is None
        assert report.smr == 1.0
        assert "kendall_tau" in report.notes
