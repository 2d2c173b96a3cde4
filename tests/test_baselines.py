import itertools
import warnings

import numpy as np
import pytest

from anomattr import (
    CallableModel,
    GpaHyperParams,
    GradientEstimatorConfig,
    LimeConfig,
    NonFiniteModelOutput,
    ReferenceSet,
    baselines,
    baylime_distributions,
    expected_integrated_gradient,
    integrated_gradient,
    lc,
    lime,
    lime0,
    linear_model,
    oracle_gpa,
    oracle_lime0,
    oracle_sv,
    quadratic_model,
    shapley_sampled,
    sinusoidal2d,
    z_score,
)
from anomattr.models import _step_draws, drive, estimate_gradient
from conftest import (
    FINE_GRAD,
    LATTICE_EIG_BATCHES,
    ORACLE_HP,
    BatchRecorder,
    driven,
    path_batch_sizes,
    periodic_lattice,
)

TIGHT_LIME = LimeConfig(n_samples=1000, sampling_std=1e-3, l1_strength=0.0, seed=0)


def _lasso_cd(design, target, l1):
    """Reference lasso: cyclic coordinate descent for (1/n)||target - design
    @ beta||^2 + l1 ||beta||_1 on centered data (no intercept column), until
    no coefficient moves by 1e-13 relative."""
    n, m = design.shape
    col_sq = 2.0 / n * np.einsum("ij,ij->j", design, design)
    beta = np.zeros(m)
    resid = target.copy()
    for _ in range(10_000):
        worst = 0.0
        for j in range(m):
            if col_sq[j] == 0.0:
                continue
            rho = 2.0 / n * (design[:, j] @ resid) + col_sq[j] * beta[j]
            new = np.sign(rho) * max(abs(rho) - l1, 0.0) / col_sq[j]
            if new != beta[j]:
                resid += design[:, j] * (beta[j] - new)
                worst = max(worst, abs(new - beta[j]))
                beta[j] = new
        if worst <= 1e-13 * max(1.0, float(np.max(np.abs(beta)))):
            break
    return beta


class TestLime:
    def test_linear_recovers_coefficients(self):
        m = linear_model([3.0, -1.0, 0.5])
        cfg = LimeConfig(n_samples=500, sampling_std=0.3, l1_strength=0.0, seed=2)
        beta = driven(m, lime)([0.2, -0.1, 1.0], y_t=7.0, cfg=cfg)
        np.testing.assert_allclose(beta, [3.0, -1.0, 0.5], atol=1e-8)

    def test_sinusoidal_local_gradient(self, sin_model):
        beta = driven(sin_model, lime)([0.5, 0.0], y_t=1.0, cfg=TIGHT_LIME)
        np.testing.assert_allclose(beta, [-2 * np.pi, 0.0], atol=1e-2)

    def test_target_shift_bit_identical(self, sin_model):
        a = driven(sin_model, lime)([0.5, 0.0], y_t=1.0, cfg=TIGHT_LIME)
        b = driven(sin_model, lime)([0.5, 0.0], y_t=6.0, cfg=TIGHT_LIME)
        np.testing.assert_array_equal(a, b)

    def test_l1_sparsifies(self, sin_model):
        cfg = LimeConfig(n_samples=500, sampling_std=0.3, l1_strength=0.2, seed=2)
        beta = driven(sin_model, lime)([0.5, 0.0], y_t=1.0, cfg=cfg)
        assert beta[1] == 0.0
        assert beta[0] < 0.0

    def test_degenerate_design_rejected(self):
        m = CallableModel(lambda x: 1.0, 2)
        # the offsets' squares underflow to 0 at this scale: no column has
        # variance
        cfg = LimeConfig(n_samples=10, sampling_std=1e-300, l1_strength=0.0, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            driven(m, lime)([0.5, 0.0], 0.0, cfg)

    @pytest.mark.parametrize("l1", [0.0, 0.01, 0.2])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_coordinate_descent(self, seed, l1):
        # seeded clouds of a random quadratic in m = 2..6; the lasso is
        # strictly convex here, so both solvers find the same slopes
        rng = np.random.default_rng(seed)
        m = 2 + seed % 5
        model = quadratic_model(rng.uniform(-2.0, 2.0, m))
        x_t = rng.normal(size=m)
        cfg = LimeConfig(n_samples=50 + 40 * seed, sampling_std=0.5,
                         l1_strength=l1, seed=seed)
        beta = driven(model, lime)(x_t, 0.0, cfg)
        offsets = np.random.default_rng(seed).standard_normal((cfg.n_samples, m))
        design = cfg.sampling_std * offsets
        fvals = model.evaluate_batch(x_t + design)
        ref = _lasso_cd(design - design.mean(axis=0), fvals - fvals.mean(), l1)
        np.testing.assert_allclose(beta, ref, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(beta == 0.0, ref == 0.0)

    def test_too_few_samples_rejected(self, sin_model):
        cfg = LimeConfig(n_samples=2, sampling_std=0.1, l1_strength=0.0, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            driven(sin_model, lime)([0.0, 0.0], 0.0, cfg)


class TestLime0:
    def test_linear_exact(self):
        m = linear_model([2.0, -4.0])
        beta = driven(m, lime0)([1.0, 1.0], TIGHT_LIME)
        np.testing.assert_allclose(beta, [2.0, -4.0], atol=1e-9)

    def test_sinusoidal(self, sin_model):
        beta = driven(sin_model, lime0)([0.5, 0.0], TIGHT_LIME)
        np.testing.assert_allclose(beta, oracle_lime0([0.5, 0.0]), atol=1e-2)

    def test_parabola_tangent_slope(self):
        # least-squares slope of x^2 over a symmetric Gaussian cloud around
        # x0 is the tangent slope 2*x0: cov(x, x^2)/var(x) = 2*x0 because the
        # third central moment vanishes; checked with a large cloud
        m = quadratic_model([1.0])
        cfg = LimeConfig(n_samples=100_000, sampling_std=0.3, l1_strength=0.0, seed=5)
        beta = driven(m, lime0)([1.0], cfg)
        assert beta[0] == pytest.approx(2.0, abs=0.02)

    def test_rank_deficient_warns_minimum_norm(self, monkeypatch):
        m = linear_model([1.0, 1.0])
        cfg = LimeConfig(n_samples=4, sampling_std=1.0, l1_strength=0.0, seed=0)
        orig = baselines._cloud

        def degenerate_cloud(x_t, c):
            offsets, _ = orig(x_t, c)
            offsets[:, 1] = offsets[:, 0]  # duplicate column -> rank 1
            return offsets, np.asarray(x_t) + c.sampling_std * offsets

        monkeypatch.setattr(baselines, "_cloud", degenerate_cloud)
        with pytest.warns(UserWarning, match="minimum-norm"):
            beta = driven(m, lime0)([0.0, 0.0], cfg)
        # minimum-norm splits the joint slope evenly across the tied columns
        assert beta[0] == pytest.approx(beta[1], abs=1e-9)


class TestBaylime:
    def test_variance_formula(self, sin_model):
        cfg = LimeConfig(n_samples=10, sampling_std=0.3, l1_strength=0.0, seed=1)
        res = driven(sin_model, baylime_distributions)([0.5, 0.0], 1.0, cfg, 0.1, 1.0)
        assert res.variance == pytest.approx(1.0 / 10.1, abs=1e-12)
        assert res.means.shape == (2,)

    def test_prior_only_limit(self, sin_model):
        cfg = LimeConfig(n_samples=10, sampling_std=0.3, l1_strength=0.0, seed=1)
        res = driven(sin_model, baylime_distributions)([0.5, 0.0], 1.0, cfg, 0.25, 0.0)
        assert res.variance == pytest.approx(1.0 / 0.25)
        np.testing.assert_allclose(res.means, 0.0, atol=1e-12)

    def test_variance_concentrates(self, sin_model):
        cfgs = [LimeConfig(n_samples=n, sampling_std=0.3, seed=1) for n in (10, 1000)]
        variances = [
            driven(sin_model, baylime_distributions)([0.5, 0.0], 1.0, c, 0.1, 1.0).variance
            for c in cfgs
        ]
        assert variances[1] < variances[0] / 50

    def test_mean_shift_invariant(self, sin_model):
        cfg = LimeConfig(n_samples=50, sampling_std=0.3, seed=4)
        a = driven(sin_model, baylime_distributions)([0.5, 0.0], 1.0, cfg, 0.1, 1.0)
        b = driven(sin_model, baylime_distributions)([0.5, 0.0], -9.0, cfg, 0.1, 1.0)
        np.testing.assert_array_equal(a.means, b.means)


class TestIntegratedGradient:
    def test_closed_form_origin_baseline(self, sin_model):
        ig = driven(sin_model, integrated_gradient)([0.5, 0.0], (0.0, 0.0), 100, FINE_GRAD)
        np.testing.assert_allclose(ig, [-2.0, 0.0], atol=1e-3)

    def test_closed_form_shifted_baseline(self, sin_model):
        ig = driven(sin_model, integrated_gradient)([0.5, 0.0], (0.0, 1.0), 100, FINE_GRAD)
        np.testing.assert_allclose(ig, [-2.0 / 3.0, 8.0 / 3.0], atol=1e-3)

    def test_linear_exact(self):
        m = linear_model([2.0, -1.0])
        x_t, x0 = np.array([0.7, 0.4]), np.array([-0.1, 0.9])
        ig = driven(m, integrated_gradient)(x_t, x0, 100, FINE_GRAD)
        np.testing.assert_allclose(ig, (x_t - x0) * [2.0, -1.0], atol=1e-12)

    def test_matches_pointwise_estimator(self, sin_model):
        # the estimator on a batch of path points must agree with looping
        # it over the points bit for bit
        pts = np.array([[0.0, 0.0], [0.25, 0.1], [0.5, 0.2]])
        batched = driven(sin_model, estimate_gradient)(pts, FINE_GRAD)
        loop = np.array([driven(sin_model, estimate_gradient)(p, FINE_GRAD) for p in pts])
        np.testing.assert_array_equal(batched, loop)

    def test_baseline_dimension_checked(self, sin_model):
        with pytest.raises(ValueError, match="same dimension"):
            driven(sin_model, integrated_gradient)([0.5, 0.0], (0.0, 0.0, 0.0), 100,
                                                   FINE_GRAD)
        ref = ReferenceSet(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="same dimension"):
            driven(sin_model, expected_integrated_gradient)([0.5, 0.0], ref, 100, FINE_GRAD)

    def test_n_intervals_checked(self, sin_model):
        with pytest.raises(ValueError, match="n_intervals"):
            driven(sin_model, integrated_gradient)([0.5, 0.0], (0.0, 0.0), 0, FINE_GRAD)
        ref = ReferenceSet(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="n_intervals"):
            driven(sin_model, expected_integrated_gradient)([0.5, 0.0], ref, 0, FINE_GRAD)

    def test_one_model_call_per_path(self):
        # a path's points short of x_t and their displaced points go whole
        # into one model call, with as many other whole paths as keep rows x
        # m within the budget, and x_t's displaced points lead the first call
        model = BatchRecorder(sinusoidal2d())
        per_point = 2 * FINE_GRAD.mc_samples
        driven(model, integrated_gradient)([0.5, 0.2], (0.0, 0.0), 8, FINE_GRAD)
        assert model.sizes == [(8 + 1) * per_point]
        model.sizes.clear()
        ref = ReferenceSet(np.array([[0.0, 0.0], [0.1, -0.3], [0.7, 0.2]]))
        driven(model, expected_integrated_gradient)([0.5, 0.2], ref, 8, FINE_GRAD)
        assert model.sizes == [(1 + 3 * 8) * per_point]
        model.sizes.clear()
        # 100 points x 20 rows x m = 2 is 4,000 numbers a path: 16 a batch
        # at a budget of 2**16, the first with x_t's 20 rows (64,040 numbers)
        driven(model, expected_integrated_gradient)([0.5, 0.2], periodic_lattice(), 100,
                                                    FINE_GRAD)
        assert model.sizes == LATTICE_EIG_BATCHES

    def test_x_t_rows_lead_the_first_batch(self):
        # the estimator sends no point itself at an even mc, so the first
        # batch opens with x_t's displaced rows
        x_t = np.array([0.5, 0.2])
        model = BatchRecorder(sinusoidal2d())
        driven(model, expected_integrated_gradient)(x_t, periodic_lattice(), 100, FINE_GRAD)
        _, disp = _step_draws(FINE_GRAD.seed, FINE_GRAD.perturbation_std,
                              FINE_GRAD.mc_samples, 2)
        np.testing.assert_array_equal(model.first[: len(disp)], x_t + disp)

    def test_nan_at_an_endpoint_row_names_it(self):
        x_t = np.array([0.5, 0.2])
        _, disp = _step_draws(FINE_GRAD.seed, FINE_GRAD.perturbation_std,
                              FINE_GRAD.mc_samples, 2)
        bad = x_t + disp[13]
        inner = sinusoidal2d()
        model = CallableModel(
            lambda p: np.nan if np.array_equal(p, bad) else inner.evaluate(p), 2)
        with pytest.raises(NonFiniteModelOutput) as exc:
            driven(model, expected_integrated_gradient)(x_t, periodic_lattice(), 100,
                                                        FINE_GRAD)
        np.testing.assert_array_equal(exc.value.x, bad)
        assert model.call_count == 1

    def test_odd_draw_count_sends_the_path_points(self):
        # an unpaired draw needs f at its point: at mc = 3 a point is 1 + 2 x
        # 3 rows, a path 700 rows x m = 2, and x_t's 7 rows lead the first
        # batch: at a budget of 2**16, 46 paths, then the other 18
        cfg = GradientEstimatorConfig(perturbation_std=1e-3, mc_samples=3, seed=0)
        model = BatchRecorder(sinusoidal2d())
        driven(model, expected_integrated_gradient)([0.5, 0.2], periodic_lattice(), 100, cfg)
        assert model.sizes == path_batch_sizes(64, 100, 7, 2)
        assert sum(model.sizes) == 7 + 64 * 700
        np.testing.assert_array_equal(model.first[0], [0.5, 0.2])

    def test_path_above_budget_goes_alone(self):
        # in m = 30, one path is 4 points x 300 rows x 30 = 36,000 numbers;
        # x_t's 300 rows ride with the first
        coef = np.linspace(-1.0, 1.0, 30)
        model = BatchRecorder(linear_model(coef))
        rng = np.random.default_rng(3)
        ref = ReferenceSet(rng.uniform(-1, 1, (3, 30)))
        x_t = rng.uniform(-1, 1, 30)
        eig = driven(model, expected_integrated_gradient)(x_t, ref, 4, FINE_GRAD)
        per_point = 30 * FINE_GRAD.mc_samples
        assert model.sizes == [5 * per_point] + [4 * per_point] * 2
        np.testing.assert_allclose(eig, (x_t - ref.samples.mean(axis=0)) * coef, atol=1e-12)


class TestExpectedIntegratedGradient:
    def test_self_reference_is_zero(self, sin_model):
        ref = ReferenceSet(np.array([[0.5, 0.0]]))
        eig = driven(sin_model, expected_integrated_gradient)([0.5, 0.0], ref, 100, FINE_GRAD)
        np.testing.assert_allclose(eig, 0.0, atol=1e-12)

    def test_linear_closed_form(self):
        coef = np.array([2.0, -1.0, 0.5])
        m = linear_model(coef)
        rng = np.random.default_rng(0)
        ref = ReferenceSet(rng.uniform(-1, 1, (7, 3)))
        x_t = np.array([0.3, 0.9, -0.4])
        eig = driven(m, expected_integrated_gradient)(x_t, ref, 100, FINE_GRAD)
        expected = (x_t - ref.samples.mean(axis=0)) * coef
        np.testing.assert_allclose(eig, expected, atol=1e-12)

    def test_equals_reference_loop_of_ig(self, sin_model):
        # the batched paths give each reference's integral bit for bit, and
        # eig adds them up in reference order
        ref = periodic_lattice()
        x_t = np.array([0.3, -0.2])
        eig = driven(sin_model, expected_integrated_gradient)(x_t, ref, 100, FINE_GRAD)
        total = np.zeros(2)
        for w, sample in zip(ref.effective_weights, ref.samples):
            total += w * driven(sin_model, integrated_gradient)(x_t, sample, 100, FINE_GRAD)
        np.testing.assert_array_equal(eig, total)

    @pytest.mark.parametrize("model", [quadratic_model([0.7]), sinusoidal2d(),
                                       quadratic_model([0.5, 1.5, 1.0, 0.8, 1.2])],
                             ids=["m=1", "m=2", "m=5"])
    def test_batched_paths_are_the_per_path_loop(self, model, monkeypatch):
        # 7 paths, 3 to a batch with x_t's rows in the first: each path's
        # integral is the one its points alone give, bit for bit
        m, n_intervals = model.dimension, 10
        point_numbers = m * FINE_GRAD.mc_samples * m
        monkeypatch.setattr(baselines, "_PATH_BATCH_NUMBERS",
                            (3 * n_intervals + 1) * point_numbers)
        rng = np.random.default_rng(m)
        x_t, starts = rng.uniform(-0.5, 0.5, m), rng.uniform(-0.5, 0.5, (7, m))
        recorder = BatchRecorder(model)
        integrals = drive(recorder, [baselines._path_run(x_t, starts, n_intervals,
                                                         FINE_GRAD)])[0]
        assert recorder.sizes == [(1 + 3 * n_intervals) * m * FINE_GRAD.mc_samples] + [
            k * n_intervals * m * FINE_GRAD.mc_samples for k in (3, 1)]
        weights = np.full(n_intervals, 1.0 / n_intervals)
        weights[0] = 0.5 / n_intervals
        gradient = driven(model, estimate_gradient)
        end_term = 0.5 / n_intervals * gradient(x_t, FINE_GRAD)
        alphas = np.linspace(0.0, 1.0, n_intervals + 1)[:-1]
        loop = np.array([
            (x_t - start) * (weights @ gradient(
                start + alphas[:, None] * (x_t - start), FINE_GRAD) + end_term)
            for start in starts])
        assert integrals.tobytes() == loop.tobytes()

    def test_one_sample_is_ig(self, sin_model):
        ref = ReferenceSet(np.array([[0.1, -0.4]]))
        eig = driven(sin_model, expected_integrated_gradient)([0.5, 0.2], ref, 100, FINE_GRAD)
        ig = driven(sin_model, integrated_gradient)([0.5, 0.2], (0.1, -0.4), 100, FINE_GRAD)
        np.testing.assert_array_equal(eig, ig)

    def test_sum_rule(self, sin_model):
        ref = periodic_lattice()
        x_t = np.array([0.3, -0.2])
        eig = driven(sin_model, expected_integrated_gradient)(x_t, ref, 100, FINE_GRAD)
        mean_f = float(np.mean(sin_model.evaluate_batch(ref.samples)))
        assert eig.sum() == pytest.approx(sin_model.evaluate(x_t) - mean_f, abs=1e-3)


def brute_force_shapley(model, x_t, ref_samples):
    """Direct permutation-definition Shapley values with full reference
    enumeration; independent of the library's coalition-value route."""
    m = len(x_t)
    scores = np.zeros(m)
    perms = list(itertools.permutations(range(m)))
    for perm in perms:
        for r in ref_samples:
            x_cur = np.array(r, dtype=float)
            prev = model.evaluate(x_cur)
            for j in perm:
                x_cur[j] = x_t[j]
                new = model.evaluate(x_cur)
                scores[j] += new - prev
                prev = new
    return scores / (len(perms) * len(ref_samples))


class TestShapley:
    def test_constant_model_zero(self):
        m = CallableModel(lambda x: 3.5, 2)
        ref = ReferenceSet(np.array([[0.0, 0.0], [1.0, -1.0]]))
        np.testing.assert_allclose(driven(m, shapley_sampled)([5.0, 5.0], ref), 0.0,
                                   atol=1e-12)

    def test_additive_model_closed_form_and_brute_force(self):
        # additive f: SV_i = g_i(x_i) - mean_ref g_i, cross-checked against
        # the raw permutation definition
        m = quadratic_model([1.0, -0.5])
        rng = np.random.default_rng(1)
        ref = ReferenceSet(rng.uniform(-1, 1, (4, 2)))
        x_t = np.array([0.8, -0.3])
        sv = driven(m, shapley_sampled)(x_t, ref, method="exact")
        assert m.call_count == 1  # every coalition in one batch
        coef = np.array([1.0, -0.5])
        closed = coef * x_t**2 - (coef * ref.samples**2).mean(axis=0)
        np.testing.assert_allclose(sv, closed, atol=1e-10)
        np.testing.assert_allclose(sv, brute_force_shapley(m, x_t, ref.samples), atol=1e-10)

    def test_sinusoidal_symmetric_reference(self, sin_model):
        ref = periodic_lattice()
        for x_t in ([0.25, 0.1], [0.5, 0.0], [-0.3, 0.7]):
            sv = driven(sin_model, shapley_sampled)(x_t, ref, method="exact")
            np.testing.assert_allclose(sv, oracle_sv(x_t), atol=1e-12)
            assert sv[0] == pytest.approx(sv[1], abs=1e-12)

    def test_sampling_close_to_exact(self, sin_model):
        ref = periodic_lattice()
        x_t = [0.25, 0.1]
        exact = driven(sin_model, shapley_sampled)(x_t, ref, method="exact")
        sampled = driven(sin_model, shapley_sampled)(x_t, ref, n_configs=2000, seed=11,
                                                     method="sampling")
        np.testing.assert_allclose(sampled, exact, atol=0.15)

    def test_sampling_deterministic_per_seed(self, sin_model):
        ref = periodic_lattice()
        a = driven(sin_model, shapley_sampled)([0.3, 0.2], ref, 50, seed=9, method="sampling")
        assert sin_model.call_count == 1  # every permutation walk in one batch
        b = driven(sin_model, shapley_sampled)([0.3, 0.2], ref, 50, seed=9, method="sampling")
        np.testing.assert_array_equal(a, b)

    def test_sampling_batch_matches_one_call_per_walk(self, sin_model):
        # the walks, drawn in the same order, one model call each
        ref = periodic_lattice()
        x_t = np.array([0.3, 0.2])
        rng = np.random.default_rng(9)
        expect = np.zeros(2)
        for _ in range(50):
            perm = rng.permutation(2)
            points = np.tile(ref.samples[rng.choice(len(ref.samples),
                                                    p=ref.effective_weights)], (3, 1))
            for pos, j in enumerate(perm):
                points[pos + 1:, j] = x_t[j]
            fvals = sin_model.evaluate_batch(points)
            expect[perm] += fvals[1:] - fvals[:-1]
        got = driven(sinusoidal2d(), shapley_sampled)(x_t, ref, 50, seed=9, method="sampling")
        np.testing.assert_array_equal(got, expect / 50)

    def test_auto_uses_sampling_for_large_dimension(self):
        m = CallableModel(lambda x: float(np.sum(x)), 16)
        ref = ReferenceSet(np.zeros((3, 16)))
        scores = driven(m, shapley_sampled)(np.ones(16), ref, n_configs=10, seed=0)
        np.testing.assert_allclose(scores, 1.0, atol=1e-12)


class TestZScore:
    def test_basic(self):
        ref = ReferenceSet(np.array([[1.0], [5.0]]))  # mean 3, population std 2
        assert z_score([5.0], ref)[0] == pytest.approx(1.0)

    def test_mean_input_is_zero(self):
        rng = np.random.default_rng(0)
        ref = ReferenceSet(rng.normal(size=(20, 3)))
        np.testing.assert_allclose(z_score(ref.samples.mean(axis=0), ref), 0.0, atol=1e-12)

    def test_two_point_population_std(self):
        ref = ReferenceSet(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_allclose(z_score([2.0, 2.0], ref), [1.0, 1.0])

    def test_constant_variable_rejected(self):
        ref = ReferenceSet(np.array([[1.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="variable 0"):
            z_score([0.0, 0.0], ref)


class TestLc:
    @pytest.mark.parametrize("y_t", [1.0, 0.0, -1.0])
    def test_matches_counterfactual_closed_form(self, sin_model, y_t):
        delta = driven(sin_model, lc)([0.5, 0.0], y_t, ORACLE_HP, FINE_GRAD, 1.0).delta_star
        np.testing.assert_allclose(delta, oracle_gpa([0.5, 0.0], y_t), atol=1e-3)

    def test_zero_residual_stays_home(self, sin_model):
        y_t = sin_model.evaluate([0.3, 0.1])
        delta = driven(sin_model, lc)([0.3, 0.1], y_t, ORACLE_HP, FINE_GRAD, 1.0).delta_star
        np.testing.assert_allclose(delta, 0.0, atol=1e-4)

    def test_scalar_linear_closed_form(self):
        # eta -> 0: delta solves y = c (x + delta)
        c, x_t, y_t = 2.0, 1.0, 3.0
        m = linear_model([c])
        hp = GpaHyperParams(eta=1e-6, nu=1e-6, tol=1e-10)
        delta = driven(m, lc)([x_t], y_t, hp, FINE_GRAD, 1.0).delta_star
        assert delta[0] == pytest.approx((y_t - c * x_t) / c, abs=1e-5)

    def test_is_shared_objective_with_gaussian_loss(self, sin_model):
        from anomattr.gpa import (
            CounterfactualObjective,
            gaussian_loss,
            proximal_minimize,
        )

        x_t, y_t, eta, lam = np.array([0.5, 0.0]), 1.0, 1e-3, 2.0
        model = sinusoidal2d()
        objective = CounterfactualObjective(
            x_t[None, :], [y_t], eta, gaussian_loss(lam), FINE_GRAD
        )
        grad_fn, value_fn = objective.grad_run, objective.value_run
        d = np.array([-0.1, 0.05])
        r = y_t - sin_model.evaluate(x_t + d)
        assert driven(model, value_fn)(d) == pytest.approx(
            0.5 * eta * d @ d + 0.5 * lam * r * r, rel=1e-12)
        hp = GpaHyperParams(eta=eta, nu=1e-3, tol=1e-8)
        state = driven(model, proximal_minimize)(grad_fn, value_fn, objective.confirm_run, 2,
                                                 hp, FINE_GRAD.seed)
        result = driven(sin_model, lc)(x_t, y_t, ORACLE_HP, FINE_GRAD, lam)
        np.testing.assert_array_equal(result.delta_star, state.delta)
        # the solver record is the solve's and its objective's
        assert (result.iterations, result.converged, result.halvings,
                result.secant_steps, result.confirmations) == (
            state.iterations, state.converged, state.halvings, state.secant_steps,
            state.confirmations)
        np.testing.assert_array_equal(result.objective_trace, state.trace)
        assert result.one_pair_batches == objective.one_pair_batches
        assert result.rates is None

    def test_one_row_array_is_the_point_call(self, sin_model):
        point = driven(sin_model, lc)([0.5, 0.0], 1.0, ORACLE_HP, FINE_GRAD, 1.0)
        row = driven(sin_model, lc)(np.array([[0.5, 0.0]]), np.array([1.0]), ORACLE_HP,
                                    FINE_GRAD, 1.0)
        np.testing.assert_array_equal(row.delta_star, point.delta_star)

    def test_collective_rows_share_the_gaussian_objective(self, sin_model):
        from anomattr.gpa import (
            CounterfactualObjective,
            gaussian_loss,
            proximal_minimize,
        )

        x = np.array([[0.5, 0.0], [0.45, 0.05], [0.55, -0.05]])
        y, eta, lam = np.array([1.0, 0.9, 1.1]), 1e-3, 2.0
        model = sinusoidal2d()
        objective = CounterfactualObjective(x, y, eta, gaussian_loss(lam), FINE_GRAD)
        grad_fn, value_fn = objective.grad_run, objective.value_run
        d = np.array([-0.1, 0.05])
        r = y - sin_model.evaluate_batch(x + d)
        assert driven(model, value_fn)(d) == pytest.approx(
            0.5 * eta * d @ d + 0.5 * lam * r @ r, rel=1e-12)
        hp = GpaHyperParams(eta=eta, nu=1e-3, tol=1e-8)
        state = driven(model, proximal_minimize)(grad_fn, value_fn, objective.confirm_run, 2,
                                                 hp, FINE_GRAD.seed)
        assert state.converged
        delta = driven(sin_model, lc)(x, y, ORACLE_HP, FINE_GRAD, lam).delta_star
        np.testing.assert_array_equal(delta, state.delta)

    @pytest.mark.parametrize("x_t", [[0.1], [0.1, 0.2, 0.3], [[0.1], [0.2]]],
                             ids=["short", "long", "short rows"])
    def test_dimension_mismatch_rejected(self, sin_model, x_t):
        # a one-input row would broadcast against the two-input shift
        with pytest.raises(ValueError, match="model dimension 2"):
            driven(sin_model, lc)(x_t, 0.0, ORACLE_HP, FINE_GRAD, 1.0)
        assert sin_model.query_count == 0

    def test_invalid_params(self, sin_model):
        # eta and nu are refused where GpaHyperParams is built
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError, match="lam must be positive"):
                driven(sin_model, lc)([0.0, 0.0], 0.0, GpaHyperParams(), FINE_GRAD, lam)

    def test_oracle_row_few_iterations(self, sin_model, monkeypatch):
        # unaccelerated proximal descent asks for 2,940 gradients here
        import anomattr.baselines as baselines_mod

        real_solver = baselines_mod.proximal_minimize
        grads = []

        def counting_solver(grad_fn, value_fn, *args, **kwargs):
            def counted_grad(delta):
                grads.append(1)
                return grad_fn(delta)

            return real_solver(counted_grad, value_fn, *args, **kwargs)

        monkeypatch.setattr(baselines_mod, "proximal_minimize", counting_solver)
        delta = driven(sin_model, lc)([0.5, 0.0], 1.0, ORACLE_HP, FINE_GRAD, 1.0).delta_star
        np.testing.assert_allclose(delta, oracle_gpa([0.5, 0.0], 1.0), atol=1e-3)
        assert 0 < len(grads) <= 600

    def test_overflowing_residual_raises(self):
        from anomattr.gpa import DivergenceError

        # and numpy prints no overflow warning on the way
        with warnings.catch_warnings(), pytest.raises(DivergenceError,
                                                      match="square overflows"):
            warnings.simplefilter("error")
            driven(linear_model([1.0, 1.0]), lc)([0.1, 0.2], 1e200, GpaHyperParams(),
                                                 GradientEstimatorConfig(), 1.0)


# every run of the module and the estimator's, on rows of the given width
RUNS = {
    "lc": lambda x: lc(x, 0.0, ORACLE_HP, FINE_GRAD, 1.0),
    "ig": lambda x: integrated_gradient(x, np.zeros(len(x)), 10, FINE_GRAD),
    "eig": lambda x: expected_integrated_gradient(x, ReferenceSet(np.zeros((2, len(x)))),
                                                  10, FINE_GRAD),
    "sv": lambda x: shapley_sampled(x, ReferenceSet(np.zeros((2, len(x))))),
    "lime": lambda x: lime(x, 0.0, LimeConfig()),
    "lime0": lambda x: lime0(x, LimeConfig()),
    "baylime": lambda x: baylime_distributions(x, 0.0, LimeConfig(), 0.1, 1.0),
    "gradient": lambda x: estimate_gradient(x, FINE_GRAD),
}


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("name", list(RUNS))
def test_every_run_refuses_rows_of_another_width(sin_model, name, width):
    # the driver checks each step's rows against the model before the call:
    # a one-input cloud would broadcast against the model's two inputs
    with pytest.raises(ValueError, match="model dimension 2"):
        drive(sin_model, [RUNS[name](np.full(width, 0.1))])
    assert sin_model.query_count == 0


class TestReferenceSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReferenceSet(np.empty((0, 2)))
