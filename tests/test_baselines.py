import itertools
import warnings

import numpy as np
import pytest

from anomattr import (
    CallableModel,
    GradientEstimatorConfig,
    LimeConfig,
    ReferenceSet,
    baylime_distributions,
    expected_integrated_gradient,
    integrated_gradient,
    lc,
    lime,
    lime0,
    linear_model,
    oracle_gpa,
    oracle_ig,
    oracle_lime0,
    oracle_sv,
    quadratic_model,
    shapley_sampled,
    sinusoidal2d,
    z_score,
)
from conftest import FINE_GRAD, BatchRecorder, periodic_lattice

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
        beta = lime(m, [0.2, -0.1, 1.0], y_t=7.0, cfg=cfg)
        np.testing.assert_allclose(beta, [3.0, -1.0, 0.5], atol=1e-8)

    def test_sinusoidal_local_gradient(self, sin_model):
        beta = lime(sin_model, [0.5, 0.0], y_t=1.0, cfg=TIGHT_LIME)
        np.testing.assert_allclose(beta, [-2 * np.pi, 0.0], atol=1e-2)

    def test_target_shift_bit_identical(self, sin_model):
        a = lime(sin_model, [0.5, 0.0], y_t=1.0, cfg=TIGHT_LIME)
        b = lime(sin_model, [0.5, 0.0], y_t=6.0, cfg=TIGHT_LIME)
        np.testing.assert_array_equal(a, b)

    def test_l1_sparsifies(self, sin_model):
        cfg = LimeConfig(n_samples=500, sampling_std=0.3, l1_strength=0.2, seed=2)
        beta = lime(sin_model, [0.5, 0.0], y_t=1.0, cfg=cfg)
        assert beta[1] == 0.0
        assert beta[0] < 0.0

    def test_degenerate_design_rejected(self):
        m = CallableModel(lambda x: 1.0, 2)
        # the offsets' squares underflow to 0 at this scale: no column has
        # variance
        cfg = LimeConfig(n_samples=10, sampling_std=1e-300, l1_strength=0.0, seed=0)
        with pytest.raises(ValueError, match="degenerate"):
            lime(m, [0.5, 0.0], 0.0, cfg)

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
        beta = lime(model, x_t, 0.0, cfg)
        offsets = np.random.default_rng(seed).standard_normal((cfg.n_samples, m))
        design = cfg.sampling_std * offsets
        fvals = model.evaluate_batch(x_t + design)
        ref = _lasso_cd(design - design.mean(axis=0), fvals - fvals.mean(), l1)
        np.testing.assert_allclose(beta, ref, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(beta == 0.0, ref == 0.0)

    def test_too_few_samples_rejected(self, sin_model):
        cfg = LimeConfig(n_samples=2, sampling_std=0.1, l1_strength=0.0, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            lime(sin_model, [0.0, 0.0], 0.0, cfg)


class TestLime0:
    def test_linear_exact(self):
        m = linear_model([2.0, -4.0])
        beta = lime0(m, [1.0, 1.0], TIGHT_LIME)
        np.testing.assert_allclose(beta, [2.0, -4.0], atol=1e-9)

    def test_sinusoidal(self, sin_model):
        beta = lime0(sin_model, [0.5, 0.0], TIGHT_LIME)
        np.testing.assert_allclose(beta, oracle_lime0([0.5, 0.0]), atol=1e-2)

    def test_parabola_tangent_slope(self):
        # least-squares slope of x^2 over a symmetric Gaussian cloud around
        # x0 is the tangent slope 2*x0: cov(x, x^2)/var(x) = 2*x0 because the
        # third central moment vanishes; checked with a large cloud
        m = quadratic_model([1.0])
        cfg = LimeConfig(n_samples=100_000, sampling_std=0.3, l1_strength=0.0, seed=5)
        beta = lime0(m, [1.0], cfg)
        assert beta[0] == pytest.approx(2.0, abs=0.02)

    def test_rank_deficient_warns_minimum_norm(self):
        m = linear_model([1.0, 1.0])
        cfg = LimeConfig(n_samples=4, sampling_std=1.0, l1_strength=0.0, seed=0)
        from anomattr import baselines

        orig = baselines._local_cloud

        def degenerate_cloud(model, x_t, c):
            offsets, fvals = orig(model, x_t, c)
            offsets[:, 1] = offsets[:, 0]  # duplicate column -> rank 1
            fvals = model.evaluate_batch(np.asarray(x_t) + c.sampling_std * offsets)
            return offsets, fvals

        baselines._local_cloud = degenerate_cloud
        try:
            with pytest.warns(UserWarning, match="minimum-norm"):
                beta = lime0(m, [0.0, 0.0], cfg)
        finally:
            baselines._local_cloud = orig
        # minimum-norm splits the joint slope evenly across the tied columns
        assert beta[0] == pytest.approx(beta[1], abs=1e-9)


class TestBaylime:
    def test_variance_formula(self, sin_model):
        cfg = LimeConfig(n_samples=10, sampling_std=0.3, l1_strength=0.0, seed=1)
        res = baylime_distributions(sin_model, [0.5, 0.0], 1.0, cfg, 0.1, 1.0)
        assert res.variance == pytest.approx(1.0 / 10.1, abs=1e-12)
        assert res.means.shape == (2,)

    def test_prior_only_limit(self, sin_model):
        cfg = LimeConfig(n_samples=10, sampling_std=0.3, l1_strength=0.0, seed=1)
        res = baylime_distributions(sin_model, [0.5, 0.0], 1.0, cfg, 0.25, 0.0)
        assert res.variance == pytest.approx(1.0 / 0.25)
        np.testing.assert_allclose(res.means, 0.0, atol=1e-12)

    def test_variance_concentrates(self, sin_model):
        cfgs = [LimeConfig(n_samples=n, sampling_std=0.3, seed=1) for n in (10, 1000)]
        variances = [
            baylime_distributions(sin_model, [0.5, 0.0], 1.0, c, 0.1, 1.0).variance
            for c in cfgs
        ]
        assert variances[1] < variances[0] / 50

    def test_mean_shift_invariant(self, sin_model):
        cfg = LimeConfig(n_samples=50, sampling_std=0.3, seed=4)
        a = baylime_distributions(sin_model, [0.5, 0.0], 1.0, cfg, 0.1, 1.0)
        b = baylime_distributions(sin_model, [0.5, 0.0], -9.0, cfg, 0.1, 1.0)
        np.testing.assert_array_equal(a.means, b.means)


class TestIntegratedGradient:
    def test_closed_form_origin_baseline(self, sin_model):
        ig = integrated_gradient(sin_model, [0.5, 0.0], (0.0, 0.0), 100, FINE_GRAD)
        np.testing.assert_allclose(ig, [-2.0, 0.0], atol=1e-3)

    def test_closed_form_shifted_baseline(self, sin_model):
        ig = integrated_gradient(sin_model, [0.5, 0.0], (0.0, 1.0), 100, FINE_GRAD)
        np.testing.assert_allclose(ig, [-2.0 / 3.0, 8.0 / 3.0], atol=1e-3)

    def test_linear_exact(self):
        m = linear_model([2.0, -1.0])
        x_t, x0 = np.array([0.7, 0.4]), np.array([-0.1, 0.9])
        ig = integrated_gradient(m, x_t, x0, 100, FINE_GRAD)
        np.testing.assert_allclose(ig, (x_t - x0) * [2.0, -1.0], atol=1e-12)

    def test_matches_pointwise_estimator(self, sin_model):
        # the estimator on a batch of path points must agree with looping
        # it over the points bit for bit
        from anomattr.models import estimate_gradient

        pts = np.array([[0.0, 0.0], [0.25, 0.1], [0.5, 0.2]])
        batched = estimate_gradient(sin_model, pts, FINE_GRAD)
        loop = np.array([estimate_gradient(sin_model, p, FINE_GRAD) for p in pts])
        np.testing.assert_array_equal(batched, loop)

    def test_baseline_dimension_checked(self, sin_model):
        with pytest.raises(ValueError, match="same dimension"):
            integrated_gradient(sin_model, [0.5, 0.0], (0.0, 0.0, 0.0), 100, FINE_GRAD)
        ref = ReferenceSet(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="same dimension"):
            expected_integrated_gradient(sin_model, [0.5, 0.0], ref, 100, FINE_GRAD)

    def test_n_intervals_checked(self, sin_model):
        with pytest.raises(ValueError, match="n_intervals"):
            integrated_gradient(sin_model, [0.5, 0.0], (0.0, 0.0), 0, FINE_GRAD)
        ref = ReferenceSet(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="n_intervals"):
            expected_integrated_gradient(sin_model, [0.5, 0.0], ref, 0, FINE_GRAD)

    def test_one_model_call_per_path(self):
        # a path's points and their displaced points go whole into one model
        # call, with as many other whole paths as keep rows x m within 2**15
        model = BatchRecorder(sinusoidal2d())
        per_path = (8 + 1) * (1 + 2 * FINE_GRAD.mc_samples)
        integrated_gradient(model, [0.5, 0.2], (0.0, 0.0), 8, FINE_GRAD)
        assert model.sizes == [per_path]
        model.sizes.clear()
        ref = ReferenceSet(np.array([[0.0, 0.0], [0.1, -0.3], [0.7, 0.2]]))
        expected_integrated_gradient(model, [0.5, 0.2], ref, 8, FINE_GRAD)
        assert model.sizes == [3 * per_path]
        model.sizes.clear()
        # 101 points x 21 rows x m = 2 is 4,242 numbers a path: 7 a batch
        expected_integrated_gradient(model, [0.5, 0.2], periodic_lattice(), 100, FINE_GRAD)
        assert model.sizes == [7 * 2_121] * 9 + [2_121]

    def test_path_above_budget_goes_alone(self):
        # in m = 30, one path is 5 points x 301 rows x 30 = 45,150 numbers
        coef = np.linspace(-1.0, 1.0, 30)
        model = BatchRecorder(linear_model(coef))
        rng = np.random.default_rng(3)
        ref = ReferenceSet(rng.uniform(-1, 1, (3, 30)))
        x_t = rng.uniform(-1, 1, 30)
        eig = expected_integrated_gradient(model, x_t, ref, 4, FINE_GRAD)
        assert model.sizes == [5 * (1 + 30 * FINE_GRAD.mc_samples)] * 3
        np.testing.assert_allclose(eig, (x_t - ref.samples.mean(axis=0)) * coef, atol=1e-12)


class TestExpectedIntegratedGradient:
    def test_self_reference_is_zero(self, sin_model):
        ref = ReferenceSet(np.array([[0.5, 0.0]]))
        eig = expected_integrated_gradient(sin_model, [0.5, 0.0], ref, 100, FINE_GRAD)
        np.testing.assert_allclose(eig, 0.0, atol=1e-12)

    def test_linear_closed_form(self):
        coef = np.array([2.0, -1.0, 0.5])
        m = linear_model(coef)
        rng = np.random.default_rng(0)
        ref = ReferenceSet(rng.uniform(-1, 1, (7, 3)))
        x_t = np.array([0.3, 0.9, -0.4])
        eig = expected_integrated_gradient(m, x_t, ref, 100, FINE_GRAD)
        expected = (x_t - ref.samples.mean(axis=0)) * coef
        np.testing.assert_allclose(eig, expected, atol=1e-12)

    def test_equals_reference_loop_of_ig(self, sin_model):
        # the batched paths give each reference's integral bit for bit, and
        # eig adds them up in reference order
        ref = periodic_lattice()
        x_t = np.array([0.3, -0.2])
        eig = expected_integrated_gradient(sin_model, x_t, ref, 100, FINE_GRAD)
        total = np.zeros(2)
        for w, sample in zip(ref.effective_weights, ref.samples):
            total += w * integrated_gradient(sin_model, x_t, sample, 100, FINE_GRAD)
        np.testing.assert_array_equal(eig, total)

    def test_one_sample_is_ig(self, sin_model):
        ref = ReferenceSet(np.array([[0.1, -0.4]]))
        eig = expected_integrated_gradient(sin_model, [0.5, 0.2], ref, 100, FINE_GRAD)
        ig = integrated_gradient(sin_model, [0.5, 0.2], (0.1, -0.4), 100, FINE_GRAD)
        np.testing.assert_array_equal(eig, ig)

    def test_sum_rule(self, sin_model):
        ref = periodic_lattice()
        x_t = np.array([0.3, -0.2])
        eig = expected_integrated_gradient(sin_model, x_t, ref, 100, FINE_GRAD)
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
        np.testing.assert_allclose(shapley_sampled(m, [5.0, 5.0], ref), 0.0, atol=1e-12)

    def test_additive_model_closed_form_and_brute_force(self):
        # additive f: SV_i = g_i(x_i) - mean_ref g_i, cross-checked against
        # the raw permutation definition
        m = quadratic_model([1.0, -0.5])
        rng = np.random.default_rng(1)
        ref = ReferenceSet(rng.uniform(-1, 1, (4, 2)))
        x_t = np.array([0.8, -0.3])
        sv = shapley_sampled(m, x_t, ref, method="exact")
        assert m.call_count == 1  # every coalition in one batch
        coef = np.array([1.0, -0.5])
        closed = coef * x_t**2 - (coef * ref.samples**2).mean(axis=0)
        np.testing.assert_allclose(sv, closed, atol=1e-10)
        np.testing.assert_allclose(sv, brute_force_shapley(m, x_t, ref.samples), atol=1e-10)

    def test_sinusoidal_symmetric_reference(self, sin_model):
        ref = periodic_lattice()
        for x_t in ([0.25, 0.1], [0.5, 0.0], [-0.3, 0.7]):
            sv = shapley_sampled(sin_model, x_t, ref, method="exact")
            np.testing.assert_allclose(sv, oracle_sv(x_t), atol=1e-12)
            assert sv[0] == pytest.approx(sv[1], abs=1e-12)

    def test_sampling_close_to_exact(self, sin_model):
        ref = periodic_lattice()
        x_t = [0.25, 0.1]
        exact = shapley_sampled(sin_model, x_t, ref, method="exact")
        sampled = shapley_sampled(sin_model, x_t, ref, n_configs=2000, seed=11,
                                  method="sampling")
        np.testing.assert_allclose(sampled, exact, atol=0.15)

    def test_sampling_deterministic_per_seed(self, sin_model):
        ref = periodic_lattice()
        a = shapley_sampled(sin_model, [0.3, 0.2], ref, 50, seed=9, method="sampling")
        assert sin_model.call_count == 1  # every permutation walk in one batch
        b = shapley_sampled(sin_model, [0.3, 0.2], ref, 50, seed=9, method="sampling")
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
        got = shapley_sampled(sinusoidal2d(), x_t, ref, 50, seed=9, method="sampling")
        np.testing.assert_array_equal(got, expect / 50)

    def test_auto_uses_sampling_for_large_dimension(self):
        m = CallableModel(lambda x: float(np.sum(x)), 16)
        ref = ReferenceSet(np.zeros((3, 16)))
        scores = shapley_sampled(m, np.ones(16), ref, n_configs=10, seed=0)
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
        delta = lc(sin_model, [0.5, 0.0], y_t, eta=1e-3, nu=1e-3, lam=1.0,
                   grad_cfg=FINE_GRAD, tol=1e-8).delta
        np.testing.assert_allclose(delta, oracle_gpa([0.5, 0.0], y_t), atol=1e-3)

    def test_zero_residual_stays_home(self, sin_model):
        y_t = sin_model.evaluate([0.3, 0.1])
        delta = lc(sin_model, [0.3, 0.1], y_t, eta=1e-3, nu=1e-3, grad_cfg=FINE_GRAD,
                   tol=1e-8).delta
        np.testing.assert_allclose(delta, 0.0, atol=1e-4)

    def test_scalar_linear_closed_form(self):
        # eta -> 0: delta solves y = c (x + delta)
        c, x_t, y_t = 2.0, 1.0, 3.0
        m = linear_model([c])
        delta = lc(m, [x_t], y_t, eta=1e-6, nu=1e-6, lam=1.0, grad_cfg=FINE_GRAD,
                   tol=1e-10).delta
        assert delta[0] == pytest.approx((y_t - c * x_t) / c, abs=1e-5)

    def test_is_shared_objective_with_gaussian_loss(self, sin_model):
        from anomattr.gpa import (
            CounterfactualObjective,
            gaussian_loss,
            proximal_minimize,
        )

        x_t, y_t, eta, lam = np.array([0.5, 0.0]), 1.0, 1e-3, 2.0
        objective = CounterfactualObjective(
            sinusoidal2d(), x_t[None, :], [y_t], eta, gaussian_loss(lam), FINE_GRAD
        )
        grad_fn, value_fn = objective.grad, objective.value
        d = np.array([-0.1, 0.05])
        r = y_t - sin_model.evaluate(x_t + d)
        assert value_fn(d) == pytest.approx(0.5 * eta * d @ d + 0.5 * lam * r * r,
                                            rel=1e-12)
        state = proximal_minimize(grad_fn, value_fn, 2, eta, 1e-3, 10_000, 1e-8,
                                  FINE_GRAD.seed, confirm_fn=objective.confirm)
        result = lc(sin_model, x_t, y_t, eta=eta, nu=1e-3, lam=lam, grad_cfg=FINE_GRAD,
                    tol=1e-8)
        np.testing.assert_array_equal(result.delta, state.delta)
        # the solver record is the solve's and its objective's
        assert (result.iterations, result.converged, result.halvings,
                result.secant_steps) == (state.iterations, state.converged,
                                         state.halvings, state.secant_steps)
        assert (result.one_pair_batches, result.confirmations) == (
            objective.one_pair_batches, objective.confirmations)

    def test_one_row_array_is_the_point_call(self, sin_model):
        kwargs = dict(eta=1e-3, nu=1e-3, grad_cfg=FINE_GRAD, tol=1e-8)
        point = lc(sin_model, [0.5, 0.0], 1.0, **kwargs)
        row = lc(sin_model, np.array([[0.5, 0.0]]), np.array([1.0]), **kwargs)
        np.testing.assert_array_equal(row.delta, point.delta)

    def test_collective_rows_share_the_gaussian_objective(self, sin_model):
        from anomattr.gpa import (
            CounterfactualObjective,
            gaussian_loss,
            proximal_minimize,
        )

        x = np.array([[0.5, 0.0], [0.45, 0.05], [0.55, -0.05]])
        y, eta, lam = np.array([1.0, 0.9, 1.1]), 1e-3, 2.0
        objective = CounterfactualObjective(
            sinusoidal2d(), x, y, eta, gaussian_loss(lam), FINE_GRAD
        )
        grad_fn, value_fn = objective.grad, objective.value
        d = np.array([-0.1, 0.05])
        r = y - sin_model.evaluate_batch(x + d)
        assert value_fn(d) == pytest.approx(0.5 * eta * d @ d + 0.5 * lam * r @ r,
                                            rel=1e-12)
        state = proximal_minimize(grad_fn, value_fn, 2, eta, 1e-3, 10_000, 1e-8,
                                  FINE_GRAD.seed, confirm_fn=objective.confirm)
        assert state.converged
        delta = lc(sin_model, x, y, eta=eta, nu=1e-3, lam=lam, grad_cfg=FINE_GRAD,
                   tol=1e-8).delta
        np.testing.assert_array_equal(delta, state.delta)

    def test_invalid_params(self, sin_model):
        with pytest.raises(ValueError):
            lc(sin_model, [0.0, 0.0], 0.0, eta=0.0, nu=0.5)

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
        delta = lc(sin_model, [0.5, 0.0], 1.0, eta=1e-3, nu=1e-3, lam=1.0,
                   grad_cfg=FINE_GRAD, tol=1e-8).delta
        np.testing.assert_allclose(delta, oracle_gpa([0.5, 0.0], 1.0), atol=1e-3)
        assert 0 < len(grads) <= 600

    def test_overflowing_residual_raises(self):
        from anomattr.gpa import DivergenceError

        # and numpy prints no overflow warning on the way
        with warnings.catch_warnings(), pytest.raises(DivergenceError,
                                                      match="square overflows"):
            warnings.simplefilter("error")
            lc(linear_model([1.0, 1.0]), [0.1, 0.2], 1e200, eta=0.1, nu=0.5)


class TestReferenceSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReferenceSet(np.empty((0, 2)))
