import contextlib
import copy
import io
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from anomattr import (
    CallableModel,
    GpaHyperParams,
    GradientEstimatorConfig,
    NonFiniteModelOutput,
    TestSet,
    cli,
    lc,
    linear_model,
    map_estimate,
    oracle_gpa,
    quadratic_model,
    score_distributions,
    sinusoidal2d,
)
from anomattr.gpa import (
    _MAX_ACTIVE_SET_STEPS,
    CounterfactualObjective,
    DivergenceError,
    _resolve_rates,
    _secant_correction,
    _solve_l1_quadratic,
    gaussian_loss,
    init_gamma_rate,
    proximal_minimize,
    refine_gamma_rate,
    student_t_loss,
)
from anomattr.models import drive, estimate_gradient
from conftest import (
    FINE_GRAD,
    ORACLE_HP,
    BatchRecorder,
    as_run,
    ask,
    driven,
    minimize,
    no_confirm,
    single_point,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _answered_rates(ts, model, hp):
    """The gamma rates of ``ts``, with their residual rows sent alone."""
    return drive(model, [_resolve_rates(ts, hp, np.empty(ts.n_test))])[0]


class TestGammaHyperparameters:
    def test_init_rate_examples(self):
        # residuals all equal 2 -> variance 4
        resid = np.array([2.0, 2.0])
        assert init_gamma_rate(resid, a0=1.0, c_b=1.0) == pytest.approx(4.0)
        assert init_gamma_rate(resid, a0=5.5, c_b=10.0) == pytest.approx(5.5 * 4 / 10)
        # a perfect fit's mean square of exactly 0 takes the 1e-6 substitute
        fit = np.zeros(1)
        assert init_gamma_rate(fit, a0=1.0, c_b=1.0) == pytest.approx(1e-6)
        assert init_gamma_rate(fit, a0=2.0, c_b=4.0) == pytest.approx(2e-6 / 4)
        with pytest.raises(ValueError, match="nonempty"):
            init_gamma_rate(np.zeros(0), a0=1.0, c_b=1.0)

    def test_small_mean_square_is_no_floor(self):
        # only an exact 0 is replaced: a well-fitted mean square of 1e-10
        # stays 1e-10, far below the 1e-6 substitute
        resid = np.array([1e-5, -1e-5])
        assert init_gamma_rate(resid, a0=5.5, c_b=10.0) == pytest.approx(
            5.5 * 1e-10 / 10.0, rel=1e-12)

    def test_refine_two_equal_residuals(self):
        # with one included sample of residual r the update's fixed point
        # solves 1/b = ((2 a0 + 1)/a0) / (2 b + r^2), i.e. b = a0 r^2;
        # cross-checked against an independent root find
        r = 2.0
        for a0 in (1.0, 5.5):
            b = refine_gamma_rate(np.zeros((2, 1)), np.array([r, r]), a0, b_init=1.0,
                                  anchor=0, iters=10_000, rel_tol=1e-15)
            root = brentq(
                lambda bb: 1.0 / bb - ((2 * a0 + 1) / a0) / (2 * bb + r**2),
                1e-9, 1e9,
            )
            assert root == pytest.approx(a0 * r**2, abs=1e-10)
            assert b == pytest.approx(root, abs=1e-8)

    def test_refine_zero_residuals_floored(self):
        b = refine_gamma_rate(np.array([[1.0], [2.0]]), np.zeros(2), a0=1.0,
                              b_init=0.5, anchor=0, iters=10_000, rel_tol=0.0)
        assert b == pytest.approx(1e-6 * 0.5)

    def test_refine_isolated_anchor_is_finite(self):
        # every other row lies beyond 38 units, where exp(-d^2 / 2)
        # underflows to 0; the nearest row then carries all the weight but
        # exp(-29.9), so b is the one-sample fixed point a0 r^2 of that row
        xs = np.array([[0.0, 0.0], [0.5, 0.1], [60.0, 0.0]])
        resid = np.array([1.0, -0.4, 1.5])
        a0 = 1.0
        b = refine_gamma_rate(xs, resid, a0, b_init=1.0, anchor=2,
                              iters=10_000, rel_tol=1e-15)
        assert b == pytest.approx(a0 * resid[1] ** 2, rel=1e-10)

    def test_refine_needs_two_samples(self):
        with pytest.raises(ValueError, match="init_gamma_rate"):
            refine_gamma_rate(np.zeros((1, 1)), np.ones(1), 1.0, 1.0, anchor=0)

    def test_local_kernel_rates_from_one_residual_batch(self):
        # the per-anchor reference queries the other samples' residuals once
        # per anchor, n (n - 1) + n points; a batch of n - 1 rows may round
        # differently from a batch of n, hence the relative tolerance
        rng = np.random.default_rng(3)
        coef = rng.uniform(0.5, 2.0, 6)
        xs = rng.normal(size=(8, 6))
        ts = TestSet(xs, (xs * xs) @ coef + rng.normal(size=8), list("abcdef"))
        hp = GpaHyperParams.for_testset(8, b_mode="local_kernel")
        model = BatchRecorder(quadratic_model(coef))
        rates = _answered_rates(ts, model, hp)
        assert model.sizes == [8]

        reference = quadratic_model(coef)
        b_init = init_gamma_rate(ts.y - reference.evaluate_batch(xs), hp.a0, hp.c_b)
        expect = []
        for t in range(8):
            others = [n for n in range(8) if n != t]
            resid = ts.y[others] - reference.evaluate_batch(xs[others])
            weights = np.exp(-np.sum((xs[others] - xs[t]) ** 2, axis=1) / 2.0)
            weights = weights / weights.sum()
            b = b_init
            for _ in range(100):
                b_new = max(1.0 / (((2 * hp.a0 + 1) / hp.a0)
                                   * np.sum(weights / (2 * b + resid**2))), 1e-6 * b_init)
                done = abs(b_new - b) <= 1e-6 * abs(b) or b_new == 1e-6 * b_init
                b = b_new
                if done:
                    break
            expect.append(b)
        assert reference.query_count == 8 + 8 * 7
        np.testing.assert_allclose(rates, expect, rtol=1e-12, atol=0)


def _objective(delta, ts, model, hp, rates):
    """The smooth part of the MAP objective at ``delta`` (no l1 term), under
    the per-sample gamma ``rates`` of a run."""
    loss = student_t_loss(hp.a0, rates)
    objective = CounterfactualObjective(ts.x, ts.y, hp.eta, loss, GradientEstimatorConfig())
    return driven(model, objective.value_run)(delta)


class TestObjective:
    def test_zero_residual_zero_perturbation(self):
        m = linear_model([2.0])
        ts = TestSet(np.array([[1.0]]), np.array([2.0]), ["a"])
        hp = GpaHyperParams(eta=0.5, a0=1.0, b0=1.0)
        assert _objective(np.zeros(1), ts, m, hp, np.full(1, hp.b0)) == pytest.approx(
            0.0, abs=1e-15)

    def test_unit_ratio_gives_log_two(self):
        # residual s with rate b = s^2/2 makes the ratio exactly 1
        s = 3.0
        m = linear_model([1.0])
        ts = TestSet(np.array([[0.0]]), np.array([s]), ["a"])
        for a0 in (1.0, 5.5):
            hp = GpaHyperParams(eta=1.0, a0=a0, b0=s**2 / 2)
            expect = (2 * a0 + 1) / 2 * np.log(2.0)
            assert _objective(np.zeros(1), ts, m, hp, np.full(1, hp.b0)) == pytest.approx(
                expect)

    def test_residual_killing_shift_is_near_minimal(self, sin_model):
        ts = single_point([0.5, 0.0], 1.0)
        best = np.array([-1.0 / 6.0, 0.0])
        rates = np.full(1, ORACLE_HP.b0)
        value = _objective(best, ts, sin_model, ORACLE_HP, rates)
        assert value == pytest.approx(0.5 * ORACLE_HP.eta * (1 / 36), abs=1e-9)
        for other in (np.zeros(2), np.array([0.1, 0.0]), np.array([-0.3, 0.1])):
            assert _objective(other, ts, sin_model, ORACLE_HP, rates) > value

    def test_collective_single_sample_reduction(self, sin_model):
        # the collective objective with one sample is the single-sample one
        ts = single_point([0.5, 0.0], 1.0)
        delta = np.array([0.05, -0.02])
        hp = ORACLE_HP
        resid = 1.0 - sin_model.evaluate(ts.x[0] + delta)
        direct = 0.5 * hp.eta * delta @ delta + (2 * hp.a0 + 1) / 2 * np.log1p(
            resid**2 / (2 * hp.b0)
        )
        assert _objective(delta, ts, sin_model, hp, np.full(1, hp.b0)) == pytest.approx(
            direct, rel=1e-12)

    def test_run_rates_give_the_solver_trace(self):
        # c_b rates from the residuals: the objective reuses the run's rates
        # and costs one batch of the samples, with no second rate query
        m = linear_model([1.0, -2.0])
        ts = TestSet(np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.4]]),
                     np.array([1.5, 1.1, 0.2]), ["a", "b"])
        hp = GpaHyperParams(a0=1.0, tol=1e-8)
        res = driven(m, map_estimate)(ts, hp, FINE_GRAD)
        before = m.query_count
        value = _objective(res.delta_star, ts, m, hp, res.rates)
        assert m.query_count - before == ts.n_test
        l1 = hp.eta * hp.nu * np.abs(res.delta_star).sum()
        assert value + l1 == res.objective_trace[-1]

    def test_record_of_a_solve_that_asks_no_rows(self):
        # a solve over callables that query nothing counts no row and no step
        objective = CounterfactualObjective(np.zeros((1, 2)), np.zeros(1), 1.0,
                                            gaussian_loss(1.0), FINE_GRAD)
        grad = as_run(lambda d: (2.0 * d, 2.0 * np.eye(2), np.zeros((2, 2))))
        solve = proximal_minimize(grad, as_run(lambda d: float(d @ d)), no_confirm, 2,
                                  GpaHyperParams(eta=1.0), 0)
        model = sinusoidal2d()
        result = drive(model, [objective.record(solve)])[0]
        assert result.converged and result.rates is None
        assert (result.query_count, result.call_count, result.one_pair_batches) == (0, 0, 0)
        assert model.query_count == model.call_count == 0

    def test_nonfinite_output_names_sample(self):
        m = CallableModel(lambda x: np.inf if x[0] > 0.5 else 0.0, 1)
        ts = TestSet(np.array([[0.0], [1.0]]), np.array([0.0, 0.0]), ["a"])
        hp = GpaHyperParams(b0=1.0)
        with pytest.raises(NonFiniteModelOutput) as exc:
            _objective(np.zeros(1), ts, m, hp, np.full(2, hp.b0))
        assert str(exc.value) == "model returned non-finite output inf at input [1.0]"
        assert m.query_count == 2  # counted before it is refused


class TestMapEstimate:
    @pytest.mark.parametrize("y_t", [1.0, 0.0, -1.0])
    def test_sinusoidal_closed_form(self, sin_model, y_t):
        ts = single_point([0.5, 0.0], y_t)
        res = driven(sin_model, map_estimate)(ts, ORACLE_HP, FINE_GRAD)
        assert res.converged
        np.testing.assert_allclose(res.delta_star, oracle_gpa([0.5, 0.0], y_t), atol=1e-3)

    def test_deviation_sensitivity(self, sin_model):
        # three distinct solutions matching arccos(y/2)/pi - 0.5
        sols = []
        for y_t in (1.0, 0.0, -1.0):
            res = driven(sin_model, map_estimate)(single_point([0.5, 0.0], y_t), ORACLE_HP,
                                                  FINE_GRAD)
            expected = np.arccos(y_t / 2.0) / np.pi - 0.5
            assert res.delta_star[0] == pytest.approx(expected, abs=1e-3)
            sols.append(res.delta_star[0])
        assert len({round(s, 4) for s in sols}) == 3

    def test_sparsity_fixed_point(self, sin_model):
        # each coordinate is exactly zero with |grad_i| <= eta * nu, or
        # nonzero with grad_i = -eta * nu * sign(delta_i): the optimality
        # conditions of the l1 term, to 1e-6 under the estimated gradient
        hp = ORACLE_HP
        ts = single_point([0.5, 0.0], 1.0)
        res = driven(sin_model, map_estimate)(ts, hp, FINE_GRAD)
        x = ts.x[0] + res.delta_star
        fv = sin_model.evaluate(x)
        r = ts.y[0] - fv
        gf = driven(sin_model, estimate_gradient)(x, FINE_GRAD, f0=fv)
        grad = hp.eta * res.delta_star - (2 * hp.a0 + 1) * r / (2 * hp.b0 + r * r) * gf
        thr = hp.eta * hp.nu
        for i in range(2):
            if res.delta_star[i] == 0.0:
                assert abs(grad[i]) <= thr + 1e-9
            else:
                assert grad[i] == pytest.approx(-thr * np.sign(res.delta_star[i]),
                                                abs=1e-6)

    def test_second_coordinate_exactly_zero(self, sin_model):
        res = driven(sin_model, map_estimate)(single_point([0.5, 0.0], 1.0), ORACLE_HP,
                                              FINE_GRAD)
        assert res.delta_star[1] == 0.0

    def test_monotone_descent_trace(self, sin_model):
        hp = GpaHyperParams(eta=1e-3, nu=1e-3, a0=1.0, b0=10.0, tol=1e-8)
        for y_t in (1.0, 0.0, -1.0):
            res = driven(sin_model, map_estimate)(single_point([0.5, 0.0], y_t), hp, FINE_GRAD)
            assert np.all(np.diff(res.objective_trace) <= 0.0)

    def test_query_count_recorded(self, sin_model):
        before = sin_model.query_count
        res = driven(sin_model, map_estimate)(single_point([0.5, 0.0], 1.0), ORACLE_HP,
                                              FINE_GRAD)
        assert res.query_count == sin_model.query_count - before > 0

    def test_query_count_includes_rate_queries(self):
        # c_b rates (no b0) cost one residual query per sample, counted too;
        # they go first in the solve's first batch, so they cost no call
        model = BatchRecorder(linear_model([2.0, 1.0]))
        xs = np.array([[0.0, 0.0], [0.1, 0.0], [-0.1, 0.1]])
        ts = TestSet(xs, xs @ [2.0, 1.0] + 1.0, ["a", "b"])
        res = driven(model, map_estimate)(ts, GpaHyperParams.for_testset(3, max_iter=5),
                                          FINE_GRAD)
        np.testing.assert_array_equal(model.first[:3], xs)
        assert model.sizes[0] == 3 + 3 * (1 + 2 * FINE_GRAD.mc_samples)
        assert res.query_count == model.query_count == sum(model.sizes)
        assert res.call_count == model.call_count == len(model.sizes)

    def test_explicit_b0_asks_no_rate_rows(self):
        # the solve's first batch goes alone, and the record counts the
        # solve's rows and calls, no more
        model = BatchRecorder(linear_model([2.0, 1.0]))
        xs = np.array([[0.0, 0.0], [0.1, 0.0], [-0.1, 0.1]])
        ts = TestSet(xs, xs @ [2.0, 1.0] + 1.0, ["a", "b"])
        hp = GpaHyperParams.for_testset(3, max_iter=5, b0=2.0)
        res = driven(model, map_estimate)(ts, hp, FINE_GRAD)
        assert model.sizes[0] == 3 * (1 + 2 * FINE_GRAD.mc_samples)
        assert res.query_count == model.query_count == sum(model.sizes)
        assert res.call_count == model.call_count == len(model.sizes)

    def test_lead_and_follow_runs_go_in_the_solve_s_calls(self):
        # the first call holds the lead rows, the rate rows (c_b rates, no
        # b0), the solve's first rows, then the follow rows; each run gets
        # its answers, and the record is bit for bit that of a lone solve
        coef, ts = _collective_problem()
        hp = GpaHyperParams.for_testset(ts.n_test, max_iter=50)
        lone = _RowLog(quadratic_model(coef))
        alone = driven(lone, map_estimate)(ts, hp, FINE_GRAD)
        lead_rows, follow_rows, seen = ts.x[:2] + 1.0, ts.x[3:] - 1.0, []

        def kept(rows, steps):
            for _ in range(steps):
                seen.append((yield rows).copy())

        model = _RowLog(quadratic_model(coef))
        _, res, _ = drive(model, [kept(lead_rows, 1), map_estimate(ts, hp, FINE_GRAD),
                                  kept(follow_rows, 2)])
        k = len(follow_rows)
        first, second = model.batches[:2]
        np.testing.assert_array_equal(first[:2], lead_rows)
        np.testing.assert_array_equal(first[2:2 + ts.n_test], ts.x)
        np.testing.assert_array_equal(first[2:-k], lone.batches[0])
        np.testing.assert_array_equal(first[-k:], follow_rows)
        np.testing.assert_array_equal(second[:-k], lone.batches[1])
        np.testing.assert_array_equal(second[-k:], follow_rows)
        reference = quadratic_model(coef)
        np.testing.assert_array_equal(seen[0], reference.evaluate_batch(lead_rows))
        for answers in seen[1:]:
            np.testing.assert_array_equal(answers, reference.evaluate_batch(follow_rows))
        assert len(seen) == 3
        np.testing.assert_array_equal(res.delta_star, alone.delta_star)
        assert ((res.iterations, res.halvings, res.query_count, res.call_count)
                == (alone.iterations, alone.halvings, alone.query_count, alone.call_count))
        assert model.call_count == alone.call_count > 2

    @pytest.mark.parametrize("cfg", [FINE_GRAD, GradientEstimatorConfig()],
                             ids=["oracle", "default estimator"])
    def test_rows_in_one_drive_keep_their_one_row_records(self, cfg):
        # three rows' runs in lockstep: each record is its one-row drive's,
        # and the rows share the calls of the row with the most steps
        rows = [single_point([x1, 0.0], y_t) for x1, y_t in
                [(0.5, 1.0), (0.3, -0.4), (-0.2, 0.9)]]
        alone = [driven(sinusoidal2d(), map_estimate)(ts, ORACLE_HP, cfg) for ts in rows]
        model = sinusoidal2d()
        together = drive(model, [map_estimate(ts, ORACLE_HP, cfg) for ts in rows])
        for res, one in zip(together, alone):
            np.testing.assert_array_equal(res.delta_star, one.delta_star)
            assert res.diagnostics == one.diagnostics
        assert model.call_count == max(one.call_count for one in alone)
        assert model.query_count == sum(one.query_count for one in alone)

    def test_gradient_model_calls_independent_of_n_test(self, monkeypatch):
        # every gradient, at a new delta or at one whose values are known,
        # takes all samples' slopes from one model batch
        import anomattr.gpa as gpa_mod

        real_solver = gpa_mod.proximal_minimize
        calls_per_grad = []

        def counting_solver(grad_fn, value_fn, *args, **kwargs):
            # map_estimate's grad_fn is a run: its calls are made as it is driven
            def counted_grad(delta):
                before = len(model.sizes)
                grad = yield from grad_fn(delta)
                calls_per_grad.append(len(model.sizes) - before)
                return grad

            return real_solver(counted_grad, value_fn, *args, **kwargs)

        monkeypatch.setattr(gpa_mod, "proximal_minimize", counting_solver)
        coef = np.array([2.0, -1.0, 0.5])
        xs = np.random.default_rng(0).uniform(-1, 1, (5, 3))
        seen = {}
        for n_test in (1, 5):
            model = BatchRecorder(CallableModel(lambda x: float(coef @ x), 3))
            ts = TestSet(xs[:n_test], xs[:n_test] @ coef + 1.0, ["a", "b", "c"])
            calls_per_grad.clear()
            driven(model, map_estimate)(ts, GpaHyperParams.for_testset(n_test, max_iter=5),
                                        FINE_GRAD)
            seen[n_test] = set(calls_per_grad)
        assert seen[1] == seen[5] == {1}

    def test_collective_gradient_matches_per_sample_loop(self, sin_model):
        # one batch for all samples sums in another order than the loop; the
        # curvature adds w_t g_t g_t^T per sample to eta I
        xs = np.array([[0.5, 0.0], [0.3, 0.2], [-0.4, 0.7]])
        ys = np.array([1.0, -0.5, 0.2])
        rates = np.array([10.0, 2.0, 0.5])
        delta = np.array([0.05, -0.1])
        grad_fn = driven(sin_model, CounterfactualObjective(
            xs, ys, 0.3, student_t_loss(1.0, rates), FINE_GRAD
        ).grad_run)
        expect, expect_hess = 0.3 * delta, 0.3 * np.eye(2)
        for x, y, b in zip(xs, ys, rates):
            r = y - sin_model.evaluate(x + delta)
            g = driven(sin_model, estimate_gradient)(x + delta, FINE_GRAD)
            expect -= 3.0 * r / (2 * b + r * r) * g
            expect_hess += 3.0 / (2 * b + r * r) * np.outer(g, g)
        grad, hess, corr = grad_fn(delta)
        np.testing.assert_allclose(grad, expect, rtol=1e-10)
        np.testing.assert_allclose(hess, expect_hess, rtol=1e-10)
        np.testing.assert_array_equal(corr, np.zeros((2, 2)))  # no step yet

    def test_deterministic(self, sin_model):
        a = driven(sin_model, map_estimate)(single_point([0.5, 0.0], 1.0), ORACLE_HP, FINE_GRAD)
        b = driven(sinusoidal2d(), map_estimate)(single_point([0.5, 0.0], 1.0), ORACLE_HP,
                                                 FINE_GRAD)
        np.testing.assert_array_equal(a.delta_star, b.delta_star)

    def test_collective_shared_shift(self):
        # three samples, all off by +1 through the first coordinate
        m = linear_model([2.0, 1.0])
        xs = np.array([[0.0, 0.0], [0.1, 0.0], [-0.1, 0.1]])
        ys = m.evaluate_batch(xs) + 1.0
        ts = TestSet(xs, ys, ["a", "b"])
        hp = GpaHyperParams.for_testset(3, a0=1.0, tol=1e-8)
        res = driven(m, map_estimate)(ts, hp, FINE_GRAD)
        assert res.converged
        assert res.delta_star[0] == pytest.approx(0.5, abs=0.02)

    def test_empty_testset_rejected(self, sin_model):
        ts = TestSet(np.empty((0, 2)), np.empty(0), ["x1", "x2"])
        with pytest.raises(ValueError):
            driven(sin_model, map_estimate)(ts, ORACLE_HP, FINE_GRAD)

    def test_dimension_mismatch_rejected(self, sin_model):
        # the driver refuses the solve's first rows (b0: no rate rows) before
        # any call
        ts = TestSet(np.zeros((1, 3)), np.zeros(1), ["a", "b", "c"])
        with pytest.raises(ValueError, match="rows of 3 inputs != model dimension 2"):
            driven(sin_model, map_estimate)(ts, ORACLE_HP, FINE_GRAD)
        assert sin_model.query_count == sin_model.call_count == 0

    def test_dimension_mismatch_rejected_with_rate_rows(self, sin_model):
        # the residual rows go first, and are refused with the solve's
        ts = TestSet(np.zeros((1, 3)), np.zeros(1), ["a", "b", "c"])
        with pytest.raises(ValueError, match="rows of 3 inputs != model dimension 2"):
            driven(sin_model, map_estimate)(ts, GpaHyperParams(), FINE_GRAD)
        assert sin_model.query_count == sin_model.call_count == 0

    def test_nonconvergence_flagged_not_raised(self, sin_model):
        hp = GpaHyperParams(eta=1e-3, nu=1e-3, a0=1.0, b0=10.0, max_iter=2,
                            tol=1e-12)
        res = driven(sin_model, map_estimate)(single_point([0.5, 0.0], 1.0), hp, FINE_GRAD)
        assert not res.converged
        assert res.iterations == 2


def _benchmark_sized_problem():
    """m = 30, n = 20 quadratic rows sharing a shift in 8 variables, drawn
    the way the benchmark draws its first collective problem."""
    rng = np.random.default_rng(0)
    m, n, shifted = 30, 20, 8
    coef = rng.uniform(0.5, 1.5, m)
    xs = rng.normal(0.0, 1.0, (n, m))
    shift = np.zeros(m)
    support = rng.choice(m, shifted, replace=False)
    shift[support] = rng.choice([-1.0, 1.0], shifted) * rng.uniform(0.5, 1.0, shifted)
    ys = ((xs + shift) ** 2) @ coef + rng.normal(0.0, 0.1, n)
    return coef, TestSet(xs, ys, [f"x{i}" for i in range(m)])


def _kkt_residual(delta, coef, ts, eta, nu, slope):
    """Per-coordinate violation of the optimality conditions of ``(eta/2)
    ||delta||^2 + sum_t loss(r_t) + eta nu ||delta||_1``, with the loss's
    ``slope`` in r and the quadratic model's analytic gradient."""
    z = ts.x + delta
    resid = ts.y - (z * z) @ coef
    grad = eta * delta - (slope(resid)[:, None] * 2.0 * coef * z).sum(axis=0)
    lam = eta * nu
    return np.where(delta != 0.0, np.abs(grad + lam * np.sign(delta)),
                    np.maximum(np.abs(grad) - lam, 0.0))


def _student_t_slope(hp, rates):
    return lambda r: (2 * hp.a0 + 1) * r / (2 * rates + r**2)


class TestAcceleratedSolver:
    def test_collective_problem_few_iterations_and_stationary(self):
        # unaccelerated proximal descent needs 1,770 iterations here
        coef, ts = _benchmark_sized_problem()
        hp = GpaHyperParams.for_testset(ts.n_test)
        res = driven(quadratic_model(coef), map_estimate)(ts, hp, GradientEstimatorConfig())
        assert res.converged
        assert res.iterations <= 300
        kkt = _kkt_residual(res.delta_star, coef, ts, hp.eta, hp.nu,
                            _student_t_slope(hp, res.rates))
        assert np.max(kkt) <= 2e-4
        assert np.all(np.diff(res.objective_trace) <= 0.0)

    @pytest.mark.parametrize("method", ["gpa", "lc"])
    def test_collective_problem_satisfies_kkt(self, method):
        # the estimator is exact on a quadratic model, so the analytic
        # gradient checks the solver alone
        coef, ts = _collective_problem()
        hp = GpaHyperParams.for_testset(ts.n_test, tol=1e-8)
        model = quadratic_model(coef)
        if method == "gpa":
            res = driven(model, map_estimate)(ts, hp, FINE_GRAD)
            assert res.converged
            delta, slope = res.delta_star, _student_t_slope(hp, res.rates)
        else:
            delta = driven(model, lc)(ts.x, ts.y, hp, FINE_GRAD, 2.0).delta_star
            slope = lambda r: 2.0 * r  # noqa: E731
        assert np.count_nonzero(delta) >= 2
        assert np.max(_kkt_residual(delta, coef, ts, hp.eta, hp.nu, slope)) <= 1e-4

    @pytest.mark.parametrize("y_t", [1.0, 0.0, -1.0])
    def test_oracle_rows_trace_non_increasing(self, sin_model, y_t):
        res = driven(sin_model, map_estimate)(single_point([0.5, 0.0], y_t), ORACLE_HP,
                                              FINE_GRAD)
        assert res.converged
        assert np.all(np.diff(res.objective_trace) <= 0.0)

    @pytest.mark.parametrize("x1, y_t", [(0.05, -1.14), (0.1, -1.0), (0.95, 1.14)])
    def test_small_slope_start_takes_the_nearest_root(self, sin_model, x1, y_t):
        # the slope at x is small against the residual, so a full first
        # Newton step would cross the nearest root (to 3.1 from x1 = 0.05);
        # the first step's reach keeps the solve in its basin
        res = driven(sin_model, map_estimate)(single_point([x1, 0.0], y_t), ORACLE_HP,
                                              FINE_GRAD)
        assert res.converged
        np.testing.assert_allclose(res.delta_star, oracle_gpa([x1, 0.0], y_t), atol=1e-3)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_symmetric_copy_takes_the_same_steps(self, seed):
        # permuting and sign-flipping the columns poses the same problem;
        # the inner solve is exact whatever the coordinate order, so only
        # the start's noise and rounding differ between the copies
        coef, ts = _collective_problem(seed)
        hp = GpaHyperParams.for_testset(ts.n_test, tol=1e-8)
        res = driven(quadratic_model(coef), map_estimate)(ts, hp, GradientEstimatorConfig())
        assert res.converged
        rng = np.random.default_rng(0)
        for _ in range(4):
            perm = rng.permutation(ts.dimension)
            signs = rng.choice([-1.0, 1.0], ts.dimension)
            copy = TestSet(ts.x[:, perm] * signs, ts.y, ts.variable_names)
            other = driven(quadratic_model(coef[perm]), map_estimate)(copy, hp,
                                                                      GradientEstimatorConfig())
            assert other.converged
            assert (other.iterations, other.query_count) == (res.iterations,
                                                              res.query_count)
            np.testing.assert_allclose(other.delta_star, res.delta_star[perm] * signs,
                                       rtol=0, atol=1e-9)

    def test_result_is_best_accepted_iterate(self):
        # the trace records F at the returned point, and ends there.  The
        # curvature 0.8 is 0.4 times the true one, so full steps overshoot
        # and raise F, and halving rescues them.  One value at the start and
        # per candidate; one gradient per iteration, plus one at the first
        # candidate, whose gradient was asked with its value and which F
        # then rejected: later line searches ask values alone
        calls = {"grad": 0, "value": 0}

        def value(d):
            calls["value"] += 1
            return float(np.sum((d - [1.0, -2.0]) ** 2))

        def grad(d):
            calls["grad"] += 1
            return 2.0 * (d - [1.0, -2.0]), 0.8 * np.eye(2), np.zeros((2, 2))

        state = minimize(grad, value, dim=2, eta=1.0, nu=0.01,
                         max_iter=500, tol=1e-10, seed=0)
        assert state.converged
        assert state.halvings > 0
        assert calls == {"grad": state.iterations + 1,
                         "value": 1 + state.iterations - 1 + state.halvings}
        penalized = value(state.delta_star) + 0.01 * np.abs(state.delta_star).sum()
        assert state.objective_trace[-1] == penalized
        assert len(state.objective_trace) == state.iterations
        np.testing.assert_allclose(state.delta_star, [0.995, -1.995], atol=1e-8)


# signs of delta* on _benchmark_sized_problem() under the default flags, as
# the plain Gauss-Newton solver found them in 30 iterations
_BENCHMARK_SIGNS = [1, 1, 0, 0, -1, 0, 1, -1, -1, -1, 1, 0, 1, -1, 1, -1, 1, -1, 0, 1,
                    0, -1, 0, 0, 0, 0, 1, 1, -1, 0]


class TestSecantCorrection:
    def test_update_meets_the_secant_equation_and_stays_symmetric(self):
        coef, ts = _collective_problem()
        rates = np.full(ts.n_test, 2.0)
        model = quadratic_model(coef)
        grad_fn = driven(model, CounterfactualObjective(
            ts.x, ts.y, 0.3, student_t_loss(1.0, rates), FINE_GRAD).grad_run)
        _, weight = student_t_loss(1.0, rates)
        rng = np.random.default_rng(5)
        before = np.zeros(ts.dimension)
        grad_fn(before)
        for _ in range(3):
            delta = before + rng.normal(0.0, 0.1, ts.dimension)
            _, _, corr = grad_fn(delta)
            resid = ts.y - model.evaluate_batch(ts.x + delta)
            grads_change = (driven(model, estimate_gradient)(ts.x + delta, FINE_GRAD)
                            - driven(model, estimate_gradient)(ts.x + before, FINE_GRAD))
            y_sharp = -grads_change.T @ (weight(resid) * resid)
            np.testing.assert_allclose(corr @ (delta - before), y_sharp, rtol=1e-9,
                                       atol=1e-12 * np.abs(y_sharp).max())
            np.testing.assert_array_equal(corr, corr.T)
            assert np.any(corr != 0.0)
            before = delta

    def test_helper_keeps_symmetry_over_many_updates(self):
        rng = np.random.default_rng(11)
        update = _secant_correction(6)
        delta, grads = rng.normal(size=6), rng.normal(size=(4, 6))
        assert not update(delta, grads, rng.normal(size=4)).any()
        for _ in range(20):
            last, last_grads = delta, grads
            delta = delta + rng.normal(size=6)
            grads, slope = rng.normal(size=(4, 6)), rng.normal(size=4)
            corr = update(delta, grads, slope)
            np.testing.assert_array_equal(corr, corr.T)
            y_sharp = -(grads - last_grads).T @ slope
            np.testing.assert_allclose(corr @ (delta - last), y_sharp, rtol=1e-9, atol=1e-9)

    def test_constant_model_gradient_keeps_it_exactly_zero(self):
        # a linear model's gradient is the same at every delta, so the
        # model curvature the correction estimates is 0, and so is C
        coef = np.array([2.0, -1.0, 0.5])
        xs = np.random.default_rng(0).uniform(-1, 1, (4, 3))
        update = _secant_correction(3)
        rng = np.random.default_rng(1)
        for _ in range(5):
            delta = rng.normal(size=3)
            resid = xs @ coef + 1.0 - linear_model(coef).evaluate_batch(xs + delta)
            corr = update(delta, np.tile(coef, (4, 1)), resid / (2.0 + resid**2))
            np.testing.assert_array_equal(corr, np.zeros((3, 3)))

    def test_linear_model_keeps_it_at_rounding(self):
        # the finite-difference estimate of a linear model's gradient moves
        # with delta only by rounding, and C with it
        coef = np.array([2.0, -1.0, 0.5])
        xs = np.random.default_rng(0).uniform(-1, 1, (4, 3))
        grad_fn = driven(linear_model(coef), CounterfactualObjective(
            xs, xs @ coef + 1.0, 0.3, student_t_loss(1.0, np.full(4, 2.0)),
            GradientEstimatorConfig()).grad_run)
        for delta in np.random.default_rng(1).normal(size=(5, 3)):
            _, hess, corr = grad_fn(delta)
            assert np.abs(corr).max() <= 1e-12 * np.abs(hess).max()

    def test_zero_step_leaves_it_unchanged(self):
        coef, ts = _collective_problem()
        model = quadratic_model(coef)
        objective = CounterfactualObjective(
            ts.x, ts.y, 0.3, student_t_loss(1.0, np.full(ts.n_test, 2.0)), FINE_GRAD)
        grad_fn, value_fn = driven(model, objective.grad_run), driven(model, objective.value_run)
        grad_fn(np.zeros(ts.dimension))
        delta = np.full(ts.dimension, 0.1)
        _, _, corr = grad_fn(delta)
        value_fn(delta / 2)  # the memo moves, the last gradient point does not
        _, _, again = grad_fn(delta)
        np.testing.assert_array_equal(again, corr)

    def test_benchmark_problem_converges_in_fewer_iterations(self):
        # plain Gauss-Newton steps take 30 iterations here; the parent's
        # solution has the same support and signs
        coef, ts = _benchmark_sized_problem()
        hp = GpaHyperParams.for_testset(ts.n_test)
        res = driven(quadratic_model(coef), map_estimate)(ts, hp, GradientEstimatorConfig())
        assert res.converged
        assert res.iterations <= 20
        assert 0 < res.secant_steps <= res.iterations
        kkt = _kkt_residual(res.delta_star, coef, ts, hp.eta, hp.nu,
                            _student_t_slope(hp, res.rates))
        assert np.max(kkt) <= 1e-5
        np.testing.assert_array_equal(np.sign(res.delta_star), _BENCHMARK_SIGNS)

    @pytest.mark.parametrize("y_t", [1.0, 0.0, -1.0])
    def test_secant_steps_at_most_iterations(self, sin_model, y_t):
        res = driven(sin_model, map_estimate)(single_point([0.5, 0.0], y_t), ORACLE_HP,
                                              FINE_GRAD)
        assert 0 <= res.secant_steps <= res.iterations

    def test_slow_steps_take_the_corrected_curvature(self):
        # F = |d - t|^2 has curvature 2, and H = 20 I takes a tenth of each
        # Newton step, so F falls by less than a fifth per step.  The true
        # curvature as H + C cuts the iterations by more than 5x (a step that
        # lowers F by more than a fifth leaves the next one to H); an
        # indefinite H + C fails the Cholesky test and leaves the plain steps
        target = np.array([1.0, -2.0])
        runs = {}
        for shift in (0.0, -18.0, -25.0):
            runs[shift] = minimize(
                lambda d, c=shift * np.eye(2): (2.0 * (d - target), 20.0 * np.eye(2), c),
                lambda d: float(np.sum((d - target) ** 2)),
                dim=2, eta=1.0, nu=0.01, max_iter=500, tol=1e-10, seed=0)
        plain, exact, indefinite = runs[0.0], runs[-18.0], runs[-25.0]
        assert plain.converged and exact.converged
        assert 0 < plain.secant_steps == plain.iterations - 1
        assert 5 * exact.iterations < plain.iterations
        np.testing.assert_allclose(exact.delta_star, plain.delta_star, atol=1e-8)
        assert indefinite.secant_steps == 0
        assert indefinite.iterations == plain.iterations
        np.testing.assert_array_equal(indefinite.delta_star, plain.delta_star)


def _l1_kkt_residual(v, grad, hess, x, l1_weight):
    """Optimality violation of v for ``grad.(v - x) + (1/2)(v - x)^T hess
    (v - x) + l1_weight ||v||_1``."""
    slope = grad + hess @ (v - x)
    return np.where(v != 0.0, np.abs(slope + l1_weight * np.sign(v)),
                    np.maximum(np.abs(slope) - l1_weight, 0.0))


class TestL1QuadraticSolve:
    def test_diagonal_curvature_is_the_soft_threshold(self):
        rng = np.random.default_rng(4)
        grad, x = rng.normal(size=6), rng.normal(size=6)
        diag = rng.uniform(0.5, 3.0, 6)
        v = _solve_l1_quadratic(grad, np.diag(diag), x, 0.7, np.zeros(6))
        target = x - grad / diag
        expect = np.sign(target) * np.maximum(np.abs(target) - 0.7 / diag, 0.0)
        assert 0 < np.count_nonzero(expect) < 6
        np.testing.assert_allclose(v, expect, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_curvature_meets_kkt(self, seed):
        rng = np.random.default_rng(seed)
        gmat = rng.normal(size=(8, 12))
        hess = 0.1 * np.eye(12) + gmat.T @ gmat
        grad, x = rng.normal(size=12), rng.normal(size=12)
        v = _solve_l1_quadratic(grad, hess, x, 1.0, x)
        assert 0 < np.count_nonzero(v) < 12
        assert np.max(_l1_kkt_residual(v, grad, hess, x, 1.0)) <= 1e-10

    def test_loose_tolerance_never_rates_above_x(self):
        # from a start far along H's nearly flat direction the solve still
        # ends at the minimizer 0, so q(v) <= q(x)
        hess = np.array([[1.0, 0.999], [0.999, 1.0]])
        v = _solve_l1_quadratic(np.zeros(2), hess, np.zeros(2), 0.0,
                                np.array([10.0, -10.0]))
        np.testing.assert_array_equal(v, [0.0, 0.0])

    @staticmethod
    def _problem(seed, m=12):
        rng = np.random.default_rng(seed)
        gmat = rng.normal(size=(m, m))
        hess = 0.1 * np.eye(m) + gmat.T @ gmat / m
        grad, x = rng.normal(size=m), rng.normal(size=m)
        return rng, grad, hess, x

    @pytest.mark.parametrize("seed", range(8))
    def test_start_with_the_right_signs_gives_the_exact_minimizer(self, seed):
        # the start's signs hold, so the first solve on its support is the
        # answer, and it meets the conditions to rounding
        rng, grad, hess, x = self._problem(seed)
        exact = _solve_l1_quadratic(grad, hess, x, 0.5, x)
        assert 0 < np.count_nonzero(exact) < len(x)
        start = exact * rng.uniform(0.9, 1.1, len(x))
        v = _solve_l1_quadratic(grad, hess, x, 0.5, start)
        scale = np.max(np.abs(hess @ x - grad))
        assert np.max(_l1_kkt_residual(v, grad, hess, x, 0.5)) <= 1e-12 * scale
        np.testing.assert_array_equal(np.sign(v), np.sign(exact))

    @pytest.mark.parametrize("seed", range(8))
    def test_start_with_wrong_signs_falls_back_to_sweeps(self, seed):
        # the minimizer is unique, so the flipped sign pattern of x cannot
        # meet the conditions; the active-set steps from x still end at it
        rng, grad, hess, _ = self._problem(seed)
        exact = _solve_l1_quadratic(grad, hess, np.zeros(len(grad)), 0.5,
                                    np.zeros(len(grad)))
        x = -exact * rng.uniform(0.5, 2.0, len(grad))
        grad = grad + hess @ x  # the same q, now around x
        v = _solve_l1_quadratic(grad, hess, x, 0.5, x)
        scale = np.max(np.abs(hess @ x - grad))
        assert np.max(_l1_kkt_residual(v, grad, hess, x, 0.5)) <= 1e-12 * scale
        np.testing.assert_allclose(v, exact, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(np.sign(v), np.sign(exact))

    @pytest.mark.parametrize("seed", range(8))
    def test_every_start_gives_the_same_minimizer(self, seed):
        # random sign patterns, zeros included, as starts
        rng, grad, hess, x = self._problem(seed, m=20)
        exact = _solve_l1_quadratic(grad, hess, x, 0.3, np.zeros(len(x)))
        scale = np.max(np.abs(hess @ x - grad))
        assert np.max(_l1_kkt_residual(exact, grad, hess, x, 0.3)) <= 1e-12 * scale
        for _ in range(5):
            start = rng.normal(size=len(x)) * rng.integers(0, 2, len(x))
            v = _solve_l1_quadratic(grad, hess, x, 0.3, start)
            np.testing.assert_allclose(v, exact, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(np.sign(v), np.sign(exact))

    def test_degenerate_zeros_stay_exactly_zero(self, monkeypatch):
        # half the minimizer's coordinates are 0 with slopes exactly +-l1
        # there, so their excess over l1 is only rounding; from 0, from the
        # minimizer and from a random point the search must neither cycle
        # nor leave +-1e-16 where the minimizer is 0
        import anomattr.gpa as gpa_mod

        solves = []
        real_solve = np.linalg.solve

        def counting_solve(a, b):
            solves[-1] += 1
            return real_solve(a, b)

        monkeypatch.setattr(gpa_mod.np.linalg, "solve", counting_solve)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            m = int(rng.integers(8, 28))
            a = rng.normal(size=(m, m))
            hess = a @ a.T / m + 0.1 * np.eye(m)
            exact = rng.normal(size=m)
            zero = rng.permutation(m)[: m // 2]
            exact[zero] = 0.0
            x = rng.normal(size=m)
            slope = -0.5 * np.sign(exact)
            slope[zero] = rng.choice([-0.5, 0.5], size=len(zero))
            grad = slope - hess @ (exact - x)
            for start in (np.zeros(m), exact.copy(), rng.normal(size=m)):
                solves.append(0)
                v = _solve_l1_quadratic(grad, hess, x, 0.5, start)
                assert solves[-1] < gpa_mod._MAX_ACTIVE_SET_STEPS
                np.testing.assert_allclose(v, exact, rtol=0, atol=1e-12)
                np.testing.assert_array_equal(v[zero], 0.0)

    def test_inner_solve_sends_no_query(self, monkeypatch):
        import anomattr.gpa as gpa_mod

        coef, ts = _collective_problem()
        model = BatchRecorder(quadratic_model(coef))
        real = gpa_mod._solve_l1_quadratic
        sent = []

        def watched(*args):
            before = model.query_count
            v = real(*args)
            sent.append(model.query_count - before)
            return v

        monkeypatch.setattr(gpa_mod, "_solve_l1_quadratic", watched)
        res = driven(model, map_estimate)(ts, GpaHyperParams.for_testset(ts.n_test), FINE_GRAD)
        # a confirmation at the stop solves the model once more
        assert res.confirmations == 1
        assert len(sent) == res.iterations + 1 and set(sent) == {0}


def _reference_solve_l1_quadratic(grad, hess, x, l1_weight: float, start) -> np.ndarray:
    """``_solve_l1_quadratic`` as it was before its active sets were built
    from index arrays and its absolute values taken once per call, verbatim
    but for this docstring: the reference the solver must equal bit for
    bit."""
    signs = np.sign(start)
    v, rhs = start, hess @ x - grad

    def rounding(v):  # error bound of grad + hess (v - x) and of a solve's residual
        magnitude = np.abs(grad) + np.abs(hess) @ (np.abs(v) + np.abs(x))
        return len(x) * np.finfo(float).eps * magnitude

    for _ in range(_MAX_ACTIVE_SET_STEPS):
        support = signs != 0
        target = np.zeros_like(x)
        target[support] = np.linalg.solve(hess[np.ix_(support, support)],
                                          (rhs - l1_weight * signs)[support])
        if np.array_equal(np.sign(target), signs):
            v = target
            slope = grad + hess @ (v - x)
            excess = np.where(support, -np.inf, np.abs(slope) - l1_weight)
            if excess.max() > 0.0:  # may be rounding alone
                excess -= rounding(v)
            j = int(np.argmax(excess))
            if excess[j] <= 0.0:
                break
            signs[j] = -np.sign(slope[j])
            continue
        # the current point, each zero crossing on the way to target (a
        # coordinate just added sits at 0 and crosses none), target
        crossed = np.flatnonzero((np.sign(target) != signs) & (v != 0.0))
        ts = v[crossed] / (v[crossed] - target[crossed])
        points = np.vstack([v, v + ts[:, None] * (target - v), target])
        points[np.arange(1, len(crossed) + 1), crossed] = 0.0
        steps = points - x
        q = (steps @ grad + 0.5 * np.einsum("ij,ij->i", steps @ hess, steps)
             + l1_weight * np.abs(points).sum(axis=1))
        best = int(np.argmin(q))
        if best == 0:
            break
        v = points[best]
        signs = np.sign(v)
    support = v != 0
    error = np.zeros_like(v)
    inverse = np.linalg.inv(hess[np.ix_(support, support)])
    error[support] = np.abs(inverse) @ rounding(v)[support]
    return np.where(np.abs(v) > error, v, 0.0)


def _l1_problem(kind, seed, m):
    """(grad, hess, x, l1_weight) of one l1-penalized quadratic of ``kind``."""
    rng = np.random.default_rng(seed)
    l1_weight = float(rng.uniform(0.05, 1.0))
    x = rng.normal(size=m)
    if kind == "lime gram":
        # lime's problem at m = 2: centred cloud design, slopes at 0; a
        # constant column leaves a zero row and column in the gram
        design = 0.3 * rng.standard_normal((20, 2))
        if rng.integers(2):
            design[:, 1] = 0.3
        design -= design.mean(axis=0)
        values = rng.normal(size=20)
        scale = 2.0 / len(design)
        return (-scale * design.T @ (values - values.mean()), scale * design.T @ design,
                np.zeros(2), l1_weight)
    basis, _ = np.linalg.qr(rng.normal(size=(m, m)))
    spread = 10.0 if kind == "near singular" else 1.0
    hess = (basis * np.logspace(-spread, 0.0, m)) @ basis.T
    hess = 0.5 * (hess + hess.T)
    if kind == "slopes at l1":
        # half the minimizer's coordinates are 0 with slopes exactly +-l1
        exact = rng.normal(size=m)
        zero = rng.permutation(m)[: m // 2]
        exact[zero] = 0.0
        slope = -l1_weight * np.sign(exact)
        slope[zero] = rng.choice([-l1_weight, l1_weight], size=len(zero))
        return slope - hess @ (exact - x), hess, x, l1_weight
    return rng.normal(size=m), hess, x, l1_weight


class TestL1QuadraticSolveRewrite:
    @given(kind=st.sampled_from(["spd", "near singular", "lime gram", "slopes at l1"]),
           seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
           start=st.sampled_from(["zero", "x", "random"]))
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_the_reference(self, kind, seed, m, start):
        grad, hess, x, l1_weight = _l1_problem(kind, seed, m)
        if kind == "lime gram":
            start = "zero"  # lime's own start; its gram may be singular
        first = {"zero": np.zeros(len(x)), "x": x.copy(),
                 "random": np.random.default_rng(seed + 1).normal(size=len(x))
                 * np.random.default_rng(seed + 2).integers(0, 2, len(x))}[start]
        got = _solve_l1_quadratic(grad, hess, x, l1_weight, first.copy())
        expect = _reference_solve_l1_quadratic(grad, hess, x, l1_weight, first.copy())
        assert got.tobytes() == expect.tobytes()

    def test_same_bits_on_every_call_of_the_collective_benchmark(self, monkeypatch,
                                                                  tmp_path):
        # the three seed-1 collective-builtin operations: 45 iterations and
        # 3 confirmations
        import anomattr.gpa as gpa_mod

        monkeypatch.syspath_prepend(str(BENCH))
        import workloads

        real, calls = gpa_mod._solve_l1_quadratic, []

        def captured(*args):
            calls.append(copy.deepcopy(args))
            return real(*args)

        monkeypatch.setattr(gpa_mod, "_solve_l1_quadratic", captured)
        ops, _, _ = workloads.build("collective-builtin", 1, tmp_path)
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(op.argv) == 0, op.name
        assert len(calls) == 48
        for args in calls:
            got = real(*copy.deepcopy(args))
            assert got.tobytes() == _reference_solve_l1_quadratic(*args).tobytes()


def _two_call_objective(model, x, y, eta, loss, grad_cfg):
    """Reference objective that sends the values at ``x_t + delta`` and the
    displaced points as two batches, the second with the first's values as
    ``f0``; the value at the last delta is remembered.  The secant
    correction is the objective's own."""
    loss_value, loss_weight = loss
    key = fvals = None
    secant = _secant_correction(len(x[0]))

    def value_fn(delta):
        nonlocal key, fvals
        if delta.tobytes() != key:
            key, fvals = delta.tobytes(), model.evaluate_batch(x + delta)
        return 0.5 * eta * float(delta @ delta) + loss_value(y - fvals)

    def grad_fn(delta):
        value_fn(delta)
        grads = driven(model, estimate_gradient)(x + delta, grad_cfg, f0=fvals)
        resid = y - fvals
        weight = loss_weight(resid)
        slope = weight * resid
        hess = eta * np.eye(len(delta)) + grads.T @ (weight[:, None] * grads)
        return eta * delta - slope @ grads, hess, secant(delta, grads, slope)

    return grad_fn, value_fn


def _solve_both_ways(make_model, ts, loss, eta, nu, grad_cfg, max_iter=10_000,
                     tol=1e-8):
    """(solver state, queries) with the fused objective, then with the
    two-call reference, each on a fresh model."""
    hp = GpaHyperParams(eta=eta, nu=nu, max_iter=max_iter, tol=tol)
    runs = []
    for fused in (True, False):
        model = make_model()
        if fused:
            objective = CounterfactualObjective(ts.x, ts.y, eta, loss, grad_cfg)
            grad_fn, value_fn = objective.grad_run, objective.value_run
            confirm_fn = objective.confirm_run
        else:
            grad_fn, value_fn = map(as_run, _two_call_objective(model, ts.x, ts.y, eta,
                                                                loss, grad_cfg))
            confirm_fn = no_confirm
        state = driven(model, proximal_minimize)(grad_fn, value_fn, confirm_fn, ts.dimension,
                                                 hp, grad_cfg.seed)
        runs.append((state, model.query_count))
    return runs


class TestSolverPlan:
    """The start sends one model batch, which gives both F and the gradient
    there.  Each candidate step is one batch: the first of a line search
    carries its displaced rows, so that the gradient at the point it
    becomes is already there, unless the previous line search rejected its
    first candidate; the others carry the rows alone, and a point accepted
    without its gradient sends one batch of its displaced rows.  Where a
    coordinate's draws agree at the start, its later displaced rows are one
    pair, and the stop sends the rest in one confirmation batch."""

    def test_fresh_gradient_is_one_batch_with_the_centre_rows_first(self):
        coef, ts = _collective_problem()
        n, m, mc = ts.n_test, ts.dimension, FINE_GRAD.mc_samples
        model = BatchRecorder(quadratic_model(coef))
        loss = student_t_loss(1.0, np.full(n, 2.0))
        objective = CounterfactualObjective(ts.x, ts.y, 0.3, loss, FINE_GRAD)
        grad_fn, value_fn = driven(model, objective.grad_run), driven(model, objective.value_run)
        delta = np.linspace(-0.2, 0.2, m)
        grad_fn(delta)
        assert model.sizes == [n * (1 + m * mc)]
        np.testing.assert_array_equal(model.last[:n], ts.x + delta)
        value = value_fn(delta)  # answered by the gradient's batch
        assert model.sizes == [n * (1 + m * mc)]
        _, reference = _two_call_objective(quadratic_model(coef), ts.x, ts.y, 0.3,
                                           loss, FINE_GRAD)
        assert value == pytest.approx(reference(delta), rel=1e-12)
        # the reverse: the gradient where the value was just taken sends
        # the displaced points alone, one pair per coordinate, since the
        # quadratic's pairs agree
        value_fn(delta / 2)
        grad_fn(delta / 2)
        assert model.sizes[1:] == [n, n * m * 2]

    @pytest.mark.parametrize("problem", ["oracle-row", "collective"])
    def test_solve_is_one_batch_per_iteration(self, problem):
        # c_b rates (no b0), so the run's first batch starts with the n
        # residual rows; no line search here rejects a step, so every batch
        # carries the rows and their displaced points
        if problem == "oracle-row":
            model = BatchRecorder(sinusoidal2d())
            hp = GpaHyperParams(eta=1e-3, nu=1e-3, a0=1.0, tol=1e-8)
            ts = single_point([0.5, 0.0], 1.0)
        else:
            coef, ts = _collective_problem()
            model = BatchRecorder(quadratic_model(coef))
            hp = GpaHyperParams.for_testset(ts.n_test, max_iter=300)
        res = driven(model, map_estimate)(ts, hp, FINE_GRAD)
        n, m, mc = ts.n_test, ts.dimension, FINE_GRAD.mc_samples
        displaced = n * m * mc
        assert res.converged and res.iterations > 1 and res.halvings == 0
        if problem == "oracle-row":  # the sinusoid's pairs differ: every draw
            assert res.one_pair_batches == res.confirmations == 0
            assert res.call_count == len(model.sizes) == res.iterations
            assert model.sizes == [n + n + displaced] + [n + displaced] * (res.iterations - 1)
            assert res.query_count == n + (n + displaced) * res.iterations
            return
        # the quadratic's pairs agree: every draw at the start, one pair per
        # coordinate after it, and the missing draws at the stop
        assert res.one_pair_batches == res.iterations - 1 and res.confirmations == 1
        assert res.call_count == len(model.sizes) == 1 + res.iterations
        assert model.sizes == ([n + n + displaced] + [n + n * m * 2] * (res.iterations - 1)
                               + [n * m * (mc - 2)])
        assert res.query_count == sum(model.sizes)

    def test_rejected_first_candidate_costs_its_displaced_rows(self):
        # the default grad-std 1 shrinks the sinusoid's estimated slope, so
        # near the root a line search rejects its first candidate.  That
        # candidate is one batch of n + displaced rows where a value alone
        # would be n; the next candidates and the next line search send the
        # rows alone, and the point accepted after halving sends its
        # displaced rows for its gradient
        model = BatchRecorder(sinusoidal2d())
        res = driven(model, map_estimate)(single_point([0.5, 0.0], 1.0), ORACLE_HP,
                                          GradientEstimatorConfig())
        n, displaced = 1, 2 * GradientEstimatorConfig().mc_samples
        assert res.converged and res.halvings > 1
        rejected = model.sizes.index(n) - 1
        assert model.sizes == ([n + displaced] * (rejected + 1) + [n, displaced]
                               + [n] * (res.halvings - 1))
        # against the plan that sends the gradient at each accepted point
        # after its value: exactly the displaced rows more, and one call
        # fewer per candidate accepted with its gradient
        two_batch_queries = (n + displaced) * res.iterations + n * res.halvings
        assert res.query_count == two_batch_queries + displaced
        two_batch_calls = 1 + 2 * (res.iterations - 1) + res.halvings
        assert res.call_count == two_batch_calls - (rejected - 1)

    def test_last_iteration_sends_its_candidate_alone(self):
        # no iteration follows the max_iter-th, so its candidate carries no
        # displaced rows
        coef, ts = _collective_problem()
        model = BatchRecorder(quadratic_model(coef))
        hp = GpaHyperParams.for_testset(ts.n_test, max_iter=3)
        res = driven(model, map_estimate)(ts, hp, FINE_GRAD)
        n, m = ts.n_test, ts.dimension
        displaced = n * m * FINE_GRAD.mc_samples
        assert not res.converged and res.iterations == 3 and res.halvings == 0
        # one pair per coordinate after the start, and no confirmation, as
        # the solve does not stop on its step
        assert model.sizes == [n + n + displaced] + [n + n * m * 2] * 2 + [n]
        assert res.one_pair_batches == 2 and res.confirmations == 0

    @pytest.mark.parametrize("y_t", [1.0, 0.0, -1.0])
    @pytest.mark.parametrize("method", ["gpa", "lc"])
    def test_oracle_rows_bit_identical_to_two_call_plan(self, y_t, method):
        hp = ORACLE_HP
        if method == "gpa":
            loss = student_t_loss(hp.a0, np.full(1, hp.b0))
        else:
            loss = gaussian_loss(1.0)
        (fused, fused_queries), (reference, reference_queries) = _solve_both_ways(
            sinusoidal2d, single_point([0.5, 0.0], y_t), loss, hp.eta, hp.nu,
            FINE_GRAD)
        assert fused.converged
        assert fused.iterations == reference.iterations
        assert fused_queries == reference_queries
        np.testing.assert_array_equal(fused.delta_star, reference.delta_star)
        np.testing.assert_array_equal(fused.objective_trace, reference.objective_trace)

    def test_collective_quadratic_matches_two_call_plan(self):
        # the reference sends every draw at each accepted point; the fused
        # objective sends them at the start, one pair per coordinate after
        # it, and the missing draws at the stop.  A pair's slope is the
        # all-draws mean up to rounding, hence the tolerance
        coef, ts = _benchmark_sized_problem()
        hp = GpaHyperParams.for_testset(ts.n_test)
        cfg = GradientEstimatorConfig()
        rates = _answered_rates(ts, quadratic_model(coef), hp)
        (fused, fused_queries), (reference, reference_queries) = _solve_both_ways(
            lambda: quadratic_model(coef), ts, student_t_loss(hp.a0, rates), hp.eta,
            hp.nu, cfg, hp.max_iter, hp.tol)
        assert fused.converged
        assert fused.iterations == reference.iterations
        left_out = ts.n_test * ts.dimension * (cfg.mc_samples - 2)
        assert fused_queries == reference_queries - (fused.iterations - 2) * left_out
        np.testing.assert_allclose(fused.delta_star, reference.delta_star, rtol=1e-12, atol=0)


def _cubic_past_threshold(coef, threshold, cube):
    """A quadratic model plus ``cube (z_0 - threshold)^3`` where z_0 passes
    ``threshold``: its sign-paired draws agree to rounding below the
    threshold and differ past it.  Returns the model's function and its
    analytic gradient."""
    def value(z):
        return float(coef @ (z * z) + cube * max(z[0] - threshold, 0.0) ** 3)

    def gradient(z):
        g = 2.0 * coef * z
        g[0] += 3.0 * cube * max(z[0] - threshold, 0.0) ** 2
        return g

    return value, gradient


def _all_draws(monkeypatch):
    """Hold every coordinate to all its draws: the plan of an estimator
    without pair counts."""
    import anomattr.gpa as gpa_mod

    monkeypatch.setattr(gpa_mod, "_PAIR_AGREEMENT", -np.inf)


class TestPairDraws:
    """The first gradient batch of a solve sends every draw; a coordinate
    whose sign-paired draws agree there sends one pair in the later ones,
    and a stop on such a batch is confirmed with the missing draws."""

    @pytest.mark.parametrize("cfg", [
        FINE_GRAD,  # the oracle flags: pairs differ by about (pi h)^2 / 6
        GradientEstimatorConfig(),  # the default flags: by about half the slope
        GradientEstimatorConfig(perturbation_std=1e-3, mc_samples=1),
        GradientEstimatorConfig(perturbation_std=1e-3, mc_samples=2),
        GradientEstimatorConfig(perturbation_std=1e-3, mc_samples=3),
    ], ids=["oracle", "default", "mc1", "mc2", "mc3"])
    @pytest.mark.parametrize("method", ["gpa", "lc"])
    def test_sinusoid_rows_keep_the_all_draws_plan(self, cfg, method, monkeypatch):
        rows = [single_point([0.5, 0.0], 1.0), single_point([0.3, 0.1], -0.5),
                TestSet(np.array([[0.5, 0.0], [0.45, 0.05], [0.55, -0.05]]),
                        np.array([1.0, 0.9, 1.1]), ["x1", "x2"])]

        def solve(ts):
            model = BatchRecorder(sinusoidal2d())
            if method == "lc":  # at the default flags lc gives up on the 3 rows
                with contextlib.suppress(DivergenceError):
                    delta = driven(model, lc)(ts.x, ts.y, ORACLE_HP, cfg, 1.0).delta_star
                    return model.sizes, model.call_count, delta, None
                return model.sizes, model.call_count, None, None
            res = driven(model, map_estimate)(ts, ORACLE_HP, cfg)
            assert res.one_pair_batches == res.confirmations == 0
            assert res.query_count == sum(model.sizes)
            return model.sizes, res.call_count, res.delta_star, res.iterations

        adaptive = [solve(ts) for ts in rows]
        _all_draws(monkeypatch)
        for (sizes, calls, delta, iterations), ts in zip(adaptive, rows):
            ref_sizes, ref_calls, ref_delta, ref_iterations = solve(ts)
            assert sizes == ref_sizes and calls == ref_calls
            assert iterations == ref_iterations
            np.testing.assert_array_equal(delta, ref_delta)

    @pytest.mark.parametrize("make", [linear_model, quadratic_model])
    def test_one_pair_gradient_is_the_first_pair_slope(self, make):
        coef, ts = _collective_problem()
        n, m = ts.n_test, ts.dimension
        model = BatchRecorder(make(coef))
        objective = CounterfactualObjective(ts.x, ts.y, 0.3, gaussian_loss(1.0), FINE_GRAD)
        grad_fn = driven(model, objective.grad_run)
        grad_fn(np.zeros(m))
        delta = np.linspace(-0.2, 0.2, m)
        grad, hess, _ = grad_fn(delta)
        assert model.sizes == [n * (1 + m * FINE_GRAD.mc_samples), n * (1 + 2 * m)]
        assert objective.one_pair_batches == 1
        first_pair = np.zeros((m, FINE_GRAD.mc_samples), dtype=bool)
        first_pair[:, :2] = True
        # the solver's batch fills a slope table, so the reference does too
        pairs = driven(make(coef), estimate_gradient)(
            ts.x + delta, FINE_GRAD, send=first_pair,
            slopes=np.zeros((n, m, FINE_GRAD.mc_samples)))
        resid = ts.y - make(coef).evaluate_batch(ts.x + delta)
        np.testing.assert_array_equal(grad, 0.3 * delta - resid @ pairs)
        np.testing.assert_array_equal(hess, pairs.T @ pairs + 0.3 * np.eye(m))

    def test_confirmation_resumes_a_solve_the_pairs_would_stop(self, monkeypatch):
        # the pairs agree at the start and the solve drops them; past the
        # threshold, where the solution lies, the first pair's slope of x_0
        # differs from the mean's, so the one-pair step goes below tol at
        # another point than the all-draws step does
        coef = np.array([1.0, 0.5, 2.0])
        value, gradient = _cubic_past_threshold(coef, 0.5, 1.0)
        xs = np.random.default_rng(0).uniform(-0.3, 0.3, (3, 3))
        ys = np.array([value(x + [0.9, 0.0, 0.0]) for x in xs])
        ts = TestSet(xs, ys, ["a", "b", "c"])
        cfg = GradientEstimatorConfig(perturbation_std=1e-2, seed=0)
        n, mc = ts.n_test, cfg.mc_samples
        rates = np.full(n, ORACLE_HP.b0)
        loss = student_t_loss(ORACLE_HP.a0, rates)

        def kkt(delta):
            rows = ts.x + delta
            slope = _student_t_slope(ORACLE_HP, rates)(ts.y - [value(r) for r in rows])
            grad = ORACLE_HP.eta * delta - slope @ np.array([gradient(r) for r in rows])
            lam = ORACLE_HP.eta * ORACLE_HP.nu
            return np.max(np.where(delta != 0.0, np.abs(grad + lam * np.sign(delta)),
                                   np.maximum(np.abs(grad) - lam, 0.0)))

        def solve(confirm):
            model = BatchRecorder(CallableModel(value, 3))
            objective = CounterfactualObjective(ts.x, ts.y, ORACLE_HP.eta, loss, cfg)
            state = driven(model, proximal_minimize)(
                objective.grad_run, objective.value_run,
                objective.confirm_run if confirm else no_confirm, 3, ORACLE_HP, cfg.seed)
            assert state.converged
            return state, model.sizes

        confirmed, sizes = solve(True)
        unconfirmed, _ = solve(False)
        _all_draws(monkeypatch)
        all_draws, _ = solve(True)
        assert confirmed.confirmations >= 1 and unconfirmed.confirmations == 0
        assert confirmed.iterations > unconfirmed.iterations
        # after a confirmation x_0 sends all draws and the others one pair
        assert n * (1 + 2 * 2 + mc) in sizes
        # measured: 1.05e-8, 3.19e-8 and 8.8e-9, the smoothing's bias
        assert kkt(confirmed.delta_star) <= 1.5 * kkt(all_draws.delta_star)
        assert kkt(unconfirmed.delta_star) > 2.0 * kkt(all_draws.delta_star)
        assert np.max(np.abs(confirmed.delta_star - all_draws.delta_star)) < 1e-7
        assert np.max(np.abs(unconfirmed.delta_star - all_draws.delta_star)) > 1e-7

    @pytest.mark.parametrize("problem", ["oracle-row", "collective"])
    def test_one_gradient_call_per_iteration(self, problem):
        # the confirmation is no grad_fn call, so a wrapper that counts
        # grad_fn calls counts the iterations whether or not pairs drop
        if problem == "oracle-row":
            model, ts, hp = sinusoidal2d(), single_point([0.5, 0.0], 1.0), ORACLE_HP
            loss = student_t_loss(hp.a0, np.full(1, hp.b0))
        else:
            coef, ts = _collective_problem()
            model, hp = quadratic_model(coef), GpaHyperParams.for_testset(ts.n_test)
            loss = student_t_loss(hp.a0, _answered_rates(ts, model, hp))
        objective = CounterfactualObjective(ts.x, ts.y, hp.eta, loss, FINE_GRAD)
        grads = []

        def counted_grad(delta):
            grads.append(1)
            return objective.grad_run(delta)

        state = driven(model, proximal_minimize)(
            counted_grad, objective.value_run, objective.confirm_run, ts.dimension, hp,
            FINE_GRAD.seed)
        assert state.converged and state.halvings == 0
        assert len(grads) == state.iterations
        assert state.confirmations == (problem == "collective")

    def test_confirm_needs_one_of_the_last_two_gradients(self):
        coef, ts = _collective_problem()
        model = quadratic_model(coef)
        objective = CounterfactualObjective(ts.x, ts.y, 0.3, gaussian_loss(1.0), FINE_GRAD)
        grad, confirm = driven(model, objective.grad_run), driven(model, objective.confirm_run)
        deltas = np.linspace(0.0, 0.3, 4)[:, None] * np.ones(ts.dimension)
        grad(deltas[0])
        assert confirm(deltas[0]) is None  # all draws at the start
        for delta in deltas[1:]:
            grad(delta)
        with pytest.raises(ValueError, match="last two"):
            confirm(deltas[1])
        calls = model.call_count
        assert confirm(deltas[2]) is not None
        assert confirm(deltas[2]) is None  # confirmed already
        assert model.call_count == calls + 1  # one batch of the missing draws


class TestNonFiniteObjective:
    def test_overflowing_residual_raises(self):
        # y = 1e200 is finite, but its square is not; numpy prints no
        # overflow warning on the way
        ts = TestSet(np.array([[0.1, 0.2], [0.3, 0.1]]), np.array([1e200, 1.0]),
                     ["a", "b"])
        hp = GpaHyperParams(b0=1.0)
        with warnings.catch_warnings(), pytest.raises(DivergenceError,
                                                      match="square overflows"):
            warnings.simplefilter("error")
            driven(linear_model([1.0, 1.0]), map_estimate)(ts, hp, FINE_GRAD)

    @pytest.mark.parametrize("method", ["gpa", "lc"])
    def test_overflowing_residual_difference_raises(self, method):
        # y and f(x) are finite, but y - f(x) is not
        ts = TestSet(np.array([[-1e308, 0.2]]), np.array([1.7e308]), ["a", "b"])
        model = linear_model([1.0, 1.0])
        with warnings.catch_warnings(), pytest.raises(DivergenceError,
                                                      match="square overflows"):
            warnings.simplefilter("error")
            if method == "gpa":
                driven(model, map_estimate)(ts, GpaHyperParams(b0=1.0), FINE_GRAD)
            else:
                driven(model, lc)(ts.x[0], ts.y[0], GpaHyperParams(),
                                  GradientEstimatorConfig(), 1.0)

    def test_infinite_start_raises(self):
        with pytest.raises(DivergenceError, match="inf"):
            minimize(lambda d: (d, np.eye(2), np.zeros((2, 2))),
                     lambda d: math.inf, dim=2,
                     eta=1.0, nu=0.5, max_iter=10, tol=1e-8, seed=0)

    def test_infinite_candidate_is_a_too_long_step(self):
        # the curvature 1.2 is below the true 2, so the first Newton step
        # lands near 0.42, past 0.3, where the objective is infinite;
        # halving brings it back and the solve goes on
        def value(d):
            return math.inf if d[0] > 0.3 else float((d[0] - 0.25) ** 2)

        state = minimize(lambda d: (2.0 * (d - 0.25), np.full((1, 1), 1.2),
                                    np.zeros((1, 1))),
                         value, dim=1, eta=1.0, nu=1e-6, max_iter=500,
                         tol=1e-10, seed=0)
        assert state.converged
        assert state.halvings >= 1
        assert np.all(np.isfinite(state.objective_trace))
        assert state.delta_star[0] == pytest.approx(0.25, abs=1e-5)

    @pytest.mark.parametrize("solve", [
        lambda m, ts: driven(m, map_estimate)(ts, GpaHyperParams(b0=1.0),
                                              GradientEstimatorConfig()),
        lambda m, ts: driven(m, lc)(ts.x, ts.y, GpaHyperParams(), GradientEstimatorConfig(),
                                    1.0),
    ], ids=["gpa", "lc"])
    def test_nonfinite_probe_output_stops_the_solve(self, solve):
        # NaN only at gradient probes that step x2 past 0.5: the first
        # gradient batch is refused, and no NaN input ever reaches the model
        seen = []

        def sine_or_nan(x):
            seen.append(x.copy())
            return np.nan if abs(x[1]) > 0.5 else 2 * np.cos(np.pi * x[0]) * np.cos(np.pi * x[1])

        with pytest.raises(NonFiniteModelOutput) as exc:
            solve(CallableModel(sine_or_nan, 2), single_point([0.5, 0.0], 1.0))
        assert np.isfinite(seen).all()
        probe = exc.value.x
        assert abs(probe[1]) > 0.5 and probe[0] == pytest.approx(0.5, abs=1e-3)
        assert any(np.array_equal(probe, x) for x in seen)


class TestDivergenceGuard:
    @staticmethod
    def _bad_grad(d):
        # a gradient pointing away from the objective's descent direction
        return -np.sign(d) - 1.0, np.eye(2), np.zeros((2, 2))

    @staticmethod
    def _value(d):
        return float(np.abs(d).sum())

    def test_inconsistent_gradient_raises(self):
        # no halving rescues the direction while the step stays above tol
        with pytest.raises(DivergenceError, match="--grad-std"):
            minimize(self._bad_grad, self._value, dim=2, eta=1.0, nu=0.5,
                     max_iter=100, tol=1e-12, seed=0)

    def test_step_halved_below_tol_converges(self):
        # the same direction, but halving takes the step under tol first:
        # the solve ends at its start, as converged
        calls = []
        state = minimize(self._bad_grad,
                         lambda d: calls.append(d) or self._value(d),
                         dim=2, eta=1.0, nu=0.5, max_iter=100, tol=1e-2,
                         seed=0)
        assert state.converged and state.iterations == 1
        assert state.halvings == len(calls) - 1 > 0
        np.testing.assert_array_equal(state.delta_star, calls[0])


def _reference_slices(delta_star, ts, model, hp, rates, grid):
    """The per-(variable, sample) loop: one model call per pair."""
    probs = []
    for k in range(ts.dimension):
        candidates = np.repeat(delta_star[None, :], len(grid), axis=0)
        candidates[:, k] = grid
        log_q = -0.5 * hp.eta * np.sum(candidates**2, axis=1)
        log_q -= hp.eta * hp.nu * np.sum(np.abs(candidates), axis=1)
        for t in range(ts.n_test):
            resid = ts.y[t] - model.evaluate_batch(ts.x[t] + candidates)
            log_q -= (2 * hp.a0 + 1) / 2.0 * np.log1p(resid**2 / (2 * rates[t]))
        q = np.exp(log_q - np.max(log_q))
        probs.append(q / q.sum())
    return probs


def _collective_problem(seed=1, n=6, m=5):
    """Rows of a quadratic model with a shared shift in the first two
    variables, like the benchmark's collective problems."""
    rng = np.random.default_rng(seed)
    coef = rng.uniform(0.5, 2.0, m)
    xs = rng.normal(size=(n, m))
    shift = np.zeros(m)
    shift[:2] = [0.8, -0.5]
    ys = ((xs + shift) ** 2) @ coef + 0.05 * rng.normal(size=n)
    return coef, TestSet(xs, ys, [f"x{i}" for i in range(m)])


# the gradient setting of a run whose first gradient batch, n (1 + m) rows,
# is smaller than a slice batch of one variable here: one variable per batch
ONE_DRAW = GradientEstimatorConfig(mc_samples=1)


class _RowLog(BatchRecorder):
    """A :class:`BatchRecorder` that keeps the rows of every batch."""

    def __init__(self, inner):
        super().__init__(inner)
        self.batches = []

    def _evaluate_batch(self, xs):
        self.batches.append(xs.copy())
        return super()._evaluate_batch(xs)


class TestScoreDistributions:
    def test_collective_plan_packs_whole_variables_up_to_the_solve_batch(self):
        coef, ts = _collective_problem()
        n, m = ts.n_test, ts.dimension
        mc = FINE_GRAD.mc_samples
        # 2 variables of n x 20 rows fit in the solve's first batch of n (1 +
        # m mc) rows, so m = 5 leaves a short last batch
        hp, grid_points = GpaHyperParams.for_testset(n, max_iter=50), 20
        model = BatchRecorder(quadratic_model(coef))
        res = driven(model, map_estimate)(ts, hp, FINE_GRAD)
        solver = model.sizes
        # the start sends the n rate rows and every draw, the later batches
        # one pair per coordinate, the confirmation the rest
        assert solver[0] == n + n * (1 + m * mc)
        assert solver[-1] == n * m * (mc - 2)
        assert all(size in (n, n * m * 2, n + n * m * 2) for size in solver[1:-1])
        per_variable = n * grid_points
        packed = _RowLog(quadratic_model(coef))
        grid, probs = driven(packed, score_distributions)(res.delta_star, ts, hp,
                                                          res.rates, FINE_GRAD, grid_points)
        assert packed.sizes == [2 * per_variable, 2 * per_variable, per_variable]
        assert max(packed.sizes) <= n * (1 + m * mc)
        # the queries of one variable per batch, end to end, and the same bits
        single = _RowLog(quadratic_model(coef))
        _, alone = driven(single, score_distributions)(res.delta_star, ts, hp, res.rates,
                                                       ONE_DRAW, grid_points)
        assert single.sizes == [per_variable] * m
        np.testing.assert_array_equal(np.vstack(packed.batches), np.vstack(single.batches))
        np.testing.assert_array_equal(probs, alone)
        expect = _reference_slices(res.delta_star, ts, quadratic_model(coef), hp,
                                   res.rates, grid)
        np.testing.assert_array_equal(probs, expect)

    @pytest.mark.parametrize("mc_samples, sizes", [(1, [1] * 5), (20, [5]), (10, [2, 2, 1])])
    def test_batch_holds_whole_variables_within_the_solve(self, mc_samples, sizes):
        # at least one variable per batch, at most all of them: the solve's
        # first batch holds 6 (1 + 5 mc_samples) rows, a variable 6 x 20
        coef, ts = _collective_problem()
        hp, grid_points = GpaHyperParams.for_testset(ts.n_test), 20
        model = BatchRecorder(quadratic_model(coef))
        delta_star = np.array([0.8, -0.5, 0.0, 0.1, 0.0])
        _, probs = driven(model, score_distributions)(
            delta_star, ts, hp, np.ones(ts.n_test), GradientEstimatorConfig(mc_samples=mc_samples),
            grid_points)
        assert model.sizes == [ts.n_test * grid_points * k for k in sizes]
        _, alone = driven(quadratic_model(coef), score_distributions)(
            delta_star, ts, hp, np.ones(ts.n_test), ONE_DRAW, grid_points)
        np.testing.assert_array_equal(probs, alone)

    def test_slices_peak_memory_within_the_solve(self):
        # at the benchmark's size the slices pack 3 variables, 6,000 rows, to
        # a batch in one buffer of 1.4 MiB: their traced peak, 1.55 MiB,
        # stays below the solve's 1.70 MiB, whose first batch of 6,040 rows
        # is 1.38 MiB, and two batches' rows alive at once would not
        coef, ts = _collective_problem(n=20, m=30)
        model, cfg = quadratic_model(coef), GradientEstimatorConfig()
        hp = GpaHyperParams.for_testset(ts.n_test)
        tracemalloc.start()
        try:
            res = driven(model, map_estimate)(ts, hp, cfg)
            solve_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            driven(model, score_distributions)(res.delta_star, ts, hp, res.rates, cfg, 100)
            slices_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert slices_peak <= solve_peak

    @pytest.mark.parametrize("held", [False, True], ids=["alone", "held rows"])
    def test_solve_peak_memory_near_its_first_batch(self, held):
        # the first batch (the rows of a lead run, the rate rows, then the
        # solve's 20 (1 + 30 x 10) gradient rows) is built in one array and
        # sent uncopied; a copy of it would double the peak
        coef, ts = _collective_problem(n=20, m=30)
        n, m = ts.n_test, ts.dimension
        cfg = GradientEstimatorConfig()
        model = quadratic_model(coef)
        lead = [ask(ts.x)] if held else []
        first = (n * held + n + n * (1 + m * cfg.mc_samples)) * m * 8
        tracemalloc.start()
        try:
            drive(model, [*lead, map_estimate(ts, GpaHyperParams.for_testset(n), cfg)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * first

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_slices_bit_identical_to_per_sample_loop(self, seed):
        coef, ts = _collective_problem(seed)
        model = quadratic_model(coef)
        hp = GpaHyperParams.for_testset(ts.n_test, max_iter=200)
        res = driven(model, map_estimate)(ts, hp, FINE_GRAD)
        grid, probs = driven(model, score_distributions)(res.delta_star, ts, hp, res.rates,
                                                         FINE_GRAD, 100)
        expect = _reference_slices(res.delta_star, ts, model, hp, res.rates, grid)
        np.testing.assert_array_equal(probs, expect)

    def test_partly_nonfinite_slice_names_sample(self):
        # only sample 1's slice along variable 0 reaches x0 < 0
        m = CallableModel(lambda x: np.nan if x[0] < 0 else x[0] + x[1], 2)
        ts = TestSet(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.5]),
                     ["a", "b"])
        hp = GpaHyperParams(b0=1.0, a0=1.0)
        with pytest.raises(NonFiniteModelOutput) as exc:
            driven(m, score_distributions)(np.array([0.5, 0.0]), ts, hp, np.full(2, hp.b0),
                                           FINE_GRAD, 100)
        # sample 1 at the grid's first point, -1.1 * 0.5
        assert exc.value.x[0] == pytest.approx(-0.55) and exc.value.x[1] == 0.0

    @pytest.mark.parametrize("column, named", [(0, [-0.55, 0.0]), (1, [1.5, -0.55])])
    def test_packed_nonfinite_slice_names_the_one_variable_input(self, column, named):
        # NaN where x[column] < 0: sample 1's slice along variable 0 reaches
        # x0 < 0, and both samples' slices along variable 1 reach x1 < 0;
        # packed, both variables share one batch
        m = CallableModel(lambda x: np.nan if x[column] < 0 else x[0] + x[1], 2)
        ts = TestSet(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.5]),
                     ["a", "b"])
        hp = GpaHyperParams(b0=1.0, a0=1.0)
        named_inputs = []
        # one variable per batch, then both: 2 (1 + 2 x 100) rows >= 2 x 2 x 100
        for cfg in (ONE_DRAW, GradientEstimatorConfig(mc_samples=100)):
            with pytest.raises(NonFiniteModelOutput) as exc:
                driven(m, score_distributions)(np.array([0.5, 0.0]), ts, hp,
                                               np.full(2, hp.b0), cfg, 100)
            named_inputs.append(exc.value.x)
        np.testing.assert_array_equal(named_inputs[0], named_inputs[1])
        np.testing.assert_allclose(named_inputs[1], named, rtol=1e-12)

    def test_array_like_rates(self):
        # a list of rates, as objective takes
        ts = TestSet(np.array([[0.3, -0.2]]), np.array([2.0]), ["a", "b"])
        model, hp = linear_model([1.0, 1.0]), GpaHyperParams(a0=1.0)
        delta_star = np.array([0.9, 0.0])
        slices = driven(model, score_distributions)
        grid, probs = slices(delta_star, ts, hp, [1.0], FINE_GRAD, 100)
        expect = slices(delta_star, ts, hp, np.array([1.0]), FINE_GRAD, 100)
        np.testing.assert_array_equal(grid, expect[0])
        np.testing.assert_array_equal(probs, expect[1])

    def test_normalization_and_mode(self, sin_model):
        ts = single_point([0.5, 0.0], 1.0)
        res = driven(sin_model, map_estimate)(ts, ORACLE_HP, FINE_GRAD)
        grid, probs = driven(sin_model, score_distributions)(res.delta_star, ts, ORACLE_HP,
                                                             res.rates, FINE_GRAD, 100)
        assert grid.shape == (100,)
        assert probs.shape == (2, 100)
        for row in probs:
            assert row.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(row >= 0)
        step = grid[1] - grid[0]
        mode = grid[np.argmax(probs[0])]
        assert abs(mode - res.delta_star[0]) <= step + 1e-12

    def test_ignored_variable_matches_prior_slice(self):
        m = linear_model([1.5, 0.0])
        ts = TestSet(np.array([[0.3, -0.2]]), np.array([2.0]), ["a", "b"])
        hp = GpaHyperParams(eta=0.1, nu=0.5, a0=1.0, c_b=10.0, tol=1e-8)
        res = driven(m, map_estimate)(ts, hp, FINE_GRAD)
        assert res.converged
        grid, probs = driven(m, score_distributions)(res.delta_star, ts, hp, res.rates,
                                                     FINE_GRAD, 100)
        prior = np.exp(-0.5 * hp.eta * grid**2 - hp.eta * hp.nu * np.abs(grid))
        prior /= prior.sum()
        np.testing.assert_allclose(probs[1], prior, atol=1e-8)
        # flat-peaked at zero: the grid has no exact zero, so the two central
        # points tie up to the tiny l2 curvature
        mode = grid[np.argmax(probs[1])]
        assert abs(mode) <= grid[1] - grid[0]

    def test_delta_max_scaling_and_fallback(self, sin_model):
        ts = single_point([0.5, 0.0], 1.0)
        hp = ORACLE_HP
        slices = driven(sin_model, score_distributions)
        grid, _ = slices(np.array([-1 / 6, 0.0]), ts, hp, np.full(1, hp.b0), FINE_GRAD, 100)
        # the grid reaches 1.1 times the largest |delta*_k|
        assert grid[-1] == pytest.approx(1.1 / 6)
        # fully normal sample: fall back to one standardized unit
        flat, _ = slices(np.zeros(2), single_point([0.5, 0.0], 0.0), hp, np.full(1, hp.b0),
                         FINE_GRAD, 100)
        assert flat[-1] == pytest.approx(1.0)

    def test_grid_points_setting(self, sin_model):
        ts = single_point([0.5, 0.0], 1.0)
        hp = GpaHyperParams(eta=1e-3, nu=1e-3, a0=1.0, b0=10.0)
        grid, probs = driven(sin_model, score_distributions)(
            np.array([-1 / 6, 0.0]), ts, hp, np.full(1, hp.b0), FINE_GRAD, 200)
        assert len(grid) == 200 and probs.shape == (2, 200)

    def test_too_few_grid_points_refused_before_the_first_ask(self):
        # a grid needs its two edges and a point between them; the run is
        # refused where it is built, so no row is asked for
        ts = single_point([0.5, 0.0], 1.0)
        with pytest.raises(ValueError, match="grid_points must be >= 3"):
            score_distributions(np.array([-1 / 6, 0.0]), ts, ORACLE_HP, np.full(1, 10.0),
                                FINE_GRAD, 2)

    def test_all_nonfinite_slice_names_variable(self):
        # the one non-finite policy: the input is named, as in map_estimate;
        # variable 0's slice comes first and starts at -1.1 * 0.1
        m = CallableModel(lambda x: np.nan, 2)
        ts = TestSet(np.array([[0.0, 0.0]]), np.array([1.0]), ["a", "b"])
        hp = GpaHyperParams(b0=1.0, a0=1.0)
        with pytest.raises(NonFiniteModelOutput, match=r"nan at input \[-0\.11\d*, 0\.0\]"):
            driven(m, score_distributions)(np.array([0.1, 0.0]), ts, hp, np.full(1, hp.b0),
                                           FINE_GRAD, 100)

    def test_overflowing_table_names_variable(self):
        # a rate of 1e-320 makes r^2 / (2 b) overflow at every grid point of
        # the first variable, so its slice cannot be normalized
        ts = TestSet(np.array([[0.0, 0.0]]), np.array([1.0]), ["a", "b"])
        with pytest.raises(ValueError, match="variable 'a' overflows"):
            driven(linear_model([1.0, 1.0]), score_distributions)(
                np.array([0.1, 0.0]), ts, GpaHyperParams(), np.array([1e-320]), FINE_GRAD, 100)


class TestHyperParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nu=0.0),
            dict(nu=1.5),
            dict(eta=0.0),
            dict(tol=0.0),
            dict(a0=0.0),
            dict(b_mode="nope"),
            dict(b0=-1.0),
            dict(c_b=0.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GpaHyperParams(**kwargs)

    def test_for_testset_scaling(self):
        hp = GpaHyperParams.for_testset(4)
        assert hp.eta == pytest.approx(0.4)
        assert hp.nu == 0.5 and hp.a0 == 5.5 and hp.c_b == 10.0
