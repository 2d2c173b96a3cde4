import contextlib
import json
import os
import sys
import textwrap
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomattr.models import (
    BuiltinModel,
    CallableModel,
    GradientEstimatorConfig,
    HttpModel,
    ModelHandle,
    NonFiniteModelOutput,
    SubprocessModel,
    TransportError,
    _step_draws,
    counted,
    drive,
    estimate_gradient,
    gradient_rows,
    linear_model,
    lockstep,
    quadratic_model,
    sinusoidal2d,
)
from anomattr.gpa import map_estimate
from conftest import (
    FINE_GRAD,
    ORACLE_HP,
    BatchRecorder,
    ask,
    driven,
    gradient_batch,
    serving,
    single_point,
)


class TestBuiltins:
    def test_sinusoidal_values(self):
        m = sinusoidal2d()
        assert m.evaluate([0.5, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert m.evaluate([0.0, 0.0]) == pytest.approx(2.0)

    def test_linear_value(self):
        m = linear_model([3.0, -1.0])
        assert m.evaluate([1.0, 2.0]) == pytest.approx(1.0)

    def test_quadratic_value(self):
        m = quadratic_model([1.0])
        assert m.evaluate([2.0]) == pytest.approx(4.0)

    @pytest.mark.parametrize("kind, coefficients", [
        ("sinusoidal2d", ()),
        ("linear", (3.0, -1.0 / 3.0)),
        ("quadratic", (0.1, 7.0)),
    ], ids=["sinusoidal2d", "linear", "quadratic"])
    def test_batch_matches_scalar(self, kind, coefficients):
        m = BuiltinModel(kind, coefficients)
        xs = np.array([[0.1, 0.2], [0.7, -0.3], [0.0, 0.0], [1 / 3, 2 / 7]])
        batch = m.evaluate_batch(xs)
        singles = [m.evaluate(x) for x in xs]
        # one formula: a single query is the one-row batch, bit for bit
        np.testing.assert_array_equal(singles, [m.evaluate_batch(x[None])[0] for x in xs])
        np.testing.assert_array_equal(batch, singles)

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_wide_batches_of_any_size_match_scalar(self, kind):
        # rows of 30 terms, whose sum a matrix product orders by batch size
        rng = np.random.default_rng(4)
        m = BuiltinModel(kind, rng.uniform(0.5, 1.5, 30))
        xs = rng.normal(size=(1_220, 30))
        batch = m.evaluate_batch(xs)
        np.testing.assert_array_equal(batch[:200], [m.evaluate(x) for x in xs[:200]])
        np.testing.assert_array_equal(m.evaluate_batch(xs[7:511]), batch[7:511])

    def test_sinusoid_batch_is_its_formula_in_two_arrays(self):
        # evaluated in place, bit for bit the formula, holding two arrays of
        # the batch's length at its peak (the formula's temporaries held three)
        xs = np.random.default_rng(6).normal(size=(16_000, 2))
        xs[::7] = -0.0
        model = sinusoidal2d()
        model.evaluate_batch(xs[:2])
        tracemalloc.start()
        try:
            ys = model.evaluate_batch(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expect = 2.0 * np.cos(np.pi * xs[:, 0]) * np.cos(np.pi * xs[:, 1])
        assert ys.tobytes() == expect.tobytes()
        assert peak < 2.5 * ys.nbytes

    @pytest.mark.parametrize("rows", [16_000, 19_338, 35_338])
    def test_sinusoid_batch_holds_one_array_beside_a_block(self, rows):
        # the second factor goes in blocks of 8,192 numbers, so beyond the
        # answers only one block (64 KiB) and array headers are alive; 35,338
        # rows is the first step of a seed-1 benchmark compare (19,338 at
        # half its path budget)
        xs = np.random.default_rng(rows).normal(size=(rows, 2))
        model = sinusoidal2d()
        model.evaluate_batch(xs[:2])
        tracemalloc.start()
        try:
            ys = model.evaluate_batch(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expect = 2.0 * np.cos(np.pi * xs[:, 0]) * np.cos(np.pi * xs[:, 1])
        assert ys.tobytes() == expect.tobytes()
        assert peak <= ys.nbytes + 64 * 1024 + 4096

    def test_query_count(self):
        m = sinusoidal2d()
        m.evaluate([0.0, 0.0])
        assert m.query_count == 1
        m.evaluate_batch(np.zeros((5, 2)))
        assert m.query_count == 6

    def test_dimension_mismatch(self):
        m = sinusoidal2d()
        with pytest.raises(ValueError):
            m.evaluate([1.0, 2.0, 3.0])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BuiltinModel("cubic")
        with pytest.raises(ValueError):
            BuiltinModel("linear")
        with pytest.raises(ValueError):
            BuiltinModel("sinusoidal2d", (1.0,))


class TestGradientEstimator:
    def test_linear_exact(self):
        # the slope of a line is exact for every step size and seed
        coef = np.array([3.0, -1.0, 0.25])
        m = linear_model(coef)
        for seed in (0, 1, 99):
            cfg = GradientEstimatorConfig(perturbation_std=1.0, mc_samples=10, seed=seed)
            grad = driven(m, estimate_gradient)([0.4, -2.0, 7.0], cfg)
            np.testing.assert_allclose(grad, coef, atol=1e-12)

    def test_quadratic_smoothed_slope(self):
        # independent oracle: E[(f(x+h)-f(x))/h] = E[2x + h] = 2x = 4 at x=2
        m = quadratic_model([1.0])
        cfg = GradientEstimatorConfig(perturbation_std=1.0, mc_samples=100_000, seed=3)
        grad = driven(m, estimate_gradient)([2.0], cfg)
        slopes_std = 1.0  # std of h contributes c*h with c=1
        stderr = slopes_std / np.sqrt(cfg.mc_samples)
        assert abs(grad[0] - 4.0) <= max(3 * stderr, 1e-9)

    def test_sinusoidal_gradient_matches_analytic(self, sin_model):
        cfg = GradientEstimatorConfig(perturbation_std=1e-3, mc_samples=1000, seed=0)
        grad = driven(sin_model, estimate_gradient)([0.5, 0.0], cfg)
        np.testing.assert_allclose(grad, [-2 * np.pi, 0.0], atol=1e-2)

    def test_deterministic(self, sin_model):
        a = driven(sin_model, estimate_gradient)([0.3, 0.1], FINE_GRAD)
        b = driven(sin_model, estimate_gradient)([0.3, 0.1], FINE_GRAD)
        np.testing.assert_array_equal(a, b)

    @given(
        dim=st.integers(min_value=1, max_value=5),
        mc=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_query_accounting(self, dim, mc, seed):
        m = CallableModel(lambda x: float(np.sum(x)), dim)
        cfg = GradientEstimatorConfig(perturbation_std=0.5, mc_samples=mc, seed=seed)
        driven(m, estimate_gradient)(np.zeros(dim), cfg)
        # the point itself goes only for the unpaired last draw of an odd mc
        assert m.query_count == dim * mc + mc % 2

    def test_f0_reuse_skips_baseline(self):
        m = linear_model([1.0, 1.0])
        f0 = m.evaluate([0.0, 0.0])
        before = m.query_count
        driven(m, estimate_gradient)([0.0, 0.0], FINE_GRAD, f0=f0)
        assert m.query_count - before == 2 * FINE_GRAD.mc_samples

    def test_plain_call_sends_only_the_displaced_points(self):
        # no caller asks for the values at the points and every draw has its
        # partner, so the k m mc displaced points go and no point
        x = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.0]])
        m = BatchRecorder(sinusoidal2d())
        driven(m, estimate_gradient)(x, FINE_GRAD)
        _, disp = _step_draws(FINE_GRAD.seed, FINE_GRAD.perturbation_std,
                              FINE_GRAD.mc_samples, 2)
        assert m.sizes == [len(x) * len(disp)]
        np.testing.assert_array_equal(m.last, (x[:, None, :] + disp).reshape(-1, 2))

    @pytest.mark.parametrize("ask", ["values", "slopes", "mc=1", "mc=3",
                                     "mc=3 first pair", "split pair", "whole pairs"])
    def test_points_go_first_where_their_values_are_used(self, ask):
        x = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.0]])
        k = len(x)
        mc = {"mc=1": 1, "mc=3": 3, "mc=3 first pair": 3}.get(ask, FINE_GRAD.mc_samples)
        cfg = GradientEstimatorConfig(FINE_GRAD.perturbation_std, mc, FINE_GRAD.seed)
        kwargs, draws = {}, 2 * mc
        if ask == "values":
            kwargs["values"] = np.empty(k)
        elif ask == "slopes":
            kwargs["slopes"] = np.zeros((k, 2, mc))
        elif ask == "mc=3 first pair":
            # an odd mc sends the points even where its last draw is not sent
            kwargs["send"] = np.ones((2, mc), dtype=bool)
            kwargs["send"][:, 2] = False
            draws -= 2
        elif ask == "split pair":
            kwargs["send"] = np.ones((2, mc), dtype=bool)
            kwargs["send"][1, 3] = False  # draw 2 of x2 goes without its partner
            draws -= 1
        elif ask == "whole pairs":
            # a mask sends the points, even one that sends whole pairs
            kwargs["send"] = np.zeros((2, mc), dtype=bool)
            kwargs["send"][:, 4:8] = True
            draws = 2 * 4
        m = BatchRecorder(sinusoidal2d())
        driven(m, estimate_gradient)(x, cfg, **kwargs)
        assert m.sizes == [k + k * draws]
        np.testing.assert_array_equal(m.last[:k], x)

    @pytest.mark.parametrize("model", [linear_model([3.0, -1.0, 0.25]),
                                       quadratic_model([1.0, 0.5, 2.0]), sinusoidal2d()],
                             ids=["linear", "quadratic", "sinusoid"])
    @pytest.mark.parametrize("cfg", [FINE_GRAD, GradientEstimatorConfig()],
                             ids=["fine", "default"])
    def test_central_differences_are_the_one_sided_mean(self, model, cfg):
        # the plain estimate against the mean of [f(x + h e_i) - f(x)] / h
        # over every draw, looped over coordinates and draws
        dim, mc = model.dimension, cfg.mc_samples
        x = np.random.default_rng(5).uniform(0.15, 0.35, (6, dim))
        h, _ = _step_draws(cfg.seed, cfg.perturbation_std, mc, dim)
        f0 = model.evaluate_batch(x)
        one_sided = np.zeros_like(x)
        for i in range(dim):
            for j in range(mc):
                moved = x.copy()
                moved[:, i] += h[i, j]
                one_sided[:, i] += (model.evaluate_batch(moved) - f0) / h[i, j]
        np.testing.assert_allclose(driven(model, estimate_gradient)(x, cfg), one_sided / mc,
                                   rtol=1e-12, atol=0)

    def test_one_batch_centre_rows_first(self):
        # without f0 the points ride first in the displacement batch; with
        # f0 only the displaced points go
        x = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.0]])
        k, rows = len(x), len(x) * 2 * FINE_GRAD.mc_samples
        m = BatchRecorder(sinusoidal2d())
        values = np.empty(k)
        grad = driven(m, estimate_gradient)(x, FINE_GRAD, values=values)
        assert m.sizes == [k + rows]
        np.testing.assert_array_equal(m.last[:k], x)
        np.testing.assert_array_equal(values, sinusoidal2d().evaluate_batch(x))
        again = driven(m, estimate_gradient)(x, FINE_GRAD, f0=values)
        assert m.sizes == [k + rows, rows]
        np.testing.assert_array_equal(again, grad)

    @pytest.mark.parametrize("model", [linear_model([3.0, -1.0, 0.25, 2.0]),
                                       quadratic_model([1.0, 0.5, 2.0, 1.5])],
                             ids=["linear", "quadratic"])
    def test_one_pair_coordinates_take_their_first_pair(self, model):
        # coordinates 0 and 2 send draws 0 and 1, 1 and 3 every draw: one
        # batch of k (1 + 2 * 2 + mc * 2) rows, the points first since the
        # call asks for their values.  A one-pair coordinate's estimate is
        # the first pair's slope and an every-draw one the full estimate, bit
        # for bit
        x = np.random.default_rng(2).normal(size=(3, 4))
        k, mc = len(x), FINE_GRAD.mc_samples
        recorder = BatchRecorder(model)
        send = np.ones((4, mc), dtype=bool)
        send[[0, 2], 2:] = False
        grad = driven(recorder, estimate_gradient)(x, FINE_GRAD, values=np.empty(k), send=send)
        assert recorder.sizes == [k * (1 + 2 * 2 + mc * 2)]
        full = driven(model, estimate_gradient)(x, FINE_GRAD, values=np.empty(k))
        np.testing.assert_array_equal(grad[:, [1, 3]], full[:, [1, 3]])
        h, _ = _step_draws(FINE_GRAD.seed, FINE_GRAD.perturbation_std, mc, 4)
        f0 = model.evaluate_batch(x)
        for i in (0, 2):
            up, down = x.copy(), x.copy()
            up[:, i] += h[i, 0]
            down[:, i] += h[i, 1]
            pair = ((model.evaluate_batch(up) - f0) / h[i, 0]
                    + (model.evaluate_batch(down) - f0) / h[i, 1]) / 2
            np.testing.assert_array_equal(grad[:, i], pair)

    def test_skipped_draws_complete_to_the_full_estimate(self):
        # the mask's complement sent later into the first call's table, with
        # its values, gives the estimate of one call that fills a table bit
        # for bit; coordinate 1 sent every draw at first and sends none then
        model = quadratic_model([1.0, 0.5, 2.0])
        x = np.random.default_rng(3).normal(size=(4, 3))
        k, mc = len(x), FINE_GRAD.mc_samples
        recorder = BatchRecorder(model)
        slopes, values = np.zeros((k, 3, mc)), np.empty(k)
        send = np.ones((3, mc), dtype=bool)
        send[[0, 2], 2:] = False
        gradient = driven(recorder, estimate_gradient)
        gradient(x, FINE_GRAD, values=values, slopes=slopes, send=send)
        rest = gradient(x, FINE_GRAD, f0=values, slopes=slopes, send=~send)
        assert recorder.sizes == [k * (1 + 2 + mc + 2), k * 2 * (mc - 2)]
        full = driven(model, estimate_gradient)(x, FINE_GRAD, slopes=np.zeros((k, 3, mc)))
        np.testing.assert_array_equal(slopes.sum(axis=2) / mc, full)
        # a coordinate that sends no draw takes the table's mean
        np.testing.assert_array_equal(rest[:, 1], full[:, 1])

    def test_draw_counts_validated(self, sin_model):
        x = [0.1, 0.2]
        gradient = driven(sin_model, estimate_gradient)
        for shape in ((2, 9), (1, 10), (20,)):
            with pytest.raises(ValueError, match="mask"):
                gradient(x, FINE_GRAD, send=np.ones(shape, dtype=bool))
        none_for_x2 = np.ones((2, 10), dtype=bool)
        none_for_x2[1] = False
        before = sin_model.query_count
        # raised before the batch goes, where the mean would be 0 / 0
        with pytest.raises(ValueError, match="no draw"):
            gradient(x, FINE_GRAD, send=none_for_x2)
        assert sin_model.query_count == before

    def test_nonfinite_value_at_the_point_names_it(self):
        x = np.array([0.25, -0.5])
        m = CallableModel(lambda p: np.nan if np.array_equal(p, x) else 0.0, 2)
        with pytest.raises(NonFiniteModelOutput) as exc:
            driven(m, estimate_gradient)(x, FINE_GRAD, values=np.empty(1))
        np.testing.assert_array_equal(exc.value.x, x)
        assert m.query_count == 1 + 2 * FINE_GRAD.mc_samples and m.call_count == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GradientEstimatorConfig(perturbation_std=0.0)
        with pytest.raises(ValueError):
            GradientEstimatorConfig(mc_samples=0)

    def test_nonfinite_input_rejected(self, sin_model):
        with pytest.raises(ValueError):
            driven(sin_model, estimate_gradient)([np.nan, 0.0], FINE_GRAD)


class TestGradientRows:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("m", [1, 2, 30])
    @pytest.mark.parametrize("mc", [3, 4])
    @pytest.mark.parametrize("values", [False, True])
    def test_counts_the_rows_the_plan_builds(self, k, m, mc, values):
        cfg, x = GradientEstimatorConfig(mc_samples=mc), np.zeros((k, m))
        # a values buffer sends the points, known values do not
        given = {"values": np.empty(k)} if values else {"f0": np.zeros(k)}
        assert gradient_rows(k, m, cfg, values) == len(gradient_batch(x, cfg, **given)[0])

    @pytest.mark.parametrize("mc", [3, 4])
    def test_plain_call_sends_the_points_at_an_odd_count(self, mc):
        cfg, x = GradientEstimatorConfig(mc_samples=mc), np.zeros((3, 2))
        assert gradient_rows(3, 2, cfg, mc % 2 == 1) == len(gradient_batch(x, cfg)[0])

    def test_counts_the_draws_a_mask_sends(self):
        cfg, x = GradientEstimatorConfig(mc_samples=4), np.zeros((3, 2))
        send = np.array([[True, True, False, False], [True, False, True, True]])
        rows = gradient_batch(x, cfg, f0=np.zeros(3), send=send)[0]
        assert gradient_rows(3, 2, cfg, False, send) == len(rows) == 3 * 5


def _broadcast_rows(x, cfg, send=None, centre=False):
    """The displaced rows of ``gradient_batch`` by the one broadcast
    ``x[:, None, :] + D[sent]``, with the points in front when ``centre``."""
    m = x.shape[1]
    _, disp = _step_draws(cfg.seed, cfg.perturbation_std, cfg.mc_samples, m)
    moves = disp if send is None else disp[np.flatnonzero(send)]
    rows = (x[:, None, :] + moves).reshape(-1, m)
    return np.concatenate([x, rows]) if centre else rows


class TestDisplacedRowBuild:
    @pytest.mark.parametrize("k", [1, 20, 800])
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 30])
    @pytest.mark.parametrize("draws", ["every", "one pair", "the rest", "odd count"])
    def test_rows_are_the_broadcast_bit_for_bit(self, m, k, draws):
        # short rows are built in blocks of whole points, m = 30 by the
        # broadcast; the inputs hold -0.0, which meets the moves' +0.0
        mc = 3 if draws == "odd count" else 4
        cfg = GradientEstimatorConfig(perturbation_std=0.5, mc_samples=mc, seed=7)
        x = np.random.default_rng(m * k).normal(size=(k, m))
        x[::3, 0] = -0.0
        send = None
        if draws in ("one pair", "the rest"):
            send = np.zeros((m, mc), dtype=bool)
            send[:, :2] = True
            if draws == "the rest":
                send = ~send
        points, central, _, _ = gradient_batch(x, cfg, send=send)
        expect = _broadcast_rows(x, cfg, send, centre=not central)
        assert points.tobytes() == expect.tobytes()

    def test_rows_built_in_the_array_the_driver_lends(self):
        kept = _Kept(2)
        x = np.random.default_rng(3).normal(size=(300, 2))
        x[0] = -0.0
        drive(kept, [ask(POINTS[:1]), estimate_gradient(x, FINE_GRAD)])
        [sent] = kept.batches
        np.testing.assert_array_equal(sent[:1], POINTS[:1])
        assert sent[1:].tobytes() == _broadcast_rows(x, FINE_GRAD).tobytes()

    def test_eig_shaped_build_allocates_one_block_beyond_the_batch(self):
        # 800 path points at m = 2 with every one of 10 draws: 16,000 rows.
        # Beyond the batch only one block of at most 64 KiB is alive, and
        # the headers of the arrays and views (about 2 KiB); numpy's
        # broadcast buffered two operands in 64 KiB each, 130 KiB beyond it
        x = np.random.default_rng(0).normal(size=(800, 2))
        gradient_batch(x, FINE_GRAD)  # the draws are cached, not traced
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            points, _, _, _ = gradient_batch(x, FINE_GRAD)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert points.nbytes == 16_000 * 2 * 8
        assert peak <= points.nbytes + 64 * 1024 + 4096

    def test_eig_shaped_reduction_allocates_one_block_beyond_the_estimate(self):
        # 1,600 path points at m = 2, 32,000 answers: their 16,000 central
        # differences are taken at most 64 KiB at a time, so beyond the
        # estimate only one block is alive, and the 64 KiB buffer of numpy's
        # broadcast division (two arrays of 128 KB more when the differences
        # were taken whole)
        x = np.random.default_rng(0).normal(size=(1_600, 2))
        answers = sinusoidal2d().evaluate_batch(gradient_batch(x, FINE_GRAD)[0])
        run = estimate_gradient(x, FINE_GRAD)
        next(run)
        tracemalloc.start()
        try:
            with pytest.raises(StopIteration) as stop:
                run.send(answers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grads = stop.value.value
        assert grads.nbytes == 1_600 * 2 * 8
        assert peak <= grads.nbytes + 2 * 64 * 1024 + 4096

    @pytest.mark.parametrize("k", [1, 20, 800])
    @pytest.mark.parametrize("model", [sinusoidal2d(), quadratic_model([1.0, 0.5, 2.0])],
                             ids=["sinusoid", "quadratic"])
    def test_central_estimate_is_the_table_formula(self, model, k):
        # with every draw sent each pair has its own slot, so the estimate
        # is the pair-slot table's mean
        m, mc = model.dimension, FINE_GRAD.mc_samples
        x = np.random.default_rng(k).uniform(-0.4, 0.4, (k, m))
        grads = driven(model, estimate_gradient)(x, FINE_GRAD)
        h, _ = _step_draws(FINE_GRAD.seed, FINE_GRAD.perturbation_std, mc, m)
        pairs = model.evaluate_batch(gradient_batch(x, FINE_GRAD)[0]).reshape(k, -1, 2)
        table = np.zeros((k, m, mc // 2))
        slots = np.arange(m * mc)[::2] // 2
        table.reshape(k, -1)[:, slots] = (pairs[..., 0] - pairs[..., 1]) / (2.0 * h.ravel()[::2])
        assert grads.tobytes() == (table.sum(axis=2) / (mc // 2)).tobytes()


class _Kept(ModelHandle):
    """Answers each row's sum and keeps every batch it gets, uncopied."""

    def __init__(self, dimension):
        super().__init__(dimension)
        self.batches = []

    def _evaluate_batch(self, xs):
        self.batches.append(xs)
        return xs.sum(axis=1)


def _steps(rows, seen):
    """A run that asks for each of ``rows`` in turn, keeps the answers in
    ``seen`` as they come, and returns how many steps it took."""
    for step in rows:
        seen.append((yield step))
    return len(rows)


class TestDrive:
    @pytest.mark.parametrize("lead", [1, 2])
    def test_one_step_builds_every_run_in_one_lent_array(self, lead):
        # the one-step runs' rows, then a run's rows built by its fill, go
        # in one array, in the order of the runs
        kept, answered = _Kept(2), []
        filled = ((2, 2), lambda out: out.__setitem__(..., POINTS[2:]))
        runs = [_steps([POINTS[i:i + 1]], answered) for i in range(lead)]
        results = drive(kept, [*runs, _steps([filled], answered)])
        [sent] = kept.batches
        np.testing.assert_array_equal(sent, np.vstack([POINTS[:lead], POINTS[2:]]))
        np.testing.assert_array_equal(np.concatenate(answered), sent.sum(axis=1))
        assert results == [1] * (lead + 1)
        assert (kept.query_count, kept.call_count) == (2 + lead, 1)

    def test_a_lone_array_goes_as_it_is(self):
        kept = _Kept(2)
        rows = POINTS.copy()
        assert drive(kept, [ask(rows)])[0].tolist() == rows.sum(axis=1).tolist()
        assert kept.batches[0] is rows

    def test_calls_are_the_longest_run_s_steps(self):
        # runs of 1, 3 and 2 steps: three calls, the first with every run's
        # rows in list order, the last with the 3-step run's alone
        kept, seen = _Kept(2), [[], [], []]
        runs = [_steps([POINTS[:1]], seen[0]),
                _steps([POINTS[1:2], POINTS[2:4], POINTS[:1]], seen[1]),
                _steps([POINTS[3:], POINTS[:2]], seen[2])]
        assert drive(kept, runs) == [1, 3, 2]
        assert [len(b) for b in kept.batches] == [3, 4, 1]
        np.testing.assert_array_equal(kept.batches[0], POINTS[[0, 1, 3]])
        np.testing.assert_array_equal(kept.batches[1], POINTS[[2, 3, 0, 1]])
        assert [len(a) for answers in seen for a in answers] == [1, 1, 2, 1, 1, 2]

    def test_answers_go_back_in_batch_order(self):
        # the first run has its answers, and ends, before the second reads its own
        order = []

        def first():
            yield POINTS[:1]
            order.append("first ends")

        def second():
            yield POINTS[1:2]
            order.append("second reads")

        drive(_Kept(2), [first(), second()])
        assert order == ["first ends", "second reads"]

    def test_nonfinite_named_at_the_first_input_in_batch_order(self):
        # rows 2 and 0 answer NaN; row 2 comes first in the step's batch
        model = CallableModel(lambda x: np.nan if x[0] > 0.75 else 0.0, 2)
        with pytest.raises(NonFiniteModelOutput) as raised:
            drive(model, [ask(POINTS[3:]), ask(POINTS[2:3]), ask(POINTS[:1])])
        np.testing.assert_array_equal(raised.value.x, POINTS[2])

    def test_a_run_s_error_ends_the_drive(self):
        def failing():
            yield POINTS[:1]
            raise ArithmeticError("run failed")

        kept = _Kept(2)
        with pytest.raises(ArithmeticError, match="run failed"):
            drive(kept, [failing(), _steps([POINTS[1:2]] * 3, [])])
        assert len(kept.batches) == 1

    @pytest.mark.parametrize("rows", [np.zeros((2, 3)), ((2, 1), lambda out: None)],
                             ids=["array", "fill"])
    def test_rows_of_another_width_are_refused_before_the_call(self, rows):
        # the other run's rows are fine; the step sends nothing
        kept = _Kept(2)
        with pytest.raises(ValueError, match=r"rows of \d inputs != model dimension 2"):
            drive(kept, [ask(POINTS[:1]), ask(rows)])
        assert kept.batches == [] and kept.query_count == 0


    def test_a_nested_lockstep_steps_as_its_runs_would(self):
        # drive(m, [a, lockstep([b, c]), d]) sends drive(m, [a, b, c, d])'s
        # batches, hands out its answers and returns its results, nested: b
        # ends after step 1, as the rates do, and c asks by a fill
        fill = ((2, 2), lambda out: out.__setitem__(..., POINTS[2:]))

        def runs(seen):
            return [_steps([POINTS[:1], POINTS[1:3]], seen[0]), _steps([POINTS[3:]], seen[1]),
                    _steps([fill, POINTS[:2], fill], seen[2]),
                    _steps([POINTS[1:2], POINTS[:1]], seen[3])]

        flat, nested = _Kept(2), _Kept(2)
        seen_flat, seen_nested = [[], [], [], []], [[], [], [], []]
        a, b, c, d = runs(seen_nested)
        assert drive(nested, [a, lockstep([b, c]), d]) == [2, [1, 3], 2]
        assert drive(flat, runs(seen_flat)) == [2, 1, 3, 2]
        assert [len(x) for x in flat.batches] == [5, 5, 2]
        assert [x.tolist() for x in nested.batches] == [x.tolist() for x in flat.batches]
        assert ([[x.tolist() for x in answers] for answers in seen_nested]
                == [[x.tolist() for x in answers] for answers in seen_flat])

    @pytest.mark.parametrize("rows", [np.zeros((2, 3)), ((2, 1), lambda out: None)],
                             ids=["array", "fill"])
    def test_rows_of_another_width_in_a_nested_lockstep_are_refused(self, rows):
        kept = _Kept(2)
        with pytest.raises(ValueError, match=r"rows of \d inputs != model dimension 2"):
            drive(kept, [ask(POINTS[:1]), lockstep([ask(POINTS[1:2]), ask(rows)])])
        assert kept.batches == [] and kept.query_count == 0

ECHO_MODEL = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        x = json.loads(line)["x"]
        print(json.dumps({"y": 3.0 * x[0] - 1.0 * x[1]}))
        sys.stdout.flush()
    """
)

# The same surface, also answering the "xs" batch line.  With "--short" every
# batch after the first comes back one value short.
BATCH_MODEL = textwrap.dedent(
    """
    import json, sys
    batches = 0
    for line in sys.stdin:
        doc = json.loads(line)
        if "xs" in doc:
            batches += 1
            ys = [3.0 * x[0] - 1.0 * x[1] for x in doc["xs"]]
            if "--short" in sys.argv and batches > 1:
                ys = ys[:-1]
            reply = {"ys": ys}
        else:
            reply = {"y": 3.0 * doc["x"][0] - 1.0 * doc["x"][1]}
        print(json.dumps(reply))
        sys.stdout.flush()
    """
)

# Prepended to a child: appends every request line to the file named by the
# child's first argument, so a test can count what crossed the pipe.
LOG_REQUESTS = textwrap.dedent(
    """
    import sys
    _log = open(sys.argv[1], "a")
    def _logged(lines):
        for line in lines:
            _log.write(line)
            _log.flush()
            yield line
    sys.stdin = _logged(sys.stdin)
    """
)


def _child(directory, source, *args):
    """A SubprocessModel of dimension 2 running ``source`` with its requests
    logged; returns the model and a function reading the logged requests."""
    script = directory / "child.py"
    script.write_text(LOG_REQUESTS + source)
    log = directory / "requests.jsonl"
    m = SubprocessModel([sys.executable, str(script), str(log), *args], dimension=2)

    def requests():
        return [json.loads(line) for line in log.read_text().splitlines()]

    return m, requests


POINTS = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0], [-3.0, 1.5]])


class TestCounted:
    def test_counts_each_ask_form_and_only_its_own_rows(self):
        def run():
            first = yield np.ones((3, 2))
            second = yield ((4, 2), lambda out: out.fill(2.0))
            return first.sum() + second.sum()

        model = _Kept(2)
        (result, rows, steps), _ = drive(model, [counted(run()), ask(np.zeros((5, 2)))])
        assert (result, rows, steps) == (3 * 2.0 + 4 * 4.0, 7, 2)
        assert (model.query_count, model.call_count) == (12, 2)

    def test_run_that_asks_nothing(self):
        def run():
            yield from ()
            return "done"

        model = linear_model([1.0])
        assert drive(model, [counted(run())]) == [("done", 0, 0)]
        assert model.call_count == 0


# The sinusoidal surface of the builtin model, answering both lines.
SINE_BATCH_MODEL = textwrap.dedent(
    """
    import json, math, sys
    def f(x):
        return 2.0 * math.cos(math.pi * x[0]) * math.cos(math.pi * x[1])
    for line in sys.stdin:
        doc = json.loads(line)
        reply = {"ys": [f(x) for x in doc["xs"]]} if "xs" in doc else {"y": f(doc["x"])}
        print(json.dumps(reply))
        sys.stdout.flush()
    """
)


class TestSubprocessAdapter:
    def test_roundtrip_and_restart(self, tmp_path):
        script = tmp_path / "model.py"
        script.write_text(ECHO_MODEL)
        m = SubprocessModel([sys.executable, str(script)], dimension=2)
        try:
            assert m.evaluate([1.0, 2.0]) == pytest.approx(1.0)
            assert m.query_count == 1
            # child dies -> adapter restarts transparently on the next call
            m._proc.kill()
            m._proc.wait()
            assert m.evaluate([2.0, 0.0]) == pytest.approx(6.0)
        finally:
            m.close()

    def test_malformed_response(self, tmp_path):
        script = tmp_path / "bad.py"
        script.write_text(
            "import sys\nfor line in sys.stdin:\n    print('nope'); sys.stdout.flush()\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=1)
        try:
            with pytest.raises(TransportError):
                m.evaluate([1.0])
        finally:
            m.close()

    def test_dead_command(self):
        m = SubprocessModel([sys.executable, "-c", "pass"], dimension=1)
        try:
            with pytest.raises(TransportError):
                m.evaluate([1.0])
        finally:
            m.close()

    def test_batch_is_one_line_and_cached_rows_are_not_resent(self, tmp_path):
        m, requests = _child(tmp_path, BATCH_MODEL)
        try:
            first = m.evaluate(POINTS[0])  # one x line on a fresh child, no probe
            ys = m.evaluate_batch(POINTS)
            again = m.evaluate_batch(POINTS[::-1])
        finally:
            m.close()
        np.testing.assert_array_equal(ys, 3.0 * POINTS[:, 0] - POINTS[:, 1])
        np.testing.assert_array_equal(again, ys[::-1])
        assert ys[0] == first
        assert m.query_count == 9
        assert requests() == [{"x": [1.0, 2.0]}, {"xs": POINTS[1:].tolist()}]

    def test_lone_uncached_row_after_the_probe_sends_x(self, tmp_path):
        m, requests = _child(tmp_path, BATCH_MODEL)
        try:
            m.evaluate_batch(POINTS[:2])
            ys = m.evaluate_batch(POINTS[:3])
        finally:
            m.close()
        np.testing.assert_array_equal(ys, 3.0 * POINTS[:3, 0] - POINTS[:3, 1])
        assert requests() == [{"xs": POINTS[:2].tolist()}, {"x": POINTS[2].tolist()}]
        assert (m.query_count, m.call_count) == (5, 2)

    def test_repeated_row_is_one_x_line(self, tmp_path):
        m, requests = _child(tmp_path, BATCH_MODEL)
        try:
            ys = m.evaluate_batch(POINTS[[1, 1]])
        finally:
            m.close()
        np.testing.assert_array_equal(ys, [2.5, 2.5])
        assert requests() == [{"x": POINTS[1].tolist()}]
        assert (m.query_count, m.call_count) == (2, 1)

    def test_single_point_child_falls_back_after_one_probe(self, tmp_path):
        (tmp_path / "batch").mkdir()
        batching, _ = _child(tmp_path / "batch", BATCH_MODEL)
        echo, requests = _child(tmp_path, ECHO_MODEL)
        try:
            want = [batching.evaluate_batch(POINTS), batching.evaluate_batch(POINTS + 1.0)]
            got = [echo.evaluate_batch(POINTS), echo.evaluate_batch(POINTS + 1.0)]
        finally:
            batching.close()
            echo.close()
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert echo.query_count == batching.query_count == 8
        sent = requests()
        # the probe line killed the child; each point then went on its own
        assert [list(r) for r in sent] == [["xs"]] + [["x"]] * 8

    def test_probe_crash_leaves_stderr_quiet(self, tmp_path, capfd):
        # ECHO_MODEL dies with a KeyError traceback on the "xs" probe line
        echo, _ = _child(tmp_path, ECHO_MODEL)
        try:
            ys = echo.evaluate_batch(POINTS)
        finally:
            echo.close()
        np.testing.assert_array_equal(ys, 3.0 * POINTS[:, 0] - POINTS[:, 1])
        assert capfd.readouterr().err == ""

    def test_child_dying_twice_shows_its_stderr(self, tmp_path):
        script = tmp_path / "dies.py"
        script.write_text(
            "import sys\nsys.stdin.readline()\n"
            "print('loading weights', file=sys.stderr)\n"
            "sys.exit('weights file missing')\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=1)
        try:
            with pytest.raises(TransportError, match="died twice") as exc:
                m.evaluate([1.0])
        finally:
            m.close()
        assert str(exc.value).endswith("weights file missing")

    def test_stderr_flood_does_not_block_the_child(self, tmp_path):
        # 200 KiB is far more than a pipe buffer holds
        script = tmp_path / "chatty.py"
        script.write_text(
            "import json, sys\nfor line in sys.stdin:\n"
            "    sys.stderr.write('x' * 200 * 1024); sys.stderr.flush()\n"
            "    print(json.dumps({'y': json.loads(line)['x'][0]}), flush=True)\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=1, timeout=5.0)
        try:
            assert [m.evaluate([1.0]), m.evaluate([2.0])] == [1.0, 2.0]
        finally:
            m.close()
        assert m._stderr_tail == b"x" * 4096

    def test_close_drains_a_child_flooding_stderr_on_its_way_out(self, tmp_path):
        # after end of input the child writes 200 KiB to stderr, more than a
        # pipe buffer holds, and exits 0 only once all of it is written
        script = tmp_path / "farewell.py"
        script.write_text(
            "import json, sys\nfor line in sys.stdin:\n"
            "    print(json.dumps({'y': 1.0}), flush=True)\n"
            "sys.stderr.write('x' * 200 * 1024 + 'bye'); sys.stderr.flush()\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=1, timeout=10.0)
        assert m.evaluate([0.0]) == 1.0
        proc = m._proc
        start = time.monotonic()
        m.close()
        assert time.monotonic() - start < 5.0
        assert proc.returncode == 0
        assert m._stderr_tail == (b"x" * 200 * 1024 + b"bye")[-4096:]

    @pytest.mark.parametrize("late", [False, True], ids=["same write", "late"])
    def test_output_no_request_asked_for_raises(self, tmp_path, late):
        # each answer line comes twice: in one write with the answer, or
        # 0.1 s after it, where the next request finds it waiting; taken for
        # that request's answer, it would answer a second batch with the first's
        script = tmp_path / "twice.py"
        script.write_text(
            "import json, sys, time\nfor line in sys.stdin:\n"
            "    reply = json.dumps({'ys': [sum(x) for x in json.loads(line)['xs']]}) + '\\n'\n"
            + ("    sys.stdout.write(reply); sys.stdout.flush(); time.sleep(0.1)\n"
               "    sys.stdout.write(reply); sys.stdout.flush()\n" if late
               else "    sys.stdout.write(reply + reply); sys.stdout.flush()\n")
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=2)
        try:
            if late:
                np.testing.assert_array_equal(m.evaluate_batch(POINTS[:2]), [3.0, -0.5])
                time.sleep(0.5)
            with pytest.raises(TransportError, match=r"output no request asked for: "
                                                     r"b'\{\"ys\": \[3.0, -0.5\]\}\\n'$"):
                m.evaluate_batch(POINTS[2:] if late else POINTS[:2])
            assert m._proc is None  # killed
        finally:
            m.close()

    def test_map_estimate_makes_one_request_per_iteration(self, tmp_path):
        # one request at the start, for the objective and its gradient, then
        # one per candidate step, which carries the gradient's displaced
        # points too while line searches take their first step
        m, requests = _child(tmp_path, SINE_BATCH_MODEL)
        try:
            res = driven(m, map_estimate)(single_point([0.5, 0.0], 1.0), ORACLE_HP, FINE_GRAD)
        finally:
            m.close()
        assert res.converged and res.halvings == 0
        assert len(requests()) == res.call_count == res.iterations

    def test_short_batch_after_batching_raises(self, tmp_path):
        m, _ = _child(tmp_path, BATCH_MODEL, "--short")
        try:
            m.evaluate_batch(POINTS[:2])
            with pytest.raises(TransportError, match="shape"):
                m.evaluate_batch(POINTS[2:])
        finally:
            m.close()

    def test_hung_child_times_out_and_is_killed(self, tmp_path):
        pid_file = tmp_path / "pid"
        script = tmp_path / "hang.py"
        script.write_text(
            "import os, sys, time\n"
            f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "sys.stdin.readline()\n"
            "print('waiting for a license server', file=sys.stderr, flush=True)\n"
            "time.sleep(60)\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=1, timeout=0.9)
        start = time.monotonic()
        try:
            with pytest.raises(TransportError,
                               match="(?s)no answer within.*license server"):
                m.evaluate([1.0])
            assert time.monotonic() - start < 5.0
        finally:
            m.close()
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)

    def test_trickled_answer_ends_at_the_deadline(self, tmp_path):
        # every byte comes well within the timeout, the whole answer (14
        # bytes, 0.1 s apart) only after it: the request's deadline ends it
        pid_file = tmp_path / "pid"
        script = tmp_path / "trickle.py"
        script.write_text(
            "import json, os, sys, time\n"
            f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "for line in sys.stdin:\n"
            "    for byte in json.dumps({'ys': [1.0]}).encode() + b'\\n':\n"
            "        sys.stdout.buffer.write(bytes([byte]))\n"
            "        sys.stdout.flush()\n"
            "        time.sleep(0.1)\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=1, timeout=0.5)
        start = time.monotonic()
        try:
            with pytest.raises(TransportError, match="no answer within 0.5 s"):
                m.evaluate_batch([[1.0]])
            assert time.monotonic() - start < 0.5 + 0.5
        finally:
            m.close()
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)

    def test_child_ignoring_batch_line_times_out(self, tmp_path):
        script = tmp_path / "mute.py"
        script.write_text(
            "import json, sys\nfor line in sys.stdin:\n"
            "    doc = json.loads(line)\n"
            "    if 'x' in doc:\n"
            "        print(json.dumps({'y': doc['x'][0]})); sys.stdout.flush()\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=2, timeout=0.9)
        try:
            assert m.evaluate([4.0, 0.0]) == 4.0
            with pytest.raises(TransportError, match="no answer within"):
                m.evaluate_batch(POINTS)
        finally:
            m.close()

    def test_close_is_idempotent_and_kills_a_child_ignoring_eof(self, tmp_path):
        script = tmp_path / "stubborn.py"
        script.write_text(
            "import json, sys, time\n"
            "sys.stdin.readline()\n"
            "print(json.dumps({'y': 1.0})); sys.stdout.flush()\n"
            "time.sleep(60)\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=1, timeout=0.9)
        assert m.evaluate([0.0]) == 1.0
        proc = m._proc
        start = time.monotonic()
        m.close()
        m.close()
        assert time.monotonic() - start < 5.0
        assert proc.returncode is not None


class _Handler(BaseHTTPRequestHandler):
    posts: list = []

    def log_message(self, *args):
        pass

    def _send(self, doc, status=200):
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    @staticmethod
    def f(x):
        return 2.0 * x[0] + x[1]

    # the reply to an "xs" request, as (document, status); None answers it
    batch_reply = None

    def do_POST(self):
        n = int(self.headers["Content-Length"])
        req = json.loads(self.rfile.read(n))
        self.posts.append(req)
        if "xs" not in req:
            self._send({"y": self.f(req["x"])})
        elif self.batch_reply is None:
            self._send({"ys": [self.f(x) for x in req["xs"]]})
        else:
            self._send(*self.batch_reply)


class _RefusesBatches(_Handler):
    batch_reply = ({"error": "unknown request"}, 400)
    posts: list = []


class _ErrorForBatches(_Handler):
    batch_reply = ({"error": "unknown request"}, 200)
    posts: list = []


class _ListForBatches(_Handler):
    batch_reply = ([1], 200)
    posts: list = []


class _NonFiniteBatch(_Handler):
    posts: list = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self._send({"ys": [1.0, float("nan")]})  # json writes the token NaN


class _Trickle(_Handler):
    """Answers a 10-byte body one byte every 0.1 s."""
    posts: list = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps({"y": 1.0}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        with contextlib.suppress(OSError):  # the client has hung up
            for byte in body:
                self.wfile.write(bytes([byte]))
                self.wfile.flush()
                time.sleep(0.1)


class _ServerError(_Handler):
    posts: list = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self._send({"error": "model crashed"}, 500)


class _TrickleHead(_Handler):
    """Writes its status line one byte every 0.1 s."""
    posts: list = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with contextlib.suppress(OSError):  # the client has hung up
            for byte in b"HTTP/1.0 200 OK\r\n\r\n":
                self.wfile.write(bytes([byte]))
                self.wfile.flush()
                time.sleep(0.1)


class _SilentCapabilities(_Handler):
    """Answers ``GET /capabilities`` only after 1 s."""
    posts: list = []

    def do_GET(self):
        time.sleep(1.0)
        with contextlib.suppress(OSError):  # the client has hung up
            self._send({"batch": True})


class _SilentBatches(_Handler):
    """Answers an ``xs`` request only after 1 s."""
    posts: list = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(1.0)


def _serving(handler):
    handler.posts.clear()
    return serving(handler)


@pytest.fixture
def http_server(request):
    with _serving(getattr(request, "param", _Handler)) as url:
        yield url


class TestHttpAdapter:
    def test_single_and_batch(self, http_server):
        m = HttpModel(http_server, dimension=2)
        assert m.evaluate([1.0, 2.0]) == pytest.approx(4.0)
        ys = m.evaluate_batch(np.array([[1.0, 0.0], [0.0, 3.0]]))
        np.testing.assert_allclose(ys, [2.0, 3.0])
        assert m.query_count == 3

    @pytest.mark.parametrize("handler", [_RefusesBatches, _ErrorForBatches, _ListForBatches])
    def test_a_server_that_does_not_batch_gets_single_points(self, handler):
        # an error status, or a reply without "ys", to the first batch: that
        # batch and every later one go one point per request
        later = POINTS[:2] + 1.0
        with _serving(handler) as url:
            m = HttpModel(url, dimension=2)
            ys = m.evaluate_batch(POINTS)
            again = m.evaluate_batch(later)
        np.testing.assert_array_equal(ys, 2.0 * POINTS[:, 0] + POINTS[:, 1])
        np.testing.assert_array_equal(again, 2.0 * later[:, 0] + later[:, 1])
        assert m.query_count == len(POINTS) + len(later)
        assert handler.posts == [{"xs": POINTS.tolist()}] + [
            {"x": x} for x in [*POINTS.tolist(), *later.tolist()]]

    def test_batch_is_one_post(self, http_server):
        m = HttpModel(http_server, dimension=2)
        m.evaluate(POINTS[0])
        ys = m.evaluate_batch(POINTS)
        np.testing.assert_array_equal(ys, 2.0 * POINTS[:, 0] + POINTS[:, 1])
        assert _Handler.posts == [{"x": POINTS[0].tolist()}, {"xs": POINTS[1:].tolist()}]

    def test_unreachable_endpoint(self):
        m = HttpModel("http://127.0.0.1:1", dimension=1, timeout=0.3)
        with pytest.raises(TransportError):
            m.evaluate([0.0])

    @pytest.mark.parametrize("http_server", [_Trickle], indirect=True)
    def test_trickled_body_ends_at_the_deadline(self, http_server):
        # every byte comes well within the timeout, the whole body (10
        # bytes, 0.1 s apart) only after it: the request's deadline ends it
        m = HttpModel(http_server, dimension=1, timeout=0.5)
        start = time.monotonic()
        with pytest.raises(TransportError, match="no answer within 0.5 s"):
            m.evaluate([0.0])
        assert time.monotonic() - start < 0.5 + 0.5

    @pytest.mark.parametrize("http_server", [_TrickleHead], indirect=True)
    def test_trickled_status_line_ends_at_the_deadline(self, http_server):
        # the status line and the blank line after it, 19 bytes 0.1 s apart:
        # each read waits only for the time left
        m = HttpModel(http_server, dimension=1, timeout=0.5)
        start = time.monotonic()
        with pytest.raises(TransportError, match="no answer within 0.5 s"):
            m.evaluate([0.0])
        assert time.monotonic() - start < 0.5 + 0.5

    @pytest.mark.parametrize("http_server", [_SilentCapabilities], indirect=True)
    def test_capabilities_are_never_asked(self, http_server):
        # the first batch is the probe: a GET /capabilities that never
        # answers costs nothing
        m = HttpModel(http_server, dimension=2, timeout=0.5)
        start = time.monotonic()
        ys = m.evaluate_batch(POINTS)
        assert time.monotonic() - start < 0.25
        np.testing.assert_array_equal(ys, 2.0 * POINTS[:, 0] + POINTS[:, 1])
        assert _SilentCapabilities.posts == [{"xs": POINTS.tolist()}]

    @pytest.mark.parametrize("http_server", [_SilentBatches], indirect=True)
    def test_a_first_batch_that_times_out_raises(self, http_server):
        m = HttpModel(http_server, dimension=2, timeout=0.5)
        start = time.monotonic()
        with pytest.raises(TransportError, match="no answer within 0.5 s"):
            m.evaluate_batch(POINTS)
        assert time.monotonic() - start < 0.5 + 0.5

    @pytest.mark.parametrize("http_server", [_ServerError], indirect=True)
    def test_error_status_raises(self, http_server):
        m = HttpModel(http_server, dimension=1)
        with pytest.raises(TransportError, match="HTTP 500"):
            m.evaluate([0.0])
        assert m.query_count == 0


@pytest.mark.parametrize("reply, bad", [
    ('{"y": NaN}', 0),  # also the reply to the batch probe: a one-point child
    ('{"ys": [1.0, Infinity]}', 1),
    ("http", 1),
], ids=["subprocess-y", "subprocess-ys", "http-ys"])
def test_nonfinite_batch_answer_raises(tmp_path, reply, bad):
    with contextlib.ExitStack() as stack:
        if reply == "http":
            m = HttpModel(stack.enter_context(_serving(_NonFiniteBatch)), dimension=2)
        else:
            script = tmp_path / "child.py"
            script.write_text(
                f"import sys\nfor line in sys.stdin:\n    print({reply!r}, flush=True)\n"
            )
            m = SubprocessModel([sys.executable, str(script)], dimension=2)
            stack.callback(m.close)
        with pytest.raises(NonFiniteModelOutput) as exc:
            m.evaluate_batch(POINTS[:2])
    np.testing.assert_array_equal(exc.value.x, POINTS[bad])
    assert m.query_count == 2


def _contract_f(x):
    """The surface behind the contract test's callable, child and server:
    NaN where x1 > 5."""
    return float("nan") if x[0] > 5 else 2.0 * x[0] + x[1]


CONTRACT_CHILD = textwrap.dedent(
    """
    import json, sys
    def f(x):
        return float("nan") if x[0] > 5 else 2.0 * x[0] + x[1]
    for line in sys.stdin:
        doc = json.loads(line)
        reply = {"ys": [f(x) for x in doc["xs"]]} if "xs" in doc else {"y": f(doc["x"])}
        print(json.dumps(reply), flush=True)
    """
)


class _Contract(_Handler):
    posts: list = []
    f = staticmethod(_contract_f)


@pytest.mark.parametrize("kind", [
    "sinusoidal2d", "linear", "quadratic", "callable", "subprocess", "http",
])
def test_evaluate_is_the_one_row_batch(tmp_path, kind):
    # the builtin surfaces are finite at finite inputs: an infinite input
    # makes their answer NaN
    nan_x = np.array([np.inf, 0.0] if kind == "sinusoidal2d" else [np.inf, np.inf])
    with contextlib.ExitStack() as stack:
        if kind in ("sinusoidal2d", "linear", "quadratic"):
            m = BuiltinModel(kind, () if kind == "sinusoidal2d" else (1.0, -1.0))
        elif kind == "callable":
            m, nan_x = CallableModel(_contract_f, 2), np.array([6.0, 0.0])
        elif kind == "subprocess":
            script = tmp_path / "child.py"
            script.write_text(CONTRACT_CHILD)
            m = SubprocessModel([sys.executable, str(script)], dimension=2)
            stack.callback(m.close)
            m.evaluate_batch(POINTS[:2])  # the probe: the child batches
            nan_x = np.array([6.0, 0.0])
        else:
            m = HttpModel(stack.enter_context(_serving(_Contract)), dimension=2)
            nan_x = np.array([6.0, 0.0])
        queries, calls = m.query_count, m.call_count
        x = np.array([0.25, -0.5])
        y = m.evaluate(x)
        assert (m.query_count, m.call_count) == (queries + 1, calls + 1)
        assert type(y) is float and y == m.evaluate_batch(x[None])[0]
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteModelOutput) as exc:
            m.evaluate(nan_x)
        np.testing.assert_array_equal(exc.value.x, nan_x)
        assert (m.query_count, m.call_count) == (queries + 3, calls + 3)
        with pytest.raises(ValueError, match="length 2"):
            m.evaluate([0.25, -0.5, 1.0])
        assert (m.query_count, m.call_count) == (queries + 3, calls + 3)
