"""Counterfactual-perturbation attribution with per-variable posteriors.

The attribution score of a test sample is the perturbation ``delta`` that
would pull the observation back onto the regression surface.  ``delta`` is
treated as the parameter of a generative model whose observation noise is
gamma-marginalized (a Student-t likelihood), with an l2 prior and an l1 term
for sparsity.  The point score is the MAP solution of

    J(delta) + eta * nu * ||delta||_1,
    J(delta) = (eta/2) ||delta||_2^2
               + sum_t ((2 a0 + 1) / 2) ln(1 + r_t^2 / (2 b_t)),

with residual r_t = y_t - f(x_t + delta), found by accelerated proximal
gradient descent with soft-thresholding (monotone FISTA with backtracking
and momentum restart).  Per-variable uncertainty comes from slicing the
unnormalized posterior along one coordinate through the MAP point and
normalizing on a symmetric grid.

One run queries the model in one plan: the gamma rates from one residual
batch, then the solver, then one batch per variable for the slices, which
reuse the run's rates.  Any non-finite output raises NonFiniteModelOutput;
an objective that overflows on finite outputs raises DivergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import TestSet
from .models import GradientEstimatorConfig, ModelHandle, estimate_gradient

__all__ = [
    "DivergenceError",
    "NonFiniteModelOutput",
    "GpaHyperParams",
    "AttributionResult",
    "ScoreDistribution",
    "soft_threshold",
    "select_gamma_shape",
    "residual_variance",
    "init_gamma_rate",
    "refine_gamma_rate",
    "objective",
    "student_t_loss",
    "gaussian_loss",
    "counterfactual_objective",
    "map_estimate",
    "score_distributions",
    "proximal_minimize",
]

_MAX_HALVINGS = 20
_DIVERGENCE_STREAK = 10
_INIT_SCALE = 1e-3
_INIT_STREAM = 0x1A17
_RATE_FLOOR = 1e-6
_VARIANCE_FLOOR = 1e-6


class DivergenceError(RuntimeError):
    """The proximal iteration failed to decrease the objective repeatedly."""


class NonFiniteModelOutput(RuntimeError):
    def __init__(self, sample_index: int, value: float):
        super().__init__(
            f"model returned non-finite output {value!r} for test sample "
            f"{sample_index}"
        )
        self.sample_index = sample_index


@dataclass(frozen=True)
class GpaHyperParams:
    """Solver and prior settings.

    ``eta`` is the l2 prior strength, ``nu`` the relative l1 strength (the
    soft-threshold width is ``eta * nu``), ``kappa`` the solver's starting
    step (halved where it is too long, see :func:`proximal_minimize`) and
    ``a0`` the gamma shape (``2 a0`` acts as the t-distribution's degrees of
    freedom).  The gamma rate ``b`` is either the explicit ``b0``, estimated
    from the test residual variance divided by the virtual-sample count
    ``c_b`` (``b_mode="constant"``), or refined per sample with a local
    kernel of parameters ``kernel_w0`` / ``kernel_eta0``
    (``b_mode="local_kernel"``).
    """

    eta: float = 0.1
    nu: float = 0.5
    kappa: float = 0.1
    a0: float = 5.5
    b_mode: str = "constant"
    b0: float | None = None
    c_b: float = 10.0
    kernel_w0: float = 0.0
    kernel_eta0: float = 1.0
    max_iter: int = 10_000
    tol: float = 1e-6
    grid_points: int = 100
    delta_max_factor: float = 1.1

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ValueError("nu must be in (0, 1]")
        if self.eta <= 0 or self.kappa <= 0 or self.a0 <= 0 or self.c_b <= 0:
            raise ValueError("eta, kappa, a0 and c_b must be positive")
        if self.b_mode not in ("constant", "local_kernel"):
            raise ValueError(f"unknown b_mode {self.b_mode!r}")
        if self.b0 is not None and self.b0 <= 0:
            raise ValueError("b0 must be positive when given")
        if self.grid_points < 3:
            raise ValueError("grid_points must be >= 3")
        if self.max_iter < 1 or self.tol <= 0 or self.delta_max_factor <= 0:
            raise ValueError("max_iter, tol and delta_max_factor must be positive")

    @classmethod
    def for_testset(cls, n_test: int, **overrides) -> "GpaHyperParams":
        """Defaults scaled by the collective size: kappa = 0.1 / n_test and
        eta = 0.1 * n_test, with nu = 0.5, 2 a0 = 11, c_b = 10."""
        base = dict(kappa=0.1 / n_test, eta=0.1 * n_test, nu=0.5, a0=5.5, c_b=10.0)
        base.update(overrides)
        return cls(**base)


@dataclass
class AttributionResult:
    """``query_count`` includes the rate queries; pass ``rates`` on to
    :func:`score_distributions`."""

    delta_star: np.ndarray
    iterations: int
    converged: bool
    objective_trace: np.ndarray
    query_count: int
    rates: np.ndarray


@dataclass
class ScoreDistribution:
    """Discrete per-variable posterior on a symmetric grid."""

    variable_index: int
    grid: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)
        if self.grid.shape != self.probs.shape or self.grid.ndim != 1:
            raise ValueError("grid and probs must be 1-d arrays of equal length")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.max(np.abs(self.grid + self.grid[::-1])) > 1e-12:
            raise ValueError("grid must be symmetric about 0")
        if np.any(self.probs < 0) or not abs(self.probs.sum() - 1.0) <= 1e-10:
            raise ValueError("probs must be nonnegative and sum to 1")

    @property
    def delta_max(self) -> float:
        return float(self.grid[-1])


def soft_threshold(g, threshold: float) -> np.ndarray:
    """Elementwise shrinkage toward zero; exact zero inside the dead zone."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    g = np.asarray(g, dtype=float)
    return np.sign(g) * np.maximum(np.abs(g) - threshold, 0.0)


def select_gamma_shape(n_virtual: int) -> float:
    """Gamma shape from a virtual sample count: a0 = (n + 1) / 2, so a single
    sample gives a0 = 1."""
    if n_virtual < 1:
        raise ValueError("n_virtual must be >= 1")
    return (n_virtual + 1) / 2.0


def _check_finite(fvals: np.ndarray) -> np.ndarray:
    """Raise :class:`NonFiniteModelOutput` naming the first sample whose model
    output is not finite; row t of a 2-d ``fvals`` holds sample t's outputs."""
    bad = np.argwhere(~np.isfinite(fvals))
    if bad.size:
        raise NonFiniteModelOutput(int(bad[0, 0]), float(fvals[tuple(bad[0])]))
    return fvals


def _residuals(testset: TestSet, model: ModelHandle) -> np.ndarray:
    # checked before any arithmetic, which would warn on inf or nan
    return testset.y - _check_finite(model.evaluate_batch(testset.x))


def residual_variance(testset: TestSet, model: ModelHandle) -> float:
    """Mean squared residual ``mean((y - f(x))^2)``, floored at 1e-6 so a
    perfectly fit test set keeps a positive variance (the
    :func:`init_gamma_rate` of a0 = c_b = 1)."""
    return init_gamma_rate(_residuals(testset, model), 1.0, 1.0)


def init_gamma_rate(resid, a0: float, c_b: float) -> float:
    """Constant gamma rate b0 = a0 * sigma^2 / c_b from the residuals
    ``resid`` (no model query), sigma^2 their mean square floored at 1e-6."""
    if np.size(resid) == 0:
        raise ValueError("residuals must be nonempty")
    if c_b <= 0:
        raise ValueError("c_b must be positive")
    sigma2 = float(np.mean(np.square(resid)))
    return a0 * (sigma2 if sigma2 != 0.0 else _VARIANCE_FLOOR) / c_b


def refine_gamma_rate(
    x,
    resid,
    a0: float,
    b_init: float,
    anchor: int,
    kernel: tuple[float, float] = (0.0, 1.0),
    iters: int = 100,
    rel_tol: float = 1e-6,
) -> float:
    """Anchor-local gamma rate from the other rows' residuals (no query).

    Iterates ``1/b <- ((2 a0 + 1) / a0) * sum_{n != anchor} w_n / (2 b +
    r_n^2)`` with kernel weights ``w0 + exp(-||x_n - x_anchor||^2 /
    (2 eta0^2))`` normalized over the included samples, until the relative
    change drops below ``rel_tol`` or ``iters`` rounds pass.  The map is a
    contraction, so tightening ``rel_tol`` buys precision.  The result is
    floored at ``1e-6 * b_init`` (all-zero residuals drive b to 0).
    """
    x, resid = np.asarray(x, dtype=float), np.asarray(resid, dtype=float)
    if len(resid) < 2:
        raise ValueError(
            "refine_gamma_rate needs at least two samples; use init_gamma_rate"
        )
    w0, eta0 = kernel
    others = np.arange(len(resid)) != anchor
    resid = resid[others]
    dist2 = np.sum((x[others] - x[anchor]) ** 2, axis=1)
    weights = w0 + np.exp(-dist2 / (2.0 * eta0**2))
    weights = weights / weights.sum()

    floor = _RATE_FLOOR * b_init
    b = float(b_init)
    for _ in range(iters):
        inv_b = ((2 * a0 + 1) / a0) * np.sum(weights / (2 * b + resid**2))
        b_new = max(1.0 / inv_b, floor)
        done = abs(b_new - b) <= rel_tol * abs(b) or b_new == floor
        b = b_new
        if done:
            break
    return b


def _resolve_rates(testset: TestSet, model: ModelHandle, hp: GpaHyperParams) -> np.ndarray:
    """Per-sample gamma rates b(x^t) according to the configured mode, all
    from one residual batch (no query for an explicit ``b0``)."""
    if hp.b_mode == "constant" and hp.b0 is not None:
        return np.full(testset.n_test, float(hp.b0))
    resid = _residuals(testset, model)
    b_init = init_gamma_rate(resid, hp.a0, hp.c_b)
    if hp.b_mode == "constant":
        return np.full(testset.n_test, b_init)
    kernel = (hp.kernel_w0, hp.kernel_eta0)
    return np.array([refine_gamma_rate(testset.x, resid, hp.a0, b_init, t, kernel)
                     for t in range(testset.n_test)])


def student_t_loss(a0: float, rates):
    """Gamma-marginalized loss ``((2 a0 + 1) / 2) ln(1 + r_t^2 / (2 b_t))``
    as a (value, slope) pair: the sum over the samples' residuals r, and the
    derivative in each r_t."""
    shape = 2 * a0 + 1
    return (lambda r: float(np.sum(shape / 2.0 * np.log1p(r**2 / (2 * rates)))),
            lambda r: shape * r / (2 * rates + r * r))


def gaussian_loss(lam: float):
    """Gaussian loss ``(lam / 2) r_t^2`` as a (value, slope) pair."""
    return (lambda r: 0.5 * lam * float(r @ r)), (lambda r: lam * r)


def counterfactual_objective(model: ModelHandle, x, y, eta: float, loss,
                             grad_cfg=GradientEstimatorConfig()):
    """``(grad_fn, value_fn)`` of ``J(delta) = (eta/2) ||delta||^2 +
    sum_t loss(y_t - f(x_t + delta))`` over the rows of ``x``.

    ``loss`` is a (value, slope) pair such as :func:`student_t_loss`; the l1
    term is left to the proximal step.  The gradient ``eta delta - sum_t
    loss'(r_t) grad f(x_t + delta)`` takes the model gradients from one
    batched estimator call and, at the delta of the last value evaluation
    (where :func:`proximal_minimize` always asks), reuses its model values.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    loss_value, loss_slope = loss
    m = model.dimension
    points = np.empty((len(x), m * grad_cfg.mc_samples, m))
    last_key = shifted = fvals = resid = None

    def value_fn(delta):
        nonlocal last_key, shifted, fvals, resid
        shifted = x + delta
        fvals = model.evaluate_batch(shifted)
        resid = y - fvals
        value = 0.5 * eta * float(delta @ delta) + loss_value(resid)
        if not math.isfinite(value):
            _check_finite(fvals)
        last_key = delta.tobytes()
        return value

    def grad_fn(delta):
        if delta.tobytes() != last_key:
            value_fn(delta)
        grads = estimate_gradient(model, shifted, grad_cfg, f0=fvals, points=points)
        return eta * delta - loss_slope(resid) @ grads

    return grad_fn, value_fn


def objective(delta, testset: TestSet, model: ModelHandle, hp: GpaHyperParams) -> float:
    """Smooth part of the MAP objective at ``delta`` (no l1 term).

    Resolves the gamma rates from ``hp`` first, which costs one model query
    per sample unless an explicit ``b0`` is set.
    """
    delta = np.asarray(delta, dtype=float)
    loss = student_t_loss(hp.a0, _resolve_rates(testset, model, hp))
    _, value_fn = counterfactual_objective(model, testset.x, testset.y, hp.eta, loss)
    return value_fn(delta)


@dataclass
class _SolveState:
    delta: np.ndarray
    iterations: int
    converged: bool
    trace: np.ndarray


def proximal_minimize(
    grad_fn,
    value_fn,
    dim: int,
    eta: float,
    nu: float,
    kappa: float,
    max_iter: int,
    tol: float,
    seed: int,
) -> _SolveState:
    """Monotone FISTA (Beck & Teboulle 2009) with backtracking and restart.

    Minimizes ``F = J + eta*nu*||delta||_1`` from the accepted iterate x and
    an extrapolated point y (y = x at the start).  One iteration evaluates
    ``F(y)`` (unless y is the candidate just accepted), asks ``grad_fn`` at
    y, and forms the candidate ``z = sign(g) * max(0, |g| - s*eta*nu)`` with
    ``g = y - s * grad J(y)`` -- the exact proximal map of the l1 term, so
    fixed points are stationary points of F whatever the step.  The step s
    starts at ``kappa`` and is halved, up to 20 times, while ``F(z) > F(y)``;
    ten consecutive iterations that use up all halvings raise
    :class:`DivergenceError`.  A candidate no worse than ``F(x)`` becomes
    the new x and y moves past it by the momentum ``(t - 1) / t_new``, with
    ``t_new = (1 + sqrt(1 + 4 t^2)) / 2``; otherwise x stays, y restarts at
    x and t at 1 (O'Donoghue & Candes 2015).  So ``F(x)``, the trace, never
    rises.  ``delta`` starts at small seeded uniform noise in [-1e-3, 1e-3],
    which keeps the sign-selection behaviour of the l1 term intact.
    Convergence is ``max |z - y| < tol``, checked on every iteration; the
    result is x.  A non-finite F at the start or at y raises
    :class:`DivergenceError` (model outputs are checked by ``value_fn``, so
    the loss itself overflowed); a non-finite candidate only fails the
    comparison and is halved.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_INIT_STREAM,))
    )
    x = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=dim)
    l1_weight = eta * nu

    def penalized(d):
        return value_fn(d) + l1_weight * float(np.abs(d).sum())

    def finite_penalized(d):
        value = penalized(d)
        if not math.isfinite(value):
            raise DivergenceError(
                f"objective is {value!r}: a residual's square overflows the "
                "float range; rescale the targets"
            )
        return value

    f_x = finite_penalized(x)
    y, f_y, t = x, f_x, 1.0
    trace = [f_x]
    converged = False
    bad_streak = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if f_y is None:
            f_y = finite_penalized(y)
        grad = grad_fn(y)
        step = kappa
        for _ in range(_MAX_HALVINGS + 1):
            z = soft_threshold(y - step * grad, step * l1_weight)
            f_z = penalized(z)
            if f_z <= f_y:
                bad_streak = 0
                break
            step *= 0.5
        else:
            # persistent increases mean the gradient estimate is
            # inconsistent with the objective
            bad_streak += 1
            if bad_streak >= _DIVERGENCE_STREAK:
                raise DivergenceError(
                    "objective increased for "
                    f"{_DIVERGENCE_STREAK} consecutive iterations; "
                    "try a smaller starting step kappa"
                )
        move = float(np.max(np.abs(z - y)))
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        if f_z <= f_x:
            momentum = (t - 1.0) / t_new
            x_prev, x, f_x, t = x, z, f_z, t_new
            if momentum:
                y, f_y = x + momentum * (x - x_prev), None
            else:
                y, f_y = x, f_x
        else:
            # restart; F(x) is known, but evaluating it again gives the
            # gradient at x the model values it reuses
            y, f_y, t = x, None, 1.0
        trace.append(f_x)
        if move < tol:
            converged = True
            break
    return _SolveState(x, iterations, converged, np.asarray(trace))


def map_estimate(
    testset: TestSet,
    model: ModelHandle,
    hp: GpaHyperParams,
    grad_cfg: GradientEstimatorConfig,
) -> AttributionResult:
    """MAP perturbation shared by all samples of ``testset``: the
    :func:`counterfactual_objective` under the :func:`student_t_loss`,
    minimized by :func:`proximal_minimize`."""
    if testset.n_test == 0:
        raise ValueError("testset must be nonempty")
    if testset.dimension != model.dimension:
        raise ValueError(
            f"testset dimension {testset.dimension} != model dimension "
            f"{model.dimension}"
        )
    queries_before = model.query_count
    rates = _resolve_rates(testset, model, hp)
    grad_fn, value_fn = counterfactual_objective(
        model, testset.x, testset.y, hp.eta, student_t_loss(hp.a0, rates), grad_cfg
    )
    state = proximal_minimize(
        grad_fn,
        value_fn,
        testset.dimension,
        hp.eta,
        hp.nu,
        hp.kappa,
        hp.max_iter,
        hp.tol,
        grad_cfg.seed,
    )
    return AttributionResult(
        delta_star=state.delta,
        iterations=state.iterations,
        converged=state.converged,
        objective_trace=state.trace,
        query_count=model.query_count - queries_before,
        rates=rates,
    )


def score_distributions(
    delta_star,
    testset: TestSet,
    model: ModelHandle,
    hp: GpaHyperParams,
    rates,
) -> list[ScoreDistribution]:
    """Per-variable posterior slices through the MAP point, under the gamma
    ``rates`` of the MAP run (:attr:`AttributionResult.rates`).

    For each variable k the log posterior (including the l1-augmented prior)
    is evaluated along a symmetric grid while the other coordinates stay at
    their MAP values: one model batch of ``n_test x grid_points`` rows, where
    non-finite output raises :class:`NonFiniteModelOutput` naming the sample.
    It is stabilized by subtracting its maximum, exponentiated and
    normalized to sum to one.  The grid spans ``delta_max_factor * max_k
    |delta*_k|``; a fully normal sample (``delta* ~ 0``) falls back to one
    standardized unit so the slices stay informative.
    """
    delta_star = np.asarray(delta_star, dtype=float)
    if not np.all(np.isfinite(delta_star)):
        raise ValueError("delta_star must be finite")
    peak = float(np.max(np.abs(delta_star)))
    delta_max = hp.delta_max_factor * peak if peak >= 1e-9 else 1.0
    grid = np.linspace(-delta_max, delta_max, hp.grid_points)
    grid = 0.5 * (grid - grid[::-1])  # exact symmetry about 0

    dists = []
    for k in range(testset.dimension):
        candidates = np.repeat(delta_star[None, :], hp.grid_points, axis=0)
        candidates[:, k] = grid
        log_q = -0.5 * hp.eta * np.sum(candidates**2, axis=1)
        log_q -= hp.eta * hp.nu * np.sum(np.abs(candidates), axis=1)
        rows = (testset.x[:, None, :] + candidates).reshape(-1, testset.dimension)
        fvals = model.evaluate_batch(rows).reshape(testset.n_test, hp.grid_points)
        resid = testset.y[:, None] - _check_finite(fvals)
        for loss in (2 * hp.a0 + 1) / 2.0 * np.log1p(resid**2 / (2 * rates[:, None])):
            log_q -= loss
        probs = np.exp(log_q - np.max(log_q))
        probs /= probs.sum()
        dists.append(ScoreDistribution(k, grid, probs))
    return dists
