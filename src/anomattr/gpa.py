"""Counterfactual-perturbation attribution with per-variable posteriors.

The attribution score of a test sample is the perturbation ``delta`` that
would pull the observation back onto the regression surface.  ``delta`` is
treated as the parameter of a generative model whose observation noise is
gamma-marginalized (a Student-t likelihood), with an l2 prior and an l1 term
for sparsity.  The point score is the MAP solution of

    F(delta) = J(delta) + eta * nu * ||delta||_1,
    J(delta) = (eta/2) ||delta||_2^2
               + sum_t ((2 a0 + 1) / 2) ln(1 + r_t^2 / (2 b_t)),

with residual r_t = y_t - f(x_t + delta), found by proximal Gauss-Newton:

* The loss's slope in r_t is ``w_t r_t`` with the weight ``w_t = (2 a0 +
  1) / (2 b_t + r_t^2)`` (``lam`` for the Gaussian loss of
  :func:`~anomattr.baselines.lc`).  With ``G`` the n x m matrix of model
  gradients at the rows, ``grad J = eta delta - G^T (w * r)``, and
  linearizing r around delta gives the curvature ``H = eta I + G^T diag(w)
  G``.  It is positive definite, and it costs no model query beyond the
  batch that gave ``G``.
* The step solves the l1-penalized quadratic model of F around the
  iterate x, ``min_z grad J . (z - x) + (1/2)(z - x)^T H (z - x) + eta nu
  ||z||_1``, exactly and with no model query, by feature-sign search:
  dense solves on an active set that starts from the support and signs of
  the last step's z, so one solve suffices once the support settles.
* A line search on F along ``x + s (z - x)``, s = 1, 1/2, 1/4, ...,
  accepts the first candidate that does not raise F.  A reach limits the
  steps: the first moves no coordinate by more than 0.5 input units, each
  later one at most twice as far as the last accepted step, and the line
  search starts below s = 1 where the full step would go further.
* The solve stops when ``max |z - x| < tol``: x then satisfies the
  optimality conditions of F to about ``H`` times tol.

Near the solution the steps converge linearly, at a rate set by the
curvature that ``H`` leaves out (the residuals times the model's second
derivatives).  On a model that makes F nonconvex, a full Newton step from
a start where the slope is small against the residual can cross the
nearest root: on the sinusoid at x = (0.05, 0), y = -1.14 it jumps to
delta = 3.1, and the solve ends at a stationary point with 8 times the F
of the nearest root (0.64, 0).  The reach keeps such steps in the start's
basin; converging steps shrink, so it does not bind near the solution.
Even so, on a nonconvex F the solver can end at another stationary point
than a short-step descent would, with lower or higher F.

Per-variable uncertainty comes from slicing the unnormalized posterior along
one coordinate through the MAP point and normalizing on a symmetric grid.

One run queries the model in one plan: the gamma rates from one residual
batch, then the solver, then one batch per variable for the slices, which
reuse the run's rates.  The solver sends one batch at its start, which gives
both the objective and its gradient there, and one per candidate step.  The
first candidate of a line search also carries the displaced points of its
gradient, so that an accepted step needs no further batch, unless the
previous line search rejected its first candidate or no iteration follows;
a point accepted without its gradient sends one batch of displaced points
for it.  A converged solve whose line searches take their first step sends
one batch per iteration.  The model handle refuses non-finite output
(:class:`~anomattr.models.NonFiniteModelOutput`), so an objective that is
not finite has overflowed on finite outputs and raises DivergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import TestSet
from .models import GradientEstimatorConfig, ModelHandle, estimate_gradient

__all__ = [
    "DivergenceError",
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
# largest coordinate move of the first step; each later step may move up to
# twice as far as the last accepted one
_FIRST_REACH = 0.5
_MAX_ACTIVE_SET_STEPS = 10_000
_INIT_SCALE = 1e-3
_INIT_STREAM = 0x1A17
_RATE_FLOOR = 1e-6
_VARIANCE_FLOOR = 1e-6


class DivergenceError(RuntimeError):
    """The solver cannot proceed: the objective overflows, or it rises along
    a search direction however short the step."""


@dataclass(frozen=True)
class GpaHyperParams:
    """Solver and prior settings.

    ``eta`` is the l2 prior strength, ``nu`` the relative l1 strength (the
    l1 weight is ``eta * nu``) and ``a0`` the gamma shape (``2 a0`` acts as
    the t-distribution's degrees of freedom).  The gamma rate ``b`` is
    either the explicit ``b0``, estimated from the test residual variance
    divided by the virtual-sample count ``c_b`` (``b_mode="constant"``), or
    refined per sample with a local kernel of parameters ``kernel_w0`` /
    ``kernel_eta0`` (``b_mode="local_kernel"``).  The solver, proximal
    Gauss-Newton (:func:`proximal_minimize`), takes Newton steps, halved
    only where they raise the objective, so it needs no step size; it stops
    after ``max_iter`` iterations or once a step moves no coordinate by
    ``tol``.
    """

    eta: float = 0.1
    nu: float = 0.5
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
        if self.eta <= 0 or self.a0 <= 0 or self.c_b <= 0:
            raise ValueError("eta, a0 and c_b must be positive")
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
        """Defaults scaled by the collective size: eta = 0.1 * n_test, with
        nu = 0.5, 2 a0 = 11, c_b = 10."""
        base = dict(eta=0.1 * n_test, nu=0.5, a0=5.5, c_b=10.0)
        base.update(overrides)
        return cls(**base)


@dataclass
class AttributionResult:
    """``query_count`` (points) and ``call_count`` (model calls) include the
    rate queries; ``halvings`` counts the candidate steps the solver's line
    search rejected.  A converged solve makes ``iterations + halvings``
    calls plus one per point it accepted without the gradient there (see
    :func:`proximal_minimize`); each rejected first candidate whose batch
    carried its gradient's displaced points costs those points and no call.
    Pass ``rates`` on to :func:`score_distributions` and :func:`objective`."""

    delta_star: np.ndarray
    iterations: int
    converged: bool
    objective_trace: np.ndarray
    halvings: int
    query_count: int
    call_count: int
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


def residual_variance(testset: TestSet, model: ModelHandle) -> float:
    """Mean squared residual ``mean((y - f(x))^2)``, floored at 1e-6 so a
    perfectly fit test set keeps a positive variance (the
    :func:`init_gamma_rate` of a0 = c_b = 1)."""
    return init_gamma_rate(testset.y - model.evaluate_batch(testset.x), 1.0, 1.0)


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
    resid = testset.y - model.evaluate_batch(testset.x)
    b_init = init_gamma_rate(resid, hp.a0, hp.c_b)
    if hp.b_mode == "constant":
        return np.full(testset.n_test, b_init)
    kernel = (hp.kernel_w0, hp.kernel_eta0)
    return np.array([refine_gamma_rate(testset.x, resid, hp.a0, b_init, t, kernel)
                     for t in range(testset.n_test)])


def student_t_loss(a0: float, rates):
    """Gamma-marginalized loss ``((2 a0 + 1) / 2) ln(1 + r_t^2 / (2 b_t))``
    as a (value, weight) pair: the sum over the samples' residuals r, and
    the weight ``w_t = (2 a0 + 1) / (2 b_t + r_t^2)`` whose product with r_t
    is the loss's slope in r_t."""
    shape = 2 * a0 + 1
    return (lambda r: float(np.sum(shape / 2.0 * np.log1p(r**2 / (2 * rates)))),
            lambda r: shape / (2 * rates + r * r))


def gaussian_loss(lam: float):
    """Gaussian loss ``(lam / 2) r_t^2`` as a (value, weight) pair; the
    weight is ``lam`` for every sample."""
    return (lambda r: 0.5 * lam * float(r @ r)), (lambda r: np.full(len(r), lam))


def counterfactual_objective(model: ModelHandle, x, y, eta: float, loss,
                             grad_cfg=GradientEstimatorConfig()):
    """``(grad_fn, value_fn)`` of ``J(delta) = (eta/2) ||delta||^2 +
    sum_t loss(y_t - f(x_t + delta))`` over the rows of ``x``.

    ``loss`` is a (value, weight) pair such as :func:`student_t_loss`; the
    l1 term is left to the solver.  ``grad_fn`` returns the gradient ``g =
    eta delta - G^T (w * r)`` and the Gauss-Newton curvature ``H = eta I +
    G^T diag(w) G``, where row t of ``G`` is the estimated model gradient at
    ``x_t + delta``, ``r`` the residuals and ``w`` the loss weights there;
    ``G`` comes from one estimator call, which is one model batch, and ``H``
    costs no further query.  The two functions share a one-entry memo of the
    model values, residuals and J at the last delta either of them
    evaluated: ``grad_fn`` at a new delta sends the rows ``x_t + delta``
    with their displaced points and remembers their values, so
    ``value_fn`` there queries nothing (the solver asks ``grad_fn`` first
    at the candidate steps whose gradient it expects to need); ``grad_fn``
    at the delta of the last ``value_fn`` sends the displaced points alone.
    A loss that overflows gives an infinite J without a numpy warning.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    loss_value, loss_weight = loss
    m = model.dimension
    points = np.empty((len(x) * (1 + m * grad_cfg.mc_samples), m))
    centre = np.empty(len(x))
    key = fvals = resid = value = None

    def remember(delta, model_values):
        nonlocal key, fvals, resid, value
        key, fvals = delta.tobytes(), model_values
        with np.errstate(over="ignore"):
            resid = y - model_values
            value = 0.5 * eta * float(delta @ delta) + loss_value(resid)

    def value_fn(delta):
        if delta.tobytes() != key:
            remember(delta, model.evaluate_batch(x + delta))
        return value

    def grad_fn(delta):
        if delta.tobytes() == key:
            grads = estimate_gradient(model, x + delta, grad_cfg, f0=fvals, points=points)
        else:
            grads = estimate_gradient(model, x + delta, grad_cfg, points=points,
                                      values=centre)
            remember(delta, centre)
        # a delta whose J is not finite never uses its gradient
        with np.errstate(over="ignore", invalid="ignore"):
            weight = loss_weight(resid)
            hess = grads.T @ (weight[:, None] * grads)
            hess[np.diag_indices(m)] += eta
            return eta * delta - (weight * resid) @ grads, hess

    return grad_fn, value_fn


def objective(delta, testset: TestSet, model: ModelHandle, hp: GpaHyperParams,
              rates) -> float:
    """Smooth part of the MAP objective at ``delta`` (no l1 term), under the
    per-sample gamma ``rates`` of a run (:attr:`AttributionResult.rates`), as
    in :func:`score_distributions`."""
    delta = np.asarray(delta, dtype=float)
    loss = student_t_loss(hp.a0, np.asarray(rates, dtype=float))
    _, value_fn = counterfactual_objective(model, testset.x, testset.y, hp.eta, loss)
    return value_fn(delta)


@dataclass
class _SolveState:
    delta: np.ndarray
    iterations: int
    converged: bool
    trace: np.ndarray
    halvings: int


def _solve_l1_quadratic(grad, hess, x, l1_weight: float, start) -> np.ndarray:
    """The point ``v`` that minimizes the model ``q(v) = grad . (v - x) +
    (1/2) (v - x)^T hess (v - x) + l1_weight ||v||_1``, exactly; ``hess``
    must be symmetric, and positive definite on the coordinates whose slope
    can exceed ``l1_weight``.  No model query.

    Feature-sign search (Lee, Battle, Raina & Ng 2007) keeps a sign pattern
    s, first that of ``start``, and solves q with the l1 term fixed by s on
    its support S: ``hess_SS t_S = (hess x)_S - grad_S - l1_weight s_S``.
    When t has the signs s, the zero coordinate whose slope most exceeds
    ``l1_weight`` in size joins S with the sign opposite its slope, and when
    none does, t is the minimizer.  When a sign flips, the current point
    moves to whichever of t and the zero crossings on the way q rates
    lowest, and the coordinate that crossed leaves S.  Each step lowers q,
    so a step that cannot (rounding) ends the search at the current point,
    as do ``_MAX_ACTIVE_SET_STEPS`` steps.  A ``start`` with the minimizer's
    signs takes one solve.  As v minimizes q, ``q(v) <= q(x)``, and ``v -
    x`` is a descent direction of ``F = J + l1_weight ||.||_1`` at x
    wherever ``grad`` and ``hess`` are J's.
    """
    signs = np.sign(start)
    v, rhs = start, hess @ x - grad
    for _ in range(_MAX_ACTIVE_SET_STEPS):
        support = signs != 0
        target = np.zeros_like(x)
        target[support] = np.linalg.solve(hess[np.ix_(support, support)],
                                          (rhs - l1_weight * signs)[support])
        if np.array_equal(np.sign(target), signs):
            v = target
            slope = grad + hess @ (v - x)
            excess = np.where(support, -np.inf, np.abs(slope) - l1_weight)
            j = int(np.argmax(excess))
            if excess[j] <= 0.0:
                return v
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
            return v
        v = points[best]
        signs = np.sign(v)
    return v


def proximal_minimize(
    grad_fn,
    value_fn,
    dim: int,
    eta: float,
    nu: float,
    max_iter: int,
    tol: float,
    seed: int,
) -> _SolveState:
    """Proximal Gauss-Newton (Lee, Sun & Saunders 2014) with a halving line
    search.

    Minimizes ``F = J + eta*nu*||delta||_1`` given ``grad_fn(delta) -> (g,
    H)``, the gradient of J and a positive definite curvature, and
    ``value_fn(delta) -> J``.  One iteration at the accepted point x takes
    ``grad_fn`` there, then solves the l1-penalized quadratic model ``min_z
    g.(z - x) + (1/2)(z - x)^T H (z - x) + eta*nu*||z||_1`` with no model
    query (:func:`_solve_l1_quadratic`, exactly, from the last z's support
    and signs), so that ``z - x`` is a descent direction of F.  When the
    move ``max |z - x|`` is below ``tol`` the solve has converged and the
    result is x.  Otherwise F is evaluated at ``x + s (z - x)`` for s = s0,
    s0/2, s0/4, ..., where s0 <= 1 keeps the first step within 0.5 of the
    start in every coordinate and each later one within twice the last
    accepted step; the first candidate with ``F <= F(x)`` becomes the new
    x, so ``F(x)``, the trace, never rises.  A step halved until it moves
    less than ``tol`` ends the solve the same way, as converged at x; a
    direction that F rejects at every s down to s0 / 2**20 raises
    :class:`DivergenceError`, since then ``grad_fn`` disagrees with
    ``value_fn``.  ``delta`` starts at small seeded uniform noise in
    [-1e-3, 1e-3], which keeps the sign-selection behaviour of the l1 term
    intact.

    ``grad_fn`` is asked at the start, and at the first candidate of a line
    search before ``value_fn`` there when the previous line search accepted
    its first candidate (the first line search counts as trusted) and the
    iteration is not the ``max_iter``-th: if that candidate is accepted, its
    ``(g, H)`` serve the next iteration.  Other accepted points get their
    ``grad_fn`` call at the next iteration.  With
    :func:`counterfactual_objective` the batch of ``grad_fn`` at a new point
    also holds the values F needs there, so the start and each candidate
    cost one batch, and each point accepted without its gradient one more:
    a converged solve sends ``iterations + halvings`` batches plus one after
    each acceptance that was halved or not trusted, and a rejected first
    candidate that carried its gradient costs its displaced points and no
    extra batch.  The gate bounds the batches by the ``1 + 2 (iterations -
    1) + halvings`` of asking ``grad_fn`` at each accepted point.  A
    non-finite F at the start raises :class:`DivergenceError` (the model
    handle refuses non-finite outputs, so the loss itself overflowed); a
    non-finite candidate only fails the comparison and is halved.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_INIT_STREAM,))
    )
    x = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=dim)
    l1_weight = eta * nu

    def penalized(d):
        return value_fn(d) + l1_weight * float(np.abs(d).sum())

    grad, hess = grad_fn(x)
    f_x = penalized(x)
    if not math.isfinite(f_x):
        raise DivergenceError(
            f"objective is {f_x!r}: a residual or its square overflows the "
            "float range; rescale the targets"
        )
    trace = [f_x]
    z, reach = x, _FIRST_REACH
    converged = False
    halvings = 0
    iterations = 0
    # grad, hess are at x; trusted: the last line search took its first step
    fresh = trusted = True
    for iterations in range(1, max_iter + 1):
        if not fresh:
            grad, hess = grad_fn(x)
        z = _solve_l1_quadratic(grad, hess, x, l1_weight, z)
        direction = z - x
        move = float(np.max(np.abs(direction)))
        first = min(1.0, reach / move) if move else 1.0
        speculate = trusted and iterations < max_iter
        for halved in range(_MAX_HALVINGS + 1):
            step = first * 0.5**halved
            if step * move < tol:
                break
            candidate = x + step * direction
            if speculate and halved == 0:
                ahead = grad_fn(candidate)
            f_c = penalized(candidate)
            if f_c <= f_x:
                break
            halvings += 1
        else:
            raise DivergenceError(
                f"objective rose at each of {_MAX_HALVINGS + 1} ever shorter steps "
                "along a search direction, so the gradient estimate disagrees "
                "with the objective's values; try a smaller --grad-std or more "
                "--grad-samples"
            )
        if step * move < tol:
            converged = True
            break
        trusted = halved == 0
        fresh = speculate and trusted
        if fresh:
            grad, hess = ahead
        x, f_x = candidate, f_c
        reach = 2.0 * step * move
        trace.append(f_x)
    return _SolveState(x, iterations, converged, np.asarray(trace), halvings)


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
    queries_before, calls_before = model.query_count, model.call_count
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
        hp.max_iter,
        hp.tol,
        grad_cfg.seed,
    )
    return AttributionResult(
        delta_star=state.delta,
        iterations=state.iterations,
        converged=state.converged,
        objective_trace=state.trace,
        halvings=state.halvings,
        query_count=model.query_count - queries_before,
        call_count=model.call_count - calls_before,
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
    their MAP values: one model batch of ``n_test x grid_points`` rows, whose
    non-finite output the model handle refuses with
    :class:`~anomattr.models.NonFiniteModelOutput` naming the input.  It is
    stabilized by subtracting its maximum, exponentiated and normalized to
    sum to one.  The grid spans ``delta_max_factor * max_k
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
        resid = testset.y[:, None] - fvals
        for loss in (2 * hp.a0 + 1) / 2.0 * np.log1p(resid**2 / (2 * rates[:, None])):
            log_q -= loss
        probs = np.exp(log_q - np.max(log_q))
        probs /= probs.sum()
        dists.append(ScoreDistribution(k, grid, probs))
    return dists
