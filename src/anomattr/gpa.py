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
* ``H`` leaves out the residual-weighted model curvature ``-sum_t w_t r_t
  (model Hessian at row t)``.  A structured secant estimate ``C`` of that
  term (Dennis, Gay & Welsch 1981) comes from the gradient batches
  themselves: each new batch makes the Powell-symmetric-Broyden change to
  ``C`` that matches the change of ``-G^T (w * r)`` since the last batch.
  It costs no query.  A step takes ``B = H + C`` when the last accepted
  step lowered F by less than a fifth and ``H + C`` is positive definite,
  and ``B = H`` otherwise (the hybrid test of Fletcher & Xu 1987).
* The step solves the l1-penalized quadratic model of F around the
  iterate x, ``min_z grad J . (z - x) + (1/2)(z - x)^T B (z - x) + eta nu
  ||z||_1``, exactly and with no model query, by feature-sign search:
  dense solves on an active set that starts from the support and signs of
  the last step's z, so one solve suffices once the support settles.
* A line search on F along ``x + s (z - x)``, s = 1, 1/2, 1/4, ...,
  accepts the first candidate that does not raise F.  A reach limits the
  steps: the first moves no coordinate by more than 0.5 input units, each
  later one at most twice as far as the last accepted step, and the line
  search starts below s = 1 where the full step would go further.
* The solve stops when ``max |z - x| < tol``: x then satisfies the
  optimality conditions of F to about ``B`` times tol.

Plain Gauss-Newton steps converge linearly near the solution, at a rate set
by the curvature that ``H`` leaves out, and where the residuals stay large
that rate is slow: the three ``collective-builtin`` benchmark problems take
30, 16 and 34 iterations with ``H`` alone.  Near the solution F falls by
less than a fifth per step there, so the steps take ``H + C``, and the same
problems take 18, 11 and 16 iterations to the same F (within 1e-12
relative), support and signs.  Where the residuals vanish at the solution,
as on the closed-form sinusoid rows, ``H`` is nearly exact: 240 such rows
of the benchmark's kind send the same calls and queries either way.

On a model that makes F nonconvex, a full Newton step from a start where
the slope is small against the residual can cross the nearest root: on the
sinusoid at x = (0.05, 0), y = -1.14 it jumps to delta = 3.1, and the solve
ends at a stationary point with 8 times the F of the nearest root (0.64,
0).  The reach keeps such steps in the start's basin; converging steps
shrink, so it does not bind near the solution.  Even so, on a nonconvex F
the solver can end at another stationary point than a short-step descent
would, with lower or higher F.

Per-variable uncertainty comes from slicing the unnormalized posterior along
one coordinate through the MAP point and normalizing it on a symmetric grid:
a table of one row per variable (:func:`score_distributions`).

The query plan.  One run queries the model in one plan: the gamma rates
from one residual batch (none for an explicit ``b0``), then the solver, then
the slices, which reuse the run's rates.  Each is a run that yields its
rows, and no function here takes the model: the caller drives the runs
(:func:`~anomattr.models.drive`), as ``dist`` drives the slices behind the
solve in one run.  The objective's ``grad_run``, ``value_run`` and
``confirm_run`` each ask for one batch, and :func:`proximal_minimize` over
them is the solve's run.
:func:`map_estimate`'s run is the rate run and the solve in lockstep
(:func:`~anomattr.models.lockstep`), the rates first, so the residual rows
ride at the front of the solver's first batch: the rates cost their rows
and no call, and they have their answers, and are set, before the solve
reads its own.  The driver builds the step's batch in one array, the rate
rows in front and the estimator's rows behind them, so no copy of the batch
is made.  In ``explain`` and ``compare`` the other methods' runs go in the
same steps, in the order the :mod:`anomattr.cli` docstring gives.
:meth:`CounterfactualObjective.record` alone counts a solve, gpa's or
lc's, by :func:`~anomattr.models.counted`, and :func:`map_estimate` adds
its rate rows: :attr:`AttributionResult.query_count` is the rate rows plus
the solve's rows and ``call_count`` the solve's steps.
:func:`~anomattr.models.gradient_rows` alone sizes a gradient batch, and
:func:`score_distributions` alone holds the slices' rule: ``P = max(1, (1 +
m mc_samples) // grid_points)`` whole variables to a batch, so that none is
larger than the solver's first, all-draws gradient batch of ``n (1 + m
mc_samples)`` rows.  At the defaults (10 draws, 100 grid points) and m =
30, P = 3: 10 batches of 6,000 rows against the solver's 6,020; on the
two-variable sinusoid P = 1.  The solver's batches come from
:class:`CounterfactualObjective`:

* The start sends one batch, which gives both the objective and its
  gradient there, and each candidate step sends one.  The first candidate of
  a line search also carries the displaced points of its gradient, so that
  an accepted step needs no further batch, unless the previous line search
  rejected its first candidate or no iteration follows (the ``max_iter``-th
  sends its candidate alone).  A point accepted without its gradient sends
  one batch of displaced points for it; a rejected first candidate that
  carried its gradient costs those points and no batch.
* So a converged solve sends ``iterations + halvings`` batches, plus one
  after each acceptance that was halved or not trusted, plus one per
  confirmation; where its line searches take their first step, that is one
  per iteration plus the confirmations.  It is never more than the ``1 + 2
  (iterations - 1) + halvings`` of asking for the gradient at each accepted
  point, plus the confirmations.
* The gradient estimator's ``mc_samples`` draws are sign-paired, so a
  coordinate's estimate is the mean of ``mc_samples / 2`` central
  differences.  The start's batch sends every draw.  A coordinate whose pair
  slopes agree there to ``sqrt(eps)`` (1.5e-8) of its largest slope sends
  only its first pair in the later batches, and that pair's slope is its
  estimate (after Byrd, Chin, Nocedal & Wu 2012, and Bollapragada, Byrd &
  Nocedal 2018: extra draws only where they disagree).  Where the solver
  would stop on such a batch, one confirmation batch sends the missing
  draws at that point; the solve stops only if the all-draws step is below
  ``tol`` too, and the pairs are judged anew from that batch.  Pair draws
  change only at the first batch and at a confirmation.

On a quadratic model the pairs agree to about 1e-13, so the three
``collective-builtin`` solves send 31,580, 23,040 and 29,140 queries, where
all draws took 108,380, 66,240 and 96,340, and end within 1.4e-13 of the
all-draws delta*.  On the sinusoid the pairs differ by about (pi h)^2 / 6
relative, 1e-6 at ``--grad-std 0.001``, and by about half the slope at the
default 1, so there every batch sends every draw.

The model handle refuses non-finite output
(:class:`~anomattr.models.NonFiniteModelOutput`), so an objective that is
not finite has overflowed on finite outputs and raises DivergenceError.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .dataio import TestSet
from .models import GradientEstimatorConfig, counted, estimate_gradient, gradient_rows, lockstep

__all__ = [
    "DivergenceError",
    "GpaHyperParams",
    "AttributionResult",
    "init_gamma_rate",
    "refine_gamma_rate",
    "student_t_loss",
    "gaussian_loss",
    "CounterfactualObjective",
    "map_estimate",
    "score_distributions",
    "proximal_minimize",
]

_MAX_HALVINGS = 20
# a step takes the secant-corrected curvature H + C after an accepted step
# that lowered F by less than this share of F (Fletcher & Xu 1987)
_SECANT_SHARE = 0.2
# largest coordinate move of the first step; each later step may move up to
# twice as far as the last accepted one
_FIRST_REACH = 0.5
_MAX_ACTIVE_SET_STEPS = 10_000
_INIT_SCALE = 1e-3
_INIT_STREAM = 0x1A17
_RATE_FLOOR = 1e-6
# the posterior slices' grid reaches this multiple of the largest |delta*_k|,
# so the MAP point sits inside the grid with a margin on each side
_GRID_REACH = 1.1
_VARIANCE_FLOOR = 1e-6
# a coordinate's draws agree when their pair slopes spread over at most this
# share of its largest slope: five orders above the rounding of a quadratic
# model's pairs, two below the (pi h)^2 / 6 of the sinusoid's at h = 1e-3
_PAIR_AGREEMENT = math.sqrt(np.finfo(float).eps)


class DivergenceError(RuntimeError):
    """The solver cannot proceed: the objective overflows, or it rises along
    a search direction however short the step."""


@dataclass(frozen=True)
class GpaHyperParams:
    """Solver and prior settings.

    ``eta`` is the l2 prior strength, ``nu`` the relative l1 strength (the
    l1 weight is ``eta * nu``) and ``a0`` the gamma shape (``2 a0`` acts as
    the t-distribution's degrees of freedom).  The gamma rate ``b`` is
    the explicit ``b0`` or else estimated from the test residual variance
    divided by the virtual-sample count ``c_b`` (``b_mode="constant"``), or
    refined per sample with a unit-width Gaussian kernel
    (``b_mode="local_kernel"``, which refuses a ``b0``).  The solver,
    proximal Gauss-Newton (:func:`proximal_minimize`), takes Newton steps,
    halved only where they raise the objective, so it needs no step size; it
    stops after ``max_iter`` iterations or once a step moves no coordinate
    by ``tol``.  ``grid_points`` sizes the posterior slices.  Each field is
    a flag of ``dist`` and, but ``grid_points``, of ``explain`` and ``compare``.
    """

    eta: float = 0.1
    nu: float = 0.5
    a0: float = 5.5
    b_mode: str = "constant"
    b0: float | None = None
    c_b: float = 10.0
    max_iter: int = 10_000
    tol: float = 1e-6
    grid_points: int = 100

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ValueError("nu must be in (0, 1]")
        if self.eta <= 0 or self.a0 <= 0 or self.c_b <= 0:
            raise ValueError("eta, a0 and c_b must be positive")
        if self.b_mode not in ("constant", "local_kernel"):
            raise ValueError(f"unknown b_mode {self.b_mode!r}")
        if self.b0 is not None and self.b0 <= 0:
            raise ValueError("b0 must be positive when given")
        if self.b0 is not None and self.b_mode != "constant":
            raise ValueError("b0 applies only to b_mode 'constant'")
        if self.grid_points < 3:
            raise ValueError("grid_points must be >= 3")
        if self.max_iter < 1 or self.tol <= 0:
            raise ValueError("max_iter and tol must be positive")

    @classmethod
    def for_testset(cls, n_test: int, **overrides) -> "GpaHyperParams":
        """The defaults with eta scaled by the collective size, eta = 0.1 *
        n_test."""
        return cls(**{"eta": 0.1 * n_test, **overrides})


@dataclass
class AttributionResult:
    """The record of one counterfactual solve, of :func:`map_estimate` or of
    :func:`~anomattr.baselines.lc`, by :meth:`CounterfactualObjective.record`.

    ``query_count`` (points) and ``call_count`` (model calls) count the
    run's queries, a :func:`map_estimate` run's rate queries included, and
    the calls that carried them, which in lockstep carry other runs' rows
    too;
    ``halvings`` counts the candidate steps the solver's line search
    rejected, and ``secant_steps`` the iterations whose step took the
    secant-corrected curvature ``H + C``.  ``one_pair_batches`` counts the
    gradient batches in which some coordinate sent one pair of draws, and
    ``confirmations`` the batches that sent the missing draws where the
    solve would stop.  The module docstring gives the query plan these counts
    follow.  ``rates`` are a :func:`map_estimate` run's gamma rates, None for
    lc; the slices' run (:func:`score_distributions`) takes them, in the same
    drive as the solve or a later one."""

    delta_star: np.ndarray
    iterations: int
    converged: bool
    objective_trace: np.ndarray
    halvings: int
    secant_steps: int
    one_pair_batches: int
    confirmations: int
    query_count: int
    call_count: int
    rates: np.ndarray | None

    @property
    def diagnostics(self) -> dict:
        """The record's entries of a document's diagnostics, by name."""
        return {k: getattr(self, k) for k in (
            "iterations", "halvings", "secant_steps", "one_pair_batches",
            "confirmations", "converged", "query_count", "call_count")}


def init_gamma_rate(resid, a0: float, c_b: float) -> float:
    """Constant gamma rate b0 = a0 * sigma^2 / c_b from the residuals
    ``resid`` (no model query), sigma^2 their mean square, or 1e-6 where
    that is exactly 0; a mean square of 1e-10 stays 1e-10."""
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
    iters: int = 100,
    rel_tol: float = 1e-6,
) -> float:
    """Anchor-local gamma rate from the other rows' residuals (no query).

    Iterates ``1/b <- ((2 a0 + 1) / a0) * sum_{n != anchor} w_n / (2 b +
    r_n^2)`` with kernel weights ``exp(-||x_n - x_anchor||^2 / 2)``
    normalized over the included samples, until the relative change drops
    below ``rel_tol`` or ``iters`` rounds pass.  The map is a contraction,
    so tightening ``rel_tol`` buys precision.  The result is floored at
    ``1e-6 * b_init`` (all-zero residuals drive b to 0).  The weights are
    computed relative to the nearest other row, which the normalization
    cancels, so a row far from all others still gets finite weights.
    """
    x, resid = np.asarray(x, dtype=float), np.asarray(resid, dtype=float)
    if len(resid) < 2:
        raise ValueError(
            "refine_gamma_rate needs at least two samples; use init_gamma_rate"
        )
    others = np.arange(len(resid)) != anchor
    resid = resid[others]
    dist2 = np.sum((x[others] - x[anchor]) ** 2, axis=1)
    weights = np.exp(-(dist2 - dist2.min()) / 2.0)
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


def _resolve_rates(testset: TestSet, hp: GpaHyperParams, rates: np.ndarray):
    """The run that fills ``rates`` with the per-sample gamma rates b(x^t)
    of the configured mode, all from one batch of residual rows, and returns
    them; it asks for nothing for an explicit ``b0``."""
    if hp.b0 is not None:
        rates[:] = hp.b0
        return rates
    resid = testset.y - (yield testset.x)
    b_init = init_gamma_rate(resid, hp.a0, hp.c_b)
    if hp.b_mode == "constant":
        rates[:] = b_init
    else:
        rates[:] = [refine_gamma_rate(testset.x, resid, hp.a0, b_init, t)
                    for t in range(testset.n_test)]
    return rates


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


class CounterfactualObjective:
    """``J(delta) = (eta/2) ||delta||^2 + sum_t loss(y_t - f(x_t + delta))``
    over the rows of the ``(n, m)`` array ``x``, with the three callables
    :func:`proximal_minimize` takes, each returning a run
    (:func:`~anomattr.models.drive`): ``grad_run``, ``value_run`` and
    ``confirm_run``, whose results are called ``grad``, ``value`` and
    ``confirm`` below; :meth:`record` records a solve over them.

    ``loss`` is a (value, weight) pair such as :func:`student_t_loss`; the
    l1 term is left to the solver.  ``grad(delta)`` returns ``(g, H, C)``:
    the gradient ``g = eta delta - G^T (w * r)``, the Gauss-Newton curvature
    ``H = eta I + G^T diag(w) G`` and the secant correction ``C``, where row
    t of ``G`` is the estimated model gradient at ``x_t + delta``, ``r`` the
    residuals and ``w`` the loss weights there.  ``C`` is a symmetric m x m
    estimate of the curvature that ``H`` leaves out; it is 0 at the first
    call, and each call updates it from the last call's delta and ``G``
    (:func:`_secant_correction`), so it belongs to one solve.  ``G`` comes
    from one estimator call, which is one model batch, and ``H`` and ``C``
    cost no further query.  ``grad`` and ``value`` share a one-entry memo of
    the model values and J at the last delta either of them evaluated:
    ``grad`` at a new delta sends the rows ``x_t + delta`` with their
    displaced points and remembers their values, so ``value`` there queries
    nothing (the solver asks ``grad`` first at the candidate steps whose
    gradient it expects to need); ``grad`` at the delta of the last
    ``value`` sends the displaced points alone.  A loss that overflows gives
    an infinite J without a numpy warning.

    The first ``grad`` sends every draw, and its slopes set the draws of the
    later ones (:func:`_pair_draws`): the first pair of each coordinate whose
    pairs agree, every draw of the others.  ``one_pair_batches`` counts the
    batches that left draws out.  ``confirm(delta)``, at a delta of one of
    the last two ``grad`` calls, returns None when that gradient used every
    draw.  Otherwise it sends the missing draws there in one batch, returns
    the all-draws ``(g, H, C)`` and sets the later draws anew from them.
    The module docstring gives the query plan.
    """

    def __init__(self, x, y, eta: float, loss, grad_cfg: GradientEstimatorConfig):
        self._cfg, self._eta = grad_cfg, eta
        self._x, self._y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        self._m = self._x.shape[1]
        self._loss_value, self._loss_weight = loss
        self._key = self._fvals = self._value = None
        self._secant = _secant_correction(self._m)
        # the draw mask of the later batches (None: every draw), set by the
        # first batch and by each confirmation
        self._send = None
        # (delta key, values, slopes, send) of the last gradient batches
        self._recent = deque(maxlen=2)
        self.one_pair_batches = 0

    def value_run(self, delta):
        if delta.tobytes() != self._key:
            self._remember(delta, (yield self._x + delta).copy())
        return self._value

    def grad_run(self, delta):
        key, send = delta.tobytes(), self._send
        slopes = np.zeros((len(self._x), self._m, self._cfg.mc_samples))
        memo = key == self._key
        fvals = self._fvals if memo else np.empty(len(self._x))
        grads = yield from estimate_gradient(
            self._x + delta, self._cfg, f0=fvals if memo else None,
            values=None if memo else fvals, slopes=slopes, send=send)
        if not memo:
            self._remember(delta, fvals)
        if not self._recent:
            self._send = _pair_draws(slopes)
        elif send is not None:
            self.one_pair_batches += 1
        self._recent.append((key, fvals, slopes, send))
        return self._derivatives(delta, fvals, grads)

    def confirm_run(self, delta):
        key = delta.tobytes()
        found = [entry for entry in self._recent if entry[0] == key]
        if not found:
            raise ValueError("confirm takes a delta of one of the last two gradients")
        _, fvals, slopes, send = found[-1]
        if send is None:
            return None
        yield from estimate_gradient(
            self._x + delta, self._cfg, f0=fvals, slopes=slopes, send=~send)
        self._send = _pair_draws(slopes)
        self._recent.append((key, fvals, slopes, None))
        return self._derivatives(delta, fvals, slopes.sum(axis=2) / self._cfg.mc_samples)

    def record(self, solve):
        """The run of ``solve``, a :func:`proximal_minimize` of this objective,
        whose result is its :class:`AttributionResult`: the solve's rows and
        steps by :func:`~anomattr.models.counted`, and ``rates`` None."""
        state, rows, steps = yield from counted(solve)
        return AttributionResult(state.delta, state.iterations, state.converged, state.trace,
                                 state.halvings, state.secant_steps, self.one_pair_batches,
                                 state.confirmations, rows, steps, None)

    def _remember(self, delta, model_values):
        self._key, self._fvals = delta.tobytes(), model_values
        with np.errstate(over="ignore"):
            resid = self._y - model_values
            self._value = 0.5 * self._eta * float(delta @ delta) + self._loss_value(resid)

    def _derivatives(self, delta, fvals, grads):
        # a delta whose J is not finite never uses its gradient
        with np.errstate(over="ignore", invalid="ignore"):
            resid = self._y - fvals
            weight = self._loss_weight(resid)
            slope = weight * resid
            hess = grads.T @ (weight[:, None] * grads)
            hess[np.diag_indices(len(delta))] += self._eta
            return self._eta * delta - slope @ grads, hess, self._secant(delta, grads, slope)


def _pair_draws(slopes):
    """The draw mask of the later gradient batches, from the ``(rows, m,
    mc_samples)`` draw ``slopes`` of an all-draws batch: the first pair of a
    coordinate whose draws agree, every draw of the others; None where no
    coordinate's draws agree.  The draws agree where the spread of their
    pair slopes (a trailing unpaired draw counts as a pair), at the row where
    it is largest, is at most ``sqrt(eps)`` times the largest all-draws
    estimate ``|mean slope|`` over the rows.  No model query."""
    mc = slopes.shape[2]
    if mc <= 2:
        return None
    pairs = slopes[..., 0::2].copy()
    pairs[..., : mc // 2] += slopes[..., 1::2]
    pairs[..., : mc // 2] /= 2.0
    with np.errstate(invalid="ignore"):  # spread of infinite slopes: keep all
        spread = np.max(pairs.max(axis=2) - pairs.min(axis=2), axis=0)
        scale = np.max(np.abs(slopes.sum(axis=2) / mc), axis=0)
        agree = spread <= _PAIR_AGREEMENT * scale
    send = np.ones(slopes.shape[1:], dtype=bool)
    send[agree, 2:] = False
    return send if agree.any() else None


def _secant_correction(dim: int):
    """``update(delta, grads, slope) -> C``: the structured secant estimate
    (Dennis, Gay & Welsch 1981) of the curvature that the Gauss-Newton ``H``
    leaves out, ``-sum_t slope_t (model Hessian at row t)``, where ``grads``
    holds the model gradients at the rows ``x_t + delta`` and ``slope`` the
    loss slopes ``w * r`` there.

    ``C`` starts at 0.  Each later call makes the Powell-symmetric-Broyden
    change to ``C`` that gives ``C s = y#``, with ``s = delta - delta_prev``
    and ``y# = -(grads - grads_prev)^T slope``, the change of the
    loss-weighted model-gradient term along s.  It skips the change where s
    = 0, or where the result is not finite, as where a slope is not.  ``C``
    stays exactly symmetric, and exactly 0 while ``grads`` stay the same.
    No model query.
    """
    corr = np.zeros((dim, dim))
    last = None

    def update(delta, grads, slope):
        nonlocal corr, last
        if last is not None:
            s = delta - last[0]
            ss = float(s @ s)
            if ss > 0.0:
                u = (last[1] - grads).T @ slope - corr @ s
                half = np.outer(u / ss, s)
                new = corr + (half + half.T) - (float(u @ s) / ss / ss) * np.outer(s, s)
                if np.isfinite(new).all():
                    corr = new
        last = delta.copy(), grads
        return corr

    return update


@dataclass
class _SolveState:
    delta: np.ndarray
    iterations: int
    converged: bool
    trace: np.ndarray
    halvings: int
    secant_steps: int
    confirmations: int


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
    signs takes one solve.  A coordinate joins S only when its slope
    exceeds ``l1_weight`` by more than the slope's rounding bound, and an
    entry of the result within that bound times ``|hess_SS^-1|`` of 0 is
    0: where a zero coordinate's slope is ``l1_weight`` in size exactly,
    rounding neither cycles the search nor leaves +-1e-16 there.  As v
    minimizes q, ``q(v) <= q(x)``, and ``v - x`` is a descent direction of
    ``F = J + l1_weight ||.||_1`` at x wherever ``grad`` and ``hess`` are J's.
    """
    signs = np.sign(start)
    v, rhs = start, hess @ x - grad
    abs_grad, abs_hess, abs_x = np.abs(grad), np.abs(hess), np.abs(x)

    def rounding(v):  # error bound of grad + hess (v - x) and of a solve's residual
        return len(x) * np.finfo(float).eps * (abs_grad + abs_hess @ (np.abs(v) + abs_x))

    for _ in range(_MAX_ACTIVE_SET_STEPS):
        support = signs != 0
        active = np.flatnonzero(support)
        target = np.zeros_like(x)
        target[active] = np.linalg.solve(hess[active[:, None], active],
                                         (rhs - l1_weight * signs)[active])
        if (np.sign(target) == signs).all():
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
    active = np.flatnonzero(v)
    error = np.zeros_like(v)
    error[active] = np.abs(np.linalg.inv(hess[active[:, None], active])) @ rounding(v)[active]
    return np.where(np.abs(v) > error, v, 0.0)


def proximal_minimize(grad_fn, value_fn, confirm_fn, dim: int, hp: GpaHyperParams,
                      seed: int):
    """Proximal Gauss-Newton (Lee, Sun & Saunders 2014) with a halving line
    search, as a run (:func:`~anomattr.models.drive`) whose result is the
    solve's ``_SolveState``.

    Minimizes ``F = J + eta*nu*||delta||_1`` (``eta``, ``nu``, ``max_iter``
    and ``tol`` from ``hp``) given ``grad_fn(delta) -> (g, H, C)``, the
    gradient of J, a positive definite curvature and a symmetric correction
    to it (zeros where there is none; see :class:`CounterfactualObjective`),
    ``value_fn(delta) -> J`` and ``confirm_fn``, below.  Each callable
    returns a run that asks for the model rows it needs and returns that
    result, as ``CounterfactualObjective.grad_run`` does.  One
    iteration at the accepted point x takes ``grad_fn`` there and picks the
    curvature B: ``H + C`` when the last accepted step lowered F by less
    than ``0.2 F`` (Fletcher & Xu 1987) and ``H + C`` has a Cholesky factor,
    else ``H``; the first iteration takes ``H``.  ``secant_steps`` counts
    the iterations that took ``H + C``.  It then solves the l1-penalized
    quadratic model ``min_z g.(z - x) + (1/2)(z - x)^T B (z - x) +
    eta*nu*||z||_1`` with no model query (:func:`_solve_l1_quadratic`,
    exactly, from the last z's support and signs), so that ``z - x`` is a
    descent direction of F.  When the
    move ``max |z - x|`` is below ``tol`` the solve has converged and the
    result is x.  Otherwise F is evaluated at ``x + s (z - x)`` for s = s0,
    s0/2, s0/4, ..., where s0 <= 1 keeps the first step within 0.5 of the
    start in every coordinate and each later one within twice the last
    accepted step; the first candidate with ``F <= F(x)`` becomes the new
    x, so ``F(x)``, the trace, never rises.  A step halved until it moves
    less than ``tol`` ends the solve the same way, as converged at x,
    unless ``confirm_fn(x)`` returns a gradient: where ``grad_fn`` may
    estimate less well than it can, ``confirm_fn(x)`` gives the better ``(g,
    H, C)`` at x, or None if there is none, and the iteration solves and
    searches again from it, so the solve stops only where that step is below
    ``tol`` too; a solve with nothing to confirm passes a ``confirm_fn``
    whose run returns None.  ``confirm_fn`` is asked at most once per
    iteration, and it is no ``grad_fn`` call; ``confirmations`` counts the
    gradients it gave.
    A direction that F rejects at every s down to s0 / 2**20 raises
    :class:`DivergenceError`, since then ``grad_fn`` disagrees with
    ``value_fn``.  ``delta`` starts at small seeded uniform
    noise in [-1e-3, 1e-3], which keeps the sign-selection behaviour of the
    l1 term intact.

    ``grad_fn`` is asked at the start, and at the first candidate of a line
    search before ``value_fn`` there when the previous line search accepted
    its first candidate (the first line search counts as trusted) and the
    iteration is not the ``max_iter``-th: if that candidate is accepted, its
    ``(g, H, C)`` serve the next iteration.  Other accepted points get their
    ``grad_fn`` call at the next iteration, so a solve whose line searches
    take their first step calls ``grad_fn`` once per iteration.  The module
    docstring gives the model batches this makes with
    :class:`CounterfactualObjective`.  A non-finite F at the start raises
    :class:`DivergenceError` (the model handle refuses non-finite outputs, so
    the loss itself overflowed); a non-finite candidate only fails the
    comparison and is halved.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_INIT_STREAM,))
    )
    x = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=dim)
    l1_weight, max_iter, tol = hp.eta * hp.nu, hp.max_iter, hp.tol

    def penalized(d):
        return (yield from value_fn(d)) + l1_weight * float(np.abs(d).sum())

    grad, hess, corr = yield from grad_fn(x)
    f_x = yield from penalized(x)
    if not math.isfinite(f_x):
        raise DivergenceError(
            f"objective is {f_x!r}: a residual or its square overflows the "
            "float range; rescale the targets"
        )
    trace = [f_x]
    z, reach = x, _FIRST_REACH
    converged = False
    halvings = secant_steps = iterations = confirmations = 0
    # grad, hess, corr are at x; trusted: the last line search took its
    # first step; slow: the last accepted step lowered F by a small share
    fresh = trusted = True
    slow = False
    for iterations in range(1, max_iter + 1):
        if not fresh:
            grad, hess, corr = yield from grad_fn(x)
        confirm = confirm_fn
        while True:  # twice where confirm_fn gives another gradient at x
            secant = slow and _positive_definite(hess + corr)
            z = _solve_l1_quadratic(grad, hess + corr if secant else hess, x, l1_weight, z)
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
                    ahead = yield from grad_fn(candidate)
                f_c = yield from penalized(candidate)
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
            if step * move >= tol:
                break
            confirmed = (yield from confirm(x)) if confirm is not None else None
            if confirmed is None:
                converged = True
                break
            grad, hess, corr = confirmed
            confirm = None
            confirmations += 1
        secant_steps += secant
        if converged:
            break
        trusted = halved == 0
        fresh = speculate and trusted
        if fresh:
            grad, hess, corr = ahead
        slow = f_x - f_c < _SECANT_SHARE * f_x
        x, f_x = candidate, f_c
        reach = 2.0 * step * move
        trace.append(f_x)
    return _SolveState(x, iterations, converged, np.asarray(trace), halvings,
                       secant_steps, confirmations)


def _positive_definite(a) -> bool:
    """Whether the symmetric ``a`` has a Cholesky factor."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def map_estimate(testset: TestSet, hp: GpaHyperParams, grad_cfg: GradientEstimatorConfig):
    """The run of the MAP perturbation shared by all samples of ``testset``,
    whose result is its :class:`AttributionResult`: the
    :class:`CounterfactualObjective` under the :func:`student_t_loss`,
    minimized by :func:`proximal_minimize`.  The run is the rate run and the
    solve in lockstep, the rates first (module docstring)."""
    if testset.n_test == 0:
        raise ValueError("testset must be nonempty")
    rates = np.empty(testset.n_test)
    objective = CounterfactualObjective(testset.x, testset.y, hp.eta,
                                        student_t_loss(hp.a0, rates), grad_cfg)
    solve = proximal_minimize(objective.grad_run, objective.value_run,
                              objective.confirm_run, testset.dimension, hp, grad_cfg.seed)

    def run():  # the rate rows ride the solve's first step: their rows count, no call
        (_, rate_rows, _), result = yield from lockstep(
            [counted(_resolve_rates(testset, hp, rates)), objective.record(solve)])
        result.query_count, result.rates = result.query_count + rate_rows, rates
        return result

    return run()


def score_distributions(delta_star, testset: TestSet, hp: GpaHyperParams, rates,
                        grad_cfg: GradientEstimatorConfig):
    """The run of the per-variable posterior slices through the MAP point,
    under the gamma ``rates`` of the MAP run (:attr:`AttributionResult.rates`,
    any array-like of one rate per row), whose result is ``(grid, probs)``:
    the one grid of shape ``(grid_points,)`` that all variables share, and
    ``probs`` of shape ``(m, grid_points)``, row k the slice along variable k.

    The grid is symmetric about 0 and spans ``1.1 max_k |delta*_k|``; a
    fully normal sample (``delta* ~ 0``) falls back to one standardized
    unit so the slices stay informative.  Along variable k the log
    posterior (including the l1-augmented prior) is evaluated on the grid
    while the other coordinates stay at their MAP values: ``n_test x
    grid_points`` rows ``x_t + delta*`` with ``x_t[k] + grid`` in column k.
    No batch is larger than the first, all-draws gradient batch of the MAP
    run under ``grad_cfg`` (:func:`~anomattr.models.gradient_rows`): a batch
    holds as many whole variables as fit in its rows, at least one, in
    variable order and, within a variable, by row and grid point, so the
    queries are the one-variable batches' end to end.  The first batch is a
    ``((rows, m), fill)`` pair, so the driver builds it once it has let go
    of the last step's rows, and its rows, which hold ``x_t + delta*``
    between batches, are the buffer of every later batch: the run yields
    views of it, which go uncopied, and holds one batch's rows at a time.
    The model handle refuses non-finite output with
    :class:`~anomattr.models.NonFiniteModelOutput` naming the first input
    that got one, the same input as with one variable per batch.  The slice
    is stabilized by subtracting its maximum, exponentiated and normalized
    to sum to one; one that overflows at every grid point raises ValueError
    naming the variable.
    """
    delta_star = np.asarray(delta_star, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if not np.all(np.isfinite(delta_star)):
        raise ValueError("delta_star must be finite")
    peak = float(np.max(np.abs(delta_star)))
    delta_max = _GRID_REACH * peak if peak >= 1e-9 else 1.0
    grid = np.linspace(-delta_max, delta_max, hp.grid_points)
    grid = 0.5 * (grid - grid[::-1])  # exact symmetry about 0

    n, m, x = testset.n_test, testset.dimension, testset.x
    pack = max(1, min(m, gradient_rows(n, m, grad_cfg, values=True) // (n * hp.grid_points)))
    buf = None  # the first batch's rows, where fill wrote them

    def slide(ks):  # variable j of the batch takes the grid in its column k
        for j, k in enumerate(ks):
            buf[j, :, :, k] = x[:, k, None] + grid

    def fill(out):
        nonlocal buf
        buf = out.reshape(pack, n, hp.grid_points, m)
        buf[...] = (x + delta_star)[:, None, :]
        slide(range(pack))

    def run():
        probs = np.empty((m, hp.grid_points))
        for first in range(0, m, pack):
            ks = range(first, min(first + pack, m))
            if first:
                slide(ks)
            rows = buf[: len(ks)].reshape(-1, m) if first else (
                (pack * n * hp.grid_points, m), fill)
            fvals = (yield rows).reshape(len(ks), n, hp.grid_points)
            for j, k in enumerate(ks):
                buf[j, :, :, k] = (x[:, k] + delta_star[k])[:, None]
                candidates = np.repeat(delta_star[None, :], hp.grid_points, axis=0)
                candidates[:, k] = grid
                log_q = -0.5 * hp.eta * np.sum(candidates**2, axis=1)
                log_q -= hp.eta * hp.nu * np.sum(np.abs(candidates), axis=1)
                resid = testset.y[:, None] - fvals[j]
                with np.errstate(over="ignore", invalid="ignore"):
                    for loss in (2 * hp.a0 + 1) / 2.0 * np.log1p(resid**2 / (2 * rates[:, None])):
                        log_q -= loss
                    q = np.exp(log_q - np.max(log_q))
                if not np.all(np.isfinite(q)):
                    raise ValueError(f"the log posterior along variable "
                                     f"{testset.variable_names[k]!r} overflows at every "
                                     "grid point: the residuals are too large for the rates")
                probs[k] = q / q.sum()
        return grid, probs

    return run()
