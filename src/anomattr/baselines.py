"""Comparison attribution methods applied to the deviation f(x) - y.

Local surrogate fits (plain and Bayesian), path-integrated gradients with
fixed or averaged baselines, Shapley values (exact or permutation-sampled),
the z-score, and a Gaussian-loss counterfactual shift.  All of them except
the last are insensitive to the observed target: shifting y only moves a
surrogate intercept or cancels in differences, and the implementations keep
that cancellation exact at machine precision.

Each method that queries the model returns a run
(:func:`~anomattr.models.drive`), and ``drive(model, [run])[0]`` is its
result.  The surrogates ask for their cloud (:func:`cloud_run`, which lime,
lime0 and baylime share and fit with :func:`lime_fit`, :func:`lime0_fit`
and :func:`baylime_fit`), Shapley for its coalitions or permutation walks
and ig for its one path, each in one step; so ``explain`` and ``compare``
run them in lockstep with the other methods, and their rows ride the first
call.  The path integrals send whole paths, the displaced points of each
path's points short of x_t, as many paths per batch as keep the batch
within ``_PATH_BATCH_NUMBERS`` model-input numbers (rows times m), and at
least one.  x_t, where every path ends, goes once, first in the first
batch.  :func:`~anomattr.models.gradient_rows` alone counts their rows: the
estimator sends a point itself only at an odd ``mc_samples``, where the
unpaired draw needs its value.  So ig sends one batch of
``(n_intervals + 1) m mc_samples`` rows, and eig over the 64-point lattice
of the benchmark's sinusoid sends 4, 16 paths of 2,000 rows each, so that
in ``compare`` it ends within the 4-5 steps of the gpa and lc solves.  lc
records its solve by :meth:`~anomattr.gpa.CounterfactualObjective.record`,
as gpa's :func:`~anomattr.gpa.map_estimate` does.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from .gpa import (
    CounterfactualObjective,
    GpaHyperParams,
    _solve_l1_quadratic,
    gaussian_loss,
    proximal_minimize,
)
from .models import GradientEstimatorConfig, estimate_gradient, gradient_rows

__all__ = [
    "ReferenceSet",
    "LimeConfig",
    "BaylimeResult",
    "lime",
    "lime0",
    "baylime_distributions",
    "integrated_gradient",
    "expected_integrated_gradient",
    "shapley_sampled",
    "z_score",
    "lc",
    "cloud_run",
    "lime_fit",
    "lime0_fit",
    "baylime_fit",
]

# exact Shapley enumeration cutoff: coalition values to evaluate
_EXACT_SV_BUDGET = 50_000
# model-input numbers (rows times m) in one batch of path-integral paths.
# Peak memory sets the limit, not the model: a step holds its batch, the
# model's answers and 64 KiB blocks, about 24 bytes a row at m = 2.  On the
# benchmark's sinusoid compare at seed 1 (3 runs each, 2 vCPUs), the peak
# RSS of one path per batch, 40.1 MiB, rose by 0.3 MiB with 8 of eig's 64
# paths per batch, 0.7 MiB with 16, 1.5 MiB with 32 and 3.1 MiB (+8%) with
# all 64 in one batch; an operation's traced peak was 0.24, 0.62, 1.02, 1.80
# and 3.36 MiB.  With 16, eig's 4 steps end within those of the gpa and lc
# solves beside it.  A path above the budget goes alone, so no batch is
# larger than the larger of one path, with x_t's rows in the first batch,
# and the budget
_PATH_BATCH_NUMBERS = 2**16


@dataclass
class ReferenceSet:
    """Samples standing in for the input distribution, equally weighted."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if self.samples.size == 0:
            raise ValueError("reference set must be nonempty")

    @property
    def effective_weights(self) -> np.ndarray:
        n = self.samples.shape[0]
        return np.full(n, 1.0 / n)


@dataclass(frozen=True)
class LimeConfig:
    """Local surrogate settings: cloud size, perturbation scale (standardized
    units), and l1 strength."""

    n_samples: int = 1000
    sampling_std: float = 0.3
    l1_strength: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if self.sampling_std <= 0:
            raise ValueError("sampling_std must be positive")
        if self.l1_strength < 0:
            raise ValueError("l1_strength must be nonnegative")


def _cloud(x_t, cfg: LimeConfig):
    """Standard-normal offsets around x_t and the cloud's rows there."""
    x_t = np.asarray(x_t, dtype=float)
    if cfg.n_samples < len(x_t) + 1:
        raise ValueError("n_samples must be at least dimension + 1 for a solvable fit")
    rng = np.random.default_rng(cfg.seed)
    offsets = rng.standard_normal((cfg.n_samples, len(x_t)))
    return offsets, x_t + cfg.sampling_std * offsets


def cloud_run(x_t, cfg: LimeConfig):
    """The run that asks for the one model batch of :func:`lime`,
    :func:`lime0` and :func:`baylime_distributions` at x_t under ``cfg``,
    the same for all three, and returns the cloud's standard-normal offsets
    around x_t and the model values there."""
    offsets, rows = _cloud(x_t, cfg)
    return offsets, (yield rows)


def lime(x_t, y_t: float, cfg: LimeConfig):
    """The run of the l1-regularized local surrogate slopes at (x_t, y_t):
    :func:`lime_fit` to a cloud around x_t.  The target value only shifts
    the surrogate intercept, so the scores do not depend on y_t."""
    del y_t  # absorbed by the intercept; see lime_fit
    return lime_fit(*(yield from cloud_run(x_t, cfg)), cfg)


def lime_fit(offsets, fvals, cfg: LimeConfig) -> np.ndarray:
    """The slopes of :func:`lime` from its cloud, ``cfg``'s standard-normal
    ``offsets`` around x_t and the model values ``fvals`` there (no model
    query).

    Fits the deviation f(x) - y_t with a lasso and returns the slope
    vector.  The target value only shifts the surrogate intercept (the
    lasso objective is convex, so the slopes are unique); the fit therefore
    runs on mean-centered model values, which keeps the returned scores
    exactly independent of y_t.  For the centered design D and values t of
    the n samples, the lasso ``(1/n) ||t - D beta||^2 + l1 ||beta||_1`` has
    curvature ``(2/n) D^T D`` and slope ``-(2/n) D^T t`` at 0; the solver's
    exact l1-penalized quadratic solve
    (:func:`anomattr.gpa._solve_l1_quadratic`) minimizes it, and a column
    without variance keeps a zero slope.
    """
    design = cfg.sampling_std * offsets
    design = design - design.mean(axis=0)
    centered = fvals - fvals.mean()
    scale = 2.0 / len(design)
    gram = scale * design.T @ design
    if not np.any(gram.diagonal()):
        raise ValueError("degenerate local design: all samples identical")
    zero = np.zeros(design.shape[1])
    return _solve_l1_quadratic(-scale * design.T @ centered, gram, zero,
                               cfg.l1_strength, zero)


def lime0(x_t, cfg: LimeConfig):
    """The run of the pure least-squares surrogate slopes (the l1-free limit
    of :func:`lime`), a local estimator of the model gradient:
    :func:`lime0_fit` to a cloud around x_t."""
    return lime0_fit(*(yield from cloud_run(x_t, cfg)), cfg)


def lime0_fit(offsets, fvals, cfg: LimeConfig) -> np.ndarray:
    """The slopes of :func:`lime0` from its cloud (:func:`lime_fit`).  A
    rank-deficient cloud yields the minimum-norm solution and a warning."""
    design = cfg.sampling_std * offsets
    design = design - design.mean(axis=0)
    centered = fvals - fvals.mean()
    beta, _, rank, _ = np.linalg.lstsq(design, centered, rcond=None)
    if rank < design.shape[1]:
        warnings.warn(
            "rank-deficient local design; returning the minimum-norm solution",
            stacklevel=2,
        )
    return beta


@dataclass
class BaylimeResult:
    """Per-variable Gaussian posterior of the surrogate slopes: means plus
    one shared variance 1/(prior_eta + noise_lambda * n_samples)."""

    means: np.ndarray
    variance: float


def _check_baylime_prior(prior_eta: float, noise_lambda: float) -> None:
    if prior_eta <= 0 or noise_lambda < 0:
        raise ValueError("prior_eta must be positive, noise_lambda nonnegative")


def baylime_distributions(x_t, y_t: float, cfg: LimeConfig, prior_eta: float,
                          noise_lambda: float):
    """The run of the Bayesian ridge surrogate around x_t: :func:`baylime_fit`
    to a cloud around x_t.  A bad ``prior_eta`` or ``noise_lambda`` is
    refused before the cloud is asked for."""
    _check_baylime_prior(prior_eta, noise_lambda)
    del y_t  # absorbed by the intercept, as in lime
    return baylime_fit(*(yield from cloud_run(x_t, cfg)), cfg, prior_eta, noise_lambda)


def baylime_fit(offsets, fvals, cfg: LimeConfig, prior_eta: float,
                noise_lambda: float) -> BaylimeResult:
    """The posterior of :func:`baylime_distributions` from its cloud
    (:func:`lime_fit`).

    The posterior mean solves the ridge system with prior precision
    ``prior_eta`` and noise precision ``noise_lambda`` on the standardized
    offsets; the reported variance is the design-independent constant
    ``1/(prior_eta + noise_lambda * n_samples)`` -- identical for every
    variable, which is exactly what makes this baseline's uncertainty
    uninformative.  A ``prior_eta`` that is not positive or a negative
    ``noise_lambda`` raises ValueError.
    """
    _check_baylime_prior(prior_eta, noise_lambda)
    design = offsets - offsets.mean(axis=0)
    centered = fvals - fvals.mean()
    gram = noise_lambda * design.T @ design
    gram[np.diag_indices_from(gram)] += prior_eta
    means = np.linalg.solve(gram, noise_lambda * design.T @ centered)
    variance = 1.0 / (prior_eta + noise_lambda * cfg.n_samples)
    return BaylimeResult(means, variance)


def _path_alphas(x_t: np.ndarray, starts: np.ndarray, n_intervals: int) -> np.ndarray:
    """The path positions of the points short of x_t, 0 at the start."""
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    if starts.shape[1:] != x_t.shape:
        raise ValueError("baseline must have the same dimension as x_t")
    return np.linspace(0.0, 1.0, n_intervals + 1)[:-1]


def _path_points(x_t: np.ndarray, starts: np.ndarray, alphas: np.ndarray,
                 lead: int) -> np.ndarray:
    """``lead`` copies of x_t, then the points at ``alphas`` on the straight
    path from each row of ``starts`` to x_t, path by path."""
    m = x_t.shape[-1]
    points = np.empty((lead + len(starts) * len(alphas), m))
    points[:lead] = x_t
    path = points[lead:].reshape(len(starts), len(alphas), m)
    for i in range(m):  # a coordinate at a time: one loop per path, not per point
        np.add(starts[:, i, None], alphas * (x_t[i] - starts[:, i, None]), out=path[..., i])
    return points


def _path_run(x_t: np.ndarray, starts: np.ndarray, n_intervals: int,
              grad_cfg: GradientEstimatorConfig):
    """The run whose result is the trapezoidal integral of the gradient along
    the straight path from each row of ``starts`` to x_t, scaled elementwise
    by the displacement: one row per start, sent by the batch rule of the
    module docstring.  Every path ends at x_t, whose gradient is estimated
    once, as the first point of the first batch, and serves each path's
    last trapezoid term.  Each path is built on its own,
    and one stacked ``matmul`` per batch gives each path's weighted sum bit
    for bit as its own product would, so its integral does not depend on
    the batch it goes in, on a model that answers a row whatever batch it
    comes in."""
    alphas = _path_alphas(x_t, starts, n_intervals)
    m = x_t.shape[-1]
    weights = np.full(n_intervals, 1.0 / n_intervals)
    weights[0] = 0.5 / n_intervals
    # the estimator sends a point itself only where an unpaired draw needs it
    values = grad_cfg.mc_samples % 2 == 1
    budget, path = _PATH_BATCH_NUMBERS // m, gradient_rows(n_intervals, m, grad_cfg, values)
    integrals = np.empty(starts.shape)
    lo, lead = 0, 1  # x_t leads the first batch
    while lo < len(starts):
        hi = lo + max(1, (budget - gradient_rows(lead, m, grad_cfg, values)) // path)
        grads = yield from estimate_gradient(
            _path_points(x_t, starts[lo:hi], alphas, lead), grad_cfg)
        if lead:
            end_term = 0.5 / n_intervals * grads[0]
        integrals[lo:hi] = (x_t - starts[lo:hi]) * (
            np.matmul(weights, grads[lead:].reshape(-1, n_intervals, m)) + end_term)
        lo, lead = hi, 0
    return integrals


def integrated_gradient(x_t, baseline, n_intervals: int,
                        grad_cfg: GradientEstimatorConfig):
    """The run of the trapezoidal path integral of the gradient from
    ``baseline`` to x_t over ``n_intervals`` intervals, scaled elementwise
    by the displacement.  The path's points and their displaced points go
    to the model as one batch, whatever its size: the one-path case of the
    batch rule in the module docstring."""
    x0 = np.asarray(baseline, dtype=float)
    integrals = yield from _path_run(np.asarray(x_t, dtype=float), x0[None], n_intervals,
                                     grad_cfg)
    return integrals[0]


def expected_integrated_gradient(x_t, ref: ReferenceSet, n_intervals: int,
                                 grad_cfg: GradientEstimatorConfig):
    """The run of the path integral averaged over baselines drawn from the
    reference set: the weighted sum, in reference order, of the path
    integrals from each sample, over ``n_intervals`` intervals each.  The
    queries are those of one :func:`integrated_gradient` per sample, in the
    fewer steps of the batch rule in the module docstring."""
    integrals = yield from _path_run(np.asarray(x_t, dtype=float), ref.samples,
                                     n_intervals, grad_cfg)
    total = np.zeros(integrals.shape[1])
    for w, integral in zip(ref.effective_weights, integrals):
        total += w * integral
    return total


def _shapley_exact(x_t: np.ndarray, ref: ReferenceSet):
    """The rows of the exact Shapley batch and the scores from its answers."""
    m = len(x_t)
    weights = ref.effective_weights
    # value of each coalition: expected model output with coalition members
    # pinned to the test point and the rest drawn from the reference set;
    # all coalitions go to the model as one batch
    coalitions = [c for size in range(m + 1)
                  for c in itertools.combinations(range(m), size)]
    points = np.tile(ref.samples, (len(coalitions), 1, 1))
    for block, coalition in zip(points, coalitions):
        block[:, list(coalition)] = x_t[list(coalition)]

    def scores_from(fvals):
        fvals = fvals.reshape(len(coalitions), -1)
        values = {c: float(weights @ row) for c, row in zip(coalitions, fvals)}
        scores = np.zeros(m)
        for i in range(m):
            others = [j for j in range(m) if j != i]
            for size in range(m):
                coeff = 1.0 / (m * comb(m - 1, size))
                for subset in itertools.combinations(others, size):
                    with_i = tuple(sorted(subset + (i,)))
                    scores[i] += coeff * (values[with_i] - values[subset])
        return scores

    return points.reshape(-1, m), scores_from


def _shapley_sampling(x_t: np.ndarray, ref: ReferenceSet, n_configs: int, seed: int):
    """The rows of the sampled Shapley batch and the scores from its answers."""
    m = len(x_t)
    rng = np.random.default_rng(seed)
    weights = ref.effective_weights
    perms = np.empty((n_configs, m), dtype=int)
    points = np.empty((n_configs, m + 1, m))
    # walk each permutation, swapping reference coordinates to the test
    # point one at a time; each swap's output change is one contribution.
    # All walks go to the model as one batch
    for perm, walk in zip(perms, points):
        perm[:] = rng.permutation(m)
        walk[:] = ref.samples[rng.choice(len(weights), p=weights)]
        for pos, j in enumerate(perm):
            walk[pos + 1 :, j] = x_t[j]

    def scores_from(fvals):
        scores = np.zeros(m)
        for perm, walk in zip(perms, fvals.reshape(n_configs, m + 1)):
            scores[perm] += walk[1:] - walk[:-1]
        return scores / n_configs

    return points.reshape(-1, m), scores_from


def shapley_sampled(x_t, ref: ReferenceSet, n_configs: int = 100, seed: int = 0):
    """The run of the Shapley values of the deviation with out-of-coalition
    coordinates substituted from the reference set (interventional
    substitution).

    The inputs pick the estimator: it enumerates coalitions exactly when the
    dimension m is at most 10 and the ``2^m`` coalitions times the reference
    samples are at most ``_EXACT_SV_BUDGET`` coalition values, and otherwise
    Monte Carlo samples ``n_configs`` (permutation, reference sample)
    configurations; either way the model answers one batch.  The observed
    target cancels in every marginal contribution, so it does not appear
    here at all.
    """
    x_t = np.asarray(x_t, dtype=float)
    if n_configs < 1:
        raise ValueError("n_configs must be >= 1")
    m = len(x_t)
    if m <= 10 and 2**m * len(ref.samples) <= _EXACT_SV_BUDGET:
        rows, scores_from = _shapley_exact(x_t, ref)
    else:
        rows, scores_from = _shapley_sampling(x_t, ref, n_configs, seed)
    return scores_from((yield rows))


def z_score(x_t, ref: ReferenceSet) -> np.ndarray:
    """Per-variable standardization of x_t against the reference set
    (population standard deviation)."""
    x_t = np.asarray(x_t, dtype=float)
    if len(ref.samples) < 2:
        raise ValueError("z_score needs at least two reference samples")
    w = ref.effective_weights
    mean = w @ ref.samples
    var = w @ (ref.samples - mean) ** 2
    std = np.sqrt(var)
    bad = np.nonzero(std == 0)[0]
    if bad.size:
        raise ValueError(f"variable {bad[0]} is constant in the reference set")
    return (x_t - mean) / std


def lc(x_t, y_t, hp: GpaHyperParams, grad_cfg: GradientEstimatorConfig, lam: float):
    """The run of the counterfactual shift under a plain Gaussian loss,
    whose result is its solver record.

    Minimizes ``(eta/2)||delta||^2 + sum_t (lam/2)[y_t - f(x_t + delta)]^2
    + eta nu ||delta||_1``, with ``eta``, ``nu``, ``max_iter`` and ``tol``
    from ``hp``.  ``x_t`` is one row, or an (n, m) array of rows with one
    target each in ``y_t`` that share one shift (the collective form).  This
    is the objective of :func:`anomattr.gpa.map_estimate` with the Gaussian
    loss in place of the heavy-tailed marginalization, which makes this the
    point-estimate-only sibling: the same solver,
    :func:`anomattr.gpa.proximal_minimize`, and the same record
    (:meth:`~anomattr.gpa.CounterfactualObjective.record`), with ``rates``
    None and the queries and calls of its own solve.  The Gauss-Newton
    curvature is then ``eta I + lam G^T G``, with the same secant
    correction where the steps slow down and the same draws per
    coordinate, one pair where the pairs agree and all draws at a confirmed
    stop; an objective that overflows raises
    :class:`anomattr.gpa.DivergenceError`.  The run takes one step per batch
    of its solve; the rows ``x_t`` give the dimension, and a bad ``lam`` is
    refused here, before any step.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    x = np.atleast_2d(x_t)
    objective = CounterfactualObjective(x, np.atleast_1d(y_t), hp.eta, gaussian_loss(lam),
                                        grad_cfg)
    return objective.record(proximal_minimize(
        objective.grad_run, objective.value_run, objective.confirm_run, x.shape[1], hp,
        grad_cfg.seed))
