"""Comparison attribution methods applied to the deviation f(x) - y.

Local surrogate fits (plain and Bayesian), path-integrated gradients with
fixed or averaged baselines, Shapley values (exact or permutation-sampled),
the z-score, and a Gaussian-loss counterfactual shift.  All of them except
the last are insensitive to the observed target: shifting y only moves a
surrogate intercept or cancels in differences, and the implementations keep
that cancellation exact at machine precision.

The surrogates send their cloud, and Shapley its coalitions or permutation
walks, in one model batch each.  The path integrals send whole paths, each
path's points with their displaced points, as many paths per batch as keep
the batch within ``_PATH_BATCH_NUMBERS`` model-input numbers (rows times
m), and at least one: ig sends one batch, and eig over the 64-point lattice
of the benchmark's sinusoid sends 10.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from .gpa import (
    CounterfactualObjective,
    _solve_l1_quadratic,
    gaussian_loss,
    proximal_minimize,
)
from .models import GradientEstimatorConfig, ModelHandle, estimate_gradient

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
    "LcResult",
    "lc",
]

# exact Shapley enumeration cutoff: coalition values to evaluate
_EXACT_SV_BUDGET = 50_000
# model-input numbers (rows times m) in one batch of path-integral paths.
# Peak memory sets the limit, not the model: the gradient estimator holds
# about six float64s per row at m = 2, and on the benchmark's sinusoid
# compare peak RSS rose by 0.5-0.7 MiB with 7 or 8 of eig's 64 paths per
# batch, 2.0 MiB with 16, 3.3 MiB with 32 and 6.3 MiB (+14.5%) with all 64
# in one batch.  A path above the budget goes alone, so no batch is larger
# than the larger of one path and the budget
_PATH_BATCH_NUMBERS = 2**15


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


def _local_cloud(model: ModelHandle, x_t, cfg: LimeConfig):
    """Standard-normal offsets around x_t and the model values there."""
    x_t = np.asarray(x_t, dtype=float)
    if cfg.n_samples < model.dimension + 1:
        raise ValueError("n_samples must be at least dimension + 1 for a solvable fit")
    rng = np.random.default_rng(cfg.seed)
    offsets = rng.standard_normal((cfg.n_samples, model.dimension))
    fvals = model.evaluate_batch(x_t + cfg.sampling_std * offsets)
    return offsets, fvals


def lime(model: ModelHandle, x_t, y_t: float, cfg: LimeConfig) -> np.ndarray:
    """l1-regularized local surrogate slopes at (x_t, y_t).

    Samples a Gaussian cloud around x_t, fits the deviation f(x) - y_t with a
    lasso and returns the slope vector.  The target value only shifts the
    surrogate intercept (the lasso objective is convex, so the slopes are
    unique); the fit therefore runs on mean-centered model values, which
    keeps the returned scores exactly independent of y_t.  For the centered
    design D and values t of the n samples, the lasso ``(1/n) ||t - D
    beta||^2 + l1 ||beta||_1`` has curvature ``(2/n) D^T D`` and slope
    ``-(2/n) D^T t`` at 0; the solver's exact l1-penalized quadratic solve
    (:func:`anomattr.gpa._solve_l1_quadratic`) minimizes it, and a column
    without variance keeps a zero slope.
    """
    del y_t  # absorbed by the intercept; see docstring
    offsets, fvals = _local_cloud(model, x_t, cfg)
    design = cfg.sampling_std * offsets
    design = design - design.mean(axis=0)
    centered = fvals - fvals.mean()
    scale = 2.0 / len(design)
    gram = scale * design.T @ design
    if not np.any(gram.diagonal()):
        raise ValueError("degenerate local design: all samples identical")
    zero = np.zeros(model.dimension)
    return _solve_l1_quadratic(-scale * design.T @ centered, gram, zero,
                               cfg.l1_strength, zero)


def lime0(model: ModelHandle, x_t, cfg: LimeConfig) -> np.ndarray:
    """Pure least-squares surrogate slopes (the l1-free limit of :func:`lime`);
    a local estimator of the model gradient.  A rank-deficient cloud yields
    the minimum-norm solution and a warning."""
    offsets, fvals = _local_cloud(model, x_t, cfg)
    design = cfg.sampling_std * offsets
    design = design - design.mean(axis=0)
    centered = fvals - fvals.mean()
    beta, _, rank, _ = np.linalg.lstsq(design, centered, rcond=None)
    if rank < model.dimension:
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


def baylime_distributions(
    model: ModelHandle,
    x_t,
    y_t: float,
    cfg: LimeConfig,
    prior_eta: float,
    noise_lambda: float,
) -> BaylimeResult:
    """Bayesian ridge surrogate around x_t.

    The posterior mean solves the ridge system with prior precision
    ``prior_eta`` and noise precision ``noise_lambda`` on the standardized
    offsets; the reported variance is the design-independent constant
    ``1/(prior_eta + noise_lambda * n_samples)`` -- identical for every
    variable, which is exactly what makes this baseline's uncertainty
    uninformative.
    """
    if prior_eta <= 0 or noise_lambda < 0:
        raise ValueError("prior_eta must be positive, noise_lambda nonnegative")
    del y_t  # absorbed by the intercept, as in lime
    offsets, fvals = _local_cloud(model, x_t, cfg)
    design = offsets - offsets.mean(axis=0)
    centered = fvals - fvals.mean()
    gram = noise_lambda * design.T @ design
    gram[np.diag_indices_from(gram)] += prior_eta
    means = np.linalg.solve(gram, noise_lambda * design.T @ centered)
    variance = 1.0 / (prior_eta + noise_lambda * cfg.n_samples)
    return BaylimeResult(means, variance)


def _path_integrals(model: ModelHandle, x_t: np.ndarray, starts: np.ndarray,
                    n_intervals: int, grad_cfg: GradientEstimatorConfig) -> np.ndarray:
    """Trapezoidal integral of the gradient along the straight path from each
    row of ``starts`` to x_t, scaled elementwise by the displacement: one row
    per start, sent by the batch rule of the module docstring.  Each path is
    built and integrated on its own, so its integral does not depend on the
    batch it goes in, on a model that answers a row whatever batch it comes
    in."""
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    if starts.shape[1:] != x_t.shape:
        raise ValueError("baseline must have the same dimension as x_t")
    m = x_t.shape[-1]
    alphas = np.linspace(0.0, 1.0, n_intervals + 1)
    weights = np.full(n_intervals + 1, 1.0 / n_intervals)
    weights[0] = weights[-1] = 0.5 / n_intervals
    d = x_t - starts
    path_numbers = (n_intervals + 1) * (1 + m * grad_cfg.mc_samples) * m
    per_batch = max(1, _PATH_BATCH_NUMBERS // path_numbers)
    integrals = np.empty(starts.shape)
    for lo in range(0, len(starts), per_batch):
        dk = d[lo : lo + per_batch, None, :]
        paths = starts[lo : lo + per_batch, None, :] + alphas[:, None] * dk
        grads = estimate_gradient(model, paths.reshape(-1, m), grad_cfg).reshape(paths.shape)
        for row, di, path_grads in zip(integrals[lo:], dk[:, 0], grads):
            row[:] = di * (weights @ path_grads)
    return integrals


def integrated_gradient(
    model: ModelHandle,
    x_t,
    baseline,
    n_intervals: int,
    grad_cfg: GradientEstimatorConfig,
) -> np.ndarray:
    """Trapezoidal path integral of the gradient from ``baseline`` to x_t
    over ``n_intervals`` intervals, scaled elementwise by the displacement.
    The path's points and their displaced points go to the model as one
    batch, whatever its size: the one-path case of the batch rule in the
    module docstring."""
    x0 = np.asarray(baseline, dtype=float)
    return _path_integrals(model, np.asarray(x_t, dtype=float), x0[None],
                           n_intervals, grad_cfg)[0]


def expected_integrated_gradient(
    model: ModelHandle,
    x_t,
    ref: ReferenceSet,
    n_intervals: int,
    grad_cfg: GradientEstimatorConfig,
) -> np.ndarray:
    """Path integral averaged over baselines drawn from the reference set:
    the weighted sum, in reference order, of the path integrals from each
    sample, over ``n_intervals`` intervals each.  The queries are those of
    one :func:`integrated_gradient` per sample, in fewer batches: whole
    paths share a batch up to ``_PATH_BATCH_NUMBERS`` model-input numbers,
    and a larger path goes alone."""
    integrals = _path_integrals(model, np.asarray(x_t, dtype=float), ref.samples,
                                n_intervals, grad_cfg)
    total = np.zeros(model.dimension)
    for w, integral in zip(ref.effective_weights, integrals):
        total += w * integral
    return total


def _shapley_exact(model: ModelHandle, x_t: np.ndarray, ref: ReferenceSet) -> np.ndarray:
    m = model.dimension
    weights = ref.effective_weights
    # value of each coalition: expected model output with coalition members
    # pinned to the test point and the rest drawn from the reference set;
    # all coalitions go to the model as one batch
    coalitions = [c for size in range(m + 1)
                  for c in itertools.combinations(range(m), size)]
    points = np.tile(ref.samples, (len(coalitions), 1, 1))
    for block, coalition in zip(points, coalitions):
        block[:, list(coalition)] = x_t[list(coalition)]
    fvals = model.evaluate_batch(points.reshape(-1, m)).reshape(len(coalitions), -1)
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


def _shapley_sampling(model: ModelHandle, x_t: np.ndarray, ref: ReferenceSet,
                      n_configs: int, seed: int) -> np.ndarray:
    m = model.dimension
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
    fvals = model.evaluate_batch(points.reshape(-1, m)).reshape(n_configs, m + 1)
    scores = np.zeros(m)
    for perm, walk in zip(perms, fvals):
        scores[perm] += walk[1:] - walk[:-1]
    return scores / n_configs


def shapley_sampled(
    model: ModelHandle,
    x_t,
    ref: ReferenceSet,
    n_configs: int = 100,
    seed: int = 0,
    method: str = "auto",
) -> np.ndarray:
    """Shapley values of the deviation with out-of-coalition coordinates
    substituted from the reference set (interventional substitution).

    ``method="auto"`` enumerates coalitions exactly when the dimension and
    reference set are small enough, and otherwise Monte Carlo samples
    ``n_configs`` (permutation, reference sample) configurations; either way
    the model answers one batch.  The observed target cancels in every
    marginal contribution, so it does not appear here at all.
    """
    x_t = np.asarray(x_t, dtype=float)
    if n_configs < 1:
        raise ValueError("n_configs must be >= 1")
    if method not in ("auto", "exact", "sampling"):
        raise ValueError(f"unknown method {method!r}")
    m = model.dimension
    if method == "auto":
        cheap = m <= 10 and (2**m) * len(ref.samples) <= _EXACT_SV_BUDGET
        method = "exact" if cheap else "sampling"
    if method == "exact":
        return _shapley_exact(model, x_t, ref)
    return _shapley_sampling(model, x_t, ref, n_configs, seed)


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


@dataclass(frozen=True)
class LcResult:
    """The shift ``delta`` of :func:`lc` and its solver record, each field
    as in :class:`anomattr.gpa.AttributionResult`."""

    delta: np.ndarray
    iterations: int
    converged: bool
    halvings: int
    secant_steps: int
    one_pair_batches: int
    confirmations: int


def lc(
    model: ModelHandle,
    x_t,
    y_t,
    eta: float,
    nu: float,
    lam: float = 1.0,
    grad_cfg: GradientEstimatorConfig = GradientEstimatorConfig(),
    max_iter: int = 10_000,
    tol: float = 1e-6,
) -> LcResult:
    """Counterfactual shift under a plain Gaussian loss, with its solver
    record.

    Minimizes ``(eta/2)||delta||^2 + sum_t (lam/2)[y_t - f(x_t + delta)]^2
    + eta nu ||delta||_1``.  ``x_t`` is one row, or an (n, m) array of rows
    with one target each in ``y_t`` that share one shift (the collective
    form).  This is the objective of :func:`anomattr.gpa.map_estimate` with
    the Gaussian loss in place of the heavy-tailed marginalization, which
    makes this the point-estimate-only sibling.  It is minimized by the same
    solver, :func:`anomattr.gpa.proximal_minimize`, whose Gauss-Newton
    curvature is then ``eta I + lam G^T G``, with the same secant correction
    where the steps slow down and the same draws per coordinate, one pair
    where the pairs agree and all draws at a confirmed stop; an objective
    that overflows raises
    :class:`anomattr.gpa.DivergenceError`.
    """
    if eta <= 0 or nu <= 0 or lam <= 0:
        raise ValueError("eta, nu and lam must be positive")
    objective = CounterfactualObjective(
        model, np.atleast_2d(x_t), np.atleast_1d(y_t), eta, gaussian_loss(lam), grad_cfg
    )
    state = proximal_minimize(
        objective.grad, objective.value, model.dimension, eta, nu, max_iter, tol,
        grad_cfg.seed, confirm_fn=objective.confirm,
    )
    return LcResult(state.delta, state.iterations, state.converged, state.halvings,
                    state.secant_steps, objective.one_pair_batches,
                    objective.confirmations)
