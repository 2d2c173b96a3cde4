import numpy as np
import pytest

from anomattr import (
    GpaHyperParams,
    GradientEstimatorConfig,
    ReferenceSet,
    TestSet,
    sinusoidal2d,
)

# Hyperparameters for the closed-form sinusoidal regime: weak priors so the
# data term dominates, a0 = 1 (single sample), and a flat enough noise rate
# that the solver, starting at step kappa = 0.1 and never letting the
# objective rise, stays inside the basin around the nearest root.
ORACLE_HP = GpaHyperParams(
    eta=1e-3, nu=1e-3, kappa=0.1, a0=1.0, b0=10.0, tol=1e-8
)

# Small perturbation scale: the builtin surfaces are smooth, so a tight
# smoothing radius recovers the analytic gradient closely.
FINE_GRAD = GradientEstimatorConfig(perturbation_std=1e-3, mc_samples=10, seed=0)


def single_point(x, y, names=("x1", "x2")) -> TestSet:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return TestSet(x[None, :], np.array([float(y)]), list(names)[: x.shape[0]])


def periodic_lattice(points_per_axis: int = 8, half_width: int = 1) -> ReferenceSet:
    """Product lattice on [-m, m) whose cosine sums vanish exactly, matching
    the symmetric uniform reference the sinusoidal closed forms assume."""
    axis = -half_width + 2.0 * half_width * np.arange(points_per_axis) / points_per_axis
    samples = np.array([[a, b] for a in axis for b in axis])
    return ReferenceSet(samples)


@pytest.fixture
def sin_model():
    return sinusoidal2d()
