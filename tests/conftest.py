import json

import numpy as np
import pytest

from anomattr import (
    CallableModel,
    GpaHyperParams,
    GradientEstimatorConfig,
    ModelHandle,
    ReferenceSet,
    TestSet,
    cli,
    sinusoidal2d,
)

# Hyperparameters for the closed-form sinusoidal regime: weak priors so the
# data term dominates, a0 = 1 (single sample), and a flat enough noise rate
# that the solver, taking Gauss-Newton steps and never letting the objective
# rise, stays inside the basin around the nearest root.
ORACLE_HP = GpaHyperParams(
    eta=1e-3, nu=1e-3, a0=1.0, b0=10.0, tol=1e-8
)

# Small perturbation scale: the builtin surfaces are smooth, so a tight
# smoothing radius recovers the analytic gradient closely.
FINE_GRAD = GradientEstimatorConfig(perturbation_std=1e-3, mc_samples=10, seed=0)


class BatchRecorder(ModelHandle):
    """Wraps a model and records the number of points of every call, single
    and batch alike (a single query is a one-row batch), and the rows of
    the first and the last call."""

    def __init__(self, inner):
        super().__init__(inner.dimension)
        self.inner = inner
        self.sizes = []
        self.first = self.last = None

    def _evaluate_batch(self, xs):
        self.sizes.append(len(xs))
        self.last = xs.copy()
        if self.first is None:
            self.first = self.last
        return self.inner.evaluate_batch(xs)


def strict_json(text: str):
    """Parse a document the CLI wrote as strict JSON: a NaN or Infinity
    token fails the test."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=refuse)


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


@pytest.fixture
def nan_model(monkeypatch):
    """Make the CLI resolve every ``--model`` to the builtin sinusoid, except
    that it answers NaN wherever x1 > 0.6."""
    sine = sinusoidal2d()

    def sine_or_nan(x):
        return np.nan if x[0] > 0.6 else sine.evaluate(x)

    monkeypatch.setattr(cli, "resolve_model",
                        lambda spec, dim: CallableModel(sine_or_nan, dim))
