import contextlib
import json
import threading
from http.server import ThreadingHTTPServer

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
from anomattr.models import _gradient_plan

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


def gradient_batch(x, m, cfg, f0=None, values=None, slopes=None, send=None):
    """The one model batch of ``estimate_gradient(model, x, cfg, f0, values,
    slopes, send)`` for a model of ``m`` inputs, built in a new array as the
    driver builds it, with how the estimate reads it: ``(points, central,
    sent, count)``.  No model query."""
    rows, fill, central, sent, count = _gradient_plan(x, m, cfg, f0, values, slopes, send)
    points = np.empty((rows, m))
    fill(points)
    return points, central, sent, count


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


@contextlib.contextmanager
def serving(handler):
    """Serve ``handler`` on a loopback port and yield its base URL.  The
    server polls for shutdown every 10 ms, so stopping it takes no longer."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


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
