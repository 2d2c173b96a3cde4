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
    baselines,
    cli,
    sinusoidal2d,
)
from anomattr.gpa import proximal_minimize
from anomattr.models import _gradient_plan, drive

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


def gradient_batch(x, cfg, f0=None, values=None, slopes=None, send=None):
    """The one model batch of the run ``estimate_gradient(x, cfg, f0,
    values, slopes, send)``, built in a new array as the driver builds it,
    with how the estimate reads it: ``(points, central, sent, count)``.  No
    model query."""
    (shape, fill), central, sent, count = _gradient_plan(
        np.asarray(x, dtype=float), cfg, f0, values, slopes, send)
    points = np.empty(shape)
    fill(points)
    return points, central, sent, count


def ask(rows):
    """The one-step run that asks for ``rows`` and returns their answers."""
    return (yield rows)


def driven(model, run_fn):
    """``run_fn``, a callable that returns a run, as a callable that drives
    that run against ``model`` and returns its result."""
    return lambda *args, **kwargs: drive(model, [run_fn(*args, **kwargs)])[0]


def as_run(fn):
    """``fn``, a callable that returns a result, as a callable that returns
    a run which asks for no model rows and returns that result."""
    def run(*args):
        yield from ()
        return fn(*args)

    return run


def no_confirm(delta):
    """The ``confirm_fn`` of a solve with nothing to confirm: a run that asks
    for no model rows and returns None."""
    yield from ()


def minimize(grad_fn, value_fn, *, dim, seed, **settings):
    """The ``_SolveState`` of :func:`~anomattr.gpa.proximal_minimize` over
    callables that return their results and query no model, with nothing to
    confirm, under the :class:`~anomattr.GpaHyperParams` of ``settings``."""
    solve = proximal_minimize(as_run(grad_fn), as_run(value_fn), no_confirm, dim,
                              GpaHyperParams(**settings), seed)
    try:
        rows = next(solve)
    except StopIteration as stop:
        return stop.value
    raise AssertionError(f"the solve asked for model rows: {rows!r}")


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


def path_batch_sizes(n_paths: int, n_intervals: int, point_rows: int, m: int) -> list:
    """The rows of each model batch that ``n_paths`` path integrals of
    ``n_intervals`` points send, a point ``point_rows`` rows of ``m``
    inputs, by the batch rule of the :mod:`anomattr.baselines` docstring:
    as many whole paths as keep rows times m within its
    ``_PATH_BATCH_NUMBERS``, and at least one, with x_t's rows first in the
    first batch."""
    budget, path_rows = baselines._PATH_BATCH_NUMBERS, n_intervals * point_rows
    lead, sizes = point_rows, []
    while n_paths > 0:
        k = min(n_paths, max(1, (budget - lead * m) // (path_rows * m)))
        sizes.append(lead + k * path_rows)
        n_paths, lead = n_paths - k, 0
    return sizes


# the model batches of eig over periodic_lattice() (64 paths) at 100
# intervals and FINE_GRAD in m = 2, 20 displaced rows a point
LATTICE_EIG_BATCHES = path_batch_sizes(64, 100, 2 * FINE_GRAD.mc_samples, 2)


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
