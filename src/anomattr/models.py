"""Black-box model contract, built-in analytic models, remote adapters, and
the smoothed Monte Carlo gradient estimator.

Every model is queried through :class:`ModelHandle`, which only exposes
``evaluate`` / ``evaluate_batch`` on real vectors of a fixed dimension and a
monotone query counter.  Nothing downstream ever sees model internals.
"""

from __future__ import annotations

import json
import shlex
import subprocess
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TransportError",
    "ModelHandle",
    "BuiltinModelSpec",
    "BuiltinModel",
    "CallableModel",
    "SubprocessModel",
    "HttpModel",
    "make_builtin",
    "sinusoidal2d",
    "linear_model",
    "quadratic_model",
    "GradientEstimatorConfig",
    "estimate_gradient",
]


class TransportError(RuntimeError):
    """Raised when a remote adapter fails (timeout, malformed response, dead
    process).  Adapters never return NaN silently."""


def _as_vector(x, dimension: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != dimension:
        raise ValueError(
            f"expected input vector of length {dimension}, got shape {x.shape}"
        )
    return x


class ModelHandle:
    """Opaque query interface to a scalar-output regression function.

    Subclasses implement ``_evaluate`` (and optionally ``_evaluate_batch``).
    ``query_count`` increases by one per evaluation, by the batch size for
    batch calls.  Queries must be deterministic for a fixed handle; remote
    adapters enforce this with a response cache.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        self.dimension = int(dimension)
        self.query_count = 0

    def evaluate(self, x) -> float:
        x = _as_vector(x, self.dimension)
        y = float(self._evaluate(x))
        self.query_count += 1
        return y

    def evaluate_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dimension:
            raise ValueError(
                f"expected batch of shape (n, {self.dimension}), got {xs.shape}"
            )
        ys = np.asarray(self._evaluate_batch(xs), dtype=float)
        self.query_count += xs.shape[0]
        return ys

    def _evaluate(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def _evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self._evaluate(x) for x in xs])


@dataclass(frozen=True)
class BuiltinModelSpec:
    """Analytic test model: ``sinusoidal2d``, ``linear`` or ``quadratic``.

    ``linear`` computes ``c . x``; ``quadratic`` computes ``sum_i c_i x_i^2``.
    ``sinusoidal2d`` is the fixed two-variable surface
    ``f(x) = 2 cos(pi x1) cos(pi x2)`` and takes no coefficients.
    """

    kind: str
    coefficients: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("sinusoidal2d", "linear", "quadratic"):
            raise ValueError(f"unknown builtin model kind: {self.kind!r}")
        if self.kind == "sinusoidal2d":
            if self.coefficients:
                raise ValueError("sinusoidal2d takes no coefficients")
        elif not self.coefficients:
            raise ValueError(f"{self.kind} model requires coefficients")

    @property
    def dimension(self) -> int:
        return 2 if self.kind == "sinusoidal2d" else len(self.coefficients)


class BuiltinModel(ModelHandle):
    def __init__(self, spec: BuiltinModelSpec):
        super().__init__(spec.dimension)
        self.spec = spec
        self._coef = np.asarray(spec.coefficients, dtype=float)

    def _evaluate(self, x):
        if self.spec.kind == "sinusoidal2d":
            return 2.0 * np.cos(np.pi * x[0]) * np.cos(np.pi * x[1])
        if self.spec.kind == "linear":
            return float(self._coef @ x)
        return float(self._coef @ (x * x))

    def _evaluate_batch(self, xs):
        if self.spec.kind == "sinusoidal2d":
            return 2.0 * np.cos(np.pi * xs[:, 0]) * np.cos(np.pi * xs[:, 1])
        if self.spec.kind == "linear":
            return xs @ self._coef
        return (xs * xs) @ self._coef


def make_builtin(spec: BuiltinModelSpec) -> BuiltinModel:
    return BuiltinModel(spec)


def sinusoidal2d() -> BuiltinModel:
    return BuiltinModel(BuiltinModelSpec("sinusoidal2d"))


def linear_model(coefficients) -> BuiltinModel:
    return BuiltinModel(BuiltinModelSpec("linear", tuple(float(c) for c in coefficients)))


def quadratic_model(coefficients) -> BuiltinModel:
    return BuiltinModel(BuiltinModelSpec("quadratic", tuple(float(c) for c in coefficients)))


class CallableModel(ModelHandle):
    """Wrap a deterministic Python callable ``f(x) -> float``."""

    def __init__(self, fn, dimension: int):
        super().__init__(dimension)
        self._fn = fn

    def _evaluate(self, x):
        return self._fn(x)


class SubprocessModel(ModelHandle):
    """Adapter speaking newline-delimited JSON over a child process.

    Protocol: one request ``{"x": [...]}`` per line on stdin, one response
    ``{"y": <number>}`` per line on stdout.  The process is restarted once on
    EOF; a second failure raises :class:`TransportError`.  Responses are
    cached so repeated queries stay deterministic even if the child is not.
    """

    def __init__(self, command, dimension: int):
        super().__init__(dimension)
        if isinstance(command, str):
            command = shlex.split(command)
        self._command = list(command)
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()
        self._cache: dict[bytes, float] = {}

    def _ensure_proc(self):
        if self._proc is None or self._proc.poll() is not None:
            try:
                self._proc = subprocess.Popen(
                    self._command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                )
            except OSError as exc:
                raise TransportError(f"cannot start model process: {exc}") from exc

    def _roundtrip(self, request: str) -> str:
        self._ensure_proc()
        assert self._proc is not None
        try:
            self._proc.stdin.write(request)
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise EOFError(str(exc)) from exc
        if line == "":
            raise EOFError("model process closed stdout")
        return line

    def _evaluate(self, x):
        key = x.tobytes()
        if key in self._cache:
            return self._cache[key]
        request = json.dumps({"x": x.tolist()}) + "\n"
        with self._lock:
            try:
                line = self._roundtrip(request)
            except EOFError:
                # one restart per request, then give up
                self._proc = None
                try:
                    line = self._roundtrip(request)
                except EOFError as exc:
                    raise TransportError(
                        f"model process died twice on {request.strip()}"
                    ) from exc
        try:
            y = float(json.loads(line)["y"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed model response: {line.strip()!r}") from exc
        if not np.isfinite(y):
            raise TransportError(f"non-finite model response: {y!r}")
        self._cache[key] = y
        return y

    def close(self):
        if self._proc is not None and self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.wait(timeout=5)
        self._proc = None


class HttpModel(ModelHandle):
    """Adapter for an HTTP prediction endpoint.

    ``POST <base>/predict`` with ``{"x": [...]}`` returns ``{"y": <number>}``.
    If ``GET <base>/capabilities`` reports ``{"batch": true}``, batch queries
    go through ``{"xs": [[...], ...]}`` -> ``{"ys": [...]}``.  Responses are
    cached for determinism.
    """

    def __init__(self, base_url: str, dimension: int, timeout: float = 10.0):
        super().__init__(dimension)
        self._base = base_url.rstrip("/")
        self._timeout = timeout
        self._batch_capable: bool | None = None
        self._cache: dict[bytes, float] = {}

    def _post(self, path: str, payload: dict) -> dict:
        data = json.dumps(payload).encode()
        req = urllib.request.Request(
            self._base + path, data=data, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=self._timeout) as resp:
                body = resp.read()
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise TransportError(f"model endpoint failed: {exc}") from exc
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise TransportError(f"malformed model response: {body[:200]!r}") from exc

    def _probe_batch(self) -> bool:
        if self._batch_capable is None:
            try:
                with urllib.request.urlopen(
                    self._base + "/capabilities", timeout=self._timeout
                ) as resp:
                    caps = json.loads(resp.read())
                self._batch_capable = bool(caps.get("batch", False))
            except Exception:
                self._batch_capable = False
        return self._batch_capable

    @staticmethod
    def _check_finite(y) -> float:
        y = float(y)
        if not np.isfinite(y):
            raise TransportError(f"non-finite model response: {y!r}")
        return y

    def _evaluate(self, x):
        key = x.tobytes()
        if key in self._cache:
            return self._cache[key]
        doc = self._post("/predict", {"x": x.tolist()})
        try:
            y = self._check_finite(doc["y"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed model response: {doc!r}") from exc
        self._cache[key] = y
        return y

    def _evaluate_batch(self, xs):
        if not self._probe_batch():
            return super()._evaluate_batch(xs)
        keys = [x.tobytes() for x in xs]
        missing = [i for i, k in enumerate(keys) if k not in self._cache]
        if missing:
            doc = self._post("/predict", {"xs": xs[missing].tolist()})
            try:
                ys = [self._check_finite(v) for v in doc["ys"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise TransportError(f"malformed batch response: {doc!r}") from exc
            if len(ys) != len(missing):
                raise TransportError(
                    f"batch response length {len(ys)} != request length {len(missing)}"
                )
            for i, y in zip(missing, ys):
                self._cache[keys[i]] = y
        return np.array([self._cache[k] for k in keys])


# ---------------------------------------------------------------------------
# Smoothed Monte Carlo gradient estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientEstimatorConfig:
    """Settings for the smoothed finite-difference slope estimator.

    ``perturbation_std`` is the standard deviation of the Gaussian step sizes
    (in standardized input units), ``mc_samples`` the number of slope samples
    averaged per coordinate.
    """

    perturbation_std: float = 1.0
    mc_samples: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.perturbation_std <= 0:
            raise ValueError("perturbation_std must be positive")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")


# |h| below this multiple of the std would blow up the 1/h slope
_REDRAW_FACTOR = 1e-8


@lru_cache(maxsize=64)
def _step_draws(seed: int, std: float, mc_samples: int, dimension: int):
    """Gaussian step sizes h[i, j] for coordinate i, draw j, and the
    displacement matrix D whose row ``i * mc_samples + j`` is ``h[i, j] e_i``.

    Each fresh draw comes from its own substream keyed by (seed, coordinate,
    draw), so serial and per-coordinate-parallel execution agree bit for bit.
    Draws are sign-paired (h, -h): the pairing leaves the marginal N(0, std^2)
    untouched but cancels the odd-order smoothing bias, which makes the slope
    estimator exact on linear and pure-quadratic models.  Near-zero draws are
    redrawn from the same substream.
    """
    h = np.empty((dimension, mc_samples))
    for i in range(dimension):
        for j in range(mc_samples):
            if j % 2 == 1:
                h[i, j] = -h[i, j - 1]
                continue
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(i, j))
            )
            val = rng.normal(0.0, std)
            while abs(val) < _REDRAW_FACTOR * std:
                val = rng.normal(0.0, std)
            h[i, j] = val
    rows = np.arange(dimension * mc_samples)
    disp = np.zeros((rows.size, dimension))
    disp[rows, rows // mc_samples] = h.ravel()
    h.flags.writeable = False
    disp.flags.writeable = False
    return h, disp


def estimate_gradient(model: ModelHandle, x, cfg: GradientEstimatorConfig,
                      f0=None, points: np.ndarray | None = None):
    """Estimate the model gradient at one point ``(m,)`` or at each row of a
    batch ``(k, m)``; the result has the shape of ``x``.

    For each coordinate i the estimate is the average of
    ``[f(x + h e_i) - f(x)] / h`` over ``mc_samples`` Gaussian step sizes h.
    ``f(x)`` is evaluated once per point unless ``f0`` (one value per point)
    is given.  All perturbed points go to the model in one batch, built in
    ``points`` when the caller passes a ``(k, m * mc_samples, m)`` buffer to
    reuse.  Deterministic given (model, x, cfg); a batch equals the per-point
    results bit for bit.
    """
    x = np.asarray(x, dtype=float)
    m = model.dimension
    if x.ndim not in (1, 2) or x.shape[-1] != m:
        raise ValueError(f"expected shape ({m},) or (k, {m}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    batch = x.reshape(-1, m)
    h, disp = _step_draws(cfg.seed, cfg.perturbation_std, cfg.mc_samples, m)
    f0 = model.evaluate_batch(batch) if f0 is None else np.asarray(f0, dtype=float)
    points = np.add(batch[:, None, :], disp, out=points)
    fvals = model.evaluate_batch(points.reshape(-1, m)).reshape(len(batch), -1)
    slopes = (fvals - f0.reshape(-1, 1)) / h.ravel()
    grad = slopes.reshape(len(batch), m, cfg.mc_samples).sum(axis=2) / cfg.mc_samples
    return grad.reshape(x.shape)
