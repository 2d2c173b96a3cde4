"""Black-box model contract, built-in analytic models, remote adapters, and
the smoothed Monte Carlo gradient estimator.

Every model is queried through :class:`ModelHandle`, which only exposes
``evaluate`` / ``evaluate_batch`` on real vectors of a fixed dimension and
monotone query and call counters.  Nothing downstream ever sees model internals.

The remote adapters, :class:`SubprocessModel` (one JSON line each way over a
child's stdin/stdout) and :class:`HttpModel` (``POST /predict``), share one
protocol and one response cache.  ``{"x": [...]}`` is answered by ``{"y":
<number>}``; a batch ``{"xs": [[...], ...]}`` by ``{"ys": [<number>, ...]}``.
A model that does not batch gets one ``x`` request per point instead: an
HTTP model says so at ``GET /capabilities``, a subprocess child by how it
answers the first batch, which is why a child should answer a line it does
not understand with a one-line JSON object such as ``{"error": "..."}``
rather than crash.  A batch answer of the wrong length and a subprocess
child silent for longer than ``timeout`` (10 s by default; it is killed)
raise :class:`TransportError`.

:class:`ModelHandle` is the one place where model output is checked: a NaN
or infinite answer of any model, to a single query or to one row of a batch,
raises :class:`NonFiniteModelOutput` naming that input, so no caller sees it
and no caller checks for it.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import select
import shlex
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TransportError",
    "NonFiniteModelOutput",
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


_STDERR_TAIL = 4096  # bytes of a subprocess child's stderr kept for errors


class TransportError(RuntimeError):
    """Raised when a remote adapter fails (timeout, malformed response, dead
    process)."""


class NonFiniteModelOutput(RuntimeError):
    """A model answered NaN or infinity: ``value`` at the model input ``x``,
    which the message names so that the model's owner can replay it."""

    def __init__(self, x, value: float):
        self.x = np.array(x, dtype=float)
        self.value = float(value)
        shown = np.array2string(self.x, separator=", ", max_line_width=sys.maxsize,
                                formatter={"float_kind": lambda v: repr(float(v))})
        super().__init__(
            f"model returned non-finite output {self.value!r} at input {shown}"
        )


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
    batch calls; ``call_count`` by one per ``evaluate`` or ``evaluate_batch``
    call, cache hits of the remote adapters included.  A
    model should answer an input the same way every time.  The remote
    adapters answer a repeated input from their response cache.  The
    builtin ``linear`` and ``quadratic`` models compute a batch as one
    matrix product, and BLAS picks the summation order by batch size, so
    one input can get answers that differ in the last bit from batch to
    batch; the builtin sinusoid is elementwise and does not.  ``evaluate``
    and ``evaluate_batch`` are the one non-finite policy: once the queries
    are counted, a NaN or infinite answer raises
    :class:`NonFiniteModelOutput` at the first input that got one.  A
    handle serves one thread: its counters, the remote adapters' response
    cache and a subprocess child's pipe are not locked.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        self.dimension = int(dimension)
        self.query_count = 0
        self.call_count = 0

    def evaluate(self, x) -> float:
        x = _as_vector(x, self.dimension)
        y = float(self._evaluate(x))
        self.query_count += 1
        self.call_count += 1
        if not math.isfinite(y):
            raise NonFiniteModelOutput(x, y)
        return y

    def evaluate_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dimension:
            raise ValueError(
                f"expected batch of shape (n, {self.dimension}), got {xs.shape}"
            )
        ys = np.asarray(self._evaluate_batch(xs), dtype=float)
        self.query_count += xs.shape[0]
        self.call_count += 1
        finite = np.isfinite(ys)
        if not finite.all():
            first = int(np.argmin(finite))
            raise NonFiniteModelOutput(xs[first], ys[first])
        return ys

    def close(self) -> None:
        """Release what the handle holds; a no-op unless overridden."""

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
        return self._evaluate_batch(x[None])[0]

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


def _decode(reply: bytes) -> dict:
    try:
        return json.loads(reply)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise TransportError(f"malformed model response: {reply[:200]!r}") from exc


def _answers(doc, key: str, shape: tuple) -> np.ndarray:
    """The numbers a reply holds under ``key``, checked against the shape of
    the request, ``()`` for ``"y"`` and ``(n,)`` for ``"ys"``, before they
    enter the cache; :class:`ModelHandle` checks that they are finite."""
    try:
        ys = np.asarray(doc[key], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TransportError(f"malformed model response: {str(doc)[:200]}") from exc
    if ys.shape != shape:
        raise TransportError(
            f"model response {key!r} has shape {ys.shape}, expected {shape}"
        )
    return ys


class _RemoteModel(ModelHandle):
    """Response cache and ``x``/``xs`` request logic shared by the remote
    adapters; the protocol is in the module docstring.

    Subclasses supply the transport: ``_request(payload)`` sends one request
    and returns the decoded reply, and ``_probe_batch(payload)``, called with
    the first batch, returns the reply to that ``xs`` request, or ``None`` if
    the model does not batch.
    """

    def __init__(self, dimension: int):
        super().__init__(dimension)
        self._cache: dict[bytes, float] = {}
        self._batches: bool | None = None  # unknown until the first batch

    def _request(self, payload: dict) -> dict:
        raise NotImplementedError

    def _probe_batch(self, payload: dict) -> dict | None:
        raise NotImplementedError

    def _evaluate(self, x):
        key = x.tobytes()
        if key not in self._cache:
            doc = self._request({"x": x.tolist()})
            self._cache[key] = float(_answers(doc, "y", ()))
        return self._cache[key]

    def _evaluate_batch(self, xs):
        if self._batches is False:
            return super()._evaluate_batch(xs)
        keys = [x.tobytes() for x in xs]
        todo = {k: i for i, k in enumerate(keys) if k not in self._cache}
        if todo:
            payload = {"xs": xs[list(todo.values())].tolist()}
            if self._batches:
                doc = self._request(payload)
            else:
                doc = self._probe_batch(payload)
                self._batches = doc is not None
                if doc is None:
                    return super()._evaluate_batch(xs)
            ys = _answers(doc, "ys", (len(todo),))
            self._cache.update(zip(todo, ys.tolist()))
        return np.array([self._cache[k] for k in keys])


class SubprocessModel(_RemoteModel):
    """Adapter speaking newline-delimited JSON over a child process.

    Protocol: one JSON object per line on the child's stdin, answered by one
    JSON object per line on its stdout.

    - ``{"x": [...]}`` is answered by ``{"y": <number>}``.  Every child
      must speak it; single evaluations always use it.
    - ``{"xs": [[...], ...]}`` is answered by ``{"ys": [<number>, ...]}``,
      one value per row.  This line is optional.  The first batch is sent
      this way and serves as the probe: a ``ys`` reply means the child
      batches for the rest of the handle's life.  A reply without ``ys``,
      or the child exiting on that line, means it does not: the child is
      restarted if it died, and this batch and every later one go one
      ``x`` line per point.  A child should answer a line it does not
      understand with a one-line JSON object such as ``{"error": "..."}``
      rather than crash.

    Each request waits at most ``timeout`` seconds for the pipe to take the
    request or to deliver more of the answer; a child that does not answer
    in time is killed and :class:`TransportError` is raised.  A child that
    exits mid-request is restarted once, then :class:`TransportError` is
    raised.  :meth:`close` ends the child.

    The child's stderr is read through a pipe while a request waits, so it
    never reaches the caller's terminal and can never fill up and block the
    child.  Its last 4 KiB are kept and end the message of a timeout or of a
    child that died twice; a crash on the batch probe line is forgotten.
    """

    def __init__(self, command, dimension: int, timeout: float = 10.0):
        super().__init__(dimension)
        if isinstance(command, str):
            command = shlex.split(command)
        self._command = list(command)
        self._timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._pending = bytearray()  # bytes read past the last answer line
        self._stderr_tail = b""

    def _ensure_proc(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            self._stop(wait=0.0)
            try:
                self._proc = subprocess.Popen(
                    self._command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, bufsize=0,
                )
            except OSError as exc:
                raise TransportError(f"cannot start model process: {exc}") from exc
            os.set_blocking(self._proc.stdin.fileno(), False)
            os.set_blocking(self._proc.stderr.fileno(), False)
            self._pending = bytearray()
        return self._proc

    def _read_stderr(self, proc: subprocess.Popen) -> bool:
        """Move one chunk of the child's stderr into the kept tail; False when
        nothing is waiting, or at end of file, where the pipe is closed."""
        try:
            chunk = os.read(proc.stderr.fileno(), 1 << 16)
        except BlockingIOError:
            return False
        if not chunk:
            proc.stderr.close()
            return False
        self._stderr_tail = (self._stderr_tail + chunk)[-_STDERR_TAIL:]
        return True

    def _stderr_note(self) -> str:
        text = self._stderr_tail.decode(errors="replace").strip()
        return f"; its stderr ended with:\n{text}" if text else ""

    def _wait(self, fd: int, event: int) -> None:
        """Wait until ``fd`` is ready for ``event``, draining the child's
        stderr meanwhile; kill the child after ``timeout`` seconds."""
        proc = self._proc
        poller = select.poll()
        poller.register(fd, event)
        if not proc.stderr.closed:  # the child may close its stderr early
            err = proc.stderr.fileno()
            poller.register(err, select.POLLIN)
        deadline = time.monotonic() + self._timeout
        while True:
            left_ms = max(deadline - time.monotonic(), 0.0) * 1000.0
            ready = [f for f, _ in poller.poll(left_ms)]
            if fd in ready:
                return
            if not ready:
                self._stop(wait=0.0)
                raise TransportError(
                    f"model process gave no answer within {self._timeout:g} s"
                    + self._stderr_note()
                )
            self._read_stderr(proc)
            if proc.stderr.closed:
                poller.unregister(err)

    def _exchange(self, payload: dict) -> bytes:
        """Send one request line and return the answer line; EOFError if the
        child has gone."""
        proc = self._ensure_proc()
        out, view = proc.stdout.fileno(), memoryview(json.dumps(payload).encode() + b"\n")
        try:
            while view:
                try:
                    view = view[os.write(proc.stdin.fileno(), view):]
                except BlockingIOError:
                    self._wait(proc.stdin.fileno(), select.POLLOUT)
        except OSError as exc:  # BrokenPipeError: the child is gone
            raise EOFError(str(exc)) from exc
        scanned = 0
        while (end := self._pending.find(b"\n", scanned)) < 0:
            scanned = len(self._pending)
            self._wait(out, select.POLLIN)
            chunk = os.read(out, 1 << 16)
            if not chunk:
                raise EOFError("model process closed stdout")
            self._pending += chunk
        reply = bytes(self._pending[:end])
        del self._pending[: end + 1]
        return reply

    def _request(self, payload):
        for _ in range(2):  # one restart per request, then give up
            try:
                return _decode(self._exchange(payload))
            except EOFError as exc:
                self._stop(wait=0.0)
                error = exc
        raise TransportError(
            f"model process died twice on {str(payload)[:200]}{self._stderr_note()}"
        ) from error

    def _probe_batch(self, payload):
        # a child that dies on the "xs" line, or answers it without "ys",
        # does not batch
        try:
            reply = self._exchange(payload)
        except EOFError:
            self._stop(wait=0.0)
            self._stderr_tail = b""  # the expected crash of a one-point child
            return None
        try:
            doc = json.loads(reply)
        except ValueError:
            return None
        return doc if isinstance(doc, dict) and "ys" in doc else None

    def _stop(self, wait: float) -> None:
        """End the child: close its stdin, give it ``wait`` seconds to exit,
        then kill it."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()
        try:
            proc.wait(timeout=wait)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        while not proc.stderr.closed and self._read_stderr(proc):
            pass
        proc.stderr.close()

    def close(self):
        """End the child, waiting up to ``timeout`` seconds for it to exit on
        end of input.  Safe to call more than once."""
        self._stop(wait=self._timeout)


class HttpModel(_RemoteModel):
    """Adapter for an HTTP prediction endpoint.

    ``POST <base>/predict`` with ``{"x": [...]}`` returns ``{"y": <number>}``.
    If ``GET <base>/capabilities`` reports ``{"batch": true}``, batch queries
    go through ``{"xs": [[...], ...]}`` -> ``{"ys": [...]}``; if that request
    fails or does not return JSON, they go one point per request.  A
    capabilities reply that is JSON but not an object raises
    :class:`TransportError`.  ``timeout`` bounds each socket operation.
    """

    def __init__(self, base_url: str, dimension: int, timeout: float = 10.0):
        super().__init__(dimension)
        self._base = base_url.rstrip("/")
        self._timeout = timeout

    def _request(self, payload):
        req = urllib.request.Request(
            self._base + "/predict", data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=self._timeout) as resp:
                body = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"model endpoint failed: {exc}") from exc
        return _decode(body)

    def _probe_batch(self, payload):
        try:
            with urllib.request.urlopen(
                self._base + "/capabilities", timeout=self._timeout
            ) as resp:
                caps = json.loads(resp.read())
        except (OSError, http.client.HTTPException, ValueError):
            return None  # unreachable, an HTTP error status, or not JSON
        if not isinstance(caps, dict):
            raise TransportError(f"malformed capabilities response: {str(caps)[:200]}")
        return self._request(payload) if caps.get("batch", False) else None


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
    draw), so a coordinate's steps do not depend on the dimension or on the
    other coordinates.
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
                      f0=None, points: np.ndarray | None = None,
                      values: np.ndarray | None = None):
    """Estimate the model gradient at one point ``(m,)`` or at each row of a
    batch ``(k, m)``; the result has the shape of ``x``.

    For each coordinate i the estimate is the average of
    ``[f(x + h e_i) - f(x)] / h`` over ``mc_samples`` Gaussian step sizes h.
    Every call is one model batch: the ``k * m * mc_samples`` displaced
    points, preceded by the k points themselves unless their values ``f0``
    are given (first, so that a non-finite value there names that point).
    Without ``f0``, the values at the points are written to ``values`` when
    the caller passes a ``(k,)`` buffer.  The batch is built in ``points``
    when the caller passes a C-contiguous ``(k * (1 + m * mc_samples), m)``
    buffer to reuse: rows ``:k`` hold the points and row ``k + (p * m + i)
    * mc_samples + j`` holds ``x_p + h[i, j] e_i``.

    Deterministic given (model, x, cfg).  For a model that answers a row
    whatever batch it comes in, such as the builtin sinusoid, a batch of
    points gives the per-point results bit for bit; the BLAS-backed
    ``linear`` and ``quadratic`` builtins can differ in the last bit.
    """
    x = np.asarray(x, dtype=float)
    m = model.dimension
    if x.ndim not in (1, 2) or x.shape[-1] != m:
        raise ValueError(f"expected shape ({m},) or (k, {m}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    batch = x.reshape(-1, m)
    k = len(batch)
    h, disp = _step_draws(cfg.seed, cfg.perturbation_std, cfg.mc_samples, m)
    if points is None:
        points = np.empty((k * (1 + len(disp)), m))
    np.add(batch[:, None, :], disp, out=points[k:].reshape(k, len(disp), m))
    if f0 is None:
        points[:k] = batch
        fvals = model.evaluate_batch(points)
        f0, fvals = fvals[:k], fvals[k:]
        if values is not None:
            values[:] = f0
    else:
        f0 = np.asarray(f0, dtype=float)
        fvals = model.evaluate_batch(points[k:])
    slopes = (fvals.reshape(k, -1) - f0.reshape(-1, 1)) / h.ravel()
    grad = slopes.reshape(k, m, cfg.mc_samples).sum(axis=2) / cfg.mc_samples
    return grad.reshape(x.shape)
