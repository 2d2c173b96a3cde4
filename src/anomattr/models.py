"""Black-box model contract, built-in analytic models, remote adapters, and
the smoothed Monte Carlo gradient estimator.

Every model is queried through :class:`ModelHandle`, which only exposes
``evaluate`` / ``evaluate_batch`` on real vectors of a fixed dimension and
monotone query and call counters.  Nothing downstream ever sees model internals.

The remote adapters, :class:`SubprocessModel` (one JSON line each way over a
child's stdin/stdout) and :class:`HttpModel` (``POST /predict``), share one
protocol.  ``{"x": [...]}`` is answered by ``{"y": <number>}``; a batch
``{"xs": [[...], ...]}`` by ``{"ys": [<number>, ...]}``.  A call sends each
distinct row it holds once, and keeps no answer beyond the call.  A call of
one distinct row, such as :meth:`ModelHandle.evaluate` makes, sends it as
``x``, which every model must speak.  A model that does not batch gets one
``x`` request per point instead, and says so by how it answers the first
``xs`` request: with a reply that holds no ``ys``, an HTTP error status or,
for a subprocess child, by exiting on that line.  So a model should answer
a request it does not understand with an error, such as the one-line JSON
object ``{"error": "..."}``, rather than crash.
A batch answer of the wrong length and a model that has not answered
within ``timeout`` of the request's start (10 s by default; a subprocess
child is killed) raise :class:`TransportError`, as does a subprocess child
that writes output no request asked for.  A child's stderr goes to a
temporary file, whose last 4 KiB end the message of a child that failed.

:class:`ModelHandle` is the one place where model output is checked: a NaN
or infinite answer of any model, to a single query or to one row of a batch,
raises :class:`NonFiniteModelOutput` naming that input, so no caller sees it
and no caller checks for it.

A routine that queries the model is a *run*: a generator that yields the
rows it needs and is sent their answers (``values = yield rows``), and
returns its result.  It yields an ``(k, m)`` array of rows, or a pair
``((k, m), fill)`` whose ``fill(out)`` writes its k rows into the ``(k, m)``
array ``out``, which lets it build a large batch where it is sent, or a
list of such asks, lists among them.  :func:`lockstep` makes one run of a
list of runs: each step asks for the next rows of every run that has not
ended, as a list in the order of the runs, and hands each run its slice of
the answers, in that order.  :func:`drive` runs a list of runs against one
handle as one such run: it builds each step's rows into one new array, a
lone array going as it is, and sends it as one call.  So a command's
methods, none of which waits for another's answers, make as many calls as
the run with the most steps, and :func:`lockstep` alone counts each run's
rows and steps.  Every function of the library that queries the model,
:func:`estimate_gradient` among them, returns a run, and a caller drives
it: ``drive(model, [run])[0]`` is its result, and ``yield from
lockstep([run])`` gives its ``(result, rows, steps)``.
"""

from __future__ import annotations

import io
import json
import os
import select
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TransportError",
    "NonFiniteModelOutput",
    "ModelHandle",
    "BuiltinModel",
    "CallableModel",
    "drive",
    "lockstep",
    "SubprocessModel",
    "HttpModel",
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


def _as_batch(xs, dimension: int) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != dimension:
        raise ValueError(f"expected batch of shape (n, {dimension}), got {xs.shape}")
    return xs


class ModelHandle:
    """Opaque query interface to a scalar-output regression function.

    Subclasses implement ``_evaluate_batch``, which answers a ``(n, m)``
    array of rows with ``n`` numbers.  :meth:`evaluate_batch` is the one gate
    to it: it checks the batch's shape, adds the batch size to
    ``query_count`` and one to ``call_count``, and only then refuses a NaN
    or infinite answer, with :class:`NonFiniteModelOutput` at the first
    input that got one.
    :meth:`evaluate` is its one-row case.  A model should answer an input the
    same way every time.  The remote adapters send an input repeated within
    a batch once, and the builtin models answer an input bit for bit the
    same in a batch of any size.  A handle serves one thread: its counters
    and a subprocess child's pipe are not locked.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        self.dimension = int(dimension)
        self.query_count = 0
        self.call_count = 0

    def evaluate(self, x) -> float:
        """The answer at one vector ``x``: ``evaluate_batch(x[None])[0]``."""
        return float(self.evaluate_batch(_as_vector(x, self.dimension)[None])[0])

    def evaluate_batch(self, xs) -> np.ndarray:
        xs = _as_batch(xs, self.dimension)
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

    def _evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class BuiltinModel(ModelHandle):
    """Analytic test model of ``kind`` ``sinusoidal2d``, ``linear`` or
    ``quadratic``, whose dimension its coefficients set.

    ``linear`` computes ``c . x``; ``quadratic`` computes ``sum_i c_i x_i^2``.
    ``sinusoidal2d`` is the fixed two-variable surface
    ``f(x) = 2 cos(pi x1) cos(pi x2)`` and takes no coefficients.
    """

    def __init__(self, kind: str, coefficients=()):
        if kind not in ("sinusoidal2d", "linear", "quadratic"):
            raise ValueError(f"unknown builtin model kind: {kind!r}")
        coefficients = tuple(float(c) for c in coefficients)
        if kind == "sinusoidal2d":
            if coefficients:
                raise ValueError("sinusoidal2d takes no coefficients")
        elif not coefficients:
            raise ValueError(f"{kind} model requires coefficients")
        super().__init__(2 if kind == "sinusoidal2d" else len(coefficients))
        self.kind = kind
        self._coef = np.asarray(coefficients)

    def _evaluate_batch(self, xs):
        if self.kind == "sinusoidal2d":
            # in place, and the second factor in blocks, so one array of
            # len(xs) numbers is alive beside the batch: a compare step,
            # eig's batch with the other methods' rows, then stayed below
            # glibc's heap-trim threshold in every layout measured, and its
            # memory was not returned and re-faulted step by step (with the
            # second factor whole, 82-144 minor faults per operation)
            ys = np.multiply(np.pi, xs[:, 0])
            np.cos(ys, out=ys)
            ys *= 2.0
            block = np.empty(min(len(xs), _BLOCK_NUMBERS))
            for lo in range(0, len(xs), _BLOCK_NUMBERS):
                part = ys[lo:lo + _BLOCK_NUMBERS]
                other = np.multiply(np.pi, xs[lo:lo + len(part), 1], out=block[:len(part)])
                part *= np.cos(other, out=other)
            return ys
        # einsum sums each row alone, in one order whatever the batch size
        if self.kind == "linear":
            return np.einsum("ij,j->i", xs, self._coef)
        return np.einsum("ij,ij,j->i", xs, xs, self._coef)


def sinusoidal2d() -> BuiltinModel:
    return BuiltinModel("sinusoidal2d")


def linear_model(coefficients) -> BuiltinModel:
    return BuiltinModel("linear", coefficients)


def quadratic_model(coefficients) -> BuiltinModel:
    return BuiltinModel("quadratic", coefficients)


class CallableModel(ModelHandle):
    """Wrap a deterministic Python callable ``f(x) -> float``."""

    def __init__(self, fn, dimension: int):
        super().__init__(dimension)
        self._fn = fn

    def _evaluate_batch(self, xs):
        return [float(self._fn(x)) for x in xs]


def drive(model: ModelHandle, runs) -> list:
    """The results of ``runs``, in order, run to their ends against
    ``model`` as one :func:`lockstep` run, whose asks may nest (module
    docstring); the results alone, not its counts.  Rows of another width
    than ``model.dimension`` raise ValueError before the step's call, and a
    non-finite answer :class:`NonFiniteModelOutput` at the first input in
    the batch that got one."""
    run, ys = lockstep(runs), None
    while True:
        try:
            asks = _parts(run.send(ys), model.dimension)
        except StopIteration as stop:
            return [result for result, _, _ in stop.value]
        # the last step's rows and answers go once every run has built its
        # next ask, before the next step's batch is built
        xs = ys = None
        xs = _step_batch(asks, model.dimension)
        ys = model.evaluate_batch(xs)


def lockstep(runs):
    """The run of ``runs`` in lockstep (module docstring), whose result is
    one ``(result, rows, steps)`` per run, in order: the run's result, the
    rows it asked for and the steps it asked in.  A run ahead of another
    has its answers, and may end, before that one reads its own, and an
    error a run raises ends the step."""
    live = [(i, run, None) for i, run in enumerate(runs)]
    rows, steps, results = [0] * len(live), [0] * len(live), [None] * len(live)
    while live:
        asks = []
        for i, run, answers in live:
            try:
                asks.append((i, run, run.send(answers)))
            except StopIteration as stop:
                results[i] = stop.value, rows[i], steps[i]
        live = ys = answers = None  # no step's answers beside the next batch
        if not asks:
            break
        ys, live, start = (yield [ask for _, _, ask in asks]), [], 0
        for i, run, ask in asks:
            k = _size(ask)
            live.append((i, run, ys[start:start + k]))
            rows[i], steps[i], start = rows[i] + k, steps[i] + 1, start + k
    return results


def _parts(ask, m: int) -> list:
    """The arrays and ``((k, m), fill)`` pairs of ``ask`` (module docstring)
    in order; rows of another width than ``m`` raise ValueError."""
    if isinstance(ask, list):
        return [part for rows in ask for part in _parts(rows, m)]
    shape = ask[0] if isinstance(ask, tuple) else np.shape(ask)
    if shape[1:] != (m,):
        raise ValueError(f"rows of {shape[-1]} inputs != model dimension {m}")
    return [ask]


def _size(ask) -> int:
    """The number of rows ``ask`` asks for."""
    if isinstance(ask, list):
        return sum(map(_size, ask))
    return ask[0][0] if isinstance(ask, tuple) else len(ask)


def _step_batch(asks: list, m: int) -> np.ndarray:
    """The rows of ``asks``, arrays and fills, in one new array of rows of
    ``m`` inputs; one array asked for alone goes as it is."""
    if len(asks) == 1 and isinstance(asks[0], np.ndarray):
        return asks[0]
    xs, start = np.empty((_size(asks), m)), 0
    for rows in asks:
        k = _size(rows)
        if isinstance(rows, np.ndarray):
            xs[start:start + k] = rows
        else:
            rows[1](xs[start:start + k])
        start += k
    return xs


def _decode(reply: bytes) -> dict:
    try:
        return json.loads(reply)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise TransportError(f"malformed model response: {reply[:200]!r}") from exc


def _batch_reply(reply: bytes) -> dict | None:
    """The decoded reply to the first ``xs`` request if it holds ``ys``;
    None, the model does not batch, if it is not a JSON object with
    ``ys``."""
    try:
        doc = json.loads(reply)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "ys" in doc else None


def _answers(doc, key: str, shape: tuple) -> np.ndarray:
    """The numbers a reply holds under ``key``, checked against the shape of
    the request, ``()`` for ``"y"`` and ``(n,)`` for ``"ys"``, before they
    answer the call's rows; :class:`ModelHandle` checks that they are
    finite."""
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
    """The ``x``/``xs`` request logic shared by the remote adapters; the
    protocol is in the module docstring.  A call sends its distinct rows,
    each once: two or more as one ``xs`` request, the first of which is the
    probe, and a lone one, or each once the model has shown that it does not
    batch, as one ``x`` request.  No answer outlives its call.

    Subclasses supply the transport: ``_request(payload)`` sends one request
    and returns the decoded reply, and ``_probe_batch(payload)``, called with
    the first ``xs`` request, returns the reply to it, or ``None`` if the
    model does not batch.
    """

    def __init__(self, dimension: int):
        super().__init__(dimension)
        self._batches: bool | None = None  # unknown until the first xs request

    def _request(self, payload: dict) -> dict:
        raise NotImplementedError

    def _probe_batch(self, payload: dict) -> dict | None:
        raise NotImplementedError

    def _evaluate_batch(self, xs):
        keys = [x.tobytes() for x in xs]
        todo = {k: i for i, k in enumerate(keys)}  # each distinct row once
        rows = xs[list(todo.values())].tolist()
        doc = None
        if len(rows) > 1 and self._batches is not False:
            doc = (self._request if self._batches else self._probe_batch)({"xs": rows})
            self._batches = doc is not None
        if doc is None:
            ys = [float(_answers(self._request({"x": row}), "y", ())) for row in rows]
        else:
            ys = _answers(doc, "ys", (len(rows),)).tolist()
        answers = dict(zip(todo, ys))
        return np.array([answers[k] for k in keys])


class SubprocessModel(_RemoteModel):
    """Adapter speaking newline-delimited JSON over a child process.

    Protocol: one JSON object per line on the child's stdin, answered by one
    JSON object per line on its stdout.

    - ``{"x": [...]}`` is answered by ``{"y": <number>}``.  Every child
      must speak it; a call of one distinct row, as of :meth:`evaluate`,
      always goes this way.
    - ``{"xs": [[...], ...]}`` is answered by ``{"ys": [<number>, ...]}``,
      one value per row.  This line is optional.  The first batch of two
      or more distinct rows is sent this way and serves as the probe: a
      ``ys`` reply means the child batches for the rest of the handle's
      life.  A reply without ``ys``, or the child exiting on that line,
      means it does not: the child is restarted if it died, and this batch
      and every later one go one ``x`` line per point.  A child should answer a line it does not
      understand with a one-line JSON object such as ``{"error": "..."}``
      rather than crash.

    Each request has ``timeout`` seconds from its start, across writing the
    request, every read of the answer and a restart: a child that has not
    answered by then, even one that is still writing, is killed and
    :class:`TransportError` is raised.  A child that exits mid-request is
    restarted once, then :class:`TransportError` is raised.  So is output
    that no request asked for, bytes after the answer line or bytes waiting
    before a request is written, which a later request would take for its
    answer; the child is killed.  :meth:`close` ends the child: it closes
    the child's stdin and returns as soon as the child exits, or kills it
    after ``timeout`` seconds.  An empty command raises ValueError.

    The handle's children write their stderr to one unlinked temporary
    file, so it never reaches the caller's terminal and can never fill up
    and block a child.  Its last 4 KiB, read once a child is gone, end the
    message of a timeout or of a child that died twice; a crash on the batch
    probe line is forgotten.  The file keeps everything the children write
    to stderr until :meth:`close`.
    """

    def __init__(self, command, dimension: int, timeout: float = 10.0):
        super().__init__(dimension)
        if isinstance(command, str):
            command = shlex.split(command)
        self._command = list(command)
        if not self._command:
            raise ValueError("a subprocess model needs a command")
        self._timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._stderr = None  # the children's stderr file, made with the first child
        self._stderr_start = 0  # where the stderr a message may show starts
        self._stderr_tail = b""

    def _ensure_proc(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            self._stop(wait=0.0)
            try:
                if self._stderr is None:
                    self._stderr = tempfile.TemporaryFile()
                self._proc = subprocess.Popen(
                    self._command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=self._stderr, bufsize=0,
                )
            except OSError as exc:
                raise TransportError(f"cannot start model process: {exc}") from exc
            os.set_blocking(self._proc.stdin.fileno(), False)
        return self._proc

    def _stderr_note(self) -> str:
        text = self._stderr_tail.decode(errors="replace").strip()
        return f"; its stderr ended with:\n{text}" if text else ""

    @staticmethod
    def _ready(fd: int, event: int, wait: float) -> bool:
        """Whether ``fd`` gets ready for ``event`` within ``wait`` seconds."""
        poller = select.poll()
        poller.register(fd, event)
        return bool(poller.poll(wait * 1000.0))

    def _wait(self, fd: int, event: int, deadline: float) -> None:
        """Wait until ``fd`` is ready for ``event``; kill the child at the
        request's ``deadline`` (a ``time.monotonic`` reading)."""
        if not self._ready(fd, event, max(deadline - time.monotonic(), 0.0)):
            self._stop(wait=0.0)
            raise TransportError(
                f"model process gave no answer within {self._timeout:g} s"
                + self._stderr_note()
            )

    def _exits(self, proc: subprocess.Popen, wait: float) -> bool:
        """Whether ``proc`` exits within ``wait`` seconds.  A pidfd wakes the
        wait at the exit; without ``os.pidfd_open``, ``Popen.wait`` polls."""
        if proc.poll() is not None:
            return True
        try:
            pidfd = os.pidfd_open(proc.pid)
        except (AttributeError, OSError):
            try:
                proc.wait(timeout=wait)
            except subprocess.TimeoutExpired:
                return False
            return True
        try:
            return self._ready(pidfd, select.POLLIN, wait)
        finally:
            os.close(pidfd)

    def _unasked(self, output: bytes) -> TransportError:
        """Kill the child, which wrote ``output`` that no request asked for,
        and return the error that names it."""
        self._stop(wait=0.0)
        return TransportError(
            f"model process wrote output no request asked for: {output[:200]!r}"
        )

    def _exchange(self, payload: dict, deadline: float) -> bytes:
        """Send one request line and return the answer line by ``deadline``;
        EOFError if the child has gone."""
        proc = self._ensure_proc()
        out, view = proc.stdout.fileno(), memoryview(json.dumps(payload).encode() + b"\n")
        # at end of file the read is empty, and the write or the read below
        # raise EOFError
        if self._ready(out, select.POLLIN, 0.0) and (early := os.read(out, 1 << 16)):
            raise self._unasked(early)
        try:
            while view:
                try:
                    view = view[os.write(proc.stdin.fileno(), view):]
                except BlockingIOError:
                    self._wait(proc.stdin.fileno(), select.POLLOUT, deadline)
        except OSError as exc:  # BrokenPipeError: the child is gone
            raise EOFError(str(exc)) from exc
        reply, newline = bytearray(), b""
        while not newline:
            self._wait(out, select.POLLIN, deadline)
            if not (chunk := os.read(out, 1 << 16)):
                raise EOFError("model process closed stdout")
            line, newline, rest = chunk.partition(b"\n")
            reply += line
        if rest:
            raise self._unasked(rest)
        return bytes(reply)

    def _request(self, payload):
        deadline = time.monotonic() + self._timeout
        for _ in range(2):  # one restart per request, then give up
            try:
                return _decode(self._exchange(payload, deadline))
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
            reply = self._exchange(payload, time.monotonic() + self._timeout)
        except EOFError:
            self._stop(wait=0.0)
            # the expected crash of a one-point child: no message shows it
            self._stderr_start = os.fstat(self._stderr.fileno()).st_size
            return None
        return _batch_reply(reply)

    def _stop(self, wait: float) -> None:
        """End the child: close its stdin, give it ``wait`` seconds to exit,
        then kill it; keep the last 4 KiB of the stderr a message may show."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()
        if not self._exits(proc, wait):
            proc.kill()
        proc.wait()
        proc.stdout.close()
        err = self._stderr.fileno()
        end = os.fstat(err).st_size
        start = max(end - _STDERR_TAIL, self._stderr_start)
        self._stderr_tail = os.pread(err, end - start, start)

    def close(self):
        """End the child, waiting up to ``timeout`` seconds for it to exit on
        end of input, and delete its stderr file.  Safe to call more than
        once."""
        self._stop(wait=self._timeout)
        if self._stderr is not None:
            self._stderr.close()
            self._stderr, self._stderr_start = None, 0


class _DeadlineReader(io.RawIOBase):
    """A socket read as a file, each read waiting only for the time left
    before ``deadline`` (a ``time.monotonic`` reading); ``makefile`` gives
    what :class:`http.client.HTTPResponse` reads from."""

    def __init__(self, sock, deadline: float):
        super().__init__()
        self._sock, self._deadline = sock, deadline

    def left(self) -> float:
        """The seconds left before the deadline; TimeoutError if none."""
        if (left := self._deadline - time.monotonic()) <= 0:
            raise TimeoutError
        return left

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self._sock.settimeout(self.left())
        return self._sock.recv_into(buffer)

    def makefile(self, mode):
        return io.BufferedReader(self)


class HttpModel(_RemoteModel):
    """Adapter for an HTTP prediction endpoint.

    ``POST <base>/predict`` with ``{"x": [...]}`` returns ``{"y": <number>}``.
    The first batch of two or more distinct rows goes as ``{"xs": [[...],
    ...]}`` and serves as the probe: a ``{"ys": [...]}`` reply means the
    server batches for the rest of the handle's life.  A status of 400 or
    above, or a reply without ``ys``, means it does not: this batch and
    every later one go one ``x`` request per point.  Any other ``/predict``
    status of 400 or above raises :class:`TransportError`, as does a request
    whose answer has not come within ``timeout`` seconds of its start, the
    probe's included.  That deadline bounds the whole request: connecting,
    sending, and every read of the status line, the headers and the body,
    each of which waits only for the time left, so a server that trickles
    any part of its answer cannot hold a request longer.
    """

    def __init__(self, base_url: str, dimension: int, timeout: float = 10.0):
        super().__init__(dimension)
        self._base = base_url.rstrip("/")
        self._timeout = timeout

    def _post(self, payload: dict):
        """One ``POST <base>/predict`` of ``payload``, answered as ``(status,
        body)`` within ``timeout`` seconds of its start, or
        :class:`TransportError`."""
        # the HTTP stack loads on first use, not with the package
        import http.client
        from urllib.parse import urlsplit

        deadline = time.monotonic() + self._timeout
        url = urlsplit(self._base + "/predict")
        conn = (http.client.HTTPSConnection if url.scheme == "https" else
                http.client.HTTPConnection)(url.netloc, timeout=self._timeout)
        try:
            conn.connect()
            reader = _DeadlineReader(conn.sock, deadline)
            conn.sock.settimeout(reader.left())
            conn.request("POST", url.path, json.dumps(payload).encode(),
                         {"Content-Type": "application/json"})
            with http.client.HTTPResponse(reader, method="POST") as resp:
                resp.begin()
                return resp.status, resp.read()
        except TimeoutError as exc:
            raise TransportError(
                f"model endpoint gave no answer within {self._timeout:g} s") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"model endpoint failed: {exc}") from exc
        finally:
            conn.close()

    def _request(self, payload):
        status, body = self._post(payload)
        if status >= 400:
            raise TransportError(f"model endpoint answered HTTP {status}: {body[:200]!r}")
        return _decode(body)

    def _probe_batch(self, payload):
        # a server that refuses the "xs" request, or answers it without
        # "ys", does not batch
        status, body = self._post(payload)
        return None if status >= 400 else _batch_reply(body)


# ---------------------------------------------------------------------------
# Smoothed Monte Carlo gradient estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientEstimatorConfig:
    """Settings for the smoothed finite-difference slope estimator.

    ``perturbation_std`` is the standard deviation of the Gaussian step sizes
    (in standardized input units), ``mc_samples`` the number of sign-paired
    step draws per coordinate, the most slope samples its estimate averages.
    An even count pairs every draw, so a caller that asks for neither the
    values at the points nor a subset of the draws is sent only the
    displaced points, and the estimate is the mean of the pairs' central
    differences (:func:`estimate_gradient`).
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


def estimate_gradient(x, cfg: GradientEstimatorConfig, f0=None,
                      values: np.ndarray | None = None,
                      slopes: np.ndarray | None = None, send=None):
    """The run that estimates the model gradient at one point ``(m,)`` or at
    each row of a batch ``(k, m)``, a model of ``m`` inputs; the result has
    the shape of ``x``.

    For each coordinate i the estimate is the average of the slopes
    ``[f(x + h e_i) - f(x)] / h`` over the draws of its ``mc_samples``
    Gaussian step sizes h that the ``(m, mc_samples)`` boolean mask ``send``
    marks, every draw when ``send`` is None.  The run asks for one model
    batch, built in the array the batch is sent in (:func:`drive`): the k
    points themselves when their values are used (first, so that a
    non-finite value there names that point), then the displaced points of
    the draws it sends, row by row and, within a row, by coordinate and
    draw; with every draw sent, displaced point ``(p * m + i) * mc_samples +
    j`` is ``x_p + h[i, j] e_i``.

    The values at the points are used unless ``f0`` gives them: when the
    caller passes a ``(k,)`` buffer ``values`` for them, a ``slopes`` table
    or a ``send`` mask, and at an odd ``mc_samples``, whose last draw has no
    partner.  Otherwise only the displaced points go, and each coordinate's
    estimate is the mean of its pairs' central differences ``[f(x + h e_i)
    - f(x - h e_i)] / 2h``, in which ``f(x)`` cancels: the same estimate in
    exact arithmetic, exact on linear and pure-quadratic models.

    The slope of draw j of coordinate i at row p goes to ``slopes[p, i, j]``
    when the caller passes a C-contiguous ``(k, m, mc_samples)`` table, and
    the estimate is the table's sum over the draws divided by the number of
    draws sent, exact where the unsent slots hold 0.  A table that holds an
    earlier call's slopes at the same points and ``f0`` keeps them in the
    draws this call does not send, so a call with the mask's complement
    completes it: the table's mean over every draw is then bit for bit the
    estimate of one call that fills a table with every draw.  Such a call
    may send a coordinate no draw, and that coordinate's estimate is the
    table's mean; otherwise a mask must send each coordinate a draw.

    Deterministic given (model, x, cfg, send).  A draw's slope is the same
    whichever other draws a batch sends.  For a model that answers a row
    whatever batch it comes in, as the builtin models do, a batch of points
    gives the per-point results bit for bit.
    """
    x = np.asarray(x, dtype=float)
    ask, central, sent, count = _gradient_plan(x, cfg, f0, values, slopes, send)
    fvals = yield ask
    m, mc = x.shape[-1], cfg.mc_samples
    k = x.size // m
    h, _ = _step_draws(cfg.seed, cfg.perturbation_std, mc, m)
    if central:
        # draws 2j and 2j + 1 step by h and -h, so the mean of their two
        # slopes is their central difference.  The differences of at most
        # _BLOCK_NUMBERS pairs are alive at once, not half the batch's
        # answers: a row's sum is the same in any block
        pairs = fvals.reshape(k, -1, 2)
        scale = 2.0 * h.ravel()[::2]
        grads, step = np.empty((k, m)), max(1, _BLOCK_NUMBERS // scale.size)
        block = np.empty((min(k, step), scale.size))
        for lo in range(0, k, step):
            part = pairs[lo:lo + step]
            diffs = np.subtract(part[..., 0], part[..., 1], out=block[:len(part)])
            diffs /= scale
            diffs.reshape(-1, m, mc // 2).sum(axis=2, out=grads[lo:lo + step])
        grads /= mc // 2
        return grads.reshape(x.shape)
    if f0 is None:  # the points went first
        f0, fvals = fvals[:k], fvals[k:]
        if values is not None:
            values[:] = f0
    diffs = fvals.reshape(k, -1) - np.asarray(f0, dtype=float).reshape(-1, 1)
    table = np.zeros((k, m, mc)) if slopes is None else slopes
    table.reshape(k, -1)[:, sent] = diffs / h.ravel()[sent]
    return (table.sum(axis=2) / count).reshape(x.shape)


def _gradient_plan(x: np.ndarray, cfg: GradientEstimatorConfig, f0, values, slopes, send):
    """How :func:`estimate_gradient` asks for its batch: ``(ask, central,
    sent, count)``, where ``ask`` is the ``((rows, m), fill)`` it yields and
    the rest says whether the estimate takes central differences, the
    indices of the draws sent and each coordinate's count of them.  No model
    query."""
    mc = cfg.mc_samples
    if x.ndim not in (1, 2):
        raise ValueError(f"expected shape (m,) or (k, m), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    m = x.shape[-1]
    batch = x.reshape(-1, m)
    k = len(batch)
    _, disp = _step_draws(cfg.seed, cfg.perturbation_std, mc, m)
    sent, count = slice(None), mc  # every draw
    central = (f0 is None and values is None and slopes is None and send is None
               and mc % 2 == 0)
    if send is not None:
        send = np.asarray(send, dtype=bool)
        if send.shape != (m, mc):
            raise ValueError(f"send must be an ({m}, {mc}) mask, got shape {send.shape}")
        count = send.sum(axis=1)
        if slopes is None and not count.all():
            raise ValueError("send leaves a coordinate with no draw")
        sent, count = np.flatnonzero(send), np.where(count > 0, count, mc)
    moves = disp[sent]
    centre = k if f0 is None and not central else 0

    def fill(points):
        points[:centre] = batch[:centre]  # the points first, where their values are used
        _displace(batch, moves, points[centre:])

    return ((gradient_rows(k, m, cfg, centre > 0, send), m), fill), central, sent, count


def gradient_rows(k: int, m: int, cfg: GradientEstimatorConfig, values: bool, send=None) -> int:
    """The rows of :func:`estimate_gradient`'s batch at k points of m inputs:
    the points where their ``values`` are sent, then one displaced point per
    draw of each, every draw or those the mask ``send`` marks."""
    draws = m * cfg.mc_samples if send is None else int(np.count_nonzero(send))
    return k * (values + draws)


# rows of at most this many inputs are displaced in blocks of whole points,
# each block at most this many numbers (64 KiB)
_BLOCK_ROW_LENGTH = 16
_BLOCK_NUMBERS = 8192


def _displace(batch, moves, out) -> None:
    """Write ``batch[p] + moves[r]`` to row ``p * len(moves) + r`` of the
    C-contiguous ``out``, bit for bit the broadcast ``batch[:, None, :] +
    moves``.

    numpy runs that broadcast as one inner loop per displaced row, m numbers
    long, and buffers each broadcast operand in 64 KiB.  Rows of at most
    ``_BLOCK_ROW_LENGTH`` inputs go in blocks of whole points instead: a
    block's rows take the moves, then the block's points repeated along the
    moves are added in place, over ``len(moves) * m`` contiguous numbers per
    point and with no buffer; no block holds more than ``_BLOCK_NUMBERS``
    numbers, and a point too large for one takes the broadcast.  Timed on 2
    vCPUs with numpy 2.4, from 20 points to batches of 32,768 numbers, the
    blocks took 0.25-0.8 of the broadcast's time at m = 2-8 and 0.6-0.9 at
    m = 12-16, but 0.7-1.3 from m = 20 to 30; a batch of 20 points and two
    moves took 1.5 times as long, about 2.5 us more."""
    k, m = batch.shape
    width = moves.size  # the numbers of one point's displaced rows
    if m > _BLOCK_ROW_LENGTH or not 0 < width <= _BLOCK_NUMBERS:
        np.add(batch[:, None, :], moves, out=out.reshape(k, len(moves), m))
        return
    step, draws = _BLOCK_NUMBERS // width, len(moves)
    out, moves = out.reshape(k, width), moves.reshape(width)
    for lo in range(0, k, step):
        rows = out[lo:lo + step]
        rows[...] = moves  # x + h and h + x are the same number
        rows += np.repeat(batch[lo:lo + step], draws, axis=0).reshape(-1, width)
