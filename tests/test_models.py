import contextlib
import json
import os
import sys
import textwrap
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomattr.models import (
    BuiltinModelSpec,
    CallableModel,
    GradientEstimatorConfig,
    HttpModel,
    NonFiniteModelOutput,
    SubprocessModel,
    TransportError,
    estimate_gradient,
    linear_model,
    make_builtin,
    quadratic_model,
    sinusoidal2d,
)
from anomattr.gpa import map_estimate
from conftest import FINE_GRAD, ORACLE_HP, BatchRecorder, single_point


class TestBuiltins:
    def test_sinusoidal_values(self):
        m = sinusoidal2d()
        assert m.evaluate([0.5, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert m.evaluate([0.0, 0.0]) == pytest.approx(2.0)

    def test_linear_value(self):
        m = linear_model([3.0, -1.0])
        assert m.evaluate([1.0, 2.0]) == pytest.approx(1.0)

    def test_quadratic_value(self):
        m = quadratic_model([1.0])
        assert m.evaluate([2.0]) == pytest.approx(4.0)

    @pytest.mark.parametrize("spec", [
        BuiltinModelSpec("sinusoidal2d"),
        BuiltinModelSpec("linear", (3.0, -1.0 / 3.0)),
        BuiltinModelSpec("quadratic", (0.1, 7.0)),
    ], ids=lambda spec: spec.kind)
    def test_batch_matches_scalar(self, spec):
        m = make_builtin(spec)
        xs = np.array([[0.1, 0.2], [0.7, -0.3], [0.0, 0.0], [1 / 3, 2 / 7]])
        batch = m.evaluate_batch(xs)
        singles = [m.evaluate(x) for x in xs]
        # one formula: a single query is the one-row batch, bit for bit
        np.testing.assert_array_equal(singles, [m.evaluate_batch(x[None])[0] for x in xs])
        if spec.kind == "sinusoidal2d":  # elementwise, so the batch size cannot matter
            np.testing.assert_array_equal(batch, singles)
        else:  # BLAS may sum a row in an order that depends on the batch size
            np.testing.assert_allclose(batch, singles, rtol=4 * np.finfo(float).eps, atol=0)

    def test_query_count(self):
        m = sinusoidal2d()
        m.evaluate([0.0, 0.0])
        assert m.query_count == 1
        m.evaluate_batch(np.zeros((5, 2)))
        assert m.query_count == 6

    def test_dimension_mismatch(self):
        m = sinusoidal2d()
        with pytest.raises(ValueError):
            m.evaluate([1.0, 2.0, 3.0])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BuiltinModelSpec("cubic")
        with pytest.raises(ValueError):
            BuiltinModelSpec("linear")
        with pytest.raises(ValueError):
            BuiltinModelSpec("sinusoidal2d", (1.0,))


class TestGradientEstimator:
    def test_linear_exact(self):
        # the slope of a line is exact for every step size and seed
        coef = np.array([3.0, -1.0, 0.25])
        m = linear_model(coef)
        for seed in (0, 1, 99):
            cfg = GradientEstimatorConfig(perturbation_std=1.0, mc_samples=10, seed=seed)
            grad = estimate_gradient(m, [0.4, -2.0, 7.0], cfg)
            np.testing.assert_allclose(grad, coef, atol=1e-12)

    def test_quadratic_smoothed_slope(self):
        # independent oracle: E[(f(x+h)-f(x))/h] = E[2x + h] = 2x = 4 at x=2
        m = quadratic_model([1.0])
        cfg = GradientEstimatorConfig(perturbation_std=1.0, mc_samples=100_000, seed=3)
        grad = estimate_gradient(m, [2.0], cfg)
        slopes_std = 1.0  # std of h contributes c*h with c=1
        stderr = slopes_std / np.sqrt(cfg.mc_samples)
        assert abs(grad[0] - 4.0) <= max(3 * stderr, 1e-9)

    def test_sinusoidal_gradient_matches_analytic(self, sin_model):
        cfg = GradientEstimatorConfig(perturbation_std=1e-3, mc_samples=1000, seed=0)
        grad = estimate_gradient(sin_model, [0.5, 0.0], cfg)
        np.testing.assert_allclose(grad, [-2 * np.pi, 0.0], atol=1e-2)

    def test_deterministic(self, sin_model):
        a = estimate_gradient(sin_model, [0.3, 0.1], FINE_GRAD)
        b = estimate_gradient(sin_model, [0.3, 0.1], FINE_GRAD)
        np.testing.assert_array_equal(a, b)

    @given(
        dim=st.integers(min_value=1, max_value=5),
        mc=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_query_accounting(self, dim, mc, seed):
        m = CallableModel(lambda x: float(np.sum(x)), dim)
        cfg = GradientEstimatorConfig(perturbation_std=0.5, mc_samples=mc, seed=seed)
        estimate_gradient(m, np.zeros(dim), cfg)
        assert m.query_count == 1 + dim * mc

    def test_f0_reuse_skips_baseline(self):
        m = linear_model([1.0, 1.0])
        f0 = m.evaluate([0.0, 0.0])
        before = m.query_count
        estimate_gradient(m, [0.0, 0.0], FINE_GRAD, f0=f0)
        assert m.query_count - before == 2 * FINE_GRAD.mc_samples

    def test_one_batch_centre_rows_first(self):
        # without f0 the points ride first in the displacement batch; with
        # f0 only the displaced points go
        x = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.0]])
        k, rows = len(x), len(x) * 2 * FINE_GRAD.mc_samples
        m = BatchRecorder(sinusoidal2d())
        values = np.empty(k)
        grad = estimate_gradient(m, x, FINE_GRAD, values=values)
        assert m.sizes == [k + rows]
        np.testing.assert_array_equal(m.last[:k], x)
        np.testing.assert_array_equal(values, sinusoidal2d().evaluate_batch(x))
        again = estimate_gradient(m, x, FINE_GRAD, f0=values, points=np.empty((k + rows, 2)))
        assert m.sizes == [k + rows, rows]
        np.testing.assert_array_equal(again, grad)

    def test_nonfinite_value_at_the_point_names_it(self):
        x = np.array([0.25, -0.5])
        m = CallableModel(lambda p: np.nan if np.array_equal(p, x) else 0.0, 2)
        with pytest.raises(NonFiniteModelOutput) as exc:
            estimate_gradient(m, x, FINE_GRAD)
        np.testing.assert_array_equal(exc.value.x, x)
        assert m.query_count == 1 + 2 * FINE_GRAD.mc_samples and m.call_count == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GradientEstimatorConfig(perturbation_std=0.0)
        with pytest.raises(ValueError):
            GradientEstimatorConfig(mc_samples=0)

    def test_nonfinite_input_rejected(self, sin_model):
        with pytest.raises(ValueError):
            estimate_gradient(sin_model, [np.nan, 0.0], FINE_GRAD)


ECHO_MODEL = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        x = json.loads(line)["x"]
        print(json.dumps({"y": 3.0 * x[0] - 1.0 * x[1]}))
        sys.stdout.flush()
    """
)

# The same surface, also answering the "xs" batch line.  With "--short" every
# batch after the first comes back one value short.
BATCH_MODEL = textwrap.dedent(
    """
    import json, sys
    batches = 0
    for line in sys.stdin:
        doc = json.loads(line)
        if "xs" in doc:
            batches += 1
            ys = [3.0 * x[0] - 1.0 * x[1] for x in doc["xs"]]
            if "--short" in sys.argv and batches > 1:
                ys = ys[:-1]
            reply = {"ys": ys}
        else:
            reply = {"y": 3.0 * doc["x"][0] - 1.0 * doc["x"][1]}
        print(json.dumps(reply))
        sys.stdout.flush()
    """
)

# Prepended to a child: appends every request line to the file named by the
# child's first argument, so a test can count what crossed the pipe.
LOG_REQUESTS = textwrap.dedent(
    """
    import sys
    _log = open(sys.argv[1], "a")
    def _logged(lines):
        for line in lines:
            _log.write(line)
            _log.flush()
            yield line
    sys.stdin = _logged(sys.stdin)
    """
)


def _child(directory, source, *args):
    """A SubprocessModel of dimension 2 running ``source`` with its requests
    logged; returns the model and a function reading the logged requests."""
    script = directory / "child.py"
    script.write_text(LOG_REQUESTS + source)
    log = directory / "requests.jsonl"
    m = SubprocessModel([sys.executable, str(script), str(log), *args], dimension=2)

    def requests():
        return [json.loads(line) for line in log.read_text().splitlines()]

    return m, requests


POINTS = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0], [-3.0, 1.5]])


# The sinusoidal surface of the builtin model, answering both lines.
SINE_BATCH_MODEL = textwrap.dedent(
    """
    import json, math, sys
    def f(x):
        return 2.0 * math.cos(math.pi * x[0]) * math.cos(math.pi * x[1])
    for line in sys.stdin:
        doc = json.loads(line)
        reply = {"ys": [f(x) for x in doc["xs"]]} if "xs" in doc else {"y": f(doc["x"])}
        print(json.dumps(reply))
        sys.stdout.flush()
    """
)


class TestSubprocessAdapter:
    def test_roundtrip_and_restart(self, tmp_path):
        script = tmp_path / "model.py"
        script.write_text(ECHO_MODEL)
        m = SubprocessModel([sys.executable, str(script)], dimension=2)
        try:
            assert m.evaluate([1.0, 2.0]) == pytest.approx(1.0)
            assert m.query_count == 1
            # child dies -> adapter restarts transparently on the next call
            m._proc.kill()
            m._proc.wait()
            assert m.evaluate([2.0, 0.0]) == pytest.approx(6.0)
        finally:
            m.close()

    def test_malformed_response(self, tmp_path):
        script = tmp_path / "bad.py"
        script.write_text(
            "import sys\nfor line in sys.stdin:\n    print('nope'); sys.stdout.flush()\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=1)
        try:
            with pytest.raises(TransportError):
                m.evaluate([1.0])
        finally:
            m.close()

    def test_dead_command(self):
        m = SubprocessModel([sys.executable, "-c", "pass"], dimension=1)
        with pytest.raises(TransportError):
            m.evaluate([1.0])

    def test_batch_is_one_line_and_cached_rows_are_not_resent(self, tmp_path):
        m, requests = _child(tmp_path, BATCH_MODEL)
        try:
            first = m.evaluate(POINTS[0])
            ys = m.evaluate_batch(POINTS)
            again = m.evaluate_batch(POINTS[::-1])
        finally:
            m.close()
        np.testing.assert_array_equal(ys, 3.0 * POINTS[:, 0] - POINTS[:, 1])
        np.testing.assert_array_equal(again, ys[::-1])
        assert ys[0] == first
        assert m.query_count == 9
        assert requests() == [{"x": [1.0, 2.0]}, {"xs": POINTS[1:].tolist()}]

    def test_single_point_child_falls_back_after_one_probe(self, tmp_path):
        (tmp_path / "batch").mkdir()
        batching, _ = _child(tmp_path / "batch", BATCH_MODEL)
        echo, requests = _child(tmp_path, ECHO_MODEL)
        try:
            want = [batching.evaluate_batch(POINTS), batching.evaluate_batch(POINTS + 1.0)]
            got = [echo.evaluate_batch(POINTS), echo.evaluate_batch(POINTS + 1.0)]
        finally:
            batching.close()
            echo.close()
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert echo.query_count == batching.query_count == 8
        sent = requests()
        # the probe line killed the child; each point then went on its own
        assert [list(r) for r in sent] == [["xs"]] + [["x"]] * 8

    def test_probe_crash_leaves_stderr_quiet(self, tmp_path, capfd):
        # ECHO_MODEL dies with a KeyError traceback on the "xs" probe line
        echo, _ = _child(tmp_path, ECHO_MODEL)
        try:
            ys = echo.evaluate_batch(POINTS)
        finally:
            echo.close()
        np.testing.assert_array_equal(ys, 3.0 * POINTS[:, 0] - POINTS[:, 1])
        assert capfd.readouterr().err == ""

    def test_child_dying_twice_shows_its_stderr(self, tmp_path):
        script = tmp_path / "dies.py"
        script.write_text(
            "import sys\nsys.stdin.readline()\n"
            "print('loading weights', file=sys.stderr)\n"
            "sys.exit('weights file missing')\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=1)
        with pytest.raises(TransportError, match="died twice") as exc:
            m.evaluate([1.0])
        assert str(exc.value).endswith("weights file missing")

    def test_stderr_flood_does_not_block_the_child(self, tmp_path):
        # 200 KiB is far more than a pipe buffer holds
        script = tmp_path / "chatty.py"
        script.write_text(
            "import json, sys\nfor line in sys.stdin:\n"
            "    sys.stderr.write('x' * 200 * 1024); sys.stderr.flush()\n"
            "    print(json.dumps({'y': json.loads(line)['x'][0]}), flush=True)\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=1, timeout=5.0)
        try:
            assert [m.evaluate([1.0]), m.evaluate([2.0])] == [1.0, 2.0]
        finally:
            m.close()
        assert m._stderr_tail == b"x" * 4096

    def test_map_estimate_makes_one_request_per_iteration(self, tmp_path):
        # one request at the start, for the objective and its gradient, then
        # one per candidate step, which carries the gradient's displaced
        # points too while line searches take their first step
        m, requests = _child(tmp_path, SINE_BATCH_MODEL)
        try:
            res = map_estimate(single_point([0.5, 0.0], 1.0), m, ORACLE_HP, FINE_GRAD)
        finally:
            m.close()
        assert res.converged and res.halvings == 0
        assert len(requests()) == res.call_count == res.iterations

    def test_short_batch_after_batching_raises(self, tmp_path):
        m, _ = _child(tmp_path, BATCH_MODEL, "--short")
        try:
            m.evaluate_batch(POINTS[:2])
            with pytest.raises(TransportError, match="shape"):
                m.evaluate_batch(POINTS[2:])
        finally:
            m.close()

    def test_hung_child_times_out_and_is_killed(self, tmp_path):
        pid_file = tmp_path / "pid"
        script = tmp_path / "hang.py"
        script.write_text(
            "import os, sys, time\n"
            f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "sys.stdin.readline()\n"
            "print('waiting for a license server', file=sys.stderr, flush=True)\n"
            "time.sleep(60)\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=1, timeout=0.9)
        start = time.monotonic()
        with pytest.raises(TransportError, match="(?s)no answer within.*license server"):
            m.evaluate([1.0])
        assert time.monotonic() - start < 5.0
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)

    def test_child_ignoring_batch_line_times_out(self, tmp_path):
        script = tmp_path / "mute.py"
        script.write_text(
            "import json, sys\nfor line in sys.stdin:\n"
            "    doc = json.loads(line)\n"
            "    if 'x' in doc:\n"
            "        print(json.dumps({'y': doc['x'][0]})); sys.stdout.flush()\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=2, timeout=0.9)
        try:
            assert m.evaluate([4.0, 0.0]) == 4.0
            with pytest.raises(TransportError, match="no answer within"):
                m.evaluate_batch(POINTS)
        finally:
            m.close()

    def test_close_is_idempotent_and_kills_a_child_ignoring_eof(self, tmp_path):
        script = tmp_path / "stubborn.py"
        script.write_text(
            "import json, sys, time\n"
            "sys.stdin.readline()\n"
            "print(json.dumps({'y': 1.0})); sys.stdout.flush()\n"
            "time.sleep(60)\n"
        )
        m = SubprocessModel([sys.executable, str(script)], dimension=1, timeout=0.9)
        assert m.evaluate([0.0]) == 1.0
        proc = m._proc
        start = time.monotonic()
        m.close()
        m.close()
        assert time.monotonic() - start < 5.0
        assert proc.returncode is not None


class _Handler(BaseHTTPRequestHandler):
    capabilities = ({"batch": True}, 200)  # reply document and status
    posts: list = []

    def log_message(self, *args):
        pass

    def _send(self, doc, status=200):
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/capabilities":
            self._send(*self.capabilities)
        else:
            self._send({}, 404)

    def do_POST(self):
        n = int(self.headers["Content-Length"])
        req = json.loads(self.rfile.read(n))
        self.posts.append(req)
        if "xs" in req:
            self._send({"ys": [2.0 * x[0] + x[1] for x in req["xs"]]})
        else:
            x = req["x"]
            self._send({"y": 2.0 * x[0] + x[1]})


class _NoCapabilities(_Handler):
    capabilities = ({}, 404)
    posts: list = []


class _ListCapabilities(_Handler):
    capabilities = ([1], 200)
    posts: list = []


class _NonFiniteBatch(_Handler):
    posts: list = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self._send({"ys": [1.0, float("nan")]})  # json writes the token NaN


@contextlib.contextmanager
def _serving(handler):
    handler.posts.clear()
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def http_server(request):
    with _serving(getattr(request, "param", _Handler)) as url:
        yield url


class TestHttpAdapter:
    def test_single_and_batch(self, http_server):
        m = HttpModel(http_server, dimension=2)
        assert m.evaluate([1.0, 2.0]) == pytest.approx(4.0)
        ys = m.evaluate_batch(np.array([[1.0, 0.0], [0.0, 3.0]]))
        np.testing.assert_allclose(ys, [2.0, 3.0])
        assert m.query_count == 3

    @pytest.mark.parametrize("http_server", [_NoCapabilities], indirect=True)
    def test_missing_capabilities_fall_back_to_single_points(self, http_server):
        m = HttpModel(http_server, dimension=2)
        ys = m.evaluate_batch(POINTS)
        np.testing.assert_array_equal(ys, 2.0 * POINTS[:, 0] + POINTS[:, 1])
        assert m.query_count == len(POINTS)
        assert _NoCapabilities.posts == [{"x": x} for x in POINTS.tolist()]

    @pytest.mark.parametrize("http_server", [_ListCapabilities], indirect=True)
    def test_capabilities_not_an_object_raise(self, http_server):
        m = HttpModel(http_server, dimension=2)
        with pytest.raises(TransportError, match="capabilities"):
            m.evaluate_batch(POINTS)

    def test_batch_is_one_post(self, http_server):
        m = HttpModel(http_server, dimension=2)
        m.evaluate(POINTS[0])
        ys = m.evaluate_batch(POINTS)
        np.testing.assert_array_equal(ys, 2.0 * POINTS[:, 0] + POINTS[:, 1])
        assert _Handler.posts == [{"x": POINTS[0].tolist()}, {"xs": POINTS[1:].tolist()}]

    def test_unreachable_endpoint(self):
        m = HttpModel("http://127.0.0.1:1", dimension=1, timeout=0.3)
        with pytest.raises(TransportError):
            m.evaluate([0.0])


@pytest.mark.parametrize("reply, bad", [
    ('{"y": NaN}', 0),  # also the reply to the batch probe: a one-point child
    ('{"ys": [1.0, Infinity]}', 1),
    ("http", 1),
], ids=["subprocess-y", "subprocess-ys", "http-ys"])
def test_nonfinite_batch_answer_raises(tmp_path, reply, bad):
    with contextlib.ExitStack() as stack:
        if reply == "http":
            m = HttpModel(stack.enter_context(_serving(_NonFiniteBatch)), dimension=2)
        else:
            script = tmp_path / "child.py"
            script.write_text(
                f"import sys\nfor line in sys.stdin:\n    print({reply!r}, flush=True)\n"
            )
            m = SubprocessModel([sys.executable, str(script)], dimension=2)
            stack.callback(m.close)
        with pytest.raises(NonFiniteModelOutput) as exc:
            m.evaluate_batch(POINTS[:2])
    np.testing.assert_array_equal(exc.value.x, POINTS[bad])
    assert m.query_count == 2
