"""Every misbehaving black box ends a command within its deadline.

Each case runs ``explain`` over a remote model, a subprocess child or an HTTP
server, that fails in one way on its first batch, the batch that carries
the residual rows, lime's cloud and ig's path ahead of gpa's rows.  The
adapter's timeout is 0.5 s.  The command must exit 3 with one message line
that names the fault, write no document, leave no child running and return
within the timeout plus a margin.  A ``/capabilities`` that never answers is
no fault: the adapter learns that a server batches from its first batch
request, so the command never asks there and writes what a batching server
gives, well within the timeout.
"""

import contextlib
import json
import os
import sys
import textwrap
import threading
import time
from http.server import BaseHTTPRequestHandler

import pytest

from anomattr import HttpModel, SubprocessModel, cli
from conftest import serving

TIMEOUT = 0.5
# a child's start, a restart and the command around the request
MARGIN = 1.5

# A child that fails in the way its first argument names, on every request
# line, and appends its pid to the file its second argument names.
FAULT_CHILD = textwrap.dedent(
    """
    import json, os, sys, time
    fault, pids = sys.argv[1], sys.argv[2]
    with open(pids, "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    for line in sys.stdin:
        doc = json.loads(line)
        n = len(doc["xs"]) if "xs" in doc else 1
        reply = json.dumps({"ys": [1.0] * n} if "xs" in doc else {"y": 1.0}) + "\\n"
        if fault == "silence":
            time.sleep(60)
        elif fault == "trickle":
            for byte in reply.encode():
                sys.stdout.buffer.write(bytes([byte]))
                sys.stdout.flush()
                time.sleep(0.1)
        elif fault == "wrong length":
            print(json.dumps({"ys": [1.0] * (n - 1)}), flush=True)
        elif fault == "non-JSON":
            print("<html>busy</html>", flush=True)
        elif fault == "NaN":
            print(json.dumps({"ys": [float("nan")] * n}), flush=True)
        elif fault == "closed mid-body":
            sys.stdout.write(reply[: len(reply) // 2])
            sys.stdout.flush()
            sys.exit(1)
        elif fault == "answer twice":
            sys.stdout.write(reply * 2)
            sys.stdout.flush()
    """
)


class _FaultyEndpoint(BaseHTTPRequestHandler):
    """Answers each ``/predict`` with the fault the handler class names."""

    fault = ""

    def log_message(self, *args):
        pass

    def _head(self, status, length):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(length))
        self.end_headers()

    def _trickle(self, data):
        for byte in data:
            self.wfile.write(bytes([byte]))
            self.wfile.flush()
            time.sleep(0.1)

    def do_POST(self):
        doc = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        n = len(doc["xs"]) if "xs" in doc else 1
        body = json.dumps({"ys": [1.0] * n} if "xs" in doc else {"y": 1.0}).encode()
        try:
            if self.fault == "silence":
                time.sleep(TIMEOUT + 0.2)
            elif self.fault == "trickle":
                self._head(200, len(body))
                self._trickle(body)
            elif self.fault == "trickled head":
                self._trickle(b"HTTP/1.0 200 OK\r\n" + f"Content-Length: {len(body)}\r\n\r\n"
                              .encode() + body)
            elif self.fault == "wrong length":
                body = json.dumps({"ys": [1.0] * (n - 1)}).encode()
                self._head(200, len(body))
                self.wfile.write(body)
            elif self.fault == "non-JSON":
                self._head(200, 17)
                self.wfile.write(b"<html>busy</html>")
            elif self.fault == "NaN":
                body = json.dumps({"ys": [float("nan")] * n}).encode()
                self._head(200, len(body))
                self.wfile.write(body)
            elif self.fault == "HTTP 500":
                self._head(500, 2)
                self.wfile.write(b"{}")
            elif self.fault == "closed mid-body":
                self._head(200, len(body))
                self.wfile.write(body[: len(body) // 2])
        except OSError:  # the client has hung up
            pass


FAULTS = {
    "silence": "no answer within 0.5 s",
    "trickle": "no answer within 0.5 s",
    "wrong length": "has shape",
    "non-JSON": "malformed model response",
    "NaN": "non-finite output nan",
}
SUBPROCESS_FAULTS = {
    **FAULTS,
    "closed mid-body": "died twice",
    "answer twice": "output no request asked for",
}
HTTP_FAULTS = {
    **FAULTS,
    "trickled head": "no answer within 0.5 s",
    "HTTP 500": "answered HTTP 500",
    "closed mid-body": "model endpoint failed",
}
CASES = ([("subprocess", f, m) for f, m in SUBPROCESS_FAULTS.items()]
         + [("http", f, m) for f, m in HTTP_FAULTS.items()])


@pytest.fixture
def data(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("x1,x2,y\n0.5,0.0,1.0\n0.5,0.0,0.0\n0.5,0.0,-1.0\n")
    return p


@pytest.mark.parametrize("adapter, fault, message", CASES,
                         ids=[f"{a}-{f}" for a, f, _ in CASES])
def test_explain_ends_within_the_deadline(tmp_path, data, capsys, monkeypatch, adapter,
                                          fault, message):
    script, pids = tmp_path / "child.py", tmp_path / "pids"
    script.write_text(FAULT_CHILD)
    out = tmp_path / "out"
    with contextlib.ExitStack() as stack:
        if adapter == "http":
            handler = type("Handler", (_FaultyEndpoint,), {"fault": fault})
            url = stack.enter_context(serving(handler))
            monkeypatch.setattr(cli, "resolve_model",
                                lambda spec, dim: HttpModel(url, dim, timeout=TIMEOUT))
        else:
            command = [sys.executable, str(script), fault, str(pids)]
            monkeypatch.setattr(cli, "resolve_model",
                                lambda spec, dim: SubprocessModel(command, dim, timeout=TIMEOUT))
        start = time.monotonic()
        code = cli.main(["explain", "--data", str(data), "--model", "remote",
                         "--methods", "gpa,lime,ig", "--baseline", "0,0",
                         "--b0", "10", "--out", str(out)])
        elapsed = time.monotonic() - start
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err and "Traceback" not in err
    assert not out.exists()
    assert elapsed < TIMEOUT + MARGIN
    for pid in (pids.read_text().split() if adapter == "subprocess" else []):
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)


class _SlopeEndpoint(BaseHTTPRequestHandler):
    """Answers ``/predict`` with ``2 x1 + x2``, and ``/capabilities`` with
    batching if the handler class's ``release`` is None, else only once that
    event is set."""

    release: threading.Event | None = None
    posts: list

    def log_message(self, *args):
        pass

    def _send(self, doc):
        body = json.dumps(doc).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.release is not None:
            self.release.wait(60)
        with contextlib.suppress(OSError):  # the client has hung up
            self._send({"batch": True})

    @staticmethod
    def f(x):
        return 2.0 * x[0] + x[1]

    def do_POST(self):
        doc = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.posts.append("xs" if "xs" in doc else "x")
        self._send({"ys": [self.f(x) for x in doc["xs"]]} if "xs" in doc else
                   {"y": self.f(doc["x"])})


def test_capabilities_that_never_answer_give_the_batching_scores(tmp_path, data, capsys,
                                                                 monkeypatch):
    # the adapter never asks /capabilities: each command's first batch goes
    # as one xs post and tells it that the server batches
    results, posts = {}, {}
    for case in ("batching", "silent"):
        release = threading.Event()
        handler = type("Handler", (_SlopeEndpoint,), {
            "release": release if case == "silent" else None, "posts": []})
        out = tmp_path / case
        with contextlib.ExitStack() as stack:
            url = stack.enter_context(serving(handler))
            stack.callback(release.set)  # the held GET ends before the server stops
            monkeypatch.setattr(cli, "resolve_model",
                                lambda spec, dim: HttpModel(url, dim, timeout=TIMEOUT))
            start = time.monotonic()
            code = cli.main(["explain", "--data", str(data), "--model", "remote",
                             "--methods", "gpa", "--b0", "10", "--out", str(out)])
            elapsed = time.monotonic() - start
        assert code == 0, capsys.readouterr().err
        assert elapsed < TIMEOUT / 2
        results[case] = json.loads((out / "result.json").read_text())["methods"]["gpa"]
        posts[case] = set(handler.posts)
    assert results["silent"] == results["batching"]
    assert posts == {"batching": {"xs"}, "silent": {"xs"}}
