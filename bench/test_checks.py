"""Tests of the benchmark's own parts: each checker accepts the program's
real output and rejects a wrong answer; the model child speaks both
request forms; the tracer's counts agree with the program's.

Run: ``python3 -m pytest -q bench/test_checks.py``
"""

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from anomattr import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(op) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(op.argv) == 0
    return json.loads(op.output.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def collective(tmp_path_factory):
    ops, _, _ = workloads.build("collective-builtin", 0, tmp_path_factory.mktemp("c"))
    op = ops[1]  # the cheapest base problem
    return op.expect, _run(op)


@pytest.fixture(scope="module")
def compare(tmp_path_factory):
    ops, _, _ = workloads.build("baselines-compare", 0, tmp_path_factory.mktemp("s"))
    return ops[0].expect, _run(ops[0]), ops[1].expect, _run(ops[1])


@pytest.fixture(scope="module")
def pointwise(tmp_path_factory):
    # the builtin surface stands in for the child: the check reads only
    # the result document
    ops, _, _ = workloads.build("pointwise-subprocess", 0, tmp_path_factory.mktemp("p"))
    op = ops[2]
    op.argv[op.argv.index("--model") + 1] = "sinusoidal2d"
    return op.expect, _run(op)


def _mutated(doc, path, fn):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = fn(target[path[-1]])
    return doc


def _shift(index, amount):
    def fn(values):
        values = list(values)
        values[index] += amount
        return values
    return fn


# --- collective-builtin ---------------------------------------------------

def test_collective_accepts_program_output(collective):
    expect, doc = collective
    assert checks.check_collective(expect, doc) == []


def test_collective_rejects_shifted_delta(collective):
    expect, doc = collective
    k = int(np.argmax(np.abs(doc["methods"]["gpa"]["scores"])))
    for amount in (1e-2, -1e-2):
        bad = _mutated(doc, ["methods", "gpa", "scores"], _shift(k, amount))
        assert any("KKT" in p for p in checks.check_collective(expect, bad))


def test_collective_rejects_flipped_sign(collective):
    expect, doc = collective
    k = int(np.argmax(np.abs(doc["methods"]["gpa"]["scores"])))

    def flip(values):
        values = list(values)
        values[k] = -values[k]
        return values

    bad = _mutated(doc, ["methods", "gpa", "scores"], flip)
    assert any("KKT" in p for p in checks.check_collective(expect, bad))


def test_collective_rejects_unnormalized_slice(collective):
    expect, doc = collective
    bad = _mutated(doc, ["methods", "gpa", "distribution", "probs"],
                   lambda probs: [list(np.asarray(probs[0]) * 1.01), *probs[1:]])
    assert any("sum to 1" in p for p in checks.check_collective(expect, bad))


def test_collective_rejects_wrong_slice_shape(collective):
    expect, doc = collective
    k = int(np.argmax(np.abs(doc["methods"]["gpa"]["scores"])))

    def mirror(probs):
        probs = [list(p) for p in probs]
        probs[k] = probs[k][::-1]  # still sums to 1
        return probs

    bad = _mutated(doc, ["methods", "gpa", "distribution", "probs"], mirror)
    assert any("log-density" in p for p in checks.check_collective(expect, bad))


def test_collective_rejects_unconverged(collective):
    expect, doc = collective
    bad = _mutated(doc, ["diagnostics", "gpa", "converged"], lambda _: False)
    assert checks.check_collective(expect, bad) == ["solver did not report convergence"]


# --- pointwise-subprocess ---------------------------------------------------

def test_pointwise_accepts_program_output(pointwise):
    expect, doc = pointwise
    assert checks.check_pointwise(expect, doc) == []


@pytest.mark.parametrize("change", [_shift(0, 1e-2), _shift(1, 1e-2),
                                    lambda v: [-v[0], v[1]]])
def test_pointwise_rejects_wrong_delta(pointwise, change):
    expect, doc = pointwise
    bad = _mutated(doc, ["methods", "gpa", "scores"], change)
    assert any("closed form" in p for p in checks.check_pointwise(expect, bad))


def test_pointwise_rejects_wrong_anomaly_score(pointwise):
    expect, doc = pointwise

    def nudge(scores):
        return [dict(scores[0], value=scores[0]["value"] * (1 + 1e-6))]

    bad = _mutated(doc, ["anomaly_scores"], nudge)
    assert any("anomaly score" in p for p in checks.check_pointwise(expect, bad))


# --- baselines-compare ------------------------------------------------------

def test_compare_accepts_program_output(compare):
    expect0, doc0, expect1, doc1 = compare
    assert checks.check_compare(expect0, doc0) == []
    assert checks.check_compare(expect1, doc1, doc0) == []


@pytest.mark.parametrize("method,change,message", [
    ("gpa", _shift(0, 1e-2), "closed form"),
    ("lc", _shift(0, 2e-3), "lc differs"),
    ("ig", lambda v: [-v[0], v[1]], "ig off"),
    ("sv", _shift(1, 1e-6), "sv differs"),
    ("eig", lambda v: [-v[0], -v[1]], "eig sums"),
    ("eig", lambda v: [v[0] + 1e-4, v[1] - 1e-4], "trapezoid"),
    ("zscore", _shift(0, 1e-6), "zscore"),
])
def test_compare_rejects_wrong_method(compare, method, change, message):
    expect0, doc0, _, _ = compare
    bad = _mutated(doc0, ["scores", method], change)
    assert any(message in p for p in checks.check_compare(expect0, bad))


@pytest.mark.parametrize("method", checks.DEVIATION_AGNOSTIC)
def test_compare_rejects_target_dependence(compare, method):
    # a 1-ulp change is enough: the property is bit-for-bit
    _, doc0, expect1, doc1 = compare
    bad = _mutated(doc1, ["scores", method],
                   lambda v: [float(np.nextafter(v[0], np.inf)), v[1]])
    problems = checks.check_compare(expect1, bad, doc0)
    assert f"{method} changed with y at the same x" in problems


def test_compare_rejects_target_blind_gpa(compare):
    _, doc0, expect1, doc1 = compare
    bad = _mutated(doc1, ["scores", "gpa"], lambda _: doc0["scores"]["gpa"])
    assert "gpa did not change with y at the same x" in checks.check_compare(
        expect1, bad, doc0)


# --- closed forms -----------------------------------------------------------

def test_path_integral_obeys_sum_rule():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x_t, x_0 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        total = checks.surface(x_t)[0] - checks.surface(x_0)[0]
        assert abs(checks.path_integral(x_t, x_0).sum() - total) < 1e-12
        fine = checks.trapezoid_path_integral(x_t, x_0, 20_000)
        assert np.max(np.abs(fine - checks.path_integral(x_t, x_0))) < 1e-7


# --- model child and tracer -----------------------------------------------

def test_child_answers_both_forms_and_counts(tmp_path):
    counts = tmp_path / "counts.jsonl"
    requests = [{"x": [0.25, 0.0]}, {"xs": [[0.0, 0.0], [1.0, 0.5], [0.5, 0.5]]}]
    proc = subprocess.run(
        [sys.executable, str(HERE / "model_child.py"), "--counts", str(counts)],
        input="".join(json.dumps(r) + "\n" for r in requests),
        capture_output=True, text=True, timeout=30, check=True,
    )
    replies = [json.loads(line) for line in proc.stdout.splitlines()]
    assert replies[0]["y"] == pytest.approx(2 * np.cos(np.pi / 4))
    assert replies[1]["ys"] == pytest.approx([2.0, 0.0, 0.0], abs=1e-15)
    assert json.loads(counts.read_text()) == {"requests": 2, "points": 4}


def test_tracer_counts_match_program_and_uninstall(tmp_path):
    ops, _, _ = workloads.build("baselines-compare", 0, tmp_path)
    op = ops[0]
    argv = ["explain", "--methods", "gpa,lime", *op.argv[op.argv.index("--data"):]]
    original = cli.resolve_model
    tracer = Tracer(store_spans=True)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert tracer.root("cli.main", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert cli.resolve_model is original
    doc = json.loads((op.output.parent / "result.json").read_text())
    assert tracer.points == doc["diagnostics"]["model_queries"]
    assert tracer.solver["gpa.map_estimate"][1] == doc["diagnostics"]["gpa"]["iterations"]
    spans = tracer.spans
    root = [i for i, n in enumerate(spans["name"]) if n == tracer.names["cli.main"]]
    assert len(root) == 1 and spans["parent"][root[0]] == -1
    assert len(spans["id"]) == sum(total[0] for total in tracer.totals.values())
    assert tracer.totals["cli.main"][2] <= tracer.totals["cli.main"][1]
