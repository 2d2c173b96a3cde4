"""The benchmark's output checks (``bench/checks.py``) on one round of each
of its workloads, run through ``cli.main`` as ``bench/workloads.build``
describes them at seed 1.  A change that makes the benchmark report
``correct: false`` fails this suite first, and so does a change to the
number of model queries or calls any workload sends.
"""

import contextlib
import hashlib
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from anomattr import cli
from anomattr.dataio import TestSet
from anomattr.gpa import map_estimate
from anomattr.models import GradientEstimatorConfig, sinusoidal2d
from conftest import ORACLE_HP, driven

BENCH = Path(__file__).resolve().parents[1] / "bench"
# the gpa query_count of the three seed-1 collective-builtin operations,
# summed: the gamma rates (20 rows) and the MAP solves, 18, 11 and 16
# iterations.  A solve sends every draw at its start (6,020 rows), one pair
# per coordinate in each later batch (1,220), and the 8 missing draws per
# coordinate at its stop (4,800): 31,580 + 23,040 + 29,140
COLLECTIVE_GPA_QUERIES = 83_760
# and their model calls: the start's batch, which carries the rate rows, one
# batch per later iteration and the confirmation, 1 + 18, 1 + 11 and 1 + 16
COLLECTIVE_GPA_CALLS = 48
# the documents' model_queries and model_calls, summed: the gpa sums above
# and the posterior slices, 20 rows x 100 grid points per variable, packed
# 3 variables to a batch (no more rows than the solve's first batch of
# 6,020): 3 x 60,000 queries in 3 x 10 calls
COLLECTIVE_QUERY_PLAN = (263_760, 78)
# the model_queries and model_calls of every method in the six seed-1
# operations of the sinusoid workloads, summed.  Each compare runs its
# methods in lockstep, one model call per step, so it takes as many calls
# as its longest run: the 4-5 steps of gpa's or of lc's solve.  eig sends
# its 64 paths of 2,000 rows 16 to a batch, plus x_t's 20 rows in the
# first, so its 4 steps end inside theirs (8 steps, and 48 calls, at half
# that budget), and lime's cloud, ig's path and sv's coalitions (1,000,
# 2,020 and 256 rows) ride the first call (99 calls when the methods ran
# one after another).  Each explain's residual
# rows, the six rows of its noise variance and anomaly score, ride at the
# front of gpa's first batch, so explain sends no call outside gpa (31
# calls before they did).  Every pointwise call sends rows the subprocess
# child has not yet answered, and each one reaches the child: 25 calls, 25
# child requests
SINUSOID_QUERY_PLANS = {"pointwise-subprocess": (561, 25),
                        "baselines-compare": (788_847, 26)}
# the SHA-256 of the three seed-1 collective-builtin distributions.svg files
COLLECTIVE_SVG_SHA256 = [
    "77d6fdf5e88cb740d1a1da8f52e9918992bc168f9eef6db7d87d3ce8ff2f23ec",
    "4cdf18d8acf4edb6204509632d0ee6d09d4f93e79ef1907310ba0f7e0a81cf0d",
    "ec12b5cfd3f0b0fd0999aa1be1064e987849c3c10541221c20ecabb06ad083b8",
]
# the bound on the tracemalloc peak of the first seed-1 operation of a
# workload, run once untraced first, in MiB.  Measured 1.02 for compare,
# whose largest batch is eig's first, 35,338 rows of 2 inputs (16 of its 64
# paths, x_t's rows and the other methods' rows), and 1.65 for the
# collective, whose largest is the solve's first (6,040 rows of 30)
PEAK_MIB = {"baselines-compare": 1.1, "collective-builtin": 1.8}
# map_estimate on each of the six seed-1 sinusoid rows at the default
# gradient flags (--grad-std 1), which no workload runs: the summed
# query_count, call_count, iterations and halvings.  The smoothed slope
# there makes each solve take 11-12 iterations and 11-13 halvings
DEFAULT_FLAG_SINUSOID_PLAN = (1_618, 142, 68, 70)


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    return workloads, checks


@pytest.mark.parametrize("workload", ["collective-builtin", "pointwise-subprocess",
                                      "baselines-compare"])
def test_seed_one_round_passes_the_checks(bench, tmp_path, workload):
    workloads, checks = bench
    ops, _, _ = workloads.build(workload, 1, tmp_path)
    child_counts = tmp_path / "child_counts.jsonl"
    docs = []
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(op.argv) == 0, op.name
        doc = json.loads(op.output.read_text(encoding="utf-8"))
        docs.append(doc)
        if workload == "baselines-compare" and op.expect["row"] % 2 == 1:
            problems = checks.CHECKS[workload](op.expect, doc, docs[op.expect["pair"]])
        else:
            problems = checks.CHECKS[workload](op.expect, doc)
        assert problems == [], op.name
    if workload == "collective-builtin":
        # a change that adds queries to the collective solves fails here,
        # and says in CHANGES.md why it needs them
        gpa = [doc["diagnostics"]["gpa"] for doc in docs]
        assert sum(d["query_count"] for d in gpa) == COLLECTIVE_GPA_QUERIES
        assert sum(d["call_count"] for d in gpa) == COLLECTIVE_GPA_CALLS
    plan = tuple(sum(doc["diagnostics"][key] for doc in docs)
                 for key in ("model_queries", "model_calls"))
    if workload == "collective-builtin":
        assert plan == COLLECTIVE_QUERY_PLAN
    else:
        assert plan == SINUSOID_QUERY_PLANS[workload]
    if workload == "baselines-compare":
        # a run with more steps than both solves, such as eig's paths in
        # smaller batches, fails here
        for op, doc in zip(ops, docs):
            diagnostics = doc["diagnostics"]
            assert diagnostics["model_calls"] == max(
                diagnostics["gpa"]["call_count"], diagnostics["lc"]["call_count"]), op.name
    if workload == "pointwise-subprocess":
        # a call outside gpa, such as one of the residual rows alone, fails here
        for op, doc in zip(ops, docs):
            diagnostics = doc["diagnostics"]
            assert diagnostics["model_calls"] == diagnostics["gpa"]["call_count"], op.name
        # each call is one request to the child
        requests = sum(json.loads(line)["requests"]
                       for line in child_counts.read_text(encoding="utf-8").splitlines())
        assert requests == plan[1]


def test_seed_one_collective_svgs_keep_their_bytes(bench, tmp_path):
    workloads, _ = bench
    ops, _, _ = workloads.build("collective-builtin", 1, tmp_path)
    digests = []
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(op.argv) == 0, op.name
        svg = op.output.parent / "distributions.svg"
        digests.append(hashlib.sha256(svg.read_bytes()).hexdigest())
    assert digests == COLLECTIVE_SVG_SHA256


def test_default_flag_sinusoid_plan(bench):
    workloads, _ = bench
    plan = np.zeros(4, dtype=int)
    for x1, y in workloads.sinusoid_rows(1):
        testset = TestSet(np.array([[x1, 0.0]]), np.array([y]), ["x1", "x2"])
        result = driven(sinusoidal2d(), map_estimate)(testset, ORACLE_HP,
                                                      GradientEstimatorConfig())
        assert result.converged
        plan += (result.query_count, result.call_count, result.iterations, result.halvings)
    assert tuple(plan.tolist()) == DEFAULT_FLAG_SINUSOID_PLAN


@pytest.mark.parametrize("workload", PEAK_MIB)
def test_seed_one_operation_peak_memory(bench, tmp_path, workload):
    # a larger batch budget, or a batch alive beside the next one, shows
    # here before it shows in the benchmark's peak RSS
    workloads, _ = bench
    op = workloads.build(workload, 1, tmp_path)[0][0]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(op.argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(op.argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < PEAK_MIB[workload] * 2**20, f"{peak / 2**20:.3f} MiB"
