"""The benchmark's output checks (``bench/checks.py``) on one round of each
of its workloads, run through ``cli.main`` as ``bench/workloads.build``
describes them at seed 1.  A change that makes the benchmark report
``correct: false`` fails this suite first, and so does a change to the
number of model queries or calls any workload sends.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from anomattr import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
# the gpa query_count of the three seed-1 collective-builtin operations,
# summed: the gamma rates (20 rows) and the MAP solves, 18, 11 and 16
# iterations.  A solve sends every draw at its start (6,020 rows), one pair
# per coordinate in each later batch (1,220), and the 8 missing draws per
# coordinate at its stop (4,800): 31,580 + 23,040 + 29,140
COLLECTIVE_GPA_QUERIES = 83_760
# and their model calls: the rates, the start's batch, one batch per later
# iteration and the confirmation, 2 + 18, 2 + 11 and 2 + 16
COLLECTIVE_GPA_CALLS = 51
# the model_queries and model_calls of every method in the six seed-1
# operations of the sinusoid workloads, summed
SINUSOID_QUERY_PLANS = {"pointwise-subprocess": (567, 37),
                        "baselines-compare": (835_797, 453)}


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
    else:
        plan = tuple(sum(doc["diagnostics"][key] for doc in docs)
                     for key in ("model_queries", "model_calls"))
        assert plan == SINUSOID_QUERY_PLANS[workload]
