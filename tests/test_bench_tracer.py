"""The benchmark's tracer (``bench/tracer.py``) wraps library functions by
name.  Installing it here makes a rename fail this suite instead of a traced
benchmark run, and a traced ``dist`` run shows the query plan of one GPA run.
"""

import contextlib
import io
from pathlib import Path

import pytest

from anomattr import baselines, cli, dataio, gpa, metrics, models
from conftest import strict_json

BENCH = Path(__file__).resolve().parents[1] / "bench"
# every (owner, name) the tracer replaces while it is installed
WRAPPED = [
    (models.ModelHandle, "evaluate"), (models.ModelHandle, "evaluate_batch"),
    (cli, "resolve_model"), (dataio, "load_csv"), (dataio, "emit_result_json"),
    (dataio, "emit_litmus_svg"), (dataio, "emit_distribution_svg"),
    *((gpa, name) for name in ("init_gamma_rate", "refine_gamma_rate", "map_estimate",
                               "score_distributions", "proximal_minimize")),
    (models, "estimate_gradient"), (gpa, "estimate_gradient"),
    (baselines, "estimate_gradient"), (baselines, "proximal_minimize"),
    *((baselines, name) for name in ("lc", "lime", "integrated_gradient",
                                     "expected_integrated_gradient", "shapley_sampled",
                                     "z_score")),
    *((metrics, name) for name in ("anomaly_score", "collective_anomaly_score",
                                   "consistency_report")),
]


@pytest.fixture
def tracer_cls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    return Tracer


def test_install_wraps_and_uninstall_restores(tracer_cls):
    originals = [getattr(owner, name) for owner, name in WRAPPED]
    tracer = tracer_cls()
    tracer.install()
    try:
        assert {(owner, name) for owner, name, _ in tracer._saved} == set(WRAPPED)
        wrapped = [getattr(owner, name) for owner, name in WRAPPED]
    finally:
        tracer.uninstall()
    for (owner, name), original, wrapper in zip(WRAPPED, originals, wrapped):
        assert wrapper is not original, (owner.__name__, name)
        assert getattr(owner, name) is original, (owner.__name__, name)


def test_traced_collective_dist_resolves_rates_once(tracer_cls, tmp_path):
    # 4 rows of a quadratic model in 3 variables, c_b rates (no --b0)
    data = tmp_path / "rows.csv"
    data.write_text("a,b,c,y\n0.1,0.2,0.3,1.0\n-0.2,0.1,0.0,0.9\n"
                    "0.3,-0.1,0.2,1.2\n0.0,0.0,-0.3,0.8\n")
    argv = ["dist", "--data", str(data), "--model", "quadratic:1,2,0.5",
            "--indices", "0,1,2,3", "--collective", "--grid-points", "11",
            "--max-iter", "20", "--out", str(tmp_path / "out")]
    tracer = tracer_cls()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    calls, _, _, points, model_calls = tracer.totals["gpa.score_distributions"]
    assert tracer.totals["gpa.rates"][0] == 1
    # 2 variables of 4 x 11 rows fit in the solve's first batch of 4 x 31
    assert (calls, model_calls, points) == (1, 2, 3 * 4 * 11)
    doc = strict_json((tmp_path / "out" / "distributions.json").read_text())
    assert len(doc["diagnostics"]["gpa"]["edge_mass"]) == 3


def test_traced_collective_operation_sends_the_untraced_queries(tracer_cls, tmp_path,
                                                                monkeypatch):
    # one seed-1 collective-builtin operation: its solve drops pairs and is
    # confirmed by a callable of its own, which the tracer's one-argument
    # grad_fn wrapper must not hide
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    op = workloads.build("collective-builtin", 1, tmp_path)[0][0]
    handles, resolve = [], cli.resolve_model
    monkeypatch.setattr(cli, "resolve_model",
                        lambda *args: handles.append(resolve(*args)) or handles[-1])
    runs = []
    for tracer in (None, tracer_cls()):
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(op.argv) == 0
        finally:
            if tracer is not None:
                tracer.uninstall()
        runs.append(op.output.read_bytes())
    assert runs[0] == runs[1]
    doc = strict_json(runs[1].decode())
    gpa_doc = doc["diagnostics"]["gpa"]
    assert gpa_doc["confirmations"] == 1 and gpa_doc["one_pair_batches"] > 0
    grid = doc["methods"]["gpa"]["distribution"]["grid"]
    slices = workloads.N_ROWS * workloads.DIM * len(grid)
    assert tracer.totals["gpa.map_estimate"][3] == gpa_doc["query_count"]
    assert tracer.points == gpa_doc["query_count"] + slices
    assert [h.query_count for h in handles] == [tracer.points] * 2
    assert tracer.solver["gpa.map_estimate"][1] == gpa_doc["iterations"]


def test_traced_compare_operation_writes_the_untraced_bytes(tracer_cls, tmp_path,
                                                            monkeypatch):
    # one seed-1 baselines-compare operation runs all seven methods in
    # lockstep, inside gpa's map_estimate: the traced run writes the same
    # bytes, and the tracer counts every query there
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer as tracer_module
    import workloads

    op = workloads.build("baselines-compare", 1, tmp_path)[0][0]
    runs = []
    for tracer in (None, tracer_cls()):
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(op.argv) == 0
        finally:
            if tracer is not None:
                tracer.uninstall()
        runs.append(op.output.read_bytes())
    assert runs[0] == runs[1]
    doc = strict_json(runs[1].decode())
    assert tracer.points == doc["diagnostics"]["model_queries"]
    assert tracer.totals["gpa.map_estimate"][3] == tracer.points
    assert tracer.totals["gpa.map_estimate"][4] == doc["diagnostics"]["model_calls"]
    # the baselines run as runs, so their wrappers see no call but the
    # query-free z_score's, and lc's solve is counted outside their spans:
    # per-method figures are the library's to report (ROADMAP item 5)
    for name in tracer_module.BASELINE_METHODS:
        assert tracer.totals[f"baselines.{name}"][0] == (name == "z_score"), name
    assert tracer.solver["baselines.lc"][1] == 0 < tracer.solver["?"][1]
