"""The benchmark's tracer (``bench/tracer.py``) wraps library functions by
name.  Installing it here makes a rename fail this suite instead of a traced
benchmark run, as a check of the signatures its wrappers call does for a
reordering, and a traced ``dist`` run shows the query plan of one GPA run.
"""

import contextlib
import inspect
import io
from pathlib import Path
from types import SimpleNamespace

import pytest

from anomattr import baselines, cli, dataio, gpa, metrics, models
from conftest import LATTICE_EIG_BATCHES, strict_json

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
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    return tracer


@pytest.fixture
def tracer_cls(tracer_module):
    return tracer_module.Tracer


def _convention_faults(solvers, emitters, handle, emit_path_arg) -> list:
    """What breaks a calling convention of the tracer's wrappers: each of
    ``solvers`` takes ``grad_fn, value_fn`` first, each writer ``name`` of
    ``emitters`` takes ``path`` at index ``emit_path_arg[name]``, and the
    ``evaluate`` and ``evaluate_batch`` of the class ``handle`` take one
    argument after ``self``.  No call is made."""
    def names(fn):
        return list(inspect.signature(fn).parameters)

    faults = [f"{fn.__module__}.{fn.__name__} takes {names(fn)[:2]} first"
              for fn in solvers if names(fn)[:2] != ["grad_fn", "value_fn"]]
    for name, arg in emit_path_arg.items():
        if names(getattr(emitters, name))[arg:arg + 1] != ["path"]:
            faults.append(f"{name} takes no path at {arg}")
    for name in ("evaluate", "evaluate_batch"):
        if len(names(getattr(handle, name))) != 2:
            faults.append(f"{handle.__name__}.{name} takes {names(getattr(handle, name))}")
    return faults


def test_library_keeps_the_wrappers_calling_conventions(tracer_module):
    # the warm-up round of every benchmark run is traced, so a signature a
    # wrapper cannot call would fail every operation there
    assert _convention_faults([gpa.proximal_minimize, baselines.proximal_minimize], dataio,
                              models.ModelHandle, tracer_module.EMIT_PATH_ARG) == []


@pytest.mark.parametrize("broken", ["solver", "emitter", "handle"])
def test_convention_check_sees_a_reordered_signature(tracer_module, broken):
    def solver(value_fn, grad_fn, confirm_fn, dim, hp, seed):
        pass

    def emit_result_json(path, doc):
        pass

    class Handle(models.ModelHandle):
        def evaluate_batch(self, xs, chunk):
            pass

    # the library's own signatures are checked above; here the broken
    # stand-in must be named, whatever the library gives
    solvers = [solver if broken == "solver" else gpa.proximal_minimize]
    emitters = SimpleNamespace(**{name: getattr(dataio, name)
                                  for name in tracer_module.EMIT_PATH_ARG})
    if broken == "emitter":
        emitters.emit_result_json = emit_result_json
    handle = Handle if broken == "handle" else models.ModelHandle
    faults = _convention_faults(solvers, emitters, handle, tracer_module.EMIT_PATH_ARG)
    named = {"solver": ".solver takes", "emitter": "emit_result_json takes",
             "handle": "Handle.evaluate_batch takes"}[broken]
    assert any(named in fault for fault in faults), faults


def _traced_and_untraced_bytes(op, tracer) -> list:
    """The bytes ``op`` writes through ``cli.main``, untraced and then under
    ``tracer``."""
    runs = []
    for active in (None, tracer):
        if active is not None:
            active.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(op.argv) == 0
        finally:
            if active is not None:
                active.uninstall()
        runs.append(op.output.read_bytes())
    return runs


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
    # score_distributions builds the slices' run, which the CLI drives behind
    # the solve: its span holds no points
    assert (calls, model_calls, points) == (1, 0, 0)
    doc = strict_json((tmp_path / "out" / "distributions.json").read_text())
    assert len(doc["diagnostics"]["gpa"]["edge_mass"]) == 3
    # 2 variables of 4 x 11 rows fit in the solve's first batch of 4 x 31:
    # 3 variables' slices in 2 calls
    gpa_doc, counts = doc["diagnostics"]["gpa"], doc["diagnostics"]
    assert tracer.points - gpa_doc["query_count"] == 3 * 4 * 11
    assert counts["model_calls"] == gpa_doc["call_count"] + 2


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
    tracer = tracer_cls()
    runs = _traced_and_untraced_bytes(op, tracer)
    assert runs[0] == runs[1]
    doc = strict_json(runs[1].decode())
    gpa_doc = doc["diagnostics"]["gpa"]
    assert gpa_doc["confirmations"] == 1 and gpa_doc["one_pair_batches"] > 0
    grid = doc["methods"]["gpa"]["distribution"]["grid"]
    slices = workloads.N_ROWS * workloads.DIM * len(grid)
    # map_estimate builds its run, which the CLI drives: its span holds no
    # points
    assert tracer.totals["gpa.map_estimate"][3] == 0
    assert tracer.points == gpa_doc["query_count"] + slices
    assert [h.query_count for h in handles] == [tracer.points] * 2
    assert tracer.solver["gpa.map_estimate"][1] == gpa_doc["iterations"]


def test_traced_compare_operation_writes_the_untraced_bytes(tracer_cls, tmp_path,
                                                            monkeypatch):
    # one seed-1 baselines-compare operation runs all seven methods in
    # lockstep, in the CLI's one drive: the traced run writes the same
    # bytes, and the tracer counts every query there
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer as tracer_module
    import workloads

    op = workloads.build("baselines-compare", 1, tmp_path)[0][0]
    tracer = tracer_cls()
    runs = _traced_and_untraced_bytes(op, tracer)
    assert runs[0] == runs[1]
    doc = strict_json(runs[1].decode())
    assert tracer.points == doc["diagnostics"]["model_queries"]
    # map_estimate builds its run, which the CLI drives with the others
    assert tracer.totals["gpa.map_estimate"][3] == 0
    assert tracer.totals["gpa.map_estimate"][4] == 0
    # each method's wrapper is called once, where the CLI builds its run,
    # but lime's: lime, lime0 and baylime share the CLI's cloud run.  The
    # runs query the model later, in the CLI's drive, so the spans hold no
    # points; lc builds its solve inside its span, which owns its count
    for name in tracer_module.BASELINE_METHODS:
        assert tracer.totals[f"baselines.{name}"][0] == (name != "lime"), name
    assert tracer.solver["baselines.lc"][1] == doc["diagnostics"]["lc"]["iterations"]
    assert "?" not in tracer.solver
    # one estimator run per gradient of the two solves (the sinusoid's
    # pairs disagree, so neither confirms), one for ig's path and one per
    # batch of eig's 64 paths of the 8x8 lattice, 16 to a batch at a
    # budget of 2**16
    assert doc["diagnostics"]["gpa"]["confirmations"] == 0
    assert doc["diagnostics"]["lc"]["confirmations"] == 0
    assert tracer.totals["models.estimate_gradient"][0] == (
        tracer.solver["gpa.map_estimate"][1] + tracer.solver["baselines.lc"][1] + 1
        + len(LATTICE_EIG_BATCHES)) == 13


def test_traced_pointwise_subprocess_operation_writes_the_untraced_bytes(
        tracer_cls, tmp_path, monkeypatch):
    # one seed-1 pointwise-subprocess operation: explain gpa on one row over
    # a child process, which the tracer counts at the handle like a builtin
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    op = workloads.build("pointwise-subprocess", 1, tmp_path)[0][0]
    tracer = tracer_cls()
    runs = _traced_and_untraced_bytes(op, tracer)
    assert runs[0] == runs[1]
    doc = strict_json(runs[1].decode())
    assert tracer.points == doc["diagnostics"]["model_queries"] > 0
    assert tracer.solver["gpa.map_estimate"][1] == doc["diagnostics"]["gpa"]["iterations"]
