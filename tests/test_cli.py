import argparse
import json
import os
import shlex
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import anomattr
from anomattr import cli
from anomattr.cli import build_parser, main
from anomattr.gpa import GpaHyperParams
from conftest import BatchRecorder, gradient_batch, strict_json

ORACLE_FLAGS = [
    "--eta", "0.001", "--nu", "0.001", "--kappa", "0.1", "--a0", "1",
    "--b0", "10", "--tol", "1e-8", "--grad-std", "0.001",
]


@pytest.fixture
def sinus_data(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("x1,x2,y\n0.5,0.0,1.0\n0.5,0.0,0.0\n0.5,0.0,-1.0\n")
    return p


# The sinusoidal surface behind "subprocess:".  In "batch" mode it also
# answers the "xs" line; in "point" mode it answers that line with an error
# object.  A second argument names a file that receives the child's pid.
SINE_CHILD = textwrap.dedent(
    """
    import json, math, os, sys
    mode = sys.argv[1]
    if len(sys.argv) > 2:
        with open(sys.argv[2], "w") as fh:
            fh.write(str(os.getpid()))
    def f(x):
        return 2.0 * math.cos(math.pi * x[0]) * math.cos(math.pi * x[1])
    for line in sys.stdin:
        doc = json.loads(line)
        if "x" in doc:
            reply = {"y": f(doc["x"])}
        elif mode == "batch":
            reply = {"ys": [f(x) for x in doc["xs"]]}
        else:
            reply = {"error": "one point per line"}
        print(json.dumps(reply), flush=True)
    """
)


@pytest.fixture
def sine_child(tmp_path):
    script = tmp_path / "sine_child.py"
    script.write_text(SINE_CHILD)

    def spec(*args):
        return "subprocess:" + shlex.join([sys.executable, str(script), *args])

    return spec


@pytest.fixture
def lattice_ref(tmp_path):
    axis = -1.0 + 2.0 * np.arange(8) / 8
    rows = ["x1,x2,y"]
    rows += [f"{a},{b},0" for a in axis for b in axis]
    p = tmp_path / "ref.csv"
    p.write_text("\n".join(rows) + "\n")
    return p


@pytest.fixture
def recorders(monkeypatch):
    """Every model handle the CLI resolves, wrapped in a BatchRecorder."""
    made, resolve = [], cli.resolve_model

    def record(spec, dimension):
        made.append(BatchRecorder(resolve(spec, dimension)))
        return made[-1]

    monkeypatch.setattr(cli, "resolve_model", record)
    return made


def _subparsers():
    """Each subcommand's parser, by name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _subparser(command):
    return _subparsers()[command]


def _argv_from_config(config):
    """The command line that repeats a run, rebuilt from its config echo."""
    argv = [config["command"]]
    for action in _subparser(config["command"])._actions:
        value = config.get(action.dest)
        if not action.option_strings or value is None or value is False:
            continue
        argv.append(action.option_strings[0])
        if isinstance(value, list):
            argv.append(",".join(str(v) for v in value))
        elif value is not True:
            argv.append(str(value))
    return argv


def test_import_loads_no_http_stack():
    # only HttpModel needs it, and it loads it on first use
    heavy = ("urllib.request", "http.client", "ssl", "email")
    src = str(Path(anomattr.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c",
         f"import sys, anomattr.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert probe.stdout.strip() == "[]"


class TestDetect:
    def test_top_one(self, sinus_data, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "detect", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--noise-var", "1", "--top", "1", "--out", str(out),
        ])
        assert code == 0
        doc = strict_json((out / "detect.json").read_text())
        assert len(doc["indices"]) == 1
        assert doc["indices"][0] in (0, 2)  # the |residual|=1 rows

    def test_top_three(self, sinus_data, tmp_path):
        out = tmp_path / "out"
        code = main([
            "detect", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--noise-var", "1", "--top", "3", "--out", str(out),
        ])
        assert code == 0
        doc = strict_json((out / "detect.json").read_text())
        assert len(doc["indices"]) == 3

    def test_empty_dataset_exit_2(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("x1,x2,y\n")
        assert main(["detect", "--data", str(p), "--model", "sinusoidal2d"]) == 2

    @pytest.mark.parametrize("noise_var", [False, True])
    def test_one_model_call(self, tmp_path, recorders, noise_var):
        # one residual batch gives the variance and all 50 scores
        rng = np.random.default_rng(0)
        x1 = rng.uniform(-1, 1, 50)
        resid = rng.normal(0, 0.3, 50)
        data = tmp_path / "rows.csv"
        data.write_text("x1,x2,y\n" + "".join(
            f"{a!r},0.0,{b!r}\n"
            for a, b in zip(x1.tolist(), (2 * np.cos(np.pi * x1) + resid).tolist())))
        argv = ["detect", "--data", str(data), "--model", "sinusoidal2d", "--top", "5"]
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        doc = strict_json((tmp_path / "a" / "detect.json").read_text())
        if noise_var:
            # the variance the first run took from the data, given as a flag
            variance = repr(doc["noise_variance"])
            assert main([*argv, "--noise-var", variance, "--out", str(tmp_path / "b")]) == 0
            given = strict_json((tmp_path / "b" / "detect.json").read_text())
            assert {k: v for k, v in given.items() if k != "config"} == \
                {k: v for k, v in doc.items() if k != "config"}
        assert [r.sizes for r in recorders] == [[50]] * (1 + noise_var)
        assert doc["noise_variance"] == pytest.approx(np.mean(resid ** 2), rel=1e-9)

    def test_descending_order(self, sinus_data, tmp_path):
        out = tmp_path / "out"
        main(["detect", "--data", str(sinus_data), "--model", "sinusoidal2d",
              "--noise-var", "1", "--out", str(out)])
        doc = strict_json((out / "detect.json").read_text())
        ordered = [doc["scores"][i] for i in doc["order"]]
        assert ordered == sorted(ordered, reverse=True)


class TestOverflowingTargets:
    # rows whose residuals on linear:1,1 are finite but square past the
    # float range
    @pytest.fixture
    def huge_data(self, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("x1,x2,y\n0,0,1e160\n0.5,0,-1e160\n")
        return p

    @pytest.mark.parametrize("write", [False, True])
    def test_overflowing_anomaly_score_exit_2(self, huge_data, tmp_path, capsys, write):
        out = tmp_path / "out"
        code = main(["detect", "--data", str(huge_data), "--model", "linear:1,1",
                     "--noise-var", "1", *(["--out", str(out)] if write else [])])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "anomaly score" in captured.err and "rescale the targets" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["detect"], ["explain", "--methods", "gpa"]])
    def test_overflowing_residual_variance_names_flag(self, huge_data, tmp_path, capsys,
                                                      command):
        out = tmp_path / "out"
        code = main([*command, "--data", str(huge_data), "--model", "linear:1,1",
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--noise-var" in captured.err
        assert not out.exists()


class TestExplain:
    def test_single_method(self, sinus_data, tmp_path):
        out = tmp_path / "out"
        code = main([
            "explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "gpa", "--point-index", "0", "--out", str(out),
            *ORACLE_FLAGS,
        ])
        assert code == 0
        doc = strict_json((out / "result.json").read_text())
        delta = doc["methods"]["gpa"]["scores"]
        assert delta[0] == pytest.approx(-1 / 6, abs=1e-3)
        assert (out / "litmus.svg").exists()

    @pytest.mark.parametrize("index, delta", [(0, -1 / 6), (1, 0.0)])
    def test_default_flags_converge(self, sinus_data, tmp_path, index, delta):
        # the default smoothing radius 1 blurs the gradient, so near the root
        # a search direction can find no descent; its step halves below tol
        # and the solve ends there, converged
        out = tmp_path / "out"
        code = main([
            "explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "gpa", "--point-index", str(index), "--out", str(out),
        ])
        assert code == 0
        doc = strict_json((out / "result.json").read_text())
        assert doc["diagnostics"]["gpa"]["converged"] is True
        assert doc["methods"]["gpa"]["scores"] == pytest.approx([delta, 0.0], abs=1e-3)

    def test_six_method_litmus(self, sinus_data, lattice_ref, tmp_path):
        out = tmp_path / "out"
        code = main([
            "explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "gpa,lc,lime,ig,eig,sv", "--point-index", "0",
            "--baseline", "0,0", "--ref", str(lattice_ref), "--out", str(out),
            *ORACLE_FLAGS,
        ])
        assert code == 0
        text = (out / "litmus.svg").read_text()
        for name in ("gpa", "lc", "lime", "ig", "eig", "sv"):
            assert f">{name}</text>" in text

    def test_overflowing_residual_exit_2(self, tmp_path, capsys):
        # r = 1e200 is finite, but r^2 overflows: the anomaly score of the
        # selected row refuses it before gpa or lc runs, in the words of the
        # solvers' refusal of the infinite objective
        data = tmp_path / "big.csv"
        data.write_text("x1,x2,y\n0.1,0.2,1e200\n0.3,0.1,1.0\n")
        out = tmp_path / "out"
        for methods in ("gpa,lc", "lc"):
            code = main([
                "explain", "--data", str(data), "--model", "linear:1,1",
                "--methods", methods, "--b0", "1", "--noise-var", "1",
                "--out", str(out),
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "square overflows" in err
            assert not (out / "result.json").exists()

    def test_missing_baseline_exit_2(self, sinus_data, tmp_path, capsys):
        code = main([
            "explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "ig", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "ig" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["ig", "eig"])
    def test_zero_intervals_exit_2(self, sinus_data, lattice_ref, tmp_path, capsys,
                                   method):
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
                  "--methods", method, "--baseline", "0,0", "--ref", str(lattice_ref),
                  "--n-intervals", "0", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert ("argument --n-intervals: expected an integer >= 1, got '0'"
                in capsys.readouterr().err)

    def test_variable_names_escaped_in_svgs(self, tmp_path):
        # header names are text, not markup: both plots parse and show them
        data = tmp_path / "names.csv"
        data.write_text("a&b,x<2,y\n0.5,0.0,1.0\n0.4,0.1,0.0\n")
        for command, flags, name in (("explain", ["--methods", "lime0"], "litmus.svg"),
                                     ("dist", ORACLE_FLAGS, "distributions.svg")):
            out = tmp_path / command
            assert main([command, "--data", str(data), "--model", "sinusoidal2d",
                         *flags, "--out", str(out)]) == 0
            texts = [e.text for e in ElementTree.parse(out / name).iter()
                     if e.tag.endswith("text")]
            assert {"a&b", "x<2"} <= set(texts)

    def test_missing_ref_exit_2(self, sinus_data, tmp_path, capsys):
        for method in ("eig", "sv", "zscore"):
            code = main([
                "explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
                "--methods", method, "--out", str(tmp_path / "o"),
            ])
            assert code == 2
            assert method in capsys.readouterr().err

    def test_collective_shared_delta(self, tmp_path):
        # three samples of a linear model, all shifted by +1
        p = tmp_path / "col.csv"
        p.write_text("a,b,y\n0.0,0.0,1.0\n0.1,0.0,1.2\n-0.1,0.1,0.9\n")
        out = tmp_path / "out"
        code = main([
            "explain", "--data", str(p), "--model", "linear:2,1",
            "--methods", "gpa", "--indices", "0,1,2", "--collective",
            "--a0", "1", "--grad-std", "0.001", "--out", str(out),
        ])
        assert code == 0
        doc = strict_json((out / "result.json").read_text())
        assert len(doc["methods"]["gpa"]["scores"]) == 2
        assert doc["config"]["indices"] == [0, 1, 2]

    @pytest.mark.parametrize("noise_var", [None, "0.5"])
    def test_collective_anomaly_scores_from_one_batch(self, tmp_path, recorders, noise_var):
        # four rows of linear:2,1; the residual rows are every row, or with
        # --noise-var the two scored ones, and they ride in gpa's first batch
        # with its rate rows, the two selected rows, ahead of the solve's
        # first gradient batch of 2 x (1 + 2 x 10) rows
        p = tmp_path / "col.csv"
        p.write_text("a,b,y\n0.0,0.0,1.0\n0.1,0.0,1.2\n-0.1,0.1,0.9\n0.2,0.2,0.0\n")
        out = tmp_path / "out"
        code = main([
            "explain", "--data", str(p), "--model", "linear:2,1",
            "--methods", "gpa", "--indices", "3,1", "--collective",
            "--a0", "1", "--grad-std", "0.001", "--out", str(out),
            *(["--noise-var", noise_var] if noise_var else []),
        ])
        assert code == 0
        doc = strict_json((out / "result.json").read_text())
        (model,) = recorders
        x = np.array([[0.0, 0.0], [0.1, 0.0], [-0.1, 0.1], [0.2, 0.2]])
        residual_rows = x if noise_var is None else x[[3, 1]]
        held = np.vstack([residual_rows, x[[3, 1]]])
        np.testing.assert_array_equal(model.first[:len(held)], held)
        assert len(model.first) == len(held) + 2 * 21
        # no call outside the gpa run
        diagnostics = doc["diagnostics"]
        assert diagnostics["model_calls"] == diagnostics["gpa"]["call_count"]
        assert diagnostics["model_queries"] == (diagnostics["gpa"]["query_count"]
                                                + len(residual_rows))
        resid = np.array([1.0, 1.2 - 0.2, 0.9 + 0.1, 0.0 - 0.6])
        variance = doc["config"]["noise_variance"]
        assert variance == (0.5 if noise_var else pytest.approx(np.mean(resid ** 2)))
        assert [a["sample_index"] for a in doc["anomaly_scores"]] == [3, 1]
        assert [a["value"] for a in doc["anomaly_scores"]] == pytest.approx(
            0.5 * np.log(2 * np.pi * variance) + resid[[3, 1]] ** 2 / (2 * variance))

    def test_collective_rejects_single_point_methods(self, sinus_data, tmp_path):
        code = main([
            "explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "gpa,lime", "--indices", "0,1", "--collective",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_seeded_runs_byte_identical(self, sinus_data, lattice_ref, tmp_path):
        out = tmp_path / "o"
        args = [
            "explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "gpa,lime,sv", "--point-index", "0",
            "--ref", str(lattice_ref), "--seed", "17", "--out", str(out),
            *ORACLE_FLAGS,
        ]
        assert main(args) == 0
        first = {n: (out / n).read_bytes() for n in ("result.json", "litmus.svg")}
        assert main(args) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_unknown_method_exit_2(self, sinus_data, tmp_path):
        code = main([
            "explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "shap", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    @pytest.mark.parametrize("command, methods, repeated", [
        ("explain", "gpa,gpa", "gpa"), ("compare", "lc,gpa,lc", "lc"),
    ])
    def test_repeated_method_exit_2(self, sinus_data, tmp_path, capsys, command,
                                    methods, repeated):
        # a repeated method would run twice and write one entry
        out = tmp_path / "o"
        code = main([command, "--data", str(sinus_data), "--model", "sinusoidal2d",
                     "--methods", methods, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: method {repeated!r} repeated in --methods\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("explain", ["--methods", "gpa"]), ("dist", []),
        ("compare", ["--methods", "gpa,lc"]),
    ])
    def test_negative_seed_refused_at_parse_time(self, sinus_data, tmp_path, capsys,
                                                 command, flags):
        # numpy would refuse it later with a message that names no flag
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(sinus_data), "--model", "sinusoidal2d", *flags,
                  "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert ("argument --seed: expected a nonnegative integer, got '-1'"
                in capsys.readouterr().err)
        assert not out.exists()

    # --n-intervals: test_zero_intervals_exit_2
    @pytest.mark.parametrize("command, flag, value, bound", [
        ("explain", "--sv-configs", "0", "an integer >= 1"),
        ("explain", "--grad-samples", "0", "an integer >= 1"),
        ("dist", "--max-iter", "0", "an integer >= 1"),
        ("dist", "--grid-points", "2", "an integer >= 3"),
        ("explain", "--grad-std", "0", "a number > 0"),
        ("explain", "--lime-std", "0", "a number > 0"),
        ("explain", "--prior-eta", "0", "a number > 0"),
        ("explain", "--noise-var", "0", "a number > 0"),
        ("detect", "--noise-var", "-1", "a number > 0"),
        ("compare", "--cb", "0", "a number > 0"),
        ("compare", "--eta", "-1", "a number > 0"),
        ("dist", "--a0", "0", "a number > 0"),
        ("dist", "--b0", "0", "a number > 0"),
        ("dist", "--tol", "0", "a number > 0"),
        ("explain", "--lime-l1", "-0.5", "a number >= 0"),
        ("compare", "--noise-lambda", "-1", "a number >= 0"),
        ("detect", "--top", "0", "an integer >= 1"),
        ("detect", "--top", "-1", "an integer >= 1"),
        # refused whether or not lc runs
        ("explain", "--lc-lambda", "0", "a number > 0"),
        ("explain", "--lc-lambda", "-1", "a number > 0"),
        ("compare", "--lc-lambda", "0", "a number > 0"),
        ("compare", "--lc-lambda", "-1", "a number > 0"),
    ])
    def test_flag_below_its_bound_refused_at_parse_time(self, sinus_data, tmp_path,
                                                        capsys, command, flag, value,
                                                        bound):
        # the library would refuse it later naming its parameter, not the flag
        methods = {"explain": ["--methods", "gpa"], "compare": ["--methods", "gpa,lc"]}
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(sinus_data), "--model", "sinusoidal2d",
                  *methods.get(command, []), f"{flag}={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert (f"argument {flag}: expected {bound}, got '{value}'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("method, samples", [("lime", "2"), ("lime0", "0"),
                                                 ("baylime", "2")])
    def test_lime_samples_below_dimension_names_flag(self, sinus_data, tmp_path, capsys,
                                                     method, samples):
        out = tmp_path / "o"
        code = main(["explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
                     "--methods", method, "--lime-samples", samples, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --lime-samples must be at least the dimension + 1, 3, for a "
            "solvable fit\n")
        assert not out.exists()

    def test_model_dimension_mismatch_exit_2(self, sinus_data, tmp_path):
        code = main([
            "explain", "--data", str(sinus_data), "--model", "linear:1,2,3",
            "--methods", "lime0", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_transport_error_exit_3(self, sinus_data, tmp_path):
        code = main([
            "explain", "--data", str(sinus_data), "--model", "http://127.0.0.1:1",
            "--methods", "lime0", "--out", str(tmp_path / "o"),
        ])
        assert code == 3

    def test_nonfinite_model_output_exit_3(self, tmp_path, capsys):
        # 1e200 squared overflows, so the model itself returns inf
        data = tmp_path / "big.csv"
        data.write_text("x1,x2,y\n1e200,1e200,0\n")
        code = main([
            "explain", "--data", str(data), "--model", "quadratic:1,1",
            "--methods", "gpa", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "non-finite" in err

    def test_nonfinite_model_output_one_stderr_line(self, tmp_path):
        # a fresh interpreter with the default warning filters
        data = tmp_path / "big.csv"
        data.write_text("x1,x2,y\n1e200,1e200,0\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(anomattr.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "anomattr.cli", "explain", "--data", str(data),
             "--model", "quadratic:1,1", "--methods", "gpa", "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 3
        assert run.stderr.count("\n") == 1 and "non-finite" in run.stderr

    def test_constant_column_standardize_one_stderr_line(self, tmp_path):
        # a fresh interpreter with the default warning filters: the
        # provenance warning must not precede the error
        data = tmp_path / "flat.csv"
        data.write_text("x1,x2,y\n1.0,0.0,0\n1.0,1.0,1\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(anomattr.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "anomattr.cli", "explain", "--data", str(data),
             "--standardize", "--model", "sinusoidal2d", "--methods", "gpa",
             "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 2
        assert run.stderr == "error: zero standard deviation for variable 'x1'\n"

    def test_standardize_writes_gpa_and_lc_scores_in_raw_units(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n0.5,0.0,1.0\n0.1,0.4,0.0\n-0.3,0.2,-1.0\n")
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="test set itself"):
            code = main(["explain", "--data", str(data), "--standardize",
                         "--model", "sinusoidal2d", "--methods", "gpa,lc,lime0,ig",
                         "--baseline", "0,0", "--out", str(out), *ORACLE_FLAGS])
        assert code == 0
        methods = strict_json((out / "result.json").read_text())["methods"]
        # the population std of each column of the test set
        std = np.loadtxt(data, delimiter=",", skiprows=1)[:, :2].std(axis=0)
        for name in ("gpa", "lc"):
            raw = np.asarray(methods[name]["scores"]) * std
            assert methods[name]["scores_raw_units"] == raw.tolist()
        assert "scores_raw_units" not in methods["lime0"]
        assert "scores_raw_units" not in methods["ig"]

    EXIT_PATHS = {
        "model cannot start": (
            ["--model", "subprocess:{tmp}/missing", "--methods", "gpa"], 3,
            "transport error: cannot start model process: [Errno 2] No such file"),
        "indices without collective": (
            ["--model", "sinusoidal2d", "--methods", "gpa", "--indices", "0,1"], 2,
            "error: multiple --indices require --collective; run single points with "
            "--point-index\n"),
        "no model": (
            ["--methods", "gpa"], 2,
            "error: no model given: pass --model or set ANOMATTR_MODEL\n"),
        "ref of another dimension": (
            ["--model", "sinusoidal2d", "--methods", "zscore", "--ref", "{tmp}/ref3.csv"], 2,
            "error: reference dimension 3 does not match dataset dimension 2\n"),
        "empty methods": (
            ["--model", "sinusoidal2d", "--methods", " , "], 2,
            "error: at least one method required\n"),
    }

    @pytest.mark.parametrize("flags, expected, message", EXIT_PATHS.values(), ids=EXIT_PATHS)
    def test_exit_path_one_line_and_no_document(self, sinus_data, tmp_path, capsys,
                                                monkeypatch, flags, expected, message):
        monkeypatch.delenv("ANOMATTR_MODEL", raising=False)
        (tmp_path / "ref3.csv").write_text("a,b,c,y\n0,0,0,0\n1,1,1,0\n")
        out = tmp_path / "out"
        code = main(["explain", "--data", str(sinus_data), "--out", str(out),
                     *(f.format(tmp=tmp_path) for f in flags)])
        assert code == expected
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

    def test_env_var_model_default(self, sinus_data, tmp_path, monkeypatch):
        monkeypatch.setenv("ANOMATTR_MODEL", "sinusoidal2d")
        code = main([
            "explain", "--data", str(sinus_data), "--methods", "lime0",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0


class TestSubprocessModel:
    def test_batching_and_single_point_children_agree(self, sinus_data, tmp_path,
                                                      sine_child):
        docs = []
        for mode in ("batch", "point"):
            out = tmp_path / mode
            code = main([
                "explain", "--data", str(sinus_data), "--model", sine_child(mode),
                "--methods", "gpa", "--out", str(out), *ORACLE_FLAGS,
            ])
            assert code == 0
            docs.append(strict_json((out / "result.json").read_text()))
        batch, point = docs
        assert batch["methods"]["gpa"]["scores"] == point["methods"]["gpa"]["scores"]
        assert batch["diagnostics"]["model_queries"] == point["diagnostics"]["model_queries"]
        # calls on the handle, one per batch and cache hits included; gpa's
        # are a share of the run's
        calls = batch["diagnostics"]["gpa"]["call_count"]
        assert batch["diagnostics"]["model_calls"] == point["diagnostics"]["model_calls"]
        assert 0 < calls <= batch["diagnostics"]["model_calls"]
        assert calls <= 2 * batch["diagnostics"]["gpa"]["iterations"] + 1

    @pytest.mark.parametrize("methods, expected", [("gpa", 0), ("lime0,ig", 2)])
    def test_child_is_gone_when_main_returns(self, sinus_data, tmp_path, sine_child,
                                             methods, expected):
        # exit 2 after the child has answered every method: the --out of
        # lime0,ig names a file, where no document can be written
        pid_file, out = tmp_path / "pid", tmp_path / "o"
        if expected:
            out.write_text("")
        code = main([
            "explain", "--data", str(sinus_data), "--methods", methods,
            "--baseline", "0,0", "--model", sine_child("batch", str(pid_file)),
            "--out", str(out),
        ])
        assert code == expected
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)

    @pytest.mark.parametrize("spec", ["subprocess:", "subprocess:   "])
    def test_empty_command_exit_2(self, sinus_data, tmp_path, capsys, spec):
        out = tmp_path / "out"
        code = main(["explain", "--data", str(sinus_data), "--model", spec,
                     "--methods", "gpa", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: a subprocess model needs a command\n"
        assert not out.exists()


class TestDist:
    def test_point_a_mode_near_closed_form(self, sinus_data, tmp_path):
        out = tmp_path / "out"
        code = main([
            "dist", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--point-index", "0", "--out", str(out), *ORACLE_FLAGS,
        ])
        assert code == 0
        doc = strict_json((out / "distributions.json").read_text())
        dist = doc["methods"]["gpa"]["distribution"]
        grid = np.asarray(dist["grid"])
        q1 = np.asarray(dist["probs"][0])
        mode = grid[np.argmax(q1)]
        step = grid[1] - grid[0]
        assert abs(mode - (-1 / 6)) <= step + 1e-3
        assert (out / "distributions.svg").exists()

    def test_repeated_index_exit_2(self, sinus_data, tmp_path, capsys):
        # a repeated row would count twice and scale eta with the count
        code = main([
            "dist", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--collective", "--indices", "0,0,1", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: sample index 0 repeated in --indices\n"
        assert not (tmp_path / "o").exists()

    def test_grid_points_flag(self, sinus_data, tmp_path):
        out = tmp_path / "out"
        code = main([
            "dist", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--point-index", "0", "--grid-points", "200", "--out", str(out),
            *ORACLE_FLAGS,
        ])
        assert code == 0
        doc = strict_json((out / "distributions.json").read_text())
        assert len(doc["methods"]["gpa"]["distribution"]["grid"]) == 200

    def test_rate_escalation_flags(self, sinus_data, tmp_path):
        # smaller virtual-sample count plus stronger l2: the documented
        # escalation when distributions look inconsistent with the MAP point
        out = tmp_path / "out"
        code = main([
            "dist", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--point-index", "0", "--cb", "1", "--eta", "1",
            "--kappa", "0.01", "--a0", "1", "--grad-std", "0.001",
            "--out", str(out),
        ])
        assert code == 0
        doc = strict_json((out / "distributions.json").read_text())
        assert doc["config"]["hyperparams"]["c_b"] == 1.0
        assert doc["config"]["hyperparams"]["eta"] == 1.0

    @pytest.mark.parametrize("b0, warned", [("10", True), ("0.01", True),
                                            ("0.0001", False)])
    def test_edge_mass_reported_and_warned(self, sinus_data, tmp_path, capsys, b0,
                                           warned):
        # the grid ends at 1.1 |delta*| = 0.183.  With b0 = 10 the likelihood
        # barely curves along x2, so its slice is nearly flat and puts about
        # 2/100 of its mass on the two edge points.  With b0 = 0.01 the slice
        # along x1 peaks at delta* = -1/6, 0.017 inside the edge, and is wide
        # enough to put 0.056 there; b0 = 1e-4 narrows it to 0.003
        out = tmp_path / "out"
        flags = [*ORACLE_FLAGS]
        flags[flags.index("--b0") + 1] = b0
        code = main([
            "dist", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--point-index", "0", "--out", str(out), *flags,
        ])
        assert code == 0
        doc = strict_json((out / "distributions.json").read_text())
        probs = doc["methods"]["gpa"]["distribution"]["probs"]
        edge_mass = doc["diagnostics"]["gpa"]["edge_mass"]
        assert edge_mass == [p[0] + p[-1] for p in probs]
        assert (max(edge_mass) > 1e-2) == warned
        err = capsys.readouterr().err
        assert err.count("\n") == warned
        if warned:
            name = ["x1", "x2"][int(np.argmax(edge_mass))]
            assert f"variable {name!r}" in err and "edge" in err

    def test_partly_nonfinite_slice_exit_3(self, sinus_data, tmp_path, capsys,
                                           nan_model):
        # NaN only where x1 > 0.6: the MAP path from x1 = 0.5 toward 1/3 never
        # gets there, the slice grid of variable 0 (to 0.5 - 1/6 + 0.18) does
        code = main([
            "dist", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--point-index", "0", "--out", str(tmp_path / "out"), *ORACLE_FLAGS,
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err and "at input [0.60" in err

    def test_overflowing_residual_exit_2(self, tmp_path, capsys):
        # r = 1e200 is finite, but r^2 overflows: the objective is infinite
        # at the solver's start, so there is no MAP point to write
        data = tmp_path / "big.csv"
        data.write_text("x1,x2,y\n0.5,0.0,1e200\n")
        out = tmp_path / "out"
        code = main([
            "dist", "--data", str(data), "--model", "linear:1,1",
            "--point-index", "0", "--b0", "1", "--max-iter", "50", "--out", str(out),
        ])
        assert code == 2
        assert "square overflows" in capsys.readouterr().err
        assert not (out / "distributions.json").exists()

    def test_nonconvergence_exit_0_flagged(self, sinus_data, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "dist", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--point-index", "0", "--max-iter", "2", "--tol", "1e-12",
            "--out", str(out), "--eta", "0.001", "--nu", "0.001",
            "--kappa", "0.1", "--a0", "1", "--b0", "10", "--grad-std", "0.001",
        ])
        assert code == 0
        doc = strict_json((out / "distributions.json").read_text())
        assert doc["diagnostics"]["gpa"]["converged"] is False
        assert "distributions" in capsys.readouterr().err


class TestCompare:
    def test_gpa_vs_lc_all_ones(self, sinus_data, tmp_path):
        out = tmp_path / "out"
        code = main([
            "compare", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "gpa,lc", "--point-index", "0", "--out", str(out),
            *ORACLE_FLAGS,
        ])
        assert code == 0
        doc = strict_json((out / "compare.json").read_text())
        rep = doc["reports"]["lc"]
        assert rep["kendall_tau"] == pytest.approx(1.0)
        assert rep["spearman_rho"] == pytest.approx(1.0)
        assert rep["smr"] == 1.0
        assert rep["hit25"] == 1.0

    def test_zero_reference_nulls(self, sinus_data, tmp_path):
        # point C is normal: the reference scores are (0, 0)
        out = tmp_path / "out"
        code = main([
            "compare", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "gpa,lime", "--point-index", "1", "--out", str(out),
            *ORACLE_FLAGS,
        ])
        assert code == 0
        doc = strict_json((out / "compare.json").read_text())
        rep = doc["reports"]["lime"]
        assert rep["kendall_tau"] is None
        assert rep["spearman_rho"] is None
        assert rep["smr"] == 1.0

    def test_collective_rejects_single_point_methods(self, tmp_path):
        data = tmp_path / "three.csv"
        data.write_text("x1,x2,y\n0.5,0.0,1.0\n0.4,0.1,0.5\n0.6,0.0,-0.3\n")
        code = main([
            "compare", "--data", str(data), "--model", "sinusoidal2d",
            "--methods", "gpa,lime", "--indices", "0,1,2", "--collective",
        ])
        assert code == 2

    def test_needs_two_methods(self, sinus_data, tmp_path):
        code = main([
            "compare", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "gpa", "--reference", "gpa",
        ])
        assert code == 2

    def test_reference_outside_methods_runs_first(self, sinus_data, tmp_path, recorders):
        # gpa, the default --reference, runs ahead of lime0, so its first
        # call carries lime0's held cloud; run after lime0, the cloud would go
        # alone
        out = tmp_path / "out"
        assert main(["compare", "--data", str(sinus_data), "--model", "sinusoidal2d",
                     "--methods", "lime0", "--out", str(out), *ORACLE_FLAGS]) == 0
        doc = strict_json((out / "compare.json").read_text())
        assert doc["reference"] == "gpa" and set(doc["scores"]) == {"gpa", "lime0"}
        assert list(doc["reports"]) == ["lime0"]
        assert recorders[0].sizes[:2] == [1_000 + 21, 21]

    @pytest.mark.parametrize("ref", [False, True])
    def test_unknown_reference_refused_before_the_model_starts(
            self, sinus_data, lattice_ref, sine_child, tmp_path, capsys, ref):
        started = tmp_path / "child.pid"
        out = tmp_path / "out"
        argv = ["compare", "--data", str(sinus_data), "--model",
                sine_child("batch", str(started)), "--methods", "gpa,lc",
                "--reference", "foo", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--ref", str(lattice_ref)] if ref else []))
        assert exc.value.code == 2
        assert "--reference: invalid choice: 'foo'" in capsys.readouterr().err
        assert not started.exists() and not out.exists()

    def test_lime_settings_unchecked_without_a_lime_method(self, sinus_data, tmp_path):
        out = tmp_path / "out"
        code = main([
            "compare", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "gpa,ig", "--baseline", "0,0", "--lime-samples", "0",
            "--out", str(out), *ORACLE_FLAGS,
        ])
        assert code == 0
        assert (out / "compare.json").exists()


class TestCollectiveLc:
    def test_compare_gpa_and_lc(self, tmp_path):
        # three samples of a linear model, all shifted by about +1
        p = tmp_path / "col.csv"
        p.write_text("a,b,y\n0.0,0.0,1.0\n0.1,0.0,1.2\n-0.1,0.1,0.9\n")
        out = tmp_path / "out"
        code = main([
            "compare", "--data", str(p), "--model", "linear:2,1",
            "--methods", "gpa,lc", "--indices", "0,1,2", "--collective",
            "--a0", "1", "--grad-std", "0.001", "--out", str(out),
        ])
        assert code == 0
        doc = strict_json((out / "compare.json").read_text())
        assert len(doc["scores"]["lc"]) == 2
        assert doc["reports"]["lc"]["smr"] == 1.0
        assert doc["diagnostics"]["gpa"]["converged"] is True

    @pytest.mark.parametrize("command, name", [("explain", "result.json"),
                                               ("compare", "compare.json")])
    def test_gpa_and_lc_write_their_solver_records(self, tmp_path, command, name):
        # the quadratic's draws agree, so lc's record counts one-pair batches
        x = np.array([[0.0, 0.0], [0.1, 0.0], [-0.1, 0.1]])
        y = np.array([1.0, 1.2, 0.9])
        p = tmp_path / "col.csv"
        p.write_text("a,b,y\n0.0,0.0,1.0\n0.1,0.0,1.2\n-0.1,0.1,0.9\n")
        out = tmp_path / "out"
        assert main([command, "--data", str(p), "--model", "quadratic:2,1",
                     "--methods", "gpa,lc", "--indices", "0,1,2", "--collective",
                     "--out", str(out)]) == 0
        diagnostics = strict_json((out / name).read_text())["diagnostics"]
        model = anomattr.quadratic_model([2.0, 1.0])
        record = anomattr.lc(model, x, y, GpaHyperParams.for_testset(3),
                             anomattr.GradientEstimatorConfig(), 1.0)
        assert record.converged and record.one_pair_batches > 0
        assert (record.query_count, record.call_count) == (model.query_count,
                                                           model.call_count)
        keys = {"iterations", "halvings", "secant_steps", "one_pair_batches",
                "confirmations", "converged", "query_count", "call_count"}
        # the command's lc counts leave out the queries of gpa, which ran in
        # the same calls
        assert diagnostics["lc"] == {k: getattr(record, k) for k in keys}
        assert diagnostics["gpa"].keys() == keys
        if command == "compare":  # no anomaly score queries
            assert (diagnostics["gpa"]["query_count"] + diagnostics["lc"]["query_count"]
                    == diagnostics["model_queries"])
            # gpa and lc run in lockstep: the longer solve's calls carry both
            assert (max(diagnostics["gpa"]["call_count"], diagnostics["lc"]["call_count"])
                    == diagnostics["model_calls"])


class TestResidualRows:
    """explain sends no model call of its own: the residual rows of the
    anomaly scores go first in the first batch of its methods."""

    @pytest.mark.parametrize("noise_var", [False, True])
    def test_ride_in_gpa_first_batch(self, sinus_data, tmp_path, recorders, noise_var):
        # with --b0, gpa's first batch is its solve's first gradient batch
        out = tmp_path / "out"
        assert main(["explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
                     "--methods", "gpa", "--point-index", "1", *ORACLE_FLAGS,
                     *(["--noise-var", "1"] if noise_var else []),
                     "--out", str(out)]) == 0
        doc = strict_json((out / "result.json").read_text())
        (model,) = recorders
        x = np.array([[0.5, 0.0]] * 3)
        residual_rows = x[[1]] if noise_var else x
        alone = BatchRecorder(anomattr.sinusoidal2d())
        anomattr.map_estimate(anomattr.TestSet(x[[1]], np.array([0.0]), ["x1", "x2"]),
                              alone, GpaHyperParams(**doc["config"]["hyperparams"]),
                              anomattr.GradientEstimatorConfig(perturbation_std=0.001))
        np.testing.assert_array_equal(model.first, np.vstack([residual_rows, alone.first]))
        k = len(residual_rows)
        diagnostics = doc["diagnostics"]
        assert diagnostics["model_calls"] == diagnostics["gpa"]["call_count"]
        assert diagnostics["model_queries"] == diagnostics["gpa"]["query_count"] + k
        # the scores are those of a run whose residuals went alone
        assert main(["detect", "--data", str(sinus_data), "--model", "sinusoidal2d",
                     *(["--noise-var", "1"] if noise_var else []),
                     "--out", str(tmp_path / "detect")]) == 0
        detected = strict_json((tmp_path / "detect" / "detect.json").read_text())
        assert doc["config"]["noise_variance"] == detected["noise_variance"]
        assert doc["anomaly_scores"] == [{"sample_index": 1,
                                          "value": detected["scores"][1]}]

    def test_go_alone_when_no_method_queries(self, sinus_data, lattice_ref, tmp_path,
                                             recorders):
        out = tmp_path / "out"
        assert main(["explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
                     "--methods", "zscore", "--ref", str(lattice_ref),
                     "--out", str(out)]) == 0
        (model,) = recorders
        assert model.sizes == [3]
        np.testing.assert_array_equal(model.first, [[0.5, 0.0]] * 3)
        doc = strict_json((out / "result.json").read_text())
        assert (doc["diagnostics"]["model_queries"], doc["diagnostics"]["model_calls"]) == (3, 1)
        assert len(doc["anomaly_scores"]) == 1

    def test_single_query_sends_the_rows_first(self):
        model = BatchRecorder(anomattr.sinusoidal2d())
        rows, answered = np.array([[0.5, 0.0], [0.0, 0.0]]), []

        def residuals():
            answered.extend((yield rows))

        lockstep = anomattr.Lockstep(model, [residuals()])
        assert lockstep.evaluate([1.0, 0.0]) == -2.0
        # one call of the model: the held rows, then the query's own row
        assert model.sizes == [3]
        np.testing.assert_array_equal(model.first, [*rows, [1.0, 0.0]])
        assert answered == pytest.approx([0.0, 2.0], abs=1e-12)
        assert (model.query_count, model.call_count) == (3, 1)

    def test_nonfinite_residual_named_first(self, tmp_path, capsys, nan_model):
        # row 1 is not selected; its residual comes before gpa's rows
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n0.5,0.0,1.0\n0.7,0.0,0.0\n")
        out = tmp_path / "out"
        code = main(["explain", "--data", str(data), "--model", "sinusoidal2d",
                     "--methods", "gpa", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: model returned non-finite output nan at input [0.7, 0.0]\n")
        assert not (out / "result.json").exists()

    def test_nonfinite_gpa_row_named_as_by_gpa_alone(self, tmp_path, capsys, nan_model):
        # finite residuals; gpa's first batch reaches x1 > 0.6, and the input
        # named is the one a gpa run on its own names
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n0.5,0.0,1.0\n0.5,0.0,0.0\n")
        out = tmp_path / "out"
        code = main(["explain", "--data", str(data), "--model", "sinusoidal2d",
                     "--methods", "gpa", "--b0", "10", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        model = cli.resolve_model("sinusoidal2d", 2)
        with pytest.raises(anomattr.NonFiniteModelOutput) as alone:
            anomattr.map_estimate(
                anomattr.TestSet(np.array([[0.5, 0.0]]), np.array([1.0]), ["x1", "x2"]),
                model, GpaHyperParams.for_testset(1, b0=10.0),
                anomattr.GradientEstimatorConfig())
        assert model.call_count == 1 and alone.value.x[0] > 0.6
        assert err == f"error: {alone.value}\n"
        assert not (out / "result.json").exists()


class TestHeldBatches:
    """lime's cloud, ig's path and sv's batch need no answer to be built, and
    explain and compare run every method in lockstep: they ride the
    command's first call, in front of the first rows of the solves and of
    eig, and each method gets its answers from that call."""

    COMPARE = ["--methods", "gpa,lc,lime,ig,eig,sv,zscore", "--baseline", "0,0",
               *ORACLE_FLAGS]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_method_scores_as_alone(self, sinus_data, lattice_ref, tmp_path, seed):
        flags = ["--data", str(sinus_data), "--model", "sinusoidal2d", "--point-index", "1",
                 "--baseline", "0,0", "--ref", str(lattice_ref), "--seed", str(seed),
                 *ORACLE_FLAGS]
        alone = {}
        for name in cli.ALL_METHODS:
            out = tmp_path / name
            assert main(["explain", "--methods", name, *flags, "--out", str(out)]) == 0
            alone[name] = strict_json((out / "result.json").read_text())["methods"][name]
        every = ",".join(cli.ALL_METHODS)
        assert main(["explain", "--methods", every, *flags, "--out", str(tmp_path / "e")]) == 0
        assert main(["compare", "--methods", every, *flags, "--out", str(tmp_path / "c")]) == 0
        explained = strict_json((tmp_path / "e" / "result.json").read_text())["methods"]
        compared = strict_json((tmp_path / "c" / "compare.json").read_text())["scores"]
        for name, doc in alone.items():
            assert explained[name]["scores"] == doc["scores"], name
            assert compared[name] == doc["scores"], name

    # the flags that shape lime's cloud, ig's path and sv's batch, at their
    # defaults and at other values, with those values, the number of held
    # rows, eig's number of calls and the rows of its first
    HELD_FLAGS = {
        "defaults": ([], dict(lime=(1_000, 0.3), baseline=[0.0, 0.0], n_intervals=100,
                              sv_configs=100, seed=0), 3_276, 8, 20 + 8 * 2_000),
        "other flags": (["--lime-samples", "50", "--lime-std", "0.7", "--n-intervals", "7",
                         "--sv-configs", "9", "--seed", "4", "--baseline", "0.25,-0.5"],
                        dict(lime=(50, 0.7), baseline=[0.25, -0.5], n_intervals=7,
                             sv_configs=9, seed=4), 466, 1, 20 + 64 * 140),
    }

    @pytest.mark.parametrize("flags, values, n_held, eig_calls, eig_first",
                             HELD_FLAGS.values(), ids=HELD_FLAGS)
    def test_compare_sends_them_in_gpa_first_call(self, sinus_data, lattice_ref, tmp_path,
                                                  recorders, flags, values, n_held, eig_calls,
                                                  eig_first):
        out = tmp_path / "out"
        assert main(["compare", "--data", str(sinus_data), "--model", "sinusoidal2d",
                     *self.COMPARE, *flags, "--ref", str(lattice_ref), "--out", str(out)]) == 0
        (model,) = recorders
        x_t, seed = np.array([0.5, 0.0]), values["seed"]
        grad_cfg = anomattr.GradientEstimatorConfig(0.001, seed=seed)
        n_intervals, baseline = values["n_intervals"], np.array([values["baseline"]])
        path = anomattr.baselines._path_points(
            x_t, baseline, anomattr.baselines._path_alphas(x_t, baseline, n_intervals), 1)
        held = np.vstack([
            anomattr.baselines._cloud(
                x_t, anomattr.LimeConfig(*values["lime"], seed=seed), 2)[1],
            gradient_batch(path, 2, grad_cfg)[0],
            anomattr.baselines._shapley_batch(
                x_t, anomattr.ReferenceSet(anomattr.load_csv(lattice_ref).x),
                values["sv_configs"], seed, "auto")[0],
        ])
        # at the defaults, 1,000 cloud rows, ig's 101 path points x 20 draws
        # and 4 coalitions x 64
        assert len(held) == n_held
        # the first call carries them, then the first rows of gpa, lc and
        # eig, which all run in lockstep: 21 gradient rows each from gpa and
        # lc, and eig's first paths
        assert model.sizes[0] == n_held + 21 + 21 + eig_first
        np.testing.assert_array_equal(model.first[:n_held], held)
        # lime, ig and sv make no call of their own, and each call serves
        # gpa, lc and eig while they run: as many calls as the longest run
        diagnostics = strict_json((out / "compare.json").read_text())["diagnostics"]
        calls = max(diagnostics["gpa"]["call_count"], diagnostics["lc"]["call_count"],
                    eig_calls)
        assert diagnostics["model_calls"] == len(model.sizes) == calls

    def test_lime_methods_hold_one_cloud(self, sinus_data, tmp_path, recorders):
        assert main(["compare", "--data", str(sinus_data), "--model", "sinusoidal2d",
                     "--methods", "lime,lime0,baylime", "--reference", "lime"]) == 0
        assert recorders[0].sizes == [1_000]

    def test_explain_sends_residual_rows_and_cloud_in_one_call(self, sinus_data, tmp_path,
                                                               recorders):
        assert main(["explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
                     "--methods", "lime", "--out", str(tmp_path / "out")]) == 0
        (model,) = recorders
        assert model.sizes == [3 + 1_000]
        np.testing.assert_array_equal(model.first[:3], [[0.5, 0.0]] * 3)

    @pytest.mark.parametrize("methods, flags", [("lime,ig", []),
                                                ("lime,sv", ["--baseline", "0,0"])])
    def test_missing_flag_refused_before_the_first_query(self, sinus_data, tmp_path, capsys,
                                                         recorders, methods, flags):
        code = main(["explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
                     "--methods", methods, *flags, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == ("error: method 'ig' requires --baseline\n"
                                           if "ig" in methods else
                                           "error: method 'sv' requires --ref\n")
        assert recorders[0].sizes == []

    def test_nonfinite_cloud_row_named_in_gpa_first_call(self, sinus_data, tmp_path,
                                                         capsys, monkeypatch):
        x_t = np.array([0.5, 0.0])
        bad = anomattr.baselines._cloud(x_t, anomattr.LimeConfig(), 2)[1][7]
        sine = anomattr.sinusoidal2d()
        made = []

        def resolve(spec, dimension):
            made.append(BatchRecorder(anomattr.CallableModel(
                lambda x: np.nan if np.array_equal(x, bad) else sine.evaluate(x), dimension)))
            return made[-1]

        monkeypatch.setattr(cli, "resolve_model", resolve)
        out = tmp_path / "out"
        code = main(["compare", "--data", str(sinus_data), "--model", "sinusoidal2d",
                     "--methods", "gpa,lime,ig", "--baseline", "0,0", *ORACLE_FLAGS,
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {anomattr.NonFiniteModelOutput(bad, np.nan)}\n")
        # the one call made: the held rows, then gpa's first batch
        assert made[0].sizes == [1_000 + 2_020 + 21]
        assert not out.exists()


class TestNonFiniteModelOutput:
    """NaN where x1 > 0.6, which every method but zscore reaches from the
    rows at x1 = 0.5: one stderr line, exit 3 and no document."""

    @pytest.mark.parametrize("method, flags", [
        ("lime", []), ("lime0", []), ("baylime", []),
        ("ig", ["--baseline", "0,0"]), ("eig", ["--ref", "{ref}"]),
    ])
    def test_explain_exit_3(self, sinus_data, lattice_ref, tmp_path, capsys,
                            nan_model, method, flags):
        flags = [f.format(ref=lattice_ref) for f in flags]
        out = tmp_path / "out"
        code = main(["explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
                     "--methods", method, *flags, "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("write", [False, True])
    def test_detect_exit_3(self, tmp_path, capsys, nan_model, write):
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n0.5,0.0,1.0\n0.7,0.0,0.0\n")
        out = tmp_path / "out"
        code = main(["detect", "--data", str(data), "--model", "sinusoidal2d",
                     "--noise-var", "1", *(["--out", str(out)] if write else [])])
        assert code == 3
        captured = capsys.readouterr()
        assert "anomaly_score" not in captured.out
        assert captured.err == (
            "error: model returned non-finite output nan at input [0.7, 0.0]\n")
        assert not out.exists()


class TestRateSettings:
    def test_b0_with_local_kernel_exit_2(self, tmp_path, capsys):
        # local_kernel rates ignore b0, so the pair is refused, not echoed
        data = tmp_path / "three.csv"
        data.write_text("x1,x2,y\n0.5,0.0,1.0\n0.4,0.1,0.5\n0.6,0.0,-0.3\n")
        out = tmp_path / "out"
        code = main(["explain", "--data", str(data), "--model", "sinusoidal2d",
                     "--methods", "gpa", "--collective", "--indices", "0,1,2",
                     "--b-mode", "local_kernel", "--b0", "1000", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: b0 applies only to b_mode 'constant'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["explain", "--methods", "gpa"], ["dist"]])
    def test_local_kernel_one_row_exit_2(self, sinus_data, tmp_path, capsys,
                                         monkeypatch, command):
        # local_kernel rates come from the other selected rows; one row at
        # the default --point-index has none, so nothing is queried
        handles, resolve = [], cli.resolve_model
        monkeypatch.setattr(cli, "resolve_model",
                            lambda *args: handles.append(resolve(*args)) or handles[-1])
        out = tmp_path / "out"
        code = main([*command, "--data", str(sinus_data), "--model", "sinusoidal2d",
                     "--b-mode", "local_kernel", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--collective" in err and "two or more --indices" in err
        assert [h.query_count for h in handles] == [0]
        assert not out.exists()

    def test_local_kernel_isolated_row_exit_0(self, tmp_path):
        # row 2 lies 60 units from the others, beyond where its kernel
        # weights exp(-d^2 / 2) underflow: its rate stays finite all the same
        data = tmp_path / "far.csv"
        data.write_text("x1,x2,y\n0,0,1\n0.5,0.1,0.2\n60,0,61.5\n")
        out = tmp_path / "out"
        code = main(["explain", "--data", str(data), "--model", "linear:1,1",
                     "--methods", "gpa", "--collective", "--indices", "0,1,2",
                     "--b-mode", "local_kernel", "--out", str(out)])
        assert code == 0
        doc = strict_json((out / "result.json").read_text())
        assert doc["diagnostics"]["gpa"]["converged"]


def _float_options():
    """(command, flag) of every option whose type parses "0.5": the float
    flags of every subcommand."""
    options = []
    for command, parser in _subparsers().items():
        for action in parser._actions:
            try:
                action.type("0.5")
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                continue
            options.append((command, action.option_strings[0]))
    return options


class TestNonFiniteInput:
    VALID = {
        "detect": ["--data", "{data}", "--model", "sinusoidal2d", "--out", "{out}"],
        "explain": ["--data", "{data}", "--model", "sinusoidal2d", "--methods", "gpa",
                    "--out", "{out}"],
        "dist": ["--data", "{data}", "--model", "sinusoidal2d", "--out", "{out}"],
        "compare": ["--data", "{data}", "--model", "sinusoidal2d", "--methods",
                    "gpa,lc", "--out", "{out}"],
        "oracle": ["gpa", "--x", "0.5,0"],
    }

    def test_every_float_flag_is_walked(self):
        options = _float_options()
        assert {c for c, _ in options} == set(self.VALID)
        assert {("compare", "--kappa"), ("explain", "--lc-kappa"),
                ("oracle", "--y"), ("detect", "--noise-var")} <= set(options)

    @pytest.mark.parametrize("command, flag", _float_options())
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_exit_2(self, sinus_data, tmp_path, capsys, command,
                                    flag, value):
        out = tmp_path / "out"
        argv = [a.format(data=sinus_data, out=out) for a in self.VALID[command]]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, f"{flag}={value}"])  # "-inf" alone reads as a flag
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"expected a finite number, got '{value}'" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["oracle", "ig", "--x", "nan,0", "--x0", "0,0"],
        ["oracle", "ig", "--x", "0.5,0", "--x0", "0,inf"],
        ["oracle", "lime0", "--x=-inf,0"],
        ["explain", "--data", "{data}", "--model", "sinusoidal2d", "--methods", "ig",
         "--baseline", "0,nan", "--out", "{out}"],
        ["detect", "--data", "{data}", "--model", "linear:1,inf", "--out", "{out}"],
    ])
    def test_non_finite_list_entry_exit_2(self, sinus_data, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main([a.format(data=sinus_data, out=out) for a in argv])
        assert code == 2
        captured = capsys.readouterr()
        assert "expected comma-separated finite numbers" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv, cell", [
        (["explain", "--methods", "lime", "--noise-var", "1"], "inf"),
        (["explain", "--methods", "gpa"], "nan"),
        (["dist", "--b0", "1"], "nan"),
        (["detect"], "nan"),
    ])
    def test_cell_named_exit_2(self, tmp_path, capsys, argv, cell):
        data = tmp_path / "bad.csv"
        data.write_text(f"x1,x2,y\n0.5,0.0,1.0\n0.5,{cell},0.0\n")
        out = tmp_path / "out"
        code = main([*argv, "--data", str(data), "--model", "sinusoidal2d",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"non-finite value '{cell}' at row 3, column 'x2'" in err
        assert not out.exists()


class TestConfigEcho:
    RUNS = {
        "detect": (["--noise-var", "1"], "detect.json"),
        "explain": (["--methods", "lime0"], "result.json"),
        "dist": (ORACLE_FLAGS, "distributions.json"),
        "compare": (["--methods", "gpa,lime0", *ORACLE_FLAGS], "compare.json"),
    }

    @pytest.mark.parametrize("command", list(RUNS))
    def test_config_holds_every_flag(self, sinus_data, tmp_path, command):
        flags, name = self.RUNS[command]
        out = tmp_path / "out"
        code = main([command, "--data", str(sinus_data), "--model", "sinusoidal2d",
                     *flags, "--out", str(out)])
        assert code == 0
        doc = strict_json((out / name).read_text())
        assert doc["schema_version"] == 11
        dests = {a.dest for a in _subparser(command)._actions if a.dest != "help"}
        assert dests <= doc["config"].keys()
        if command != "detect":
            hyperparams = {f.name for f in fields(GpaHyperParams)}
            assert doc["config"]["hyperparams"].keys() == hyperparams
            # no hyperparameter without a flag
            assert hyperparams <= dests

    def test_explain_repeats_from_its_config(self, sinus_data, lattice_ref, tmp_path,
                                             monkeypatch):
        # the model comes from the environment and many flags are off their
        # defaults: only a complete echo repeats the run
        monkeypatch.setenv("ANOMATTR_MODEL", "sinusoidal2d")
        first = tmp_path / "first"
        assert main([
            "explain", "--data", str(sinus_data), "--methods", "gpa,lc,lime,sv",
            "--point-index", "2", "--ref", str(lattice_ref), "--seed", "3",
            "--grad-samples", "4", "--lime-samples", "200", "--lc-kappa", "0.02",
            "--out", str(first), *ORACLE_FLAGS,
        ]) == 0
        doc = strict_json((first / "result.json").read_text())
        monkeypatch.delenv("ANOMATTR_MODEL")
        config = dict(doc["config"], out=str(tmp_path / "again"))
        assert main(_argv_from_config(config)) == 0
        again = strict_json((tmp_path / "again" / "result.json").read_text())
        for section in ("methods", "anomaly_scores"):
            assert json.dumps(again[section]) == json.dumps(doc[section])

    def test_kappa_flags_are_hidden_no_ops(self, sinus_data, tmp_path):
        # command lines written for the step-size solver still run, with the
        # same scores, and the hyperparameters echo no kappa
        i = ORACLE_FLAGS.index("--kappa")
        flags = ORACLE_FLAGS[:i] + ORACLE_FLAGS[i + 2:]
        docs = []
        for extra in ([], ["--kappa", "0.5", "--lc-kappa", "0.3"]):
            out = tmp_path / f"out{len(extra)}"
            assert main(["compare", "--data", str(sinus_data), "--model", "sinusoidal2d",
                         "--methods", "gpa,lc", *flags, *extra, "--out", str(out)]) == 0
            docs.append(strict_json((out / "compare.json").read_text()))
        assert docs[0]["scores"] == docs[1]["scores"]
        assert "kappa" not in docs[1]["config"]["hyperparams"]
        assert "kappa" not in _subparser("compare").format_help()


class TestOracleCmd:
    def test_gpa_point(self, capsys):
        assert main(["oracle", "gpa", "--x", "0.5,0", "--y", "1"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["scores"][0] == pytest.approx(-1 / 6)
        assert doc["scores"][1] == 0.0

    def test_ig_point(self, capsys):
        assert main(["oracle", "ig", "--x", "0.5,0", "--x0", "0,1"]) == 0
        doc = strict_json(capsys.readouterr().out)
        np.testing.assert_allclose(doc["scores"], [-2 / 3, 8 / 3], atol=1e-12)

    def test_singular_ig_exit_2(self):
        assert main(["oracle", "ig", "--x", "0.5,0", "--x0", "0.2,-0.3"]) == 2

    def test_out_of_regime_gpa_exit_2(self):
        assert main(["oracle", "gpa", "--x", "0.5,0", "--y", "3"]) == 2

    def test_lime0_and_sv(self, capsys):
        assert main(["oracle", "lime0", "--x", "0.5,0"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["scores"][0] == pytest.approx(-2 * np.pi)
        assert main(["oracle", "sv", "--x", "0,0"]) == 0
        doc = strict_json(capsys.readouterr().out)
        np.testing.assert_allclose(doc["scores"], [1.0, 1.0])


class TestNegativeListValues:
    """A comma list that starts with a minus sign, given as the word after
    its flag, reads as it does after ``=``."""

    @pytest.mark.parametrize("spaced, joined", [
        (["lime0", "--x", "-0.5,0"], ["lime0", "--x=-0.5,0"]),
        (["ig", "--x", "0.5,0", "--x0", "-0.25,.5"],
         ["ig", "--x", "0.5,0", "--x0=-0.25,.5"]),
        (["ig", "--x", "-.5,0.25", "--x0", "0,-1"], ["ig", "--x=-.5,0.25", "--x0", "0,-1"]),
    ])
    def test_oracle_points(self, capsys, spaced, joined):
        docs = []
        for argv in (spaced, joined):
            assert main(["oracle", *argv]) == 0
            docs.append(strict_json(capsys.readouterr().out))
        assert docs[0] == docs[1]

    def test_baseline(self, sinus_data, tmp_path):
        docs = []
        for i, baseline in enumerate((["--baseline", "-0.5,0"], ["--baseline=-0.5,0"],
                                      ["--base", "-0.5,0"])):  # argparse's abbreviation
            out = tmp_path / f"out{i}"
            assert main(["explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
                         "--methods", "ig", *baseline, "--out", str(out)]) == 0
            docs.append(strict_json((out / "result.json").read_text()))
        for doc in docs[1:]:
            assert doc["methods"]["ig"] == docs[0]["methods"]["ig"]
            assert doc["config"]["baseline"] == "-0.5,0"

    @pytest.mark.parametrize("indices", ["-1", "-1,0"])
    def test_negative_index_is_out_of_range(self, sinus_data, tmp_path, capsys,
                                            indices):
        code = main(["dist", "--data", str(sinus_data), "--model", "sinusoidal2d",
                     "--collective", "--indices", indices, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: sample index -1 out of range (0..2)\n"
        assert not (tmp_path / "o").exists()


def test_main_calls_share_one_parser_and_no_flags(sinus_data, tmp_path, monkeypatch):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
    argv = ["detect", "--data", str(sinus_data), "--model", "sinusoidal2d"]
    assert main([*argv, "--noise-var", "1", "--top", "2", "--out", str(tmp_path / "a")]) == 0
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    assert len(built) == 2 and built[0] is built[1]
    config = strict_json((tmp_path / "b" / "detect.json").read_text())["config"]
    assert (config["noise_var"], config["top"], config["out"]) == (None, 1, str(tmp_path / "b"))


def test_cli_import_leaves_scipy_stats_unloaded():
    # the library needs numpy alone
    env = dict(os.environ, PYTHONPATH=str(Path(anomattr.__file__).parents[1]))
    probe = "import sys, anomattr.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_compare_run_loads_no_scipy(sinus_data, tmp_path):
    # the rank metrics are numpy closed forms: a whole compare run, in a
    # fresh interpreter, imports no scipy module
    env = dict(os.environ, PYTHONPATH=str(Path(anomattr.__file__).parents[1]))
    argv = ["compare", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "gpa,lc,lime", "--out", str(tmp_path / "out"), *ORACLE_FLAGS]
    probe = textwrap.dedent(f"""
        import sys
        from anomattr.cli import main
        assert main({argv!r}) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "compare.json").exists()


@pytest.mark.parametrize("command, flags, name", [
    ("explain", ["--methods", "gpa"], "result.json"),
    ("dist", [], "distributions.json"),
    ("compare", ["--methods", "gpa,lc"], "compare.json"),
])
def test_gpa_diagnostics_count_secant_steps(tmp_path, command, flags, name):
    # the collective quadratic rows of TestCollectiveLc, under the default
    # flags: some steps take the secant-corrected curvature
    data = tmp_path / "col.csv"
    data.write_text("a,b,y\n0.0,0.0,1.0\n0.1,0.0,1.2\n-0.1,0.1,0.9\n")
    out = tmp_path / "out"
    assert main([command, "--data", str(data), "--model", "quadratic:2,1", *flags,
                 "--indices", "0,1,2", "--collective", "--out", str(out)]) == 0
    gpa = strict_json((out / name).read_text())["diagnostics"]["gpa"]
    assert 0 < gpa["secant_steps"] <= gpa["iterations"]


@pytest.mark.parametrize("command, flags, name", [
    ("explain", ["--methods", "gpa"], "result.json"),
    ("dist", [], "distributions.json"),
    ("compare", ["--methods", "gpa,lc"], "compare.json"),
])
def test_gpa_diagnostics_count_one_pair_batches_and_confirmations(tmp_path, command,
                                                                  flags, name):
    # the quadratic's sign-paired draws agree, so every gradient batch after
    # the start sends one pair per coordinate, and the stop is confirmed
    # once; the sinusoid's differ, so its solve sends every draw.  The rate
    # rows ride the start's batch
    data = tmp_path / "col.csv"
    data.write_text("a,b,y\n0.0,0.0,1.0\n0.1,0.0,1.2\n-0.1,0.1,0.9\n")
    out = tmp_path / "out"
    assert main([command, "--data", str(data), "--model", "quadratic:2,1", *flags,
                 "--indices", "0,1,2", "--collective", "--out", str(out)]) == 0
    gpa = strict_json((out / name).read_text())["diagnostics"]["gpa"]
    assert gpa["one_pair_batches"] == gpa["iterations"] - 1
    assert gpa["confirmations"] == 1
    assert gpa["call_count"] == gpa["iterations"] + gpa["halvings"] + 1
    first = (out / name).read_bytes()
    assert main([command, "--data", str(data), "--model", "quadratic:2,1", *flags,
                 "--indices", "0,1,2", "--collective", "--out", str(out)]) == 0
    assert (out / name).read_bytes() == first
    assert main([command, "--data", str(data), "--model", "sinusoidal2d", *flags,
                 "--indices", "0", "--out", str(out), *ORACLE_FLAGS]) == 0
    gpa = strict_json((out / name).read_text())["diagnostics"]["gpa"]
    assert gpa["one_pair_batches"] == gpa["confirmations"] == 0


@pytest.mark.parametrize("case", ["missing data", "data is a directory", "missing ref",
                                  "out is a file"])
def test_unreadable_or_unwritable_file_exit_2(sinus_data, lattice_ref, tmp_path, capsys,
                                              case):
    out = tmp_path / "out"
    argv = ["explain", "--data", str(sinus_data), "--model", "sinusoidal2d",
            "--methods", "eig", "--ref", str(lattice_ref), "--out", str(out)]
    if case == "missing data":
        path = tmp_path / "nonexistent.csv"
        argv = ["detect", "--data", str(path), "--model", "sinusoidal2d", "--out", str(out)]
    elif case == "data is a directory":
        path = tmp_path / "data_dir"
        path.mkdir()
        argv[argv.index("--data") + 1] = str(path)
    elif case == "missing ref":
        path = tmp_path / "missing_ref.csv"
        argv[argv.index("--ref") + 1] = str(path)
    else:  # raised when the methods have run
        path = out
        out.write_text("not a directory\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    assert "Traceback" not in err
    if case == "out is a file":
        assert out.read_text() == "not a directory\n"
    else:
        assert not out.exists()


class TestLockstep:
    """compare and explain run all their methods in lockstep: each model call
    carries the next rows of every method that has not ended, and each
    method's answers are those it gets alone."""

    EVERY = ",".join(cli.ALL_METHODS)
    RECORD = ("query_count", "call_count", "iterations", "halvings")

    @pytest.fixture
    def flags(self, sinus_data, lattice_ref):
        return ["--data", str(sinus_data), "--point-index", "1", "--baseline", "0,0",
                "--ref", str(lattice_ref), *ORACLE_FLAGS]

    @pytest.mark.parametrize("spec", ["sinusoidal2d", "quadratic:1,2"])
    def test_every_method_is_bit_for_bit_its_run_alone(self, flags, tmp_path, spec):
        alone = {}
        for name in cli.ALL_METHODS:
            out = tmp_path / name
            assert main(["explain", "--methods", name, "--model", spec, *flags,
                         "--out", str(out)]) == 0
            alone[name] = strict_json((out / "result.json").read_text())
        out = tmp_path / "every"
        assert main(["compare", "--methods", self.EVERY, "--model", spec, *flags,
                     "--out", str(out)]) == 0
        doc = strict_json((out / "compare.json").read_text())
        for name, single in alone.items():
            assert doc["scores"][name] == single["methods"][name]["scores"], name
        for name in ("gpa", "lc"):
            record = doc["diagnostics"][name]
            assert record["converged"], name
            assert ({k: record[k] for k in self.RECORD}
                    == {k: alone[name]["diagnostics"][name][k] for k in self.RECORD}), name

    def test_model_calls_are_the_longest_run_s_steps(self, flags, tmp_path, recorders):
        out = tmp_path / "every"
        assert main(["compare", "--methods", self.EVERY, "--model", "sinusoidal2d", *flags,
                     "--out", str(out)]) == 0
        diagnostics = strict_json((out / "compare.json").read_text())["diagnostics"]
        # eig sends its 64 paths of 2,000 rows eight to a batch; the
        # one-batch methods ride the first call
        steps = {"gpa": diagnostics["gpa"]["call_count"],
                 "lc": diagnostics["lc"]["call_count"], "eig": 8, "one-batch": 1}
        assert diagnostics["model_calls"] == len(recorders[0].sizes) == max(steps.values())
        assert diagnostics["model_queries"] == sum(recorders[0].sizes)

    def test_subprocess_child_answers_one_request_per_call(self, flags, tmp_path):
        counts = tmp_path / "counts.jsonl"
        child = Path(__file__).resolve().parents[1] / "bench" / "model_child.py"
        spec = "subprocess:" + shlex.join([sys.executable, str(child), "--counts",
                                           str(counts)])
        out = tmp_path / "every"
        assert main(["compare", "--methods", self.EVERY, "--model", spec, *flags,
                     "--out", str(out)]) == 0
        diagnostics = strict_json((out / "compare.json").read_text())["diagnostics"]
        [served] = [json.loads(line) for line in counts.read_text().splitlines()]
        # the adapter's cache answers repeated rows, such as sv's, so the
        # child serves fewer points than the command queries
        assert served["requests"] == diagnostics["model_calls"]
        assert served["points"] < diagnostics["model_queries"]

    def test_a_diverging_run_ends_the_command(self, lattice_ref, tmp_path, capsys):
        # lc's Gaussian loss overflows at the start (10 / 2 x 1e308); gpa's,
        # at --b0 1e300, does not
        data = tmp_path / "far.csv"
        data.write_text("x1,x2,y\n0.5,0.0,1e154\n")
        out = tmp_path / "out"
        code = main(["compare", "--data", str(data), "--model", "sinusoidal2d",
                     "--methods", "gpa,lc,eig", "--ref", str(lattice_ref),
                     "--lc-lambda", "10", "--b0", "1e300", "--out", str(out)])
        assert code == 2
        with pytest.raises(anomattr.DivergenceError) as alone:
            anomattr.lc(anomattr.sinusoidal2d(), [0.5, 0.0], 1e154,
                        GpaHyperParams.for_testset(1, b0=1e300),
                        anomattr.GradientEstimatorConfig(), 10.0)
        assert capsys.readouterr().err == f"error: {alone.value}\n"
        assert not out.exists()

    def test_nonfinite_answer_named_first_in_batch_order(self, lattice_ref, tmp_path,
                                                         capsys, nan_model):
        # at --grad-std 1 gpa's first rows and eig's paths both reach x1 >
        # 0.6; gpa's go first in the shared call, so its input is named
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,y\n0.5,0.0,1.0\n")
        common = ["--data", str(data), "--model", "sinusoidal2d", "--ref", str(lattice_ref),
                  "--out", str(tmp_path / "out")]
        errors = []
        for methods in (["explain", "--methods", "gpa"], ["explain", "--methods", "eig"],
                        ["compare", "--methods", "gpa,eig"]):
            assert main([*methods, *common]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] != errors[1]
        assert errors[2] == errors[0]
        assert not (tmp_path / "out").exists()

    def test_same_seed_writes_the_same_bytes(self, flags, tmp_path):
        runs, out = [], tmp_path / "out"
        for _ in range(2):
            assert main(["compare", "--methods", self.EVERY, "--model", "sinusoidal2d",
                         *flags, "--seed", "3", "--out", str(out)]) == 0
            runs.append((out / "compare.json").read_bytes())
            (out / "compare.json").unlink()
        assert runs[0] == runs[1]
