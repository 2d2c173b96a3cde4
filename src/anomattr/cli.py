"""Batch command-line front end.

Subcommands: ``detect`` (rank outliers by anomaly score), ``explain``
(attribution scores + litmus plot), ``dist`` (per-variable score
distributions), ``compare`` (consistency metrics between methods), and
``oracle`` (closed-form values on the builtin sinusoidal model).

``explain``, ``dist`` and ``compare`` share one set-up (data, model,
selection, hyperparameters) and ``explain`` and ``compare`` one method loop.
``--collective`` fits one shared perturbation to all ``--indices`` rows; it
runs ``gpa`` and ``lc`` (the Gaussian-loss baseline over the same rows).
Every JSON document a command writes carries ``config``: each flag under its
argparse dest, the model spec in use (``--model`` or ``ANOMATTR_MODEL``), the
resolved ``indices`` and ``hyperparams``, and for ``explain`` the
``noise_variance`` used, so the flags in ``config`` repeat the run.  The
comma-list flags ``--x``, ``--x0``, ``--baseline`` and ``--indices`` take a
list that starts with a minus sign as the next word, as in ``--x -0.5,0``.
``detect`` and ``explain`` take the noise variance and the anomaly scores
from one run, one batch of residuals ``y - f(x)``: over every row, or with
``--noise-var`` over the scored rows alone.  Every command that queries the
model drives its runs (:func:`~anomattr.models.drive`), and only the driver
calls the model: ``detect`` drives the residual run as its one call.
``explain`` and ``compare`` run all their methods in one drive, in
lockstep, with explain's residual run as one more run: each call of the
model carries the next rows of every method that has not ended, so a
command makes as many calls as its method with the most steps.  A step's
rows go in one array, in a fixed order: explain's residual rows, the one
batch of each method that sends one (the lime cloud, which lime, lime0 and
baylime share, ig's path and sv's batch), gpa's rate rows and solve, then
lc's solve and eig's paths in method order; its answers go back in that
order.  ``dist`` drives one run, gpa's run and then the posterior slices'
over ``--grid-points`` points.  The residual scores are taken before any
method sees the answers of the first call, so an overflowing residual ends
the run there.  Every refusal of a method's inputs, such as a missing
``--baseline`` or ``--ref``, a ``--ref`` that zscore cannot standardize
against, or too few ``--lime-samples``, comes before the first query.

Exit codes: 0 success, 2 usage/configuration error (including a flag or a
dataset cell that is not a finite number, a number flag out of its range,
too few ``--lime-samples`` for a lime fit, ``--b0`` with ``--b-mode
local_kernel``, which would ignore it, ``--b-mode local_kernel`` on one
row, which has no other rows to take its rate from, a ``subprocess:``
model with no command, and a file that cannot be read or written, such as
a missing ``--data`` or ``--ref`` or an ``--out`` that names a file), an
anomaly score or residual variance that overflows, or a solver that cannot
proceed (its objective overflows, or keeps rising), 3 model transport
error (including a remote model that does not answer within its timeout,
and a subprocess model that writes output no request asked for) or
non-finite output of any query, in any command, named by its input; no
document is written then.
Every model handle a command resolves is closed before ``main`` returns,
whatever the exit code.
``dist`` writes the posterior as one grid and one row of probabilities per
variable, and warns on stderr, naming the variable by its CSV header, when
more than 1% of a row's mass sits on the grid's two edge points.  Under
``--standardize`` the documents of ``explain`` and ``dist`` give gpa's and
lc's scores in raw units too (``scores_raw_units``); ``dist``'s grid and
probabilities stay in standardized units.  A gpa or lc solve that stops at
``--max-iter`` without converging warns on stderr, and the command goes on
from the last iterate and exits 0.  The
diagnostics ``gpa`` and ``lc`` hold the record of a gpa or lc run under the
keys :attr:`~anomattr.gpa.AttributionResult.diagnostics` gives: the
solver's ``iterations``, its rejected candidate steps (``halvings``), the
iterations whose step took the secant-corrected curvature
(``secant_steps``), the gradient batches in which some coordinate sent one
pair of draws (``one_pair_batches``), the batches that sent the missing
draws where the solve would stop (``confirmations``), ``converged``, and
the run's own ``query_count`` and ``call_count`` (gpa's with its rate
queries), which follow the query plan in the :mod:`anomattr.gpa` module
docstring.  ``dist`` adds ``edge_mass`` to gpa's.  The diagnostics' own
``model_queries`` and ``model_calls`` count every query and call of the
command: for ``dist`` the posterior slices too, and for ``explain`` and
``compare`` every method.

``--kappa`` set the starting step of an earlier step-size solver.  The
Gauss-Newton solver has no step size, so it is accepted and ignored, and
hidden from ``--help``, so that old command lines still run; ``config``
echoes it like any flag.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import baselines, dataio, gpa, metrics, oracle
from .dataio import TestSet
from .gpa import DivergenceError, GpaHyperParams
from .models import (
    BuiltinModel,
    GradientEstimatorConfig,
    HttpModel,
    ModelHandle,
    NonFiniteModelOutput,
    SubprocessModel,
    TransportError,
    drive,
)

MODEL_ENV_VAR = "ANOMATTR_MODEL"
ALL_METHODS = ("gpa", "lc", "lime", "lime0", "baylime", "ig", "eig", "sv", "zscore")
_COLLECTIVE_METHODS = ("gpa", "lc")
_LIME_METHODS = {"lime", "lime0", "baylime"}
_REF_METHODS = ("eig", "sv", "zscore")
# ``dist`` warns when this much posterior mass sits on a grid's two edge points
_EDGE_MASS_WARNING = 1e-2
# comma-list flags whose value may start with a minus sign
_LIST_FLAGS = ("--x", "--x0", "--baseline", "--indices")


class UsageError(Exception):
    pass


def _finite_float(text: str) -> float:
    """The type of every float flag and list entry: a finite number."""
    with contextlib.suppress(ValueError):
        if math.isfinite(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _seed(text: str) -> int:
    """The type of ``--seed``: numpy's generators take a nonnegative integer."""
    with contextlib.suppress(ValueError):
        if (value := int(text)) >= 0:
            return value
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


def _bounded(kind, low: float, strict: bool = False):
    """The type of a number flag the library bounds below: argparse refuses a
    value under ``low``, or at it if ``strict``, naming the flag."""
    def parse(text: str):
        if (value := kind(text)) > low or value == low and not strict:
            return value
        what = f"{'an integer' if kind is int else 'a number'} {'>' if strict else '>='} {low}"
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


_positive = _bounded(_finite_float, 0, strict=True)


def _numbers(text: str, kind=_finite_float) -> tuple:
    """The entries of a comma-separated list, each parsed by ``kind``."""
    try:
        return tuple(kind(v) for v in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        what = "integers" if kind is int else "finite numbers"
        raise UsageError(f"expected comma-separated {what}, got {text!r}") from None


def resolve_model(spec: str | None, dimension: int) -> ModelHandle:
    """Build a model handle of ``dimension`` inputs from its CLI description.

    Accepted forms: ``sinusoidal2d``, ``linear:c1,c2,...``,
    ``quadratic:c1,...``, ``subprocess:<command>``, ``http://...`` /
    ``https://...``.  Falls back to the ``ANOMATTR_MODEL`` environment
    variable when omitted.  A ``subprocess:`` child speaks the line protocol
    of :class:`~anomattr.models.SubprocessModel` and must answer each request
    within 10 s, or the command exits 3.  The caller closes the handle.
    """
    spec = spec or os.environ.get(MODEL_ENV_VAR)
    if not spec:
        raise UsageError(
            f"no model given: pass --model or set {MODEL_ENV_VAR}"
        )
    if spec.startswith(("http://", "https://")):
        return HttpModel(spec, dimension)
    if spec.startswith("subprocess:"):
        return SubprocessModel(spec[len("subprocess:"):], dimension)
    kind, _, coef_text = spec.partition(":")
    coefficients = _numbers(coef_text) if coef_text else ()
    model = BuiltinModel(kind, coefficients)
    if model.dimension != dimension:
        raise UsageError(
            f"model dimension {model.dimension} does not match dataset "
            f"dimension {dimension}"
        )
    return model


def _open_model(args, dimension: int) -> ModelHandle:
    """Resolve ``--model``; ``main`` closes the handle when the command ends."""
    model = resolve_model(args.model, dimension)
    args.cleanup.callback(model.close)
    return model


def _load_testset(args) -> TestSet:
    ts = dataio.load_csv(args.data)
    if ts.n_test == 0:
        raise UsageError("dataset has no samples")
    if args.standardize:
        ts = dataio.standardize(ts)
    return ts


def _residuals(args, ts: TestSet, rows):
    """The run whose result is the noise variance and the anomaly scores of
    ``rows``, from one batch of residuals: over every row, whose mean square
    is the noise variance (1e-6 where it is exactly 0), or over ``rows``
    alone when ``--noise-var`` gives it."""
    batch = ts if args.noise_var is None else ts.select(rows)
    resid = batch.y - (yield batch.x)
    if args.noise_var is not None:
        return args.noise_var, metrics.anomaly_score(resid, args.noise_var).tolist()
    variance = gpa.init_gamma_rate(resid, 1.0, 1.0)
    if not math.isfinite(variance):
        raise UsageError(
            "the residual variance of the data overflows the float range; "
            "pass --noise-var or rescale the targets"
        )
    return variance, metrics.anomaly_score(resid[list(rows)], variance).tolist()


def _selected_indices(args, n_test: int) -> tuple[int, ...]:
    idx = (args.point_index,) if args.indices is None else _numbers(args.indices, int)
    for k, i in enumerate(idx):
        if not 0 <= i < n_test:
            raise UsageError(f"sample index {i} out of range (0..{n_test - 1})")
        if i in idx[:k]:
            raise UsageError(f"sample index {i} repeated in --indices")
    if len(idx) > 1 and not args.collective:
        raise UsageError(
            "multiple --indices require --collective; run single points "
            "with --point-index"
        )
    return idx


def _hyperparams(args, n_selected: int) -> GpaHyperParams:
    # a flag shares its field's name; fields without a flag keep their default
    overrides = {f.name: getattr(args, f.name) for f in fields(GpaHyperParams)
                 if getattr(args, f.name, None) is not None}
    return GpaHyperParams.for_testset(n_selected, **overrides)


def _setup(args, methods):
    """Set-up shared by explain, dist and compare: the test set, the open
    model, the selected indices, the selection, the hyperparameters and the
    gradient settings."""
    ts = _load_testset(args)
    model = _open_model(args, ts.dimension)
    indices = _selected_indices(args, ts.n_test)
    unsupported = [m for m in methods if m not in _COLLECTIVE_METHODS]
    if args.collective and unsupported:
        raise UsageError(
            f"--collective supports only {', '.join(_COLLECTIVE_METHODS)}; "
            f"got {', '.join(unsupported)}"
        )
    selection = ts.select(indices)
    hp = _hyperparams(args, selection.n_test)
    if "gpa" in methods and hp.b_mode == "local_kernel" and selection.n_test < 2:
        raise UsageError(
            "--b-mode local_kernel takes each row's rate from the other rows; "
            "select two or more --indices with --collective"
        )
    grad_cfg = GradientEstimatorConfig(
        perturbation_std=args.grad_std, mc_samples=args.grad_samples, seed=args.seed
    )
    return ts, model, indices, selection, hp, grad_cfg


def _reference_set(args, dimension: int) -> baselines.ReferenceSet | None:
    if args.ref is None:
        return None
    ref_ts = dataio.load_csv(args.ref)
    if ref_ts.dimension != dimension:
        raise UsageError(
            f"reference dimension {ref_ts.dimension} does not match dataset "
            f"dimension {dimension}"
        )
    return baselines.ReferenceSet(ref_ts.x)


def _lime_config(args) -> baselines.LimeConfig:
    return baselines.LimeConfig(n_samples=args.lime_samples, sampling_std=args.lime_std,
                                l1_strength=args.lime_l1, seed=args.seed)


def _solve_record(result: gpa.AttributionResult) -> tuple:
    """The scores and diagnostics of a gpa or lc run."""
    return result.delta_star, result.diagnostics


def _warn_unconverged(hp: GpaHyperParams, output: str) -> None:
    """Warn on stderr that a solve stopped at ``--max-iter`` and ``output``
    use its last iterate."""
    print(f"warning: no convergence within {hp.max_iter} iterations; "
          f"{output} use the last iterate", file=sys.stderr)


def _run_methods(methods, args, model: ModelHandle, selection: TestSet,
                 hp: GpaHyperParams, grad_cfg: GradientEstimatorConfig, *lead):
    """The method loop of explain and compare: each method's scores by name,
    in method order, and the methods' part of the diagnostics section of the
    document.  Every input a method requires is checked, and zscore, which
    queries nothing, is computed, before the first query.  The caller's
    ``lead`` runs and every method's but zscore's go in one drive
    (:func:`~anomattr.models.drive`), in the order of a step (module
    docstring), so each step of the command is one model call."""
    if _LIME_METHODS & set(methods) and args.lime_samples <= selection.dimension:
        raise UsageError(f"--lime-samples must be at least the dimension + 1, "
                         f"{selection.dimension + 1}, for a solvable fit")
    if "ig" in methods and args.baseline is None:
        raise UsageError("method 'ig' requires --baseline")
    ref = _reference_set(args, selection.dimension)
    needs_ref = [m for m in methods if m in _REF_METHODS]
    if needs_ref and ref is None:
        raise UsageError(f"method {needs_ref[0]!r} requires --ref")
    done, x_t = {}, selection.x[0]
    if "zscore" in methods:  # it queries nothing: its refusals come first
        done["zscore"] = baselines.z_score(x_t, ref), None

    def kept(name, run, record=lambda scores: (scores, None)):
        done[name] = record((yield from run))

    def lime_fits():
        cfg = _lime_config(args)
        cloud = yield from baselines.cloud_run(x_t, cfg)
        if "lime" in methods:
            done["lime"] = baselines.lime_fit(*cloud, cfg), None
        if "lime0" in methods:
            done["lime0"] = baselines.lime0_fit(*cloud, cfg), None
        if "baylime" in methods:
            fit = baselines.baylime_fit(*cloud, cfg, args.prior_eta, args.noise_lambda)
            done["baylime"] = fit.means, {"variance": fit.variance}

    runs = list(lead)
    if _LIME_METHODS & set(methods):
        runs.append(lime_fits())
    if "ig" in methods:
        runs.append(kept("ig", baselines.integrated_gradient(
            x_t, _numbers(args.baseline), args.n_intervals, grad_cfg)))
    if "sv" in methods:
        runs.append(kept("sv", baselines.shapley_sampled(x_t, ref, args.sv_configs,
                                                         args.seed)))
    if "gpa" in methods:
        runs.append(kept("gpa", gpa.map_estimate(selection, hp, grad_cfg), _solve_record))
    for name in methods:
        if name == "lc":
            runs.append(kept("lc", baselines.lc(selection.x, selection.y, hp, grad_cfg,
                                                args.lc_lambda), _solve_record))
        elif name == "eig":
            runs.append(kept("eig", baselines.expected_integrated_gradient(
                x_t, ref, args.n_intervals, grad_cfg)))
    drive(model, runs)
    for name in methods:
        if name in ("gpa", "lc") and not done[name][1]["converged"]:
            _warn_unconverged(hp, f"{name} scores")
    scores = {name: done[name][0] for name in methods}
    diagnostics = {name: done[name][1] for name in methods if done[name][1]}
    return scores, diagnostics


def _methods_doc(scores: dict, ts: TestSet) -> dict:
    """The ``methods`` section of a document: each method's scores, and
    under ``--standardize`` gpa's and lc's in raw units too."""
    doc = {name: {"scores": s} for name, s in scores.items()}
    if ts.standardization is not None:
        for name in {"gpa", "lc"} & scores.keys():
            doc[name]["scores_raw_units"] = dataio.delta_to_raw_units(scores[name], ts)
    return doc


def _model_counts(model: ModelHandle) -> dict:
    """The diagnostics' count of every query and call of the command."""
    return {"model_queries": model.query_count, "model_calls": model.call_count}


def _parse_methods(text: str) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods:
        raise UsageError("at least one method required")
    for i, m in enumerate(methods):
        if m not in ALL_METHODS:
            raise UsageError(
                f"unknown method {m!r}; choose from {', '.join(ALL_METHODS)}"
            )
        if m in methods[:i]:
            raise UsageError(f"method {m!r} repeated in --methods")
    return methods


def _config(args, **resolved) -> dict:
    """The ``config`` section of a document: every flag under its dest, the
    model spec in use, and the ``resolved`` values."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "cleanup")}
    config["model"] = args.model or os.environ.get(MODEL_ENV_VAR, "")
    return {**config, **resolved}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_detect(args) -> int:
    ts = _load_testset(args)
    model = _open_model(args, ts.dimension)
    noise_var, scores = drive(model, [_residuals(args, ts, range(ts.n_test))])[0]
    order = sorted(range(ts.n_test), key=lambda t: (-scores[t], t))
    top = order[: args.top]
    for t in order:
        marker = "*" if t in top else " "
        print(f"{marker} sample {t:4d}  anomaly_score {scores[t]:.6f}")
    print(f"top-{len(top)} indices: {','.join(str(t) for t in top)}")
    if args.out:
        path = _out_dir(args) / "detect.json"
        dataio.emit_result_json(
            {"config": _config(args), "noise_variance": noise_var,
             "scores": scores, "order": order, "indices": top},
            path,
        )
        print(f"wrote {path}")
    return 0


def cmd_explain(args) -> int:
    methods = _parse_methods(args.methods)
    ts, model, indices, selection, hp, grad_cfg = _setup(args, methods)
    residual = []

    def residuals():  # scored as soon as the command's first call answers them
        residual.extend((yield from _residuals(args, ts, indices)))

    scores, diagnostics = _run_methods(methods, args, model, selection, hp, grad_cfg,
                                       residuals())
    noise_var, values = residual
    diagnostics.update(_model_counts(model))
    anomaly = [{"sample_index": i, "value": v} for i, v in zip(indices, values)]

    out = _out_dir(args)
    result_path = out / "result.json"
    dataio.emit_result_json(
        {
            "config": _config(args, indices=indices, hyperparams=asdict(hp),
                              noise_variance=noise_var),
            "anomaly_scores": anomaly,
            "methods": _methods_doc(scores, ts),
            "diagnostics": diagnostics,
        },
        result_path,
    )
    litmus_path = out / "litmus.svg"
    dataio.emit_litmus_svg(scores, litmus_path, ts.variable_names)
    print(f"wrote {result_path}")
    print(f"wrote {litmus_path}")
    return 0


def cmd_dist(args) -> int:
    ts, model, indices, selection, hp, grad_cfg = _setup(args, ["gpa"])

    def posterior():  # the solve's warning precedes any error of the slices
        result = yield from gpa.map_estimate(selection, hp, grad_cfg)
        if not result.converged:
            _warn_unconverged(hp, "distributions")
        return result, *(yield from gpa.score_distributions(
            result.delta_star, selection, hp, result.rates, grad_cfg, args.grid_points))

    result, grid, probs = drive(model, [posterior()])[0]
    edge_mass = probs[:, 0] + probs[:, -1]
    worst = int(np.argmax(edge_mass))
    if edge_mass[worst] > _EDGE_MASS_WARNING:
        print(
            f"warning: {edge_mass[worst]:.3g} of the posterior mass of variable "
            f"{ts.variable_names[worst]!r} sits on the grid's edge points; the "
            "grid may cut off probability mass",
            file=sys.stderr,
        )

    out = _out_dir(args)
    methods_doc = _methods_doc({"gpa": result.delta_star}, ts)
    methods_doc["gpa"]["distribution"] = {"grid": grid, "probs": probs}
    doc = {
        "config": _config(args, indices=indices, hyperparams=asdict(hp)),
        "methods": methods_doc,
        "diagnostics": {
            "gpa": {**result.diagnostics, "edge_mass": edge_mass},
            **_model_counts(model),
        },
    }
    json_path = out / "distributions.json"
    dataio.emit_result_json(doc, json_path)
    svg_path = out / "distributions.svg"
    dataio.emit_distribution_svg(grid, probs, svg_path, result.delta_star, ts.variable_names)
    print(f"wrote {json_path}")
    print(f"wrote {svg_path}")
    return 0


def cmd_compare(args) -> int:
    methods = _parse_methods(args.methods)
    if args.reference not in methods:
        methods = [args.reference] + methods
    if len(methods) < 2:
        raise UsageError("compare needs at least two methods")
    _, model, indices, selection, hp, grad_cfg = _setup(args, methods)
    scores, diagnostics = _run_methods(methods, args, model, selection, hp, grad_cfg)
    diagnostics.update(_model_counts(model))
    reports = {
        name: asdict(metrics.consistency_report(scores[args.reference], s))
        for name, s in scores.items() if name != args.reference
    }

    print(f"consistency vs {args.reference}:")
    print(f"{'method':<10} {'tau':>7} {'rho':>7} {'smr':>7} {'hit25':>7}")
    for name, rep in reports.items():
        cells = (rep[k] for k in ("kendall_tau", "spearman_rho", "smr", "hit25"))
        print(f"{name:<10} " + " ".join("   null" if v is None else f"{v:7.4f}"
                                        for v in cells))

    if args.out:
        path = _out_dir(args) / "compare.json"
        dataio.emit_result_json(
            {
                "config": _config(args, indices=indices, hyperparams=asdict(hp)),
                "reference": args.reference,
                "scores": scores,
                "reports": reports,
                "diagnostics": diagnostics,
            },
            path,
        )
        print(f"wrote {path}")
    return 0


def cmd_oracle(args) -> int:
    x = np.asarray(_numbers(args.x))
    if args.which == "lime0":
        scores = oracle.oracle_lime0(x)
    elif args.which == "gpa":
        if args.y is None:
            raise UsageError("oracle gpa requires --y")
        scores = oracle.oracle_gpa(x, args.y)
    elif args.which == "ig":
        if args.x0 is None:
            raise UsageError("oracle ig requires --x0")
        scores = oracle.oracle_ig(x, np.asarray(_numbers(args.x0)))
    else:
        scores = oracle.oracle_sv(x)
    print(json.dumps({"method": args.which, "scores": scores.tolist()},
                     sort_keys=True, allow_nan=False))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--data", required=True, help="dataset CSV (last column is the target)")
    p.add_argument("--standardize", action="store_true",
                   help="standardize x columns (test-set statistics)")
    p.add_argument("--model", default=None,
                   help="sinusoidal2d | linear:c1,c2 | quadratic:c1,.. | "
                        f"subprocess:CMD | http(s)://URL (default ${MODEL_ENV_VAR})")


def _add_attribution_flags(p):
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--grad-std", type=_positive, default=1.0,
                   help="gradient estimator perturbation std")
    p.add_argument("--grad-samples", type=_bounded(int, 1), default=10,
                   help="gradient estimator Monte Carlo samples per coordinate, "
                        "sign-paired")
    p.add_argument("--point-index", type=int, default=0)
    p.add_argument("--indices", default=None, help="comma-separated sample indices")
    p.add_argument("--collective", action="store_true",
                   help="one shared perturbation for all selected samples")


def _add_gpa_flags(p):
    p.add_argument("--eta", type=_positive, default=None)
    p.add_argument("--nu", type=_finite_float, default=None)
    # ignored: see the module docstring
    p.add_argument("--kappa", type=_finite_float, default=None, help=argparse.SUPPRESS)
    p.add_argument("--a0", type=_positive, default=None)
    p.add_argument("--cb", dest="c_b", type=_positive, default=None)
    p.add_argument("--b0", type=_positive, default=None)
    p.add_argument("--b-mode", dest="b_mode", choices=("constant", "local_kernel"),
                   default=None)
    p.add_argument("--max-iter", type=_bounded(int, 1), default=None)
    p.add_argument("--tol", type=_positive, default=None)


def _add_method_flags(p):
    p.add_argument("--baseline", default=None, help="IG baseline point, comma-separated")
    p.add_argument("--ref", default=None, help="reference CSV for eig/sv/zscore")
    p.add_argument("--n-intervals", type=_bounded(int, 1), default=100)
    p.add_argument("--sv-configs", type=_bounded(int, 1), default=100)
    # checked against the dimension when a lime method runs
    p.add_argument("--lime-samples", type=int, default=1000)
    p.add_argument("--lime-std", type=_positive, default=0.3)
    p.add_argument("--lime-l1", type=_bounded(_finite_float, 0), default=0.01)
    p.add_argument("--prior-eta", type=_positive, default=0.1)
    p.add_argument("--noise-lambda", type=_bounded(_finite_float, 0), default=1.0)
    p.add_argument("--lc-lambda", type=_positive, default=1.0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: nothing in it depends on the call, and
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="anomattr",
        description="Black-box anomaly attribution toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="rank samples by anomaly score")
    _add_common(p)
    p.add_argument("--noise-var", type=_positive, default=None)
    p.add_argument("--top", type=_bounded(int, 1), default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("explain", help="attribution scores and litmus plot")
    _add_common(p)
    _add_attribution_flags(p)
    _add_gpa_flags(p)
    _add_method_flags(p)
    p.add_argument("--methods", required=True,
                   help=f"comma-separated subset of: {','.join(ALL_METHODS)}")
    p.add_argument("--noise-var", type=_positive, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("dist", help="per-variable score distributions")
    _add_common(p)
    _add_attribution_flags(p)
    _add_gpa_flags(p)
    p.add_argument("--grid-points", type=_bounded(int, 3), default=100)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("compare", help="consistency metrics between methods")
    _add_common(p)
    _add_attribution_flags(p)
    _add_gpa_flags(p)
    _add_method_flags(p)
    p.add_argument("--methods", required=True)
    p.add_argument("--reference", default="gpa", choices=ALL_METHODS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle", help="closed-form sinusoidal values")
    p.add_argument("which", choices=("lime0", "gpa", "ig", "sv"))
    p.add_argument("--x", required=True, help="test point, comma-separated")
    p.add_argument("--y", type=_finite_float, default=None)
    p.add_argument("--x0", default=None, help="baseline point (ig only)")
    p.set_defaults(func=cmd_oracle)

    return parser


def _attach_list_values(argv: list[str]) -> list[str]:
    """``argv`` with each comma-list flag, or an abbreviation of one,
    followed by a word such as ``-0.5,0`` joined to it as ``--x=-0.5,0``:
    argparse takes a word that starts with ``-`` for an option unless it is
    one plain negative number."""
    out = []
    for word in argv:
        flag = out[-1] if out else ""
        if (len(flag) > 2 and any(f.startswith(flag) for f in _LIST_FLAGS)
                and re.match(r"-[\d.]", word)):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
    # numpy's overflow and invalid-value warnings would precede the one-line
    # messages below; non-finite model output is refused by the model handle
    # (NonFiniteModelOutput), an overflowing objective by the solver.
    with (contextlib.ExitStack() as args.cleanup,
          np.errstate(over="ignore", invalid="ignore")):
        try:
            return args.func(args)
        except TransportError as exc:
            print(f"transport error: {exc}", file=sys.stderr)
            return 3
        except NonFiniteModelOutput as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except (UsageError, DivergenceError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
