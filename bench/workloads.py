"""Seeded inputs and CLI argument lists for the three benchmark workloads.

Every workload runs in rounds.  A round is a fixed list of operations, one
``anomattr.cli.main`` call each, and every run attempts whole rounds, so the
operation mix is the same in every run.  The inputs depend only on
``--seed``; the program receives nothing but the generated CSV files and
the command line.

``collective-builtin``
    Three base problems drawn from fixed master seeds: 20 rows of a
    quadratic model in m = 30, with one sparse shift ``delta_true`` injected
    into every row.  The run seed draws a symmetry of each base problem: an
    order of the rows, an order of the columns and a sign per column.  The
    quadratic model is invariant under these, so every seed poses the same
    three problems with different numbers, and the solver's work per
    operation is the same to within a few iterations.  Freshly drawn
    problems differ by up to 3.5x in iterations (725 to 2,509 over six
    draws), which no run of a few operations can average out.

``pointwise-subprocess`` and ``baselines-compare``
    Six rows of the sinusoidal surface on the closed-form branch
    (x2 = 0, x1 > 0, |y| < 2), in three pairs that share x and differ in
    y.  Pair j has x1 near ``_PAIR_X1[j]`` and its roots (where the surface
    equals y) near ``_PAIR_ROOTS[j]``; the seed jitters each by up to
    +-0.02.  The reference set is the 8x8 periodic lattice on [-1, 1)^2.
"""

from __future__ import annotations

import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("collective-builtin", "pointwise-subprocess", "baselines-compare")

# --- collective-builtin --------------------------------------------------

DIM = 30
N_ROWS = 20
N_SHIFTED = 8
BASE_SEEDS = (0, 1, 2)

# --- sinusoidal workloads -------------------------------------------------

_PAIR_X1 = (0.40, 0.50, 0.60)
_PAIR_ROOTS = ((0.30, 0.60), (0.35, 0.70), (0.45, 0.75))
_JITTER = 0.02

# closed-form regime of the sinusoidal oracle: weak priors, a0 = 1, fixed
# rate, fine gradient smoothing
ORACLE_FLAGS = (
    "--eta", "0.001", "--nu", "0.001", "--kappa", "0.1", "--a0", "1",
    "--b0", "10", "--tol", "1e-8", "--grad-std", "0.001",
)
IG_BASELINE = (0.0, 0.0)
COMPARE_METHODS = "gpa,lc,lime,ig,eig,sv,zscore"


@dataclass
class Operation:
    """One CLI call and what its checker needs to know about the input."""

    name: str
    argv: list
    output: Path  # the result document the checker reads
    expect: dict


def base_problem(master_seed: int):
    """Quadratic coefficients c, rows x, targets y and the injected shift."""
    rng = np.random.default_rng(master_seed)
    c = rng.uniform(0.5, 1.5, DIM)
    x = rng.normal(0.0, 1.0, (N_ROWS, DIM))
    delta = np.zeros(DIM)
    support = rng.choice(DIM, N_SHIFTED, replace=False)
    delta[support] = rng.choice([-1.0, 1.0], N_SHIFTED) * rng.uniform(0.5, 1.0, N_SHIFTED)
    y = ((x + delta) ** 2) @ c + rng.normal(0.0, 0.1, N_ROWS)
    return c, x, y, delta


def _rng(seed: int, *stream: int) -> np.random.Generator:
    # any integer seed, negative ones included
    return np.random.default_rng([seed % 2**32, *stream])


def symmetric_copy(problem, rng: np.random.Generator):
    """Row order, column order and column signs drawn from ``rng``."""
    c, x, y, delta = problem
    cols = rng.permutation(DIM)
    rows = rng.permutation(N_ROWS)
    signs = rng.choice([-1.0, 1.0], DIM)
    return c[cols], x[rows][:, cols] * signs, y[rows], delta[cols] * signs


def sinusoid_rows(seed: int):
    """Six (x1, y) rows: three pairs sharing x1."""
    rng = _rng(seed)
    rows = []
    for x1, roots in zip(_PAIR_X1, _PAIR_ROOTS):
        x1 = x1 + rng.uniform(-_JITTER, _JITTER)
        for root in roots:
            root = root + rng.uniform(-_JITTER, _JITTER)
            rows.append((x1, 2.0 * np.cos(np.pi * root)))
    return rows


def lattice() -> np.ndarray:
    """The 8x8 periodic lattice on [-1, 1)^2."""
    axis = -1.0 + 2.0 * np.arange(8) / 8
    return np.array([[a, b] for a in axis for b in axis])


def write_csv(path: Path, x, y) -> None:
    x = np.asarray(x, dtype=float)
    lines = [",".join([f"x{i + 1}" for i in range(x.shape[1])] + ["y"])]
    for row, target in zip(x, y):
        lines.append(",".join(repr(float(v)) for v in [*row, target]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def child_command(counts_path: Path) -> str:
    child = Path(__file__).resolve().parent / "model_child.py"
    return "subprocess:" + shlex.join(
        [sys.executable, str(child), "--counts", str(counts_path)]
    )


def build(workload: str, seed: int, work: Path):
    """Write the workload's inputs under ``work`` and return
    ``(operations, model_spec, data_csv)``; the last two are what the
    set-up probe resolves."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "collective-builtin":
        return _collective(seed, work)
    if workload in ("pointwise-subprocess", "baselines-compare"):
        return _sinusoid(workload, seed, work)
    raise ValueError(f"unknown workload {workload!r}")


def _collective(seed: int, work: Path):
    ops = []
    indices = ",".join(str(i) for i in range(N_ROWS))
    for k, master in enumerate(BASE_SEEDS):
        c, x, y, delta = symmetric_copy(base_problem(master), _rng(seed, k))
        data = work / f"collective{k}.csv"
        write_csv(data, x, y)
        spec = "quadratic:" + ",".join(repr(float(v)) for v in c)
        out = work / f"out-collective{k}"
        ops.append(Operation(
            name=f"dist-base{master}",
            argv=["dist", "--data", str(data), "--model", spec, "--collective",
                  "--indices", indices, "--out", str(out)],
            output=out / "distributions.json",
            expect={"c": c, "x": x, "y": y, "delta_true": delta},
        ))
    return ops, ops[0].argv[4], ops[0].argv[2]


def _sinusoid(workload: str, seed: int, work: Path):
    rows = sinusoid_rows(seed)
    x = np.array([[x1, 0.0] for x1, _ in rows])
    y = np.array([target for _, target in rows])
    data = work / "rows.csv"
    write_csv(data, x, y)
    ref = lattice()
    ref_path = work / "ref.csv"
    write_csv(ref_path, ref, np.zeros(len(ref)))
    if workload == "pointwise-subprocess":
        spec = child_command(work / "child_counts.jsonl")
        verb = ["explain", "--methods", "gpa"]
        result = "result.json"
    else:
        spec = "sinusoidal2d"
        verb = ["compare", "--methods", COMPARE_METHODS,
                "--baseline", ",".join(str(v) for v in IG_BASELINE),
                "--ref", str(ref_path)]
        result = "compare.json"
    ops = []
    for i in range(len(rows)):
        out = work / f"out-row{i}"
        ops.append(Operation(
            name=f"{verb[0]}-row{i}",
            argv=[*verb, "--data", str(data), "--model", spec,
                  "--point-index", str(i), *ORACLE_FLAGS, "--out", str(out)],
            output=out / result,
            expect={"row": i, "x": x, "y": y, "ref": ref, "pair": i - i % 2,
                    "baseline": IG_BASELINE},
        ))
    return ops, spec, str(data)
