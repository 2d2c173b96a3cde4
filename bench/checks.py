"""Correctness checks for the benchmark's result documents.

Each check recomputes the expected answer from the generated inputs with
numpy alone; nothing here imports the program.  A check returns a list of
problems; an empty list means the output passed.

The constants below are the program's documented defaults and the flags the
workloads pass (``GpaHyperParams.for_testset``: eta = 0.1 n, nu = 0.5,
a0 = 5.5, c_b = 10; the oracle flags for the sinusoidal workloads).
"""

from __future__ import annotations

import numpy as np

# collective-builtin: GPA defaults for a collective of n rows
A0 = 5.5
C_B = 10.0
NU = 0.5
DELTA_MAX_FACTOR = 1.1
# largest KKT residual accepted, in gradient units.  The solver stops when
# an iterate moves less than tol = 1e-6 under a step of 0.1/n, which leaves
# residuals up to tol * n / 0.1 = 2e-4 (1.99e-4 worst over six seeds); a
# coordinate off by 1e-2 leaves at least eta * 1e-2 = 0.02.
KKT_TOL = 1e-3
# log-density differences between grid points of one posterior slice
LOGDIFF_TOL = 1e-6

# sinusoidal workloads
CLOSED_FORM_TOL = 1e-3
IG_TOL = 1e-3
# trapezoid rule with 100 intervals on paths up to 2.5 long
EIG_SUM_TOL = 1e-3
EIG_TRAPEZOID_TOL = 1e-5
EXACT_TOL = 1e-9
N_INTERVALS = 100


def surface(x) -> np.ndarray:
    """f(x) = 2 cos(pi x1) cos(pi x2), row-wise for a 2-d array."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return 2.0 * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])


def surface_gradient(x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a, b = np.pi * x[:, 0], np.pi * x[:, 1]
    return -2.0 * np.pi * np.stack(
        [np.sin(a) * np.cos(b), np.cos(a) * np.sin(b)], axis=1
    )


def closed_form_shift(x1: float, y: float) -> np.ndarray:
    """The shift that moves (x1, 0) onto the surface at height y, on the
    branch a solver started near zero reaches: (arccos(y/2)/pi - x1, 0)."""
    return np.array([np.arccos(y / 2.0) / np.pi - x1, 0.0])


def path_integral(x_t, x_0) -> np.ndarray:
    """Exact integrated gradient of the surface along the straight path
    x_0 -> x_t.  With f = cos(pi s) + cos(pi u), s = x1 + x2, u = x1 - x2,
    each term integrates to a cosine difference over the path's increment
    in s or u."""
    x_t = np.asarray(x_t, dtype=float)
    x_0 = np.asarray(x_0, dtype=float)
    d = x_t - x_0

    def term(v_t, v_0, dv):
        if abs(dv) < 1e-12:
            return -np.pi * np.sin(np.pi * v_0)
        return (np.cos(np.pi * v_t) - np.cos(np.pi * v_0)) / dv

    s = term(x_t[0] + x_t[1], x_0[0] + x_0[1], d[0] + d[1])
    u = term(x_t[0] - x_t[1], x_0[0] - x_0[1], d[0] - d[1])
    return np.array([d[0] * (s + u), d[1] * (s - u)])


def trapezoid_path_integral(x_t, x_0, n_intervals: int = N_INTERVALS) -> np.ndarray:
    """The same integral by the trapezoid rule on the analytic gradient."""
    x_t = np.asarray(x_t, dtype=float)
    x_0 = np.asarray(x_0, dtype=float)
    d = x_t - x_0
    alphas = np.linspace(0.0, 1.0, n_intervals + 1)
    grads = surface_gradient(x_0 + alphas[:, None] * d)
    weights = np.full(n_intervals + 1, 1.0 / n_intervals)
    weights[0] = weights[-1] = 0.5 / n_intervals
    return d * (weights @ grads)


def _vector(doc_value, length: int, label: str, problems: list):
    v = np.asarray(doc_value, dtype=float)
    if v.shape != (length,) or not np.all(np.isfinite(v)):
        problems.append(f"{label}: expected {length} finite values, got {v.shape}")
        return None
    return v


# ---------------------------------------------------------------------------
# collective-builtin
# ---------------------------------------------------------------------------

def collective_terms(c, x, y):
    """Gamma rate b = a0 var(y - f(x)) / c_b and prior weights for n rows."""
    n = len(y)
    resid = y - (x * x) @ c
    return A0 * float(np.mean(resid**2)) / C_B, 0.1 * n


def log_posterior(delta, c, x, y, b, eta) -> np.ndarray:
    """Unnormalized log posterior at each row of ``delta`` (k, m)."""
    delta = np.atleast_2d(delta)
    z = x[None, :, :] + delta[:, None, :]
    resid = y[None, :] - (z * z) @ c
    value = -0.5 * eta * np.sum(delta**2, axis=1)
    value -= eta * NU * np.sum(np.abs(delta), axis=1)
    value -= (2 * A0 + 1) / 2.0 * np.sum(np.log1p(resid**2 / (2 * b)), axis=1)
    return value


def kkt_residual(delta, c, x, y) -> np.ndarray:
    """Per-coordinate violation of the optimality conditions of
    (eta/2)|d|^2 + sum_t (2a0+1)/2 ln(1 + r_t^2 / 2b) + eta nu |d|_1,
    with the analytic gradient of f(z) = sum_i c_i z_i^2."""
    b, eta = collective_terms(c, x, y)
    z = x + delta
    resid = y - (z * z) @ c
    weight = (2 * A0 + 1) * resid / (2 * b + resid**2)
    grad = eta * delta - (weight[:, None] * 2.0 * c * z).sum(axis=0)
    lam = eta * NU
    return np.where(
        delta != 0.0,
        np.abs(grad + lam * np.sign(delta)),
        np.maximum(np.abs(grad) - lam, 0.0),
    )


def check_collective(expect: dict, doc: dict) -> list:
    c, x, y = expect["c"], expect["x"], expect["y"]
    m = len(c)
    problems = []
    gpa = doc.get("methods", {}).get("gpa", {})
    delta = _vector(gpa.get("scores"), m, "delta*", problems)
    if delta is None:
        return problems
    if doc.get("diagnostics", {}).get("gpa", {}).get("converged") is not True:
        problems.append("solver did not report convergence")
    worst = float(np.max(kkt_residual(delta, c, x, y)))
    if worst > KKT_TOL:
        problems.append(f"KKT residual {worst:.3g} > {KKT_TOL}")

    dist = gpa.get("distribution", {})
    grid = np.asarray(dist.get("grid", []), dtype=float)
    probs = np.asarray(dist.get("probs", []), dtype=float)
    if grid.ndim != 1 or grid.size < 3 or probs.shape != (m, grid.size):
        problems.append(f"distribution shape {probs.shape} for grid {grid.shape}")
        return problems
    if np.any(np.diff(grid) <= 0) or np.max(np.abs(grid + grid[::-1])) > 1e-12:
        problems.append("grid is not increasing and symmetric about 0")
    span = DELTA_MAX_FACTOR * float(np.max(np.abs(delta)))
    if abs(grid[-1] - span) > 1e-9 * span:
        problems.append(f"grid ends at {grid[-1]!r}, expected {span!r}")
    if np.any(probs < 0) or np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
        problems.append("a posterior slice is negative or does not sum to 1")
        return problems

    b, eta = collective_terms(c, x, y)
    order = np.argsort(np.abs(delta), kind="stable")
    for k in sorted({int(order[0]), int(order[m // 2]), int(order[-1])}):
        p = probs[k]
        live = np.nonzero(p > 1e-200)[0]
        top = int(np.argmax(p))
        picks = [int(live[0]), int(live[len(live) // 2]), int(live[-1])]
        candidates = np.repeat(delta[None, :], len(picks) + 1, axis=0)
        candidates[:, k] = grid[[top, *picks]]
        logq = log_posterior(candidates, c, x, y, b, eta)
        want = logq[1:] - logq[0]
        got = np.log(p[picks]) - np.log(p[top])
        gap = np.abs(got - want)
        if np.any(gap > LOGDIFF_TOL * (1.0 + np.abs(want))):
            problems.append(
                f"variable {k}: log-density differences off by {gap.max():.3g}"
            )
    return problems


# ---------------------------------------------------------------------------
# sinusoidal workloads
# ---------------------------------------------------------------------------

def _closed_form_problems(delta, x1, y, label) -> list:
    gap = float(np.max(np.abs(delta - closed_form_shift(x1, y))))
    if gap > CLOSED_FORM_TOL:
        return [f"{label} off the closed form by {gap:.3g}"]
    return []


def check_pointwise(expect: dict, doc: dict) -> list:
    i, x, y = expect["row"], expect["x"], expect["y"]
    problems = []
    delta = _vector(doc.get("methods", {}).get("gpa", {}).get("scores"), 2,
                    "delta*", problems)
    if delta is not None:
        problems += _closed_form_problems(delta, x[i, 0], y[i], "delta*")
    variance = float(np.mean((y - surface(x)) ** 2))
    resid = y[i] - surface(x[i])[0]
    nll = 0.5 * np.log(2.0 * np.pi * variance) + resid**2 / (2.0 * variance)
    scores = doc.get("anomaly_scores", [])
    if len(scores) != 1 or scores[0].get("sample_index") != i:
        problems.append(f"expected one anomaly score for row {i}")
    elif abs(scores[0]["value"] - nll) > EXACT_TOL * max(1.0, abs(nll)):
        problems.append(f"anomaly score {scores[0]['value']!r}, expected {nll!r}")
    return problems


# methods whose scores must not depend on y
DEVIATION_AGNOSTIC = ("lime", "ig", "eig", "sv", "zscore")


def check_compare(expect: dict, doc: dict, pair_doc: dict | None = None) -> list:
    """``pair_doc`` is the result for the other row of the pair, which shares
    x and differs in y; when given, the deviation-agnostic property is
    checked against it."""
    i, x, y, ref = expect["row"], expect["x"], expect["y"], expect["ref"]
    problems = []
    scores = {}
    for name in ("gpa", "lc", *DEVIATION_AGNOSTIC):
        v = _vector(doc.get("scores", {}).get(name), 2, name, problems)
        if v is None:
            return problems
        scores[name] = v
    x_t = x[i]
    problems += _closed_form_problems(scores["gpa"], x_t[0], y[i], "gpa")
    gap = float(np.max(np.abs(scores["lc"] - scores["gpa"])))
    if gap > CLOSED_FORM_TOL:
        problems.append(f"lc differs from gpa by {gap:.3g}")
    gap = float(np.max(np.abs(scores["ig"] - path_integral(x_t, expect["baseline"]))))
    if gap > IG_TOL:
        problems.append(f"ig off the closed-form path integral by {gap:.3g}")
    f_t = float(surface(x_t)[0])
    gap = float(np.max(np.abs(scores["sv"] - f_t / 2.0)))
    if gap > EXACT_TOL:
        problems.append(f"sv differs from f(x)/2 by {gap:.3g}")
    total = f_t - float(np.mean(surface(ref)))
    gap = abs(float(scores["eig"].sum()) - total)
    if gap > EIG_SUM_TOL:
        problems.append(f"eig sums to {scores['eig'].sum():.6g}, expected {total:.6g}")
    trapezoid = np.mean([trapezoid_path_integral(x_t, r) for r in ref], axis=0)
    gap = float(np.max(np.abs(scores["eig"] - trapezoid)))
    if gap > EIG_TRAPEZOID_TOL:
        problems.append(f"eig differs from the trapezoid path average by {gap:.3g}")
    z = (x_t - ref.mean(axis=0)) / ref.std(axis=0)
    gap = float(np.max(np.abs(scores["zscore"] - z)))
    if gap > EXACT_TOL:
        problems.append(f"zscore differs from the recomputed z-score by {gap:.3g}")

    if pair_doc is not None:
        other = pair_doc.get("scores", {})
        for name in DEVIATION_AGNOSTIC:
            if other.get(name) != doc["scores"][name]:
                problems.append(f"{name} changed with y at the same x")
        shift = np.max(np.abs(np.asarray(other.get("gpa"), dtype=float) - scores["gpa"]))
        if not shift > 0.05:
            problems.append("gpa did not change with y at the same x")
    return problems


CHECKS = {
    "collective-builtin": check_collective,
    "pointwise-subprocess": check_pointwise,
    "baselines-compare": check_compare,
}
