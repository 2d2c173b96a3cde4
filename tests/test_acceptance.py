"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here and nowhere else."""

import time

import numpy as np

from anomattr import (
    GpaHyperParams,
    GradientEstimatorConfig,
    LimeConfig,
    ReferenceSet,
    baselines,
    baylime_distributions,
    expected_integrated_gradient,
    hit_ratio_25,
    integrated_gradient,
    kendall_tau,
    lc,
    lime,
    lime0,
    linear_model,
    map_estimate,
    oracle_gpa,
    oracle_ig,
    quadratic_model,
    score_distributions,
    shapley_sampled,
    sign_match_ratio,
    sinusoidal2d,
    spearman_rho,
    z_score,
)
from anomattr.cli import main as cli_main
from anomattr.oracle import surface
from conftest import (
    FINE_GRAD,
    ORACLE_HP,
    driven,
    periodic_lattice,
    single_point,
    strict_json,
)

X_T = np.array([0.5, 0.0])
POINT_A, POINT_C, POINT_B = 1.0, 0.0, -1.0


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:02d}: {description}")
    assert ok, f"criterion {number} failed: {description} {detail}".rstrip()


def _gpa_delta(y_t: float) -> np.ndarray:
    res = driven(sinusoidal2d(), map_estimate)(single_point(X_T, y_t), ORACLE_HP, FINE_GRAD)
    return res.delta_star


def _lc_delta(y_t: float) -> np.ndarray:
    return driven(sinusoidal2d(), lc)(X_T, y_t, ORACLE_HP, FINE_GRAD, 1.0).delta_star


def test_criterion_01_gpa_matches_closed_form():
    ok = True
    detail = []
    for y_t in (POINT_A, POINT_C, POINT_B):
        start = time.perf_counter()
        delta = _gpa_delta(y_t)
        elapsed = time.perf_counter() - start
        err = np.max(np.abs(delta - oracle_gpa(X_T, y_t)))
        if err > 1e-3 or elapsed > 5.0:
            ok = False
        detail.append(f"y={y_t:+.0f}: err={err:.2e} t={elapsed:.2f}s")
    _report(1, "MAP solver matches the sinusoidal closed form (1e-3, <5s/point)",
            ok, "; ".join(detail))


def test_criterion_02_lc_matches_gpa():
    ok = True
    detail = []
    for y_t in (POINT_A, POINT_C, POINT_B):
        gap = np.max(np.abs(_lc_delta(y_t) - _gpa_delta(y_t)))
        ok = ok and gap <= 1e-3
        detail.append(f"y={y_t:+.0f}: gap={gap:.2e}")
    _report(2, "Gaussian-loss shift agrees with the MAP solver (1e-3)",
            ok, "; ".join(detail))


def test_criterion_03_integrated_gradient():
    model = sinusoidal2d()
    ig_a = driven(model, integrated_gradient)(X_T, (0.0, 0.0), 100, FINE_GRAD)
    ig_b = driven(model, integrated_gradient)(X_T, (0.0, 1.0), 100, FINE_GRAD)
    ok = np.max(np.abs(ig_a - [-2.0, 0.0])) <= 1e-3
    ok = ok and np.max(np.abs(ig_b - [-2 / 3, 8 / 3])) <= 1e-3

    rng = np.random.default_rng(20240803)
    worst_analytic = worst_numeric = 0.0
    checked = 0
    while checked < 1000:
        x_t = rng.uniform(-0.4, 0.4, 2)
        x_0 = rng.uniform(-0.4, 0.4, 2)
        d = x_t - x_0
        if abs(d[0] + d[1]) < 1e-6 or abs(d[0] - d[1]) < 1e-6:
            continue
        increment = surface(x_t) - surface(x_0)
        worst_analytic = max(worst_analytic,
                             abs(oracle_ig(x_t, x_0).sum() - increment))
        num = driven(model, integrated_gradient)(x_t, x_0, 100, FINE_GRAD)
        worst_numeric = max(worst_numeric, abs(num.sum() - increment))
        checked += 1
    ok = ok and worst_analytic <= 1e-12 and worst_numeric <= 1e-3
    _report(3, "path integral matches closed forms and the sum rule",
            ok, f"analytic={worst_analytic:.2e} numeric={worst_numeric:.2e}")


def test_criterion_04_local_surrogate_gradient():
    cfg = LimeConfig(n_samples=1000, sampling_std=1e-3, l1_strength=0.0, seed=0)
    beta = driven(sinusoidal2d(), lime0)(X_T, cfg)
    err = np.max(np.abs(beta - [-2 * np.pi, 0.0]))
    _report(4, "l1-free local surrogate recovers the analytic gradient (1e-2)",
            err <= 1e-2, f"err={err:.2e}")


def test_criterion_05_target_shift_invariance(monkeypatch):
    # no coalition enumeration: sv takes the permutation sampler
    monkeypatch.setattr(baselines, "_EXACT_SV_BUDGET", 0)
    model = sinusoidal2d()
    ref = periodic_lattice()
    lime_cfg = LimeConfig(n_samples=400, sampling_std=0.3, l1_strength=0.01, seed=5)

    def runs(y_t):
        return {
            "lime": driven(model, lime)(X_T, y_t, lime_cfg),
            "lime0": driven(model, lime0)(X_T, lime_cfg),
            "ig": driven(model, integrated_gradient)(X_T, (0.0, 0.0), 100, FINE_GRAD),
            "eig": driven(model, expected_integrated_gradient)(X_T, ref, 100, FINE_GRAD),
            "sv": driven(model, shapley_sampled)(X_T, ref, n_configs=100, seed=5),
            "zscore": z_score(X_T, ref),
            "baylime-mean": driven(model, baylime_distributions)(X_T, y_t, lime_cfg,
                                                                 0.1, 1.0).means,
        }

    base = runs(0.25)
    ok = True
    failures = []
    for shift in (1.0, -1.0, 10.0, -10.0):
        shifted = runs(0.25 + shift)
        for name in base:
            if not np.array_equal(base[name], shifted[name]):
                ok = False
                failures.append(f"{name}@{shift:+}")
    gap = abs(_gpa_delta(POINT_A)[0] - _gpa_delta(POINT_C)[0])
    ok = ok and gap >= 0.15
    _report(5, "comparison methods ignore the target bit-for-bit; the "
               "counterfactual shift does not",
            ok, f"gap={gap:.4f} failures={failures}")


def test_criterion_06_sum_rules_and_additive_equivalence():
    model = quadratic_model([1.0, -0.7, 2.0])
    rng = np.random.default_rng(11)
    ref = ReferenceSet(rng.uniform(-1.0, 1.0, size=(5, 3)))
    x_t = np.array([0.8, -0.5, 1.2])
    target = model.evaluate(x_t) - float(
        ref.effective_weights @ model.evaluate_batch(ref.samples)
    )
    sv = driven(model, shapley_sampled)(x_t, ref)
    eig = driven(model, expected_integrated_gradient)(x_t, ref, 100, FINE_GRAD)
    sv_sum = abs(sv.sum() - target)
    eig_sum = abs(eig.sum() - target)
    coord_gap = np.max(np.abs(sv - eig))
    ok = sv_sum <= 1e-8 and eig_sum <= 1e-8 and coord_gap <= 1e-6
    _report(6, "exact coalition values and averaged path integrals share the "
               "sum rule and agree per coordinate on an additive quadratic",
            ok, f"sv_sum={sv_sum:.2e} eig_sum={eig_sum:.2e} coord={coord_gap:.2e}")


def test_criterion_07_surrogate_is_path_integral_derivative():
    # central finite difference of the analytic path integral in x_i^t, at
    # baseline distance 1e-3, against the sampled local surrogate slope
    rng = np.random.default_rng(987)
    model = sinusoidal2d()
    eps = 1e-6
    worst = 0.0
    checked = 0
    while checked < 20:
        x_t = rng.uniform(-0.8, 0.8, 2)
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        x_0 = x_t - 1e-3 * direction
        d = x_t - x_0
        if abs(d[0] + d[1]) < 2e-5 or abs(d[0] - d[1]) < 2e-5:
            continue
        # tight surrogate cloud: its own error must stay far below the
        # O(|x_t - x_0|) truncation the tolerance budgets for
        cfg = LimeConfig(n_samples=4000, sampling_std=1e-4, l1_strength=0.0,
                         seed=checked)
        beta = driven(model, lime0)(x_t, cfg)
        for i in range(2):
            hi = x_t.copy()
            hi[i] += eps
            lo = x_t.copy()
            lo[i] -= eps
            deriv = (oracle_ig(hi, x_0)[i] - oracle_ig(lo, x_0)[i]) / (2 * eps)
            worst = max(worst, abs(deriv - beta[i]))
        checked += 1
    _report(7, "the surrogate slope is the path integral's derivative in the "
               "local-baseline limit (1e-2 at 20 points)",
            worst <= 1e-2, f"worst={worst:.3e}")


def test_criterion_08_bayesian_surrogate_variance_is_trivial():
    model = sinusoidal2d()
    cfg = LimeConfig(n_samples=10, sampling_std=0.3, l1_strength=0.0, seed=1)
    res = driven(model, baylime_distributions)(X_T, 1.0, cfg, prior_eta=0.1, noise_lambda=1.0)
    expected = 1.0 / (0.1 + 1.0 * 10)
    err = abs(res.variance - expected)
    # one variance, shared by every variable's posterior
    same_for_all = isinstance(res.variance, float) and res.means.shape == (2,)
    ok = err <= 1e-10 and same_for_all
    _report(8, "Bayesian surrogate posterior variance is the constant "
               "1/(eta + lambda n) for every variable",
            ok, f"err={err:.2e}")


def test_criterion_09_distribution_properties():
    # normalization + mode on the sinusoidal point A
    model = sinusoidal2d()
    ts = single_point(X_T, POINT_A)
    res = driven(model, map_estimate)(ts, ORACLE_HP, FINE_GRAD)
    grid, probs = driven(model, score_distributions)(res.delta_star, ts, ORACLE_HP,
                                                     res.rates, FINE_GRAD, 100)
    sums_ok = all(abs(row.sum() - 1.0) <= 1e-10 for row in probs)
    step = grid[1] - grid[0]
    mode = grid[np.argmax(probs[0])]
    mode_ok = abs(mode - res.delta_star[0]) <= step + 1e-12

    # ignored variable on a linear model: exact prior slice
    lin = linear_model([1.5, 0.0])
    ts2 = single_point([0.3, -0.2], 2.0, ("a", "b"))
    hp = GpaHyperParams(eta=0.1, nu=0.5, a0=1.0, c_b=10.0, tol=1e-8)
    res2 = driven(lin, map_estimate)(ts2, hp, FINE_GRAD)
    grid, probs2 = driven(lin, score_distributions)(res2.delta_star, ts2, hp, res2.rates,
                                                    FINE_GRAD, 100)
    prior = np.exp(-0.5 * hp.eta * grid**2 - hp.eta * hp.nu * np.abs(grid))
    prior /= prior.sum()
    prior_gap = np.max(np.abs(probs2[1] - prior))
    ok = sums_ok and mode_ok and prior_gap <= 1e-8
    _report(9, "posterior slices normalize, peak at the MAP point, and reduce "
               "to the prior for ignored variables",
            ok, f"mode_gap={abs(mode - res.delta_star[0]):.2e} prior={prior_gap:.2e}")


def test_criterion_10_gradient_estimator():
    from anomattr import estimate_gradient

    coef = np.array([3.0, -1.0, 0.25])
    lin = linear_model(coef)
    worst_linear = 0.0
    for seed in (0, 7, 123):
        cfg = GradientEstimatorConfig(perturbation_std=1.0, mc_samples=10, seed=seed)
        grad = driven(lin, estimate_gradient)([0.4, -2.0, 7.0], cfg)
        worst_linear = max(worst_linear, float(np.max(np.abs(grad - coef))))
    quad = quadratic_model([1.0])
    cfg = GradientEstimatorConfig(perturbation_std=1.0, mc_samples=100_000, seed=3)
    est = driven(quad, estimate_gradient)([2.0], cfg)[0]
    stderr = 1.0 / np.sqrt(cfg.mc_samples)  # slope spread is c*h with c=1
    quad_ok = abs(est - 4.0) <= max(3 * stderr, 1e-9)
    ok = worst_linear <= 1e-12 and quad_ok
    _report(10, "slope estimator is exact on linear models and unbiased on "
                "the quadratic (3 standard errors)",
            ok, f"linear={worst_linear:.2e} quad={abs(est - 4.0):.2e}")


def test_criterion_11_consistency_metric_examples():
    checks = [
        sign_match_ratio(np.zeros(3), np.array([1.0, -2.0, 3.0])) == 1.0,
        sign_match_ratio([1, -1, 0], [2, -3, 5]) == 1.0,
        sign_match_ratio([1, 1], [-1, 1]) == 0.5,
        kendall_tau([1, 2, 3], [4, 5, 6]) == 1.0,
        kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0,
        abs(kendall_tau([1, 2, 3], [1, 3, 2]) - 1 / 3) < 1e-12,
        spearman_rho([1, 2, 3], [10, 20, 30]) == 1.0,
        spearman_rho([1, 2, 3], [3, 2, 1]) == -1.0,
        abs(spearman_rho([1, 2, 3], [1, 3, 2]) - 0.5) < 1e-12,
        hit_ratio_25(np.arange(8.0), np.arange(8.0)) == 1.0,
    ]
    _report(11, "all worked metric examples hold exactly", all(checks),
            f"failed={[(i, bool(c)) for i, c in enumerate(checks) if not c]}")


def test_criterion_12_desk_scale_substitute(tmp_path):
    # full-dataset replication on the original trained models is declared out
    # of reach at desk scale; the substitute below runs the compare workflow
    # on the sinusoidal suite instead
    data = tmp_path / "data.csv"
    data.write_text("x1,x2,y\n0.5,0.0,1.0\n0.5,0.0,0.0\n0.5,0.0,-1.0\n")
    flags = ["--eta", "0.001", "--nu", "0.001", "--kappa", "0.1", "--a0", "1",
             "--b0", "10", "--tol", "1e-8", "--grad-std", "0.001"]
    ok = True
    detail = []
    for label, index in (("A", 0), ("B", 2)):
        out = tmp_path / f"out_{label}"
        code = cli_main([
            "compare", "--data", str(data), "--model", "sinusoidal2d",
            "--methods", "gpa,lc,lime", "--point-index", str(index),
            "--out", str(out), *flags,
        ])
        doc = strict_json((out / "compare.json").read_text())
        rep = doc["reports"]["lc"]
        lc_ok = (code == 0
                 and abs(rep["kendall_tau"] - 1.0) <= 1e-12
                 and abs(rep["spearman_rho"] - 1.0) <= 1e-12
                 and rep["smr"] == 1.0 and rep["hit25"] == 1.0)
        ok = ok and lc_ok
        detail.append(f"{label}: lc={rep}")
        if label == "B":
            smr = doc["reports"]["lime"]["smr"]
            ok = ok and smr <= 0.5
            detail.append(f"B: lime smr={smr}")
    _report(12, "desk-scale substitute: compare workflow gives full agreement "
                "with the Gaussian-loss shift and opposing signs vs the "
                "surrogate at point B",
            ok, " | ".join(detail))
