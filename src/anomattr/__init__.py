"""Probabilistic anomaly attribution for black-box regression models.

Given query access to a model f and one or more anomalous samples (x, y),
this package computes per-variable responsibility scores as full probability
distributions (counterfactual-perturbation posteriors), alongside seven
comparison methods and closed-form benchmarks on a 2-variable sinusoidal
model.
"""

from .baselines import (
    BaylimeResult,
    LimeConfig,
    ReferenceSet,
    baylime_distributions,
    expected_integrated_gradient,
    integrated_gradient,
    lc,
    lime,
    lime0,
    shapley_sampled,
    z_score,
)
from .dataio import (
    Standardization,
    TestSet,
    delta_to_raw_units,
    emit_distribution_svg,
    emit_litmus_svg,
    emit_result_json,
    load_csv,
    standardize,
)
from .gpa import (
    AttributionResult,
    DivergenceError,
    GpaHyperParams,
    init_gamma_rate,
    map_estimate,
    refine_gamma_rate,
    score_distributions,
)
from .metrics import (
    ConsistencyReport,
    anomaly_score,
    collective_anomaly_score,
    consistency_report,
    hit_ratio_25,
    kendall_tau,
    sign_match_ratio,
    spearman_rho,
)
from .models import (
    BuiltinModel,
    CallableModel,
    GradientEstimatorConfig,
    HttpModel,
    Lockstep,
    ModelHandle,
    NonFiniteModelOutput,
    SubprocessModel,
    TransportError,
    drive,
    estimate_gradient,
    linear_model,
    quadratic_model,
    sinusoidal2d,
)
from .oracle import OracleDomainError, oracle_gpa, oracle_ig, oracle_lime0, oracle_sv

__version__ = "0.1.0"
