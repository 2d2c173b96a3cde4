"""Anomaly scores (negative log-likelihoods in nats) of residuals and
consistency metrics between attribution vectors.

Pure numpy: no function here queries a model.  A caller computes the
residuals ``y - f(x)`` in one batch and scores them here."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

import numpy as np

__all__ = [
    "MetricUndefinedError",
    "ConsistencyReport",
    "anomaly_score",
    "collective_anomaly_score",
    "kendall_tau",
    "spearman_rho",
    "sign_match_ratio",
    "hit_ratio_25",
    "consistency_report",
]


class MetricUndefinedError(ValueError):
    """Rank correlation is undefined (a constant input vector)."""


def anomaly_score(resid, noise_variance: float):
    """Gaussian plug-in negative log-likelihood of the residuals ``resid = y
    - f(x)``, in nats: 0.5 ln(2 pi v) + resid^2 / (2 v), a float for one
    residual and an array for an array.  A score that overflows raises
    ValueError naming its residual."""
    if not 0 < noise_variance < np.inf:
        raise ValueError("noise_variance must be positive and finite")
    resid = np.asarray(resid, dtype=float)
    with np.errstate(over="ignore"):
        value = (0.5 * np.log(2.0 * np.pi * noise_variance)
                 + np.square(resid) / (2.0 * noise_variance))
    over = resid[~np.isfinite(value)]
    if over.size:
        raise ValueError(f"anomaly score is not finite: the residual {over[0]:.3g} or "
                         "its square overflows the float range; rescale the targets")
    return float(value) if value.ndim == 0 else value


def collective_anomaly_score(resid, noise_variance: float) -> float:
    """Mean of the per-sample scores of the residuals ``resid``."""
    if np.size(resid) == 0:
        raise ValueError("resid must be nonempty")
    return float(np.mean(anomaly_score(resid, noise_variance)))


def _abs_pair(a, b):
    a = np.abs(np.asarray(a, dtype=float))
    b = np.abs(np.asarray(b, dtype=float))
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d vectors of equal length")
    if a.shape[0] < 2:
        raise ValueError("need at least two entries")
    for name, v in (("first", a), ("second", b)):
        if np.all(v == v[0]):
            raise MetricUndefinedError(
                f"{name} vector is constant in absolute value; rank "
                "correlation is undefined"
            )
    return a, b


def kendall_tau(a, b) -> float:
    """Tie-corrected (tau-b) rank correlation of the absolute values:
    ``sum_ij sa_ij sb_ij / sqrt(sum_ij sa_ij^2 * sum_ij sb_ij^2)`` with
    ``sa_ij = sign(|a_i| - |a_j|)`` and ``sb`` likewise, two m x m matrices:
    O(m^2) time and memory."""
    sa, sb = (np.sign(np.subtract.outer(v, v)) for v in _abs_pair(a, b))
    return float(np.sum(sa * sb) / np.sqrt(np.sum(sa * sa) * np.sum(sb * sb)))


def spearman_rho(a, b) -> float:
    """Spearman rank correlation of the absolute values: the Pearson
    correlation of their average ranks, the rank of ``|a_i|`` being the
    number of smaller entries plus half the number of equal ones, ``(m +
    sum_j sa_ij) / 2`` with ``sa`` as in :func:`kendall_tau`.  The row sums
    have mean 0, so rho is their cosine: O(m^2) time and memory."""
    ra, rb = (np.sign(np.subtract.outer(v, v)).sum(axis=1) for v in _abs_pair(a, b))
    return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))


def sign_match_ratio(reference, candidate) -> float:
    """1 - (fraction of coordinates whose signs strictly oppose), with
    sign(0) = 0, so zero entries never penalize.  An all-zero reference
    scores 1 regardless of the candidate."""
    r = np.sign(np.asarray(reference, dtype=float))
    u = np.sign(np.asarray(candidate, dtype=float))
    if r.shape != u.shape or r.ndim != 1 or r.shape[0] < 1:
        raise ValueError("inputs must be 1-d vectors of equal length")
    return float(1.0 - np.mean(r * u == -1.0))


def _top_quarter(v: np.ndarray) -> set[int]:
    k = ceil(len(v) / 4)
    # stable sort on -|v|: ties resolve to the lower index
    order = np.argsort(-np.abs(v), kind="stable")
    return set(int(i) for i in order[:k])


def hit_ratio_25(reference, candidate) -> float:
    """Overlap of the top-25% absolute entries (set size ceil(M/4), ties
    broken toward lower indices)."""
    r = np.asarray(reference, dtype=float)
    u = np.asarray(candidate, dtype=float)
    if r.shape != u.shape or r.ndim != 1 or r.shape[0] < 1:
        raise ValueError("inputs must be 1-d vectors of equal length")
    top_r = _top_quarter(r)
    top_u = _top_quarter(u)
    return len(top_r & top_u) / len(top_r)


@dataclass
class ConsistencyReport:
    """Four-way consistency of a candidate attribution against a reference.
    Rank correlations are None when undefined; ``notes`` says why."""

    kendall_tau: float | None
    spearman_rho: float | None
    smr: float
    hit25: float
    notes: dict[str, str] = field(default_factory=dict)


def consistency_report(reference, candidate) -> ConsistencyReport:
    ranks: dict[str, float | None] = {}
    notes: dict[str, str] = {}
    for name, metric in (("kendall_tau", kendall_tau), ("spearman_rho", spearman_rho)):
        try:
            ranks[name] = metric(reference, candidate)
        except MetricUndefinedError as exc:
            ranks[name] = None
            notes[name] = str(exc)
    return ConsistencyReport(
        **ranks,
        smr=sign_match_ratio(reference, candidate),
        hit25=hit_ratio_25(reference, candidate),
        notes=notes,
    )
