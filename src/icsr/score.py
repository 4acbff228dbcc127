"""Candidate scoring: normalized error, penalized fitness, and R-squared."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .validate import real


@dataclass(frozen=True)
class ScoreConfig:
    """Knobs for fitness and trimming.

    lam weights the complexity reward, max_len is the soft length scale
    the reward decays over, and trim_fraction is the share of worst
    predictions dropped by the trimmed R-squared used in evaluation.
    """

    lam: float = 0.05
    max_len: float = 30.0
    trim_fraction: float = 0.05

    def __post_init__(self):
        real(self, "lam", lambda v: v >= 0, "a finite number >= 0")
        real(self, "max_len", lambda v: v > 0, "a finite number > 0")
        real(self, "trim_fraction", lambda v: 0 <= v < 1, "a number in [0, 1)")


@dataclass(frozen=True)
class Scores:
    """Everything the engine records about one scored candidate."""

    nmse: float
    fitness: float
    error: float
    r2_train: float
    complexity: int


@np.errstate(over="ignore")  # a finite miss whose square overflows is inf
def nmse(predictions, targets, eps: float = 1e-9) -> float:
    """Squared error normalized by the target's raw power term.

    sum((y - yhat)^2) / (sum(y^2) + eps), where eps keeps it finite for
    all-zero targets.  Predictions must be finite;
    undefined predictions are the caller's problem (the fitter rejects
    them before scoring).
    """
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ValueError("prediction/target shape mismatch")
    if not np.all(np.isfinite(predictions)):
        raise ValueError("nmse over non-finite predictions")
    num = float(np.sum((targets - predictions) ** 2))
    den = float(np.sum(targets ** 2)) + eps
    return num / den


def fitness(nmse_value: float, complexity: int, config: ScoreConfig = ScoreConfig()) -> tuple[float, float]:
    """Return (fitness, error) for a candidate.

    fitness r = 1/(1 + nmse) + lam * exp(-complexity / max_len); the
    engine minimizes error = 1/r.  With lam > 0 the fitness is strictly
    positive, so the reciprocal is always defined.
    """
    if nmse_value < 0:
        raise ValueError("nmse cannot be negative")
    r = 1.0 / (1.0 + nmse_value) + config.lam * math.exp(-complexity / config.max_len)
    return r, 1.0 / r


@np.errstate(over="ignore")
def r_squared(predictions, targets) -> float:
    """Coefficient of determination, untrimmed.

    Degenerate constant targets give 1.0 on an exact match and -inf
    otherwise; callers treat -inf as "arbitrarily bad", which is the
    honest reading of a miss against a constant.
    """
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.ndim != 1:
        raise ValueError("prediction/target shape mismatch")
    ss_res = float(np.sum((targets - predictions) ** 2))
    ss_tot = float(np.sum((targets - np.mean(targets)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else float("-inf")
    return 1.0 - ss_res / ss_tot


@np.errstate(over="ignore")
def r_squared_trimmed(predictions, targets, trim_fraction: float = 0.05) -> float:
    """R-squared after dropping the floor(trim_fraction * n) predictions
    with the largest squared error.  The target mean is recomputed on the
    surviving points.  trim_fraction = 0 reduces to r_squared."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.ndim != 1:
        raise ValueError("prediction/target shape mismatch")
    if not 0 <= trim_fraction < 1:
        raise ValueError("trim_fraction must be in [0, 1)")
    n = targets.shape[0]
    k = math.floor(trim_fraction * n)
    if k == 0:
        return r_squared(predictions, targets)
    sq_err = (targets - predictions) ** 2
    order = np.argsort(sq_err, kind="stable")
    keep = order[: n - k]
    return r_squared(predictions[keep], targets[keep])
