"""Distribution-free anomaly decisions for scored edges.

A nonconformity score ranks a test edge against scores from a held-out
calibration split. A single uniform draw smooths rank ties, which makes the
resulting p-value exactly uniform whenever the pooled scores are
exchangeable; thresholding the p-value at epsilon then keeps the false
positive rate at or below epsilon regardless of the score function.

Two counting orientations are supported. "power-corrected" counts pooled
scores strictly above the test score, so large scores (unlikely edges) get
small p-values. "paper" counts scores strictly below, the mirror image.
Both are valid under exchangeability; power-corrected is the default
because anomalies are flagged when the p-value is small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adnd import FittedModel, predictive_log_likelihood
from .graph_core import Edge, EdgeCorpus

__all__ = [
    "ORIENTATIONS",
    "CalibrationScores",
    "Verdicts",
    "nonconformity_score",
    "calibration_scores",
    "conformal_p_values",
    "full_conformal_p_values",
    "detect_corpus",
]

ORIENTATIONS = ("power-corrected", "paper")


def _check_orientation(orientation: str) -> None:
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")


@dataclass(frozen=True)
class CalibrationScores:
    """Held-out nonconformity scores, all finite."""

    scores: np.ndarray

    def __post_init__(self):
        scores = np.array(self.scores, dtype=float)
        if scores.ndim != 1:
            raise ValueError("calibration scores must form a vector")
        if not np.all(np.isfinite(scores)):
            raise ValueError("calibration scores must be finite")
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    @property
    def size(self) -> int:
        return int(self.scores.size)


@dataclass(frozen=True, eq=False)
class Verdicts:
    """Detection outcomes of a run of test edges, one entry per edge.

    The three vectors are read-only and share one length; u_draws keeps the
    smoothing draws for audit. An edge is flagged when its p-value is at most
    epsilon, and `flagged` derives that from the stored fields.
    """

    scores: np.ndarray
    p_values: np.ndarray
    u_draws: np.ndarray
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        names = ("scores", "p_values", "u_draws")
        arrays = [np.array(getattr(self, name), dtype=float) for name in names]
        if any(a.ndim != 1 or a.size != arrays[0].size for a in arrays):
            raise ValueError("scores, p_values and u_draws must be equal-length vectors")
        if not np.all((arrays[1] >= 0.0) & (arrays[1] <= 1.0)):
            raise ValueError("p_values must lie in [0, 1]")
        for name, a in zip(names, arrays):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def flagged(self) -> np.ndarray:
        return self.p_values <= self.epsilon


def nonconformity_score(model: FittedModel, edge: Edge) -> float:
    """Negated holdout log likelihood: larger means less model-conforming."""
    return -predictive_log_likelihood(model, edge)


def calibration_scores(model: FittedModel, corpus: EdgeCorpus) -> CalibrationScores:
    """Score every calibration edge through the one scalar scoring path."""
    return CalibrationScores(
        np.array([nonconformity_score(model, edge) for edge in corpus])
    )


def _calibration_array(calib) -> np.ndarray:
    scores = np.asarray(getattr(calib, "scores", calib), dtype=float)
    if scores.size == 0:
        raise ValueError("calibration set must not be empty")
    if not np.all(np.isfinite(scores)):
        raise ValueError("calibration scores must be finite")
    return scores


# The least positive value numpy's uniform draws (k * 2**-53 for integer k).
# A smaller smoothing draw can round a p-value down to 0.0, outside (0, 1].
_U_MIN = 2.0**-53


def _check_u(u_draws) -> np.ndarray:
    """The smoothing draws as an array; each must lie in [_U_MIN, 1)."""
    u_draws = np.asarray(u_draws, dtype=float)
    if not np.all((u_draws >= _U_MIN) & (u_draws < 1.0)):
        raise ValueError("u draws must lie in [2**-53, 1)")
    return u_draws


def _counts(scores: np.ndarray, values: np.ndarray, orientation: str):
    """(strict, ties) counts of scores against each value, by binary search.

    strict counts scores above the value for "power-corrected" and below it
    for "paper"; ties counts scores equal to it.
    """
    _check_orientation(orientation)
    ordered = np.sort(scores)
    left = np.searchsorted(ordered, values, side="left")
    right = np.searchsorted(ordered, values, side="right")
    strict = left if orientation == "paper" else scores.size - right
    return strict, right - left


def conformal_p_values(
    test_scores, calib, u_draws, orientation: str = "power-corrected"
) -> np.ndarray:
    """Smoothed p-value of each test score against a calibration set.

    The pooled comparison set for a test score is the n calibration scores
    plus the test score itself, so the result is
    (strict + u * (ties + 1)) / (n + 1), where ties counts calibration
    scores equal to the test score and strict counts those strictly above
    it for "power-corrected" and strictly below it for "paper". Each u must
    lie in [2**-53, 1), which holds every positive draw of numpy's uniform.
    Counts come from binary search on the sorted calibration scores, so
    non-finite calibration and test scores, on which a sorted search and a
    direct count would disagree, are rejected.
    """
    scores = _calibration_array(calib)
    test_scores = np.asarray(test_scores, dtype=float)
    if not np.all(np.isfinite(test_scores)):
        raise ValueError("test scores must be finite")
    u_draws = _check_u(u_draws)
    if u_draws.shape != test_scores.shape:
        raise ValueError("u_draws must match test_scores in shape")
    strict, ties = _counts(scores, test_scores, orientation)
    return (strict + u_draws * (ties + 1)) / (scores.size + 1)


def full_conformal_p_values(
    scores, u_draws, orientation: str = "power-corrected"
) -> np.ndarray:
    """Smoothed p-value of every score against the whole set it sits in.

    Each entry is compared with all entries including itself, so the tie
    count is at least one and the divisor is the set size. Counts come from
    binary search on the sorted scores, so NaN scores are rejected.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size < 2:
        raise ValueError("need at least two scores")
    if np.any(np.isnan(scores)):
        raise ValueError("scores must not be NaN")
    u_draws = _check_u(u_draws)
    if u_draws.shape != scores.shape:
        raise ValueError("u_draws must match scores in shape")
    strict, ties = _counts(scores, scores, orientation)
    return (strict + u_draws * ties) / scores.size


def _positive_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform draws from the open interval (0, 1); redraw the measure-zero 0."""
    u = rng.uniform(size=size)
    while np.any(u == 0.0):
        u[u == 0.0] = rng.uniform(size=int(np.count_nonzero(u == 0.0)))
    return u


def detect_corpus(
    model: FittedModel,
    calib,
    corpus: EdgeCorpus,
    epsilon: float,
    seed: int,
    orientation: str = "power-corrected",
) -> Verdicts:
    """Detect over a whole corpus with one smoothing draw per edge, in
    corpus order."""
    scores = np.array([nonconformity_score(model, edge) for edge in corpus])
    u_draws = _positive_uniform(np.random.default_rng(seed), size=scores.size)
    p_values = conformal_p_values(scores, calib, u_draws, orientation)
    return Verdicts(scores, p_values, u_draws, epsilon)
