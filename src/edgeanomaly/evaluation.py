"""Ranking metrics, ROC curves, p-value diagnostics, and a false positive
rate simulation harness for the full detection pipeline."""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .adnd import HyperParams, TruncationLevels, fit, sample_edges
from .conformal import calibration_scores, conformal_p_values, nonconformity_score, _positive_uniform
from .graph_core import _split_by_count, write_rows

__all__ = [
    "LabeledScores",
    "FprPoint",
    "precision_recall_at_k",
    "roc_points",
    "auc",
    "ks_uniformity",
    "fpr_simulation",
    "trial_workers",
    "write_curve_csv",
    "write_fpr_csv",
]


@dataclass(frozen=True)
class LabeledScores:
    """Scores with ground truth, where lower score means more anomalous."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.array(self.scores, dtype=float)
        labels = np.array(self.labels, dtype=bool)
        if scores.ndim != 1 or scores.shape != labels.shape:
            raise ValueError("scores and labels must be equal-length vectors")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        scores.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return int(self.scores.size)

    @property
    def num_anomalies(self) -> int:
        return int(self.labels.sum())


@dataclass(frozen=True)
class FprPoint:
    """Empirical false positive rate at one threshold epsilon."""

    epsilon: float
    fpr: float
    stderr: float
    n_test: int


def precision_recall_at_k(labeled: LabeledScores):
    """Precision and recall of the k lowest scores, for every k.

    Scores sort ascending with a stable sort, so tied scores keep input
    order. Returns the arrays (ks, precision, recall) for k = 1..n. Requires
    at least one ground-truth anomaly, because recall divides by the anomaly
    count.
    """
    total_anomalies = labeled.num_anomalies
    if total_anomalies == 0:
        raise ValueError("no ground-truth anomalies, recall is undefined")
    order = np.argsort(labeled.scores, kind="stable")
    hits = np.cumsum(labeled.labels[order])
    ks = np.arange(1, labeled.n + 1)
    return ks, hits / ks, hits / total_anomalies


def roc_points(labeled: LabeledScores):
    """ROC curve of the rule "flag when score <= threshold", as (fpr, tpr).

    The threshold sweeps the distinct score values in ascending order; an
    anchor at (0, 0) is prepended and the final point is always (1, 1).
    Needs both classes present.
    """
    positives = labeled.num_anomalies
    negatives = labeled.n - positives
    if positives == 0 or negatives == 0:
        raise ValueError("roc needs at least one anomaly and one normal entry")
    order = np.argsort(labeled.scores, kind="stable")
    sorted_scores = labeled.scores[order]
    sorted_labels = labeled.labels[order]
    # Last index of each run of equal scores marks one threshold.
    boundaries = np.append(np.nonzero(np.diff(sorted_scores))[0], labeled.n - 1)
    cum_pos = np.cumsum(sorted_labels)[boundaries]
    cum_neg = np.cumsum(~sorted_labels)[boundaries]
    return (
        np.concatenate(([0.0], cum_neg / negatives)),
        np.concatenate(([0.0], cum_pos / positives)),
    )


def auc(xs, ys) -> float:
    """Trapezoid area under the curve through the points (xs[i], ys[i]).

    The points must lie in the unit square and be sorted by x. With ROC
    input this equals the probability that a random anomaly scores below a
    random normal entry, counting ties as one half.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("curve x and y must be equal-length vectors")
    if xs.size < 2:
        raise ValueError("need at least two curve points")
    if not np.all((xs >= 0.0) & (xs <= 1.0) & (ys >= 0.0) & (ys <= 1.0)):
        raise ValueError("curve points must lie in the unit square")
    if np.any(np.diff(xs) < 0.0):
        raise ValueError("curve points must be sorted by x")
    return float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0))


def ks_uniformity(p_values) -> float:
    """Largest deviation between sorted p-values and the uniform grid.

    Computes max_i |p_(i) - i/n| with p_(i) the ascending order statistics.
    Uniform samples keep this near 1/sqrt(n); a constant vector at 1.0
    scores 1 - 1/n.
    """
    values = np.sort(np.asarray(p_values, dtype=float))
    if values.size == 0:
        raise ValueError("need at least one p-value")
    grid = np.arange(1, values.size + 1) / values.size
    return float(np.max(np.abs(values - grid)))


def fpr_simulation(
    hyper: HyperParams,
    trunc: TruncationLevels,
    num_nodes: int,
    n_train: int,
    n_calib: int,
    n_test: int,
    epsilons,
    trials: int,
    seed: int,
    orientation: str = "power-corrected",
    *,
    max_sweeps: int = 200,
    rel_tol: float = 1e-5,
) -> list[FprPoint]:
    """Monte Carlo false positive rate of the whole pipeline on null data.

    Each trial draws one exchangeable corpus of n_train + n_calib + n_test
    edges from a single parameter draw, splits the leading block into train
    and calibration, fits, and computes one smoothed p-value per held-out
    test edge. Every test edge is null by construction, so the fraction
    flagged at threshold epsilon estimates the false positive rate, which
    exchangeability bounds by epsilon.

    Each trial is seeded from its own child of `SeedSequence(seed)` and
    yields only integer counts, which are summed in trial order, so a rerun
    with the same seed reproduces the same numbers exactly. The trials run
    in `trial_workers(trials)` processes; at a fixed BLAS thread count the
    result is bit-identical to running them one after another here.

    `stderr` is the binomial formula over all trials x n_test edges, as if
    every edge were an independent draw. The edges of one trial share its
    model and calibration set, but at README sizes (363 training, 363
    calibration and 40 test edges over 30 nodes) the trial-clustered
    standard error, the standard deviation of the per-trial rates over
    sqrt(trials), measured 1.00-1.10 times `stderr` over 600 trials. At
    those sizes, seed 43 reads 0.123 at epsilon 0.1 over 50 trials, about
    3.3 clustered standard errors above epsilon: `fpr <= epsilon + 3 stderr`
    fails for some seeds by chance.
    """
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ValueError("need at least one epsilon")
    if any(not 0.0 < e < 1.0 for e in epsilons):
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if n_train < 1 or n_calib < 1 or n_test < 1:
        raise ValueError("n_train, n_calib, and n_test must be positive")

    run_trial = partial(
        _fpr_trial, hyper, trunc, num_nodes, n_train, n_calib, n_test, epsilons,
        orientation, max_sweeps, rel_tol,
    )
    trial_seqs = np.random.SeedSequence(seed).spawn(trials)
    workers = trial_workers(trials)
    if workers == 1:
        results = list(map(run_trial, trial_seqs))
    else:
        # fork, not spawn: spawn re-imports numpy and scipy in every worker,
        # which costs more than a short simulation, and forked children
        # inherit the loaded BLAS with its thread count, so each trial
        # computes the same bits as here
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            # one trial per task: trial times vary by about 2x
            results = list(pool.map(run_trial, trial_seqs, chunksize=1))

    flagged = [sum(counts[i] for counts, _ in results) for i in range(len(epsilons))]
    total = sum(n for _, n in results)
    points = []
    for e, hits in zip(epsilons, flagged):
        rate = hits / total
        stderr = float(np.sqrt(rate * (1.0 - rate) / total))
        points.append(FprPoint(epsilon=e, fpr=rate, stderr=stderr, n_test=total))
    return points


# The pipeline steps _fpr_trial calls, as this module was loaded with them.
_TRIAL_STEPS = {
    "sample_edges": sample_edges,
    "fit": fit,
    "calibration_scores": calibration_scores,
    "nonconformity_score": nonconformity_score,
    "conformal_p_values": conformal_p_values,
}


def trial_workers(trials: int) -> int:
    """Processes that fpr_simulation runs `trials` trials in.

    On Linux that is one per usable CPU, at most one per trial. It is 1, so
    the trials run in the calling process, on other platforms, inside a
    daemonic multiprocessing worker, which may not start children, and when
    a caller has replaced one of the pipeline steps a trial calls through
    this module (a tracer, a test's spy): what the replacement records must
    land in the caller, not in a worker's copy that exits with the worker.
    """
    names = globals()
    if sys.platform != "linux" or any(names[n] is not f for n, f in _TRIAL_STEPS.items()):
        return 1
    workers = min(trials, len(os.sched_getaffinity(0)))
    # a daemonic worker was started by multiprocessing, so it has the module
    # loaded; checking sys.modules keeps the import out of every other caller
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    return workers


def _fpr_trial(hyper, trunc, num_nodes, n_train, n_calib, n_test, epsilons,
               orientation, max_sweeps, rel_tol, trial_seq):
    """One fpr_simulation trial: (test edges flagged at each epsilon, n_test).

    Calls the pipeline through this module's names, so a caller that
    replaces one of them here (a tracer, a test) sees the trial's calls;
    trial_workers then keeps the trials in the caller's process.
    """
    n_pool = n_train + n_calib
    sample_seed, split_seed, fit_seed, u_seed = trial_seq.spawn(4)
    corpus = sample_edges(hyper, trunc, num_nodes, n_pool + n_test, sample_seed)
    pool = corpus.subset(slice(None, n_pool))
    test = corpus.subset(slice(n_pool, None))
    train, calib = _split_by_count(pool, n_calib, split_seed)
    model = fit(
        train, hyper, trunc, max_sweeps=max_sweeps, rel_tol=rel_tol, seed=fit_seed
    )
    calib_set = calibration_scores(model, calib)
    # Edge by edge through this module's name, not score_edges: _TRIAL_STEPS
    # holds it, so a replacement here (a tracer, a test) sees every test edge.
    test_scores = np.array([nonconformity_score(model, edge) for edge in test])
    u_draws = _positive_uniform(np.random.default_rng(u_seed), size=test_scores.size)
    p_values = conformal_p_values(test_scores, calib_set, u_draws, orientation)
    return [int(np.count_nonzero(p_values <= e)) for e in epsilons], test_scores.size


def write_curve_csv(path, xs, ys, curve_name: str) -> None:
    """Write a curve as x,y rows under a `# curve_name` comment line.

    The rows end in CRLF, as csv.writer ends them, and carry 17 significant
    digits, so a reread is bit exact.
    """
    write_rows(path, f"# {curve_name}\nx,y\r\n", "%.17g,%.17g\r\n",
               np.asarray(xs, dtype=float).tolist(), np.asarray(ys, dtype=float).tolist())


def write_fpr_csv(path, points) -> None:
    """Write FprPoint rows with full-precision floats and CRLF row ends."""
    write_rows(path, "epsilon,empirical_fpr,stderr,n_test\r\n", "%.17g,%.17g,%.17g,%d\r\n",
               [p.epsilon for p in points], [p.fpr for p in points],
               [p.stderr for p in points], [p.n_test for p in points])
