"""Output checks for one pass of the command sequence, and file digests.

Each check reads the files a command wrote and returns a list of problems,
empty when the output is correct. `check_sequence` maps every problem to
the command whose output showed it, so the benchmark can count failed
commands.
"""

from __future__ import annotations

import csv
import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from workloads import EPSILON, FPR_EPSILONS, FPR_TEST_EDGES

OUTPUT_FILES = {
    "fit": ("model.adnd",),
    "detect": ("verdicts.csv",),
    "score": ("alphas.csv",),
    "rhss": ("baseline.csv",),
    "eval": ("run_auc.txt", "run_roc.csv", "run_pr.csv"),
    "fpr-sim": ("fpr.csv",),
}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(workdir: Path) -> dict[str, str]:
    """SHA-256 of every output file that exists, keyed by file name."""
    return {
        name: sha256(workdir / name)
        for names in OUTPUT_FILES.values()
        for name in names
        if (workdir / name).is_file()
    }


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_labels(path: Path) -> np.ndarray:
    return np.array([row["label"] == "1" for row in read_rows(path)])


def check_row_count(path: Path, expected: int) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    rows = len(read_rows(path))
    return [] if rows == expected else [f"{path.name} has {rows} rows, expected {expected}"]


def check_verdicts(path: Path, n_test: int, epsilon: float) -> list[str]:
    """Row count, p-values in (0, 1], and `anomalous` equal to p <= epsilon."""
    problems = check_row_count(path, n_test)
    if problems:
        return problems
    for line, row in enumerate(read_rows(path), start=2):
        p = float(row["p_value"])
        if not 0.0 < p <= 1.0:
            problems.append(f"{path.name}:{line}: p_value {p!r} outside (0, 1]")
        if row["anomalous"] != str(int(p <= epsilon)):
            problems.append(f"{path.name}:{line}: anomalous={row['anomalous']} but p={p!r}")
    return problems[:5]


def check_alpha_agreement(verdicts: Path, alphas: Path) -> list[str]:
    """detect and score rank the same model on the same edges: equal alphas."""
    left = [row["alpha"] for row in read_rows(verdicts)]
    right = [row["alpha"] for row in read_rows(alphas)]
    if left != right:
        return [f"{alphas.name} alphas differ from {verdicts.name}"]
    return []


def roc_auc(p_values: np.ndarray, labels: np.ndarray) -> float:
    """P(anomaly p-value < null p-value), ties counting one half."""
    ranks = rankdata(-p_values)
    positives = int(labels.sum())
    negatives = labels.size - positives
    return float((ranks[labels].sum() - positives * (positives + 1) / 2) / (positives * negatives))


def check_auc(verdicts: Path, labels: np.ndarray, auc_file: Path) -> tuple[list[str], float]:
    """Recompute the AUC of detect's p-values and compare with eval's file."""
    p_values = np.array([float(row["p_value"]) for row in read_rows(verdicts)])
    expected = roc_auc(p_values, labels)
    if not auc_file.is_file():
        return [f"{auc_file.name} missing"], expected
    reported = float(auc_file.read_text(encoding="utf-8"))
    if not math.isclose(reported, expected, rel_tol=0.0, abs_tol=1e-9):
        return [f"{auc_file.name} reads {reported!r}, recomputed {expected!r}"], expected
    return [], expected


def check_fpr(path: Path, trials: int, n_test: int, epsilons) -> list[str]:
    """n_test equals trials x test edges and each FPR <= epsilon + 3 stderr."""
    if not path.is_file():
        return [f"{path.name} missing"]
    rows = read_rows(path)
    problems = []
    if [float(row["epsilon"]) for row in rows] != [float(e) for e in epsilons]:
        problems.append(f"{path.name} epsilons {[row['epsilon'] for row in rows]}")
    for row in rows:
        eps, fpr, stderr = (float(row[k]) for k in ("epsilon", "empirical_fpr", "stderr"))
        if int(row["n_test"]) != trials * n_test:
            problems.append(f"{path.name}: n_test {row['n_test']} != {trials} x {n_test}")
        if not fpr <= eps + 3.0 * stderr:
            problems.append(f"{path.name}: fpr {fpr!r} > {eps!r} + 3 x {stderr!r}")
    return problems


def check_model(path: Path, load_model, save_model) -> tuple[list[str], object]:
    """The model file loads, and saving and loading it again is the identity.

    Returns the loaded model (None when it does not load).
    """
    try:
        model = load_model(path)
    except Exception as err:  # any failure to load is a failed output
        return [f"{path.name} does not load: {err!r}"], None
    with tempfile.TemporaryDirectory(dir=path.parent) as scratch:
        copy = Path(scratch) / path.name
        save_model(model, copy)
        again = load_model(copy)
        same_bytes = copy.read_bytes() == path.read_bytes()
    problems = []
    for name in ("topic_node", "topic_weights"):
        a, b = getattr(model, name), getattr(again, name)
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"{path.name}: {name} differs after save and reload")
    if model.vocab.labels != again.vocab.labels:
        problems.append(f"{path.name}: vocabulary differs after save and reload")
    if not same_bytes:
        problems.append(f"{path.name}: re-saving the loaded model changes the file")
    return problems, model


def check_sequence(workdir: Path, workload, labels: np.ndarray, adnd) -> tuple[dict, dict]:
    """Run every check on one pass's outputs.

    Returns (problems by command, facts) where facts carries the values the
    checks computed on the way: `auc` and `neg_elbo_per_edge`.
    """
    problems, facts = {}, {}
    n_test = labels.size
    verdicts, alphas = workdir / "verdicts.csv", workdir / "alphas.csv"

    problems["fit"], model = check_model(workdir / "model.adnd", adnd.load_model, adnd.save_model)
    if model is not None:
        n_train = len(read_rows(workdir / "train.csv"))
        facts["neg_elbo_per_edge"] = -model.diagnostics.elbo_trace[-1] / n_train
        facts["sweeps"] = model.diagnostics.sweeps
        facts["model_bytes"] = (workdir / "model.adnd").stat().st_size

    problems["detect"] = check_verdicts(verdicts, n_test, EPSILON)
    problems["score"] = check_row_count(alphas, n_test)
    if not problems["detect"] and not problems["score"]:
        problems["score"] += check_alpha_agreement(verdicts, alphas)
    problems["rhss"] = check_row_count(workdir / "baseline.csv", n_test)
    if not problems["detect"]:
        problems["eval"], facts["auc"] = check_auc(verdicts, labels, workdir / "run_auc.txt")
    else:
        problems["eval"] = ["no valid verdicts to evaluate"]
    problems["fpr-sim"] = check_fpr(
        workdir / "fpr.csv", workload.fpr_trials, FPR_TEST_EDGES, FPR_EPSILONS
    )
    return problems, facts

