"""Acceptance suite: one test per shipping criterion.

Every test prints a single `[acceptance] criterion N (name): PASS/FAIL`
line (visible under `pytest -s`) and then asserts, so the printed verdict
and the pytest verdict always agree.
"""

import csv
import itertools
import time

import numpy as np
import pytest

from edgeanomaly.adnd import (
    HyperParams,
    TruncationLevels,
    fit,
    fit_state,
    sample_edges,
)
from edgeanomaly.cli import main
from edgeanomaly.conformal import (
    calibration_scores,
    conformal_p_values,
    full_conformal_p_values,
    nonconformity_score,
)
from edgeanomaly.evaluation import (
    LabeledScores,
    auc,
    fpr_simulation,
    ks_uniformity,
    precision_recall_at_k,
    roc_points,
)
from edgeanomaly.rhss import StreamHistory

import oracles

HYPER = HyperParams()
TRUNC = TruncationLevels()


def _report(num, name, ok, note=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"; {note}" if note else ""
    print(f"[acceptance] criterion {num} ({name}): {status}{suffix}", flush=True)


def brute_force_p(calib, test_value, u, orientation):
    """Direct enumeration of the smoothed p-value over the pooled scores."""
    pooled = list(calib) + [test_value]
    if orientation == "power-corrected":
        strict = sum(1 for s in pooled if s > test_value)
    else:
        strict = sum(1 for s in pooled if s < test_value)
    ties = sum(1 for s in pooled if s == test_value)
    return (strict + u * ties) / (len(calib) + 1)


def brute_force_full(scores, u_draws, orientation):
    out = []
    for j, x in enumerate(scores):
        if orientation == "power-corrected":
            strict = sum(1 for s in scores if s > x)
        else:
            strict = sum(1 for s in scores if s < x)
        ties = sum(1 for s in scores if s == x)
        out.append((strict + u_draws[j] * ties) / len(scores))
    return out


def mann_whitney_auc(scores, labels):
    anom = scores[labels]
    norm = scores[~labels]
    wins = 0.0
    for a in anom:
        for b in norm:
            if a < b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (anom.size * norm.size)


@pytest.fixture(scope="module")
def fitted_corpora():
    """Ten seeded 20-node, 500-edge corpora fitted at default settings."""
    results = []
    for seed in range(10):
        corpus = sample_edges(HYPER, TRUNC, 20, 500, seed)
        state, diag = fit_state(corpus, HYPER, TRUNC, seed=seed)
        results.append((corpus, state, diag))
    return results


def test_criterion_01_fpr_bound():
    # 2000 held-out detections per orientation, spread over 50 independent
    # trials: a single trial would share one calibration set across all
    # detections, adding correlated noise the binomial slack does not cover.
    epsilons = [0.01, 0.05, 0.1, 0.2]
    started = time.perf_counter()
    failures = []
    for orientation in ("power-corrected", "paper"):
        points = fpr_simulation(
            HYPER,
            TRUNC,
            num_nodes=30,
            n_train=363,
            n_calib=363,
            n_test=40,
            epsilons=epsilons,
            trials=50,
            seed=1,
            orientation=orientation,
        )
        for point in points:
            assert point.n_test == 2000
            bound = point.epsilon + 3.0 * np.sqrt(
                point.epsilon * (1.0 - point.epsilon) / 2000.0
            )
            if point.fpr > bound:
                failures.append(
                    f"{orientation} eps={point.epsilon}: "
                    f"fpr {point.fpr:.4f} > bound {bound:.4f}"
                )
    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _report(1, "fpr-bound", not failures, f"{elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_02_p_value_uniformity():
    rng = np.random.default_rng(2026)
    critical = 1.628 / np.sqrt(10_000)
    failures = []
    for orientation in ("power-corrected", "paper"):
        p_values = []
        for _ in range(10_000):
            draws = rng.standard_normal(51)
            p_values.append(
                conformal_p_values(draws[50:], draws[:50], [rng.uniform()], orientation)[0]
            )
        stat = ks_uniformity(p_values)
        if stat >= critical:
            failures.append(f"{orientation}: ks {stat:.5f} >= {critical:.5f}")
    _report(2, "p-value-uniformity", not failures)
    assert not failures, "; ".join(failures)


def test_criterion_03_rank_law():
    rng = np.random.default_rng(20)
    trials = 10_000
    ranks = np.empty(trials, dtype=int)
    for t in range(trials):
        values = rng.uniform(size=20)
        ranks[t] = oracles.tie_broken_rank(values, 19, rng.uniform(size=20))
    failures = []
    for m in (1, 5, 10, 19):
        q = m / 20.0
        estimate = float(np.mean(ranks <= m))
        slack = 3.0 * np.sqrt(q * (1.0 - q) / trials)
        if abs(estimate - q) > slack:
            failures.append(f"m={m}: {estimate:.4f} vs {q} (slack {slack:.4f})")
    _report(3, "rank-law", not failures)
    assert not failures, "; ".join(failures)


def test_criterion_04_elbo_monotone(fitted_corpora):
    failures = []
    for seed, (_, _, diag) in enumerate(fitted_corpora):
        trace = diag.elbo_trace
        for prev, cur in zip(trace, trace[1:]):
            if cur < prev - 1e-6 * abs(prev):
                failures.append(f"corpus {seed}: drop {prev} -> {cur}")
        if not diag.converged or diag.sweeps > 200:
            failures.append(
                f"corpus {seed}: converged={diag.converged} sweeps={diag.sweeps}"
            )
    sweeps = [diag.sweeps for _, _, diag in fitted_corpora]
    _report(4, "elbo-monotone", not failures, f"sweeps {min(sweeps)}-{max(sweeps)}")
    assert not failures, "; ".join(failures)


def test_criterion_05_conformal_enumeration():
    alphabet = (0.0, 1.0, 2.0)
    test_values = (0.0, 1.0, 2.0, 1.5)
    u_fixed = 0.37
    checked = 0
    failures = []
    for size in range(1, 9):
        for calib in itertools.combinations_with_replacement(alphabet, size):
            calib_arr = np.array(calib)
            for orientation in ("power-corrected", "paper"):
                for x in test_values:
                    got = conformal_p_values([x], calib_arr, [u_fixed], orientation)[0]
                    want = brute_force_p(calib, x, u_fixed, orientation)
                    checked += 1
                    if got != want:
                        failures.append(f"p({x}|{calib},{orientation}): {got}!={want}")
                if size >= 2:
                    u_draws = np.array([(j + 1) / (size + 1) for j in range(size)])
                    got_full = full_conformal_p_values(calib_arr, u_draws, orientation)
                    want_full = brute_force_full(calib, u_draws, orientation)
                    checked += 1
                    if list(got_full) != want_full:
                        failures.append(f"full({calib},{orientation})")
    _report(5, "conformal-enumeration", not failures, f"{checked} comparisons")
    assert not failures, "; ".join(failures[:5])


def test_criterion_06_sampler_exchangeability():
    failures = []
    for seed in range(100):
        corpus, params = sample_edges(HYPER, TRUNC, 12, 10, seed, return_params=True)
        perm = np.random.default_rng(seed + 1).permutation(corpus.n)
        permuted = corpus.subset(perm)
        gap = abs(
            oracles.sequence_log_density(params, corpus)
            - oracles.sequence_log_density(params, permuted)
        )
        if gap > 1e-10:
            failures.append(f"seed {seed}: gap {gap}")
    _report(6, "sampler-exchangeability", not failures)
    assert not failures, "; ".join(failures)


def test_criterion_07_detection_power():
    sample_seed, fit_seed, anom_seed, u_seed = np.random.SeedSequence(7).spawn(4)
    n_normal, n_anom = 240, 60
    corpus = sample_edges(HYPER, TRUNC, 30, 400 + 400 + n_normal, sample_seed)
    train = corpus.subset(slice(None, 400))
    calib = corpus.subset(slice(400, 800))
    anomalies = sample_edges(HYPER, TRUNC, 30, n_anom, anom_seed)
    test_edges = list(corpus.subset(slice(800, None))) + list(anomalies)
    labels = np.array([False] * n_normal + [True] * n_anom)

    model = fit(train, HYPER, TRUNC, seed=fit_seed)
    calib_set = calibration_scores(model, calib)
    scores = np.array([nonconformity_score(model, e) for e in test_edges])
    u_draws = np.random.default_rng(u_seed).uniform(size=scores.size)
    u_draws[u_draws == 0.0] = 0.5
    p_values = conformal_p_values(scores, calib_set, u_draws, "power-corrected")
    auc_conformal = auc(*roc_points(LabeledScores(p_values, labels)))

    # The baseline sees everything the conformal pipeline saw before testing.
    history = StreamHistory.from_corpus(corpus.subset(slice(None, 800)))  # train + calib
    baseline = np.array([history.rhss_score(e) for e in test_edges])
    auc_baseline = auc(*roc_points(LabeledScores(baseline, labels)))

    sigma_null = np.sqrt((n_anom + n_normal + 1) / (12.0 * n_anom * n_normal))
    floor = 0.5 + 3.0 * sigma_null
    failures = []
    if auc_conformal < 0.70:
        failures.append(f"conformal auc {auc_conformal:.3f} < 0.70")
    if auc_conformal <= floor:
        failures.append(f"conformal auc {auc_conformal:.3f} <= null floor {floor:.3f}")
    if auc_baseline <= floor:
        failures.append(f"baseline auc {auc_baseline:.3f} <= null floor {floor:.3f}")
    note = f"conformal {auc_conformal:.3f}, baseline {auc_baseline:.3f}"
    if auc_baseline > auc_conformal:
        note += "; baseline ranked higher (reported, not failed)"
    _report(7, "detection-power", not failures, note)
    assert not failures, "; ".join(failures)


def test_criterion_08_counting_identity(fitted_corpora):
    failures = []
    for seed, (corpus, state, _) in enumerate(fitted_corpora):
        total = float(np.sum(state.lam - HYPER.eta))
        expected = 2.0 * corpus.n
        if abs(total - expected) > 1e-6 * expected:
            failures.append(f"corpus {seed}: {total} vs {expected}")
    _report(8, "counting-identity", not failures)
    assert not failures, "; ".join(failures)


def test_criterion_09_dataset_shape_cli(tmp_path):
    n_train, n_calib, n_normal, n_anom = 363, 363, 167, 140
    all_csv = tmp_path / "all.csv"
    anom_csv = tmp_path / "anomalies.csv"
    train_csv = tmp_path / "train.csv"
    calib_csv = tmp_path / "calib.csv"
    test_csv = tmp_path / "test.csv"
    model_path = tmp_path / "model.adnd"
    verdict_csv = tmp_path / "verdicts.csv"

    started = time.perf_counter()
    assert main(["synth", "--nodes", "30", "--edges", str(n_train + n_calib + n_normal),
                 "--seed", "100", "--out", str(all_csv)]) == 0
    assert main(["synth", "--nodes", "30", "--edges", str(n_anom),
                 "--seed", "200", "--out", str(anom_csv)]) == 0

    with open(all_csv, newline="") as fh:
        pooled = list(csv.reader(fh))[1:]
    with open(anom_csv, newline="") as fh:
        anomalies = list(csv.reader(fh))[1:]
    train_csv.write_text("src,dst\n" + "".join(f"{u},{v}\n" for u, v in pooled[:n_train]))
    calib_csv.write_text(
        "src,dst\n" + "".join(f"{u},{v}\n" for u, v in pooled[n_train:n_train + n_calib])
    )
    test_csv.write_text(
        "src,dst,label\n"
        + "".join(f"{u},{v},0\n" for u, v in pooled[n_train + n_calib:])
        + "".join(f"{u},{v},1\n" for u, v in anomalies)
    )

    assert main(["fit", "--train", str(train_csv), "--model", str(model_path),
                 "--seed", "0"]) == 0
    assert main(["detect", "--model", str(model_path), "--calib", str(calib_csv),
                 "--test", str(test_csv), "--out", str(verdict_csv),
                 "--epsilon", "0.05", "--seed", "1"]) == 0
    assert main(["eval", "--scores", str(verdict_csv), "--labels", str(test_csv),
                 "--out-prefix", str(tmp_path / "metrics")]) == 0
    elapsed = time.perf_counter() - started

    with open(verdict_csv, newline="") as fh:
        verdicts = list(csv.DictReader(fh))
    failures = []
    if len(verdicts) != n_normal + n_anom:
        failures.append(f"{len(verdicts)} verdict rows, wanted {n_normal + n_anom}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    if not (tmp_path / "metrics_auc.txt").exists():
        failures.append("metrics output missing")
    _report(9, "dataset-shape-cli", not failures, f"{elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_10_metric_oracles():
    rng = np.random.default_rng(10)
    failures = []
    for _ in range(100):
        n = int(rng.integers(2, 11))
        scores = rng.integers(0, 4, size=n).astype(float)
        labels = rng.uniform(size=n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        got = auc(*roc_points(LabeledScores(scores, labels)))
        want = mann_whitney_auc(scores, labels)
        if abs(got - want) > 1e-12:
            failures.append(f"auc {got} vs {want}")
    for _ in range(20):
        n = int(rng.integers(1, 9))
        scores = rng.integers(0, 3, size=n).astype(float)
        labels = rng.uniform(size=n) < 0.5
        if not labels.any():
            labels[int(rng.integers(0, n))] = True
        labeled = LabeledScores(scores, labels)
        order = sorted(range(n), key=lambda i: (scores[i], i))
        total = int(labels.sum())
        hits = 0
        for k, (_, prec, rec) in enumerate(zip(*precision_recall_at_k(labeled)), start=1):
            hits += bool(labels[order[k - 1]])
            if prec != hits / k or rec != hits / total:
                failures.append(f"pr k={k}: ({prec},{rec})")
    _report(10, "metric-oracles", not failures)
    assert not failures, "; ".join(failures[:5])
