"""Ranking metrics, curve arithmetic, uniformity diagnostics, and the
false positive rate simulation harness."""

import concurrent.futures
import csv
import multiprocessing
import os

import numpy as np
import pytest

import oracles
from edgeanomaly import adnd, evaluation
from edgeanomaly.adnd import HyperParams, TruncationLevels
from edgeanomaly.cli import main
from edgeanomaly.evaluation import (
    FprPoint,
    LabeledScores,
    auc,
    fpr_simulation,
    ks_uniformity,
    precision_recall_at_k,
    roc_points,
    trial_workers,
    write_curve_csv,
    write_fpr_csv,
)


def mann_whitney_auc(scores, labels):
    """Pairwise AUC oracle: anomaly ranked below normal wins, ties half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
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


class TestLabeledScores:
    def test_counts(self):
        labeled = LabeledScores([0.1, 0.2, 0.9], [True, True, False])
        assert labeled.n == 3
        assert labeled.num_anomalies == 2

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LabeledScores([0.1, 0.2], [True])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LabeledScores([0.1, np.nan], [True, False])

    def test_arrays_read_only(self):
        labeled = LabeledScores([0.1, 0.2], [True, False])
        with pytest.raises(ValueError):
            labeled.scores[0] = 5.0


class TestPrecisionRecallAtK:
    def test_two_anomalies_rank_first(self):
        labeled = LabeledScores([0.1, 0.2, 0.9], [True, True, False])
        ks, precision, recall = precision_recall_at_k(labeled)
        assert (ks[1], precision[1], recall[1]) == (2, 1.0, 1.0)

    def test_all_normal_prefix_has_zero_precision(self):
        labeled = LabeledScores([0.1, 0.2, 0.9], [False, False, True])
        ks, precision, recall = precision_recall_at_k(labeled)
        assert (ks[0], precision[0], recall[0]) == (1, 0.0, 0.0)
        assert (ks[1], precision[1], recall[1]) == (2, 0.0, 0.0)

    def test_full_cutoff_has_unit_recall(self):
        rng = np.random.default_rng(0)
        labeled = LabeledScores(rng.uniform(size=12), rng.uniform(size=12) < 0.4)
        _, _, recall = precision_recall_at_k(labeled)
        assert recall[-1] == 1.0

    def test_counts_are_integers(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            labels = rng.uniform(size=n) < 0.5
            if not labels.any():
                labels[0] = True
            labeled = LabeledScores(rng.integers(0, 4, size=n).astype(float), labels)
            for k, precision, recall in zip(*precision_recall_at_k(labeled)):
                assert (precision * k) == pytest.approx(round(precision * k), abs=1e-12)
                c = recall * labeled.num_anomalies
                assert c == pytest.approx(round(c), abs=1e-12)

    def test_no_anomalies_is_an_error(self):
        labeled = LabeledScores([0.1, 0.2], [False, False])
        with pytest.raises(ValueError, match="no ground-truth anomalies"):
            precision_recall_at_k(labeled)

    def test_ties_keep_input_order(self):
        # Equal scores: the anomaly listed first is counted in the top 1.
        labeled = LabeledScores([0.5, 0.5, 0.5], [True, False, True])
        ks, precision, recall = precision_recall_at_k(labeled)
        assert (ks[0], precision[0], recall[0]) == (1, 1.0, 0.5)
        assert (ks[1], precision[1], recall[1]) == (2, 0.5, 0.5)

    def test_matches_hand_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            scores = rng.integers(0, 3, size=n).astype(float)
            labels = rng.uniform(size=n) < 0.5
            if not labels.any():
                labels[int(rng.integers(0, n))] = True
            labeled = LabeledScores(scores, labels)
            order = sorted(range(n), key=lambda i: (scores[i], i))
            num_anomalies = int(labels.sum())
            hits = 0
            _, precisions, recalls = precision_recall_at_k(labeled)
            for k, (prec, rec) in enumerate(zip(precisions, recalls), start=1):
                hits += bool(labels[order[k - 1]])
                assert prec == hits / k
                assert rec == hits / num_anomalies


class TestRocPoints:
    def test_perfect_separation_passes_top_left(self):
        labeled = LabeledScores([0.1, 0.2, 0.8, 0.9], [True, True, False, False])
        points = list(zip(*roc_points(labeled)))
        assert (0.0, 1.0) in points
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_monotone_in_both_coordinates(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            labels = rng.uniform(size=n) < 0.5
            if labels.all() or not labels.any():
                labels[0] = ~labels[0]
            labeled = LabeledScores(rng.integers(0, 5, size=n).astype(float), labels)
            xs, ys = roc_points(labeled)
            assert all(a <= b for a, b in zip(xs, xs[1:]))
            assert all(a <= b for a, b in zip(ys, ys[1:]))

    def test_random_labels_give_half_auc(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=2000)
        labels = rng.uniform(size=2000) < 0.5
        value = auc(*roc_points(LabeledScores(scores, labels)))
        assert abs(value - 0.5) <= 0.05

    def test_sign_flip_complements_auc(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 6, size=40).astype(float)
        labels = rng.uniform(size=40) < 0.4
        labels[0] = True
        labels[1] = False
        forward = auc(*roc_points(LabeledScores(scores, labels)))
        backward = auc(*roc_points(LabeledScores(-scores, labels)))
        assert forward + backward == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("labels", [[True, True], [False, False]])
    def test_single_class_is_an_error(self, labels):
        with pytest.raises(ValueError, match="one anomaly and one normal"):
            roc_points(LabeledScores([0.1, 0.9], labels))


class TestAuc:
    def test_perfect_curve(self):
        assert auc([0.0, 0.0, 1.0], [0.0, 1.0, 1.0]) == 1.0

    def test_diagonal(self):
        assert auc([0.0, 1.0], [0.0, 1.0]) == 0.5

    def test_equals_mann_whitney_on_seven_scores(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            scores = rng.integers(0, 4, size=7).astype(float)
            labels = rng.uniform(size=7) < 0.5
            if labels.all() or not labels.any():
                labels[0] = ~labels[0]
            labeled = LabeledScores(scores, labels)
            assert auc(*roc_points(labeled)) == pytest.approx(
                mann_whitney_auc(scores, labels), abs=1e-12
            )

    def test_unsorted_points_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            auc([0.0, 0.8, 0.3], [0.0, 0.5, 1.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="two curve points"):
            auc([0.0], [0.0])

    @pytest.mark.parametrize("xs,ys", [([0.0, 1.5], [0.0, 1.0]), ([0.0, 1.0], [-0.1, 1.0]),
                                       ([0.0, np.nan], [0.0, 1.0])])
    def test_points_outside_unit_square_rejected(self, xs, ys):
        with pytest.raises(ValueError, match="unit square"):
            auc(xs, ys)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            auc([0.0, 0.5, 1.0], [0.0, 1.0])


class TestKsUniformity:
    def test_single_midpoint(self):
        assert ks_uniformity([0.5]) == 0.5

    def test_uniform_sample_under_critical_value(self):
        draws = np.random.default_rng(7).uniform(size=10_000)
        assert ks_uniformity(draws) < 1.628 / np.sqrt(10_000)

    @pytest.mark.parametrize("n", [1, 4, 100])
    def test_constant_ones(self, n):
        assert ks_uniformity(np.ones(n)) == pytest.approx(1.0 - 1.0 / n)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one p-value"):
            ks_uniformity([])

    def test_order_does_not_matter(self):
        values = [0.9, 0.1, 0.5, 0.3]
        assert ks_uniformity(values) == ks_uniformity(sorted(values))


SMOKE_HYPER = HyperParams()
SMOKE_TRUNC = TruncationLevels(k_h=8, k_a=4, k_b=4)


def smoke_simulation(seed, orientation="power-corrected", epsilons=(0.1, 0.5)):
    return fpr_simulation(
        SMOKE_HYPER,
        SMOKE_TRUNC,
        num_nodes=8,
        n_train=40,
        n_calib=40,
        n_test=60,
        epsilons=epsilons,
        trials=3,
        seed=seed,
        orientation=orientation,
        max_sweeps=60,
    )


class TestFprSimulation:
    def test_deterministic_for_fixed_seed(self):
        first = smoke_simulation(11)
        second = smoke_simulation(11)
        assert first == second

    def test_reports_total_detections(self):
        points = smoke_simulation(12)
        assert all(p.n_test == 3 * 60 for p in points)
        assert [p.epsilon for p in points] == [0.1, 0.5]

    def test_half_threshold_sits_in_central_band(self):
        # Uniform p-values put the FPR at 0.5; allow three binomial sigmas
        # plus the calibration-resampling noise of 3 shared calibration sets.
        points = smoke_simulation(13, epsilons=(0.5,))
        total = points[0].n_test
        slack = 3.0 * np.sqrt(0.25 / total) + 3.0 * np.sqrt(0.25 / (40 * 3))
        assert abs(points[0].fpr - 0.5) <= slack

    def test_stderr_matches_binomial_formula(self):
        for point in smoke_simulation(14):
            expected = np.sqrt(point.fpr * (1.0 - point.fpr) / point.n_test)
            assert point.stderr == pytest.approx(expected, abs=1e-15)

    def test_calibration_split_has_exactly_n_calib_edges(self, monkeypatch):
        # floor(22 * (15 / 22)) is 14 in floating point, not 15.
        sizes = []
        score_calibration = evaluation.calibration_scores

        def recording(model, corpus):
            sizes.append(corpus.n)
            return score_calibration(model, corpus)

        monkeypatch.setattr(evaluation, "calibration_scores", recording)
        fpr_simulation(SMOKE_HYPER, SMOKE_TRUNC, 8, n_train=7, n_calib=15, n_test=10,
                       epsilons=[0.1], trials=1, seed=0, max_sweeps=5)
        assert sizes == [15]

    def test_paper_orientation_runs(self):
        points = smoke_simulation(15, orientation="paper", epsilons=(0.5,))
        assert 0.0 <= points[0].fpr <= 1.0

    @pytest.mark.parametrize("epsilons", [[], [0.0], [1.0], [-0.1]])
    def test_bad_epsilons_rejected(self, epsilons):
        with pytest.raises(ValueError):
            fpr_simulation(
                SMOKE_HYPER, SMOKE_TRUNC, 8, 10, 10, 10, epsilons, trials=1, seed=0
            )

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            fpr_simulation(
                SMOKE_HYPER, SMOKE_TRUNC, 8, 10, 10, 10, [0.1], trials=0, seed=0
            )
        with pytest.raises(ValueError, match="positive"):
            fpr_simulation(
                SMOKE_HYPER, SMOKE_TRUNC, 8, 10, 0, 10, [0.1], trials=1, seed=0
            )


def tiny_simulation(simulate, trials, orientation="power-corrected", epsilons=(0.1, 0.5)):
    return simulate(SMOKE_HYPER, SMOKE_TRUNC, 8, 30, 30, 20, epsilons, trials, 5,
                    orientation, max_sweeps=20)


def tiny_simulation_and_workers(trials):
    return tiny_simulation(fpr_simulation, trials), trial_workers(trials)


def usable_cpus():
    return len(os.sched_getaffinity(0))


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every process pool fpr_simulation makes."""
    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return sizes


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so a simulation of two or more trials may pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


# (owner, function) whose replacement makes trial 1 raise. Replacing a
# pipeline step of evaluation keeps the trials in-process; replacing a
# function the fit calls inside adnd does not, so workers inherit it.
FAILURE_SITES = [(evaluation, "fit"), (adnd, "fit_state")]


@pytest.fixture(params=FAILURE_SITES, ids=lambda site: f"{site[0].__name__}.{site[1]}")
def failing_trial(request, monkeypatch, two_cpus, pool_sizes):
    """Make trial 1's fit raise; returns (pool sizes used, the sizes expected)."""
    owner, name = request.param
    real = getattr(owner, name)

    def failing(train, *args, seed, **kwargs):
        if seed.spawn_key[0] == 1:
            raise ValueError("trial 1 failed to fit")
        return real(train, *args, seed=seed, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    return pool_sizes, [] if owner is evaluation else [2]


class TestFprTrialWorkers:
    """Trials run in worker processes and give the serial loop's numbers."""

    @pytest.mark.parametrize("orientation", ["power-corrected", "paper"])
    @pytest.mark.parametrize("trials", [1, 2, 3, 7])
    def test_matches_serial_reference(self, pool_sizes, trials, orientation):
        got = tiny_simulation(fpr_simulation, trials, orientation)
        assert got == tiny_simulation(oracles.fpr_simulation, trials, orientation)
        workers = min(trials, usable_cpus())
        assert pool_sizes == ([workers] if workers > 1 else [])
        assert trial_workers(trials) == workers
        assert multiprocessing.active_children() == []

    def test_more_workers_than_cpus_match(self, monkeypatch, pool_sizes):
        # four usable CPUs give a pool of four, even on a smaller machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        assert tiny_simulation(fpr_simulation, 7) == tiny_simulation(oracles.fpr_simulation, 7)
        assert pool_sizes == [4]
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_runs_in_process(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert trial_workers(3) == 1
        assert tiny_simulation(fpr_simulation, 3) == tiny_simulation(oracles.fpr_simulation, 3)
        assert pool_sizes == []

    def test_repeated_epsilon_counts_once(self):
        # each listed epsilon gets its own count, so a repeat reads the same
        single = tiny_simulation(fpr_simulation, 2, epsilons=(0.5,))
        assert tiny_simulation(fpr_simulation, 2, epsilons=(0.5, 0.5)) == single * 2

    def test_trial_error_propagates_and_workers_exit(self, failing_trial):
        with pytest.raises(ValueError, match="^trial 1 failed to fit$"):
            tiny_simulation(fpr_simulation, 3)
        used, expected = failing_trial
        assert used == expected
        assert multiprocessing.active_children() == []

    def test_cli_raises_a_trial_error(self, failing_trial, tmp_path, capsys):
        # fpr-sim makes its own data, so a trial's error is a bug: main lets
        # it through with its traceback instead of exiting 2
        argv = ["fpr-sim", "--nodes", "8", "--n-train", "30", "--n-calib", "30",
                "--n-test", "20", "--trials", "3", "--kh", "8", "--ka", "4", "--kb", "4",
                "--max-sweeps", "20", "--out", str(tmp_path / "fpr.csv")]
        with pytest.raises(ValueError, match="^trial 1 failed to fit$"):
            main(argv)
        assert capsys.readouterr().err == ""
        used, expected = failing_trial
        assert used == expected
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("step", sorted(evaluation._TRIAL_STEPS))
    def test_replaced_step_sees_every_trial(self, step, monkeypatch, two_cpus, pool_sizes):
        # a spy records in the caller's process, so the trials stay here
        calls = []
        real = getattr(evaluation, step)

        def spy(*args, **kwargs):
            calls.append(step)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, step, spy)
        assert trial_workers(3) == 1
        assert tiny_simulation(fpr_simulation, 3) == tiny_simulation(oracles.fpr_simulation, 3)
        assert pool_sizes == []
        assert len(calls) == (60 if step == "nonconformity_score" else 3)
        monkeypatch.setattr(evaluation, step, real)
        assert trial_workers(3) == 2

    def test_daemonic_caller_runs_in_process(self):
        # a multiprocessing.Pool worker is daemonic and may not start children
        with multiprocessing.get_context("fork").Pool(1) as pool:
            points, workers = pool.apply_async(tiny_simulation_and_workers, (3,)).get(timeout=120)
        assert workers == 1
        assert points == tiny_simulation(oracles.fpr_simulation, 3)


class TestCsvWriters:
    def test_curve_round_trip(self, tmp_path):
        points = [(0.0, 0.0), (1.0 / 3.0, 0.75), (1.0, 1.0)]
        path = tmp_path / "roc.csv"
        write_curve_csv(path, *zip(*points), "roc")
        lines = path.read_text().splitlines()
        assert lines[0] == "# roc"
        assert lines[1] == "x,y"
        parsed = [tuple(map(float, row)) for row in csv.reader(lines[2:])]
        assert parsed == points

    @pytest.mark.parametrize("values", [
        [0.0, 1.0],
        [1.0 / 3.0, 2.0 / 3.0],
        [5e-324, 1e-300],
        [-0.0, 0.1],
    ])
    def test_curve_bytes_equal_the_csv_writer_oracle(self, tmp_path, values):
        xs = np.array(values)
        ys = xs[::-1].copy()
        self._assert_same_bytes(tmp_path, xs, ys)

    def test_roc_curve_bytes_equal_the_csv_writer_oracle(self, tmp_path):
        rng = np.random.default_rng(5)
        labels = rng.uniform(size=400) < 0.3
        scores = rng.normal(size=400) - labels + rng.integers(0, 3, size=400) / 7.0
        labeled = LabeledScores(scores, labels)
        self._assert_same_bytes(tmp_path, *roc_points(labeled))
        _, precision, recall = precision_recall_at_k(labeled)
        self._assert_same_bytes(tmp_path, recall, precision)

    @staticmethod
    def _assert_same_bytes(tmp_path, xs, ys):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_curve_csv(got, xs, ys, "roc (x=fpr, y=tpr)")
        oracles.write_curve_csv(want, xs, ys, "roc (x=fpr, y=tpr)")
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().startswith(b"# roc (x=fpr, y=tpr)\nx,y\r\n")

    def test_fpr_round_trip(self, tmp_path):
        points = [
            FprPoint(epsilon=0.05, fpr=0.043, stderr=0.0021, n_test=2000),
            FprPoint(epsilon=0.1, fpr=1.0 / 7.0, stderr=0.0078, n_test=2000),
        ]
        path = tmp_path / "fpr.csv"
        write_fpr_csv(path, points)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[1]["empirical_fpr"]) == 1.0 / 7.0
        assert int(rows[0]["n_test"]) == 2000

    @pytest.mark.parametrize("points", [
        [FprPoint(epsilon=0.0, fpr=-0.0, stderr=5e-324, n_test=0),
         FprPoint(epsilon=1.0 / 3.0, fpr=745.0, stderr=1.0, n_test=2000)],
        [FprPoint(epsilon=np.float64(0.1), fpr=np.float64(1.0 / 3.0),
                  stderr=np.float64(-0.0), n_test=40)],
        [],
    ], ids=["floats", "numpy-floats", "header-only"])
    def test_fpr_bytes_equal_the_csv_writer_oracle(self, tmp_path, points):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_fpr_csv(got, points)
        oracles.write_fpr_csv(want, points)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().startswith(b"epsilon,empirical_fpr,stderr,n_test\r\n")
