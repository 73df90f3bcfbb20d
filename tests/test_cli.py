"""End-to-end command line behavior: pipelines, exit codes, config handling."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeanomaly import cli
from edgeanomaly.adnd import LOG_FLOOR, load_model
from edgeanomaly.cli import UsageError, load_config_file, main
from edgeanomaly.conformal import Verdicts
from edgeanomaly.graph_core import EdgeCsvError, quote_labels, write_edge_csv, write_rows

import oracles


SHAPE = ["--kh", "8", "--ka", "4", "--kb", "4"]
FAST = SHAPE + ["--max-sweeps", "60"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth/fit run shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    train = str(root / "train.csv")
    calib = str(root / "calib.csv")
    test = str(root / "test.csv")
    model = str(root / "model.adnd")
    assert main(["synth", "--nodes", "10", "--edges", "100", "--seed", "3",
                 "--out", train] + SHAPE) == 0
    assert main(["synth", "--nodes", "10", "--edges", "60", "--seed", "4",
                 "--out", calib] + SHAPE) == 0
    assert main(["synth", "--nodes", "10", "--edges", "40", "--anomalous", "20",
                 "--seed", "5", "--out", test] + SHAPE) == 0
    assert main(["fit", "--train", train, "--model", model, "--seed", "0"] + FAST) == 0
    return {"root": root, "train": train, "calib": calib, "test": test, "model": model}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestPipeline:
    def test_synth_row_counts(self, pipeline):
        assert len(read_rows(pipeline["train"])) == 100
        rows = read_rows(pipeline["test"])
        assert len(rows) == 60
        assert sum(int(r["label"]) for r in rows) == 20

    def test_detect_round_trip(self, pipeline):
        out = str(pipeline["root"] / "verdicts.csv")
        rc = main(["detect", "--model", pipeline["model"], "--calib", pipeline["calib"],
                   "--test", pipeline["test"], "--out", out,
                   "--epsilon", "0.2", "--seed", "7"])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 60
        for row in rows:
            assert 0.0 < float(row["p_value"]) < 1.0
            assert row["anomalous"] in ("0", "1")
            assert row["anomalous"] == str(int(float(row["p_value"]) <= 0.2))

    def test_detect_is_deterministic(self, pipeline):
        out_a = pipeline["root"] / "det_a.csv"
        out_b = pipeline["root"] / "det_b.csv"
        argv = ["detect", "--model", pipeline["model"], "--calib", pipeline["calib"],
                "--test", pipeline["test"], "--epsilon", "0.1", "--seed", "42"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_fit_summary_reports_effective_topics(self, pipeline, capsys):
        model_path = str(pipeline["root"] / "summary.adnd")
        rc = main(["fit", "--train", pipeline["train"], "--model", model_path,
                   "--seed", "0"] + FAST)
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("fit: 100 edges, ")
        fields = dict(part.split("=") for part in line.split(", ") if "=" in part)
        weights = load_model(model_path).topic_weights
        effective = int(np.count_nonzero(weights > 1e-3))
        assert fields["effective_topics"] == str(effective)
        assert 1 <= effective <= weights.size

    def test_score_command(self, pipeline):
        out = str(pipeline["root"] / "alphas.csv")
        rc = main(["score", "--model", pipeline["model"],
                   "--edges", pipeline["test"], "--out", out])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 60
        assert all(float(r["alpha"]) > 0.0 for r in rows)

    def test_rhss_command(self, pipeline):
        out = str(pipeline["root"] / "baseline.csv")
        rc = main(["rhss", "--train", pipeline["train"],
                   "--test", pipeline["test"], "--out", out])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 60
        assert all(0.0 <= float(r["rhss_score"]) <= 1.0 for r in rows)

    def test_eval_on_detect_output(self, pipeline):
        verdicts = str(pipeline["root"] / "eval_in.csv")
        assert main(["detect", "--model", pipeline["model"], "--calib", pipeline["calib"],
                     "--test", pipeline["test"], "--out", verdicts, "--seed", "7"]) == 0
        prefix = str(pipeline["root"] / "metrics")
        rc = main(["eval", "--scores", verdicts, "--labels", pipeline["test"],
                   "--out-prefix", prefix])
        assert rc == 0
        auc_text = (pipeline["root"] / "metrics_auc.txt").read_text().strip()
        assert 0.0 <= float(auc_text) <= 1.0
        pr_lines = (pipeline["root"] / "metrics_pr.csv").read_text().splitlines()
        assert pr_lines[0].startswith("#")
        assert pr_lines[1] == "x,y"
        assert len(pr_lines) == 2 + 60
        assert (pipeline["root"] / "metrics_roc.csv").exists()

    def test_eval_invert_negates_the_column(self, pipeline):
        # --invert on alpha must reproduce an eval of a pre-negated copy.
        alphas = str(pipeline["root"] / "eval_alphas.csv")
        assert main(["score", "--model", pipeline["model"],
                     "--edges", pipeline["test"], "--out", alphas]) == 0
        negated = pipeline["root"] / "eval_negated.csv"
        rows = read_rows(alphas)
        with open(negated, "w", newline="") as fh:
            fh.write("src,dst,score\n")
            for row in rows:
                fh.write(f"{row['src']},{row['dst']},{-float(row['alpha'])!r}\n")
        prefix_inv = str(pipeline["root"] / "by_invert")
        prefix_neg = str(pipeline["root"] / "by_negated")
        assert main(["eval", "--scores", alphas, "--labels", pipeline["test"],
                     "--score-column", "alpha", "--invert",
                     "--out-prefix", prefix_inv]) == 0
        assert main(["eval", "--scores", str(negated), "--labels", pipeline["test"],
                     "--out-prefix", prefix_neg]) == 0
        auc_inv = (pipeline["root"] / "by_invert_auc.txt").read_bytes()
        auc_neg = (pipeline["root"] / "by_negated_auc.txt").read_bytes()
        assert auc_inv == auc_neg

    # alpha is a nonconformity score: larger means more anomalous. eval
    # ranked it backwards, and --invert was needed to rank it right.
    def test_eval_ranks_alpha_larger_as_more_anomalous(self, pipeline):
        alphas = str(pipeline["root"] / "eval_alpha_direction.csv")
        assert main(["score", "--model", pipeline["model"],
                     "--edges", pipeline["test"], "--out", alphas]) == 0
        auc = {}
        for name, extra in (("plain", []), ("inverted", ["--invert"])):
            prefix = str(pipeline["root"] / f"alpha_{name}")
            assert main(["eval", "--scores", alphas, "--labels", pipeline["test"],
                         "--out-prefix", prefix] + extra) == 0
            auc[name] = (pipeline["root"] / f"alpha_{name}_auc.txt").read_bytes()
        assert auc["plain"] == auc["inverted"]

    def test_eval_alpha_column_golden_auc(self, tmp_path):
        # the two anomalies hold the two largest alphas
        scores = tmp_path / "alphas.csv"
        scores.write_text("src,dst,alpha,label\n"
                          "a,b,3.5,0\nb,c,9.0,1\nc,d,1.2,0\nd,e,7.5,1\ne,f,2.0,0\n")
        prefix = tmp_path / "alpha"
        assert main(["eval", "--scores", str(scores), "--out-prefix", str(prefix)]) == 0
        assert (tmp_path / "alpha_auc.txt").read_text() == "1\n"

    def test_eval_golden_output(self, tmp_path):
        # Sorted by score the labels read 1,1,0,1,0,0 with one tie at 0.4, so
        # the ROC curve has five thresholds and the AUC is 17/18.
        scores = tmp_path / "scores.csv"
        scores.write_text("src,dst,score,label\n"
                          "a,b,0.1,1\nb,c,0.4,0\nc,d,0.4,1\n"
                          "d,e,0.7,0\ne,f,0.9,0\nf,a,0.2,1\n")
        prefix = tmp_path / "golden"
        assert main(["eval", "--scores", str(scores), "--out-prefix", str(prefix)]) == 0
        third, two_thirds = "0.33333333333333331", "0.66666666666666663"
        roc = [("0", "0"), ("0", third), ("0", two_thirds), (third, "1"),
               (two_thirds, "1"), ("1", "1")]
        pr = [(third, "1"), (two_thirds, "1"), (two_thirds, two_thirds),
              ("1", "0.75"), ("1", "0.59999999999999998"), ("1", "0.5")]
        assert (tmp_path / "golden_roc.csv").read_bytes().decode() == (
            "# roc (x=false positive rate, y=true positive rate)\nx,y\r\n"
            + "".join(f"{x},{y}\r\n" for x, y in roc))
        assert (tmp_path / "golden_pr.csv").read_bytes().decode() == (
            "# precision-recall (x=recall, y=precision)\nx,y\r\n"
            + "".join(f"{x},{y}\r\n" for x, y in pr))
        assert (tmp_path / "golden_auc.txt").read_bytes() == b"0.94444444444444442\n"

    def test_fpr_sim_smoke_and_determinism(self, tmp_path):
        out_a = tmp_path / "fpr_a.csv"
        out_b = tmp_path / "fpr_b.csv"
        argv = ["fpr-sim", "--nodes", "8", "--n-train", "30", "--n-calib", "30",
                "--n-test", "40", "--trials", "1", "--epsilons", "0.1,0.5",
                "--seed", "9"] + FAST
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = read_rows(out_a)
        assert [float(r["epsilon"]) for r in rows] == [0.1, 0.5]
        assert all(int(r["n_test"]) == 40 for r in rows)


class TestQuotedLabels:
    """Labels that need quoting in a CSV survive every writer and reader."""

    LABELS = ["x,y", 'q"t', "line\nbreak", "cr\rhere", "a b", "plain", "\u00e9"]

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("quoted")
        labels, k = self.LABELS, len(self.LABELS)
        train = [(labels[i % k], labels[(3 * i + 1) % k]) for i in range(70)]
        test = [(labels[i % k], labels[(5 * i + 2) % k]) for i in range(14)]
        test.append(("never,seen", "plain"))
        flags = [i % 3 == 0 for i in range(len(test))]
        p = {name: str(root / name) for name in (
            "train.csv", "test.csv", "model.adnd", "alphas.csv", "verdicts.csv",
            "baseline.csv")}
        write_edge_csv(p["train.csv"], *zip(*train))
        write_edge_csv(p["test.csv"], *zip(*test), flags)
        assert main(["fit", "--train", p["train.csv"], "--model", p["model.adnd"]]
                    + FAST) == 0
        assert main(["score", "--model", p["model.adnd"], "--edges", p["test.csv"],
                     "--out", p["alphas.csv"]]) == 0
        assert main(["detect", "--model", p["model.adnd"], "--calib", p["train.csv"],
                     "--test", p["test.csv"], "--out", p["verdicts.csv"]]) == 0
        assert main(["rhss", "--train", p["train.csv"], "--test", p["test.csv"],
                     "--out", p["baseline.csv"]]) == 0
        return root, p, test

    @pytest.mark.parametrize("name,column", [
        ("alphas.csv", "alpha"), ("verdicts.csv", "p_value"), ("baseline.csv", "rhss_score"),
    ])
    def test_outputs_read_back_with_their_labels(self, files, name, column):
        _, p, test = files
        rows = read_rows(p[name])
        assert [(r["src"], r["dst"]) for r in rows] == test
        assert all(float(r[column]) >= 0.0 for r in rows)

    @pytest.mark.parametrize("name", ["alphas.csv", "verdicts.csv", "baseline.csv"])
    def test_eval_reads_the_outputs(self, files, name):
        root, p, _ = files
        prefix = str(root / name.replace(".csv", ""))
        assert main(["eval", "--scores", p[name], "--labels", p["test.csv"],
                     "--out-prefix", prefix]) == 0

    def test_plain_labels_keep_their_bytes(self, files):
        _, p, test = files
        lines = Path(p["alphas.csv"]).read_text(encoding="utf-8").split("\n")
        plain = [(src, dst) for src, dst in test
                 if not any(c in src + dst for c in ',"\r\n')]
        assert plain
        for src, dst in plain:
            assert any(line.startswith(f"{src},{dst},") for line in lines)
        assert any(line.startswith('"x,y",') for line in lines)
        assert any(line.startswith('"q""t",') for line in lines)


class TestRowWriters:
    """The score and detect rows, written through write_rows, give the bytes
    of the per-value writers in tests/oracles.py."""

    LABELS = ["x,y", 'q"t', "line\nbreak", "cr\rhere", "a b", "plain", "\u00e9"]
    # zero, the least subnormal, a 17-digit value, the LOG_FLOOR clamp, p = 1
    VALUES = [0.0, 5e-324, 1.0 / 3.0, -LOG_FLOOR, 1.0, 0.05, 2.5e-17]

    def _pairs(self):
        k = len(self.LABELS)
        return [(self.LABELS[i % k], self.LABELS[(3 * i + 1) % k])
                for i in range(len(self.VALUES))]

    @pytest.mark.parametrize("column", ["alpha", "rhss_score"])
    def test_score_csv_bytes_equal_the_oracle(self, tmp_path, column):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        senders, receivers = zip(*self._pairs())
        write_rows(got, f"src,dst,{column}\n", cli._SCORE_ROW,
                   quote_labels(senders), quote_labels(receivers), self.VALUES)
        oracles.write_score_csv(want, self._pairs(), column, self.VALUES)
        assert got.read_bytes() == want.read_bytes()
        lines = got.read_bytes().decode().split("\n")
        assert lines[1] == '"x,y","q""t",0'
        assert lines[2] == '"q""t",a b,4.9406564584124654e-324'

    def test_verdict_csv_bytes_equal_the_oracle(self, tmp_path):
        p_values = [1.0, 1.0 / 3.0, 5e-324, 0.0, 0.05, 1.0, 0.5]
        verdicts = Verdicts(self.VALUES, p_values, [0.5] * len(p_values), epsilon=0.05)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        senders, receivers = zip(*self._pairs())
        write_rows(got, "src,dst,alpha,p_value,anomalous\n", cli._VERDICT_ROW,
                   quote_labels(senders), quote_labels(receivers), verdicts.scores.tolist(),
                   verdicts.p_values.tolist(), verdicts.flagged.tolist())
        oracles.write_verdict_csv(want, self._pairs(), verdicts)
        assert got.read_bytes() == want.read_bytes()
        text = got.read_bytes().decode()
        assert ",745,0,1\n" in text and ",4.9406564584124654e-324,1\n" in text


class TestConfigFile:
    def test_flags_override_config_file(self, pipeline, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 2.5  # overridden by the flag\nkh = 6\n")
        model_path = str(tmp_path / "model.adnd")
        rc = main(["fit", "--train", pipeline["train"], "--model", model_path,
                   "--config", str(cfg), "--eta", "3.0",
                   "--ka", "4", "--kb", "4", "--max-sweeps", "40"])
        assert rc == 0
        model = load_model(model_path)
        assert model.hyper.eta == 3.0
        assert model.trunc.k_h == 6

    def test_load_config_file_parses_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment only\n\nepsilon = 0.02\nseed = 11\norientation = paper\n")
        assert load_config_file(cfg) == {
            "epsilon": 0.02, "seed": 11, "orientation": "paper"
        }

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for line in ("bogus = 1\n", "calib_fraction = 0.5\n"):
            cfg.write_text(line)
            with pytest.raises(UsageError, match="unknown config key"):
                load_config_file(cfg)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = not-a-number\n")
        with pytest.raises(UsageError, match="bad value"):
            load_config_file(cfg)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(UsageError, match="expected key = value"):
            load_config_file(cfg)

    def test_unknown_key_exits_one(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        for line in ("bogus = 1\n", "calib_fraction = 0.5\n"):
            cfg.write_text(line)
            rc = main(["fit", "--train", pipeline["train"],
                       "--model", str(tmp_path / "m.adnd"), "--config", str(cfg)])
            assert rc == 1
            assert "unknown config key" in capsys.readouterr().err


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--nodes", "5", "--edges", "5",
                   "--out", str(tmp_path / "x.csv"), "--bogus"])
        assert rc == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("score", "--config", "absent.cfg"), ("score", "--seed", "1"),
        ("synth", "--max-sweeps", "10"), ("synth", "--rel-tol", "1e-3"),
    ])
    def test_flag_the_command_never_reads_is_usage_error(self, pipeline, tmp_path, capsys,
                                                         command, flag, value):
        out = str(tmp_path / "out.csv")
        argv = {
            "score": ["score", "--model", pipeline["model"], "--edges", pipeline["test"],
                      "--out", out],
            "synth": ["synth", "--nodes", "5", "--edges", "5", "--out", out],
        }[command]
        assert main(argv + [flag, value]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fpr_sim_epsilon_abbreviates_epsilons(self, tmp_path):
        out = tmp_path / "fpr.csv"
        assert main(["fpr-sim", "--nodes", "8", "--n-train", "30", "--n-calib", "30",
                     "--n-test", "40", "--epsilon", "0.1", "--seed", "9",
                     "--out", str(out)] + FAST) == 0
        rows = read_rows(out)
        assert [float(r["epsilon"]) for r in rows] == [0.1]

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["fit", "--train", "somewhere.csv"]) == 1
        assert "required" in capsys.readouterr().err

    def test_out_of_range_epsilon_is_usage_error(self, pipeline, tmp_path, capsys):
        rc = main(["detect", "--model", pipeline["model"], "--calib", pipeline["calib"],
                   "--test", pipeline["test"], "--out", str(tmp_path / "v.csv"),
                   "--epsilon", "2.0"])
        assert rc == 1
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-5", "-1E+2", "-NaN"])
    def test_rel_tol_must_be_positive_and_finite(self, pipeline, tmp_path, capsys, value):
        model = str(tmp_path / "m.adnd")
        # as a separate argument, a value that starts with "-" must not read as a flag
        for flag in ([f"--rel-tol={value}"], ["--rel-tol", value]):
            rc = main(["fit", "--train", pipeline["train"], "--model", model, *flag] + SHAPE)
            assert rc == 1
            assert "rel_tol must be positive and finite" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"rel_tol = {value}\n")
        rc = main(["fit", "--train", pipeline["train"], "--model", model,
                   "--config", str(cfg)] + SHAPE)
        assert rc == 1
        assert "rel_tol must be positive and finite" in capsys.readouterr().err
        assert not Path(model).exists()

    @pytest.mark.parametrize("argv,message", [
        (["synth", "--nodes", "5", "--edges", "5", "--seed", "-1"],
         "seed must be nonnegative, got -1"),
        (["synth", "--nodes", "5", "--edges", "5", "--anomalous", "2", "--anomaly-seed", "-3"],
         "--anomaly-seed must be nonnegative, got -3"),
        (["fpr-sim", "--seed", "-2"], "seed must be nonnegative, got -2"),
    ], ids=["synth-seed", "synth-anomaly-seed", "fpr-sim-seed"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_in_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        out = tmp_path / "out.csv"
        assert main(["synth", "--nodes", "5", "--edges", "5", "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        rc = main(["fit", "--train", str(tmp_path / "absent.csv"),
                   "--model", str(tmp_path / "m.adnd")])
        assert rc == 2
        capsys.readouterr()

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\na,b\n")
        rc = main(["fit", "--train", str(bad), "--model", str(tmp_path / "m.adnd")])
        assert rc == 2
        assert "header" in capsys.readouterr().err

    def test_nul_in_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "nul.csv"
        bad.write_text("src,dst\na,b\nc,d\x00\n")
        rc = main(["fit", "--train", str(bad), "--model", str(tmp_path / "m.adnd")])
        assert rc == 2
        assert "nul.csv:3: line contains NUL" in capsys.readouterr().err

    def test_non_utf8_train_file_is_data_error_naming_its_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"src,dst\na,b\nc,caf\xe9\n")
        rc = main(["fit", "--train", str(bad), "--model", str(tmp_path / "m.adnd")])
        assert rc == 2
        assert "latin1.csv:3: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err

    def test_non_utf8_score_file_is_data_error_naming_its_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"src,dst,score,label\na,b,0.5,1\n\nc,caf\xe9,0.25,0\n")
        rc = main(["eval", "--scores", str(bad), "--out-prefix", str(tmp_path / "m")])
        assert rc == 2
        assert "latin1.csv:4: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err

    def test_non_utf8_model_file_is_data_error_naming_it(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.adnd"
        bad.write_bytes(Path(pipeline["model"]).read_bytes().replace(b'["', b'["\xff', 1))
        rc = main(["score", "--model", str(bad), "--edges", pipeline["test"],
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "bad.adnd: not UTF-8 text: 'utf-8' codec can't decode byte 0xff" in (
            capsys.readouterr().err)

    def test_fit_on_header_only_train_file_is_data_error(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("src,dst\n")
        model = tmp_path / "m.adnd"
        assert main(["fit", "--train", str(train), "--model", str(model)]) == 2
        assert "train.csv: no edges; cannot initialize from an empty corpus" in (
            capsys.readouterr().err)
        assert not model.exists()

    def test_detect_on_header_only_calibration_file_is_data_error(self, pipeline, tmp_path,
                                                                  capsys):
        calib = tmp_path / "calib.csv"
        calib.write_text("src,dst\n")
        out = tmp_path / "v.csv"
        rc = main(["detect", "--model", pipeline["model"], "--calib", str(calib),
                   "--test", pipeline["test"], "--out", str(out)])
        assert rc == 2
        assert "calib.csv: no edges; calibration set must not be empty" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("use_labels_file", [False, True])
    @pytest.mark.parametrize("label", ["0", "1"])
    def test_eval_labels_of_one_class_is_data_error(self, tmp_path, capsys, label,
                                                     use_labels_file):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        if use_labels_file:
            scores.write_text("score\n0.5\n0.25\n")
            labels.write_text(f"src,dst,label\na,b,{label}\nc,d,{label}\n")
            argv, named = ["--labels", str(labels)], "labels.csv"
        else:
            scores.write_text(f"src,dst,score,label\na,b,0.5,{label}\nc,d,0.25,{label}\n")
            argv, named = [], "scores.csv"
        rc = main(["eval", "--scores", str(scores), "--out-prefix", str(tmp_path / "m")] + argv)
        assert rc == 2
        assert f"{named}: labels must hold both 0 and 1, got " in capsys.readouterr().err
        assert not (tmp_path / "m_auc.txt").exists()

    def test_a_value_error_from_a_step_propagates(self, pipeline, tmp_path, monkeypatch):
        # only data errors exit 2; any other exception is a bug and shows its traceback
        def broken(*args, **kwargs):
            raise ValueError("a bug in a step")

        monkeypatch.setattr(cli.conformal, "calibration_scores", broken)
        with pytest.raises(ValueError, match="a bug in a step"):
            main(["detect", "--model", pipeline["model"], "--calib", pipeline["calib"],
                  "--test", pipeline["test"], "--out", str(tmp_path / "v.csv")])

    def test_csv_error_in_scores_is_data_error(self, pipeline, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("src,dst,score,label\na,b,0.5,1\nc,d,0.3125,0\n")
        old_limit = csv.field_size_limit(5)
        try:
            rc = main(["eval", "--scores", str(scores), "--out-prefix", str(tmp_path / "m")])
        finally:
            csv.field_size_limit(old_limit)
        assert rc == 2
        assert "scores.csv:3: field larger than field limit" in capsys.readouterr().err

    # csv.DictReader skips blank lines, so counting its rows put the error
    # one line early; the bad row here is on line 4, after a blank line 3.
    def test_eval_bad_label_reports_its_file_line(self, tmp_path, capsys):
        scores = tmp_path / "bad.csv"
        scores.write_text("src,dst,score,label\na,b,0.5,1\n\nc,d,0.25,2\n")
        rc = main(["eval", "--scores", str(scores), "--out-prefix", str(tmp_path / "m")])
        assert rc == 2
        assert "bad.csv:4: label must be 0 or 1, got '2'" in capsys.readouterr().err

    def test_eval_bad_score_reports_its_file_line(self, tmp_path, capsys):
        scores = tmp_path / "bad.csv"
        scores.write_text("src,dst,score,label\na,b,0.5,1\n\nc,d,high,0\n")
        rc = main(["eval", "--scores", str(scores), "--out-prefix", str(tmp_path / "m")])
        assert rc == 2
        assert "bad.csv:4: bad value in column 'score'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_eval_non_finite_score_reports_its_file_line(self, tmp_path, capsys, value):
        scores = tmp_path / "bad.csv"
        scores.write_text(f"src,dst,alpha,label\na,b,0.5,1\n\nc,d,{value},0\n")
        rc = main(["eval", "--scores", str(scores), "--out-prefix", str(tmp_path / "m")])
        assert rc == 2
        assert "bad.csv:4: non-finite value in column 'alpha'" in capsys.readouterr().err

    def test_eval_short_row_names_the_missing_field(self, tmp_path, capsys):
        scores = tmp_path / "bad.csv"
        scores.write_text("src,dst,alpha,label\na,b,0.5,1\nc,d\n")
        rc = main(["eval", "--scores", str(scores), "--out-prefix", str(tmp_path / "m")])
        assert rc == 2
        assert "bad.csv:3: missing field 'alpha'" in capsys.readouterr().err

    def test_eval_labels_beside_a_label_column_is_usage_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("src,dst,alpha,label\na,b,0.5,1\nc,d,0.25,0\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("src,dst,label\na,b,0\nc,d,1\n")
        rc = main(["eval", "--scores", str(scores), "--labels", str(labels),
                   "--out-prefix", str(tmp_path / "m")])
        assert rc == 1
        assert "scores.csv has a label column; drop --labels" in capsys.readouterr().err
        assert not (tmp_path / "m_auc.txt").exists()

    @pytest.mark.parametrize("order", [[1, 0, 2], [0, 2, 1], [2, 1, 0]])
    def test_eval_labels_in_another_row_order_is_data_error(self, tmp_path, capsys, order):
        edges = [("a", "b", 1), ("c", "d", 0), ("e", "f", 0)]
        scores = tmp_path / "scores.csv"
        scores.write_text("src,dst,alpha\na,b,0.5\n\nc,d,0.25\ne,f,0.125\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("src,dst,label\n" + "".join(
            "%s,%s,%d\n" % edges[i] for i in order))
        rc = main(["eval", "--scores", str(scores), "--labels", str(labels),
                   "--out-prefix", str(tmp_path / "m")])
        assert rc == 2
        first = next(k for k, i in enumerate(order) if i != k)
        line = [2, 4, 5][first]
        src, dst, _ = edges[first]
        assert f"scores.csv:{line}: edge {src!r} -> {dst!r} differs from edge" in (
            capsys.readouterr().err)

    def test_eval_labels_match_after_stripping(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text('alpha,dst,src\n0.5, b ,"a "\n0.25,d,c\n')
        labels = tmp_path / "labels.csv"
        labels.write_text("src,dst,label\n a ,b,1\nc, d ,0\n")
        rc = main(["eval", "--scores", str(scores), "--labels", str(labels),
                   "--out-prefix", str(tmp_path / "m")])
        assert rc == 0
        assert "over 2 rows (1 anomalies)" in capsys.readouterr().out

    def test_eval_labels_pair_by_position_without_edge_columns(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("score\n0.5\n0.25\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("src,dst,label\nx,y,1\nu,v,0\n")
        rc = main(["eval", "--scores", str(scores), "--labels", str(labels),
                   "--out-prefix", str(tmp_path / "m")])
        assert rc == 0
        # the higher score carries the anomaly, so the AUC is 0
        assert (tmp_path / "m_auc.txt").read_text() == "0\n"
        capsys.readouterr()

    def test_bad_model_magic_is_data_error(self, pipeline, tmp_path, capsys):
        fake = tmp_path / "fake.adnd"
        fake.write_text("BOGUS\n{}\n")
        rc = main(["score", "--model", str(fake), "--edges", pipeline["test"],
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "model" in capsys.readouterr().err

    def test_eval_without_labels_is_usage_error(self, pipeline, tmp_path, capsys):
        scores = str(tmp_path / "scores.csv")
        assert main(["score", "--model", pipeline["model"],
                     "--edges", pipeline["train"], "--out", scores]) == 0
        rc = main(["eval", "--scores", scores, "--out-prefix", str(tmp_path / "m")])
        assert rc == 1
        assert "label" in capsys.readouterr().err

    def test_eval_unknown_column_is_data_error(self, pipeline, tmp_path, capsys):
        verdicts = str(tmp_path / "v.csv")
        assert main(["detect", "--model", pipeline["model"], "--calib", pipeline["calib"],
                     "--test", pipeline["test"], "--out", verdicts, "--seed", "7"]) == 0
        rc = main(["eval", "--scores", verdicts, "--labels", pipeline["test"],
                   "--score-column", "nope", "--out-prefix", str(tmp_path / "m")])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_synth_zero_nodes_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--nodes", "0", "--edges", "5",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert main(["detect", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--epsilon" in out and "--orientation" in out


# Header names, of which four are score columns; a name may repeat.
_SCORE_HEADER_NAMES = ["src", "dst", "alpha", "score", "p_value", "rhss_score", "label", "x"]
# Fields a column rarely holds: text float() refuses or reads with
# surrounding space or underscores, fields that need quoting, and a bad and
# a padded label.
_ODD_FIELDS = ["", "high", " 0.5 ", "-0.0", "1_0", "a,b", 'say "hi"', "x\ny", "x\r\ny",
               "2", " 1"]


def _csv_field(field, quote):
    if quote or any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


@st.composite
def _score_files(draw):
    """(text, column) of score files with blank lines, quoted fields, LF,
    CRLF or CR line ends, short and long rows, repeated header names and
    often a label column; column is None, a header name or absent."""
    header = draw(st.lists(st.sampled_from(_SCORE_HEADER_NAMES), min_size=1, max_size=5))
    rows = [header]
    for _ in range(draw(st.integers(0, 8))):
        width = draw(st.sampled_from(
            [len(header)] * 8 + [0, len(header) - 1, len(header) + 1]))
        row = []
        for name in (header + ["x"])[:width]:
            if draw(st.integers(0, 19)) == 0:
                row.append(draw(st.sampled_from(_ODD_FIELDS)))
            elif name == "label":
                row.append(draw(st.sampled_from(["0", "1"])))
            else:
                row.append(repr(draw(st.floats(allow_nan=False, allow_infinity=False))))
        rows.append(row)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(_csv_field(f, draw(st.integers(0, 4)) == 0) for f in row)
             for row in rows]
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    return text, draw(st.sampled_from([None, None, "absent"] + header))


def _score_outcome(read, path, column):
    """(score bits, labels) or ("error", "path:line", message); the error
    type, and so eval's exit code, is EdgeCsvError either way."""
    try:
        scores, labels = read(path, column)[:2]
    except EdgeCsvError as err:
        where, _, message = str(err).partition(": ")
        return "error", where, message
    return [float.hex(s) for s in scores.tolist()], (
        None if labels is None else labels.tolist())


@pytest.fixture(scope="module")
def scratch_scores(tmp_path_factory):
    return tmp_path_factory.mktemp("scores") / "scores.csv"


# (bytes, file line of the first byte that is not UTF-8); the reader's
# decoder reads ahead of the rows, 8 KiB at a time
_NON_UTF8_SCORE_FILES = [
    (b"src,dst,score\na,b,0.5\n\xe9,d,0.25\n", 3),
    (b"score\r0.5\r\r0.25\xff\r", 4),
    (b'src,dst,score\n"a\r\nb",c,0.5\nd,e\xe9,1\n', 4),
    (b"score\n" + b"0.5\n" * 5000 + b"\xc3", 5002),
]


class TestScoreFileReader:
    @pytest.mark.parametrize("data,line", _NON_UTF8_SCORE_FILES)
    def test_non_utf8_byte_rejected_with_its_line(self, tmp_path, data, line):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        with pytest.raises(EdgeCsvError, match=rf"latin1.csv:{line}: 'utf-8' codec can't decode"):
            cli._read_score_file(path)

    @settings(max_examples=500, deadline=None)
    @given(file=_score_files())
    def test_same_result_or_error_line_as_dict_reader(self, scratch_scores, file):
        text, column = file
        scratch_scores.write_text(text, encoding="utf-8", newline="")
        got = _score_outcome(cli._read_score_file, scratch_scores, column)
        want = _score_outcome(oracles.read_score_file, scratch_scores, column)
        if want[0] == "error" and "'NoneType'" in want[2]:
            # a short row: the message now names the missing field
            assert got[:2] == want[:2]
            assert got[2].startswith("missing field ")
        else:
            assert got == want


class TestReproducibility:
    """Equal seeds give bit-identical fits at a fixed BLAS thread count, and
    fits at different thread counts agree to a stated tolerance."""

    # Threaded BLAS products may add up in another order, so bits can differ
    # across thread counts: 3 sweeps of the benchmark's wide_fit workload gave
    # final ELBOs 2.5e-16 apart in relative terms.
    ELBO_RTOL = 1e-12

    @staticmethod
    def _fit_in_subprocess(train, model, threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "edgeanomaly", "fit", "--train", str(train),
             "--model", str(model), "--seed", "0", "--max-sweeps", "3", "--rel-tol", "1e-300"],
            env=env, check=True, capture_output=True, timeout=120,
        )
        return load_model(model)

    # Runs the CLI on sys.argv[2:], first pinning this process to one CPU
    # when sys.argv[1] is "1". The package, and so BLAS, is loaded before
    # pinning, so both runs start the same number of BLAS threads.
    _CLI_ON_CPUS = """
import os, sys
from edgeanomaly.cli import main
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.exit(main(sys.argv[2:]))
"""

    def test_fpr_sim_workers_match_one_cpu_under_blas_threads(self, tmp_path):
        # forking after BLAS has started its threads neither hangs nor
        # changes a bit of the result. A pthreads OpenBLAS joins its threads
        # before each fork, so Python 3.12+ must not warn that the process
        # forks while multi-threaded; a BLAS whose threads outlive the fork
        # (an OpenMP build) makes it warn, and this test fail.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        summaries = {}
        for pinned in ("1", "0"):
            out = subprocess.run(
                [sys.executable, "-W", "always::DeprecationWarning", "-c", self._CLI_ON_CPUS,
                 pinned, "fpr-sim", "--nodes", "20",
                 "--n-train", "150", "--n-calib", "150", "--n-test", "40", "--trials", "4",
                 "--epsilons", "0.1,0.5", "--seed", "5", "--max-sweeps", "40",
                 "--out", str(tmp_path / f"fpr_{pinned}.csv")],
                env=env, check=True, capture_output=True, text=True, timeout=120,
            )
            summaries[pinned] = out.stdout.splitlines()[0]
            assert "multi-threaded" not in out.stderr
        assert (tmp_path / "fpr_1.csv").read_bytes() == (tmp_path / "fpr_0.csv").read_bytes()
        assert summaries == {
            "1": "fpr-sim: trials=4 workers=1",
            "0": f"fpr-sim: trials=4 workers={min(4, len(os.sched_getaffinity(0)))}",
        }

    def test_fit_agrees_across_blas_thread_counts(self, tmp_path):
        # a few thousand edges over hundreds of nodes, so the topic products
        # are wide enough for BLAS to split
        rng = np.random.default_rng(11)
        pairs = rng.zipf(1.6, size=(4000, 2)) % 1500
        train = tmp_path / "train.csv"
        train.write_text("src,dst\n" + "".join(f"n{s},n{d}\n" for s, d in pairs))

        one = self._fit_in_subprocess(train, tmp_path / "one.adnd", 1)
        one_again = self._fit_in_subprocess(train, tmp_path / "one_again.adnd", 1)
        two = self._fit_in_subprocess(train, tmp_path / "two.adnd", 2)

        assert (tmp_path / "one.adnd").read_bytes() == (tmp_path / "one_again.adnd").read_bytes()
        assert one.diagnostics.sweeps == two.diagnostics.sweeps == 3
        assert two.diagnostics.elbo_trace[-1] == pytest.approx(
            one.diagnostics.elbo_trace[-1], rel=self.ELBO_RTOL, abs=0.0
        )
