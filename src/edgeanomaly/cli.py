"""Command line front end: fit, score, detect, rhss, eval, synth, fpr-sim.

Exit codes: 0 on success, 1 on usage errors (bad flags, bad config), 2 on
data errors (missing or malformed files, invalid corpora); any other
exception is a bug and propagates with its traceback. Option values
resolve as command line flags first, then `key = value` lines from an
optional config file, then built-in defaults. Every run is driven by one
seed; commands that need several random streams derive them from it.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import adnd, conformal, evaluation, rhss
from .graph_core import (
    EdgeCsvError,
    corpus_from_pairs,
    format_float,
    quote_labels,
    read_edge_records,
    read_text,
    write_edge_csv,
    write_rows,
)

__all__ = ["RunConfig", "UsageError", "load_config_file", "main"]


class UsageError(Exception):
    """Bad invocation: unknown flags, malformed config, out-of-range values."""


# A negative float as Python writes it: a decimal with an optional exponent,
# or an infinity or NaN.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # _negative_number_matcher is a private argparse attribute: an argument
        # that starts with "-" and that it does not match is read as a flag.
        # argparse's own pattern matches only forms like -1 and -0.5, so
        # "--rel-tol -1e-5" would fail with "expected one argument".
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


@dataclass(frozen=True)
class RunConfig:
    """Every tunable shared across commands, with validated defaults."""

    eta: float = 1.0
    gamma: float = 1.0
    tau: float = 1.0
    kh: int = 50
    ka: int = 15
    kb: int = 15
    epsilon: float = 0.05
    orientation: str = "power-corrected"
    seed: int = 0
    max_sweeps: int = 200
    rel_tol: float = 1e-5

    def __post_init__(self):
        try:
            self.hyper()
            self.trunc()
        except ValueError as err:
            raise UsageError(str(err)) from err
        if not 0.0 < self.epsilon < 1.0:
            raise UsageError("epsilon must lie strictly between 0 and 1")
        if self.orientation not in conformal.ORIENTATIONS:
            raise UsageError(
                f"orientation must be one of {conformal.ORIENTATIONS}, "
                f"got {self.orientation!r}"
            )
        if self.max_sweeps < 1:
            raise UsageError("max_sweeps must be at least 1")
        if not 0.0 < self.rel_tol < math.inf:  # NaN fails both comparisons
            raise UsageError("rel_tol must be positive and finite")
        if self.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.seed}")

    def hyper(self) -> adnd.HyperParams:
        return adnd.HyperParams(eta=self.eta, gamma=self.gamma, tau=self.tau)

    def trunc(self) -> adnd.TruncationLevels:
        return adnd.TruncationLevels(k_h=self.kh, k_a=self.ka, k_b=self.kb)


_CONFIG_CASTS = {f.name: type(f.default) for f in fields(RunConfig)}


def load_config_file(path) -> dict:
    """Parse flat `key = value` lines; # starts a comment, blanks are skipped."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in _CONFIG_CASTS:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    values[key] = _CONFIG_CASTS[key](value)
                except ValueError as err:
                    raise UsageError(f"{path}:{lineno}: bad value for {key}: {err}") from err
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    return values


def _resolve_config(args) -> RunConfig:
    """Merge flag values over config file values over defaults."""
    file_values = load_config_file(args.config) if args.config else {}
    merged = dict(file_values)
    for name in _CONFIG_CASTS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
    return RunConfig(**merged)


def _add_config_flags(parser, *, model_flags=False, fit_flags=False,
                      epsilon_flag=False, orientation_flag=False):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int)
    if model_flags:
        parser.add_argument("--eta", type=float, help="topic concentration")
        parser.add_argument("--gamma", type=float, help="shared stick concentration")
        parser.add_argument("--tau", type=float, help="per-side stick concentration")
        parser.add_argument("--kh", type=int, help="shared topic truncation")
        parser.add_argument("--ka", type=int, help="sender atom truncation")
        parser.add_argument("--kb", type=int, help="receiver atom truncation")
    if fit_flags:
        parser.add_argument("--max-sweeps", dest="max_sweeps", type=int)
        parser.add_argument("--rel-tol", dest="rel_tol", type=float)
    if epsilon_flag:
        parser.add_argument("--epsilon", type=float, help="flagging threshold")
    if orientation_flag:
        parser.add_argument(
            "--orientation", choices=list(conformal.ORIENTATIONS), default=None
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="edgeanomaly", description=__doc__)
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_fit = commands.add_parser("fit", help="fit a model on an edge CSV")
    p_fit.add_argument("--train", required=True, help="training edge CSV")
    p_fit.add_argument("--model", required=True, help="output model path")
    _add_config_flags(p_fit, model_flags=True, fit_flags=True)
    p_fit.set_defaults(func=_cmd_fit)

    p_score = commands.add_parser("score", help="nonconformity score per edge")
    p_score.add_argument("--model", required=True)
    p_score.add_argument("--edges", required=True, help="edge CSV to score")
    p_score.add_argument("--out", required=True, help="output CSV")
    p_score.set_defaults(func=_cmd_score)

    p_detect = commands.add_parser("detect", help="conformal verdicts per edge")
    p_detect.add_argument("--model", required=True)
    p_detect.add_argument("--calib", required=True, help="calibration edge CSV")
    p_detect.add_argument("--test", required=True, help="test edge CSV")
    p_detect.add_argument("--out", required=True, help="output CSV")
    _add_config_flags(p_detect, epsilon_flag=True, orientation_flag=True)
    p_detect.set_defaults(func=_cmd_detect)

    p_rhss = commands.add_parser("rhss", help="baseline scores per edge")
    p_rhss.add_argument("--train", required=True, help="history edge CSV")
    p_rhss.add_argument("--test", required=True, help="edge CSV to score")
    p_rhss.add_argument("--out", required=True, help="output CSV")
    p_rhss.set_defaults(func=_cmd_rhss)

    p_eval = commands.add_parser("eval", help="ranking metrics from scored edges")
    p_eval.add_argument("--scores", required=True, help="CSV with a score column")
    p_eval.add_argument("--out-prefix", dest="out_prefix", required=True)
    p_eval.add_argument("--labels", help="labeled edge CSV, in the row order of --scores")
    p_eval.add_argument("--score-column", dest="score_column")
    p_eval.add_argument(
        "--invert",
        action="store_true",
        help="negate scores first (for columns where higher means more anomalous)",
    )
    p_eval.set_defaults(func=_cmd_eval)

    p_synth = commands.add_parser("synth", help="sample a synthetic edge CSV")
    p_synth.add_argument("--nodes", type=int, required=True)
    p_synth.add_argument("--edges", type=int, required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument(
        "--anomalous",
        type=int,
        default=0,
        help="append this many edges from an independent parameter draw, with labels",
    )
    p_synth.add_argument(
        "--anomaly-seed",
        dest="anomaly_seed",
        type=int,
        default=None,
        help="seed for the anomalous draw (default: seed + 1)",
    )
    _add_config_flags(p_synth, model_flags=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_fpr = commands.add_parser("fpr-sim", help="false positive rate simulation")
    p_fpr.add_argument("--nodes", type=int, default=30)
    p_fpr.add_argument("--n-train", dest="n_train", type=int, default=363)
    p_fpr.add_argument("--n-calib", dest="n_calib", type=int, default=363)
    p_fpr.add_argument("--n-test", dest="n_test", type=int, default=2000)
    p_fpr.add_argument(
        "--epsilons", default="0.01,0.05,0.1,0.2", help="comma-separated thresholds"
    )
    p_fpr.add_argument("--trials", type=int, default=1)
    p_fpr.add_argument("--out", required=True, help="output CSV")
    _add_config_flags(p_fpr, model_flags=True, fit_flags=True, orientation_flag=True)
    p_fpr.set_defaults(func=_cmd_fpr_sim)

    return parser


def _cmd_fit(args) -> int:
    cfg = _resolve_config(args)
    corpus = _read_corpus(args.train)
    if corpus.n == 0:
        raise EdgeCsvError(f"{args.train}: no edges; cannot initialize from an empty corpus")
    model = adnd.fit(
        corpus,
        cfg.hyper(),
        cfg.trunc(),
        max_sweeps=cfg.max_sweeps,
        rel_tol=cfg.rel_tol,
        seed=cfg.seed,
    )
    adnd.save_model(model, args.model)
    diag = model.diagnostics
    effective = np.count_nonzero(model.topic_weights > 1e-3)
    print(
        f"fit: {corpus.n} edges, {corpus.vocab.num_nodes} nodes, "
        f"{diag.sweeps} sweeps, converged={diag.converged}, "
        f"elbo={format_float(diag.elbo_trace[-1])}, effective_topics={effective}"
    )
    return 0


# Rows of `score` and `rhss`, and of `detect`: the two quoted node labels,
# then the values, ending in LF.
_SCORE_ROW = "%s,%s,%.17g\n"
_VERDICT_ROW = "%s,%s,%.17g,%.17g,%d\n"


def _cmd_score(args) -> int:
    model = adnd.load_model(args.model)
    senders, receivers, _ = read_edge_records(args.edges)
    corpus = corpus_from_pairs(senders, receivers, model.vocab)
    scores = [conformal.nonconformity_score(model, edge) for edge in corpus]
    write_rows(args.out, "src,dst,alpha\n", _SCORE_ROW,
               quote_labels(senders), quote_labels(receivers), scores)
    print(f"score: wrote {len(scores)} rows to {args.out}")
    return 0


def _cmd_detect(args) -> int:
    cfg = _resolve_config(args)
    model = adnd.load_model(args.model)
    calib_corpus = _read_corpus(args.calib, model.vocab)
    if calib_corpus.n == 0:
        raise EdgeCsvError(f"{args.calib}: no edges; calibration set must not be empty")
    senders, receivers, _ = read_edge_records(args.test)
    test_corpus = corpus_from_pairs(senders, receivers, model.vocab)
    calib = conformal.calibration_scores(model, calib_corpus)
    verdicts = conformal.detect_corpus(
        model, calib, test_corpus, cfg.epsilon, cfg.seed, cfg.orientation
    )
    write_rows(args.out, "src,dst,alpha,p_value,anomalous\n", _VERDICT_ROW,
               quote_labels(senders), quote_labels(receivers), verdicts.scores.tolist(),
               verdicts.p_values.tolist(), verdicts.flagged.tolist())
    flagged = int(verdicts.flagged.sum())
    print(
        f"detect: {flagged} of {len(senders)} edges flagged at "
        f"epsilon={cfg.epsilon:g} ({cfg.orientation})"
    )
    return 0


def _cmd_rhss(args) -> int:
    train_corpus = _read_corpus(args.train)
    history = rhss.StreamHistory.from_corpus(train_corpus)
    senders, receivers, _ = read_edge_records(args.test)
    test_corpus = corpus_from_pairs(senders, receivers, train_corpus.vocab)
    scores = [history.rhss_score(edge) for edge in test_corpus]
    write_rows(args.out, "src,dst,rhss_score\n", _SCORE_ROW,
               quote_labels(senders), quote_labels(receivers), scores)
    print(f"rhss: wrote {len(scores)} rows to {args.out}")
    return 0


_SCORE_COLUMNS = ("p_value", "rhss_score", "alpha", "score")


def _cmd_eval(args) -> int:
    scores, labels = _read_score_file(args.scores, args.score_column, args.labels)
    if args.invert:
        scores = -scores
    if labels is None:
        raise UsageError("eval needs labels: a label column in --scores or --labels")
    if len(labels) != len(scores):
        raise EdgeCsvError(
            f"label count {len(labels)} does not match score count {len(scores)}"
        )
    if labels.all() or not labels.any():
        raise EdgeCsvError(
            f"{args.labels or args.scores}: labels must hold both 0 and 1, "
            f"got {int(labels.sum())} anomalies in {len(labels)} rows"
        )

    labeled = evaluation.LabeledScores(scores, labels)
    _, precision, recall = evaluation.precision_recall_at_k(labeled)
    fpr, tpr = evaluation.roc_points(labeled)
    area = evaluation.auc(fpr, tpr)

    evaluation.write_curve_csv(
        f"{args.out_prefix}_pr.csv",
        recall,
        precision,
        "precision-recall (x=recall, y=precision)",
    )
    evaluation.write_curve_csv(
        f"{args.out_prefix}_roc.csv",
        fpr,
        tpr,
        "roc (x=false positive rate, y=true positive rate)",
    )
    with open(f"{args.out_prefix}_auc.txt", "w", encoding="utf-8") as fh:
        fh.write(format_float(area) + "\n")
    print(f"eval: auc={format_float(area)} over {labeled.n} rows "
          f"({labeled.num_anomalies} anomalies)")
    return 0


def _read_score_file(path, column=None, labels_path=None):
    """The score column of a CSV file, and its labels, or None without any.

    With `column` None, the first of _SCORE_COLUMNS in the header is read.
    Blank rows are skipped, and a name that repeats in the header reads its
    last column. Every score must be finite; each error names the file line
    of its row. All scores are checked before any label.

    The labels come from the file's label column, or else from the labeled
    edge CSV at labels_path; a file with both raises UsageError. When the
    header has src and dst, the labeled edges must match them row by row,
    whitespace stripped; the first row that differs raises EdgeCsvError
    naming its line. Without src and dst, rows pair by position only.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise EdgeCsvError(f"{path}: missing header row")
            rows, lines = [], []  # each nonblank row and the file line it ends on
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
        except csv.Error as err:  # an over-long field, or NUL before Python 3.11
            raise EdgeCsvError(f"{path}:{reader.line_num}: {err}") from err
        except UnicodeDecodeError as err:
            # the decoder reads ahead of the rows, so the line comes from
            # read_text, which raises unless the file has changed since
            read_text(path)
            raise EdgeCsvError(f"{path}: {err}") from err
    index = {name: i for i, name in enumerate(header)}  # a repeat keeps its last
    if column is None:
        column = next((c for c in _SCORE_COLUMNS if c in index), None)
        if column is None:
            raise EdgeCsvError(
                f"{path}: no score column among {_SCORE_COLUMNS}; use --score-column"
            )
    elif column not in index:
        raise EdgeCsvError(f"{path}: no column named {column!r}")
    if labels_path and "label" in index:
        raise UsageError(f"{path} has a label column; drop --labels {labels_path}")
    at = index[column]
    scores = np.empty(len(rows))
    for i, (row, line) in enumerate(zip(rows, lines)):
        if at >= len(row):
            raise EdgeCsvError(
                f"{path}:{line}: missing field {column!r}: "
                f"the row has {len(row)} of the header's {len(header)} fields"
            )
        try:
            value = float(row[at])
        except ValueError as err:
            raise EdgeCsvError(
                f"{path}:{line}: bad value in column {column!r}: {err}"
            ) from err
        if not math.isfinite(value):
            raise EdgeCsvError(f"{path}:{line}: non-finite value in column {column!r}")
        scores[i] = value
    if labels_path:
        edges = None
        if "src" in index and "dst" in index:
            edges = [[row[at].strip() if at < len(row) else "" for row in rows]
                     for at in (index["src"], index["dst"])]
        del rows  # freed before the labels file is read, as with no --labels
        return scores, _edge_labels(labels_path, path, edges, lines)
    if "label" not in index:
        return scores, None
    at = index["label"]
    labels = []
    for row, line in zip(rows, lines):
        value = row[at].strip() if at < len(row) else ""
        if value not in ("0", "1"):
            raise EdgeCsvError(f"{path}:{line}: label must be 0 or 1, got {value!r}")
        labels.append(value == "1")
    return scores, np.array(labels, dtype=bool)


def _edge_labels(labels_path, path, edges, lines) -> np.ndarray:
    """The label column of the edge CSV at labels_path, its edges checked
    against `edges`, the score file's src and dst columns, unless None."""
    senders, receivers, labels = read_edge_records(labels_path)
    if labels is None:
        raise EdgeCsvError(f"{labels_path}: has no label column")
    if edges is not None:
        for k, (line, src, dst, sender, receiver) in enumerate(
            zip(lines, *edges, senders, receivers), start=1
        ):
            if (src, dst) != (sender, receiver):
                raise EdgeCsvError(
                    f"{path}:{line}: edge {src!r} -> {dst!r} differs from edge "
                    f"{sender!r} -> {receiver!r} in row {k} of {labels_path}"
                )
    return labels


def _cmd_synth(args) -> int:
    cfg = _resolve_config(args)
    if args.nodes < 1 or args.edges < 1:
        raise UsageError("--nodes and --edges must be positive")
    if args.anomalous < 0:
        raise UsageError("--anomalous must be nonnegative")
    if args.anomaly_seed is not None and args.anomaly_seed < 0:
        raise UsageError(f"--anomaly-seed must be nonnegative, got {args.anomaly_seed}")
    corpus = adnd.sample_edges(cfg.hyper(), cfg.trunc(), args.nodes, args.edges, cfg.seed)
    senders, receivers = _label_columns(corpus)
    if args.anomalous == 0:
        write_edge_csv(args.out, senders, receivers)
        print(f"synth: wrote {corpus.n} edges to {args.out}")
        return 0
    anomaly_seed = args.anomaly_seed if args.anomaly_seed is not None else cfg.seed + 1
    anomalies = adnd.sample_edges(
        cfg.hyper(), cfg.trunc(), args.nodes, args.anomalous, anomaly_seed
    )
    anomalous_senders, anomalous_receivers = _label_columns(anomalies)
    labels = [False] * corpus.n + [True] * anomalies.n
    write_edge_csv(args.out, senders + anomalous_senders,
                   receivers + anomalous_receivers, labels)
    print(
        f"synth: wrote {corpus.n} regular + {anomalies.n} anomalous edges to {args.out}"
    )
    return 0


def _label_columns(corpus) -> tuple[list[str], list[str]]:
    """The node labels of a corpus's senders and of its receivers."""
    names = corpus.vocab.labels
    return ([names[u] for u in corpus.senders.tolist()],
            [names[v] for v in corpus.receivers.tolist()])


def _cmd_fpr_sim(args) -> int:
    cfg = _resolve_config(args)
    try:
        epsilons = [float(x) for x in args.epsilons.split(",") if x.strip()]
    except ValueError as err:
        raise UsageError(f"bad --epsilons: {err}") from err
    if not epsilons or any(not 0.0 < e < 1.0 for e in epsilons):
        raise UsageError("--epsilons must list values strictly between 0 and 1")
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    if min(args.nodes, args.n_train, args.n_calib, args.n_test) < 1:
        raise UsageError("--nodes and split sizes must be positive")
    points = evaluation.fpr_simulation(
        cfg.hyper(),
        cfg.trunc(),
        args.nodes,
        args.n_train,
        args.n_calib,
        args.n_test,
        epsilons,
        args.trials,
        cfg.seed,
        cfg.orientation,
        max_sweeps=cfg.max_sweeps,
        rel_tol=cfg.rel_tol,
    )
    evaluation.write_fpr_csv(args.out, points)
    print(f"fpr-sim: trials={args.trials} workers={evaluation.trial_workers(args.trials)}")
    for point in points:
        print(
            f"fpr-sim: epsilon={format_float(point.epsilon)} "
            f"fpr={format_float(point.fpr)} stderr={format_float(point.stderr)} "
            f"n={point.n_test}"
        )
    return 0


def _read_corpus(path, vocab=None):
    senders, receivers, _ = read_edge_records(path)
    return corpus_from_pairs(senders, receivers, vocab)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(err, file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        print(parser.format_usage(), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (EdgeCsvError, adnd.ModelFormatError, OSError) as err:
        # any other exception is a bug, and its traceback is shown
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
