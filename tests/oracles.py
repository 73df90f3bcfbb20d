"""Deliberately naive reference implementations that the kernels are checked
against.

Each oracle is written for plainness, not speed: explicit loops in a fixed
order, so a reader can see what the fast kernel must reproduce.
"""

import csv
import json
from collections import Counter, defaultdict

import numpy as np
from scipy.special import digamma, xlogy

from edgeanomaly.adnd import fit, sample_edges
from edgeanomaly.conformal import (
    _positive_uniform,
    calibration_scores,
    conformal_p_values,
    nonconformity_score,
)
from edgeanomaly.evaluation import FprPoint
from edgeanomaly.graph_core import (
    Edge,
    EdgeCsvError,
    _split_by_count,
    format_float,
    quote_labels,
)

_HEADER_PLAIN = ["src", "dst"]
_HEADER_LABELED = ["src", "dst", "label"]


def conformal_p_value(score, calib, u, orientation="power-corrected"):
    """Smoothed p-value of one test score, by counting the calibration
    scores one at a time.

    The pooled set is the calibration scores plus the test score, so the
    tie count starts at one; strict counts scores above the test score for
    "power-corrected" and below it for "paper". The result is
    (strict + u * ties) / (n + 1), the arithmetic conformal_p_values must
    reproduce bit for bit. Inputs are not validated.
    """
    scores = [float(s) for s in np.ravel(getattr(calib, "scores", calib))]
    above = sum(1 for s in scores if s > score)
    below = sum(1 for s in scores if s < score)
    ties = 1 + sum(1 for s in scores if s == score)
    strict = below if orientation == "paper" else above
    return (strict + u * ties) / (len(scores) + 1)


def tie_broken_rank(values, index, u_draws):
    """Ascending rank of values[index] after a shared tie-breaking jitter.

    Distinct values rank directly. Otherwise every value moves by xi times
    its own draw from (-1, 1), where xi is half the smallest gap between
    distinct values (one when all values are equal), which is small enough
    to never reorder distinct values.
    """
    values = [float(v) for v in values]
    distinct = sorted(set(values))
    if len(distinct) == len(values):
        moved = values
    else:
        gaps = [hi - lo for lo, hi in zip(distinct, distinct[1:])]
        jitter_scale = min(gaps) / 2.0 if gaps else 1.0
        moved = [v + jitter_scale * float(u) for v, u in zip(values, u_draws)]
    return sum(1 for m in moved if m <= moved[index])


def sender_marginal(params):
    """Node distribution of senders given a SamplerParams draw."""
    return params.send_weights @ params.topics[params.send_atoms]


def receiver_marginal(params):
    """Node distribution of receivers given a SamplerParams draw."""
    return params.recv_weights @ params.topics[params.recv_atoms]


def sequence_log_density(params, corpus):
    """Joint log density of an edge sequence given a SamplerParams draw.

    A sum of one term per endpoint, taken edge by edge in corpus order, so
    any permutation of the sequence has the same value up to round-off.
    """
    send = sender_marginal(params)
    recv = receiver_marginal(params)
    total = 0.0
    for sender, receiver in zip(corpus.senders.tolist(), corpus.receivers.tolist()):
        total += np.log(send[sender]) + np.log(recv[receiver])
    return float(total)


def dirichlet_log_expectation(alpha):
    """Rowwise E[log p] for Dirichlet-distributed rows with parameters alpha:
    digamma of each entry minus digamma of its row's sum."""
    alpha = np.asarray(alpha, dtype=float)
    return digamma(alpha) - digamma(alpha.sum(axis=-1, keepdims=True))


def token_counts(edge_resp, tokens, dim):
    """Responsibility-weighted token counts, shape (num_atoms, dim).

    Walks the edges in order and adds each edge's responsibility row onto
    its token's row, starting from zeros. That is the order of
    np.add.at(counts, tokens, edge_resp), which the fit used before it
    counted through an incidence matrix, so float sums round the same way.
    """
    edge_resp = np.asarray(edge_resp, dtype=float)
    counts = np.zeros((dim, edge_resp.shape[1]))
    for edge, token in enumerate(tokens):
        for atom in range(edge_resp.shape[1]):
            counts[token, atom] += edge_resp[edge, atom]
    return counts.T


def slot_statistics(slot_count, slot_resp):
    """One side's token counts (k, W+1), column mass (k,) and entropy, from
    its (W+1, k) slot responsibilities and slot_count[w] edges on slot w.

    Every edge on a slot holds that slot's row. Walks the slots in order and
    adds each slot's weighted row and weighted x log x terms onto running
    totals per atom, starting from zeros. The entropy's last step, the sum
    of the k per-atom totals, is numpy's, as in the kernel: a loop could not
    show how numpy sums eight or more entries in blocks.
    """
    slot_resp = np.asarray(slot_resp, dtype=float)
    dim, k = slot_resp.shape
    counts = np.zeros((k, dim))
    mass = np.zeros(k)
    atom_terms = np.zeros(k)
    for slot in range(dim):
        for atom in range(k):
            p = slot_resp[slot, atom]
            counts[atom, slot] = slot_count[slot] * p
            mass[atom] += counts[atom, slot]
            atom_terms[atom] += slot_count[slot] * xlogy(p, p)
    return counts, mass, -float(atom_terms.sum())


def edge_responsibilities(atom_token_score, elog_side, tokens):
    """Each edge's responsibilities over one side's atoms, shape (n, k).

    The per-edge kernel that the document update ran before it normalized
    one row per node slot: gather every edge's logits into an (n, k) matrix,
    add the expected log stick weights, subtract each row's maximum, and
    normalize the exponentials. numpy lays out atom_token_score[:, tokens].T
    C-ordered, so each row sum here rounds the way numpy sums a contiguous
    row. These are the bits the fit must reproduce; a loop could not show
    them, since numpy sums rows of eight or more entries in blocks.
    """
    logits = atom_token_score[:, tokens].T + elog_side
    logits = logits - logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=1, keepdims=True)


def save_model_v1(model, path):
    """Write a fitted model in the ADND1 format, which save_model replaced.

    Every float, topic_node included, is a C99 hex-float string, one list
    per topic row. load_model still reads these files, and tests write them
    with this oracle to check that it does.
    """
    def hex_list(values):
        return [float(v).hex() for v in values]

    payload = {
        "version": 1,
        "vocab_labels": list(model.vocab.labels),
        "hyper": {"eta": model.hyper.eta, "gamma": model.hyper.gamma, "tau": model.hyper.tau},
        "trunc": {"k_h": model.trunc.k_h, "k_a": model.trunc.k_a, "k_b": model.trunc.k_b},
        "topic_node": [hex_list(row) for row in model.topic_node],
        "topic_weights": hex_list(model.topic_weights),
        "diagnostics": {
            "elbo_trace": hex_list(model.diagnostics.elbo_trace),
            "sweeps": model.diagnostics.sweeps,
            "converged": model.diagnostics.converged,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ADND1\n")
        json.dump(payload, fh)
        fh.write("\n")


def read_edge_records(path):
    """The edge-list reader before the bulk path: csv.reader, row by row.

    Every field is stripped, blank rows are skipped, and each error names
    the row's line. graph_core.read_edge_records must return what this
    returns, or raise the same EdgeCsvError, for any file without a NUL.
    """
    pairs: list[tuple[str, str]] = []
    labels: list[bool] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EdgeCsvError(f"{path}: missing header row")
        header = [field.strip() for field in header]
        if header == _HEADER_PLAIN:
            labeled = False
        elif header == _HEADER_LABELED:
            labeled = True
        else:
            raise EdgeCsvError(
                f"{path}: bad header {','.join(header)!r}, expected src,dst or src,dst,label"
            )
        expected = 3 if labeled else 2
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            row = [field.strip() for field in row]
            if len(row) != expected or any(field == "" for field in row):
                raise EdgeCsvError(
                    f"{path}:{lineno}: expected {expected} nonempty fields, got {len(row)}"
                )
            if labeled:
                if row[2] not in ("0", "1"):
                    raise EdgeCsvError(
                        f"{path}:{lineno}: label must be 0 or 1, got {row[2]!r}"
                    )
                labels.append(row[2] == "1")
            pairs.append((row[0], row[1]))
    return pairs, (np.array(labels, dtype=bool) if labeled else None)


def read_score_file(path, column=None):
    """The eval score reader before it read rows with csv.reader:
    csv.DictReader, one dict per row.

    Returns (scores, labels), labels None without a label column, or raises
    EdgeCsvError naming the file line of the first bad row; every score is
    parsed before any label. It does not check that scores are finite, and
    a short row fails float(None). cli._read_score_file must return the
    same arrays, and raise at the same line, for every finite score file.
    """
    score_columns = ("p_value", "rhss_score", "alpha", "score")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                raise EdgeCsvError(f"{path}: missing header row")
            rows, lines = [], []  # each row and the file line it ends on
            for row in reader:  # DictReader skips blank lines
                rows.append(row)
                lines.append(reader.line_num)
        except csv.Error as err:
            raise EdgeCsvError(f"{path}:{reader.reader.line_num}: {err}") from err
    if column is None:
        column = next((c for c in score_columns if c in reader.fieldnames), None)
        if column is None:
            raise EdgeCsvError(
                f"{path}: no score column among {score_columns}; use --score-column"
            )
    elif column not in reader.fieldnames:
        raise EdgeCsvError(f"{path}: no column named {column!r}")
    scores = np.empty(len(rows))
    for i, (row, line) in enumerate(zip(rows, lines)):
        try:
            scores[i] = float(row[column])
        except (TypeError, ValueError) as err:
            raise EdgeCsvError(
                f"{path}:{line}: bad value in column {column!r}: {err}"
            ) from err
    if "label" not in reader.fieldnames:
        return scores, None
    labels = []
    for row, line in zip(rows, lines):
        value = (row.get("label") or "").strip()
        if value not in ("0", "1"):
            raise EdgeCsvError(f"{path}:{line}: label must be 0 or 1, got {value!r}")
        labels.append(value == "1")
    return scores, np.array(labels, dtype=bool)


def intern_pairs(pairs, vocab):
    """(senders, receivers) of (src, dst) label pairs, one label at a time.

    Interns, or resolves when the vocabulary is frozen, each pair's sender
    and then its receiver, in order, which fixes the vocabulary's order.
    """
    if vocab.frozen:
        lookup = vocab.resolve
    else:
        lookup = vocab.intern
    senders, receivers = [], []
    for src, dst in pairs:
        senders.append(lookup(src))
        receivers.append(lookup(dst))
    return senders, receivers


class StreamHistory:
    """Running counts over an observed edge multiset, one edge at a time.

    rhss.StreamHistory before it was built once from corpus arrays: every
    count folded in by `observe`, with the three component scores as
    methods. rhss.StreamHistory.from_corpus(corpus).rhss_score(edge) must
    equal fold_history(StreamHistory(), ...).rhss_score(edge) bit for bit.
    """

    def __init__(self):
        self.edge_counts: Counter = Counter()
        self.out_degree: Counter = Counter()
        self.in_degree: Counter = Counter()
        self.out_neighbors: defaultdict = defaultdict(set)
        self.in_neighbors: defaultdict = defaultdict(set)
        self.total_edges = 0

    def observe(self, edge: Edge) -> "StreamHistory":
        """Fold one edge into every count; returns self for chaining."""
        pair = (edge.sender, edge.receiver)
        self.edge_counts[pair] += 1
        self.out_degree[edge.sender] += 1
        self.in_degree[edge.receiver] += 1
        self.out_neighbors[edge.sender].add(edge.receiver)
        self.in_neighbors[edge.receiver].add(edge.sender)
        self.total_edges += 1
        return self

    def validate(self) -> None:
        """Cross-check the redundant state; raise on any mismatch.

        The edge counts must sum to total_edges, each degree must be its
        node's sum of edge counts, and each neighbour set must hold the
        nodes its edge counts pair it with.
        """
        if sum(self.edge_counts.values()) != self.total_edges:
            raise ValueError("edge counts do not sum to total_edges")
        out_degree, in_degree = Counter(), Counter()
        out_neighbors, in_neighbors = defaultdict(set), defaultdict(set)
        for (sender, receiver), count in self.edge_counts.items():
            out_degree[sender] += count
            in_degree[receiver] += count
            out_neighbors[sender].add(receiver)
            in_neighbors[receiver].add(sender)
        for name, kept, derived in (
            ("out degrees", self.out_degree, out_degree),
            ("in degrees", self.in_degree, in_degree),
            ("out neighbors", self.out_neighbors, out_neighbors),
            ("in neighbors", self.in_neighbors, in_neighbors),
        ):
            if dict(kept) != dict(derived):
                raise ValueError(f"{name} do not match the edge counts")

    def sample_score(self, edge: Edge) -> float:
        """Add-one smoothed frequency of the exact (sender, receiver) pair.

        An empty history scores every edge 1; an unseen pair among m edges
        scores 1 / (m + 1).
        """
        count = self.edge_counts[(edge.sender, edge.receiver)]
        return (count + 1.0) / (self.total_edges + 1.0)

    def preferential_attachment_score(self, edge: Edge) -> float:
        """Product of the endpoints' degree fractions; 0 on an empty history."""
        if self.total_edges == 0:
            return 0.0
        return (
            self.out_degree[edge.sender] * self.in_degree[edge.receiver]
        ) / float(self.total_edges * self.total_edges)

    def homophily_score(self, edge: Edge) -> float:
        """Jaccard overlap of sender out-neighbors and receiver in-neighbors.

        Defined as 0 when both neighborhoods are empty.
        """
        out_nb = self.out_neighbors.get(edge.sender, set())
        in_nb = self.in_neighbors.get(edge.receiver, set())
        union = len(out_nb | in_nb)
        if union == 0:
            return 0.0
        return len(out_nb & in_nb) / union

    def rhss_score(self, edge: Edge) -> float:
        """Unweighted mean of the three component scores."""
        return (
            self.sample_score(edge)
            + self.preferential_attachment_score(edge)
            + self.homophily_score(edge)
        ) / 3.0


def fold_history(history, senders, receivers):
    """Observe each (sender, receiver) edge in turn; returns the history."""
    for sender, receiver in zip(senders, receivers):
        history.observe(Edge(sender, receiver))
    return history


def fpr_simulation(hyper, trunc, num_nodes, n_train, n_calib, n_test, epsilons,
                   trials, seed, orientation="power-corrected", *, max_sweeps=200,
                   rel_tol=1e-5):
    """evaluation.fpr_simulation as one loop over the trials in this process.

    Each trial draws its corpus, splits, fits, scores and counts the test
    edges flagged at each epsilon; the counts add up in trial order. Given
    distinct epsilons, evaluation.fpr_simulation must return these points
    bit for bit, however many processes it runs the trials in.
    """
    epsilons = [float(e) for e in epsilons]
    flagged = {e: 0 for e in epsilons}
    total = 0
    n_pool = n_train + n_calib
    for trial_seq in np.random.SeedSequence(seed).spawn(trials):
        sample_seed, split_seed, fit_seed, u_seed = trial_seq.spawn(4)
        corpus = sample_edges(
            hyper, trunc, num_nodes, n_pool + n_test, sample_seed
        )
        pool = corpus.subset(slice(None, n_pool))
        test = corpus.subset(slice(n_pool, None))
        train, calib = _split_by_count(pool, n_calib, split_seed)
        model = fit(
            train, hyper, trunc, max_sweeps=max_sweeps, rel_tol=rel_tol, seed=fit_seed
        )
        calib_set = calibration_scores(model, calib)
        test_scores = np.array(
            [nonconformity_score(model, edge) for edge in test]
        )
        u_draws = _positive_uniform(
            np.random.default_rng(u_seed), size=test_scores.size
        )
        p_values = conformal_p_values(test_scores, calib_set, u_draws, orientation)
        for e in epsilons:
            flagged[e] += int(np.count_nonzero(p_values <= e))
        total += test_scores.size

    points = []
    for e in epsilons:
        rate = flagged[e] / total
        stderr = float(np.sqrt(rate * (1.0 - rate) / total))
        points.append(FprPoint(epsilon=e, fpr=rate, stderr=stderr, n_test=total))
    return points


def write_curve_csv(path, xs, ys, curve_name):
    """The curve writer before it formatted whole rows: csv.writer's CRLF
    rows, one format_float call per value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {curve_name}\n")
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        writer.writerows([format_float(x), format_float(y)] for x, y in zip(xs, ys))


def write_score_csv(path, pairs, column, scores):
    """The score writer before it formatted whole rows: one format_float
    call and one write per row, LF row ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"src,dst,{column}\n")
        for (src, dst), value in zip(pairs, scores):
            src, dst = quote_labels([src, dst])
            fh.write(f"{src},{dst},{format_float(value)}\n")


def write_verdict_csv(path, pairs, verdicts):
    """The detect writer before it formatted whole rows: one format_float
    call per value and one write per row, LF row ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("src,dst,alpha,p_value,anomalous\n")
        rows = zip(pairs, verdicts.scores.tolist(),
                   verdicts.p_values.tolist(), verdicts.flagged.tolist())
        for (src, dst), score, p_value, flag in rows:
            src, dst = quote_labels([src, dst])
            fh.write(f"{src},{dst},{format_float(score)},{format_float(p_value)},{int(flag)}\n")


def write_edge_csv(path, pairs, labels=None):
    """The edge writer before it formatted whole rows: csv.writer's CRLF
    rows of (src, dst) label pairs, each flag written as int(bool(flag))."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if labels is None:
            writer.writerow(_HEADER_PLAIN)
            writer.writerows(pairs)
        else:
            if len(labels) != len(pairs):
                raise ValueError("labels and pairs must have equal length")
            writer.writerow(_HEADER_LABELED)
            for (src, dst), flag in zip(pairs, labels):
                writer.writerow([src, dst, int(bool(flag))])


def write_fpr_csv(path, points):
    """The fpr writer before it formatted whole rows: csv.writer's CRLF
    rows, one format_float call per float."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "empirical_fpr", "stderr", "n_test"])
        for point in points:
            writer.writerow(
                [
                    format_float(point.epsilon),
                    format_float(point.fpr),
                    format_float(point.stderr),
                    point.n_test,
                ]
            )
