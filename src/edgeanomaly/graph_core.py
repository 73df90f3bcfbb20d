"""Node vocabularies, edge corpora, train/calibration splitting, and edge-list CSV I/O."""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "EdgeCsvError",
    "NodeVocab",
    "Edge",
    "EdgeCorpus",
    "corpus_from_pairs",
    "split_train_calib",
    "read_edge_records",
    "read_text",
    "write_edge_csv",
    "write_rows",
    "quote_labels",
    "format_float",
]

_HEADER_PLAIN = ["src", "dst"]
_HEADER_LABELED = ["src", "dst", "label"]
# Fields per row of a file whose first line is exactly one of these.
_BULK_WIDTHS = {"src,dst": 2, "src,dst,label": 3}
# Characters only the row loop reads right: a quote, which csv.reader takes
# as quoting, and whitespace other than a line feed, which the row loop
# strips from a field or csv.reader takes as a line end. _ASCII_SPECIAL
# lists the ASCII ones.
_ASCII_SPECIAL = '"\t\x0b\x0c\r\x1c\x1d\x1e\x1f '
_SPECIAL = re.compile(r'"|[^\S\n]')
# What csv.writer's minimal quoting quotes: the delimiter, the quote and
# the line terminator's characters.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


class EdgeCsvError(ValueError):
    """Malformed edge-list file: bad header, missing fields, or bad label."""


def format_float(x: float) -> str:
    """Render a float with 17 significant digits so a reread is bit exact."""
    return format(float(x), ".17g")


class NodeVocab:
    """Fixed map from node labels to indices 0..W-1, in the order given.

    Index W, one past the last label, is reserved for labels the vocabulary
    does not hold. Downstream categorical distributions over nodes
    therefore use W+1 slots, the last one covering everything unseen. A
    vocabulary never changes once built, so every corpus and model that
    shares it keeps the same slots.
    """

    def __init__(self, labels=()):
        self._labels: tuple[str, ...] = tuple(labels)
        self._index: dict[str, int] = dict(zip(self._labels, range(len(self._labels))))
        if len(self._index) != len(self._labels):
            # the dict keeps a repeated label's last index
            repeated = next(x for i, x in enumerate(self._labels) if self._index[x] != i)
            raise ValueError(f"duplicate labels: {repeated!r} appears more than once")

    @property
    def num_nodes(self) -> int:
        """Count of distinct labels (the W above)."""
        return len(self._labels)

    @property
    def unseen_slot(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def resolve(self, label: str) -> int:
        """Return the index for `label`, or the reserved unseen slot."""
        return self._index.get(label, self.unseen_slot)

    def __repr__(self) -> str:
        return f"NodeVocab({self.num_nodes} labels)"


@dataclass(frozen=True)
class Edge:
    """One directed edge, already interned to (sender, receiver) indices."""

    sender: int
    receiver: int

    def __post_init__(self):
        if self.sender < 0 or self.receiver < 0:
            raise ValueError("edge endpoints must be nonnegative indices")


class EdgeCorpus:
    """Immutable ordered multiset of directed edges over a shared vocabulary.

    Edge i runs from senders[i] to receivers[i]; both are read-only int64
    arrays of equal length. Every endpoint index must lie in
    0..vocab.num_nodes: real nodes occupy 0..W-1 and the reserved unseen
    slot is W. Iterating yields one Edge per position, in order.
    """

    def __init__(self, senders, receivers, vocab: NodeVocab):
        senders = np.array(senders, dtype=np.int64)
        receivers = np.array(receivers, dtype=np.int64)
        if senders.ndim != 1 or senders.shape != receivers.shape:
            raise ValueError(
                f"senders and receivers must be equal-length vectors, "
                f"got shapes {senders.shape} and {receivers.shape}"
            )
        negative = np.flatnonzero((senders < 0) | (receivers < 0))
        if negative.size:
            raise ValueError(
                f"edge {negative[0]}: edge endpoints must be nonnegative indices"
            )
        limit = vocab.num_nodes
        beyond = np.flatnonzero((senders > limit) | (receivers > limit))
        if beyond.size:
            raise ValueError(
                f"edge {beyond[0]} endpoint out of range for vocabulary of size {limit}"
            )
        senders.flags.writeable = False
        receivers.flags.writeable = False
        self.senders = senders
        self.receivers = receivers
        self.vocab = vocab

    @property
    def n(self) -> int:
        return int(self.senders.size)

    def subset(self, indices) -> "EdgeCorpus":
        """The edges at `indices` (a slice or an index array), in that order."""
        return EdgeCorpus(self.senders[indices], self.receivers[indices], self.vocab)

    def __iter__(self):
        return map(Edge, self.senders.tolist(), self.receivers.tolist())

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"EdgeCorpus({self.n} edges, {self.vocab.num_nodes} nodes)"


def corpus_from_pairs(senders, receivers, vocab: NodeVocab | None = None) -> EdgeCorpus:
    """Build a corpus from two equal-length columns of node labels.

    Edge i runs from senders[i] to receivers[i]. Without a vocabulary, one
    is built from the labels in order of first appearance, row by row and
    the sender before the receiver. A given vocabulary only resolves
    labels: one it does not hold maps to its reserved unseen slot.
    """
    n = len(senders)
    if len(receivers) != n:
        raise ValueError(
            f"senders and receivers must have equal length, got {n} and {len(receivers)}"
        )
    labels = [None] * (2 * n)
    labels[0::2] = senders
    labels[1::2] = receivers
    if vocab is None:
        vocab = NodeVocab(dict.fromkeys(labels))
    tokens = np.fromiter(
        map(vocab._index.get, labels, repeat(vocab.unseen_slot)),
        dtype=np.int64,
        count=2 * n,
    )
    return EdgeCorpus(tokens[0::2], tokens[1::2], vocab)


def split_train_calib(corpus: EdgeCorpus, calib_fraction: float, seed: int):
    """Randomly split a corpus into (train, calib) without replacement.

    The calibration split holds floor(n * calib_fraction) edges and the
    training split the remaining ceil(n * (1 - calib_fraction)). Original
    edge order is kept inside each split; the same seed reproduces the same
    split exactly.
    """
    n = corpus.n
    if n < 2:
        raise ValueError("corpus too small to split")
    if not 0.0 < calib_fraction < 1.0:
        raise ValueError("calib_fraction must lie strictly between 0 and 1")
    return _split_by_count(corpus, int(math.floor(n * calib_fraction)), seed)


def _split_by_count(corpus: EdgeCorpus, n_calib: int, seed):
    """(train, calib) with exactly n_calib calibration edges, drawn by seed."""
    perm = np.random.default_rng(seed).permutation(corpus.n)
    return corpus.subset(np.sort(perm[n_calib:])), corpus.subset(np.sort(perm[:n_calib]))


def read_edge_records(path):
    """Read a `src,dst[,label]` CSV into (senders, receivers, labels).

    senders and receivers are the raw label columns, lists of str with one
    entry per row; labels is a bool array, or None for a `src,dst` file.

    The header row is required. Labels must be 0 or 1. Rows with missing or
    empty fields, any NUL character and any byte that is not UTF-8 are
    rejected with the offending line number. Fields follow RFC 4180 quoting
    and are stripped of whitespace; blank lines are skipped.

    The file is read once. A file with no quote and no whitespace but LF or
    CRLF line ends, whose header is exactly `src,dst` or `src,dst,label`, is
    split in bulk; every other file, malformed ones included, goes through
    csv.reader row by row, which gives the same result or error.
    """
    text = read_text(path)
    nul = text.find("\x00")
    if nul >= 0:
        raise EdgeCsvError(f"{path}:{_line_after(text[:nul])}: line contains NUL")
    records = _bulk_records(text)
    return records if records is not None else _csv_records(path, text)


def read_text(path) -> str:
    """The file at path, decoded as UTF-8 with its line ends kept.

    A byte that is not UTF-8 raises EdgeCsvError naming the file line it is
    on, as csv.reader counts lines.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = _line_after(data[: err.start].decode("utf-8"))
        raise EdgeCsvError(f"{path}:{line}: {err}") from err


def _line_after(head: str) -> int:
    """The file line of the character that follows head, counting a CR, an
    LF and a CRLF each as one line end, as csv.reader does on a file opened
    with newline=""."""
    return head.count("\n") + head.count("\r") - head.count("\r\n") + 1


def _bulk_records(text):
    """(senders, receivers, labels) of a file that needs none of csv.reader's
    quoting or stripping, or None when it might: the row loop then reads it."""
    if "\r" in text:  # `synth` and csv.writer end rows with CRLF
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    # isascii is a flag lookup and each `in` a memchr; the regex, needed
    # for other whitespace, scans a 1 MB file about a hundred times slower
    if text.isascii():
        if any(char in text for char in _ASCII_SPECIAL):
            return None
    elif _SPECIAL.search(text):
        return None
    lines = text.split("\n")
    width = _BULK_WIDTHS.get(lines[0])
    if width is None:
        return None
    del lines[0]
    lines = list(filter(None, lines))  # blank lines are skipped
    if not set(map(str.count, lines, repeat(","))) <= {width - 1}:
        return None
    # csv.reader rejects a field longer than its limit; a line bounds a field
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    joined = ",".join(lines)
    del lines  # only the fields and the text stay alive from here on
    fields = joined.split(",") if joined else []
    del joined
    if "" in fields:
        return None
    if width == 2:
        return fields[0::2], fields[1::2], None
    flags = fields[2::3]
    if not set(flags) <= {"0", "1"}:
        return None
    labels = np.fromiter(map("1".__eq__, flags), dtype=bool, count=len(flags))
    return fields[0::3], fields[1::3], labels


def _csv_records(path, text):
    """(senders, receivers, labels) of any file, read row by row by csv.reader."""
    senders, receivers, labels = [], [], []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
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
            senders.append(row[0])
            receivers.append(row[1])
    except csv.Error as err:
        raise EdgeCsvError(f"{path}:{reader.line_num}: {err}") from err
    return senders, receivers, (np.array(labels, dtype=bool) if labeled else None)


def quote_labels(labels) -> list[str]:
    """A column of node labels as CSV fields.

    A label holding a comma, a quote, a carriage return or a line feed is
    quoted as csv.writer's minimal quoting does; every other label keeps
    its exact text.
    """
    quoted = {
        label: '"' + label.replace('"', '""') + '"'
        for label in set(labels)
        if _NEEDS_QUOTES.search(label)
    }
    if not quoted:
        return labels
    return [quoted.get(label, label) for label in labels]


def write_rows(path, header: str, row_format: str, *columns) -> None:
    """Write `header`, then `row_format % row` for each row of the columns.

    header and row_format carry their own line ends. "%.17g" gives the
    bytes of format_float: %-formatting and format(x, ".17g") call the same
    float formatter. Columns of unequal length raise ValueError once the
    shortest one ends, after its rows are written.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(row_format % row for row in zip(*columns, strict=True))


def write_edge_csv(path, senders, receivers, labels=None) -> None:
    """Write label columns as a `src,dst[,label]` CSV with CRLF row ends.

    Node labels are quoted as quote_labels quotes them and each flag is
    written as 1 or 0, which gives the bytes csv.writer writes.
    """
    columns = quote_labels(senders), quote_labels(receivers)
    if labels is None:
        write_rows(path, "src,dst\r\n", "%s,%s\r\n", *columns)
    else:
        flags = np.asarray(labels, dtype=bool).tolist()
        write_rows(path, "src,dst,label\r\n", "%s,%s,%d\r\n", *columns, flags)
