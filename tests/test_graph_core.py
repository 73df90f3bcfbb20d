"""Vocabulary, corpus, splitting, and CSV round-trip behavior."""

import csv
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from edgeanomaly import graph_core
from edgeanomaly.graph_core import (
    Edge,
    EdgeCorpus,
    EdgeCsvError,
    NodeVocab,
    corpus_from_pairs,
    quote_labels,
    read_edge_records,
    split_train_calib,
    write_edge_csv,
    write_rows,
)


class TestNodeVocab:
    def test_first_insertion_gets_zero(self):
        vocab = NodeVocab(["alice"])
        assert vocab.resolve("alice") == 0

    @pytest.mark.parametrize("labels", [["a", "a"], ["a", "b", "c", "b"], ("x", "y", "x")])
    def test_repeated_label_rejected(self, labels):
        with pytest.raises(ValueError, match="duplicate labels"):
            NodeVocab(labels)

    def test_sequential_assignment(self):
        vocab = NodeVocab(label for label in ["alice", "bob"])
        assert [vocab.resolve("alice"), vocab.resolve("bob")] == [0, 1]
        assert vocab.labels == ("alice", "bob")
        assert vocab.num_nodes == 2

    def test_resolve_unknown_maps_to_unseen_slot(self):
        vocab = NodeVocab(["a", "b", "c"])
        assert vocab.resolve("mallory") == 3
        assert vocab.unseen_slot == 3

    def test_resolve_known_label(self):
        vocab = NodeVocab(["a", "b"])
        assert vocab.resolve("b") == 1

    def test_resolve_on_empty_vocab(self):
        vocab = NodeVocab()
        assert vocab.resolve("anything") == 0

    def test_labels_are_the_stored_tuple(self):
        given = ["a", "b"]
        vocab = NodeVocab(given)
        given.append("c")
        assert vocab.labels is vocab.labels
        assert vocab.labels == ("a", "b")
        assert vocab.resolve("c") == vocab.unseen_slot == 2

    def test_resolve_never_exceeds_unseen_slot(self):
        vocab = NodeVocab([f"node{i}" for i in range(17)])
        rng = np.random.default_rng(0)
        for _ in range(200):
            label = f"x{rng.integers(0, 40)}"
            assert 0 <= vocab.resolve(label) <= vocab.num_nodes


class TestEdgeCorpus:
    def test_rejects_negative_endpoints(self):
        with pytest.raises(ValueError):
            Edge(-1, 0)
        with pytest.raises(ValueError, match="edge 1: edge endpoints must be nonnegative"):
            EdgeCorpus([0, 1], [0, -1], NodeVocab(["a", "b"]))

    def test_rejects_out_of_range_endpoints(self):
        vocab = NodeVocab(["a", "b"])
        with pytest.raises(ValueError, match="edge 1 endpoint out of range .* size 2"):
            EdgeCorpus([0, 0, 3], [1, 3, 0], vocab)

    def test_rejects_mismatched_lengths(self):
        vocab = NodeVocab(["a", "b"])
        with pytest.raises(ValueError, match="equal-length"):
            EdgeCorpus([0, 1], [1], vocab)

    def test_unseen_slot_is_a_legal_endpoint(self):
        vocab = NodeVocab(["a", "b"])
        corpus = EdgeCorpus([0, 2], [2, 1], vocab)
        assert corpus.n == 2

    def test_a_second_corpus_leaves_the_first_unchanged(self):
        vocab = NodeVocab(["a", "b"])
        first = EdgeCorpus([0, 2], [2, 1], vocab)
        second = corpus_from_pairs(["c"], ["a"], vocab)
        assert (second.senders.tolist(), second.receivers.tolist()) == ([2], [0])
        assert first.vocab.num_nodes == 2
        assert first.vocab.labels == ("a", "b")
        # the first corpus's unseen-slot edge names no label
        assert first.senders[1] == first.vocab.unseen_slot
        assert [first.vocab.resolve(label) for label in "abc"] == [0, 1, 2]

    def test_empty_corpus(self):
        corpus = EdgeCorpus([], [], NodeVocab())
        assert (corpus.n, len(corpus), list(corpus)) == (0, 0, [])

    def test_arrays_are_read_only_copies(self):
        senders = np.array([0, 2, 1])
        corpus = EdgeCorpus(senders, [1, 0, 1], NodeVocab(["a", "b", "c"]))
        senders[0] = 1
        assert corpus.senders.tolist() == [0, 2, 1]
        assert corpus.senders.dtype == np.int64
        with pytest.raises(ValueError):
            corpus.receivers[0] = 2

    def test_token_arrays_match_edges(self):
        vocab = NodeVocab(["a", "b", "c"])
        corpus = EdgeCorpus([0, 2, 1], [1, 0, 1], vocab)
        assert corpus.senders.tolist() == [0, 2, 1]
        assert corpus.receivers.tolist() == [1, 0, 1]
        assert list(corpus) == [Edge(0, 1), Edge(2, 0), Edge(1, 1)]

    def test_iteration_yields_edges_with_int_fields(self):
        vocab = NodeVocab(["a", "b", "c"])
        corpus = EdgeCorpus(np.array([0, 2, 1]), np.array([1, 0, 1]), vocab)
        assert all(
            type(e.sender) is int and type(e.receiver) is int for e in corpus
        )

    def test_subset_by_slice_and_index_array(self):
        vocab = NodeVocab(["a", "b", "c"])
        corpus = EdgeCorpus([0, 2, 1, 0], [1, 0, 1, 2], vocab)
        head = corpus.subset(slice(None, 2))
        assert list(head) == [Edge(0, 1), Edge(2, 0)]
        picked = corpus.subset(np.array([3, 1]))
        assert list(picked) == [Edge(0, 2), Edge(2, 0)]
        assert head.vocab is vocab and picked.vocab is vocab


class TestSplitTrainCalib:
    def _corpus(self, n):
        vocab = NodeVocab(["a", "b", "c"])
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, 3, size=(n, 2))
        return EdgeCorpus(tokens[:, 0], tokens[:, 1], vocab)

    def test_sizes_726_half(self):
        train, calib = split_train_calib(self._corpus(726), 0.5, seed=0)
        assert (train.n, calib.n) == (363, 363)

    def test_sizes_minimal(self):
        train, calib = split_train_calib(self._corpus(2), 0.5, seed=0)
        assert (train.n, calib.n) == (1, 1)

    @pytest.mark.parametrize("n,f", [(10, 0.3), (11, 0.3), (100, 0.25), (7, 0.9)])
    def test_size_formula(self, n, f):
        train, calib = split_train_calib(self._corpus(n), f, seed=1)
        assert calib.n == int(np.floor(n * f))
        assert train.n == n - calib.n

    def test_deterministic(self):
        corpus = self._corpus(50)
        a = split_train_calib(corpus, 0.4, seed=9)
        b = split_train_calib(corpus, 0.4, seed=9)
        assert list(a[0]) == list(b[0])
        assert list(a[1]) == list(b[1])

    def test_multiset_preserved(self):
        corpus = self._corpus(97)
        for seed in range(5):
            train, calib = split_train_calib(corpus, 0.37, seed=seed)
            combined = Counter(train) + Counter(calib)
            assert combined == Counter(corpus)

    def test_shares_vocab(self):
        corpus = self._corpus(10)
        train, calib = split_train_calib(corpus, 0.5, seed=0)
        assert train.vocab is corpus.vocab
        assert calib.vocab is corpus.vocab

    def test_too_small_raises(self):
        with pytest.raises(ValueError, match="too small"):
            split_train_calib(self._corpus(1), 0.5, seed=0)

    @pytest.mark.parametrize("f", [0.0, 1.0, -0.1, 1.5])
    def test_bad_fraction_raises(self, f):
        with pytest.raises(ValueError):
            split_train_calib(self._corpus(10), f, seed=0)


class TestEdgeCsv:
    def test_round_trip_plain(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_edge_csv(path, ["a", "b", "a"], ["b", "c", "b"])
        senders, receivers, labels = read_edge_records(path)
        corpus = corpus_from_pairs(senders, receivers)
        assert labels is None
        assert corpus.n == 3
        assert corpus.vocab.labels == ("a", "b", "c")
        assert list(corpus) == [Edge(0, 1), Edge(1, 2), Edge(0, 1)]

    def test_round_trip_labeled(self, tmp_path):
        path = tmp_path / "edges.csv"
        labels = [True] * 140 + [False] * 167
        write_edge_csv(path, ["u"] * 307, ["v"] * 307, labels)
        _, _, parsed = read_edge_records(path)
        assert parsed is not None
        assert int(parsed.sum()) == 140
        assert parsed.size == 307

    def test_resolves_against_frozen_vocab(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_edge_csv(path, ["a", "mallory"], ["mallory", "b"])
        vocab = NodeVocab(["a", "b", "c"])
        senders, receivers, _ = read_edge_records(path)
        corpus = corpus_from_pairs(senders, receivers, vocab)
        assert list(corpus) == [Edge(0, 3), Edge(3, 1)]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_edge_records(tmp_path / "absent.csv")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EdgeCsvError, match="missing header"):
            read_edge_records(path)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("from,to\na,b\n")
        with pytest.raises(EdgeCsvError, match="bad header"):
            read_edge_records(path)

    def test_missing_field_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst\na,b\nc\n")
        with pytest.raises(EdgeCsvError, match=r":3:"):
            read_edge_records(path)

    def test_empty_field_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst\na,\n")
        with pytest.raises(EdgeCsvError, match=r":2:"):
            read_edge_records(path)

    def test_bad_label_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst,label\na,b,1\na,b,2\n")
        with pytest.raises(EdgeCsvError, match=r":3:.*label"):
            read_edge_records(path)

    def test_extra_field_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst\na,b,c\n")
        with pytest.raises(EdgeCsvError, match=r":2:"):
            read_edge_records(path)

    def test_read_edge_records_keeps_raw_pairs(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_edge_csv(path, ["x", "y"], ["y", "z"])
        senders, receivers, labels = read_edge_records(path)
        assert (senders, receivers) == (["x", "y"], ["y", "z"])
        assert labels is None

    def test_corpus_from_pairs_interns_in_order(self):
        corpus = corpus_from_pairs(["m", "n"], ["n", "o"])
        assert corpus.vocab.labels == ("m", "n", "o")


_LABELS = st.text(alphabet="abcde", min_size=1, max_size=2)
_INGEST_LABELS = st.text(alphabet="ab\u00e9\u0436 ,\"", min_size=1, max_size=3)


class TestCorpusFromPairs:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(_LABELS, _LABELS), max_size=40),
        known=st.none() | st.lists(_LABELS, max_size=6, unique=True),
    )
    def test_matches_interning_each_pair_in_turn(self, pairs, known):
        # "zz" is never drawn, so without a vocabulary it first appears as a
        # receiver, and with one it resolves to the unseen slot.
        pairs = [("a", "zz")] + pairs
        if known is None:
            vocab, index = None, {}
            for pair in pairs:
                for label in pair:
                    index.setdefault(label, len(index))
        else:
            vocab, index = NodeVocab(known), dict(zip(known, range(len(known))))
        unseen = len(index)
        expected = [(index.get(src, unseen), index.get(dst, unseen)) for src, dst in pairs]

        corpus = corpus_from_pairs([s for s, _ in pairs], [r for _, r in pairs], vocab)
        if vocab is not None:
            assert corpus.vocab is vocab
        assert corpus.vocab.labels == tuple(index)
        assert corpus.senders.tolist() == [s for s, _ in expected]
        assert corpus.receivers.tolist() == [r for _, r in expected]

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(_INGEST_LABELS, _INGEST_LABELS), max_size=40),
        known=st.none() | st.lists(_INGEST_LABELS, max_size=6, unique=True),
    )
    def test_matches_the_per_label_oracle(self, pairs, known):
        vocab = None if known is None else NodeVocab(known)
        senders, receivers, labels = oracles.intern_pairs(pairs, vocab)

        corpus = corpus_from_pairs([s for s, _ in pairs], [r for _, r in pairs], vocab)
        assert corpus.vocab.labels == labels
        assert corpus.senders.tolist() == senders
        assert corpus.receivers.tolist() == receivers

    @pytest.mark.parametrize("receivers", [["y", "x"], ["y", "x", "z", "w"], []])
    def test_columns_of_unequal_length_rejected(self, receivers):
        with pytest.raises(ValueError, match="must have equal length, got 3 and"):
            corpus_from_pairs(["x", "a", "y"], receivers)


# Characters the csv reader or the row loop treats specially (comma, quote,
# line ends, whitespace it strips) beside plain ASCII and other letters.
_SPECIAL_CHARS = ',"\r\n \t\xa0\x85\u2028'
_PLAIN_CHARS = "ab01\u00e9\u0436"
_HEADERS = ["src,dst", "src,dst,label"] * 8 + [
    "src, dst", " src,dst,label", "src,dst\r", '"src",dst', "src,dst,label\xa0",
    "src", "src,dst,lab", "", "\u00e9,dst",
]


@st.composite
def _csv_texts(draw):
    """Mostly well-formed edge files with a few flaws: an empty field, a
    special character, a padded field, a row one field short or long, a bad
    label, a blank line or another line end. Most flaws send the file to the row loop;
    some reach the bulk path, which must then hand it over too."""
    header = draw(st.sampled_from(_HEADERS))
    width = 3 if header.endswith("label") else 2
    # ASCII-only files take another check than the rest
    plain = draw(st.sampled_from(["ab01", _PLAIN_CHARS]))
    special = draw(st.sampled_from([',"\r\n \t', _SPECIAL_CHARS]))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        fields = []
        for _ in range(draw(st.sampled_from([width] * 20 + [0, width - 1, width + 1]))):
            kind = draw(st.integers(0, 39))
            if kind == 0:
                fields.append("")
            elif kind < 3:
                fields.append(draw(st.text(plain + special, min_size=1, max_size=3)))
            elif kind == 3:  # padded, which the row loop strips
                pad = draw(st.sampled_from([c for c in special if c.isspace() and c not in "\r\n"]))
                field = draw(st.text(plain, min_size=1, max_size=2))
                fields.append(draw(st.sampled_from([pad + field, field + pad])))
            else:
                fields.append(draw(st.text(plain, min_size=1, max_size=3)))
        if width == 3 and len(fields) == 3 and draw(st.integers(0, 3)):
            fields[2] = draw(st.sampled_from(["0", "1"] * 6 + ["2", " 1", "01"]))
        rows.append(",".join(fields))
    ending = draw(st.sampled_from(["\n"] * 12 + ["\r\n", "\r", "\n\n"]))
    return header + "\n" + ending.join(rows) + draw(st.sampled_from(["", ending]))


def _outcome(read, path):
    """What `read` makes of the file, as (pairs, labels) or the error; the
    package reader's two label columns are zipped into the oracle's pairs."""
    try:
        if read is oracles.read_edge_records:
            pairs, labels = read(path)
        else:
            senders, receivers, labels = read(path)
            pairs = list(zip(senders, receivers, strict=True))
    except EdgeCsvError as err:
        return "error", str(err)
    if labels is not None:
        assert labels.dtype == bool
        labels = labels.tolist()
    return pairs, labels


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "edges.csv"


# (bytes, file line of the first byte that is not UTF-8), as csv.reader counts
# lines: a CR, an LF and a CRLF each end one
NON_UTF8_FILES = [
    (b"src,dst\na,b\nc\xe9,d\n", 3),
    (b"src,dst\r\na,b\r\n\xff\r\n", 3),
    (b"src,dst\ra,b\rc,\xe9d\r", 3),
    (b'src,dst\n"a\nb",c\nd,\xe9e\n', 4),
    (b"src,dst\n\xc3\xa9,b\nc,\xff\n", 3),  # a valid two-byte character first
    (b"src,dst\na,\xc3", 2),  # cut off inside a character
    (b"\xffsrc,dst\n", 1),
    (b"src,dst\n" + b"a,b\n" * 5000 + b"c,\xe9\n", 5002),  # past the first 8 KiB
]


class TestIngestOracle:
    @settings(max_examples=600, deadline=None)
    @given(text=_csv_texts())
    def test_same_result_or_error_as_the_row_loop(self, scratch_csv, text):
        scratch_csv.write_text(text, encoding="utf-8", newline="")
        assert _outcome(read_edge_records, scratch_csv) == _outcome(
            oracles.read_edge_records, scratch_csv)

    @pytest.mark.parametrize("text", [
        "src,dst\na,b\n\nc,d\n",
        "src,dst,label\nx,y,1\n\u00e9,\u0436,0",
        "src,dst\n",
        "src,dst",
        "src,dst\r\na,b\r\n\r\nc,d\r\n",  # as csv.writer and synth write them
    ])
    def test_plain_files_take_the_bulk_path(self, tmp_path, monkeypatch, text):
        path = tmp_path / "edges.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = _outcome(oracles.read_edge_records, path)

        def refuse(path, text):
            raise AssertionError("the row loop read a plain file")

        monkeypatch.setattr(graph_core, "_csv_records", refuse)
        assert _outcome(read_edge_records, path) == expected

    @pytest.mark.parametrize("text", [
        'src,dst\n"a",b\n', "src,dst\na ,b\n", "src,dst\ra,b\r", "src,dst\r\na,b\r\r\n",
        "src,dst\na\tb,c\n", "src,dst\na,b\u2028\n", "src,dst\na,b\x1c\n",
    ])
    def test_quoted_or_padded_files_take_the_row_loop(self, tmp_path, monkeypatch, text):
        path = tmp_path / "edges.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = _outcome(oracles.read_edge_records, path)
        calls = []
        row_loop = graph_core._csv_records
        monkeypatch.setattr(graph_core, "_csv_records",
                            lambda *args: calls.append(1) or row_loop(*args))
        assert _outcome(read_edge_records, path) == expected
        assert calls == [1]

    @pytest.mark.parametrize("text,line", [
        ("src,dst\na,b\nc\x00,d\n", 3),
        ("src,dst\r\na,b\r\n\x00\r\n", 3),
        ("src,dst\ra,b\rc,\x00d\r", 3),
        ('src,dst\n"a\nb",c\nd,\x00e\n', 4),
        ("\x00src,dst\n", 1),
    ])
    def test_nul_rejected_with_its_line(self, tmp_path, text, line):
        # csv.reader accepts NUL from Python 3.11 on and raises csv.Error before
        path = tmp_path / "nul.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(EdgeCsvError, match=rf"nul.csv:{line}: line contains NUL"):
            read_edge_records(path)

    @pytest.mark.parametrize("data,line", NON_UTF8_FILES)
    def test_non_utf8_byte_rejected_with_its_line(self, tmp_path, data, line):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        with pytest.raises(EdgeCsvError, match=rf"latin1.csv:{line}: 'utf-8' codec can't decode"):
            read_edge_records(path)

    @pytest.mark.parametrize("text", [
        "src,dst\nabcdefghijk,b\n", 'src,dst\n"abcdefghijk",b\n',
    ])
    def test_other_csv_errors_become_edge_csv_errors(self, tmp_path, text):
        path = tmp_path / "long.csv"
        path.write_text(text, encoding="utf-8", newline="")
        old_limit = csv.field_size_limit(8)
        try:
            with pytest.raises(EdgeCsvError, match=r"long.csv:2: field larger than field limit"):
                read_edge_records(path)
        finally:
            csv.field_size_limit(old_limit)


class TestQuoteLabels:
    def test_plain_labels_keep_their_text(self):
        labels = ["a b", "\u00e9", "x", "y\tz"]
        assert quote_labels(labels) == labels

    def test_labels_are_quoted_as_csv_writer_quotes_them(self):
        labels = ["x,y", "plain", 'q"t', "a\rb", "c\nd", "x,y"]
        quoted = quote_labels(labels)
        assert quoted == ['"x,y"', "plain", '"q""t"', '"a\rb"', '"c\nd"', '"x,y"']
        for label, field in zip(labels, quoted):
            assert next(csv.reader([f"{field},x"])) == [label, "x"]


class TestRowWriter:
    """write_edge_csv gives the bytes of the csv.writer form in tests/oracles.py."""

    LABELS = ["x,y", 'q"t', "cr\rhere", "line\nbreak", "a b", "plain", "\u00e9\u0436", "\u2028"]

    def _columns(self, n):
        k = len(self.LABELS)
        return ([self.LABELS[i % k] for i in range(n)],
                [self.LABELS[(3 * i + 1) % k] for i in range(n)])

    def _assert_same_bytes(self, tmp_path, senders, receivers, labels=None):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_edge_csv(got, senders, receivers, labels)
        oracles.write_edge_csv(want, list(zip(senders, receivers)), labels)
        assert got.read_bytes() == want.read_bytes()
        return got.read_bytes()

    def test_plain_bytes_equal_the_csv_writer_oracle(self, tmp_path):
        text = self._assert_same_bytes(tmp_path, *self._columns(19)).decode()
        assert text.startswith('src,dst\r\n"x,y","q""t"\r\n"q""t",a b\r\n"cr\rhere",\u2028\r\n')

    @pytest.mark.parametrize("flags", [
        [True, False, False, True, True, False, True],
        np.array([True, False, False, True, True, False, True]),
    ], ids=["bool", "numpy-bool"])
    def test_labeled_bytes_equal_the_csv_writer_oracle(self, tmp_path, flags):
        text = self._assert_same_bytes(tmp_path, *self._columns(7), flags).decode()
        assert text.startswith('src,dst,label\r\n"x,y","q""t",1\r\n')
        assert text.endswith(',1\r\n')

    @pytest.mark.parametrize("labels", [None, []], ids=["plain", "labeled"])
    def test_header_only_bytes_equal_the_csv_writer_oracle(self, tmp_path, labels):
        self._assert_same_bytes(tmp_path, [], [], labels)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.tuples(_INGEST_LABELS, st.text(',"\r\n a\u00e9', min_size=1,
                                                        max_size=3), st.booleans()),
                      max_size=12),
        labeled=st.booleans(),
    )
    def test_any_labels_equal_the_csv_writer_oracle(self, scratch_csv, rows, labeled):
        senders = [src for src, _, _ in rows]
        receivers = [dst for _, dst, _ in rows]
        flags = [flag for _, _, flag in rows] if labeled else None
        self._assert_same_bytes(scratch_csv.parent, senders, receivers, flags)

    @pytest.mark.parametrize("columns", [
        (["a", "b"], ["c"]), (["a"], ["b"], [1.0, 2.0]), ([], ["b"]),
    ])
    def test_columns_of_unequal_length_rejected(self, tmp_path, columns):
        with pytest.raises(ValueError):
            write_rows(tmp_path / "rows.csv", "h\n", "%s" * len(columns) + "\n", *columns)
