"""Vocabulary, corpus, splitting, and CSV round-trip behavior."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeanomaly.graph_core import (
    Edge,
    EdgeCorpus,
    EdgeCsvError,
    NodeVocab,
    corpus_from_pairs,
    parse_edge_csv,
    read_edge_records,
    split_train_calib,
    write_edge_csv,
)


class TestNodeVocab:
    def test_first_insertion_gets_zero(self):
        vocab = NodeVocab()
        assert vocab.intern("alice") == 0

    def test_intern_is_idempotent(self):
        vocab = NodeVocab(["alice"])
        assert vocab.intern("alice") == 0
        assert vocab.num_nodes == 1

    def test_sequential_assignment(self):
        vocab = NodeVocab(["alice"])
        assert vocab.intern("bob") == 1
        assert vocab.labels == ("alice", "bob")

    def test_resolve_unknown_maps_to_unseen_slot(self):
        vocab = NodeVocab(["a", "b", "c"]).freeze()
        assert vocab.resolve("mallory") == 3
        assert vocab.unseen_slot == 3

    def test_resolve_known_label(self):
        vocab = NodeVocab(["a", "b"]).freeze()
        assert vocab.resolve("b") == 1

    def test_resolve_on_empty_vocab(self):
        vocab = NodeVocab().freeze()
        assert vocab.resolve("anything") == 0

    def test_intern_after_freeze_raises(self):
        vocab = NodeVocab(["a"]).freeze()
        with pytest.raises(ValueError):
            vocab.intern("b")

    def test_resolve_never_exceeds_unseen_slot(self):
        vocab = NodeVocab([f"node{i}" for i in range(17)]).freeze()
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
        vocab = NodeVocab(["a", "b"]).freeze()
        corpus = EdgeCorpus([0, 2], [2, 1], vocab)
        assert corpus.n == 2

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
        pairs = [("a", "b"), ("b", "c"), ("a", "b")]
        write_edge_csv(path, pairs)
        corpus, labels = parse_edge_csv(path)
        assert labels is None
        assert corpus.n == 3
        assert corpus.vocab.labels == ("a", "b", "c")
        assert list(corpus) == [Edge(0, 1), Edge(1, 2), Edge(0, 1)]

    def test_round_trip_labeled(self, tmp_path):
        path = tmp_path / "edges.csv"
        pairs = [("u", "v")] * 307
        labels = [True] * 140 + [False] * 167
        write_edge_csv(path, pairs, labels)
        _, parsed = parse_edge_csv(path)
        assert parsed is not None
        assert int(parsed.sum()) == 140
        assert parsed.size == 307

    def test_resolves_against_frozen_vocab(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_edge_csv(path, [("a", "mallory"), ("mallory", "b")])
        vocab = NodeVocab(["a", "b", "c"]).freeze()
        corpus, _ = parse_edge_csv(path, vocab)
        assert list(corpus) == [Edge(0, 3), Edge(3, 1)]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            parse_edge_csv(tmp_path / "absent.csv")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EdgeCsvError, match="missing header"):
            parse_edge_csv(path)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("from,to\na,b\n")
        with pytest.raises(EdgeCsvError, match="bad header"):
            parse_edge_csv(path)

    def test_missing_field_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst\na,b\nc\n")
        with pytest.raises(EdgeCsvError, match=r":3:"):
            parse_edge_csv(path)

    def test_empty_field_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst\na,\n")
        with pytest.raises(EdgeCsvError, match=r":2:"):
            parse_edge_csv(path)

    def test_bad_label_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst,label\na,b,1\na,b,2\n")
        with pytest.raises(EdgeCsvError, match=r":3:.*label"):
            parse_edge_csv(path)

    def test_extra_field_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst\na,b,c\n")
        with pytest.raises(EdgeCsvError, match=r":2:"):
            parse_edge_csv(path)

    def test_read_edge_records_keeps_raw_pairs(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_edge_csv(path, [("x", "y"), ("y", "z")])
        pairs, labels = read_edge_records(path)
        assert pairs == [("x", "y"), ("y", "z")]
        assert labels is None

    def test_corpus_from_pairs_interns_in_order(self):
        corpus = corpus_from_pairs([("m", "n"), ("n", "o")])
        assert corpus.vocab.labels == ("m", "n", "o")
        assert not corpus.vocab.frozen


_LABELS = st.text(alphabet="abcde", min_size=1, max_size=2)


class TestCorpusFromPairs:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(_LABELS, _LABELS), max_size=40),
        known=st.lists(_LABELS, max_size=6),
        frozen=st.booleans(),
    )
    def test_matches_interning_each_pair_in_turn(self, pairs, known, frozen):
        # "zz" is never drawn, so it first appears as a receiver.
        pairs = [("a", "zz")] + pairs
        vocab = NodeVocab(known)
        reference = NodeVocab(known)
        if frozen:
            vocab.freeze()
            reference.freeze()
        lookup = reference.resolve if frozen else reference.intern
        expected = [(lookup(src), lookup(dst)) for src, dst in pairs]

        corpus = corpus_from_pairs(pairs, vocab)
        assert corpus.vocab is vocab
        assert vocab.labels == reference.labels
        assert corpus.senders.tolist() == [s for s, _ in expected]
        assert corpus.receivers.tolist() == [r for _, r in expected]
