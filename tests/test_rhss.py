"""Baseline score bookkeeping and component arithmetic.

The package builds its history once from a corpus's arrays.
`oracles.StreamHistory` folds the same edges in one at a time and keeps the
three component scores as methods; the package's score must equal the
oracle's bit for bit.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from edgeanomaly.graph_core import Edge, EdgeCorpus, NodeVocab
from edgeanomaly.rhss import StreamHistory


def history_of(pairs):
    """The folding reference's history of (sender, receiver) pairs."""
    return oracles.fold_history(
        oracles.StreamHistory(), [u for u, _ in pairs], [v for _, v in pairs])


def built_from(pairs, num_nodes):
    """The package's history of pairs over a vocabulary of num_nodes labels."""
    vocab = NodeVocab([f"n{i}" for i in range(num_nodes)])
    corpus = EdgeCorpus([u for u, _ in pairs], [v for _, v in pairs], vocab)
    return StreamHistory.from_corpus(corpus)


def assert_scores_equal(history, reference, num_nodes):
    """Equal bits for every edge over the node slots 0..num_nodes."""
    for u, v in itertools.product(range(num_nodes + 1), repeat=2):
        edge = Edge(u, v)
        assert float.hex(history.rhss_score(edge)) == float.hex(reference.rhss_score(edge))


class TestObserve:
    """The folding reference's bookkeeping, and the package's edge total."""

    def test_single_insertion(self):
        history = history_of([(0, 1)])
        assert history.total_edges == 1
        assert history.out_degree[0] == 1
        assert history.in_degree[1] == 1
        assert history.edge_counts[(0, 1)] == 1

    def test_multiset_semantics(self):
        history = history_of([(0, 1), (0, 1)])
        assert history.edge_counts[(0, 1)] == 2
        assert history.out_neighbors[0] == {1}
        assert history.in_neighbors[1] == {0}

    def test_bookkeeping_invariants_hold(self):
        rng = np.random.default_rng(2)
        history = oracles.StreamHistory()
        for _ in range(200):
            history.observe(Edge(int(rng.integers(0, 6)), int(rng.integers(0, 6))))
            history.validate()

    def test_from_corpus(self):
        vocab = NodeVocab(["a", "b"])
        corpus = EdgeCorpus([0, 1], [1, 0], vocab)
        history = StreamHistory.from_corpus(corpus)
        assert history.total_edges == 2


@st.composite
def corpora(draw):
    """Corpora over a few nodes, often with self-loops, repeated pairs and
    the unseen slot W among the endpoints; sometimes empty."""
    num_nodes = draw(st.integers(0, 6))
    endpoint = st.integers(0, num_nodes)  # num_nodes is the unseen slot
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), max_size=30))
    pairs += draw(st.sampled_from([[], pairs[:3], [(num_nodes, num_nodes)]]))
    vocab = NodeVocab([f"n{i}" for i in range(num_nodes)])
    return EdgeCorpus([u for u, _ in pairs], [v for _, v in pairs], vocab)


class TestFromCorpus:
    @settings(max_examples=300, deadline=None)
    @given(corpus=corpora())
    def test_equals_observing_each_edge(self, corpus):
        history = StreamHistory.from_corpus(corpus)
        reference = oracles.fold_history(
            oracles.StreamHistory(), corpus.senders.tolist(), corpus.receivers.tolist())
        reference.validate()
        assert history.total_edges == reference.total_edges
        assert_scores_equal(history, reference, corpus.vocab.num_nodes)

    def test_named_cases(self):
        vocab = NodeVocab(["a", "b", "c"])
        for senders, receivers in (
            ([], []),  # empty
            ([0, 0, 0], [0, 0, 0]),  # one repeated self-loop
            ([3, 0, 3, 2], [3, 3, 1, 3]),  # unseen slot on both sides
        ):
            corpus = EdgeCorpus(senders, receivers, vocab)
            history = StreamHistory.from_corpus(corpus)
            reference = oracles.fold_history(oracles.StreamHistory(), senders, receivers)
            reference.validate()
            assert history.total_edges == reference.total_edges
            assert_scores_equal(history, reference, vocab.num_nodes)

    # Slot lists are indexed by endpoint, so without the range check a
    # negative endpoint would read slot W's counts and score as a real edge.
    @pytest.mark.parametrize("edge", [
        Edge(4, 0), Edge(0, 4), Edge(9, 9),
        SimpleNamespace(sender=-1, receiver=0), SimpleNamespace(sender=0, receiver=-1),
    ])
    def test_endpoint_outside_the_slots_raises(self, edge):
        history = built_from([(0, 3), (3, 1), (2, 2)], 3)
        with pytest.raises(ValueError, match=r"outside node slots 0\.\.3"):
            history.rhss_score(edge)


class TestValidate:
    def tampered(self, field, change):
        history = history_of([(0, 1), (0, 2), (1, 2), (0, 1)])
        history.validate()
        change(getattr(history, field))
        return history

    @pytest.mark.parametrize("field,change,message", [
        ("edge_counts", lambda c: c.update({(2, 0): 1}), "edge counts do not sum"),
        ("out_degree", lambda c: c.update({0: -1, 1: 1}), "out degrees"),
        ("in_degree", lambda c: c.update({2: -1, 1: 1}), "in degrees"),
        ("out_neighbors", lambda n: n[0].discard(2), "out neighbors"),
        ("in_neighbors", lambda n: n[0].add(1), "in neighbors"),
        ("in_neighbors", lambda n: n[2].add(2), "in neighbors"),
    ])
    def test_mismatch_raises(self, field, change, message):
        history = self.tampered(field, change)
        with pytest.raises(ValueError, match=message):
            history.validate()


class TestSampleScore:
    def test_empty_history_floor(self):
        assert oracles.StreamHistory().sample_score(Edge(0, 1)) == 1.0

    def test_seen_twice_among_nine(self):
        pairs = [(0, 1), (0, 1)] + [(2, 3), (3, 4), (4, 5), (5, 2), (2, 4), (3, 5), (4, 2)]
        history = history_of(pairs)
        assert history.total_edges == 9
        assert history.sample_score(Edge(0, 1)) == 3.0 / 10.0

    def test_unseen_among_nine(self):
        pairs = [(i % 3, (i + 1) % 3) for i in range(9)]
        history = history_of(pairs)
        assert history.sample_score(Edge(2, 2)) == 1.0 / 10.0


class TestPreferentialAttachment:
    def test_empty_history_is_zero(self):
        assert oracles.StreamHistory().preferential_attachment_score(Edge(0, 1)) == 0.0

    def test_worked_example(self):
        # out_degree[u]=3, in_degree[v]=2, m=10
        pairs = [(0, 2), (0, 3), (0, 4), (5, 1), (6, 1), (7, 8), (8, 7), (9, 8), (8, 9), (7, 9)]
        history = history_of(pairs)
        assert history.out_degree[0] == 3
        assert history.in_degree[1] == 2
        assert history.total_edges == 10
        assert history.preferential_attachment_score(Edge(0, 1)) == 0.06

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(4)
        history = oracles.StreamHistory()
        for _ in range(60):
            history.observe(Edge(int(rng.integers(0, 3)), int(rng.integers(0, 3))))
        for u, v in itertools.product(range(3), range(3)):
            assert 0.0 <= history.preferential_attachment_score(Edge(u, v)) <= 1.0


class TestHomophily:
    def test_disjoint_sets(self):
        history = history_of([(0, 1), (2, 0)])
        # out_nb(0) = {1}, in_nb(1) = {0}
        assert history.homophily_score(Edge(0, 1)) == 0.0

    def test_identical_nonempty_sets(self):
        # out_nb(0) = {1, 2}; in_nb(3) = {1, 2}
        history = history_of([(0, 1), (0, 2), (1, 3), (2, 3)])
        assert history.homophily_score(Edge(0, 3)) == 1.0

    def test_three_versus_three_overlap_two(self):
        # out_nb(0) = {1, 2, 3}; in_nb(9) = {2, 3, 4}; Jaccard = 2/4
        history = history_of([(0, 1), (0, 2), (0, 3), (2, 9), (3, 9), (4, 9)])
        assert history.homophily_score(Edge(0, 9)) == 0.5

    def test_both_empty_neighborhoods(self):
        assert oracles.StreamHistory().homophily_score(Edge(0, 1)) == 0.0


class TestCombinedScore:
    def test_is_mean_of_components(self):
        pairs = [(0, 1), (0, 1), (1, 2), (2, 0), (0, 2)]
        history, reference = built_from(pairs, 3), history_of(pairs)
        for u, v in itertools.product(range(3), range(3)):
            edge = Edge(u, v)
            expected = (
                reference.sample_score(edge)
                + reference.preferential_attachment_score(edge)
                + reference.homophily_score(edge)
            ) / 3.0
            assert history.rhss_score(edge) == expected

    def test_empty_history_composition(self):
        assert built_from([], 2).rhss_score(Edge(0, 1)) == (1.0 + 0.0 + 0.0) / 3.0

    def test_mean_arithmetic(self):
        assert (0.3 + 0.06 + 0.5) / 3.0 == pytest.approx(0.28666666666666)

    def test_order_invariance(self):
        rng = np.random.default_rng(6)
        pairs = [(int(rng.integers(0, 5)), int(rng.integers(0, 5))) for _ in range(40)]
        base = built_from(pairs, 5)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(len(pairs))
            shuffled = built_from([pairs[i] for i in perm], 5)
            for u, v in itertools.product(range(5), range(5)):
                assert shuffled.rhss_score(Edge(u, v)) == base.rhss_score(Edge(u, v))

    def test_all_scores_bounded(self):
        rng = np.random.default_rng(8)
        pairs = [(int(rng.integers(0, 4)), int(rng.integers(0, 4))) for _ in range(100)]
        history, reference = built_from(pairs, 4), history_of(pairs)
        for u, v in itertools.product(range(5), range(5)):  # 4 is the unseen slot
            edge = Edge(u, v)
            for score in (
                reference.sample_score(edge),
                reference.preferential_attachment_score(edge),
                reference.homophily_score(edge),
                history.rhss_score(edge),
            ):
                assert 0.0 <= score <= 1.0


class TestBruteForceOracle:
    def brute_components(self, pairs, edge):
        m = len(pairs)
        sample = (pairs.count((edge.sender, edge.receiver)) + 1.0) / (m + 1.0)
        out_deg = sum(1 for u, _ in pairs if u == edge.sender)
        in_deg = sum(1 for _, v in pairs if v == edge.receiver)
        pa = (out_deg * in_deg) / (m * m) if m else 0.0
        out_nb = {v for u, v in pairs if u == edge.sender}
        in_nb = {u for u, v in pairs if v == edge.receiver}
        union = out_nb | in_nb
        hom = len(out_nb & in_nb) / len(union) if union else 0.0
        return (sample + pa + hom) / 3.0

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            n_nodes = int(rng.integers(1, 6))
            n_edges = int(rng.integers(0, 9))
            pairs = [
                (int(rng.integers(0, n_nodes)), int(rng.integers(0, n_nodes)))
                for _ in range(n_edges)
            ]
            history = built_from(pairs, n_nodes)
            for u, v in itertools.product(range(n_nodes), range(n_nodes)):
                edge = Edge(u, v)
                assert history.rhss_score(edge) == pytest.approx(
                    self.brute_components(pairs, edge), abs=1e-15
                )
