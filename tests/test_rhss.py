"""Baseline score bookkeeping and component arithmetic."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from edgeanomaly.graph_core import Edge, EdgeCorpus, NodeVocab
from edgeanomaly.rhss import StreamHistory


def history_of(pairs):
    history = StreamHistory()
    for u, v in pairs:
        history.observe(Edge(u, v))
    return history


class TestObserve:
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
        history = StreamHistory()
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


def _state(history):
    """Every field of a history as plain dicts, with their types."""
    return {
        "edge_counts": (type(history.edge_counts), dict(history.edge_counts)),
        "out_degree": (type(history.out_degree), dict(history.out_degree)),
        "in_degree": (type(history.in_degree), dict(history.in_degree)),
        "out_neighbors": (type(history.out_neighbors), dict(history.out_neighbors)),
        "in_neighbors": (type(history.in_neighbors), dict(history.in_neighbors)),
        "total_edges": history.total_edges,
    }


class TestFromCorpus:
    @settings(max_examples=300, deadline=None)
    @given(corpus=corpora())
    def test_equals_observing_each_edge(self, corpus):
        history = StreamHistory.from_corpus(corpus)
        history.validate()
        reference = oracles.fold_history(
            StreamHistory(), corpus.senders.tolist(), corpus.receivers.tolist())
        assert _state(history) == _state(reference)
        keys = [k for pair in history.edge_counts for k in pair]
        keys += list(history.out_degree) + list(history.in_neighbors)
        keys += [v for nodes in history.out_neighbors.values() for v in nodes]
        assert all(type(k) is int for k in keys)
        assert all(type(c) is int for c in history.edge_counts.values())

    def test_named_cases(self):
        vocab = NodeVocab(["a", "b", "c"])
        for senders, receivers in (
            ([], []),  # empty
            ([0, 0, 0], [0, 0, 0]),  # one repeated self-loop
            ([3, 0, 3, 2], [3, 3, 1, 3]),  # unseen slot on both sides
        ):
            corpus = EdgeCorpus(senders, receivers, vocab)
            history = StreamHistory.from_corpus(corpus)
            history.validate()
            assert _state(history) == _state(
                oracles.fold_history(StreamHistory(), senders, receivers))

    def test_observe_extends_a_built_history(self):
        corpus = EdgeCorpus([0, 1, 1], [1, 2, 2], NodeVocab(["a", "b", "c"]))
        history = StreamHistory.from_corpus(corpus).observe(Edge(2, 0))
        history.validate()
        assert _state(history) == _state(
            oracles.fold_history(StreamHistory(), [0, 1, 1, 2], [1, 2, 2, 0]))


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
        assert StreamHistory().sample_score(Edge(0, 1)) == 1.0

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
        assert StreamHistory().preferential_attachment_score(Edge(0, 1)) == 0.0

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
        history = StreamHistory()
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
        assert StreamHistory().homophily_score(Edge(0, 1)) == 0.0


class TestCombinedScore:
    def test_is_mean_of_components(self):
        history = history_of([(0, 1), (0, 1), (1, 2), (2, 0), (0, 2)])
        for u, v in itertools.product(range(3), range(3)):
            edge = Edge(u, v)
            expected = (
                history.sample_score(edge)
                + history.preferential_attachment_score(edge)
                + history.homophily_score(edge)
            ) / 3.0
            assert history.rhss_score(edge) == expected

    def test_empty_history_composition(self):
        assert StreamHistory().rhss_score(Edge(0, 1)) == (1.0 + 0.0 + 0.0) / 3.0

    def test_mean_arithmetic(self):
        assert (0.3 + 0.06 + 0.5) / 3.0 == pytest.approx(0.28666666666666)

    def test_order_invariance(self):
        rng = np.random.default_rng(6)
        pairs = [(int(rng.integers(0, 5)), int(rng.integers(0, 5))) for _ in range(40)]
        base = history_of(pairs)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(len(pairs))
            shuffled = history_of([pairs[i] for i in perm])
            for u, v in itertools.product(range(5), range(5)):
                assert shuffled.rhss_score(Edge(u, v)) == base.rhss_score(Edge(u, v))

    def test_all_scores_bounded(self):
        rng = np.random.default_rng(8)
        history = StreamHistory()
        for _ in range(100):
            history.observe(Edge(int(rng.integers(0, 4)), int(rng.integers(0, 4))))
        for u, v in itertools.product(range(5), range(5)):
            edge = Edge(u, v)
            for score in (
                history.sample_score(edge),
                history.preferential_attachment_score(edge),
                history.homophily_score(edge),
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
            history = history_of(pairs)
            for u, v in itertools.product(range(n_nodes), range(n_nodes)):
                edge = Edge(u, v)
                assert history.rhss_score(edge) == pytest.approx(
                    self.brute_components(pairs, edge), abs=1e-15
                )
