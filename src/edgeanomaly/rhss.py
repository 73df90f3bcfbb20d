"""Frequency, degree, and neighborhood-overlap scoring of candidate edges.

A history of observed edges supports three bounded component scores for any
candidate edge, each in [0, 1] with lower meaning less plausible:

- sample score: add-one smoothed relative frequency of the exact edge
- preferential attachment: product of endpoint degree fractions
- homophily: Jaccard overlap between the sender's out-neighborhood and the
  receiver's in-neighborhood

The combined RHSS score is their unweighted mean. History bookkeeping is
order independent, so any permutation of the same edge multiset scores
candidates identically.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from .graph_core import Edge, EdgeCorpus

__all__ = ["StreamHistory"]


class StreamHistory:
    """Running counts over an observed edge multiset."""

    def __init__(self):
        self.edge_counts: Counter = Counter()
        self.out_degree: Counter = Counter()
        self.in_degree: Counter = Counter()
        self.out_neighbors: defaultdict = defaultdict(set)
        self.in_neighbors: defaultdict = defaultdict(set)
        self.total_edges = 0

    @classmethod
    def from_corpus(cls, corpus: EdgeCorpus) -> "StreamHistory":
        """The history of every edge in `corpus`, equal to observing each.

        Built from the corpus arrays without per-edge objects: one sorted
        count of the distinct (sender, receiver) pairs gives the edge counts
        and the neighbour sets, and one bincount per side the degrees.
        """
        history = cls()
        senders, receivers = corpus.senders, corpus.receivers
        dim = corpus.vocab.num_nodes + 1  # endpoints lie in 0..W
        keys, counts = np.unique(senders * dim + receivers, return_counts=True)
        heads, tails = np.divmod(keys, dim)
        pairs = list(zip(heads.tolist(), tails.tolist()))
        history.edge_counts.update(dict(zip(pairs, counts.tolist())))
        for degree, side in ((history.out_degree, senders), (history.in_degree, receivers)):
            per_node = np.bincount(side, minlength=dim)
            nodes = np.flatnonzero(per_node)
            degree.update(dict(zip(nodes.tolist(), per_node[nodes].tolist())))
        for sender, receiver in pairs:
            history.out_neighbors[sender].add(receiver)
            history.in_neighbors[receiver].add(sender)
        history.total_edges = corpus.n
        return history

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
