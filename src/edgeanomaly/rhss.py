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
        history = cls()
        for edge in corpus:
            history.observe(edge)
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
        """Cross-check the redundant counts; raise on any mismatch."""
        if sum(self.edge_counts.values()) != self.total_edges:
            raise ValueError("edge counts do not sum to total_edges")
        if sum(self.out_degree.values()) != self.total_edges:
            raise ValueError("out degrees do not sum to total_edges")
        if sum(self.in_degree.values()) != self.total_edges:
            raise ValueError("in degrees do not sum to total_edges")

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
