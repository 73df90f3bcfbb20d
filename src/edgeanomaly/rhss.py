"""Frequency, degree, and neighborhood-overlap scoring of candidate edges.

A history of observed edges supports three bounded component scores for any
candidate edge, each in [0, 1] with lower meaning less plausible:

- sample score: add-one smoothed relative frequency of the exact edge
- preferential attachment: product of endpoint degree fractions
- homophily: Jaccard overlap between the sender's out-neighborhood and the
  receiver's in-neighborhood

The combined RHSS score is their unweighted mean. Every component reads the
edge's direction: (u, v) and (v, u) score differently. The history is built
once from a corpus's arrays and holds only counts of its edge multiset, so
any permutation of the same edges scores candidates identically.
"""

from __future__ import annotations

import numpy as np

from .graph_core import Edge, EdgeCorpus

__all__ = ["StreamHistory"]


class StreamHistory:
    """Counts over an observed edge multiset on node slots 0..W, fixed once
    built by `from_corpus`."""

    @classmethod
    def from_corpus(cls, corpus: EdgeCorpus) -> "StreamHistory":
        """The history of every edge in `corpus`.

        One sorted count of the pair keys sender * (W + 1) + receiver gives
        the edge counts; cutting the sorted keys by sender, and again by
        receiver, gives each slot's out- and in-neighbors; one bincount
        per side gives the degrees.
        """
        history = cls.__new__(cls)
        senders, receivers = corpus.senders, corpus.receivers
        dim = corpus.vocab.num_nodes + 1  # endpoints lie in 0..W
        keys, counts = np.unique(senders * dim + receivers, return_counts=True)
        heads, tails = np.divmod(keys, dim)
        by_tail = np.argsort(tails, kind="stable")
        history._dim = dim
        history._pair_counts = dict(zip(keys.tolist(), counts.tolist()))
        history._out_degree = np.bincount(senders, minlength=dim).tolist()
        history._in_degree = np.bincount(receivers, minlength=dim).tolist()
        history._out_neighbors = _groups(heads, tails, dim)
        history._in_neighbors = _groups(tails[by_tail], heads[by_tail], dim)
        history.total_edges = corpus.n
        return history

    def rhss_score(self, edge: Edge) -> float:
        """Unweighted mean of the sample, preferential attachment and
        homophily scores of `edge`.

        An empty history scores every edge (1 + 0 + 0) / 3. Homophily is 0
        when both neighborhoods are empty. An endpoint outside the node
        slots 0..W raises ValueError.
        """
        sender, receiver = edge.sender, edge.receiver
        if not (0 <= sender < self._dim and 0 <= receiver < self._dim):
            raise ValueError(
                f"edge ({sender}, {receiver}) lies outside node slots 0..{self._dim - 1}"
            )
        m = self.total_edges
        count = self._pair_counts.get(sender * self._dim + receiver, 0)
        sample = (count + 1.0) / (m + 1.0)
        attach = (
            self._out_degree[sender] * self._in_degree[receiver] / float(m * m)
            if m else 0.0
        )
        out_nb = self._out_neighbors[sender]
        in_nb = self._in_neighbors[receiver]
        shared = len(out_nb & in_nb)
        union = len(out_nb) + len(in_nb) - shared
        homophily = shared / union if union else 0.0
        return (sample + attach + homophily) / 3.0


def _groups(owners, members, dim) -> list[frozenset]:
    """For each slot 0..dim-1, the members of the runs of `owners` (sorted)
    that equal it, as a frozenset."""
    ends = np.cumsum(np.bincount(owners, minlength=dim)).tolist()
    members = members.tolist()
    return [frozenset(members[start:end]) for start, end in zip([0] + ends, ends)]
