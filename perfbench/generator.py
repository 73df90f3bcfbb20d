"""Community-structured, heavy-tailed edge streams with planted anomalous pairs.

The package sampler (`edgeanomaly synth`) cannot stand in for a wide
vocabulary: its node distributions are Dirichlet draws with concentration
one, so for `--nodes` 30, 1000 and 5000 over 20k edges it emits only 10-56
distinct nodes. Costs that grow with the vocabulary size W (the k_h x (W+1)
topic matrix, the model file, the unseen-node slot) would never show on it.

This generator draws W nodes split into communities. Each node gets an
independent log-normal sending and receiving popularity, so a few nodes
carry much of the traffic while almost every node still appears in a
100k-edge training stream. A null edge picks a sender by popularity, then a
receiver by popularity, from the sender's own community with probability
`within`, otherwise from anywhere. Anomalous edges repeat a fixed set of
planted pairs whose endpoints are drawn uniformly, ignoring popularity, and
always lie in different communities.

Every draw comes from one generator seeded by the caller, so equal seeds
give byte-identical CSV files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StreamShape:
    """Sizes and shape parameters of one generated stream."""

    nodes: int
    communities: int = 25
    within: float = 0.85
    sigma: float = 1.0
    planted_pairs: int = 1000


class CommunityStream:
    """One parameter draw; null and anomalous edges are sampled from it."""

    def __init__(self, shape: StreamShape, rng: np.random.Generator):
        self.shape = shape
        self.rng = rng
        w = shape.nodes
        self.community = rng.integers(0, shape.communities, size=w)
        self.send_pop = rng.lognormal(0.0, shape.sigma, size=w)
        self.recv_pop = rng.lognormal(0.0, shape.sigma, size=w)
        self.members = [np.flatnonzero(self.community == c) for c in range(shape.communities)]
        self.send_p = self._normalized(self.send_pop)
        self.recv_p = self._normalized(self.recv_pop)
        self.recv_within = [self._normalized(self.recv_pop[m]) for m in self.members]
        self.planted = self._plant(shape.planted_pairs)

    @staticmethod
    def _normalized(weights: np.ndarray) -> np.ndarray:
        return weights / weights.sum()

    def _plant(self, count: int) -> np.ndarray:
        pairs = []
        while len(pairs) < count:
            u, v = self.rng.integers(0, self.shape.nodes, size=2)
            if self.community[u] != self.community[v]:
                pairs.append((u, v))
        return np.array(pairs, dtype=np.int64)

    def null_edges(self, n: int) -> np.ndarray:
        """(n, 2) sender/receiver indices from the null process."""
        senders = self.rng.choice(self.shape.nodes, size=n, p=self.send_p)
        receivers = self.rng.choice(self.shape.nodes, size=n, p=self.recv_p)
        inside = self.rng.uniform(size=n) < self.shape.within
        sender_comm = self.community[senders]
        for c, members in enumerate(self.members):
            rows = np.flatnonzero(inside & (sender_comm == c))
            if rows.size and members.size:
                receivers[rows] = self.rng.choice(members, size=rows.size, p=self.recv_within[c])
        return np.column_stack([senders, receivers])

    def anomalous_edges(self, n: int) -> np.ndarray:
        """(n, 2) edges drawn uniformly from the planted cross-community pairs."""
        return self.planted[self.rng.integers(0, len(self.planted), size=n)]


def write_csv(path, edges: np.ndarray, labels=None) -> None:
    """Write `src,dst[,label]` rows in the package's edge CSV format."""
    names = [f"v{i}" for i in range(int(edges.max()) + 1)]
    if labels is None:
        lines = ["src,dst"] + [f"{names[u]},{names[v]}" for u, v in edges.tolist()]
    else:
        lines = ["src,dst,label"] + [
            f"{names[u]},{names[v]},{int(flag)}" for (u, v), flag in zip(edges.tolist(), labels)
        ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def make_stream_inputs(
    workdir, seed: int, shape: StreamShape, n_train: int, n_calib: int, n_null: int, n_anomalous: int
) -> None:
    """Write train.csv, calib.csv and a labeled test.csv into `workdir`.

    Calibration and null test edges come from the same process as training,
    so they are exchangeable with each other and the false positive bound
    holds. Anomalous test rows (label 1) follow the null rows.
    """
    stream = CommunityStream(shape, np.random.default_rng(seed))
    train = stream.null_edges(n_train)
    calib = stream.null_edges(n_calib)
    test = np.vstack([stream.null_edges(n_null), stream.anomalous_edges(n_anomalous)])
    labels = [0] * n_null + [1] * n_anomalous
    write_csv(workdir / "train.csv", train)
    write_csv(workdir / "calib.csv", calib)
    write_csv(workdir / "test.csv", test, labels)
