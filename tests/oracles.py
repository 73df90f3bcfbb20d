"""Deliberately naive reference implementations that the kernels are checked
against.

Each oracle is written for plainness, not speed: explicit loops in a fixed
order, so a reader can see what the fast kernel must reproduce.
"""

import numpy as np


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
