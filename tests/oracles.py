"""Deliberately naive reference implementations that the kernels are checked
against.

Each oracle is written for plainness, not speed: explicit loops in a fixed
order, so a reader can see what the fast kernel must reproduce.
"""

import json

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


def save_model_v1(model, path):
    """Write a fitted model in the ADND1 format, which save_model replaced.

    Every float, topic_node included, is a C99 hex-float string, one list
    per topic row. load_model still reads these files, and tests write them
    with this oracle to check that it does.
    """
    def hex_list(values):
        return [float(v).hex() for v in values]

    payload = {
        "version": 1,
        "vocab_labels": list(model.vocab.labels),
        "hyper": {"eta": model.hyper.eta, "gamma": model.hyper.gamma, "tau": model.hyper.tau},
        "trunc": {"k_h": model.trunc.k_h, "k_a": model.trunc.k_a, "k_b": model.trunc.k_b},
        "topic_node": [hex_list(row) for row in model.topic_node],
        "topic_weights": hex_list(model.topic_weights),
        "diagnostics": {
            "elbo_trace": hex_list(model.diagnostics.elbo_trace),
            "sweeps": model.diagnostics.sweeps,
            "converged": model.diagnostics.converged,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ADND1\n")
        json.dump(payload, fh)
        fh.write("\n")
