"""Hierarchical stick-breaking edge model with mean-field variational fitting.

A directed edge is a (sender, receiver) token pair. Both endpoints are
explained by one shared pool of corpus-level node distributions ("topics"):
stick-breaking weights over the pool pick which topics matter, each side of
the edge process owns a truncated stick-breaking mixture whose atoms each
point at one shared topic, and endpoints are drawn from the selected topic.
Sequences of edges drawn this way are exchangeable.

Fitting uses coordinate ascent on a fully factorized variational family at
fixed truncation levels. Every update is the exact optimum of its block, so
the evidence lower bound never decreases from sweep to sweep. The fitted
model keeps posterior mean topics and topic weights, which give a cheap
holdout score for any candidate edge.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy

from .graph_core import Edge, EdgeCorpus, NodeVocab

__all__ = [
    "LOG_FLOOR",
    "MODEL_MAGIC",
    "ModelFormatError",
    "HyperParams",
    "TruncationLevels",
    "SideState",
    "VariationalState",
    "FitDiagnostics",
    "FittedModel",
    "SamplerParams",
    "stick_weights",
    "init_state",
    "update_document_level",
    "update_corpus_level",
    "compute_elbo",
    "fit_state",
    "fit",
    "predictive_log_likelihood",
    "sample_edges",
    "save_model",
    "load_model",
]

# Scores below exp(-745) underflow float64; holdout log likelihoods clamp here.
LOG_FLOOR = -745.0

MODEL_MAGIC = "ADND2"
# Files written before ADND2 still load; their topic_node is hex-float rows.
_MODEL_MAGIC_V1 = "ADND1"
# topic_node's stored element type: IEEE float64, little-endian.
_PACKED_DTYPE = "<f8"


class ModelFormatError(ValueError):
    """Model file is missing the magic line or has a malformed body."""


@dataclass(frozen=True)
class HyperParams:
    """Positive finite real concentrations, not bools: eta for topics over
    nodes, gamma for the corpus-level sticks, tau for the per-side sticks."""

    eta: float = 1.0
    gamma: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        for name in ("eta", "gamma", "tau"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not (value > 0.0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class TruncationLevels:
    """Integer truncation sizes, not bools or floats: k_h shared topics, k_a
    sender atoms, k_b receiver atoms. The shared pool must be at least as
    large as either side."""

    k_h: int = 50
    k_a: int = 15
    k_b: int = 15

    def __post_init__(self):
        for name in ("k_h", "k_a", "k_b"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.k_h < 2:
            raise ValueError("k_h must be at least 2")
        if self.k_a < 1 or self.k_b < 1:
            raise ValueError("k_a and k_b must be at least 1")
        if self.k_h < max(self.k_a, self.k_b):
            raise ValueError("k_h must be at least max(k_a, k_b)")


def stick_weights(stick_fractions) -> np.ndarray:
    """Map stick fractions to mixture weights.

    Entry k gets fraction_k times the mass left after the first k-1 breaks.
    A final fraction of 1.0 gives the last entry all the remaining mass, so
    the result sums to one.
    """
    fractions = np.asarray(stick_fractions, dtype=float)
    if fractions.ndim != 1 or fractions.size == 0:
        raise ValueError("stick_fractions must be a nonempty vector")
    if np.any(fractions < 0.0) or np.any(fractions > 1.0):
        raise ValueError("stick fractions must lie in [0, 1]")
    remaining = np.concatenate(([1.0], np.cumprod(1.0 - fractions[:-1])))
    return fractions * remaining


class _StickDigammas(NamedTuple):
    """psi(a), psi(b) and psi(a+b) of Beta stick shapes a and b, and
    psi(b) - psi(a+b), each break's expected log leftover."""

    a: np.ndarray
    b: np.ndarray
    total: np.ndarray
    log_leftover: np.ndarray


def _expected_log_sticks(a: np.ndarray, b: np.ndarray):
    """Posterior expectations of log stick weights under independent Beta
    stick fractions, and the digamma values they are built from, as
    (expectations, _StickDigammas).

    a and b hold the K-1 Beta shapes, which the fit produced itself and this
    does not check; the final of the K expectations covers the leftover
    stick. The Beta entropy and the stick prior term of the bound reuse the
    digamma values.
    """
    digamma_a = scipy.special.digamma(a)
    digamma_b = scipy.special.digamma(b)
    both = scipy.special.digamma(a + b)
    log_leftover = digamma_b - both
    out = np.zeros(a.size + 1)
    out[:-1] = digamma_a - both
    out[1:] += log_leftover.cumsum()
    return out, _StickDigammas(digamma_a, digamma_b, both, log_leftover)


def _stick_shapes(column_mass: np.ndarray, concentration: float):
    """Exact Beta block update for stick fractions, from the column sums of
    an (n, K) responsibility matrix.

    Column t contributes its sum to the first shape and everything assigned
    past t to the second. Returns the (K-1,) shape vectors.
    """
    tail_mass = column_mass[::-1].cumsum()[::-1]
    shape_a = 1.0 + column_mass[:-1]
    shape_b = concentration + tail_mass[1:]
    return shape_a, shape_b


def _exp_normalize(logits: np.ndarray) -> np.ndarray:
    """Rowwise softmax, stabilized by subtracting each row's maximum.

    Works in place on logits, which callers pass as a fresh temporary, so a
    responsibility update holds one such buffer, not three. The reductions
    call the ufuncs that ndarray.max and ndarray.sum call, without their
    Python wrappers: the same loops, so the same bits.
    """
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=1, keepdims=True)
    return logits


def _uniform_rows(rng: np.random.Generator, shape) -> np.ndarray:
    rows = rng.uniform(size=shape)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def _slot_statistics(slot_count: np.ndarray, slot_resp: np.ndarray):
    """One side's token counts (k, W+1), column mass (k,) and entropy, from
    its (W+1, k) slot responsibilities and the number of edges on each slot.

    Every edge on slot w holds row w, so a sum over edges is slot_count[w]
    times that row, summed over slots. Those sums are running totals, so
    they add the slots in order at every k, the order of a loop over slots;
    numpy's sum of a single column and a BLAS product would not.
    """
    weighted = slot_count[:, None] * slot_resp
    mass = weighted.cumsum(axis=0)[-1]
    slot_terms = slot_count[:, None] * scipy.special.xlogy(slot_resp, slot_resp)
    entropy = -float(np.add.reduce(slot_terms.cumsum(axis=0)[-1]))
    return weighted.T, mass, entropy


@dataclass
class SideState:
    """One side's variational parameters: the senders' or the receivers'.

    Shapes, with k atoms on this side (k_a for senders, k_b for receivers),
    k_h shared topics and W+1 node slots:

    - stick_a/b: (k-1,) Beta parameters of the side's sticks
    - topic_resp: (k, k_h) rowwise probabilities that an atom points at each
      shared topic
    - slot_resp: (W+1, k) rowwise probabilities that an edge on each node
      slot used each atom; every edge on a slot shares that slot's row
    """

    stick_a: np.ndarray
    stick_b: np.ndarray
    topic_resp: np.ndarray
    slot_resp: np.ndarray


@dataclass
class VariationalState:
    """All variational parameters for one corpus.

    Shapes, with vocabulary size W (so W+1 node slots) and truncations
    (k_h, k_a, k_b); none depends on the number of edges:

    - lam: (k_h, W+1) Dirichlet parameters of the topics over node slots
    - corpus_stick_a/b: (k_h-1,) Beta parameters of the shared topic sticks
    - send, recv: each side's SideState, with k_a and k_b atoms
    """

    lam: np.ndarray
    corpus_stick_a: np.ndarray
    corpus_stick_b: np.ndarray
    send: SideState
    recv: SideState

    def validate(self, atol: float = 1e-9) -> None:
        """Check positivity and simplex constraints; raise on violation."""
        if np.any(self.lam <= 0.0):
            raise ValueError("lam must stay positive")
        for name, a, b in (
            ("corpus", self.corpus_stick_a, self.corpus_stick_b),
            ("send", self.send.stick_a, self.send.stick_b),
            ("recv", self.recv.stick_a, self.recv.stick_b),
        ):
            if np.any(a <= 0.0) or np.any(b <= 0.0):
                raise ValueError(f"{name} stick parameters must stay positive")
        for name, rows in (
            ("send_topic_resp", self.send.topic_resp),
            ("recv_topic_resp", self.recv.topic_resp),
            ("send_slot_resp", self.send.slot_resp),
            ("recv_slot_resp", self.recv.slot_resp),
        ):
            if np.any(rows < 0.0):
                raise ValueError(f"{name} has negative entries")
            if np.max(np.abs(rows.sum(axis=1) - 1.0)) > atol:
                raise ValueError(f"{name} rows must sum to one")


@dataclass(frozen=True)
class FitDiagnostics:
    """Bound trace and stopping facts from one fit."""

    elbo_trace: tuple[float, ...]
    sweeps: int
    converged: bool


@dataclass(frozen=True)
class FittedModel:
    """Posterior summary used for scoring: mean topics and topic weights.

    topic_node has one row per shared topic and one column per node slot
    (the last is the unseen-node slot); topic_weights has one entry per
    topic. Both must be finite and nonnegative with rows summing to one.
    The log arrays that scoring reads are computed on first use, cached,
    and read-only like the parameters they come from.
    """

    topic_node: np.ndarray
    topic_weights: np.ndarray
    vocab: NodeVocab
    hyper: HyperParams
    trunc: TruncationLevels
    diagnostics: FitDiagnostics = field(repr=False)

    def __post_init__(self):
        shape = (self.trunc.k_h, self.vocab.num_nodes + 1)
        if self.topic_node.shape != shape:
            raise ValueError(
                f"topic_node has shape {self.topic_node.shape}, expected {shape} "
                "(one row per topic, one column per node slot)"
            )
        if self.topic_weights.shape != (self.trunc.k_h,):
            raise ValueError(
                f"topic_weights has shape {self.topic_weights.shape}, "
                f"expected ({self.trunc.k_h},)"
            )
        for name in ("topic_node", "topic_weights"):
            values = getattr(self, name)
            if not (np.all(np.isfinite(values)) and np.all(values >= 0.0)):
                raise ValueError(f"{name} entries must be finite and nonnegative")
        if np.max(np.abs(self.topic_node.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("topic_node rows must sum to one")
        if abs(self.topic_weights.sum() - 1.0) > 1e-9:
            raise ValueError("topic_weights must sum to one")
        self.topic_node.flags.writeable = False
        self.topic_weights.flags.writeable = False

    @property
    def num_nodes(self) -> int:
        return self.topic_node.shape[1] - 1

    @cached_property
    def twice_log_weights(self) -> np.ndarray:
        """2 * log(topic_weights): each edge applies the weight once per endpoint."""
        with np.errstate(divide="ignore"):
            out = 2.0 * np.log(self.topic_weights)
        out.flags.writeable = False
        return out

    @cached_property
    def slot_log_topics(self) -> np.ndarray:
        """log(topic_node) transposed: row s holds every topic's log mass at slot s."""
        with np.errstate(divide="ignore"):
            out = np.log(self.topic_node.T, order="C")
        out.flags.writeable = False
        return out


def init_state(
    corpus: EdgeCorpus,
    hyper: HyperParams,
    trunc: TruncationLevels,
    seed: int,
) -> VariationalState:
    """Seeded random starting point satisfying every state invariant.

    Topic parameters start at eta plus Uniform(0, n / (k_h * (W+1))) noise;
    sticks start at their priors; responsibilities start near uniform. Draw
    order is fixed, so equal seeds give bit-identical states. The slot
    responsibilities are drawn last: a fit's first document update replaces
    them before anything reads them.
    """
    n = corpus.n
    if n == 0:
        raise ValueError("cannot initialize from an empty corpus")
    dim = corpus.vocab.num_nodes + 1
    rng = np.random.default_rng(seed)
    lam = hyper.eta + rng.uniform(0.0, n / (trunc.k_h * dim), size=(trunc.k_h, dim))
    sizes = (trunc.k_a, trunc.k_b)
    topic_rows = [_uniform_rows(rng, (k, trunc.k_h)) for k in sizes]
    slot_rows = [_uniform_rows(rng, (dim, k)) for k in sizes]
    send, recv = (
        SideState(np.ones(k - 1), np.full(k - 1, hyper.tau), topic_resp, slot_resp)
        for k, topic_resp, slot_resp in zip(sizes, topic_rows, slot_rows)
    )
    return VariationalState(
        lam, np.ones(trunc.k_h - 1), np.full(trunc.k_h - 1, hyper.gamma), send, recv
    )


@dataclass
class _SideSweep:
    """One side's share of the sweep carrier: its edge count per node slot,
    the token counts, column mass and entropy that set_slots takes from its
    slot responsibilities, and the expected log stick weights and digammas
    that set_sticks takes from its sticks."""

    slot_count: np.ndarray
    counts: np.ndarray = field(init=False)
    mass: np.ndarray = field(init=False)
    entropy: float = field(init=False)
    elog_sticks: np.ndarray = field(init=False)
    digammas: _StickDigammas = field(init=False)

    def set_slots(self, slot_resp: np.ndarray) -> None:
        self.counts, self.mass, self.entropy = _slot_statistics(self.slot_count, slot_resp)

    def set_sticks(self, shape_a: np.ndarray, shape_b: np.ndarray) -> None:
        self.elog_sticks, self.digammas = _expected_log_sticks(shape_a, shape_b)


@dataclass
class _Sweep:
    """Values a fit's blocks share instead of recomputing, one carrier per fit.

    Each side's edge count per node slot depends only on the corpus, and the
    log normalizer of the topics' Dirichlet prior only on eta and the
    shapes, so each is computed once. Every other value is written by the
    block that changes its source. The document update changes each side's
    slot responsibilities and sticks, so it writes each side's _SideSweep. The
    corpus update changes lam and the corpus sticks, so it writes
    digamma(lam), the topics' E[log p], and the corpus stick expectations
    and digammas. No value is sized by the number of edges.
    """

    send: _SideSweep
    recv: _SideSweep
    topic_prior_norm: float
    digamma_lam: np.ndarray = field(init=False)
    elog_topic: np.ndarray = field(init=False)
    elog_corpus: np.ndarray = field(init=False)
    corpus_stick_digammas: _StickDigammas = field(init=False)

    @classmethod
    def start(cls, state: VariationalState, corpus: EdgeCorpus, hyper: HyperParams) -> _Sweep:
        """A carrier whose derived values all match the given state."""
        sweep = cls.for_fit(state, corpus, hyper)
        sweep.send.set_slots(state.send.slot_resp)
        sweep.recv.set_slots(state.recv.slot_resp)
        return sweep

    @classmethod
    def for_fit(cls, state: VariationalState, corpus: EdgeCorpus, hyper: HyperParams) -> _Sweep:
        """A carrier holding what a fit's first document update reads.

        The values derived from the slot responsibilities are left unset:
        that update replaces the initial responsibilities before anything
        reads them.
        """
        k_h, dim = state.lam.shape
        sweep = cls(
            _SideSweep(np.bincount(corpus.senders, minlength=dim).astype(float)),
            _SideSweep(np.bincount(corpus.receivers, minlength=dim).astype(float)),
            k_h * (scipy.special.gammaln(dim * hyper.eta) - dim * scipy.special.gammaln(hyper.eta)),
        )
        for side, carried in ((state.send, sweep.send), (state.recv, sweep.recv)):
            carried.set_sticks(side.stick_a, side.stick_b)
        sweep.set_topics(state.lam)
        sweep.set_corpus_sticks(state.corpus_stick_a, state.corpus_stick_b)
        return sweep

    def set_topics(self, lam: np.ndarray) -> None:
        # rowwise E[log p] of Dirichlet(lam) rows, keeping the digamma terms
        # that the Dirichlet entropy reuses
        self.digamma_lam = scipy.special.digamma(lam)
        self.elog_topic = self.digamma_lam - scipy.special.digamma(
            np.add.reduce(lam, axis=-1, keepdims=True)
        )

    def set_corpus_sticks(self, shape_a: np.ndarray, shape_b: np.ndarray) -> None:
        self.elog_corpus, self.corpus_stick_digammas = _expected_log_sticks(shape_a, shape_b)


def update_document_level(
    state: VariationalState,
    corpus: EdgeCorpus,
    hyper: HyperParams,
    *,
    sweep: _Sweep | None = None,
) -> VariationalState:
    """Exact block updates for both sides' slot responsibilities, atom-topic
    responsibilities, and sticks, in that order per side.

    Edge responsibilities weigh each atom by its expected token score plus
    its expected log stick weight; atom responsibilities weigh each shared
    topic by responsibility-weighted token counts plus the corpus stick
    expectation; stick shapes then absorb the new responsibilities.

    An edge's logits depend only on its token, so each side normalizes one
    row per node slot, a (W+1, k) matrix, and keeps only those rows. The
    slot logits are built C-ordered: each row is then summed the way numpy
    sums a contiguous row of per-edge logits, so the rows are the same bits
    as normalizing one edge's row. Token counts, column mass and entropy
    weigh each slot's row by the slot's edge count.

    Inside fit_state, the topics' E[log p], the corpus stick expectation and
    each side's stick expectation come from the sweep carrier, where the
    previous updates (or the initial state) left them. Called alone, they
    are computed from the state. Either way this block stores on the carrier
    each side's token counts, responsibility entropy and column mass, for
    the corpus update and the bound, and the new sticks' expectations and
    digammas, for the bound and the next document update.
    """
    sweep = sweep if sweep is not None else _Sweep.start(state, corpus, hyper)
    elog_topic = sweep.elog_topic

    for side, carried in ((state.send, sweep.send), (state.recv, sweep.recv)):
        atom_token_score = side.topic_resp @ elog_topic
        side.slot_resp = _exp_normalize(np.add(atom_token_score.T, carried.elog_sticks, order="C"))
        carried.set_slots(side.slot_resp)
        side.topic_resp = _exp_normalize(carried.counts @ elog_topic.T + sweep.elog_corpus)
        side.stick_a, side.stick_b = _stick_shapes(carried.mass, hyper.tau)
        carried.set_sticks(side.stick_a, side.stick_b)
    return state


def update_corpus_level(
    state: VariationalState,
    corpus: EdgeCorpus,
    hyper: HyperParams,
    *,
    sweep: _Sweep | None = None,
) -> VariationalState:
    """Exact block updates for the shared topic sticks and topic parameters.

    Both sides' atom-topic responsibilities stack into one responsibility
    matrix for the corpus sticks; topic parameters add responsibility-routed
    token counts from both sides onto the eta prior.

    Inside fit_state, the token counts are the ones the document update
    stored on the sweep carrier. Called alone, they are counted from the
    state's slot responsibilities. Either way this block then stores the new
    corpus stick expectations and digammas, digamma(lam) and the topics'
    E[log p] on the carrier, for the bound and the next document update.
    """
    sweep = sweep if sweep is not None else _Sweep.start(state, corpus, hyper)
    stacked = np.vstack([state.send.topic_resp, state.recv.topic_resp])
    state.corpus_stick_a, state.corpus_stick_b = _stick_shapes(stacked.sum(axis=0), hyper.gamma)
    sweep.set_corpus_sticks(state.corpus_stick_a, state.corpus_stick_b)

    state.lam = (
        hyper.eta
        + state.send.topic_resp.T @ sweep.send.counts
        + state.recv.topic_resp.T @ sweep.recv.counts
    )
    sweep.set_topics(state.lam)
    return state


def _categorical_entropy(rows: np.ndarray) -> float:
    return float(-scipy.special.xlogy(rows, rows).sum())


def _beta_entropy(shape_a: np.ndarray, shape_b: np.ndarray, digammas: _StickDigammas) -> float:
    """Summed entropy of Beta sticks, given their digamma values."""
    total = shape_a + shape_b
    return float(
        np.add.reduce(
            scipy.special.betaln(shape_a, shape_b)
            - (shape_a - 1.0) * digammas.a
            - (shape_b - 1.0) * digammas.b
            + (total - 2.0) * digammas.total
        )
    )


def _dirichlet_entropy(alpha: np.ndarray, digamma_alpha: np.ndarray) -> float:
    """Summed entropy of Dirichlet rows, given digamma(alpha)."""
    alpha0 = alpha.sum(axis=1)
    dim = alpha.shape[1]
    return float(
        np.sum(
            scipy.special.gammaln(alpha).sum(axis=1)
            - scipy.special.gammaln(alpha0)
            + (alpha0 - dim) * scipy.special.digamma(alpha0)
            - ((alpha - 1.0) * digamma_alpha).sum(axis=1)
        )
    )


def _stick_prior_term(digammas: _StickDigammas, concentration: float) -> float:
    """E[log Beta(fraction; 1, c)] summed over sticks, dropping nothing."""
    sticks = digammas.log_leftover.size
    if sticks == 0:
        return 0.0
    return float(
        sticks * np.log(concentration)
        + (concentration - 1.0) * np.add.reduce(digammas.log_leftover)
    )


def compute_elbo(
    state: VariationalState,
    corpus: EdgeCorpus,
    hyper: HyperParams,
    *,
    sweep: _Sweep | None = None,
) -> float:
    """Evidence lower bound for the current state on the given corpus.

    Sums expected token log likelihoods, expected log priors for both sides'
    assignments and sticks, the shared stick and topic priors, and the
    entropies of every variational factor. Finite for any valid state.

    Inside fit_state, every value derived from the slot responsibilities
    (each side's token counts, entropy and column mass), each side's and the
    corpus stick expectations with their digammas, digamma(lam) and the
    topics' E[log p] come from the sweep carrier, where this sweep's
    document and corpus updates stored them, and the log normalizer of the
    topics' prior is the one the carrier computed when the fit started.
    Called alone, all of them are computed from the state.
    """
    sweep = sweep if sweep is not None else _Sweep.start(state, corpus, hyper)
    elog_topic = sweep.elog_topic
    elog_corpus = sweep.elog_corpus
    total = 0.0

    for side, carried in ((state.send, sweep.send), (state.recv, sweep.recv)):
        total += float((side.topic_resp * (carried.counts @ elog_topic.T)).sum())
        total += float((side.topic_resp @ elog_corpus).sum())
        total += float(carried.mass @ carried.elog_sticks)
        total += _stick_prior_term(carried.digammas, hyper.tau)
        total += _categorical_entropy(side.topic_resp)
        total += carried.entropy
        total += _beta_entropy(side.stick_a, side.stick_b, carried.digammas)

    total += _stick_prior_term(sweep.corpus_stick_digammas, hyper.gamma)
    total += float(sweep.topic_prior_norm + (hyper.eta - 1.0) * elog_topic.sum())
    total += _beta_entropy(state.corpus_stick_a, state.corpus_stick_b, sweep.corpus_stick_digammas)
    total += _dirichlet_entropy(state.lam, sweep.digamma_lam)
    return total


def fit_state(
    corpus: EdgeCorpus,
    hyper: HyperParams,
    trunc: TruncationLevels,
    *,
    max_sweeps: int = 200,
    rel_tol: float = 1e-5,
    seed: int = 0,
):
    """Run coordinate ascent to convergence; return (state, diagnostics).

    One sweep is a document-level update followed by a corpus-level update.
    The three block calls share one _Sweep carrier, so each fit counts each
    side's edges per node slot and takes the topic prior's log normalizer
    once, and each sweep takes each side's token counts, entropy and column
    mass once, and computes digamma(lam) and every stick digamma once. The
    initial slot responsibilities are never read, since the first document
    update replaces them. Stops once the bound's relative change drops below
    rel_tol or after max_sweeps sweeps.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    if not 0.0 < rel_tol < math.inf:  # NaN fails both comparisons
        raise ValueError("rel_tol must be positive and finite")
    state = init_state(corpus, hyper, trunc, seed)
    sweep = _Sweep.for_fit(state, corpus, hyper)
    trace: list[float] = []
    converged = False
    for _ in range(max_sweeps):
        update_document_level(state, corpus, hyper, sweep=sweep)
        update_corpus_level(state, corpus, hyper, sweep=sweep)
        bound = compute_elbo(state, corpus, hyper, sweep=sweep)
        trace.append(bound)
        if len(trace) > 1 and abs(bound - trace[-2]) <= rel_tol * abs(bound):
            converged = True
            break
    diagnostics = FitDiagnostics(
        elbo_trace=tuple(trace), sweeps=len(trace), converged=converged
    )
    return state, diagnostics


def fit(
    corpus: EdgeCorpus,
    hyper: HyperParams | None = None,
    trunc: TruncationLevels | None = None,
    *,
    max_sweeps: int = 200,
    rel_tol: float = 1e-5,
    seed: int = 0,
) -> FittedModel:
    """Fit the model and summarize the posterior for scoring.

    Topics become their posterior means; topic weights come from posterior
    mean stick fractions with the last weight absorbing the leftover stick.
    The model keeps the corpus's vocabulary itself: a vocabulary never
    changes, so the model's node slots are the corpus's.
    """
    hyper = hyper if hyper is not None else HyperParams()
    trunc = trunc if trunc is not None else TruncationLevels()
    state, diagnostics = fit_state(
        corpus, hyper, trunc, max_sweeps=max_sweeps, rel_tol=rel_tol, seed=seed
    )
    topic_node = state.lam / state.lam.sum(axis=1, keepdims=True)
    mean_fractions = state.corpus_stick_a / (state.corpus_stick_a + state.corpus_stick_b)
    topic_weights = stick_weights(np.append(mean_fractions, 1.0))
    return FittedModel(
        topic_node=topic_node,
        topic_weights=topic_weights,
        vocab=corpus.vocab,
        hyper=hyper,
        trunc=trunc,
        diagnostics=diagnostics,
    )


def predictive_log_likelihood(model: FittedModel, edge: Edge) -> float:
    """Log score of one edge under the fitted summary.

    Computes log sum_i w_i * topic[i, sender] * w_i * topic[i, receiver]
    with the topic weight applied once per endpoint, via logsumexp, clamped
    below at LOG_FLOOR so the result is always finite. Both endpoints are
    scored by the same topics, and their two log rows are added before the
    weights, an addition that commutes bit for bit, so the score is
    symmetric: u -> v scores exactly like v -> u, and edge direction does
    not enter it.
    """
    limit = model.num_nodes
    if not (0 <= edge.sender <= limit and 0 <= edge.receiver <= limit):
        raise ValueError(
            f"edge ({edge.sender}, {edge.receiver}) out of range for {limit} nodes"
        )
    slots = model.slot_log_topics
    terms = model.twice_log_weights + (slots[edge.sender] + slots[edge.receiver])
    return max(_logsumexp(terms), LOG_FLOOR)


def _logsumexp(terms: np.ndarray) -> float:
    """log(sum(exp(terms))) of a 1-D float vector, bit-identical to
    scipy.special.logsumexp (scipy 1.17) for entries that are finite or -inf.

    Follows scipy's steps without its array-API dispatch, which dominates
    the cost on vectors of a few dozen entries. scipy splits every maximal
    entry out of the sum, shifts the rest by the maximum, and returns
    log1p(rest / count) + log(count) + max. Here the first maximum is found
    with argmax and set to -inf in a shifted copy of terms; terms itself is
    never written. Another maximal entry shifts to exactly 0.0, and only
    then are the ties masked and counted as scipy does. With one maximum,
    count is 1.0, and dividing by it and adding log(1.0) = +0.0 to
    log1p(rest) >= 0 change no bits, so the result is log1p(rest) + max.
    The numpy ufuncs are kept throughout, since the math module's log1p can
    differ by one ULP.
    """
    first = terms.argmax()
    top = terms[first]
    if top == -np.inf:
        return -np.inf
    shifted = terms - top
    shifted[first] = -np.inf
    if shifted[shifted.argmax()] == 0.0:
        at_top = shifted == 0.0
        count = np.float64(np.count_nonzero(at_top) + 1)
        shifted[at_top] = -np.inf
        np.exp(shifted, out=shifted)
        return float(np.log1p(np.add.reduce(shifted) / count) + np.log(count) + top)
    np.exp(shifted, out=shifted)
    return float(np.log1p(np.add.reduce(shifted)) + top)


@dataclass(frozen=True)
class SamplerParams:
    """One parameter draw from the generative process.

    base is the node distribution underlying the topics; topics holds one
    node distribution per row; each side keeps its atom-to-topic pointers
    and stick weights.
    """

    base: np.ndarray
    topic_weights: np.ndarray
    topics: np.ndarray
    send_atoms: np.ndarray
    recv_atoms: np.ndarray
    send_weights: np.ndarray
    recv_weights: np.ndarray


def _draw_tokens(
    rng: np.random.Generator, topics: np.ndarray, topic_ids: np.ndarray
) -> np.ndarray:
    """Draw one token per entry of topic_ids from the matching topic row.

    Grouped by topic in sorted order so the draw sequence is reproducible.
    """
    tokens = np.empty(topic_ids.size, dtype=np.int64)
    for topic in np.unique(topic_ids):
        mask = topic_ids == topic
        tokens[mask] = rng.choice(topics.shape[1], size=int(mask.sum()), p=topics[topic])
    return tokens


def sample_edges(
    hyper: HyperParams,
    trunc: TruncationLevels,
    num_nodes: int,
    num_edges: int,
    seed: int,
    *,
    return_params: bool = False,
):
    """Draw an exchangeable synthetic corpus from the generative process.

    One parameter draw covers the whole corpus: a base node distribution
    from a symmetric Dirichlet restricted to the real nodes, topics drawn
    from that base, truncated stick weights at every level, and atom
    pointers into the shared topics. Edges then sample endpoints through
    per-side atoms. Node labels are "n0".."n{num_nodes-1}". With
    return_params=True also returns the SamplerParams used.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be at least 1")
    if num_edges < 1:
        raise ValueError("num_edges must be at least 1")
    rng = np.random.default_rng(seed)

    base_full = rng.dirichlet(np.full(num_nodes + 1, hyper.eta))
    base = base_full[:num_nodes] / base_full[:num_nodes].sum()
    topic_weights = stick_weights(
        np.append(rng.beta(1.0, hyper.gamma, size=trunc.k_h - 1), 1.0)
    )
    topics = rng.dirichlet(base, size=trunc.k_h)

    send_atoms = rng.choice(trunc.k_h, size=trunc.k_a, p=topic_weights)
    recv_atoms = rng.choice(trunc.k_h, size=trunc.k_b, p=topic_weights)
    send_weights = stick_weights(
        np.append(rng.beta(1.0, hyper.tau, size=trunc.k_a - 1), 1.0)
    )
    recv_weights = stick_weights(
        np.append(rng.beta(1.0, hyper.tau, size=trunc.k_b - 1), 1.0)
    )

    send_z = rng.choice(trunc.k_a, size=num_edges, p=send_weights)
    recv_z = rng.choice(trunc.k_b, size=num_edges, p=recv_weights)
    senders = _draw_tokens(rng, topics, send_atoms[send_z])
    receivers = _draw_tokens(rng, topics, recv_atoms[recv_z])

    vocab = NodeVocab(f"n{i}" for i in range(num_nodes))
    corpus = EdgeCorpus(senders, receivers, vocab)
    if not return_params:
        return corpus
    params = SamplerParams(
        base=base,
        topic_weights=topic_weights,
        topics=topics,
        send_atoms=send_atoms,
        recv_atoms=recv_atoms,
        send_weights=send_weights,
        recv_weights=recv_weights,
    )
    return corpus, params


def _hex_vector(values: np.ndarray) -> list[str]:
    return [float(v).hex() for v in values]


def _unhex_vector(values) -> np.ndarray:
    return np.array([float.fromhex(v) for v in values])


def _pack_matrix(values: np.ndarray) -> dict:
    """Raw little-endian float64 bytes of a matrix, in C order, as base64."""
    data = np.asarray(values, dtype=_PACKED_DTYPE).tobytes(order="C")
    return {
        "dtype": _PACKED_DTYPE,
        "shape": list(values.shape),
        "data": base64.b64encode(data).decode("ascii"),
    }


def _unpack_matrix(packed) -> np.ndarray:
    """Inverse of _pack_matrix; a malformed block raises ValueError or TypeError."""
    if packed["dtype"] != _PACKED_DTYPE:
        raise ValueError(f"topic_node dtype {packed['dtype']!r} is not {_PACKED_DTYPE!r}")
    shape = packed["shape"]
    if not (
        isinstance(shape, list)
        and all(type(size) is int and size >= 0 for size in shape)
    ):
        raise ValueError(f"topic_node shape {shape!r} is not a list of sizes")
    try:
        data = base64.b64decode(packed["data"], validate=True)
    except binascii.Error as err:
        raise ValueError(f"topic_node data is not valid base64 ({err})") from err
    expected = math.prod(shape) * np.dtype(_PACKED_DTYPE).itemsize
    if len(data) != expected:
        raise ValueError(
            f"topic_node holds {len(data)} bytes, shape {shape} needs {expected}"
        )
    return np.frombuffer(data, dtype=_PACKED_DTYPE).reshape(shape)


def _model_vocab(labels) -> NodeVocab:
    """The vocabulary a model file names; labels must be distinct strings."""
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
        raise ValueError("vocab_labels must be a list of strings")
    return NodeVocab(labels)


def _diagnostics(diag) -> FitDiagnostics:
    """The fit diagnostics a model file holds, checked, not coerced: converged
    is a JSON boolean and sweeps a JSON integer equal to the trace length."""
    elbo_trace = tuple(_unhex_vector(diag["elbo_trace"]).tolist())
    converged, sweeps = diag["converged"], diag["sweeps"]
    if type(converged) is not bool:
        raise ValueError(f"diagnostics converged {converged!r} is not a boolean")
    if type(sweeps) is not int or sweeps != len(elbo_trace):
        raise ValueError(
            f"diagnostics sweeps {sweeps!r} is not the ELBO trace length {len(elbo_trace)}"
        )
    return FitDiagnostics(elbo_trace=elbo_trace, sweeps=sweeps, converged=converged)


def save_model(model: FittedModel, path) -> None:
    """Write a fitted model as the ADND2 magic line plus a JSON body.

    topic_node, the one array sized by the vocabulary, is stored as base64
    raw little-endian float64 bytes in C order under its dtype and shape.
    topic_weights and the ELBO trace stay C99 hex-float lists. Both forms
    reproduce the arrays bit for bit on load, and saving a loaded model
    writes the same bytes again.
    """
    payload = {
        "version": 2,
        "vocab_labels": list(model.vocab.labels),
        "hyper": {"eta": model.hyper.eta, "gamma": model.hyper.gamma, "tau": model.hyper.tau},
        "trunc": {"k_h": model.trunc.k_h, "k_a": model.trunc.k_a, "k_b": model.trunc.k_b},
        "topic_node": _pack_matrix(model.topic_node),
        "topic_weights": _hex_vector(model.topic_weights),
        "diagnostics": {
            "elbo_trace": _hex_vector(np.asarray(model.diagnostics.elbo_trace)),
            "sweeps": model.diagnostics.sweeps,
            "converged": model.diagnostics.converged,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODEL_MAGIC + "\n")
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> FittedModel:
    """Read back a model written by save_model, verifying the magic line.

    Reads ADND2 and the older ADND1, whose topic_node is a list of hex-float
    rows; saving the loaded model writes ADND2. A file that is not UTF-8 or
    whose body does not parse, names labels that are not distinct strings,
    holds diagnostics of the wrong JSON type or a sweep count unequal to the
    ELBO trace length, or whose arrays FittedModel rejects (wrong shape for
    the vocabulary, non-finite or negative entries) raises ModelFormatError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            magic = fh.readline().rstrip("\n")
            if magic not in (_MODEL_MAGIC_V1, MODEL_MAGIC):
                raise ModelFormatError(
                    f"{path}: not a {MODEL_MAGIC} or {_MODEL_MAGIC_V1} model file"
                )
            payload = json.load(fh)
        except UnicodeDecodeError as err:
            raise ModelFormatError(f"{path}: not UTF-8 text: {err}") from err
        except json.JSONDecodeError as err:
            raise ModelFormatError(f"{path}: malformed model body: {err}") from err
    try:
        vocab = _model_vocab(payload["vocab_labels"])
        hyper = HyperParams(**payload["hyper"])
        trunc = TruncationLevels(**payload["trunc"])
        if magic == MODEL_MAGIC:
            topic_node = _unpack_matrix(payload["topic_node"])
        else:
            topic_node = np.array([_unhex_vector(row) for row in payload["topic_node"]])
        topic_weights = _unhex_vector(payload["topic_weights"])
        diagnostics = _diagnostics(payload["diagnostics"])
        return FittedModel(
            topic_node=topic_node,
            topic_weights=topic_weights,
            vocab=vocab,
            hyper=hyper,
            trunc=trunc,
            diagnostics=diagnostics,
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ModelFormatError(f"{path}: malformed model body: {err}") from err
