"""Model math: sticks, updates, bound, fitting, scoring, sampling, storage."""

import base64
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammaln, logsumexp, xlogy

from edgeanomaly import adnd
from edgeanomaly.adnd import (
    FitDiagnostics,
    FittedModel,
    HyperParams,
    ModelFormatError,
    TruncationLevels,
    compute_elbo,
    expected_log_sticks,
    fit,
    fit_state,
    init_state,
    load_model,
    predictive_log_likelihood,
    sample_edges,
    save_model,
    stick_posterior,
    stick_weights,
    update_corpus_level,
    update_document_level,
)
from edgeanomaly.graph_core import Edge, EdgeCorpus, NodeVocab, corpus_from_pairs

import oracles

HYPER = HyperParams()
SMALL_TRUNC = TruncationLevels(k_h=6, k_a=3, k_b=3)


def small_corpus(seed=3, num_nodes=10, num_edges=80):
    return sample_edges(HYPER, SMALL_TRUNC, num_nodes, num_edges, seed)


def toy_model(topic_node, topic_weights, num_real_nodes):
    """FittedModel wrapper for hand-built parameter matrices."""
    vocab = NodeVocab([f"n{i}" for i in range(num_real_nodes)])
    k_h = len(topic_weights)
    return FittedModel(
        topic_node=np.asarray(topic_node, dtype=float),
        topic_weights=np.asarray(topic_weights, dtype=float),
        vocab=vocab,
        hyper=HYPER,
        trunc=TruncationLevels(k_h=max(k_h, 2), k_a=1, k_b=1),
        diagnostics=FitDiagnostics((0.0,), 1, True),
    )


class TestHyperAndTrunc:
    @pytest.mark.parametrize("bad", [{"eta": 0.0}, {"gamma": -1.0}, {"tau": np.inf}])
    def test_rejects_nonpositive_concentrations(self, bad):
        with pytest.raises(ValueError):
            HyperParams(**bad)

    @pytest.mark.parametrize("bad", [{"k_h": 1}, {"k_a": 0}, {"k_h": 5, "k_a": 9}])
    def test_rejects_bad_truncations(self, bad):
        with pytest.raises(ValueError):
            TruncationLevels(**bad)


class TestStickWeights:
    def test_halving_fractions(self):
        np.testing.assert_allclose(
            stick_weights([0.5, 0.5, 0.5]), [0.5, 0.25, 0.125]
        )

    def test_truncated_last_takes_remainder(self):
        # a final fraction of 1.0 breaks off all the mass the others left
        np.testing.assert_allclose(
            stick_weights([0.5, 0.5, 1.0]), [0.5, 0.25, 0.25]
        )

    def test_first_stick_takes_all(self):
        np.testing.assert_allclose(stick_weights([1.0, 0.3]), [1.0, 0.0])

    def test_truncated_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            fractions = rng.uniform(size=rng.integers(1, 12))
            total = stick_weights(np.append(fractions, 1.0)).sum()
            assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("bad", [[-0.1, 0.5], [0.5, 1.2], []])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            stick_weights(bad)


class TestExpectedLogSticks:
    def test_unit_beta_parameters(self):
        np.testing.assert_allclose(expected_log_sticks([1.0], [1.0]), [-1.0, -1.0])

    def test_matches_digamma_identity(self):
        a = np.array([2.0, 5.0, 0.5])
        b = np.array([3.0, 1.0, 4.0])
        out = expected_log_sticks(a, b)
        log_frac = digamma(a) - digamma(a + b)
        log_left = digamma(b) - digamma(a + b)
        np.testing.assert_allclose(out[0], log_frac[0])
        np.testing.assert_allclose(out[1], log_frac[1] + log_left[0])
        np.testing.assert_allclose(out[3], log_left.sum())

    def test_entries_nonpositive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = rng.integers(1, 10)
            out = expected_log_sticks(rng.uniform(0.1, 50, k), rng.uniform(0.1, 50, k))
            assert np.all(out <= 0.0)
            assert np.all(np.isfinite(out))

    def test_near_certain_stick_approaches_zero(self):
        out = expected_log_sticks([1e8], [1e-3])
        assert -1e-9 < out[0] <= 0.0

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            expected_log_sticks([1.0, 0.0], [1.0, 1.0])
        # the fit's carrier skips these checks; the public function keeps them
        with pytest.raises(ValueError, match="positive"):
            expected_log_sticks([1.0, 2.0], [1.0, -0.5])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal-length"):
            expected_log_sticks([1.0, 2.0], [1.0])

    def test_empty_parameters_give_single_full_stick(self):
        np.testing.assert_array_equal(
            expected_log_sticks(np.empty(0), np.empty(0)), [0.0]
        )


class TestStickPosterior:
    def test_zero_responsibilities_recover_prior(self):
        a, b = stick_posterior(np.zeros((3, 4)), 2.5)
        np.testing.assert_array_equal(a, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(b, [2.5, 2.5, 2.5])

    def test_all_mass_on_first_atom(self):
        resp = np.zeros((4, 2))
        resp[:, 0] = 1.0
        a, b = stick_posterior(resp, 0.7)
        np.testing.assert_array_equal(a, [5.0])
        np.testing.assert_array_equal(b, [0.7])

    def test_tail_accumulation(self):
        resp = np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3]])
        a, b = stick_posterior(resp, 1.0)
        np.testing.assert_allclose(a, [1.3, 1.9])
        np.testing.assert_allclose(b, [1.0 + 0.9 + 0.8, 1.0 + 0.8])


class TestInitState:
    def test_invariants_and_bounds(self):
        corpus = small_corpus()
        state = init_state(corpus, HYPER, SMALL_TRUNC, seed=0)
        state.validate()
        upper = HYPER.eta + corpus.n / (SMALL_TRUNC.k_h * (corpus.vocab.num_nodes + 1))
        assert np.all(state.lam >= HYPER.eta)
        assert np.all(state.lam <= upper)
        np.testing.assert_array_equal(state.corpus_stick_a, 1.0)
        np.testing.assert_array_equal(state.corpus_stick_b, HYPER.gamma)
        np.testing.assert_array_equal(state.send_stick_b, HYPER.tau)
        assert state.send_slot_resp.shape == (corpus.vocab.num_nodes + 1, SMALL_TRUNC.k_a)

    def test_deterministic(self):
        corpus = small_corpus()
        s1 = init_state(corpus, HYPER, SMALL_TRUNC, seed=5)
        s2 = init_state(corpus, HYPER, SMALL_TRUNC, seed=5)
        np.testing.assert_array_equal(s1.lam, s2.lam)
        np.testing.assert_array_equal(s1.send_slot_resp, s2.send_slot_resp)

    def test_empty_corpus_raises(self):
        corpus = EdgeCorpus([], [], NodeVocab(["a"]))
        with pytest.raises(ValueError):
            init_state(corpus, HYPER, SMALL_TRUNC, seed=0)


class TestUpdates:
    def test_sweeps_never_decrease_elbo(self):
        for seed in range(3):
            corpus = small_corpus(seed=seed)
            state = init_state(corpus, HYPER, SMALL_TRUNC, seed=seed)
            prev = compute_elbo(state, corpus, HYPER)
            for _ in range(25):
                update_document_level(state, corpus, HYPER)
                update_corpus_level(state, corpus, HYPER)
                cur = compute_elbo(state, corpus, HYPER)
                assert cur >= prev - 1e-9 * abs(prev)
                prev = cur
            state.validate()

    def test_each_block_is_an_ascent_step(self):
        corpus = small_corpus(seed=11)
        state = init_state(corpus, HYPER, SMALL_TRUNC, seed=2)
        prev = compute_elbo(state, corpus, HYPER)
        for _ in range(8):
            update_document_level(state, corpus, HYPER)
            mid = compute_elbo(state, corpus, HYPER)
            assert mid >= prev - 1e-9 * abs(prev)
            update_corpus_level(state, corpus, HYPER)
            cur = compute_elbo(state, corpus, HYPER)
            assert cur >= mid - 1e-9 * abs(mid)
            prev = cur

    def test_corpus_update_with_zero_pointers_recovers_priors(self):
        corpus = small_corpus(seed=4)
        state = init_state(corpus, HYPER, SMALL_TRUNC, seed=0)
        state.send_topic_resp = np.zeros_like(state.send_topic_resp)
        state.recv_topic_resp = np.zeros_like(state.recv_topic_resp)
        update_corpus_level(state, corpus, HYPER)
        np.testing.assert_array_equal(state.corpus_stick_a, 1.0)
        np.testing.assert_array_equal(state.corpus_stick_b, HYPER.gamma)
        np.testing.assert_array_equal(state.lam, np.full_like(state.lam, HYPER.eta))

    def test_corpus_update_routes_single_edge_counts(self):
        # one edge (0, 1), all responsibility on atom 0 and topic 1
        vocab = NodeVocab(["a", "b"])
        corpus = EdgeCorpus([0], [1], vocab)
        trunc = TruncationLevels(k_h=3, k_a=2, k_b=2)
        state = init_state(corpus, HYPER, trunc, seed=0)
        one_hot_atom = np.zeros((3, 2))  # every node slot's row
        one_hot_atom[:, 0] = 1.0
        pointer = np.zeros((2, 3))
        pointer[:, 1] = 1.0
        state.send_slot_resp = one_hot_atom.copy()
        state.recv_slot_resp = one_hot_atom.copy()
        state.send_topic_resp = pointer.copy()
        state.recv_topic_resp = pointer.copy()
        update_corpus_level(state, corpus, HYPER)
        expected = np.full((3, 3), HYPER.eta)
        expected[1, 0] += 1.0  # sender token
        expected[1, 1] += 1.0  # receiver token
        np.testing.assert_allclose(state.lam, expected)

    def test_counting_identity_after_corpus_update(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            corpus = small_corpus(seed=seed, num_edges=60)
            state = init_state(corpus, HYPER, SMALL_TRUNC, seed=seed)
            for resp_name in ("send_slot_resp", "recv_slot_resp",
                              "send_topic_resp", "recv_topic_resp"):
                rows = rng.uniform(size=getattr(state, resp_name).shape)
                rows /= rows.sum(axis=1, keepdims=True)
                setattr(state, resp_name, rows)
            update_corpus_level(state, corpus, HYPER)
            total = float(np.sum(state.lam - HYPER.eta))
            assert abs(total - 2.0 * corpus.n) <= 1e-9 * 2.0 * corpus.n


def _slot_count(tokens, dim):
    return np.bincount(tokens, minlength=dim).astype(float)


def _edge_rows(state, corpus, side):
    """One side's per-edge responsibilities, shape (n, k): each edge's slot row."""
    tokens = corpus.senders if side == "send" else corpus.receivers
    return np.take(getattr(state, f"{side}_slot_resp"), tokens, axis=0)


def _per_edge_statistics(slot_resp, tokens, dim):
    """Token counts, column mass and entropy summed edge by edge through the
    per-edge oracle, fed every edge's gathered slot row."""
    edge_resp = np.take(slot_resp, tokens, axis=0)
    counts = oracles.token_counts(edge_resp, tokens, dim)
    slot_terms = oracles.token_counts(xlogy(edge_resp, edge_resp), tokens, dim)
    return counts, counts.sum(axis=1), -float(slot_terms.sum())


@st.composite
def _count_cases(draw):
    """(slot_resp, tokens, dim): tokens stay at or below a drawn top slot, so
    the slots above it (the unseen slot among them) are often empty."""
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 5))
    top = draw(st.integers(0, dim - 1))
    tokens = np.array(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    values = draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False),
        min_size=dim * k, max_size=dim * k))
    return np.array(values).reshape(dim, k), tokens, dim


class TestFusedSweep:
    @settings(max_examples=300, deadline=None)
    @given(_count_cases())
    def test_slot_statistics_equal_oracle_bit_for_bit(self, case):
        slot_resp, tokens, dim = case
        got = adnd._slot_statistics(_slot_count(tokens, dim), slot_resp)
        want = oracles.slot_statistics(_slot_count(tokens, dim), slot_resp)
        assert got[0].shape == want[0].shape == (slot_resp.shape[1], dim)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]
        assert got[0].flags.f_contiguous  # the layout the BLAS products saw before

    @settings(max_examples=300, deadline=None)
    @given(_count_cases())
    def test_slot_statistics_agree_with_per_edge_oracle(self, case):
        # summing c copies of a row and multiplying it by c differ by rounding
        slot_resp, tokens, dim = case
        got = adnd._slot_statistics(_slot_count(tokens, dim), slot_resp)
        for got_value, want_value in zip(got, _per_edge_statistics(slot_resp, tokens, dim)):
            np.testing.assert_allclose(got_value, want_value, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("tokens,dim", [
        ([0], 1),  # n = 1, one slot
        ([2], 4),  # n = 1, the unseen slot and two others empty
        ([1, 1, 1, 1], 3),  # one repeated token
        ([0, 2, 0, 2, 0], 4),  # repeats, empty middle and unseen slots
    ])
    def test_slot_statistics_named_cases(self, tokens, dim):
        tokens = np.array(tokens)
        rng = np.random.default_rng(len(tokens))
        for k in (1, 3):
            slot_resp = rng.uniform(size=(dim, k))
            got = adnd._slot_statistics(_slot_count(tokens, dim), slot_resp)
            want = oracles.slot_statistics(_slot_count(tokens, dim), slot_resp)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            for got_value, want_value in zip(got, _per_edge_statistics(slot_resp, tokens, dim)):
                np.testing.assert_allclose(got_value, want_value, rtol=1e-12, atol=0.0)

    def test_carrier_starts_from_the_state(self):
        corpus = small_corpus(seed=2)
        state = init_state(corpus, HYPER, SMALL_TRUNC, seed=1)
        hyper = HyperParams(eta=0.3, gamma=2.0, tau=0.7)
        sweep = adnd._Sweep.start(state, corpus, hyper)
        _assert_carrier_matches_slots(sweep, state, corpus)
        _assert_carrier_matches_corpus_level(sweep, state, hyper)

    def test_carrier_matches_the_state_after_each_document_update_in_fit(self, monkeypatch):
        # and after each corpus update and bound: every value on the carrier
        # must equal its fresh computation from the state after every block
        checked = []

        def checking(name):
            original = getattr(adnd, name)

            def block(state, corpus, hyper, *, sweep=None):
                out = original(state, corpus, hyper, sweep=sweep)
                _assert_carrier_matches_slots(sweep, state, corpus)
                _assert_carrier_matches_corpus_level(sweep, state, hyper)
                checked.append((name, sweep))
                return out

            return block

        for name in ("update_document_level", "update_corpus_level", "compute_elbo"):
            monkeypatch.setattr(adnd, name, checking(name))
        hyper = HyperParams(eta=0.5, gamma=1.5, tau=2.0)
        _, diag = fit_state(small_corpus(seed=6), hyper, SMALL_TRUNC, max_sweeps=3,
                            rel_tol=1e-12, seed=4)
        assert diag.sweeps == 3
        assert [name for name, _ in checked] == [
            "update_document_level", "update_corpus_level", "compute_elbo"] * 3
        assert all(sweep is checked[0][1] for _, sweep in checked)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_fit_equals_standalone_block_calls(self, seed):
        corpus = small_corpus(seed=seed, num_edges=120)
        fitted, diag = fit_state(corpus, HYPER, SMALL_TRUNC, max_sweeps=12,
                                 rel_tol=1e-12, seed=seed)
        state = init_state(corpus, HYPER, SMALL_TRUNC, seed=seed)
        trace = []
        for _ in range(diag.sweeps):
            update_document_level(state, corpus, HYPER)
            update_corpus_level(state, corpus, HYPER)
            trace.append(compute_elbo(state, corpus, HYPER))
        assert tuple(trace) == diag.elbo_trace
        assert np.array_equal(state.lam, fitted.lam)

    def test_each_sweep_counts_each_side_once(self, monkeypatch):
        calls = []
        original = adnd._slot_statistics

        def counting(slot_count, slot_resp):
            calls.append(slot_resp.shape)
            return original(slot_count, slot_resp)

        monkeypatch.setattr(adnd, "_slot_statistics", counting)
        corpus = small_corpus(seed=1)
        _, diag = fit_state(corpus, HYPER, SMALL_TRUNC, max_sweeps=4,
                            rel_tol=1e-12, seed=0)
        assert diag.sweeps == 4
        # two a sweep: the random initial responsibilities are never counted
        assert len(calls) == 2 * diag.sweeps
        # one row per node slot, never one per edge
        assert {shape[0] for shape in calls} == {corpus.vocab.num_nodes + 1}

    def test_fit_takes_entropies_of_no_edge_arrays(self, monkeypatch):
        # the edge-responsibility entropies are gathered from the slot rows
        # inside the document update, so only atom-topic rows go through here
        shapes = []
        original = adnd._categorical_entropy

        def recording(rows):
            shapes.append(rows.shape)
            return original(rows)

        monkeypatch.setattr(adnd, "_categorical_entropy", recording)
        _, diag = fit_state(small_corpus(seed=1), HYPER, SMALL_TRUNC, max_sweeps=3,
                            rel_tol=1e-12, seed=0)
        topic_shapes = [(SMALL_TRUNC.k_a, SMALL_TRUNC.k_h), (SMALL_TRUNC.k_b, SMALL_TRUNC.k_h)]
        assert shapes == topic_shapes * diag.sweeps


def _assert_carrier_matches_slots(sweep, state, corpus):
    """Every value the carrier derives from the slot responsibilities and the
    per-side sticks equals the same value computed from the state."""
    dim = corpus.vocab.num_nodes + 1
    for side, tokens in (("send", corpus.senders), ("recv", corpus.receivers)):
        counts, mass, entropy = oracles.slot_statistics(
            _slot_count(tokens, dim), getattr(state, f"{side}_slot_resp"))
        assert np.array_equal(getattr(sweep, f"{side}_counts"), counts)
        assert getattr(sweep, f"{side}_entropy") == entropy
        assert np.array_equal(getattr(sweep, f"{side}_mass"), mass)
        shape_a, shape_b = getattr(state, f"{side}_stick_a"), getattr(state, f"{side}_stick_b")
        assert np.array_equal(
            getattr(sweep, f"{side}_elog_sticks"), expected_log_sticks(shape_a, shape_b))
        _assert_stick_digammas(getattr(sweep, f"{side}_stick_digammas"), shape_a, shape_b)


def _assert_carrier_matches_corpus_level(sweep, state, hyper):
    """Every value the carrier derives from lam, the corpus sticks and eta
    equals its fresh scipy.special computation from the state."""
    k_h, dim = state.lam.shape
    assert np.array_equal(sweep.digamma_lam, digamma(state.lam))
    assert np.array_equal(sweep.elog_topic, oracles.dirichlet_log_expectation(state.lam))
    assert np.array_equal(
        sweep.elog_corpus, expected_log_sticks(state.corpus_stick_a, state.corpus_stick_b))
    _assert_stick_digammas(sweep.corpus_stick_digammas, state.corpus_stick_a, state.corpus_stick_b)
    assert sweep.topic_prior_norm == k_h * (gammaln(dim * hyper.eta) - dim * gammaln(hyper.eta))


def _assert_stick_digammas(digammas, shape_a, shape_b):
    assert np.array_equal(digammas.a, digamma(shape_a))
    assert np.array_equal(digammas.b, digamma(shape_b))
    assert np.array_equal(digammas.total, digamma(shape_a + shape_b))
    assert np.array_equal(digammas.log_leftover, digamma(shape_b) - digamma(shape_a + shape_b))


def _spread_state(corpus, trunc, seed):
    """A valid state whose topics and per-side sticks spread the logits over
    several orders of magnitude, unlike init_state's near-prior start."""
    state = init_state(corpus, HYPER, trunc, seed=seed)
    rng = np.random.default_rng(seed)
    state.lam = rng.lognormal(0.0, 3.0, size=state.lam.shape)
    for side in ("send", "recv"):
        size = getattr(state, f"{side}_stick_a").size
        setattr(state, f"{side}_stick_a", rng.lognormal(0.0, 2.0, size=size))
        setattr(state, f"{side}_stick_b", rng.lognormal(0.0, 2.0, size=size))
    return state


@st.composite
def _slot_cases(draw):
    """(corpus, trunc, seed): k atoms per side from 1 to 20, W from 0 to 30
    real nodes, and tokens drawn from a few used slots, so most slots are
    skipped and the unseen slot W is often hit."""
    num_nodes = draw(st.integers(0, 30))
    k_a, k_b = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    trunc = TruncationLevels(k_h=max(2, k_a, k_b) + draw(st.integers(0, 3)), k_a=k_a, k_b=k_b)
    used = draw(st.lists(st.integers(0, num_nodes), min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        used.append(num_nodes)
    n = draw(st.integers(1, 40))
    senders = draw(st.lists(st.sampled_from(used), min_size=n, max_size=n))
    receivers = draw(st.lists(st.sampled_from(used), min_size=n, max_size=n))
    vocab = NodeVocab(f"n{i}" for i in range(num_nodes))
    return EdgeCorpus(senders, receivers, vocab), trunc, draw(st.integers(0, 2**32 - 1))


def _oracle_edge_resp(state, corpus):
    """Both sides' per-edge responsibilities for a document update of state."""
    elog_topic = oracles.dirichlet_log_expectation(state.lam)
    return {
        side: oracles.edge_responsibilities(
            getattr(state, f"{side}_topic_resp") @ elog_topic,
            expected_log_sticks(getattr(state, f"{side}_stick_a"),
                                getattr(state, f"{side}_stick_b")),
            tokens)
        for side, tokens in (("send", corpus.senders), ("recv", corpus.receivers))
    }


class TestSlotResponsibilities:
    """The document update normalizes one row per node slot; every edge's
    slot row must be the per-edge kernel's bits."""

    def _check(self, corpus, state):
        want = _oracle_edge_resp(state, corpus)
        sweep = adnd._Sweep.start(state, corpus, HYPER)
        update_document_level(state, corpus, HYPER, sweep=sweep)
        for side in ("send", "recv"):
            assert getattr(state, f"{side}_slot_resp").flags.c_contiguous
            got = _edge_rows(state, corpus, side)
            assert got.shape == want[side].shape
            assert np.array_equal(got, want[side])
        _assert_carrier_matches_slots(sweep, state, corpus)

    @settings(max_examples=300, deadline=None)
    @given(_slot_cases())
    def test_edge_resp_equals_per_edge_oracle(self, case):
        corpus, trunc, seed = case
        self._check(corpus, _spread_state(corpus, trunc, seed))

    @pytest.mark.parametrize("num_nodes,k,tokens", [
        (0, 1, [0, 0]),  # only the unseen slot, one atom
        (4, 3, [4, 0, 4]),  # the unseen slot and slot 0; slots 1-3 skipped
        (30, 8, list(range(0, 31, 3)) * 2),  # the first row length numpy sums in blocks
        (30, 20, [30] * 5 + [7] * 5),  # the largest k drawn above
    ])
    def test_named_cases(self, num_nodes, k, tokens):
        corpus = EdgeCorpus(tokens, tokens[::-1], NodeVocab(f"n{i}" for i in range(num_nodes)))
        self._check(corpus, _spread_state(corpus, TruncationLevels(k_h=k + 1, k_a=k, k_b=k), 7))

    def test_row_sums_match_contiguous_per_edge_rows(self):
        # numpy sums a contiguous row of 15 entries in blocks and a strided
        # one entry by entry; built F-ordered, the slot logits' row sums round
        # differently in some of these rows and this comparison fails
        tokens = np.arange(31).repeat(4)
        corpus = EdgeCorpus(tokens, tokens[::-1], NodeVocab(f"n{i}" for i in range(30)))
        self._check(corpus, _spread_state(corpus, TruncationLevels(k_h=20, k_a=15, k_b=15), 3))


class TestElbo:
    def test_finite_on_random_states(self):
        corpus = small_corpus(seed=2)
        for seed in range(5):
            state = init_state(corpus, HYPER, SMALL_TRUNC, seed=seed)
            assert np.isfinite(compute_elbo(state, corpus, HYPER))

    def test_one_hot_responsibilities_have_zero_entropy(self):
        one_hot = np.eye(4)[[0, 2, 1, 3, 0]]
        assert adnd._categorical_entropy(one_hot) == 0.0

    def test_dirichlet_log_expectation_identity(self):
        alpha = np.array([[1.0, 2.0, 3.0], [0.4, 0.4, 0.4]])
        expected = digamma(alpha) - digamma(alpha.sum(axis=1))[:, None]
        sweep = adnd._Sweep(np.zeros(3), np.zeros(3), 0.0)
        sweep.set_topics(alpha)
        np.testing.assert_allclose(sweep.elog_topic, expected)
        np.testing.assert_allclose(oracles.dirichlet_log_expectation(alpha), expected)

    def test_bound_below_truth_on_average(self):
        # toy three-node model; the bound must sit under the true
        # parameters' data log density in expectation
        trunc = TruncationLevels(k_h=4, k_a=2, k_b=2)
        bounds, truths = [], []
        for rep in range(30):
            corpus, params = sample_edges(
                HYPER, trunc, 3, 40, seed=100 + rep, return_params=True
            )
            _, diag = fit_state(corpus, HYPER, trunc, seed=rep)
            bounds.append(diag.elbo_trace[-1])
            truths.append(oracles.sequence_log_density(params, corpus))
        assert np.mean(bounds) <= np.mean(truths)


class TestFit:
    def test_degenerate_corpus_converges(self):
        vocab = NodeVocab(["x"])
        corpus = EdgeCorpus([0] * 50, [0] * 50, vocab)
        model = fit(corpus, HYPER, TruncationLevels(k_h=2, k_a=1, k_b=1), seed=0)
        assert model.diagnostics.converged
        assert model.diagnostics.sweeps <= 200

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-5, math.nan, math.inf])
    def test_rel_tol_must_be_positive_and_finite(self, rel_tol):
        corpus = small_corpus(seed=6, num_edges=20)
        with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
            fit(corpus, HYPER, SMALL_TRUNC, rel_tol=rel_tol)
        with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
            fit_state(corpus, HYPER, SMALL_TRUNC, rel_tol=rel_tol)

    def test_trace_monotone_and_convergence_flag(self):
        corpus = small_corpus(seed=6, num_edges=150)
        model = fit(corpus, HYPER, SMALL_TRUNC, seed=1)
        trace = np.array(model.diagnostics.elbo_trace)
        assert np.all(np.diff(trace) >= -1e-6 * np.abs(trace[1:]))
        if model.diagnostics.converged:
            delta = abs(trace[-1] - trace[-2])
            assert delta <= 1e-5 * abs(trace[-1])

    def test_deterministic_given_seed(self):
        corpus = small_corpus(seed=9)
        m1 = fit(corpus, HYPER, SMALL_TRUNC, seed=4)
        m2 = fit(corpus, HYPER, SMALL_TRUNC, seed=4)
        np.testing.assert_array_equal(m1.topic_node, m2.topic_node)
        np.testing.assert_array_equal(m1.topic_weights, m2.topic_weights)

    def test_repeated_edge_dominates_scoring(self):
        # self-loop corpus: the trained pair must outscore every other pair,
        # including pairs through the unseen slot
        vocab = NodeVocab(["a", "b"])
        corpus = EdgeCorpus([0] * 100, [0] * 100, vocab)
        model = fit(corpus, HYPER, TruncationLevels(k_h=4, k_a=2, k_b=2), seed=0)
        loop = predictive_log_likelihood(model, Edge(0, 0))
        for u in range(3):
            for v in range(3):
                if (u, v) == (0, 0):
                    continue
                assert predictive_log_likelihood(model, Edge(u, v)) < loop

    def test_counting_identity_after_fit(self):
        corpus = small_corpus(seed=13, num_edges=120)
        state, _ = fit_state(corpus, HYPER, SMALL_TRUNC, seed=0)
        total = float(np.sum(state.lam - HYPER.eta))
        assert abs(total - 2.0 * corpus.n) <= 1e-6 * 2.0 * corpus.n

    def test_keeps_the_corpus_vocab(self):
        sampled = small_corpus(seed=1)
        vocab = NodeVocab(sampled.vocab.labels)
        corpus = EdgeCorpus(sampled.senders, sampled.receivers, vocab)
        model = fit(corpus, HYPER, SMALL_TRUNC, seed=0)
        assert model.vocab is vocab
        assert corpus_from_pairs(["n0"], ["late"], vocab).receivers[0] == 10
        assert model.num_nodes == 10
        assert model.vocab.num_nodes == 10

    def test_a_later_corpus_on_the_vocab_leaves_the_fit_alone(self):
        vocab = NodeVocab(["a", "b"])
        corpus = EdgeCorpus([0, 2, 1], [2, 1, 0], vocab)
        corpus_from_pairs(["c"], ["a"], vocab)
        model = fit(corpus, HYPER, SMALL_TRUNC, seed=0)
        assert model.num_nodes == 2
        assert model.topic_node.shape == (SMALL_TRUNC.k_h, 3)


class TestPredictiveLogLikelihood:
    def test_single_topic_uniform_value(self):
        model = toy_model(
            [[0.25, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]],
            [1.0, 0.0],
            num_real_nodes=3,
        )
        value = predictive_log_likelihood(model, Edge(0, 2))
        np.testing.assert_allclose(value, np.log(1.0 / 16.0), rtol=1e-12)

    def test_zero_probability_edge_is_floored(self):
        model = toy_model(
            [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0.5, 0.5], num_real_nodes=2
        )
        assert predictive_log_likelihood(model, Edge(1, 1)) == adnd.LOG_FLOOR

    def test_always_finite_and_negative_for_spread_topics(self):
        corpus = small_corpus(seed=21)
        model = fit(corpus, HYPER, SMALL_TRUNC, seed=0)
        limit = model.num_nodes
        for u in range(limit + 1):
            for v in range(limit + 1):
                value = predictive_log_likelihood(model, Edge(u, v))
                assert np.isfinite(value)
                assert value < 0.0

    def test_out_of_range_edge_raises(self):
        model = toy_model([[0.5, 0.5], [0.5, 0.5]], [0.6, 0.4], num_real_nodes=1)
        with pytest.raises(ValueError):
            predictive_log_likelihood(model, Edge(0, 2))

    def test_invariant_under_joint_topic_permutation(self):
        corpus = small_corpus(seed=17)
        model = fit(corpus, HYPER, SMALL_TRUNC, seed=0)
        perm = np.random.default_rng(3).permutation(model.topic_node.shape[0])
        permuted = FittedModel(
            topic_node=model.topic_node[perm].copy(),
            topic_weights=model.topic_weights[perm].copy(),
            vocab=model.vocab,
            hyper=model.hyper,
            trunc=model.trunc,
            diagnostics=model.diagnostics,
        )
        for edge in (Edge(0, 1), Edge(2, 2), Edge(5, 0)):
            np.testing.assert_allclose(
                predictive_log_likelihood(permuted, edge),
                predictive_log_likelihood(model, edge),
                rtol=1e-12,
            )

    def test_symmetric_under_endpoint_swap(self):
        # the score sums w_i^2 * topic[i,u] * topic[i,v], so swapping the
        # endpoints cannot change it; the two endpoint rows are added first,
        # which commutes bit for bit, so every slot pair scores the same both ways;
        # added left to right instead, 30 of this model's 465 pairs differ
        corpus = small_corpus(seed=23, num_nodes=30, num_edges=150)
        model = fit(corpus, HYPER, SMALL_TRUNC, seed=0)
        for u in range(model.num_nodes + 1):
            for v in range(u + 1, model.num_nodes + 1):
                assert predictive_log_likelihood(model, Edge(u, v)) == predictive_log_likelihood(
                    model, Edge(v, u)
                ), (u, v)

    def test_equals_scipy_logsumexp_on_every_slot_pair(self):
        # the expression scoring used before the log arrays were cached, with
        # the endpoint terms added first, as scoring adds them
        def reference(model, u, v):
            with np.errstate(divide="ignore"):
                terms = 2.0 * np.log(model.topic_weights) + (
                    np.log(model.topic_node[:, u]) + np.log(model.topic_node[:, v])
                )
            return max(float(logsumexp(terms)), adnd.LOG_FLOOR)

        fitted = fit(small_corpus(seed=41), HYPER, SMALL_TRUNC, seed=0)
        sparse = toy_model(
            [[0.5, 0.5, 0.0, 0.0], [0.0, 0.25, 0.25, 0.5]], [0.75, 0.25], num_real_nodes=3
        )
        for model in (fitted, sparse):
            for u in range(model.num_nodes + 1):
                for v in range(model.num_nodes + 1):
                    assert predictive_log_likelihood(model, Edge(u, v)) == reference(model, u, v)

    def test_cached_log_arrays(self):
        model = fit(small_corpus(seed=43), HYPER, SMALL_TRUNC, seed=0)
        assert "slot_log_topics" not in vars(model)
        assert "twice_log_weights" not in vars(model)
        predictive_log_likelihood(model, Edge(0, 1))
        assert model.slot_log_topics is model.slot_log_topics
        np.testing.assert_array_equal(model.twice_log_weights, 2.0 * np.log(model.topic_weights))
        np.testing.assert_array_equal(model.slot_log_topics, np.log(model.topic_node).T)
        assert model.slot_log_topics.flags.c_contiguous
        for cached in (model.twice_log_weights, model.slot_log_topics):
            with pytest.raises(ValueError):
                cached[0] = 0.0

    def test_repeated_calls_bitwise_identical(self):
        corpus = small_corpus(seed=29)
        model = fit(corpus, HYPER, SMALL_TRUNC, seed=0)
        edge = Edge(1, 4)
        first = predictive_log_likelihood(model, edge)
        assert all(
            predictive_log_likelihood(model, edge) == first for _ in range(5)
        )


@st.composite
def _log_terms(draw):
    """Vectors of finite and -inf entries, some with tied maxima, some all -inf."""
    entries = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-800.0, max_value=0.0),
        st.just(-np.inf),
    )
    terms = np.array(draw(st.lists(entries, min_size=1, max_size=64)), dtype=float)
    ties = draw(st.lists(st.integers(0, terms.size - 1), max_size=4))
    terms[ties] = terms.max()
    if draw(st.integers(0, 7)) == 0:
        terms[:] = -np.inf
    return terms


class TestLogsumexpKernel:
    # A tie at the maximum takes the masked, counted branch, which no
    # benchmark workload reaches, so these pin it explicitly.
    @settings(max_examples=500, deadline=None)
    @given(terms=_log_terms())
    @example(terms=np.array([-3.0, -1.5, -1.5, -40.0]))  # two-way tie
    @example(terms=np.array([-2.25, -7.0, -2.25, -0.5, -0.5, -0.5]))  # three-way tie
    @example(terms=np.array([-np.inf, -4.0, -np.inf, -4.0, -np.inf]))  # tie beside -inf
    @example(terms=np.array([-12.5]))  # one entry
    @example(terms=np.full(5, -np.inf))  # all -inf
    def test_bit_identical_to_scipy(self, terms):
        before = terms.copy()
        with np.errstate(over="ignore"):  # shifting by a huge maximum overflows in both
            expected = float(logsumexp(terms))
            assert adnd._logsumexp(terms) == expected
        np.testing.assert_array_equal(terms, before)


class TestFittedModelValidation:
    TOPICS = [[0.5, 0.25, 0.25], [0.0, 0.5, 0.5]]
    WEIGHTS = [0.75, 0.25]

    def test_rejects_topic_rows_not_matching_truncation(self):
        with pytest.raises(ValueError, match="topic_node has shape"):
            toy_model(self.TOPICS + [[1.0, 0.0, 0.0]], self.WEIGHTS, num_real_nodes=2)

    def test_rejects_topic_columns_not_matching_vocabulary(self):
        with pytest.raises(ValueError, match="topic_node has shape"):
            toy_model(self.TOPICS, self.WEIGHTS, num_real_nodes=3)

    def test_rejects_one_dimensional_topics(self):
        with pytest.raises(ValueError, match="topic_node has shape"):
            toy_model([0.5, 0.5], self.WEIGHTS, num_real_nodes=1)

    def test_rejects_weights_not_matching_truncation(self):
        model = toy_model(self.TOPICS, self.WEIGHTS, num_real_nodes=2)
        with pytest.raises(ValueError, match="topic_weights has shape"):
            FittedModel(
                topic_node=np.array(self.TOPICS),
                topic_weights=np.array([[0.75, 0.25]]),
                vocab=model.vocab,
                hyper=model.hyper,
                trunc=model.trunc,
                diagnostics=model.diagnostics,
            )

    def test_rejects_nan_topic_entry(self):
        # a NaN row passes the row-sum check, since comparisons with NaN are False
        with pytest.raises(ValueError, match="topic_node entries"):
            toy_model([[0.5, 0.5, np.nan], [0.0, 0.5, 0.5]], self.WEIGHTS, num_real_nodes=2)

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="topic_weights entries"):
            toy_model(self.TOPICS, [np.nan, 1.0], num_real_nodes=2)

    def test_rejects_infinite_topic_entry(self):
        with pytest.raises(ValueError, match="topic_node entries"):
            toy_model([[np.inf, 0.5, 0.5], [0.0, 0.5, 0.5]], self.WEIGHTS, num_real_nodes=2)

    def test_rejects_negative_topic_entry(self):
        with pytest.raises(ValueError, match="topic_node entries"):
            toy_model([[1.5, -0.5, 0.0], [0.0, 0.5, 0.5]], self.WEIGHTS, num_real_nodes=2)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="topic_weights entries"):
            toy_model(self.TOPICS, [1.25, -0.25], num_real_nodes=2)


class TestSampler:
    def test_deterministic_given_seed(self):
        c1 = sample_edges(HYPER, SMALL_TRUNC, 12, 50, seed=7)
        c2 = sample_edges(HYPER, SMALL_TRUNC, 12, 50, seed=7)
        np.testing.assert_array_equal(c1.senders, c2.senders)
        np.testing.assert_array_equal(c1.receivers, c2.receivers)

    def test_edges_within_real_nodes(self):
        corpus = sample_edges(HYPER, SMALL_TRUNC, 9, 200, seed=1)
        assert corpus.vocab.num_nodes == 9
        assert corpus.senders.max() < 9
        assert corpus.receivers.max() < 9

    def test_tiny_gamma_concentrates_on_first_topic(self):
        corpus, params = sample_edges(
            HyperParams(gamma=1e-6),
            TruncationLevels(k_h=10, k_a=4, k_b=4),
            8,
            60,
            seed=7,
            return_params=True,
        )
        assert params.topic_weights[0] > 1.0 - 1e-4
        assert set(params.send_atoms.tolist()) == {0}
        assert set(params.recv_atoms.tolist()) == {0}

    def test_empirical_sender_marginal_close_to_truth(self):
        corpus, params = sample_edges(
            HYPER, SMALL_TRUNC, 6, 100_000, seed=5, return_params=True
        )
        empirical = np.bincount(corpus.senders, minlength=6) / corpus.n
        tv = 0.5 * np.abs(empirical - oracles.sender_marginal(params)).sum()
        assert tv <= 0.01

    def test_sequence_density_is_permutation_invariant(self):
        corpus, params = sample_edges(
            HYPER, SMALL_TRUNC, 10, 10, seed=11, return_params=True
        )
        base = oracles.sequence_log_density(params, corpus)
        rng = np.random.default_rng(0)
        for _ in range(10):
            perm = rng.permutation(corpus.n)
            assert abs(oracles.sequence_log_density(params, corpus.subset(perm)) - base) < 1e-10

    def test_marginals_are_distributions(self):
        _, params = sample_edges(HYPER, SMALL_TRUNC, 7, 5, seed=2, return_params=True)
        for marginal in (oracles.sender_marginal(params), oracles.receiver_marginal(params)):
            assert np.all(marginal >= 0.0)
            assert abs(marginal.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("nodes,edges", [(0, 5), (5, 0)])
    def test_rejects_empty_requests(self, nodes, edges):
        with pytest.raises(ValueError):
            sample_edges(HYPER, SMALL_TRUNC, nodes, edges, seed=0)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        corpus = small_corpus(seed=31)
        model = fit(corpus, HYPER, SMALL_TRUNC, seed=0)
        path = tmp_path / "model.adnd"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.topic_node, model.topic_node)
        np.testing.assert_array_equal(loaded.topic_weights, model.topic_weights)
        assert loaded.vocab.labels == model.vocab.labels
        assert loaded.hyper == model.hyper
        assert loaded.trunc == model.trunc
        assert loaded.diagnostics.elbo_trace == model.diagnostics.elbo_trace

    def test_magic_line_first(self, tmp_path):
        corpus = small_corpus(seed=31)
        model = fit(corpus, HYPER, SMALL_TRUNC, seed=0)
        path = tmp_path / "model.adnd"
        save_model(model, path)
        assert path.read_text().splitlines()[0] == "ADND2"

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.adnd"
        path.write_text("NOPE9\n{}\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_malformed_body_rejected(self, tmp_path):
        path = tmp_path / "bad.adnd"
        path.write_text("ADND1\n{not json\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_scores_survive_round_trip(self, tmp_path):
        corpus = small_corpus(seed=37)
        model = fit(corpus, HYPER, SMALL_TRUNC, seed=0)
        path = tmp_path / "model.adnd"
        save_model(model, path)
        loaded = load_model(path)
        for edge in (Edge(0, 1), Edge(9, 9), Edge(10, 3)):
            assert predictive_log_likelihood(loaded, edge) == predictive_log_likelihood(
                model, edge
            )

    def _saved_payload(self, tmp_path, writer=save_model):
        model = fit(small_corpus(seed=47), HYPER, SMALL_TRUNC, seed=0)
        path = tmp_path / "model.adnd"
        writer(model, path)
        magic, body = path.read_text().split("\n", 1)
        return path, magic, json.loads(body)

    @staticmethod
    def _rewrite(path, magic, payload):
        path.write_text(magic + "\n" + json.dumps(payload) + "\n")

    def test_vocabulary_not_matching_columns_rejected(self, tmp_path):
        path, magic, payload = self._saved_payload(tmp_path)
        payload["vocab_labels"] = payload["vocab_labels"][:-1]
        self._rewrite(path, magic, payload)
        with pytest.raises(ModelFormatError, match="topic_node has shape"):
            load_model(path)

    @pytest.mark.parametrize("writer", [save_model, oracles.save_model_v1])
    def test_non_string_labels_rejected(self, tmp_path, writer):
        path, magic, payload = self._saved_payload(tmp_path, writer)
        payload["vocab_labels"] = list(range(len(payload["vocab_labels"])))
        self._rewrite(path, magic, payload)
        with pytest.raises(ModelFormatError, match="list of strings"):
            load_model(path)

    @pytest.mark.parametrize("writer", [save_model, oracles.save_model_v1])
    def test_duplicate_labels_rejected(self, tmp_path, writer):
        path, magic, payload = self._saved_payload(tmp_path, writer)
        payload["vocab_labels"][-1] = payload["vocab_labels"][0]
        self._rewrite(path, magic, payload)
        with pytest.raises(ModelFormatError, match="duplicate labels"):
            load_model(path)

    def test_nan_entry_rejected(self, tmp_path):
        path, magic, payload = self._saved_payload(tmp_path)
        packed = payload["topic_node"]
        values = np.frombuffer(base64.b64decode(packed["data"]), dtype="<f8").copy()
        values[0] = np.nan
        packed["data"] = base64.b64encode(values.tobytes()).decode("ascii")
        self._rewrite(path, magic, payload)
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(path)

    def test_nan_entry_rejected_v1(self, tmp_path):
        path, magic, payload = self._saved_payload(tmp_path, oracles.save_model_v1)
        payload["topic_node"][0][0] = float("nan").hex()
        self._rewrite(path, magic, payload)
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(path)

    # A bool() or int() of these loaded before: "false" as converged=True and
    # 2.9 as sweeps=2 beside a longer ELBO trace.
    @pytest.mark.parametrize("writer", [save_model, oracles.save_model_v1])
    @pytest.mark.parametrize(
        "field,value",
        [
            ("converged", "false"),
            ("converged", 1),
            ("converged", None),
            ("sweeps", 2.9),
            ("sweeps", True),
            ("sweeps", "3"),
            ("sweeps", "len+1"),  # one more than the ELBO trace holds
            ("sweeps", "len-1"),
        ],
    )
    def test_malformed_diagnostics_rejected(self, tmp_path, writer, field, value):
        path, magic, payload = self._saved_payload(tmp_path, writer)
        diag = payload["diagnostics"]
        assert diag["sweeps"] == len(diag["elbo_trace"]) > 1
        if value in ("len+1", "len-1"):
            value = len(diag["elbo_trace"]) + (1 if value == "len+1" else -1)
        diag[field] = value
        self._rewrite(path, magic, payload)
        with pytest.raises(ModelFormatError, match=f"diagnostics {field}"):
            load_model(path)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("data", "not base64!", "base64"),
            ("dtype", "<f4", "dtype"),
            ("dtype", ">f8", "dtype"),
            ("shape", [6, 12], "bytes"),
            ("shape", [6, 11.0], "list of sizes"),
        ],
    )
    def test_malformed_packed_topics_rejected(self, tmp_path, field, value, message):
        path, magic, payload = self._saved_payload(tmp_path)
        assert payload["topic_node"]["shape"] == [6, 11]
        payload["topic_node"][field] = value
        self._rewrite(path, magic, payload)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_file_layout(self, tmp_path):
        model = fit(small_corpus(seed=47), HYPER, SMALL_TRUNC, seed=0)
        path = tmp_path / "model.adnd"
        save_model(model, path)
        payload = json.loads(path.read_text().split("\n", 1)[1])
        assert payload["version"] == 2
        packed = payload["topic_node"]
        assert set(packed) == {"dtype", "shape", "data"}
        assert packed["dtype"] == "<f8"
        assert packed["shape"] == [6, 11]
        raw = base64.b64decode(packed["data"])
        assert raw == model.topic_node.astype("<f8").tobytes(order="C")
        assert payload["topic_weights"] == [float(v).hex() for v in model.topic_weights]


@st.composite
def stored_models(draw):
    """Small FittedModels with exact zeros, random labels and ELBO traces."""
    k_h = draw(st.integers(2, 6))
    num_nodes = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.7]))

    def simplex_rows(rows, cols):
        values = rng.dirichlet(np.ones(cols), size=rows)
        zeros = rng.uniform(size=values.shape) < zero_share
        zeros[np.arange(rows), values.argmax(axis=1)] = False
        values[zeros] = 0.0
        return values / values.sum(axis=1, keepdims=True)

    labels = draw(st.lists(st.text(max_size=6), min_size=num_nodes,
                           max_size=num_nodes, unique=True))
    positive = st.floats(1e-3, 1e3)
    trace = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=8))
    return FittedModel(
        topic_node=simplex_rows(k_h, num_nodes + 1),
        topic_weights=simplex_rows(1, k_h)[0],
        vocab=NodeVocab(labels),
        hyper=HyperParams(eta=draw(positive), gamma=draw(positive), tau=draw(positive)),
        trunc=TruncationLevels(k_h=k_h, k_a=draw(st.integers(1, k_h)),
                               k_b=draw(st.integers(1, k_h))),
        diagnostics=FitDiagnostics(tuple(trace), len(trace), draw(st.booleans())),
    )


class TestSerializationRoundTrip:
    @staticmethod
    def assert_same_model(loaded, model):
        assert loaded.topic_node.tobytes() == model.topic_node.tobytes()
        assert loaded.topic_weights.tobytes() == model.topic_weights.tobytes()
        assert loaded.vocab.labels == model.vocab.labels
        assert loaded.hyper == model.hyper
        assert loaded.trunc == model.trunc
        assert loaded.diagnostics == model.diagnostics

    @settings(max_examples=60, deadline=None)
    @given(stored_models())
    def test_v2_round_trip_and_resave(self, model):
        with tempfile.TemporaryDirectory() as scratch:
            first, again = Path(scratch) / "a.adnd", Path(scratch) / "b.adnd"
            save_model(model, first)
            loaded = load_model(first)
            self.assert_same_model(loaded, model)
            save_model(loaded, again)
            assert again.read_bytes() == first.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(stored_models())
    def test_v1_file_loads_and_resaves_as_v2(self, model):
        with tempfile.TemporaryDirectory() as scratch:
            old, upgraded, direct = (Path(scratch) / name for name in ("1", "2", "3"))
            oracles.save_model_v1(model, old)
            loaded = load_model(old)
            self.assert_same_model(loaded, model)
            save_model(loaded, upgraded)
            save_model(model, direct)
            assert upgraded.read_text().startswith("ADND2\n")
            assert upgraded.read_bytes() == direct.read_bytes()
