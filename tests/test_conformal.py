"""Smoothed p-values, tie-broken ranks, and detection decisions."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeanomaly.adnd import HyperParams, TruncationLevels, fit, sample_edges
from edgeanomaly.conformal import (
    Verdicts,
    calibration_scores,
    conformal_p_values,
    detect_corpus,
    full_conformal_p_values,
    nonconformity_score,
    score_edges,
)
from edgeanomaly.evaluation import ks_uniformity
from edgeanomaly.graph_core import Edge, EdgeCorpus, NodeVocab, split_train_calib

import oracles


def p_value(score, calib, u, orientation="power-corrected"):
    """conformal_p_values of a single test score and draw, as a float."""
    return float(conformal_p_values([score], calib, [u], orientation)[0])


def brute_force_p(pooled, test_value, u, orientation):
    """Direct enumeration over the pooled multiset, test point included."""
    if orientation == "paper":
        strict = sum(1 for s in pooled if test_value > s)
    else:
        strict = sum(1 for s in pooled if s > test_value)
    ties = sum(1 for s in pooled if s == test_value)
    return (strict + u * ties) / len(pooled)


class TestConformalPValue:
    CALIB = np.array([1.0, 2.0, 3.0, 4.0])

    def test_power_corrected_example(self):
        assert p_value(2.5, self.CALIB, 0.5) == 0.5

    def test_paper_orientation_example(self):
        assert p_value(10.0, self.CALIB, 0.5, "paper") == 0.9

    def test_all_ties_collapse_to_u(self):
        calib = np.full(6, 7.7)
        for u in (0.1, 0.31, 0.99):
            assert p_value(7.7, calib, u) == u
            assert p_value(7.7, calib, u, "paper") == u

    def test_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            calib = rng.standard_normal(rng.integers(1, 30))
            p = p_value(rng.standard_normal(), calib, rng.uniform(0.01, 0.99))
            assert 0.0 < p < 1.0

    def test_empty_calibration_raises(self):
        with pytest.raises(ValueError):
            p_value(1.0, np.array([]), 0.5)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.7])
    def test_u_out_of_range_raises(self, u):
        with pytest.raises(ValueError):
            p_value(1.0, self.CALIB, u)

    # A subnormal draw rounded the p-value down to exactly 0.0: calibration
    # [-1.0], test score 0.0, u = 5e-324.
    @pytest.mark.parametrize(
        "u", [5e-324, np.nextafter(0.0, 1.0), 2.0**-54, np.nan],
        ids=["5e-324", "nextafter", "2**-54", "nan"],
    )
    def test_u_below_least_uniform_draw_rejected_by_every_form(self, u):
        with pytest.raises(ValueError, match="u draws"):
            conformal_p_values([0.0], [-1.0], [u])
        with pytest.raises(ValueError, match="u draws"):
            full_conformal_p_values([0.0, -1.0], [u, 0.5])

    def test_least_uniform_draw_gives_positive_p_value(self):
        u = 2.0**-53
        # the test score is the lone extreme of two, so every p-value is u / 2
        for orientation, calib in (("power-corrected", [-1.0]), ("paper", [1.0])):
            assert conformal_p_values([0.0], calib, [u], orientation)[0] > 0.0
            assert full_conformal_p_values([0.0] + calib, [u, 0.5], orientation)[0] > 0.0

    def test_unknown_orientation_raises(self):
        with pytest.raises(ValueError):
            p_value(1.0, self.CALIB, 0.5, "sideways")

    # With a NaN in the calibration scores the sorted search and a direct
    # count disagreed: 0.3 against 0.1 for test score 0.5 at u = 0.5 against
    # [0.1, 0.2, 0.3, nan].
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_calibration_rejected_by_both_forms(self, bad):
        calib = np.array([0.1, 0.2, 0.3, bad])
        with pytest.raises(ValueError, match="calibration scores must be finite"):
            conformal_p_values([0.5], calib, [0.5])

    # A 2-D calibration array failed inside numpy: "object too deep for
    # desired array".
    @pytest.mark.parametrize("calib", [[[1.0, 2.0], [3.0, 4.0]], [[1.0]], 2.0])
    def test_calibration_that_is_not_a_vector_rejected(self, calib):
        with pytest.raises(ValueError, match="calibration scores must form a vector"):
            conformal_p_values([0.5], calib, [0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_test_score_rejected_by_vector_form(self, bad):
        with pytest.raises(ValueError, match="test scores must be finite"):
            conformal_p_values([0.5, bad], self.CALIB, [0.5, 0.5])

    def test_matches_brute_force_on_small_multisets(self):
        u = 0.37
        for size in range(1, 6):
            for calib in itertools.product((0.0, 1.0, 2.0), repeat=size):
                for test_value in (0.0, 1.0, 2.0, 1.5):
                    for orientation in ("power-corrected", "paper"):
                        expected = brute_force_p(
                            list(calib) + [test_value], test_value, u, orientation
                        )
                        actual = p_value(test_value, np.array(calib), u, orientation)
                        assert actual == expected

    def test_vectorized_equals_scalar(self):
        rng = np.random.default_rng(5)
        calib = np.round(rng.standard_normal(40), 1)
        tests = np.round(rng.standard_normal(25), 1)
        u = rng.uniform(0.01, 0.99, size=25)
        for orientation in ("power-corrected", "paper"):
            batch = conformal_p_values(tests, calib, u, orientation)
            scalar = [
                oracles.conformal_p_value(t, calib, uu, orientation)
                for t, uu in zip(tests, u)
            ]
            np.testing.assert_array_equal(batch, scalar)

    def test_orientation_duality(self):
        # below + above + ties partitions the pooled set, so the two
        # orientations at u and 1-u sum to one
        rng = np.random.default_rng(7)
        calib = np.round(rng.standard_normal(30), 1)
        for _ in range(50):
            test_value = float(np.round(rng.standard_normal(), 1))
            u = float(rng.uniform(0.01, 0.99))
            total = p_value(test_value, calib, u, "paper") + p_value(
                test_value, calib, 1.0 - u, "power-corrected"
            )
            assert abs(total - 1.0) < 1e-12

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(11)
        calib = rng.standard_normal(25)
        tests = rng.standard_normal(10)
        u = rng.uniform(0.01, 0.99, size=10)
        for transform in (lambda x: 2.0 * x + 3.0, lambda x: x**3):
            for orientation in ("power-corrected", "paper"):
                base = conformal_p_values(tests, calib, u, orientation)
                mapped = conformal_p_values(
                    transform(tests), transform(calib), u, orientation
                )
                np.testing.assert_array_equal(base, mapped)

    def test_uniform_under_exchangeability(self):
        rng = np.random.default_rng(42)
        trials, m = 2000, 20
        scores = rng.standard_normal((trials, m + 1))
        u = rng.uniform(1e-9, 1.0, size=trials)
        for orientation in ("power-corrected", "paper"):
            p = np.array(
                [
                    p_value(scores[i, 0], scores[i, 1:], u[i], orientation)
                    for i in range(trials)
                ]
            )
            assert ks_uniformity(p) < 1.628 / np.sqrt(trials)

    def test_validity_bound(self):
        rng = np.random.default_rng(9)
        trials, m = 4000, 15
        scores = rng.standard_normal((trials, m + 1))
        u = rng.uniform(1e-9, 1.0, size=trials)
        p = np.array(
            [p_value(scores[i, 0], scores[i, 1:], u[i]) for i in range(trials)]
        )
        for eps in (0.1, 0.3):
            rate = np.mean(p <= eps)
            assert rate <= eps + 3.0 * np.sqrt(eps * (1 - eps) / trials)


# Few distinct values, so ties between calibration and test scores are common.
_SCORES = st.one_of(
    st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
# From 2**-53, the least positive draw of numpy's uniform, which detect uses:
# a subnormal u could round u * ties / (n + 1) down to a p-value of 0.
_U = st.floats(2.0**-53, 1.0, exclude_max=True)
_ORIENTATIONS = st.sampled_from(["power-corrected", "paper"])


@st.composite
def _p_value_cases(draw):
    calib = draw(st.lists(_SCORES, min_size=1, max_size=30))
    tests = draw(st.lists(_SCORES, min_size=1, max_size=12))
    u_draws = draw(st.lists(_U, min_size=len(tests), max_size=len(tests)))
    return np.array(calib), np.array(tests), np.array(u_draws), draw(_ORIENTATIONS)


class TestConformalPValueProperties:
    @given(_p_value_cases())
    def test_in_half_open_unit_interval(self, case):
        calib, tests, u_draws, orientation = case
        p = conformal_p_values(tests, calib, u_draws, orientation)
        assert np.all(p > 0.0) and np.all(p <= 1.0)

    @given(_p_value_cases(), st.randoms(use_true_random=False))
    def test_calibration_order_does_not_matter(self, case, random):
        calib, tests, u_draws, orientation = case
        shuffled = calib.tolist()
        random.shuffle(shuffled)
        np.testing.assert_array_equal(
            conformal_p_values(tests, np.array(shuffled), u_draws, orientation),
            conformal_p_values(tests, calib, u_draws, orientation),
        )

    @given(_p_value_cases())
    def test_equals_scalar_form_entry_by_entry(self, case):
        calib, tests, u_draws, orientation = case
        batch = conformal_p_values(tests, calib, u_draws, orientation)
        for p, test_score, u in zip(batch.tolist(), tests.tolist(), u_draws.tolist()):
            assert p == oracles.conformal_p_value(test_score, calib, u, orientation)


class TestFullConformal:
    def test_worked_example(self):
        p = full_conformal_p_values([3.0, 1.0, 2.0], [0.5] * 3, "paper")
        np.testing.assert_allclose(p, [2.5 / 3, 0.5 / 3, 1.5 / 3])

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            full_conformal_p_values([1.0], [0.5])

    def test_nan_score_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            full_conformal_p_values([1.0, np.nan, 2.0], [0.5] * 3)

    def test_matches_brute_force(self):
        for size in (2, 3, 4, 5):
            for scores in itertools.product((0.0, 1.0, 2.0), repeat=size):
                u = [0.37 + 0.01 * i for i in range(size)]
                for orientation in ("power-corrected", "paper"):
                    actual = full_conformal_p_values(np.array(scores), u, orientation)
                    expected = [
                        brute_force_p(scores, s, uu, orientation)
                        for s, uu in zip(scores, u)
                    ]
                    np.testing.assert_array_equal(actual, expected)

    def test_all_ties_return_each_u(self):
        # The computed form is (0 + u*n)/n, equal to u only up to one ulp.
        u = np.array([0.2, 0.5, 0.9])
        np.testing.assert_allclose(
            full_conformal_p_values(np.full(3, 4.0), u), u, rtol=1e-15
        )


# The least and the greatest draw that conformal_p_values accepts.
U_LEAST, U_GREATEST = 2.0**-53, 1.0 - 2.0**-53

# Pooled score multisets with heavy ties: few distinct values, many repeats.
_TIED_POOLS = st.lists(st.sampled_from([-2.5, 0.0, 1.0, 1.0, 7.0]), min_size=2, max_size=40)


def assert_tiles_unit_interval(pool, least, greatest):
    """As u runs over (0, 1), element j's p-value runs from least[j] to
    greatest[j]. Tied elements must share one interval, of width c / (n + 1)
    for c ties, and the intervals of the distinct values must tile [0, 1]
    end to end. Then the p-value of a uniformly chosen element, with a
    uniform draw, is uniform on [0, 1]: the rank law under exchangeability."""
    size, tol = len(pool), 1e-12
    spans = {}
    for value, lo, hi in zip(pool, least, greatest):
        assert spans.setdefault(value, (lo, hi)) == (lo, hi)
    for value, (lo, hi) in spans.items():
        assert abs((hi - lo) - pool.count(value) / size) < tol
    ordered = sorted(spans.values())
    assert abs(ordered[0][0]) < tol
    assert abs(ordered[-1][1] - 1.0) < tol
    for (_, end), (start, _) in zip(ordered, ordered[1:]):
        assert abs(end - start) < tol


class TestRankLaw:
    @settings(max_examples=300, deadline=None)
    @given(pool=_TIED_POOLS, orientation=st.sampled_from(["power-corrected", "paper"]))
    def test_leave_one_out_p_values_tile_the_unit_interval(self, pool, orientation):
        least, greatest = [], []
        for j, value in enumerate(pool):
            rest = pool[:j] + pool[j + 1:]
            least.append(p_value(value, rest, U_LEAST, orientation))
            greatest.append(p_value(value, rest, U_GREATEST, orientation))
        assert_tiles_unit_interval(pool, least, greatest)

    @settings(max_examples=300, deadline=None)
    @given(pool=_TIED_POOLS, orientation=st.sampled_from(["power-corrected", "paper"]))
    def test_full_conformal_p_values_tile_the_unit_interval(self, pool, orientation):
        draws = np.ones(len(pool))
        least = full_conformal_p_values(pool, U_LEAST * draws, orientation)
        greatest = full_conformal_p_values(pool, U_GREATEST * draws, orientation)
        assert_tiles_unit_interval(pool, least.tolist(), greatest.tolist())


class TestTieBrokenRank:
    """The rank oracle that criterion 3 checks the rank law with."""

    def test_distinct_values_rank_directly(self):
        assert oracles.tie_broken_rank([3.0, 1.0, 2.0], 0, [0.0, 0.0, 0.0]) == 3
        assert oracles.tie_broken_rank([3.0, 1.0, 2.0], 1, [0.0, 0.0, 0.0]) == 1

    def test_all_equal_uses_unit_jitter_scale(self):
        assert oracles.tie_broken_rank([5.0, 5.0], 0, [-0.5, 0.5]) == 1
        assert oracles.tie_broken_rank([5.0, 5.0], 1, [-0.5, 0.5]) == 2

    def test_jitter_never_reorders_distinct_values(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            values = rng.integers(0, 4, size=12).astype(float)
            u = rng.uniform(-1.0, 1.0, size=12)
            order = np.argsort(values, kind="stable")
            for lo, hi in zip(order[:-1], order[1:]):
                if values[lo] == values[hi]:
                    continue
                assert (oracles.tie_broken_rank(values, lo, u)
                        < oracles.tie_broken_rank(values, hi, u))

    def test_ranks_form_a_permutation(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            values = rng.integers(0, 3, size=9).astype(float)
            u = rng.uniform(-1.0, 1.0, size=9)
            ranks = sorted(oracles.tie_broken_rank(values, i, u) for i in range(9))
            assert ranks == list(range(1, 10))


@pytest.fixture(scope="module")
def pipeline():
    hyper = HyperParams()
    trunc = TruncationLevels(k_h=8, k_a=4, k_b=4)
    corpus = sample_edges(hyper, trunc, 12, 400, seed=51)
    pool = corpus.subset(slice(None, 360))
    train, calib_corpus = split_train_calib(pool, 0.5, seed=1)
    model = fit(train, hyper, trunc, seed=0)
    calib = calibration_scores(model, calib_corpus)
    test = corpus.subset(slice(360, None))
    return model, calib, test


def _one_edge(corpus, i):
    """The corpus of the i-th edge alone."""
    return corpus.subset(slice(i, i + 1))


class TestDetect:
    def test_verdict_fields_consistent(self, pipeline):
        model, calib, test = pipeline
        edge = next(iter(test))
        verdicts = detect_corpus(model, calib, _one_edge(test, 0), epsilon=0.3, seed=5)
        assert verdicts.scores.size == 1
        assert verdicts.scores[0] == nonconformity_score(model, edge)
        assert 0.0 <= verdicts.p_values[0] <= 1.0
        assert 0.0 < verdicts.u_draws[0] < 1.0
        assert verdicts.flagged[0] == (verdicts.p_values[0] <= 0.3)

    def test_deterministic_given_seed(self, pipeline):
        model, calib, test = pipeline
        one = _one_edge(test, 1)
        a = detect_corpus(model, calib, one, epsilon=0.1, seed=9)
        b = detect_corpus(model, calib, one, epsilon=0.1, seed=9)
        for name in ("scores", "p_values", "u_draws", "flagged"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_detect_draws_the_seeds_first_uniform(self, pipeline):
        model, calib, test = pipeline
        for seed, edge in enumerate(test):
            verdicts = detect_corpus(model, calib, _one_edge(test, seed), epsilon=0.1, seed=seed)
            u = np.random.default_rng(seed).uniform()
            assert verdicts.u_draws[0] == u
            score = nonconformity_score(model, edge)
            assert verdicts.p_values[0] == oracles.conformal_p_value(score, calib, u)

    def test_epsilon_near_one_flags_everything(self, pipeline):
        model, calib, test = pipeline
        verdicts = detect_corpus(model, calib, test, epsilon=0.999, seed=0)
        assert verdicts.flagged.all()

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5])
    def test_bad_epsilon_raises(self, pipeline, eps):
        model, calib, test = pipeline
        with pytest.raises(ValueError):
            detect_corpus(model, calib, _one_edge(test, 0), epsilon=eps, seed=0)

    def test_detect_corpus_matches_scalar_detect(self, pipeline):
        model, calib, test = pipeline
        verdicts = detect_corpus(model, calib, test, epsilon=0.2, seed=77)
        # one draw per edge, in corpus order, from the seed's stream
        u_draws = np.random.default_rng(77).uniform(size=len(test))
        for edge, p, u in zip(test, verdicts.p_values, u_draws):
            score = nonconformity_score(model, edge)
            assert p == oracles.conformal_p_value(score, calib, u)


class TestVerdicts:
    def test_flagged_is_p_value_at_most_epsilon(self):
        verdicts = Verdicts([1.0, 2.0, 3.0], [0.4, 0.5, 0.6], [0.1, 0.2, 0.3], epsilon=0.5)
        np.testing.assert_array_equal(verdicts.flagged, [True, True, False])

    def test_arrays_read_only(self):
        verdicts = Verdicts([1.0], [0.4], [0.5], epsilon=0.5)
        for array in (verdicts.scores, verdicts.p_values, verdicts.u_draws):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize(
        "scores,p_values,u_draws",
        [([1.0, 2.0], [0.4], [0.5]), ([1.0], [0.4], [0.5, 0.6]), ([[1.0]], [[0.4]], [[0.5]])],
    )
    def test_rejects_unequal_or_non_vector_arrays(self, scores, p_values, u_draws):
        with pytest.raises(ValueError, match="equal-length vectors"):
            Verdicts(scores, p_values, u_draws, epsilon=0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.5, np.nan])
    def test_rejects_p_value_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match="p_values"):
            Verdicts([1.0], [p], [0.5], epsilon=0.5)


class TestNonconformityScore:
    def test_repeated_edge_scores_below_unseen_pairs(self):
        vocab = NodeVocab(["a", "b"])
        corpus = EdgeCorpus([0] * 100, [0] * 100, vocab)
        model = fit(corpus, HyperParams(), TruncationLevels(k_h=4, k_a=2, k_b=2), seed=0)
        seen = nonconformity_score(model, Edge(0, 0))
        for u, v in ((0, 1), (1, 0), (1, 1), (2, 2), (1, 2)):
            assert nonconformity_score(model, Edge(u, v)) > seen

    def test_calibration_scores_are_finite(self):
        hyper = HyperParams()
        trunc = TruncationLevels(k_h=6, k_a=3, k_b=3)
        corpus = sample_edges(hyper, trunc, 8, 120, seed=3)
        model = fit(corpus, hyper, trunc, seed=0)
        calib = calibration_scores(model, corpus)
        assert calib.size == corpus.n
        assert np.all(np.isfinite(calib))

    # An Edge no longer checks its endpoints; the scorer checks every one.
    @pytest.mark.parametrize("side", ["sender", "receiver"])
    @pytest.mark.parametrize("endpoint", ["-1", "W+1"])
    def test_endpoint_out_of_range_rejected(self, pipeline, side, endpoint):
        model = pipeline[0]
        bad = -1 if endpoint == "-1" else model.num_nodes + 1
        sender, receiver = (bad, 0) if side == "sender" else (0, bad)
        message = rf"edge \({sender}, {receiver}\) out of range for {model.num_nodes} nodes"
        with pytest.raises(ValueError, match=message):
            nonconformity_score(model, Edge(sender, receiver))
        with pytest.raises(ValueError, match=message):
            score_edges(model, [0, sender], [0, receiver])


class TestScoreEdges:
    def test_matches_per_edge_scores_as_read_only_vector(self, pipeline):
        model, _, test = pipeline
        scores = score_edges(model, test.senders, test.receivers)
        assert scores.dtype == np.float64 and scores.shape == (test.n,)
        assert scores.tolist() == [nonconformity_score(model, edge) for edge in test]
        np.testing.assert_array_equal(calibration_scores(model, test), scores)
        with pytest.raises(ValueError):
            scores[0] = 0.0

    def test_no_edges_give_an_empty_vector(self, pipeline):
        scores = score_edges(pipeline[0], np.empty(0, np.int64), np.empty(0, np.int64))
        assert scores.shape == (0,) and scores.dtype == np.float64

    # zip over the two columns would stop at the shorter one
    @pytest.mark.parametrize(
        "senders,receivers",
        [([0, 1, 2], [0, 1]), ([0], []), ([[0, 1]], [[0, 1]]), (0, 0)],
    )
    def test_rejects_columns_that_are_not_equal_length_vectors(
        self, pipeline, senders, receivers
    ):
        with pytest.raises(ValueError, match="equal-length vectors"):
            score_edges(pipeline[0], senders, receivers)
