"""Unit tests for the brute-force oracles: answer-vector enumeration,
exact posteriors, closed-form expectations, and difficulty mixtures."""

import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from quorum import aggregate as agg
from quorum import core, oracle
from quorum.core import DimensionError, DomainError, ResourceError, ow_weights, sigma_k
from quorum.oracle import (
    DifficultyMixture,
    answer_vector_probs,
    bayes_posterior,
    enumerate_vectors,
    exact_expected_advantage,
    expected_accuracy,
    expected_advantage_gaps,
    expected_mv_advantage,
    joint_correct_probability,
    mixture_expected_accuracy,
    mixture_answer_vector_probs,
    mixture_expected_advantage,
    mixture_posterior,
    mixture_second_order,
)
from quorum.secondorder import exact_second_order


class TestEnumeration:
    def test_all_vectors_once(self):
        vectors = enumerate_vectors(3, 2)
        assert vectors.shape == (8, 3)
        assert len({tuple(v) for v in vectors}) == 8

    def test_budget_enforced(self):
        with pytest.raises(ResourceError):
            enumerate_vectors(10, 10, budget=1000)

    def test_probabilities_sum_to_one(self):
        x = np.array([0.6, 0.75, 0.9])
        for k in (2, 3, 4):
            vectors = enumerate_vectors(3, k)
            probs = answer_vector_probs(vectors, 0, x, k)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= 0)

    def test_vector_probability_matches_hand_product(self):
        # truth 0, K=3: agent hits with x_i, misses spread over 2 labels
        x = np.array([0.6, 0.9])
        probs = answer_vector_probs(np.array([[0, 2]]), 0, x, 3)
        assert probs[0] == pytest.approx(0.6 * (0.1 / 2), abs=1e-15)


class TestBayesPosterior:
    def test_fixture(self):
        post = bayes_posterior(np.array([0, 1, 1]), np.array([0.9, 0.6, 0.6]), 2)
        np.testing.assert_allclose(post, [0.8, 0.2], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            x = 1.0 / k + (0.99 - 1.0 / k) * rng.random(n)
            post = bayes_posterior(rng.integers(0, k, size=n), x, k)
            assert post.sum() == pytest.approx(1.0, abs=1e-12)

    def test_contradiction_with_certainty_rejected(self):
        # two infallible agents cannot disagree; the posterior is undefined
        with pytest.raises(DomainError):
            bayes_posterior(np.array([0, 1]), np.array([1.0, 1.0]), 2)


class TestExpectedAdvantage:
    def test_mv_closed_form_matches_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            x = 1.0 / k + (1.0 - 1.0 / k) * rng.random(n)
            enum = exact_expected_advantage("mv", x, k)
            assert enum == pytest.approx(expected_mv_advantage(x, k), abs=1e-12)

    def test_gap_fixtures(self):
        gi, gm = expected_advantage_gaps(np.array([1.0, 1.0, 0.5, 0.5]), 2)
        assert gi == pytest.approx(1 / 3, abs=1e-12)
        assert gm == pytest.approx(1 / 3, abs=1e-12)
        gi, gm = expected_advantage_gaps(np.array([1.0, 1.0]), 2)
        assert gi == pytest.approx(1.0, abs=1e-12)
        assert gm == pytest.approx(1.0, abs=1e-12)

    def test_gaps_match_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, 5))
            x = 1.0 / k + (1.0 - 1.0 / k) * rng.random(n)
            gi, gm = expected_advantage_gaps(x, k)
            e = {r: exact_expected_advantage(r, x, k) for r in ("mv", "sp", "isp")}
            assert gi == pytest.approx(e["isp"] - e["mv"], abs=1e-10)
            assert gm == pytest.approx(e["mv"] - e["sp"], abs=1e-10)

    def test_gap_ratio_law(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(2, 15))
            x = 1.0 / k + (1.0 - 1.0 / k) * rng.random(n)
            gi, gm = expected_advantage_gaps(x, k)
            assert gm == pytest.approx((k - 1) * gi, rel=1e-12, abs=1e-15)

    def test_chance_level_population_has_zero_gaps(self):
        gi, gm = expected_advantage_gaps(np.full(4, 0.25), 4)
        assert gi == 0.0
        assert gm == 0.0

    def test_needs_two_agents(self):
        with pytest.raises(DimensionError):
            expected_advantage_gaps(np.array([0.8]), 2)


class TestExpectedAccuracy:
    def test_two_expert_fixture(self):
        x = np.array([1.0, 1.0, 0.5, 0.5])
        assert expected_accuracy("mv", x, 2) == pytest.approx(7 / 8, abs=1e-12)
        assert expected_accuracy("sp", x, 2) == pytest.approx(3 / 4, abs=1e-12)
        assert expected_accuracy("isp", x, 2) == pytest.approx(1.0, abs=1e-12)

    def test_tie_modes_agree_after_truth_averaging(self):
        # lowest-index tie-breaking favors label 0, but averaging over
        # all true labels symmetrizes it away: a 1v1 split between equal
        # agents scores 0.49 + 0.42/2 = 0.7 under either policy
        x = np.array([0.7, 0.7])
        uni = expected_accuracy("mv", x, 2, tie_mode=agg.TIE_UNIFORM)
        low = expected_accuracy("mv", x, 2, tie_mode=agg.TIE_LOWEST)
        assert uni == pytest.approx(0.7, abs=1e-12)
        assert low == pytest.approx(0.7, abs=1e-12)

    def test_weighted_needs_weights(self):
        with pytest.raises(DomainError):
            expected_accuracy("weighted", np.array([0.6, 0.7]), 2)

    def test_weighted_equals_best_agent_when_dominant(self):
        # one strong agent above the dominance threshold of two weak peers
        x = np.array([0.99, 0.55, 0.55])
        thr = agg.dominance_threshold(x, 2, 0)
        assert x[0] > thr
        acc = expected_accuracy("weighted", x, 2, weights=ow_weights(x, 2))
        assert acc == pytest.approx(x[0], abs=1e-12)


class TestDifficultyMixture:
    def test_atoms_validation(self):
        with pytest.raises(DomainError):
            DifficultyMixture.atoms([(1.0, 0.5), (2.0, 0.6)])  # weights sum > 1
        with pytest.raises(DomainError):
            DifficultyMixture.atoms([(-1.0, 1.0)])
        with pytest.raises(DomainError):
            DifficultyMixture.atoms([(1.0, -0.2), (2.0, 1.2)])

    def test_log_uniform_validation(self):
        with pytest.raises(DomainError):
            DifficultyMixture.log_uniform(0.0, 1.0)
        with pytest.raises(DomainError):
            DifficultyMixture.log_uniform(5.0, 1.0)

    def test_nodes_weights_sum_to_one(self):
        for mix in (
            DifficultyMixture.atoms([(0.5, 0.25), (2.0, 0.75)]),
            DifficultyMixture.log_uniform(0.1, 10.0),
        ):
            alphas, weights = mix.nodes()
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(alphas >= 0)

    def test_newton_quadrature_matches_leggauss(self):
        t, w = oracle._gauss_legendre()
        want_t, want_w = np.polynomial.legendre.leggauss(oracle._QUAD_ORDER)
        assert np.max(np.abs(t - want_t)) <= 1e-14
        assert np.max(np.abs(w - want_w)) <= 1e-14
        assert np.all(t == -t[::-1]) and np.all(w == w[::-1]) and np.all(np.diff(t) > 0)
        assert not t.flags.writeable and not w.flags.writeable

    def test_a_log_uniform_mixture_loads_no_numpy_polynomial(self):
        # the nodes come from Newton's method, not from leggauss's eigensolver
        code = (
            "import sys; from quorum import oracle; "
            "oracle.mixture_posterior([0, 1, 1], [1.0, 2.0, 0.5], oracle.DifficultyMixture.log_uniform(0.2, 5.0), 3); "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", out.stdout

    def test_atom_sampling_matches_weights(self):
        mix = DifficultyMixture.atoms([(1.0, 0.2), (3.0, 0.8)])
        u = np.linspace(0.0005, 0.9995, 2000)
        draws = mix.sample(u)
        assert set(np.unique(draws)) == {1.0, 3.0}
        assert (draws == 1.0).mean() == pytest.approx(0.2, abs=0.01)

    def test_log_uniform_sampling_stays_in_range(self):
        mix = DifficultyMixture.log_uniform(0.5, 8.0)
        draws = mix.sample(np.linspace(0.001, 0.999, 500))
        assert np.all((draws >= 0.5) & (draws <= 8.0))
        assert np.median(draws) == pytest.approx(2.0, rel=0.05)  # geometric mean


class TestMixtureOracles:
    def setup_method(self):
        self.mix = DifficultyMixture.atoms([(0.0, 0.3), (50.0, 0.7)])
        self.beta = np.array([1.0, 1.0])

    def test_joint_correct_fixture(self):
        # hard questions are coin flips, easy ones near-certain:
        # 0.3 * 0.25 + 0.7 * 1 = 0.775 > 0.85^2 = 0.7225
        joint = joint_correct_probability(self.beta, self.mix, 2)
        assert joint == pytest.approx(0.775, abs=1e-12)
        marginal = float(np.dot(self.mix.weights, sigma_k(self.mix.alphas, 2)))
        assert marginal**2 == pytest.approx(0.7225, abs=1e-12)
        assert joint > marginal**2

    def test_single_atom_reduces_to_independent_model(self):
        rng = np.random.default_rng(7)
        beta = np.array([0.5, 1.5, 2.5])
        mix = DifficultyMixture.atoms([(1.3, 1.0)])
        x = sigma_k(1.3 * beta, 3)
        for _ in range(10):
            vec = rng.integers(0, 3, size=3)
            np.testing.assert_allclose(
                mixture_posterior(vec, beta, mix, 3),
                bayes_posterior(vec, x, 3),
                atol=1e-12,
            )

    def test_zero_difficulty_scale_gives_uniform_posterior(self):
        mix = DifficultyMixture.atoms([(0.0, 1.0)])
        post = mixture_posterior(np.array([0, 1, 1]), np.array([1.0, 2.0, 0.5]), mix, 3)
        np.testing.assert_allclose(post, 1 / 3, atol=1e-12)

    def test_mixture_posterior_handles_extreme_abilities(self):
        # log-space evaluation must survive alpha*beta ~ 500
        mix = DifficultyMixture.atoms([(100.0, 0.5), (0.1, 0.5)])
        post = mixture_posterior(np.array([0, 1]), np.array([5.0, 1.0]), mix, 2)
        assert np.isfinite(post).all()
        assert post.sum() == pytest.approx(1.0, abs=1e-12)
        assert post[0] > post[1]

    def test_mixture_vector_probabilities_sum_to_one(self):
        vectors = enumerate_vectors(3, 3)
        beta = np.array([0.5, 1.0, 1.5])
        for t in range(3):
            probs = mixture_answer_vector_probs(vectors, t, beta, self.mix, 3)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mixture_second_order_is_valid_and_correlated(self):
        so = mixture_second_order(self.beta, self.mix, 2)
        np.testing.assert_allclose(so.probs.sum(axis=2), 1.0, atol=1e-12)
        # shared difficulty induces positive same-answer correlation
        # relative to the independent product of marginals
        exact = exact_second_order(
            np.array([0.85, 0.85]), 2
        )  # same marginals, no sharing
        assert so.probs[0, 1, 0, 0] > exact.probs[0, 1, 0, 0]

    def test_mixture_advantage_ordering(self):
        mix = DifficultyMixture.atoms([(0.4, 0.5), (2.0, 0.5)])
        beta = np.array([0.5, 1.0, 1.5])
        adv = {r: mixture_expected_advantage(r, beta, mix, 3) for r in ("mv", "sp", "isp")}
        assert adv["isp"] >= adv["mv"] - 1e-10
        assert adv["mv"] >= adv["sp"] - 1e-10

    def test_mixture_accuracy_ability_weighting_is_best(self):
        mix = DifficultyMixture.atoms([(0.4, 0.5), (2.0, 0.5)])
        beta = np.array([0.5, 1.0, 1.5])
        eow = mixture_expected_accuracy("eow", beta, mix, 3)
        for rule in ("mv", "sp", "isp"):
            assert eow >= mixture_expected_accuracy(rule, beta, mix, 3) - 1e-12

    def test_quadrature_matches_dense_discretization(self):
        beta = np.array([1.0, 2.0, 0.5])
        quad = DifficultyMixture.log_uniform(0.1, 10.0)
        edges = np.linspace(math.log(0.1), math.log(10.0), 5001)
        grid = np.exp(0.5 * (edges[:-1] + edges[1:]))
        dense = DifficultyMixture.atoms([(a, 1.0 / grid.size) for a in grid])
        for vec in ([0, 0, 1], [1, 0, 1]):
            pq = mixture_posterior(np.array(vec), beta, quad, 2)
            pd = mixture_posterior(np.array(vec), beta, dense, 2)
            np.testing.assert_allclose(pq, pd, atol=1e-5)


def _instance(n, k, seed):
    """Accuracies, abilities and an atom mixture for one random oracle instance."""

    rng = np.random.default_rng(seed)
    x = 1.0 / k + (0.99 - 1.0 / k) * rng.random(n)
    beta = 0.2 + 2.8 * rng.random(n)
    alphas = 0.3 + 2.5 * rng.random(2)
    mix = DifficultyMixture.atoms([(alphas[0], 0.4), (alphas[1], 0.6)])
    return x, beta, mix


def _oracle_values(n, k, seed, rules=None):
    """Every expectation oracle's value on one instance, keyed by (entry point, rule)."""

    x, beta, mix = _instance(n, k, seed)
    peer = ("sp", "isp") if n >= 2 else ()
    calls = {}
    for rule in ("mv", "weighted") + peer:
        calls["acc", rule] = lambda r=rule: expected_accuracy(r, x, k, weights=ow_weights(x, k))
    for rule in ("mv", "eow", "posterior") + peer:
        calls["mixture_acc", rule] = lambda r=rule: mixture_expected_accuracy(r, beta, mix, k)
    for rule in ("mv",) + peer:
        calls["adv", rule] = lambda r=rule: exact_expected_advantage(r, x, k)
        calls["mixture_adv", rule] = lambda r=rule: mixture_expected_advantage(r, beta, mix, k)
    return {key: fn() for key, fn in calls.items() if rules is None or key in rules}


def _full_stream(n, k, cells, held=0):
    """Every one of the K^N answer vectors, each with multiplicity 1, in the orbit stream's chunks."""

    vectors = enumerate_vectors(n, k)
    for rows in core._row_blocks(len(vectors), cells, held=held):
        chunk = vectors[rows]
        yield chunk, np.ones(len(chunk))


def _loop_likelihood(vec, t, x, k):
    """P(answer vector | true label t) under conditional independence, one vector at a time."""

    return float(np.prod(np.where(vec == t, x, (1.0 - x) / (k - 1))))


def _loop_mixture_likelihood(vec, t, beta, mixture, k):
    """P(answer vector | true label t) under the difficulty mixture, one node at a time."""

    alphas, weights = mixture.nodes()
    return sum(w * _loop_likelihood(vec, t, sigma_k(a * beta, k), k) for a, w in zip(alphas, weights))


def _brute_force_accuracy(n, k, likelihood, scores):
    """(1/K) sum over all K^N vectors v and true labels t of P(v | t) * [t wins v].

    On a tie the true label earns its lowest-index credit: 1 when it is the
    smallest tied index, else 0.
    """

    total = 0.0
    for vec in itertools.product(range(k), repeat=n):
        vec = np.array(vec)
        winner = int(np.argmax(agg.tied_mask(np.asarray(scores(vec), dtype=float))))
        total += likelihood(vec, winner) / k
    return total


def _loop_bayes_posterior(vec, x, k):
    """One vector at a time, one label at a time: the reference for the batched posterior."""

    like = np.array([np.prod(np.where(vec == s, x, (1.0 - x) / (k - 1))) for s in range(k)])
    return like / like.sum()


def _loop_mixture_posterior(vec, beta, mixture, k):
    """One vector at a time, in log space: the reference for the batched mixture posterior."""

    alphas, weights = mixture.nodes()
    support = np.array([beta[vec == s].sum() for s in range(k)])
    log_norm = np.logaddexp(np.log(k - 1.0), alphas[:, None] * beta[None, :]).sum(axis=1)
    log_terms = np.log(weights)[:, None] + alphas[:, None] * support[None, :] - log_norm[:, None]
    top = log_terms.max(axis=0)
    log_post = top + np.log(np.exp(log_terms - top).sum(axis=0))
    post = np.exp(log_post - log_post.max())
    return post / post.sum()


@pytest.mark.parametrize(
    "n,k,mixture",
    [
        (4, 3, DifficultyMixture.log_uniform(0.1, 3.0)),
        (5, 2, DifficultyMixture.atoms([(0.3, 0.4), (2.0, 0.6)])),
        (3, 5, DifficultyMixture.atoms([(0.0, 0.2), (1.5, 0.8)])),
    ],
)
def test_log_space_mixture_likelihoods_match_the_node_product(n, k, mixture):
    # reference: P(v | s) = sum_t w_t prod_i P(v_i | s, alpha_t), multiplied
    # out in linear space; moderate alpha * beta keeps 1 - x accurate there
    beta = 0.2 + 1.8 * np.random.default_rng(n * k).random(n)
    vectors = enumerate_vectors(n, k)
    alphas, weights = mixture.nodes()
    xs = sigma_k(alphas[:, None] * beta[None, :], k)
    for s in range(k):
        ref = sum(
            w * np.where(vectors == s, x, (1.0 - x) / (k - 1)).prod(axis=1)
            for x, w in zip(xs, weights)
        )
        got = mixture_answer_vector_probs(vectors, s, beta, mixture, k)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


class TestBatchedPosteriors:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_batch_rows_equal_single_vector_calls(self, k):
        rng = np.random.default_rng(k)
        for n in (1, 3, 9):
            x, beta, _ = _instance(n, k, 10 * k + n)
            batch = rng.integers(0, k, size=(40, n))
            post = bayes_posterior(batch, x, k)
            assert post.shape == (40, k)
            np.testing.assert_array_equal(post, np.stack([bayes_posterior(v, x, k) for v in batch]))
            np.testing.assert_array_equal(post, [_loop_bayes_posterior(v, x, k) for v in batch])
            for mix in (_instance(n, k, n)[2], DifficultyMixture.log_uniform(0.2, 5.0)):
                post = mixture_posterior(batch, beta, mix, k)
                rows = np.stack([mixture_posterior(v, beta, mix, k) for v in batch])
                np.testing.assert_array_equal(post, rows)
                # the ability totals may be summed in another order than the loop's
                loop = [_loop_mixture_posterior(v, beta, mix, k) for v in batch]
                np.testing.assert_allclose(post, loop, rtol=1e-13, atol=1e-15)
                np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_single_vector_keeps_its_shape(self):
        x = np.array([0.9, 0.6, 0.6])
        assert bayes_posterior(np.array([0, 1, 1]), x, 2).shape == (2,)
        mix = DifficultyMixture.atoms([(1.0, 1.0)])
        assert mixture_posterior(np.array([0, 1, 1]), x, mix, 2).shape == (2,)

    def test_zero_probability_row_in_batch_rejected(self):
        batch = np.array([[0, 0], [1, 1], [0, 1]])
        with pytest.raises(DomainError):
            bayes_posterior(batch, np.array([1.0, 1.0]), 2)

    def test_batch_shape_and_range_checked(self):
        x = np.array([0.7, 0.8])
        mix = DifficultyMixture.atoms([(1.0, 1.0)])
        for fn in (lambda a: bayes_posterior(a, x, 2), lambda a: mixture_posterior(a, x, mix, 2)):
            with pytest.raises(DimensionError):
                fn(np.zeros((3, 3), dtype=int))
            with pytest.raises(DimensionError):
                fn(np.zeros((2, 2, 2), dtype=int))
            with pytest.raises(DomainError):
                fn(np.array([[0, 1], [1, 2]]))

    def test_mixture_posterior_row_blocks_do_not_change_values(self, monkeypatch):
        beta = np.array([0.5, 1.0, 2.0, 1.5])
        mix = DifficultyMixture.log_uniform(0.2, 5.0)
        batch = enumerate_vectors(4, 3)
        whole = mixture_posterior(batch, beta, mix, 3)
        # 2 rows per block, beside the 64 nodes' log-norms and log-weights
        monkeypatch.setattr(core, "_BLOCK_CELLS", 2 * oracle._mixture_row_cells(64, 4, 3) + 2 * 64)
        np.testing.assert_array_equal(mixture_posterior(batch, beta, mix, 3), whole)

    def test_mixture_posterior_memory_is_its_result_plus_a_block(self):
        # the (rows, nodes, K) scratch is worked in place; 20,000 nodes make each block one row
        grid = np.linspace(0.1, 10.0, 20_000)
        dense = DifficultyMixture.atoms([(a, 1.0 / grid.size) for a in grid])
        batch = np.random.default_rng(0).integers(0, 2, size=(50, 3))
        tracemalloc.start()
        try:
            post = mixture_posterior(batch, [1.0, 2.0, 0.5], dense, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= post.nbytes + 8 * core._BLOCK_CELLS, peak


class TestOrbitEnumeration:
    @pytest.mark.parametrize("n,k", [(1, 2), (3, 2), (4, 3), (5, 4), (3, 6), (6, 3)])
    def test_one_representative_per_orbit(self, n, k, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_CELLS", 7 * n)  # chunks of 7 representatives
        reps, sizes = zip(*oracle._vector_chunks(n, k, n))
        reps, sizes = np.concatenate(reps), np.concatenate(sizes)
        assert sizes.sum() == k**n

        def canonical(v):  # relabel in order of first appearance
            seen = {}
            return tuple(seen.setdefault(a, len(seen)) for a in v)

        assert [tuple(r) for r in reps] == sorted({canonical(v) for v in enumerate_vectors(n, k)})
        for r, size in zip(reps, sizes):
            b = len(set(r))
            assert size == math.perm(k, b)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_orbit_path_matches_full_stream(self, k, monkeypatch):
        for n in range(1, 9):
            # the full stream at 5^7 and 5^8 vectors is checked on the two peer tables only
            rules = None if k**n <= 4**8 else {("acc", "isp"), ("mixture_adv", "sp")}
            orbit = _oracle_values(n, k, 100 * k + n, rules)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_vector_chunks", _full_stream)
                full = _oracle_values(n, k, 100 * k + n, rules)
            assert orbit.keys() == full.keys()
            for key in orbit:
                assert orbit[key] == pytest.approx(full[key], abs=1e-12), (n, k, key)

    @pytest.mark.parametrize("n,k,seed", [(4, 2, 0), (3, 3, 1), (5, 3, 2), (4, 4, 3)])
    def test_tie_modes_equal_a_brute_force_sum(self, n, k, seed):
        # lowest-index ties favour label 0 on each vector, yet after averaging
        # over the true label they score exactly what uniform ties score
        rng = np.random.default_rng(seed)
        x = rng.choice([0.55, 0.7, 0.9], n)  # repeated accuracies make ties
        beta = rng.choice([0.5, 1.5], n)
        mix = DifficultyMixture.atoms([(0.5, 0.4), (1.7, 0.6)])
        so, w = exact_second_order(x, k), ow_weights(x, k)
        ci_scores = {
            "mv": lambda v: np.bincount(v, minlength=k),
            "weighted": lambda v: np.bincount(v, weights=w, minlength=k),
            "sp": lambda v: agg.advantage_sp(v, so).values,
            "isp": lambda v: agg.advantage_isp(v, so).values,
        }
        for rule, scores in ci_scores.items():
            want = _brute_force_accuracy(n, k, lambda v, t: _loop_likelihood(v, t, x, k), scores)
            for mode in (agg.TIE_UNIFORM, agg.TIE_LOWEST):
                got = expected_accuracy(rule, x, k, weights=w, tie_mode=mode)
                assert got == pytest.approx(want, abs=1e-12), (rule, mode)
        want = _brute_force_accuracy(
            n,
            k,
            lambda v, t: _loop_mixture_likelihood(v, t, beta, mix, k),
            lambda v: _loop_mixture_posterior(v, beta, mix, k),
        )
        for mode in (agg.TIE_UNIFORM, agg.TIE_LOWEST):
            got = mixture_expected_accuracy("posterior", beta, mix, k, tie_mode=mode)
            assert got == pytest.approx(want, abs=1e-12), mode

    def test_unknown_tie_mode_is_rejected(self):
        x, beta, mix = _instance(3, 3, 0)
        with pytest.raises(DomainError):
            expected_accuracy("mv", x, 3, tie_mode="highest_index")
        with pytest.raises(DomainError):
            mixture_expected_accuracy("posterior", beta, mix, 3, tie_mode="highest_index")

    def test_many_chunks_equal_one_chunk(self, monkeypatch):
        one = _oracle_values(5, 3, 7)
        x, beta, mix = _instance(5, 3, 7)
        low = expected_accuracy("isp", x, 3, tie_mode=agg.TIE_LOWEST)
        monkeypatch.setattr(core, "_BLOCK_CELLS", 11)  # fewer cells than any rule's vector holds: 1 a chunk
        many = _oracle_values(5, 3, 7)
        for key in one:
            assert many[key] == pytest.approx(one[key], abs=1e-12), key
        low_many = expected_accuracy("isp", x, 3, tie_mode=agg.TIE_LOWEST)
        assert low_many == pytest.approx(low, abs=1e-12)

    def test_every_entry_point_enforces_the_budget(self):
        x, beta, mix = _instance(4, 3, 1)  # 3^4 = 81 vectors
        calls = (
            lambda b: expected_accuracy("isp", x, 3, budget=b),
            lambda b: exact_expected_advantage("isp", x, 3, budget=b),
            lambda b: mixture_expected_accuracy("posterior", beta, mix, 3, budget=b),
            lambda b: mixture_expected_advantage("mv", beta, mix, 3, budget=b),
        )
        for call in calls:
            assert np.isfinite(call(81))
            with pytest.raises(ResourceError):
                call(80)
