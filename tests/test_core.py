"""Unit tests for core types: label spaces, prediction matrices, the
generalized sigmoid pair, deterministic randomness, and label shuffling."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quorum import core
from quorum.core import (
    DimensionError,
    DomainError,
    LabelSpace,
    PredictionMatrix,
    ShuffleMap,
    apply_shuffle_map,
    clamp_accuracies,
    derive_seed,
    ow_weights,
    random_shuffle_map,
    shuffle_apply,
    shuffle_invert,
    sigma_k,
    sigma_k_inverse,
    uniform_block,
)


def test_every_clamp_epsilon_defaults_to_the_one_constant():
    from quorum.aggregate import dominance_threshold
    from quorum.cli import aggregate
    from quorum.estimate import ErmConfig, fit_ow_i

    for fn in (clamp_accuracies, core.ow_weights, dominance_threshold, fit_ow_i):
        assert inspect.signature(fn).parameters["eps"].default is core.DEFAULT_EPS, fn.__name__
    assert inspect.signature(ErmConfig).parameters["eps"].default is core.DEFAULT_EPS
    assert next(p for p in aggregate.params if p.name == "eps").default is core.DEFAULT_EPS


@pytest.mark.parametrize("k", [2, 256, 257, 300])
def test_truth_and_every_label_array_share_the_code_dtype(k, tmp_path):
    from quorum import aggregate as agg
    from quorum.dataio import read_predictions_csv, write_predictions_csv
    from quorum.estimate import run_pipeline
    from quorum.oracle import DifficultyMixture
    from quorum.simulate import CiSimSpec, DifficultySimSpec, simulate_ci, simulate_difficulty

    # question q's truth is label q mod K and two of its three answers, so
    # every rule's label is the truth, and every label, K - 1 too, occurs
    dtype, truth = core._code_dtype(k), np.arange(2 * k) % k
    written = PredictionMatrix(LabelSpace.default(k), np.stack([truth, truth, (truth + 1) % k], axis=1), truth)
    write_predictions_csv(str(tmp_path / "panel.csv"), written)
    pm, _ = read_predictions_csv(str(tmp_path / "panel.csv"))  # its space is sorted: compare as labels
    np.testing.assert_array_equal(np.array(pm.space.labels)[pm.truth], np.array(written.space.labels)[truth])
    smap = random_shuffle_map(pm.m, k, 1)
    shuffled = apply_shuffle_map(pm, smap)
    scores = agg.score_batch("mv", pm.answers, k)
    labels = {
        "truth": pm.truth,
        "decide_batch": agg.decide_batch(scores),
        "decide_batch-few-rows": np.concatenate([agg.decide_batch(scores[r : r + 64], None, r) for r in range(0, pm.m, 64)]),
        "aggregate_batch": agg.aggregate_batch("mv", pm.answers, k, agg.TiePolicy(agg.TIE_UNIFORM))[0],
        "run_pipeline": run_pipeline(pm, "isp").labels,
        "shuffle_invert": shuffle_invert(shuffled.truth, smap),
        "shuffle_invert-matrix": shuffle_invert(shuffled, smap).truth,
    }
    for name, got in labels.items():
        assert got.dtype == dtype, name
        np.testing.assert_array_equal(got, pm.truth, err_msg=name)
    assert pm.truth.max() == k - 1
    mixture = DifficultyMixture.atoms([(1.0, 0.5), (4.0, 0.5)])
    for sim in (
        simulate_ci(CiSimSpec((0.9, 0.8), k, 20 * k, 0)),
        simulate_difficulty(DifficultySimSpec((1.0, 2.0), mixture, k, 20 * k, 0)),
    ):
        assert sim.truth.dtype == sim.answers.dtype == dtype and sim.truth.max() == k - 1


class TestSigmoidPair:
    def test_known_values(self):
        assert sigma_k(0.0, 2) == pytest.approx(0.5, abs=1e-15)
        assert sigma_k(0.0, 4) == pytest.approx(0.25, abs=1e-15)
        assert sigma_k(math.log(4), 2) == pytest.approx(0.8, abs=1e-12)
        assert sigma_k_inverse(0.8, 2) == pytest.approx(math.log(4), abs=1e-12)
        assert sigma_k_inverse(0.9, 4) == pytest.approx(math.log(27), abs=1e-12)

    def test_chance_level_maps_to_exact_zero(self):
        # 1/K is the fixed point of the pair; the inverse must return 0.0
        # exactly, not a rounding residue.
        for k in (2, 3, 4, 5, 7, 10):
            assert sigma_k_inverse(1.0 / k, k) == 0.0

    def test_monotone_and_bounded(self):
        # strictly increasing where float64 can resolve the steps,
        # nondecreasing and within [0, 1] out to the saturated tails
        for k in (2, 3, 6):
            p = sigma_k(np.linspace(-30, 30, 301), k)
            assert np.all(np.diff(p) > 0)
            assert np.all((p > 0) & (p < 1))
            tails = sigma_k(np.linspace(-40, 40, 401), k)
            assert np.all(np.diff(tails) >= 0)
            assert np.all((tails >= 0) & (tails <= 1))

    def test_extreme_arguments_do_not_overflow(self):
        assert sigma_k(700.0, 2) == pytest.approx(1.0, abs=1e-12)
        assert sigma_k(-700.0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_memory_is_its_result_plus_a_block(self):
        # each block of rows is mapped by the two half-line branches on their
        # own, into the result's buffer: the bits of the whole-array branches
        x = np.random.default_rng(0).normal(scale=30.0, size=(100_000, 4))
        x[:3, 0] = [0.0, -0.0, -700.0]
        tracemalloc.start()
        try:
            got = sigma_k(x, 4)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= kept + 8 * core._BLOCK_CELLS, (peak, kept)
        want = np.empty_like(x)
        pos = x >= 0
        want[pos] = 1.0 / (1.0 + 3 * np.exp(-x[pos]))
        want[~pos] = np.exp(x[~pos]) / (3 + np.exp(x[~pos]))
        assert got.tobytes() == want.tobytes()
        with pytest.raises(DomainError):
            sigma_k(np.r_[np.zeros(10**6), np.nan], 3)

    @given(
        st.floats(min_value=-16, max_value=16),
        st.integers(min_value=2, max_value=12),
    )
    def test_round_trip_from_log_odds(self, x, k):
        back = sigma_k_inverse(sigma_k(x, k), k)
        assert back == pytest.approx(x, rel=1e-9, abs=1e-9)

    @given(
        st.floats(min_value=1e-6, max_value=1 - 1e-6),
        st.integers(min_value=2, max_value=12),
    )
    def test_round_trip_from_probability(self, p, k):
        back = sigma_k(sigma_k_inverse(p, k), k)
        assert back == pytest.approx(p, abs=1e-12)

    def test_array_shapes_preserved(self):
        x = np.array([[0.0, 1.0], [-1.0, 2.0]])
        assert sigma_k(x, 3).shape == (2, 2)
        assert isinstance(sigma_k(0.5, 3), float)
        assert isinstance(sigma_k_inverse(0.5, 3), float)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sigma_k(np.inf, 2)
        with pytest.raises(DomainError):
            sigma_k(np.nan, 2)
        with pytest.raises(DomainError):
            sigma_k(0.0, 1)
        with pytest.raises(DomainError):
            sigma_k_inverse(0.0, 2)
        with pytest.raises(DomainError):
            sigma_k_inverse(1.0, 2)
        with pytest.raises(DomainError):
            sigma_k_inverse(0.5, 2.5)


class TestClampAndWeights:
    def test_clamp_bounds(self):
        acc = clamp_accuracies([0.0, 0.3, 0.999999999, 1.0], 4, eps=1e-6)
        assert acc[0] == pytest.approx(0.25 + 1e-6)
        assert acc[1] == 0.3
        assert acc[-1] == pytest.approx(1 - 1e-6)

    def test_clamp_eps_validation(self):
        with pytest.raises(DomainError):
            clamp_accuracies([0.5], 2, eps=0.0)
        with pytest.raises(DomainError):
            clamp_accuracies([0.5], 2, eps=0.6)
        with pytest.raises(DomainError):
            clamp_accuracies([np.nan], 2)

    def test_floored_agents_get_exact_zero_weight(self):
        w = ow_weights(np.array([0.25, 0.1, 0.9]), 4)
        assert w[0] == 0.0
        assert w[1] == 0.0
        assert w[2] > 0.0

    def test_weights_increase_with_accuracy(self):
        # strictly increasing above chance; floored to 0 at or below it
        acc = np.linspace(0.51, 0.99, 20)
        w = ow_weights(acc, 2)
        assert np.all(np.diff(w) > 0)
        assert np.all(ow_weights(np.array([0.1, 0.3, 0.5]), 2) == 0.0)

    def test_weight_matches_inverse_sigmoid_of_clamped_accuracy(self):
        acc = np.array([0.17, 0.5, 0.92])
        w = ow_weights(acc, 3, eps=1e-6)
        clamped = clamp_accuracies(acc, 3, eps=1e-6)
        expect = sigma_k_inverse(clamped, 3)
        expect[0] = 0.0  # floored agent
        np.testing.assert_allclose(w, expect, atol=1e-15)


class TestLabelSpace:
    def test_default_labels(self):
        assert LabelSpace.default(3).labels == ("A", "B", "C")
        space = LabelSpace.default(28)
        assert space.labels[:2] == ("A", "B")
        assert space.labels[26] == "A1"
        assert space.k == 28

    def test_index_lookup(self):
        space = LabelSpace(("yes", "no"))
        assert space.index("no") == 1
        with pytest.raises(DomainError):
            space.index("maybe")

    def test_validation(self):
        with pytest.raises(DomainError):
            LabelSpace(("only",))
        with pytest.raises(DomainError):
            LabelSpace(("A", "A"))
        with pytest.raises(DomainError):
            LabelSpace(("A", ""))
        with pytest.raises(DomainError):
            LabelSpace.default(1)


class TestPredictionMatrix:
    def test_basic_properties(self):
        pm = PredictionMatrix(LabelSpace.default(3), np.array([[0, 1], [2, 2]]))
        assert (pm.m, pm.n, pm.k) == (2, 2, 3)
        assert pm.truth is None

    def test_arrays_are_read_only(self):
        pm = PredictionMatrix(
            LabelSpace.default(2), np.array([[0, 1]]), np.array([1])
        )
        with pytest.raises(ValueError):
            pm.answers[0, 0] = 1
        with pytest.raises(ValueError):
            pm.truth[0] = 0

    @pytest.mark.parametrize("k, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_answers_stored_as_narrow_codes(self, k, dtype):
        answers = np.array([[0, k - 1], [k - 1, 1]], dtype=np.int64)
        pm = PredictionMatrix(LabelSpace.default(k), answers, np.array([0, k - 1]))
        assert pm.answers.dtype == dtype
        np.testing.assert_array_equal(pm.answers, answers)
        assert pm.truth.dtype == dtype

    def test_with_truth_and_select_agents(self):
        pm = PredictionMatrix(
            LabelSpace.default(2),
            np.array([[0, 1, 1], [1, 0, 1]]),
            np.array([0, 1]),
        )
        sub = pm.select_agents([2, 0])
        np.testing.assert_array_equal(sub.answers, [[1, 0], [1, 1]])
        np.testing.assert_array_equal(sub.truth, pm.truth)
        assert pm.with_truth(None).truth is None

    def test_validation(self):
        space = LabelSpace.default(2)
        with pytest.raises(DimensionError):
            PredictionMatrix(space, np.array([0, 1]))
        with pytest.raises(DimensionError):
            PredictionMatrix(space, np.zeros((0, 2), dtype=int))
        with pytest.raises(DomainError):
            PredictionMatrix(space, np.array([[0.5, 1.0]]))
        with pytest.raises(DomainError):
            PredictionMatrix(space, np.array([[0, 2]]))
        with pytest.raises(DimensionError):
            PredictionMatrix(space, np.array([[0, 1]]), np.array([0, 1]))
        with pytest.raises(DomainError):
            PredictionMatrix(space, np.array([[0, 1]]), np.array([2]))


class TestDeterministicRandomness:
    def test_uniform_block_reproducible(self):
        a = uniform_block(7, 100, 5)
        b = uniform_block(7, 100, 5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, uniform_block(8, 100, 5))

    def test_uniform_block_rows_are_prefix_stable(self):
        # extending the question count must not disturb earlier questions
        short = uniform_block(3, 50, 4)
        long = uniform_block(3, 200, 4)
        np.testing.assert_array_equal(long[:50], short)

    def test_uniform_block_validation(self):
        with pytest.raises(DimensionError):
            uniform_block(0, -1, 2)
        with pytest.raises(DimensionError):
            uniform_block(0, 10, 0)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seen = {derive_seed(0, a, b) for a in range(8) for b in range(8)}
        assert len(seen) == 64


class TestReadOnlyArrays:
    def test_callers_array_is_copied_not_frozen(self):
        answers = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        pm = PredictionMatrix(LabelSpace.default(2), answers)
        assert answers.flags.writeable and not pm.answers.flags.writeable
        answers[0, 0] = 1
        assert pm.answers[0, 0] == 0

    def test_frozen_callers_array_is_copied(self):
        # numpy lets the owner of a frozen array make it writable again, so
        # the public constructors copy even a frozen array
        answers = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        answers.flags.writeable = False
        pm = PredictionMatrix(LabelSpace.default(2), answers)
        perms = random_shuffle_map(3, 4, 0).perms
        smap = ShuffleMap(perms)
        assert pm.answers is not answers and smap.perms is not perms
        answers.flags.writeable = True
        answers[0, 0] = 1
        assert pm.answers[0, 0] == 0


class TestShuffle:
    def test_identity_map(self):
        smap = ShuffleMap.identity(4, 3)
        pm = PredictionMatrix(LabelSpace.default(3), np.array([[0, 1], [2, 0], [1, 1], [2, 2]]))
        np.testing.assert_array_equal(apply_shuffle_map(pm, smap).answers, pm.answers)

    def test_validation(self):
        with pytest.raises(DomainError):
            ShuffleMap(np.array([[0, 0], [1, 0]]))
        with pytest.raises(DomainError):
            ShuffleMap(np.array([[0.0, 1.0]]))
        with pytest.raises(DimensionError):
            ShuffleMap(np.array([0, 1]))

    def test_shape_mismatch_rejected(self):
        pm = PredictionMatrix(LabelSpace.default(2), np.array([[0, 1]]))
        with pytest.raises(DimensionError):
            apply_shuffle_map(pm, ShuffleMap.identity(2, 2))
        with pytest.raises(DimensionError):
            apply_shuffle_map(pm, ShuffleMap.identity(1, 3))

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        pm = PredictionMatrix(
            LabelSpace.default(k),
            rng.integers(0, k, size=(m, n)),
            rng.integers(0, k, size=m),
        )
        shuffled, smap = shuffle_apply(pm, seed)
        restored = shuffle_invert(shuffled, smap)
        np.testing.assert_array_equal(restored.answers, pm.answers)
        np.testing.assert_array_equal(restored.truth, pm.truth)
        # the vector path must agree with the matrix path
        np.testing.assert_array_equal(shuffle_invert(shuffled.truth, smap), pm.truth)

    def test_shuffle_preserves_agreement_pattern(self):
        # relabeling cannot change which agents agree on a question
        rng = np.random.default_rng(0)
        pm = PredictionMatrix(LabelSpace.default(4), rng.integers(0, 4, size=(40, 5)))
        shuffled, _ = shuffle_apply(pm, 123)
        before = pm.answers[:, :, None] == pm.answers[:, None, :]
        after = shuffled.answers[:, :, None] == shuffled.answers[:, None, :]
        np.testing.assert_array_equal(before, after)

    def test_random_shuffle_map_deterministic(self):
        a = random_shuffle_map(20, 4, 9)
        b = random_shuffle_map(20, 4, 9)
        np.testing.assert_array_equal(a.perms, b.perms)
        inv = a.inverse()
        rows = np.arange(20)[:, None]
        np.testing.assert_array_equal(
            inv.perms[rows, a.perms], np.tile(np.arange(4), (20, 1))
        )

    def test_map_is_the_argsort_of_uniform_block(self, monkeypatch):
        # drawn a few rows at a time, the map is still a function of (seed, question)
        monkeypatch.setattr(core, "_BLOCK_CELLS", 12)
        smap = random_shuffle_map(50, 5, 3)
        assert smap.perms.dtype == np.uint8 and not smap.perms.flags.writeable
        np.testing.assert_array_equal(smap.perms, np.argsort(uniform_block(3, 50, 5), axis=1))
        assert random_shuffle_map(3, 300, 0).perms.dtype == np.uint16

    def test_memory_is_a_few_narrow_maps(self):
        # the (M, K) map is held as narrow codes; inverting a label vector
        # compares each row with its label instead of inverting the map
        m, k = 50_000, 50
        rng = np.random.default_rng(0)
        pm = PredictionMatrix(LabelSpace.default(k), rng.integers(0, k, size=(m, 10)))
        labels = rng.integers(0, k, size=m)
        tracemalloc.start()
        try:
            _, smap = shuffle_apply(pm, 0)
            applied, apply_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            restored = shuffle_invert(labels, smap)
            inverted, invert_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # scratch: the map's validation, or one block of uniforms and their argsort
        assert apply_peak <= applied + 2 * m * k + 16 * core._BLOCK_CELLS, (apply_peak, applied)
        assert invert_peak <= inverted + m * k + 2**20, (invert_peak, inverted)
        np.testing.assert_array_equal(restored, smap.inverse().perms[np.arange(m), labels])

    def test_inverse_map_is_the_narrow_argsort(self, monkeypatch):
        # built a few rows at a time, in the map's own dtype
        monkeypatch.setattr(core, "_BLOCK_CELLS", 12)
        for m, k in ((50, 5), (7, 300)):
            smap = random_shuffle_map(m, k, 4)
            inv = smap.inverse()
            assert inv.perms.dtype == smap.perms.dtype and not inv.perms.flags.writeable
            np.testing.assert_array_equal(inv.perms, np.argsort(smap.perms, axis=1))

    def test_matrix_round_trip_in_blocks(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_CELLS", 12)
        rng = np.random.default_rng(3)
        answers, truth = rng.integers(0, 5, size=(41, 3)), rng.integers(0, 5, size=41)
        pm = PredictionMatrix(LabelSpace.default(5), answers, truth)
        shuffled, smap = shuffle_apply(pm, 8)
        rows = np.arange(41)
        np.testing.assert_array_equal(shuffled.answers, smap.perms[rows[:, None], pm.answers])
        np.testing.assert_array_equal(shuffled.truth, smap.perms[rows, pm.truth])
        back = shuffle_invert(shuffled, smap)
        np.testing.assert_array_equal(back.answers, pm.answers)
        np.testing.assert_array_equal(back.truth, pm.truth)

    def test_matrix_invert_memory_is_its_result_plus_a_block(self):
        # no whole-map argsort: the inverse is built and applied a block of rows at a time
        m, k = 50_000, 50
        rng = np.random.default_rng(0)
        pm = PredictionMatrix(LabelSpace.default(k), rng.integers(0, k, size=(m, 10)))
        shuffled, smap = shuffle_apply(pm, 0)
        tracemalloc.start()
        try:
            restored = shuffle_invert(shuffled, smap)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= retained + 8 * core._BLOCK_CELLS, (peak, retained)
        np.testing.assert_array_equal(restored.answers, pm.answers)

    def test_invert_validates_vector(self):
        _, smap = shuffle_apply(
            PredictionMatrix(LabelSpace.default(2), np.zeros((3, 2), dtype=int)), 0
        )
        with pytest.raises(DimensionError):
            shuffle_invert(np.array([0, 1]), smap)
        with pytest.raises(DomainError):
            shuffle_invert(np.array([0, 1, 2]), smap)
        with pytest.raises(DomainError):
            shuffle_invert(np.array([0.0, 1.0, 0.0]), smap)


# One bad input per shared check, and every public entry point that checks
# it: each must raise the same exception, with the same message.


def _mixture():
    from quorum.oracle import DifficultyMixture

    return DifficultyMixture.atoms([(1.0, 0.5), (3.0, 0.5)])


def _accuracy_entry_points():
    from quorum import aggregate as agg
    from quorum import estimate, oracle, secondorder

    pm = PredictionMatrix(LabelSpace.default(3), np.array([[0, 1], [2, 1]]))
    vectors = np.array([[0, 1]])
    return {
        "answer_vector_probs": lambda x: oracle.answer_vector_probs(vectors, 0, x, 3),
        "bayes_posterior": lambda x: oracle.bayes_posterior(vectors, x, 3),
        "exact_expected_advantage": lambda x: oracle.exact_expected_advantage("isp", x, 3),
        "expected_mv_advantage": lambda x: oracle.expected_mv_advantage(x, 3),
        "expected_advantage_gaps": lambda x: oracle.expected_advantage_gaps(x, 3),
        "expected_accuracy": lambda x: oracle.expected_accuracy("mv", x, 3),
        "exact_second_order": lambda x: secondorder.exact_second_order(x, 3),
        "dominance_threshold": lambda x: agg.dominance_threshold(x, 3, 0),
        "run_pipeline ow-oracle": lambda x: estimate.run_pipeline(pm, "ow-oracle", accuracies=x),
    }


def _label_count_entry_points():
    from quorum import aggregate as agg
    from quorum import oracle, secondorder, simulate

    answers, vectors, x, beta = np.array([0, 1]), np.array([[0, 1]]), [0.6, 0.7], [1.0, 2.0]
    return {
        "sigma_k": lambda k: sigma_k(0.0, k),
        "sigma_k_inverse": lambda k: sigma_k_inverse(0.5, k),
        "clamp_accuracies": lambda k: clamp_accuracies([0.6], k),
        "ow_weights": lambda k: ow_weights([0.6], k),
        "random_shuffle_map": lambda k: random_shuffle_map(3, k, 0),
        "exact_second_order": lambda k: secondorder.exact_second_order([0.6, 0.7], k),
        "CiSimSpec": lambda k: simulate.CiSimSpec((0.6, 0.7), k, 10),
        "DifficultySimSpec": lambda k: simulate.DifficultySimSpec((1.0, 2.0), _mixture(), k, 10),
        "vote_counts": lambda k: agg.vote_counts(answers, k),
        "aggregate_mv": lambda k: agg.aggregate_mv(answers, k),
        "score_batch": lambda k: agg.score_batch("mv", vectors, k),
        "aggregate_batch": lambda k: agg.aggregate_batch("mv", vectors, k),
        "dominance_threshold": lambda k: agg.dominance_threshold(x, k, 0),
        "enumerate_vectors": lambda k: oracle.enumerate_vectors(2, k),
        "answer_vector_probs": lambda k: oracle.answer_vector_probs(vectors, 0, x, k),
        "bayes_posterior": lambda k: oracle.bayes_posterior(vectors, x, k),
        "expected_mv_advantage": lambda k: oracle.expected_mv_advantage(x, k),
        "expected_advantage_gaps": lambda k: oracle.expected_advantage_gaps(x, k),
        "expected_accuracy": lambda k: oracle.expected_accuracy("mv", x, k),
        "exact_expected_advantage": lambda k: oracle.exact_expected_advantage("isp", x, k),
        "mixture_answer_vector_probs": lambda k: oracle.mixture_answer_vector_probs(vectors, 0, beta, _mixture(), k),
        "mixture_posterior": lambda k: oracle.mixture_posterior(vectors, beta, _mixture(), k),
        "mixture_expected_accuracy": lambda k: oracle.mixture_expected_accuracy("mv", beta, _mixture(), k),
        "mixture_expected_advantage": lambda k: oracle.mixture_expected_advantage("mv", beta, _mixture(), k),
    }


def _ability_entry_points():
    from quorum import estimate, oracle, simulate

    pm = PredictionMatrix(LabelSpace.default(3), np.array([[0, 1], [2, 1]]))
    vectors = np.array([[0, 1]])
    return {
        "mixture_answer_vector_probs": lambda b: oracle.mixture_answer_vector_probs(vectors, 0, b, _mixture(), 3),
        "mixture_posterior": lambda b: oracle.mixture_posterior(vectors, b, _mixture(), 3),
        "joint_correct_probability": lambda b: oracle.joint_correct_probability(b, _mixture(), 3),
        "mixture_second_order": lambda b: oracle.mixture_second_order(b, _mixture(), 3),
        "mixture_expected_advantage": lambda b: oracle.mixture_expected_advantage("sp", b, _mixture(), 3),
        "mixture_expected_accuracy": lambda b: oracle.mixture_expected_accuracy("posterior", b, _mixture(), 3),
        "run_pipeline eow": lambda b: estimate.run_pipeline(pm, "eow", abilities=b),
        "DifficultySimSpec": lambda b: simulate.DifficultySimSpec(tuple(b), _mixture(), 3, 10),
    }


def _answer_code_entry_points():
    from quorum import aggregate as agg
    from quorum import oracle

    space = LabelSpace.default(3)
    return {
        "PredictionMatrix": lambda a: PredictionMatrix(space, a[None, :]),
        "vote_counts": lambda a: agg.vote_counts(a, 3),
        "advantage_mv": lambda a: agg.advantage_mv(a, 3),
        "aggregate_weighted": lambda a: agg.aggregate_weighted(a, [1.0, 1.0], 3),
        "vote_counts_batch": lambda a: agg.vote_counts_batch(a[None, :], 3),
        "score_batch": lambda a: agg.score_batch("mv", a[None, :], 3),
        "aggregate_batch": lambda a: agg.aggregate_batch("mv", a[None, :], 3),
        "bayes_posterior": lambda a: oracle.bayes_posterior(a, [0.6, 0.7], 3),
        "mixture_posterior": lambda a: oracle.mixture_posterior(a, [1.0, 2.0], _mixture(), 3),
        "shuffle_invert": lambda a: shuffle_invert(a, ShuffleMap.identity(2, 3)),
    }


def _raises_alike(entry_points, bad, error, message):
    for name, call in entry_points.items():
        with pytest.raises(error) as info:
            call(bad)
        assert str(info.value) == message, name


class TestSharedChecks:
    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ([0.5, 1.2], DomainError, "accuracies must lie in [0, 1]"),
            ([0.5, float("nan")], DomainError, "accuracies must lie in [0, 1]"),
            ([[0.5, 0.6]], DimensionError, "accuracies must be a non-empty vector, got shape (1, 2)"),
        ],
        ids=["above-one", "nan", "matrix"],
    )
    def test_accuracies(self, bad, error, message):
        _raises_alike(_accuracy_entry_points(), bad, error, message)

    @pytest.mark.parametrize(
        "bad, message",
        [(1, "label count must be an integer >= 2, got 1"), (2.0, "label count must be an integer >= 2, got 2.0")],
        ids=["one", "float"],
    )
    def test_label_count(self, bad, message):
        _raises_alike(_label_count_entry_points(), bad, DomainError, message)

    @pytest.mark.parametrize("bad", [[1.0, -0.5], [1.0, float("inf")]], ids=["negative", "infinite"])
    def test_abilities(self, bad):
        _raises_alike(_ability_entry_points(), bad, DomainError, "abilities must be finite and nonnegative")

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([0, 3]), "answer indices must lie in [0, 3)"),
            (np.array([-1, 0]), "answer indices must lie in [0, 3)"),
            (np.array([0.0, 1.0]), "answers must be integer label indices, got dtype float64"),
        ],
        ids=["too-large", "negative", "float"],
    )
    def test_answer_codes(self, bad, message):
        _raises_alike(_answer_code_entry_points(), bad, DomainError, message)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([3]), "truth indices must lie in [0, 3)"),
            (np.array([1.0]), "truth must be integer label indices, got dtype float64"),
        ],
        ids=["too-large", "float"],
    )
    def test_truth_codes(self, bad, message):
        with pytest.raises(DomainError) as info:
            PredictionMatrix(LabelSpace.default(3), np.array([[0, 1]]), bad)
        assert str(info.value) == message
