"""Unit tests for aggregation rules: vote counts, peer-expected and
counterfactual scores, weighted votes, tie policies, and dominance."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quorum import aggregate as agg
from quorum import core, secondorder
from quorum.core import DimensionError, DomainError, LabelSpace, PredictionMatrix, ow_weights
from quorum.oracle import bayes_posterior, enumerate_vectors, expected_accuracy
from quorum.secondorder import empirical_second_order, exact_second_order


class TestVotesAndMajority:
    def test_vote_counts(self):
        np.testing.assert_array_equal(agg.vote_counts([0, 2, 2, 1, 2], 3), [1, 1, 3])

    def test_mv_advantage_centers_votes(self):
        adv = agg.advantage_mv([0, 0, 1, 2], 3).values
        np.testing.assert_allclose(adv, [2 - 4 / 3, 1 - 4 / 3, 1 - 4 / 3], atol=1e-12)
        assert adv.sum() == pytest.approx(0.0, abs=1e-12)

    def test_aggregate_mv(self):
        assert agg.aggregate_mv([1, 1, 0], 2) == 1
        assert agg.aggregate_mv([0, 1], 2, agg.TiePolicy(agg.TIE_LOWEST)) == 0

    def test_input_validation(self):
        with pytest.raises(DomainError):
            agg.vote_counts([0, 3], 3)
        with pytest.raises(DomainError):
            agg.vote_counts([0.5, 1.0], 2)
        with pytest.raises(DimensionError):
            agg.vote_counts([], 2)


class TestPeerScores:
    """Four agents, two always right and two at chance, binary labels."""

    def setup_method(self):
        self.so = exact_second_order(np.array([1.0, 1.0, 0.5, 0.5]), 2)

    def test_split_case_scores(self):
        split = np.array([0, 0, 1, 1])
        assert agg.sp_score(split, self.so, 0, 0) == pytest.approx(2 / 3, abs=1e-12)
        assert agg.isp_score(split, self.so, 0, 0) == pytest.approx(1 / 3, abs=1e-12)

    def test_split_case_advantages(self):
        split = np.array([0, 0, 1, 1])
        adv_sp = agg.advantage_sp(split, self.so).values
        adv_isp = agg.advantage_isp(split, self.so).values
        assert adv_sp[0] == pytest.approx(-1 / 3, abs=1e-12)
        assert adv_isp[0] == pytest.approx(1 / 3, abs=1e-12)
        # the peer-expected rule is fooled on the split; the counterfactual
        # rule recovers the true label
        label_sp, _ = agg.aggregate_sp(split, self.so, agg.TiePolicy(agg.TIE_LOWEST))
        label_isp, _ = agg.aggregate_isp(split, self.so, agg.TiePolicy(agg.TIE_LOWEST))
        assert label_sp == 1
        assert label_isp == 0

    def test_batch_matches_per_question(self):
        vectors = enumerate_vectors(4, 2)
        got_sp = agg.sp_advantage_batch(vectors, self.so, 2)
        got_isp = agg.isp_advantage_batch(vectors, self.so, 2)
        for row, vec in enumerate(vectors):
            np.testing.assert_allclose(
                got_sp[row], agg.advantage_sp(vec, self.so).values, atol=1e-12
            )
            np.testing.assert_allclose(
                got_isp[row], agg.advantage_isp(vec, self.so).values, atol=1e-12
            )

    def test_scores_answer_independent_totals(self):
        # votes minus advantage is the predicted-score total; for this
        # population it is the same for every answer vector
        for flips in itertools.product([0, 1], repeat=2):
            vec = np.array([0, 0, *flips])
            votes0 = float((vec == 0).sum())
            total_sp = votes0 - agg.advantage_sp(vec, self.so).values[0]
            total_isp = votes0 - agg.advantage_isp(vec, self.so).values[0]
            assert total_sp == pytest.approx(7 / 3, abs=1e-12)
            assert total_isp == pytest.approx(5 / 3, abs=1e-12)


class TestAdvantageInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_zero_sum_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, 6))
        x = rng.random(n)
        so = exact_second_order(x, k)
        vec = rng.integers(0, k, size=n)
        for adv in (
            agg.advantage_mv(vec, k).values,
            agg.advantage_sp(vec, so).values,
            agg.advantage_isp(vec, so).values,
        ):
            assert abs(adv.sum()) <= 1e-9
            assert np.max(np.abs(adv)) <= n + 1e-9

    def test_invariants_hold_for_empirical_matrices(self):
        rng = np.random.default_rng(11)
        pm = PredictionMatrix(LabelSpace.default(3), rng.integers(0, 3, size=(40, 5)))
        so = empirical_second_order(pm)
        sp = agg.sp_advantage_batch(pm, so)
        isp = agg.isp_advantage_batch(pm, so)
        np.testing.assert_allclose(sp.sum(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(isp.sum(axis=1), 0.0, atol=1e-9)
        assert np.max(np.abs(sp)) <= pm.n + 1e-9
        assert np.max(np.abs(isp)) <= pm.n + 1e-9


class TestWeightedVote:
    def test_matches_posterior_argmax(self):
        x = np.array([0.7, 0.55, 0.9])
        k = 3
        w = ow_weights(x, k)
        vectors = enumerate_vectors(3, k)
        scores = agg.weighted_scores_batch(vectors, w, k)
        for vec, sc in zip(vectors, scores):
            post = bayes_posterior(vec, x, k)
            assert set(agg.argmax_set(sc)) <= set(agg.argmax_set(post))

    def test_equal_weights_reduce_to_majority(self):
        vectors = enumerate_vectors(4, 3)
        sc = agg.weighted_scores_batch(vectors, np.full(4, 1.7), 3)
        counts = agg.vote_counts_batch(vectors, 3)
        for s, c in zip(sc, counts):
            assert set(agg.argmax_set(s)) == set(agg.argmax_set(c))

    @pytest.mark.parametrize("m,n,k", [(200, 7, 3), (50, 10, 50), (1, 1, 2)])
    def test_batch_scores_match_per_question_reference(self, m, n, k):
        rng = np.random.default_rng(m + n + k)
        answers = rng.integers(0, k, size=(m, n))
        w = rng.normal(size=n)
        counts = agg.vote_counts_batch(answers, k)
        scores = agg.weighted_scores_batch(answers, w, k)
        assert counts.dtype == np.float64 and counts.shape == (m, k)
        for q in range(m):
            np.testing.assert_array_equal(counts[q], agg.vote_counts(answers[q], k))
            np.testing.assert_allclose(
                scores[q], np.bincount(answers[q], weights=w, minlength=k), rtol=0, atol=1e-12
            )

    def test_aggregate_weighted(self):
        # the heavy agent outvotes two light ones
        label = agg.aggregate_weighted([0, 1, 1], np.array([3.0, 1.0, 1.0]), 2)
        assert label == 0
        with pytest.raises(DimensionError):
            agg.aggregate_weighted([0, 1, 1], np.ones(2), 2)

    @pytest.mark.parametrize("weights", [[np.nan, 1.0, 1.0], [np.inf, 1.0, -np.inf]])
    def test_non_finite_weights_rejected(self, weights):
        # a NaN or infinite total must not pass for a decision on any path
        with pytest.raises(DomainError, match="finite"):
            agg.score_batch("weighted", [[0, 1, 1], [1, 0, 0]], 2, weights=weights)
        with pytest.raises(DomainError, match="finite"):
            agg.aggregate_weighted([0, 1, 1], weights, 2)
        with pytest.raises(DomainError, match="finite"):
            expected_accuracy("weighted", [0.7, 0.6, 0.8], 2, weights=weights)


def _scored(rule, pm, weights):
    so = empirical_second_order(pm) if rule in agg.SECOND_ORDER_RULES else None
    return agg.score_batch(rule, pm.answers, pm.k, so=so, weights=weights)


_PANELS = (
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31),
)


class TestScoreBatch:
    """The one map from rule name to scores, and its metamorphic properties."""

    @given(*_PANELS)
    @settings(max_examples=30, deadline=None)
    def test_agent_permutation_invariance(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        pm = PredictionMatrix(LabelSpace.default(k), rng.integers(0, k, size=(m, n)))
        w = rng.normal(size=n)
        perm = rng.permutation(n)
        for rule in agg.RULES:
            np.testing.assert_allclose(
                _scored(rule, pm.select_agents(perm), w[perm]),
                _scored(rule, pm, w),
                rtol=0,
                atol=1e-12,
                err_msg=rule,
            )

    @given(*_PANELS)
    @settings(max_examples=30, deadline=None)
    def test_relabelling_equivariance(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        pm = PredictionMatrix(LabelSpace.default(k), rng.integers(0, k, size=(m, n)))
        w = rng.normal(size=n)
        relabel = rng.permutation(k)  # label a becomes relabel[a]
        moved = PredictionMatrix(pm.space, relabel[pm.answers])
        for rule in agg.RULES:
            np.testing.assert_allclose(
                _scored(rule, moved, w)[:, relabel],
                _scored(rule, pm, w),
                rtol=0,
                atol=1e-12,
                err_msg=rule,
            )

    @given(*_PANELS)
    @settings(max_examples=30, deadline=None)
    def test_duplicated_questions_keep_decisions(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        pm = PredictionMatrix(LabelSpace.default(k), rng.integers(0, k, size=(m, n)))
        twice = PredictionMatrix(pm.space, np.concatenate([pm.answers, pm.answers]))
        w = rng.normal(size=n)
        lowest = agg.TiePolicy(agg.TIE_LOWEST)
        for rule in ("weighted",) + agg.SECOND_ORDER_RULES:
            once = agg.decide_batch(_scored(rule, pm, w), lowest)
            both = agg.decide_batch(_scored(rule, twice, w), lowest)
            np.testing.assert_array_equal(both, np.concatenate([once, once]), err_msg=rule)

    def test_rule_inputs_checked(self):
        answers = np.array([[0, 1, 1], [2, 2, 0]])
        so = exact_second_order(np.array([0.6, 0.7, 0.8]), 3)
        with pytest.raises(DomainError, match="unknown rule"):
            agg.score_batch("median", answers, 3, so=so, weights=np.ones(3))
        with pytest.raises(DomainError, match="weights"):
            agg.score_batch("weighted", answers, 3, so=so)
        for rule in agg.SECOND_ORDER_RULES:
            with pytest.raises(DomainError, match="second-order"):
                agg.score_batch(rule, answers, 3, weights=np.ones(3))
        with pytest.raises(DimensionError):
            agg.score_batch("weighted", answers, 3, weights=np.ones(2))
        with pytest.raises(DomainError):
            agg.score_batch("mv", answers + 1, 3)

    def test_rules_match_their_leaves(self):
        rng = np.random.default_rng(2)
        answers = rng.integers(0, 4, size=(60, 5))
        so = exact_second_order(rng.random(5), 4)
        w = rng.normal(size=5)
        np.testing.assert_array_equal(
            agg.score_batch("mv", answers, 4), agg.vote_counts_batch(answers, 4)
        )
        np.testing.assert_array_equal(
            agg.score_batch("weighted", answers, 4, weights=w),
            agg.weighted_scores_batch(answers, w, 4),
        )
        np.testing.assert_array_equal(
            agg.score_batch("sp", answers, 4, so=so), agg.sp_advantage_batch(answers, so, 4)
        )
        np.testing.assert_array_equal(
            agg.score_batch("isp", answers, 4, so=so), agg.isp_advantage_batch(answers, so, 4)
        )


class TestAggregateBatch:
    """``aggregate_batch`` decides row blocks; it must equal one-shot scoring."""

    @pytest.mark.parametrize("rows", range(1, 8))
    @pytest.mark.parametrize("mode", [agg.TIE_UNIFORM, agg.TIE_LOWEST])
    def test_matches_one_shot_at_forced_block_sizes(self, rows, mode, monkeypatch):
        rng = np.random.default_rng(rows)
        m, n, k = 23, 5, 3
        pm = PredictionMatrix(LabelSpace.default(k), rng.integers(0, k, size=(m, n)))
        so = empirical_second_order(pm)
        w = rng.integers(1, 3, size=n).astype(float)  # whole weights: ties happen
        tie = agg.TiePolicy(mode, seed=11)
        expected = {
            rule: agg.decide_batch(
                agg.score_batch(rule, pm.answers, k, so=so, weights=w), tie, return_ties=True
            )
            for rule in agg.RULES
        }
        calls = []
        score_batch = agg.score_batch

        def counted(*args, **kwargs):
            calls.append(1)
            return score_batch(*args, **kwargs)

        monkeypatch.setattr(agg, "score_batch", counted)
        for rule in agg.RULES:
            monkeypatch.setattr(core, "_BLOCK_CELLS", rows * agg._score_cells(rule, n, k)[0])
            calls.clear()
            labels, ties = agg.aggregate_batch(rule, pm.answers, k, tie, so=so, weights=w)
            assert len(calls) == -(-m // rows), rule
            np.testing.assert_array_equal(labels, expected[rule][0], err_msg=rule)
            assert ties == expected[rule][1], rule
        assert expected["mv"][1] > 0

    def test_tie_draws_keyed_by_global_question_index(self):
        scores = np.ones((40, 3))
        pol = agg.TiePolicy(agg.TIE_UNIFORM, seed=5)
        full = agg.decide_batch(scores, pol)
        np.testing.assert_array_equal(agg.decide_batch(scores[17:], pol, 17), full[17:])

    def test_rule_inputs_checked(self):
        answers = np.array([[0, 1, 1], [2, 2, 0]])
        with pytest.raises(DomainError, match="unknown rule"):
            agg.aggregate_batch("median", answers, 3)
        with pytest.raises(DomainError, match="second-order"):
            agg.aggregate_batch("isp", answers, 3)
        with pytest.raises(DimensionError):
            agg.aggregate_batch("isp", answers, 3, so=exact_second_order(np.full(4, 0.7), 3))

    @pytest.mark.parametrize("k", [3, 50])
    def test_row_gather_is_bit_identical_to_slab_formula(self, k):
        # the slab gather it replaces, label-major: totals[s, q] = sum_j tables[j, answers[q, j], s]
        rng = np.random.default_rng(k)
        pm = PredictionMatrix(LabelSpace.default(k), rng.integers(0, k, size=(500, 6)))
        so = empirical_second_order(pm)
        for rule in agg.SECOND_ORDER_RULES:
            tables = so.peer_tables(rule)
            slab = np.zeros((k, pm.m))
            for j, table in enumerate(tables.transpose(0, 2, 1)):  # (K_score, K_answer)
                slab += table[:, pm.answers[:, j]]
            totals = agg._gather_totals(tables, pm.answers)
            assert totals.flags.c_contiguous, rule
            assert np.array_equal(totals, slab), rule


class TestPeerTables:
    """Each second-order matrix builds a peer rule's tables once, on first use, and keeps them."""

    @staticmethod
    def _spy(monkeypatch):
        """Lists that record each peer-table build and each ``score_batch`` call from here on."""

        builds, calls = [], []
        freeze, score = secondorder._freeze, agg.score_batch

        def counting_freeze(obj, **fields):
            builds.extend(name for name in fields if name.endswith("_tables"))
            return freeze(obj, **fields)

        def counting_score(rule, *args, **kwargs):
            calls.append(rule)
            return score(rule, *args, **kwargs)

        monkeypatch.setattr(secondorder, "_freeze", counting_freeze)
        monkeypatch.setattr(agg, "score_batch", counting_score)
        return builds, calls

    def test_kept_read_only_with_the_matrix(self):
        so = exact_second_order([0.9, 0.7, 0.6, 0.55], 3)
        for rule in agg.SECOND_ORDER_RULES:
            tables = so.peer_tables(rule)
            assert tables.shape == (4, 3, 3) and not tables.flags.writeable
            assert so.peer_tables(rule) is tables
        with pytest.raises(DomainError, match="no peer tables"):
            so.peer_tables("mv")

    def test_built_once_across_the_blocks_of_aggregate_batch(self, monkeypatch):
        rng = np.random.default_rng(5)
        pm = PredictionMatrix(LabelSpace.default(3), rng.integers(0, 3, size=(5_000, 6)))
        so = empirical_second_order(pm)
        builds, calls = self._spy(monkeypatch)
        monkeypatch.setattr(core, "_BLOCK_CELLS", 2**12)
        for rule in agg.SECOND_ORDER_RULES * 2:
            agg.aggregate_batch(rule, pm.answers, pm.k, so=so)
        assert builds == ["_sp_tables", "_isp_tables"]
        assert len(calls) >= 4 * 20, len(calls)  # twenty blocks or more each time

    def test_built_once_across_the_chunks_of_an_exact_expectation(self, monkeypatch):
        builds, calls = self._spy(monkeypatch)
        monkeypatch.setattr(core, "_BLOCK_CELLS", 2**12)
        expected_accuracy("isp", np.linspace(0.4, 0.9, 8), 3)
        assert builds == ["_isp_tables"]  # the one matrix the call builds
        assert len(calls) >= 10, len(calls)  # ten chunks or more


class TestKernelDifferential:
    """The blocked, label-major kernels against one-shot scoring and the per-question rules."""

    @staticmethod
    def _reference_scores(rule, row, k, so, weights, labels):
        """One question's scores at ``labels``, from the per-question definitions."""

        if rule == "mv":
            return agg.vote_counts(row, k)[labels]
        if rule == "weighted":
            totals = np.zeros(k)
            for j, a in enumerate(row):
                totals[a] += weights[j]  # in agent order, as the kernels add
            return totals[labels]
        score = agg.sp_score if rule == "sp" else agg.isp_score
        counts = agg.vote_counts(row, k)
        # the advantage is the vote count less the peers' expected count, summed over agents
        return np.array([counts[s] - sum(score(row, so, i, s) for i in range(len(row))) for s in labels])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_blocks_match_one_shot_scoring_and_per_question_references(self, data):
        k = data.draw(st.sampled_from([2, 3, 4, 10, 50, 300]), label="k")  # 300: uint16 codes
        n = data.draw(st.integers(2, 5), label="n")
        m = data.draw(st.integers(1, 12), label="m")
        rows = data.draw(st.integers(1, 5), label="rows per block")
        mode = data.draw(st.sampled_from([agg.TIE_UNIFORM, agg.TIE_LOWEST]), label="tie mode")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        used = rng.choice(k, size=min(k, 3), replace=False)  # few labels in use: ties, and high codes
        pm = PredictionMatrix(LabelSpace.default(k), used[rng.integers(0, used.size, size=(m, n))])
        so = empirical_second_order(pm)
        w = rng.integers(1, 4, size=n).astype(float)  # whole weights: ties happen
        tie = agg.TiePolicy(mode, seed=int(rng.integers(1000)))
        for rule in agg.RULES:
            scores = agg.score_batch(rule, pm.answers, k, so=so, weights=w)
            expected = agg.decide_batch(scores, tie, return_ties=True)
            with mock.patch.object(core, "_BLOCK_CELLS", rows * agg._score_cells(rule, n, k)[0]):  # blocks of `rows`
                labels, ties = agg.aggregate_batch(rule, pm.answers, k, tie, so=so, weights=w)
                np.testing.assert_array_equal(
                    agg.score_batch(rule, pm.answers, k, so=so, weights=w), scores, err_msg=rule
                )
            np.testing.assert_array_equal(labels, expected[0], err_msg=rule)
            assert ties == expected[1], rule
            for q in range(m):
                assert labels[q] == tie.pick(scores[q], q), (rule, q)
                at = np.unique(np.r_[used, labels[q], rng.integers(0, k, size=2)])
                ref = self._reference_scores(rule, pm.answers[q], k, so, w, at)
                if rule in agg.SECOND_ORDER_RULES:  # summed in another order
                    np.testing.assert_allclose(scores[q, at], ref, rtol=1e-12, atol=1e-12, err_msg=rule)
                else:
                    np.testing.assert_array_equal(scores[q, at], ref, err_msg=rule)


class TestTiePolicies:
    def test_argmax_set_tolerance(self):
        np.testing.assert_array_equal(agg.argmax_set(np.array([1.0, 1.0 - 1e-13, 0.5])), [0, 1])
        np.testing.assert_array_equal(agg.argmax_set(np.array([1.0, 0.9, 0.5])), [0])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_tied_mask_rows_match_argmax_set(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(-3, 4, size=(40, 5)).astype(float)
        scores *= 10.0 ** rng.integers(-3, 4)
        scores += rng.choice([0.0, 1e-14, 1e-6], size=scores.shape)  # inside, near and past the tolerance
        mask = agg.tied_mask(scores)
        for row, tied in zip(scores, mask):
            np.testing.assert_array_equal(np.flatnonzero(tied), agg.argmax_set(row))
        # the tolerance is relative to |top|, also when every score is negative
        np.testing.assert_array_equal(
            agg.tied_mask(np.array([[-1e3, -1e3 - 1e-7, -1e3 - 1e-5]])), [[True, True, False]]
        )

    def test_lowest_index_is_deterministic(self):
        pol = agg.TiePolicy(agg.TIE_LOWEST)
        assert pol.pick(np.array([2.0, 2.0, 1.0])) == 0

    def test_uniform_is_reproducible_per_question(self):
        pol = agg.TiePolicy(agg.TIE_UNIFORM, seed=4)
        picks = [pol.pick(np.array([1.0, 1.0]), question_index=q) for q in range(50)]
        again = [pol.pick(np.array([1.0, 1.0]), question_index=q) for q in range(50)]
        assert picks == again
        assert set(picks) == {0, 1}

    def test_uniform_is_roughly_balanced(self):
        pol = agg.TiePolicy(agg.TIE_UNIFORM, seed=0)
        picks = np.array([pol.pick(np.array([3.0, 3.0]), q) for q in range(600)])
        assert 240 <= int((picks == 0).sum()) <= 360

    def test_decide_batch_matches_per_row(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 3, size=(80, 4)).astype(float)
        pol = agg.TiePolicy(agg.TIE_UNIFORM, seed=9)
        batch = agg.decide_batch(scores, pol)
        single = [pol.pick(scores[q], question_index=q) for q in range(80)]
        np.testing.assert_array_equal(batch, single)

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**64 - 1])
    def test_one_question_draw_equals_the_array_path(self, seed):
        # one question takes Python ints; two take the uint64 array path
        for q in (0, 1, 2**32, 2**63 - 1):
            for count in (2, 3, 50, 255):
                (expected, _) = agg._tie_draw(seed, [q, q], [count, count]).tolist()
                for single in (
                    agg._tie_draw(seed, q, count),
                    agg._tie_draw(seed, np.array([q]), np.array([count], dtype=np.uint8)),
                ):
                    assert single.dtype == np.int64 and single.tolist() == [expected], (q, count)

    def test_tie_draw_is_a_pure_function_of_seed_and_question(self):
        questions = np.arange(1000)
        draws = agg._tie_draw(7, questions, 4)
        order = np.random.default_rng(0).permutation(questions)
        np.testing.assert_array_equal(agg._tie_draw(7, order, 4), draws[order])
        np.testing.assert_array_equal(agg._tie_draw(7, questions[:10], 4), draws[:10])
        assert [int(agg._tie_draw(7, q, 4)[0]) for q in range(20)] == draws[:20].tolist()
        assert not np.array_equal(agg._tie_draw(8, questions, 4), draws)
        # a question's pick does not depend on how many questions the batch holds
        pol = agg.TiePolicy(agg.TIE_UNIFORM, seed=7)
        full = agg.decide_batch(np.ones((1000, 4)), pol)
        np.testing.assert_array_equal(agg.decide_batch(np.ones((37, 4)), pol), full[:37])

    @pytest.mark.parametrize("ways", [2, 3, 4])
    def test_uniform_picks_each_tied_label_equally_often(self, ways):
        m, p = 3000, 1.0 / ways
        scores = np.zeros((m, 2 * ways))
        scores[:, 1::2] = 1.0  # the tied labels are the odd ones
        picks = agg.decide_batch(scores, agg.TiePolicy(agg.TIE_UNIFORM, seed=3))
        counts = np.bincount(picks, minlength=2 * ways)
        assert counts[0::2].sum() == 0
        assert np.all(np.abs(counts[1::2] - m * p) <= 4 * np.sqrt(m * p * (1 - p)))

    # at K = 256 the rank step's "none tied" sentinel, K, needs uint16 while the labels are uint8
    @pytest.mark.parametrize("k", [3, 256])
    def test_a_row_whose_top_is_not_finite_gets_a_label_in_range(self, k):
        scores = np.full((3, k), -1.0)
        scores[:, :3] = [[np.nan, 1.0, 0.0], [1.0, np.inf, 0.0], [0.0, 2.0, 2.0]]
        for mode in (agg.TIE_UNIFORM, agg.TIE_LOWEST):
            pol = agg.TiePolicy(mode, seed=1)
            with np.errstate(invalid="ignore"):  # the tolerance of an inf top is inf - inf
                labels = agg.decide_batch(scores, pol)
                picks = [pol.pick(row, q) for q, row in enumerate(scores)]
                many = agg.decide_batch(np.tile(scores, (40, 1)), pol)  # past argmax's few rows
            assert labels[:2].tolist() == [0, 0], mode  # no score is tied with a NaN or inf top
            assert picks == labels.tolist(), mode
            assert many[:2].tolist() == [0, 0] and many[-3:-1].tolist() == [0, 0], mode
            assert labels.dtype == many.dtype == np.min_scalar_type(k - 1), mode

    def test_lowest_index_batch_picks_the_first_tied_label(self):
        scores = np.random.default_rng(2).integers(0, 3, size=(200, 4)).astype(float)
        batch = agg.decide_batch(scores, agg.TiePolicy(agg.TIE_LOWEST))
        np.testing.assert_array_equal(batch, [agg.argmax_set(row)[0] for row in scores])

    def test_bad_mode_rejected(self):
        with pytest.raises(DomainError):
            agg.TiePolicy("coin_flip")


class TestDominanceThreshold:
    def test_fixture(self):
        thr = agg.dominance_threshold(np.array([0.95, 0.8, 0.8]), 2, 0)
        assert thr == pytest.approx(16 / 17, abs=1e-9)

    def test_stronger_peers_raise_the_bar(self):
        weak = agg.dominance_threshold(np.array([0.9, 0.6, 0.6]), 2, 0)
        strong = agg.dominance_threshold(np.array([0.9, 0.8, 0.8]), 2, 0)
        assert strong > weak

    def test_target_validation(self):
        with pytest.raises(DimensionError):
            agg.dominance_threshold(np.array([0.9, 0.8]), 2, 2)
