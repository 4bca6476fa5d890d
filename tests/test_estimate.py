"""Unit tests for label-free accuracy estimation: the least-squares fit
to second-order statistics, the pseudo-label estimator, and the pipeline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quorum import aggregate as agg
from quorum import estimate
from quorum.aggregate import TIE_LOWEST, TiePolicy
from quorum.core import DimensionError, DomainError, LabelSpace, PredictionMatrix, ow_weights, sigma_k_inverse
from quorum.estimate import (
    METHODS,
    ErmConfig,
    FitResult,
    erm_gradient,
    erm_loss,
    fit_accuracies,
    fit_ow_i,
    fit_ow_l,
    run_pipeline,
)
from quorum.secondorder import (
    cross_label_prob,
    empirical_second_order,
    exact_second_order,
    same_label_prob,
)
from quorum.simulate import CiSimSpec, simulate_ci

X_TRUE = np.array([0.6, 0.7, 0.8, 0.9])


class TestErmLoss:
    def test_zero_at_generating_accuracies(self):
        so = exact_second_order(X_TRUE, 4)
        assert abs(erm_loss(X_TRUE, so)) <= 1e-12

    def test_positive_away_from_truth(self):
        so = exact_second_order(X_TRUE, 4)
        assert erm_loss(np.array([0.7, 0.7, 0.7, 0.7]), so) > 1e-4

    def test_matches_direct_residual_sum(self):
        # independent reimplementation from the definition, as a cross-check
        x_gen = np.array([0.55, 0.8, 0.7])
        k = 3
        so = exact_second_order(x_gen, k)
        x = np.array([0.6, 0.75, 0.66])
        from quorum.secondorder import cross_label_prob, same_label_prob

        direct = 0.0
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                for a in range(k):
                    for b in range(k):
                        pred = (
                            same_label_prob(x[i], x[j], k)
                            if a == b
                            else cross_label_prob(x[i], x[j], k)
                        )
                        direct += (so.probs[i, j, a, b] - pred) ** 2
        assert erm_loss(x, so) == pytest.approx(direct, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(2, 6))
            so = exact_second_order(1.0 / k + (1.0 - 1.0 / k) * rng.random(n), k)
            x = 1.0 / k + 0.01 + (0.98 - 1.0 / k) * rng.random(n)
            grad = erm_gradient(x, so)
            h = 1e-6
            for c in range(n):
                e = np.zeros(n)
                e[c] = h
                fd = (erm_loss(x + e, so) - erm_loss(x - e, so)) / (2 * h)
                assert grad[c] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        so = exact_second_order(X_TRUE, 4)
        with pytest.raises(DimensionError):
            erm_loss(np.array([0.5, 0.5]), so)


class _PairwiseErm:
    """The per-pair objective the factorised kernel replaced, kept as its
    slow reference: O(N^2) elementwise work per evaluation."""

    def __init__(self, so):
        self.n = so.n
        self.k = so.k
        k = self.k
        diag = so.probs[:, :, np.arange(k), np.arange(k)]  # (N, N, K)
        self.same_sum = diag.sum(axis=2)
        self.same_sq = (diag**2).sum(axis=2)
        total_sum = so.probs.sum(axis=(2, 3))
        total_sq = (so.probs**2).sum(axis=(2, 3))
        self.cross_sum = total_sum - self.same_sum
        self.cross_sq = total_sq - self.same_sq
        self.offdiag = ~np.eye(self.n, dtype=bool)

    def _loss_terms(self, x):
        k = self.k
        s = same_label_prob(x[:, None], x[None, :], k)
        c = cross_label_prob(x[:, None], x[None, :], k)
        per_pair = (
            k * s**2
            - 2 * s * self.same_sum
            + self.same_sq
            + k * (k - 1) * c**2
            - 2 * c * self.cross_sum
            + self.cross_sq
        )
        return float(per_pair[self.offdiag].sum()), s, c

    def loss_grad(self, x):
        k = self.k
        loss, s, c = self._loss_terms(x)
        a = k * s - self.same_sum
        b = k * (k - 1) * c - self.cross_sum
        a = np.where(self.offdiag, a, 0.0)
        b = np.where(self.offdiag, b, 0.0)
        ds = x - (1 - x) / (k - 1)
        dc = (1 - 2 * x) / (k - 1) - (k - 2) * (1 - x) / (k - 1) ** 2
        grad = 2 * (a @ ds + b @ dc + a.T @ ds + b.T @ dc)
        return loss, grad

    # the interface the projected-gradient loop calls
    def evaluate(self, x):
        return self._loss_terms(x)[0], x

    def gradient(self, x):
        return self.loss_grad(x)[1]


def _differential_cases():
    rng = np.random.default_rng(20)
    for n in (2, 3, 7, 40):
        for k in (2, 3, 5, 50):
            x_gen = 1.0 / k + (1.0 - 1.0 / k) * rng.random(n)
            # 60 questions leave answer labels unseen at K=50, so cells are imputed
            pm = simulate_ci(CiSimSpec(tuple(x_gen), k, 60, int(rng.integers(1 << 30))))
            sos = [exact_second_order(x_gen, k), empirical_second_order(pm), empirical_second_order(pm, 0.5)]
            for so in sos:
                for x in (x_gen, 1.0 / k + (1.0 - 1.0 / k) * rng.random(n)):
                    yield so, x


class TestFactorisedKernel:
    """The rank-2 kernel against the per-pair objective it replaced."""

    def test_cases_include_imputed_cells(self):
        assert any(so.imputed.any() for so, _ in _differential_cases())

    def test_loss_and_gradient_match_the_pairwise_reference(self):
        for so, x in _differential_cases():
            loss, grad = _PairwiseErm(so).loss_grad(x)
            # the factorised loss adds three sums as large as the targets' sum of
            # squares; near a zero loss their rounding is the error that remains
            atol = 1e-13 * float(np.sum(so.probs**2))
            assert erm_loss(x, so) == pytest.approx(loss, rel=1e-10, abs=atol), (so.n, so.k, so.source)
            got = erm_gradient(x, so)
            scale = max(np.max(np.abs(grad)), 1.0)
            assert np.max(np.abs(got - grad)) <= 1e-9 * scale, (so.n, so.k, so.source)

    def test_fit_matches_the_fit_on_the_pairwise_reference(self, monkeypatch):
        x_gen = np.linspace(0.4, 0.9, 30)
        so = empirical_second_order(simulate_ci(CiSimSpec(tuple(x_gen), 3, 5000, 4)))
        fast = fit_accuracies(so)
        monkeypatch.setattr(estimate, "_ErmData", _PairwiseErm)
        slow = fit_accuracies(so)
        np.testing.assert_allclose(fast.accuracies, slow.accuracies, rtol=0, atol=1e-7)
        assert fast.converged == slow.converged
        assert fast.starts_agreeing == slow.starts_agreeing
        assert fast.loss == pytest.approx(slow.loss, rel=1e-10)


class TestErmConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ErmConfig(starts=0)
        with pytest.raises(DomainError):
            ErmConfig(max_iters=0)
        with pytest.raises(DomainError):
            ErmConfig(eps=0.6)


class TestFitAccuracies:
    def test_exact_matrix_recovery(self):
        so = exact_second_order(X_TRUE, 4)
        fit = fit_accuracies(so, ErmConfig(starts=4, seed=0))
        np.testing.assert_allclose(fit.accuracies, X_TRUE, atol=1e-6)
        assert fit.converged
        assert fit.loss <= 1e-10
        assert fit.method == "ow-l"
        assert fit.starts_agreeing >= 2

    def test_seed_changes_restarts_not_answer(self):
        # needs N >= 3: with two agents a single agreement equation
        # leaves a solution manifold and restarts legitimately differ
        so = exact_second_order(np.array([0.6, 0.75, 0.85]), 2)
        a = fit_accuracies(so, ErmConfig(starts=4, seed=0))
        b = fit_accuracies(so, ErmConfig(starts=4, seed=99))
        np.testing.assert_allclose(a.accuracies, b.accuracies, atol=1e-6)
        np.testing.assert_allclose(a.accuracies, [0.6, 0.75, 0.85], atol=1e-6)

    def test_finite_sample_recovery(self):
        pm = simulate_ci(CiSimSpec(tuple(X_TRUE), 4, 20_000, 12))
        fit = fit_ow_l(pm, ErmConfig(starts=4, seed=0))
        np.testing.assert_allclose(fit.accuracies, X_TRUE, atol=0.05)

    def test_to_dict_round_trips_scalars(self):
        so = exact_second_order(np.array([0.6, 0.85]), 2)
        doc = fit_accuracies(so, ErmConfig(starts=2, seed=0)).to_dict()
        assert set(doc) >= {"accuracies", "weights", "method", "loss", "converged"}
        assert isinstance(doc["accuracies"], list)


class TestFitOwI:
    def test_close_to_truth_on_simulated_data(self):
        pm = simulate_ci(CiSimSpec(tuple(X_TRUE), 4, 20_000, 13))
        fit = fit_ow_i(pm)
        np.testing.assert_allclose(fit.accuracies, X_TRUE, atol=0.05)
        assert fit.method == "ow-i"

    def test_deterministic(self):
        pm = simulate_ci(CiSimSpec((0.6, 0.7, 0.8), 3, 500, 14))
        a = fit_ow_i(pm)
        b = fit_ow_i(pm)
        np.testing.assert_array_equal(a.accuracies, b.accuracies)

    def test_needs_two_agents(self):
        pm = PredictionMatrix(LabelSpace.default(2), np.array([[0], [1]]))
        with pytest.raises(DimensionError):
            fit_ow_i(pm)


class TestRunPipeline:
    def setup_method(self):
        self.pm = simulate_ci(CiSimSpec(tuple(X_TRUE), 4, 3000, 15))

    def test_every_method_produces_valid_labels(self):
        for method in METHODS:
            res = run_pipeline(
                self.pm,
                method,
                erm=ErmConfig(starts=2, seed=0),
                accuracies=X_TRUE if method == "ow-oracle" else None,
                abilities=np.array([1.0, 1.5, 2.0, 2.5]) if method == "eow" else None,
            )
            assert res.labels.shape == (self.pm.m,)
            assert res.labels.min() >= 0 and res.labels.max() < 4
            assert res.method == method

    def test_method_name_normalization(self):
        a = run_pipeline(self.pm, "OW_I")
        b = run_pipeline(self.pm, "ow-i")
        np.testing.assert_array_equal(a.labels, b.labels)
        with pytest.raises(DomainError):
            run_pipeline(self.pm, "magic")

    def test_truth_is_never_consulted(self):
        scrambled = self.pm.with_truth((self.pm.truth + 1) % 4)
        for method in ("mv", "isp", "ow-l", "ow-i"):
            a = run_pipeline(self.pm, method, erm=ErmConfig(starts=2, seed=0))
            b = run_pipeline(scrambled, method, erm=ErmConfig(starts=2, seed=0))
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_fit_attached_only_for_weighted_methods(self):
        assert run_pipeline(self.pm, "mv").fit is None
        assert run_pipeline(self.pm, "isp").fit is None
        assert run_pipeline(self.pm, "ow-i").fit is not None
        res = run_pipeline(self.pm, "ow-oracle", accuracies=X_TRUE)
        assert isinstance(res.fit, FitResult)
        np.testing.assert_allclose(res.fit.weights, ow_weights(X_TRUE, 4), atol=1e-12)

    @pytest.mark.parametrize("method", ["ow-l", "ow-i", "ow-oracle"])
    def test_every_weighted_method_clamps_with_the_configs_eps(self, method):
        # eps has one home, ErmConfig: [1/K + 0.2, 0.8] clamps the best agent's 0.9 to 0.8
        fit = run_pipeline(self.pm, method, erm=ErmConfig(starts=2, eps=0.2), accuracies=X_TRUE).fit
        np.testing.assert_array_equal(fit.weights, ow_weights(fit.accuracies, 4, 0.2))
        assert fit.weights.max() == pytest.approx(sigma_k_inverse(0.8, 4))
        with pytest.raises(TypeError):
            run_pipeline(self.pm, method, accuracies=X_TRUE, eps=0.2)

    def test_oracle_and_eow_require_parameters(self):
        with pytest.raises(DomainError):
            run_pipeline(self.pm, "ow-oracle")
        with pytest.raises(DomainError):
            run_pipeline(self.pm, "eow")
        with pytest.raises(DimensionError):
            run_pipeline(self.pm, "ow-oracle", accuracies=np.array([0.9, 0.8]))
        with pytest.raises(DomainError):
            run_pipeline(self.pm, "eow", abilities=np.array([1.0, -1.0, 1.0, 1.0]))

    def test_eow_fit_reports_no_accuracies(self):
        res = run_pipeline(self.pm, "eow", abilities=np.array([1.0, 1.5, 2.0, 2.5]))
        assert np.isnan(res.fit.accuracies).all()
        np.testing.assert_array_equal(res.fit.weights, [1.0, 1.5, 2.0, 2.5])

    def test_better_weights_do_not_hurt(self):
        truth = self.pm.truth
        acc = {
            m: float((run_pipeline(self.pm, m, erm=ErmConfig(starts=2, seed=0),
                                   accuracies=X_TRUE if m == "ow-oracle" else None).labels == truth).mean())
            for m in ("mv", "isp", "ow-l", "ow-oracle")
        }
        assert acc["ow-oracle"] >= acc["mv"] - 0.01
        assert acc["isp"] >= acc["mv"] - 0.01


def _pipeline_args(method, n):
    x = np.linspace(0.5, 0.9, n)
    return dict(
        erm=ErmConfig(starts=2, seed=0),
        accuracies=x if method == "ow-oracle" else None,
        abilities=2 * x if method == "eow" else None,
    )


class TestBlockedPipeline:
    """The pipeline decides row blocks of narrow answer codes."""

    @pytest.mark.parametrize("k", [4, 50])  # K=50 counts pairs on the bincount path
    def test_narrow_and_wide_codes_give_identical_labels(self, k):
        pm = simulate_ci(CiSimSpec(tuple(np.linspace(0.3, 0.75, 6)), k, 2000, 3))
        assert pm.answers.dtype == np.uint8
        wide = PredictionMatrix(pm.space, pm.answers)
        object.__setattr__(wide, "answers", pm.answers.astype(np.int64))  # the old storage
        for method in METHODS:
            narrow_res = run_pipeline(pm, method, **_pipeline_args(method, pm.n))
            wide_res = run_pipeline(wide, method, **_pipeline_args(method, pm.n))
            np.testing.assert_array_equal(narrow_res.labels, wide_res.labels, err_msg=method)
            assert narrow_res.ties_broken == wide_res.ties_broken, method

    def test_ties_broken_counts_tied_questions(self):
        # two agents over three labels: the two split questions are ties under mv
        answers = np.array([[0, 0], [0, 1], [2, 1], [1, 1], [2, 2], [0, 0]])
        pm = PredictionMatrix(LabelSpace.default(3), answers)
        assert run_pipeline(pm, "mv").ties_broken == 2
        assert run_pipeline(pm, "eow", abilities=[1.0, 1.0]).ties_broken == 2
        assert run_pipeline(pm, "eow", abilities=[1.0, 2.0]).ties_broken == 0

    @pytest.mark.parametrize("method", ["isp", "ow-i"])
    def test_peak_memory_below_one_score_matrix(self, method):
        m, n, k = 20_000, 10, 50
        pm = simulate_ci(CiSimSpec(tuple(np.linspace(0.3, 0.75, n)), k, m, 0))
        tracemalloc.start()
        try:
            run_pipeline(pm, method)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * k * 8, peak


def _reference_scores(result, pm):
    """The (M, K) scores ``run_pipeline`` decided ``result`` from."""

    if result.fit is not None:
        return agg.score_batch("weighted", pm.answers, pm.k, weights=result.fit.weights)
    so = empirical_second_order(pm) if result.method in agg.SECOND_ORDER_RULES else None
    return agg.score_batch(result.method, pm.answers, pm.k, so=so)


def _stable(scores, delta):
    """The questions whose tied set (``agg.tied_mask``) cannot change when no
    score moves by more than ``delta``. The tie threshold, top - (1e-12 +
    1e-9 |top|), then moves by at most delta (1 + 1e-9), so a question is
    stable when no score lies within 3 delta of it, a lone top score aside:
    only a score near the threshold can join it. Every other question is fragile."""

    top = scores.max(axis=1, keepdims=True)
    near = np.abs(scores - (top - (1e-12 + 1e-9 * np.abs(top)))) <= 3 * delta
    lone = agg.tied_mask(scores).sum(axis=1, keepdims=True) == 1
    near &= ~(lone & (scores == top))
    return ~near.any(axis=1)


class TestPipelineMetamorphic:
    """Permuting agents, duplicating every question and relabelling, at ``run_pipeline``.

    Each property is checked on every question whose label a transformation
    cannot move. A transformed run's scores differ from the original's by at
    most delta: rounding (1e-14 times N, or times 1 plus the sum of the
    absolute weights, at least 10x the rounding of N-term sums of doubles)
    plus, for a fitted method, the sum over agents of how far each weight
    moved between the two fits. A question that ``_stable`` finds fragile at
    that delta is counted and excluded, and the fragile questions must be at
    most 1% of all checked. With lowest-index ties, a question whose tied set is
    T is labelled min(T), so relabelling label a as sigma[a] must give min(sigma[T]).
    """

    @staticmethod
    def _delta(result, moved, pm, back):
        if result.fit is None:
            return 1e-14 * pm.n
        weights = result.fit.weights
        drift = float(np.abs(moved.fit.weights[back] - weights).sum())
        return 1e-14 * (1.0 + float(np.abs(weights).sum())) + drift

    @given(st.integers(0, 2**31))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_agents_questions_and_labels(self, seed):
        rng = np.random.default_rng(seed)
        n, k, m = int(rng.integers(3, 7)), int(rng.integers(2, 5)), int(rng.integers(200, 600))
        acc, abilities = rng.uniform(1.0 / k + 0.1, 0.9, n), rng.uniform(0.3, 3.0, n)
        pm = simulate_ci(CiSimSpec(tuple(acc), k, m, seed=seed))
        perm, sigma = rng.permutation(n), rng.permutation(k)
        back = np.argsort(perm)  # agent j of the original is agent back[j] of the permuted matrix
        same, every = np.arange(k), slice(None)
        cases = {  # name -> the transformed matrix, its agents' order, back to the original's, and sigma
            "agents": (pm.select_agents(perm), perm, back, same),
            "questions": (PredictionMatrix(pm.space, np.concatenate([pm.answers] * 2)), every, every, same),
            "labels": (PredictionMatrix(pm.space, sigma.astype(pm.answers.dtype)[pm.answers]), every, every, sigma),
        }
        lowest, checked, fragile = TiePolicy(TIE_LOWEST), 0, 0
        for method in METHODS:
            args = dict(erm=ErmConfig(starts=2, seed=0), accuracies=acc, abilities=abilities)
            result = run_pipeline(pm, method, lowest, **args)
            scores = _reference_scores(result, pm)
            tied = agg.tied_mask(scores)
            for name, (moved_pm, agents, back_agents, relabel) in cases.items():
                moved = run_pipeline(moved_pm, method, lowest, **dict(args, accuracies=acc[agents], abilities=abilities[agents]))
                stable = _stable(scores, self._delta(result, moved, pm, back_agents))
                want = np.where(tied, relabel, k).min(axis=1)  # min(sigma[T])
                for copy in moved.labels.reshape(-1, m):  # the duplicated matrix's two copies
                    np.testing.assert_array_equal(copy[stable], want[stable], err_msg=f"{name} {method}")
                checked, fragile = checked + m, fragile + int((~stable).sum())
                if method in ("ow-l", "ow-i") and name == "agents":  # the fit's accuracies permute with the agents
                    # the fit stops at a projected gradient of 1e-9: over 400 panels like
                    # these, the permuted ow-l accuracies stayed within 2e-6 (median 1.5e-8)
                    np.testing.assert_allclose(moved.fit.accuracies[back_agents], result.fit.accuracies, atol=1e-5)
        assert fragile <= 0.01 * checked, (fragile, checked)
