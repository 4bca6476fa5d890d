"""Unit tests for the synthetic data generators and experiment drivers."""

import math
import tracemalloc

import numpy as np
import pytest

import quorum.simulate as sim
from quorum import core
from quorum.aggregate import TIE_LOWEST, TIE_UNIFORM, TiePolicy, aggregate_batch
from quorum.core import DimensionError, DomainError, PredictionMatrix, derive_seed, ow_weights, sigma_k, uniform_block
from quorum.dataio import write_predictions_csv
from quorum.oracle import DifficultyMixture, expected_accuracy, mixture_expected_accuracy
from quorum.secondorder import exact_second_order
from quorum.simulate import (
    AccuracyTable,
    CiSimSpec,
    DifficultySimSpec,
    GapCurve,
    TABLE_METHODS,
    run_accuracy_table,
    run_gap_curve,
    simulate_ci,
    simulate_difficulty,
)

MIX = DifficultyMixture.atoms([(0.0, 0.3), (50.0, 0.7)])


class TestCiSimulator:
    def test_deterministic(self):
        a = simulate_ci(CiSimSpec((0.6, 0.9), 3, 200, 7))
        b = simulate_ci(CiSimSpec((0.6, 0.9), 3, 200, 7))
        np.testing.assert_array_equal(a.answers, b.answers)
        np.testing.assert_array_equal(a.truth, b.truth)
        c = simulate_ci(CiSimSpec((0.6, 0.9), 3, 200, 8))
        assert not np.array_equal(a.answers, c.answers)

    def test_prefix_stable_in_question_count(self):
        short = simulate_ci(CiSimSpec((0.6, 0.9), 3, 100, 7))
        long = simulate_ci(CiSimSpec((0.6, 0.9), 3, 300, 7))
        np.testing.assert_array_equal(long.answers[:100], short.answers)
        np.testing.assert_array_equal(long.truth[:100], short.truth)

    def test_calibration(self):
        m = 40_000
        x = (0.55, 0.8)
        pm = simulate_ci(CiSimSpec(x, 4, m, 0))
        # truth is uniform over labels
        freq = np.bincount(pm.truth, minlength=4) / m
        se = math.sqrt(0.25 * 0.75 / m)
        assert np.all(np.abs(freq - 0.25) < 5 * se)
        # per-agent hit rates match the requested accuracies
        for i, xi in enumerate(x):
            hit = float((pm.answers[:, i] == pm.truth).mean())
            assert abs(hit - xi) < 5 * math.sqrt(xi * (1 - xi) / m)

    def test_errors_spread_evenly_over_wrong_labels(self):
        m = 60_000
        pm = simulate_ci(CiSimSpec((0.5,), 4, m, 1))
        wrong = pm.answers[:, 0] != pm.truth
        offsets = (pm.answers[wrong, 0] - pm.truth[wrong]) % 4
        freq = np.bincount(offsets, minlength=4)[1:] / wrong.sum()
        se = math.sqrt((1 / 3) * (2 / 3) / wrong.sum())
        assert np.all(np.abs(freq - 1 / 3) < 5 * se)

    def test_perfect_and_chance_agents(self):
        pm = simulate_ci(CiSimSpec((1.0, 0.25), 4, 5000, 2))
        assert np.array_equal(pm.answers[:, 0], pm.truth)
        hit = float((pm.answers[:, 1] == pm.truth).mean())
        assert abs(hit - 0.25) < 0.03

    def test_validation(self):
        with pytest.raises(DomainError):
            CiSimSpec((0.1, 0.9), 2, 10, 0)  # below chance
        with pytest.raises(DomainError):
            CiSimSpec((0.6,), 1, 10, 0)
        with pytest.raises(DimensionError):
            CiSimSpec((0.6,), 2, 0, 0)


class TestDifficultySimulator:
    def test_deterministic(self):
        spec = DifficultySimSpec((1.0, 2.0), MIX, 2, 150, 3)
        a = simulate_difficulty(spec)
        b = simulate_difficulty(spec)
        np.testing.assert_array_equal(a.answers, b.answers)

    def test_marginal_accuracy_matches_mixture_average(self):
        m = 50_000
        beta = (1.0, 2.0)
        pm = simulate_difficulty(DifficultySimSpec(beta, MIX, 2, m, 4))
        alphas, weights = MIX.nodes()
        for i, b in enumerate(beta):
            expect = float(np.dot(weights, sigma_k(alphas * b, 2)))
            hit = float((pm.answers[:, i] == pm.truth).mean())
            assert abs(hit - expect) < 5 * math.sqrt(expect * (1 - expect) / m)

    def test_shared_difficulty_correlates_agents(self):
        # both-correct frequency approaches the mixture value 0.775, well
        # above the independent-marginals product 0.7225
        m = 50_000
        pm = simulate_difficulty(DifficultySimSpec((1.0, 1.0), MIX, 2, m, 5))
        both = float(((pm.answers == pm.truth[:, None]).all(axis=1)).mean())
        assert abs(both - 0.775) < 0.01

    def test_validation(self):
        with pytest.raises(DomainError):
            DifficultySimSpec((-1.0,), MIX, 2, 10, 0)
        with pytest.raises(DomainError):
            DifficultySimSpec((1.0,), MIX, 1, 10, 0)


class TestAccuracyTable:
    def test_shape_and_determinism(self):
        t1 = run_accuracy_table(seed=1, m=800, ks=(2, 4), accuracies=(0.6, 0.7, 0.8, 0.9))
        t2 = run_accuracy_table(seed=1, m=800, ks=(2, 4), accuracies=(0.6, 0.7, 0.8, 0.9))
        assert isinstance(t1, AccuracyTable)
        assert t1.methods == TABLE_METHODS
        assert t1.values.shape == (2, 5)
        np.testing.assert_array_equal(t1.values, t2.values)

    def test_values_are_percentages_in_range(self):
        table = run_accuracy_table(seed=2, m=500, ks=(2,), accuracies=(0.6, 0.7, 0.8, 0.9))
        assert np.all((table.values >= 0) & (table.values <= 100))
        # with these agents every rule beats chance by a wide margin
        assert np.all(table.values > 60)

    def test_rows_and_text(self):
        table = run_accuracy_table(seed=3, m=300, ks=(2, 4), accuracies=(0.6, 0.9))
        rows = table.to_rows()
        assert [r["k"] for r in rows] == [2, 4]
        assert set(rows[0]) == {"k", *TABLE_METHODS}
        text = table.to_text()
        assert "mv" in text and "opt" in text
        assert len(text.splitlines()) == 4  # header, rule, one line per K


class TestGapCurve:
    def test_replication_mean_and_stderr(self):
        c1 = run_gap_curve(seed=4, m=400, ks=(2, 4), accuracies=(0.6, 0.7, 0.8, 0.9), replications=3)
        assert isinstance(c1, GapCurve)
        assert c1.gap_isp_mv.shape == (2,)
        assert np.all(c1.stderr >= 0)
        single = run_gap_curve(seed=4, m=400, ks=(2, 4), accuracies=(0.6, 0.7, 0.8, 0.9))
        np.testing.assert_array_equal(single.stderr, [0.0, 0.0])

    def test_rows(self):
        curve = run_gap_curve(seed=5, m=300, ks=(2,), accuracies=(0.6, 0.8), replications=2)
        (row,) = curve.to_rows()
        assert set(row) == {"k", "gap_isp_mv", "gap_mv_sp", "stderr"}

    def test_replications_validated(self):
        with pytest.raises(DomainError):
            run_gap_curve(seed=0, m=100, ks=(2,), accuracies=(0.6, 0.7), replications=0)


@pytest.mark.parametrize("run", [run_accuracy_table, run_gap_curve])
def test_bad_k_rejected_before_any_simulation(run, monkeypatch):
    import quorum.simulate as sim

    calls = []
    monkeypatch.setattr(sim, "simulate_ci", lambda spec: calls.append(spec))
    with pytest.raises(DomainError):
        run(seed=0, m=100, ks=(10, 1), accuracies=(0.6, 0.7))
    assert calls == []


def test_seed_streams_are_independent():
    # the per-K datasets inside one table come from distinct derived seeds
    s1 = derive_seed(0, 2)
    s2 = derive_seed(0, 4)
    assert s1 != s2
    a = simulate_ci(CiSimSpec((0.6, 0.7, 0.8, 0.9), 2, 50, s1))
    b = simulate_ci(CiSimSpec((0.6, 0.7, 0.8, 0.9), 2, 50, s2))
    assert not np.array_equal(a.answers, b.answers)


# ---------------------------------------------------------------------------
# Row blocks: the simulators draw and map a block of questions at a time
# ---------------------------------------------------------------------------


def _reference_answers(u_agents, hit, truth, k):
    """The whole-array mapping of uniforms to labels that the blocks must reproduce."""

    correct = u_agents < hit
    with np.errstate(invalid="ignore", divide="ignore"):
        v = np.where(correct, 0.0, (u_agents - hit) / (1.0 - hit))
        wrong = np.clip((v * (k - 1)).astype(np.int64), 0, k - 2)
    wrong = wrong + (wrong >= truth[:, None])
    return np.where(correct, truth[:, None], wrong)


def _reference_ci(spec):
    u = uniform_block(spec.seed, spec.m, 1 + spec.n)
    truth = np.minimum((u[:, 0] * spec.k).astype(np.int64), spec.k - 1)
    return _reference_answers(u[:, 1:], np.asarray(spec.accuracies)[None, :], truth, spec.k), truth


def _reference_difficulty(spec):
    u = uniform_block(spec.seed, spec.m, 2 + spec.n)
    alphas = spec.mixture.sample(u[:, 0])
    truth = np.minimum((u[:, 1] * spec.k).astype(np.int64), spec.k - 1)
    hit = sigma_k(alphas[:, None] * np.asarray(spec.abilities)[None, :], spec.k)
    return _reference_answers(u[:, 2:], hit, truth, spec.k), truth


BLOCK_M = 50
BLOCK_CASES = {
    # a perfect agent (hit probability 1) and a chance-level one
    "ci": (simulate_ci, _reference_ci, CiSimSpec((0.6, 1.0, 0.2, 0.9), 5, BLOCK_M, 11)),
    "difficulty-atoms": (
        simulate_difficulty,
        _reference_difficulty,
        DifficultySimSpec(
            (0.5, 2.0, 0.0), DifficultyMixture.atoms([(0.0, 0.3), (1.0, 0.2), (50.0, 0.5)]), 30, BLOCK_M, 12
        ),
    ),
    "difficulty-log-uniform": (
        simulate_difficulty,
        _reference_difficulty,
        DifficultySimSpec((0.5, 1.0, 2.0), DifficultyMixture.log_uniform(0.2, 5.0), 300, BLOCK_M, 13),
    ),
}


def _force_block_rows(monkeypatch, rows):
    """Make the simulators draw ``rows`` questions per block; returns the block sizes drawn."""

    sizes = []
    whole = core._uniform_rows

    def uniform_rows(seed, m, width, arrays):
        monkeypatch.setattr(core, "_BLOCK_CELLS", rows * arrays * width)
        for block, u in whole(seed, m, width, arrays):
            sizes.append(u.shape[0])
            yield block, u

    monkeypatch.setattr(sim, "_uniform_rows", uniform_rows)
    return sizes


@pytest.mark.parametrize("rows", [1, 7, BLOCK_M - 1, BLOCK_M, BLOCK_M + 1])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_row_blocks_equal_the_whole_draw(case, rows, monkeypatch, tmp_path):
    simulate, reference, spec = BLOCK_CASES[case]
    answers, truth = reference(spec)
    sizes = _force_block_rows(monkeypatch, rows)
    pm = simulate(spec)
    assert sizes[0] == min(rows, BLOCK_M) and sum(sizes) == BLOCK_M
    assert pm.answers.dtype == pm.truth.dtype == np.min_scalar_type(spec.k - 1)
    assert not pm.answers.flags.writeable and not pm.truth.flags.writeable
    np.testing.assert_array_equal(pm.answers, answers)
    np.testing.assert_array_equal(pm.truth, truth)
    whole = PredictionMatrix(pm.space, answers, truth)
    for include_truth in (True, False):
        write_predictions_csv(str(tmp_path / "blocks.csv"), pm, include_truth=include_truth)
        write_predictions_csv(str(tmp_path / "whole.csv"), whole, include_truth=include_truth)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize(
    "simulate, spec",
    [
        (simulate_ci, CiSimSpec((0.6, 0.7, 0.8, 0.9), 4, 200_000, 0)),
        (
            simulate_difficulty,
            DifficultySimSpec((0.5, 1.0, 2.0, 1.5), DifficultyMixture.log_uniform(0.2, 5.0), 4, 200_000, 0),
        ),
    ],
    ids=["ci", "difficulty"],
)
def test_memory_is_the_panel_plus_a_block(simulate, spec):
    # no (M, N) float temporaries: scratch is one block of _BLOCK_CELLS float64 cells
    tracemalloc.start()
    try:
        pm = simulate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = pm.answers.nbytes + pm.truth.nbytes
    assert peak <= returned + 8 * core._BLOCK_CELLS, (peak, returned)



_TIE_MODES = (TIE_LOWEST, TIE_UNIFORM)


def _agreement_shapes():
    """The panels the simulators and the exact oracles are compared on, drawn
    from a fixed stream before any result was seen: 16 independent-errors
    panels, (accuracies, K), with N in 2..6, K in 2..4 and accuracies in
    (1/K + 0.02, 0.95), and 8 difficulty-mixture panels, (abilities, K,
    mixture), with N in 2..5 and abilities in (0.3, 3), on a log-uniform or a
    two-atom mixture."""

    rng = np.random.default_rng(20261020)
    ci, mixed = [], []
    for _ in range(16):
        k, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        ci.append((tuple(rng.uniform(1 / k + 0.02, 0.95, n).round(3).tolist()), k))
    mixtures = (DifficultyMixture.log_uniform(0.2, 5.0), DifficultyMixture.atoms([(0.5, 0.5), (3.0, 0.5)]))
    for i in range(8):
        k, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        mixed.append((tuple(rng.uniform(0.3, 3.0, n).round(3).tolist()), k, mixtures[i % 2]))
    return ci, mixed


def test_simulators_agree_with_the_exact_oracles_rule_by_rule():
    # Each rule's accuracy on M simulated questions is a mean of M independent
    # Bernoulli draws of the oracle's exact value, so z = (empirical - exact) /
    # sqrt(exact (1 - exact) / M). Over the 16 * 4 * 2 + 8 * 2 * 2 = 160
    # comparisons, a Bonferroni bound of |z| <= 5 (two-sided 5.7e-7 each)
    # fails a correct build with probability under 1e-4.
    m, ci, mixed = 100_000, *_agreement_shapes()
    z = {}

    def compare(name, pm, tie_seed, exact, rule, **tables):
        # exact: tie mode -> the oracle's accuracy of the rule
        for mode, p in exact.items():
            labels, _ = aggregate_batch(rule, pm.answers, pm.k, TiePolicy(mode, tie_seed), **tables)
            z[f"{name} {mode}"] = (float((labels == pm.truth).mean()) - p) / math.sqrt(p * (1.0 - p) / m)

    for s, (acc, k) in enumerate(ci):
        pm = simulate_ci(CiSimSpec(acc, k, m, seed=100 + s))
        so, weights = exact_second_order(acc, k), ow_weights(acc, k)
        for rule in ("mv", "sp", "isp", "weighted"):
            w = weights if rule == "weighted" else None
            exact = {mode: expected_accuracy(rule, acc, k, weights=w, tie_mode=mode) for mode in _TIE_MODES}
            compare(f"ci {acc} K={k} {rule}", pm, s, exact, rule, so=so, weights=w)
    for s, (abilities, k, mixture) in enumerate(mixed):
        pm = simulate_difficulty(DifficultySimSpec(abilities, mixture, k, m, seed=200 + s))
        for rule in ("mv", "eow"):  # eow: the weighted rule with the abilities as weights
            exact = {mode: mixture_expected_accuracy(rule, abilities, mixture, k, tie_mode=mode) for mode in _TIE_MODES}
            w = np.asarray(abilities) if rule == "eow" else None
            compare(f"mixture {abilities} K={k} {rule}", pm, s, exact, "weighted" if w is not None else rule, weights=w)
    assert len(z) == 160
    worst = sorted(z, key=lambda name: abs(z[name]))[-3:]
    assert abs(z[worst[-1]]) <= 5.0, {name: z[name] for name in worst}
