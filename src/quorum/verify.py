"""Self-contained verification suites for the package's key claims.

Each suite returns a list of check results; the CLI renders them as one
line per check. The checks re-derive every claim from scratch (hand-
computable fixtures, closed forms against brute-force enumeration,
simulation against exact oracles), so a green run certifies the installed
package rather than trusting the test suite that shipped with it.

Suite tokens: ``examples``, ``thm1``, ``thm2``, ``thm4``, ``thm5``,
``props`` (or ``all``). The tokens are stable identifiers; see each
suite's docstring for what it actually checks.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import aggregate as agg
from . import oracle
from .core import (
    LabelSpace,
    PredictionMatrix,
    derive_seed,
    ow_weights,
    shuffle_apply,
    shuffle_invert,
    sigma_k,
    sigma_k_inverse,
)
from .oracle import DifficultyMixture
from .secondorder import (
    empirical_second_order,
    exact_second_order,
    read_second_order_csv,
    write_second_order_csv,
)
from .simulate import CiSimSpec, simulate_ci

__all__ = ["CheckResult", "SUITES", "run_suites"]

SUITES = ("examples", "thm1", "thm2", "thm4", "thm5", "props")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""
    skipped: bool = False


class _Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self.results: list[CheckResult] = []

    def check(self, name: str, passed: bool, detail: str = "", draws: int | None = None) -> None:
        """Record a check; one that ``draws`` says examined no shape is skipped."""

        self.results.append(CheckResult(self.suite, name, bool(passed), detail, skipped=draws == 0))

    def close(self, value: float, target: float, tol: float) -> bool:
        return abs(value - target) <= tol


def _fmt(value: float, target: float) -> str:
    return f"observed {value:.12g}, expected {target:.12g}"


def _fits(n: int, k: int, budget: float) -> bool:
    """Whether the K**N answer vectors of an (N, K) shape are within ``budget``."""

    return k**n <= budget


def _shapes(rng: np.random.Generator, draws: int, n_hi: int, k_hi: int, budget: float):
    """``draws`` random (N, K) shapes, N in [2, n_hi) drawn before K in [2, k_hi);
    a shape whose K**N vectors exceed ``budget`` is drawn but dropped."""

    for _ in range(draws):
        n = int(rng.integers(2, n_hi))
        k = int(rng.integers(2, k_hi))
        if _fits(n, k, budget):
            yield n, k


# ---------------------------------------------------------------------------
# examples: hand-computable fixtures
# ---------------------------------------------------------------------------


def _suite_examples(seed: int, budget: int) -> list[CheckResult]:
    """Fixtures small enough to verify with pencil and paper."""

    rec = _Recorder("examples")
    k = 2

    # Two infallible agents plus two coin-flippers.
    x4 = np.array([1.0, 1.0, 0.5, 0.5])
    so4 = exact_second_order(x4, k)
    fits = _fits(x4.size, k, budget)
    for rule, target in (("mv", 7 / 8), ("sp", 3 / 4), ("isp", 1.0)):
        acc = oracle.expected_accuracy(rule, x4, k, budget=budget) if fits else math.nan
        detail = _fmt(acc, target) if fits else f"{k}^{x4.size} vectors exceed the budget"
        rec.check(f"four_agents_accuracy_{rule}", rec.close(acc, target, 1e-12), detail, int(fits))
    split = np.array([0, 0, 1, 1])  # infallible agents vs both flippers
    s_sp = agg.sp_score(split, so4, target_agent=0, target_label=0)
    rec.check("four_agents_sp_score", rec.close(s_sp, 2 / 3, 1e-12), _fmt(s_sp, 2 / 3))
    s_isp = agg.isp_score(split, so4, target_agent=0, target_label=0)
    rec.check("four_agents_isp_score", rec.close(s_isp, 1 / 3, 1e-12), _fmt(s_isp, 1 / 3))
    adv_sp = agg.advantage_sp(split, so4).values[0]
    rec.check("four_agents_sp_advantage", rec.close(adv_sp, -1 / 3, 1e-12), _fmt(adv_sp, -1 / 3))
    adv_isp = agg.advantage_isp(split, so4).values[0]
    rec.check("four_agents_isp_advantage", rec.close(adv_isp, 1 / 3, 1e-12), _fmt(adv_isp, 1 / 3))
    picks_ok = True
    for flips in itertools.product([0, 1], repeat=2):
        vec = np.array([0, 0, *flips])
        label, _ = agg.aggregate_isp(vec, so4, agg.TiePolicy(agg.TIE_LOWEST))
        picks_ok &= label == 0
    rec.check("four_agents_isp_always_right", picks_ok, "counterfactual rule recovers the truth")

    # Four infallible agents plus five coin-flippers.
    x9 = np.array([1.0] * 4 + [0.5] * 5)
    so9 = exact_second_order(x9, k)
    totals_ok = {"sp": True, "isp": True}
    for flips in itertools.product([0, 1], repeat=5):
        vec = np.array([0] * 4 + list(flips))
        votes = float((vec == 0).sum())
        tot_sp = votes - agg.advantage_sp(vec, so9).values[0]
        tot_isp = votes - agg.advantage_isp(vec, so9).values[0]
        totals_ok["sp"] &= rec.close(tot_sp, 21 / 4, 1e-12)
        totals_ok["isp"] &= rec.close(tot_isp, 15 / 4, 1e-12)
    rec.check("nine_agents_sp_total", totals_ok["sp"], "answer-independent total 21/4")
    rec.check("nine_agents_isp_total", totals_ok["isp"], "answer-independent total 15/4")
    fits = _fits(x9.size, k, budget)
    for rule, target in (("mv", 1 / 32), ("sp", 3 / 16), ("isp", 0.0)):
        err = 1.0 - oracle.expected_accuracy(rule, x9, k, budget=budget) if fits else math.nan
        detail = _fmt(err, target) if fits else f"{k}^{x9.size} vectors exceed the budget"
        rec.check(f"nine_agents_error_{rule}", rec.close(err, target, 1e-12), detail, int(fits))

    # Two equally able agents under a two-atom difficulty mixture:
    # correlated errors make the joint exceed the independent product.
    mix = DifficultyMixture.atoms([(0.0, 0.3), (50.0, 0.7)])
    beta = np.array([1.0, 1.0])
    joint = oracle.joint_correct_probability(beta, mix, k)
    rec.check("mixture_joint", rec.close(joint, 0.775, 1e-12), _fmt(joint, 0.775))
    marg = float(np.dot(mix.weights, sigma_k(mix.alphas * 1.0, k)))
    rec.check(
        "mixture_independent_product",
        rec.close(marg**2, 0.7225, 1e-12) and joint > marg**2 + 0.05,
        _fmt(marg**2, 0.7225),
    )
    return rec.results


# ---------------------------------------------------------------------------
# thm1: weighted voting is posterior-consistent
# ---------------------------------------------------------------------------


def _argmax_escapes(scores: np.ndarray, posteriors: np.ndarray) -> bool:
    """True if on some row a label tied for the top score is not tied for the top posterior."""

    return bool((agg.tied_mask(scores) & ~agg.tied_mask(posteriors)).any())


def _suite_thm1(seed: int, budget: int) -> list[CheckResult]:
    """Log-odds weighting tracks the exact posterior; dominance behaves."""

    rec = _Recorder("thm1")
    rng = np.random.default_rng(derive_seed(seed, 1))

    consistent = True
    homogeneous = True
    draws = 0
    for n, k in _shapes(rng, 40, 6, 5, budget):
        draws += 1
        x = 1.0 / k + 0.01 + (0.98 - 1.0 / k) * rng.random(n)
        w = ow_weights(x, k)
        vectors = oracle.enumerate_vectors(n, k, budget)
        scores = agg.score_batch("weighted", vectors, k, weights=w)
        consistent &= not _argmax_escapes(scores, oracle.bayes_posterior(vectors, x, k))
        x_h = np.full(n, float(1.0 / k + 0.05 + (0.90 - 1.0 / k) * rng.random()))
        sc_h = agg.score_batch("weighted", vectors, k, weights=ow_weights(x_h, k))
        counts = agg.score_batch("mv", vectors, k)
        homogeneous &= bool(np.array_equal(agg.tied_mask(sc_h), agg.tied_mask(counts)))
    rec.check("weighted_vote_matches_posterior", consistent, f"{draws} random instances, exhaustive", draws)
    rec.check("homogeneous_equals_majority", homogeneous, f"{draws} random instances, exhaustive", draws)

    below_ok = True
    above_ok = True
    below = above = draws = 0
    for n, k in _shapes(rng, 30, 6, 5, budget):
        draws += 1
        x = 1.0 / k + 0.01 + (0.98 - 1.0 / k) * rng.random(n)
        acc = oracle.expected_accuracy("weighted", x, k, weights=ow_weights(x, k), budget=budget)
        for i in range(n):
            thr = agg.dominance_threshold(x, k, i)
            if x[i] < thr - 1e-6:
                below += 1
                below_ok &= acc > x[i]
            elif x[i] > thr + 1e-6:
                above += 1
                above_ok &= abs(acc - x[i]) <= 1e-12
    rec.check("dominance_below_strict_gain", below_ok, f"{below} agent cases below threshold", draws)
    rec.check("dominance_above_follows_agent", above_ok, f"{above} agent cases above threshold", draws)

    optimal = True
    draws = 0
    for n, k in _shapes(rng, 10, 5, 5, budget):
        draws += 1
        x = 1.0 / k + 0.01 + (0.98 - 1.0 / k) * rng.random(n)
        w = ow_weights(x, k)
        ow_acc = oracle.expected_accuracy("weighted", x, k, weights=w, budget=budget)
        for rule in ("mv", "sp", "isp"):
            optimal &= ow_acc >= oracle.expected_accuracy(rule, x, k, budget=budget) - 1e-12
        optimal &= ow_acc >= float(x.max()) - 1e-12
    rec.check("weighted_vote_is_optimal", optimal, "beats mv/sp/isp and every single agent", draws)
    return rec.results


# ---------------------------------------------------------------------------
# thm2: closed-form advantage gaps
# ---------------------------------------------------------------------------


def _suite_thm2(seed: int, budget: int) -> list[CheckResult]:
    """Closed-form expected advantage gaps match brute-force enumeration."""

    rec = _Recorder("thm2")
    rng = np.random.default_rng(derive_seed(seed, 2))

    worst = 0.0
    nonneg = True
    instances = 0
    for n, k in _shapes(rng, 40, 6, 5, budget):
        instances += 1
        x = 1.0 / k + (1.0 - 1.0 / k) * rng.random(n)
        e_mv = oracle.exact_expected_advantage("mv", x, k, budget)
        e_sp = oracle.exact_expected_advantage("sp", x, k, budget)
        e_isp = oracle.exact_expected_advantage("isp", x, k, budget)
        gap_im, gap_ms = oracle.expected_advantage_gaps(x, k)
        worst = max(worst, abs((e_isp - e_mv) - gap_im), abs((e_mv - e_sp) - gap_ms))
        worst = max(worst, abs(e_mv - oracle.expected_mv_advantage(x, k)))
        nonneg &= gap_im >= 0.0 and gap_ms >= 0.0
    rec.check(
        "gaps_match_enumeration", worst <= 1e-10, f"{instances} instances, worst |err| {worst:.2e}", instances
    )
    rec.check("gaps_nonnegative", nonneg, f"{instances} instances", instances)

    gi, gm = oracle.expected_advantage_gaps(np.array([1.0, 1.0, 0.5, 0.5]), 2)
    rec.check(
        "fixture_two_perfect_two_random",
        rec.close(gi, 1 / 3, 1e-12) and rec.close(gm, 1 / 3, 1e-12),
        f"gaps ({gi:.12g}, {gm:.12g}), expected (1/3, 1/3)",
    )
    gi2, gm2 = oracle.expected_advantage_gaps(np.array([1.0, 1.0]), 2)
    rec.check(
        "fixture_two_perfect",
        rec.close(gi2, 1.0, 1e-12) and rec.close(gm2, 1.0, 1e-12),
        f"gaps ({gi2:.12g}, {gm2:.12g}), expected (1, 1)",
    )

    # structural laws of the closed forms: the two gaps differ by exactly
    # a 1/(K-1) factor, and the counterfactual gap dies off for large K
    ratio_ok = True
    for n, k in _shapes(rng, 10, 7, 12, math.inf):
        x = 1.0 / k + (1.0 - 1.0 / k) * rng.random(n)
        gi, gm = oracle.expected_advantage_gaps(x, k)
        ratio_ok &= abs(gi * (k - 1) - gm) <= 1e-12 * max(1.0, abs(gm))
    rec.check("gap_ratio_law", ratio_ok, "gap_mv_sp == (K-1) * gap_isp_mv")
    x = np.array([0.6, 0.7, 0.8, 0.9])
    gaps = [oracle.expected_advantage_gaps(x, k)[0] for k in (4, 6, 8, 12, 16, 32)]
    rec.check(
        "gap_vanishes_for_large_k",
        all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.3 * gaps[0],
        f"gap falls from {gaps[0]:.4f} at K=4 to {gaps[-1]:.4f} at K=32",
    )
    return rec.results


# ---------------------------------------------------------------------------
# thm4: ability-weighted voting is mixture-posterior-consistent
# ---------------------------------------------------------------------------


def _suite_thm4(seed: int, budget: int) -> list[CheckResult]:
    """Ability-weighted votes track the exact mixture posterior."""

    rec = _Recorder("thm4")
    rng = np.random.default_rng(derive_seed(seed, 4))

    consistent = True
    draws = 0
    for n, k in _shapes(rng, 25, 5, 4, budget):
        draws += 1
        beta = 0.2 + 2.8 * rng.random(n)
        t = int(rng.integers(2, 4))
        w = rng.random(t) + 0.1
        mix = DifficultyMixture.atoms(zip(3.0 * rng.random(t), w / w.sum()))
        vectors = oracle.enumerate_vectors(n, k, budget)
        scores = agg.score_batch("weighted", vectors, k, weights=beta)
        consistent &= not _argmax_escapes(scores, oracle.mixture_posterior(vectors, beta, mix, k))
    rec.check("ability_vote_matches_posterior", consistent, f"{draws} random mixtures, exhaustive", draws)

    degenerate = True
    for n, k in _shapes(rng, 10, 5, 4, math.inf):
        beta = 0.2 + 2.8 * rng.random(n)
        alpha = 0.2 + 2.0 * rng.random()
        mix = DifficultyMixture.atoms([(alpha, 1.0)])
        x = sigma_k(alpha * beta, k)
        for _ in range(5):
            vec = rng.integers(0, k, size=n)
            p_mix = oracle.mixture_posterior(vec, beta, mix, k)
            p_ci = oracle.bayes_posterior(vec, x, k)
            degenerate &= float(np.max(np.abs(p_mix - p_ci))) <= 1e-10
    rec.check("single_atom_reduces_to_independent", degenerate, "posteriors agree to 1e-10")

    mix0 = DifficultyMixture.atoms([(0.0, 1.0)])
    p = oracle.mixture_posterior(np.array([0, 1, 1]), np.array([1.0, 2.0, 0.5]), mix0, 3)
    uniform = float(np.max(np.abs(p - 1.0 / 3))) <= 1e-12
    rec.check("zero_scale_gives_uniform_posterior", uniform, "maximally hard questions carry no signal")
    return rec.results


# ---------------------------------------------------------------------------
# thm5: rule ordering under shared difficulty
# ---------------------------------------------------------------------------


def _suite_thm5(seed: int, budget: int) -> list[CheckResult]:
    """Under shared difficulty the counterfactual rule leads, peer-expected trails."""

    rec = _Recorder("thm5")
    rng = np.random.default_rng(derive_seed(seed, 5))

    ordered = True
    zero_sum = True
    draws = 0
    for n, k in _shapes(rng, 20, 5, 4, budget):
        draws += 1
        beta = 0.2 + 2.8 * rng.random(n)
        t = int(rng.integers(2, 4))
        w = rng.random(t) + 0.1
        mix = DifficultyMixture.atoms(zip(3.0 * rng.random(t), w / w.sum()))
        e = {
            rule: oracle.mixture_expected_advantage(rule, beta, mix, k, budget)
            for rule in ("mv", "sp", "isp")
        }
        ordered &= e["isp"] >= e["mv"] - 1e-10 and e["mv"] >= e["sp"] - 1e-10
        so = oracle.mixture_second_order(beta, mix, k)
        vec = rng.integers(0, k, size=n)
        zero_sum &= abs(float(agg.advantage_sp(vec, so).values.sum())) <= 1e-9
        zero_sum &= abs(float(agg.advantage_isp(vec, so).values.sum())) <= 1e-9
    rec.check("advantage_ordering", ordered, f"{draws} random mixtures: isp >= mv >= sp", draws)
    rec.check("mixture_advantages_zero_sum", zero_sum, "advantage vectors sum to zero", draws)

    # the quadrature path should agree with a dense midpoint discretization
    beta = np.array([1.0, 2.0, 0.5])
    mix_q = DifficultyMixture.log_uniform(0.1, 10.0)
    edges = np.linspace(np.log(0.1), np.log(10.0), 20001)
    grid = np.exp(0.5 * (edges[:-1] + edges[1:]))
    mix_d = DifficultyMixture(alphas=grid, weights=np.full(grid.size, 1.0 / grid.size))
    vecs = np.stack([rng.integers(0, 2, size=3) for _ in range(10)])
    pq = oracle.mixture_posterior(vecs, beta, mix_q, 2)
    pd = oracle.mixture_posterior(vecs, beta, mix_d, 2)
    worst = float(np.max(np.abs(pq - pd)))
    rec.check("log_uniform_quadrature", worst <= 1e-6, f"worst posterior gap {worst:.2e}")
    return rec.results


# ---------------------------------------------------------------------------
# props: structural properties and simulator calibration
# ---------------------------------------------------------------------------


def _suite_props(seed: int, budget: int) -> list[CheckResult]:
    """Structural invariants: second-order matrix laws, shuffling, sigmoids."""

    rec = _Recorder("props")
    rng = np.random.default_rng(derive_seed(seed, 6))

    # second-order matrix laws on random draws
    exch = sym = null = mono = True
    for n, k in _shapes(rng, 20, 6, 6, math.inf):
        x = rng.random(n)
        so = exact_second_order(x, k).probs
        exch &= bool(np.allclose(so, so.transpose(1, 0, 3, 2), atol=1e-12))
        diag = so[:, :, np.arange(k), np.arange(k)]
        sym &= bool(np.allclose(diag, diag[:, :, :1], atol=1e-12))
        x_null = x.copy()
        x_null[0] = 1.0 / k
        so_null = exact_second_order(x_null, k).probs
        null &= bool(np.allclose(so_null[0, 1:], 1.0 / k, atol=1e-12))
        null &= bool(np.allclose(so_null[1:, 0], 1.0 / k, atol=1e-12))
        if n >= 2 and x[1] > 1.0 / k + 0.01:
            x_up = x.copy()
            x_up[0] = min(x[0] + 0.05, 1.0)
            if x_up[0] > x[0]:
                s_lo = exact_second_order(x, k).probs[0, 1, 0, 0]
                s_hi = exact_second_order(x_up, k).probs[0, 1, 0, 0]
                mono &= s_hi > s_lo - 1e-15
    rec.check("secondorder_exchangeable", exch, "probs[i,j,k,l] == probs[j,i,l,k]")
    rec.check("secondorder_same_label_constant", sym, "diagonal blocks constant across labels")
    rec.check("secondorder_null_agent_uniform", null, "chance-level agents carry no signal")
    rec.check("secondorder_monotone", mono, "same-label prob rises with accuracy")

    exs = exact_second_order(np.array([0.8, 0.6]), 2)
    rec.check(
        "secondorder_fixture",
        rec.close(float(exs.probs[0, 1, 0, 0]), 0.56, 1e-12),
        _fmt(float(exs.probs[0, 1, 0, 0]), 0.56),
    )

    # advantage invariants on random instances, exact and empirical matrices
    zero_sum = bounded = True
    for n, k in _shapes(rng, 20, 6, 5, math.inf):
        x = rng.random(n)
        so = exact_second_order(x, k)
        vec = rng.integers(0, k, size=n)
        for adv in (
            agg.advantage_mv(vec, k).values,
            agg.advantage_sp(vec, so).values,
            agg.advantage_isp(vec, so).values,
        ):
            zero_sum &= abs(float(adv.sum())) <= 1e-9
            bounded &= float(np.max(np.abs(adv))) <= n + 1e-9
    pm_small = simulate_ci(CiSimSpec((0.7, 0.6, 0.9), 3, 50, derive_seed(seed, 7)))
    so_emp = empirical_second_order(pm_small)
    for q in range(10):
        vec = pm_small.answers[q]
        for adv in (agg.advantage_sp(vec, so_emp).values, agg.advantage_isp(vec, so_emp).values):
            zero_sum &= abs(float(adv.sum())) <= 1e-9
            bounded &= float(np.max(np.abs(adv))) <= pm_small.n + 1e-9
    rec.check("advantages_zero_sum", zero_sum, "exact and empirical matrices")
    rec.check("advantages_bounded", bounded, "|advantage| <= N")

    # simulator calibration: uniform truth, per-agent accuracy, uniform marginals
    m = 50_000
    x = np.array([0.7, 0.55])
    k = 4
    pm = simulate_ci(CiSimSpec(tuple(x), k, m, derive_seed(seed, 8)))
    se_quarter = math.sqrt(0.25 * 0.75 / m)
    truth_freq = np.bincount(pm.truth, minlength=k) / m
    cal_truth = bool(np.all(np.abs(truth_freq - 0.25) <= 5 * se_quarter))
    hit = (pm.answers == pm.truth[:, None]).mean(axis=0)
    cal_acc = True
    for i in range(2):
        se = math.sqrt(x[i] * (1 - x[i]) / m)
        cal_acc &= abs(hit[i] - x[i]) <= 5 * se
    marg = np.stack([np.bincount(pm.answers[:, i], minlength=k) / m for i in range(2)])
    cal_marg = bool(np.all(np.abs(marg - 0.25) <= 5 * se_quarter))
    rec.check("simulator_uniform_truth", cal_truth, f"max dev {np.abs(truth_freq - 0.25).max():.4f}")
    rec.check("simulator_agent_accuracy", cal_acc, f"hit rates {hit.round(4).tolist()}")
    rec.check("simulator_uniform_marginals", cal_marg, "answer marginals are chance-level")

    # shuffling: round trip and uniformity of the relabeled truth
    skew = PredictionMatrix(
        LabelSpace.default(3),
        rng.integers(0, 2, size=(3000, 3)),  # labels biased away from index 2
        np.zeros(3000, dtype=np.int64),
    )
    shuffled, smap = shuffle_apply(skew, derive_seed(seed, 9))
    restored = shuffle_invert(shuffled, smap)
    round_trip = bool(
        np.array_equal(restored.answers, skew.answers) and np.array_equal(restored.truth, skew.truth)
    )
    rec.check("shuffle_round_trip", round_trip, "invert(apply(pm)) == pm")
    freq = np.bincount(shuffled.truth, minlength=3) / 3000
    se3 = math.sqrt((1 / 3) * (2 / 3) / 3000)
    rec.check(
        "shuffle_uniformizes_truth",
        bool(np.all(np.abs(freq - 1 / 3) <= 5 * se3)),
        f"relabeled truth frequencies {freq.round(3).tolist()}",
    )
    vec_restored = shuffle_invert(shuffled.truth, smap)
    rec.check(
        "shuffle_inverts_label_vector",
        bool(np.array_equal(vec_restored, skew.truth)),
        "length-M vector path",
    )

    # sigmoid pair
    pts = rec.close(sigma_k(0.0, 2), 0.5, 1e-15) and rec.close(sigma_k(0.0, 4), 0.25, 1e-15)
    pts &= rec.close(sigma_k(math.log(4), 2), 0.8, 1e-12)
    pts &= sigma_k_inverse(1.0 / 3, 3) == 0.0
    pts &= rec.close(sigma_k_inverse(0.8, 2), math.log(4), 1e-12)
    pts &= rec.close(sigma_k_inverse(0.9, 4), math.log(27), 1e-12)
    rec.check("sigmoid_known_values", pts, "spot values of the sigmoid pair")
    # Probabilities saturate near 1, so x -> p -> x can only recover x up to
    # the information a float64 probability retains: full precision on
    # [-16, 16], a few 1e-3 absolute out to +-30.
    round_ok = True
    for k in (2, 3, 7):
        xs = np.linspace(-16, 16, 101)
        err = np.abs(sigma_k_inverse(sigma_k(xs, k), k) - xs)
        round_ok &= bool(np.all(err <= 1e-9 * np.maximum(1.0, np.abs(xs))))
        xs_wide = np.linspace(-30, 30, 101)
        err_wide = np.abs(sigma_k_inverse(sigma_k(xs_wide, k), k) - xs_wide)
        round_ok &= bool(np.all(err_wide <= 1e-2))
        ps = np.linspace(0.001, 0.999, 101)
        round_ok &= bool(np.allclose(sigma_k(sigma_k_inverse(ps, k), k), ps, atol=1e-12))
    rec.check("sigmoid_round_trip", round_ok, "both composition orders")

    w = ow_weights(np.array([0.25, 0.2, 0.9]), 4)
    rec.check(
        "weight_floor_is_zero",
        w[0] == 0.0 and w[1] == 0.0 and w[2] > 0.0,
        f"weights {w.round(4).tolist()}",
    )

    thr = agg.dominance_threshold(np.array([0.95, 0.8, 0.8]), 2, 0)
    rec.check(
        "dominance_fixture", rec.close(thr, 16 / 17, 1e-9), _fmt(thr, 16 / 17)
    )
    post = oracle.bayes_posterior(np.array([0, 1, 1]), np.array([0.9, 0.6, 0.6]), 2)
    rec.check(
        "posterior_fixture",
        rec.close(float(post[0]), 0.8, 1e-12) and rec.close(float(post[1]), 0.2, 1e-12),
        f"posterior {post.round(6).tolist()}",
    )

    # CSV round trip of a second-order matrix is bit-exact
    so = empirical_second_order(pm_small)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "so.csv")
        write_second_order_csv(so, path)
        so2 = read_second_order_csv(path)
    rec.check(
        "secondorder_csv_round_trip",
        bool(np.array_equal(so.probs, so2.probs) and np.array_equal(so.imputed, so2.imputed)),
        "floats identical after write/read",
    )

    # uniform tie policy really is uniform across seeds
    counts = np.zeros(2, dtype=int)
    tied = np.array([0, 0, 1, 1])
    for s in range(400):
        counts[agg.aggregate_mv(tied, 2, agg.TiePolicy(agg.TIE_UNIFORM, seed=s))] += 1
    rec.check(
        "uniform_tie_frequency",
        158 <= counts[0] <= 242,
        f"label 0 picked {counts[0]}/400 times on a 2-2 split",
    )
    return rec.results


_SUITE_FNS = {
    "examples": _suite_examples,
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
    "thm4": _suite_thm4,
    "thm5": _suite_thm5,
    "props": _suite_props,
}


def run_suites(names, seed: int = 0, budget: int = oracle.DEFAULT_BUDGET) -> list[CheckResult]:
    """Run the named suites (or all of them) and return every check result."""

    if isinstance(names, str):
        names = [names]
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; expected one of {('all',) + SUITES}")
    results: list[CheckResult] = []
    for name in dict.fromkeys(expanded):
        results.extend(_SUITE_FNS[name](seed, budget))
    return results
