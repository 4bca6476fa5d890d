"""Brute-force ground truth for small instances.

Everything here is exact (up to float arithmetic): posteriors over the
true label, expected advantages and accuracies computed by enumerating
all K^N answer vectors, and closed-form expressions for the expected
advantage gaps between rules. These serve as oracles for the sampled
estimates elsewhere in the package.

Enumeration cost is K^N; calls beyond the configured budget raise
``ResourceError`` rather than silently grinding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, DomainError, ResourceError, _as_readonly, sigma_k
from .secondorder import (
    SecondOrderMatrix,
    cross_label_prob,
    exact_second_order,
    mixture_weighted_second_order,
    same_label_prob,
)
from . import aggregate as agg

__all__ = [
    "DEFAULT_BUDGET",
    "DifficultyMixture",
    "enumerate_vectors",
    "answer_vector_probs",
    "bayes_posterior",
    "mixture_posterior",
    "mixture_second_order",
    "mixture_answer_vector_probs",
    "joint_correct_probability",
    "exact_expected_advantage",
    "expected_mv_advantage",
    "expected_advantage_gaps",
    "expected_accuracy",
    "mixture_expected_advantage",
    "mixture_expected_accuracy",
]

DEFAULT_BUDGET = 10_000_000


# ---------------------------------------------------------------------------
# Difficulty mixtures
# ---------------------------------------------------------------------------

_FAMILY_ATOMS = "atoms"
_FAMILY_LOG_UNIFORM = "log_uniform"
_QUAD_ORDER = 64


@dataclass(frozen=True)
class DifficultyMixture:
    """Distribution over the per-question difficulty scale alpha >= 0.

    An agent with ability b answers a question of difficulty alpha
    correctly with probability sigma_k(alpha * b). Discrete mixtures are
    lists of (alpha, weight) atoms; the log-uniform family is handled by
    fixed-order Gauss-Legendre quadrature on the log domain.
    """

    family: str = _FAMILY_ATOMS
    alphas: np.ndarray | None = None
    weights: np.ndarray | None = None
    lo: float = 0.0
    hi: float = 0.0
    order: int = _QUAD_ORDER

    def __post_init__(self) -> None:
        if self.family == _FAMILY_ATOMS:
            a = np.asarray(self.alphas, dtype=float)
            w = np.asarray(self.weights, dtype=float)
            if a.ndim != 1 or a.shape != w.shape or a.shape[0] < 1:
                raise DimensionError("atoms need matching 1-d alphas and weights")
            if np.any(a < 0.0) or np.any(~np.isfinite(a)):
                raise DomainError("difficulty scales must be finite and nonnegative")
            if np.any(w <= 0.0) or abs(w.sum() - 1.0) > 1e-9:
                raise DomainError("atom weights must be positive and sum to 1")
            object.__setattr__(self, "alphas", _as_readonly(a))
            object.__setattr__(self, "weights", _as_readonly(w))
        elif self.family == _FAMILY_LOG_UNIFORM:
            if not (0.0 < self.lo < self.hi) or not np.isfinite(self.hi):
                raise DomainError(f"log-uniform needs 0 < lo < hi, got [{self.lo}, {self.hi}]")
            if self.order < 2:
                raise DomainError("quadrature order must be >= 2")
        else:
            raise DomainError(f"unknown mixture family {self.family!r}")

    @classmethod
    def atoms(cls, pairs) -> "DifficultyMixture":
        pairs = list(pairs)
        return cls(
            family=_FAMILY_ATOMS,
            alphas=np.array([p[0] for p in pairs], dtype=float),
            weights=np.array([p[1] for p in pairs], dtype=float),
        )

    @classmethod
    def log_uniform(cls, lo: float, hi: float, order: int = _QUAD_ORDER) -> "DifficultyMixture":
        return cls(family=_FAMILY_LOG_UNIFORM, lo=float(lo), hi=float(hi), order=int(order))

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Discrete (alphas, weights) representation used for expectations."""

        if self.family == _FAMILY_ATOMS:
            return np.asarray(self.alphas), np.asarray(self.weights)
        t, w = np.polynomial.legendre.leggauss(self.order)
        mid = 0.5 * (np.log(self.hi) + np.log(self.lo))
        half = 0.5 * (np.log(self.hi) - np.log(self.lo))
        return np.exp(mid + half * t), w / 2.0

    def sample(self, uniforms: np.ndarray) -> np.ndarray:
        """Inverse-CDF sample of alphas from uniforms on [0, 1)."""

        u = np.asarray(uniforms, dtype=float)
        if self.family == _FAMILY_ATOMS:
            cum = np.cumsum(self.weights)
            idx = np.searchsorted(cum, u, side="right")
            return np.asarray(self.alphas)[np.minimum(idx, len(cum) - 1)]
        return np.exp(np.log(self.lo) + u * (np.log(self.hi) - np.log(self.lo)))


# ---------------------------------------------------------------------------
# Enumeration and answer-vector probabilities
# ---------------------------------------------------------------------------


def enumerate_vectors(n: int, k: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All K^N answer vectors, shape (K^N, N), lexicographic order."""

    if n < 1 or k < 2:
        raise DimensionError(f"need n >= 1 and k >= 2, got n={n}, k={k}")
    total = k**n
    if total > budget:
        raise ResourceError(f"enumeration of {k}^{n} = {total} vectors exceeds budget {budget}")
    return np.indices((k,) * n).reshape(n, -1).T.astype(np.int64)


def _check_acc(accuracies) -> np.ndarray:
    x = np.asarray(accuracies, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DimensionError(f"accuracies must be a non-empty vector, got shape {x.shape}")
    if np.any(~np.isfinite(x)) or np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError("accuracies must lie in [0, 1]")
    return x


def answer_vector_probs(vectors: np.ndarray, truth_index: int, accuracies, k: int) -> np.ndarray:
    """P(answer vector | true label) under conditional independence."""

    x = _check_acc(accuracies)
    per_agent = np.where(vectors == truth_index, x[None, :], (1.0 - x[None, :]) / (k - 1))
    return per_agent.prod(axis=1)


def _mixture_correct_probs(abilities, mixture: DifficultyMixture, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-component per-agent correctness probabilities, shape (T, N)."""

    beta = np.asarray(abilities, dtype=float)
    if beta.ndim != 1 or beta.shape[0] < 1:
        raise DimensionError(f"abilities must be a non-empty vector, got shape {beta.shape}")
    if np.any(beta < 0.0) or np.any(~np.isfinite(beta)):
        raise DomainError("abilities must be finite and nonnegative")
    alphas, weights = mixture.nodes()
    return sigma_k(alphas[:, None] * beta[None, :], k), weights


def mixture_answer_vector_probs(
    vectors: np.ndarray, truth_index: int, abilities, mixture: DifficultyMixture, k: int
) -> np.ndarray:
    """P(answer vector | true label) under the difficulty-mixture model."""

    xs, weights = _mixture_correct_probs(abilities, mixture, k)
    out = np.zeros(vectors.shape[0])
    for x_t, w_t in zip(xs, weights):
        out += w_t * answer_vector_probs(vectors, truth_index, x_t, k)
    return out


def joint_correct_probability(abilities, mixture: DifficultyMixture, k: int) -> float:
    """P(all agents answer the true label) under the mixture model.

    Exceeds the product of marginal accuracies whenever difficulty varies:
    shared difficulty correlates the agents' errors.
    """

    xs, weights = _mixture_correct_probs(abilities, mixture, k)
    return float(np.dot(weights, xs.prod(axis=1)))


# ---------------------------------------------------------------------------
# Posteriors
# ---------------------------------------------------------------------------


def bayes_posterior(answers, accuracies, k: int) -> np.ndarray:
    """Posterior over the true label given one answer vector, uniform prior."""

    arr = np.asarray(answers)
    x = _check_acc(accuracies)
    if arr.ndim != 1 or arr.shape != x.shape:
        raise DimensionError(f"answers shape {arr.shape} does not match accuracies {x.shape}")
    if arr.min() < 0 or arr.max() >= k:
        raise DomainError(f"answer indices must lie in [0, {k})")
    like = np.empty(k)
    for s in range(k):
        like[s] = np.prod(np.where(arr == s, x, (1.0 - x) / (k - 1)))
    total = like.sum()
    if total <= 0.0:
        raise DomainError("answer vector has probability zero under the model")
    return like / total


def mixture_posterior(answers, abilities, mixture: DifficultyMixture, k: int) -> np.ndarray:
    """Posterior over the true label under the difficulty-mixture model.

    Computed in log space so that extreme alpha * beta products cannot
    overflow.
    """

    arr = np.asarray(answers)
    beta = np.asarray(abilities, dtype=float)
    if arr.ndim != 1 or arr.shape != beta.shape:
        raise DimensionError(f"answers shape {arr.shape} does not match abilities {beta.shape}")
    if arr.min() < 0 or arr.max() >= k:
        raise DomainError(f"answer indices must lie in [0, {k})")
    alphas, weights = mixture.nodes()
    # log P(a | s, alpha) = alpha * T_s - sum_i log(K - 1 + e^{alpha b_i})
    # with T_s the total ability of agents answering s.
    support = np.zeros(k)
    for s in range(k):
        support[s] = beta[arr == s].sum()
    z = alphas[:, None] * beta[None, :]  # (T, N)
    log_norm = np.logaddexp(np.log(k - 1.0), z).sum(axis=1)  # (T,)
    log_terms = np.log(weights)[:, None] + alphas[:, None] * support[None, :] - log_norm[:, None]
    log_post = _logsumexp(log_terms, axis=0)
    log_post -= log_post.max()
    post = np.exp(log_post)
    return post / post.sum()


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    top = a.max(axis=axis, keepdims=True)
    return (top + np.log(np.exp(a - top).sum(axis=axis, keepdims=True))).squeeze(axis)


def mixture_second_order(abilities, mixture: DifficultyMixture, k: int) -> SecondOrderMatrix:
    """Exact second-order matrix implied by the difficulty-mixture model."""

    xs, weights = _mixture_correct_probs(abilities, mixture, k)
    sames = same_label_prob(xs[:, :, None], xs[:, None, :], k)
    crosses = cross_label_prob(xs[:, :, None], xs[:, None, :], k)
    return mixture_weighted_second_order(
        sames, crosses, weights, k, meta={"abilities": tuple(float(b) for b in abilities)}
    )


# ---------------------------------------------------------------------------
# Expected advantages and accuracies by enumeration
# ---------------------------------------------------------------------------


def _expected_true_advantage(
    rule: str, vectors: np.ndarray, probs: np.ndarray, k: int, so: SecondOrderMatrix | None
) -> float:
    """E[advantage of label 0] when label 0 is true and ``probs`` weights ``vectors``.

    A rule's advantage is its score minus the mean over labels: for majority
    vote that is N/K; the peer rules' scores already sum to zero, so for
    them it changes only rounding.
    """

    scores = agg.score_batch(rule, vectors, k, so=so)
    return float(np.dot(probs, scores[:, 0] - scores.mean(axis=1)))


def exact_expected_advantage(
    rule: str, accuracies, k: int, budget: int = DEFAULT_BUDGET
) -> float:
    """E[advantage of the true label] under conditional independence.

    The expectation is over answer vectors; by label symmetry the true
    label can be fixed to index 0.
    """

    x = _check_acc(accuracies)
    vectors = enumerate_vectors(x.shape[0], k, budget)
    probs = answer_vector_probs(vectors, 0, x, k)
    so = exact_second_order(x, k) if rule in agg.SECOND_ORDER_RULES else None
    return _expected_true_advantage(rule, vectors, probs, k, so)


def expected_mv_advantage(accuracies, k: int) -> float:
    """Closed form: E[majority-vote advantage of the true label] = sum_i (x_i - 1/K)."""

    x = _check_acc(accuracies)
    return float(np.sum(x - 1.0 / k))


def expected_advantage_gaps(accuracies, k: int) -> tuple[float, float]:
    """Closed-form expected advantage gaps (counterfactual - MV, MV - peer-expected).

    Both share the numerator sum_{i != j} (K x_i - 1)(K x_j - 1)^2 and are
    nonnegative; the first carries an extra 1/(K-1) factor, so it decays
    faster as the label space grows.
    """

    x = _check_acc(accuracies)
    n = x.shape[0]
    if n < 2:
        raise DimensionError("gaps need at least 2 agents")
    c = k * x - 1.0
    num = float(c.sum() * (c**2).sum() - (c**3).sum())  # sum_{i != j} c_i c_j^2
    gap_isp_mv = num / ((n - 1) * k * (k - 1) ** 3)
    gap_mv_sp = num / ((n - 1) * k * (k - 1) ** 2)
    return gap_isp_mv, gap_mv_sp


def _expected_credit(scores: np.ndarray, vector_probs, k: int, tie_mode: str) -> float:
    """Probability that the row argmax of ``scores`` is the true label.

    ``vector_probs(t)`` gives P(vector | true label t). The true label is
    averaged over all K values, and a tie shared by the true label earns
    1/(number tied) under ``uniform_random``, 1 or 0 under ``lowest_index``.
    """

    tied = agg.tied_mask(scores)
    n_tied = tied.sum(axis=1)
    first = np.argmax(tied, axis=1)
    acc = 0.0
    for t in range(k):
        credit = tied[:, t] / n_tied if tie_mode == agg.TIE_UNIFORM else (first == t).astype(float)
        acc += float(np.dot(vector_probs(t), credit)) / k
    return acc


def expected_accuracy(
    rule: str,
    accuracies,
    k: int,
    weights: np.ndarray | None = None,
    tie_mode: str = agg.TIE_UNIFORM,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Exact expected accuracy of a rule under conditional independence.

    Ties contribute fractional credit under ``uniform_random`` and are
    averaged over all true labels, so asymmetric tie-breaking is handled
    correctly.
    """

    x = _check_acc(accuracies)
    vectors = enumerate_vectors(x.shape[0], k, budget)
    so = exact_second_order(x, k) if rule in agg.SECOND_ORDER_RULES else None
    scores = agg.score_batch(rule, vectors, k, so=so, weights=weights)
    return _expected_credit(scores, lambda t: answer_vector_probs(vectors, t, x, k), k, tie_mode)


def mixture_expected_advantage(
    rule: str, abilities, mixture: DifficultyMixture, k: int, budget: int = DEFAULT_BUDGET
) -> float:
    """E[advantage of the true label] under the difficulty-mixture model."""

    beta = np.asarray(abilities, dtype=float)
    vectors = enumerate_vectors(beta.shape[0], k, budget)
    probs = mixture_answer_vector_probs(vectors, 0, beta, mixture, k)
    so = mixture_second_order(beta, mixture, k) if rule in agg.SECOND_ORDER_RULES else None
    return _expected_true_advantage(rule, vectors, probs, k, so)


def mixture_expected_accuracy(
    rule: str,
    abilities,
    mixture: DifficultyMixture,
    k: int,
    tie_mode: str = agg.TIE_UNIFORM,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Exact expected accuracy under the difficulty-mixture model.

    Rules: ``mv``, ``sp``, ``isp``, ``eow`` (the ``weighted`` rule with the
    abilities as weights), and ``posterior`` (argmax of the exact mixture
    posterior, which is not a sum over agents).
    """

    beta = np.asarray(abilities, dtype=float)
    vectors = enumerate_vectors(beta.shape[0], k, budget)
    if rule == "posterior":
        scores = np.stack([mixture_posterior(v, beta, mixture, k) for v in vectors])
    else:
        rule = "weighted" if rule == "eow" else rule
        so = mixture_second_order(beta, mixture, k) if rule in agg.SECOND_ORDER_RULES else None
        scores = agg.score_batch(rule, vectors, k, so=so, weights=beta)
    return _expected_credit(
        scores, lambda t: mixture_answer_vector_probs(vectors, t, beta, mixture, k), k, tie_mode
    )
