"""Brute-force ground truth for small instances.

Everything here is exact (up to float arithmetic): posteriors over the
true label, expected advantages and accuracies computed by enumerating
all K^N answer vectors, and closed-form expressions for the expected
advantage gaps between rules. These serve as oracles for the sampled
estimates elsewhere in the package.

Enumeration cost is K^N; calls beyond the configured budget raise
``ResourceError`` rather than silently grinding. The expectations stream
the vectors in chunks that hold ``core._BLOCK_CELLS`` float64 cells of
scratch, so memory stays bounded whatever the budget allows. Both answer
models and every rule are label-symmetric, so the expectations visit one
vector per orbit of label relabellings, and the tie-break mode cannot
change their value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    DimensionError,
    DomainError,
    ResourceError,
    _check_abilities,
    _check_acc,
    _check_codes,
    _check_k,
    _freeze,
    sigma_k,
)
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

# Largest K^N an enumeration may visit. Memory does not grow with it (the
# vectors are streamed), so it caps running time only.
DEFAULT_BUDGET = 10_000_000


# ---------------------------------------------------------------------------
# Difficulty mixtures
# ---------------------------------------------------------------------------

_FAMILY_ATOMS = "atoms"
_FAMILY_LOG_UNIFORM = "log_uniform"
_QUAD_ORDER = 64


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights of order ``_QUAD_ORDER`` on [-1, 1], computed once.

    Newton's method on the three-term recurrence of P_n, from Tricomi's
    estimates of the roots (Hale & Townsend, SIAM J. Sci. Comput. 35(2),
    2013), in ascending order and made exactly symmetric as
    ``np.polynomial.legendre.leggauss`` makes them; it needs neither
    ``numpy.polynomial`` nor LAPACK's eigensolver.
    """

    n = _QUAD_ORDER
    theta = np.pi * (4.0 * np.arange(n, 0, -1) - 1.0) / (4.0 * n + 2.0)
    t = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(theta)  # ascending
    for _ in range(100):
        p, dp = _legendre(n, t)
        step = p / dp
        t -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    p, dp = _legendre(n, t)
    w = 2.0 / ((1.0 - t * t) * dp * dp)
    t = (t - t[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _legendre(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(t) and P_n'(t) by the three-term recurrence (j+1) P_{j+1} = (2j+1) t P_j - j P_{j-1}."""

    before, p = np.ones_like(t), t.copy()
    for j in range(1, n):
        before, p = p, ((2 * j + 1) * t * p - j * before) / (j + 1)
    return p, n * (t * p - before) / (t * t - 1.0)


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
            _freeze(self, alphas=np.array(a), weights=np.array(w))
        elif self.family == _FAMILY_LOG_UNIFORM:
            if not (0.0 < self.lo < self.hi) or not np.isfinite(self.hi):
                raise DomainError(f"log-uniform needs 0 < lo < hi, got [{self.lo}, {self.hi}]")
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
    def log_uniform(cls, lo: float, hi: float) -> "DifficultyMixture":
        return cls(family=_FAMILY_LOG_UNIFORM, lo=float(lo), hi=float(hi))

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Discrete (alphas, weights) representation used for expectations."""

        if self.family == _FAMILY_ATOMS:
            return np.asarray(self.alphas), np.asarray(self.weights)
        t, w = _gauss_legendre()
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


def _check_enumeration(n: int, k: int, budget: int) -> None:
    _check_k(k)
    if n < 1:
        raise DimensionError(f"need n >= 1, got n={n}")
    total = k**n
    if total > budget:
        raise ResourceError(f"enumeration of {k}^{n} = {total} vectors exceeds budget {budget}")


def enumerate_vectors(n: int, k: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All K^N answer vectors, shape (K^N, N), lexicographic order."""

    _check_enumeration(n, k, budget)
    rest = np.arange(k**n, dtype=np.int64)
    out = np.empty((k**n, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        rest, out[:, j] = np.divmod(rest, k)
    return out


def _completions(n: int, k: int) -> np.ndarray:
    """counts[i, m]: restricted-growth completions of positions i..N-1 once labels 0..m are used.

    Column K stays zero: no label beyond K - 1 can be opened.
    """

    counts = np.zeros((n + 1, k + 1), dtype=np.int64)
    counts[n, :k] = 1
    for i in range(n - 1, 0, -1):
        counts[i, :k] = np.arange(1, k + 1) * counts[i + 1, :k] + counts[i + 1, 1:]
    return counts


def _restricted_growth(lo: int, hi: int, n: int, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Restricted-growth strings lo..hi-1 in lexicographic order, and each one's largest label.

    A restricted-growth string starts at label 0 and each later entry is at
    most one more than the largest before it (Knuth, TAOCP 4A, 7.2.1.5):
    exactly one answer vector per orbit of label relabellings. Ranks are
    decoded position by position against the completion counts.
    """

    rank = np.arange(lo, hi, dtype=np.int64)
    out = np.zeros((hi - lo, n), dtype=np.int64)
    top = np.zeros(hi - lo, dtype=np.int64)
    for i in range(1, n):
        per_label = counts[i + 1, top]  # completions after reusing any one of labels 0..top
        reused = (top + 1) * per_label
        fresh = rank >= reused
        out[:, i] = np.where(fresh, top + 1, rank // per_label)
        rank = np.where(fresh, rank - reused, rank % per_label)
        top += fresh
    return out, top


def _vector_chunks(n: int, k: int, cells: float, held: int = 0):
    """Yield (vectors, multiplicities) chunks of orbit representatives, a block
    of ``core._row_blocks`` at the caller's ``cells`` a vector, beside the
    ``held`` cells it holds whatever the chunk's size.

    Each chunk holds restricted-growth representatives of the orbits of label
    relabellings; a representative with b distinct labels stands for the
    K!/(K-b)! vectors that relabel it, so the multiplicities sum to K^N.
    """

    counts = _completions(n, k)
    sizes = np.cumprod(np.arange(k, k - min(n, k), -1, dtype=np.float64))  # K!/(K-b)!, b = 1..
    for rows in core._row_blocks(int(counts[1, 0]), cells, held=held):  # counts[1, 0] representatives in all
        vectors, top = _restricted_growth(rows.start, rows.stop, n, counts)
        multiplicities = sizes[top]
        del top
        yield vectors, multiplicities
        del vectors, multiplicities  # or they are still alive while the next chunk is made


def answer_vector_probs(vectors: np.ndarray, truth_index: int, accuracies, k: int) -> np.ndarray:
    """P(answer vector | true label) under conditional independence."""

    x = _check_acc(accuracies, k)
    # np.where's choice, made by two assignments, which fill no ufunc buffers
    per_agent = np.empty(vectors.shape)
    per_agent[...] = (1.0 - x) / (k - 1)
    np.copyto(per_agent, x, where=vectors == truth_index)
    return per_agent.prod(axis=1)


def _mixture_correct_probs(abilities, mixture: DifficultyMixture, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-component per-agent correctness probabilities, shape (T, N)."""

    beta = _check_abilities(abilities)
    alphas, weights = mixture.nodes()
    return sigma_k(alphas[:, None] * beta[None, :], k), weights


def _node_chunk(nodes: int, n: int, k: int) -> int:
    """How many of a mixture's nodes ``_mixture_log_likelihoods`` mixes at once.

    A chunk holds its (nodes, N) normalising terms with the ufunc buffers of
    both broadcast factors (3 N nodes) and its log-norms and log-weights (2
    nodes), made again for each row block. Those take at most a quarter of
    ``core._BLOCK_CELLS``, so a block holds enough rows to pay for them, and
    leave room for one row's ``_mixture_row_cells`` at least.
    """

    budget = core._BLOCK_CELLS
    return max(1, min(nodes, budget // (4 * (3 * n + 2)), (budget - 5 * k) // (3 * k + 3 * n + 2)))


def _mixture_row_cells(chunk: int, n: int, k: int) -> int:
    """Float64 cells a vector holds at the peak of ``_mixture_log_likelihoods``
    beside its (K,) result, mixing ``chunk`` nodes at once: the weighted vote
    and ``_label_totals``' scratch (K + 2 N + 1 + max(N, K)), or the vote, the
    running top and total, and a (1 + nodes, K) slab of terms with the ufunc
    buffers of both broadcast factors of its product (3 nodes K + 5 K)."""

    return max(k + 2 * n + 1 + max(n, k), 3 * chunk * k + 5 * k)


def _node_slab(alphas, weights, beta: np.ndarray, support: np.ndarray, k: int) -> np.ndarray:
    """A (1 + T, V, K) slab whose first slot is left for a running total and whose
    slot 1 + t holds log P(v | s, alpha_t) + log w_t for the T nodes of ``alphas``
    and ``weights`` and the vectors whose weighted votes are ``support`` (V, K):
    alpha_t T_s + log w_t - sum_i log(K - 1 + e^{alpha_t b_i})."""

    log_norm = alphas[:, None] * beta[None, :]  # (T, N)
    np.logaddexp(np.log(k - 1.0), log_norm, out=log_norm)
    log_norm = log_norm.sum(axis=1)  # (T,)
    slab = np.empty((1 + alphas.shape[0],) + support.shape)
    terms = slab[1:]
    np.multiply(alphas[:, None, None], support, out=terms)
    terms += np.log(weights)[:, None, None]
    terms -= log_norm[:, None, None]
    return slab


def _mixture_log_likelihoods(
    vectors: np.ndarray, beta: np.ndarray, mixture: DifficultyMixture, k: int
) -> np.ndarray:
    """log_like[v, s] = log P(answer vector v | true label s) under the difficulty-mixture model.

    Per node, log P(v | s, alpha) = alpha * T_s - sum_i log(K - 1 + e^{alpha b_i}),
    with T_s the total ability of the agents answering s: the weighted
    vote. The nodes are mixed by a log-sum-exp, so extreme alpha * beta
    products cannot overflow. A row block's node-major terms are made one
    chunk of ``_node_chunk`` nodes at a time: for their top, then (made
    again if there are several chunks) to add their exp(term - top) in node
    order to the running total, which sits in the slab's first slot. That
    is the sum one (nodes, rows, K) array would give, so the likelihoods do
    not depend on the chunks. Each row block holds ``_mixture_row_cells`` a
    vector beside a chunk's normalising terms.
    """

    alphas, weights = mixture.nodes()
    n = beta.shape[0]
    chunk = _node_chunk(alphas.shape[0], n, k)
    starts = range(0, alphas.shape[0], chunk)
    log_like = np.empty((vectors.shape[0], k))
    held = chunk * (3 * n + 2)
    for rows in core._row_blocks(vectors.shape[0], _mixture_row_cells(chunk, n, k), held=held):
        support = agg.weighted_scores_batch(vectors[rows], beta, k)  # (V, K)
        top = slab = None
        for start in starts:
            del slab  # or two chunks' slabs are alive at once
            slab = _node_slab(alphas[start : start + chunk], weights[start : start + chunk], beta, support, k)
            top = slab[1:].max(axis=0) if top is None else np.maximum(top, slab[1:].max(axis=0), out=top)
        total = np.zeros_like(top)
        for start in starts:
            if len(starts) > 1:  # else the one chunk's slab is still here
                del slab
                slab = _node_slab(alphas[start : start + chunk], weights[start : start + chunk], beta, support, k)
            slab[1:] -= top
            slab[0] = -np.inf
            np.exp(slab, out=slab)
            slab[0] = total
            total = slab.sum(axis=0)
        del slab
        log_like[rows] = top + np.log(total)
    return log_like


def mixture_answer_vector_probs(
    vectors: np.ndarray, truth_index: int, abilities, mixture: DifficultyMixture, k: int
) -> np.ndarray:
    """P(answer vector | true label) under the difficulty-mixture model."""

    beta = _check_abilities(abilities)
    _check_k(k)
    return np.exp(_mixture_log_likelihoods(np.asarray(vectors), beta, mixture, k)[:, truth_index])


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


def _check_vectors(answers, shape: tuple[int, ...], k: int, what: str) -> np.ndarray:
    """One answer vector (N,) or a batch (V, N) of label indices, checked against N and K."""

    _check_k(k)
    arr = np.asarray(answers)
    if arr.ndim not in (1, 2) or arr.shape[-1:] != shape:
        raise DimensionError(f"answers shape {arr.shape} does not match {what} {shape}")
    _check_codes(arr, k)
    return arr


def _label_likelihoods(vectors: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """like[v, s] = P(answer vector v | true label s) under conditional independence."""

    like = np.empty((vectors.shape[0], k))
    for s in range(k):
        like[:, s] = answer_vector_probs(vectors, s, x, k)
    return like


def bayes_posterior(answers, accuracies, k: int) -> np.ndarray:
    """Posterior over the true label given answer vectors, uniform prior.

    ``answers`` is one vector (N,) or a batch (V, N); the result is (K,)
    or (V, K).
    """

    x = _check_acc(accuracies, k)
    arr = _check_vectors(answers, x.shape, k, "accuracies")
    like = _label_likelihoods(arr.reshape(-1, x.shape[0]), x, k)
    total = like.sum(axis=1, keepdims=True)
    if np.any(total <= 0.0):
        raise DomainError("answer vector has probability zero under the model")
    return (like / total).reshape(arr.shape[:-1] + (k,))


def mixture_posterior(answers, abilities, mixture: DifficultyMixture, k: int) -> np.ndarray:
    """Posterior over the true label under the difficulty-mixture model.

    ``answers`` is one vector (N,) or a batch (V, N); the result is (K,)
    or (V, K): the softmax over labels of the mixture log-likelihoods.
    """

    beta = _check_abilities(abilities)
    arr = _check_vectors(answers, beta.shape, k, "abilities")
    post = _mixture_log_likelihoods(arr.reshape(-1, beta.shape[0]), beta, mixture, k)
    for rows in core._row_blocks(post.shape[0], k + 2):  # a ufunc buffer (K), a top and a sum
        block = post[rows]
        block -= block.max(axis=1, keepdims=True)
        np.exp(block, out=block)
        block /= block.sum(axis=1, keepdims=True)
    return post.reshape(arr.shape[:-1] + (k,))


def mixture_second_order(abilities, mixture: DifficultyMixture, k: int) -> SecondOrderMatrix:
    """Exact second-order matrix implied by the difficulty-mixture model."""

    xs, weights = _mixture_correct_probs(abilities, mixture, k)
    sames = same_label_prob(xs[:, :, None], xs[:, None, :], k)
    crosses = cross_label_prob(xs[:, :, None], xs[:, None, :], k)
    return mixture_weighted_second_order(sames, crosses, weights, k)


# ---------------------------------------------------------------------------
# Expected advantages and accuracies by enumeration
# ---------------------------------------------------------------------------


def _expectation(n: int, k: int, cells: float, likelihoods, scores, per_label, held: int = 0) -> float:
    """(1/K) sum over true labels t and answer vectors v of P(v | t) * f[v, t].

    ``likelihoods(v)`` gives P(v | t) as (V, K), ``scores(v)`` a rule's
    (V, K) scores and ``per_label(scores)``, working in the scores' buffer,
    the value f of each label as the truth. ``cells`` counts the float64
    cells a vector holds at the peak of ``likelihoods`` or of ``scores``
    beside the likelihoods, and ``held`` what they hold whatever the chunk's
    size. The stream holds one vector per orbit of label relabellings,
    weighted by the orbit size, in chunks of ``_vector_chunks``. That is
    exact because relabelling v and t together leaves P(v | t) and f[v, t]
    unchanged: both models, every rule and every ``per_label`` here are
    label-symmetric.
    """

    total = 0.0
    # cells a vector: itself (N) and its orbit size (1), beside the larger of
    # ``cells`` and what ``per_label`` holds with the likelihoods and scores:
    # 2 K, a float64 ufunc buffer of each (2 K), a tie mask (K / 8) and a few (V,) arrays
    for vectors, sizes in _vector_chunks(n, k, n + 1 + max(cells, 4 * k + k / 8 + 6), held):
        values = likelihoods(vectors)
        values *= per_label(scores(vectors))
        total += float(np.dot(sizes, values.sum(axis=1) / k))
        del vectors, sizes, values  # or they are still alive while the next chunk is made
    return total


def _ci_expectation(
    rule: str, accuracies, k: int, budget: int, per_label, weights=None, tie_mode: str = agg.TIE_UNIFORM
) -> float:
    """``_expectation`` of a rule's ``per_label`` values under conditional independence."""

    x = _check_acc(accuracies, k)
    agg.TiePolicy(tie_mode)  # rejects an unknown mode
    _check_enumeration(x.shape[0], k, budget)
    so = exact_second_order(x, k) if rule in agg.SECOND_ORDER_RULES else None
    n = x.shape[0]
    return _expectation(
        n,
        k,
        # the likelihoods (K), beside the rule's scoring or one label's
        # likelihood: its per-agent factors (N), their mask (N / 8) and product
        k + max(agg._score_cells(rule, n, k)[0], n + n / 8 + 1),
        lambda v: _label_likelihoods(v, x, k),
        lambda v: agg.score_batch(rule, v, k, so=so, weights=weights),
        per_label,
    )


def _mixture_expectation(
    rule: str, abilities, mixture: DifficultyMixture, k: int, budget: int, per_label, tie_mode: str = agg.TIE_UNIFORM
) -> float:
    """``_expectation`` of a rule's ``per_label`` values under the difficulty-mixture
    model; ``eow`` is ``weighted`` with the abilities as weights, and ``posterior``
    scores each label by its exact mixture posterior."""

    beta = _check_abilities(abilities)
    agg.TiePolicy(tie_mode)  # rejects an unknown mode
    _check_enumeration(beta.shape[0], k, budget)
    rule = "weighted" if rule == "eow" else rule
    so = mixture_second_order(beta, mixture, k) if rule in agg.SECOND_ORDER_RULES else None

    def scores(v: np.ndarray) -> np.ndarray:
        if rule == "posterior":
            return mixture_posterior(v, beta, mixture, k)
        return agg.score_batch(rule, v, k, so=so, weights=beta)

    def likelihoods(v: np.ndarray) -> np.ndarray:
        like = _mixture_log_likelihoods(v, beta, mixture, k)
        return np.exp(like, out=like)

    n = beta.shape[0]
    chunk = _node_chunk(mixture.nodes()[0].shape[0], n, k)
    inner = _mixture_row_cells(chunk, n, k)
    # the likelihoods (K) beside the mixture kernel's rows, then the scores beside them:
    # the posterior's (K) beside the kernel's rows again, or the rule's scoring;
    # whatever the chunk's size, the kernel holds a node chunk's normalising terms
    cells = k + (k + inner if rule == "posterior" else max(inner, agg._score_cells(rule, n, k)[0]))
    return _expectation(n, k, cells, likelihoods, scores, per_label, held=chunk * (3 * n + 2))


def _centred(scores: np.ndarray) -> np.ndarray:
    """Advantage of each label: its score minus the mean over labels, in the scores' buffer.

    For majority vote that subtracts N/K; the peer rules' scores already
    sum to zero, so for them it changes only rounding.
    """

    scores -= scores.mean(axis=1, keepdims=True)
    return scores


def exact_expected_advantage(
    rule: str, accuracies, k: int, budget: int = DEFAULT_BUDGET
) -> float:
    """E[advantage of the true label] under conditional independence.

    The expectation is over answer vectors and, by label symmetry, the
    same for every true label.
    """

    return _ci_expectation(rule, accuracies, k, budget, _centred)


def expected_mv_advantage(accuracies, k: int) -> float:
    """Closed form: E[majority-vote advantage of the true label] = sum_i (x_i - 1/K)."""

    x = _check_acc(accuracies, k)
    return float(np.sum(x - 1.0 / k))


def expected_advantage_gaps(accuracies, k: int) -> tuple[float, float]:
    """Closed-form expected advantage gaps (counterfactual - MV, MV - peer-expected).

    Both share the numerator sum_{i != j} (K x_i - 1)(K x_j - 1)^2 and are
    nonnegative; the first carries an extra 1/(K-1) factor, so it decays
    faster as the label space grows.
    """

    x = _check_acc(accuracies, k)
    n = x.shape[0]
    if n < 2:
        raise DimensionError("gaps need at least 2 agents")
    c = k * x - 1.0
    num = float(c.sum() * (c**2).sum() - (c**3).sum())  # sum_{i != j} c_i c_j^2
    gap_isp_mv = num / ((n - 1) * k * (k - 1) ** 3)
    gap_mv_sp = num / ((n - 1) * k * (k - 1) ** 2)
    return gap_isp_mv, gap_mv_sp


def _credit(scores: np.ndarray) -> np.ndarray:
    """Share of the decision on each vector that each label earns as the truth.

    A tie shared by the true label earns 1/(number tied). That is the
    expected credit under either tie mode: relabelling (v, t) jointly by a
    uniformly random permutation makes the lowest tied index uniform over
    the tied set, and the expectations average over exactly such relabellings.
    """

    tied = agg.tied_mask(scores)
    return np.divide(tied, tied.sum(axis=1, keepdims=True), out=scores)


def expected_accuracy(
    rule: str,
    accuracies,
    k: int,
    weights: np.ndarray | None = None,
    tie_mode: str = agg.TIE_UNIFORM,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Exact expected accuracy of a rule under conditional independence.

    A tie earns the true label 1/(number tied) under either ``tie_mode``:
    averaged over all true labels, lowest-index tie-breaking gives the same
    value as uniform tie-breaking (see ``_credit``), so the mode is checked
    but cannot change the result.
    """

    return _ci_expectation(rule, accuracies, k, budget, _credit, weights, tie_mode)


def mixture_expected_advantage(
    rule: str, abilities, mixture: DifficultyMixture, k: int, budget: int = DEFAULT_BUDGET
) -> float:
    """E[advantage of the true label] under the difficulty-mixture model."""

    return _mixture_expectation(rule, abilities, mixture, k, budget, _centred)


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
    posterior, which is not a sum over agents). As in ``expected_accuracy``,
    ``tie_mode`` is checked but cannot change the result.
    """

    return _mixture_expectation(rule, abilities, mixture, k, budget, _credit, tie_mode)
