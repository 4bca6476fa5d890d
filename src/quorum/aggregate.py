"""Aggregation rules for one question's answer vector.

Three families of rules, ordered by the information they use:

  * zero-order: majority vote (MV) over the answers alone;
  * first-order: weighted vote, each agent contributing its log-odds
    weight to the label it chose;
  * second-order: rules that score each candidate label against what the
    agents were *expected* to answer, given their peers' answers. The
    peer-expected score subtracts predictability; its counterfactual
    variant averages the expectation over the answers each peer did NOT
    give, which rewards agreement that peers' behavior cannot explain.

Batch variants (suffix ``_batch``) evaluate all M questions of a
prediction matrix at once and are exact vectorizations of the
per-question functions. ``score_batch`` is the one map from a rule name
to its scores, and ``tied_mask`` the one definition of a tie.
``aggregate_batch`` scores and decides a whole matrix one row block at a
time, so no (M, K) score array is ever held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_EPS,
    DimensionError,
    DomainError,
    PredictionMatrix,
    _MASK64,
    _check_acc,
    _check_codes,
    _check_k,
    _code_dtype,
    _freeze,
    _row_blocks,
    ow_weights,
    sigma_k,
)
from .secondorder import SecondOrderMatrix

__all__ = [
    "TIE_LOWEST",
    "TIE_UNIFORM",
    "TiePolicy",
    "AdvantageVector",
    "RULES",
    "SECOND_ORDER_RULES",
    "tied_mask",
    "argmax_set",
    "vote_counts",
    "advantage_mv",
    "aggregate_mv",
    "aggregate_weighted",
    "sp_score",
    "isp_score",
    "advantage_sp",
    "advantage_isp",
    "aggregate_sp",
    "aggregate_isp",
    "dominance_threshold",
    "vote_counts_batch",
    "weighted_scores_batch",
    "sp_advantage_batch",
    "isp_advantage_batch",
    "score_batch",
    "decide_batch",
    "aggregate_batch",
]

TIE_LOWEST = "lowest_index"
TIE_UNIFORM = "uniform_random"

RULES = ("mv", "weighted", "sp", "isp")
# The rules that score answers against a second-order matrix.
SECOND_ORDER_RULES = ("sp", "isp")


def tied_mask(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """True where a score is within tolerance of the maximum along ``axis`` (the labels)."""

    scores = np.asarray(scores, dtype=float)
    top = scores.max(axis=axis, keepdims=True)
    return scores >= top - (1e-12 + 1e-9 * np.abs(top))


def argmax_set(scores: np.ndarray) -> np.ndarray:
    """Indices within tolerance of the maximum score."""

    return np.flatnonzero(tied_mask(scores))


_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x):
    """The splitmix64 output function (Steele, Lea & Flood, 2014) on a uint64 array or a Python int."""

    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def _tie_draw(seed: int, questions, counts) -> np.ndarray:
    """Which of ``counts`` tied labels each question picks, in [0, count).

    Question q draws output q of a splitmix64 stream keyed by ``seed``: a
    pure function of (seed, q), whatever the batch, its order or M. The
    top 53 bits give a uniform in [0, 1), scaled by the tie count.
    """

    key = _splitmix64(int(seed) & _MASK64)  # a Python int: one key costs no array ops
    q = np.array(questions, ndmin=1).astype(np.uint64)
    if q.size == 1 and np.size(counts) == 1:  # Python ints: a dozen one-element ufunc calls cost more
        bits = _splitmix64((key + (int(q[0]) + 1) * int(_GOLDEN_GAMMA)) & _MASK64)
        return np.array([int(float(bits >> 11) * 2.0**-53 * int(np.ravel(counts)[0]))])
    bits = _splitmix64(key + (q + np.uint64(1)) * _GOLDEN_GAMMA)
    uniform = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return (uniform * np.asarray(counts)).astype(np.int64)


@dataclass(frozen=True)
class TiePolicy:
    """How to resolve tied top scores.

    ``lowest_index`` picks the smallest label index; ``uniform_random``
    picks uniformly among the tied labels, deterministically as a function
    of (seed, question_index).
    """

    mode: str = TIE_UNIFORM
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in (TIE_LOWEST, TIE_UNIFORM):
            raise DomainError(f"unknown tie mode {self.mode!r}")

    def pick(self, scores: np.ndarray, question_index: int = 0) -> int:
        """The label ``decide_batch`` gives one question's scores."""

        return int(decide_batch(np.asarray(scores)[None], self, question_index)[0])


@dataclass(frozen=True)
class AdvantageVector:
    """Per-label advantage scores for one question under one rule.

    The chosen label is the argmax. Entries sum to zero and are bounded
    by the number of agents in absolute value.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] < 2:
            raise DimensionError(f"advantage vector must be 1-d with K >= 2, got shape {vals.shape}")
        _freeze(self, values=np.array(vals))

    @property
    def k(self) -> int:
        return int(self.values.shape[0])

    def argmax_set(self) -> np.ndarray:
        return argmax_set(self.values)


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------


def _check_answers(answers, k: int, min_agents: int = 1, ndim: int = 1) -> np.ndarray:
    """An answer vector (ndim 1) or (M, N) matrix (ndim 2) of integer codes.

    Codes that cast safely to int64 (narrow ones included) are returned as
    they are; kernels widen them one row block at a time.
    """

    _check_k(k)
    arr = np.asarray(answers)
    if arr.ndim != ndim or arr.shape[-1] < min_agents:
        what = "a 1-d vector" if ndim == 1 else "an (M, N) matrix"
        raise DimensionError(
            f"answers must be {what} of at least {min_agents} agents, got shape {arr.shape}"
        )
    _check_codes(arr, k)
    return arr if np.can_cast(arr.dtype, np.int64) else arr.astype(np.int64)


# ---------------------------------------------------------------------------
# Zero- and first-order rules
# ---------------------------------------------------------------------------


def vote_counts(answers, k: int) -> np.ndarray:
    arr = _check_answers(answers, k)
    return np.bincount(arr, minlength=k).astype(float)


def advantage_mv(answers, k: int) -> AdvantageVector:
    """Vote count of each label minus the uniform share N/K."""

    arr = _check_answers(answers, k)
    return AdvantageVector(vote_counts(arr, k) - arr.shape[0] / k)


def aggregate_mv(answers, k: int, tie: TiePolicy | None = None, question_index: int = 0) -> int:
    tie = tie or TiePolicy()
    return tie.pick(vote_counts(answers, k), question_index)


def aggregate_weighted(
    answers, weights, k: int, tie: TiePolicy | None = None, question_index: int = 0
) -> int:
    """Pick the label with the largest total weight of supporting agents."""

    scores = weighted_scores_batch(_check_answers(answers, k)[None, :], weights, k)[0]
    return (tie or TiePolicy()).pick(scores, question_index)


# ---------------------------------------------------------------------------
# Second-order rules
# ---------------------------------------------------------------------------


def _gather_totals(tables: np.ndarray, answers: np.ndarray) -> np.ndarray:
    """totals[s, q] = sum over j of tables[j, answers[q, j], s], summed in agent order. Shape (K, M)."""

    totals = np.zeros((answers.shape[0], tables.shape[2]))
    for table, column in zip(tables, answers.T):
        # the method, not np.take: its wrapper costs more than the gather at small blocks;
        # 2-4x faster than table[...] at K <= 4
        totals += table.take(column, axis=0)
    return np.ascontiguousarray(totals.T)  # one copy: faster at every K than a label-major gather


def _label_totals(answers: np.ndarray, k: int, weights: np.ndarray | None = None) -> np.ndarray:
    """totals[s, q] = sum of weights[j] (1 if unweighted) over agents j with answers[q, j] == s."""

    m, n = answers.shape
    totals = np.empty((k, m))
    offsets = None
    # cells a row: its flat codes (N) and row offset (1), then the buffer of
    # adding the offsets (N) or the bincount (K), and its tiled weights (N) if weighted
    tiled = 0 if weights is None else n
    for rows in _row_blocks(m, n + 1 + max(n, k) + tiled, unbuffered=n + 1 + k + tiled):
        block = answers[rows]
        b = block.shape[0]
        if offsets is None:  # the first block is the largest: its scaffolding serves every block
            offsets = np.arange(b)[:, None]
            block_weights = None if weights is None else np.tile(weights, b)
        codes = block.astype(np.intp)  # widened first: a narrow code times b overflows
        codes *= b
        codes += offsets[:b]  # flat code a*b + q within the block
        w = None if weights is None else block_weights[: b * n]
        totals[:, rows] = np.bincount(codes.ravel(), w, minlength=k * b).reshape(k, b)
    return totals


def vote_counts_batch(answers: np.ndarray, k: int) -> np.ndarray:
    return _label_totals(_check_answers(answers, k, ndim=2), k).T


def weighted_scores_batch(answers: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    answers = _check_answers(answers, k, ndim=2)
    w = np.asarray(weights, dtype=float)
    if w.shape != (answers.shape[1],):
        raise DimensionError(f"weights shape {w.shape} does not match N={answers.shape[1]}")
    if not np.all(np.isfinite(w)):
        raise DomainError("weights must be finite")
    return _label_totals(answers, k, w).T


def _peer_advantage_batch(rule: str, pm_or_answers, so: SecondOrderMatrix, k: int | None) -> np.ndarray:
    """Vote counts minus the rule's peer-table totals averaged over the N - 1 peers."""

    if isinstance(pm_or_answers, PredictionMatrix):
        pm_or_answers, k = pm_or_answers.answers, pm_or_answers.k
    k = so.k if k is None else k
    answers = _check_answers(pm_or_answers, k, min_agents=2, ndim=2)
    _check_so(so, answers.shape[1], k)
    totals = _gather_totals(so.peer_tables(rule), answers)
    totals /= -(answers.shape[1] - 1)  # in place: the same bits as counts - totals / (N - 1)
    totals += _label_totals(answers, k)
    return totals.T


def sp_advantage_batch(pm_or_answers, so: SecondOrderMatrix, k: int | None = None) -> np.ndarray:
    """Advantage of the peer-expected rule for every question, shape (M, K)."""

    return _peer_advantage_batch("sp", pm_or_answers, so, k)


def isp_advantage_batch(pm_or_answers, so: SecondOrderMatrix, k: int | None = None) -> np.ndarray:
    """Advantage of the counterfactual peer rule for every question."""

    return _peer_advantage_batch("isp", pm_or_answers, so, k)


def score_batch(
    rule: str,
    answers: np.ndarray,
    k: int,
    so: SecondOrderMatrix | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Score of every label on every question under one rule: an (M, K) view of a (K, M) array.

    ``mv`` counts votes, ``weighted`` sums the ``weights`` of the agents
    that chose each label, and ``sp``/``isp`` give each label's advantage
    against the second-order matrix ``so``. Each is a sum over agents: the
    first two run as one bincount, the peer rules as a gather from the
    per-agent (K, K) tables that ``so.peer_tables`` builds once per matrix.
    The decision is the argmax of each row.
    """

    if rule == "mv":
        return vote_counts_batch(answers, k)
    if rule == "weighted":
        if weights is None:
            raise DomainError("the weighted rule needs per-agent weights")
        return weighted_scores_batch(answers, weights, k)
    if rule in SECOND_ORDER_RULES:
        if so is None:
            raise DomainError(f"the {rule} rule needs a second-order matrix")
        leaf = sp_advantage_batch if rule == "sp" else isp_advantage_batch
        return leaf(answers, so, k)
    raise DomainError(f"unknown rule {rule!r}; expected one of {RULES}")


def _score_cells(rule: str, n: int, k: int) -> tuple[float, float]:
    """Float64 cells a question holds at the peak of ``score_batch(rule, ...)``
    on a block and of ``decide_batch`` on its scores, and the same count
    without ufunc buffers (see ``core._row_blocks``).

    Scoring holds the label totals (K) and what ``_label_totals`` holds
    beside them: the flat codes (N), a row offset (1), and the buffer of
    adding the offsets (N) or the bincount (K); the weighted rule adds its
    tiled weights (N), the peer rules their gathered totals (K). Deciding
    holds the scores (K), the float64 buffer of comparing them with their
    top (K), the masks, running counts and buffers of the tie-break (K / 2)
    and a few (rows,) arrays (4).
    """

    cells = k + n + 1
    if rule == "weighted":
        cells += n
    elif rule in SECOND_ORDER_RULES:
        cells += k
    return max(cells + max(n, k), 2.5 * k + 4), max(cells + k, 1.5 * k + 4)


def _check_so(so: SecondOrderMatrix, n: int, k: int) -> None:
    if so.n != n or so.k != k:
        raise DimensionError(
            f"second-order matrix is for N={so.n}, K={so.k}; answers have N={n}, K={k}"
        )


def sp_score(answers, so: SecondOrderMatrix, target_agent: int, target_label: int) -> float:
    """Peers' average expected probability that the target agent answers the target label.

    S(s, i) = (1/(N-1)) * sum over j != i of P(A_i = s | A_j = a_j).
    """

    arr, i, s = _check_target(answers, so, target_agent, target_label)
    peers = [j for j in range(arr.shape[0]) if j != i]
    vals = [so.probs[i, j, s, arr[j]] for j in peers]
    return float(np.mean(vals))


def isp_score(answers, so: SecondOrderMatrix, target_agent: int, target_label: int) -> float:
    """Like ``sp_score`` but averaging over the answers each peer did not give.

    S(s, i) = (1/(N-1)) * sum over j != i of
              (1/(K-1)) * sum over a != a_j of P(A_i = s | A_j = a).
    """

    arr, i, s = _check_target(answers, so, target_agent, target_label)
    k = so.k
    vals = []
    for j in range(arr.shape[0]):
        if j == i:
            continue
        others = [a for a in range(k) if a != arr[j]]
        vals.append(np.mean([so.probs[i, j, s, a] for a in others]))
    return float(np.mean(vals))


def _check_target(answers, so: SecondOrderMatrix, target_agent: int, target_label: int) -> tuple:
    """The answers, agent and label a per-question peer score is asked for, checked against ``so``."""

    arr = _check_answers(answers, so.k, min_agents=2)
    _check_so(so, arr.shape[0], so.k)
    if not 0 <= target_agent < arr.shape[0]:
        raise DimensionError(f"target agent {target_agent} out of range [0, {arr.shape[0]})")
    if not 0 <= target_label < so.k:
        raise DomainError(f"target label {target_label} out of range [0, {so.k})")
    return arr, int(target_agent), int(target_label)


def _peer_advantage(rule: str, answers, so: SecondOrderMatrix) -> AdvantageVector:
    arr = _check_answers(answers, so.k, min_agents=2)
    return AdvantageVector(score_batch(rule, arr[None, :], so.k, so=so)[0])


def advantage_sp(answers, so: SecondOrderMatrix) -> AdvantageVector:
    return _peer_advantage("sp", answers, so)


def advantage_isp(answers, so: SecondOrderMatrix) -> AdvantageVector:
    return _peer_advantage("isp", answers, so)


def aggregate_sp(
    answers, so: SecondOrderMatrix, tie: TiePolicy | None = None, question_index: int = 0
) -> tuple[int, AdvantageVector]:
    adv = advantage_sp(answers, so)
    return (tie or TiePolicy()).pick(adv.values, question_index), adv


def aggregate_isp(
    answers, so: SecondOrderMatrix, tie: TiePolicy | None = None, question_index: int = 0
) -> tuple[int, AdvantageVector]:
    adv = advantage_isp(answers, so)
    return (tie or TiePolicy()).pick(adv.values, question_index), adv


def decide_batch(
    scores: np.ndarray, tie: TiePolicy | None = None, first_question: int = 0, *, return_ties=False
):
    """Argmax of each row, resolving ties per the policy: (M,) labels in the code dtype of K.

    Row r is question ``first_question + r``, whose index keys its uniform
    tie draw. With ``return_ties`` the result is ``(labels, ties)``, where
    ``ties`` counts the rows whose top score was tied. It works on the (K, M) transpose.
    """

    tie = tie or TiePolicy()
    tied = tied_mask(np.ascontiguousarray(np.asarray(scores, dtype=float).T), axis=0)  # (K, M)
    (k, m), small = tied.shape, np.min_scalar_type(len(tied))
    if m <= 64:  # argmax along axis 0 costs a call per row, the cheapest for a few rows only
        labels = np.argmax(tied, axis=0)
    else:  # the lowest tied index from a max over the K rows, elementwise, in the type that holds K
        rank = np.multiply(tied, np.arange(k, 0, -1, dtype=small)[:, None], dtype=small)
        labels = np.subtract(k, rank.max(axis=0), dtype=small)
        labels[labels == k] = 0  # none tied, as argmax gives: the top is a NaN or inf
    labels = labels.astype(_code_dtype(k), copy=False)
    if tie.mode == TIE_LOWEST and not return_ties:
        return labels
    rows = np.flatnonzero(np.add.reduce(tied, axis=0, dtype=small) > 1)
    if tie.mode == TIE_UNIFORM and rows.size:
        # the draws-th tied label (0-based) is the first whose running count passes draws
        running = np.cumsum(tied[:, rows], axis=0, dtype=small)
        draws = _tie_draw(tie.seed, rows + first_question, running[-1]).astype(small)
        labels[rows] = (running <= draws).sum(axis=0)
    return (labels, int(rows.size)) if return_ties else labels


def aggregate_batch(
    rule: str,
    answers: np.ndarray,
    k: int,
    tie: TiePolicy | None = None,
    so: SecondOrderMatrix | None = None,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Labels of all M questions under one rule, and how many had a tied top score.

    The labels equal ``decide_batch(score_batch(rule, answers, k, so, weights), tie)``,
    but each block of ``core._row_blocks`` is scored and decided on its own:
    memory holds the (M,) labels and one block, never a (K, M) array. A block
    has as many rows as fit the one block budget, ``core._BLOCK_CELLS``
    float64 cells (768 KiB, sized to stay in the 2 MiB per-core L2), at the
    count of ``_score_cells``: every temporary the rule's scoring and the
    decision hold at their peak. A peer rule reads the (N, K, K) tables that
    ``so`` keeps (see ``SecondOrderMatrix.peer_tables``).
    """

    answers = _check_answers(answers, k, ndim=2)
    m, n = answers.shape
    labels = np.empty(m, dtype=_code_dtype(k))
    ties = 0
    cells, unbuffered = _score_cells(rule, n, k)
    for rows in _row_blocks(m, cells, unbuffered=unbuffered):
        labels[rows], tied = decide_batch(
            score_batch(rule, answers[rows], k, so=so, weights=weights),
            tie,
            rows.start,
            return_ties=True,
        )
        ties += tied
    return labels, ties


# ---------------------------------------------------------------------------
# Dominance threshold
# ---------------------------------------------------------------------------


def dominance_threshold(accuracies, k: int, target_agent: int, eps: float = DEFAULT_EPS) -> float:
    """Accuracy above which one agent should simply be trusted outright.

    Equals sigma_k of the total log-odds weight of the other agents: if
    the target agent's accuracy exceeds this value, its own answer is the
    optimal aggregate no matter what the others say; below it, weighted
    voting strictly improves on the agent alone.
    """

    x = _check_acc(accuracies, k)
    if x.shape[0] < 2:
        raise DimensionError(f"need at least 2 agents, got shape {x.shape}")
    if not 0 <= target_agent < x.shape[0]:
        raise DimensionError(f"target agent {target_agent} out of range [0, {x.shape[0]})")
    others = np.delete(x, target_agent)
    return float(sigma_k(float(ow_weights(others, k, eps).sum()), k))
