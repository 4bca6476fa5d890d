"""Second-order conditional answer probabilities.

For agents i, j and labels s_k, s_l the second-order matrix holds
P(A_i = s_k | A_j = s_l): how agent i is expected to answer given what
agent j answered. Under the conditionally-independent model with uniform
(shuffled) truth these probabilities have a closed form in the agent
accuracies; from data they are estimated by conditional frequencies.

Conventions used throughout:
  * probs[i, j, k, l] = P(A_i = s_k | A_j = s_l)
  * each column (i, j, :, l) sums to 1
  * diagonal blocks (i == j) are identity
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionError,
    DomainError,
    FormatError,
    PredictionMatrix,
    _check_acc,
    _freeze,
    _row_blocks,
)
from .dataio import _csv_text, atomic_write_text

__all__ = [
    "SecondOrderMatrix",
    "same_label_prob",
    "cross_label_prob",
    "exact_second_order",
    "empirical_second_order",
    "pair_counts",
    "write_second_order_csv",
    "read_second_order_csv",
]

_COLSUM_TOL = 1e-9


@dataclass(frozen=True)
class SecondOrderMatrix:
    """Conditional answer probabilities for every ordered agent pair.

    ``probs[i, j, k, l]`` is P(A_i = s_k | A_j = s_l). ``imputed`` flags
    cells whose conditioning event was never observed (filled with 1/K).
    ``source`` records how the matrix was built.
    """

    probs: np.ndarray
    imputed: np.ndarray
    source: str

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        self._check(probs, self.imputed)
        _freeze(self, probs=np.array(probs), imputed=np.array(self.imputed, bool))

    @staticmethod
    def _check(probs: np.ndarray, imputed) -> None:
        if probs.ndim != 4 or probs.shape[0] != probs.shape[1] or probs.shape[2] != probs.shape[3]:
            raise DimensionError(f"probs must have shape (N, N, K, K), got {probs.shape}")
        n, _, k, _ = probs.shape
        if n < 1 or k < 2:
            raise DimensionError(f"need N >= 1 agents and K >= 2 labels, got N={n}, K={k}")
        # a block of agents at a time: cells an agent i holds are the two bool
        # masks of probs[i] (N K^2 / 4), then its (N, K) column sums and the few
        # arrays of that shape that np.allclose makes (8 N K)
        for rows in _row_blocks(n, n * k * k / 4):
            if np.any(probs[rows] < -_COLSUM_TOL) or np.any(probs[rows] > 1.0 + _COLSUM_TOL):
                raise DomainError("probabilities must lie in [0, 1]")
        for rows in _row_blocks(n, 8 * n * k):
            if not np.allclose(probs[rows].sum(axis=2), 1.0, atol=_COLSUM_TOL):
                worst = float(np.abs(probs.sum(axis=2) - 1.0).max())
                raise DomainError(f"each conditional column must sum to 1 (worst deviation {worst:.3e})")
        if np.shape(imputed) != probs.shape:
            raise DimensionError(f"imputed flags must match probs shape, got {np.shape(imputed)}")

    @classmethod
    def _adopt(cls, probs: np.ndarray, imputed: np.ndarray, source: str) -> "SecondOrderMatrix":
        """A matrix that keeps ``probs`` (float) and ``imputed`` (bool), arrays
        that only the caller holds, frozen in place where the constructor
        would copy them."""

        cls._check(probs, imputed)
        return _freeze(object.__new__(cls), probs=probs, imputed=imputed, source=source)

    @property
    def n(self) -> int:
        return int(self.probs.shape[0])

    @property
    def k(self) -> int:
        return int(self.probs.shape[2])

    def peer_tables(self, rule: str) -> np.ndarray:
        """Per-agent tables T[j, l, s] of peer rule ``sp`` or ``isp``, laid out (N, K_answer, K_score).

        ``sp``: T[j, l, s] = sum over i != j of P(A_i = s | A_j = s_l).
        ``isp``: T[j, l, s] = sum over i != j of mean_{a != s_l} P(A_i = s | A_j = a).
        Agent j's contribution to a block of questions is then a gather of whole
        rows of T[j], one per question. Built on first use, which holds one (N, N,
        K, K) table (``isp``) and two (N, K, K) ones, and kept read-only with the
        matrix, whose arrays cannot change: it adds (N, K, K) cells a rule.
        """

        if rule not in ("sp", "isp"):
            raise DomainError(f"no peer tables for rule {rule!r}; expected 'sp' or 'isp'")
        if f"_{rule}_tables" not in self.__dict__:
            probs = self.probs
            if rule == "isp":
                probs = probs.sum(axis=3, keepdims=True) - probs
                probs /= self.k - 1
            idx = np.arange(self.n)
            tables = probs.sum(axis=0)
            tables -= probs[idx, idx]  # the sum over i, less i == j
            _freeze(self, **{f"_{rule}_tables": np.ascontiguousarray(tables.transpose(0, 2, 1))})
        return self.__dict__[f"_{rule}_tables"]


def same_label_prob(x_i, x_j, k: int):
    """P(A_i = s | A_j = s): both right, or both wrong on the same label."""

    return x_i * x_j + (1.0 - x_i) * (1.0 - x_j) / (k - 1)


def cross_label_prob(x_i, x_j, k: int):
    """P(A_i = s | A_j = s') for s != s'."""

    return (x_i * (1.0 - x_j) + (1.0 - x_i) * x_j) / (k - 1) + (k - 2) * (1.0 - x_i) * (
        1.0 - x_j
    ) / (k - 1) ** 2


def _assemble(same: np.ndarray, cross: np.ndarray, k: int, source: str) -> SecondOrderMatrix:
    """The matrix whose (N, N, K, K) probs are built from per-pair same/cross
    values, with no cell imputed."""

    n = same.shape[0]
    eye = np.eye(k, dtype=bool)
    probs = np.where(eye, same[:, :, None, None], cross[:, :, None, None])
    idx = np.arange(n)
    probs[idx, idx] = np.eye(k)
    return SecondOrderMatrix._adopt(probs, np.zeros(probs.shape, dtype=bool), source)


def exact_second_order(accuracies, k: int) -> SecondOrderMatrix:
    """Model-implied second-order matrix for given per-agent accuracies.

    Accuracies may lie anywhere in [0, 1] (the closed endpoints describe
    always-wrong and infallible agents); no clamping is applied here.
    """

    x = _check_acc(accuracies, k)
    same = same_label_prob(x[:, None], x[None, :], k)
    cross = cross_label_prob(x[:, None], x[None, :], k)
    return _assemble(same, cross, k, "exact")


def mixture_weighted_second_order(sames, crosses, weights, k: int) -> SecondOrderMatrix:
    """Average per-pair same/cross values over mixture components.

    ``sames``/``crosses`` have shape (T, N, N) for T components. Valid
    because the conditioning answer's marginal is uniform for every
    component, so conditional probabilities mix linearly.
    """

    w = np.asarray(weights, dtype=float)
    same = np.tensordot(w, np.asarray(sames, dtype=float), axes=1)
    cross = np.tensordot(w, np.asarray(crosses, dtype=float), axes=1)
    return _assemble(same, cross, k, "exact_mixture")


# Label counts up to this size take the one-hot Gram product; larger ones take
# one bincount per agent, whose cost does not grow with K. On the benchmark's
# inputs the Gram path is 25x faster at N=100, K=2 and 9x slower at N=10, K=50.
_GRAM_MAX_K = 16


def _gram(answers: np.ndarray, n: int, k: int) -> np.ndarray:
    """X^T X, as int64, for the one-hot matrix X whose column j*K + a marks
    A_j = s_a: entry [i*K + a, j*K + b] counts the questions with A_i = s_a
    and A_j = s_b.

    Each block's float32 product is a sum of one 1 per row of the block,
    fewer than _BLOCK_CELLS rows, below 2**24, so float32 holds it exactly.
    """

    width = n * k
    gram = np.zeros((width, width), dtype=np.int64)
    product = np.empty((width, width), dtype=np.float32)
    whole = np.empty((width, width), dtype=np.int64)
    base = None
    # cells a row: its flat one-hot index (N) and base (N), and its float32
    # one-hot row (N K / 2); beside the block, the (NK, NK) Gram and its
    # product, in float32 and in int64, hold 2.5 tables
    for rows in _row_blocks(answers.shape[0], 2 * n + width / 2):
        b = rows.stop - rows.start
        if base is None:  # the first block is the largest: its arrays serve every block
            base = np.arange(0, b * width, width)[:, None] + np.arange(0, width, k)  # q NK + j K
            index_rows = np.empty((b, n), dtype=np.intp)
            onehot_rows = np.empty((b, width), dtype=np.float32)
        index, onehot = index_rows[:b], onehot_rows[:b]
        np.copyto(index, answers[rows])
        index += base[:b]  # flat index of A_j = s_a in row q of the one-hot block
        onehot.fill(0.0)
        onehot.reshape(-1)[index.ravel()] = 1.0
        np.matmul(onehot.T, onehot, out=product)
        np.copyto(whole, product, casting="unsafe")
        gram += whole
    return gram


def pair_counts(pm: PredictionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Joint answer counts for every ordered agent pair.

    Returns ``(counts, denom)`` where ``counts[i, j, k, l]`` is the number
    of questions with A_i = s_k and A_j = s_l, and ``denom[j, l]`` the
    number with A_j = s_l.
    """

    n, k = pm.n, pm.k
    answers = pm.answers
    if k <= _GRAM_MAX_K:
        counts = np.ascontiguousarray(_gram(answers, n, k).reshape(n, k, n, k).transpose(0, 2, 1, 3))
    else:
        counts = np.zeros((n, n, k, k), dtype=np.int64)
        # cells a row: agent j's codes against agents j.. (N) and the buffer of
        # adding to them (N); beside the block, agent j's pair counts (N K^2)
        for rows in _row_blocks(pm.m, 2 * n, held=n * k * k, unbuffered=n):
            block = answers[rows]
            for j in range(n):
                # code (i - j)*K^2 + A_i*K + A_j for every agent i >= j at once, in
                # int64: in the answers' narrow dtype A_i*K would overflow
                codes = block[:, j:].astype(np.int64)
                codes *= k
                codes += block[:, j : j + 1]
                codes += np.arange(n - j) * (k * k)
                pairs = np.bincount(codes.ravel(), minlength=(n - j) * k * k)
                counts[j:, j] += pairs.reshape(n - j, k, k)
                del codes  # or it is still alive while the next agent's codes are built
        for j in range(n):
            counts[j, j + 1 :] = counts[j + 1 :, j].transpose(0, 2, 1)
    idx = np.arange(n)
    denom = np.ascontiguousarray(np.diagonal(counts[idx, idx], axis1=1, axis2=2))
    return counts, denom


def _from_counts(counts: np.ndarray, denom: np.ndarray, k: int, smoothing: float) -> SecondOrderMatrix:
    """The matrix of conditional frequencies; ``counts`` (int64) becomes its table."""

    n = counts.shape[0]
    if smoothing < 0.0:
        raise DomainError(f"smoothing must be nonnegative, got {smoothing}")
    den = denom.astype(float) + k * smoothing
    unseen = denom == 0  # (n, k): conditioning label never observed for agent j
    # The float table takes over the counts' buffer, converted one agent's
    # block at a time (numpy copies an overlapping source before casting it),
    # so the (N, N, K, K) counts take no second table.
    probs = counts.view(float)
    for i in range(n):
        probs[i] = counts[i]
    probs += smoothing
    with np.errstate(invalid="ignore", divide="ignore"):
        probs /= den[None, :, None, :]
    np.copyto(probs, 1.0 / k, where=den[None, :, None, :] == 0.0)
    imputed = np.broadcast_to(unseen[None, :, None, :], probs.shape).copy()
    # diagonal blocks are identity by convention, never estimated
    idx = np.arange(n)
    probs[idx, idx] = np.eye(k)
    imputed[idx, idx] = False
    return SecondOrderMatrix._adopt(probs, imputed, "empirical")


def empirical_second_order(pm: PredictionMatrix, smoothing: float = 0.0) -> SecondOrderMatrix:
    """Estimate the second-order matrix by conditional frequencies.

    Columns whose conditioning event never occurs are filled with the
    uninformative value 1/K and flagged in ``imputed``. ``smoothing`` adds
    the given pseudo-count to every joint cell (off by default).
    """

    counts, denom = pair_counts(pm)
    return _from_counts(counts, denom, pm.k, smoothing)


# ---------------------------------------------------------------------------
# Serialization: long CSV with columns i,j,k,l,prob,imputed
# ---------------------------------------------------------------------------


def write_second_order_csv(so: SecondOrderMatrix, path: str) -> None:
    """Write the matrix as long-form CSV; floats survive round-trip exactly.
    A failed write leaves ``path`` as it was: rows go through a temp file."""

    def blocks():
        yield _csv_text([["i", "j", "k", "l", "prob", "imputed"]])
        pairs = list(np.ndindex(so.k, so.k))
        for i, j in np.ndindex(so.n, so.n):
            probs, imputed = so.probs[i, j].tolist(), so.imputed[i, j].tolist()
            yield _csv_text([i, j, a, b, repr(probs[a][b]), int(imputed[a][b])] for a, b in pairs)

    atomic_write_text(path, blocks())


def read_second_order_csv(path: str) -> SecondOrderMatrix:
    # bytes that are not UTF-8 become lone surrogates, which no int or float accepts
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        rows: list[tuple] = []
        header = None
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{path}: empty file")
            if header != ["i", "j", "k", "l", "prob", "imputed"]:
                raise FormatError(f"{path}: unexpected header {header!r}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 6:
                    raise FormatError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
                try:
                    i, j, a, b = map(int, row[:4])
                    p, f = float(row[4]), int(row[5])
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: {exc}") from None
                if not -_COLSUM_TOL <= p <= 1.0 + _COLSUM_TOL:  # SecondOrderMatrix._check's bounds; no NaN
                    raise FormatError(f"{path}:{lineno}: prob must be a finite number in [0, 1], not {row[4]!r}")
                if f not in (0, 1):
                    raise FormatError(f"{path}:{lineno}: imputed must be 0 or 1, not {row[5]!r}")
                if min(i, j, a, b) < 0:  # before N and K are taken from the largest indices
                    raise FormatError(f"{path}:{lineno}: index ({i},{j},{a},{b}) out of range")
                rows.append((i, j, a, b, p, f))
        except csv.Error as exc:
            # a field over csv.field_size_limit(), in the record after the last one read
            lineno = 1 if header is None else len(rows) + 2
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: no data rows")
    n = max(r[0] for r in rows) + 1
    top = max(range(len(rows)), key=lambda r: rows[r][2])  # the first row of the largest label index
    k = rows[top][2] + 1
    if k < 2:
        raise FormatError(f"{path}:{top + 2}: the largest label index, {k - 1}, gives K={k}; need K >= 2 labels")
    if len(rows) != n * n * k * k:
        raise FormatError(f"{path}: expected {n * n * k * k} rows for N={n}, K={k}, got {len(rows)}")
    probs = np.empty((n, n, k, k))
    imputed = np.zeros((n, n, k, k), dtype=bool)
    lines = np.zeros((n, n, k, k), dtype=np.int64)  # the line each cell was read from, 0 if none yet
    # as many rows as cells, each in range and none repeated: every cell is read once
    for lineno, (i, j, a, b, p, f) in enumerate(rows, start=2):
        if not (0 <= i < n and 0 <= j < n and 0 <= a < k and 0 <= b < k):
            raise FormatError(f"{path}:{lineno}: index ({i},{j},{a},{b}) out of range")
        if lines[i, j, a, b]:
            raise FormatError(f"{path}:{lineno}: index ({i},{j},{a},{b}) repeats line {lines[i, j, a, b]}")
        lines[i, j, a, b] = lineno
        probs[i, j, a, b] = p
        imputed[i, j, a, b] = bool(f)
    return SecondOrderMatrix(probs, imputed, source="csv")
