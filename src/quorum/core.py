"""Core types and primitives for multi-agent answer aggregation.

A *prediction matrix* holds the categorical answers of N agents on M
questions over a label space of size K. Everything downstream (voting
rules, peer-prediction scores, reliability estimation) consumes these
types. The module also provides the generalized sigmoid pair used to map
agent accuracies to log-odds weights, and the label-shuffle machinery
that removes any positional information from the labels.

All randomness is counter-based (Philox) and keyed by explicit integer
seeds, so every derived quantity is a pure function of (seed, question
index) regardless of iteration order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "DimensionError",
    "FormatError",
    "ResourceError",
    "LabelSpace",
    "PredictionMatrix",
    "ShuffleMap",
    "sigma_k",
    "sigma_k_inverse",
    "clamp_accuracies",
    "ow_weights",
    "uniform_block",
    "derive_seed",
    "random_shuffle_map",
    "shuffle_apply",
    "apply_shuffle_map",
    "shuffle_invert",
]

_MASK64 = (1 << 64) - 1

# Float64 cells in one block of a kernel that works through its rows in blocks:
# every caller of ``_row_blocks`` counts, at the call, the cells a row holds in
# all the temporaries live at its peak, so one block's whole scratch is at most
# 8 * _BLOCK_CELLS bytes, 768 KiB, whatever M is. That is three eighths of the
# 2 MiB per-core L2, so a block's scratch, the rows it reads and writes and the
# tables beside it stay in L2 together (Lam, Rothberg & Wolf, ASPLOS 1991: size
# the block to the cache it should stay in). Of 2^16, 3 * 2^15, 2^17 and 2^18
# cells, it is the largest that keeps verify and report --table2 0.3 MB or more
# under 40 MB of peak RSS (2^17 puts report at 39.9 MB, 2^18 at 41.6 MB), and
# larger blocks pay less per-block overhead.
_BLOCK_CELLS = 3 * 2**15

# The most a block's ufunc buffers hold: 8192 elements an operand, two operands at once.
_BUFFER_CELLS = 2 * 8192

# The default of every accuracy clamp epsilon: the library's, the fit's and the CLI's.
DEFAULT_EPS = 1e-6


class DomainError(ValueError):
    """A numeric argument is outside its mathematical domain."""


class DimensionError(ValueError):
    """Array shapes or sizes are inconsistent."""


class FormatError(ValueError):
    """An input file or serialized payload is malformed."""


class ResourceError(RuntimeError):
    """A requested computation exceeds the configured budget."""


# ---------------------------------------------------------------------------
# Label space and answer containers
# ---------------------------------------------------------------------------


def _default_labels(k: int) -> tuple[str, ...]:
    # A..Z, then A1..Z1, A2..Z2, ...
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    out = []
    for i in range(k):
        suffix = "" if i < 26 else str(i // 26)
        out.append(letters[i % 26] + suffix)
    return tuple(out)


@dataclass(frozen=True)
class LabelSpace:
    """Ordered set of K >= 2 distinct answer labels.

    The tuple order defines the canonical index of each label; indices are
    stable for the lifetime of the object.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise DomainError(f"label space needs at least 2 labels, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise DomainError("labels must be distinct")
        if any(lab == "" for lab in labels):
            raise DomainError("labels must be non-empty strings")

    @property
    def k(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"unknown label {label!r}") from None

    @classmethod
    def default(cls, k: int) -> "LabelSpace":
        if k < 2:
            raise DomainError(f"label space needs at least 2 labels, got {k}")
        return cls(_default_labels(k))


def _code_dtype(k: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the label codes 0..K-1."""

    return np.min_scalar_type(k - 1)


def _freeze(obj, **fields):
    """``obj`` with ``fields`` set on it though its class is frozen, each array
    among them made read-only in place: arrays that only the caller holds."""

    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


def _check_codes(codes: np.ndarray, k: int, plural: str = "answers", singular: str = "answer") -> None:
    """The one check of answer (or truth) label codes: integers in [0, K)."""

    if not np.issubdtype(codes.dtype, np.integer):
        raise DomainError(f"{plural} must be integer label indices, got dtype {codes.dtype}")
    if codes.size and (codes.min() < 0 or codes.max() >= k):
        raise DomainError(f"{singular} indices must lie in [0, {k})")


@dataclass(frozen=True)
class PredictionMatrix:
    """Answers of N agents on M questions, with optional ground truth.

    ``answers[q, i]`` is the canonical label index chosen by agent i on
    question q, stored as a narrow code: the smallest unsigned dtype that
    holds K codes (uint8 up to K = 256). Kernels widen it one row block at
    a time. ``truth`` (if present) holds the true label index per question,
    in the same code dtype, as does every label array the package returns.
    Arrays are stored read-only; instances are safe to share across threads.
    """

    space: LabelSpace
    answers: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self) -> None:
        ans = np.asarray(self.answers)
        tr = None if self.truth is None else np.asarray(self.truth)
        self._check(ans, tr, self.space.k)
        answers = np.array(ans, _code_dtype(self.space.k))
        _freeze(self, answers=answers, truth=None if tr is None else np.array(tr, answers.dtype))

    @staticmethod
    def _check(ans: np.ndarray, tr: np.ndarray | None, k: int) -> None:
        if ans.ndim != 2:
            raise DimensionError(f"answers must be 2-d (questions x agents), got shape {ans.shape}")
        if ans.shape[0] < 1 or ans.shape[1] < 1:
            raise DimensionError(f"need at least one question and one agent, got shape {ans.shape}")
        _check_codes(ans, k)
        if tr is not None:
            if tr.shape != (ans.shape[0],):
                raise DimensionError(
                    f"truth must have shape ({ans.shape[0]},), got {tr.shape}"
                )
            _check_codes(tr, k, "truth", "truth")

    @classmethod
    def _adopt(cls, space: LabelSpace, answers: np.ndarray, truth: np.ndarray | None) -> "PredictionMatrix":
        """A matrix that keeps ``answers`` and ``truth`` (both in the space's
        code dtype), arrays that only the caller holds, frozen in place where
        the constructor would copy them."""

        cls._check(answers, truth, space.k)
        return _freeze(object.__new__(cls), space=space, answers=answers, truth=truth)

    @property
    def m(self) -> int:
        return int(self.answers.shape[0])

    @property
    def n(self) -> int:
        return int(self.answers.shape[1])

    @property
    def k(self) -> int:
        return self.space.k

    def with_truth(self, truth: np.ndarray | None) -> "PredictionMatrix":
        return PredictionMatrix(self.space, self.answers, truth)

    def select_agents(self, indices: list[int]) -> "PredictionMatrix":
        if len(indices) < 1:
            raise DimensionError("need at least one agent")
        return PredictionMatrix(self.space, self.answers[:, indices], self.truth)


# ---------------------------------------------------------------------------
# Generalized sigmoid pair
# ---------------------------------------------------------------------------


def sigma_k(x, k: int):
    """Generalized sigmoid: e^x / (K - 1 + e^x).

    Maps a log-odds value to a probability in (0, 1); at x = 0 it returns
    1/K (the chance level for K labels). Accepts scalars or arrays.
    """

    _check_k(k)
    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    rows, res = np.atleast_1d(arr), np.atleast_1d(out)  # views: a block of rows of each
    # float64 cells a row: one half-line's gather, its exp and the quotient, and two masks
    for block in _row_blocks(rows.shape[0], (3 + 2 / 8) * math.prod(rows.shape[1:])):
        part, dest = rows[block], res[block]
        if not np.all(np.isfinite(part)):
            raise DomainError("sigma_k requires finite input")
        pos = part >= 0
        # Two algebraically equal branches, each overflow-free on its half-line.
        dest[pos] = 1.0 / (1.0 + (k - 1) * np.exp(-part[pos]))
        ex = np.exp(part[~pos])
        dest[~pos] = ex / (k - 1 + ex)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def sigma_k_inverse(p, k: int):
    """Inverse of ``sigma_k``: ln((K - 1) p / (1 - p)) for p in (0, 1).

    The chance level p = 1/K maps to 0.0 exactly.
    """

    _check_k(k)
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("sigma_k_inverse requires probabilities strictly in (0, 1)")
    with np.errstate(divide="ignore"):
        out = np.where(arr * k == 1.0, 0.0, np.log((k - 1) * arr / (1.0 - arr)))
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def _check_k(k: int) -> None:
    """The one check of a label count K."""

    if not isinstance(k, (int, np.integer)) or k < 2:
        raise DomainError(f"label count must be an integer >= 2, got {k!r}")


def _check_acc(accuracies, k: int | None = None) -> np.ndarray:
    """The one check of a vector of per-agent accuracies, as floats in [0, 1];
    given ``k``, that label count is checked between its shape and its values."""

    x = np.asarray(accuracies, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DimensionError(f"accuracies must be a non-empty vector, got shape {x.shape}")
    if k is not None:
        _check_k(k)
    if not ((x >= 0.0) & (x <= 1.0)).all():  # false for NaN and +-inf too
        raise DomainError("accuracies must lie in [0, 1]")
    return x


def _check_abilities(abilities) -> np.ndarray:
    """The one check of a vector of per-agent abilities, as finite floats >= 0."""

    beta = np.asarray(abilities, dtype=float)
    if beta.ndim != 1 or beta.shape[0] < 1:
        raise DimensionError(f"abilities must be a non-empty vector, got shape {beta.shape}")
    if np.any(beta < 0.0) or np.any(~np.isfinite(beta)):
        raise DomainError("abilities must be finite and nonnegative")
    return beta


def clamp_accuracies(accuracies, k: int, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Clamp accuracies into [1/K + eps, 1 - eps] before weighting."""

    _check_k(k)
    if not 0.0 < eps < 0.5:
        raise DomainError(f"eps must lie in (0, 0.5), got {eps}")
    acc = np.asarray(accuracies, dtype=float)
    if not np.all(np.isfinite(acc)):
        raise DomainError("accuracies must be finite")
    lo = 1.0 / k + eps
    hi = 1.0 - eps
    if lo >= hi:
        raise DomainError(f"empty clamp interval for k={k}, eps={eps}")
    return np.clip(acc, lo, hi)


def ow_weights(accuracies, k: int, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Log-odds weights w_i = sigma_k_inverse(clamped x_i).

    Agents clamped to the lower bound 1/K + eps carry no usable signal and
    get weight exactly 0.0 rather than the tiny positive residue the
    clamped inverse would produce.
    """

    clamped = clamp_accuracies(accuracies, k, eps)
    w = sigma_k_inverse(clamped, k)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    acc = np.atleast_1d(np.asarray(accuracies, dtype=float))
    w[acc <= 1.0 / k + eps] = 0.0
    return w


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------


def uniform_block(seed: int, m: int, width: int) -> np.ndarray:
    """Deterministic (m, width) block of uniforms on [0, 1).

    Row q is the randomness budget of question q: its values occupy fixed
    counter positions of a Philox stream keyed by ``seed``, so they do not
    depend on how many questions follow, on iteration order, or on thread
    count.
    """

    if m < 0 or width < 1:
        raise DimensionError(f"invalid block shape ({m}, {width})")
    return _stream(seed).random((m, width))


def _stream(seed: int) -> np.random.Generator:
    """The Philox stream keyed by ``seed`` that ``uniform_block`` draws its rows from."""

    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def _row_blocks(
    m: int, cells_per_row: float, budget: int | None = None, held: int = 0, unbuffered: float | None = None
):
    """Yield the slices that cut rows 0..m into blocks of ``max(1, (budget -
    held) // cells_per_row)`` rows, the last one shorter. ``cells_per_row`` is
    what a row holds in every temporary live at the caller's peak, in float64
    cells (a narrower array counts its width in bytes over 8), and ``held``
    the cells the caller holds beside a block whatever its rows.

    A ufunc that broadcasts, casts or reads a strided operand fills a buffer
    of up to 8192 elements (``np.getbufsize()``) per such operand, which
    ``cells_per_row`` counts like any other temporary. As those buffers stop
    growing, a caller that also gives the count without them, ``unbuffered``,
    gets blocks of up to ``(budget - held - _BUFFER_CELLS) // unbuffered``
    rows. ``budget`` is ``_BLOCK_CELLS`` unless given; both are read at the
    first block, so one patch of either reaches every loop that walks its
    blocks here."""

    room = (_BLOCK_CELLS if budget is None else budget) - held
    step = room // max(cells_per_row, 1 / 8)  # a row of no cells, as of (M, 0) arrays, counts a byte
    if unbuffered is not None:
        step = max(step, (room - _BUFFER_CELLS) // unbuffered)
    step = max(1, int(step))
    for start in range(0, m, step):
        yield slice(start, min(start + step, m))


def _uniform_rows(seed: int, m: int, width: int, arrays: int):
    """Yield ``(rows, uniforms)``: a slice of 0..m and those rows of
    ``uniform_block(seed, m, width)``, drawn in turn from the one stream, so
    the blocks together are the whole draw. A block is sized so that
    ``arrays`` float64 arrays of its shape fit in ``_BLOCK_CELLS`` cells."""

    stream = _stream(seed)
    for rows in _row_blocks(m, arrays * width):
        yield rows, stream.random((rows.stop - rows.start, width))


def derive_seed(master: int, *parts: int) -> int:
    """Stable child seed for a labeled sub-stream of a master seed."""

    ss = np.random.SeedSequence((int(master),) + tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Label shuffling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShuffleMap:
    """Per-question label permutations.

    ``perms[q]`` maps original label index c to shuffled index
    ``perms[q, c]``, stored as a narrow code like ``PredictionMatrix.answers``.
    Applying a map and then inverting it is the identity.
    """

    perms: np.ndarray

    def __post_init__(self) -> None:
        perms = np.asarray(self.perms)
        self._check(perms)
        _freeze(self, perms=np.array(perms, _code_dtype(perms.shape[1])))

    @staticmethod
    def _check(perms: np.ndarray) -> None:
        if perms.ndim != 2:
            raise DimensionError(f"perms must be 2-d, got shape {perms.shape}")
        if not np.issubdtype(perms.dtype, np.integer):
            raise DomainError("perms must hold integer indices")
        k = perms.shape[1]
        # cells a row: its flat codes and their counts (K each), its base q K (1)
        # and the bool buffer of the counts' all() (K / 8)
        for rows in _row_blocks(perms.shape[0], 2 * k + 1 + k / 8, unbuffered=2 * k + 1):
            codes = perms[rows].astype(np.intp)  # a value past intp wraps below 0
            # row q is a permutation when its values lie in [0, K) and each flat code q K + value comes once
            ok = not codes.size or (codes.min() >= 0 and codes.max() < k)
            if ok:
                codes += np.arange(0, codes.size, k)[:, None]
                ok = np.bincount(codes.ravel(), minlength=codes.size).all()
            if not ok:
                raise DomainError("each row of perms must be a permutation of 0..K-1")
            del codes  # or it lives on beside the next block's codes

    @classmethod
    def _adopt(cls, perms: np.ndarray) -> "ShuffleMap":
        """A map that keeps ``perms`` (in the code dtype), an array that only
        the caller holds, frozen in place where the constructor would copy it."""

        cls._check(perms)
        return _freeze(object.__new__(cls), perms=perms)

    @property
    def m(self) -> int:
        return int(self.perms.shape[0])

    @property
    def k(self) -> int:
        return int(self.perms.shape[1])

    def inverse(self) -> "ShuffleMap":
        labels = np.broadcast_to(np.arange(self.k, dtype=self.perms.dtype), self.perms.shape)
        return ShuffleMap._adopt(_map_rows(self.perms, True, labels)[0])

    @classmethod
    def identity(cls, m: int, k: int) -> "ShuffleMap":
        return cls(np.tile(np.arange(k), (m, 1)))


def random_shuffle_map(m: int, k: int, seed: int) -> ShuffleMap:
    """Uniformly random permutation per question, derived from ``seed``."""

    _check_k(k)
    if m < 0:
        raise DimensionError(f"invalid block shape ({m}, {k})")
    perms = np.empty((m, k), _code_dtype(k))
    # a block holds its uniforms and their int64 argsort; the argsort of iid
    # uniforms is a uniformly random permutation
    for rows, u in _uniform_rows(seed, m, k, 2):
        perms[rows] = np.argsort(u, axis=1)
        del u  # or it lives on beside the next block, and beside the map's check
    return ShuffleMap._adopt(perms)


def apply_shuffle_map(pm: PredictionMatrix, smap: ShuffleMap) -> PredictionMatrix:
    """Relabel every answer (and truth) through the given per-question map."""

    return _relabel(pm, smap, invert=False)


def _map_rows(perms: np.ndarray, invert: bool, *codes: np.ndarray) -> list[np.ndarray]:
    """Each (M, C) array of label ``codes`` with row q mapped through row q of
    the map ``perms`` (or of its inverse), as a new array in the map's dtype.
    It works one block of rows at a time and inverts each block's rows once,
    so that neither a whole inverse map nor a whole-array index is ever built."""

    k = perms.shape[1]
    outs = [np.empty(c.shape, perms.dtype) for c in codes]
    # cells a row: the row base, one flat index and the buffer of adding a
    # narrower view of the base to it (each at most ``wide`` intp cells), and,
    # inverting, the block's inverse and the values scattered into it (K codes each)
    wide, rest = max(max(c.shape[1] for c in codes), k * invert), 2 * k * perms.itemsize / 8 * invert
    base = None
    for block in _row_blocks(perms.shape[0], rest + 3 * wide, unbuffered=rest + 2 * wide):
        b = block.stop - block.start
        if base is None:  # the first block is the largest: row q of a block's flat map starts at q K
            base = np.repeat(np.arange(0, b * k, k), wide).reshape(b, wide)
            values = np.tile(np.arange(k, dtype=perms.dtype), b if invert else 0)
        table = perms[block]
        if invert:  # the scatter table[q, perms[q, c]] = c
            index = table.astype(np.intp)
            index += base[:b, :k]
            table = np.empty_like(table)
            table.reshape(-1)[index.reshape(-1)] = values[: b * k]
            del index
        for c, out in zip(codes, outs):
            index = c[block].astype(np.intp, order="C")  # as take reads it, also from a broadcast array
            index += base[:b, : c.shape[1]]
            np.take(table, index, out=out[block], mode="clip")  # in range: codes lie in [0, K)
            del index
    return outs


def _relabel(pm: PredictionMatrix, smap: ShuffleMap, invert: bool) -> PredictionMatrix:
    """Map each question's answers and truth through its row of ``smap`` (or of its inverse) in one pass."""

    if smap.m != pm.m or smap.k != pm.k:
        raise DimensionError(f"shuffle map shape ({smap.m}, {smap.k}) does not match matrix ({pm.m}, {pm.k})")
    codes = (pm.answers,) if pm.truth is None else (pm.answers, pm.truth[:, None])
    answers, *truth = _map_rows(smap.perms, invert, *codes)
    return PredictionMatrix._adopt(pm.space, answers, truth[0][:, 0] if truth else None)


def shuffle_apply(pm: PredictionMatrix, seed: int) -> tuple[PredictionMatrix, ShuffleMap]:
    """Apply a fresh random per-question label shuffle.

    Returns the relabeled matrix together with the map needed to undo it.
    After shuffling, the location of the true label carries no information:
    it is uniform over the K slots for every question.
    """

    smap = random_shuffle_map(pm.m, pm.k, seed)
    return apply_shuffle_map(pm, smap), smap


def shuffle_invert(obj, smap: ShuffleMap):
    """Undo a shuffle on a PredictionMatrix or a length-M label-index vector
    (returned in the map's code dtype): each question is mapped through its
    row of the inverse map, built one block of rows at a time by ``_map_rows``."""

    if isinstance(obj, PredictionMatrix):
        return _relabel(obj, smap, invert=True)
    arr = np.asarray(obj)
    if arr.shape != (smap.m,):
        raise DimensionError(f"expected shape ({smap.m},), got {arr.shape}")
    _check_codes(arr, smap.k)
    return _map_rows(smap.perms, True, arr[:, None])[0][:, 0]
