"""Generative simulators and the two standard experiment drivers.

Both simulators draw the true label uniformly per question and agent
errors uniformly over the wrong labels, which is exactly the structure a
per-question label shuffle induces. Under the independent model each
agent hits the truth with its fixed accuracy; under the difficulty model
a per-question difficulty scale is drawn first and every agent's hit
probability becomes a function of it, correlating errors across agents.

All draws for question q come from row q of a counter-based uniform
block, so matrices are bit-reproducible from (spec, seed) alone and each
question's randomness is independent of iteration order. The block is
drawn and mapped a bounded number of rows at a time, so a simulation's
scratch does not grow with M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionError,
    DomainError,
    LabelSpace,
    PredictionMatrix,
    _check_abilities,
    _check_k,
    _code_dtype,
    _uniform_rows,
    derive_seed,
    ow_weights,
    sigma_k,
)
from .aggregate import TiePolicy, aggregate_batch
from .oracle import DifficultyMixture
from .secondorder import empirical_second_order

__all__ = [
    "CiSimSpec",
    "DifficultySimSpec",
    "simulate_ci",
    "simulate_difficulty",
    "AccuracyTable",
    "GapCurve",
    "run_accuracy_table",
    "run_gap_curve",
    "TABLE_METHODS",
]

TABLE_METHODS = ("mv", "sp", "single_best", "isp", "opt")

DEFAULT_KS = (2, 4, 6, 8, 10)
DEFAULT_ACCURACIES = (0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class CiSimSpec:
    """Independent-errors simulation: fixed per-agent accuracies."""

    accuracies: tuple[float, ...]
    k: int
    m: int
    seed: int = 0

    def __post_init__(self) -> None:
        acc = tuple(float(v) for v in self.accuracies)
        object.__setattr__(self, "accuracies", acc)
        _check_sim_dims(self.k, self.m, len(acc))
        for v in acc:
            if not (1.0 / self.k <= v <= 1.0):
                raise DomainError(f"accuracies must lie in [1/K, 1], got {v}")

    @property
    def n(self) -> int:
        return len(self.accuracies)


@dataclass(frozen=True)
class DifficultySimSpec:
    """Shared-difficulty simulation: abilities plus a difficulty mixture."""

    abilities: tuple[float, ...]
    mixture: DifficultyMixture
    k: int
    m: int
    seed: int = 0

    def __post_init__(self) -> None:
        beta = tuple(float(v) for v in self.abilities)
        object.__setattr__(self, "abilities", beta)
        _check_sim_dims(self.k, self.m, len(beta))
        _check_abilities(beta)

    @property
    def n(self) -> int:
        return len(self.abilities)


def _check_sim_dims(k: int, m: int, n: int) -> None:
    _check_k(k)
    if m < 1:
        raise DimensionError(f"question count must be >= 1, got {m}")
    if n < 1:
        raise DimensionError("need at least one agent")


def _answers_from_uniforms(u: np.ndarray, hit_probs: np.ndarray, truth: np.ndarray, k: int) -> np.ndarray:
    """Map agent-major (N, rows) uniforms, which are overwritten, to int64
    labels: below the hit probability means correct, the remainder spreads
    uniformly over the K-1 wrong labels."""

    correct = u < hit_probs
    with np.errstate(invalid="ignore", divide="ignore"):
        u -= hit_probs
        u /= 1.0 - hit_probs
        np.copyto(u, 0.0, where=correct)  # unused lanes; keep the int cast clean
        u *= k - 1
        wrong = u.astype(np.int64)
    np.clip(wrong, 0, k - 2, out=wrong)
    wrong += wrong >= truth
    np.copyto(wrong, truth, where=correct)
    return wrong


def _simulate(spec, truth_col: int, hit_probs, cells: float) -> PredictionMatrix:
    """The panel of a simulation spec, drawn and mapped a block of questions
    at a time into the answers and truth (both in the code dtype) that the
    matrix adopts. Row q of the uniforms is question q's: the columns before
    ``truth_col`` feed ``hit_probs(u)``, column ``truth_col`` draws the truth
    and the rest the agents. Each block is mapped agent-major, so every
    operation runs along the questions. ``cells`` counts the float64 cells a
    question holds at the block's peak, its uniforms included."""

    width = truth_col + 1 + spec.n
    answers = np.empty((spec.m, spec.n), _code_dtype(spec.k))
    truth = np.empty(spec.m, answers.dtype)
    for rows, u in _uniform_rows(spec.seed, spec.m, width, cells / width):
        u = np.ascontiguousarray(u.T)
        hit = hit_probs(u)
        truth[rows] = np.minimum((u[truth_col] * spec.k).astype(np.int64), spec.k - 1)
        answers[rows] = _answers_from_uniforms(u[truth_col + 1 :], hit, truth[rows], spec.k).T
        del u, hit  # or they are still alive while the next block is drawn and mapped
    return PredictionMatrix._adopt(LabelSpace.default(spec.k), answers, truth)


def simulate_ci(spec: CiSimSpec) -> PredictionMatrix:
    """Simulate the independent-errors model; truth included."""

    x = np.asarray(spec.accuracies)[:, None]
    # cells a question: its uniforms (N + 1) and truth (1), beside its answers'
    # masks and the ufunc buffers of their broadcast hit probabilities (3.25 N)
    return _simulate(spec, 0, lambda u: x, 3.25 * spec.n + spec.n + 2)


def simulate_difficulty(spec: DifficultySimSpec) -> PredictionMatrix:
    """Simulate the shared-difficulty model; truth included."""

    beta = np.asarray(spec.abilities)[:, None]
    # cells a question: its uniforms (N + 2), its difficulty's few arrays (3),
    # and the hit probabilities, sigma_k's input and sigma_k's scratch (5.25 N)
    return _simulate(
        spec, 1, lambda u: sigma_k(beta * spec.mixture.sample(u[0])[None, :], spec.k), 5.25 * spec.n + spec.n + 5
    )


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccuracyTable:
    """Accuracy (percent) of each method across label-space sizes."""

    ks: tuple[int, ...]
    methods: tuple[str, ...]
    values: np.ndarray  # (len(ks), len(methods)) percent

    def to_rows(self) -> list[dict]:
        rows = []
        for i, k in enumerate(self.ks):
            row = {"k": int(k)}
            row.update(
                {meth: round(float(self.values[i, j]), 4) for j, meth in enumerate(self.methods)}
            )
            rows.append(row)
        return rows

    def to_text(self) -> str:
        width = 12
        header = "k".rjust(4) + "".join(m.rjust(width) for m in self.methods)
        lines = [header, "-" * len(header)]
        for i, k in enumerate(self.ks):
            lines.append(
                str(k).rjust(4)
                + "".join(f"{self.values[i, j]:.2f}".rjust(width) for j in range(len(self.methods)))
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GapCurve:
    """Mean accuracy gaps (percentage points) versus label-space size."""

    ks: tuple[int, ...]
    gap_isp_mv: np.ndarray
    gap_mv_sp: np.ndarray
    stderr: np.ndarray  # standard error of gap_isp_mv over replications

    def to_rows(self) -> list[dict]:
        return [
            {
                "k": int(k),
                "gap_isp_mv": float(self.gap_isp_mv[i]),
                "gap_mv_sp": float(self.gap_mv_sp[i]),
                "stderr": float(self.stderr[i]),
            }
            for i, k in enumerate(self.ks)
        ]


def _method_accuracies(pm: PredictionMatrix, true_acc: np.ndarray, seed: int) -> dict:
    """Accuracy (fraction) of each table method on one simulated dataset."""

    if pm.truth is None:
        raise DomainError("table experiments need simulated truth")
    out = {}
    # sp and isp share one second-order matrix; opt votes with the weights of the true accuracies
    so, weights = empirical_second_order(pm), ow_weights(true_acc, pm.k)
    for idx, (name, rule) in enumerate([("mv", "mv"), ("sp", "sp"), ("isp", "isp"), ("opt", "weighted")]):
        tie = TiePolicy(seed=derive_seed(seed, 900 + idx))
        labels, _ = aggregate_batch(rule, pm.answers, pm.k, tie, so=so, weights=weights)
        out[name] = float((labels == pm.truth).mean())
    best = int(np.argmax(true_acc))
    out["single_best"] = float((pm.answers[:, best] == pm.truth).mean())
    return out


def _table_stats(acc: np.ndarray, m, ks, seeds: list[tuple[int, ...]]) -> list[list[dict]]:
    """``_method_accuracies`` on one dataset per K for each seed prefix: the
    dataset for (prefix, K) is drawn from ``derive_seed(*prefix, K)``. Every
    spec is checked before the first simulation, so a bad K fails at once."""

    specs = [[CiSimSpec(tuple(acc), int(k), int(m), derive_seed(*prefix, k)) for k in ks] for prefix in seeds]
    return [[_method_accuracies(simulate_ci(spec), acc, spec.seed) for spec in row] for row in specs]


def run_accuracy_table(
    seed: int = 0,
    m: int = 10_000,
    ks: tuple[int, ...] = DEFAULT_KS,
    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES,
) -> AccuracyTable:
    """Accuracy of every rule across label-space sizes, one dataset per K.

    Second-order rules use the empirical second-order matrix estimated
    from the same dataset they aggregate; the oracle-weighted column uses
    the true accuracies.
    """

    acc = np.asarray(accuracies, dtype=float)
    values = np.zeros((len(ks), len(TABLE_METHODS)))
    for i, stats in enumerate(_table_stats(acc, m, ks, [(seed,)])[0]):
        values[i] = [100.0 * stats[meth] for meth in TABLE_METHODS]
    return AccuracyTable(ks=tuple(int(k) for k in ks), methods=TABLE_METHODS, values=values)


def run_gap_curve(
    seed: int = 0,
    m: int = 10_000,
    ks: tuple[int, ...] = DEFAULT_KS,
    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES,
    replications: int = 1,
) -> GapCurve:
    """Accuracy gaps (counterfactual minus MV, MV minus peer-expected) vs K.

    With multiple replications each cell is a mean over independent
    datasets and ``stderr`` reports the standard error of the first gap.
    """

    if replications < 1:
        raise DomainError(f"replications must be >= 1, got {replications}")
    acc = np.asarray(accuracies, dtype=float)
    gaps_im = np.zeros((replications, len(ks)))
    gaps_ms = np.zeros((replications, len(ks)))
    for r, row in enumerate(_table_stats(acc, m, ks, [(seed, r) for r in range(replications)])):
        gaps_im[r] = [100.0 * (stats["isp"] - stats["mv"]) for stats in row]
        gaps_ms[r] = [100.0 * (stats["mv"] - stats["sp"]) for stats in row]
    stderr = (
        gaps_im.std(axis=0, ddof=1) / np.sqrt(replications)
        if replications > 1
        else np.zeros(len(ks))
    )
    return GapCurve(tuple(int(k) for k in ks), gaps_im.mean(axis=0), gaps_ms.mean(axis=0), stderr)
