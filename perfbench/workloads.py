"""Workload definitions, the seeded input generator and the output checks.

Every data workload is a panel drawn from the independent-errors model by
this file's own sampler: the true label is uniform over K labels, agent j
answers it with probability ``accuracies[j]`` and otherwise picks one of
the K-1 wrong labels uniformly. The sampler does not use
``quorum.simulate`` or ``quorum.dataio``, so a change to the package cannot
change the inputs it is measured on.

The shapes are a quarter of those the baseline profiles were taken at, so
that one pass over a workload takes a few seconds and a run of the
benchmark holds several passes; each workload keeps the layer mix that
made it worth measuring (see ``why``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Panel:
    """Parameters of one generated predictions CSV."""

    m: int
    accuracies: tuple[float, ...]
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.accuracies)

    @property
    def k(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a fresh process the benchmark runs and checks.

    ``kind`` is ``cli`` (``python -m quorum.cli <args>``) or ``oracle`` (one
    public ``quorum.oracle`` call made by ``opexec.py``). ``reference`` is an
    ``aggregate`` call's accuracy against the truth column (the mean over
    seeds 0-5 of the package as first benchmarked), or an oracle call's
    exact value.
    """

    name: str
    kind: str
    args: tuple[str, ...]
    reference: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    panel: Panel | None
    ops: tuple[Op, ...]


def _linspace(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(float(v) for v in np.linspace(lo, hi, n))


# Parameters of the two oracle calls. They do not depend on the seed, so
# their exact values can be pinned: the references on their ``Op``s were
# computed by the package's enumeration oracles, and every rewrite of the
# oracles must reproduce them to ORACLE_TOL.
ISP_ACCURACIES = _linspace(0.40, 0.88, 12)
ISP_K = 3
MIXTURE_ABILITIES = _linspace(0.5, 2.0, 6)
MIXTURE_RANGE = (0.2, 5.0)
MIXTURE_K = 3
ORACLE_TOL = 1e-12

# Exact expected accuracy of ``report --table2`` cells, in percent, at the
# default accuracies 0.6,0.7,0.8,0.9 (rows K = 2, 4, 6, 8, 10; columns in
# the order the report writes them).
TABLE_REFERENCE = {
    2: {"mv": 85.00, "sp": 79.80, "single_best": 90.0, "isp": 90.20, "opt": 91.20},
    4: {"mv": 92.37, "sp": 90.49, "single_best": 90.0, "isp": 94.36, "opt": 94.69},
    6: {"mv": 94.06, "sp": 92.71, "single_best": 90.0, "isp": 95.65, "opt": 95.85},
    8: {"mv": 94.81, "sp": 93.67, "single_best": 90.0, "isp": 96.25, "opt": 96.40},
    10: {"mv": 95.23, "sp": 94.20, "single_best": 90.0, "isp": 96.60, "opt": 96.71},
}

REPORT_M = 25_000

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tall",
            why="250k x 4 agents, K=4, accuracies 0.55-0.90: CSV ingest and egress dominate, "
            "and the mv uniform tie-break (about 9% of questions tie) is the main compute",
            panel=Panel(250_000, (0.55, 0.70, 0.80, 0.90), ("A", "B", "C", "D")),
            ops=(
                Op("aggregate-mv", "cli", ("aggregate", "--method", "mv"), 0.9168),
                Op("aggregate-isp", "cli", ("aggregate", "--method", "isp"), 0.9414),
            ),
        ),
        Workload(
            name="wide",
            why="12.5k x 100 agents, K=2, accuracies 0.51-0.65: N^2 pair counts dominate, "
            "the workload for second-order and accuracy-fit work; no ties, light ingest",
            panel=Panel(12_500, _linspace(0.51, 0.65, 100), ("yes", "no")),
            ops=(
                Op("aggregate-isp", "cli", ("aggregate", "--method", "isp"), 0.9509),
                Op("aggregate-ow-l", "cli", ("aggregate", "--method", "ow-l"), 0.9649),
            ),
        ),
        Workload(
            name="many-labels",
            why="50k x 10 agents, K=50 string labels, accuracies 0.30-0.75: per-label score "
            "loops dominate; large K*N puts pair counts on the bincount side of a one-hot GEMM",
            panel=Panel(50_000, _linspace(0.30, 0.75, 10), tuple(f"class-{i:02d}" for i in range(50))),
            ops=(
                Op("aggregate-mv", "cli", ("aggregate", "--method", "mv"), 0.9877),
                Op("aggregate-ow-i", "cli", ("aggregate", "--method", "ow-i"), 0.9911),
            ),
        ),
        Workload(
            name="oracle",
            why="verify --suite all, report --table2 -m 25000, exact isp accuracy at N=12 K=3 "
            "and mixture posterior at N=6 K=3: the oracle, simulate and verify layers, no CSV",
            panel=None,
            ops=(
                Op("verify", "cli", ("verify", "--suite", "all")),
                Op("report-table2", "cli", ("report", "--table2")),
                Op("expected-accuracy-isp", "oracle", (), 0.9701188417887696),
                Op("mixture-posterior", "oracle", (), 0.808046031674428),
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# Input generator
# ---------------------------------------------------------------------------


def sample_panel(panel: Panel, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(answers (M, N), truth (M,)) label indices drawn from ``seed``."""

    m = panel.m
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, panel.n, panel.k])))
    truth = rng.integers(0, panel.k, size=m)
    right = rng.random((m, panel.n)) < np.asarray(panel.accuracies)[None, :]
    wrong = (truth[:, None] + rng.integers(1, panel.k, size=(m, panel.n))) % panel.k
    answers = np.where(right, truth[:, None], wrong)
    return answers, truth


def question_ids(m: int) -> list[str]:
    return [f"q{i:07d}" for i in range(m)]


def write_panel_csv(path: str, panel: Panel, answers: np.ndarray, truth: np.ndarray) -> None:
    """Write the predictions CSV the CLI reads, truth column last."""

    labels = np.array(panel.labels, dtype=object)
    columns = [question_ids(len(truth))]
    columns += [labels[answers[:, j]].tolist() for j in range(answers.shape[1])]
    columns.append(labels[truth].tolist())
    header = ["question_id"] + [f"agent_{j:03d}" for j in range(answers.shape[1])] + ["truth"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


# ---------------------------------------------------------------------------
# Output checks; each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------


def accuracy_tolerance(reference: float, m: int) -> float:
    """Allowed |accuracy - reference|: 0.5 points plus five binomial standard errors."""

    return 0.005 + 5.0 * math.sqrt(reference * (1.0 - reference) / m)


def check_labels(path: str, panel: Panel, truth: np.ndarray, reference: float) -> list[str]:
    """An ``aggregate`` labels CSV: M rows, the input's question ids in order,
    labels from the label space, accuracy within tolerance of ``reference``."""

    if not os.path.isfile(path):
        return [f"{path}: missing"]
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "question_id,label":
        return [f"{path}: bad header {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    m = len(truth)
    if len(rows) != m:
        return [f"{path}: {len(rows)} rows, expected {m}"]
    if any(len(r) != 2 for r in rows):
        return [f"{path}: a row does not have 2 fields"]
    qids, got = zip(*rows)
    if list(qids) != question_ids(m):
        return [f"{path}: question ids differ from the input's, or are out of order"]
    lut = {lab: i for i, lab in enumerate(panel.labels)}
    unknown = set(got) - lut.keys()
    if unknown:
        return [f"{path}: labels outside the label space: {sorted(unknown)[:5]}"]
    acc = float(np.mean(np.fromiter((lut[g] for g in got), dtype=np.int64, count=m) == truth))
    tol = accuracy_tolerance(reference, m)
    if abs(acc - reference) > tol:
        return [f"{path}: accuracy {acc:.4f} not within {tol:.4f} of {reference:.4f}"]
    return []


def check_verify(stdout: str) -> list[str]:
    """Every ``[PASS]`` line and a final ``n/n checks passed``."""

    lines = stdout.strip().splitlines()
    checks = [line for line in lines if line.startswith("[")]
    bad = [line for line in checks if not line.startswith("[PASS]")]
    problems = [f"verify: {line}" for line in bad[:5]]
    want = f"{len(checks)}/{len(checks)} checks passed"
    if not checks or not lines or lines[-1] != want:
        problems.append(f"verify: last line {lines[-1:]!r}, expected {want!r}")
    return problems


def check_table(path: str, m: int) -> list[str]:
    """``report --table2`` CSV: every cell within ``accuracy_tolerance`` of its exact value."""

    if not os.path.isfile(path):
        return [f"{path}: missing"]
    with open(path) as fh:
        lines = fh.read().split()
    header = lines[0].split(",") if lines else []
    if not header or header[0] != "k":
        return [f"{path}: bad header {header!r}"]
    rows = {int(line.split(",")[0]): line.split(",")[1:] for line in lines[1:]}
    if sorted(rows) != sorted(TABLE_REFERENCE):
        return [f"{path}: K rows {sorted(rows)}, expected {sorted(TABLE_REFERENCE)}"]
    problems = []
    for k, cells in rows.items():
        for method, cell in zip(header[1:], cells):
            ref = TABLE_REFERENCE[k].get(method)
            if ref is None or abs(float(cell) - ref) > 100 * accuracy_tolerance(ref / 100, m):
                problems.append(f"{path}: K={k} {method} = {cell}, reference {ref}")
    return problems


def check_oracle(name: str, value: float | None, reference: float) -> list[str]:
    if value is None or not abs(value - reference) <= ORACLE_TOL:
        return [f"{name}: {value!r} differs from the reference {reference!r} by more than {ORACLE_TOL}"]
    return []
