"""CSV and JSON plumbing for the command-line tools.

Predictions travel as CSV with header ``question_id,agent_<name>,...``
plus an optional trailing ``truth`` column. Labels are arbitrary
non-empty strings; the label space is inferred from the file (sorted
order) unless an explicit label list is supplied. All writes go through
a temp-file-and-rename so readers never observe partial output.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
import os
import tempfile

import numpy as np

from .core import DimensionError, FormatError, LabelSpace, PredictionMatrix

__all__ = [
    "atomic_write_text",
    "write_json",
    "read_predictions_csv",
    "write_predictions_csv",
    "write_labels_csv",
]

_AGENT_PREFIX = "agent_"


def atomic_write_text(path: str, text: str) -> None:
    """Write text to ``path`` via a temp file in the same directory."""

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _parse_header(header: list[str], path: str) -> tuple[list[str], bool]:
    if not header or header[0] != "question_id":
        raise FormatError(f"{path}: first column must be 'question_id', got {header[:1]!r}")
    has_truth = len(header) > 1 and header[-1] == "truth"
    agent_cols = header[1 : -1 if has_truth else len(header)]
    if not agent_cols:
        raise FormatError(f"{path}: no agent columns found")
    names = []
    for col in agent_cols:
        if not col.startswith(_AGENT_PREFIX) or len(col) == len(_AGENT_PREFIX):
            raise FormatError(
                f"{path}: column {col!r} must be named '{_AGENT_PREFIX}<name>' (or 'truth' last)"
            )
        names.append(col[len(_AGENT_PREFIX) :])
    if len(set(names)) != len(names):
        raise FormatError(f"{path}: duplicate agent names")
    return names, has_truth


def _first_repeat(items: list[str]) -> int | None:
    """Index of the first item equal to an earlier one, or None if all differ.

    Whether any item repeats is read off a sorted copy, which costs one
    pointer per item where a set would cost several; the set that locates
    the repeat is built only when there is one.
    """

    ordered = sorted(items)
    if not any(map(operator.eq, ordered, itertools.islice(ordered, 1, None))):
        return None
    seen = set()
    for idx, item in enumerate(items):
        if item in seen:
            return idx
        seen.add(item)
    return None


def _line_of_row(index: int, dropped_lines: list[int]) -> int:
    """File line of the index-th kept data row, given the (ascending) dropped lines."""

    lineno = index + 2
    for dropped in dropped_lines:
        if dropped <= lineno:
            lineno += 1
    return lineno


def read_predictions_csv(
    path: str,
    agents: list[str] | None = None,
    labels: list[str] | None = None,
    drop_incomplete: bool = False,
) -> tuple[PredictionMatrix, dict]:
    """Parse a predictions CSV.

    Returns the matrix plus a meta dict with ``question_ids`` and
    ``agent_names``. Questions with empty cells are rejected unless
    ``drop_incomplete`` is set, in which case they are skipped. The truth
    column, when present, is carried on the matrix but plays no role in
    aggregation.
    """

    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        names, has_truth = _parse_header(header, path)
        space = LabelSpace(tuple(labels)) if labels is not None else None
        known = set(space.labels) if space is not None else None
        width = 1 + len(names) + (1 if has_truth else 0)
        qids: list[str] = []
        rows: list[list[str]] = []
        truths: list[str] = []
        dropped_lines: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise FormatError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            cells = row[1 : 1 + len(names)]
            truth_cell = row[-1] if has_truth else None
            if "" in cells or truth_cell == "":
                if drop_incomplete:
                    dropped_lines.append(lineno)
                    continue
                agent = names[cells.index("")] if "" in cells else "truth"
                raise FormatError(
                    f"{path}:{lineno}: empty cell for {agent!r} "
                    "(use --drop-incomplete to skip such questions)"
                )
            if known is not None and not known.issuperset(row[1:]):
                cell = next(c for c in row[1:] if c not in known)
                raise FormatError(f"{path}:{lineno}: label {cell!r} not in label space {space.labels}")
            qids.append(row[0])
            rows.append(cells)
            if has_truth:
                truths.append(truth_cell)
    if not rows:
        raise FormatError(f"{path}: no usable question rows")
    repeat = _first_repeat(qids)
    if repeat is not None:
        lineno = _line_of_row(repeat, dropped_lines)
        raise FormatError(f"{path}:{lineno}: duplicate question_id {qids[repeat]!r}")

    if space is None:
        seen = set()
        for cells in rows:
            seen.update(cells)
        seen.update(truths)
        if len(seen) < 2:
            raise FormatError(f"{path}: fewer than 2 distinct labels in data")
        space = LabelSpace(tuple(sorted(seen)))
    lut = {lab: i for i, lab in enumerate(space.labels)}

    answers = np.array([[lut[c] for c in cells] for cells in rows], dtype=np.int64)
    truth = np.array([lut[c] for c in truths], dtype=np.int64) if has_truth else None
    pm = PredictionMatrix(space, answers, truth)
    meta = {"question_ids": qids, "agent_names": names, "dropped": len(dropped_lines)}
    if agents is not None:
        missing = [a for a in agents if a not in names]
        if missing:
            raise FormatError(f"{path}: unknown agents {missing}; file has {names}")
        if len(agents) < 1:
            raise DimensionError("need at least one agent")
        idx = [names.index(a) for a in agents]
        pm = pm.select_agents(idx)
        meta["agent_names"] = list(agents)
    return pm, meta


def write_predictions_csv(
    path: str,
    pm: PredictionMatrix,
    agent_names: list[str] | None = None,
    question_ids: list[str] | None = None,
    include_truth: bool = True,
) -> None:
    names = agent_names or [str(i + 1) for i in range(pm.n)]
    if len(names) != pm.n:
        raise DimensionError(f"got {len(names)} agent names for {pm.n} agents")
    qids = question_ids or [str(q) for q in range(pm.m)]
    if len(qids) != pm.m:
        raise DimensionError(f"got {len(qids)} question ids for {pm.m} questions")
    with_truth = include_truth and pm.truth is not None
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["question_id"] + [_AGENT_PREFIX + n for n in names] + (["truth"] if with_truth else [])
    )
    labels = pm.space.labels
    for q in range(pm.m):
        row = [qids[q]] + [labels[pm.answers[q, i]] for i in range(pm.n)]
        if with_truth:
            row.append(labels[pm.truth[q]])
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def write_labels_csv(path: str, question_ids: list[str], labels: list[str]) -> None:
    if len(question_ids) != len(labels):
        raise DimensionError("question ids and labels must have equal length")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["question_id", "label"])
    for qid, lab in zip(question_ids, labels):
        writer.writerow([qid, lab])
    atomic_write_text(path, buf.getvalue())
