"""CSV and JSON plumbing for the command-line tools.

Predictions travel as CSV with header ``question_id,agent_<name>,...``
plus an optional trailing ``truth`` column. Labels are arbitrary
non-empty strings; the label space is inferred from the file (sorted
order) unless an explicit label list is supplied. All writes go through
a temp-file-and-rename so readers never observe partial output.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import itertools
import json
import operator
import os
import tempfile

import numpy as np

from .core import DimensionError, FormatError, LabelSpace, PredictionMatrix, _code_dtype

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


# Cells parsed per block of rows; no cell's ``str`` outlives its block.
_CELLS_PER_BLOCK = 2**14


@contextlib.contextmanager
def _gc_paused():
    """Suspend cyclic garbage collection.

    Parsing allocates millions of short-lived, acyclic row lists and cells,
    which would otherwise trigger collections that find nothing to free.
    """

    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _FirstSeen(dict):
    """Codes for cells, handed out in first-seen order as cells are looked up."""

    def __missing__(self, cell: str) -> int:
        return self.setdefault(cell, len(self))


def _read_cells(reader, width: int) -> tuple[list[str], np.ndarray, list[str], tuple | None]:
    """The data rows up to the first row of the wrong width, encoded block by block.

    Returns the ids, the other cells as an (M, width - 1) matrix of codes in the
    narrowest unsigned dtype, the distinct cells in code order and, for a row
    without ``width`` fields, its (line, field count); the rows before it are
    kept so that a fault earlier in the file can still be reported first.
    """

    qids: list[str] = []
    blocks = [np.zeros(0, np.uint8)]
    lut = _FirstSeen()
    bad_width = None
    block_rows = max(1, _CELLS_PER_BLOCK // width)
    while bad_width is None and (block := list(itertools.islice(reader, block_rows))):
        if set(map(len, block)) != {width}:
            bad = next(i for i, row in enumerate(block) if len(row) != width)
            bad_width = (len(qids) + bad + 2, len(block[bad]))
            del block[bad:]
        cells = list(itertools.chain.from_iterable(block))
        qids.extend(cells[::width])
        del cells[::width]
        codes = np.fromiter(map(lut.__getitem__, cells), np.uint32, len(cells))
        blocks.append(codes.astype(np.min_scalar_type(len(lut))))
        del block, cells  # or they stay alive while the next block is parsed
    return qids, np.concatenate(blocks).reshape(len(qids), width - 1), list(lut), bad_width


def _screen_rows(
    codes: np.ndarray,
    vocab: list[str],
    space: LabelSpace | None,
    names: list[str],
    drop_incomplete: bool,
    path: str,
) -> np.ndarray:
    """Indices of the rows to keep, after the empty-cell and label checks.

    ``codes`` holds each row's cells as indices into ``vocab``. A row with an
    empty cell is dropped under ``drop_incomplete`` and is otherwise an error;
    a kept row with a label outside ``space`` is an error. The first faulty
    row in file order raises ``FormatError``; within a row, the empty-cell
    check comes first.
    """

    empty = np.array([lab == "" for lab in vocab], dtype=bool)[codes]
    unknown = np.array(
        [lab != "" and space is not None and lab not in space.labels for lab in vocab], dtype=bool
    )[codes]
    empty_rows = empty.any(axis=1)
    faulty = unknown.any(axis=1)
    if drop_incomplete:
        faulty &= ~empty_rows
    else:
        faulty |= empty_rows
    if faulty.any():
        row = int(np.argmax(faulty))
        lineno = row + 2
        if empty_rows[row]:
            col = int(np.argmax(empty[row]))
            agent = names[col] if col < len(names) else "truth"
            raise FormatError(
                f"{path}:{lineno}: empty cell for {agent!r} "
                "(use --drop-incomplete to skip such questions)"
            )
        cell = vocab[codes[row, int(np.argmax(unknown[row]))]]
        raise FormatError(f"{path}:{lineno}: label {cell!r} not in label space {space.labels}")
    return np.flatnonzero(~empty_rows)


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

    Errors name the data row's line, counting the header as line 1 and each
    CSV record (even one whose quoted field spans lines) as one line; the
    first faulty row in file order is the one reported.
    """

    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    with fh, _gc_paused():
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        names, has_truth = _parse_header(header, path)
        space = LabelSpace(tuple(labels)) if labels is not None else None
        width = 1 + len(names) + (1 if has_truth else 0)
        qids, codes, vocab, bad_width = _read_cells(reader, width)

    clean = "" not in vocab and (space is None or set(vocab).issubset(space.labels))
    kept = None if clean else _screen_rows(codes, vocab, space, names, drop_incomplete, path)
    if bad_width is not None:
        lineno, got = bad_width
        raise FormatError(f"{path}:{lineno}: expected {width} fields, got {got}")
    dropped = 0 if kept is None else len(qids) - kept.size
    if dropped:
        codes = codes[kept]
        qids = [qids[i] for i in kept.tolist()]
    if not qids:
        raise FormatError(f"{path}: no usable question rows")
    repeat = _first_repeat(qids)
    if repeat is not None:
        lineno = (repeat if kept is None else int(kept[repeat])) + 2
        raise FormatError(f"{path}:{lineno}: duplicate question_id {qids[repeat]!r}")

    if space is None:
        # counted one block of rows at a time: bincount widens its input to int64
        rows = max(1, _CELLS_PER_BLOCK // codes.shape[1])
        seen = sum(
            np.bincount(codes[i : i + rows].ravel(), minlength=len(vocab))
            for i in range(0, len(codes), rows)
        )
        present = np.flatnonzero(seen)
        if present.size < 2:
            raise FormatError(f"{path}: fewer than 2 distinct labels in data")
        space = LabelSpace(tuple(sorted(vocab[i] for i in present)))
    if tuple(vocab) != space.labels:
        # Cells outside the space occur only in dropped rows, so their code is never read.
        index = {lab: i for i, lab in enumerate(space.labels)}
        remap = np.array([index.get(lab, 0) for lab in vocab], _code_dtype(space.k))
        codes = remap[codes]

    n = len(names)
    pm = PredictionMatrix(space, codes[:, :n], codes[:, n] if has_truth else None)
    meta = {"question_ids": qids, "agent_names": names, "dropped": dropped}
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
    labels = np.array(pm.space.labels, dtype=object)
    columns = list(labels[pm.answers.T]) + ([labels[pm.truth]] if with_truth else [])
    writer.writerows(zip(qids, *columns))
    atomic_write_text(path, buf.getvalue())


def write_labels_csv(path: str, question_ids: list[str], labels: list[str]) -> None:
    if len(question_ids) != len(labels):
        raise DimensionError("question ids and labels must have equal length")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["question_id", "label"])
    writer.writerows(zip(question_ids, labels))
    atomic_write_text(path, buf.getvalue())
