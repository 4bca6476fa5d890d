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


# Cells parsed per block of rows; no cell's ``str`` outlives its block. The
# byte tokenizer reads chunks of 4 bytes per cell of a block.
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


def _escaped(cells) -> bool:
    """Whether a cell holds bytes that were not UTF-8, left as surrogates by ``surrogateescape``."""

    try:
        "".join(cells).encode()
    except UnicodeEncodeError:
        return True
    return False


def _read_cells(reader, width: int) -> tuple[list[str], np.ndarray, list[str], tuple | None]:
    """The data rows up to the first faulty record, encoded block by block.

    Returns the ids, the other cells as an (M, width - 1) matrix of codes in the
    narrowest unsigned dtype, the distinct cells in code order and, for a record
    without ``width`` fields, one csv.reader rejects or one that is not UTF-8,
    its (line, message); the rows before it are kept so that a fault earlier in
    the file can still be reported first.
    """

    qids: list[str] = []
    blocks = [np.zeros(0, np.uint8)]
    lut = _FirstSeen()
    fault = None
    block_rows = max(1, _CELLS_PER_BLOCK // width)
    while fault is None:
        block = []
        try:
            block.extend(itertools.islice(reader, block_rows))  # keeps the rows before an error
        except csv.Error as exc:
            fault = (len(qids) + len(block) + 2, str(exc))
        if set(map(len, block)) - {width}:
            bad = next(i for i, row in enumerate(block) if len(row) != width)
            fault = (len(qids) + bad + 2, f"expected {width} fields, got {len(block[bad])}")
            del block[bad:]
        if not block:
            break
        known = len(lut)
        cells = list(itertools.chain.from_iterable(block))
        ids = cells[::width]
        del cells[::width]
        codes = np.fromiter(map(lut.__getitem__, cells), np.uint32, len(cells))
        if _escaped(ids + list(itertools.islice(lut, known, None))):  # cells lut has seen before passed
            bad = next(i for i, row in enumerate(block) if _escaped(row))
            fault = (len(qids) + bad + 2, "not UTF-8 text")
            ids, codes = ids[:bad], codes[: bad * (width - 1)]
        qids += ids
        blocks.append(codes.astype(np.min_scalar_type(len(lut))))
        del block, cells  # or they stay alive while the next block is parsed
    return qids, np.concatenate(blocks).reshape(len(qids), width - 1), list(lut), fault


_COMMA, _NEWLINE = ord(","), ord("\n")
# _LOW_BYTES[r] keeps the low r bytes of a little-endian word
_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(9)], np.uint64)


def _plain(data: bytes) -> bool:
    """Whether ``data`` lacks every byte that the byte tokenizer leaves to csv.reader."""

    return not (b'"' in data or b"\r" in data or b"\0" in data)


def _line_chunks(fh, size: int):
    """The rest of binary file ``fh`` in chunks of about ``size`` bytes, each cut
    after a newline; the last one gets a newline if the file lacks it.

    Yields None and stops at the first piece that is not ``_plain``, before
    it is kept or the next piece is read, so a file whose lines end in a bare
    carriage return is never held whole.
    """

    pending = []
    while piece := fh.read(size):
        if not _plain(piece):
            yield None
            return
        cut = piece.rfind(b"\n") + 1
        if cut:
            chunk = b"".join([*pending, piece[:cut]])
            pending = [piece[cut:]]
            yield chunk
        else:
            pending.append(piece)
    if rest := b"".join(pending):
        yield rest + b"\n"


def _read_cells_bytes(fh, width: int) -> tuple[list[str], np.ndarray, list[str], None] | None:
    """``_read_cells`` for the rest of binary file ``fh``, tokenized with numpy.

    Each chunk of about 4 bytes per cell of a block is split at every ``,``
    and newline at once, and its cells are coded by ``_cell_codes``; the
    result equals ``_read_cells``'s. Returns None, part way through the file,
    at a ``"``, carriage return or NUL byte, at a line without ``width``
    fields, at a cell longer than ``csv.field_size_limit()`` or at text that
    is not UTF-8, so that csv.reader reads the file again and reports as usual.
    """

    qids: list[str] = []
    blocks = [np.zeros(0, np.uint8)]
    vocab: list[str] = []
    tables: dict = {}
    limit = csv.field_size_limit()
    for chunk in _line_chunks(fh, 4 * _CELLS_PER_BLOCK):
        if chunk is None:
            return None
        buf = np.frombuffer(chunk + bytes(8), np.uint8)  # padded for the last word's gather
        ends = np.flatnonzero((buf == _COMMA) | (buf == _NEWLINE))
        rows = chunk.count(b"\n")
        if ends.size != rows * width or (buf[ends[width - 1 :: width]] != _NEWLINE).any():
            return None
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        if (ends - starts).max() > limit:
            return None
        answers = np.ones(ends.size, bool)
        answers[::width] = False
        try:
            qids += _first_cells(buf, starts[::width], ends[::width])
            codes = _cell_codes(buf, starts[answers], ends[answers], tables, vocab)
        except UnicodeDecodeError:
            return None
        blocks.append(codes.astype(np.min_scalar_type(len(vocab))))
    return qids, np.concatenate(blocks).reshape(len(qids), width - 1), vocab, None


def _first_cells(buf: np.ndarray, starts: np.ndarray, commas: np.ndarray) -> list[str]:
    """The text of each line's first cell, ``buf[starts[i]:commas[i]]``.

    Every cell is gathered with the comma after it, which becomes the
    separator, in one step: the offsets step by one and jump from each
    comma to the next line's start.
    """

    spans = commas + 1 - starts
    steps = np.ones(spans.sum(), np.intp)
    steps[0] = starts[0]
    steps[np.cumsum(spans[:-1])] = starts[1:] - commas[:-1]
    cells = buf[np.cumsum(steps, out=steps)]
    cells[cells == _COMMA] = _NEWLINE
    return cells.tobytes().decode().split("\n")[:-1]


def _cell_codes(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, tables: dict, vocab: list[str]
) -> np.ndarray:
    """Codes of the cells ``buf[starts[i]:ends[i]]``, which hold no NUL byte.

    A cell's key is its bytes zero-padded into as many little-endian 64-bit
    words as it needs, each word one gather from an unaligned view of ``buf``.
    ``tables`` maps a word count to the sorted keys seen so far and their
    codes. Unseen cells get the next codes in first-seen order, and their
    text joins ``vocab``.
    """

    words = np.ndarray((buf.size - 7,), "<u8", buf, 0, (1,))  # the 8 bytes from each offset
    lens = ends - starts
    codes = np.empty(lens.size, np.uint32)
    if lens.max() <= 8:
        groups = [(1, slice(None))]
    else:
        nwords = np.maximum(1, (lens + 7) >> 3)
        counts = np.bincount(nwords)
        groups = [(c, np.flatnonzero(nwords == c)) for c in np.flatnonzero(counts).tolist()]
    unseen = []  # per word count: the cells whose key is not in the table, their keys, and
    # the index among them of each distinct key's first occurrence
    for c, at in groups:
        offsets = 8 * np.arange(c)
        key = words[starts[at, None] + offsets]
        key &= _LOW_BYTES[np.minimum(lens[at, None] - offsets, 8)]  # >= 0: c words all hold bytes
        key = key.ravel() if c == 1 else key.view(np.dtype((np.void, 8 * c))).ravel()
        known, known_codes = tables.setdefault(c, (key[:0], codes[:0]))
        if known.size:
            pos = np.minimum(np.searchsorted(known, key), known.size - 1)
            codes[at] = known_codes[pos]
            miss = known[pos] != key
        else:
            miss = np.ones(key.size, bool)
        if miss.any():
            at, key = np.arange(lens.size)[at][miss], key[miss]
            order = np.argsort(key, kind="stable")
            first = np.ones(key.size, bool)
            first[1:] = key[order[1:]] != key[order[:-1]]
            unseen.append((c, at, key, order[first]))
    if unseen:
        firsts = np.concatenate([at[first] for _, at, _, first in unseen])
        rank = np.empty(firsts.size, np.uint32)
        rank[np.argsort(firsts)] = np.arange(len(vocab), len(vocab) + firsts.size)
        vocab += [buf[starts[i] : ends[i]].tobytes().decode() for i in np.sort(firsts).tolist()]
        for c, at, key, first in unseen:
            new_codes, rank = rank[: first.size], rank[first.size :]
            known, known_codes = tables[c]
            known = np.concatenate([known, key[first]])
            known_codes = np.concatenate([known_codes, new_codes])
            order = np.argsort(known)
            tables[c] = known, known_codes = known[order], known_codes[order]
            codes[at] = known_codes[np.searchsorted(known, key)]
    return codes


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


def _plain_header(fh) -> list[str] | None:
    """The cells of binary file ``fh``'s first line, or None if that line is
    not plain UTF-8 text ending in a newline within ``csv.field_size_limit()``
    bytes (the cap keeps a file without newlines from being read whole)."""

    line = fh.readline(csv.field_size_limit())
    if not (line.endswith(b"\n") and _plain(line)):
        return None
    try:
        return next(csv.reader([line.decode()]))
    except UnicodeDecodeError:
        return None


def _read_table(path: str) -> tuple[list[str], bool, tuple]:
    """The agent names, whether the last column is truth, and the data rows as
    ``_read_cells`` returns them.

    The file is opened once. When it can be rewound and its header line is
    plain text, the byte tokenizer reads it; otherwise, or when the tokenizer
    gives up part way, csv.reader reads it from the start. So a pipe or FIFO,
    which cannot be read twice, always takes csv.reader.
    """

    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    with fh, _gc_paused():
        if fh.seekable():
            if (header := _plain_header(fh)) is not None:
                names, has_truth = _parse_header(header, path)
                cells = _read_cells_bytes(fh, 1 + len(names) + has_truth)
                if cells is not None:
                    return names, has_truth, cells
            fh.seek(0)
        reader = csv.reader(io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape", newline=""))
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise FormatError(f"{path}:1: {exc}") from None
        if _escaped(header):
            raise FormatError(f"{path}:1: not UTF-8 text")
        names, has_truth = _parse_header(header, path)
        return names, has_truth, _read_cells(reader, 1 + len(names) + has_truth)


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

    names, has_truth, (qids, codes, vocab, fault) = _read_table(path)
    space = LabelSpace(tuple(labels)) if labels is not None else None
    clean = "" not in vocab and (space is None or set(vocab).issubset(space.labels))
    kept = None if clean else _screen_rows(codes, vocab, space, names, drop_incomplete, path)
    if fault is not None:
        raise FormatError(f"{path}:{fault[0]}: {fault[1]}")
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
    # Joined directly when no id or label needs quoting, which the counts
    # show: one comma per row and no quote or line break but the separators.
    # The text is then what csv.writer would write.
    try:
        rows = "\r\n".join(map(",".join, zip(question_ids, labels)))
    except TypeError:  # a cell that is not a str, which csv.writer converts
        rows = None
    m = len(labels)
    if (
        rows is not None
        and rows.count(",") == m
        and rows.count("\r") == rows.count("\n") == max(m - 1, 0)
        and '"' not in rows
    ):
        atomic_write_text(path, "question_id,label\r\n" + rows + "\r\n" * (m > 0))
        return
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["question_id", "label"])
    writer.writerows(zip(question_ids, labels))
    atomic_write_text(path, buf.getvalue())
