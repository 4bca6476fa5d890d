"""CSV and JSON plumbing for the command-line tools.

Predictions travel as CSV with header ``question_id,agent_<name>,...``
plus an optional trailing ``truth`` column. Labels are arbitrary
non-empty strings; the label space is inferred from the file (sorted
order) unless an explicit label list is supplied. Question ids are kept as
UTF-8 bytes (``QuestionIds``) from the file they are read from to the labels
CSV they are written to. All writes go through a temp-file-and-rename so
readers never observe partial output.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import gc
import io
import itertools
import json
import operator
import os
import stat
import time
from collections.abc import Sequence, Sized

import numpy as np

from .core import DimensionError, FormatError, LabelSpace, PredictionMatrix, _code_dtype, _freeze, _row_blocks

__all__ = [
    "QuestionIds",
    "atomic_write_text",
    "write_json",
    "read_predictions_csv",
    "write_predictions_csv",
    "write_labels_csv",
]

_AGENT_PREFIX = "agent_"


def atomic_write_text(path: str, text, *, private: bool = False) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory.

    ``text`` is a str, written as UTF-8, or an iterable of bytes-like blocks,
    written in turn so that the whole text is never held at once. The file
    gets mode 0666 less the umask, as any new file does, or 0600 if ``private``.
    """

    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}~")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(tmp, flags, 0o600 if private else 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                if isinstance(text, str):
                    fh.write(text.encode())
                else:
                    fh.writelines(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:  # name the caller's path, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from exc


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


def _utf8(ids: list[str]) -> tuple[bytes, np.ndarray]:
    """The UTF-8 bytes of ``ids`` end to end, and each id's length in bytes.

    Raises TypeError for an id that is not a str and UnicodeEncodeError for
    one holding a lone surrogate.
    """

    text = "".join(ids)
    data = text.encode()
    sizes = ids if len(data) == len(text) else map(str.encode, ids)  # ASCII: a char is a byte
    return data, np.fromiter(map(len, sizes), np.intp, len(ids))


def _gather(src: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``src[starts[i] : starts[i] + lens[i]]`` for every i, end to end.

    The offsets into ``src`` are one cumulative sum: they step by one and
    jump from the end of each piece to the start of the next.
    """

    if not lens.all():
        starts, lens = starts[lens > 0], lens[lens > 0]
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    steps = np.ones(total, np.intp)
    if total:
        steps[0] = starts[0]
        steps[ends[:-1]] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    out = np.empty(total, np.uint8)
    np.take(src, np.cumsum(steps, out=steps), out=out)
    return out


class QuestionIds(Sequence):
    """The question ids of a predictions CSV: a read-only sequence of str.

    The ids are held as their UTF-8 bytes end to end in one buffer, plus each
    id's end offset in the narrowest unsigned dtype that holds it, after
    Apache Arrow's variable-width layout; an id is decoded to ``str`` only when
    it is indexed or iterated. So a million ids take a few bytes each, not a
    ``str`` object each. It compares equal to the list of the same ids, and to
    another ``QuestionIds`` holding them. Any iterable of str is encoded a block
    of ids at a time; a sized one's count sizes the arrays.
    """

    __slots__ = ("_data", "_ends")
    __hash__ = None

    def __init__(self, ids=()):
        built, chunks = _Columns(1, rows=len(ids) if isinstance(ids, Sized) else 0), iter(ids)
        # map, unlike a loop variable, lets go of a block's list before the next is made
        for data, lens in map(_utf8, iter(lambda: list(itertools.islice(chunks, _CELLS_PER_BLOCK)), [])):
            built.add(np.frombuffer(data, np.uint8), lens, np.empty(0, np.uint8), 0)
        ids = built.result()[0]
        _freeze(self, _data=ids._data, _ends=ids._ends)

    @classmethod
    def _adopt(cls, data: np.ndarray, ends: np.ndarray) -> "QuestionIds":
        """Ids that keep ``data`` (uint8: the ids' bytes, then 8 zero bytes, so
        that a 64-bit word can be read from any offset of an id) and ``ends``
        (unsigned: each id's end offset), uncopied."""

        return _freeze(cls.__new__(cls), _data=data, _ends=ends)

    def _block(self, a: int = 0, b: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bytes of ids ``a`` to ``b`` end to end, and each id's start and end offset in them, as intp."""

        lo = int(self._ends[a - 1]) if a else 0
        ends = self._ends[a:b].astype(np.intp) - lo
        starts = np.empty_like(ends)
        starts[:1] = 0
        starts[1:] = ends[:-1]
        return self._data[lo : lo + int(ends[-1]) if ends.size else lo], starts, ends

    def _take(self, keep: np.ndarray) -> "QuestionIds":
        """The ids where the mask ``keep`` is set, gathered a block of ids at a time."""

        ids = _Columns(1)
        for rows in _row_blocks(len(self), 7 + 1.125 * len(self._data) / max(len(self), 1)):  # a cell an id byte
            data, starts, ends = self._block(rows.start, rows.stop)
            lens = (ends - starts)[keep[rows]]
            ids.add(_gather(data, starts[keep[rows]], lens), lens, np.empty(0, np.uint8), 0)
        return ids.result()[0]

    def __len__(self) -> int:
        return len(self._ends)

    def __getitem__(self, index):
        rows = range(len(self))[index]  # a range for a slice; an IndexError out of range
        if isinstance(rows, range):
            return list(self._decode(rows.start, rows.stop)) if rows.step == 1 else [self[i] for i in rows]
        return next(self._decode(rows, rows + 1))

    def _decode(self, a: int = 0, b: int | None = None):
        """An iterator over ids ``a`` to ``b`` as str."""

        data, starts, ends = self._block(a, b)
        data = data.tobytes()
        if data.isascii():  # then byte offsets are character offsets
            data = data.decode()
        cells = map(data.__getitem__, map(slice, starts.tolist(), ends.tolist()))
        return cells if isinstance(data, str) else map(bytes.decode, cells)

    __iter__ = _decode

    def __eq__(self, other) -> bool:
        if isinstance(other, QuestionIds):
            size = int(self._ends[-1]) if len(self) else 0
            return np.array_equal(self._ends, other._ends) and np.array_equal(
                self._data[:size], other._data[:size]
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"QuestionIds({list(self)!r})"


def _id_blocks(ids: QuestionIds, n: int | None = None):
    """Per block of ``ids``: its rows, which of them are in ``_first_repeat``'s
    group ``n`` (all of them, if None), and those ids' ends and lengths."""

    ends = ids._ends
    for rows in _row_blocks(len(ids), 5.25):
        lens = np.diff(ends[rows], prepend=ends[rows.start - 1] if rows.start else ends.dtype.type(0))
        mine = slice(None) if n is None else lens < 8 if n == 0 else lens == n
        yield rows, mine, ends[rows][mine], lens[mine]


def _first_repeat(ids: QuestionIds) -> int | None:
    """Index of the first id equal to an earlier one, or None if all differ.

    Ids are grouped by byte length, those under 8 bytes in one group n = 0, and
    keyed, a block of ids at a time, by their bytes zero-padded into 64-bit
    words (an id under 8 bytes has its length in the last byte): keys are equal
    exactly where the ids are. Keys of one word are sorted in place, so a
    repeat shows as equal neighbours; only then, or for longer ids, does
    ``np.lexsort`` order them stably to find the earliest repeat. Beside one
    group's keys (and their order) it holds a block.
    """

    counts = collections.Counter()
    for *_, group in _id_blocks(ids):  # the lengths, and bincount's two copies of them
        group[group < 8] = 0
        lo = int(group.min())
        found = np.bincount(group - lo) if group.max() > lo else [group.size]
        counts.update({lo + n: int(found[n]) for n in np.flatnonzero(found).tolist()})
    repeats = [_repeat_in_group(ids, n, size, len(counts) == 1) for n, size in counts.items() if size > 1]
    return min((r for r in repeats if r is not None), default=None)


def _repeat_in_group(ids: QuestionIds, n: int, size: int, single: bool) -> int | None:
    """``_first_repeat`` among the ``size`` ids of group ``n`` (every id, if ``single``)."""

    words, c, group = _words(ids._data), max(1, (n + 7) >> 3), None if single else n
    key = np.empty((c, size), np.uint64)

    def fill():
        at = 0
        for _, _, last, lens in _id_blocks(ids, group):
            starts = last.astype(np.intp) - lens
            for j, word in enumerate(key):  # a fancy index: take would copy the unaligned words whole
                word[at : at + starts.size] = words[starts + 8 * j]
            if n == 0:  # the bytes past each id cleared, and its length in the top one
                key[0, at : at + starts.size] &= _LOW_BYTES[lens]
                key[0, at : at + starts.size] |= lens.astype(np.uint64) << np.uint64(56)
            at += starts.size
        key[-1] &= _LOW_BYTES[n - 8 * (c - 1) if n else 8]  # the bytes past each id cleared (group 0's were)

    fill()
    if c == 1:
        key.sort(axis=1)
        if not any((key[0, r.start + 1 : r.stop + 1] == key[0, r]).any() for r in _row_blocks(size - 1, 1 / 8)):
            return None
        fill()
    order, at = np.lexsort(key), size  # stable: equal keys keep their ids' order
    for r in _row_blocks(size - 1, 2 + 2.25 * c):
        pos = order[r.start : r.stop + 1]
        ranked = key[:, pos]
        at = int(pos[1:][(ranked[:, 1:] == ranked[:, :-1]).all(axis=0)].min(initial=at))
    del order, key
    if at < size:  # the row of the group's at-th id
        for rows, mine, _, lens in _id_blocks(ids, group):
            if at < lens.size:
                return rows.start + int(np.arange(rows.stop - rows.start)[mine][at])
            at -= lens.size
    return None


# Cells parsed per block of rows; no cell's ``str`` outlives its block. The
# byte tokenizer reads pieces of 4 bytes per cell of a block.
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


def _append(arr: np.ndarray, at: int, values: np.ndarray, dtype: np.dtype, scale: float) -> np.ndarray:
    """``arr`` with ``values`` written from index ``at``.

    ``arr`` is first widened to ``dtype`` if that is wider (a copy of its first
    ``at`` items) and, if the values do not fit, grown in place to ``scale``
    times the filled size or, if ``scale`` is 0, by a quarter.
    """

    if dtype.itemsize > arr.dtype.itemsize:
        arr = arr[:at].astype(dtype)
    end = at + len(values)
    if end > arr.size:
        arr.resize(max(end, int(end * scale) if scale else arr.size + arr.size // 4), refcheck=False)
    arr[at:end] = values
    return arr


class _Columns:
    """The data rows read so far: the ids' UTF-8 bytes end to end, each id's
    end offset, and the other cells' codes row by row.

    Each array is allocated when the first block arrives, at the size that
    block predicts for the rest of the file from its byte count (unknown for
    a pipe), and grown in place by ``ndarray.resize``, which reallocates,
    when a later block does not fit; ``result`` cuts it to size the same way.
    So the read never holds its blocks and their concatenation at once. Given
    the ``rows`` to come, each block predicts from the rows so far instead.
    Each dtype is the narrowest that holds the values so far.
    """

    def __init__(self, width: int, fh=None, rows: int = 0):
        self.width = width
        self.rows = self.size = 0
        self._expect = rows
        self.data, self.ends, self.codes = (np.empty(0, np.uint8) for _ in range(3))
        try:  # the bytes left in the file, and a clock of how many were read
            self._start = fh.tell()
            self._left = os.fstat(fh.fileno()).st_size - self._start
            self._tell = fh.tell
        except (AttributeError, OSError):  # no file, or one that cannot tell
            self._left = 0

    def add(self, data: np.ndarray, lens: np.ndarray, codes: np.ndarray, labels: int) -> None:
        """Append a block of rows: ``data`` holds their ids' bytes end to end,
        ``lens`` each id's length and ``codes`` their other cells' codes, which
        take values below ``labels``."""

        scale = 0.0
        if self._expect and lens.size:
            scale = self._expect / (self.rows + lens.size)
        elif not self.rows and self._left > 0 and lens.size:  # an empty block predicts nothing
            # the bytes the block came from: as far as the file was read, and at
            # least a separator or line end per cell (the reader may read ahead)
            done = max(self._tell() - self._start, data.size + codes.size + lens.size)
            scale = max(1.0, self._left / done)
        ends = np.cumsum(lens)
        ends += self.size
        self.data = _append(self.data, self.size, data, self.data.dtype, scale)
        self.size += data.size
        self.ends = _append(self.ends, self.rows, ends, np.min_scalar_type(self.size), scale)
        at = self.rows * (self.width - 1)
        self.codes = _append(self.codes, at, codes, np.min_scalar_type(labels), scale)
        self.rows += lens.size

    def result(self) -> tuple[QuestionIds, np.ndarray]:
        """The ids, and the codes as a (rows, width - 1) matrix."""

        self.data.resize(self.size + 8, refcheck=False)
        self.data[self.size :] = 0
        self.ends.resize(self.rows, refcheck=False)
        self.codes.resize(self.rows * (self.width - 1), refcheck=False)
        return QuestionIds._adopt(self.data, self.ends), self.codes.reshape(self.rows, self.width - 1)


def _read_cells(reader, rows: _Columns, vocab: list[str]) -> tuple[QuestionIds, np.ndarray, list[str], tuple | None]:
    """The data rows up to the first faulty record, encoded block by block.

    The records of csv.reader ``reader`` are added to ``rows``, which may hold
    earlier rows of the file whose cells ``vocab`` lists in code order. Returns
    the ids, the other cells as an (M, width - 1) matrix of codes in the
    narrowest unsigned dtype, the distinct cells in code order and, for a record
    without ``width`` fields, one csv.reader rejects or one that is not UTF-8,
    its (line, message); the rows before it are kept so that a fault earlier in
    the file can still be reported first.
    """

    width = rows.width
    lut = _FirstSeen(zip(vocab, itertools.count()))
    fault = None
    for span in _row_blocks(2**63, width, _CELLS_PER_BLOCK):  # until the reader ends or faults
        block = []
        try:
            block.extend(itertools.islice(reader, span.stop - span.start))  # keeps the rows before an error
        except csv.Error as exc:
            fault = (rows.rows + len(block) + 2, str(exc))
        if set(map(len, block)) - {width}:
            bad = next(i for i, row in enumerate(block) if len(row) != width)
            fault = (rows.rows + bad + 2, f"expected {width} fields, got {len(block[bad])}")
            del block[bad:]
        if not block:
            break
        known = len(lut)
        cells = list(itertools.chain.from_iterable(block))
        ids = cells[::width]
        del cells[::width]
        codes = np.fromiter(map(lut.__getitem__, cells), np.uint32, len(cells))
        try:
            data, lens = _utf8(ids)
            escaped = _escaped(itertools.islice(lut, known, None))  # cells lut has seen before passed
        except UnicodeEncodeError:
            escaped = True
        if escaped:
            bad = next(i for i, row in enumerate(block) if _escaped(row))
            fault = (rows.rows + bad + 2, "not UTF-8 text")
            data, lens = _utf8(ids[:bad])
            codes = codes[: bad * (width - 1)]
        rows.add(np.frombuffer(data, np.uint8), lens, codes, len(lut))
        if fault is not None:
            break
        del block, cells, ids  # or they stay alive while the next block is parsed
    return (*rows.result(), list(lut), fault)


_COMMA, _NEWLINE = ord(","), ord("\n")
# _LOW_BYTES[r] keeps the low r bytes of a little-endian word
_LOW_BYTES = np.array([(1 << 8 * r) - 1 for r in range(9)], np.uint64)


def _plain(data: bytes) -> bool:
    """Whether ``data``, its CRLFs folded to LFs, lacks every byte that the
    byte tokenizer leaves to csv.reader: a quote, a bare carriage return, a NUL."""

    return not (b'"' in data or b"\r" in data or b"\0" in data)


def _read_cells_bytes(fh, rows: _Columns, vocab: list[str]) -> bytes:
    """Add the rows of the rest of binary file ``fh`` to ``rows`` as
    ``_read_cells`` would, tokenized with numpy, and return the bytes read but
    not tokenized: ``b""`` at the end of the file.

    Pieces of 4 bytes per cell of a block are read, one byte more after a
    carriage return, and their CRLFs folded to LFs. Each chunk up to a newline
    (one is added after a last line without it) is split at every ``,`` and
    newline at once, so each row kept is one line; its ids' bytes are gathered
    undecoded and its other cells coded by ``_cell_codes``, new ones joining
    ``vocab``. The read stops at a piece that is not ``_plain``, before it is
    kept (so a file of bare carriage returns is never held whole), and hands
    back the bytes pending and the piece as read; or at a chunk with a line
    without ``rows.width`` fields, a cell longer than ``csv.field_size_limit()``
    or text that is not UTF-8, and hands back the chunk and the bytes after it.
    """

    width, tables, limit = rows.width, {}, csv.field_size_limit()
    pending = []
    while piece := fh.read(4 * _CELLS_PER_BLOCK) or (b"\n" if any(pending) else b""):
        if piece.endswith(b"\r"):
            piece += fh.read(1)
        text = piece.replace(b"\r\n", b"\n") if b"\r" in piece else piece  # a find costs far less than a replace
        if not _plain(text):
            return b"".join([*pending, piece])
        cut = text.rfind(b"\n") + 1
        if not cut:
            pending.append(text)
            continue
        chunk = b"".join([*pending, text[:cut]])
        pending = [text[cut:]]
        buf = np.frombuffer(chunk + bytes(8), np.uint8)  # padded for the last word's gather
        ends = np.flatnonzero((buf == _COMMA) | (buf == _NEWLINE))
        starts = np.concatenate(([0], ends[:-1] + 1))
        try:  # the separators are ASCII, so the chunk is UTF-8 exactly when every cell is
            whole = (
                ends.size == chunk.count(b"\n") * width
                and (buf[ends[width - 1 :: width]] == _NEWLINE).all()
                and (ends - starts).max() <= limit
                and (chunk.isascii() or bool(chunk.decode()))
            )
        except UnicodeDecodeError:
            whole = False
        if not whole:
            return b"".join([chunk, *pending])
        starts, ends = starts.reshape(-1, width), ends.reshape(-1, width)  # one row per line
        codes = _cell_codes(buf, starts[:, 1:].ravel(), ends[:, 1:].ravel(), tables, vocab)
        lens = ends[:, 0] - starts[:, 0]
        rows.add(_gather(buf, starts[:, 0], lens), lens, codes, len(vocab))
    return b""


class _Resumed(io.RawIOBase):
    """A binary stream of ``head``, then the rest of binary file ``fh``."""

    def __init__(self, head: bytes, fh):
        self._head, self._fh = io.BytesIO(head), fh

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        return self._head.readinto(buf) or self._fh.readinto(buf)


def _csv_reader(head: bytes, fh):
    """csv.reader over ``head``, then the rest of binary file ``fh``, decoded
    as UTF-8 with the bytes that are not UTF-8 kept as surrogates."""

    return csv.reader(io.TextIOWrapper(io.BufferedReader(_Resumed(head, fh)), "utf-8", "surrogateescape", newline=""))


def _words(buf: np.ndarray) -> np.ndarray:
    """The 8 bytes from each offset of ``buf`` as a little-endian word; the
    last 7 bytes of ``buf`` are padding."""

    return np.ndarray((buf.size - 7,), "<u8", buf, 0, (1,))


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

    words = _words(buf)
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


def _parse_table(fh, path: str) -> tuple[list[str], bool, tuple]:
    """The agent names, whether the last column is truth, and the data rows as
    ``_read_cells`` returns them, parsed from binary file ``fh`` at its start in
    one forward pass, so that a pipe reads like a file.

    When the header line is plain UTF-8 text ending in a LF or CRLF within
    ``csv.field_size_limit()`` bytes (the cap keeps a file without newlines from
    being read whole), the byte tokenizer reads the rows that follow, and
    csv.reader reads on from the bytes it hands back, then the rest of ``fh``.
    Any other header line is handed to csv.reader, which reads the whole file.
    """

    head = fh.readline(csv.field_size_limit())
    line = head.replace(b"\r\n", b"\n")  # only at its end
    reader = header = None
    if line.endswith(b"\n") and _plain(line):
        with contextlib.suppress(UnicodeDecodeError):
            header = next(csv.reader([line.decode()]))
    if header is None:
        reader = _csv_reader(head, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise FormatError(f"{path}:1: {exc}") from None
        if _escaped(header):
            raise FormatError(f"{path}:1: not UTF-8 text")
    names, has_truth = _parse_header(header, path)
    rows, vocab = _Columns(1 + len(names) + has_truth, fh), []
    if reader is None:
        if not (rest := _read_cells_bytes(fh, rows, vocab)):
            return names, has_truth, (*rows.result(), vocab, None)
        reader = _csv_reader(rest, fh)
    return names, has_truth, _read_cells(reader, rows, vocab)


# The parse cache keeps what _parse_table returns for each regular file of at
# least _CACHE_MIN_BYTES, one entry per file state: an entry is named by the
# file's device, inode, size and modification and change times. Any write to
# a file, and os.utime, sets its change time to the present, so a file that
# was last changed _CACHE_SETTLE_NS or more before it was parsed never shows
# that state again with other bytes; a younger file is not stored. An entry is
# _CACHE_MAGIC, a line "<_CACHE_FORMAT> <header size>", a JSON header (names,
# truth flag, vocabulary, each array's dtype and shape, and the SHA-256 of the
# rest of the header and the arrays), then the arrays' raw bytes.
_CACHE_MAGIC = b"quorum parse cache\n"
_CACHE_FORMAT = 2
_CACHE_MIN_BYTES = 2**20
_CACHE_ENTRIES = 8
_CACHE_BYTES = 2**28  # all entries together; a larger table is not stored
_CACHE_SETTLE_NS = 2 * 10**9  # the coarsest file times in use, FAT's, step by 2 s
_CACHE_STALE_NS = 3600 * 10**9  # a temp file this old was left by a store that was killed
_CACHE_SUFFIX = ".table"


def _sha256(blocks) -> str:
    """The SHA-256 hex digest of ``blocks``, bytes-like objects end to end."""

    import hashlib  # here: a process that stores or loads nothing does not pay for the import

    digest = hashlib.sha256()
    for block in blocks:
        digest.update(block)
    return digest.hexdigest()


def _raw(arr: np.ndarray) -> np.ndarray:
    """The bytes of C-contiguous ``arr`` as a flat uint8 view."""

    return arr.reshape(-1).view(np.uint8)


def _cache_dir() -> str:
    """``$XDG_CACHE_HOME/quorum``, or ``~/.cache/quorum`` when that variable is unset or relative."""

    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "quorum")


def _private(st: os.stat_result) -> bool:
    """Whether a cache directory or entry is the user's own and writable by no one else."""

    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _file_state(st: os.stat_result) -> tuple[int, int, int, int, int]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _cache_entry(fh) -> tuple[str, tuple | None] | None:
    """The cache entry for binary file ``fh`` in its present state, and that
    state if a parse of the file may be stored: only if it was last changed
    ``_CACHE_SETTLE_NS`` or more ago. None for a file that is not regular or
    is under ``_CACHE_MIN_BYTES``, or when there is no cache directory."""

    now, st, directory = time.time_ns(), os.fstat(fh.fileno()), _cache_dir()
    if not (stat.S_ISREG(st.st_mode) and st.st_size >= _CACHE_MIN_BYTES and os.path.isabs(directory)):
        return None  # the last: no home directory to expand "~" to
    state = _file_state(st)
    settled = now - max(st.st_mtime_ns, st.st_ctime_ns) >= _CACHE_SETTLE_NS
    return os.path.join(directory, "%x-%x-%x-%d-%d" % state + _CACHE_SUFFIX), state if settled else None


def _cache_load(entry: str) -> tuple[list[str], bool, tuple] | None:
    """The table stored at ``entry``, read straight into one buffer per array;
    or None if there is none, if it or its directory is not ``_private``, or
    if it fails a check: magic, format, lengths, digest, nondecreasing id ends
    and codes below the vocabulary's size. A hit marks the entry as the most
    recently used."""

    try:
        with open(entry, "rb") as fh:
            if not (_private(os.stat(os.path.dirname(entry))) and _private(os.fstat(fh.fileno()))):
                return None
            if fh.readline(64) != _CACHE_MAGIC:
                return None
            version, size = map(int, fh.readline(64).split())
            if version != _CACHE_FORMAT:
                return None
            head = json.loads(fh.read(size))
            specs = [(np.dtype(dtype), tuple(shape)) for dtype, shape in head["arrays"]]
            (_, (nbytes,)), _, (_, (rows, width)) = specs
            if not (
                all(dtype.kind == "u" for dtype, _ in specs)
                and specs[1][1] == (rows,)
                and sum(dtype.itemsize * int(np.prod(shape)) for dtype, shape in specs)
                == os.fstat(fh.fileno()).st_size - fh.tell()
            ):
                return None
            data = np.zeros(nbytes + 8, np.uint8)  # with QuestionIds' padding
            ends, codes = (np.empty(shape, dtype) for dtype, shape in specs[1:])
            raw = [data[:nbytes], _raw(ends), _raw(codes)]
            if any(fh.readinto(buf) != buf.size for buf in raw):
                return None
        digest = head.pop("sha256")
        names, has_truth, vocab = head["names"], head["has_truth"], head["vocab"]
        if not (
            _sha256([json.dumps(head).encode(), *raw]) == digest
            and width == len(names) + has_truth
            and (ends[1:] >= ends[:-1]).all()
            and (int(ends[-1]) if rows else 0) == nbytes
            and (not codes.size or int(codes.max()) < len(vocab))
        ):
            return None
        with contextlib.suppress(OSError):
            os.utime(entry)
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return None
    return names, has_truth, (QuestionIds._adopt(data, ends), codes, vocab, None)


def _cache_store(entry: str, names: list[str], has_truth: bool, cells: tuple) -> bool:
    """Store a table of at most ``_CACHE_BYTES`` at ``entry`` through
    ``atomic_write_text``, in a directory made private to the user, then
    ``_cache_evict``. Returns whether the entry was stored; an ``OSError``
    only means it was not."""

    qids, codes, vocab, _ = cells
    arrays = (qids._data[: qids._data.size - 8], qids._ends, codes)
    raw = [_raw(arr) for arr in arrays]
    if sum(buf.size for buf in raw) > _CACHE_BYTES:
        return False
    directory = os.path.dirname(entry)
    try:
        os.makedirs(directory, 0o700, exist_ok=True)
        if not _private(os.stat(directory)):  # before the hash: a refused store costs a stat
            return False
        head = {"names": names, "has_truth": has_truth, "vocab": vocab,
                "arrays": [[arr.dtype.str, arr.shape] for arr in arrays]}
        head["sha256"] = _sha256([json.dumps(head).encode(), *raw])
        head = json.dumps(head).encode()
        blocks = [_CACHE_MAGIC, b"%d %d\n" % (_CACHE_FORMAT, len(head)), head, *raw]
        atomic_write_text(entry, blocks, private=True)
    except OSError:
        return False
    with contextlib.suppress(OSError):
        _cache_evict(directory)
    return True


def _cache_evict(directory: str) -> None:
    """Keep the most recently used entries while they number at most
    ``_CACHE_ENTRIES`` and total at most ``_CACHE_BYTES`` (the newest always
    stays), remove the rest, and remove temp files that stores left behind."""

    now, entries = time.time_ns(), []
    for e in os.scandir(directory):
        st = e.stat(follow_symlinks=False)
        if e.name.endswith(_CACHE_SUFFIX):
            entries.append((st.st_mtime_ns, st.st_size, e.path))
        elif e.name.startswith(".tmp-") and e.name.endswith("~") and now - st.st_mtime_ns > _CACHE_STALE_NS:
            os.unlink(e.path)
    total = 0
    for kept, (_, size, path) in enumerate(sorted(entries, reverse=True)):
        total += size
        if kept and (kept >= _CACHE_ENTRIES or total > _CACHE_BYTES):
            os.unlink(path)


def _read_table(path: str) -> tuple[list[str], bool, tuple, str, bool]:
    """What ``_parse_table`` makes of the file at ``path``, where it came from
    (``"hit"``, the parse cache; ``"stored"``, parsed, then cached; or
    ``"off"``, parsed only) and whether its question ids are known to differ.

    The file is opened once and read once, from its start. A cache entry is a
    memo of ``_parse_table`` on the file state it is named by, so bump
    ``_CACHE_FORMAT`` whenever what it returns changes. A parse is stored only
    if it found no fault, its ids all differ (so a hit skips that check) and
    the file's state was settled before parsing and the same after.
    """

    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    with fh, _gc_paused():
        cached = _cache_entry(fh)
        if cached is not None and (table := _cache_load(cached[0])) is not None:
            return (*table, "hit", True)
        names, has_truth, cells = _parse_table(fh, path)
        stored = distinct = False
        if cached is not None and cached[1] is not None and cells[3] is None:
            entry, state = cached
            with contextlib.suppress(OSError):
                if _file_state(os.fstat(fh.fileno())) == state:
                    distinct = _first_repeat(cells[0]) is None
                    stored = distinct and _cache_store(entry, names, has_truth, cells)
        return names, has_truth, cells, "stored" if stored else "off", distinct


def _encode_rows(
    codes: np.ndarray, vocab, labels: tuple[str, ...], names: list[str], drop_incomplete: bool, path: str
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The answers (the first ``len(names)`` columns of ``codes``, indices into
    ``vocab``) and the truth (the column after them, if any) of the rows kept,
    as indices into ``labels`` in their code dtype, and a mask of the rows kept
    (None if all are), in one walk over the rows a block at a time.

    A table maps each cell to its label's index, or to a marker for an empty
    cell or one for a cell outside ``labels``. A row with an empty cell is
    dropped under ``drop_incomplete`` and is otherwise an error, and so is a
    kept row with a cell outside ``labels``: the first faulty row in file order
    raises ``FormatError``, the empty-cell check first. Where the dtypes match,
    the answers are written over ``codes``' own buffer.
    """

    m, c = codes.shape
    n, k = len(names), len(labels)
    dtype = _code_dtype(max(k, 1))
    if tuple(vocab) == labels and codes.dtype == dtype and c == n:  # the codes are the answers
        return codes, None, None
    empty, outside = k, k + 1
    index = dict(zip(labels, range(k)))
    table = np.array([empty if lab == "" else index.get(lab, outside) for lab in vocab], np.min_scalar_type(k + 1))
    screen = table.size and int(table.max()) >= k
    out = codes.reshape(-1) if codes.dtype == dtype else np.empty(m * n, dtype)
    truth = np.empty(m, dtype) if c > n else None
    kept, count = np.ones(m, bool) if screen and drop_incomplete else None, 0
    # cells a row: two mapped blocks (C each, in the table's dtype), a mask of their cells
    # (C / 8), four (rows,) masks (1 / 8 each), and the buffer of widening codes to intp (C)
    scratch = c * table.itemsize / 4 + c / 8 + 0.5
    for rows in _row_blocks(m, scratch + c, unbuffered=scratch):
        block = table[codes[rows]]  # a copy: out, which may overlap these rows, is written after
        if screen and block.max() >= k:
            empty_rows = (block == empty).any(axis=1)
            faulty = (block == outside).any(axis=1)
            faulty = faulty & ~empty_rows if drop_incomplete else faulty | empty_rows
            if faulty.any():
                row = int(np.argmax(faulty))
                lineno = rows.start + row + 2
                if empty_rows[row]:
                    agent = [*names, "truth"][int(np.argmax(block[row] == empty))]
                    hint = "(use --drop-incomplete to skip such questions)"
                    raise FormatError(f"{path}:{lineno}: empty cell for {agent!r} {hint}")
                cell = vocab[codes[rows.start + row, int(np.argmax(block[row] == outside))]]
                raise FormatError(f"{path}:{lineno}: label {cell!r} not in label space {labels}")
            if empty_rows.any():  # under drop_incomplete
                kept[rows] = ~empty_rows
                block = block[kept[rows]]
        size = len(block)
        out[count * n : (count + size) * n].reshape(size, n)[...] = block[:, :n]
        if truth is not None:
            truth[count : count + size] = block[:, n]
        count += size
    return out[: count * n].reshape(count, n), None if truth is None else truth[:count], None if count == m else kept


def read_predictions_csv(
    path: str,
    agents: list[str] | None = None,
    labels: list[str] | None = None,
    drop_incomplete: bool = False,
) -> tuple[PredictionMatrix, dict]:
    """Parse a predictions CSV.

    Returns the matrix plus a meta dict with ``question_ids`` (a
    ``QuestionIds``, equal to the list of the ids as str), ``agent_names``,
    ``dropped`` (how many rows ``drop_incomplete`` skipped) and ``cache``
    (``"hit"``, ``"stored"`` or ``"off"``: whether the parse came from the
    parse cache, was stored in it or neither). Questions with empty cells are
    rejected unless ``drop_incomplete`` is set, in which case they are skipped. The truth
    column, when present, is carried on the matrix but plays no role in
    aggregation.

    Errors name the data row's line, counting the header as line 1 and each
    CSV record (even one whose quoted field spans lines) as one line; the
    first faulty row in file order is the one reported, and a repeated id
    only if no row is faulty.
    """

    names, has_truth, (qids, codes, vocab, fault), cache, distinct = _read_table(path)
    space = LabelSpace(tuple(labels)) if labels is not None else None
    # a fault-free parse's vocabulary lists only the cells its rows hold
    found = space.labels if space is not None else tuple(sorted(filter(None, vocab)))
    answers, truth, kept = _encode_rows(codes, vocab, found, names, drop_incomplete, path)
    if fault is not None:
        raise FormatError(f"{path}:{fault[0]}: {fault[1]}")
    dropped = len(qids) - len(answers)
    if kept is not None:
        qids = qids._take(kept)
    if not qids:
        raise FormatError(f"{path}: no usable question rows")
    repeat = None if distinct else _first_repeat(qids)  # the kept rows of distinct ids are distinct
    if repeat is not None:
        lineno = (repeat if kept is None else int(np.flatnonzero(kept)[repeat])) + 2
        raise FormatError(f"{path}:{lineno}: duplicate question_id {qids[repeat]!r}")
    if space is None and kept is not None:  # a label held only by dropped rows leaves the space
        seen = sum(
            np.bincount(arr[rows].ravel(), minlength=len(found))  # widened to intp a block at a time
            for arr in (answers, truth) if arr is not None
            for rows in _row_blocks(len(arr), len(names), held=2 * len(found))
        )
        if not seen.all():
            held, found = found, tuple(lab for lab, count in zip(found, seen.tolist()) if count)
            answers = _encode_rows(answers, held, found, names, False, path)[0]
            truth = truth if truth is None else _encode_rows(truth[:, None], held, found, [], False, path)[1]
    if space is None and len(found) < 2:
        raise FormatError(f"{path}: fewer than 2 distinct labels in data")
    pm = PredictionMatrix._adopt(space or LabelSpace(found), answers, truth)
    meta = {"question_ids": qids, "agent_names": names, "dropped": dropped, "cache": cache}
    if agents is not None:
        missing = [a for a in agents if a not in names]
        if missing:
            raise FormatError(f"{path}: unknown agents {missing}; file has {names}")
        if len(set(agents)) < len(agents):
            raise FormatError(f"{path}: agents {sorted({a for a in agents if agents.count(a) > 1})} repeated")
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
    names = [str(i + 1) for i in range(pm.n)] if agent_names is None else agent_names
    if len(names) != pm.n:
        raise DimensionError(f"got {len(names)} agent names for {pm.n} agents")
    if question_ids is not None and len(question_ids) != pm.m:
        raise DimensionError(f"got {len(question_ids)} question ids for {pm.m} questions")
    with_truth = include_truth and pm.truth is not None
    header = ["question_id"] + [_AGENT_PREFIX + n for n in names] + (["truth"] if with_truth else [])
    columns = list(pm.answers.T) + ([pm.truth] if with_truth else [])
    atomic_write_text(path, _csv_blocks(header, question_ids, pm.space.labels, columns))


def write_labels_csv(path: str, question_ids, labels, codes=None) -> None:
    """Write a ``question_id,label`` CSV, byte for byte as csv.writer would.

    Row i holds ``question_ids[i]`` and ``labels[i]`` or, given ``codes``,
    ``labels[codes[i]]``: then ``labels`` need list each label only once.
    The ids are a sequence of str, such as the ``QuestionIds`` that
    ``read_predictions_csv`` returns.
    """

    if len(question_ids) != len(labels if codes is None else codes):
        raise DimensionError("question ids and labels must have equal length")
    if codes is None and all(map(isinstance, labels, itertools.repeat(str))):
        lut = _FirstSeen()  # equal str labels are written alike, so a table needs each only once
        codes = np.fromiter(map(lut.__getitem__, labels), np.intp, len(labels))
        labels = list(lut)
    codes = np.arange(len(labels)) if codes is None else np.asarray(codes)
    atomic_write_text(path, _csv_blocks(["question_id", "label"], question_ids, labels, [codes]))


def _csv_text(rows) -> bytes:
    """The UTF-8 bytes csv.writer writes for ``rows``."""

    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def _unquoted(text: bytes) -> bool:
    """Whether ``text`` lacks every byte that makes csv.writer quote a cell."""

    return not (b"," in text or b'"' in text or b"\r" in text or b"\n" in text)


def _csv_blocks(header: list[str], ids, labels, columns: list[np.ndarray]):
    """The bytes csv.writer writes for the row ``header``, then for each i the
    row of ``ids[i]`` (``str(i)`` if ``ids`` is None) and ``labels[col[i]]``
    for each ``col`` of ``columns``, a block of rows at a time; only then are
    its ids encoded, if they are not a ``QuestionIds``' own bytes.

    A block whose cells are all str free of commas, quotes and line breaks is
    gathered from its ids' bytes and a table of ``,label\\r\\n`` entries, the
    CRLF left out but in the last column; whole cells at a time when the ids
    and the entries each have one width. Any other block is csv.writer's.
    """

    yield _csv_text([header])
    own, m, c, plain, mean, entries = isinstance(ids, QuestionIds), len(columns[0]), len(columns), False, 0, None
    with contextlib.suppress(TypeError):  # an id or a label that is not a str, which csv.writer writes
        # an id's mean bytes; a str's characters, the fewest bytes it can take
        mean = (len(ids._data) if own else m * len(str(m)) if ids is None else sum(map(len, ids))) / max(m, 1)
        plain = _unquoted("".join(labels).encode())
    if plain:
        table, sizes = _utf8([f",{lab}\r\n" for lab in labels])
        table, offsets = np.frombuffer(table, np.uint8), np.cumsum(sizes) - sizes
        lens = [sizes - 2] * (c - 1) + [sizes]  # each column's entry lengths
        w = sizes[0] if len(set(sizes.tolist())) == 1 else 0  # the entries' one width, if they share one
        entries = [np.ndarray(len(labels), f"V{n[0]}", table, 0, (w,)) for n in lens] if w else None
    # cells a row holds: with ids and entries of one width, its text twice and its id's offsets; else, a
    # part at a time, its text out and as an intp index, its id twice and five intp arrays of segments
    text = mean + c * (int(sizes.max(initial=0)) if plain else 0)
    gather = 1.125 * text + mean / 4 + 5 * (1 + c)
    for block in _row_blocks(m, 3 + text / 4 if entries else gather):
        data = cells = out = None  # the last block's arrays go before this one's are made
        if plain and own:
            data, starts, ends = ids._block(block.start, block.stop)
        elif plain:
            with contextlib.suppress(TypeError):  # an id that is not a str, which csv.writer writes
                given = map(str, range(block.start, block.stop)) if ids is None else ids[block]
                data, starts, ends = QuestionIds(given)._block()
        quoted = data is None or not _unquoted(data.tobytes())
        if entries and not quoted and data.size and (ends - starts == ends[0]).all():  # ids of one width
            cells = [data.view(f"V{ends[0]}")] + [np.take(e, col[block]) for e, col in zip(entries, columns)]
            out = np.empty(len(starts), [(f"c{j}", cell.dtype) for j, cell in enumerate(cells)])
            for j, cell in enumerate(cells):
                out[f"c{j}"] = cell
            yield out.view(np.uint8)
            continue
        for part in _row_blocks(block.stop - block.start, gather):
            rows = slice(block.start + part.start, block.start + part.stop)
            codes = [col[rows] for col in columns]
            if quoted:  # csv.writer's objects take fewer cells a row than the gather
                cells = (map(labels.__getitem__, k.tolist()) for k in codes)
                yield _csv_text(zip(range(m)[rows] if ids is None else ids[rows], *cells))
            else:  # segments run row by row: the id, then its entries, which follow the ids
                seg_starts = np.stack([starts[part]] + [data.size + offsets[k] for k in codes], axis=1)
                seg_lens = np.stack([ends[part] - starts[part]] + [n[k] for n, k in zip(lens, codes)], axis=1)
                yield _gather(np.concatenate([data, table]), seg_starts.ravel(), seg_lens.ravel())
