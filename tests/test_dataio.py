"""Unit tests for prediction-CSV parsing and the atomic writers."""

import contextlib
import csv
import functools
import io
import json
import os
import re
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quorum import core, dataio
from quorum.core import DimensionError, FormatError, LabelSpace, PredictionMatrix
from quorum.dataio import (
    QuestionIds,
    _Columns,
    _csv_reader,
    _parse_header,
    _read_cells,
    _read_cells_bytes,
    atomic_write_text,
    read_predictions_csv,
    write_json,
    write_labels_csv,
    write_predictions_csv,
)

from mutations import HOSTILE_CSV_BYTES, mutated_bytes


def _reference_read(path, labels=None, drop_incomplete=False):
    """Row-by-row reader that ``read_predictions_csv`` must agree with."""

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file")
        names, has_truth = _parse_header(header, path)
        space = LabelSpace(tuple(labels)) if labels is not None else None
        width = 1 + len(names) + has_truth
        qids, rows, lines, dropped = [], [], [], 0
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise FormatError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            if "" in row[1:]:
                if drop_incomplete:
                    dropped += 1
                    continue
                col = row.index("", 1) - 1
                agent = names[col] if col < len(names) else "truth"
                raise FormatError(
                    f"{path}:{lineno}: empty cell for {agent!r} "
                    "(use --drop-incomplete to skip such questions)"
                )
            for cell in row[1:]:
                if space is not None and cell not in space.labels:
                    raise FormatError(
                        f"{path}:{lineno}: label {cell!r} not in label space {space.labels}"
                    )
            qids.append(row[0])
            rows.append(row[1:])
            lines.append(lineno)
    if not rows:
        raise FormatError(f"{path}: no usable question rows")
    seen = set()
    for qid, lineno in zip(qids, lines):
        if qid in seen:
            raise FormatError(f"{path}:{lineno}: duplicate question_id {qid!r}")
        seen.add(qid)
    if space is None:
        found = sorted({cell for row in rows for cell in row})
        if len(found) < 2:
            raise FormatError(f"{path}: fewer than 2 distinct labels in data")
        space = LabelSpace(tuple(found))
    codes = np.array([[space.index(cell) for cell in row] for row in rows], dtype=np.int64)
    n = len(names)
    pm = PredictionMatrix(space, codes[:, :n], codes[:, n] if has_truth else None)
    # the files it is compared on are under the parse cache's size floor
    return pm, {"question_ids": qids, "agent_names": names, "dropped": dropped, "cache": "off"}


def _outcome(reader, path, **kwargs):
    """What a reader makes of a file: its matrix and meta, or its error text."""

    try:
        pm, meta = reader(str(path), **kwargs)
    except FormatError as exc:
        return str(exc)
    truth = None if pm.truth is None else pm.truth.tolist()
    return pm.space.labels, pm.answers.tolist(), truth, meta


# Labels that need quoting (comma, quote, line break) or keep outer spaces,
# and one more that is outside them.
_LABELS = ("A", "a,b", 'say "hi"', " sp ace ", "two\nlines")
_OUTSIDE = "not, listed"
_ROW_FAULTS = ("empty", "outside", "empty+outside", "wide", "short", "blank", "duplicate")


def _draw_table(draw, labels, outside, ids):
    """A header and up to 8 rows of cells from ``labels``, with up to two kinds of
    row fault; ``ids(q)`` lists the ids that row q may have."""

    n = draw(st.integers(1, 3))
    has_truth = draw(st.booleans())
    header = ["question_id"] + [f"agent_{j}" for j in range(n)] + (["truth"] if has_truth else [])
    kinds = ("ok",) * 3 + tuple(draw(st.lists(st.sampled_from(_ROW_FAULTS), max_size=2, unique=True)))
    rows = []
    for q in range(draw(st.integers(0, 8))):
        row = [draw(st.sampled_from(ids(q)))] + [draw(st.sampled_from(labels)) for _ in header[1:]]
        kind = draw(st.sampled_from(kinds))
        cells = draw(st.permutations(range(1, len(row))))
        if "outside" in kind:
            row[cells[-1]] = outside
        if "empty" in kind:
            row[cells[0]] = ""
        if kind == "wide":
            row.append(draw(st.sampled_from(labels)))
        elif kind == "short":
            row.pop()
        elif kind == "blank":
            row = []
        elif kind == "duplicate" and q:
            row[0] = f"q{draw(st.integers(0, q - 1))}"
        rows.append(row)
    return header, rows


@st.composite
def _prediction_files(draw):
    """(CSV text, labels argument, drop_incomplete) with up to two kinds of row fault.

    A label outside ``_LABELS`` is a fault only when the labels argument
    (then a permutation of ``_LABELS``) is given.
    """

    header, rows = _draw_table(draw, _LABELS, _OUTSIDE, lambda q: [f"q{q}"])
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    writer.writerows(rows)
    labels = draw(st.none() | st.permutations(_LABELS))
    return buf.getvalue(), labels, draw(st.booleans())


# Labels that need no quoting: of 1, 8, 9 and 17 bytes, and non-ASCII ones
# (the last of 9 bytes); and one more that is outside them.
_PLAIN_LABELS = ("A", "eight-ch", "nine-char", "seventeen-bytes!!", "é", "naïve-ü")
_PLAIN_OUTSIDE = "not-listed"


@st.composite
def _plain_prediction_files(draw):
    """Like ``_prediction_files``, but no cell needs quoting.

    Ids may be non-ASCII or empty. The file may use CRLF line breaks, may
    lack its final line break, and may quote one cell of its last row, so
    that the first ``"`` comes late in the file.
    """

    header, rows = _draw_table(
        draw, _PLAIN_LABELS, _PLAIN_OUTSIDE, lambda q: [f"q{q}", f"ü{q}", f"q{q}", ""]
    )
    if rows and rows[-1] and draw(st.booleans()):
        rows[-1][-1] = f'"{rows[-1][-1]}"'
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(",".join(row) + end for row in [header, *rows])
    if draw(st.booleans()):
        text = text[: -len(end)]
    labels = draw(st.none() | st.permutations(_PLAIN_LABELS))
    return text, labels, draw(st.booleans())


# More distinct labels than uint8 codes can hold, one new label per row.
_MANY = [f"L{i:03d}" for i in range(300)]
_MANY_LABELS_FILE = "question_id,agent_a,agent_b\n" + "".join(
    f"q{i},{lab},{_MANY[i // 2]}\n" for i, lab in enumerate(_MANY)
)


def _pm(k=3, with_truth=True):
    answers = np.array([[0, 1, 1], [2, 2, 0], [1, 1, 1], [0, 0, 2]])
    truth = np.array([1, 2, 1, 0]) if with_truth else None
    return PredictionMatrix(LabelSpace.default(k), answers, truth)


class TestRoundTrip:
    def test_predictions_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        pm = _pm()
        write_predictions_csv(str(path), pm, agent_names=["a", "b", "c"])
        back, meta = read_predictions_csv(str(path))
        np.testing.assert_array_equal(back.answers, pm.answers)
        np.testing.assert_array_equal(back.truth, pm.truth)
        assert back.space.labels == pm.space.labels
        assert meta["agent_names"] == ["a", "b", "c"]
        assert meta["question_ids"] == ["0", "1", "2", "3"]
        assert meta["dropped"] == 0

    def test_truth_column_is_optional(self, tmp_path):
        path = tmp_path / "p.csv"
        write_predictions_csv(str(path), _pm(with_truth=False))
        back, _ = read_predictions_csv(str(path))
        assert back.truth is None
        assert path.read_text().splitlines()[0] == "question_id,agent_1,agent_2,agent_3"

    def test_include_truth_flag(self, tmp_path):
        path = tmp_path / "p.csv"
        write_predictions_csv(str(path), _pm(), include_truth=False)
        assert "truth" not in path.read_text().splitlines()[0]

    def test_labels_csv(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels_csv(str(path), ["q1", "q2"], ["A", "C"])
        assert path.read_text() == "question_id,label\nq1,A\nq2,C\n"

    @pytest.mark.parametrize(
        "ids, labels",
        [
            (["q1", "q2"], ["A", "C"]),
            (["", "ü2", "q3"], ["naïve", "", "A"]),
            (["q,1", 'q"2', "q\r3", "q\n4", "q5"], ["A", "B", "C", "D", "E"]),
            (["q1", "q2", "q3", "q4", "q5"], ["a,b", 'say "hi"', "cr\r", "lf\n", "crlf\r\n"]),
            (['q"1', "q2"], ["A", 'say "hi"']),
            ([""], [""]),
            ([], []),
            (["q1", "q2"], np.array(["A", "B"], dtype=object)),
            (["q1", "q2"], [1, 2]),
            (["q1", "q22", "q"], ["A", "C", "A"]),  # 2 bytes an id on average, not each
            (["q1", "q2", "q3", "q4"], [1, True, 1.0, "1"]),  # equal, but written apart
        ],
    )
    def test_labels_csv_matches_csv_writer(self, tmp_path, ids, labels):
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["question_id", "label"])
        writer.writerows(zip(ids, labels))
        path = tmp_path / "labels.csv"
        write_labels_csv(str(path), ids, labels)
        assert path.read_bytes() == expected.getvalue().encode()


# Cells that csv.writer quotes (comma, quote, CR, LF), keeps outer spaces of,
# or holds non-ASCII text; the plain alphabet keeps whole files on the gather path.
_PLAIN_TEXT = st.text(alphabet="ab é", max_size=5)
_ANY_TEXT = st.text(alphabet='ab ,"\r\né\u00fc', max_size=5)


@given(
    st.sampled_from([_PLAIN_TEXT, _ANY_TEXT]).flatmap(
        lambda cell: st.lists(st.tuples(cell, cell), max_size=12)
    ),
    st.integers(1, 5),
)
@settings(max_examples=100, deadline=None)
def test_labels_csv_matches_csv_writer_on_drawn_cells(rows, cells_per_block):
    # the same bytes as csv.writer, whether labels come per row or as a
    # vocabulary and codes, and whether ids come as a list or as QuestionIds
    ids, labels = [r[0] for r in rows], [r[1] for r in rows]
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["question_id", "label"])
    writer.writerows(rows)
    vocab = sorted(set(labels))
    codes = np.array([vocab.index(lab) for lab in labels], dtype=np.int64)
    with contextlib.ExitStack() as stack:
        tmp = stack.enter_context(tempfile.TemporaryDirectory())
        mp = stack.enter_context(pytest.MonkeyPatch.context())
        mp.setattr(core, "_BLOCK_CELLS", 24 * cells_per_block)  # a row counts 5-70 cells: blocks of a few rows
        path = os.path.join(tmp, "labels.csv")
        for args, kwargs in [
            ((ids, labels), {}),
            ((QuestionIds(ids), labels), {}),
            ((QuestionIds(ids), vocab), {"codes": codes}),
            ((ids, tuple(vocab)), {"codes": codes}),
        ]:
            write_labels_csv(path, *args, **kwargs)
            with open(path, "rb") as fh:
                assert fh.read() == expected.getvalue().encode(), (args, kwargs)


# Cells of one width, which the writer copies whole rather than byte by byte.
_ONE_WIDTH_TEXT = st.text(alphabet="ab", min_size=2, max_size=2)


@given(st.data(), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_predictions_csv_matches_csv_writer_on_drawn_cells(data, cells_per_block):
    # the same bytes as csv.writer, for labels and ids that need quoting or
    # not, with and without truth, and for default, list and QuestionIds ids
    cells = st.sampled_from([_PLAIN_TEXT, _ANY_TEXT, _ONE_WIDTH_TEXT])
    labels = data.draw(st.lists(data.draw(cells).filter(bool), min_size=2, max_size=4, unique=True))
    ids = data.draw(st.lists(data.draw(cells), min_size=1, max_size=12))
    m, n, k = len(ids), data.draw(st.integers(1, 3)), len(labels)
    codes = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=m * (n + 1), max_size=m * (n + 1))))
    pm = PredictionMatrix(LabelSpace(tuple(labels)), codes[: m * n].reshape(m, n), codes[m * n :])
    with_truth = data.draw(st.booleans())
    given_ids = data.draw(st.sampled_from([None, ids, QuestionIds(ids)]))
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["question_id"] + [f"agent_{j + 1}" for j in range(n)] + ["truth"] * with_truth)
    columns = [pm.answers[:, j] for j in range(n)] + [pm.truth] * with_truth
    rows_ids = [str(q) for q in range(m)] if given_ids is None else ids
    writer.writerows([qid, *(labels[col[i]] for col in columns)] for i, qid in enumerate(rows_ids))
    with contextlib.ExitStack() as stack:
        tmp = stack.enter_context(tempfile.TemporaryDirectory())
        mp = stack.enter_context(pytest.MonkeyPatch.context())
        mp.setattr(core, "_BLOCK_CELLS", 24 * cells_per_block)  # a row counts 5-70 cells: blocks of a few rows
        path = os.path.join(tmp, "p.csv")
        write_predictions_csv(path, pm, question_ids=given_ids, include_truth=with_truth)
        with open(path, "rb") as fh:
            assert fh.read() == expected.getvalue().encode()


def test_labels_csv_memory_is_a_block_when_ids_need_quoting(tmp_path):
    # csv.writer writes one block of rows at a time: beyond what the caller
    # holds, the write peaks at about a block's rows and text, not at the
    # text of the whole file
    m = 300_000
    ids = QuestionIds(f'q"{i:030d}' for i in range(m))
    codes = np.arange(m) % 3
    path = tmp_path / "labels.csv"
    tracemalloc.start()
    try:
        write_labels_csv(str(path), ids, ["A", "B", "C"], codes=codes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["question_id", "label"] and len(rows) == m + 1
    assert rows[-1] == [f'q"{m - 1:030d}', "ABC"[(m - 1) % 3]]
    assert peak < path.stat().st_size / 2, (peak, path.stat().st_size)


class TestLabelSpaceInference:
    def test_sorted_unique_labels(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("question_id,agent_x,agent_y\nq0,no,yes\nq1,yes,yes\n")
        pm, _ = read_predictions_csv(str(path))
        assert pm.space.labels == ("no", "yes")
        np.testing.assert_array_equal(pm.answers, [[0, 1], [1, 1]])

    def test_explicit_label_order_wins(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("question_id,agent_x,agent_y\nq0,no,yes\nq1,yes,yes\n")
        pm, _ = read_predictions_csv(str(path), labels=["yes", "no"])
        np.testing.assert_array_equal(pm.answers, [[1, 0], [0, 0]])

    def test_truth_labels_count_toward_space(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("question_id,agent_x,truth\nq0,B,A\nq1,B,B\n")
        pm, _ = read_predictions_csv(str(path))
        assert pm.space.labels == ("A", "B")

    def test_label_outside_space_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("question_id,agent_x,agent_y\nq0,A,B\nq1,C,A\n")
        with pytest.raises(FormatError, match=r"p\.csv:3: label 'C'"):
            read_predictions_csv(str(path), labels=["A", "B"])

    def test_truth_outside_space_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("question_id,agent_x,truth\nq0,A,B\nq1,B,A\nq2,A,C\n")
        with pytest.raises(FormatError, match=r"p\.csv:4: label 'C'"):
            read_predictions_csv(str(path), labels=["A", "B"])


class TestAgainstRowByRowReader:
    @given(_prediction_files())
    # an empty cell outranks an outside label in the same row, and drops it
    @example(("question_id,agent_x,agent_y\nq0,,C\nq1,C,\nq2,A,B\n", ["A", "B"], False))
    @example(("question_id,agent_x,agent_y\nq0,,C\nq1,A,B\nq2,B,A\n", ["A", "B"], True))
    # a duplicate's line counts the dropped rows before it
    @example(("question_id,agent_x,agent_y\nq0,,B\nq1,A,B\nq2,,A\nq1,B,B\n", None, True))
    # an earlier label fault wins over a later width fault
    @example(("question_id,agent_x\nq0,C\nq1\n", ["A", "B"], False))
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_same_matrix_meta_or_error(self, tmp_path, case):
        self._check(tmp_path, *case)

    @given(_prediction_files(), st.integers(1, 12))
    # a label first seen after a block boundary
    @example(("question_id,agent_x,agent_y\nq0,A,A\nq1,A,B\nq2,C,A\n", None, False), 2)
    # an earlier label fault wins over an empty cell and a width fault in later blocks
    @example(("question_id,agent_x,agent_y\nq0,A,C\nq1,,B\nq2,A\n", ["A", "B"], False), 3)
    @example((_MANY_LABELS_FILE, None, False), 7)
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_same_outcome_across_block_boundaries(self, tmp_path, case, cells_per_block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_CELLS_PER_BLOCK", cells_per_block)
            self._check(tmp_path, *case)

    @given(_plain_prediction_files(), st.integers(1, 12))
    # a cell of 17 bytes first seen after a block boundary, and no final line break
    @example(("question_id,agent_x\nq0,A\nq1,seventeen-bytes!!", None, False), 1)
    # a quote after the first chunk: the file is read again by csv.reader
    @example(("question_id,agent_x\nq0,A\nq1,B\nq2,\"B\"\n", None, False), 1)
    # a wide and a short row in one chunk, with as many commas as two good rows
    @example(("question_id,agent_x,agent_y\nq0,A,B,A\nq1,A\n", None, False), 12)
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_plain_files_same_outcome_across_block_boundaries(self, tmp_path, case, cells_per_block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_CELLS_PER_BLOCK", cells_per_block)
            self._check(tmp_path, *case)

    @given(_plain_prediction_files(), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_byte_tokenizer_matches_csv_reader(self, case, cells_per_block):
        # the byte tokenizer, then csv.reader reading on from what it hands
        # back, read what csv.reader alone reads; the tokenizer hands back
        # bytes only at a quote or a row of the wrong width
        header, _, body = case[0].partition("\n")
        width = len(header.split(","))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_CELLS_PER_BLOCK", cells_per_block)
            rows, vocab, fh = _Columns(width), [], io.BytesIO(body.encode())
            rest = _read_cells_bytes(fh, rows, vocab)
            got = _read_cells(_csv_reader(rest, fh), rows, vocab)
            expected = _read_cells(csv.reader(io.StringIO(body, newline="")), _Columns(width), [])
        assert not rest or '"' in body or expected[3] is not None
        _same_cells(got, expected)

    @staticmethod
    def _check(tmp_path, text, labels, drop):
        path = tmp_path / "p.csv"
        path.write_text(text, newline="")
        expected = _outcome(_reference_read, path, labels=labels, drop_incomplete=drop)
        got = _outcome(read_predictions_csv, path, labels=labels, drop_incomplete=drop)
        assert got == expected

    def test_codes_widen_past_256_labels(self, monkeypatch):
        monkeypatch.setattr(dataio, "_CELLS_PER_BLOCK", 8)
        reader = csv.reader(io.StringIO(_MANY_LABELS_FILE))
        next(reader)
        qids, codes, vocab, bad_width = _read_cells(reader, _Columns(3), [])
        assert codes.dtype == np.uint16 and bad_width is None
        assert vocab == _MANY and len(qids) == 300
        np.testing.assert_array_equal(codes[:, 0], np.arange(300))

    def test_label_seen_only_in_dropped_row_is_not_in_space(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("question_id,agent_x,truth\nq0,A,B\nq1,C,\nq2,B,A\n")
        pm, meta = read_predictions_csv(str(path), drop_incomplete=True)
        assert pm.space.labels == ("A", "B")
        np.testing.assert_array_equal(pm.answers, [[0], [1]])
        np.testing.assert_array_equal(pm.truth, [1, 0])
        assert meta["question_ids"] == ["q0", "q2"]
        assert meta["dropped"] == 1


def _same_cells(got, expected):
    """Two reads of rows agree in ids, codes and fault, and in every label the
    kept rows use: a read that stops at a fault may have looked up the labels of
    later rows in the same block, which take the codes after them."""

    assert got[0] == expected[0] and got[3] == expected[3]
    assert got[1].dtype == expected[1].dtype
    np.testing.assert_array_equal(got[1], expected[1])
    used = int(got[1].max()) + 1 if got[1].size else 0
    assert got[2][:used] == expected[2][:used]
    if expected[3] is None:
        assert got[2] == expected[2]


def _refuse_csv_reader(monkeypatch):
    """Make the read fail if the csv.reader path reads the rows."""

    def refuse(*args):
        raise AssertionError("the csv.reader path was used")

    monkeypatch.setattr(dataio, "_read_cells", refuse)


def _refuse_byte_tokenizer(monkeypatch):
    """Make no text plain, so that csv.reader reads the file from its header on."""

    monkeypatch.setattr(dataio, "_plain", lambda data: False)


def test_ingest_memory_is_bounded_by_a_block(tmp_path, monkeypatch):
    # the cells' strings must not all be alive at once: beyond what the
    # result keeps, the read may hold only about one block of cells; at
    # 100 agents the code matrix (2 MB) must not be held twice either
    labels = tuple(f"label_{c}" for c in "abcde")
    _refuse_byte_tokenizer(monkeypatch)
    for n in (20, 100):
        answers = np.random.default_rng(0).integers(0, 5, size=(20_000, n))
        path = str(tmp_path / "p.csv")
        write_predictions_csv(path, PredictionMatrix(LabelSpace(labels), answers))
        tracemalloc.start()
        try:
            pm, meta = read_predictions_csv(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(pm.answers, answers)
        assert peak <= retained + 2 * 2**20, (n, peak, retained)


def _traced_read(path):
    """What ``path`` reads as, and the read's retained and peak traced bytes."""

    tracemalloc.start()
    try:
        pm, meta = read_predictions_csv(str(path))
        return (pm, meta, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def test_byte_ingest_memory_is_bounded_by_a_block(tmp_path, monkeypatch):
    # the bound above, for the same files with LF line breaks instead of
    # CRLF, which the byte tokenizer reads
    labels = tuple(f"label_{c}" for c in "abcde")
    _refuse_csv_reader(monkeypatch)
    for n in (20, 100):
        answers = np.random.default_rng(0).integers(0, 5, size=(20_000, n))
        path = tmp_path / "p.csv"
        write_predictions_csv(str(path), PredictionMatrix(LabelSpace(labels), answers))
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        pm, _, retained, peak = _traced_read(path)
        np.testing.assert_array_equal(pm.answers, answers)
        assert peak <= retained + 2 * 2**20, (n, peak, retained)


@given(_plain_prediction_files(), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_crlf_tokenizes_as_its_lf_copy(case, cells_per_block):
    # CRLFs are folded to LFs on the byte path, one split between two reads of
    # the file included: short chunks make one likely
    header, _, body = case[0].replace("\r\n", "\n").partition("\n")
    width = len(header.split(","))
    reads = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_CELLS_PER_BLOCK", cells_per_block)
        for text in (body, body.replace("\n", "\r\n")):
            rows, vocab = _Columns(width), []
            reads.append((_read_cells_bytes(io.BytesIO(text.encode()), rows, vocab), rows, vocab))
    (lf, lf_rows, lf_vocab), (crlf, crlf_rows, crlf_vocab) = reads
    assert bool(crlf) == bool(lf)
    if not lf:  # each read the whole file
        _same_cells((*crlf_rows.result(), crlf_vocab, None), (*lf_rows.result(), lf_vocab, None))


def test_simulated_panels_take_the_byte_tokenizer(tmp_path, monkeypatch):
    # write_predictions_csv writes CRLF, header included, as csv.writer does
    pm = PredictionMatrix(LabelSpace.default(4), np.random.default_rng(0).integers(0, 4, size=(5_000, 3)))
    path = tmp_path / "p.csv"
    write_predictions_csv(str(path), pm)
    assert path.read_bytes().count(b"\r\n") == 5_001
    _refuse_csv_reader(monkeypatch)
    back, meta = read_predictions_csv(str(path))
    np.testing.assert_array_equal(back.answers, pm.answers)
    assert meta["question_ids"] == [str(q) for q in range(5_000)]


def test_predictions_csv_holds_a_block_beside_the_caller(tmp_path):
    # each block's ids are encoded only as it is written, whether the ids
    # "0".."M-1" are made from its row numbers or given as a list of str:
    # beyond what the caller holds, a write holds about a block of rows, and
    # the default ids are written as the same ids given as a list are
    m = 200_000
    answers = np.random.default_rng(0).integers(0, 4, size=(m, 4))
    pm = PredictionMatrix(LabelSpace.default(4), answers, answers[:, 0].copy())
    peaks = []
    for name, ids in (("default.csv", None), ("listed.csv", [str(q) for q in range(m)])):
        tracemalloc.start()
        try:
            write_predictions_csv(str(tmp_path / name), pm, question_ids=ids)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()
    assert max(peaks) <= 2 * 2**20, peaks


@pytest.mark.parametrize("as_question_ids", [True, False], ids=["QuestionIds", "list"])
def test_labels_csv_of_long_ids_holds_a_block_beside_the_caller(tmp_path, as_question_ids):
    # ids of 2,000 and 2,001 bytes take the gather, which holds an intp index
    # an output byte: the writer counts a row's bytes from the ids' mean
    # length and gathers a part of a block at a time, so beyond the ids and
    # codes a write holds about a block
    m = 20_000
    ids = (f"{q:0{2_000 + q % 2}d}" for q in range(m))
    ids = QuestionIds(ids) if as_question_ids else list(ids)
    codes = np.arange(m) % 3
    path = tmp_path / "labels.csv"
    tracemalloc.start()
    try:
        write_labels_csv(str(path), ids, ["A", "B", "C"], codes=codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(path, "rb") as fh:
        assert fh.readline() == b"question_id,label\r\n" and fh.readline() == b"0" * 2_000 + b",A\r\n"
        assert sum(1 for _ in fh) == m - 1
    assert peak <= 2 * 2**20, peak


def test_long_cells_are_read_within_a_block_of_memory(tmp_path, monkeypatch):
    # a 100 KB id and a 100 KB label: the byte tokenizer keys the label by
    # 12,500 words without widening every other cell's key to as many
    long_id, long_label = "i" * 100_000, "L" * 100_000
    rows = [f"q{i},{'AB'[i % 2]},B" for i in range(5_000)]
    rows.insert(2_500, f"{long_id},A,{long_label}")
    path = tmp_path / "p.csv"
    path.write_text("question_id,agent_x,agent_y\n" + "\n".join(rows) + "\n")
    _refuse_csv_reader(monkeypatch)
    pm, meta, retained, peak = _traced_read(path)
    assert pm.space.labels == ("A", "B", long_label)
    assert meta["question_ids"][2_500] == long_id and pm.answers[2_500].tolist() == [0, 2]
    assert peak <= retained + 2 * 2**20, (peak, retained)


def _panel_lines(rows):
    """The lines of a header and ``rows`` rows of two agents and truth, plain text."""

    return ["question_id,agent_x,agent_y,truth"] + [
        f"q{i},{'AB'[i % 2]},{'BA'[i % 3 > 0]},A" for i in range(rows)
    ]


def _pipe_outcome(data, path):
    """What ``read_predictions_csv`` makes of ``data`` read through a pipe, as
    ``_outcome`` gives it, with ``path`` named in place of the pipe."""

    read_end, write_end = os.pipe()
    writer = threading.Thread(target=_write_and_close, args=(write_end, data), daemon=True)
    writer.start()
    try:
        got = _outcome(read_predictions_csv, f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
        writer.join(timeout=10)
    assert not writer.is_alive()
    return got.replace(f"/dev/fd/{read_end}", str(path)) if isinstance(got, str) else got


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("variant", ["lf", "crlf", "late-quote"])
def test_a_pipe_reads_like_a_file(tmp_path, variant):
    # a pipe cannot be rewound or opened afresh, so the file must be opened
    # once and read once; the late quote sits well past the first chunk
    lines = _panel_lines(20_000)
    if variant == "late-quote":
        lines[-2] = lines[-2].replace(",A", ',"A"', 1)
    data = ("\r\n" if variant == "crlf" else "\n").join(lines).encode() + b"\n"
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    expected = _outcome(read_predictions_csv, path)
    assert isinstance(expected, tuple) and len(expected[3]["question_ids"]) == 20_000
    assert _pipe_outcome(data, path) == expected


# What the byte tokenizer hands to csv.reader, done to one line of a plain panel
_HAND_OVER_CAUSES = {
    "quote": lambda line: b'%s,"%s"' % tuple(line.rsplit(b",", 1)),
    "quoted-crlf": lambda line: b'%s,"%s\r\n"' % tuple(line.rsplit(b",", 1)),  # read as written, not folded
    "bare-cr": lambda line: line + b"\r",  # as the line's end: no line break follows it
    "nul": lambda line: b"q\0" + line[1:],
    "wide": lambda line: line + b",A",
    "short": lambda line: line[: line.rindex(b",")],
    "not-utf8": lambda line: b"q\xff" + line[1:],
    "long-cell": lambda line: b"q" * (csv.field_size_limit() + 1) + line[line.index(b",") :],
}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@given(
    st.integers(1, 30).flatmap(lambda rows: st.tuples(st.just(rows), st.integers(1, rows))),
    st.sampled_from(sorted(_HAND_OVER_CAUSES)),
    st.sampled_from([b"\n", b"\r\n"]),
    st.integers(1, 12),
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_hand_over_anywhere_reads_like_the_reference_or_names_its_line(
    tmp_path, rows_at, cause, end, cells_per_block
):
    # csv.reader reads on from wherever the byte tokenizer stops, for a file
    # and for a pipe: the panel reads as the row-by-row reference reads it, or,
    # where that reader cannot (bytes that are not UTF-8, an over-long field),
    # the error names the line the cause is on
    rows, at = rows_at
    lines = [line.encode() for line in _panel_lines(rows)]
    lines[at] = _HAND_OVER_CAUSES[cause](lines[at])
    data = b"".join(line if line.endswith(b"\r") else line + end for line in lines)
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    if cause in ("not-utf8", "long-cell"):
        message = "not UTF-8 text" if cause == "not-utf8" else "field larger than field limit"
        expected = f"{path}:{at + 1}: {message}"
    else:
        expected = _outcome(_reference_read, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_CELLS_PER_BLOCK", cells_per_block)
        for got in (_outcome(read_predictions_csv, path), _pipe_outcome(data, path)):
            if cause == "long-cell":
                got = got.split(" (")[0]  # the limit's value follows
            assert got == expected


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("variant", ["plain", "late-quote", "late-short-row", "late-not-utf8"])
def test_csv_reader_reads_on_from_the_chunk_the_byte_tokenizer_hands_back(tmp_path, monkeypatch, variant, source):
    # the rows the byte tokenizer read are kept, not read again: csv.reader
    # starts at the chunk it hands back, and a plain pipe never reaches it
    lines = [line.encode() for line in _panel_lines(20_000)]
    last = {"late-quote": "quote", "late-short-row": "short", "late-not-utf8": "not-utf8"}.get(variant)
    if last is not None:
        lines[-1] = _HAND_OVER_CAUSES[last](lines[-1])
    data = b"\n".join(lines) + b"\n"
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    # the rows whose line ends in a piece before the one that holds the quote,
    # or the faulty line's newline; the pieces start after the header
    start, size = len(lines[0]) + 1, 4 * dataio._CELLS_PER_BLOCK
    stop = data.index(b'"') if variant == "late-quote" else len(data) - 1
    before = data[start : start + (stop - start) // size * size].count(b"\n")
    assert before > 15_000  # all but the last piece's rows
    entered, read_cells = [], dataio._read_cells

    def recording(reader, rows, vocab):
        entered.append(rows.rows)
        return read_cells(reader, rows, vocab)

    monkeypatch.setattr(dataio, "_read_cells", recording)
    got = _outcome(read_predictions_csv, path) if source == "file" else _pipe_outcome(data, path)
    assert entered == ([] if variant == "plain" else [before])
    if variant == "late-short-row":
        assert got == f"{path}:20001: expected 4 fields, got 3"
    elif variant == "late-not-utf8":
        assert got == f"{path}:20001: not UTF-8 text"
    else:
        assert got == _outcome(_reference_read, path)


_ID_ROWS = ["q0", "ü1", "", " q 3 ", "q4"]
_QUOTED_ID_ROWS = ["q,0", 'q"1', "", "q\n3", "q\r\n4"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("variant", ["lf", "crlf", "quote-all", "pipe"])
def test_question_ids_act_as_a_list(tmp_path, variant):
    ids = _QUOTED_ID_ROWS if variant == "quote-all" else _ID_ROWS
    buf = io.StringIO()
    writer = csv.writer(
        buf,
        lineterminator="\r\n" if variant == "crlf" else "\n",
        quoting=csv.QUOTE_ALL if variant == "quote-all" else csv.QUOTE_MINIMAL,
    )
    writer.writerow(["question_id", "agent_x", "agent_y"])
    writer.writerows([qid, "AB"[i % 2], "B"] for i, qid in enumerate(ids))
    data = buf.getvalue().encode()
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    if variant == "pipe":
        read_end, write_end = os.pipe()
        feeder = threading.Thread(target=_write_and_close, args=(write_end, data), daemon=True)
        feeder.start()
        try:
            _, meta = read_predictions_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
            feeder.join(timeout=10)
        assert not feeder.is_alive()
    else:
        _, meta = read_predictions_csv(str(path))
    got = meta["question_ids"]
    assert isinstance(got, QuestionIds)
    assert len(got) == len(ids)
    assert [got[i] for i in range(len(ids))] == ids
    assert got[-1] == ids[-1] and got[1:4] == ids[1:4] and got[::-2] == ids[::-2]
    assert got[3:1] == ids[3:1] and got[-2:] == ids[-2:] and got[:] == ids
    with pytest.raises(IndexError):
        got[len(ids)]
    assert list(got) == ids and [*got] == ids
    assert got == ids and ids == got and got == tuple(ids)
    assert got != ids[:-1] and got != ids[::-1] and got != "".join(ids)
    assert got == QuestionIds(ids) and got != QuestionIds(ids[::-1])


_VALID_PANEL = "".join(line + "\n" for line in _panel_lines(6)).encode()


@given(mutated_bytes(_VALID_PANEL, HOSTILE_CSV_BYTES), st.integers(1, 12))
@example(b"question_id,agent_x\nq0,A\nq1,B\nq\xff,A\n", 1)
@example(b"\xef\xbb\xbfquestion_id,agent_x\nq0,A\nq1,B\n", 12)
@example(b"question_id,agent_x\nq\x000,A\nq\x00,B\nq,A\n", 2)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_bytes_read_like_the_reference_or_name_a_line(tmp_path, data, cells_per_block):
    # a hostile file reads as the row-by-row reference reads it, or, where
    # that reader cannot (bytes that are not UTF-8, an over-long field),
    # fails with a FormatError that names the line
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_CELLS_PER_BLOCK", cells_per_block)
        got = _outcome(read_predictions_csv, path)
    try:
        expected = _outcome(_reference_read, path)
    except (UnicodeDecodeError, csv.Error):
        fault = _header_fault(path)
        if fault is not None:
            assert got == fault
        else:
            assert isinstance(got, str) and re.match(rf"{re.escape(str(path))}:\d+: ", got), got
    else:
        assert got == expected


def _header_fault(path):
    """The error ``_parse_header`` raises for the first record of ``path``, if
    that record is UTF-8 text csv.reader accepts; else None."""

    try:
        with open(path, newline="", errors="surrogateescape") as fh:
            header = next(csv.reader(fh), [])
        "".join(header).encode()
        _parse_header(header, str(path))
    except (csv.Error, UnicodeEncodeError):
        return None
    except FormatError as exc:
        return str(exc)
    return None


def _write_and_close(fd, data):
    with contextlib.suppress(BrokenPipeError), open(fd, "wb") as fh:
        fh.write(data)


def test_a_first_block_with_no_row_names_the_line_at_fault(tmp_path, monkeypatch):
    # csv.reader takes over at the over-long field, and its first one-cell block
    # ends at the row that is not UTF-8 before any row was kept
    path = tmp_path / "p.csv"
    path.write_bytes(b"question_id,agent_x,agent_y,truth\n\xffq0,A,B,A\n" + b"x" * 200_000 + b",A,B,A\nq1,A,B,A\n")
    monkeypatch.setattr(dataio, "_CELLS_PER_BLOCK", 1)
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:2: not UTF-8 text"):
        read_predictions_csv(str(path))


@pytest.mark.parametrize("header_end", ["\n", "\r"])
def test_bare_cr_file_is_read_within_a_block_of_memory(tmp_path, header_end):
    # lines ending in a bare carriage return leave the byte tokenizer before
    # more than a chunk of the file is held, header line included; long
    # labels keep what the read returns small beside the file
    answers = np.random.default_rng(0).integers(0, 2, size=(3_000, 100))
    space = LabelSpace(("a-long-label-no", "a-long-label-yes"))
    path = tmp_path / "p.csv"
    write_predictions_csv(str(path), PredictionMatrix(space, answers))
    header, _, body = path.read_bytes().partition(b"\r\n")
    path.write_bytes(header + header_end.encode() + body.replace(b"\r\n", b"\r"))
    assert path.stat().st_size > 4 * 10**6
    pm, _, retained, peak = _traced_read(path)
    np.testing.assert_array_equal(pm.answers, answers)
    assert peak <= retained + 2 * 2**20, (peak, retained)


@pytest.mark.parametrize(
    "kwargs",
    [{"agent_names": []}, {"question_ids": []}, {"question_ids": QuestionIds([])}],
    ids=["agent_names", "question_ids", "QuestionIds"],
)
def test_empty_names_or_ids_are_of_the_wrong_length(tmp_path, kwargs):
    # an empty list stands for no names or ids, not for the defaults
    path = tmp_path / "p.csv"
    with pytest.raises(DimensionError):
        write_predictions_csv(str(path), PredictionMatrix(LabelSpace.default(2), np.eye(2, dtype=int)), **kwargs)
    assert not path.exists()


class TestAgentSelection:
    def test_subset_in_requested_order(self, tmp_path):
        path = tmp_path / "p.csv"
        write_predictions_csv(str(path), _pm(), agent_names=["a", "b", "c"])
        pm, meta = read_predictions_csv(str(path), agents=["c", "a"])
        assert meta["agent_names"] == ["c", "a"]
        np.testing.assert_array_equal(pm.answers[:, 1], _pm().answers[:, 0])

    def test_unknown_agent_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        write_predictions_csv(str(path), _pm(), agent_names=["a", "b", "c"])
        with pytest.raises(FormatError, match="unknown agents"):
            read_predictions_csv(str(path), agents=["a", "zz"])

    def test_repeated_agent_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        write_predictions_csv(str(path), _pm(), agent_names=["a", "b", "c"])
        with pytest.raises(FormatError, match=r"p\.csv: agents \['a'\] repeated"):
            read_predictions_csv(str(path), agents=["a", "a", "b"])


class TestMalformedInputs:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot open"):
            read_predictions_csv(str(tmp_path / "none.csv"))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("qid,agent_x\nq0,A\n")
        with pytest.raises(FormatError, match="question_id"):
            read_predictions_csv(str(path))
        path.write_text("question_id,x\nq0,A\n")
        with pytest.raises(FormatError, match="agent_"):
            read_predictions_csv(str(path))
        path.write_text("question_id,truth\nq0,A\n")
        with pytest.raises(FormatError, match="no agent columns"):
            read_predictions_csv(str(path))
        path.write_text("question_id,agent_x,agent_x\nq0,A,B\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_predictions_csv(str(path))

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("question_id,agent_x,agent_y\nq0,A,B\nq1,A\n")
        with pytest.raises(FormatError, match=r"p\.csv:3"):
            read_predictions_csv(str(path))

    def test_duplicate_question_id_reports_second_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("question_id,agent_x,agent_y\nq1,A,B\nq2,A,A\nq1,B,B\n")
        with pytest.raises(FormatError, match=r"p\.csv:4: duplicate question_id 'q1'"):
            read_predictions_csv(str(path))
        # dropped rows still count toward the reported line
        path.write_text("question_id,agent_x,agent_y\nq0,,B\nq1,A,B\nq2,,A\nq1,B,B\n")
        with pytest.raises(FormatError, match=r"p\.csv:5: duplicate question_id 'q1'"):
            read_predictions_csv(str(path), drop_incomplete=True)

    def test_empty_cell_suggests_drop_flag(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("question_id,agent_x,agent_y\nq0,A,B\nq1,,B\n")
        with pytest.raises(FormatError, match="drop-incomplete"):
            read_predictions_csv(str(path))

    def test_drop_incomplete_skips_and_counts(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "question_id,agent_x,agent_y\nq0,A,B\nq1,,B\nq2,B,B\nq3,A,\n"
        )
        pm, meta = read_predictions_csv(str(path), drop_incomplete=True)
        assert pm.m == 2
        assert meta["question_ids"] == ["q0", "q2"]
        assert meta["dropped"] == 2

    def test_all_rows_dropped_is_an_error(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("question_id,agent_x,agent_y\nq0,,B\n")
        with pytest.raises(FormatError, match="no usable"):
            read_predictions_csv(str(path), drop_incomplete=True)

    def test_single_label_file_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("question_id,agent_x,agent_y\nq0,A,A\n")
        with pytest.raises(FormatError, match="fewer than 2"):
            read_predictions_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            read_predictions_csv(str(path))

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "line,row,message",
        [
            (5002, b"q\xff,A,B,A", "not UTF-8 text"),
            (5002, b"q5000,A,\xfeB,A", "not UTF-8 text"),
            (5002, b"q" * 200_000 + b",A,B,A", "field larger than field limit"),
            (5002, b'"' + b"q" * 200_000 + b'",A,B,A', "field larger than field limit"),
            (1, b"question_id,agent_\xff,agent_y,truth", "not UTF-8 text"),
            (1, b"question_id,agent_" + b"x" * 200_000 + b",agent_y,truth", "field larger"),
        ],
        ids=["id-not-utf8", "label-not-utf8", "long-id", "long-quoted-id", "header-not-utf8", "long-header"],
    )
    def test_hostile_record_reports_its_line(self, tmp_path, newline, line, row, message):
        # line 5002 lies past the first ingest block (4096 rows of 4 cells) and
        # the first chunk the text decoder reads
        lines = [text.encode() for text in _panel_lines(6000)]
        lines[line - 1] = row
        path = tmp_path / "p.csv"
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(FormatError, match=rf"p\.csv:{line}: {message}"):
            read_predictions_csv(str(path))

    def test_earlier_fault_wins_over_a_hostile_record(self, tmp_path):
        lines = [text.encode() for text in _panel_lines(6000)]
        lines[5001] = b"q\xff,A,B,A"
        lines[3000] = b"q2999,A"
        path = tmp_path / "p.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(FormatError, match=r"p\.csv:3001: expected 4 fields, got 2"):
            read_predictions_csv(str(path))
        lines[3000] = b"q2999,,B,A"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(FormatError, match=r"p\.csv:3001: empty cell"):
            read_predictions_csv(str(path))


# (line -> row) edits of a 6,000-row ``_panel_lines`` panel, the labels argument,
# drop_incomplete, and the error the read must raise (None: it reads); each
# fault lies past the first block of rows at both budgets
_PRECEDENCE = {
    "empty-before-unknown": ({5002: "q5000,C,,A"}, ["A", "B"], False, r"5002: empty cell for 'y'"),
    "empty-drops-unknown": ({5002: "q5000,C,,A"}, ["A", "B"], True, None),
    "empty-before-parse-fault": ({3001: "q2999,A,B,", 5002: "q5000,A"}, None, False, r"3001: empty cell for 'truth'"),
    "unknown-before-parse-fault": ({3001: "q2999,C,B,A", 5002: "q5000,A"}, ["A", "B"], True, r"3001: label 'C'"),
    "dropped-then-parse-fault": ({3001: "q2999,,B,A", 5002: "q5000,A"}, None, True, r"5002: expected 4 fields, got 2"),
    "duplicate-before-one-label": ({2: "q0,A,A,A", 5002: "q0,A,A,A"}, None, False, r"5002: duplicate question_id 'q0'"),
    "label-only-in-dropped-rows": ({3001: "q2999,Z,,A", 5002: "q5000,B,Z,"}, None, True, None),
}


@pytest.mark.parametrize("budget", [None, 2**12], ids=["default", "4096"])
@pytest.mark.parametrize("case", sorted(_PRECEDENCE))
def test_read_errors_keep_their_precedence(tmp_path, monkeypatch, case, budget):
    # screening (an empty cell before an unknown label within a row), then the
    # parse fault, then a duplicate id, then too few labels; a label seen
    # only in dropped rows is not in the inferred space
    if budget is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", budget)
    edits, labels, drop, error = _PRECEDENCE[case]
    lines = _panel_lines(6000)
    if case == "duplicate-before-one-label":
        lines = [line.replace("B", "A") for line in lines]
    for line, row in edits.items():
        lines[line - 1] = row
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    got = _outcome(read_predictions_csv, path, labels=labels, drop_incomplete=drop)
    assert got == _outcome(_reference_read, path, labels=labels, drop_incomplete=drop)
    if error is None:
        assert got[0] == ("A", "B")
    else:
        assert re.fullmatch(rf"{re.escape(str(path))}:{error}.*", got), got
    if case == "duplicate-before-one-label":
        lines[5001] = "q5000,A,A,A"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="fewer than 2 distinct labels"):
            read_predictions_csv(str(path))


@pytest.mark.parametrize("budget", [None, 2**12], ids=["default", "4096"])
@pytest.mark.parametrize("lost", [False, True], ids=["all-kept", "one-lost"])
def test_257_labels_with_dropped_rows(tmp_path, monkeypatch, budget, lost):
    # uint16 codes; with a label seen only in a dropped row, 256 labels are
    # left and the answers and truth narrow to uint8
    if budget is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", budget)
    labels = [f"L{i:03d}" for i in range(257)]
    lines = ["question_id,agent_x,agent_y,truth"]
    for i in range(3000):
        lines.append(f"q{i},{labels[i % 257]},{labels[(7 * i) % 257]},{labels[(i // 3) % 257]}")
    for i in range(100, 3000, 97):  # dropped rows
        lines[1 + i] = f"q{i},,{labels[i % 257]},{labels[0]}"
    if lost:  # L200 only in a dropped row
        lines = [line.replace("L200", "L199") for line in lines]
        lines[1 + 2813] = f"q2813,L200,,{labels[0]}"
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    pm, meta = read_predictions_csv(str(path), drop_incomplete=True)
    assert _outcome(read_predictions_csv, path, drop_incomplete=True) == _outcome(
        _reference_read, path, drop_incomplete=True
    )
    assert pm.k == 256 if lost else 257
    assert pm.answers.dtype == pm.truth.dtype == (np.uint8 if lost else np.uint16)
    assert meta["dropped"] == 30 + lost


class TestAtomicWriters:
    def test_text_replaces_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "one")
        atomic_write_text(str(path), "two")
        assert path.read_text() == "two"
        assert [p for p in tmp_path.iterdir()] == [path]  # no temp litter

    def test_json_is_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(str(path), {"b": 1, "a": 2})
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 2, "b": 1}
        assert text.index('"a"') < text.index('"b"')


# ---------------------------------------------------------------------------
# Parse cache
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _large_panel_rows(empty_every):
    labels = ("alpha", "bravo", "charlie", "delta", "echo,foxtrot")
    codes = np.random.default_rng(1).integers(0, 5, size=(26_000, 5)).tolist()
    table = [("question_id", "agent_a", "agent_b", "agent_c", "agent_d", "truth")]
    for i, row in enumerate(codes):
        cells = [labels[c] for c in row]
        if empty_every and i % empty_every == 3:
            cells[i % 4] = ""
        table.append((f"q{i}", *cells))
    return tuple(table)


def _large_panel(empty_every=0):
    """The csv rows of a panel of four agents and truth over five labels, one
    of them quoted by csv.writer; every ``empty_every``-th row (if any) has
    an empty cell. Each copy of it is over the cache's 1 MiB floor."""

    return [list(row) for row in _large_panel_rows(empty_every)]


def _write_copy(path, table, variant):
    with open(path, "w", newline="") as fh:
        csv.writer(
            fh,
            lineterminator="\r\n" if variant == "crlf" else "\n",
            quoting=csv.QUOTE_ALL if variant == "quote-all" else csv.QUOTE_MINIMAL,
        ).writerows(table)
    assert os.path.getsize(path) >= dataio._CACHE_MIN_BYTES


def _entries():
    """The names of the parse cache's entries."""

    directory = dataio._cache_dir()
    if not os.path.isdir(directory):
        return []
    return sorted(name for name in os.listdir(directory) if name.endswith(dataio._CACHE_SUFFIX))


def _entry_of(path):
    with open(path, "rb") as fh:
        return dataio._cache_entry(fh)[0]


def _same_read(got, expected):
    """Two reads' results agree in matrix, label space and meta, cache aside."""

    (pm, meta), (pm0, meta0) = got, expected
    assert pm.space == pm0.space
    np.testing.assert_array_equal(pm.answers, pm0.answers)
    assert pm.answers.dtype == pm0.answers.dtype and not pm.answers.flags.writeable
    if pm0.truth is None:
        assert pm.truth is None
    else:
        np.testing.assert_array_equal(pm.truth, pm0.truth)
        assert pm.truth.dtype == np.min_scalar_type(pm.k - 1)
    assert {k: v for k, v in meta.items() if k != "cache"} == {k: v for k, v in meta0.items() if k != "cache"}


@pytest.mark.parametrize("variant", ["lf", "crlf", "quote-all"])
@pytest.mark.parametrize(
    "options",
    [
        {},
        {"labels": ["echo,foxtrot", "delta", "charlie", "bravo", "alpha", "zulu"]},
        {"agents": ["d", "b"]},
        {"drop_incomplete": True},
    ],
    ids=["plain", "labels", "agents", "drop-incomplete"],
)
def test_a_cache_hit_reads_like_a_miss(tmp_path, variant, options):
    table = _large_panel(empty_every=7 if options.get("drop_incomplete") else 0)
    path = tmp_path / "p.csv"
    _write_copy(path, table, variant)
    stored = read_predictions_csv(str(path), **options)
    hit = read_predictions_csv(str(path), **options)
    assert (stored[1]["cache"], hit[1]["cache"]) == ("stored", "hit")
    assert _entries() == [os.path.basename(_entry_of(path))]
    _same_read(hit, stored)
    # and both read like the row-by-row reference
    ref_pm, ref_meta = _reference_read(
        str(path), labels=options.get("labels"), drop_incomplete=options.get("drop_incomplete", False)
    )
    if "agents" in options:
        ref_pm = ref_pm.select_agents([3, 1])
        ref_meta["agent_names"] = ["d", "b"]
    _same_read(hit, (ref_pm, ref_meta))


def test_every_option_shares_one_entry_and_errors_survive_a_hit(tmp_path):
    path = tmp_path / "p.csv"
    _write_copy(path, _large_panel(empty_every=7), "lf")
    with pytest.raises(FormatError, match=r"p\.csv:5: empty cell for 'd'"):
        read_predictions_csv(str(path))
    assert len(_entries()) == 1  # the parse was sound; the screening failed
    with pytest.raises(FormatError, match=r"p\.csv:5: empty cell for 'd'"):
        read_predictions_csv(str(path))
    with pytest.raises(FormatError, match=r"label 'echo,foxtrot' not in label space"):
        read_predictions_csv(str(path), labels=["alpha", "bravo", "charlie", "delta"], drop_incomplete=True)
    _, meta = read_predictions_csv(str(path), drop_incomplete=True, agents=["a"])
    assert meta["cache"] == "hit" and len(_entries()) == 1


def _counted_first_repeat(monkeypatch):
    calls = []
    first_repeat = dataio._first_repeat

    def counted(ids):
        calls.append(len(ids))
        return first_repeat(ids)

    monkeypatch.setattr(dataio, "_first_repeat", counted)
    return calls


def test_a_hit_skips_the_duplicate_id_check_and_holds_one_block_beside_its_result(tmp_path, monkeypatch):
    # the stored parse's ids were checked, all of them, before it was stored
    answers = np.random.default_rng(2).integers(0, 4, size=(200_000, 4))
    path = tmp_path / "p.csv"
    write_predictions_csv(str(path), PredictionMatrix(LabelSpace.default(4), answers, answers[:, 0]))
    calls = _counted_first_repeat(monkeypatch)
    stored = read_predictions_csv(str(path))
    assert stored[1]["cache"] == "stored" and calls == [200_000]
    pm, meta, retained, peak = _traced_read(path)
    assert meta["cache"] == "hit" and calls == [200_000]
    _same_read((pm, meta), stored)
    assert peak <= retained + 8 * core._BLOCK_CELLS, (peak, retained)


@pytest.mark.parametrize("dropped", [False, True], ids=["kept", "dropped"])
def test_a_parse_with_a_repeated_id_is_never_stored(tmp_path, monkeypatch, dropped):
    # question 997 (line 999) repeats q6 and question 999 (line 1001) repeats
    # q5; with an empty cell in questions 3, 10, ..., 997 is dropped
    table = _large_panel(empty_every=7 if dropped else 0)
    table[1000][0] = "q5"
    table[998][0] = "q6"
    path = tmp_path / "p.csv"
    _write_copy(path, table, "lf")
    calls = _counted_first_repeat(monkeypatch)
    error = r"p\.csv:1001: duplicate question_id 'q5'" if dropped else r"p\.csv:999: duplicate question_id 'q6'"
    for _ in range(2):
        with pytest.raises(FormatError, match=error):
            read_predictions_csv(str(path), drop_incomplete=dropped)
        assert _entries() == []
    assert calls == [26_000, 26_000 - 3714 * dropped] * 2  # the whole parse, then the kept rows


def _id_block_edges(ids, monkeypatch):
    """Every row at which a block of ``_first_repeat`` on ``ids`` starts, but the first."""

    edges, row_blocks = set(), dataio._row_blocks

    def recorded(*args, **kwargs):
        for rows in row_blocks(*args, **kwargs):
            edges.add(rows.start)
            yield rows

    with monkeypatch.context() as mp:
        mp.setattr(dataio, "_row_blocks", recorded)
        assert dataio._first_repeat(QuestionIds(ids)) is None
    return sorted(edges - {0})


def _reference_repeat(ids):
    seen = set()
    return next((i for i, qid in enumerate(ids) if qid in seen or seen.add(qid)), None)


@pytest.mark.parametrize("budget", [None, 2**12], ids=["default", "4096"])
@pytest.mark.parametrize("kind", ["sorted", "shuffled", "long"])
def test_a_repeat_at_a_block_edge_is_found(monkeypatch, budget, kind):
    # one repeat, its two ids on either side of each edge between blocks: of
    # the keying, of the sorted keys' check and of the lexsort walk; sorted
    # ids of one width make one group, shuffled ids of 1 to 5 bytes share
    # one group, and ids of over 8 bytes take the lexsort path
    if budget is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", budget)
    m, perm = 40_000, np.random.default_rng(3).permutation(40_000)
    ids = {
        "sorted": [f"q{i:07d}" for i in range(m)],
        "shuffled": [str(i) for i in perm],
        "long": [f"question-{i}" for i in perm],
    }[kind]
    edges = _id_block_edges(ids, monkeypatch)
    assert len(edges) >= 2
    for edge in edges:
        for earlier in (edge - 1, 0):
            repeated = ids[:edge] + [ids[earlier]] + ids[edge + 1 :]
            assert dataio._first_repeat(QuestionIds(repeated)) == edge == _reference_repeat(repeated)


@pytest.mark.parametrize("budget", [None, 2**12], ids=["default", "4096"])
def test_sorted_ids_with_one_repeat_name_its_line(tmp_path, monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", budget)
    lines = [f"q{i:07d},{'AB'[i % 2]},B" for i in range(30_000)]
    edge = _id_block_edges([line[:8] for line in lines], monkeypatch)[-1]
    lines[edge] = lines[edge - 1]
    path = tmp_path / "p.csv"
    path.write_text("question_id,agent_x,agent_y\n" + "\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf"p\.csv:{edge + 2}: duplicate question_id 'q{edge - 1:07d}'"):
        read_predictions_csv(str(path))


@pytest.mark.parametrize("prefix", ["", "question-"], ids=["short", "long"])
def test_the_duplicate_id_check_holds_a_group_of_keys_and_a_block(tmp_path, monkeypatch, prefix):
    # 200,000 unsorted ids of varying length: the read, which parses and stores,
    # holds beyond what it returns at most one group's keys (ids of one length,
    # or all those under 8 bytes) and, for ids of over 8 bytes, their order,
    # plus a block
    m = 200_000
    ids = [f"{prefix}{i}" for i in np.random.default_rng(4).permutation(m)]
    answers = np.random.default_rng(5).integers(0, 4, size=(m, 4))
    path = tmp_path / "p.csv"
    write_predictions_csv(str(path), PredictionMatrix(LabelSpace.default(4), answers, answers[:, 0]), question_ids=ids)
    calls = _counted_first_repeat(monkeypatch)
    pm, meta, retained, peak = _traced_read(path)
    assert meta["cache"] == "stored" and calls == [m] and meta["question_ids"] == ids
    lengths = np.array([len(qid) for qid in ids])
    groups = [(lengths < 8).sum()] + [(lengths == n).sum() for n in range(8, lengths.max() + 1)]
    words = [1] + [(n + 7) // 8 for n in range(8, lengths.max() + 1)]
    keys = max(8 * size * (c + (c > 1)) for size, c in zip(groups, words))
    assert peak <= retained + keys + 8 * core._BLOCK_CELLS, (peak, retained, keys)


@given(st.lists(st.text(max_size=12)), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_question_ids_are_built_alike_from_any_iterable_at_any_block_size(ids, cells_per_block):
    # the ids' UTF-8 bytes end to end, 8 zero bytes, and each id's end in the
    # narrowest unsigned dtype, whether given as a list or a generator
    data = "".join(ids).encode()
    ends = np.cumsum([len(qid.encode()) for qid in ids], dtype=np.intp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_CELLS_PER_BLOCK", cells_per_block)
        for got in (QuestionIds(ids), QuestionIds(qid for qid in ids)):
            assert got._data.tobytes() == data + bytes(8) and got._ends.tolist() == ends.tolist()
            assert got._ends.dtype == np.min_scalar_type(len(data)) and got == ids
        for bad, error in ((1, TypeError), (b"q", TypeError), ("q\ud800", UnicodeEncodeError)):
            for given in ([*ids, bad], (qid for qid in [*ids, bad])):
                with pytest.raises(error):
                    QuestionIds(given)


def test_a_list_of_ids_is_encoded_into_arrays_sized_once(monkeypatch):
    # ids of 1 to 6 bytes, longer as the list goes on: their count sizes the
    # ends, and the bytes so far the rest, so beyond what it keeps the
    # encoding holds a block (8 bytes a cell, for each of up to 8 arrays), not
    # the arrays' growth by a quarter at a time
    monkeypatch.setattr(dataio, "_CELLS_PER_BLOCK", 2**10)
    ids = [str(q) for q in range(200_000)]
    tracemalloc.start()
    try:
        got = QuestionIds(ids)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == ids and peak <= kept + 64 * 2**10, (peak, kept)


def test_dropping_rows_holds_little_beside_the_read(tmp_path):
    # the kept rows' answers are written over the code matrix and their ids
    # gathered a block at a time: beyond what it returns, the read holds the
    # ids it parsed (8 bytes and a 4-byte end each), which the kept ids
    # replace, the quarter by which the kept ids' arrays grow, and a block
    m = 200_000
    lines = [f"q{i:07d},{'AB'[i % 2]},{'' if i % 7 == 3 else 'B'},A" for i in range(m)]
    path = tmp_path / "p.csv"
    path.write_text("question_id,agent_x,agent_y,truth\n" + "\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        pm, meta = read_predictions_csv(str(path), drop_incomplete=True)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert meta["dropped"] == len(range(3, m, 7)) and pm.m == m - meta["dropped"]
    assert meta["question_ids"][:3] == ["q0000000", "q0000001", "q0000002"] and meta["question_ids"][3] == "q0000004"
    assert peak <= retained + 15 * m + 8 * core._BLOCK_CELLS, (peak, retained)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_small_files_and_pipes_are_not_cached(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("\n".join(_panel_lines(100)) + "\n")
    assert read_predictions_csv(str(path))[1]["cache"] == "off"
    _write_copy(path, _large_panel(), "lf")
    read_end, write_end = os.pipe()
    feeder = threading.Thread(target=_write_and_close, args=(write_end, path.read_bytes()), daemon=True)
    feeder.start()
    try:
        assert read_predictions_csv(f"/dev/fd/{read_end}")[1]["cache"] == "off"
    finally:
        os.close(read_end)
        feeder.join(timeout=10)
    assert not feeder.is_alive()
    assert _entries() == []


def test_an_input_rewritten_in_place_is_parsed_again(tmp_path):
    # same size, and the modification time put back: the change time decides
    path = tmp_path / "p.csv"
    table = _large_panel()
    _write_copy(path, table, "lf")
    before = os.stat(path)
    first = read_predictions_csv(str(path))
    row = next(i for i, cells in enumerate(table) if cells[1] == "alpha")
    table[row][1] = "bravo"
    _write_copy(path, table, "lf")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_size == before.st_size and os.stat(path).st_mtime_ns == before.st_mtime_ns
    second = read_predictions_csv(str(path))
    assert (first[1]["cache"], second[1]["cache"]) == ("stored", "stored")
    assert first[0].answers[row - 1, 0] != second[0].answers[row - 1, 0]
    _same_read(second, _reference_read(str(path)))
    assert len(_entries()) == 2


def test_an_input_changed_during_the_read_is_not_stored(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    _write_copy(path, _large_panel(), "lf")
    parse = dataio._parse_table

    def parse_then_touch(fh, name):
        result = parse(fh, name)
        os.utime(path, ns=(0, 0))
        return result

    monkeypatch.setattr(dataio, "_parse_table", parse_then_touch)
    assert read_predictions_csv(str(path))[1]["cache"] == "off"
    assert _entries() == []


def _damage_entry(entry, damage):
    data = bytearray(open(entry, "rb").read())
    if damage == "truncated":
        del data[-100:]
    elif damage == "bit-flipped-payload":
        data[-1000] ^= 0x10
    elif damage == "bit-flipped-label":  # still valid JSON, naming another label
        at = data.index(b'"alpha"') + 2
        data[at] ^= 0x01
    elif damage == "wrong-version":
        at = len(dataio._CACHE_MAGIC)
        data[at : at + 1] = b"9"
    elif damage == "wrong-magic":
        data[0] ^= 0x20
    elif damage == "extra-bytes":
        data += b"\0"
    with open(entry, "wb") as fh:
        fh.write(data)


@pytest.mark.parametrize(
    "damage",
    ["truncated", "bit-flipped-payload", "bit-flipped-label", "wrong-version", "wrong-magic", "extra-bytes"],
)
def test_a_damaged_entry_reads_like_a_parse_and_is_rewritten(tmp_path, damage):
    path = tmp_path / "p.csv"
    _write_copy(path, _large_panel(), "lf")
    first = read_predictions_csv(str(path))
    entry = _entry_of(path)
    good = open(entry, "rb").read()
    _damage_entry(entry, damage)
    assert open(entry, "rb").read() != good
    again = read_predictions_csv(str(path))
    assert again[1]["cache"] == "stored"
    _same_read(again, first)
    assert open(entry, "rb").read() == good
    assert read_predictions_csv(str(path))[1]["cache"] == "hit"


@pytest.mark.parametrize("fault", ["code-past-vocab", "ends-decrease"])
def test_an_entry_with_a_sound_digest_but_impossible_arrays_is_a_miss(tmp_path, fault):
    path = tmp_path / "p.csv"
    _write_copy(path, _large_panel(), "lf")
    first = read_predictions_csv(str(path))
    entry = _entry_of(path)
    with open(path, "rb") as fh:
        names, has_truth, (qids, codes, vocab, _) = dataio._parse_table(fh, str(path))
    data, ends = qids._data.copy(), qids._ends.copy()
    if fault == "code-past-vocab":
        codes[7, 2] = len(vocab)
    else:
        ends[3], ends[4] = ends[4], ends[3]
    assert dataio._cache_store(entry, names, has_truth, (QuestionIds._adopt(data, ends), codes, vocab, None))
    assert dataio._cache_load(entry) is None
    again = read_predictions_csv(str(path))
    assert again[1]["cache"] == "stored"
    _same_read(again, first)


def test_an_unusable_cache_directory_still_reads(tmp_path, monkeypatch):
    # a file where the directory should be: even root cannot write there
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    path = tmp_path / "p.csv"
    _write_copy(path, _large_panel(), "lf")
    for _ in range(2):
        got = read_predictions_csv(str(path))
        assert got[1]["cache"] == "off"
        _same_read(got, _reference_read(str(path)))


def test_the_cache_directory_follows_xdg_cache_home(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert dataio._cache_dir() == str(tmp_path / "xdg" / "quorum")
    for unusable in ("relative/dir", ""):
        monkeypatch.setenv("XDG_CACHE_HOME", unusable)
        assert dataio._cache_dir() == str(tmp_path / "home" / ".cache" / "quorum")
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert dataio._cache_dir() == str(tmp_path / "home" / ".cache" / "quorum")


def test_no_home_directory_means_no_cache(tmp_path, monkeypatch):
    # "~" that cannot be expanded must not become a directory named "~"
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setattr(os.path, "expanduser", lambda path: path)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "p.csv"
    _write_copy(path, _large_panel(), "lf")
    assert read_predictions_csv(str(path))[1]["cache"] == "off"
    assert sorted(os.listdir(tmp_path)) == ["p.csv"]


def test_entries_are_private_to_the_user(tmp_path):
    path = tmp_path / "p.csv"
    _write_copy(path, _large_panel(), "lf")
    read_predictions_csv(str(path))
    assert os.stat(dataio._cache_dir()).st_mode & 0o777 == 0o700
    assert os.stat(_entry_of(path)).st_mode & 0o777 == 0o600


def test_a_file_changed_too_recently_is_not_stored(tmp_path, monkeypatch):
    # a change in the same tick of a coarse clock would keep its change time
    monkeypatch.setattr(dataio, "_CACHE_SETTLE_NS", 3600 * 10**9)
    path = tmp_path / "p.csv"
    _write_copy(path, _large_panel(), "lf")
    for _ in range(2):
        got = read_predictions_csv(str(path))
        assert got[1]["cache"] == "off"
        _same_read(got, _reference_read(str(path)))
    assert _entries() == []
    monkeypatch.setattr(dataio, "_CACHE_SETTLE_NS", 0)
    assert read_predictions_csv(str(path))[1]["cache"] == "stored"


def test_a_store_into_a_group_writable_directory_is_refused_before_hashing(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    _write_copy(path, _large_panel(), "lf")
    with open(path, "rb") as fh:
        names, has_truth, cells = dataio._parse_table(fh, str(path))
    os.makedirs(dataio._cache_dir())
    os.chmod(dataio._cache_dir(), 0o770)
    hashed = []
    monkeypatch.setattr(dataio, "_sha256", lambda blocks: hashed.append(len(blocks)))
    assert not dataio._cache_store(_entry_of(path), names, has_truth, cells)
    assert hashed == [] and _entries() == []


@pytest.mark.parametrize("owner", ["group-writable-directory", "someone-else", "group-writable-entry"])
def test_entries_another_user_could_have_written_are_not_loaded(tmp_path, monkeypatch, owner):
    path = tmp_path / "p.csv"
    _write_copy(path, _large_panel(), "lf")
    assert read_predictions_csv(str(path))[1]["cache"] == "stored"
    entry = _entry_of(path)
    # a planted entry: sound in every check, with every answer moved to the next label
    with open(path, "rb") as fh:
        names, has_truth, (qids, codes, vocab, _) = dataio._parse_table(fh, str(path))
    codes = ((codes + 1) % len(vocab)).astype(codes.dtype)
    assert dataio._cache_store(entry, names, has_truth, (qids, codes, vocab, None))
    planted = open(entry, "rb").read()
    assert dataio._cache_load(entry) is not None
    if owner == "group-writable-directory":
        os.chmod(dataio._cache_dir(), 0o770)
    elif owner == "someone-else":
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    else:
        os.chmod(entry, 0o664)
    got = read_predictions_csv(str(path))
    _same_read(got, _reference_read(str(path)))
    if owner == "group-writable-entry":  # in a private directory, it is replaced
        assert got[1]["cache"] == "stored" and open(entry, "rb").read() != planted
        assert os.stat(entry).st_mode & 0o777 == 0o600
    else:
        assert got[1]["cache"] == "off" and open(entry, "rb").read() == planted


@pytest.mark.parametrize("fault", ["short-row", "not-utf8"])
def test_a_malformed_large_file_fails_alike_twice_and_stores_nothing(tmp_path, fault):
    table = _large_panel()
    path = tmp_path / "p.csv"
    _write_copy(path, table, "lf")
    data = path.read_bytes().split(b"\n")
    if fault == "short-row":
        data[20_001] = b"q_short,alpha"
    else:
        data[20_001] = b"q\xff" + data[20_001][data[20_001].index(b",") :]
    path.write_bytes(b"\n".join(data))
    errors = []
    for _ in range(2):
        with pytest.raises(FormatError, match=r"p\.csv:20002: ") as info:
            read_predictions_csv(str(path))
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert _entries() == []


def test_eviction_keeps_the_most_recently_used_entries(tmp_path):
    table = _large_panel()
    paths = []
    past = os.stat(tmp_path).st_mtime_ns - 10**12  # entries made older by hand, in order
    for i in range(dataio._CACHE_ENTRIES + 2):
        table[1][0] = f"first-{i}"
        paths.append(tmp_path / f"p{i}.csv")
        _write_copy(paths[-1], table, "lf")
    entry = [os.path.basename(_entry_of(p)) for p in paths]
    for i, p in enumerate(paths[:-1]):
        assert read_predictions_csv(str(p))[1]["cache"] == "stored"
        os.utime(_entry_of(p), ns=(past + i, past + i))
    assert _entries() == sorted(entry[1:-1])  # the ninth store evicted the oldest
    assert read_predictions_csv(str(paths[1]))[1]["cache"] == "hit"  # and is now the newest
    assert os.stat(_entry_of(paths[1])).st_mtime_ns > past + len(paths)
    assert read_predictions_csv(str(paths[-1]))[1]["cache"] == "stored"
    assert _entries() == sorted([entry[1], *entry[3:]])


def test_eviction_keeps_the_entries_within_the_byte_budget_and_clears_stale_temp_files(tmp_path, monkeypatch):
    table = _large_panel()
    paths = []
    for i in range(4):
        table[1][0] = f"first-{i}"
        paths.append(tmp_path / f"p{i}.csv")
        _write_copy(paths[-1], table, "lf")
    past = os.stat(tmp_path).st_mtime_ns - 10**12
    assert read_predictions_csv(str(paths[0]))[1]["cache"] == "stored"
    size = os.path.getsize(_entry_of(paths[0]))
    os.utime(_entry_of(paths[0]), ns=(past, past))
    monkeypatch.setattr(dataio, "_CACHE_BYTES", size * 5 // 2)  # room for two
    assert read_predictions_csv(str(paths[1]))[1]["cache"] == "stored"
    os.utime(_entry_of(paths[1]), ns=(past + 1, past + 1))
    stale, fresh = (os.path.join(dataio._cache_dir(), name) for name in (".tmp-stale~", ".tmp-fresh~"))
    for temp in (stale, fresh):
        open(temp, "wb").close()
    old = past - 2 * dataio._CACHE_STALE_NS
    os.utime(stale, ns=(old, old))
    assert read_predictions_csv(str(paths[2]))[1]["cache"] == "stored"
    assert _entries() == sorted(os.path.basename(_entry_of(p)) for p in paths[1:3])
    assert not os.path.exists(stale) and os.path.exists(fresh)
    monkeypatch.setattr(dataio, "_CACHE_BYTES", size // 2)  # a table larger than the budget
    assert read_predictions_csv(str(paths[3]))[1]["cache"] == "off"
    assert len(_entries()) == 2


def test_parse_cache_memory_is_bounded_by_a_block(tmp_path):
    # the store and the hit each keep the bound of the reads above
    labels = tuple(f"label_{c}" for c in "abcde")
    answers = np.random.default_rng(0).integers(0, 5, size=(20_000, 100))
    path = tmp_path / "p.csv"
    write_predictions_csv(str(path), PredictionMatrix(LabelSpace(labels), answers))
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    for expected in ("stored", "hit"):
        pm, meta, retained, peak = _traced_read(path)
        assert meta["cache"] == expected
        np.testing.assert_array_equal(pm.answers, answers)
        assert peak <= retained + 2 * 2**20, (expected, peak, retained)
