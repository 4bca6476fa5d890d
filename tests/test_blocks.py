"""Outputs do not depend on how the row-blocked loops cut their rows.

``core._row_blocks`` is the one place that cuts rows into blocks. It reads
``core._BLOCK_CELLS``, or the budget its caller passes (the CSV reader and
writer pass ``dataio._CELLS_PER_BLOCK``, which ``QuestionIds`` also reads as
it cuts the ids it is given into blocks), when a loop starts, so forcing one
of those values reaches every kernel. Each output is a pure function of
(seed, question index), so forced blocks, and a prefix of a file, give the
same labels.
"""

import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from quorum import aggregate as agg
from quorum import core, dataio, secondorder
from quorum.cli import main
from quorum.core import LabelSpace, PredictionMatrix, ShuffleMap, random_shuffle_map, shuffle_apply, shuffle_invert
from quorum.dataio import write_predictions_csv
from quorum.estimate import METHODS, run_pipeline
from quorum.oracle import DifficultyMixture, expected_accuracy, mixture_posterior
from quorum.secondorder import empirical_second_order, pair_counts
from quorum.simulate import CiSimSpec, DifficultySimSpec, simulate_ci, simulate_difficulty

ACC = (0.8, 0.6, 0.55, 0.7)  # four agents: mv ties
ABILITIES = (1.5, 0.5, 1.0, 2.0)
N, K, M = len(ACC), 3, 150
MIX = DifficultyMixture.log_uniform(0.2, 5.0)


def _cli(*args):
    result = CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == 0, result.output


def _outputs(tmp_path):
    """Every output the block size could reach: simulated matrices, the labels,
    ties and fit of each method, two oracle values, and the CLI's files."""

    ci = simulate_ci(CiSimSpec(ACC, K, M, seed=3))
    mixed = simulate_difficulty(DifficultySimSpec(ABILITIES, MIX, K, M, seed=4))
    out = {"ci": (ci.answers, ci.truth), "difficulty": (mixed.answers, mixed.truth)}
    tie = agg.TiePolicy(agg.TIE_UNIFORM, seed=7)
    for method in METHODS:
        r = run_pipeline(ci, method, tie, accuracies=ACC, abilities=ABILITIES)
        fit = None if r.fit is None else json.dumps(r.fit.to_dict())  # NaN accuracies compare as text
        out[method] = (r.labels, r.ties_broken, fit)
    out["expected_accuracy"] = expected_accuracy("isp", ACC, K)
    out["mixture_posterior"] = mixture_posterior(mixed.answers, ABILITIES, MIX, K)
    panel, labels = tmp_path / "panel.csv", tmp_path / "labels.csv"
    write_predictions_csv(str(panel), ci)
    _cli("aggregate", "--input", panel, "--out", labels, "--method", "isp", "--shuffle-seed", 5)
    out["files"] = (panel.read_bytes(), labels.read_bytes())
    return out


@pytest.fixture(scope="module")
def unforced(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("unforced"))


@pytest.mark.parametrize(
    "block_cells, cells_per_block",
    # one row per block everywhere; then seven rows per isp aggregate_batch
    # block, and seven rows (of an id, N answers and the truth) per CSV block
    [(1, 1), (7 * agg._score_cells("isp", N, K)[0], 7 * (N + 2))],
    ids=["1-row", "7-row"],
)
def test_outputs_do_not_depend_on_block_size(block_cells, cells_per_block, unforced, tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_CELLS", block_cells)
    monkeypatch.setattr(dataio, "_CELLS_PER_BLOCK", cells_per_block)
    forced = _outputs(tmp_path)
    assert forced.keys() == unforced.keys()
    assert unforced["mv"][1] > 0  # the panel has ties
    for key, value in unforced.items():
        if key == "expected_accuracy":  # the chunks' partial sums are added in another grouping
            assert forced[key] == pytest.approx(value, rel=1e-12, abs=0)
        elif isinstance(value, tuple):
            for got, want in zip(forced[key], value):
                np.testing.assert_array_equal(got, want, err_msg=key)
        else:
            np.testing.assert_array_equal(forced[key], value, err_msg=key)


@pytest.mark.parametrize("method", ["mv", "eow"])
def test_labels_of_a_prefix_are_a_prefix_of_the_labels(method, tmp_path):
    pm = simulate_ci(CiSimSpec(ACC, K, M, seed=9))
    whole, head = tmp_path / "whole.csv", tmp_path / "head.csv"
    write_predictions_csv(str(whole), pm)
    lines = whole.read_bytes().splitlines(keepends=True)
    head.write_bytes(b"".join(lines[: 1 + 61]))  # the header and 61 questions
    args = ["--method", method, "--tie", "uniform", "--tie-seed", 3, "--abilities", ",".join(map(str, ABILITIES))]
    _cli("aggregate", "--input", whole, "--out", tmp_path / "whole-labels.csv", *args)
    _cli("aggregate", "--input", head, "--out", tmp_path / "head-labels.csv", *args)
    labels = (tmp_path / "whole-labels.csv").read_bytes().splitlines(keepends=True)
    assert (tmp_path / "head-labels.csv").read_bytes() == b"".join(labels[: 1 + 61])


def test_one_patch_of_the_block_budget_reaches_aggregate_batch_and_pair_counts(monkeypatch):
    rng = np.random.default_rng(0)
    gram = PredictionMatrix(LabelSpace.default(3), rng.integers(0, 3, size=(5000, 4)))  # K <= 16: one-hot Gram
    wide = PredictionMatrix(LabelSpace.default(17), rng.integers(0, 17, size=(600, 4)))  # K > 16: bincounts
    before = [pair_counts(gram), pair_counts(wide)]
    scored, walked = [], []
    score_batch, row_blocks = agg.score_batch, secondorder._row_blocks

    def counted_scores(*args, **kwargs):
        scored.append(1)
        return score_batch(*args, **kwargs)

    def counted_blocks(*args, **kwargs):
        walked.append(0)
        for rows in row_blocks(*args, **kwargs):
            walked[-1] += 1
            yield rows

    monkeypatch.setattr(agg, "score_batch", counted_scores)
    monkeypatch.setattr(secondorder, "_row_blocks", counted_blocks)
    monkeypatch.setattr(core, "_BLOCK_CELLS", 36)
    agg.aggregate_batch("mv", gram.answers, 3)
    assert agg._score_cells("mv", 4, 3)[0] == 12
    assert len(scored) == -(-5000 // 3)  # 36 // 12 rows a block
    after = [pair_counts(gram), pair_counts(wide)]
    # the Gram path counts 2 N + N K / 2 = 14 cells a row; the bincount path
    # holds agent j's N K^2 pair counts, more than 36 cells, beside one row
    assert walked == [5000 // 2, 600]
    for got, want in zip(after, before):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def _panel(m, n, k, seed=0):
    rng = np.random.default_rng(seed)
    return PredictionMatrix(LabelSpace.default(k), rng.integers(0, k, size=(m, n)), rng.integers(0, k, size=m))


# Shapes like the benchmark's tall, wide and many-label panels, each more than
# one block at the default budget.
_SHAPES = {"tall": _panel(40_000, 4, 4), "wide": _panel(3_000, 100, 2), "many-labels": _panel(8_000, 10, 50)}
_ISP_ACC = tuple(np.linspace(0.40, 0.88, 10))
_DENSE = DifficultyMixture.atoms([(a, 1.0 / 20_000) for a in np.linspace(0.1, 10.0, 20_000)])
_OBJECTS = 4096  # the interpreter's own objects (frames, array headers, slices), which hold no cells


def _tables(pm, count):
    """Bytes of ``count`` (N, N, K, K) float64 tables, which a kernel documents beside its blocks."""

    return 8 * count * pm.n**2 * pm.k**2


def _kernels():
    """name -> (call, bytes of the tables it documents beside its blocks)."""

    kernels = {}
    for shape, pm in _SHAPES.items():
        so = empirical_second_order(pm)
        w = np.linspace(0.1, 1.0, pm.n)
        for rule in agg.RULES:
            peer = rule in agg.SECOND_ORDER_RULES  # so.peer_tables: one table, and (N, K, K) ones
            kernels[f"aggregate_batch-{rule}-{shape}"] = (
                lambda pm=pm, so=so, w=w, rule=rule: agg.aggregate_batch(rule, pm.answers, pm.k, so=so, weights=w),
                _tables(pm, 2 if peer else 0),
            )
        # pair_counts: the Gram beside its product in float32 and int64, or the
        # counts and their table's check, beside the table the matrix keeps
        kernels[f"empirical_second_order-{shape}"] = (lambda pm=pm: empirical_second_order(pm), _tables(pm, 2))
        kernels[f"shuffle_apply-{shape}"] = (lambda pm=pm: shuffle_apply(pm, 3), 0)
        smap = random_shuffle_map(pm.m, pm.k, 3)  # a label vector, as aggregate --shuffle-seed inverts
        kernels[f"shuffle_invert-labels-{shape}"] = (lambda pm=pm, smap=smap: shuffle_invert(pm.truth, smap), 0)
        kernels[f"shuffle_invert-matrix-{shape}"] = (lambda pm=pm, smap=smap: shuffle_invert(pm, smap), 0)
        kernels[f"ShuffleMap.inverse-{shape}"] = (smap.inverse, 0)
        perms = smap.perms.astype(np.int64)  # as a caller would pass an argsort: the check reads it before the copy
        kernels[f"ShuffleMap-{shape}"] = (lambda perms=perms: ShuffleMap(perms), 0)
        # the check alone, whose scratch the map's copy would hide where the copy is larger
        kernels[f"ShuffleMap._check-{shape}"] = (lambda perms=perms: ShuffleMap._check(perms), 0)
        # a panel's codes into its labels and "", with one empty cell, screened and
        # encoded under --drop-incomplete over a copy, which the answers keep
        codes = np.column_stack([pm.answers, pm.truth])
        codes[pm.m // 2, 1] = pm.k
        vocab, names = [*pm.space.labels, ""], [f"a{j}" for j in range(pm.n)]
        kernels[f"_encode_rows-{shape}"] = (
            lambda codes=codes, vocab=vocab, pm=pm, names=names: dataio._encode_rows(
                codes.copy(), vocab, pm.space.labels, names, True, "p.csv"
            ),
            0,
        )
    isp = _panel(1, len(_ISP_ACC), 3)  # the exact second-order table and peer_tables' one
    kernels["expected_accuracy-isp"] = (lambda: expected_accuracy("isp", _ISP_ACC, 3), _tables(isp, 2))
    vectors = np.random.default_rng(0).integers(0, 2, size=(50, 3))
    kernels["mixture_posterior-20000-nodes"] = (lambda: mixture_posterior(vectors, [1.0, 2.0, 0.5], _DENSE, 2), 0)
    kernels["simulate_ci"] = (lambda: simulate_ci(CiSimSpec((0.6, 0.7, 0.8, 0.9), 4, 100_000, 1)), 0)
    kernels["simulate_difficulty"] = (
        lambda: simulate_difficulty(DifficultySimSpec(ABILITIES, MIX, 4, 100_000, 2)),
        0,
    )
    return kernels


_KERNELS = _kernels()


@pytest.mark.parametrize("budget", [None, 2**12], ids=["default", "4096"])
@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_a_block_kernel_holds_one_block_of_scratch(kernel, budget, monkeypatch):
    # each kernel counts every temporary a row holds at its peak, so beyond
    # what it keeps (its result), a call holds one block of 8 * _BLOCK_CELLS
    # bytes, plus the (N, N, K, K) tables it documents
    if budget is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", budget)
    call, tables = _KERNELS[kernel]
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    assert peak - kept <= 8 * core._BLOCK_CELLS + tables + _OBJECTS, (peak - kept, tables)


def _bad_maps():
    """name -> an (M, K) map, valid or not, and whether every row is a permutation of 0..K-1."""

    perms = random_shuffle_map(_SHAPES["tall"].m, 4, 5).perms
    maps = {}
    for dtype in (np.uint8, np.int8, np.int64, np.uint64):
        maps[f"valid-{np.dtype(dtype).name}"] = perms.astype(dtype)
    for row in (0, 1023, 1024, len(perms) - 1):  # the first and last rows, and two about a block's edge
        for name, values in {
            "repeat": [0, 0, 1, 2],
            "K": [0, 1, 2, 4],
            "negative": [-1, 1, 2, 3],
            "shifted": [1, 2, 3, 4],  # the code q K + K is row q + 1's first
        }.items():
            bad = perms.astype(np.int64)
            bad[row] = values
            maps[f"{name}-{row}"] = bad
        wrapped = perms.astype(np.uint64)
        wrapped[row, 0] = 2**63  # -2^63 as an intp
        maps[f"2^63-{row}"] = wrapped
    shifted = perms.astype(np.int64)
    shifted[5:7] = [[1, 2, 3, 4], [1, 2, 3, -4]]  # each flat code q K + value of rows 5 and 6 comes once
    maps["spill"] = shifted
    return {name: (arr, bool((np.sort(arr, axis=1) == np.arange(4)).all())) for name, arr in maps.items()}


@pytest.mark.parametrize("budget", [None, 2**12], ids=["default", "4096"])
def test_shuffle_map_rejects_exactly_the_maps_whose_rows_are_not_permutations(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", budget)
    maps = _bad_maps()
    for name, (arr, valid) in maps.items():
        if valid:
            assert ShuffleMap(arr).perms.dtype == np.uint8, name
        else:
            with pytest.raises(core.DomainError, match="permutation"):
                ShuffleMap(arr)
    assert sum(valid for _, valid in maps.values()) == 4  # the four valid dtypes only


@pytest.mark.parametrize("budget", [None, 2**12], ids=["default", "4096"])
@pytest.mark.parametrize("drop", [False, True], ids=["strict", "drop-incomplete"])
def test_encode_rows_reports_the_first_faulty_row_at_any_block_size(budget, drop, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(core, "_BLOCK_CELLS", budget)
    pm = _SHAPES["tall"]
    codes = np.column_stack([pm.answers, pm.truth])
    vocab, names = [*pm.space.labels, "", "Z"], ["a", "b", "c", "d"]
    codes[[7, 20_000, 30_000], [2, 4, 1]] = [4, 4, 5]  # empty cells for c and the truth, then an unknown label
    labels = pm.space.labels
    if drop:  # the empty rows are dropped; the unknown label faults
        with pytest.raises(core.FormatError, match=r"p\.csv:30002: label 'Z' not in label space"):
            dataio._encode_rows(codes.copy(), vocab, labels, names, True, "p.csv")
        answers, truth, kept = dataio._encode_rows(codes[:30_000].copy(), vocab, labels, names, True, "p.csv")
        rows = np.setdiff1d(np.arange(30_000), [7, 20_000])
        np.testing.assert_array_equal(np.flatnonzero(kept), rows)
        np.testing.assert_array_equal(answers, pm.answers[rows])
        np.testing.assert_array_equal(truth, pm.truth[rows])
    else:
        with pytest.raises(core.FormatError, match=r"p\.csv:9: empty cell for 'c'"):
            dataio._encode_rows(codes.copy(), vocab, labels, names, False, "p.csv")
        codes[7, 2] = 0
        with pytest.raises(core.FormatError, match=r"p\.csv:20002: empty cell for 'truth'"):
            dataio._encode_rows(codes.copy(), vocab, labels, names, False, "p.csv")
