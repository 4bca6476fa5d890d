"""Outputs do not depend on how the row-blocked loops cut their rows.

``core._row_blocks`` is the one place that cuts rows into blocks. It reads
``core._BLOCK_CELLS``, or the budget its caller passes (the CSV reader and
writer pass ``dataio._CELLS_PER_BLOCK``), when a loop starts, so forcing one
of those values reaches every kernel. Each output is a pure function of
(seed, question index), so forced blocks, and a prefix of a file, give the
same labels.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from quorum import aggregate as agg
from quorum import core, dataio, secondorder
from quorum.cli import main
from quorum.core import LabelSpace, PredictionMatrix
from quorum.dataio import write_predictions_csv
from quorum.estimate import METHODS, run_pipeline
from quorum.oracle import DifficultyMixture, expected_accuracy, mixture_posterior
from quorum.secondorder import pair_counts
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
    # one row per block everywhere; then seven rows per aggregate_batch block,
    # and seven rows (of an id, N answers and the truth) per CSV block
    [(1, 1), (7 * 2 * max(N, K), 7 * (N + 2))],
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

    def counted_blocks(*args):
        walked.append(0)
        for rows in row_blocks(*args):
            walked[-1] += 1
            yield rows

    monkeypatch.setattr(agg, "score_batch", counted_scores)
    monkeypatch.setattr(secondorder, "_row_blocks", counted_blocks)
    monkeypatch.setattr(core, "_BLOCK_CELLS", 24)
    agg.aggregate_batch("mv", gram.answers, 3)
    assert len(scored) == -(-5000 // 3)  # 24 // (2 * 4) rows a block
    after = [pair_counts(gram), pair_counts(wide)]
    assert walked == [5000 // 2, 600 // 6]  # 24 // (4 * 3) and 24 // 4 rows a block
    for got, want in zip(after, before):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
