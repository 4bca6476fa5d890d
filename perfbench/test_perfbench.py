"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_generator_is_deterministic(tmp_path):
    panel = wl.Panel(3_000, (0.4, 0.6, 0.9), ("x-1", "y-2", "z-3"))
    paths = []
    for i, seed in enumerate((7, 7, 8)):
        answers, truth = wl.sample_panel(panel, seed)
        paths.append(tmp_path / f"{i}.csv")
        wl.write_panel_csv(str(paths[-1]), panel, answers, truth)
    first, again, other = (p.read_bytes() for p in paths)
    assert first == again
    assert first != other


def test_generator_follows_the_model():
    panel = wl.Panel(40_000, (0.3, 0.9), ("a", "b", "c", "d"))
    answers, truth = wl.sample_panel(panel, 1)
    assert np.allclose((answers == truth[:, None]).mean(axis=0), panel.accuracies, atol=0.01)
    wrong = answers[answers[:, 0] != truth, 0] - truth[answers[:, 0] != truth]
    assert np.allclose(np.bincount(wrong % 4)[1:] / len(wrong), 1 / 3, atol=0.02)


def test_names_and_units_match_the_contract():
    bench = _bench()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in wl.WORKLOADS.values()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: spec[:2] for name, spec in run.PER_LAYER.items()
    }
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_span_arithmetic():
    spans = [
        {"name": "cli.import", "start": 0.0, "end": 1.0, "parent": None},
        {"name": "estimate.run_pipeline", "start": 1.0, "end": 5.0, "parent": None},
        {"name": "aggregate.isp_advantage_batch", "start": 1.5, "end": 3.0, "parent": 1},
        {"name": "aggregate.vote_counts_batch", "start": 1.5, "end": 2.0, "parent": 2},
        {"name": "aggregate.decide_batch", "start": 3.0, "end": 4.0, "parent": 1},
    ]
    assert run.outermost(spans, run.SPAN_GROUPS["aggregate.score_s"]) == 1.5
    assert run.self_times(spans) == {"estimate": 1.5, "aggregate": 2.5}
    op = run.OpRun("x", wall_s=6.0, rss_mb=1.0, code=0, spans=spans)
    assert run.unaccounted(op) == 1.0


def test_checks_reject_wrong_labels(tmp_path):
    panel = wl.Panel(2_000, (0.9, 0.9, 0.9), ("A", "B"))
    _, truth = wl.sample_panel(panel, 0)
    ids = wl.question_ids(len(truth))
    path = tmp_path / "labels.csv"

    def write(qids, labels):
        path.write_text("question_id,label\n" + "".join(f"{q},{x}\n" for q, x in zip(qids, labels)))
        return wl.check_labels(str(path), panel, truth, 1.0)

    right = [panel.labels[t] for t in truth]
    assert write(ids, right) == []
    assert write(ids[::-1], right)
    assert write(ids, right[:-1] + ["C"])
    assert write(ids, [panel.labels[1 - t] for t in truth])
    assert write(ids[:-1], right[:-1])


def _result(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_reduced_run_passes_and_reports_every_metric(workload, trace):
    proc = _result(["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace, "--scale", "0.05"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    detail = json.loads(proc.stdout.splitlines()[-2])["detail"]
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    bench = _bench()
    wanted = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    if trace == "1":
        assert len(detail["traced"]) == len(wl.WORKLOADS[workload].ops)
        assert all("unaccounted_s" in op for op in detail["traced"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = _result(["--workload", "tall", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
