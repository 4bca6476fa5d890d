"""End-to-end tests of the command-line interface.

Exit code contract: 0 success, 2 usage error (a bad flag or config value,
or an output that cannot be written), 3 malformed input file, 4 out of
memory, 5 verification failure.
"""

import atexit
import gc
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings

import quorum
from quorum import __version__
from quorum.cli import main
from quorum.verify import CheckResult

from mutations import mutated_bytes


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def _simulate(runner, path, extra=()):
    result = _invoke(
        runner,
        [
            "simulate",
            "--accuracies",
            "0.6,0.7,0.8,0.9",
            "--k",
            "4",
            "-m",
            "300",
            "--seed",
            "5",
            "--out",
            str(path),
            *extra,
        ],
    )
    assert result.exit_code == 0, result.output
    return result


class TestSimulateCommand:
    def test_writes_reproducible_csv(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _simulate(runner, a)
        _simulate(runner, b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "question_id,agent_1,agent_2,agent_3,agent_4,truth"
        assert len(a.read_text().splitlines()) == 301

    def test_no_truth_flag(self, runner, tmp_path):
        path = tmp_path / "p.csv"
        _simulate(runner, path, extra=["--no-truth"])
        assert "truth" not in path.read_text().splitlines()[0]

    def test_difficulty_model(self, runner, tmp_path):
        path = tmp_path / "d.csv"
        result = _invoke(
            runner,
            [
                "simulate",
                "--model",
                "difficulty",
                "--abilities",
                "1.0,2.0",
                "--mixture",
                "0:0.3,50:0.7",
                "--k",
                "2",
                "-m",
                "200",
                "--out",
                str(path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert path.exists()

    def test_log_uniform_mixture_token(self, runner, tmp_path):
        path = tmp_path / "d.csv"
        result = _invoke(
            runner,
            [
                "simulate",
                "--model",
                "difficulty",
                "--abilities",
                "1.0",
                "--mixture",
                "loguniform:0.1:10",
                "--k",
                "3",
                "-m",
                "50",
                "--out",
                str(path),
            ],
        )
        assert result.exit_code == 0, result.output

    def test_usage_errors(self, runner, tmp_path):
        out = str(tmp_path / "x.csv")
        cases = [
            ["simulate", "--accuracies", "0.9", "--out", out],  # missing --k
            ["simulate", "--k", "2", "--out", out],  # missing accuracies
            ["simulate", "--accuracies", "0.9,oops", "--k", "2", "--out", out],
            ["simulate", "--accuracies", "0.1,0.9", "--k", "2", "--out", out],  # below chance
            ["simulate", "--model", "difficulty", "--abilities", "1.0", "--k", "2", "--out", out],
            [
                "simulate",
                "--model",
                "difficulty",
                "--abilities",
                "1.0",
                "--mixture",
                "badtoken",
                "--k",
                "2",
                "--out",
                out,
            ],
        ]
        for args in cases:
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)


class TestAggregateCommand:
    def test_basic_run_with_summary(self, runner, tmp_path):
        pred, out = tmp_path / "p.csv", tmp_path / "labels.csv"
        _simulate(runner, pred)
        result = _invoke(runner, ["aggregate", "--input", str(pred), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "question_id,label"
        assert len(lines) == 301
        summary = json.loads((tmp_path / "labels.csv.summary.json").read_text())
        assert summary["method"] == "isp"
        assert summary["m"] == 300 and summary["n"] == 4 and summary["k"] == 4
        assert summary["overall_accuracy"] > 0.85
        assert set(summary["per_agent_accuracy"]) == {"1", "2", "3", "4"}
        assert summary["disagreement_count"] > 0

    def test_summary_counts_tie_broken_labels(self, runner, tmp_path):
        pred, out = tmp_path / "p.csv", tmp_path / "labels.csv"
        # the two split questions are ties under mv
        pred.write_text("question_id,agent_a,agent_b,truth\nq0,A,A,A\nq1,A,B,A\nq2,C,B,B\nq3,B,B,B\n")
        _invoke(runner, ["aggregate", "--input", str(pred), "--out", str(out), "--method", "mv"])
        summary = json.loads((tmp_path / "labels.csv.summary.json").read_text())
        assert summary["ties_broken"] == {"count": 2, "fraction": 0.5}

    def test_summary_accuracies_on_a_crafted_panel(self, runner, tmp_path):
        pred, out = tmp_path / "p.csv", tmp_path / "labels.csv"
        # mv labels A, A, A, B: q1 and q2 are disagreements, by the last agent and by the second
        pred.write_text(
            "question_id,agent_a,agent_b,agent_c,truth\nq0,A,A,A,A\nq1,A,A,B,A\nq2,A,B,A,B\nq3,B,B,B,A\n"
        )
        _invoke(runner, ["aggregate", "--input", str(pred), "--out", str(out), "--method", "mv"])
        summary = json.loads((tmp_path / "labels.csv.summary.json").read_text())
        assert summary["overall_accuracy"] == 0.5
        assert summary["disagreement_count"] == 2
        assert summary["disagreement_accuracy"] == 0.5
        assert summary["per_agent_accuracy"] == {"a": 0.5, "b": 0.75, "c": 0.25}

    def test_reruns_are_identical_up_to_timestamp(self, runner, tmp_path):
        pred = tmp_path / "p.csv"
        _simulate(runner, pred)
        outs = []
        for name in ("l1", "l2"):
            out = tmp_path / f"{name}.csv"
            summ = tmp_path / f"{name}.json"
            _invoke(
                runner,
                ["aggregate", "--input", str(pred), "--out", str(out), "--summary", str(summ)],
            )
            outs.append((out.read_bytes(), json.loads(summ.read_text())))
        assert outs[0][0] == outs[1][0]
        d1, d2 = outs[0][1], outs[1][1]
        d1.pop("timestamp"), d2.pop("timestamp")
        d1["config"].pop("out"), d2["config"].pop("out")
        d1["config"].pop("summary"), d2["config"].pop("summary")
        assert d1 == d2

    def test_summary_says_where_the_parse_came_from(self, runner, tmp_path):
        small, large = tmp_path / "small.csv", tmp_path / "large.csv"
        _simulate(runner, small)
        _simulate(runner, large, ["-m", "80000"])
        assert large.stat().st_size >= 2**20 > small.stat().st_size
        seen = []
        for pred, name in ((small, "s1"), (small, "s2"), (large, "l1"), (large, "l2")):
            out = tmp_path / f"{name}.csv"
            _invoke(runner, ["aggregate", "--input", str(pred), "--out", str(out), "--method", "isp"])
            summary = json.loads((tmp_path / f"{name}.csv.summary.json").read_text())
            seen.append(summary.pop("input_cache"))
            summary.pop("timestamp"), summary["config"].pop("out")
            seen.append((out.read_bytes(), summary))
        assert seen[0::2] == ["off", "off", "stored", "hit"]
        assert seen[1] == seen[3] and seen[5] == seen[7]

    def test_each_method_runs(self, runner, tmp_path):
        pred = tmp_path / "p.csv"
        _simulate(runner, pred)
        for method, extra in [
            ("mv", []),
            ("sp", []),
            ("isp", []),
            ("ow-l", ["--starts", "2"]),
            ("ow-i", []),
            ("ow-oracle", ["--accuracies", "0.6,0.7,0.8,0.9"]),
            ("eow", ["--abilities", "0.5,1.0,1.5,2.0"]),
        ]:
            out = tmp_path / f"{method}.csv"
            result = _invoke(
                runner,
                ["aggregate", "--input", str(pred), "--out", str(out), "--method", method, *extra],
            )
            assert result.exit_code == 0, (method, result.output)
            assert out.exists()

    def test_fit_summary_for_weighted_methods(self, runner, tmp_path):
        pred, out = tmp_path / "p.csv", tmp_path / "l.csv"
        _simulate(runner, pred)
        result = _invoke(
            runner,
            ["aggregate", "--input", str(pred), "--out", str(out), "--method", "ow-l", "--starts", "2"],
        )
        assert result.exit_code == 0, result.output
        fit = json.loads((tmp_path / "l.csv.summary.json").read_text())["fit"]
        assert fit["method"] == "ow-l"
        assert len(fit["accuracies"]) == 4
        assert len(fit["weights_normalized"]) == 4
        assert abs(sum(abs(w) for w in fit["weights_normalized"]) - 1.0) < 1e-9

    def test_truth_column_never_drives_labels(self, runner, tmp_path):
        pred, out1, out2 = tmp_path / "p.csv", tmp_path / "l1.csv", tmp_path / "l2.csv"
        _simulate(runner, pred)
        # scramble the truth column within the existing label set
        lines = pred.read_text().splitlines()
        rotate = {"A": "B", "B": "C", "C": "D", "D": "A"}
        body = [",".join(r.split(",")[:-1] + [rotate[r.split(",")[-1]]]) for r in lines[1:]]
        scrambled = tmp_path / "scrambled.csv"
        scrambled.write_text("\n".join([lines[0]] + body) + "\n")
        _invoke(runner, ["aggregate", "--input", str(pred), "--out", str(out1)])
        _invoke(runner, ["aggregate", "--input", str(scrambled), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_shuffle_seed_is_deterministic_and_sane(self, runner, tmp_path):
        pred = tmp_path / "p.csv"
        _simulate(runner, pred)
        accs = []
        for name, seed in (("s1", "11"), ("s2", "11"), ("s3", "12")):
            out = tmp_path / f"{name}.csv"
            result = _invoke(
                runner,
                [
                    "aggregate",
                    "--input",
                    str(pred),
                    "--out",
                    str(out),
                    "--method",
                    "mv",
                    "--shuffle-seed",
                    seed,
                ],
            )
            assert result.exit_code == 0, result.output
            summary = json.loads((tmp_path / f"{name}.csv.summary.json").read_text())
            accs.append((out.read_bytes(), summary["overall_accuracy"]))
        assert accs[0][0] == accs[1][0]  # same shuffle seed, same output
        # shuffling permutes labels per question but cannot break aggregation
        base = tmp_path / "plain.csv"
        _invoke(runner, ["aggregate", "--input", str(pred), "--out", str(base), "--method", "mv"])
        plain = json.loads((tmp_path / "plain.csv.summary.json").read_text())["overall_accuracy"]
        for _, acc in accs:
            assert abs(acc - plain) < 0.05

    def test_agents_subset_and_labels_override(self, runner, tmp_path):
        pred, out = tmp_path / "p.csv", tmp_path / "l.csv"
        _simulate(runner, pred)
        result = _invoke(
            runner,
            [
                "aggregate",
                "--input",
                str(pred),
                "--out",
                str(out),
                "--agents",
                "4,3",
                "--labels",
                "D,C,B,A",
                "--method",
                "mv",
            ],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "l.csv.summary.json").read_text())
        assert summary["n"] == 2
        assert summary["agent_names"] == ["4", "3"]
        assert summary["labels"] == ["D", "C", "B", "A"]

    def test_repeated_agent_exits_3(self, runner, tmp_path):
        pred = tmp_path / "p.csv"
        _simulate(runner, pred)
        out = tmp_path / "l.csv"
        result = runner.invoke(main, ["aggregate", "--input", str(pred), "--out", str(out), "--agents", "1,1,2"])
        assert result.exit_code == 3, result.output
        assert "agents ['1'] repeated" in result.output and "Traceback" not in result.output
        assert not out.exists()

    def test_drop_incomplete_flag(self, runner, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "question_id,agent_x,agent_y,agent_z\nq0,A,B,A\nq1,,B,B\nq2,B,B,A\n"
        )
        out = tmp_path / "l.csv"
        result = runner.invoke(main, ["aggregate", "--input", str(path), "--out", str(out)])
        assert result.exit_code == 3
        result = _invoke(
            runner,
            ["aggregate", "--input", str(path), "--out", str(out), "--drop-incomplete", "--summary", str(tmp_path / "s.json")],
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 3  # header + 2 kept questions
        assert json.loads((tmp_path / "s.json").read_text())["dropped_questions"] == 1

    def test_format_errors_exit_3(self, runner, tmp_path):
        out = str(tmp_path / "l.csv")
        missing = runner.invoke(main, ["aggregate", "--input", str(tmp_path / "no.csv"), "--out", out])
        assert missing.exit_code == 3
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("question_id,agent_x,agent_y\nq0,A,B\nq1,A\n")
        result = runner.invoke(main, ["aggregate", "--input", str(ragged), "--out", out])
        assert result.exit_code == 3
        assert "ragged.csv:3" in result.output
        dup = tmp_path / "dup.csv"
        dup.write_text("question_id,agent_x,agent_y\nq1,A,B\nq1,B,B\n")
        result = runner.invoke(main, ["aggregate", "--input", str(dup), "--out", out])
        assert result.exit_code == 3
        assert "dup.csv:3: duplicate question_id 'q1'" in result.output
        assert not (tmp_path / "l.csv").exists()
        unknown = tmp_path / "unknown.csv"
        unknown.write_text("question_id,agent_x,agent_y\nq0,A,B\nq1,C,A\n")
        result = runner.invoke(
            main, ["aggregate", "--input", str(unknown), "--out", out, "--labels", "A,B"]
        )
        assert result.exit_code == 3
        assert "unknown.csv:3: label 'C'" in result.output

    def test_usage_errors_exit_2(self, runner, tmp_path):
        pred = tmp_path / "p.csv"
        _simulate(runner, pred)
        out = str(tmp_path / "l.csv")
        cases = [
            ["aggregate", "--input", str(pred), "--out", out, "--method", "ow-oracle"],
            ["aggregate", "--input", str(pred), "--out", out, "--method", "eow"],
            ["aggregate", "--input", str(pred), "--out", out, "--method", "nope"],
            ["aggregate", "--input", str(pred), "--out", out, "--accuracies", "1.2,0.9,0.9,0.9", "--method", "ow-oracle"],
            ["aggregate", "--input", str(pred), "--out", out, "--smoothing", "-1"],
            ["aggregate", "--input", str(pred), "--out", out, "--agents", "1", "--method", "ow-i"],
            # a bad label space is a bad flag, not a bad file
            ["aggregate", "--input", str(pred), "--out", out, "--labels", "A"],
            ["aggregate", "--input", str(pred), "--out", out, "--labels", "A,A"],
        ]
        for args in cases:
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)

    def test_accuracies_flag_takes_the_librarys_check(self, runner, tmp_path):
        pred = tmp_path / "p.csv"
        _simulate(runner, pred)
        args = ["aggregate", "--input", str(pred), "--out", str(tmp_path / "l.csv"), "--method", "ow-oracle"]
        result = runner.invoke(main, [*args, "--accuracies", "1.2,0.9,0.9,0.9"])
        assert result.exit_code == 2 and "accuracies must lie in [0, 1]" in result.stderr
        # an always-wrong agent has accuracy 0, which the library accepts: it gets weight 0
        assert _invoke(runner, [*args, "--accuracies", "0,0.9,0.9,0.9"]).exit_code == 0

    def test_config_file_fills_defaults_but_flags_win(self, runner, tmp_path):
        pred = tmp_path / "p.csv"
        _simulate(runner, pred)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "mv", "tie": "lowest"}))
        out1 = tmp_path / "fromcfg.csv"
        _invoke(
            runner,
            ["aggregate", "--input", str(pred), "--out", str(out1), "--config", str(cfg)],
        )
        s1 = json.loads((tmp_path / "fromcfg.csv.summary.json").read_text())
        assert s1["method"] == "mv"
        assert s1["config"]["tie"] == "lowest"
        out2 = tmp_path / "flagwins.csv"
        _invoke(
            runner,
            [
                "aggregate",
                "--input",
                str(pred),
                "--out",
                str(out2),
                "--config",
                str(cfg),
                "--method",
                "isp",
            ],
        )
        assert json.loads((tmp_path / "flagwins.csv.summary.json").read_text())["method"] == "isp"

    def test_config_never_overrides_summary_or_report_kind_flags(self, runner, tmp_path):
        pred = tmp_path / "p.csv"
        _simulate(runner, pred)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"summary": str(tmp_path / "fromcfg.json")}))
        out = str(tmp_path / "l.csv")
        flag = tmp_path / "fromflag.json"
        _invoke(
            runner,
            ["aggregate", "--input", str(pred), "--out", out, "--config", str(cfg), "--summary", str(flag)],
        )
        assert flag.exists() and not (tmp_path / "fromcfg.json").exists()
        cfg.write_text(json.dumps({"table2": False, "k-values": "2,3", "questions": 200}))
        base = str(tmp_path / "rep")
        _invoke(runner, ["report", "--table2", "--config", str(cfg), "--out", base])
        assert json.loads((tmp_path / "rep.json").read_text())["kind"] == "accuracy_table"

    def test_config_errors(self, runner, tmp_path):
        pred = tmp_path / "p.csv"
        _simulate(runner, pred)
        out = str(tmp_path / "l.csv")
        bad_key = tmp_path / "bad.json"
        bad_key.write_text(json.dumps({"no_such_option": 1}))
        result = runner.invoke(
            main, ["aggregate", "--input", str(pred), "--out", out, "--config", str(bad_key)]
        )
        assert result.exit_code == 2
        not_json = tmp_path / "nope.json"
        not_json.write_text("{oops")
        result = runner.invoke(
            main, ["aggregate", "--input", str(pred), "--out", out, "--config", str(not_json)]
        )
        assert result.exit_code == 3
        # nested deeper than the parser's stack: a RecursionError, read as invalid JSON
        not_json.write_text("[" * 100_000 + "]" * 100_000)
        result = runner.invoke(
            main, ["aggregate", "--input", str(pred), "--out", out, "--config", str(not_json)]
        )
        assert result.exit_code == 3
        assert result.stderr.startswith(f"error: {not_json}: invalid JSON (maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "bad_row,config,named",
    [
        (b"q\xff,A,B,A", None, "p.csv:5002: not UTF-8 text"),
        (b"q" * 200_000 + b",A,B,A", None, "p.csv:5002: field larger than field limit"),
        (None, b'{"method": "mv\xff"}', "cfg.json: invalid JSON"),
    ],
    ids=["csv-not-utf8", "csv-field-over-limit", "config-not-utf8"],
)
def test_hostile_input_exits_3_without_a_traceback(runner, tmp_path, bad_row, config, named):
    # row 5002 sits past the first ingest block and the first decoded chunk
    lines = [b"question_id,agent_x,agent_y,truth"]
    lines += [f"q{i},{'AB'[i % 2]},{'BA'[i % 3 > 0]},A".encode() for i in range(6000)]
    if bad_row is not None:
        lines[5001] = bad_row
    (tmp_path / "p.csv").write_bytes(b"\n".join(lines) + b"\n")
    args = ["aggregate", "--input", str(tmp_path / "p.csv"), "--out", str(tmp_path / "l.csv")]
    if config is not None:
        (tmp_path / "cfg.json").write_bytes(config)
        args += ["--config", str(tmp_path / "cfg.json")]
    result = _invoke(runner, args)
    assert result.exit_code == 3
    assert named in result.stderr
    assert "Traceback" not in result.output
    assert not (tmp_path / "l.csv").exists()


@pytest.mark.parametrize(
    "accuracies,k,flags,warning",
    [
        ("0.6,0.7,0.8,0.9", "4", [], None),
        ("0.6,0.7,0.8,0.9", "4", ["--max-iters", "1"], "warning: the accuracy fit did not converge"),
        # two agents give one agreement equation for two accuracies: a manifold of fits
        ("0.6,0.8", "3", [], "warning: only 1 of 8 fit starts agree"),
    ],
    ids=["clean", "not-converged", "starts-disagree"],
)
def test_fit_warnings_on_stderr(runner, tmp_path, accuracies, k, flags, warning):
    pred, out = tmp_path / "p.csv", tmp_path / "l.csv"
    args = ["simulate", "--accuracies", accuracies, "--k", k, "-m", "5000", "--seed", "0"]
    _invoke(runner, [*args, "--out", str(pred)])
    result = _invoke(runner, ["aggregate", "--input", str(pred), "--out", str(out), "--method", "ow-l", *flags])
    assert result.exit_code == 0, result.output
    warnings = [line for line in result.stderr.splitlines() if line.startswith("warning:")]
    assert warnings == [line for line in result.stderr.splitlines() if line]  # nothing else on stderr
    fit = json.loads((tmp_path / "l.csv.summary.json").read_text())["fit"]
    if warning is None:
        assert warnings == []
        assert fit["converged"] and fit["starts_agreeing"] == 8
    else:
        assert sum(line.startswith(warning) for line in warnings) == 1, warnings
    assert fit["converged"] == (not any("converge" in line for line in warnings))
    assert (fit["starts_agreeing"] < 8) == any("starts agree" in line for line in warnings)


def test_imputed_cells_warn_on_stderr(runner, tmp_path):
    # agent_x never answers C, so agent_y's K = 3 cells conditioned on it are imputed
    pred, out = tmp_path / "p.csv", tmp_path / "l.csv"
    pred.write_text("question_id,agent_x,agent_y,truth\nq0,A,A,A\nq1,B,C,C\nq2,A,B,A\nq3,B,B,B\n")
    for method in ("isp", "ow-i"):
        result = _invoke(runner, ["aggregate", "--input", str(pred), "--out", str(out), "--method", method])
        assert result.exit_code == 0, result.output
        assert result.stderr.splitlines() == ["warning: 3 second-order cells were imputed"], method
        summary = json.loads((tmp_path / "l.csv.summary.json").read_text())
        keys = [*summary, *(summary["fit"] or {})]
        assert not [key for key in keys if "imputed" in key]  # the summary is unchanged
    # mv reads no second-order cells, and a panel where every agent gives every label imputes none
    result = _invoke(runner, ["aggregate", "--input", str(pred), "--out", str(out), "--method", "mv"])
    assert result.exit_code == 0 and result.stderr == ""
    _simulate(runner, pred)
    result = _invoke(runner, ["aggregate", "--input", str(pred), "--out", str(out), "--method", "isp"])
    assert result.exit_code == 0 and result.stderr == ""


_EMPTY_CELL = "question_id,agent_x,agent_y,agent_z\nq0,A,B,A\nq1,,B,B\nq2,B,B,A\n"


@pytest.mark.parametrize(
    "command,flags,config,csv_text,code,named",
    [
        ("aggregate", ["--starts", "0"], None, None, 2, "--starts"),
        ("aggregate", ["--max-iters", "0"], None, None, 2, "--max-iters"),
        ("aggregate", ["--eps", "0.7"], None, None, 2, "--eps"),
        ("aggregate", ["--seed", "-1"], None, None, 2, "--seed"),
        ("aggregate", [], {"starts": "abc"}, None, 2, "--starts"),
        ("aggregate", [], {"starts": 2.5}, None, 2, "--starts"),
        ("aggregate", [], {"drop_incomplete": "maybe"}, None, 2, "--drop-incomplete"),
        ("aggregate", [], {"tie": "coin"}, None, 2, "--tie"),
        ("report", ["--table2"], {"questions": 0}, None, 2, "--questions"),
        # "no" is false, so the empty cell is still a format error
        ("aggregate", [], {"drop_incomplete": "no"}, _EMPTY_CELL, 3, None),
        # null keeps the default; a numeric string is recorded as the number the fit used
        ("aggregate", [], {"starts": None, "seed": "7", "drop_incomplete": True}, None, 0, None),
    ],
    ids=[
        "starts-flag",
        "max-iters-flag",
        "eps-flag",
        "negative-seed-flag",
        "starts-config",
        "starts-not-integer",
        "drop-incomplete-maybe",
        "tie-config",
        "report-questions-config",
        "drop-incomplete-no",
        "null-and-string-seed",
    ],
)
def test_flags_and_config_values_are_checked_alike(
    runner, tmp_path, command, flags, config, csv_text, code, named
):
    out = tmp_path / "out.csv"
    args = [command, *flags, "--out", str(out)]
    if command == "aggregate":
        pred = tmp_path / "p.csv"
        if csv_text is None:
            _simulate(runner, pred)
        else:
            pred.write_text(csv_text)
        args += ["--input", str(pred), "--method", "ow-l"]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args += ["--config", str(tmp_path / "cfg.json")]
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if named is not None:
        assert f"Invalid value for '{named}'" in result.output
    if code == 0:
        cfg = json.loads((tmp_path / "out.csv.summary.json").read_text())["config"]
        assert cfg["seed"] == 7 and cfg["starts"] == 8 and cfg["drop_incomplete"] is True
        assert "threads" not in cfg


@pytest.mark.parametrize(
    "args,named",
    [
        (["aggregate", "--out", "nodir/l.csv"], "nodir/l.csv"),
        (["aggregate", "--out", "l.csv", "--summary", "nodir/s.json"], "nodir/s.json"),
        (["simulate", "--accuracies", "0.6,0.7", "--k", "2", "-m", "50", "--out", "nodir/s.csv"], "nodir/s.csv"),
        (["report", "--table2", "-m", "50", "--k-values", "2", "--out", "nodir/rep"], "nodir/rep.txt"),
    ],
    ids=["aggregate-out", "aggregate-summary", "simulate-out", "report-out"],
)
def test_an_output_in_a_missing_directory_exits_2_and_names_it(runner, tmp_path, monkeypatch, args, named):
    monkeypatch.chdir(tmp_path)
    if args[0] == "aggregate":
        _simulate(runner, tmp_path / "p.csv")
        args = [*args, "--input", "p.csv", "--method", "mv"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: [Errno 2] No such file or directory: '{named}'\n"
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize(
    "args,target",
    [
        (["aggregate", "--input", "p.csv", "--out", "l.csv"], "run_pipeline"),
        (["simulate", "--accuracies", "0.6,0.7", "--k", "2", "--out", "s.csv"], "simulate_ci"),
        (["report", "--table2", "--out", "rep"], "run_accuracy_table"),
    ],
    ids=["aggregate", "simulate", "report"],
)
def test_memory_exhaustion_exits_4(runner, tmp_path, monkeypatch, args, target):
    def exhausted(*_, **__):
        raise MemoryError

    monkeypatch.chdir(tmp_path)
    if args[0] == "aggregate":
        _simulate(runner, tmp_path / "p.csv")
    monkeypatch.setattr(f"quorum.cli.{target}", exhausted)
    result = runner.invoke(main, args)
    assert result.exit_code == 4, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == "error: out of memory\n"


# JSON syntax, bytes that keep a value valid JSON but change it, a byte that is
# never UTF-8, a byte order mark, NUL, and numbers past what float or int takes
_HOSTILE_JSON = (
    b'"', b"{", b"}", b"[", b"]", b",", b":", b"\\", b" ", b"-", b"0", b"A",
    b"\xff", b"\xef\xbb\xbf", b"\0", b"1e999", b"9" * 5000,
)
# no numeric fit option, and --method mv on the command line wins over any method a mutation makes
_VALID_CONFIG = b'{"tie": "lowest", "tie-seed": 3, "labels": "A,B,C,D", "drop-incomplete": false, "shuffle-seed": 1}'


@given(mutated_bytes(_VALID_CONFIG, _HOSTILE_JSON))
@example(_VALID_CONFIG)
@example(b"[" * 100_000 + b"]" * 100_000)
@example(b'{"tie": ' * 100_000 + b'"lowest"' + b"}" * 100_000)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_config_bytes_exit_with_a_code_not_a_traceback(tmp_path, config):
    runner = CliRunner()
    pred, cfg = tmp_path / "p.csv", tmp_path / "cfg.json"
    if not pred.exists():
        _simulate(runner, pred)
    cfg.write_bytes(config)
    args = ["aggregate", "--input", str(pred), "--out", str(tmp_path / "l.csv"), "--method", "mv"]
    result = runner.invoke(main, [*args, "--config", str(cfg)])
    assert result.exit_code in (0, 2, 3, 4), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert (result.exit_code == 0) == (result.stderr == ""), result.stderr
    if config == _VALID_CONFIG:
        assert result.exit_code == 0


class TestVerifyCommand:
    def test_examples_suite_passes(self, runner):
        result = _invoke(runner, ["verify", "--suite", "examples"])
        assert result.exit_code == 0, result.output
        assert "[PASS] examples:four_agents_accuracy_mv" in result.output
        assert "FAIL" not in result.output
        assert "checks passed" in result.output

    def test_unknown_suite_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "bogus"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "suite,skipped,summary,budget",
        [
            ("examples", 6, "9/15 checks passed, 6 skipped", 3),
            ("examples", 3, "12/15 checks passed, 3 skipped", 100),
            ("thm1", 5, "0/5 checks passed, 5 skipped", 3),
            ("thm2", 2, "4/6 checks passed, 2 skipped", 3),
            ("thm4", 1, "2/3 checks passed, 1 skipped", 3),
            ("thm5", 2, "1/3 checks passed, 2 skipped", 3),
        ],
    )
    def test_a_check_the_budget_left_without_draws_is_skipped(self, runner, suite, skipped, summary, budget):
        # no random shape has K**N <= 3, so every drawn check examines nothing; the
        # examples' fixed shapes have 2**4 and 2**9 vectors, and skip like drawn ones
        result = _invoke(runner, ["verify", "--suite", suite, "--budget", str(budget)])
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        assert sum(line.startswith("[SKIP]") for line in lines) == skipped
        assert not [line for line in lines if line.startswith("[FAIL]")]
        assert lines[-1] == summary
        # at a budget that keeps draws, the same suite skips nothing
        assert "SKIP" not in _invoke(runner, ["verify", "--suite", suite]).stdout

    def test_failing_check_exits_5(self, runner, monkeypatch):
        def fake(names, seed=0, budget=0):
            return [CheckResult("examples", "forced", False, "forced failure")]

        monkeypatch.setattr("quorum.verify.run_suites", fake)
        result = runner.invoke(main, ["verify", "--suite", "examples"])
        assert result.exit_code == 5
        assert "[FAIL] examples:forced" in result.output


class TestReportCommand:
    def test_table_artifacts(self, runner, tmp_path):
        base = tmp_path / "rep"
        result = _invoke(
            runner,
            [
                "report",
                "--table2",
                "--out",
                str(base),
                "-m",
                "400",
                "--k-values",
                "2,4",
                "--seed",
                "1",
            ],
        )
        assert result.exit_code == 0, result.output
        csv_lines = (tmp_path / "rep.csv").read_text().splitlines()
        assert csv_lines[0] == "k,mv,sp,single_best,isp,opt"
        assert len(csv_lines) == 3
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["kind"] == "accuracy_table"
        assert [r["k"] for r in doc["rows"]] == [2, 4]
        assert doc["config"]["questions"] == 400
        text = (tmp_path / "rep.txt").read_text()
        assert "config:" in text and "isp" in text

    def test_gap_curve_artifacts(self, runner, tmp_path):
        base = tmp_path / "gap"
        result = _invoke(
            runner,
            [
                "report",
                "--gap-curve",
                "--out",
                str(base),
                "-m",
                "300",
                "--k-values",
                "2,4",
                "--replications",
                "2",
            ],
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "gap.csv").read_text().splitlines()
        assert lines[0] == "k,gap_isp_mv,gap_mv_sp,stderr"
        assert len(lines) == 3
        assert json.loads((tmp_path / "gap.json").read_text())["kind"] == "gap_curve"
        assert not (tmp_path / "gap.txt").exists()

    def test_reruns_identical_up_to_timestamp(self, runner, tmp_path):
        docs = []
        for name in ("r1", "r2"):
            base = tmp_path / name
            _invoke(
                runner,
                ["report", "--table2", "--out", str(base), "-m", "200", "--k-values", "2"],
            )
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            doc.pop("timestamp")
            doc["config"].pop("out")
            docs.append((doc, (tmp_path / f"{name}.csv").read_bytes()))
        assert docs[0][0] == docs[1][0]
        assert docs[0][1] == docs[1][1]

    def test_usage_errors(self, runner, tmp_path):
        base = str(tmp_path / "rep")
        cases = [
            ["report", "--out", base],  # neither kind
            ["report", "--table2", "--gap-curve", "--out", base],
            ["report", "--table2", "--out", base, "--k-values", "1,2"],
            ["report", "--table2", "--out", base, "--accuracies", "0.05"],
            ["report", "--table2", "--out", base, "--replications", "0"],
            ["report", "--table2", "--out", base, "-m", "0"],
        ]
        for args in cases:
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)

    def test_bad_k_exits_before_simulating(self, runner, tmp_path, monkeypatch):
        import quorum.simulate as sim

        calls = []
        monkeypatch.setattr(sim, "simulate_ci", lambda spec: calls.append(spec))
        args = ["report", "--table2", "--out", str(tmp_path / "rep"), "--k-values", "10,1"]
        assert runner.invoke(main, args).exit_code == 2
        assert calls == []


class TestTopLevel:
    def test_help_and_version(self, runner):
        assert _invoke(runner, ["--help"]).exit_code == 0
        result = _invoke(runner, ["--version"])
        assert result.exit_code == 0
        assert "version" in result.output
        assert __version__ in result.output

    def test_installed_entry_point(self):
        import subprocess

        proc = subprocess.run(
            ["quorum", "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "aggregate" in proc.stdout.lower()


def _python(args, **kwargs):
    """Run a fresh interpreter with this checkout's package on the path, output piped."""

    src = str(Path(quorum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env=env, **kwargs
    )


class TestProgramExit:
    """``run`` (the console script, ``python -m quorum[.cli]``) skips the final collection only."""

    @pytest.mark.parametrize("module", ["quorum.cli", "quorum"])
    def test_exit_codes_and_piped_output_match_the_command(self, runner, tmp_path, module):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("question_id,agent_x,agent_y\nq0,A,B\nq1,A\n")
        out = str(tmp_path / "l.csv")
        cases = [
            (["verify", "--suite", "examples"], 0),
            (["aggregate", "--input", str(ragged), "--out", out, "--starts", "0"], 2),
            (["aggregate", "--input", str(ragged), "--out", out], 3),
        ]
        for args, code in cases:
            expected = runner.invoke(main, args, prog_name=f"python -m {module}")
            proc = _python(["-m", module, *args])
            assert (proc.returncode, expected.exit_code) == (code, code), (args, proc.stderr)
            assert (proc.stdout, proc.stderr) == (expected.stdout, expected.stderr), args
            assert ("error" in proc.stderr.lower()) == (code != 0), args

    def test_a_host_that_imports_the_cli_still_collects_cycles_at_exit(self):
        host = (  # the cycle exists before the import, which must neither freeze nor register
            "import atexit, gc, sys\n"
            "class Cycle:\n"
            "    def __del__(self):\n"
            "        print('finalized', flush=True)\n"
            "obj = Cycle()\n"
            "obj.self = obj\n"
            "import numpy, click\n"
            "before = atexit._ncallbacks()\n"
            "import quorum.cli\n"
            "print(gc.get_freeze_count(), atexit._ncallbacks() - before, gc.isenabled())\n"
            "del obj\n"
            "if sys.argv[1:] == ['run']:\n"
            "    sys.argv = ['quorum', '--version']\n"
            "    quorum.cli.run()\n"
        )
        imported = _python(["-c", host])
        assert (imported.returncode, imported.stdout) == (0, "0 0 True\nfinalized\n")
        ran = _python(["-c", host, "run"])
        assert ran.returncode == 0
        assert ran.stdout == f"0 0 True\nquorum, version {__version__}\n"  # frozen: never collected

    def test_in_process_invocations_register_nothing(self, runner, tmp_path):
        before = (gc.get_freeze_count(), atexit._ncallbacks(), gc.isenabled())
        _simulate(runner, tmp_path / "p.csv")
        _invoke(runner, ["aggregate", "--input", str(tmp_path / "p.csv"), "--out", str(tmp_path / "l.csv")])
        _invoke(runner, ["--version"])
        assert (gc.get_freeze_count(), atexit._ncallbacks(), gc.isenabled()) == before


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_take_the_umask_mode_and_cache_entries_stay_private(runner, tmp_path, umask, monkeypatch):
    from quorum import dataio

    monkeypatch.setattr(dataio, "_CACHE_MIN_BYTES", 0)  # the small panel's parse is stored too
    panel, labels = tmp_path / "p.csv", tmp_path / "l.csv"
    old = os.umask(umask)
    try:
        _simulate(runner, panel)
        _invoke(runner, ["aggregate", "--input", str(panel), "--out", str(labels), "--method", "mv"])
        args = ["report", "--table2", "--out", str(tmp_path / "rep"), "-m", "200", "--k-values", "2"]
        assert _invoke(runner, args).exit_code == 0
    finally:
        os.umask(old)
    outputs = [panel, labels, tmp_path / "l.csv.summary.json"]
    outputs += [tmp_path / f"rep.{ext}" for ext in ("txt", "csv", "json")]
    for path in outputs:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path
    (entry,) = (tmp_path / "xdg-cache" / "quorum").glob("*.table")
    assert stat.S_IMODE(entry.stat().st_mode) == 0o600
    assert not list(tmp_path.glob(".tmp-*"))
