"""End-to-end and per-layer benchmark of the ``quorum`` command and its oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.
It writes the workload's input once (outside any timed span), measures
the import time of ``quorum.cli`` in fresh interpreters, then repeats
passes over the workload's fixed list of operations until ``--seconds``
have been spent. Each operation is a fresh process, run one at a time and
checked. With ``--trace 1`` one more pass runs every operation under
``opexec.py``'s tracer and the per-layer metrics come from its spans.

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The line
before it holds the details: environment, every pass and operation, the
per-operation unaccounted time and any failed check. The same details and
the raw spans are written under ``.perfbench-work/<workload>/``.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median wall time of a fresh ``python -c "import quorum.cli"``,
  which every CLI call pays before it reads input;
* ``wall_s``: median over passes of the summed wall time of a pass's
  operations, each timed from process start to reaping; the inverse of
  throughput at the workload's fixed input size;
* ``peak_rss_mb``: median over passes of the largest peak RSS of a pass's
  operations, from ``os.wait4``;
* ``ok_frac``: 1 - fail_frac, the share of operations that exited 0 within
  their time limit and passed their output check. The complement is
  reported because a metric whose healthy value is 0 has no relative bound;
  the raw counts are ``attempted`` and ``failed``.

Per-layer metrics (``--trace 1``) are sums over the traced pass, except
``cli.import_s`` (median per operation) and ``oracle.peak_rss_mb`` (max).
``PER_LAYER`` below names the end-to-end metric and workload each one
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OPEXEC = Path(__file__).resolve().parent / "opexec.py"

SETUP_SAMPLES = 7
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # a whole run must end within 180 s; later operations get less time

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("fraction", "higher"),
}

# name: (unit, better, which end-to-end metric it should move, on which workload)
PER_LAYER = {
    "cli.import_s": ("s", "lower", "setup_s on all"),
    "cli.unaccounted_s": ("s", "lower", "wall_s on all (cli's self time)"),
    "dataio.read_s": ("s", "lower", "wall_s on tall (dominant) and many-labels; not on oracle"),
    "dataio.write_s": ("s", "lower", "wall_s on tall (dominant) and many-labels; not on oracle"),
    "dataio.bytes_in": ("bytes", "lower", "wall_s on tall and many-labels"),
    "dataio.bytes_out": ("bytes", "lower", "wall_s on tall and many-labels"),
    "core.answers_bytes": ("bytes", "lower", "peak_rss_mb on tall"),
    "secondorder.pair_counts_s": ("s", "lower", "wall_s on wide; must not grow on many-labels"),
    "secondorder.empirical_s": ("s", "lower", "wall_s on wide; must not grow on many-labels"),
    "secondorder.imputed_cells": ("count", "lower", "wall_s on wide"),
    "aggregate.score_s": ("s", "lower", "wall_s and peak_rss_mb on many-labels"),
    "aggregate.decide_s": ("s", "lower", "wall_s on tall (mv) and oracle (report); not on wide"),
    "aggregate.tied_questions": ("count", "lower", "wall_s on tall (mv) and oracle (report)"),
    "estimate.fit_s": ("s", "lower", "wall_s on wide (ow-l) and many-labels (ow-i)"),
    "estimate.fit_iterations": ("count", "lower", "wall_s on wide (ow-l)"),
    "estimate.starts_agreeing": ("count", "higher", "wall_s on wide (ow-l)"),
    "estimate.run_pipeline_s": ("s", "lower", "wall_s on wide and many-labels"),
    "simulate.table_s": ("s", "lower", "wall_s on oracle"),
    "simulate.ci_s": ("s", "lower", "wall_s on oracle"),
    "oracle.expected_accuracy_s": ("s", "lower", "wall_s and peak_rss_mb on oracle"),
    "oracle.mixture_posterior_s": ("s", "lower", "wall_s and peak_rss_mb on oracle"),
    "oracle.vectors": ("count", "lower", "wall_s and peak_rss_mb on oracle"),
    "oracle.peak_rss_mb": ("MB", "lower", "peak_rss_mb on oracle"),
    **{
        f"verify.{suite}_s": ("s", "lower", "wall_s on oracle")
        for suite in ("examples", "thm1", "thm2", "thm4", "thm5", "props")
    },
    "verify.checks": ("count", "higher", "wall_s on oracle"),
    **{
        f"{layer}.self_s": ("s", "lower", "wall_s where the layer runs")
        for layer in ("core", "dataio", "secondorder", "aggregate", "estimate", "oracle", "simulate", "verify")
    },
    "trace.overhead_s": ("s", "lower", "none: traced pass wall_s minus untraced median wall_s"),
}

# Span groups: a metric sums the spans of a group that have no ancestor in it.
SPAN_GROUPS = {
    "dataio.read_s": {"dataio.read_predictions_csv"},
    "dataio.write_s": {"dataio.write_labels_csv", "dataio.write_json",
                       "dataio.atomic_write_text", "dataio.write_predictions_csv"},
    "secondorder.pair_counts_s": {"secondorder.pair_counts"},
    "secondorder.empirical_s": {"secondorder.empirical_second_order"},
    "aggregate.score_s": {"aggregate.vote_counts_batch", "aggregate.weighted_scores_batch",
                          "aggregate.sp_advantage_batch", "aggregate.isp_advantage_batch"},
    "aggregate.decide_s": {"aggregate.decide_batch"},
    "estimate.fit_s": {"estimate.fit_ow_l", "estimate.fit_ow_i", "estimate.fit_accuracies"},
    "estimate.run_pipeline_s": {"estimate.run_pipeline"},
    "simulate.table_s": {"simulate.run_accuracy_table"},
    "simulate.ci_s": {"simulate.simulate_ci"},
    "oracle.expected_accuracy_s": {"oracle.expected_accuracy"},
}
COUNTS = {
    "dataio.bytes_in": "bytes_in",
    "dataio.bytes_out": "bytes_out",
    "core.answers_bytes": "answers_bytes",
    "secondorder.imputed_cells": "imputed_cells",
    "aggregate.tied_questions": "tied_questions",
    "estimate.fit_iterations": "fit_iterations",
    "estimate.starts_agreeing": "starts_agreeing",
    "oracle.vectors": "vectors",
    "verify.checks": "checks",
}


@dataclass
class OpRun:
    name: str
    wall_s: float
    rss_mb: float
    code: int
    problems: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], log: Path, timeout: float) -> tuple[int, float, float]:
    """Run one process to completion; (exit code, wall s, peak RSS MB).

    The child is killed after ``timeout`` seconds; its RSS comes from
    ``os.wait4`` so that it is the child's own peak, not the benchmark's.
    """

    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT, env=child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Runner:
    """One workload's inputs, operations and checks for one seed."""

    def __init__(self, workload: wl.Workload, seed: int, scale: float):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.workload = workload
        self.seed = seed
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.panel = self.truth = None
        if workload.panel is not None:
            m = max(200, round(workload.panel.m * scale))
            self.panel = wl.Panel(m, workload.panel.accuracies, workload.panel.labels)
            answers, self.truth = wl.sample_panel(self.panel, seed)
            self.input = self.dir / "input.csv"
            wl.write_panel_csv(str(self.input), self.panel, answers, self.truth)
        self.report_m = max(2_000, round(wl.REPORT_M * scale))

    def argv(self, op: wl.Op, tag: str, traced_id: int | None) -> list[str]:
        if op.kind == "oracle":
            args = ["oracle", op.name]
        else:
            args = ["cli", *op.args, "--seed", str(self.seed)]
            if op.args[0] == "aggregate":
                args += ["--input", str(self.input), "--out", str(self.out(op, tag)), "--tie-seed", str(self.seed)]
            elif op.args[0] == "report":
                args += ["-m", str(self.report_m), "--out", str(self.dir / f"{op.name}{tag}")]
        if traced_id is not None:
            return [sys.executable, str(OPEXEC), "--spans", str(self.dir / f"{op.name}.spans.json"),
                    "--op-id", str(traced_id), *args]
        if args[0] == "cli":
            return [sys.executable, "-m", "quorum.cli", *args[1:]]
        return [sys.executable, str(OPEXEC), *args]

    def out(self, op: wl.Op, tag: str) -> Path:
        return self.dir / f"{op.name}{tag}.labels.csv"

    def run_op(self, op: wl.Op, traced_id: int | None = None) -> OpRun:
        tag = "" if traced_id is None else ".traced"
        log = self.dir / f"{op.name}{tag}.log"
        code, wall, rss = run_process(self.argv(op, tag, traced_id), log, self.timeout())
        run = OpRun(op.name, wall, rss, code)
        spans = self.dir / f"{op.name}.spans.json"
        if traced_id is not None and spans.is_file():
            run.spans = json.loads(spans.read_text())
        if code != 0:
            run.problems.append(f"{op.name}: exit code {code}, see {log}")
            return run
        stdout = log.read_text(errors="replace")
        if op.kind == "oracle":
            try:
                value = json.loads(stdout.strip().splitlines()[-1])["value"]
            except (IndexError, KeyError, ValueError):
                value = None
            run.problems += wl.check_oracle(op.name, value, op.reference)
        elif op.args[0] == "aggregate":
            problems = wl.check_labels(str(self.out(op, tag)), self.panel, self.truth, op.reference)
            run.problems += problems
            if tag and not problems and self.out(op, tag).read_bytes() != self.out(op, "").read_bytes():
                run.problems.append(f"{op.name}: traced labels differ from the CLI's")
        elif op.args[0] == "verify":
            run.problems += wl.check_verify(stdout)
        elif op.args[0] == "report":
            run.problems += wl.check_table(str(self.dir / f"{op.name}{tag}.csv"), self.report_m)
        return run

    def run_pass(self, traced: bool = False) -> list[OpRun]:
        return [self.run_op(op, i if traced else None) for i, op in enumerate(self.workload.ops)]

    def timeout(self) -> float:
        return max(1.0, min(OP_TIMEOUT_S, self.deadline - time.perf_counter()))

    def setup_samples(self) -> list[float]:
        argv = [sys.executable, "-c", "import quorum.cli"]
        log = self.dir / "setup.log"
        run_process(argv, log, self.timeout())  # warm the file cache and the bytecode cache
        samples = []
        for _ in range(SETUP_SAMPLES):
            code, wall, _ = run_process(argv, log, self.timeout())
            if code != 0:
                raise RuntimeError(f"import quorum.cli failed, see {log}")
            samples.append(wall)
        return samples


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def outermost(spans: list[dict], names: set[str], keep=lambda s: True) -> float:
    """Summed duration of spans named in ``names`` with no ancestor named in it."""

    total = 0.0
    for span in spans:
        if span["name"] not in names or not keep(span):
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] not in names:
            parent = spans[parent]["parent"]
        if parent is None:
            total += _duration(span)
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer time spent in a layer's spans minus their child spans."""

    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += _duration(span)
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        if span["name"] != "cli.import":
            layer = span["name"].split(".")[0]
            out[layer] = out.get(layer, 0.0) + _duration(span) - child[i]
    return out


def unaccounted(op: OpRun) -> float:
    """Operation wall time minus the import and the top-level traced stages."""

    return op.wall_s - sum(_duration(s) for s in op.spans if s["parent"] is None)


def per_layer_metrics(traced: list[OpRun], untraced_wall: float) -> dict[str, float]:
    values = {name: 0.0 for name in PER_LAYER}
    imports = [_duration(s) for op in traced for s in op.spans if s["name"] == "cli.import"]
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for op in traced:
        spans = op.spans
        values["cli.unaccounted_s"] += unaccounted(op)
        for metric, names in SPAN_GROUPS.items():
            values[metric] += outermost(spans, names)
        values["oracle.mixture_posterior_s"] += outermost(
            spans, {"oracle.mixture_expected_accuracy"},
            lambda s: s.get("counts", {}).get("rule") == "posterior",
        )
        for span in spans:
            suite_metric = f"verify.{span.get('suite')}_s"
            if span["name"] == "verify.run_suites" and suite_metric in values:
                values[suite_metric] += _duration(span)
            for metric, key in COUNTS.items():
                values[metric] += span.get("counts", {}).get(key, 0)
        for layer, t in self_times(spans).items():
            if f"{layer}.self_s" in values:
                values[f"{layer}.self_s"] += t
        if any(s["name"].startswith("oracle.") for s in spans):
            values["oracle.peak_rss_mb"] = max(values["oracle.peak_rss_mb"], op.rss_mb)
    values["trace.overhead_s"] = sum(op.wall_s for op in traced) - untraced_wall
    return values


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""

    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_env": {name: os.environ.get(name) for name in blas},
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time spent on measured passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply input sizes (reduced-size test runs); results are then not comparable")
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "quorum" / "cli.py").is_file():
        print(f"error: {SRC / 'quorum'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    runner = Runner(wl.WORKLOADS[args.workload], args.seed, args.scale)
    setup = runner.setup_samples()

    passes: list[list[OpRun]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(runner.run_pass())
    pass_walls = [sum(op.wall_s for op in p) for p in passes]
    ops = [op for p in passes for op in p]
    traced = runner.run_pass(traced=True) if args.trace else []
    ops += traced

    failed = sum(not op.ok for op in ops)
    if args.trace:
        metrics = per_layer_metrics(traced, statistics.median(pass_walls))
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(pass_walls),
            "peak_rss_mb": statistics.median(max(op.rss_mb for op in p) for p in passes),
            "ok_frac": 1.0 - failed / len(ops),
        }
        units = {name: spec[0] for name, spec in END_TO_END.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "env": environment(),
        "setup_samples_s": setup,
        "passes": [[{"op": op.name, "wall_s": op.wall_s, "rss_mb": op.rss_mb, "code": op.code} for op in p]
                   for p in passes],
        "traced": [{"op": op.name, "wall_s": op.wall_s, "rss_mb": op.rss_mb, "code": op.code,
                    "unaccounted_s": unaccounted(op), "self_s": self_times(op.spans)} for op in traced],
        "problems": [problem for op in ops for problem in op.problems],
    }
    (runner.dir / "detail.json").write_text(json.dumps(detail, indent=1) + "\n")
    if traced:
        (runner.dir / "spans.json").write_text(json.dumps([s for op in traced for s in op.spans]) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
