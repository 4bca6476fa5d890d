"""Command-line interface.

Four subcommands: ``simulate`` writes synthetic prediction matrices,
``aggregate`` turns a predictions CSV into per-question labels,
``verify`` runs the built-in check suites, and ``report`` reproduces the
two standard experiment artifacts. Exit codes: 0 success, 2 usage error
(a bad flag, ``--labels`` or config value, or an output that cannot be
written), 3 malformed input file, 4 out of memory, 5 verification
failure; ``verify`` prints ``[SKIP]`` for a check whose every shape
``--budget`` dropped.
"""

from __future__ import annotations

import datetime
import gc
import json
import sys

import click
import numpy as np

from . import __version__
from . import verify as verify_mod
from .aggregate import TIE_LOWEST, TIE_UNIFORM, TiePolicy
from .core import (
    DEFAULT_EPS,
    DimensionError,
    DomainError,
    FormatError,
    ResourceError,
    _check_acc,
    shuffle_apply,
    shuffle_invert,
)
from .dataio import (
    atomic_write_text,
    read_predictions_csv,
    write_json,
    write_labels_csv,
    write_predictions_csv,
)
from .estimate import METHODS, ErmConfig, _hit_rates, run_pipeline
from .oracle import DEFAULT_BUDGET, DifficultyMixture
from .simulate import (
    DEFAULT_ACCURACIES,
    DEFAULT_KS,
    CiSimSpec,
    DifficultySimSpec,
    run_accuracy_table,
    run_gap_curve,
    simulate_ci,
    simulate_difficulty,
)

_TIE_CHOICES = {"uniform": TIE_UNIFORM, "lowest": TIE_LOWEST}


class _Command(click.Command):
    """Every subcommand: its ``invoke`` is the one place a library error becomes an exit code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (DomainError, DimensionError) as exc:
            raise click.UsageError(str(exc), ctx)
        except BrokenPipeError:  # left to click's own EPIPE handling
            raise
        except (FormatError, ResourceError, MemoryError, OSError) as exc:
            click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
            # 3 a malformed input file, 2 an output that cannot be written, 4 out of memory (or budget)
            ctx.exit(3 if isinstance(exc, FormatError) else 2 if isinstance(exc, OSError) else 4)


def _parse_numbers(text: str, flag: str, kind=float) -> tuple:
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise click.UsageError(f"{flag}: expected comma-separated {what}, got {text!r}")


def _parse_mixture(text: str) -> DifficultyMixture:
    try:
        if text.startswith("loguniform:"):
            _, lo, hi = text.split(":")
            return DifficultyMixture.log_uniform(float(lo), float(hi))
        pairs = []
        for part in text.split(","):
            alpha, weight = part.split(":")
            pairs.append((float(alpha), float(weight)))
        return DifficultyMixture.atoms(pairs)
    except (ValueError, DomainError, DimensionError) as exc:
        raise click.UsageError(
            f"--mixture: expected 'alpha:weight,...' or 'loguniform:lo:hi' ({exc})"
        )


def _apply_config(ctx: click.Context, config_path: str | None, params: dict) -> dict:
    """Fill options not given on the command line from a JSON config file.

    Each value is spelt as on the command line and goes through its option's
    click type, so it is converted and checked exactly like the same flag (a
    JSON 2.5 is no integer); ``null`` keeps the default.
    """

    if not config_path:
        return params
    try:
        with open(config_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot open {config_path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested past the parser's stack
        raise FormatError(f"{config_path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise FormatError(f"{config_path}: config must be a JSON object")
    options = {p.name: p for p in ctx.command.params}
    for key, value in cfg.items():
        name = key.replace("-", "_")
        if name not in params:
            raise click.UsageError(f"--config: unknown key {key!r}")
        if value is not None and ctx.get_parameter_source(name).name == "DEFAULT":
            params[name] = options[name].type_cast_value(ctx, str(value))
    return params


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@click.group()
@click.version_option(version=__version__, prog_name="quorum")
def main() -> None:
    """Aggregate categorical answers from heterogeneous agents."""


main.command_class = _Command  # the class of every subcommand below


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@main.command()
@click.option("--model", type=click.Choice(["ci", "difficulty"]), default="ci", show_default=True)
@click.option("--accuracies", default=None, help="Per-agent accuracies (ci model), e.g. 0.6,0.7.")
@click.option("--abilities", default=None, help="Per-agent abilities (difficulty model).")
@click.option(
    "--mixture",
    default=None,
    help="Difficulty mixture: 'alpha:weight,...' or 'loguniform:lo:hi'.",
)
@click.option("--k", type=int, default=None, help="Number of labels.")
@click.option("--questions", "-m", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--no-truth", is_flag=True, help="Omit the truth column.")
@click.option("--config", "config_path", type=click.Path(exists=False), default=None)
@click.pass_context
def simulate(ctx, config_path, **params):
    """Write a synthetic predictions CSV."""

    params = _apply_config(ctx, config_path, params)
    if params["k"] is None:
        raise click.UsageError("--k is required")
    if params["model"] == "ci":
        if params["accuracies"] is None:
            raise click.UsageError("--accuracies is required for the ci model")
        acc = _parse_numbers(params["accuracies"], "--accuracies")
        pm = simulate_ci(CiSimSpec(acc, params["k"], params["questions"], params["seed"]))
    else:
        if params["abilities"] is None or params["mixture"] is None:
            raise click.UsageError("--abilities and --mixture are required for the difficulty model")
        beta = _parse_numbers(params["abilities"], "--abilities")
        mix = _parse_mixture(params["mixture"])
        spec = DifficultySimSpec(beta, mix, params["k"], params["questions"], params["seed"])
        pm = simulate_difficulty(spec)
    write_predictions_csv(params["out"], pm, include_truth=not params["no_truth"])
    click.echo(f"wrote {pm.m} questions x {pm.n} agents (K={pm.k}) to {params['out']}")


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------


@main.command()
@click.option("--input", type=click.Path(dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--method", type=click.Choice(list(METHODS)), default="isp", show_default=True)
@click.option("--tie", type=click.Choice(sorted(_TIE_CHOICES)), default="uniform", show_default=True)
@click.option("--tie-seed", type=int, default=0, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Estimator seed.")
@click.option("--starts", type=click.IntRange(min=1), default=8, show_default=True, help="Fit restarts.")
@click.option("--max-iters", type=click.IntRange(min=1), default=2000, show_default=True)
@click.option("--smoothing", type=click.FloatRange(min=0), default=0.0, show_default=True)
@click.option(
    "--eps",
    type=click.FloatRange(0, 0.5, min_open=True, max_open=True),
    default=DEFAULT_EPS,
    show_default=True,
    help="Accuracy clamp epsilon.",
)
@click.option("--accuracies", default=None, help="True accuracies for --method ow-oracle.")
@click.option("--abilities", default=None, help="Per-agent abilities for --method eow.")
@click.option("--labels", default=None, help="Comma-separated label space override.")
@click.option("--agents", default=None, help="Comma-separated agent subset, in order.")
@click.option("--drop-incomplete", is_flag=True, help="Skip questions with empty cells.")
@click.option("--shuffle-seed", type=int, default=None, help="Shuffle labels per question on ingest.")
@click.option("--summary", type=click.Path(dir_okay=False), default=None)
@click.option("--config", "config_path", type=click.Path(exists=False), default=None)
@click.pass_context
def aggregate(ctx, config_path, **params):
    """Aggregate a predictions CSV into one label per question.

    The truth column, when present, is used only for the accuracy summary,
    never for aggregation.
    """

    params = _apply_config(ctx, config_path, params)
    acc = abil = None
    if params["accuracies"] is not None:
        acc = _check_acc(_parse_numbers(params["accuracies"], "--accuracies"))
    if params["abilities"] is not None:
        abil = _parse_numbers(params["abilities"], "--abilities")

    label_list = params["labels"].split(",") if params["labels"] else None
    agent_list = params["agents"].split(",") if params["agents"] else None
    pm, meta = read_predictions_csv(
        params["input"],
        agents=agent_list,
        labels=label_list,
        drop_incomplete=params["drop_incomplete"],
    )

    work = pm
    smap = None
    if params["shuffle_seed"] is not None:
        work, smap = shuffle_apply(pm.with_truth(None), params["shuffle_seed"])

    result = run_pipeline(
        work,
        params["method"],
        tie=TiePolicy(_TIE_CHOICES[params["tie"]], params["tie_seed"]),
        erm=ErmConfig(
            starts=params["starts"],
            max_iters=params["max_iters"],
            eps=params["eps"],
            seed=params["seed"],
        ),
        accuracies=acc,
        abilities=abil,
        smoothing=params["smoothing"],
    )
    fit = result.fit
    if fit is not None and not fit.converged:
        click.echo(
            f"warning: the accuracy fit did not converge in --max-iters {params['max_iters']}", err=True
        )
    agreeing = None if fit is None else fit.starts_agreeing
    if agreeing is not None and agreeing < params["starts"]:
        click.echo(f"warning: only {agreeing} of {params['starts']} fit starts agree", err=True)
    if result.imputed_cells:
        click.echo(f"warning: {result.imputed_cells} second-order cells were imputed", err=True)

    idx = result.labels
    if smap is not None:
        idx = shuffle_invert(idx, smap)
    write_labels_csv(params["out"], meta["question_ids"], pm.space.labels, codes=idx)
    click.echo(f"wrote {pm.m} aggregated labels to {params['out']}")

    want_summary = pm.truth is not None or params["summary"] is not None
    if want_summary:
        path = params["summary"] or params["out"] + ".summary.json"
        payload = {
            "command": "aggregate",
            "timestamp": _timestamp(),
            "config": {k: params[k] for k in sorted(params)},
            "m": pm.m,
            "n": pm.n,
            "k": pm.k,
            "labels": list(pm.space.labels),
            "agent_names": meta["agent_names"],
            "dropped_questions": meta["dropped"],
            "input_cache": meta["cache"],
            "method": params["method"],
            "fit": _sanitize_fit(result.fit),
            "ties_broken": {"count": result.ties_broken, "fraction": result.ties_broken / pm.m},
        }
        if pm.truth is not None:
            # column by column, no (M, N) temporary; a count / m has the bits of a bool mean
            correct = idx == pm.truth
            disagree = np.zeros(pm.m, dtype=bool)
            for j in range(1, pm.n):
                disagree |= pm.answers[:, j] != pm.answers[:, 0]
            n_dis, n_right = int(np.count_nonzero(disagree)), int(np.count_nonzero(correct & disagree))
            payload["overall_accuracy"] = int(np.count_nonzero(correct)) / pm.m
            payload["disagreement_count"] = n_dis
            payload["disagreement_accuracy"] = n_right / n_dis if n_dis else None
            payload["per_agent_accuracy"] = dict(zip(meta["agent_names"], _hit_rates(pm.answers, pm.truth).tolist()))
        write_json(path, payload)
        click.echo(f"wrote summary to {path}")


def _sanitize_fit(fit) -> dict | None:
    if fit is None:
        return None
    doc = fit.to_dict()
    doc["accuracies"] = [None if not np.isfinite(v) else v for v in doc["accuracies"]]
    total = sum(abs(w) for w in doc["weights"])
    doc["weights_normalized"] = [w / total if total > 0 else 0.0 for w in doc["weights"]]
    return doc


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@main.command()
@click.option(
    "--suite",
    type=click.Choice(("all",) + verify_mod.SUITES),
    default="all",
    show_default=True,
    help="examples: pencil-and-paper fixtures; thm1/thm2: posterior consistency "
    "and gap formulas under independent errors; thm4/thm5: the shared-difficulty "
    "model; props: structural invariants.",
)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True, help="Enumeration cap.")
def verify(suite, seed, budget):
    """Re-derive the package's key claims from scratch and report pass/fail."""

    results = verify_mod.run_suites(suite, seed=seed, budget=budget)
    failed = skipped = 0
    for res in results:
        status = "SKIP" if res.skipped else ("PASS" if res.passed else "FAIL")
        failed += status == "FAIL"
        skipped += status == "SKIP"
        click.echo(f"[{status}] {res.suite}:{res.name}" + (f" ({res.detail})" if res.detail else ""))
    passed = len(results) - failed - skipped
    click.echo(f"{passed}/{len(results)} checks passed" + (f", {skipped} skipped" if skipped else ""))
    if failed:
        sys.exit(5)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@main.command()
@click.option("--table2", is_flag=True, help="Accuracy-by-K table for all rules.")
@click.option("--gap-curve", is_flag=True, help="Rule accuracy gaps versus K.")
@click.option("--out", default="report", show_default=True, help="Output base path.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--questions", "-m", type=click.IntRange(min=1), default=10_000, show_default=True)
@click.option("--replications", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--k-values", default=",".join(map(str, DEFAULT_KS)), show_default=True)
@click.option("--accuracies", default=",".join(map(str, DEFAULT_ACCURACIES)), show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=False), default=None)
@click.pass_context
def report(ctx, config_path, **params):
    """Reproduce a standard experiment and write .txt/.csv/.json artifacts."""

    params = _apply_config(ctx, config_path, params)
    if params["table2"] == params["gap_curve"]:
        raise click.UsageError("choose exactly one of --table2 or --gap-curve")
    ks = _parse_numbers(params["k_values"], "--k-values", int)
    acc = _parse_numbers(params["accuracies"], "--accuracies")
    seed, m = params["seed"], params["questions"]
    if params["table2"]:
        table = run_accuracy_table(seed, m, ks, acc)
    else:
        curve = run_gap_curve(seed, m, ks, acc, params["replications"])

    base = params["out"]
    resolved = {k: params[k] for k in sorted(params)}
    if params["table2"]:
        kind, rows = "accuracy_table", table.to_rows()
        csv_lines = ["k," + ",".join(table.methods)] + [
            ",".join([str(k)] + [f"{v:.4f}" for v in row])
            for k, row in zip(table.ks, table.values)
        ]
        text = "config: " + json.dumps(resolved, sort_keys=True) + "\n\n" + table.to_text()
        atomic_write_text(base + ".txt", text)
    else:
        kind, rows = "gap_curve", curve.to_rows()
        csv_lines = ["k,gap_isp_mv,gap_mv_sp,stderr"] + [
            f"{r['k']},{r['gap_isp_mv']:.6f},{r['gap_mv_sp']:.6f},{r['stderr']:.6f}" for r in rows
        ]
    atomic_write_text(base + ".csv", "\n".join(csv_lines) + "\n")
    payload = {"command": "report", "kind": kind, "timestamp": _timestamp(), "config": resolved, "rows": rows}
    write_json(base + ".json", payload)
    click.echo(f"wrote report to {base}.csv / {base}.json" + (f" / {base}.txt" if params["table2"] else ""))


def run() -> None:
    """``main`` as a program: ``gc.freeze`` at the end spares shutdown collecting what the OS frees."""

    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
