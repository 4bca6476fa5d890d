"""Golden outputs: what the CLI writes for a fixed set of panels, methods,
tie modes and seeds, recorded in ``golden.json`` beside this file, so that
``test_golden.py`` fails, naming each case, when a change moves an output.

Each case records the SHA-256 of the bytes a command writes (never of an
in-memory array, whose dtype is not part of the output):

- ``simulate/<panel>/seed<s>``: the predictions CSV ``quorum simulate`` writes;
- ``aggregate/<panel>/seed<s>/<method>/<tie>``: the labels CSV ``quorum
  aggregate`` writes, and from its summary the tie-broken count, the overall
  accuracy against the truth column and the fit's accuracies (compared to
  1e-9). Seed 1's runs also shuffle the labels on ingest (``--shuffle-seed``),
  so their labels come back through ``shuffle_invert``;
- ``verify/seed<s>``: the stdout of ``quorum verify --suite all``, at seeds 0 to 3;
- ``report/table2`` and ``report/gap-curve``: the CSV of ``quorum report
  --table2`` and of ``quorum report --gap-curve`` (two replications), and each
  one's JSON ``rows``.

The file also records the numpy version it was made under. Labels are integer
decisions behind a tie tolerance, so another numpy should give the same bytes;
if it does not, that is a finding to look into, not a case to skip.

Regenerate the file, from the root of a checkout, only for a change meant to
move an output (and say which case moved and why):

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from quorum.cli import main
from quorum.estimate import METHODS

GOLDEN = Path(__file__).with_name("golden.json")

# The benchmark's tall, wide and many-labels panels, reduced: (M, accuracies, K).
PANELS = {
    "tall": (20_000, (0.55, 0.70, 0.80, 0.90), 4),
    "wide": (2_000, tuple(np.linspace(0.51, 0.65, 100).tolist()), 2),
    "many-labels": (5_000, tuple(np.linspace(0.30, 0.75, 10).tolist()), 50),
}
SEEDS = (0, 1)
VERIFY_SEEDS = (0, 1, 2, 3)
TIES = ("lowest", "uniform")
SHUFFLE_SEED = 11  # seed 1's aggregate runs shuffle labels on ingest
REPORT_QUESTIONS = 5_000
GAP_REPLICATIONS = 2


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _numbers(values) -> str:
    return ",".join(map(repr, values))


def _cli(*args) -> str:
    """The stdout of one in-process ``quorum`` command, which must exit 0."""

    result = CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)
    if result.exit_code != 0:
        raise AssertionError(f"quorum {' '.join(map(str, args))} exited {result.exit_code}: {result.output}")
    return result.stdout


def _aggregate(panel: Path, out: Path, method: str, tie: str, seed: int, accuracies) -> dict:
    extra = {"ow-oracle": ["--accuracies", _numbers(accuracies)],
             "eow": ["--abilities", _numbers(np.linspace(0.5, 2.0, len(accuracies)).tolist())]}
    shuffle = ["--shuffle-seed", SHUFFLE_SEED] if seed == 1 else []
    _cli("aggregate", "--input", panel, "--out", out, "--method", method, "--tie", tie,
         *extra.get(method, []), *shuffle)
    summary = json.loads(Path(f"{out}.summary.json").read_text())
    fit = summary["fit"]
    return {
        "labels_sha256": _sha256(out.read_bytes()),
        "ties_broken": summary["ties_broken"]["count"],
        "overall_accuracy": summary["overall_accuracy"],
        "accuracies": None if fit is None else [None if v is None else round(v, 12) for v in fit["accuracies"]],
    }


def outputs(tmp: Path) -> dict[str, dict]:
    """Every golden case, computed now, with its files written under ``tmp``."""

    cases = {}
    for name, (m, accuracies, k) in PANELS.items():
        for seed in SEEDS:
            panel = tmp / f"{name}-{seed}.csv"
            _cli("simulate", "--accuracies", _numbers(accuracies), "--k", k, "-m", m, "--seed", seed, "--out", panel)
            cases[f"simulate/{name}/seed{seed}"] = {"csv_sha256": _sha256(panel.read_bytes())}
            for method in METHODS:
                for tie in TIES:
                    out = tmp / f"{name}-{seed}-{method}-{tie}.csv"
                    cases[f"aggregate/{name}/seed{seed}/{method}/{tie}"] = _aggregate(
                        panel, out, method, tie, seed, accuracies
                    )
    for seed in VERIFY_SEEDS:
        stdout = _cli("verify", "--suite", "all", "--seed", seed)
        cases[f"verify/seed{seed}"] = {"stdout_sha256": _sha256(stdout.encode())}
    for name, extra in [("table2", []), ("gap-curve", ["--replications", GAP_REPLICATIONS])]:
        base = tmp / name
        _cli("report", f"--{name}", "-m", REPORT_QUESTIONS, *extra, "--out", base)
        rows = json.loads(Path(f"{base}.json").read_text())["rows"]
        cases[f"report/{name}"] = {
            "csv_sha256": _sha256(Path(f"{base}.csv").read_bytes()),
            "rows_sha256": _sha256(json.dumps(rows, sort_keys=True).encode()),
        }
    return cases


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["XDG_CACHE_HOME"] = str(Path(tmp) / "xdg-cache")  # the parse cache stays out of ~/.cache
        cases = outputs(Path(tmp))
    lines = [f"  {json.dumps(name)}: {json.dumps(cases[name], sort_keys=True)}" for name in sorted(cases)]
    GOLDEN.write_text(f'{{\n "numpy": "{np.__version__}",\n "cases": {{\n' + ",\n".join(lines) + "\n }\n}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
