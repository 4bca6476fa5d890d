#!/usr/bin/env bash
# The checks CI runs, runnable from the root of a checkout:
#   bash scripts/ci.sh
# Tier-1 tests, the benchmark harness's own tests, every verification suite,
# and a check that the uniform tie-break gives the same labels twice.
set -euo pipefail

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
tmp="$(mktemp -d "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/quorum-ci.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

echo "== tier-1 tests"
python -m pytest -q --continue-on-collection-errors

echo "== benchmark harness tests"
python -m pytest -q perfbench

echo "== verification suites"
python -m quorum.cli verify --suite all

echo "== uniform tie-break is reproducible"
python -m quorum simulate --accuracies 0.6,0.7,0.8,0.9 --k 4 -m 20000 --seed 0 --out "$tmp/panel.csv"
python -m quorum aggregate --input "$tmp/panel.csv" --out "$tmp/a.csv" --method mv --tie uniform
python -m quorum aggregate --input "$tmp/panel.csv" --out "$tmp/b.csv" --method mv --tie uniform
cmp "$tmp/a.csv" "$tmp/b.csv"
echo "== all checks passed"
