#!/usr/bin/env bash
# The checks CI runs, runnable from the root of a checkout:
#   bash scripts/ci.sh
# Tier-1 tests, the benchmark harness's own tests, every verification suite,
# a check that the uniform tie-break gives the same labels twice, a check that
# a bad flag or config value exits 2 without a traceback, and a check that a
# malformed row deep in a file exits 3 and names its line.
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

echo "== a bad flag or config value exits 2 without a traceback"
echo '{"drop_incomplete": "maybe"}' > "$tmp/bad.json"
for extra in "--starts=0" "--config=$tmp/bad.json"; do
  status=0
  python -m quorum aggregate --input "$tmp/panel.csv" --out "$tmp/d.csv" --method ow-l "$extra" \
    2> "$tmp/err.txt" || status=$?
  cat "$tmp/err.txt"
  test "$status" -eq 2
  if grep -q Traceback "$tmp/err.txt"; then exit 1; fi
done

echo "== a short row past the first ingest block exits 3 with its line"
echo "q_bad,A" >> "$tmp/panel.csv"
status=0
python -m quorum aggregate --input "$tmp/panel.csv" --out "$tmp/c.csv" --method mv \
  2> "$tmp/err.txt" || status=$?
cat "$tmp/err.txt"
test "$status" -eq 3
grep -q "panel.csv:20002" "$tmp/err.txt"
if grep -q Traceback "$tmp/err.txt"; then exit 1; fi
echo "== all checks passed"
