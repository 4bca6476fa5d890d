#!/usr/bin/env bash
# The checks CI runs, runnable from the root of a checkout:
#   bash scripts/ci.sh
# Tier-1 tests, the benchmark harness's own tests, every verification suite,
# a check that the uniform tie-break gives the same labels twice, a check that
# isp is at least as accurate as mv on a K=50 panel (narrow answer codes that
# overflowed would break it) and that each summary counts its tie-broken
# labels, a check that plain, quoted and CRLF copies of one panel give the same
# isp labels (the byte tokenizer reads the first, csv.reader the others), a
# check that a bad flag or config value exits 2 without a traceback, a check
# that a malformed row deep in a file exits 3 and names its line, and a check
# that a byte that is not UTF-8 or an over-long field deep in a file, or a
# config file that is not UTF-8, exits 3 without a traceback, and a check that
# ow-l on a 20,000 x 60 panel gives the same labels with one BLAS thread as
# with the default, and fits without a warning: converged, all 8 starts agreeing.
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

echo "== at K=50, isp is at least as accurate as mv, and summaries count ties"
python -m quorum simulate --accuracies 0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.75 --k 50 \
  -m 20000 --seed 0 --out "$tmp/k50.csv"
for method in mv isp ow-i; do
  python -m quorum aggregate --input "$tmp/k50.csv" --out "$tmp/k50-$method.csv" --method "$method"
done
python - "$tmp" <<'EOF'
import json
import sys

acc = {}
for method in ("mv", "isp", "ow-i"):
    with open(f"{sys.argv[1]}/k50-{method}.csv.summary.json") as fh:
        summary = json.load(fh)
    ties = summary["ties_broken"]["count"]
    assert isinstance(ties, int) and ties >= 0, (method, ties)
    acc[method] = summary["overall_accuracy"]
    print(method, acc[method], "ties_broken", ties)
assert acc["isp"] >= acc["mv"], acc
EOF

echo "== plain, quoted and CRLF copies of a panel give the same isp labels"
python - "$tmp" <<'EOF'
import csv
import sys

with open(f"{sys.argv[1]}/panel.csv", newline="") as fh:
    rows = list(csv.reader(fh))
for name, options in [
    ("plain", {"lineterminator": "\n"}),
    ("quoted", {"lineterminator": "\n", "quoting": csv.QUOTE_ALL}),
    ("crlf", {"lineterminator": "\r\n"}),
]:
    with open(f"{sys.argv[1]}/{name}.csv", "w", newline="") as fh:
        csv.writer(fh, **options).writerows(rows)
EOF
for copy in plain quoted crlf; do
  python -m quorum aggregate --input "$tmp/$copy.csv" --out "$tmp/$copy-isp.csv" --method isp
done
cmp "$tmp/plain-isp.csv" "$tmp/quoted-isp.csv"
cmp "$tmp/plain-isp.csv" "$tmp/crlf-isp.csv"

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

echo "== a byte that is not UTF-8 or an over-long field deep in a CSV, or a config"
echo "   that is not UTF-8, exits 3 without a traceback"
python - "$tmp" <<'EOF'
import sys

with open(f"{sys.argv[1]}/plain.csv", "rb") as fh:
    lines = fh.read().split(b"\n")
rest = lines[15001][lines[15001].index(b",") :]
for name, qid in [("not-utf8", b"q\xff"), ("long-field", b"q" * 200_000)]:
    with open(f"{sys.argv[1]}/{name}.csv", "wb") as fh:
        fh.write(b"\n".join(lines[:15001] + [qid + rest] + lines[15002:]))
with open(f"{sys.argv[1]}/not-utf8.json", "wb") as fh:
    fh.write(b'{"method": "mv\xff"}')
EOF
for named in "not-utf8.csv:15002:" "long-field.csv:15002:" "not-utf8.json:"; do
  file="${named%%:*}"
  if [ "${file##*.}" = csv ]; then
    inputs=(--input "$tmp/$file")
  else
    inputs=(--input "$tmp/plain.csv" --config "$tmp/$file")
  fi
  status=0
  python -m quorum aggregate "${inputs[@]}" --out "$tmp/h.csv" --method mv \
    2> "$tmp/err.txt" || status=$?
  cat "$tmp/err.txt"
  test "$status" -eq 3
  grep -qF "$named" "$tmp/err.txt"
  if grep -q Traceback "$tmp/err.txt"; then exit 1; fi
done
echo "== ow-l on a 20,000 x 60, K=2 panel: the same labels with one BLAS thread,"
echo "   a converged fit whose 8 starts agree, and no warning"
accuracies="$(python -c 'import numpy as np; print(",".join(f"{v:.4f}" for v in np.linspace(0.51, 0.65, 60)))')"
python -m quorum simulate --accuracies "$accuracies" --k 2 -m 20000 --seed 0 --out "$tmp/wide.csv"
python -m quorum aggregate --input "$tmp/wide.csv" --out "$tmp/wide-owl.csv" --method ow-l \
  2> "$tmp/err.txt"
OPENBLAS_NUM_THREADS=1 python -m quorum aggregate --input "$tmp/wide.csv" --out "$tmp/wide-owl-1.csv" \
  --method ow-l 2>> "$tmp/err.txt"
cat "$tmp/err.txt"
cmp "$tmp/wide-owl.csv" "$tmp/wide-owl-1.csv"
if grep -q warning "$tmp/err.txt"; then exit 1; fi
python - "$tmp" <<'EOF'
import json
import sys

for name in ("wide-owl", "wide-owl-1"):
    with open(f"{sys.argv[1]}/{name}.csv.summary.json") as fh:
        fit = json.load(fh)["fit"]
    print(name, "converged", fit["converged"], "starts_agreeing", fit["starts_agreeing"])
    assert fit["converged"] is True and fit["starts_agreeing"] == 8, fit
EOF
echo "== all checks passed"
