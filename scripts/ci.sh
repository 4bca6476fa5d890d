#!/usr/bin/env bash
# The checks CI runs, runnable from the root of a checkout:
#   bash scripts/ci.sh
# Tier-1 tests, the benchmark harness's own tests, every verification suite,
# every suite again under --budget 50 (the checks whose shapes have more than
# 50 answer vectors print [SKIP], and the run still prints all 52 check lines
# and exits 0), a check that the uniform tie-break gives the same labels twice, a check that
# isp is at least as accurate as mv on a K=50 panel (narrow answer codes that
# overflowed would break it) and that each summary counts its tie-broken
# labels, a check that plain, quoted, CRLF and late-quote copies of one panel,
# and the plain and late-quote ones read from a pipe, give the same isp labels
# (the byte tokenizer reads the plain and CRLF copies and the plain pipe;
# csv.reader reads the quoted copy, and reads on in the same pass from the
# late quote, where the byte tokenizer hands over), a check that a
# QUOTE_ALL panel whose ids need quoting gets the labels CSV csv.writer writes,
# a check that a bad flag or config value, or an --out in a directory that does
# not exist, exits 2 and a deeply nested config exits 3, each without a
# traceback and with an error that names what was wrong, a check
# that a malformed row deep in a file exits 3 and names its line, and a check that a byte that is not UTF-8 or an over-long field deep in
# a file, or a config file that is not UTF-8, exits 3 without a traceback, and a
# check that ow-l on a 20,000 x 60 panel gives the same labels with the one
# BLAS thread quorum loads numpy with as with OPENBLAS_NUM_THREADS=2, and fits
# without a warning: converged, all 8 starts agreeing, a check that the parse
# cache gives a second run, and a run after its entry was damaged, the labels of the first, and a check that
# under umask 022 the files aggregate and simulate write are mode 644 while the
# parse-cache entry stays 600, and a check that the panels simulate writes for
# the ci and the difficulty model, with and without truth, are what csv.writer
# writes for the same simulated matrices, a check that simulate's own peak
# RSS on a 1M x 4, K=4 panel stays at or below 47 MB (43.2-43.6 MB measured,
# plus 4 MB, rounded down: the simulators draw a block of questions at a time
# and keep the truth in the answers' one-byte code dtype, and the writer makes
# each block's ids "0".."M-1" only as it writes that block), a check that
# aggregate --method isp's own peak RSS on that
# panel stays at or below 61 MB with the parse cache off (55.9-58.3 MB
# measured: the duplicate-id check keys one group of ids a block at a time)
# and at or below 59 MB on a cache hit (55.3 MB measured, plus 4 MB, rounded
# down; a hit loads a parse whose ids were checked distinct when it was
# stored, and skips that check), with the same labels both ways, a check that
# aggregate --method mv on that panel with its ids replaced by 36-byte UUIDs
# peaks at or below 131 MB of its own RSS with the parse cache off (127.8-127.9 MB
# measured, plus 4 MB, rounded down: the ids' bytes, and the duplicate-id
# check's five words and order an id, are most of it) and gives the labels
# the panel with short ids gets, and a check that
# the own peak RSS of verify --suite all and of report --table2 -m 25000 each
# stays within 3.5 MB of a bare import of the CLI and numpy.random (every
# kernel holds one block of scratch). Last, it prints the source lines of each
# module of the package and their total; that step reports and gates nothing.
#
# Every step runs, even after one fails; each step stops at its own first
# failing command. The script lists the failed steps at the end and then exits
# non-zero if there were any.
set -uo pipefail

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
tmp="$(mktemp -d "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/quorum-ci.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
export XDG_CACHE_HOME="$tmp/xdg-cache"  # the parse cache stays out of the user's ~/.cache
failed=()

# step TITLE FUNCTION: run FUNCTION in a subshell that exits at its first failing command
step() {
  echo "== $1"
  (set -euo pipefail; "$2")
  local status=$?
  if [ "$status" -ne 0 ]; then
    echo "!! failed with exit status $status: $1"
    failed+=("$1")
  fi
}

tier1_tests() {
  python -m pytest -q --continue-on-collection-errors
}

harness_tests() {
  python -m pytest -q perfbench
}

verification_suites() {
  python -m quorum.cli verify --suite all
}

verification_suites_small_budget() {
  status=0
  python -m quorum.cli verify --suite all --budget 50 > "$tmp/verify-50.txt" 2>&1 || status=$?
  cat "$tmp/verify-50.txt"
  test "$status" -eq 0
  test "$(grep -c '^\[' "$tmp/verify-50.txt")" -eq 52
  test "$(grep -c '^\[SKIP\]' "$tmp/verify-50.txt")" -ge 3
  if grep -qE 'Traceback|error:' "$tmp/verify-50.txt"; then exit 1; fi
}

tie_break_reproducible() {
  python -m quorum simulate --accuracies 0.6,0.7,0.8,0.9 --k 4 -m 20000 --seed 0 --out "$tmp/panel.csv"
  python -m quorum aggregate --input "$tmp/panel.csv" --out "$tmp/a.csv" --method mv --tie uniform
  python -m quorum aggregate --input "$tmp/panel.csv" --out "$tmp/b.csv" --method mv --tie uniform
  cmp "$tmp/a.csv" "$tmp/b.csv"
}

isp_beats_mv_at_k50() {
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
}

copies_agree() {
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
rows[-1][-1] = f'"{rows[-1][-1]}"'  # the last row's last cell, quoted
with open(f"{sys.argv[1]}/late-quote.csv", "w", newline="") as fh:
    fh.write("".join(",".join(row) + "\n" for row in rows))
EOF
  for copy in plain quoted crlf late-quote; do
    python -m quorum aggregate --input "$tmp/$copy.csv" --out "$tmp/$copy-isp.csv" --method isp
  done
  cat "$tmp/plain.csv" | python -m quorum aggregate --input /dev/stdin --out "$tmp/pipe-isp.csv" --method isp
  cat "$tmp/late-quote.csv" | python -m quorum aggregate --input /dev/stdin --out "$tmp/late-quote-pipe-isp.csv" --method isp
  for copy in quoted crlf pipe late-quote late-quote-pipe; do
    cmp "$tmp/plain-isp.csv" "$tmp/$copy-isp.csv"
  done
}

quoted_ids_written_as_csv_writer_does() {
  # the ids get a comma, a quote, a line break or outer spaces; the labels
  # come from the plain panel, whose aggregation the ids cannot change
  python - "$tmp" <<'EOF'
import csv
import sys

with open(f"{sys.argv[1]}/panel.csv", newline="") as fh:
    rows = list(csv.reader(fh))
marks = [",", '"', "\n", "\r\n", " "]
for i, row in enumerate(rows[1:]):
    row[0] = f"{marks[i % len(marks)]}{row[0]}é{marks[i % len(marks)]}"
with open(f"{sys.argv[1]}/quoted-ids.csv", "w", newline="") as fh:
    csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
EOF
  python -m quorum aggregate --input "$tmp/quoted-ids.csv" --out "$tmp/quoted-ids-isp.csv" --method isp
  python - "$tmp" <<'EOF'
import csv
import sys

tmp = sys.argv[1]
with open(f"{tmp}/quoted-ids.csv", newline="") as fh:
    ids = [row[0] for row in csv.reader(fh)][1:]
with open(f"{tmp}/plain-isp.csv", newline="") as fh:
    labels = [row[1] for row in csv.reader(fh)][1:]
with open(f"{tmp}/expected-ids-isp.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["question_id", "label"])
    writer.writerows(zip(ids, labels))
EOF
  cmp "$tmp/quoted-ids-isp.csv" "$tmp/expected-ids-isp.csv"
}

bad_flags_exit_2() {
  echo '{"drop_incomplete": "maybe"}' > "$tmp/bad.json"
  python -c 'print("[" * 100000 + "]" * 100000)' > "$tmp/deep.json"
  # each case: the exit status, the extra flag, and text its error names
  for case in "2|--starts=0|--starts" "2|--config=$tmp/bad.json|--drop-incomplete" \
    "2|--out=$tmp/nodir/l.csv|nodir/l.csv" "3|--config=$tmp/deep.json|deep.json: invalid JSON"; do
    IFS='|' read -r code extra named <<< "$case"
    status=0
    python -m quorum aggregate --input "$tmp/panel.csv" --out "$tmp/d.csv" --method ow-l "$extra" \
      2> "$tmp/err.txt" || status=$?
    cat "$tmp/err.txt"
    test "$status" -eq "$code"
    grep -qF -- "$named" "$tmp/err.txt"
    if grep -q Traceback "$tmp/err.txt"; then exit 1; fi
  done
}

short_row_exits_3() {
  cp "$tmp/panel.csv" "$tmp/short-row.csv"
  echo "q_bad,A" >> "$tmp/short-row.csv"
  status=0
  python -m quorum aggregate --input "$tmp/short-row.csv" --out "$tmp/c.csv" --method mv \
    2> "$tmp/err.txt" || status=$?
  cat "$tmp/err.txt"
  test "$status" -eq 3
  grep -q "short-row.csv:20002" "$tmp/err.txt"
  if grep -q Traceback "$tmp/err.txt"; then exit 1; fi
}

hostile_bytes_exit_3() {
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
}

owl_two_blas_threads() {
  accuracies="$(python -c 'import numpy as np; print(",".join(f"{v:.4f}" for v in np.linspace(0.51, 0.65, 60)))')"
  python -m quorum simulate --accuracies "$accuracies" --k 2 -m 20000 --seed 0 --out "$tmp/wide.csv"
  python -m quorum aggregate --input "$tmp/wide.csv" --out "$tmp/wide-owl.csv" --method ow-l \
    2> "$tmp/err.txt"
  OPENBLAS_NUM_THREADS=2 python -m quorum aggregate --input "$tmp/wide.csv" --out "$tmp/wide-owl-2.csv" \
    --method ow-l 2>> "$tmp/err.txt"
  cat "$tmp/err.txt"
  cmp "$tmp/wide-owl.csv" "$tmp/wide-owl-2.csv"
  if grep -q warning "$tmp/err.txt"; then exit 1; fi
  python - "$tmp" <<'EOF'
import json
import sys

for name in ("wide-owl", "wide-owl-2"):
    with open(f"{sys.argv[1]}/{name}.csv.summary.json") as fh:
        fit = json.load(fh)["fit"]
    print(name, "converged", fit["converged"], "starts_agreeing", fit["starts_agreeing"])
    assert fit["converged"] is True and fit["starts_agreeing"] == 8, fit
EOF
}

input_cache() {
  python -c 'import json, sys; print(json.load(open(sys.argv[1]))["input_cache"])' "$1"
}

parse_cache_reads_like_a_parse() {
  export XDG_CACHE_HOME="$tmp/parse-cache"
  python -m quorum simulate --accuracies 0.6,0.7,0.8,0.9 --k 4 -m 80000 --seed 1 --out "$tmp/large.csv"
  test "$(wc -c < "$tmp/large.csv")" -gt 1048576
  sleep 2  # a file changed less than 2 s ago is read but not stored
  for run in 1 2; do
    python -m quorum aggregate --input "$tmp/large.csv" --out "$tmp/large-$run.csv" --method isp
  done
  cmp "$tmp/large-1.csv" "$tmp/large-2.csv"
  test "$(input_cache "$tmp/large-1.csv.summary.json")" = stored
  test "$(input_cache "$tmp/large-2.csv.summary.json")" = hit
  entries=("$XDG_CACHE_HOME"/quorum/*)
  test "${#entries[@]}" -eq 1
  python - "${entries[0]}" <<'EOF'
import sys

with open(sys.argv[1], "r+b") as fh:
    fh.seek(-4096, 2)
    byte = fh.read(1)[0]
    fh.seek(-4096, 2)
    fh.write(bytes([byte ^ 0xFF]))
EOF
  python -m quorum aggregate --input "$tmp/large.csv" --out "$tmp/large-3.csv" --method isp
  cmp "$tmp/large-1.csv" "$tmp/large-3.csv"
  test "$(input_cache "$tmp/large-3.csv.summary.json")" = stored
}

mode() {
  python -c 'import os, stat, sys; print(format(stat.S_IMODE(os.stat(sys.argv[1]).st_mode), "o"))' "$1"
}

output_modes_follow_the_umask() {
  export XDG_CACHE_HOME="$tmp/mode-cache"
  umask 022
  python -m quorum simulate --accuracies 0.6,0.7,0.8,0.9 --k 4 -m 80000 --seed 2 --out "$tmp/modes.csv"
  sleep 2  # a file changed less than 2 s ago is read but not stored
  python -m quorum aggregate --input "$tmp/modes.csv" --out "$tmp/modes-mv.csv" --method mv
  for file in modes.csv modes-mv.csv modes-mv.csv.summary.json; do
    echo "$file $(mode "$tmp/$file")"
    test "$(mode "$tmp/$file")" = 644
  done
  entries=("$XDG_CACHE_HOME"/quorum/*.table)
  test "${#entries[@]}" -eq 1
  echo "cache entry $(mode "${entries[0]}")"
  test "$(mode "${entries[0]}")" = 600
}

simulate_written_as_csv_writer_does() {
  for truth in "" --no-truth; do
    python -m quorum simulate --accuracies 0.6,0.7,0.8 --k 3 -m 40000 --seed 3 \
      --out "$tmp/sim-ci.csv" $truth
    python -m quorum simulate --model difficulty --abilities 0.5,1,2 --mixture 1:0.5,4:0.5 --k 30 \
      -m 40000 --seed 4 --out "$tmp/sim-difficulty.csv" $truth
    python - "$tmp" "$truth" <<'EOF'
import csv
import sys

from quorum import CiSimSpec, DifficultyMixture, DifficultySimSpec, simulate_ci, simulate_difficulty

tmp, truth = sys.argv[1], sys.argv[2] != "--no-truth"
mixture = DifficultyMixture.atoms([(1.0, 0.5), (4.0, 0.5)])
for name, pm in [
    ("ci", simulate_ci(CiSimSpec((0.6, 0.7, 0.8), 3, 40000, 3))),
    ("difficulty", simulate_difficulty(DifficultySimSpec((0.5, 1.0, 2.0), mixture, 30, 40000, 4))),
]:
    with open(f"{tmp}/expected-{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["question_id"] + [f"agent_{j + 1}" for j in range(pm.n)] + ["truth"] * truth)
        for q in range(pm.m):
            cells = list(pm.answers[q]) + [pm.truth[q]] * truth
            writer.writerow([str(q)] + [pm.space.labels[c] for c in cells])
EOF
    cmp "$tmp/sim-ci.csv" "$tmp/expected-ci.csv"
    cmp "$tmp/sim-difficulty.csv" "$tmp/expected-difficulty.csv"
  done
}

simulate_memory_is_bounded() {
  # the child's own peak: os.wait4 from a small parent, not the parent's RSS at fork
  python - "$tmp" <<'EOF'
import os
import sys

argv = [sys.executable, "-m", "quorum", "simulate", "--accuracies", "0.6,0.7,0.8,0.9", "--k", "4",
        "-m", "1000000", "--seed", "0", "--out", f"{sys.argv[1]}/million.csv"]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
peak_mb = usage.ru_maxrss / 1024
print(f"simulate 1M x 4: exit status {status}, peak RSS {peak_mb:.1f} MB")
assert status == 0 and peak_mb <= 47, peak_mb
EOF
}

# aggregate_peak NAME METHOD CACHE BOUND: aggregate --method METHOD on the
# panel NAME.csv, its labels to NAME-METHOD-CACHE.csv, reads the parse cache as
# CACHE and peaks at or below BOUND MB of its own RSS
aggregate_peak() {
  python - "$tmp" "$@" <<'EOF'
import os
import sys

tmp, name, method, cache, bound = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], float(sys.argv[5])
argv = [sys.executable, "-m", "quorum", "aggregate", "--input", f"{tmp}/{name}.csv",
        "--out", f"{tmp}/{name}-{method}-{cache}.csv", "--method", method]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
peak_mb = usage.ru_maxrss / 1024
print(f"aggregate --method {method} on {name}.csv, parse cache {cache}: exit status {status}, peak RSS {peak_mb:.1f} MB")
assert status == 0 and peak_mb <= bound, peak_mb
EOF
  test "$(input_cache "$tmp/$1-$2-$3.csv.summary.json")" = "$3"
}

aggregate_memory_is_bounded() {
  # the parse cache is off: it refuses a cache directory that others may write
  mkdir -p "$tmp/shared-cache/quorum"
  chmod 775 "$tmp/shared-cache/quorum"
  XDG_CACHE_HOME="$tmp/shared-cache" aggregate_peak million isp off 61
  # in a private cache, one run stores the parse and the next hits it
  export XDG_CACHE_HOME="$tmp/million-cache"
  sleep 2  # a file changed less than 2 s ago is read but not stored
  python -m quorum aggregate --input "$tmp/million.csv" --out "$tmp/million-isp-stored.csv" --method isp
  test "$(input_cache "$tmp/million-isp-stored.csv.summary.json")" = stored
  aggregate_peak million isp hit 59
  cmp "$tmp/million-isp-off.csv" "$tmp/million-isp-hit.csv"
}

uuid_ids_memory_is_bounded() {
  # the 1M x 4 panel with each id replaced by a 36-byte UUID, which the
  # duplicate-id check keys by five words
  python - "$tmp" <<'EOF'
import random
import sys
import uuid

rng = random.Random(0)
with open(f"{sys.argv[1]}/million.csv", newline="") as src, open(f"{sys.argv[1]}/million-uuid.csv", "w", newline="") as dst:
    dst.write(next(src))
    for line in src:
        dst.write(str(uuid.UUID(int=rng.getrandbits(128))) + line[line.index(",") :])
EOF
  mkdir -p "$tmp/shared-cache/quorum"
  chmod 775 "$tmp/shared-cache/quorum"
  export XDG_CACHE_HOME="$tmp/shared-cache"
  aggregate_peak million-uuid mv off 131
  python -m quorum aggregate --input "$tmp/million.csv" --out "$tmp/million-mv-off.csv" --method mv
  cmp <(cut -d, -f2 "$tmp/million-mv-off.csv") <(cut -d, -f2 "$tmp/million-uuid-mv-off.csv")
}

oracle_memory_is_bounded() {
  # each child's own peak, from os.wait4 in a small parent, above the median of
  # three bare children that import what both commands load; output goes to /dev/null
  python - "$tmp" <<'EOF'
import os
import sys


def peak_mb(args):
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    assert status == 0, (args, status)
    return usage.ru_maxrss / 1024


bare = sorted(peak_mb(["-c", "import quorum.cli, numpy.random"]) for _ in range(3))[1]
for name, args in [
    ("verify --suite all", ["-m", "quorum", "verify", "--suite", "all"]),
    ("report --table2 -m 25000", ["-m", "quorum", "report", "--table2", "-m", "25000", "--out", f"{sys.argv[1]}/t2"]),
]:
    mb = peak_mb(args)
    print(f"{name}: peak RSS {mb:.1f} MB, {mb - bare:.1f} MB above a bare import's {bare:.1f} MB")
    assert mb - bare <= 3.5, (name, mb, bare)
EOF
}

source_lines() {
  wc -l src/quorum/*.py
}

step "tier-1 tests" tier1_tests
step "benchmark harness tests" harness_tests
step "verification suites" verification_suites
step "every verification suite under --budget 50 exits 0, skipping what the budget drops" verification_suites_small_budget
step "uniform tie-break is reproducible" tie_break_reproducible
step "at K=50, isp is at least as accurate as mv, and summaries count ties" isp_beats_mv_at_k50
step "plain, quoted, CRLF and late-quote copies of a panel, from a file and a pipe, give the same isp labels" copies_agree
step "ids that need quoting are written as csv.writer writes them" quoted_ids_written_as_csv_writer_does
step "a bad flag, config value or output directory exits 2, a deeply nested config 3, without a traceback" bad_flags_exit_2
step "a short row past the first ingest block exits 3 with its line" short_row_exits_3
step "a byte that is not UTF-8 or an over-long field deep in a CSV, or a config that is not UTF-8, exits 3 without a traceback" hostile_bytes_exit_3
step "ow-l on a 20,000 x 60, K=2 panel: the same labels with quorum's one BLAS thread as with OPENBLAS_NUM_THREADS=2, a converged fit whose 8 starts agree, and no warning" owl_two_blas_threads
step "the parse cache: a second run hits it, a damaged entry is parsed again, and all three give the same labels" parse_cache_reads_like_a_parse
step "under umask 022, aggregate and simulate outputs are mode 644 and the parse-cache entry 600" output_modes_follow_the_umask
step "simulated panels, with and without truth, are what csv.writer writes" simulate_written_as_csv_writer_does
step "simulate at 1M x 4, K=4 peaks at or below 47 MB of its own RSS" simulate_memory_is_bounded
step "aggregate --method isp on that panel peaks at or below 61 MB of its own RSS with the parse cache off, 59 MB on a hit" aggregate_memory_is_bounded
step "aggregate --method mv on that panel with 36-byte UUID ids peaks at or below 131 MB of its own RSS with the parse cache off, and labels it as with short ids" uuid_ids_memory_is_bounded
step "verify --suite all and report --table2 -m 25000 peak within 3.5 MB of a bare import's RSS" oracle_memory_is_bounded
step "source lines per module (reported, not gated)" source_lines

if [ "${#failed[@]}" -ne 0 ]; then
  echo "== ${#failed[@]} step(s) failed:"
  printf '   %s\n' "${failed[@]}"
  exit 1
fi
echo "== all checks passed"
