#!/usr/bin/env bash
# Repository gate: formatting, lints, the full test suite, and a smoke run of
# the machine-readable performance benchmark (see EXPERIMENTS.md
# "Performance"). Everything here must pass before a change lands.
#
# Gate ordering (cheapest refusal first — DESIGN.md 4.15):
#   1. cargo fmt        — pure text, no build.
#   2. memres-lint      — debug build of one dep-free crate; refuses what
#                         only a tokenizer can read (R5 event-past, R6
#                         time-units, R7 float-order, and the cross-file
#                         cell-smoke rule) before the far costlier
#                         clippy/test/bench stages spin up.
#   3. file sizes       — no file under any crates/*/src over 1,500 lines, so
#                         neither the engine (world.rs was 4,606; DESIGN.md
#                         3.1) nor a substrate (net/flow.rs was 1,935; 4.3)
#                         can quietly grow back into one file; prints the
#                         code-line count for the record.
#   4. cargo clippy     — full workspace, all targets; refuses R1 hash
#                         order, R2 wall clock and R3 host I/O (the lists in
#                         clippy.toml, denied by [workspace.lints]), R4 bare
#                         panics in the guarded files (#![deny] at their
#                         top), a waiver without a reason or without a
#                         target (#[expect]), and a catch-all arm in the
#                         event dispatch or a trace exporter (#[deny] on
#                         those matches). DESIGN.md 4.10.
#   5. cargo test       — full workspace.
#   6. smokes           — release-build repro runs per cell family (faults,
#                         baselines, tenants, trace, report, diff, fuzz):
#                         each ran and produced well-formed, deterministic
#                         output. The cell-smoke lint rule cross-checks that
#                         this list never silently loses a family. (The
#                         timed families, bench and scale, are pinned by
#                         crates/bench/tests/repro_cli.rs in stage 5.) One
#                         real-data example (quickstart) is compared with
#                         its checked-in stdout at two executor thread
#                         counts.
#   7. benchmark smoke  — benchmark/run.sh --quick: one checked run of each
#                         of the seven benchmark workloads against
#                         benchmark/expected.json, the only pinned sim-time
#                         baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== memres-lint (R5-R7 + cell-smoke, DESIGN.md 4.15) =="
# The JSON artifact is kept (and uploaded by CI) even when the run is
# clean, so tooling always has a machine-readable result to point at.
lint_json="${LINT_JSON:-target/memres-lint.json}"
mkdir -p "$(dirname "$lint_json")"
if ! cargo run -q -p memres-lint -- --json > "$lint_json"; then
  echo "memres-lint found violations (JSON copy: $lint_json):"
  cargo run -q -p memres-lint || true
  exit 1
fi
echo "ok: clean ($lint_json)"

echo "== file sizes (no file under crates/*/src over 1,500 lines) =="
# Code lines: non-blank, non-comment, above the file's first #[cfg(test)].
code_lines=0; largest=0; largest_file=""
while IFS= read -r f; do
  lines="$(wc -l < "$f")"
  if [ "$lines" -gt 1500 ]; then
    echo "$f has $lines lines (limit 1,500): split it along a seam, see DESIGN.md 3.1"; exit 1
  fi
  if [ "$lines" -gt "$largest" ]; then largest="$lines"; largest_file="$f"; fi
  n="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { l = $0; sub(/^[[:space:]]+/, "", l); if (l != "" && l !~ /^\/\//) c++ } END { print c + 0 }' "$f")"
  code_lines=$((code_lines + n))
done < <(find crates/*/src -name '*.rs' | sort)
echo "ok: crates/*/src is $code_lines code lines, largest file $largest_file ($largest lines)"

echo "== cargo clippy (-D warnings; R1-R4, DESIGN.md 4.10) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace) =="
cargo test -q --workspace

out="$(mktemp -d)"

echo "== fault smoke (JSON) =="
cargo run -q --release -p memres-bench --bin repro -- --smoke --json "$out" faults >/dev/null
test -s "$out/faults.json" || { echo "faults.json missing or empty"; exit 1; }
grep -q '"tasks_retried"' "$out/faults.json" || { echo "faults.json malformed"; exit 1; }
echo "ok: $out/faults.json"

echo "== baselines smoke (LATE speculation path) =="
# The speculation baseline (EXPERIMENTS.md "baseline-late"): four rows, and
# duplicating stragglers must not lengthen the job it is meant to shorten.
cargo run -q --release -p memres-bench --bin repro -- --smoke --json "$out" baselines >/dev/null
test -s "$out/baseline-late.json" || { echo "baseline-late.json missing or empty"; exit 1; }
test "$(grep -c '"label"' "$out/baseline-late.json")" -eq 4 || { echo "baseline-late.json: expected four rows"; exit 1; }
job_s() { grep "\"label\": \"$1\"" "$out/baseline-late.json" | sed 's/.*"values": \[\([0-9.]*\),.*/\1/'; }
awk -v late="$(job_s 'LATE speculation')" -v plain="$(job_s 'plain spark')" \
  'BEGIN { exit !(late > 0 && late <= plain) }' \
  || { echo "LATE speculation is slower than plain spark"; exit 1; }
echo "ok: $out/baseline-late.json (LATE <= plain)"

echo "== tenants smoke (multi-tenant stream SLOs) =="
# The two-tenant stream cells (DESIGN.md 4.14): per-tenant SLOs under each
# inter-job policy plus the ELB/CAD-under-interleaving revisits. An aborted
# job in any stream makes repro exit non-zero (aborted_jobs column).
cargo run -q --release -p memres-bench --bin repro -- --smoke --json "$out" tenants >/dev/null
for f in tenants tenants_elb tenants_cad; do
  test -s "$out/$f.json" || { echo "$f.json missing or empty"; exit 1; }
done
grep -q '"mean-qdelay-s"' "$out/tenants.json" || { echo "tenants.json malformed"; exit 1; }
echo "ok: $out/tenants.json"

echo "== trace smoke (Perfetto JSON, byte-deterministic) =="
# One traced cell, run twice into separate dirs: the Perfetto JSON must
# parse and both runs must produce byte-identical trace artifacts
# (DESIGN.md 4.11 determinism contract, from the shell's point of view).
cell="fig7a_400gb_ramdisk"
run_a="$out/trace-a"; run_b="$out/trace-b"
cargo run -q --release -p memres-bench --bin repro -- --smoke --json "$run_a" trace "$cell" >/dev/null
cargo run -q --release -p memres-bench --bin repro -- --smoke --json "$run_b" trace "$cell" >/dev/null
for d in "$run_a" "$run_b"; do
  test -s "$d/$cell.trace.json" || { echo "$d/$cell.trace.json missing or empty"; exit 1; }
  test -s "$d/$cell.events.jsonl" || { echo "$d/$cell.events.jsonl missing or empty"; exit 1; }
done
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert d['traceEvents'], 'no trace events'" \
    "$run_a/$cell.trace.json" || { echo "trace.json is not valid JSON"; exit 1; }
else
  echo "(python3 not found; skipping JSON parse validation)"
fi
cmp -s "$run_a/$cell.trace.json" "$run_b/$cell.trace.json" \
  || { echo "trace.json differs between identical runs"; exit 1; }
cmp -s "$run_a/$cell.events.jsonl" "$run_b/$cell.events.jsonl" \
  || { echo "events.jsonl differs between identical runs"; exit 1; }
echo "ok: $run_a/$cell.trace.json (deterministic)"

echo "== report smoke (metrics plane, byte-deterministic; DESIGN.md 4.16) =="
# One metered cell, run twice AND under different executor thread counts:
# all four metrics artifacts (OpenMetrics, timeseries.csv, dashboard HTML,
# attribution CSV) must be byte-identical — executor threads only
# parallelize real-partition UDF wall-clock, never the event sequence.
rcell="fig8a_600gb_ssd"
rep_a="$out/report-a"; rep_b="$out/report-b"; rep_t="$out/report-t4"
MEMRES_THREADS=1 cargo run -q --release -p memres-bench --bin repro -- --smoke --json "$rep_a" report "$rcell" >/dev/null
MEMRES_THREADS=1 cargo run -q --release -p memres-bench --bin repro -- --smoke --json "$rep_b" report "$rcell" >/dev/null
MEMRES_THREADS=4 cargo run -q --release -p memres-bench --bin repro -- --smoke --json "$rep_t" report "$rcell" >/dev/null
for suffix in openmetrics timeseries.csv dashboard.html attrib.csv; do
  for d in "$rep_a" "$rep_b" "$rep_t"; do
    test -s "$d/$rcell.$suffix" || { echo "$d/$rcell.$suffix missing or empty"; exit 1; }
  done
  cmp -s "$rep_a/$rcell.$suffix" "$rep_b/$rcell.$suffix" \
    || { echo "$rcell.$suffix differs between identical runs"; exit 1; }
  cmp -s "$rep_a/$rcell.$suffix" "$rep_t/$rcell.$suffix" \
    || { echo "$rcell.$suffix differs between 1 and 4 executor threads"; exit 1; }
done
echo "ok: $rep_a/$rcell.dashboard.html (deterministic, thread-invariant)"

echo "== real-data example (quickstart, pinned and thread-invariant) =="
# The cells above are synthetic; this is the one real-record job driven from
# the shell. Its UDF chain, shuffle partitioning and aggregation run on the
# executor pool, and its whole stdout (plan, string-keyed word counts,
# simulated phase times) must match the checked-in copy whatever the pool
# size — comparing the two pool sizes with each other would pass a record
# representation bug that moves both alike. A deliberate model change
# re-captures examples/golden/quickstart.txt in the same commit.
for t in 1 4; do
  MEMRES_THREADS=$t cargo run -q --release --example quickstart > "$out/quickstart-t$t.txt"
  diff examples/golden/quickstart.txt "$out/quickstart-t$t.txt" \
    || { echo "quickstart output at $t executor thread(s) differs from examples/golden/quickstart.txt"; exit 1; }
done
echo "ok: examples/golden/quickstart.txt (pinned, thread-invariant)"

echo "== diff smoke (self-consistency + injected-regression teeth) =="
# Self-diff of identical runs must report zero regressions (exit 0)...
cargo run -q --release -p memres-bench --bin repro -- diff "$rep_a" "$rep_b" --threshold 0.05 >/dev/null \
  || { echo "self-diff of identical report runs claimed a regression"; exit 1; }
# ...and the diff must still have teeth: an injected SSD degradation (4x
# slower device mid-run) has to come back as a regression (exit 1) whose
# dominant attribution mover lands on the storage layer.
rep_s="$out/report-slow"
cargo run -q --release -p memres-bench --bin repro -- --smoke --slow-ssd 0.25 --json "$rep_s" report "$rcell" >/dev/null
diff_out="$out/diff-slow.txt"
if cargo run -q --release -p memres-bench --bin repro -- diff "$rep_a" "$rep_s" --threshold 0.05 > "$diff_out"; then
  echo "diff failed to flag the injected SSD degradation"; exit 1
fi
grep -q "verdict: REGRESSED" "$diff_out" || { echo "diff verdict missing"; cat "$diff_out"; exit 1; }
grep -q "layer storage" "$diff_out" || { echo "diff did not attribute the SSD slowdown to the storage layer"; cat "$diff_out"; exit 1; }
echo "ok: $diff_out (regression flagged, storage-layer attribution)"

echo "== differential fuzz smoke (64 seeds, DESIGN.md 4.13) =="
# Every seed deterministically generates a topology/workload/config point
# and must pass all six oracles (waterfill, conservation, attribution,
# fault-equivalence, export determinism, multi-tenant stream isolation).
# Failures print a minimized `repro fuzz --replay` line — check it into
# crates/bench/fuzz_corpus/.
cargo run -q --release -p memres-bench --bin repro -- fuzz --seed-range 0..64 --json "$out"
test -s "$out/fuzz.json" || { echo "fuzz.json missing or empty"; exit 1; }
# The oracles must still have teeth: an injected rack-aggregation byte-drop
# defect has to be caught (non-zero exit), otherwise the green sweep above
# proves nothing.
if cargo run -q --release -p memres-bench --bin repro -- fuzz --seed-range 1..2 --inject-defect >/dev/null; then
  echo "fuzz oracles failed to catch the injected defect"; exit 1
fi
echo "ok: $out/fuzz.json (64 seeds clean, injected defect caught)"

echo "== benchmark smoke (benchmark/run.sh --quick) =="
# The standalone benchmark package (benchmark/README.md) must still build
# offline against the workspace crates, and one run of each of its seven
# workloads must reproduce the sim_job_s / events pinned in
# benchmark/expected.json; it exits non-zero if any run fails a check.
benchmark/run.sh --quick >/dev/null
echo "ok: 7 benchmark workloads match benchmark/expected.json"
