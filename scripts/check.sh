#!/usr/bin/env bash
# Repository gate: formatting, lints, the full test suite, and a smoke run of
# the machine-readable performance benchmark (see EXPERIMENTS.md
# "Performance"). Everything here must pass before a change lands.
#
# Gate ordering (cheapest refusal first — DESIGN.md 4.15):
#   1. cargo fmt        — pure text, no build.
#   2. file sizes       — no file under any crates/*/src over 1,500 lines, so
#                         neither the engine (world.rs was 4,606; DESIGN.md
#                         3.1) nor a substrate (net/flow.rs was 1,935; 4.3)
#                         can quietly grow back into one file; prints the
#                         code-line count for the record.
#   3. cargo clippy     — full workspace, all targets; refuses R1 hash
#                         order, R2 wall clock and R3 host I/O (the lists in
#                         clippy.toml, denied by [workspace.lints]), R4 bare
#                         panics in the guarded files (#![deny] at their
#                         top), a waiver without a reason or without a
#                         target (#[expect]), and a catch-all arm in the
#                         event dispatch or a trace exporter (#[deny] on
#                         those matches). DESIGN.md 4.10. Then cargo doc
#                         with -D warnings, so a doc link to a deleted or
#                         private item fails too (~4 s on 2 vCPUs after
#                         clippy has built the dependencies).
#   4. cargo test       — full workspace. Every repro surface (figure tables
#                         and their JSON, trace, report, diff, fuzz teeth,
#                         the timed families) is asserted here, by the tests
#                         DESIGN.md 4.15 maps each retired shell smoke to.
#   5. quickstart       — the one real-data example, compared with its
#                         checked-in stdout at two MEMRES_THREADS values.
#   6. fuzz sweep       — 64 seeds through the six oracles; cargo test
#                         replays only the checked-in corpus.
#   7. benchmark smoke  — benchmark/run.sh --quick: one checked run of each
#                         of the seven benchmark workloads against
#                         benchmark/expected.json, the only pinned sim-time
#                         baseline.
# R5 (nothing scheduled or advanced before now) and R6 (no raw nanoseconds
# outside memres-des) have no stage: every build holds the private time
# fields, every run the clock asserts (DESIGN.md 4.10).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

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

echo "== cargo doc (-D warnings: no broken or private doc links) =="
RUSTDOCFLAGS='-D warnings' cargo doc -q --workspace --no-deps

echo "== cargo test (workspace) =="
cargo test -q --workspace

out="$(mktemp -d)"

echo "== real-data example (quickstart, pinned and thread-invariant) =="
# The repro cells are synthetic; this is the one real-record job driven from
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

echo "== differential fuzz smoke (64 seeds, DESIGN.md 4.13) =="
# Every seed deterministically generates a topology/workload/config point
# and must pass all six oracles (waterfill, conservation, attribution,
# fault-equivalence, thread determinism, multi-tenant stream isolation).
# Failures print a minimized `repro fuzz --replay` line — check it into
# crates/bench/fuzz_corpus/.
cargo run -q --release -p memres-bench --bin repro -- fuzz --seed-range 0..64 --json "$out"
test -s "$out/fuzz.json" || { echo "fuzz.json missing or empty"; exit 1; }
echo "ok: $out/fuzz.json (64 seeds clean)"

echo "== benchmark smoke (benchmark/run.sh --quick) =="
# The standalone benchmark package (benchmark/README.md) must still build
# offline against the workspace crates, and one run of each of its seven
# workloads must reproduce the sim_job_s / events pinned in
# benchmark/expected.json; it exits non-zero if any run fails a check.
benchmark/run.sh --quick >/dev/null
echo "ok: 7 benchmark workloads match benchmark/expected.json"
