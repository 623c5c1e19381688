#!/usr/bin/env bash
# Offline build of the benchmark, then the full run: timed repetitions of all
# seven workloads (interleaved), the seven traced runs and the layer probes.
#
#   benchmark/run.sh [--quick] [benchmark arguments ...]
#
# --quick is the smoke for a CI hook: one checked run per workload and no
# tracing (under 20 s on 2 vCPUs). Any further arguments go to the benchmark
# (see its --help text in src/main.rs), e.g. `benchmark/run.sh --aa` or
# `benchmark/run.sh --out report.json`.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo_run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
if [[ "${1:-}" == "--quick" ]]; then
    shift
    exec "${cargo_run[@]}" --reps 0 "$@"
fi
exec "${cargo_run[@]}" --trace 1 "$@"
