#!/usr/bin/env bash
# Size-class census of the benchmark's peak heap: which blocks `peak_heap_mb`
# is made of. Builds the benchmark of REV (default: the working tree's
# tracked files) from a temporary copy whose counting allocator
# (`benchmark/src/alloc.rs`) also counts live blocks and bytes per
# power-of-two size class (class 2^k holds sizes in (2^(k-1), 2^k]),
# snapshotted at the measurement window's start and at each new peak. Runs
# WORKLOAD for one timed rep and prints that run's `peak_heap_mb` line and
# its classes at the peak, net of the window start, as `class blocks bytes`.
#
#   scripts/heap_census.sh [--rev REV] WORKLOAD
#   scripts/heap_census.sh --rev HEAD~1 real_groupby
#
# The copy and its build live in a temporary directory removed on exit;
# nothing is written under the repository. Each call builds from scratch
# (about a minute on 2 vCPUs). The counters cost a few atomics per
# allocation: time nothing with this build.
set -euo pipefail
usage="usage: $0 [--rev REV] WORKLOAD"
rev=
while [[ $# -gt 0 ]]; do
  case $1 in
    --rev) [[ $# -ge 2 ]] || { echo "$usage" >&2; exit 2; }; rev=$2; shift 2 ;;
    -*) echo "$usage" >&2; exit 2 ;;
    *) break ;;
  esac
done
[[ $# -eq 1 ]] || { echo "$usage" >&2; exit 2; }
workload=$1
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
if [[ -n $rev ]]; then
  git archive "$rev" | tar -x -C "$work/src"
else
  # A tracked file deleted from the working tree is skipped, as in a commit.
  git ls-files -z | tar -c --null -T - --ignore-failed-read -f - 2>/dev/null | tar -x -C "$work/src"
fi

python3 - "$work/src" <<'EOF'
import pathlib, sys
root = pathlib.Path(sys.argv[1])
def patch(path, edits, tail=""):
    p = root / path
    t = p.read_text()
    for old, new in edits:
        if old not in t:
            sys.exit(f"heap_census: {path} no longer holds the line the census hooks into:\n{old}")
        t = t.replace(old, new)
    p.write_text(t + tail)
patch('benchmark/src/alloc.rs', [
    ("""        if !p.is_null() {
            grew(layout.size());""", """        if !p.is_null() {
            class(layout.size(), true);
            grew(layout.size());"""),
    ("""        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub""", """        unsafe { System.dealloc(ptr, layout) };
        class(layout.size(), false);
        LIVE.fetch_sub"""),
    ("""        if !p.is_null() {
            if new_size >= layout.size() {""", """        if !p.is_null() {
            class(layout.size(), false);
            class(new_size, true);
            if new_size >= layout.size() {"""),
    ("""        PEAK.fetch_max(live, Relaxed);
""", """        PEAK.fetch_max(live, Relaxed);
        snap(&AT_PEAK);
"""),
    ("""    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);""", """    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    snap(&AT_START);
    snap(&AT_PEAK);"""),
], '''
const CLASSES: usize = 48;
type Table = [[AtomicUsize; 2]; CLASSES];
static NOW: Table = [const { [const { AtomicUsize::new(0) }; 2] }; CLASSES];
static AT_PEAK: Table = [const { [const { AtomicUsize::new(0) }; 2] }; CLASSES];
static AT_START: Table = [const { [const { AtomicUsize::new(0) }; 2] }; CLASSES];

fn class(size: usize, add: bool) {
    let k = (usize::BITS - size.max(1).saturating_sub(1).leading_zeros()) as usize;
    let c = &NOW[k.min(CLASSES - 1)];
    if add {
        c[0].fetch_add(1, Relaxed);
        c[1].fetch_add(size, Relaxed);
    } else {
        c[0].fetch_sub(1, Relaxed);
        c[1].fetch_sub(size, Relaxed);
    }
}

fn snap(into: &Table) {
    for (d, s) in into.iter().zip(&NOW) {
        d[0].store(s[0].load(Relaxed), Relaxed);
        d[1].store(s[1].load(Relaxed), Relaxed);
    }
}

pub fn census() -> String {
    let mut out = String::from("census: class blocks bytes\\n");
    for k in 0..CLASSES {
        let n = AT_PEAK[k][0].load(Relaxed) as i64 - AT_START[k][0].load(Relaxed) as i64;
        let b = AT_PEAK[k][1].load(Relaxed) as i64 - AT_START[k][1].load(Relaxed) as i64;
        if b != 0 {
            out += &format!("census: {:>12} {:>9} {:>12}\\n", 1u64 << k, n, b);
        }
    }
    out
}
''')
patch('benchmark/src/main.rs', [
    ("""    let wall_s = t0.elapsed().as_secs_f64();
    Sample {""", """    let wall_s = t0.elapsed().as_secs_f64();
    eprint!("{}", alloc::census());
    Sample {"""),
])
EOF

CARGO_TARGET_DIR="$work/target" cargo build --release --offline -q \
  --manifest-path "$work/src/benchmark/Cargo.toml"
"$work/target/release/memres-benchmark" --workload "$workload" --reps 1 \
  > "$work/stdout" 2> "$work/stderr" || { cat "$work/stdout" "$work/stderr" >&2; exit 1; }
grep '^peak_heap_mb' "$work/stdout"
# Every timed run prints a table; the last one is the timed rep's.
awk '/^census: class / { n = 0 } /^census: / { t[n++] = substr($0, 9) }
     END { for (i = 0; i < n; i++) print t[i] }' "$work/stderr"
