#!/usr/bin/env bash
# Sampling profiler for a release binary of this repo, for hosts without
# `perf`: a SIGPROF timer and `backtrace()` in an LD_PRELOAD shim, resolved
# against `nm -C`. Prints the command's user and system CPU seconds and its
# page-fault count (`getrusage` as it exits: on the scale cells a third of
# the time is the kernel faulting memory in, which no sample names), then,
# per function, the share of samples it is the leaf of (self) and the share
# it is anywhere on the stack of (inclusive). A sample is charged to the
# symbol whose extent (`nm -S`) holds it; one that lands outside every sized
# symbol counts in a `[<object> unsymbolized]` row instead of the symbol
# before it. An object with no symbol table (a stripped libc) is resolved
# against its dynamic symbols (`nm -D`), which name the functions it exports.
#
#   scripts/profile.sh [--hz N] [--top N] [--grep REGEX] [--callers REGEX] -- COMMAND [ARGS...]
#   scripts/profile.sh -- benchmark/target/release/memres-benchmark \
#       --workload paper_lustre_local --reps 40
#
# --grep keeps the functions matching REGEX; --callers also prints who calls
# the functions matching its REGEX, by share of their samples. The command
# must be an already-built binary (not `cargo run`: the samples would be
# cargo's). CPU time only: a blocked thread is not sampled, and the kernel
# delivers at most one SIGPROF per scheduler tick, so let the command run for
# a few seconds (`--reps 200`) whatever --hz says.
set -euo pipefail
hz=2000 top=40 pat=. callers=
usage="usage: $0 [--hz N] [--top N] [--grep REGEX] [--callers REGEX] -- COMMAND [ARGS...]"
while [[ $# -gt 0 && $1 != -- ]]; do
  case $1 in
    --hz) hz=$2 ;; --top) top=$2 ;; --grep) pat=$2 ;; --callers) callers=$2 ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
  shift 2
done
[[ ${1:-} == -- && $# -ge 2 ]] || { echo "$usage" >&2; exit 2; }
shift
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cat > "$work/prof.c" <<'EOF'
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>

#define DEPTH 48
#define MAX_SAMPLES (1 << 18)
/* Zero pages until written: a short run touches a few MB of this. */
static void *frames[MAX_SAMPLES][DEPTH];
static unsigned char depth[MAX_SAMPLES];
static volatile int taken, dropped;

static void on_prof(int sig) {
    (void)sig;
    int i = __sync_fetch_and_add(&taken, 1);
    if (i >= MAX_SAMPLES) { dropped = 1; return; }
    depth[i] = (unsigned char)backtrace(frames[i], DEPTH);
}

__attribute__((constructor)) static void start(void) {
    const char *hz = getenv("MEMRES_PROF_HZ");
    long usec = 1000000 / (hz ? atol(hz) : 2000);
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("MEMRES_PROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[1024];
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    fclose(maps);
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        fprintf(out, "R %ld.%06ld %ld.%06ld %ld %ld\n",
                (long)ru.ru_utime.tv_sec, (long)ru.ru_utime.tv_usec,
                (long)ru.ru_stime.tv_sec, (long)ru.ru_stime.tv_usec,
                ru.ru_minflt, ru.ru_majflt);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        fputc('S', out);
        /* Frames 0 and 1 are the handler and the signal trampoline. */
        for (int d = 2; d < depth[i]; d++) fprintf(out, " %p", frames[i][d]);
        fputc('\n', out);
    }
    if (dropped) fprintf(out, "D\n");
    fclose(out);
}
EOF
cc -shared -fPIC -O1 -o "$work/prof.so" "$work/prof.c"

MEMRES_PROF_HZ="$hz" MEMRES_PROF_OUT="$work/samples" LD_PRELOAD="$work/prof.so" "$@" > "$work/stdout" ||
  { echo "profiled command failed:" >&2; cat "$work/stdout" >&2; exit 1; }

python3 - "$work/samples" "$top" "$pat" "$callers" <<'EOF'
import bisect, collections, re, subprocess, sys
path, top, pat, callee = sys.argv[1], int(sys.argv[2]), re.compile(sys.argv[3]), sys.argv[4]
# `base`: load bias of each object, the lowest address any segment maps at.
maps, base, samples, dropped, usage = [], {}, [], False, None
for line in open(path):
    f = line.split()
    if line.startswith("R "):
        usage = f[1:]
    elif line.startswith("M "):
        if len(f) >= 7 and f[6].startswith("/"):
            lo, hi = (int(x, 16) for x in f[1].split("-"))
            base[f[6]] = min(base.get(f[6], lo), lo)
            if "x" in f[2]:
                maps.append((lo, hi, f[6]))
    elif line.startswith("S"):
        samples.append([int(x, 16) for x in f[1:]])
    else:
        dropped = True
syms = {}
def table(obj):
    # `nm -S` lines: "addr size kind name", or "addr kind name" for a symbol
    # with no size (a size of 0 counts as none). Of symbols at one address
    # the largest is kept. A stripped object (a distribution's libc) lists
    # no symbols; its dynamic ones (`nm -D`, names without their `@VERSION`)
    # name what it exports, and the rest of its code stays unsymbolized.
    if obj not in syms:
        rows = {}
        for dynamic in ([], ["-D"]):
            if rows:
                break
            out = subprocess.run(["nm", "-C", "-S", *dynamic, "--defined-only", obj],
                                 capture_output=True, text=True).stdout
            for l in out.splitlines():
                f = l.split(None, 2)
                if len(f) < 3:
                    continue
                if len(f[1]) == 1:
                    addr, size, (kind, name) = f[0], None, f[1:]
                else:
                    g = f[2].split(None, 1)
                    if len(g) < 2:
                        continue
                    addr, size, (kind, name) = f[0], int(f[1], 16) or None, g
                a = int(addr, 16)
                if kind in "tTwW" and (a not in rows or (size or 0) > (rows[a][0] or 0)):
                    rows[a] = (size, name.strip().split("@")[0] if dynamic else name.strip())
        addrs = sorted(rows)
        syms[obj] = (addrs, [rows[a] for a in addrs])
    return syms[obj]
def resolve(pc):
    # A pc goes to the symbol whose [addr, addr + size) holds it, and one
    # past the end of the symbol before it (padding, code no symbol covers)
    # to the object's unsymbolized row. An unsized symbol takes every pc up
    # to the next symbol.
    for lo, hi, obj in maps:
        if lo <= pc < hi:
            addrs, rows = table(obj)
            off = pc - base[obj]
            i = bisect.bisect_right(addrs, off) - 1
            if i >= 0 and (rows[i][0] is None or off < addrs[i] + rows[i][0]):
                return rows[i][1]
            return "[%s unsymbolized]" % obj.rsplit("/", 1)[-1]
    return "[unmapped]"
cache = {}
name = lambda pc: cache.setdefault(pc, resolve(pc))
self_, incl, callers = collections.Counter(), collections.Counter(), collections.Counter()
for stack in samples:
    if not stack:
        continue
    # The leaf is the interrupted instruction itself; every frame above it
    # is a return address, so its call is the byte before.
    names = [name(stack[0])] + [name(pc - 1) for pc in stack[1:]]
    self_[names[0]] += 1
    for n in set(names):
        incl[n] += 1
    if callee:
        callers.update({(n, up) for n, up in zip(names, names[1:]) if re.search(callee, n)})
total = max(1, sum(self_.values()))
if usage:
    print("user %.2f s, sys %.2f s, %s minor + %s major page faults" %
          (float(usage[0]), float(usage[1]), usage[2], usage[3]))
print("%d samples%s" % (total, " (buffer full: later samples dropped)" if dropped else ""))
print("%7s %7s  function" % ("self%", "incl%"))
shown = [n for n, _ in incl.most_common() if pat.search(n)][:top]
for n in sorted(shown, key=lambda n: -incl[n]):
    print("%7.2f %7.2f  %s" % (100.0 * self_[n] / total, 100.0 * incl[n] / total, n))
for (n, up), c in callers.most_common(top if callee else 0):
    print("%7.2f%% of samples: %s <- %s" % (100.0 * c / total, n, up))
EOF
