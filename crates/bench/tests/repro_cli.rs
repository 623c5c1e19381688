//! Exit-code contract of the `repro` binary (built by Cargo for us via
//! `CARGO_BIN_EXE_repro`): 0 on a faithful reproduction, 1 when a simulated
//! job aborted, 2 on usage errors. CI scripts branch on these codes, so they
//! are part of the public interface, not an implementation detail.

#![allow(
    clippy::disallowed_methods,
    reason = "a test of the measurement layer reads the files it wrote (DESIGN.md 4.10)"
)]

#[path = "pins/mod.rs"]
mod pins;

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// A scratch directory of this process: concurrent test runs from two
/// checkouts must not remove each other's files.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SMOKE_ALL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/smoke_all.stdout");

/// `repro --smoke --json <dir> all`: every figure table at smoke scale.
fn smoke_all(dir: &std::path::Path) -> String {
    let out = repro(&["--smoke", "--json", dir.to_str().unwrap(), "all"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn clean_target_exits_zero() {
    let out = repro(&["--smoke", "table1"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("table1"));
}

/// The byte-identity check every behaviour-preserving change runs: the whole
/// stdout of `repro --smoke all` (every figure table at smoke scale; timings
/// go to stderr) against the checked-in capture. With `--json` each table
/// printed is also written as `<table id>.json`.
#[test]
fn smoke_all_stdout_is_pinned() {
    let golden = include_str!("golden/smoke_all.stdout");
    let dir = temp_dir("memres-repro-smoke-all-cli-test");
    let stdout = smoke_all(&dir);
    if stdout != golden {
        let (got, want) = (stdout.lines(), golden.lines());
        let line = got.zip(want).take_while(|(g, w)| g == w).count();
        panic!(
            "`repro --smoke all` stdout differs from tests/golden/smoke_all.stdout at line {}:\n  \
             got:  {:?}\n  want: {:?}\n\
             A deliberate model change re-captures the file, and every pin, in the same \
             commit (`cargo test --workspace --release -- --ignored bless`).",
            line + 1,
            stdout.lines().nth(line),
            golden.lines().nth(line),
        );
    }
    // A note is prose: a string literal that lost a line continuation
    // shows as a run of spaces.
    let notes = golden.lines().filter_map(|l| l.strip_prefix("  * "));
    for note in notes {
        assert!(!note.contains("  "), "two spaces in a note: {note:?}");
    }
    // One well-formed file per table: its id, its header's columns, one
    // `label` per row printed, and nothing after the closing brace.
    let mut lines = golden.lines().peekable();
    let mut tables = 0;
    while let Some(line) = lines.next() {
        let Some((id, _)) = line.strip_prefix("== ").and_then(|l| l.split_once(" — ")) else {
            continue;
        };
        tables += 1;
        let json = std::fs::read_to_string(dir.join(format!("{id}.json"))).expect(id);
        assert!(
            json.starts_with(&format!("{{\n  \"id\": \"{id}\",\n")),
            "{json}"
        );
        assert!(json.ends_with("]\n}\n"), "{json}");
        for column in lines.next().expect("header").split_whitespace() {
            assert!(json.contains(&format!("\"{column}\"")), "{id}: {column}");
        }
        let rows =
            std::iter::from_fn(|| lines.next_if(|l| !l.is_empty() && !l.starts_with("  * ")));
        assert_eq!(json.matches("{\"label\": ").count(), rows.count(), "{id}");
    }
    let files = std::fs::read_dir(&dir).expect("json dir").count();
    assert_eq!(files, tables, "files written, tables printed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aborted_job_exits_one() {
    let out = repro(&["--smoke", "faults-abort"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("aborted_jobs"), "stdout: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("aborted after exhausting task retries"),
        "stderr: {stderr}"
    );
}

#[test]
fn unknown_target_exits_two_before_running_anything() {
    let out = repro(&["--smoke", "table1", "bogus-target"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown target 'bogus-target'"));
    // Nothing ran: the valid target listed first produced no table.
    assert!(!String::from_utf8_lossy(&out.stdout).contains("table1"));

    // A retired flag is an unknown target like any other.
    let out = repro(&["--baseline", "bench"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown target '--baseline'"), "{stderr}");
    assert!(out.stdout.is_empty(), "bench ran before the rejection");
}

#[test]
fn no_targets_exits_two_with_usage() {
    let out = repro(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: repro"));

    // `diff` joins two report directories; two JSON files are a usage error.
    let out = repro(&["diff", "a.json", "b.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: repro"));
}

#[test]
fn explain_prints_attribution_and_stragglers() {
    let out = repro(&["--smoke", "explain", "fig7a_400gb_ramdisk"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("== explain fig7a_400gb_ramdisk =="),
        "{stdout}"
    );
    assert!(stdout.contains("compute"), "{stdout}");
    assert!(stdout.contains("straggler"), "{stdout}");
}

/// `trace`, `report` and `diff` through the binary: the files each writes,
/// and `diff`'s exit code on a self-diff (0) and on the `--slow-ssd`
/// known-regression fixture (1, attributed to the storage layer).
#[test]
fn trace_writes_timeline_files() {
    let cell = "fig8a_600gb_ssd";
    let dir = temp_dir("memres-repro-trace-cli-test");
    let slow = dir.join("slow");
    let (dir_s, slow_s) = (dir.to_str().unwrap(), slow.to_str().unwrap());
    let out = repro(&["--smoke", "--json", dir_s, "trace", cell, "report", cell]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tj = std::fs::read_to_string(dir.join(format!("{cell}.trace.json"))).expect("trace.json");
    assert!(tj.starts_with("{\"traceEvents\":["));
    let jl = std::fs::read_to_string(dir.join(format!("{cell}.events.jsonl"))).expect("jsonl");
    assert!(jl
        .lines()
        .next()
        .unwrap_or("")
        .contains("\"type\":\"job_start\""));
    for suffix in [
        "openmetrics",
        "timeseries.csv",
        "dashboard.html",
        "attrib.csv",
    ] {
        let bytes = std::fs::read(dir.join(format!("{cell}.{suffix}"))).expect(suffix);
        assert!(!bytes.is_empty(), "{cell}.{suffix} is empty");
    }
    let out = repro(&[
        "--smoke",
        "--slow-ssd",
        "0.25",
        "--json",
        slow_s,
        "report",
        cell,
    ]);
    assert!(out.status.success());
    let out = repro(&["diff", dir_s, dir_s]);
    assert_eq!(out.status.code(), Some(0), "self-diff claimed a regression");
    let out = repro(&["diff", dir_s, slow_s]);
    assert_eq!(out.status.code(), Some(1), "slowed SSDs not flagged");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict: REGRESSED"), "{stdout}");
    assert!(stdout.contains("layer storage"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `trace X explain X report X` is one observed run of X, and prints what
/// the three commands print alone, in command order.
#[test]
fn cell_commands_print_as_they_do_alone() {
    let cell = "fig7a_400gb_lustre_shared";
    let stdout = |args: &[&str]| {
        let out = repro(&[&["--smoke"], args].concat());
        assert!(out.status.success(), "{args:?}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let alone: String = ["trace", "explain", "report"]
        .iter()
        .map(|cmd| stdout(&[cmd, cell]))
        .collect();
    let together = stdout(&["trace", cell, "explain", cell, "report", cell]);
    assert_eq!(together, alone);
}

/// `--slow-ssd F` degrades the run of every cell command, and is a usage
/// error (exit 2, nothing run) without one.
#[test]
fn slow_ssd_degrades_every_cell_command() {
    let cell = "fig8a_600gb_ssd";
    let dir = temp_dir("memres-repro-slow-ssd-cli-test");
    let events = |flags: &[&str], sub: &str| {
        let at = dir.join(sub);
        let json = ["--json", at.to_str().unwrap(), "trace", cell];
        let out = repro(&[&["--smoke"], flags, &json].concat());
        assert!(out.status.success(), "{flags:?}");
        let jsonl = std::fs::read_to_string(at.join(format!("{cell}.events.jsonl")));
        (jsonl.expect("events.jsonl"), out.stdout)
    };
    let (healthy, healthy_stdout) = events(&[], "healthy");
    let (slow, slow_stdout) = events(&["--slow-ssd", "0.25"], "slow");
    assert!(slow.contains("\"ssd_degrade\""), "no fault in the trace");
    assert_ne!(healthy, slow, "--slow-ssd left the trace healthy");
    assert_ne!(
        healthy_stdout, slow_stdout,
        "--slow-ssd left explain healthy"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let out = repro(&["--smoke", "--slow-ssd", "0.5", "fig5a"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--slow-ssd"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(out.stdout.is_empty(), "fig5a ran");
}

#[test]
fn unknown_cell_exits_two() {
    let out = repro(&["--smoke", "explain", "not_a_cell"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown cell 'not_a_cell'"));
}

/// `--scale` is validated like every other number on the command line:
/// out-of-range values are usage errors (exit 2) before anything runs, not
/// an assertion deep in `rdd.rs`, an allocation overflow, or a table of
/// 8 ms jobs with exit 0.
#[test]
fn out_of_range_scale_exits_two_before_running_anything() {
    for bad in ["-1", "nan", "inf", "0"] {
        let out = repro(&["--scale", bad, "fig8c"]);
        assert_eq!(out.status.code(), Some(2), "--scale {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--scale takes a float in (0, 100]"),
            "--scale {bad}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "--scale {bad} ran fig8c");
    }
}

/// The value of `"key"` in a one-line JSON object of scalars.
fn json_field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    let rest = &line[at + pat.len()..];
    rest[..rest.find([',', '}']).expect("value end")].trim_matches('"')
}

/// The JSON files `repro <flags> --json <dir> <targets>` writes, one per
/// target, each run once per process.
fn timed(
    flags: &[&str],
    targets: &[&str],
    cache: &'static OnceLock<Vec<String>>,
) -> &'static [String] {
    cache.get_or_init(|| {
        let dir = temp_dir(&format!(
            "memres-repro-timed-{}-cli-test",
            targets.join("-")
        ));
        let args = [flags, &["--json", dir.to_str().unwrap()], targets].concat();
        let out = repro(&args);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = targets
            .iter()
            .map(|t| std::fs::read_to_string(dir.join(format!("{t}.json"))).expect("json"))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        json
    })
}

/// `repro --smoke bench scale`: the five paper rows at smoke scale, then
/// `scale_smoke`.
fn timed_smoke() -> &'static [String] {
    static JSON: OnceLock<Vec<String>> = OnceLock::new();
    timed(&["--smoke"], &["bench", "scale"], &JSON)
}

/// The two smaller `repro scale` cells at full size, in one invocation.
fn scale_cells() -> &'static [String] {
    static JSON: OnceLock<Vec<String>> = OnceLock::new();
    timed(&[], &["scale_1k_100k", "scale_4k_1m"], &JSON)
}

/// The run line of `cell` among `json`'s.
fn run_of<'a>(json: &'a [String], cell: &str) -> &'a str {
    json.iter()
        .flat_map(|j| j.lines())
        .find(|l| l.contains(&format!("\"name\": \"{cell}\"")))
        .unwrap_or_else(|| panic!("no run {cell}"))
}

/// The columns of a timed run that do not depend on the host.
fn simulated(run: &str, columns: &[&'static str]) -> Vec<pins::Pin> {
    let num = |column| json_field(run, column).parse::<f64>().expect("a number");
    columns
        .iter()
        .map(|&column| match column {
            "sim_job_s" => pins::sim_s(column, num(column)),
            "heap_bytes" => pins::bytes(column, num(column)),
            _ => pins::count(column, num(column) as u64),
        })
        .collect()
}

/// The six CI-sized cells: the paper rows at `--smoke`, then `scale_smoke`.
const SMOKE_CELLS: [&str; 6] = [
    "fig7a_400gb_ramdisk",
    "fig7a_400gb_lustre_local",
    "fig7a_400gb_lustre_shared",
    "fig8a_600gb_ramdisk",
    "fig8a_600gb_ssd",
    "scale_smoke",
];

fn smoke_cell(cell: &'static str) -> Vec<pins::Pin> {
    let columns = ["sim_job_s", "events", "net_recomputes"];
    simulated(run_of(timed_smoke(), cell), &columns)
}

fn scale_cell(cell: &'static str) -> Vec<pins::Pin> {
    let columns = [
        "sim_job_s",
        "events",
        "heap_bytes",
        "dispatch_visits",
        "net_recomputes",
    ];
    simulated(run_of(scale_cells(), cell), &columns)
}

const CASES: &[pins::Case] = &[
    ("fig7a_400gb_ramdisk", smoke_cell),
    ("fig7a_400gb_lustre_local", smoke_cell),
    ("fig7a_400gb_lustre_shared", smoke_cell),
    ("fig8a_600gb_ramdisk", smoke_cell),
    ("fig8a_600gb_ssd", smoke_cell),
    ("scale_smoke", smoke_cell),
    ("scale_1k_100k", scale_cell),
    ("scale_4k_1m", scale_cell),
];

/// The timed path's determinism check: `sim_job_s`, `events` and
/// `net_recomputes` of the six CI-sized cells are pins; the one JSON shape
/// both families write, and the two numeric bounds of the scale cell
/// (dispatch visits, heap per task).
#[test]
fn timed_smoke_runs_are_pinned_and_share_one_json_shape() {
    let mut cells = Vec::new();
    for (target, json) in ["bench", "scale"].into_iter().zip(timed_smoke()) {
        assert!(
            json.contains(&format!("\"target\": \"{target}\"")),
            "{json}"
        );
        for key in ["\"scale\": 0.08", "\"seed\": 1", "\"total_wall_s\": "] {
            assert!(json.contains(key), "{target}.json lacks {key}: {json}");
        }
        for run in json.lines().filter(|l| l.contains("\"name\": ")) {
            for column in [
                "wall_s",
                "events_per_s",
                "heap_bytes",
                "user_s",
                "sys_s",
                "minor_faults",
                "dispatch_visits",
                "net_recomputes",
            ] {
                let v = json_field(run, column);
                assert!(v.parse::<f64>().is_ok(), "{column} = {v:?} in {run}");
            }
            cells.push(json_field(run, "name"));
            if json_field(run, "name") == "scale_smoke" {
                let num = |column| json_field(run, column).parse::<f64>().expect("a number");
                // Dispatch must look at a node or two per event, not rescan
                // the idle ones: it visits about half a candidate per event
                // here, and a visit count above the event count is the
                // 4 M-task cliff coming back (CHANGES.md, PR 17) on a
                // cell CI can afford.
                let (visits, events) = (num("dispatch_visits"), num("events"));
                assert!(visits > 0.0 && visits <= events, "{run}");
                // What a task costs the heap: the engine's own estimate over
                // the cell's 2 x 1,536 producers + 512 reducers. 97.0 bytes:
                // 81 arena bytes and a 4-byte finish-order entry per task,
                // an 8-byte count per reducer, the rest the cell's queues
                // and workers x reducers tables; a new per-task column,
                // table or copy shows here. Fails above that + 10 %.
                let per_task = num("heap_bytes") / 3584.0;
                assert!(
                    per_task > 0.0 && per_task <= 107.0,
                    "{per_task} bytes: {run}"
                );
            }
        }
    }
    assert_eq!(
        cells, SMOKE_CELLS,
        "the runs of `repro --smoke bench scale`"
    );
    pins::check(pins::named(CASES, &SMOKE_CELLS));
}

/// `repro scale`'s non-timing columns of its two smaller cells, which
/// neither `repro all` nor the smoke cells reach: a shuffle above 2^20
/// node x reducer cells and 1,000+ nodes.
#[test]
fn scale_cells_are_pinned() {
    pins::check(pins::named(CASES, &["scale_1k_100k", "scale_4k_1m"]));
}

pins::tests!(CASES);

/// `bless`'s twin for the one whole-file golden: re-captures
/// `smoke_all.stdout`.
#[test]
#[ignore = "re-pins: cargo test --workspace --release -- --ignored bless"]
fn bless_smoke_all() {
    let dir = temp_dir("memres-repro-smoke-all-bless");
    let stdout = smoke_all(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let golden = std::fs::read_to_string(SMOKE_ALL).expect("the golden");
    if stdout == golden {
        pins::say("crates/bench/tests/golden/smoke_all.stdout: unchanged\n");
    } else {
        let moved = stdout.lines().zip(golden.lines()).filter(|(a, b)| a != b);
        std::fs::write(SMOKE_ALL, &stdout).expect("rewrite the golden");
        pins::say(&format!(
            "crates/bench/tests/golden/smoke_all.stdout: rewritten, {} lines moved\n",
            moved.count()
        ));
    }
}
