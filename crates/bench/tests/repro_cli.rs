//! Exit-code contract of the `repro` binary (built by Cargo for us via
//! `CARGO_BIN_EXE_repro`): 0 on a faithful reproduction, 1 when a simulated
//! job aborted, 2 on usage errors. CI scripts branch on these codes, so they
//! are part of the public interface, not an implementation detail.

#![allow(
    clippy::disallowed_methods,
    reason = "a test of the measurement layer reads the files it wrote (DESIGN.md 4.10)"
)]

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
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
    let dir = std::env::temp_dir().join("memres-repro-smoke-all-cli-test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(&["--smoke", "--json", dir.to_str().unwrap(), "all"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    if stdout != golden {
        let (got, want) = (stdout.lines(), golden.lines());
        let line = got.zip(want).take_while(|(g, w)| g == w).count();
        panic!(
            "`repro --smoke all` stdout differs from tests/golden/smoke_all.stdout at line {}:\n  \
             got:  {:?}\n  want: {:?}\n\
             A deliberate model change re-captures the file in the same commit \
             (`repro --smoke all > crates/bench/tests/golden/smoke_all.stdout`).",
            line + 1,
            stdout.lines().nth(line),
            golden.lines().nth(line),
        );
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
    let dir = std::env::temp_dir().join("memres-repro-trace-cli-test");
    let slow = dir.join("slow");
    let _ = std::fs::remove_dir_all(&dir);
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

/// The timed path's determinism check: `sim_job_s` and `events` of the six
/// CI-sized cells (the paper rows at `--smoke`, then `scale_smoke`) against
/// the checked-in capture, the one JSON shape both families write, and the
/// two numeric bounds of the scale cell (dispatch visits, heap per task).
#[test]
fn timed_smoke_runs_are_pinned_and_share_one_json_shape() {
    let dir = std::env::temp_dir().join("memres-repro-timed-cli-test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(&["--smoke", "--json", dir.to_str().unwrap(), "bench", "scale"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut pinned = String::new();
    for target in ["bench", "scale"] {
        let json = std::fs::read_to_string(dir.join(format!("{target}.json"))).expect("json");
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
            ] {
                let v = json_field(run, column);
                assert!(v.parse::<f64>().is_ok(), "{column} = {v:?} in {run}");
            }
            let name = json_field(run, "name");
            let (sim, events) = (json_field(run, "sim_job_s"), json_field(run, "events"));
            pinned.push_str(&format!("{name} {sim} {events}\n"));
            if name == "scale_smoke" {
                let num = |column| json_field(run, column).parse::<f64>().expect("a number");
                // Dispatch must look at a node or two per event, not rescan
                // the idle ones: it visits about half a candidate per event
                // here, and a visit count above the event count is the
                // 4 M-task cliff coming back (EXPERIMENTS.md "PR 17") on a
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
        pinned,
        include_str!("golden/timed_smoke.txt"),
        "`name sim_job_s events` of `repro --smoke bench scale` moved; a deliberate model \
         change re-captures tests/golden/timed_smoke.txt in the same commit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
