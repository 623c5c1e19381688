//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!   repro [--smoke] [--scale X] [--seed N] [--json DIR] `<target>`...
//!   targets: the rows of [`TARGETS`], `all` (the rows marked so), a cell
//!            name, `trace <cell>`, `explain <cell>`, `report <cell>`
//!
//! `tenants` runs the multi-tenant job-stream cells (DESIGN.md §4.14): two
//! tenants under a seeded arrival process with per-tenant queueing delay,
//! p50/p99 latency and slowdown-vs-isolated, plus the ELB-under-
//! interleaving and CAD-starvation revisits of Fig 13/14.
//!
//! Exit codes: 0 on success, 1 when any simulated job aborted (the tables
//! printed are then not a faithful reproduction), 2 on usage errors.
//! Unknown targets are rejected up front (exit 2) with the usage line, so a
//! typo can't burn hours of experiments first.
//!
//! `bench`, `scale` and `<cell>` time the simulator itself (host wall-clock)
//! on rows of the cell table (`memres_workloads::cells::CELLS`): `bench` the
//! mid-size Fig 7a/8a cells (paper scale, 100 nodes, by default; `--smoke`
//! for a quick CI run), `scale` the scale-out family (1k–10k nodes, up to
//! 4 M producers; `--smoke` its CI-sized cell), and any cell name that cell
//! alone. With `--json DIR` they write `DIR/bench.json`, `DIR/scale.json`
//! and `DIR/<cell>.json`. These are single-shot quick looks — the repeated,
//! bounded performance record is `benchmark/`. None is part of `all`.
//!
//! `trace <cell>`, `explain <cell>` and `report <cell>` re-run one cell
//! with full event tracing and the sim-time periodic sampler on
//! (DESIGN.md §4.11, §4.16), once however many of them name it. `explain`
//! prints the critical-path attribution table and the top straggler
//! attempts. `trace` prints the same and, with `--json DIR`, writes
//! `DIR/<cell>.trace.json` (Chrome trace-event form, loadable in Perfetto)
//! plus `DIR/<cell>.events.jsonl` (compact log). `report` prints the
//! sampler's tick count and writes `DIR/<cell>.openmetrics`,
//! `DIR/<cell>.timeseries.csv`, `DIR/<cell>.dashboard.html` and
//! `DIR/<cell>.attrib.csv`. Every artifact is byte-deterministic.
//! `--slow-ssd F` injects an SSD degradation (speed factor F) one
//! simulated second into every cell command's run — the known-regression
//! fixture; without a cell command it is a usage error.
//!
//! `diff <a> <b> [--threshold X]` joins two `report` output directories
//! into a ranked regression report (time-series join + critical-path
//! attribution of what moved). Exit 1 when run B regressed past the
//! threshold (default 5%).
//!
//! `fuzz` is the differential fuzzer (DESIGN.md §4.13):
//!   `repro fuzz --seed-range A..B [--budget N] [--json DIR] [--inject-defect]`
//!   `repro fuzz --replay '<spec>'`
//! Each seed deterministically generates a config/workload point and checks
//! it against six independent oracles; failures are shrunk to a minimal
//! reproducer and printed as a `--replay` line. Exit 1 on any failure.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the measurement layer: reading the host clock and writing artifacts is its job (DESIGN.md 4.10)"
)]

use memres_bench::targets::{self, Run, TARGETS};
use memres_bench::{fuzz, observe, timing};
use memres_core::prelude::FaultPlan;
use memres_workloads::cells::{self, Cell, Setup};
use std::collections::HashMap;

fn valid_target(t: &str) -> bool {
    t == "all" || targets::find(t).is_some() || cells::find(t).is_some()
}

fn usage() -> String {
    let targets: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
    format!(
        "usage: repro [--smoke] [--scale X] [--seed N] [--json DIR] <target>...\n\
         targets: {} all\n\
         \u{20}        <cell> (time that cell alone)\n\
         \u{20}        trace <cell> | explain <cell> | report <cell>, each [--slow-ssd F],\n\
         \u{20}        cell one of: {}\n\
         \u{20}      repro diff <a> <b> [--threshold X]   (two `repro report --json` dirs)\n\
         \u{20}      repro fuzz --seed-range A..B [--budget N] [--json DIR] [--inject-defect]\n\
         \u{20}      repro fuzz --replay '<spec>'",
        targets.join(" "),
        cells::CELLS.map(|c| c.name).join(" "),
    )
}

/// `repro fuzz ...` — differential fuzzing against independent oracles.
/// Returns the process exit code.
fn fuzz_main(args: &[String]) -> i32 {
    let mut seed_range: Option<(u64, u64)> = None;
    let mut budget: u64 = 20_000_000;
    let mut replay: Option<String> = None;
    let mut json_dir: Option<String> = None;
    let mut inject_defect = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed-range" => {
                i += 1;
                let v = operand(args, i, "--seed-range", "a range A..B");
                let parsed = v
                    .split_once("..")
                    .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)));
                match parsed {
                    Some((a, b)) if a < b => seed_range = Some((a, b)),
                    _ => usage_error("--seed-range", "a range A..B with A < B"),
                }
            }
            "--budget" => {
                i += 1;
                budget = number(args, i, "--budget", "an event count", |_| true);
            }
            "--replay" => {
                i += 1;
                replay = Some(operand(args, i, "--replay", "a spec line").to_string());
            }
            "--json" => {
                i += 1;
                json_dir = Some(operand(args, i, "--json", "a directory").to_string());
            }
            "--inject-defect" => inject_defect = true,
            other => {
                eprintln!("error: unknown fuzz argument '{other}'");
                eprintln!("{}", usage());
                return 2;
            }
        }
        i += 1;
    }

    if let Some(line) = replay {
        let spec = match fuzz::FuzzSpec::parse(&line) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: bad spec: {e}");
                return 2;
            }
        };
        println!("replaying: {}", spec.encode());
        return match fuzz::check(&spec, budget) {
            Ok(()) => {
                println!("PASS: all oracles hold");
                0
            }
            Err(f) => {
                println!("FAIL [{}]: {}", f.oracle, f.message);
                1
            }
        };
    }

    let Some((start, end)) = seed_range else {
        eprintln!("error: fuzz needs --seed-range A..B or --replay '<spec>'");
        eprintln!("{}", usage());
        return 2;
    };
    let t0 = std::time::Instant::now();
    let outcomes = fuzz::run_range(start, end, budget, inject_defect, |o| {
        if let Some(f) = &o.failure {
            println!("seed {}: FAIL [{}] {}", o.seed, f.oracle, f.message);
            println!("  spec:      {}", o.spec.encode());
            if let Some(m) = &o.minimized {
                println!("  minimized: {}", m.replay_line());
            }
        }
    });
    let failures = outcomes.iter().filter(|o| o.failure.is_some()).count();
    println!(
        "fuzz: {} seeds, {} failures ({:.1}s)",
        outcomes.len(),
        failures,
        t0.elapsed().as_secs_f64()
    );
    if let Some(dir) = &json_dir {
        write_artifact(dir, "fuzz.json", &fuzz::to_json(&outcomes, budget));
    }
    if failures > 0 {
        1
    } else {
        0
    }
}

/// `repro diff <a> <b> [--threshold X]` — regression diff of two runs.
/// `<a>`/`<b>` are two `repro report --json` output directories. Returns
/// the process exit code: 1 when run B regressed past the threshold.
fn diff_main(args: &[String]) -> i32 {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = 0.05f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                let in_range = |t: &f64| (0.0..=10.0).contains(t);
                threshold = number(args, i, "--threshold", "a float in [0, 10]", in_range);
            }
            other => paths.push(other.to_string()),
        }
        i += 1;
    }
    let (a, b) = match paths.as_slice() {
        [a, b] if !(a.ends_with(".json") && b.ends_with(".json")) => (a, b),
        _ => {
            eprintln!("error: diff takes exactly two report directories (not JSON files)");
            eprintln!("{}", usage());
            return 2;
        }
    };

    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };

    // Every `<cell>.timeseries.csv` present in A is diffed against the same
    // cell in B (sorted, so output order is stable).
    let mut cells: Vec<String> = match std::fs::read_dir(a) {
        Ok(entries) => entries
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter_map(|f| Some(f.strip_suffix(".timeseries.csv")?.to_string()))
            .collect(),
        Err(e) => {
            eprintln!("error: cannot read directory {a}: {e}");
            return 2;
        }
    };
    cells.sort();
    if cells.is_empty() {
        eprintln!("error: {a} contains no *.timeseries.csv (run `repro report <cell> --json {a}`)");
        return 2;
    }
    let mut regressed = false;
    for cell in &cells {
        let d = memres_metrics::diff::diff_runs(
            &format!("{a}/{cell}"),
            &read(&format!("{a}/{cell}.timeseries.csv")),
            &read(&format!("{a}/{cell}.attrib.csv")),
            &format!("{b}/{cell}"),
            &read(&format!("{b}/{cell}.timeseries.csv")),
            &read(&format!("{b}/{cell}.attrib.csv")),
            threshold,
        );
        print!("{}", d.render());
        regressed |= d.regressed();
    }
    i32::from(regressed)
}

fn operand<'a>(args: &'a [String], i: usize, flag: &str, what: &str) -> &'a str {
    args.get(i)
        .map(String::as_str)
        .unwrap_or_else(|| usage_error(flag, what))
}

fn usage_error(flag: &str, what: &str) -> ! {
    eprintln!("error: {flag} takes {what}");
    std::process::exit(2);
}

/// The operand of `flag` as a number that satisfies `ok`; anything else is a
/// usage error (exit 2, nothing run). Every number on the command line is
/// read here, so none reaches the engine unchecked.
fn number<T: std::str::FromStr>(
    args: &[String],
    i: usize,
    flag: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> T {
    match operand(args, i, flag, what).parse() {
        Ok(v) if ok(&v) => v,
        _ => usage_error(flag, what),
    }
}

/// Write one artifact into the `--json` directory, creating it if need be.
fn write_artifact(dir: &str, file: &str, bytes: &str) {
    std::fs::create_dir_all(dir).expect("create json dir");
    let path = format!("{dir}/{file}");
    std::fs::write(&path, bytes).expect("write artifact");
    eprintln!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fuzz") {
        std::process::exit(fuzz_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("diff") {
        std::process::exit(diff_main(&args[1..]));
    }
    let mut setup = Setup::paper();
    let mut smoke = false;
    let mut json_dir: Option<String> = None;
    let mut targets: Vec<&str> = Vec::new();
    // `(subcommand, cell)` pairs for `trace`/`explain`/`report <cell>`.
    let mut cell_cmds: Vec<(&str, &str)> = Vec::new();
    let mut slow_ssd: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            cmd @ ("trace" | "explain" | "report") => {
                i += 1;
                let cell = operand(&args, i, cmd, "a cell name");
                if cells::find(cell).is_none() {
                    eprintln!("error: unknown cell '{cell}'");
                    eprintln!("{}", usage());
                    std::process::exit(2);
                }
                cell_cmds.push((cmd, cell));
            }
            "--smoke" => {
                setup = Setup::smoke();
                smoke = true;
            }
            "--slow-ssd" => {
                i += 1;
                let what = "a speed factor in (0, 1]";
                let in_range = |f: &f64| *f > 0.0 && *f <= 1.0;
                slow_ssd = Some(number(&args, i, "--slow-ssd", what, in_range));
            }
            "--scale" => {
                i += 1;
                // 100 is the scale family's 10,000 nodes; NaN is in no range.
                let in_range = |x: &f64| *x > 0.0 && *x <= 100.0;
                setup.scale = number(&args, i, "--scale", "a float in (0, 100]", in_range);
            }
            "--seed" => {
                i += 1;
                setup.seed = number(&args, i, "--seed", "an integer", |_| true);
            }
            "--json" => {
                i += 1;
                json_dir = Some(operand(&args, i, "--json", "a directory").to_string());
            }
            other => targets.push(other),
        }
        i += 1;
    }
    if slow_ssd.is_some() && cell_cmds.is_empty() {
        eprintln!("error: --slow-ssd applies to trace, explain and report <cell> only");
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    if targets.is_empty() && cell_cmds.is_empty() {
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    // Reject unknown targets before running anything: a typo at position N
    // must not cost N-1 experiments of wasted wall-clock first.
    let unknown: Vec<&&str> = targets.iter().filter(|t| !valid_target(t)).collect();
    if !unknown.is_empty() {
        for t in unknown {
            eprintln!("error: unknown target '{t}'");
        }
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    if targets.contains(&"all") {
        targets = targets::all().map(|t| t.name).collect();
    }

    let write_json = |name: &str, json: String| {
        if let Some(dir) = &json_dir {
            write_artifact(dir, &format!("{name}.json"), &format!("{json}\n"));
        }
    };
    // Time `selected`, print the table and write `<name>.json`.
    let timed = |name: &'static str, selected: Vec<&Cell>| {
        let mut records = Vec::new();
        for c in selected {
            let r = timing::run(c, setup);
            eprintln!("[{} took {:.1}s]", c.name, r.wall_s);
            records.push(r);
        }
        println!("{}", timing::table(name, &records).render());
        write_json(name, timing::to_json(name, setup, &records));
    };

    // An aborted job means the experiment did not actually reproduce the
    // paper's result; the process must say so in its exit code, not just in
    // a table cell nobody greps.
    let mut job_aborted = false;

    for name in &targets {
        let start = std::time::Instant::now();
        let target = targets::find(name);
        if let Some(printed) = target.and_then(|t| t.print(setup)) {
            print!("{}", printed.text);
            for t in printed.tables {
                write_json(t.id, t.to_json());
                job_aborted |= t
                    .try_column("aborted_jobs")
                    .is_some_and(|col| col.iter().any(|&v| v > 0.0));
            }
        } else if let Some((name, Run::Timed(select))) = target.map(|t| (t.name, &t.run)) {
            // The table's own name: a table id outlives the arguments.
            let selected = cells::CELLS.iter().filter(|c| select(c, smoke));
            timed(name, selected.collect());
        } else {
            let cell = cells::find(name).expect("validated above: a target or a cell");
            timed(cell.name, vec![cell]);
        }
        eprintln!("[{name} took {:.1}s]", start.elapsed().as_secs_f64());
    }

    // One observed run per cell, however many commands name it; it is
    // dropped after the last of them.
    let mut observed: HashMap<&str, observe::Observed> = HashMap::new();
    for (at, &(cmd, cell)) in cell_cmds.iter().enumerate() {
        let start = std::time::Instant::now();
        let run = observed.entry(cell).or_insert_with(|| {
            let faults = slow_ssd.map_or_else(FaultPlan::new, |f| {
                observe::slow_ssd(setup, cell, f).expect("cell validated above")
            });
            observe::run_cell(setup, cell, faults).expect("cell validated above")
        });
        // What the command prints, then what it writes: (file suffix, bytes).
        let (text, artifacts) = run.command(cmd);
        println!("{text}");
        for (suffix, bytes) in &artifacts {
            match &json_dir {
                Some(dir) => write_artifact(dir, &format!("{cell}.{suffix}"), bytes),
                None => eprintln!("hint: pass --json DIR to write {cell}.{suffix}"),
            }
        }
        if !cell_cmds[at + 1..].iter().any(|&(_, c)| c == cell) {
            observed.remove(cell);
        }
        eprintln!("[{cmd} {cell} took {:.1}s]", start.elapsed().as_secs_f64());
    }
    if job_aborted {
        eprintln!("error: a job aborted after exhausting task retries; results above are not a reproduction");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_target_table_is_the_command_line_and_the_docs() {
        let (usage, readme) = (usage(), include_str!("../../../../README.md"));
        let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
        for (i, t) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(t), "target {t} is listed twice");
            assert!(cells::find(t).is_none(), "{t} is also a cell name");
        }
        for name in names.into_iter().chain(cells::CELLS.map(|c| c.name)) {
            assert!(valid_target(name), "{name}");
            assert!(usage.contains(name), "usage is missing {name}");
            assert!(
                readme.contains(&format!("`{name}`")),
                "README is missing `{name}`"
            );
        }
        for word in ["all", "trace", "explain", "report", "diff", "fuzz"] {
            assert!(usage.contains(word), "usage is missing {word}");
            assert!(
                readme.contains(&format!("`{word}")),
                "README is missing `{word}`"
            );
        }
        assert!(valid_target("all"));
        assert_eq!(targets::all().count(), 22);
        for t in [
            "fig5", "figure5a", "fault", "", "tables", "benchh", "scale_2k",
        ] {
            assert!(!valid_target(t), "'{t}' should be rejected");
        }
    }
}
