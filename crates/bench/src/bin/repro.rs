//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!   repro [--smoke] [--scale X] [--json DIR] `<target>`...
//!   targets: table1 plans fig5a fig5b fig7a fig7b fig8a fig8b fig8c fig8d
//!            fig9a fig9b fig10 fig12a fig12b fig13a fig13b fig14 ablations
//!            baselines faults faults-abort tenants bench trace `<cell>`
//!            explain `<cell>` all
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
//! `scale` runs the scale-out family (1k–10k nodes, up to 4 M producers;
//! `--smoke` its CI-sized cell) and `<scale-cell>` — `scale_smoke`,
//! `scale_1k_100k`, `scale_4k_1m`, `scale_10k_1m`, `scale_10k_4m` — that
//! cell alone; with `--json DIR` they write `DIR/scale.json` and
//! `DIR/<scale-cell>.json`. Neither is part of `all`.
//!
//! `bench` times the simulator itself (host wall-clock) on the mid-size
//! Fig 7a/8a cells and, with `--json DIR`, writes `DIR/bench.json`. It is a
//! single-shot quick look — the repeated, bounded performance record is
//! `benchmark/`. It runs at paper scale (100 nodes) by default; pass
//! `--smoke` for a quick CI run.
//!
//! `trace <cell>` re-runs one bench cell with full event tracing and, with
//! `--json DIR`, writes `DIR/<cell>.trace.json` (Chrome trace-event form,
//! loadable in Perfetto) plus `DIR/<cell>.events.jsonl` (compact log).
//! `explain <cell>` prints the critical-path attribution table and the
//! top straggler attempts instead (see DESIGN.md §4.11).
//!
//! `report <cell>` re-runs one bench cell with the sim-time periodic
//! sampler on (DESIGN.md §4.16) and, with `--json DIR`, writes
//! `DIR/<cell>.openmetrics`, `DIR/<cell>.timeseries.csv`,
//! `DIR/<cell>.dashboard.html` and `DIR/<cell>.attrib.csv`. All four are
//! byte-deterministic. `--slow-ssd F` injects an SSD degradation (speed
//! factor F) one simulated second in — the known-regression fixture.
//!
//! `diff <a> <b> [--threshold X]` joins two `report` output directories
//! into a ranked regression report (time-series join + critical-path
//! attribution of what moved). Exit 1 when run B regressed past the
//! threshold (default 5%).
//!
//! `fuzz` is the differential fuzzer (DESIGN.md §4.13):
//!   repro fuzz --seed-range A..B [--budget N] [--json DIR] [--inject-defect]
//!   repro fuzz --replay '<spec>'
//! Each seed deterministically generates a config/workload point and checks
//! it against six independent oracles; failures are shrunk to a minimal
//! reproducer and printed as a `--replay` line. Exit 1 on any failure.

use memres_bench::experiments as ex;
use memres_bench::{fuzz, perf, report, scale, tenants, trace, Table};
use std::io::Write;

/// Every runnable target, in `all` order (`bench` is opt-in, not in `all`).
const ALL_TARGETS: [&str; 22] = [
    "table1",
    "plans",
    "fig5a",
    "fig5b",
    "fig7a",
    "fig7b",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig8d",
    "fig9a",
    "fig9b",
    "fig10",
    "fig12a",
    "fig12b",
    "fig13a",
    "fig13b",
    "fig14",
    "ablations",
    "baselines",
    "faults",
    "tenants",
];

fn valid_target(t: &str) -> bool {
    t == "all"
        || t == "bench"
        || t == "scale"
        || t == "fig14a"
        || t == "fig14b"
        || t == "faults-abort"
        || scale::cell(t).is_some()
        || ALL_TARGETS.contains(&t)
}

fn usage() -> String {
    format!(
        "usage: repro [--smoke] [--scale X] [--seed N] [--json DIR] <target>...\n\
         targets: {} fig14a fig14b faults-abort bench scale all\n\
         \u{20}        {} (one scale cell alone)\n\
         \u{20}        trace <cell> | explain <cell> | report <cell> [--slow-ssd F],\n\
         \u{20}        cell one of: {}\n\
         \u{20}      repro diff <a> <b> [--threshold X]   (two `repro report --json` dirs)\n\
         \u{20}      repro fuzz --seed-range A..B [--budget N] [--json DIR] [--inject-defect]\n\
         \u{20}      repro fuzz --replay '<spec>'",
        ALL_TARGETS.join(" "),
        scale::SCALE_CELLS.map(|c| c.name).join(" "),
        perf::CELL_NAMES.join(" ")
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
                budget = operand(args, i, "--budget", "an event count")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--budget", "an event count"));
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
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = format!("{dir}/fuzz.json");
        std::fs::write(&path, fuzz::to_json(&outcomes, budget)).expect("write fuzz json");
        eprintln!("wrote {path}");
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
                threshold = operand(args, i, "--threshold", "a float")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--threshold", "a float"));
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
    if !(0.0..=10.0).contains(&threshold) {
        usage_error("--threshold", "a float in [0, 10]");
    }

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
        let d = report::diff_reports(
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fuzz") {
        std::process::exit(fuzz_main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("diff") {
        std::process::exit(diff_main(&args[1..]));
    }
    let mut setup = ex::Setup::paper();
    let mut smoke = false;
    let mut json_dir: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    // `(subcommand, cell)` pairs for `trace`/`explain`/`report <cell>`.
    let mut cell_cmds: Vec<(String, String)> = Vec::new();
    let mut slow_ssd: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            cmd @ ("trace" | "explain" | "report") => {
                let cmd = cmd.to_string();
                i += 1;
                let cell = operand(&args, i, &cmd, "a cell name").to_string();
                if !perf::CELL_NAMES.contains(&cell.as_str()) {
                    eprintln!("error: unknown cell '{cell}'");
                    eprintln!("{}", usage());
                    std::process::exit(2);
                }
                cell_cmds.push((cmd, cell));
            }
            "--smoke" => {
                setup = ex::Setup::smoke();
                smoke = true;
            }
            "--slow-ssd" => {
                i += 1;
                let f: f64 = operand(&args, i, "--slow-ssd", "a speed factor in (0, 1]")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--slow-ssd", "a speed factor in (0, 1]"));
                if !(f > 0.0 && f <= 1.0) {
                    usage_error("--slow-ssd", "a speed factor in (0, 1]");
                }
                slow_ssd = Some(f);
            }
            "--scale" => {
                i += 1;
                setup.scale = operand(&args, i, "--scale", "a float")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--scale", "a float"));
            }
            "--seed" => {
                i += 1;
                setup.seed = operand(&args, i, "--seed", "an integer")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed", "an integer"));
            }
            "--json" => {
                i += 1;
                json_dir = Some(operand(&args, i, "--json", "a directory").to_string());
            }
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() && cell_cmds.is_empty() {
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    // Reject unknown targets before running anything: a typo at position N
    // must not cost N-1 experiments of wasted wall-clock first.
    let unknown: Vec<&String> = targets.iter().filter(|t| !valid_target(t)).collect();
    if !unknown.is_empty() {
        for t in unknown {
            eprintln!("error: unknown target '{t}'");
        }
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    if targets.iter().any(|t| t == "all") {
        targets = ALL_TARGETS.iter().map(|s| s.to_string()).collect();
    }

    // Render a table (and its JSON, when requested); report whether any run
    // inside it aborted so main can turn that into a non-zero exit code.
    let emit = |t: &Table, json_dir: &Option<String>| -> bool {
        println!("{}", t.render());
        if let Some(dir) = json_dir {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = format!("{dir}/{}.json", t.id);
            let mut f = std::fs::File::create(&path).expect("create json file");
            let _ = writeln!(f, "{}", t.to_json());
            eprintln!("wrote {path}");
        }
        t.try_column("aborted_jobs")
            .is_some_and(|col| col.iter().any(|&v| v > 0.0))
    };

    // An aborted job means the experiment did not actually reproduce the
    // paper's result; the process must say so in its exit code, not just in
    // a table cell nobody greps.
    let mut job_aborted = false;

    for target in &targets {
        let start = std::time::Instant::now();
        match target.as_str() {
            "table1" => job_aborted |= emit(&ex::table1(), &json_dir),
            "plans" => println!("{}", ex::plans(setup)),
            "fig5a" => job_aborted |= emit(&ex::fig5a(setup), &json_dir),
            "fig5b" => job_aborted |= emit(&ex::fig5b(setup), &json_dir),
            "fig7a" => job_aborted |= emit(&ex::fig7a(setup), &json_dir),
            "fig7b" => job_aborted |= emit(&ex::fig7b(setup), &json_dir),
            "fig8a" => job_aborted |= emit(&ex::fig8a(setup), &json_dir),
            "fig8b" => job_aborted |= emit(&ex::fig8b(setup), &json_dir),
            "fig8c" => job_aborted |= emit(&ex::fig8c(setup), &json_dir),
            "fig8d" => job_aborted |= emit(&ex::fig8d(setup), &json_dir),
            "fig9a" => job_aborted |= emit(&ex::fig9a(setup), &json_dir),
            "fig9b" => job_aborted |= emit(&ex::fig9b(setup), &json_dir),
            "fig10" => job_aborted |= emit(&ex::fig10(setup), &json_dir),
            "fig12a" => job_aborted |= emit(&ex::fig12a(setup), &json_dir),
            "fig12b" => job_aborted |= emit(&ex::fig12b(setup), &json_dir),
            "fig13a" => job_aborted |= emit(&ex::fig13a(setup), &json_dir),
            "fig13b" => job_aborted |= emit(&ex::fig13b(setup), &json_dir),
            "baselines" => job_aborted |= emit(&ex::baseline_speculation(setup), &json_dir),
            "faults" => job_aborted |= emit(&ex::faults(setup), &json_dir),
            "faults-abort" => job_aborted |= emit(&ex::faults_abort(setup), &json_dir),
            family if family == "scale" || scale::cell(family).is_some() => {
                // The family (`--smoke`: only the CI-sized cell), or the one
                // cell named.
                let cells = scale::cell(family).map_or_else(|| scale::selected(smoke), |c| vec![c]);
                let mut records = Vec::new();
                for c in cells {
                    let r = scale::run(c, setup.seed);
                    eprintln!("[{} took {:.1}s]", c.name, r.perf.wall_s);
                    records.push(r);
                }
                println!("{}", scale::table(&records).render());
                if let Some(dir) = &json_dir {
                    std::fs::create_dir_all(dir).expect("create json dir");
                    let path = format!("{dir}/{family}.json");
                    let mut f = std::fs::File::create(&path).expect("create json file");
                    let _ = writeln!(f, "{}", scale::to_json(setup.seed, &records));
                    eprintln!("wrote {path}");
                }
            }
            "bench" => {
                let records = perf::suite(setup);
                println!("{}", perf::table(&records).render());
                if let Some(dir) = &json_dir {
                    std::fs::create_dir_all(dir).expect("create json dir");
                    let path = format!("{dir}/bench.json");
                    let mut f = std::fs::File::create(&path).expect("create json file");
                    let _ = writeln!(f, "{}", perf::to_json(setup, &records));
                    eprintln!("wrote {path}");
                }
            }
            "ablations" => {
                job_aborted |= emit(&ex::ablation_elb_threshold(setup), &json_dir);
                job_aborted |= emit(&ex::ablation_cad_step(setup), &json_dir);
                job_aborted |= emit(&ex::ablation_delay_wait(setup), &json_dir);
            }
            "tenants" => {
                job_aborted |= emit(&tenants::policies(setup), &json_dir);
                job_aborted |= emit(&tenants::elb_interleaved(setup), &json_dir);
                job_aborted |= emit(&tenants::cad_starvation(setup), &json_dir);
            }
            "fig14" | "fig14a" | "fig14b" => {
                let (a, b) = ex::fig14(setup);
                job_aborted |= emit(&a, &json_dir);
                job_aborted |= emit(&b, &json_dir);
            }
            other => unreachable!("target '{other}' passed validation but has no handler"),
        }
        eprintln!("[{target} took {:.1}s]", start.elapsed().as_secs_f64());
    }

    for (cmd, cell) in &cell_cmds {
        let start = std::time::Instant::now();
        if cmd == "report" {
            let run = report::run_cell(setup, cell, slow_ssd).expect("cell validated above");
            println!(
                "report {}: {} sampler ticks over {:.3}s simulated job time",
                run.cell, run.ticks, run.job_s
            );
            if let Some(dir) = &json_dir {
                std::fs::create_dir_all(dir).expect("create json dir");
                for (suffix, bytes) in [
                    ("openmetrics", &run.openmetrics),
                    ("timeseries.csv", &run.timeseries_csv),
                    ("dashboard.html", &run.dashboard_html),
                    ("attrib.csv", &run.attrib_csv),
                ] {
                    let path = format!("{dir}/{cell}.{suffix}");
                    std::fs::write(&path, bytes).expect("write report artifact");
                    eprintln!("wrote {path}");
                }
            } else {
                eprintln!(
                    "hint: pass --json DIR to write {cell}.openmetrics, \
                     {cell}.timeseries.csv, {cell}.dashboard.html, {cell}.attrib.csv"
                );
            }
            eprintln!("[{cmd} {cell} took {:.1}s]", start.elapsed().as_secs_f64());
            continue;
        }
        let run = trace::run_cell(setup, cell).expect("cell validated above");
        println!("{}", trace::report(&run, 5));
        if cmd == "trace" {
            if let Some(dir) = &json_dir {
                std::fs::create_dir_all(dir).expect("create json dir");
                let tj = format!("{dir}/{cell}.trace.json");
                std::fs::write(&tj, run.chrome_json()).expect("write trace json");
                eprintln!("wrote {tj}");
                let jl = format!("{dir}/{cell}.events.jsonl");
                std::fs::write(&jl, run.events_jsonl()).expect("write events jsonl");
                eprintln!("wrote {jl}");
            } else {
                eprintln!("hint: pass --json DIR to write {cell}.trace.json (Perfetto) and {cell}.events.jsonl");
            }
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
    fn every_all_target_is_valid() {
        for t in ALL_TARGETS {
            assert!(valid_target(t), "{t}");
        }
        for t in ["all", "bench", "scale", "fig14a", "fig14b"] {
            assert!(valid_target(t), "{t}");
        }
        for c in scale::SCALE_CELLS {
            assert!(valid_target(c.name), "{}", c.name);
        }
    }

    #[test]
    fn typos_are_invalid() {
        for t in [
            "fig5", "figure5a", "fault", "", "tables", "benchh", "scale_2k",
        ] {
            assert!(!valid_target(t), "'{t}' should be rejected");
        }
    }

    #[test]
    fn usage_lists_every_target() {
        let u = usage();
        for t in ALL_TARGETS {
            assert!(u.contains(t), "usage is missing {t}");
        }
        assert!(u.contains("bench scale all"));
        assert!(u.contains("scale_smoke scale_1k_100k"));
    }
}
