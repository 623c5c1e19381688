//! Tests of the harness itself, on jobs small enough for a debug build.

use super::*;
use json::Json;
use memres_core::{
    ArrivalProcess, EngineConfig, InputSource, InterJobPolicy, ShuffleStore, StoreDevice,
    StreamSpec, TenantSpec,
};
use memres_des::units::MB;
use memres_workloads::{Grep, GroupBy};
use std::sync::Arc;
use workloads::Job;

fn tiny_cfg() -> EngineConfig {
    EngineConfig {
        input: InputSource::Lustre,
        shuffle: ShuffleStore::Local(StoreDevice::RamDisk),
        ..EngineConfig::default()
    }
    .with_executor_threads(1)
}

fn tiny_single(cfg: EngineConfig) -> Inputs {
    let job = GroupBy::new(64.0 * MB)
        .with_split(8.0 * MB)
        .with_reducers(4);
    Inputs {
        spec: memres_cluster::tiny(4),
        cfg,
        job: Job::Single {
            rdd: job.build(),
            action: job.action(),
        },
        expect_count: None,
    }
}

fn tiny_stream() -> Inputs {
    let tenants = vec![
        TenantSpec::new(
            "groupby",
            2,
            ArrivalProcess::Periodic { period_secs: 0.01 },
            Arc::new(|_| {
                let job = GroupBy::new(64.0 * MB)
                    .with_split(8.0 * MB)
                    .with_reducers(4);
                (job.build(), job.action())
            }),
        ),
        TenantSpec::new(
            "grep",
            2,
            ArrivalProcess::OpenExp { mean_secs: 0.01 },
            Arc::new(|_| {
                let job = Grep::new(32.0 * MB).with_split(8.0 * MB);
                (job.build(), job.action())
            }),
        ),
    ];
    Inputs {
        spec: memres_cluster::tiny(4),
        cfg: tiny_cfg(),
        job: Job::Stream(
            StreamSpec::new(tenants, InterJobPolicy::FairShare, 3).with_max_concurrent(2),
        ),
        expect_count: None,
    }
}

/// A `Measured` around `inputs`, as `prepare` + one `repeat` would leave it.
fn measured(inputs: Inputs) -> Measured {
    let mut m = Measured {
        workload: &WORKLOADS[0],
        warmup: timed_run(&inputs),
        inputs,
        cheap_setup: true,
        setup_s: vec![1e-6, 2e-6, 3e-6],
        samples: Vec::new(),
        timed_for: Duration::ZERO,
        attempted: 1,
        failures: Vec::new(),
        layers: Vec::new(),
        spans: None,
    };
    repeat(&mut m, 1);
    m
}

#[test]
fn traced_loop_reproduces_the_driver_run() {
    for inputs in [
        tiny_single(tiny_cfg()),
        tiny_single(tiny_cfg().with_trace().with_metrics()),
        tiny_stream(),
    ] {
        let untraced = workloads::run_untraced(&inputs);
        workloads::check(&inputs, &untraced).expect("tiny job passes its checks");
        let traced = traced::run_traced(&inputs);
        assert_eq!(untraced, traced.outcome);
        // Every entry into the kernel loop's children is one event.
        let sp = &traced.spans;
        let handled: u64 = sp
            .nodes()
            .iter()
            .filter(|n| n.name.starts_with("core.world.handle."))
            .map(|n| n.count)
            .sum();
        assert_eq!(handled, untraced.events);
        let all_self: u64 = (0..sp.nodes().len()).map(|id| sp.self_ns(id)).sum();
        assert_eq!(all_self, sp.nodes()[traced.root].total_ns);
        assert_eq!(inputs.observed(), traced.trace_events > 0);
    }
}

#[test]
fn a_failed_check_is_reported() {
    let mut inputs = tiny_single(tiny_cfg());
    let out = workloads::run_untraced(&inputs);
    inputs.expect_count = Some(out.output_count + 1);
    assert!(workloads::check(&inputs, &out).is_err());
    let mut aborted = out.clone();
    aborted.aborted = true;
    inputs.expect_count = None;
    assert!(workloads::check(&inputs, &aborted).is_err());

    let stream = tiny_stream();
    let mut out = workloads::run_untraced(&stream);
    workloads::check(&stream, &out).expect("tiny stream overlaps");
    out.overlapping_jobs = 1;
    assert!(workloads::check(&stream, &out).is_err());
}

fn benchmark_json() -> Json {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks {key}"))
}

/// `(name, unit)` of every entry of one of `BENCHMARK.json`'s metric lists.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    let list = doc.get(key).and_then(Json::as_arr).expect("array");
    list.iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_workloads_and_end_to_end_metrics() {
    let doc = benchmark_json();
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("array");

    let declared_workloads: Vec<(&str, &str)> = list("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let built: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared_workloads, built);
    for (name, why) in &built {
        assert!(name_ok(name), "workload name {name:?}");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
    }

    assert_eq!(list("end_to_end").len(), END_TO_END.len());
    for (decl, e) in list("end_to_end").iter().zip(&END_TO_END) {
        assert_eq!(field(decl, "name"), e.name);
        assert_eq!(field(decl, "unit"), e.unit);
        assert_eq!(field(decl, "better"), "lower");
        assert_eq!(decl.get("bound").and_then(Json::as_f64), Some(e.bound));
        assert!(e.bound <= 0.25 && name_ok(e.name));
    }
    // Set-up gets the largest bound.
    assert_eq!(END_TO_END[0].name, "setup_s");
    assert!(END_TO_END.iter().all(|e| e.bound <= END_TO_END[0].bound));

    assert_eq!(list("paths"), [Json::Str("benchmark".into())]);
    let secs = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
}

#[test]
fn result_line_carries_every_declared_metric() {
    let doc = benchmark_json();
    let mut m = measured(tiny_single(tiny_cfg()));
    let line = json::parse(&contract_line(&m, false)).expect("contract line parses");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(2.0));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics is not an object");
    };
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, v)| (k.clone(), field(v, "unit").to_string()))
        .collect();
    assert_eq!(emitted, declared(&doc, "end_to_end"));
    for (_, v) in metrics {
        assert!(v.get("value").and_then(Json::as_f64).expect("value") > 0.0);
    }

    trace(&mut m, 1);
    m.fail("injected".into());
    let line = json::parse(&contract_line(&m, true)).expect("traced contract line parses");
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(
        line.get("attempted").and_then(Json::as_f64),
        Some((2 + TRACED_RUNS) as f64)
    );
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics is not an object");
    };
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, v)| (k.clone(), field(v, "unit").to_string()))
        .collect();
    assert_eq!(emitted, declared(&doc, "per_layer"));
    assert!(emitted.len() <= 128);

    // Every name obeys the contract's grammar and is used once.
    let mut names: Vec<&str> = emitted.iter().map(|(n, _)| n.as_str()).collect();
    names.extend(END_TO_END.iter().map(|e| e.name));
    names.extend(WORKLOADS.iter().map(|w| w.name));
    for n in &names {
        assert!(name_ok(n), "name {n:?} breaks the grammar");
    }
    let unique: std::collections::HashSet<&&str> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    let report = report_json(&Provenance::collect(1, "test".into()), &[vec![m]]);
    json::parse(&report).expect("the --out report parses");
}

#[test]
fn expected_json_pins_every_workload() {
    // The four values BENCH_10.json already records for these cells.
    for (name, sim_job_s, events) in [
        ("paper_ramdisk", 4.588010062, 12_815),
        ("paper_lustre_local", 15.125802961, 13_832),
        ("paper_ssd", 10.572712511, 28_861),
        ("scale_1k_100k", 105.48887312, 474_953),
    ] {
        assert_eq!(pinned(name), (sim_job_s, events), "{name}");
    }
    for w in &WORKLOADS {
        let (sim_job_s, events) = pinned(w.name);
        assert!(sim_job_s > 0.0 && events > 0, "{} is not pinned", w.name);
    }
    // Observing a run must not change what it simulates.
    assert_eq!(
        pinned("paper_ramdisk_observed").0,
        pinned("paper_ramdisk").0
    );
}

#[test]
fn aa_verdicts() {
    assert_eq!(verdict([0.03, 0.04], [1.00, 1.05], 0.10), Verdict::Agree);
    assert_eq!(verdict([0.03, 0.04], [1.00, 1.20], 0.10), Verdict::Regress);
    assert_eq!(verdict([0.03, 0.04], [1.20, 1.00], 0.10), Verdict::Agree);
    assert_eq!(
        verdict([0.03, 0.40], [1.00, 1.00], 0.10),
        Verdict::Unresolved
    );
    assert_eq!(
        verdict([0.40, 0.03], [1.00, 1.20], 0.10),
        Verdict::Unresolved
    );
}

#[test]
fn arguments() {
    let args = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let a = args("--workload paper_ssd --seed 7 --seconds 2.5 --trace 1").expect("valid");
    assert_eq!(a.workload.map(|w| w.name), Some("paper_ssd"));
    assert_eq!(a.seed, 7);
    assert!(matches!(a.budget, Budget::Seconds(s) if s == 2.5));
    assert!(a.trace && !a.aa && a.out.is_none());
    assert!(matches!(
        args("--reps 0 --aa").expect("valid").budget,
        Budget::Reps(0)
    ));
    for bad in [
        "--workload nope",
        "--seed x",
        "--trace 2",
        "--seconds -1",
        "--seconds",
        "--frobnicate 1",
    ] {
        assert!(args(bad).is_err(), "{bad:?} must be refused");
    }
}
