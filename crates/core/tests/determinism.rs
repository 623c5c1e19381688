//! In-process double-run determinism (DESIGN.md §4.10).
//!
//! Two engines built from scratch in the same process get differently-salted
//! `RandomState`s for every `std::collections` hash table they (or their
//! dependencies) hold. If any simulation-visible code iterated one, event
//! order — and with it float accumulation, task placement, and the exported
//! metrics — would differ between the two instances. Serializing both runs
//! through `export::job_json` / `export::tasks_csv` and comparing *bytes*
//! therefore catches exactly the class of bug rule R1 (`clippy.toml`'s
//! `disallowed-types`) exists to prevent, from the behavioral side.

use memres_core::export;
use memres_core::prelude::*;
use memres_des::time::SimDuration;

/// A shuffle-heavy wordcount over enough partitions that placement, fetch
/// scheduling, and aggregation order all get exercised.
fn workload() -> (Rdd, Action) {
    let recs: Vec<Record> = (0..600)
        .map(|i| (Value::Null, Value::str(format!("w{}", i % 37))))
        .collect();
    let rdd = Rdd::source(Dataset::from_records(recs, 12))
        .map("kv", SizeModel::scan(), |(_, v)| (v, Value::I64(1)))
        .reduce_by_key(Some(5), 1e9, 1.0, |a, b| {
            Value::I64(a.as_i64() + b.as_i64())
        });
    (rdd, Action::Count)
}

/// One fresh engine, end to end, rendered to export bytes. The lineage graph
/// is rebuilt per run on purpose: shared `Rdd` handles would hide any
/// instance-keyed nondeterminism.
fn run_once(cfg: EngineConfig) -> (u64, String, String) {
    let (rdd, action) = workload();
    let mut d = Driver::new(memres_cluster::tiny(6), cfg);
    let (out, metrics) = d.run(&rdd, action);
    (
        out.count,
        export::job_json(&metrics),
        export::tasks_csv(&metrics),
    )
}

#[test]
fn double_run_exports_are_byte_identical() {
    let cfg = || EngineConfig::default().homogeneous();
    let (count_a, json_a, csv_a) = run_once(cfg());
    let (count_b, json_b, csv_b) = run_once(cfg());
    assert_eq!(count_a, count_b);
    assert_eq!(count_a, 37, "one output group per distinct word");
    assert_eq!(
        json_a, json_b,
        "job.json must be byte-identical across runs"
    );
    assert_eq!(csv_a, csv_b, "tasks.csv must be byte-identical across runs");
}

/// One fresh *traced* engine run, rendered to the two trace export forms.
fn run_traced(cfg: EngineConfig) -> (u64, String, String) {
    let (rdd, action) = workload();
    let mut d = Driver::new(memres_cluster::tiny(6), cfg);
    let (out, _) = d.run(&rdd, action);
    let events = d.take_trace();
    assert!(!events.is_empty(), "traced run must record events");
    (
        out.count,
        memres_trace::export::events_jsonl(&events),
        memres_trace::export::chrome_trace_json(&events),
    )
}

#[test]
fn trace_bytes_identical_across_executor_threads_and_runs() {
    // The trace log is simulation-visible state: a single event out of
    // order — from hash iteration, host-thread races, or wall-clock leakage
    // — changes the exported bytes. Faults are on so retry/recovery events
    // are exercised too.
    let cfg = |threads| {
        EngineConfig::default()
            .homogeneous()
            .with_executor_threads(threads)
            .with_faults(FaultPlan::seeded(7, 6, 3, SimDuration::from_secs(60)))
            .with_trace()
    };
    let (count_1, jsonl_1, chrome_1) = run_traced(cfg(1));
    let (count_4, jsonl_4, chrome_4) = run_traced(cfg(4));
    let (count_r, jsonl_r, chrome_r) = run_traced(cfg(1));
    assert_eq!(count_1, count_4);
    assert_eq!(count_1, count_r);
    assert_eq!(
        jsonl_1, jsonl_4,
        "events.jsonl must not depend on executor thread count"
    );
    assert_eq!(
        chrome_1, chrome_4,
        "trace.json must not depend on executor thread count"
    );
    assert_eq!(
        jsonl_1, jsonl_r,
        "double-run events.jsonl must be identical"
    );
    assert_eq!(
        chrome_1, chrome_r,
        "double-run trace.json must be identical"
    );
}

#[test]
fn tracing_does_not_change_simulated_outcomes() {
    // Turning the tracer on must be pure observation: the exported metrics
    // (job.json / tasks.csv) are byte-identical with tracing off and on.
    let base = || EngineConfig::default().homogeneous();
    let (count_off, json_off, csv_off) = run_once(base());
    let (count_on, json_on, csv_on) = run_once(base().with_trace());
    assert_eq!(count_off, count_on);
    assert_eq!(json_off, json_on, "tracing must not perturb job.json");
    assert_eq!(csv_off, csv_on, "tracing must not perturb tasks.csv");
}

#[test]
fn double_run_is_deterministic_under_faults_and_threads() {
    // Recovery paths reshuffle task placement and re-host lost partitions;
    // executor threads race UDF completion on the host. Neither is allowed
    // to leak into simulated outcomes.
    let cfg = || {
        EngineConfig::default()
            .homogeneous()
            .with_executor_threads(4)
            .with_faults(FaultPlan::seeded(7, 6, 3, SimDuration::from_secs(60)))
    };
    let (count_a, json_a, csv_a) = run_once(cfg());
    let (count_b, json_b, csv_b) = run_once(cfg());
    assert_eq!(count_a, count_b);
    assert_eq!(json_a, json_b, "faulted job.json must be byte-identical");
    assert_eq!(csv_a, csv_b, "faulted tasks.csv must be byte-identical");
}
