//! In-process double-run determinism (DESIGN.md §4.10).
//!
//! Two engines built from scratch in the same process get differently-salted
//! `RandomState`s for every `std::collections` hash table they (or their
//! dependencies) hold. If any simulation-visible code iterated one, event
//! order — and with it float accumulation, task placement, and the recorded
//! metrics — would differ between the two instances. Rendering both runs'
//! `JobMetrics` with `Debug` (every field, each `f64` in its shortest
//! round-trip form) and comparing the strings therefore catches exactly the
//! class of bug rule R1 (`clippy.toml`'s `disallowed-types`) exists to
//! prevent, from the behavioral side.

mod common;
#[path = "../../bench/tests/pins/mod.rs"]
mod pins;

use common::{heavy_groupby, skewed_speculative, two_tenant_fair_share};
use memres_core::prelude::*;
use memres_des::time::SimDuration;
use memres_trace::TraceEvent;

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

/// One fresh engine, end to end, its metrics rendered with `Debug`. The
/// lineage graph is rebuilt per run on purpose: shared `Rdd` handles would
/// hide any instance-keyed nondeterminism.
fn run_once(cfg: EngineConfig) -> (u64, String) {
    let (count, metrics, ..) = observe(cfg);
    (count, format!("{metrics:?}"))
}

#[test]
fn double_run_metrics_are_identical() {
    let cfg = || EngineConfig::default().homogeneous();
    let (count_a, metrics_a) = run_once(cfg());
    let (count_b, metrics_b) = run_once(cfg());
    assert_eq!(count_a, count_b);
    assert_eq!(count_a, 37, "one output group per distinct word");
    assert_eq!(
        metrics_a, metrics_b,
        "metrics must be identical across runs"
    );
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
    // Observers are free: the tracer and the metrics sampler, alone or
    // together, with or without faults, leave the output and the job's
    // metrics as the unobserved run has them, and add no event but the
    // sampler's ticks. Nor does the sampler move the trace: `repro trace`
    // records it with the sampler on. The job runs ~25 ms: the sampler ticks every
    // millisecond, and the plan spreads its faults over 80 ms, so a crash,
    // its restart, retries and failed fetches land inside the job.
    let sampled = |cfg| EngineConfig {
        metrics: Some(memres_metrics::MetricsConfig {
            interval: SimDuration::from_millis(1),
            ..Default::default()
        }),
        ..cfg
    };
    for faults in [
        None,
        Some(FaultPlan::seeded(7, 6, 3, SimDuration::from_millis(80))),
    ] {
        let faulted = faults.is_some();
        let base = EngineConfig {
            faults,
            ..EngineConfig::default().homogeneous()
        };
        let (count, metrics, steps, _, _) = observe(base.clone());
        assert_eq!(metrics.recovery.any(), faulted, "the plan's faults land");
        let fingerprint = format!("{metrics:?}");
        let observed = [
            ("trace", base.clone().with_trace()),
            ("metrics", sampled(base.clone())),
            ("trace + metrics", sampled(base.with_trace())),
        ];
        let mut traced = Vec::new();
        for (name, cfg) in observed {
            let sampling = cfg.metrics.is_some();
            let (o_count, o_metrics, o_steps, ticks, trace) = observe(cfg);
            let at = format!("{name}, faulted: {faulted}");
            assert_eq!(o_count, count, "{at}: the output moved");
            assert_eq!(
                format!("{o_metrics:?}"),
                fingerprint,
                "{at}: the metrics moved"
            );
            assert_eq!(ticks > 20, sampling, "{at}: who samples");
            assert_eq!(o_steps, steps + ticks, "{at}: events beyond the ticks");
            match name {
                "trace" => traced = trace,
                "trace + metrics" => assert!(trace == traced, "{at}: the trace moved"),
                _ => assert!(trace.is_empty(), "{at}: traced untraced"),
            }
        }
        assert!(!traced.is_empty(), "faulted: {faulted}: nothing traced");
    }
}

/// One fresh engine run: its output count, its metrics, the events it
/// processed, the metrics sampler's ticks and the trace.
fn observe(cfg: EngineConfig) -> (u64, JobMetrics, u64, u64, Vec<memres_core::TimedEvent>) {
    let (rdd, action) = workload();
    let mut d = Driver::new(memres_cluster::tiny(6), cfg);
    let (out, metrics) = d.run(&rdd, action);
    let ticks = d.recorder().map_or(0, |r| r.ticks());
    (out.count, metrics, d.engine_steps(), ticks, d.take_trace())
}

#[test]
fn double_run_is_deterministic_under_faults_and_threads() {
    // Recovery paths reshuffle task placement and re-host lost partitions;
    // executor threads race UDF completion on the host. Neither is allowed
    // to leak into simulated outcomes: two runs on a pool and one on a
    // single thread record the same metrics. The job runs ~25 ms; the plan
    // spreads its faults over 80 ms, so a crash, retries and failed fetches
    // land inside it.
    let cfg = |threads| {
        EngineConfig::default()
            .homogeneous()
            .with_executor_threads(threads)
            .with_faults(FaultPlan::seeded(7, 6, 3, SimDuration::from_millis(80)))
    };
    assert!(observe(cfg(1)).1.recovery.any(), "the plan's faults land");
    let (count_a, metrics_a) = run_once(cfg(4));
    let (count_b, metrics_b) = run_once(cfg(4));
    let (count_1, metrics_1) = run_once(cfg(1));
    assert_eq!(count_a, count_b);
    assert_eq!(count_a, count_1);
    assert_eq!(
        metrics_a, metrics_b,
        "faulted metrics must be identical across runs"
    );
    assert_eq!(
        metrics_a, metrics_1,
        "faulted metrics must not depend on executor thread count"
    );
}

/// Real records through two chained shuffles: the first shuffle's reducers
/// are the second's producers, so each flushes the size its aggregation
/// actually had, while its record keeps the size model's launch estimate.
fn two_shuffles() -> (Rdd, Action) {
    let recs: Vec<Record> = (0..400)
        .map(|i| (Value::I64(i % 23), Value::I64(i)))
        .collect();
    let rdd = Rdd::source(Dataset::from_records(recs, 6))
        .group_by_key(Some(4), 1e9)
        .map("size-key", SizeModel::scan(), |(_, v)| {
            (Value::I64(v.as_list().len() as i64), Value::I64(1))
        })
        .reduce_by_key(Some(3), 1e9, 1.0, |a, b| {
            Value::I64(a.as_i64() + b.as_i64())
        });
    (rdd, Action::Collect)
}

#[test]
fn a_real_reducer_records_its_estimate_and_flushes_its_adopted_size() {
    pins::check(pins::named(CASES, &["two_shuffles"]));
}

/// Pins of the two-shuffle real job, which asserts its groups: stage 1's
/// reducers feed the second shuffle, so their flushes store the adopted
/// aggregation sizes and their own records the estimates.
fn two_shuffles_pins() -> Vec<pins::Pin> {
    let (rdd, action) = two_shuffles();
    let mut d = Driver::new(
        memres_cluster::tiny(4),
        EngineConfig::default().homogeneous(),
    );
    let (out, m) = d.run(&rdd, action);
    // Real reducers adopt their aggregation's count.
    assert_eq!(out.count, 2, "two real shuffles");
    let groups = out.records.expect("real records collect");
    let counts: Vec<(i64, i64)> = groups
        .iter()
        .map(|(k, v)| (k.as_i64(), v.as_i64()))
        .collect();
    assert_eq!(counts, [(17, 14), (18, 9)], "23 keys by group size");
    let stage1 = |phase| -> f64 {
        let rows = m.tasks_in(phase).filter(|t| t.stage == 1);
        rows.map(|t| t.output_bytes).sum()
    };
    vec![
        pins::bytes("stage1_storing", stage1(Phase::Storing)),
        pins::bytes("stage1_shuffling", stage1(Phase::Shuffling)),
        pins::debug_fnv("metrics", &m),
    ]
}

/// The job record as it was before its tasks became a view over the task
/// arena: a `Vec` of rows under the derived `Debug` every digest in the
/// repository was taken over.
mod old {
    use memres_core::{RecoveryCounters, TaskMetric};

    #[derive(Debug)]
    #[expect(dead_code, reason = "its fields are read by `Debug` alone")]
    pub struct JobMetrics {
        pub job: u32,
        pub started_at: f64,
        pub finished_at: f64,
        pub tasks: Vec<TaskMetric>,
        pub recovery: RecoveryCounters,
    }
}

/// `m` prints, plain and pretty, as the old record built from its rows.
fn assert_prints_as_the_old_record(m: &JobMetrics, what: &str) {
    let old = old::JobMetrics {
        job: m.job,
        started_at: m.started_at,
        finished_at: m.finished_at,
        tasks: m.tasks().collect(),
        recovery: m.recovery,
    };
    assert!(!old.tasks.is_empty(), "{what}: no records");
    assert_eq!(format!("{m:?}"), format!("{old:?}"), "{what}");
    assert_eq!(format!("{m:#?}"), format!("{old:#?}"), "{what}");
}

/// The quickstart example's word count.
fn quickstart() -> (Rdd, Action) {
    let words = "the quick brown fox jumps over the lazy dog the fox";
    let records: Vec<Record> = words
        .split_whitespace()
        .map(|w| (Value::Null, Value::str(w)))
        .collect();
    let rdd = Rdd::source(Dataset::from_records(records, 4))
        .map("kv", SizeModel::scan(), |(_, word)| (word, Value::I64(1)))
        .reduce_by_key(Some(2), 1e9, 1.0, |a, b| {
            Value::I64(a.as_i64() + b.as_i64())
        });
    (rdd, Action::Collect)
}

#[test]
fn the_record_view_prints_as_the_record_it_replaced() {
    let homogeneous = || EngineConfig::default().homogeneous();
    let run = |nodes, cfg, (rdd, action): (Rdd, Action)| {
        let mut d = Driver::new(memres_cluster::tiny(nodes), cfg);
        let (_, m) = d.run(&rdd, action);
        (m, d.take_trace())
    };
    let (m, _) = run(4, homogeneous(), quickstart());
    assert_prints_as_the_old_record(&m, "quickstart");
    let faulted =
        homogeneous().with_faults(FaultPlan::seeded(7, 6, 3, SimDuration::from_millis(80)));
    let (m, _) = run(6, faulted, workload());
    assert!(m.recovery.any(), "the plan's faults land");
    assert_prints_as_the_old_record(&m, "seeded faults");
    // Losing twins leave no row: the records are the non-ghost finishes.
    let (m, trace) = run(4, skewed_speculative().with_trace(), heavy_groupby(0));
    let finishes = |ghost: bool| {
        let hit = |e: &&memres_core::TimedEvent| matches!(e.ev, TraceEvent::TaskFinished { ghost: g, .. } if g == ghost);
        trace.iter().filter(hit).count()
    };
    assert!(finishes(true) > 0, "a speculative twin lost");
    assert_eq!(m.tasks().len(), finishes(false));
    assert_prints_as_the_old_record(&m, "skewed speculative");
    let mut d = Driver::new(memres_cluster::tiny(4), homogeneous());
    for j in d.run_stream(two_tenant_fair_share()) {
        assert_prints_as_the_old_record(&j.metrics, &format!("stream job {}", j.id));
    }
    let (m, _) = run(4, homogeneous(), two_shuffles());
    assert_prints_as_the_old_record(&m, "two real shuffles");
}

/// Map-only `Count` over synthetic partitions: every task is a final-stage
/// compute task, and on skewed nodes some straggle long enough for a twin.
fn synthetic_map_only() -> (Rdd, Action) {
    let rdd = Rdd::source(Dataset::synthetic(24.0 * 4e6, 4e6, 100.0)).map(
        "work",
        SizeModel::new(1.0, 0.5, 2e7),
        |r| r,
    );
    (rdd, Action::Count)
}

/// Synthetic GroupBy whose fetch tasks, its final stage, start early and
/// run long: a seeded crash and fetch failure land among them.
fn synthetic_groupby() -> (Rdd, Action) {
    let rdd = Rdd::source(Dataset::synthetic(12.0 * 2e5, 2e5, 100.0))
        .map("gen", SizeModel::new(1.0, 1.0, 2e8), |r| r)
        .group_by_key(Some(6), 4e6);
    (rdd, Action::Count)
}

/// One fresh traced run: its output count, its metrics and its trace.
fn run_traced_metrics(
    nodes: u32,
    cfg: EngineConfig,
    (rdd, action): (Rdd, Action),
) -> (u64, JobMetrics, Vec<memres_core::TimedEvent>) {
    let mut d = Driver::new(memres_cluster::tiny(nodes), cfg.with_trace());
    let (out, m) = d.run(&rdd, action);
    (out.count, m, d.take_trace())
}

const CASES: &[pins::Case] = &[
    // Final-stage compute tasks and their twins both write their
    // partition's count.
    ("map_only_speculated", |_| {
        let (count, m, trace) = run_traced_metrics(4, skewed_speculative(), synthetic_map_only());
        let twins = trace
            .iter()
            .filter(|e| matches!(e.ev, TraceEvent::Speculate { .. }))
            .count();
        assert!(twins > 0, "a final-stage task is speculated");
        assert_eq!(count, 480_000, "map-only under speculation");
        vec![pins::debug_fnv("metrics", &m)]
    }),
    // Final-stage fetch tasks are retried and write their count again.
    ("groupby_seeded_faults", |_| {
        let faulted = EngineConfig::default()
            .homogeneous()
            .with_faults(FaultPlan::seeded(7, 6, 3, SimDuration::from_millis(80)));
        let (count, m, _) = run_traced_metrics(6, faulted, synthetic_groupby());
        assert!(
            m.recovery.fetch_retries > 0,
            "a final-stage fetch is retried"
        );
        assert_eq!(count, 37_500, "GroupBy under seeded faults");
        vec![pins::debug_fnv("metrics", &m)]
    }),
    ("two_shuffles", |_| two_shuffles_pins()),
];

#[test]
fn the_count_and_the_record_hold_wherever_final_counts_are_written() {
    // A job's count is the sum of its final-stage tasks' record counts,
    // written by a compute task's chain, a fetch task's launch and a real
    // reducer's adoption (the `two_shuffles` case, which
    // `a_real_reducer_records_its_estimate_and_flushes_its_adopted_size`
    // checks). Each pin was taken when every task kept its own count; the
    // job's record is pinned by the FNV of its `Debug`.
    pins::check(pins::named(
        CASES,
        &["map_only_speculated", "groupby_seeded_faults"],
    ));
}

pins::tests!(CASES);
