//! Fault-injection integration tests (DESIGN.md §4.9).
//!
//! The contract under test: any single injected fault leaves the job's
//! output identical to a fault-free run (lineage recovery is exact), the
//! simulation still terminates, and a faulted run replays byte-identically
//! across executor-thread counts.
//!
//! Output equality is asserted through `Action::Count`: recovery re-hosts
//! shuffle rows at a replacement node, which preserves the multiset of
//! records but may permute the order of values inside a group.

#![allow(
    clippy::indexing_slicing,
    reason = "terse literal indexing is fine in tests"
)]

use memres_cluster::tiny;
use memres_core::prelude::*;
use memres_des::time::SimDuration;
use memres_trace::{TaskClass, TimedEvent, TraceEvent};

const KEYS: i64 = 97;
const RECORDS: i64 = 4000;

fn records() -> Vec<Record> {
    (0..RECORDS)
        .map(|i| (Value::I64((i * 31 + 7) % KEYS), Value::I64(i)))
        .collect()
}

/// A two-stage job over real records: map → groupByKey → Count. The slow
/// size model stretches every phase so mid-phase fault times are easy to
/// hit from measured clean-run timings.
fn groupby_job() -> Rdd {
    groupby_job_over(8, 2e6)
}

fn groupby_job_over(partitions: usize, compute_rate: f64) -> Rdd {
    Rdd::source(Dataset::from_records(records(), partitions))
        .map("work", SizeModel::new(1.0, 1.0, compute_rate), |r| r)
        .group_by_key(Some(4), 1e9)
}

fn base_cfg() -> EngineConfig {
    EngineConfig::default().homogeneous()
}

fn run_with(cfg: EngineConfig) -> (JobOutput, JobMetrics) {
    let mut d = Driver::new(tiny(4), cfg);
    d.run(&groupby_job(), Action::Count)
}

/// Midpoint of the shuffle phase as a fraction of the clean job time.
fn shuffle_mid_frac(m: &JobMetrics) -> f64 {
    let start = m
        .tasks_in(Phase::Shuffling)
        .map(|t| t.launched_at)
        .fold(f64::INFINITY, f64::min);
    let end = m
        .tasks_in(Phase::Shuffling)
        .map(|t| t.finished_at)
        .fold(0.0, f64::max);
    ((start + end) * 0.5 - m.started_at) / m.job_time()
}

#[test]
fn any_single_fault_preserves_output() {
    let (clean, cm) = run_with(base_cfg());
    assert!(!clean.aborted);
    assert_eq!(clean.count, KEYS as u64);
    assert!(!cm.recovery.any(), "clean run must not report recovery");
    let horizon = cm.job_time();
    assert!(horizon > 0.0);

    let cases: Vec<(FaultKind, f64)> = vec![
        (FaultKind::TaskFail { nth_launch: 3 }, 0.0),
        (FaultKind::TaskFail { nth_launch: 9 }, 0.0),
        (
            FaultKind::NodeCrash {
                node: 1,
                restart: None,
            },
            0.25,
        ),
        (
            FaultKind::NodeCrash {
                node: 2,
                restart: Some(SimDuration::from_secs_f64(horizon * 0.2)),
            },
            0.5,
        ),
        (
            FaultKind::NodeCrash {
                node: 3,
                restart: None,
            },
            0.75,
        ),
        (FaultKind::BlockLoss { node: 0 }, 0.4),
        (
            FaultKind::SsdDegrade {
                node: 1,
                factor: 0.5,
            },
            0.3,
        ),
        (FaultKind::FetchFail { src: 0 }, shuffle_mid_frac(&cm)),
    ];

    for (kind, frac) in cases {
        let plan = FaultPlan::new().after(SimDuration::from_secs_f64(horizon * frac), kind);
        let (out, m) = run_with(base_cfg().with_faults(plan));
        assert!(!out.aborted, "{kind:?} at {frac}: job aborted");
        assert_eq!(
            out.count, clean.count,
            "{kind:?} at {frac}: output diverged from fault-free run"
        );
        let r = &m.recovery;
        match kind {
            FaultKind::TaskFail { .. } => {
                assert!(r.tasks_retried >= 1, "{kind:?}: no retry recorded: {r:?}");
                assert!(r.wasted_secs > 0.0, "{kind:?}: no wasted work: {r:?}");
            }
            FaultKind::NodeCrash { .. } => {
                assert_eq!(r.node_crashes, 1, "{kind:?}: {r:?}");
            }
            FaultKind::SsdDegrade { .. } => {
                assert_eq!(r.ssd_degradations, 1, "{kind:?}: {r:?}");
            }
            FaultKind::FetchFail { .. } => {
                assert!(r.failed_fetches >= 1, "{kind:?}: no failed fetch: {r:?}");
                assert_eq!(r.failed_fetches, r.fetch_retries, "{kind:?}: {r:?}");
            }
            FaultKind::BlockLoss { .. } => {
                // Nothing is cached in this job: the loss is a no-op, the
                // run must simply complete unharmed (asserted above).
            }
        }
    }
}

/// `groupby_job` plus a post-shuffle UDF that tallies what it sees: one per
/// call in the high half, the group's value count in the low half. The
/// reduce side (aggregation + post-shuffle steps) is evaluated once per
/// reducer, at its first launch, and reused by every retry — so however the
/// job is disturbed the UDF sees each of the `KEYS` groups exactly once,
/// holding all `RECORDS` values between them ([`SEEN_ONCE`]).
fn counted_groupby_job(
    partitions: usize,
    compute_rate: f64,
) -> (Rdd, std::sync::Arc<std::sync::atomic::AtomicU64>) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let calls = std::sync::Arc::new(AtomicU64::new(0));
    let seen = calls.clone();
    let rdd = groupby_job_over(partitions, compute_rate).map("seen", SizeModel::scan(), move |r| {
        seen.fetch_add(1 << 32 | r.1.as_list().len() as u64, Ordering::Relaxed);
        r
    });
    (rdd, calls)
}

const SEEN_ONCE: u64 = (KEYS as u64) << 32 | RECORDS as u64;

/// Run the counted job traced; returns (output, post-shuffle UDF tally,
/// trace) so a case can prove its fault hit what it aimed at.
fn run_counted(
    cfg: EngineConfig,
    partitions: usize,
    compute_rate: f64,
) -> (JobOutput, u64, Vec<TimedEvent>) {
    let (rdd, calls) = counted_groupby_job(partitions, compute_rate);
    let mut d = Driver::new(tiny(4), cfg.with_trace());
    let (out, _) = d.run(&rdd, Action::Count);
    let calls = calls.load(std::sync::atomic::Ordering::Relaxed);
    (out, calls, d.take_trace())
}

/// Tasks of `class` that a `TaskRetried` event names.
fn retried_of_class(trace: &[TimedEvent], class: TaskClass) -> usize {
    let of_class: std::collections::BTreeSet<u32> = trace
        .iter()
        .filter_map(|e| match e.ev {
            TraceEvent::TaskLaunched { task, class: c, .. } if c == class => Some(task),
            _ => None,
        })
        .collect();
    trace
        .iter()
        .filter(
            |e| matches!(e.ev, TraceEvent::TaskRetried { task, .. } if of_class.contains(&task)),
        )
        .count()
}

#[test]
fn disturbed_reducers_aggregate_once_and_keep_the_count() {
    let (clean, clean_calls, _) = run_counted(base_cfg(), 8, 2e6);
    assert_eq!(clean.count, KEYS as u64);
    assert_eq!(clean_calls, SEEN_ONCE);
    let (_, cm) = run_with(base_cfg());
    let horizon = cm.job_time();
    let mid_shuffle = SimDuration::from_secs_f64(horizon * shuffle_mid_frac(&cm));
    // Launches are numbered from 1: 8 computes, 8 flushes, then the fetches.
    let second_fetch =
        (cm.tasks_in(Phase::Compute).count() + cm.tasks_in(Phase::Storing).count()) as u64 + 2;

    let cases = [
        FaultKind::TaskFail {
            nth_launch: second_fetch,
        },
        FaultKind::FetchFail { src: 0 },
        FaultKind::NodeCrash {
            node: 1,
            restart: None,
        },
    ];
    for kind in cases {
        let at = match kind {
            FaultKind::TaskFail { .. } => SimDuration::ZERO,
            _ => mid_shuffle,
        };
        let plan = FaultPlan::new().after(at, kind);
        for threads in [1, 4] {
            let cfg = base_cfg()
                .with_faults(plan.clone())
                .with_executor_threads(threads);
            let (out, calls, trace) = run_counted(cfg, 8, 2e6);
            assert!(!out.aborted, "{kind:?}: job aborted");
            assert_eq!(out.count, clean.count, "{kind:?}: count diverged");
            assert!(
                retried_of_class(&trace, TaskClass::Fetch) >= 1,
                "{kind:?}: the fault must disturb a running fetch task"
            );
            assert_eq!(
                calls, SEEN_ONCE,
                "{kind:?} at {threads} threads: a retried reducer re-ran its aggregation"
            );
        }
    }
}

#[test]
fn speculated_producers_deposit_once() {
    // Speculation duplicates compute tasks only (`maybe_speculate` never
    // twins a fetch task), so what it can disturb is the map side: both
    // copies partition their output on the pool, only the winner's buckets
    // may land in the shuffle, and every reducer still aggregates once.
    let cfg = EngineConfig {
        speed_sigma: 0.6,
        seed: 4,
        ..EngineConfig::default()
    }
    .with_speculation();
    // Three waves of compute-bound tasks on 8 slots: the slow nodes'
    // last-wave tasks straggle past idle slots.
    let (out, calls, trace) = run_counted(cfg, 24, 2e4);
    assert!(
        trace
            .iter()
            .any(|e| matches!(e.ev, TraceEvent::Speculate { .. })),
        "the skewed cluster must trigger speculation"
    );
    assert_eq!(out.count, KEYS as u64);
    assert_eq!(calls, SEEN_ONCE, "a losing copy's buckets were deposited");
}

#[test]
fn faulted_runs_are_byte_identical_across_executor_threads() {
    let (_, cm) = run_with(base_cfg());
    let horizon = cm.job_time();
    let plan = FaultPlan::new()
        .after(SimDuration::ZERO, FaultKind::TaskFail { nth_launch: 5 })
        .after(
            SimDuration::from_secs_f64(horizon * 0.3),
            FaultKind::NodeCrash {
                node: 1,
                restart: None,
            },
        );
    let mut rendered = Vec::new();
    for threads in [1, 4] {
        let cfg = base_cfg()
            .with_faults(plan.clone())
            .with_executor_threads(threads);
        let (out, m) = run_with(cfg);
        assert!(!out.aborted);
        assert!(m.recovery.any(), "faults must have fired: {:?}", m.recovery);
        rendered.push(format!("{m:?}"));
    }
    assert_eq!(
        rendered[0], rendered[1],
        "same seed + same fault plan must replay byte-identically"
    );
}

#[test]
fn crash_recomputes_lost_cached_partitions_from_lineage() {
    let cached = Rdd::source(Dataset::from_records(records(), 8))
        .map("parse", SizeModel::new(1.0, 1.0, 2e6), |r| r)
        .cache();
    let job = cached.map("use", SizeModel::new(1.0, 1.0, 2e6), |r| r);

    // Clean pass to learn when the cached (second) job's computes run.
    let mut d = Driver::new(tiny(4), base_cfg());
    d.run(&job, Action::Count);
    let t1 = d.now().as_secs_f64();
    let (c2, m2) = d.run(&job, Action::Count);
    assert_eq!(c2.count, RECORDS as u64);
    let start = m2
        .tasks_in(Phase::Compute)
        .map(|t| t.launched_at)
        .fold(f64::INFINITY, f64::min);
    let end = m2
        .tasks_in(Phase::Compute)
        .map(|t| t.finished_at)
        .fold(0.0, f64::max);
    let mid = (start + end) * 0.5;
    assert!(mid > t1, "cached job must run after the cold one");

    // Faulted pass: crash a cache-holding node midway through job 2. Its
    // pinned tasks re-home and find their partition gone, forcing a lineage
    // recompute from the dataset.
    let plan = FaultPlan::new().after(
        SimDuration::from_secs_f64(mid),
        FaultKind::NodeCrash {
            node: 1,
            restart: None,
        },
    );
    let mut d = Driver::new(tiny(4), base_cfg().with_faults(plan));
    d.run(&job, Action::Count);
    let (out, m) = d.run(&job, Action::Count);
    assert!(!out.aborted);
    assert_eq!(out.count, RECORDS as u64);
    assert_eq!(m.recovery.node_crashes, 1);
    assert!(
        m.recovery.blocks_lost > 0,
        "the crashed node held cached partitions: {:?}",
        m.recovery
    );
    assert!(
        m.recovery.recomputed_partitions > 0,
        "lost cached partitions must be rebuilt from lineage: {:?}",
        m.recovery
    );
}

#[test]
fn attempt_limit_exhaustion_aborts_the_job() {
    let plan = FaultPlan::new().after(SimDuration::ZERO, FaultKind::TaskFail { nth_launch: 1 });
    let cfg = base_cfg().with_faults(plan).with_recovery(RecoveryConfig {
        max_task_attempts: 1,
        ..RecoveryConfig::default()
    });
    let (out, m) = run_with(cfg);
    assert!(out.aborted, "one allowed attempt + one failure must abort");
    assert_eq!(out.count, 0);
    assert_eq!(m.recovery.aborted_jobs, 1);
    assert_eq!(m.recovery.tasks_retried, 1);
}

#[test]
fn a_blamed_node_is_blacklisted_and_launches_nothing_after() {
    let (clean, _) = run_with(base_cfg());
    let plan = FaultPlan::new().after(SimDuration::ZERO, FaultKind::TaskFail { nth_launch: 1 });
    let cfg = base_cfg()
        .with_faults(plan)
        .with_recovery(RecoveryConfig {
            blacklist_after: 1,
            ..RecoveryConfig::default()
        })
        .with_trace();
    let mut d = Driver::new(tiny(4), cfg);
    let (out, m) = d.run(&groupby_job(), Action::Count);
    let trace = d.take_trace();
    assert_eq!(m.recovery.blacklisted_nodes, 1, "{:?}", m.recovery);
    assert_eq!(m.recovery.tasks_retried, 1, "{:?}", m.recovery);

    let blacklisted: Vec<(usize, u32)> = trace
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e.ev {
            TraceEvent::Blacklisted { node } => Some((i, node)),
            _ => None,
        })
        .collect();
    let [(at, node)] = blacklisted[..] else {
        panic!("one blacklisted event, found {blacklisted:?}");
    };
    let launched_there = trace[at..]
        .iter()
        .filter(|e| matches!(e.ev, TraceEvent::TaskLaunched { node: n, .. } if n == node))
        .count();
    assert_eq!(launched_there, 0, "node {node} got work after blacklisting");

    assert!(!out.aborted);
    assert_eq!(out.count, clean.count, "blacklisting changed the output");
}

#[test]
fn try_new_rejects_invalid_configs() {
    let bad_plan = FaultPlan::new().after(
        SimDuration::ZERO,
        FaultKind::NodeCrash {
            node: 99,
            restart: None,
        },
    );
    let err = Driver::try_new(tiny(4), EngineConfig::default().with_faults(bad_plan))
        .err()
        .expect("out-of-range fault node must be rejected");
    assert!(err.contains("out of range"), "{err}");

    let err = Driver::try_new(
        tiny(4),
        EngineConfig::default().with_recovery(RecoveryConfig {
            max_task_attempts: 0,
            ..RecoveryConfig::default()
        }),
    )
    .err()
    .expect("zero attempt budget must be rejected");
    assert!(err.contains("max_task_attempts"), "{err}");

    assert!(Driver::try_new(tiny(4), EngineConfig::default()).is_ok());
}
