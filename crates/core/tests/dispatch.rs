//! The dispatch candidate set (DESIGN.md §4.12), from outside the engine:
//! parking idle nodes changes how many nodes a `Dispatch` looks at, never
//! what it launches, where, or when. And the other scale term of that
//! section: what one more task costs the engine's heap.

#![allow(
    clippy::indexing_slicing,
    reason = "terse literal indexing is fine in tests"
)]

#[path = "../../bench/tests/pins/mod.rs"]
mod pins;

use memres_cluster::{hyperion, tiny};
use memres_core::prelude::*;
use memres_des::time::SimDuration;
use memres_des::units::MB;

/// Synthetic GroupBy: `parts` producers of 32 MB, as many store tasks, then
/// `reducers` fetch tasks.
fn groupby(parts: usize, reducers: u32) -> Rdd {
    Rdd::source(Dataset::synthetic(
        parts as f64 * 32.0 * MB,
        32.0 * MB,
        100.0,
    ))
    .map("gen", SizeModel::new(1.0, 1.0, 2e8), |r| r)
    .group_by_key(Some(reducers), 1e9)
}

fn lustre_fifo() -> EngineConfig {
    EngineConfig {
        input: InputSource::Lustre,
        scheduler: SchedulerKind::Fifo,
        ..EngineConfig::default()
    }
}

#[test]
fn storing_tail_visits_grow_with_launches_not_with_idle_nodes() {
    // 512 nodes whose speeds differ, so their pinned store tasks — 32 each
    // for 16 slots — run out at different times: for the tail of the
    // storing phase most of the cluster idles with nothing it may run while
    // `Dispatch` keeps firing, once per finish.
    // Walking the idle nodes each time (twice: one pass per round) is what
    // made `scale_10k_4m` visit 1.1 G candidates for 8 M tasks.
    let workers = 512;
    let parts = workers * 16 * 2;
    let mut d = Driver::new(hyperion().scaled_workers(workers as u32), lustre_fifo());
    let (out, m) = d
        .run_audited(&groupby(parts, 64), Action::Count, 1_009)
        .expect("audited run");
    assert!(!out.aborted);
    assert_eq!(m.tasks().len(), 2 * parts + 64);
    // Fault-free: every task launched once and finished once.
    let launches_and_finishes = 2 * m.tasks().len() as u64;
    let visits = d.world().dispatch_visits;
    assert!(
        visits <= 4 * launches_and_finishes,
        "{visits} candidate visits for {} tasks: dispatch is rescanning idle nodes",
        m.tasks().len()
    );
    // The tail is real: the first node to run out of flushes idles for a
    // good part of the phase while the last one works through its own.
    let mut done_at = vec![0.0f64; workers];
    for t in m.tasks_in(Phase::Storing) {
        done_at[t.node as usize] = done_at[t.node as usize].max(t.finished_at);
    }
    let began = m
        .tasks_in(Phase::Storing)
        .map(|t| t.launched_at)
        .fold(f64::INFINITY, f64::min);
    let first = done_at.iter().copied().fold(f64::INFINITY, f64::min);
    let last = done_at.iter().copied().fold(0.0, f64::max);
    assert!(
        last - first > 0.2 * (last - began),
        "no storing tail: nodes ran out of flushes between {first} and {last}, from {began}"
    );
}

#[test]
fn flushes_repinned_by_a_crash_wake_the_idle_replacement() {
    // Node 0 is down while the producers run, so it owns no flush; back up
    // during the storing phase it is visited, finds nothing pinned to it,
    // and is parked. Then node 2 dies with flushes still queued (12 of them
    // for its 2 slots): they re-pin to node 0, which must be live again by
    // the next `Dispatch` or they sit on a node nobody visits and the job
    // never ends. (Two things un-park it: the attempts that died with node 2
    // turning pending again, and `repin_pinned_off` itself — the unit test
    // `work_repinned_onto_a_parked_node_unparks_it` takes the latter alone.)
    let cfg = |plan: FaultPlan| lustre_fifo().homogeneous().with_faults(plan);
    let job = groupby(36, 4);
    let node0_down = |back_after: f64| {
        let kind = FaultKind::NodeCrash {
            node: 0,
            restart: Some(SimDuration::from_secs_f64(back_after)),
        };
        FaultPlan::new().after(SimDuration::from_millis(1), kind)
    };
    // Without node 0 for the whole job: when do node 2's flushes launch?
    let (_, m) = Driver::new(tiny(4), cfg(node0_down(1e6))).run(&job, Action::Count);
    let mut waves: Vec<f64> = m
        .tasks_in(Phase::Storing)
        .filter(|t| t.node == 2)
        .map(|t| t.launched_at - m.started_at)
        .collect();
    waves.dedup();
    assert!(waves.len() >= 4, "node 2 flushes in {} waves", waves.len());
    assert!(waves.windows(2).all(|w| w[0] < w[1]));
    // Node 0 returns between the first two waves, node 2 dies between the
    // next two — with at least one more wave of its flushes still queued.
    let back_at = (waves[0] + waves[1]) / 2.0;
    let crash_at = (waves[1] + waves[2]) / 2.0;
    let crash = FaultKind::NodeCrash {
        node: 2,
        restart: None,
    };
    let plan = node0_down(back_at - 1e-3).after(SimDuration::from_secs_f64(crash_at), crash);
    let mut d = Driver::new(tiny(4), cfg(plan));
    let (out, m) = d
        .run_audited(&job, Action::Count, 1)
        .expect("the re-pinned flushes must run");
    assert!(!out.aborted);
    assert_eq!((m.recovery.node_crashes, m.recovery.node_restarts), (2, 1));
    let rehosted = m
        .tasks_in(Phase::Storing)
        .filter(|t| t.node == 0 && t.launched_at - m.started_at >= crash_at)
        .count();
    assert!(
        rehosted >= 2,
        "{rehosted} flushes ran on the replacement node"
    );
}

/// The paper's GroupBy shape: generated 256 MB splits, one reducer per slot.
#[test]
fn a_task_costs_the_heap_under_100_bytes() {
    // The same Lustre-input GroupBy at 6,000 and at 12,000 producers (as
    // many store tasks each, 64 reducers both times): the engine's own heap
    // estimate at job departure grows by the arena columns (81 B, its
    // record among them), the finish-order entry each finished task leaves
    // (4 B) and the queue and id lists a producer sits in, 87.7 B in all —
    // not by a second copy of the record, a per-partition placement table,
    // a `Vec` header per task, or anything else that scales with the job.
    let estimate = |parts: usize| {
        let mut d = Driver::new(tiny(16), lustre_fifo());
        let (out, m) = d.run(&groupby(parts, 64), Action::Count);
        assert!(!out.aborted);
        assert_eq!(m.tasks().len(), 2 * parts + 64);
        d.heap_estimate_bytes()
    };
    let (small, large) = (estimate(6_000), estimate(12_000));
    let per_task = (large - small) as f64 / 12_000.0;
    assert!(
        (85.0..=100.0).contains(&per_task),
        "{per_task} bytes per task ({small} -> {large})"
    );
}

fn paper_groupby(total_gb: f64) -> Rdd {
    Rdd::source(Dataset::generated(
        total_gb * 1024.0 * MB,
        256.0 * MB,
        100.0,
    ))
    .map("genKV", SizeModel::new(1.0, 1.0, 900.0e6), |r| r)
    .group_by_key(None, 1.0e9)
}

/// The JSONL event log of `job` under `cfg` on eight Hyperion workers —
/// every event, field and timestamp of the run — and how often it holds a
/// `marker` event.
fn traced(cfg: EngineConfig, job: &Rdd, marker: &'static str) -> Vec<pins::Pin> {
    let mut d = Driver::new(hyperion().scaled_workers(8), cfg.with_trace());
    let (out, _) = d.run(job, Action::Count);
    assert!(!out.aborted);
    pins::jsonl(
        &memres_trace::export::events_jsonl(&d.take_trace()),
        &[marker],
    )
}

fn ssd() -> EngineConfig {
    EngineConfig {
        shuffle: ShuffleStore::Local(StoreDevice::Ssd),
        ..lustre_fifo()
    }
}

/// Three waves of synthetic producers on eight workers' 16 slots each.
fn placed() -> Rdd {
    groupby(8 * 16 * 3, 48)
}

#[rustfmt::skip]
const CASES: &[pins::Case] = &[
    ("fifo", |_| traced(lustre_fifo(), &paper_groupby(40.0), "task_launched")),
    ("fifo_ssd", |_| traced(ssd(), &paper_groupby(120.0), "task_launched")),
    ("fifo_hdfs", |_| traced(EngineConfig::default(), &placed(), "task_launched")),
    ("elb", |_| traced(ssd().with_elb(), &paper_groupby(40.0), "elb_decline")),
    ("cad", |_| traced(ssd().with_cad(), &paper_groupby(120.0), "task_launched")),
    ("delay", |_| {
        let delay = EngineConfig::default().with_delay_scheduling(SimDuration::from_millis(300));
        traced(delay, &placed(), "delay_wait")
    }),
    ("speculation", |_| {
        let skewed = EngineConfig { speed_sigma: 0.35, ..ssd() };
        traced(skewed.with_speculation(), &paper_groupby(40.0), "speculate")
    }),
];

#[test]
fn traces_are_pinned_with_and_without_the_mechanisms_that_forbid_parking() {
    // Digests captured at commit 45bf5f3 (dispatch walking a `BTreeSet` of
    // every available node): the exact event log — each launch with its node
    // and instant, each ELB decline, delay wait and speculative duplicate —
    // must not move, in runs that park idle nodes (plain FIFO) and in the
    // four kinds of run that must not, because a visit there does something
    // even when it launches nothing. The marker counts show the mechanism
    // at work in its run; CAD leaves no event of its own at this size, but
    // spaces the flushes out: same job, same store, and its log is not
    // `fifo_ssd`'s.
    pins::check(CASES);
}

pins::tests!(CASES);
