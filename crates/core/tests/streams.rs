//! Multi-tenant job streams (DESIGN.md §4.14): isolation and determinism.
//!
//! The two contracts the tenancy layer must hold:
//!
//! 1. **Output isolation** — every job of an interleaved stream produces
//!    output byte-identical to the same job run alone on a fresh cluster.
//!    Concurrent residency shares slots and wall-clock, never data.
//! 2. **Replay determinism** — a whole stream (arrivals, admissions,
//!    per-job metrics, SLO rollups) renders to an identical `Debug` string
//!    across executor-thread counts and event-queue implementations,
//!    extending the single-job determinism suite to concurrent DAGs.

use memres_core::prelude::*;
use memres_core::{
    ArrivalProcess, FinishedJob, InterJobPolicy, JobFactory, StreamSpec, TenantSlo, TenantSpec,
};
use memres_des::time::SimDuration;
use memres_trace::TraceEvent;
use std::sync::Arc;

/// Tenant A: a shuffle-heavy wordcount, parameterized by `k` so each job in
/// the stream has distinct data (and therefore a distinct correct answer).
fn wordcount(k: u32) -> (Rdd, Action) {
    let recs: Vec<Record> = (0..400)
        .map(|i| {
            (
                Value::Null,
                Value::str(format!("w{}", (i + k as u64) % (17 + k as u64))),
            )
        })
        .collect();
    let rdd = Rdd::source(Dataset::from_records(recs, 8))
        .map("kv", SizeModel::scan(), |(_, v)| (v, Value::I64(1)))
        .reduce_by_key(Some(4), 1e9, 1.0, |a, b| {
            Value::I64(a.as_i64() + b.as_i64())
        });
    (rdd, Action::Collect)
}

/// Tenant B: a narrow scan-and-reduce (no shuffle) — a different DAG shape
/// so the resident set mixes phases.
fn scan_reduce(k: u32) -> (Rdd, Action) {
    let recs: Vec<Record> = (0..300)
        .map(|i| (Value::I64(i), Value::I64(i + k as i64)))
        .collect();
    let rdd =
        Rdd::source(Dataset::from_records(recs, 6)).map("double", SizeModel::scan(), |(key, v)| {
            (key, Value::I64(v.as_i64() * 2))
        });
    (
        rdd,
        Action::Reduce(Arc::new(|a, b| Value::I64(a.as_i64() + b.as_i64()))),
    )
}

fn stream_spec(policy: InterJobPolicy, seed: u64) -> StreamSpec {
    StreamSpec::new(
        vec![
            TenantSpec::new(
                "wordcount",
                3,
                // Tight period: arrivals outpace job latency, forcing
                // overlap and admission queueing.
                ArrivalProcess::Periodic { period_secs: 0.01 },
                Arc::new(wordcount),
            ),
            TenantSpec::new(
                "scan",
                3,
                ArrivalProcess::OpenExp { mean_secs: 0.02 },
                Arc::new(scan_reduce),
            ),
        ],
        policy,
        seed,
    )
}

fn base_cfg() -> EngineConfig {
    EngineConfig::default().homogeneous()
}

/// Render a finished stream with `Debug`: every job's lifecycle, output and
/// metrics, then the SLO rollup. Any nondeterminism in arrivals, admission
/// order, dispatch interleaving or metrics shows up as a string diff.
fn render(jobs: &[FinishedJob], tenants: usize) -> String {
    format!("{jobs:?}\n{:?}", TenantSlo::compute(jobs, tenants))
}

#[test]
fn stream_jobs_match_isolated_runs_byte_for_byte() {
    let mut d = Driver::new(memres_cluster::tiny(6), base_cfg());
    let finished = d.run_stream(stream_spec(InterJobPolicy::FairShare, 11));
    assert_eq!(finished.len(), 6, "all six jobs retire");

    // The stream genuinely interleaved: some job was admitted before an
    // earlier-admitted one finished.
    let overlap = finished.iter().any(|a| {
        finished
            .iter()
            .any(|b| b.id != a.id && b.admitted < a.finished && a.admitted < b.finished)
    });
    assert!(overlap, "arrival process must yield concurrent residency");

    // Output isolation: each job's result equals its isolated run.
    let factories: [JobFactory; 2] = [Arc::new(wordcount), Arc::new(scan_reduce)];
    let mut seen = [0u32; 2];
    // Finished jobs come back in completion order; per tenant, job k is the
    // k-th ADMISSION. Admission is FIFO per tenant, so sort by admission.
    let mut by_admission: Vec<&FinishedJob> = finished.iter().collect();
    by_admission.sort_by(|a, b| a.admitted.cmp(&b.admitted).then(a.id.cmp(&b.id)));
    for j in by_admission {
        let t = j.tenant as usize;
        let slot = seen.get_mut(t).expect("tenant id in range");
        let k = *slot;
        *slot += 1;
        let (rdd, action) = factories.get(t).expect("tenant id in range")(k);
        let mut iso = Driver::new(memres_cluster::tiny(6), base_cfg());
        let (iso_out, _) = iso.run(&rdd, action);
        assert_eq!(
            format!("{:?}", j.output),
            format!("{iso_out:?}"),
            "tenant {t} job {k}: stream output must equal isolated run"
        );
        assert!(!j.output.aborted);
    }

    // SLO rollup sanity: both tenants ran 3 jobs; latencies are positive
    // and ordered (p50 <= p99); queueing delay is finite.
    let slo = TenantSlo::compute(&finished, 2);
    for s in &slo {
        assert_eq!(s.jobs, 3);
        assert_eq!(s.aborted, 0);
        assert!(s.mean_latency > 0.0);
        assert!(s.p50_latency <= s.p99_latency);
        assert!(s.mean_queue_delay >= 0.0);
    }
}

#[test]
fn stream_replay_is_byte_identical_across_threads() {
    // Satellite of the determinism suite (PR-3): the interleaved multi-job
    // run must serialize identically across executor_threads 1 vs 4.
    let run = |threads: usize| {
        let cfg = base_cfg().with_executor_threads(threads);
        let mut d = Driver::new(memres_cluster::tiny(6), cfg);
        let finished = d.run_stream(stream_spec(InterJobPolicy::FairShare, 42));
        render(&finished, 2)
    };
    let one = run(1);
    assert!(!one.is_empty());
    assert_eq!(one, run(4), "stream bytes diverged at threads=4");
}

#[test]
fn capacity_policy_and_admission_cap_honour_guarantees() {
    // A max_concurrent cap forces queueing (visible queue delay) and the
    // capacity policy keeps serving both tenants; closed-loop arrivals
    // chain off completions so the stream still drains fully.
    let spec = StreamSpec::new(
        vec![
            TenantSpec::new(
                "wordcount",
                2,
                ArrivalProcess::Periodic { period_secs: 0.5 },
                Arc::new(wordcount),
            ),
            TenantSpec::new(
                "scan",
                2,
                ArrivalProcess::Closed { think_secs: 0.5 },
                Arc::new(scan_reduce),
            ),
        ],
        InterJobPolicy::Capacity {
            guarantees: vec![2, 2],
        },
        7,
    )
    .with_max_concurrent(1);
    let mut d = Driver::new(memres_cluster::tiny(4), base_cfg());
    let finished = d.run_stream(spec);
    assert_eq!(finished.len(), 4);
    assert!(
        finished.iter().any(|j| j.queue_delay() > 0.0),
        "cap of one resident job must force admission queueing"
    );
    // With the cap, at most one job is ever resident: windows cannot
    // overlap between admission and completion.
    for a in &finished {
        for b in &finished {
            if a.id != b.id {
                assert!(
                    a.finished <= b.admitted || b.finished <= a.admitted,
                    "max_concurrent=1 must serialize execution"
                );
            }
        }
    }
    // Trace-driven arrivals also drain (truncated to the trace length).
    let spec = StreamSpec::new(
        vec![TenantSpec::new(
            "scan",
            5,
            ArrivalProcess::Trace(vec![0.0, 0.25]),
            Arc::new(scan_reduce),
        )],
        InterJobPolicy::Fifo,
        1,
    );
    let mut d = Driver::new(memres_cluster::tiny(4), base_cfg());
    let finished = d.run_stream(spec);
    assert_eq!(finished.len(), 2, "trace shorter than `jobs` truncates");
}

#[test]
fn departed_jobs_give_their_fetch_flows_back() {
    // Regression: a job's persistent (src, dst, kind) fetch flows were never
    // closed, so every job of a stream left them in the flow slab for good.
    // Now a departing job releases them and later jobs reuse the slots: six
    // jobs, two resident at a time, need no more slots than two jobs do.
    let mut per_job = 0;
    for k in 0..6 {
        let mut solo = Driver::new(memres_cluster::tiny(6), base_cfg());
        let (rdd, action) = wordcount(k);
        solo.run(&rdd, action);
        assert_eq!(solo.world().net.open_flows(), 0, "job {k} left flows open");
        per_job = per_job.max(solo.world().net.slab_len());
    }
    assert!(
        per_job > 0,
        "the wordcount shuffle fetches over the network"
    );
    let spec = StreamSpec::new(
        vec![TenantSpec::new(
            "wordcount",
            6,
            ArrivalProcess::Periodic { period_secs: 0.01 },
            Arc::new(wordcount),
        )],
        InterJobPolicy::Fifo,
        3,
    )
    .with_max_concurrent(2);
    let mut d = Driver::new(memres_cluster::tiny(6), base_cfg());
    assert_eq!(d.run_stream(spec).len(), 6);
    let net = &d.world().net;
    assert_eq!(net.open_flows(), 0, "the drained stream left flows open");
    assert!(
        net.slab_len() <= 2 * per_job,
        "slab grew to {} slots; two resident jobs need at most {}",
        net.slab_len(),
        2 * per_job
    );
}

/// Three waves of compute-bound tasks per job, so slow nodes' last-wave
/// tasks straggle past idle slots and get speculated.
fn heavy_groupby(k: u32) -> (Rdd, Action) {
    let recs: Vec<Record> = (0..2000)
        .map(|i| (Value::I64((i * 31 + k as i64) % 53), Value::I64(i)))
        .collect();
    let rdd = Rdd::source(Dataset::from_records(recs, 24))
        .map("work", SizeModel::new(1.0, 1.0, 2e4), |r| r)
        .group_by_key(Some(4), 1e9);
    (rdd, Action::Count)
}

#[test]
fn fair_share_order_survives_retries_twins_and_a_crash() {
    // The fair-share order reads per-job running counts kept at
    // `TaskArena::set_state`; the order the arena scan used to give is the
    // reference. Auditing after every event compares the two at each
    // dispatch (debug builds also assert it inside `job_order`), over a run
    // that exercises every state transition: doomed attempts re-queued,
    // speculation twins launched and lost, a node crash failing its running
    // tasks.
    let spec = || {
        StreamSpec::new(
            vec![
                TenantSpec::new(
                    "a",
                    2,
                    ArrivalProcess::Periodic { period_secs: 0.05 },
                    Arc::new(heavy_groupby),
                ),
                TenantSpec::new(
                    "b",
                    2,
                    ArrivalProcess::Periodic { period_secs: 0.07 },
                    Arc::new(heavy_groupby),
                ),
            ],
            InterJobPolicy::FairShare,
            5,
        )
    };
    let cfg = || {
        EngineConfig {
            speed_sigma: 0.6,
            seed: 4,
            ..EngineConfig::default()
        }
        .with_speculation()
        .with_trace()
    };
    let mut clean = Driver::new(memres_cluster::tiny(4), cfg());
    let finished = clean.run_stream_audited(spec(), 1).expect("clean stream");
    let horizon = finished
        .iter()
        .map(|j| j.finished)
        .max()
        .expect("four jobs")
        .as_secs_f64();

    let plan = FaultPlan::new()
        .after(SimDuration::ZERO, FaultKind::TaskFail { nth_launch: 5 })
        .after(
            SimDuration::from_secs_f64(horizon * 0.3),
            FaultKind::NodeCrash {
                node: 1,
                restart: Some(SimDuration::from_secs_f64(horizon * 0.2)),
            },
        );
    let mut d = Driver::new(memres_cluster::tiny(4), cfg().with_faults(plan));
    let finished = d.run_stream_audited(spec(), 1).expect("audited stream");
    assert_eq!(finished.len(), 4);
    assert!(finished.iter().all(|j| !j.output.aborted));
    let trace = d.take_trace();
    let saw = |what: fn(&TraceEvent) -> bool| trace.iter().any(|e| what(&e.ev));
    assert!(saw(|e| matches!(e, TraceEvent::TaskRetried { .. })));
    assert!(saw(|e| matches!(e, TraceEvent::Speculate { .. })));
    assert!(saw(|e| matches!(e, TraceEvent::NodeDown { .. })));
    // The jobs overlapped, so the order was a choice between resident jobs.
    assert!(finished.iter().any(|a| finished
        .iter()
        .any(|b| b.id != a.id && b.admitted < a.finished && a.admitted < b.finished)));
}

/// A synthetic GroupBy over `gb` GB of generated input, 8 reducers.
fn synthetic_groupby(gb: f64) -> JobFactory {
    Arc::new(move |_| {
        let rdd = Rdd::source(Dataset::generated(gb * 1e9, 64e6, 100.0))
            .map("genKV", SizeModel::new(1.0, 1.0, 2e8), |r| r)
            .group_by_key(Some(8), 1e9);
        (rdd, Action::Count)
    })
}

/// What the trace shows of one job's storing → fetch switch under the
/// Lustre-shared store: its revocation-flush flows (each opened right after
/// the `LockRevoke` of a node file) and the reducers queued right after them.
#[derive(Default)]
struct FetchSwitch {
    flush_flows: Vec<u64>,
    reducers: Vec<u32>,
}

#[test]
fn lustre_shared_flush_progress_is_credited_to_the_job_that_owns_it() {
    // Two Lustre-shared jobs resident at once, 6 GB admitted at 0 s and 2 GB
    // at 4 s, so that their mass flushes overlap. Each job's reducers wait
    // for *its own* flush. Crediting a finished flush chunk to "the first
    // resident job still waiting on a flush" (the big one, admitted first)
    // swapped the gates: the small job's reducers left the lock wait at the
    // instant the big job's flows ended, and the big job's at the small's.
    let tenant = |name: &str, at: f64, gb: f64| {
        let arrival = ArrivalProcess::Trace(vec![at]);
        TenantSpec::new(name, 1, arrival, synthetic_groupby(gb))
    };
    let spec = StreamSpec::new(
        vec![tenant("big", 0.0, 6.0), tenant("small", 4.0, 2.0)],
        InterJobPolicy::FairShare,
        3,
    );
    let cfg = EngineConfig {
        shuffle: ShuffleStore::LustreShared,
        ..base_cfg()
    }
    .with_trace();
    let mut d = Driver::new(memres_cluster::tiny(8), cfg);
    let finished = d.run_stream_audited(spec, 1).expect("audited stream");
    assert_eq!(finished.len(), 2);
    assert!(finished.iter().all(|j| !j.output.aborted));
    let trace = d.take_trace();

    // One `FetchSwitch` per job, in the order the switches happened.
    let mut switches: Vec<FetchSwitch> = Vec::new();
    let mut cur = FetchSwitch::default();
    // Revocation, flush-flow opens and the fetch stage's start all happen
    // inside one event (the job's last store task finishing), so nothing
    // else interleaves between a `LockRevoke` and the `StageStart`.
    let (mut revoking, mut in_fetch_stage) = (false, false);
    for e in &trace {
        match e.ev {
            TraceEvent::LockRevoke { .. } => revoking = true,
            TraceEvent::FlowStart { flow } if revoking => cur.flush_flows.push(flow),
            TraceEvent::StageStart { stage: 1, .. } => (revoking, in_fetch_stage) = (false, true),
            TraceEvent::TaskQueued { task, stage: 1, .. } if in_fetch_stage => {
                cur.reducers.push(task)
            }
            _ if in_fetch_stage => {
                switches.push(std::mem::take(&mut cur));
                in_fetch_stage = false;
            }
            _ => {}
        }
    }

    let at = |what: &dyn Fn(&TraceEvent) -> bool| {
        let times = trace.iter().filter(|e| what(&e.ev)).map(|e| e.at);
        times.max()
    };
    let flush_end = |s: &FetchSwitch| {
        let own = |e: &TraceEvent| matches!(e, TraceEvent::FlowEnd { flow, .. } if s.flush_flows.contains(flow));
        at(&own).expect("the job flushed dirty data")
    };
    let flushed_bytes = |s: &FetchSwitch| -> f64 {
        let bytes = trace.iter().filter_map(|e| match e.ev {
            TraceEvent::FlowEnd { flow, bytes, .. } if s.flush_flows.contains(&flow) => {
                Some(bytes.get())
            }
            _ => None,
        });
        bytes.sum()
    };
    switches.sort_by(|a, b| flushed_bytes(a).total_cmp(&flushed_bytes(b)));
    let [small, big] = switches.as_slice() else {
        panic!("two jobs, two switches: found {}", switches.len());
    };
    assert_eq!((small.reducers.len(), big.reducers.len()), (8, 8));
    assert!(flushed_bytes(big) > 2.0 * flushed_bytes(small));
    // The scenario is the one intended: every reducer of both jobs was
    // already waiting when the first of the two flushes ended.
    let all_waiting = at(&|e| matches!(e, TraceEvent::LockWaitStart { .. }));
    assert!(all_waiting.expect("reducers waited") < flush_end(small).min(flush_end(big)));

    for job in [small, big] {
        let released = |e: &TraceEvent| matches!(e, TraceEvent::LockWaitEnd { task } if job.reducers.contains(task));
        assert_eq!(
            at(&released).expect("its reducers waited on the flush"),
            flush_end(job),
            "reducers leave the lock wait when their own job's last flush flow ends"
        );
    }
    assert!(
        flush_end(small) < flush_end(big),
        "the small job's gate opens strictly before the big job's flush completes"
    );
}
