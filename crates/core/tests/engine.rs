//! End-to-end engine tests: real UDF execution, shuffle correctness across
//! storage strategies, caching, scheduling policies, and determinism.

#![allow(
    clippy::indexing_slicing,
    reason = "terse literal indexing is fine in tests"
)]

use memres_cluster::tiny;
use memres_core::prelude::*;
use memres_core::world::JobOutput;
use memres_des::time::SimDuration;
use std::collections::BTreeMap;

fn wordcount_data() -> Vec<Record> {
    let words = ["the", "quick", "brown", "fox", "the", "lazy", "dog", "the"];
    words
        .iter()
        .map(|w| (Value::Null, Value::str(*w)))
        .collect()
}

fn driver(cfg: EngineConfig) -> Driver {
    Driver::new(tiny(4), cfg)
}

#[test]
fn wordcount_produces_exact_counts() {
    let mut d = driver(EngineConfig::default().homogeneous());
    let rdd = Rdd::source(Dataset::from_records(wordcount_data(), 3))
        .map("kv", SizeModel::scan(), |(_, v)| (v, Value::I64(1)))
        .reduce_by_key(Some(2), 1e9, 1.0, |a, b| {
            Value::I64(a.as_i64() + b.as_i64())
        });
    let (out, metrics) = d.run(&rdd, Action::Collect);
    let counts: BTreeMap<String, i64> = out
        .records
        .expect("real data collects")
        .into_iter()
        .map(|(k, v)| (k.as_str().to_string(), v.as_i64()))
        .collect();
    assert_eq!(counts["the"], 3);
    assert_eq!(counts["quick"], 1);
    assert_eq!(counts.len(), 6);
    assert!(metrics.job_time() > 0.0);
    // Compute, storing and shuffling phases all happened.
    assert!(metrics.phase_time(Phase::Compute) > 0.0);
    assert!(metrics.phase_time(Phase::Storing) > 0.0);
    assert!(metrics.phase_time(Phase::Shuffling) > 0.0);
}

#[test]
fn group_by_key_collects_all_values() {
    let recs: Vec<Record> = (0..20)
        .map(|i| (Value::I64(i % 4), Value::I64(i)))
        .collect();
    let mut d = driver(EngineConfig::default().homogeneous());
    let rdd = Rdd::source(Dataset::from_records(recs, 4)).group_by_key(Some(3), 1e9);
    let (out, _) = d.run(&rdd, Action::Collect);
    let groups = out.records.unwrap();
    assert_eq!(groups.len(), 4);
    let total: usize = groups.iter().map(|(_, v)| v.as_list().len()).sum();
    assert_eq!(total, 20);
}

#[test]
fn filter_and_flatmap_compose() {
    let recs: Vec<Record> = (0..10).map(|i| (Value::Null, Value::I64(i))).collect();
    let mut d = driver(EngineConfig::default().homogeneous());
    let rdd = Rdd::source(Dataset::from_records(recs, 2))
        .filter("evens", SizeModel::scan(), |r| r.1.as_i64() % 2 == 0)
        .flat_map("dup", SizeModel::scan(), |r| vec![r.clone(), r]);
    let (out, _) = d.run(&rdd, Action::Count);
    assert_eq!(out.count, 10); // 5 evens duplicated
}

#[test]
fn synthetic_job_runs_with_size_models() {
    let mut d = driver(EngineConfig::default().homogeneous());
    let rdd = Rdd::source(Dataset::synthetic(
        64.0 * 1024.0 * 1024.0,
        8.0 * 1024.0 * 1024.0,
        100.0,
    ))
    .map("scan", SizeModel::new(0.5, 1.0, 1e9), |r| r)
    .group_by_key(Some(4), 1e9);
    let (out, metrics) = d.run(&rdd, Action::Count);
    assert!(out.count > 0);
    assert!(metrics.job_time() > 0.0);
    let shuffled: f64 = metrics
        .tasks_in(Phase::Shuffling)
        .map(|t| t.input_bytes)
        .sum();
    // Half the input (map factor 0.5) moves through the shuffle.
    assert!((shuffled - 32.0 * 1024.0 * 1024.0).abs() / shuffled < 0.01);
}

#[test]
fn cached_rdd_is_reused_by_second_job() {
    let mut d = driver(EngineConfig::default().homogeneous());
    let recs: Vec<Record> = (0..100).map(|i| (Value::Null, Value::I64(i))).collect();
    let cached = Rdd::source(Dataset::from_records(recs, 4))
        .map("parse", SizeModel::new(1.0, 1.0, 1e3), |r| r)
        .cache();
    let job1 = cached.map("sum", SizeModel::scan(), |r| r);
    let (_, m1) = d.run(&job1, Action::Count);
    // Second job over the cache: lineage truncated, no dataset read.
    let plan = d.explain(&job1, Action::Count);
    assert!(
        plan.contains("cached"),
        "plan should start from cache:\n{plan}"
    );
    let (out2, m2) = d.run(&job1, Action::Count);
    assert_eq!(out2.count, 100);
    assert!(
        m2.job_time() < m1.job_time(),
        "cached iteration {} should beat cold {}",
        m2.job_time(),
        m1.job_time()
    );
    // All tasks node-local on the cache homes.
    assert!(m2.locality_fraction() > 0.99);
}

#[test]
fn reduce_action_folds_values() {
    let recs: Vec<Record> = (1..=10)
        .map(|i| (Value::Null, Value::F64(i as f64)))
        .collect();
    let mut d = driver(EngineConfig::default().homogeneous());
    let rdd = Rdd::source(Dataset::from_records(recs, 2));
    let (out, _) = d.run(
        &rdd,
        Action::Reduce(std::sync::Arc::new(|a, b| {
            Value::F64(a.as_f64() + b.as_f64())
        })),
    );
    assert_eq!(out.reduced.unwrap().as_f64(), 55.0);
}

fn groupby_synthetic(total_mb: f64) -> Rdd {
    Rdd::source(Dataset::synthetic(
        total_mb * 1048576.0,
        8.0 * 1048576.0,
        100.0,
    ))
    .map("genKV", SizeModel::new(1.0, 1.0, 800e6), |r| r)
    .group_by_key(Some(8), 1e9)
}

#[test]
fn lustre_shared_shuffles_slower_than_lustre_local() {
    let base = EngineConfig {
        input: InputSource::Lustre,
        ..EngineConfig::default()
    }
    .homogeneous();
    let mut d_local = driver(EngineConfig {
        shuffle: ShuffleStore::LustreLocal,
        ..base.clone()
    });
    let m_local = d_local.run_for_metrics(&groupby_synthetic(512.0), Action::Count);
    let mut d_shared = driver(EngineConfig {
        shuffle: ShuffleStore::LustreShared,
        ..base
    });
    let m_shared = d_shared.run_for_metrics(&groupby_synthetic(512.0), Action::Count);
    let sh_local = m_local.phase_time(Phase::Shuffling);
    let sh_shared = m_shared.phase_time(Phase::Shuffling);
    assert!(
        sh_shared > sh_local * 1.5,
        "DLM should slow the shared shuffle: local={sh_local:.2}s shared={sh_shared:.2}s"
    );
    // Storing phases comparable (paper Fig 7b).
    let st_local = m_local.phase_time(Phase::Storing);
    let st_shared = m_shared.phase_time(Phase::Storing);
    assert!(
        (st_shared - st_local).abs() / st_local.max(1e-9) < 0.5,
        "storing phases should be comparable: local={st_local:.2}s shared={st_shared:.2}s"
    );
}

#[test]
fn delay_scheduling_hurts_short_tasks_under_skew() {
    // §V-A / Fig 9: with heterogeneous node speeds, holding tasks for
    // locality idles fast nodes, stretching the computation phase.
    let cfg = EngineConfig {
        speed_sigma: 0.6,
        ..EngineConfig::default()
    };
    let job = || {
        Rdd::source(Dataset::synthetic(
            512.0 * 1048576.0,
            4.0 * 1048576.0,
            100.0,
        ))
        .filter("grep", SizeModel::new(0.001, 0.001, 1.5e9), |_| true)
        .group_by_key(Some(4), 1e9)
    };
    let mut fifo = Driver::new(tiny(16), cfg.clone());
    let m_fifo = fifo.run_for_metrics(&job(), Action::Count);
    let mut delay = Driver::new(
        tiny(16),
        cfg.with_delay_scheduling(SimDuration::from_secs(3)),
    );
    let m_delay = delay.run_for_metrics(&job(), Action::Count);
    let (f, d) = (
        m_fifo.phase_time(Phase::Compute),
        m_delay.phase_time(Phase::Compute),
    );
    assert!(
        d > f * 1.1,
        "delay compute phase {d:.4}s should exceed fifo {f:.4}s by >10%"
    );
    // And delay achieves (near-)perfect locality while fifo does not.
    assert!(m_delay.locality_fraction() > m_fifo.locality_fraction());
}

#[test]
fn elb_balances_intermediate_data_under_skew() {
    let job = || groupby_synthetic(1024.0);
    let cfg = EngineConfig {
        speed_sigma: 0.5,
        ..EngineConfig::default()
    };
    let mut plain = driver(cfg.clone());
    let m_plain = plain.run_for_metrics(&job(), Action::Count);
    let mut elb = driver(cfg.with_elb());
    let m_elb = elb.run_for_metrics(&job(), Action::Count);
    let spread = |m: &JobMetrics| {
        let mut per = m.intermediate_per_node(4);
        per.truncate(4); // drop the (empty) overflow bucket
        let max = per.iter().cloned().fold(0.0, f64::max);
        let avg = per.iter().sum::<f64>() / per.len() as f64;
        max / avg
    };
    assert!(
        spread(&m_elb) <= spread(&m_plain) + 1e-9,
        "ELB should not worsen imbalance: plain={:.3} elb={:.3}",
        spread(&m_plain),
        spread(&m_elb)
    );
}

#[test]
fn determinism_same_seed_same_times() {
    let run = || {
        let mut d = driver(EngineConfig::default());
        d.run_for_metrics(&groupby_synthetic(128.0), Action::Count)
            .job_time()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must reproduce bit-identical times");
}

#[test]
fn parallel_executor_matches_single_thread_byte_for_byte() {
    // Same seed, same job: the metrics' `Debug` rendering and the collected
    // output must be byte-identical whether real-partition chains are
    // evaluated on one host thread or a pool. 32 partitions over tiny(4)'s 8
    // slots guarantees multi-chain dispatch batches actually hit the worker
    // pool.
    let recs: Vec<Record> = (0..4000)
        .map(|i| (Value::I64(i % 97), Value::I64(i)))
        .collect();
    let job = || {
        Rdd::source(Dataset::from_records(recs.clone(), 32))
            .map("x3", SizeModel::scan(), |(k, v)| {
                (k, Value::I64(v.as_i64() * 3))
            })
            .filter("odd", SizeModel::scan(), |r| r.1.as_i64() % 2 == 1)
            .reduce_by_key(Some(8), 1e9, 1.0, |a, b| {
                Value::I64(a.as_i64() + b.as_i64())
            })
    };
    let run = |threads: usize| {
        let mut d = driver(EngineConfig::default().with_executor_threads(threads));
        let (out, m) = d.run(&job(), Action::Collect);
        (out, format!("{m:?}"))
    };
    let (out1, metrics1) = run(1);
    let (out4, metrics4) = run(4);
    assert_eq!(
        metrics1, metrics4,
        "metrics must not depend on the thread count"
    );
    assert_eq!(out1.count, out4.count);
    assert_eq!(out1.records, out4.records);
    assert!(out1.count > 0);
}

#[test]
fn table1_prints() {
    let cfg = EngineConfig::default();
    let rows = cfg.table1();
    assert_eq!(rows.len(), 5);
}

#[test]
fn explain_renders_groupby_plan() {
    let d = driver(EngineConfig::default().homogeneous());
    let plan = d.explain(&groupby_synthetic(64.0), Action::Count);
    assert!(plan.contains("Stage 1"));
    assert!(plan.contains("Stage 2"));
    assert!(plan.contains("groupByKey"));
}

#[test]
fn job_output_shapes() {
    let mut d = driver(EngineConfig::default().homogeneous());
    let rdd = Rdd::source(Dataset::synthetic(1048576.0, 1048576.0, 100.0));
    let (out, _) = d.run(&rdd, Action::Count);
    let JobOutput {
        count,
        records,
        reduced,
        aborted,
    } = out;
    assert!(count > 0);
    assert!(!aborted);
    assert!(records.is_none(), "synthetic data cannot be collected");
    assert!(reduced.is_none());
}

#[test]
fn speculation_preserves_results_and_tames_stragglers() {
    // A strongly skewed cluster: one class of very slow nodes.
    let cfg = EngineConfig {
        speed_sigma: 0.6,
        seed: 4,
        ..EngineConfig::default()
    };
    let job = || {
        Rdd::source(Dataset::generated(
            512.0 * 1048576.0,
            8.0 * 1048576.0,
            100.0,
        ))
        .map("gen", SizeModel::new(1.0, 1.0, 100e6), |r| r)
        .group_by_key(Some(8), 1e9)
    };
    let mut plain = Driver::new(tiny(8), cfg.clone());
    let m_plain = plain.run_for_metrics(&job(), Action::Count);
    let mut spec = Driver::new(tiny(8), cfg.with_speculation());
    let m_spec = spec.run_for_metrics(&job(), Action::Count);
    // Same work accomplished (identical shuffle volume).
    let vol = |m: &JobMetrics| -> f64 { m.tasks_in(Phase::Shuffling).map(|t| t.input_bytes).sum() };
    assert!((vol(&m_plain) - vol(&m_spec)).abs() / vol(&m_plain) < 1e-6);
    // Speculation should not hurt the compute phase.
    assert!(
        m_spec.phase_time(Phase::Compute) <= m_plain.phase_time(Phase::Compute) * 1.05,
        "speculation {} vs plain {}",
        m_spec.phase_time(Phase::Compute),
        m_plain.phase_time(Phase::Compute)
    );
}

#[test]
fn rack_aggregation_preserves_results_and_collapses_flows() {
    // Same synthetic GroupBy with aggregation forced on (threshold 0) and
    // forced off (u32::MAX): counts and record totals must match exactly —
    // the aggregate processor-shared flows change *when* bytes arrive, not
    // how many. Timing may differ (that is the exactness boundary, see
    // DESIGN.md §4.12), but both runs must complete all phases.
    let base = EngineConfig {
        input: InputSource::Lustre,
        shuffle: ShuffleStore::Local(StoreDevice::RamDisk),
        ..EngineConfig::default()
    }
    .homogeneous();
    let wl = groupby_synthetic(256.0);

    let mut d_agg = driver(base.clone().with_rack_agg_threshold(0));
    let (out_agg, m_agg) = d_agg.run(&wl, Action::Count);
    let mut d_exact = driver(base.with_rack_agg_threshold(u32::MAX));
    let (out_exact, m_exact) = d_exact.run(&wl, Action::Count);

    assert_eq!(out_agg.count, out_exact.count);
    assert!(m_agg.phase_time(Phase::Shuffling) > 0.0);
    assert!(m_exact.phase_time(Phase::Shuffling) > 0.0);
    // Real-record jobs keep exact per-bucket accounting under aggregation.
    let mut d_real = Driver::new(
        tiny(4),
        EngineConfig::default()
            .homogeneous()
            .with_rack_agg_threshold(0),
    );
    let rdd = Rdd::source(Dataset::from_records(wordcount_data(), 3))
        .map("kv", SizeModel::scan(), |(_, v)| (v, Value::I64(1)))
        .reduce_by_key(Some(2), 1e9, 1.0, |a, b| {
            Value::I64(a.as_i64() + b.as_i64())
        });
    let (out, _) = d_real.run(&rdd, Action::Collect);
    let counts: BTreeMap<String, i64> = out
        .records
        .expect("real data collects")
        .into_iter()
        .map(|(k, v)| (k.as_str().to_string(), v.as_i64()))
        .collect();
    assert_eq!(counts["the"], 3);
    assert_eq!(counts.len(), 6);
}

#[test]
fn try_new_rejects_degenerate_spec_and_config() {
    // Degenerate topologies the fuzz generator can emit must be structured
    // errors at construction, never mid-sim panics.
    let mut spec = tiny(4);
    spec.racks = 7; // more racks than workers -> empty racks
    let err = Driver::try_new(spec, EngineConfig::default())
        .map(|_| ())
        .expect_err("empty racks");
    assert!(err.contains("empty racks"), "unexpected error: {err}");

    let mut spec = tiny(4);
    spec.nic_bandwidth = 0.0;
    let err = Driver::try_new(spec, EngineConfig::default())
        .map(|_| ())
        .expect_err("dead link");
    assert!(err.contains("nic_bandwidth"), "unexpected error: {err}");

    // Fault targets beyond the node count are caught by the same gate.
    let plan = FaultPlan::new().after(
        SimDuration::from_secs(1),
        FaultKind::NodeCrash {
            node: 99,
            restart: None,
        },
    );
    let err = Driver::try_new(tiny(4), EngineConfig::default().with_faults(plan))
        .map(|_| ())
        .expect_err("fault target out of range");
    assert!(err.contains("out of range"), "unexpected error: {err}");
}

#[test]
fn run_audited_matches_run_and_passes_waterfill_audit() {
    let data: Vec<Record> = (0..500)
        .map(|i| (Value::I64(i % 37), Value::I64(1)))
        .collect();
    let build = || {
        Rdd::source(Dataset::from_records(data.clone(), 8))
            .map("kv", SizeModel::scan(), |(k, v)| (k, v))
            .reduce_by_key(Some(5), 1e9, 1.0, |a, b| {
                Value::I64(a.as_i64() + b.as_i64())
            })
    };
    let mut d = driver(EngineConfig::default().homogeneous());
    let (out_a, m_a) = d.run(&build(), Action::Count);
    let mut d = driver(EngineConfig::default().homogeneous());
    let (out_b, m_b) = d
        .run_audited(&build(), Action::Count, 64)
        .expect("audited run must pass");
    assert_eq!(out_a.count, out_b.count);
    assert_eq!(m_a.job_time().to_bits(), m_b.job_time().to_bits());
}

#[test]
fn quiescence_oracle_holds_on_every_shuffle_store_and_catches_leaks() {
    // Two audited jobs back to back per store: after each, no flow is open,
    // no request sits in the MDS, a memory channel or a device, and no DLM
    // lock is held. The Lustre stores are the failing-then-passing case: a
    // job's shuffle files used to stay locked by their writers, with their
    // cache grant pinned, for as long as the world lived.
    for shuffle in [
        ShuffleStore::Local(StoreDevice::RamDisk),
        ShuffleStore::Local(StoreDevice::Ssd),
        ShuffleStore::LustreLocal,
        ShuffleStore::LustreShared,
    ] {
        let mut d = driver(
            EngineConfig {
                input: InputSource::Lustre,
                shuffle,
                ..EngineConfig::default()
            }
            .homogeneous(),
        );
        for _ in 0..2 {
            d.run_audited(&groupby_synthetic(256.0), Action::Count, 64)
                .unwrap_or_else(|e| panic!("{shuffle:?}: {e}"));
        }
        // One pass over the MDS request list per clock move at most: a
        // same-instant storm of requests sweeps nothing.
        assert!(d.world().lustre.mds_sweeps() <= d.engine_steps() + 2);
        // Teeth: each kind of leftover is reported.
        let now = d.now();
        let w = d.world_mut();
        let link = w.net.add_link(1e9);
        let leaked = w.net.open_flow(now, vec![link], false);
        let err = w.audit_invariants().expect_err("an idle flow left open");
        assert!(err.contains("1 idle flows are open"), "{err}");
        w.net.close_flow(now, leaked);
        w.lustre.submit_mds(now, 1.0, 0);
        let err = w
            .audit_invariants()
            .expect_err("an MDS request left behind");
        assert!(err.contains("the MDS holds 1 requests"), "{err}");
    }
}

#[test]
fn quiescence_oracle_keeps_watching_after_an_abandoned_attempt() {
    // A failed attempt may leave I/O in flight past the end of its job, so
    // busy substrates are then no finding — but what a departed job must
    // never hold (an idle flow, a DLM lock) still is, and once an audit
    // finds the substrates drained the whole oracle is back on.
    let plan = FaultPlan::new().after(SimDuration::ZERO, FaultKind::TaskFail { nth_launch: 3 });
    let mut d = driver(
        EngineConfig {
            input: InputSource::Lustre,
            shuffle: ShuffleStore::LustreLocal,
            ..EngineConfig::default()
        }
        .homogeneous()
        .with_faults(plan),
    );
    let (_, m) = d
        .run_audited(&groupby_synthetic(256.0), Action::Count, 64)
        .expect("faulted run");
    assert!(m.recovery.tasks_retried >= 1, "{:?}", m.recovery);
    let now = d.now();
    let w = d.world_mut();
    let link = w.net.add_link(1e9);
    let leaked = w.net.open_flow(now, vec![link], false);
    let err = w.audit_invariants().expect_err("an idle flow left open");
    assert!(err.contains("1 idle flows are open"), "{err}");
    w.net.close_flow(now, leaked);
    // Drained: this audit passes and clears the latch, so the next leftover
    // request is reported again.
    w.audit_invariants().expect("drained");
    w.lustre.submit_mds(now, 1.0, 0);
    let err = w
        .audit_invariants()
        .expect_err("an MDS request left behind");
    assert!(err.contains("the MDS holds 1 requests"), "{err}");
}

#[test]
fn a_departed_jobs_lustre_shuffle_files_do_not_slow_the_next_job() {
    // Deleting a job's Lustre shuffle files at departure is a model change
    // for job streams over a Lustre shuffle: the client-cache grant they
    // pinned (1 GB of each client's 1.5 GB here) is free again, so the
    // second of two back-to-back jobs runs as it would on a fresh world
    // instead of writing through to the OSSes.
    let run = |d: &mut Driver| {
        let (_, m) = d.run(&groupby_synthetic(4096.0), Action::Count);
        m.job_time()
    };
    for shuffle in [ShuffleStore::LustreLocal, ShuffleStore::LustreShared] {
        let cfg = EngineConfig {
            input: InputSource::Lustre,
            shuffle,
            ..EngineConfig::default()
        }
        .homogeneous();
        let mut d = driver(cfg);
        let fresh = run(&mut d);
        let second = run(&mut d);
        assert!(
            (second - fresh).abs() <= 1e-9 * fresh,
            "{shuffle:?}: {fresh} on a fresh world, {second} after another job"
        );
    }
}
