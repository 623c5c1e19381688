//! Property-based engine invariants (proptest).
//!
//! These run small randomized jobs through the full simulation stack and
//! assert conservation and determinism properties that must hold for every
//! configuration, not just the calibrated ones.

#![allow(
    clippy::indexing_slicing,
    reason = "terse literal indexing is fine in tests"
)]

use memres_cluster::tiny;
use memres_core::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn cfg_for(shuffle_idx: u8, sigma: f64, seed: u64) -> EngineConfig {
    let shuffle = match shuffle_idx % 4 {
        0 => ShuffleStore::Local(StoreDevice::RamDisk),
        1 => ShuffleStore::Local(StoreDevice::Ssd),
        2 => ShuffleStore::LustreLocal,
        _ => ShuffleStore::LustreShared,
    };
    EngineConfig {
        shuffle,
        speed_sigma: sigma,
        seed,
        ..EngineConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Shuffle conservation: with identity size models, the bytes fetched by
    /// the reduce side equal the bytes produced by the map side, for every
    /// storage strategy, node count, and partitioning.
    #[test]
    fn shuffle_conserves_bytes(
        workers in 2u32..8,
        parts in 1u32..24,
        reducers in 1u32..12,
        shuffle_idx in 0u8..4,
        seed in 0u64..1000,
    ) {
        let total = 64.0 * 1024.0 * 1024.0;
        let rdd = Rdd::source(Dataset::generated(total, total / parts as f64, 100.0))
            .map("id", SizeModel::new(1.0, 1.0, 1e9), |r| r)
            .group_by_key(Some(reducers), 1e9);
        let mut d = Driver::new(tiny(workers), cfg_for(shuffle_idx, 0.0, seed));
        let m = d.run_for_metrics(&rdd, Action::Count);
        let produced: f64 = m.tasks_in(Phase::Compute).map(|t| t.output_bytes).sum();
        let fetched: f64 = m.tasks_in(Phase::Shuffling).map(|t| t.input_bytes).sum();
        prop_assert!((produced - total).abs() / total < 1e-6);
        prop_assert!((fetched - total).abs() / total < 1e-6,
            "fetched {fetched} != produced {produced}");
        // Every reduce task exists and the job has positive duration.
        prop_assert_eq!(m.tasks_in(Phase::Shuffling).count() as u32, reducers);
        prop_assert!(m.job_time() > 0.0);
    }

    /// Real-data results are invariant under partitioning, reducer count,
    /// storage strategy, and node heterogeneity.
    #[test]
    fn wordcount_invariant(
        parts in 1usize..8,
        reducers in 1u32..6,
        shuffle_idx in 0u8..4,
        sigma in 0.0f64..0.5,
    ) {
        let words = ["a", "b", "a", "c", "a", "b", "d", "e", "a", "b"];
        let recs: Vec<Record> =
            words.iter().map(|w| (Value::str(*w), Value::I64(1))).collect();
        let rdd = Rdd::source(Dataset::from_records(recs, parts))
            .reduce_by_key(Some(reducers), 1e9, 1.0, |a, b| {
                Value::I64(a.as_i64() + b.as_i64())
            });
        let mut d = Driver::new(tiny(4), cfg_for(shuffle_idx, sigma, 3));
        let (out, _) = d.run(&rdd, Action::Collect);
        let counts: BTreeMap<String, i64> = out
            .records
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k.as_str().to_string(), v.as_i64()))
            .collect();
        prop_assert_eq!(counts.len(), 5);
        prop_assert_eq!(counts["a"], 4);
        prop_assert_eq!(counts["b"], 3);
        prop_assert_eq!(counts["e"], 1);
    }

    /// Determinism: the same seed gives bit-identical job times; different
    /// seeds (with heterogeneity) usually differ.
    #[test]
    fn deterministic_per_seed(seed in 0u64..100, shuffle_idx in 0u8..4) {
        let job = || {
            Rdd::source(Dataset::generated(32.0 * 1024.0 * 1024.0, 4.0 * 1024.0 * 1024.0, 100.0))
                .group_by_key(Some(4), 1e9)
        };
        let run = |s| {
            let mut d = Driver::new(tiny(4), cfg_for(shuffle_idx, 0.3, s));
            d.run_for_metrics(&job(), Action::Count).job_time()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Every task's finish time is at least its launch time, launches never
    /// precede queueing, and slots are respected (no more concurrent tasks
    /// on a node than cores).
    #[test]
    fn task_timeline_sane(
        parts in 1u32..32,
        sigma in 0.0f64..0.5,
        shuffle_idx in 0u8..4,
    ) {
        let total = 128.0 * 1024.0 * 1024.0;
        let rdd = Rdd::source(Dataset::generated(total, total / parts as f64, 100.0))
            .group_by_key(None, 1e9);
        let spec = tiny(4);
        let cores = spec.cores_per_node as usize;
        let mut d = Driver::new(spec, cfg_for(shuffle_idx, sigma, 5));
        let m = d.run_for_metrics(&rdd, Action::Count);
        for t in m.tasks() {
            prop_assert!(t.finished_at >= t.launched_at);
            prop_assert!(t.launched_at >= t.queued_at);
        }
        // Slot check: sweep events per node.
        for node in 0..4u32 {
            let mut events: Vec<(f64, i32)> = Vec::new();
            for t in m.tasks().filter(|t| t.node == node) {
                events.push((t.launched_at, 1));
                events.push((t.finished_at, -1));
            }
            events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(b.1.cmp(&a.1).reverse()));
            let mut running = 0;
            for (_, delta) in events {
                running += delta;
                prop_assert!(running <= cores as i32, "node {node} oversubscribed");
            }
        }
    }
}
