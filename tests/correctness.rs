//! Cross-crate correctness: real jobs must produce identical results no
//! matter which simulated storage architecture, scheduler, or optimization
//! executes them — performance models may change timing, never answers.

#[path = "../crates/bench/tests/pins/mod.rs"]
mod pins;

use memres::cluster::tiny;
use memres::core::prelude::*;
use memres::workloads::datagen;
use std::collections::BTreeMap;

fn wordcount(cfg: EngineConfig) -> BTreeMap<String, i64> {
    let mut driver = Driver::new(tiny(4), cfg);
    let recs: Vec<Record> = datagen::text_lines(300, 7)
        .into_iter()
        .flat_map(|(_, line)| {
            line.as_str()
                .split_whitespace()
                .map(|w| (Value::str(w), Value::I64(1)))
                .collect::<Vec<_>>()
        })
        .collect();
    let rdd =
        Rdd::source(Dataset::from_records(recs, 6)).reduce_by_key(Some(3), 1e9, 1.0, |a, b| {
            Value::I64(a.as_i64() + b.as_i64())
        });
    let (out, _) = driver.run(&rdd, Action::Collect);
    out.records
        .expect("real job collects")
        .into_iter()
        .map(|(k, v)| (k.as_str().to_string(), v.as_i64()))
        .collect()
}

#[test]
fn results_identical_across_shuffle_strategies() {
    let base = EngineConfig::default().homogeneous();
    let reference = wordcount(base.clone());
    assert!(!reference.is_empty());
    let total: i64 = reference.values().sum();
    assert!(total > 1000, "word occurrences: {total}");
    for shuffle in [
        ShuffleStore::Local(StoreDevice::RamDisk),
        ShuffleStore::Local(StoreDevice::Ssd),
        ShuffleStore::LustreLocal,
        ShuffleStore::LustreShared,
    ] {
        let got = wordcount(EngineConfig {
            shuffle,
            ..base.clone()
        });
        assert_eq!(got, reference, "results diverged under {shuffle:?}");
    }
}

#[test]
fn results_identical_across_schedulers_and_optimizations() {
    let base = EngineConfig {
        speed_sigma: 0.4,
        ..EngineConfig::default()
    };
    let reference = wordcount(base.clone().homogeneous());
    for cfg in [
        base.clone(),
        base.clone()
            .with_delay_scheduling(memres_des::SimDuration::from_secs(3)),
        base.clone().with_elb(),
        base.clone().with_cad(),
        EngineConfig {
            input: InputSource::Lustre,
            ..base.clone()
        },
    ] {
        assert_eq!(wordcount(cfg), reference);
    }
}

#[test]
fn group_by_key_groups_are_complete_under_every_store() {
    for shuffle in [
        ShuffleStore::Local(StoreDevice::RamDisk),
        ShuffleStore::LustreShared,
    ] {
        let cfg = EngineConfig {
            shuffle,
            ..EngineConfig::default()
        }
        .homogeneous();
        let mut driver = Driver::new(tiny(4), cfg);
        let recs = datagen::kv_pairs(500, 13, 3);
        let rdd = Rdd::source(Dataset::from_records(recs, 5)).group_by_key(Some(4), 1e9);
        let (out, _) = driver.run(&rdd, Action::Collect);
        let groups = out.records.unwrap();
        assert_eq!(groups.len(), 13, "all 13 keys appear");
        let values: usize = groups.iter().map(|(_, v)| v.as_list().len()).sum();
        assert_eq!(values, 500, "no record lost or duplicated in the shuffle");
    }
}

#[test]
fn multi_shuffle_pipeline_runs_end_to_end() {
    // Two chained shuffles: group, re-key by group size, group again.
    let cfg = EngineConfig::default().homogeneous();
    let mut driver = Driver::new(tiny(4), cfg);
    let recs = datagen::kv_pairs(200, 10, 5);
    let rdd = Rdd::source(Dataset::from_records(recs, 4))
        .group_by_key(Some(4), 1e9)
        .map("size-key", SizeModel::scan(), |(_, v)| {
            (Value::I64(v.as_list().len() as i64), Value::I64(1))
        })
        .group_by_key(Some(2), 1e9);
    let (out, metrics) = driver.run(&rdd, Action::Collect);
    let groups = out.records.unwrap();
    // Total inner values across size-groups = 10 original keys.
    let total: usize = groups.iter().map(|(_, v)| v.as_list().len()).sum();
    assert_eq!(total, 10);
    // Three stages ran: two storing phases recorded.
    let storing_stages: std::collections::BTreeSet<u32> =
        metrics.tasks_in(Phase::Storing).map(|t| t.stage).collect();
    assert_eq!(
        storing_stages.len(),
        2,
        "both shuffles flushed intermediate data"
    );
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let cfg = EngineConfig {
            speed_sigma: 0.3,
            seed: 9,
            ..EngineConfig::default()
        };
        let mut driver = Driver::new(tiny(6), cfg);
        let gb = memres::workloads::GroupBy::new(3.0e9).with_reducers(8);
        driver.run_for_metrics(&gb.build(), gb.action()).job_time()
    };
    assert_eq!(run(), run());
}

#[test]
fn the_action_does_not_change_the_simulation() {
    // A `Count` job's final stage keeps no row (a reduce with no step after
    // it only counts its groups), while `Collect` keeps every one. The
    // simulation must not tell the two apart at any pool size: every task
    // record, byte total and time is the same, and the count is the number
    // of rows `Collect` returns.
    let gb = memres::workloads::GroupBy::new(2.0e9).with_reducers(6);
    let grep = memres::workloads::Grep::new(2.0e8).with_split(2.5e7);
    let words = Rdd::source(Dataset::from_records(datagen::text_lines(300, 7), 6))
        .flat_map("words", SizeModel::scan(), |(_, line)| {
            line.as_str()
                .split_whitespace()
                .map(|w| (Value::str(w), Value::I64(1)))
                .collect()
        })
        .reduce_by_key(Some(3), 1e9, 1.0, |a, b| {
            Value::I64(a.as_i64() + b.as_i64())
        });
    let sizes = kv(5)
        .group_by_key(Some(4), 1e9)
        .map("size", SizeModel::scan(), |(k, v)| {
            (k, Value::I64(v.as_list().len() as i64))
        });
    let evens = kv(4).filter("even", SizeModel::scan(), |r| r.1.as_i64() % 2 == 0);
    let jobs = [
        ("group_by_i64", gb.build_real(3000, 41, 2)),
        ("grep_str_keys", grep.build_real(400, "fox", 3)),
        ("word_count", words),
        ("group_then_map", sizes),
        ("one_stage_filter", evens),
    ];
    for (name, rdd) in jobs {
        let run = |action: Action, threads| {
            let cfg = EngineConfig::default().with_executor_threads(threads);
            Driver::new(tiny(4), cfg).run(&rdd, action)
        };
        let (counted, m) = run(Action::Count, 1);
        let want = format!("{m:?}");
        assert!(counted.records.is_none(), "{name}: `Count` returns no rows");
        for threads in [1, 4] {
            let (collected, m) = run(Action::Collect, threads);
            assert_eq!(
                format!("{m:?}"),
                want,
                "{name}: Collect at {threads} threads"
            );
            let rows = collected.records.expect("real job collects");
            assert!(!rows.is_empty(), "{name}: the job has output");
            assert_eq!(counted.count, rows.len() as u64, "{name}");
            let (again, m) = run(Action::Count, threads);
            assert_eq!(format!("{m:?}"), want, "{name}: Count at {threads} threads");
            assert_eq!(again.count, counted.count, "{name}");
        }
    }
}

/// Order-sensitive digest of a collected output: group order, value order
/// inside every list and every folded value all feed it.
fn collect_digest(records: &[Record]) -> u64 {
    Value::list(
        records
            .iter()
            .map(|(k, v)| Value::list(vec![k.clone(), v.clone()]))
            .collect(),
    )
    .stable_hash()
}

#[test]
fn collect_output_follows_the_aggregation_contract() {
    // DESIGN §4.7 *Aggregation*, on one reducer: groups come in ascending
    // `stable_hash` order, first appearance in gather order breaking ties; a
    // group's values come in gather order (node ascending, then deposit
    // order, then row order). `ab` and `a4b` are distinct keys with one FNV
    // encoding (`List` has no length prefix, `Str` no terminator), so their
    // hashes tie; `x` hashes below both.
    let ab = Value::list(vec![Value::str("a"), Value::str("b")]);
    let a4b = Value::list(vec![Value::str("a\u{4}b")]);
    let x = Value::I64(7);
    assert_eq!(ab.stable_hash(), a4b.stable_hash());
    assert!(x.stable_hash() < ab.stable_hash());
    // Record i holds value i; round-robin puts rows i and i + 5 in map
    // partition i % 5.
    let keys = [&x, &a4b, &ab, &ab, &x, &x, &a4b, &x, &ab, &a4b];
    let recs: Vec<Record> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| ((*k).clone(), Value::I64(i as i64)))
        .collect();
    let rdd = Rdd::source(Dataset::from_records(recs, 5)).group_by_key(Some(1), 1e9);
    let cfg = EngineConfig::default().homogeneous();
    let (out, metrics) = Driver::new(tiny(4), cfg).run(&rdd, Action::Collect);
    // Gather order: partitions 0, 4 and 2 sit alone on nodes 0, 1 and 2;
    // 1 and 3 share node 3, where 1 deposits first.
    let mut deposits: Vec<(u32, f64, u32)> = metrics
        .tasks_in(Phase::Storing)
        .map(|t| (t.node, t.finished_at, t.index))
        .collect();
    deposits.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let gather: Vec<u32> = deposits.iter().map(|d| d.2).collect();
    assert_eq!(gather, [0, 4, 2, 1, 3]);
    // So `a4b` (row 9, partition 4) is seen before `ab` (row 2, partition 2)
    // although `ab` comes first in the input.
    let list = |vs: &[i64]| Value::list(vs.iter().map(|&v| Value::I64(v)).collect());
    let want = vec![
        (x, list(&[0, 5, 4, 7])),
        (a4b, list(&[9, 1, 6])),
        (ab, list(&[2, 3, 8])),
    ];
    assert_eq!(out.records.expect("real job collects"), want);
}

/// `n` pairs over `F64` keys at the edges of the bit encoding: NaN with two
/// payloads, `0.0` and `-0.0`, three subnormals, and a few ordinary values.
fn edge_float_pairs(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let k = match i % 11 {
                0 => f64::NAN,
                1 => f64::from_bits(0xfff8_0000_0000_0001),
                2 => 0.0,
                3 => -0.0,
                4 => f64::from_bits(1),
                5 => -f64::MIN_POSITIVE / 4.0,
                6 => f64::MIN_POSITIVE * 0.75,
                _ => (i % 23) as f64 * 0.5 - 3.0,
            };
            (Value::F64(k), Value::I64(i))
        })
        .collect()
}

/// `n` pairs over 113 `I64` keys spread across the whole `i64` range,
/// `i64::MIN`, `i64::MAX`, `0` and `-1` among them.
fn wide_int_pairs(n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let k = match i * 7 % 113 {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => 0,
                3 => -1,
                j => j.wrapping_mul(0x9e37_79b9_7f4a_7c15) as i64,
            };
            (Value::I64(k), Value::I64(i as i64))
        })
        .collect()
}

/// `n` pairs over 31 `I64` keys, except that every fourth record (the
/// first partition of four, round-robin) carries now and then an `F64` key,
/// a `Str` key or a `Str` value.
fn mixed_pairs(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let (k, v) = (Value::I64(i % 31), Value::I64(i));
            match (i % 4, i / 4 % 40) {
                (0, 7) => (Value::F64(i as f64 * 0.5), v),
                (0, 19) => (Value::str(format!("k{}", i % 3)), v),
                (0, 29) => (k, Value::str(format!("v{i}"))),
                _ => (k, v),
            }
        })
        .collect()
}

/// `n` pairs of small `I64`s over 37 keys, except that the first of four
/// partitions (round-robin) carries now and then a key or a value beyond
/// ±2³¹ and the second now and then a `Str` value, so a reducer gathers
/// segments of all three column layouts a shuffle bucket can take.
fn widening_pairs(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let (k, v) = (Value::I64(i % 37), Value::I64(i));
            match (i % 4, i / 4 % 50) {
                (0, 7) => (Value::I64(i64::from(i32::MAX) + 1), v),
                (0, 19) => (Value::I64(i64::from(i32::MIN) - 1), v),
                (0, 29) => (k, Value::I64(i64::MAX - i)),
                (0, 41) => (k, Value::I64(i64::MIN + i)),
                (1, 13 | 37) => (k, Value::str(format!("v{i}"))),
                _ => (k, v),
            }
        })
        .collect()
}

/// `kv_pairs(5000, 97, 11)` over `parts` partitions.
fn kv(parts: usize) -> Rdd {
    Rdd::source(Dataset::from_records(
        datagen::kv_pairs(5000, 97, 11),
        parts,
    ))
}

/// The order-sensitive fold `reduce_by_key` cases share.
fn fold(a: Value, b: Value) -> Value {
    Value::I64(a.as_i64().wrapping_mul(31).wrapping_add(b.as_i64()))
}

/// `rdd`'s `Collect` output at 1, 2 and 4 executor threads: `groups`
/// groups each time, and one digest, pinned as `collect`.
fn collect_at_every_thread_count(case: &str, rdd: Rdd, groups: usize) -> Vec<pins::Pin> {
    [1, 2, 4]
        .into_iter()
        .map(|threads| {
            let cfg = EngineConfig::default()
                .homogeneous()
                .with_executor_threads(threads);
            let (out, _) = Driver::new(tiny(4), cfg).run(&rdd, Action::Collect);
            let recs = out.records.expect("real job collects");
            assert_eq!(recs.len(), groups, "{case} at {threads} threads");
            pins::fnv("collect", collect_digest(&recs))
        })
        .collect()
}

// Digests captured at commit 036a44c (before shuffle partitioning and
// aggregation moved to the executor pool): the exact `Collect` output of a
// groupByKey, an order-sensitive reduceByKey and a two-shuffle pipeline —
// and of a string-keyed word count, captured at d4ee471 — must not move,
// whatever the pool size.
const CASES: &[pins::Case] = &[
    ("group_by_key", |case| {
        collect_at_every_thread_count(case, kv(7).group_by_key(Some(5), 1e9), 97)
    }),
    ("reduce_by_key", |case| {
        let rdd = kv(6).reduce_by_key(Some(4), 1e9, 1.0, fold);
        collect_at_every_thread_count(case, rdd, 97)
    }),
    ("two_shuffles", |case| {
        let rdd = Rdd::source(Dataset::from_records(datagen::kv_pairs(200, 10, 5), 4))
            .group_by_key(Some(4), 1e9)
            .map("size-key", SizeModel::scan(), |(_, v)| {
                (Value::I64(v.as_list().len() as i64), Value::I64(1))
            })
            .group_by_key(Some(2), 1e9);
        collect_at_every_thread_count(case, rdd, 6)
    }),
    // `Str` keys through partition -> aggregate -> `Collect`, captured
    // before the string payload went behind a thin pointer.
    ("word_count", |case| {
        let rdd = Rdd::source(Dataset::from_records(datagen::text_lines(300, 7), 6))
            .flat_map("words", SizeModel::scan(), |(_, line)| {
                line.as_str()
                    .split_whitespace()
                    .map(|w| (Value::str(w), Value::I64(w.len() as i64)))
                    .collect()
            })
            .reduce_by_key(Some(3), 1e9, 1.0, fold);
        collect_at_every_thread_count(case, rdd, 20)
    }),
    // The reduce side's probe hash reads `F64` and `I64` keys by their
    // bits; these two, captured at 4b49611, pin it end to end. NaN (two
    // payloads), both zeros and subnormals are distinct bit patterns, so
    // each is its own group.
    ("group_by_key_f64_edges", |case| {
        let rdd = Rdd::source(Dataset::from_records(edge_float_pairs(3000), 5))
            .group_by_key(Some(4), 1e9);
        collect_at_every_thread_count(case, rdd, 29)
    }),
    ("reduce_by_key_i64_full_range", |case| {
        let rdd = Rdd::source(Dataset::from_records(wide_int_pairs(4000), 6)).reduce_by_key(
            Some(5),
            1e9,
            1.0,
            fold,
        );
        collect_at_every_thread_count(case, rdd, 113)
    }),
    // One partition mixes a few `F64` and `Str` keys and `Str` values into
    // its `I64` pairs, so one reducer gathers segments of both layouts a
    // shuffle bucket can take (DESIGN §4.7).
    ("group_by_key_mixed_columns", |case| {
        let rdd =
            Rdd::source(Dataset::from_records(mixed_pairs(2000), 4)).group_by_key(Some(3), 1e9);
        collect_at_every_thread_count(case, rdd, 47)
    }),
    // Small `I64`s, a few beyond ±2³¹ and a few `Str` values: one reducer
    // gathers narrow, wide and boxed segments (DESIGN §4.7).
    ("group_by_key_widening_columns", |case| {
        let rdd =
            Rdd::source(Dataset::from_records(widening_pairs(2000), 4)).group_by_key(Some(3), 1e9);
        collect_at_every_thread_count(case, rdd, 39)
    }),
];

#[test]
fn collect_output_is_pinned_at_every_thread_count() {
    pins::check(CASES);
}

pins::tests!(CASES);
