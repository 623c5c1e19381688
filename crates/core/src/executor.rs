//! The executor: everything that touches a record.
//!
//! The world (`world.rs` and its `world/` modules) is the simulation's single
//! kernel thread and its rule is that it never hashes, clones, moves, frees
//! or aggregates a record. Whatever does is
//! captured at task launch as a [`Pending`] entry and evaluated here — a
//! pure function of the entry, so [`evaluate`] may spread a dispatch round's
//! entries over a host-thread pool — and the world only commits the handles
//! that come back, in launch order. Two kinds of work exist: a compute
//! task's UDF chain ([`run_narrow_chain`]) and a reducer's aggregation of
//! its fetched segments ([`aggregate`]). What becomes of the output rows
//! depends on their [`Reader`]: the next shuffle's are hash-partitioned
//! ([`partition`]), the rows a `Collect` or `Reduce` action reads are kept as
//! one shared slice, and rows nobody reads are freed on the worker — a
//! reduce with no step after it never builds them. Each record is
//! stable-hashed once on the map side; the reduce side probes by a cheaper
//! hash and stable-hashes once per group. Both sides read their input by
//! reference (the reduce side one segment at a time), clone what they keep
//! out of it, and free each input buffer whole once its pass is done. Every
//! output `Vec` is allocated at its exact final capacity.

// Bucket, group and table indices are minted in this module from lengths it
// just computed; an out-of-range access would be a bug here, not a
// recoverable condition (same waiver, same reason, as `world.rs` and the
// modules under `world/`).
#![allow(
    clippy::indexing_slicing,
    reason = "indices are minted here from lengths just computed; a miss is a bug here"
)]
// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::dag::{JobPlan, StagePlan};
use crate::rdd::{RddId, ShuffleAgg};
use crate::value::{record_bytes, Record, Value};
use memres_des::time::SimDuration;
use std::sync::{mpsc, Arc};

/// Real rows a chain leaves behind.
pub(crate) enum RealOut {
    /// A shared slice: the final-stage output an action reads.
    Rows(Arc<[Record]>),
    /// Hash-partitioned for the produced shuffle, one bucket per reducer.
    Buckets(Vec<Bucket>),
}

/// Per-record work captured at task launch and evaluated off the kernel
/// thread (possibly on a worker pool — see [`evaluate`]). Evaluation is a
/// pure function of this struct — the plan is captured here because worker
/// threads cannot borrow `SimWorld` — and `SimWorld::flush_pending` commits
/// the results in launch order.
pub(crate) struct Pending {
    pub task: u32,
    pub plan: Arc<JobPlan>,
    pub stage: usize,
    pub reader: Reader,
    pub work: Work,
}

/// Who reads the rows an evaluation produces.
#[derive(Clone, Copy)]
pub(crate) enum Reader {
    /// The produced shuffle, over this many reducers: the evaluation ends
    /// by hash-partitioning its own output.
    Shuffle(u32),
    /// The job's action (`Collect`, `Reduce`) reads the final stage's rows.
    Action,
    /// Nobody (a `Count` job's final stage): the evaluation returns the
    /// rows' records and bytes and keeps no row.
    Nobody,
}

pub(crate) enum Work {
    /// A compute task's UDF chain over its shared input partition.
    Chain {
        part: u32,
        node: u32,
        in_bytes: f64,
        in_records: u64,
        data: Arc<[Record]>,
        speed: f64,
        /// Lineage recovery: evaluate this synthesized source→stage chain
        /// instead of `plan.stages[stage]` (see `recovery_stage`).
        stage_override: Option<Arc<StagePlan>>,
    },
    /// A reducer's aggregation of its fetched segments (taken out of the
    /// shuffle's `Deposits::Real` in gather order) followed by the stage's
    /// narrow steps. With no step and no reader it only counts its groups
    /// and their bytes.
    Reduce {
        agg: ShuffleAgg,
        segments: Vec<Vec<Record>>,
    },
}

/// What [`run_narrow_chain`] produces: (compute seconds, output bytes,
/// output records, real output, cache snapshots).
pub(crate) type ChainOut = (
    SimDuration,
    f64,
    u64,
    Option<RealOut>,
    Vec<(RddId, f64, u64, Option<Arc<[Record]>>)>,
);

/// Rows mid-chain: the shared input until a step produces its own vector.
enum Rows {
    Shared(Arc<[Record]>),
    Owned(Vec<Record>),
}

impl Rows {
    /// A shared view for a cache snapshot. An owned vector is copied once
    /// into a new counted block (`Arc<[T]>::from(Vec<T>)`) and freed; later
    /// snapshots and the output share that block.
    fn share(&mut self) -> Arc<[Record]> {
        let shared = match std::mem::replace(self, Rows::Owned(Vec::new())) {
            Rows::Shared(a) => a,
            Rows::Owned(v) => v.into(),
        };
        *self = Rows::Shared(shared.clone());
        shared
    }

    /// The evaluation's real output for `reader`: hash-partitioned for a
    /// shuffle (rows are cloned into their buckets and an owned vector is
    /// then freed whole), a shared slice for an action, and nothing — the
    /// rows freed here, on the worker — when nobody reads them.
    fn finish(self, reader: Reader) -> Option<RealOut> {
        match (reader, self) {
            (Reader::Shuffle(r), Rows::Owned(v)) => Some(RealOut::Buckets(partition(&v, r))),
            (Reader::Shuffle(r), Rows::Shared(a)) => Some(RealOut::Buckets(partition(&a, r))),
            (Reader::Action, Rows::Owned(v)) => Some(RealOut::Rows(v.into())),
            (Reader::Action, Rows::Shared(a)) => Some(RealOut::Rows(a)),
            (Reader::Nobody, _) => None,
        }
    }
}

impl Pending {
    /// Runs on a pool worker; consumes the entry's record payload.
    fn eval(&mut self) -> ChainOut {
        let stage = &self.plan.stages[self.stage];
        match &mut self.work {
            Work::Chain {
                in_bytes,
                in_records,
                data,
                speed,
                stage_override,
                ..
            } => run_narrow_chain(
                stage_override.as_deref().unwrap_or(stage),
                *in_bytes,
                *in_records,
                Some(data.clone()),
                *speed,
                self.reader,
            ),
            Work::Reduce { agg, segments, .. } => {
                // Groups nobody reads and no step transforms are only counted.
                let keep = !matches!(self.reader, Reader::Nobody) || !stage.steps.is_empty();
                let (rows, mut records, mut bytes) = aggregate(agg, std::mem::take(segments), keep);
                let mut real = None;
                if let Some(mut rows) = rows {
                    for step in &stage.steps {
                        rows = step.apply(rows);
                    }
                    if !stage.steps.is_empty() {
                        bytes = rows.iter().map(record_bytes).sum();
                    }
                    records = rows.len() as u64;
                    real = Rows::Owned(rows).finish(self.reader);
                }
                (SimDuration::ZERO, bytes as f64, records, real, Vec::new())
            }
        }
    }
}

/// Apply a stage's narrow chain. Returns (compute seconds, output bytes,
/// output records, real output, cache snapshots).
///
/// Zero-copy contract: the shared input is never deep-copied. A chain with
/// no steps passes the input `Arc` straight through (placement, caching and
/// task output all share one allocation), every cache snapshot is a
/// reference bump of the value at that point, and a step's own output is
/// moved into the next step. When the `reader` is the produced shuffle, the
/// last rows are cloned into the shuffle buckets and an owned vector is
/// freed whole; when it is nobody, they are freed here.
pub(crate) fn run_narrow_chain(
    stage: &StagePlan,
    in_bytes: f64,
    in_records: u64,
    data: Option<Arc<[Record]>>,
    speed: f64,
    reader: Reader,
) -> ChainOut {
    let mut secs = 0.0;
    let mut bytes = in_bytes;
    let mut records = in_records;
    let mut real: Option<Rows> = data.map(Rows::Shared);
    let mut snaps = Vec::new();
    // A chain that ends in `partition` takes its output total from the bucket
    // totals — the same integers, summed per bucket while the rows move —
    // instead of walking the last step's output once more just to add them.
    let last = stage.steps.len();
    let from_buckets = matches!(reader, Reader::Shuffle(_))
        && last > 0
        && stage.cache_points.iter().all(|(cp_idx, _)| *cp_idx != last);
    for (cp_idx, rdd) in &stage.cache_points {
        if *cp_idx == 0 {
            snaps.push((*rdd, bytes, records, real.as_mut().map(Rows::share)));
        }
    }
    for (i, step) in stage.steps.iter().enumerate() {
        secs += bytes / (step.size.compute_rate * speed);
        match real.take() {
            Some(rows) => {
                let out = match rows {
                    Rows::Shared(a) => step.apply_slice(&a),
                    Rows::Owned(v) => step.apply(v),
                };
                if !(from_buckets && i + 1 == last) {
                    bytes = out.iter().map(record_bytes).sum::<u64>() as f64;
                }
                records = out.len() as u64;
                real = Some(Rows::Owned(out));
            }
            None => {
                bytes *= step.size.bytes_factor;
                records = ((records as f64) * step.size.records_factor).round() as u64;
            }
        }
        for (cp_idx, rdd) in &stage.cache_points {
            if *cp_idx == i + 1 {
                snaps.push((*rdd, bytes, records, real.as_mut().map(Rows::share)));
            }
        }
    }
    let real = real.and_then(|rows| rows.finish(reader));
    if let (true, Some(RealOut::Buckets(buckets))) = (from_buckets, &real) {
        bytes = buckets.iter().map(|b| b.bytes).sum::<u64>() as f64;
    }
    (
        SimDuration::from_secs_f64(secs),
        bytes,
        records,
        real,
        snaps,
    )
}

/// Evaluate every entry — on `threads` scoped workers when that is more
/// than one — and return the results in entry order. Work is handed out as
/// it is asked for, so a worker that draws cheap entries draws more: a
/// worker asks the scope's thread for its next entry by sending it the
/// sending half of a one-entry channel, and keeps `(index, result)` pairs
/// until it is joined. No lock is shared, so none can be poisoned; a UDF
/// panic on a worker ends that worker's asking, and its join re-raises it.
pub(crate) fn evaluate(pending: &mut [Pending], threads: usize) -> Vec<ChainOut> {
    if threads <= 1 {
        return pending.iter_mut().map(Pending::eval).collect();
    }
    let mut done = Vec::with_capacity(pending.len());
    std::thread::scope(|s| {
        let (ask, asks) = mpsc::channel();
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let ask = ask.clone();
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let (give, take) = mpsc::sync_channel::<(usize, &mut Pending)>(1);
                        if ask.send(give).is_err() {
                            return out;
                        }
                        let Ok((i, entry)) = take.recv() else {
                            return out;
                        };
                        out.push((i, entry.eval()));
                    }
                })
            })
            .collect();
        // Only workers ask, so this loop ends when the entries run out or
        // every worker has panicked; dropping the queue of asks then ends
        // each live worker's wait.
        drop(ask);
        for (give, entry) in asks.iter().zip(pending.iter_mut().enumerate()) {
            // An asker waits for its reply, so this is not refused; were it
            // refused, the entry would be evaluated here rather than lost.
            if let Err(mpsc::SendError((i, entry))) = give.send(entry) {
                done.push((i, entry.eval()));
            }
        }
        drop(asks);
        for worker in workers {
            done.extend(
                worker
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// One reducer's share of a producer's output.
pub(crate) struct Bucket {
    pub rows: Vec<Record>,
    /// `record_bytes` total of `rows`.
    pub bytes: u64,
}

/// Hash-partition `rows` over `reducers` buckets, preserving row order
/// inside each bucket. Every row is cloned from the borrowed slice: a copy
/// for the scalar variants, a count bump for the rest.
fn partition(rows: &[Record], reducers: u32) -> Vec<Bucket> {
    let dest: Vec<u32> = rows
        .iter()
        .map(|(k, _)| (k.stable_hash() % reducers as u64) as u32)
        .collect();
    let mut counts = vec![0usize; reducers as usize];
    for &d in &dest {
        counts[d as usize] += 1;
    }
    let mut buckets: Vec<Bucket> = counts
        .into_iter()
        .map(|n| Bucket {
            rows: Vec::with_capacity(n),
            bytes: 0,
        })
        .collect();
    for (rec, &d) in rows.iter().zip(&dest) {
        let b = &mut buckets[d as usize];
        b.bytes += record_bytes(rec);
        b.rows.push(rec.clone());
    }
    buckets
}

/// `KeyIndex`'s probe hash: a function of the encoding [`Value::same_key`]
/// compares. `I64` and `F64` keys are their bits, each XORed with its own
/// variant constant so an integer and a float with equal bits probe apart;
/// every other variant is its `stable_hash`.
fn probe(key: &Value) -> u64 {
    match key {
        Value::I64(x) => *x as u64 ^ PROBE_I64,
        Value::F64(x) => x.to_bits() ^ PROBE_F64,
        other => other.stable_hash(),
    }
}

const PROBE_I64: u64 = 0x2545_f491_4f6c_dd1d;
const PROBE_F64: u64 = 0x7f4a_7c15_9e37_79b9;

/// Insertion-ordered key index: a dense group vector in first-appearance
/// order (the only thing ever iterated) plus an open-addressing probe table
/// into it. Keys are probed by a caller-supplied probe hash ([`probe`] in
/// production) and confirmed by [`Value::same_key`], so two keys whose
/// probes collide stay two groups. The probe only places keys; output order
/// comes from a separate hash, computed once per group (see
/// [`aggregate`]).
struct KeyIndex {
    /// `(probe hash, key)` per group.
    groups: Vec<(u64, Value)>,
    /// `group + 1` per occupied slot, 0 when empty; power-of-two length.
    table: Vec<u32>,
}

impl KeyIndex {
    fn new() -> Self {
        KeyIndex {
            groups: Vec::new(),
            table: vec![0; 16],
        }
    }

    /// First probe slot of `hash`. Multiplicative mixing takes the *high*
    /// bits: a probe hash may be a key's raw bits (small integers leave the
    /// high bits constant) or its `stable_hash` (every key of one reducer
    /// shares `hash % reducers`, so the low bits say almost nothing).
    fn home(&self, hash: u64) -> usize {
        let bits = self.table.len().trailing_zeros();
        (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    fn free_slot(&self, hash: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut i = self.home(hash);
        while self.table[i] != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    /// Group number of `key`; a first appearance appends a group (cloning
    /// the key once per group, never per record).
    fn group_of(&mut self, hash: u64, key: &Value) -> usize {
        let mask = self.table.len() - 1;
        let mut i = self.home(hash);
        while self.table[i] != 0 {
            let g = self.table[i] as usize - 1;
            let (h, k) = &self.groups[g];
            if *h == hash && k.same_key(key) {
                return g;
            }
            i = (i + 1) & mask;
        }
        self.groups.push((hash, key.clone()));
        #[expect(
            clippy::expect_used,
            reason = "2^32 distinct keys in one reducer would need >190 GB of records"
        )]
        let n = u32::try_from(self.groups.len()).expect("under 2^32 groups per reducer");
        if self.groups.len() * 2 <= self.table.len() {
            self.table[i] = n;
        } else {
            // Half full: double the table and re-seat every group (the new
            // one included) from its stored hash.
            self.table = vec![0; self.table.len() * 2];
            for g in 0..n {
                let slot = self.free_slot(self.groups[g as usize].0);
                self.table[slot] = g + 1;
            }
        }
        n as usize - 1
    }
}

/// What [`aggregate`] returns: the groups when kept, their number, and the
/// `record_bytes` total of the groups.
type Aggregated = (Option<Vec<Record>>, u64, u64);

/// Aggregate one reducer's fetched `segments`, read in gather order
/// (segment by segment, rows in order) without concatenating them; each
/// value is cloned out and the segments are freed whole after the pass.
/// Returns the groups in ascending `stable_hash` order — first appearance
/// breaking ties — when `keep`; without it, only their number and bytes,
/// and a `GroupByKey` stops after its count pass.
fn aggregate(agg: &ShuffleAgg, segments: Vec<Vec<Record>>, keep: bool) -> Aggregated {
    aggregate_with(agg, segments, keep, probe, Value::stable_hash)
}

/// [`aggregate`] with the probe hash and the order hash as parameters, so
/// tests can make either collide on every key.
fn aggregate_with(
    agg: &ShuffleAgg,
    segments: Vec<Vec<Record>>,
    keep: bool,
    probe: impl Fn(&Value) -> u64,
    order: impl Fn(&Value) -> u64,
) -> Aggregated {
    let mut index = KeyIndex::new();
    let (values, value_bytes): (Vec<Value>, u64) = match agg {
        ShuffleAgg::ReduceByKey(f) => {
            // Left fold per key in gather order, straight into the group.
            let mut acc: Vec<Value> = Vec::new();
            for seg in &segments {
                for (k, v) in seg {
                    let g = index.group_of(probe(k), k);
                    if g == acc.len() {
                        acc.push(v.clone());
                    } else {
                        let a = std::mem::replace(&mut acc[g], Value::Null);
                        acc[g] = f(a, v.clone());
                    }
                }
            }
            let bytes = acc.iter().map(Value::approx_bytes).sum();
            (acc, bytes)
        }
        ShuffleAgg::GroupByKey => {
            // Count pass (the one probe per record, summing the value bytes),
            // then, when kept, fill exact lists.
            let n = if keep {
                segments.iter().map(Vec::len).sum()
            } else {
                0
            };
            let mut group: Vec<u32> = Vec::with_capacity(n);
            let mut counts: Vec<usize> = Vec::new();
            let mut bytes = 0;
            for seg in &segments {
                for (k, v) in seg {
                    let g = index.group_of(probe(k), k);
                    bytes += v.approx_bytes();
                    if keep {
                        if g == counts.len() {
                            counts.push(0);
                        }
                        counts[g] += 1;
                        group.push(g as u32);
                    }
                }
            }
            bytes += 16 * index.groups.len() as u64;
            if !keep {
                (Vec::new(), bytes)
            } else {
                let mut lists: Vec<Vec<Value>> =
                    counts.into_iter().map(Vec::with_capacity).collect();
                let mut at = 0;
                for seg in &segments {
                    for ((_, v), &g) in seg.iter().zip(&group[at..]) {
                        lists[g as usize].push(v.clone());
                    }
                    at += seg.len();
                }
                (lists.into_iter().map(Value::list).collect(), bytes)
            }
        }
    };
    drop(segments);
    let key_bytes: u64 = index.groups.iter().map(|(_, k)| k.approx_bytes()).sum();
    let (groups, bytes) = (index.groups.len() as u64, key_bytes + value_bytes);
    if !keep {
        return (None, groups, bytes);
    }
    let mut out: Vec<(u64, Record)> = index
        .groups
        .into_iter()
        .zip(values)
        .map(|((_, k), v)| (order(&k), (k, v)))
        .collect();
    // Stable: equal hashes keep first-appearance order.
    out.sort_by_key(|&(h, _)| h);
    (
        Some(out.into_iter().map(|(_, rec)| rec).collect()),
        groups,
        bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-PR-14 aggregation, kept verbatim as the differential oracle:
    /// a `BTreeMap` keyed by `stable_hash` alone over the gathered rows.
    fn apply_agg_oracle(agg: &ShuffleAgg, records: Vec<Record>) -> Vec<Record> {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<u64, (Value, Vec<Value>)> = BTreeMap::new();
        for (k, v) in records {
            groups
                .entry(k.stable_hash())
                .or_insert_with(|| (k.clone(), Vec::new()))
                .1
                .push(v);
        }
        match agg {
            ShuffleAgg::GroupByKey => groups
                .into_values()
                .map(|(k, vs)| (k, Value::list(vs)))
                .collect(),
            ShuffleAgg::ReduceByKey(f) => groups
                .into_values()
                .map(|(k, vs)| {
                    let folded = vs.into_iter().reduce(|a, b| f(a, b)).unwrap();
                    (k, folded)
                })
                .collect(),
        }
    }

    /// The pre-PR-14 `producer_finished` bucketing, kept as the oracle: per
    /// record a hash, a clone, a push, and an `f64` byte accumulation.
    fn partition_oracle(recs: &[Record], reducers: u32) -> Vec<(Vec<Record>, f64)> {
        let mut out: Vec<(Vec<Record>, f64)> = vec![(Vec::new(), 0.0); reducers as usize];
        for rec in recs {
            let b = &mut out[(rec.0.stable_hash() % reducers as u64) as usize];
            b.1 += record_bytes(rec) as f64;
            b.0.push(rec.clone());
        }
        out
    }

    /// Order-sensitive fold, so any change of fold order shows.
    fn fold() -> ShuffleAgg {
        ShuffleAgg::ReduceByKey(Arc::new(|a, b| {
            Value::I64(a.as_i64().wrapping_mul(31).wrapping_add(b.as_i64()))
        }))
    }

    fn key(kind: u8, k: u64) -> Value {
        match kind % 4 {
            0 => Value::I64(k as i64 - 7),
            1 => Value::str(format!("key-{k}")),
            2 => Value::F64(k as f64 * 0.25 - 2.0),
            _ => edge_key(k),
        }
    }

    /// Mixed `I64`/`F64` keys at the probe's edges: NaN, both zeros, the
    /// `i64` extremes and [`probe_twins`], between ordinary integers.
    fn edge_key(k: u64) -> Value {
        match k % 8 {
            0 => Value::F64(f64::NAN),
            1 => Value::F64(-0.0),
            2 => Value::F64(0.0),
            3 => Value::I64(i64::MIN),
            4 => Value::I64(i64::MAX),
            5 => probe_twins().0,
            6 => probe_twins().1,
            _ => Value::I64(k as i64),
        }
    }

    /// An `I64` and an `F64` key with one probe value.
    fn probe_twins() -> (Value, Value) {
        let bits = 42 ^ PROBE_I64 ^ PROBE_F64;
        (Value::I64(42), Value::F64(f64::from_bits(bits)))
    }

    /// Record-wise equality by [`Value::same_key`], under which a NaN key
    /// equals itself.
    fn same(a: &[Record], b: &[Record]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.0.same_key(&y.0) && x.1.same_key(&y.1))
    }

    /// `n` records over `keys` distinct keys; `skew` > 1 piles them onto
    /// the low keys.
    fn records(rng: &mut u64, n: usize, kind: u8, keys: u64, skew: i32) -> Vec<Record> {
        (0..n)
            .map(|_| {
                *rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (*rng >> 11) as f64 / (1u64 << 53) as f64;
                let k = (u.powi(skew) * keys as f64) as u64;
                (key(kind, k), Value::I64((*rng >> 40) as i64))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Partition + aggregate against the pre-PR-14 oracles: bucket rows
        /// and byte totals, then group order, value order inside every
        /// list, fold order and output bytes, for every reducer.
        #[test]
        fn partition_and_aggregate_match_the_oracles(
            kind in 0u8..4,
            keys in 1u64..40,
            skew in 1i32..4,
            reducers in 1u32..=7,
            producers in 1usize..=5,
            max_rows in 0usize..80,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = seed;
            let mut segments: Vec<Vec<Vec<Record>>> = vec![Vec::new(); reducers as usize];
            let mut gathered: Vec<Vec<Record>> = vec![Vec::new(); reducers as usize];
            for p in 0..producers {
                let rows = records(&mut rng, (max_rows + p) % (max_rows + 1), kind, keys, skew);
                let want = partition_oracle(&rows, reducers);
                // Odd producers partition a borrowed slice directly, even
                // ones through a chain whose last step's owned output is
                // cloned into the buckets: the chain's reported bytes are
                // the bucket totals are the per-record sum.
                let got = if p % 2 == 0 {
                    let (_, bytes, n, real, _) = run_narrow_chain(
                        &identity_stage(vec![]), 1.0, 0, Some(rows.into()), 1.0, Reader::Shuffle(reducers),
                    );
                    let Some(RealOut::Buckets(got)) = real else { panic!("partitioned output") };
                    prop_assert_eq!(n as usize, want.iter().map(|(rows, _)| rows.len()).sum::<usize>());
                    prop_assert_eq!(bytes, got.iter().map(|b| b.bytes).sum::<u64>() as f64);
                    prop_assert_eq!(bytes, want.iter().flat_map(|(rows, _)| rows).map(record_bytes).sum::<u64>() as f64);
                    got
                } else {
                    partition(&rows, reducers)
                };
                prop_assert_eq!(got.len(), want.len());
                for (r, (b, (rows, bytes))) in got.into_iter().zip(want).enumerate() {
                    prop_assert!(same(&b.rows, &rows), "{:?} != {:?}", b.rows, rows);
                    prop_assert_eq!(b.rows.capacity(), rows.len());
                    prop_assert_eq!(b.bytes as f64, bytes);
                    gathered[r].extend(rows);
                    segments[r].push(b.rows);
                }
            }
            for (segs, flat) in segments.into_iter().zip(gathered) {
                for agg in [ShuffleAgg::GroupByKey, fold()] {
                    let want = apply_agg_oracle(&agg, flat.clone());
                    let (got, groups, bytes) = aggregate(&agg, segs.clone(), true);
                    let got = got.expect("kept groups");
                    prop_assert_eq!(groups, got.len() as u64);
                    prop_assert_eq!(bytes, want.iter().map(record_bytes).sum::<u64>());
                    prop_assert!(same(&got, &want), "{got:?} != {want:?}");
                    // The evaluation a pool worker runs: an action gets the
                    // same groups, and with no reader the same records and
                    // bytes come back without a row.
                    let (_, action_bytes, n, real, _) = final_reduce(&agg, segs.clone(), Reader::Action);
                    let Some(RealOut::Rows(kept)) = real else { panic!("an action keeps its rows") };
                    prop_assert!(same(&kept, &want), "{kept:?} != {want:?}");
                    prop_assert_eq!((n, action_bytes), (got.len() as u64, bytes as f64));
                    let (_, counted_bytes, n, real, _) = final_reduce(&agg, segs.clone(), Reader::Nobody);
                    prop_assert!(real.is_none(), "rows nobody reads are not returned");
                    prop_assert_eq!((n, counted_bytes), (got.len() as u64, bytes as f64));
                }
            }
        }
    }

    /// A reducer's evaluation as a pool worker runs it, in the final stage
    /// of a `group_by_key` job (no step after the aggregation).
    fn final_reduce(agg: &ShuffleAgg, segments: Vec<Vec<Record>>, reader: Reader) -> ChainOut {
        use crate::rdd::{Action, Dataset, Rdd};
        let rdd = Rdd::source(Dataset::from_records(Vec::new(), 1)).group_by_key(Some(1), 1e9);
        let plan = crate::dag::build_plan(&rdd, Action::Count, &Default::default());
        assert!(plan.stages[1].steps.is_empty());
        let work = Work::Reduce {
            agg: agg.clone(),
            segments,
        };
        Pending {
            task: 0,
            plan: Arc::new(plan),
            stage: 1,
            reader,
            work,
        }
        .eval()
    }

    /// One `Collect` compute entry per length in `lens`: entry `e` maps
    /// `lens[e]` records keyed `e` through `udf`.
    fn chain_entries(lens: &[usize], udf: fn(Record) -> Record) -> Vec<Pending> {
        use crate::rdd::{Action, Dataset, Rdd, SizeModel};
        let rdd =
            Rdd::source(Dataset::from_records(Vec::new(), 1)).map("udf", SizeModel::scan(), udf);
        let plan = Arc::new(crate::dag::build_plan(
            &rdd,
            Action::Collect,
            &Default::default(),
        ));
        let entry = |(e, &len): (usize, &usize)| {
            let data: Arc<[Record]> = (0..len)
                .map(|v| (Value::I64(e as i64), Value::I64(v as i64)))
                .collect();
            let work = Work::Chain {
                part: e as u32,
                node: 0,
                in_bytes: data.iter().map(record_bytes).sum::<u64>() as f64,
                in_records: len as u64,
                data,
                speed: 1.0,
                stage_override: None,
            };
            Pending {
                task: e as u32,
                plan: plan.clone(),
                stage: 0,
                reader: Reader::Action,
                work,
            }
        };
        lens.iter().enumerate().map(entry).collect()
    }

    /// Uneven entries, from empty to thousands of records, in no order.
    const UNEVEN: [usize; 9] = [3000, 0, 7, 1200, 1, 40, 2500, 13, 600];

    #[test]
    fn the_pool_returns_every_result_in_entry_order_at_any_size() {
        let double: fn(Record) -> Record = |(k, v)| (k, Value::I64(2 * v.as_i64()));
        let render = |threads: usize| -> Vec<(SimDuration, f64, u64, Vec<Record>)> {
            let mut entries = chain_entries(&UNEVEN, double);
            let results = evaluate(&mut entries, threads);
            assert_eq!(results.len(), UNEVEN.len(), "{threads} threads");
            let rows = |real| match real {
                Some(RealOut::Rows(rows)) => rows.to_vec(),
                _ => panic!("an action keeps its rows"),
            };
            results
                .into_iter()
                .map(|(dur, bytes, n, real, _)| (dur, bytes, n, rows(real)))
                .collect()
        };
        let one = render(1);
        for (e, (_, _, n, rows)) in one.iter().enumerate() {
            assert_eq!(*n as usize, UNEVEN[e]);
            assert!(
                rows.iter().all(|(k, _)| *k == Value::I64(e as i64)),
                "entry {e}"
            );
        }
        assert_eq!(render(2), one);
        assert_eq!(render(3), one);
    }

    #[test]
    #[should_panic(expected = "a failing UDF")]
    fn a_udf_panic_on_a_worker_reaches_the_caller() {
        let failing: fn(Record) -> Record = |(k, v)| {
            assert!(k != Value::I64(3), "a failing UDF");
            (k, v)
        };
        evaluate(&mut chain_entries(&UNEVEN, failing), 2);
    }

    #[test]
    fn colliding_hashes_keep_distinct_keys_apart() {
        // Regression: grouping by `stable_hash` alone folded every key whose
        // 64-bit hash collided under the first one seen. Twice over N keys:
        // a constant *probe* puts them all on one probe chain, and
        // `same_key` must still give N groups in `stable_hash` order; a
        // constant *order* hash ties every group, and first appearance must
        // break every tie. A reduce nobody reads counts the same N groups and
        // bytes without building them.
        let n = 40i64;
        let rows: Vec<Record> = (0..3 * n)
            .map(|i| (Value::I64((i * 7) % n), Value::I64(i)))
            .collect();
        let first_seen: Vec<Value> = rows.iter().take(n as usize).map(|r| r.0.clone()).collect();
        let mut by_hash = first_seen.clone();
        by_hash.sort_by_key(Value::stable_hash);
        let segments = vec![rows[..50].to_vec(), rows[50..].to_vec()];
        type Hash = fn(&Value) -> u64;
        let constant: Hash = |_| 9;
        let cases: [(Hash, Hash, Vec<Value>); 2] = [
            (constant, Value::stable_hash, by_hash),
            (probe, constant, first_seen),
        ];
        for (probe_hash, order_hash, want_keys) in cases {
            let group = |keep| {
                aggregate_with(
                    &ShuffleAgg::GroupByKey,
                    segments.clone(),
                    keep,
                    probe_hash,
                    order_hash,
                )
            };
            let (grouped, _, bytes) = group(true);
            let grouped = grouped.expect("kept groups");
            let keys: Vec<Value> = grouped.iter().map(|r| r.0.clone()).collect();
            assert_eq!(keys, want_keys);
            assert_eq!(bytes, grouped.iter().map(record_bytes).sum::<u64>());
            assert_eq!(group(false), (None, n as u64, bytes));
            for (k, vs) in &grouped {
                let want: Vec<Value> = rows
                    .iter()
                    .filter(|r| r.0 == *k)
                    .map(|r| r.1.clone())
                    .collect();
                assert_eq!(vs.as_list(), want, "values of {k} in gather order");
            }
            let (reduced, _, _) =
                aggregate_with(&fold(), segments.clone(), true, probe_hash, order_hash);
            let keys: Vec<Value> = reduced.into_iter().flatten().map(|r| r.0).collect();
            assert_eq!(keys, want_keys);
        }
    }

    #[test]
    fn probe_is_the_key_bits_tagged_by_variant() {
        // Keys equal under `same_key` probe alike: NaN is one key, the zeros
        // are two.
        assert_eq!(probe(&Value::F64(f64::NAN)), probe(&Value::F64(f64::NAN)));
        assert_ne!(probe(&Value::F64(0.0)), probe(&Value::F64(-0.0)));
        // An integer and a float with the same bits probe apart...
        for x in [0, 1, 42, -1, i64::MIN, i64::MAX] {
            let f = Value::F64(f64::from_bits(x as u64));
            assert_ne!(probe(&Value::I64(x)), probe(&f), "{x}");
        }
        // ...so the proptest's twins share a probe value only by
        // construction, and `group_of`'s confirm keeps them apart.
        let (i, f) = probe_twins();
        assert_eq!(probe(&i), probe(&f));
        let rows = vec![
            (i.clone(), Value::I64(1)),
            (f, Value::I64(2)),
            (i, Value::I64(3)),
        ];
        let (_, groups, _) = aggregate(&ShuffleAgg::GroupByKey, vec![rows], true);
        assert_eq!(groups, 2);
        // Every other variant probes by its `stable_hash`.
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::str("k"),
            Value::vec(vec![0.5]),
            Value::list(vec![Value::I64(1)]),
        ] {
            assert_eq!(probe(&v), v.stable_hash(), "{v:?}");
        }
    }

    #[test]
    fn nan_keys_group_by_encoding() {
        // `same_key` compares what `stable_hash` hashes (the bit pattern),
        // so NaN keys still form one group and -0.0 stays apart from 0.0.
        let rows = vec![
            (Value::F64(f64::NAN), Value::I64(1)),
            (Value::F64(0.0), Value::I64(2)),
            (Value::F64(f64::NAN), Value::I64(3)),
            (Value::F64(-0.0), Value::I64(4)),
        ];
        let (_, groups, _) = aggregate(&ShuffleAgg::GroupByKey, vec![rows], true);
        assert_eq!(groups, 3);
    }

    #[test]
    fn empty_inputs() {
        let (out, groups, bytes) =
            aggregate(&ShuffleAgg::GroupByKey, vec![Vec::new(), Vec::new()], true);
        assert_eq!((out, groups, bytes), (Some(Vec::new()), 0, 0));
        let buckets = partition(&[], 3);
        assert_eq!(buckets.len(), 3);
        assert!(buckets.iter().all(|b| b.rows.is_empty() && b.bytes == 0));
    }

    /// One identity `map` step, so the chain owns its output.
    fn identity_stage(cache_points: Vec<(usize, RddId)>) -> StagePlan {
        use crate::rdd::{NarrowKind, NarrowStep, SizeModel};
        StagePlan {
            input: crate::dag::StageInput::Cached { rdd: RddId(0) },
            steps: vec![Arc::new(NarrowStep {
                name: "id".into(),
                kind: NarrowKind::Map(Arc::new(|r| r)),
                size: SizeModel::new(1.0, 1.0, 100.0),
            })],
            cache_points,
            shuffle_out: None,
        }
    }

    #[test]
    fn a_snapshot_of_the_last_step_still_gets_its_bytes() {
        // A cache point after the last step needs the total before the rows
        // reach `partition`; the chain must not leave it at the input size.
        let rows: Arc<[Record]> = (0..10).map(|i| (Value::I64(i), Value::str("v"))).collect();
        let stage = identity_stage(vec![(1, RddId(7))]);
        let (_, bytes, _, real, snaps) =
            run_narrow_chain(&stage, 1.0, 0, Some(rows), 1.0, Reader::Shuffle(3));
        assert_eq!(bytes, 250.0);
        assert_eq!(snaps[0].1, 250.0);
        let Some(RealOut::Buckets(b)) = real else {
            panic!("partitioned output")
        };
        assert_eq!(b.iter().map(|b| b.bytes).sum::<u64>(), 250);
    }

    #[test]
    fn run_narrow_chain_synthetic_factors() {
        use crate::rdd::{NarrowKind, NarrowStep, SizeModel};
        let stage = crate::dag::StagePlan {
            input: crate::dag::StageInput::Cached {
                rdd: crate::rdd::RddId(0),
            },
            steps: vec![
                Arc::new(NarrowStep {
                    name: "half".into(),
                    kind: NarrowKind::Map(Arc::new(|r| r)),
                    size: SizeModel::new(0.5, 1.0, 100.0),
                }),
                Arc::new(NarrowStep {
                    name: "double".into(),
                    kind: NarrowKind::Map(Arc::new(|r| r)),
                    size: SizeModel::new(2.0, 1.0, 100.0),
                }),
            ],
            cache_points: vec![],
            shuffle_out: None,
        };
        let (dur, bytes, records, real, snaps) =
            run_narrow_chain(&stage, 1000.0, 10, None, 1.0, Reader::Nobody);
        assert!((bytes - 1000.0).abs() < 1e-9, "0.5 then 2.0 round-trips");
        assert_eq!(records, 10);
        assert!(real.is_none());
        assert!(snaps.is_empty());
        // time = 1000/100 + 500/100 = 15s at speed 1.
        assert!((dur.as_secs_f64() - 15.0).abs() < 1e-9);
    }
}
