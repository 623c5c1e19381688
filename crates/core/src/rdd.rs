//! Resilient Distributed Datasets: the lineage graph and its public API.
//!
//! Mirrors Spark 0.7's programming model (§II-C): an [`Rdd`] is an immutable
//! handle onto a lineage node; *transformations* (`map`, `flat_map`,
//! `filter`, `group_by_key`, `reduce_by_key`, `cache`) build new nodes;
//! *actions* (`count`, `collect`, `reduce`) are materialized by the driver.
//!
//! Every transformation carries two things:
//! * a **real implementation** (a UDF over [`Record`]s) used when partitions
//!   hold materialized data, and
//! * a **size model** (output-bytes factor + per-core processing rate) used
//!   for TB-scale synthetic partitions where only sizes flow.
//!
//! The same job graph therefore runs both ways, which is how the engine's
//! correctness is testable while its performance experiments run at the
//! paper's data scales.

// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::value::{Record, Value};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

pub type MapFn = Arc<dyn Fn(Record) -> Record + Send + Sync>;
pub type FlatMapFn = Arc<dyn Fn(Record) -> Vec<Record> + Send + Sync>;
pub type FilterFn = Arc<dyn Fn(&Record) -> bool + Send + Sync>;
pub type ReduceFn = Arc<dyn Fn(Value, Value) -> Value + Send + Sync>;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RddId(pub u32);

static NEXT_RDD: AtomicU32 = AtomicU32::new(0);

fn fresh_id() -> RddId {
    RddId(NEXT_RDD.fetch_add(1, Ordering::Relaxed))
}

/// How a transformation changes data volume and what it costs to apply.
#[derive(Clone, Copy, Debug)]
pub struct SizeModel {
    /// Output bytes per input byte (selectivity).
    pub bytes_factor: f64,
    /// Output records per input record.
    pub records_factor: f64,
    /// Bytes/second one core pushes through this operator at speed 1.0 —
    /// the "computation intensity" §IV-A shows governs storage sensitivity.
    pub compute_rate: f64,
}

impl SizeModel {
    pub fn new(bytes_factor: f64, records_factor: f64, compute_rate: f64) -> Self {
        assert!(bytes_factor >= 0.0 && records_factor >= 0.0 && compute_rate > 0.0);
        SizeModel {
            bytes_factor,
            records_factor,
            compute_rate,
        }
    }

    /// A cheap streaming operator (identity volume, memory-scan speed).
    pub fn scan() -> Self {
        SizeModel::new(1.0, 1.0, 1.5e9)
    }
}

/// Pipelined (narrow-dependency) operator.
#[derive(Clone)]
pub enum NarrowKind {
    Map(MapFn),
    FlatMap(FlatMapFn),
    Filter(FilterFn),
}

pub struct NarrowStep {
    pub name: String,
    pub kind: NarrowKind,
    pub size: SizeModel,
}

impl NarrowStep {
    /// Apply the real implementation to materialized records.
    pub fn apply(&self, input: Vec<Record>) -> Vec<Record> {
        match &self.kind {
            NarrowKind::Map(f) => input.into_iter().map(|r| f(r)).collect(),
            NarrowKind::FlatMap(f) => input.into_iter().flat_map(|r| f(r)).collect(),
            NarrowKind::Filter(f) => input.into_iter().filter(|r| f(r)).collect(),
        }
    }

    /// Apply to a shared (borrowed) partition without consuming it — the
    /// zero-copy execution path hands out `Arc<[Record]>` slices, so the
    /// first step of a chain reads the shared data in place.
    pub fn apply_slice(&self, input: &[Record]) -> Vec<Record> {
        match &self.kind {
            NarrowKind::Map(f) => input.iter().map(|r| f(r.clone())).collect(),
            NarrowKind::FlatMap(f) => input.iter().flat_map(|r| f(r.clone())).collect(),
            NarrowKind::Filter(f) => input.iter().filter(|r| f(r)).cloned().collect(),
        }
    }
}

/// Shuffle-side aggregation.
#[derive(Clone)]
pub enum ShuffleAgg {
    /// groupByKey: values of each key collected into a [`Value::List`].
    GroupByKey,
    /// reduceByKey: values of each key folded with the given function.
    ReduceByKey(ReduceFn),
}

impl ShuffleAgg {
    pub fn name(&self) -> &'static str {
        match self {
            ShuffleAgg::GroupByKey => "groupByKey",
            ShuffleAgg::ReduceByKey(_) => "reduceByKey",
        }
    }
}

/// One node of the lineage graph.
pub enum RddOp {
    /// Leaf: a dataset (real or synthetic) to be laid out on the configured
    /// input storage when the job starts.
    Source(Arc<Dataset>),
    Narrow {
        parent: Rdd,
        step: Arc<NarrowStep>,
    },
    Shuffle {
        parent: Rdd,
        agg: ShuffleAgg,
        /// Reduce-side task count (`spark.default.parallelism` when `None`
        /// at job submission).
        reducers: Option<u32>,
        /// Bytes/sec one core aggregates fetched data at.
        fetch_rate: f64,
        /// Synthetic model: output bytes per fetched byte after aggregation.
        out_factor: f64,
    },
    /// Memory-resident cache marker (`rdd.cache()`): partitions computed
    /// through this node are retained by the block managers and reused by
    /// later jobs — the feature LR leans on (§II-C).
    Cache {
        parent: Rdd,
    },
}

pub struct RddInner {
    pub id: RddId,
    pub op: RddOp,
}

/// Cheap, clonable handle to a lineage node.
#[derive(Clone)]
pub struct Rdd(pub Arc<RddInner>);

impl Rdd {
    fn wrap(op: RddOp) -> Rdd {
        Rdd(Arc::new(RddInner { id: fresh_id(), op }))
    }

    pub fn id(&self) -> RddId {
        self.0.id
    }

    pub fn source(dataset: Dataset) -> Rdd {
        Rdd::wrap(RddOp::Source(Arc::new(dataset)))
    }

    /// Full-control transformation constructor.
    pub fn narrow(&self, name: impl Into<String>, kind: NarrowKind, size: SizeModel) -> Rdd {
        Rdd::wrap(RddOp::Narrow {
            parent: self.clone(),
            step: Arc::new(NarrowStep {
                name: name.into(),
                kind,
                size,
            }),
        })
    }

    pub fn map(
        &self,
        name: impl Into<String>,
        size: SizeModel,
        f: impl Fn(Record) -> Record + Send + Sync + 'static,
    ) -> Rdd {
        self.narrow(name, NarrowKind::Map(Arc::new(f)), size)
    }

    pub fn flat_map(
        &self,
        name: impl Into<String>,
        size: SizeModel,
        f: impl Fn(Record) -> Vec<Record> + Send + Sync + 'static,
    ) -> Rdd {
        self.narrow(name, NarrowKind::FlatMap(Arc::new(f)), size)
    }

    pub fn filter(
        &self,
        name: impl Into<String>,
        size: SizeModel,
        f: impl Fn(&Record) -> bool + Send + Sync + 'static,
    ) -> Rdd {
        self.narrow(name, NarrowKind::Filter(Arc::new(f)), size)
    }

    pub fn group_by_key(&self, reducers: Option<u32>, fetch_rate: f64) -> Rdd {
        Rdd::wrap(RddOp::Shuffle {
            parent: self.clone(),
            agg: ShuffleAgg::GroupByKey,
            reducers,
            fetch_rate,
            out_factor: 1.0,
        })
    }

    pub fn reduce_by_key(
        &self,
        reducers: Option<u32>,
        fetch_rate: f64,
        out_factor: f64,
        f: impl Fn(Value, Value) -> Value + Send + Sync + 'static,
    ) -> Rdd {
        Rdd::wrap(RddOp::Shuffle {
            parent: self.clone(),
            agg: ShuffleAgg::ReduceByKey(Arc::new(f)),
            reducers,
            fetch_rate,
            out_factor,
        })
    }

    /// Mark this RDD memory-resident across jobs.
    pub fn cache(&self) -> Rdd {
        Rdd::wrap(RddOp::Cache {
            parent: self.clone(),
        })
    }

    /// Transform only the value of each record (keys and partitioning are
    /// preserved).
    pub fn map_values(
        &self,
        name: impl Into<String>,
        size: SizeModel,
        f: impl Fn(Value) -> Value + Send + Sync + 'static,
    ) -> Rdd {
        self.map(name, size, move |(k, v)| (k, f(v)))
    }
}

/// A partition of input data: sizes always, records when materialized.
/// Materialized data is a shared slice: placement, caching and task launch
/// all hand out reference-counted views instead of deep copies.
#[derive(Clone, Debug, Default)]
pub struct Partition {
    pub bytes: f64,
    pub records: u64,
    pub data: Option<Arc<[Record]>>,
}

/// An input dataset. Placement (HDFS blocks / Lustre files) happens when a
/// job referencing it first runs, according to the engine's `InputSource` —
/// unless the dataset is `generated`, in which case tasks synthesize their
/// partitions in memory with no input I/O (the paper's GroupBy does exactly
/// this: "each task generates (key, value) pairs in memory").
pub struct Dataset {
    pub partitions: Vec<Partition>,
    pub generated: bool,
}

impl Dataset {
    /// TB-scale synthetic dataset: `total_bytes` split into `split_bytes`
    /// partitions with the given mean record size.
    pub fn synthetic(total_bytes: f64, split_bytes: f64, record_bytes: f64) -> Dataset {
        assert!(total_bytes >= 0.0 && split_bytes > 0.0 && record_bytes > 0.0);
        let parts = (total_bytes / split_bytes).ceil().max(1.0) as usize;
        let per = total_bytes / parts as f64;
        Dataset {
            partitions: (0..parts)
                .map(|_| Partition {
                    bytes: per,
                    records: (per / record_bytes).round().max(1.0) as u64,
                    data: None,
                })
                .collect(),
            generated: false,
        }
    }

    /// Like [`Dataset::synthetic`], but generated in memory by the tasks
    /// themselves: no input storage is involved.
    pub fn generated(total_bytes: f64, split_bytes: f64, record_bytes: f64) -> Dataset {
        let mut d = Dataset::synthetic(total_bytes, split_bytes, record_bytes);
        d.generated = true;
        d
    }

    /// Materialized dataset from real records, split into `partitions`.
    pub fn from_records(records: Vec<Record>, partitions: usize) -> Dataset {
        assert!(partitions > 0);
        // Round-robin fills no partition past `ceil(len / partitions)`:
        // sized once, never regrown.
        let per_part = records.len().div_ceil(partitions);
        let mut parts: Vec<Vec<Record>> = (0..partitions)
            .map(|_| Vec::with_capacity(per_part))
            .collect();
        let mut records = records.into_iter();
        while !records.as_slice().is_empty() {
            for (part, r) in parts.iter_mut().zip(records.by_ref()) {
                part.push(r);
            }
        }
        Dataset {
            partitions: parts
                .into_iter()
                .map(|data| Partition {
                    bytes: data.iter().map(crate::value::record_bytes).sum::<u64>() as f64,
                    records: data.len() as u64,
                    data: Some(data.into()),
                })
                .collect(),
            generated: false,
        }
    }

    pub fn total_bytes(&self) -> f64 {
        self.partitions.iter().map(|p| p.bytes).sum()
    }
}

/// Job-terminating action (§II-C: "Spark's actions include reduce, count,
/// collect...").
#[derive(Clone)]
pub enum Action {
    Count,
    Collect,
    Reduce(ReduceFn),
}

impl Action {
    pub fn name(&self) -> &'static str {
        match self {
            Action::Count => "count",
            Action::Collect => "collect",
            Action::Reduce(_) => "reduce",
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    reason = "terse literal indexing is fine in tests"
)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_dataset_partitioning() {
        let d = Dataset::synthetic(1000.0, 300.0, 10.0);
        assert_eq!(d.partitions.len(), 4);
        assert!((d.total_bytes() - 1000.0).abs() < 1e-9);
        assert_eq!(d.partitions[0].records, 25);
        assert!(d.partitions[0].data.is_none());
    }

    #[test]
    fn real_dataset_round_robin() {
        let recs: Vec<Record> = (0..10)
            .map(|i| (Value::I64(i), Value::I64(i * i)))
            .collect();
        let d = Dataset::from_records(recs, 3);
        assert_eq!(d.partitions.len(), 3);
        assert_eq!(d.partitions.iter().map(|p| p.records).sum::<u64>(), 10);
        assert_eq!(d.partitions[0].data.as_ref().unwrap().len(), 4);
        assert!(d.total_bytes() > 0.0);
    }

    #[test]
    fn narrow_steps_apply_real_udfs() {
        let step = NarrowStep {
            name: "double".into(),
            kind: NarrowKind::Map(Arc::new(|(k, v): Record| (k, Value::I64(v.as_i64() * 2)))),
            size: SizeModel::scan(),
        };
        let out = step.apply(vec![(Value::Null, Value::I64(3))]);
        assert_eq!(out[0].1, Value::I64(6));

        let filt = NarrowStep {
            name: "odd".into(),
            kind: NarrowKind::Filter(Arc::new(|r: &Record| r.1.as_i64() % 2 == 1)),
            size: SizeModel::scan(),
        };
        let out = filt.apply(vec![
            (Value::Null, Value::I64(1)),
            (Value::Null, Value::I64(2)),
        ]);
        assert_eq!(out.len(), 1);

        let fm = NarrowStep {
            name: "dup".into(),
            kind: NarrowKind::FlatMap(Arc::new(|r: Record| vec![r.clone(), r])),
            size: SizeModel::scan(),
        };
        assert_eq!(fm.apply(vec![(Value::Null, Value::Null)]).len(), 2);
    }

    #[test]
    fn lineage_builds_and_names() {
        let src = Rdd::source(Dataset::synthetic(100.0, 50.0, 10.0));
        let grouped = src
            .filter("filter", SizeModel::scan(), |_| true)
            .flat_map("flatMap", SizeModel::scan(), |r| vec![r])
            .group_by_key(Some(4), 1e9);
        assert!(matches!(&grouped.0.op, RddOp::Shuffle { agg, .. } if agg.name() == "groupByKey"));
        let cached = grouped.cache();
        assert!(matches!(cached.0.op, RddOp::Cache { .. }));
        assert_ne!(src.id(), cached.id());
    }

    #[test]
    fn rdd_ids_are_unique() {
        let a = Rdd::source(Dataset::synthetic(1.0, 1.0, 1.0));
        let b = Rdd::source(Dataset::synthetic(1.0, 1.0, 1.0));
        assert_ne!(a.id(), b.id());
    }
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    reason = "terse literal indexing is fine in tests"
)]
mod sugar_tests {
    use super::*;

    #[test]
    fn map_values_preserves_keys() {
        let rdd = Rdd::source(Dataset::synthetic(1.0, 1.0, 1.0)).map_values(
            "inc",
            SizeModel::scan(),
            |v| Value::I64(v.as_i64() + 1),
        );
        let RddOp::Narrow { step, .. } = &rdd.0.op else {
            panic!("map_values is a narrow step")
        };
        let out = step.apply(vec![(Value::str("k"), Value::I64(1))]);
        assert_eq!(out[0].0.as_str(), "k");
        assert_eq!(out[0].1.as_i64(), 2);
    }
}
