//! DAG scheduler: lineage → stages.
//!
//! As in Spark 0.7 (§II-C), an action triggers construction of an execution
//! plan: pipelined (narrow) transformations are grouped into stages, and "an
//! implicit stage is embedded into the DAG for every shuffle operation".
//! Stages launch serially. The engine additionally models the paper's
//! three-phase pipeline per shuffle (Fig 4a): the upstream stage's
//! *computation* tasks, the pinned *storing* ShuffleMapTasks that flush
//! in-memory output to the shuffle store, and the downstream *shuffling*
//! fetch tasks.
//!
//! Cache handling: a `cache()` marker inside a stage records a cache point;
//! when a later job's lineage passes through an already-materialized cache,
//! the plan is truncated to start from the cached partitions — that is the
//! memory-resident reuse LR exploits across iterations.

// Lineage chains are dense arenas indexed by `RddId`s this module mints
// root-first; as in world.rs and its `world/` modules, `arr[id]` is the idiom
// and a miss is an engine bug. The crate-level `indexing_slicing` warning is waived for this file.
#![allow(
    clippy::indexing_slicing,
    reason = "lineage arenas indexed by RddIds minted root-first; a miss is an engine bug"
)]
// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::rdd::{Action, Dataset, NarrowStep, Rdd, RddId, RddOp, ShuffleAgg};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A shuffle, carried by the stage that writes it: how many reducers were
/// asked for, and what its fetch stage does with what it pulls.
#[derive(Clone)]
pub struct ShuffleSpec {
    /// `None`: as many as the cluster has slots (Spark's default).
    pub reducers: Option<u32>,
    pub agg: ShuffleAgg,
    pub fetch_rate: f64,
    pub out_factor: f64,
}

/// Where a stage's tasks get their input.
#[derive(Clone)]
pub enum StageInput {
    /// Leaf dataset, laid out on the configured input storage.
    Dataset { rdd: RddId, dataset: Arc<Dataset> },
    /// Partitions materialized by a previous job's cache point.
    Cached { rdd: RddId },
    /// The shuffle the previous stage in this plan writes
    /// ([`StagePlan::shuffle_out`]).
    Shuffle,
}

/// One stage: input, a pipelined chain of narrow steps, optional cache
/// points, and whether the output feeds a shuffle.
pub struct StagePlan {
    pub input: StageInput,
    pub steps: Vec<Arc<NarrowStep>>,
    /// `(after_step_index, rdd)` — snapshot the pipeline state after that
    /// many steps and register it with the block managers under `rdd`.
    pub cache_points: Vec<(usize, RddId)>,
    /// The shuffle this stage ends by writing, which the next stage reads.
    pub shuffle_out: Option<ShuffleSpec>,
}

impl StagePlan {
    fn new(input: StageInput) -> Self {
        StagePlan {
            input,
            steps: Vec::new(),
            cache_points: Vec::new(),
            shuffle_out: None,
        }
    }
}

/// How to rebuild one lost partition of a materialized cache: re-read its
/// source partition and replay the narrow prefix that produced the cache
/// point. Recorded at lineage truncation so the scheduler can recompute a
/// partition the block managers no longer hold (node crash, executor memory
/// loss) without replanning the job — Spark's lineage fault tolerance.
#[derive(Clone)]
pub struct RecoverySpec {
    /// The leaf dataset the cached RDD descends from.
    pub source: RddId,
    pub dataset: Arc<Dataset>,
    /// Narrow steps between the source and the cache point.
    pub steps: Vec<Arc<NarrowStep>>,
    /// Pipeline position of the cache snapshot ( = `steps.len()`).
    pub cache_step: usize,
}

pub struct JobPlan {
    pub stages: Vec<StagePlan>,
    pub action: Action,
    /// Lineage-recovery recipes for the materialized caches this plan was
    /// truncated at, keyed by cached RDD. Only shuffle-free (Dataset-rooted)
    /// prefixes are recoverable per-partition; a cache downstream of a
    /// shuffle has no such recipe and its loss is unrecoverable.
    pub recovery: BTreeMap<RddId, RecoverySpec>,
}

/// Build a [`JobPlan`] for `action` on `rdd`. `materialized` is the set of
/// cache points the block managers already hold.
pub fn build_plan(rdd: &Rdd, action: Action, materialized: &BTreeSet<RddId>) -> JobPlan {
    let mut stages = Vec::new();
    let mut recovery = BTreeMap::new();
    let last = open_stage(rdd, materialized, &mut stages, &mut recovery);
    stages.push(last);
    JobPlan {
        stages,
        action,
        recovery,
    }
}

/// Plan the lineage that ends at `node`: recurse to its `Source` and build
/// the stages on the way back, so every stage before the one `node` belongs
/// to lands in `stages` root-first, and that stage, still open, is
/// returned. The engine supports linear lineages; branching DAGs (joins,
/// unions) are out of the reproduction's scope.
fn open_stage(
    node: &Rdd,
    materialized: &BTreeSet<RddId>,
    stages: &mut Vec<StagePlan>,
    recovery: &mut BTreeMap<RddId, RecoverySpec>,
) -> StagePlan {
    match &node.0.op {
        RddOp::Source(ds) => StagePlan::new(StageInput::Dataset {
            rdd: node.id(),
            dataset: ds.clone(),
        }),
        RddOp::Narrow { parent, step } => {
            let mut stage = open_stage(parent, materialized, stages, recovery);
            stage.steps.push(step.clone());
            stage
        }
        RddOp::Shuffle {
            parent,
            agg,
            reducers,
            fetch_rate,
            out_factor,
        } => {
            let mut up = open_stage(parent, materialized, stages, recovery);
            up.shuffle_out = Some(ShuffleSpec {
                reducers: *reducers,
                agg: agg.clone(),
                fetch_rate: *fetch_rate,
                out_factor: *out_factor,
            });
            stages.push(up);
            StagePlan::new(StageInput::Shuffle)
        }
        RddOp::Cache { parent } => {
            let mut stage = open_stage(parent, materialized, stages, recovery);
            if !materialized.contains(&node.id()) {
                stage.cache_points.push((stage.steps.len(), node.id()));
                return stage;
            }
            // Record the lineage-recovery recipe before truncating, when the
            // cache's prefix is shuffle-free.
            if let StageInput::Dataset { rdd, dataset } = stage.input {
                let cache_step = stage.steps.len();
                let spec = RecoverySpec {
                    source: rdd,
                    dataset,
                    steps: stage.steps,
                    cache_step,
                };
                recovery.insert(node.id(), spec);
            }
            // Truncate: restart the plan from the cached partitions.
            stages.clear();
            StagePlan::new(StageInput::Cached { rdd: node.id() })
        }
    }
}

/// Render the execution plan the way the paper's Fig 4 draws them.
pub fn render_plan(plan: &JobPlan) -> String {
    let mut out = String::new();
    // An RDD is named by its first mention here (1 first), not by its id:
    // ids come from a process-wide counter, and the text must not depend on
    // how many RDDs the process built before this plan.
    let mut named: Vec<RddId> = Vec::new();
    let mut name = |rdd: RddId| match named.iter().position(|&r| r == rdd) {
        Some(i) => i + 1,
        None => {
            named.push(rdd);
            named.len()
        }
    };
    // The shuffle a stage reads is the one the stage before it writes.
    let reads = std::iter::once(None).chain(plan.stages.iter().map(|s| s.shuffle_out.as_ref()));
    for (i, (stage, read)) in plan.stages.iter().zip(reads).enumerate() {
        out.push_str(&format!("Stage {} [", i + 1));
        let input = match &stage.input {
            StageInput::Dataset { dataset, .. } => {
                format!("read {} partitions", dataset.partitions.len())
            }
            StageInput::Cached { rdd } => format!("cached RDD #{}", name(*rdd)),
            StageInput::Shuffle => format!("fetch+{}", read.map_or("?", |s| s.agg.name())),
        };
        out.push_str(&input);
        for step in &stage.steps {
            out.push_str(&format!(" -> {}", step.name));
        }
        for (idx, rdd) in &stage.cache_points {
            out.push_str(&format!(" (cache#{} after {} steps)", name(*rdd), idx));
        }
        if stage.shuffle_out.is_some() {
            out.push_str(" -> ShuffleMapTasks (store)");
        }
        out.push_str("]\n");
    }
    out.push_str(&format!("Action: {}\n", plan.action.name()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdd::SizeModel;

    fn src() -> Rdd {
        Rdd::source(Dataset::synthetic(1000.0, 100.0, 10.0))
    }

    #[test]
    fn map_only_job_is_single_stage() {
        let rdd = src().map("m", SizeModel::scan(), |r| r);
        let plan = build_plan(&rdd, Action::Count, &BTreeSet::new());
        assert_eq!(plan.stages.len(), 1);
        assert_eq!(plan.stages[0].steps.len(), 1);
        assert!(plan.stages[0].shuffle_out.is_none());
    }

    #[test]
    fn shuffle_splits_stages_like_fig4a() {
        // GroupBy (Fig 4a): compute -> store -> fetch/group.
        let rdd = src()
            .map("genKV", SizeModel::scan(), |r| r)
            .group_by_key(Some(8), 1e9);
        let plan = build_plan(&rdd, Action::Count, &BTreeSet::new());
        assert_eq!(plan.stages.len(), 2);
        assert!(plan.stages[0].shuffle_out.is_some());
        let spec = plan.stages[0]
            .shuffle_out
            .as_ref()
            .expect("writes the shuffle");
        assert_eq!(spec.reducers, Some(8));
        assert!(matches!(plan.stages[1].input, StageInput::Shuffle));
        assert!(plan.stages[1].shuffle_out.is_none());
    }

    #[test]
    fn narrow_ops_pipeline_into_one_stage() {
        // Fig 3: "filter and flatMap are grouped into a same stage while the
        // groupByKey is in an independent stage".
        let rdd = src()
            .filter("filter", SizeModel::scan(), |_| true)
            .flat_map("flatMap", SizeModel::scan(), |r| vec![r])
            .group_by_key(None, 1e9)
            .map("map", SizeModel::scan(), |r| r);
        let plan = build_plan(&rdd, Action::Collect, &BTreeSet::new());
        assert_eq!(plan.stages.len(), 2);
        assert_eq!(plan.stages[0].steps.len(), 2);
        assert_eq!(plan.stages[1].steps.len(), 1);
    }

    #[test]
    fn unmaterialized_cache_records_a_cache_point() {
        let rdd = src().map("parse", SizeModel::scan(), |r| r).cache();
        let plan = build_plan(&rdd, Action::Count, &BTreeSet::new());
        assert_eq!(plan.stages.len(), 1);
        assert_eq!(plan.stages[0].cache_points.len(), 1);
        assert_eq!(plan.stages[0].cache_points[0].0, 1);
    }

    #[test]
    fn materialized_cache_truncates_lineage() {
        let cached = src().map("parse", SizeModel::scan(), |r| r).cache();
        let rdd = cached.map("gradient", SizeModel::scan(), |r| r);
        let mut mat = BTreeSet::new();
        mat.insert(cached.id());
        let plan = build_plan(&rdd, Action::Reduce(Arc::new(|a, _| a)), &mat);
        assert_eq!(plan.stages.len(), 1);
        assert!(matches!(plan.stages[0].input, StageInput::Cached { .. }));
        // Only the post-cache step remains.
        assert_eq!(plan.stages[0].steps.len(), 1);
        assert_eq!(plan.stages[0].steps[0].name, "gradient");
    }

    #[test]
    fn truncation_records_recovery_spec() {
        let cached = src().map("parse", SizeModel::scan(), |r| r).cache();
        let rdd = cached.map("gradient", SizeModel::scan(), |r| r);
        let mut mat = BTreeSet::new();
        mat.insert(cached.id());
        let plan = build_plan(&rdd, Action::Count, &mat);
        let spec = plan
            .recovery
            .get(&cached.id())
            .expect("shuffle-free cache prefix must get a recovery recipe");
        assert_eq!(spec.steps.len(), 1);
        assert_eq!(spec.steps[0].name, "parse");
        assert_eq!(spec.cache_step, 1);
        // A cache downstream of a shuffle is not per-partition recoverable.
        let cached2 = src().group_by_key(Some(4), 1e9).cache();
        let rdd2 = cached2.map("m", SizeModel::scan(), |r| r);
        let mut mat2 = BTreeSet::new();
        mat2.insert(cached2.id());
        let plan2 = build_plan(&rdd2, Action::Count, &mat2);
        assert!(plan2.recovery.is_empty());
    }

    #[test]
    fn render_mentions_stages_and_action() {
        let rdd = src()
            .flat_map("flatMap", SizeModel::scan(), |r| vec![r])
            .group_by_key(None, 1e9);
        let plan = build_plan(&rdd, Action::Count, &BTreeSet::new());
        let s = render_plan(&plan);
        assert!(s.contains("Stage 1"));
        assert!(s.contains("Stage 2"));
        assert!(s.contains("ShuffleMapTasks"));
        assert!(s.contains("Action: count"));
    }

    #[test]
    fn two_shuffles_make_three_stages() {
        let rdd = src()
            .group_by_key(Some(4), 1e9)
            .map("m", SizeModel::scan(), |r| r)
            .group_by_key(Some(2), 1e9);
        let plan = build_plan(&rdd, Action::Count, &BTreeSet::new());
        assert_eq!(plan.stages.len(), 3);
        assert!(plan.stages[0].shuffle_out.is_some());
        assert!(plan.stages[1].shuffle_out.is_some());
        assert!(plan.stages[2].shuffle_out.is_none());
    }
}
