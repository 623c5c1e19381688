//! Input: where a dataset's partitions are placed (HDFS blocks on RAMDisk,
//! Lustre files, or generated in memory), which nodes a compute task
//! prefers and what it reads from where (paper §V: input locality), and the
//! launch of a compute task over it.

use super::{Ev, SimWorld, Substrate};
use crate::config::InputSource;
use crate::dag::{JobPlan, StageInput, StagePlan};
use crate::executor::{run_narrow_chain, Pending, Reader, Work};
use crate::metrics::TaskLocality;
use crate::rdd::{Dataset, RddId};
use crate::value::Record;
use memres_cluster::NodeId;
use memres_des::sim::Outbox;
use memres_des::time::SimTime;
use memres_des::{splitmix64, Bytes};
use memres_hdfs::{BlockId, HdfsFile, Locality};
use memres_lustre::LustreFile;
use memres_net::Endpoint;
use memres_storage::FileId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// File-id name spaces on the per-node filesystems / Lustre.
const HDFS_BLOCK_BASE: u64 = 1 << 40;
const LUSTRE_INPUT_BASE: u64 = 1 << 42;
/// Input files one dataset may have on Lustre: each placed dataset owns this
/// many file ids above `LUSTRE_INPUT_BASE`, and a larger dataset would run
/// into the next one's.
const LUSTRE_INPUT_PARTS: u64 = 1 << 24;

/// The Lustre file holding partition `part` of the input dataset this world
/// placed `slot`-th (0 first). Numbered by placement, not by RDD id, so the
/// ids (which Lustre's trace events carry) do not depend on how many RDDs
/// the process built before.
fn lustre_input_file(slot: u32, part: u32) -> LustreFile {
    assert!(
        (part as u64) < LUSTRE_INPUT_PARTS,
        "partition {part} of input dataset {slot} is past the dataset's Lustre file ids"
    );
    LustreFile(LUSTRE_INPUT_BASE + (slot as u64) * LUSTRE_INPUT_PARTS + part as u64)
}

/// What holds a placed dataset's bytes.
enum Backing {
    /// Generated in memory by the tasks themselves: no storage at all.
    Generated,
    /// The blocks of one HDFS file, in partition order, on the nodes'
    /// RAMDisks.
    Hdfs(HdfsFile),
    /// One Lustre file per partition, under the dataset's placement slot
    /// ([`lustre_input_file`]).
    Lustre { slot: u32 },
}

/// A placed dataset: the partition table it came with (sizes, record counts,
/// the shared record slices — read in place, never copied) and what placing
/// it added.
struct Placed {
    dataset: Arc<Dataset>,
    backing: Backing,
}

/// Dataset placements by source RDD id.
#[derive(Default)]
pub(super) struct Inputs {
    placed: BTreeMap<RddId, Placed>,
}

impl Inputs {
    /// Whether every partition of placed dataset `rdd` carries real records.
    pub(super) fn is_real(&self, rdd: RddId) -> bool {
        let parts = &self.placed[&rdd].dataset.partitions;
        parts.iter().all(|p| p.data.is_some())
    }
}

/// What a compute task reads: bytes, records, the shared rows when they
/// are real, the I/O that brings them, and the locality it achieved.
pub(super) type Input = (f64, u64, Option<Arc<[Record]>>, IoPlan, TaskLocality);

pub(super) enum IoPlan {
    None,
    HdfsRead { block: BlockId, src: NodeId },
    LustreRead { file: LustreFile },
    NetOnly { src: u32, bytes: f64 },
}

impl SimWorld {
    /// Why `plan`'s input cannot be placed, if it cannot: a Lustre-backed
    /// dataset with more partitions than one dataset has input-file ids. The
    /// driver asks before it submits; a stream's plans are built at admission,
    /// past any caller that could take an error, and meet the assertion in
    /// [`lustre_input_file`] instead.
    pub(crate) fn check_placeable(&self, plan: &JobPlan) -> Result<(), String> {
        for stage in &plan.stages {
            let StageInput::Dataset { rdd, dataset } = &stage.input else {
                continue;
            };
            let parts = dataset.partitions.len() as u64;
            let on_lustre = !dataset.generated && self.cfg.input == InputSource::Lustre;
            if on_lustre && parts > LUSTRE_INPUT_PARTS {
                return Err(format!(
                    "input dataset {rdd:?} has {parts} partitions; Lustre input holds at most \
                     {LUSTRE_INPUT_PARTS} per dataset"
                ));
            }
        }
        Ok(())
    }

    /// Place `dataset` on its backing store, once. Returns its partition
    /// count.
    pub(super) fn ensure_placed(&mut self, rdd: RddId, dataset: &Arc<Dataset>) -> usize {
        if let Some(placed) = self.inputs.placed.get(&rdd) {
            return placed.dataset.partitions.len();
        }
        let backing = match self.cfg.input {
            // In-memory generated input: no storage backing at all.
            _ if dataset.generated => Backing::Generated,
            InputSource::HdfsRamDisk => Backing::Hdfs(self.place_hdfs_blocks(dataset)),
            InputSource::Lustre => {
                let slot = self.inputs.placed.len() as u32;
                for (i, p) in dataset.partitions.iter().enumerate() {
                    self.lustre
                        .create_external(lustre_input_file(slot, i as u32), p.bytes);
                }
                Backing::Lustre { slot }
            }
        };
        let dataset = dataset.clone();
        let parts = dataset.partitions.len();
        self.inputs.placed.insert(rdd, Placed { dataset, backing });
        parts
    }

    /// One HDFS block per partition, in partition order, preloaded on the
    /// RAMDisk of every replica's node.
    fn place_hdfs_blocks(&mut self, dataset: &Dataset) -> HdfsFile {
        let workers = self.spec.workers;
        let file = self.hdfs.new_file();
        for (i, p) in dataset.partitions.iter().enumerate() {
            // Pseudo-random block placement (what an ingested corpus
            // looks like): node block counts become Poisson-spread,
            // which is what strict locality scheduling then amplifies.
            let mut z = splitmix64(&mut (i as u64 ^ self.cfg.seed.rotate_left(32)));
            let primary = NodeId((z % workers as u64) as u32);
            let mut locs = vec![primary];
            if self.hdfs.config().replication >= 2 && workers > 1 {
                let mut r = primary.0;
                while r == primary.0 {
                    z = (z ^ (z >> 29)).wrapping_mul(0xff51_afd7_ed55_8ccd);
                    r = (z % workers as u64) as u32;
                }
                locs.push(NodeId(r));
            }
            locs.dedup();
            let b = self.hdfs.place_block_at(file, Bytes(p.bytes), locs.clone());
            for n in locs {
                self.ram_fs[n.index()].preload(FileId(HDFS_BLOCK_BASE + b.0), Bytes(p.bytes));
            }
        }
        file
    }

    /// Preferred nodes for a task of `stage` — HDFS replicas or the cache
    /// home — as a handle for its `prefs`.
    pub(super) fn compute_prefs(&mut self, stage: &StagePlan, part: u32) -> u32 {
        match &stage.input {
            StageInput::Dataset { rdd, .. } => {
                let nodes = match self.inputs.placed[rdd].backing {
                    Backing::Hdfs(file) => {
                        let block = self.hdfs.file_blocks(file)[part as usize];
                        self.hdfs.locations(block)
                    }
                    // Lustre input: uniformly distant — no preference (§V-A).
                    Backing::Lustre { .. } | Backing::Generated => &[],
                };
                self.tasks.add_prefs(nodes.iter().map(|n| n.0))
            }
            StageInput::Cached { rdd } => {
                let home = self.blockmgr.location(*rdd, part);
                self.tasks.add_prefs(home.into_iter())
            }
            StageInput::Shuffle => 0,
        }
    }

    /// What partition `part` of cached `rdd` gives `task` (of stage
    /// `stage` of `plan`) on `node`: the cached copy, local or over the
    /// network. A cached partition lost with its node is rebuilt from
    /// lineage: the task reads the original dataset partition again and
    /// evaluates the recovery stage, returned beside it, in place of its own.
    pub(super) fn cached_input(
        &mut self,
        task: u32,
        (plan, stage): (&JobPlan, usize),
        rdd: RddId,
        part: u32,
        node: u32,
    ) -> (Input, Option<Arc<StagePlan>>) {
        let Some((bytes, records, data, home)) = self.blockmgr.try_partition(rdd, part) else {
            let (rec_stage, source) =
                self.recovery_stage(task, plan, &plan.stages[stage], rdd, part);
            return (self.dataset_input(source, part, node), Some(rec_stage));
        };
        let (io, locality) = if home == node {
            (IoPlan::None, TaskLocality::NodeLocal)
        } else {
            (IoPlan::NetOnly { src: home, bytes }, TaskLocality::Remote)
        };
        ((bytes, records, data, io, locality), None)
    }

    /// Launch compute task `task` of stage `stage_idx` of `plan` on `node`
    /// over its resolved input (`stage_override`: the recovery stage to
    /// evaluate instead, see [`SimWorld::cached_input`]).
    pub(super) fn launch_compute(
        &mut self,
        now: SimTime,
        task: u32,
        node: u32,
        (plan, stage_idx): (&Arc<JobPlan>, usize),
        (input, stage_override): (Input, Option<Arc<StagePlan>>),
        out: &mut Outbox<Ev>,
    ) {
        let part = self.tasks.index[task as usize];
        let stage = &plan.stages[stage_idx];
        let (in_bytes, in_records, data, io_plan, locality) = input;

        let speed = self.speed(node);
        let deferred = data.is_some();
        self.tasks.input_bytes[task as usize] = in_bytes;
        self.tasks.locality[task as usize] = locality;
        if let Some(data) = data {
            // Real partition: the UDF chain (and the partitioning of its
            // output) is a pure function of the shared input — defer it so
            // the dispatch round can evaluate all such work on the worker
            // pool, then commit in launch order.
            let reader = self.job_of(task).real_reader(stage_idx);
            self.pending.push(Pending {
                task,
                plan: plan.clone(),
                stage: stage_idx,
                reader,
                work: Work::Chain {
                    part,
                    node,
                    in_bytes,
                    in_records,
                    data,
                    speed,
                    stage_override,
                },
            });
        } else {
            // Synthetic partition: size-model arithmetic only, run inline.
            let stage = stage_override.as_deref().unwrap_or(stage);
            let chain = run_narrow_chain(stage, in_bytes, in_records, None, speed, Reader::Nobody);
            self.commit_chain(task, part, node, chain);
        }

        self.issue_io_plan(now, task, node, in_bytes, io_plan, out);

        // A deferred chain has no compute duration yet; its commit in
        // `flush_pending` schedules the finish instead.
        if !deferred {
            self.maybe_schedule_finish(now, task, out);
        }
    }

    /// Input description for a dataset-rooted compute task (also used when
    /// rebuilding a lost cached partition from lineage).
    pub(super) fn dataset_input(&self, rdd: RddId, part: u32, node: u32) -> Input {
        let placed = &self.inputs.placed[&rdd];
        let p = &placed.dataset.partitions[part as usize];
        let (bytes, records, data) = (p.bytes, p.records, p.data.clone());
        match placed.backing {
            Backing::Hdfs(file) => {
                let b = self.hdfs.file_blocks(file)[part as usize];
                let (mut src, loc) = self.hdfs.preferred_source(NodeId(node), b);
                let mut locality = match loc {
                    Locality::NodeLocal => TaskLocality::NodeLocal,
                    Locality::RackLocal => TaskLocality::RackLocal,
                    Locality::Remote => TaskLocality::Remote,
                };
                if !self.nodes.is_up(src.0) {
                    // Preferred replica host is down: read any live replica.
                    // (With every replica down we still charge the read to
                    // the dead host's store — input durability is assumed.)
                    if let Some(up) = self
                        .hdfs
                        .locations(b)
                        .iter()
                        .copied()
                        .find(|n| self.nodes.is_up(n.0))
                    {
                        src = up;
                        locality = if src.0 == node {
                            TaskLocality::NodeLocal
                        } else {
                            TaskLocality::Remote
                        };
                    }
                }
                (
                    bytes,
                    records,
                    data,
                    IoPlan::HdfsRead { block: b, src },
                    locality,
                )
            }
            Backing::Lustre { slot } => {
                let file = lustre_input_file(slot, part);
                let io = IoPlan::LustreRead { file };
                (bytes, records, data, io, TaskLocality::Any)
            }
            // Generated in memory: no input I/O.
            Backing::Generated => (bytes, records, data, IoPlan::None, TaskLocality::Any),
        }
    }

    /// Issue the input I/O of a compute task against the substrates.
    fn issue_io_plan(
        &mut self,
        now: SimTime,
        task: u32,
        node: u32,
        in_bytes: f64,
        io_plan: IoPlan,
        out: &mut Outbox<Ev>,
    ) {
        let here = Endpoint::Node(NodeId(node));
        match io_plan {
            IoPlan::None => {}
            IoPlan::HdfsRead { block, src } if src.0 == node => {
                let file = FileId(HDFS_BLOCK_BASE + block.0);
                let tag = self.io_tag(task);
                self.tasks.pending_io[task as usize] += 1;
                self.ram_fs[node as usize].read(now, file, Bytes(in_bytes), tag);
                self.arm(Substrate::Fs { node, ssd: false }, out);
            }
            IoPlan::HdfsRead { src, .. } => {
                self.task_transfer(now, task, (Endpoint::Node(src), here), Bytes(in_bytes), out);
            }
            IoPlan::LustreRead { file } => {
                let rplan = self.lustre.read(now, NodeId(node), file, Bytes(in_bytes));
                let wire = rplan.oss_bytes + self.lustre.config().read_overhead_bytes;
                let oss = (rplan.oss_bytes > 0.0).then_some(((Endpoint::Lustre, here), wire));
                self.lustre_io(now, task, rplan.mds_ops, oss, out);
            }
            IoPlan::NetOnly { src, bytes } => {
                let src = Endpoint::Node(NodeId(src));
                self.task_transfer(now, task, (src, here), Bytes(bytes), out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tasks::{Task, TaskKind};
    use super::*;
    use crate::config::EngineConfig;
    use crate::value::Value;
    use memres_cluster::tiny;

    fn real_dataset(parts: usize) -> Arc<Dataset> {
        let recs: Vec<Record> = (0..64).map(|i| (Value::I64(i), Value::I64(i))).collect();
        Arc::new(Dataset::from_records(recs, parts))
    }

    #[test]
    fn lustre_input_file_ids_are_pinned() {
        // Lustre's trace events carry these ids, so the pinned traces of the
        // Lustre-input cells depend on the formula: it must not drift.
        assert_eq!(lustre_input_file(0, 0), LustreFile(1 << 42));
        assert_eq!(lustre_input_file(3, 7), LustreFile(4_398_096_842_759));
        let last = (1 << 24) - 1;
        assert_eq!(
            lustre_input_file(1, last),
            LustreFile(lustre_input_file(2, 0).0 - 1),
            "a dataset's last id sits right below the next dataset's first"
        );
    }

    #[test]
    #[should_panic(expected = "past the dataset's Lustre file ids")]
    fn a_partition_past_a_datasets_id_range_never_aliases_the_next_one() {
        lustre_input_file(1, 1 << 24);
    }

    #[test]
    fn placing_keeps_the_datasets_own_partitions_and_happens_once() {
        let mut w = SimWorld::new(tiny(4), EngineConfig::default());
        let (rdd, dataset) = (RddId(900_001), real_dataset(4));
        assert_eq!(w.ensure_placed(rdd, &dataset), 4);
        assert_eq!(w.ensure_placed(rdd, &dataset), 4);
        let Backing::Hdfs(file) = w.inputs.placed[&rdd].backing else {
            panic!("the default input source is HDFS on RAMDisk");
        };
        assert_eq!(w.hdfs.file_blocks(file).len(), 4, "one block a partition");
        assert_eq!(
            w.hdfs.new_file().0,
            file.0 + 1,
            "the second call placed nothing"
        );
        assert!(w.inputs.is_real(rdd));
        for part in 0..4u32 {
            // The task reads the caller's slice, not a copy of it ...
            let (bytes, records, data, io, _) = w.dataset_input(rdd, part, 0);
            let own = &dataset.partitions[part as usize];
            assert_eq!((bytes, records), (own.bytes, own.records));
            let (handed, own) = (data.expect("real records"), own.data.as_ref());
            assert!(Arc::ptr_eq(&handed, own.expect("real records")));
            // ... from block `part` of the file, on the nodes it prefers.
            let block = w.hdfs.file_blocks(file)[part as usize];
            assert!(matches!(io, IoPlan::HdfsRead { block: b, .. } if b == block));
            let stage = StagePlan {
                input: StageInput::Dataset {
                    rdd,
                    dataset: dataset.clone(),
                },
                steps: Vec::new(),
                cache_points: Vec::new(),
                shuffle_out: None,
            };
            let mut t = Task::new(1, 0, TaskKind::Compute { part }, SimTime::ZERO);
            t.prefs = w.compute_prefs(&stage, part);
            w.tasks.push(t);
            let replicas: Vec<u32> = w.hdfs.locations(block).iter().map(|n| n.0).collect();
            assert!(!replicas.is_empty());
            assert_eq!(w.tasks.prefs_of(part), replicas);
        }
    }

    #[test]
    fn lustre_and_generated_inputs_add_no_preference_and_no_table() {
        let lustre = EngineConfig {
            input: InputSource::Lustre,
            ..EngineConfig::default()
        };
        let mut w = SimWorld::new(tiny(4), lustre);
        let (rdd, dataset) = (RddId(900_002), real_dataset(3));
        assert_eq!(w.ensure_placed(rdd, &dataset), 3);
        // The world's first placement: slot 0, whatever the RDD's id.
        assert!(matches!(
            w.inputs.placed[&rdd].backing,
            Backing::Lustre { slot: 0 }
        ));
        let (.., io, locality) = w.dataset_input(rdd, 2, 1);
        let file = lustre_input_file(0, 2);
        assert!(matches!(io, IoPlan::LustreRead { file: f } if f == file));
        assert_eq!(locality, TaskLocality::Any);
        let generated = Arc::new(Dataset::generated(1e6, 1e5, 10.0));
        let gen_rdd = RddId(900_003);
        w.ensure_placed(gen_rdd, &generated);
        assert!(matches!(w.dataset_input(gen_rdd, 0, 1).3, IoPlan::None));
        assert!(!w.inputs.is_real(gen_rdd));
        let plan = crate::dag::build_plan(
            &crate::rdd::Rdd::source(Dataset::generated(1e6, 1e5, 10.0)),
            crate::rdd::Action::Count,
            &Default::default(),
        );
        w.check_placeable(&plan).expect("ten partitions fit");
    }
}
