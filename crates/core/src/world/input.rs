//! Input: where a dataset's partitions are placed (HDFS blocks on RAMDisk,
//! Lustre files, or generated in memory), which nodes a compute task
//! prefers and what it reads from where (paper §V: input locality), and the
//! launch of a compute task over it.

use super::{Ev, SimWorld};
use crate::config::InputSource;
use crate::dag::{StageInput, StagePlan};
use crate::executor::{run_narrow_chain, Pending, Work};
use crate::metrics::TaskLocality;
use crate::rdd::{Dataset, RddId};
use crate::value::Record;
use memres_cluster::NodeId;
use memres_des::sim::Outbox;
use memres_des::time::SimTime;
use memres_des::{Bytes, DetMap};
use memres_hdfs::{BlockId, Locality};
use memres_lustre::LustreFile;
use memres_net::Endpoint;
use memres_storage::FileId;
use std::sync::Arc;

/// File-id name spaces on the per-node filesystems / Lustre.
const HDFS_BLOCK_BASE: u64 = 1 << 40;
const LUSTRE_INPUT_BASE: u64 = 1 << 42;

struct PlacedPart {
    bytes: f64,
    records: u64,
    /// Shared view of the source partition's records — placing a dataset and
    /// launching tasks over it never copies record data.
    data: Option<Arc<[Record]>>,
    hdfs_block: Option<BlockId>,
    lustre: Option<LustreFile>,
}

/// Dataset placements by source RDD id.
#[derive(Default)]
pub(super) struct Inputs {
    placed: DetMap<RddId, Vec<PlacedPart>>,
}

impl Inputs {
    /// Whether every partition of placed dataset `rdd` carries real records.
    pub(super) fn is_real(&self, rdd: RddId) -> bool {
        self.placed[&rdd].iter().all(|p| p.data.is_some())
    }
}

enum IoPlan {
    None,
    HdfsRead { block: BlockId, src: NodeId },
    LustreRead { file: LustreFile },
    NetOnly { src: u32, bytes: f64 },
}

impl SimWorld {
    /// Place `dataset` on its backing store, once. Returns its partition
    /// count.
    pub(super) fn ensure_placed(&mut self, rdd: RddId, dataset: &Arc<Dataset>) -> usize {
        if let Some(parts) = self.inputs.placed.get(&rdd) {
            return parts.len();
        }
        let workers = self.spec.workers;
        // In-memory generated input: no storage backing at all.
        let backing = (!dataset.generated).then_some(self.cfg.input);
        let mut hdfs_file = None;
        let mut parts = Vec::with_capacity(dataset.partitions.len());
        for (i, p) in dataset.partitions.iter().enumerate() {
            let mut placed = PlacedPart {
                bytes: p.bytes,
                records: p.records,
                data: p.data.clone(),
                hdfs_block: None,
                lustre: None,
            };
            match backing {
                None => {}
                Some(InputSource::HdfsRamDisk) => {
                    // Pseudo-random block placement (what an ingested corpus
                    // looks like): node block counts become Poisson-spread,
                    // which is what strict locality scheduling then amplifies.
                    let mut z = (i as u64 ^ self.cfg.seed.rotate_left(32))
                        .wrapping_add(0x9e37_79b9_7f4a_7c15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^= z >> 31;
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
                    let file = *hdfs_file.get_or_insert_with(|| self.hdfs.new_file());
                    let b = self.hdfs.place_block_at(file, Bytes(p.bytes), locs.clone());
                    for n in locs {
                        self.ram_fs[n.index()]
                            .preload(FileId(HDFS_BLOCK_BASE + b.0), Bytes(p.bytes));
                    }
                    placed.hdfs_block = Some(b);
                }
                Some(InputSource::Lustre) => {
                    let lf = LustreFile(LUSTRE_INPUT_BASE + ((rdd.0 as u64) << 24) + i as u64);
                    self.lustre.create_external(lf, p.bytes);
                    placed.lustre = Some(lf);
                }
            }
            parts.push(placed);
        }
        self.inputs.placed.insert(rdd, parts);
        dataset.partitions.len()
    }

    /// Preferred nodes for a compute task: HDFS replicas or the cache home.
    pub(super) fn compute_prefs(&self, stage: &StagePlan, part: u32) -> Vec<u32> {
        match &stage.input {
            StageInput::Dataset { rdd, .. } => {
                match self.inputs.placed[rdd][part as usize].hdfs_block {
                    Some(b) => self.hdfs.locations(b).iter().map(|n| n.0).collect(),
                    // Lustre input: uniformly distant — no preference (§V-A).
                    None => Vec::new(),
                }
            }
            StageInput::Cached { rdd } => self
                .blockmgr
                .location(*rdd, part)
                .map(|n| vec![n])
                .unwrap_or_default(),
            StageInput::Shuffle(_) => Vec::new(),
        }
    }

    pub(super) fn launch_compute(
        &mut self,
        now: SimTime,
        task: u32,
        node: u32,
        part: u32,
        out: &mut Outbox<Ev>,
    ) {
        let plan = self.job_of(task).plan.clone();
        let stage_idx = self.tasks.stage[task as usize] as usize;
        let stage = &plan.stages[stage_idx];

        // Resolve input: bytes, records, data, the I/O to issue, locality.
        // A cached partition lost with its node is rebuilt from lineage: the
        // task reads the original dataset partition again and evaluates the
        // recovery stage in place of its own.
        let mut stage_override = None;
        let (in_bytes, in_records, data, io_plan, locality) = match &stage.input {
            StageInput::Dataset { rdd, .. } => self.dataset_input(*rdd, part, node),
            StageInput::Cached { rdd } => match self.blockmgr.try_partition(*rdd, part) {
                Some((bytes, records, data, home)) => {
                    let (io, locality) = if home == node {
                        (IoPlan::None, TaskLocality::NodeLocal)
                    } else {
                        (IoPlan::NetOnly { src: home, bytes }, TaskLocality::Remote)
                    };
                    (bytes, records, data, io, locality)
                }
                None => {
                    let (rec_stage, source) = self.recovery_stage(task, &plan, stage, *rdd, part);
                    stage_override = Some(rec_stage);
                    self.dataset_input(source, part, node)
                }
            },
            StageInput::Shuffle(_) => unreachable!("fetch tasks use launch_fetch"),
        };

        let speed = self.speed(node);
        let deferred = data.is_some();
        self.tasks.input_bytes[task as usize] = in_bytes;
        self.tasks.locality[task as usize] = locality;
        if let Some(data) = data {
            // Real partition: the UDF chain (and the partitioning of its
            // output) is a pure function of the shared input — defer it so
            // the dispatch round can evaluate all such work on the worker
            // pool, then commit in launch order.
            let partition = self.real_partitioning(task);
            self.pending.push(Pending {
                task,
                plan: plan.clone(),
                stage: stage_idx,
                partition,
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
            let chain = run_narrow_chain(stage, in_bytes, in_records, None, speed, None);
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
    fn dataset_input(
        &self,
        rdd: RddId,
        part: u32,
        node: u32,
    ) -> (f64, u64, Option<Arc<[Record]>>, IoPlan, TaskLocality) {
        let placed = &self.inputs.placed[&rdd][part as usize];
        let bytes = placed.bytes;
        let records = placed.records;
        let data = placed.data.clone();
        match (placed.hdfs_block, placed.lustre) {
            (Some(b), _) => {
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
            (_, Some(lf)) => (
                bytes,
                records,
                data,
                IoPlan::LustreRead { file: lf },
                TaskLocality::Any,
            ),
            // Generated in memory: no input I/O.
            _ => (bytes, records, data, IoPlan::None, TaskLocality::Any),
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
                self.arm_fs(node, false, out);
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
