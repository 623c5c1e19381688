//! The shuffle service: the paper's §IV-B design space in one file.
//!
//! Where a job's intermediate data lives and how its reducers get it is the
//! configured [`ShuffleStore`] — a node-local store on RAMDisk or SSD,
//! Lustre with node-local files, or Lustre shared — and every branch on it
//! is here: the flush of a producer's output (`launch_store`), the freeze of
//! serving-side state between the storing phase and the fetch stage
//! (`prepare_fetch_serving`), a reducer's fetch (`launch_fetch`, and for
//! Lustre-shared the MDS gate, the mass-flush gate and the deferred OSS
//! read), what a node crash takes with it, and what a departing job gives
//! back. A fourth store is an arm in each of those and nowhere else.

use super::tasks::TaskKind;
use super::{flush_tag, Ev, JobRun, NetTag, SimWorld, TASK_OVERHEAD};
use crate::config::{Defect, ShuffleStore, StoreDevice};
use crate::dag::{JobPlan, ShuffleSpec};
use crate::executor::{run_narrow_chain, Pending, Reader, RealOut, Work};
use crate::rdd::Action;
use crate::value::Record;
use memres_cluster::NodeId;
use memres_des::sim::Outbox;
use memres_des::time::{SimDuration, SimTime};
use memres_des::Bytes;
use memres_lustre::LustreFile;
use memres_net::{inflate_for_requests, Endpoint, FlowId, FlowNet, LinkId};
use memres_storage::{FileId, LocalFs};
use memres_trace::TraceEvent as TE;
use std::sync::Arc;

/// File ids of node-local store files and Lustre shuffle files.
const SHUFFLE_FILE_BASE: u64 = 1 << 41;

/// Fixed per-FetchRequest network/RPC overhead as equivalent bytes; with
/// `reducer_max_bytes_in_flight` it narrows effective shuffle bandwidth for
/// small FetchRequests (Fig 13b).
const PER_REQUEST_OVERHEAD_BYTES: f64 = 256.0 * 1024.0;

/// What a shuffle holds, fixed at creation by whether records flow.
enum Deposits {
    /// No record flows: hash partitioning is modelled as a perfectly even
    /// split, so every reducer pulls the same bytes from a node.
    Synthetic {
        /// node → the bytes each reducer pulls from it: every deposit there
        /// divided by the reducer count, summed in deposit order.
        share: Vec<f64>,
        /// Aggregated: the `(bytes, cached bytes)` every reducer pulls from
        /// each source rack. Folded by the first launch, emptied whenever
        /// re-hosting changes a share or a cached fraction.
        rack_fold: Vec<(f64, f64)>,
    },
    /// Real records, hash-partitioned and so possibly skewed.
    Real {
        /// [node][reducer] → intermediate bytes deposited.
        bytes: Vec<Vec<f64>>,
        /// node → reducer → the segments deposited there, one per finished
        /// producer, each still the producer's own bucket allocation. A
        /// reducer gathers them node ascending, deposit order within a node.
        segments: Vec<Vec<Vec<Vec<Record>>>>,
    },
}

impl Deposits {
    /// Bytes `reducer` pulls from `node`.
    fn get(&self, node: usize, reducer: usize) -> f64 {
        match self {
            Deposits::Synthetic { share, .. } => share[node],
            Deposits::Real { bytes, .. } => bytes[node][reducer],
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Deposits::Synthetic { share, .. } => share.capacity() * 8,
            Deposits::Real { bytes, .. } => {
                bytes.iter().map(|r| r.capacity() * 8).sum::<usize>()
                    + bytes.capacity() * std::mem::size_of::<Vec<f64>>()
            }
        }
    }
}

/// What one reducer pulls from each source rack into `out`, with the part of
/// it the nodes' server caches hold (`frac`, one per node), given what it
/// pulls from each node (`pulls`): rack by rack, each rack's members (node
/// `i` is in rack `i % racks`) in node order.
fn fold_racks(racks: usize, frac: &[f64], pulls: impl Fn(usize) -> f64, out: &mut Vec<(f64, f64)>) {
    out.clear();
    out.extend((0..racks).map(|rack| {
        let members = (rack..frac.len()).step_by(racks);
        members.fold((0.0, 0.0), |(bytes, cached), i| {
            let b = pulls(i);
            (bytes + b, cached + b * frac[i])
        })
    }));
}

/// [`ShuffleState::fetch_flows`] entry of a `(src, dst, kind)` no fetch has
/// used yet.
const UNOPENED: FlowId = FlowId(u64::MAX);

/// Intermediate-data state between a producing stage and its fetch stage.
struct ShuffleState {
    reducers: u32,
    spec: ShuffleSpec,
    deposits: Deposits,
    /// Fetches ride rack-pair aggregate flows instead of per-node flows
    /// (decided once at creation from `EngineConfig::rack_agg_threshold`).
    aggregated: bool,
    /// Per-node aggregated store file ids.
    local_files: Vec<Option<FileId>>,
    lustre_files: Vec<Option<LustreFile>>,
    /// Cached fraction per source node file at fetch start (Lustre-local).
    cached_frac: Vec<f64>,
    /// Lustre-shared: outstanding revocation flushes gating all fetches.
    flush_pending: usize,
    flush_done: bool,
    /// Fetch tasks whose MDS op finished while flushes were outstanding.
    waiting_for_flush: Vec<u32>,
    /// Persistent fetch flows, directly indexed (a reducer launch looks one
    /// up per source and kind; nothing iterates them but the release at the
    /// shuffle's end): row `dst * 2 + kind` — kind 0 = store/cached, 1 = OSS
    /// path — holds one entry per source, endpoints being racks when
    /// `aggregated` and nodes otherwise. A row stays empty until the first
    /// reducer lands on `dst`, so the table grows with the destinations
    /// used, not with endpoints².
    fetch_flows: Vec<Vec<FlowId>>,
}

impl ShuffleState {
    /// `racks` is `Some` when fetches ride rack-pair aggregate flows.
    fn new(
        reducers: u32,
        spec: ShuffleSpec,
        workers: usize,
        real: bool,
        racks: Option<usize>,
    ) -> Self {
        let r = reducers as usize;
        ShuffleState {
            reducers,
            spec,
            deposits: if real {
                Deposits::Real {
                    bytes: vec![vec![0.0; r]; workers],
                    segments: vec![vec![Vec::new(); r]; workers],
                }
            } else {
                Deposits::Synthetic {
                    share: vec![0.0; workers],
                    rack_fold: Vec::new(),
                }
            },
            aggregated: racks.is_some(),
            local_files: vec![None; workers],
            lustre_files: vec![None; workers],
            cached_frac: vec![0.0; workers],
            flush_pending: 0,
            flush_done: false,
            waiting_for_flush: Vec::new(),
            fetch_flows: vec![Vec::new(); 2 * racks.unwrap_or(workers)],
        }
    }

    fn is_real(&self) -> bool {
        matches!(self.deposits, Deposits::Real { .. })
    }

    /// A producer finished at `node` with `total` bytes of output (`real`:
    /// its rows, already hash-partitioned).
    fn deposit(&mut self, node: usize, total: f64, real: Option<RealOut>) {
        let per = total / self.reducers as f64;
        match &mut self.deposits {
            Deposits::Synthetic { share, .. } => share[node] += per,
            Deposits::Real {
                bytes, segments, ..
            } => match real {
                // O(reducers): each bucket — already partitioned, sized and
                // summed on the pool — lands as one segment, by handle. Its
                // byte total is an integer sum, so adding it once equals the
                // per-record `f64` accumulation it replaces bit for bit.
                Some(RealOut::Buckets(buckets)) => {
                    for (r, bucket) in buckets.into_iter().enumerate() {
                        bytes[node][r] += bucket.bytes as f64;
                        if !bucket.rows.is_empty() {
                            segments[node][r].push(bucket.rows);
                        }
                    }
                }
                _ => bytes[node].iter_mut().for_each(|b| *b += per),
            },
        }
    }

    /// Move every deposited row of `dead` to `repl`: recovery re-hosts the
    /// data, and ghost tasks recharge the time it took to produce it. The
    /// dead node's store file is forgotten, so relaunched fetches read from
    /// the replacement.
    fn move_rows(&mut self, dead: usize, repl: usize) {
        let r = self.reducers as usize;
        match &mut self.deposits {
            Deposits::Synthetic { share, .. } => share[repl] += std::mem::take(&mut share[dead]),
            Deposits::Real {
                bytes, segments, ..
            } => {
                let row = std::mem::replace(&mut bytes[dead], vec![0.0; r]);
                for (b, moved) in bytes[repl].iter_mut().zip(row) {
                    *b += moved;
                }
                let rows = std::mem::replace(&mut segments[dead], vec![Vec::new(); r]);
                for (s, mut moved) in segments[repl].iter_mut().zip(rows) {
                    s.append(&mut moved);
                }
            }
        }
        self.local_files[dead] = None;
        self.lose_cache(dead);
    }

    /// `node`'s server cache is gone: its bytes refetch from the OSSes.
    fn lose_cache(&mut self, node: usize) {
        self.cached_frac[node] = 0.0;
        if let Deposits::Synthetic { rack_fold, .. } = &mut self.deposits {
            rack_fold.clear();
        }
    }

    /// What `reducer` pulls from each source — a rack when `aggregated`, a
    /// node otherwise — into `out` as `(bytes, cached)`. For a rack, `cached`
    /// is the part of its bytes its members' server caches hold; for a node,
    /// it is the node's cached fraction. Only Lustre-local reads `cached`.
    fn sources(&mut self, reducer: u32, racks: usize, out: &mut Vec<(f64, f64)>) {
        let (reducer, frac) = (reducer as usize, &self.cached_frac);
        match &mut self.deposits {
            d if !self.aggregated => {
                out.clear();
                out.extend((0..frac.len()).map(|i| (d.get(i, reducer), frac[i])));
            }
            Deposits::Real { bytes, .. } => fold_racks(racks, frac, |i| bytes[i][reducer], out),
            Deposits::Synthetic { share, rack_fold } => {
                if rack_fold.is_empty() {
                    fold_racks(racks, frac, |i| share[i], rack_fold);
                }
                out.clone_from(rack_fold);
            }
        }
    }
}

/// One job's shuffles: the one its current stage reads, the one it writes,
/// and what it has deposited where.
pub(super) struct JobShuffle {
    /// Shuffle feeding the current fetch stage.
    reading: Option<ShuffleState>,
    /// Shuffle being produced by the current stage.
    writing: Option<ShuffleState>,
    /// Per-node intermediate bytes deposited by this job (ELB signal).
    intermediate: Vec<f64>,
    /// Every Lustre shuffle file this job has written, deleted when it
    /// leaves (a consumed shuffle's state is dropped long before).
    lustre_files: Vec<LustreFile>,
}

impl JobShuffle {
    pub(super) fn new(workers: usize) -> Self {
        JobShuffle {
            reading: None,
            writing: None,
            intermediate: vec![0.0; workers],
            lustre_files: Vec::new(),
        }
    }

    #[inline]
    pub(super) fn intermediate(&self) -> &[f64] {
        &self.intermediate
    }

    pub(super) fn is_writing(&self) -> bool {
        self.writing.is_some()
    }

    /// Heap of the live shuffle's byte accounting (self-profiling).
    pub(super) fn heap_bytes(&self) -> usize {
        let live = self.writing.as_ref().or(self.reading.as_ref());
        live.map_or(0, |s| s.deposits.heap_bytes())
    }

    /// Whether `reducer` of the shuffle being read pulls bytes from `src`.
    pub(super) fn fetches_from(&self, src: u32, reducer: u32) -> bool {
        let (src, reducer) = (src as usize, reducer as usize);
        let reading = self.reading.as_ref();
        reading.is_some_and(|sh| sh.deposits.get(src, reducer) > 0.0)
    }

    /// The shuffle this job's fetch stage reads.
    #[expect(
        clippy::expect_used,
        reason = "reached from fetch-task paths only, and a fetch stage starts (`begin_fetch_stage`) by installing the shuffle its predecessor wrote"
    )]
    fn reading(&mut self) -> &mut ShuffleState {
        self.reading
            .as_mut()
            .expect("fetch without a shuffle to read")
    }

    /// The shuffle this job's current stage writes.
    #[expect(
        clippy::expect_used,
        reason = "reached for the producers, store tasks and storing-to-fetch switch of a stage whose plan writes a shuffle, which `open_shuffle` created when the stage started"
    )]
    fn writing(&mut self) -> &mut ShuffleState {
        self.writing
            .as_mut()
            .expect("producer without a shuffle to write")
    }

    /// A producer finished at `node` with `bytes` of output: counted in
    /// `intermediate`, and deposited into the shuffle being written.
    pub(super) fn deposit(&mut self, node: u32, bytes: f64, real: Option<RealOut>) {
        self.intermediate[node as usize] += bytes;
        self.writing().deposit(node as usize, bytes, real);
    }
}

/// The service's own state: the per-node links fetches are served through,
/// the file-id mint, and scratch.
pub(super) struct ShuffleService {
    /// Per-node store read bandwidth, as a link at the head of every fetch
    /// path served from that node's store.
    read_links: Vec<LinkId>,
    next_file: u64,
    /// Scratch of `launch_fetch`: what one reducer pulls from each source
    /// (`ShuffleState::sources`).
    fetch_sources: Vec<(f64, f64)>,
    /// Scratch of `launch_fetch`: the `(flow, wire bytes)` pairs of one
    /// reducer launch, handed to the network in one `push_chunks`.
    fetch_chunks: Vec<(FlowId, Bytes)>,
}

impl ShuffleService {
    /// Adds one serving link of `read_bw` per worker to `net`.
    pub(super) fn new(net: &mut FlowNet<NetTag>, workers: usize, read_bw: f64) -> Self {
        ShuffleService {
            read_links: (0..workers).map(|_| net.add_link(read_bw)).collect(),
            next_file: SHUFFLE_FILE_BASE,
            fetch_sources: Vec::new(),
            fetch_chunks: Vec::new(),
        }
    }

    fn mint_file(&mut self) -> u64 {
        let id = self.next_file;
        self.next_file += 1;
        id
    }
}

/// Effective serving-read bandwidth of a shuffle store, mixing page-cache
/// hits with device reads (harmonic mean), GC-aware for SSDs.
fn effective_read_bw(fs: &LocalFs, dev: StoreDevice) -> f64 {
    let dev_bw = fs.device().current_read_bandwidth();
    if dev == StoreDevice::RamDisk {
        return dev_bw;
    }
    let stored = fs.used().max(1.0);
    let cache_frac = (fs.page_cache_capacity() / stored).clamp(0.0, 1.0);
    let mem_bw = 3.0e9;
    1.0 / (cache_frac / mem_bw + (1.0 - cache_frac) / dev_bw)
}

impl SimWorld {
    // ---------------- what the rest of the engine asks ----------------

    /// Whether intermediate data lives on the node that produced it, and so
    /// dies with it.
    pub(super) fn store_is_node_local(&self) -> bool {
        matches!(self.cfg.shuffle, ShuffleStore::Local(_))
    }

    /// Whether reducers pull from the nodes that produced the data (the
    /// shared Lustre store serves every byte from the OSSes instead).
    pub(super) fn fetches_pull_from_nodes(&self) -> bool {
        !matches!(self.cfg.shuffle, ShuffleStore::LustreShared)
    }

    /// CAD only gates nodes whose store device actually shows congestion
    /// (a deep write queue); throttling healthy nodes would idle them.
    pub(super) fn store_congested(&self, node: u32) -> bool {
        match self.cfg.shuffle {
            ShuffleStore::Local(dev) => {
                self.fs(node, dev == StoreDevice::Ssd).device_queue_depth() >= 4
            }
            _ => true,
        }
    }

    /// Who reads `task`'s real rows: the shuffle its job is producing, when
    /// that carries real rows; else the job's action, when `task` is in the
    /// final stage and the action reads rows; else nobody.
    pub(super) fn real_reader(&self, task: u32) -> Reader {
        let job = self.job_of(task);
        if let Some(sh) = job.shuffle.writing.as_ref().filter(|sh| sh.is_real()) {
            return Reader::Shuffle(sh.reducers);
        }
        let last = self.tasks.stage[task as usize] as usize + 1 == job.plan.stages.len();
        let read = matches!(job.plan.action, Action::Collect | Action::Reduce(_));
        if last && read {
            Reader::Action
        } else {
            Reader::Nobody
        }
    }

    // ---------------- a shuffle's life ----------------

    /// Job `ji`'s current stage writes the shuffle `spec` over `nparts`
    /// producers, of real records when `real`: create its state. Returns the
    /// reducer count.
    pub(super) fn open_shuffle(
        &mut self,
        ji: usize,
        spec: &ShuffleSpec,
        nparts: usize,
        real: bool,
    ) -> u32 {
        // Spark guidance: default reduce-side parallelism ~ total cores.
        let reducers = spec
            .reducers
            .unwrap_or((nparts as u32).min(self.spec.total_slots()))
            .max(1);
        let workers = self.spec.workers as usize;
        // Rack aggregation kicks in when the per-rack-pair concurrent
        // flow count (per_rack producers x per_rack consumers) exceeds
        // the threshold; u32::MAX disables it outright. Only the
        // store-served paths aggregate — LustreShared traffic already
        // funnels through one pipe.
        let aggregated = {
            let per_rack = workers as u64 / self.spec.racks.max(1) as u64;
            self.cfg.rack_agg_threshold != u32::MAX
                && self.fetches_pull_from_nodes()
                && per_rack * per_rack > self.cfg.rack_agg_threshold as u64
        };
        let racks = aggregated.then_some(self.spec.racks as usize);
        let state = ShuffleState::new(reducers, spec.clone(), workers, real, racks);
        self.jobs[ji].shuffle.writing = Some(state);
        reducers
    }

    /// A fetch stage of job `ji` starts: the shuffle it produced moves into
    /// consuming position, and the one consumed by the stage that produced
    /// it is done with. The net makes room, once, for every fetch flow the
    /// stage can open: reducers land on at most `min(reducers, endpoints)`
    /// destinations, each pulling from every source endpoint over each
    /// serving kind the store has (the store or cache, and for Lustre-local
    /// the OSSes; Lustre-shared reads ride one-shot flows). Returns the
    /// reducer count and whether the shuffle holds real records.
    pub(super) fn begin_fetch_stage(
        &mut self,
        now: SimTime,
        ji: usize,
        out: &mut Outbox<Ev>,
    ) -> (usize, bool) {
        let sh = &mut self.jobs[ji].shuffle;
        let produced = sh.writing.take();
        assert!(produced.is_some(), "fetch stage without produced shuffle");
        if let Some(consumed) = std::mem::replace(&mut sh.reading, produced) {
            self.release_fetch_flows(now, &consumed, out);
        }
        let reading = self.jobs[ji].shuffle.reading();
        let (reducers, real) = (reading.reducers as usize, reading.is_real());
        let endpoints = reading.fetch_flows.len() / 2;
        let kinds = match self.cfg.shuffle {
            ShuffleStore::Local(_) => 1,
            ShuffleStore::LustreLocal => 2,
            ShuffleStore::LustreShared => 0,
        };
        self.net
            .reserve_flows(reducers.min(endpoints) * endpoints * kinds);
        (reducers, real)
    }

    /// Give back the persistent fetch flows of a shuffle nothing will read
    /// again: its fetch stage is over, or its job is leaving. They are idle
    /// unless a failed or aborted attempt left chunks in flight, and closing
    /// an idle flow only frees its slot; closing one that still carries
    /// chunks drops them and retires the armed `NetWake`, so the net is
    /// re-armed here.
    fn release_fetch_flows(&mut self, now: SimTime, sh: &ShuffleState, out: &mut Outbox<Ev>) {
        let armed = self.net.gen();
        for &f in sh.fetch_flows.iter().flatten().filter(|&&f| f != UNOPENED) {
            self.net.close_flow(now, f);
        }
        if self.net.gen() != armed {
            self.arm_net(out);
        }
    }

    /// A departing job gives back what its shuffles hold in the substrates:
    /// the fetch flows of the one it was reading, and every Lustre file it
    /// wrote — deleting one releases its writer's DLM lock and the client
    /// cache it pins. A delete retires the armed `LustreWake`, so the MDS is
    /// re-armed for the other residents.
    pub(super) fn release_shuffle_state(
        &mut self,
        now: SimTime,
        job: &JobRun,
        out: &mut Outbox<Ev>,
    ) {
        if let Some(sh) = &job.shuffle.reading {
            self.release_fetch_flows(now, sh, out);
        }
        if !job.shuffle.lustre_files.is_empty() {
            for &f in &job.shuffle.lustre_files {
                self.lustre.delete(f);
            }
            self.arm_lustre(out);
        }
    }

    // ---------------- storing phase ----------------

    pub(super) fn launch_store(
        &mut self,
        now: SimTime,
        task: u32,
        node: u32,
        producer: u32,
        out: &mut Outbox<Ev>,
    ) {
        let bytes = self.tasks.out_bytes(producer);
        let speed = self.speed(node);
        // Partition + Java-serialization cost of the flush (Spark 0.7 era).
        let cpu = SimDuration::from_secs_f64(bytes / (300.0e6 * speed)).mul_f64(self.jitter(task))
            + TASK_OVERHEAD;
        {
            let i = task as usize;
            self.tasks.compute_dur[i] = cpu;
            self.tasks.input_bytes[i] = bytes;
            self.tasks.output_bytes[i] = bytes;
        }
        let ji = self.job_index_of(task);
        let (job, svc) = (&mut self.jobs[ji], &mut self.shuffle);
        match self.cfg.shuffle {
            ShuffleStore::Local(dev) => {
                let files = &mut job.shuffle.writing().local_files;
                let file = *files[node as usize].get_or_insert_with(|| FileId(svc.mint_file()));
                if bytes > 0.0 {
                    let ssd = dev == StoreDevice::Ssd;
                    let tag = self.io_tag(task);
                    let fs = self.fs_mut(node, ssd);
                    assert!(
                        fs.free() >= bytes,
                        "shuffle store on node {node} out of space — the paper's \
                         RAMDisk-backed store tops out at ~1.2 TB aggregate"
                    );
                    fs.write(now, file, Bytes(bytes), tag);
                    self.tasks.pending_io[task as usize] += 1;
                    self.arm_fs(node, ssd, out);
                }
            }
            ShuffleStore::LustreLocal | ShuffleStore::LustreShared => {
                let sh = &mut job.shuffle;
                let file = match sh.writing().lustre_files[node as usize] {
                    Some(f) => f,
                    None => {
                        let f = LustreFile(svc.mint_file());
                        sh.writing().lustre_files[node as usize] = Some(f);
                        sh.lustre_files.push(f);
                        f
                    }
                };
                let wplan = self.lustre.append(now, NodeId(node), file, Bytes(bytes));
                let wire = wplan.oss_bytes / self.lustre.config().write_efficiency;
                let oss = (wplan.oss_bytes > 0.0)
                    .then_some(((Endpoint::Node(NodeId(node)), Endpoint::Lustre), wire));
                self.lustre_io(now, task, wplan.mds_ops, oss, out);
            }
        }
        self.maybe_schedule_finish(now, task, out);
    }

    /// A failed flush abandons its partial output: reclaim the space in the
    /// node-local store (`node` is up).
    pub(super) fn abandon_store_output(&mut self, task: u32, node: u32) {
        let ShuffleStore::Local(dev) = self.cfg.shuffle else {
            return;
        };
        let sh = self.job_of(task).shuffle.writing.as_ref();
        if let Some(file) = sh.and_then(|sh| sh.local_files[node as usize]) {
            let bytes = self.tasks.output_bytes[task as usize];
            self.fs_mut(node, dev == StoreDevice::Ssd)
                .truncate(file, Bytes(bytes));
        }
    }

    /// A task that may deposit intermediate data for a produced shuffle.
    pub(super) fn producer_finished(&mut self, task: u32, node: u32) {
        let out_bytes = self.tasks.out_bytes(task);
        let stage_idx = self.tasks.stage[task as usize] as usize;
        let has_shuffle = self.job_of(task).plan.stages[stage_idx].has_shuffle_output();
        if !has_shuffle {
            return;
        }
        let real_out = self.tasks.real_out.remove(&task);
        let sh = &mut self.job_of_mut(task).shuffle;
        sh.deposit(node, out_bytes, real_out);
    }

    /// Freeze serving-side state before the fetch stage starts: store
    /// read-link capacities (LocalStore), cached fractions (Lustre-local),
    /// and the mass revocation flush (Lustre-shared).
    pub(super) fn prepare_fetch_serving(&mut self, now: SimTime, ji: usize, out: &mut Outbox<Ev>) {
        let workers = self.spec.workers;
        match self.cfg.shuffle {
            ShuffleStore::Local(dev) => {
                for n in 0..workers {
                    let bw = effective_read_bw(self.fs(n, dev == StoreDevice::Ssd), dev);
                    let link = self.shuffle.read_links[n as usize];
                    self.net.set_link_capacity(now, link, bw.max(1.0));
                }
                self.net.end_batch();
                self.arm_net(out);
            }
            ShuffleStore::LustreLocal => {
                let sh = self.jobs[ji].shuffle.writing();
                for (frac, file) in sh.cached_frac.iter_mut().zip(&sh.lustre_files) {
                    *frac = file.map_or(0.0, |lf| self.lustre.cached_fraction(lf));
                }
            }
            ShuffleStore::LustreShared => {
                // "Forcing all the intermediate data to be flushed to the
                // OSSes around the same time" — revoke every node file now.
                let job = self.jobs[ji].id;
                let files = self.jobs[ji].shuffle.writing().lustre_files.clone();
                let mut pending = 0;
                for (n, lf) in files.iter().enumerate() {
                    let dirty = lf.map_or(0.0, |lf| self.lustre.revoke(now, lf));
                    if dirty > 0.0 {
                        pending += 1;
                        let wire = dirty / self.lustre.config().write_efficiency;
                        let src = Endpoint::Node(NodeId(n as u32));
                        let tag = flush_tag(job);
                        self.send_once(now, src, Endpoint::Lustre, Bytes(wire), tag);
                    }
                }
                let sh = self.jobs[ji].shuffle.writing();
                sh.flush_pending = pending;
                sh.flush_done = pending == 0;
                self.arm_net(out);
            }
        }
    }

    /// Keep `node`'s store-serving link in sync with its SSD (GC state, an
    /// injected degradation): re-rate it when the effective read bandwidth
    /// has moved by more than 5 % of the link's capacity, or at all events
    /// when `force`d.
    pub(super) fn sync_ssd_read_link(
        &mut self,
        now: SimTime,
        node: u32,
        force: bool,
        out: &mut Outbox<Ev>,
    ) {
        let ShuffleStore::Local(StoreDevice::Ssd) = self.cfg.shuffle else {
            return;
        };
        let bw = effective_read_bw(self.fs(node, true), StoreDevice::Ssd);
        let link = self.shuffle.read_links[node as usize];
        let cur = self.net.link_capacity(link);
        if force || (bw - cur).abs() / cur > 0.05 {
            self.net.set_link_capacity(now, link, bw.max(1.0));
            self.arm_net(out);
        }
    }

    // ---------------- fetch stage ----------------

    /// Wire bytes of `raw` fetched bytes: inflated by the per-request
    /// overhead. (The paper quotes intermediate sizes post-pipeline, so
    /// `spark.shuffle.compress` changes no byte count here.)
    fn fetch_wire(&self) -> impl Fn(f64) -> Bytes {
        let req = self.cfg.reducer_max_bytes_in_flight;
        move |raw| inflate_for_requests(Bytes(raw), req, PER_REQUEST_OVERHEAD_BYTES)
    }

    /// Launch fetch task `task` of stage `stage_idx` of `plan` on `node`: it
    /// pulls what its reducer was dealt, then aggregates it and runs the
    /// stage's chain.
    pub(super) fn launch_fetch(
        &mut self,
        now: SimTime,
        task: u32,
        node: u32,
        (plan, stage_idx): (&Arc<JobPlan>, usize),
        out: &mut Outbox<Ev>,
    ) {
        let workers = self.spec.workers;
        let ji = self.job_index_of(task);
        let reducer = self.tasks.index[task as usize];
        let stage = &plan.stages[stage_idx];
        self.queue_reduce(task, reducer, plan, stage_idx);

        // Bucket sizes and shuffle spec. Above the rack-aggregation
        // threshold, per-node deposits fold into per-source-rack totals and
        // the fetch rides one aggregate flow per rack pair (`sources` is
        // indexed by rack); below it, exact per-node flows as always.
        let mut sources = std::mem::take(&mut self.shuffle.fetch_sources);
        let sh = self.jobs[ji].shuffle.reading();
        sh.sources(reducer, self.spec.racks as usize, &mut sources);
        if sh.aggregated && self.cfg.defect == Some(Defect::DropAggBytes) {
            // Injected defect (fuzz-oracle demo, DESIGN.md §4.13): lose the
            // last rack's fold entirely.
            if let Some((b, _)) = sources.last_mut() {
                *b = 0.0;
            }
        }
        let total: f64 = sources.iter().map(|&(b, _)| b).sum();
        let (agg_rate, out_factor, aggregated, real) = (
            sh.spec.fetch_rate,
            sh.spec.out_factor,
            sh.aggregated,
            sh.is_real(),
        );

        let speed = self.speed(node);
        let mut dur = SimDuration::from_secs_f64(total / (agg_rate * speed));
        let (chain_dur, out_bytes, out_records, _, _) = run_narrow_chain(
            stage,
            total * out_factor,
            ((total / 64.0).max(1.0)) as u64,
            None,
            speed,
            Reader::Nobody,
        );
        dur += chain_dur;
        let dur = dur.mul_f64(self.jitter(task)) + TASK_OVERHEAD;
        {
            let i = task as usize;
            self.tasks.compute_dur[i] = dur;
            self.tasks.input_bytes[i] = total;
            self.tasks.output_bytes[i] = out_bytes;
        }
        // A real reducer's count is its aggregation's, which the flush
        // commits.
        if !real {
            self.note_final_records(task, out_records);
        }

        match self.cfg.shuffle {
            ShuffleStore::Local(_) | ShuffleStore::LustreLocal => {
                let lustre_local = matches!(self.cfg.shuffle, ShuffleStore::LustreLocal);
                // Flow endpoints are racks when aggregated, nodes otherwise
                // (`sources` is indexed the same way).
                let dst = if aggregated {
                    self.fabric.rack_index(NodeId(node)) as u32
                } else {
                    node
                };
                let tag = self.io_tag(task);
                let inflate = self.fetch_wire();
                let mut chunks = std::mem::take(&mut self.shuffle.fetch_chunks);
                chunks.clear();
                for (src, &(b, cached)) in sources.iter().enumerate() {
                    if b <= 0.0 {
                        continue;
                    }
                    // Wire bytes served from the source's store or server
                    // page cache (kind 0) and from the OSSes (kind 1). A rack
                    // total splits by its members' cached bytes, a node's
                    // wire bytes by its cached fraction.
                    let (cached, oss) = if !lustre_local {
                        (inflate(b), Bytes::ZERO)
                    } else if aggregated {
                        (inflate(cached), inflate(b - cached))
                    } else {
                        let wire = inflate(b);
                        let cached = wire * cached;
                        (cached, wire - cached)
                    };
                    for (kind, wire) in [(0u8, cached), (1, oss)] {
                        if wire.is_positive() {
                            self.tasks.pending_io[task as usize] += 1;
                            chunks.push((self.fetch_flow(now, ji, src as u32, dst, kind), wire));
                        }
                    }
                }
                self.net.push_chunks(now, tag, &chunks);
                self.shuffle.fetch_chunks = chunks;
                self.net.end_batch();
                self.arm_net(out);
            }
            ShuffleStore::LustreShared => {
                // Metadata storm: per-file lock ops at the MDS, plus the
                // revocation bookkeeping share; then an OSS read gated on the
                // mass flush (see `lustre_shared_transfer`), counted now so
                // the MDS completion alone cannot finish the task.
                let ops = workers as f64 * self.lustre.config().ops_lock
                    + self.lustre.config().ops_revoke;
                self.tasks.pending_io[task as usize] += 1;
                self.submit_mds(now, task, ops, out);
            }
        }
        self.shuffle.fetch_sources = sources;
        self.maybe_schedule_finish(now, task, out);
    }

    /// Real rows: the first launch of `reducer` takes its deposited segments
    /// in gather order (the shuffle barrier guarantees they are complete)
    /// and queues their aggregation for this round's flush, which commits
    /// it to `task`'s row like any chain. Every launch happens in a dispatch
    /// round, which ends in that flush, so a retry (the same task, a later
    /// attempt) finds the result committed and queues nothing: the
    /// aggregation runs once per reducer however many attempts it takes.
    fn queue_reduce(&mut self, task: u32, reducer: u32, plan: &Arc<JobPlan>, stage: usize) {
        if self.tasks.reduced_bytes.contains_key(&task) {
            return;
        }
        let sh = self.job_of_mut(task).shuffle.reading();
        let Deposits::Real { segments, .. } = &mut sh.deposits else {
            return; // synthetic shuffle: sizes only
        };
        let segments = segments
            .iter_mut()
            .flat_map(|node| std::mem::take(&mut node[reducer as usize]))
            .collect();
        let agg = sh.spec.agg.clone();
        let reader = self.real_reader(task);
        self.pending.push(Pending {
            task,
            plan: plan.clone(),
            stage,
            reader,
            work: Work::Reduce { agg, segments },
        });
    }

    /// Persistent fetch flow for `(src, dst, kind)` of the shuffle resident
    /// job `ji` is reading: one indexed load once opened, opened on first
    /// use. Kind 0 is served by the source's store (or Lustre server page
    /// cache), kind 1 by the OSSes through the Lustre pipe ("repetitive data
    /// movement"). In an aggregated shuffle `src` and `dst` are racks and the
    /// flow is processor-shared: concurrent reducers behind it split its
    /// bandwidth evenly — the split the collapsed per-node flows would
    /// converge to under water-filling. A shuffle is aggregated or not for
    /// its whole life, so its table is indexed one way throughout.
    fn fetch_flow(&mut self, now: SimTime, ji: usize, src: u32, dst: u32, kind: u8) -> FlowId {
        let sh = self.jobs[ji].shuffle.reading();
        let endpoints = sh.fetch_flows.len() / 2;
        let row = &mut sh.fetch_flows[dst as usize * 2 + kind as usize];
        if row.is_empty() {
            row.resize(endpoints, UNOPENED);
        }
        let entry = &mut row[src as usize];
        if *entry != UNOPENED {
            return *entry;
        }
        *entry = if sh.aggregated {
            let mut path = self.fabric.rack_aggregate_path(src as usize, dst as usize);
            if kind == 1 {
                path.insert(0, self.fabric.lustre_pipe());
            }
            path.dedup();
            self.net.open_shared_flow(now, path, false)
        } else {
            // The serving side (store read bandwidth, or the Lustre pipe),
            // then the server and destination NICs across the fabric.
            let mut path = vec![if kind == 0 {
                self.shuffle.read_links[src as usize]
            } else {
                self.fabric.lustre_pipe()
            }];
            path.extend(
                self.fabric
                    .path(Endpoint::Node(NodeId(src)), Endpoint::Node(NodeId(dst))),
            );
            path.dedup();
            let flow = self.net.open_flow(now, path, false);
            // A node-to-node flow queues one chunk per reducer running on
            // the destination node (a capacity hint: a retry can queue behind
            // a failed attempt's). Rack-aggregated flows serve a whole rack
            // and are left to grow.
            self.net
                .reserve_chunks(flow, self.spec.cores_per_node as usize);
            flow
        };
        *entry
    }

    // ---------------- Lustre-shared: the two gates and the read ----------------

    /// A Lustre completion for `task` was just counted. For a Lustre-shared
    /// fetch task it is the MDS storm finishing: the OSS read may start once
    /// the mass flush has finished too.
    pub(super) fn lustre_shared_gate(&mut self, now: SimTime, task: u32, out: &mut Outbox<Ev>) {
        let fetch = matches!(self.tasks.kind(task), TaskKind::Fetch { .. });
        if self.fetches_pull_from_nodes() || !fetch {
            return;
        }
        let ji = self.job_index_of(task);
        if self.jobs[ji].shuffle.reading().flush_done {
            self.lustre_shared_transfer(now, task, out);
        } else {
            self.trace(now, TE::LockWaitStart { task });
            let sh = self.jobs[ji].shuffle.reading();
            sh.waiting_for_flush.push(task);
        }
    }

    /// A Lustre-shared fetch task is transfer-eligible (its MDS ops are done
    /// AND the mass flush finished): schedule the OSS read one revocation
    /// round trip out. The flow itself opens when [`Ev::LustreSharedRead`]
    /// fires, so the flow network's clock never runs ahead of sim time
    /// (other resident jobs keep mutating it inside the latency window).
    fn lustre_shared_transfer(&mut self, now: SimTime, task: u32, out: &mut Outbox<Ev>) {
        let start = now + self.lustre.config().revoke_latency;
        self.trace(
            now,
            TE::LockWaitFor {
                task,
                dur: self.lustre.config().revoke_latency,
            },
        );
        out.at(
            start,
            Ev::LustreSharedRead {
                task,
                attempt: u32::from(self.tasks.attempt[task as usize]),
                job: self.tasks.job[task as usize],
            },
        );
    }

    /// The deferred OSS read of [`SimWorld::lustre_shared_transfer`].
    pub(super) fn lustre_shared_read(&mut self, now: SimTime, task: u32, out: &mut Outbox<Ev>) {
        let node = self.tasks.node[task as usize];
        let wire = self.fetch_wire()(self.tasks.input_bytes[task as usize]);
        let dst = Endpoint::Node(NodeId(node));
        self.send_once(now, Endpoint::Lustre, dst, wire, self.io_tag(task));
        self.arm_net(out);
    }

    /// One chunk of job `owner`'s mass flush reached the OSSes; the last
    /// one opens the gate its reducers wait at. A chunk that outlives its
    /// job (aborted mid-flush) is nobody's progress.
    pub(super) fn on_flush_progress(&mut self, now: SimTime, owner: u32, out: &mut Outbox<Ev>) {
        let Some(job) = self.jobs.iter_mut().find(|j| j.id == owner) else {
            return;
        };
        // The flush starts as the storing phase ends and the fetch stage
        // starts in the same event, so the flushed shuffle is being read.
        let Some(sh) = job
            .shuffle
            .reading
            .as_mut()
            .filter(|sh| sh.flush_pending > 0)
        else {
            return;
        };
        sh.flush_pending -= 1;
        if sh.flush_pending == 0 && !sh.flush_done {
            sh.flush_done = true;
            let waiting = std::mem::take(&mut sh.waiting_for_flush);
            for task in waiting {
                self.trace(now, TE::LockWaitEnd { task });
                self.lustre_shared_transfer(now, task, out);
            }
        }
    }

    // ---------------- crash recovery ----------------

    /// `dead` crashed: re-host at `repl` what every resident job's shuffles
    /// held there. Rows of a shuffle being produced live in executor memory
    /// or the node-local store; rows being consumed from Lustre survive the
    /// crash on the OSSes, but the server page cache died with the node, so
    /// refetches stream from the OSSes instead.
    pub(super) fn rehost_shuffle_rows(&mut self, dead: u32, repl: u32) {
        let local_store = self.store_is_node_local();
        let (dead, repl) = (dead as usize, repl as usize);
        for job in &mut self.jobs {
            let sh = &mut job.shuffle;
            if let Some(writing) = sh.writing.as_mut() {
                writing.move_rows(dead, repl);
            }
            match sh.reading.as_mut() {
                Some(reading) if local_store => reading.move_rows(dead, repl),
                Some(reading) => reading.lose_cache(dead),
                None => {}
            }
            sh.intermediate[repl] += sh.intermediate[dead];
            sh.intermediate[dead] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tasks::TState;
    use super::super::tests::world;
    use super::*;
    use crate::config::EngineConfig;
    use crate::value::Value;
    use memres_cluster::tiny;
    use memres_storage::{Ssd, SsdConfig};

    #[test]
    fn effective_read_bw_blends_cache_and_device() {
        use memres_storage::{CacheConfig, LocalFs, RamDisk};
        // RAMDisk store: always the device rate.
        let fs = LocalFs::new(Box::new(RamDisk::new(5e9, 4e9)), 1e12, None);
        assert_eq!(effective_read_bw(&fs, StoreDevice::RamDisk), 5e9);
        // SSD store with little data: cache-dominated (≈ mem speed).
        let mut ssd_fs = LocalFs::new(
            Box::new(Ssd::new(SsdConfig::hyperion())),
            1e12,
            Some(CacheConfig::hyperion()),
        );
        ssd_fs.preload(FileId(1), Bytes(1e9)); // 1 GB stored, fully cacheable
        let hot = effective_read_bw(&ssd_fs, StoreDevice::Ssd);
        assert!(hot > 2.0e9, "mostly cached: {hot}");
        // With far more data than cache: near device read speed.
        ssd_fs.preload(FileId(2), Bytes(500e9));
        let cold = effective_read_bw(&ssd_fs, StoreDevice::Ssd);
        assert!(cold < 700e6, "mostly device: {cold}");
        assert!(cold >= 500e6, "never below device rate: {cold}");
    }

    #[test]
    fn a_synthetic_share_reads_as_the_dense_matrix_bit_for_bit() {
        // The reference is the matrix synthetic shuffles once kept, here
        // above 2^20 cells: deposits split evenly over a node's row, a
        // re-host adds the dead row into the replacement's, a launch folds
        // its column per rack. One share per node must read the same bits
        // through uneven deposits, a re-host and a lost server cache.
        let (workers, reducers, racks) = (1_100, 1_000, 8);
        let spec = ShuffleSpec {
            reducers: Some(reducers),
            agg: crate::rdd::ShuffleAgg::GroupByKey,
            fetch_rate: 1.0,
            out_factor: 1.0,
        };
        let mut sh = ShuffleState::new(reducers, spec, workers, false, Some(racks));
        let mut dense = vec![vec![0.0f64; reducers as usize]; workers];
        // Three deposits a node, interleaved; every seventh node gets none.
        for k in (0..3 * workers).filter(|k| k * 37 % workers % 7 != 3) {
            let (node, total) = (k * 37 % workers, (k * 7_919 % 1_013) as f64 * 1_234.567);
            sh.deposit(node, total, None);
            let per = total / reducers as f64;
            dense[node].iter_mut().for_each(|c| *c += per);
        }
        let check = |sh: &mut ShuffleState, dense: &[Vec<f64>], frac: &[f64]| {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for aggregated in [false, true] {
                sh.aggregated = aggregated;
                for r in 0..reducers {
                    sh.sources(r, racks, &mut got);
                    let r = r as usize;
                    if aggregated {
                        fold_racks(racks, frac, |i| dense[i][r], &mut want);
                    } else {
                        want = (0..workers).map(|i| (dense[i][r], frac[i])).collect();
                    }
                    // No NaN or -0.0 can arise, so `==` is bit equality.
                    assert_eq!(got, want, "reducer {r}, {aggregated}");
                }
            }
        };
        // Lustre-local: cached fractions frozen at fetch start.
        let mut frac: Vec<f64> = (0..workers).map(|i| (i % 10) as f64 / 9.0).collect();
        sh.cached_frac.clone_from(&frac);
        check(&mut sh, &dense, &frac);
        // Node 5 crashes after the rack fold was taken: its row moves to
        // node 0 and its server cache is lost.
        let row = std::mem::replace(&mut dense[5], vec![0.0; reducers as usize]);
        for (c, moved) in dense[0].iter_mut().zip(row) {
            *c += moved;
        }
        frac[5] = 0.0;
        sh.move_rows(5, 0);
        check(&mut sh, &dense, &frac);
        // Node 99's rows stay on Lustre; only its server cache is lost.
        frac[99] = 0.0;
        sh.lose_cache(99);
        check(&mut sh, &dense, &frac);
        assert_eq!(sh.deposits.heap_bytes(), workers * 8);
    }

    #[test]
    fn real_producer_finish_moves_bucket_handles() {
        // The kernel thread never touches a record: once the dispatch round
        // has flushed, a running real compute task holds its output already
        // hash-partitioned, and finishing it hands those very allocations
        // to the shuffle as segments — O(reducers) moves, no copy.
        use crate::rdd::{Dataset, Rdd, SizeModel};
        let recs: Vec<Record> = (0..256).map(|i| (Value::I64(i), Value::I64(i))).collect();
        let rdd = Rdd::source(Dataset::from_records(recs, 4))
            .map("id", SizeModel::scan(), |r| r)
            .group_by_key(Some(3), 1e9);
        let plan = crate::dag::build_plan(&rdd, Action::Count, &Default::default());
        let mut w = world();
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, plan, &mut out);
        w.dispatch(SimTime::ZERO, &mut out);
        let task = (0..w.tasks.len())
            .find(|&i| w.tasks.state[i] == TState::Running)
            .expect("dispatch launched the computes");
        let node = w.tasks.node[task] as usize;
        let Some(RealOut::Buckets(buckets)) = w.tasks.real_out.get(&(task as u32)) else {
            panic!("the flush must leave the output partitioned");
        };
        assert_eq!(buckets.len(), 3);
        let handles: Vec<(usize, *const Record)> = buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.rows.is_empty())
            .map(|(r, b)| (r, b.rows.as_ptr()))
            .collect();
        assert!(!handles.is_empty());
        w.producer_finished(task as u32, node as u32);
        assert!(!w.tasks.real_out.contains_key(&(task as u32)));
        let Deposits::Real { segments, .. } = &w.jobs[0].shuffle.writing().deposits else {
            panic!("a real job writes a real shuffle");
        };
        for (r, ptr) in handles {
            let segment = segments[node][r].last().expect("one segment per bucket");
            assert_eq!(segment.as_ptr(), ptr, "bucket {r} was copied, not moved");
        }
    }

    #[test]
    fn fetch_flow_rows_exist_only_for_destinations_that_launched_a_reducer() {
        // Aggregation off at 1,000 nodes: the table is indexed by node pairs
        // and must grow one `workers`-long row per (destination, kind) a
        // reducer actually lands on — never workers² entries up front. Nor
        // does the net's slab: three reducers reach at most three
        // destinations, so the fetch stage reserves 3 × 1,000 slots.
        use crate::rdd::{Dataset, Rdd, SizeModel};
        let workers = 1000;
        let cfg = EngineConfig::default().with_rack_agg_threshold(u32::MAX);
        let mut w = SimWorld::new(tiny(workers), cfg);
        let recs: Vec<Record> = (0..64).map(|i| (Value::I64(i), Value::I64(i))).collect();
        let rdd = Rdd::source(Dataset::from_records(recs, 4))
            .map("id", SizeModel::scan(), |r| r)
            .group_by_key(Some(3), 1e9);
        let plan = crate::dag::build_plan(&rdd, Action::Count, &Default::default());
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, plan, &mut out);
        assert_eq!(w.begin_fetch_stage(SimTime::ZERO, 0, &mut out), (3, true));
        assert_eq!(w.net.slab_capacity(), 3 * workers as usize);
        let table = |w: &SimWorld| {
            let sh = w.jobs[0].shuffle.reading.as_ref();
            let rows = &sh.expect("moved above").fetch_flows;
            let entries: Vec<FlowId> = rows.iter().flatten().copied().collect();
            let opened = entries.iter().copied().filter(|&f| f != UNOPENED).collect();
            (entries.len(), opened)
        };
        assert_eq!(table(&w), (0, Vec::new()));
        let a = w.fetch_flow(SimTime::ZERO, 0, 3, 7, 0);
        let b = w.fetch_flow(SimTime::ZERO, 0, 5, 7, 0);
        let c = w.fetch_flow(SimTime::ZERO, 0, 3, 9, 1);
        assert_eq!(
            w.fetch_flow(SimTime::ZERO, 0, 3, 7, 0),
            a,
            "persistent: opened once"
        );
        assert_eq!(table(&w), (2 * workers as usize, vec![a, b, c]));
        assert_eq!(w.net.open_flows(), 3);
        assert_eq!(w.net.slab_capacity(), 3 * workers as usize);
    }
}
