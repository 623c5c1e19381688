//! # memres-lustre — Lustre parallel-filesystem model
//!
//! Lustre is the compute-centric storage backend of the paper's Hyperion
//! testbed: a POSIX-compliant object-based parallel filesystem with one
//! MetaData Server (MDS), many Object Storage Servers (OSSes) behind an
//! aggregate 47 GB/s pipe, and a **Distributed Lock Manager** that serializes
//! conflicting accesses. §IV-B shows that the DLM is what makes the
//! `Lustre-shared` shuffle strategy collapse: a fetching task reading a file
//! written by a *remote* node forces the DLM to revoke the writer's locks,
//! flush its cached dirty pages to the OSSes, and only then serve the read —
//! "this sequence of internal operations substantially delays the
//! intermediate data movement", and simultaneous fetch tasks cascade into
//! contention.
//!
//! Division of labour: this crate owns all Lustre *state* — file metadata,
//! stripe layout, per-client write-back caches, dirty page accounting, lock
//! holders, and the MDS op server. Actual byte movement happens on the
//! network fabric (`memres-net`), so state-changing calls return *plans*
//! ([`WritePlan`], [`ReadPlan`]) telling the engine which transfers and
//! metadata operations to issue.

// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use memres_cluster::NodeId;
use memres_des::ps::PsResource;
use memres_des::sim::Gen;
use memres_des::time::{SimDuration, SimTime};
use memres_des::Bytes;
use std::collections::BTreeMap;

/// A file stored in Lustre.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LustreFile(pub u64);

#[derive(Clone, Debug)]
pub struct LustreConfig {
    /// Sustained metadata operations/sec at the MDS.
    pub mds_ops_per_sec: f64,
    /// Number of OSSes (determines stripe spread; bandwidth is the fabric's).
    pub oss_count: u32,
    /// Stripe size in bytes (default Lustre: 1 MB; large-file shuffle
    /// workloads typically use wider stripes).
    pub stripe_size: f64,
    /// Per-client write-back cache ("dirty pages grant") capacity in bytes.
    pub client_cache_bytes: f64,
    /// Fixed latency of one lock-revocation round trip (client callback +
    /// lock release), excluding the flush data movement.
    pub revoke_latency: SimDuration,
    /// Metadata ops charged for an open/create.
    pub ops_open: f64,
    /// Metadata ops charged per lock acquisition.
    pub ops_lock: f64,
    /// Metadata ops charged per revocation (callback bookkeeping, release,
    /// re-grant).
    pub ops_revoke: f64,
    /// Efficiency of concurrent bulk writes relative to the aggregate read
    /// bandwidth (stripe lock overhead and OSS contention under thousands of
    /// simultaneous writers).
    pub write_efficiency: f64,
    /// Byte-equivalent fixed cost of one client read (RPC round trips,
    /// stripe alignment, readahead misses). This is what makes small input
    /// splits disproportionately expensive on Lustre (paper Fig 5a: going
    /// from 32 MB to 128 MB splits wins 15.9%).
    pub read_overhead_bytes: f64,
}

impl LustreConfig {
    pub fn hyperion() -> Self {
        const MB: f64 = 1024.0 * 1024.0;
        const GB: f64 = 1024.0 * MB;
        LustreConfig {
            mds_ops_per_sec: 40_000.0,
            oss_count: 48,
            stripe_size: 4.0 * MB,
            // Lustre bounds dirty pages per client (max_dirty_mb per OSC);
            // with 48 OSSes this amounts to low single-digit GB per node.
            client_cache_bytes: 1.5 * GB,
            revoke_latency: SimDuration::from_millis(15),
            ops_open: 2.0,
            ops_lock: 1.0,
            ops_revoke: 6.0,
            write_efficiency: 0.65,
            read_overhead_bytes: 6.0 * MB,
        }
    }

    pub fn test_small() -> Self {
        LustreConfig {
            mds_ops_per_sec: 100.0,
            oss_count: 4,
            stripe_size: 64.0,
            client_cache_bytes: 1000.0,
            revoke_latency: SimDuration::from_millis(10),
            ops_open: 2.0,
            ops_lock: 1.0,
            ops_revoke: 6.0,
            write_efficiency: 1.0,
            read_overhead_bytes: 0.0,
        }
    }
}

/// Per-file state. The shuffle workloads write each bucket file from exactly
/// one client, which is the case the DLM model supports; multi-writer files
/// are rejected (the engine never produces them).
#[derive(Debug)]
struct LFile {
    size: f64,
    /// The client that wrote the file, if any (external input files: none).
    writer: Option<NodeId>,
    /// Bytes of the file still resident in the writer's page cache.
    cached: f64,
    /// Cached bytes that are dirty (not yet on the OSSes). `dirty <= cached`.
    dirty: f64,
}

/// What the engine must do to complete a client write.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WritePlan {
    /// Bytes absorbed by the client write-back cache (memory speed).
    pub cached_bytes: f64,
    /// Bytes that must be transferred to the OSSes now (cache overflow).
    pub oss_bytes: f64,
    /// Metadata operations to charge at the MDS.
    pub mds_ops: f64,
}

/// What the engine must do to complete a read.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadPlan {
    /// Bytes served from the reading client's own cache (memory speed).
    pub cache_hit_bytes: f64,
    /// Bytes to read from the OSSes over the Lustre pipe.
    pub oss_bytes: f64,
    /// Metadata operations to charge at the MDS.
    pub mds_ops: f64,
    /// Lock revocation required first: (writer node, dirty bytes to flush
    /// writer→OSS). Empty when no conflicting cached state exists.
    pub revocations: Vec<(NodeId, f64)>,
    /// Fixed revocation round-trip latency to add (once, revocations happen
    /// in parallel but share the round trip).
    pub revoke_latency: SimDuration,
}

/// The Lustre installation: metadata server + file/lock/cache state.
pub struct Lustre {
    cfg: LustreConfig,
    mds: PsResource<u64>,
    /// `client_dirty` and `audit_unlocked` read it in file-id order,
    /// independent of deletion history.
    files: BTreeMap<LustreFile, LFile>,
    /// Dirty + clean cached bytes per client (for the grant limit), indexed
    /// by node and grown on first touch.
    client_cache_used: Vec<f64>,
    /// Bumped only where the MDS's next completion can move (`submit_mds`,
    /// a `poll` that delivers) and by `delete`.
    gen: Gen,
    /// Optional trace sink: DLM lock grants, revocations and releases are
    /// reported to it (DESIGN.md §4.11). `None` costs nothing.
    tracer: Option<memres_trace::SharedSink>,
}

impl Lustre {
    pub fn new(cfg: LustreConfig) -> Self {
        let mds = PsResource::new(cfg.mds_ops_per_sec);
        Lustre {
            cfg,
            mds,
            files: BTreeMap::new(),
            client_cache_used: Vec::new(),
            gen: Gen::default(),
            tracer: None,
        }
    }

    /// Attach a trace sink; DLM lock transitions are reported to it.
    pub fn set_tracer(&mut self, sink: memres_trace::SharedSink) {
        self.tracer = Some(sink);
    }

    #[inline]
    fn trace(&self, at: SimTime, ev: memres_trace::TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().emit(at, ev);
        }
    }

    pub fn config(&self) -> &LustreConfig {
        &self.cfg
    }

    /// Register a pre-existing input file (e.g. the benchmark dataset laid
    /// out on Lustre before the job): no client has it cached.
    pub fn create_external(&mut self, file: LustreFile, size: f64) {
        assert!(size >= 0.0);
        let prev = self.files.insert(
            file,
            LFile {
                size,
                writer: None,
                cached: 0.0,
                dirty: 0.0,
            },
        );
        assert!(prev.is_none(), "file {file:?} already exists");
    }

    pub fn file_size(&self, file: LustreFile) -> Option<f64> {
        self.files.get(&file).map(|f| f.size)
    }

    /// Stripe a file of `size` bytes over OSSes: how many stripes/OSS objects
    /// it touches (drives metadata op counts for very wide files).
    pub fn stripe_count(&self, size: f64) -> u32 {
        ((size / self.cfg.stripe_size).ceil() as u32).clamp(1, self.cfg.oss_count)
    }

    fn cache_used(&self, client: NodeId) -> f64 {
        self.client_cache_used
            .get(client.index())
            .copied()
            .unwrap_or(0.0)
    }

    fn cache_used_mut(&mut self, client: NodeId) -> &mut f64 {
        let i = client.index();
        if self.client_cache_used.len() <= i {
            self.client_cache_used.resize(i + 1, 0.0);
        }
        &mut self.client_cache_used[i]
    }

    /// Return `bytes` of `client`'s grant.
    fn release(&mut self, client: NodeId, bytes: f64) {
        let used = self.cache_used_mut(client);
        *used = (*used - bytes).max(0.0);
    }

    /// Client `writer` writes a new file of `bytes`. Returns the movement
    /// plan; cache/dirty accounting is applied immediately.
    ///
    /// Matching observed Lustre behaviour, as much of the write as fits the
    /// client's dirty-pages grant stays cached (and dirty) locally; the rest
    /// streams through to the OSSes.
    pub fn write(
        &mut self,
        now: SimTime,
        writer: NodeId,
        file: LustreFile,
        bytes: Bytes,
    ) -> WritePlan {
        let bytes = bytes.get();
        assert!(bytes >= 0.0);
        assert!(
            !self.files.contains_key(&file),
            "rewrite of {file:?}: shuffle buckets are write-once"
        );
        let free = (self.cfg.client_cache_bytes - self.cache_used(writer)).max(0.0);
        let cached = bytes.min(free);
        let oss = bytes - cached;
        *self.cache_used_mut(writer) += cached;
        self.files.insert(
            file,
            LFile {
                size: bytes,
                writer: Some(writer),
                cached,
                dirty: cached,
            },
        );
        self.trace(
            now,
            memres_trace::TraceEvent::LockAcquire {
                file: file.0,
                client: writer.0,
            },
        );
        WritePlan {
            cached_bytes: cached,
            oss_bytes: oss,
            mds_ops: self.cfg.ops_open + self.cfg.ops_lock * self.stripe_count(bytes) as f64,
        }
    }

    /// Append `bytes` to an existing file previously written by the same
    /// client (shuffle stores aggregate all ShuffleMapTask output of a node
    /// into one per-node file). Creates the file when absent.
    pub fn append(
        &mut self,
        now: SimTime,
        writer: NodeId,
        file: LustreFile,
        bytes: Bytes,
    ) -> WritePlan {
        let bytes = bytes.get();
        assert!(bytes >= 0.0);
        let free = (self.cfg.client_cache_bytes - self.cache_used(writer)).max(0.0);
        let Some(f) = self.files.get_mut(&file) else {
            return self.write(now, writer, file, Bytes(bytes));
        };
        assert_eq!(f.writer, Some(writer), "append by non-writer of {file:?}");
        let cached = bytes.min(free);
        let oss = bytes - cached;
        f.size += bytes;
        f.cached += cached;
        f.dirty += cached;
        *self.cache_used_mut(writer) += cached;
        self.trace(
            now,
            memres_trace::TraceEvent::LockAcquire {
                file: file.0,
                client: writer.0,
            },
        );
        WritePlan {
            cached_bytes: cached,
            oss_bytes: oss,
            // Appends reuse the open file: lock extension only.
            mds_ops: self.cfg.ops_lock,
        }
    }

    /// Fraction of `file` resident in its writer's cache (0 for external
    /// or revoked files) — feeds the Lustre-local serving-rate model.
    pub fn cached_fraction(&self, file: LustreFile) -> f64 {
        self.files
            .get(&file)
            .map(|f| if f.size > 0.0 { f.cached / f.size } else { 0.0 })
            .unwrap_or(0.0)
    }

    /// Client `reader` reads `bytes` of `file`.
    ///
    /// * Reader == writer (the `Lustre-local` fast path): cached bytes are a
    ///   memory-speed hit; no lock conflict, minimal metadata traffic.
    /// * Reader != writer (`Lustre-shared`): the DLM must revoke the writer's
    ///   write locks; all dirty bytes are flushed to the OSSes before the
    ///   read can be served, and the writer's cached copy is invalidated.
    pub fn read(
        &mut self,
        now: SimTime,
        reader: NodeId,
        file: LustreFile,
        bytes: Bytes,
    ) -> ReadPlan {
        let bytes = bytes.get();
        let ops_lock = self.cfg.ops_lock;
        let ops_revoke = self.cfg.ops_revoke;
        let revoke_latency = self.cfg.revoke_latency;
        // Readers pass files the engine previously created via
        // write(); a miss means the map-output registry is corrupt.
        #[expect(
            clippy::panic,
            reason = "files are registered by write() before any read"
        )]
        let f = self
            .files
            .get_mut(&file)
            .unwrap_or_else(|| panic!("read of unknown {file:?}"));
        assert!(
            bytes <= f.size * (1.0 + 1e-9) + 1.0,
            "read past EOF: {bytes} of {}",
            f.size
        );
        let plan = match f.writer {
            Some(w) if w == reader => {
                // Local path: hit the writer's own cache.
                let hit = f.cached.min(bytes);
                ReadPlan {
                    cache_hit_bytes: hit,
                    oss_bytes: bytes - hit,
                    mds_ops: ops_lock,
                    revocations: Vec::new(),
                    revoke_latency: SimDuration::ZERO,
                }
            }
            Some(w) => {
                // Conflicting access: revoke + flush + read from OSS.
                let flush = f.dirty;
                let revocations = if flush > 0.0 || f.cached > 0.0 {
                    vec![(w, flush)]
                } else {
                    Vec::new()
                };
                let had_conflict = !revocations.is_empty();
                // Invalidate the writer's cache.
                let released = f.cached;
                f.cached = 0.0;
                f.dirty = 0.0;
                if released > 0.0 {
                    self.release(w, released);
                }
                ReadPlan {
                    cache_hit_bytes: 0.0,
                    oss_bytes: bytes,
                    mds_ops: ops_lock + if had_conflict { ops_revoke } else { 0.0 },
                    revocations,
                    revoke_latency: if had_conflict {
                        revoke_latency
                    } else {
                        SimDuration::ZERO
                    },
                }
            }
            None => ReadPlan {
                cache_hit_bytes: 0.0,
                oss_bytes: bytes,
                mds_ops: ops_lock,
                revocations: Vec::new(),
                revoke_latency: SimDuration::ZERO,
            },
        };
        for &(_, flush) in &plan.revocations {
            self.trace(
                now,
                memres_trace::TraceEvent::LockRevoke {
                    file: file.0,
                    dirty_bytes: Bytes(flush),
                },
            );
        }
        self.trace(
            now,
            memres_trace::TraceEvent::LockAcquire {
                file: file.0,
                client: reader.0,
            },
        );
        plan
    }

    /// Explicitly revoke the writer's locks on `file` (the engine uses this
    /// when simultaneous fetch tasks force a mass flush): invalidates the
    /// writer's cached copy and returns the dirty bytes the caller must move
    /// writer→OSS. Idempotent.
    pub fn revoke(&mut self, now: SimTime, file: LustreFile) -> f64 {
        let Some(f) = self.files.get_mut(&file) else {
            return 0.0;
        };
        let dirty = f.dirty;
        let released = f.cached;
        f.dirty = 0.0;
        f.cached = 0.0;
        let writer = f.writer;
        if released > 0.0 {
            if let Some(w) = writer {
                self.release(w, released);
            }
        }
        if released > 0.0 || dirty > 0.0 {
            self.trace(
                now,
                memres_trace::TraceEvent::LockRevoke {
                    file: file.0,
                    dirty_bytes: Bytes(dirty),
                },
            );
            self.trace(now, memres_trace::TraceEvent::LockRelease { file: file.0 });
        }
        dirty
    }

    /// Drop a file (job cleanup), releasing any cache it pinned.
    pub fn delete(&mut self, file: LustreFile) {
        if let Some(f) = self.files.remove(&file) {
            if let (Some(w), true) = (f.writer, f.cached > 0.0) {
                self.release(w, f.cached);
            }
            self.gen.bump();
        }
    }

    // --- MDS op server (polled like every other component) ---

    /// Charge `ops` metadata operations; `tag` returns via [`Lustre::poll`]
    /// when the MDS has processed them (PS-shared with all concurrent ops —
    /// this is where the Lustre-shared cascade serializes).
    pub fn submit_mds(&mut self, now: SimTime, ops: f64, tag: u64) {
        self.mds.add(now, ops, tag);
        self.gen.bump();
    }

    pub fn poll(&mut self, now: SimTime) -> Vec<u64> {
        let done = self.mds.poll(now);
        if !done.is_empty() {
            self.gen.bump();
        }
        done
    }

    pub fn next_event(&self) -> Option<SimTime> {
        self.mds.next_completion()
    }

    pub fn gen(&self) -> Gen {
        self.gen
    }

    /// Quiescence audit (DESIGN.md §4.13): with no job resident, every file a
    /// client wrote — and so holds a DLM lock on — has been deleted with its
    /// job, whatever requests an abandoned attempt left in flight.
    pub fn audit_unlocked(&self) -> Result<(), String> {
        match self.files.iter().find(|(_, f)| f.writer.is_some()) {
            Some((file, f)) => Err(format!("{file:?} is still locked by {:?}", f.writer)),
            None => Ok(()),
        }
    }

    /// Quiescence audit: the MDS holds no request and no undelivered
    /// completion.
    pub fn audit_idle(&self) -> Result<(), String> {
        if self.mds.load() != 0 || self.mds.next_completion().is_some() {
            return Err(format!("the MDS holds {} requests", self.mds.load()));
        }
        Ok(())
    }

    /// Passes over the MDS request list so far ([`PsResource::sweeps`]).
    pub fn mds_sweeps(&self) -> u64 {
        self.mds.sweeps
    }

    /// Outstanding metadata operations (contention diagnostic).
    pub fn mds_backlog(&self) -> f64 {
        self.mds.backlog()
    }

    /// Dirty bytes a client currently has pinned (diagnostic/test hook).
    pub fn client_dirty(&self, client: NodeId) -> f64 {
        self.files
            .values()
            .filter(|f| f.writer == Some(client))
            .map(|f| f.dirty)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lustre() -> Lustre {
        Lustre::new(LustreConfig::test_small())
    }

    #[test]
    fn write_fitting_cache_stays_dirty_locally() {
        let mut l = lustre();
        let plan = l.write(SimTime::ZERO, NodeId(0), LustreFile(1), Bytes(500.0));
        assert_eq!(plan.cached_bytes, 500.0);
        assert_eq!(plan.oss_bytes, 0.0);
        assert!(plan.mds_ops >= 2.0);
        assert_eq!(l.client_dirty(NodeId(0)), 500.0);
    }

    #[test]
    fn write_overflowing_cache_streams_to_oss() {
        let mut l = lustre();
        l.write(SimTime::ZERO, NodeId(0), LustreFile(1), Bytes(800.0));
        let plan = l.write(SimTime::ZERO, NodeId(0), LustreFile(2), Bytes(500.0));
        // 1000-byte grant: only 200 left.
        assert_eq!(plan.cached_bytes, 200.0);
        assert_eq!(plan.oss_bytes, 300.0);
    }

    #[test]
    fn local_read_hits_writer_cache() {
        let mut l = lustre();
        l.write(SimTime::ZERO, NodeId(3), LustreFile(1), Bytes(400.0));
        let plan = l.read(SimTime::ZERO, NodeId(3), LustreFile(1), Bytes(400.0));
        assert_eq!(plan.cache_hit_bytes, 400.0);
        assert_eq!(plan.oss_bytes, 0.0);
        assert!(plan.revocations.is_empty());
    }

    #[test]
    fn shared_read_forces_revocation_and_flush() {
        let mut l = lustre();
        l.write(SimTime::ZERO, NodeId(0), LustreFile(1), Bytes(400.0));
        let plan = l.read(SimTime::ZERO, NodeId(7), LustreFile(1), Bytes(400.0));
        assert_eq!(plan.cache_hit_bytes, 0.0);
        assert_eq!(plan.oss_bytes, 400.0);
        assert_eq!(plan.revocations, vec![(NodeId(0), 400.0)]);
        assert!(plan.revoke_latency > SimDuration::ZERO);
        // Writer cache invalidated: a second shared read needs no revocation.
        let plan2 = l.read(SimTime::ZERO, NodeId(8), LustreFile(1), Bytes(400.0));
        assert!(plan2.revocations.is_empty());
        assert_eq!(plan2.oss_bytes, 400.0);
        assert_eq!(l.client_dirty(NodeId(0)), 0.0);
    }

    #[test]
    fn revocation_releases_cache_grant() {
        let mut l = lustre();
        l.write(SimTime::ZERO, NodeId(0), LustreFile(1), Bytes(1000.0)); // grant exhausted
        l.read(SimTime::ZERO, NodeId(5), LustreFile(1), Bytes(1000.0)); // revoke
                                                                        // Grant is free again: a new write caches fully.
        let plan = l.write(SimTime::ZERO, NodeId(0), LustreFile(2), Bytes(900.0));
        assert_eq!(plan.cached_bytes, 900.0);
    }

    #[test]
    fn external_files_read_from_oss_without_locks() {
        let mut l = lustre();
        l.create_external(LustreFile(9), 1234.0);
        assert_eq!(l.file_size(LustreFile(9)), Some(1234.0));
        let plan = l.read(SimTime::ZERO, NodeId(2), LustreFile(9), Bytes(1000.0));
        assert_eq!(plan.oss_bytes, 1000.0);
        assert!(plan.revocations.is_empty());
        assert_eq!(plan.revoke_latency, SimDuration::ZERO);
    }

    #[test]
    fn mds_serializes_concurrent_ops() {
        let mut l = lustre();
        // 100 ops/s capacity; 10 requests of 10 ops each -> all done at t=1.
        for i in 0..10 {
            l.submit_mds(SimTime::ZERO, 10.0, i);
        }
        let t = l.next_event().unwrap();
        let done = l.poll(t);
        assert_eq!(done.len(), 10);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn delete_releases_cache() {
        let mut l = lustre();
        l.write(SimTime::ZERO, NodeId(0), LustreFile(1), Bytes(600.0));
        l.delete(LustreFile(1));
        let plan = l.write(SimTime::ZERO, NodeId(0), LustreFile(2), Bytes(1000.0));
        assert_eq!(plan.cached_bytes, 1000.0);
        assert_eq!(l.file_size(LustreFile(1)), None);
    }

    #[test]
    fn files_are_read_in_id_order_whatever_was_deleted() {
        let mut l = Lustre::new(LustreConfig {
            client_cache_bytes: 1e300,
            ..LustreConfig::test_small()
        });
        let write = |l: &mut Lustre, id, bytes| {
            l.write(SimTime::ZERO, NodeId(0), LustreFile(id), Bytes(bytes));
        };
        for (id, bytes) in [(1, 5.0), (2, 1.0), (3, 1.0), (4, 1e16)] {
            write(&mut l, id, bytes);
        }
        // Deleting file 1 must not move file 4 ahead of files 2 and 3: the
        // ulp at 1e16 is 2, so the small addends survive only when summed
        // first.
        l.delete(LustreFile(1));
        write(&mut l, 5, 1.0);
        let id_order = [1.0, 1.0, 1e16, 1.0].into_iter().sum::<f64>();
        assert_eq!(id_order, 1e16 + 4.0);
        assert_eq!(l.client_dirty(NodeId(0)).to_bits(), id_order.to_bits());
        let err = l.audit_unlocked().expect_err("files 2–5 are locked");
        assert!(err.starts_with("LustreFile(2) "), "{err}");
    }

    #[test]
    fn stripe_count_scales_with_size() {
        let l = lustre();
        assert_eq!(l.stripe_count(10.0), 1);
        assert_eq!(l.stripe_count(128.0), 2);
        // Clamped at OSS count.
        assert_eq!(l.stripe_count(1e9), 4);
    }

    #[test]
    #[should_panic(expected = "write-once")]
    fn rewrite_rejected() {
        let mut l = lustre();
        l.write(SimTime::ZERO, NodeId(0), LustreFile(1), Bytes(10.0));
        l.write(SimTime::ZERO, NodeId(0), LustreFile(1), Bytes(10.0));
    }
}
