//! # memres-hdfs — HDFS model
//!
//! The data-centric storage of the paper's comparison (Fig 2b): a NameNode
//! mapping blocks to DataNode replica locations, with the standard placement
//! policy (writer-local, then off-rack, then on-that-rack). DataNodes sit on
//! the per-node `LocalFs` mounts (RAMDisk in the paper's data-centric
//! configuration); this crate owns only metadata — which node holds which
//! block — because that is what locality-aware scheduling consumes.
//!
//! Byte movement (short-circuit local reads, remote reads over the fabric,
//! the write pipeline) is orchestrated by the engine using the placement
//! answers returned here.

// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use memres_cluster::{split_bytes, ClusterSpec, NodeId};
use memres_des::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HdfsFile(pub u64);

/// How close a reader is to a replica — the locality levels delay scheduling
/// bargains over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Locality {
    NodeLocal,
    RackLocal,
    Remote,
}

#[derive(Clone, Debug)]
pub struct HdfsConfig {
    /// Block size (the paper sets 128 MB).
    pub block_size: f64,
    /// Replication factor. The paper's RAMDisk-backed HDFS can only afford 1
    /// for TB-scale intermediate data; inputs typically use 2–3.
    pub replication: u32,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        HdfsConfig {
            block_size: 128.0 * 1024.0 * 1024.0,
            replication: 2,
        }
    }
}

#[derive(Clone, Debug)]
struct BlockInfo {
    size: f64,
    locations: Vec<NodeId>,
}

/// NameNode state: files → blocks → replica locations. Ids are minted
/// densely and nothing is deleted, so both tables are indexed by id.
pub struct Hdfs {
    cfg: HdfsConfig,
    cluster: ClusterSpec,
    blocks: Vec<BlockInfo>,
    files: Vec<Vec<BlockId>>,
    node_used: Vec<f64>,
    node_capacity: f64,
    rng: SmallRng,
}

impl Hdfs {
    pub fn new(cfg: HdfsConfig, cluster: ClusterSpec, node_capacity: f64, seed: u64) -> Self {
        let workers = cluster.workers as usize;
        Hdfs {
            cfg,
            cluster,
            blocks: Vec::new(),
            files: Vec::new(),
            node_used: vec![0.0; workers],
            node_capacity,
            rng: SmallRng::seed_from_u64(seed ^ 0x0d15_f00d),
        }
    }

    pub fn config(&self) -> &HdfsConfig {
        &self.cfg
    }

    fn fresh_file(&mut self) -> HdfsFile {
        let f = HdfsFile(self.files.len() as u64);
        self.files.push(Vec::new());
        f
    }

    fn fresh_block(&mut self, size: f64, locations: Vec<NodeId>) -> BlockId {
        let id = BlockId(self.blocks.len() as u64);
        for &n in &locations {
            self.node_used[n.index()] += size;
        }
        self.blocks.push(BlockInfo { size, locations });
        id
    }

    fn has_room(&self, node: NodeId, bytes: f64) -> bool {
        self.node_used[node.index()] + bytes <= self.node_capacity
    }

    /// Standard HDFS placement: first replica writer-local (or random),
    /// second on a different rack, third on the second's rack; all distinct
    /// nodes with room. Returns fewer than `replication` when space is tight.
    fn place(&mut self, writer: Option<NodeId>, bytes: f64) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        let workers = self.cluster.workers;
        let pick = |hdfs: &mut Self,
                    pred: &dyn Fn(&Self, NodeId) -> bool,
                    out: &Vec<NodeId>|
         -> Option<NodeId> {
            // Bounded random probing, then linear fallback: deterministic
            // given the seeded RNG.
            for _ in 0..16 {
                let n = NodeId(hdfs.rng.gen_range(0..workers));
                if !out.contains(&n) && hdfs.has_room(n, bytes) && pred(hdfs, n) {
                    return Some(n);
                }
            }
            (0..workers)
                .map(NodeId)
                .find(|&n| !out.contains(&n) && hdfs.has_room(n, bytes) && pred(hdfs, n))
        };
        // Replica 1: writer-local when possible.
        let first = match writer {
            Some(w) if self.has_room(w, bytes) => Some(w),
            _ => pick(self, &|_, _| true, &out),
        };
        let Some(first) = first else { return out };
        out.push(first);
        if self.cfg.replication >= 2 {
            // Replica 2: different rack from the first.
            if let Some(n) = pick(self, &|h, n| !h.cluster.same_rack(n, first), &out)
                .or_else(|| pick(self, &|_, _| true, &out))
            {
                out.push(n);
            }
        }
        if self.cfg.replication >= 3 && out.len() >= 2 {
            let second = out[1];
            if let Some(n) = pick(self, &|h, n| h.cluster.same_rack(n, second), &out)
                .or_else(|| pick(self, &|_, _| true, &out))
            {
                out.push(n);
            }
        }
        for _ in 3..self.cfg.replication {
            if let Some(n) = pick(self, &|_, _| true, &out) {
                out.push(n);
            }
        }
        out
    }

    /// Write a file of `total_bytes` from `writer` (None = loaded from
    /// outside). Returns the file and its block layout so the engine can
    /// charge the DataNode writes and pipeline transfers.
    pub fn create_file(
        &mut self,
        writer: Option<NodeId>,
        total_bytes: f64,
    ) -> (HdfsFile, Vec<(BlockId, f64, Vec<NodeId>)>) {
        let file = self.fresh_file();
        let nblocks = ((total_bytes / self.cfg.block_size).ceil() as u32).max(1);
        let sizes = split_bytes(total_bytes.round() as u64, nblocks);
        let mut layout = Vec::with_capacity(nblocks as usize);
        for sz in sizes {
            let bytes = sz as f64;
            let locs = self.place(writer, bytes);
            assert!(!locs.is_empty(), "HDFS cluster out of space");
            let b = self.fresh_block(bytes, locs.clone());
            self.files[file.0 as usize].push(b);
            layout.push((b, bytes, locs));
        }
        (file, layout)
    }

    /// Register a block of `file` (from [`Hdfs::new_file`]) at explicit
    /// locations (input layout control for the experiment harness). Returns
    /// its id.
    pub fn place_block_at(
        &mut self,
        file: HdfsFile,
        bytes: Bytes,
        locations: Vec<NodeId>,
    ) -> BlockId {
        let bytes = bytes.get();
        assert!(!locations.is_empty());
        for &n in &locations {
            assert!(n.0 < self.cluster.workers, "unknown node {n:?}");
        }
        let b = self.fresh_block(bytes, locations);
        self.files[file.0 as usize].push(b);
        b
    }

    /// Create an empty file handle for explicit block placement.
    pub fn new_file(&mut self) -> HdfsFile {
        self.fresh_file()
    }

    pub fn file_blocks(&self, file: HdfsFile) -> &[BlockId] {
        self.files.get(file.0 as usize).map_or(&[], Vec::as_slice)
    }

    pub fn locations(&self, block: BlockId) -> &[NodeId] {
        &self.blocks[block.0 as usize].locations
    }

    pub fn file_size(&self, file: HdfsFile) -> f64 {
        self.file_blocks(file)
            .iter()
            .map(|b| self.blocks[b.0 as usize].size)
            .sum()
    }

    /// Locality of `reader` with respect to `block`'s replicas.
    pub fn locality(&self, reader: NodeId, block: BlockId) -> Locality {
        let locs = self.locations(block);
        if locs.contains(&reader) {
            Locality::NodeLocal
        } else if locs.iter().any(|&n| self.cluster.same_rack(n, reader)) {
            Locality::RackLocal
        } else {
            Locality::Remote
        }
    }

    /// Best replica for `reader`: node-local if any, else rack-local, else
    /// the first replica.
    pub fn preferred_source(&self, reader: NodeId, block: BlockId) -> (NodeId, Locality) {
        let locs = self.locations(block);
        if locs.contains(&reader) {
            return (reader, Locality::NodeLocal);
        }
        if let Some(&n) = locs.iter().find(|&&n| self.cluster.same_rack(n, reader)) {
            return (n, Locality::RackLocal);
        }
        (locs[0], Locality::Remote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memres_cluster::tiny;

    fn hdfs(replication: u32) -> Hdfs {
        let cluster = tiny(8);
        Hdfs::new(
            HdfsConfig {
                block_size: 100.0,
                replication,
            },
            cluster,
            10_000.0,
            42,
        )
    }

    #[test]
    fn create_file_splits_into_blocks() {
        let mut h = hdfs(1);
        let (f, layout) = h.create_file(None, 350.0);
        assert_eq!(layout.len(), 4);
        assert_eq!(h.file_blocks(f).len(), 4);
        assert!((h.file_size(f) - 350.0).abs() < 1e-9);
    }

    #[test]
    fn first_replica_is_writer_local() {
        let mut h = hdfs(2);
        let (_, layout) = h.create_file(Some(NodeId(3)), 100.0);
        assert_eq!(layout[0].2[0], NodeId(3));
    }

    #[test]
    fn second_replica_prefers_other_rack() {
        let mut h = hdfs(2);
        let (_, layout) = h.create_file(Some(NodeId(0)), 100.0);
        let locs = &layout[0].2;
        assert_eq!(locs.len(), 2);
        // tiny() has 2 racks striped by parity; node 0 is rack 0.
        assert_eq!(locs[1].0 % 2, 1, "second replica should land on rack 1");
    }

    #[test]
    fn three_replicas_are_distinct() {
        let mut h = hdfs(3);
        let (_, layout) = h.create_file(Some(NodeId(1)), 100.0);
        let locs = &layout[0].2;
        assert_eq!(locs.len(), 3);
        let mut dedup = locs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn locality_classification() {
        let mut h = hdfs(1);
        let (f, _) = h.create_file(Some(NodeId(2)), 100.0);
        let b = h.file_blocks(f)[0];
        assert_eq!(h.locality(NodeId(2), b), Locality::NodeLocal);
        assert_eq!(h.locality(NodeId(4), b), Locality::RackLocal); // same parity rack
        assert_eq!(h.locality(NodeId(3), b), Locality::Remote);
        assert_eq!(
            h.preferred_source(NodeId(2), b),
            (NodeId(2), Locality::NodeLocal)
        );
        let (src, loc) = h.preferred_source(NodeId(4), b);
        assert_eq!(src, NodeId(2));
        assert_eq!(loc, Locality::RackLocal);
    }

    #[test]
    fn capacity_limits_placement() {
        let cluster = tiny(2);
        let mut h = Hdfs::new(
            HdfsConfig {
                block_size: 100.0,
                replication: 1,
            },
            cluster,
            150.0,
            1,
        );
        // 2 nodes * 150 capacity: a third 100-byte block must still place
        // (50 left on each is too small), so expect panic on the 4th.
        h.create_file(None, 100.0);
        h.create_file(None, 100.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.create_file(None, 100.0);
        }));
        assert!(
            result.is_err(),
            "placement should fail when all nodes are full"
        );
    }

    #[test]
    fn replication_deduped_on_tiny_clusters() {
        let cluster = tiny(2);
        let mut h = Hdfs::new(
            HdfsConfig {
                block_size: 100.0,
                replication: 3,
            },
            cluster,
            1e6,
            5,
        );
        let (_, layout) = h.create_file(Some(NodeId(0)), 100.0);
        // Only 2 nodes exist; replicas must be distinct nodes.
        assert!(layout[0].2.len() <= 2);
    }
}
