//! Block manager: memory-resident RDD partitions.
//!
//! §II-C: "Spark leverages the distributed memory from all slave nodes to
//! store most intermediate data during job execution and the final execution
//! results at job completion ... Such memory-resident feature benefits many
//! applications such as machine learning or iterative algorithms that
//! require extensive reuse of results among multiple MapReduce jobs."
//!
//! A cache point materialized by one job is consumed by later jobs: the DAG
//! builder truncates lineage at materialized caches, and the scheduler gives
//! cached partitions a placement preference for their home node.

// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::rdd::RddId;
use crate::value::Record;
use memres_des::Bytes;
use std::collections::BTreeSet;
use std::sync::Arc;

/// (bytes, records, data, home node) of one cached partition.
pub type PartitionView = (f64, u64, Option<Arc<[Record]>>, u32);

#[derive(Clone)]
pub struct CachedPart {
    pub node: u32,
    pub bytes: f64,
    pub records: u64,
    /// Shared view of the materialized partition (zero-copy: snapshots taken
    /// at cache points and reads by later jobs are all reference bumps).
    pub data: Option<Arc<[Record]>>,
}

/// One slot per partition of a cached RDD; `None` until materialized.
type Slots = Vec<Option<CachedPart>>;

#[derive(Default)]
pub struct BlockMgr {
    /// Slots per cached RDD, in declare order: `drop_node` subtracts from
    /// `node_used` in this order. A job caches a handful of RDDs, so lookup
    /// is a linear search.
    entries: Vec<(RddId, Slots)>,
    /// Bytes cached per node (framework-memory accounting), grown on first
    /// touch.
    node_used: Vec<f64>,
}

/// Add `delta` to `node`'s cached bytes, the table grown on first touch.
fn charge(node_used: &mut Vec<f64>, node: u32, delta: f64) {
    let i = node as usize;
    match node_used.get_mut(i) {
        Some(used) => *used += delta,
        None => {
            // First touch: zeros up to `node`, whose slot is a zero plus
            // `delta` (`0.0 + -0.0` is `+0.0`, so not plain `delta`).
            node_used.resize(i, 0.0);
            node_used.push(0.0 + delta);
        }
    }
}

impl BlockMgr {
    fn parts(&self, rdd: RddId) -> Option<&Slots> {
        self.entries
            .iter()
            .find(|(r, _)| *r == rdd)
            .map(|(_, parts)| parts)
    }

    /// Declare an RDD's partition count (so `materialized` can tell a
    /// fully-cached RDD from a partially-cached one).
    pub fn declare(&mut self, rdd: RddId, partitions: u32) {
        let n = partitions as usize;
        match self.entries.iter_mut().find(|(r, _)| *r == rdd) {
            Some((_, parts)) if parts.len() < n => parts.resize(n, None),
            Some(_) => {}
            None => self.entries.push((rdd, vec![None; n])),
        }
    }

    pub fn insert(
        &mut self,
        rdd: RddId,
        part: u32,
        node: u32,
        bytes: Bytes,
        records: u64,
        data: Option<Arc<[Record]>>,
    ) {
        let bytes = bytes.get();
        let parts = match self.entries.iter_mut().find(|(r, _)| *r == rdd) {
            Some((_, parts)) => parts,
            None => &mut self.entries.push_mut((rdd, Vec::new())).1,
        };
        let p = part as usize;
        let slot = match parts.get_mut(p) {
            Some(slot) => slot,
            None => {
                parts.resize(p, None);
                parts.push_mut(None)
            }
        };
        if let Some(old) = slot {
            charge(&mut self.node_used, old.node, -old.bytes);
        }
        *slot = Some(CachedPart {
            node,
            bytes,
            records,
            data,
        });
        charge(&mut self.node_used, node, bytes);
    }

    /// RDDs whose every partition is materialized (usable for lineage
    /// truncation).
    pub fn materialized(&self) -> BTreeSet<RddId> {
        self.entries
            .iter()
            .filter(|(_, parts)| !parts.is_empty() && parts.iter().all(Option::is_some))
            .map(|&(rdd, _)| rdd)
            .collect()
    }

    pub fn partition_count(&self, rdd: RddId) -> usize {
        self.parts(rdd).map_or(0, Vec::len)
    }

    /// (bytes, records, data, home node) of a cached partition: `None` when
    /// the slot was never materialized or was lost (node crash, executor
    /// memory loss) — the scheduler's cue to recompute it from lineage.
    pub fn try_partition(&self, rdd: RddId, part: u32) -> Option<PartitionView> {
        self.parts(rdd)
            .and_then(|parts| parts.get(part as usize))
            .and_then(Option::as_ref)
            .map(|p| (p.bytes, p.records, p.data.clone(), p.node))
    }

    /// Drop every cached partition living on `node` (crash / executor memory
    /// loss). Slots become `None` but each RDD's partition count is kept, so
    /// `materialized()` correctly reports the RDD as incomplete. Returns the
    /// lost `(rdd, part)` pairs, sorted for determinism.
    pub fn drop_node(&mut self, node: u32) -> Vec<(RddId, u32)> {
        let mut lost = Vec::new();
        for (rdd, parts) in &mut self.entries {
            for (i, slot) in parts.iter_mut().enumerate() {
                if let Some(p) = slot.take_if(|p| p.node == node) {
                    charge(&mut self.node_used, p.node, -p.bytes);
                    lost.push((*rdd, i as u32));
                }
            }
        }
        lost.sort_unstable();
        lost
    }

    pub fn location(&self, rdd: RddId, part: u32) -> Option<u32> {
        self.parts(rdd)
            .and_then(|parts| parts.get(part as usize))
            .and_then(Option::as_ref)
            .map(|p| p.node)
    }

    /// Whether the cached RDD holds real (materialized-records) data.
    pub fn is_real(&self, rdd: RddId) -> bool {
        self.parts(rdd)
            .is_some_and(|parts| parts.iter().flatten().all(|p| p.data.is_some()))
    }

    pub fn bytes_on(&self, node: u32) -> f64 {
        self.node_used.get(node as usize).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn insert_and_materialized() {
        let mut bm = BlockMgr::default();
        let rdd = RddId(7);
        bm.declare(rdd, 2);
        bm.insert(rdd, 0, 3, Bytes(100.0), 10, None);
        assert!(!bm.materialized().contains(&rdd), "partition 1 missing");
        assert_eq!(bm.partition_count(rdd), 2);
        bm.insert(rdd, 1, 4, Bytes(50.0), 5, None);
        assert!(bm.materialized().contains(&rdd));
        assert_eq!(bm.location(rdd, 1), Some(4));
        let (b, r, d, n) = bm.try_partition(rdd, 0).expect("materialized");
        assert_eq!((b, r, n), (100.0, 10, 3));
        assert!(d.is_none());
    }

    #[test]
    fn accounting() {
        let mut bm = BlockMgr::default();
        bm.insert(RddId(1), 0, 0, Bytes(100.0), 1, None);
        bm.insert(RddId(1), 1, 0, Bytes(50.0), 1, None);
        assert_eq!(bm.bytes_on(0), 150.0);
        // Re-insert replaces and re-accounts.
        bm.insert(RddId(1), 0, 1, Bytes(80.0), 1, None);
        assert_eq!(bm.bytes_on(0), 50.0);
        assert_eq!(bm.bytes_on(1), 80.0);
    }

    #[test]
    fn real_data_flag() {
        let mut bm = BlockMgr::default();
        let data: Arc<[Record]> = vec![(Value::I64(1), Value::I64(2))].into();
        bm.insert(RddId(2), 0, 0, Bytes(10.0), 1, Some(data));
        assert!(bm.is_real(RddId(2)));
        bm.insert(RddId(2), 1, 0, Bytes(10.0), 1, None);
        assert!(!bm.is_real(RddId(2)));
    }

    #[test]
    fn drop_node_loses_partitions_but_keeps_shape() {
        let mut bm = BlockMgr::default();
        let rdd = RddId(3);
        bm.declare(rdd, 3);
        bm.insert(rdd, 0, 0, Bytes(10.0), 1, None);
        bm.insert(rdd, 1, 1, Bytes(20.0), 2, None);
        bm.insert(rdd, 2, 1, Bytes(30.0), 3, None);
        assert!(bm.materialized().contains(&rdd));
        let lost = bm.drop_node(1);
        assert_eq!(lost, vec![(rdd, 1), (rdd, 2)]);
        assert_eq!(bm.partition_count(rdd), 3, "shape survives the loss");
        assert!(!bm.materialized().contains(&rdd));
        assert!(bm.try_partition(rdd, 1).is_none());
        assert!(bm.try_partition(rdd, 0).is_some());
        assert_eq!(bm.bytes_on(1), 0.0);
        assert_eq!(bm.bytes_on(0), 10.0);
        assert!(bm.drop_node(1).is_empty(), "second drop is a no-op");
    }
}
