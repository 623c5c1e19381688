//! # memres-cluster — cluster topology and node heterogeneity
//!
//! Describes the machine the experiments run on: nodes, cores, racks, memory
//! budgets, device characteristics, and the per-node *speed variation*
//! process the paper blames for load imbalance ("there exist performance
//! variations among compute nodes due to the skew of workloads over time",
//! §V-B). The [`hyperion`] preset mirrors the LLNL testbed of §III-A.

pub mod speed;

pub use speed::{SpeedModel, SpeedSampler};

use memres_des::units::{GB, MB};

/// Identifies a compute node. Node 0..workers are workers; the master/driver
/// is modeled outside the worker set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RackId(pub u16);

/// Static description of the cluster.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of worker nodes (the paper uses 100 of Hyperion's 101).
    pub workers: u32,
    /// Cores per node = executor task slots.
    pub cores_per_node: u32,
    /// Racks; nodes are striped across racks round-robin.
    pub racks: u16,
    /// RAMDisk capacity per node (bytes) — 32 GB on Hyperion.
    pub ramdisk_capacity: f64,
    /// SSD capacity per node (bytes) — 128 GB on Hyperion.
    pub ssd_capacity: f64,
    /// Per-node NIC bandwidth, bytes/sec each direction (IB QDR ≈ 32 Gbps).
    pub nic_bandwidth: f64,
    /// Per-rack uplink bandwidth, bytes/sec (fat enough on Hyperion that it
    /// rarely binds, but modeled so rack locality is meaningful).
    pub rack_uplink: f64,
    /// Aggregate Lustre bandwidth, bytes/sec (47 GB/s on Hyperion).
    pub lustre_bandwidth: f64,
    /// Number of Lustre object storage servers.
    pub lustre_oss_count: u32,
    /// Sustained metadata operations/sec at the Lustre MDS.
    pub mds_ops_per_sec: f64,
}

impl ClusterSpec {
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.workers).map(NodeId)
    }

    pub fn rack_of(&self, node: NodeId) -> RackId {
        RackId((node.0 % self.racks as u32) as u16)
    }

    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Total task slots in the cluster.
    pub fn total_slots(&self) -> u32 {
        self.workers * self.cores_per_node
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("cluster needs at least one worker".into());
        }
        if self.cores_per_node == 0 {
            return Err("nodes need at least one core".into());
        }
        if self.racks == 0 {
            return Err("cluster needs at least one rack".into());
        }
        if self.racks as u32 > self.workers {
            // Round-robin striping would leave 0-node racks, whose uplinks
            // carry no flows but whose indices the fabric still hands out.
            return Err(format!(
                "{} racks but only {} workers (would create empty racks)",
                self.racks, self.workers
            ));
        }
        for (name, v) in [
            ("ramdisk_capacity", self.ramdisk_capacity),
            ("ssd_capacity", self.ssd_capacity),
            ("nic_bandwidth", self.nic_bandwidth),
            ("rack_uplink", self.rack_uplink),
            ("lustre_bandwidth", self.lustre_bandwidth),
            ("mds_ops_per_sec", self.mds_ops_per_sec),
        ] {
            if v <= 0.0 || !v.is_finite() {
                return Err(format!("{name} must be positive and finite (got {v})"));
            }
        }
        if self.lustre_oss_count == 0 {
            return Err("cluster needs at least one Lustre OSS".into());
        }
        Ok(())
    }

    /// Scale the cluster down, preserving relative capacities — used by tests
    /// and quick benches so model behaviour is identical in shape.
    pub fn scaled_workers(mut self, workers: u32) -> Self {
        let ratio = workers as f64 / self.workers as f64;
        self.workers = workers;
        self.lustre_bandwidth *= ratio;
        self.mds_ops_per_sec *= ratio;
        self.lustre_oss_count = ((self.lustre_oss_count as f64 * ratio).ceil() as u32).max(1);
        self
    }
}

/// The Hyperion testbed of §III-A: 100 workers, 16 cores + 64 GB each
/// (30 GB framework / 32 GB RAMDisk), SATA SSD, IB QDR, 47 GB/s Lustre.
pub fn hyperion() -> ClusterSpec {
    ClusterSpec {
        workers: 100,
        cores_per_node: 16,
        racks: 2,
        ramdisk_capacity: 32.0 * GB,
        ssd_capacity: 128.0 * GB,
        // IB QDR: 32 Gbps link = 4 GB/s; effective payload a bit lower.
        nic_bandwidth: 3.6 * GB,
        // Fully-connected fabric across two racks: generous uplinks.
        rack_uplink: 120.0 * GB,
        lustre_bandwidth: 47.0 * GB,
        lustre_oss_count: 48,
        mds_ops_per_sec: 40_000.0,
    }
}

/// A small deterministic cluster for unit tests: few nodes, 2 cores, 2 racks.
pub fn tiny(workers: u32) -> ClusterSpec {
    ClusterSpec {
        workers,
        cores_per_node: 2,
        racks: 2,
        ramdisk_capacity: 2.0 * GB,
        ssd_capacity: 8.0 * GB,
        nic_bandwidth: 1.0 * GB,
        rack_uplink: 8.0 * GB,
        lustre_bandwidth: 2.0 * GB,
        lustre_oss_count: 4,
        mds_ops_per_sec: 5_000.0,
    }
}

/// Convenience: evenly divide `total` bytes into `parts`, with the remainder
/// spread over the first partitions (used by block/partition layouts).
pub fn split_bytes(total: u64, parts: u32) -> Vec<u64> {
    assert!(parts > 0);
    let base = total / parts as u64;
    let rem = (total % parts as u64) as u32;
    (0..parts)
        .map(|i| base + if i < rem { 1 } else { 0 })
        .collect()
}

/// Sanity constant: HDFS block size used throughout the paper.
pub const HDFS_BLOCK: f64 = 128.0 * MB;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyperion_matches_paper() {
        let c = hyperion();
        c.validate().unwrap();
        assert_eq!(c.workers, 100);
        assert_eq!(c.cores_per_node, 16);
        assert_eq!(c.total_slots(), 1600);
        assert_eq!(c.racks, 2);
        assert!((c.lustre_bandwidth / GB - 47.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_degenerate_topologies() {
        let err = |mutate: fn(&mut ClusterSpec)| -> String {
            let mut c = hyperion();
            mutate(&mut c);
            c.validate().expect_err("should be rejected")
        };
        // More racks than workers ⇒ round-robin striping leaves empty racks.
        assert!(err(|c| c.racks = 200).contains("empty racks"));
        // Zero-capacity links and stores are structured errors, not NaN rates
        // or divide-by-zero panics deep inside the simulation.
        assert!(err(|c| c.nic_bandwidth = 0.0).contains("nic_bandwidth"));
        assert!(err(|c| c.rack_uplink = -1.0).contains("rack_uplink"));
        assert!(err(|c| c.ramdisk_capacity = 0.0).contains("ramdisk_capacity"));
        assert!(err(|c| c.ssd_capacity = f64::NAN).contains("ssd_capacity"));
        assert!(err(|c| c.lustre_bandwidth = f64::INFINITY).contains("lustre_bandwidth"));
        assert!(err(|c| c.lustre_oss_count = 0).contains("OSS"));
    }

    #[test]
    fn racks_stripe_round_robin() {
        let c = hyperion();
        assert_eq!(c.rack_of(NodeId(0)), RackId(0));
        assert_eq!(c.rack_of(NodeId(1)), RackId(1));
        assert_eq!(c.rack_of(NodeId(2)), RackId(0));
        assert!(c.same_rack(NodeId(0), NodeId(4)));
        assert!(!c.same_rack(NodeId(0), NodeId(5)));
    }

    #[test]
    fn scaled_cluster_preserves_per_node_share() {
        let full = hyperion();
        let small = hyperion().scaled_workers(10);
        let per_node_full = full.lustre_bandwidth / full.workers as f64;
        let per_node_small = small.lustre_bandwidth / small.workers as f64;
        assert!((per_node_full - per_node_small).abs() / per_node_full < 1e-9);
    }

    #[test]
    fn split_bytes_conserves_total() {
        let parts = split_bytes(1001, 10);
        assert_eq!(parts.len(), 10);
        assert_eq!(parts.iter().sum::<u64>(), 1001);
        assert_eq!(parts[0], 101); // remainder goes to the head
        assert_eq!(parts[9], 100);
    }

    #[test]
    fn validate_rejects_nonsense() {
        let mut c = tiny(4);
        c.workers = 0;
        assert!(c.validate().is_err());
        let mut c = tiny(4);
        c.nic_bandwidth = 0.0;
        assert!(c.validate().is_err());
    }
}
