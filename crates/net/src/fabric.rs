//! Cluster fabric: maps (endpoint, endpoint) pairs onto link paths.
//!
//! Compute-centric HPC layout (paper Fig 2a): every node has a full-duplex
//! NIC; racks have uplinks into a core; the Lustre storage backend hangs off
//! the core behind its aggregate-bandwidth pipe. Data-centric traffic
//! (shuffle, remote HDFS reads) flows node↔node; Lustre traffic flows
//! node↔backend.

use crate::flow::{FlowNet, LinkId};
use memres_cluster::{ClusterSpec, NodeId};
use memres_des::Bytes;

/// A communication endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    Node(NodeId),
    /// The Lustre backend (OSS pool behind its aggregate pipe).
    Lustre,
}

/// Link layout for a cluster; build once, then ask for paths.
pub struct Fabric {
    egress: Vec<LinkId>,
    ingress: Vec<LinkId>,
    rack_up: Vec<LinkId>,
    rack_down: Vec<LinkId>,
    core: LinkId,
    lustre_pipe: LinkId,
    racks: u16,
    workers: u32,
}

impl Fabric {
    pub fn build<T>(net: &mut FlowNet<T>, spec: &ClusterSpec) -> Fabric {
        let egress = (0..spec.workers)
            .map(|_| net.add_link(spec.nic_bandwidth))
            .collect();
        let ingress = (0..spec.workers)
            .map(|_| net.add_link(spec.nic_bandwidth))
            .collect();
        let rack_up = (0..spec.racks)
            .map(|_| net.add_link(spec.rack_uplink))
            .collect();
        let rack_down = (0..spec.racks)
            .map(|_| net.add_link(spec.rack_uplink))
            .collect();
        // Core fabric: non-blocking relative to rack uplinks.
        let core = net.add_link(spec.rack_uplink * spec.racks as f64);
        let lustre_pipe = net.add_link(spec.lustre_bandwidth);
        Fabric {
            egress,
            ingress,
            rack_up,
            rack_down,
            core,
            lustre_pipe,
            racks: spec.racks,
            workers: spec.workers,
        }
    }

    fn rack_of(&self, n: NodeId) -> usize {
        (n.0 % self.racks as u32) as usize
    }

    pub fn racks(&self) -> u16 {
        self.racks
    }

    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// Rack index of a node (round-robin striping, same as `ClusterSpec`).
    pub fn rack_index(&self, n: NodeId) -> usize {
        self.rack_of(n)
    }

    /// Links shared by *all* traffic from rack `src` into rack `dst`: the
    /// path of a rack-level aggregate flow. Per-node NICs are deliberately
    /// absent — above the aggregation threshold the collapsed transfer is
    /// modeled as bottlenecked by the rack fabric, not by any single
    /// endpoint (DESIGN.md, rack aggregation). Intra-rack aggregates share
    /// the rack's switch capacity (modeled as its downlink).
    pub fn rack_aggregate_path(&self, src: usize, dst: usize) -> Vec<LinkId> {
        assert!(src < self.racks as usize && dst < self.racks as usize);
        if src == dst {
            vec![self.rack_down[dst]]
        } else {
            vec![self.rack_up[src], self.rack_down[dst], self.core]
        }
    }

    pub fn lustre_pipe(&self) -> LinkId {
        self.lustre_pipe
    }

    /// Rack `r`'s uplink into the core (metrics sampling).
    pub fn rack_uplink(&self, r: usize) -> LinkId {
        self.rack_up[r]
    }

    /// Rack `r`'s downlink from the core (metrics sampling).
    pub fn rack_downlink(&self, r: usize) -> LinkId {
        self.rack_down[r]
    }

    /// The core fabric link (metrics sampling).
    pub fn core_link(&self) -> LinkId {
        self.core
    }

    /// Links traversed by a transfer from `src` to `dst`.
    ///
    /// * node → node, same rack: src egress + dst ingress
    /// * node → node, cross rack: + rack uplink/downlink + core
    /// * node ↔ Lustre: node NIC + core + the Lustre aggregate pipe
    /// * Lustre ↔ Lustre: degenerate (just the pipe)
    pub fn path(&self, src: Endpoint, dst: Endpoint) -> Vec<LinkId> {
        match (src, dst) {
            (Endpoint::Node(a), Endpoint::Node(b)) => {
                assert!(a.0 < self.workers && b.0 < self.workers);
                if a == b {
                    // Loopback: modeled as free (no links) — caller should
                    // usually special-case local transfers instead.
                    return Vec::new();
                }
                let mut p = vec![self.egress[a.index()], self.ingress[b.index()]];
                let (ra, rb) = (self.rack_of(a), self.rack_of(b));
                if ra != rb {
                    p.push(self.rack_up[ra]);
                    p.push(self.rack_down[rb]);
                    p.push(self.core);
                }
                p
            }
            (Endpoint::Node(a), Endpoint::Lustre) => {
                vec![self.egress[a.index()], self.core, self.lustre_pipe]
            }
            (Endpoint::Lustre, Endpoint::Node(b)) => {
                vec![self.lustre_pipe, self.core, self.ingress[b.index()]]
            }
            (Endpoint::Lustre, Endpoint::Lustre) => vec![self.lustre_pipe],
        }
    }
}

/// Per-request overhead model (paper §VI-A, network-bottleneck setup):
/// shrinking `FetchRequest` from 1 GB to 128 KB multiplies request count and
/// "the network bandwidth is consequently narrowed". We model a fixed
/// per-request byte-equivalent cost; a transfer of `bytes` split into
/// `ceil(bytes/request_size)` requests is inflated accordingly.
pub fn inflate_for_requests(bytes: Bytes, request_size: f64, per_request_overhead: f64) -> Bytes {
    assert!(request_size > 0.0);
    let bytes = bytes.get();
    if bytes <= 0.0 {
        return Bytes::ZERO;
    }
    let requests = (bytes / request_size).ceil();
    Bytes(bytes + requests * per_request_overhead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memres_cluster::tiny;
    use memres_des::time::SimTime;
    use memres_des::units::MB;

    #[test]
    fn same_rack_path_is_two_links() {
        let mut net: FlowNet<u32> = FlowNet::new();
        let spec = tiny(4);
        let f = Fabric::build(&mut net, &spec);
        // tiny stripes racks round-robin: nodes 0,2 in rack 0.
        let p = f.path(Endpoint::Node(NodeId(0)), Endpoint::Node(NodeId(2)));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn cross_rack_path_adds_uplinks_and_core() {
        let mut net: FlowNet<u32> = FlowNet::new();
        let spec = tiny(4);
        let f = Fabric::build(&mut net, &spec);
        let p = f.path(Endpoint::Node(NodeId(0)), Endpoint::Node(NodeId(1)));
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn loopback_is_free() {
        let mut net: FlowNet<u32> = FlowNet::new();
        let spec = tiny(4);
        let f = Fabric::build(&mut net, &spec);
        assert!(f
            .path(Endpoint::Node(NodeId(3)), Endpoint::Node(NodeId(3)))
            .is_empty());
    }

    #[test]
    fn lustre_paths_share_the_aggregate_pipe() {
        let mut net: FlowNet<u32> = FlowNet::new();
        let spec = tiny(4);
        let f = Fabric::build(&mut net, &spec);
        let p0 = f.path(Endpoint::Lustre, Endpoint::Node(NodeId(0)));
        let p1 = f.path(Endpoint::Lustre, Endpoint::Node(NodeId(1)));
        assert_eq!(p0[0], p1[0], "both reads go through the shared Lustre pipe");
        assert_eq!(p0[0], f.lustre_pipe());
    }

    #[test]
    fn lustre_reads_contend_on_the_pipe() {
        // Two nodes reading from Lustre: each limited by the 2 GB/s pipe of
        // the tiny cluster (1 GB/s each), NOT by their 1 GB/s NICs... those
        // tie exactly; use 3 readers to see the pipe bind: 2/3 GB/s each.
        let mut net: FlowNet<u32> = FlowNet::new();
        let spec = tiny(6);
        let fab = Fabric::build(&mut net, &spec);
        let mut flows = Vec::new();
        for n in 0..3u32 {
            let f = net.open_flow(
                SimTime::ZERO,
                fab.path(Endpoint::Lustre, Endpoint::Node(NodeId(n))),
                true,
            );
            net.push_chunk(SimTime::ZERO, f, Bytes(1e9), n);
            flows.push(f);
        }
        let pipe = spec.lustre_bandwidth; // 2 GB/s in tiny
        for &f in &flows {
            let r = net.flow_rate(f).unwrap();
            assert!((r - pipe / 3.0).abs() / r < 1e-9, "rate {r} != pipe/3");
        }
    }

    #[test]
    fn request_inflation() {
        // 1 GB in 128 KB requests with 4 KB overhead each: 8192 requests.
        let bytes = 1024.0 * MB;
        let inflated = inflate_for_requests(Bytes(bytes), 0.125 * MB, 4096.0);
        let requests = 8192.0;
        assert!((inflated.get() - (bytes + requests * 4096.0)).abs() < 1.0);
        // Large requests: negligible overhead.
        let big = inflate_for_requests(Bytes(bytes), 1024.0 * MB, 4096.0);
        assert!((big.get() - bytes - 4096.0).abs() < 1.0);
        assert_eq!(inflate_for_requests(Bytes::ZERO, 1.0, 1.0), Bytes::ZERO);
    }
}
