//! Layer probes: each substrate's public API driven directly, in the shape a
//! workload drives it in, and timed per call.
//!
//! The traced run can only time `SimWorld::handle` as a whole, so it cannot
//! say how much of a `Dispatch` is the flow network. A probe can: it is the
//! layer alone. A change to one layer should move its probe and, through the
//! `handle` span the README pairs it with, `wall_s` on that workload — or,
//! where the layer's share is small, provably nothing.

use memres_cluster::{hyperion, NodeId};
use memres_des::{Bytes, EventQueue, PsResource, SimTime};
use memres_hdfs::{Hdfs, HdfsConfig};
use memres_lustre::{Lustre, LustreConfig, LustreFile};
use memres_net::{Endpoint, Fabric, FlowNet};
use memres_storage::{CacheConfig, Device, FileId, LocalFs, Op, Ssd};
use std::hint::black_box;
use std::time::Instant;

/// One probe reading: metric name, value, unit.
pub type Reading = (&'static str, f64, &'static str);

const MB: f64 = 1024.0 * 1024.0;
const GB: f64 = 1024.0 * MB;

/// Mean microseconds per call since `t0`.
fn us_per(t0: Instant, calls: usize) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Splitmix-style step: probe inputs vary with `--seed` but need no `rand`.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn all(seed: u64) -> Vec<Reading> {
    let mut out = net(seed);
    out.extend(lustre());
    out.extend(storage());
    out.extend(des(seed));
    out.extend(hdfs(seed));
    out
}

/// `paper_ramdisk`'s reduce-phase shape: 2,500 fetch flows open at once
/// across Hyperion's 100 nodes, 25 per source, then drain one by one, each
/// completion forcing a max-min recompute over the rest.
fn net(seed: u64) -> Vec<Reading> {
    const FLOWS: usize = 2_500;
    let spec = hyperion();
    let mut net: FlowNet<u32> = FlowNet::new();
    let fabric = Fabric::build(&mut net, &spec);
    let workers = spec.workers as usize;
    let mut rng = seed;
    let t0 = Instant::now();
    for k in 0..FLOWS {
        let src = k % workers;
        let dst = (src + 1 + k / workers) % workers;
        let path = fabric.path(
            Endpoint::Node(NodeId(src as u32)),
            Endpoint::Node(NodeId(dst as u32)),
        );
        let flow = net.open_flow(SimTime::ZERO, path, true);
        let bytes = 64.0 * MB + (next(&mut rng) % (16 << 20)) as f64;
        net.push_chunk(SimTime::ZERO, flow, Bytes(bytes), k as u32);
    }
    let open_flow_us = us_per(t0, FLOWS);

    // The first rate-dependent query settles all 2,500 flows in one pass.
    let t0 = Instant::now();
    let mut due = net.next_event();
    let settle_us = us_per(t0, 1);

    let t0 = Instant::now();
    let (mut polls, mut delivered) = (0usize, 0usize);
    while let Some(at) = due {
        delivered += net.poll(at).len();
        polls += 1;
        due = net.next_event();
    }
    let poll_us = us_per(t0, polls);
    assert_eq!(delivered, FLOWS, "net probe lost a delivery");
    vec![
        ("net.probe.open_flow_us", open_flow_us, "us"),
        ("net.probe.settle_us", settle_us, "us"),
        ("net.probe.poll_us", poll_us, "us"),
        ("net.probe.recomputes", net.recomputes as f64, "count"),
    ]
}

/// `paper_lustre_local`'s shape: 100 clients each write their shuffle files
/// (filling, then overflowing, the write-back grant), read them back as the
/// writer, and have the locks revoked.
fn lustre() -> Vec<Reading> {
    const CLIENTS: u32 = 100;
    const FILES_PER_CLIENT: u64 = 100;
    let calls = (CLIENTS as u64 * FILES_PER_CLIENT) as usize;
    let mut fs = Lustre::new(LustreConfig::hyperion());
    let files = || {
        (0..CLIENTS).flat_map(|c| {
            (0..FILES_PER_CLIENT).map(move |f| (NodeId(c), LustreFile(c as u64 * 1_000 + f)))
        })
    };
    let bytes = Bytes(64.0 * MB);
    let now = SimTime::ZERO;

    let t0 = Instant::now();
    for (client, file) in files() {
        black_box(fs.write(now, client, file, bytes));
    }
    let write_us = us_per(t0, calls);
    let t0 = Instant::now();
    for (client, file) in files() {
        black_box(fs.read(now, client, file, bytes));
    }
    let read_us = us_per(t0, calls);
    let t0 = Instant::now();
    for (_, file) in files() {
        black_box(fs.revoke(now, file));
    }
    let revoke_us = us_per(t0, calls);
    vec![
        ("lustre.probe.write_us", write_us, "us"),
        ("lustre.probe.read_us", read_us, "us"),
        ("lustre.probe.revoke_us", revoke_us, "us"),
    ]
}

/// Requests a node keeps in flight in the storage probes: one per core, as
/// a Hyperion node's 16 concurrent shuffle writers do.
const IO_DEPTH: usize = 16;
/// A probe loop that polls this often without finishing has met a model that
/// no longer completes its I/O; fail instead of spinning.
const POLL_CAP: usize = 5_000_000;

/// `ops` requests against `fs` in a closed loop of [`IO_DEPTH`], starting at
/// `now`. Returns mean microseconds per `write`/`read` call (polls are not
/// in it) and the instant the last request completed.
fn fs_closed_loop(fs: &mut LocalFs, mut now: SimTime, ops: usize, read: bool) -> (f64, SimTime) {
    let bytes = Bytes(64.0 * MB);
    let mut in_calls = std::time::Duration::ZERO;
    let (mut issued, mut done, mut polls) = (0usize, 0usize, 0usize);
    while done < ops {
        while issued < ops && issued - done < IO_DEPTH {
            let t0 = Instant::now();
            if read {
                fs.read(now, FileId(issued as u64), bytes, issued as u64);
            } else {
                fs.write(now, FileId(issued as u64), bytes, issued as u64);
            }
            in_calls += t0.elapsed();
            issued += 1;
        }
        now = fs.next_event().expect("LocalFs idle with I/O in flight");
        done += fs.poll(now).len();
        polls += 1;
        assert!(polls < POLL_CAP, "LocalFs probe does not finish");
    }
    (in_calls.as_secs_f64() * 1e6 / ops as f64, now)
}

/// `paper_ssd`'s shape on one node: 16 writers keep 64 MB shuffle writes in
/// flight against the SSD model until its clean pool is spent and garbage
/// collection throttles it; then the same through the page-cached `LocalFs`
/// mount, and reads of what was written.
fn storage() -> Vec<Reading> {
    const OPS: usize = 2_000;
    let mut ssd = Ssd::hyperion();
    let (mut in_submit, mut in_poll) = (std::time::Duration::ZERO, std::time::Duration::ZERO);
    let (mut issued, mut done, mut polls) = (0usize, 0usize, 0usize);
    let mut now = SimTime::ZERO;
    while done < OPS {
        while issued < OPS && issued - done < IO_DEPTH {
            let t0 = Instant::now();
            ssd.submit(now, Op::Write, 64.0 * MB, issued as u64);
            in_submit += t0.elapsed();
            issued += 1;
        }
        now = ssd.next_event().expect("SSD idle with writes in flight");
        let t0 = Instant::now();
        done += ssd.poll(now).len();
        in_poll += t0.elapsed();
        polls += 1;
        assert!(polls < POLL_CAP, "SSD probe does not finish");
    }
    let ssd_submit_us = in_submit.as_secs_f64() * 1e6 / OPS as f64;
    let ssd_poll_us = in_poll.as_secs_f64() * 1e6 / polls as f64;

    let mut fs = LocalFs::new(
        Box::new(Ssd::hyperion()),
        OPS as f64 * 64.0 * MB + GB,
        Some(CacheConfig::hyperion()),
    );
    let (fs_write_us, written_at) = fs_closed_loop(&mut fs, SimTime::ZERO, OPS, false);
    let (fs_read_us, _) = fs_closed_loop(&mut fs, written_at, OPS, true);
    vec![
        ("storage.probe.ssd_submit_us", ssd_submit_us, "us"),
        ("storage.probe.ssd_poll_us", ssd_poll_us, "us"),
        ("storage.probe.fs_write_us", fs_write_us, "us"),
        ("storage.probe.fs_read_us", fs_read_us, "us"),
    ]
}

/// `scale_1k_100k`'s shape: the classic hold model on the event calendar —
/// a standing population, one million pop-then-push operations — and a
/// processor-shared resource filled and drained as the storage and Lustre
/// models use it.
fn des(seed: u64) -> Vec<Reading> {
    const POPULATION: u64 = 16_384;
    const HOLDS: usize = 1_000_000;
    let mut rng = seed;
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..POPULATION {
        queue.push(SimTime::from_nanos(next(&mut rng) % 1_000_000_000), i);
    }
    let t0 = Instant::now();
    for _ in 0..HOLDS {
        let (at, tag) = queue.pop().expect("hold model keeps its population");
        let gap = 1 + next(&mut rng) % 1_000_000_000;
        queue.push(SimTime::from_nanos(at.as_nanos() + gap), tag);
    }
    let queue_ns_per_op = t0.elapsed().as_secs_f64() * 1e9 / (2 * HOLDS) as f64;
    black_box(queue.len());

    const ROUNDS: usize = 50;
    const JOBS: usize = 1_000;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        let mut ps = PsResource::new(1e9);
        for i in 0..JOBS {
            ps.add(SimTime::ZERO, 1e6 + i as f64, i);
        }
        let mut done = 0;
        while let Some(at) = ps.next_completion() {
            done += ps.poll(at).len();
        }
        assert_eq!(done, JOBS, "PS probe lost a job");
    }
    let ps_us_per_job = us_per(t0, ROUNDS * JOBS);
    vec![
        ("des.probe.queue_ns_per_op", queue_ns_per_op, "ns"),
        ("des.probe.ps_us_per_job", ps_us_per_job, "us"),
    ]
}

/// `real_groupby`'s shape: its 16-node HDFS placing input blocks, then every
/// node asking for the best replica of every block.
fn hdfs(seed: u64) -> Vec<Reading> {
    const FILES: usize = 200;
    const BLOCKS_PER_FILE: usize = 64;
    let spec = hyperion().scaled_workers(16);
    let workers = spec.workers;
    let cfg = HdfsConfig::default();
    let block = cfg.block_size;
    let mut fs = Hdfs::new(cfg, spec, 1e15, seed);
    let mut blocks = Vec::with_capacity(FILES * BLOCKS_PER_FILE);
    let t0 = Instant::now();
    for _ in 0..FILES {
        let (_, layout) = fs.create_file(None, BLOCKS_PER_FILE as f64 * block);
        blocks.extend(layout.into_iter().map(|(id, _, _)| id));
    }
    let place_us = us_per(t0, blocks.len());
    let t0 = Instant::now();
    for reader in 0..workers {
        for &b in &blocks {
            black_box(fs.preferred_source(NodeId(reader), b));
        }
    }
    let locate_ns = us_per(t0, blocks.len() * workers as usize) * 1e3;
    vec![
        ("hdfs.probe.place_us", place_us, "us"),
        ("hdfs.probe.locate_ns", locate_ns, "ns"),
    ]
}
