//! Microbenchmarks of the substrate hot paths: event calendar, processor
//! sharing, max-min fair allocation, SSD fluid model.

use criterion::{criterion_group, criterion_main, Criterion};
use memres_core::prelude::*;
use memres_des::{Bytes, EventQueue, PsResource, SimTime};
use memres_net::FlowNet;
use memres_storage::{Device, Op, Ssd, SsdConfig};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime(i * 7919 % 10_000), i);
            }
            while q.pop().is_some() {}
        })
    });
}

/// 1e6-event push/pop through the calendar queue. Pushes use a
/// pseudo-random spread over a wide horizon, the access pattern the
/// calendar's bucket sizing has to absorb.
fn bench_event_queue_1m(c: &mut Criterion) {
    const N: u64 = 1_000_000;
    c.bench_function("calendar_push_pop_1m", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..N {
                q.push(SimTime(i.wrapping_mul(6364136223846793005) % (N * 64)), i);
            }
            while q.pop().is_some() {}
        })
    });
}

fn bench_ps(c: &mut Criterion) {
    c.bench_function("ps_resource_1k_jobs", |b| {
        b.iter(|| {
            let mut ps = PsResource::new(1e9);
            for i in 0..1000u32 {
                ps.add(SimTime::ZERO, 1e6 + i as f64, i);
            }
            let mut n = 0;
            while let Some(t) = ps.next_completion() {
                n += ps.poll(t).len();
            }
            assert_eq!(n, 1000);
        })
    });
}

fn bench_flownet(c: &mut Criterion) {
    c.bench_function("flownet_200_flows_waterfill", |b| {
        b.iter(|| {
            let mut net: FlowNet<u32> = FlowNet::new();
            let links: Vec<_> = (0..50).map(|_| net.add_link(1e9)).collect();
            for i in 0..200u32 {
                let path = vec![links[(i as usize) % 50], links[(i as usize + 7) % 50]];
                let f = net.open_flow(SimTime::ZERO, path, true);
                net.push_chunk(SimTime::ZERO, f, Bytes(1e6), i);
            }
            let mut n = 0;
            while let Some(t) = net.next_event() {
                n += net.poll(t).len();
            }
            assert_eq!(n, 200);
        })
    });
    // The paper cells' reducer launch wave: 1,600 fetch launches at one
    // instant on 100 nodes, each queueing a chunk towards every source and
    // then asking for the next completion, as `launch_fetch` + `arm_net` do.
    // The first 100 launches open the 10,000 persistent pair flows; the other
    // 1,500 only queue behind them. Then the whole shuffle drains.
    c.bench_function("flownet_fetch_wave_100x100", |b| {
        const NODES: usize = 100;
        b.iter(|| {
            let mut net: FlowNet<u32> = FlowNet::new();
            let links = |net: &mut FlowNet<u32>, cap: f64| -> Vec<_> {
                (0..NODES).map(|_| net.add_link(cap)).collect()
            };
            let store = links(&mut net, 2e9);
            let up = links(&mut net, 4e9);
            let down = links(&mut net, 4e9);
            let mut flows = vec![None; NODES * NODES];
            for reducer in 0..16 * NODES {
                let dst = reducer % NODES;
                for src in 0..NODES {
                    let f = *flows[src * NODES + dst].get_or_insert_with(|| {
                        let path = vec![store[src], up[src], down[dst]];
                        net.open_flow(SimTime::ZERO, path, false)
                    });
                    // Sizes differ by source so the drain has many instants.
                    let bytes = Bytes(1e6 + 1e3 * src as f64);
                    net.push_chunk(SimTime::ZERO, f, bytes, reducer as u32);
                }
                net.end_batch();
                criterion::black_box(net.next_event());
            }
            let mut n = 0;
            while let Some(t) = net.next_event() {
                n += net.poll(t).len();
            }
            assert_eq!(n, 16 * NODES * NODES);
        })
    });
}

fn bench_real_shuffle(c: &mut Criterion) {
    // The real-record path outside `benchmark/`: 1 M generated pairs over
    // 20 k keys, 16 map partitions hash-partitioned to 8 reducers and
    // grouped, through `Driver` (UDF chain, partition and aggregation on the
    // executor pool; the simulated substrates do next to nothing).
    let records = memres_workloads::datagen::kv_pairs(1_000_000, 20_000, 1);
    let rdd = Rdd::source(Dataset::from_records(records, 16))
        .map("genKV", SizeModel::scan(), |r| r)
        .group_by_key(Some(8), 1e9);
    c.bench_function("real_shuffle_1m_records", |b| {
        b.iter(|| {
            let cfg = EngineConfig::default().homogeneous();
            let mut driver = Driver::new(memres_cluster::tiny(8), cfg);
            let (out, _) = driver.run(&rdd, Action::Count);
            assert_eq!(out.count, 20_000);
        })
    });
}

fn bench_ssd(c: &mut Criterion) {
    c.bench_function("ssd_sustained_writes", |b| {
        b.iter(|| {
            let mut ssd = Ssd::new(SsdConfig::test_small());
            for i in 0..100u64 {
                ssd.submit(SimTime(i * 1_000_000), Op::Write, 40.0, i);
            }
            while let Some(t) = ssd.next_event() {
                if ssd.poll(t).is_empty() && ssd.queue_depth() == 0 {
                    break;
                }
            }
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_1m,
    bench_ps,
    bench_flownet,
    bench_real_shuffle,
    bench_ssd
);
criterion_main!(benches);
