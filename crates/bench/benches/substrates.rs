//! Microbenchmarks of the substrate hot paths: event queue, dispatch
//! candidate set, reducer launches, local filesystem, processor sharing,
//! max-min fair allocation, SSD fluid model, trace export.

use criterion::{criterion_group, criterion_main, Criterion};
use memres_core::prelude::*;
use memres_des::{Bytes, EventQueue, PsResource, SimTime};
use memres_net::FlowNet;
use memres_storage::{Device, Op, Ssd, SsdConfig};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_nanos(i * 7919 % 10_000), i);
            }
            while q.pop().is_some() {}
        })
    });
}

/// 1e6-event push/pop through the event queue. Pushes use a pseudo-random
/// spread over a wide horizon: every one goes through a bucket.
fn bench_event_queue_1m(c: &mut Criterion) {
    const N: u64 = 1_000_000;
    c.bench_function("queue_push_pop_1m", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..N {
                q.push(
                    SimTime::from_nanos(i.wrapping_mul(6364136223846793005) % (N * 64)),
                    i,
                );
            }
            while q.pop().is_some() {}
        })
    });
}

/// The traffic recorded on `scale_1k_100k`, 100,000 events of it: tasks
/// launch in waves (a wave's finishes all pushed at one dispatch, here at
/// one equal future time), the queue's length swings between 16 and 16 k
/// every wave, and of the 2.5 pushes per task one — 40 % — is the
/// `out.immediately(Ev::Dispatch)` of its finish, at exactly the instant
/// just popped; every other finish also arms a storage wake-up at a time
/// of its own.
fn bench_event_queue_waves(c: &mut Criterion) {
    const WAVES: [u64; 3] = [16_000, 16_000, 8_000];
    c.bench_function("queue_wave_traffic_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut now = SimTime::ZERO;
            // Stragglers: what the queue holds between waves.
            for i in 0..16u64 {
                q.push(SimTime::FAR_FUTURE, i);
            }
            let mut handled = 0u64;
            for (w, tasks) in WAVES.into_iter().enumerate() {
                let finish = SimTime::from_nanos(now.as_nanos() + 3_000_000_000);
                for i in 0..tasks {
                    q.push(finish, i);
                }
                // Drain the wave: finishes, their dispatches, the wake-ups.
                while q.len() > 16 {
                    let (at, tag) = q.pop().expect("wave events are queued");
                    now = at;
                    handled += 1;
                    if at == finish && tag < tasks {
                        q.push(now, u64::MAX); // the finish's Dispatch
                        if tag % 2 == 0 {
                            let wake = 1_000 + tag * 37 + w as u64;
                            q.push(SimTime::from_nanos(now.as_nanos() + wake), u64::MAX - 1);
                        }
                    }
                }
            }
            assert_eq!(handled, 100_000);
        })
    });
}

/// The classic hold model, as the benchmark's `des.probe.queue_ns_per_op`
/// runs it: 16,384 standing events at uniformly random times within a
/// second, and every iteration 100,000 pop-then-push operations, each
/// rescheduling the popped event 1 ns to 1 s later — no push joins the
/// same-instant lane.
fn bench_event_queue_hold(c: &mut Criterion) {
    const POPULATION: u64 = 16_384;
    const HOLDS: usize = 100_000;
    const SECOND: u64 = 1_000_000_000;
    let mut state = 1u64;
    let mut next = move || {
        // A 64-bit LCG's high bits: uniform enough for a hold model.
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 32
    };
    let mut q = EventQueue::new();
    for i in 0..POPULATION {
        q.push(SimTime::from_nanos(next() % SECOND), i);
    }
    c.bench_function("queue_hold_16k", |b| {
        b.iter(|| {
            for _ in 0..HOLDS {
                let (at, tag) = q.pop().expect("the hold model keeps its population");
                q.push(
                    SimTime::from_nanos(at.as_nanos() + 1 + next() % SECOND),
                    tag,
                );
            }
            q.len()
        })
    });
}

/// A storing tail on 2,000 nodes whose speeds differ: 64,000 producers, as
/// many pinned store tasks that run out node by node, 256 reducers. Every
/// finish fires a `Dispatch`; with the idle nodes parked each one looks at
/// a node or two, not at the idle rest of the cluster twice.
fn bench_dispatch_storing_tail(c: &mut Criterion) {
    let spec = memres_cluster::hyperion().scaled_workers(2_000);
    let cfg = EngineConfig {
        input: InputSource::Lustre,
        ..EngineConfig::default()
    };
    let gb = memres_workloads::GroupBy::new(64_000.0 * 32.0 * memres_des::units::MB)
        .with_split(32.0 * memres_des::units::MB)
        .with_reducers(256);
    c.bench_function("dispatch_storing_tail_2k_nodes", |b| {
        b.iter(|| {
            let mut driver = Driver::new(spec.clone(), cfg.clone());
            let (out, m) = driver.run(&gb.build(), gb.action());
            assert!(!out.aborted);
            let visits = driver.world().dispatch_visits;
            assert!(visits <= 8 * m.tasks().len() as u64, "{visits} visits");
        })
    });
}

/// Reducer launches on an aggregated synthetic shuffle: 1,024 nodes in 8
/// racks ((1,024 / 8)² > 4,096 flows per rack pair), 16,384 reducers behind
/// 256 small producers, so the job is eight waves of fetch launches and
/// each launch reads the per-rack fold of all 1,024 nodes' shares.
fn bench_fetch_launch_uniform(c: &mut Criterion) {
    const MB: f64 = 1024.0 * 1024.0;
    let spec = memres_cluster::ClusterSpec {
        racks: 8,
        ..memres_cluster::tiny(1_024)
    };
    let job = Rdd::source(Dataset::generated(256.0 * 4.0 * MB, 4.0 * MB, 100.0))
        .map("genKV", SizeModel::new(1.0, 1.0, 200e6), |r| r)
        .group_by_key(Some(16_384), 400e6);
    c.bench_function("fetch_launch_wave_uniform_1k_nodes", |b| {
        b.iter(|| {
            let cfg = EngineConfig::default().homogeneous();
            let (out, m) = Driver::new(spec.clone(), cfg).run(&job, Action::Count);
            assert!(!out.aborted);
            assert_eq!(m.tasks_in(Phase::Shuffling).count(), 16_384);
        })
    });
}

/// LocalFs on a RAMDisk without a page cache: every write is a device
/// sub-operation. 100,000 writes, 16 in flight, each completion polled.
fn bench_localfs(c: &mut Criterion) {
    use memres_storage::{FileId, LocalFs, RamDisk};
    const OPS: u64 = 100_000;
    c.bench_function("localfs_write_poll_100k", |b| {
        b.iter(|| {
            let mut fs = LocalFs::new(Box::new(RamDisk::new(4e9, 4e9)), 1e15, None);
            let (mut now, mut done) = (SimTime::ZERO, 0);
            for tag in 0..OPS {
                fs.write(now, FileId(tag % 64), Bytes(1e6 + tag as f64), tag);
                if tag >= 16 {
                    now = fs.next_event().expect("16 writes in flight");
                    done += fs.poll(now).len();
                }
            }
            while let Some(t) = fs.next_event() {
                done += fs.poll(t).len();
            }
            assert_eq!(done as u64, OPS);
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
    // The storing phase of a Lustre-local cell: 2,000 MDS requests land on
    // one instant, each followed by the owner re-reading the next completion
    // (`submit_mds` + `arm_lustre`); then the server drains. The storm sweeps
    // nothing; each completion step is one pass over a dense list.
    c.bench_function("ps_same_instant_storm_2k", |b| {
        b.iter(|| {
            let mut ps = PsResource::new(1e5);
            let t = SimTime::from_secs_f64(1.0);
            for i in 0..2000u32 {
                ps.add(t, 3.0 + (i % 7) as f64, i);
                criterion::black_box(ps.next_completion());
            }
            let mut n = 0;
            while let Some(t) = ps.next_completion() {
                n += ps.poll(t).len();
            }
            assert_eq!(n, 2000);
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
    // One reducer launch by name: 200 chunks under one tag, one towards each
    // of a destination's persistent fetch flows (100 sources x store and OSS
    // side), handed over in one `push_chunks` and settled by `end_batch`. The
    // first of the 16 launches wakes the 200 flows, the others queue behind
    // them.
    c.bench_function("flownet_fetch_launch_200_chunks", |b| {
        const SOURCES: usize = 100;
        b.iter(|| {
            let mut net: FlowNet<u32> = FlowNet::new();
            let pipe = net.add_link(50e9);
            let down = net.add_link(4e9);
            let chunks: Vec<_> = (0..SOURCES)
                .flat_map(|src| {
                    let store = net.add_link(2e9);
                    let up = net.add_link(4e9);
                    [vec![store, up, down], vec![pipe, up, down]].map(|path| {
                        let f = net.open_flow(SimTime::ZERO, path, false);
                        net.reserve_chunks(f, 16);
                        (f, Bytes(1e6 + 1e3 * src as f64))
                    })
                })
                .collect();
            for reducer in 0..16 {
                net.push_chunks(SimTime::ZERO, reducer, &chunks);
                net.end_batch();
                criterion::black_box(net.next_event());
            }
            let mut n = 0;
            while let Some(t) = net.next_event() {
                n += net.poll(t).len();
            }
            assert_eq!(n, 16 * 2 * SOURCES);
        })
    });
    // One fixed cost by name: 20,000 active flows, every other one drains in
    // the same `advance`. Retirement is one compaction pass per link list,
    // where removing the 10,000 one at a time moved ~10⁸ list entries.
    c.bench_function("flownet_retire_10k_flows_one_instant", |b| {
        const NICS: usize = 100;
        const FLOWS: usize = 20_000;
        b.iter(|| {
            let mut net: FlowNet<u32> = FlowNet::new();
            let core = net.add_link(1e9);
            let nics: Vec<_> = (0..NICS).map(|_| net.add_link(1e9)).collect();
            for i in 0..FLOWS {
                let f = net.open_flow(SimTime::ZERO, vec![core, nics[i % NICS]], true);
                let bytes = if i % 2 == 0 { 1e3 } else { 1e9 };
                net.push_chunk(SimTime::ZERO, f, Bytes(bytes), i as u32);
            }
            let first = net.next_event().expect("20,000 active flows");
            assert_eq!(net.poll(first).len(), FLOWS / 2);
            assert_eq!(net.active_flows(), FLOWS / 2);
        })
    });
}

/// The other fixed cost by name: every `Dispatch` under `FairShare` orders
/// the resident jobs by running tasks. Two tenants' Grep jobs, two resident
/// at a time, keep ~6,000 cheap tasks in the arena, so the run is dispatch-
/// bound; the order reads per-job counts, where it used to scan the arena.
fn bench_fair_share(c: &mut Criterion) {
    use memres_core::{ArrivalProcess, InterJobPolicy, StreamSpec, TenantSpec};
    use memres_des::units::GB;
    use memres_workloads::Grep;
    use std::sync::Arc;
    c.bench_function("fair_share_order_6k_tasks", |b| {
        b.iter(|| {
            let tenant = |name: &str, gap: f64| {
                TenantSpec::new(
                    name,
                    2,
                    ArrivalProcess::Periodic { period_secs: gap },
                    Arc::new(|_| {
                        let job = Grep::new(96.0 * GB);
                        (job.build(), job.action())
                    }),
                )
            };
            let stream = StreamSpec::new(
                vec![tenant("a", 1.0), tenant("b", 1.5)],
                InterJobPolicy::FairShare,
                1,
            )
            .with_max_concurrent(2);
            let cfg = EngineConfig {
                input: InputSource::Lustre,
                ..EngineConfig::default()
            };
            let mut driver = Driver::new(memres_cluster::hyperion().scaled_workers(50), cfg);
            assert_eq!(driver.run_stream(stream).len(), 4);
        })
    });
}

fn bench_real_shuffle(c: &mut Criterion) {
    // The real-record path outside `benchmark/`, through `Driver` (UDF chain,
    // partition and aggregation on the executor pool; the simulated
    // substrates do next to nothing): 16 map partitions hash-partitioned to
    // 8 reducers. Each job ends in `count`, so its final groups are counted,
    // never built; a `_collect` case keeps them.
    let mut case = |name: &str, rdd: Rdd, action: Action, groups: u64| {
        c.bench_function(name, |b| {
            b.iter(|| {
                let cfg = EngineConfig::default().homogeneous();
                let mut driver = Driver::new(memres_cluster::tiny(8), cfg);
                let (out, _) = driver.run(&rdd, action.clone());
                assert_eq!(out.count, groups);
            })
        });
    };
    let gen_pairs = |pairs, keys| {
        let records = memres_workloads::datagen::kv_pairs(pairs, keys, 1);
        Rdd::source(Dataset::from_records(records, 16)).map("genKV", SizeModel::scan(), |r| r)
    };
    let group_pairs = |pairs, keys| gen_pairs(pairs, keys).group_by_key(Some(8), 1e9);
    case(
        "real_shuffle_1m_records",
        group_pairs(1_000_000, 20_000),
        Action::Count,
        20_000,
    );
    // The pair behind the 16-byte `Value` (CHANGES.md, PR 20). Numeric
    // records are `benchmark/`'s `real_groupby` at a tenth of its size: every
    // pass over them moves a third fewer bytes. String keys are the control:
    // their bytes sit one pointer hop further away than under `Arc<str>`,
    // and a word count hashes and compares them on both sides of the shuffle.
    let groupby = group_pairs(400_000, 8_000);
    case(
        "real_groupby_i64_400k",
        groupby.clone(),
        Action::Count,
        8_000,
    );
    // The same lineage under `collect`: the list fill, the order sort and
    // the free of the groups that `count` skips.
    case(
        "real_groupby_i64_400k_collect",
        groupby,
        Action::Collect,
        8_000,
    );
    // The same records folded per key: the reduce side's numeric fold path.
    let sum = gen_pairs(400_000, 8_000).reduce_by_key(Some(8), 1e9, 1.0, |a, b| {
        Value::I64(a.as_i64() + b.as_i64())
    });
    case("real_reduce_by_key_i64_400k", sum, Action::Count, 8_000);
    let lines = memres_workloads::datagen::text_lines(100_000, 1);
    let wordcount = Rdd::source(Dataset::from_records(lines, 16))
        .flat_map("words", SizeModel::scan(), |(_, line)| {
            let words = line.as_str().split_whitespace();
            words.map(|w| (Value::str(w), Value::I64(1))).collect()
        })
        .reduce_by_key(Some(8), 1e9, 1.0, |a, b| {
            Value::I64(a.as_i64() + b.as_i64())
        });
    case(
        "real_wordcount_str_100k_lines",
        wordcount,
        Action::Count,
        20,
    );
}

fn bench_ssd(c: &mut Criterion) {
    c.bench_function("ssd_sustained_writes", |b| {
        b.iter(|| {
            let mut ssd = Ssd::new(SsdConfig::test_small());
            for i in 0..100u64 {
                ssd.submit(SimTime::from_nanos(i * 1_000_000), Op::Write, 40.0, i);
            }
            while let Some(t) = ssd.next_event() {
                if ssd.poll(t).is_empty() && ssd.queue_depth() == 0 {
                    break;
                }
            }
        })
    });
}

/// The trace plane's export cost outside `benchmark/`: the paper-scale
/// RAMDisk cell is observed once (`repro trace`'s run: 34,404 events), then
/// each iteration renders `events.jsonl` and the Chrome trace from the same
/// event log.
fn bench_trace_export(c: &mut Criterion) {
    use memres_trace::export::{chrome_trace_json, events_jsonl};
    let run = memres_bench::observe::run_cell(
        memres_workloads::cells::Setup::paper(),
        "fig7a_400gb_ramdisk",
        FaultPlan::new(),
    )
    .expect("known cell");
    c.bench_function("trace_export_fig7a_ramdisk", |b| {
        b.iter(|| {
            let jsonl = events_jsonl(&run.events);
            let chrome = chrome_trace_json(&run.events);
            criterion::black_box(jsonl.len() + chrome.len())
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_1m,
    bench_event_queue_waves,
    bench_event_queue_hold,
    bench_dispatch_storing_tail,
    bench_fetch_launch_uniform,
    bench_localfs,
    bench_ps,
    bench_flownet,
    bench_fair_share,
    bench_real_shuffle,
    bench_ssd,
    bench_trace_export
);
criterion_main!(benches);
