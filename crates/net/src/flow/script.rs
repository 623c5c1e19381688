//! The one interpreter of random op sequences the flow property tests run
//! (test-only): it applies an [`Op`] to a [`FlowNet`] and keeps its own
//! record of which flows are open and how many of their chunks are still
//! undelivered, so a test can hold two nets to each other op by op, or one
//! net to the textbook reference over the flows the record says are active.

use super::{Delivered, FlowId, FlowNet, LinkId};
use memres_des::time::SimTime;
use memres_des::Bytes;
use proptest::prelude::*;
use proptest::sample::Index;
use proptest::test_runner::TestCaseError;

/// `(kind, a, b, bytes, dt)`: `kind % 5` picks open / push / close / step /
/// resize (see [`Script::apply`]), the rest of `kind` and the two indexes
/// pick flavours and targets.
pub(super) type Op = (u8, Index, Index, f64, f64);

pub(super) fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = (
        0u8..20,
        any::<Index>(),
        any::<Index>(),
        1.0f64..100.0,
        0.001f64..0.05,
    );
    proptest::collection::vec(op, 1..max)
}

pub(super) fn capacities() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1.0f64..100.0, 1..5)
}

/// What a push op queues.
#[derive(Clone, Copy, PartialEq)]
pub(super) enum Push {
    /// One chunk on one open flow; flows are opened carrying a chunk.
    Chunk,
    /// A whole launch — up to six chunks under one tag, zero-byte ones and
    /// repeated flows among them — onto flows that are opened idle: handed
    /// over in one `push_chunks` when `batched`, chunk by chunk otherwise.
    Launch { batched: bool },
}

struct Open {
    flow: FlowId,
    path: Vec<LinkId>,
    auto_close: bool,
    /// Chunks pushed and not yet seen delivered (zero-byte ones included).
    queued: usize,
}

pub(super) struct Script {
    pub(super) net: FlowNet<u32>,
    push: Push,
    links: Vec<LinkId>,
    caps: Vec<f64>,
    open: Vec<Open>,
    now_secs: f64,
    ops: u32,
}

/// Drive `net` until it idles; the deliveries with their instants.
pub(super) fn drain_all(net: &mut FlowNet<u32>) -> Vec<(SimTime, u32)> {
    let mut out = Vec::new();
    while let Some(t) = net.next_event() {
        out.extend(net.poll(t).into_iter().map(|d| (t, d.tag)));
    }
    out
}

impl Script {
    pub(super) fn new(caps: &[f64], push: Push) -> Self {
        let mut net = FlowNet::new();
        let links = caps.iter().map(|&c| net.add_link(c)).collect();
        Script {
            net,
            push,
            links,
            caps: caps.to_vec(),
            open: Vec::new(),
            now_secs: 0.0,
            ops: 0,
        }
    }

    /// Chunks pushed and not yet seen delivered.
    pub(super) fn queued(&self) -> usize {
        self.open.iter().map(|e| e.queued).sum()
    }

    pub(super) fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// The flows the record says carry bytes, with their paths. Only
    /// meaningful under [`Push::Chunk`]: a launch's zero-byte chunks count as
    /// queued without activating anything.
    pub(super) fn active(&self) -> (Vec<FlowId>, Vec<Vec<LinkId>>) {
        let queued = self.open.iter().filter(|e| e.queued > 0);
        queued.map(|e| (e.flow, e.path.clone())).unzip()
    }

    /// Apply one op; returns what it delivered.
    ///
    /// * open — over two links, now and then the same one twice (the flow
    ///   is then listed twice on it); FIFO or shared, auto-close or
    ///   persistent (those idle, re-wake and get closed idle);
    /// * push — see [`Push`];
    /// * close — a random open flow, which must hand back what it queued;
    /// * step — advance and poll; every fourth step is long enough to drain
    ///   most of the net in one `advance`;
    /// * resize — a random link.
    pub(super) fn apply(&mut self, op: &Op) -> Vec<Delivered<u32>> {
        let &(kind, a, b, bytes, dt) = op;
        let now = SimTime::from_secs_f64(self.now_secs);
        let launches = self.push != Push::Chunk;
        self.ops += 1;
        match kind % 5 {
            0 => {
                let path = vec![
                    self.links[a.index(self.links.len())],
                    self.links[b.index(self.links.len())],
                ];
                let auto_close = kind / 10 == 0;
                let flow = if (kind / 5) % 2 == 0 {
                    self.net.open_flow(now, path.clone(), auto_close)
                } else {
                    self.net.open_shared_flow(now, path.clone(), auto_close)
                };
                if !launches {
                    self.net.push_chunk(now, flow, Bytes(bytes), flow.0 as u32);
                }
                self.open.push(Open {
                    flow,
                    path,
                    auto_close,
                    queued: usize::from(!launches),
                });
            }
            1 | 2 if launches && !self.open.is_empty() => self.launch(now, op),
            1 if !self.open.is_empty() => {
                let i = a.index(self.open.len());
                let e = &mut self.open[i];
                self.net
                    .push_chunk(now, e.flow, Bytes(bytes), e.flow.0 as u32);
                e.queued += 1;
            }
            3 => {
                self.now_secs += dt * if b.index(4) == 0 { 200.0 } else { 1.0 };
                let got = self.net.poll(SimTime::from_secs_f64(self.now_secs));
                for d in &got {
                    // A zero-byte chunk can outlive the flow it was pushed on.
                    let Some(i) = self.open.iter().position(|e| e.flow == d.flow) else {
                        assert!(launches, "delivery for a flow that is not open");
                        continue;
                    };
                    self.open[i].queued -= 1;
                    if self.open[i].queued == 0 && self.open[i].auto_close {
                        self.open.swap_remove(i);
                    }
                }
                return got;
            }
            4 if !launches || kind / 10 == 0 => {
                let li = a.index(self.links.len());
                self.caps[li] = 1.0 + bytes;
                self.net
                    .set_link_capacity(now, self.links[li], self.caps[li]);
            }
            2 | 4 if !self.open.is_empty() => {
                let e = self.open.swap_remove(a.index(self.open.len()));
                let handed_back = self.net.close_flow(now, e.flow).len();
                // Zero-byte chunks were delivered at the push, not queued.
                assert!(handed_back == e.queued || launches && handed_back < e.queued);
            }
            _ => {}
        }
        Vec::new()
    }

    fn launch(&mut self, now: SimTime, &(kind, a, b, bytes, _): &Op) {
        let n = self.open.len();
        let stride = b.index(n) + 1;
        let chunks: Vec<(FlowId, Bytes)> = (0..1 + a.index(6))
            .map(|i| {
                let e = &mut self.open[(a.index(n) + i * stride) % n];
                e.queued += 1;
                let zero = (i + kind as usize).is_multiple_of(4);
                let bytes = if zero {
                    0.0
                } else {
                    bytes * (i + 1) as f64 / 2.0
                };
                (e.flow, Bytes(bytes))
            })
            .collect();
        if self.push == (Push::Launch { batched: true }) {
            self.net.push_chunks(now, self.ops, &chunks);
        } else {
            for &(f, bytes) in &chunks {
                self.net.push_chunk(now, f, bytes, self.ops);
            }
        }
    }
}

/// Run `ops` over two nets side by side — `push[1]` the reference way of
/// pushing, `oracle_retirement` making the second net retire one flow at a
/// time — and hold them to each other after EVERY op: the same deliveries
/// in the same order (taken and still buffered), the same `active` list and
/// link lists, the same free list and id table (so the same slot for the
/// next flow), bit-identical heads and rates in every slot, the same
/// recompute count and next completion, a generation that moved iff the
/// other's did (the same generation when both push alike), and a clean
/// `audit_waterfill`; at the end their `FlowStart`/`FlowEnd` traces match.
pub(super) fn lockstep(
    caps: &[f64],
    ops: &[Op],
    push: [Push; 2],
    oracle_retirement: bool,
) -> Result<(), TestCaseError> {
    let mut scripts = push.map(|p| Script::new(caps, p));
    if oracle_retirement {
        scripts[1].net.index.retire_one_at_a_time();
    }
    let sinks = [memres_trace::shared(), memres_trace::shared()];
    for (s, sink) in scripts.iter_mut().zip(&sinks) {
        s.net.set_tracer(sink.clone());
    }
    for op in ops {
        let gens = scripts.each_ref().map(|s| s.net.gen());
        let [got, want] = scripts.each_mut().map(|s| s.apply(op));
        prop_assert_eq!(got, want, "delivery order");
        let [net, oracle] = scripts.each_mut().map(|s| &mut s.net);
        prop_assert_eq!(net.gen() != gens[0], oracle.gen() != gens[1], "staleness");
        if push[0] == push[1] {
            prop_assert_eq!(net.gen(), oracle.gen());
        }
        prop_assert_eq!(net.next_event(), oracle.next_event());
        prop_assert_eq!(net.index.active(), oracle.index.active());
        prop_assert_eq!(net.index.on_links(), oracle.index.on_links());
        prop_assert_eq!(net.slab.layout(), oracle.slab.layout());
        prop_assert_eq!(&net.delivered, &oracle.delivered);
        prop_assert_eq!(net.recomputes, oracle.recomputes);
        prop_assert_eq!(net.slab.hot_bits(), oracle.slab.hot_bits());
        prop_assert_eq!(net.audit_waterfill(), Ok(()));
    }
    let [got, want] = sinks.map(|s| format!("{:?}", s.borrow().events()));
    prop_assert_eq!(got, want, "flow trace");
    Ok(())
}
