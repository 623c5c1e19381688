//! Max–min fair flow network.
//!
//! A [`FlowNet`] is a set of capacitated links and a set of flows, each flow
//! traversing a fixed list of links. Whenever the active-flow set or a link
//! capacity changes, rates are recomputed by progressive filling (water-
//! filling): repeatedly saturate the link with the smallest fair share and
//! freeze its flows at that rate. This is the standard fluid approximation
//! used by flow-level network simulators and reproduces both NIC contention
//! and shared-backbone (e.g. Lustre aggregate) bottlenecks.
//!
//! Flows carry FIFO *chunks*: independently tagged byte ranges whose
//! completions are reported individually. The shuffle layer aggregates the
//! per-(source,destination) traffic of many reduce tasks into one flow and
//! uses chunk tags to learn when each task's piece has been delivered,
//! keeping the event count linear in tasks rather than tasks × nodes.
//!
//! This file is the net itself — links, the clock, the staleness protocol
//! (`dirty`, the generation, the next-completion memo) and the order in which
//! a public operation consults its parts. The four decisions underneath each
//! have one owner in a child module, a struct whose fields only that module
//! can touch (map: DESIGN.md §4.3): where a flow's state lives
//! (`slab`), which flows are active and in what order (`index`), what
//! rate each gets (`waterfill`) and how a queue drains (`drain`).

// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use memres_des::sim::Gen;
use memres_des::time::SimTime;
use memres_des::Bytes;
use std::mem::size_of;

mod drain;
mod index;
mod slab;
mod waterfill;

use drain::Drain;
use index::ActiveIndex;
use slab::{Chunk, Slab};
use waterfill::{Soonest, WaterFiller};

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A chunk delivery notification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Delivered<T> {
    pub flow: FlowId,
    pub tag: T,
}

pub struct FlowNet<T> {
    /// Capacity of every link, bytes/sec.
    links: Vec<f64>,
    slab: Slab<T>,
    index: ActiveIndex,
    filler: WaterFiller,
    drain: Drain,
    last: SimTime,
    gen: Gen,
    delivered: Vec<Delivered<T>>,
    /// Count of rate recomputations (exposed for perf assertions in tests).
    pub recomputes: u64,
    /// Count of next-completion scans over the active set, i.e. of
    /// [`FlowNet::next_event`] calls the memo could not answer: the first
    /// after a member joined an active shared flow.
    pub next_scans: u64,
    /// Rates are stale; the next rate-dependent query recomputes them. All
    /// mutations landing at the same `SimTime` therefore coalesce into a
    /// single water-filling pass, and mutations that leave the active-flow
    /// set unchanged (e.g. queueing behind an already-active flow) never
    /// trigger one.
    dirty: bool,
    /// Memoised [`FlowNet::next_event`] answer. It depends on `last`, the
    /// active set and each active flow's `rate` and `head`, and the two
    /// passes that change those refill it as they go ([`Soonest`]): a
    /// recompute (which every change to the active set or a capacity forces
    /// through `dirty`) and an `advance` over `dt > 0` that drains no flow. A
    /// push on a shared flow (its `head` scales with the member count) only
    /// drops it; a chunk queued behind an active FIFO flow at the same
    /// instant changes none of them.
    next_memo: Option<Option<SimTime>>,
    /// Optional trace sink: flow activations/drains become `flow_start` /
    /// `flow_end` events (DESIGN.md §4.11). `None` costs nothing.
    tracer: Option<memres_trace::SharedSink>,
}

impl<T> Default for FlowNet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlowNet<T> {
    pub fn new() -> Self {
        FlowNet {
            links: Vec::new(),
            slab: Slab::new(),
            index: ActiveIndex::default(),
            filler: WaterFiller::default(),
            drain: Drain::default(),
            last: SimTime::ZERO,
            gen: Gen::default(),
            delivered: Vec::new(),
            recomputes: 0,
            next_scans: 0,
            dirty: false,
            next_memo: None,
            tracer: None,
        }
    }

    /// Attach a trace sink; flow activations and drains are reported to it.
    pub fn set_tracer(&mut self, sink: memres_trace::SharedSink) {
        self.tracer = Some(sink);
    }

    /// Recompute rates if any mutation since the last pass changed the
    /// active-flow set or a capacity.
    fn settle(&mut self) {
        if self.dirty {
            self.dirty = false;
            self.recomputes += 1;
            let next = self
                .filler
                .recompute(&self.links, &mut self.slab, &self.index);
            self.next_memo = Some(next.instant(self.last));
        }
    }

    pub fn gen(&self) -> Gen {
        self.gen
    }

    pub fn add_link(&mut self, capacity: f64) -> LinkId {
        assert!(capacity > 0.0 && capacity.is_finite());
        self.links.push(capacity);
        self.index.add_link();
        LinkId(self.links.len() as u32 - 1)
    }

    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize]
    }

    /// Re-rate `link`. The rates go stale only if an active flow crosses it:
    /// on an idle link no rate can move, so no recompute is owed.
    pub fn set_link_capacity(&mut self, now: SimTime, link: LinkId, capacity: f64) {
        assert!(capacity > 0.0 && capacity.is_finite());
        self.advance(now);
        let l = link.0 as usize;
        if (self.links[l] - capacity).abs() > f64::EPSILON {
            self.links[l] = capacity;
            if !self.index.on_links()[l].is_empty() {
                self.dirty = true;
            }
            self.gen.bump();
        }
    }

    /// Open a flow along `links`. With `auto_close`, the flow disappears once
    /// its last chunk is delivered; otherwise it idles awaiting more chunks.
    pub fn open_flow(&mut self, now: SimTime, links: Vec<LinkId>, auto_close: bool) -> FlowId {
        self.open_flow_inner(now, links, auto_close, false)
    }

    /// Open a *shared* (processor-sharing) flow: its allocated rate is split
    /// evenly among queued chunks, each completing when its own bytes have
    /// moved. This is the aggregate-flow primitive for rack-level collapse:
    /// one flow per rack pair, one chunk per collapsed member transfer.
    pub fn open_shared_flow(
        &mut self,
        now: SimTime,
        links: Vec<LinkId>,
        auto_close: bool,
    ) -> FlowId {
        self.open_flow_inner(now, links, auto_close, true)
    }

    fn open_flow_inner(
        &mut self,
        now: SimTime,
        links: Vec<LinkId>,
        auto_close: bool,
        shared: bool,
    ) -> FlowId {
        for l in &links {
            assert!((l.0 as usize) < self.links.len(), "unknown link {l:?}");
        }
        self.advance(now);
        // An empty flow does not consume bandwidth; no recompute needed yet.
        self.slab.alloc(now, links, shared, auto_close)
    }

    /// Enqueue `bytes` on a flow; the `tag` comes back via [`FlowNet::poll`] when the
    /// chunk has been fully delivered. A batch of one.
    pub fn push_chunk(&mut self, now: SimTime, flow: FlowId, bytes: Bytes, tag: T)
    where
        T: Clone,
    {
        self.push_chunks(now, tag, &[(flow, bytes)]);
    }

    /// Enqueue one chunk per `(flow, bytes)` pair, all carrying `tag` — a
    /// reducer launch queueing its piece towards every source. Observably
    /// the pushes one after another, at the cost of one: the clock advances
    /// once, and the rates, the memo and the generation are invalidated once.
    /// Flows woken from idle are activated one by one — a first activation
    /// is an append.
    pub fn push_chunks(&mut self, now: SimTime, tag: T, chunks: &[(FlowId, Bytes)])
    where
        T: Clone,
    {
        self.advance(now);
        if chunks.is_empty() {
            return;
        }
        for &(flow, bytes) in chunks {
            let bytes = bytes.get();
            assert!(bytes >= 0.0 && bytes.is_finite());
            // Callers hold a FlowId from open_flow; close_flow invalidates
            // it. A miss is engine corruption, not recoverable state.
            #[expect(clippy::expect_used, reason = "FlowId handles come from open_flow")]
            let slot = self.slab.slot(flow).expect("push_chunk on unknown flow");
            let tag = tag.clone();
            if bytes == 0.0 {
                self.delivered.push(Delivered { flow, tag });
                continue;
            }
            let (hot, cold) = self.slab.row_mut(slot);
            let woke = drain::push(hot, cold, bytes, tag);
            cold.note_push(now, bytes, woke);
            if woke {
                self.index.activate(&self.slab, slot);
                self.dirty = true;
                if let Some(tr) = &self.tracer {
                    tr.borrow_mut()
                        .emit(now, memres_trace::TraceEvent::FlowStart { flow: flow.0 });
                }
            } else if hot.shared() {
                // A member joined an active shared flow: its head moved.
                self.next_memo = None;
            }
        }
        self.gen.bump();
    }

    /// Size the chunk queue of an open flow for the most chunks it will hold
    /// at once, when the caller knows (a persistent fetch flow holds one per
    /// task slot of its destination): the queue is then allocated once, not
    /// regrown on the way there.
    pub fn reserve_chunks(&mut self, flow: FlowId, chunks: usize) {
        if let Some(slot) = self.slab.slot(flow) {
            self.slab.queue_mut(slot).reserve_exact(chunks);
        }
    }

    /// Make room for `flows` more open flows at once, when the caller knows
    /// how many it can open (a fetch stage: one per source, destination and
    /// serving kind). Free slots count toward it; the slab then grows once,
    /// to exactly that, not by doubling its way there.
    pub fn reserve_flows(&mut self, flows: usize) {
        self.slab.reserve(flows);
    }

    /// Drop a flow and any undelivered chunks (returns their tags). Closing
    /// an idle flow only gives its slot back: nothing the clock, a rate or an
    /// armed wake depends on changes, so it neither advances nor bumps the
    /// generation.
    pub fn close_flow(&mut self, now: SimTime, flow: FlowId) -> Vec<T> {
        let Some(slot) = self.slab.slot(flow) else {
            return Vec::new();
        };
        if self.slab.queue_mut(slot).is_empty() {
            self.slab.release(slot);
            return Vec::new();
        }
        self.advance(now);
        self.gen.bump();
        // The advance may have delivered the rest, and auto-closed the flow.
        let Some(slot) = self.slab.slot(flow) else {
            return Vec::new();
        };
        let queue = std::mem::take(self.slab.queue_mut(slot));
        if !queue.is_empty() {
            self.index.retire(&mut self.slab, &[slot]);
            self.dirty = true;
        }
        self.slab.release(slot);
        queue.into_iter().map(Chunk::into_tag).collect()
    }

    pub fn active_flows(&self) -> usize {
        self.index.active().len()
    }

    /// Flows open right now, idle persistent ones included.
    pub fn open_flows(&self) -> usize {
        self.slab.open()
    }

    /// Slots in the slab: the most flows ever open at once.
    pub fn slab_len(&self) -> usize {
        self.slab.len()
    }

    /// Slots the slab holds before it must grow: what
    /// [`FlowNet::reserve_flows`] sized, or what doubling reached.
    pub fn slab_capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// Advance fluid state to `now`, harvesting chunk completions along the
    /// way. Every mutating operation advances first, so `last` always equals
    /// the time of the most recent mutation and stale rates can only ever
    /// span a zero-length interval — `settle` here therefore recomputes
    /// before any time actually passes on them.
    fn advance(&mut self, now: SimTime) {
        assert!(now >= self.last, "FlowNet clock went backwards");
        let dt = now.since(self.last).as_secs_f64();
        self.last = now;
        if dt <= 0.0 {
            return;
        }
        self.settle();
        self.next_memo = None;
        let active = self.index.active();
        // Soonest completion among the flows this interval leaves queued.
        let (next, emptied) = self
            .drain
            .advance(dt, &mut self.slab, active, &mut self.delivered);
        if emptied.is_empty() {
            // Same flows at the same rates: what the pass saw is the answer.
            self.next_memo = Some(next.instant(self.last));
            return;
        }
        self.index.retire(&mut self.slab, emptied);
        self.dirty = true;
        for &slot in emptied {
            if let Some(tr) = &self.tracer {
                let f = self.slab.cold(slot);
                let (since, bytes) = f.period();
                tr.borrow_mut().emit(
                    self.last,
                    memres_trace::TraceEvent::FlowEnd {
                        flow: f.id().0,
                        bytes: Bytes(bytes),
                        dur: self.last.since(since),
                    },
                );
            }
            if self.slab.hot(slot).auto_close() {
                self.slab.release(slot);
            }
        }
    }

    /// From-scratch scan for the next chunk completion. Scans only active
    /// flows (idle persistent flows cost nothing).
    fn scan_next(&self) -> Option<SimTime> {
        let mut next = Soonest::default();
        for &slot in self.index.active() {
            next.offer(self.slab.hot(slot));
        }
        next.instant(self.last)
    }

    /// Instant of the next chunk completion, or `None` when idle. Memoised:
    /// asking again before anything the scan reads has changed is O(1).
    pub fn next_event(&mut self) -> Option<SimTime> {
        self.settle();
        if let Some(at) = self.next_memo {
            return at;
        }
        self.next_scans += 1;
        let at = self.scan_next();
        self.next_memo = Some(at);
        at
    }

    /// Advance to `now` and take the deliveries that are due.
    pub fn poll(&mut self, now: SimTime) -> Vec<Delivered<T>> {
        self.advance(now);
        if !self.delivered.is_empty() {
            self.gen.bump();
        }
        std::mem::take(&mut self.delivered)
    }

    /// Current rate of a flow in bytes/sec (0 while idle). Test hook.
    pub fn flow_rate(&mut self, flow: FlowId) -> Option<f64> {
        self.settle();
        self.slab.slot(flow).map(|s| self.slab.hot(s).rate())
    }

    /// Aggregate allocated rate crossing `link` right now, bytes/sec — the
    /// sum of the active flows' fair-share rates on it (settles first). The
    /// metrics sampler divides this by [`FlowNet::link_capacity`] to report
    /// per-link utilization (DESIGN.md §4.16); O(active flows on the link).
    pub fn link_rate(&mut self, link: LinkId) -> f64 {
        self.settle();
        self.index
            .on_links()
            .get(link.0 as usize)
            .map(|slots| slots.iter().map(|&s| self.slab.hot(s).rate()).sum())
            .unwrap_or(0.0)
    }

    /// Heap bytes held right now: the slab, the chunk queues and the active
    /// indexes, by capacity (for `SimWorld::heap_estimate_bytes`).
    pub fn heap_bytes(&self) -> usize {
        self.slab.heap_bytes()
            + self.index.heap_bytes()
            + self.delivered.capacity() * size_of::<Delivered<T>>()
    }

    /// Differential audit: check the active indexes against a rebuild from
    /// the slab, recompute the whole allocation by textbook progressive
    /// filling and compare it with the incremental solver's current rates,
    /// and rescan for the next completion and compare it, bit for bit, with
    /// the memoised answer if one is held. Returns a description of the first
    /// mismatch (fuzz oracle 1; see DESIGN.md §4.13).
    pub fn audit_waterfill(&mut self) -> Result<(), String> {
        self.index.audit(&self.slab)?;
        self.settle();
        waterfill::audit_rates(&self.links, &self.slab, &self.index)?;
        if let Some(memo) = self.next_memo {
            let fresh = self.scan_next();
            if memo != fresh {
                return Err(format!(
                    "next-completion memo is stale: holds {memo:?}, a fresh scan of \
                     {} active flows gives {fresh:?}",
                    self.active_flows()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod script;

#[cfg(test)]
mod tests {
    use super::script::{capacities, drain_all, lockstep, ops, Push};
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_flow_single_link() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, f, Bytes(50.0), 1u32);
        let done = drain_all(&mut net);
        assert_eq!(done.len(), 1);
        assert!((done[0].0.as_secs_f64() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn departures_speed_up_survivors() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f1 = net.open_flow(SimTime::ZERO, vec![l], true);
        let f2 = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, f1, Bytes(25.0), 1u32); // done at t=0.5 at rate 50
        net.push_chunk(SimTime::ZERO, f2, Bytes(75.0), 2u32); // 25 by 0.5, then 50 @ 100/s -> t=1.0
        let done = drain_all(&mut net);
        assert_eq!(done[0].1, 1);
        assert!((done[0].0.as_secs_f64() - 0.5).abs() < 1e-6);
        assert_eq!(done[1].1, 2);
        assert!((done[1].0.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn late_arrival_shares_from_then_on() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f1 = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, f1, Bytes(100.0), 1u32);
        let f2 = net.open_flow(SimTime::from_secs_f64(0.5), vec![l], true);
        net.push_chunk(SimTime::from_secs_f64(0.5), f2, Bytes(50.0), 2u32);
        let done = drain_all(&mut net);
        // Both have 50 at t=0.5 sharing 100 -> both done at 1.5.
        assert_eq!(done.len(), 2);
        for (t, _) in done {
            assert!((t.as_secs_f64() - 1.5).abs() < 1e-6);
        }
    }

    #[test]
    fn capacity_change_mid_flight() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, f, Bytes(100.0), 1u32);
        net.set_link_capacity(SimTime::from_secs_f64(0.5), l, 25.0);
        let done = drain_all(&mut net);
        // 50 left at t=0.5, rate 25 -> +2.0s.
        assert!((done[0].0.as_secs_f64() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn close_flow_returns_pending_tags() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(100.0), 1u32);
        net.push_chunk(SimTime::ZERO, f, Bytes(100.0), 2u32);
        let pending = net.close_flow(SimTime::from_secs_f64(0.1), f);
        assert_eq!(pending, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "FlowNet clock went backwards")]
    fn past_push_chunk_is_rejected() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f = net.open_flow(SimTime::from_secs_f64(1.0), vec![l], false);
        net.push_chunk(SimTime::from_secs_f64(0.5), f, Bytes(50.0), 1u32);
    }

    #[test]
    fn zero_byte_chunk_completes_immediately() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(0.0), 9u32);
        let got = net.poll(SimTime::ZERO);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].tag, 9);
    }

    #[test]
    fn push_behind_active_flow_skips_recompute() {
        // Queueing a chunk behind an already-active flow leaves the active
        // set unchanged: no water-filling pass may be spent on it.
        let mut net: FlowNet<u32> = FlowNet::new();
        let l = net.add_link(100.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(50.0), 1);
        assert_eq!(net.flow_rate(f), Some(100.0)); // settles
        let before = net.recomputes;
        net.push_chunk(SimTime::ZERO, f, Bytes(50.0), 2);
        assert_eq!(net.flow_rate(f), Some(100.0));
        assert_eq!(net.recomputes, before, "no-op mutation must not recompute");
    }

    #[test]
    fn same_time_arrivals_coalesce_into_one_recompute() {
        let mut net: FlowNet<u32> = FlowNet::new();
        let l = net.add_link(100.0);
        let base = net.recomputes;
        for i in 0..10u32 {
            let f = net.open_flow(SimTime::ZERO, vec![l], true);
            net.push_chunk(SimTime::ZERO, f, Bytes(10.0), i);
        }
        let _ = net.next_event(); // settles once for the whole burst
        assert_eq!(
            net.recomputes,
            base + 1,
            "same-instant arrivals must coalesce"
        );
    }

    #[test]
    fn re_rating_an_idle_link_owes_no_recompute() {
        // No active flow crosses `idle`, so no rate can move: the new
        // capacity is stored and published, and nothing is recomputed until
        // a flow wakes on the link — which then fills it at the new rate.
        let mut net: FlowNet<u32> = FlowNet::new();
        let busy = net.add_link(100.0);
        let idle = net.add_link(100.0);
        let f = net.open_flow(SimTime::ZERO, vec![busy], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(100.0), 1);
        assert_eq!(net.flow_rate(f), Some(100.0));
        let (before, gen) = (net.recomputes, net.gen());
        let t = SimTime::from_secs_f64(0.25);
        net.set_link_capacity(t, idle, 40.0);
        assert_ne!(net.gen(), gen, "a capacity change is published");
        assert_eq!(net.flow_rate(f), Some(100.0));
        assert_eq!(net.recomputes, before, "an idle link forced a recompute");
        let g = net.open_flow(t, vec![idle], true);
        net.push_chunk(t, g, Bytes(20.0), 2);
        assert_eq!(net.flow_rate(g), Some(40.0));
        assert_eq!(net.recomputes, before + 1);
        // Re-rating it while `g` crosses it does force one.
        net.set_link_capacity(t, idle, 80.0);
        assert_eq!(net.flow_rate(g), Some(80.0));
        assert_eq!(net.recomputes, before + 2);
        net.audit_waterfill()
            .expect("rates and memo agree with a rebuild");
    }

    /// Ask, apply `op`, ask again: did the second `next_event` have to
    /// rescan? Either way its answer must be what a fresh scan gives.
    fn rescans(net: &mut FlowNet<u32>, op: impl FnOnce(&mut FlowNet<u32>)) -> bool {
        net.next_event();
        let before = net.next_scans;
        op(net);
        let got = net.next_event();
        assert_eq!(got, net.scan_next(), "memoised answer differs from a scan");
        net.next_scans > before
    }

    #[test]
    fn same_instant_push_behind_active_fifo_flow_does_not_rescan() {
        let mut net: FlowNet<u32> = FlowNet::new();
        let l = net.add_link(100.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(50.0), 1);
        let at = net.next_event();
        assert!(!rescans(&mut net, |n| n.push_chunk(
            SimTime::ZERO,
            f,
            Bytes(50.0),
            2
        )));
        // Neither does asking twice, a zero-byte chunk, or opening a flow
        // that carries nothing yet.
        assert!(!rescans(&mut net, |_| ()));
        assert!(!rescans(&mut net, |n| n.push_chunk(
            SimTime::ZERO,
            f,
            Bytes(0.0),
            3
        )));
        assert!(!rescans(&mut net, |n| {
            n.open_flow(SimTime::ZERO, vec![l], true);
        }));
        assert_eq!(net.next_event(), at);
    }

    #[test]
    fn memo_follows_every_change_the_scan_reads() {
        // `rescans` holds every answer against a fresh scan. The water-
        // filling pass and `advance` refill the memo where they invalidate
        // it, so of all the changes the scan reads only a member joining an
        // active shared flow — its head moves, no rate does — costs a scan.
        let mut net: FlowNet<u32> = FlowNet::new();
        let l = net.add_link(100.0);
        let fifo = net.open_flow(SimTime::ZERO, vec![l], false);
        let shared = net.open_shared_flow(SimTime::ZERO, vec![l], false);
        let at = |net: &mut FlowNet<u32>| net.next_event().expect("a flow is active");
        // Activations.
        assert!(!rescans(&mut net, |n| n.push_chunk(
            SimTime::ZERO,
            fifo,
            Bytes(80.0),
            1
        )));
        let fifo_alone = at(&mut net);
        assert!(!rescans(&mut net, |n| n.push_chunk(
            SimTime::ZERO,
            shared,
            Bytes(30.0),
            2
        )));
        let two_flows = at(&mut net);
        assert!(two_flows != fifo_alone);
        // A member joining a shared flow moves its head's completion.
        assert!(rescans(&mut net, |n| n.push_chunk(
            SimTime::ZERO,
            shared,
            Bytes(30.0),
            3
        )));
        let two_members = at(&mut net);
        assert!(two_members > two_flows);
        assert!(!rescans(&mut net, |n| n.set_link_capacity(
            SimTime::ZERO,
            l,
            50.0
        )));
        let slower = at(&mut net);
        assert!(slower > two_members);
        // Time passing: heads shrink and the clock the answer is relative to
        // moves, even when nothing completes.
        assert!(!rescans(&mut net, |n| {
            assert!(n.poll(SimTime::from_secs_f64(0.1)).is_empty());
        }));
        assert!(!rescans(&mut net, |n| {
            n.close_flow(SimTime::from_secs_f64(0.1), shared);
        }));
        assert!(at(&mut net) != slower);
        // Closing an idle flow changes nothing the scan reads.
        let idle = net.open_flow(SimTime::from_secs_f64(0.1), vec![l], false);
        assert!(!rescans(&mut net, |n| {
            n.close_flow(SimTime::from_secs_f64(0.1), idle);
        }));
    }

    #[test]
    fn a_stale_flow_id_reaches_nothing_and_traced_ids_are_what_they_were() {
        use memres_trace::TraceEvent;
        let sink = memres_trace::shared();
        let mut net: FlowNet<u32> = FlowNet::new();
        net.set_tracer(sink.clone());
        let l = net.add_link(100.0);
        let a = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, a, Bytes(100.0), 1);
        let t1 = SimTime::from_secs_f64(1.0);
        assert_eq!(net.poll(t1), vec![Delivered { flow: a, tag: 1 }]);
        // `a` auto-closed; `b` takes over its slot under a fresh id.
        let b = net.open_flow(t1, vec![l], true);
        assert_eq!((a, b), (FlowId(0), FlowId(1)));
        assert_eq!(net.slab_len(), 1, "the freed slot is reused");
        assert_eq!(net.flow_rate(a), None);
        assert!(net.close_flow(t1, a).is_empty());
        net.push_chunk(t1, b, Bytes(100.0), 2);
        assert_eq!(net.flow_rate(b), Some(100.0), "closing `a` again hit `b`");
        let t2 = SimTime::from_secs_f64(2.0);
        assert_eq!(net.poll(t2), vec![Delivered { flow: b, tag: 2 }]);
        assert!(net.close_flow(t2, b).is_empty());
        assert!(net.close_flow(t2, FlowId(7)).is_empty(), "never opened");
        let flows: Vec<(bool, u64)> = sink
            .borrow()
            .events()
            .iter()
            .map(|e| match e.ev {
                TraceEvent::FlowStart { flow } => (true, flow),
                TraceEvent::FlowEnd { flow, .. } => (false, flow),
                ref other => panic!("unexpected trace event {other:?}"),
            })
            .collect();
        assert_eq!(flows, vec![(true, 0), (false, 0), (true, 1), (false, 1)]);
    }

    proptest! {
        /// A launch handed over in one `push_chunks` is the same launch
        /// pushed chunk by chunk — idle and active targets, FIFO and shared
        /// flows, zero-byte chunks, a flow named twice in one launch (what
        /// is compared after every op: [`lockstep`]).
        #[test]
        fn batched_push_matches_one_at_a_time(caps in capacities(), ops in ops(60)) {
            lockstep(&caps, &ops, [true, false].map(|batched| Push::Launch { batched }), false)?;
        }
    }
}
