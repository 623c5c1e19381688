//! The flow slab (DESIGN.md §4.3): where a flow's state lives. Three parallel
//! slot vectors — [`Hot`] (what every event scans), the path (what a
//! recompute walks) and [`Cold`] (what a push or a completion touches) —
//! plus the id→slot table and the free list. The rest of the net names a
//! flow by slot and reads or writes it through the accessors here: which
//! array a field sits in, that a closed flow's slot is reused, and that its
//! id never is, are this file's alone. A flow's id, path and discipline
//! (`shared`, `auto_close`) have no setter: they are fixed at [`Slab::alloc`].

use super::{FlowId, LinkId};
use memres_des::time::SimTime;
use std::collections::VecDeque;
use std::mem::size_of;

pub(super) struct Chunk<T> {
    /// FIFO flows: this chunk's bytes as pushed; the live remainder of the
    /// *front* chunk is [`Hot::head`]. Shared (processor-sharing) flows: the
    /// absolute virtual-time target — the value of the flow's `ps_drained`
    /// accumulator at which this member completes.
    bytes: f64,
    tag: T,
}

impl<T> Chunk<T> {
    pub(super) fn new(bytes: f64, tag: T) -> Self {
        Chunk { bytes, tag }
    }

    pub(super) fn bytes(&self) -> f64 {
        self.bytes
    }

    pub(super) fn into_tag(self) -> T {
        self.tag
    }
}

/// Per-slot state every event reads: the next-completion scan and the water-
/// filling pass touch nothing else, nor does `advance` for a FIFO flow that
/// completes no chunk, so they walk one contiguous array.
pub(super) struct Hot {
    rate: f64,
    /// Real bytes the flow must still move to deliver its front chunk: the
    /// front chunk's undelivered bytes (FIFO), or `k ×` the front member's
    /// virtual-time distance with `k` members queued (shared). `head / rate`
    /// is the flow's next completion either way. 0 while idle.
    head: f64,
    /// Processor-sharing semantics: the flow's allocated rate is divided
    /// evenly among its queued chunks ("members") instead of draining FIFO.
    /// Used for rack-level aggregate flows where each chunk stands for one
    /// collapsed per-pair transfer (DESIGN.md, rack aggregation).
    shared: bool,
    /// Remove the flow automatically when its queue drains.
    auto_close: bool,
}

impl Hot {
    #[inline]
    pub(super) fn rate(&self) -> f64 {
        self.rate
    }

    #[inline]
    pub(super) fn set_rate(&mut self, rate: f64) {
        self.rate = rate;
    }

    #[inline]
    pub(super) fn head(&self) -> f64 {
        self.head
    }

    #[inline]
    pub(super) fn head_mut(&mut self) -> &mut f64 {
        &mut self.head
    }

    #[inline]
    pub(super) fn shared(&self) -> bool {
        self.shared
    }

    #[inline]
    pub(super) fn auto_close(&self) -> bool {
        self.auto_close
    }
}

/// Paths this short are stored in the slot; the fabric's longest (store link
/// + NIC, rack uplink, core, rack downlink, NIC) is six links.
const INLINE_PATH: usize = 6;

/// The links a flow crosses.
enum Path {
    Inline {
        len: u8,
        links: [LinkId; INLINE_PATH],
    },
    Heap(Box<[LinkId]>),
}

impl Path {
    fn new(path: Vec<LinkId>) -> Path {
        if path.len() > INLINE_PATH {
            return Path::Heap(path.into_boxed_slice());
        }
        let mut links = [LinkId(0); INLINE_PATH];
        links[..path.len()].copy_from_slice(&path);
        Path::Inline {
            len: path.len() as u8,
            links,
        }
    }

    #[inline]
    fn links(&self) -> &[LinkId] {
        match self {
            Path::Inline { len, links } => &links[..*len as usize],
            Path::Heap(links) => links,
        }
    }
}

/// Per-slot state only a push, a completion or a close touches.
pub(super) struct Cold<T> {
    id: u64,
    queue: VecDeque<Chunk<T>>,
    /// Shared flows: cumulative per-member virtual bytes drained this active
    /// period. A member inserted when the accumulator reads `v` completes
    /// when it reaches `v + bytes`; advancing by `dt` at aggregate rate `R`
    /// with `k` members adds `R*dt/k`. Exact-sum: the real bytes moved are
    /// `k * Δaccumulator` summed piecewise, which telescopes to the pushed
    /// byte total when the queue drains.
    ps_drained: f64,
    /// Trace bookkeeping: when the current active period began, and the
    /// bytes queued during it (== bytes delivered once the queue drains).
    active_since: SimTime,
    period_bytes: f64,
}

impl<T> Cold<T> {
    pub(super) fn id(&self) -> FlowId {
        FlowId(self.id)
    }

    /// The queued chunks and, for a shared flow, the virtual clock its
    /// members are measured on.
    pub(super) fn members_mut(&mut self) -> (&mut VecDeque<Chunk<T>>, &mut f64) {
        (&mut self.queue, &mut self.ps_drained)
    }

    /// `bytes` were queued at `now`, on an idle flow (a new active period
    /// begins) or behind what it already carries.
    pub(super) fn note_push(&mut self, now: SimTime, bytes: f64, woke: bool) {
        if woke {
            self.active_since = now;
            self.period_bytes = 0.0;
        }
        self.period_bytes += bytes;
    }

    /// When the current active period began and the bytes queued during it.
    pub(super) fn period(&self) -> (SimTime, f64) {
        (self.active_since, self.period_bytes)
    }
}

/// `slot_of` entry of a closed flow.
const NO_SLOT: u32 = u32::MAX;

/// Slot `s` of a flow is `hot[s]`, `paths[s]`, `cold[s]`. Slots of closed
/// flows are reused, so the slab is as long as the most flows ever open at
/// once.
pub(super) struct Slab<T> {
    hot: Vec<Hot>,
    paths: Vec<Path>,
    cold: Vec<Cold<T>>,
    free: Vec<u32>,
    /// Slot of every flow id handed out so far ([`NO_SLOT`] once closed):
    /// ids are never reused, so a stale [`FlowId`] cannot reach the flow that
    /// took over its slot. Its length is the next id.
    slot_of: Vec<u32>,
}

impl<T> Slab<T> {
    pub(super) fn new() -> Self {
        Slab {
            hot: Vec::new(),
            paths: Vec::new(),
            cold: Vec::new(),
            free: Vec::new(),
            slot_of: Vec::new(),
        }
    }

    /// A slot for a new, idle flow along `links`, under a fresh id.
    pub(super) fn alloc(
        &mut self,
        now: SimTime,
        links: Vec<LinkId>,
        shared: bool,
        auto_close: bool,
    ) -> FlowId {
        let id = self.slot_of.len() as u64;
        let hot = Hot {
            rate: 0.0,
            head: 0.0,
            shared,
            auto_close,
        };
        let path = Path::new(links);
        let cold = Cold {
            id,
            queue: VecDeque::new(),
            ps_drained: 0.0,
            active_since: now,
            period_bytes: 0.0,
        };
        let slot = if let Some(slot) = self.free.pop() {
            let s = slot as usize;
            self.hot[s] = hot;
            self.paths[s] = path;
            self.cold[s] = cold;
            slot
        } else {
            assert!(self.hot.len() < NO_SLOT as usize, "flow slab full");
            self.hot.push(hot);
            self.paths.push(path);
            self.cold.push(cold);
            self.hot.len() as u32 - 1
        };
        self.slot_of.push(slot);
        FlowId(id)
    }

    /// Room for `flows` more open flows: the free slots take the first ones,
    /// and the three slot vectors grow once, to exactly the rest. Ids are
    /// never reused, so the id table makes room for all of them.
    pub(super) fn reserve(&mut self, flows: usize) {
        let more = flows.saturating_sub(self.free.len());
        self.hot.reserve_exact(more);
        self.paths.reserve_exact(more);
        self.cold.reserve_exact(more);
        self.slot_of.reserve_exact(flows);
    }

    /// Slot of an open flow.
    pub(super) fn slot(&self, flow: FlowId) -> Option<u32> {
        let slot = *self.slot_of.get(usize::try_from(flow.0).ok()?)?;
        (slot != NO_SLOT).then_some(slot)
    }

    /// Give the slot of a closed (and already inactive) flow back.
    pub(super) fn release(&mut self, slot: u32) {
        let cold = &mut self.cold[slot as usize];
        self.slot_of[cold.id as usize] = NO_SLOT;
        cold.queue = VecDeque::new();
        self.free.push(slot);
    }

    /// Slots in the slab: the most flows ever open at once.
    pub(super) fn len(&self) -> usize {
        self.hot.len()
    }

    /// Slots the slab holds before it must grow.
    pub(super) fn capacity(&self) -> usize {
        self.hot.capacity()
    }

    /// Flows open right now, idle ones included.
    pub(super) fn open(&self) -> usize {
        self.hot.len() - self.free.len()
    }

    pub(super) fn id(&self, slot: u32) -> FlowId {
        self.cold[slot as usize].id()
    }

    pub(super) fn links(&self, slot: u32) -> &[LinkId] {
        self.paths[slot as usize].links()
    }

    pub(super) fn hot(&self, slot: u32) -> &Hot {
        &self.hot[slot as usize]
    }

    pub(super) fn hot_mut(&mut self, slot: u32) -> &mut Hot {
        &mut self.hot[slot as usize]
    }

    pub(super) fn cold(&self, slot: u32) -> &Cold<T> {
        &self.cold[slot as usize]
    }

    pub(super) fn queue_mut(&mut self, slot: u32) -> &mut VecDeque<Chunk<T>> {
        &mut self.cold[slot as usize].queue
    }

    /// Both halves of a flow a drain discipline works on.
    pub(super) fn row_mut(&mut self, slot: u32) -> (&mut Hot, &mut Cold<T>) {
        (&mut self.hot[slot as usize], &mut self.cold[slot as usize])
    }

    /// Slots whose flow has queued chunks, in slot order (for audits).
    pub(super) fn queued_slots(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.cold.len() as u32).filter(|&slot| !self.cold[slot as usize].queue.is_empty())
    }

    /// Heap bytes held right now, by capacity: the three slot vectors, the
    /// chunk queues, spilled paths, the free list and the id table.
    pub(super) fn heap_bytes(&self) -> usize {
        let slots = self.hot.capacity() * size_of::<Hot>()
            + self.paths.capacity() * size_of::<Path>()
            + self.cold.capacity() * size_of::<Cold<T>>();
        let queues: usize = self
            .cold
            .iter()
            .map(|f| f.queue.capacity() * size_of::<Chunk<T>>())
            .sum();
        let spilled_paths: usize = self
            .paths
            .iter()
            .map(|p| match p {
                Path::Inline { .. } => 0,
                Path::Heap(links) => links.len() * size_of::<LinkId>(),
            })
            .sum();
        slots
            + queues
            + spilled_paths
            + (self.free.capacity() + self.slot_of.capacity()) * size_of::<u32>()
    }

    /// The free list and the id table, for tests that hold two nets to the
    /// same slot assignment.
    #[cfg(test)]
    pub(super) fn layout(&self) -> (&[u32], &[u32]) {
        (&self.free, &self.slot_of)
    }

    /// `(head, rate)` of every slot, open or free, as bits.
    #[cfg(test)]
    pub(super) fn hot_bits(&self) -> Vec<(u64, u64)> {
        let bits = |h: &Hot| (h.head.to_bits(), h.rate.to_bits());
        self.hot.iter().map(bits).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links(n: u32) -> Vec<LinkId> {
        (0..n).map(LinkId).collect()
    }

    #[test]
    fn slot_reuse_never_aliases_flow_ids() {
        let mut slab: Slab<u32> = Slab::new();
        let a = slab.alloc(SimTime::ZERO, links(1), false, true);
        let slot = slab.slot(a).expect("just opened");
        slab.release(slot);
        assert_eq!((slab.slot(a), slab.open()), (None, 0));
        // `b` takes over the slot under a fresh id; the stale id stays dead.
        let b = slab.alloc(SimTime::ZERO, links(2), true, false);
        assert_eq!((a, b), (FlowId(0), FlowId(1)));
        assert_eq!(slab.slot(b), Some(slot), "the freed slot is reused");
        assert_eq!((slab.len(), slab.open()), (1, 1));
        assert_eq!(slab.slot(a), None, "a stale id reached the reused slot");
        assert_eq!(slab.slot(FlowId(7)), None, "never opened");
        assert_eq!(slab.cold(slot).id(), b);
        assert_eq!(slab.links(slot), links(2));
        let hot = slab.hot(slot);
        assert!(hot.shared() && !hot.auto_close(), "the old flow's flags");
        // A third flow finds the free list empty and grows the slab.
        let c = slab.alloc(SimTime::ZERO, links(1), false, true);
        assert_eq!((slab.slot(c), slab.len()), (Some(1), 2));
    }

    #[test]
    fn long_paths_spill_out_of_the_slot() {
        // The slot sizes DESIGN.md §4.3 states (the slab must not outgrow
        // the map it replaced: `peak_heap_mb` is a bounded metric).
        assert_eq!((size_of::<Hot>(), size_of::<Path>()), (24, 32));
        assert_eq!(size_of::<Cold<u32>>(), 64);
        // The engine's tag is one packed `u64`, so a queued chunk and a
        // delivery are 16 B each.
        use super::super::Delivered;
        assert_eq!(size_of::<Chunk<u64>>(), 16);
        assert_eq!(size_of::<Delivered<u64>>(), 16);
        let mut slab: Slab<u32> = Slab::new();
        let short = slab.alloc(SimTime::ZERO, links(INLINE_PATH as u32), false, true);
        let inline_only = slab.heap_bytes();
        // Seven links: one more than a slot holds inline.
        let long = slab.alloc(SimTime::ZERO, links(7), false, true);
        let path = |f| slab.links(slab.slot(f).expect("open"));
        assert_eq!((path(short), path(long)), (&links(6)[..], &links(7)[..]));
        assert!(slab.heap_bytes() >= inline_only + 7 * size_of::<LinkId>());
    }
}
