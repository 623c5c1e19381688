//! The active index (DESIGN.md §4.3): which flows carry bytes, as slot lists
//! in ascending *flow-id* order — one over the whole net and one per link.
//! That order fixes the delivery order out of `advance` and the freeze order
//! of the water-filler, and must not depend on which slot a flow landed in;
//! the lists are private to this file, so [`ActiveIndex::activate`] and
//! [`ActiveIndex::retire`] are the only code that can reorder or edit them.

use super::slab::Slab;
use std::mem::size_of;

#[derive(Default)]
pub(super) struct ActiveIndex {
    /// Slots of flows with queued bytes.
    active: Vec<u32>,
    /// Per-link slots of active flows crossing it — the water-filling pass
    /// freezes a bottleneck's flows without scanning the whole active set.
    on_link: Vec<Vec<u32>>,
    /// Scratch of [`ActiveIndex::retire`], reused across calls.
    crossings: Vec<u64>,
    /// Retire flows through the one-at-a-time oracle instead (the proptest's
    /// reference net).
    #[cfg(test)]
    one_at_a_time: bool,
}

impl ActiveIndex {
    pub(super) fn add_link(&mut self) {
        self.on_link.push(Vec::new());
    }

    #[inline]
    pub(super) fn active(&self) -> &[u32] {
        &self.active
    }

    /// The per-link lists, by link index.
    #[inline]
    pub(super) fn on_links(&self) -> &[Vec<u32>] {
        &self.on_link
    }

    /// Insert `slot` into `list`, which is ordered by flow id.
    fn insert_by_id<T>(list: &mut Vec<u32>, slab: &Slab<T>, slot: u32) {
        let id = slab.id(slot);
        let before = |&x: &u32| slab.id(x) < id;
        // Flows mostly activate in the order they were opened: try the end
        // before paying a binary search's scattered reads.
        let pos = if list.last().is_none_or(before) {
            list.len()
        } else {
            list.partition_point(before)
        };
        list.insert(pos, slot);
    }

    /// Put a flow that just received its first chunk into the lists. The
    /// only activation path.
    pub(super) fn activate<T>(&mut self, slab: &Slab<T>, slot: u32) {
        for l in slab.links(slot) {
            Self::insert_by_id(&mut self.on_link[l.0 as usize], slab, slot);
        }
        Self::insert_by_id(&mut self.active, slab, slot);
    }

    /// Remove `gone` from `list` in one compaction pass. Both are ordered by
    /// flow id and every slot of `gone` is in `list`, so the pass is a merge
    /// that compares slots only: it starts at the first departure and, once
    /// the last one is passed, moves the tail down in one copy — for a single
    /// departure, exactly a `Vec::remove`.
    fn remove_sorted<T>(list: &mut Vec<u32>, slab: &Slab<T>, gone: impl IntoIterator<Item = u32>) {
        let mut gone = gone.into_iter();
        let mut next = gone.next();
        let Some(first) = next else {
            return;
        };
        let id = slab.id(first);
        let len = list.len();
        let mut read = list.partition_point(|&x| slab.id(x) < id);
        let mut write = read;
        while let Some(slot) = next {
            let kept = list[read]; // out of bounds: a departure `list` never held
            read += 1;
            if kept == slot {
                next = gone.next();
            } else {
                list[write] = kept;
                write += 1;
            }
        }
        list.copy_within(read.., write);
        list.truncate(write + len - read);
        debug_assert!(
            list.is_sorted_by_key(|&slot| slab.id(slot)),
            "retirement broke id order"
        );
    }

    /// Take `emptied` — slots of active flows, in ascending flow-id order —
    /// out of the lists, and their rates with them: one compaction pass over
    /// each link list they touch and one over `active`, however many flows
    /// drained in the interval. The only removal path; closing one active
    /// flow retires a batch of one.
    pub(super) fn retire<T>(&mut self, slab: &mut Slab<T>, emptied: &[u32]) {
        #[cfg(test)]
        if self.one_at_a_time {
            for &slot in emptied {
                self.deactivate(slab, slot);
            }
            return;
        }
        // One `link << 32 | position in emptied` key per link crossing:
        // sorted, each link's departures are contiguous and still in
        // ascending flow-id order.
        self.crossings.clear();
        for (i, &slot) in emptied.iter().enumerate() {
            slab.hot_mut(slot).set_rate(0.0);
            for l in slab.links(slot) {
                self.crossings.push((l.0 as u64) << 32 | i as u64);
            }
        }
        self.crossings.sort_unstable();
        for on_link in self.crossings.chunk_by(|a, b| a >> 32 == b >> 32) {
            Self::remove_sorted(
                &mut self.on_link[(on_link[0] >> 32) as usize],
                slab,
                on_link.iter().map(|&c| emptied[c as u32 as usize]),
            );
        }
        Self::remove_sorted(&mut self.active, slab, emptied.iter().copied());
    }

    /// Make this the reference net of the retirement proptest.
    #[cfg(test)]
    pub(super) fn retire_one_at_a_time(&mut self) {
        self.one_at_a_time = true;
    }

    /// The pre-PR-15 retirement, kept as the differential oracle: a binary
    /// search and a `Vec::remove` per list, one flow at a time.
    #[cfg(test)]
    fn deactivate<T>(&mut self, slab: &mut Slab<T>, slot: u32) {
        fn remove_by_id<T>(list: &mut Vec<u32>, slab: &Slab<T>, slot: u32) {
            let id = slab.id(slot);
            let pos = list.partition_point(|&x| slab.id(x) < id);
            assert!(list.get(pos) == Some(&slot), "flow missing from index");
            list.remove(pos);
        }
        for l in slab.links(slot) {
            remove_by_id(&mut self.on_link[l.0 as usize], slab, slot);
        }
        remove_by_id(&mut self.active, slab, slot);
        slab.hot_mut(slot).set_rate(0.0);
    }

    /// Heap bytes of the lists, by capacity.
    pub(super) fn heap_bytes(&self) -> usize {
        let on_link: usize = self.on_link.iter().map(Vec::capacity).sum();
        (on_link + self.active.capacity()) * size_of::<u32>()
            + self.on_link.capacity() * size_of::<Vec<u32>>()
    }

    /// What batched retirement must preserve, against a rebuild from the
    /// slab: `active` is exactly the flows with queued chunks in ascending id
    /// order, and each link list is what walking it along every path gives.
    pub(super) fn audit<T>(&self, slab: &Slab<T>) -> Result<(), String> {
        let mut active: Vec<u32> = slab.queued_slots().collect();
        active.sort_by_key(|&slot| slab.id(slot));
        let mut on_link = vec![Vec::new(); self.on_link.len()];
        for &slot in &active {
            for l in slab.links(slot) {
                on_link[l.0 as usize].push(slot);
            }
        }
        if active != self.active || on_link != self.on_link {
            return Err(format!(
                "active indexes drifted from the slab: {} flows have queued chunks, \
                 the active list holds {}",
                active.len(),
                self.active.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::script::{capacities, lockstep, ops, Push};
    use crate::flow::{FlowId, LinkId};
    use memres_des::time::SimTime;
    use proptest::prelude::*;
    use proptest::sample::Index;
    use std::collections::BTreeMap;

    /// The index test's model: every open flow's path by id, and whether it
    /// is active.
    type Model = BTreeMap<u64, ([LinkId; 2], bool)>;

    fn ids_where(flows: &Model, active: bool) -> Vec<u64> {
        let wanted = flows.iter().filter(|(_, f)| f.1 == active);
        wanted.map(|(&id, _)| id).collect()
    }

    proptest! {
        /// `activate` and `retire` by themselves — a slab to resolve ids and
        /// paths, no clock, no rates, no queues — keep `active` and every
        /// link list in ascending flow-id order under random open / activate
        /// / retire-a-batch / release sequences, whatever slots the flows
        /// landed in (released slots are reused, so slot order and id order
        /// part ways early), a link crossed twice listing the flow twice.
        #[test]
        fn lists_keep_id_order_whatever_the_slots(
            steps in proptest::collection::vec(
                (0u8..4, any::<Index>(), any::<Index>()),
                1..80,
            ),
        ) {
            const LINKS: usize = 3;
            let mut slab: Slab<()> = Slab::new();
            let mut index = ActiveIndex::default();
            (0..LINKS).for_each(|_| index.add_link());
            let mut flows = Model::new();
            for (kind, a, b) in steps {
                let idle = ids_where(&flows, false);
                let slot = |slab: &Slab<()>, id| slab.slot(FlowId(id)).expect("open flow");
                match kind {
                    0 => {
                        let path = [a, b].map(|i| LinkId(i.index(LINKS) as u32));
                        let flow = slab.alloc(SimTime::ZERO, path.to_vec(), false, false);
                        flows.insert(flow.0, (path, false));
                    }
                    1 if !idle.is_empty() => {
                        let id = idle[a.index(idle.len())];
                        index.activate(&slab, slot(&slab, id));
                        flows.entry(id).and_modify(|f| f.1 = true);
                    }
                    2 => {
                        // Every `every`-th active flow from `a`, ascending id.
                        let every = 1 + b.index(3);
                        let gone: Vec<u64> = ids_where(&flows, true)
                            .into_iter()
                            .skip(a.index(3))
                            .step_by(every)
                            .collect();
                        let slots: Vec<u32> = gone.iter().map(|&id| slot(&slab, id)).collect();
                        index.retire(&mut slab, &slots);
                        for id in gone {
                            flows.entry(id).and_modify(|f| f.1 = false);
                        }
                    }
                    3 if !idle.is_empty() => {
                        let id = idle[a.index(idle.len())];
                        slab.release(slot(&slab, id));
                        flows.remove(&id);
                    }
                    _ => {}
                }
                let active = ids_where(&flows, true);
                let ids = |list: &[u32]| -> Vec<u64> { list.iter().map(|&s| slab.id(s).0).collect() };
                prop_assert_eq!(ids(index.active()), &active[..]);
                for (l, on_link) in index.on_links().iter().enumerate() {
                    let crossings = |id: &u64| flows[id].0.iter().filter(|x| x.0 as usize == l).count();
                    let want: Vec<u64> = active
                        .iter()
                        .flat_map(|id| std::iter::repeat_n(*id, crossings(id)))
                        .collect();
                    prop_assert_eq!(ids(on_link), want, "link {}", l);
                }
            }
        }

        /// Batched retirement is the one-at-a-time oracle, observably and
        /// internally, over FIFO, shared, auto-close and persistent flows
        /// (what is compared after every op: [`lockstep`]).
        #[test]
        fn batched_retirement_matches_one_at_a_time_oracle(caps in capacities(), ops in ops(60)) {
            lockstep(&caps, &ops, [Push::Chunk; 2], true)?;
        }
    }
}
