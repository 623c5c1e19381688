//! Per-node scheduling state and the dispatch candidate set over it
//! (DESIGN.md §4.12): which nodes can take a launch, and which of those a
//! `Dispatch` has to visit.
//!
//! [`Nodes`] owns the state — free slots, liveness, blacklist, failure
//! counts — behind mutators that re-index the node they touch, so the
//! candidate set cannot drift from it. [`NodeSet`] is one bit per worker —
//! insert, remove and membership are a shift and a mask where the `BTreeSet`
//! it replaces paid a tree insert and a tree remove per task, and a walk in
//! ascending order touches `workers / 64` words. [`Candidates`] splits the
//! nodes that could accept a launch into the ones a visit might launch on
//! and the ones *parked* after a visit found nothing they may run.

// Node ids are minted by the cluster spec and every set is sized to it at
// construction; an out-of-range id would be an engine bug.
#![allow(
    clippy::indexing_slicing,
    reason = "every set is sized to the cluster spec that mints the node ids"
)]
// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

/// Per-node scheduling state with its candidate index. A node is
/// *available* — can accept a launch — when it is up, not blacklisted and
/// has a free slot; every mutator below re-derives that for the node it
/// changed, which is the whole of what used to be a call-site discipline.
pub(crate) struct Nodes {
    cores: u32,
    free_slots: Vec<u32>,
    /// Per-node liveness; crashed nodes get no dispatch and release no slots.
    up: Vec<bool>,
    /// Nodes excluded from scheduling after repeated task failures.
    blacklisted: Vec<bool>,
    /// Task-attributed failures per node (drives blacklisting).
    fail_counts: Vec<u32>,
    /// The available nodes, less the ones parked because a visit would find
    /// nothing they may run. `dispatch` walks the live ones, in rotation
    /// order, instead of scanning every worker — what makes 10k-node cells
    /// tractable.
    index: Candidates,
}

impl Nodes {
    /// `workers` nodes, all up with `cores` free slots each.
    pub fn new(workers: u32, cores: u32) -> Self {
        let n = workers as usize;
        Nodes {
            cores,
            free_slots: vec![cores; n],
            up: vec![true; n],
            blacklisted: vec![false; n],
            fail_counts: vec![0; n],
            index: Candidates::all(workers),
        }
    }

    #[inline]
    pub fn is_up(&self, node: u32) -> bool {
        self.up[node as usize]
    }

    /// Up and not blacklisted: may be given work, slots permitting.
    #[inline]
    pub fn usable(&self, node: u32) -> bool {
        self.up[node as usize] && !self.blacklisted[node as usize]
    }

    /// Whether `node` can accept a launch: the membership rule of the index.
    #[inline]
    pub fn available(&self, node: u32) -> bool {
        self.usable(node) && self.free_slots[node as usize] > 0
    }

    /// First usable node: the deterministic re-host target for pinned work
    /// and re-hosted shuffle rows.
    pub fn replacement(&self) -> Option<u32> {
        (0..self.up.len() as u32).find(|&n| self.usable(n))
    }

    /// Occupied slots over the nodes that are up.
    pub fn busy_slots(&self) -> u32 {
        let busy = |n: usize| self.cores - self.free_slots[n];
        (0..self.up.len()).filter(|&n| self.up[n]).map(busy).sum()
    }

    /// The candidate sets, to read.
    #[inline]
    pub fn index(&self) -> &Candidates {
        &self.index
    }

    /// The candidate sets, to park and un-park in: neither changes which
    /// nodes are available, so neither can break the invariant.
    #[inline]
    pub fn index_mut(&mut self) -> &mut Candidates {
        &mut self.index
    }

    #[inline]
    fn reindex(&mut self, node: u32) {
        self.index.set_available(node, self.available(node));
    }

    /// A task launched on `node`.
    #[inline]
    pub fn take_slot(&mut self, node: u32) {
        self.free_slots[node as usize] -= 1;
        self.reindex(node);
    }

    /// A task left `node`, which is up.
    #[inline]
    pub fn free_slot(&mut self, node: u32) {
        self.free_slots[node as usize] += 1;
        self.reindex(node);
    }

    /// `node` dies: down, with no slot to give.
    pub fn crash(&mut self, node: u32) {
        self.up[node as usize] = false;
        self.free_slots[node as usize] = 0;
        self.reindex(node);
    }

    /// Restart `node`'s executor. A crashed node comes back with every slot
    /// free; a live but blacklisted one is cleared (the fresh process starts
    /// with a clean fault record); either way its failure count resets.
    /// `Some(was_down)`, or `None` for a node in good standing (no change).
    pub fn restart(&mut self, node: u32) -> Option<bool> {
        let i = node as usize;
        let was_down = !self.up[i];
        if was_down {
            self.up[i] = true;
            self.free_slots[i] = self.cores;
        } else if self.blacklisted[i] {
            self.blacklisted[i] = false;
        } else {
            return None;
        }
        self.fail_counts[i] = 0;
        self.reindex(node);
        Some(was_down)
    }

    pub fn blacklist(&mut self, node: u32) {
        self.blacklisted[node as usize] = true;
        self.reindex(node);
    }

    /// Count a task failure against `node` if it is usable; true when that
    /// was its `limit`-th and the node is now blacklisted.
    pub fn blame(&mut self, node: u32, limit: u32) -> bool {
        if !self.usable(node) {
            return false;
        }
        self.fail_counts[node as usize] += 1;
        let reached = self.fail_counts[node as usize] >= limit;
        if reached {
            self.blacklist(node);
        }
        reached
    }

    /// The index invariant: the live and the parked nodes are exactly the
    /// available ones, each in one set.
    pub fn audit(&self) -> Result<(), String> {
        for node in 0..self.up.len() as u32 {
            let (live, parked) = (self.index.is_live(node), self.index.is_parked(node));
            let available = self.available(node);
            if (live && parked) || (live || parked) != available {
                return Err(format!(
                    "node {node}: candidate {live}, parked {parked}, available {available}"
                ));
            }
        }
        Ok(())
    }
}

/// Every *available* node — up, not blacklisted, at least one free slot — is
/// in exactly one of the two sets, and no other node is in either.
/// `dispatch` walks `live` alone.
///
/// A node is parked when a steal-round visit launched nothing on it, and
/// only in runs where a visit that launches nothing has no other effect
/// (`SimWorld::visits_are_pure`). It stays available — a parked node is why
/// pending work is *not* starved — and returns to `live` when something
/// could make a visit launch: its own slots or liveness change (any
/// [`Nodes`] mutator), or a task becomes runnable on it
/// ([`Candidates::unpark`], [`Candidates::unpark_all`]).
pub(crate) struct Candidates {
    live: NodeSet,
    parked: NodeSet,
}

impl Candidates {
    /// Every one of `workers` nodes available and live.
    fn all(workers: u32) -> Self {
        let mut live = NodeSet::new(workers as usize);
        (0..workers).for_each(|n| live.insert(n));
        Candidates {
            live,
            parked: NodeSet::new(workers as usize),
        }
    }

    /// Nodes that could accept a launch, parked or not.
    pub fn available(&self) -> usize {
        self.live.len() + self.parked.len()
    }

    /// How many of them are parked.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    pub fn is_live(&self, node: u32) -> bool {
        self.live.contains(node)
    }

    pub fn is_parked(&self, node: u32) -> bool {
        self.parked.contains(node)
    }

    /// Append the live nodes to `out` in rotation order: ascending from
    /// node `start`, then wrapping to the ones below it.
    pub fn live_rotated(&self, start: u32, out: &mut Vec<u32>) {
        self.live.extend_rotated(start, out);
    }

    /// Record whether `node` can accept a launch after a change to its free
    /// slots, liveness or blacklist status; an available node is live again.
    fn set_available(&mut self, node: u32, available: bool) {
        self.parked.remove(node);
        if available {
            self.live.insert(node);
        } else {
            self.live.remove(node);
        }
    }

    /// A visit to live `node` launched nothing and had no other effect.
    pub fn park(&mut self, node: u32) {
        if self.live.remove(node) {
            self.parked.insert(node);
        }
    }

    /// A task became runnable on `node` alone (a pinned task).
    pub fn unpark(&mut self, node: u32) {
        if self.parked.remove(node) {
            self.live.insert(node);
        }
    }

    /// A task any node may run became runnable.
    pub fn unpark_all(&mut self) {
        self.live.absorb(&mut self.parked);
    }
}

struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// The empty set over nodes `0..n`.
    pub fn new(n: usize) -> Self {
        NodeSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    pub fn insert(&mut self, node: u32) {
        let (w, bit) = (node as usize / 64, 1u64 << (node % 64));
        self.len += (self.words[w] & bit == 0) as usize;
        self.words[w] |= bit;
    }

    /// True when `node` was a member.
    pub fn remove(&mut self, node: u32) -> bool {
        let (w, bit) = (node as usize / 64, 1u64 << (node % 64));
        let was = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        self.len -= was as usize;
        was
    }

    pub fn contains(&self, node: u32) -> bool {
        self.words[node as usize / 64] & (1u64 << (node % 64)) != 0
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Append the members to `out` in rotation order: ascending from
    /// `start`, then wrapping to the ones below it.
    fn extend_rotated(&self, start: u32, out: &mut Vec<u32>) {
        if self.len == 0 {
            return;
        }
        let from = out.len();
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        let below = out[from..].partition_point(|&n| n < start);
        out[from..].rotate_left(below);
    }

    /// Move every member of `other` into this set, leaving `other` empty.
    /// The two must be disjoint sets over the same nodes.
    pub fn absorb(&mut self, other: &mut NodeSet) {
        if other.len == 0 {
            return;
        }
        for (mine, theirs) in self.words.iter_mut().zip(&mut other.words) {
            debug_assert_eq!(*mine & *theirs, 0, "absorbing an overlapping set");
            *mine |= std::mem::take(theirs);
        }
        self.len += std::mem::take(&mut other.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn rotated(s: &NodeSet, start: u32) -> Vec<u32> {
        let mut out = Vec::new();
        s.extend_rotated(start, &mut out);
        out
    }

    #[test]
    fn insert_remove_contains_and_len() {
        let mut s = NodeSet::new(130);
        assert_eq!(s.len(), 0);
        [0, 64, 129, 64].into_iter().for_each(|n| s.insert(n));
        assert_eq!(s.len(), 3);
        assert!(s.contains(129) && !s.contains(128));
        assert!(s.remove(64));
        assert!(!s.remove(64), "no longer a member");
        assert_eq!(s.len(), 2);
        assert_eq!(rotated(&s, 0), vec![0, 129]);
    }

    #[test]
    fn rotation_order_matches_the_btreeset_walk_it_replaces() {
        // Every start, on sizes around the word boundaries.
        for n in [1u32, 5, 63, 64, 65, 128, 200] {
            let mut s = NodeSet::new(n as usize);
            let mut reference = BTreeSet::new();
            for i in (0..n).filter(|i| i % 3 != 1 || i % 7 == 0) {
                s.insert(i);
                reference.insert(i);
            }
            for start in 0..n {
                let want: Vec<u32> = reference
                    .range(start..)
                    .chain(reference.range(..start))
                    .copied()
                    .collect();
                assert_eq!(rotated(&s, start), want, "n={n} start={start}");
            }
        }
    }

    #[test]
    fn candidates_keep_each_available_node_in_exactly_one_set() {
        let mut c = Candidates::all(70);
        assert_eq!((c.parked(), c.available()), (0, 70));
        c.park(3);
        c.park(69);
        c.park(3);
        assert_eq!((c.parked(), c.available()), (2, 70));
        assert!(c.is_parked(3) && !c.is_live(3) && c.is_live(4));
        // Out of slots: in neither set, parked or not; parking it is a no-op.
        c.set_available(3, false);
        c.set_available(4, false);
        c.park(4);
        c.unpark(4);
        assert_eq!((c.parked(), c.available()), (1, 68));
        assert!(!c.is_live(3) && !c.is_parked(3));
        // A slot change un-parks; so does a task pinned there, or anywhere.
        c.set_available(3, true);
        assert!(c.is_live(3));
        c.unpark(69);
        assert!(c.is_live(69) && c.parked() == 0);
        c.park(10);
        c.park(11);
        c.unpark_all();
        assert_eq!((c.parked(), c.available()), (0, 69));
        let mut live = Vec::new();
        c.live_rotated(68, &mut live);
        assert_eq!(live.len(), 69);
        assert_eq!(live[..3], [68, 69, 0]);
    }

    #[test]
    fn absorb_moves_every_member() {
        let mut a = NodeSet::new(100);
        let mut b = NodeSet::new(100);
        a.insert(3);
        b.insert(70);
        b.insert(99);
        a.absorb(&mut b);
        assert_eq!(rotated(&a, 0), vec![3, 70, 99]);
        assert_eq!(a.len(), 3);
        assert!(b.len() == 0 && rotated(&b, 0).is_empty());
    }

    #[test]
    fn restart_and_blame_follow_the_executor_life_cycle() {
        let mut n = Nodes::new(3, 2);
        assert_eq!(n.restart(1), None, "in good standing: nothing to do");
        // The second attributed failure blacklists; later ones are not counted.
        assert!(!n.blame(1, 2) && n.blame(1, 2) && !n.blame(1, 2));
        assert!(n.is_up(1) && !n.usable(1) && !n.available(1));
        assert_eq!(n.replacement(), Some(0));
        assert_eq!(n.restart(1), Some(false), "cleared, was not down");
        assert!(n.available(1) && !n.blame(1, 2), "failure count reset");
        n.take_slot(0);
        n.take_slot(2);
        n.crash(0);
        assert_eq!((n.busy_slots(), n.replacement()), (1, Some(1)));
        assert_eq!(n.restart(0), Some(true));
        assert_eq!(n.busy_slots(), 1, "back with every slot free");
        n.audit().expect("index in sync");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The audit as a property: after any sequence of mutators the
            /// live and parked sets are disjoint and together exactly the
            /// nodes that are up, not blacklisted and have a free slot —
            /// checked against a model kept beside the real thing.
            #[test]
            fn index_follows_every_mutator(
                ops in proptest::collection::vec((0u8..9, 0u32..70), 1..300)
            ) {
                const CORES: u32 = 2;
                let mut nodes = Nodes::new(70, CORES);
                // (up, blacklisted, free) per node.
                let mut model = vec![(true, false, CORES); 70];
                for (op, n) in ops {
                    let m = &mut model[n as usize];
                    match op {
                        0 if m.0 && !m.1 && m.2 > 0 => { nodes.take_slot(n); m.2 -= 1; }
                        1 if m.0 && m.2 < CORES => { nodes.free_slot(n); m.2 += 1; }
                        2 => { nodes.crash(n); m.0 = false; m.2 = 0; }
                        3 => {
                            let changed = nodes.restart(n);
                            prop_assert_eq!(changed, (!m.0 || m.1).then_some(!m.0));
                            if !m.0 { *m = (true, m.1, CORES); } else { m.1 = false; }
                        }
                        4 => { nodes.blacklist(n); m.1 = true; }
                        5 => nodes.index_mut().park(n),
                        6 => nodes.index_mut().unpark(n),
                        7 => nodes.index_mut().unpark_all(),
                        _ => {}
                    }
                    prop_assert_eq!(nodes.audit(), Ok(()));
                    let c = nodes.index();
                    for (i, &(up, bl, free)) in model.iter().enumerate() {
                        let (live, parked) = (c.is_live(i as u32), c.is_parked(i as u32));
                        prop_assert!(!(live && parked), "node {} in both sets", i);
                        prop_assert_eq!(live || parked, up && !bl && free > 0, "node {}", i);
                    }
                    let want = model.iter().filter(|m| m.0 && !m.1 && m.2 > 0).count();
                    prop_assert_eq!(c.available(), want);
                }
            }
        }
    }
}
