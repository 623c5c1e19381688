//! The two drain disciplines (DESIGN.md §4.3): what queueing a chunk does to
//! a flow and how a byte budget empties its queue. A FIFO flow delivers its
//! chunks in push order, the front one first; a *shared* flow splits its rate
//! evenly among its queued members in virtual time (processor sharing), each
//! completing when its own bytes have moved. Either way [`Hot::head`] ends up
//! the real bytes to the flow's next completion, which is all the rest of
//! the net reads of a queue.

use super::slab::{Chunk, Cold, Hot, Slab};
use super::waterfill::Soonest;
use super::Delivered;
use std::collections::VecDeque;

/// [`Hot::head`] of a shared flow.
fn shared_need<T>(queue: &VecDeque<Chunk<T>>, ps_drained: f64) -> f64 {
    queue.front().map_or(0.0, |head| {
        (head.bytes() - ps_drained).max(0.0) * queue.len() as f64
    })
}

/// Queue `bytes > 0` under `tag` on one flow; `true` if that woke it from
/// idle, so it must be activated.
pub(super) fn push<T>(hot: &mut Hot, cold: &mut Cold<T>, bytes: f64, tag: T) -> bool {
    let (queue, ps_drained) = cold.members_mut();
    let was_idle = queue.is_empty();
    if hot.shared() {
        if was_idle {
            // Fresh active period: reset the virtual clock so targets
            // stay small and float precision stays uniform per period.
            *ps_drained = 0.0;
        }
        // Member target in virtual time; sorted ascending, ties FIFO.
        let target = *ps_drained + bytes;
        let at = queue.partition_point(|c| c.bytes() <= target);
        queue.insert(at, Chunk::new(target, tag));
        *hot.head_mut() = shared_need(queue, *ps_drained);
    } else {
        if was_idle {
            *hot.head_mut() = bytes;
        }
        queue.push_back(Chunk::new(bytes, tag));
    }
    was_idle
}

/// Spend `budget` real bytes on a shared flow; `true` if it drained.
///
/// Processor sharing in virtual time: `k` members advance in lockstep at
/// rate/k each, so moving the front member to its target costs
/// `k * (target - ps_drained)` real bytes. Members tied at the same target
/// all complete on the same budget, so keep draining zero-need heads even
/// once the budget is spent.
fn drain_shared<T>(
    hot: &mut Hot,
    cold: &mut Cold<T>,
    mut budget: f64,
    delivered: &mut Vec<Delivered<T>>,
) -> bool {
    let flow = cold.id();
    let (queue, ps_drained) = cold.members_mut();
    while let Some(head) = queue.pop_front() {
        let k = (queue.len() + 1) as f64;
        let need = (head.bytes() - *ps_drained).max(0.0) * k;
        // Tolerance: a member whose remainder is within rounding
        // noise of the budget counts as delivered.
        if need <= budget + 1e-6 {
            budget = (budget - need).max(0.0);
            *ps_drained = ps_drained.max(head.bytes());
            let tag = head.into_tag();
            delivered.push(Delivered { flow, tag });
        } else {
            *ps_drained += budget / k;
            queue.push_front(head);
            break;
        }
    }
    *hot.head_mut() = shared_need(queue, *ps_drained);
    queue.is_empty()
}

/// Spend `budget` real bytes on a FIFO flow; `true` if it drained.
fn drain_fifo<T>(
    hot: &mut Hot,
    cold: &mut Cold<T>,
    mut budget: f64,
    delivered: &mut Vec<Delivered<T>>,
) -> bool {
    let flow = cold.id();
    let (queue, _) = cold.members_mut();
    while budget > 0.0 {
        // Tolerance: a chunk whose remainder is within rounding noise
        // of the budget counts as delivered.
        if hot.head() > budget + 1e-6 {
            *hot.head_mut() -= budget;
            return false;
        }
        budget -= hot.head();
        let Some(c) = queue.pop_front() else { break };
        delivered.push(Delivered {
            flow,
            tag: c.into_tag(),
        });
        *hot.head_mut() = queue.front().map_or(0.0, Chunk::bytes);
    }
    queue.is_empty()
}

#[derive(Default)]
pub(super) struct Drain {
    /// Scratch of [`Drain::advance`]: the slots it emptied.
    emptied: Vec<u32>,
}

impl Drain {
    /// Move every flow of `active` forward `dt > 0` seconds at its current
    /// rate, pushing chunk completions onto `delivered` in `active` order.
    /// Rates are constant over the interval, so in-interval completions are
    /// exact. Returns the soonest completion among the flows the interval
    /// leaves queued, and the slots of the ones it drained in `active` order.
    pub(super) fn advance<T>(
        &mut self,
        dt: f64,
        slab: &mut Slab<T>,
        active: &[u32],
        delivered: &mut Vec<Delivered<T>>,
    ) -> (Soonest, &[u32]) {
        self.emptied.clear();
        let mut next = Soonest::default();
        for &slot in active {
            let (hot, cold) = slab.row_mut(slot);
            if hot.rate() <= 0.0 {
                continue;
            }
            let budget = hot.rate() * dt;
            let drained = if hot.shared() {
                drain_shared(hot, cold, budget, delivered)
            } else {
                drain_fifo(hot, cold, budget, delivered)
            };
            if drained {
                self.emptied.push(slot);
            } else {
                next.offer(hot);
            }
        }
        (next, &self.emptied)
    }
}

#[cfg(test)]
mod tests {
    use crate::flow::script::drain_all;
    use crate::flow::FlowNet;
    use memres_des::time::SimTime;
    use memres_des::Bytes;
    use proptest::prelude::*;

    #[test]
    fn chunks_deliver_fifo_with_individual_tags() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(10.0), 1u32);
        net.push_chunk(SimTime::ZERO, f, Bytes(10.0), 2u32);
        net.push_chunk(SimTime::ZERO, f, Bytes(10.0), 3u32);
        let done = drain_all(&mut net);
        assert_eq!(done.iter().map(|d| d.1).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!((done[2].0.as_secs_f64() - 3.0).abs() < 1e-6);
        // Flow persists (not auto-close), idle at rate 0.
        assert_eq!(net.flow_rate(f), Some(0.0));
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn shared_flow_processor_shares_among_members() {
        // 90 B/s link, members of 10/20/30 bytes: PS completes them at
        // t = 1/3 (10B at 30 each), 5/9 (+10B at 45 each), 2/3 (+10B at 90).
        let mut net = FlowNet::new();
        let l = net.add_link(90.0);
        let f = net.open_shared_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(10.0), 1u32);
        net.push_chunk(SimTime::ZERO, f, Bytes(20.0), 2u32);
        net.push_chunk(SimTime::ZERO, f, Bytes(30.0), 3u32);
        let done = drain_all(&mut net);
        assert_eq!(done.iter().map(|d| d.1).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!((done[0].0.as_secs_f64() - 1.0 / 3.0).abs() < 1e-6);
        assert!((done[1].0.as_secs_f64() - 5.0 / 9.0).abs() < 1e-6);
        // Work conservation: 60 bytes through 90 B/s.
        assert!((done[2].0.as_secs_f64() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn shared_flow_small_late_member_overtakes() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f = net.open_shared_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(1000.0), 1u32);
        // Joins at t=0.5 with 1 byte: at 50 B/s each it finishes long before
        // the big member despite arriving later.
        net.push_chunk(SimTime::from_secs_f64(0.5), f, Bytes(1.0), 2u32);
        let done = drain_all(&mut net);
        assert_eq!(done[0].1, 2);
        assert!(done[0].0 < done[1].0);
        // Total work conserved: 1001 bytes at 100 B/s.
        assert!((done[1].0.as_secs_f64() - 10.01).abs() < 1e-4);
    }

    #[test]
    fn shared_flow_equal_members_finish_together_fifo_tagged() {
        let mut net = FlowNet::new();
        let l = net.add_link(30.0);
        let f = net.open_shared_flow(SimTime::ZERO, vec![l], false);
        for i in 0..3u32 {
            net.push_chunk(SimTime::ZERO, f, Bytes(10.0), i);
        }
        let done = drain_all(&mut net);
        // Same byte count -> same completion instant, insertion order kept.
        assert_eq!(done.iter().map(|d| d.1).collect::<Vec<_>>(), vec![0, 1, 2]);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        }
        // Idle afterwards; a new active period restarts the virtual clock.
        net.push_chunk(SimTime::from_secs_f64(2.0), f, Bytes(30.0), 7u32);
        let done = drain_all(&mut net);
        assert!((done[0].0.as_secs_f64() - 3.0).abs() < 1e-6);
    }

    proptest! {
        /// Shared (processor-sharing) flows conserve work exactly: pushing
        /// any member mix at t=0 over a dedicated link drains in exactly
        /// sum(bytes)/capacity seconds, every member delivered once, and
        /// completions are nondecreasing in time.
        #[test]
        fn shared_flow_conserves_work(
            bytes in proptest::collection::vec(1.0f64..100.0, 1..40)
        ) {
            let mut net: FlowNet<u32> = FlowNet::new();
            let l = net.add_link(100.0);
            let f = net.open_shared_flow(SimTime::ZERO, vec![l], false);
            for (i, &b) in bytes.iter().enumerate() {
                net.push_chunk(SimTime::ZERO, f, Bytes(b), i as u32);
            }
            let done = drain_all(&mut net);
            prop_assert!(done.is_sorted_by_key(|d| d.0), "completions out of time order");
            let mut tags: Vec<u32> = done.iter().map(|d| d.1).collect();
            tags.sort_unstable();
            prop_assert_eq!(tags, (0..bytes.len() as u32).collect::<Vec<_>>());
            let end = done.last().expect("at least one member").0.as_secs_f64();
            let want = bytes.iter().sum::<f64>() / 100.0;
            prop_assert!(
                (end - want).abs() < 1e-4,
                "drain time {end} != total/capacity {want}"
            );
        }
    }
}
