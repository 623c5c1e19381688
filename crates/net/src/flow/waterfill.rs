//! The water-filler (DESIGN.md §4.3): progressive-filling max–min fair rates
//! over the active flows, the running minimum that turns rates into the next
//! completion ([`Soonest`]), and the textbook reference both the audit and
//! the property tests hold the incremental pass against.

use super::index::ActiveIndex;
use super::slab::{Hot, Slab};
use super::LinkId;
use memres_des::time::{SimTime, NANOS_PER_SEC};

/// Running minimum of `head / rate` over the flows offered to it: the time
/// to the next chunk completion. A minimum of exact quotients does not depend
/// on the order they are offered in, so the water-filling pass (freeze order),
/// `advance` and a scan (both flow-id order) all give the same bits.
#[derive(Default)]
pub(super) struct Soonest(Option<f64>);

impl Soonest {
    #[inline]
    pub(super) fn offer(&mut self, flow: &Hot) {
        if flow.rate() <= 0.0 {
            return;
        }
        let dt = flow.head() / flow.rate();
        if self.0.is_none_or(|best| dt < best) {
            self.0 = Some(dt);
        }
    }

    /// The instant `self` seconds after `last`, rounded up to the clock.
    pub(super) fn instant(self, last: SimTime) -> Option<SimTime> {
        self.0.map(|dt| {
            let ns = dt * NANOS_PER_SEC as f64;
            if ns >= (u64::MAX - last.as_nanos()) as f64 {
                SimTime::FAR_FUTURE
            } else {
                SimTime::from_nanos(last.as_nanos() + ns.ceil() as u64)
            }
        })
    }
}

/// Scratch buffers of the pass, reused across recomputes (no per-call
/// allocation).
#[derive(Default)]
pub(super) struct WaterFiller {
    remaining: Vec<f64>,
    unfrozen: Vec<u32>,
    live: Vec<u32>,
}

impl WaterFiller {
    /// Progressive-filling (max–min fair) rate allocation over the active
    /// set, driven by the per-link index. Returns the soonest completion at
    /// the new rates.
    pub(super) fn recompute<T>(
        &mut self,
        caps: &[f64],
        slab: &mut Slab<T>,
        index: &ActiveIndex,
    ) -> Soonest {
        let WaterFiller {
            remaining,
            unfrozen,
            live,
        } = self;
        let flows_on_link = index.on_links();
        let mut next = Soonest::default();
        remaining.clear();
        remaining.extend_from_slice(caps);
        unfrozen.clear();
        unfrozen.extend(flows_on_link.iter().map(|v| v.len() as u32));
        // Only links that still carry an unfrozen flow can be a bottleneck;
        // kept in ascending index order so ties break as a full scan would.
        live.clear();
        live.extend((0..caps.len() as u32).filter(|&i| unfrozen[i as usize] > 0));
        // Sentinel: unfrozen active flows carry a negative rate until the
        // water-filling pass freezes them.
        for &slot in index.active() {
            slab.hot_mut(slot).set_rate(-1.0);
        }
        // Each iteration saturates at least one link, so <= links iterations;
        // each link's flow list is scanned at most once as a bottleneck.
        loop {
            // Find the bottleneck link: the smallest per-flow fair share.
            let mut best: Option<(usize, f64)> = None;
            live.retain(|&i| {
                let i = i as usize;
                let n = unfrozen[i];
                if n == 0 {
                    return false;
                }
                let share = remaining[i].max(0.0) / n as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((i, share));
                }
                true
            });
            let Some((bottleneck, share)) = best else {
                break;
            };
            // Freeze every unfrozen flow crossing the bottleneck at `share`
            // (ascending flow id, like the pre-index implementation).
            for &slot in &flows_on_link[bottleneck] {
                let h = slab.hot_mut(slot);
                if h.rate() >= 0.0 {
                    continue;
                }
                h.set_rate(share);
                next.offer(h);
                for l in slab.links(slot) {
                    let li = l.0 as usize;
                    remaining[li] -= share;
                    unfrozen[li] -= 1;
                }
            }
        }
        next
    }
}

/// Textbook progressive filling, written independently of the incremental
/// pass: no per-link index, no scratch reuse, no incremental state — the
/// allocation rebuilt from capacities and the active flows' paths. Max–min
/// fair rates are unique, so any disagreement beyond float noise is an
/// engine bug. Rates come back in `paths` order.
pub(super) fn reference_rates<P: AsRef<[LinkId]>>(caps: &[f64], paths: &[P]) -> Vec<f64> {
    let mut remaining = caps.to_vec();
    let mut count = vec![0u32; caps.len()];
    for l in paths.iter().flat_map(|p| p.as_ref()) {
        count[l.0 as usize] += 1;
    }
    let mut rates = vec![-1.0f64; paths.len()];
    loop {
        let mut best: Option<(u32, f64)> = None;
        for i in 0..caps.len() {
            if count[i] == 0 {
                continue;
            }
            let share = remaining[i].max(0.0) / count[i] as f64;
            if best.is_none_or(|(_, s)| share < s) {
                best = Some((i as u32, share));
            }
        }
        let Some((bottleneck, share)) = best else {
            break;
        };
        for (rate, path) in rates.iter_mut().zip(paths) {
            let path = path.as_ref();
            if *rate >= 0.0 || !path.contains(&LinkId(bottleneck)) {
                continue;
            }
            *rate = share;
            for l in path {
                remaining[l.0 as usize] -= share;
                count[l.0 as usize] -= 1;
            }
        }
    }
    rates
}

/// Compare the rates the incremental pass left in the slab with
/// [`reference_rates`] over the same active flows. Returns a description of
/// the first mismatch.
pub(super) fn audit_rates<T>(
    caps: &[f64],
    slab: &Slab<T>,
    index: &ActiveIndex,
) -> Result<(), String> {
    let active = index.active();
    let paths: Vec<&[LinkId]> = active.iter().map(|&slot| slab.links(slot)).collect();
    for (&want, &slot) in reference_rates(caps, &paths).iter().zip(active) {
        let got = slab.hot(slot).rate();
        if (got - want).abs() > 1e-9 * want.max(1.0) {
            return Err(format!(
                "waterfill mismatch: flow {} incremental rate {got} \
                 vs from-scratch {want} ({} active flows, {} links)",
                slab.id(slot).0,
                active.len(),
                caps.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::script::{capacities, drain_all, ops, Push, Script};
    use crate::flow::FlowNet;
    use memres_des::Bytes;
    use proptest::prelude::*;

    #[test]
    fn two_flows_share_a_link_fairly() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f1 = net.open_flow(SimTime::ZERO, vec![l], true);
        let f2 = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, f1, Bytes(50.0), 1u32);
        net.push_chunk(SimTime::ZERO, f2, Bytes(50.0), 2u32);
        assert!((net.flow_rate(f1).unwrap() - 50.0).abs() < 1e-9);
        let done = drain_all(&mut net);
        assert_eq!(done.len(), 2);
        for (t, _) in done {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn bottleneck_elsewhere_frees_capacity() {
        // f1: A(100) only. f2: A + B(10). Max-min: f2 limited to 10 by B,
        // f1 then gets 90 on A.
        let mut net = FlowNet::new();
        let a = net.add_link(100.0);
        let b = net.add_link(10.0);
        let f1 = net.open_flow(SimTime::ZERO, vec![a], true);
        let f2 = net.open_flow(SimTime::ZERO, vec![a, b], true);
        net.push_chunk(SimTime::ZERO, f1, Bytes(90.0), 1u32);
        net.push_chunk(SimTime::ZERO, f2, Bytes(10.0), 2u32);
        assert!((net.flow_rate(f2).unwrap() - 10.0).abs() < 1e-9);
        assert!((net.flow_rate(f1).unwrap() - 90.0).abs() < 1e-9);
        // Both complete at t=1.0.
        for (t, _) in drain_all(&mut net) {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn idle_flow_consumes_no_bandwidth() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let _idle = net.open_flow(SimTime::ZERO, vec![l], false);
        let f = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, f, Bytes(100.0), 1u32);
        assert!((net.flow_rate(f).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn shared_flow_is_one_flow_to_the_waterfill() {
        // Aggregate flow with 10 members + one plain flow on the same link:
        // the aggregate gets half the capacity, not 10/11ths.
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let agg = net.open_shared_flow(SimTime::ZERO, vec![l], false);
        for i in 0..10u32 {
            net.push_chunk(SimTime::ZERO, agg, Bytes(50.0), i);
        }
        let plain = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, plain, Bytes(50.0), 99u32);
        assert!((net.flow_rate(agg).unwrap() - 50.0).abs() < 1e-9);
        assert!((net.flow_rate(plain).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn a_path_longer_than_a_slot_is_filled_like_any_other() {
        // Seven links: one more than a slot holds inline.
        let mut net: FlowNet<u32> = FlowNet::new();
        let links: Vec<LinkId> = (1..=7).map(|i| net.add_link(i as f64 * 10.0)).collect();
        let f = net.open_flow(SimTime::ZERO, links.clone(), true);
        net.push_chunk(SimTime::ZERO, f, Bytes(10.0), 1);
        assert_eq!(net.flow_rate(f), Some(10.0));
        for &l in &links {
            assert_eq!(net.link_rate(l), 10.0);
        }
        assert_eq!(drain_all(&mut net).len(), 1);
    }

    proptest! {
        /// After EVERY event of a random open / push / close / step / resize
        /// sequence over FIFO and shared, auto-close and persistent flows:
        /// `next_event` — asked after every event, so it answers from the
        /// memo whenever the event left one standing — equals a from-scratch
        /// scan bit for bit, and is `Some` exactly when a flow is active
        /// (what the engine arms a wake on without filling); the
        /// incremental pass's rates equal [`reference_rates`] over the flows
        /// the script's own record says are active to within 1e-9; every one
        /// of them is positive (work
        /// conservation at the flow level); and the rates crossing each link
        /// sum to at most its capacity. Left alone afterwards, the net
        /// delivers every chunk still queued.
        #[test]
        fn incremental_rates_match_the_reference_and_fit_every_link(
            caps in capacities(),
            ops in ops(30),
        ) {
            let mut s = Script::new(&caps, Push::Chunk);
            for op in &ops {
                s.apply(op);
                let memoised = s.net.next_event();
                prop_assert_eq!(memoised, s.net.scan_next(), "stale next-completion memo");
                prop_assert_eq!(
                    memoised.is_some(),
                    s.net.active_flows() > 0,
                    "a next completion exactly when a flow is active"
                );
                let (flows, paths) = s.active();
                let want = reference_rates(s.caps(), &paths);
                let mut used = vec![0.0f64; s.caps().len()];
                for ((f, path), w) in flows.iter().zip(&paths).zip(want) {
                    let got = s.net.flow_rate(*f).expect("tracked flow exists");
                    prop_assert!(
                        (got - w).abs() <= 1e-9 * w.max(1.0),
                        "rate mismatch after event: got {got}, reference {w}"
                    );
                    prop_assert!(got > 0.0, "active flow starved");
                    for l in path {
                        used[l.0 as usize] += got;
                    }
                }
                for (u, c) in used.iter().zip(s.caps()) {
                    prop_assert!(
                        *u <= c * (1.0 + 1e-9) + 1e-9,
                        "link oversubscribed after event: {u} > {c}"
                    );
                }
            }
            let queued = s.queued();
            prop_assert_eq!(drain_all(&mut s.net).len(), queued);
        }
    }
}
