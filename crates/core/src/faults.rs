//! # Fault injection & recovery policy (DESIGN.md §4.9)
//!
//! The paper's robustness observations — SSD garbage collection causing up
//! to 18× task-time variance (§V), shuffle stragglers under load imbalance
//! (§VII), Lustre DLM contention stalling fetches — all describe *partial
//! failure and degradation*. This module supplies the other half of the
//! memory-resident MapReduce story: Spark-style lineage fault tolerance
//! (the mechanism M3R, arXiv:1208.4168, deliberately trades away for speed).
//!
//! A [`FaultPlan`] is a *deterministic schedule* of fault events, fixed
//! before the run starts. Faults are ordinary simulation events: with the
//! same seed and the same plan, every run — at any `executor_threads`
//! setting — replays byte-identically. There is no randomness at fire time;
//! [`FaultPlan::seeded`] derives a pseudo-random plan from a seed *up
//! front*, so the schedule itself is reproducible.
//!
//! Recovery behavior (attempt caps, fetch backoff, blacklisting) is fixed at
//! Spark's defaults, three constants beside their one reader in
//! `world/recovery.rs`.

// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use memres_des::splitmix64;
use memres_des::time::SimDuration;

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// A worker node crashes: running tasks fail, cached partitions and
    /// in-memory shuffle buckets on the node are lost, its slots drop to
    /// zero. `restart: Some(d)` brings the node back (empty memory, disk
    /// files intact) after `d`; `None` is a permanent loss.
    NodeCrash {
        node: u32,
        restart: Option<SimDuration>,
    },
    /// The `nth_launch`-th task launch of the run (1-based, counted across
    /// all jobs and attempts) fails at the end of its execution — the
    /// classic "task died after doing the work" case, charging its full
    /// duration as wasted work before the retry.
    TaskFail { nth_launch: u64 },
    /// Executor memory loss on `node`: every cached partition the block
    /// manager holds there is dropped. The node itself keeps running;
    /// lineage recovery recomputes partitions on demand.
    BlockLoss { node: u32 },
    /// The SSD on `node` degrades: all its bandwidth parameters are scaled
    /// by `factor` in `(0, 1]` (worn-out flash, thermal throttling, or a
    /// failing channel). Layered on the fluid SSD model in
    /// `crates/storage/src/ssd.rs`.
    SsdDegrade { node: u32, factor: f64 },
    /// Transient network failure of shuffle fetches *from* `src`: every
    /// in-flight fetch that is pulling bytes from `src` fails and is
    /// retried with exponential backoff. Data is intact; only the transfer
    /// attempt is lost.
    FetchFail { src: u32 },
}

impl FaultKind {
    /// Stable machine name (trace `fault_injected` payload).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. } => "node_crash",
            FaultKind::TaskFail { .. } => "task_fail",
            FaultKind::BlockLoss { .. } => "block_loss",
            FaultKind::SsdDegrade { .. } => "ssd_degrade",
            FaultKind::FetchFail { .. } => "fetch_fail",
        }
    }

    /// The node the fault targets, if it targets one (`TaskFail` is keyed
    /// by launch ordinal, not node).
    pub fn node(&self) -> Option<u32> {
        match *self {
            FaultKind::NodeCrash { node, .. } => Some(node),
            FaultKind::BlockLoss { node } => Some(node),
            FaultKind::SsdDegrade { node, .. } => Some(node),
            FaultKind::FetchFail { src } => Some(src),
            FaultKind::TaskFail { .. } => None,
        }
    }
}

/// A scheduled fault: `kind` fires `after` the first job submission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    pub after: SimDuration,
    pub kind: FaultKind,
}

/// A deterministic schedule of faults for one engine run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder-style: add a fault `after` the first job submission.
    pub fn after(mut self, after: SimDuration, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { after, kind });
        self
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check every event against the cluster size. Called from
    /// `EngineConfig::validate`.
    pub fn validate(&self, workers: u32) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            if !ev.after.as_secs_f64().is_finite() {
                return Err(format!("fault event {i}: non-finite fire time"));
            }
            let node = match ev.kind {
                FaultKind::NodeCrash { node, .. } => Some(node),
                FaultKind::BlockLoss { node } => Some(node),
                FaultKind::SsdDegrade { node, .. } => Some(node),
                FaultKind::FetchFail { src } => Some(src),
                FaultKind::TaskFail { nth_launch } => {
                    if nth_launch == 0 {
                        return Err(format!(
                            "fault event {i}: TaskFail nth_launch is 1-based, got 0"
                        ));
                    }
                    None
                }
            };
            if let Some(n) = node {
                if n >= workers {
                    return Err(format!(
                        "fault event {i}: node {n} out of range (cluster has {workers} workers)"
                    ));
                }
            }
            if let FaultKind::SsdDegrade { factor, .. } = ev.kind {
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err(format!(
                        "fault event {i}: SsdDegrade factor must be in (0, 1], got {factor}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Derive a pseudo-random plan of `events` faults from `seed`, spread
    /// uniformly over `horizon`. Deterministic: the same arguments always
    /// produce the same plan.
    pub fn seeded(seed: u64, workers: u32, events: usize, horizon: SimDuration) -> Self {
        let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || splitmix64(&mut s);
        let mut plan = FaultPlan::new();
        for _ in 0..events {
            let frac = (next() >> 11) as f64 / (1u64 << 53) as f64;
            let after = horizon.mul_f64(frac.clamp(0.05, 0.95));
            let node = (next() % workers.max(1) as u64) as u32;
            let kind = match next() % 5 {
                0 => FaultKind::NodeCrash {
                    node,
                    restart: Some(horizon.mul_f64(0.1)),
                },
                1 => FaultKind::TaskFail {
                    nth_launch: 1 + next() % 64,
                },
                2 => FaultKind::BlockLoss { node },
                3 => FaultKind::SsdDegrade { node, factor: 0.5 },
                _ => FaultKind::FetchFail { src: node },
            };
            plan.events.push(FaultEvent { after, kind });
        }
        plan
    }
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    reason = "terse literal indexing is fine in tests"
)]
mod tests {
    use super::*;

    #[test]
    fn builder_appends_in_order() {
        let p = FaultPlan::new()
            .after(SimDuration::from_secs(1), FaultKind::BlockLoss { node: 0 })
            .after(SimDuration::from_secs(2), FaultKind::FetchFail { src: 1 });
        assert_eq!(p.events.len(), 2);
        assert_eq!(p.events[0].kind, FaultKind::BlockLoss { node: 0 });
        assert_eq!(p.events[1].after, SimDuration::from_secs(2));
    }

    #[test]
    fn validate_rejects_out_of_range_node() {
        let p = FaultPlan::new().after(
            SimDuration::from_secs(1),
            FaultKind::NodeCrash {
                node: 4,
                restart: None,
            },
        );
        assert!(p.validate(4).is_err());
        assert!(p.validate(5).is_ok());
    }

    #[test]
    fn validate_rejects_bad_degrade_factor() {
        for factor in [0.0, -0.5, 1.5] {
            let p = FaultPlan::new().after(
                SimDuration::from_secs(1),
                FaultKind::SsdDegrade { node: 0, factor },
            );
            assert!(p.validate(4).is_err(), "factor {factor} should be invalid");
        }
    }

    #[test]
    fn validate_rejects_zero_nth_launch() {
        let p = FaultPlan::new().after(
            SimDuration::from_secs(1),
            FaultKind::TaskFail { nth_launch: 0 },
        );
        assert!(p.validate(4).is_err());
    }

    #[test]
    fn seeded_plan_is_deterministic_and_valid() {
        let a = FaultPlan::seeded(42, 8, 6, SimDuration::from_secs(100));
        let b = FaultPlan::seeded(42, 8, 6, SimDuration::from_secs(100));
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 6);
        a.validate(8).expect("seeded plan must be valid");
        let c = FaultPlan::seeded(43, 8, 6, SimDuration::from_secs(100));
        assert_ne!(a, c, "different seeds should give different plans");
    }
}
