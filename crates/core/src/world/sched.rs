//! Dispatch policy: which task a free slot gets.
//!
//! Everything between "a slot is free" and [`SimWorld::launch`]: the
//! inter-job order (FIFO / fair-share / capacity, DESIGN.md §4.14), delay
//! scheduling's per-job queues and clock (paper §V), the Enhanced Load
//! Balancer's decline (§VI-A), Congestion-Aware Dispatching's per-node
//! interval (§VI-B, [`Cad`]), LATE speculation (§VIII baseline) and the
//! two-phase `dispatch` round that applies them over the candidate nodes.

use super::tasks::{Flag, TState, Task, TaskArena, TaskKind, UNPINNED};
use super::{Ev, JobRun, RunPhase, SimWorld};
use crate::config::{CadConfig, ElbConfig, SchedulerKind};
use crate::tenancy::InterJobPolicy;
use memres_des::sim::Outbox;
use memres_des::stats::LogHistogram;
use memres_des::time::{SimDuration, SimTime};
use memres_trace::TraceEvent as TE;
use std::collections::VecDeque;
use std::mem::size_of;

/// Completed-ShuffleMapTask window of CAD's running average.
const CAD_WINDOW: usize = 32;
/// Average-execution-time jump over the healthy baseline that triggers
/// throttling (paper: 2×).
const CAD_JUMP_FACTOR: f64 = 2.0;

/// LATE: a running task is a straggler when its elapsed time exceeds this
/// multiple of the median completed-task duration of its stage.
const LATE_MULTIPLIER: f64 = 1.5;
/// LATE: completed tasks of the stage before speculation activates.
const LATE_MIN_COMPLETED: u64 = 8;

/// CAD's controller (§VI-B): one dispatch interval for the cluster, grown
/// and unwound by the feedback in [`Cad::observe_flush`], and per node the
/// instant its next ShuffleMapTask may start.
pub(super) struct Cad {
    interval: SimDuration,
    allowed: Vec<SimTime>,
    /// Dedup guard: the `DispatchNode` wake already scheduled per node.
    wake_at: Vec<SimTime>,
    /// Healthy baseline: the average the first time the window was half full.
    ref_avg: Option<f64>,
    window: VecDeque<f64>,
}

impl Cad {
    pub(super) fn new(workers: usize) -> Self {
        Cad {
            interval: SimDuration::ZERO,
            allowed: vec![SimTime::ZERO; workers],
            wake_at: vec![SimTime::ZERO; workers],
            ref_avg: None,
            window: VecDeque::new(),
        }
    }

    /// Forget the congestion estimate. It is a cluster-wide signal: reset it
    /// only when the cluster goes from idle to busy, not when a job joins an
    /// already-loaded resident set.
    pub(super) fn reset(&mut self) {
        self.interval = SimDuration::ZERO;
        self.allowed.iter_mut().for_each(|t| *t = SimTime::ZERO);
        self.ref_avg = None;
        self.window.clear();
    }

    /// CAD feedback (§VI-B): watch the running average of completed
    /// ShuffleMapTask times against the *healthy baseline* (the first
    /// half-full window). While the average sits [`CAD_JUMP_FACTOR`]× above
    /// the baseline, every further completion adds `step` to the dispatch
    /// interval — integral-controller behaviour that keeps throttling until
    /// the device recovers; when the average falls back toward the baseline
    /// the interval unwinds at the same rate.
    pub(super) fn observe_flush(&mut self, cfg: &CadConfig, secs: f64) {
        self.window.push_back(secs);
        if self.window.len() > CAD_WINDOW {
            self.window.pop_front();
        }
        if self.window.len() < CAD_WINDOW / 2 {
            return;
        }
        let avg = self.window.iter().sum::<f64>() / self.window.len() as f64;
        match self.ref_avg {
            None => self.ref_avg = Some(avg),
            Some(baseline) if avg > baseline * CAD_JUMP_FACTOR => {
                // Anti-windup: one healthy task-time of spacing already
                // drops the write queue to a handful; wider gaps would
                // idle the device instead of easing GC.
                let cap = SimDuration::from_secs_f64(baseline);
                self.interval = (self.interval + cfg.step).min(cap);
            }
            Some(_) => self.interval = self.interval - cfg.step,
        }
    }

    /// Note that a wake-up for `node` at `at` is wanted; true when none is
    /// scheduled yet, and the caller must schedule it.
    fn arm(&mut self, node: u32, at: SimTime) -> bool {
        let armed = std::mem::replace(&mut self.wake_at[node as usize], at);
        armed != at
    }

    /// `Some((until, arm))` while `node` must still sit out its interval at
    /// `now`; `arm` as in [`Cad::arm`].
    fn gate(&mut self, node: u32, now: SimTime) -> Option<(SimTime, bool)> {
        let until = self.allowed[node as usize];
        (now < until).then(|| (until, self.arm(node, until)))
    }

    /// A ShuffleMapTask launched on `node`: with a non-zero interval the
    /// node's next may start at `now + interval` (returned as in
    /// [`Cad::gate`]).
    fn launched(&mut self, node: u32, now: SimTime) -> Option<(SimTime, bool)> {
        (self.interval > SimDuration::ZERO).then(|| {
            let until = now + self.interval;
            self.allowed[node as usize] = until;
            (until, self.arm(node, until))
        })
    }
}

/// ELB (§VI-A): `node` holds more than `threshold ×` the cluster-average
/// intermediate data of the depositing job.
pub(super) fn elb_over_threshold(elb: ElbConfig, intermediate: &[f64], node: u32) -> bool {
    let total: f64 = intermediate.iter().sum();
    if total <= 0.0 {
        return false;
    }
    let avg = total / intermediate.len() as f64;
    intermediate[node as usize] > avg * elb.threshold
}

/// One job's pending-task queues and the clocks delay scheduling and
/// speculation read. The inter-job policy picks which job a free slot
/// serves; these serve the intra-job pick. Entries are never removed when a
/// task leaves `Pending` some other way, so `pick` skips stale ones.
pub(super) struct JobQueues {
    prefs_q: Vec<VecDeque<u32>>,
    no_pref_q: VecDeque<u32>,
    waiting_q: VecDeque<u32>,
    /// Delay scheduling state: instant of this job's last locality-preferred
    /// launch. Per-job so one tenant's local progress never suppresses (or
    /// unlocks) another tenant's steal decisions.
    last_local_launch: SimTime,
    /// Completed compute-task durations of this job's current stage
    /// (speculation baseline's straggler threshold is a multiple of their
    /// median). Bucket counts do not depend on recording order, so this is
    /// the histogram a rebuild from the list of durations would give. Kept
    /// only when speculation is on.
    stage_durs: Option<LogHistogram>,
}

impl JobQueues {
    pub(super) fn new(workers: usize, now: SimTime) -> Self {
        JobQueues {
            prefs_q: (0..workers).map(|_| VecDeque::new()).collect(),
            no_pref_q: VecDeque::new(),
            waiting_q: VecDeque::new(),
            last_local_launch: now,
            stage_durs: None,
        }
    }

    /// Heap charged to the three queues (self-profiling).
    pub(super) fn heap_bytes(&self) -> usize {
        let queues = self
            .prefs_q
            .iter()
            .chain([&self.no_pref_q, &self.waiting_q]);
        let entries: usize = queues.map(VecDeque::capacity).sum();
        self.prefs_q.capacity() * size_of::<VecDeque<u32>>() + entries * size_of::<u32>()
    }

    /// A stage starts at `now`: the delay clock re-anchors there, and the
    /// queues give back the room the previous phase took.
    pub(super) fn begin_stage(&mut self, now: SimTime, speculating: bool) {
        self.last_local_launch = now;
        self.stage_durs = speculating.then(LogHistogram::new);
        self.shrink();
    }

    /// Shrink every queue to what it holds. A phase drains its queues but
    /// leaves their buffers behind: 16 MB of `no_pref_q` after a 4 M-task
    /// stage, and a 512-entry `prefs_q` per node after its store tasks,
    /// which the next phase does not need.
    pub(super) fn shrink(&mut self) {
        let queues = self.prefs_q.iter_mut();
        queues
            .chain([&mut self.no_pref_q, &mut self.waiting_q])
            .for_each(VecDeque::shrink_to_fit);
    }

    /// A compute task of the current stage ran for `secs`.
    pub(super) fn record_compute(&mut self, secs: f64) {
        if let Some(durs) = &mut self.stage_durs {
            durs.record(secs);
        }
    }

    /// Pick the next task for a free slot on `node`; `Err(retry)` when delay
    /// scheduling is holding tasks for locality. With `allow_steal = false`
    /// only locality-preferred (or preference-free) tasks are returned, so a
    /// dispatch round assigns local work before anything is stolen.
    fn pick(
        &mut self,
        tasks: &TaskArena,
        scheduler: SchedulerKind,
        now: SimTime,
        node: u32,
        allow_steal: bool,
    ) -> Result<Option<u32>, SimTime> {
        let pending = |t: u32| tasks.state[t as usize] == TState::Pending;
        while let Some(cand) = self.prefs_q[node as usize].pop_front() {
            if pending(cand) {
                self.last_local_launch = now;
                return Ok(Some(cand));
            }
        }
        while let Some(cand) = self.no_pref_q.pop_front() {
            if pending(cand) {
                return Ok(Some(cand));
            }
        }
        if !allow_steal {
            return Ok(None);
        }
        while let Some(&cand) = self.waiting_q.front() {
            if pending(cand) {
                if let SchedulerKind::Delay { wait } = scheduler {
                    // Spark semantics: go remote only after `wait` with no
                    // locality-preferred launch anywhere in this job's stage
                    // (per-job: another tenant's local launches must not
                    // reset this job's delay clock).
                    let expires = self.last_local_launch + wait;
                    if now < expires {
                        return Err(expires);
                    }
                }
                self.waiting_q.pop_front();
                return Ok(Some(cand));
            }
            self.waiting_q.pop_front();
        }
        Ok(None)
    }
}

/// `dispatch`'s state between calls: where the node rotation stands, the
/// per-round "blocked" stamps, whether the last pass starved, and scratch.
pub(super) struct DispatchState {
    rotate: u32,
    /// Per-node "blocked this pass" stamp; a node is blocked when its entry
    /// equals `round`. Replaces a fresh `vec![false; workers]` allocation
    /// per dispatch phase.
    blocked_stamp: Vec<u64>,
    round: u64,
    /// True when the last dispatch pass found pending tasks but zero
    /// available nodes and no delay-retry wake scheduled; the next
    /// slot-freeing or node-recovery event must re-issue `Dispatch` or the
    /// job wedges (DESIGN.md §4.14 bugfix).
    starved: bool,
    /// The job order and the candidate nodes of one pass.
    scratch: (Vec<usize>, Vec<u32>),
}

impl DispatchState {
    pub(super) fn new(workers: usize) -> Self {
        DispatchState {
            rotate: 0,
            blocked_stamp: vec![0; workers],
            round: 0,
            starved: false,
            scratch: Default::default(),
        }
    }

    /// A stage started: the next pass begins its walk one node further on.
    pub(super) fn rotate(&mut self) {
        self.rotate = self.rotate.wrapping_add(1);
    }

    /// Read and clear the starved flag: the caller re-arms dispatch.
    pub(super) fn take_starved(&mut self) -> bool {
        std::mem::take(&mut self.starved)
    }
}

impl SimWorld {
    /// Make pending tasks runnable: the one way into a job's queues, and so
    /// where parked nodes learn of new work.
    pub(super) fn enqueue_pending(&mut self, ji: usize, ids: impl IntoIterator<Item = u32>) {
        let tasks = &self.tasks;
        let q = &mut self.jobs[ji].queues;
        let mut ids = ids.into_iter();
        while let Some(id) = ids.next() {
            let pin = tasks.pin[id as usize];
            if pin != UNPINNED {
                q.prefs_q[pin as usize].push_back(id);
                self.nodes.index_mut().unpark(pin);
                continue;
            }
            // Preferred or not, under FIFO any node may end up running it.
            self.nodes.index_mut().unpark_all();
            let prefs = tasks.prefs_of(id);
            if prefs.is_empty() {
                // The tasks of one call are alike: room for the rest now is
                // one growth, where doubling up to a stage's worth holds the
                // old and the new buffer at every step.
                q.no_pref_q.reserve(1 + ids.size_hint().0);
                q.no_pref_q.push_back(id);
            } else {
                for &n in prefs {
                    q.prefs_q[n as usize].push_back(id);
                }
                q.waiting_q.push_back(id);
            }
        }
    }

    /// Announce tasks just pushed or about to run again: trace `TaskQueued`
    /// for each, then make them runnable.
    pub(super) fn queue_tasks(&mut self, now: SimTime, ji: usize, ids: std::ops::Range<u32>) {
        ids.clone().for_each(|id| self.trace_queued(now, id));
        self.enqueue_pending(ji, ids);
    }

    pub(super) fn trace_queued(&self, now: SimTime, task: u32) {
        let i = task as usize;
        self.trace(
            now,
            TE::TaskQueued {
                task,
                stage: self.tasks.stage[i],
                class: self.tasks.kind(task).class(),
                attempt: u32::from(self.tasks.attempt[i]),
            },
        );
    }

    /// ELB (§VI-A): while a stage is depositing intermediate data, stop
    /// assigning tasks to nodes holding more than `threshold ×` the cluster
    /// average.
    fn elb_declines(&self, job: &JobRun, node: u32) -> bool {
        let Some(elb) = self.cfg.elb else {
            return false;
        };
        let depositing = matches!(&job.phase, RunPhase::Stage { writing, .. } if writing.is_some());
        depositing && elb_over_threshold(elb, job.shuffle.intermediate(), node)
    }

    /// Whether a dispatch visit that launches nothing has no other effect,
    /// so that a node may be parked instead of visited again. Four
    /// mechanisms act per visit, launch or no launch: an ELB decline and a
    /// CAD gate each emit a trace event (and CAD a `DispatchNode` wake-up),
    /// delay scheduling hands back the retry time that re-arms `Dispatch`,
    /// and whether speculation duplicates a straggler onto the node depends
    /// on the time of the visit. With all four off — a property of the run,
    /// not a setting — a visit is `pick` finding nothing, for every job.
    fn visits_are_pure(&self) -> bool {
        matches!(self.cfg.scheduler, SchedulerKind::Fifo)
            && self.cfg.elb.is_none()
            && self.cfg.cad.is_none()
            && !self.cfg.speculation
    }

    /// Inter-job dispatch order (DESIGN.md §4.14). Single-job runs and the
    /// FIFO policy serve jobs in admission order; fair-share orders by
    /// fewest running tasks; capacity first serves tenants still below
    /// their guaranteed slot count. The running-task counts are the arena's
    /// incremental ones, so a dispatch costs O(resident jobs), not O(tasks).
    fn job_order(&self, order: &mut Vec<usize>) {
        let n = self.jobs.len();
        order.clear();
        order.extend(0..n);
        if n <= 1 {
            return;
        }
        let Some(policy) = self.inter_job_policy() else {
            return;
        };
        let running = |ji: usize| self.tasks.running(self.jobs[ji].id);
        debug_assert!(self
            .jobs
            .iter()
            .all(|j| self.tasks.audit_running(j.id).is_ok()));
        match policy {
            InterJobPolicy::Fifo => {}
            InterJobPolicy::FairShare => order.sort_by_key(|&ji| (running(ji), ji)),
            InterJobPolicy::Capacity { guarantees } => {
                let mut tenant_running: Vec<u32> = Vec::new();
                for (ji, j) in self.jobs.iter().enumerate() {
                    let t = j.tenant as usize;
                    if tenant_running.len() <= t {
                        tenant_running.resize(t + 1, 0);
                    }
                    tenant_running[t] += running(ji);
                }
                order.sort_by_key(|&ji| {
                    let t = self.jobs[ji].tenant as usize;
                    let g = guarantees.get(t).copied().unwrap_or(0);
                    let deficit = tenant_running.get(t).copied().unwrap_or(0) < g;
                    (!deficit, running(ji), ji)
                });
            }
        }
    }

    pub(super) fn dispatch(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        if self.jobs.is_empty() {
            return;
        }
        // Fast exit: with nothing pending and speculation off, no pass can
        // launch anything (`pending` is always empty between rounds),
        // so the scan below would only re-derive "blocked" for every node.
        if self.tasks.pending() == 0 && !self.cfg.speculation {
            return;
        }
        let cad_some = self.cfg.cad.is_some();
        let mut earliest_retry: Option<SimTime> = None;
        // The inter-job policy orders which resident job a free slot serves;
        // within a job, pick() is unchanged.
        let (mut order, mut cands) = std::mem::take(&mut self.sched.scratch);
        self.job_order(&mut order);
        // Two-phase rounds: first every node claims its locality-preferred
        // (or preference-free) tasks, one slot per pass; only then may the
        // FIFO path steal tasks that prefer other nodes.
        // Rotation-ordered snapshot of nodes that can accept a launch.
        // Availability only shrinks during a round (launches decrement
        // slots; completions never interleave with dispatch), so the
        // snapshot is a superset of what the full `0..workers` scan would
        // visit — in the same order — and the in-loop guards skip the rest.
        let start = self.sched.rotate % self.spec.workers;
        cands.clear();
        self.nodes.index().live_rotated(start, &mut cands);
        // A parked node is available all the same (see `starved`).
        let none_available = self.nodes.index().available() == 0;
        let park = self.visits_are_pure();
        // Per job, its stragglers as of this dispatch (`maybe_speculate`).
        let speculating = self.cfg.speculation;
        let mut stragglers = vec![None; if speculating { order.len() } else { 0 }];
        for allow_steal in [false, true] {
            self.sched.round += 1;
            let round = self.sched.round;
            loop {
                let mut launched_any = false;
                for &node in &cands {
                    if !self.nodes.available(node)
                        || self.sched.blocked_stamp[node as usize] == round
                    {
                        continue;
                    }
                    self.dispatch_visits += 1;
                    let mut node_launched = false;
                    for &ji in &order {
                        let job = &self.jobs[ji];
                        let cad_on = cad_some && matches!(job.phase, RunPhase::Storing { .. });
                        if self.elb_declines(job, node) {
                            self.trace(now, TE::ElbDecline { node });
                            continue; // another job may still use this node
                        }
                        if cad_on && self.store_congested(node) {
                            if let Some((until, arm)) = self.cad.gate(node, now) {
                                if arm {
                                    self.trace(now, TE::CadGate { node, until });
                                    // `Cad::gate` returns `until` only while `now < until`.
                                    out.at(until, Ev::DispatchNode { node });
                                }
                                continue;
                            }
                        }
                        let q = &mut self.jobs[ji].queues;
                        match q.pick(&self.tasks, self.cfg.scheduler, now, node, allow_steal) {
                            Ok(Some(task)) => {
                                self.launch(now, task, node, out);
                                node_launched = true;
                                let spaced = if cad_on {
                                    self.cad.launched(node, now)
                                } else {
                                    None
                                };
                                if let Some((until, arm)) = spaced {
                                    if arm {
                                        // `Cad::launched` returns `now` plus a positive interval.
                                        out.at(until, Ev::DispatchNode { node });
                                    }
                                    // One per interval.
                                    self.sched.blocked_stamp[node as usize] = round;
                                }
                                break;
                            }
                            Ok(None) => {
                                if allow_steal
                                    && self.maybe_speculate(now, ji, node, &mut stragglers, out)
                                {
                                    node_launched = true;
                                    break;
                                }
                                // This job has nothing for the node; the next
                                // job in policy order may.
                            }
                            Err(retry) => {
                                self.trace(now, TE::DelayWait { node, until: retry });
                                earliest_retry =
                                    Some(earliest_retry.map_or(retry, |e| e.min(retry)));
                                // Delay scheduling holds only this job's
                                // steals; another job may still launch here.
                            }
                        }
                    }
                    if node_launched {
                        launched_any = true;
                    } else {
                        self.sched.blocked_stamp[node as usize] = round;
                        if allow_steal && park {
                            // No job has anything this node may run, and
                            // until one does (or its slots change) a visit
                            // would only find that out again.
                            self.nodes.index_mut().park(node);
                        }
                    }
                }
                if !launched_any {
                    break;
                }
            }
        }
        self.flush_pending(now, out);
        if let Some(r) = earliest_retry {
            // A delay-scheduling retry is queued_at + wait, after the pass that set it.
            out.at(r, Ev::Dispatch);
        }
        // Bugfix (DESIGN.md §4.14): with pending work, no available node as
        // the pass began, and no delay-retry wake, nothing re-arms dispatch.
        // Flag it so the next slot-freeing or node-recovery event
        // re-dispatches.
        self.sched.starved = self.tasks.pending() > 0 && none_available && earliest_retry.is_none();
        self.sched.scratch = (order, cands);
    }

    /// LATE-style speculation (baseline, §VIII related work): when a slot
    /// idles and a running compute task has exceeded [`LATE_MULTIPLIER`] × the
    /// median completed duration, launch a duplicate here; first copy wins.
    /// `stragglers[ji]` is the job's tasks past that threshold, found once
    /// per dispatch: nothing finishes during one, and a task it launches has
    /// run for no time at all.
    fn maybe_speculate(
        &mut self,
        now: SimTime,
        ji: usize,
        node: u32,
        stragglers: &mut [Option<Vec<(f64, u32)>>],
        out: &mut Outbox<Ev>,
    ) -> bool {
        if !self.cfg.speculation {
            return false;
        }
        let job = &self.jobs[ji];
        if !matches!(job.phase, RunPhase::Stage { .. }) {
            return false;
        }
        let Some(durs) = job.queues.stage_durs.as_ref() else {
            return false;
        };
        if durs.count() < LATE_MIN_COMPLETED {
            return false;
        }
        let tasks = &self.tasks;
        let late = stragglers[ji].get_or_insert_with(|| {
            let threshold = durs.median() * LATE_MULTIPLIER;
            let elapsed = |tid: u32| now.since(tasks.launched_at[tid as usize]).as_secs_f64();
            job.stage_tasks
                .iter()
                .filter(|&&tid| {
                    tasks.state[tid as usize] == TState::Running
                        && matches!(tasks.kind(tid), TaskKind::Compute { .. })
                })
                .map(|&tid| (elapsed(tid), tid))
                .filter(|&(elapsed, _)| elapsed > threshold)
                .collect()
        });
        // Longest-elapsed unduplicated one not on `node`; the first on ties.
        let mut best: Option<(f64, u32)> = None;
        for &(elapsed, tid) in late.iter() {
            if tasks.twin(tid).is_none()
                && tasks.node[tid as usize] != node
                && best.is_none_or(|(e, _)| elapsed > e)
            {
                best = Some((elapsed, tid));
            }
        }
        let Some((_, straggler)) = best else {
            return false;
        };
        let dup = self.tasks.len() as u32;
        let kind = self.tasks.kind(straggler);
        let stage = self.tasks.stage[straggler as usize];
        let mut t = Task::new(self.tasks.job[straggler as usize], stage, kind, now);
        t.flags = Flag::Speculative as u8;
        self.tasks.push(t);
        self.tasks.set_twins(straggler, dup);
        self.trace(
            now,
            TE::Speculate {
                task: straggler,
                twin: dup,
            },
        );
        self.trace_queued(now, dup);
        self.launch(now, dup, node, out);
        true
    }

    /// The parking invariant (DESIGN.md §4.12; `Nodes::audit` holds the
    /// other half, that the candidates are exactly the available nodes): no
    /// parked node has a pending task it may run — one queued for it in some
    /// job's `prefs_q`, or one any node may take from a `no_pref_q` or (the
    /// runs that park are FIFO) a `waiting_q`. A parked node with work is a
    /// launch that never happens.
    pub(super) fn audit_parked(&self) -> Result<(), String> {
        let c = self.nodes.index();
        if c.parked() > 0 && !self.visits_are_pure() {
            return Err("nodes are parked in a run whose dispatch visits have effects".into());
        }
        let pending = |q: &VecDeque<u32>| {
            q.iter()
                .any(|&t| self.tasks.state[t as usize] == TState::Pending)
        };
        let any_job = |has: &dyn Fn(&JobQueues) -> bool| self.jobs.iter().any(|j| has(&j.queues));
        let for_any_node = any_job(&|q| pending(&q.no_pref_q) || pending(&q.waiting_q));
        let has_work = |node: u32| for_any_node || any_job(&|q| pending(&q.prefs_q[node as usize]));
        match (0..self.spec.workers).find(|&node| c.is_parked(node) && has_work(node)) {
            Some(node) => Err(format!(
                "node {node} is parked with a pending task it may run"
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        placed_plan, push_pinned_store, world, world_with_idle_nodes_parked,
    };
    use super::*;
    use crate::config::EngineConfig;
    use memres_cluster::tiny;
    use memres_des::sim::Model;
    use std::sync::Arc;

    fn pick(
        w: &mut SimWorld,
        now: SimTime,
        ji: usize,
        node: u32,
        steal: bool,
    ) -> Result<Option<u32>, SimTime> {
        let q = &mut w.jobs[ji].queues;
        q.pick(&w.tasks, w.cfg.scheduler, now, node, steal)
    }

    /// Feed `n` flush completions of `secs` each.
    fn flushes(cad: &mut Cad, cfg: &CadConfig, n: usize, secs: f64) {
        (0..n).for_each(|_| cad.observe_flush(cfg, secs));
    }

    #[test]
    fn cad_baseline_is_the_first_half_full_window() {
        let cfg = CadConfig::default(); // 50 ms step; window 32, 2x jump
        let mut cad = Cad::new(2);
        flushes(&mut cad, &cfg, 15, 1.0);
        assert_eq!(cad.ref_avg, None, "under half a window: no estimate yet");
        cad.observe_flush(&cfg, 1.0);
        assert_eq!(cad.ref_avg, Some(1.0));
        // Slow completions below the jump factor never move the interval,
        // and the baseline is not re-learnt.
        flushes(&mut cad, &cfg, 16, 1.5);
        assert_eq!((cad.ref_avg, cad.interval), (Some(1.0), SimDuration::ZERO));
        assert_eq!(cad.window.len(), 32);
        cad.observe_flush(&cfg, 1.5);
        assert_eq!(cad.window.len(), 32, "the window slides");
    }

    #[test]
    fn cad_interval_integrates_up_to_one_healthy_task_time_and_unwinds() {
        let cfg = CadConfig::default();
        let mut cad = Cad::new(2);
        flushes(&mut cad, &cfg, 16, 1.0);
        // A 10x jump: the window average is past 2x the baseline from the
        // third slow completion on ((16 + 3·10) / 19 = 2.4; the second makes
        // it exactly 2), and every completion from there adds one step.
        flushes(&mut cad, &cfg, 2, 10.0);
        assert_eq!(cad.interval, SimDuration::ZERO);
        flushes(&mut cad, &cfg, 3, 10.0);
        assert_eq!(cad.interval, cfg.step.mul_f64(3.0));
        // Anti-windup: capped at one healthy task time (the 1 s baseline).
        flushes(&mut cad, &cfg, 40, 10.0);
        assert_eq!(cad.interval, SimDuration::from_secs(1));
        // Recovery: once the window average is back under 2x the baseline
        // the interval unwinds one step per completion, down to zero.
        flushes(&mut cad, &cfg, 31, 1.0);
        let before = cad.interval;
        cad.observe_flush(&cfg, 1.0);
        assert_eq!(cad.interval, before - cfg.step);
        flushes(&mut cad, &cfg, 40, 1.0);
        assert_eq!(cad.interval, SimDuration::ZERO);
    }

    #[test]
    fn cad_gates_a_node_for_one_interval_and_arms_each_wake_once() {
        let cfg = CadConfig::default();
        let mut cad = Cad::new(2);
        let t = SimTime::from_secs_f64;
        assert_eq!(cad.launched(0, t(1.0)), None, "no interval: no spacing");
        assert_eq!(cad.gate(0, t(1.0)), None);
        flushes(&mut cad, &cfg, 16, 1.0);
        flushes(&mut cad, &cfg, 5, 10.0);
        assert_eq!(cad.interval, cfg.step.mul_f64(3.0));
        let until = t(1.0) + cad.interval;
        assert_eq!(cad.launched(0, t(1.0)), Some((until, true)));
        assert_eq!(
            cad.gate(0, t(1.1)),
            Some((until, false)),
            "wake already armed"
        );
        assert_eq!(cad.gate(1, t(1.1)), None, "per node");
        assert_eq!(cad.gate(0, until), None, "open again at `until`");
        // Reset (idle -> busy) forgets the estimate and re-opens every node.
        assert_eq!(cad.launched(1, t(2.0)), Some((t(2.0) + cad.interval, true)));
        cad.reset();
        assert_eq!((cad.interval, cad.ref_avg), (SimDuration::ZERO, None));
        assert!(cad.window.is_empty());
        assert_eq!(cad.gate(1, t(2.0)), None);
    }

    #[test]
    fn cad_resets_only_when_the_cluster_goes_from_idle_to_busy() {
        let mut w = world();
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        let admit = |w: &mut SimWorld, id, out: &mut Outbox<Ev>| {
            w.admit_job(
                SimTime::ZERO,
                id,
                0,
                SimTime::ZERO,
                Arc::new(placed_plan(2)),
                out,
            )
        };
        w.cad.ref_avg = Some(1.0);
        admit(&mut w, 1, &mut out);
        assert_eq!(w.cad.ref_avg, None, "idle -> busy");
        w.cad.ref_avg = Some(1.0);
        admit(&mut w, 2, &mut out);
        assert_eq!(w.cad.ref_avg, Some(1.0), "joining a loaded cluster");
    }

    #[test]
    fn elb_predicate_on_a_hand_built_vector() {
        let elb = ElbConfig::default(); // 1.25x
        let skewed = [100.0, 10.0, 10.0, 10.0]; // average 32.5
        assert!(elb_over_threshold(elb, &skewed, 0));
        assert!(!elb_over_threshold(elb, &skewed, 1));
        // Exactly at the threshold is not over it; nothing deposited never is.
        assert!(!elb_over_threshold(elb, &[5.0, 3.0], 0));
        assert!(elb_over_threshold(elb, &[5.0 + 1e-9, 3.0], 0));
        assert!(!elb_over_threshold(elb, &[0.0, 0.0], 0));
    }

    #[test]
    fn elb_declines_only_over_threshold_nodes() {
        let mut w = SimWorld::new(tiny(4), EngineConfig::default().with_elb());
        // Fake a depositing stage with skewed intermediate data.
        let plan = crate::dag::build_plan(
            &crate::rdd::Rdd::source(crate::rdd::Dataset::generated(1e6, 1e5, 10.0))
                .group_by_key(Some(2), 1e9),
            crate::rdd::Action::Count,
            &Default::default(),
        );
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, plan, &mut out);
        for (node, bytes) in [100.0, 10.0, 10.0, 10.0].into_iter().enumerate() {
            w.jobs[0].shuffle.add_intermediate(node as u32, bytes);
        }
        assert!(
            w.elb_declines(&w.jobs[0], 0),
            "node 0 holds >1.25x the average"
        );
        assert!(!w.elb_declines(&w.jobs[0], 1));
    }

    #[test]
    fn delay_clock_is_per_job_and_anchored_at_stage_start() {
        // Regression (delay-scheduler bugfix): the "last local launch"
        // instant that delay scheduling measures its wait from is per-JOB
        // state. A stage boundary re-anchors it at the stage-start instant,
        // and one tenant's local launches must not reset another's clock.
        let wait = SimDuration::from_secs_f64(10.0);
        let mut w = SimWorld::new(tiny(4), EngineConfig::default().with_delay_scheduling(wait));
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.admit_job(
            SimTime::ZERO,
            1,
            0,
            SimTime::ZERO,
            Arc::new(placed_plan(8)),
            &mut out,
        );
        assert_eq!(w.jobs[0].queues.last_local_launch, SimTime::ZERO);
        // A locality-preferred pick for job 0 at t=2 advances its clock.
        let node = w.jobs[0]
            .queues
            .prefs_q
            .iter()
            .position(|q| !q.is_empty())
            .expect("placed input yields locality prefs") as u32;
        let t2 = SimTime::from_secs_f64(2.0);
        assert!(matches!(pick(&mut w, t2, 0, node, false), Ok(Some(_))));
        assert_eq!(w.jobs[0].queues.last_local_launch, t2);
        // A second tenant admitted at t=5 anchors at ITS stage start.
        let t5 = SimTime::from_secs_f64(5.0);
        w.admit_job(t5, 2, 1, t5, Arc::new(placed_plan(8)), &mut out);
        assert_eq!(w.jobs[1].queues.last_local_launch, t5);
        assert_eq!(
            w.jobs[0].queues.last_local_launch, t2,
            "other job's clock untouched"
        );
        // Force both jobs onto the steal path: each reports its own expiry.
        for ji in 0..2 {
            w.jobs[ji].queues.prefs_q.iter_mut().for_each(|q| q.clear());
            w.jobs[ji].queues.no_pref_q.clear();
        }
        let t6 = SimTime::from_secs_f64(6.0);
        assert_eq!(pick(&mut w, t6, 0, 0, true), Err(t2 + wait));
        assert_eq!(pick(&mut w, t6, 1, 0, true), Err(t5 + wait));
    }

    #[test]
    fn a_parked_node_is_visited_again_only_when_it_could_launch() {
        let mut w = world_with_idle_nodes_parked();
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        let parked: Vec<u32> = (0..4).filter(|&n| w.nodes.index().is_parked(n)).collect();
        // More dispatches with nothing new: nobody is visited.
        let visits = w.dispatch_visits;
        // A pending task in no queue, as if it sat out a retry backoff.
        let waiting = w.tasks.len() as u32;
        let kind = TaskKind::Compute { part: 0 };
        w.tasks
            .push(Task::new(w.jobs[0].id, 0, kind, SimTime::ZERO));
        w.dispatch(SimTime::ZERO, &mut out);
        w.dispatch(SimTime::ZERO, &mut out);
        w.tasks.set_state(waiting, TState::Done);
        assert_eq!(w.dispatch_visits, visits, "parked nodes were rescanned");
        assert!(
            !w.sched.starved,
            "a parked node is available: pending work is not starved of nodes"
        );
        // A task pinned to one of them wakes that one alone ...
        let (first, second) = (parked[0], parked[1]);
        push_pinned_store(&mut w, first);
        assert!(w.nodes.index().is_live(first) && w.nodes.index().is_parked(second));
        w.audit_invariants()
            .expect("the pinned task's node is live");
        // ... a slot change wakes its own node ...
        w.nodes.take_slot(second);
        assert!(w.nodes.index().is_live(second));
        // ... and a task anyone may run wakes them all.
        w.nodes.index_mut().park(second);
        let id = w.tasks.len() as u32;
        let kind = TaskKind::Compute { part: 0 };
        w.tasks
            .push(Task::new(w.jobs[0].id, 0, kind, SimTime::ZERO));
        w.enqueue_pending(0, [id]);
        assert_eq!(w.nodes.index().parked(), 0);
        w.audit_invariants().expect("nobody is parked");
    }

    #[test]
    fn runs_whose_visits_have_effects_park_nobody() {
        // ELB, CAD, delay scheduling and speculation each do something per
        // visit, launch or not; with any of them on, every available node
        // stays a candidate.
        let wait = SimDuration::from_secs_f64(10.0);
        for cfg in [
            EngineConfig::default().with_elb(),
            EngineConfig::default().with_cad(),
            EngineConfig::default().with_delay_scheduling(wait),
            EngineConfig::default().with_speculation(),
        ] {
            let mut w = SimWorld::new(tiny(4), cfg);
            assert!(!w.visits_are_pure());
            let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
            w.submit_job(SimTime::ZERO, placed_plan(2), &mut out);
            w.dispatch(SimTime::ZERO, &mut out);
            assert_eq!(w.nodes.index().parked(), 0);
            w.audit_invariants().expect("nobody parked");
        }
    }

    #[test]
    fn a_speculated_copy_is_twinned_both_ways_and_replaces_the_original_when_it_wins() {
        let mut w = SimWorld::new(tiny(4), EngineConfig::default().with_speculation());
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, placed_plan(2), &mut out);
        w.dispatch(SimTime::ZERO, &mut out);
        assert_eq!((w.tasks.twin(0), w.tasks.twin(1)), (None, None));
        // Eight quick completions on the books make task 0, still running
        // at t = 100 s, a straggler for any node but its own.
        (0..8).for_each(|_| w.jobs[0].queues.record_compute(1.0));
        let late = SimTime::from_secs_f64(100.0);
        let elsewhere = (0..4).find(|&n| n != w.tasks.node[0]).expect("four nodes");
        assert!(w.maybe_speculate(late, 0, elsewhere, &mut [None], &mut out));
        let dup = 2;
        assert_eq!(
            (w.tasks.twin(0), w.tasks.twin(dup as u32)),
            (Some(dup as u32), Some(0))
        );
        assert!(w.tasks.flag(dup as u32, Flag::Speculative) && !w.tasks.flag(0, Flag::Speculative));
        // The original keeps the replicas it preferred; the copy was placed
        // by hand and prefers nothing.
        assert!(!w.tasks.prefs_of(0).is_empty());
        assert!(w.tasks.prefs_of(dup as u32).is_empty());
        assert_eq!(w.tasks.node[dup], elsewhere);
        // One copy each: a twinned task is not speculated again.
        let third = (0..4).find(|&n| n != w.tasks.node[0] && n != elsewhere);
        w.maybe_speculate(late, 0, third.expect("four nodes"), &mut [None], &mut out);
        assert_eq!(w.tasks.twin(0), Some(dup as u32));
        // The copy finishes first: the job now refers to it, and the
        // original's late finish only hands its slot back.
        let job = w.jobs[0].id;
        w.tasks.compute_dur[dup] = SimDuration::ZERO;
        w.on_task_finish(late, dup as u32, 0, job, &mut out);
        assert!(w.jobs[0].stage_tasks.contains(&(dup as u32)));
        assert!(!w.jobs[0].stage_tasks.contains(&0));
        let remaining = w.jobs[0].remaining;
        w.on_task_finish(late, 0, 0, job, &mut out);
        assert_eq!(
            w.jobs[0].remaining, remaining,
            "the loser completes nothing"
        );
    }

    #[test]
    fn starved_dispatch_rearms_when_backoff_frees_a_slot() {
        // Regression (dispatch wedge bugfix): with every slot busy and no
        // delay-retry wake, a dispatch pass records starvation; a failing
        // task's freed slot must then re-arm dispatch — the backoff requeue
        // path schedules no Dispatch of its own.
        let mut w = world();
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, placed_plan(64), &mut out);
        w.dispatch(SimTime::ZERO, &mut out);
        assert_eq!(w.nodes.index().available(), 0, "cluster saturated");
        assert!(w.tasks.pending() > 0, "more tasks than slots");
        w.dispatch(SimTime::ZERO, &mut out);
        assert!(w.sched.starved, "empty availability + no retry = starved");
        let victim = (0..w.tasks.len())
            .find(|&i| w.tasks.state[i] == TState::Running)
            .expect("saturated cluster has running tasks") as u32;
        let t1 = SimTime::from_secs_f64(1.0);
        let mut out2 = memres_des::Outbox::standalone(t1);
        w.fail_task(
            t1,
            victim,
            SimDuration::from_secs_f64(2.0),
            false,
            &mut out2,
        );
        assert!(!w.sched.starved);
        assert!(
            out2.into_items()
                .iter()
                .any(|(_, e)| matches!(e, Ev::Dispatch)),
            "freed slot must schedule a dispatch"
        );
    }

    #[test]
    fn blacklisted_node_restart_rejoins_and_redispatches() {
        // Regression (dispatch wedge bugfix, recovery side): a fully
        // blacklisted cluster starves dispatch; restarting a live-but-
        // blacklisted executor clears the blacklist and re-arms it.
        let mut w = world();
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, placed_plan(8), &mut out);
        for n in 0..w.spec.workers {
            w.nodes.blacklist(n);
        }
        w.dispatch(SimTime::ZERO, &mut out);
        assert!(w.sched.starved, "fully blacklisted cluster starves");
        let t1 = SimTime::from_secs_f64(1.0);
        let mut out2 = memres_des::Outbox::standalone(t1);
        Model::handle(&mut w, t1, Ev::NodeRestart { node: 2 }, &mut out2);
        assert!(w.nodes.usable(2));
        assert!(!w.sched.starved);
        assert!(
            w.nodes.index().is_live(2),
            "node 2 re-entered the candidate set"
        );
        assert!(
            out2.into_items()
                .iter()
                .any(|(_, e)| matches!(e, Ev::Dispatch)),
            "blacklist clear must schedule a dispatch"
        );
    }
}
