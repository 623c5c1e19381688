//! Dispatch policy: which task a free slot gets.

#![allow(clippy::indexing_slicing)]

use super::*;

impl SimWorld {
    /// Make pending tasks runnable: the one way into a job's queues (but
    /// for `repin_pinned_off`), and so where parked nodes learn of new work.
    pub(super) fn enqueue_pending(&mut self, ji: usize, ids: &[u32]) {
        let tasks = &self.tasks;
        let job = &mut self.jobs[ji];
        for &id in ids {
            let pin = tasks.pin[id as usize];
            if pin != UNPINNED {
                job.prefs_q[pin as usize].push_back(id);
                self.nodes.unpark(pin);
                continue;
            }
            // Preferred or not, under FIFO any node may end up running it.
            self.nodes.unpark_all();
            let prefs = &tasks.prefs[id as usize];
            if prefs.is_empty() {
                job.no_pref_q.push_back(id);
            } else {
                for &n in prefs {
                    job.prefs_q[n as usize].push_back(id);
                }
                job.waiting_q.push_back(id);
            }
        }
    }

    // ---------------- dispatch ----------------

    /// ELB (§VI-A): while a stage is depositing intermediate data, stop
    /// assigning tasks to nodes holding more than `threshold ×` the cluster
    /// average.
    pub(super) fn elb_declines(&self, ji: usize, node: u32) -> bool {
        let Some(elb) = self.cfg.elb else {
            return false;
        };
        let job = &self.jobs[ji];
        let depositing = match job.phase {
            RunPhase::Stage(idx) => job.plan.stages[idx].has_shuffle_output(),
            _ => false,
        };
        if !depositing {
            return false;
        }
        let total: f64 = job.intermediate.iter().sum();
        if total <= 0.0 {
            return false;
        }
        let avg = total / self.spec.workers as f64;
        job.intermediate[node as usize] > avg * elb.threshold
    }

    /// Pick the next task for a free slot on `node`; `Err(retry)` when delay
    /// scheduling is holding tasks for locality. With `allow_steal = false`
    /// only locality-preferred (or preference-free) tasks are returned, so a
    /// dispatch round assigns local work before anything is stolen.
    pub(super) fn pick(
        &mut self,
        now: SimTime,
        ji: usize,
        node: u32,
        allow_steal: bool,
    ) -> Result<Option<u32>, Option<SimTime>> {
        let tasks = &self.tasks;
        let job = &mut self.jobs[ji];
        while let Some(&cand) = job.prefs_q[node as usize].front() {
            job.prefs_q[node as usize].pop_front();
            if tasks.state[cand as usize] == TState::Pending {
                job.last_local_launch = now;
                return Ok(Some(cand));
            }
        }
        while let Some(&cand) = job.no_pref_q.front() {
            job.no_pref_q.pop_front();
            if tasks.state[cand as usize] == TState::Pending {
                return Ok(Some(cand));
            }
        }
        if !allow_steal {
            return Ok(None);
        }
        loop {
            let Some(&cand) = job.waiting_q.front() else {
                return Ok(None);
            };
            if tasks.state[cand as usize] != TState::Pending {
                job.waiting_q.pop_front();
                continue;
            }
            match self.cfg.scheduler {
                SchedulerKind::Fifo => {
                    job.waiting_q.pop_front();
                    return Ok(Some(cand));
                }
                SchedulerKind::Delay { wait } => {
                    // Spark semantics: go remote only after `wait` with no
                    // locality-preferred launch anywhere in this job's stage
                    // (per-job: another tenant's local launches must not
                    // reset this job's delay clock).
                    let expires = job.last_local_launch + wait;
                    if now >= expires {
                        job.waiting_q.pop_front();
                        return Ok(Some(cand));
                    }
                    return Err(Some(expires));
                }
            }
        }
    }

    /// Whether a dispatch visit that launches nothing has no other effect,
    /// so that a node may be parked instead of visited again. Four
    /// mechanisms act per visit, launch or no launch: an ELB decline and a
    /// CAD gate each emit a trace event (and CAD a `DispatchNode` wake-up),
    /// delay scheduling hands back the retry time that re-arms `Dispatch`,
    /// and whether speculation duplicates a straggler onto the node depends
    /// on the time of the visit. With all four off — a property of the run,
    /// not a setting — a visit is `pick` finding nothing, for every job.
    pub(super) fn visits_are_pure(&self) -> bool {
        matches!(self.cfg.scheduler, SchedulerKind::Fifo)
            && self.cfg.elb.is_none()
            && self.cfg.cad.is_none()
            && self.cfg.speculation.is_none()
    }

    /// Inter-job dispatch order (DESIGN.md §4.14). Single-job runs and the
    /// FIFO policy serve jobs in admission order; fair-share orders by
    /// fewest running tasks; capacity first serves tenants still below
    /// their guaranteed slot count. The running-task counts are the arena's
    /// incremental ones, so a dispatch costs O(resident jobs), not O(tasks).
    pub(super) fn job_order(&self, order: &mut Vec<usize>) {
        let n = self.jobs.len();
        order.clear();
        order.extend(0..n);
        if n <= 1 {
            return;
        }
        let Some(policy) = self.stream.as_ref().map(|s| &s.spec.policy) else {
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
        if self.tasks.pending() == 0 && self.cfg.speculation.is_none() {
            return;
        }
        let workers = self.spec.workers;
        let cad_some = self.cfg.cad.is_some();
        let mut earliest_retry: Option<SimTime> = None;
        // The inter-job policy orders which resident job a free slot serves;
        // within a job, pick() is unchanged.
        let (mut order, mut cands) = std::mem::take(&mut self.dispatch_scratch);
        self.job_order(&mut order);
        // Two-phase rounds: first every node claims its locality-preferred
        // (or preference-free) tasks, one slot per pass; only then may the
        // FIFO path steal tasks that prefer other nodes.
        // Rotation-ordered snapshot of nodes that can accept a launch.
        // Availability only shrinks during a round (launches decrement
        // slots; completions never interleave with dispatch), so the
        // snapshot is a superset of what the full `0..workers` scan would
        // visit — in the same order — and the in-loop guards skip the rest.
        let start = self.rotate % workers;
        cands.clear();
        self.nodes.index().live_rotated(start, &mut cands);
        // A parked node is available all the same (see `dispatch_starved`).
        let none_available = self.nodes.index().available() == 0;
        let park = self.visits_are_pure();
        // Per job, its stragglers as of this dispatch (`maybe_speculate`).
        let speculating = self.cfg.speculation.is_some();
        let mut stragglers = vec![None; if speculating { order.len() } else { 0 }];
        for allow_steal in [false, true] {
            self.dispatch_round += 1;
            let round = self.dispatch_round;
            loop {
                let mut launched_any = false;
                for &node in &cands {
                    if !self.nodes.available(node) || self.blocked_stamp[node as usize] == round {
                        continue;
                    }
                    self.dispatch_visits += 1;
                    let mut node_launched = false;
                    for &ji in &order {
                        let storing = matches!(self.jobs[ji].phase, RunPhase::Storing(_));
                        let cad_on = storing && cad_some;
                        if self.elb_declines(ji, node) {
                            self.trace(now, TE::ElbDecline { node });
                            continue; // another job may still use this node
                        }
                        if cad_on && self.cad_gates(node) {
                            let allowed = self.cad_allowed[node as usize];
                            if now < allowed {
                                if self.cad_wake_at[node as usize] != allowed {
                                    self.cad_wake_at[node as usize] = allowed;
                                    self.trace(
                                        now,
                                        TE::CadGate {
                                            node,
                                            until: allowed,
                                        },
                                    );
                                    out.at(allowed, Ev::DispatchNode { node });
                                }
                                continue;
                            }
                        }
                        match self.pick(now, ji, node, allow_steal) {
                            Ok(Some(task)) => {
                                self.launch(now, task, node, out);
                                node_launched = true;
                                if cad_on && self.cad_interval > SimDuration::ZERO {
                                    let allowed = now + self.cad_interval;
                                    self.cad_allowed[node as usize] = allowed;
                                    if self.cad_wake_at[node as usize] != allowed {
                                        self.cad_wake_at[node as usize] = allowed;
                                        out.at(allowed, Ev::DispatchNode { node });
                                    }
                                    self.blocked_stamp[node as usize] = round; // one per interval
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
                                if let Some(r) = retry {
                                    self.trace(now, TE::DelayWait { node, until: r });
                                    earliest_retry =
                                        Some(earliest_retry.map_or(r, |e: SimTime| e.min(r)));
                                }
                                // Delay scheduling holds only this job's
                                // steals; another job may still launch here.
                            }
                        }
                    }
                    if node_launched {
                        launched_any = true;
                    } else {
                        self.blocked_stamp[node as usize] = round;
                        if allow_steal && park {
                            // No job has anything this node may run, and
                            // until one does (or its slots change) a visit
                            // would only find that out again.
                            self.nodes.park(node);
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
            // lint:allow(event-past): delay-scheduling retry times are queued_at + wait, in the future of the dispatch that set them
            out.at(r, Ev::Dispatch);
        }
        // Bugfix (DESIGN.md §4.14): with pending work, no available node as
        // the pass began, and no delay-retry wake, nothing re-arms dispatch.
        // Flag it so the next slot-freeing or node-recovery event
        // re-dispatches.
        self.dispatch_starved =
            self.tasks.pending() > 0 && none_available && earliest_retry.is_none();
        self.dispatch_scratch = (order, cands);
    }

    /// LATE-style speculation (baseline, §VIII related work): when a slot
    /// idles and a running compute task has exceeded `multiplier` × the
    /// median completed duration, launch a duplicate here; first copy wins.
    /// `stragglers[ji]` is the job's tasks past that threshold, found once
    /// per dispatch: nothing finishes during one, and a task it launches has
    /// run for no time at all.
    pub(super) fn maybe_speculate(
        &mut self,
        now: SimTime,
        ji: usize,
        node: u32,
        stragglers: &mut [Option<Vec<(f64, u32)>>],
        out: &mut Outbox<Ev>,
    ) -> bool {
        let Some(spec) = self.cfg.speculation else {
            return false;
        };
        let job = &self.jobs[ji];
        if !matches!(job.phase, RunPhase::Stage(_)) {
            return false;
        }
        let Some(durs) = job.stage_durs.as_ref() else {
            return false;
        };
        if durs.count() < spec.min_completed as u64 {
            return false;
        }
        let tasks = &self.tasks;
        let late = stragglers[ji].get_or_insert_with(|| {
            let threshold = durs.median() * spec.multiplier;
            let elapsed = |tid: u32| now.since(tasks.launched_at[tid as usize]).as_secs_f64();
            job.stage_tasks
                .iter()
                .filter(|&&tid| {
                    tasks.state[tid as usize] == TState::Running
                        && matches!(tasks.kind[tid as usize], TaskKind::Compute { .. })
                })
                .map(|&tid| (elapsed(tid), tid))
                .filter(|&(elapsed, _)| elapsed > threshold)
                .collect()
        });
        // Longest-elapsed unduplicated one not on `node`; the first on ties.
        let mut best: Option<(f64, u32)> = None;
        for &(elapsed, tid) in late.iter() {
            if tasks.twin[tid as usize].is_none()
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
        let kind = self.tasks.kind[straggler as usize];
        let stage = self.tasks.stage[straggler as usize];
        let mut t = Task::new(self.tasks.job[straggler as usize], stage, kind, now);
        t.twin = Some(straggler);
        t.is_speculative = true;
        self.tasks.push(t);
        self.tasks.twin[straggler as usize] = Some(dup);
        self.trace(
            now,
            TE::Speculate {
                task: straggler,
                twin: dup,
            },
        );
        self.trace(
            now,
            TE::TaskQueued {
                task: dup,
                stage,
                class: Self::trace_class(kind),
                attempt: 0,
            },
        );
        self.launch(now, dup, node, out);
        true
    }

    /// CAD feedback (§VI-B): watch the running average of completed
    /// ShuffleMapTask times against the *healthy baseline* (the first full
    /// window). While the average sits `jump_factor`× above the baseline,
    /// every further completion adds `step` to the dispatch interval —
    /// integral-controller behaviour that keeps throttling until the device
    /// recovers; when the average falls back toward the baseline the
    /// interval unwinds at the same rate.
    pub(super) fn store_finished(&mut self, now: SimTime, task: u32) {
        let Some(cad) = self.cfg.cad else { return };
        let dur = now
            .since(self.tasks.launched_at[task as usize])
            .as_secs_f64();
        self.cad_window.push_back(dur);
        if self.cad_window.len() > cad.window {
            self.cad_window.pop_front();
        }
        if self.cad_window.len() < cad.window / 2 {
            return;
        }
        let avg = self.cad_window.iter().sum::<f64>() / self.cad_window.len() as f64;
        match self.cad_ref_avg {
            None => self.cad_ref_avg = Some(avg),
            Some(baseline) => {
                if avg > baseline * cad.jump_factor {
                    self.cad_interval += cad.step;
                    // Anti-windup: one healthy task-time of spacing already
                    // drops the write queue to a handful; wider gaps would
                    // idle the device instead of easing GC.
                    let cap = SimDuration::from_secs_f64(baseline);
                    self.cad_interval = self.cad_interval.min(cap);
                } else {
                    self.cad_interval = self.cad_interval - cad.step;
                }
            }
        }
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
        let any_job = |has: &dyn Fn(&JobRun) -> bool| self.jobs.iter().any(has);
        let for_any_node = any_job(&|j| pending(&j.no_pref_q) || pending(&j.waiting_q));
        let with_work = (0..self.spec.workers).find(|&node| {
            c.is_parked(node) && (for_any_node || any_job(&|j| pending(&j.prefs_q[node as usize])))
        });
        match with_work {
            Some(node) => Err(format!(
                "node {node} is parked with a pending task it may run"
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{placed_plan, push_pinned_store, world_with_idle_nodes_parked};
    use super::*;
    use crate::config::EngineConfig;
    use memres_cluster::tiny;

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
        w.jobs[0].intermediate = vec![100.0, 10.0, 10.0, 10.0];
        assert!(w.elb_declines(0, 0), "node 0 holds >1.25x the average");
        assert!(!w.elb_declines(0, 1));
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
        assert_eq!(w.jobs[0].last_local_launch, SimTime::ZERO);
        // A locality-preferred pick for job 0 at t=2 advances its clock.
        let node = w.jobs[0]
            .prefs_q
            .iter()
            .position(|q| !q.is_empty())
            .expect("placed input yields locality prefs") as u32;
        let t2 = SimTime::from_secs_f64(2.0);
        assert!(matches!(w.pick(t2, 0, node, false), Ok(Some(_))));
        assert_eq!(w.jobs[0].last_local_launch, t2);
        // A second tenant admitted at t=5 anchors at ITS stage start.
        let t5 = SimTime::from_secs_f64(5.0);
        w.admit_job(t5, 2, 1, t5, Arc::new(placed_plan(8)), &mut out);
        assert_eq!(w.jobs[1].last_local_launch, t5);
        assert_eq!(
            w.jobs[0].last_local_launch, t2,
            "other job's clock untouched"
        );
        // Force both jobs onto the steal path: each reports its own expiry.
        for ji in 0..2 {
            w.jobs[ji].prefs_q.iter_mut().for_each(|q| q.clear());
            w.jobs[ji].no_pref_q.clear();
        }
        let t6 = SimTime::from_secs_f64(6.0);
        assert_eq!(w.pick(t6, 0, 0, true), Err(Some(t2 + wait)));
        assert_eq!(w.pick(t6, 1, 0, true), Err(Some(t5 + wait)));
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
            !w.dispatch_starved,
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
        w.nodes.park(second);
        let id = w.tasks.len() as u32;
        let kind = TaskKind::Compute { part: 0 };
        w.tasks
            .push(Task::new(w.jobs[0].id, 0, kind, SimTime::ZERO));
        w.enqueue_pending(0, &[id]);
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
}
