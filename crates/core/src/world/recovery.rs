//! Fault handling and recovery (DESIGN.md §4.9): how a failure is undone.
//!
//! The fault plan's events (`apply_fault`), a failed attempt's way back to
//! the queues (`fail_task`), a node's death and return (`node_crash`,
//! `node_restart`: re-pinning, re-hosted shuffle rows, time-only ghost
//! tasks), a job's abort, and the lineage recipe that rebuilds a lost
//! cached partition (`recovery_stage`).

use super::tasks::{Flag, TState, Task, TaskKind, UNPINNED};
use super::{Ev, JobOutput, SimWorld, Substrate};
use crate::dag::{JobPlan, StageInput, StagePlan};
use crate::faults::FaultKind;
use crate::rdd::RddId;
use memres_des::sim::Outbox;
use memres_des::time::{SimDuration, SimTime};
use memres_trace::TraceEvent as TE;
use std::sync::Arc;

/// A task that fails this many times aborts its job (Spark's
/// `spark.task.maxFailures`).
const MAX_TASK_ATTEMPTS: u32 = 4;
// A task's `attempt` column is a byte: it never counts past the limit.
const _: () = assert!(MAX_TASK_ATTEMPTS <= u8::MAX as u32);
/// Base delay before retrying a failed shuffle fetch; it doubles per attempt.
const FETCH_BACKOFF: SimDuration = SimDuration::from_millis(200);
/// A node blamed for this many task failures is blacklisted: it launches
/// nothing more, and pinned work is re-homed.
const BLACKLIST_AFTER: u32 = 3;

/// Fault-plan and abandoned-work bookkeeping.
#[derive(Default)]
pub(super) struct Faults {
    /// Global task-launch counter (the `TaskFail { nth_launch }` clock).
    launch_count: u64,
    /// Sorted launch ordinals doomed to fail (from the fault plan).
    doomed_launches: Vec<u64>,
    /// The fault plan is armed once, at the first job submission.
    armed: bool,
    /// An attempt was abandoned with I/O possibly in flight (failed attempt,
    /// aborted job, speculation copy outliving its job); it drains as stale
    /// completions, so an idle cluster may have busy substrates until an
    /// audit next finds them drained.
    abandoned_io: bool,
}

impl Faults {
    /// Count one task launch; true when the fault plan dooms it.
    #[inline]
    pub(super) fn next_launch_is_doomed(&mut self) -> bool {
        self.launch_count += 1;
        self.doomed_launches
            .binary_search(&self.launch_count)
            .is_ok()
    }

    /// An attempt was abandoned with I/O possibly in flight.
    pub(super) fn abandon_io(&mut self) {
        self.abandoned_io = true;
    }

    /// Judge the "every substrate is drained" half of the quiescence oracle:
    /// excused while abandoned I/O may still be in flight; passing clears
    /// the excuse.
    pub(super) fn judge_drained(&mut self, drained: Result<(), String>) -> Result<(), String> {
        match drained {
            Err(e) if !self.abandoned_io => Err(e),
            Err(_) => Ok(()),
            Ok(()) => {
                self.abandoned_io = false;
                Ok(())
            }
        }
    }
}

impl SimWorld {
    /// Schedule every fault of the configured plan, once, relative to the
    /// first job submission. `TaskFail` faults become doomed launch ordinals
    /// consumed by [`SimWorld::launch`]; everything else fires as an event.
    pub(super) fn arm_faults(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        if std::mem::replace(&mut self.faults.armed, true) {
            return;
        }
        let Some(plan) = &self.cfg.faults else {
            return;
        };
        for (idx, ev) in plan.events.iter().enumerate() {
            match ev.kind {
                FaultKind::TaskFail { nth_launch } => self.faults.doomed_launches.push(nth_launch),
                _ => out.at(now + ev.after, Ev::Fault { idx }),
            }
        }
        self.faults.doomed_launches.sort_unstable();
    }

    /// Lineage-based recovery (§II-C "lost partitions can be recovered by
    /// recomputing from the lineage"): a compute task found its cached input
    /// partition gone (node crash / executor memory loss). Synthesize the
    /// stage that re-derives it — the recorded source→cache recipe
    /// concatenated with the stage's own chain, rooted at the original
    /// dataset — and return it with the source RDD to read. The cache point
    /// inside the combined chain re-materializes the partition at the
    /// recomputing node.
    pub(super) fn recovery_stage(
        &mut self,
        task: u32,
        plan: &JobPlan,
        stage: &StagePlan,
        rdd: RddId,
        part: u32,
    ) -> (Arc<StagePlan>, RddId) {
        #[expect(
            clippy::panic,
            reason = "unrecoverable by design: a cache below a shuffle has no per-partition lineage; dying loudly beats silently wrong output"
        )]
        let Some(spec) = plan.recovery.get(&rdd) else {
            panic!(
                "cached partition {part} of {rdd:?} lost with no lineage recipe — \
                 a cache fed through a shuffle cannot be rebuilt in this model"
            );
        };
        self.job_of_mut(task).metrics.recovery.recomputed_partitions += 1;
        // Combined chain: recipe steps, the cache point, then the stage's
        // own steps (stage cache points shift past the recipe prefix).
        let prefix = spec.steps.len();
        let mut steps = spec.steps.clone();
        steps.extend(stage.steps.iter().cloned());
        let mut cache_points = vec![(spec.cache_step, rdd)];
        cache_points.extend(stage.cache_points.iter().map(|&(i, r)| (i + prefix, r)));
        self.ensure_placed(spec.source, &spec.dataset);
        let rec_stage = StagePlan {
            input: StageInput::Dataset {
                rdd: spec.source,
                dataset: spec.dataset.clone(),
            },
            steps,
            cache_points,
            shuffle_out: stage.shuffle_out.clone(),
        };
        (Arc::new(rec_stage), spec.source)
    }

    // ---------------- fault handling & recovery ----------------

    /// Fail a running attempt: account the wasted work, reset the task to
    /// Pending with a bumped attempt number (orphaning any in-flight I/O and
    /// finish events of the old attempt), then re-queue it — after `backoff`
    /// if nonzero. `attribute` counts the failure against the node for
    /// blacklisting; crash- and fetch-induced failures don't.
    pub(super) fn fail_task(
        &mut self,
        now: SimTime,
        task: u32,
        backoff: SimDuration,
        attribute: bool,
        out: &mut Outbox<Ev>,
    ) {
        self.faults.abandon_io();
        let node = self.tasks.node[task as usize];
        let wasted = now.since(self.tasks.launched_at[task as usize]);
        if let Some(rec) = self.recovery_of(self.tasks.job[task as usize]) {
            rec.wasted_secs += wasted.as_secs_f64();
            rec.tasks_retried += 1;
        }
        self.trace(
            now,
            TE::TaskRetried {
                task,
                node,
                attempt: u32::from(self.tasks.attempt[task as usize]),
                wasted,
                backoff,
            },
        );
        if self.nodes.is_up(node) {
            self.nodes.free_slot(node);
            if matches!(self.tasks.kind(task), TaskKind::Store { .. }) {
                self.abandon_store_output(task, node);
            }
        }
        {
            let i = task as usize;
            self.tasks.set_state(task, TState::Pending);
            // Pending again, it is runnable wherever a queue still holds an
            // entry of its earlier attempt — before any requeue.
            self.nodes.index_mut().unpark_all();
            self.tasks.node[i] = u32::MAX;
            self.tasks.attempt[i] += 1;
            self.tasks.set_flag(task, Flag::Doomed, false);
            self.tasks.pending_io[i] = 0;
            self.tasks.set_flag(task, Flag::FinishScheduled, false);
            // A compute retry evaluates its chain again; a fetch task keeps
            // the aggregation its first launch committed, which its retry
            // reuses (`queue_reduce`).
            if !matches!(self.tasks.kind(task), TaskKind::Fetch { .. }) {
                self.tasks.real_out.remove(&task);
            }
            self.tasks.compute_dur[i] = SimDuration::ZERO;
            self.tasks.queued_at[i] = now;
        }
        if u32::from(self.tasks.attempt[task as usize]) >= MAX_TASK_ATTEMPTS {
            let ji = self.job_index_of(task);
            self.abort_job(now, ji, out);
            return;
        }
        if attribute && self.nodes.blame(node, BLACKLIST_AFTER) {
            if let Some(rec) = self.recovery_of(self.tasks.job[task as usize]) {
                rec.blacklisted_nodes += 1;
            }
            self.trace(now, TE::Blacklisted { node });
            let Some(repl) = self.nodes.replacement() else {
                self.abort_all_jobs(now, out);
                return;
            };
            self.repin_pinned_off(node, repl);
        }
        // Drop dead/blacklisted nodes from the task's preferences; a pinned
        // task left with nowhere to go re-pins to the replacement.
        let pin = self.tasks.pin[task as usize];
        if pin == UNPINNED {
            let nodes = &self.nodes;
            self.tasks.retain_prefs(task, |n| nodes.usable(n));
        } else if !self.nodes.usable(pin) {
            let Some(repl) = self.nodes.replacement() else {
                let ji = self.job_index_of(task);
                self.abort_job(now, ji, out);
                return;
            };
            self.tasks.pin[task as usize] = repl;
        }
        self.trace_queued(now, task);
        if backoff > SimDuration::ZERO {
            out.after(
                backoff,
                Ev::Requeue {
                    task,
                    job: self.tasks.job[task as usize],
                },
            );
            // Bugfix (DESIGN.md §4.14): the backoff requeue is the only
            // slot-freeing path that does not schedule a Dispatch. If the
            // last dispatch pass starved (no available node, no retry wake),
            // the freed slot must re-arm dispatch or pending work wedges
            // until an unrelated event happens along.
            if self.nodes.is_up(node) && self.sched.take_starved() {
                out.immediately(Ev::Dispatch);
            }
        } else {
            let ji = self.job_index_of(task);
            self.enqueue_pending(ji, [task]);
            out.immediately(Ev::Dispatch);
        }
    }

    /// Re-pin pending pinned tasks away from a dead/blacklisted node to
    /// `repl` and queue them there. Their queue entries on the old node are
    /// left behind; dispatch never visits that node, and `pick` tolerates
    /// duplicates.
    fn repin_pinned_off(&mut self, node: u32, repl: u32) {
        let mut moved = Vec::new();
        for i in 0..self.tasks.len() {
            if self.tasks.state[i] == TState::Pending && self.tasks.pin[i] == node {
                self.tasks.pin[i] = repl;
                moved.push(i as u32);
            }
        }
        for id in moved {
            let ji = self.job_index_of(id);
            self.enqueue_pending(ji, [id]);
        }
    }

    /// No usable node is left (crashed or blacklisted): every resident job
    /// dies with the cluster.
    fn abort_all_jobs(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        while !self.jobs.is_empty() {
            self.abort_job(now, 0, out);
        }
    }

    /// Give up on one job: a task exhausted its attempt budget or no live
    /// node remains. Mirrors Spark's job abort after repeated task failure.
    /// Other resident jobs keep running.
    pub(super) fn abort_job(&mut self, now: SimTime, ji: usize, out: &mut Outbox<Ev>) {
        let id = self.jobs[ji].id;
        self.jobs[ji].metrics.recovery.aborted_jobs += 1;
        self.trace(
            now,
            TE::JobEnd {
                job: id,
                aborted: true,
            },
        );
        self.faults.abandon_io();
        let job = self.jobs.remove(ji);
        self.release_shuffles(now, &job, out);
        // Retire the aborted job's tasks. Running ones hand their slot back
        // (the stale-completion filter drops their in-flight IO); queue
        // entries die with the JobRun.
        for i in 0..self.tasks.len() {
            if self.tasks.job[i] != id {
                continue;
            }
            match self.tasks.state[i] {
                TState::Pending => self.tasks.set_state(i as u32, TState::Done),
                TState::Running => {
                    let node = self.tasks.node[i];
                    self.tasks.set_state(i as u32, TState::Done);
                    if node != u32::MAX && self.nodes.is_up(node) {
                        self.nodes.free_slot(node);
                    }
                }
                TState::Done => {}
            }
        }
        {
            let tasks = &self.tasks;
            self.pending.retain(|c| tasks.job[c.task as usize] != id);
        }
        let output = JobOutput {
            count: 0,
            records: None,
            reduced: None,
            aborted: true,
        };
        self.job_departed(now, job, output, out);
    }

    /// A node dies: its slots, running work, cached partitions and (for a
    /// node-local store) deposited intermediate rows are gone. Running tasks
    /// re-queue; lost rows are re-hosted at a replacement node and the work
    /// that produced them is redone as time-only ghost tasks, so the job's
    /// output matches a fault-free run while the recovery time is charged in
    /// full.
    fn node_crash(
        &mut self,
        now: SimTime,
        node: u32,
        restart: Option<SimDuration>,
        out: &mut Outbox<Ev>,
    ) {
        if !self.nodes.is_up(node) {
            return;
        }
        self.recovery_all(|r| r.node_crashes += 1);
        self.nodes.crash(node);
        self.trace(now, TE::NodeDown { node });
        let n_lost = self.blockmgr.drop_node(node).len() as u64;
        self.recovery_all(|r| r.blocks_lost += n_lost);
        if n_lost > 0 {
            self.trace(
                now,
                TE::BlocksLost {
                    node,
                    blocks: n_lost,
                },
            );
        }
        if let Some(d) = restart {
            out.after(d, Ev::NodeRestart { node });
        }
        // Fail everything running there (the node is already down, so
        // fail_task won't hand slots back to the dead node).
        let running: Vec<u32> = (0..self.tasks.len())
            .filter(|&i| self.tasks.state[i] == TState::Running && self.tasks.node[i] == node)
            .map(|i| i as u32)
            .collect();
        for id in running {
            // A failure can abort the owning job, retiring its siblings (and,
            // when it was the last resident job, clearing the whole arena).
            if id as usize >= self.tasks.len() || self.tasks.state[id as usize] != TState::Running {
                continue;
            }
            self.fail_task(now, id, SimDuration::ZERO, false, out);
        }
        if self.jobs.is_empty() {
            return;
        }
        let Some(repl) = self.nodes.replacement() else {
            self.abort_all_jobs(now, out);
            return;
        };
        self.repin_pinned_off(node, repl);
        // Fetch tasks mid-pull from the dead node retry with backoff (the
        // shared Lustre store serves every byte from the OSSes — nothing to
        // retry there beyond the reducers that died with the node).
        if self.fetches_pull_from_nodes() {
            self.fail_fetches_from(now, node, out);
            if self.jobs.is_empty() {
                return;
            }
        }
        self.rehost_shuffle_rows(node, repl);
        self.trace(
            now,
            TE::Rehost {
                from: node,
                to: repl,
            },
        );
        for ji in 0..self.jobs.len() {
            self.spawn_crash_ghosts(now, ji, node, repl);
        }
        out.immediately(Ev::Dispatch);
    }

    /// A crashed node comes back (empty memory, disk intact), or a live but
    /// blacklisted executor is restarted and its slots are eligible again.
    /// Either way re-arm dispatch — without this, a fully-blacklisted
    /// cluster wedges even after every executor recovers.
    pub(super) fn node_restart(&mut self, now: SimTime, node: u32, out: &mut Outbox<Ev>) {
        let Some(was_down) = self.nodes.restart(node) else {
            return;
        };
        if was_down {
            self.recovery_all(|r| r.node_restarts += 1);
        }
        self.trace(now, TE::NodeUp { node });
        self.sched.take_starved();
        out.immediately(Ev::Dispatch);
    }

    /// Fail every running fetch task currently pulling rows from `src`.
    fn fail_fetches_from(&mut self, now: SimTime, src: u32, out: &mut Outbox<Ev>) {
        let victims: Vec<u32> = (0..self.tasks.len())
            .filter(|&i| {
                self.tasks.state[i] == TState::Running
                    && matches!(self.tasks.kind(i as u32), TaskKind::Fetch { reducer }
                        if self
                            .jobs
                            .iter()
                            .find(|j| j.id == self.tasks.job[i])
                            .and_then(|j| j.phase.reading())
                            .is_some_and(|sh| sh.pulls_from(src, reducer)))
            })
            .map(|i| i as u32)
            .collect();
        for id in victims {
            // A prior failure may have aborted the owning job (or cleared
            // the arena entirely) — skip stale victims.
            if id as usize >= self.tasks.len() || self.tasks.state[id as usize] != TState::Running {
                continue;
            }
            let att = self.tasks.attempt[id as usize].min(8);
            let backoff = FETCH_BACKOFF.mul_f64(2f64.powi(att as i32));
            if let Some(rec) = self.recovery_of(self.tasks.job[id as usize]) {
                rec.failed_fetches += 1;
                rec.fetch_retries += 1;
            }
            self.fail_task(now, id, backoff, false, out);
        }
    }

    /// Redo the dead node's finished producer work as time-only ghosts
    /// pinned to the replacement: recompute ghosts for its compute tasks of
    /// the stage feeding the live shuffle, and re-flush ghosts for its store
    /// tasks when the store died with the node.
    fn spawn_crash_ghosts(&mut self, now: SimTime, ji: usize, node: u32, repl: u32) {
        let local_store = self.store_is_node_local();
        let job = &self.jobs[ji];
        let (job_id, idx) = (job.id, job.stage as u32);
        let has_shuffle_out = job.phase.writing().is_some();
        let producing_stage = match (has_shuffle_out, job.phase.reading()) {
            (true, _) => Some(idx),
            // Final fetch stage: the consumed rows came from stage idx-1.
            (false, Some(_)) => Some(idx - 1),
            (false, None) => None,
        };
        let mut ghosts: Vec<(u32, TaskKind)> = Vec::new();
        for i in 0..self.tasks.len() {
            if self.tasks.state[i] != TState::Done
                || self.tasks.node[i] != node
                || self.tasks.job[i] != job_id
            {
                continue;
            }
            let kind = self.tasks.kind(i as u32);
            match kind {
                TaskKind::Compute { .. } if Some(self.tasks.stage[i]) == producing_stage => {
                    ghosts.push((self.tasks.stage[i], kind));
                }
                TaskKind::Store { .. } if has_shuffle_out && local_store => {
                    ghosts.push((self.tasks.stage[i], kind));
                }
                _ => {}
            }
        }
        if ghosts.is_empty() {
            return;
        }
        self.reserve_tasks(ji, ghosts.len());
        let created = self.tasks.len() as u32..(self.tasks.len() + ghosts.len()) as u32;
        for (stage, kind) in ghosts {
            if matches!(kind, TaskKind::Compute { .. }) {
                self.jobs[ji].metrics.recovery.recomputed_partitions += 1;
            }
            let mut t = Task::new(job_id, stage, kind, now);
            t.pin = repl;
            t.flags = Flag::Ghost as u8;
            self.tasks.push(t);
        }
        self.trace(
            now,
            TE::GhostsSpawned {
                node,
                count: created.len() as u32,
            },
        );
        self.jobs[ji].remaining += created.len();
        self.queue_tasks(now, ji, created);
    }

    /// Apply a scheduled fault-plan event.
    pub(super) fn apply_fault(&mut self, now: SimTime, idx: usize, out: &mut Outbox<Ev>) {
        let Some(kind) = self
            .cfg
            .faults
            .as_ref()
            .and_then(|p| p.events.get(idx))
            .map(|e| e.kind)
        else {
            return;
        };
        self.trace(
            now,
            TE::FaultInjected {
                kind: kind.label(),
                node: kind.node().unwrap_or(u32::MAX),
            },
        );
        match kind {
            FaultKind::NodeCrash { node, restart } => self.node_crash(now, node, restart, out),
            FaultKind::BlockLoss { node } => {
                // Executor memory loss: cached partitions evaporate, the
                // node itself keeps running. Lineage rebuilds them on demand.
                let n_lost = self.blockmgr.drop_node(node).len() as u64;
                self.recovery_all(|r| r.blocks_lost += n_lost);
            }
            FaultKind::SsdDegrade { node, factor } => {
                self.recovery_all(|r| r.ssd_degradations += 1);
                self.ssd_fs[node as usize].degrade_device(now, factor);
                self.arm(Substrate::Fs { node, ssd: true }, out);
                self.sync_ssd_read_link(now, node, true, out);
            }
            FaultKind::FetchFail { src } => self.fail_fetches_from(now, src, out),
            // Consumed at launch via `doomed_launches`.
            FaultKind::TaskFail { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tasks::{Flag, TState};
    use super::super::tests::{push_pinned_store, world_with_idle_nodes_parked};
    use super::super::SimWorld;
    use crate::config::EngineConfig;
    use crate::rdd::{Action, Dataset, Rdd};
    use crate::value::{Record, Value};
    use memres_cluster::tiny;
    use memres_des::time::{SimDuration, SimTime};

    #[test]
    fn a_crash_thins_the_retrys_preferences_and_pins_its_ghosts() {
        // Two replicas a block, sixteen map tasks over four nodes, a shuffle
        // behind them so finished map output is worth a ghost.
        let cfg = EngineConfig {
            input_replication: 2,
            ..EngineConfig::default()
        };
        let mut w = SimWorld::new(tiny(4), cfg);
        let recs: Vec<Record> = (0..256).map(|i| (Value::I64(i), Value::I64(i))).collect();
        let rdd = Rdd::source(Dataset::from_records(recs, 16)).group_by_key(Some(2), 1e9);
        let plan = crate::dag::build_plan(&rdd, Action::Count, &Default::default());
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, plan, &mut out);
        w.dispatch(SimTime::ZERO, &mut out);
        fn running(w: &SimWorld, node: u32) -> impl Iterator<Item = u32> + '_ {
            let on_node = move |t: &u32| {
                w.tasks.state[*t as usize] == TState::Running && w.tasks.node[*t as usize] == node
            };
            (0..16u32).filter(on_node)
        }
        // The victim: a node with a running task that prefers it and one
        // other node, and a task it has finished.
        let (retry, victim) = (0..16u32)
            .filter(|&t| w.tasks.state[t as usize] == TState::Running)
            .map(|t| (t, w.tasks.node[t as usize]))
            .find(|&(t, n)| w.tasks.prefs_of(t).contains(&n) && running(&w, n).count() == 2)
            .expect("a node-local launch on a full node");
        assert_eq!(w.tasks.prefs_of(retry).len(), 2);
        let done = running(&w, victim)
            .find(|&t| t != retry)
            .expect("two slots");
        let job = w.jobs[0].id;
        let t1 = SimTime::from_secs_f64(1.0);
        w.tasks.compute_dur[done as usize] = SimDuration::ZERO;
        w.on_task_finish(t1, done, 0, job, &mut out);
        let before = w.tasks.len() as u32;
        w.node_crash(t1, victim, None, &mut out);
        // The failed attempt is pending again and no longer asks for the
        // dead node; the other replica is still its preference.
        assert_eq!(w.tasks.state[retry as usize], TState::Pending);
        let survivor: Vec<u32> = w.tasks.prefs_of(retry).to_vec();
        assert_eq!(survivor.len(), 1);
        assert_ne!(survivor[0], victim);
        // The finished task's output died with the node: one ghost, pinned
        // to the replacement, preferring nothing, nobody's twin.
        let ghost = before;
        assert_eq!(w.tasks.len() as u32, before + 1);
        assert!(w.tasks.flag(ghost, Flag::Ghost));
        assert_eq!(w.tasks.kind(ghost), w.tasks.kind(done));
        let repl = w.tasks.pin[ghost as usize];
        assert!(repl != victim && w.nodes.usable(repl));
        assert!(w.tasks.prefs_of(ghost).is_empty());
        assert_eq!(w.tasks.twin(ghost), None);
        w.audit_invariants().expect("queues and counts agree");
    }

    #[test]
    fn work_repinned_onto_a_parked_node_unparks_it() {
        // `repin_pinned_off` queues work outside any stage start: a flush
        // pinned to a node that dies moves to the replacement node — node 0,
        // parked here. Without the un-park of its enqueue the flush sits on
        // a node no dispatch visits.
        // (In a crash that also kills running attempts, `fail_task` happens
        // to wake everyone first; the audit holds this site to the rule on
        // its own.)
        let mut w = world_with_idle_nodes_parked();
        let victim = (1..4)
            .find(|&n| w.nodes.index().is_parked(n))
            .expect("a parked node besides node 0");
        let id = push_pinned_store(&mut w, victim);
        w.nodes.index_mut().park(0);
        w.nodes.crash(victim);
        let repl = w.nodes.replacement().expect("node 0 is up");
        w.repin_pinned_off(victim, repl);
        assert_eq!(w.tasks.pin[id as usize], 0, "re-pinned to the replacement");
        assert!(w.nodes.index().is_live(0), "the replacement node must wake");
        w.audit_invariants().expect("no parked node has work");
        // Teeth: the same state with node 0 parked is what the audit is for.
        w.nodes.index_mut().park(0);
        let err = w.audit_invariants().expect_err("node 0 parked with work");
        assert!(
            err.contains("node 0 is parked with a pending task"),
            "{err}"
        );
    }
}
