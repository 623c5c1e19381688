//! The driver: submits jobs against a persistent simulated cluster.
//!
//! A [`Driver`] owns the simulation. Jobs run back-to-back on the same
//! cluster state, so cached RDDs persist across jobs — exactly how the LR
//! benchmark reuses its parsed input across iterations.

// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::config::EngineConfig;
use crate::dag::{build_plan, render_plan, JobPlan};
use crate::metrics::JobMetrics;
use crate::rdd::{Action, Rdd};
use crate::tenancy::{FinishedJob, StreamSpec};
use crate::world::{Ev, JobOutput, SimWorld};
use memres_cluster::ClusterSpec;
use memres_des::sim::{Outbox, Simulation};
use memres_des::time::SimTime;

pub struct Driver {
    sim: Simulation<SimWorld>,
}

/// The panicking entry points, each the twin of one that returns its error
/// ([`Driver::try_new`], [`Driver::run_audited`],
/// [`Driver::run_stream_audited`]) and panics with that error.
#[expect(
    clippy::panic,
    reason = "documented panicking twins: each non-panicking twin returns the same error"
)]
impl Driver {
    /// Build a driver, panicking on an invalid configuration. Prefer
    /// [`Driver::try_new`] where the config comes from user input.
    pub fn new(spec: ClusterSpec, cfg: EngineConfig) -> Driver {
        match Driver::try_new(spec, cfg) {
            Ok(d) => d,
            Err(e) => panic!("invalid engine configuration: {e}"),
        }
    }

    /// Run `action` on `rdd` to completion; returns the result and the
    /// job's task-level metrics. Panics where [`Driver::run_audited`] errs.
    pub fn run(&mut self, rdd: &Rdd, action: Action) -> (JobOutput, JobMetrics) {
        self.run_audited(rdd, action, 0)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run a multi-tenant job stream to completion: seed the arrival
    /// process, drive the simulation until every arrival has been admitted,
    /// executed and retired, and return the finished jobs in completion
    /// order. Feed the result to [`crate::tenancy::TenantSlo::compute`] for
    /// per-tenant queueing-delay / latency / slowdown summaries. Panics
    /// where [`Driver::run_stream_audited`] errs.
    pub fn run_stream(&mut self, spec: StreamSpec) -> Vec<FinishedJob> {
        self.run_stream_audited(spec, 0)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Driver {
    /// Build a driver after validating `cfg` against the cluster shape;
    /// returns a descriptive error instead of simulating a nonsense cluster.
    pub fn try_new(spec: ClusterSpec, cfg: EngineConfig) -> Result<Driver, String> {
        spec.validate()?;
        cfg.validate(spec.workers)?;
        let world = SimWorld::new(spec, cfg);
        let mut sim = Simulation::new(world);
        sim.max_steps = 500_000_000;
        if sim.model.cfg.speed_sigma > 0.0 {
            let period = sim.model.cfg.speed_resample;
            sim.schedule_after(period, Ev::SpeedResample);
        }
        Ok(Driver { sim })
    }

    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    pub fn world(&self) -> &SimWorld {
        &self.sim.model
    }

    pub fn world_mut(&mut self) -> &mut SimWorld {
        &mut self.sim.model
    }

    /// Build the plan an action would run (cache-aware), without running it.
    pub fn plan(&self, rdd: &Rdd, action: Action) -> JobPlan {
        build_plan(rdd, action, &self.sim.model.blockmgr.materialized())
    }

    /// Pretty-print the execution plan (paper Fig 3/4 style).
    pub fn explain(&self, rdd: &Rdd, action: Action) -> String {
        render_plan(&self.plan(rdd, action))
    }

    /// Convenience: run and return only the metrics.
    pub fn run_for_metrics(&mut self, rdd: &Rdd, action: Action) -> JobMetrics {
        self.run(rdd, action).1
    }

    /// [`Driver::run_stream`] with the fuzz harness's error discipline:
    /// calendar drain and event-budget exhaustion come back as `Err`, and
    /// every `audit_every` events the live engine state is cross-checked
    /// against independent reimplementations. The multi-job fuzz oracles
    /// (DESIGN.md §4.13/§4.14) drive streams through this entry point so a
    /// misbehaving scheduler cannot panic the fuzzer.
    pub fn run_stream_audited(
        &mut self,
        spec: StreamSpec,
        audit_every: u64,
    ) -> Result<Vec<FinishedJob>, String> {
        self.drive("stream", audit_every, |world, start, out| {
            world.start_stream(start, spec, out)
        })?;
        Ok(self.sim.model.drain_finished())
    }

    /// Run `action` on `rdd` like [`Driver::run`], but built to survive a
    /// misbehaving engine: calendar drain and event-budget exhaustion come
    /// back as `Err` instead of panicking, and every `audit_every` processed
    /// events the live engine state is cross-checked against independent
    /// reimplementations ([`SimWorld::audit_invariants`]) — the fuzz
    /// harness's entry point (DESIGN.md §4.13). `audit_every == 0` disables
    /// the audits but keeps the non-panicking error paths. A plan whose input
    /// the engine cannot place is refused before anything runs.
    pub fn run_audited(
        &mut self,
        rdd: &Rdd,
        action: Action,
        audit_every: u64,
    ) -> Result<(JobOutput, JobMetrics), String> {
        let plan = self.plan(rdd, action);
        self.sim.model.check_placeable(&plan)?;
        self.drive("job", audit_every, |world, start, out| {
            world.submit_job(start, plan, out)
        })?;
        if audit_every > 0 {
            self.sim
                .model
                .audit_invariants()
                .map_err(|e| format!("audit failed at job end: {e}"))?;
        }
        let fin = self
            .sim
            .model
            .take_finished()
            .ok_or_else(|| "job finished without result".to_string())?;
        Ok((fin.output, fin.metrics))
    }

    /// The one drive loop behind every `run*` entry point: `submit` seeds
    /// the world through a synthetic event turn, then the simulation steps
    /// until the world reports `job_done`, auditing every `audit_every`
    /// events (0 = never). `what` names the unit of work in error messages.
    fn drive(
        &mut self,
        what: &str,
        audit_every: u64,
        submit: impl FnOnce(&mut SimWorld, SimTime, &mut Outbox<Ev>),
    ) -> Result<(), String> {
        let start = self.sim.now();
        let mut out = Outbox::standalone(start);
        submit(&mut self.sim.model, start, &mut out);
        self.sim.drain_outbox(out);
        let mut since_audit = 0u64;
        while !self.sim.model.job_done {
            match self.sim.try_step() {
                Ok(true) => {}
                Ok(false) => {
                    return Err(format!(
                        "simulation drained before {what} completion (deadlock?)"
                    ))
                }
                Err(e) => {
                    return Err(format!(
                        "event budget exhausted (max_steps={}) before {what} completion",
                        e.max_steps
                    ))
                }
            }
            since_audit += 1;
            if audit_every > 0 && since_audit >= audit_every {
                since_audit = 0;
                self.sim.model.audit_invariants().map_err(|e| {
                    format!(
                        "audit failed at t={:.6}s: {e}",
                        self.sim.now().as_secs_f64()
                    )
                })?;
            }
        }
        // What is still queued is a few timers; the buffers that held the
        // job's widest task wave need not outlive it.
        self.sim.shrink_queue();
        Ok(())
    }

    /// Cap the event budget for subsequent runs (the fuzz harness lowers
    /// this from the 500M default so runaway specs fail fast as an `Err`
    /// from [`Driver::run_audited`] instead of burning CI minutes).
    pub fn set_max_steps(&mut self, max_steps: u64) {
        self.sim.max_steps = max_steps;
    }

    /// Events processed by the simulation engine so far (self-profiling).
    pub fn engine_steps(&self) -> u64 {
        self.sim.steps()
    }

    /// Drain the structured event log accumulated so far (empty when
    /// tracing is off). See DESIGN.md §4.11.
    pub fn take_trace(&mut self) -> Vec<memres_trace::TimedEvent> {
        self.sim.model.take_trace()
    }

    /// The time-series recorder accumulated so far (`None` when
    /// `cfg.metrics` is off). See DESIGN.md §4.16.
    pub fn recorder(&self) -> Option<&memres_metrics::Recorder> {
        self.sim.model.recorder()
    }

    /// Rough peak-heap estimate for engine self-profiling (arena capacities
    /// plus trace log plus shuffle accounting; not an allocator hook).
    pub fn heap_estimate_bytes(&self) -> u64 {
        self.sim.model.heap_estimate_bytes()
    }
}
