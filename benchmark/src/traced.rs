//! The traced run: `SimWorld` driven from outside through its public API,
//! with every call into a layer timed.
//!
//! This is `Driver::try_new` + `Driver::run`/`run_stream` +
//! `Simulation::try_step` restated with an own event queue, so that the
//! queue's pops and pushes and the world's `handle` can be timed one call at
//! a time without touching a product file. It must process exactly the
//! events the `Driver` run processes; the caller compares the two outcomes.
//!
//! Timestamps are chained — the end of one span is the start of the next —
//! so the kernel loop's time is partitioned among its child spans with no
//! gap, and `host.unattributed_frac` is only what lies outside named spans.

use crate::spans::Spans;
use crate::workloads::{render_metrics, render_trace, Inputs, Job, Outcome};
use memres_core::dag::build_plan;
use memres_core::world::Ev;
use memres_core::SimWorld;
use memres_des::{EngineStats, EventQueue, Model, Outbox, SimTime};
use std::time::Instant;

/// `Ev` variants that get a `core.world.handle.<K>` span of their own; the
/// rest (speed resampling and the fault-recovery events) share `Other`.
pub const HANDLE_KINDS: [&str; 10] = [
    "Dispatch",
    "DispatchNode",
    "TaskFinish",
    "NetWake",
    "FsWake",
    "LustreWake",
    "LustreSharedRead",
    "JobArrival",
    "MetricsSample",
    "Other",
];

fn kind_of(ev: &Ev) -> usize {
    match ev {
        Ev::Dispatch => 0,
        Ev::DispatchNode { .. } => 1,
        Ev::TaskFinish { .. } => 2,
        Ev::NetWake(_) => 3,
        Ev::FsWake { .. } => 4,
        Ev::LustreWake(_) => 5,
        Ev::LustreSharedRead { .. } => 6,
        Ev::JobArrival { .. } => 7,
        Ev::MetricsSample => 8,
        _ => 9,
    }
}

/// One per-layer metric: name, value, unit.
pub type Reading = (String, f64, &'static str);

/// Counts read at the layer boundaries during one traced run.
pub struct Traced {
    pub outcome: Outcome,
    pub spans: Spans,
    pub root: usize,
    pub queue_ops: u64,
    pub queue_len_max: usize,
    pub net_recomputes: u64,
    pub net_flows_peak: usize,
    pub heap_estimate_bytes: u64,
    pub trace_events: u64,
    pub metric_samples: u64,
}

pub fn run_traced(inp: &Inputs) -> Traced {
    let mut spans = Spans::default();
    let root = spans.node("run", None);
    let s_new = spans.node("core.world.new", Some(root));
    let s_plan = spans.node("core.dag.plan", Some(root));
    let s_submit = spans.node("core.world.submit", Some(root));
    let s_kernel = spans.node("des.kernel.loop", Some(root));
    let s_pop = spans.node("des.queue.pop", Some(s_kernel));
    let s_handle =
        HANDLE_KINDS.map(|k| spans.node(&format!("core.world.handle.{k}"), Some(s_kernel)));
    let s_push = spans.node("des.queue.push", Some(s_kernel));
    let s_observe = spans.node("des.kernel.observe", Some(s_kernel));
    let s_collect = spans.node("core.world.collect", Some(root));
    let s_trace_export = spans.node("trace.export", Some(root));
    let s_metrics_export = spans.node("metrics.export", Some(root));

    let t_run = Instant::now();

    // Driver::try_new.
    inp.spec.validate().expect("workload cluster spec is valid");
    inp.cfg
        .validate(inp.spec.workers)
        .expect("workload engine config is valid");
    let mut world = SimWorld::new(inp.spec.clone(), inp.cfg.clone());
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut queue_ops = 0u64;
    let start = SimTime::ZERO;
    if world.cfg.speed_sigma > 0.0 {
        queue.push(start + world.cfg.speed_resample, Ev::SpeedResample);
        queue_ops += 1;
    }
    let mut t = Instant::now();
    spans.add(s_new, t - t_run);

    // Driver::run / Driver::run_stream up to the drive loop.
    let mut out = Outbox::standalone(start);
    match &inp.job {
        Job::Single { rdd, action } => {
            let plan = build_plan(rdd, action.clone(), &world.blockmgr.materialized());
            let t_planned = Instant::now();
            spans.add(s_plan, t_planned - t);
            t = t_planned;
            world.submit_job(start, plan, &mut out);
        }
        Job::Stream(spec) => world.start_stream(start, spec.clone(), &mut out),
    }
    for (at, ev) in out.into_items() {
        queue.push(at.max(start), ev);
        queue_ops += 1;
    }
    let t_loop = Instant::now();
    spans.add(s_submit, t_loop - t);
    t = t_loop;

    // Simulation::try_step until the job (or stream) is done.
    let mut steps = 0u64;
    let mut queue_len_max = queue.len();
    let mut net_flows_peak = 0usize;
    while !world.job_done {
        let (now, ev) = queue
            .pop()
            .expect("simulation drained before completion (deadlock?)");
        steps += 1;
        let kind = kind_of(&ev);
        let t_popped = Instant::now();
        spans.add(s_pop, t_popped - t);

        let mut out = Outbox::standalone(now);
        world.handle(now, ev, &mut out);
        let t_handled = Instant::now();
        spans.add(s_handle[kind], t_handled - t_popped);

        let items = out.into_items();
        queue_ops += 1 + items.len() as u64;
        for (at, ev) in items {
            queue.push(at, ev);
        }
        let t_pushed = Instant::now();
        spans.add(s_push, t_pushed - t_handled);

        queue_len_max = queue_len_max.max(queue.len());
        net_flows_peak = net_flows_peak.max(world.net.active_flows());
        if world.wants_engine_stats() {
            world.observe_engine(EngineStats {
                steps,
                queue_len: queue.len(),
                queue: queue.stats(),
            });
        }
        t = Instant::now();
        spans.add(s_observe, t - t_pushed);
    }
    spans.add(s_kernel, t - t_loop);

    let outcome = match &inp.job {
        Job::Single { .. } => {
            let job = world.take_finished().expect("job finished without result");
            Outcome::of_single(&job.output, &job.metrics, steps)
        }
        Job::Stream(_) => Outcome::of_stream(&world.drain_finished(), steps),
    };
    let t_collected = Instant::now();
    spans.add(s_collect, t_collected - t);
    t = t_collected;

    let (mut trace_events, mut metric_samples) = (0, 0);
    if inp.observed() {
        trace_events = render_trace(&world.take_trace());
        let t_trace = Instant::now();
        spans.add(s_trace_export, t_trace - t);
        metric_samples = render_metrics(world.recorder().expect("observed run has a recorder"));
        t = Instant::now();
        spans.add(s_metrics_export, t - t_trace);
    }
    spans.add(root, t - t_run);

    Traced {
        outcome,
        spans,
        root,
        queue_ops,
        queue_len_max,
        net_recomputes: world.net.recomputes,
        net_flows_peak,
        heap_estimate_bytes: world.heap_estimate_bytes(),
        trace_events,
        metric_samples,
    }
}

impl Traced {
    /// Host nanoseconds of the whole traced run.
    pub fn wall_ns(&self) -> u64 {
        self.spans.nodes()[self.root].total_ns
    }

    /// The per-layer metrics of this run, in output order. `cpu_s` is the
    /// process CPU time the run took and `untraced_wall_s` the median wall of
    /// the same inputs run untraced, for the overhead figure.
    pub fn readings(&self, cpu_s: f64, untraced_wall_s: f64) -> Vec<Reading> {
        let sp = &self.spans;
        let span = |name: &str| {
            let id = sp.nodes().iter().position(|n| n.name == name);
            id.unwrap_or_else(|| panic!("no span named {name}"))
        };
        let secs = |name: &str| sp.total_s(span(name));
        let wall_s = sp.total_s(self.root);
        let events = self.outcome.events as f64;
        let mut v: Vec<Reading> = Vec::new();
        let mut put = |name: &str, value: f64, unit| v.push((name.to_string(), value, unit));
        put("des.queue.pop_s", secs("des.queue.pop"), "s");
        put("des.queue.push_s", secs("des.queue.push"), "s");
        put("des.queue.ops", self.queue_ops as f64, "count");
        put("des.queue.len_max", self.queue_len_max as f64, "count");
        put("des.kernel.events", events, "count");
        put(
            "des.kernel.us_per_event",
            secs("des.kernel.loop") * 1e6 / events,
            "us",
        );
        for k in HANDLE_KINDS {
            let id = span(&format!("core.world.handle.{k}"));
            put(&format!("core.world.handle.{k}.s"), sp.total_s(id), "s");
            put(
                &format!("core.world.handle.{k}.n"),
                sp.nodes()[id].count as f64,
                "count",
            );
        }
        put("core.world.new_s", secs("core.world.new"), "s");
        put("core.dag.plan_s", secs("core.dag.plan"), "s");
        put("core.world.submit_s", secs("core.world.submit"), "s");
        put("net.recomputes", self.net_recomputes as f64, "count");
        put("net.flows_peak", self.net_flows_peak as f64, "count");
        put(
            "core.world.heap_estimate_mb",
            self.heap_estimate_bytes as f64 / (1024.0 * 1024.0),
            "MB",
        );
        put("trace.events", self.trace_events as f64, "count");
        put("metrics.samples", self.metric_samples as f64, "count");
        put("trace.export_s", secs("trace.export"), "s");
        put("metrics.export_s", secs("metrics.export"), "s");
        put("host.cpu_s", cpu_s, "s");
        put("host.traced_wall_s", wall_s, "s");
        put(
            "host.trace_overhead_frac",
            wall_s / untraced_wall_s - 1.0,
            "frac",
        );
        put(
            "host.unattributed_frac",
            sp.unattributed_ns() as f64 / self.wall_ns() as f64,
            "frac",
        );
        put("sim.job_s", self.outcome.sim_job_s, "sim_s");
        v
    }
}
