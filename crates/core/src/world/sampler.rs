//! The time-series metrics plane's sampler (DESIGN.md §4.16): a periodic
//! `MetricsSample` event that snapshots every layer's gauges into the
//! recorder.

use super::{Ev, NetTag, SimWorld};
use memres_cluster::NodeId;
use memres_des::sim::{EngineStats, Outbox};
use memres_des::time::SimTime;
use memres_metrics::{MetricsConfig, Recorder};
use memres_net::{FlowNet, LinkId};

pub(super) struct Sampler {
    /// Sample accumulator; `None` when `cfg.metrics` is off, so the sampler
    /// event is never scheduled and gauge collection costs nothing.
    recorder: Option<Recorder>,
    /// The sampler chain is armed once, at the first submission (mirrors
    /// the fault plan's arming); the leftover chained event survives
    /// back-to-back jobs on one world, and this guard prevents duplicate
    /// chains.
    armed: bool,
    /// Latest engine self-stats snapshot (pushed by `observe_engine`).
    engine_stats: EngineStats,
    /// Engine step count at the previous sample (events-per-sample delta).
    last_sample_steps: u64,
    /// Per-tenant cumulative finished-job latency, grown on demand (the
    /// `tenant_slo_burn_secs` base; resident/queued job ages are added at
    /// sample time).
    tenant_latency_acc: Vec<f64>,
}

impl Sampler {
    pub(super) fn new(metrics: Option<MetricsConfig>) -> Self {
        Sampler {
            recorder: metrics.map(Recorder::new),
            armed: false,
            engine_stats: EngineStats::default(),
            last_sample_steps: 0,
            tenant_latency_acc: Vec::new(),
        }
    }

    pub(super) fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    pub(super) fn observe_engine(&mut self, stats: EngineStats) {
        self.engine_stats = stats;
    }

    /// Fold one finished (or aborted) job's latency into its tenant's
    /// cumulative burn gauge.
    pub(super) fn note_job_latency(&mut self, tenant: u32, arrived: SimTime, now: SimTime) {
        if self.recorder.is_none() {
            return;
        }
        let t = tenant as usize;
        if self.tenant_latency_acc.len() <= t {
            self.tenant_latency_acc.resize(t + 1, 0.0);
        }
        self.tenant_latency_acc[t] += now.since(arrived).as_secs_f64();
    }
}

impl SimWorld {
    /// Start the periodic sampler chain, once. The first sample fires
    /// immediately (t = submission time); each handler firing chains the
    /// next tick. The chain is never torn down — the driver stops stepping
    /// at `job_done`, so a leftover tick is harmless, and on back-to-back
    /// submissions the surviving chain keeps sampling (this guard prevents
    /// a duplicate chain from doubling the sample rate).
    pub(super) fn arm_metrics(&mut self, out: &mut Outbox<Ev>) {
        if self.sampler.armed || self.sampler.recorder.is_none() {
            return;
        }
        self.sampler.armed = true;
        out.immediately(Ev::MetricsSample);
    }

    /// Snapshot every layer's gauges into the recorder and chain the next
    /// tick. Called only from the `MetricsSample` event, so all reads happen
    /// at a deterministic sim time regardless of executor thread count.
    pub(super) fn sample_metrics(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        let Some(mut rec) = self.sampler.recorder.take() else {
            return;
        };
        // Engine self-stats (pushed by `observe_engine` after every step).
        let es = self.sampler.engine_stats;
        rec.sample("engine_events_total", None, now, es.steps as f64);
        rec.sample(
            "engine_events_per_sample",
            None,
            now,
            es.steps.saturating_sub(self.sampler.last_sample_steps) as f64,
        );
        self.sampler.last_sample_steps = es.steps;
        rec.sample("engine_queue_len", None, now, es.queue_len as f64);
        rec.sample("engine_queue_lane", None, now, es.queue.lane as f64);

        // Network: utilization = allocated max–min-fair rate / capacity.
        rec.sample(
            "net_active_flows",
            None,
            now,
            self.net.active_flows() as f64,
        );
        let util = |net: &mut FlowNet<NetTag>, link: LinkId| {
            let cap = net.link_capacity(link);
            if cap > 0.0 {
                net.link_rate(link) / cap
            } else {
                0.0
            }
        };
        for r in 0..self.spec.racks as usize {
            let up = self.fabric.rack_uplink(r);
            let down = self.fabric.rack_downlink(r);
            let u = util(&mut self.net, up);
            rec.sample("net_rack_up_util", Some(r as u32), now, u);
            let d = util(&mut self.net, down);
            rec.sample("net_rack_down_util", Some(r as u32), now, d);
        }
        let core = util(&mut self.net, self.fabric.core_link());
        rec.sample("net_core_util", None, now, core);
        let pipe = util(&mut self.net, self.fabric.lustre_pipe());
        rec.sample("net_lustre_pipe_util", None, now, pipe);

        // Storage: queue depths, page-cache pressure, GC state.
        let ram_q: usize = self.ram_fs.iter().map(|fs| fs.device_queue_depth()).sum();
        rec.sample("storage_ram_queue_depth", None, now, ram_q as f64);
        let ssd_q: usize = self.ssd_fs.iter().map(|fs| fs.device_queue_depth()).sum();
        rec.sample("storage_ssd_queue_depth", None, now, ssd_q as f64);
        let dirty: f64 = self.ssd_fs.iter().map(|fs| fs.dirty_bytes()).sum();
        rec.sample("storage_ssd_dirty_bytes", None, now, dirty);
        let gc_nodes = self
            .ssd_fs
            .iter()
            .filter(|fs| fs.device().gc_active())
            .count();
        rec.sample("storage_ssd_gc_nodes", None, now, gc_nodes as f64);
        let fill = self
            .ssd_fs
            .iter()
            .map(|fs| fs.device().buffer_fill())
            .fold(0.0f64, f64::max);
        rec.sample("storage_ssd_buffer_fill_max", None, now, fill);

        // Lustre.
        rec.sample("lustre_mds_backlog", None, now, self.lustre.mds_backlog());
        let client_dirty: f64 = (0..self.spec.workers)
            .map(|n| self.lustre.client_dirty(NodeId(n)))
            .sum();
        rec.sample("lustre_client_dirty_bytes", None, now, client_dirty);

        // Core engine occupancy.
        let resident_bytes: f64 = (0..self.spec.workers)
            .map(|n| self.blockmgr.bytes_on(n))
            .sum();
        rec.sample("core_resident_partition_bytes", None, now, resident_bytes);
        rec.sample("core_task_arena_tasks", None, now, self.tasks.len() as f64);
        rec.sample("core_tasks_pending", None, now, self.tasks.pending() as f64);
        let busy = self.nodes.busy_slots();
        rec.sample("core_busy_slots", None, now, busy as f64);
        rec.sample("core_resident_jobs", None, now, self.jobs.len() as f64);

        // Tenancy: per-tenant queue/occupancy/burn (single-job runs report
        // one tenant, 0, so the export shape is uniform).
        for t in 0..self.tenant_count() as u32 {
            let (queued, queued_age) = self.queued_jobs_of(t, now);
            rec.sample("tenant_queued_jobs", Some(t), now, queued as f64);
            let running = self.jobs.iter().filter(|j| j.tenant == t).count();
            rec.sample("tenant_running_jobs", Some(t), now, running as f64);
            let acc = &self.sampler.tenant_latency_acc;
            let mut burn = acc.get(t as usize).copied().unwrap_or(0.0);
            burn += self
                .jobs
                .iter()
                .filter(|j| j.tenant == t)
                .map(|j| now.since(j.arrived).as_secs_f64())
                .sum::<f64>();
            burn += queued_age;
            rec.sample("tenant_slo_burn_secs", Some(t), now, burn);
        }
        rec.tick();
        // Always chain: the driver stops stepping at job_done, so the tail
        // tick dies with the run (or picks sampling back up if another job
        // is submitted on this world).
        out.after(rec.interval(), Ev::MetricsSample);
        self.sampler.recorder = Some(rec);
    }

    /// The sample accumulator (None when `cfg.metrics` is off).
    pub fn recorder(&self) -> Option<&Recorder> {
        self.sampler.recorder()
    }
}
