//! Time-series metrics sampler (DESIGN.md §4.16).

#![allow(clippy::indexing_slicing)]

use super::*;

impl SimWorld {
    // ---------------- time-series metrics plane (DESIGN.md §4.16) ----------------

    /// Start the periodic sampler chain, once. The first sample fires
    /// immediately (t = submission time); each handler firing chains the
    /// next tick. The chain is never torn down — the driver stops stepping
    /// at `job_done`, so a leftover tick is harmless, and on back-to-back
    /// submissions the surviving chain keeps sampling (this guard prevents
    /// a duplicate chain from doubling the sample rate).
    pub(super) fn arm_metrics(&mut self, out: &mut Outbox<Ev>) {
        if self.metrics_armed || self.recorder.is_none() {
            return;
        }
        self.metrics_armed = true;
        out.immediately(Ev::MetricsSample);
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

    /// Snapshot every layer's gauges into the recorder. Called only from the
    /// `MetricsSample` event, so all reads happen at a deterministic sim
    /// time regardless of executor thread count.
    pub(super) fn sample_metrics(&mut self, now: SimTime) {
        let Some(mut rec) = self.recorder.take() else {
            return;
        };
        // Engine self-stats (pushed by `observe_engine` after every step).
        let es = self.engine_stats;
        rec.sample("engine_events_total", None, now, es.steps as f64);
        rec.sample(
            "engine_events_per_sample",
            None,
            now,
            es.steps.saturating_sub(self.last_sample_steps) as f64,
        );
        self.last_sample_steps = es.steps;
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
        let tenants = self
            .stream
            .as_ref()
            .map(|s| s.spec.tenants.len())
            .unwrap_or(1);
        for t in 0..tenants as u32 {
            let queued = self
                .stream
                .as_ref()
                .map(|s| s.queued.iter().filter(|p| p.tenant == t).count())
                .unwrap_or(0);
            rec.sample("tenant_queued_jobs", Some(t), now, queued as f64);
            let running = self.jobs.iter().filter(|j| j.tenant == t).count();
            rec.sample("tenant_running_jobs", Some(t), now, running as f64);
            let mut burn = self
                .tenant_latency_acc
                .get(t as usize)
                .copied()
                .unwrap_or(0.0);
            burn += self
                .jobs
                .iter()
                .filter(|j| j.tenant == t)
                .map(|j| now.since(j.arrived).as_secs_f64())
                .sum::<f64>();
            if let Some(s) = self.stream.as_ref() {
                burn += s
                    .queued
                    .iter()
                    .filter(|p| p.tenant == t)
                    .map(|p| now.since(p.arrived).as_secs_f64())
                    .sum::<f64>();
            }
            rec.sample("tenant_slo_burn_secs", Some(t), now, burn);
        }
        rec.tick();
        self.recorder = Some(rec);
    }

    /// The sample accumulator (None when `cfg.metrics` is off).
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }
}
