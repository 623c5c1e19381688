//! Admission (DESIGN.md §4.14): how a job arrives at, enters and leaves the
//! resident set. Single-job submissions enter through `SimWorld::admit_job`
//! directly; a multi-tenant stream feeds it from [`StreamState`] — seeded
//! arrivals, all known when the stream starts, and FIFO admission under a
//! residency cap — and every job, finished or aborted, leaves through
//! `job_departed`.

use super::{Ev, JobOutput, JobRun, SimWorld};
use crate::dag::build_plan;
use crate::tenancy::{FinishedJob, InterJobPolicy, JobFactory, StreamSpec};
use memres_des::sim::Outbox;
use memres_des::time::{SimDuration, SimTime};
use memres_trace::TraceEvent as TE;
use std::collections::VecDeque;
use std::sync::Arc;

/// One arrived-but-not-yet-admitted job in a multi-tenant stream.
struct PendingAdmission {
    id: u32,
    tenant: u32,
    k: u32,
    arrived: SimTime,
}

/// Multi-tenant stream bookkeeping (DESIGN.md §4.14).
pub(super) struct StreamState {
    spec: StreamSpec,
    /// Arrivals scheduled but not yet fired.
    outstanding_arrivals: usize,
    /// Arrived jobs waiting for an admission slot, FIFO.
    queued: VecDeque<PendingAdmission>,
}

impl StreamState {
    /// Begin `spec`: its state, and every arrival as `(offset from stream
    /// start, tenant, k)` in scheduling order.
    fn start(spec: StreamSpec) -> (Self, Vec<(SimDuration, u32, u32)>) {
        let mut upfront = Vec::new();
        for (tenant, ts) in (0u32..).zip(&spec.tenants) {
            let offsets = ts.arrival.upfront_offsets(spec.seed, tenant, ts.jobs);
            upfront.extend((0u32..).zip(offsets).map(|(k, off)| (off, tenant, k)));
        }
        let stream = StreamState {
            spec,
            outstanding_arrivals: upfront.len(),
            queued: VecDeque::new(),
        };
        (stream, upfront)
    }

    /// Job `id`, `tenant`'s `k`-th, arrived at `now`: it queues for admission.
    fn arrived(&mut self, id: u32, tenant: u32, k: u32, now: SimTime) {
        self.outstanding_arrivals = self.outstanding_arrivals.saturating_sub(1);
        self.queued.push_back(PendingAdmission {
            id,
            tenant,
            k,
            arrived: now,
        });
    }

    /// The next job to admit — FIFO — and its tenant's job factory, if the
    /// `resident` jobs leave room under the concurrency cap.
    fn admit_next(&mut self, resident: usize) -> Option<(PendingAdmission, JobFactory)> {
        if resident >= self.spec.max_concurrent.unwrap_or(usize::MAX) {
            return None;
        }
        let pa = self.queued.pop_front()?;
        let make = self.spec.tenants[pa.tenant as usize].make.clone();
        Some((pa, make))
    }

    /// True when no further jobs can arrive or be admitted.
    fn drained(&self) -> bool {
        self.outstanding_arrivals == 0 && self.queued.is_empty()
    }
}

impl SimWorld {
    /// Begin a multi-tenant job stream (see `StreamState::start` for when
    /// its jobs arrive). Admission is FIFO under `max_concurrent`; the
    /// configured [`InterJobPolicy`] orders *dispatch*, not admission.
    pub fn start_stream(&mut self, now: SimTime, spec: StreamSpec, out: &mut Outbox<Ev>) {
        assert!(
            self.jobs.is_empty() && self.stream.is_none(),
            "a stream starts on an idle world"
        );
        let (stream, upfront) = StreamState::start(spec);
        for &(off, tenant, k) in &upfront {
            out.at(now + off, Ev::JobArrival { tenant, k });
        }
        self.job_done = upfront.is_empty();
        if !upfront.is_empty() {
            // Sample across the whole stream, including pre-admission gaps.
            self.arm_metrics(out);
        }
        self.stream = Some(stream);
        self.stamp_net_wakes(now, out);
    }

    pub(super) fn on_job_arrival(
        &mut self,
        now: SimTime,
        tenant: u32,
        k: u32,
        out: &mut Outbox<Ev>,
    ) {
        if self.stream.is_none() {
            return; // stale arrival after the stream was torn down
        }
        self.job_seq += 1;
        let id = self.job_seq;
        self.trace(now, TE::JobArrived { job: id, tenant });
        if let Some(stream) = &mut self.stream {
            stream.arrived(id, tenant, k, now);
        }
        self.try_admissions(now, out);
    }

    /// Admit queued jobs FIFO while under the concurrency cap. The job's
    /// plan is built at admission time so cached RDDs materialized by
    /// earlier jobs are visible, exactly as sequential submission sees them.
    fn try_admissions(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        loop {
            let resident = self.jobs.len();
            let next = self.stream.as_mut().and_then(|s| s.admit_next(resident));
            let Some((pa, make)) = next else {
                return;
            };
            self.trace(
                now,
                TE::JobAdmitted {
                    job: pa.id,
                    tenant: pa.tenant,
                },
            );
            let (rdd, action) = make(pa.k);
            let plan = build_plan(&rdd, action, &self.blockmgr.materialized());
            self.admit_job(now, pa.id, pa.tenant, pa.arrived, Arc::new(plan), out);
        }
    }

    /// The end of every job's life, finished or aborted (`job` is already
    /// out of the resident set): take its task records out of the arena —
    /// the record columns whole when it had the arena to itself, else its
    /// own rows, copied in finish order —, hand `output` and the job's
    /// metrics to the driver, pull in queued admissions, and settle whether
    /// the run is over.
    pub(super) fn job_departed(
        &mut self,
        now: SimTime,
        mut job: JobRun,
        output: JobOutput,
        out: &mut Outbox<Ev>,
    ) {
        let held = self.heap_now() + job.heap_bytes() as u64;
        self.heap_high_water = self.heap_high_water.max(held);
        self.sampler.note_job_latency(job.tenant, job.arrived, now);
        job.metrics.finished_at = now.as_secs_f64();
        self.tasks.forget_outputs(job.id);
        let order = std::mem::take(&mut job.finish_order);
        job.metrics.tasks = if !self.jobs.is_empty() {
            self.tasks.gather_records(&order)
        } else {
            // The last resident job empties the arena.
            let arena = std::mem::take(&mut self.tasks);
            if arena.job.iter().all(|&j| j == job.id) {
                arena.into_records(order)
            } else {
                arena.gather_records(&order)
            }
        };
        self.finished.push_back(FinishedJob {
            id: job.id,
            tenant: job.tenant,
            arrived: job.arrived,
            admitted: job.admitted,
            finished: now,
            output,
            metrics: job.metrics,
        });
        self.try_admissions(now, out);
        self.job_done = self.jobs.is_empty() && self.stream.as_ref().is_none_or(|s| s.drained());
        if self.job_done {
            // Tear the stream down so the driver can submit again later.
            self.stream = None;
        }
    }

    /// The stream's inter-job dispatch policy (none for single-job runs).
    pub(super) fn inter_job_policy(&self) -> Option<&InterJobPolicy> {
        self.stream.as_ref().map(|s| &s.spec.policy)
    }

    /// Tenants of the running stream (single-job runs count as one tenant).
    pub(super) fn tenant_count(&self) -> usize {
        self.stream.as_ref().map_or(1, |s| s.spec.tenants.len())
    }

    /// Jobs of `tenant` waiting for admission, and their summed age at `now`.
    pub(super) fn queued_jobs_of(&self, tenant: u32, now: SimTime) -> (usize, f64) {
        let queued = self.stream.iter().flat_map(|s| &s.queued);
        let ages = queued
            .filter(|p| p.tenant == tenant)
            .map(|p| now.since(p.arrived).as_secs_f64());
        ages.fold((0, 0.0), |(n, sum), age| (n + 1, sum + age))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::rdd::{Action, Dataset, Rdd};
    use crate::tenancy::{ArrivalProcess, TenantSpec};
    use crate::value::Value;
    use memres_des::sim::{Outbox, Simulation};

    fn tenant(jobs: u32, arrival: ArrivalProcess) -> TenantSpec {
        let make: JobFactory = Arc::new(|_| {
            let rdd = Rdd::source(Dataset::generated(1e6, 1e5, 10.0));
            (rdd, Action::Count)
        });
        TenantSpec::new("t", jobs, arrival, make)
    }

    fn stream(tenants: Vec<TenantSpec>) -> StreamSpec {
        StreamSpec::new(tenants, InterJobPolicy::Fifo, 7)
    }

    #[test]
    fn admission_is_fifo_under_the_concurrency_cap() {
        let periodic = ArrivalProcess::Periodic { period_secs: 1.0 };
        let spec = stream(vec![tenant(2, periodic.clone()), tenant(1, periodic)]);
        let (mut s, upfront) = StreamState::start(spec.with_max_concurrent(2));
        let secs = SimDuration::from_secs;
        assert_eq!(
            upfront,
            vec![(secs(1), 0, 0), (secs(2), 0, 1), (secs(1), 1, 0)],
            "every open-loop arrival is known upfront, tenant by tenant"
        );
        assert!(s.admit_next(0).is_none(), "nothing has arrived yet");
        for (id, &(off, tenant, k)) in (1u32..).zip(&upfront) {
            s.arrived(id, tenant, k, SimTime::ZERO + off);
        }
        assert!(!s.drained(), "three jobs queued");
        let admitted = |s: &mut StreamState, resident| s.admit_next(resident).map(|(pa, _)| pa.id);
        assert_eq!(admitted(&mut s, 0), Some(1));
        assert_eq!(admitted(&mut s, 1), Some(2));
        assert_eq!(admitted(&mut s, 2), None, "at the cap: job 3 waits");
        assert!(!s.drained());
        assert_eq!(admitted(&mut s, 1), Some(3), "a departure makes room");
        assert!(s.drained(), "nothing outstanding, nothing queued");
    }

    #[test]
    fn a_departing_job_takes_its_output_entries_along() {
        // A real Collect and a larger synthetic job arrive together; the
        // second is still resident when the first departs, so the arena
        // stays, and the first job's side-table entries must leave with it.
        let collect: JobFactory = Arc::new(|_| {
            let recs = (0..512)
                .map(|i| (Value::I64(i % 64), Value::I64(i)))
                .collect();
            let rdd = Rdd::source(Dataset::from_records(recs, 4)).group_by_key(Some(4), 1e9);
            (rdd, Action::Collect)
        });
        let big: JobFactory = Arc::new(|_| {
            let rdd = Rdd::source(Dataset::generated(1e10, 1e8, 10.0));
            (rdd, Action::Count)
        });
        let together = ArrivalProcess::Periodic { period_secs: 1.0 };
        let spec = stream(vec![
            TenantSpec::new("collect", 1, together.clone(), collect),
            TenantSpec::new("big", 1, together, big),
        ]);
        let world = SimWorld::new(memres_cluster::tiny(4), EngineConfig::default());
        let mut sim = Simulation::new(world);
        let mut out = Outbox::standalone(SimTime::ZERO);
        sim.model.start_stream(SimTime::ZERO, spec, &mut out);
        sim.drain_outbox(out);
        // Only the real job puts anything in the side tables.
        let mut held = 0;
        while sim.model.finished.is_empty() {
            assert!(sim.step(), "the stream ran dry");
            held = held.max(sim.model.tasks.reduced_bytes.len());
        }
        let w = &sim.model;
        let first = &w.finished[0];
        let rows = first.output.records.as_ref();
        assert!(
            rows.is_some_and(|r| r.len() == 64),
            "the Collect's 64 groups"
        );
        assert_eq!(held, 4, "each reducer committed its aggregation");
        assert!(!w.jobs.is_empty(), "the synthetic job is still resident");
        let of_first = |t: &u32| w.tasks.job[*t as usize] == first.id;
        assert!(!w.tasks.real_out.keys().any(of_first), "rows left behind");
        assert!(
            !w.tasks.reduced_bytes.keys().any(of_first),
            "sizes left behind"
        );
    }

    #[test]
    fn a_tenant_with_no_jobs_fires_nothing() {
        let periodic = ArrivalProcess::Periodic { period_secs: 1.0 };
        let (s, upfront) = StreamState::start(stream(vec![tenant(0, periodic)]));
        assert!(upfront.is_empty() && s.drained());
    }
}
