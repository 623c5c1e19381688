//! Admission (DESIGN.md §4.14): how a job arrives at, enters and leaves the
//! resident set. Single-job submissions enter through `SimWorld::admit_job`
//! directly; a multi-tenant stream feeds it from [`StreamState`] — seeded
//! arrivals, FIFO admission under a residency cap, closed-loop chaining at
//! departure — and every job, finished or aborted, leaves through
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
    /// Arrivals scheduled (or chained, for closed-loop) but not yet fired.
    outstanding_arrivals: usize,
    /// Arrived jobs waiting for an admission slot, FIFO.
    queued: VecDeque<PendingAdmission>,
    /// Per-tenant count of arrivals scheduled so far (closed-loop tenants
    /// chain the next one at job departure).
    fired: Vec<u32>,
}

impl StreamState {
    /// Begin `spec`: its state, and the arrivals known now as `(offset from
    /// stream start, tenant, k)` in scheduling order. Open-loop and trace
    /// arrivals are all known upfront; closed-loop tenants fire their first
    /// arrival immediately and chain the next one `think` after each job
    /// departs.
    fn start(spec: StreamSpec) -> (Self, Vec<(SimDuration, u32, u32)>) {
        let mut upfront = Vec::new();
        let mut fired = Vec::with_capacity(spec.tenants.len());
        for (tenant, ts) in (0u32..).zip(&spec.tenants) {
            let offsets = ts.arrival.upfront_offsets(spec.seed, tenant, ts.jobs);
            fired.push(offsets.len() as u32);
            upfront.extend((0u32..).zip(offsets).map(|(k, off)| (off, tenant, k)));
        }
        let stream = StreamState {
            spec,
            outstanding_arrivals: upfront.len(),
            queued: VecDeque::new(),
            fired,
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

    /// A job of `tenant` finished or aborted: a closed-loop tenant with jobs
    /// left chains its next arrival, `(think time, k)`.
    fn departed(&mut self, tenant: u32) -> Option<(SimDuration, u32)> {
        let ts = &self.spec.tenants[tenant as usize];
        let think = ts.arrival.think()?;
        let k = self.fired[tenant as usize];
        (k < ts.jobs).then(|| {
            self.fired[tenant as usize] += 1;
            self.outstanding_arrivals += 1;
            (think, k)
        })
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
    /// out of the resident set): hand `output` and the job's metrics to the
    /// driver, chain the owning tenant's next closed-loop arrival, pull in
    /// queued admissions, and settle whether the run is over.
    pub(super) fn job_departed(
        &mut self,
        now: SimTime,
        job: &JobRun,
        output: JobOutput,
        out: &mut Outbox<Ev>,
    ) {
        let held = self.heap_now() + job.heap_bytes() as u64;
        self.heap_high_water = self.heap_high_water.max(held);
        let metrics = self.metrics.finish_job(job.id, now);
        self.sampler.note_job_latency(job.tenant, job.arrived, now);
        self.finished.push_back(FinishedJob {
            id: job.id,
            tenant: job.tenant,
            arrived: job.arrived,
            admitted: job.admitted,
            finished: now,
            output,
            metrics,
        });
        if self.jobs.is_empty() {
            self.tasks.clear();
        }
        let tenant = job.tenant;
        if let Some((think, k)) = self.stream.as_mut().and_then(|s| s.departed(tenant)) {
            out.at(now + think, Ev::JobArrival { tenant, k });
        }
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
    use crate::rdd::{Action, Dataset, Rdd};
    use crate::tenancy::{ArrivalProcess, TenantSpec};

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
        assert_eq!(s.departed(0), None, "open-loop tenants chain nothing");
        assert_eq!(admitted(&mut s, 1), Some(3), "a departure makes room");
        assert!(s.drained(), "nothing outstanding, nothing queued");
    }

    #[test]
    fn closed_loop_chaining_stops_at_the_tenants_job_count() {
        let think = SimDuration::from_secs(4);
        let closed = ArrivalProcess::Closed { think_secs: 4.0 };
        let (mut s, upfront) = StreamState::start(stream(vec![tenant(3, closed.clone())]));
        assert_eq!(upfront, vec![(SimDuration::ZERO, 0, 0)], "only the first");
        let mut id = 0;
        let mut run_one = |s: &mut StreamState, k: u32| {
            id += 1;
            s.arrived(id, 0, k, SimTime::ZERO);
            assert!(!s.drained(), "job {k} is queued");
            assert!(s.admit_next(0).is_some());
        };
        run_one(&mut s, 0);
        assert!(
            s.drained(),
            "between a closed-loop job's admission and its departure"
        );
        assert_eq!(s.departed(0), Some((think, 1)));
        assert!(!s.drained(), "the chained arrival is outstanding");
        run_one(&mut s, 1);
        assert_eq!(s.departed(0), Some((think, 2)));
        run_one(&mut s, 2);
        assert_eq!(s.departed(0), None, "three jobs configured, three fired");
        assert!(s.drained());
        // A tenant with no jobs fires nothing at all.
        let (s, upfront) = StreamState::start(stream(vec![tenant(0, closed)]));
        assert!(upfront.is_empty() && s.drained());
    }
}
