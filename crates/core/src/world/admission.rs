//! Multi-tenant stream admission (DESIGN.md §4.14).

#![allow(clippy::indexing_slicing)]

use super::*;

/// One arrived-but-not-yet-admitted job in a multi-tenant stream.
pub(super) struct PendingAdmission {
    pub(super) id: u32,
    pub(super) tenant: u32,
    pub(super) k: u32,
    pub(super) arrived: SimTime,
}

/// Multi-tenant stream bookkeeping (DESIGN.md §4.14).
pub(super) struct StreamState {
    pub(super) spec: StreamSpec,
    /// Arrivals scheduled (or chained, for closed-loop) but not yet fired.
    pub(super) outstanding_arrivals: usize,
    /// Arrived jobs waiting for an admission slot, FIFO.
    pub(super) queued: VecDeque<PendingAdmission>,
    /// Per-tenant count of arrivals scheduled so far (closed-loop tenants
    /// chain the next one at job departure).
    pub(super) fired: Vec<u32>,
}

impl SimWorld {
    // ---------------- multi-tenant streams (DESIGN.md §4.14) ----------------

    /// Begin a multi-tenant job stream. Open-loop and trace arrivals are
    /// scheduled upfront (cumulative gaps from `now`); closed-loop tenants
    /// fire their first arrival immediately and chain the next one `think`
    /// after each job departs. Admission is FIFO under `max_concurrent`;
    /// the configured [`InterJobPolicy`] orders *dispatch*, not admission.
    pub fn start_stream(&mut self, now: SimTime, spec: StreamSpec, out: &mut Outbox<Ev>) {
        assert!(
            self.jobs.is_empty() && self.stream.is_none(),
            "a stream starts on an idle world"
        );
        let mut outstanding = 0usize;
        let mut fired = vec![0u32; spec.tenants.len()];
        for (t, ts) in spec.tenants.iter().enumerate() {
            let tenant = t as u32;
            match &ts.arrival {
                crate::tenancy::ArrivalProcess::Trace(offsets) => {
                    let n = (ts.jobs as usize).min(offsets.len());
                    for k in 0..n {
                        let off = ts
                            .arrival
                            .trace_offset(k as u32)
                            .expect("trace offset in range"); // lint:allow(panic): k < trace length by construction
                        out.at(
                            now + off,
                            Ev::JobArrival {
                                tenant,
                                k: k as u32,
                            },
                        );
                    }
                    fired[t] = n as u32;
                    outstanding += n;
                }
                crate::tenancy::ArrivalProcess::Closed { .. } => {
                    if ts.jobs > 0 {
                        out.at(now, Ev::JobArrival { tenant, k: 0 });
                        fired[t] = 1;
                        outstanding += 1;
                    }
                }
                _ => {
                    let mut at = now;
                    for k in 0..ts.jobs {
                        let gap = ts
                            .arrival
                            .open_gap(spec.seed, tenant, k)
                            .expect("open-loop arrival gap"); // lint:allow(panic): open-loop arms always yield a gap
                        at += gap;
                        out.at(at, Ev::JobArrival { tenant, k });
                    }
                    fired[t] = ts.jobs;
                    outstanding += ts.jobs as usize;
                }
            }
        }
        self.job_done = outstanding == 0;
        if outstanding > 0 {
            // Sample across the whole stream, including pre-admission gaps.
            self.arm_metrics(out);
        }
        self.stream = Some(StreamState {
            spec,
            outstanding_arrivals: outstanding,
            queued: VecDeque::new(),
            fired,
        });
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
        let stream = self.stream.as_mut().expect("stream checked above"); // lint:allow(panic): guarded at function entry
        stream.outstanding_arrivals = stream.outstanding_arrivals.saturating_sub(1);
        stream.queued.push_back(PendingAdmission {
            id,
            tenant,
            k,
            arrived: now,
        });
        self.try_admissions(now, out);
    }

    /// Admit queued jobs FIFO while under the concurrency cap. The job's
    /// plan is built at admission time so cached RDDs materialized by
    /// earlier jobs are visible, exactly as sequential submission sees them.
    pub(super) fn try_admissions(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        loop {
            let Some(stream) = self.stream.as_ref() else {
                return;
            };
            let cap = stream.spec.max_concurrent.unwrap_or(usize::MAX);
            if self.jobs.len() >= cap || stream.queued.is_empty() {
                return;
            }
            let pa = self
                .stream
                .as_mut()
                .and_then(|s| s.queued.pop_front())
                .expect("non-empty admit queue"); // lint:allow(panic): emptiness checked above
            self.trace(
                now,
                TE::JobAdmitted {
                    job: pa.id,
                    tenant: pa.tenant,
                },
            );
            let make = self
                .stream
                .as_ref()
                .map(|s| s.spec.tenants[pa.tenant as usize].make.clone())
                .expect("stream present"); // lint:allow(panic): guarded at loop entry
            let (rdd, action) = make(pa.k);
            let plan = build_plan(&rdd, action, &self.blockmgr.materialized());
            self.admit_job(now, pa.id, pa.tenant, pa.arrived, Arc::new(plan), out);
        }
    }

    /// Stream bookkeeping when a job finishes or aborts: chain the owning
    /// tenant's next closed-loop arrival and pull in queued admissions.
    pub(super) fn on_job_departure(&mut self, now: SimTime, tenant: u32, out: &mut Outbox<Ev>) {
        if let Some(stream) = self.stream.as_mut() {
            let ts = &stream.spec.tenants[tenant as usize];
            if let Some(think) = ts.arrival.think() {
                let k = stream.fired[tenant as usize];
                if k < ts.jobs {
                    stream.fired[tenant as usize] += 1;
                    stream.outstanding_arrivals += 1;
                    out.at(now + think, Ev::JobArrival { tenant, k });
                }
            }
        }
        self.try_admissions(now, out);
    }

    /// The stream's inter-job dispatch policy (none for single-job runs).
    pub(super) fn inter_job_policy(&self) -> Option<&InterJobPolicy> {
        self.stream.as_ref().map(|s| &s.spec.policy)
    }

    /// True when no further jobs can arrive or be admitted.
    pub(super) fn stream_drained(&self) -> bool {
        self.stream
            .as_ref()
            .is_none_or(|s| s.outstanding_arrivals == 0 && s.queued.is_empty())
    }
}
