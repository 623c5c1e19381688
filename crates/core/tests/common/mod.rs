//! Jobs, streams and configs more than one test file runs.

use memres_core::prelude::*;
use memres_core::{ArrivalProcess, InterJobPolicy, StreamSpec, TenantSpec};
use std::sync::Arc;

/// Three waves of compute-bound tasks per job, so slow nodes' last-wave
/// tasks straggle past idle slots and get speculated.
pub fn heavy_groupby(k: u32) -> (Rdd, Action) {
    let recs: Vec<Record> = (0..2000)
        .map(|i| (Value::I64((i * 31 + k as i64) % 53), Value::I64(i)))
        .collect();
    let rdd = Rdd::source(Dataset::from_records(recs, 24))
        .map("work", SizeModel::new(1.0, 1.0, 2e4), |r| r)
        .group_by_key(Some(4), 1e9);
    (rdd, Action::Count)
}

/// Two `heavy_groupby` tenants of two jobs each, periodic arrivals,
/// FairShare: jobs overlap, so dispatch chooses between resident jobs.
pub fn two_tenant_fair_share() -> StreamSpec {
    let tenant = |name, period_secs| {
        let arrival = ArrivalProcess::Periodic { period_secs };
        TenantSpec::new(name, 2, arrival, Arc::new(heavy_groupby))
    };
    StreamSpec::new(
        vec![tenant("a", 0.05), tenant("b", 0.07)],
        InterJobPolicy::FairShare,
        5,
    )
}

/// Skewed node speeds with speculation on: stragglers get twins.
pub fn skewed_speculative() -> EngineConfig {
    EngineConfig {
        speed_sigma: 0.6,
        seed: 4,
        ..EngineConfig::default()
    }
    .with_speculation()
}
