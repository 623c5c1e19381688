//! Engine wall-clock benchmark: `repro bench [--json DIR]`.
//!
//! Times the *simulator itself* (host wall-clock, not simulated seconds) on
//! the mid-size Fig 7a / Fig 8a GroupBy cells, the repository's hottest
//! end-to-end paths: tens of thousands of shuffle flows through the max–min
//! fair network plus the real-partition executor. A smoke-able quick look:
//! the repository's performance record is `benchmark/` (see EXPERIMENTS.md
//! "Performance").

use crate::experiments::Setup;
use crate::Table;
use memres_core::prelude::*;
use memres_des::json::{escape, num};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed run: host wall-clock seconds plus the simulated job time (the
/// latter is a determinism check — optimizations must not change it), plus
/// engine self-profiling counters (events processed, rough peak heap).
#[derive(Clone, Debug)]
pub struct PerfRecord {
    pub name: &'static str,
    pub wall_s: f64,
    pub sim_s: f64,
    /// Simulation events processed end to end.
    pub events: u64,
    /// Rough peak-heap estimate (arena capacities; see `heap_estimate_bytes`).
    pub heap_bytes: u64,
}

/// The table columns every perf record fills, in [`PerfRecord::row`] order.
pub(crate) const RECORD_COLUMNS: [&str; 5] =
    ["wall_s", "sim_job_s", "events", "events_per_s", "heap_mb"];

impl PerfRecord {
    /// Engine throughput: simulation events per host wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// This record's [`RECORD_COLUMNS`] values.
    pub(crate) fn row(&self) -> Vec<f64> {
        vec![
            self.wall_s,
            self.sim_s,
            self.events as f64,
            self.events_per_sec(),
            self.heap_bytes as f64 / (1024.0 * 1024.0),
        ]
    }
}

/// The benchmark (and `repro trace` / `repro explain`) cell names, in suite
/// order: the mid-size Fig 7a / Fig 8a GroupBy cells.
pub const CELL_NAMES: [&str; 5] = [
    "fig7a_400gb_ramdisk",
    "fig7a_400gb_lustre_local",
    "fig7a_400gb_lustre_shared",
    "fig8a_600gb_ramdisk",
    "fig8a_600gb_ssd",
];

/// Resolve one named cell to its engine inputs (cluster spec, config,
/// workload); `None` for an unknown name. `suite`, `repro trace`, and
/// `repro explain` all construct cells through here so they cannot drift.
pub fn cell(
    setup: Setup,
    name: &str,
) -> Option<(
    memres_cluster::ClusterSpec,
    EngineConfig,
    memres_workloads::GroupBy,
)> {
    let (gb, shuffle) = match name {
        "fig7a_400gb_ramdisk" => (400.0, ShuffleStore::Local(StoreDevice::RamDisk)),
        "fig7a_400gb_lustre_local" => (400.0, ShuffleStore::LustreLocal),
        "fig7a_400gb_lustre_shared" => (400.0, ShuffleStore::LustreShared),
        "fig8a_600gb_ramdisk" => (600.0, ShuffleStore::Local(StoreDevice::RamDisk)),
        "fig8a_600gb_ssd" => (600.0, ShuffleStore::Local(StoreDevice::Ssd)),
        _ => return None,
    };
    Some((
        setup.cluster(),
        setup.cell_cfg(shuffle),
        memres_workloads::GroupBy::new(setup.bytes(gb)),
    ))
}

/// Time one run; the driver comes back with it for whatever else the
/// caller reads off the finished world.
pub(crate) fn time_run(
    name: &'static str,
    spec: memres_cluster::ClusterSpec,
    cfg: EngineConfig,
    gb: &memres_workloads::GroupBy,
) -> (PerfRecord, Driver, JobMetrics) {
    let t0 = Instant::now();
    let mut d = Driver::new(spec, cfg);
    let m = d.run_for_metrics(&gb.build(), gb.action());
    let record = PerfRecord {
        name,
        wall_s: t0.elapsed().as_secs_f64(),
        sim_s: m.job_time(),
        events: d.engine_steps(),
        heap_bytes: d.heap_estimate_bytes(),
    };
    (record, d, m)
}

/// The mid-size Fig 7a / Fig 8a cells (400 GB and 600 GB paper-scale,
/// shrunk by `setup.scale` like every other experiment).
pub fn suite(setup: Setup) -> Vec<PerfRecord> {
    CELL_NAMES
        .iter()
        .map(|name| {
            let (spec, cfg, gb) = cell(setup, name).expect("suite cell must resolve");
            time_run(name, spec, cfg, &gb).0
        })
        .collect()
}

pub fn table(records: &[PerfRecord]) -> Table {
    let mut t = Table::new(
        "bench",
        "engine wall-clock (host seconds) on mid-size Fig 7a/8a cells",
        &RECORD_COLUMNS,
    );
    for r in records {
        t.row(r.name, r.row());
    }
    let total: f64 = records.iter().map(|r| r.wall_s).sum();
    t.note(format!("total wall-clock {total:.3}s"));
    t
}

/// Machine-readable record: `{"target", "scale", "seed", "runs": [...],
/// "total_wall_s"}`.
pub fn to_json(setup: Setup, records: &[PerfRecord]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"target\": \"bench\",");
    let _ = writeln!(out, "  \"scale\": {},", num(setup.scale));
    let _ = writeln!(out, "  \"seed\": {},", setup.seed);
    write_runs(&mut out, records.iter().map(|r| (r, String::new())));
    out
}

/// The `"runs": [...]` array and `"total_wall_s"` tail of a perf-record
/// JSON document, closing the object `out` opened. Each record comes with
/// the `, "key": value` members its family adds to the shared ones (none
/// for `repro bench`).
pub(crate) fn write_runs<'a>(
    out: &mut String,
    records: impl Iterator<Item = (&'a PerfRecord, String)>,
) {
    out.push_str("  \"runs\": [");
    let (mut total, mut any) = (0.0, false);
    for (r, more) in records {
        if any {
            out.push(',');
        }
        any = true;
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"wall_s\": {}, \"sim_job_s\": {}, \"events\": {}, \"events_per_s\": {}, \"heap_bytes\": {}{more}}}",
            escape(r.name),
            num(r.wall_s),
            num(r.sim_s),
            r.events,
            num(r.events_per_sec()),
            r.heap_bytes
        );
        total += r.wall_s;
    }
    if any {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    let _ = write!(out, "  \"total_wall_s\": {}\n}}", num(total));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let recs = vec![
            PerfRecord {
                name: "a",
                wall_s: 0.25,
                sim_s: 100.0,
                events: 1000,
                heap_bytes: 2 * 1024 * 1024,
            },
            PerfRecord {
                name: "b",
                wall_s: 0.75,
                sim_s: 200.0,
                events: 3000,
                heap_bytes: 1024,
            },
        ];
        let j = to_json(
            Setup {
                scale: 0.05,
                seed: 1,
            },
            &recs,
        );
        assert!(j.contains("\"total_wall_s\": 1.0"));
        assert!(j.contains(
            "{\"name\": \"a\", \"wall_s\": 0.25, \"sim_job_s\": 100.0, \"events\": 1000, \"events_per_s\": 4000.0, \"heap_bytes\": 2097152}"
        ));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let t = table(&recs);
        assert_eq!(t.column("wall_s"), vec![0.25, 0.75]);
        assert_eq!(t.column("events_per_s"), vec![4000.0, 4000.0]);
        assert_eq!(t.column("heap_mb"), vec![2.0, 1024.0 / (1024.0 * 1024.0)]);
    }

    #[test]
    fn zero_wall_clock_reports_zero_throughput() {
        // Sub-resolution timers (or a clamped clock) must not divide by
        // zero: events_per_sec is defined as 0 when no wall time elapsed.
        let r = PerfRecord {
            name: "instant",
            wall_s: 0.0,
            sim_s: 1.0,
            events: 12345,
            heap_bytes: 0,
        };
        assert_eq!(r.events_per_sec(), 0.0);
        assert!(r.events_per_sec().is_finite());
    }

    #[test]
    fn every_cell_name_resolves() {
        let setup = Setup::smoke();
        for name in CELL_NAMES {
            assert!(cell(setup, name).is_some(), "cell {name} must resolve");
        }
        assert!(cell(setup, "fig99_bogus").is_none());
    }
}
