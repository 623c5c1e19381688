//! Scale-out cells: `repro scale [--smoke] [--json DIR]`, or one of them
//! alone by name (`repro scale_10k_4m`).
//!
//! Where `repro bench` times the paper-scale cells (100 nodes), this family
//! pushes the engine to 100× that — thousands of nodes, hundreds of
//! thousands to millions of tasks — and reports engine throughput
//! (simulation events per host second), the rough peak-heap estimate, and
//! where the host time went: user and system CPU seconds and minor page
//! faults of the run (at these sizes memory is time — a third of the 4 M
//! cell is the kernel faulting the task arena in, invisible in `wall_s`
//! alone), and how many candidate nodes `dispatch` visited.
//! The workload is the synthetic GroupBy DAG from `memres-workloads` with
//! no real records, so every byte of cost is engine bookkeeping: the event
//! queue, the dispatch candidate set, rack-level flow aggregation, and the
//! SoA task arena are exactly what these cells exercise (DESIGN.md "Scaling
//! the engine 100× past the paper").

use crate::experiments::{Setup, RAMDISK};
use crate::perf::{self, PerfRecord};
use crate::Table;
use memres_core::prelude::*;
use memres_des::json::num;
use memres_des::units::MB;
use std::fmt::Write as _;

/// One synthetic scale cell: nominal node and task counts are in the name
/// (the task count names the producers; [`ScaleCell::tasks`] is what the
/// engine creates); exact producer/reducer counts below.
#[derive(Clone, Copy, Debug)]
pub struct ScaleCell {
    pub name: &'static str,
    pub workers: u32,
    pub reducers: u32,
    pub split_mb: f64,
    pub producers: u64,
}

impl ScaleCell {
    pub fn input_bytes(&self) -> f64 {
        self.producers as f64 * self.split_mb * MB
    }

    /// Total tasks the job creates: the producers, one store task per
    /// *producer* in the flush phase (each flushes its producer's output,
    /// pinned to the node that ran it — so a node's share of the storing
    /// phase is `producers / workers` tasks, not one), and the reducers.
    pub fn tasks(&self) -> u64 {
        2 * self.producers + self.reducers as u64
    }
}

/// The family, smallest first. The smoke cell is sized to cross the rack
/// aggregation threshold ((192/2)² = 9216 > 4096) while staying CI-fast.
pub const SCALE_CELLS: [ScaleCell; 5] = [
    ScaleCell {
        name: "scale_smoke",
        workers: 192,
        reducers: 512,
        split_mb: 256.0,
        producers: 1_536,
    },
    ScaleCell {
        name: "scale_1k_100k",
        workers: 1_000,
        reducers: 8_192,
        split_mb: 256.0,
        producers: 90_000,
    },
    ScaleCell {
        name: "scale_4k_1m",
        workers: 4_096,
        reducers: 8_192,
        split_mb: 64.0,
        producers: 990_000,
    },
    ScaleCell {
        name: "scale_10k_1m",
        workers: 10_000,
        reducers: 8_192,
        split_mb: 64.0,
        producers: 990_000,
    },
    ScaleCell {
        name: "scale_10k_4m",
        workers: 10_000,
        reducers: 16_384,
        split_mb: 32.0,
        producers: 3_980_000,
    },
];

pub fn cell(name: &str) -> Option<ScaleCell> {
    SCALE_CELLS.iter().copied().find(|c| c.name == name)
}

fn config(seed: u64) -> EngineConfig {
    // The cells fix their own sizes, so only the seed of the set-up matters.
    let setup = Setup { scale: 1.0, seed };
    setup
        .cell_cfg(RAMDISK)
        // Homogeneous nodes: no periodic SpeedResample events, so the event
        // count measures job structure, not sampling cadence.
        .homogeneous()
}

/// One timed cell: the shared perf record plus where its host time went.
#[derive(Clone, Debug)]
pub struct ScaleRecord {
    pub perf: PerfRecord,
    /// CPU seconds of the run in user mode and in the kernel. Their sum can
    /// exceed `wall_s` by a tick or two (1/100 s resolution).
    pub user_s: f64,
    pub sys_s: f64,
    /// Minor page faults of the run: first touches of fresh heap pages.
    pub minor_faults: u64,
    /// Candidate nodes `dispatch` looked for work on
    /// (`SimWorld::dispatch_visits`).
    pub dispatch_visits: u64,
}

/// This process's cumulative `(minflt, utime, stime)` from
/// `/proc/self/stat`, the times in clock ticks of 1/100 s (the Linux
/// `USER_HZ` on every supported target); zeros where there is no procfs.
fn proc_self_stat() -> (u64, u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: minflt is the 10th of the
    // line and utime, stime the 14th and 15th — 0-based 7, 11 and 12 here.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<u64> = after
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| fields.get(i).copied().unwrap_or(0);
    (at(7), at(11), at(12))
}

/// Run one cell.
pub fn run(c: ScaleCell, seed: u64) -> ScaleRecord {
    let spec = memres_cluster::hyperion().scaled_workers(c.workers);
    let gb = memres_workloads::GroupBy::new(c.input_bytes())
        .with_split(c.split_mb * MB)
        .with_reducers(c.reducers);
    let (faults0, user0, sys0) = proc_self_stat();
    let (perf, driver, metrics) = perf::time_run(c.name, spec, config(seed), &gb);
    let (faults1, user1, sys1) = proc_self_stat();
    assert_eq!(
        metrics.tasks.len() as u64,
        c.tasks(),
        "{} ran a different number of tasks than ScaleCell::tasks() states",
        c.name
    );
    ScaleRecord {
        perf,
        user_s: (user1 - user0) as f64 / 100.0,
        sys_s: (sys1 - sys0) as f64 / 100.0,
        minor_faults: faults1 - faults0,
        dispatch_visits: driver.world().dispatch_visits,
    }
}

/// The cells a given invocation runs: the smoke cell alone under
/// `--smoke`, everything else otherwise.
pub fn selected(smoke: bool) -> Vec<ScaleCell> {
    SCALE_CELLS
        .iter()
        .copied()
        .filter(|c| (c.name == "scale_smoke") == smoke)
        .collect()
}

pub fn table(records: &[ScaleRecord]) -> Table {
    let mut columns = perf::RECORD_COLUMNS.to_vec();
    columns.extend(["user_s", "sys_s", "minor_faults", "dispatch_visits"]);
    let mut t = Table::new(
        "scale",
        "scale cells: engine throughput at 100x paper scale",
        &columns,
    );
    for r in records {
        let mut row = r.perf.row();
        row.extend([
            r.user_s,
            r.sys_s,
            r.minor_faults as f64,
            r.dispatch_visits as f64,
        ]);
        t.row(r.perf.name, row);
    }
    t
}

/// Machine-readable record: `{"target", "seed", "runs": [...],
/// "total_wall_s"}`, each run with the shared perf members plus `user_s`,
/// `sys_s`, `minor_faults` and `dispatch_visits`.
pub fn to_json(seed: u64, records: &[ScaleRecord]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"target\": \"scale\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let runs = records.iter().map(|r| {
        let more = format!(
            ", \"user_s\": {}, \"sys_s\": {}, \"minor_faults\": {}, \"dispatch_visits\": {}",
            num(r.user_s),
            num(r.sys_s),
            r.minor_faults,
            r.dispatch_visits
        );
        (&r.perf, more)
    });
    perf::write_runs(&mut out, runs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_resolve_and_fit_node_memory() {
        for c in SCALE_CELLS {
            assert!(cell(c.name).is_some());
            // RAMDisk deposits must fit the per-node 32 GB store.
            let per_node = c.input_bytes() / c.workers as f64;
            assert!(
                per_node < 30e9,
                "{}: {per_node:.2e} B/node would overflow the RAMDisk store",
                c.name
            );
            // Every non-smoke cell must exceed the dense-bucket limit so the
            // Uniform arm (O(workers) heap) is actually exercised.
            let entries = c.workers as usize * c.reducers as usize;
            if c.name != "scale_smoke" {
                assert!(entries > 1 << 20, "{} stays dense", c.name);
            }
            // And all of them must cross the rack-aggregation threshold.
            let per_rack = (c.workers / 2) as u64;
            assert!(per_rack * per_rack > 4096, "{} never aggregates", c.name);
        }
        assert!(cell("scale_bogus").is_none());
    }

    #[test]
    fn selection_splits_on_smoke() {
        assert_eq!(selected(true).len(), 1);
        assert_eq!(selected(true)[0].name, "scale_smoke");
        assert_eq!(selected(false).len(), SCALE_CELLS.len() - 1);
    }

    #[test]
    fn smoke_cell_runs_and_aggregates() {
        // `run` itself asserts the task count `ScaleCell::tasks` states.
        let c = cell("scale_smoke").unwrap();
        assert_eq!(c.tasks(), 1_536 + 1_536 + 512);
        let r = run(c, 1);
        assert!(r.perf.events > 0 && r.perf.sim_s > 0.0);
        assert!(r.perf.heap_bytes > 0);
        // Every launch and every finish may cost a visit or two; a count
        // that grows with dispatches x idle nodes is the 4 M-task cliff.
        assert!(r.dispatch_visits > 0 && r.dispatch_visits <= r.perf.events);
    }

    #[test]
    fn proc_self_stat_reads_this_process() {
        let (faults, user, sys) = proc_self_stat();
        // A test binary that got this far has faulted pages in and spent
        // time; all three are cumulative.
        assert!(faults > 0);
        let again = proc_self_stat();
        assert!(again.0 >= faults && again.1 >= user && again.2 >= sys);
    }

    #[test]
    fn json_shape() {
        let r = ScaleRecord {
            perf: PerfRecord {
                name: "scale_smoke",
                wall_s: 0.5,
                sim_s: 10.0,
                events: 5000,
                heap_bytes: 1024,
            },
            user_s: 0.25,
            sys_s: 0.125,
            minor_faults: 77,
            dispatch_visits: 4321,
        };
        let j = to_json(1, std::slice::from_ref(&r));
        assert!(j.contains("\"target\": \"scale\""));
        assert!(j.contains("\"events_per_s\": 10000.0"));
        assert!(j.contains(
            "\"heap_bytes\": 1024, \"user_s\": 0.25, \"sys_s\": 0.125, \"minor_faults\": 77, \"dispatch_visits\": 4321}"
        ));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let t = table(&[r]);
        assert_eq!(t.column("sys_s"), vec![0.125]);
        assert_eq!(t.column("dispatch_visits"), vec![4321.0]);
    }
}
