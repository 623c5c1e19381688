//! Scale-out cells: `repro scale [--smoke] [--json DIR]`.
//!
//! Where `repro bench` times the paper-scale cells (100 nodes), this family
//! pushes the engine to 100× that — thousands of nodes, hundreds of
//! thousands to millions of tasks — and reports engine throughput
//! (simulation events per host second) and the rough peak-heap estimate.
//! The workload is the synthetic GroupBy DAG from `memres-workloads` with
//! no real records, so every byte of cost is engine bookkeeping: the
//! calendar event queue, rack-level flow aggregation, and the SoA task
//! arena are exactly what these cells exercise (DESIGN.md "Scaling the
//! engine 100× past the paper").

use crate::perf::{self, PerfRecord};
use crate::Table;
use memres_core::prelude::*;
use memres_des::units::MB;
use std::fmt::Write as _;

/// One synthetic scale cell: nominal node and task counts are in the name;
/// exact producer/reducer counts below.
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

    /// Total tasks the job creates (producers + reducers + one store task
    /// per node in the flush phase).
    pub fn tasks(&self) -> u64 {
        self.producers + self.reducers as u64 + self.workers as u64
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
    EngineConfig {
        input: InputSource::Lustre,
        shuffle: ShuffleStore::Local(StoreDevice::RamDisk),
        scheduler: SchedulerKind::Fifo,
        seed,
        ..EngineConfig::default()
    }
    // Homogeneous nodes: no periodic SpeedResample events, so the event
    // count measures job structure, not sampling cadence.
    .homogeneous()
}

/// Run one cell.
pub fn run(c: ScaleCell, seed: u64) -> PerfRecord {
    let spec = memres_cluster::hyperion().scaled_workers(c.workers);
    let gb = memres_workloads::GroupBy::new(c.input_bytes())
        .with_split(c.split_mb * MB)
        .with_reducers(c.reducers);
    perf::time_run(c.name, spec, config(seed), &gb)
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

pub fn table(records: &[PerfRecord]) -> Table {
    perf::records_table(
        "scale",
        "scale cells: engine throughput at 100x paper scale",
        records,
    )
}

/// Machine-readable record: `{"target", "seed", "runs": [...],
/// "total_wall_s"}`.
pub fn to_json(seed: u64, records: &[PerfRecord]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"target\": \"scale\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    perf::write_runs(&mut out, records);
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
        let c = cell("scale_smoke").unwrap();
        let r = run(c, 1);
        assert!(r.events > 0 && r.sim_s > 0.0);
        assert!(r.heap_bytes > 0);
    }

    #[test]
    fn json_shape() {
        let r = PerfRecord {
            name: "scale_smoke",
            wall_s: 0.5,
            sim_s: 10.0,
            events: 5000,
            heap_bytes: 1024,
        };
        let j = to_json(1, &[r]);
        assert!(j.contains("\"target\": \"scale\""));
        assert!(j.contains("\"events_per_s\": 10000.0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
