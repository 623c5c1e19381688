//! The evaluation grid as data: the set-up every experiment shrinks by and
//! the named GroupBy cells everything else resolves through.
//!
//! [`Setup`] turns a paper-quoted size into this run's cluster and bytes;
//! [`CELLS`] names the cells a tool can ask for by name — the mid-size
//! Fig 7a / Fig 8a cells `repro bench` times, then the scale-out family of
//! `repro scale` — and [`Cell::resolve`] is the one place a name becomes
//! engine inputs. `repro trace | explain | report <cell>`, the timed runs
//! and the determinism tests all come here, so they cannot drift; a store
//! misspelt in a row is a compile error.

use crate::GroupBy;
use memres_cluster::{hyperion, ClusterSpec};
use memres_core::prelude::*;
use memres_des::time::SimDuration;
use memres_des::units::{GB, MB};

#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// Fraction of the paper's cluster and data sizes (1.0 = Hyperion).
    pub scale: f64,
    pub seed: u64,
}

impl Setup {
    pub fn paper() -> Setup {
        Setup {
            scale: 1.0,
            seed: 1,
        }
    }

    /// ~8-node cluster with proportionally shrunk data: same mechanisms,
    /// seconds-fast.
    pub fn smoke() -> Setup {
        Setup {
            scale: 0.08,
            seed: 1,
        }
    }

    pub fn cluster(&self) -> ClusterSpec {
        self.cluster_of(100)
    }

    /// Hyperion cut to this set-up's share of a paper-quoted node count
    /// (never under four workers).
    pub fn cluster_of(&self, nodes: u32) -> ClusterSpec {
        let workers = ((nodes as f64 * self.scale).round() as u32).max(4);
        hyperion().scaled_workers(workers)
    }

    /// Scale a paper-quoted data size.
    pub fn bytes(&self, gb: f64) -> f64 {
        gb * GB * self.scale
    }

    fn base(&self) -> EngineConfig {
        EngineConfig {
            seed: self.seed,
            ..EngineConfig::default()
        }
    }

    /// HDFS on RAMDisk with immediate FIFO dispatch: the data-centric
    /// configuration before delay scheduling is switched on (Fig 9, Fig 10).
    pub fn hdfs_fifo_cfg(&self) -> EngineConfig {
        EngineConfig {
            input: InputSource::HdfsRamDisk,
            shuffle: RAMDISK,
            scheduler: SchedulerKind::Fifo,
            ..self.base()
        }
    }

    /// The data-centric configuration: HDFS on RAMDisk, delay scheduling
    /// (Spark's default locality wait), local RAMDisk shuffle store.
    pub fn hdfs_cfg(&self) -> EngineConfig {
        self.hdfs_fifo_cfg()
            .with_delay_scheduling(SimDuration::from_secs(3))
    }

    /// `hdfs_cfg` with 2-way input replication: affordable for the smaller
    /// compute-bound LR dataset, and what gives locality scheduling any
    /// placement choice.
    pub fn hdfs_cfg_replicated(&self) -> EngineConfig {
        EngineConfig {
            input_replication: 2,
            ..self.hdfs_cfg()
        }
    }

    /// The compute-centric configuration: Lustre input, immediate dispatch.
    pub fn lustre_cfg(&self) -> EngineConfig {
        self.cell_cfg(RAMDISK)
    }

    /// The configuration every paper GroupBy cell starts from — the figures,
    /// every row of [`CELLS`] and the tenant streams: Lustre input (held
    /// fixed; §IV-B varies the store), immediate FIFO dispatch, this
    /// set-up's seed, intermediate data on `shuffle`.
    pub fn cell_cfg(&self, shuffle: ShuffleStore) -> EngineConfig {
        EngineConfig {
            input: InputSource::Lustre,
            shuffle,
            scheduler: SchedulerKind::Fifo,
            ..self.base()
        }
    }
}

/// The two node-local stores of [`Setup::cell_cfg`].
pub const RAMDISK: ShuffleStore = ShuffleStore::Local(StoreDevice::RamDisk);
pub const SSD: ShuffleStore = ShuffleStore::Local(StoreDevice::Ssd);

/// How big a cell is.
#[derive(Clone, Copy, Debug)]
pub enum Size {
    /// A paper-quoted input on the set-up's cluster: both shrink with
    /// [`Setup::scale`] like every figure.
    Paper { gb: f64 },
    /// A synthetic scale-out cell that fixes its own cluster and exact task
    /// counts, so only the seed of the set-up matters. The job creates
    /// `2 * producers + reducers` tasks: the producers, one store task per
    /// *producer* in the flush phase (each flushes its producer's output,
    /// pinned to the node that ran it — so a node's share of the storing
    /// phase is `producers / workers` tasks, not one), and the reducers.
    Fixed {
        workers: u32,
        producers: u64,
        split_mb: f64,
        reducers: u32,
    },
}

/// One named GroupBy cell: Lustre input, FIFO, intermediate data on `store`.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub name: &'static str,
    pub size: Size,
    pub store: ShuffleStore,
}

/// The one `Fixed` row sized for CI — it crosses the rack-aggregation
/// threshold ((192/2)² = 9216 > 4096) while staying fast. `repro scale
/// --smoke` runs it alone, plain `repro scale` every other `Fixed` row.
pub const SCALE_SMOKE: &str = "scale_smoke";

const fn paper(name: &'static str, gb: f64, store: ShuffleStore) -> Cell {
    let size = Size::Paper { gb };
    Cell { name, size, store }
}

/// Nominal node and task counts are in the name (the task count names the
/// producers); the exact counts are the arguments.
const fn fixed(
    name: &'static str,
    workers: u32,
    producers: u64,
    split_mb: f64,
    reducers: u32,
) -> Cell {
    let size = Size::Fixed {
        workers,
        producers,
        split_mb,
        reducers,
    };
    let store = RAMDISK;
    Cell { name, size, store }
}

/// Every named cell: the mid-size Fig 7a / Fig 8a cells (the repository's
/// hottest paper-scale paths: tens of thousands of shuffle flows through the
/// max–min fair network), then the scale-out family, smallest first — 100×
/// the paper's node count, where every byte of cost is engine bookkeeping
/// (event queue, dispatch candidate set, rack-level flow aggregation, the
/// SoA task arena; DESIGN.md "Scaling the engine 100× past the paper").
pub const CELLS: [Cell; 10] = [
    paper("fig7a_400gb_ramdisk", 400.0, RAMDISK),
    paper("fig7a_400gb_lustre_local", 400.0, ShuffleStore::LustreLocal),
    paper(
        "fig7a_400gb_lustre_shared",
        400.0,
        ShuffleStore::LustreShared,
    ),
    paper("fig8a_600gb_ramdisk", 600.0, RAMDISK),
    paper("fig8a_600gb_ssd", 600.0, SSD),
    //    name, workers, producers, split_mb, reducers
    fixed(SCALE_SMOKE, 192, 1_536, 256.0, 512),
    fixed("scale_1k_100k", 1_000, 90_000, 256.0, 8_192),
    fixed("scale_4k_1m", 4_096, 990_000, 64.0, 8_192),
    fixed("scale_10k_1m", 10_000, 990_000, 64.0, 8_192),
    fixed("scale_10k_4m", 10_000, 3_980_000, 32.0, 16_384),
];

pub fn find(name: &str) -> Option<&'static Cell> {
    CELLS.iter().find(|c| c.name == name)
}

impl Cell {
    /// This cell's engine inputs under `setup`: cluster, configuration and
    /// workload.
    pub fn resolve(&self, setup: Setup) -> (ClusterSpec, EngineConfig, GroupBy) {
        let cfg = setup.cell_cfg(self.store);
        match self.size {
            Size::Paper { gb } => (setup.cluster(), cfg, GroupBy::new(setup.bytes(gb))),
            Size::Fixed {
                workers,
                producers,
                split_mb,
                reducers,
            } => (
                hyperion().scaled_workers(workers),
                // Homogeneous nodes: no periodic SpeedResample events, so the
                // event count measures job structure, not sampling cadence.
                cfg.homogeneous(),
                GroupBy::new(producers as f64 * split_mb * MB)
                    .with_split(split_mb * MB)
                    .with_reducers(reducers),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_every_row_resolves() {
        for (i, c) in CELLS.iter().enumerate() {
            assert!(
                CELLS.iter().skip(i + 1).all(|d| d.name != c.name),
                "{}",
                c.name
            );
            assert_eq!(find(c.name).map(|f| f.name), Some(c.name));
            let (spec, cfg, gb) = c.resolve(Setup::smoke());
            cfg.validate(spec.workers)
                .unwrap_or_else(|e| panic!("{}: {e}", c.name));
            assert_eq!(cfg.shuffle, c.store, "{}", c.name);
            if let Size::Fixed {
                workers, producers, ..
            } = c.size
            {
                // A `Fixed` row ignores the set-up's scale and states its
                // task counts exactly.
                assert_eq!(spec.workers, workers, "{}", c.name);
                assert_eq!(u64::from(gb.map_tasks()), producers, "{}", c.name);
            }
        }
        assert!(find("fig99_bogus").is_none() && find("scale_bogus").is_none());
    }

    #[test]
    fn fixed_rows_fit_memory_and_leave_the_small_cluster_paths() {
        let mut fixed_rows = 0;
        for c in CELLS {
            let Size::Fixed {
                workers,
                producers,
                split_mb,
                ..
            } = c.size
            else {
                continue;
            };
            fixed_rows += 1;
            // RAMDisk deposits must fit the per-node 32 GB store.
            let per_node = producers as f64 * split_mb * MB / workers as f64;
            assert!(
                per_node < 30e9,
                "{}: {per_node:.2e} B/node would overflow the RAMDisk store",
                c.name
            );
            // Every one must cross the rack-aggregation threshold.
            let per_rack = (workers / 2) as u64;
            assert!(per_rack * per_rack > 4096, "{} never aggregates", c.name);
        }
        assert_eq!(fixed_rows, 5);
        assert!(find(SCALE_SMOKE).is_some());
    }
}
