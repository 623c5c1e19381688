//! Timed runs of the named cells: `repro bench` (the paper-scale rows of
//! `memres_workloads::cells::CELLS`), `repro scale [--smoke]` (the scale-out
//! rows) and `repro <cell>` (any one row alone), each with `[--json DIR]`.
//!
//! Times the *simulator itself* (host wall-clock, not simulated seconds) and
//! reports engine throughput (simulation events per host second), the rough
//! peak-heap estimate, and where the host time went: user and system CPU
//! seconds and minor page faults of the run (at scale memory is time — a
//! third of the 4 M-task cell is the kernel faulting the task arena in,
//! invisible in `wall_s` alone), and how many candidate nodes `dispatch`
//! visited. Single-shot and smoke-able: a quick look, not a record — the
//! repository's performance record is `benchmark/` (see benchmark/README.md
//! and EXPERIMENTS.md "Timing the simulator").

use crate::Table;
use memres_core::prelude::*;
use memres_des::json::{escape, num};
use memres_workloads::cells::{Cell, Setup, Size};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed run: host wall-clock seconds plus the simulated job time (the
/// latter is a determinism check — optimizations must not change it), the
/// engine's self-profiling counters, and where the host time went.
#[derive(Clone, Debug)]
pub struct Record {
    pub name: &'static str,
    pub wall_s: f64,
    pub sim_s: f64,
    /// Simulation events processed end to end.
    pub events: u64,
    /// Rough peak-heap estimate (arena capacities; see `heap_estimate_bytes`).
    pub heap_bytes: u64,
    /// CPU seconds of the run in user mode and in the kernel. Their sum can
    /// exceed `wall_s` by a tick or two (1/100 s resolution).
    pub user_s: f64,
    pub sys_s: f64,
    /// Minor page faults of the run: first touches of fresh heap pages.
    pub minor_faults: u64,
    /// Candidate nodes `dispatch` looked for work on
    /// (`SimWorld::dispatch_visits`).
    pub dispatch_visits: u64,
    /// Max–min water-filling passes the flow network ran
    /// (`FlowNet::recomputes`).
    pub net_recomputes: u64,
}

impl Record {
    /// Engine throughput: simulation events per host wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }
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

/// Time one cell.
pub fn run(cell: &Cell, setup: Setup) -> Record {
    let (spec, cfg, gb) = cell.resolve(setup);
    let (faults0, user0, sys0) = proc_self_stat();
    let t0 = Instant::now();
    let mut d = Driver::new(spec, cfg);
    let m = d.run_for_metrics(&gb.build(), gb.action());
    let wall_s = t0.elapsed().as_secs_f64();
    let (faults1, user1, sys1) = proc_self_stat();
    if let Size::Fixed {
        producers,
        reducers,
        ..
    } = cell.size
    {
        assert_eq!(
            m.tasks().len() as u64,
            2 * producers + u64::from(reducers),
            "{} ran a different number of tasks than its row states",
            cell.name
        );
    }
    Record {
        name: cell.name,
        wall_s,
        sim_s: m.job_time(),
        events: d.engine_steps(),
        heap_bytes: d.heap_estimate_bytes(),
        user_s: (user1 - user0) as f64 / 100.0,
        sys_s: (sys1 - sys0) as f64 / 100.0,
        minor_faults: faults1 - faults0,
        dispatch_visits: d.world().dispatch_visits,
        net_recomputes: d.world().net.recomputes,
    }
}

/// The records as the table `id` (the `repro` target that asked for them).
pub fn table(id: &'static str, records: &[Record]) -> Table {
    let mut t = Table::new(
        id,
        "engine host time per cell, single-shot (host seconds; sim_job_s is simulated)",
        &[
            "wall_s",
            "sim_job_s",
            "events",
            "events_per_s",
            "heap_mb",
            "user_s",
            "sys_s",
            "minor_faults",
            "dispatch_visits",
            "net_recomputes",
        ],
    );
    for r in records {
        t.row(
            r.name,
            vec![
                r.wall_s,
                r.sim_s,
                r.events as f64,
                r.events_per_sec(),
                r.heap_bytes as f64 / (1024.0 * 1024.0),
                r.user_s,
                r.sys_s,
                r.minor_faults as f64,
                r.dispatch_visits as f64,
                r.net_recomputes as f64,
            ],
        );
    }
    let total: f64 = records.iter().map(|r| r.wall_s).sum();
    t.note(format!("total wall-clock {total:.3}s"));
    t
}

/// Machine-readable record: `{"target", "scale", "seed", "runs": [...],
/// "total_wall_s"}`, each run its name plus the ten columns.
pub fn to_json(target: &str, setup: Setup, records: &[Record]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"target\": \"{}\",", escape(target));
    let _ = writeln!(out, "  \"scale\": {},", num(setup.scale));
    let _ = writeln!(out, "  \"seed\": {},", setup.seed);
    out.push_str("  \"runs\": [");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"wall_s\": {}, \"sim_job_s\": {}, \"events\": {}, \
             \"events_per_s\": {}, \"heap_bytes\": {}, \"user_s\": {}, \"sys_s\": {}, \
             \"minor_faults\": {}, \"dispatch_visits\": {}, \"net_recomputes\": {}}}",
            escape(r.name),
            num(r.wall_s),
            num(r.sim_s),
            r.events,
            num(r.events_per_sec()),
            r.heap_bytes,
            num(r.user_s),
            num(r.sys_s),
            r.minor_faults,
            r.dispatch_visits,
            r.net_recomputes
        );
    }
    if !records.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    let total: f64 = records.iter().map(|r| r.wall_s).sum();
    let _ = write!(out, "  \"total_wall_s\": {}\n}}", num(total));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use memres_workloads::cells;

    fn record(name: &'static str, wall_s: f64, events: u64, heap_bytes: u64) -> Record {
        Record {
            name,
            wall_s,
            sim_s: 100.0,
            events,
            heap_bytes,
            user_s: 0.25,
            sys_s: 0.125,
            minor_faults: 77,
            dispatch_visits: 4321,
            net_recomputes: 56,
        }
    }

    #[test]
    fn json_and_table_shape() {
        let recs = [
            record("a", 0.25, 1000, 2 * 1024 * 1024),
            record("b", 0.75, 3000, 1024),
        ];
        let setup = Setup {
            scale: 0.05,
            seed: 1,
        };
        let j = to_json("bench", setup, &recs);
        assert!(j.contains("\"target\": \"bench\",\n  \"scale\": 0.05,\n  \"seed\": 1,"));
        assert!(j.contains("\"total_wall_s\": 1.0"));
        assert!(j.contains(
            "{\"name\": \"a\", \"wall_s\": 0.25, \"sim_job_s\": 100.0, \"events\": 1000, \
             \"events_per_s\": 4000.0, \"heap_bytes\": 2097152, \"user_s\": 0.25, \
             \"sys_s\": 0.125, \"minor_faults\": 77, \"dispatch_visits\": 4321, \
             \"net_recomputes\": 56}"
        ));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let t = table("bench", &recs);
        assert_eq!(t.column("wall_s"), vec![0.25, 0.75]);
        assert_eq!(t.column("events_per_s"), vec![4000.0, 4000.0]);
        assert_eq!(t.column("heap_mb"), vec![2.0, 1024.0 / (1024.0 * 1024.0)]);
        assert_eq!(t.column("sys_s"), vec![0.125; 2]);
        assert_eq!(t.column("dispatch_visits"), vec![4321.0; 2]);
        assert_eq!(t.column("net_recomputes"), vec![56.0; 2]);
    }

    #[test]
    fn zero_wall_clock_reports_zero_throughput() {
        // Sub-resolution timers (or a clamped clock) must not divide by
        // zero: events_per_sec is defined as 0 when no wall time elapsed.
        let r = record("instant", 0.0, 12345, 0);
        assert_eq!(r.events_per_sec(), 0.0);
        assert!(r.events_per_sec().is_finite());
    }

    #[test]
    fn smoke_cell_runs_and_aggregates() {
        // `run` itself asserts the task count the row states.
        let c = cells::find(cells::SCALE_SMOKE).expect("the CI-sized cell");
        let r = run(c, Setup::paper());
        assert!(r.events > 0 && r.sim_s > 0.0);
        assert!(r.heap_bytes > 0);
        // Every launch and every finish may cost a visit or two; a count
        // that grows with dispatches x idle nodes is the 4 M-task cliff.
        assert!(r.dispatch_visits > 0 && r.dispatch_visits <= r.events);
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
}
