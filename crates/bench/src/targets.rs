//! Every `repro` target, in one list: `repro` validates, prints its usage
//! and dispatches from [`TARGETS`], and the bless renders EXPERIMENTS.md —
//! its scorecard and one generated block per [`all`] target — from one run
//! of the same rows through [`Target::print`].

use crate::{experiments as ex, tenants, Table};
use memres_workloads::cells::{self, Cell, Setup, Size};

/// What running a target produces.
pub enum Run {
    /// Figure tables, printed and (with `--json`) written one file each.
    Tables(fn(Setup) -> Vec<Table>),
    Text(fn(Setup) -> String),
    /// Timed runs of the cells this selects; the flag is whether `--smoke`
    /// was given.
    Timed(fn(&Cell, bool) -> bool),
}

pub struct Target {
    pub name: &'static str,
    /// Whether `all` runs it (the timed targets and the negative control
    /// are opt-in).
    pub in_all: bool,
    pub run: Run,
}

const fn tables(name: &'static str, in_all: bool, f: fn(Setup) -> Vec<Table>) -> Target {
    let run = Run::Tables(f);
    Target { name, in_all, run }
}

/// Every runnable target, in `all` order.
pub const TARGETS: [Target; 27] = [
    tables("table1", true, |_| vec![ex::table1()]),
    Target {
        name: "plans",
        in_all: true,
        run: Run::Text(ex::plans),
    },
    tables("fig5a", true, |s| vec![ex::fig5a(s)]),
    tables("fig5b", true, |s| vec![ex::fig5b(s)]),
    tables("fig7a", true, |s| vec![ex::fig7a(s)]),
    tables("fig7b", true, |s| vec![ex::fig7b(s)]),
    tables("fig8a", true, |s| vec![ex::fig8a(s)]),
    tables("fig8b", true, |s| vec![ex::fig8b(s)]),
    tables("fig8c", true, |s| vec![ex::fig8c(s)]),
    tables("fig8d", true, |s| vec![ex::fig8d(s)]),
    tables("fig9a", true, |s| vec![ex::fig9a(s)]),
    tables("fig9b", true, |s| vec![ex::fig9b(s)]),
    tables("fig10", true, |s| vec![ex::fig10(s)]),
    tables("fig12a", true, |s| vec![ex::fig12a(s)]),
    tables("fig12b", true, |s| vec![ex::fig12b(s)]),
    tables("fig13a", true, |s| vec![ex::fig13a(s)]),
    tables("fig13b", true, |s| vec![ex::fig13b(s)]),
    tables("fig14", true, ex::fig14),
    tables("ablations", true, |s| {
        vec![
            ex::ablation_elb_threshold(s),
            ex::ablation_cad_step(s),
            ex::ablation_delay_wait(s),
        ]
    }),
    tables("baselines", true, |s| vec![ex::baseline_speculation(s)]),
    tables("faults", true, |s| vec![ex::faults(s)]),
    tables("tenants", true, tenants::tables),
    // Either half of Fig 14 prints both: one sweep fills the two tables.
    tables("fig14a", false, ex::fig14),
    tables("fig14b", false, ex::fig14),
    tables("faults-abort", false, |s| vec![ex::faults_abort(s)]),
    Target {
        name: "bench",
        in_all: false,
        run: Run::Timed(|c, _| matches!(c.size, Size::Paper { .. })),
    },
    Target {
        name: "scale",
        in_all: false,
        // The family (`--smoke`: only the CI-sized cell).
        run: Run::Timed(|c, smoke| {
            matches!(c.size, Size::Fixed { .. }) && (c.name == cells::SCALE_SMOKE) == smoke
        }),
    },
];

/// The target named `name`.
pub fn find(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

/// The targets `repro all` runs, in its order.
pub fn all() -> impl Iterator<Item = &'static Target> {
    TARGETS.iter().filter(|t| t.in_all)
}

/// What `repro <target>` writes to stdout, and the tables in it.
pub struct Printed {
    pub text: String,
    pub tables: Vec<Table>,
}

impl Target {
    /// What `repro <name>` prints at `setup`; `None` for a timed target,
    /// whose table is host time.
    pub fn print(&self, setup: Setup) -> Option<Printed> {
        let (text, tables) = match self.run {
            Run::Tables(f) => {
                let tables = f(setup);
                (tables.iter().map(|t| t.render() + "\n").collect(), tables)
            }
            Run::Text(f) => (f(setup) + "\n", Vec::new()),
            Run::Timed(_) => return None,
        };
        Some(Printed { text, tables })
    }
}
