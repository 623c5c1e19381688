//! Regression corpus replay + differential-fuzzer self-tests
//! (DESIGN.md §4.13).
//!
//! Every `fuzz_corpus/*.spec` line is replayed on each `cargo test` run:
//! specs with `defect=0` are fixed regressions and must pass all oracles;
//! specs with `defect=1` carry a deliberately planted engine defect and
//! must keep *failing* — they prove the oracles can still see that bug
//! class.

#![allow(
    clippy::disallowed_methods,
    reason = "a test of the measurement layer reads its corpus files (DESIGN.md 4.10)"
)]

use memres_bench::fuzz::{self, FuzzSpec};
use memres_core::prelude::{InputSource, SchedulerKind, ShuffleStore, StoreDevice};

const BUDGET: u64 = 20_000_000;

fn corpus_specs() -> Vec<(String, FuzzSpec)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz_corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("fuzz_corpus directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "spec"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus must not be empty");
    let mut specs = Vec::new();
    for path in files {
        let name = path
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        let text = std::fs::read_to_string(&path).expect("readable spec file");
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let spec =
                FuzzSpec::parse(line).unwrap_or_else(|e| panic!("{name}: bad spec line: {e}"));
            specs.push((name.clone(), spec));
        }
    }
    specs
}

#[test]
fn corpus_replays_deterministically() {
    for (name, spec) in corpus_specs() {
        let result = fuzz::check(&spec, BUDGET);
        if spec.defect {
            let f = result.expect_err(&format!(
                "{name}: defective spec passed — the oracles no longer catch this bug class"
            ));
            assert_eq!(
                f.oracle, "conserve",
                "{name}: wrong oracle fired: [{}] {}",
                f.oracle, f.message
            );
        } else if let Err(f) = result {
            panic!(
                "{name}: regression: [{}] {}\n  replay: {}",
                f.oracle,
                f.message,
                spec.replay_line()
            );
        }
    }
}

/// End-to-end acceptance for the harness itself: plant the rack-aggregation
/// byte-drop defect, watch the conserve oracle catch it, shrink it, and
/// confirm the minimized spec's replay line reproduces the same failure.
#[test]
fn injected_defect_is_caught_shrunk_and_replayable() {
    // Seed 1 generates an aggregating config (small threshold, multi-rack).
    let mut spec = FuzzSpec::generate(1);
    spec.defect = true;
    let failure = fuzz::check(&spec, BUDGET).expect_err("defect must trip an oracle");
    assert_eq!(failure.oracle, "conserve", "{}", failure.message);

    let (min, _spent) = fuzz::minimize(&spec, &failure, BUDGET, 64);
    assert!(min.rows <= spec.rows && min.workers <= spec.workers);
    assert!(min.defect, "the defect itself must survive minimization");

    // The printed replay line is self-contained: parse it back and fail again.
    let line = min.replay_line();
    let encoded = line
        .split_once("--replay '")
        .and_then(|(_, rest)| rest.strip_suffix('\''))
        .expect("replay line embeds a quoted spec");
    let replayed = FuzzSpec::parse(encoded).expect("replay spec parses");
    assert_eq!(replayed, min);
    let again = fuzz::check(&replayed, BUDGET).expect_err("replay reproduces the failure");
    assert_eq!(again.oracle, "conserve");
}

/// Byte conservation exactly at and just past the rack-aggregation
/// threshold. tiny(12) stripes 12 workers over 2 racks: per_rack = 6, so
/// per_rack² = 36. The engine aggregates only when per_rack² is *strictly*
/// greater than the threshold: 36 keeps per-node fetch flows, 35 folds
/// them into rack aggregates. Both sides of the boundary must conserve
/// shuffle bytes and compute identical output.
#[test]
fn conservation_holds_across_the_rack_agg_boundary() {
    let base = {
        let mut s = FuzzSpec::generate(0);
        s.workers = 12;
        s.racks = 2;
        s.cores = 2;
        s.store = ShuffleStore::Local(StoreDevice::RamDisk);
        s.input = InputSource::HdfsRamDisk;
        s.sched = SchedulerKind::Fifo;
        s.threads = 1;
        s.trace = false;
        s.elb = false;
        s.cad = false;
        s.jitter_pct = 0;
        s.wl = fuzz::WorkloadKind::GroupBy;
        s.rows = 600;
        s.keys = 37;
        s.parts = 8;
        s.reducers = 5;
        s.faults = 0;
        s.defect = false;
        s
    };
    let mut counts = Vec::new();
    // At the threshold (36: per-node flows), just past it (35: aggregated),
    // and with aggregation disabled outright.
    for agg in [36u32, 35, u32::MAX] {
        let mut spec = base.clone();
        spec.agg = agg;
        if let Err(f) = fuzz::check(&spec, BUDGET) {
            panic!("agg={agg}: [{}] {}", f.oracle, f.message);
        }
        let mut d = memres_core::Driver::new(spec.cluster(), spec.config());
        let (rdd, action) = spec.build_rdd();
        let (out, metrics) = d.run(&rdd, action);
        fuzz::check_conservation(&metrics)
            .unwrap_or_else(|e| panic!("agg={agg}: bytes not conserved: {e}"));
        counts.push(out.count);
    }
    assert_eq!(counts[0], counts[1], "aggregation changed job output");
    assert_eq!(counts[0], counts[2], "aggregation changed job output");
}

/// A short clean sweep: the generator must produce specs that pass all
/// oracles (anything else is either an engine bug or a fuzzer bug — both
/// block the merge).
#[test]
fn clean_seeds_pass_all_oracles() {
    let outcomes = fuzz::run_range(0, 8, BUDGET, false, |_| {});
    for o in &outcomes {
        if let Some(f) = &o.failure {
            panic!(
                "seed {}: [{}] {}\n  replay: {}",
                o.seed,
                f.oracle,
                f.message,
                o.spec.replay_line()
            );
        }
    }
}
