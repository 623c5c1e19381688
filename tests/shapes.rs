//! Shape tests: the paper's findings must hold on the smoke-scale
//! reproduction of every experiment. These are the repository's regression
//! net for the characterization results themselves. What each figure must
//! show is data: its rows of `memres_bench::claims::CLAIMS`, each with the
//! band a smoke run keeps, checked here on the table the figure returns.
//! Two checks no headline expresses stay code: `table1_and_plans_render`
//! and `late_speculation_duplicates_the_pinned_stragglers`. EXPERIMENTS.md's
//! summary is the same rows at full scale (`tests/docs.rs`).

#[path = "../crates/bench/tests/pins/mod.rs"]
mod pins;

use memres_bench::claims;
use memres_bench::experiments as ex;
use memres_workloads::cells::Setup;

fn setup() -> Setup {
    Setup::smoke()
}

#[test]
fn fig5a_lustre_input_hurts_scan_jobs() {
    claims::check_smoke(&ex::fig5a(setup()));
}

#[test]
fn fig5b_lustre_competitive_for_compute_bound_lr() {
    claims::check_smoke(&ex::fig5b(setup()));
}

#[test]
fn fig7_intermediate_data_placement_ordering() {
    claims::check_smoke(&ex::fig7a(setup()));
}

#[test]
fn fig7b_shared_shuffle_phase_collapses() {
    claims::check_smoke(&ex::fig7b(setup()));
}

#[test]
fn fig8_ssd_parity_then_collapse() {
    claims::check_smoke(&ex::fig8a(setup()));
}

#[test]
fn fig8c_task_spread_widens() {
    claims::check_smoke(&ex::fig8c(setup()));
}

#[test]
fn fig9_delay_scheduling_degrades() {
    claims::check_smoke(&ex::fig9a(setup()));
    claims::check_smoke(&ex::fig9b(setup()));
}

#[test]
fn fig10_locality_buys_little() {
    claims::check_smoke(&ex::fig10(setup()));
}

#[test]
fn fig12_imbalance_emerges_from_speed_skew() {
    claims::check_smoke(&ex::fig12b(setup()));
}

#[test]
fn fig13a_elb_helps_under_storage_bottleneck() {
    claims::check_smoke(&ex::fig13a(setup()));
}

#[test]
fn fig13b_elb_helps_under_network_bottleneck() {
    claims::check_smoke(&ex::fig13b(setup()));
}

#[test]
fn fig14_cad_accelerates_storing() {
    for t in ex::fig14(setup()) {
        claims::check_smoke(&t);
    }
}

#[test]
fn faults_disturb_work_at_every_scale() {
    // The crash, the fetch failure and the seeded plan's events name nodes
    // that held intermediate data in the clean run, so each retries work at
    // full scale too, where 32 producers leave most of the 100 nodes empty.
    for setup in [Setup::smoke(), Setup::paper()] {
        let t = ex::faults(setup);
        let retried = t.column("tasks_retried");
        for label in ["node-crash+restart", "fetch-failure", "seeded-mix"] {
            let row = t.rows.iter().position(|(l, _)| l == label).expect(label);
            let scale = setup.scale;
            assert!(
                retried[row] >= 1.0,
                "{label} retried nothing at scale {scale}"
            );
        }
    }
}

#[test]
fn table1_and_plans_render() {
    let t = ex::table1();
    assert_eq!(t.rows.len(), 5);
    let plans = ex::plans(setup());
    assert!(plans.contains("GroupBy"));
    assert!(plans.contains("ShuffleMapTasks"));
    assert!(plans.contains("Logistic Regression"));
}

#[test]
fn output_does_not_depend_on_rdds_built_before() {
    // RDD ids come from a process-wide counter. The plan text and the
    // Lustre input-file ids a trace carries number RDDs within the plan and
    // the world instead, so a call after a thousand throwaway RDDs prints
    // what the first call did.
    use memres::core::{Dataset, Driver, EngineConfig, InputSource, Rdd, TraceEvent};
    use memres::workloads::Grep;
    let lustre_input_trace = || {
        let cfg = EngineConfig {
            input: InputSource::Lustre,
            ..EngineConfig::default()
        }
        .with_trace();
        let grep = Grep::new(setup().bytes(100.0));
        let mut d = Driver::new(setup().cluster(), cfg);
        d.run(&grep.build(), grep.action());
        d.take_trace()
    };
    let (plans, trace) = (ex::plans(setup()), lustre_input_trace());
    assert!(plans.contains("cache#1 "), "{plans}");
    let locks = |trace: &[memres::core::TimedEvent]| {
        let files = trace.iter().filter_map(|e| match e.ev {
            TraceEvent::LockAcquire { file, .. } => Some(file),
            _ => None,
        });
        files.collect::<Vec<u64>>()
    };
    assert!(!locks(&trace).is_empty(), "the input reads take locks");
    for _ in 0..1000 {
        Rdd::source(Dataset::synthetic(1.0, 1.0, 1.0));
    }
    assert_eq!(ex::plans(setup()), plans);
    let again = lustre_input_trace();
    let (before, after) = (locks(&trace), locks(&again));
    let (first, then) = (before.first(), after.first());
    assert!(
        after == before,
        "input file ids moved: {first:?}, then {then:?}"
    );
    assert!(again == trace, "the traces differ beyond their file ids");
}

const CASES: &[pins::Case] = &[("late_speculation", |_| {
    // The LATE row of `repro baselines` at smoke scale, traced: which tasks
    // get a twin, and in which order, is pinned from the engine that rebuilt
    // the median from every completed duration and scanned every task of the
    // stage for every idle slot. The incremental histogram and the
    // once-per-dispatch straggler list must pick exactly these.
    use memres::core::{Driver, EngineConfig, InputSource, SchedulerKind, ShuffleStore};
    use memres::core::{StoreDevice, TraceEvent};
    use memres::workloads::GroupBy;
    let cfg = EngineConfig {
        input: InputSource::Lustre,
        shuffle: ShuffleStore::Local(StoreDevice::Ssd),
        scheduler: SchedulerKind::Fifo,
        seed: setup().seed,
        speed_sigma: 0.35,
        ..EngineConfig::default()
    }
    .with_speculation()
    .with_trace();
    let gb = GroupBy::new(setup().bytes(1000.0));
    let mut d = Driver::new(setup().cluster(), cfg);
    d.run(&gb.build(), gb.action());
    let twins: Vec<(u32, u32)> = d
        .take_trace()
        .iter()
        .filter_map(|e| match e.ev {
            TraceEvent::Speculate { task, twin } => Some((task, twin)),
            _ => None,
        })
        .collect();
    // Shown with a failure: the digest alone does not say which task moved.
    eprintln!("(task, twin): {twins:?}");
    vec![pins::debug_fnv("twins", &twins)]
})];

#[test]
fn late_speculation_duplicates_the_pinned_stragglers() {
    pins::check(CASES);
    // Duplicating stragglers must not lengthen the job it is meant to
    // shorten: the table's own LATE row against its plain one.
    let t = ex::baseline_speculation(setup());
    let jobs = t.column("job");
    let job = |label: &str| jobs[t.rows.iter().position(|(l, _)| l == label).expect(label)];
    let (late, plain) = (job("LATE speculation"), job("plain spark"));
    assert!(late > 0.0 && late <= plain, "LATE {late} vs plain {plain}");
}

pins::tests!(CASES);
