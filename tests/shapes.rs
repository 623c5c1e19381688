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
fn table1_and_plans_render() {
    let t = ex::table1();
    assert_eq!(t.rows.len(), 5);
    let plans = ex::plans(setup());
    assert!(plans.contains("GroupBy"));
    assert!(plans.contains("ShuffleMapTasks"));
    assert!(plans.contains("Logistic Regression"));
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
