//! The trace exports of three real runs, pinned by digest: every event,
//! field and timestamp of `events.jsonl` and of the Chrome trace feeds a
//! 64-bit FNV-1a, so any byte the exporters write differently fails here.
//! The runs are `repro trace`'s own (`observe::run_cell`, sampler on).
//! The cells cover what the four-event goldens in
//! `core/tests/export_golden.rs` do not: shuffle flows with fractional
//! byte counts (RAMDisk), Lustre DLM lock traffic (Lustre-shared), and SSD
//! GC under an injected task failure and node crash (retries, ghosts,
//! faults). The digests were captured at commit 3637e7b, whose exporters
//! wrote every field through `core::fmt`; they are rows of
//! `golden/pins.tsv` (`pins/mod.rs`).

#[path = "pins/mod.rs"]
mod pins;

use memres_bench::observe;
use memres_core::prelude::*;
use memres_core::value::fnv1a;
use memres_des::time::SimDuration;
use memres_workloads::cells::Setup;

const CASES: &[pins::Case] = &[
    ("ramdisk", |_| {
        exports("fig7a_400gb_ramdisk", FaultPlan::new(), &["flow_end"])
    }),
    ("lustre_shared", |_| {
        let kinds = ["lock_acquire", "lock_revoke", "lock_wait_for"];
        exports("fig7a_400gb_lustre_shared", FaultPlan::new(), &kinds)
    }),
    ("faulted_ssd", |_| {
        let crash = FaultKind::NodeCrash {
            node: 2,
            restart: Some(SimDuration::from_secs(1)),
        };
        let plan = FaultPlan::new()
            .after(SimDuration::ZERO, FaultKind::TaskFail { nth_launch: 5 })
            .after(SimDuration::from_secs(3), crash);
        let kinds = [
            "gc_start",
            "buf_full",
            "fault_injected",
            "task_retried",
            "ghosts_spawned",
        ];
        exports("fig8a_600gb_ssd", plan, &kinds)
    }),
];

/// Both exports of `cell` observed at smoke scale: their digests, and the
/// count of each event kind in `kinds`.
fn exports(cell: &str, faults: FaultPlan, kinds: &[&'static str]) -> Vec<pins::Pin> {
    let run = observe::run_cell(Setup::smoke(), cell, faults).expect("known cell");
    let (_, files) = run.command("trace");
    let [(_, chrome), (_, jsonl)] = &files[..] else {
        panic!("trace writes two files")
    };
    let mut pins = pins::jsonl(jsonl, kinds);
    pins.push(pins::fnv("chrome", fnv1a(chrome)));
    pins
}

#[test]
fn ramdisk_trace_exports_are_pinned() {
    pins::check(pins::named(CASES, &["ramdisk"]));
}

#[test]
fn lustre_shared_trace_exports_are_pinned() {
    pins::check(pins::named(CASES, &["lustre_shared"]));
}

#[test]
fn faulted_ssd_trace_exports_are_pinned() {
    pins::check(pins::named(CASES, &["faulted_ssd"]));
}

pins::tests!(CASES);
