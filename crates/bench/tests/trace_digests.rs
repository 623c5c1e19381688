//! The trace exports of three real runs, pinned by digest: every event,
//! field and timestamp of `events.jsonl` and of the Chrome trace feeds a
//! 64-bit FNV-1a, so any byte the exporters write differently fails here.
//! The cells cover what the four-event goldens in
//! `core/tests/export_golden.rs` do not: shuffle flows with fractional
//! byte counts (RAMDisk), Lustre DLM lock traffic (Lustre-shared), and SSD
//! GC under an injected task failure and node crash (retries, ghosts,
//! faults). The digests were captured at commit 3637e7b, whose exporters
//! wrote every field through `core::fmt`.

use memres_core::prelude::*;
use memres_core::value::fnv1a;
use memres_des::time::SimDuration;
use memres_trace::export::{chrome_trace_json, events_jsonl};
use memres_workloads::cells::{self, Setup};

/// Both exports of `cell` traced at smoke scale: their digests, and the
/// count of each event kind in `kinds`.
fn digests(cell: &str, faults: FaultPlan, kinds: &[&str]) -> (u64, u64, Vec<usize>) {
    let (spec, cfg, gb) = cells::find(cell)
        .expect("known cell")
        .resolve(Setup::smoke());
    let mut d = Driver::new(spec, cfg.with_faults(faults).with_trace());
    let (out, _) = d.run(&gb.build(), gb.action());
    assert!(!out.aborted, "{cell} aborted");
    let events = d.take_trace();
    let jsonl = events_jsonl(&events);
    let counts = kinds
        .iter()
        .map(|k| jsonl.matches(&format!("\"type\":\"{k}\"")).count())
        .collect();
    (fnv1a(&jsonl), fnv1a(chrome_trace_json(&events)), counts)
}

#[test]
fn ramdisk_trace_exports_are_pinned() {
    let got = digests("fig7a_400gb_ramdisk", FaultPlan::new(), &["flow_end"]);
    assert_eq!(
        got,
        (0xe98e_a2cf_0c88_aafa, 0x958d_00c0_2d30_8f3c, vec![64])
    );
}

#[test]
fn lustre_shared_trace_exports_are_pinned() {
    let kinds = ["lock_acquire", "lock_revoke", "lock_wait_for"];
    let got = digests("fig7a_400gb_lustre_shared", FaultPlan::new(), &kinds);
    assert_eq!(
        got,
        (
            0x2d22_3dd0_49bc_54d3,
            0xd74d_ea3d_8a2a_0767,
            vec![128, 8, 128]
        )
    );
}

#[test]
fn faulted_ssd_trace_exports_are_pinned() {
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
    let got = digests("fig8a_600gb_ssd", plan, &kinds);
    assert_eq!(
        got,
        (
            0xdd4e_ac72_9aeb_33de,
            0xdee5_47bb_7d43_1add,
            vec![1, 2, 1, 16, 1]
        )
    );
}
