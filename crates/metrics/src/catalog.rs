//! The gauge catalog: every series the sampler may record, with layer,
//! unit, and help text (DESIGN.md §4.16).
//!
//! The catalog is the single registry the exporters and the diff's layer
//! attribution key off. The `exhaustive-metrics` cross-file lint
//! (crates/lint/src/xfile.rs) checks that every name listed in
//! [`ALL_NAMES`] also appears in both exporter series lists
//! (`OPENMETRICS_SERIES` and `CSV_SERIES` in `export.rs`), and vice versa —
//! adding a gauge without teaching both exporters about it fails the gate.

/// Static description of one series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesDef {
    pub name: &'static str,
    /// Which layer of the stack the gauge observes — the key the diff
    /// report attributes regressions to.
    pub layer: &'static str,
    pub unit: &'static str,
    /// Instance label key for multi-instance series (`rack`, `tenant`).
    pub label: Option<&'static str>,
    pub help: &'static str,
}

/// Every registered series name. Keep this list in sync with [`def`] and
/// with the exporter lists in `export.rs` (lint rule `exhaustive-metrics`).
pub const ALL_NAMES: [&str; 24] = [
    "engine_events_total",
    "engine_events_per_sample",
    "engine_queue_len",
    "engine_queue_lane",
    "net_active_flows",
    "net_rack_up_util",
    "net_rack_down_util",
    "net_core_util",
    "net_lustre_pipe_util",
    "storage_ram_queue_depth",
    "storage_ssd_queue_depth",
    "storage_ssd_dirty_bytes",
    "storage_ssd_gc_nodes",
    "storage_ssd_buffer_fill_max",
    "lustre_mds_backlog",
    "lustre_client_dirty_bytes",
    "core_resident_partition_bytes",
    "core_task_arena_tasks",
    "core_tasks_pending",
    "core_busy_slots",
    "core_resident_jobs",
    "tenant_queued_jobs",
    "tenant_running_jobs",
    "tenant_slo_burn_secs",
];

/// Every registered series name, catalog order.
pub fn all() -> impl Iterator<Item = &'static str> {
    ALL_NAMES.iter().copied()
}

/// Look a series definition up by name; `None` for unregistered names.
pub fn def(name: &str) -> Option<SeriesDef> {
    let d = |layer, unit, label, help| SeriesDef {
        name: "",
        layer,
        unit,
        label,
        help,
    };
    let mut found = match name {
        "engine_events_total" => d(
            "des",
            "events",
            None,
            "Events processed by the engine so far",
        ),
        "engine_events_per_sample" => d(
            "des",
            "events",
            None,
            "Events processed since the previous sample",
        ),
        "engine_queue_len" => d("des", "events", None, "Events buffered on the calendar"),
        "engine_queue_lane" => d(
            "des",
            "events",
            None,
            "Buffered events due at the current instant (the queue's same-instant lane)",
        ),
        "net_active_flows" => d(
            "net",
            "flows",
            None,
            "Flows with queued bytes in the fabric",
        ),
        "net_rack_up_util" => d(
            "net",
            "ratio",
            Some("rack"),
            "Rack uplink utilization (allocated rate / capacity)",
        ),
        "net_rack_down_util" => d(
            "net",
            "ratio",
            Some("rack"),
            "Rack downlink utilization (allocated rate / capacity)",
        ),
        "net_core_util" => d("net", "ratio", None, "Core fabric link utilization"),
        "net_lustre_pipe_util" => d("net", "ratio", None, "Lustre aggregate pipe utilization"),
        "storage_ram_queue_depth" => d(
            "storage",
            "requests",
            None,
            "In-flight RAMDisk requests summed over nodes",
        ),
        "storage_ssd_queue_depth" => d(
            "storage",
            "requests",
            None,
            "In-flight SSD requests summed over nodes",
        ),
        "storage_ssd_dirty_bytes" => d(
            "storage",
            "bytes",
            None,
            "Dirty page-cache bytes ahead of the SSDs, summed over nodes",
        ),
        "storage_ssd_gc_nodes" => d(
            "storage",
            "nodes",
            None,
            "Nodes whose SSD is garbage-collecting",
        ),
        "storage_ssd_buffer_fill_max" => d(
            "storage",
            "ratio",
            None,
            "Worst SSD write-buffer fill fraction across nodes",
        ),
        "lustre_mds_backlog" => d("lustre", "ops", None, "Queued metadata ops at the MDS"),
        "lustre_client_dirty_bytes" => d(
            "lustre",
            "bytes",
            None,
            "Unflushed client-side Lustre dirty bytes, summed over nodes",
        ),
        "core_resident_partition_bytes" => d(
            "core",
            "bytes",
            None,
            "Cached RDD partition bytes resident in block managers",
        ),
        "core_task_arena_tasks" => d("core", "tasks", None, "Tasks materialized in the arena"),
        "core_tasks_pending" => d("core", "tasks", None, "Tasks waiting for a slot"),
        "core_busy_slots" => d("core", "slots", None, "Occupied executor slots"),
        "core_resident_jobs" => d("core", "jobs", None, "Jobs admitted and not yet finished"),
        "tenant_queued_jobs" => d(
            "tenancy",
            "jobs",
            Some("tenant"),
            "Arrived jobs waiting for admission",
        ),
        "tenant_running_jobs" => d(
            "tenancy",
            "jobs",
            Some("tenant"),
            "Resident jobs of the tenant",
        ),
        "tenant_slo_burn_secs" => d(
            "tenancy",
            "seconds",
            Some("tenant"),
            "Cumulative job latency accrued by the tenant so far",
        ),
        _ => return None,
    };
    found.name = all().find(|&n| n == name)?;
    Some(found)
}

/// Position of `name` in catalog order (export ordering key).
pub fn order(name: &str) -> usize {
    all().position(|n| n == name).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_has_a_def_and_vice_versa() {
        for name in all() {
            let d = def(name).expect("catalog name without def");
            assert_eq!(d.name, name);
            assert!(!d.layer.is_empty() && !d.unit.is_empty() && !d.help.is_empty());
        }
        assert!(def("no_such_series").is_none());
    }

    #[test]
    fn names_are_unique_and_ordered() {
        let names: Vec<_> = all().collect();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(order(n), i);
            assert!(!names[i + 1..].contains(n), "duplicate series name {n}");
        }
        assert_eq!(order("no_such_series"), usize::MAX);
    }

    #[test]
    fn labeled_series_use_known_label_keys() {
        for name in all() {
            if let Some(label) = def(name).unwrap().label {
                assert!(matches!(label, "rack" | "tenant"), "{name}: {label}");
            }
        }
    }
}
