//! The gauge catalog: every series the sampler may record, with layer,
//! unit, and help text (DESIGN.md §4.16).
//!
//! [`CATALOG`] is the single registry: a series exists because it has a row
//! here, the exporters emit a recorded series by looking its row up (a name
//! without one is skipped), export order is row order, and the diff's layer
//! attribution reads the row's `layer`. There is no second list to keep in
//! step.

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

/// Every registered series, in catalog (= export) order.
pub const CATALOG: [SeriesDef; 24] = [
    SeriesDef {
        name: "engine_events_total",
        layer: "des",
        unit: "events",
        label: None,
        help: "Events processed by the engine so far",
    },
    SeriesDef {
        name: "engine_events_per_sample",
        layer: "des",
        unit: "events",
        label: None,
        help: "Events processed since the previous sample",
    },
    SeriesDef {
        name: "engine_queue_len",
        layer: "des",
        unit: "events",
        label: None,
        help: "Events buffered on the calendar",
    },
    SeriesDef {
        name: "engine_queue_lane",
        layer: "des",
        unit: "events",
        label: None,
        help: "Buffered events due at the current instant (the queue's same-instant lane)",
    },
    SeriesDef {
        name: "net_active_flows",
        layer: "net",
        unit: "flows",
        label: None,
        help: "Flows with queued bytes in the fabric",
    },
    SeriesDef {
        name: "net_rack_up_util",
        layer: "net",
        unit: "ratio",
        label: Some("rack"),
        help: "Rack uplink utilization (allocated rate / capacity)",
    },
    SeriesDef {
        name: "net_rack_down_util",
        layer: "net",
        unit: "ratio",
        label: Some("rack"),
        help: "Rack downlink utilization (allocated rate / capacity)",
    },
    SeriesDef {
        name: "net_core_util",
        layer: "net",
        unit: "ratio",
        label: None,
        help: "Core fabric link utilization",
    },
    SeriesDef {
        name: "net_lustre_pipe_util",
        layer: "net",
        unit: "ratio",
        label: None,
        help: "Lustre aggregate pipe utilization",
    },
    SeriesDef {
        name: "storage_ram_queue_depth",
        layer: "storage",
        unit: "requests",
        label: None,
        help: "In-flight RAMDisk requests summed over nodes",
    },
    SeriesDef {
        name: "storage_ssd_queue_depth",
        layer: "storage",
        unit: "requests",
        label: None,
        help: "In-flight SSD requests summed over nodes",
    },
    SeriesDef {
        name: "storage_ssd_dirty_bytes",
        layer: "storage",
        unit: "bytes",
        label: None,
        help: "Dirty page-cache bytes ahead of the SSDs, summed over nodes",
    },
    SeriesDef {
        name: "storage_ssd_gc_nodes",
        layer: "storage",
        unit: "nodes",
        label: None,
        help: "Nodes whose SSD is garbage-collecting",
    },
    SeriesDef {
        name: "storage_ssd_buffer_fill_max",
        layer: "storage",
        unit: "ratio",
        label: None,
        help: "Worst SSD write-buffer fill fraction across nodes",
    },
    SeriesDef {
        name: "lustre_mds_backlog",
        layer: "lustre",
        unit: "ops",
        label: None,
        help: "Queued metadata ops at the MDS",
    },
    SeriesDef {
        name: "lustre_client_dirty_bytes",
        layer: "lustre",
        unit: "bytes",
        label: None,
        help: "Unflushed client-side Lustre dirty bytes, summed over nodes",
    },
    SeriesDef {
        name: "core_resident_partition_bytes",
        layer: "core",
        unit: "bytes",
        label: None,
        help: "Cached RDD partition bytes resident in block managers",
    },
    SeriesDef {
        name: "core_task_arena_tasks",
        layer: "core",
        unit: "tasks",
        label: None,
        help: "Tasks materialized in the arena",
    },
    SeriesDef {
        name: "core_tasks_pending",
        layer: "core",
        unit: "tasks",
        label: None,
        help: "Tasks waiting for a slot",
    },
    SeriesDef {
        name: "core_busy_slots",
        layer: "core",
        unit: "slots",
        label: None,
        help: "Occupied executor slots",
    },
    SeriesDef {
        name: "core_resident_jobs",
        layer: "core",
        unit: "jobs",
        label: None,
        help: "Jobs admitted and not yet finished",
    },
    SeriesDef {
        name: "tenant_queued_jobs",
        layer: "tenancy",
        unit: "jobs",
        label: Some("tenant"),
        help: "Arrived jobs waiting for admission",
    },
    SeriesDef {
        name: "tenant_running_jobs",
        layer: "tenancy",
        unit: "jobs",
        label: Some("tenant"),
        help: "Resident jobs of the tenant",
    },
    SeriesDef {
        name: "tenant_slo_burn_secs",
        layer: "tenancy",
        unit: "seconds",
        label: Some("tenant"),
        help: "Cumulative job latency accrued by the tenant so far",
    },
];

/// Every registered series name, catalog order.
pub fn all() -> impl Iterator<Item = &'static str> {
    CATALOG.iter().map(|d| d.name)
}

/// Look a series definition up by name; `None` for unregistered names.
pub fn def(name: &str) -> Option<SeriesDef> {
    CATALOG.iter().find(|d| d.name == name).copied()
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
