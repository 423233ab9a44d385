//! The metric catalogue: the eight end-to-end metrics with their bounds,
//! and the per-layer metrics. `BENCHMARK.json` at the repo root lists the
//! same names; a unit test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The eight end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "op_geomean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "op_pass_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "worst_op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "cold_pass_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "disk_bytes_per_triple",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: informs, is never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, prefixed with the crate (layer) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Whether the value is a count that repeats exactly for one seed
    /// (at width 1 / one writer).
    pub exact: bool,
}

const fn measured(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn higher(mut m: PerLayer) -> PerLayer {
    m.better = Better::Higher;
    m
}

/// The per-layer metrics, grouped by crate. A workload reports the ones
/// its layers produce; the rest read 0 in the driver line (the workload
/// does no work in that layer) and are left out of the JSON report.
pub const PER_LAYER: [PerLayer; 73] = [
    // datagen
    measured("datagen.generate_s", "s"),
    // rdf
    exact("rdf.dict_terms", "count"),
    measured("rdf.decode_ns_per_term", "ns"),
    measured("rdf.dataset_clone_ms", "ms"),
    // storage
    exact("storage.cold_bytes_read", "B"),
    exact("storage.cold_seeks", "count"),
    exact("storage.cold_io_model_s", "s"),
    exact("storage.syncs_per_commit", "count"),
    exact("storage.wal_bytes_per_triple", "B"),
    exact("storage.bytes_written_per_triple", "B"),
    measured("storage.wal_append_fsync_us", "us"),
    exact("storage.checkpoint_bytes", "B"),
    // btree
    measured("btree.bulk_load_s", "s"),
    measured("btree.probe_ns", "ns"),
    measured("btree.scan_ns_per_row", "ns"),
    // plan
    measured("plan.parse_us", "us"),
    measured("plan.compile_us", "us"),
    measured("plan.optimize_us", "us"),
    measured("plan.verify_us", "us"),
    exact("plan.q_error_max", "ratio"),
    exact("plan.q_error_geomean", "ratio"),
    // colstore
    measured("colstore.open_s.vert", "s"),
    measured("colstore.open_s.pso", "s"),
    measured("colstore.open_s.spo", "s"),
    measured("colstore.exec_ms.vert", "ms"),
    measured("colstore.exec_ms.pso", "ms"),
    measured("colstore.exec_ms.spo", "ms"),
    higher(measured("colstore.wide_speedup", "ratio")),
    higher(exact("colstore.merge_joins", "count")),
    exact("colstore.hash_joins", "count"),
    higher(exact("colstore.leapfrog_dispatches", "count")),
    higher(exact("colstore.sorted_group_counts", "count")),
    exact("colstore.hash_group_counts", "count"),
    higher(exact("colstore.run_kernel_dispatches", "count")),
    exact("colstore.runs_expanded", "count"),
    exact("colstore.scan_bytes_compressed", "B"),
    exact("colstore.scan_bytes_logical", "B"),
    exact("colstore.peak_mem_bytes", "B"),
    measured("colstore.morsels", "count"),
    measured("colstore.parallel_tasks", "count"),
    exact("colstore.merges", "count"),
    measured("colstore.merge_ms", "ms"),
    measured("colstore.delta_union_scans", "count"),
    // rowstore
    measured("rowstore.open_s.vert", "s"),
    measured("rowstore.open_s.pso", "s"),
    measured("rowstore.open_s.spo", "s"),
    measured("rowstore.exec_ms.vert", "ms"),
    measured("rowstore.exec_ms.pso", "ms"),
    measured("rowstore.exec_ms.spo", "ms"),
    // core
    measured("core.session_pin_us", "us"),
    measured("core.query_inproc_us.point", "us"),
    measured("core.query_inproc_us.bound", "us"),
    measured("core.query_inproc_us.star", "us"),
    measured("core.query_inproc_us.catalog", "us"),
    measured("core.commit_plain_ms", "ms"),
    measured("core.commit_merge_ms", "ms"),
    measured("core.read_p50_ms", "ms"),
    measured("core.read_stall_ms", "ms"),
    higher(measured("core.reads_per_s", "1/s")),
    measured("core.import_s", "s"),
    measured("core.checkpoint_s", "s"),
    measured("core.recover_s", "s"),
    // serve
    measured("serve.http_overhead_us.point", "us"),
    measured("serve.http_overhead_us.bound", "us"),
    measured("serve.http_overhead_us.star", "us"),
    measured("serve.http_overhead_us.catalog", "us"),
    exact("serve.response_bytes_per_req", "B"),
    measured("serve.open_p50_ms", "ms"),
    measured("serve.open_p99_ms", "ms"),
    measured("serve.open_late_p99_ms", "ms"),
    measured("serve.shed_requests", "count"),
    measured("serve.cancelled_queries", "count"),
    // harness
    measured("harness.trace_overhead_pct", "%"),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The four workloads, in run order, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper_col",
        "paper's 12 queries x 3 layouts on the column engine: kernels, property dispatch and CBO do the work; serve, SPARQL text, WAL and merge do none",
    ),
    (
        "paper_row",
        "same data and 36 classes on the row engine: rowstore and btree do the work and colstore none, so a column-only gain that costs the row engine shows",
    ),
    (
        "serve_read",
        "Zipf point/bound/star/catalog SPARQL over loopback HTTP: parse, admission queue, compile and decode dominate, engine execution is a small share",
    ),
    (
        "mixed_rw",
        "one committing writer beside one reader on a durable database: the only workload where WAL fsync, write store, merge, checkpoint and recovery run",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    fn spelled(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `BENCHMARK.json` and this catalogue must name the same metrics,
    /// units, directions and bounds, and respect the driver's limits.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 << 10, "file over 64 KiB");
        let doc = json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::NOMINAL_SECONDS)
        );

        let str_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let mut names = std::collections::BTreeSet::new();

        let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(str_of(w, "name"), name);
            assert_eq!(str_of(w, "why"), why);
            assert!(why.len() <= 200, "{name}: why over 200 characters");
            assert!(names.insert(name.to_string()));
        }

        let e2e = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), spelled(m.better));
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
            assert!(names.insert(m.name.to_string()));
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let layers = doc.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), spelled(m.better));
            assert_eq!(j.as_obj().unwrap().len(), 3);
            assert!(names.insert(m.name.to_string()), "{} used twice", m.name);
        }
        for name in &names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }
}
