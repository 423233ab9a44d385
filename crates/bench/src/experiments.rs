//! Experiment drivers: each function regenerates one table or figure of
//! the paper and returns a report section.

use std::fmt::Write as _;

use swans_core::runner::{self, run_all_queries, ConfigRow, Measurement};
use swans_core::sweep::{property_sweep, splitting_sweep, SweepSeries};
use swans_core::{cstore_profile, Layout, RdfStore, StoreConfig};
use swans_plan::queries::{build_plan, QueryContext, QueryId, Scheme};
use swans_rdf::stats::{cfd, DatasetStats};
use swans_rdf::Dataset;

use crate::{paper, ratio, render_table, restrict_to_properties, secs, HarnessConfig};

fn eprint_progress(msg: &str) {
    eprintln!("[swans-bench] {msg}");
}

// ----------------------------------------------------------------------
// Table 1
// ----------------------------------------------------------------------

/// Table 1: data set details — measured vs scale-adjusted paper values.
pub fn table1(cfg: &HarnessConfig, ds: &Dataset) -> String {
    let st = DatasetStats::compute(ds);
    let sc = cfg.scale;
    let paper_scaled = |full: u64| -> String { format!("{:.0}", full as f64 * sc) };
    let rows = vec![
        vec![
            "total triples".to_string(),
            st.total_triples.to_string(),
            paper_scaled(paper::table1::TOTAL_TRIPLES),
            paper::table1::TOTAL_TRIPLES.to_string(),
        ],
        vec![
            "distinct properties".to_string(),
            st.distinct_properties.to_string(),
            paper::table1::DISTINCT_PROPERTIES.to_string(),
            paper::table1::DISTINCT_PROPERTIES.to_string(),
        ],
        vec![
            "distinct subjects".to_string(),
            st.distinct_subjects.to_string(),
            paper_scaled(paper::table1::DISTINCT_SUBJECTS),
            paper::table1::DISTINCT_SUBJECTS.to_string(),
        ],
        vec![
            "distinct objects".to_string(),
            st.distinct_objects.to_string(),
            paper_scaled(paper::table1::DISTINCT_OBJECTS),
            paper::table1::DISTINCT_OBJECTS.to_string(),
        ],
        vec![
            "subject/object overlap".to_string(),
            st.subject_object_overlap.to_string(),
            paper_scaled(paper::table1::SUBJECT_OBJECT_OVERLAP),
            paper::table1::SUBJECT_OBJECT_OVERLAP.to_string(),
        ],
        vec![
            "strings in dictionary".to_string(),
            st.dictionary_strings.to_string(),
            paper_scaled(paper::table1::DICTIONARY_STRINGS),
            paper::table1::DICTIONARY_STRINGS.to_string(),
        ],
        vec![
            "data set size (MB)".to_string(),
            format!("{:.0}", st.raw_bytes as f64 / 1e6),
            format!("{:.0}", paper::table1::DATASET_MB as f64 * sc),
            paper::table1::DATASET_MB.to_string(),
        ],
        vec![
            "top property count".to_string(),
            st.top_property_count.to_string(),
            paper_scaled(paper::table1::TOP_PROPERTY),
            paper::table1::TOP_PROPERTY.to_string(),
        ],
        vec![
            "top object count".to_string(),
            st.top_object_count.to_string(),
            paper_scaled(paper::table1::TOP_OBJECT),
            paper::table1::TOP_OBJECT.to_string(),
        ],
    ];
    format!(
        "## Table 1 — data set details (scale {sc})\n\n```\n{}```\n",
        render_table(
            &["statistic", "measured", "paper (scaled)", "paper (full)"],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// Figure 1
// ----------------------------------------------------------------------

/// Figure 1: cumulative frequency distributions.
pub fn fig1(ds: &Dataset) -> String {
    let series = cfd(ds);
    let marks = [
        0.5, 1.0, 2.0, 5.0, 10.0, 13.0, 20.0, 40.0, 60.0, 80.0, 100.0,
    ];
    let rows: Vec<Vec<String>> = marks
        .iter()
        .map(|&m| {
            let mut row = vec![format!("{m}%")];
            for s in &series {
                row.push(format!("{:.1}%", s.coverage_at(m)));
            }
            row
        })
        .collect();
    format!(
        "## Figure 1 — cumulative frequency distributions\n\n\
         `% of total triples` covered by the top `% of total *`:\n\n```\n{}```\n\
         Paper: the top 13% of properties cover 99% of all triples; subjects\n\
         are near-uniform; objects sit in between.\n",
        render_table(&["top-% items", "properties", "subjects", "objects"], &rows)
    )
}

// ----------------------------------------------------------------------
// Table 2
// ----------------------------------------------------------------------

/// Table 2: coverage of the query space.
pub fn table2(ds: &Dataset) -> String {
    let ctx = QueryContext::from_dataset(ds, 28);
    let queries = [
        QueryId::Q1,
        QueryId::Q2,
        QueryId::Q3,
        QueryId::Q4,
        QueryId::Q5,
        QueryId::Q6,
        QueryId::Q7,
        QueryId::Q8,
    ];
    let rows: Vec<Vec<String>> = queries
        .iter()
        .map(|&q| {
            let cov = swans_plan::analyze(&build_plan(q, Scheme::TripleStore, &ctx));
            let simple: Vec<&str> = cov.simple.iter().map(|p| p.name()).collect();
            let joins: Vec<&str> = cov.joins.iter().map(|j| j.name()).collect();
            vec![
                q.name().to_string(),
                simple.join(","),
                if joins.is_empty() {
                    "–".into()
                } else {
                    joins.join(", ")
                },
            ]
        })
        .collect();
    format!(
        "## Table 2 — coverage of the query space\n\n```\n{}```\n\
         Derived from the generated plans; matches the paper exactly\n\
         (q8 adds pattern p6 and join pattern B).\n",
        render_table(&["query", "triple patterns", "join patterns"], &rows)
    )
}

// ----------------------------------------------------------------------
// Table 3
// ----------------------------------------------------------------------

/// Table 3: machine configurations.
pub fn table3() -> String {
    let rows: Vec<Vec<String>> = swans_storage::MachineProfile::ALL
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.num_cpus.to_string(),
                m.cpu.to_string(),
                format!("{} GHz", m.cpu_ghz),
                format!("{} KB", m.cache_kb),
                format!("{} GB", m.ram_gb),
                format!("{} MB/s", m.io_read_mb_s),
                format!("{}x RAID-{}", m.raid_disks, m.raid_level),
                m.os.to_string(),
            ]
        })
        .collect();
    format!(
        "## Table 3 — machine configurations (simulated I/O profiles)\n\n```\n{}```\n",
        render_table(
            &["machine", "CPUs", "CPU", "clock", "cache", "RAM", "I/O read", "RAID", "OS"],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// The C-Store stand-in
// ----------------------------------------------------------------------

/// Loads the C-Store stand-in: column engine, vertically partitioned,
/// restricted to the 28 benchmark properties (footnote 2), effective
/// bandwidth capped machine-independently (C-Store's synchronous small
/// reads are the bottleneck, not the disk — §3). The pool is unbounded:
/// the paper notes the data fits in memory during hot runs.
pub fn load_cstore(
    cfg: &HarnessConfig,
    ds: &Dataset,
    machine: swans_storage::MachineProfile,
) -> (RdfStore, QueryContext) {
    let ctx = QueryContext::from_dataset(ds, 28);
    let restricted = restrict_to_properties(ds, &ctx.interesting);
    let store = RdfStore::load(
        &restricted,
        StoreConfig::column(Layout::VerticallyPartitioned).on_machine(cstore_profile(machine)),
    );
    let rctx = QueryContext::from_dataset(&restricted, 28);
    let _ = cfg;
    (store, rctx)
}

// ----------------------------------------------------------------------
// Table 4
// ----------------------------------------------------------------------

/// Table 4: the repetition experiment on machines A and B.
pub fn table4(cfg: &HarnessConfig, ds: &Dataset) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (mname, machine) in [("A", cfg.machine_a()), ("B", cfg.machine_b())] {
        eprint_progress(&format!("table4: machine {mname} (C-Store stand-in)"));
        let (store, rctx) = load_cstore(cfg, ds, machine);
        let mut cold: Vec<Measurement> = Vec::new();
        let mut hot: Vec<Measurement> = Vec::new();
        for &q in &QueryId::BASE7 {
            cold.push(runner::measure_cold(&store, q, &rctx, cfg.repeats));
            hot.push(runner::measure_hot(&store, q, &rctx, cfg.repeats));
        }
        for (label, series, time) in [
            ("cold real", &cold, runner::real as fn(&Measurement) -> f64),
            ("cold user", &cold, runner::user),
            ("hot real", &hot, runner::real),
            ("hot user", &hot, runner::user),
        ] {
            let times: Vec<f64> = series.iter().map(time).collect();
            let mut row = vec![format!("{mname} {label}")];
            row.extend(times.iter().map(|&t| secs(t)));
            row.push(secs(swans_core::geometric_mean(&times)));
            rows.push(row);
        }
    }
    // Paper reference rows.
    rows.push(vec!["—".into(); 9]);
    for (label, qs, g) in paper::TABLE4 {
        let mut row = vec![format!("paper {label}")];
        row.extend(qs.iter().map(|&t| secs(t)));
        row.push(secs(g));
        rows.push(row);
    }
    format!(
        "## Table 4 — repetition of the C-Store experiment\n\n\
         C-Store stand-in: column engine, vertically partitioned, 28\n\
         properties, effective bandwidth capped machine-independently\n\
         (engine-bound I/O). Absolute numbers are scale-dependent; the\n\
         shapes to check: machine B's 4x disk bandwidth barely improves\n\
         real time, user times are machine-independent, hot user ≈ cold\n\
         user.\n\n```\n{}```\n",
        render_table(
            &["run", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "G"],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// Table 5
// ----------------------------------------------------------------------

/// Table 5: data read from disk and rows returned per query.
pub fn table5(cfg: &HarnessConfig, ds: &Dataset) -> String {
    eprint_progress("table5: C-Store stand-in, cold runs");
    let (store, rctx) = load_cstore(cfg, ds, cfg.machine_b());
    let db_bytes = store.disk_bytes() as f64;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, &q) in QueryId::BASE7.iter().enumerate() {
        let m = runner::measure_cold(&store, q, &rctx, 1);
        let (pq, pmb, prows) = paper::TABLE5[i];
        debug_assert_eq!(pq, q.name());
        rows.push(vec![
            q.name().to_string(),
            format!("{:.1}", m.bytes_read as f64 / 1e6),
            format!("{:.0}%", 100.0 * m.bytes_read as f64 / db_bytes),
            m.rows.to_string(),
            format!("{pmb:.0}"),
            format!("{:.0}%", 100.0 * pmb / 270.0),
            prows.to_string(),
        ]);
    }
    format!(
        "## Table 5 — data relevant to a query (C-Store stand-in)\n\n\
         DB size here: {:.1} MB (paper: ~270 MB for the 28-property load).\n\
         The scale-free comparison is the %-of-DB column.\n\n```\n{}```\n",
        db_bytes / 1e6,
        render_table(
            &[
                "query",
                "MB read",
                "% of DB",
                "rows",
                "paper MB",
                "paper %",
                "paper rows"
            ],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// Figure 5
// ----------------------------------------------------------------------

/// Figure 5: I/O read history for q3 and q5 on machines A and B.
pub fn fig5(cfg: &HarnessConfig, ds: &Dataset) -> String {
    let mut out = String::from("## Figure 5 — I/O read history (C-Store stand-in)\n\n");
    for q in [QueryId::Q3, QueryId::Q5] {
        let _ = writeln!(out, "### Query {q}\n");
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (mname, machine) in [("A", cfg.machine_a()), ("B", cfg.machine_b())] {
            eprint_progress(&format!("fig5: {q} on machine {mname}"));
            let (store, rctx) = load_cstore(cfg, ds, machine);
            store.make_cold();
            store.storage().begin_trace();
            let _ = store.run_query(q, &rctx);
            let trace = store.storage().take_trace();
            // Downsample to ~10 points.
            let step = (trace.len() / 10).max(1);
            for p in trace.iter().step_by(step) {
                rows.push(vec![
                    mname.to_string(),
                    format!("{:.4}", p.at_seconds),
                    format!("{:.2}", p.cumulative_bytes as f64 / 1e6),
                ]);
            }
            if let Some(last) = trace.last() {
                rows.push(vec![
                    format!("{mname} (end)"),
                    format!("{:.4}", last.at_seconds),
                    format!("{:.2}", last.cumulative_bytes as f64 / 1e6),
                ]);
            }
        }
        let _ = writeln!(
            out,
            "```\n{}```",
            render_table(&["machine", "time (s)", "MB read (cum.)"], &rows)
        );
    }
    out.push_str(
        "\nPaper shape: both machines read the same volume at nearly the same\n\
         pace — C-Store's own I/O management, not the disk, is the bottleneck.\n",
    );
    out
}

// ----------------------------------------------------------------------
// Tables 6 & 7
// ----------------------------------------------------------------------

/// The six main store configurations of Tables 6/7.
pub fn matrix_configs(machine: swans_storage::MachineProfile) -> Vec<StoreConfig> {
    StoreConfig::paper_matrix()
        .into_iter()
        .map(|c| c.on_machine(machine))
        .collect()
}

/// Runs the full cold+hot matrix once and renders both tables.
pub fn tables_6_and_7(cfg: &HarnessConfig, ds: &Dataset) -> (String, String) {
    let ctx = QueryContext::from_dataset(ds, 28);
    let mut cold_rows: Vec<ConfigRow> = Vec::new();
    let mut hot_rows: Vec<ConfigRow> = Vec::new();
    for config in matrix_configs(cfg.machine_b()) {
        eprint_progress(&format!("table6/7: loading {}", config.label()));
        let store = RdfStore::load(ds, config);
        eprint_progress("  cold runs...");
        cold_rows.push(run_all_queries(&store, &ctx, true, cfg.repeats));
        eprint_progress("  hot runs...");
        hot_rows.push(run_all_queries(&store, &ctx, false, cfg.repeats));
    }
    // The C-Store stand-in runs the base-7 queries only.
    eprint_progress("table6/7: C-Store stand-in");
    let (cstore, rctx) = load_cstore(cfg, ds, cfg.machine_b());
    let cs_cold: Vec<Measurement> = QueryId::BASE7
        .iter()
        .map(|&q| runner::measure_cold(&cstore, q, &rctx, cfg.repeats))
        .collect();
    let cs_hot: Vec<Measurement> = QueryId::BASE7
        .iter()
        .map(|&q| runner::measure_hot(&cstore, q, &rctx, cfg.repeats))
        .collect();

    (
        render_matrix("Table 6 — cold runs", &cold_rows, &cs_cold, &paper::TABLE6),
        render_matrix("Table 7 — hot runs", &hot_rows, &cs_hot, &paper::TABLE7),
    )
}

fn render_matrix(
    title: &str,
    rows: &[ConfigRow],
    cstore: &[Measurement],
    paper_rows: &[paper::PaperRow; 7],
) -> String {
    let headers = [
        "configuration",
        "q1",
        "q2",
        "q2*",
        "q3",
        "q3*",
        "q4",
        "q4*",
        "q5",
        "q6",
        "q6*",
        "q7",
        "q8",
        "G",
        "G*",
        "G*/G",
    ];
    let mut table: Vec<Vec<String>> = Vec::new();
    for (which, time) in [
        ("real", runner::real as fn(&Measurement) -> f64),
        ("user", runner::user),
    ] {
        for row in rows {
            let mut r = vec![format!("{} [{which}]", row.label)];
            r.extend(row.cells.iter().map(|m| secs(time(m))));
            r.push(secs(row.g(time)));
            r.push(secs(row.g_star(time)));
            r.push(ratio(row.g_ratio(time)));
            table.push(r);
        }
        // C-Store stand-in row: base-7 cells at their paper positions.
        let mut r = vec![format!("C-Store-sim vert/SO [{which}]")];
        let mut by_pos: Vec<String> = vec!["–".to_string(); 12];
        const BASE7_POS: [usize; 7] = [0, 1, 3, 5, 7, 8, 10];
        let times: Vec<f64> = cstore.iter().map(time).collect();
        for (i, &pos) in BASE7_POS.iter().enumerate() {
            by_pos[pos] = secs(times[i]);
        }
        r.extend(by_pos);
        r.push(secs(swans_core::geometric_mean(&times)));
        r.push("–".into());
        r.push("–".into());
        table.push(r);
    }
    table.push(vec!["—".into(); headers.len()]);
    for p in paper_rows {
        let mut r = vec![format!("paper {} [real]", p.label)];
        r.extend(p.real.iter().map(|c| c.map_or("–".to_string(), secs)));
        r.push(secs(p.g));
        r.push(p.g_star.map_or("–".to_string(), secs));
        r.push(p.g_star.map_or("–".to_string(), |gs| ratio(gs / p.g)));
        table.push(r);
    }
    format!("## {title}\n\n```\n{}```\n", render_table(&headers, &table))
}

// ----------------------------------------------------------------------
// Figures 6 & 7
// ----------------------------------------------------------------------

/// Figure 6: execution time vs number of considered properties.
pub fn fig6(cfg: &HarnessConfig, ds: &Dataset) -> String {
    eprint_progress("fig6: property sweep 28 -> 222 (column engine, cold)");
    let steps = [28, 56, 84, 112, 140, 168, 196, 222];
    let series = property_sweep(
        ds,
        &[QueryId::Q2, QueryId::Q3, QueryId::Q4, QueryId::Q6],
        &steps,
        cfg.repeats,
        cfg.machine_b(),
    );
    render_sweep(
        "Figure 6 — query time vs number of properties (28→222)",
        &series,
        "Paper shape: vertically-partitioned times increase with the\n\
         property count; triple-store (PSO) is flat/non-increasing and drops\n\
         at 222 when the restriction join disappears.",
    )
}

/// Figure 7: splitting scalability experiment.
pub fn fig7(cfg: &HarnessConfig, ds: &Dataset) -> String {
    eprint_progress("fig7: splitting sweep 222 -> 1000 (column engine, cold)");
    let targets = [222, 300, 400, 500, 600, 700, 800, 900, 1000];
    let series = splitting_sweep(
        ds,
        &[
            QueryId::Q2Star,
            QueryId::Q3Star,
            QueryId::Q4Star,
            QueryId::Q6Star,
        ],
        &targets,
        cfg.repeats,
        cfg.seed,
        cfg.machine_b(),
    );
    render_sweep(
        "Figure 7 — splitting scalability (222→1000 properties)",
        &series,
        "Paper shape: vertically-partitioned times increase steadily with\n\
         splits; triple-store decreases (smaller intermediate results) and\n\
         overtakes it — the paper's scalability verdict.",
    )
}

/// The hand-checked reproduction verdict appended to the generated report.
pub fn verdict() -> String {
    "## Reproduction verdict\n\n\
     Shapes reproduced (each is also pinned by a regression test in\n\
     `tests/paper_shapes.rs`):\n\n\
     1. **Row store, clustering order**: PSO beats SPO decisively cold\n\
        (paper: q1 5x, most queries 2–3x) — driven by clustered range scans\n\
        vs full scans, visible in both seconds and bytes read.\n\
     2. **Row store, schemes**: with PSO clustering, the triple-store beats\n\
        vertical partitioning on the full-workload geometric mean G* —\n\
        the paper's first \"black swan\" against [Abadi et al. 2007].\n\
     3. **Column store, schemes**: vertical partitioning wins the original\n\
        7-query benchmark (G), but q2*, q3*, q6* and q8 go to the\n\
        triple-store — the paper's black swans, reproduced cold and hot.\n\
     4. **Engines**: the column engine uses several times less CPU than the\n\
        row engine on every configuration (vectorized column-at-a-time vs\n\
        tuple-at-a-time Volcano), the paper's overall conclusion that\n\
        \"column-stores are better suited for RDF data management\".\n\
     5. **G*/G**: extending the workload from 7 to 12 queries penalizes\n\
        vertical partitioning more than the triple-store on both engines\n\
        (paper: 1.9–2.4 vs 1.0–1.6).\n\
     6. **Figure 6**: widening the considered-property list erodes and then\n\
        inverts VP's advantage; the triple-store line is flat and dips at\n\
        222 when the restriction join disappears.\n\
     7. **Figure 7**: splitting properties 222→1000 steadily degrades VP\n\
        (per-table I/O and union overhead grow) while the triple-store is\n\
        flat — the paper's scalability verdict against VP.\n\
     8. **Table 4 / Figure 5**: the C-Store stand-in shows machine B's 4x\n\
        bandwidth producing near-zero improvement (the engine, not the\n\
        disk, is the bottleneck) and hot ≈ user time.\n\n\
     Known deviations:\n\n\
     * The paper's DBX optimizer collapses on the >200-way generated SQL\n\
       (q4* cold 8.5x worse than q4 on VP). Our row engine executes the\n\
       same 222-way plans without an optimizer cliff, so the row-side star\n\
       penalty is directionally right but smaller.\n\
     * MonetDB's cold q4/q4* anomaly (triple-store slower than VP because\n\
       of \"large intermediate results\") is plan-specific to MonetDB's\n\
       optimizer and is not reproduced; our q4 behaves like q3.\n\
     * The C-Store stand-in's user time is a smaller fraction of its real\n\
       time than in the paper: our column engine is a faster CPU path than\n\
       2008 C-Store, while its capped I/O is modeled at the paper's\n\
       effective rate.\n\
     * Hot row-store runs show SPO occasionally beating PSO on individual\n\
       queries — the paper's own Table 7 shows the same mix (e.g. q3:\n\
       34.86s SPO vs 45.65s PSO); PSO still wins the geometric means.\n"
        .to_string()
}

fn render_sweep(title: &str, series: &[SweepSeries], note: &str) -> String {
    let mut out = format!("## {title}\n\n");
    for s in series {
        let rows: Vec<Vec<String>> = s
            .points
            .iter()
            .map(|p| {
                vec![
                    p.n_properties.to_string(),
                    secs(p.triple.real_seconds),
                    secs(p.vertical.real_seconds),
                    ratio(p.vertical.real_seconds / p.triple.real_seconds.max(1e-9)),
                ]
            })
            .collect();
        let _ = writeln!(
            out,
            "### Query {}\n\n```\n{}```",
            s.query,
            render_table(
                &["#properties", "triple (s)", "vert (s)", "vert/triple"],
                &rows
            )
        );
    }
    out.push_str(note);
    out.push('\n');
    out
}
