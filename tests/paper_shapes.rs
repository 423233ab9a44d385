//! The paper's qualitative findings as executable assertions — each test
//! pins one "shape" the reproduction must exhibit. These are the
//! regression harness for the conclusions the `all_experiments` report
//! (`swans-bench`) prints.
//!
//! Timing shapes only hold for optimized code (a debug build distorts the
//! engines' relative CPU costs), so every test here is ignored under
//! `debug_assertions` — run `cargo test --release` to exercise them.

use swans_core::runner::{geometric_mean, measure_cold, measure_hot, real, run_all_queries};
use swans_core::{Layout, RdfStore, StoreConfig};
use swans_datagen::{generate, BartonConfig};
use swans_plan::queries::{QueryContext, QueryId};
use swans_rdf::{Dataset, SortOrder};
use swans_storage::MachineProfile;

fn dataset() -> Dataset {
    generate(&BartonConfig {
        scale: 0.002, // ~100k triples
        seed: 42,
        n_properties: 222,
    })
}

fn machine() -> MachineProfile {
    swans_core::scaled_profile(MachineProfile::B, 0.002)
}

/// §4.3: "the order of clustering is paramount to the triple-store
/// implementation ... our choice to cluster on PSO achieves a significant
/// improvement" — q1 improves by a factor of 5 in the paper.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing-shape test: run with --release")]
fn row_store_pso_beats_spo_cold() {
    let ds = dataset();
    let ctx = QueryContext::from_dataset(&ds, 28);
    let spo = RdfStore::load(
        &ds,
        StoreConfig::row(Layout::TripleStore(SortOrder::Spo)).on_machine(machine()),
    );
    let pso = RdfStore::load(
        &ds,
        StoreConfig::row(Layout::TripleStore(SortOrder::Pso)).on_machine(machine()),
    );
    let q1_spo = measure_cold(&spo, QueryId::Q1, &ctx, 1);
    let q1_pso = measure_cold(&pso, QueryId::Q1, &ctx, 1);
    assert!(
        q1_pso.real_seconds * 2.0 < q1_spo.real_seconds,
        "q1: PSO {:.4}s should be well under half of SPO {:.4}s",
        q1_pso.real_seconds,
        q1_spo.real_seconds
    );
    // And PSO reads far fewer bytes (clustered range scan vs full scan).
    assert!(q1_pso.bytes_read * 2 < q1_spo.bytes_read);
}

/// §4.3 and §5: "once the proper clustered indices are used, the
/// triple-store performs better than the vertically-partitioned approach"
/// on the row store — by geometric mean over all 12 queries.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing-shape test: run with --release")]
fn row_store_triple_pso_beats_vp_on_g_star() {
    let ds = dataset();
    let ctx = QueryContext::from_dataset(&ds, 28);
    let pso = RdfStore::load(
        &ds,
        StoreConfig::row(Layout::TripleStore(SortOrder::Pso)).on_machine(machine()),
    );
    let vp = RdfStore::load(
        &ds,
        StoreConfig::row(Layout::VerticallyPartitioned).on_machine(machine()),
    );
    let pso_row = run_all_queries(&pso, &ctx, true, 1);
    let vp_row = run_all_queries(&vp, &ctx, true, 1);
    assert!(
        pso_row.g_star(real) < vp_row.g_star(real),
        "row store G*: triple/PSO {:.4} must beat vert {:.4}",
        pso_row.g_star(real),
        vp_row.g_star(real)
    );
}

/// §4.3: "for the given benchmark, the vertically-partitioned approach
/// outperforms triple-store when both are implemented in a column-store"
/// — on the original seven queries (geometric mean G).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing-shape test: run with --release")]
fn column_store_vp_wins_the_original_benchmark() {
    let ds = dataset();
    let ctx = QueryContext::from_dataset(&ds, 28);
    let pso = RdfStore::load(
        &ds,
        StoreConfig::column(Layout::TripleStore(SortOrder::Pso)).on_machine(machine()),
    );
    let vp = RdfStore::load(
        &ds,
        StoreConfig::column(Layout::VerticallyPartitioned).on_machine(machine()),
    );
    let g_pso: Vec<f64> = QueryId::BASE7
        .iter()
        .map(|&q| measure_cold(&pso, q, &ctx, 1).real_seconds)
        .collect();
    let g_vp: Vec<f64> = QueryId::BASE7
        .iter()
        .map(|&q| measure_cold(&vp, q, &ctx, 1).real_seconds)
        .collect();
    assert!(
        geometric_mean(&g_vp) < geometric_mean(&g_pso),
        "column store G: vert {:.4} must beat triple/PSO {:.4}",
        geometric_mean(&g_vp),
        geometric_mean(&g_pso)
    );
}

/// §4.3: the black swans — "queries q2*, q3*, q6* and q8: for these
/// queries, triple-store ... exhibits better times" on the column store.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing-shape test: run with --release")]
fn column_store_black_swans_favor_triple_store() {
    let ds = dataset();
    let ctx = QueryContext::from_dataset(&ds, 28);
    let pso = RdfStore::load(
        &ds,
        StoreConfig::column(Layout::TripleStore(SortOrder::Pso)).on_machine(machine()),
    );
    let vp = RdfStore::load(
        &ds,
        StoreConfig::column(Layout::VerticallyPartitioned).on_machine(machine()),
    );
    for q in [
        QueryId::Q2Star,
        QueryId::Q3Star,
        QueryId::Q6Star,
        QueryId::Q8,
    ] {
        let t = measure_cold(&pso, q, &ctx, 1);
        let v = measure_cold(&vp, q, &ctx, 1);
        assert!(
            t.real_seconds < v.real_seconds,
            "{q}: triple/PSO {:.4}s must beat vert {:.4}s cold",
            t.real_seconds,
            v.real_seconds
        );
    }
}

/// §5: "the processing efficiency of column-stores is particularly suited
/// for RDF" — the column engine uses several times less CPU than the row
/// engine for the same layout and queries.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing-shape test: run with --release")]
fn column_engine_uses_less_cpu_than_row_engine() {
    let ds = dataset();
    let ctx = QueryContext::from_dataset(&ds, 28);
    let row = RdfStore::load(
        &ds,
        StoreConfig::row(Layout::TripleStore(SortOrder::Pso)).on_machine(machine()),
    );
    let col = RdfStore::load(
        &ds,
        StoreConfig::column(Layout::TripleStore(SortOrder::Pso)).on_machine(machine()),
    );
    let mut row_total = 0.0;
    let mut col_total = 0.0;
    for q in [QueryId::Q2, QueryId::Q3, QueryId::Q6] {
        row_total += measure_hot(&row, q, &ctx, 2).user_seconds;
        col_total += measure_hot(&col, q, &ctx, 2).user_seconds;
    }
    assert!(
        col_total * 2.0 < row_total,
        "column CPU {:.4}s should be well under half of row CPU {:.4}s",
        col_total,
        row_total
    );
}

/// §4.3: the G*/G ratio — moving from the restricted 7-query set to the
/// full 12-query set hurts the vertically-partitioned layout more than the
/// triple-store, on both engines.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing-shape test: run with --release")]
fn g_ratio_penalizes_vertical_partitioning() {
    let ds = dataset();
    let ctx = QueryContext::from_dataset(&ds, 28);
    for make in [
        StoreConfig::row as fn(Layout) -> StoreConfig,
        StoreConfig::column,
    ] {
        let pso = RdfStore::load(
            &ds,
            make(Layout::TripleStore(SortOrder::Pso)).on_machine(machine()),
        );
        let vp = RdfStore::load(
            &ds,
            make(Layout::VerticallyPartitioned).on_machine(machine()),
        );
        let pso_row = run_all_queries(&pso, &ctx, true, 1);
        let vp_row = run_all_queries(&vp, &ctx, true, 1);
        assert!(
            vp_row.g_ratio(real) > pso_row.g_ratio(real),
            "{}: VP G*/G {:.2} must exceed triple G*/G {:.2}",
            pso.config().engine.name(),
            vp_row.g_ratio(real),
            pso_row.g_ratio(real)
        );
    }
}

/// §4.4 / Figure 7: splitting properties makes the vertically-partitioned
/// approach steadily slower while the triple-store does not degrade —
/// the scalability verdict.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing-shape test: run with --release")]
fn splitting_degrades_vp_not_triple_store() {
    let ds = generate(&BartonConfig {
        scale: 0.001,
        seed: 42,
        n_properties: 222,
    });
    let series = swans_core::sweep::splitting_sweep(
        &ds,
        &[QueryId::Q2Star],
        &[222, 1000],
        1,
        42,
        swans_core::scaled_profile(MachineProfile::B, 0.001),
    );
    let pts = &series[0].points;
    let vp_growth = pts[1].vertical.real_seconds / pts[0].vertical.real_seconds;
    let triple_growth = pts[1].triple.real_seconds / pts[0].triple.real_seconds;
    assert!(
        vp_growth > 1.3,
        "VP should degrade with splits (got {vp_growth:.2}x)"
    );
    assert!(
        triple_growth < vp_growth,
        "triple-store ({triple_growth:.2}x) must degrade less than VP ({vp_growth:.2}x)"
    );
}

/// Figure 6: at 28 properties the vertically-partitioned layout wins q2
/// cold on the column store; widening the considered-property list erodes
/// its advantage.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing-shape test: run with --release")]
fn property_sweep_erodes_vp_advantage() {
    let ds = dataset();
    let series = swans_core::sweep::property_sweep(&ds, &[QueryId::Q2], &[28, 222], 1, machine());
    let pts = &series[0].points;
    let ratio_28 = pts[0].vertical.real_seconds / pts[0].triple.real_seconds;
    let ratio_222 = pts[1].vertical.real_seconds / pts[1].triple.real_seconds;
    assert!(
        ratio_28 < 1.0,
        "VP must win q2 at 28 properties ({ratio_28:.2})"
    );
    assert!(
        ratio_222 > ratio_28,
        "VP's relative cost must grow with the property count"
    );
}
