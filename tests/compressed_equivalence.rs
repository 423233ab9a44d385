//! Compressed-execution correctness: every benchmark query on every
//! engine × layout configuration — the column ones executing run-encoded
//! — produces the reference executor's (order-normalized) answers at pool
//! widths 1, 2 and 8, on a clean store, with a non-empty write store
//! pending, and after the merge. A second test runs the column engine
//! directly on run-shaped data and pins the dispatch accounting: run
//! scans and run kernels genuinely fire on the compressed layouts, and
//! compressed bytes undercut logical bytes.

use swans_colstore::ColumnEngine;
use swans_core::{normalize_result, Database, StoreConfig};
use swans_plan::naive;
use swans_plan::queries::{build_plan, vocab, QueryContext, QueryId, Scheme};
use swans_rdf::{Dataset, Triple};

/// Pool widths under test.
const WIDTHS: [usize; 3] = [1, 2, 8];

fn dataset() -> Dataset {
    swans_datagen::generate(&swans_datagen::BartonConfig {
        // ~50k triples: enough rows for real run shapes, few enough for the
        // reference executor's nested-loop joins.
        scale: 0.001,
        seed: 53,
        n_properties: 40,
    })
}

type TermTriples = Vec<(String, String, String)>;

/// A mutation batch leaving the write store non-empty in every
/// interesting way (mirrors `parallel_equivalence`): tombstones on
/// existing triples, pending inserts on query-relevant properties, and a
/// brand-new property with no load-time table.
fn mutation_batch(ds: &Dataset) -> (TermTriples, TermTriples) {
    let decode = |i: usize| {
        let t = ds.triples[i];
        (
            ds.dict.term(t.s).to_string(),
            ds.dict.term(t.p).to_string(),
            ds.dict.term(t.o).to_string(),
        )
    };
    let dels: TermTriples = (0..ds.len()).step_by(137).map(decode).collect();
    let ins: TermTriples = (0..60)
        .flat_map(|i| {
            let s = format!("<cmp-s{i}>");
            [
                (s.clone(), vocab::TYPE.to_string(), vocab::TEXT.to_string()),
                (
                    s.clone(),
                    vocab::LANGUAGE.to_string(),
                    vocab::FRENCH.to_string(),
                ),
                (s, "<cmp-prop>".to_string(), "\"p\"".to_string()),
            ]
        })
        .collect();
    (dels, ins)
}

/// One database per (configuration, width).
fn open_all(ds: &Dataset) -> Vec<(String, Database)> {
    let mut dbs = Vec::new();
    for config in StoreConfig::paper_matrix() {
        for &w in &WIDTHS {
            let c = config.clone().with_threads(w);
            let label = format!("{} @{w}T", c.label());
            let db = Database::open(ds.clone(), c).expect(&label);
            dbs.push((label, db));
        }
    }
    dbs
}

fn run_all(db: &Database, ctx: &QueryContext) -> Vec<Vec<Vec<u64>>> {
    QueryId::ALL
        .iter()
        .map(|&q| normalize_result(q, db.run_benchmark(q, ctx).rows))
        .collect()
}

/// The reference executor's answers over `triples`, layout-free.
fn reference(triples: &[Triple], ctx: &QueryContext) -> Vec<Vec<Vec<u64>>> {
    QueryId::ALL
        .iter()
        .map(|&q| {
            let plan = build_plan(q, Scheme::TripleStore, ctx);
            normalize_result(q, naive::execute(&plan, triples))
        })
        .collect()
}

/// The acceptance criterion: 12 queries × 6 configurations × widths
/// {1, 2, 8} answer like the reference executor — clean, with a pending
/// (unmerged) write store, and after the merge.
#[test]
fn all_queries_agree_with_run_kernels_on_and_off() {
    let ds = dataset();
    let (dels, ins) = mutation_batch(&ds);
    let mut dbs = open_all(&ds);

    // Clean store.
    let ctx = QueryContext::from_dataset(&ds, 28);
    let clean = reference(&ds.triples, &ctx);
    for (label, db) in &dbs {
        assert_eq!(run_all(db, &ctx), clean, "clean: {label} disagrees");
    }

    // Non-empty write store pending: deletes then inserts, no merge.
    for (label, db) in &mut dbs {
        let deleted = db
            .delete(
                dels.iter()
                    .map(|(s, p, o)| (s.as_str(), p.as_str(), o.as_str())),
            )
            .expect("deletes");
        assert!(deleted > 0, "{label}: workload must delete something");
        db.insert(
            ins.iter()
                .map(|(s, p, o)| (s.as_str(), p.as_str(), o.as_str())),
        )
        .expect("inserts");
    }
    let mutated = dbs[0].1.dataset();
    let ctx = QueryContext::from_dataset(&mutated, 28);
    let pending = reference(&mutated.triples, &ctx);
    assert_ne!(
        pending, clean,
        "the mutation batch must change some answer, or the pending leg is vacuous"
    );
    for (label, db) in &dbs {
        assert_eq!(
            run_all(db, &ctx),
            pending,
            "pending delta: {label} disagrees"
        );
    }

    // And after the merge.
    for (label, db) in &mut dbs {
        db.merge().expect("merges");
        assert_eq!(db.pending_delta(), 0, "{label}");
        assert_eq!(run_all(db, &ctx), pending, "post-merge: {label} disagrees");
    }
}

/// The engine-level property on run-shaped data: every column layout at
/// every width answers like the reference executor, and the dispatch
/// counters prove the run layer really is what answered — run scans and
/// run kernels fire, and the compressed bytes the run scans charge
/// undercut the logical bytes they replace.
///
/// Barton properties are mostly single-valued (one object per subject
/// and property), so vertically-partitioned *subject* columns do not
/// compress on the standard data set — faithful to the real Barton data,
/// where only a handful of properties (like `<type>`) are multi-valued.
/// This test therefore runs on a multi-valued derivative (every
/// statement carries five extra objects), the workload shape the
/// compressed VP layout is built for; the triple-store lead columns
/// compress either way.
#[test]
fn column_engine_run_path_is_bit_identical_to_flat_path() {
    use swans_rdf::SortOrder;
    use swans_storage::{MachineProfile, StorageManager};

    let base = swans_datagen::generate(&swans_datagen::BartonConfig {
        scale: 0.0003,
        seed: 53,
        n_properties: 40,
    });
    let ctx = QueryContext::from_dataset(&base, 28);
    // Multi-valued derivative: ids are opaque to the engine, so the extra
    // objects can live outside the dictionary. Five extra objects per
    // statement put the subject runs comfortably past the engine's
    // run-emission threshold.
    let mut triples: Vec<Triple> = Vec::with_capacity(base.triples.len() * 6);
    for t in &base.triples {
        triples.push(*t);
        for k in 1..6u64 {
            triples.push(Triple::new(t.s, t.p, t.o.wrapping_add(k * 1_000_003)));
        }
    }
    let want = reference(&triples, &ctx);
    let m = StorageManager::new(MachineProfile::B);

    for (layout_name, order, scheme) in [
        ("triple/SPO", Some(SortOrder::Spo), Scheme::TripleStore),
        ("triple/PSO", Some(SortOrder::Pso), Scheme::TripleStore),
        ("vert/SO", None, Scheme::VerticallyPartitioned),
    ] {
        for &w in &WIDTHS {
            let mut run = ColumnEngine::new();
            run.set_threads(w);
            match order {
                Some(o) => run.load_triple_store(&m, &triples, o, true),
                None => run.load_vertical(&m, &triples, true),
            }
            for (q, want) in QueryId::ALL.into_iter().zip(&want) {
                let plan = build_plan(q, scheme, &ctx);
                let got = run.execute(&plan).expect("run path").to_rows();
                assert_eq!(
                    &normalize_result(q, got),
                    want,
                    "{q}/{layout_name}@{w}T: run path disagrees with the reference"
                );
            }
            let rs = run.exec_stats();
            assert!(
                rs.run_scans > 0 && rs.run_kernel_dispatches > 0,
                "{layout_name}@{w}T: the run layer must actually fire: {rs:?}"
            );
            assert!(
                rs.scan_bytes_compressed < rs.scan_bytes_logical,
                "{layout_name}@{w}T: {rs:?}"
            );
        }
    }
}
