//! Parallel-execution determinism: every benchmark query on every
//! engine × layout configuration produces identical (order-normalized)
//! results at pool widths 1, 2 and 8 — on a clean store *and* with a
//! non-empty write store pending (inserts and tombstones buffered, no
//! merge). The column engine's parallel barriers merge in morsel order,
//! so its results are in fact bit-identical across widths; this suite
//! additionally pins that stronger property directly on the engine,
//! together with the scratch-reuse accounting (morsels per partitioned
//! batch ≫ 1).

use swans_core::{normalize_result, Database, StoreConfig};
use swans_plan::queries::{vocab, QueryContext, QueryId};
use swans_rdf::Dataset;

/// Pool widths under test.
const WIDTHS: [usize; 3] = [1, 2, 8];

/// Quick mode (`SWANS_PAR_QUICK=1`): a ~5× smaller data set, same widths
/// and states. CI's sanitizer job runs this suite under ThreadSanitizer,
/// where every memory access is instrumented — full scale would blow the
/// job's time box without exercising any additional synchronization.
fn quick() -> bool {
    std::env::var_os("SWANS_PAR_QUICK").is_some_and(|v| v == "1")
}

fn dataset() -> Dataset {
    swans_datagen::generate(&swans_datagen::BartonConfig {
        // Full scale is ~75k triples: hot columns span many morsels.
        scale: if quick() { 0.0003 } else { 0.0015 },
        seed: 52,
        n_properties: 40,
    })
}

type TermTriples = Vec<(String, String, String)>;

/// A mutation batch that leaves the write store non-empty in every
/// interesting way: tombstones on existing triples, pending inserts on
/// query-relevant properties, and a brand-new property with no load-time
/// table.
fn mutation_batch(ds: &Dataset) -> (TermTriples, TermTriples) {
    let decode = |i: usize| {
        let t = ds.triples[i];
        (
            ds.dict.term(t.s).to_string(),
            ds.dict.term(t.p).to_string(),
            ds.dict.term(t.o).to_string(),
        )
    };
    let dels: TermTriples = (0..ds.len()).step_by(131).map(decode).collect();
    let ins: TermTriples = (0..60)
        .flat_map(|i| {
            let s = format!("<par-s{i}>");
            [
                (s.clone(), vocab::TYPE.to_string(), vocab::TEXT.to_string()),
                (
                    s.clone(),
                    vocab::LANGUAGE.to_string(),
                    vocab::FRENCH.to_string(),
                ),
                (s, "<par-prop>".to_string(), "\"p\"".to_string()),
            ]
        })
        .collect();
    (dels, ins)
}

fn run_all(db: &Database, ctx: &QueryContext) -> Vec<Vec<Vec<u64>>> {
    QueryId::ALL
        .iter()
        .map(|&q| normalize_result(q, db.run_benchmark(q, ctx).rows))
        .collect()
}

/// The acceptance criterion: 12 queries × 6 configurations × widths
/// {1, 2, 8}, identical order-normalized answers — clean, with a pending
/// (unmerged) write store, and after the merge.
#[test]
fn all_queries_agree_on_every_config_at_every_width() {
    let ds = dataset();
    let (dels, ins) = mutation_batch(&ds);

    // One database per (configuration, width).
    let mut dbs: Vec<(String, Database)> = Vec::new();
    for config in StoreConfig::paper_matrix() {
        for &w in &WIDTHS {
            let c = config.clone().with_threads(w);
            let label = format!("{} @{w}T", c.label());
            dbs.push((label.clone(), Database::open(ds.clone(), c).expect(&label)));
        }
    }

    // Clean store: everything agrees.
    let ctx = QueryContext::from_dataset(&ds, 28);
    let reference = run_all(&dbs[0].1, &ctx);
    for (label, db) in &dbs[1..] {
        assert_eq!(run_all(db, &ctx), reference, "clean: {label} disagrees");
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
        assert!(db.pending_delta() > 0 || !label.contains("column"));
    }
    let ctx = QueryContext::from_dataset(&dbs[0].1.dataset(), 28);
    let pending_reference = run_all(&dbs[0].1, &ctx);
    assert_ne!(
        pending_reference, reference,
        "the mutation batch must change some answer, or the pending leg is vacuous"
    );
    for (label, db) in &dbs[1..] {
        assert_eq!(
            run_all(db, &ctx),
            pending_reference,
            "pending delta: {label} disagrees"
        );
    }

    // And after the merge.
    for (label, db) in &mut dbs {
        db.merge().expect("merges");
        assert_eq!(db.pending_delta(), 0, "{label}");
        assert_eq!(
            run_all(db, &ctx),
            pending_reference,
            "post-merge: {label} disagrees"
        );
    }
}

/// The stronger engine-level property behind the suite: the column
/// engine's output is *bit-identical* (same rows, same order) at every
/// pool width, partitioning genuinely happens, and partitioned batches
/// span many morsels each — the scratch-reuse accounting (per-batch hash
/// maps and join tables, never per-morsel) visible through the
/// `ExecStats` counters.
#[test]
fn column_engine_is_bit_identical_and_batches_morsels() {
    use swans_colstore::ColumnEngine;
    use swans_plan::queries::{build_plan, Scheme};
    use swans_storage::{MachineProfile, StorageManager};

    let ds = dataset();
    let ctx = QueryContext::from_dataset(&ds, 28);
    let m = StorageManager::new(MachineProfile::B);

    let mut reference: Vec<Vec<Vec<u64>>> = Vec::new();
    for (wi, &w) in WIDTHS.iter().enumerate() {
        let mut e = ColumnEngine::new();
        e.set_threads(w);
        e.load_vertical(&m, &ds.triples, true);
        e.load_triple_store(&m, &ds.triples, swans_rdf::SortOrder::Spo, true);
        for (qi, q) in QueryId::ALL.iter().enumerate() {
            for scheme in [Scheme::TripleStore, Scheme::VerticallyPartitioned] {
                let plan = build_plan(*q, scheme, &ctx);
                let rows = e.execute(&plan).expect("query runs").to_rows();
                if wi == 0 {
                    reference.push(rows);
                } else {
                    let idx = qi * 2 + usize::from(scheme == Scheme::VerticallyPartitioned);
                    assert_eq!(
                        rows,
                        reference[idx],
                        "{q}/{}: row stream differs at {w} threads",
                        scheme.name()
                    );
                }
            }
        }
        let stats = e.exec_stats();
        assert!(
            stats.parallel_tasks > 0,
            "width {w}: nothing partitioned — the suite would be vacuous: {stats:?}"
        );
        assert!(
            stats.morsels >= 4 * stats.parallel_tasks,
            "width {w}: batches should span several morsels (scratch is \
             per batch worker, not per morsel): {stats:?}"
        );
    }
}
