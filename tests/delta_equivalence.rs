//! Write-path equivalence: an insert/delete workload interleaved with the
//! full benchmark query set must answer identically on every engine ×
//! layout configuration — while the delta is buffered, after an explicit
//! merge, and compared against a fresh bulk load of the same final data
//! set (the ground truth the write path must be indistinguishable from).

use swans_core::{normalize_result, Database, StoreConfig};
use swans_plan::queries::{vocab, QueryContext, QueryId};
use swans_rdf::Dataset;

fn dataset() -> Dataset {
    swans_datagen::generate(&swans_datagen::BartonConfig {
        scale: 0.0003, // ~15k triples
        seed: 37,
        n_properties: 40,
    })
}

type TermTriples = Vec<(String, String, String)>;

/// Two batches of mutations, derived from the data set so they hit the
/// benchmark queries' own properties: batch 1 deletes a slice of existing
/// triples and adds subjects with query-relevant properties, batch 2
/// deletes some of batch 1's inserts again and brings in a brand-new
/// property.
fn batches(ds: &Dataset) -> [(TermTriples, TermTriples); 2] {
    let decode = |i: usize| {
        let t = ds.triples[i];
        (
            ds.dict.term(t.s).to_string(),
            ds.dict.term(t.p).to_string(),
            ds.dict.term(t.o).to_string(),
        )
    };
    // Every 97th triple dies in batch 1.
    let dels1: TermTriples = (0..ds.len()).step_by(97).map(decode).collect();
    let ins1: TermTriples = (0..40)
        .flat_map(|i| {
            let s = format!("<upd-s{i}>");
            [
                (s.clone(), vocab::TYPE.to_string(), vocab::TEXT.to_string()),
                (
                    s.clone(),
                    vocab::LANGUAGE.to_string(),
                    vocab::FRENCH.to_string(),
                ),
                (s, vocab::ORIGIN.to_string(), vocab::DLC.to_string()),
            ]
        })
        .collect();
    // Batch 2 re-deletes half of batch 1's inserts and opens a new
    // property no load-time table exists for.
    let dels2: TermTriples = (0..40)
        .step_by(2)
        .map(|i| {
            (
                format!("<upd-s{i}>"),
                vocab::LANGUAGE.to_string(),
                vocab::FRENCH.to_string(),
            )
        })
        .collect();
    let ins2: TermTriples = (0..25)
        .map(|i| {
            (
                format!("<upd-s{i}>"),
                "<updated-by>".to_string(),
                "\"writer\"".to_string(),
            )
        })
        .collect();
    [(dels1, ins1), (dels2, ins2)]
}

fn run_all(db: &Database, ctx: &QueryContext) -> Vec<Vec<Vec<u64>>> {
    QueryId::ALL
        .iter()
        .map(|&q| normalize_result(q, db.run_benchmark(q, ctx).rows))
        .collect()
}

/// The acceptance criterion of the write path: all 12 queries, all 6
/// configurations, identical answers at every interleaving point, and a
/// fresh bulk load of the final data set cannot be told apart — before or
/// after `merge()`.
#[test]
fn interleaved_mutations_match_fresh_bulk_load_on_all_configs() {
    let ds = dataset();
    let batches = batches(&ds);

    let mut dbs: Vec<Database> = StoreConfig::paper_matrix()
        .into_iter()
        .map(|c| Database::open(ds.clone(), c).expect("opens"))
        .collect();

    for (stage, (dels, ins)) in batches.iter().enumerate() {
        for db in &mut dbs {
            let deleted = db
                .delete(
                    dels.iter()
                        .map(|(s, p, o)| (s.as_str(), p.as_str(), o.as_str())),
                )
                .expect("deletes");
            assert!(deleted > 0, "stage {stage}: workload must delete something");
            db.insert(
                ins.iter()
                    .map(|(s, p, o)| (s.as_str(), p.as_str(), o.as_str())),
            )
            .expect("inserts");
        }
        // All twelve queries agree across all six configurations at this
        // interleaving point (the column configs are still unmerged).
        let ctx = QueryContext::from_dataset(&dbs[0].dataset(), 28);
        let reference = run_all(&dbs[0], &ctx);
        for db in &dbs[1..] {
            assert_eq!(
                run_all(db, &ctx),
                reference,
                "stage {stage}: {} disagrees",
                db.config().label()
            );
        }
    }

    // Final state: compare pre-merge, post-merge, and a fresh bulk load.
    let final_ds = dbs[0].dataset();
    let ctx = QueryContext::from_dataset(&final_ds, 28);
    for db in &mut dbs {
        let label = db.config().label();
        let pre_merge = run_all(db, &ctx);
        db.merge().expect("merges");
        assert_eq!(db.pending_delta(), 0, "{label}");
        let post_merge = run_all(db, &ctx);
        assert_eq!(pre_merge, post_merge, "{label}: merge changed answers");
        let fresh = Database::open(final_ds.clone(), db.config().clone()).expect("fresh load");
        assert_eq!(
            run_all(&fresh, &ctx),
            post_merge,
            "{label}: fresh bulk load of the final data set disagrees"
        );
    }
}

/// Merging restores sorted-path dispatch on the column engine: while the
/// delta is pending every scan unions the write store and no merge join
/// runs; after `merge()` the rebuilt sorted tables dispatch merge joins
/// again and the union path goes quiet.
#[test]
fn merge_restores_sorted_dispatch() {
    use swans_colstore::ColumnEngine;
    use swans_plan::queries::{build_plan, Scheme};
    use swans_storage::{MachineProfile, StorageManager};

    let mut ds = dataset();
    let m = StorageManager::new(MachineProfile::B);
    let mut e = ColumnEngine::new();
    e.load_vertical(&m, &ds.triples, true);

    // Apply a delta: new subjects carrying the q5 join properties.
    let mut delta = swans_rdf::Delta::new();
    for i in 0..50 {
        let s = format!("<delta-s{i}>");
        delta.insert(ds.encode(&s, vocab::TYPE, vocab::TEXT));
        delta.insert(ds.encode(&s, vocab::ORIGIN, vocab::DLC));
    }
    e.apply(&m, &delta).expect("applies");
    ds.apply(&delta);

    let ctx = QueryContext::from_dataset(&ds, 28);
    let q5 = build_plan(QueryId::Q5, Scheme::VerticallyPartitioned, &ctx);

    e.reset_exec_stats();
    let pending = e.execute(&q5).expect("executes").to_rows();
    let dirty = e.exec_stats();
    assert!(dirty.delta_union_scans > 0, "scans must union: {dirty:?}");
    assert_eq!(dirty.merge_joins, 0, "no order to exploit: {dirty:?}");

    e.merge(&m).expect("merges");
    e.reset_exec_stats();
    let merged = e.execute(&q5).expect("executes").to_rows();
    let clean = e.exec_stats();
    assert_eq!(
        clean.delta_union_scans, 0,
        "write store is empty: {clean:?}"
    );
    assert!(clean.merge_joins > 0, "sorted dispatch restored: {clean:?}");

    assert_eq!(
        normalize_result(QueryId::Q5, pending),
        normalize_result(QueryId::Q5, merged),
        "merge changed q5 answers"
    );
}
