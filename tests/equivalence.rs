//! Cross-crate integration: every (engine × layout) configuration returns
//! exactly the same answers as the naive reference executor, for every
//! benchmark query, on generated data — including data sets transformed by
//! the §4.4 property splitting.

use swans_core::{normalize_result, EngineKind, RdfStore, StoreConfig};
use swans_datagen::{generate, split_properties, BartonConfig};
use swans_plan::naive;
use swans_plan::queries::{build_plan, QueryContext, QueryId, Scheme};
use swans_rdf::Dataset;

/// Checks every configuration against the reference on all twelve
/// queries and hands the (now exercised) stores back.
fn check_all(ds: &Dataset, n_interesting: usize) -> Vec<RdfStore> {
    let ctx = QueryContext::from_dataset(ds, n_interesting);
    let stores: Vec<RdfStore> = StoreConfig::paper_matrix()
        .into_iter()
        .map(|c| RdfStore::load(ds, c))
        .collect();
    for q in QueryId::ALL {
        let reference = normalize_result(
            q,
            naive::execute(&build_plan(q, Scheme::TripleStore, &ctx), &ds.triples),
        );
        for store in &stores {
            let got = normalize_result(q, store.run_query(q, &ctx).rows);
            assert_eq!(
                got,
                reference,
                "{} disagrees with the reference on {q}",
                store.config().label()
            );
        }
    }
    stores
}

#[test]
fn all_configurations_match_reference_on_generated_data() {
    let ds = generate(&BartonConfig {
        scale: 0.0008, // ~40k triples
        seed: 1234,
        n_properties: 120,
    });
    check_all(&ds, 28);
}

#[test]
fn equivalence_survives_property_splitting() {
    let base = generate(&BartonConfig {
        scale: 0.0004,
        seed: 77,
        n_properties: 60,
    });
    let split = split_properties(&base, 200, 9);
    assert_eq!(split.distinct_properties().len(), 200);
    check_all(&split, 28);
}

#[test]
fn equivalence_with_tiny_interesting_set() {
    let ds = generate(&BartonConfig {
        scale: 0.0004,
        seed: 3,
        n_properties: 40,
    });
    // A pathological restriction list (only the forced six properties).
    check_all(&ds, 6);
}

#[test]
fn equivalence_when_everything_is_interesting() {
    let ds = generate(&BartonConfig {
        scale: 0.0004,
        seed: 4,
        n_properties: 30,
    });
    // Restriction list == all properties: q2 ≈ q2* etc.
    check_all(&ds, 30);
}

/// The sortedness-aware column-engine paths (merge joins, leapfrog
/// stars, run-based aggregation, linear distinct, binary-search
/// selection) genuinely fire on every column layout — read off the
/// engine's dispatch counters — while answering all twelve benchmark
/// queries exactly like the reference executor, whose nested-loop joins
/// and hash aggregation know nothing about order.
#[test]
fn sorted_paths_match_hash_paths_on_all_column_layouts() {
    let ds = generate(&BartonConfig {
        scale: 0.0006, // ~30k triples
        seed: 55,
        n_properties: 80,
    });
    for store in check_all(&ds, 28) {
        if store.config().engine != EngineKind::Column {
            continue;
        }
        let counters = store.engine().stat_counters();
        let count = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, v)| v)
        };
        assert!(
            count("merge_joins") + count("leapfrog_dispatches") > 0,
            "{}: no order-exploiting join dispatched: {counters:?}",
            store.config().label()
        );
    }
}
