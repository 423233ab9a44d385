//! Acceptance suite for the static plan verifier: every benchmark plan,
//! on every engine × layout configuration, in every write-store state
//! (clean, pending delta, post-merge), passes `swans_plan::verify` under
//! the physical context the live store reports — including the
//! join-reordered form the column engine actually dispatches. Executing
//! the plans in this (debug) build additionally routes each one through
//! the engine's own pre-execution verify and the shadow validator.

use swans_core::{Database, StoreConfig};
use swans_plan::queries::{vocab, QueryContext, QueryId};
use swans_plan::verify::verify;
use swans_plan::{build_plan, optimize_cbo, optimize_for, reorder_joins};
use swans_rdf::Dataset;

fn dataset() -> Dataset {
    swans_datagen::generate(&swans_datagen::BartonConfig {
        scale: 0.0004,
        seed: 31,
        n_properties: 32,
    })
}

/// Verifies (and executes) all twelve benchmark queries against `db`'s
/// live physical context, in both the planner's output form and the
/// physically optimized form.
fn verify_and_run_all(db: &Database, qctx: &QueryContext, label: &str) {
    let scheme = db.config().layout.scheme();
    let ctx = db.explain_context();
    for q in QueryId::ALL {
        let plan = build_plan(q, scheme, qctx);
        for (form, p) in [
            ("planned", plan.clone()),
            ("optimized", optimize_for(plan.clone(), &ctx)),
            ("enumerated", optimize_cbo(plan.clone(), &ctx)),
            ("reordered", reorder_joins(plan, &ctx)),
        ] {
            let report = verify(&p, &ctx)
                .unwrap_or_else(|e| panic!("{label} {q:?} ({form}): {e}\n{}", p.explain()));
            assert!(report.nodes >= 1, "{label} {q:?} ({form})");
            db.execute_plan(&p)
                .unwrap_or_else(|e| panic!("{label} {q:?} ({form}) fails to execute: {e}"));
        }
    }
}

#[test]
fn benchmark_plans_verify_in_every_configuration_and_state() {
    let ds = dataset();
    let qctx = QueryContext::from_dataset(&ds, 28);
    for config in StoreConfig::paper_matrix() {
        let label = config.label();
        let db = Database::open(ds.clone(), config).expect("opens");
        verify_and_run_all(&db, &qctx, &format!("{label}/clean"));

        // Pending delta: tombstones on existing triples plus inserts on
        // query-bound properties — the states that downgrade scan claims.
        let gone = {
            let t = ds.triples[0];
            (
                ds.dict.term(t.s).to_string(),
                ds.dict.term(t.p).to_string(),
                ds.dict.term(t.o).to_string(),
            )
        };
        db.delete([(gone.0.as_str(), gone.1.as_str(), gone.2.as_str())])
            .expect("deletes");
        db.insert([
            ("<vp-s1>", vocab::TYPE, vocab::TEXT),
            ("<vp-s1>", vocab::LANGUAGE, vocab::FRENCH),
        ])
        .expect("inserts");
        verify_and_run_all(&db, &qctx, &format!("{label}/pending"));

        db.merge().expect("merges");
        verify_and_run_all(&db, &qctx, &format!("{label}/merged"));
    }
}
