//! Plan-quality acceptance suite for the cost-based optimizer and the
//! leapfrog star kernel.
//!
//! Four invariants, each load-bearing for PR 9:
//!
//! * **Fold equivalence** — a [`Plan::LeapfrogJoin`] returns exactly the
//!   rows of its binary-join fold as the reference executor evaluates it,
//!   across layouts, compression settings, pool widths and write-store
//!   states (clean, pending delta, post-merge). The pending state
//!   additionally pins the *fallback*: an input that lost its sort order
//!   sends the node through the fold, and the dispatch counter proves it.
//!   (Row-order identity of kernel and fold is pinned at kernel level, in
//!   `swans_colstore::ops`' unit tests.)
//! * **Answer equality** — cost-based enumeration never changes answers
//!   relative to the plan as submitted, evaluated by the reference
//!   executor, on every benchmark query in every column configuration.
//! * **Never-worse under the model** — a hand-rolled seeded proptest:
//!   for random join chains, the enumerated plan's modeled cost never
//!   exceeds the rotation heuristic's, the enumerated plan passes the
//!   static verifier, and its answers match the original plan's.
//! * **Q-error gate** — the CI regression bound: across the 12-query ×
//!   6-configuration suite, the root-cardinality estimation error
//!   `max(est/actual, actual/est)` stays under a committed threshold.

use swans_colstore::ColumnEngine;
use swans_datagen::rng::StdRng;
use swans_plan::algebra::{join, leapfrog, Plan};
use swans_plan::naive;
use swans_plan::queries::{QueryContext, QueryId};
use swans_plan::verify::verify;
use swans_plan::{build_plan, cost, estimate_rows, optimize_cbo, reorder_joins};
use swans_rdf::{Dataset, Delta, SortOrder, Triple};
use swans_storage::{MachineProfile, StorageManager};

/// The committed q-error regression threshold the `plan-quality` CI job
/// gates on. Measured max across the suite at the time of commit was
/// ~117, at the triple-store q4/q4* plans — a three-way join under
/// `HAVING count(*) > 1`, whose flat 0.5 selectivity factor cannot see
/// the group-size distribution. The bound leaves ~2× headroom for
/// dataset drift without letting estimation regress by another order of
/// magnitude unnoticed.
const MAX_Q_ERROR: f64 = 256.0;

/// A star-shaped dataset: subjects share properties 3/4/5/6 with
/// per-subject object fan-out, so the VP subject columns run-encode and
/// every star join has work to do. Property 6 is sparse — the selective
/// driver a leapfrog gallop benefits from.
fn star_triples() -> Vec<Triple> {
    let mut t = Vec::new();
    for s in 0..300u64 {
        for o in 0..4 {
            t.push(Triple::new(s, 3, 100 + (s * 7 + o) % 40));
        }
        if s % 2 == 0 {
            for o in 0..2 {
                t.push(Triple::new(s, 4, 200 + (s + o) % 30));
            }
        }
        if s % 3 == 0 {
            t.push(Triple::new(s, 5, 300 + s % 20));
        }
        if s % 25 == 0 {
            t.push(Triple::new(s, 6, 400));
        }
    }
    t
}

fn vp_leaf(p: u64) -> Plan {
    Plan::ScanProperty {
        property: p,
        s: None,
        o: None,
        emit_property: false,
    }
}

fn ts_leaf(p: u64) -> Plan {
    Plan::ScanTriples {
        s: None,
        p: Some(p),
        o: None,
    }
}

/// The star plans under test: subject-keyed multi-way joins over the
/// vertically-partitioned and (SPO-clustered) triple-store layouts, at
/// widths 3 and 4.
fn star_plans() -> Vec<Plan> {
    vec![
        leapfrog(vec![vp_leaf(3), vp_leaf(4), vp_leaf(5)], vec![0, 0, 0]),
        leapfrog(
            vec![vp_leaf(6), vp_leaf(3), vp_leaf(4), vp_leaf(5)],
            vec![0, 0, 0, 0],
        ),
        leapfrog(vec![ts_leaf(3), ts_leaf(4), ts_leaf(5)], vec![0, 0, 0]),
        leapfrog(vec![vp_leaf(5), ts_leaf(4), vp_leaf(3)], vec![0, 0, 0]),
    ]
}

/// The leapfrog node answers like its binary-join fold (which is how the
/// reference executor evaluates it) in every state, and the dispatch
/// counters prove which path ran: the kernel on clean sorted inputs, the
/// fold while a pending insert breaks an input's order claim, the kernel
/// again after the merge restores it.
#[test]
fn leapfrog_matches_its_binary_fold_bit_identically() {
    let data = star_triples();
    for compress in [true, false] {
        for threads in [1usize, 2, 8] {
            let m = StorageManager::new(MachineProfile::B);
            let mut e = ColumnEngine::new();
            e.set_threads(threads);
            e.load_triple_store(&m, &data, SortOrder::Spo, compress);
            e.load_vertical(&m, &data, compress);

            let mut live = data.clone();
            for (state, delta) in [
                ("clean", None),
                // An insert on property 3 downgrades that scan's order
                // claim until the merge folds it in.
                ("pending", Some(Triple::new(7, 3, 999))),
                ("merged", None),
            ] {
                if let Some(t) = delta {
                    e.apply(&m, Delta::new().insert(t)).expect("applies");
                    live.push(t);
                } else if state == "merged" {
                    e.merge(&m).expect("merges");
                }
                for (i, plan) in star_plans().iter().enumerate() {
                    e.reset_exec_stats();
                    let rows = e.execute(plan).expect("leapfrog plan").to_rows();
                    assert_eq!(
                        e.exec_stats().leapfrog_dispatches,
                        u64::from(state != "pending"),
                        "star {i} ({state}, compress={compress}, threads={threads}): \
                         the kernel runs exactly when every input keeps its order"
                    );
                    assert_eq!(
                        naive::normalize(rows),
                        naive::normalize(naive::execute(plan, &live)),
                        "star {i} ({state}, compress={compress}, threads={threads}): \
                         wrong answers vs the reference fold"
                    );
                }
            }
        }
    }
}

/// Cost-based enumeration answers every benchmark query exactly like the
/// reference executor evaluating the plan as submitted, in every column
/// layout × compression cell.
#[test]
fn cbo_answers_match_the_rotation_baseline() {
    let ds = swans_datagen::generate(&swans_datagen::BartonConfig {
        scale: 0.0004,
        seed: 77,
        n_properties: 40,
    });
    let qctx = QueryContext::from_dataset(&ds, 10);
    let m = StorageManager::new(MachineProfile::B);
    for layout in [
        Some(SortOrder::Spo),
        Some(SortOrder::Pso),
        None, // vertically partitioned
    ] {
        for compress in [true, false] {
            let mut cbo = ColumnEngine::new();
            let scheme = match layout {
                Some(order) => {
                    cbo.load_triple_store(&m, &ds.triples, order, compress);
                    swans_plan::Scheme::TripleStore
                }
                None => {
                    cbo.load_vertical(&m, &ds.triples, compress);
                    swans_plan::Scheme::VerticallyPartitioned
                }
            };
            for q in QueryId::ALL {
                let plan = build_plan(q, scheme, &qctx);
                let got = cbo.execute(&plan).expect("cbo run").to_rows();
                assert_eq!(
                    naive::normalize(got),
                    naive::normalize(naive::execute(&plan, &ds.triples)),
                    "{q} ({layout:?}, compress={compress}): cbo and the reference disagree"
                );
            }
        }
    }
}

/// The enumerator actually *reaches* the leapfrog kernel through a
/// submitted binary join chain: on a selective subject star — submitted
/// in its worst order, dense arms first — enumeration collapses the
/// chain into a [`Plan::LeapfrogJoin`] (clearing the plan-change
/// hysteresis margin), the kernel dispatches, and answers match the
/// reference executor's evaluation of the chain as written.
#[test]
fn enumeration_collapses_a_selective_star_into_leapfrog() {
    let data = star_triples();
    let m = StorageManager::new(MachineProfile::B);
    let mut cbo = ColumnEngine::new();
    cbo.load_vertical(&m, &data, true);
    // Dense arms 3 and 4 joined first, the sparse property-6 arm last.
    let chain = join(
        join(join(vp_leaf(3), vp_leaf(4), 0, 0), vp_leaf(5), 0, 0),
        vp_leaf(6),
        0,
        0,
    );
    let got = cbo.execute(&chain).expect("cbo run").to_rows();
    assert!(
        cbo.exec_stats().leapfrog_dispatches >= 1,
        "enumeration kept the binary fold on a selective star"
    );
    assert_eq!(
        naive::normalize(got),
        naive::normalize(naive::execute(&chain, &data))
    );
}

const ID_SPACE: u64 = 6;

fn gen_leaf(rng: &mut StdRng) -> Plan {
    let opt = |rng: &mut StdRng| (rng.random() < 0.3).then(|| rng.next_u64() % ID_SPACE);
    if rng.random() < 0.5 {
        Plan::ScanTriples {
            s: opt(rng),
            p: opt(rng),
            o: opt(rng),
        }
    } else {
        Plan::ScanProperty {
            property: rng.next_u64() % ID_SPACE,
            s: opt(rng),
            o: opt(rng),
            emit_property: rng.random() < 0.5,
        }
    }
}

/// A random left-deep-or-bushy join chain of 2–5 leaves.
fn gen_join_chain(rng: &mut StdRng) -> Plan {
    let n = 2 + (rng.next_u64() % 4) as usize;
    let mut acc = gen_leaf(rng);
    for _ in 1..n {
        let right = gen_leaf(rng);
        let lc = (rng.next_u64() as usize) % acc.arity();
        let rc = (rng.next_u64() as usize) % right.arity();
        acc = if rng.random() < 0.2 {
            // Occasionally bushy: the chain goes under the right side.
            join(right, acc, rc, lc)
        } else {
            join(acc, right, lc, rc)
        };
    }
    acc
}

/// Hand-rolled proptest: under the cost model, enumeration never loses
/// to the rotation heuristic; every enumerated plan verifies; answers
/// are unchanged.
#[test]
fn enumerated_plans_never_cost_more_than_the_heuristic() {
    let mut rng = StdRng::seed_from_u64(0xC0_57_B0);
    let mut improved = 0usize;
    for round in 0..120 {
        let triples: Vec<Triple> = (0..rng.random_range(20..80))
            .map(|_| {
                Triple::new(
                    rng.next_u64() % ID_SPACE,
                    rng.next_u64() % ID_SPACE,
                    rng.next_u64() % ID_SPACE,
                )
            })
            .collect();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_triple_store(&m, &triples, SortOrder::Pso, true);
        e.load_vertical(&m, &triples, true);
        let ctx = e.props_ctx();

        let plan = gen_join_chain(&mut rng);
        assert_eq!(plan.validate(), Ok(()), "round {round}");
        let enumerated = optimize_cbo(plan.clone(), &ctx);
        let rotated = reorder_joins(plan.clone(), &ctx);

        let ce = cost(&enumerated, &ctx);
        let cr = cost(&rotated, &ctx);
        assert!(
            ce <= cr * (1.0 + 1e-9),
            "round {round}: enumerated plan costs {ce}, heuristic {cr}\n{}",
            plan.explain()
        );
        if ce < cr {
            improved += 1;
        }
        verify(&enumerated, &ctx)
            .unwrap_or_else(|e| panic!("round {round}: enumerated plan fails verify: {e}"));
        assert_eq!(
            naive::normalize(naive::execute(&enumerated, &triples)),
            naive::normalize(naive::execute(&plan, &triples)),
            "round {round}: enumeration changed answers"
        );
        // The engine executes the enumerated form identically too.
        assert_eq!(
            naive::normalize(e.execute(&plan).expect("executes").to_rows()),
            naive::normalize(naive::execute(&plan, &triples)),
            "round {round}: engine answers diverge"
        );
    }
    assert!(
        improved > 10,
        "enumeration only improved {improved}/120 plans — suspiciously idle"
    );
}

/// The CI regression gate: root-cardinality q-error across the full
/// 12-query × 6-configuration benchmark suite stays under the committed
/// threshold, clean and with a pending delta. Row-engine configurations
/// publish no statistics catalog and are exercised for absence: their
/// contexts must report `stats: None` so EXPLAIN stays estimate-free.
#[test]
fn q_error_stays_under_the_committed_gate() {
    let ds: Dataset = swans_datagen::generate(&swans_datagen::BartonConfig {
        scale: 0.0004,
        seed: 31,
        n_properties: 32,
    });
    let qctx = QueryContext::from_dataset(&ds, 28);
    let mut errors: Vec<(f64, String)> = Vec::new();
    let mut gated = 0usize;
    for config in swans_core::StoreConfig::paper_matrix() {
        let label = config.label();
        let db = swans_core::Database::open(ds.clone(), config).expect("opens");
        for state in ["clean", "pending"] {
            if state == "pending" {
                db.insert([("<q-s1>", "<q-p>", "<q-o>")]).expect("inserts");
            }
            let ctx = db.explain_context();
            let scheme = db.config().layout.scheme();
            for q in QueryId::ALL {
                let plan = build_plan(q, scheme, &qctx);
                let actual = db.execute_plan(&plan).expect("runs").len();
                let Some(_) = ctx.stats.as_ref() else {
                    // Row engine: no catalog, no estimates to gate.
                    continue;
                };
                let est = estimate_rows(&plan, &ctx).max(1.0);
                let q_err = (est / actual.max(1) as f64).max(actual.max(1) as f64 / est);
                gated += 1;
                errors.push((
                    q_err,
                    format!("{label}/{state}/{q} est={est} actual={actual}"),
                ));
            }
        }
    }
    assert!(gated >= 72, "gate covered only {gated} plan executions");
    errors.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (q_err, site) in errors.iter().take(5) {
        eprintln!("[cost_model] q-error {q_err:.2} at {site}");
    }
    let (worst, site) = &errors[0];
    assert!(
        *worst <= MAX_Q_ERROR,
        "q-error regression: {worst} > {MAX_Q_ERROR} at {site}"
    );
}
