//! Physical-property validation: the ordering knowledge `swans_plan::props`
//! derives must be *true of what the column engine actually produces* —
//! otherwise a merge join or run-based aggregation dispatched on a wrong
//! claim would silently return garbage. Randomized plans (seeded, no
//! external crates) are executed under every clustering order and the
//! derived `sorted_by` / `distinct` claims are checked row-by-row against
//! the materialized output, alongside full result equivalence with the
//! naive executor. A second suite pins the dispatch itself: the benchmark's
//! subject–subject vertically-partitioned joins must run through
//! `ops::merge_join` (observed via the engine's kernel-dispatch counters),
//! and the sorted paths must answer exactly like the order-oblivious
//! reference executor.

use swans_colstore::ColumnEngine;
use swans_datagen::rng::StdRng;
use swans_plan::algebra::{CmpOp, Plan, Predicate};
use swans_plan::naive;
use swans_plan::props::{derive, PropsContext};
use swans_rdf::{SortOrder, Triple};
use swans_storage::{MachineProfile, StorageManager};

const ID_SPACE: u64 = 6;

fn opt_id(rng: &mut StdRng) -> Option<u64> {
    (rng.random() < 0.4).then(|| rng.next_u64() % ID_SPACE)
}

fn gen_leaf(rng: &mut StdRng) -> Plan {
    if rng.random() < 0.5 {
        Plan::ScanTriples {
            s: opt_id(rng),
            p: opt_id(rng),
            o: opt_id(rng),
        }
    } else {
        Plan::ScanProperty {
            property: rng.next_u64() % ID_SPACE,
            s: opt_id(rng),
            o: opt_id(rng),
            emit_property: rng.random() < 0.5,
        }
    }
}

/// Random valid plan of bounded depth (column indices drawn modulo the
/// child arity, mirroring `tests/random_plans.rs`).
fn gen_plan(rng: &mut StdRng, depth: usize) -> Plan {
    if depth == 0 {
        return gen_leaf(rng);
    }
    match rng.random_range(0..9) {
        0 => gen_leaf(rng),
        1 => {
            let input = gen_plan(rng, depth - 1);
            let col = rng.random_range(0..input.arity());
            Plan::Select {
                input: Box::new(input),
                pred: Predicate {
                    col,
                    op: if rng.random() < 0.5 {
                        CmpOp::Eq
                    } else {
                        CmpOp::Ne
                    },
                    value: rng.next_u64() % ID_SPACE,
                },
            }
        }
        2 => {
            let input = gen_plan(rng, depth - 1);
            let col = rng.random_range(0..input.arity());
            let values: Vec<u64> = (0..rng.random_range(0..4))
                .map(|_| rng.next_u64() % ID_SPACE)
                .collect();
            Plan::FilterIn {
                input: Box::new(input),
                col,
                values,
            }
        }
        3 => {
            let l = gen_plan(rng, depth - 1);
            let r = gen_plan(rng, depth - 1);
            if l.arity() + r.arity() > 9 {
                return l;
            }
            let left_col = rng.random_range(0..l.arity());
            let right_col = rng.random_range(0..r.arity());
            Plan::Join {
                left: Box::new(l),
                right: Box::new(r),
                left_col,
                right_col,
            }
        }
        4 => {
            let input = gen_plan(rng, depth - 1);
            let a = input.arity();
            let cols: Vec<usize> = (0..rng.random_range(1..4))
                .map(|_| rng.random_range(0..a))
                .collect();
            Plan::Project {
                input: Box::new(input),
                cols,
            }
        }
        5 => {
            let input = gen_plan(rng, depth - 1);
            let a = input.arity();
            let mut keys = vec![rng.random_range(0..a)];
            let k1 = rng.random_range(0..a);
            if rng.random() < 0.5 && !keys.contains(&k1) {
                keys.push(k1);
            }
            Plan::GroupCount {
                input: Box::new(input),
                keys,
            }
        }
        6 => Plan::HavingCountGt {
            input: Box::new(gen_plan(rng, depth - 1)),
            min: rng.next_u64() % 3,
        },
        7 => {
            let input = gen_plan(rng, depth - 1);
            Plan::UnionAll {
                inputs: vec![input.clone(), input],
            }
        }
        _ => Plan::Distinct {
            input: Box::new(gen_plan(rng, depth - 1)),
        },
    }
}

fn gen_triples(rng: &mut StdRng) -> Vec<Triple> {
    (0..rng.random_range(0..60))
        .map(|_| {
            Triple::new(
                rng.next_u64() % ID_SPACE,
                rng.next_u64() % ID_SPACE,
                rng.next_u64() % ID_SPACE,
            )
        })
        .collect()
}

/// Lexicographic non-decrease of `rows` under the column key `sorted_by`.
fn is_sorted_by(rows: &[Vec<u64>], sorted_by: &[usize]) -> bool {
    rows.windows(2).all(|w| {
        let (a, b) = (&w[0], &w[1]);
        for &c in sorted_by {
            match a[c].cmp(&b[c]) {
                std::cmp::Ordering::Less => return true,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Equal => {}
            }
        }
        true
    })
}

/// The tentpole invariant: for randomized plans, whatever order (and
/// distinctness) the derivation claims is observable in the actual engine
/// output, and the answers match the naive executor exactly.
#[test]
fn derived_props_match_actual_output_on_random_plans() {
    let mut rng = StdRng::seed_from_u64(0x5047_5250);
    let mut sorted_claims = 0usize;
    let mut distinct_claims = 0usize;
    for round in 0..150 {
        let triples = gen_triples(&mut rng);
        let plan = gen_plan(&mut rng, 3);
        assert_eq!(plan.validate(), Ok(()), "round {round}");
        let want = naive::normalize(naive::execute(&plan, &triples));

        for order in [SortOrder::Spo, SortOrder::Pso, SortOrder::Osp] {
            let m = StorageManager::new(MachineProfile::B);
            let mut engine = ColumnEngine::new();
            engine.load_triple_store(&m, &triples, order, true);
            engine.load_vertical(&m, &triples, true);

            let chunk = engine.execute(&plan).expect("plan executes");
            let rows = chunk.to_rows();
            assert_eq!(
                naive::normalize(rows.clone()),
                want,
                "round {round}, order {order}: wrong answers for {plan:?}"
            );

            let props = derive(&plan, &PropsContext::with_order(order));
            if let Some(key) = &props.sorted_by {
                sorted_claims += 1;
                assert!(
                    is_sorted_by(&rows, key),
                    "round {round}, order {order}: output not sorted by \
                     {key:?} for {plan:?}\nrows: {rows:?}"
                );
            }
            if props.distinct {
                distinct_claims += 1;
                let mut unique = rows.clone();
                unique.sort_unstable();
                unique.dedup();
                assert_eq!(
                    unique.len(),
                    rows.len(),
                    "round {round}, order {order}: duplicate rows despite \
                     distinct claim for {plan:?}"
                );
            }
        }
    }
    // The generator must actually exercise the claims, not vacuously pass.
    assert!(
        sorted_claims > 100,
        "only {sorted_claims} sortedness claims"
    );
    assert!(
        distinct_claims > 20,
        "only {distinct_claims} distinct claims"
    );
}

/// The run-encoding claim is *sound*: a run-encoded column never flows
/// where the derivation (under the engine's own context, which knows
/// which stored columns are RLE) claims none — and wherever one does
/// flow, expanding it yields exactly the flat values. The claim is an
/// upper bound, not an exact predictor: the executor's cost gates may
/// materialize a claimed column flat (dense gathers over short runs).
/// Join-free plans only: the column engine reorders join chains before
/// executing, so a joined plan's *executed* shape can differ from the
/// derived one.
#[test]
fn run_encoded_columns_only_flow_where_claimed() {
    let mut rng = StdRng::seed_from_u64(0x52_554E);
    let mut actual_runs = 0usize;
    for round in 0..250 {
        // Heavily duplicated ids → VP subject columns and triples lead
        // columns compress, so run columns actually occur.
        let triples: Vec<Triple> = (0..rng.random_range(40..120))
            .map(|_| {
                Triple::new(
                    rng.next_u64() % 4,
                    rng.next_u64() % 3,
                    rng.next_u64() % ID_SPACE,
                )
            })
            .collect();
        let plan = gen_plan(&mut rng, 2);
        if swans_plan::optimize::has_join(&plan) {
            continue;
        }
        let m = StorageManager::new(MachineProfile::B);
        let mut engine = ColumnEngine::new();
        engine.load_triple_store(&m, &triples, SortOrder::Pso, true);
        engine.load_vertical(&m, &triples, true);
        let props = derive(&plan, &engine.props_ctx());
        let chunk = engine.execute(&plan).expect("plan executes");
        for col in 0..chunk.arity() {
            if let Some(runs) = chunk.col_runs(col) {
                actual_runs += 1;
                assert!(
                    props.run_encoded.contains(&col),
                    "round {round}: unclaimed run column {col} for {plan:?}"
                );
                let runs = runs.clone();
                assert_eq!(
                    runs.expand().as_slice(),
                    chunk.col(col),
                    "round {round}: run expansion differs from flat values"
                );
            }
        }
    }
    assert!(actual_runs > 10, "only {actual_runs} run-encoded outputs");
}

/// Randomized: the sorted dispatch layer returns exactly the answers of
/// the reference executor's nested-loop joins and hash aggregation.
#[test]
fn sorted_and_hash_paths_agree_on_random_plans() {
    let mut rng = StdRng::seed_from_u64(0xAB_CDEF);
    for _ in 0..80 {
        let triples = gen_triples(&mut rng);
        let plan = gen_plan(&mut rng, 3);
        let m = StorageManager::new(MachineProfile::B);
        let mut sorted = ColumnEngine::new();
        sorted.load_triple_store(&m, &triples, SortOrder::Pso, true);
        sorted.load_vertical(&m, &triples, true);
        assert_eq!(
            naive::normalize(sorted.execute(&plan).expect("sorted").to_rows()),
            naive::normalize(naive::execute(&plan, &triples)),
            "sorted paths and the reference disagree on {plan:?}"
        );
    }
}

mod dispatch {
    use super::*;
    use swans_datagen::{generate, BartonConfig};
    use swans_plan::queries::{build_plan, QueryContext, QueryId, Scheme};

    /// The acceptance criterion: subject–subject joins on the
    /// vertically-partitioned layout run through `ops::merge_join`,
    /// observed via the kernel-dispatch counters — with the reference
    /// executor's answers.
    #[test]
    fn vp_subject_joins_dispatch_merge_join() {
        let ds = generate(&BartonConfig {
            scale: 0.0004,
            seed: 9,
            n_properties: 40,
        });
        let ctx = QueryContext::from_dataset(&ds, 10);
        let m = StorageManager::new(MachineProfile::B);
        let mut sorted = ColumnEngine::new();
        sorted.load_vertical(&m, &ds.triples, true);

        // q5 joins two subject-sorted property tables directly, q4's
        // chain is reordered so a sorted pair merges first, and q7's
        // three-way subject star merge-joins its sorted arms.
        for q in [QueryId::Q4, QueryId::Q5, QueryId::Q7] {
            let plan = build_plan(q, Scheme::VerticallyPartitioned, &ctx);
            sorted.reset_exec_stats();
            let got = sorted.execute(&plan).expect("sorted run");
            let stats = sorted.exec_stats();
            assert!(
                stats.merge_joins >= 1,
                "{q}: expected an order-exploiting join, got {stats:?}"
            );
            assert_eq!(
                naive::normalize(got.to_rows()),
                naive::normalize(naive::execute(&plan, &ds.triples)),
                "{q}: sorted paths and the reference differ"
            );
        }
    }

    /// On an SPO-clustered triples table, the q2 subject–subject join is
    /// merge-joinable too — the triple-store gets the same treatment.
    #[test]
    fn spo_triple_store_subject_joins_merge() {
        let ds = generate(&BartonConfig {
            scale: 0.0004,
            seed: 10,
            n_properties: 40,
        });
        let ctx = QueryContext::from_dataset(&ds, 10);
        let m = StorageManager::new(MachineProfile::B);
        let mut engine = ColumnEngine::new();
        engine.load_triple_store(&m, &ds.triples, SortOrder::Spo, true);

        let plan = build_plan(QueryId::Q2, Scheme::TripleStore, &ctx);
        engine.reset_exec_stats();
        let _ = engine.execute(&plan).expect("q2 runs");
        assert!(
            engine.exec_stats().merge_joins >= 1,
            "q2 on SPO should merge: {:?}",
            engine.exec_stats()
        );

        // Under PSO the scan output is property-ordered, not
        // subject-ordered: the same plan must hash.
        let mut pso = ColumnEngine::new();
        pso.load_triple_store(&m, &ds.triples, SortOrder::Pso, true);
        pso.reset_exec_stats();
        let _ = pso.execute(&plan).expect("q2 runs");
        assert_eq!(pso.exec_stats().merge_joins, 0);
        assert!(pso.exec_stats().hash_joins >= 1);
    }

    /// Run-based aggregation and linear distinct fire when the input order
    /// allows, with answers identical to the hash kernels.
    #[test]
    fn sorted_group_and_distinct_kernels_dispatch() {
        let triples: Vec<Triple> = (0..200)
            .map(|i| Triple::new(i % 20, i % 4, i % 7))
            .collect();
        let m = StorageManager::new(MachineProfile::B);
        let mut engine = ColumnEngine::new();
        engine.load_vertical(&m, &triples, true);
        engine.load_triple_store(&m, &triples, SortOrder::Pso, true);

        // Property table sorted (s, o): grouping by subject runs on runs.
        let scan = Plan::ScanProperty {
            property: 1,
            s: None,
            o: None,
            emit_property: false,
        };
        let group = Plan::GroupCount {
            input: Box::new(scan.clone()),
            keys: vec![0],
        };
        engine.reset_exec_stats();
        let got = engine.execute(&group).expect("group runs");
        assert_eq!(engine.exec_stats().sorted_group_counts, 1);
        assert_eq!(engine.exec_stats().hash_group_counts, 0);
        assert_eq!(
            naive::normalize(got.to_rows()),
            naive::normalize(naive::execute(&group, &triples))
        );

        // Grouping by (s, o) — the full sort key — also runs on runs.
        let group2 = Plan::GroupCount {
            input: Box::new(scan.clone()),
            keys: vec![0, 1],
        };
        engine.reset_exec_stats();
        let _ = engine.execute(&group2).expect("group2 runs");
        assert_eq!(engine.exec_stats().sorted_group_counts, 1);

        // Distinct over the (s, o)-sorted scan is the linear kernel.
        let distinct = Plan::Distinct {
            input: Box::new(scan),
        };
        engine.reset_exec_stats();
        let got = engine.execute(&distinct).expect("distinct runs");
        assert_eq!(engine.exec_stats().sorted_distincts, 1);
        assert_eq!(engine.exec_stats().sort_distincts, 0);
        assert_eq!(
            naive::normalize(got.to_rows()),
            naive::normalize(naive::execute(&distinct, &triples))
        );

        // Distinct over a GroupCount output is derived-distinct: no work.
        let nested = Plan::Distinct {
            input: Box::new(group),
        };
        engine.reset_exec_stats();
        let _ = engine.execute(&nested).expect("nested runs");
        assert_eq!(engine.exec_stats().distinct_passthroughs, 1);

        // Equality select on the subject of a property scan placed as an
        // explicit Select node resolves by binary search.
        let select = Plan::Select {
            input: Box::new(Plan::ScanProperty {
                property: 1,
                s: None,
                o: None,
                emit_property: false,
            }),
            pred: Predicate {
                col: 0,
                op: CmpOp::Eq,
                value: 5,
            },
        };
        engine.reset_exec_stats();
        let got = engine.execute(&select).expect("select runs");
        assert_eq!(engine.exec_stats().sorted_selects, 1);
        assert_eq!(
            naive::normalize(got.to_rows()),
            naive::normalize(naive::execute(&select, &triples))
        );
    }

    /// The cost model prices any group-count over key-sorted input as the
    /// linear kernel; the executor must agree at every key count, not only
    /// one and two.
    #[test]
    fn three_key_sorted_group_count_dispatches_the_sorted_kernel() {
        let triples: Vec<Triple> = (0..200)
            .map(|i| Triple::new(i % 20, i % 4, i % 7))
            .collect();
        let m = StorageManager::new(MachineProfile::B);
        let mut engine = ColumnEngine::new();
        engine.load_triple_store(&m, &triples, SortOrder::Spo, true);

        // Unbound scan of an SPO-clustered table: sorted by (s, p, o).
        let group3 = Plan::GroupCount {
            input: Box::new(Plan::ScanTriples {
                s: None,
                p: None,
                o: None,
            }),
            keys: vec![0, 1, 2],
        };
        engine.reset_exec_stats();
        let got = engine.execute(&group3).expect("group3 runs");
        assert_eq!(engine.exec_stats().sorted_group_counts, 1);
        assert_eq!(engine.exec_stats().hash_group_counts, 0);
        assert_eq!(
            naive::normalize(got.to_rows()),
            naive::normalize(naive::execute(&group3, &triples))
        );
    }
}
