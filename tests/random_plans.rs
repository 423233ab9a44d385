//! Plan-level fuzzing, in two tiers.
//!
//! **Mutation fuzzing of the plan verifier**: every benchmark plan, under
//! every physical context, verifies cleanly — and stops verifying the
//! moment a single point is corrupted. The fuzzer derives the optimizer's
//! own claim tree, then flips exactly one thing — a property claim
//! (`sorted_by` / `distinct` / `run_encoded`) or a column index inside the
//! plan itself — and asserts `swans_plan::verify` rejects the mutant with
//! an error whose path resolves to a real node.
//!
//! **Seeded cross-engine fuzzing**: for *arbitrary* generated logical
//! plans (star joins included) over arbitrary small data sets, the row
//! engine, the column engine (all three clustering orders) and the naive
//! reference executor must return exactly the same bag of rows.

use swans_datagen::rng::StdRng;
use swans_plan::queries::{build_plan, QueryContext, QueryId, Scheme};
use swans_plan::verify::{locate, verify, verify_claims, Claims, PlanPath};
use swans_plan::{optimize_for, Plan, PropsContext};
use swans_rdf::SortOrder;

/// A small Barton-shaped data set: enough vocabulary to resolve every
/// benchmark query's constants.
fn query_context() -> QueryContext {
    let ds = swans_datagen::generate(&swans_datagen::BartonConfig {
        scale: 0.0002,
        seed: 7,
        n_properties: 28,
    });
    QueryContext::from_dataset(&ds, 28)
}

/// The physical contexts the engine actually runs under: clean layouts in
/// each clustering order, pending-delta downgrades, and RLE storage.
fn props_contexts(q: &QueryContext) -> Vec<PropsContext> {
    let pso = PropsContext::with_order(SortOrder::Pso);
    vec![
        PropsContext::default(),
        PropsContext::with_order(SortOrder::Spo),
        pso.clone(),
        pso.clone().with_pending_inserts([q.type_p, q.language_p]),
        pso.clone().with_pending_tombstones([q.origin_p]),
        pso.with_rle_props(q.interesting.clone())
            .with_triple_lead_rle(),
    ]
}

/// Every benchmark plan in both schemes, plus its physically-optimized
/// form under `ctx` (join reordering changes the tree shape, so mutants
/// cover rotated joins and restore-order projections too).
fn benchmark_plans(q: &QueryContext, ctx: &PropsContext) -> Vec<Plan> {
    let mut plans = Vec::new();
    for query in QueryId::ALL {
        for scheme in [Scheme::TripleStore, Scheme::VerticallyPartitioned] {
            let plan = build_plan(query, scheme, q);
            plans.push(optimize_for(plan.clone(), ctx));
            plans.push(plan);
        }
    }
    plans
}

/// All root→node paths in the plan, in preorder.
fn all_paths(plan: &Plan) -> Vec<Vec<usize>> {
    fn walk(plan: &Plan, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        out.push(prefix.clone());
        let kids: Vec<&Plan> = match plan {
            Plan::ScanTriples { .. } | Plan::ScanProperty { .. } => vec![],
            Plan::Select { input, .. }
            | Plan::FilterIn { input, .. }
            | Plan::Project { input, .. }
            | Plan::GroupCount { input, .. }
            | Plan::HavingCountGt { input, .. }
            | Plan::Distinct { input } => vec![input],
            Plan::Join { left, right, .. } => vec![left, right],
            Plan::UnionAll { inputs } | Plan::LeapfrogJoin { inputs, .. } => {
                inputs.iter().collect()
            }
        };
        for (i, kid) in kids.into_iter().enumerate() {
            prefix.push(i);
            walk(kid, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut Vec::new(), &mut out);
    out
}

/// Mutable access to the node at `segs` (child indices from the root).
fn node_at_mut<'a>(plan: &'a mut Plan, segs: &[usize]) -> &'a mut Plan {
    let mut node = plan;
    for &seg in segs {
        node = match node {
            Plan::Select { input, .. }
            | Plan::FilterIn { input, .. }
            | Plan::Project { input, .. }
            | Plan::GroupCount { input, .. }
            | Plan::HavingCountGt { input, .. }
            | Plan::Distinct { input } => input,
            Plan::Join { left, right, .. } => {
                if seg == 0 {
                    left
                } else {
                    right
                }
            }
            Plan::UnionAll { inputs } | Plan::LeapfrogJoin { inputs, .. } => &mut inputs[seg],
            Plan::ScanTriples { .. } | Plan::ScanProperty { .. } => {
                unreachable!("path walks off a leaf")
            }
        };
    }
    node
}

/// One attempted single-point corruption. Returns the mutated
/// `(plan, claims)` pair, or `None` if the chosen node cannot host the
/// chosen mutation class (e.g. strengthening `distinct` on an
/// already-distinct node).
fn mutate(
    plan: &Plan,
    claims: &Claims,
    ctx: &PropsContext,
    segs: &[usize],
    class: usize,
    rng: &mut StdRng,
) -> Option<(Plan, Claims)> {
    let path = PlanPath::from_segments(segs.to_vec());
    let node = locate(plan, &path).expect("enumerated path resolves");
    let arity = node.arity();
    let mut mutated_claims = claims.clone();
    let entry = mutated_claims.at_mut(&path).expect("claims tree parallel");
    match class {
        // Strengthen (or reorder) the sort-key claim past what the layout
        // justifies.
        0 => {
            match &mut entry.props.sorted_by {
                None => entry.props.sorted_by = Some(vec![0]),
                Some(key) => {
                    if let Some(extra) = (0..arity).find(|c| !key.contains(c)) {
                        key.push(extra);
                    } else if key.len() >= 2 {
                        key.swap(0, 1);
                    } else {
                        return None;
                    }
                }
            }
            Some((plan.clone(), mutated_claims))
        }
        // Invent a distinct claim.
        1 => {
            if entry.props.distinct {
                return None;
            }
            entry.props.distinct = true;
            Some((plan.clone(), mutated_claims))
        }
        // Invent a run-encoding claim on a column no RLE scan feeds.
        2 => {
            let free: Vec<usize> = (0..arity)
                .filter(|c| !entry.props.run_encoded.contains(c))
                .collect();
            if free.is_empty() {
                return None;
            }
            entry
                .props
                .run_encoded
                .push(free[rng.random_range(0..free.len())]);
            Some((plan.clone(), mutated_claims))
        }
        // Corrupt a column index inside the plan itself (claims are
        // re-derived: the *structural* check must catch it).
        _ => {
            let mut mutated = plan.clone();
            let target = node_at_mut(&mut mutated, segs);
            match target {
                Plan::Select { pred, .. } => pred.col = arity + 7,
                Plan::FilterIn { col, .. } => *col = arity + 7,
                Plan::Join {
                    right_col, right, ..
                } => *right_col = right.arity() + 7,
                Plan::Project { cols, .. } => cols[0] = arity + 7,
                Plan::GroupCount { keys, .. } => keys[0] = arity + 7,
                _ => return None,
            }
            let claims = Claims::derive_tree(&mutated, ctx);
            Some((mutated, claims))
        }
    }
}

/// The verifier accepts the optimizer's own claims on every benchmark
/// plan under every physical context — zero false positives.
#[test]
fn unmutated_benchmark_plans_always_verify() {
    let q = query_context();
    for ctx in props_contexts(&q) {
        for plan in benchmark_plans(&q, &ctx) {
            verify(&plan, &ctx).unwrap_or_else(|e| panic!("{e}\non {}", plan.explain()));
        }
    }
}

/// The mutation fuzzer: ≥95% of single-point corruptions are rejected,
/// and every rejection names a node that actually exists in the plan.
#[test]
fn verifier_rejects_single_point_mutants() {
    let q = query_context();
    let mut rng = StdRng::seed_from_u64(0x5AA5_2008);
    let (mut attempted, mut rejected) = (0u64, 0u64);
    for ctx in props_contexts(&q) {
        for plan in benchmark_plans(&q, &ctx) {
            let claims = Claims::derive_tree(&plan, &ctx);
            let paths = all_paths(&plan);
            for _ in 0..6 {
                let segs = &paths[rng.random_range(0..paths.len())];
                let class = rng.random_range(0..4);
                let Some((mplan, mclaims)) = mutate(&plan, &claims, &ctx, segs, class, &mut rng)
                else {
                    continue;
                };
                attempted += 1;
                match verify_claims(&mplan, &mclaims, &ctx) {
                    Ok(_) => {}
                    Err(e) => {
                        rejected += 1;
                        assert!(
                            locate(&mplan, &e.path).is_some(),
                            "error path {} does not resolve in the mutant",
                            e.path
                        );
                    }
                }
            }
        }
    }
    assert!(attempted >= 500, "fuzzer starved: only {attempted} mutants");
    let rate = rejected as f64 / attempted as f64;
    eprintln!("mutation fuzzer: {rejected}/{attempted} mutants rejected ({rate:.3})");
    assert!(
        rate >= 0.95,
        "verifier caught only {rejected}/{attempted} mutants ({rate:.3})"
    );
}

/// Cross-engine equivalence on arbitrary generated plans, seeded.
mod cross_engine {
    use swans_colstore::ColumnEngine;
    use swans_datagen::rng::StdRng;
    use swans_plan::algebra::{CmpOp, Plan, Predicate};
    use swans_plan::{naive, verify::verify, PropsContext};
    use swans_rdf::{SortOrder, Triple};
    use swans_rowstore::engine::{RowEngine, TripleIndexConfig};
    use swans_storage::{MachineProfile, StorageManager};

    const ID_SPACE: usize = 8;
    /// Widest generated row: joins and stars wider than this degrade to
    /// their first input, keeping rows inside the row engine's limit.
    const MAX_ARITY: usize = 9;

    fn id(rng: &mut StdRng) -> u64 {
        rng.random_range(0..ID_SPACE) as u64
    }

    fn opt_id(rng: &mut StdRng) -> Option<u64> {
        (rng.random_range(0..2) == 0).then(|| id(rng))
    }

    fn leaf(rng: &mut StdRng) -> Plan {
        if rng.random_range(0..2) == 0 {
            Plan::ScanTriples {
                s: opt_id(rng),
                p: opt_id(rng),
                o: opt_id(rng),
            }
        } else {
            Plan::ScanProperty {
                property: id(rng),
                s: opt_id(rng),
                o: opt_id(rng),
                emit_property: rng.random_range(0..2) == 0,
            }
        }
    }

    /// A random plan at most `depth` operators deep. Column indices are
    /// drawn modulo the child arity, so every generated plan is valid.
    fn plan(rng: &mut StdRng, depth: usize) -> Plan {
        if depth == 0 || rng.random_range(0..4) == 0 {
            return leaf(rng);
        }
        let input = plan(rng, depth - 1);
        let a = input.arity();
        match rng.random_range(0..9) {
            0 => {
                let pred = Predicate {
                    col: rng.random_range(0..a),
                    op: if rng.random_range(0..2) == 0 {
                        CmpOp::Eq
                    } else {
                        CmpOp::Ne
                    },
                    value: id(rng),
                };
                Plan::Select {
                    input: Box::new(input),
                    pred,
                }
            }
            1 => Plan::FilterIn {
                col: rng.random_range(0..a),
                values: (0..rng.random_range(0..4)).map(|_| id(rng)).collect(),
                input: Box::new(input),
            },
            2 => {
                let right = plan(rng, depth - 1);
                if a + right.arity() > MAX_ARITY {
                    return input;
                }
                Plan::Join {
                    left_col: rng.random_range(0..a),
                    right_col: rng.random_range(0..right.arity()),
                    left: Box::new(input),
                    right: Box::new(right),
                }
            }
            3 => Plan::Project {
                cols: (0..rng.random_range(1..4))
                    .map(|_| rng.random_range(0..a))
                    .collect(),
                input: Box::new(input),
            },
            4 => {
                let mut keys = vec![rng.random_range(0..a)];
                let k1 = rng.random_range(0..a);
                if rng.random_range(0..2) == 0 && !keys.contains(&k1) {
                    keys.push(k1);
                }
                Plan::GroupCount {
                    input: Box::new(input),
                    keys,
                }
            }
            // Valid over any non-empty schema: filters on the last column.
            5 => Plan::HavingCountGt {
                input: Box::new(input),
                min: rng.random_range(0..3) as u64,
            },
            // Two structurally identical branches.
            6 => Plan::UnionAll {
                inputs: vec![input.clone(), input],
            },
            7 => Plan::Distinct {
                input: Box::new(input),
            },
            // A 2–3-way star. Half the time its inputs are bare scans keyed
            // on column 0, which most layouts keep sorted; otherwise the
            // keys land anywhere, mostly on unsorted columns.
            _ => {
                let scans = rng.random_range(0..2) == 0;
                let mut inputs = vec![if scans { leaf(rng) } else { input }];
                for _ in 1..rng.random_range(2..4) {
                    inputs.push(if scans {
                        leaf(rng)
                    } else {
                        plan(rng, depth - 1)
                    });
                }
                if inputs.iter().map(Plan::arity).sum::<usize>() > MAX_ARITY {
                    return inputs.swap_remove(0);
                }
                let cols = inputs
                    .iter()
                    .map(|i| {
                        if scans {
                            0
                        } else {
                            rng.random_range(0..i.arity())
                        }
                    })
                    .collect();
                Plan::LeapfrogJoin { inputs, cols }
            }
        }
    }

    fn triples(rng: &mut StdRng) -> Vec<Triple> {
        (0..rng.random_range(0..60))
            .map(|_| Triple::new(id(rng), id(rng), id(rng)))
            .collect()
    }

    #[test]
    fn engines_match_naive_on_random_plans() {
        let mut stars = 0;
        for seed in 0..256 {
            let mut rng = StdRng::seed_from_u64(0xC0_FFEE + seed);
            let triples = triples(&mut rng);
            let plan = plan(&mut rng, 3);
            stars += plan.explain().matches("LeapfrogJoin").count();
            assert_eq!(plan.validate(), Ok(()), "{plan:?}");
            for order in [
                None,
                Some(SortOrder::Spo),
                Some(SortOrder::Pso),
                Some(SortOrder::Osp),
            ] {
                let ctx = PropsContext {
                    triple_order: order,
                    ..PropsContext::default()
                };
                verify(&plan, &ctx).unwrap_or_else(|e| panic!("{e} on {plan:?}"));
            }
            let want = naive::normalize(naive::execute(&plan, &triples));

            // The optimizer's rewrites must preserve answers on any plan.
            let optimized = swans_plan::optimize(plan.clone());
            assert_eq!(optimized.validate(), Ok(()));
            let opt_rows = naive::normalize(naive::execute(&optimized, &triples));
            assert_eq!(
                opt_rows, want,
                "optimize() changed answers: {plan:?} -> {optimized:?}"
            );

            // Scheme lowering must preserve answers too (given the complete
            // property list of the data set).
            let mut all_props: Vec<u64> = triples.iter().map(|t| t.p).collect();
            all_props.sort_unstable();
            all_props.dedup();
            let lowered = swans_plan::lower_to_vertical(&plan, &all_props);
            assert_eq!(lowered.validate(), Ok(()));
            let low_rows = naive::normalize(naive::execute(&lowered, &triples));
            assert_eq!(
                low_rows, want,
                "lower_to_vertical() changed answers on {plan:?}"
            );

            // Column engine under all clustering orders — executing both the
            // raw and the optimized plan.
            for order in [SortOrder::Spo, SortOrder::Pso, SortOrder::Osp] {
                let m = StorageManager::new(MachineProfile::B);
                let mut col = ColumnEngine::new();
                col.load_triple_store(&m, &triples, order, true);
                col.load_vertical(&m, &triples, false);
                for p in [&plan, &optimized] {
                    let got = naive::normalize(col.execute(p).expect("plan executes").to_rows());
                    assert_eq!(got, want, "column engine ({order}) diverged on {p:?}");
                }
            }

            // Row engine under both paper index configurations.
            for config in [TripleIndexConfig::spo(), TripleIndexConfig::pso()] {
                let m = StorageManager::new(MachineProfile::B);
                let mut row = RowEngine::new();
                row.load_triple_store(&m, &triples, &config);
                row.load_vertical(&m, &triples);
                let got = naive::normalize(row.execute(&plan).expect("plan executes"));
                assert_eq!(
                    got, want,
                    "row engine ({}) diverged on {plan:?}",
                    config.cluster
                );
            }
        }
        eprintln!("cross-engine fuzzer: {stars} star joins");
        assert!(stars >= 10, "generator starved of star joins: {stars}");
    }
}
