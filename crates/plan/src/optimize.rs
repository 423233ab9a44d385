//! A small rule-based plan optimizer.
//!
//! The paper repeatedly turns on optimizer behaviour: DBX "creates more
//! efficient query plans" given all index permutations, while the 222-way
//! vertically-partitioned SQL "seriously challenges" it. Our engines pick
//! access paths at execution time, but they can only exploit a bound
//! column if the *plan* exposes it as a scan bound. These rewrites close
//! that gap:
//!
//! 1. **Selection pushdown into scans** — `Select(col = const)` over a
//!    `ScanTriples`/`ScanProperty` output column becomes a scan bound,
//!    unlocking clustered/sorted access paths.
//! 2. **Selection pushdown through unions** — a filter over a `UnionAll`
//!    is applied to every input (so per-property-table scans can bind it).
//! 3. **Selection pushdown through joins** — a filter lands on whichever
//!    join side owns the column.
//! 4. **Order-aware join reordering** ([`reorder_joins`], applied by
//!    [`optimize_for`] and, as [`optimize_cbo`]'s baseline, by the column
//!    engine at execution time — *not* by the engine-agnostic
//!    [`optimize`]) — a left-deep join chain that
//!    joins the same column of its base relation twice is rotated so that
//!    the *sorted–sorted* pair joins first, turning a hash join into the
//!    linear merge join the sorted layouts were built for (see
//!    [`crate::props`]). The same rotation is what places run-encoded
//!    columns ([`crate::props::PhysProps::run_encoded`]) opposite each
//!    other: the rotated sorted pair is exactly where a compressed scan's
//!    run column meets another, letting the engine's run×block merge join
//!    advance whole runs instead of rows.
//!
//! All rewrites are proven answer-preserving by the cross-engine fuzzer in
//! `tests/random_plans.rs` (which round-trips every random plan through
//! [`optimize`]) and the randomized suites in `tests/physprops.rs`.
//!
//! ## Cost-based enumeration
//!
//! [`optimize_cbo`] supersedes the single-rotation heuristic with proper
//! join enumeration: every maximal chain of `Join` nodes is flattened into
//! its base relations and join conditions, and a Selinger-style dynamic
//! program over connected sub-chains picks the cheapest order under
//! [`crate::cost`](mod@crate::cost) — merge-preserving orders win exactly when the engine
//! would dispatch merge joins, because the cost model consults the same
//! [`derive`](crate::props::derive()) the executor does. The final pick
//! between the enumerated order and the old rotation is made by the
//! *real* cost function, so the enumerated plan never prices above the
//! heuristic's. The enumerator emits binary joins only: a submitted
//! [`Plan::LeapfrogJoin`] is enumerated as the chain it is defined as,
//! its binary [`leapfrog_fold`].
//! [`reorder_joins`] stays load-bearing inside the enumerator: it is the
//! cost baseline the hysteresis margin is measured against, and the
//! plan returned for chains enumeration declines (more than
//! `MAX_DP_LEAVES` relations, cyclic or cross-product condition graphs).

use crate::algebra::{leapfrog_fold, CmpOp, Plan, Predicate};
use crate::cost::{cost, distinct_estimate, estimate_rows};
use crate::props::{derive, PhysProps, PropsContext};

/// Applies the logical rewrite rules (selection pushdown) bottom-up until
/// a fixpoint (bounded by plan depth). Returns an equivalent plan.
///
/// Purely logical and engine-agnostic — the physical order-aware join
/// reordering is *not* applied here (a rotation only pays on an executor
/// with merge joins; the column engine runs [`optimize_cbo`] itself at
/// execution time).
/// Use [`optimize_for`] to also reorder when the target layout is known.
pub fn optimize(plan: Plan) -> Plan {
    let rewritten = rewrite(plan);
    debug_assert_eq!(rewritten.validate(), Ok(()));
    rewritten
}

/// [`optimize`] plus the physical cost-based enumeration pass for a known
/// layout — for callers planning specifically for an order-exploiting
/// executor.
pub fn optimize_for(plan: Plan, ctx: &PropsContext) -> Plan {
    let rewritten = optimize_cbo(rewrite(plan), ctx);
    debug_assert_eq!(rewritten.validate(), Ok(()));
    rewritten
}

/// Rotates left-deep join chains to prefer sorted–sorted join pairs.
///
/// The pattern: `(A ⋈_{A.x=B.y} B) ⋈_{A.x=C.z} C` where `A` is sorted on
/// `x`, `C` is sorted on `z`, but `B` is *not* sorted on `y` (the typical
/// vertically-partitioned shape — `B` is a union over property tables).
/// Executed as written, both joins hash; rotated to
/// `((A ⋈_{A.x=C.z} C) ⋈_{A.x=B.y} B)` the inner pair merge-joins and its
/// order-preserving output keeps `A.x` sorted for downstream operators.
/// A projection restores the original `A ++ B ++ C` column order, so the
/// rewrite is invisible to the rest of the plan.
pub fn reorder_joins(plan: Plan, ctx: &PropsContext) -> Plan {
    if !has_join(&plan) {
        // Join-free plans can't rotate; skip the rebuild.
        return plan;
    }
    match plan {
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let left = reorder_joins(*left, ctx);
            let right = reorder_joins(*right, ctx);
            try_rotate(left, right, left_col, right_col, ctx)
        }
        Plan::Select { input, pred } => Plan::Select {
            input: Box::new(reorder_joins(*input, ctx)),
            pred,
        },
        Plan::FilterIn { input, col, values } => Plan::FilterIn {
            input: Box::new(reorder_joins(*input, ctx)),
            col,
            values,
        },
        Plan::Project { input, cols } => Plan::Project {
            input: Box::new(reorder_joins(*input, ctx)),
            cols,
        },
        Plan::GroupCount { input, keys } => Plan::GroupCount {
            input: Box::new(reorder_joins(*input, ctx)),
            keys,
        },
        Plan::HavingCountGt { input, min } => Plan::HavingCountGt {
            input: Box::new(reorder_joins(*input, ctx)),
            min,
        },
        Plan::UnionAll { inputs } => Plan::UnionAll {
            inputs: inputs.into_iter().map(|i| reorder_joins(i, ctx)).collect(),
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(reorder_joins(*input, ctx)),
        },
        Plan::LeapfrogJoin { inputs, cols } => reorder_joins(leapfrog_fold(&inputs, &cols), ctx),
        leaf => leaf,
    }
}

/// Whether the plan contains any join — executors use this to skip the
/// reordering plan clone entirely for join-free plans. A
/// [`Plan::LeapfrogJoin`] is its chain of binary joins.
pub fn has_join(plan: &Plan) -> bool {
    match plan {
        Plan::Join { .. } | Plan::LeapfrogJoin { .. } => true,
        Plan::ScanTriples { .. } | Plan::ScanProperty { .. } => false,
        Plan::Select { input, .. }
        | Plan::FilterIn { input, .. }
        | Plan::Project { input, .. }
        | Plan::GroupCount { input, .. }
        | Plan::HavingCountGt { input, .. }
        | Plan::Distinct { input } => has_join(input),
        Plan::UnionAll { inputs } => inputs.iter().any(has_join),
    }
}

/// Applies one rotation at this join if it converts a hash join into a
/// merge join; otherwise rebuilds the join unchanged.
fn try_rotate(
    left: Plan,
    right: Plan,
    left_col: usize,
    right_col: usize,
    ctx: &PropsContext,
) -> Plan {
    let rotate = match &left {
        Plan::Join {
            left: a,
            right: b,
            left_col: x,
            right_col: y,
        } if left_col < a.arity() && left_col == *x => {
            // The outer join keys on the same A column as the inner one.
            derive(a, ctx).sorted_on(*x)
                && derive(&right, ctx).sorted_on(right_col)
                && !derive(b, ctx).sorted_on(*y)
        }
        _ => false,
    };
    if !rotate {
        return Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
            left_col,
            right_col,
        };
    }
    let Plan::Join {
        left: a,
        right: b,
        left_col: x,
        right_col: y,
    } = left
    else {
        unreachable!("rotate is only set for join patterns");
    };
    let (a_ar, b_ar, c_ar) = (a.arity(), b.arity(), right.arity());
    let inner = Plan::Join {
        left: a,
        right: Box::new(right),
        left_col: x,
        right_col,
    };
    let outer = Plan::Join {
        left: Box::new(inner),
        right: b,
        left_col: x,
        right_col: y,
    };
    // Restore the original A ++ B ++ C column order.
    let cols: Vec<usize> = (0..a_ar)
        .chain(a_ar + c_ar..a_ar + c_ar + b_ar)
        .chain(a_ar..a_ar + c_ar)
        .collect();
    Plan::Project {
        input: Box::new(outer),
        cols,
    }
}

/// Largest join chain the dynamic program enumerates; longer chains fall
/// back to [`reorder_joins`]. 2^8 subsets × 3^8 splits stays well under a
/// millisecond even with fat union leaves.
const MAX_DP_LEAVES: usize = 8;

/// Cost-based join enumeration for a known physical layout.
///
/// Flattens every maximal chain of binary [`Plan::Join`] nodes into its
/// base relations and join conditions, then picks the cheaper of:
///
/// 1. the Selinger-style dynamic program's best order over connected
///    sub-chains (bushy plans allowed, cross products excluded), wrapped
///    in a projection restoring the original column order,
/// 2. the [`reorder_joins`] rotation heuristic (which also serves as the
///    fallback for chains the enumerator does not handle: longer than
///    `MAX_DP_LEAVES`, cyclic condition graphs, or cross products).
///
/// The final pick uses [`cost`] on the complete candidate plans, so the
/// returned plan never prices above the rotation heuristic's under the
/// model. Statistics come from [`PropsContext::stats`]; without a catalog
/// the cost model's defaults make this a purely structural search (which
/// still prefers merge-preserving orders, as the dispatch prediction
/// consults [`derive`](crate::props::derive()) rather than the catalog).
pub fn optimize_cbo(plan: Plan, ctx: &PropsContext) -> Plan {
    if !has_join(&plan) {
        return plan;
    }
    let out = enumerate(plan, ctx);
    debug_assert_eq!(out.validate(), Ok(()));
    out
}

/// Recursive descent: enumerate every maximal join-chain root, recurse
/// through everything else.
fn enumerate(plan: Plan, ctx: &PropsContext) -> Plan {
    match plan {
        Plan::Join { .. } => enumerate_chain(plan, ctx),
        Plan::Select { input, pred } => Plan::Select {
            input: Box::new(enumerate(*input, ctx)),
            pred,
        },
        Plan::FilterIn { input, col, values } => Plan::FilterIn {
            input: Box::new(enumerate(*input, ctx)),
            col,
            values,
        },
        Plan::Project { input, cols } => Plan::Project {
            input: Box::new(enumerate(*input, ctx)),
            cols,
        },
        Plan::GroupCount { input, keys } => Plan::GroupCount {
            input: Box::new(enumerate(*input, ctx)),
            keys,
        },
        Plan::HavingCountGt { input, min } => Plan::HavingCountGt {
            input: Box::new(enumerate(*input, ctx)),
            min,
        },
        Plan::UnionAll { inputs } => Plan::UnionAll {
            inputs: inputs.into_iter().map(|i| enumerate(i, ctx)).collect(),
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(enumerate(*input, ctx)),
        },
        Plan::LeapfrogJoin { inputs, cols } => enumerate_chain(leapfrog_fold(&inputs, &cols), ctx),
        leaf => leaf,
    }
}

/// Flattens a tree of `Join` nodes rooted at `plan` into leaves (with
/// their global column offsets in the original output schema) and join
/// conditions (as global column pairs).
fn flatten(
    plan: Plan,
    base: usize,
    leaves: &mut Vec<(Plan, usize)>,
    conds: &mut Vec<(usize, usize)>,
) {
    if let Plan::Join {
        left,
        right,
        left_col,
        right_col,
    } = plan
    {
        let la = left.arity();
        flatten(*left, base, leaves, conds);
        flatten(*right, base + la, leaves, conds);
        conds.push((base + left_col, base + la + right_col));
    } else {
        leaves.push((plan, base));
    }
}

/// A join condition localized to leaf coordinates:
/// `((left leaf, left column), (right leaf, right column))`.
type LocalCond = ((usize, usize), (usize, usize));

/// One dynamic-programming candidate: a plan for a subset of leaves plus
/// the order its output concatenates them in.
struct Cand {
    plan: Plan,
    order: Vec<usize>,
    props: PhysProps,
    cost: f64,
}

fn enumerate_chain(plan: Plan, ctx: &PropsContext) -> Plan {
    let original = plan.clone();
    let mut raw_leaves: Vec<(Plan, usize)> = Vec::new();
    let mut raw_conds: Vec<(usize, usize)> = Vec::new();
    flatten(plan, 0, &mut raw_leaves, &mut raw_conds);
    let n = raw_leaves.len();
    if !(2..=MAX_DP_LEAVES).contains(&n) {
        return reorder_joins(original, ctx);
    }
    let offsets: Vec<usize> = raw_leaves.iter().map(|&(_, b)| b).collect();
    // Recursively enumerate below each leaf (a leaf may hide further join
    // chains under projections, filters or unions).
    let leaves: Vec<Plan> = raw_leaves
        .into_iter()
        .map(|(l, _)| enumerate(l, ctx))
        .collect();
    let arities: Vec<usize> = leaves.iter().map(Plan::arity).collect();
    // Localize conditions: global column → (leaf index, local column).
    let locate = |g: usize| {
        let i = offsets.iter().rposition(|&b| b <= g).expect("offset 0");
        (i, g - offsets[i])
    };
    let conds: Vec<LocalCond> = raw_conds
        .iter()
        .map(|&(l, r)| (locate(l), locate(r)))
        .collect();
    // The condition graph must be a spanning tree of the leaves (a chain
    // of k joins always has k conditions over k+1 leaves, so only
    // connectivity can fail — a cross product somewhere in the chain).
    if !connected(n, &conds) {
        return reorder_joins(original, ctx);
    }

    // The rotation heuristic over the original chain is both the baseline
    // the enumerated plan must beat and the fallback if the DP found
    // nothing. Note the whole choice reads only cardinalities, costs and
    // *sort* claims — never run-encoding claims, which vary with an
    // engine's compressed-execution switch while answers (and therefore
    // the chosen order) must not.
    //
    // Hysteresis: the model's abstract units carry estimation error and
    // ignore kernel constants, so a plan change must *predict* a win
    // beyond that noise before we deviate from the baseline — a small
    // modeled edge is as likely to be estimation error as a real win,
    // and the baseline is never wrong about itself.
    let baseline = reorder_joins(original, ctx);
    dp_enumerate(&leaves, &arities, &conds, ctx)
        .map(|best| restore_order(best, &arities))
        .filter(|enumerated| cost(enumerated, ctx) * REORDER_MARGIN < cost(&baseline, ctx))
        .unwrap_or(baseline)
}

/// An enumerated join order must predict at least this cost advantage
/// over the rotation baseline before it replaces it.
const REORDER_MARGIN: f64 = 1.25;

/// Whether the join-condition graph connects all `n` leaves.
fn connected(n: usize, conds: &[LocalCond]) -> bool {
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(i) = stack.pop() {
        for &((a, _), (b, _)) in conds {
            for (x, y) in [(a, b), (b, a)] {
                if x == i && !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
    }
    seen.into_iter().all(|s| s)
}

/// Selinger-style dynamic program over connected leaf subsets. Returns
/// the best full-set candidate, or `None` if the condition graph never
/// connects the full set (cannot happen after [`connected`] passed, but
/// kept total for safety).
fn dp_enumerate(
    leaves: &[Plan],
    arities: &[usize],
    conds: &[LocalCond],
    ctx: &PropsContext,
) -> Option<Cand> {
    let n = leaves.len();
    // Base statistics, computed once per leaf/endpoint (leaf subtrees are
    // shallow — scans, filtered scans, unions).
    let est: Vec<f64> = leaves.iter().map(|l| estimate_rows(l, ctx)).collect();
    let dist: Vec<f64> = conds
        .iter()
        .flat_map(|&((li, lc), (rj, rc))| {
            [
                distinct_estimate(&leaves[li], lc, ctx),
                distinct_estimate(&leaves[rj], rc, ctx),
            ]
        })
        .collect();
    // Factorized subset cardinality: product of leaf estimates divided by
    // max(d_left, d_right) of every condition internal to the subset.
    let card = |mask: usize| -> f64 {
        let mut c: f64 = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| est[i])
            .product();
        for (k, &((li, _), (rj, _))) in conds.iter().enumerate() {
            if mask & (1 << li) != 0 && mask & (1 << rj) != 0 {
                c /= dist[2 * k].max(dist[2 * k + 1]).max(1.0);
            }
        }
        c
    };
    let mut best: Vec<Option<Cand>> = (0..1usize << n).map(|_| None).collect();
    for (i, leaf) in leaves.iter().enumerate() {
        best[1 << i] = Some(Cand {
            plan: leaf.clone(),
            order: vec![i],
            props: derive(leaf, ctx),
            cost: cost(leaf, ctx),
        });
    }
    for mask in 1..1usize << n {
        if mask.count_ones() < 2 {
            continue;
        }
        let out_card = card(mask);
        let mut sub = (mask - 1) & mask;
        while sub != 0 {
            let other = mask ^ sub;
            if let (Some(l), Some(r)) = (&best[sub], &best[other]) {
                // Exactly one condition crosses a connected split of a
                // tree-shaped chain; take the first.
                let cross = conds.iter().find_map(|&((li, lc), (rj, rc))| {
                    if sub & (1 << li) != 0 && other & (1 << rj) != 0 {
                        Some((
                            output_col(&l.order, arities, li, lc),
                            output_col(&r.order, arities, rj, rc),
                        ))
                    } else if sub & (1 << rj) != 0 && other & (1 << li) != 0 {
                        Some((
                            output_col(&l.order, arities, rj, rc),
                            output_col(&r.order, arities, li, lc),
                        ))
                    } else {
                        None
                    }
                });
                if let Some((left_col, right_col)) = cross {
                    let merge = l.props.sorted_on(left_col) && r.props.sorted_on(right_col);
                    let op = if merge {
                        card(sub) + card(other)
                    } else {
                        4.0 * card(sub) + 2.0 * card(other)
                    };
                    let total = l.cost + r.cost + op + out_card;
                    let mut order = l.order.clone();
                    order.extend(&r.order);
                    // Ties go to the order closer to the chain as written:
                    // its left sides keep the key the later joins read.
                    if best[mask]
                        .as_ref()
                        .is_none_or(|b| total < b.cost || (total == b.cost && order < b.order))
                    {
                        let plan = Plan::Join {
                            left: Box::new(l.plan.clone()),
                            right: Box::new(r.plan.clone()),
                            left_col,
                            right_col,
                        };
                        let props = derive(&plan, ctx);
                        best[mask] = Some(Cand {
                            plan,
                            order,
                            props,
                            cost: total,
                        });
                    }
                }
            }
            sub = (sub - 1) & mask;
        }
    }
    best[(1 << n) - 1].take()
}

/// Output position of `(leaf, local)` in a candidate concatenating its
/// leaves in `order`.
fn output_col(order: &[usize], arities: &[usize], leaf: usize, local: usize) -> usize {
    let mut off = 0;
    for &l in order {
        if l == leaf {
            return off + local;
        }
        off += arities[l];
    }
    unreachable!("leaf {leaf} not in candidate order {order:?}")
}

/// Wraps a DP candidate in the projection restoring the original leaf
/// concatenation order (skipped when the order is already the identity).
fn restore_order(cand: Cand, arities: &[usize]) -> Plan {
    let n = arities.len();
    if cand.order.iter().copied().eq(0..n) {
        return cand.plan;
    }
    let cols: Vec<usize> = (0..n)
        .flat_map(|leaf| {
            let base = output_col(&cand.order, arities, leaf, 0);
            base..base + arities[leaf]
        })
        .collect();
    Plan::Project {
        input: Box::new(cand.plan),
        cols,
    }
}

fn rewrite(plan: Plan) -> Plan {
    // First rewrite children, then try to sink a Select at this node.
    match plan {
        Plan::Select { input, pred } => {
            let input = rewrite(*input);
            push_select(input, pred)
        }
        Plan::FilterIn { input, col, values } => Plan::FilterIn {
            input: Box::new(rewrite(*input)),
            col,
            values,
        },
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
        } => Plan::Join {
            left: Box::new(rewrite(*left)),
            right: Box::new(rewrite(*right)),
            left_col,
            right_col,
        },
        Plan::Project { input, cols } => Plan::Project {
            input: Box::new(rewrite(*input)),
            cols,
        },
        Plan::GroupCount { input, keys } => Plan::GroupCount {
            input: Box::new(rewrite(*input)),
            keys,
        },
        Plan::HavingCountGt { input, min } => Plan::HavingCountGt {
            input: Box::new(rewrite(*input)),
            min,
        },
        Plan::UnionAll { inputs } => Plan::UnionAll {
            inputs: inputs.into_iter().map(rewrite).collect(),
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(rewrite(*input)),
        },
        Plan::LeapfrogJoin { inputs, cols } => rewrite(leapfrog_fold(&inputs, &cols)),
        leaf => leaf,
    }
}

/// Sinks `Select(pred)` into `input` as far as semantics allow.
fn push_select(input: Plan, pred: Predicate) -> Plan {
    match input {
        // --- into a triples scan: only Eq on an unbound position ---------
        Plan::ScanTriples { s, p, o } if pred.op == CmpOp::Eq => {
            let mut bounds = [s, p, o];
            match bounds[pred.col] {
                None => {
                    bounds[pred.col] = Some(pred.value);
                    Plan::ScanTriples {
                        s: bounds[0],
                        p: bounds[1],
                        o: bounds[2],
                    }
                }
                Some(v) if v == pred.value => Plan::ScanTriples { s, p, o },
                // Contradiction: the scan is already bound to another
                // value; keep the filter (it yields the empty result).
                Some(_) => wrap(Plan::ScanTriples { s, p, o }, pred),
            }
        }
        // --- into a property-table scan -----------------------------------
        Plan::ScanProperty {
            property,
            s,
            o,
            emit_property,
        } if pred.op == CmpOp::Eq => {
            let o_pos = if emit_property { 2 } else { 1 };
            let scan = |s, o| Plan::ScanProperty {
                property,
                s,
                o,
                emit_property,
            };
            if pred.col == 0 && s.is_none() {
                scan(Some(pred.value), o)
            } else if pred.col == o_pos && o.is_none() {
                scan(s, Some(pred.value))
            } else if emit_property && pred.col == 1 {
                // Filter on the constant property column: statically
                // decidable.
                if pred.value == property {
                    scan(s, o)
                } else {
                    // Always-false: empty via a contradictory filter.
                    wrap(scan(s, o), pred)
                }
            } else if (pred.col == 0 && s == Some(pred.value))
                || (pred.col == o_pos && o == Some(pred.value))
            {
                scan(s, o)
            } else {
                wrap(scan(s, o), pred)
            }
        }
        // --- through a union ----------------------------------------------
        Plan::UnionAll { inputs } => Plan::UnionAll {
            inputs: inputs.into_iter().map(|i| push_select(i, pred)).collect(),
        },
        // --- through a join ------------------------------------------------
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let la = left.arity();
            if pred.col < la {
                Plan::Join {
                    left: Box::new(push_select(*left, pred)),
                    right,
                    left_col,
                    right_col,
                }
            } else {
                let mut p = pred;
                p.col -= la;
                Plan::Join {
                    left,
                    right: Box::new(push_select(*right, p)),
                    left_col,
                    right_col,
                }
            }
        }
        // --- through a projection ------------------------------------------
        Plan::Project { input, cols } => {
            let mut p = pred;
            p.col = cols[pred.col];
            Plan::Project {
                input: Box::new(push_select(*input, p)),
                cols,
            }
        }
        // --- through another select (reorder so ours can keep sinking) -----
        Plan::Select { input, pred: inner } => Plan::Select {
            input: Box::new(push_select(*input, pred)),
            pred: inner,
        },
        // Anything else: stop sinking.
        other => wrap(other, pred),
    }
}

fn wrap(input: Plan, pred: Predicate) -> Plan {
    Plan::Select {
        input: Box::new(input),
        pred,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{join, project, scan_all, scan_p};
    use crate::naive;
    use swans_rdf::Triple;

    fn select(input: Plan, col: usize, value: u64) -> Plan {
        Plan::Select {
            input: Box::new(input),
            pred: Predicate {
                col,
                op: CmpOp::Eq,
                value,
            },
        }
    }

    #[test]
    fn select_fuses_into_scan_bound() {
        let p = select(scan_all(), 1, 7);
        assert_eq!(
            optimize(p),
            Plan::ScanTriples {
                s: None,
                p: Some(7),
                o: None
            }
        );
    }

    #[test]
    fn contradictory_select_is_kept() {
        let p = select(scan_p(3), 1, 7);
        // p bound to 3, filter wants 7: the filter must survive so the
        // result stays empty.
        assert!(matches!(optimize(p), Plan::Select { .. }));
    }

    #[test]
    fn redundant_select_is_dropped() {
        let p = select(scan_p(7), 1, 7);
        assert_eq!(optimize(p), scan_p(7));
    }

    #[test]
    fn select_pushes_through_union_into_property_scans() {
        let union = Plan::UnionAll {
            inputs: (0..3)
                .map(|pid| Plan::ScanProperty {
                    property: pid,
                    s: None,
                    o: None,
                    emit_property: true,
                })
                .collect(),
        };
        let p = select(union, 0, 5); // bind the subject
        let opt = optimize(p);
        let Plan::UnionAll { inputs } = opt else {
            panic!("union should survive");
        };
        for i in inputs {
            assert!(
                matches!(i, Plan::ScanProperty { s: Some(5), .. }),
                "subject bound in every branch: {i:?}"
            );
        }
    }

    #[test]
    fn select_routes_to_the_owning_join_side() {
        let p = select(join(scan_all(), scan_all(), 0, 0), 4, 9); // right p
        let opt = optimize(p);
        assert_eq!(
            opt,
            join(
                scan_all(),
                Plan::ScanTriples {
                    s: None,
                    p: Some(9),
                    o: None
                },
                0,
                0
            )
        );
    }

    #[test]
    fn select_pushes_through_projection() {
        let p = select(project(scan_all(), vec![2, 0]), 0, 4); // col 0 = o
        let opt = optimize(p);
        assert_eq!(
            opt,
            project(
                Plan::ScanTriples {
                    s: None,
                    p: None,
                    o: Some(4)
                },
                vec![2, 0]
            )
        );
    }

    #[test]
    fn ne_predicates_are_not_fused() {
        let p = Plan::Select {
            input: Box::new(scan_all()),
            pred: Predicate {
                col: 0,
                op: CmpOp::Ne,
                value: 1,
            },
        };
        assert!(matches!(optimize(p), Plan::Select { .. }));
    }

    fn vp_scan(property: u64) -> Plan {
        Plan::ScanProperty {
            property,
            s: None,
            o: None,
            emit_property: false,
        }
    }

    /// The q4-VP shape: (A ⋈s B-union) ⋈s C with A, C subject-sorted and
    /// B a multi-input union. The rotation must pair A with C first and
    /// restore the original column order with a projection.
    #[test]
    fn join_chain_rotates_to_pair_sorted_inputs() {
        let a = vp_scan(1);
        let b = Plan::UnionAll {
            inputs: vec![vp_scan(2), vp_scan(3)],
        };
        let c = vp_scan(4);
        let plan = join(join(a.clone(), b.clone(), 0, 0), c.clone(), 0, 0);
        let got = reorder_joins(plan, &PropsContext::default());
        // A and C have 2 columns each, the B union has 2: the wrapper maps
        // (A, C, B) output positions back to the original A ++ B ++ C.
        let want = project(join(join(a, c, 0, 0), b, 0, 0), vec![0, 1, 4, 5, 2, 3]);
        assert_eq!(got, want);
        assert_eq!(got.validate(), Ok(()));
        // The rotated inner pair is now sorted-sorted on the join column.
        let Plan::Project { input, .. } = &got else {
            panic!("projection wrapper expected");
        };
        let Plan::Join { left, .. } = input.as_ref() else {
            panic!("outer join expected");
        };
        assert!(derive(left, &PropsContext::default()).sorted_on(0));
    }

    /// No rotation when the inner pair already merges, when the outer join
    /// keys on a different column, or when nothing is sorted.
    #[test]
    fn join_chain_rotation_is_gated() {
        // Inner pair already sorted-sorted: untouched.
        let merged = join(join(vp_scan(1), vp_scan(2), 0, 0), vp_scan(3), 0, 0);
        assert_eq!(
            reorder_joins(merged.clone(), &PropsContext::default()),
            merged
        );
        // Outer join keys on B's side (col 2 ∉ A): untouched.
        let union = Plan::UnionAll {
            inputs: vec![vp_scan(2), vp_scan(3)],
        };
        let keyed_on_b = join(join(vp_scan(1), union.clone(), 0, 0), vp_scan(3), 2, 0);
        assert_eq!(
            reorder_joins(keyed_on_b.clone(), &PropsContext::default()),
            keyed_on_b
        );
        // C unsorted on its join column: untouched.
        let c_unsorted = join(join(vp_scan(1), union, 0, 0), vp_scan(3), 0, 1);
        assert_eq!(
            reorder_joins(c_unsorted.clone(), &PropsContext::default()),
            c_unsorted
        );
    }

    /// Rotation preserves answers (naive-executor check on a join chain
    /// with duplicates on the join column).
    #[test]
    fn rotation_preserves_answers() {
        let union = Plan::UnionAll {
            inputs: vec![vp_scan(2), vp_scan(3)],
        };
        let plan = join(join(vp_scan(1), union, 0, 0), vp_scan(4), 0, 0);
        let rotated = reorder_joins(plan.clone(), &PropsContext::default());
        assert_ne!(rotated, plan, "rotation should fire on this shape");
        let triples: Vec<Triple> = (0..40)
            .map(|i| Triple::new(i % 5, 1 + i % 4, i % 3))
            .collect();
        let a = naive::normalize(naive::execute(&plan, &triples));
        let b = naive::normalize(naive::execute(&rotated, &triples));
        assert_eq!(a, b);
    }

    #[test]
    fn benchmark_plans_unchanged_by_optimizer_semantics() {
        // All benchmark plans already push their bounds into scans, so the
        // optimizer must leave their answers intact (and mostly their
        // shapes too).
        use crate::queries::{build_plan, QueryContext, QueryId, Scheme};
        let ctx = QueryContext {
            type_p: 0,
            text_o: 100,
            language_p: 1,
            fre_o: 101,
            origin_p: 2,
            dlc_o: 102,
            records_p: 3,
            point_p: 4,
            end_o: 103,
            encoding_p: 5,
            conferences_s: 200,
            interesting: (0..6).collect(),
            all_properties: (0..8).collect(),
        };
        let triples: Vec<Triple> = (0..400)
            .map(|i| Triple::new(200 + i % 40, i % 8, 100 + i % 7))
            .collect();
        for q in QueryId::ALL {
            for scheme in [Scheme::TripleStore, Scheme::VerticallyPartitioned] {
                let plan = build_plan(q, scheme, &ctx);
                let opt = optimize(plan.clone());
                assert_eq!(opt.validate(), Ok(()));
                let a = naive::normalize(naive::execute(&plan, &triples));
                let b = naive::normalize(naive::execute(&opt, &triples));
                assert_eq!(a, b, "{q}/{} changed answers", scheme.name());
            }
        }
    }
}
