//! The cost model: cardinality estimation and plan pricing.
//!
//! [`estimate_rows`] turns the statistics catalog the engine publishes
//! through [`PropsContext::stats`] into per-node output cardinalities
//! (classic System R style: independent selectivities, containment-of-
//! value-sets joins). [`cost`] prices a whole plan in abstract row-touch
//! units: scans by the bytes they actually read (compressed run headers
//! when a column is RLE-stored — the paper's compression argument turned
//! into a cost term), joins by the kernel the engine would dispatch
//! (merge joins linear, hash joins with build/probe constants; a
//! [`Plan::LeapfrogJoin`] is priced as its binary
//! [`leapfrog_fold`]). Because the dispatch prediction comes from
//! the same [`derive`](crate::props::derive()) the executor consults,
//! orders that preserve physical properties price lower exactly when the
//! engine can exploit them.
//!
//! Without a catalog every table defaults to [`DEFAULT_TABLE_ROWS`] rows:
//! estimation degrades to shape-based heuristics but stays total, so
//! enumeration works against any context.

use crate::algebra::{leapfrog_fold, CmpOp, Plan};
use crate::props::{derive, PropsContext};
use crate::stats::StatsCatalog;

/// Fallback row count for a table the catalog does not describe.
pub const DEFAULT_TABLE_ROWS: f64 = 1024.0;
/// Fallback distinct count for a column the catalog does not describe.
pub const DEFAULT_DISTINCT: f64 = 64.0;
/// Selectivity of an equality predicate with unknown column statistics.
const EQ_SELECTIVITY: f64 = 0.1;
/// Per-row cost factor of building a hash table.
const HASH_BUILD: f64 = 4.0;
/// Per-row cost factor of probing a hash table.
const HASH_PROBE: f64 = 2.0;

fn catalog(ctx: &PropsContext) -> Option<&StatsCatalog> {
    ctx.stats.as_deref()
}

/// Estimated number of output rows of `plan` under `ctx`.
pub fn estimate_rows(plan: &Plan, ctx: &PropsContext) -> f64 {
    match plan {
        Plan::ScanTriples { s, p, o } => {
            // A property-bound scan estimates against that property's own
            // statistics whenever the catalog carries them — conditioning
            // on the property sidesteps the independence assumption,
            // which collapses on correlated (p, o) pairs like
            // (type, Text) where the object set is property-specific.
            // The catalog's property map is authoritative: engines
            // publish an entry for every property with sorted rows, so a
            // missing property contributes at most a pending tail, which
            // estimation ignores.
            if let (Some(c), Some(p)) = (catalog(ctx), p) {
                if !c.props.is_empty() {
                    let ps = c.props.get(p);
                    let rows = ps.map_or(0.0, |ps| ps.rows as f64);
                    let ds = ps.map_or(1.0, |ps| (ps.distinct_subjects as f64).max(1.0));
                    let dobj = ps.map_or(1.0, |ps| (ps.distinct_objects as f64).max(1.0));
                    // The property bound is already folded into `rows`.
                    let mut sel = 1.0;
                    if s.is_some() {
                        sel /= ds;
                    }
                    if o.is_some() {
                        sel /= dobj;
                    }
                    return rows * sel;
                }
            }
            let (rows, distinct) = match catalog(ctx).and_then(|c| c.triple.as_ref()) {
                Some(t) => (t.rows as f64, t.distinct.map(|d| (d as f64).max(1.0))),
                // A context without triple-table statistics may still
                // know the property tables (a vertically-partitioned-only
                // engine estimating a logical triples scan).
                None => match (catalog(ctx), p) {
                    (Some(c), None) if !c.props.is_empty() => (
                        c.vp_rows() as f64,
                        [
                            DEFAULT_DISTINCT,
                            (c.props.len() as f64).max(1.0),
                            DEFAULT_DISTINCT,
                        ],
                    ),
                    _ => (
                        DEFAULT_TABLE_ROWS,
                        [DEFAULT_DISTINCT, DEFAULT_DISTINCT, DEFAULT_DISTINCT],
                    ),
                },
            };
            let mut sel = 1.0;
            for (bound, d) in [s, p, o].iter().zip(distinct) {
                if bound.is_some() {
                    sel /= d;
                }
            }
            rows * sel
        }
        Plan::ScanProperty { property, s, o, .. } => {
            let (rows, ds, dobj) = match catalog(ctx) {
                Some(c) => match c.props.get(property) {
                    Some(ps) => (
                        ps.rows as f64,
                        (ps.distinct_subjects as f64).max(1.0),
                        (ps.distinct_objects as f64).max(1.0),
                    ),
                    // The catalog is authoritative: a property it does
                    // not list has no sorted rows (at most a pending
                    // tail, which estimation ignores).
                    None => (0.0, 1.0, 1.0),
                },
                None => (DEFAULT_TABLE_ROWS, DEFAULT_DISTINCT, DEFAULT_DISTINCT),
            };
            let mut sel = 1.0;
            if s.is_some() {
                sel /= ds;
            }
            if o.is_some() {
                sel /= dobj;
            }
            rows * sel
        }
        Plan::Select { input, pred } => {
            let child = estimate_rows(input, ctx);
            match pred.op {
                CmpOp::Eq => child * (1.0 / distinct_estimate(input, pred.col, ctx)).min(1.0),
                CmpOp::Ne => child * (1.0 - EQ_SELECTIVITY),
            }
        }
        Plan::FilterIn { input, col, values } => {
            let child = estimate_rows(input, ctx);
            let sel = (values.len() as f64 / distinct_estimate(input, *col, ctx)).min(1.0);
            child * sel
        }
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let el = estimate_rows(left, ctx);
            let er = estimate_rows(right, ctx);
            let dl = distinct_estimate(left, *left_col, ctx);
            let dr = distinct_estimate(right, *right_col, ctx);
            el * er / dl.max(dr).max(1.0)
        }
        Plan::LeapfrogJoin { inputs, cols } => estimate_rows(&leapfrog_fold(inputs, cols), ctx),
        Plan::Project { input, .. } => estimate_rows(input, ctx),
        Plan::GroupCount { input, keys } => {
            let child = estimate_rows(input, ctx);
            let groups: f64 = keys
                .iter()
                .map(|&k| distinct_estimate(input, k, ctx))
                .product();
            groups.min(child)
        }
        Plan::HavingCountGt { input, .. } => estimate_rows(input, ctx) * 0.5,
        Plan::UnionAll { inputs } => inputs.iter().map(|i| estimate_rows(i, ctx)).sum(),
        Plan::Distinct { input } => estimate_rows(input, ctx),
    }
}

/// Estimated number of distinct values in output column `col` of `plan`.
/// Always at least 1 and at most the estimated row count.
pub fn distinct_estimate(plan: &Plan, col: usize, ctx: &PropsContext) -> f64 {
    let rows = estimate_rows(plan, ctx).max(1.0);
    let raw = match plan {
        Plan::ScanTriples { p: Some(p), .. }
            if catalog(ctx).is_some_and(|c| !c.props.is_empty()) =>
        {
            // Condition on the bound property, mirroring estimate_rows:
            // the property's own subject/object sets, and a constant
            // property column.
            let ps = catalog(ctx).and_then(|c| c.props.get(p));
            match col {
                0 => ps.map_or(1.0, |p| p.distinct_subjects as f64),
                2 => ps.map_or(1.0, |p| p.distinct_objects as f64),
                _ => 1.0,
            }
        }
        Plan::ScanTriples { .. } => match catalog(ctx).and_then(|c| c.triple.as_ref()) {
            Some(t) => t.distinct[col] as f64,
            None => DEFAULT_DISTINCT,
        },
        Plan::ScanProperty {
            property,
            emit_property,
            ..
        } => {
            let o_pos = if *emit_property { 2 } else { 1 };
            match catalog(ctx) {
                Some(c) => {
                    let ps = c.props.get(property);
                    if col == 0 {
                        ps.map_or(1.0, |p| p.distinct_subjects as f64)
                    } else if col == o_pos {
                        ps.map_or(1.0, |p| p.distinct_objects as f64)
                    } else {
                        1.0 // the re-materialized constant property column
                    }
                }
                None => {
                    if *emit_property && col == 1 {
                        1.0
                    } else {
                        DEFAULT_DISTINCT
                    }
                }
            }
        }
        Plan::Select { input, .. } | Plan::FilterIn { input, .. } => {
            distinct_estimate(input, col, ctx)
        }
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let la = left.arity();
            if col < la {
                let d = distinct_estimate(left, col, ctx);
                // The join column keeps only the keys both sides carry.
                if col == *left_col {
                    d.min(distinct_estimate(right, *right_col, ctx))
                } else {
                    d
                }
            } else {
                let d = distinct_estimate(right, col - la, ctx);
                if col - la == *right_col {
                    d.min(distinct_estimate(left, *left_col, ctx))
                } else {
                    d
                }
            }
        }
        Plan::LeapfrogJoin { inputs, cols } => {
            distinct_estimate(&leapfrog_fold(inputs, cols), col, ctx)
        }
        Plan::Project { input, cols } => distinct_estimate(input, cols[col], ctx),
        Plan::GroupCount { input, keys } => {
            if col < keys.len() {
                distinct_estimate(input, keys[col], ctx)
            } else {
                DEFAULT_DISTINCT // the count column
            }
        }
        Plan::HavingCountGt { input, .. } | Plan::Distinct { input } => {
            distinct_estimate(input, col, ctx)
        }
        Plan::UnionAll { inputs } => inputs.iter().map(|i| distinct_estimate(i, col, ctx)).sum(),
    };
    raw.clamp(1.0, rows)
}

/// Total estimated execution cost of `plan` under `ctx`, in abstract
/// row-touch units. Lower is better; only the ordering matters.
pub fn cost(plan: &Plan, ctx: &PropsContext) -> f64 {
    let out = estimate_rows(plan, ctx);
    match plan {
        Plan::ScanTriples { s, p, o } => {
            if s.is_none() && p.is_none() && o.is_none() {
                scan_bytes_triples(ctx)
            } else {
                // Bound scans resolve by binary search (or RLE headers)
                // and touch roughly the matching rows.
                out + scan_bytes_triples(ctx).max(1.0).ln()
            }
        }
        Plan::ScanProperty { property, s, o, .. } => {
            if s.is_none() && o.is_none() {
                scan_bytes_property(*property, ctx)
            } else {
                out + scan_bytes_property(*property, ctx).max(1.0).ln()
            }
        }
        Plan::Select { input, .. } | Plan::HavingCountGt { input, .. } => {
            cost(input, ctx) + estimate_rows(input, ctx)
        }
        Plan::FilterIn { input, .. } => cost(input, ctx) + estimate_rows(input, ctx),
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let el = estimate_rows(left, ctx);
            let er = estimate_rows(right, ctx);
            let merge =
                derive(left, ctx).sorted_on(*left_col) && derive(right, ctx).sorted_on(*right_col);
            let join = if merge {
                el + er
            } else {
                HASH_BUILD * el + HASH_PROBE * er
            };
            cost(left, ctx) + cost(right, ctx) + join + out
        }
        Plan::LeapfrogJoin { inputs, cols } => cost(&leapfrog_fold(inputs, cols), ctx),
        Plan::Project { input, .. } => cost(input, ctx),
        Plan::GroupCount { input, keys } => {
            let el = estimate_rows(input, ctx);
            let agg = if derive(input, ctx).sorted_by_prefix(keys) {
                el
            } else {
                HASH_BUILD * el
            };
            cost(input, ctx) + agg + out
        }
        Plan::UnionAll { inputs } => {
            inputs.iter().map(|i| cost(i, ctx)).sum::<f64>()
                + inputs.iter().map(|i| estimate_rows(i, ctx)).sum::<f64>()
        }
        Plan::Distinct { input } => {
            let el = estimate_rows(input, ctx);
            let ip = derive(input, ctx);
            let dedup = if ip.distinct {
                0.0
            } else if ip.covers_all_columns(input.arity()) {
                el
            } else {
                HASH_BUILD * el
            };
            cost(input, ctx) + dedup
        }
    }
}

fn scan_bytes_triples(ctx: &PropsContext) -> f64 {
    match catalog(ctx).and_then(|c| c.triple.as_ref()) {
        Some(t) => t.scan_bytes as f64 / 8.0,
        None => DEFAULT_TABLE_ROWS * 3.0,
    }
}

fn scan_bytes_property(property: swans_rdf::Id, ctx: &PropsContext) -> f64 {
    match catalog(ctx) {
        Some(c) => c
            .props
            .get(&property)
            .map_or(1.0, |p| p.scan_bytes as f64 / 8.0),
        None => DEFAULT_TABLE_ROWS * 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{join, leapfrog, project, scan_all, scan_p, scan_po};
    use crate::stats::{PropStats, StatsCatalog, TripleStats};
    use swans_rdf::SortOrder;

    fn ctx_with_stats() -> PropsContext {
        let mut cat = StatsCatalog {
            triple: Some(TripleStats {
                rows: 10_000,
                distinct: [2_000, 10, 500],
                scan_bytes: 10_000 * 24,
            }),
            props: Default::default(),
        };
        cat.props.insert(
            3,
            PropStats {
                rows: 4_000,
                distinct_subjects: 1_000,
                distinct_objects: 50,
                scan_bytes: 1_000 * 16 + 4_000 * 8,
            },
        );
        cat.props.insert(
            4,
            PropStats {
                rows: 100,
                distinct_subjects: 100,
                distinct_objects: 100,
                scan_bytes: 100 * 16,
            },
        );
        PropsContext::with_order(SortOrder::Pso).with_stats(cat)
    }

    fn vp(p: u64) -> Plan {
        Plan::ScanProperty {
            property: p,
            s: None,
            o: None,
            emit_property: false,
        }
    }

    #[test]
    fn scan_estimates_follow_the_catalog() {
        let ctx = ctx_with_stats();
        assert_eq!(estimate_rows(&scan_all(), &ctx), 10_000.0);
        // A property-bound triples scan conditions on the per-property
        // stats, not whole-table independence.
        assert_eq!(estimate_rows(&scan_p(3), &ctx), 4_000.0);
        assert_eq!(estimate_rows(&vp(3), &ctx), 4_000.0);
        // An unknown property has no sorted rows — the property map is
        // authoritative for either scan shape.
        assert_eq!(estimate_rows(&scan_p(7), &ctx), 0.0);
        assert_eq!(estimate_rows(&vp(99), &ctx), 0.0);
        // Bound positions divide by the column's distinct count.
        assert_eq!(
            estimate_rows(
                &Plan::ScanProperty {
                    property: 3,
                    s: Some(1),
                    o: None,
                    emit_property: false,
                },
                &ctx
            ),
            4.0
        );
    }

    #[test]
    fn join_estimate_uses_key_cardinalities() {
        let ctx = ctx_with_stats();
        // 4000 × 100 / max(1000, 100) = 400.
        let j = join(vp(3), vp(4), 0, 0);
        assert_eq!(estimate_rows(&j, &ctx), 400.0);
        // The leapfrog estimate of the 2-way case matches the binary one.
        let l = leapfrog(vec![vp(3), vp(4)], vec![0, 0]);
        assert_eq!(estimate_rows(&l, &ctx), 400.0);
    }

    #[test]
    fn defaults_keep_estimation_total_without_a_catalog() {
        let ctx = PropsContext::with_order(SortOrder::Pso);
        assert_eq!(estimate_rows(&scan_all(), &ctx), DEFAULT_TABLE_ROWS);
        assert!(estimate_rows(&scan_po(1, 2), &ctx) > 0.0);
        assert!(cost(&join(vp(1), vp(2), 0, 0), &ctx).is_finite());
    }

    #[test]
    fn merge_joins_price_below_hash_joins() {
        let ctx = ctx_with_stats();
        // Same inputs, same output; only the dispatch differs: joining on
        // subjects merges (both sorted on col 0), on objects hashes.
        let merge = join(vp(3), vp(3), 0, 0);
        let hash = join(vp(3), vp(3), 1, 1);
        let merge_op = cost(&merge, &ctx) - estimate_rows(&merge, &ctx);
        let hash_op = cost(&hash, &ctx) - estimate_rows(&hash, &ctx);
        assert!(
            merge_op < hash_op,
            "merge {merge_op} should price below hash {hash_op}"
        );
    }

    #[test]
    fn distinct_estimates_clamp_to_rows() {
        let ctx = ctx_with_stats();
        let bound = Plan::ScanProperty {
            property: 3,
            s: Some(1),
            o: None,
            emit_property: false,
        };
        // 4 estimated rows cap the 50-object distinct count.
        assert!(distinct_estimate(&bound, 1, &ctx) <= 4.0);
        assert!(distinct_estimate(&project(vp(3), vec![1, 0]), 1, &ctx) >= 1.0);
    }
}
