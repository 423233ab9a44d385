//! Physical properties: the ordering knowledge a plan's output carries.
//!
//! The paper's performance argument for vertically-partitioned column
//! layouts rests on per-property `(s, o)` tables being *sorted by
//! subject*, enabling "fast (linear) merge joins" — but an executor can
//! only exploit that if sortedness is threaded from the storage layout
//! through every operator of the plan. [`fn@derive`] does exactly that: given
//! a plan and a [`PropsContext`] describing the physical layout (the
//! triples table's clustering order), it computes for every node whether
//! the output rows are sorted, and by which columns.
//!
//! The column engine consults this derivation at dispatch time: a
//! [`Plan::Join`] whose inputs are both sorted on their join columns runs
//! as a merge join, a [`Plan::GroupCount`] over key-sorted input
//! aggregates runs instead of hashing, and a [`Plan::Distinct`] over fully
//! sorted (or already-distinct) input degenerates to a linear scan (or a
//! no-op). Because both the dispatch decision and the claimed output
//! order come from this one function, the derivation stays consistent
//! with what the executor actually produces — a property pinned by the
//! randomized sortedness tests in `tests/physprops.rs`.

use std::collections::BTreeSet;

use swans_rdf::{Id, SortOrder};

use crate::algebra::{leapfrog_fold, Plan};

/// The physical layout context a derivation runs against.
///
/// `Default` (no triples clustering order known) is the conservative
/// setting: triples scans claim no order, property-table scans — whose
/// `(subject, object)` sort is inherent to the vertically-partitioned
/// layout — still do.
///
/// Pending write-store state is tracked **per property**: a pending
/// insert for property X downgrades only the scans X can reach (property
/// X's table, and triples scans whose property bound is X or absent) —
/// scans over untouched properties keep their order claims and their
/// merge-join/run-aggregation dispatch. This is why the context is
/// `Clone` rather than `Copy`: it carries the pending property sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropsContext {
    /// Clustering order of the `triples(s, p, o)` table, when one is
    /// loaded.
    pub triple_order: Option<SortOrder>,
    /// Properties with pending (unmerged) write-store *inserts*. A base
    /// scan such an insert could reach unions an *unsorted* tail of
    /// pending rows behind the sorted read-store rows, so that scan must
    /// not claim any order until a merge rebuilds the sorted tables.
    /// Deletes alone do not appear here: tombstone filtering preserves
    /// order.
    pub pending_insert_props: BTreeSet<Id>,
    /// Properties with pending (unmerged) *tombstones*. Purely
    /// informational for [`Plan::explain_annotated`] — affected scans
    /// still execute the write-store union (filter) path, which EXPLAIN
    /// must show, but hiding rows from a sorted stream preserves every
    /// order claim, so [`fn@derive`] ignores this set (it *does* disable
    /// the run-encoding claim: the tombstone filter path materializes
    /// flat).
    pub pending_tombstone_props: BTreeSet<Id>,
    /// Properties whose vertically-partitioned subject column is stored
    /// run-length encoded — their unbounded scans emit the subject as a
    /// run-encoded column (compressed execution) instead of flat values.
    /// Empty when the engine's run-kernel layer is disabled.
    pub rle_props: BTreeSet<Id>,
    /// Whether the triples table's leading clustering column is stored
    /// run-length encoded (e.g. the property column under PSO).
    pub triple_lead_rle: bool,
    /// Per-table statistics the engine collected at load/merge time —
    /// the input of the cost model ([`crate::cost`](mod@crate::cost)) and of the
    /// `est_rows` EXPLAIN annotation. `None` (the default) when the
    /// engine has not collected any: derivation ignores it, the cost
    /// model falls back to fixed defaults, and EXPLAIN prints no
    /// estimates. Shared by `Arc` because every snapshot fork republishes
    /// the same catalog until the next merge recollects.
    pub stats: Option<std::sync::Arc<crate::stats::StatsCatalog>>,
}

impl PropsContext {
    /// A context for a triples table clustered by `order`.
    pub fn with_order(order: SortOrder) -> Self {
        Self {
            triple_order: Some(order),
            ..Self::default()
        }
    }

    /// Adds properties with pending write-store inserts.
    pub fn with_pending_inserts(mut self, props: impl IntoIterator<Item = Id>) -> Self {
        self.pending_insert_props.extend(props);
        self
    }

    /// Adds properties with pending write-store tombstones.
    pub fn with_pending_tombstones(mut self, props: impl IntoIterator<Item = Id>) -> Self {
        self.pending_tombstone_props.extend(props);
        self
    }

    /// Adds properties whose subject column is stored run-length encoded.
    pub fn with_rle_props(mut self, props: impl IntoIterator<Item = Id>) -> Self {
        self.rle_props.extend(props);
        self
    }

    /// Marks the triples table's leading clustering column as stored
    /// run-length encoded.
    pub fn with_triple_lead_rle(mut self) -> Self {
        self.triple_lead_rle = true;
        self
    }

    /// Publishes a statistics catalog for the cost model.
    pub fn with_stats(mut self, stats: crate::stats::StatsCatalog) -> Self {
        self.stats = Some(std::sync::Arc::new(stats));
        self
    }

    /// Whether any write-store insert is pending at all.
    pub fn any_pending_inserts(&self) -> bool {
        !self.pending_insert_props.is_empty()
    }

    /// Whether a pending insert can reach a triples scan bound (or not)
    /// to property `p` — if so, the scan's unioned tail destroys its
    /// order claim.
    pub fn inserts_reach_triple_scan(&self, p: Option<Id>) -> bool {
        match p {
            Some(v) => self.pending_insert_props.contains(&v),
            None => self.any_pending_inserts(),
        }
    }

    /// Whether a pending insert can reach property `p`'s table scan.
    pub fn inserts_reach_property_scan(&self, p: Id) -> bool {
        self.pending_insert_props.contains(&p)
    }

    /// Whether a pending tombstone can reach a triples scan bound (or
    /// not) to property `p` — the scan then runs the (order-preserving)
    /// tombstone filter, which EXPLAIN renders.
    pub fn tombstones_reach_triple_scan(&self, p: Option<Id>) -> bool {
        match p {
            Some(v) => self.pending_tombstone_props.contains(&v),
            None => !self.pending_tombstone_props.is_empty(),
        }
    }

    /// Whether a pending tombstone can reach property `p`'s table scan.
    pub fn tombstones_reach_property_scan(&self, p: Id) -> bool {
        self.pending_tombstone_props.contains(&p)
    }
}

/// Physical properties of one plan node's output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhysProps {
    /// When `Some(key)`, the output rows are non-decreasing under
    /// lexicographic comparison of the listed output columns (leading
    /// column first). `None` claims nothing.
    pub sorted_by: Option<Vec<usize>>,
    /// Whether no two output rows are equal on *all* columns.
    pub distinct: bool,
    /// Output columns that **may** flow through the operator tree
    /// run-length encoded (the compressed-execution currency): the
    /// executor dispatches run-native kernels on them — run-aware
    /// selection, run×block merge joins, aggregation straight off run
    /// lengths — and expands them to flat values only at the result
    /// boundary or for an operator that genuinely needs flat input. The
    /// claim is an upper bound: it survives exactly the operators whose
    /// selection vectors are monotone (selections, filters, merge-join
    /// left sides, distinct) — hash joins and unions materialize flat and
    /// drop it — but the executor additionally applies run-length cost
    /// gates (output-dense work on short-run columns takes the flat
    /// path), so a claimed column can still materialize flat. The
    /// invariant the executor upholds is the converse: a run-encoded
    /// column is only ever *produced* at a claimed position. (A plain
    /// list, not an `Option`: projection can duplicate the one source
    /// run column into several output positions.)
    pub run_encoded: Vec<usize>,
}

impl PhysProps {
    /// Properties claiming nothing (the safe bottom element).
    pub fn unordered() -> Self {
        Self::default()
    }

    /// Whether `col` is globally non-decreasing, i.e. the leading column
    /// of the derived sort key — the requirement for a merge join on
    /// `col`.
    pub fn sorted_on(&self, col: usize) -> bool {
        self.sorted_by
            .as_ref()
            .is_some_and(|k| k.first() == Some(&col))
    }

    /// Whether the sort key starts with exactly `keys` (in order) — the
    /// requirement for run-based aggregation grouped by `keys`.
    pub fn sorted_by_prefix(&self, keys: &[usize]) -> bool {
        self.sorted_by
            .as_ref()
            .is_some_and(|k| k.len() >= keys.len() && k[..keys.len()] == *keys)
    }

    /// Whether the sort key covers every column of an `arity`-wide
    /// relation — the requirement for run-based duplicate elimination
    /// (equal rows are then adjacent).
    pub fn covers_all_columns(&self, arity: usize) -> bool {
        self.sorted_by
            .as_ref()
            .is_some_and(|k| (0..arity).all(|c| k.contains(&c)))
    }
}

/// Derives the physical properties of `plan`'s output under `ctx`.
///
/// The rules mirror the column engine's operators exactly:
///
/// * scans emit rows in clustering order (bound columns are constant and
///   may appear anywhere in the key, so they are listed last),
/// * selections and filters preserve order (ascending selection vectors),
/// * projection keeps the longest key prefix that survives the column
///   list,
/// * a join is order-preserving on the left key only when the executor
///   will merge-join it (both sides sorted on their join columns) —
///   hash joins destroy order,
/// * group-count emits key-sorted, key-distinct rows on every path,
/// * multi-input unions destroy order (concatenation),
/// * distinct preserves order and guarantees distinctness,
/// * run-encoding ([`PhysProps::run_encoded`]) originates at scans of
///   RLE-stored lead columns (per the context's [`PropsContext::rle_props`]
///   / [`PropsContext::triple_lead_rle`]) and survives exactly the
///   operators with monotone selection vectors — selections, filters,
///   projections of the column, merge-join left sides and distinct; a
///   pending write-store delta (inserts *or* tombstones) on a reachable
///   property forces the scan flat.
pub fn derive(plan: &Plan, ctx: &PropsContext) -> PhysProps {
    match plan {
        Plan::ScanTriples { s, p, o } => {
            // Pending write-store inserts append an unsorted tail to every
            // base scan they can reach: the derivation must stop claiming
            // order there or the executor would merge-join rows that are
            // not merge-joinable. Scans bound to an untouched property are
            // unaffected and keep their claims.
            if ctx.inserts_reach_triple_scan(*p) {
                return PhysProps::unordered();
            }
            let Some(order) = ctx.triple_order else {
                return PhysProps::unordered();
            };
            let bound = [s.is_some(), p.is_some(), o.is_some()];
            // Rows come out in clustering order. A bound column is
            // constant, so it can be dropped from its key position and
            // appended at the end without breaking lexicographic order.
            let mut key: Vec<usize> = order
                .permutation()
                .iter()
                .copied()
                .filter(|&c| !bound[c])
                .collect();
            key.extend((0..3).filter(|&c| bound[c]));
            // The leading clustering column flows out run-encoded when it
            // is stored RLE, the scan is range-resolved (no bound column
            // at all — with the lead unbound, any bound column becomes a
            // residual filter, whose selection collapses runs toward
            // length one and therefore materializes flat), and no pending
            // delta forces the flat union path.
            let lead = order.permutation()[0];
            let run_encoded = if ctx.triple_lead_rle
                && bound.iter().all(|b| !b)
                && !ctx.tombstones_reach_triple_scan(*p)
            {
                vec![lead]
            } else {
                Vec::new()
            };
            PhysProps {
                sorted_by: Some(key),
                distinct: false,
                run_encoded,
            }
        }
        Plan::ScanProperty {
            property,
            s,
            o,
            emit_property,
        } => {
            if ctx.inserts_reach_property_scan(*property) {
                return PhysProps::unordered();
            }
            // Property tables are sorted by (subject, object); the
            // re-materialized property column (if any) is constant.
            let o_pos = if *emit_property { 2 } else { 1 };
            let mut key = Vec::new();
            if s.is_none() {
                key.push(0);
            }
            if o.is_none() {
                key.push(o_pos);
            }
            if *emit_property {
                key.push(1);
            }
            if s.is_some() {
                key.push(0);
            }
            if o.is_some() {
                key.push(o_pos);
            }
            // Run-encoded only for range-resolved scans: an object bound
            // with the subject unbound is a residual filter, which
            // materializes flat (see the triples-scan rule).
            let run_encoded = if s.is_none()
                && o.is_none()
                && ctx.rle_props.contains(property)
                && !ctx.tombstones_reach_property_scan(*property)
            {
                vec![0]
            } else {
                Vec::new()
            };
            PhysProps {
                sorted_by: Some(key),
                distinct: false,
                run_encoded,
            }
        }
        Plan::Select { input, .. }
        | Plan::FilterIn { input, .. }
        | Plan::HavingCountGt { input, .. } => derive(input, ctx),
        Plan::Distinct { input } => {
            let ip = derive(input, ctx);
            PhysProps {
                sorted_by: ip.sorted_by,
                distinct: true,
                run_encoded: ip.run_encoded,
            }
        }
        Plan::Project { input, cols } => {
            let ip = derive(input, ctx);
            let sorted_by = ip.sorted_by.and_then(|key| {
                // The output stays sorted by the longest key prefix whose
                // columns all survive the projection.
                let mut out = Vec::new();
                for k in key {
                    match cols.iter().position(|&c| c == k) {
                        Some(pos) => out.push(pos),
                        None => break,
                    }
                }
                (!out.is_empty()).then_some(out)
            });
            // Dropping columns can merge previously distinct rows.
            let distinct = ip.distinct && (0..input.arity()).all(|c| cols.contains(&c));
            // The run column survives at every projected position.
            let run_encoded = cols
                .iter()
                .enumerate()
                .filter(|&(_, c)| ip.run_encoded.contains(c))
                .map(|(i, _)| i)
                .collect();
            PhysProps {
                sorted_by,
                distinct,
                run_encoded,
            }
        }
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let lp = derive(left, ctx);
            let rp = derive(right, ctx);
            // Distinct inputs produce distinct (left row ++ right row)
            // concatenations: equal outputs would need equal rows on both
            // sides, which distinctness rules out.
            let distinct = lp.distinct && rp.distinct;
            if lp.sorted_on(*left_col) && rp.sorted_on(*right_col) {
                // Merge join: the left selection vector is non-decreasing,
                // so every left-side ordering survives — run-encoding of
                // left columns included. The right selection vector is not
                // monotone (it rewinds per matching left row), so right
                // run columns are expanded by the gather.
                PhysProps {
                    sorted_by: lp.sorted_by,
                    distinct,
                    run_encoded: lp.run_encoded,
                }
            } else {
                PhysProps {
                    sorted_by: None,
                    distinct,
                    run_encoded: Vec::new(),
                }
            }
        }
        Plan::LeapfrogJoin { inputs, cols } => derive(&leapfrog_fold(inputs, cols), ctx),
        Plan::GroupCount { keys, .. } => {
            // Every group-count path (hash + sort, and the run-based
            // sorted kernels) emits key-sorted rows with distinct keys;
            // the trailing count column never breaks ties because there
            // are none.
            PhysProps {
                sorted_by: Some((0..=keys.len()).collect()),
                distinct: true,
                run_encoded: Vec::new(),
            }
        }
        Plan::UnionAll { inputs } => {
            if inputs.len() == 1 {
                // A singleton union preserves order and distinctness, but
                // its copy-out still materializes flat values.
                PhysProps {
                    run_encoded: Vec::new(),
                    ..derive(&inputs[0], ctx)
                }
            } else {
                // Concatenation destroys order and can duplicate rows
                // (and materializes flat).
                PhysProps::unordered()
            }
        }
    }
}

impl Plan {
    /// Renders the EXPLAIN tree with the [`PhysProps`] annotation
    /// ([`fn@derive`]d under `ctx`) on every node — the auditable form of
    /// operator selection: a join whose both inputs print `sorted_by=[0,
    /// ...]` on the join columns will run as a merge join, a group-count
    /// over input sorted by exactly its keys will aggregate runs, and so
    /// on.
    ///
    /// While the write store is non-empty, each base scan the pending
    /// state can *reach* (per the context's pending property sets)
    /// additionally prints the write-store union branch it executes — the
    /// unsorted tail of pending inserts and/or the tombstone filter.
    /// Scans over untouched properties print no branch: they run the
    /// plain read-store path. Only pending *inserts* force an affected
    /// scan's own annotation down to `[unsorted]` until a merge; a pure
    /// tombstone filter preserves order, and the rendering reflects that.
    pub fn explain_annotated(&self, ctx: &PropsContext) -> String {
        let mut out = String::new();
        annotate_into(self, ctx, &mut out, 0, &mut |_| None);
        out
    }

    /// [`Plan::explain_annotated`] plus a measured-cardinality column:
    /// every rendered node additionally calls `actual` and prints the
    /// returned row count as `actual_rows=N` next to the cost model's
    /// `est_rows` — the EXPLAIN ANALYZE form, letting estimation error
    /// (q-error) be read off per node. Nodes the closure declines
    /// (`None`) print no measurement; the rendering is otherwise
    /// identical to [`Plan::explain_annotated`].
    pub fn explain_compared(
        &self,
        ctx: &PropsContext,
        actual: &mut dyn FnMut(&Plan) -> Option<u64>,
    ) -> String {
        let mut out = String::new();
        annotate_into(self, ctx, &mut out, 0, actual);
        out
    }
}

fn annotate_into(
    plan: &Plan,
    ctx: &PropsContext,
    out: &mut String,
    depth: usize,
    actual: &mut dyn FnMut(&Plan) -> Option<u64>,
) {
    use std::fmt::Write;
    let pad = "  ".repeat(depth);
    let props = derive(plan, ctx);
    let order = match &props.sorted_by {
        Some(key) => format!("sorted_by={key:?}"),
        None => "unsorted".to_string(),
    };
    let distinct = if props.distinct { ", distinct" } else { "" };
    let runs = if props.run_encoded.is_empty() {
        String::new()
    } else {
        format!(
            ", runs@{}",
            props
                .run_encoded
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    // Cardinality estimates render only when the context carries a
    // statistics catalog, so statistics-free EXPLAIN output is unchanged.
    let est = if ctx.stats.is_some() {
        format!(
            ", est_rows={}",
            crate::cost::estimate_rows(plan, ctx).round()
        )
    } else {
        String::new()
    };
    let measured = match actual(plan) {
        Some(rows) => format!(", actual_rows={rows}"),
        None => String::new(),
    };
    let _ = writeln!(
        out,
        "{pad}{} [{order}{distinct}{runs}{est}{measured}]",
        plan.node_label()
    );
    match plan {
        Plan::ScanTriples { p, .. } => {
            if ctx.inserts_reach_triple_scan(*p) {
                let _ = writeln!(out, "{pad}  ∪ WriteStoreScan(pending delta) [unsorted]");
            } else if ctx.tombstones_reach_triple_scan(*p) {
                let _ = writeln!(out, "{pad}  ∪ WriteStoreScan(tombstone filter) [{order}]");
            }
        }
        Plan::ScanProperty { property, .. } => {
            if ctx.inserts_reach_property_scan(*property) {
                let _ = writeln!(out, "{pad}  ∪ WriteStoreScan(pending delta) [unsorted]");
            } else if ctx.tombstones_reach_property_scan(*property) {
                let _ = writeln!(out, "{pad}  ∪ WriteStoreScan(tombstone filter) [{order}]");
            }
        }
        Plan::Select { input, .. }
        | Plan::FilterIn { input, .. }
        | Plan::Project { input, .. }
        | Plan::GroupCount { input, .. }
        | Plan::HavingCountGt { input, .. }
        | Plan::Distinct { input } => annotate_into(input, ctx, out, depth + 1, actual),
        Plan::Join { left, right, .. } => {
            annotate_into(left, ctx, out, depth + 1, actual);
            annotate_into(right, ctx, out, depth + 1, actual);
        }
        Plan::LeapfrogJoin { inputs, .. } => {
            for i in inputs {
                annotate_into(i, ctx, out, depth + 1, actual);
            }
        }
        Plan::UnionAll { inputs } => {
            if inputs.len() <= 4 {
                for i in inputs {
                    annotate_into(i, ctx, out, depth + 1, actual);
                }
            } else {
                annotate_into(&inputs[0], ctx, out, depth + 1, actual);
                let _ = writeln!(
                    out,
                    "{}... {} more property-table scans ...",
                    "  ".repeat(depth + 1),
                    inputs.len() - 1
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{group_count, join, project, scan_all, scan_p, scan_po};

    fn pso() -> PropsContext {
        PropsContext::with_order(SortOrder::Pso)
    }

    #[test]
    fn scan_orders_follow_clustering() {
        let p = derive(&scan_all(), &pso());
        assert_eq!(p.sorted_by, Some(vec![1, 0, 2]));
        assert!(!p.distinct);
        let spo = derive(&scan_all(), &PropsContext::with_order(SortOrder::Spo));
        assert_eq!(spo.sorted_by, Some(vec![0, 1, 2]));
        // No order known without a clustering context.
        assert_eq!(
            derive(&scan_all(), &PropsContext::default()).sorted_by,
            None
        );
    }

    #[test]
    fn bound_scan_columns_move_to_the_key_tail() {
        // p bound under PSO: rows sorted by (s, o), p constant.
        let p = derive(&scan_p(7), &pso());
        assert_eq!(p.sorted_by, Some(vec![0, 2, 1]));
        assert!(p.sorted_on(0));
        // p and o bound: only s varies.
        let po = derive(&scan_po(7, 9), &pso());
        assert_eq!(po.sorted_by, Some(vec![0, 1, 2]));
    }

    #[test]
    fn property_scans_are_subject_sorted() {
        let scan = Plan::ScanProperty {
            property: 3,
            s: None,
            o: None,
            emit_property: false,
        };
        assert_eq!(derive(&scan, &pso()).sorted_by, Some(vec![0, 1]));
        let emit = Plan::ScanProperty {
            property: 3,
            s: None,
            o: None,
            emit_property: true,
        };
        assert_eq!(derive(&emit, &pso()).sorted_by, Some(vec![0, 2, 1]));
        let bound_o = Plan::ScanProperty {
            property: 3,
            s: None,
            o: Some(5),
            emit_property: false,
        };
        assert_eq!(derive(&bound_o, &pso()).sorted_by, Some(vec![0, 1]));
    }

    #[test]
    fn projection_keeps_surviving_key_prefix() {
        // scan_p under PSO: sorted (s, o, p).
        let keep_s = project(scan_p(7), vec![0]);
        assert_eq!(derive(&keep_s, &pso()).sorted_by, Some(vec![0]));
        // Dropping the leading key column loses the order entirely.
        let keep_o = project(scan_p(7), vec![2]);
        assert_eq!(derive(&keep_o, &pso()).sorted_by, None);
        // Reordering maps key positions through the column list.
        let swap = project(scan_p(7), vec![2, 0]);
        assert_eq!(derive(&swap, &pso()).sorted_by, Some(vec![1, 0]));
    }

    #[test]
    fn merge_joins_preserve_left_order_hash_joins_do_not() {
        let sorted = Plan::ScanProperty {
            property: 1,
            s: None,
            o: None,
            emit_property: false,
        };
        let merged = join(sorted.clone(), sorted.clone(), 0, 0);
        let p = derive(&merged, &pso());
        assert_eq!(p.sorted_by, Some(vec![0, 1]));
        // Joining on the object column (not leading) falls back to hash.
        let hashed = join(sorted.clone(), sorted, 1, 1);
        assert_eq!(derive(&hashed, &pso()).sorted_by, None);
    }

    #[test]
    fn group_count_is_key_sorted_and_distinct() {
        let g = group_count(scan_all(), vec![2, 1]);
        let p = derive(&g, &pso());
        assert_eq!(p.sorted_by, Some(vec![0, 1, 2]));
        assert!(p.distinct);
        assert!(p.sorted_by_prefix(&[0]));
        assert!(p.sorted_by_prefix(&[0, 1]));
        assert!(p.covers_all_columns(3));
    }

    #[test]
    fn unions_destroy_order_unless_singleton() {
        let scan = Plan::ScanProperty {
            property: 1,
            s: None,
            o: None,
            emit_property: false,
        };
        let single = Plan::UnionAll {
            inputs: vec![scan.clone()],
        };
        assert_eq!(derive(&single, &pso()).sorted_by, Some(vec![0, 1]));
        let multi = Plan::UnionAll {
            inputs: vec![scan.clone(), scan],
        };
        assert_eq!(derive(&multi, &pso()), PhysProps::unordered());
    }

    #[test]
    fn distinct_sets_the_flag_and_keeps_order() {
        let d = Plan::Distinct {
            input: Box::new(scan_p(7)),
        };
        let p = derive(&d, &pso());
        assert_eq!(p.sorted_by, Some(vec![0, 2, 1]));
        assert!(p.distinct);
        // Projecting away a column forfeits distinctness...
        let narrowed = project(d.clone(), vec![0]);
        assert!(!derive(&narrowed, &pso()).distinct);
        // ...but a permutation keeps it.
        let permuted = project(d, vec![2, 0, 1]);
        assert!(derive(&permuted, &pso()).distinct);
    }

    #[test]
    fn pending_inserts_downgrade_only_reachable_scans() {
        let ctx = pso().with_pending_inserts([3]);
        // A property-unbound triples scan can see any pending insert.
        assert_eq!(derive(&scan_all(), &ctx), PhysProps::unordered());
        // A triples scan bound to the pending property is reachable...
        assert_eq!(derive(&scan_p(3), &ctx), PhysProps::unordered());
        // ...but one bound to an untouched property keeps its claims.
        assert_eq!(derive(&scan_p(7), &ctx).sorted_by, Some(vec![0, 2, 1]));
        let vp = |p: u64| Plan::ScanProperty {
            property: p,
            s: None,
            o: None,
            emit_property: false,
        };
        assert_eq!(derive(&vp(3), &ctx), PhysProps::unordered());
        assert_eq!(derive(&vp(4), &ctx).sorted_by, Some(vec![0, 1]));
        // Derived (not storage-inherited) orders survive: group-count
        // output is key-sorted regardless of scan order.
        let g = group_count(scan_all(), vec![1]);
        assert_eq!(derive(&g, &ctx).sorted_by, Some(vec![0, 1]));
    }

    #[test]
    fn tombstones_never_downgrade_order_claims() {
        let ctx = pso().with_pending_tombstones([3]);
        assert_eq!(derive(&scan_all(), &ctx).sorted_by, Some(vec![1, 0, 2]));
        assert_eq!(derive(&scan_p(3), &ctx).sorted_by, Some(vec![0, 2, 1]));
        assert!(ctx.tombstones_reach_triple_scan(Some(3)));
        assert!(!ctx.tombstones_reach_triple_scan(Some(4)));
        assert!(ctx.tombstones_reach_triple_scan(None));
    }

    #[test]
    fn explain_annotated_prints_props_per_node() {
        let p = join(scan_p(7), scan_p(8), 0, 0);
        let text = p.explain_annotated(&pso());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "Join(left.col0 = right.col0) [sorted_by=[0, 2, 1]]"
        );
        assert!(lines[1].contains("ScanTriples(s=?, p=7, o=?) [sorted_by=[0, 2, 1]]"));
        assert!(!text.contains("WriteStoreScan"), "no delta, no union node");
    }

    #[test]
    fn explain_annotated_renders_write_store_union_per_property() {
        let p = join(scan_p(7), scan_p(8), 0, 0);
        // Both scans' properties pending: both union, the join hashes.
        let text = p.explain_annotated(&pso().with_pending_inserts([7, 8]));
        assert!(text.contains("Join(left.col0 = right.col0) [unsorted]"));
        assert!(text.contains("∪ WriteStoreScan(pending delta) [unsorted]"));
        assert_eq!(text.matches("WriteStoreScan").count(), 2);

        // Only property 7 pending: scan 8 keeps its claim and prints no
        // union branch; the join still cannot merge (left side unsorted).
        let partial = p.explain_annotated(&pso().with_pending_inserts([7]));
        assert_eq!(partial.matches("WriteStoreScan").count(), 1, "{partial}");
        assert!(partial.contains("ScanTriples(s=?, p=8, o=?) [sorted_by="));

        // A pending insert for an unrelated property leaves the whole
        // tree untouched: merge join survives, no union branch prints.
        let unrelated = p.explain_annotated(&pso().with_pending_inserts([9]));
        assert!(!unrelated.contains("WriteStoreScan"), "{unrelated}");
        assert!(
            unrelated.contains("Join(left.col0 = right.col0) [sorted_by="),
            "{unrelated}"
        );
    }

    #[test]
    fn explain_annotated_renders_tombstone_filter_without_downgrade() {
        let p = join(scan_p(7), scan_p(8), 0, 0);
        let text = p.explain_annotated(&pso().with_pending_tombstones([7, 8]));
        // Tombstones alone preserve order: the join still merge-joins...
        assert!(
            text.contains("Join(left.col0 = right.col0) [sorted_by="),
            "{text}"
        );
        // ...but EXPLAIN still shows that every affected scan runs the
        // filter — and only the affected ones.
        assert_eq!(text.matches("WriteStoreScan(tombstone filter)").count(), 2);
        let partial = p.explain_annotated(&pso().with_pending_tombstones([8]));
        assert_eq!(
            partial.matches("WriteStoreScan(tombstone filter)").count(),
            1,
            "{partial}"
        );
    }

    #[test]
    fn explain_annotated_summarizes_wide_unions() {
        let u = Plan::UnionAll {
            inputs: (0..50)
                .map(|p| Plan::ScanProperty {
                    property: p,
                    s: None,
                    o: None,
                    emit_property: true,
                })
                .collect(),
        };
        let text = u.explain_annotated(&pso());
        assert!(text.contains("UnionAll(50 inputs) [unsorted]"));
        assert!(text.contains("49 more property-table scans"));
        assert!(text.lines().count() < 10);
    }

    #[test]
    fn run_encoding_originates_at_rle_scans_and_survives_monotone_ops() {
        let ctx = pso().with_rle_props([3]).with_triple_lead_rle();
        // VP subject column: run-encoded when the table is RLE and s is
        // unbound.
        let vp = |p: u64| Plan::ScanProperty {
            property: p,
            s: None,
            o: None,
            emit_property: false,
        };
        assert_eq!(derive(&vp(3), &ctx).run_encoded, vec![0]);
        assert_eq!(
            derive(&vp(4), &ctx).run_encoded,
            Vec::<usize>::new(),
            "not an RLE table"
        );
        let bound_s = Plan::ScanProperty {
            property: 3,
            s: Some(7),
            o: None,
            emit_property: false,
        };
        assert_eq!(
            derive(&bound_s, &ctx).run_encoded,
            Vec::<usize>::new(),
            "bound subject"
        );
        // Triples scan: the PSO lead column p is run-encoded only while
        // unbound.
        assert_eq!(derive(&scan_all(), &ctx).run_encoded, vec![1]);
        assert!(derive(&scan_p(3), &ctx).run_encoded.is_empty());
        // Selections and filters preserve the claim; projection remaps it.
        let filtered = Plan::FilterIn {
            input: Box::new(vp(3)),
            col: 1,
            values: vec![9],
        };
        assert_eq!(derive(&filtered, &ctx).run_encoded, vec![0]);
        let projected = project(vp(3), vec![1, 0]);
        assert_eq!(derive(&projected, &ctx).run_encoded, vec![1]);
        let dropped = project(vp(3), vec![1]);
        assert!(derive(&dropped, &ctx).run_encoded.is_empty());
        // Merge joins keep the left run column; hash joins drop it.
        let merged = join(vp(3), vp(3), 0, 0);
        assert_eq!(derive(&merged, &ctx).run_encoded, vec![0]);
        let hashed = join(vp(3), vp(3), 1, 1);
        assert!(derive(&hashed, &ctx).run_encoded.is_empty());
        // Group-count output and unions are flat.
        assert!(derive(&group_count(vp(3), vec![0]), &ctx)
            .run_encoded
            .is_empty());
        let union = Plan::UnionAll {
            inputs: vec![vp(3)],
        };
        assert!(derive(&union, &ctx).run_encoded.is_empty());
        assert_eq!(derive(&union, &ctx).sorted_by, Some(vec![0, 1]));
        // Pending deltas force the scan flat: inserts drop everything,
        // tombstones drop only the run claim.
        let pending = ctx.clone().with_pending_inserts([3]);
        assert_eq!(derive(&vp(3), &pending), PhysProps::unordered());
        let tomb = ctx.with_pending_tombstones([3]);
        let p = derive(&vp(3), &tomb);
        assert_eq!(p.sorted_by, Some(vec![0, 1]), "tombstones keep order");
        assert!(p.run_encoded.is_empty(), "but the union path is flat");
    }

    #[test]
    fn explain_annotated_renders_run_encoding() {
        let ctx = pso().with_rle_props([3]);
        let scan = Plan::ScanProperty {
            property: 3,
            s: None,
            o: None,
            emit_property: false,
        };
        let text = scan.explain_annotated(&ctx);
        assert!(text.contains("runs@0"), "{text}");
        let plain = scan.explain_annotated(&pso());
        assert!(!plain.contains("runs@"), "{plain}");
    }

    #[test]
    fn helper_predicates() {
        let p = PhysProps {
            sorted_by: Some(vec![1, 0]),
            distinct: false,
            run_encoded: Vec::new(),
        };
        assert!(p.sorted_on(1));
        assert!(!p.sorted_on(0));
        assert!(p.sorted_by_prefix(&[1]));
        assert!(p.sorted_by_prefix(&[1, 0]));
        assert!(!p.sorted_by_prefix(&[0]));
        assert!(p.covers_all_columns(2));
        assert!(!p.covers_all_columns(3));
        assert!(!PhysProps::unordered().sorted_on(0));
    }
}
