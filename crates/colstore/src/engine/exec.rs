//! Plan execution: the one compile → execute → account path
//! ([`ColumnEngine::execute`] and its row-major forms), the recursive
//! operator dispatch, and the debug shadow validator.
//!
//! Dispatch is *sortedness-aware*: before a join, group, or distinct, the
//! executor derives the input's physical properties
//! ([`swans_plan::props`]) and picks the order-exploiting kernel when the
//! derivation allows. The kernels themselves live in the sibling
//! `kernels` module, the base scans in `scan`.

use std::sync::atomic::Ordering;

use swans_plan::algebra::{leapfrog_fold, CmpOp, Plan};
use swans_plan::exec::{EngineError, QueryBudget};
use swans_plan::props::{derive as derive_props, PropsContext};

use super::store::{bump, ColumnEngine};
use crate::chunk::{Chunk, ColData};
use crate::ops::{self, RunsView};

/// Everything an operator evaluation carries besides the plan: the
/// physical-property context the dispatch decisions derive against and
/// the caller's resource budget (deadline, cancellation token, memory
/// limit). Bundled so the recursive executor threads one reference.
struct ExecCtx<'a> {
    props: &'a PropsContext,
    budget: &'a QueryBudget,
}

/// A sorted chunk column as the merge kernels read it: the run headers
/// when it arrived run-encoded, the flat values otherwise.
fn runs_view(chunk: &Chunk, col: usize) -> RunsView<'_> {
    match chunk.col_runs(col) {
        Some(runs) => RunsView::Runs(runs),
        None => RunsView::Flat(chunk.col(col)),
    }
}

#[inline]
pub(super) fn bit(i: usize) -> u64 {
    1u64 << i
}

#[inline]
fn full_mask(arity: usize) -> u64 {
    if arity >= 64 {
        u64::MAX
    } else {
        (1u64 << arity) - 1
    }
}

#[inline]
fn low_bits(mask: u64, n: usize) -> u64 {
    mask & full_mask(n)
}

impl ColumnEngine {
    /// Executes a logical plan, returning the result as a column
    /// [`Chunk`] (columns the whole plan kept run-encoded stay so).
    ///
    /// The plan is validated first; structural problems, scans against a
    /// layout this engine never loaded, and unsupported constructs all
    /// surface as [`EngineError`] — plan execution never panics.
    ///
    /// Join chains are first re-planned by the cost-based enumerator
    /// ([`optimize_cbo`](swans_plan::optimize::optimize_cbo): DP over the join graph plus the leapfrog star
    /// kernel, priced against the statistics catalog, memoized per
    /// submitted plan) — a physical rewrite that never changes answers,
    /// only which kernel runs. With verification active
    /// ([`ColumnEngine::set_verify`]; the default in debug builds), the
    /// plan *as executed* — after the rewrite, under this engine's layout
    /// context — additionally passes the static verifier first, so an
    /// unjustifiable property claim is an [`EngineError::Verify`] naming
    /// the operator, not a wrong answer.
    pub fn execute(&self, plan: &Plan) -> Result<Chunk, EngineError> {
        self.run(plan, &QueryBudget::unlimited(), Ok)
    }

    /// [`ColumnEngine::execute_budgeted`] without a budget.
    pub fn execute_rows(&self, plan: &Plan) -> Result<Vec<Vec<u64>>, EngineError> {
        self.execute_budgeted(plan, &QueryBudget::unlimited())
    }

    /// Executes a logical plan under a resource budget, decoded to
    /// row-major form. The deadline, cancellation token, and memory limit
    /// of `budget` are checked cooperatively — per operator and per
    /// morsel inside the partitioned kernels — and a tripped budget
    /// surfaces as [`EngineError::Cancelled`] (never a panic, never a
    /// poisoned lock). Tracked allocations (join pair vectors,
    /// aggregation tables, result materialization) are charged to the
    /// budget as they grow, so a memory-limit abort happens *during* a
    /// blow-up, not after it; the row-major copy itself is charged
    /// before it is built.
    ///
    /// This is the result boundary of compressed execution: any column
    /// that stayed run-encoded through the whole plan is expanded here
    /// (and counted in [`ExecStatsSnapshot::runs_expanded`](super::ExecStatsSnapshot::runs_expanded)).
    pub fn execute_budgeted(
        &self,
        plan: &Plan,
        budget: &QueryBudget,
    ) -> Result<Vec<Vec<u64>>, EngineError> {
        self.run(plan, budget, |chunk| {
            budget.charge(8 * (chunk.arity() as u64) * chunk.len() as u64)?;
            for i in 0..chunk.arity() {
                if chunk.col_expansion_pending(i) {
                    bump(&self.stats.runs_expanded);
                }
            }
            Ok(chunk.to_rows())
        })
    }

    /// The one execution path: validate, re-plan, verify, execute, hand
    /// the result chunk to `finish` (the caller's result boundary), then
    /// account the budget's memory peak and a cancellation in the
    /// dispatch counters.
    fn run<T>(
        &self,
        plan: &Plan,
        budget: &QueryBudget,
        finish: impl FnOnce(Chunk) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let result = (|| {
            plan.validate().map_err(EngineError::InvalidPlan)?;
            // One context per execution: the derivation (and the join
            // enumeration) must see a consistent write-store state
            // throughout.
            let ctx = self.props_ctx();
            // Run claims of the plan *as submitted* — the claim surface
            // the caller derived against, which the optimizer rewrite
            // below must not exceed (enforced at the result boundary
            // after execution).
            let submitted_runs = derive_props(plan, &ctx).run_encoded;
            let cached;
            let plan = if swans_plan::optimize::has_join(plan) {
                cached = self.cached_cbo(plan, &ctx);
                &*cached
            } else {
                plan
            };
            if self.verify {
                swans_plan::verify::verify(plan, &ctx).map_err(EngineError::Verify)?;
            }
            let ectx = ExecCtx {
                props: &ctx,
                budget,
            };
            let mut chunk = self.exec(plan, full_mask(plan.arity()), &ectx)?;
            // Converse run invariant at the caller boundary: the
            // rewritten plan may legitimately keep different columns
            // run-encoded (a cheaper join order moves which merge-join
            // left side survives compressed); expand any run column the
            // submitted plan never claimed, and count the expansion like
            // any result-boundary one.
            for i in 0..chunk.arity() {
                if chunk.col_is_runs(i) && !submitted_runs.contains(&i) {
                    bump(&self.stats.runs_expanded);
                    chunk.expand_col(i);
                }
            }
            finish(chunk)
        })();
        self.stats
            .peak_mem_bytes
            .fetch_max(budget.peak_mem_bytes(), Ordering::Relaxed);
        if matches!(result, Err(EngineError::Cancelled { .. })) {
            bump(&self.stats.cancelled_queries);
        }
        result
    }

    fn exec(&self, plan: &Plan, needed: u64, ctx: &ExecCtx<'_>) -> Result<Chunk, EngineError> {
        // Cooperative cancellation: every operator entry checks the
        // budget (deadline clock + latched token), so deep plans bail
        // between operators even when no kernel below notices.
        ctx.budget.check()?;
        let chunk = match plan {
            Plan::ScanTriples { s, p, o } => self.scan_triples(ctx.budget, [*s, *p, *o], needed)?,
            Plan::ScanProperty {
                property,
                s,
                o,
                emit_property,
            } => self.scan_property(ctx.budget, *property, *s, *o, *emit_property, needed)?,
            Plan::Select { input, pred } => {
                let child = self.exec(input, needed | bit(pred.col), ctx)?;
                let view = runs_view(&child, pred.col);
                if view.is_runs() {
                    bump(&self.stats.run_kernel_dispatches);
                }
                // An equality predicate on the child's leading sort column
                // resolves by binary search instead of a full scan — over
                // the run headers when the column is run-encoded.
                if pred.op == CmpOp::Eq && derive_props(input, ctx.props).sorted_on(pred.col) {
                    bump(&self.stats.sorted_selects);
                    child.gather_range(view.eq_range(pred.value))
                } else {
                    let negate = pred.op == CmpOp::Ne;
                    let sel = match view {
                        // Run-encoded column: one predicate test per run.
                        RunsView::Runs(runs) => ops::select_cmp_runs(runs, pred.value, negate),
                        RunsView::Flat(data) => self.par_filter(ctx.budget, 0..data.len(), |r| {
                            ops::select_cmp(&data[r], pred.value, negate)
                        }),
                    };
                    self.par_gather(ctx.budget, &child, &sel, true)?
                }
            }
            Plan::FilterIn { input, col, values } => {
                let child = self.exec(input, needed | bit(*col), ctx)?;
                // A derived-sorted filter column answers each probe value
                // by binary search (k·log n) instead of the linear
                // membership scan; run-encoded columns probe the (much
                // shorter) run headers. Both emit the exact ascending
                // position vector of the linear kernel.
                let view = runs_view(&child, *col);
                if view.is_runs() {
                    bump(&self.stats.run_kernel_dispatches);
                }
                let sel = if derive_props(input, ctx.props).sorted_on(*col) {
                    bump(&self.stats.sorted_in_selects);
                    ops::select_in_sorted(view, values)
                } else {
                    match view {
                        RunsView::Runs(runs) => ops::select_in_runs(runs, values),
                        RunsView::Flat(data) => self.par_filter(ctx.budget, 0..data.len(), |r| {
                            ops::select_in(&data[r], values)
                        }),
                    }
                };
                self.par_gather(ctx.budget, &child, &sel, true)?
            }
            Plan::Join {
                left,
                right,
                left_col,
                right_col,
            } => {
                let la = left.arity();
                let left_needed = low_bits(needed, la) | bit(*left_col);
                let right_needed = (needed >> la) | bit(*right_col);
                let l = self.exec(left, left_needed, ctx)?;
                let r = self.exec(right, right_needed, ctx)?;
                // Both join columns derived-sorted: the linear merge join
                // the sorted layouts were built for. Otherwise hash.
                let use_merge = derive_props(left, ctx.props).sorted_on(*left_col)
                    && derive_props(right, ctx.props).sorted_on(*right_col);
                let (lsel, rsel) = if use_merge {
                    bump(&self.stats.merge_joins);
                    let (lv, rv) = (runs_view(&l, *left_col), runs_view(&r, *right_col));
                    if lv.is_runs() || rv.is_runs() {
                        // At least one side is run-encoded: the run×block
                        // walk advances whole runs on that side.
                        bump(&self.stats.run_kernel_dispatches);
                    }
                    self.par_merge_join_runs(ctx.budget, lv, rv)?
                } else {
                    bump(&self.stats.hash_joins);
                    self.par_hash_join(
                        ctx.budget,
                        self.flat(&l, *left_col),
                        self.flat(&r, *right_col),
                    )?
                };
                // The join columns were materialized for probing, but the
                // parent may never read them — drop those before the
                // gather instead of copying (or run-expanding) them into
                // the output. The root executes under a full mask, so
                // result columns are never pruned here.
                let mut l = l;
                if low_bits(needed, la) & bit(*left_col) == 0 {
                    l.take_col(*left_col);
                }
                let mut r = r;
                if (needed >> la) & bit(*right_col) == 0 {
                    r.take_col(*right_col);
                }
                // The derivation claims run columns survive only a merge
                // join's *left* side; the right gather (and both sides of
                // a hash join, whose probe selection can happen to be
                // monotone) must come out flat so no run column is ever
                // produced unclaimed.
                let lg = self.par_gather(ctx.budget, &l, &lsel, use_merge)?;
                let rg = self.par_gather(ctx.budget, &r, &rsel, false)?;
                let mut cols = lg.into_cols();
                cols.extend(rg.into_cols());
                Chunk::from_optional(lsel.len(), cols)
            }
            Plan::LeapfrogJoin { inputs, cols } => {
                // The multi-way star kernel requires every input
                // derived-sorted on its key column; an input that lost
                // its order sends the whole node through its equivalent
                // binary-join fold.
                let dispatch = inputs
                    .iter()
                    .zip(cols)
                    .all(|(inp, &c)| derive_props(inp, ctx.props).sorted_on(c));
                if !dispatch {
                    return self.exec(&leapfrog_fold(inputs, cols), needed, ctx);
                }
                bump(&self.stats.leapfrog_dispatches);
                let mut children = Vec::with_capacity(inputs.len());
                let mut off = 0usize;
                for (inp, &c) in inputs.iter().zip(cols) {
                    let a = inp.arity();
                    children.push(self.exec(inp, low_bits(needed >> off, a) | bit(c), ctx)?);
                    off += a;
                }
                let sels = {
                    let keys: Vec<RunsView<'_>> = children
                        .iter()
                        .zip(cols)
                        .map(|(ch, &c)| runs_view(ch, c))
                        .collect();
                    ops::leapfrog_join(&keys)
                };
                let len = sels[0].len();
                // The kernel materialized one selection vector per input.
                ctx.budget.charge(4 * (sels.len() as u64) * len as u64)?;
                let mut out: Vec<Option<ColData>> = Vec::new();
                let mut off = 0usize;
                for ((mut ch, sel), &c) in children.into_iter().zip(&sels).zip(cols) {
                    let a = ch.arity();
                    // Key columns the parent never reads are dropped
                    // before the gather (the binary join's key-drop
                    // rule, applied per input).
                    if (needed >> off) & bit(c) == 0 {
                        ch.take_col(c);
                    }
                    // The derivation claims no run columns on leapfrog
                    // output — every gather comes out flat.
                    out.extend(self.par_gather(ctx.budget, &ch, sel, false)?.into_cols());
                    off += a;
                }
                Chunk::from_optional(len, out)
            }
            Plan::Project { input, cols } => {
                let mut child_needed = 0u64;
                let mut uses = vec![0u32; input.arity()];
                for (out_i, &in_c) in cols.iter().enumerate() {
                    if needed & bit(out_i) != 0 {
                        child_needed |= bit(in_c);
                        uses[in_c] += 1;
                    }
                }
                let child = self.exec(input, child_needed, ctx)?;
                let len = child.len();
                let mut child_cols = child.into_cols();
                let out: Vec<Option<ColData>> = cols
                    .iter()
                    .enumerate()
                    .map(|(out_i, &in_c)| {
                        if needed & bit(out_i) == 0 {
                            return None;
                        }
                        uses[in_c] -= 1;
                        if uses[in_c] == 0 {
                            child_cols[in_c].take() // move on last use
                        } else {
                            child_cols[in_c].clone()
                        }
                    })
                    .collect();
                Chunk::from_optional(len, out)
            }
            Plan::GroupCount { input, keys } => {
                let mut child_needed = 0u64;
                for &k in keys {
                    child_needed |= bit(k);
                }
                let child = self.exec(input, child_needed, ctx)?;
                if !keys.is_empty() && derive_props(input, ctx.props).sorted_by_prefix(keys) {
                    // Input sorted by exactly the grouping keys: groups
                    // are contiguous runs — aggregate linearly, no hash
                    // table. A run-encoded lead key IS the outer loop:
                    // its run values are the keys, its run lengths the
                    // counts (or the blocks the other keys sub-split).
                    bump(&self.stats.sorted_group_counts);
                    let lead = runs_view(&child, keys[0]);
                    if lead.is_runs() {
                        bump(&self.stats.run_kernel_dispatches);
                    }
                    let rest: Vec<&[u64]> =
                        keys[1..].iter().map(|&k| self.flat(&child, k)).collect();
                    self.par_sorted_group_count(lead, &rest)
                } else {
                    bump(&self.stats.hash_group_counts);
                    let cols: Vec<&[u64]> = keys.iter().map(|&k| self.flat(&child, k)).collect();
                    self.par_hash_group_count(ctx.budget, &cols, child.len())?
                }
            }
            Plan::HavingCountGt { input, min } => {
                let count_col = input.arity() - 1;
                let child = self.exec(input, needed | bit(count_col), ctx)?;
                let data = child.col(count_col);
                let sel: Vec<u32> = (0..child.len() as u32)
                    .filter(|&i| data[i as usize] > *min)
                    .collect();
                child.gather(&sel)
            }
            Plan::UnionAll { inputs } => {
                // The union always *materializes* its output — this is the
                // per-table copy/append overhead vertically-partitioned
                // plans pay on property-unbound accesses (§4.2).
                let arity = plan.arity();
                let mut acc: Vec<Option<Vec<u64>>> = (0..arity)
                    .map(|i| {
                        if needed & bit(i) != 0 {
                            Some(Vec::new())
                        } else {
                            None
                        }
                    })
                    .collect();
                let mut len = 0usize;
                for inp in inputs {
                    let c = self.exec(inp, needed, ctx)?;
                    // Each appended input is a fresh copy — the
                    // materialization cost unions always pay — so charge
                    // it before the copy happens.
                    ctx.budget
                        .charge(8 * (plan.arity() as u64) * c.len() as u64)?;
                    len += c.len();
                    let cols = c.into_cols();
                    for (i, acc_col) in acc.iter_mut().enumerate() {
                        if let Some(a) = acc_col {
                            if let Some(src) = &cols[i] {
                                // A run-encoded input appends run by run
                                // (a fill per run — cheaper than the flat
                                // copy, and no intermediate expansion).
                                if let Some(runs) = src.as_runs() {
                                    a.reserve(runs.len());
                                    for (v, r) in runs.runs() {
                                        a.resize(a.len() + r.len(), v);
                                    }
                                } else {
                                    a.extend_from_slice(src.as_slice());
                                }
                            }
                        }
                    }
                }
                Chunk::from_optional(
                    len,
                    acc.into_iter().map(|c| c.map(ColData::Owned)).collect(),
                )
            }
            Plan::Distinct { input } => {
                let props = derive_props(input, ctx.props);
                // Derived-distinct input: nothing to eliminate — pass the
                // child through (only the columns the parent needs).
                if props.distinct {
                    bump(&self.stats.distinct_passthroughs);
                    return self.exec(input, needed, ctx);
                }
                // Row-level distinct requires every column, flat (the
                // run-preserving gather below still keeps run columns
                // run-encoded in the *output*).
                let child = self.exec(input, full_mask(input.arity()), ctx)?;
                let cols: Vec<&[u64]> = (0..child.arity()).map(|i| self.flat(&child, i)).collect();
                let sel = if props.covers_all_columns(input.arity()) {
                    // Fully sorted input: duplicates are adjacent.
                    bump(&self.stats.sorted_distincts);
                    self.par_filter(ctx.budget, 0..child.len(), |r| {
                        ops::distinct_sorted(&cols, r)
                    })
                } else {
                    bump(&self.stats.sort_distincts);
                    self.par_distinct_hash(ctx.budget, &cols, child.len())?
                };
                drop(cols);
                self.par_gather(ctx.budget, &child, &sel, true)?
            }
        };
        // Post-operator budget check *before* the shadow validator: a
        // latched budget means the kernels above may have early-outed with
        // partial output, which must surface as Cancelled, not as a
        // property-claim violation on garbage.
        ctx.budget.check()?;
        #[cfg(debug_assertions)]
        self.shadow_validate(plan, ctx.props, &chunk);
        Ok(chunk)
    }

    /// Debug-mode shadow validator: spot-checks the
    /// [`PhysProps`](swans_plan::props::PhysProps) claims
    /// the dispatcher relied on against the operator's *actual* output.
    /// Compiled only under `debug_assertions`; every test-suite execution
    /// therefore cross-examines the property derivation at every plan
    /// node.
    ///
    /// Checks, in order:
    /// * output arity matches the plan (the join key-drop rule: pruned
    ///   columns stay *absent at their position*, never shifting the
    ///   schema),
    /// * the run-encoding converse invariant — a column is only ever
    ///   produced run-encoded at a claimed position,
    /// * the claimed sort key really is lexicographically
    ///   non-decreasing, and a claimed-distinct output really has no
    ///   duplicate rows. Both checks sample adjacent row pairs (capped)
    ///   and read run columns through their headers, so no run column is
    ///   expanded early — the expansion accounting the compressed-
    ///   execution stats assert on stays untouched.
    #[cfg(debug_assertions)]
    fn shadow_validate(&self, plan: &Plan, ctx: &PropsContext, chunk: &Chunk) {
        assert_eq!(
            chunk.arity(),
            plan.arity(),
            "shadow validator: output arity diverges from the plan at {}",
            plan.explain().lines().next().unwrap_or_default()
        );
        let props = derive_props(plan, ctx);
        // Converse run invariant: runs only at claimed positions.
        for i in 0..chunk.arity() {
            if chunk.col_is_runs(i) {
                assert!(
                    props.run_encoded.contains(&i),
                    "shadow validator: column {i} is run-encoded but unclaimed at {}",
                    plan.explain().lines().next().unwrap_or_default()
                );
            }
        }
        // Read a cell without expanding a run column (expansion would
        // corrupt the runs_expanded accounting the stats tests pin).
        let cell = |col: usize, row: usize| match chunk.col_runs(col) {
            Some(runs) => runs.value_at(row),
            None => chunk.col(col)[row],
        };
        let len = chunk.len();
        if let Some(key) = &props.sorted_by {
            let present: Vec<usize> = key
                .iter()
                .take_while(|&&k| chunk.has_col(k))
                .copied()
                .collect();
            if !present.is_empty() && len > 1 {
                // All adjacent pairs for small outputs, an even sample
                // for large ones — enough to catch a wrong dispatch
                // without quadratic (or even full-linear) debug cost.
                const MAX_PAIRS: usize = 1 << 12;
                let step = ((len - 1) / MAX_PAIRS).max(1);
                let mut row = 0;
                while row + 1 < len {
                    // Lexicographic comparison on the present key prefix.
                    let mut lex_ok = true;
                    for &k in &present {
                        match cell(k, row).cmp(&cell(k, row + 1)) {
                            std::cmp::Ordering::Less => break,
                            std::cmp::Ordering::Equal => {}
                            std::cmp::Ordering::Greater => {
                                lex_ok = false;
                                break;
                            }
                        }
                    }
                    assert!(
                        lex_ok,
                        "shadow validator: claimed sorted_by={key:?} violated between \
                         rows {row} and {} at {}",
                        row + 1,
                        plan.explain().lines().next().unwrap_or_default()
                    );
                    row += step;
                }
            }
        }
        if props.distinct
            && len > 1
            && len <= 1 << 12
            && (0..chunk.arity()).all(|i| chunk.has_col(i))
        {
            let mut rows: Vec<Vec<u64>> = (0..len)
                .map(|r| (0..chunk.arity()).map(|c| cell(c, r)).collect())
                .collect();
            rows.sort_unstable();
            let before = rows.len();
            rows.dedup();
            assert_eq!(
                before,
                rows.len(),
                "shadow validator: claimed distinct output contains duplicates at {}",
                plan.explain().lines().next().unwrap_or_default()
            );
        }
    }
}
