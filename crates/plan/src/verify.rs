//! Static plan verification: flow typing, property soundness and
//! executor legality, checked *before* a plan runs.
//!
//! The physical-property machinery of [`crate::props`] is what makes the
//! column engine fast — and what makes it fragile: a `sorted_by` claim
//! the layout cannot justify silently turns a merge join into a wrong
//! answer, not an error. This module makes plan well-formedness a
//! checkable artifact, the way MonetDB-style systems survive plan-shape
//! explosions. [`verify`] walks a plan once and checks three layers:
//!
//! 1. **Flow typing** — every column reference (select predicates, join
//!    keys, projections, grouping keys) is in range for its input's
//!    arity, unions are non-empty and input-compatible in both arity and
//!    [`ColumnKind`](crate::algebra::ColumnKind)s, a `LeapfrogJoin` has ≥ 2 inputs and one key per
//!    input, and `HavingCountGt` never runs over an empty schema.
//!    [`Plan::validate`] is this layer alone, rendered as a string.
//!    Errors are typed and name the offending operator by plan path.
//! 2. **Property soundness** — every [`PhysProps`] claim (`sorted_by`,
//!    `distinct`, `run_encoded`) attached to a node must be *justified*
//!    by the node's inputs, the storage layout and the [`PropsContext`]
//!    (pending-delta downgrades, per-property RLE flags). The checker
//!    recomputes what each operator can truthfully promise — crucially,
//!    using the *claimed* child properties for dispatch decisions, the
//!    way the executor does — and rejects any claim that exceeds it: a
//!    sort key must be a prefix of the justified key, `distinct` needs a
//!    distinct-preserving derivation, and a run-encoding position must
//!    trace back to an RLE-stored scan through monotone operators only.
//! 3. **Executor legality** — a merge join is only claimed where both
//!    inputs are compatibly sorted on their join columns (otherwise the
//!    engine hashes and the output order claim must drop), and run
//!    columns never flow into flat-materializing consumers (group-count,
//!    unions, hash joins) still claimed. A [`Plan::LeapfrogJoin`] is
//!    judged as the binary [`leapfrog_fold`] both engines execute. Join key-drop legality — output
//!    arity staying `left + right` with pruned columns only at
//!    unreferenced positions — is a runtime-mask property and is checked
//!    by the column engine's debug shadow validator instead.
//!
//! [`verify`] derives the claims itself (via [`Claims::derive_tree`]) and
//! therefore accepts every plan whose derivation is internally
//! consistent; [`verify_claims`] checks an *externally supplied* claim
//! tree, which is what the plan-mutation fuzzer in `tests/random_plans.rs`
//! uses to prove the checker rejects corrupted claims.
//!
//! Wiring: `Database::explain`/`explain_text` always verify,
//! `ColumnEngine::execute` verifies in debug builds and under the opt-in
//! `StoreConfig::with_verify(true)`, and verification failures surface as
//! [`crate::EngineError::Verify`] carrying the rendered plan path.

use crate::algebra::{leapfrog_fold, Plan};
use crate::props::{derive, PhysProps, PropsContext};

/// A path from the plan root to one node: the child index taken at every
/// step (`Join` children are `0` = left, `1` = right; unary operators
/// have the single child `0`; `UnionAll` children are input positions).
///
/// Renders as `$` for the root and `$.1.0` for "root's child 1's child
/// 0" — the form [`VerifyError`] embeds so EXPLAIN output and engine
/// errors point at the exact operator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanPath(Vec<usize>);

impl PlanPath {
    /// The path naming the plan root.
    pub fn root() -> Self {
        Self::default()
    }

    /// The path built from explicit child indices (root → node).
    pub fn from_segments(segments: Vec<usize>) -> Self {
        Self(segments)
    }

    /// The child indices from the root down to the node.
    pub fn segments(&self) -> &[usize] {
        &self.0
    }

    /// Whether this path names the root itself.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::fmt::Display for PlanPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "$")?;
        for seg in &self.0 {
            write!(f, ".{seg}")?;
        }
        Ok(())
    }
}

/// Child `i` of a plan node in [`PlanPath`] index order (`None` past the
/// last).
fn child(plan: &Plan, i: usize) -> Option<&Plan> {
    match plan {
        Plan::ScanTriples { .. } | Plan::ScanProperty { .. } => None,
        Plan::Select { input, .. }
        | Plan::FilterIn { input, .. }
        | Plan::Project { input, .. }
        | Plan::GroupCount { input, .. }
        | Plan::HavingCountGt { input, .. }
        | Plan::Distinct { input } => (i == 0).then_some(&**input),
        Plan::Join { left, right, .. } => [&**left, &**right].get(i).copied(),
        Plan::UnionAll { inputs } | Plan::LeapfrogJoin { inputs, .. } => inputs.get(i),
    }
}

/// The immediate children of a plan node, in [`PlanPath`] index order.
fn children(plan: &Plan) -> impl Iterator<Item = &Plan> {
    (0..).map_while(move |i| child(plan, i))
}

/// Resolves a [`PlanPath`] against a plan, returning the node it names
/// (or `None` if the path walks off the tree).
pub fn locate<'a>(plan: &'a Plan, path: &PlanPath) -> Option<&'a Plan> {
    let mut node = plan;
    for &seg in path.segments() {
        node = child(node, seg)?;
    }
    Some(node)
}

/// A tree of [`PhysProps`] claims parallel to a plan: one entry per
/// node, children in [`PlanPath`] index order.
///
/// [`verify`] builds this with [`Claims::derive_tree`]; the mutation
/// fuzzer corrupts individual entries and feeds the result to
/// [`verify_claims`] to prove the checker notices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claims {
    /// The claimed output properties of this node.
    pub props: PhysProps,
    /// Claims for the node's children, in child-index order.
    pub children: Vec<Claims>,
}

impl Claims {
    /// The claim tree the optimizer itself derives: [`fn@derive`] applied
    /// to every node under `ctx`.
    pub fn derive_tree(plan: &Plan, ctx: &PropsContext) -> Self {
        Self {
            props: derive(plan, ctx),
            children: children(plan).map(|c| Self::derive_tree(c, ctx)).collect(),
        }
    }

    /// A mutable reference to the claim entry at `path`, if the path is
    /// on the tree.
    pub fn at_mut(&mut self, path: &PlanPath) -> Option<&mut Claims> {
        let mut node = self;
        for &seg in path.segments() {
            node = node.children.get_mut(seg)?;
        }
        Some(node)
    }
}

/// What a [`VerifyError`] found wrong at its node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyErrorKind {
    /// A column reference (join key, predicate, projection or grouping
    /// column) is out of range for the node's input arity.
    ColumnOutOfRange {
        /// Which reference is broken ("Select predicate", "Join left
        /// key", ...).
        role: &'static str,
        /// The referenced column.
        col: usize,
        /// The input arity it must be below.
        arity: usize,
    },
    /// A `UnionAll` with no inputs (its arity and kinds are undefined).
    EmptyUnion,
    /// A `UnionAll` input whose arity differs from input 0's.
    UnionArityMismatch {
        /// The offending input position.
        input: usize,
        /// Its arity.
        got: usize,
        /// Input 0's arity.
        want: usize,
    },
    /// A `UnionAll` input whose [`ColumnKind`](crate::algebra::ColumnKind)s differ from input 0's —
    /// a count column unioned under a term column would decode wrongly.
    UnionKindMismatch {
        /// The offending input position.
        input: usize,
    },
    /// A `HavingCountGt` over an arity-0 input (there is no last column
    /// to read the count from).
    EmptySchema,
    /// A `LeapfrogJoin` with fewer than two inputs, or not exactly one
    /// key column per input.
    MalformedStar {
        /// Its input count.
        inputs: usize,
        /// Its key-column count.
        cols: usize,
    },
    /// The claim tree does not fit the plan, or a claim is internally
    /// malformed (key/run positions out of range or duplicated).
    ClaimShape {
        /// What exactly is malformed.
        detail: String,
    },
    /// A `sorted_by` claim that is not a prefix of the order the node
    /// can justify — executing it would merge-join (or binary-search,
    /// or run-aggregate) rows that are not actually sorted.
    UnsoundSortClaim {
        /// The claimed key.
        claimed: Vec<usize>,
        /// The longest key the checker can justify (`None` = unsorted).
        justified: Option<Vec<usize>>,
    },
    /// A `distinct` claim with no distinct-preserving justification —
    /// a downstream `Distinct` would skip deduplication and emit
    /// duplicate rows.
    UnsoundDistinctClaim,
    /// A `run_encoded` position that does not trace back to an
    /// RLE-stored scan through monotone operators.
    UnsoundRunClaim {
        /// The claimed run position.
        col: usize,
        /// The positions the checker can justify.
        justified: Vec<usize>,
    },
    /// A `run_encoded` claim on the output of a flat-materializing
    /// operator (group-count, multi-input union, hash join) — run
    /// columns never survive these, claimed or not.
    RunClaimAtFlatOperator {
        /// The claimed run position.
        col: usize,
    },
}

/// A typed plan-verification failure: what is wrong, and at exactly
/// which operator (by [`PlanPath`] and rendered label).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Path from the root to the offending node.
    pub path: PlanPath,
    /// The offending node's rendered label (e.g. `Join(left.col0 =
    /// right.col0)`).
    pub node: String,
    /// What is wrong there.
    pub kind: VerifyErrorKind,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at {} [{}]: ", self.path, self.node)?;
        match &self.kind {
            VerifyErrorKind::ColumnOutOfRange { role, col, arity } => {
                write!(f, "{role} references column {col} of an arity-{arity} input")
            }
            VerifyErrorKind::EmptyUnion => write!(f, "UnionAll with no inputs"),
            VerifyErrorKind::UnionArityMismatch { input, got, want } => {
                write!(f, "union input {input} has arity {got} but input 0 has {want}")
            }
            VerifyErrorKind::UnionKindMismatch { input } => {
                write!(f, "union input {input} has different column kinds than input 0")
            }
            VerifyErrorKind::EmptySchema => write!(f, "HavingCountGt over an empty schema"),
            VerifyErrorKind::MalformedStar { inputs, cols } => write!(
                f,
                "LeapfrogJoin over {inputs} inputs with {cols} key columns \
                 (needs at least 2, one key per input)"
            ),
            VerifyErrorKind::ClaimShape { detail } => write!(f, "malformed claim: {detail}"),
            VerifyErrorKind::UnsoundSortClaim { claimed, justified } => {
                write!(f, "claimed sorted_by={claimed:?} cannot be justified (")?;
                match justified {
                    Some(k) => write!(f, "justified: sorted_by={k:?})"),
                    None => write!(f, "justified: unsorted)"),
                }
            }
            VerifyErrorKind::UnsoundDistinctClaim => {
                write!(f, "claimed distinct cannot be justified")
            }
            VerifyErrorKind::UnsoundRunClaim { col, justified } => write!(
                f,
                "claimed run-encoding at column {col} cannot be justified (justified: {justified:?})"
            ),
            VerifyErrorKind::RunClaimAtFlatOperator { col } => write!(
                f,
                "claimed run-encoding at column {col} on a flat-materializing operator"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// What a successful verification covered — rendered by
/// `Database::explain_text` as the plan's verification footer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Operator nodes checked.
    pub nodes: usize,
    /// Joins whose claims dispatch them as merge joins.
    pub merge_joins: usize,
    /// Nodes claiming at least one run-encoded output column.
    pub run_claims: usize,
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "verified: {} nodes, {} merge joins, {} run-encoded claims",
            self.nodes, self.merge_joins, self.run_claims
        )
    }
}

/// Verifies `plan` under `ctx` using the claims the optimizer itself
/// derives — the pre-execution check the engines and `Database::explain`
/// run. See the module docs for the three layers checked.
pub fn verify(plan: &Plan, ctx: &PropsContext) -> Result<VerifyReport, VerifyError> {
    // Flow typing first: the claim derivation assumes a well-formed plan.
    check_flow(plan)?;
    check_claims(plan, &Claims::derive_tree(plan, ctx), ctx)
}

/// Verifies `plan` against an *externally supplied* claim tree — the
/// entry point the mutation fuzzer uses to prove corrupted claims are
/// rejected. [`verify`] is `verify_claims` over [`Claims::derive_tree`].
pub fn verify_claims(
    plan: &Plan,
    claims: &Claims,
    ctx: &PropsContext,
) -> Result<VerifyReport, VerifyError> {
    check_flow(plan)?;
    check_claims(plan, claims, ctx)
}

/// The property layers over a flow-typed plan.
fn check_claims(
    plan: &Plan,
    claims: &Claims,
    ctx: &PropsContext,
) -> Result<VerifyReport, VerifyError> {
    let mut report = VerifyReport::default();
    let mut path = Vec::new();
    check(plan, claims, ctx, &mut path, &mut report)?;
    Ok(report)
}

/// The flow-typing layer over a whole plan, children first, so the
/// deepest broken operator is reported. It allocates only to build an
/// error, because [`Plan::validate`] (this walk, rendered) runs on every
/// engine request.
pub(crate) fn check_flow(plan: &Plan) -> Result<(), VerifyError> {
    for (i, kid) in children(plan).enumerate() {
        check_flow(kid).map_err(|mut e| {
            e.path.0.insert(0, i);
            e
        })?;
    }
    check_structure(plan).map_err(|kind| err(kind, &[], plan))
}

/// One verification error at the current path.
fn err(kind: VerifyErrorKind, path: &[usize], plan: &Plan) -> VerifyError {
    VerifyError {
        path: PlanPath(path.to_vec()),
        node: plan.node_label(),
        kind,
    }
}

/// Recursive checker. Returns the properties the node's output is
/// *justified* to have — computed from the children's justified
/// properties, but with dispatch decisions (merge vs. hash join) driven
/// by the *claimed* child properties, exactly as the executor decides.
fn check(
    plan: &Plan,
    claims: &Claims,
    ctx: &PropsContext,
    path: &mut Vec<usize>,
    report: &mut VerifyReport,
) -> Result<PhysProps, VerifyError> {
    report.nodes += 1;
    let kids = children(plan).count();
    if claims.children.len() != kids {
        return Err(err(
            VerifyErrorKind::ClaimShape {
                detail: format!(
                    "claim tree has {} children but the node has {kids}",
                    claims.children.len(),
                ),
            },
            path,
            plan,
        ));
    }

    // Children first: the deepest unjustifiable claim is reported.
    let mut kid_justified = Vec::with_capacity(kids);
    for (i, (kid, kid_claims)) in children(plan).zip(&claims.children).enumerate() {
        path.push(i);
        kid_justified.push(check(kid, kid_claims, ctx, path, report)?);
        path.pop();
    }

    // Property soundness under claimed dispatch (flow typing already
    // passed for the whole tree).
    let (justified, flat) = justify(plan, claims, &kid_justified, ctx, report);
    check_claims_shape(plan, &claims.props, path)?;
    check_soundness(plan, claims, &justified, flat, path)?;
    if !claims.props.run_encoded.is_empty() {
        report.run_claims += 1;
    }
    Ok(justified)
}

/// The flow-typing rules at one node (its children already passed):
/// every column reference in range, stars well-shaped, unions
/// compatible.
fn check_structure(plan: &Plan) -> Result<(), VerifyErrorKind> {
    let in_range = |role, col, arity| {
        if col < arity {
            Ok(())
        } else {
            Err(VerifyErrorKind::ColumnOutOfRange { role, col, arity })
        }
    };
    match plan {
        Plan::ScanTriples { .. } | Plan::ScanProperty { .. } | Plan::Distinct { .. } => Ok(()),
        Plan::Select { input, pred } => in_range("Select predicate", pred.col, input.arity()),
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            in_range("Join left key", *left_col, left.arity())?;
            in_range("Join right key", *right_col, right.arity())
        }
        Plan::FilterIn { input, col, .. } => in_range("FilterIn column", *col, input.arity()),
        Plan::Project { input, cols } => cols
            .iter()
            .try_for_each(|&c| in_range("Project column", c, input.arity())),
        Plan::GroupCount { input, keys } => keys
            .iter()
            .try_for_each(|&k| in_range("GroupCount key", k, input.arity())),
        Plan::HavingCountGt { input, .. } if input.arity() == 0 => {
            Err(VerifyErrorKind::EmptySchema)
        }
        Plan::HavingCountGt { .. } => Ok(()),
        Plan::LeapfrogJoin { inputs, cols } if inputs.len() < 2 || cols.len() != inputs.len() => {
            let (inputs, cols) = (inputs.len(), cols.len());
            Err(VerifyErrorKind::MalformedStar { inputs, cols })
        }
        Plan::LeapfrogJoin { inputs, cols } => inputs
            .iter()
            .zip(cols)
            .try_for_each(|(input, &c)| in_range("LeapfrogJoin key", c, input.arity())),
        Plan::UnionAll { inputs } if inputs.is_empty() => Err(VerifyErrorKind::EmptyUnion),
        Plan::UnionAll { inputs } => {
            let want = inputs[0].arity();
            for (i, p) in inputs.iter().enumerate().skip(1) {
                let got = p.arity();
                if got != want {
                    return Err(VerifyErrorKind::UnionArityMismatch {
                        input: i,
                        got,
                        want,
                    });
                }
                if (0..want).any(|c| p.output_kind(c) != inputs[0].output_kind(c)) {
                    return Err(VerifyErrorKind::UnionKindMismatch { input: i });
                }
            }
            Ok(())
        }
    }
}

/// Internal claim well-formedness: key and run positions in range for
/// the node's own arity, no duplicates.
fn check_claims_shape(plan: &Plan, props: &PhysProps, path: &[usize]) -> Result<(), VerifyError> {
    let arity = plan.arity();
    let shape = |detail: String| err(VerifyErrorKind::ClaimShape { detail }, path, plan);
    if let Some(key) = &props.sorted_by {
        let mut seen = vec![false; arity];
        for &k in key {
            if k >= arity {
                return Err(shape(format!(
                    "sort key column {k} out of range for arity {arity}"
                )));
            }
            if seen[k] {
                return Err(shape(format!("sort key column {k} appears twice")));
            }
            seen[k] = true;
        }
    }
    let mut seen = vec![false; arity];
    for &r in &props.run_encoded {
        if r >= arity {
            return Err(shape(format!(
                "run-encoded column {r} out of range for arity {arity}"
            )));
        }
        if seen[r] {
            return Err(shape(format!("run-encoded column {r} claimed twice")));
        }
        seen[r] = true;
    }
    Ok(())
}

/// Computes the properties this node's output truthfully has, given the
/// children's *justified* properties — with dispatch decisions taken
/// from the *claimed* child properties, because that is what the
/// executor consults. (A weakened child claim therefore weakens the
/// parent's justification too: the engine would hash-join instead of
/// merge-joining, destroying order.) The flag says whether the operator
/// materializes its output flat — no run column survives it, claimed or
/// not — which picks the legality-flavoured error kind for run claims.
fn justify(
    plan: &Plan,
    claims: &Claims,
    kid_justified: &[PhysProps],
    ctx: &PropsContext,
    report: &mut VerifyReport,
) -> (PhysProps, bool) {
    match plan {
        // Leaves: justified directly by the layout and the delta state.
        Plan::ScanTriples { .. } | Plan::ScanProperty { .. } => (derive(plan, ctx), false),
        // Monotone selection vectors preserve every property.
        Plan::Select { .. } | Plan::FilterIn { .. } | Plan::HavingCountGt { .. } => {
            (kid_justified[0].clone(), false)
        }
        // Deduplication preserves order and runs and guarantees
        // distinctness on every dispatch path (hash, sorted, passthrough).
        Plan::Distinct { .. } => (
            PhysProps {
                distinct: true,
                ..kid_justified[0].clone()
            },
            false,
        ),
        Plan::Project { input, cols } => {
            let ip = &kid_justified[0];
            let sorted_by = ip.sorted_by.as_ref().and_then(|key| {
                let mut out = Vec::new();
                for &k in key {
                    match cols.iter().position(|&c| c == k) {
                        Some(pos) => out.push(pos),
                        None => break,
                    }
                }
                (!out.is_empty()).then_some(out)
            });
            let distinct = ip.distinct && (0..input.arity()).all(|c| cols.contains(&c));
            let run_encoded = cols
                .iter()
                .enumerate()
                .filter(|&(_, c)| ip.run_encoded.contains(c))
                .map(|(i, _)| i)
                .collect();
            let props = PhysProps {
                sorted_by,
                distinct,
                run_encoded,
            };
            (props, false)
        }
        Plan::Join {
            left_col,
            right_col,
            ..
        } => justify_join(
            [&claims.children[0].props, &claims.children[1].props],
            [&kid_justified[0], &kid_justified[1]],
            (*left_col, *right_col),
            report,
        ),
        Plan::LeapfrogJoin { inputs, cols } => justify_fold(
            &leapfrog_fold(inputs, cols),
            &claims.children,
            kid_justified,
            report,
        ),
        // Key-sorted, key-distinct on every aggregation path.
        Plan::GroupCount { keys, .. } => {
            let props = PhysProps {
                sorted_by: Some((0..=keys.len()).collect()),
                distinct: true,
                run_encoded: Vec::new(),
            };
            (props, true)
        }
        // A singleton passes through, but the copy-out is flat.
        Plan::UnionAll { inputs } if inputs.len() == 1 => {
            let props = PhysProps {
                run_encoded: Vec::new(),
                ..kid_justified[0].clone()
            };
            (props, true)
        }
        Plan::UnionAll { .. } => (PhysProps::unordered(), true),
    }
}

/// The binary join rule. Dispatch follows the *claims*: the engine
/// merge-joins iff both claimed inputs are sorted on their join columns.
fn justify_join(
    claimed: [&PhysProps; 2],
    [lj, rj]: [&PhysProps; 2],
    (left_col, right_col): (usize, usize),
    report: &mut VerifyReport,
) -> (PhysProps, bool) {
    let distinct = lj.distinct && rj.distinct;
    if claimed[0].sorted_on(left_col) && claimed[1].sorted_on(right_col) {
        report.merge_joins += 1;
        // Merge join: the left selection vector is monotone, so left
        // order and left run-encoding survive.
        let props = PhysProps {
            distinct,
            ..lj.clone()
        };
        (props, false)
    } else {
        // Hash join: materializes flat in probe order.
        let props = PhysProps {
            sorted_by: None,
            distinct,
            run_encoded: Vec::new(),
        };
        (props, true)
    }
}

/// Justifies `fold`, the [`leapfrog_fold`] chain of a star whose inputs
/// (the chain's leaves, in order) carry `claims` and `justified`. Every
/// join of the chain is judged by the binary join rule. An inner join has
/// no claim of its own: the executor derives it from the same truth, so
/// it is claimed exactly as justified.
fn justify_fold(
    fold: &Plan,
    claims: &[Claims],
    justified: &[PhysProps],
    report: &mut VerifyReport,
) -> (PhysProps, bool) {
    let Plan::Join {
        left,
        left_col,
        right_col,
        ..
    } = fold
    else {
        unreachable!("a star's fold is a chain of joins")
    };
    let n = claims.len();
    let cols = (*left_col, *right_col);
    let (last_claim, last) = (&claims[n - 1].props, &justified[n - 1]);
    if n == 2 {
        return justify_join(
            [&claims[0].props, last_claim],
            [&justified[0], last],
            cols,
            report,
        );
    }
    let (acc, _) = justify_fold(left, &claims[..n - 1], &justified[..n - 1], report);
    justify_join([&acc, last_claim], [&acc, last], cols, report)
}

/// The soundness layer: each claim must be within what [`justify`]
/// established. Run-claim violations at `flat`-materializing operators
/// are reported with the legality-specific
/// [`VerifyErrorKind::RunClaimAtFlatOperator`].
fn check_soundness(
    plan: &Plan,
    claims: &Claims,
    justified: &PhysProps,
    flat: bool,
    path: &[usize],
) -> Result<(), VerifyError> {
    let claimed = &claims.props;
    if let Some(key) = &claimed.sorted_by {
        // A claimed key is sound iff it is a prefix of the justified key
        // (claiming a weaker order than the truth is fine; a longer or
        // reordered key is not implied by lexicographic sortedness).
        let ok = justified
            .sorted_by
            .as_ref()
            .is_some_and(|jk| jk.len() >= key.len() && jk[..key.len()] == **key);
        if !ok {
            return Err(err(
                VerifyErrorKind::UnsoundSortClaim {
                    claimed: key.clone(),
                    justified: justified.sorted_by.clone(),
                },
                path,
                plan,
            ));
        }
    }
    if claimed.distinct && !justified.distinct {
        return Err(err(VerifyErrorKind::UnsoundDistinctClaim, path, plan));
    }
    for &r in &claimed.run_encoded {
        if !justified.run_encoded.contains(&r) {
            let kind = if flat {
                VerifyErrorKind::RunClaimAtFlatOperator { col: r }
            } else {
                VerifyErrorKind::UnsoundRunClaim {
                    col: r,
                    justified: justified.run_encoded.clone(),
                }
            };
            return Err(err(kind, path, plan));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{group_count, join, project, scan_all, scan_p};
    use swans_rdf::SortOrder;

    fn pso() -> PropsContext {
        PropsContext::with_order(SortOrder::Pso)
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
    fn derived_claims_always_verify() {
        let plans = [
            scan_all(),
            join(vp(1), vp(2), 0, 0),
            join(vp(1), vp(2), 1, 1),
            project(join(scan_p(3), scan_all(), 0, 0), vec![0, 4]),
            group_count(scan_all(), vec![1]),
            Plan::Distinct {
                input: Box::new(vp(4)),
            },
            Plan::UnionAll {
                inputs: vec![vp(1), vp(2), vp(3)],
            },
        ];
        for ctx in [
            PropsContext::default(),
            pso(),
            pso().with_pending_inserts([1]),
            pso().with_pending_tombstones([2]),
            pso().with_rle_props([1, 2]).with_triple_lead_rle(),
        ] {
            for plan in &plans {
                verify(plan, &ctx).unwrap_or_else(|e| panic!("{e} on {plan:?}"));
            }
        }
    }

    #[test]
    fn report_counts_nodes_and_merge_joins() {
        let plan = join(vp(1), vp(2), 0, 0);
        let report = verify(&plan, &pso()).unwrap();
        assert_eq!(report.nodes, 3);
        assert_eq!(report.merge_joins, 1);
        let hashed = join(vp(1), vp(2), 1, 1);
        assert_eq!(verify(&hashed, &pso()).unwrap().merge_joins, 0);
        let rle = pso().with_rle_props([1, 2]);
        assert_eq!(verify(&plan, &rle).unwrap().run_claims, 3);
    }

    #[test]
    fn structural_errors_carry_the_path() {
        // Join right key out of range, two levels deep.
        let bad = Plan::Distinct {
            input: Box::new(join(vp(1), vp(2), 0, 7)),
        };
        let e = verify(&bad, &pso()).unwrap_err();
        assert_eq!(e.path.segments(), &[0]);
        assert!(matches!(
            e.kind,
            VerifyErrorKind::ColumnOutOfRange {
                col: 7,
                arity: 2,
                ..
            }
        ));
        assert!(e.to_string().contains("$.0"), "{e}");
        assert!(e.to_string().contains("Join"), "{e}");
        assert_eq!(
            locate(&bad, &e.path).map(Plan::arity),
            Some(4),
            "path resolves to the join"
        );
    }

    /// Every flow-typing rule, each at a non-root node: `verify` rejects
    /// it with the typed kind at the right path, and `Plan::validate`
    /// rejects it with the same located message.
    #[test]
    fn validate_and_verify_reject_the_same_malformed_plans() {
        use crate::algebra::{leapfrog, CmpOp, Predicate};
        use VerifyErrorKind::*;
        let oob = |role, col, arity| ColumnOutOfRange { role, col, arity };
        let select = Plan::Select {
            input: Box::new(vp(1)),
            pred: Predicate {
                col: 2,
                op: CmpOp::Eq,
                value: 0,
            },
        };
        let filter_in = Plan::FilterIn {
            input: Box::new(vp(1)),
            col: 3,
            values: vec![1],
        };
        let having = Plan::HavingCountGt {
            input: Box::new(project(vp(1), vec![])),
            min: 0,
        };
        let table: Vec<(Plan, VerifyErrorKind)> = vec![
            (
                leapfrog(vec![vp(1)], vec![0]),
                MalformedStar { inputs: 1, cols: 1 },
            ),
            (
                leapfrog(vec![vp(1), vp(2)], vec![0]),
                MalformedStar { inputs: 2, cols: 1 },
            ),
            (
                leapfrog(vec![vp(1), vp(2)], vec![0, 5]),
                oob("LeapfrogJoin key", 5, 2),
            ),
            (
                Plan::UnionAll {
                    inputs: vec![vp(1), scan_all()],
                },
                UnionArityMismatch {
                    input: 1,
                    got: 3,
                    want: 2,
                },
            ),
            (
                Plan::UnionAll {
                    inputs: vec![vp(1), group_count(vp(2), vec![0])],
                },
                UnionKindMismatch { input: 1 },
            ),
            (Plan::UnionAll { inputs: vec![] }, EmptyUnion),
            (having, EmptySchema),
            (select, oob("Select predicate", 2, 2)),
            (join(vp(1), vp(2), 2, 0), oob("Join left key", 2, 2)),
            (join(vp(1), vp(2), 0, 4), oob("Join right key", 4, 2)),
            (filter_in, oob("FilterIn column", 3, 2)),
            (project(vp(1), vec![0, 2]), oob("Project column", 2, 2)),
            (group_count(vp(1), vec![1, 2]), oob("GroupCount key", 2, 2)),
        ];
        for (bad, kind) in table {
            // Under a join's right side, below a distinct: path `$.1.0`.
            let plan = join(
                vp(9),
                Plan::Distinct {
                    input: Box::new(bad),
                },
                0,
                0,
            );
            let e = verify(&plan, &pso()).unwrap_err();
            assert_eq!(e.kind, kind, "{plan:?}");
            assert_eq!(e.path.segments(), &[1, 0], "{e}");
            let msg = plan.validate().unwrap_err();
            assert_eq!(msg, e.to_string());
            assert!(msg.starts_with("at $.1.0 ["), "{msg}");
        }
    }

    #[test]
    fn union_mismatches_are_typed() {
        let empty = Plan::UnionAll { inputs: vec![] };
        assert!(matches!(
            verify(&empty, &pso()).unwrap_err().kind,
            VerifyErrorKind::EmptyUnion
        ));
        let arity = Plan::UnionAll {
            inputs: vec![scan_all(), vp(1)],
        };
        assert!(matches!(
            verify(&arity, &pso()).unwrap_err().kind,
            VerifyErrorKind::UnionArityMismatch {
                input: 1,
                got: 2,
                want: 3
            }
        ));
        let kinds = Plan::UnionAll {
            inputs: vec![vp(1), group_count(scan_all(), vec![0])],
        };
        assert!(matches!(
            verify(&kinds, &pso()).unwrap_err().kind,
            VerifyErrorKind::UnionKindMismatch { input: 1 }
        ));
    }

    #[test]
    fn strengthened_sort_claim_is_rejected() {
        // A hash join's output claims the left order anyway.
        let plan = join(vp(1), vp(2), 1, 1);
        let mut claims = Claims::derive_tree(&plan, &pso());
        claims.props.sorted_by = Some(vec![0, 1]);
        let e = verify_claims(&plan, &claims, &pso()).unwrap_err();
        assert!(e.path.is_root());
        assert!(matches!(
            e.kind,
            VerifyErrorKind::UnsoundSortClaim {
                justified: None,
                ..
            }
        ));
    }

    #[test]
    fn weakened_child_claim_invalidates_the_parents_merge_order() {
        // Claiming *less* at a child is individually sound, but the
        // parent join then hashes — its derived (still-sorted) claim
        // must be caught.
        let plan = join(vp(1), vp(2), 0, 0);
        let mut claims = Claims::derive_tree(&plan, &pso());
        claims.children[1].props.sorted_by = None;
        let e = verify_claims(&plan, &claims, &pso()).unwrap_err();
        assert!(e.path.is_root(), "the join's claim is the unsound one");
        assert!(matches!(e.kind, VerifyErrorKind::UnsoundSortClaim { .. }));
    }

    #[test]
    fn strengthened_distinct_claim_is_rejected() {
        let plan = vp(3);
        let mut claims = Claims::derive_tree(&plan, &pso());
        claims.props.distinct = true;
        let e = verify_claims(&plan, &claims, &pso()).unwrap_err();
        assert!(matches!(e.kind, VerifyErrorKind::UnsoundDistinctClaim));
    }

    #[test]
    fn invented_run_claim_is_rejected() {
        // No RLE context: nothing justifies a run column.
        let plan = vp(3);
        let mut claims = Claims::derive_tree(&plan, &pso());
        claims.props.run_encoded = vec![0];
        let e = verify_claims(&plan, &claims, &pso()).unwrap_err();
        assert!(matches!(
            e.kind,
            VerifyErrorKind::UnsoundRunClaim { col: 0, .. }
        ));
    }

    #[test]
    fn malformed_claim_shapes_are_rejected() {
        let plan = vp(3);
        let ctx = pso();
        let mut claims = Claims::derive_tree(&plan, &ctx);
        claims.props.sorted_by = Some(vec![0, 5]);
        assert!(matches!(
            verify_claims(&plan, &claims, &ctx).unwrap_err().kind,
            VerifyErrorKind::ClaimShape { .. }
        ));
        let mut dup = Claims::derive_tree(&plan, &ctx);
        dup.props.sorted_by = Some(vec![0, 0]);
        assert!(matches!(
            verify_claims(&plan, &dup, &ctx).unwrap_err().kind,
            VerifyErrorKind::ClaimShape { .. }
        ));
        let mut chopped = Claims::derive_tree(&plan, &ctx);
        chopped.children.push(Claims {
            props: PhysProps::unordered(),
            children: Vec::new(),
        });
        assert!(matches!(
            verify_claims(&plan, &chopped, &ctx).unwrap_err().kind,
            VerifyErrorKind::ClaimShape { .. }
        ));
    }

    #[test]
    fn pending_inserts_invalidate_scan_order_claims() {
        // The claim tree derived on a *clean* store is no longer sound
        // once inserts are pending for the scanned property.
        let plan = vp(3);
        let clean = Claims::derive_tree(&plan, &pso());
        assert!(clean.props.sorted_by.is_some());
        let pending = pso().with_pending_inserts([3]);
        let e = verify_claims(&plan, &clean, &pending).unwrap_err();
        assert!(matches!(e.kind, VerifyErrorKind::UnsoundSortClaim { .. }));
        // ...while an insert on an unrelated property changes nothing.
        let unrelated = pso().with_pending_inserts([9]);
        assert!(verify_claims(&plan, &clean, &unrelated).is_ok());
    }

    #[test]
    fn run_claims_at_flat_operators_use_the_legality_kind() {
        let ctx = pso().with_rle_props([1, 2]);
        // A group-count can never emit run columns; claiming one is the
        // legality violation, not just an unsound derivation.
        let plan = group_count(vp(1), vec![0]);
        let mut claims = Claims::derive_tree(&plan, &ctx);
        claims.props.run_encoded = vec![0];
        let e = verify_claims(&plan, &claims, &ctx).unwrap_err();
        assert!(matches!(
            e.kind,
            VerifyErrorKind::RunClaimAtFlatOperator { col: 0 }
        ));
        // A hash join (by claimed dispatch) is flat-materializing too.
        let hashed = join(vp(1), vp(2), 1, 1);
        let mut hc = Claims::derive_tree(&hashed, &ctx);
        hc.props.run_encoded = vec![0];
        let he = verify_claims(&hashed, &hc, &ctx).unwrap_err();
        assert!(matches!(
            he.kind,
            VerifyErrorKind::RunClaimAtFlatOperator { col: 0 }
        ));
        // On a monotone operator the generic unsound-run kind fires.
        let select = Plan::FilterIn {
            input: Box::new(vp(9)),
            col: 1,
            values: vec![5],
        };
        let mut sc = Claims::derive_tree(&select, &ctx);
        sc.props.run_encoded = vec![0];
        let se = verify_claims(&select, &sc, &ctx).unwrap_err();
        assert!(matches!(se.kind, VerifyErrorKind::UnsoundRunClaim { .. }));
    }

    #[test]
    fn path_display_and_locate_agree() {
        let plan = join(project(vp(1), vec![0]), vp(2), 0, 0);
        let path = PlanPath::from_segments(vec![0, 0]);
        assert_eq!(path.to_string(), "$.0.0");
        assert_eq!(locate(&plan, &path), Some(&vp(1)));
        assert_eq!(locate(&plan, &PlanPath::from_segments(vec![2])), None);
        assert_eq!(PlanPath::root().to_string(), "$");
    }

    #[test]
    fn claims_at_mut_resolves_paths() {
        let plan = join(vp(1), vp(2), 0, 0);
        let mut claims = Claims::derive_tree(&plan, &pso());
        let leaf = claims
            .at_mut(&PlanPath::from_segments(vec![1]))
            .expect("path on tree");
        leaf.props.distinct = true;
        assert!(verify_claims(&plan, &claims, &pso()).is_err());
        assert!(claims.at_mut(&PlanPath::from_segments(vec![5])).is_none());
    }
}
