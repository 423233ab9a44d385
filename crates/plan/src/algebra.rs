//! The logical algebra both engines execute.
//!
//! Plans operate on relations of `u64` columns in dictionary-encoded space.
//! A `Join` output is the concatenation of the left and right input rows;
//! `GroupCount` appends the count as the last column. The two base scans
//! correspond to the two physical schemes: [`Plan::ScanTriples`] reads the
//! 3-column `triples` table, [`Plan::ScanProperty`] reads one 2-column
//! property table of the vertically-partitioned layout.

use swans_rdf::Id;

/// Comparison operators for [`Predicate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal (e.g. q5's `C.obj != '<Text>'`).
    Ne,
}

/// A single-column comparison against a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// Output column index of the input plan.
    pub col: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Dictionary-encoded constant.
    pub value: Id,
}

impl Predicate {
    /// Evaluates the predicate against one row.
    #[inline]
    pub fn eval(&self, row: &[u64]) -> bool {
        match self.op {
            CmpOp::Eq => row[self.col] == self.value,
            CmpOp::Ne => row[self.col] != self.value,
        }
    }
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Plan {
    /// Scan the `triples(s, p, o)` relation, with optional bound positions
    /// pushed into the access path. Output schema: `(s, p, o)`.
    ScanTriples {
        /// Bound subject.
        s: Option<Id>,
        /// Bound property.
        p: Option<Id>,
        /// Bound object.
        o: Option<Id>,
    },
    /// Scan one vertically-partitioned property table. Output schema
    /// `(s, o)`, or `(s, p, o)` when `emit_property` (the constant property
    /// column is re-materialized, as the VP SQL does with literal columns).
    ScanProperty {
        /// The property whose table is scanned.
        property: Id,
        /// Bound subject.
        s: Option<Id>,
        /// Bound object.
        o: Option<Id>,
        /// Emit the property as a middle column.
        emit_property: bool,
    },
    /// Filter rows by a predicate.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Filter predicate.
        pred: Predicate,
    },
    /// Equi-join; output = left row ++ right row.
    Join {
        /// Left input (build side for hash joins).
        left: Box<Plan>,
        /// Right input (probe side).
        right: Box<Plan>,
        /// Join column in the left schema.
        left_col: usize,
        /// Join column in the right schema.
        right_col: usize,
    },
    /// Multi-way equi-join of ≥2 inputs on one shared key (the star
    /// pattern): row `i` of the output concatenates one row from every
    /// input, all carrying the same value at their respective `cols`
    /// position. Defined as, and executed as, the left-deep fold of binary
    /// [`Plan::Join`]s `((inputs[0] ⋈ inputs[1]) ⋈ inputs[2]) ⋈ ...` on
    /// that key ([`leapfrog_fold`]) — including row order.
    LeapfrogJoin {
        /// Input plans, in output-schema order.
        inputs: Vec<Plan>,
        /// Per-input join column (in that input's own schema).
        cols: Vec<usize>,
    },
    /// Keep rows whose `col` is in `values` — the benchmark's
    /// "28 interesting properties" restriction, realized in the paper's SQL
    /// as a join against a `properties` table.
    FilterIn {
        /// Input plan.
        input: Box<Plan>,
        /// Column to test.
        col: usize,
        /// Allowed values.
        values: Vec<Id>,
    },
    /// Column projection / reordering.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output columns as indices into the input schema.
        cols: Vec<usize>,
    },
    /// Group by `keys`, count rows per group. Output: keys ++ count.
    GroupCount {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping columns.
        keys: Vec<usize>,
    },
    /// Keep groups with count > `min`; input's last column is the count.
    HavingCountGt {
        /// Input plan (a `GroupCount`).
        input: Box<Plan>,
        /// Exclusive lower bound on the count.
        min: u64,
    },
    /// Bag union of union-compatible inputs.
    UnionAll {
        /// Input plans (all the same arity).
        inputs: Vec<Plan>,
    },
    /// Duplicate elimination over whole rows.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
}

/// What one output column of a [`Plan`] holds — the information a result
/// decoder needs to know whether a `u64` is a dictionary id or a plain
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// A dictionary-encoded term id (decode through the dictionary).
    Term,
    /// An aggregate count (render as a number).
    Count,
}

impl Plan {
    /// Number of output columns.
    pub fn arity(&self) -> usize {
        match self {
            Plan::ScanTriples { .. } => 3,
            Plan::ScanProperty { emit_property, .. } => {
                if *emit_property {
                    3
                } else {
                    2
                }
            }
            Plan::Select { input, .. }
            | Plan::FilterIn { input, .. }
            | Plan::HavingCountGt { input, .. }
            | Plan::Distinct { input } => input.arity(),
            Plan::Join { left, right, .. } => left.arity() + right.arity(),
            Plan::LeapfrogJoin { inputs, .. } => inputs.iter().map(Plan::arity).sum(),
            Plan::Project { cols, .. } => cols.len(),
            Plan::GroupCount { keys, .. } => keys.len() + 1,
            Plan::UnionAll { inputs } => inputs.first().map_or(0, Plan::arity),
        }
    }

    /// The kind of every output column, in schema order. This is what lets
    /// a result decoder resolve term ids through the dictionary while
    /// rendering aggregate counts as numbers — for *any* plan, not just the
    /// benchmark queries whose count columns are known by convention.
    pub fn output_kinds(&self) -> Vec<ColumnKind> {
        (0..self.arity()).map(|c| self.output_kind(c)).collect()
    }

    /// The kind of output column `col` (see [`Plan::output_kinds`]).
    pub(crate) fn output_kind(&self, col: usize) -> ColumnKind {
        match self {
            Plan::ScanTriples { .. } | Plan::ScanProperty { .. } => ColumnKind::Term,
            Plan::Select { input, .. }
            | Plan::FilterIn { input, .. }
            | Plan::HavingCountGt { input, .. }
            | Plan::Distinct { input } => input.output_kind(col),
            Plan::Join { left, right, .. } => match col.checked_sub(left.arity()) {
                Some(rc) => right.output_kind(rc),
                None => left.output_kind(col),
            },
            Plan::LeapfrogJoin { inputs, .. } => {
                let mut col = col;
                for input in inputs {
                    match col.checked_sub(input.arity()) {
                        Some(rest) => col = rest,
                        None => return input.output_kind(col),
                    }
                }
                panic!("column out of range for a LeapfrogJoin")
            }
            Plan::Project { input, cols } => input.output_kind(cols[col]),
            Plan::GroupCount { input, keys } => keys
                .get(col)
                .map_or(ColumnKind::Count, |&k| input.output_kind(k)),
            Plan::UnionAll { inputs } => inputs[0].output_kind(col),
        }
    }

    /// Validates column references, star shapes and union compatibility —
    /// the verifier's flow-typing layer ([`mod@crate::verify`]), rendered as a
    /// description of the first (deepest) problem, naming it by plan path.
    pub fn validate(&self) -> Result<(), String> {
        crate::verify::check_flow(self).map_err(|e| e.to_string())
    }

    /// Renders an EXPLAIN-style indented operator tree. Unions over many
    /// property tables (the vertically-partitioned expansion) are
    /// summarized rather than listed in full.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    /// The one-line operator label of this node (no children, no indent) —
    /// shared by [`Plan::explain`] and the physical-property-annotated
    /// rendering in [`crate::props`].
    pub(crate) fn node_label(&self) -> String {
        let b = |x: &Option<Id>| x.map_or("?".to_string(), |v| v.to_string());
        match self {
            Plan::ScanTriples { s, p, o } => {
                format!("ScanTriples(s={}, p={}, o={})", b(s), b(p), b(o))
            }
            Plan::ScanProperty {
                property,
                s,
                o,
                emit_property,
            } => format!(
                "ScanProperty(p{property}, s={}, o={}{})",
                b(s),
                b(o),
                if *emit_property { ", emit p" } else { "" }
            ),
            Plan::Select { pred, .. } => {
                let op = match pred.op {
                    CmpOp::Eq => "=",
                    CmpOp::Ne => "!=",
                };
                format!("Select(col{} {op} {})", pred.col, pred.value)
            }
            Plan::FilterIn { col, values, .. } => {
                format!("FilterIn(col{col} in {} values)", values.len())
            }
            Plan::Join {
                left_col,
                right_col,
                ..
            } => format!("Join(left.col{left_col} = right.col{right_col})"),
            Plan::LeapfrogJoin { inputs, cols } => {
                format!("LeapfrogJoin({}-way, cols={cols:?})", inputs.len())
            }
            Plan::Project { cols, .. } => format!("Project({cols:?})"),
            Plan::GroupCount { keys, .. } => format!("GroupCount(keys={keys:?})"),
            Plan::HavingCountGt { min, .. } => format!("HavingCountGt({min})"),
            Plan::UnionAll { inputs } => format!("UnionAll({} inputs)", inputs.len()),
            Plan::Distinct { .. } => "Distinct".to_string(),
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let _ = writeln!(out, "{pad}{}", self.node_label());
        match self {
            Plan::ScanTriples { .. } | Plan::ScanProperty { .. } => {}
            Plan::Select { input, .. }
            | Plan::FilterIn { input, .. }
            | Plan::Project { input, .. }
            | Plan::GroupCount { input, .. }
            | Plan::HavingCountGt { input, .. }
            | Plan::Distinct { input } => input.explain_into(out, depth + 1),
            Plan::Join { left, right, .. } => {
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            Plan::LeapfrogJoin { inputs, .. } => {
                for i in inputs {
                    i.explain_into(out, depth + 1);
                }
            }
            Plan::UnionAll { inputs } => {
                if inputs.len() <= 4 {
                    for i in inputs {
                        i.explain_into(out, depth + 1);
                    }
                } else {
                    inputs[0].explain_into(out, depth + 1);
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

    /// Number of operator nodes (plan size — the "hundreds of unions and
    /// joins" the paper measures against the optimizer).
    pub fn node_count(&self) -> usize {
        1 + match self {
            Plan::ScanTriples { .. } | Plan::ScanProperty { .. } => 0,
            Plan::Select { input, .. }
            | Plan::FilterIn { input, .. }
            | Plan::Project { input, .. }
            | Plan::GroupCount { input, .. }
            | Plan::HavingCountGt { input, .. }
            | Plan::Distinct { input } => input.node_count(),
            Plan::Join { left, right, .. } => left.node_count() + right.node_count(),
            Plan::LeapfrogJoin { inputs, .. } | Plan::UnionAll { inputs } => {
                inputs.iter().map(Plan::node_count).sum()
            }
        }
    }
}

// ------- convenience builders (used by the query generator and tests) ----

/// Scan of the full triples relation.
pub fn scan_all() -> Plan {
    Plan::ScanTriples {
        s: None,
        p: None,
        o: None,
    }
}

/// Scan of triples with a bound property.
pub fn scan_p(p: Id) -> Plan {
    Plan::ScanTriples {
        s: None,
        p: Some(p),
        o: None,
    }
}

/// Scan of triples with bound property and object.
pub fn scan_po(p: Id, o: Id) -> Plan {
    Plan::ScanTriples {
        s: None,
        p: Some(p),
        o: Some(o),
    }
}

/// Equi-join helper.
pub fn join(left: Plan, right: Plan, left_col: usize, right_col: usize) -> Plan {
    Plan::Join {
        left: Box::new(left),
        right: Box::new(right),
        left_col,
        right_col,
    }
}

/// Multi-way same-key join helper.
pub fn leapfrog(inputs: Vec<Plan>, cols: Vec<usize>) -> Plan {
    Plan::LeapfrogJoin { inputs, cols }
}

/// The binary-join fold a [`Plan::LeapfrogJoin`] is semantically (and
/// row-order) equivalent to: `((inputs[0] ⋈ inputs[1]) ⋈ inputs[2]) ⋈ ...`,
/// each later input joined against the shared key at `cols[0]` — input 0
/// sits at offset 0 of every accumulated schema, so the key keeps that
/// position throughout. Both executors, the reference executor, the
/// property derivation, the cost model, coverage analysis and the
/// verifier all evaluate the operator through this expansion.
pub fn leapfrog_fold(inputs: &[Plan], cols: &[usize]) -> Plan {
    assert!(
        inputs.len() >= 2 && cols.len() == inputs.len(),
        "malformed leapfrog shape"
    );
    let mut acc = inputs[0].clone();
    for (right, &rc) in inputs[1..].iter().zip(&cols[1..]) {
        acc = join(acc, right.clone(), cols[0], rc);
    }
    acc
}

/// Projection helper.
pub fn project(input: Plan, cols: Vec<usize>) -> Plan {
    Plan::Project {
        input: Box::new(input),
        cols,
    }
}

/// Group-count helper.
pub fn group_count(input: Plan, keys: Vec<usize>) -> Plan {
    Plan::GroupCount {
        input: Box::new(input),
        keys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_propagates() {
        let p = group_count(
            project(join(scan_po(1, 2), scan_all(), 0, 0), vec![4]),
            vec![0],
        );
        // join: 3+3=6, project: 1, group: key+count = 2
        assert_eq!(p.arity(), 2);
    }

    #[test]
    fn scan_property_arity_depends_on_emit() {
        let a = Plan::ScanProperty {
            property: 1,
            s: None,
            o: None,
            emit_property: false,
        };
        let b = Plan::ScanProperty {
            property: 1,
            s: None,
            o: None,
            emit_property: true,
        };
        assert_eq!(a.arity(), 2);
        assert_eq!(b.arity(), 3);
    }

    #[test]
    fn validate_catches_bad_columns() {
        let bad = project(scan_all(), vec![3]);
        assert!(bad.validate().is_err());
        let ok = project(scan_all(), vec![2, 0]);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn validate_catches_union_mismatch() {
        let bad = Plan::UnionAll {
            inputs: vec![scan_all(), project(scan_all(), vec![0])],
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_union() {
        assert!(Plan::UnionAll { inputs: vec![] }.validate().is_err());
    }

    /// Same arity but different column kinds (term vs count) must not
    /// union: `output_kinds` reports the first input, so the other branch
    /// would decode wrongly.
    #[test]
    fn validate_rejects_kind_mismatched_union() {
        let terms = project(scan_all(), vec![0, 1]); // Term, Term
        let counted = group_count(scan_all(), vec![0]); // Term, Count
        let bad = Plan::UnionAll {
            inputs: vec![terms, counted.clone()],
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("column kinds"), "{err}");
        let ok = Plan::UnionAll {
            inputs: vec![counted.clone(), counted],
        };
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn node_count_counts_all_operators() {
        let p = join(scan_all(), scan_all(), 0, 0);
        assert_eq!(p.node_count(), 3);
        let u = Plan::UnionAll {
            inputs: vec![scan_all(), scan_all(), scan_all()],
        };
        assert_eq!(u.node_count(), 4);
    }

    #[test]
    fn explain_renders_indented_tree() {
        let p = group_count(
            project(join(scan_po(1, 2), scan_all(), 0, 0), vec![4]),
            vec![0],
        );
        let text = p.explain();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "GroupCount(keys=[0])");
        assert_eq!(lines[1], "  Project([4])");
        assert_eq!(lines[2], "    Join(left.col0 = right.col0)");
        assert!(lines[3].contains("ScanTriples(s=?, p=1, o=2)"));
    }

    #[test]
    fn explain_summarizes_wide_unions() {
        let u = Plan::UnionAll {
            inputs: (0..222)
                .map(|p| Plan::ScanProperty {
                    property: p,
                    s: None,
                    o: None,
                    emit_property: true,
                })
                .collect(),
        };
        let text = u.explain();
        assert!(text.contains("UnionAll(222 inputs)"));
        assert!(text.contains("221 more property-table scans"));
        assert!(text.lines().count() < 10, "wide unions must be summarized");
    }

    #[test]
    fn output_kinds_track_counts_through_operators() {
        // (keys..., count) out of a GroupCount.
        let g = group_count(scan_all(), vec![1]);
        assert_eq!(g.output_kinds(), vec![ColumnKind::Term, ColumnKind::Count]);
        // Project can reorder the count before a key.
        let p = project(g.clone(), vec![1, 0]);
        assert_eq!(p.output_kinds(), vec![ColumnKind::Count, ColumnKind::Term]);
        // Joining a group result against a scan keeps both sides' kinds.
        let j = join(g, scan_all(), 0, 0);
        assert_eq!(
            j.output_kinds(),
            vec![
                ColumnKind::Term,
                ColumnKind::Count,
                ColumnKind::Term,
                ColumnKind::Term,
                ColumnKind::Term
            ]
        );
        // Grouping by a count column keeps its Count kind.
        let gg = group_count(group_count(scan_all(), vec![0]), vec![1]);
        assert_eq!(
            gg.output_kinds(),
            vec![ColumnKind::Count, ColumnKind::Count]
        );
    }

    #[test]
    fn leapfrog_shape_and_fold() {
        let star = leapfrog(
            vec![scan_po(0, 1), scan_all(), scan_po(2, 3)],
            vec![0, 0, 0],
        );
        assert_eq!(star.arity(), 9);
        assert_eq!(star.validate(), Ok(()));
        assert_eq!(star.node_count(), 4);
        let Plan::LeapfrogJoin { inputs, cols } = &star else {
            unreachable!()
        };
        let fold = leapfrog_fold(inputs, cols);
        assert_eq!(fold.arity(), star.arity());
        assert_eq!(fold.output_kinds(), star.output_kinds());
        assert!(star
            .explain()
            .contains("LeapfrogJoin(3-way, cols=[0, 0, 0])"));

        assert!(leapfrog(vec![scan_all()], vec![0]).validate().is_err());
        assert!(leapfrog(vec![scan_all(), scan_all()], vec![0])
            .validate()
            .is_err());
        assert!(leapfrog(vec![scan_all(), scan_all()], vec![0, 5])
            .validate()
            .is_err());
    }

    #[test]
    fn predicate_eval() {
        let eq = Predicate {
            col: 1,
            op: CmpOp::Eq,
            value: 7,
        };
        let ne = Predicate {
            col: 1,
            op: CmpOp::Ne,
            value: 7,
        };
        assert!(eq.eval(&[0, 7, 0]));
        assert!(!eq.eval(&[0, 8, 0]));
        assert!(ne.eval(&[0, 8, 0]));
        assert!(!ne.eval(&[0, 7, 0]));
    }
}
