//! Scheme lowering: rewrite any triple-store plan into an equivalent
//! vertically-partitioned plan.
//!
//! This generalizes the benchmark generator (and the paper's Perl script)
//! to *arbitrary* plans — e.g. ones compiled from SPARQL: every
//! [`Plan::ScanTriples`] becomes either a single property-table scan (when
//! the property is bound) or a `UnionAll` over all property tables (when
//! it is not). The rewritten scans emit the property as a constant middle
//! column, so the schema — and therefore every downstream column
//! reference — is unchanged.

use swans_rdf::Id;

use crate::algebra::{leapfrog_fold, Plan};

/// Rewrites `plan` to run against the vertically-partitioned layout.
/// `properties` must list every property id present in the data set
/// (most-frequent-first order is conventional but not required).
pub fn lower_to_vertical(plan: &Plan, properties: &[Id]) -> Plan {
    let lowered = match plan {
        Plan::ScanTriples { s, p, o } => match p {
            Some(p) => Plan::ScanProperty {
                property: *p,
                s: *s,
                o: *o,
                emit_property: true,
            },
            None if properties.is_empty() => {
                // No property tables at all (an empty data set): the scan
                // is the empty relation. `Id::MAX` is never assigned by a
                // dictionary (ids are dense ranks), so a scan of it keeps
                // the (s, p, o) schema and yields no rows.
                Plan::ScanProperty {
                    property: Id::MAX,
                    s: *s,
                    o: *o,
                    emit_property: true,
                }
            }
            None => Plan::UnionAll {
                inputs: properties
                    .iter()
                    .map(|&property| Plan::ScanProperty {
                        property,
                        s: *s,
                        o: *o,
                        emit_property: true,
                    })
                    .collect(),
            },
        },
        Plan::ScanProperty { .. } => plan.clone(),
        Plan::Select { input, pred } => Plan::Select {
            input: Box::new(lower_to_vertical(input, properties)),
            pred: *pred,
        },
        Plan::FilterIn { input, col, values } => Plan::FilterIn {
            input: Box::new(lower_to_vertical(input, properties)),
            col: *col,
            values: values.clone(),
        },
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
        } => Plan::Join {
            left: Box::new(lower_to_vertical(left, properties)),
            right: Box::new(lower_to_vertical(right, properties)),
            left_col: *left_col,
            right_col: *right_col,
        },
        Plan::LeapfrogJoin { inputs, cols } => {
            lower_to_vertical(&leapfrog_fold(inputs, cols), properties)
        }
        Plan::Project { input, cols } => Plan::Project {
            input: Box::new(lower_to_vertical(input, properties)),
            cols: cols.clone(),
        },
        Plan::GroupCount { input, keys } => Plan::GroupCount {
            input: Box::new(lower_to_vertical(input, properties)),
            keys: keys.clone(),
        },
        Plan::HavingCountGt { input, min } => Plan::HavingCountGt {
            input: Box::new(lower_to_vertical(input, properties)),
            min: *min,
        },
        Plan::UnionAll { inputs } => Plan::UnionAll {
            inputs: inputs
                .iter()
                .map(|i| lower_to_vertical(i, properties))
                .collect(),
        },
        Plan::Distinct { input } => Plan::Distinct {
            input: Box::new(lower_to_vertical(input, properties)),
        },
    };
    debug_assert_eq!(lowered.arity(), plan.arity(), "lowering must not reshape");
    lowered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{group_count, join, project, scan_all, scan_po};
    use crate::naive;
    use swans_rdf::Triple;

    fn triples() -> Vec<Triple> {
        (0..200)
            .map(|i| Triple::new(50 + i % 23, i % 7, 100 + i % 11))
            .collect()
    }

    fn props() -> Vec<Id> {
        (0..7).collect()
    }

    fn check(plan: &Plan) {
        let lowered = lower_to_vertical(plan, &props());
        assert_eq!(lowered.validate(), Ok(()));
        let a = naive::normalize(naive::execute(plan, &triples()));
        let b = naive::normalize(naive::execute(&lowered, &triples()));
        assert_eq!(a, b, "lowering changed answers for {plan:?}");
    }

    #[test]
    fn bound_property_becomes_single_table() {
        let lowered = lower_to_vertical(&scan_po(3, 105), &props());
        assert!(matches!(
            lowered,
            Plan::ScanProperty {
                property: 3,
                o: Some(105),
                emit_property: true,
                ..
            }
        ));
        check(&scan_po(3, 105));
    }

    #[test]
    fn unbound_property_becomes_union() {
        let lowered = lower_to_vertical(&scan_all(), &props());
        let Plan::UnionAll { inputs } = &lowered else {
            panic!("expected union");
        };
        assert_eq!(inputs.len(), 7);
        check(&scan_all());
    }

    #[test]
    fn schema_is_preserved_through_joins_and_groups() {
        let plan = group_count(
            project(join(scan_po(0, 100), scan_all(), 0, 0), vec![4]),
            vec![0],
        );
        assert_eq!(lower_to_vertical(&plan, &props()).arity(), plan.arity());
        check(&plan);
    }

    #[test]
    fn q8_shape_lowering() {
        // subject-bound scan with p unbound (pattern p6), joined on objects.
        let a = Plan::ScanTriples {
            s: Some(50),
            p: None,
            o: None,
        };
        let plan = project(join(a, scan_all(), 2, 2), vec![3]);
        check(&plan);
    }

    #[test]
    fn empty_property_list_lowers_to_empty_relation() {
        let lowered = lower_to_vertical(&scan_all(), &[]);
        assert_eq!(lowered.validate(), Ok(()));
        assert_eq!(lowered.arity(), 3);
        assert!(naive::execute(&lowered, &[]).is_empty());
    }

    #[test]
    fn missing_property_lists_still_valid() {
        // Lowering against a *subset* of properties changes answers (it
        // drops data) but must still be structurally valid.
        let lowered = lower_to_vertical(&scan_all(), &[1, 2]);
        assert_eq!(lowered.validate(), Ok(()));
        let rows = naive::execute(&lowered, &triples());
        assert!(rows.iter().all(|r| r[1] == 1 || r[1] == 2));
    }
}
