//! Query-space coverage analysis — reproduces the paper's Table 2.
//!
//! Walks a (triple-store) logical plan, tracking for every output column
//! which base scan and triple position (`s`/`p`/`o`) it originates from.
//! Scans contribute [`SimplePattern`]s (from their bound positions), joins
//! contribute [`JoinPattern`]s (from the roles of their join columns).

use std::collections::BTreeSet;

use crate::algebra::{leapfrog_fold, Plan};
use crate::pattern::{JoinPattern, Role, SimplePattern};

/// The patterns a query exercises (one row of Table 2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Simple triple patterns used by the base scans.
    pub simple: BTreeSet<SimplePattern>,
    /// Join patterns used by the joins.
    pub joins: BTreeSet<JoinPattern>,
}

impl Coverage {
    /// Formats like Table 2, e.g. `"p2,p8 | A"`.
    pub fn render(&self) -> String {
        let simple: Vec<&str> = self.simple.iter().map(|p| p.name()).collect();
        let joins: Vec<&str> = self.joins.iter().map(|p| p.name()).collect();
        format!(
            "{} | {}",
            simple.join(","),
            if joins.is_empty() {
                "–".to_string()
            } else {
                joins.join(", ")
            }
        )
    }
}

/// Per-column provenance: which scan and which triple position.
type Prov = Vec<Option<Role>>;

fn walk(plan: &Plan, cov: &mut Coverage) -> Prov {
    match plan {
        Plan::ScanTriples { s, p, o } => {
            cov.simple.insert(SimplePattern::classify(*s, *p, *o));
            vec![Some(Role::S), Some(Role::P), Some(Role::O)]
        }
        Plan::ScanProperty {
            s,
            o,
            emit_property,
            ..
        } => {
            // A property table access is a triple access with p bound.
            cov.simple.insert(SimplePattern::classify(*s, Some(0), *o));
            if *emit_property {
                vec![Some(Role::S), Some(Role::P), Some(Role::O)]
            } else {
                vec![Some(Role::S), Some(Role::O)]
            }
        }
        // Filters do not *bind* a position to a constant in the pattern
        // sense (q8's `B.subj != 'conferences'` leaves B a p8 scan).
        Plan::Select { input, .. } | Plan::FilterIn { input, .. } => walk(input, cov),
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let lp = walk(left, cov);
            let rp = walk(right, cov);
            if let (Some(lr), Some(rr)) = (lp[*left_col], rp[*right_col]) {
                cov.joins.insert(JoinPattern::classify(lr, rr));
            }
            let mut out = lp;
            out.extend(rp);
            out
        }
        Plan::LeapfrogJoin { inputs, cols } => walk(&leapfrog_fold(inputs, cols), cov),
        Plan::Project { input, cols } => {
            let p = walk(input, cov);
            cols.iter().map(|&c| p[c]).collect()
        }
        Plan::GroupCount { input, keys } => {
            let p = walk(input, cov);
            let mut out: Prov = keys.iter().map(|&k| p[k]).collect();
            out.push(None); // the count column has no triple provenance
            out
        }
        Plan::HavingCountGt { input, .. } | Plan::Distinct { input } => walk(input, cov),
        Plan::UnionAll { inputs } => {
            let mut first: Option<Prov> = None;
            for i in inputs {
                let p = walk(i, cov);
                if first.is_none() {
                    first = Some(p);
                }
            }
            first.unwrap_or_default()
        }
    }
}

/// Computes the pattern coverage of a plan.
pub fn analyze(plan: &Plan) -> Coverage {
    let mut cov = Coverage::default();
    walk(plan, &mut cov);
    cov
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{build_plan, QueryContext, QueryId, Scheme};
    use JoinPattern as J;
    use SimplePattern as P;

    fn ctx() -> QueryContext {
        QueryContext {
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
            interesting: (0..28).collect(),
            all_properties: (0..222).collect(),
        }
    }

    fn cov(q: QueryId) -> Coverage {
        analyze(&build_plan(q, Scheme::TripleStore, &ctx()))
    }

    fn set<T: Ord + Copy>(xs: &[T]) -> BTreeSet<T> {
        xs.iter().copied().collect()
    }

    /// The central check: our generated plans reproduce Table 2 exactly.
    #[test]
    fn table2_coverage_matches_paper() {
        let expected: [(QueryId, &[P], &[J]); 8] = [
            (QueryId::Q1, &[P::P7], &[]),
            (QueryId::Q2, &[P::P2, P::P8], &[J::A]),
            (QueryId::Q3, &[P::P2, P::P8], &[J::A]),
            (QueryId::Q4, &[P::P2, P::P8], &[J::A]),
            (QueryId::Q5, &[P::P2, P::P7], &[J::A, J::C]),
            (QueryId::Q6, &[P::P2, P::P7, P::P8], &[J::A, J::C]),
            (QueryId::Q7, &[P::P2, P::P7], &[J::A]),
            (QueryId::Q8, &[P::P6, P::P8], &[J::B]),
        ];
        for (q, simple, joins) in expected {
            let c = cov(q);
            assert_eq!(c.simple, set(simple), "{q} simple patterns");
            assert_eq!(c.joins, set(joins), "{q} join patterns");
        }
    }

    /// The benchmark (q1–q7) leaves patterns p1, p3, p4, p5, p6 and join
    /// pattern B uncovered — the gap q8 partially closes (§2.2).
    #[test]
    fn original_benchmark_gaps() {
        let mut simple = BTreeSet::new();
        let mut joins = BTreeSet::new();
        for q in QueryId::BASE7 {
            let c = cov(q);
            simple.extend(c.simple);
            joins.extend(c.joins);
        }
        for missing in [P::P1, P::P3, P::P4, P::P5, P::P6] {
            assert!(!simple.contains(&missing), "{missing} unexpectedly covered");
        }
        assert!(!joins.contains(&J::B));
        // q8 adds p6 and join pattern B.
        let c8 = cov(QueryId::Q8);
        assert!(c8.simple.contains(&P::P6));
        assert!(c8.joins.contains(&J::B));
    }

    #[test]
    fn render_formats_like_table2() {
        assert_eq!(cov(QueryId::Q2).render(), "p2,p8 | A");
        assert_eq!(cov(QueryId::Q1).render(), "p7 | –");
    }

    #[test]
    fn star_variants_cover_like_their_base() {
        for (a, b) in [
            (QueryId::Q2, QueryId::Q2Star),
            (QueryId::Q3, QueryId::Q3Star),
            (QueryId::Q4, QueryId::Q4Star),
            (QueryId::Q6, QueryId::Q6Star),
        ] {
            assert_eq!(cov(a), cov(b));
        }
    }

    /// VP plans see every property-bound access as a p-bound pattern; the
    /// analysis still terminates and finds the same join patterns.
    #[test]
    fn vp_plans_analyzable() {
        let c = analyze(&build_plan(
            QueryId::Q8,
            Scheme::VerticallyPartitioned,
            &ctx(),
        ));
        assert!(c.joins.contains(&J::B));
    }
}
