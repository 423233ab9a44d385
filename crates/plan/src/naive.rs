//! A naive reference executor.
//!
//! Evaluates a [`Plan`] directly over a triple slice with the simplest
//! possible algorithms (filters, nested-loop joins, hash aggregation).
//! It has no storage model and no performance ambitions — it exists as an
//! executable *semantics specification*: both the row and the column engine
//! must produce exactly the same multiset of rows.

use std::collections::HashMap;

use swans_rdf::Triple;

use crate::algebra::{leapfrog_fold, Plan};

/// A materialized relation: a bag of rows.
pub type Rows = Vec<Vec<u64>>;

/// Evaluates `plan` over `triples`.
pub fn execute(plan: &Plan, triples: &[Triple]) -> Rows {
    match plan {
        Plan::ScanTriples { s, p, o } => triples
            .iter()
            .filter(|t| {
                s.is_none_or(|v| t.s == v)
                    && p.is_none_or(|v| t.p == v)
                    && o.is_none_or(|v| t.o == v)
            })
            .map(|t| vec![t.s, t.p, t.o])
            .collect(),
        Plan::ScanProperty {
            property,
            s,
            o,
            emit_property,
        } => triples
            .iter()
            .filter(|t| {
                t.p == *property && s.is_none_or(|v| t.s == v) && o.is_none_or(|v| t.o == v)
            })
            .map(|t| {
                if *emit_property {
                    vec![t.s, t.p, t.o]
                } else {
                    vec![t.s, t.o]
                }
            })
            .collect(),
        Plan::Select { input, pred } => {
            let mut rows = execute(input, triples);
            rows.retain(|r| pred.eval(r));
            rows
        }
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let l = execute(left, triples);
            let r = execute(right, triples);
            let mut out = Vec::new();
            for lr in &l {
                for rr in &r {
                    if lr[*left_col] == rr[*right_col] {
                        let mut row = lr.clone();
                        row.extend_from_slice(rr);
                        out.push(row);
                    }
                }
            }
            out
        }
        Plan::LeapfrogJoin { inputs, cols } => execute(&leapfrog_fold(inputs, cols), triples),
        Plan::FilterIn { input, col, values } => {
            let set: std::collections::HashSet<u64> = values.iter().copied().collect();
            let mut rows = execute(input, triples);
            rows.retain(|r| set.contains(&r[*col]));
            rows
        }
        Plan::Project { input, cols } => execute(input, triples)
            .into_iter()
            .map(|r| cols.iter().map(|&c| r[c]).collect())
            .collect(),
        Plan::GroupCount { input, keys } => {
            let rows = execute(input, triples);
            let mut groups: HashMap<Vec<u64>, u64> = HashMap::new();
            for r in rows {
                let key: Vec<u64> = keys.iter().map(|&k| r[k]).collect();
                *groups.entry(key).or_insert(0) += 1;
            }
            groups
                .into_iter()
                .map(|(mut k, c)| {
                    k.push(c);
                    k
                })
                .collect()
        }
        Plan::HavingCountGt { input, min } => {
            let mut rows = execute(input, triples);
            rows.retain(|r| *r.last().expect("non-empty row") > *min);
            rows
        }
        Plan::UnionAll { inputs } => {
            let mut out = Vec::new();
            for i in inputs {
                out.extend(execute(i, triples));
            }
            out
        }
        Plan::Distinct { input } => {
            let mut rows = execute(input, triples);
            rows.sort_unstable();
            rows.dedup();
            rows
        }
    }
}

/// Sorts a bag of rows for order-insensitive comparison.
pub fn normalize(mut rows: Rows) -> Rows {
    rows.sort_unstable();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{group_count, join, project, scan_all, scan_po};
    use crate::queries::{build_plan, QueryContext, QueryId, Scheme};

    /// A small hand-checkable data set.
    ///
    /// ids: type=0 Text=1 lang=2 fre=3 s10..s13=10..13
    fn triples() -> Vec<Triple> {
        vec![
            Triple::new(10, 0, 1), // s10 type Text
            Triple::new(11, 0, 1), // s11 type Text
            Triple::new(12, 0, 4), // s12 type Date(4)
            Triple::new(10, 2, 3), // s10 lang fre
            Triple::new(11, 2, 5), // s11 lang eng(5)
            Triple::new(13, 2, 3), // s13 lang fre
        ]
    }

    #[test]
    fn scan_filters_bound_positions() {
        let rows = execute(&scan_po(0, 1), &triples());
        assert_eq!(normalize(rows), vec![vec![10, 0, 1], vec![11, 0, 1]]);
    }

    #[test]
    fn join_on_subject() {
        let p = join(scan_po(0, 1), scan_po(2, 3), 0, 0);
        let rows = execute(&p, &triples());
        // Only s10 is both type=Text and lang=fre.
        assert_eq!(rows, vec![vec![10, 0, 1, 10, 2, 3]]);
    }

    #[test]
    fn group_count_counts() {
        let p = group_count(project(scan_all(), vec![1]), vec![0]);
        let rows = normalize(execute(&p, &triples()));
        assert_eq!(rows, vec![vec![0, 3], vec![2, 3]]);
    }

    #[test]
    fn distinct_dedups() {
        let p = Plan::Distinct {
            input: Box::new(project(scan_all(), vec![1])),
        };
        let rows = normalize(execute(&p, &triples()));
        assert_eq!(rows, vec![vec![0], vec![2]]);
    }

    #[test]
    fn having_filters_on_last_column() {
        let p = Plan::HavingCountGt {
            input: Box::new(group_count(project(scan_all(), vec![2]), vec![0])),
            min: 1,
        };
        let rows = normalize(execute(&p, &triples()));
        // Objects appearing more than once: Text (2x), fre (2x).
        assert_eq!(rows, vec![vec![1, 2], vec![3, 2]]);
    }

    /// Scheme equivalence at the semantics level: for every query, the
    /// triple-store plan and the vertically-partitioned plan produce the
    /// same rows (q8 compared as a set — the paper's VP formulation stores
    /// *distinct* qualifying objects in its temporary table).
    #[test]
    fn schemes_agree_on_reference_dataset() {
        // Build a richer dataset that exercises every query.
        let mut ds = swans_rdf::Dataset::new();
        use crate::queries::vocab;
        let subj = |i: usize| format!("<s{i}>");
        for i in 0..40 {
            ds.add(
                &subj(i),
                vocab::TYPE,
                if i % 3 == 0 { vocab::TEXT } else { vocab::DATE },
            );
            if i % 2 == 0 {
                ds.add(&subj(i), vocab::LANGUAGE, vocab::FRENCH);
            }
            if i % 5 == 0 {
                ds.add(&subj(i), vocab::ORIGIN, vocab::DLC);
            }
            if i % 4 == 0 {
                ds.add(&subj(i), vocab::RECORDS, &subj((i + 1) % 40));
            }
            if i % 7 == 0 {
                ds.add(&subj(i), vocab::POINT, vocab::END);
                ds.add(&subj(i), vocab::ENCODING, "\"enc\"");
            }
            ds.add(&subj(i), "<title>", &format!("\"t{}\"", i % 6));
        }
        ds.add(vocab::CONFERENCES, "<title>", "\"t1\"");
        ds.add(vocab::CONFERENCES, vocab::TYPE, vocab::TEXT);

        let ctx = QueryContext::from_dataset(&ds, 4);
        for q in QueryId::ALL {
            let tp = build_plan(q, Scheme::TripleStore, &ctx);
            let vp = build_plan(q, Scheme::VerticallyPartitioned, &ctx);
            let mut a = normalize(execute(&tp, &ds.triples));
            let mut b = normalize(execute(&vp, &ds.triples));
            if q == QueryId::Q8 {
                a.dedup();
                b.dedup();
            }
            assert_eq!(a, b, "query {q} differs across schemes");
        }
    }
}
