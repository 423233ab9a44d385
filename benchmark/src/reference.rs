//! Expected answers: what every execution is checked against.
//!
//! `swans_plan::naive` is the semantics specification, and the request
//! classes use it directly (their inputs are one subject's triples). Its
//! nested-loop join is quadratic, though, so for the paper queries' half a
//! million triples [`execute`] is the same evaluator with a hash join
//! (join-free subtrees go to `naive` itself) — a unit test holds the two
//! to identical answers on a data set small enough for `naive`.

use std::collections::{HashMap, HashSet};

use swans_plan::algebra::Plan;
use swans_plan::naive::{self, Rows};
use swans_plan::optimize::has_join;
use swans_rdf::Triple;

/// Evaluates `plan` over `triples`: `naive::execute` semantics, hash joins.
pub fn execute(plan: &Plan, triples: &[Triple]) -> Rows {
    if !has_join(plan) {
        return naive::execute(plan, triples);
    }
    match plan {
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let l = execute(left, triples);
            let r = execute(right, triples);
            let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
            for (i, row) in r.iter().enumerate() {
                index.entry(row[*right_col]).or_default().push(i);
            }
            let mut out = Vec::new();
            for lr in &l {
                for &i in index.get(&lr[*left_col]).map_or(&[][..], Vec::as_slice) {
                    let mut row = lr.clone();
                    row.extend_from_slice(&r[i]);
                    out.push(row);
                }
            }
            out
        }
        Plan::LeapfrogJoin { inputs, cols } => {
            execute(&swans_plan::algebra::leapfrog_fold(inputs, cols), triples)
        }
        Plan::UnionAll { inputs } => inputs.iter().flat_map(|i| execute(i, triples)).collect(),
        Plan::Select { input, pred } => {
            let mut rows = execute(input, triples);
            rows.retain(|r| pred.eval(r));
            rows
        }
        Plan::FilterIn { input, col, values } => {
            let set: HashSet<u64> = values.iter().copied().collect();
            let mut rows = execute(input, triples);
            rows.retain(|r| set.contains(&r[*col]));
            rows
        }
        Plan::Project { input, cols } => execute(input, triples)
            .into_iter()
            .map(|r| cols.iter().map(|&c| r[c]).collect())
            .collect(),
        Plan::GroupCount { input, keys } => {
            let mut groups: HashMap<Vec<u64>, u64> = HashMap::new();
            for r in execute(input, triples) {
                *groups
                    .entry(keys.iter().map(|&k| r[k]).collect())
                    .or_insert(0) += 1;
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
            rows.retain(|r| r.last().is_some_and(|c| c > min));
            rows
        }
        Plan::Distinct { input } => {
            let mut rows = execute(input, triples);
            rows.sort_unstable();
            rows.dedup();
            rows
        }
        Plan::ScanTriples { .. } | Plan::ScanProperty { .. } => naive::execute(plan, triples),
    }
}

/// Row count plus an order-independent hash: what one execution's answer
/// is reduced to and compared by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Number of rows.
    pub rows: usize,
    /// Wrapping sum of the per-row hashes.
    pub hash: u64,
}

/// FNV-1a over bytes — fixed, unlike the standard library's seeded hasher.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Answer {
    /// Reduces dictionary-encoded rows.
    pub fn of_ids(rows: &[Vec<u64>]) -> Self {
        let hash = rows.iter().fold(0u64, |acc, row| {
            let h = row
                .iter()
                .fold(row.len() as u64, |h, v| fnv1a(h, &v.to_le_bytes()));
            acc.wrapping_add(h)
        });
        Answer {
            rows: rows.len(),
            hash,
        }
    }

    /// Reduces decoded rows (term strings).
    pub fn of_terms<S: AsRef<str>>(rows: &[Vec<S>]) -> Self {
        let hash = rows.iter().fold(0u64, |acc, row| {
            let h = row.iter().fold(row.len() as u64, |h, term| {
                fnv1a(fnv1a(h, term.as_ref().as_bytes()), &[0x1f])
            });
            acc.wrapping_add(h)
        });
        Answer {
            rows: rows.len(),
            hash,
        }
    }

    /// Reduces a benchmark query's rows the way `swans_core::normalize_result`
    /// compares them: as a bag, except q8, which is compared as a set.
    pub fn of_query(q: swans_plan::QueryId, rows: Vec<Vec<u64>>) -> Self {
        if q == swans_plan::QueryId::Q8 {
            Self::of_ids(&swans_core::normalize_result(q, rows))
        } else {
            Self::of_ids(&rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swans_datagen::{generate, BartonConfig};
    use swans_plan::{build_plan, QueryContext, QueryId, Scheme};

    /// The hash-join evaluation is `naive`, only faster: identical answers
    /// for all 12 queries under both schemes.
    #[test]
    fn agrees_with_naive_on_every_benchmark_query() {
        let ds = generate(&BartonConfig {
            scale: 0.0002,
            seed: 7,
            n_properties: 40,
        });
        let ctx = QueryContext::from_dataset(&ds, 20);
        for q in QueryId::ALL {
            for scheme in [Scheme::TripleStore, Scheme::VerticallyPartitioned] {
                let plan = build_plan(q, scheme, &ctx);
                let want = naive::normalize(naive::execute(&plan, &ds.triples));
                let got = naive::normalize(execute(&plan, &ds.triples));
                assert_eq!(got, want, "{q} under {scheme:?}");
                assert!(q == QueryId::Q7 || !want.is_empty(), "{q} is vacuous");
            }
        }
    }

    #[test]
    fn answers_ignore_row_order_but_not_content() {
        let a = vec![vec![1, 2], vec![3, 4], vec![3, 4]];
        let b = vec![vec![3, 4], vec![1, 2], vec![3, 4]];
        assert_eq!(Answer::of_ids(&a), Answer::of_ids(&b));
        assert_ne!(Answer::of_ids(&a), Answer::of_ids(&a[..2]));
        assert_ne!(Answer::of_ids(&[vec![1, 2]]), Answer::of_ids(&[vec![2, 1]]));
        let s = vec![vec!["<a>", "b"], vec!["<c>", "d"]];
        let t = vec![vec!["<c>", "d"], vec!["<a>", "b"]];
        assert_eq!(Answer::of_terms(&s), Answer::of_terms(&t));
        assert_ne!(Answer::of_terms(&s), Answer::of_terms(&[vec!["<a>b", ""]]));
        // q8 is a set: duplicates collapse.
        let q8 = Answer::of_query(QueryId::Q8, vec![vec![1], vec![1], vec![2]]);
        assert_eq!(q8, Answer::of_ids(&[vec![1], vec![2]]));
    }
}
