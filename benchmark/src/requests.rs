//! The four SPARQL request classes `serve_read` sends over HTTP and the
//! `mixed_rw` reader runs in process, generated from the workload seed
//! with their expected answers.

use std::collections::HashMap;

use swans_datagen::rng::StdRng;
use swans_plan::algebra::ColumnKind;
use swans_plan::queries::vocab;
use swans_plan::{compile_sparql, naive, Scheme};
use swans_rdf::{Dataset, Id, Triple};

use crate::reference::{fnv1a, Answer};

/// Request class names, in class-index order.
pub const CLASSES: [&str; 4] = ["point", "bound", "star", "catalog"];
/// Cumulative draw shares: 70 / 15 / 10 / 5.
const CLASS_CDF: [f64; 4] = [0.70, 0.85, 0.95, 1.0];
/// Subjects requests are drawn from (fewer if the data set is smaller).
const POOL: usize = 50_000;
/// The pool and its Zipf ranking depend on the data only, never on the
/// workload seed: two seeds draw from one popularity distribution.
const POOL_SEED: u64 = 0x5eed_0f90_0001;
/// The property the COUNT / GROUP BY class aggregates: the data set's
/// largest table (one triple per subject) with a few dozen distinct
/// objects. One fixed query, so the class costs the same under every seed.
const CATALOG_PROP: &str = vocab::TYPE;

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index into [`CLASSES`].
    pub class: usize,
    /// The query text.
    pub sparql: String,
    /// The decoded answer every execution must give.
    pub expect: Answer,
}

/// Generates seeded requests over one data set and computes their answers.
pub struct RequestMix<'a> {
    ds: &'a Dataset,
    /// Pool subjects in Zipf-rank order, each with all its triples.
    subjects: Vec<(Id, Vec<Triple>)>,
    /// Cumulative Zipf(1.0) probabilities over the ranks.
    zipf_cdf: Vec<f64>,
    /// Distinct query text → expected answer.
    answers: HashMap<String, Answer>,
}

impl<'a> RequestMix<'a> {
    /// Builds the subject pool of `ds` (one pass over its triples).
    pub fn new(ds: &'a Dataset) -> Self {
        let type_p = ds.expect_id(vocab::TYPE);
        let mut typed: Vec<Id> = ds
            .triples
            .iter()
            .filter(|t| t.p == type_p)
            .map(|t| t.s)
            .collect();
        typed.sort_unstable();
        typed.dedup();
        let n = typed.len().min(POOL);
        let mut pool: Vec<Id> = (0..n).map(|k| typed[k * typed.len() / n]).collect();
        // Shuffled with the fixed pool seed: rank is unrelated to id.
        let mut rng = StdRng::seed_from_u64(POOL_SEED);
        crate::shuffle(&mut rng, &mut pool);
        let rank_of: HashMap<Id, usize> = pool.iter().enumerate().map(|(r, &s)| (s, r)).collect();
        let mut subjects: Vec<(Id, Vec<Triple>)> = pool.iter().map(|&s| (s, Vec::new())).collect();
        for t in &ds.triples {
            if let Some(&r) = rank_of.get(&t.s) {
                subjects[r].1.push(*t);
            }
        }
        let mut acc = 0.0;
        let mut zipf_cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut zipf_cdf {
            *c /= acc;
        }
        Self {
            ds,
            subjects,
            zipf_cdf,
            answers: HashMap::new(),
        }
    }

    /// The next `n` requests of `rng`'s sequence.
    pub fn generate(&mut self, rng: &mut StdRng, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next(rng)).collect()
    }

    fn next(&mut self, rng: &mut StdRng) -> Request {
        let ds = self.ds;
        let u = rng.random();
        let class = CLASS_CDF.iter().position(|&c| u < c).unwrap_or(3);
        if class == 3 {
            let sparql =
                format!("SELECT ?o (COUNT(*) AS ?n) WHERE {{ ?s {CATALOG_PROP} ?o }} GROUP BY ?o");
            let expect = self.answer(&sparql, &ds.triples);
            return Request {
                class,
                sparql,
                expect,
            };
        }
        let u = rng.random();
        let rank = self
            .zipf_cdf
            .partition_point(|&c| c <= u)
            .min(self.subjects.len() - 1);
        let (s, triples) = &self.subjects[rank];
        let s = ds.dict.term(*s);
        let mut props: Vec<Id> = triples.iter().map(|t| t.p).collect();
        props.sort_unstable();
        props.dedup();
        let sparql = match class {
            0 => format!("SELECT ?p ?o WHERE {{ {s} ?p ?o }}"),
            1 => {
                let p = ds.dict.term(props[rng.random_range(0..props.len())]);
                format!("SELECT ?o WHERE {{ {s} {p} ?o }}")
            }
            _ => {
                // A 2- or 3-pattern star over distinct properties of the
                // subject (one property twice if it has no second).
                let arms = if props.len() >= 3 && rng.random() < 0.5 {
                    3
                } else {
                    2
                };
                let mut picked = Vec::new();
                for _ in 0..arms.min(props.len()) {
                    picked.push(props.swap_remove(rng.random_range(0..props.len())));
                }
                if picked.len() == 1 {
                    picked.push(picked[0]);
                }
                let vars = ["a", "b", "c"];
                let select: Vec<String> = vars[..picked.len()]
                    .iter()
                    .map(|v| format!("?{v}"))
                    .collect();
                let patterns: Vec<String> = picked
                    .iter()
                    .zip(vars)
                    .map(|(&p, v)| format!("?s {} ?{v}", ds.dict.term(p)))
                    .collect();
                format!(
                    "SELECT {} WHERE {{ {} FILTER(?s = {s}) }}",
                    select.join(" "),
                    patterns.join(" . ")
                )
            }
        };
        // Every pattern binds this one subject, so its triples are all the
        // data the answer depends on — small enough for `naive`.
        let triples = self.subjects[rank].1.clone();
        let expect = self.answer(&sparql, &triples);
        Request {
            class,
            sparql,
            expect,
        }
    }

    /// The expected decoded answer of `sparql` over `triples`, by the
    /// naive reference executor (memoized per query text).
    fn answer(&mut self, sparql: &str, triples: &[Triple]) -> Answer {
        if let Some(a) = self.answers.get(sparql) {
            return *a;
        }
        let plan = compile_sparql(sparql, self.ds, Scheme::TripleStore)
            .unwrap_or_else(|e| panic!("generated query does not compile: {sparql}: {e}"))
            .plan;
        let kinds = plan.output_kinds();
        let rows: Vec<Vec<String>> = naive::execute(&plan, triples)
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&kinds)
                    .map(|(&v, kind)| match kind {
                        ColumnKind::Term => self.ds.dict.term(v).to_string(),
                        ColumnKind::Count => v.to_string(),
                    })
                    .collect()
            })
            .collect();
        let a = Answer::of_terms(&rows);
        self.answers.insert(sparql.to_string(), a);
        a
    }
}

/// Folds a request list into a running sequence hash.
pub fn hash_requests(mut h: u64, requests: &[Request]) -> u64 {
    for r in requests {
        h = fnv1a(fnv1a(h, &[r.class as u8]), r.sparql.as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use swans_core::{Database, Layout, StoreConfig};
    use swans_datagen::{generate, BartonConfig};

    fn dataset() -> Dataset {
        generate(&BartonConfig {
            scale: 0.0005,
            seed: 42,
            n_properties: 60,
        })
    }

    #[test]
    fn same_seed_same_sequence_and_other_seed_differs() {
        let ds = dataset();
        let mut mix = RequestMix::new(&ds);
        let a = mix.generate(&mut StdRng::seed_from_u64(1), 300);
        let b = mix.generate(&mut StdRng::seed_from_u64(1), 300);
        let c = mix.generate(&mut StdRng::seed_from_u64(2), 300);
        assert_eq!(hash_requests(0, &a), hash_requests(0, &b));
        assert_ne!(hash_requests(0, &a), hash_requests(0, &c));
        for (class, name) in CLASSES.iter().enumerate() {
            assert!(a.iter().any(|r| r.class == class), "{name} never drawn");
        }
    }

    /// The expectations are right: the column engine, through the public
    /// SPARQL entry point, gives exactly them.
    #[test]
    fn expected_answers_match_the_engine() {
        let ds = dataset();
        let mut mix = RequestMix::new(&ds);
        let requests = mix.generate(&mut StdRng::seed_from_u64(3), 200);
        let db = Database::open(
            ds.clone(),
            StoreConfig::column(Layout::VerticallyPartitioned),
        )
        .expect("opens");
        let mut nonempty = 0;
        for r in &requests {
            let got = db
                .query(&r.sparql)
                .unwrap_or_else(|e| panic!("{}: {e}", r.sparql));
            assert_eq!(Answer::of_terms(&got.decoded()), r.expect, "{}", r.sparql);
            nonempty += usize::from(r.expect.rows > 0);
        }
        assert_eq!(
            nonempty,
            requests.len(),
            "every request asks about stored data"
        );
    }
}
