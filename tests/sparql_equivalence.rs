//! Hand-written SPARQL == the benchmark generator.
//!
//! The paper's benchmark queries exist twice in this system: as logical
//! plans built by the generator (`swans_plan::queries::build_plan`, the
//! analogue of the paper's Perl script) and — for the shapes the SPARQL
//! subset can express — as plain query strings. This test pins their
//! equivalence: for q1, q2, q5 and q8, the string through
//! [`Database::query`] returns exactly the answers of the generated plan
//! through the benchmark path, on **all six engine × layout
//! configurations**, compared after decoding ids to term strings.

use swans_core::{normalize_result, Database, StoreConfig};
use swans_datagen::{generate, BartonConfig};
use swans_plan::algebra::ColumnKind;
use swans_plan::queries::{build_plan, vocab, QueryContext, QueryId};
use swans_rdf::Dataset;

/// Decodes normalized benchmark rows with the plan's own column kinds:
/// term ids through the dictionary, counts as numbers — the same rule
/// `ResultSet` applies.
fn decode(ds: &Dataset, kinds: &[ColumnKind], rows: &[Vec<u64>]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            r.iter()
                .zip(kinds)
                .map(|(&v, kind)| match kind {
                    ColumnKind::Term => ds.dict.term(v).to_string(),
                    ColumnKind::Count => v.to_string(),
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

/// The four benchmark queries the SPARQL subset can express, as strings.
/// q2's 28-interesting-properties restriction is spelled as a `FILTER IN`
/// over the context's property list.
fn sparql_for(q: QueryId, ds: &Dataset, ctx: &QueryContext) -> String {
    match q {
        // SELECT A.obj, count(*) FROM triples A WHERE A.prop = <type>
        // GROUP BY A.obj
        QueryId::Q1 => format!(
            "SELECT ?class (COUNT(*) AS ?n) WHERE {{ ?s {} ?class }} GROUP BY ?class",
            vocab::TYPE
        ),
        // A(type=Text) join-on-subject B, B.prop restricted to the
        // interesting list, GROUP BY B.prop.
        QueryId::Q2 => {
            let interesting: Vec<&str> = ctx.interesting.iter().map(|&p| ds.dict.term(p)).collect();
            format!(
                "SELECT ?p (COUNT(*) AS ?n) WHERE {{ \
                     ?s {} {} . \
                     ?s ?p ?o . \
                     FILTER(?p IN ({})) \
                 }} GROUP BY ?p",
                vocab::TYPE,
                vocab::TEXT,
                interesting.join(", ")
            )
        }
        // A(origin=DLC) ⋈s B(records); B.obj = C.subj; C(type != Text);
        // SELECT B.subj, C.obj.
        QueryId::Q5 => format!(
            "SELECT ?a ?obj WHERE {{ \
                 ?a {} {} . \
                 ?a {} ?b . \
                 ?b {} ?obj . \
                 FILTER(?obj != {}) \
             }}",
            vocab::ORIGIN,
            vocab::DLC,
            vocab::RECORDS,
            vocab::TYPE,
            vocab::TEXT
        ),
        // Subjects sharing an object with <conferences> (join pattern B).
        QueryId::Q8 => format!(
            "SELECT ?other WHERE {{ \
                 {} ?p ?o . \
                 ?other ?q ?o . \
                 FILTER(?other != {}) \
             }}",
            vocab::CONFERENCES,
            vocab::CONFERENCES
        ),
        other => panic!("{other} is outside the expressible subset"),
    }
}

#[test]
fn sparql_strings_match_generated_plans_on_all_six_configurations() {
    let ds = generate(&BartonConfig {
        scale: 0.0005, // ~25k triples
        seed: 404,
        n_properties: 60,
    });
    let ctx = QueryContext::from_dataset(&ds, 28);
    let queries = [QueryId::Q1, QueryId::Q2, QueryId::Q5, QueryId::Q8];

    for q in queries {
        let sparql = sparql_for(q, &ds, &ctx);
        // Reference: the generated triple-store plan decoded with its own
        // schema kinds.
        let reference_plan = build_plan(q, swans_plan::Scheme::TripleStore, &ctx);
        let reference_kinds = reference_plan.output_kinds();
        let mut cross_config: Option<Vec<Vec<String>>> = None;

        for config in StoreConfig::paper_matrix() {
            let label = config.label();
            let db = Database::open(ds.clone(), config).expect("config opens");

            // Benchmark path: generator plan, this configuration.
            let bench = decode(
                &ds,
                &reference_kinds,
                &normalize_result(q, db.run_benchmark(q, &ctx).rows),
            );

            // Front-door path: the hand-written string.
            let results = db
                .query(&sparql)
                .unwrap_or_else(|e| panic!("{q} on {label}: {e}"));
            let kinds = results.kinds().to_vec();
            let decoded = decode(&ds, &kinds, &normalize_result(q, results.into_ids()));

            assert_eq!(
                decoded, bench,
                "{q} via SPARQL disagrees with the benchmark path on {label}"
            );
            match &cross_config {
                None => cross_config = Some(decoded),
                Some(r) => assert_eq!(
                    r, &decoded,
                    "{q} via SPARQL differs across configurations at {label}"
                ),
            }
        }
    }
}
