//! The row engine: plan execution with Volcano-style row iterators.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use swans_plan::algebra::{leapfrog_fold, CmpOp, Plan};
use swans_plan::exec::{EngineError, QueryBudget};
use swans_rdf::hash::{FxHashMap, FxHashSet, FxHasher};
use swans_rdf::{Delta, Id, SortOrder, Triple};
use swans_storage::StorageManager;

use crate::row::Row;
use crate::table::{RowTable, TableOptions};

type RowsIter<'a> = Box<dyn Iterator<Item = Row> + 'a>;

/// Rows between cooperative budget checks in the tuple-at-a-time loops
/// (the row engine's analogue of the column engine's per-morsel token
/// check — morsels are the same size).
const BUDGET_CHECK_ROWS: usize = 4096;

/// Index configuration for the triples table.
#[derive(Debug, Clone)]
pub struct TripleIndexConfig {
    /// Clustering order.
    pub cluster: SortOrder,
    /// Secondary index orders.
    pub secondaries: Vec<SortOrder>,
}

impl TripleIndexConfig {
    /// The configuration of Abadi et al. / the paper's first DBX setup:
    /// clustered SPO with unclustered POS and OSP.
    pub fn spo() -> Self {
        Self {
            cluster: SortOrder::Spo,
            secondaries: vec![SortOrder::Pos, SortOrder::Osp],
        }
    }

    /// The paper's improved setup (§4.1): clustered PSO plus unclustered
    /// B+trees on all five other permutations.
    pub fn pso() -> Self {
        Self {
            cluster: SortOrder::Pso,
            secondaries: vec![
                SortOrder::Spo,
                SortOrder::Pos,
                SortOrder::Osp,
                SortOrder::Sop,
                SortOrder::Ops,
            ],
        }
    }
}

/// The row-store engine instance: a triple-store layout and/or a
/// vertically-partitioned layout sharing one storage manager.
/// Cloning deep-copies the B+tree arenas: a clone is a fully independent
/// snapshot of the tables (the row store maintains its trees in place, so
/// snapshot isolation needs a real copy — unlike the column engine, whose
/// immutable sorted runs fork zero-copy).
#[derive(Default, Clone)]
pub struct RowEngine {
    triple: Option<RowTable>,
    props: FxHashMap<Id, RowTable>,
    /// Whether [`RowEngine::load_vertical`] ran — distinguishes "no
    /// vertically-partitioned layout at all" (an execution error) from "a
    /// property with no triples" (an empty scan).
    vertical_loaded: bool,
}

impl RowEngine {
    /// An engine with no tables loaded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads the `triples` table under the given index configuration.
    pub fn load_triple_store(
        &mut self,
        storage: &StorageManager,
        triples: &[Triple],
        config: &TripleIndexConfig,
    ) {
        let rows: Vec<u64> = triples.iter().flat_map(|t| t.as_row()).collect();
        let opts = TableOptions {
            cluster_perm: config.cluster.permutation().to_vec(),
            secondary_perms: config
                .secondaries
                .iter()
                .map(|o| o.permutation().to_vec())
                .collect(),
            prefix_compressed: true,
        };
        self.triple = Some(RowTable::load(storage, "triples", 3, &rows, &opts));
    }

    /// Loads the vertically-partitioned layout: per property a 2-column
    /// table clustered on SO with an unclustered OS index (§4.2).
    pub fn load_vertical(&mut self, storage: &StorageManager, triples: &[Triple]) {
        let mut by_prop: FxHashMap<Id, Vec<u64>> = FxHashMap::default();
        for t in triples {
            let rows = by_prop.entry(t.p).or_default();
            rows.push(t.s);
            rows.push(t.o);
        }
        let mut props: Vec<Id> = by_prop.keys().copied().collect();
        props.sort_unstable();
        let opts = Self::vp_table_options();
        for p in props {
            let rows = by_prop.remove(&p).expect("key listed");
            let table = RowTable::load(storage, &format!("vp/{p}"), 2, &rows, &opts);
            self.props.insert(p, table);
        }
        self.vertical_loaded = true;
    }

    /// The vertically-partitioned per-property table policy (§4.2):
    /// clustered SO, unclustered OS, prefix compression.
    fn vp_table_options() -> TableOptions {
        TableOptions {
            cluster_perm: vec![0, 1],          // SO
            secondary_perms: vec![vec![1, 0]], // OS
            prefix_compressed: true,
        }
    }

    /// Applies a [`Delta`] in place — the row store's simpler write path:
    /// no write-store/merge split, just B+tree insert-delete against the
    /// clustered tree and every secondary of each loaded layout, deletes
    /// before inserts. Inserting into a property the vertically-partitioned
    /// layout has never seen creates its table on the fly.
    pub fn apply(&mut self, storage: &StorageManager, delta: &Delta) -> Result<(), EngineError> {
        if self.triple.is_none() && !self.vertical_loaded {
            return Err(EngineError::Unsupported(
                "no layout loaded to apply a delta to".into(),
            ));
        }
        for t in &delta.deletes {
            if let Some(table) = &mut self.triple {
                table.delete(&t.as_row());
            }
            if let Some(table) = self.props.get_mut(&t.p) {
                table.delete(&[t.s, t.o]);
            }
        }
        for t in &delta.inserts {
            if let Some(table) = &mut self.triple {
                table.insert(&t.as_row());
            }
            if self.vertical_loaded {
                let table = self.props.entry(t.p).or_insert_with(|| {
                    RowTable::load(
                        storage,
                        &format!("vp/{}", t.p),
                        2,
                        &[],
                        &Self::vp_table_options(),
                    )
                });
                table.insert(&[t.s, t.o]);
            }
        }
        Ok(())
    }

    /// Whether a triple-store layout is loaded.
    pub fn has_triple_store(&self) -> bool {
        self.triple.is_some()
    }

    /// Number of loaded property tables.
    pub fn property_table_count(&self) -> usize {
        self.props.len()
    }

    /// Executes a plan to a materialized row bag.
    ///
    /// The plan is validated first; structural problems, scans against a
    /// layout this engine never loaded, and unsupported constructs all
    /// surface as [`EngineError`] — plan execution never panics.
    pub fn execute(&self, plan: &Plan) -> Result<Vec<Vec<u64>>, EngineError> {
        self.execute_budgeted(plan, &QueryBudget::unlimited())
    }

    /// [`RowEngine::execute`] under a resource budget: the deadline,
    /// cancellation token, and memory limit are checked cooperatively —
    /// every `BUDGET_CHECK_ROWS` (4096) rows in the materializing loops — and
    /// a tripped budget surfaces as [`EngineError::Cancelled`]. Join
    /// builds, group tables, distinct sets, and the result rows charge
    /// the budget as they grow.
    pub fn execute_budgeted(
        &self,
        plan: &Plan,
        budget: &QueryBudget,
    ) -> Result<Vec<Vec<u64>>, EngineError> {
        plan.validate().map_err(EngineError::InvalidPlan)?;
        budget.check()?;
        let row_bytes = 8 * plan.arity() as u64;
        let mut out: Vec<Vec<u64>> = Vec::new();
        let mut pending = 0u64;
        for r in self.iter(plan, budget)? {
            out.push(r.to_vec());
            pending += row_bytes;
            if out.len() % BUDGET_CHECK_ROWS == 0 {
                budget.charge(std::mem::take(&mut pending))?;
                budget.check()?;
            }
        }
        budget.charge(pending)?;
        budget.check()?;
        Ok(out)
    }

    /// Builds the Volcano iterator tree for `plan` (already validated).
    /// Operators that materialize eagerly (join builds, group-count
    /// tables) check and charge `budget` while they build; streaming
    /// operators are policed by their consumer's loop. The iterators
    /// borrow only the tables, never `plan`.
    fn iter<'a>(&'a self, plan: &Plan, budget: &QueryBudget) -> Result<RowsIter<'a>, EngineError> {
        Ok(match plan {
            Plan::ScanTriples { s, p, o } => {
                let t = self
                    .triple
                    .as_ref()
                    .ok_or(EngineError::MissingTripleStore)?;
                t.scan(&[*s, *p, *o])
            }
            Plan::ScanProperty {
                property,
                s,
                o,
                emit_property,
            } => {
                if !self.vertical_loaded {
                    return Err(EngineError::MissingVerticalLayout);
                }
                let Some(t) = self.props.get(property) else {
                    // A property with no triples (possible after
                    // splitting): empty.
                    return Ok(Box::new(std::iter::empty()));
                };
                let base = t.scan(&[*s, *o]);
                if *emit_property {
                    let p = *property;
                    Box::new(base.map(move |r| Row::from_slice(&[r.get(0), p, r.get(1)])))
                } else {
                    base
                }
            }
            Plan::Select { input, pred } => {
                let col = pred.col;
                let value = pred.value;
                let ne = pred.op == CmpOp::Ne;
                Box::new(
                    self.iter(input, budget)?
                        .filter(move |r| (r.get(col) == value) != ne),
                )
            }
            Plan::FilterIn { input, col, values } => {
                let set: FxHashSet<u64> = values.iter().copied().collect();
                let col = *col;
                Box::new(
                    self.iter(input, budget)?
                        .filter(move |r| set.contains(&r.get(col))),
                )
            }
            Plan::Join {
                left,
                right,
                left_col,
                right_col,
            } => {
                // Hash join: build on the left input, probe with the right,
                // streaming. Duplicate chains are kept allocation-free.
                let build: Vec<Row> = self.iter(left, budget)?.collect();
                // Build rows + hash heads + chain links.
                budget.charge((std::mem::size_of::<Row>() as u64 + 16) * build.len() as u64)?;
                budget.check()?;
                let mut heads: HashMap<u64, u32, BuildHasherDefault<FxHasher>> =
                    HashMap::with_capacity_and_hasher(build.len(), Default::default());
                let mut next = vec![u32::MAX; build.len()];
                for (i, r) in build.iter().enumerate() {
                    let e = heads.entry(r.get(*left_col)).or_insert(u32::MAX);
                    next[i] = *e;
                    *e = i as u32;
                }
                let right_iter = self.iter(right, budget)?;
                let rc = *right_col;
                Box::new(HashJoinIter {
                    build,
                    heads,
                    next,
                    right: right_iter,
                    rc,
                    current: None,
                })
            }
            // A star join runs as the binary hash join chain it is
            // defined as.
            Plan::LeapfrogJoin { inputs, cols } => {
                self.iter(&leapfrog_fold(inputs, cols), budget)?
            }
            Plan::Project { input, cols } => {
                let cols = cols.clone();
                Box::new(self.iter(input, budget)?.map(move |r| r.project(&cols)))
            }
            Plan::GroupCount { input, keys } => {
                let mut groups: FxHashMap<Row, u64> = FxHashMap::default();
                let mut n = 0usize;
                for r in self.iter(input, budget)? {
                    *groups.entry(r.project(keys)).or_insert(0) += 1;
                    n += 1;
                    if n % BUDGET_CHECK_ROWS == 0 {
                        budget.check()?;
                    }
                }
                budget.charge((std::mem::size_of::<Row>() as u64 + 8) * groups.len() as u64)?;
                Box::new(groups.into_iter().map(|(mut k, c)| {
                    k.push(c);
                    k
                }))
            }
            Plan::HavingCountGt { input, min } => {
                let min = *min;
                let last = input.arity() - 1;
                Box::new(self.iter(input, budget)?.filter(move |r| r.get(last) > min))
            }
            Plan::UnionAll { inputs } => {
                let iters: Vec<RowsIter<'a>> = inputs
                    .iter()
                    .map(|p| self.iter(p, budget))
                    .collect::<Result<_, _>>()?;
                Box::new(iters.into_iter().flatten())
            }
            Plan::Distinct { input } => {
                let mut seen: FxHashSet<Row> = FxHashSet::default();
                // Streaming: charge the seen-set growth as rows pass; an
                // overflowing charge latches the budget and the consumer's
                // periodic check surfaces the typed error.
                let b = budget.clone();
                let entry_bytes = std::mem::size_of::<Row>() as u64 + 8;
                Box::new(self.iter(input, budget)?.filter(move |r| {
                    if seen.insert(*r) {
                        let _ = b.charge(entry_bytes);
                        true
                    } else {
                        false
                    }
                }))
            }
        })
    }
}

/// Streaming probe side of the hash join.
struct HashJoinIter<'a> {
    build: Vec<Row>,
    heads: HashMap<u64, u32, BuildHasherDefault<FxHasher>>,
    next: Vec<u32>,
    right: RowsIter<'a>,
    rc: usize,
    /// (current probe row, next build chain position)
    current: Option<(Row, u32)>,
}

impl Iterator for HashJoinIter<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        loop {
            if let Some((probe, chain)) = self.current {
                if chain != u32::MAX {
                    let b = &self.build[chain as usize];
                    self.current = Some((probe, self.next[chain as usize]));
                    return Some(b.concat(&probe));
                }
                self.current = None;
            }
            let probe = self.right.next()?;
            if let Some(&head) = self.heads.get(&probe.get(self.rc)) {
                self.current = Some((probe, head));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swans_plan::algebra::{group_count, join, project, scan_all, scan_po};
    use swans_plan::naive;
    use swans_storage::MachineProfile;

    fn triples() -> Vec<Triple> {
        vec![
            Triple::new(10, 0, 1),
            Triple::new(11, 0, 1),
            Triple::new(12, 0, 4),
            Triple::new(10, 2, 3),
            Triple::new(11, 2, 5),
            Triple::new(13, 2, 3),
        ]
    }

    fn engine(config: &TripleIndexConfig) -> RowEngine {
        let m = StorageManager::new(MachineProfile::B);
        let mut e = RowEngine::new();
        e.load_triple_store(&m, &triples(), config);
        e.load_vertical(&m, &triples());
        e
    }

    fn check(plan: &Plan, e: &RowEngine) {
        let got = naive::normalize(e.execute(plan).expect("plan executes"));
        let want = naive::normalize(naive::execute(plan, &triples()));
        assert_eq!(got, want, "plan {plan:?}");
    }

    #[test]
    fn scans_match_naive_under_both_configs() {
        for config in [TripleIndexConfig::spo(), TripleIndexConfig::pso()] {
            let e = engine(&config);
            check(&scan_all(), &e);
            check(&scan_po(0, 1), &e);
            check(
                &Plan::ScanTriples {
                    s: Some(10),
                    p: None,
                    o: None,
                },
                &e,
            );
            check(
                &Plan::ScanTriples {
                    s: None,
                    p: None,
                    o: Some(3),
                },
                &e,
            );
        }
    }

    #[test]
    fn scan_property_matches_naive() {
        let e = engine(&TripleIndexConfig::pso());
        for (s, o, emit) in [
            (None, None, false),
            (None, None, true),
            (Some(10), None, true),
            (None, Some(1), false),
        ] {
            check(
                &Plan::ScanProperty {
                    property: 0,
                    s,
                    o,
                    emit_property: emit,
                },
                &e,
            );
        }
    }

    #[test]
    fn missing_property_is_empty() {
        let e = engine(&TripleIndexConfig::pso());
        let p = Plan::ScanProperty {
            property: 77,
            s: None,
            o: None,
            emit_property: false,
        };
        assert!(e.execute(&p).expect("empty scan executes").is_empty());
    }

    /// Scans against a layout the engine never loaded return a typed error
    /// instead of aborting the process.
    #[test]
    fn missing_layout_is_an_error_not_a_panic() {
        let m = StorageManager::new(MachineProfile::B);
        let mut triple_only = RowEngine::new();
        triple_only.load_triple_store(&m, &triples(), &TripleIndexConfig::pso());
        let vp_scan = Plan::ScanProperty {
            property: 0,
            s: None,
            o: None,
            emit_property: false,
        };
        assert_eq!(
            triple_only.execute(&vp_scan),
            Err(EngineError::MissingVerticalLayout)
        );

        let mut vertical_only = RowEngine::new();
        vertical_only.load_vertical(&m, &triples());
        assert_eq!(
            vertical_only.execute(&scan_all()),
            Err(EngineError::MissingTripleStore)
        );
        // The error surfaces even when the bad scan is buried in a tree.
        let nested = project(join(vp_scan, scan_all(), 0, 0), vec![0]);
        assert_eq!(
            vertical_only.execute(&nested),
            Err(EngineError::MissingTripleStore)
        );
    }

    /// A structurally malformed plan (out-of-range column reference) is
    /// rejected up front with `InvalidPlan`.
    #[test]
    fn malformed_plan_returns_err() {
        let e = engine(&TripleIndexConfig::pso());
        let bad = project(scan_all(), vec![7]);
        assert!(matches!(e.execute(&bad), Err(EngineError::InvalidPlan(_))));
        let bad_union = Plan::UnionAll { inputs: vec![] };
        assert!(matches!(
            e.execute(&bad_union),
            Err(EngineError::InvalidPlan(_))
        ));
    }

    #[test]
    fn join_pipeline_matches_naive() {
        let e = engine(&TripleIndexConfig::pso());
        let p = group_count(
            project(join(scan_po(0, 1), scan_all(), 0, 0), vec![4]),
            vec![0],
        );
        check(&p, &e);
    }

    #[test]
    fn distinct_union_matches_naive() {
        let e = engine(&TripleIndexConfig::pso());
        let p = Plan::Distinct {
            input: Box::new(Plan::UnionAll {
                inputs: vec![
                    project(scan_po(0, 1), vec![0]),
                    project(scan_all(), vec![0]),
                ],
            }),
        };
        check(&p, &e);
    }

    /// The in-place write path: a delta lands in the clustered trees and
    /// all secondaries of both layouts, deletes-before-inserts, matching
    /// the naive executor over the mutated triple bag.
    #[test]
    fn apply_mutates_both_layouts_in_place() {
        let e_ref = engine(&TripleIndexConfig::pso());
        let mut e = e_ref;
        let mut delta = Delta::new();
        delta
            .delete(Triple::new(11, 0, 1))
            .insert(Triple::new(14, 0, 1))
            .insert(Triple::new(14, 7, 9)); // brand-new property
        let m = StorageManager::new(MachineProfile::B);
        e.apply(&m, &delta).expect("delta applies");

        let mut expect = triples();
        expect.retain(|t| *t != Triple::new(11, 0, 1));
        expect.push(Triple::new(14, 0, 1));
        expect.push(Triple::new(14, 7, 9));

        for plan in [
            scan_all(),
            scan_po(0, 1),
            Plan::ScanProperty {
                property: 7,
                s: None,
                o: None,
                emit_property: true,
            },
            group_count(
                project(join(scan_po(0, 1), scan_all(), 0, 0), vec![4]),
                vec![0],
            ),
        ] {
            let got = naive::normalize(e.execute(&plan).expect("plan executes"));
            let want = naive::normalize(naive::execute(&plan, &expect));
            assert_eq!(got, want, "plan {plan:?}");
        }
        assert_eq!(e.property_table_count(), 3, "property 7 table created");

        // No layout loaded: typed error.
        let mut empty = RowEngine::new();
        assert!(matches!(
            empty.apply(&m, &delta),
            Err(EngineError::Unsupported(_))
        ));
    }

    /// All twelve benchmark queries, both schemes, match the naive
    /// executor — and under both triple index configurations.
    #[test]
    fn benchmark_queries_match_naive() {
        use swans_plan::queries::{build_plan, vocab, QueryContext, QueryId, Scheme};
        let mut ds = swans_rdf::Dataset::new();
        let subj = |i: usize| format!("<s{i}>");
        for i in 0..60 {
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
                ds.add(&subj(i), vocab::RECORDS, &subj((i + 1) % 60));
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
        for config in [TripleIndexConfig::spo(), TripleIndexConfig::pso()] {
            let m = StorageManager::new(MachineProfile::B);
            let mut e = RowEngine::new();
            e.load_triple_store(&m, &ds.triples, &config);
            e.load_vertical(&m, &ds.triples);
            for q in QueryId::ALL {
                for scheme in [Scheme::TripleStore, Scheme::VerticallyPartitioned] {
                    let plan = build_plan(q, scheme, &ctx);
                    let got = naive::normalize(e.execute(&plan).expect("plan executes"));
                    let want = naive::normalize(naive::execute(&plan, &ds.triples));
                    assert_eq!(
                        got,
                        want,
                        "query {q} / {} / cluster {}",
                        scheme.name(),
                        config.cluster
                    );
                }
            }
        }
    }
}
