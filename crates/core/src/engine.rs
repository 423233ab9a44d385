//! The [`Engine`] trait: the seam between the query front door and any
//! execution engine.
//!
//! The paper's criticism of C-Store is exactly a missing seam like this
//! one: its query plans were "hard-wired in C++ code", so no new query —
//! let alone a new engine — could be added. Here, anything that can load a
//! data set into some physical layout and execute logical [`Plan`]s plugs
//! into [`RdfStore`](crate::RdfStore) and
//! [`Database`](crate::Database) as a `Box<dyn Engine>`; the two paper
//! engines ([`RowEngine`] and [`ColumnEngine`]) are simply the built-in
//! implementations.

use swans_colstore::ColumnEngine;
use swans_plan::algebra::Plan;
use swans_plan::props::PropsContext;
use swans_rdf::{Dataset, Delta, SortOrder};
use swans_rowstore::engine::TripleIndexConfig;
use swans_rowstore::RowEngine;
use swans_storage::StorageManager;

pub use swans_plan::exec::{CancelReason, EngineError, PartialStats, QueryBudget};

use crate::result::ResultSet;
use crate::store::Layout;

/// What an engine has materialized — the footprint hook of the trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Whether a triple-store layout is loaded.
    pub has_triple_store: bool,
    /// Number of loaded vertically-partitioned property tables.
    pub property_tables: usize,
}

/// An execution engine: loads a data set into one physical [`Layout`] and
/// executes logical plans against it.
///
/// Implementations must be panic-free on the execution path: any plan —
/// including malformed or layout-mismatched ones — returns an
/// [`EngineError`] instead of aborting.
pub trait Engine: Send + Sync {
    /// Display name used in configuration labels and result tables.
    fn name(&self) -> &'static str;

    /// Materializes `dataset` under `layout`, registering segments with
    /// `storage`. `compression` enables layout-level compression where the
    /// engine supports it (the column engine's leading-column RLE).
    fn load(
        &mut self,
        storage: &StorageManager,
        dataset: &Dataset,
        layout: Layout,
        compression: bool,
    ) -> Result<(), EngineError>;

    /// Executes a logical plan under a [`QueryBudget`], returning the
    /// (still encoded) result set. The engine checks the budget
    /// cooperatively (deadline, memory limit, external cancel) and
    /// returns [`EngineError::Cancelled`] instead of running to
    /// completion when it expires — both built-in engines check per
    /// operator and per morsel / per N rows. An ungoverned call passes
    /// [`QueryBudget::unlimited`]: there is no second, unbudgeted path.
    fn execute(&self, plan: &Plan, budget: &QueryBudget) -> Result<ResultSet, EngineError>;

    /// What this engine currently has loaded.
    fn footprint(&self) -> Footprint;

    /// Applies a batch of mutations (deletes before inserts — see
    /// [`Delta`]'s semantics). Engines choose their own physical strategy:
    /// the column engine buffers into a write store, the row engine
    /// maintains its B+trees in place. The default declines: a read-only
    /// engine reports `Unsupported` instead of silently dropping writes.
    fn apply(&mut self, storage: &StorageManager, delta: &Delta) -> Result<(), EngineError> {
        let _ = (storage, delta);
        Err(EngineError::Unsupported(
            "this engine has no write path".into(),
        ))
    }

    /// Folds any buffered mutations into the engine's primary layout
    /// (the column engine's write-store merge). A no-op — the default —
    /// for engines that apply mutations in place.
    fn merge(&mut self, storage: &StorageManager) -> Result<(), EngineError> {
        let _ = storage;
        Ok(())
    }

    /// Number of buffered (applied but unmerged) mutations. Zero — the
    /// default — for engines that apply in place.
    fn pending_delta(&self) -> usize {
        0
    }

    /// Lifetime count of merges this engine performed (explicit *and*
    /// threshold-triggered). The durable front door watches this across
    /// [`Engine::apply`] calls to checkpoint right after an automatic
    /// merge. Zero forever — the default — for engines that never merge.
    fn merges(&self) -> u64 {
        0
    }

    /// Sets the buffered-operation count at which [`Engine::apply`] should
    /// merge automatically. Advisory; ignored by the default.
    fn set_merge_threshold(&mut self, ops: usize) {
        let _ = ops;
    }

    /// Sets the intra-query worker count for engines with morsel-parallel
    /// execution. Answers must not depend on the width. Advisory; ignored
    /// by the default (and by the built-in row engine, whose
    /// tuple-at-a-time iterators are inherently sequential).
    fn set_threads(&mut self, threads: usize) {
        let _ = threads;
    }

    /// Enables or disables pre-execution plan verification for engines
    /// that run the static checker in [`swans_plan::verify`](mod@swans_plan::verify) (the column
    /// engine verifies in debug builds by default and opts release
    /// builds in through this switch). Advisory; ignored by the default
    /// (and by the built-in row engine, which takes no dispatch decision
    /// a property claim could corrupt).
    fn set_verify(&mut self, on: bool) {
        let _ = on;
    }

    /// The physical-property context EXPLAIN should annotate plans with —
    /// what this engine's dispatch actually exploits. The default claims
    /// nothing, which is truthful for any engine that does not do
    /// order-aware dispatch (including the built-in row engine).
    fn explain_context(&self) -> PropsContext {
        PropsContext::default()
    }

    /// A *snapshot fork*: an independent engine answering queries from
    /// exactly this engine's current state, unaffected by any mutation the
    /// original absorbs afterwards. This is the seam snapshot-isolated
    /// concurrent reads hang on — the front door forks on every commit and
    /// publishes the fork as the readable version.
    ///
    /// The column engine forks zero-copy (its sorted runs are immutable
    /// `Arc`s); the row engine deep-copies its trees. Required: every
    /// read runs on a fork, so readers never take the writer lock.
    fn fork(&self) -> Box<dyn Engine>;

    /// Named execution counters (kernel dispatches, merges, ...) since
    /// this engine instance was created or last reset — the auditable form
    /// of operator selection, surfaced per *session* once engines are
    /// forked per reader. The default reports nothing.
    fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

impl Engine for RowEngine {
    fn name(&self) -> &'static str {
        "DBX-sim (row)"
    }

    fn load(
        &mut self,
        storage: &StorageManager,
        dataset: &Dataset,
        layout: Layout,
        _compression: bool,
    ) -> Result<(), EngineError> {
        match layout {
            Layout::TripleStore(order) => {
                // The paper's §4.1 index sets: SPO → unclustered POS, OSP;
                // PSO → all five other permutations.
                let idx = match order {
                    SortOrder::Spo => TripleIndexConfig::spo(),
                    SortOrder::Pso => TripleIndexConfig::pso(),
                    other => TripleIndexConfig {
                        cluster: other,
                        secondaries: vec![],
                    },
                };
                self.load_triple_store(storage, &dataset.triples, &idx);
            }
            Layout::VerticallyPartitioned => {
                self.load_vertical(storage, &dataset.triples);
            }
        }
        Ok(())
    }

    fn execute(&self, plan: &Plan, budget: &QueryBudget) -> Result<ResultSet, EngineError> {
        let rows = RowEngine::execute_budgeted(self, plan, budget)?;
        Ok(ResultSet::new(rows, plan.output_kinds()))
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            has_triple_store: self.has_triple_store(),
            property_tables: self.property_table_count(),
        }
    }

    fn apply(&mut self, storage: &StorageManager, delta: &Delta) -> Result<(), EngineError> {
        RowEngine::apply(self, storage, delta)
    }

    fn fork(&self) -> Box<dyn Engine> {
        Box::new(self.clone())
    }
}

impl Engine for ColumnEngine {
    fn name(&self) -> &'static str {
        "MonetDB-sim (column)"
    }

    fn load(
        &mut self,
        storage: &StorageManager,
        dataset: &Dataset,
        layout: Layout,
        compression: bool,
    ) -> Result<(), EngineError> {
        match layout {
            Layout::TripleStore(order) => {
                self.load_triple_store(storage, &dataset.triples, order, compression);
            }
            Layout::VerticallyPartitioned => {
                self.load_vertical(storage, &dataset.triples, compression);
            }
        }
        Ok(())
    }

    fn execute(&self, plan: &Plan, budget: &QueryBudget) -> Result<ResultSet, EngineError> {
        // The row-major decode is the result boundary of compressed
        // execution: columns that stayed run-encoded through the whole
        // plan expand here (counted in the engine's `runs_expanded`
        // statistic).
        let rows = ColumnEngine::execute_budgeted(self, plan, budget)?;
        Ok(ResultSet::new(rows, plan.output_kinds()))
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            has_triple_store: self.has_triple_store(),
            property_tables: self.property_table_count(),
        }
    }

    fn apply(&mut self, storage: &StorageManager, delta: &Delta) -> Result<(), EngineError> {
        ColumnEngine::apply(self, storage, delta)
    }

    fn merge(&mut self, storage: &StorageManager) -> Result<(), EngineError> {
        ColumnEngine::merge(self, storage)
    }

    fn pending_delta(&self) -> usize {
        ColumnEngine::pending_delta(self)
    }

    fn merges(&self) -> u64 {
        ColumnEngine::merges(self)
    }

    fn set_merge_threshold(&mut self, ops: usize) {
        ColumnEngine::set_merge_threshold(self, ops);
    }

    fn set_threads(&mut self, threads: usize) {
        ColumnEngine::set_threads(self, threads);
    }

    fn set_verify(&mut self, on: bool) {
        ColumnEngine::set_verify(self, on);
    }

    fn explain_context(&self) -> PropsContext {
        self.props_ctx()
    }

    fn fork(&self) -> Box<dyn Engine> {
        Box::new(ColumnEngine::fork(self))
    }

    fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        self.exec_stats().named()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swans_plan::algebra::scan_all;
    use swans_storage::MachineProfile;

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        ds.add("<s1>", "<type>", "<Text>");
        ds.add("<s2>", "<type>", "<Date>");
        ds.add("<s1>", "<lang>", "\"fre\"");
        ds
    }

    /// Both built-in engines behave identically through the trait object.
    #[test]
    fn trait_objects_load_and_execute() {
        let ds = dataset();
        let engines: Vec<Box<dyn Engine>> =
            vec![Box::new(RowEngine::new()), Box::new(ColumnEngine::new())];
        for mut engine in engines {
            let storage = StorageManager::new(MachineProfile::B);
            engine
                .load(&storage, &ds, Layout::TripleStore(SortOrder::Pso), false)
                .expect("load succeeds");
            let fp = engine.footprint();
            assert!(fp.has_triple_store, "{}", engine.name());
            assert_eq!(fp.property_tables, 0);

            let unlimited = QueryBudget::unlimited();
            let rs = engine
                .execute(&scan_all(), &unlimited)
                .expect("scan executes");
            assert_eq!(rs.len(), 3, "{}", engine.name());

            // The other layout was never loaded: typed error, no panic.
            let vp_scan = Plan::ScanProperty {
                property: 0,
                s: None,
                o: None,
                emit_property: false,
            };
            assert_eq!(
                engine.execute(&vp_scan, &unlimited).unwrap_err(),
                EngineError::MissingVerticalLayout,
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn vertical_footprint_counts_property_tables() {
        let ds = dataset();
        let storage = StorageManager::new(MachineProfile::B);
        let mut engine: Box<dyn Engine> = Box::new(ColumnEngine::new());
        engine
            .load(&storage, &ds, Layout::VerticallyPartitioned, true)
            .expect("load succeeds");
        let fp = engine.footprint();
        assert!(!fp.has_triple_store);
        assert_eq!(fp.property_tables, 2); // <type>, <lang>
    }
}
