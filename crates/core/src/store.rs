//! [`RdfStore`]: one loaded (engine × layout × machine) configuration.
//!
//! The store owns a [`StorageManager`] and a `Box<dyn Engine>` — dispatch
//! goes through the [`Engine`] trait, so the two built-in engines and any
//! third-party implementation are handled identically, and executing a
//! plan the engine cannot run returns a typed error instead of panicking.

use swans_colstore::ColumnEngine;
use swans_plan::algebra::Plan;
use swans_plan::exec::EngineError;
use swans_plan::queries::{build_plan, QueryContext, QueryId, Scheme};
use swans_rdf::{Dataset, SortOrder};
use swans_rowstore::RowEngine;
use swans_storage::{IoStats, MachineProfile, StorageManager};

use crate::engine::Engine;
use crate::error::Error;

/// Which engine architecture executes the queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Tuple-at-a-time row store with B+tree access paths (the paper's
    /// "DBX" stand-in).
    Row,
    /// Column-at-a-time vectorized engine with full-column reads (the
    /// paper's MonetDB/SQL stand-in).
    Column,
}

impl EngineKind {
    /// Display name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Row => "DBX-sim (row)",
            EngineKind::Column => "MonetDB-sim (column)",
        }
    }

    /// Instantiates an empty engine of this kind.
    pub fn create(self) -> Box<dyn Engine> {
        match self {
            EngineKind::Row => Box::new(RowEngine::new()),
            EngineKind::Column => Box::new(ColumnEngine::new()),
        }
    }
}

/// The physical RDF layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// One `triples(s, p, o)` table clustered by the given order. The row
    /// engine gets the paper's index sets (§4.1): SPO → unclustered POS,
    /// OSP; PSO → all five other permutations.
    TripleStore(SortOrder),
    /// One `(subject, object)` table per property, sorted/clustered SO with
    /// an unclustered OS index (§4.2).
    VerticallyPartitioned,
}

impl Layout {
    /// The scheme the query generator should target.
    pub fn scheme(self) -> Scheme {
        match self {
            Layout::TripleStore(_) => Scheme::TripleStore,
            Layout::VerticallyPartitioned => Scheme::VerticallyPartitioned,
        }
    }

    /// Display name, e.g. `"triple/PSO"`.
    pub fn name(self) -> String {
        match self {
            Layout::TripleStore(o) => format!("triple/{o}"),
            Layout::VerticallyPartitioned => "vert/SO".to_string(),
        }
    }
}

/// Configuration for loading an [`RdfStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Engine architecture.
    pub engine: EngineKind,
    /// Physical layout.
    pub layout: Layout,
    /// Simulated machine (Table 3). Defaults to machine B, the paper's
    /// §4 test-bed.
    pub machine: MachineProfile,
    /// Buffer-pool capacity in pages (`None` = unbounded, the paper's
    /// data-fits-in-RAM setting).
    pub pool_pages: Option<usize>,
    /// Column-store leading-column RLE compression.
    pub compression: bool,
    /// Buffered-mutation count at which the engine should merge its write
    /// store automatically (`None` = the engine's own default).
    pub merge_threshold: Option<usize>,
    /// Intra-query worker threads for engines with morsel-parallel
    /// execution (the column engine). 1 = sequential, the default.
    pub threads: usize,
    /// Pre-execution plan verification override (`None` = the engine's
    /// own default: the column engine verifies in debug builds and skips
    /// in release). `Some(true)` opts a release build into the static
    /// checker; `Some(false)` silences it even in debug.
    pub verify: Option<bool>,
}

impl StoreConfig {
    /// A row-store configuration on machine B.
    pub fn row(layout: Layout) -> Self {
        Self {
            engine: EngineKind::Row,
            layout,
            machine: MachineProfile::B,
            pool_pages: None,
            compression: false,
            merge_threshold: None,
            threads: 1,
            verify: None,
        }
    }

    /// A column-store configuration on machine B (compression on, as the
    /// leading sorted column is trivially RLE-compressible).
    pub fn column(layout: Layout) -> Self {
        Self {
            engine: EngineKind::Column,
            layout,
            machine: MachineProfile::B,
            pool_pages: None,
            compression: true,
            merge_threshold: None,
            threads: 1,
            verify: None,
        }
    }

    /// The paper's evaluation matrix (Tables 6–7): {row, column} engine ×
    /// {triple/SPO, triple/PSO, vert/SO} layout, row engine first — the
    /// six configurations every equivalence suite sweeps.
    pub fn paper_matrix() -> Vec<Self> {
        let layouts = [
            Layout::TripleStore(SortOrder::Spo),
            Layout::TripleStore(SortOrder::Pso),
            Layout::VerticallyPartitioned,
        ];
        layouts
            .into_iter()
            .map(Self::row)
            .chain(layouts.into_iter().map(Self::column))
            .collect()
    }

    /// Overrides the machine profile.
    pub fn on_machine(mut self, machine: MachineProfile) -> Self {
        self.machine = machine;
        self
    }

    /// Restricts the buffer pool (the C-Store stand-in).
    pub fn with_pool_pages(mut self, pages: usize) -> Self {
        self.pool_pages = Some(pages);
        self
    }

    /// Sets the buffered-mutation count at which the engine merges its
    /// write store automatically.
    pub fn with_merge_threshold(mut self, ops: usize) -> Self {
        self.merge_threshold = Some(ops);
        self
    }

    /// Sets the intra-query worker count: engines with morsel-parallel
    /// execution (the column engine) run partitioned operators on up to
    /// `threads` scoped threads. Answers are identical at every width —
    /// only wall-clock changes.
    ///
    /// ```
    /// use swans_core::{Database, Layout, StoreConfig};
    /// use swans_rdf::Dataset;
    ///
    /// let mut ds = Dataset::new();
    /// ds.add("<s1>", "<type>", "<Text>");
    /// ds.add("<s2>", "<type>", "<Date>");
    /// let config = StoreConfig::column(Layout::VerticallyPartitioned).with_threads(4);
    /// let db = Database::open(ds, config)?;
    /// let results = db.query("SELECT ?s WHERE { ?s <type> <Text> }")?;
    /// assert_eq!(results.decoded(), vec![vec!["<s1>".to_string()]]);
    /// # Ok::<(), swans_core::Error>(())
    /// ```
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Opts into (or out of) pre-execution plan verification: the static
    /// checker in `swans_plan::verify` runs on every plan the engine
    /// executes, so an unjustifiable physical-property claim surfaces as
    /// a typed error naming the offending operator instead of a wrong
    /// answer. The column engine verifies in debug builds regardless;
    /// `with_verify(true)` extends that to release builds (the check is
    /// one linear plan walk — negligible next to execution), and
    /// `with_verify(false)` silences it everywhere.
    pub fn with_verify(mut self, on: bool) -> Self {
        self.verify = Some(on);
        self
    }

    /// Human-readable configuration label.
    pub fn label(&self) -> String {
        format!("{} {}", self.engine.name(), self.layout.name())
    }

    /// Checks the configuration for contradictions, describing the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.pool_pages == Some(0) {
            return Err("buffer pool of 0 pages cannot hold any data".into());
        }
        if self.threads == 0 {
            return Err("worker pool needs at least one thread".into());
        }
        let bw = self.machine.io_read_mb_s;
        if bw.is_nan() || bw <= 0.0 {
            return Err(format!(
                "machine profile needs positive read bandwidth (got {bw})"
            ));
        }
        let seek = self.machine.seek_ms;
        if seek.is_nan() || seek < 0.0 {
            return Err(format!(
                "machine profile needs a non-negative seek penalty (got {seek})"
            ));
        }
        Ok(())
    }
}

/// The result and cost of one query execution.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Result rows (dictionary-encoded).
    pub rows: Vec<Vec<u64>>,
    /// Measured compute seconds (the paper's *user time*).
    pub user_seconds: f64,
    /// Compute + simulated I/O wait (the paper's *real time*).
    pub real_seconds: f64,
    /// I/O performed during this execution.
    pub io: IoStats,
}

/// A loaded store: a data set materialized in one physical configuration,
/// executing plans through an [`Engine`] trait object.
pub struct RdfStore {
    config: StoreConfig,
    storage: StorageManager,
    engine: Box<dyn Engine>,
}

impl RdfStore {
    /// Loads `dataset` under `config` with the built-in engine the
    /// configuration names. Loading (sorting, index builds, segment
    /// registration) happens outside the measured window, matching the
    /// benchmark convention of §2.3.
    pub fn try_load(dataset: &Dataset, config: StoreConfig) -> Result<Self, Error> {
        let engine = config.engine.create();
        Self::with_engine(dataset, config, engine)
    }

    /// Loads `dataset` into a caller-provided engine — the plug-in point
    /// for third-party [`Engine`] implementations. `config.engine` is kept
    /// only as a label; dispatch goes through the trait object.
    pub fn with_engine(
        dataset: &Dataset,
        config: StoreConfig,
        mut engine: Box<dyn Engine>,
    ) -> Result<Self, Error> {
        config.validate().map_err(Error::Config)?;
        let storage = match config.pool_pages {
            Some(pages) => StorageManager::with_pool(config.machine, pages),
            None => StorageManager::new(config.machine),
        };
        if let Some(ops) = config.merge_threshold {
            engine.set_merge_threshold(ops);
        }
        engine.set_threads(config.threads);
        if let Some(on) = config.verify {
            engine.set_verify(on);
        }
        engine.load(&storage, dataset, config.layout, config.compression)?;
        // Loading touched nothing through the pool, but be explicit: the
        // first run must observe a cold system with zeroed counters.
        storage.clear_pool();
        storage.reset_stats();
        Ok(Self {
            config,
            storage,
            engine,
        })
    }

    /// [`RdfStore::try_load`] for benchmark call sites that treat a broken
    /// configuration as fatal.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or the engine rejects the
    /// load — use [`RdfStore::try_load`] to handle these as values.
    pub fn load(dataset: &Dataset, config: StoreConfig) -> Self {
        let label = config.label();
        Self::try_load(dataset, config).unwrap_or_else(|e| panic!("failed to load {label}: {e}"))
    }

    /// The loaded configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The engine executing this store's plans.
    pub fn engine(&self) -> &dyn Engine {
        self.engine.as_ref()
    }

    /// The storage manager (I/O statistics, traces, pool control).
    pub fn storage(&self) -> &StorageManager {
        &self.storage
    }

    /// Total on-disk footprint of this layout in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.storage.total_bytes()
    }

    /// Empties the buffer pool so the next execution runs cold.
    pub fn make_cold(&self) {
        self.storage.clear_pool();
    }

    /// Applies a batch of mutations through the engine's write path,
    /// charging the storage layer for the delta (and for any
    /// threshold-triggered merge).
    pub fn apply(&mut self, delta: &swans_rdf::Delta) -> Result<(), Error> {
        self.engine.apply(&self.storage, delta)?;
        Ok(())
    }

    /// Merges any buffered mutations into the primary sorted layout.
    pub fn merge(&mut self) -> Result<(), Error> {
        self.engine.merge(&self.storage)?;
        Ok(())
    }

    /// Number of applied-but-unmerged mutations buffered by the engine.
    pub fn pending_delta(&self) -> usize {
        self.engine.pending_delta()
    }

    /// Lifetime engine merge count (see [`Engine::merges`]).
    pub fn merges(&self) -> u64 {
        self.engine.merges()
    }

    /// A snapshot fork of the engine (see [`Engine::fork`]): an
    /// independent reader answering exactly the store's current state.
    pub fn fork_engine(&self) -> Box<dyn Engine> {
        self.engine.fork()
    }

    /// Executes an arbitrary plan under the measurement protocol.
    pub fn run_plan(&self, plan: &Plan) -> Result<QueryRun, EngineError> {
        crate::snapshot::run_plan_on(self.engine.as_ref(), &self.storage, plan)
    }

    /// Builds and executes benchmark query `q`, measuring user/real time
    /// and I/O. Whether the run is cold or hot depends on the pool state —
    /// use [`RdfStore::make_cold`] or prior executions to set it up.
    ///
    /// This is the thin wrapper the experiment drivers (Tables 4/6/7, the
    /// figure sweeps) run on. The generator always produces a valid plan
    /// for this store's own layout, so engine errors cannot occur here;
    /// should an engine misbehave anyway, the benchmark treats that as
    /// fatal.
    pub fn run_query(&self, q: QueryId, ctx: &QueryContext) -> QueryRun {
        let plan = build_plan(q, self.config.layout.scheme(), ctx);
        self.run_plan(&plan).unwrap_or_else(|e| {
            panic!("benchmark query {q} failed on {}: {e}", self.config.label())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swans_datagen::{generate, BartonConfig};
    use swans_plan::exec::QueryBudget;
    use swans_plan::naive;

    fn dataset() -> Dataset {
        generate(&BartonConfig {
            scale: 0.0005, // ~25k triples
            seed: 21,
            n_properties: 60,
        })
    }

    /// All six (engine × layout) configurations return identical results
    /// for every benchmark query — the central correctness invariant of
    /// the reproduction.
    #[test]
    fn all_configurations_agree() {
        let ds = dataset();
        let ctx = QueryContext::from_dataset(&ds, 28);
        let stores: Vec<RdfStore> = StoreConfig::paper_matrix()
            .into_iter()
            .map(|c| RdfStore::load(&ds, c))
            .collect();
        for q in QueryId::ALL {
            let reference = crate::normalize_result(
                q,
                naive::execute(&build_plan(q, Scheme::TripleStore, &ctx), &ds.triples),
            );
            for store in &stores {
                let got = crate::normalize_result(q, store.run_query(q, &ctx).rows);
                assert_eq!(
                    got,
                    reference,
                    "{} disagrees on {q}",
                    store.config().label()
                );
            }
        }
    }

    #[test]
    fn cold_reads_more_than_hot() {
        let ds = dataset();
        let ctx = QueryContext::from_dataset(&ds, 28);
        let store = RdfStore::load(&ds, StoreConfig::column(Layout::VerticallyPartitioned));
        store.make_cold();
        let cold = store.run_query(QueryId::Q2, &ctx);
        let hot = store.run_query(QueryId::Q2, &ctx);
        assert!(cold.io.bytes_read > 0);
        assert_eq!(hot.io.bytes_read, 0, "hot run must be I/O-free");
        assert!(cold.real_seconds > hot.user_seconds);
        assert_eq!(
            crate::normalize_result(QueryId::Q2, cold.rows),
            crate::normalize_result(QueryId::Q2, hot.rows),
        );
    }

    #[test]
    fn triple_store_cold_reads_more_than_vp_on_column_engine() {
        let ds = dataset();
        let ctx = QueryContext::from_dataset(&ds, 28);
        let tri = RdfStore::load(
            &ds,
            StoreConfig::column(Layout::TripleStore(SortOrder::Pso)),
        );
        let vp = RdfStore::load(&ds, StoreConfig::column(Layout::VerticallyPartitioned));
        tri.make_cold();
        vp.make_cold();
        // q1 touches only the <type> data: VP reads one table, the triple
        // store reads whole columns (§4.3's explanation).
        let t = tri.run_query(QueryId::Q1, &ctx);
        let v = vp.run_query(QueryId::Q1, &ctx);
        assert!(
            v.io.bytes_read < t.io.bytes_read,
            "VP {}B vs triple {}B",
            v.io.bytes_read,
            t.io.bytes_read
        );
    }

    #[test]
    fn disk_footprint_reported() {
        let ds = dataset();
        let store = RdfStore::load(&ds, StoreConfig::row(Layout::TripleStore(SortOrder::Pso)));
        // triples + 5 secondaries: at least arity*8*n bytes.
        assert!(store.disk_bytes() > ds.len() as u64 * 24);
    }

    /// Dispatch goes through the trait object: a plan for the layout this
    /// store did NOT load yields a typed error, never a panic.
    #[test]
    fn mismatched_plan_is_a_typed_error() {
        let ds = dataset();
        let ctx = QueryContext::from_dataset(&ds, 8);
        let triple_store = RdfStore::load(
            &ds,
            StoreConfig::column(Layout::TripleStore(SortOrder::Pso)),
        );
        let vp_plan = build_plan(QueryId::Q1, Scheme::VerticallyPartitioned, &ctx);
        assert_eq!(
            triple_store.run_plan(&vp_plan).unwrap_err(),
            EngineError::MissingVerticalLayout
        );
        let vp_store = RdfStore::load(&ds, StoreConfig::row(Layout::VerticallyPartitioned));
        let tri_plan = build_plan(QueryId::Q1, Scheme::TripleStore, &ctx);
        assert_eq!(
            vp_store.run_plan(&tri_plan).unwrap_err(),
            EngineError::MissingTripleStore
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let ds = dataset();
        let bad = StoreConfig::column(Layout::VerticallyPartitioned).with_pool_pages(0);
        assert!(matches!(
            RdfStore::try_load(&ds, bad),
            Err(Error::Config(_))
        ));
        let mut negative = StoreConfig::row(Layout::TripleStore(SortOrder::Pso));
        negative.machine.io_read_mb_s = 0.0;
        assert!(matches!(
            RdfStore::try_load(&ds, negative),
            Err(Error::Config(_))
        ));
    }

    /// Third-party engines plug in through `with_engine`.
    #[test]
    fn custom_engine_plugs_in() {
        use crate::engine::{Engine, Footprint};
        use crate::result::ResultSet;

        /// A trivial engine that keeps the triples in a Vec and answers
        /// through the naive executor.
        #[derive(Clone)]
        struct NaiveEngine {
            triples: Vec<swans_rdf::Triple>,
        }
        impl Engine for NaiveEngine {
            fn name(&self) -> &'static str {
                "naive-sim"
            }
            fn load(
                &mut self,
                _storage: &StorageManager,
                dataset: &Dataset,
                _layout: Layout,
                _compression: bool,
            ) -> Result<(), EngineError> {
                self.triples = dataset.triples.clone();
                Ok(())
            }
            fn execute(&self, plan: &Plan, budget: &QueryBudget) -> Result<ResultSet, EngineError> {
                budget.check()?;
                plan.validate().map_err(EngineError::InvalidPlan)?;
                Ok(ResultSet::new(
                    naive::execute(plan, &self.triples),
                    plan.output_kinds(),
                ))
            }
            fn footprint(&self) -> Footprint {
                Footprint {
                    has_triple_store: true,
                    property_tables: 0,
                }
            }
            fn fork(&self) -> Box<dyn Engine> {
                Box::new(self.clone())
            }
        }

        let ds = dataset();
        let ctx = QueryContext::from_dataset(&ds, 28);
        let store = RdfStore::with_engine(
            &ds,
            StoreConfig::row(Layout::TripleStore(SortOrder::Pso)),
            Box::new(NaiveEngine { triples: vec![] }),
        )
        .expect("naive engine loads");
        assert_eq!(store.engine().name(), "naive-sim");
        let q1 = build_plan(QueryId::Q1, Scheme::TripleStore, &ctx);
        let got = crate::normalize_result(QueryId::Q1, store.run_plan(&q1).unwrap().rows);
        let want = crate::normalize_result(QueryId::Q1, naive::execute(&q1, &ds.triples));
        assert_eq!(got, want);
    }
}
