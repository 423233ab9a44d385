//! [`Database`]: the front door of the system.
//!
//! One type owns the whole pipeline the paper could not get out of
//! C-Store: a data set plus its dictionary, a physical configuration, and
//! a SPARQL entry point that parses, plans, optimizes, lowers and executes
//! an *arbitrary* query on whatever engine × layout was opened — returning
//! decoded term strings, not raw dictionary codes.
//!
//! # Concurrency model
//!
//! The database is split into a **writer side** (the store, the durable
//! log, the authoritative data set — all behind one mutex) and a
//! **published side** (an `Arc`'d immutable [`Snapshot`] behind an
//! `RwLock` that is only ever *swapped*, never held across work). Every
//! mutation commits under the writer lock — WAL append first, then the
//! engine, then the logical data set — and finishes by publishing a new
//! snapshot: a zero-copy fork of the engine plus the new data-set `Arc`.
//!
//! Reads never take the writer lock: [`Database::query`] clones the
//! published `Arc` and executes on that version's engine fork;
//! [`Database::session`] pins a version for many queries. All
//! mutating methods take `&self`, so a `Database` shared behind an `Arc`
//! serves concurrent readers and writers — the `swans-serve` HTTP front
//! door is exactly that.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use swans_plan::algebra::Plan;
use swans_plan::exec::QueryBudget;
use swans_plan::props::PropsContext;
use swans_plan::queries::{build_plan, QueryContext, QueryId};
use swans_plan::verify::{verify, VerifyReport};
use swans_rdf::{Dataset, Delta};
use swans_storage::StorageManager;

use crate::durable::{DurabilityOptions, Durable, RecoveryReport};
use crate::error::Error;
use crate::result::ResultSet;
use crate::snapshot::{compile, Session, Snapshot};
use crate::store::{QueryRun, RdfStore, StoreConfig};
use crate::Engine;

/// The writer side: everything a commit mutates, behind one mutex.
struct WriterState {
    dataset: Arc<Dataset>,
    store: RdfStore,
    durable: Option<Durable>,
    /// Version counter of the *last published* snapshot.
    version: u64,
}

/// A data set opened in one physical configuration, queryable with SPARQL
/// and mutable through [`Database::insert`] / [`Database::delete`] — from
/// any number of threads at once (see the module docs for the snapshot
/// publication protocol).
///
/// ```
/// use swans_core::{Database, Layout, StoreConfig};
/// use swans_rdf::Dataset;
///
/// let mut ds = Dataset::new();
/// ds.add("<s1>", "<type>", "<Text>");
/// ds.add("<s1>", "<language>", "<fre>");
/// ds.add("<s2>", "<type>", "<Date>");
/// let db = Database::open(ds, StoreConfig::column(Layout::VerticallyPartitioned))?;
///
/// let results = db.query("SELECT ?s WHERE { ?s <type> <Text> }")?;
/// assert_eq!(results.columns(), ["s"]);
/// assert_eq!(results.decoded(), vec![vec!["<s1>".to_string()]]);
/// # Ok::<(), swans_core::Error>(())
/// ```
pub struct Database {
    /// The loaded configuration (immutable after open).
    config: StoreConfig,
    /// The shared storage service (immutable handle; interior state is
    /// its own concern and thread-safe).
    storage: StorageManager,
    writer: Mutex<WriterState>,
    published: RwLock<Arc<Snapshot>>,
}

impl Database {
    /// Opens `dataset` under `config` with the built-in engine the
    /// configuration names. In-memory only: nothing survives a process
    /// restart (see [`Database::open_at`] for the durable form).
    pub fn open(dataset: impl Into<Arc<Dataset>>, config: StoreConfig) -> Result<Self, Error> {
        let dataset = dataset.into();
        let store = RdfStore::try_load(&dataset, config)?;
        Ok(Self::from_parts(dataset, store, None))
    }

    /// Opens `dataset` on a caller-provided [`Engine`] implementation —
    /// the third-party plug-in point.
    pub fn open_with_engine(
        dataset: impl Into<Arc<Dataset>>,
        config: StoreConfig,
        engine: Box<dyn Engine>,
    ) -> Result<Self, Error> {
        let dataset = dataset.into();
        let store = RdfStore::with_engine(&dataset, config, engine)?;
        Ok(Self::from_parts(dataset, store, None))
    }

    /// Opens (or initializes) a **durable** database rooted at directory
    /// `path`: recovery loads the last valid snapshot and replays the
    /// write-ahead-log tail, so every batch a previous process
    /// acknowledged is present — even if that process was killed
    /// mid-write. A torn or corrupt WAL tail is a clean end-of-log, never
    /// an error. The directory's format is engine-agnostic: it may be
    /// reopened under any `config`.
    ///
    /// ```
    /// use swans_core::{Database, Layout, StoreConfig};
    ///
    /// let dir = std::env::temp_dir().join(format!("swans-open-at-doc-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let config = StoreConfig::column(Layout::VerticallyPartitioned);
    /// let db = Database::open_at(&dir, config.clone())?;
    /// db.insert([("<s1>", "<type>", "<Text>")])?; // logged + fsynced before applying
    /// db.checkpoint()?; // snapshot the store, truncate the log
    /// drop(db);
    ///
    /// // A new process sees the acknowledged state.
    /// let db = Database::open_at(&dir, config)?;
    /// assert_eq!(db.query("SELECT ?s WHERE { ?s <type> <Text> }")?.len(), 1);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), swans_core::Error>(())
    /// ```
    pub fn open_at(path: impl AsRef<Path>, config: StoreConfig) -> Result<Self, Error> {
        Self::open_at_with(path, config, DurabilityOptions::default())
    }

    /// [`Database::open_at`] with explicit [`DurabilityOptions`] (fsync
    /// policy, append verification, auto-checkpoint threshold, fault
    /// injection).
    pub fn open_at_with(
        path: impl AsRef<Path>,
        config: StoreConfig,
        options: DurabilityOptions,
    ) -> Result<Self, Error> {
        let (dataset, durable) = Durable::open(path.as_ref(), options)?;
        Self::finish_durable(dataset, config, durable)
    }

    /// Bulk-imports `dataset` into a **fresh** durable directory at
    /// `path` (an immediate checkpoint makes the import durable), then
    /// opens it. Fails if `path` already holds a durable database.
    pub fn import_at(
        path: impl AsRef<Path>,
        dataset: Dataset,
        config: StoreConfig,
        options: DurabilityOptions,
    ) -> Result<Self, Error> {
        let durable = Durable::create_from(path.as_ref(), &dataset, options)?;
        Self::finish_durable(dataset, config, durable)
    }

    fn finish_durable(
        dataset: Dataset,
        config: StoreConfig,
        mut durable: Durable,
    ) -> Result<Self, Error> {
        let dataset = Arc::new(dataset);
        let store = RdfStore::try_load(&dataset, config)?;
        durable.set_stats(store.storage().stats_handle());
        durable.engine_merges = store.merges();
        Ok(Self::from_parts(dataset, store, Some(durable)))
    }

    /// Assembles the writer side and publishes version 1.
    fn from_parts(dataset: Arc<Dataset>, store: RdfStore, durable: Option<Durable>) -> Self {
        let config = store.config().clone();
        let storage = store.storage().clone();
        let mut writer = WriterState {
            dataset,
            store,
            durable,
            version: 0,
        };
        let first = Self::capture(&mut writer);
        Self {
            config,
            storage,
            writer: Mutex::new(writer),
            published: RwLock::new(first),
        }
    }

    /// Locks the writer side. Poisoning is recovered: every commit step
    /// is ordered so that an unwind leaves a consistent (at worst
    /// slightly stale-published) state, and the next publication
    /// re-exports the writer's truth.
    fn writer(&self) -> MutexGuard<'_, WriterState> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Builds the next snapshot from the writer's current state.
    fn capture(writer: &mut WriterState) -> Arc<Snapshot> {
        writer.version += 1;
        Arc::new(Snapshot {
            version: writer.version,
            dataset: writer.dataset.clone(),
            config: writer.store.config().clone(),
            storage: writer.store.storage().clone(),
            engine: Arc::from(writer.store.fork_engine()),
            pending: writer.store.pending_delta(),
        })
    }

    /// Publishes the writer's current state: the atomic `Arc` swap that
    /// makes a commit visible. Readers holding older snapshots are
    /// untouched; new reads pick up the new version.
    fn publish(&self, writer: &mut WriterState) {
        let snap = Self::capture(writer);
        let mut slot = self.published.write().unwrap_or_else(|e| e.into_inner());
        *slot = snap;
    }

    /// The currently published [`Snapshot`] — the latest acknowledged
    /// version. Holding the returned `Arc` pins that version: it keeps
    /// answering bit-identically no matter what is committed afterwards.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.published
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Opens a reader [`Session`]: pins the current snapshot and forks a
    /// private engine for it, so per-session execution counters never
    /// cross-contaminate. Always `Ok` — every [`Engine`] forks; the
    /// `Result` is what existing callers unwrap.
    pub fn session(&self) -> Result<Session, Error> {
        Ok(Session::pin(self.snapshot()))
    }

    /// The data set of the latest published version.
    pub fn dataset(&self) -> Arc<Dataset> {
        self.snapshot().dataset.clone()
    }

    /// The loaded configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The storage manager (I/O statistics, traces, pool control) —
    /// shared by the writer and every published snapshot.
    pub fn storage(&self) -> &StorageManager {
        &self.storage
    }

    /// Total on-disk footprint of this layout in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.storage.total_bytes()
    }

    /// Parses, plans and executes a SPARQL query, returning decoded,
    /// lazily iterable results. Works identically on every engine × layout
    /// configuration, and concurrently with writers: the query runs
    /// against the latest published snapshot
    /// ([`Database::query_budgeted`] without a budget).
    pub fn query(&self, sparql: &str) -> Result<ResultSet, Error> {
        self.query_budgeted(sparql, &QueryBudget::unlimited())
    }

    /// [`Database::query`] under a resource budget: the deadline,
    /// cancellation token, and memory limit in `budget` are checked
    /// cooperatively throughout execution — per morsel in the column
    /// engine, every few thousand rows in the row engine — and a tripped
    /// budget surfaces as
    /// [`EngineError::Cancelled`](crate::EngineError::Cancelled) (wrapped
    /// in [`Error::Engine`]), never a panic and never a poisoned lock.
    ///
    /// ```
    /// use swans_core::{Database, Layout, QueryBudget, StoreConfig};
    /// use swans_rdf::Dataset;
    ///
    /// let mut ds = Dataset::new();
    /// ds.add("<s1>", "<type>", "<Text>");
    /// let db = Database::open(ds, StoreConfig::column(Layout::VerticallyPartitioned))?;
    /// let budget = QueryBudget::unlimited()
    ///     .with_timeout(std::time::Duration::from_secs(30))
    ///     .with_mem_limit(64 << 20);
    /// let results = db.query_budgeted("SELECT ?s WHERE { ?s <type> <Text> }", &budget)?;
    /// assert_eq!(results.len(), 1);
    /// # Ok::<(), swans_core::Error>(())
    /// ```
    pub fn query_budgeted(&self, sparql: &str, budget: &QueryBudget) -> Result<ResultSet, Error> {
        self.snapshot().query_budgeted(sparql, budget)
    }

    /// Like [`Database::query`], but also reports the timing and I/O of
    /// the execution under the benchmark measurement protocol.
    ///
    /// The returned [`QueryRun`]'s `rows` field is empty: the rows are
    /// moved into the [`ResultSet`] (reachable encoded via
    /// [`ResultSet::ids`]) rather than materialized twice.
    pub fn query_timed(&self, sparql: &str) -> Result<(ResultSet, QueryRun), Error> {
        let snap = self.snapshot();
        let compiled = compile(&snap.dataset, &self.config, sparql)?;
        let mut run = snap.run_plan(&compiled.plan)?;
        let rows = std::mem::take(&mut run.rows);
        let results = ResultSet::new(rows, compiled.plan.output_kinds())
            .with_columns(compiled.columns)
            .with_dataset(snap.dataset.clone());
        Ok((results, run))
    }

    /// Inserts triples given as `(subject, property, object)` term
    /// strings, returning how many were inserted. New terms are interned
    /// into the dictionary incrementally; the data set and the engine's
    /// physical layout absorb the batch together, and the new version is
    /// published atomically before the call returns — a query issued
    /// right after (from any thread) sees the new rows, while readers
    /// already pinned to an older snapshot are untouched.
    ///
    /// Inserts have bag semantics: inserting an already-present triple
    /// stores another copy.
    ///
    /// ```
    /// use swans_core::{Database, Layout, StoreConfig};
    /// use swans_rdf::Dataset;
    ///
    /// let mut ds = Dataset::new();
    /// ds.add("<s1>", "<type>", "<Text>");
    /// let db = Database::open(ds, StoreConfig::column(Layout::VerticallyPartitioned))?;
    /// db.insert([("<s2>", "<type>", "<Text>"), ("<s2>", "<language>", "<fre>")])?;
    /// let results = db.query("SELECT ?s WHERE { ?s <type> <Text> }")?;
    /// assert_eq!(results.len(), 2);
    /// # Ok::<(), swans_core::Error>(())
    /// ```
    pub fn insert<'a>(
        &self,
        triples: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>,
    ) -> Result<usize, Error> {
        let mut writer = self.writer();
        let mut delta = Delta::new();
        {
            let dataset = Arc::make_mut(&mut writer.dataset);
            for (s, p, o) in triples {
                delta.insert(dataset.encode(s, p, o));
            }
        }
        if delta.is_empty() {
            return Ok(0);
        }
        self.commit(&mut writer, &delta)?;
        Ok(delta.inserts.len())
    }

    /// Deletes triples given as `(subject, property, object)` term
    /// strings, returning how many of them named triples whose terms are
    /// all known to this database (the remainder cannot be stored here, so
    /// there is nothing to delete and the dictionary is left untouched).
    ///
    /// Deletes have set semantics: every stored copy of a matching triple
    /// is removed. Deleting an absent triple is a no-op.
    ///
    /// ```
    /// use swans_core::{Database, Layout, StoreConfig};
    /// use swans_rdf::Dataset;
    ///
    /// let mut ds = Dataset::new();
    /// ds.add("<s1>", "<type>", "<Text>");
    /// ds.add("<s2>", "<type>", "<Text>");
    /// let db = Database::open(ds, StoreConfig::column(Layout::VerticallyPartitioned))?;
    /// db.delete([("<s1>", "<type>", "<Text>")])?;
    /// let results = db.query("SELECT ?s WHERE { ?s <type> <Text> }")?;
    /// assert_eq!(results.decoded(), vec![vec!["<s2>".to_string()]]);
    /// # Ok::<(), swans_core::Error>(())
    /// ```
    pub fn delete<'a>(
        &self,
        triples: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>,
    ) -> Result<usize, Error> {
        let mut writer = self.writer();
        let mut delta = Delta::new();
        for (s, p, o) in triples {
            if let Some(t) = writer.dataset.try_encode(s, p, o) {
                delta.delete(t);
            }
        }
        if delta.is_empty() {
            return Ok(0);
        }
        self.commit(&mut writer, &delta)?;
        Ok(delta.deletes.len())
    }

    /// Applies an already-encoded [`Delta`] (the batch-level escape hatch
    /// for callers that hold ids). The ids must come from this database's
    /// dictionary.
    pub fn apply(&self, delta: &Delta) -> Result<(), Error> {
        if delta.is_empty() {
            return Ok(());
        }
        let mut writer = self.writer();
        self.commit(&mut writer, delta)
    }

    /// The one commit path every mutation takes — under the writer lock.
    /// Durable databases log the batch first — the WAL append (verified
    /// and fsynced under the default [`DurabilityOptions`]) is the
    /// acknowledgement point; if it fails, neither the engine nor the
    /// dataset is touched. Then the engine absorbs the delta ("engine
    /// first": if it declines, the triple bag must not diverge from what
    /// the engine serves — interned terms are harmless, a dictionary
    /// entry with no triples), then the logical dataset; a
    /// threshold-triggered engine merge or a reached auto-checkpoint
    /// budget checkpoints next. **Publication is last**: the new version
    /// becomes visible only after it is durable — a reader can never
    /// observe a batch that a crash could lose.
    fn commit(&self, writer: &mut WriterState, delta: &Delta) -> Result<(), Error> {
        if let Some(durable) = &mut writer.durable {
            durable.append_batch(&writer.dataset.dict, delta)?;
        }
        writer.store.apply(delta)?;
        Arc::make_mut(&mut writer.dataset).apply(delta);
        let wants_checkpoint = writer.durable.as_ref().is_some_and(|durable| {
            writer.store.merges() != durable.engine_merges || durable.wants_checkpoint()
        });
        if wants_checkpoint {
            Self::checkpoint_writer(writer)?;
        }
        self.publish(writer);
        Ok(())
    }

    /// Merges the engine's buffered mutations into its sorted primary
    /// layout, restoring sorted-path dispatch (merge joins, run-based
    /// aggregation) on the column engine, and publishes the merged
    /// version. Readers pinned to pre-merge snapshots keep their
    /// write-store union view — answers are bit-identical either way. A
    /// no-op for engines that apply mutations in place. On a durable
    /// database the merged state is immediately checkpointed — the sorted
    /// store was just rebuilt, so this is exactly when a snapshot is
    /// cheapest to justify.
    pub fn merge(&self) -> Result<(), Error> {
        let mut writer = self.writer();
        writer.store.merge()?;
        if writer.durable.is_some() {
            Self::checkpoint_writer(&mut writer)?;
        }
        self.publish(&mut writer);
        Ok(())
    }

    /// Snapshots the current state into the durable directory (temp
    /// file, verify, atomic rename) and truncates the write-ahead log. A
    /// no-op on non-durable databases. On error, the previous snapshot
    /// and the full WAL are left intact.
    pub fn checkpoint(&self) -> Result<(), Error> {
        let mut writer = self.writer();
        Self::checkpoint_writer(&mut writer)
    }

    fn checkpoint_writer(writer: &mut WriterState) -> Result<(), Error> {
        let merges = writer.store.merges();
        if let Some(durable) = &mut writer.durable {
            durable.checkpoint(&writer.dataset)?;
            durable.engine_merges = merges;
        }
        Ok(())
    }

    /// How recovery went when this database was opened with
    /// [`Database::open_at`]; `None` for in-memory databases.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.writer().durable.as_ref().map(|d| d.report().clone())
    }

    /// Current write-ahead-log size in bytes (`None` if not durable).
    pub fn wal_bytes(&self) -> Option<u64> {
        self.writer().durable.as_ref().map(Durable::wal_bytes)
    }

    /// Encoded size of the latest snapshot in bytes (`None` if not
    /// durable, 0 if none has been written yet).
    pub fn snapshot_bytes(&self) -> Option<u64> {
        self.writer().durable.as_ref().map(Durable::snapshot_bytes)
    }

    /// Number of applied-but-unmerged mutations buffered at the latest
    /// published version.
    pub fn pending_delta(&self) -> usize {
        self.snapshot().pending
    }

    /// The physical-property context EXPLAIN annotations use — derived
    /// from the latest published snapshot's engine state.
    pub fn explain_context(&self) -> PropsContext {
        self.snapshot().engine.explain_context()
    }

    /// The shared front half of the EXPLAIN family, all against **one**
    /// snapshot: the compiled plan, the engine context it was verified
    /// under, and the verifier's coverage report. A commit landing
    /// mid-call cannot mix versions into one rendering.
    fn explained(
        snap: &Snapshot,
        sparql: &str,
    ) -> Result<(Plan, PropsContext, VerifyReport), Error> {
        let plan = compile(&snap.dataset, &snap.config, sparql)?.plan;
        let ctx = snap.engine.explain_context();
        let report = verify(&plan, &ctx).map_err(swans_plan::EngineError::Verify)?;
        Ok((plan, ctx, report))
    }

    /// Returns the optimized plan tree `sparql` would execute — already
    /// lowered for this database's layout, and *verified*: the static
    /// checker in `swans_plan::verify` runs against the engine's current
    /// layout context, so a plan with an unjustifiable property claim is
    /// an [`Error::Engine`] naming the offending operator here, before
    /// anything executes. Render the plan with [`Plan::explain`], or use
    /// [`Database::explain_text`] for the physical-property-annotated
    /// form.
    ///
    /// ```
    /// use swans_core::{Database, Layout, StoreConfig};
    /// use swans_rdf::Dataset;
    ///
    /// let mut ds = Dataset::new();
    /// ds.add("<s1>", "<type>", "<Text>");
    /// let db = Database::open(ds, StoreConfig::column(Layout::VerticallyPartitioned))?;
    /// let plan = db.explain("SELECT ?s WHERE { ?s <type> <Text> }")?;
    /// assert!(plan.explain().contains("ScanProperty"));
    /// # Ok::<(), swans_core::Error>(())
    /// ```
    pub fn explain(&self, sparql: &str) -> Result<Plan, Error> {
        let (plan, _, _) = Self::explained(&self.snapshot(), sparql)?;
        Ok(plan)
    }

    /// Renders the plan `sparql` would execute with per-node physical
    /// properties (`sorted_by` / `distinct`) under the engine's *current*
    /// state — including the write-store union branch while unmerged
    /// mutations are pending. This is the auditable form of operator
    /// selection: nodes annotated `[unsorted]` will not merge-join.
    ///
    /// The plan is verified first (like [`Database::explain`]) and the
    /// rendering ends with the verifier's coverage footer, e.g.
    /// `-- verified: 7 nodes, 2 merge joins, 0 run-encoded claims`.
    pub fn explain_text(&self, sparql: &str) -> Result<String, Error> {
        let (plan, ctx, report) = Self::explained(&self.snapshot(), sparql)?;
        Ok(format!("{}-- {report}\n", plan.explain_annotated(&ctx)))
    }

    /// EXPLAIN ANALYZE: renders the plan like [`Database::explain_text`]
    /// and *executes every rendered node* against the same published
    /// version, printing the measured cardinality as `actual_rows=N` next
    /// to the cost model's `est_rows` estimate. The estimation error
    /// (q-error, `max(est/actual, actual/est)`) of any operator can be
    /// read straight off the output — the same quantity the
    /// `plan-quality` CI gate bounds across the benchmark suite.
    ///
    /// Subtrees are re-executed from scratch per node, so this costs
    /// more than one query execution; it is a diagnostic, not a fast
    /// path.
    pub fn explain_analyze(&self, sparql: &str) -> Result<String, Error> {
        let snap = self.snapshot();
        let (plan, ctx, report) = Self::explained(&snap, sparql)?;
        let unlimited = QueryBudget::unlimited();
        let mut actual = |node: &Plan| {
            let rows = snap.execute_plan_budgeted(node, &unlimited);
            rows.ok().map(|rs| rs.len() as u64)
        };
        Ok(format!(
            "{}-- {report}\n",
            plan.explain_compared(&ctx, &mut actual)
        ))
    }

    /// Executes a raw logical plan (the algebra-level escape hatch),
    /// decoding results through this database's dictionary
    /// ([`Database::execute_plan_budgeted`] without a budget).
    pub fn execute_plan(&self, plan: &Plan) -> Result<ResultSet, Error> {
        self.execute_plan_budgeted(plan, &QueryBudget::unlimited())
    }

    /// [`Database::execute_plan`] under a resource budget — see
    /// [`Database::query_budgeted`].
    pub fn execute_plan_budgeted(
        &self,
        plan: &Plan,
        budget: &QueryBudget,
    ) -> Result<ResultSet, Error> {
        self.snapshot().execute_plan_budgeted(plan, budget)
    }

    /// Runs benchmark query `q` through the paper's measurement protocol
    /// (the thin wrapper over the pre-`Database` benchmark path). The
    /// generator always produces a valid plan for this database's own
    /// layout; should the engine fail anyway, the benchmark treats that
    /// as fatal.
    pub fn run_benchmark(&self, q: QueryId, ctx: &QueryContext) -> QueryRun {
        let plan = build_plan(q, self.config.layout.scheme(), ctx);
        self.snapshot()
            .run_plan(&plan)
            .unwrap_or_else(|e| panic!("benchmark query {q} failed: {e}"))
    }

    /// A [`QueryContext`] resolving the benchmark constants against this
    /// data set.
    pub fn benchmark_context(&self, n_interesting: usize) -> QueryContext {
        QueryContext::from_dataset(&self.dataset(), n_interesting)
    }

    /// Empties the buffer pool so the next query runs cold.
    pub fn make_cold(&self) {
        self.storage.clear_pool();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Layout;
    use swans_rdf::SortOrder;

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        ds.add("<s1>", "<type>", "<Text>");
        ds.add("<s2>", "<type>", "<Text>");
        ds.add("<s3>", "<type>", "<Date>");
        ds.add("<s1>", "<lang>", "\"fre\"");
        ds.add("<s2>", "<lang>", "\"eng\"");
        ds.add("<s3>", "<lang>", "\"fre\"");
        ds
    }

    /// The acceptance criterion of the API redesign: a hand-written SPARQL
    /// string executes on all six engine × layout configurations and
    /// returns *decoded*, identical term strings.
    #[test]
    fn query_decodes_identically_on_all_six_configurations() {
        let ds = dataset();
        let q = "SELECT ?s ?l WHERE { ?s <type> <Text> . ?s <lang> ?l }";
        let mut reference: Option<Vec<Vec<String>>> = None;
        for config in StoreConfig::paper_matrix() {
            let label = config.label();
            let db = Database::open(ds.clone(), config).expect("opens");
            let results = db.query(q).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(results.columns(), ["s", "l"]);
            let mut rows = results.decoded();
            rows.sort();
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(r, &rows, "{label} disagrees"),
            }
        }
        let rows = reference.unwrap();
        assert_eq!(
            rows,
            vec![
                vec!["<s1>".to_string(), "\"fre\"".to_string()],
                vec!["<s2>".to_string(), "\"eng\"".to_string()],
            ]
        );
    }

    #[test]
    fn aggregation_decodes_counts_as_numbers() {
        let ds = dataset();
        let db =
            Database::open(ds, StoreConfig::column(Layout::VerticallyPartitioned)).expect("opens");
        let results = db
            .query("SELECT ?t (COUNT(*) AS ?n) WHERE { ?s <type> ?t } GROUP BY ?t")
            .expect("aggregates");
        assert_eq!(results.columns(), ["t", "n"]);
        let mut rows = results.decoded();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec!["<Date>".to_string(), "1".to_string()],
                vec!["<Text>".to_string(), "2".to_string()],
            ]
        );
    }

    #[test]
    fn errors_are_typed_per_stage() {
        let db = Database::open(
            dataset(),
            StoreConfig::row(Layout::TripleStore(SortOrder::Pso)),
        )
        .expect("opens");
        assert!(matches!(db.query("FROB"), Err(Error::Parse(_))));
        assert!(matches!(
            db.query("SELECT ?s WHERE { ?s <missing> ?o }"),
            Err(Error::Plan(_))
        ));
        assert!(matches!(
            db.query("SELECT ?a ?b WHERE { ?a <type> <Text> . ?b <lang> \"fre\" }"),
            Err(Error::Plan(_))
        ));
        let bad_config = StoreConfig::row(Layout::TripleStore(SortOrder::Pso)).with_pool_pages(0);
        assert!(matches!(
            Database::open(dataset(), bad_config),
            Err(Error::Config(_))
        ));
    }

    #[test]
    fn explain_returns_the_lowered_optimized_plan() {
        let ds = dataset();
        let tri = Database::open(
            ds.clone(),
            StoreConfig::column(Layout::TripleStore(SortOrder::Pso)),
        )
        .expect("opens");
        let vp =
            Database::open(ds, StoreConfig::column(Layout::VerticallyPartitioned)).expect("opens");
        let q = "SELECT ?s WHERE { ?s <type> <Text> }";
        let tri_plan = tri.explain(q).expect("explains").explain();
        let vp_plan = vp.explain(q).expect("explains").explain();
        // The optimizer fused the bound positions into the scans.
        assert!(tri_plan.contains("ScanTriples"), "{tri_plan}");
        assert!(vp_plan.contains("ScanProperty"), "{vp_plan}");
    }

    #[test]
    fn query_timed_reports_io_for_cold_runs() {
        let db = Database::open(
            dataset(),
            StoreConfig::column(Layout::VerticallyPartitioned),
        )
        .expect("opens");
        db.make_cold();
        let (results, run) = db
            .query_timed("SELECT ?s WHERE { ?s <type> <Text> }")
            .expect("runs");
        assert_eq!(results.len(), 2);
        assert!(run.rows.is_empty(), "rows move into the ResultSet");
        assert!(run.io.bytes_read > 0, "cold run must read");
        assert!(run.real_seconds >= run.user_seconds);
    }

    /// The write path through the front door: the same interleaving of
    /// inserts and deletes yields identical decoded answers on all six
    /// configurations, before and after merge.
    #[test]
    fn mutations_agree_on_all_six_configurations() {
        let ds = dataset();
        let q = "SELECT ?s ?l WHERE { ?s <type> <Text> . ?s <lang> ?l }";
        let mut reference: Option<Vec<Vec<String>>> = None;
        for config in StoreConfig::paper_matrix() {
            let label = config.label();
            let db = Database::open(ds.clone(), config).expect("opens");
            db.insert([("<s4>", "<type>", "<Text>"), ("<s4>", "<lang>", "\"deu\"")])
                .expect("inserts");
            db.delete([("<s2>", "<lang>", "\"eng\"")]).expect("deletes");
            let mut rows = db
                .query(q)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
                .decoded();
            rows.sort();
            assert_eq!(
                rows,
                vec![
                    vec!["<s1>".to_string(), "\"fre\"".to_string()],
                    vec!["<s4>".to_string(), "\"deu\"".to_string()],
                ],
                "{label} pre-merge"
            );
            db.merge().expect("merges");
            assert_eq!(db.pending_delta(), 0);
            let mut merged = db.query(q).expect("queries").decoded();
            merged.sort();
            match &reference {
                None => reference = Some(merged.clone()),
                Some(r) => assert_eq!(r, &merged, "{label} post-merge disagrees"),
            }
            assert_eq!(rows, merged, "{label}: merge changed answers");

            // The mutated data set is the logical truth: a fresh bulk load
            // answers identically.
            let fresh = Database::open(db.dataset(), db.config().clone()).expect("fresh load");
            let mut fresh_rows = fresh.query(q).expect("queries").decoded();
            fresh_rows.sort();
            assert_eq!(fresh_rows, merged, "{label}: fresh load disagrees");
        }
    }

    /// Inserted terms never seen before are interned incrementally and
    /// decode back out; deletes of unknown terms are no-ops.
    #[test]
    fn new_terms_intern_incrementally() {
        let db = Database::open(
            dataset(),
            StoreConfig::column(Layout::VerticallyPartitioned),
        )
        .expect("opens");
        let dict_before = db.dataset().dict.len();
        assert_eq!(
            db.insert([("<fresh>", "<brand-new-prop>", "\"novel\"")])
                .expect("inserts"),
            1
        );
        assert_eq!(db.dataset().dict.len(), dict_before + 3);
        assert_eq!(
            db.delete([("<never>", "<seen>", "<terms>")]).expect("ok"),
            0,
            "unknown terms: nothing to delete"
        );
        assert_eq!(db.dataset().dict.len(), dict_before + 3, "no pollution");
        let rows = db
            .query("SELECT ?o WHERE { <fresh> <brand-new-prop> ?o }")
            .expect("queries")
            .decoded();
        assert_eq!(rows, vec![vec!["\"novel\"".to_string()]]);
    }

    /// EXPLAIN renders per-node physical properties, and the write-store
    /// union branch exactly while a delta is pending.
    #[test]
    fn explain_text_tracks_write_store_state() {
        let db = Database::open(
            dataset(),
            StoreConfig::column(Layout::VerticallyPartitioned),
        )
        .expect("opens");
        let q = "SELECT ?s ?l WHERE { ?s <type> <Text> . ?s <lang> ?l }";
        let clean = db.explain_text(q).expect("explains");
        assert!(clean.contains("sorted_by="), "{clean}");
        assert!(!clean.contains("WriteStoreScan"), "{clean}");
        db.insert([("<s9>", "<type>", "<Text>")]).expect("inserts");
        let dirty = db.explain_text(q).expect("explains");
        assert!(dirty.contains("WriteStoreScan"), "{dirty}");
        assert!(dirty.contains("[unsorted]"), "{dirty}");
        db.merge().expect("merges");
        let merged = db.explain_text(q).expect("explains");
        assert!(!merged.contains("WriteStoreScan"), "{merged}");
        assert!(merged.contains("sorted_by="), "{merged}");
        // A delete-only delta still shows the (order-preserving) filter
        // branch: scans do run the union path, and EXPLAIN must say so.
        db.delete([("<s3>", "<type>", "<Date>")]).expect("deletes");
        let del_only = db.explain_text(q).expect("explains");
        assert!(del_only.contains("tombstone filter"), "{del_only}");
        assert!(del_only.contains("sorted_by="), "{del_only}");
    }

    /// EXPLAIN is a verification gate: every rendering ends with the
    /// static checker's coverage footer, on every configuration and in
    /// every write-store state.
    #[test]
    fn explain_text_ends_with_the_verification_footer() {
        for config in StoreConfig::paper_matrix() {
            let label = config.label();
            let db = Database::open(dataset(), config).expect("opens");
            let q = "SELECT ?s ?l WHERE { ?s <type> <Text> . ?s <lang> ?l }";
            let clean = db
                .explain_text(q)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(clean.contains("-- verified:"), "{label}:\n{clean}");
            assert!(clean.contains("nodes"), "{label}:\n{clean}");
            db.insert([("<s9>", "<type>", "<Text>")]).expect("inserts");
            let dirty = db
                .explain_text(q)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(dirty.contains("-- verified:"), "{label}:\n{dirty}");
            // `explain` runs the same check and still returns the plan.
            db.explain(q).unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    /// EXPLAIN ANALYZE measures every node on the version the plan was
    /// compiled against, even when a commit lands mid-call. The engine
    /// below forces that interleaving deterministically: its first
    /// execution commits a matching row into its own database before
    /// answering.
    #[test]
    fn explain_analyze_measures_every_node_on_one_snapshot() {
        use crate::engine::{Engine, Footprint};
        use crate::store::EngineKind;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{OnceLock, Weak};
        use swans_storage::StorageManager;

        struct CommitsMidRead {
            inner: Box<dyn Engine>,
            db: Arc<OnceLock<Weak<Database>>>,
            fired: Arc<AtomicBool>,
        }
        impl Engine for CommitsMidRead {
            fn name(&self) -> &'static str {
                "commits-mid-read"
            }
            fn load(
                &mut self,
                storage: &StorageManager,
                dataset: &Dataset,
                layout: Layout,
                compression: bool,
            ) -> Result<(), crate::EngineError> {
                self.inner.load(storage, dataset, layout, compression)
            }
            fn execute(
                &self,
                plan: &Plan,
                budget: &QueryBudget,
            ) -> Result<ResultSet, crate::EngineError> {
                if let Some(db) = self.db.get().and_then(Weak::upgrade) {
                    if !self.fired.swap(true, Ordering::SeqCst) {
                        db.insert([("<s9>", "<type>", "<Text>")]).expect("commits");
                    }
                }
                self.inner.execute(plan, budget)
            }
            fn footprint(&self) -> Footprint {
                self.inner.footprint()
            }
            fn apply(
                &mut self,
                storage: &StorageManager,
                delta: &Delta,
            ) -> Result<(), crate::EngineError> {
                self.inner.apply(storage, delta)
            }
            fn explain_context(&self) -> PropsContext {
                self.inner.explain_context()
            }
            fn fork(&self) -> Box<dyn Engine> {
                Box::new(Self {
                    inner: self.inner.fork(),
                    db: self.db.clone(),
                    fired: self.fired.clone(),
                })
            }
        }

        let hook = Arc::new(OnceLock::new());
        let engine = CommitsMidRead {
            inner: EngineKind::Column.create(),
            db: hook.clone(),
            fired: Arc::default(),
        };
        let db = Arc::new(
            Database::open_with_engine(
                dataset(),
                StoreConfig::column(Layout::VerticallyPartitioned),
                Box::new(engine),
            )
            .expect("opens"),
        );
        hook.set(Arc::downgrade(&db)).expect("set once");

        let q = "SELECT ?s WHERE { ?s <type> <Text> }";
        let text = db.explain_analyze(q).expect("analyzes");
        assert_eq!(db.query(q).expect("queries").len(), 3, "commit landed");
        let actuals: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split("actual_rows=").nth(1))
            .map(|rest| rest.split(|c: char| !c.is_ascii_digit()).next().unwrap())
            .collect();
        assert!(actuals.len() >= 2, "several measured nodes:\n{text}");
        assert!(
            actuals.iter().all(|&n| n == "2"),
            "every node measured on the pre-commit version:\n{text}"
        );
    }

    /// `with_verify` reaches the engine: execution still answers queries
    /// (the static checker accepts every front-door plan), whichever way
    /// the switch is thrown.
    #[test]
    fn verify_config_round_trips_through_execution() {
        let q = "SELECT ?s ?l WHERE { ?s <type> <Text> . ?s <lang> ?l }";
        for on in [true, false] {
            let config = StoreConfig::column(Layout::VerticallyPartitioned).with_verify(on);
            let db = Database::open(dataset(), config).expect("opens");
            assert_eq!(db.query(q).expect("verified plans execute").len(), 2);
        }
    }

    /// An explicit merge threshold triggers automatic merging through the
    /// configuration.
    #[test]
    fn merge_threshold_config_is_honored() {
        let config = StoreConfig::column(Layout::VerticallyPartitioned).with_merge_threshold(2);
        let db = Database::open(dataset(), config).expect("opens");
        db.insert([("<a>", "<type>", "<Text>")]).expect("inserts");
        assert_eq!(db.pending_delta(), 1);
        db.insert([("<b>", "<type>", "<Text>")]).expect("inserts");
        assert_eq!(db.pending_delta(), 0, "threshold reached: auto-merged");
    }

    /// A declined delta must leave the logical data set untouched: the
    /// dataset and the engine may never diverge.
    #[test]
    fn rejected_delta_does_not_mutate_the_dataset() {
        use crate::engine::{Engine, Footprint};
        use swans_plan::naive;
        use swans_storage::StorageManager;

        /// Read-only engine: keeps the default (declining) write path.
        #[derive(Clone)]
        struct ReadOnlyEngine {
            triples: Vec<swans_rdf::Triple>,
        }
        impl Engine for ReadOnlyEngine {
            fn name(&self) -> &'static str {
                "read-only"
            }
            fn load(
                &mut self,
                _storage: &StorageManager,
                dataset: &Dataset,
                _layout: Layout,
                _compression: bool,
            ) -> Result<(), crate::EngineError> {
                self.triples = dataset.triples.clone();
                Ok(())
            }
            fn execute(
                &self,
                plan: &Plan,
                budget: &QueryBudget,
            ) -> Result<ResultSet, crate::EngineError> {
                budget.check()?;
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

        let db = Database::open_with_engine(
            dataset(),
            StoreConfig::row(Layout::TripleStore(SortOrder::Pso)),
            Box::new(ReadOnlyEngine { triples: vec![] }),
        )
        .expect("loads");
        assert_eq!(
            db.query("SELECT ?s WHERE { ?s <type> <Text> }")
                .expect("reads work")
                .len(),
            2
        );
        let before = db.dataset().len();
        assert!(matches!(
            db.insert([("<x>", "<type>", "<Text>")]),
            Err(Error::Engine(_))
        ));
        assert_eq!(db.dataset().len(), before, "triple bag must not diverge");
        assert!(matches!(
            db.delete([("<s1>", "<type>", "<Text>")]),
            Err(Error::Engine(_))
        ));
        assert_eq!(db.dataset().len(), before);
    }

    /// The snapshot publication protocol in one thread: a pinned session
    /// keeps its version's answers while commits publish newer versions,
    /// and versions increase monotonically.
    #[test]
    fn pinned_session_is_isolated_from_later_commits() {
        let db = Database::open(
            dataset(),
            StoreConfig::column(Layout::VerticallyPartitioned),
        )
        .expect("opens");
        let q = "SELECT ?s WHERE { ?s <type> <Text> }";
        let session = db.session().expect("built-in engines fork");
        let v0 = session.version();
        let before = session.query(q).expect("queries").decoded();

        db.insert([("<s9>", "<type>", "<Text>")]).expect("inserts");
        db.merge().expect("merges");

        // The pinned session still answers from its version...
        assert_eq!(session.query(q).expect("queries").decoded(), before);
        assert_eq!(session.version(), v0);
        // ...while a fresh read sees the new version.
        assert_eq!(db.query(q).expect("queries").len(), before.len() + 1);
        assert!(db.snapshot().version() > v0, "versions are monotone");
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "swans-db-{}-{}-{}",
            tag,
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The durable lifecycle end to end: import, mutate, kill (drop),
    /// reopen — under every engine × layout, and the directory written
    /// under one configuration reopens under every other.
    #[test]
    #[cfg_attr(miri, ignore)] // real file I/O
    fn durable_directory_reopens_under_every_configuration() {
        let dir = scratch("reopen");
        let q = "SELECT ?s ?l WHERE { ?s <type> <Text> . ?s <lang> ?l }";
        {
            let db = Database::import_at(
                &dir,
                dataset(),
                StoreConfig::column(Layout::VerticallyPartitioned),
                DurabilityOptions::default(),
            )
            .expect("imports");
            db.insert([("<s4>", "<type>", "<Text>"), ("<s4>", "<lang>", "\"deu\"")])
                .expect("inserts");
            db.delete([("<s2>", "<lang>", "\"eng\"")]).expect("deletes");
            assert!(db.wal_bytes().unwrap() > 0, "batches logged");
            // No checkpoint, no merge: the WAL tail alone must carry the
            // mutations through the reopen.
        }
        let expected = vec![
            vec!["<s1>".to_string(), "\"fre\"".to_string()],
            vec!["<s4>".to_string(), "\"deu\"".to_string()],
        ];
        for config in StoreConfig::paper_matrix() {
            let label = config.label();
            let db = Database::open_at(&dir, config).unwrap_or_else(|e| panic!("{label}: {e}"));
            let report = db.recovery_report().expect("durable");
            assert_eq!(report.replayed_batches, 2, "{label}");
            assert!(report.snapshot_triples > 0, "{label}");
            let mut rows = db
                .query(q)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
                .decoded();
            rows.sort();
            assert_eq!(rows, expected, "{label} recovered state disagrees");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A threshold-triggered engine merge checkpoints automatically: the
    /// WAL is truncated without any explicit merge()/checkpoint() call.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn auto_merge_checkpoints_durable_databases() {
        let dir = scratch("automerge");
        let config = StoreConfig::column(Layout::VerticallyPartitioned).with_merge_threshold(2);
        let db = Database::import_at(&dir, dataset(), config, DurabilityOptions::default())
            .expect("imports");
        db.insert([("<a>", "<type>", "<Text>")]).expect("inserts");
        assert!(db.wal_bytes().unwrap() > 0);
        db.insert([("<b>", "<type>", "<Text>")]).expect("inserts");
        assert_eq!(db.pending_delta(), 0, "threshold reached: auto-merged");
        assert_eq!(db.wal_bytes(), Some(0), "auto-merge checkpointed");
        // The checkpoint is complete: a reopen replays nothing.
        drop(db);
        let db = Database::open_at(&dir, StoreConfig::row(Layout::VerticallyPartitioned))
            .expect("reopens");
        assert_eq!(db.recovery_report().unwrap().replayed_batches, 0);
        assert_eq!(
            db.query("SELECT ?s WHERE { ?s <type> <Text> }")
                .expect("queries")
                .len(),
            4
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Durable fsync accounting reaches the store's IoStats window.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn durable_syncs_are_accounted() {
        let dir = scratch("syncs");
        let db = Database::open_at(&dir, StoreConfig::column(Layout::VerticallyPartitioned))
            .expect("opens");
        let before = db.storage().stats();
        db.insert([("<s1>", "<type>", "<Text>")]).expect("inserts");
        let after = db.storage().stats().since(&before);
        assert!(after.syncs >= 1, "commit must fsync");
        assert!(after.bytes_synced > 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn benchmark_wrapper_still_runs() {
        use swans_datagen::{generate, BartonConfig};
        let ds = generate(&BartonConfig {
            scale: 0.0004,
            seed: 11,
            n_properties: 40,
        });
        let db =
            Database::open(ds, StoreConfig::column(Layout::VerticallyPartitioned)).expect("opens");
        let ctx = db.benchmark_context(20);
        let run = db.run_benchmark(QueryId::Q1, &ctx);
        assert!(!run.rows.is_empty());
    }
}
