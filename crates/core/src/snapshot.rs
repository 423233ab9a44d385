//! Snapshot-isolated reads: [`Snapshot`] — one published, immutable
//! version of the database — and [`Session`] — a reader pinning one
//! version with private execution counters.
//!
//! The C-Store-style read/write split the column engine already had
//! (immutable sorted tables + an in-memory delta) becomes an MVCC
//! publication protocol here: every commit forks the engine
//! ([`crate::Engine::fork`] — zero-copy for the column engine, whose
//! sorted runs live behind `Arc`s) and swaps the fork into the
//! database's `published` slot. Readers clone the `Arc` and keep
//! answering from *their* version for as long as they hold it; writers
//! never block readers and readers never block writers.

use std::sync::Arc;
use std::time::Instant;

use swans_plan::algebra::Plan;
use swans_plan::exec::{EngineError, QueryBudget};
use swans_plan::queries::{build_plan, QueryContext, QueryId};
use swans_plan::sparql::compile_sparql;
use swans_rdf::Dataset;
use swans_storage::StorageManager;

use crate::engine::Engine;
use crate::error::Error;
use crate::result::ResultSet;
use crate::store::{QueryRun, StoreConfig};

/// One immutable, versioned view of the database: the logical data set,
/// the physical configuration, and a snapshot fork of the engine.
///
/// Snapshots are published by the writer (one per acknowledged commit,
/// merge included) and handed out behind `Arc`s — see
/// [`Database::snapshot`](crate::Database::snapshot). A pinned snapshot
/// keeps answering bit-identically while newer versions are published
/// and dropped; its column data is shared (`Arc`), never copied, and
/// never mutated (merges *replace* column vectors, they do not touch
/// them).
pub struct Snapshot {
    pub(crate) version: u64,
    pub(crate) dataset: Arc<Dataset>,
    pub(crate) config: StoreConfig,
    pub(crate) storage: StorageManager,
    /// The engine fork answering this version's queries.
    pub(crate) engine: Arc<dyn Engine>,
    pub(crate) pending: usize,
}

/// Compiles SPARQL for a layout: parse → plan → optimize → lower.
pub(crate) fn compile(
    dataset: &Dataset,
    config: &StoreConfig,
    sparql: &str,
) -> Result<swans_plan::CompiledQuery, Error> {
    Ok(compile_sparql(sparql, dataset, config.layout.scheme())?)
}

/// Executes `plan` on `engine` under the benchmark measurement protocol.
///
/// The I/O window is read from `storage`'s shared counters: with
/// concurrent executions in flight the attribution is best-effort (the
/// counters are database-global), while `user_seconds` is always this
/// call's own wall clock.
pub(crate) fn run_plan_on(
    engine: &dyn Engine,
    storage: &StorageManager,
    plan: &Plan,
) -> Result<QueryRun, EngineError> {
    let io_before = storage.stats();
    let start = Instant::now();
    let rows = engine.execute(plan, &QueryBudget::unlimited())?.into_ids();
    let user_seconds = start.elapsed().as_secs_f64();
    let io = storage.stats().since(&io_before);
    Ok(QueryRun {
        rows,
        user_seconds,
        real_seconds: user_seconds + io.io_seconds,
        io,
    })
}

impl Snapshot {
    /// The version number of this snapshot — strictly increasing with
    /// every published commit, starting at 1 for the freshly opened
    /// database.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The logical data set of this version (triples + dictionary).
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// The configuration the database was opened under.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Applied-but-unmerged mutations buffered at publication time.
    pub fn pending_delta(&self) -> usize {
        self.pending
    }

    /// The one read body — compile, execute on `engine`, decorate —
    /// shared by the snapshot's own fork and a [`Session`]'s private one.
    fn query_on(
        &self,
        engine: &dyn Engine,
        sparql: &str,
        budget: &QueryBudget,
    ) -> Result<ResultSet, Error> {
        let compiled = compile(&self.dataset, &self.config, sparql)?;
        let results = self.execute_on(engine, &compiled.plan, budget)?;
        Ok(results.with_columns(compiled.columns))
    }

    fn execute_on(
        &self,
        engine: &dyn Engine,
        plan: &Plan,
        budget: &QueryBudget,
    ) -> Result<ResultSet, Error> {
        let results = engine.execute(plan, budget)?;
        Ok(results.with_dataset(self.dataset.clone()))
    }

    /// Parses, plans and executes a SPARQL query against *this* version
    /// under a resource budget: the deadline, cancellation token, and
    /// memory limit in `budget` are checked cooperatively throughout
    /// execution; a tripped budget surfaces as
    /// [`EngineError::Cancelled`] (wrapped in [`Error::Engine`]) — never
    /// a panic, and the snapshot pin is released as usual when the
    /// caller drops its handles. Pass [`QueryBudget::unlimited`] for an
    /// ungoverned query.
    pub fn query_budgeted(&self, sparql: &str, budget: &QueryBudget) -> Result<ResultSet, Error> {
        self.query_on(self.engine.as_ref(), sparql, budget)
    }

    /// Executes a raw logical plan against this version under a resource
    /// budget — see [`Snapshot::query_budgeted`].
    pub fn execute_plan_budgeted(
        &self,
        plan: &Plan,
        budget: &QueryBudget,
    ) -> Result<ResultSet, Error> {
        self.execute_on(self.engine.as_ref(), plan, budget)
    }

    /// Executes a plan under the measurement protocol (see
    /// [`QueryRun`]'s caveat on I/O attribution under concurrency).
    pub fn run_plan(&self, plan: &Plan) -> Result<QueryRun, Error> {
        Ok(run_plan_on(self.engine.as_ref(), &self.storage, plan)?)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("version", &self.version)
            .field("triples", &self.dataset.len())
            .field("pending", &self.pending)
            .finish()
    }
}

/// A reader session: pins one [`Snapshot`] for its whole lifetime and
/// executes on a **private** engine fork, so
///
/// * every query in the session answers from the same consistent
///   version, no matter what the writer publishes meanwhile, and
/// * execution counters ([`Session::stat_counters`]) are the session's
///   own — concurrent sessions never cross-contaminate their dispatch
///   statistics.
///
/// Created by [`Database::session`](crate::Database::session); the
/// HTTP front door (`swans-serve`) opens one per request.
pub struct Session {
    snapshot: Arc<Snapshot>,
    engine: Box<dyn Engine>,
}

impl Session {
    pub(crate) fn pin(snapshot: Arc<Snapshot>) -> Self {
        let engine = snapshot.engine.fork();
        Self { snapshot, engine }
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snapshot
    }

    /// The pinned version number.
    pub fn version(&self) -> u64 {
        self.snapshot.version
    }

    /// The pinned logical data set.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.snapshot.dataset
    }

    /// [`Session::query_budgeted`] without a budget.
    pub fn query(&self, sparql: &str) -> Result<ResultSet, Error> {
        self.query_budgeted(sparql, &QueryBudget::unlimited())
    }

    /// Parses, plans and executes a SPARQL query against the pinned
    /// version, on this session's private engine fork, under a resource
    /// budget: the deadline, cancellation token, and memory limit in
    /// `budget` are checked cooperatively throughout execution; a
    /// tripped budget surfaces as [`EngineError::Cancelled`] — never a
    /// panic, and the session (with its snapshot pin) stays usable for
    /// further queries.
    pub fn query_budgeted(&self, sparql: &str, budget: &QueryBudget) -> Result<ResultSet, Error> {
        self.snapshot.query_on(self.engine.as_ref(), sparql, budget)
    }

    /// [`Session::execute_plan_budgeted`] without a budget.
    pub fn execute_plan(&self, plan: &Plan) -> Result<ResultSet, Error> {
        self.execute_plan_budgeted(plan, &QueryBudget::unlimited())
    }

    /// Executes a raw logical plan against the pinned version under a
    /// resource budget — see [`Session::query_budgeted`].
    pub fn execute_plan_budgeted(
        &self,
        plan: &Plan,
        budget: &QueryBudget,
    ) -> Result<ResultSet, Error> {
        self.snapshot.execute_on(self.engine.as_ref(), plan, budget)
    }

    /// Runs benchmark query `q` against the pinned version under the
    /// measurement protocol (see [`QueryRun`]'s attribution caveat — the
    /// I/O window is database-global, the user time is this session's
    /// own).
    pub fn run_benchmark(&self, q: QueryId, ctx: &QueryContext) -> Result<QueryRun, Error> {
        let plan = build_plan(q, self.snapshot.config.layout.scheme(), ctx);
        Ok(run_plan_on(
            self.engine.as_ref(),
            &self.snapshot.storage,
            &plan,
        )?)
    }

    /// This session's own named execution counters (kernel dispatches,
    /// merges, ...) — zeroed at session creation, bumped only by this
    /// session's queries.
    pub fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        self.engine.stat_counters()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("version", &self.snapshot.version)
            .finish()
    }
}
