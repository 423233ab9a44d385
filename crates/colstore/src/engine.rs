//! The column engine: storage layouts and the plan executor.
//!
//! Execution is *sortedness-aware*: before dispatching a join, group, or
//! distinct, the engine derives the input's physical properties
//! ([`swans_plan::props`]) against its own layout (the triples clustering
//! order; property tables are always `(s, o)`-sorted) and picks the
//! order-exploiting kernel when the derivation allows — merge joins,
//! run-based aggregation, linear distinct, binary-search selection, and
//! run-header resolution on RLE-compressed lead columns. Every dispatch
//! decision is counted in [`ExecStatsSnapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

use swans_rdf::hash::{FxHashMap, FxHashSet};
use swans_rdf::{Delta, Id, SortOrder, Triple};
use swans_storage::{SegmentId, StorageManager};

use swans_plan::algebra::{leapfrog_fold, CmpOp, Plan};
use swans_plan::exec::{EngineError, QueryBudget};
use swans_plan::optimize::optimize_cbo;
use swans_plan::props::{derive as derive_props, PropsContext};
use swans_plan::stats::{PropStats, StatsCatalog, TripleStats};

use std::sync::{Arc, Mutex};

use crate::chunk::{Chunk, ColData, RunCol};
use crate::column::Column;
use crate::ops::{self, RunsView};
use crate::parallel::{aligned_bounds, morsel_range, partitions, WorkerPool};

/// Declares the kernel-dispatch counters once. Every counter is an atomic
/// cell in `ExecStats` (cumulative since load or the last
/// [`ColumnEngine::reset_exec_stats`]), a field of the public
/// [`ExecStatsSnapshot`], and a `(name, value)` entry of
/// [`ExecStatsSnapshot::named`] — all generated from the one list below,
/// in declaration order.
macro_rules! exec_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        #[derive(Debug, Default)]
        struct ExecStats {
            $($name: AtomicU64,)*
        }

        impl ExecStats {
            fn snapshot(&self) -> ExecStatsSnapshot {
                ExecStatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }

            fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
            }
        }

        /// A point-in-time copy of the dispatch counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ExecStatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ExecStatsSnapshot {
            /// Every counter as a `(field name, value)` pair, in
            /// declaration order — the form `Engine::stat_counters`
            /// reports per session.
            pub fn named(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }
    };
}

exec_counters! {
    /// Joins executed by [`ops::merge_join`] (both inputs derived-sorted).
    merge_joins,
    /// Joins executed by [`ops::hash_join`].
    hash_joins,
    /// Multi-way star joins executed by the [`ops::leapfrog_join`]
    /// kernel (every input derived-sorted on its key column). A
    /// leapfrog node whose inputs lost their order falls back to the
    /// binary-join fold, counting under `merge_joins`/`hash_joins`
    /// instead.
    leapfrog_dispatches,
    /// Group-counts executed by the run-based sorted kernels.
    sorted_group_counts,
    /// Group-counts executed by the hash kernels (incl. the generic
    /// fallback).
    hash_group_counts,
    /// Distincts executed by the linear [`ops::distinct_sorted`] kernel.
    sorted_distincts,
    /// Distincts executed by the sort-based [`ops::distinct_rows`] kernel.
    sort_distincts,
    /// Distincts skipped because the input was derived-distinct.
    distinct_passthroughs,
    /// Equality selections answered by binary search on a derived-sorted
    /// column.
    sorted_selects,
    /// Scan bounds resolved from RLE run headers instead of decompressed
    /// values.
    rle_selects,
    /// `IN`-list selections on a derived-sorted column answered by
    /// per-probe binary search (k·log n) instead of a linear membership
    /// scan.
    sorted_in_selects,
    /// Base scans that ran the write-store union path (a live tombstone
    /// set, or pending inserts matching the scan bounds); scans the
    /// write store cannot affect keep the plain read-store path.
    delta_union_scans,
    /// Write-store merges into the sorted read-store (explicit or
    /// threshold-triggered).
    merges,
    /// Operator executions that actually partitioned work across the
    /// morsel pool (batches with more than one morsel). Scratch state
    /// (hash maps, join tables, key buffers) is allocated per *worker per
    /// batch* — at most `threads` scratches per batch, never one per
    /// morsel — so scratch allocations are bounded by
    /// `parallel_tasks × threads` while the work units number `morsels`.
    parallel_tasks,
    /// Total morsels executed across all partitioned batches.
    morsels,
    /// Base scans that emitted a run-encoded column straight from the
    /// stored RLE representation — compressed execution, no
    /// decompression at the scan boundary.
    run_scans,
    /// Operators executed by a run-native kernel (run-aware selection,
    /// run×block merge join, aggregation off run lengths) instead of the
    /// flat twin.
    run_kernel_dispatches,
    /// Run-encoded columns expanded to flat values — at the result
    /// boundary, or for an operator that genuinely needs flat input
    /// (hash kernels, unordered gathers).
    runs_expanded,
    /// Bytes actually charged for run-emitting scans (the compressed run
    /// headers). Compare with [`ExecStatsSnapshot::scan_bytes_logical`].
    scan_bytes_compressed,
    /// Bytes the same scans would have charged decompressed (8 bytes per
    /// logical row) — the I/O the run representation saved.
    scan_bytes_logical,
    /// Executions that ended in [`EngineError::Cancelled`] — deadline,
    /// memory limit, or caller cancellation (resource governance).
    cancelled_queries,
    /// High-water mark of per-query tracked allocations (bytes charged to
    /// a [`QueryBudget`] by joins, aggregations, and result
    /// materialization) across all executions since the last reset.
    peak_mem_bytes,
}

#[inline]
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Output of a two-key group-count: both key columns plus the counts.
type GroupCount2 = (Vec<u64>, Vec<u64>, Vec<u64>);

/// Everything an operator evaluation carries besides the plan: the
/// physical-property context the dispatch decisions derive against and
/// the caller's resource budget (deadline, cancellation token, memory
/// limit). Bundled so the recursive executor threads one reference.
struct ExecCtx<'a> {
    props: &'a PropsContext,
    budget: &'a QueryBudget,
}

/// The 3-column triples table, sorted by one clustering order.
///
/// Cloning is cheap: [`Column`] data lives behind `Arc`s, so a clone is a
/// shared view of the same immutable sorted run — the substrate of
/// [`ColumnEngine::fork`]'s snapshot semantics.
#[derive(Debug, Clone)]
struct TripleTable {
    order: SortOrder,
    /// Columns at their *logical* positions (0 = s, 1 = p, 2 = o); the row
    /// order is the clustering order's lexicographic sort.
    cols: [Column; 3],
}

/// One vertically-partitioned property table, sorted by (subject, object).
/// Cloning shares the column data (see [`TripleTable`]).
#[derive(Debug, Clone)]
struct PropTable {
    s: Column,
    o: Column,
}

/// The C-Store-style *write store*: the unsorted, in-memory side of the
/// engine that absorbs mutations so the sorted read-store tables stay
/// immutable between merges.
///
/// Inserts are kept twice — once in arrival order (the triple-store view)
/// and once bucketed per property (the vertically-partitioned view) — so
/// either layout's scans can union their pending tail in O(matching rows).
/// Deletes are tombstones checked against every read-store row a scan
/// produces.
#[derive(Debug, Default, Clone)]
struct WriteStore {
    /// Pending inserts, in arrival order.
    inserts: Vec<Triple>,
    /// The same pending inserts bucketed by property (`(s, o)` pairs).
    by_prop: FxHashMap<Id, Vec<(u64, u64)>>,
    /// Tombstones: read-store rows to hide until the next merge removes
    /// them physically.
    deletes: FxHashSet<Triple>,
    /// Property ids with at least one tombstone — lets a scan bound to a
    /// property the tombstones cannot match skip the union path entirely.
    delete_props: FxHashSet<Id>,
}

impl WriteStore {
    fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Number of pending operations (inserts + tombstones).
    fn pending(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
}

/// Default auto-merge threshold: pending operations beyond which
/// [`ColumnEngine::apply`] triggers a merge on its own.
pub const DEFAULT_MERGE_THRESHOLD: usize = 16_384;

/// The column-store engine instance: either a triple-store layout, a
/// vertically-partitioned layout, or both (they share the storage manager
/// and thus the I/O accounting).
#[derive(Debug)]
pub struct ColumnEngine {
    triple: Option<TripleTable>,
    props: FxHashMap<Id, PropTable>,
    /// Whether [`ColumnEngine::load_vertical`] ran — distinguishes "no
    /// vertically-partitioned layout at all" (an execution error) from "a
    /// property with no triples" (an empty scan).
    vertical_loaded: bool,
    /// Per-table statistics collected at load/merge time and published
    /// through [`PropsContext::stats`] for the cost model. `None` until
    /// the first load; shared by `Arc` so snapshot forks republish the
    /// same catalog until their next merge recollects.
    stats_catalog: Option<Arc<StatsCatalog>>,
    /// Memoized [`optimize_cbo`] rewrites keyed by the submitted plan.
    /// Enumeration is deterministic in (plan, physical context), and
    /// every context-changing mutation clears the map, so a hit is
    /// exactly what a fresh enumeration would produce — repeated
    /// executions pay the DP once (prepared-statement economics).
    plan_cache: Mutex<FxHashMap<Plan, Arc<Plan>>>,
    /// Whether [`ColumnEngine::execute`] runs the static plan verifier
    /// ([`swans_plan::verify`](mod@swans_plan::verify)) before executing. Defaults to on in
    /// debug builds and off in release; `StoreConfig::with_verify(true)`
    /// opts a release build in.
    verify: bool,
    /// Kernel-dispatch counters.
    stats: ExecStats,
    /// The delta side: pending inserts and tombstones.
    write: WriteStore,
    /// Compression flag [`ColumnEngine::load_vertical`] ran with — a
    /// merge creates *new* property tables under the same policy (columns
    /// that already exist re-take their own RLE decision per rewrite).
    vp_compression: bool,
    /// Pending operations beyond which [`ColumnEngine::apply`] merges
    /// automatically.
    merge_threshold: usize,
    /// Write-ahead log segment for delta accounting (created lazily on the
    /// first apply, truncated by merges).
    wal: Option<SegmentId>,
    /// Bytes currently in the write-ahead log.
    wal_bytes: u64,
    /// The morsel-driven worker pool executing partitioned operators
    /// (width 1 = inline, the default).
    pool: WorkerPool,
}

impl Default for ColumnEngine {
    fn default() -> Self {
        Self {
            triple: None,
            props: FxHashMap::default(),
            vertical_loaded: false,
            stats_catalog: None,
            plan_cache: Mutex::new(FxHashMap::default()),
            verify: cfg!(debug_assertions),
            stats: ExecStats::default(),
            write: WriteStore::default(),
            vp_compression: false,
            merge_threshold: DEFAULT_MERGE_THRESHOLD,
            wal: None,
            wal_bytes: 0,
            pool: WorkerPool::new(1),
        }
    }
}

impl ColumnEngine {
    /// An engine with no tables loaded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables pre-execution plan verification (the static
    /// checker in [`swans_plan::verify`](mod@swans_plan::verify)): flow typing, physical-property
    /// soundness and executor legality, with failures surfacing as
    /// [`EngineError::Verify`] naming the offending operator by plan
    /// path. On by default in debug builds; release builds opt in
    /// through `StoreConfig::with_verify(true)`. Independent of the
    /// debug-only shadow validator, which spot-checks claimed properties
    /// against actual operator outputs and is always active under
    /// `debug_assertions`.
    pub fn set_verify(&mut self, on: bool) {
        self.verify = on;
    }

    /// Whether pre-execution plan verification is active.
    pub fn verify_enabled(&self) -> bool {
        self.verify
    }

    /// Sets the morsel-pool width: partitioned operators execute on up to
    /// `threads` scoped worker threads (1 — the default — runs every
    /// morsel inline on the calling thread). Results are bit-identical at
    /// every width; only wall-clock changes.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = WorkerPool::new(threads);
    }

    /// The configured morsel-pool width.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// A snapshot of the kernel-dispatch counters.
    ///
    /// The compressed-execution counters make the run-encoded path
    /// auditable per query — which scans stayed compressed, which
    /// kernels consumed runs, and the bytes the representation saved:
    ///
    /// ```
    /// use swans_colstore::ColumnEngine;
    /// use swans_plan::algebra::{group_count, Plan};
    /// use swans_rdf::Triple;
    /// use swans_storage::{MachineProfile, StorageManager};
    ///
    /// // Each subject holds eight objects of property 7, so the (s, o)
    /// // table's subject column stores as 5k runs instead of 40k rows.
    /// let triples: Vec<Triple> = (0..40_000)
    ///     .map(|i| Triple::new(i / 8, 7, i % 8))
    ///     .collect();
    /// let storage = StorageManager::new(MachineProfile::B);
    /// let mut engine = ColumnEngine::new();
    /// engine.load_vertical(&storage, &triples, true);
    ///
    /// // Count statements per subject: the scan emits the subject column
    /// // run-encoded and the aggregate reads counts off the run lengths.
    /// let scan = Plan::ScanProperty {
    ///     property: 7,
    ///     s: None,
    ///     o: None,
    ///     emit_property: false,
    /// };
    /// let rows = engine.execute_rows(&group_count(scan, vec![0])).unwrap();
    /// assert_eq!(rows.len(), 5_000);
    ///
    /// let stats = engine.exec_stats();
    /// assert!(stats.run_scans > 0 && stats.run_kernel_dispatches > 0);
    /// // The scan charged the compressed run headers (16 B per run), not
    /// // the flat column (8 B per row):
    /// assert_eq!(stats.scan_bytes_logical, 40_000 * 8);
    /// assert_eq!(stats.scan_bytes_compressed, 5_000 * 16);
    /// ```
    pub fn exec_stats(&self) -> ExecStatsSnapshot {
        self.stats.snapshot()
    }

    /// Zeroes the kernel-dispatch counters.
    pub fn reset_exec_stats(&self) {
        self.stats.reset();
    }

    /// Lifetime count of write-store merges (explicit and
    /// threshold-triggered). The durability layer watches this to
    /// checkpoint whenever the engine folded its write store — a merge is
    /// exactly the moment the sorted state is worth snapshotting.
    pub fn merges(&self) -> u64 {
        self.exec_stats().merges
    }

    /// The physical-layout context plans are derived against.
    ///
    /// Pending write-store state is reported **per property**: only scans
    /// a pending *insert* can reach lose their order claims (the unioned
    /// tail is in arrival order) — scans over untouched properties keep
    /// claiming the storage order, so merge joins and run aggregation on
    /// them survive an unrelated pending delta. Tombstones never
    /// downgrade: hiding rows from a sorted stream leaves it sorted.
    pub fn props_ctx(&self) -> PropsContext {
        PropsContext {
            triple_order: self.triple.as_ref().map(|t| t.order),
            pending_insert_props: self
                .write
                .by_prop
                .iter()
                .filter(|(_, rows)| !rows.is_empty())
                .map(|(&p, _)| p)
                .collect(),
            pending_tombstone_props: self.write.delete_props.iter().copied().collect(),
            rle_props: self
                .props
                .iter()
                .filter(|(_, t)| t.s.peek_runs().is_some_and(Self::emit_worthy))
                .map(|(&p, _)| p)
                .collect(),
            triple_lead_rle: self.triple.as_ref().is_some_and(|t| {
                let lead = t.order.permutation()[0];
                t.cols[lead].peek_runs().is_some_and(Self::emit_worthy)
            }),
            stats: self.stats_catalog.clone(),
        }
    }

    /// Drops every memoized plan rewrite. Called by every mutation that
    /// changes the physical context enumeration prices against: loads,
    /// delta application and merges.
    fn invalidate_plan_cache(&mut self) {
        self.plan_cache.get_mut().expect("plan cache").clear();
    }

    /// The memoized cost-based rewrite of `plan` under the current
    /// physical state (see the `plan_cache` field).
    fn cached_cbo(&self, plan: &Plan, ctx: &PropsContext) -> Arc<Plan> {
        /// Re-enumerating is cheap relative to unbounded growth; a full
        /// clear at the cap keeps the map O(workload distinct plans).
        const PLAN_CACHE_CAP: usize = 256;
        if let Some(hit) = self.plan_cache.lock().expect("plan cache").get(plan) {
            return hit.clone();
        }
        let optimized = Arc::new(optimize_cbo(plan.clone(), ctx));
        let mut cache = self.plan_cache.lock().expect("plan cache");
        if cache.len() >= PLAN_CACHE_CAP {
            cache.clear();
        }
        cache.insert(plan.clone(), optimized.clone());
        optimized
    }

    /// Recollects the statistics catalog from the current read-store
    /// tables: row counts, per-column distinct counts (the sorted lead
    /// column by a linear boundary pass — on an RLE column that count is
    /// exactly the run count the header already holds — the rest by
    /// hashing) and the bytes a full scan touches as stored (16 B per
    /// run header for RLE-kept columns, 8 B per flat row). Runs at every
    /// load and merge — the only moments the read store changes — so the
    /// published catalog never describes dropped tables. Pending
    /// write-store deltas leave it slightly stale by design (see
    /// [`StatsCatalog`]); the next merge recollects.
    fn rebuild_stats(&mut self) {
        fn distinct_sorted(vals: &[u64]) -> u64 {
            u64::from(!vals.is_empty()) + vals.windows(2).filter(|w| w[0] != w[1]).count() as u64
        }
        fn distinct_hashed(vals: &[u64]) -> u64 {
            let seen: FxHashSet<u64> = vals.iter().copied().collect();
            seen.len() as u64
        }
        fn col_bytes(c: &Column) -> u64 {
            match c.peek_runs() {
                Some(r) => r.run_count() as u64 * 16,
                None => c.len() as u64 * 8,
            }
        }
        let mut catalog = StatsCatalog::default();
        if let Some(t) = &self.triple {
            let lead = t.order.permutation()[0];
            catalog.triple = Some(TripleStats {
                rows: t.cols[0].len() as u64,
                distinct: std::array::from_fn(|i| {
                    if i == lead {
                        distinct_sorted(t.cols[i].peek())
                    } else {
                        distinct_hashed(t.cols[i].peek())
                    }
                }),
                scan_bytes: t.cols.iter().map(col_bytes).sum(),
            });
        }
        for (&p, t) in &self.props {
            catalog.props.insert(
                p,
                PropStats {
                    rows: t.s.len() as u64,
                    distinct_subjects: distinct_sorted(t.s.peek()),
                    distinct_objects: distinct_hashed(t.o.peek()),
                    scan_bytes: col_bytes(&t.s) + col_bytes(&t.o),
                },
            );
        }
        // A triple-store-only engine still publishes per-property
        // statistics, grouped out of the triples table: property-bound
        // scans then estimate against the property's own row count and
        // object set instead of the whole-table independence assumption,
        // which collapses on correlated (p, o) pairs like (type, Text).
        if catalog.props.is_empty() {
            if let Some(t) = &self.triple {
                let (s, p, o) = (t.cols[0].peek(), t.cols[1].peek(), t.cols[2].peek());
                let mut groups: FxHashMap<Id, (u64, FxHashSet<u64>, FxHashSet<u64>)> =
                    FxHashMap::default();
                for i in 0..p.len() {
                    let g = groups.entry(p[i]).or_default();
                    g.0 += 1;
                    g.1.insert(s[i]);
                    g.2.insert(o[i]);
                }
                for (pid, (rows, subs, objs)) in groups {
                    catalog.props.insert(
                        pid,
                        PropStats {
                            rows,
                            distinct_subjects: subs.len() as u64,
                            distinct_objects: objs.len() as u64,
                            // Priced as if vertically partitioned: the
                            // uncompressed (s, o) pair per row.
                            scan_bytes: rows * 16,
                        },
                    );
                }
            }
        }
        self.stats_catalog = Some(Arc::new(catalog));
        self.invalidate_plan_cache();
    }

    /// Loads the triples table sorted by `order`. With `compress`, the
    /// leading sort column is stored RLE-compressed on disk (e.g. the
    /// property column under PSO — the paper's observation that column
    /// compression subsumes key-prefix compression).
    pub fn load_triple_store(
        &mut self,
        storage: &StorageManager,
        triples: &[Triple],
        order: SortOrder,
        compress: bool,
    ) {
        let mut sorted: Vec<Triple> = triples.to_vec();
        order.sort(&mut sorted);
        let perm = order.permutation();
        let mut logical: [Vec<u64>; 3] = [
            Vec::with_capacity(sorted.len()),
            Vec::with_capacity(sorted.len()),
            Vec::with_capacity(sorted.len()),
        ];
        for t in &sorted {
            let row = t.as_row();
            logical[0].push(row[0]);
            logical[1].push(row[1]);
            logical[2].push(row[2]);
        }
        let lead = perm[0];
        let names = ["triples/s", "triples/p", "triples/o"];
        let cols: [Column; 3] = std::array::from_fn(|i| {
            let data = std::mem::take(&mut logical[i]);
            Column::new(storage, names[i], data, i == lead, compress && i == lead)
        });
        self.triple = Some(TripleTable { order, cols });
        self.rebuild_stats();
    }

    /// Loads the vertically-partitioned layout: one `(s, o)` table per
    /// property, each sorted by (subject, object). With `compress`, the
    /// subject column is RLE-compressed.
    pub fn load_vertical(&mut self, storage: &StorageManager, triples: &[Triple], compress: bool) {
        let mut by_prop: FxHashMap<Id, Vec<(u64, u64)>> = FxHashMap::default();
        for t in triples {
            by_prop.entry(t.p).or_default().push((t.s, t.o));
        }
        // Deterministic segment layout: create tables in ascending property
        // id order.
        let mut props: Vec<Id> = by_prop.keys().copied().collect();
        props.sort_unstable();
        for p in props {
            let mut rows = by_prop.remove(&p).expect("key listed");
            rows.sort_unstable();
            let (s, o): (Vec<u64>, Vec<u64>) = rows.into_iter().unzip();
            let st = Column::new(storage, &format!("vp/{p}/s"), s, true, compress);
            let ot = Column::new(storage, &format!("vp/{p}/o"), o, false, false);
            self.props.insert(p, PropTable { s: st, o: ot });
        }
        self.vertical_loaded = true;
        self.vp_compression = compress;
        self.rebuild_stats();
    }

    /// A *snapshot fork*: an independent engine answering queries from
    /// exactly this engine's current state — sorted tables (shared
    /// zero-copy: column data lives behind `Arc`s, and
    /// [`Column::rewrite`] replaces, never mutates, the shared vectors)
    /// plus a private copy of the pending write store (bounded by the
    /// merge threshold). The fork is immutable-by-convention: the caller
    /// uses it for reads while the original keeps absorbing mutations and
    /// merging; nothing the original does changes a fork's answers.
    ///
    /// The fork gets **zeroed kernel-dispatch counters** and its own
    /// worker pool of the same width — concurrent readers each fork, so
    /// per-session statistics never cross-contaminate and pool barriers
    /// never interleave between sessions.
    pub fn fork(&self) -> ColumnEngine {
        ColumnEngine {
            triple: self.triple.clone(),
            props: self.props.clone(),
            vertical_loaded: self.vertical_loaded,
            stats_catalog: self.stats_catalog.clone(),
            plan_cache: Mutex::new(FxHashMap::default()),
            verify: self.verify,
            stats: ExecStats::default(),
            write: self.write.clone(),
            vp_compression: self.vp_compression,
            merge_threshold: self.merge_threshold,
            wal: self.wal,
            wal_bytes: self.wal_bytes,
            pool: WorkerPool::new(self.pool.threads()),
        }
    }

    /// Absorbs a [`Delta`] into the write store: tombstones first (a
    /// delete cancels matching *pending* inserts before it shadows
    /// read-store rows), then inserts. A tombstone is *not* lifted by a
    /// later insert of the same triple — it keeps hiding the read-store
    /// copies that existed at delete time, while the pending insert
    /// supplies the one new copy (scans never tombstone-check the pending
    /// tail). The delta's payload is charged to the write-ahead log; when
    /// the pending-operation count reaches the merge threshold the write
    /// store is merged into the sorted read store automatically.
    pub fn apply(&mut self, storage: &StorageManager, delta: &Delta) -> Result<(), EngineError> {
        if self.triple.is_none() && !self.vertical_loaded {
            return Err(EngineError::Unsupported(
                "no layout loaded to apply a delta to".into(),
            ));
        }
        // A pending tail downgrades scan claims, so memoized rewrites
        // priced against the clean state no longer apply.
        self.invalidate_plan_cache();
        if delta.is_empty() {
            return Ok(());
        }
        if !delta.deletes.is_empty() {
            // One set, one pass: all of a delta's deletes precede its
            // inserts, so cancelling pending inserts in a single sweep is
            // equivalent to per-delete removal and linear instead of
            // O(deletes × pending).
            let doomed: FxHashSet<Triple> = delta.deletes.iter().copied().collect();
            if !self.write.inserts.is_empty() {
                self.write.inserts.retain(|t| !doomed.contains(t));
                for (&p, v) in self.write.by_prop.iter_mut() {
                    v.retain(|&(s, o)| !doomed.contains(&Triple::new(s, p, o)));
                }
            }
            self.write.delete_props.extend(doomed.iter().map(|t| t.p));
            self.write.deletes.extend(doomed);
        }
        for t in &delta.inserts {
            self.write.inserts.push(*t);
            self.write.by_prop.entry(t.p).or_default().push((t.s, t.o));
        }

        // Charge the delta as a write-ahead-log append.
        let wal = *self
            .wal
            .get_or_insert_with(|| storage.create_segment("writestore/log", 0));
        let old_pages = storage.segment_pages(wal);
        self.wal_bytes += delta.payload_bytes();
        storage.resize_segment(wal, self.wal_bytes);
        let new_pages = storage.segment_pages(wal);
        // Append-only: rewrite the partially-filled last old page plus any
        // fresh pages.
        let first = old_pages.saturating_sub(1).min(new_pages.saturating_sub(1));
        storage.write_range(wal, first, new_pages - first);

        if self.write.pending() >= self.merge_threshold {
            self.merge(storage)?;
        }
        Ok(())
    }

    /// Number of pending write-store operations (inserts + tombstones).
    pub fn pending_delta(&self) -> usize {
        self.write.pending()
    }

    /// Sets the pending-operation count at which [`ColumnEngine::apply`]
    /// merges automatically ([`DEFAULT_MERGE_THRESHOLD`] unless changed;
    /// `usize::MAX` disables the trigger).
    pub fn set_merge_threshold(&mut self, ops: usize) {
        self.merge_threshold = ops.max(1);
    }

    /// Merges the write store into the sorted read store: every affected
    /// sorted table (the triples table, and each property table a pending
    /// operation touches) is rebuilt — tombstoned rows dropped, pending
    /// inserts sorted in — and rewritten through the storage layer under
    /// the same compression policy it was loaded with. Afterwards the
    /// write store is empty, so scans stop unioning and physical-property
    /// derivation claims the storage orders again: sorted-path dispatch
    /// (merge joins, run aggregation, RLE selects) is restored.
    pub fn merge(&mut self, storage: &StorageManager) -> Result<(), EngineError> {
        if self.write.is_empty() {
            return Ok(());
        }
        bump(&self.stats.merges);
        let write = std::mem::take(&mut self.write);

        if let Some(t) = &mut self.triple {
            let n = t.cols[0].len();
            let mut merged: Vec<Triple> = Vec::with_capacity(n + write.inserts.len());
            {
                let sv = t.cols[0].peek();
                let pv = t.cols[1].peek();
                let ov = t.cols[2].peek();
                for i in 0..n {
                    let tr = Triple::new(sv[i], pv[i], ov[i]);
                    if !write.deletes.contains(&tr) {
                        merged.push(tr);
                    }
                }
            }
            // A tombstone that matched nothing (e.g. it only cancelled a
            // pending insert) changes no stored row; skip the rewrite when
            // nothing was filtered and nothing is inserted.
            let changed = merged.len() != n || !write.inserts.is_empty();
            if changed {
                merged.extend_from_slice(&write.inserts);
                t.order.sort(&mut merged);
                let lead = t.order.permutation()[0];
                for c in 0..3 {
                    let data: Vec<u64> = merged.iter().map(|tr| tr.as_row()[c]).collect();
                    // Each column re-takes its own RLE decision from the
                    // merged data (see `Column::rewrite`).
                    t.cols[c].rewrite(data, c == lead);
                }
            }
        }

        if self.vertical_loaded {
            let mut affected: Vec<Id> = write
                .deletes
                .iter()
                .map(|t| t.p)
                .chain(write.by_prop.keys().copied())
                .collect();
            affected.sort_unstable();
            affected.dedup();
            for p in affected {
                let pending = write.by_prop.get(&p);
                let old_len = self.props.get(&p).map_or(0, |t| t.s.len());
                let mut rows: Vec<(u64, u64)> = match self.props.get(&p) {
                    Some(table) => {
                        let sv = table.s.peek();
                        let ov = table.o.peek();
                        (0..sv.len())
                            .filter(|&i| !write.deletes.contains(&Triple::new(sv[i], p, ov[i])))
                            .map(|i| (sv[i], ov[i]))
                            .collect()
                    }
                    None => Vec::new(),
                };
                // No tombstone hit this table and nothing is pending for
                // it: a rewrite would be byte-identical — skip it.
                if rows.len() == old_len && pending.is_none_or(Vec::is_empty) {
                    continue;
                }
                if let Some(v) = pending {
                    rows.extend_from_slice(v);
                }
                rows.sort_unstable();
                let (s, o): (Vec<u64>, Vec<u64>) = rows.into_iter().unzip();
                match self.props.get_mut(&p) {
                    Some(table) => {
                        table.s.rewrite(s, true);
                        table.o.rewrite(o, false);
                    }
                    None => {
                        if !s.is_empty() {
                            let st = Column::new(
                                storage,
                                &format!("vp/{p}/s"),
                                s,
                                true,
                                self.vp_compression,
                            );
                            let ot = Column::new(storage, &format!("vp/{p}/o"), o, false, false);
                            self.props.insert(p, PropTable { s: st, o: ot });
                        }
                    }
                }
            }
        }

        // The write-ahead log is consumed.
        if let Some(wal) = self.wal {
            storage.resize_segment(wal, 0);
        }
        self.wal_bytes = 0;
        self.rebuild_stats();
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

    /// Executes a logical plan, returning the result as a column
    /// [`Chunk`] (columns the whole plan kept run-encoded stay so).
    ///
    /// The plan is validated first; structural problems, scans against a
    /// layout this engine never loaded, and unsupported constructs all
    /// surface as [`EngineError`] — plan execution never panics.
    ///
    /// Join chains are first re-planned by the cost-based enumerator
    /// ([`optimize_cbo`]: DP over the join graph plus the leapfrog star
    /// kernel, priced against the statistics catalog, memoized per
    /// submitted plan) — a physical rewrite that never changes answers,
    /// only which kernel runs. With verification active
    /// ([`ColumnEngine::set_verify`]; the default in debug builds), the
    /// plan *as executed* — after the rewrite, under this engine's layout
    /// context — additionally passes the static verifier first, so an
    /// unjustifiable property claim is an [`EngineError::Verify`] naming
    /// the operator, not a wrong answer.
    pub fn execute(&self, plan: &Plan) -> Result<Chunk, EngineError> {
        self.run(plan, &QueryBudget::unlimited(), Ok)
    }

    /// [`ColumnEngine::execute_budgeted`] without a budget.
    pub fn execute_rows(&self, plan: &Plan) -> Result<Vec<Vec<u64>>, EngineError> {
        self.execute_budgeted(plan, &QueryBudget::unlimited())
    }

    /// Executes a logical plan under a resource budget, decoded to
    /// row-major form. The deadline, cancellation token, and memory limit
    /// of `budget` are checked cooperatively — per operator and per
    /// morsel inside the partitioned kernels — and a tripped budget
    /// surfaces as [`EngineError::Cancelled`] (never a panic, never a
    /// poisoned lock). Tracked allocations (join pair vectors,
    /// aggregation tables, result materialization) are charged to the
    /// budget as they grow, so a memory-limit abort happens *during* a
    /// blow-up, not after it; the row-major copy itself is charged
    /// before it is built.
    ///
    /// This is the result boundary of compressed execution: any column
    /// that stayed run-encoded through the whole plan is expanded here
    /// (and counted in [`ExecStatsSnapshot::runs_expanded`]).
    pub fn execute_budgeted(
        &self,
        plan: &Plan,
        budget: &QueryBudget,
    ) -> Result<Vec<Vec<u64>>, EngineError> {
        self.run(plan, budget, |chunk| {
            budget.charge(8 * (chunk.arity() as u64) * chunk.len() as u64)?;
            for i in 0..chunk.arity() {
                if chunk.col_expansion_pending(i) {
                    bump(&self.stats.runs_expanded);
                }
            }
            Ok(chunk.to_rows())
        })
    }

    /// The one execution path: validate, re-plan, verify, execute, hand
    /// the result chunk to `finish` (the caller's result boundary), then
    /// account the budget's memory peak and a cancellation in the
    /// dispatch counters.
    fn run<T>(
        &self,
        plan: &Plan,
        budget: &QueryBudget,
        finish: impl FnOnce(Chunk) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let result = (|| {
            plan.validate().map_err(EngineError::InvalidPlan)?;
            // One context per execution: the derivation (and the join
            // enumeration) must see a consistent write-store state
            // throughout.
            let ctx = self.props_ctx();
            // Run claims of the plan *as submitted* — the claim surface
            // the caller derived against, which the optimizer rewrite
            // below must not exceed (enforced at the result boundary
            // after execution).
            let submitted_runs = derive_props(plan, &ctx).run_encoded;
            let cached;
            let plan = if swans_plan::optimize::has_join(plan) {
                cached = self.cached_cbo(plan, &ctx);
                &*cached
            } else {
                plan
            };
            if self.verify {
                swans_plan::verify::verify(plan, &ctx).map_err(EngineError::Verify)?;
            }
            let ectx = ExecCtx {
                props: &ctx,
                budget,
            };
            let mut chunk = self.exec(plan, full_mask(plan.arity()), &ectx)?;
            // Converse run invariant at the caller boundary: the
            // rewritten plan may legitimately keep different columns
            // run-encoded (a cheaper join order moves which merge-join
            // left side survives compressed); expand any run column the
            // submitted plan never claimed, and count the expansion like
            // any result-boundary one.
            for i in 0..chunk.arity() {
                if chunk.col_is_runs(i) && !submitted_runs.contains(&i) {
                    bump(&self.stats.runs_expanded);
                    chunk.expand_col(i);
                }
            }
            finish(chunk)
        })();
        self.stats
            .peak_mem_bytes
            .fetch_max(budget.peak_mem_bytes(), Ordering::Relaxed);
        if matches!(result, Err(EngineError::Cancelled { .. })) {
            bump(&self.stats.cancelled_queries);
        }
        result
    }

    fn exec(&self, plan: &Plan, needed: u64, ctx: &ExecCtx<'_>) -> Result<Chunk, EngineError> {
        // Cooperative cancellation: every operator entry checks the
        // budget (deadline clock + latched token), so deep plans bail
        // between operators even when no kernel below notices.
        ctx.budget.check()?;
        let chunk = match plan {
            Plan::ScanTriples { s, p, o } => self.scan_triples(ctx.budget, *s, *p, *o, needed)?,
            Plan::ScanProperty {
                property,
                s,
                o,
                emit_property,
            } => self.scan_property(ctx.budget, *property, *s, *o, *emit_property, needed)?,
            Plan::Select { input, pred } => {
                let child = self.exec(input, needed | bit(pred.col), ctx)?;
                // An equality predicate on the child's leading sort column
                // resolves by binary search instead of a full scan — over
                // the run headers when the column is run-encoded.
                if pred.op == CmpOp::Eq && derive_props(input, ctx.props).sorted_on(pred.col) {
                    bump(&self.stats.sorted_selects);
                    let range = if let Some(runs) = child.col_runs(pred.col) {
                        bump(&self.stats.run_kernel_dispatches);
                        runs.eq_range_sorted(pred.value)
                    } else {
                        let data = child.col(pred.col);
                        let lo = data.partition_point(|&x| x < pred.value);
                        let hi = data.partition_point(|&x| x <= pred.value);
                        lo..hi
                    };
                    child.gather_range(range)
                } else if let Some(runs) = child.col_runs(pred.col) {
                    // Run-encoded column: one predicate test per run.
                    bump(&self.stats.run_kernel_dispatches);
                    let sel = ops::select_cmp_runs(runs, pred.value, pred.op == CmpOp::Ne);
                    self.par_gather(ctx.budget, &child, &sel)?
                } else {
                    let sel = self.par_select_cmp(
                        ctx.budget,
                        self.flat(&child, pred.col),
                        pred.value,
                        pred.op == CmpOp::Ne,
                    );
                    self.par_gather(ctx.budget, &child, &sel)?
                }
            }
            Plan::FilterIn { input, col, values } => {
                let child = self.exec(input, needed | bit(*col), ctx)?;
                // A derived-sorted filter column answers each probe value
                // by binary search (k·log n) instead of the linear
                // membership scan; run-encoded columns probe the (much
                // shorter) run headers. Both emit the exact ascending
                // position vector of the linear kernel.
                let sorted = derive_props(input, ctx.props).sorted_on(*col);
                let sel = if let Some(runs) = child.col_runs(*col) {
                    bump(&self.stats.run_kernel_dispatches);
                    if sorted {
                        bump(&self.stats.sorted_in_selects);
                        ops::select_in_sorted_runs(runs, values)
                    } else {
                        ops::select_in_runs(runs, values)
                    }
                } else if sorted {
                    bump(&self.stats.sorted_in_selects);
                    ops::select_in_sorted(child.col(*col), values)
                } else {
                    self.par_select_in(ctx.budget, child.col(*col), values)
                };
                self.par_gather(ctx.budget, &child, &sel)?
            }
            Plan::Join {
                left,
                right,
                left_col,
                right_col,
            } => {
                let la = left.arity();
                let left_needed = low_bits(needed, la) | bit(*left_col);
                let right_needed = (needed >> la) | bit(*right_col);
                let l = self.exec(left, left_needed, ctx)?;
                let r = self.exec(right, right_needed, ctx)?;
                // Both join columns derived-sorted: the linear merge join
                // the sorted layouts were built for. Otherwise hash.
                let use_merge = derive_props(left, ctx.props).sorted_on(*left_col)
                    && derive_props(right, ctx.props).sorted_on(*right_col);
                let (lsel, rsel) = if use_merge {
                    bump(&self.stats.merge_joins);
                    let lruns = l.col_runs(*left_col);
                    let rruns = r.col_runs(*right_col);
                    if lruns.is_some() || rruns.is_some() {
                        // At least one side is run-encoded: the run×block
                        // merge join advances whole runs on that side.
                        bump(&self.stats.run_kernel_dispatches);
                        let lv = match lruns {
                            Some(runs) => RunsView::Runs(runs),
                            None => RunsView::Flat(l.col(*left_col)),
                        };
                        let rv = match rruns {
                            Some(runs) => RunsView::Runs(runs),
                            None => RunsView::Flat(r.col(*right_col)),
                        };
                        self.par_merge_join_runs(ctx.budget, lv, rv)?
                    } else {
                        self.par_merge_join(ctx.budget, l.col(*left_col), r.col(*right_col))?
                    }
                } else {
                    bump(&self.stats.hash_joins);
                    self.par_hash_join(
                        ctx.budget,
                        self.flat(&l, *left_col),
                        self.flat(&r, *right_col),
                    )?
                };
                // The join columns were materialized for probing, but the
                // parent may never read them — drop those before the
                // gather instead of copying (or run-expanding) them into
                // the output. The root executes under a full mask, so
                // result columns are never pruned here.
                let mut l = l;
                if low_bits(needed, la) & bit(*left_col) == 0 {
                    l.take_col(*left_col);
                }
                let mut r = r;
                if (needed >> la) & bit(*right_col) == 0 {
                    r.take_col(*right_col);
                }
                // The derivation claims run columns survive only a merge
                // join's *left* side; the right gather (and both sides of
                // a hash join, whose probe selection can happen to be
                // monotone) must come out flat so no run column is ever
                // produced unclaimed.
                let lg = self.par_gather_opts(ctx.budget, &l, &lsel, use_merge)?;
                let rg = self.par_gather_opts(ctx.budget, &r, &rsel, false)?;
                let mut cols = lg.into_cols();
                cols.extend(rg.into_cols());
                Chunk::from_optional(lsel.len(), cols)
            }
            Plan::LeapfrogJoin { inputs, cols } => {
                // The multi-way star kernel requires every input
                // derived-sorted on its key column; an input that lost
                // its order sends the whole node through its equivalent
                // binary-join fold.
                let dispatch = inputs
                    .iter()
                    .zip(cols)
                    .all(|(inp, &c)| derive_props(inp, ctx.props).sorted_on(c));
                if !dispatch {
                    return self.exec(&leapfrog_fold(inputs, cols), needed, ctx);
                }
                bump(&self.stats.leapfrog_dispatches);
                let mut children = Vec::with_capacity(inputs.len());
                let mut off = 0usize;
                for (inp, &c) in inputs.iter().zip(cols) {
                    let a = inp.arity();
                    children.push(self.exec(inp, low_bits(needed >> off, a) | bit(c), ctx)?);
                    off += a;
                }
                let sels = {
                    let keys: Vec<RunsView<'_>> = children
                        .iter()
                        .zip(cols)
                        .map(|(ch, &c)| match ch.col_runs(c) {
                            Some(runs) => RunsView::Runs(runs),
                            None => RunsView::Flat(ch.col(c)),
                        })
                        .collect();
                    ops::leapfrog_join(&keys)
                };
                let len = sels[0].len();
                // The kernel materialized one selection vector per input.
                ctx.budget.charge(4 * (sels.len() as u64) * len as u64)?;
                let mut out: Vec<Option<ColData>> = Vec::new();
                let mut off = 0usize;
                for ((mut ch, sel), &c) in children.into_iter().zip(&sels).zip(cols) {
                    let a = ch.arity();
                    // Key columns the parent never reads are dropped
                    // before the gather (the binary join's key-drop
                    // rule, applied per input).
                    if (needed >> off) & bit(c) == 0 {
                        ch.take_col(c);
                    }
                    // The derivation claims no run columns on leapfrog
                    // output — every gather comes out flat.
                    out.extend(
                        self.par_gather_opts(ctx.budget, &ch, sel, false)?
                            .into_cols(),
                    );
                    off += a;
                }
                Chunk::from_optional(len, out)
            }
            Plan::Project { input, cols } => {
                let mut child_needed = 0u64;
                let mut uses = vec![0u32; input.arity()];
                for (out_i, &in_c) in cols.iter().enumerate() {
                    if needed & bit(out_i) != 0 {
                        child_needed |= bit(in_c);
                        uses[in_c] += 1;
                    }
                }
                let child = self.exec(input, child_needed, ctx)?;
                let len = child.len();
                let mut child_cols = child.into_cols();
                let out: Vec<Option<ColData>> = cols
                    .iter()
                    .enumerate()
                    .map(|(out_i, &in_c)| {
                        if needed & bit(out_i) == 0 {
                            return None;
                        }
                        uses[in_c] -= 1;
                        if uses[in_c] == 0 {
                            child_cols[in_c].take() // move on last use
                        } else {
                            child_cols[in_c].clone()
                        }
                    })
                    .collect();
                Chunk::from_optional(len, out)
            }
            Plan::GroupCount { input, keys } => {
                let mut child_needed = 0u64;
                for &k in keys {
                    child_needed |= bit(k);
                }
                let child = self.exec(input, child_needed, ctx)?;
                // Input sorted by exactly the grouping keys: groups are
                // contiguous runs — aggregate linearly, no hash table.
                let runs = derive_props(input, ctx.props).sorted_by_prefix(keys);
                match (keys.len(), runs) {
                    (1, true) => {
                        bump(&self.stats.sorted_group_counts);
                        // A run-encoded key column IS the aggregate: keys
                        // are the run values, counts the run lengths.
                        let (k, c) = if let Some(key_runs) = child.col_runs(keys[0]) {
                            bump(&self.stats.run_kernel_dispatches);
                            self.par_group_count_sorted_runs(key_runs)
                        } else {
                            self.par_group_count_sorted_1(child.col(keys[0]))
                        };
                        Chunk::from_cols(vec![k, c])
                    }
                    (1, false) => {
                        bump(&self.stats.hash_group_counts);
                        let (k, c) =
                            self.par_group_count_1(ctx.budget, self.flat(&child, keys[0]))?;
                        Chunk::from_cols(vec![k, c])
                    }
                    (2, true) => {
                        bump(&self.stats.sorted_group_counts);
                        let (k0, k1, c) = if let Some(key_runs) = child.col_runs(keys[0]) {
                            bump(&self.stats.run_kernel_dispatches);
                            self.par_group_count_sorted_2_runs(key_runs, self.flat(&child, keys[1]))
                        } else {
                            self.par_group_count_sorted_2(child.col(keys[0]), child.col(keys[1]))
                        };
                        Chunk::from_cols(vec![k0, k1, c])
                    }
                    (2, false) => {
                        bump(&self.stats.hash_group_counts);
                        let (k0, k1, c) = self.par_group_count_2(
                            ctx.budget,
                            self.flat(&child, keys[0]),
                            self.flat(&child, keys[1]),
                        )?;
                        Chunk::from_cols(vec![k0, k1, c])
                    }
                    _ => {
                        bump(&self.stats.hash_group_counts);
                        self.group_count_generic(ctx.budget, &child, keys)?
                    }
                }
            }
            Plan::HavingCountGt { input, min } => {
                let count_col = input.arity() - 1;
                let child = self.exec(input, needed | bit(count_col), ctx)?;
                let data = child.col(count_col);
                let sel: Vec<u32> = (0..child.len() as u32)
                    .filter(|&i| data[i as usize] > *min)
                    .collect();
                child.gather(&sel)
            }
            Plan::UnionAll { inputs } => {
                // The union always *materializes* its output — this is the
                // per-table copy/append overhead vertically-partitioned
                // plans pay on property-unbound accesses (§4.2).
                let arity = plan.arity();
                let mut acc: Vec<Option<Vec<u64>>> = (0..arity)
                    .map(|i| {
                        if needed & bit(i) != 0 {
                            Some(Vec::new())
                        } else {
                            None
                        }
                    })
                    .collect();
                let mut len = 0usize;
                for inp in inputs {
                    let c = self.exec(inp, needed, ctx)?;
                    // Each appended input is a fresh copy — the
                    // materialization cost unions always pay — so charge
                    // it before the copy happens.
                    ctx.budget
                        .charge(8 * (plan.arity() as u64) * c.len() as u64)?;
                    len += c.len();
                    let cols = c.into_cols();
                    for (i, acc_col) in acc.iter_mut().enumerate() {
                        if let Some(a) = acc_col {
                            if let Some(src) = &cols[i] {
                                // A run-encoded input appends run by run
                                // (a fill per run — cheaper than the flat
                                // copy, and no intermediate expansion).
                                if let Some(runs) = src.as_runs() {
                                    a.reserve(runs.len());
                                    for (v, r) in runs.runs() {
                                        a.resize(a.len() + r.len(), v);
                                    }
                                } else {
                                    a.extend_from_slice(src.as_slice());
                                }
                            }
                        }
                    }
                }
                Chunk::from_optional(
                    len,
                    acc.into_iter().map(|c| c.map(ColData::Owned)).collect(),
                )
            }
            Plan::Distinct { input } => {
                let props = derive_props(input, ctx.props);
                // Derived-distinct input: nothing to eliminate — pass the
                // child through (only the columns the parent needs).
                if props.distinct {
                    bump(&self.stats.distinct_passthroughs);
                    return self.exec(input, needed, ctx);
                }
                // Row-level distinct requires every column, flat (the
                // run-preserving gather below still keeps run columns
                // run-encoded in the *output*).
                let child = self.exec(input, full_mask(input.arity()), ctx)?;
                let cols: Vec<&[u64]> = (0..child.arity()).map(|i| self.flat(&child, i)).collect();
                let sel = if props.covers_all_columns(input.arity()) {
                    // Fully sorted input: duplicates are adjacent.
                    bump(&self.stats.sorted_distincts);
                    self.par_distinct_sorted(&cols, child.len())
                } else {
                    bump(&self.stats.sort_distincts);
                    self.par_distinct_rows(ctx.budget, &cols, child.len())?
                };
                drop(cols);
                self.par_gather(ctx.budget, &child, &sel)?
            }
        };
        // Post-operator budget check *before* the shadow validator: a
        // latched budget means the kernels above may have early-outed with
        // partial output, which must surface as Cancelled, not as a
        // property-claim violation on garbage.
        ctx.budget.check()?;
        #[cfg(debug_assertions)]
        self.shadow_validate(plan, ctx.props, &chunk);
        Ok(chunk)
    }

    /// Debug-mode shadow validator: spot-checks the
    /// [`PhysProps`](swans_plan::props::PhysProps) claims
    /// the dispatcher relied on against the operator's *actual* output.
    /// Compiled only under `debug_assertions`; every test-suite execution
    /// therefore cross-examines the property derivation at every plan
    /// node.
    ///
    /// Checks, in order:
    /// * output arity matches the plan (the join key-drop rule: pruned
    ///   columns stay *absent at their position*, never shifting the
    ///   schema),
    /// * the run-encoding converse invariant — a column is only ever
    ///   produced run-encoded at a claimed position,
    /// * the claimed sort key really is lexicographically
    ///   non-decreasing, and a claimed-distinct output really has no
    ///   duplicate rows. Both checks sample adjacent row pairs (capped)
    ///   and read run columns through their headers, so no run column is
    ///   expanded early — the expansion accounting the compressed-
    ///   execution stats assert on stays untouched.
    #[cfg(debug_assertions)]
    fn shadow_validate(&self, plan: &Plan, ctx: &PropsContext, chunk: &Chunk) {
        assert_eq!(
            chunk.arity(),
            plan.arity(),
            "shadow validator: output arity diverges from the plan at {}",
            plan.explain().lines().next().unwrap_or_default()
        );
        let props = derive_props(plan, ctx);
        // Converse run invariant: runs only at claimed positions.
        for i in 0..chunk.arity() {
            if chunk.col_is_runs(i) {
                assert!(
                    props.run_encoded.contains(&i),
                    "shadow validator: column {i} is run-encoded but unclaimed at {}",
                    plan.explain().lines().next().unwrap_or_default()
                );
            }
        }
        // Read a cell without expanding a run column (expansion would
        // corrupt the runs_expanded accounting the stats tests pin).
        let cell = |col: usize, row: usize| match chunk.col_runs(col) {
            Some(runs) => runs.value_at(row),
            None => chunk.col(col)[row],
        };
        let len = chunk.len();
        if let Some(key) = &props.sorted_by {
            let present: Vec<usize> = key
                .iter()
                .take_while(|&&k| chunk.has_col(k))
                .copied()
                .collect();
            if !present.is_empty() && len > 1 {
                // All adjacent pairs for small outputs, an even sample
                // for large ones — enough to catch a wrong dispatch
                // without quadratic (or even full-linear) debug cost.
                const MAX_PAIRS: usize = 1 << 12;
                let step = ((len - 1) / MAX_PAIRS).max(1);
                let mut row = 0;
                while row + 1 < len {
                    // Lexicographic comparison on the present key prefix.
                    let mut lex_ok = true;
                    for &k in &present {
                        match cell(k, row).cmp(&cell(k, row + 1)) {
                            std::cmp::Ordering::Less => break,
                            std::cmp::Ordering::Equal => {}
                            std::cmp::Ordering::Greater => {
                                lex_ok = false;
                                break;
                            }
                        }
                    }
                    assert!(
                        lex_ok,
                        "shadow validator: claimed sorted_by={key:?} violated between \
                         rows {row} and {} at {}",
                        row + 1,
                        plan.explain().lines().next().unwrap_or_default()
                    );
                    row += step;
                }
            }
        }
        if props.distinct
            && len > 1
            && len <= 1 << 12
            && (0..chunk.arity()).all(|i| chunk.has_col(i))
        {
            let mut rows: Vec<Vec<u64>> = (0..len)
                .map(|r| (0..chunk.arity()).map(|c| cell(c, r)).collect())
                .collect();
            rows.sort_unstable();
            let before = rows.len();
            rows.dedup();
            assert_eq!(
                before,
                rows.len(),
                "shadow validator: claimed distinct output contains duplicates at {}",
                plan.explain().lines().next().unwrap_or_default()
            );
        }
    }

    /// Scans the triples table: binary-search the bound sort-order prefix,
    /// filter remaining bounds, materialize needed logical columns.
    fn scan_triples(
        &self,
        budget: &QueryBudget,
        s: Option<Id>,
        p: Option<Id>,
        o: Option<Id>,
        needed: u64,
    ) -> Result<Chunk, EngineError> {
        let t = self
            .triple
            .as_ref()
            .ok_or(EngineError::MissingTripleStore)?;
        let bounds = [s, p, o];
        let perm = t.order.permutation();

        // Bound columns that form a prefix of the clustering order can be
        // resolved by binary search; the rest become residual filters.
        let mut range = 0..t.cols[0].len();
        let mut residual: Vec<(usize, u64)> = Vec::new();
        let mut in_prefix = true;
        for &key_col in &perm {
            match (in_prefix, bounds[key_col]) {
                (true, Some(v)) => {
                    let col = &t.cols[key_col];
                    // Leading clustered column with RLE run headers:
                    // resolve the bound from the headers directly.
                    if range == (0..col.len()) && col.is_sorted() && col.has_runs() {
                        bump(&self.stats.rle_selects);
                        range = col.eq_range(v);
                    } else {
                        // Within the current range, this sort column is
                        // sorted.
                        let data = col.read();
                        let slice = &data[range.clone()];
                        let lo = range.start + slice.partition_point(|&x| x < v);
                        let hi = range.start + slice.partition_point(|&x| x <= v);
                        range = lo..hi;
                    }
                }
                (true, None) => in_prefix = false,
                (false, Some(v)) => residual.push((key_col, v)),
                (false, None) => {}
            }
        }

        // Residual filters over the range — one fused morsel-parallel
        // pass over every residual column at once.
        let sel: Option<Vec<u32>> = (!residual.is_empty()).then(|| {
            let cols: Vec<&[u64]> = residual.iter().map(|&(c, _)| t.cols[c].read()).collect();
            let vals: Vec<u64> = residual.iter().map(|&(_, v)| v).collect();
            self.par_range_filter(budget, range.clone(), move |i| {
                cols.iter().zip(&vals).all(|(d, &v)| d[i] == v)
            })
        });

        // Pending inserts inside this scan's bounds — the unsorted tail a
        // write-store union appends.
        let tail: Vec<Triple> = self
            .write
            .inserts
            .iter()
            .filter(|t| {
                s.is_none_or(|v| t.s == v)
                    && p.is_none_or(|v| t.p == v)
                    && o.is_none_or(|v| t.o == v)
            })
            .copied()
            .collect();

        // Union path only when the write store can actually affect this
        // scan (a tombstone that could fall in its bounds, or matching
        // pending inserts): the read-store rows minus tombstones, then
        // the tail (the props derivation has already downgraded this
        // scan's claimed order). Only the tombstone check forces all
        // three columns to be read — it needs the full (s, p, o) key;
        // with pending inserts alone, projection pushdown and BAT sharing
        // keep working below.
        let tombstones_possible = match p {
            Some(v) => self.write.delete_props.contains(&v),
            None => !self.write.deletes.is_empty(),
        };
        if !tail.is_empty() || tombstones_possible {
            bump(&self.stats.delta_union_scans);
            let mut idx: Vec<u32> = match sel {
                Some(s) => s,
                None => (range.start as u32..range.end as u32).collect(),
            };
            if tombstones_possible {
                let sv = t.cols[0].read();
                let pv = t.cols[1].read();
                let ov = t.cols[2].read();
                idx.retain(|&i| {
                    let i = i as usize;
                    !self
                        .write
                        .deletes
                        .contains(&Triple::new(sv[i], pv[i], ov[i]))
                });
            }
            let out_len = idx.len() + tail.len();
            let cols: Vec<Option<ColData>> = (0..3)
                .map(|c| {
                    if needed & bit(c) == 0 {
                        return None;
                    }
                    let base = t.cols[c].read();
                    let mut v = self.par_gather_u64(base, &idx);
                    v.extend(tail.iter().map(|t| t.as_row()[c]));
                    Some(ColData::Owned(v))
                })
                .collect();
            return Ok(Chunk::from_optional(out_len, cols));
        }

        let out_len = sel.as_ref().map_or(range.len(), Vec::len);
        let full = range == (0..t.cols[0].len()) && sel.is_none();
        let cols: Vec<Option<ColData>> = (0..3)
            .map(|c| {
                if needed & bit(c) == 0 {
                    return None;
                }
                // The RLE-stored lead column comes out run-encoded —
                // compressed execution starts at the scan, charging only
                // the compressed segment and materializing nothing. Only
                // scans with no bound at all emit runs (mirroring the
                // derived `run_encoded` claim exactly — a bound scan that
                // happens to cover the whole range must still come out
                // flat, or the run column would be unclaimed): a
                // filtered or range-restricted scan's output collapses
                // the runs, and the flat path is the better
                // representation there anyway.
                if c == perm[0] && full && bounds.iter().all(Option::is_none) {
                    if let Some(runs) = t.cols[c].read_runs().filter(|r| Self::emit_worthy(r)) {
                        return Some(self.emit_runs(runs));
                    }
                }
                if full {
                    // Unbounded scan: hand out the base column (BAT
                    // sharing) instead of copying it.
                    return Some(ColData::Shared(t.cols[c].read_shared()));
                }
                let data = t.cols[c].read();
                Some(ColData::Owned(match &sel {
                    None => data[range.clone()].to_vec(),
                    Some(s) => self.par_gather_u64(data, s),
                }))
            })
            .collect();
        Ok(Chunk::from_optional(out_len, cols))
    }

    /// Scans one property table (sorted by subject, then object).
    fn scan_property(
        &self,
        budget: &QueryBudget,
        property: Id,
        s: Option<Id>,
        o: Option<Id>,
        emit_property: bool,
        needed: u64,
    ) -> Result<Chunk, EngineError> {
        if !self.vertical_loaded {
            return Err(EngineError::MissingVerticalLayout);
        }
        let arity = if emit_property { 3 } else { 2 };

        // Pending inserts for this property that satisfy the scan bounds —
        // the unsorted tail a non-empty write store unions in.
        let tail: Vec<(u64, u64)> = match self.write.by_prop.get(&property) {
            Some(rows) => rows
                .iter()
                .filter(|&&(rs, ro)| s.is_none_or(|v| rs == v) && o.is_none_or(|v| ro == v))
                .copied()
                .collect(),
            None => Vec::new(),
        };

        let Some(t) = self.props.get(&property) else {
            // A property with no sorted table (never loaded, or only just
            // inserted into): the pending tail is the whole answer.
            if !tail.is_empty() {
                bump(&self.stats.delta_union_scans);
            }
            let cols = (0..arity)
                .map(|i| {
                    (needed & bit(i) != 0).then(|| {
                        ColData::Owned(match (i, arity) {
                            (0, _) => tail.iter().map(|&(rs, _)| rs).collect(),
                            (1, 3) => vec![property; tail.len()],
                            _ => tail.iter().map(|&(_, ro)| ro).collect(),
                        })
                    })
                })
                .collect();
            return Ok(Chunk::from_optional(tail.len(), cols));
        };
        let o_pos = arity - 1;

        let mut range = 0..t.s.len();
        if let Some(v) = s {
            // Subject bound: RLE run headers when compressed.
            if t.s.has_runs() {
                bump(&self.stats.rle_selects);
                range = t.s.eq_range(v);
            } else {
                let data = t.s.read();
                let lo = data.partition_point(|&x| x < v);
                let hi = data.partition_point(|&x| x <= v);
                range = lo..hi;
            }
            if let Some(ov) = o {
                // Within one subject, objects are sorted.
                let od = t.o.read();
                let slice = &od[range.clone()];
                let lo2 = range.start + slice.partition_point(|&x| x < ov);
                let hi2 = range.start + slice.partition_point(|&x| x <= ov);
                range = lo2..hi2;
            }
        }

        let mut sel: Option<Vec<u32>> = None;
        if s.is_none() {
            if let Some(ov) = o {
                let od = t.o.read();
                sel = Some(self.par_range_filter(budget, range.clone(), move |i| od[i] == ov));
            }
        }

        // Union path only when the write store can affect this scan (a
        // tombstone on this property, or matching pending inserts): hide
        // tombstoned read-store rows, append the pending tail. Only the
        // tombstone check needs both columns read; with pending inserts
        // alone, projection pushdown and BAT sharing keep working below.
        let tombstones_possible = self.write.delete_props.contains(&property);
        if !tail.is_empty() || tombstones_possible {
            bump(&self.stats.delta_union_scans);
            let mut idx: Vec<u32> = match sel {
                Some(s) => s,
                None => (range.start as u32..range.end as u32).collect(),
            };
            if tombstones_possible {
                let sv = t.s.read();
                let ov = t.o.read();
                idx.retain(|&i| {
                    let i = i as usize;
                    !self
                        .write
                        .deletes
                        .contains(&Triple::new(sv[i], property, ov[i]))
                });
            }
            let out_len = idx.len() + tail.len();
            let mut cols: Vec<Option<ColData>> = vec![None; arity];
            if needed & bit(0) != 0 {
                let sv = t.s.read();
                let mut v = self.par_gather_u64(sv, &idx);
                v.extend(tail.iter().map(|&(rs, _)| rs));
                cols[0] = Some(ColData::Owned(v));
            }
            if emit_property && needed & bit(1) != 0 {
                cols[1] = Some(ColData::Owned(vec![property; out_len]));
            }
            if needed & bit(o_pos) != 0 {
                let ov = t.o.read();
                let mut v = self.par_gather_u64(ov, &idx);
                v.extend(tail.iter().map(|&(_, ro)| ro));
                cols[o_pos] = Some(ColData::Owned(v));
            }
            return Ok(Chunk::from_optional(out_len, cols));
        }

        let out_len = sel.as_ref().map_or(range.len(), Vec::len);
        let full = range == (0..t.s.len()) && sel.is_none();
        let materialize = |col: &Column| -> ColData {
            if full {
                return ColData::Shared(col.read_shared());
            }
            let data = col.read();
            ColData::Owned(match &sel {
                None => data[range.clone()].to_vec(),
                Some(s) => self.par_gather_u64(data, s),
            })
        };

        let mut cols: Vec<Option<ColData>> = vec![None; arity];
        if needed & bit(0) != 0 {
            // The RLE-stored subject column comes out run-encoded:
            // compressed execution starts at the scan, charging only the
            // compressed segment and materializing nothing. As in
            // `scan_triples`, only scans with no bound at all emit runs
            // (the exact shape the derived `run_encoded` claim covers —
            // a bound scan that happens to cover the whole range must
            // still come out flat).
            let emit = (full && s.is_none() && o.is_none())
                .then(|| t.s.read_runs().filter(|r| Self::emit_worthy(r)))
                .flatten();
            cols[0] = Some(match emit {
                Some(runs) => self.emit_runs(runs),
                None => materialize(&t.s),
            });
        }
        if emit_property && needed & bit(1) != 0 {
            cols[1] = Some(ColData::Owned(vec![property; out_len]));
        }
        if needed & bit(o_pos) != 0 {
            cols[o_pos] = Some(materialize(&t.o));
        }
        Ok(Chunk::from_optional(out_len, cols))
    }
}

/// Morsel-parallel operator internals.
///
/// Every helper here obeys one contract: the output is **bit-identical to
/// the sequential kernel** regardless of pool width, because morsel (or
/// value-aligned segment) outputs are merged in morsel order at the
/// barrier and order-insensitive merges (hash-aggregation maps) are
/// sorted before emission. Partitioning therefore never invalidates a
/// derived physical property.
impl ColumnEngine {
    /// Flat view of a chunk column, counting the event when the column
    /// arrived run-encoded: a flat consumer (e.g. a hash kernel) ends
    /// compressed execution for that column. The expansion itself is
    /// cached and shared, so repeated flat access expands at most once.
    fn flat<'a>(&self, chunk: &'a Chunk, i: usize) -> &'a [u64] {
        if chunk.col_expansion_pending(i) {
            bump(&self.stats.runs_expanded);
        }
        chunk.col(i)
    }

    /// Wraps a stored column's run representation as scan output, applying
    /// the scan's row restriction run-preservingly and accounting the
    /// compressed bytes actually charged versus the logical bytes a flat
    /// materialization would have cost.
    fn emit_runs(&self, runs: Arc<RunCol>) -> ColData {
        bump(&self.stats.run_scans);
        self.stats
            .scan_bytes_compressed
            .fetch_add(runs.compressed_bytes(), Ordering::Relaxed);
        self.stats
            .scan_bytes_logical
            .fetch_add(runs.len() as u64 * 8, Ordering::Relaxed);
        ColData::runs(runs)
    }

    /// Whether a run column is long-run enough that branchy run-at-a-time
    /// loops beat the vectorized flat loops on *output-dense* work
    /// (gathers, non-selective predicates). Aggregation off run lengths
    /// and merge-join walks win at any compressing run length and are not
    /// gated by this.
    fn runs_pay_dense(runs: &RunCol) -> bool {
        runs.len() >= 8 * runs.run_count()
    }

    /// Whether a stored run column is worth emitting as the execution
    /// representation at all. Storage compression engages at average run
    /// length 2 (that is where the bytes shrink), but the run *kernels*
    /// only collectively beat the vectorized flat loops from roughly
    /// average run length 5 — below that, scans hand out the flat
    /// zero-copy column (still charged at the compressed segment size)
    /// and only the RLE run-header selects exploit the headers.
    fn emit_worthy(runs: &RunCol) -> bool {
        runs.len() >= 5 * runs.run_count()
    }

    /// Counts one partitioned batch of `parts` morsels in the stats.
    fn note_batch(&self, parts: usize) {
        if parts > 1 {
            bump(&self.stats.parallel_tasks);
            self.stats
                .morsels
                .fetch_add(parts as u64, Ordering::Relaxed);
        }
    }

    /// Equality/inequality selection, morsel-parallel over the one
    /// [`ops::select_cmp`] kernel (same shape as [`Self::par_select_in`]).
    /// Morsels observe the budget's cancellation token: once it latches,
    /// remaining morsels return empty (the caller's post-barrier
    /// [`QueryBudget::check`] turns the latch into the typed error).
    fn par_select_cmp(
        &self,
        budget: &QueryBudget,
        data: &[u64],
        value: u64,
        negate: bool,
    ) -> Vec<u32> {
        let parts = partitions(data.len());
        if parts <= 1 {
            return ops::select_cmp(data, value, negate);
        }
        self.note_batch(parts);
        concat_u32(self.pool.run_with(
            parts,
            || (),
            |_, m| {
                if budget.latched() {
                    return Vec::new();
                }
                let r = morsel_range(data.len(), parts, m);
                let mut sel = ops::select_cmp(&data[r.clone()], value, negate);
                for s in &mut sel {
                    *s += r.start as u32;
                }
                sel
            },
        ))
    }

    /// Positions in `range` (global indices) passing `keep`,
    /// morsel-parallel — the fused residual-filter pass of base scans.
    /// Cancel-aware per morsel (see [`Self::par_select_cmp`]).
    fn par_range_filter(
        &self,
        budget: &QueryBudget,
        range: std::ops::Range<usize>,
        keep: impl Fn(usize) -> bool + Sync,
    ) -> Vec<u32> {
        let len = range.len();
        let parts = partitions(len);
        if parts <= 1 {
            return (range.start as u32..range.end as u32)
                .filter(|&i| keep(i as usize))
                .collect();
        }
        self.note_batch(parts);
        concat_u32(self.pool.run_with(
            parts,
            || (),
            |_, m| {
                if budget.latched() {
                    return Vec::new();
                }
                let r = morsel_range(len, parts, m);
                (range.start + r.start..range.start + r.end)
                    .filter(|&i| keep(i))
                    .map(|i| i as u32)
                    .collect::<Vec<u32>>()
            },
        ))
    }

    /// `IN`-list selection, morsel-parallel over [`ops::select_in`].
    /// Cancel-aware per morsel (see [`Self::par_select_cmp`]).
    fn par_select_in(&self, budget: &QueryBudget, data: &[u64], values: &[u64]) -> Vec<u32> {
        let parts = partitions(data.len());
        if parts <= 1 {
            return ops::select_in(data, values);
        }
        self.note_batch(parts);
        concat_u32(self.pool.run_with(
            parts,
            || (),
            |_, m| {
                if budget.latched() {
                    return Vec::new();
                }
                let r = morsel_range(data.len(), parts, m);
                let mut sel = ops::select_in(&data[r.clone()], values);
                for s in &mut sel {
                    *s += r.start as u32;
                }
                sel
            },
        ))
    }

    /// Appends gather tasks for one output column to a shared batch:
    /// workers write disjoint slices of the preallocated output in place
    /// (no second copy at the barrier).
    fn push_gather_tasks<'a>(
        tasks: &mut Vec<Box<dyn FnOnce() + Send + 'a>>,
        data: &'a [u64],
        idx: &'a [u32],
        out: &'a mut [u64],
        parts: usize,
    ) {
        let mut rest = out;
        for m in 0..parts {
            let r = morsel_range(idx.len(), parts, m);
            let (slot, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let ids = &idx[r];
            tasks.push(Box::new(move || {
                for (o, &i) in slot.iter_mut().zip(ids) {
                    *o = data[i as usize];
                }
            }));
        }
    }

    /// The run-source form of [`Self::push_gather_tasks`]: workers write
    /// disjoint flat output slices straight from the run headers
    /// ([`RunCol::gather_flat`]) — one comparison and one store per
    /// element, never materializing the whole column.
    fn push_run_gather_tasks<'a>(
        tasks: &mut Vec<Box<dyn FnOnce() + Send + 'a>>,
        runs: &'a RunCol,
        idx: &'a [u32],
        out: &'a mut [u64],
        parts: usize,
    ) {
        let mut rest = out;
        for m in 0..parts {
            let r = morsel_range(idx.len(), parts, m);
            let (slot, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let ids = &idx[r];
            tasks.push(Box::new(move || runs.gather_flat(ids, slot)));
        }
    }

    /// `idx.iter().map(|&i| data[i as usize]).collect()`, morsel-parallel.
    fn par_gather_u64(&self, data: &[u64], idx: &[u32]) -> Vec<u64> {
        let parts = partitions(idx.len());
        if parts <= 1 {
            return idx.iter().map(|&i| data[i as usize]).collect();
        }
        self.note_batch(parts);
        let mut out = vec![0u64; idx.len()];
        let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(parts);
        Self::push_gather_tasks(&mut tasks, data, idx, &mut out, parts);
        self.pool.run_once(tasks);
        out
    }

    /// [`Chunk::gather`], morsel-parallel — every present column's morsel
    /// tasks run in **one** pool batch (one spawn/join, arity-independent),
    /// so a worker that finishes one column's morsels early pulls into the
    /// next column's. Run-encoded columns with a monotone selection vector
    /// gather run-preservingly instead (O(sel + runs) sequential work,
    /// keeping them run-encoded); an unordered selection expands them
    /// (counted) and gathers flat.
    fn par_gather(
        &self,
        budget: &QueryBudget,
        chunk: &Chunk,
        sel: &[u32],
    ) -> Result<Chunk, EngineError> {
        self.par_gather_opts(budget, chunk, sel, true)
    }

    /// [`Self::par_gather`] with an explicit run-preservation policy.
    /// `preserve_runs: false` guarantees an all-flat output even when the
    /// selection happens to be monotone — the form join output gathers
    /// use, because the `run_encoded` derivation claims no run columns
    /// survive a join's right side (or a hash join at all), and a
    /// run-encoded column must never be produced where unclaimed. The
    /// flattening is still run-sourced ([`RunCol::gather_flat`]) for
    /// monotone selections: no whole-column expansion.
    fn par_gather_opts(
        &self,
        budget: &QueryBudget,
        chunk: &Chunk,
        sel: &[u32],
        preserve_runs: bool,
    ) -> Result<Chunk, EngineError> {
        // The gather materializes one output value per selected row per
        // present column — charge it before allocating, so an
        // over-budget materialization aborts instead of allocating.
        let present = (0..chunk.arity()).filter(|&i| chunk.has_col(i)).count();
        budget.charge(8 * (present as u64) * sel.len() as u64)?;
        let any_runs = (0..chunk.arity()).any(|i| chunk.col_is_runs(i));
        let monotone = any_runs && sel.windows(2).all(|w| w[0] <= w[1]);
        let parts = partitions(sel.len());
        if parts <= 1 && (!any_runs || (monotone && preserve_runs)) {
            // The sequential [`Chunk::gather`] applies the same
            // run-preservation rule for monotone selections.
            return Ok(chunk.gather(sel));
        }

        // Per-column plan. Everything — flat gathers, run-sourced flat
        // gathers, and run-preserving piece gathers — lands in ONE task
        // batch (one spawn/join, arity-independent), so a worker that
        // finishes one column's morsels pulls into the next column's.
        // Run columns stay run-encoded only where the policy allows and
        // the representation pays for dense output: long runs, or a
        // selection sparse enough that the collapsed output stays far
        // below flat size. Each piece gathers its slice of the selection
        // (starting at a binary-searched run, so pieces don't re-walk
        // the prefix); the barrier concatenates, merging boundary runs.
        // A non-monotone (hash-shape) selection needs random access and
        // expands the column (counted).
        let keep: Vec<bool> = (0..chunk.arity())
            .map(|i| match chunk.col_runs(i) {
                Some(runs) => {
                    preserve_runs
                        && monotone
                        && (Self::runs_pay_dense(runs) || sel.len() * 4 <= runs.len())
                }
                None => false,
            })
            .collect();
        let mut piece_stores: Vec<Option<Vec<RunCol>>> = (0..chunk.arity())
            .map(|i| keep[i].then(|| vec![RunCol::default(); parts]))
            .collect();
        let mut outs: Vec<Option<Vec<u64>>> = (0..chunk.arity())
            .map(|i| (chunk.has_col(i) && !keep[i]).then(|| vec![0u64; sel.len()]))
            .collect();
        let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for (i, out) in outs.iter_mut().enumerate() {
            if let Some(out) = out {
                match chunk.col_runs(i) {
                    Some(runs) if monotone => {
                        Self::push_run_gather_tasks(&mut tasks, runs, sel, out, parts);
                    }
                    Some(_) => {
                        if chunk.col_expansion_pending(i) {
                            bump(&self.stats.runs_expanded);
                        }
                        Self::push_gather_tasks(&mut tasks, chunk.col(i), sel, out, parts);
                    }
                    None => Self::push_gather_tasks(&mut tasks, chunk.col(i), sel, out, parts),
                }
            }
        }
        for (i, store) in piece_stores.iter_mut().enumerate() {
            if let Some(store) = store {
                let runs = chunk.col_runs(i).expect("keep implies runs");
                for (m, slot) in store.iter_mut().enumerate() {
                    let ids = &sel[morsel_range(sel.len(), parts, m)];
                    tasks.push(Box::new(move || *slot = runs.gather(ids)));
                }
            }
        }
        self.note_batch(tasks.len());
        self.pool.run_once(tasks);
        Ok(Chunk::from_optional(
            sel.len(),
            piece_stores
                .into_iter()
                .zip(outs)
                .map(|(pieces, flat)| {
                    pieces
                        .map(|p| ColData::runs(Arc::new(RunCol::concat(&p))))
                        .or(flat.map(ColData::Owned))
                })
                .collect(),
        ))
    }

    /// Hash equi-join with a hash-partitioned build side and a
    /// morsel-partitioned probe side. Pair stream identical to
    /// [`ops::hash_join`]: per-key chains are built in the same order and
    /// probe morsels concatenate in probe order.
    ///
    /// Governance: the build table is charged to the budget up front and
    /// probe morsels charge their pair output incrementally (in 1 MiB
    /// slabs), so a cross-product-shaped key distribution trips the
    /// memory limit *during* the blow-up. A latched budget short-circuits
    /// remaining morsels; the post-barrier check surfaces the typed
    /// error.
    fn par_hash_join(
        &self,
        budget: &QueryBudget,
        left: &[u64],
        right: &[u64],
    ) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
        /// Probe morsels re-charge each time their pair buffers grow this
        /// many bytes — small enough to catch a runaway morsel, large
        /// enough that well-behaved morsels charge once.
        const CHARGE_SLAB: u64 = 1 << 20;
        let (build, probe, swapped) = if left.len() <= right.len() {
            (left, right, false)
        } else {
            (right, left, true)
        };
        // The chain table stores one position + one chain link per build
        // row.
        budget.charge(16 * build.len() as u64)?;
        let probe_parts = partitions(probe.len());
        if probe_parts <= 1 {
            let (a, b) = ops::hash_join(left, right);
            budget.charge(8 * a.len() as u64)?;
            return Ok((a, b));
        }
        // Partition the build side only when it is big enough to amortize
        // the scatter pass; the partition count is fixed (not
        // thread-dependent), so the task set is identical at every width.
        let parts_log2: u32 = if build.len() >= crate::parallel::MORSEL_ROWS {
            3
        } else {
            0
        };
        let build_parts = 1usize << parts_log2;
        let tables: Vec<ops::JoinHashPartition> = if build_parts == 1 {
            vec![ops::JoinHashPartition::from_positions(
                build,
                0..build.len() as u32,
            )]
        } else {
            // Phase A — one morselized scatter pass over the build column:
            // each morsel buckets its positions per partition (ascending
            // within the morsel).
            let scatter_parts = partitions(build.len());
            self.note_batch(scatter_parts);
            let buckets: Vec<Vec<Vec<u32>>> = self.pool.run_with(
                scatter_parts,
                || (),
                |_, m| {
                    let mut local: Vec<Vec<u32>> = vec![Vec::new(); build_parts];
                    for i in morsel_range(build.len(), scatter_parts, m) {
                        local[ops::join_partition_of(build[i], parts_log2) as usize].push(i as u32);
                    }
                    local
                },
            );
            // Phase B — per-partition chain builds, consuming the morsel
            // buckets in morsel order so positions stay ascending and the
            // chains match the sequential table exactly.
            self.note_batch(build_parts);
            self.pool.run_with(
                build_parts,
                || (),
                |_, w| {
                    ops::JoinHashPartition::from_positions(
                        build,
                        buckets.iter().flat_map(|b| b[w].iter().copied()),
                    )
                },
            )
        };
        self.note_batch(probe_parts);
        let pieces = self.pool.run_with(
            probe_parts,
            || (),
            |_, m| {
                if budget.latched() {
                    return (Vec::new(), Vec::new());
                }
                let r = morsel_range(probe.len(), probe_parts, m);
                // The pair buffers grow per morsel; the partition tables
                // (the expensive scratch) are shared across all morsels.
                let mut bs = Vec::with_capacity(r.len());
                let mut ps = Vec::with_capacity(r.len());
                let mut charged = 0u64;
                for j in r {
                    let key = probe[j];
                    tables[ops::join_partition_of(key, parts_log2) as usize]
                        .probe_into(key, j as u32, &mut bs, &mut ps);
                    // Incremental slab charging: one hot key matching the
                    // whole build side grows the buffers superlinearly —
                    // charge the growth as it happens and bail once the
                    // budget latches (charge() latches on overflow).
                    let grown = 8 * (bs.len() as u64);
                    if grown - charged >= CHARGE_SLAB {
                        if budget.charge(grown - charged).is_err() {
                            return (Vec::new(), Vec::new());
                        }
                        charged = grown;
                    }
                }
                let grown = 8 * (bs.len() as u64);
                if budget.charge(grown - charged).is_err() {
                    return (Vec::new(), Vec::new());
                }
                (bs, ps)
            },
        );
        budget.check()?;
        let total: usize = pieces.iter().map(|(b, _)| b.len()).sum();
        // The concatenated pair vectors are a second copy of every pair.
        budget.charge(8 * total as u64)?;
        let mut build_sel = Vec::with_capacity(total);
        let mut probe_sel = Vec::with_capacity(total);
        for (b, p) in pieces {
            build_sel.extend_from_slice(&b);
            probe_sel.extend_from_slice(&p);
        }
        Ok(if swapped {
            (probe_sel, build_sel)
        } else {
            (build_sel, probe_sel)
        })
    }

    /// Merge equi-join partitioned into left-value-aligned segments; each
    /// segment runs the *sequential* [`ops::merge_join`] kernel over its
    /// slice pair, and segments concatenate in value order — exactly the
    /// sequential pair stream, so the order-preservation claim the props
    /// derivation makes for merge joins holds at every width.
    fn par_merge_join(
        &self,
        budget: &QueryBudget,
        l: &[u64],
        r: &[u64],
    ) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
        let parts = partitions(l.len());
        let seq = |budget: &QueryBudget| -> Result<(Vec<u32>, Vec<u32>), EngineError> {
            let (a, b) = ops::merge_join(l, r);
            budget.charge(8 * a.len() as u64)?;
            Ok((a, b))
        };
        if parts <= 1 || r.is_empty() {
            return seq(budget);
        }
        let bounds = aligned_bounds(l.len(), parts, |a, b| l[a] == l[b]);
        let segs = bounds.len() - 1;
        if segs <= 1 {
            return seq(budget);
        }
        self.note_batch(segs);
        let pieces = self.pool.run_with(
            segs,
            || (),
            |_, k| {
                if budget.latched() {
                    return (Vec::new(), Vec::new());
                }
                let (lo, hi) = (bounds[k], bounds[k + 1]);
                let r_lo = r.partition_point(|&x| x < l[lo]);
                let r_hi = if hi < l.len() {
                    r.partition_point(|&x| x < l[hi])
                } else {
                    r.len()
                };
                let (mut ls, mut rs) = ops::merge_join(&l[lo..hi], &r[r_lo..r_hi]);
                // Per-segment output charge; on overflow the budget
                // latches and the remaining segments short-circuit.
                if budget.charge(8 * ls.len() as u64).is_err() {
                    return (Vec::new(), Vec::new());
                }
                for v in &mut ls {
                    *v += lo as u32;
                }
                for v in &mut rs {
                    *v += r_lo as u32;
                }
                (ls, rs)
            },
        );
        budget.check()?;
        let total: usize = pieces.iter().map(|(a, _)| a.len()).sum();
        budget.charge(8 * total as u64)?;
        let mut lsel = Vec::with_capacity(total);
        let mut rsel = Vec::with_capacity(total);
        for (a, b) in pieces {
            lsel.extend_from_slice(&a);
            rsel.extend_from_slice(&b);
        }
        Ok((lsel, rsel))
    }

    /// Merge equi-join with at least one run-encoded side. Partitioning
    /// must not split a value run across segments: a run-encoded left
    /// side partitions **directly on its run boundaries** (morsels over
    /// run indices — every boundary is a run boundary by construction,
    /// no search needed), a flat left side falls back to the
    /// binary-search value alignment of [`aligned_bounds`]. Each segment
    /// runs the sequential run×block kernel and segments concatenate in
    /// value order — exactly the sequential pair stream.
    fn par_merge_join_runs(
        &self,
        budget: &QueryBudget,
        l: RunsView<'_>,
        r: RunsView<'_>,
    ) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
        let parts = partitions(l.len());
        let seq = |budget: &QueryBudget| -> Result<(Vec<u32>, Vec<u32>), EngineError> {
            let (a, b) = ops::merge_join_runs(l, r);
            budget.charge(8 * a.len() as u64)?;
            Ok((a, b))
        };
        if parts <= 1 || r.is_empty() {
            return seq(budget);
        }
        let bounds: Vec<usize> = match l {
            RunsView::Runs(runs) => {
                let rc = runs.run_count();
                let segs = parts.min(rc);
                let mut b: Vec<usize> = (0..segs)
                    .map(|k| runs.run_start(morsel_range(rc, segs, k).start))
                    .collect();
                b.push(runs.len());
                b
            }
            RunsView::Flat(f) => aligned_bounds(f.len(), parts, |a, b| f[a] == f[b]),
        };
        let segs = bounds.len() - 1;
        if segs <= 1 {
            return seq(budget);
        }
        self.note_batch(segs);
        let pieces = self.pool.run_with(
            segs,
            || (),
            |_, k| {
                if budget.latched() {
                    return (Vec::new(), Vec::new());
                }
                let (lo, hi) = (bounds[k], bounds[k + 1]);
                let r_lo = r.lower_bound(l.value_at(lo));
                let r_hi = if hi < l.len() {
                    r.lower_bound(l.value_at(hi))
                } else {
                    r.len()
                };
                // Slice both sides run-preservingly for the segment.
                let l_owned;
                let lv = match l {
                    RunsView::Runs(runs) => {
                        l_owned = runs.slice(lo..hi);
                        RunsView::Runs(&l_owned)
                    }
                    RunsView::Flat(f) => RunsView::Flat(&f[lo..hi]),
                };
                let r_owned;
                let rv = match r {
                    RunsView::Runs(runs) => {
                        r_owned = runs.slice(r_lo..r_hi);
                        RunsView::Runs(&r_owned)
                    }
                    RunsView::Flat(f) => RunsView::Flat(&f[r_lo..r_hi]),
                };
                let (mut ls, mut rs) = ops::merge_join_runs(lv, rv);
                if budget.charge(8 * ls.len() as u64).is_err() {
                    return (Vec::new(), Vec::new());
                }
                for v in &mut ls {
                    *v += lo as u32;
                }
                for v in &mut rs {
                    *v += r_lo as u32;
                }
                (ls, rs)
            },
        );
        budget.check()?;
        let total: usize = pieces.iter().map(|(a, _)| a.len()).sum();
        budget.charge(8 * total as u64)?;
        let mut lsel = Vec::with_capacity(total);
        let mut rsel = Vec::with_capacity(total);
        for (a, b) in pieces {
            lsel.extend_from_slice(&a);
            rsel.extend_from_slice(&b);
        }
        Ok((lsel, rsel))
    }

    /// Run-based group-count over a run-encoded sorted key column,
    /// partitioned on run indices (each run is one whole group, so a
    /// run-index split never cuts a group) — O(runs) total work.
    fn par_group_count_sorted_runs(&self, keys: &RunCol) -> (Vec<u64>, Vec<u64>) {
        let rc = keys.run_count();
        let parts = partitions(keys.len()).min(rc);
        if parts <= 1 {
            return ops::group_count_sorted_runs(keys);
        }
        self.note_batch(parts);
        let pieces = self.pool.run_with(
            parts,
            || (),
            |_, k| {
                let r = morsel_range(rc, parts, k);
                let ks = keys.values()[r.clone()].to_vec();
                let mut cs = Vec::with_capacity(r.len());
                let mut prev = keys.run_start(r.start) as u32;
                for &e in &keys.run_ends()[r] {
                    cs.push((e - prev) as u64);
                    prev = e;
                }
                (ks, cs)
            },
        );
        let mut ks = Vec::new();
        let mut cs = Vec::new();
        for (k, c) in pieces {
            ks.extend_from_slice(&k);
            cs.extend_from_slice(&c);
        }
        (ks, cs)
    }

    /// Two-key run-based group-count with a run-encoded leading key,
    /// partitioned on the lead column's run boundaries (a lead-run
    /// boundary is always a `(k0, k1)` group boundary).
    fn par_group_count_sorted_2_runs(
        &self,
        k0: &RunCol,
        k1: &[u64],
    ) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let rc = k0.run_count();
        let parts = partitions(k0.len()).min(rc);
        if parts <= 1 {
            return ops::group_count_sorted_2_runs(k0, k1);
        }
        self.note_batch(parts);
        let pieces = self.pool.run_with(
            parts,
            || (),
            |_, k| {
                let r = morsel_range(rc, parts, k);
                let lo = k0.run_start(r.start);
                let hi = if r.end < rc {
                    k0.run_start(r.end)
                } else {
                    k0.len()
                };
                let seg = k0.slice(lo..hi);
                ops::group_count_sorted_2_runs(&seg, &k1[lo..hi])
            },
        );
        let mut o0 = Vec::new();
        let mut o1 = Vec::new();
        let mut oc = Vec::new();
        for (a, b, c) in pieces {
            o0.extend_from_slice(&a);
            o1.extend_from_slice(&b);
            oc.extend_from_slice(&c);
        }
        (o0, o1, oc)
    }

    /// One-key hash group-count via per-worker partial maps (the map is
    /// the worker's scratch, reused across every morsel it pulls) merged
    /// and key-sorted at the barrier. Each morsel charges its map growth
    /// to the budget; a latched budget short-circuits remaining morsels.
    fn par_group_count_1(
        &self,
        budget: &QueryBudget,
        keys: &[u64],
    ) -> Result<(Vec<u64>, Vec<u64>), EngineError> {
        let parts = partitions(keys.len());
        if parts <= 1 {
            let out = ops::group_count_1(keys);
            budget.charge(16 * out.0.len() as u64)?;
            return Ok(out);
        }
        self.note_batch(parts);
        let partials = self
            .pool
            .run_reduce(parts, FxHashMap::<u64, u64>::default, |map, m| {
                if budget.latched() {
                    return;
                }
                let before = map.len();
                for &k in &keys[morsel_range(keys.len(), parts, m)] {
                    *map.entry(k).or_insert(0) += 1;
                }
                let _ = budget.charge(32 * (map.len() - before) as u64);
            });
        budget.check()?;
        let acc = merge_partials(partials, |a, b| *a += b);
        let mut pairs: Vec<(u64, u64)> = acc.into_iter().collect();
        pairs.sort_unstable();
        Ok(pairs.into_iter().unzip())
    }

    /// Two-key hash group-count, same shape as [`Self::par_group_count_1`].
    fn par_group_count_2(
        &self,
        budget: &QueryBudget,
        k0: &[u64],
        k1: &[u64],
    ) -> Result<GroupCount2, EngineError> {
        debug_assert_eq!(k0.len(), k1.len());
        let parts = partitions(k0.len());
        if parts <= 1 {
            let out = ops::group_count_2(k0, k1);
            budget.charge(24 * out.0.len() as u64)?;
            return Ok(out);
        }
        self.note_batch(parts);
        let partials =
            self.pool
                .run_reduce(parts, FxHashMap::<(u64, u64), u64>::default, |map, m| {
                    if budget.latched() {
                        return;
                    }
                    let before = map.len();
                    for i in morsel_range(k0.len(), parts, m) {
                        *map.entry((k0[i], k1[i])).or_insert(0) += 1;
                    }
                    let _ = budget.charge(48 * (map.len() - before) as u64);
                });
        budget.check()?;
        let acc = merge_partials(partials, |a, b| *a += b);
        let mut trips: Vec<((u64, u64), u64)> = acc.into_iter().collect();
        trips.sort_unstable();
        let mut o0 = Vec::with_capacity(trips.len());
        let mut o1 = Vec::with_capacity(trips.len());
        let mut oc = Vec::with_capacity(trips.len());
        for ((a, b), c) in trips {
            o0.push(a);
            o1.push(b);
            oc.push(c);
        }
        Ok((o0, o1, oc))
    }

    /// Run-based group-count over a sorted key column, partitioned at
    /// value-run boundaries so no group straddles a segment; each segment
    /// runs the sequential kernel and segments concatenate in key order.
    fn par_group_count_sorted_1(&self, keys: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let parts = partitions(keys.len());
        if parts <= 1 {
            return ops::group_count_sorted_1(keys);
        }
        let bounds = aligned_bounds(keys.len(), parts, |a, b| keys[a] == keys[b]);
        let segs = bounds.len() - 1;
        if segs <= 1 {
            return ops::group_count_sorted_1(keys);
        }
        self.note_batch(segs);
        let pieces = self.pool.run_with(
            segs,
            || (),
            |_, k| ops::group_count_sorted_1(&keys[bounds[k]..bounds[k + 1]]),
        );
        let mut ks = Vec::new();
        let mut cs = Vec::new();
        for (k, c) in pieces {
            ks.extend_from_slice(&k);
            cs.extend_from_slice(&c);
        }
        (ks, cs)
    }

    /// Two-key run-based group-count, segments aligned on `(k0, k1)` run
    /// boundaries.
    fn par_group_count_sorted_2(&self, k0: &[u64], k1: &[u64]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        debug_assert_eq!(k0.len(), k1.len());
        let parts = partitions(k0.len());
        if parts <= 1 {
            return ops::group_count_sorted_2(k0, k1);
        }
        let bounds = aligned_bounds(k0.len(), parts, |a, b| (k0[a], k1[a]) == (k0[b], k1[b]));
        let segs = bounds.len() - 1;
        if segs <= 1 {
            return ops::group_count_sorted_2(k0, k1);
        }
        self.note_batch(segs);
        let pieces = self.pool.run_with(
            segs,
            || (),
            |_, k| {
                let r = bounds[k]..bounds[k + 1];
                ops::group_count_sorted_2(&k0[r.clone()], &k1[r])
            },
        );
        let mut o0 = Vec::new();
        let mut o1 = Vec::new();
        let mut oc = Vec::new();
        for (a, b, c) in pieces {
            o0.extend_from_slice(&a);
            o1.extend_from_slice(&b);
            oc.extend_from_slice(&c);
        }
        (o0, o1, oc)
    }

    /// Linear distinct over fully sorted input, partitioned at row-run
    /// boundaries (equal rows never straddle a segment).
    fn par_distinct_sorted(&self, cols: &[&[u64]], len: usize) -> Vec<u32> {
        let parts = partitions(len);
        if parts <= 1 {
            return ops::distinct_sorted(cols, len);
        }
        let bounds = aligned_bounds(len, parts, |a, b| cols.iter().all(|c| c[a] == c[b]));
        let segs = bounds.len() - 1;
        if segs <= 1 {
            return ops::distinct_sorted(cols, len);
        }
        self.note_batch(segs);
        concat_u32(self.pool.run_with(
            segs,
            || (),
            |_, k| {
                let (lo, hi) = (bounds[k], bounds[k + 1]);
                let sliced: Vec<&[u64]> = cols.iter().map(|c| &c[lo..hi]).collect();
                let mut sel = ops::distinct_sorted(&sliced, hi - lo);
                for s in &mut sel {
                    *s += lo as u32;
                }
                sel
            },
        ))
    }

    /// Row-level distinct over unsorted input: per-worker partial maps
    /// (row → smallest position; the map and its key buffer are worker
    /// scratch reused across morsels) merged with min-position at the
    /// barrier. Returns ascending first-occurrence positions — a
    /// canonical representative set, identical at every pool width.
    fn par_distinct_rows(
        &self,
        budget: &QueryBudget,
        cols: &[&[u64]],
        len: usize,
    ) -> Result<Vec<u32>, EngineError> {
        // Per-entry footprint of the dedup maps: the boxed key row plus
        // map overhead.
        let entry_bytes = 24 + 8 * cols.len() as u64;
        let parts = partitions(len);
        if parts <= 1 {
            let mut sel = ops::distinct_rows(cols, len);
            budget.charge(entry_bytes * sel.len() as u64)?;
            sel.sort_unstable();
            return Ok(sel);
        }
        self.note_batch(parts);
        let partials = self.pool.run_reduce(
            parts,
            || (FxHashMap::<Box<[u64]>, u32>::default(), Vec::<u64>::new()),
            |(map, keybuf), m| {
                if budget.latched() {
                    return;
                }
                let before = map.len();
                for i in morsel_range(len, parts, m) {
                    keybuf.clear();
                    keybuf.extend(cols.iter().map(|c| c[i]));
                    match map.get_mut(keybuf.as_slice()) {
                        Some(pos) => *pos = (*pos).min(i as u32),
                        None => {
                            map.insert(keybuf.clone().into_boxed_slice(), i as u32);
                        }
                    }
                }
                let _ = budget.charge(entry_bytes * (map.len() - before) as u64);
            },
        );
        budget.check()?;
        let acc = merge_partials(
            partials.into_iter().map(|(map, _)| map).collect(),
            |p, v| *p = (*p).min(v),
        );
        let mut sel: Vec<u32> = acc.into_values().collect();
        sel.sort_unstable();
        Ok(sel)
    }

    /// Generic hash group-count for ≥3 keys. Up to four keys pack into a
    /// fixed-size array (no per-row allocation) and aggregate in parallel
    /// partial maps; wider key lists fall back to a sequential map keyed
    /// by `Vec` (no benchmark query reaches that).
    fn group_count_generic(
        &self,
        budget: &QueryBudget,
        child: &Chunk,
        keys: &[usize],
    ) -> Result<Chunk, EngineError> {
        let cols: Vec<&[u64]> = keys.iter().map(|&k| child.col(k)).collect();
        let mut rows: Vec<(Vec<u64>, u64)> = if keys.len() <= 4 {
            let n = child.len();
            let parts = partitions(n);
            let fold = |map: &mut FxHashMap<[u64; 4], u64>, r: std::ops::Range<usize>| {
                for i in r {
                    let mut key = [0u64; 4];
                    for (slot, c) in key.iter_mut().zip(&cols) {
                        *slot = c[i];
                    }
                    *map.entry(key).or_insert(0) += 1;
                }
            };
            let mut acc = if parts <= 1 {
                let mut map = FxHashMap::default();
                fold(&mut map, 0..n);
                budget.charge(40 * map.len() as u64)?;
                map
            } else {
                self.note_batch(parts);
                let partials =
                    self.pool
                        .run_reduce(parts, FxHashMap::<[u64; 4], u64>::default, |map, m| {
                            if budget.latched() {
                                return;
                            }
                            let before = map.len();
                            fold(map, morsel_range(n, parts, m));
                            let _ = budget.charge(40 * (map.len() - before) as u64);
                        });
                budget.check()?;
                merge_partials(partials, |a, b| *a += b)
            };
            acc.drain()
                .map(|(k, c)| (k[..keys.len()].to_vec(), c))
                .collect()
        } else {
            let mut map: FxHashMap<Vec<u64>, u64> = FxHashMap::default();
            for r in 0..child.len() {
                let key: Vec<u64> = cols.iter().map(|c| c[r]).collect();
                *map.entry(key).or_insert(0) += 1;
            }
            budget.charge((32 + 8 * keys.len() as u64) * map.len() as u64)?;
            map.into_iter().collect()
        };
        rows.sort_unstable();
        let mut out: Vec<Vec<u64>> = vec![Vec::with_capacity(rows.len()); keys.len() + 1];
        for (key, c) in rows {
            for (i, v) in key.into_iter().enumerate() {
                out[i].push(v);
            }
            out[keys.len()].push(c);
        }
        Ok(Chunk::from_cols(out))
    }
}

/// Merges per-worker partial hash maps into one, combining the values of
/// duplicate keys with `combine`. Worker arrival order is unspecified, so
/// callers must use an order-insensitive combiner (sums, min) — every
/// consumer also key-sorts the merged result before emitting it.
fn merge_partials<K: std::hash::Hash + Eq, V>(
    partials: Vec<FxHashMap<K, V>>,
    combine: impl Fn(&mut V, V),
) -> FxHashMap<K, V> {
    let mut iter = partials.into_iter();
    let mut acc = iter.next().unwrap_or_default();
    for map in iter {
        for (k, v) in map {
            match acc.entry(k) {
                std::collections::hash_map::Entry::Occupied(mut e) => combine(e.get_mut(), v),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(v);
                }
            }
        }
    }
    acc
}

/// Order-preserving concatenation of per-morsel selection vectors.
fn concat_u32(chunks: Vec<Vec<u32>>) -> Vec<u32> {
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for c in chunks {
        out.extend_from_slice(&c);
    }
    out
}

#[inline]
fn bit(i: usize) -> u64 {
    1u64 << i
}

#[inline]
fn full_mask(arity: usize) -> u64 {
    if arity >= 64 {
        u64::MAX
    } else {
        (1u64 << arity) - 1
    }
}

#[inline]
fn low_bits(mask: u64, n: usize) -> u64 {
    mask & full_mask(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swans_plan::algebra::{group_count, join, project, scan_all, scan_p, scan_po};
    use swans_plan::naive;
    use swans_plan::props::PhysProps;
    use swans_storage::MachineProfile;

    fn triples() -> Vec<Triple> {
        // type=0 Text=1 lang=2 fre=3 Date=4 eng=5, subjects 10..14
        vec![
            Triple::new(10, 0, 1),
            Triple::new(11, 0, 1),
            Triple::new(12, 0, 4),
            Triple::new(10, 2, 3),
            Triple::new(11, 2, 5),
            Triple::new(13, 2, 3),
        ]
    }

    fn engine(order: SortOrder) -> (StorageManager, ColumnEngine) {
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_triple_store(&m, &triples(), order, false);
        e.load_vertical(&m, &triples(), false);
        (m, e)
    }

    fn check(plan: &Plan, e: &ColumnEngine) {
        let got = naive::normalize(e.execute(plan).expect("plan executes").to_rows());
        let want = naive::normalize(naive::execute(plan, &triples()));
        assert_eq!(got, want, "plan {plan:?}");
    }

    #[test]
    fn scan_matches_naive_all_orders() {
        for order in SortOrder::ALL {
            let (_, e) = engine(order);
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
                    s: Some(10),
                    p: Some(2),
                    o: None,
                },
                &e,
            );
            check(
                &Plan::ScanTriples {
                    s: None,
                    p: None,
                    o: Some(1),
                },
                &e,
            );
            check(
                &Plan::ScanTriples {
                    s: Some(10),
                    p: Some(0),
                    o: Some(1),
                },
                &e,
            );
        }
    }

    #[test]
    fn scan_property_matches_naive() {
        let (_, e) = engine(SortOrder::Pso);
        for (s, o, emit) in [
            (None, None, false),
            (None, None, true),
            (Some(10), None, false),
            (None, Some(1), true),
            (Some(10), Some(1), false),
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
    fn missing_property_scans_empty() {
        let (_, e) = engine(SortOrder::Pso);
        let p = Plan::ScanProperty {
            property: 999,
            s: None,
            o: None,
            emit_property: true,
        };
        assert!(e.execute(&p).expect("empty scan executes").is_empty());
    }

    /// Scans against a layout the engine never loaded return a typed error
    /// instead of aborting the process.
    #[test]
    fn missing_layout_is_an_error_not_a_panic() {
        let m = StorageManager::new(MachineProfile::B);
        let mut triple_only = ColumnEngine::new();
        triple_only.load_triple_store(&m, &triples(), SortOrder::Pso, false);
        let vp_scan = Plan::ScanProperty {
            property: 0,
            s: None,
            o: None,
            emit_property: false,
        };
        assert_eq!(
            triple_only.execute(&vp_scan).unwrap_err(),
            EngineError::MissingVerticalLayout
        );

        let mut vertical_only = ColumnEngine::new();
        vertical_only.load_vertical(&m, &triples(), false);
        assert_eq!(
            vertical_only.execute(&scan_all()).unwrap_err(),
            EngineError::MissingTripleStore
        );
        // The error surfaces even when the bad scan is buried in a tree.
        let nested = group_count(project(join(vp_scan, scan_all(), 0, 0), vec![0]), vec![0]);
        assert_eq!(
            vertical_only.execute(&nested).unwrap_err(),
            EngineError::MissingTripleStore
        );
    }

    /// A structurally malformed plan (out-of-range column reference) is
    /// rejected up front with `InvalidPlan`.
    #[test]
    fn malformed_plan_returns_err() {
        let (_, e) = engine(SortOrder::Pso);
        let bad = project(scan_all(), vec![7]);
        assert!(matches!(e.execute(&bad), Err(EngineError::InvalidPlan(_))));
        let bad_union = Plan::UnionAll {
            inputs: vec![scan_all(), project(scan_all(), vec![0])],
        };
        assert!(matches!(
            e.execute(&bad_union),
            Err(EngineError::InvalidPlan(_))
        ));
    }

    #[test]
    fn join_group_pipeline_matches_naive() {
        let (_, e) = engine(SortOrder::Pso);
        let p = group_count(
            project(join(scan_po(0, 1), scan_all(), 0, 0), vec![4]),
            vec![0],
        );
        check(&p, &e);
    }

    #[test]
    fn distinct_union_matches_naive() {
        let (_, e) = engine(SortOrder::Pso);
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

    #[test]
    fn having_matches_naive() {
        let (_, e) = engine(SortOrder::Pso);
        let p = Plan::HavingCountGt {
            input: Box::new(group_count(project(scan_all(), vec![2]), vec![0])),
            min: 1,
        };
        check(&p, &e);
    }

    /// Projection pushdown: a plan that only consumes p and o must not
    /// read the subject column.
    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn needed_column_analysis_prunes_io() {
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        // Large enough that each column occupies multiple pages.
        let big: Vec<Triple> = (0..100_000)
            .map(|i| Triple::new(i, i % 50, i % 1000))
            .collect();
        e.load_triple_store(&m, &big, SortOrder::Pso, false);
        m.clear_pool();
        m.reset_stats();
        // q1 shape: select on p, group on o; s never used.
        let p = group_count(project(scan_p(7), vec![2]), vec![0]);
        let _ = e.execute(&p).expect("plan executes");
        let bytes = m.stats().bytes_read;
        // p + o columns = 2 * 100k * 8B (within page rounding); s pruned.
        let col_bytes = 100_000u64 * 8;
        assert!(
            bytes < 2 * col_bytes + 64 * 1024,
            "read {bytes} bytes, expected ~2 columns"
        );

        // Same plan with explicit s usage reads all three columns.
        m.clear_pool();
        m.reset_stats();
        let p_all = project(scan_p(7), vec![0, 1, 2]);
        let _ = e.execute(&p_all).expect("plan executes");
        assert!(m.stats().bytes_read > bytes);
    }

    /// The write path end-to-end on both layouts: scans union pending
    /// inserts and hide tombstones; a merge folds everything into the
    /// sorted tables without changing any answer.
    #[test]
    fn write_store_union_and_merge_preserve_answers() {
        let (m, mut e) = engine(SortOrder::Pso);
        let mut delta = Delta::new();
        delta
            .delete(Triple::new(11, 0, 1)) // drop one <type> row
            .insert(Triple::new(14, 0, 1)) // new subject, existing property
            .insert(Triple::new(14, 7, 9)); // brand-new property
        e.apply(&m, &delta).expect("delta applies");
        assert_eq!(e.pending_delta(), 3);

        // The logical content both layouts must now serve.
        let mut expect = triples();
        expect.retain(|t| *t != Triple::new(11, 0, 1));
        expect.push(Triple::new(14, 0, 1));
        expect.push(Triple::new(14, 7, 9));

        let check_against = |e: &ColumnEngine, plan: &Plan| {
            let got = naive::normalize(e.execute(plan).expect("plan executes").to_rows());
            let want = naive::normalize(naive::execute(plan, &expect));
            assert_eq!(got, want, "plan {plan:?}");
        };
        let plans = [
            scan_all(),
            scan_p(0),
            scan_po(0, 1),
            Plan::ScanProperty {
                property: 0,
                s: None,
                o: None,
                emit_property: true,
            },
            Plan::ScanProperty {
                property: 7, // only exists in the write store
                s: None,
                o: None,
                emit_property: false,
            },
            Plan::ScanProperty {
                property: 0,
                s: Some(14),
                o: None,
                emit_property: false,
            },
            group_count(
                project(join(scan_po(0, 1), scan_all(), 0, 0), vec![4]),
                vec![0],
            ),
        ];
        for plan in &plans {
            check_against(&e, plan);
        }
        assert!(e.exec_stats().delta_union_scans > 0);
        // Pending inserts downgrade the scans they can reach: property 0
        // and 7 hold pending rows, property 2 is untouched and keeps its
        // order claim.
        let ctx = e.props_ctx();
        assert!(ctx.any_pending_inserts());
        assert_eq!(derive_props(&scan_all(), &ctx), PhysProps::unordered());
        assert_eq!(derive_props(&scan_p(0), &ctx), PhysProps::unordered());
        assert!(derive_props(&scan_p(2), &ctx).sorted_by.is_some());
        let vp_scan2 = Plan::ScanProperty {
            property: 2,
            s: None,
            o: None,
            emit_property: false,
        };
        assert!(derive_props(&vp_scan2, &ctx).sorted_by.is_some());

        // Merge: same answers, sorted dispatch restored, write store empty.
        e.merge(&m).expect("merge succeeds");
        assert_eq!(e.pending_delta(), 0);
        assert!(!e.props_ctx().any_pending_inserts());
        assert_eq!(e.exec_stats().merges, 1);
        for plan in &plans {
            check_against(&e, plan);
        }
        // Property 7 got a real sorted table out of the merge.
        assert_eq!(e.property_table_count(), 3);
        e.reset_exec_stats();
        let j = join(
            Plan::ScanProperty {
                property: 0,
                s: None,
                o: None,
                emit_property: false,
            },
            Plan::ScanProperty {
                property: 2,
                s: None,
                o: None,
                emit_property: false,
            },
            0,
            0,
        );
        let _ = e.execute(&j).expect("join executes");
        let stats = e.exec_stats();
        assert_eq!(stats.merge_joins, 1, "sorted dispatch restored: {stats:?}");
        assert_eq!(stats.delta_union_scans, 0);
    }

    /// Delete semantics: every stored copy goes; a delete cancels matching
    /// pending inserts; a later insert of the same triple does NOT lift
    /// the tombstone — the old read-store copies stay hidden while the
    /// pending insert supplies exactly one new copy.
    #[test]
    fn delete_semantics_across_write_store_and_read_store() {
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        // Two identical copies in the read store.
        let mut data = triples();
        data.push(Triple::new(10, 0, 1));
        e.load_triple_store(&m, &data, SortOrder::Pso, false);

        // Delete removes both copies.
        e.apply(&m, &Delta::of_deletes(vec![Triple::new(10, 0, 1)]))
            .expect("applies");
        let got = e.execute(&scan_p(0)).expect("scan").to_rows();
        assert!(
            !got.iter().any(|r| r[0] == 10),
            "all copies hidden: {got:?}"
        );

        // Insert the same triple again: tombstone lifted, one copy visible.
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(10, 0, 1)]))
            .expect("applies");
        let got = e.execute(&scan_p(0)).expect("scan").to_rows();
        assert_eq!(got.iter().filter(|r| r[0] == 10).count(), 1);

        // A delete in the same batch as an earlier queued insert wins.
        let mut both = Delta::new();
        both.delete(Triple::new(10, 0, 1));
        e.apply(&m, &both).expect("applies");
        e.merge(&m).expect("merges");
        let got = e.execute(&scan_p(0)).expect("scan").to_rows();
        assert!(!got.iter().any(|r| r[0] == 10));
        // Deleting something that never existed is a harmless no-op.
        e.apply(&m, &Delta::of_deletes(vec![Triple::new(99, 99, 99)]))
            .expect("applies");
        e.merge(&m).expect("merges");
    }

    /// Reaching the configured threshold merges without an explicit call.
    #[test]
    fn threshold_triggers_automatic_merge() {
        let (m, mut e) = engine(SortOrder::Pso);
        e.set_merge_threshold(3);
        e.apply(
            &m,
            &Delta::of_inserts(vec![Triple::new(20, 0, 1), Triple::new(21, 0, 1)]),
        )
        .expect("applies");
        assert_eq!(e.pending_delta(), 2, "below threshold: no merge yet");
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(22, 0, 1)]))
            .expect("applies");
        assert_eq!(e.pending_delta(), 0, "threshold reached: auto-merged");
        assert_eq!(e.exec_stats().merges, 1);
        let got = e.execute(&scan_po(0, 1)).expect("scan").to_rows();
        assert_eq!(got.len(), 5);
    }

    /// A scan the write store cannot affect (no tombstones, no pending
    /// inserts in its bounds) keeps the plain read-store path.
    #[test]
    fn unaffected_scans_skip_the_union_path() {
        let (m, mut e) = engine(SortOrder::Pso);
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(30, 0, 1)]))
            .expect("applies");
        e.reset_exec_stats();
        // Property 2 has no pending rows; neither scan flavor unions.
        let vp = Plan::ScanProperty {
            property: 2,
            s: None,
            o: None,
            emit_property: false,
        };
        assert_eq!(e.execute(&vp).expect("scans").len(), 3);
        assert_eq!(e.execute(&scan_p(2)).expect("scans").len(), 3);
        assert_eq!(e.exec_stats().delta_union_scans, 0);
        // The property the insert targets does union.
        assert_eq!(e.execute(&scan_p(0)).expect("scans").len(), 4);
        assert_eq!(e.exec_stats().delta_union_scans, 1);
    }

    /// A merge only rewrites tables the delta actually changed: a
    /// tombstone that merely cancelled a pending insert leaves every
    /// stored byte alone, and an insert into one property leaves the
    /// other property tables (and nothing else) untouched.
    #[test]
    fn merge_skips_unchanged_tables() {
        let (m, mut e) = engine(SortOrder::Pso);
        // Insert then delete the same triple: the write store ends up
        // holding only a tombstone that matches no stored row.
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(50, 0, 1)]))
            .expect("applies");
        e.apply(&m, &Delta::of_deletes(vec![Triple::new(50, 0, 1)]))
            .expect("applies");
        assert_eq!(e.pending_delta(), 1, "the tombstone is pending");
        let before = m.stats();
        e.merge(&m).expect("merges");
        let io = m.stats().since(&before);
        assert_eq!(io.bytes_written, 0, "nothing changed, nothing rewritten");

        // An insert touching only property 0 rewrites that table (and the
        // triples table) but not property 2's columns.
        let p2_bytes = {
            let t = &e.props[&2];
            t.s.disk_bytes() + t.o.disk_bytes()
        };
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(51, 0, 1)]))
            .expect("applies");
        let before = m.stats();
        e.merge(&m).expect("merges");
        let io = m.stats().since(&before);
        let triple_bytes: u64 = (0..3)
            .map(|c| e.triple.as_ref().unwrap().cols[c].disk_bytes())
            .sum();
        let p0_bytes = {
            let t = &e.props[&0];
            t.s.disk_bytes() + t.o.disk_bytes()
        };
        assert_eq!(
            io.bytes_written,
            triple_bytes + p0_bytes,
            "only the affected tables are rewritten (p2 holds {p2_bytes}B)"
        );
    }

    /// The storage layer sees the write path: applies charge the log,
    /// merges charge the rebuilt segments.
    #[test]
    fn write_path_is_accounted() {
        let (m, mut e) = engine(SortOrder::Pso);
        m.reset_stats();
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(20, 0, 1)]))
            .expect("applies");
        let after_apply = m.stats();
        assert!(after_apply.bytes_written > 0, "apply charges the log");
        e.merge(&m).expect("merges");
        let after_merge = m.stats().since(&after_apply);
        assert!(
            after_merge.bytes_written > after_apply.bytes_written,
            "a merge rewrites whole tables: {after_merge:?}"
        );
    }

    /// A delta against an engine with no layout is a typed error.
    #[test]
    fn apply_without_layout_is_an_error() {
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        assert!(matches!(
            e.apply(&m, &Delta::of_inserts(vec![Triple::new(1, 2, 3)])),
            Err(EngineError::Unsupported(_))
        ));
    }

    /// A data set large enough that every operator partitions (columns
    /// far beyond one morsel).
    fn big_triples() -> Vec<Triple> {
        (0..60_000)
            .map(|i| Triple::new(i % 9_000, i % 7, i % 800))
            .collect()
    }

    /// Morsel-parallel execution is *bit-identical* to sequential: same
    /// rows, same order, at every pool width — scans, selects, hash and
    /// merge joins, group-counts and distinct included.
    #[test]
    fn parallel_execution_is_bit_identical_at_every_width() {
        let data = big_triples();
        let plans = [
            // Residual-filtered scan (p is not the PSO prefix under SPO).
            Plan::ScanTriples {
                s: None,
                p: Some(3),
                o: None,
            },
            // Select fallback (inequality keeps the scan path).
            Plan::Select {
                input: Box::new(scan_all()),
                pred: swans_plan::algebra::Predicate {
                    col: 2,
                    op: CmpOp::Ne,
                    value: 5,
                },
            },
            // Hash join (object-object: neither side object-sorted).
            join(scan_p(1), scan_p(2), 2, 2),
            // Merge join (subject-subject on VP tables).
            join(
                Plan::ScanProperty {
                    property: 1,
                    s: None,
                    o: None,
                    emit_property: false,
                },
                Plan::ScanProperty {
                    property: 2,
                    s: None,
                    o: None,
                    emit_property: false,
                },
                0,
                0,
            ),
            // Hash group-count (keys not a sort prefix).
            group_count(project(scan_all(), vec![2]), vec![0]),
            // Run-based group-count (subject prefix of a VP table).
            group_count(
                Plan::ScanProperty {
                    property: 0,
                    s: None,
                    o: None,
                    emit_property: false,
                },
                vec![0],
            ),
            // Sort-based distinct (projection loses the sort prefix).
            Plan::Distinct {
                input: Box::new(project(scan_all(), vec![2, 0])),
            },
            Plan::FilterIn {
                input: Box::new(scan_all()),
                col: 2,
                values: vec![1, 7, 13, 400],
            },
        ];

        let mut reference: Vec<Vec<Vec<u64>>> = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let m = StorageManager::new(MachineProfile::B);
            let mut e = ColumnEngine::new();
            e.set_threads(threads);
            assert_eq!(e.threads(), threads);
            e.load_triple_store(&m, &data, SortOrder::Spo, false);
            e.load_vertical(&m, &data, false);
            for (i, plan) in plans.iter().enumerate() {
                let rows = e.execute(plan).expect("plan executes").to_rows();
                if threads == 1 {
                    // Anchor correctness against the naive executor once.
                    assert_eq!(
                        naive::normalize(rows.clone()),
                        naive::normalize(naive::execute(plan, &data)),
                        "plan {i} wrong vs naive"
                    );
                    reference.push(rows);
                } else {
                    assert_eq!(
                        rows, reference[i],
                        "plan {i} differs at {threads} threads (not even row order may change)"
                    );
                }
            }
            let stats = e.exec_stats();
            assert!(
                stats.parallel_tasks > 0,
                "nothing partitioned at {threads} threads: {stats:?}"
            );
        }
    }

    /// Value-aligned segmentation: no run straddles a boundary, giant
    /// runs collapse segments instead of being walked linearly, and the
    /// parallel run-based kernels stay exact on such inputs.
    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn aligned_bounds_handle_giant_runs() {
        // One value covers almost the whole column.
        let mut keys = vec![7u64; 50_000];
        keys.extend([8, 8, 9]);
        let parts = partitions(keys.len());
        let bounds = aligned_bounds(keys.len(), parts, |a, b| keys[a] == keys[b]);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&keys.len()));
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "bounds must strictly increase: {bounds:?}");
            // No boundary lands inside a run.
            assert!(w[1] == keys.len() || keys[w[1]] != keys[w[1] - 1]);
        }

        let mut e = ColumnEngine::new();
        e.set_threads(4);
        let (k, c) = e.par_group_count_sorted_1(&keys);
        assert_eq!((k, c), ops::group_count_sorted_1(&keys));
    }

    /// The scratch-reuse accounting: partitioned batches process many
    /// morsels each (`morsels / parallel_tasks` ≫ 1), so per-batch scratch
    /// (hash maps, join partition tables) is reused across morsels rather
    /// than reallocated per morsel.
    #[test]
    fn morsel_counters_show_batched_scratch_reuse() {
        let data = big_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.set_threads(4);
        e.load_triple_store(&m, &data, SortOrder::Spo, false);
        let plan = group_count(
            project(
                Plan::ScanTriples {
                    s: None,
                    p: Some(3),
                    o: None,
                },
                vec![2],
            ),
            vec![0],
        );
        let _ = e.execute(&plan).expect("executes");
        let stats = e.exec_stats();
        assert!(stats.parallel_tasks > 0, "{stats:?}");
        assert!(
            stats.morsels >= 4 * stats.parallel_tasks,
            "each partitioned batch should span several morsels \
             (scratch per batch, not per morsel): {stats:?}"
        );
    }

    /// The per-property pending set in action at dispatch level: a pending
    /// insert for one property no longer downgrades merge joins on
    /// untouched properties, while the touched property's scans still
    /// union and hash.
    #[test]
    fn pending_delta_on_one_property_keeps_merge_joins_elsewhere() {
        let data = big_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_vertical(&m, &data, false);
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(1, 5, 2)]))
            .expect("applies");

        let vp = |p: u64| Plan::ScanProperty {
            property: p,
            s: None,
            o: None,
            emit_property: false,
        };
        // Join over untouched properties: still a merge join, no union.
        e.reset_exec_stats();
        let _ = e.execute(&join(vp(1), vp(2), 0, 0)).expect("executes");
        let clean = e.exec_stats();
        assert_eq!(clean.merge_joins, 1, "{clean:?}");
        assert_eq!(clean.hash_joins, 0, "{clean:?}");
        assert_eq!(clean.delta_union_scans, 0, "{clean:?}");

        // Join touching the pending property: unions and hashes.
        e.reset_exec_stats();
        let dirty_rows = e.execute(&join(vp(5), vp(2), 0, 0)).expect("executes");
        let dirty = e.exec_stats();
        assert_eq!(dirty.merge_joins, 0, "{dirty:?}");
        assert_eq!(dirty.hash_joins, 1, "{dirty:?}");
        assert!(dirty.delta_union_scans >= 1, "{dirty:?}");

        // And the answers are right either way.
        let mut expect = big_triples();
        expect.push(Triple::new(1, 5, 2));
        assert_eq!(
            naive::normalize(dirty_rows.to_rows()),
            naive::normalize(naive::execute(&join(vp(5), vp(2), 0, 0), &expect))
        );
    }

    /// Run-shaped data: each subject holds several objects per property,
    /// so vertically-partitioned subject columns compress, and the PSO
    /// triples lead column compresses massively.
    fn run_shaped_triples() -> Vec<Triple> {
        // ~8.6 statements per (subject, property): long enough runs that
        // every run kernel — the dense-output ones included — dispatches.
        (0..60_000)
            .map(|i| Triple::new(i % 1_000, i % 7, i % 797))
            .collect()
    }

    fn vp_scan(p: u64) -> Plan {
        Plan::ScanProperty {
            property: p,
            s: None,
            o: None,
            emit_property: false,
        }
    }

    /// Plans that exercise every run-native kernel: run-emitting scans,
    /// run-aware selects and IN filters, run×block merge joins, and
    /// aggregation straight off run lengths.
    fn run_heavy_plans() -> Vec<Plan> {
        vec![
            group_count(vp_scan(1), vec![0]),
            group_count(vp_scan(1), vec![0, 1]),
            join(vp_scan(1), vp_scan(2), 0, 0),
            Plan::Select {
                input: Box::new(vp_scan(3)),
                pred: swans_plan::algebra::Predicate {
                    col: 0,
                    op: CmpOp::Ne,
                    value: 5,
                },
            },
            Plan::FilterIn {
                input: Box::new(vp_scan(3)),
                col: 0,
                values: vec![5, 900, 2_999, 1],
            },
            // PSO lead column (p) is run-encoded through the projection.
            group_count(project(scan_all(), vec![1]), vec![0]),
        ]
    }

    /// Compressed execution end-to-end: run-encoded scans and run kernels
    /// fire, charge compressed instead of logical bytes, and the output
    /// matches the flat row-at-a-time reference executor on every plan.
    #[test]
    fn run_execution_matches_flat_baseline_bit_identically() {
        let data = run_shaped_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut run = ColumnEngine::new();
        run.load_vertical(&m, &data, true);
        run.load_triple_store(&m, &data, SortOrder::Pso, true);

        for (i, plan) in run_heavy_plans().iter().enumerate() {
            run.reset_exec_stats();
            let rows = run.execute(plan).expect("run path").to_rows();
            assert_eq!(
                naive::normalize(rows),
                naive::normalize(naive::execute(plan, &data)),
                "plan {i} wrong vs naive"
            );
            let stats = run.exec_stats();
            assert!(stats.run_scans > 0, "plan {i}: no run scan: {stats:?}");
            assert!(
                stats.run_kernel_dispatches > 0,
                "plan {i}: no run kernel: {stats:?}"
            );
            assert!(
                stats.scan_bytes_compressed < stats.scan_bytes_logical,
                "plan {i}: compression must save bytes: {stats:?}"
            );
        }
    }

    /// Run-kernel execution is bit-identical across pool widths — the
    /// run-boundary partitioning (run indices, never inside a run) keeps
    /// the morsel-order merges exact.
    #[test]
    fn run_execution_is_bit_identical_at_every_width() {
        let data = run_shaped_triples();
        let mut reference: Vec<Vec<Vec<u64>>> = Vec::new();
        for threads in [1usize, 2, 8] {
            let m = StorageManager::new(MachineProfile::B);
            let mut e = ColumnEngine::new();
            e.set_threads(threads);
            e.load_vertical(&m, &data, true);
            e.load_triple_store(&m, &data, SortOrder::Pso, true);
            for (i, plan) in run_heavy_plans().iter().enumerate() {
                let rows = e.execute(plan).expect("plan executes").to_rows();
                if threads == 1 {
                    reference.push(rows);
                } else {
                    assert_eq!(rows, reference[i], "plan {i} differs at {threads} threads");
                }
            }
            assert!(e.exec_stats().run_kernel_dispatches > 0, "width {threads}");
        }
    }

    /// The result boundary: a raw scan keeps its subject column
    /// run-encoded through the whole plan; `execute_rows` expands it
    /// there and counts the expansion.
    #[test]
    fn execute_rows_expands_at_the_result_boundary() {
        let data = run_shaped_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_vertical(&m, &data, true);
        let plan = vp_scan(1);
        let chunk = e.execute(&plan).expect("scan runs");
        assert!(chunk.col_is_runs(0), "subject column stays run-encoded");
        e.reset_exec_stats();
        let rows = e.execute_rows(&plan).expect("scan decodes");
        assert!(e.exec_stats().runs_expanded >= 1);
        assert_eq!(
            naive::normalize(rows),
            naive::normalize(naive::execute(&plan, &data))
        );
    }

    /// A pending delta on a property suppresses run emission for its
    /// scans (the union path is flat) without touching other properties;
    /// a merge restores it.
    #[test]
    fn pending_delta_suppresses_run_scans_until_merge() {
        let data = run_shaped_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_vertical(&m, &data, true);
        e.apply(&m, &Delta::of_inserts(vec![Triple::new(1, 1, 2)]))
            .expect("applies");

        e.reset_exec_stats();
        let _ = e.execute(&vp_scan(1)).expect("dirty scan");
        let dirty = e.exec_stats();
        assert_eq!(dirty.run_scans, 0, "{dirty:?}");
        assert!(dirty.delta_union_scans >= 1);

        e.reset_exec_stats();
        let _ = e.execute(&vp_scan(2)).expect("clean scan");
        assert!(
            e.exec_stats().run_scans >= 1,
            "untouched property emits runs"
        );

        e.merge(&m).expect("merges");
        e.reset_exec_stats();
        let _ = e.execute(&vp_scan(1)).expect("merged scan");
        assert!(e.exec_stats().run_scans >= 1, "merge restores run emission");
    }

    /// The per-table RLE auto-decision across merges: a near-distinct
    /// subject column loads uncompressed, compresses once a merge folds
    /// in duplicate subjects, and decompresses again when they leave —
    /// never staying silently stale.
    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn merge_retakes_rle_decision_per_property_table() {
        let base: Vec<Triple> = (0..5_000).map(|i| Triple::new(i, 9, i)).collect();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_vertical(&m, &base, true);
        assert!(
            !e.props[&9].s.has_runs(),
            "distinct subjects must not compress"
        );

        // Five extra objects per subject: runs of length 6 — compresses
        // well past the engine's run-emission threshold.
        let dupes: Vec<Triple> = (0..25_000)
            .map(|i| Triple::new(i % 5_000, 9, 100_000 + i))
            .collect();
        e.apply(&m, &Delta::of_inserts(dupes.clone()))
            .expect("applies");
        e.merge(&m).expect("merges");
        assert!(
            e.props[&9].s.has_runs(),
            "merge must re-take the RLE decision"
        );
        e.reset_exec_stats();
        let got = e
            .execute(&group_count(vp_scan(9), vec![0]))
            .expect("group runs");
        assert!(e.exec_stats().run_scans >= 1);
        assert_eq!(got.len(), 5_000);

        // Deleting the duplicates drops the compression again.
        e.apply(&m, &Delta::of_deletes(dupes)).expect("applies");
        e.merge(&m).expect("merges");
        assert!(
            !e.props[&9].s.has_runs(),
            "merge must drop compression that no longer pays"
        );
    }

    /// Runs must never flow where the derivation claims none — the two
    /// sneaky shapes: a *bound* scan that happens to cover the whole
    /// stored range (claim requires no bound at all), and a merge join
    /// whose right selection vector happens to be monotone (claims say
    /// only the left side survives run-encoded).
    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn unclaimed_positions_never_carry_runs() {
        // Every triple of property 7 — a p-bound PSO scan covers the
        // whole table; property 9 is one distinct row per subject.
        let mut data: Vec<Triple> = (0..20_000).map(|i| Triple::new(i / 8, 7, i % 8)).collect();
        data.extend((0..2_500).map(|i| Triple::new(i, 9, 424_242)));
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_triple_store(&m, &data, SortOrder::Pso, true);
        e.load_vertical(&m, &data, true);
        let ctx = e.props_ctx();

        // Bound-but-covering triples scan: claim empty, output flat.
        let bound = scan_p(7);
        assert!(derive_props(&bound, &ctx).run_encoded.is_empty());
        let chunk = e.execute(&bound).expect("scan runs");
        for c in 0..chunk.arity() {
            assert!(!chunk.col_is_runs(c), "unclaimed run column {c}");
        }
        // Bound subject covering one whole run on the VP table.
        let vps = Plan::ScanProperty {
            property: 7,
            s: Some(3),
            o: None,
            emit_property: false,
        };
        assert!(!e.execute(&vps).expect("scan runs").col_is_runs(0));

        // Merge join with a distinct (flat) left side: the right pair
        // positions come out monotone, but the right run column must
        // still gather flat.
        let j = join(vp_scan(9), vp_scan(7), 0, 0);
        assert!(derive_props(&j, &ctx).run_encoded.is_empty());
        e.reset_exec_stats();
        let out = e.execute(&j).expect("join runs");
        assert_eq!(e.exec_stats().merge_joins, 1);
        for c in 0..out.arity() {
            assert!(!out.col_is_runs(c), "unclaimed run column {c}");
        }
        assert_eq!(
            naive::normalize(out.to_rows()),
            naive::normalize(naive::execute(&j, &data))
        );
    }

    /// The sorted `IN` satellite: a derived-sorted filter column resolves
    /// each probe by binary search (counted), identically to the linear
    /// kernel.
    #[test]
    fn filter_in_on_sorted_column_binary_searches() {
        let data = run_shaped_triples();
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        // No compression: the sorted-IN path must fire on flat sorted
        // columns too.
        e.load_vertical(&m, &data, false);
        let plan = Plan::FilterIn {
            input: Box::new(vp_scan(4)),
            col: 0,
            values: vec![7, 2_999, 7, 100, 5_000_000],
        };
        e.reset_exec_stats();
        let got = e.execute(&plan).expect("filter runs");
        let stats = e.exec_stats();
        assert_eq!(stats.sorted_in_selects, 1, "{stats:?}");
        assert_eq!(stats.run_scans, 0, "uncompressed: no run emission");
        assert_eq!(
            naive::normalize(got.to_rows()),
            naive::normalize(naive::execute(&plan, &data))
        );
    }

    /// All twelve benchmark queries on both layouts match the naive
    /// executor on a structured micro-dataset.
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
        let m = StorageManager::new(MachineProfile::B);
        let mut e = ColumnEngine::new();
        e.load_triple_store(&m, &ds.triples, SortOrder::Pso, false);
        e.load_vertical(&m, &ds.triples, false);

        for q in QueryId::ALL {
            for scheme in [Scheme::TripleStore, Scheme::VerticallyPartitioned] {
                let plan = build_plan(q, scheme, &ctx);
                let got = naive::normalize(e.execute(&plan).expect("plan executes").to_rows());
                let want = naive::normalize(naive::execute(&plan, &ds.triples));
                assert_eq!(got, want, "query {q} / {}", scheme.name());
            }
        }
        // The sorted layer did real work on this workload.
        let stats = e.exec_stats();
        assert!(
            stats.merge_joins > 0,
            "no merge joins dispatched: {stats:?}"
        );
    }
}
