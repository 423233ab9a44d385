//! The engine's state: the sorted read-store tables, the write store,
//! load / apply / merge, the statistics catalog, snapshot forks, and the
//! kernel-dispatch counter table every other engine module bumps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use swans_rdf::hash::{FxHashMap, FxHashSet};
use swans_rdf::{Delta, Id, SortOrder, Triple};
use swans_storage::{SegmentId, StorageManager};

use swans_plan::algebra::Plan;
use swans_plan::exec::EngineError;
use swans_plan::optimize::optimize_cbo;
use swans_plan::props::PropsContext;
use swans_plan::stats::{PropStats, StatsCatalog, TripleStats};

use crate::column::Column;
use crate::parallel::WorkerPool;

/// Declares the kernel-dispatch counters once. Every counter is an atomic
/// cell in `ExecStats` (cumulative since load or the last
/// [`ColumnEngine::reset_exec_stats`]), a field of the public
/// [`ExecStatsSnapshot`], and a `(name, value)` entry of
/// [`ExecStatsSnapshot::named`] — all generated from the one list below,
/// in declaration order.
macro_rules! exec_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        #[derive(Debug, Default)]
        pub(super) struct ExecStats {
            $(pub(super) $name: AtomicU64,)*
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
    /// Joins executed by the merge kernels ([`crate::ops::merge_join_runs`];
    /// both inputs derived-sorted).
    merge_joins,
    /// Joins executed by the partitioned hash join
    /// ([`crate::ops::JoinHashPartition`] build, morsel-parallel probe).
    hash_joins,
    /// Group-counts executed by the run-based sorted kernel
    /// ([`crate::ops::group_count_sorted`], any key count).
    sorted_group_counts,
    /// Group-counts executed by the hash aggregate.
    hash_group_counts,
    /// Distincts executed by the linear [`crate::ops::distinct_sorted`] kernel.
    sorted_distincts,
    /// Distincts over input that is not fully sorted, executed by the
    /// hash aggregate (row → first position). The name predates the
    /// removal of the sort-based kernel; the benchmark reads it.
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
    /// a [`swans_plan::exec::QueryBudget`] by joins, aggregations, and result
    /// materialization) across all executions since the last reset.
    peak_mem_bytes,
}

#[inline]
pub(super) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The 3-column triples table, sorted by one clustering order.
///
/// Cloning is cheap: [`Column`] data lives behind `Arc`s, so a clone is a
/// shared view of the same immutable sorted run — the substrate of
/// [`ColumnEngine::fork`]'s snapshot semantics.
#[derive(Debug, Clone)]
pub(super) struct TripleTable {
    pub(super) order: SortOrder,
    /// Columns at their *logical* positions (0 = s, 1 = p, 2 = o); the row
    /// order is the clustering order's lexicographic sort.
    pub(super) cols: [Column; 3],
}

/// One vertically-partitioned property table, sorted by (subject, object).
/// Cloning shares the column data (see [`TripleTable`]).
#[derive(Debug, Clone)]
pub(super) struct PropTable {
    pub(super) s: Column,
    pub(super) o: Column,
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
pub(super) struct WriteStore {
    /// Pending inserts, in arrival order.
    pub(super) inserts: Vec<Triple>,
    /// The same pending inserts bucketed by property (`(s, o)` pairs).
    pub(super) by_prop: FxHashMap<Id, Vec<(u64, u64)>>,
    /// Tombstones: read-store rows to hide until the next merge removes
    /// them physically.
    pub(super) deletes: FxHashSet<Triple>,
    /// Property ids with at least one tombstone — lets a scan bound to a
    /// property the tombstones cannot match skip the union path entirely.
    pub(super) delete_props: FxHashSet<Id>,
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
    pub(super) triple: Option<TripleTable>,
    pub(super) props: FxHashMap<Id, PropTable>,
    /// Whether [`ColumnEngine::load_vertical`] ran — distinguishes "no
    /// vertically-partitioned layout at all" (an execution error) from "a
    /// property with no triples" (an empty scan).
    pub(super) vertical_loaded: bool,
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
    pub(super) verify: bool,
    /// Kernel-dispatch counters.
    pub(super) stats: ExecStats,
    /// The delta side: pending inserts and tombstones.
    pub(super) write: WriteStore,
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
    pub(super) pool: WorkerPool,
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
    pub(super) fn cached_cbo(&self, plan: &Plan, ctx: &PropsContext) -> Arc<Plan> {
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
}
