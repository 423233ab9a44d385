//! Morsel-parallel operator kernels: one body per kernel shape.
//!
//! Every kernel here obeys one contract: the output is **bit-identical at
//! every pool width**, because morsel (or value-aligned segment) outputs
//! are merged in morsel order at the barrier and order-insensitive merges
//! (hash-aggregation maps) are sorted before emission. Partitioning
//! therefore never invalidates a derived physical property. There is no
//! separate sequential form: an input of one morsel, or a pool of one
//! worker, runs the same body inline ([`WorkerPool::run_reduce`]).
//!
//! Kernels that take a [`QueryBudget`] observe its latch per morsel: once
//! it trips, remaining morsels return empty and the barrier's (or, for
//! [`ColumnEngine::par_filter`], the calling operator's)
//! [`QueryBudget::check`] turns the latch into the typed error.
//!
//! [`WorkerPool::run_reduce`]: crate::parallel::WorkerPool::run_reduce

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use swans_plan::exec::{EngineError, QueryBudget};
use swans_rdf::hash::FxHashMap;

use super::store::{bump, ColumnEngine};
use crate::chunk::{Chunk, ColData, RunCol};
use crate::ops::{self, RunsView};
use crate::parallel::{aligned_bounds, morsel_range, partitions, MORSEL_ROWS};

/// A row of key columns packed into one hashable, sortable value — the
/// key of the hash aggregate. Lexicographic `Ord` on the packed value is
/// lexicographic order on the row, so sorting groups by key emits them in
/// key-column order.
pub(super) trait RowKey: Hash + Eq + Ord + Send {
    /// Packs row `i` of `cols`.
    fn pack(cols: &[&[u64]], i: usize) -> Self;
    /// Appends the packed values to one output column per key column.
    fn unpack(&self, out: &mut [Vec<u64>]);
}

impl RowKey for u64 {
    fn pack(cols: &[&[u64]], i: usize) -> Self {
        cols[0][i]
    }
    fn unpack(&self, out: &mut [Vec<u64>]) {
        out[0].push(*self);
    }
}

impl RowKey for (u64, u64) {
    fn pack(cols: &[&[u64]], i: usize) -> Self {
        (cols[0][i], cols[1][i])
    }
    fn unpack(&self, out: &mut [Vec<u64>]) {
        out[0].push(self.0);
        out[1].push(self.1);
    }
}

/// Up to four columns, zero-padded: no per-row allocation.
impl RowKey for [u64; 4] {
    fn pack(cols: &[&[u64]], i: usize) -> Self {
        let mut key = [0u64; 4];
        for (slot, c) in key.iter_mut().zip(cols) {
            *slot = c[i];
        }
        key
    }
    fn unpack(&self, out: &mut [Vec<u64>]) {
        for (o, &v) in out.iter_mut().zip(self) {
            o.push(v);
        }
    }
}

/// Any column count, one allocation per row.
impl RowKey for Vec<u64> {
    fn pack(cols: &[&[u64]], i: usize) -> Self {
        cols.iter().map(|c| c[i]).collect()
    }
    fn unpack(&self, out: &mut [Vec<u64>]) {
        for (o, &v) in out.iter_mut().zip(self) {
            o.push(v);
        }
    }
}

impl ColumnEngine {
    /// Flat view of a chunk column, counting the event when the column
    /// arrived run-encoded: a flat consumer (e.g. a hash kernel) ends
    /// compressed execution for that column. The expansion itself is
    /// cached and shared, so repeated flat access expands at most once.
    pub(super) fn flat<'a>(&self, chunk: &'a Chunk, i: usize) -> &'a [u64] {
        if chunk.col_expansion_pending(i) {
            bump(&self.stats.runs_expanded);
        }
        chunk.col(i)
    }

    /// Whether a run column is long-run enough that branchy run-at-a-time
    /// loops beat the vectorized flat loops on *output-dense* work
    /// (gathers, non-selective predicates). Aggregation off run lengths
    /// and merge-join walks win at any compressing run length and are not
    /// gated by this.
    fn runs_pay_dense(runs: &RunCol) -> bool {
        runs.len() >= 8 * runs.run_count()
    }

    /// Counts one partitioned batch of `parts` morsels in the stats; a
    /// one-morsel batch is not partitioned and counts nothing.
    fn note_batch(&self, parts: usize) {
        if parts > 1 {
            bump(&self.stats.parallel_tasks);
            self.stats
                .morsels
                .fetch_add(parts as u64, Ordering::Relaxed);
        }
    }

    /// The one positional filter: the ascending positions of `range`
    /// that pass a test, morsel-parallel. `select` gets one morsel's row
    /// range and returns its passing positions relative to that range's
    /// start (the shape of [`ops::select_cmp`] and [`ops::select_in`] over
    /// a sub-slice). Latch-aware per morsel; the caller checks the budget.
    pub(super) fn par_filter(
        &self,
        budget: &QueryBudget,
        range: Range<usize>,
        select: impl Fn(Range<usize>) -> Vec<u32> + Sync,
    ) -> Vec<u32> {
        let parts = partitions(range.len());
        self.note_batch(parts);
        concat(self.pool.run_with(parts, |m| {
            if budget.latched() {
                return Vec::new();
            }
            let r = morsel_range(range.len(), parts, m);
            let start = range.start + r.start;
            let mut sel = select(start..range.start + r.end);
            shift(&mut sel, start);
            sel
        }))
    }

    /// Appends gather tasks for one output column to a shared batch:
    /// workers write disjoint slices of the preallocated output in place
    /// (no second copy at the barrier). `write` fills one output slice
    /// from the matching slice of `idx`.
    fn push_gather_tasks<'a>(
        tasks: &mut Vec<Box<dyn FnOnce() + Send + 'a>>,
        idx: &'a [u32],
        out: &'a mut [u64],
        parts: usize,
        write: impl Fn(&[u32], &mut [u64]) + Copy + Send + 'a,
    ) {
        let mut rest = out;
        for m in 0..parts {
            let r = morsel_range(idx.len(), parts, m);
            let (slot, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let ids = &idx[r];
            tasks.push(Box::new(move || write(ids, slot)));
        }
    }

    /// `idx.iter().map(|&i| data[i as usize]).collect()`, morsel-parallel.
    pub(super) fn par_gather_u64(&self, data: &[u64], idx: &[u32]) -> Vec<u64> {
        let parts = partitions(idx.len());
        self.note_batch(parts);
        let mut out = vec![0u64; idx.len()];
        let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(parts);
        Self::push_gather_tasks(&mut tasks, idx, &mut out, parts, move |ids, slot| {
            gather_flat(data, ids, slot);
        });
        self.pool.run_once(tasks);
        out
    }

    /// Gathers the rows selected by `sel` into a new chunk, preserving
    /// absent columns, morsel-parallel — every present column's morsel
    /// tasks run in **one** pool batch (one spawn/join,
    /// arity-independent), so a worker that finishes one column's morsels
    /// early pulls into the next column's.
    ///
    /// With `preserve_runs`, a run-encoded column stays run-encoded when
    /// the selection is monotone and the representation pays for dense
    /// output (long runs, or a selection sparse enough that the collapsed
    /// output stays far below flat size): each piece gathers its slice of
    /// the selection starting at a binary-searched run, and the barrier
    /// concatenates, merging boundary runs. `preserve_runs: false`
    /// guarantees an all-flat output even when the selection happens to
    /// be monotone — the form join output gathers use, because the
    /// `run_encoded` derivation claims no run columns survive a join's
    /// right side (or a hash join at all), and a run-encoded column must
    /// never be produced where unclaimed. Flattening a run column is
    /// still run-sourced ([`RunCol::gather_flat`]) for monotone
    /// selections; only a non-monotone (hash-shape) selection needs
    /// random access and expands the column (counted).
    pub(super) fn par_gather(
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
        /// One output column under construction.
        enum Out {
            Absent,
            Flat(Vec<u64>),
            /// One run-preserving gather per morsel, concatenated at the
            /// barrier.
            Pieces(Vec<RunCol>),
        }
        let mut outs: Vec<Out> = (0..chunk.arity())
            .map(|i| match chunk.col_runs(i) {
                _ if !chunk.has_col(i) => Out::Absent,
                Some(runs)
                    if preserve_runs
                        && monotone
                        && (Self::runs_pay_dense(runs) || sel.len() * 4 <= runs.len()) =>
                {
                    Out::Pieces(vec![RunCol::default(); parts])
                }
                _ => Out::Flat(vec![0u64; sel.len()]),
            })
            .collect();
        let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for (i, out) in outs.iter_mut().enumerate() {
            match (out, chunk.col_runs(i)) {
                (Out::Absent, _) => {}
                (Out::Pieces(pieces), runs) => {
                    let runs = runs.expect("pieces imply runs");
                    for (m, slot) in pieces.iter_mut().enumerate() {
                        let ids = &sel[morsel_range(sel.len(), parts, m)];
                        tasks.push(Box::new(move || *slot = runs.gather(ids)));
                    }
                }
                (Out::Flat(out), runs) => match runs.filter(|_| monotone) {
                    Some(runs) => {
                        Self::push_gather_tasks(&mut tasks, sel, out, parts, move |ids, slot| {
                            runs.gather_flat(ids, slot);
                        });
                    }
                    None => {
                        let data = self.flat(chunk, i);
                        Self::push_gather_tasks(&mut tasks, sel, out, parts, move |ids, slot| {
                            gather_flat(data, ids, slot);
                        });
                    }
                },
            }
        }
        if parts > 1 {
            self.note_batch(tasks.len());
        }
        self.pool.run_once(tasks);
        let cols = outs.into_iter().map(|out| match out {
            Out::Absent => None,
            Out::Flat(v) => Some(ColData::Owned(v)),
            Out::Pieces(p) => Some(ColData::runs(Arc::new(RunCol::concat(&p)))),
        });
        Ok(Chunk::from_optional(sel.len(), cols.collect()))
    }

    /// Hash equi-join with a hash-partitioned build side (the smaller
    /// input) and a morsel-partitioned probe side. Per-key chains are
    /// built in ascending position order whatever the partition count and
    /// probe morsels concatenate in probe order, so the pair stream does
    /// not depend on the partitioning.
    ///
    /// Governance: the build table is charged to the budget up front and
    /// probe morsels charge their pair output incrementally (in 1 MiB
    /// slabs), so a cross-product-shaped key distribution trips the
    /// memory limit *during* the blow-up.
    pub(crate) fn par_hash_join(
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
        // Partition the build side only when it is big enough to amortize
        // the scatter pass; the partition count is fixed (not
        // thread-dependent), so the task set is identical at every width.
        let parts_log2: u32 = if build.len() >= MORSEL_ROWS { 3 } else { 0 };
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
            let buckets: Vec<Vec<Vec<u32>>> = self.pool.run_with(scatter_parts, |m| {
                let mut local: Vec<Vec<u32>> = vec![Vec::new(); build_parts];
                for i in morsel_range(build.len(), scatter_parts, m) {
                    local[ops::join_partition_of(build[i], parts_log2) as usize].push(i as u32);
                }
                local
            });
            // Phase B — per-partition chain builds, consuming the morsel
            // buckets in morsel order so positions stay ascending.
            self.note_batch(build_parts);
            self.pool.run_with(build_parts, |w| {
                ops::JoinHashPartition::from_positions(
                    build,
                    buckets.iter().flat_map(|b| b[w].iter().copied()),
                )
            })
        };
        let probe_parts = partitions(probe.len());
        self.note_batch(probe_parts);
        let pieces = self.pool.run_with(probe_parts, |m| {
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
        });
        let (build_sel, probe_sel) = concat_pairs(budget, pieces)?;
        Ok(if swapped {
            (probe_sel, build_sel)
        } else {
            (build_sel, probe_sel)
        })
    }

    /// Merge equi-join of two sorted inputs, flat or run-encoded per
    /// side. The left side partitions on value-run boundaries
    /// ([`run_aligned_bounds`]) so no key run straddles a segment; each
    /// segment runs [`ops::merge_join_runs`] over its slice pair (the
    /// right slice found by binary search) and charges its output, and
    /// segments concatenate in value order — one pair stream at every
    /// width, so the order-preservation claim the props derivation makes
    /// for merge joins always holds.
    pub(super) fn par_merge_join_runs(
        &self,
        budget: &QueryBudget,
        l: RunsView<'_>,
        r: RunsView<'_>,
    ) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
        let bounds = run_aligned_bounds(l, partitions(l.len()));
        let segs = bounds.len() - 1;
        self.note_batch(segs);
        let pieces = self.pool.run_with(segs, |k| {
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
            let (mut l_buf, mut r_buf) = (RunCol::default(), RunCol::default());
            let (mut ls, mut rs) =
                ops::merge_join_runs(l.slice(lo..hi, &mut l_buf), r.slice(r_lo..r_hi, &mut r_buf));
            // Per-segment output charge; on overflow the budget latches
            // and the remaining segments short-circuit.
            if budget.charge(8 * ls.len() as u64).is_err() {
                return (Vec::new(), Vec::new());
            }
            shift(&mut ls, lo);
            shift(&mut rs, r_lo);
            (ls, rs)
        });
        concat_pairs(budget, pieces)
    }

    /// The one hash aggregate, generic over the key and the fold: rows
    /// `0..n` are keyed by `K::pack(cols, i)`, a group starts at
    /// `init(i)` and absorbs each further row through `combine` (which
    /// must be order-insensitive — it also merges the per-worker partial
    /// maps at the barrier, in unspecified order). The map is the
    /// worker's scratch, reused across every morsel it pulls; each morsel
    /// charges `entry_bytes` per new group to the budget.
    fn hash_aggregate<K: RowKey, V: Send>(
        &self,
        budget: &QueryBudget,
        cols: &[&[u64]],
        n: usize,
        entry_bytes: u64,
        init: impl Fn(usize) -> V + Sync,
        combine: impl Fn(&mut V, V) + Sync,
    ) -> Result<FxHashMap<K, V>, EngineError> {
        let parts = partitions(n);
        self.note_batch(parts);
        let upsert = |map: &mut FxHashMap<K, V>, key: K, v: V| match map.entry(key) {
            Entry::Occupied(mut e) => combine(e.get_mut(), v),
            Entry::Vacant(e) => {
                e.insert(v);
            }
        };
        let partials = self
            .pool
            .run_reduce(parts, FxHashMap::<K, V>::default, |map, m| {
                if budget.latched() {
                    return;
                }
                let before = map.len();
                for i in morsel_range(n, parts, m) {
                    upsert(map, K::pack(cols, i), init(i));
                }
                let _ = budget.charge(entry_bytes * (map.len() - before) as u64);
            });
        budget.check()?;
        let mut partials = partials.into_iter();
        let mut acc = partials.next().unwrap_or_default();
        for (key, v) in partials.flatten() {
            upsert(&mut acc, key, v);
        }
        Ok(acc)
    }

    /// Hash group-count over `n` rows of the key columns `cols`: the key
    /// columns followed by the counts, key-sorted.
    pub(crate) fn par_hash_group_count(
        &self,
        budget: &QueryBudget,
        cols: &[&[u64]],
        n: usize,
    ) -> Result<Chunk, EngineError> {
        match cols.len() {
            1 => self.group_count_keyed::<u64>(budget, cols, n, 32),
            2 => self.group_count_keyed::<(u64, u64)>(budget, cols, n, 48),
            0 | 3 | 4 => self.group_count_keyed::<[u64; 4]>(budget, cols, n, 40),
            k => self.group_count_keyed::<Vec<u64>>(budget, cols, n, 32 + 8 * k as u64),
        }
    }

    fn group_count_keyed<K: RowKey>(
        &self,
        budget: &QueryBudget,
        cols: &[&[u64]],
        n: usize,
        entry_bytes: u64,
    ) -> Result<Chunk, EngineError> {
        let counts =
            self.hash_aggregate::<K, u64>(budget, cols, n, entry_bytes, |_| 1, |a, b| *a += b)?;
        let mut groups: Vec<(K, u64)> = counts.into_iter().collect();
        groups.sort_unstable();
        let mut out: Vec<Vec<u64>> = vec![Vec::with_capacity(groups.len()); cols.len() + 1];
        for (key, count) in groups {
            key.unpack(&mut out[..cols.len()]);
            out[cols.len()].push(count);
        }
        Ok(Chunk::from_cols(out))
    }

    /// Row-level distinct over unsorted input: the hash aggregate keyed
    /// by the whole row, folding to the smallest position. Returns
    /// ascending first-occurrence positions — a canonical representative
    /// set, identical at every pool width.
    pub(crate) fn par_distinct_hash(
        &self,
        budget: &QueryBudget,
        cols: &[&[u64]],
        n: usize,
    ) -> Result<Vec<u32>, EngineError> {
        // Per-entry footprint of the dedup maps: the key row plus map
        // overhead.
        let entry_bytes = 24 + 8 * cols.len() as u64;
        let (first, min) = (|i: usize| i as u32, |p: &mut u32, v: u32| *p = (*p).min(v));
        let mut sel: Vec<u32> = if cols.len() <= 4 {
            self.hash_aggregate::<[u64; 4], u32>(budget, cols, n, entry_bytes, first, min)?
                .into_values()
                .collect()
        } else {
            self.hash_aggregate::<Vec<u64>, u32>(budget, cols, n, entry_bytes, first, min)?
                .into_values()
                .collect()
        };
        sel.sort_unstable();
        Ok(sel)
    }

    /// Run-based group-count over input sorted by `(lead, rest…)`, for
    /// any key count: the key columns followed by the counts. Partitioned
    /// on the lead column's value-run boundaries (a lead-run boundary is
    /// always a group boundary); each segment runs
    /// [`ops::group_count_sorted`] and segments concatenate in key order.
    pub(super) fn par_sorted_group_count(&self, lead: RunsView<'_>, rest: &[&[u64]]) -> Chunk {
        let bounds = run_aligned_bounds(lead, partitions(lead.len()));
        let segs = bounds.len() - 1;
        self.note_batch(segs);
        let mut pieces = self.pool.run_with(segs, |k| {
            ops::group_count_sorted(lead, rest, bounds[k]..bounds[k + 1])
        });
        Chunk::from_cols(
            (0..rest.len() + 2)
                .map(|c| {
                    concat(
                        pieces
                            .iter_mut()
                            .map(|p| std::mem::take(&mut p[c]))
                            .collect(),
                    )
                })
                .collect(),
        )
    }
}

/// Segment boundaries (`bounds[k]..bounds[k + 1]`) for up to `parts`
/// segments over a sorted input such that no value run straddles a
/// segment. A run-encoded input partitions **directly on its run
/// indices** — every boundary is a run boundary by construction, no
/// search needed; a flat input uses the binary-search value alignment of
/// [`aligned_bounds`]. An empty input has no segment at all.
fn run_aligned_bounds(sorted: RunsView<'_>, parts: usize) -> Vec<usize> {
    let mut bounds = match sorted {
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
    bounds.dedup();
    bounds
}

/// Rebases morsel-relative positions onto the whole input.
fn shift(positions: &mut [u32], by: usize) {
    if by > 0 {
        for p in positions {
            *p += by as u32;
        }
    }
}

/// `out[k] = data[idx[k]]` — the per-morsel body of the flat gathers.
fn gather_flat(data: &[u64], idx: &[u32], out: &mut [u64]) {
    for (o, &i) in out.iter_mut().zip(idx) {
        *o = data[i as usize];
    }
}

/// Order-preserving concatenation of per-morsel outputs. A single piece
/// is already the result and is handed back as is.
fn concat<T: Copy>(mut pieces: Vec<Vec<T>>) -> Vec<T> {
    if pieces.len() == 1 {
        return pieces.pop().expect("one piece");
    }
    let mut out = Vec::with_capacity(pieces.iter().map(Vec::len).sum());
    for p in &pieces {
        out.extend_from_slice(p);
    }
    out
}

/// The join barrier: surfaces a latched budget, then concatenates the
/// per-morsel pair streams in morsel order. Concatenating several pieces
/// makes a second copy of every pair, which is charged; a single piece is
/// handed back without a copy.
fn concat_pairs(
    budget: &QueryBudget,
    pieces: Vec<(Vec<u32>, Vec<u32>)>,
) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
    budget.check()?;
    if pieces.len() > 1 {
        let total: usize = pieces.iter().map(|(a, _)| a.len()).sum();
        budget.charge(8 * total as u64)?;
    }
    let (ls, rs): (Vec<_>, Vec<_>) = pieces.into_iter().unzip();
    Ok((concat(ls), concat(rs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use swans_plan::exec::CancelReason;

    /// Input lengths around the one-morsel / many-morsel seam.
    const LENS: [usize; 6] = [
        0,
        1,
        MORSEL_ROWS - 1,
        MORSEL_ROWS,
        MORSEL_ROWS + 1,
        3 * MORSEL_ROWS + 7,
    ];
    const WIDTHS: [usize; 3] = [1, 2, 8];

    fn engine(width: usize) -> ColumnEngine {
        let mut e = ColumnEngine::new();
        e.set_threads(width);
        e
    }

    /// Runs `kernel` at every pool width, asserts the outputs are
    /// bit-identical, and returns the one output.
    fn at_every_width<T: PartialEq + std::fmt::Debug>(
        what: &str,
        kernel: impl Fn(&ColumnEngine) -> T,
    ) -> T {
        let mut outs = WIDTHS.iter().map(|&w| kernel(&engine(w)));
        let first = outs.next().expect("widths");
        for (out, w) in outs.zip(&WIDTHS[1..]) {
            assert_eq!(out, first, "{what}: width {w} differs from width 1");
        }
        first
    }

    /// An unsorted column with many duplicates.
    fn scattered(n: usize, space: u64) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 7919 + 13) % space).collect()
    }

    /// A sorted column with runs of `run` rows.
    fn stepped(n: usize, run: usize) -> Vec<u64> {
        (0..n).map(|i| (i / run) as u64).collect()
    }

    fn rows_of(cols: &[&[u64]], n: usize) -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| cols.iter().map(|c| c[i]).collect())
            .collect()
    }

    /// `BTreeMap` group counts as key columns followed by the counts.
    fn btree_counts(cols: &[&[u64]], n: usize) -> Vec<Vec<u64>> {
        let mut counts: BTreeMap<Vec<u64>, u64> = BTreeMap::new();
        for row in rows_of(cols, n) {
            *counts.entry(row).or_insert(0) += 1;
        }
        let mut out = vec![Vec::new(); cols.len() + 1];
        for (k, c) in counts {
            for (o, v) in out.iter_mut().zip(k) {
                o.push(v);
            }
            out[cols.len()].push(c);
        }
        out
    }

    fn chunk_cols(chunk: &Chunk) -> Vec<Vec<u64>> {
        (0..chunk.arity()).map(|c| chunk.col(c).to_vec()).collect()
    }

    /// Every matching `(left, right)` pair, lexicographically — the merge
    /// join's order, and the hash join's pairs once sorted.
    fn join_pairs(l: &[u64], r: &[u64]) -> Vec<(u32, u32)> {
        let mut by_key: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (j, &k) in r.iter().enumerate() {
            by_key.entry(k).or_default().push(j as u32);
        }
        let mut out = Vec::new();
        for (i, k) in l.iter().enumerate() {
            for &j in by_key.get(k).map_or(&[][..], Vec::as_slice) {
                out.push((i as u32, j));
            }
        }
        out
    }

    fn zip_pairs((l, r): (Vec<u32>, Vec<u32>)) -> Vec<(u32, u32)> {
        l.into_iter().zip(r).collect()
    }

    /// Width 1 is the one-morsel case: every surviving kernel, at every
    /// input length around the morsel seam, answers bit-identically at
    /// every pool width and equal to an independent reference.
    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn kernels_are_bit_identical_across_widths_and_match_references() {
        let unlimited = QueryBudget::unlimited();
        for n in LENS {
            // Filter.
            let data = scattered(n, 5);
            let got = at_every_width("filter", |e| {
                e.par_filter(&unlimited, 0..n, |r| ops::select_cmp(&data[r], 3, false))
            });
            let want: Vec<u32> = (0..n as u32).filter(|&i| data[i as usize] == 3).collect();
            assert_eq!(got, want, "filter, n {n}");
            // ...over a sub-range that does not start at 0.
            let from = n / 3;
            let got = at_every_width("filter range", |e| {
                e.par_filter(&unlimited, from..n, |r| ops::select_in(&data[r], &[0, 4]))
            });
            let want: Vec<u32> = (from as u32..n as u32)
                .filter(|&i| [0, 4].contains(&data[i as usize]))
                .collect();
            assert_eq!(got, want, "ranged filter, n {n}");

            // Gathers: a flat column, and a chunk with a run-encoded one
            // (monotone selection, runs kept or flattened by policy).
            let idx: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 1).collect();
            let got = at_every_width("gather", |e| e.par_gather_u64(&data, &idx));
            let want: Vec<u64> = idx.iter().map(|&i| data[i as usize]).collect();
            assert_eq!(got, want, "gather, n {n}");
            let sorted = stepped(n, 9);
            let chunk = Chunk::from_optional(
                n,
                vec![
                    Some(ColData::runs(Arc::new(RunCol::from_flat(&sorted)))),
                    None,
                    Some(ColData::Owned(data.clone())),
                ],
            );
            for preserve in [true, false] {
                let got = at_every_width("chunk gather", |e| {
                    let out = e
                        .par_gather(&unlimited, &chunk, &idx, preserve)
                        .expect("gathers");
                    assert!(!out.has_col(1), "absent columns stay absent");
                    assert!(preserve || !out.col_is_runs(0), "unclaimed run column");
                    (out.col(0).to_vec(), out.col(2).to_vec())
                });
                let want0: Vec<u64> = idx.iter().map(|&i| sorted[i as usize]).collect();
                assert_eq!(got, (want0, want.clone()), "chunk gather, n {n}");
            }

            // Hash join (pairs as a set; the stream itself across widths).
            let (l, r) = (scattered(n, 97), scattered(n / 2 + 1, 89));
            let got = at_every_width("hash join", |e| {
                zip_pairs(e.par_hash_join(&unlimited, &l, &r).expect("joins"))
            });
            let mut got_sorted = got;
            got_sorted.sort_unstable();
            assert_eq!(got_sorted, join_pairs(&l, &r), "hash join, n {n}");

            // Merge join, every flat/runs side combination.
            let (l, r) = (stepped(n, 3), stepped(n / 2 + 1, 2));
            let (lr, rr) = (RunCol::from_flat(&l), RunCol::from_flat(&r));
            let want = join_pairs(&l, &r);
            for (lv, rv) in [
                (RunsView::Flat(&l), RunsView::Flat(&r)),
                (RunsView::Runs(&lr), RunsView::Runs(&rr)),
                (RunsView::Runs(&lr), RunsView::Flat(&r)),
                (RunsView::Flat(&l), RunsView::Runs(&rr)),
            ] {
                let got = at_every_width("merge join", |e| {
                    zip_pairs(e.par_merge_join_runs(&unlimited, lv, rv).expect("joins"))
                });
                assert_eq!(got, want, "merge join, n {n}");
            }

            // Hash aggregate: one key width per packed-key type.
            let keys: Vec<Vec<u64>> = (0..5).map(|c| scattered(n, 3 + c)).collect();
            for arity in [1usize, 2, 3, 5] {
                let cols: Vec<&[u64]> = keys[..arity].iter().map(Vec::as_slice).collect();
                let got = at_every_width("hash group-count", |e| {
                    chunk_cols(
                        &e.par_hash_group_count(&unlimited, &cols, n)
                            .expect("groups"),
                    )
                });
                assert_eq!(got, btree_counts(&cols, n), "{arity}-key hash group, n {n}");
            }

            // Sorted group-count: flat and run-encoded lead, 0/1/2 rest
            // columns (rest sorted within each lead run).
            let lead = stepped(n, 11);
            let lead_runs = RunCol::from_flat(&lead);
            let rest1: Vec<u64> = (0..n).map(|i| (i % 11 / 4) as u64).collect();
            let rest2: Vec<u64> = (0..n).map(|i| (i % 11 % 4 / 2) as u64).collect();
            for rest in [&[][..], &[&rest1[..]][..], &[&rest1[..], &rest2[..]][..]] {
                let mut cols: Vec<&[u64]> = vec![&lead];
                cols.extend(rest);
                let want = btree_counts(&cols, n);
                for view in [RunsView::Flat(&lead), RunsView::Runs(&lead_runs)] {
                    let got = at_every_width("sorted group-count", |e| {
                        chunk_cols(&e.par_sorted_group_count(view, rest))
                    });
                    assert_eq!(got, want, "sorted group, {} rest, n {n}", rest.len());
                }
            }

            // Distinct: sorted (a filter) and unsorted (the hash
            // aggregate) keep the first row of every duplicate set.
            let cols: [&[u64]; 2] = [&lead, &rest1];
            let got = at_every_width("sorted distinct", |e| {
                e.par_filter(&unlimited, 0..n, |r| ops::distinct_sorted(&cols, r))
            });
            let first_of = |cols: &[&[u64]]| -> Vec<u32> {
                let mut seen = BTreeSet::new();
                (0..n as u32)
                    .filter(|&i| {
                        seen.insert(cols.iter().map(|c| c[i as usize]).collect::<Vec<_>>())
                    })
                    .collect()
            };
            assert_eq!(got, first_of(&cols), "sorted distinct, n {n}");
            for arity in [2usize, 5] {
                let cols: Vec<&[u64]> = keys[..arity].iter().map(Vec::as_slice).collect();
                let got = at_every_width("hash distinct", |e| {
                    e.par_distinct_hash(&unlimited, &cols, n).expect("distinct")
                });
                assert_eq!(got, first_of(&cols), "{arity}-column hash distinct, n {n}");
            }
        }
    }

    /// The one-morsel case observes the budget latch like any other
    /// morsel (it used to return through a sequential twin that never
    /// looked): a latched budget yields no partial output and the typed
    /// error.
    #[test]
    fn latched_budget_cancels_the_one_morsel_case() {
        for n in [1, MORSEL_ROWS] {
            assert_eq!(partitions(n), 1);
            let data = stepped(n, 2);
            let runs = RunCol::from_flat(&data);
            for width in WIDTHS {
                let e = engine(width);
                let budget = QueryBudget::unlimited();
                budget.cancel();
                let cancelled = |what: &str, err: EngineError| {
                    assert!(
                        matches!(
                            err,
                            EngineError::Cancelled {
                                reason: CancelReason::Shutdown,
                                ..
                            }
                        ),
                        "{what}: {err:?}"
                    );
                };
                let sel = e.par_filter(&budget, 0..n, |r| ops::select_cmp(&data[r], 0, false));
                assert!(
                    sel.is_empty(),
                    "filter emitted {sel:?} under a latched budget"
                );
                cancelled("filter's caller check", budget.check().unwrap_err());
                cancelled(
                    "hash join",
                    e.par_hash_join(&budget, &data, &data).unwrap_err(),
                );
                cancelled(
                    "merge join",
                    e.par_merge_join_runs(&budget, RunsView::Flat(&data), RunsView::Runs(&runs))
                        .unwrap_err(),
                );
                cancelled(
                    "hash group-count",
                    e.par_hash_group_count(&budget, &[&data], n).unwrap_err(),
                );
                cancelled(
                    "hash distinct",
                    e.par_distinct_hash(&budget, &[&data], n).unwrap_err(),
                );
            }
        }
    }

    /// A one-morsel gather is one inline batch however many columns it
    /// carries: `parallel_tasks` / `morsels` keep meaning "really
    /// partitioned".
    #[test]
    fn one_morsel_batches_are_not_counted_as_partitioned() {
        let e = engine(4);
        let data = scattered(100, 7);
        let chunk = Chunk::from_cols(vec![data.clone(), data.clone(), data]);
        let sel: Vec<u32> = (0..100).step_by(2).collect();
        let _ = e
            .par_gather(&QueryBudget::unlimited(), &chunk, &sel, true)
            .expect("gathers");
        let stats = e.exec_stats();
        assert_eq!((stats.parallel_tasks, stats.morsels), (0, 0), "{stats:?}");
    }
}
