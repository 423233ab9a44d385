//! Vectorized operator kernels.
//!
//! Each kernel is a tight loop over column vectors — the column-at-a-time
//! execution style whose processing efficiency the paper credits for
//! column-stores being "particularly suited for RDF data management".

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::ops::Range;

use swans_rdf::hash::FxHasher;

use crate::chunk::RunCol;

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Positions where `col[i] == value` (or `!=` when `negate`).
pub fn select_cmp(col: &[u64], value: u64, negate: bool) -> Vec<u32> {
    let mut out = Vec::new();
    if negate {
        for (i, &v) in col.iter().enumerate() {
            if v != value {
                out.push(i as u32);
            }
        }
    } else {
        for (i, &v) in col.iter().enumerate() {
            if v == value {
                out.push(i as u32);
            }
        }
    }
    out
}

/// Appends the whole position range of a matching run. A manual push
/// loop into pre-reserved capacity: per-range `Vec::extend` setup costs
/// dominate on short runs, and the output side is the whole cost of a
/// non-selective predicate.
#[inline]
fn push_range(out: &mut Vec<u32>, r: Range<usize>) {
    let mut p = r.start as u32;
    let end = r.end as u32;
    while p < end {
        out.push(p);
        p += 1;
    }
}

/// Run-aware [`select_cmp`]: the predicate is evaluated **once per run**
/// and whole position ranges are emitted — identical output, O(runs)
/// predicate tests instead of O(rows).
pub fn select_cmp_runs(runs: &RunCol, value: u64, negate: bool) -> Vec<u32> {
    let mut out = Vec::with_capacity(if negate { runs.len() } else { 0 });
    for (v, r) in runs.runs() {
        if (v == value) != negate {
            push_range(&mut out, r);
        }
    }
    out
}

/// Below this many `IN`-list values a linear membership scan beats
/// building a hash set (the common `FILTER IN` case has a handful).
const SELECT_IN_LINEAR_MAX: usize = 8;

/// Positions where `col[i]` is in `values`.
pub fn select_in(col: &[u64], values: &[u64]) -> Vec<u32> {
    let mut out = Vec::new();
    if values.len() <= SELECT_IN_LINEAR_MAX {
        for (i, &v) in col.iter().enumerate() {
            if values.contains(&v) {
                out.push(i as u32);
            }
        }
    } else {
        let set: std::collections::HashSet<u64, BuildHasherDefault<FxHasher>> =
            values.iter().copied().collect();
        for (i, &v) in col.iter().enumerate() {
            if set.contains(&v) {
                out.push(i as u32);
            }
        }
    }
    out
}

/// Run-aware [`select_in`]: membership is tested once per run.
pub fn select_in_runs(runs: &RunCol, values: &[u64]) -> Vec<u32> {
    let mut out = Vec::new();
    if values.len() <= SELECT_IN_LINEAR_MAX {
        for (v, r) in runs.runs() {
            if values.contains(&v) {
                push_range(&mut out, r);
            }
        }
    } else {
        let set: std::collections::HashSet<u64, BuildHasherDefault<FxHasher>> =
            values.iter().copied().collect();
        for (v, r) in runs.runs() {
            if set.contains(&v) {
                push_range(&mut out, r);
            }
        }
    }
    out
}

/// Positions holding `value` in a **sorted** slice, by binary search.
pub fn eq_range(sorted: &[u64], value: u64) -> Range<usize> {
    sorted.partition_point(|&x| x < value)..sorted.partition_point(|&x| x <= value)
}

/// [`select_in`] over a **sorted** column: each probe value resolves by
/// binary search (k·log n instead of the linear membership scan) — over
/// the (much shorter) run headers when the column is run-encoded. The
/// probe list is sorted and deduplicated first, so the per-value ranges
/// concatenate into exactly the ascending position vector [`select_in`]
/// emits.
pub fn select_in_sorted(col: RunsView<'_>, values: &[u64]) -> Vec<u32> {
    let mut probes: Vec<u64> = values.to_vec();
    probes.sort_unstable();
    probes.dedup();
    let mut out = Vec::new();
    for v in probes {
        let r = col.eq_range(v);
        out.extend(r.start as u32..r.end as u32);
    }
    out
}

/// The hash partition a key belongs to when the build side is split into
/// `1 << parts_log2` partitions. A multiplicative mix of the key's bits,
/// deliberately *not* the bucket function of the partition tables' maps,
/// so a pathological key set cannot degrade both at once.
#[inline]
pub fn join_partition_of(key: u64, parts_log2: u32) -> u32 {
    if parts_log2 == 0 {
        return 0;
    }
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & ((1 << parts_log2) - 1)) as u32
}

/// One partition of a hash-partitioned join build side (a small build
/// side is a single partition holding every row).
///
/// Positions are inserted in ascending order, so the per-key chains — and
/// therefore the pair order a probe emits — do not depend on how many
/// partitions the build side was split into. The tables are built once
/// per join and shared (read-only) across every probe morsel — probe
/// scratch, not the build side, is what morsels reuse.
pub struct JoinHashPartition {
    /// Key → most-recently-inserted *local* entry id.
    heads: FxMap<u64, u32>,
    /// `next[e]` = previous local entry with the same key (`u32::MAX`
    /// ends the chain).
    next: Vec<u32>,
    /// Local entry id → global build position.
    pos: Vec<u32>,
}

impl JoinHashPartition {
    /// Builds a partition table from this partition's build positions,
    /// supplied in ascending order (one scatter pass produces the lists
    /// for every partition at once). An iterator that knows its length —
    /// the whole-column range of an unpartitioned build — reserves the
    /// table up front and skips the doubling re-allocations.
    pub fn from_positions(build: &[u64], positions: impl IntoIterator<Item = u32>) -> Self {
        let positions = positions.into_iter();
        let cap = positions.size_hint().0;
        let mut heads: FxMap<u64, u32> = FxMap::with_capacity_and_hasher(cap, Default::default());
        let mut next = Vec::with_capacity(cap);
        let mut pos = Vec::with_capacity(cap);
        for i in positions {
            let e = heads.entry(build[i as usize]).or_insert(u32::MAX);
            next.push(*e);
            pos.push(i);
            *e = (next.len() - 1) as u32;
        }
        Self { heads, next, pos }
    }

    /// Appends every `(build_pos, probe_pos)` match for `key` to the
    /// caller's output buffers (build positions in descending order).
    #[inline]
    pub fn probe_into(
        &self,
        key: u64,
        probe_pos: u32,
        build_sel: &mut Vec<u32>,
        probe_sel: &mut Vec<u32>,
    ) {
        if let Some(&head) = self.heads.get(&key) {
            let mut e = head;
            while e != u32::MAX {
                build_sel.push(self.pos[e as usize]);
                probe_sel.push(probe_pos);
                e = self.next[e as usize];
            }
        }
    }

    /// Number of build entries in this partition.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when no build key hashed into this partition.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }
}

/// Merge equi-join of two sorted columns: matching `(left_pos, right_pos)`
/// pairs. The "fast (linear) merge joins" the vertically-partitioned
/// proposal advertises for subject-subject joins.
pub fn merge_join(left: &[u64], right: &[u64]) -> (Vec<u32>, Vec<u32>) {
    debug_assert!(left.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(right.windows(2).all(|w| w[0] <= w[1]));
    let mut l = 0usize;
    let mut r = 0usize;
    // Every match emits at least one pair per overlapping key; the smaller
    // side is a cheap lower bound that skips early re-allocations.
    let mut left_sel = Vec::with_capacity(left.len().min(right.len()));
    let mut right_sel = Vec::with_capacity(left.len().min(right.len()));
    while l < left.len() && r < right.len() {
        match left[l].cmp(&right[r]) {
            std::cmp::Ordering::Less => l += 1,
            std::cmp::Ordering::Greater => r += 1,
            std::cmp::Ordering::Equal => {
                let v = left[l];
                // Runs of one key are typically short: advance linearly
                // (a binary search over the remainder costs log(n) per
                // run and dominates on near-distinct columns).
                let mut l_end = l + 1;
                while l_end < left.len() && left[l_end] == v {
                    l_end += 1;
                }
                let mut r_end = r + 1;
                while r_end < right.len() && right[r_end] == v {
                    r_end += 1;
                }
                for li in l..l_end {
                    for ri in r..r_end {
                        left_sel.push(li as u32);
                        right_sel.push(ri as u32);
                    }
                }
                l = l_end;
                r = r_end;
            }
        }
    }
    (left_sel, right_sel)
}

/// A sorted join input viewed as a sequence of maximal equal-value runs —
/// either a flat column (runs found by the linear walk [`merge_join`]
/// already does) or a run-encoded column (runs read off the headers in
/// O(1) each). The compressed-execution merge join is generic over the
/// two, so every flat/runs side combination shares one kernel.
#[derive(Debug, Clone, Copy)]
pub enum RunsView<'a> {
    /// A flat sorted column.
    Flat(&'a [u64]),
    /// A run-encoded sorted column.
    Runs(&'a RunCol),
}

impl<'a> RunsView<'a> {
    /// Logical row count.
    pub fn len(&self) -> usize {
        match self {
            RunsView::Flat(c) => c.len(),
            RunsView::Runs(r) => r.len(),
        }
    }

    /// True when the input has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this view reads run headers rather than rows.
    pub fn is_runs(&self) -> bool {
        matches!(self, RunsView::Runs(_))
    }

    /// The value at logical row `pos`.
    pub fn value_at(&self, pos: usize) -> u64 {
        match self {
            RunsView::Flat(c) => c[pos],
            RunsView::Runs(r) => r.value_at(pos),
        }
    }

    /// First row position with a value `>= v` (binary search — over the
    /// run headers on run-encoded input).
    pub fn lower_bound(&self, v: u64) -> usize {
        match self {
            RunsView::Flat(c) => c.partition_point(|&x| x < v),
            RunsView::Runs(r) => {
                let i = r.values().partition_point(|&x| x < v);
                if i < r.run_count() {
                    r.run_start(i)
                } else {
                    r.len()
                }
            }
        }
    }

    /// Positions holding `value` (binary search — over the run headers on
    /// run-encoded input).
    pub fn eq_range(&self, value: u64) -> Range<usize> {
        match self {
            RunsView::Flat(c) => eq_range(c, value),
            RunsView::Runs(r) => r.eq_range_sorted(value),
        }
    }

    /// End (exclusive) of the maximal equal-value run containing `pos` —
    /// read off the headers in O(log runs) on run-encoded input.
    pub fn run_end_at(&self, pos: usize) -> usize {
        match self {
            RunsView::Flat(c) => pos + c[pos..].partition_point(|&x| x <= c[pos]),
            RunsView::Runs(r) => {
                let ri = r.run_ends().partition_point(|&e| (e as usize) <= pos);
                r.run_ends()[ri] as usize
            }
        }
    }

    /// Calls `f(value, rows)` for every maximal equal-value run inside
    /// `range`, in row order, clipped to the range: a linear walk on flat
    /// input, O(1) per run off the headers on run-encoded input (one
    /// binary search finds the first).
    pub fn for_each_run(&self, range: Range<usize>, mut f: impl FnMut(u64, Range<usize>)) {
        match self {
            RunsView::Flat(c) => {
                let mut i = range.start;
                while i < range.end {
                    let v = c[i];
                    let mut j = i + 1;
                    while j < range.end && c[j] == v {
                        j += 1;
                    }
                    f(v, i..j);
                    i = j;
                }
            }
            RunsView::Runs(r) => {
                let first = r
                    .run_ends()
                    .partition_point(|&e| (e as usize) <= range.start);
                for ri in first..r.run_count() {
                    let run = r.run_range(ri);
                    if run.start >= range.end {
                        break;
                    }
                    f(
                        r.values()[ri],
                        run.start.max(range.start)..run.end.min(range.end),
                    );
                }
            }
        }
    }

    /// The rows of `range` as a view of their own (positions restart at
    /// 0): flat input re-borrows, run-encoded input cuts its runs into
    /// `buf`.
    pub fn slice<'b>(self, range: Range<usize>, buf: &'b mut RunCol) -> RunsView<'b>
    where
        Self: 'b,
    {
        match self {
            RunsView::Flat(c) => RunsView::Flat(&c[range]),
            RunsView::Runs(r) => {
                *buf = r.slice(range);
                RunsView::Runs(buf)
            }
        }
    }
}

/// Merge equi-join over run views: matching `(left_pos, right_pos)` pairs
/// in **exactly** the [`merge_join`] order, but every run-encoded side
/// advances by whole runs (one tight comparison per run header instead of
/// one per row) and each matching run pair emits its run×match block
/// directly. Dispatches to a monomorphic kernel per side combination —
/// the per-run bookkeeping must stay as cheap as the flat kernel's
/// per-row step, or short runs would eat the walk savings.
pub fn merge_join_runs(left: RunsView<'_>, right: RunsView<'_>) -> (Vec<u32>, Vec<u32>) {
    match (left, right) {
        (RunsView::Runs(l), RunsView::Runs(r)) => merge_join_rr(l, r),
        (RunsView::Runs(l), RunsView::Flat(r)) => merge_join_rf(l, r),
        (RunsView::Flat(l), RunsView::Runs(r)) => merge_join_fr(l, r),
        (RunsView::Flat(l), RunsView::Flat(r)) => merge_join(l, r),
    }
}

/// Both sides run-encoded: the whole walk happens on run headers.
fn merge_join_rr(l: &RunCol, r: &RunCol) -> (Vec<u32>, Vec<u32>) {
    let (lv, le) = (l.values(), l.run_ends());
    let (rv, re) = (r.values(), r.run_ends());
    let cap = l.len().min(r.len());
    let mut left_sel = Vec::with_capacity(cap);
    let mut right_sel = Vec::with_capacity(cap);
    let (mut li, mut ri) = (0usize, 0usize);
    // Running run starts: no per-run lookups beyond the header arrays.
    let (mut ls, mut rs) = (0u32, 0u32);
    while li < lv.len() && ri < rv.len() {
        match lv[li].cmp(&rv[ri]) {
            std::cmp::Ordering::Less => {
                ls = le[li];
                li += 1;
            }
            std::cmp::Ordering::Greater => {
                rs = re[ri];
                ri += 1;
            }
            std::cmp::Ordering::Equal => {
                for a in ls..le[li] {
                    for b in rs..re[ri] {
                        left_sel.push(a);
                        right_sel.push(b);
                    }
                }
                ls = le[li];
                li += 1;
                rs = re[ri];
                ri += 1;
            }
        }
    }
    (left_sel, right_sel)
}

/// Left run-encoded, right flat: the left walk is per run header, the
/// right walk per row (with the same linear run detection [`merge_join`]
/// does on a match).
fn merge_join_rf(l: &RunCol, r: &[u64]) -> (Vec<u32>, Vec<u32>) {
    let (lv, le) = (l.values(), l.run_ends());
    let cap = l.len().min(r.len());
    let mut left_sel = Vec::with_capacity(cap);
    let mut right_sel = Vec::with_capacity(cap);
    let mut li = 0usize;
    let mut ls = 0u32;
    let mut rp = 0usize;
    while li < lv.len() && rp < r.len() {
        match lv[li].cmp(&r[rp]) {
            std::cmp::Ordering::Less => {
                ls = le[li];
                li += 1;
            }
            std::cmp::Ordering::Greater => rp += 1,
            std::cmp::Ordering::Equal => {
                let v = lv[li];
                let mut r_end = rp + 1;
                while r_end < r.len() && r[r_end] == v {
                    r_end += 1;
                }
                for a in ls..le[li] {
                    for b in rp..r_end {
                        left_sel.push(a);
                        right_sel.push(b as u32);
                    }
                }
                ls = le[li];
                li += 1;
                rp = r_end;
            }
        }
    }
    (left_sel, right_sel)
}

/// Left flat, right run-encoded — the mirror of [`merge_join_rf`], with
/// the left row loop kept outermost so the pair order matches
/// [`merge_join`] exactly.
fn merge_join_fr(l: &[u64], r: &RunCol) -> (Vec<u32>, Vec<u32>) {
    let (rv, re) = (r.values(), r.run_ends());
    let cap = l.len().min(r.len());
    let mut left_sel = Vec::with_capacity(cap);
    let mut right_sel = Vec::with_capacity(cap);
    let mut lp = 0usize;
    let mut ri = 0usize;
    let mut rs = 0u32;
    while lp < l.len() && ri < rv.len() {
        match l[lp].cmp(&rv[ri]) {
            std::cmp::Ordering::Less => lp += 1,
            std::cmp::Ordering::Greater => {
                rs = re[ri];
                ri += 1;
            }
            std::cmp::Ordering::Equal => {
                let v = l[lp];
                let mut l_end = lp + 1;
                while l_end < l.len() && l[l_end] == v {
                    l_end += 1;
                }
                for a in lp..l_end {
                    for b in rs..re[ri] {
                        left_sel.push(a as u32);
                        right_sel.push(b);
                    }
                }
                lp = l_end;
                rs = re[ri];
                ri += 1;
            }
        }
    }
    (left_sel, right_sel)
}

/// Run-based group-count over the rows of `range`, sorted by
/// `(lead, rest…)`; returns the key columns followed by the counts.
/// Equal keys are adjacent, so each group is one run — no hash table, no
/// output sort. The walk follows the lead column's value runs (read off
/// the headers when it is run-encoded) and sub-splits each on `rest`;
/// with no `rest` column a lead run *is* a group and its count is the run
/// length. `range` must start and end on lead-run boundaries.
pub fn group_count_sorted(
    lead: RunsView<'_>,
    rest: &[&[u64]],
    range: Range<usize>,
) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); rest.len() + 2];
    lead.for_each_run(range, |v, run| {
        let mut i = run.start;
        while i < run.end {
            let mut j = if rest.is_empty() { run.end } else { i + 1 };
            while j < run.end && rest.iter().all(|c| c[j] == c[i]) {
                j += 1;
            }
            out[0].push(v);
            for (o, c) in out[1..].iter_mut().zip(rest) {
                o.push(c[i]);
            }
            out[rest.len() + 1].push((j - i) as u64);
            i = j;
        }
    });
    out
}

/// Positions (relative to `range.start`) of the rows in `range` that
/// differ from the row before them — the first row of each run of equal
/// rows, i.e. duplicate elimination over input sorted so that equal rows
/// are adjacent. Row 0 has no predecessor and always counts; any other
/// range start is compared against the row just outside the range, so a
/// morsel split needs no alignment.
pub fn distinct_sorted(cols: &[&[u64]], range: Range<usize>) -> Vec<u32> {
    let base = range.start;
    range
        .filter(|&i| i == 0 || cols.iter().any(|c| c[i] != c[i - 1]))
        .map(|i| (i - base) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnEngine;
    use swans_plan::exec::QueryBudget;

    // The hash kernels have no sequential twin in this module any more:
    // their one body is the engine's morsel-parallel kernel, which these
    // helpers run at pool width 1.

    fn hash_join_pairs(l: &[u64], r: &[u64]) -> (Vec<u32>, Vec<u32>) {
        ColumnEngine::new()
            .par_hash_join(&QueryBudget::unlimited(), l, r)
            .expect("unlimited budget")
    }

    /// Key columns followed by the count column.
    fn group_count_hash(keys: &[&[u64]]) -> Vec<Vec<u64>> {
        let n = keys.first().map_or(0, |k| k.len());
        let out = ColumnEngine::new()
            .par_hash_group_count(&QueryBudget::unlimited(), keys, n)
            .expect("unlimited budget");
        (0..out.arity()).map(|c| out.col(c).to_vec()).collect()
    }

    fn distinct_hash(cols: &[&[u64]], len: usize) -> Vec<u32> {
        ColumnEngine::new()
            .par_distinct_hash(&QueryBudget::unlimited(), cols, len)
            .expect("unlimited budget")
    }

    /// [`group_count_sorted`] over a whole flat-lead input.
    fn group_count_sorted_flat(lead: &[u64], rest: &[&[u64]]) -> Vec<Vec<u64>> {
        group_count_sorted(RunsView::Flat(lead), rest, 0..lead.len())
    }

    #[test]
    fn select_cmp_eq_and_ne() {
        let col = [5, 1, 5, 2];
        assert_eq!(select_cmp(&col, 5, false), vec![0, 2]);
        assert_eq!(select_cmp(&col, 5, true), vec![1, 3]);
    }

    #[test]
    fn select_in_filters_by_set() {
        let col = [9, 1, 2, 9, 3];
        assert_eq!(select_in(&col, &[1, 3]), vec![1, 4]);
        assert_eq!(select_in(&col, &[]), Vec::<u32>::new());
    }

    /// The linear small-list path and the hash-set path agree at and
    /// around the crossover size.
    #[test]
    fn select_in_linear_and_hashed_paths_agree() {
        let col: Vec<u64> = (0..200).map(|i| i % 23).collect();
        for n in [1, 7, 8, 9, 16] {
            let values: Vec<u64> = (0..n as u64).map(|v| v * 3).collect();
            let want: Vec<u32> = col
                .iter()
                .enumerate()
                .filter(|&(_, v)| values.contains(v))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(select_in(&col, &values), want, "{n} values");
        }
    }

    #[test]
    fn hash_join_finds_all_pairs() {
        let l = [1, 2, 2, 3];
        let r = [2, 2, 4];
        let (ls, rs) = hash_join_pairs(&l, &r);
        let mut pairs: Vec<(u32, u32)> = ls.into_iter().zip(rs).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn merge_join_matches_hash_join() {
        let l = [1, 2, 2, 3, 7];
        let r = [0, 2, 2, 3, 3, 9];
        let (mls, mrs) = merge_join(&l, &r);
        let (hls, hrs) = hash_join_pairs(&l, &r);
        let mut m: Vec<(u32, u32)> = mls.into_iter().zip(mrs).collect();
        let mut h: Vec<(u32, u32)> = hls.into_iter().zip(hrs).collect();
        m.sort_unstable();
        h.sort_unstable();
        assert_eq!(m, h);
        assert_eq!(m.len(), 2 * 2 + 2);
    }

    /// A hash-partitioned build probed partition-by-key emits *exactly*
    /// the pair stream of the one-partition table — same pairs, same
    /// order — so the join's output does not depend on how the build
    /// side was split.
    #[test]
    fn partitioned_join_matches_joinhash_exactly() {
        let build: Vec<u64> = (0..500).map(|i| i % 37).collect();
        let probe: Vec<u64> = (0..300).map(|i| (i * 7) % 41).collect();
        let probe_all = |parts: &[JoinHashPartition], parts_log2: u32| {
            let (mut b, mut p) = (Vec::new(), Vec::new());
            for (j, &key) in probe.iter().enumerate() {
                parts[join_partition_of(key, parts_log2) as usize]
                    .probe_into(key, j as u32, &mut b, &mut p);
            }
            (b, p)
        };
        let whole = [JoinHashPartition::from_positions(
            &build,
            0..build.len() as u32,
        )];
        let want = probe_all(&whole, 0);
        // Independent anchor: every matching pair, each exactly once.
        let mut pairs: Vec<(u32, u32)> = want.0.iter().copied().zip(want.1.clone()).collect();
        pairs.sort_unstable();
        let mut nested = Vec::new();
        for (i, a) in build.iter().enumerate() {
            for (j, b) in probe.iter().enumerate() {
                if a == b {
                    nested.push((i as u32, j as u32));
                }
            }
        }
        assert_eq!(pairs, nested);
        for parts_log2 in [0u32, 1, 3] {
            let parts: Vec<JoinHashPartition> = (0..1u32 << parts_log2)
                .map(|w| {
                    JoinHashPartition::from_positions(
                        &build,
                        (0..build.len() as u32)
                            .filter(|&i| join_partition_of(build[i as usize], parts_log2) == w),
                    )
                })
                .collect();
            assert_eq!(
                parts.iter().map(JoinHashPartition::len).sum::<usize>(),
                build.len(),
                "every build row lands in exactly one partition"
            );
            assert_eq!(
                probe_all(&parts, parts_log2),
                want,
                "parts_log2 {parts_log2}"
            );
        }
        // A partition that received nothing still answers probes.
        let empty = JoinHashPartition::from_positions(&[], 0..0);
        assert!(empty.is_empty());
        let mut b = Vec::new();
        let mut p = Vec::new();
        empty.probe_into(1, 0, &mut b, &mut p);
        assert!(b.is_empty() && p.is_empty());
    }

    #[test]
    fn group_count_1_sorted_output() {
        let out = group_count_hash(&[&[3, 1, 3, 3, 1]]);
        assert_eq!(out, vec![vec![1, 3], vec![2, 3]]);
    }

    #[test]
    fn group_count_2_pairs() {
        let out = group_count_hash(&[&[1, 1, 2, 1], &[5, 5, 6, 7]]);
        assert_eq!(out, vec![vec![1, 1, 2], vec![5, 7, 6], vec![2, 1, 1]]);
    }

    #[test]
    fn group_count_sorted_1_matches_hash_path() {
        let keys = [1, 1, 1, 3, 5, 5];
        assert_eq!(
            group_count_sorted_flat(&keys, &[]),
            group_count_hash(&[&keys])
        );
        assert_eq!(group_count_sorted_flat(&[], &[]), vec![vec![], vec![]]);
        let uniform = [7u64; 10];
        assert_eq!(
            group_count_sorted_flat(&uniform, &[]),
            vec![vec![7], vec![10]]
        );
    }

    #[test]
    fn group_count_sorted_2_matches_hash_path() {
        let k0 = [1, 1, 1, 2, 2, 4];
        let k1 = [5, 5, 7, 0, 0, 9];
        assert_eq!(
            group_count_sorted_flat(&k0, &[&k1]),
            group_count_hash(&[&k0, &k1])
        );
        assert_eq!(
            group_count_sorted_flat(&[], &[&[]]),
            vec![vec![], vec![], vec![]]
        );
    }

    #[test]
    fn distinct_sorted_matches_sort_based_distinct() {
        let c0 = [1, 1, 2, 2, 2, 3];
        let c1 = [4, 4, 4, 5, 5, 5];
        let cols: [&[u64]; 2] = [&c0, &c1];
        let fast = distinct_sorted(&cols, 0..6);
        assert_eq!(fast, vec![0, 2, 3, 5]);
        // On sorted input the hash kernel's first occurrences are the
        // same positions.
        assert_eq!(fast, distinct_hash(&cols, 6));
        // A range compares its first row against the row before it, so
        // any split concatenates to the whole.
        for cut in 0..=6 {
            let mut split = distinct_sorted(&cols, 0..cut);
            split.extend(
                distinct_sorted(&cols, cut..6)
                    .iter()
                    .map(|&p| p + cut as u32),
            );
            assert_eq!(split, fast, "cut at {cut}");
        }
        assert!(distinct_sorted(&[], 0..0).is_empty());
    }

    #[test]
    fn distinct_rows_keeps_first_occurrence() {
        let c0 = [1, 1, 2, 1];
        let c1 = [9, 9, 8, 7];
        assert_eq!(distinct_hash(&[&c0, &c1], 4), vec![0, 2, 3]);
    }

    #[test]
    fn distinct_rows_empty() {
        assert!(distinct_hash(&[], 0).is_empty());
    }

    #[test]
    fn select_cmp_runs_matches_flat() {
        let flat = [5u64, 5, 1, 1, 1, 5, 2];
        let runs = RunCol::from_flat(&flat);
        for negate in [false, true] {
            for v in [0u64, 1, 2, 5] {
                assert_eq!(
                    select_cmp_runs(&runs, v, negate),
                    select_cmp(&flat, v, negate),
                    "value {v} negate {negate}"
                );
            }
        }
        assert!(select_cmp_runs(&RunCol::default(), 1, false).is_empty());
    }

    #[test]
    fn select_in_runs_matches_flat_on_both_probe_sizes() {
        let flat: Vec<u64> = (0..200).map(|i| (i / 7) % 23).collect();
        let runs = RunCol::from_flat(&flat);
        for n in [0usize, 3, 8, 9, 16] {
            let values: Vec<u64> = (0..n as u64).map(|v| v * 3).collect();
            assert_eq!(
                select_in_runs(&runs, &values),
                select_in(&flat, &values),
                "{n} probes"
            );
        }
    }

    #[test]
    fn select_in_sorted_matches_linear_select_in() {
        let mut col: Vec<u64> = (0..300).map(|i| (i * i) % 40).collect();
        col.sort_unstable();
        // Unsorted probe list with duplicates: output must still be the
        // ascending position vector of the linear kernel.
        let values = [9u64, 1, 30, 9, 250, 0];
        assert_eq!(
            select_in_sorted(RunsView::Flat(&col), &values),
            select_in(&col, &values)
        );
        let runs = RunCol::from_flat(&col);
        assert_eq!(
            select_in_sorted(RunsView::Runs(&runs), &values),
            select_in(&col, &values)
        );
        assert!(select_in_sorted(RunsView::Flat(&[]), &values).is_empty());
    }

    #[test]
    fn merge_join_runs_is_bit_identical_to_flat_merge_join() {
        let l: Vec<u64> = [1, 2, 2, 3, 7, 7, 7].to_vec();
        let r: Vec<u64> = [0, 2, 2, 3, 3, 7, 9].to_vec();
        let want = merge_join(&l, &r);
        let lr = RunCol::from_flat(&l);
        let rr = RunCol::from_flat(&r);
        for (name, got) in [
            (
                "rr",
                merge_join_runs(RunsView::Runs(&lr), RunsView::Runs(&rr)),
            ),
            (
                "rf",
                merge_join_runs(RunsView::Runs(&lr), RunsView::Flat(&r)),
            ),
            (
                "fr",
                merge_join_runs(RunsView::Flat(&l), RunsView::Runs(&rr)),
            ),
            (
                "ff",
                merge_join_runs(RunsView::Flat(&l), RunsView::Flat(&r)),
            ),
        ] {
            assert_eq!(got, want, "{name} differs (order matters)");
        }
        // Empty sides.
        let empty = RunCol::default();
        assert_eq!(
            merge_join_runs(RunsView::Runs(&empty), RunsView::Flat(&r)),
            (vec![], vec![])
        );
    }

    #[test]
    fn group_count_sorted_runs_reads_counts_off_run_lengths() {
        let flat = [1u64, 1, 1, 3, 5, 5];
        let runs = RunCol::from_flat(&flat);
        let got = group_count_sorted(RunsView::Runs(&runs), &[], 0..flat.len());
        assert_eq!(got, vec![vec![1, 3, 5], vec![3, 1, 2]]);
        assert_eq!(got, group_count_sorted_flat(&flat, &[]));
        // A sub-range clips the runs it cuts.
        assert_eq!(
            group_count_sorted(RunsView::Runs(&runs), &[], 1..5),
            vec![vec![1, 3, 5], vec![2, 1, 1]]
        );
        assert_eq!(
            group_count_sorted(RunsView::Runs(&RunCol::default()), &[], 0..0),
            vec![vec![], vec![]]
        );
    }

    #[test]
    fn group_count_sorted_2_runs_matches_flat_twin() {
        let k0 = [1u64, 1, 1, 2, 2, 4];
        let k1 = [5u64, 5, 7, 0, 0, 9];
        let runs = RunCol::from_flat(&k0);
        let got = group_count_sorted(RunsView::Runs(&runs), &[&k1], 0..k0.len());
        assert_eq!(
            got,
            vec![vec![1, 1, 2, 4], vec![5, 7, 0, 9], vec![2, 1, 2, 1]]
        );
        assert_eq!(got, group_count_sorted_flat(&k0, &[&k1]));
        assert_eq!(
            group_count_sorted(RunsView::Runs(&RunCol::default()), &[&[]], 0..0),
            vec![vec![], vec![], vec![]]
        );
    }

    #[test]
    fn runs_view_seek_and_run_end_agree_between_variants() {
        let flat = [1u64, 1, 4, 4, 4, 9];
        let runs = RunCol::from_flat(&flat);
        for from in 0..flat.len() {
            assert_eq!(
                RunsView::Runs(&runs).run_end_at(from),
                RunsView::Flat(&flat).run_end_at(from),
                "run_end_at({from})"
            );
        }
    }

    #[test]
    fn runs_view_lower_bound_agrees_between_variants() {
        let flat = [1u64, 1, 4, 4, 4, 9];
        let runs = RunCol::from_flat(&flat);
        for v in 0..11 {
            assert_eq!(
                RunsView::Runs(&runs).lower_bound(v),
                RunsView::Flat(&flat).lower_bound(v),
                "value {v}"
            );
        }
        assert_eq!(RunsView::Runs(&runs).value_at(3), 4);
        assert!(RunsView::Runs(&runs).is_runs());
        assert!(!RunsView::Flat(&flat).is_runs());
    }
}

/// Seeded property sweeps over the kernels, each against an independent
/// reference (nested loops, `BTreeMap` counts, `BTreeSet` rows) — the
/// offline stand-in for a property-testing crate.
#[cfg(test)]
mod properties {
    use super::*;
    use crate::ColumnEngine;
    use std::collections::{BTreeMap, BTreeSet};
    use swans_plan::exec::QueryBudget;

    /// Cases per property; the interpreter gets a token sweep.
    const CASES: usize = if cfg!(miri) { 6 } else { 256 };

    /// Tiny deterministic RNG (xorshift64*).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        /// `0..max_len` values below `space`.
        fn values(&mut self, space: u64, max_len: u64) -> Vec<u64> {
            (0..self.below(max_len))
                .map(|_| self.below(space))
                .collect()
        }
        /// A run-shaped column: up to `max_runs` runs of 1..`max_run`
        /// copies of a value below `space`.
        fn run_shaped(&mut self, space: u64, max_runs: u64, max_run: u64) -> Vec<u64> {
            let mut out = Vec::new();
            for _ in 0..self.below(max_runs) {
                let v = self.below(space);
                out.extend(std::iter::repeat_n(v, 1 + self.below(max_run) as usize));
            }
            out
        }
        /// Up to `max_len` two-column rows over a small value space.
        fn pairs(&mut self, max_len: u64) -> Vec<(u64, u64)> {
            (0..self.below(max_len))
                .map(|_| (self.below(8), self.below(8)))
                .collect()
        }
    }

    fn unzip(rows: &[(u64, u64)]) -> (Vec<u64>, Vec<u64>) {
        rows.iter().copied().unzip()
    }

    fn sorted_pairs((l, r): (Vec<u32>, Vec<u32>)) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = l.into_iter().zip(r).collect();
        pairs.sort_unstable();
        pairs
    }

    fn nested_loop_join(l: &[u64], r: &[u64]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, a) in l.iter().enumerate() {
            for (j, b) in r.iter().enumerate() {
                if a == b {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// `BTreeMap` group counts, as key columns followed by the counts.
    fn btree_counts(rows: &[Vec<u64>], arity: usize) -> Vec<Vec<u64>> {
        let mut counts: BTreeMap<&[u64], u64> = BTreeMap::new();
        for r in rows {
            *counts.entry(r).or_insert(0) += 1;
        }
        let mut out = vec![Vec::new(); arity + 1];
        for (k, c) in counts {
            for (o, &v) in out.iter_mut().zip(k) {
                o.push(v);
            }
            out[arity].push(c);
        }
        out
    }

    /// Merge join ≡ hash join ≡ nested loops on arbitrary sorted data.
    #[test]
    fn join_kernels_agree() {
        let mut rng = Rng(0x5EED_0001);
        let engine = ColumnEngine::new();
        for _ in 0..CASES {
            let mut l = rng.values(30, 120);
            let mut r = rng.values(30, 120);
            l.sort_unstable();
            r.sort_unstable();
            let nested = nested_loop_join(&l, &r);
            assert_eq!(sorted_pairs(merge_join(&l, &r)), nested);
            let hashed = engine
                .par_hash_join(&QueryBudget::unlimited(), &l, &r)
                .expect("unlimited budget");
            assert_eq!(sorted_pairs(hashed), nested);
        }
    }

    /// Hash distinct keeps exactly one position per distinct row — the
    /// first.
    #[test]
    fn distinct_matches_reference() {
        let mut rng = Rng(0x5EED_0002);
        let engine = ColumnEngine::new();
        for _ in 0..CASES {
            let rows = rng.pairs(150);
            let (c0, c1) = unzip(&rows);
            let sel = engine
                .par_distinct_hash(&QueryBudget::unlimited(), &[&c0, &c1], rows.len())
                .expect("unlimited budget");
            let mut seen = BTreeSet::new();
            let want: Vec<u32> = (0..rows.len() as u32)
                .filter(|&i| seen.insert(rows[i as usize]))
                .collect();
            assert_eq!(sel, want);
        }
    }

    /// The sorted kernels match `BTreeMap` counts / `BTreeSet` rows on
    /// sorted input.
    #[test]
    fn sorted_kernels_match_reference() {
        let mut rng = Rng(0x5EED_0003);
        for _ in 0..CASES {
            let mut rows = rng.pairs(200);
            rows.sort_unstable();
            let (k0, k1) = unzip(&rows);
            let rows1: Vec<Vec<u64>> = k0.iter().map(|&a| vec![a]).collect();
            let rows2: Vec<Vec<u64>> = rows.iter().map(|&(a, b)| vec![a, b]).collect();
            let all = 0..rows.len();
            assert_eq!(
                group_count_sorted(RunsView::Flat(&k0), &[], all.clone()),
                btree_counts(&rows1, 1)
            );
            assert_eq!(
                group_count_sorted(RunsView::Flat(&k0), &[&k1], all.clone()),
                btree_counts(&rows2, 2)
            );
            let distinct: Vec<(u64, u64)> = distinct_sorted(&[&k0, &k1], all)
                .iter()
                .map(|&i| rows[i as usize])
                .collect();
            let want: BTreeSet<(u64, u64)> = rows.iter().copied().collect();
            assert_eq!(distinct, want.into_iter().collect::<Vec<_>>());
        }
    }

    /// Hash group-counts match `BTreeMap` counts at every key width (one
    /// per packed-key type), sum to the input length and come out
    /// strictly key-ascending.
    #[test]
    fn group_counts_sum_to_len() {
        let mut rng = Rng(0x5EED_0004);
        let engine = ColumnEngine::new();
        for case in 0..CASES {
            let arity = [1, 2, 3, 5][case % 4];
            let n = rng.below(200) as usize;
            let cols: Vec<Vec<u64>> = (0..arity)
                .map(|_| (0..n).map(|_| rng.below(4)).collect())
                .collect();
            let views: Vec<&[u64]> = cols.iter().map(Vec::as_slice).collect();
            let out = engine
                .par_hash_group_count(&QueryBudget::unlimited(), &views, n)
                .expect("unlimited budget");
            let got: Vec<Vec<u64>> = (0..out.arity()).map(|c| out.col(c).to_vec()).collect();
            let rows: Vec<Vec<u64>> = (0..n)
                .map(|i| cols.iter().map(|c| c[i]).collect())
                .collect();
            assert_eq!(got, btree_counts(&rows, arity), "arity {arity}");
            assert_eq!(got[arity].iter().sum::<u64>() as usize, n);
        }
    }

    /// RunCol round-trips arbitrary run-shaped data, through slices and
    /// monotone gathers included.
    #[test]
    fn runcol_roundtrips() {
        let mut rng = Rng(0x5EED_0005);
        for _ in 0..CASES {
            let flat = rng.run_shaped(12, 60, 5);
            let runs = RunCol::from_flat(&flat);
            assert_eq!(runs.expand(), flat);
            assert!(runs.run_count() <= flat.len());
            if !flat.is_empty() {
                let mid = flat.len() / 2;
                assert_eq!(runs.slice(0..mid).expand(), flat[..mid].to_vec());
                assert_eq!(runs.slice(mid..flat.len()).expand(), flat[mid..].to_vec());
                let sel: Vec<u32> = (0..flat.len() as u32).step_by(2).collect();
                let want: Vec<u64> = sel.iter().map(|&i| flat[i as usize]).collect();
                assert_eq!(runs.gather(&sel).expand(), want);
            }
        }
    }

    /// Run-aware and sorted selection kernels are bit-identical to a
    /// plain position filter on random run-shaped inputs.
    #[test]
    fn run_select_kernels_match_flat_twins() {
        let mut rng = Rng(0x5EED_0006);
        let positions = |col: &[u64], keep: &dyn Fn(u64) -> bool| -> Vec<u32> {
            (0..col.len() as u32)
                .filter(|&i| keep(col[i as usize]))
                .collect()
        };
        for _ in 0..CASES {
            let flat = rng.run_shaped(8, 50, 4);
            let probes = rng.values(10, 12);
            let value = rng.below(10);
            let negate = rng.below(2) == 1;
            let runs = RunCol::from_flat(&flat);
            let cmp = positions(&flat, &|v| (v == value) != negate);
            assert_eq!(select_cmp(&flat, value, negate), cmp);
            assert_eq!(select_cmp_runs(&runs, value, negate), cmp);
            let member = positions(&flat, &|v| probes.contains(&v));
            assert_eq!(select_in(&flat, &probes), member);
            assert_eq!(select_in_runs(&runs, &probes), member);
            // Sorted variants need a sorted column.
            let mut sorted = flat.clone();
            sorted.sort_unstable();
            let sorted_runs = RunCol::from_flat(&sorted);
            let member = positions(&sorted, &|v| probes.contains(&v));
            assert_eq!(select_in_sorted(RunsView::Flat(&sorted), &probes), member);
            assert_eq!(
                select_in_sorted(RunsView::Runs(&sorted_runs), &probes),
                member
            );
        }
    }

    /// The run-view merge join emits one pair stream on every flat/runs
    /// side combination — the nested-loop pairs, in (left, right) order.
    #[test]
    fn merge_join_runs_matches_flat() {
        let mut rng = Rng(0x5EED_0007);
        for _ in 0..CASES {
            let mut l = rng.run_shaped(10, 30, 3);
            let mut r = rng.run_shaped(10, 30, 3);
            l.sort_unstable();
            r.sort_unstable();
            let (lr, rr) = (RunCol::from_flat(&l), RunCol::from_flat(&r));
            // Sorted inputs: nested loops already emit in merge order.
            let want = nested_loop_join(&l, &r);
            for (lv, rv) in [
                (RunsView::Flat(&l), RunsView::Flat(&r)),
                (RunsView::Runs(&lr), RunsView::Runs(&rr)),
                (RunsView::Runs(&lr), RunsView::Flat(&r)),
                (RunsView::Flat(&l), RunsView::Runs(&rr)),
            ] {
                let (ls, rs) = merge_join_runs(lv, rv);
                let got: Vec<(u32, u32)> = ls.into_iter().zip(rs).collect();
                assert_eq!(got, want, "{lv:?} x {rv:?}");
            }
        }
    }

    /// Run-based aggregation reads counts off run lengths: a run-encoded
    /// lead column answers like `BTreeMap` counts, whole and per range.
    #[test]
    fn run_group_counts_match_flat() {
        let mut rng = Rng(0x5EED_0008);
        for _ in 0..CASES {
            let mut rows = rng.pairs(150);
            rows.sort_unstable();
            let (k0, k1) = unzip(&rows);
            let runs0 = RunCol::from_flat(&k0);
            let rows1: Vec<Vec<u64>> = k0.iter().map(|&a| vec![a]).collect();
            let rows2: Vec<Vec<u64>> = rows.iter().map(|&(a, b)| vec![a, b]).collect();
            // Any lead-run boundary is a legal range edge.
            let cut = runs0.run_count() / 2;
            let mid = if cut == 0 { 0 } else { runs0.run_start(cut) };
            for range in [0..rows.len(), 0..mid, mid..rows.len()] {
                assert_eq!(
                    group_count_sorted(RunsView::Runs(&runs0), &[], range.clone()),
                    btree_counts(&rows1[range.clone()], 1)
                );
                assert_eq!(
                    group_count_sorted(RunsView::Runs(&runs0), &[&k1], range.clone()),
                    btree_counts(&rows2[range], 2)
                );
            }
        }
    }
}
