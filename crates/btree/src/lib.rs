//! # swans-btree
//!
//! A read-optimized, bulk-loaded B+tree over rows of `u64` columns, backed
//! by the [`swans_storage`] buffer pool for I/O accounting.
//!
//! This is the index substrate of the row-store engine (the paper's "DBX"
//! stand-in). The paper's benchmark keeps loading and index construction
//! outside the measured window ("the database loading, clustering and index
//! construction are all kept outside the scope of the benchmark", §2.3), so
//! the tree is *bulk-load-first*: built once, then probed and scanned — but
//! since the write path opened the update workload it also supports in-place
//! maintenance ([`BTree::insert_row`], [`BTree::remove_prefix`]), charging
//! each mutation a descent plus a leaf write and resizing its segments as
//! leaves split or empty.
//!
//! Design notes:
//!
//! * Rows are stored sorted in a flat arena; leaves are the arena split
//!   into page-sized runs, so leaf `i` *is* page `i` of the leaf segment.
//!   Interior nodes are not materialized — only their page *count* and
//!   shape matter for I/O accounting, so probes charge the node pages a
//!   real tree of the same fanout would touch.
//! * [`BTreeOptions::prefix_compressed`] models key-prefix compression of
//!   the leading key column (§4.1: *"mature B+tree implementations support
//!   key-prefix compression, thus in practice not storing the entire
//!   property column"*). It increases leaf capacity, which is exactly the
//!   benefit PSO clustering gets in the paper.
//! * A probe binary-searches the arena (CPU) and charges one page touch per
//!   interior level plus the touched leaves during the scan.

use std::ops::Range;

use swans_storage::{SegmentId, StorageManager, PAGE_SIZE};

/// Tuning options for a [`BTree`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BTreeOptions {
    /// Model key-prefix compression of the leading (clustering) column.
    ///
    /// The effect is *adaptive*: the leading column's storage cost is
    /// `min(8 bytes per entry, 16 bytes per distinct run)`, so a
    /// low-cardinality leading column (property under PSO: a few hundred
    /// runs) nearly vanishes, while a high-cardinality one (subject under
    /// SPO: almost all runs length 1) gains nothing. This mirrors how real
    /// key-prefix compression behaves on the two clusterings the paper
    /// compares.
    pub prefix_compressed: bool,
}

/// A static, bulk-loaded B+tree over fixed-arity `u64` rows, sorted
/// lexicographically.
#[derive(Debug, Clone)]
pub struct BTree {
    arity: usize,
    /// Row-major sorted data, `n_rows * arity` words.
    data: Vec<u64>,
    n_rows: usize,
    entries_per_leaf: usize,
    fanout: usize,
    leaf_segment: SegmentId,
    node_segment: SegmentId,
    /// Interior levels, top-down: (first page in node segment, page count).
    levels: Vec<(u32, u32)>,
    storage: StorageManager,
}

impl BTree {
    /// Bulk-loads `rows` (a flat, row-major buffer of `n * arity` words)
    /// into a new tree registered with `storage` under `name`.
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of `arity`, or `arity == 0`.
    pub fn bulk_load(
        storage: &StorageManager,
        name: &str,
        arity: usize,
        mut rows: Vec<u64>,
        opts: BTreeOptions,
    ) -> Self {
        assert!(arity > 0, "arity must be positive");
        assert_eq!(rows.len() % arity, 0, "rows buffer must be row-aligned");
        let n_rows = rows.len() / arity;

        sort_rows(&mut rows, arity);

        let row_bytes = if opts.prefix_compressed && n_rows > 0 {
            // Adaptive: charge the leading column 16 bytes per run
            // (value + count), capped at its uncompressed cost.
            let mut runs = 1u64;
            for i in 1..n_rows {
                if rows[i * arity] != rows[(i - 1) * arity] {
                    runs += 1;
                }
            }
            let lead_bytes = (16 * runs).min(8 * n_rows as u64);
            ((arity - 1) * 8) + (lead_bytes.div_ceil(n_rows as u64) as usize).max(1)
        } else {
            arity * 8
        };
        let entries_per_leaf = (PAGE_SIZE / row_bytes).max(1);
        // Interior entry: separator key (compressed like the leaves) + child
        // pointer.
        let fanout = (PAGE_SIZE / (row_bytes + 8)).max(2);

        let (n_leaves, levels, total_node_pages) = tree_shape(n_rows, entries_per_leaf, fanout);
        let leaf_segment =
            storage.create_segment(format!("{name}/leaf"), n_leaves as u64 * PAGE_SIZE as u64);
        let node_segment = storage.create_segment(
            format!("{name}/nodes"),
            total_node_pages.max(1) as u64 * PAGE_SIZE as u64,
        );

        Self {
            arity,
            data: rows,
            n_rows,
            entries_per_leaf,
            fanout,
            leaf_segment,
            node_segment,
            levels,
            storage: storage.clone(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the tree holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Number of key columns per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of leaf pages.
    pub fn leaf_pages(&self) -> u32 {
        self.storage.segment_pages(self.leaf_segment)
    }

    /// Tree height in interior levels (0 when a single leaf).
    pub fn interior_levels(&self) -> usize {
        self.levels.len()
    }

    /// The row at `idx`, **without** I/O accounting (internal/test use).
    #[inline]
    pub fn row(&self, idx: usize) -> &[u64] {
        &self.data[idx * self.arity..(idx + 1) * self.arity]
    }

    /// The row at `idx`, touching its leaf page (a scattered fetch, as done
    /// when resolving a secondary-index locator).
    pub fn fetch_row(&self, idx: usize) -> &[u64] {
        let page = (idx / self.entries_per_leaf) as u32;
        self.storage.touch_page(self.leaf_segment, page);
        self.row(idx)
    }

    /// First row index whose key-prefix is `>= prefix` (binary search).
    fn lower_bound(&self, prefix: &[u64]) -> usize {
        let mut lo = 0usize;
        let mut hi = self.n_rows;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if compare_prefix(self.row(mid), prefix).is_lt() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// First row index whose key-prefix is `> prefix`.
    fn upper_bound(&self, prefix: &[u64]) -> usize {
        let mut lo = 0usize;
        let mut hi = self.n_rows;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if compare_prefix(self.row(mid), prefix).is_gt() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Charges the interior node pages a root-to-leaf descent to
    /// `leaf_of(row_idx)` would touch.
    fn charge_descent(&self, row_idx: usize) {
        if self.levels.is_empty() {
            return;
        }
        let leaf = (row_idx.min(self.n_rows.saturating_sub(1)) / self.entries_per_leaf) as u32;
        // At the level directly above the leaves, `fanout` leaves share a
        // page; one more level up, `fanout^2` share a page, and so on.
        let mut divisor = 1u64;
        // levels is top-down; walk bottom-up for the divisor arithmetic.
        for (offset, pages) in self.levels.iter().rev() {
            divisor *= self.fanout as u64;
            let page = (leaf as u64 / divisor).min(*pages as u64 - 1) as u32;
            self.storage.touch_page(self.node_segment, offset + page);
        }
    }

    /// Looks up the contiguous row range whose leading columns equal
    /// `prefix`, charging one interior descent. Iterating the returned
    /// range via [`BTree::scan`] charges the leaf pages.
    pub fn probe(&self, prefix: &[u64]) -> Range<usize> {
        debug_assert!(prefix.len() <= self.arity);
        let start = self.lower_bound(prefix);
        let end = self.upper_bound(prefix);
        self.charge_descent(start);
        start..end
    }

    /// The full row range (a clustered full-table scan target).
    pub fn full_range(&self) -> Range<usize> {
        0..self.n_rows
    }

    /// Streams rows in `range`, touching each leaf page as it is entered.
    pub fn scan(&self, range: Range<usize>) -> Scan<'_> {
        Scan {
            tree: self,
            next: range.start,
            end: range.end.min(self.n_rows),
            current_page: u32::MAX,
        }
    }

    /// Convenience: probe + scan.
    pub fn scan_prefix(&self, prefix: &[u64]) -> Scan<'_> {
        let r = self.probe(prefix);
        self.scan(r)
    }

    /// Inserts `row` at its sorted position (after any equal rows) and
    /// returns that position.
    ///
    /// Charges one interior descent plus one leaf-page write; when the
    /// insertion grows the leaf count, the segments are resized (a page
    /// split). This is the write path the bulk-load-only seed lacked — the
    /// per-index maintenance cost every mutation pays on a row store.
    ///
    /// # Panics
    /// Panics if `row.len() != arity`.
    pub fn insert_row(&mut self, row: &[u64]) -> usize {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        let pos = self.upper_bound(row);
        self.data
            .splice(pos * self.arity..pos * self.arity, row.iter().copied());
        self.n_rows += 1;
        self.charge_descent(pos);
        self.sync_footprint();
        let leaf = ((pos / self.entries_per_leaf) as u32).min(self.leaf_pages() - 1);
        self.storage.write_page(self.leaf_segment, leaf);
        pos
    }

    /// Removes every row whose leading columns equal `prefix` (the whole
    /// row for a full-arity prefix), returning the range of positions the
    /// rows occupied before removal.
    ///
    /// Charges one interior descent plus one leaf-page write when rows
    /// were removed; shrinking segments are resized.
    pub fn remove_prefix(&mut self, prefix: &[u64]) -> Range<usize> {
        let range = self.probe(prefix);
        if range.is_empty() {
            return range;
        }
        self.data
            .drain(range.start * self.arity..range.end * self.arity);
        self.n_rows -= range.len();
        self.sync_footprint();
        if self.leaf_pages() > 0 {
            let leaf = ((range.start / self.entries_per_leaf) as u32).min(self.leaf_pages() - 1);
            self.storage.write_page(self.leaf_segment, leaf);
        }
        range
    }

    /// Adjusts every value of column `col` that is `>= from` by `delta` —
    /// the TID fixup a secondary index needs after the clustered tree
    /// shifted row positions underneath its locators. Pure in-memory
    /// bookkeeping; the touched leaves are charged by the caller's
    /// insert/remove, not here.
    pub fn shift_column_tail(&mut self, col: usize, from: u64, delta: i64) {
        debug_assert!(col < self.arity);
        for r in 0..self.n_rows {
            let v = &mut self.data[r * self.arity + col];
            if *v >= from {
                *v = v.wrapping_add_signed(delta);
            }
        }
    }

    /// Re-derives leaf and interior page counts from the current row count
    /// after an insert or remove, resizing the backing segments when the
    /// shape changed.
    fn sync_footprint(&mut self) {
        let (n_leaves, levels, total_node_pages) =
            tree_shape(self.n_rows, self.entries_per_leaf, self.fanout);
        if n_leaves != self.storage.segment_pages(self.leaf_segment) {
            self.storage
                .resize_segment(self.leaf_segment, n_leaves as u64 * PAGE_SIZE as u64);
        }
        if total_node_pages.max(1) != self.storage.segment_pages(self.node_segment) {
            self.storage.resize_segment(
                self.node_segment,
                total_node_pages.max(1) as u64 * PAGE_SIZE as u64,
            );
        }
        self.levels = levels;
    }
}

/// The page shape of a tree holding `n_rows` rows: leaf-page count,
/// interior levels top-down as `(first page offset, page count)`, and the
/// total interior page count. Shared by [`BTree::bulk_load`] and the
/// insert/remove resize path so probes always charge the same tree shape
/// the segments hold.
fn tree_shape(
    n_rows: usize,
    entries_per_leaf: usize,
    fanout: usize,
) -> (u32, Vec<(u32, u32)>, u32) {
    let n_leaves = n_rows.div_ceil(entries_per_leaf).max(1) as u32;
    let mut levels_bottom_up: Vec<u32> = Vec::new();
    let mut count = n_leaves;
    while count > 1 {
        count = count.div_ceil(fanout as u32);
        levels_bottom_up.push(count);
    }
    let total_node_pages: u32 = levels_bottom_up.iter().sum();
    let mut levels = Vec::with_capacity(levels_bottom_up.len());
    let mut offset = 0u32;
    for &pages in levels_bottom_up.iter().rev() {
        levels.push((offset, pages));
        offset += pages;
    }
    (n_leaves, levels, total_node_pages)
}

/// Streaming row iterator over a [`BTree`] range.
pub struct Scan<'a> {
    tree: &'a BTree,
    next: usize,
    end: usize,
    current_page: u32,
}

impl<'a> Iterator for Scan<'a> {
    type Item = &'a [u64];

    #[inline]
    fn next(&mut self) -> Option<&'a [u64]> {
        if self.next >= self.end {
            return None;
        }
        let page = (self.next / self.tree.entries_per_leaf) as u32;
        if page != self.current_page {
            self.tree.storage.touch_page(self.tree.leaf_segment, page);
            self.current_page = page;
        }
        let row = self.tree.row(self.next);
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Scan<'_> {}

/// Lexicographic comparison of a row against a (possibly shorter) prefix.
#[inline]
fn compare_prefix(row: &[u64], prefix: &[u64]) -> std::cmp::Ordering {
    for (a, b) in row.iter().zip(prefix.iter()) {
        match a.cmp(b) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// Sorts a flat row-major buffer lexicographically by row.
fn sort_rows(rows: &mut Vec<u64>, arity: usize) {
    let n = rows.len() / arity;
    if n <= 1 {
        return;
    }
    // Sort an index permutation, then gather. Avoids unstable slice tricks
    // and keeps the sort allocation transient.
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_unstable_by(|&a, &b| {
        let ra = &rows[a as usize * arity..(a as usize + 1) * arity];
        let rb = &rows[b as usize * arity..(b as usize + 1) * arity];
        ra.cmp(rb)
    });
    let mut out = Vec::with_capacity(rows.len());
    for i in idx {
        out.extend_from_slice(&rows[i as usize * arity..(i as usize + 1) * arity]);
    }
    *rows = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use swans_storage::MachineProfile;

    fn mgr() -> StorageManager {
        StorageManager::new(MachineProfile::B)
    }

    fn flat(rows: &[[u64; 3]]) -> Vec<u64> {
        rows.iter().flatten().copied().collect()
    }

    #[test]
    fn bulk_load_sorts_rows() {
        let m = mgr();
        let t = BTree::bulk_load(
            &m,
            "t",
            3,
            flat(&[[3, 0, 0], [1, 2, 3], [1, 1, 9], [2, 5, 5]]),
            BTreeOptions::default(),
        );
        let rows: Vec<&[u64]> = t.scan(t.full_range()).collect();
        assert_eq!(
            rows,
            vec![&[1, 1, 9][..], &[1, 2, 3], &[2, 5, 5], &[3, 0, 0]]
        );
    }

    #[test]
    fn probe_finds_prefix_ranges() {
        let m = mgr();
        let t = BTree::bulk_load(
            &m,
            "t",
            3,
            flat(&[[1, 1, 1], [1, 2, 1], [1, 2, 2], [2, 1, 1], [3, 3, 3]]),
            BTreeOptions::default(),
        );
        assert_eq!(t.probe(&[1]), 0..3);
        assert_eq!(t.probe(&[1, 2]), 1..3);
        assert_eq!(t.probe(&[1, 2, 2]), 2..3);
        assert_eq!(t.probe(&[9]), 5..5);
        assert_eq!(t.probe(&[0]), 0..0);
    }

    #[test]
    fn scan_touches_each_leaf_page_once() {
        let m = mgr();
        // 8192/24 = 341 rows per (uncompressed) leaf; 1000 rows = 3 leaves.
        let rows: Vec<u64> = (0..1000u64).flat_map(|i| [i, i, i]).collect();
        let t = BTree::bulk_load(&m, "t", 3, rows, BTreeOptions::default());
        assert_eq!(t.leaf_pages(), 3);
        m.reset_stats();
        m.clear_pool();
        let n = t.scan(t.full_range()).count();
        assert_eq!(n, 1000);
        assert_eq!(m.stats().bytes_read, 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn prefix_compression_increases_leaf_capacity() {
        let m = mgr();
        let rows: Vec<u64> = (0..10_000u64).flat_map(|i| [5, i, i]).collect();
        let plain = BTree::bulk_load(&m, "p", 3, rows.clone(), BTreeOptions::default());
        let comp = BTree::bulk_load(
            &m,
            "c",
            3,
            rows,
            BTreeOptions {
                prefix_compressed: true,
            },
        );
        assert!(comp.leaf_pages() < plain.leaf_pages());
    }

    /// Compression is adaptive: a unique leading column (SPO-style) gains
    /// nothing, while a low-cardinality one (PSO-style) shrinks.
    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn prefix_compression_is_adaptive() {
        let m = mgr();
        let opts = BTreeOptions {
            prefix_compressed: true,
        };
        // Leading column all-distinct: every entry is its own run.
        let unique: Vec<u64> = (0..10_000u64).flat_map(|i| [i, 0, 0]).collect();
        let u_plain = BTree::bulk_load(&m, "u0", 3, unique.clone(), BTreeOptions::default());
        let u_comp = BTree::bulk_load(&m, "u1", 3, unique, opts);
        assert_eq!(u_comp.leaf_pages(), u_plain.leaf_pages());

        // Leading column with 10 runs: close to dropping a whole column.
        let runs: Vec<u64> = (0..10_000u64).flat_map(|i| [i / 1000, i, 0]).collect();
        let r_plain = BTree::bulk_load(&m, "r0", 3, runs.clone(), BTreeOptions::default());
        let r_comp = BTree::bulk_load(&m, "r1", 3, runs, opts);
        assert!(r_comp.leaf_pages() < r_plain.leaf_pages());
    }

    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn probe_charges_interior_descent() {
        let m = mgr();
        let rows: Vec<u64> = (0..200_000u64).flat_map(|i| [i % 7, i, i]).collect();
        let t = BTree::bulk_load(&m, "t", 3, rows, BTreeOptions::default());
        assert!(t.interior_levels() >= 1);
        m.reset_stats();
        m.clear_pool();
        let _ = t.probe(&[3]);
        let s = m.stats();
        assert_eq!(
            s.bytes_read,
            t.interior_levels() as u64 * PAGE_SIZE as u64,
            "a probe reads one interior page per level and no leaves"
        );
    }

    #[test]
    fn fetch_row_touches_single_leaf() {
        let m = mgr();
        let rows: Vec<u64> = (0..1000u64).flat_map(|i| [i, i, i]).collect();
        let t = BTree::bulk_load(&m, "t", 3, rows, BTreeOptions::default());
        m.reset_stats();
        m.clear_pool();
        assert_eq!(t.fetch_row(999), &[999, 999, 999]);
        assert_eq!(m.stats().bytes_read, PAGE_SIZE as u64);
    }

    #[test]
    fn empty_tree_behaves() {
        let m = mgr();
        let t = BTree::bulk_load(&m, "e", 3, vec![], BTreeOptions::default());
        assert!(t.is_empty());
        assert_eq!(t.probe(&[1]), 0..0);
        assert_eq!(t.scan(t.full_range()).count(), 0);
    }

    #[test]
    fn insert_keeps_sort_order_and_grows_segments() {
        let m = mgr();
        let rows: Vec<u64> = (0..1000u64).flat_map(|i| [i * 2, i, i]).collect();
        let mut t = BTree::bulk_load(&m, "t", 3, rows, BTreeOptions::default());
        let pages_before = t.leaf_pages();
        m.reset_stats();
        let pos = t.insert_row(&[5, 9, 9]);
        assert_eq!(pos, 3, "5 lands after 0,2,4");
        assert_eq!(t.len(), 1001);
        let got: Vec<Vec<u64>> = t.scan(t.full_range()).map(|r| r.to_vec()).collect();
        assert!(got.windows(2).all(|w| w[0] <= w[1]), "still sorted");
        assert!(
            m.stats().bytes_written >= PAGE_SIZE as u64,
            "leaf write charged"
        );
        // Enough inserts force a leaf split (segment growth).
        for i in 0..400u64 {
            t.insert_row(&[i, 0, 0]);
        }
        assert!(t.leaf_pages() > pages_before);
    }

    #[test]
    fn remove_prefix_removes_all_matches() {
        let m = mgr();
        let mut t = BTree::bulk_load(
            &m,
            "d",
            2,
            vec![7, 1, 7, 2, 7, 2, 8, 1],
            BTreeOptions::default(),
        );
        // Full-row prefix removes every copy of exactly that row.
        let r = t.remove_prefix(&[7, 2]);
        assert_eq!(r, 1..3);
        assert_eq!(t.len(), 2);
        // Missing row: empty range, nothing changes.
        assert!(t.remove_prefix(&[9, 9]).is_empty());
        let got: Vec<Vec<u64>> = t.scan(t.full_range()).map(|r| r.to_vec()).collect();
        assert_eq!(got, vec![vec![7, 1], vec![8, 1]]);
    }

    #[test]
    fn shift_column_tail_adjusts_locators() {
        let m = mgr();
        let mut t = BTree::bulk_load(
            &m,
            "s",
            2,
            vec![10, 0, 20, 1, 30, 2],
            BTreeOptions::default(),
        );
        t.shift_column_tail(1, 1, 5);
        let got: Vec<Vec<u64>> = t.scan(t.full_range()).map(|r| r.to_vec()).collect();
        assert_eq!(got, vec![vec![10, 0], vec![20, 6], vec![30, 7]]);
        t.shift_column_tail(1, 6, -1);
        let got: Vec<Vec<u64>> = t.scan(t.full_range()).map(|r| r.to_vec()).collect();
        assert_eq!(got, vec![vec![10, 0], vec![20, 5], vec![30, 6]]);
    }

    #[test]
    fn insert_into_empty_tree() {
        let m = mgr();
        let mut t = BTree::bulk_load(&m, "e", 2, vec![], BTreeOptions::default());
        assert_eq!(t.insert_row(&[4, 2]), 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.probe(&[4]), 0..1);
    }

    #[test]
    fn duplicate_keys_all_returned() {
        let m = mgr();
        let t = BTree::bulk_load(
            &m,
            "d",
            2,
            vec![7, 1, 7, 2, 7, 3, 8, 1],
            BTreeOptions::default(),
        );
        let hits: Vec<&[u64]> = t.scan_prefix(&[7]).collect();
        assert_eq!(hits.len(), 3);
    }

    /// Tiny deterministic RNG (xorshift64*), the workspace's offline
    /// stand-in for a property-testing generator.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }
    }

    /// Seeded cases per property (few under Miri, which is ~1000× slower).
    const CASES: u64 = if cfg!(miri) { 3 } else { 128 };

    /// Probe ranges agree with a filtered sorted reference for random data
    /// and random one- or two-column probe prefixes.
    #[test]
    fn probe_matches_reference() {
        for seed in 1..=CASES {
            let mut rng = Rng(seed);
            let n = rng.below(300);
            let mut rows: Vec<[u64; 3]> = (0..n)
                .map(|_| [rng.below(20), rng.below(20), rng.below(20)])
                .collect();
            let t = BTree::bulk_load(&mgr(), "t", 3, rows.concat(), BTreeOptions::default());
            rows.sort_unstable();
            assert_eq!(t.len(), rows.len());
            for _ in 0..rng.below(32) {
                let mut prefix = vec![rng.below(22)];
                if rng.below(2) == 0 {
                    prefix.push(rng.below(22));
                }
                let got: Vec<Vec<u64>> = t.scan_prefix(&prefix).map(|r| r.to_vec()).collect();
                let want: Vec<Vec<u64>> = rows
                    .iter()
                    .filter(|r| r[..prefix.len()] == prefix[..])
                    .map(|r| r.to_vec())
                    .collect();
                assert_eq!(got, want, "seed {seed}, prefix {prefix:?}");
            }
        }
    }

    /// Scanning the full range returns exactly the multiset of inputs,
    /// sorted.
    #[test]
    fn full_scan_is_sorted_multiset() {
        for seed in 1..=CASES {
            let mut rng = Rng(seed);
            let n = rng.below(400);
            let mut rows: Vec<[u64; 2]> = (0..n).map(|_| [rng.below(50), rng.below(50)]).collect();
            let t = BTree::bulk_load(&mgr(), "t", 2, rows.concat(), BTreeOptions::default());
            let got: Vec<[u64; 2]> = t.scan(t.full_range()).map(|r| [r[0], r[1]]).collect();
            rows.sort_unstable();
            assert_eq!(got, rows, "seed {seed}");
        }
    }
}
