//! A single stored column backed by a disk segment.

use std::ops::Range;
use std::sync::Arc;

use swans_storage::{SegmentId, StorageManager};

use crate::chunk::RunCol;

/// One column of a stored table.
///
/// The in-memory vector is the authoritative data (this is a simulation —
/// the "disk" only accounts I/O); the segment describes its on-disk
/// footprint. Reading the column touches the whole segment, the
/// column-store's unit of I/O. The data is held behind an `Arc` so that
/// full-column scans can hand out zero-copy references (BAT sharing).
#[derive(Debug, Clone)]
pub struct Column {
    data: Arc<Vec<u64>>,
    /// The RLE run representation of a compressed sorted column — scans
    /// hand it out directly (compressed execution) and equality
    /// predicates resolve against it instead of the decompressed values.
    runs: Option<Arc<RunCol>>,
    segment: SegmentId,
    sorted: bool,
    /// Whether RLE is *considered* for this column. The actual decision
    /// is taken per data set by [`plan_layout`] (compress only when the
    /// run headers are smaller than the plain values) and re-taken on
    /// every [`Column::rewrite`], so a merge can never silently drop or
    /// inflate compression.
    rle: bool,
    storage: StorageManager,
}

impl Column {
    /// Registers a column with `storage`.
    ///
    /// `sorted` marks the column as non-decreasing (enables binary-search
    /// selection). `rle` enables RLE *consideration* — only meaningful for
    /// sorted columns, where equal values are adjacent. Whether the column
    /// is actually stored run-length encoded is auto-decided from the
    /// data: the segment holds `(value, run_length)` pairs only when
    /// `run_count * 16 < plain_bytes`, i.e. when compression pays.
    pub fn new(
        storage: &StorageManager,
        name: &str,
        data: Vec<u64>,
        sorted: bool,
        rle: bool,
    ) -> Self {
        let (bytes, runs) = plan_layout(&data, sorted, rle);
        let segment = storage.create_segment(name, bytes.max(1));
        Self {
            data: Arc::new(data),
            runs,
            segment,
            sorted,
            rle,
            storage: storage.clone(),
        }
    }

    /// Replaces the column's contents in place — the merge path.
    ///
    /// The layout decision of [`Column::new`] is re-taken for the new data
    /// under the column's own RLE policy (a merge that destroys the runs
    /// falls back to the plain layout; one that creates them compresses),
    /// the backing segment is resized to the new footprint (evicting any
    /// stale cached pages), and the whole rewritten segment is charged as
    /// written I/O.
    pub fn rewrite(&mut self, data: Vec<u64>, sorted: bool) {
        let (bytes, runs) = plan_layout(&data, sorted, self.rle);
        self.storage.resize_segment(self.segment, bytes.max(1));
        self.storage.write_segment(self.segment);
        self.data = Arc::new(data);
        self.runs = runs;
        self.sorted = sorted;
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no values.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether the column is sorted non-decreasing.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// The column's on-disk footprint in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.storage.segment_pages(self.segment) as u64 * swans_storage::PAGE_SIZE as u64
    }

    /// Reads the column: touches the whole segment (charged on first use,
    /// free once resident) and returns the values.
    pub fn read(&self) -> &[u64] {
        self.storage.touch_segment(self.segment);
        &self.data
    }

    /// Reads the column and returns a zero-copy shared handle (BAT
    /// sharing for full-column scan outputs).
    pub fn read_shared(&self) -> Arc<Vec<u64>> {
        self.storage.touch_segment(self.segment);
        self.data.clone()
    }

    /// Reads the column *as runs*: touches the (compressed) segment and
    /// returns the shared run representation without materializing the
    /// decompressed values — the entry point of compressed execution.
    /// `None` when the column is not stored run-length encoded.
    pub fn read_runs(&self) -> Option<Arc<RunCol>> {
        let runs = self.runs.as_ref()?;
        self.storage.touch_segment(self.segment);
        Some(runs.clone())
    }

    /// The values without I/O accounting (internal/test use only).
    pub fn peek(&self) -> &[u64] {
        &self.data
    }

    /// The stored run representation without I/O accounting — the
    /// engine's planning-time peek (e.g. deciding whether run emission
    /// pays) must not charge reads.
    pub fn peek_runs(&self) -> Option<&RunCol> {
        self.runs.as_deref()
    }

    /// Whether the column carries RLE run headers (compressed layout).
    pub fn has_runs(&self) -> bool {
        self.runs.is_some()
    }

    /// Number of stored runs (0 when not RLE-compressed).
    pub fn run_count(&self) -> usize {
        self.runs.as_ref().map_or(0, |r| r.run_count())
    }

    /// Positions holding `value` in a sorted column (charges the column
    /// read). On an RLE-compressed column the answer comes straight from
    /// the run headers — a binary search over the (much shorter) run list
    /// instead of the decompressed values; plain sorted columns binary
    /// search the values.
    ///
    /// # Panics
    /// Panics if the column is not sorted.
    pub fn eq_range(&self, value: u64) -> Range<usize> {
        assert!(self.sorted, "eq_range requires a sorted column");
        if let Some(runs) = &self.runs {
            self.storage.touch_segment(self.segment);
            return runs.eq_range_sorted(value);
        }
        crate::ops::eq_range(self.read(), value)
    }
}

/// The storage layout decisions for a column's data: on-disk bytes and,
/// when the RLE layout is the stored one, the materialized run headers.
///
/// RLE stores `(value, run_length)` pairs, but falls back to the plain
/// layout when that would not pay off: the data is compressed only when
/// `run_count * 16 < plain_bytes` (a sorted but near-distinct column
/// stays plain). Run headers are materialized only when the RLE layout is
/// actually stored (a near-distinct column would pay up to 2x heap for
/// headers that search no faster than the values), and only while u32 row
/// offsets suffice (they cover the full Barton scale).
fn plan_layout(data: &[u64], sorted: bool, rle: bool) -> (u64, Option<Arc<RunCol>>) {
    let plain_bytes = data.len() as u64 * 8;
    let run_count = if rle {
        debug_assert!(sorted, "RLE layout requires a sorted column");
        count_runs(data)
    } else {
        0
    };
    let compresses = rle && run_count * 16 < plain_bytes && data.len() <= u32::MAX as usize;
    let bytes = if compresses {
        run_count * 16
    } else {
        plain_bytes
    };
    let runs = compresses.then(|| Arc::new(RunCol::from_flat(data)));
    (bytes, runs)
}

/// Number of equal-value runs in a slice.
fn count_runs(data: &[u64]) -> u64 {
    if data.is_empty() {
        return 0;
    }
    1 + data.windows(2).filter(|w| w[0] != w[1]).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use swans_storage::{MachineProfile, PAGE_SIZE};

    fn mgr() -> StorageManager {
        StorageManager::new(MachineProfile::B)
    }

    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn read_touches_whole_segment_once() {
        let m = mgr();
        let c = Column::new(&m, "c", (0..10_000).collect(), true, false);
        m.reset_stats();
        let _ = c.read();
        let cold = m.stats().bytes_read;
        assert_eq!(cold, c.disk_bytes());
        let _ = c.read();
        assert_eq!(m.stats().bytes_read, cold, "second read is free (hot)");
    }

    #[test]
    fn eq_range_matches_linear_scan() {
        let m = mgr();
        let data = vec![1, 1, 2, 2, 2, 5, 7, 7];
        let c = Column::new(&m, "c", data.clone(), true, false);
        for v in 0..9 {
            let r = c.eq_range(v);
            let want: Vec<usize> = data
                .iter()
                .enumerate()
                .filter(|&(_, &x)| x == v)
                .map(|(i, _)| i)
                .collect();
            if want.is_empty() {
                assert!(r.is_empty(), "value {v}");
            } else {
                assert_eq!(r, want[0]..want[want.len() - 1] + 1, "value {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires a sorted column")]
    fn eq_range_panics_on_unsorted() {
        let m = mgr();
        let c = Column::new(&m, "c", vec![3, 1, 2], false, false);
        let _ = c.eq_range(1);
    }

    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn rle_never_inflates_distinct_columns() {
        let m = mgr();
        let data: Vec<u64> = (0..100_000).collect(); // all runs length 1
        let plain = Column::new(&m, "p", data.clone(), true, false);
        let rle = Column::new(&m, "r", data, true, true);
        assert_eq!(rle.disk_bytes(), plain.disk_bytes());
        // RLE does not pay here, so no run headers are materialized either
        // (they would double the heap for no search advantage).
        assert!(!rle.has_runs());
        assert!(rle.read_runs().is_none());
    }

    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn rle_compression_shrinks_low_cardinality_sorted_column() {
        let m = mgr();
        // 100k values, 4 runs.
        let mut data = vec![0u64; 25_000];
        data.extend(vec![1u64; 25_000]);
        data.extend(vec![2u64; 25_000]);
        data.extend(vec![3u64; 25_000]);
        let plain = Column::new(&m, "p", data.clone(), true, false);
        let rle = Column::new(&m, "r", data, true, true);
        assert_eq!(rle.disk_bytes(), PAGE_SIZE as u64, "4 runs fit one page");
        assert_eq!(rle.run_count(), 4);
        assert!(plain.disk_bytes() > 90 * PAGE_SIZE as u64);
    }

    /// An RLE column answers equality ranges from its run headers,
    /// identically to the plain binary search.
    #[test]
    fn rle_eq_range_matches_plain_eq_range() {
        let m = mgr();
        let data = vec![1, 1, 1, 2, 2, 2, 5, 7, 7];
        let plain = Column::new(&m, "p", data.clone(), true, false);
        let rle = Column::new(&m, "r", data, true, true);
        assert!(rle.has_runs());
        assert!(!plain.has_runs());
        for v in 0..9 {
            assert_eq!(rle.eq_range(v), plain.eq_range(v), "value {v}");
        }
        // Empty column.
        let empty = Column::new(&m, "e", vec![], true, true);
        assert_eq!(empty.eq_range(3), 0..0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn rle_eq_range_charges_the_compressed_segment() {
        let m = mgr();
        // 100k rows, 4 runs: the RLE segment is one page.
        let mut data = vec![0u64; 25_000];
        data.extend(vec![1u64; 25_000]);
        data.extend(vec![2u64; 25_000]);
        data.extend(vec![3u64; 25_000]);
        let rle = Column::new(&m, "r", data, true, true);
        m.clear_pool();
        m.reset_stats();
        assert_eq!(rle.eq_range(2), 50_000..75_000);
        assert_eq!(m.stats().bytes_read, PAGE_SIZE as u64);
    }

    /// Reading the run representation touches the compressed segment —
    /// not the (larger) plain footprint — and round-trips the data.
    #[test]
    fn read_runs_charges_compressed_bytes_only() {
        let m = mgr();
        let mut data = vec![7u64; 50_000];
        data.extend(vec![9u64; 50_000]);
        let rle = Column::new(&m, "r", data.clone(), true, true);
        m.clear_pool();
        m.reset_stats();
        let runs = rle.read_runs().expect("stored as runs");
        assert_eq!(m.stats().bytes_read, rle.disk_bytes());
        assert_eq!(rle.disk_bytes(), PAGE_SIZE as u64, "2 runs, one page");
        assert_eq!(runs.expand(), data);
    }

    /// A rewrite re-takes the RLE decision from the new data under the
    /// column's own policy: compression appears when the merged data
    /// compresses and disappears when it no longer pays — never silently
    /// kept stale.
    #[test]
    fn rewrite_resizes_accounts_and_retakes_layout_decisions() {
        let m = mgr();
        // RLE considered, but the initial near-distinct data stays plain.
        let mut c = Column::new(&m, "c", (0..10_000).collect(), true, true);
        assert!(!c.has_runs());
        let old_bytes = c.disk_bytes();
        m.reset_stats();
        // Rewrite with low-cardinality sorted data: shrinks and compresses.
        let mut data = vec![1u64; 5_000];
        data.extend(vec![2u64; 5_000]);
        c.rewrite(data, true);
        assert!(c.has_runs());
        assert!(c.disk_bytes() < old_bytes);
        let s = m.stats();
        assert_eq!(s.bytes_written, c.disk_bytes(), "whole segment rewritten");
        assert_eq!(c.eq_range(2), 5_000..10_000);
        // The rewritten pages are resident: reading is free.
        let before = m.stats().bytes_read;
        let _ = c.read();
        assert_eq!(m.stats().bytes_read, before);
        // Rewrite back to near-distinct data: compression is dropped and
        // the footprint returns to the plain layout.
        c.rewrite((0..10_000).collect(), true);
        assert!(!c.has_runs());
        assert_eq!(c.disk_bytes(), old_bytes);
    }

    #[test]
    fn count_runs_counts_transitions() {
        assert_eq!(count_runs(&[]), 0);
        assert_eq!(count_runs(&[5]), 1);
        assert_eq!(count_runs(&[5, 5, 5]), 1);
        assert_eq!(count_runs(&[1, 1, 2, 3, 3]), 3);
    }
}
