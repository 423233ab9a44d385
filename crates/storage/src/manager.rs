//! The [`StorageManager`]: segments, page touches, cold/hot control.
//!
//! Engines never issue raw disk reads. They *touch* pages of named
//! segments; the manager consults the buffer pool and charges the simulated
//! disk only for non-resident pages, batching consecutive misses into
//! sequential runs.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::disk::SimDisk;
use crate::io::{AtomicIoStats, IoStats, IoTracePoint};
use crate::machine::MachineProfile;
use crate::pool::BufferPool;
use crate::{pages_for, PAGE_SIZE};

/// Identifies one on-disk segment (a table, a column, an index, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u32);

#[derive(Debug)]
struct SegmentMeta {
    name: String,
    pages: u32,
}

#[derive(Debug)]
struct Inner {
    disk: SimDisk,
    pool: BufferPool,
    segments: Vec<SegmentMeta>,
}

/// Shared storage service: one per loaded store instance.
///
/// Cloning the handle (`Arc`) shares the same disk, pool and segments, so a
/// row table and its indices account against one I/O budget.
#[derive(Debug, Clone)]
pub struct StorageManager {
    inner: Arc<Mutex<Inner>>,
    /// The disk's atomic accounting counters, held outside the lock:
    /// [`StorageManager::stats`] snapshots (and
    /// [`StorageManager::reset_stats`] zeroes) without contending with
    /// workers that are touching pages — truthful accounting under
    /// intra-query parallelism.
    stats: Arc<AtomicIoStats>,
}

impl StorageManager {
    /// Locks the shared state. Poisoning is recovered: the inner state is
    /// plain accounting data that stays consistent even if a panic unwound
    /// through a lock holder.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Creates a manager with the given machine profile and an unbounded
    /// buffer pool.
    pub fn new(profile: MachineProfile) -> Self {
        Self::with_pool(profile, usize::MAX)
    }

    /// Creates a manager whose pool holds at most `pool_pages` pages.
    pub fn with_pool(profile: MachineProfile, pool_pages: usize) -> Self {
        let disk = SimDisk::new(profile);
        let stats = disk.stats_handle();
        Self {
            inner: Arc::new(Mutex::new(Inner {
                disk,
                pool: BufferPool::new(pool_pages),
                segments: Vec::new(),
            })),
            stats,
        }
    }

    /// The machine profile in effect.
    pub fn profile(&self) -> MachineProfile {
        self.lock().disk.profile()
    }

    /// Registers a segment big enough for `bytes` bytes and returns its id.
    pub fn create_segment(&self, name: impl Into<String>, bytes: u64) -> SegmentId {
        let mut inner = self.lock();
        let id = SegmentId(inner.segments.len() as u32);
        inner.segments.push(SegmentMeta {
            name: name.into(),
            pages: pages_for(bytes),
        });
        id
    }

    /// Number of pages in `seg`.
    pub fn segment_pages(&self, seg: SegmentId) -> u32 {
        self.lock().segments[seg.0 as usize].pages
    }

    /// Name of `seg` (for diagnostics).
    pub fn segment_name(&self, seg: SegmentId) -> String {
        self.lock().segments[seg.0 as usize].name.clone()
    }

    /// Total registered pages across all segments.
    pub fn total_pages(&self) -> u64 {
        self.lock().segments.iter().map(|s| s.pages as u64).sum()
    }

    /// Total registered bytes across all segments (on-disk footprint).
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * PAGE_SIZE as u64
    }

    /// Touches a single page (a point access, e.g. a secondary-index probe
    /// or a B+tree node visit).
    pub fn touch_page(&self, seg: SegmentId, page: u32) {
        let mut inner = self.lock();
        debug_assert!(page < inner.segments[seg.0 as usize].pages);
        if !inner.pool.access(seg, page) {
            inner.disk.read_run(seg, page, 1);
        }
    }

    /// Touches `count` pages starting at `first` as one scan. Consecutive
    /// non-resident pages are fetched in sequential runs; resident pages
    /// are skipped (and refreshed in the pool).
    pub fn touch_range(&self, seg: SegmentId, first: u32, count: u32) {
        let mut inner = self.lock();
        debug_assert!(
            first + count <= inner.segments[seg.0 as usize].pages,
            "range beyond segment {:?}: {first}+{count} > {}",
            seg,
            inner.segments[seg.0 as usize].pages
        );
        let mut run_start = None;
        for page in first..first + count {
            let hit = inner.pool.access(seg, page);
            match (hit, run_start) {
                (true, Some(start)) => {
                    inner.disk.read_run(seg, start, page - start);
                    run_start = None;
                }
                (false, None) => run_start = Some(page),
                _ => {}
            }
        }
        if let Some(start) = run_start {
            inner.disk.read_run(seg, start, first + count - start);
        }
    }

    /// Touches the whole segment (the column-store "read the column on
    /// first use" behaviour).
    pub fn touch_segment(&self, seg: SegmentId) {
        let pages = self.segment_pages(seg);
        self.touch_range(seg, 0, pages);
    }

    /// Writes `count` pages starting at `first` as one run, charging
    /// write bytes and wait time. Written pages become pool-resident
    /// (they are the freshest copy).
    pub fn write_range(&self, seg: SegmentId, first: u32, count: u32) {
        let mut inner = self.lock();
        debug_assert!(
            first + count <= inner.segments[seg.0 as usize].pages,
            "write beyond segment {:?}: {first}+{count} > {}",
            seg,
            inner.segments[seg.0 as usize].pages
        );
        inner.disk.write_run(seg, first, count);
        for page in first..first + count {
            inner.pool.install(seg, page);
        }
    }

    /// Writes a single page (a point write, e.g. one B+tree leaf update).
    pub fn write_page(&self, seg: SegmentId, page: u32) {
        self.write_range(seg, page, 1);
    }

    /// Rewrites the whole segment (a merge flushing a rebuilt table).
    pub fn write_segment(&self, seg: SegmentId) {
        let pages = self.segment_pages(seg);
        self.write_range(seg, 0, pages);
    }

    /// Resizes `seg` to hold `bytes` bytes. Every cached page of the
    /// segment is evicted: after a rewrite the old page images are stale
    /// regardless of whether the segment grew or shrank.
    pub fn resize_segment(&self, seg: SegmentId, bytes: u64) {
        let mut inner = self.lock();
        inner.segments[seg.0 as usize].pages = pages_for(bytes);
        inner.pool.evict_segment(seg);
    }

    /// Empties the buffer pool: the next touches will be cold.
    pub fn clear_pool(&self) {
        self.lock().pool.clear();
    }

    /// Current cumulative I/O statistics (lock-free: reads the disk's
    /// atomic counters directly).
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Zeroes the I/O statistics (lock-free).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Shared handle to the live accounting sink, for co-located
    /// accounting by components outside the simulated disk — the
    /// durability layer records its real fsyncs here so one snapshot
    /// shows simulated read/write traffic *and* durable-sync cost.
    pub fn stats_handle(&self) -> Arc<AtomicIoStats> {
        Arc::clone(&self.stats)
    }

    /// Number of pages currently resident in the pool.
    pub fn resident_pages(&self) -> usize {
        self.lock().pool.resident_pages()
    }

    /// Starts recording the I/O read history (Figure 5).
    pub fn begin_trace(&self) {
        self.lock().disk.begin_trace();
    }

    /// Stops recording and returns the history.
    pub fn take_trace(&self) -> Vec<IoTracePoint> {
        self.lock().disk.take_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> StorageManager {
        StorageManager::new(MachineProfile::B)
    }

    #[test]
    fn cold_then_hot_range() {
        let m = mgr();
        let seg = m.create_segment("col", 10 * PAGE_SIZE as u64);
        m.touch_range(seg, 0, 10);
        let cold = m.stats();
        assert_eq!(cold.bytes_read, 10 * PAGE_SIZE as u64);
        m.touch_range(seg, 0, 10);
        let hot = m.stats();
        assert_eq!(hot.bytes_read, cold.bytes_read, "warm pages cost nothing");
    }

    #[test]
    fn clear_pool_makes_next_touch_cold_again() {
        let m = mgr();
        let seg = m.create_segment("col", 4 * PAGE_SIZE as u64);
        m.touch_range(seg, 0, 4);
        m.clear_pool();
        m.touch_range(seg, 0, 4);
        assert_eq!(m.stats().bytes_read, 8 * PAGE_SIZE as u64);
    }

    #[test]
    fn partial_residency_reads_only_gaps() {
        let m = mgr();
        let seg = m.create_segment("col", 6 * PAGE_SIZE as u64);
        m.touch_page(seg, 2);
        m.touch_page(seg, 4);
        let before = m.stats();
        m.touch_range(seg, 0, 6); // pages 0,1,3,5 are cold
        let delta = m.stats().since(&before);
        assert_eq!(delta.bytes_read, 4 * PAGE_SIZE as u64);
        // Runs: [0,1], [3], [5] -> 3 read calls.
        assert_eq!(delta.read_calls, 3);
    }

    #[test]
    fn touch_segment_covers_all_pages() {
        let m = mgr();
        let seg = m.create_segment("col", 3 * PAGE_SIZE as u64 + 17);
        m.touch_segment(seg);
        assert_eq!(m.stats().bytes_read, 4 * PAGE_SIZE as u64);
        assert_eq!(m.resident_pages(), 4);
    }

    #[test]
    fn small_pool_forces_rereads() {
        let m = StorageManager::with_pool(MachineProfile::A, 4);
        let seg = m.create_segment("big", 16 * PAGE_SIZE as u64);
        m.touch_range(seg, 0, 16);
        let first = m.stats();
        m.touch_range(seg, 0, 16);
        let second = m.stats().since(&first);
        assert_eq!(
            second.bytes_read,
            16 * PAGE_SIZE as u64,
            "a 4-page pool cannot retain a 16-page scan"
        );
    }

    #[test]
    fn writes_warm_the_pool_and_account_bytes() {
        let m = mgr();
        let seg = m.create_segment("col", 4 * PAGE_SIZE as u64);
        m.write_segment(seg);
        let s = m.stats();
        assert_eq!(s.bytes_written, 4 * PAGE_SIZE as u64);
        assert_eq!(s.bytes_read, 0);
        // The written pages are the freshest copy: reading them is free.
        m.touch_range(seg, 0, 4);
        assert_eq!(m.stats().bytes_read, 0);
    }

    #[test]
    fn resize_evicts_stale_pages() {
        let m = mgr();
        let seg = m.create_segment("col", 4 * PAGE_SIZE as u64);
        m.touch_range(seg, 0, 4);
        assert_eq!(m.resident_pages(), 4);
        m.resize_segment(seg, 2 * PAGE_SIZE as u64);
        assert_eq!(m.segment_pages(seg), 2);
        assert_eq!(m.resident_pages(), 0, "stale images must leave the pool");
        m.touch_range(seg, 0, 2);
        assert_eq!(m.stats().bytes_read, 6 * PAGE_SIZE as u64);
    }

    #[test]
    fn shared_handle_shares_accounting() {
        let m = mgr();
        let m2 = m.clone();
        let seg = m.create_segment("t", PAGE_SIZE as u64);
        m2.touch_page(seg, 0);
        assert_eq!(m.stats().bytes_read, PAGE_SIZE as u64);
    }

    #[test]
    fn total_bytes_sums_segments() {
        let m = mgr();
        m.create_segment("a", 100);
        m.create_segment("b", PAGE_SIZE as u64 + 1);
        assert_eq!(m.total_bytes(), 3 * PAGE_SIZE as u64);
    }
}
