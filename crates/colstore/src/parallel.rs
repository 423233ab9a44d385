//! Morsel-driven intra-query parallelism: a small scoped-thread worker
//! pool (std only, no external crates).
//!
//! The execution model follows the morsel-driven design: an operator's
//! input is cut into fixed-size *morsels* (row ranges), a pool of workers
//! pulls morsel indices from a shared atomic counter until the batch is
//! drained, and the per-morsel outputs are merged **in morsel order** at
//! the batch barrier. Because every merge is order-preserving, a
//! parallelized operator produces *bit-identical* output to its sequential
//! form — physical-property claims ([`swans_plan::props`]) survive
//! partitioning unchanged, and result equivalence across thread counts is
//! structural, not accidental.
//!
//! One drain loop serves every operator: [`WorkerPool::run_reduce`] has
//! each worker fold the morsels it pulls into one *scratch* value it owns
//! (`init` runs once per worker, **not** once per morsel — this is how
//! hash-aggregation maps survive across morsels instead of being
//! reallocated per task) and returns the scratches for the caller to merge
//! at the barrier. [`WorkerPool::run_with`] (one output per morsel, in
//! morsel order) and [`WorkerPool::run_once`] (heterogeneous one-shot
//! tasks) are thin adapters over it. A batch of one morsel, or a pool of
//! one thread, runs the same loop inline on the caller's thread — that
//! *is* the sequential form of every kernel.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rows per morsel. Small enough that realistic benchmark columns split
/// into many morsels (load balance), large enough that per-morsel
/// bookkeeping is noise against the per-row kernel work.
pub const MORSEL_ROWS: usize = 4096;

/// Upper bound on morsels per batch (keeps the barrier merge cheap).
pub const MAX_MORSELS: usize = 256;

/// Number of morsels a `len`-row input splits into. Independent of the
/// thread count, so the task set — and therefore the merged output — is
/// identical at every parallelism level.
pub fn partitions(len: usize) -> usize {
    if len == 0 {
        return 1;
    }
    len.div_ceil(MORSEL_ROWS).clamp(1, MAX_MORSELS)
}

/// The row range of morsel `i` of `parts` over a `len`-row input.
pub fn morsel_range(len: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    // Even split with the remainder spread over the first morsels, so no
    // worker draws a systematically larger share.
    let base = len / parts;
    let extra = len % parts;
    let start = i * base + i.min(extra);
    let end = start + base + usize::from(i < extra);
    start..end
}

/// Segment boundaries for `parts` morsels over a `len`-row *sorted*
/// input, each boundary advanced past the value run containing it so no
/// run straddles a segment — the partitioning the sorted kernels (merge
/// join, run aggregation, linear distinct) require to stay exact under
/// parallelism. `eq(a, b)` compares rows `a` and `b` for equality;
/// because the input is sorted, the rows equal to the one just before a
/// tentative boundary form a contiguous prefix of the tail, so the run
/// end is found by binary search (O(parts · log len) total — a single
/// giant run costs log time, not a linear walk per boundary).
///
/// **Run-encoded inputs do not need this function**: a [`RunCol`]'s run
/// headers *are* the value alignment, so run-native kernels partition
/// directly on run indices ([`morsel_range`] over the run count) — every
/// segment boundary is a run boundary by construction, at zero search
/// cost.
///
/// [`RunCol`]: crate::chunk::RunCol
pub fn aligned_bounds(len: usize, parts: usize, eq: impl Fn(usize, usize) -> bool) -> Vec<usize> {
    let mut bounds = vec![0usize];
    for m in 1..parts {
        let start = morsel_range(len, parts, m).start;
        if start == 0 || start >= len {
            continue;
        }
        let anchor = start - 1;
        // First index in [start, len) whose row differs from `anchor`'s.
        let (mut lo, mut hi) = (start, len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if eq(anchor, mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo > *bounds.last().expect("non-empty") && lo < len {
            bounds.push(lo);
        }
    }
    bounds.push(len);
    bounds
}

/// A one-shot task accepted by [`WorkerPool::run_once`].
pub type OnceTask<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// A scoped-thread worker pool of a fixed width.
///
/// The pool is stateless between batches: each `run_*` call spawns up to
/// `threads` scoped worker threads, drains the batch, and joins them.
/// With one thread (or one morsel) the batch runs inline on the caller's
/// thread — no spawn, same code path, same output.
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool that runs batches on up to `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `parts` morsel tasks that fold into per-worker scratch values
    /// and returns the scratches (one per worker that ran, at most
    /// `threads`). The caller merges them at the barrier; merge order is
    /// the caller's responsibility to keep deterministic (the built-in
    /// consumers merge into order-insensitive structures).
    pub fn run_reduce<S, I, F>(&self, parts: usize, init: I, fold: F) -> Vec<S>
    where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) + Sync,
    {
        let next = AtomicUsize::new(0);
        // The one drain loop: pull morsel indices until the batch is dry.
        let drain = || {
            let mut scratch = init();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= parts {
                    break scratch;
                }
                fold(&mut scratch, i);
            }
        };
        let workers = self.threads.min(parts);
        if workers <= 1 {
            return vec![drain()];
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    }

    /// Runs `parts` morsel tasks, returning their outputs **in morsel
    /// order**.
    pub fn run_with<T, F>(&self, parts: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..parts).map(|_| None).collect();
        let got = self.run_reduce(parts, Vec::new, |got, i| got.push((i, task(i))));
        for (i, out) in got.into_iter().flatten() {
            slots[i] = Some(out);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every morsel produced"))
            .collect()
    }

    /// Runs a batch of heterogeneous one-shot tasks (e.g. tasks that own
    /// disjoint `&mut` output slices), returning outputs in task order.
    pub fn run_once<'env, T>(&self, tasks: Vec<OnceTask<'env, T>>) -> Vec<T>
    where
        T: Send,
    {
        let slots: Vec<Mutex<Option<OnceTask<'env, T>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.run_with(slots.len(), |i| {
            let task = slots[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("each task taken once");
            task()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn morsel_ranges_tile_the_input() {
        for len in [0usize, 1, 7, 4096, 4097, 100_000] {
            let parts = partitions(len);
            let mut covered = 0usize;
            for i in 0..parts {
                let r = morsel_range(len, parts, i);
                assert_eq!(r.start, covered, "len {len} morsel {i}");
                covered = r.end;
            }
            assert_eq!(covered, len, "len {len}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "large input: minutes under the interpreter")]
    fn aligned_bounds_never_split_a_run() {
        let keys: Vec<u64> = (0..10_000).map(|i| i / 37).collect();
        let parts = partitions(keys.len());
        let bounds = aligned_bounds(keys.len(), parts, |a, b| keys[a] == keys[b]);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&keys.len()));
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "bounds must strictly increase: {bounds:?}");
            assert!(w[1] == keys.len() || keys[w[1]] != keys[w[1] - 1]);
        }
        // A single giant run collapses to one segment.
        assert_eq!(aligned_bounds(100, 4, |_, _| true), vec![0, 100]);
    }

    #[test]
    fn partition_count_is_thread_independent_and_capped() {
        assert_eq!(partitions(0), 1);
        assert_eq!(partitions(1), 1);
        assert_eq!(partitions(MORSEL_ROWS), 1);
        assert_eq!(partitions(MORSEL_ROWS + 1), 2);
        assert_eq!(partitions(usize::MAX / 2), MAX_MORSELS);
    }

    #[test]
    fn run_with_returns_results_in_morsel_order() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let got = pool.run_with(37, |i| i * 3);
            assert_eq!(got, (0..37).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    /// The scratch-reuse contract: `init` runs once per worker, not once
    /// per morsel — the whole point of per-worker scratch.
    #[test]
    fn scratch_is_built_per_worker_not_per_morsel() {
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let allocs = AtomicUsize::new(0);
            let parts = 64;
            let scratches = pool.run_reduce(
                parts,
                || {
                    allocs.fetch_add(1, Ordering::Relaxed);
                    Vec::<u64>::new()
                },
                |scratch, i| scratch.push(i as u64),
            );
            assert_eq!(scratches.iter().map(Vec::len).sum::<usize>(), parts);
            let n = allocs.load(Ordering::Relaxed);
            assert!(
                n <= threads,
                "{threads} threads allocated {n} scratches for {parts} morsels"
            );
        }
    }

    #[test]
    fn run_reduce_folds_every_morsel_exactly_once() {
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            let partials = pool.run_reduce(100, || 0u64, |acc, i| *acc += i as u64);
            assert!(partials.len() <= threads.max(1));
            assert_eq!(partials.iter().sum::<u64>(), 99 * 100 / 2);
        }
    }

    #[test]
    fn run_once_executes_disjoint_mut_slices() {
        let mut out = vec![0u32; 100];
        for threads in [1, 3] {
            let pool = WorkerPool::new(threads);
            out.fill(0);
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = out
                .chunks_mut(17)
                .enumerate()
                .map(|(k, chunk)| {
                    let task: Box<dyn FnOnce() -> usize + Send> = Box::new(move || {
                        for (j, v) in chunk.iter_mut().enumerate() {
                            *v = (k * 17 + j) as u32;
                        }
                        chunk.len()
                    });
                    task
                })
                .collect();
            let lens = pool.run_once(tasks);
            assert_eq!(lens.iter().sum::<usize>(), 100);
            assert_eq!(out, (0..100).collect::<Vec<u32>>());
        }
    }
}
