//! The estimators every metric goes through: the quiet (low-decile)
//! estimate, medians, quartiles and the supported-percentile rule.

use std::ops::Range;

use swans_core::geometric_mean;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `[q1, q2, q3]` exactly as Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method) — the acceptance rule is stated in
/// those terms, so `compare` and `noise` must agree with it to the digit.
///
/// # Panics
/// Panics on fewer than two samples, like the Python function.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the acceptance rule bounds.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// `(max − min) / median`: the spread written beside every block median
/// so one run shows its own noise.
pub fn spread(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::MIN, f64::max);
    let min = xs.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(xs)
}

/// Cuts `0..n` into `min(blocks, n)` consecutive ranges whose lengths
/// differ by at most one.
pub fn block_ranges(n: usize, blocks: usize) -> Vec<Range<usize>> {
    let k = blocks.min(n).max(1);
    (0..k).map(|b| b * n / k..(b + 1) * n / k).collect()
}

/// Share of a sample's low end the quiet estimators read: the 10th
/// percentile for times, the 90th for rates.
const QUIET: f64 = 0.10;

/// The quiet-machine estimate of a time: the 10th percentile of `xs`.
///
/// Interference on a shared box only ever adds time — a neighbour on the
/// sibling hyper-thread, a host-side stall — and it comes in bursts that
/// last seconds, so it moves a median (and a median of block medians) by
/// tens of percent between runs of one commit, while the low end of the
/// sample hardly moves (README, "Why the 10th percentile"). The lowest
/// decile rather than the minimum, so that one lucky sample does not set
/// the value either.
///
/// # Panics
/// Panics on an empty slice.
pub fn quiet_low(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * QUIET) as usize]
}

/// [`quiet_low`] for a rate (higher is better): the 90th percentile.
pub fn quiet_high(xs: &[f64]) -> f64 {
    let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
    -quiet_low(&negated)
}

/// The `p`-th percentile (nearest rank) of an ascending `sorted` sample —
/// but only where at least ten samples lie beyond it; `None` otherwise,
/// because a tail read off fewer samples is one slow request, not a
/// percentile.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len().max(1));
    (sorted.len() >= rank + 10).then(|| sorted[rank - 1])
}

/// [`tail_percentile`] falling back from `p` through 95, 90 and 50 to the
/// highest percentile the sample supports; returns `(percentile, value)`.
pub fn supported_percentile(sorted: &[f64], p: f64) -> (f64, f64) {
    for q in [p, 95.0, 90.0, 50.0] {
        if q <= p {
            if let Some(v) = tail_percentile(sorted, q) {
                return (q, v);
            }
        }
    }
    (50.0, median(sorted))
}

/// Samples tagged with an operation class and a block: the shape every
/// latency phase records, reduced to the three latency metrics.
#[derive(Debug, Default, Clone)]
pub struct ClassSamples {
    /// `(class, block, milliseconds)`.
    pub samples: Vec<(usize, usize, f64)>,
}

/// Per-class latency metrics of one phase.
#[derive(Debug, Clone)]
pub struct ClassMetrics {
    /// Geometric mean over classes of the per-class quiet latency.
    pub geomean: f64,
    /// Sum over classes of the per-class quiet latency.
    pub pass: f64,
    /// The slowest class's quiet latency.
    pub worst: f64,
    /// [`quiet_low`] of each class's samples.
    pub class_quiet: Vec<f64>,
    /// Per block, the sum over classes of the per-class *median*: what a
    /// median-based `pass` would read in each block. Its spread is the
    /// noise this run saw.
    pub block_pass_median: Vec<f64>,
    /// Smallest per-class sample count.
    pub min_samples: usize,
}

impl ClassSamples {
    /// Records one sample.
    pub fn push(&mut self, class: usize, block: usize, ms: f64) {
        self.samples.push((class, block, ms));
    }

    /// Reduces the samples to the three latency metrics.
    ///
    /// # Panics
    /// Panics if a class in `0..n_classes` has no sample.
    pub fn reduce(&self, n_classes: usize) -> ClassMetrics {
        let n_blocks = self.samples.iter().map(|s| s.1 + 1).max().unwrap_or(0);
        let mut cells = vec![vec![Vec::new(); n_classes]; n_blocks];
        let mut pooled = vec![Vec::new(); n_classes];
        for &(c, b, ms) in &self.samples {
            cells[b][c].push(ms);
            pooled[c].push(ms);
        }
        let class_quiet: Vec<f64> = pooled.iter().map(|s| quiet_low(s)).collect();
        let block_pass_median = cells
            .iter()
            .map(|block| {
                block
                    .iter()
                    .filter(|s| !s.is_empty())
                    .map(|s| median(s))
                    .sum()
            })
            .collect();
        ClassMetrics {
            geomean: geometric_mean(&class_quiet),
            pass: class_quiet.iter().sum(),
            worst: class_quiet.iter().copied().fold(f64::MIN, f64::max),
            class_quiet,
            block_pass_median,
            min_samples: pooled.iter().map(Vec::len).min().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Values checked against `statistics.quantiles(xs, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_estimators_read_the_undisturbed_end() {
        let mut xs: Vec<f64> = (0..30).map(|i| 10.0 + f64::from(i) * 0.01).collect();
        let calm = quiet_low(&xs);
        assert_eq!(calm, 10.02, "third smallest of thirty");
        // A burst that slows two thirds of the samples by half moves the
        // median by half and the quiet estimate not at all.
        for x in xs.iter_mut().skip(10) {
            *x *= 1.5;
        }
        assert_eq!(quiet_low(&xs), calm);
        assert!(median(&xs) > 14.0);
        assert_eq!(quiet_low(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(quiet_low(&[7.0]), 7.0);
        // Rates mirror it.
        let rates: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(quiet_high(&rates), 28.0);
    }

    #[test]
    fn block_ranges_cover_everything_once() {
        assert_eq!(block_ranges(10, 5), vec![0..2, 2..4, 4..6, 6..8, 8..10]);
        assert_eq!(block_ranges(3, 5), vec![0..1, 1..2, 2..3]);
        let r = block_ranges(13, 5);
        assert_eq!(r.len(), 5);
        assert_eq!(r.iter().map(ExactSizeIterator::len).sum::<usize>(), 13);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&xs[..999], 99.0), None);
        assert_eq!(tail_percentile(&xs[..200], 95.0), Some(190.0));
        assert_eq!(tail_percentile(&xs[..199], 95.0), None);
        assert_eq!(supported_percentile(&xs[..500], 99.0), (95.0, 475.0));
        assert_eq!(supported_percentile(&xs[..12], 99.0), (50.0, 6.5));
    }

    #[test]
    fn class_samples_reduce_to_quiet_latencies_and_block_medians() {
        let mut s = ClassSamples::default();
        for block in 0..3 {
            for rep in 0..3 {
                s.push(0, block, 1.0 + rep as f64); // 1, 2, 3
                s.push(1, block, 8.0);
            }
        }
        s.push(1, 2, 800.0); // interference in one block only
        let m = s.reduce(2);
        assert_eq!(m.class_quiet, vec![1.0, 8.0]);
        assert!((m.geomean - 8f64.sqrt()).abs() < 1e-12);
        assert_eq!(m.pass, 9.0);
        assert_eq!(m.worst, 8.0);
        assert_eq!(m.block_pass_median, vec![10.0, 10.0, 10.0]);
        assert_eq!(m.min_samples, 9);
    }
}
