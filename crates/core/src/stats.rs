//! Running statistics and histogram helpers for the Monte Carlo estimators.

/// Numerically stable running mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Fold another accumulator into this one (Chan et al.'s parallel
    /// combine): with `δ = mean_b − mean_a` and `n = n_a + n_b`,
    ///
    /// ```text
    /// mean = mean_a + δ · n_b / n
    /// M2   = M2_a + M2_b + δ² · n_a · n_b / n
    /// ```
    ///
    /// The campaign engine merges per-chunk accumulators **in chunk
    /// order**, so the combined mean/variance is a pure function of the
    /// chunk partition — identical at any thread count.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let total = na + nb;
        let delta = other.mean - self.mean;
        self.mean += delta * (nb / total);
        self.m2 += other.m2 + delta * delta * (na * nb / total);
        self.n += other.n;
    }

    /// Decompose into the exact Welford state `(count, mean, M2)`, for
    /// checkpoint serialization. [`from_raw`](Self::from_raw) rebuilds an
    /// accumulator that continues bit-identically.
    pub fn to_raw(&self) -> (u64, f64, f64) {
        (self.n, self.mean, self.m2)
    }

    /// Rebuild an accumulator from a [`to_raw`](Self::to_raw) triple.
    pub fn from_raw(n: u64, mean: f64, m2: f64) -> Self {
        Self { n, mean, m2 }
    }

    /// The Chebyshev/LLN bound of §3.3 on `Pr[|estimate − SSF| ≥ eps]`:
    /// `variance / (n · eps²)`, clamped to 1.
    pub fn lln_bound(&self, eps: f64) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        (self.variance() / (self.n as f64 * eps * eps)).min(1.0)
    }
}

/// An equal-width histogram over `[0, max]` with an overflow-free layout:
/// values above `max` land in the last bin.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bin counts.
    pub counts: Vec<u64>,
    /// Upper edge of the covered range.
    pub max: f64,
}

impl Histogram {
    /// Build a histogram of `values` with `bins` equal-width bins over
    /// `[0, max]`.
    ///
    /// # Panics
    ///
    /// Panics when `bins == 0`, `max <= 0`, or any value is NaN. Negative
    /// values are a caller bug (the range is `[0, max]`): debug builds
    /// panic, release builds clamp them into bin 0.
    pub fn build(values: impl IntoIterator<Item = f64>, bins: usize, max: f64) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(max > 0.0, "max must be positive");
        let mut counts = vec![0u64; bins];
        for v in values {
            assert!(!v.is_nan(), "histogram value is NaN");
            debug_assert!(
                v >= 0.0,
                "histogram value {v} is negative (range is [0, max])"
            );
            // The float→usize cast saturates, but only by accident of the
            // `as` semantics — clamp explicitly so the release-build
            // behavior for out-of-range negatives is a documented choice.
            let idx = ((v.max(0.0) / max * bins as f64) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        Self { counts, max }
    }

    /// Normalized bin probabilities (empty histogram yields zeros).
    pub fn probabilities(&self) -> Vec<f64> {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_match_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of the classic dataset: 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        let mut s = RunningStats::new();
        for _ in 0..100 {
            s.push(3.25);
        }
        assert!(s.variance().abs() < 1e-12);
    }

    #[test]
    fn lln_bound_shrinks_with_n() {
        let mut small = RunningStats::new();
        let mut large = RunningStats::new();
        for i in 0..10 {
            small.push((i % 2) as f64);
        }
        for i in 0..1000 {
            large.push((i % 2) as f64);
        }
        assert!(large.lln_bound(0.1) < small.lln_bound(0.1));
        assert!(RunningStats::new().lln_bound(0.1) == 1.0);
    }

    #[test]
    fn merge_matches_sequential_push() {
        let xs: Vec<f64> = (0..257).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let mut sequential = RunningStats::new();
        for &x in &xs {
            sequential.push(x);
        }
        // Merge uneven splits, the way the campaign engine folds chunks.
        for split in [1, 64, 100, 256] {
            let (a, b) = xs.split_at(split);
            let mut left = RunningStats::new();
            let mut right = RunningStats::new();
            a.iter().for_each(|&x| left.push(x));
            b.iter().for_each(|&x| right.push(x));
            left.merge(&right);
            assert_eq!(left.count(), sequential.count());
            assert!((left.mean() - sequential.mean()).abs() < 1e-12);
            assert!((left.variance() - sequential.variance()).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut filled = RunningStats::new();
        [1.0, 2.0, 4.0].iter().for_each(|&x| filled.push(x));
        let snapshot = filled;

        let mut lhs = filled;
        lhs.merge(&RunningStats::new());
        assert_eq!(lhs, snapshot);

        let mut empty = RunningStats::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let h = Histogram::build([0.0, 0.5, 1.5, 2.5, 99.0], 3, 3.0);
        assert_eq!(h.counts, vec![2, 1, 2]);
        let p = h.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_probabilities_are_zero() {
        let h = Histogram::build(std::iter::empty(), 4, 1.0);
        assert_eq!(h.probabilities(), vec![0.0; 4]);
    }

    #[test]
    fn raw_round_trip_continues_bit_identically() {
        let mut reference = RunningStats::new();
        let mut restored = RunningStats::new();
        for i in 0..100 {
            let x = ((i * 37) % 101) as f64 / 7.0;
            reference.push(x);
            restored.push(x);
        }
        let (n, mean, m2) = restored.to_raw();
        let mut restored = RunningStats::from_raw(n, mean, m2);
        for i in 100..200 {
            let x = ((i * 37) % 101) as f64 / 7.0;
            reference.push(x);
            restored.push(x);
        }
        let (n_a, mean_a, m2_a) = reference.to_raw();
        let (n_b, mean_b, m2_b) = restored.to_raw();
        assert_eq!(n_a, n_b);
        assert_eq!(mean_a.to_bits(), mean_b.to_bits());
        assert_eq!(m2_a.to_bits(), m2_b.to_bits());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn histogram_rejects_nan() {
        // Regression: NaN used to saturate to bin 0 via the `as usize`
        // cast, silently corrupting the distribution.
        Histogram::build([0.5, f64::NAN], 3, 3.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "negative")]
    fn histogram_rejects_negatives_in_debug() {
        Histogram::build([-0.25], 3, 3.0);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn histogram_clamps_negatives_in_release() {
        // Regression: negatives used to be indistinguishable from genuine
        // bin-0 values; the clamp is now explicit and documented.
        let h = Histogram::build([-5.0, -0.1, 0.5, 2.5], 3, 3.0);
        assert_eq!(h.counts, vec![3, 0, 1]);
    }
}
