//! Order statistics over per-operation timings.

/// How many operations must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN — both are bugs in the caller.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail of a sample: the highest order statistic that still has at
/// least [`TAIL_BEYOND`] samples strictly beyond it in rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Its percentile, `100 · (rank + 1) / n`.
    pub percentile: f64,
    /// Samples ranked beyond it (at least [`TAIL_BEYOND`] unless the
    /// sample is too small, when the maximum is reported with 0 beyond).
    pub beyond: usize,
}

/// The tail rule: with `n > TAIL_BEYOND` samples the value at rank
/// `n − TAIL_BEYOND − 1` (0-based, ascending); with fewer, no rank
/// qualifies and the maximum stands in.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let v = sorted(xs);
    let n = v.len();
    let rank = n.checked_sub(TAIL_BEYOND + 1).unwrap_or(n - 1);
    Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        beyond: n - 1 - rank,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}
