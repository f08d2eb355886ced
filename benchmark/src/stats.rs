//! Sample summaries and the FNV-1a digest.

use std::fmt;

/// Median, extremes and count of a timing sample. One run affords too
/// few reps to support a percentile above the median, so none is
/// reported; min and max are printed beside the median instead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Median (mean of the two middle samples for even `n`).
    pub median: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarize `samples`; `None` when empty.
pub fn summary(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Some(Summary {
        n,
        min: sorted[0],
        median,
        max: sorted[n - 1],
    })
}

/// Median of `samples`, 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    summary(samples).map_or(0.0, |s| s.median)
}

/// Nearest-rank percentile of an already sorted slice, 0 when empty.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Streaming FNV-1a: `write!` a report's `Debug` form straight into the
/// hash, so digesting a large report allocates nothing (and so cannot
/// move the child's `VmHWM`).
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn median_min_max_of_odd_even_and_single_samples() {
        let s = summary(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (3, 1.0, 2.0, 3.0));
        let s = summary(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (4, 1.0, 2.5, 4.0));
        let s = summary(&[7.5]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (1, 7.5, 7.5, 7.5));
        assert!(summary(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(percentile_sorted(&sorted, 50.0), 20);
        assert_eq!(percentile_sorted(&sorted, 99.0), 40);
        assert_eq!(percentile_sorted(&sorted, 0.0), 10);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    #[test]
    fn fnv_matches_the_repository_pins_construction() {
        // Same construction as `bench_serving::fnv1a`: known vectors.
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        write!(h, "a").unwrap();
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut split = Fnv::new();
        write!(split, "foo").unwrap();
        write!(split, "bar").unwrap();
        let mut whole = Fnv::new();
        write!(whole, "foobar").unwrap();
        assert_eq!(split.finish(), whole.finish());
        assert_eq!(whole.finish(), 0x8594_4171_f739_67e8);
    }
}
