//! Small statistics toolkit: empirical CDFs and percentage helpers.

/// An empirical cumulative distribution over `u32` sample values.
///
/// Stored run-length — distinct values with cumulative counts — so the
/// footprint is O(distinct values), not O(samples). A streaming census
/// over millions of domains feeds the handful of distinct NSEC3
/// parameter values through `Cdf::from_counts` without ever holding
/// per-domain samples; [`Cdf::from_samples`] collapses to the same
/// representation, so both construction paths are indistinguishable
/// through the query API.
#[derive(Clone)]
pub struct Cdf {
    /// Distinct sample values, ascending.
    values: Vec<u32>,
    /// `cumulative[i]` = number of samples ≤ `values[i]`.
    cumulative: Vec<u64>,
}

impl std::fmt::Debug for Cdf {
    /// Renders the expanded sample list, exactly as the pre-run-length
    /// representation derived it — golden outputs that print a
    /// [`Cdf`] (the pinned driver reports do) must not move with the
    /// internal storage.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Expanded<'a>(&'a Cdf);
        impl std::fmt::Debug for Expanded<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let mut list = f.debug_list();
                let mut prev = 0u64;
                for (&v, &c) in self.0.values.iter().zip(&self.0.cumulative) {
                    for _ in prev..c {
                        list.entry(&v);
                    }
                    prev = c;
                }
                list.finish()
            }
        }
        f.debug_struct("Cdf")
            .field("sorted", &Expanded(self))
            .finish()
    }
}

impl Cdf {
    /// Build from any sample iterator.
    pub fn from_samples<I: IntoIterator<Item = u32>>(samples: I) -> Self {
        let mut counts: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for s in samples {
            *counts.entry(s).or_default() += 1;
        }
        Cdf::from_counts(counts)
    }

    /// Build from `(value, count)` pairs in ascending value order with no
    /// repeated values — the shape a [`std::collections::BTreeMap`]
    /// iterates in. Zero-count pairs are skipped.
    pub(crate) fn from_counts<I: IntoIterator<Item = (u32, u64)>>(counts: I) -> Self {
        let mut values = Vec::new();
        let mut cumulative = Vec::new();
        let mut acc = 0u64;
        for (v, c) in counts {
            if c == 0 {
                continue;
            }
            debug_assert!(values.last().is_none_or(|&last| last < v), "ascending");
            acc += c;
            values.push(v);
            cumulative.push(acc);
        }
        Cdf { values, cumulative }
    }

    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.cumulative.last().copied().unwrap_or(0) as usize
    }

    /// True when no samples were supplied.
    pub(crate) fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of samples ≤ `x`.
    fn count_at_most(&self, x: u32) -> u64 {
        match self.values.partition_point(|&v| v <= x) {
            0 => 0,
            i => self.cumulative[i - 1],
        }
    }

    /// Fraction of samples ≤ `x`, in `[0, 1]`.
    pub fn fraction_at_most(&self, x: u32) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.count_at_most(x) as f64 / self.len() as f64
    }

    /// Number of samples strictly greater than `x`.
    pub fn count_over(&self, x: u32) -> usize {
        (self.len() as u64 - self.count_at_most(x)) as usize
    }

    /// Largest sample.
    pub fn max(&self) -> Option<u32> {
        self.values.last().copied()
    }

    /// `(x, pct ≤ x)` pairs at every distinct sample value — the series a
    /// CDF plot draws.
    pub fn points(&self) -> Vec<(u32, f64)> {
        let n = self.len() as f64;
        self.values
            .iter()
            .zip(&self.cumulative)
            .map(|(&v, &c)| (v, c as f64 / n * 100.0))
            .collect()
    }
}

/// One-sample Kolmogorov–Smirnov statistic against the uniform
/// distribution on `[0, max]`: the maximum absolute gap between the
/// empirical CDF and the uniform CDF. Figure 2's claim that compliance
/// "increases uniformly, indicating that compliance … is uniformly
/// distributed among the ranks" is this statistic being small.
pub fn ks_uniform(cdf: &Cdf, max: u32) -> f64 {
    if cdf.is_empty() || max == 0 {
        return 0.0;
    }
    let mut worst: f64 = 0.0;
    for (x, pct) in cdf.points() {
        let empirical = pct / 100.0;
        let uniform = (x.min(max) as f64) / max as f64;
        worst = worst.max((empirical - uniform).abs());
        // Also check just before the step (the lower envelope).
        let n = cdf.len() as f64;
        let before = empirical - 1.0 / n;
        worst = worst.max((uniform - before).abs());
    }
    worst
}

/// Percentage of `part` in `whole` (0 when `whole` is 0).
pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

/// Format a percentage the way the paper does (one decimal).
pub fn fmt_pct(p: f64) -> String {
    format!("{p:.1} %")
}

/// Human-readable large count (e.g. `15.5 M`, `105.2 K`).
pub fn fmt_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1} M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.1} K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::from_samples([1, 1, 2, 5, 10]);
        assert_eq!(cdf.len(), 5);
        assert!((cdf.fraction_at_most(1) - 0.4).abs() < 1e-9);
        assert!((cdf.fraction_at_most(5) - 0.8).abs() < 1e-9);
        assert!((cdf.fraction_at_most(100) - 1.0).abs() < 1e-9);
        assert_eq!(cdf.count_over(5), 1);
        assert_eq!(cdf.max(), Some(10));
    }

    #[test]
    fn cdf_points_deduplicate() {
        let cdf = Cdf::from_samples([0, 0, 0, 8, 8, 40]);
        let pts = cdf.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].0, 0);
        assert!((pts[0].1 - 50.0).abs() < 1e-9);
        assert!((pts[2].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cdf_is_safe() {
        let cdf = Cdf::from_samples([]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_most(5), 0.0);
        assert_eq!(cdf.count_over(5), 0);
        assert!(cdf.points().is_empty());
    }

    #[test]
    fn ks_statistic_detects_uniformity_and_skew() {
        // Uniform samples: small statistic.
        let uniform = Cdf::from_samples(0..1000);
        assert!(
            ks_uniform(&uniform, 999) < 0.01,
            "{}",
            ks_uniform(&uniform, 999)
        );
        // Heavily skewed samples: large statistic.
        let skewed = Cdf::from_samples((0..1000).map(|i| i / 10));
        assert!(ks_uniform(&skewed, 999) > 0.5);
        // Degenerate inputs are safe.
        assert_eq!(ks_uniform(&Cdf::from_samples([]), 10), 0.0);
        assert_eq!(ks_uniform(&uniform, 0), 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_pct(87.84), "87.8 %");
        assert_eq!(fmt_count(15_500_000), "15.5 M");
        assert_eq!(fmt_count(105_200), "105.2 K");
        assert_eq!(fmt_count(447), "447");
        assert_eq!(pct(122, 1000), 12.2);
        assert_eq!(pct(1, 0), 0.0);
    }
}
