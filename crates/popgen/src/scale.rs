//! Population scaling (DESIGN.md §5).
//!
//! Bulk category counts scale linearly; published percentages survive by
//! construction. Named long-tail outliers (the twelve 500-iteration
//! domains, the nine 160-byte salts, …) are injected with *absolute*
//! counts at every scale, because the paper reports them as absolute
//! counts and they are invisible in percentage space anyway.

/// A population scale factor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Scale a bulk count.
    pub(crate) fn apply(&self, count: u64) -> u64 {
        (count as f64 * self.0).round() as u64
    }

    /// Scale a count but keep at least one representative if the original
    /// was nonzero (used for small behavioural groups like the 92
    /// Technitium-style resolvers).
    pub(crate) fn apply_min1(&self, count: u64) -> u64 {
        if count == 0 {
            0
        } else {
            self.apply(count).max(1)
        }
    }
}

/// Largest-remainder allocation: split `total` into parts proportional to
/// `weights`, summing exactly to `total`.
pub fn allocate(total: u64, weights: &[f64]) -> Vec<u64> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 || total == 0 {
        return vec![0; weights.len()];
    }
    let raw: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut out: Vec<u64> = raw.iter().map(|r| r.floor() as u64).collect();
    let mut rem: i64 = total as i64 - out.iter().sum::<u64>() as i64;
    // Distribute the remainder to the largest fractional parts.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = raw[a] - raw[a].floor();
        let fb = raw[b] - raw[b].floor();
        fb.partial_cmp(&fa).unwrap()
    });
    let mut i = 0;
    while rem > 0 {
        out[order[i % order.len()]] += 1;
        rem -= 1;
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_rounds() {
        let s = Scale(0.001);
        assert_eq!(s.apply(302_000_000), 302_000);
        assert_eq!(s.apply(1), 0);
        assert_eq!(s.apply_min1(1), 1);
        assert_eq!(s.apply_min1(0), 0);
    }

    #[test]
    fn allocation_sums_exactly() {
        let parts = allocate(100, &[39.4, 9.5, 8.4, 5.0, 4.2]);
        assert_eq!(parts.iter().sum::<u64>(), 100);
        assert!(parts[0] > parts[4]);
        let parts = allocate(7, &[1.0, 1.0, 1.0]);
        assert_eq!(parts.iter().sum::<u64>(), 7);
    }

    #[test]
    fn allocation_handles_edge_cases() {
        assert_eq!(allocate(0, &[1.0, 2.0]), vec![0, 0]);
        assert_eq!(allocate(10, &[0.0, 0.0]), vec![0, 0]);
        let one = allocate(1, &[0.5, 0.5]);
        assert_eq!(one.iter().sum::<u64>(), 1);
    }

    #[test]
    fn proportions_roughly_respected() {
        let parts = allocate(1000, &[77.7, 22.3]);
        assert_eq!(parts, vec![777, 223]);
    }
}
