//! The Tranco-style popularity list (§5.1, Figure 2).
//!
//! Calibration: the 1 M-rank list contains 66.6 K DNSSEC-enabled domains;
//! 27.2 K (40.8 %) of those are NSEC3-enabled. Among the NSEC3-enabled:
//! 22.8 % have zero additional iterations, 23.6 % no salt, and 12.7 %
//! both. Compliance is uniform across ranks (that uniformity is what
//! Figure 2 demonstrates).

use sim_rng::{Rng, Xoshiro256pp};

use crate::domains::DnssecKind;
use crate::scale::Scale;

/// One ranked entry.
#[derive(Clone, Debug)]
pub struct TrancoEntry {
    /// 1-based popularity rank.
    pub rank: u64,
    /// Domain name.
    pub name: String,
    /// DNSSEC state.
    pub dnssec: DnssecKind,
}

/// Paper §5.1 Tranco totals.
pub(crate) mod totals {
    /// List length.
    pub(crate) const RANKS: u64 = 1_000_000;
    /// DNSSEC-enabled entries.
    pub(crate) const DNSSEC: u64 = 66_600;
    /// NSEC3-enabled entries (40.8 % of DNSSEC).
    pub(crate) const NSEC3: u64 = 27_200;
    /// NSEC3 entries with zero iterations (%).
    pub(crate) const ITER_ZERO_PCT: f64 = 22.8;
    /// NSEC3 entries with no salt (%).
    pub(crate) const SALT_NONE_PCT: f64 = 23.6;
    /// NSEC3 entries compliant with both items 2 and 3 (%).
    pub(crate) const BOTH_PCT: f64 = 12.7;
}

/// Generate the list at `scale`, uniform compliance across ranks.
pub fn generate_tranco(scale: Scale, seed: u64) -> Vec<TrancoEntry> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x7a4c0);
    let ranks = scale.apply(totals::RANKS);
    let p_dnssec = totals::DNSSEC as f64 / totals::RANKS as f64;
    let p_nsec3_given_dnssec = totals::NSEC3 as f64 / totals::DNSSEC as f64;
    // Joint parameter distribution among NSEC3-enabled entries.
    let p_both = totals::BOTH_PCT / 100.0;
    let p_zero_only = totals::ITER_ZERO_PCT / 100.0 - p_both;
    let p_nosalt_only = totals::SALT_NONE_PCT / 100.0 - p_both;
    let mut out = Vec::with_capacity(ranks as usize);
    for rank in 1..=ranks {
        let name = format!("site{rank}.com.");
        let dnssec = if rng.gen_bool(p_dnssec) {
            if rng.gen_bool(p_nsec3_given_dnssec) {
                let roll: f64 = rng.next_f64();
                let (iterations, salt_len) = if roll < p_both {
                    (0, 0)
                } else if roll < p_both + p_zero_only {
                    (0, 8)
                } else if roll < p_both + p_zero_only + p_nosalt_only {
                    (1, 0)
                } else {
                    (1, 8)
                };
                DnssecKind::Nsec3 {
                    iterations,
                    salt_len,
                    opt_out: false,
                }
            } else {
                DnssecKind::Nsec
            }
        } else {
            DnssecKind::None
        };
        out.push(TrancoEntry { rank, name, dnssec });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list() -> Vec<TrancoEntry> {
        generate_tranco(Scale(0.1), 3) // 100 K ranks
    }

    #[test]
    fn dnssec_and_nsec3_shares() {
        let l = list();
        let dnssec = l.iter().filter(|e| e.dnssec != DnssecKind::None).count() as f64;
        let nsec3 = l
            .iter()
            .filter(|e| matches!(e.dnssec, DnssecKind::Nsec3 { .. }))
            .count() as f64;
        let d_pct = dnssec / l.len() as f64 * 100.0;
        assert!((6.0..7.4).contains(&d_pct), "DNSSEC {d_pct} (paper: 6.66)");
        let n_pct = nsec3 / dnssec * 100.0;
        assert!(
            (38.0..44.0).contains(&n_pct),
            "NSEC3|DNSSEC {n_pct} (paper: 40.8)"
        );
    }

    #[test]
    fn compliance_shares() {
        let l = list();
        let nsec3: Vec<_> = l
            .iter()
            .filter_map(|e| match e.dnssec {
                DnssecKind::Nsec3 {
                    iterations,
                    salt_len,
                    ..
                } => Some((iterations, salt_len)),
                _ => None,
            })
            .collect();
        let total = nsec3.len() as f64;
        let zero = nsec3.iter().filter(|(it, _)| *it == 0).count() as f64 / total * 100.0;
        let nosalt = nsec3.iter().filter(|(_, s)| *s == 0).count() as f64 / total * 100.0;
        let both =
            nsec3.iter().filter(|(it, s)| *it == 0 && *s == 0).count() as f64 / total * 100.0;
        assert!((20.0..26.0).contains(&zero), "it=0: {zero} (paper: 22.8)");
        assert!(
            (21.0..27.0).contains(&nosalt),
            "no salt: {nosalt} (paper: 23.6)"
        );
        assert!((10.0..15.5).contains(&both), "both: {both} (paper: 12.7)");
    }

    #[test]
    fn uniform_across_ranks() {
        // Figure 2's point: the CDF of ranks of compliant entries is the
        // diagonal. Check the top half and bottom half have similar
        // compliance rates.
        let l = list();
        let half = l.len() / 2;
        let rate = |slice: &[TrancoEntry]| {
            let n3 = slice
                .iter()
                .filter(|e| matches!(e.dnssec, DnssecKind::Nsec3 { .. }))
                .count() as f64;
            let z = slice
                .iter()
                .filter(|e| matches!(e.dnssec, DnssecKind::Nsec3 { iterations: 0, .. }))
                .count() as f64;
            z / n3.max(1.0)
        };
        let top = rate(&l[..half]);
        let bottom = rate(&l[half..]);
        assert!((top - bottom).abs() < 0.05, "top {top} vs bottom {bottom}");
    }

    #[test]
    fn ranks_ascending_and_deterministic() {
        let l = list();
        assert!(l.windows(2).all(|w| w[0].rank < w[1].rank));
        let l2 = generate_tranco(Scale(0.1), 3);
        assert_eq!(l.len(), l2.len());
        assert!(l.iter().zip(l2.iter()).all(|(a, b)| a.dnssec == b.dnssec));
    }
}
