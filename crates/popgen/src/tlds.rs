//! The TLD population — exact, not sampled (there are only 1,449).
//!
//! Calibration (§5.1): 1,449 delegated TLDs; 1,354 DNSSEC-enabled; 1,302
//! NSEC3-enabled (96.2 % of DNSSEC). Iterations: 688 at 0, 447 at 100
//! (all operated by one registry services provider, Identity Digital,
//! later reduced to 0), the remainder spread over small values.
//! Salt: 672 none, 558 eight bytes, 7 ten bytes (the maximum), the rest
//! assorted. Opt-out: 85.4 % of NSEC3-enabled TLDs. At least 1,105
//! publicly share zone data (CZDS/AXFR).

use crate::domains::DnssecKind;

/// One top-level domain.
#[derive(Clone, Debug)]
pub struct TldSpec {
    /// The TLD (e.g. `tld0042.`).
    pub name: String,
    /// DNSSEC state (TLDs use NSEC or NSEC3; 95 are unsigned).
    pub dnssec: DnssecKind,
    /// Managed by the "Identity Digital"-like registry services provider.
    pub registry_provider: Option<&'static str>,
    /// Publishes its zone file (CZDS or open AXFR).
    pub shares_zone: bool,
    /// Estimated registered domains under it (for the ≥12.6 M estimate of
    /// domains under the 447 TLDs).
    pub est_domains: u64,
}

/// The registry provider behind the 447 iteration-100 TLDs.
pub(crate) const IDENTITY_DIGITAL: &str = "Identity Digital";

/// Paper §5.1 TLD totals.
pub(crate) mod totals {
    /// Delegated TLDs analyzed.
    pub(crate) const TLDS: u64 = 1_449;
    /// DNSSEC-enabled TLDs.
    pub(crate) const DNSSEC: u64 = 1_354;
    /// NSEC3-enabled TLDs.
    pub(crate) const NSEC3: u64 = 1_302;
    /// NSEC3 TLDs with zero additional iterations.
    pub(crate) const ITER_ZERO: u64 = 688;
    /// NSEC3 TLDs with 100 additional iterations (Identity Digital).
    pub(crate) const ITER_100: u64 = 447;
    /// NSEC3 TLDs with no salt.
    pub(crate) const SALT_NONE: u64 = 672;
    /// NSEC3 TLDs with the common 8-byte salt.
    pub(crate) const SALT_8: u64 = 558;
    /// NSEC3 TLDs with the maximum observed 10-byte salt.
    pub(crate) const SALT_10: u64 = 7;
    /// Opt-out share among NSEC3 TLDs (%).
    pub(crate) const OPT_OUT_PCT: f64 = 85.4;
    /// NSEC3 TLDs sharing zone data.
    pub(crate) const SHARES_ZONE: u64 = 1_105;
    /// Lower-bound domain count under the 447 iteration-100 TLDs.
    pub(crate) const DOMAINS_UNDER_447: u64 = 12_600_000;
}

/// Generate the full (unscaled) TLD population, deterministic.
pub fn generate_tlds() -> Vec<TldSpec> {
    let mut out = Vec::with_capacity(totals::TLDS as usize);
    let nsec3 = totals::NSEC3;
    let nsec = totals::DNSSEC - nsec3; // 52
    let unsigned = totals::TLDS - totals::DNSSEC; // 95

    // Iteration assignment for NSEC3 TLDs: 688 × 0, 447 × 100, the
    // remaining 167 spread over 1/5/10 (values the CDF shows between).
    let mut iterations: Vec<u16> = Vec::with_capacity(nsec3 as usize);
    iterations.extend(std::iter::repeat_n(0, totals::ITER_ZERO as usize));
    iterations.extend(std::iter::repeat_n(100, totals::ITER_100 as usize));
    let remainder = (nsec3 - totals::ITER_ZERO - totals::ITER_100) as usize; // 167
    for i in 0..remainder {
        iterations.push(match i % 3 {
            0 => 1,
            1 => 5,
            _ => 10,
        });
    }

    // Salt assignment: 672 none, 558 × 8 B, 7 × 10 B, remaining 65
    // assorted small lengths.
    let mut salts: Vec<u8> = Vec::with_capacity(nsec3 as usize);
    salts.extend(std::iter::repeat_n(0, totals::SALT_NONE as usize));
    salts.extend(std::iter::repeat_n(8, totals::SALT_8 as usize));
    salts.extend(std::iter::repeat_n(10, totals::SALT_10 as usize));
    let rest = (nsec3 as usize) - salts.len(); // 65
    for i in 0..rest {
        salts.push(match i % 3 {
            0 => 4,
            1 => 2,
            _ => 6,
        });
    }
    // Pair iterations and salts such that the Identity Digital block is
    // contiguous and carries the common 8-byte salt: rotate the salt list
    // so index ranges line up plausibly. (Exact joint distribution is not
    // published; marginals are what we must reproduce.)
    let rot = totals::ITER_ZERO as usize % salts.len();
    salts.rotate_left(rot);

    let opt_out_count = (nsec3 as f64 * totals::OPT_OUT_PCT / 100.0).round() as usize;
    for i in 0..nsec3 as usize {
        let is_id = iterations[i] == 100;
        out.push(TldSpec {
            name: format!("tld{i:04}."),
            dnssec: DnssecKind::Nsec3 {
                iterations: iterations[i],
                salt_len: salts[i],
                opt_out: i < opt_out_count,
            },
            registry_provider: if is_id { Some(IDENTITY_DIGITAL) } else { None },
            shares_zone: i < totals::SHARES_ZONE as usize,
            est_domains: if is_id {
                // ≥ 12.6 M across 447 TLDs.
                totals::DOMAINS_UNDER_447 / totals::ITER_100 + 1
            } else {
                50_000
            },
        });
    }
    for i in 0..nsec as usize {
        out.push(TldSpec {
            name: format!("ntld{i:03}."),
            dnssec: DnssecKind::Nsec,
            registry_provider: None,
            shares_zone: true,
            est_domains: 100_000,
        });
    }
    for i in 0..unsigned as usize {
        out.push(TldSpec {
            name: format!("utld{i:03}."),
            dnssec: DnssecKind::None,
            registry_provider: None,
            shares_zone: false,
            est_domains: 10_000,
        });
    }
    out
}

/// The TLD population *after* the remediation the paper reports: "the
/// additional iterations for all 447 TLDs have been reduced from 100 to
/// 0, as required by RFC 9276" (§5.1). Everything else is unchanged.
pub fn generate_tlds_after_remediation() -> Vec<TldSpec> {
    let mut tlds = generate_tlds();
    for tld in &mut tlds {
        if tld.registry_provider == Some(IDENTITY_DIGITAL) {
            if let DnssecKind::Nsec3 { iterations, .. } = &mut tld.dnssec {
                *iterations = 0;
            }
        }
    }
    tlds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_exact() {
        let tlds = generate_tlds();
        assert_eq!(tlds.len() as u64, totals::TLDS);
        let dnssec = tlds.iter().filter(|t| t.dnssec != DnssecKind::None).count() as u64;
        assert_eq!(dnssec, totals::DNSSEC);
        let nsec3 = tlds
            .iter()
            .filter(|t| matches!(t.dnssec, DnssecKind::Nsec3 { .. }))
            .count() as u64;
        assert_eq!(nsec3, totals::NSEC3);
    }

    #[test]
    fn iteration_marginals() {
        let tlds = generate_tlds();
        let zero = tlds
            .iter()
            .filter(|t| matches!(t.dnssec, DnssecKind::Nsec3 { iterations: 0, .. }))
            .count() as u64;
        assert_eq!(zero, totals::ITER_ZERO);
        let hundred: Vec<_> = tlds
            .iter()
            .filter(|t| {
                matches!(
                    t.dnssec,
                    DnssecKind::Nsec3 {
                        iterations: 100,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(hundred.len() as u64, totals::ITER_100);
        assert!(hundred
            .iter()
            .all(|t| t.registry_provider == Some(IDENTITY_DIGITAL)));
        // Max iterations observed at TLDs is 100.
        assert!(tlds.iter().all(|t| match t.dnssec {
            DnssecKind::Nsec3 { iterations, .. } => iterations <= 100,
            _ => true,
        }));
    }

    #[test]
    fn salt_marginals() {
        let tlds = generate_tlds();
        let salt = |len: u8| {
            tlds.iter()
                .filter(
                    |t| matches!(t.dnssec, DnssecKind::Nsec3 { salt_len, .. } if salt_len == len),
                )
                .count() as u64
        };
        assert_eq!(salt(0), totals::SALT_NONE);
        assert_eq!(salt(8), totals::SALT_8);
        assert_eq!(salt(10), totals::SALT_10);
        // 10 bytes is the max.
        assert!(tlds.iter().all(|t| match t.dnssec {
            DnssecKind::Nsec3 { salt_len, .. } => salt_len <= 10,
            _ => true,
        }));
    }

    #[test]
    fn opt_out_and_zone_sharing() {
        let tlds = generate_tlds();
        let nsec3: Vec<_> = tlds
            .iter()
            .filter(|t| matches!(t.dnssec, DnssecKind::Nsec3 { .. }))
            .collect();
        let oo = nsec3
            .iter()
            .filter(|t| matches!(t.dnssec, DnssecKind::Nsec3 { opt_out: true, .. }))
            .count() as f64;
        let pct = oo / nsec3.len() as f64 * 100.0;
        assert!((85.0..86.0).contains(&pct), "opt-out {pct}");
        let sharing = nsec3.iter().filter(|t| t.shares_zone).count() as u64;
        assert_eq!(sharing, totals::SHARES_ZONE);
    }

    #[test]
    fn remediation_zeroes_the_447() {
        let after = generate_tlds_after_remediation();
        let zero = after
            .iter()
            .filter(|t| matches!(t.dnssec, DnssecKind::Nsec3 { iterations: 0, .. }))
            .count() as u64;
        assert_eq!(zero, totals::ITER_ZERO + totals::ITER_100); // 688 + 447
        assert!(after.iter().all(|t| !matches!(
            t.dnssec,
            DnssecKind::Nsec3 {
                iterations: 100,
                ..
            }
        )));
        // Compliance after remediation: (688+447)/1302 = 87.2 %.
        let pct = zero as f64 / totals::NSEC3 as f64 * 100.0;
        assert!((87.0..88.0).contains(&pct), "{pct}");
    }

    #[test]
    fn identity_digital_domain_estimate() {
        let tlds = generate_tlds();
        let under: u64 = tlds
            .iter()
            .filter(|t| t.registry_provider == Some(IDENTITY_DIGITAL))
            .map(|t| t.est_domains)
            .sum();
        assert!(under >= totals::DOMAINS_UNDER_447, "{under}");
    }
}
