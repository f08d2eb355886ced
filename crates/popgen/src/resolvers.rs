//! The resolver fleet, calibrated to §5.2:
//!
//! * pools: 1.4 M open IPv4 (105.2 K validators), 509 K open IPv6 (6.8 K
//!   validators), 2.5 K closed (1,236 IPv4 + 689 IPv6 validators);
//! * 59.9 % of validators implement item 6 (insecure above a limit), with
//!   thresholds 150 ≫ 100 (Google-style, 36.4 % of open IPv4 validators)
//!   ≫ 50 (12.5× fewer than 150);
//! * 18.4 % implement item 8 (SERVFAIL), mostly starting at 151, plus the
//!   418 query-copiers SERVFAILing from it-1 and the 92 Technitium-style
//!   resolvers from it-101;
//! * 0.2 % of insecure-responders violate item 7; 4.3 % are flaky
//!   two-threshold resolvers (item 12); < 18 % of limiting open resolvers
//!   expose EDE 27.

use sim_rng::{Rng, Xoshiro256pp};

use crate::scale::{allocate, Scale};

/// Address family of a resolver.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Family {
    /// IPv4.
    V4,
    /// IPv6.
    V6,
}

/// Openness of a resolver.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Access {
    /// Answers anyone (found by Internet-wide scanning).
    Open,
    /// Answers only its own network (reached via Atlas-style probes).
    Closed,
}

/// The behavioural archetype of one resolver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Behavior {
    /// Responds but does not validate.
    NonValidator,
    /// Validates with no iteration limit (pre-2021 software).
    ValidatorUnlimited,
    /// Item 6: insecure above `limit`. `google_style` selects Google's
    /// EDE codes (5/12) instead of 27 and the 100 threshold.
    InsecureAt {
        /// Iterations above this are treated insecure.
        limit: u16,
        /// Google Public DNS behaviour (EDE 5/12, not 27).
        google_style: bool,
    },
    /// Item 8: SERVFAIL from `first` iterations up. `technitium` adds
    /// EDE 27 with EXTRA-TEXT.
    ServfailFrom {
        /// First iteration count answered with SERVFAIL.
        first: u16,
        /// Technitium-style EDE 27 + EXTRA-TEXT.
        technitium: bool,
    },
    /// A query-copying middlebox: SERVFAIL from it-1, RA mirrors the query.
    QueryCopier,
    /// Item 12 violator: insecure band between `insecure` and
    /// `servfail_from`, flaky on re-query.
    FlakyGap {
        /// AD limit.
        insecure: u16,
        /// First SERVFAIL.
        servfail_from: u16,
    },
    /// Item 7 violator: downgrades on high iterations *without* verifying
    /// the NSEC3 RRSIG (returns NXDOMAIN even for `it-2501-expired`).
    Item7Violator {
        /// Iterations above this are treated insecure.
        limit: u16,
    },
}

/// One resolver in the fleet.
#[derive(Clone, Debug)]
pub struct ResolverSpec {
    /// Stable index (address assignment follows it).
    pub idx: u64,
    /// Address family.
    pub family: Family,
    /// Open or closed.
    pub access: Access,
    /// Behavioural archetype.
    pub behavior: Behavior,
    /// Whether EDE options survive to the client (forwarding middleboxes
    /// strip them; this is what keeps measured EDE support under 18 %).
    pub ede_visible: bool,
}

/// Paper §5.2 pool sizes.
pub(crate) mod totals {
    /// Open IPv4 resolvers responding with NOERROR.
    pub(crate) const OPEN_V4: u64 = 1_400_000;
    /// Open IPv4 validators.
    pub(crate) const OPEN_V4_VALIDATORS: u64 = 105_200;
    /// Open IPv6 hosts with port 53.
    pub(crate) const OPEN_V6: u64 = 509_000;
    /// Open IPv6 validators.
    pub(crate) const OPEN_V6_VALIDATORS: u64 = 6_800;
    /// Closed resolvers tested via Atlas.
    pub(crate) const CLOSED: u64 = 2_500;
    /// Closed IPv4 validators.
    pub(crate) const CLOSED_V4_VALIDATORS: u64 = 1_236;
    /// Closed IPv6 validators.
    pub(crate) const CLOSED_V6_VALIDATORS: u64 = 689;
}

/// Validator behaviour mix, weights in percent of each validator pool.
/// Sums to 100. See the module docs for the §5.2 derivation.
const VALIDATOR_MIX: &[(Behavior, f64)] = &[
    (
        Behavior::InsecureAt {
            limit: 100,
            google_style: true,
        },
        36.40,
    ),
    (
        Behavior::InsecureAt {
            limit: 150,
            google_style: false,
        },
        21.54,
    ),
    (
        Behavior::InsecureAt {
            limit: 50,
            google_style: false,
        },
        1.72,
    ),
    (Behavior::Item7Violator { limit: 150 }, 0.12),
    (
        Behavior::ServfailFrom {
            first: 151,
            technitium: false,
        },
        17.95,
    ),
    (
        Behavior::ServfailFrom {
            first: 1,
            technitium: false,
        },
        0.37,
    ), // copiers, see below
    (
        Behavior::ServfailFrom {
            first: 101,
            technitium: true,
        },
        0.08,
    ),
    (
        Behavior::FlakyGap {
            insecure: 100,
            servfail_from: 151,
        },
        4.30,
    ),
    (Behavior::ValidatorUnlimited, 17.52),
];

/// Probability a limiting open resolver hides its EDE (forwarder in the
/// path); tuned so measured EDE-27 support lands under the paper's 18 %.
const EDE_STRIP_P: f64 = 0.78;

/// Generate the full fleet at `scale` with the paper's 2024 behaviour
/// mix. Deterministic per `(scale, seed)`.
pub fn generate_fleet(scale: Scale, seed: u64) -> Vec<ResolverSpec> {
    generate_fleet_with_mix(scale, seed, VALIDATOR_MIX)
}

/// Generate a fleet with an explicit validator behaviour mix — the
/// timeline experiments use this to model other eras (pre-2021
/// unlimited validators, post-CVE 50-limits).
pub fn generate_fleet_with_mix(
    scale: Scale,
    seed: u64,
    mix: &[(Behavior, f64)],
) -> Vec<ResolverSpec> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xf1ee7);
    let mut out: Vec<ResolverSpec> = Vec::new();
    let mut idx = 0u64;
    let pools: &[(Family, Access, u64, u64)] = &[
        (
            Family::V4,
            Access::Open,
            totals::OPEN_V4,
            totals::OPEN_V4_VALIDATORS,
        ),
        (
            Family::V6,
            Access::Open,
            totals::OPEN_V6,
            totals::OPEN_V6_VALIDATORS,
        ),
        (
            Family::V4,
            Access::Closed,
            totals::CLOSED * totals::CLOSED_V4_VALIDATORS
                / (totals::CLOSED_V4_VALIDATORS + totals::CLOSED_V6_VALIDATORS),
            totals::CLOSED_V4_VALIDATORS,
        ),
        (
            Family::V6,
            Access::Closed,
            totals::CLOSED
                - totals::CLOSED * totals::CLOSED_V4_VALIDATORS
                    / (totals::CLOSED_V4_VALIDATORS + totals::CLOSED_V6_VALIDATORS),
            totals::CLOSED_V6_VALIDATORS,
        ),
    ];
    for &(family, access, pool_total, pool_validators) in pools {
        let validators = scale.apply_min1(pool_validators);
        let total = scale.apply_min1(pool_total).max(validators);
        let non_validators = total - validators;
        let weights: Vec<f64> = mix.iter().map(|(_, w)| *w).collect();
        let mut counts = allocate(validators, &weights);
        // Small behavioural groups (copiers, Technitium, item-7 violators,
        // flaky) must survive scaling: steal one from the largest slice for
        // any zeroed nonzero-weight slice. This slightly inflates their
        // share at tiny scales, which EXPERIMENTS.md notes.
        if validators as usize >= counts.len() {
            for i in 0..counts.len() {
                if counts[i] == 0 && weights[i] > 0.0 {
                    let max_idx = (0..counts.len()).max_by_key(|&j| counts[j]).unwrap();
                    if counts[max_idx] > 1 {
                        counts[max_idx] -= 1;
                        counts[i] = 1;
                    }
                }
            }
        }
        let mut pool: Vec<ResolverSpec> = Vec::with_capacity(total as usize);
        for (mix_idx, &count) in counts.iter().enumerate() {
            let (behavior, _) = mix[mix_idx];
            // The copier slice becomes real QueryCopier behaviour, and the
            // paper puts copiers and Technitium almost entirely in the
            // open-IPv4 pool.
            let behavior = match behavior {
                Behavior::ServfailFrom { first: 1, .. } => Behavior::QueryCopier,
                b => b,
            };
            let misplaced = matches!(
                behavior,
                Behavior::QueryCopier
                    | Behavior::ServfailFrom {
                        technitium: true,
                        ..
                    }
            ) && !(family == Family::V4 && access == Access::Open);
            for _ in 0..count {
                let effective = if misplaced {
                    Behavior::ServfailFrom {
                        first: 151,
                        technitium: false,
                    }
                } else {
                    behavior
                };
                let ede_visible = match access {
                    Access::Closed => false, // Atlas never shows EDE anyway
                    Access::Open => !rng.gen_bool(EDE_STRIP_P),
                };
                pool.push(ResolverSpec {
                    idx,
                    family,
                    access,
                    behavior: effective,
                    ede_visible,
                });
                idx += 1;
            }
        }
        for _ in 0..non_validators {
            pool.push(ResolverSpec {
                idx,
                family,
                access,
                behavior: Behavior::NonValidator,
                ede_visible: true,
            });
            idx += 1;
        }
        rng.shuffle(&mut pool);
        out.extend(pool);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> Vec<ResolverSpec> {
        generate_fleet(Scale(1.0 / 1_000.0), 11)
    }

    #[test]
    fn pool_sizes_scale() {
        let f = fleet();
        let open_v4 = f
            .iter()
            .filter(|r| r.family == Family::V4 && r.access == Access::Open)
            .count() as u64;
        assert!((1_350..=1_450).contains(&open_v4), "{open_v4}");
        let v = f
            .iter()
            .filter(|r| {
                r.family == Family::V4
                    && r.access == Access::Open
                    && r.behavior != Behavior::NonValidator
            })
            .count() as u64;
        assert!(
            (100..=110).contains(&v),
            "validators {v} (paper: 105.2K/1000)"
        );
    }

    #[test]
    fn item6_item8_shares() {
        let f = fleet();
        let validators: Vec<_> = f
            .iter()
            .filter(|r| r.behavior != Behavior::NonValidator)
            .collect();
        let total = validators.len() as f64;
        let item6 = validators
            .iter()
            .filter(|r| {
                matches!(
                    r.behavior,
                    Behavior::InsecureAt { .. } | Behavior::Item7Violator { .. }
                )
            })
            .count() as f64;
        let item8 = validators
            .iter()
            .filter(|r| {
                matches!(
                    r.behavior,
                    Behavior::ServfailFrom { .. } | Behavior::QueryCopier
                )
            })
            .count() as f64;
        let p6 = item6 / total * 100.0;
        let p8 = item8 / total * 100.0;
        assert!((57.0..63.0).contains(&p6), "item6 {p6} (paper: 59.9)");
        assert!((16.0..21.0).contains(&p8), "item8 {p8} (paper: 18.4)");
    }

    #[test]
    fn threshold_ordering_150_over_100_over_50() {
        let f = fleet();
        let at = |limit: u16| {
            f.iter()
                .filter(
                    |r| matches!(r.behavior, Behavior::InsecureAt { limit: l, .. } if l == limit),
                )
                .count() as f64
        };
        let at150 = at(150);
        let at100 = at(100);
        let at50 = at(50);
        assert!(at100 > at150, "Google-style dominates open pools");
        assert!(at150 > at50);
        let ratio = at150 / at50;
        assert!(
            (9.0..16.0).contains(&ratio),
            "150:50 ratio {ratio} (paper: 12.5)"
        );
    }

    #[test]
    fn copiers_and_technitium_only_open_v4() {
        let f = fleet();
        for r in &f {
            match r.behavior {
                Behavior::QueryCopier
                | Behavior::ServfailFrom {
                    technitium: true, ..
                } => {
                    assert_eq!(r.family, Family::V4);
                    assert_eq!(r.access, Access::Open);
                }
                _ => {}
            }
        }
        let copiers = f
            .iter()
            .filter(|r| r.behavior == Behavior::QueryCopier)
            .count();
        assert!(copiers >= 1, "copier slice survives scaling");
    }

    #[test]
    fn closed_pool_counts() {
        let f = fleet();
        let closed_v4_val = f
            .iter()
            .filter(|r| {
                r.access == Access::Closed
                    && r.family == Family::V4
                    && r.behavior != Behavior::NonValidator
            })
            .count() as u64;
        let closed_v6_val = f
            .iter()
            .filter(|r| {
                r.access == Access::Closed
                    && r.family == Family::V6
                    && r.behavior != Behavior::NonValidator
            })
            .count() as u64;
        assert!((1..=2).contains(&closed_v4_val), "{closed_v4_val}");
        assert!(closed_v6_val >= 1);
    }

    #[test]
    fn ede_visibility_is_minority_for_open_validators() {
        let f = generate_fleet(Scale(1.0 / 100.0), 2);
        let limiting_open: Vec<_> = f
            .iter()
            .filter(|r| {
                r.access == Access::Open
                    && r.behavior != Behavior::NonValidator
                    && !matches!(r.behavior, Behavior::ValidatorUnlimited)
            })
            .collect();
        let visible = limiting_open.iter().filter(|r| r.ede_visible).count() as f64;
        let pct = visible / limiting_open.len() as f64 * 100.0;
        assert!(
            (17.0..28.0).contains(&pct),
            "visible EDE {pct}% (strip p = 0.78)"
        );
    }

    #[test]
    fn deterministic() {
        let a = generate_fleet(Scale(1.0 / 1_000.0), 9);
        let b = generate_fleet(Scale(1.0 / 1_000.0), 9);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(b.iter())
            .all(|(x, y)| x.behavior == y.behavior));
    }
}
