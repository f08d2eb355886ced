//! The paper's future-work item ii made executable: "monitor the maximum
//! additional iteration values enforced by recursive resolvers" over
//! time. Each era's validator mix is calibrated to the vendor release
//! history the paper cites (§4.2): the 2021 round of updates introduced
//! the 150 limit, the late-2023 CVE patches lowered it to 50, and the
//! paper's 2024 measurement sits in between.

use crate::resolvers::Behavior;

/// One snapshot of the resolver ecosystem.
#[derive(Clone, Debug)]
pub struct Era {
    /// Label for reports.
    pub label: &'static str,
    /// Nominal year.
    pub year: u16,
    /// Validator behaviour mix (weights in percent).
    pub mix: &'static [(Behavior, f64)],
}

/// Pre-2021: RFC 5155's generous key-size limits only; effectively no
/// resolver-side iteration limit in practice.
const MIX_2020: &[(Behavior, f64)] = &[
    (Behavior::ValidatorUnlimited, 97.0),
    (
        Behavior::ServfailFrom {
            first: 1,
            technitium: false,
        },
        0.4,
    ),
    (
        Behavior::InsecureAt {
            limit: 150,
            google_style: false,
        },
        2.6,
    ),
];

/// 2021–2022: BIND 9.16.16 / Unbound 1.13.2 / Knot 5.3.1 / PowerDNS 4.5
/// ship the 150 limit; Google moves to 100.
const MIX_2022: &[(Behavior, f64)] = &[
    (Behavior::ValidatorUnlimited, 45.0),
    (
        Behavior::InsecureAt {
            limit: 150,
            google_style: false,
        },
        25.0,
    ),
    (
        Behavior::InsecureAt {
            limit: 100,
            google_style: true,
        },
        20.0,
    ),
    (
        Behavior::ServfailFrom {
            first: 151,
            technitium: false,
        },
        9.3,
    ),
    (
        Behavior::ServfailFrom {
            first: 1,
            technitium: false,
        },
        0.4,
    ),
    (
        Behavior::FlakyGap {
            insecure: 100,
            servfail_from: 151,
        },
        0.3,
    ),
];

/// March–April 2024: the paper's measured mix (see `resolvers`).
const MIX_2024: &[(Behavior, f64)] = &[
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
    ),
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

/// Projection: the CVE-2023-50868 patches (limit 50) fully deployed.
const MIX_PATCHED: &[(Behavior, f64)] = &[
    (
        Behavior::InsecureAt {
            limit: 50,
            google_style: false,
        },
        55.0,
    ),
    (
        Behavior::InsecureAt {
            limit: 100,
            google_style: true,
        },
        30.0,
    ),
    (
        Behavior::ServfailFrom {
            first: 51,
            technitium: false,
        },
        12.0,
    ),
    (
        Behavior::ServfailFrom {
            first: 1,
            technitium: false,
        },
        0.4,
    ),
    (Behavior::ValidatorUnlimited, 2.6),
];

/// The monitored timeline.
pub fn eras() -> Vec<Era> {
    vec![
        Era {
            label: "pre-guidance",
            year: 2020,
            mix: MIX_2020,
        },
        Era {
            label: "post-2021 vendor updates",
            year: 2022,
            mix: MIX_2022,
        },
        Era {
            label: "paper measurement",
            year: 2024,
            mix: MIX_2024,
        },
        Era {
            label: "CVE patches fully deployed",
            year: 2026,
            mix: MIX_PATCHED,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolvers::generate_fleet_with_mix;
    use crate::Scale;

    #[test]
    fn mixes_sum_to_100() {
        for era in eras() {
            let sum: f64 = era.mix.iter().map(|(_, w)| *w).sum();
            assert!((sum - 100.0).abs() < 0.1, "{}: {sum}", era.label);
        }
    }

    #[test]
    fn eras_are_monotone_in_time_and_strictness() {
        let es = eras();
        assert!(es.windows(2).all(|w| w[0].year < w[1].year));
        // Unlimited validators shrink over time.
        let unlimited_share = |mix: &[(Behavior, f64)]| {
            mix.iter()
                .filter(|(b, _)| matches!(b, Behavior::ValidatorUnlimited))
                .map(|(_, w)| *w)
                .sum::<f64>()
        };
        for w in es.windows(2) {
            assert!(
                unlimited_share(w[0].mix) >= unlimited_share(w[1].mix),
                "{} → {}",
                w[0].label,
                w[1].label
            );
        }
    }

    #[test]
    fn fleets_generate_for_every_era() {
        for era in eras() {
            let fleet = generate_fleet_with_mix(Scale(1.0 / 2_000.0), 5, era.mix);
            assert!(!fleet.is_empty(), "{}", era.label);
            let validators = fleet
                .iter()
                .filter(|r| r.behavior != Behavior::NonValidator)
                .count();
            assert!(validators > 10, "{}: {validators}", era.label);
        }
    }
}
