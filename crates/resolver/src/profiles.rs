//! Vendor behaviour profiles: the iteration-limit policies of the resolver
//! implementations and public DNS services the paper identifies (§4.2,
//! §5.2).
//!
//! | Software / service        | Behaviour above limit | Limit | EDE |
//! |---------------------------|-----------------------|-------|-----|
//! | BIND 9.16.16 (2021)       | insecure              | 150   | 27  |
//! | BIND 9.19.19 (2023, CVE)  | insecure              | 50    | 27  |
//! | Unbound 1.13.2            | insecure              | 150   | 27  |
//! | Knot Resolver 5.3.1       | insecure              | 150   | 27  |
//! | Knot Resolver (2023, CVE) | insecure              | 50    | 27  |
//! | PowerDNS Recursor 4.5     | insecure              | 150   | 27  |
//! | PowerDNS Recursor 5.0     | insecure              | 50    | 27  |
//! | Google Public DNS         | insecure              | 100   | 5/12, not 27 |
//! | Cloudflare 1.1.1.1        | SERVFAIL              | 150   | 27  |
//! | Cisco OpenDNS             | SERVFAIL              | 150   | none |
//! | Quad9                     | insecure              | 150   | none |
//! | Technitium                | SERVFAIL              | 100   | 27 + EXTRA-TEXT |

use dns_wire::edns::EdeCode;

use crate::policy::Rfc9276Policy;

/// A recognizable resolver implementation or public service.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum VendorProfile {
    Bind9_2021,
    Bind9_2023,
    Unbound,
    KnotResolver2021,
    KnotResolver2023,
    PowerDnsRecursor2021,
    PowerDnsRecursor2023,
    GooglePublicDns,
    Cloudflare,
    OpenDns,
    Quad9,
    Technitium,
    /// A validator predating the 2021 updates: no limits.
    LegacyUnlimited,
}

impl VendorProfile {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            VendorProfile::Bind9_2021 => "BIND 9.16 (2021)",
            VendorProfile::Bind9_2023 => "BIND 9.19 (2023)",
            VendorProfile::Unbound => "Unbound",
            VendorProfile::KnotResolver2021 => "Knot Resolver (2021)",
            VendorProfile::KnotResolver2023 => "Knot Resolver (2023)",
            VendorProfile::PowerDnsRecursor2021 => "PowerDNS Recursor 4.5",
            VendorProfile::PowerDnsRecursor2023 => "PowerDNS Recursor 5.0",
            VendorProfile::GooglePublicDns => "Google Public DNS",
            VendorProfile::Cloudflare => "Cloudflare 1.1.1.1",
            VendorProfile::OpenDns => "Cisco OpenDNS",
            VendorProfile::Quad9 => "Quad9",
            VendorProfile::Technitium => "Technitium DNS Server",
            VendorProfile::LegacyUnlimited => "pre-2021 validator",
        }
    }

    /// The RFC 9276 policy this vendor ships.
    pub fn policy(self) -> Rfc9276Policy {
        match self {
            VendorProfile::Bind9_2021
            | VendorProfile::Unbound
            | VendorProfile::KnotResolver2021
            | VendorProfile::PowerDnsRecursor2021 => Rfc9276Policy::insecure_above(150),
            VendorProfile::Bind9_2023
            | VendorProfile::KnotResolver2023
            | VendorProfile::PowerDnsRecursor2023 => Rfc9276Policy::insecure_above(50),
            VendorProfile::GooglePublicDns => Rfc9276Policy {
                // Insecure above 100; EDE present but with Google's codes
                // (5 DNSSEC Indeterminate / 12 NSEC Missing), not 27.
                ede_code: EdeCode::DNSSEC_INDETERMINATE,
                ..Rfc9276Policy::insecure_above(100)
            },
            VendorProfile::Cloudflare => Rfc9276Policy::servfail_above(150),
            VendorProfile::OpenDns => Rfc9276Policy {
                emit_ede: false,
                ..Rfc9276Policy::servfail_above(150)
            },
            VendorProfile::Quad9 => Rfc9276Policy {
                emit_ede: false,
                ..Rfc9276Policy::insecure_above(150)
            },
            VendorProfile::Technitium => Rfc9276Policy {
                ede_extra_text: "NSEC3 iterations count is greater than 100".to_string(),
                ..Rfc9276Policy::servfail_above(100)
            },
            VendorProfile::LegacyUnlimited => Rfc9276Policy::unlimited(),
        }
    }

    /// The iteration value *above which* behaviour changes, if limited.
    #[allow(dead_code)] // reads the calibrated table back: unit tests only
    pub(crate) fn threshold(self) -> Option<u16> {
        let p = self.policy();
        p.servfail_above.or(p.insecure_above)
    }

    /// All profiles, for sweeps.
    pub fn all() -> &'static [VendorProfile] {
        &[
            VendorProfile::Bind9_2021,
            VendorProfile::Bind9_2023,
            VendorProfile::Unbound,
            VendorProfile::KnotResolver2021,
            VendorProfile::KnotResolver2023,
            VendorProfile::PowerDnsRecursor2021,
            VendorProfile::PowerDnsRecursor2023,
            VendorProfile::GooglePublicDns,
            VendorProfile::Cloudflare,
            VendorProfile::OpenDns,
            VendorProfile::Quad9,
            VendorProfile::Technitium,
            VendorProfile::LegacyUnlimited,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LimitAction;

    #[test]
    fn thresholds_match_the_paper() {
        assert_eq!(VendorProfile::Bind9_2021.threshold(), Some(150));
        assert_eq!(VendorProfile::Bind9_2023.threshold(), Some(50));
        assert_eq!(VendorProfile::Unbound.threshold(), Some(150));
        assert_eq!(VendorProfile::GooglePublicDns.threshold(), Some(100));
        assert_eq!(VendorProfile::Cloudflare.threshold(), Some(150));
        assert_eq!(VendorProfile::Technitium.threshold(), Some(100));
        assert_eq!(VendorProfile::LegacyUnlimited.threshold(), None);
    }

    #[test]
    fn servfail_vs_insecure_split() {
        // SERVFAIL camp.
        for v in [
            VendorProfile::Cloudflare,
            VendorProfile::OpenDns,
            VendorProfile::Technitium,
        ] {
            let p = v.policy();
            assert!(p.servfail_above.is_some(), "{}", v.name());
            assert_eq!(p.action_for(151, 0), LimitAction::ServFail, "{}", v.name());
        }
        // Insecure camp.
        for v in [
            VendorProfile::Bind9_2021,
            VendorProfile::GooglePublicDns,
            VendorProfile::Quad9,
        ] {
            let p = v.policy();
            assert!(p.servfail_above.is_none(), "{}", v.name());
            assert_eq!(
                p.action_for(151, 0),
                LimitAction::TreatInsecure,
                "{}",
                v.name()
            );
        }
    }

    #[test]
    fn ede_matrix_matches_section_5_2() {
        assert!(VendorProfile::Cloudflare.policy().emit_ede);
        assert_eq!(
            VendorProfile::Cloudflare.policy().ede_code,
            EdeCode::UNSUPPORTED_NSEC3_ITERATIONS
        );
        assert!(!VendorProfile::OpenDns.policy().emit_ede);
        assert!(!VendorProfile::Quad9.policy().emit_ede);
        assert_eq!(
            VendorProfile::GooglePublicDns.policy().ede_code,
            EdeCode::DNSSEC_INDETERMINATE
        );
        assert!(!VendorProfile::Technitium.policy().ede_extra_text.is_empty());
    }

    #[test]
    fn google_boundary_is_100_101() {
        let p = VendorProfile::GooglePublicDns.policy();
        assert_eq!(p.action_for(100, 0), LimitAction::Process);
        assert_eq!(p.action_for(101, 0), LimitAction::TreatInsecure);
    }
}
