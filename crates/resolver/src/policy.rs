//! The RFC 9276 validator-side policy knobs (Table 1, items 6–12).

use dns_wire::edns::EdeCode;

/// How a validating resolver treats NSEC3 iteration counts and related
/// corner cases. Every knob corresponds to an item of RFC 9276 Table 1.
#[derive(Clone, Debug, PartialEq)]
pub struct Rfc9276Policy {
    /// Item 6 (MAY): treat responses whose NSEC3 records carry more than
    /// this many additional iterations as *insecure* (strip AD, skip proof
    /// validation). `None` = no limit.
    pub insecure_above: Option<u16>,
    /// Item 8 (MAY): return SERVFAIL when NSEC3 iterations exceed this.
    /// `None` = never. When both limits are set RFC 9276 item 12 says they
    /// SHOULD be equal; the paper found 4.3 % of validators with a gap.
    pub servfail_above: Option<u16>,
    /// Item 7 (SHOULD): verify the RRSIG over NSEC3 records *before*
    /// honoring their iteration count for the insecure downgrade. The
    /// paper found 0.2 % of validators skipping this.
    pub verify_nsec3_rrsig: bool,
    /// Items 10–11: attach EDE INFO-CODE 27 to insecure/SERVFAIL responses
    /// triggered by the limits.
    pub emit_ede: bool,
    /// Some public resolvers attach a *different* EDE code (Google returns
    /// 5 "DNSSEC Indeterminate" or 12 "NSEC Missing" instead of 27).
    pub ede_code: EdeCode,
    /// EXTRA-TEXT to attach alongside the EDE (Technitium style).
    pub ede_extra_text: String,
    /// Salt length above which the same limit treatment applies (no RFC
    /// number assigns this, but CVE-2023-50868 patches bound total work;
    /// `None` = salt ignored).
    pub max_salt_len: Option<u8>,
}

impl Rfc9276Policy {
    /// No limits at all: the pre-2021 validator behaviour.
    pub fn unlimited() -> Self {
        Rfc9276Policy {
            insecure_above: None,
            servfail_above: None,
            verify_nsec3_rrsig: true,
            emit_ede: false,
            ede_code: EdeCode::UNSUPPORTED_NSEC3_ITERATIONS,
            ede_extra_text: String::new(),
            max_salt_len: None,
        }
    }

    /// Insecure above `n` iterations (item 6), EDE 27 attached.
    pub fn insecure_above(n: u16) -> Self {
        Rfc9276Policy {
            insecure_above: Some(n),
            emit_ede: true,
            ..Self::unlimited()
        }
    }

    /// SERVFAIL above `n` iterations (item 8), EDE 27 attached.
    pub fn servfail_above(n: u16) -> Self {
        Rfc9276Policy {
            servfail_above: Some(n),
            emit_ede: true,
            ..Self::unlimited()
        }
    }

    /// The action the policy prescribes for a response using `iterations`
    /// additional iterations and a salt of `salt_len` bytes.
    pub(crate) fn action_for(&self, iterations: u16, salt_len: usize) -> LimitAction {
        let over_salt = self
            .max_salt_len
            .map(|m| salt_len > m as usize)
            .unwrap_or(false);
        if let Some(limit) = self.servfail_above {
            if iterations > limit || over_salt {
                return LimitAction::ServFail;
            }
        }
        if let Some(limit) = self.insecure_above {
            if iterations > limit || over_salt {
                return LimitAction::TreatInsecure;
            }
        }
        LimitAction::Process
    }
}

impl Default for Rfc9276Policy {
    /// The RFC 9276-recommended modern default, matching the post-CVE
    /// patches of BIND 9.19.19 / Knot / PowerDNS: insecure above 50.
    fn default() -> Self {
        Self::insecure_above(50)
    }
}

/// Per-query validator work budget — the backstop below the iteration
/// clamp's radar.
///
/// `Rfc9276Policy` rejects *declared* cost (the iteration count and salt
/// length printed in the NSEC3 records). Two attack families slip past it:
/// deep closest-encloser chains keep iterations under the clamp but multiply
/// the number of hash chains per proof (arXiv 2403.15233), and
/// colliding-keytag DNSKEY sets multiply signature verification attempts per
/// RRSIG without touching NSEC3 parameters at all (KeyTrap, arXiv
/// 2406.03133). The budget instead bounds *spent* cost: once a single client
/// query has charged more SHA-1 compressions or signature verifications to
/// the [`CostMeter`](crate::cost::CostMeter) than allowed, validation aborts
/// with SERVFAIL and an EDE — the same early-exit shape the 2024 resolver
/// patches adopted.
///
/// Enforcement granularity is the unit of charging: one NSEC3 hash chain or
/// one signature verification. A query can therefore overshoot the
/// compression budget by at most one chain — which is exactly what the
/// iteration clamp bounds, so the two layers compose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkBudget {
    /// Maximum SHA-1 compressions one query may spend on NSEC3 hashing.
    /// `None` = unlimited.
    pub max_compressions: Option<u64>,
    /// Maximum signature verification attempts per query. `None` =
    /// unlimited.
    pub max_signatures: Option<u64>,
}

impl WorkBudget {
    /// No budget: the pre-2024 validator behaviour (and the default, so
    /// existing configurations and pinned outputs are untouched).
    pub fn unlimited() -> Self {
        WorkBudget {
            max_compressions: None,
            max_signatures: None,
        }
    }

    /// The hardened post-CVE shape. 1,000 compressions covers any honest
    /// RFC 9276 proof chain by two orders of magnitude (a compliant
    /// NXDOMAIN proof spends ~6 single-compression chains); 16 signature
    /// attempts covers a cold-cache validation path to a leaf (~8) with
    /// headroom, while a dozen colliding keytags blow through it on the
    /// second RRset.
    pub fn hardened() -> Self {
        WorkBudget {
            max_compressions: Some(1_000),
            max_signatures: Some(16),
        }
    }
}

impl Default for WorkBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Outcome of the iteration-limit check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LimitAction {
    /// Within limits: validate normally.
    Process,
    /// Item 6: treat the response as insecure.
    TreatInsecure,
    /// Item 8: refuse with SERVFAIL.
    ServFail,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_processes() {
        let p = Rfc9276Policy::unlimited();
        assert_eq!(p.action_for(2500, 255), LimitAction::Process);
    }

    #[test]
    fn insecure_threshold_is_exclusive() {
        let p = Rfc9276Policy::insecure_above(150);
        assert_eq!(p.action_for(150, 0), LimitAction::Process);
        assert_eq!(p.action_for(151, 0), LimitAction::TreatInsecure);
    }

    #[test]
    fn servfail_takes_precedence() {
        let mut p = Rfc9276Policy::servfail_above(150);
        p.insecure_above = Some(150);
        assert_eq!(p.action_for(151, 0), LimitAction::ServFail);
        assert_eq!(p.action_for(150, 0), LimitAction::Process);
    }

    #[test]
    fn zero_limit_rejects_any_iterations() {
        // The paper's 418 resolvers SERVFAILing from it-1 behave like a
        // servfail_above(0) policy.
        let p = Rfc9276Policy::servfail_above(0);
        assert_eq!(p.action_for(0, 0), LimitAction::Process);
        assert_eq!(p.action_for(1, 0), LimitAction::ServFail);
    }

    #[test]
    fn work_budget_defaults_unlimited() {
        assert_eq!(WorkBudget::default(), WorkBudget::unlimited());
        assert_ne!(WorkBudget::hardened(), WorkBudget::unlimited());
    }

    #[test]
    fn salt_limit_applies() {
        let mut p = Rfc9276Policy::insecure_above(150);
        p.max_salt_len = Some(8);
        assert_eq!(p.action_for(0, 9), LimitAction::TreatInsecure);
        assert_eq!(p.action_for(0, 8), LimitAction::Process);
    }
}
