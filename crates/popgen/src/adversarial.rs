//! Adversarial denial-of-existence workloads.
//!
//! Three attack families drawn from the resource-exhaustion literature the
//! paper's §7 mitigation discussion anticipates, plus an RFC 9276 baseline
//! for ratio reporting:
//!
//! * **MaxIterations** — the protocol-maximum NSEC3 parameters (2,500
//!   additional iterations, 255-byte salt; RFC 5155 §10.3's largest cap).
//!   Every denial proof costs the validator thousands of SHA-1
//!   compressions (CVE-2023-50868 / arXiv 2403.15233 territory).
//! * **DeepChain** — parameters crafted to slip *under* an
//!   iteration-clamping resolver's SERVFAIL threshold (150 iterations,
//!   the RFC 5155 §10.3 cap for 1024-bit keys) while maximizing hash
//!   work per NXDOMAIN through deep closest-encloser walks: every query
//!   name carries many nonexistent labels, and RFC 5155 §8.3 makes the
//!   resolver hash each candidate encloser.
//! * **KeytagCollision** — RFC 9276-compliant NSEC3 parameters, but the
//!   zone publishes a sheaf of decoy DNSKEYs whose key tags all collide
//!   with the real ZSK's (the KeyTrap ingredient, arXiv 2406.03133).
//!   Tags are hints, not identifiers, so a validator must attempt a
//!   signature verification against every colliding key.
//!
//! This module is *plain data*: which zones exist, with which knobs.
//! Translating specs into signed zones (and decoy keys into DNSKEY
//! RDATAs) happens in `nsec3-core`, which owns the `dns-zone` dependency.

/// One adversarial workload family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttackFamily {
    /// RFC 9276-compliant control zone (0 iterations, no salt).
    Baseline,
    /// Protocol-maximum iterations and salt (RFC 5155 §10.3 upper cap).
    MaxIterations,
    /// Clamp-evading iterations with deep closest-encloser chains.
    DeepChain,
    /// Compliant NSEC3 parameters plus colliding-keytag decoy DNSKEYs.
    KeytagCollision,
}

impl AttackFamily {
    /// All families, in reporting order (baseline first).
    pub const ALL: [AttackFamily; 4] = [
        AttackFamily::Baseline,
        AttackFamily::MaxIterations,
        AttackFamily::DeepChain,
        AttackFamily::KeytagCollision,
    ];

    /// Stable lowercase label for report keys and zone names.
    pub fn label(self) -> &'static str {
        match self {
            AttackFamily::Baseline => "baseline",
            AttackFamily::MaxIterations => "max-iterations",
            AttackFamily::DeepChain => "deep-chain",
            AttackFamily::KeytagCollision => "keytag-collision",
        }
    }

    /// NSEC3 additional iterations for this family.
    pub(crate) fn iterations(self) -> u16 {
        match self {
            AttackFamily::Baseline => 0,
            // RFC 5155 §10.3's largest cap (keys > 2048 bits).
            AttackFamily::MaxIterations => 2_500,
            // Exactly the §10.3 cap for 1024-bit keys: a clamp that
            // SERVFAILs only *above* 150 lets this through.
            AttackFamily::DeepChain => 150,
            AttackFamily::KeytagCollision => 0,
        }
    }

    /// NSEC3 salt length in bytes (255 is the wire-format maximum).
    pub(crate) fn salt_len(self) -> usize {
        match self {
            AttackFamily::Baseline => 0,
            AttackFamily::MaxIterations => 255,
            AttackFamily::DeepChain => 8,
            AttackFamily::KeytagCollision => 0,
        }
    }

    /// Nonexistent labels per attack query name. Each label below the
    /// zone apex is a closest-encloser candidate the validator must hash
    /// (RFC 5155 §8.3), so depth multiplies per-query iteration cost.
    pub(crate) fn label_depth(self) -> usize {
        match self {
            AttackFamily::DeepChain => 14,
            _ => 4,
        }
    }

    /// Decoy DNSKEYs published with key tags colliding with the ZSK's.
    pub(crate) fn decoy_keys(self) -> usize {
        match self {
            AttackFamily::KeytagCollision => 24,
            _ => 0,
        }
    }
}

/// One adversarial zone: an [`AttackFamily`] instantiated under a name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdversarialZoneSpec {
    /// Fully-qualified zone name (e.g. `atk0-max-iterations.example.`).
    pub name: String,
    /// The workload family this zone implements.
    pub family: AttackFamily,
    /// NSEC3 additional iterations.
    pub iterations: u16,
    /// NSEC3 salt length in bytes.
    pub salt_len: usize,
    /// Labels per attack query (closest-encloser chain depth).
    pub label_depth: usize,
    /// Number of colliding-keytag decoy DNSKEYs to publish.
    pub decoy_keys: usize,
}

/// Generate `per_family` zones of every family under `parent`
/// (a fully-qualified suffix such as `example.`). Deterministic.
pub fn generate_attack_zones(parent: &str, per_family: usize) -> Vec<AdversarialZoneSpec> {
    let mut out = Vec::with_capacity(per_family * AttackFamily::ALL.len());
    for family in AttackFamily::ALL {
        for i in 0..per_family {
            out.push(AdversarialZoneSpec {
                name: format!("atk{i}-{}.{parent}", family.label()),
                family,
                iterations: family.iterations(),
                salt_len: family.salt_len(),
                label_depth: family.label_depth(),
                decoy_keys: family.decoy_keys(),
            });
        }
    }
    out
}

/// The `q`-th attack query name for `zone`: `depth` labels, every one
/// keyed to `q` so no closest-encloser hash is shared between queries
/// (a cache-busting NXDOMAIN workload).
pub fn attack_qname(zone: &str, depth: usize, q: u64) -> String {
    let mut name = String::new();
    for lvl in 0..depth {
        name.push_str(&format!("v{lvl}q{q}."));
    }
    name.push_str(zone);
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_match_their_knobs() {
        assert_eq!(AttackFamily::Baseline.iterations(), 0);
        assert_eq!(AttackFamily::MaxIterations.iterations(), 2_500);
        assert_eq!(AttackFamily::MaxIterations.salt_len(), 255);
        // DeepChain must evade a `servfail_above(150)` clamp: strictly
        // greater-than triggers, so 150 exactly slips through.
        assert_eq!(AttackFamily::DeepChain.iterations(), 150);
        assert!(AttackFamily::DeepChain.label_depth() > AttackFamily::Baseline.label_depth());
        assert_eq!(AttackFamily::KeytagCollision.decoy_keys(), 24);
        assert_eq!(AttackFamily::KeytagCollision.iterations(), 0);
    }

    #[test]
    fn zone_generation_is_deterministic_and_complete() {
        let a = generate_attack_zones("example.", 2);
        let b = generate_attack_zones("example.", 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        for family in AttackFamily::ALL {
            assert_eq!(a.iter().filter(|z| z.family == family).count(), 2);
        }
        let names: std::collections::BTreeSet<_> = a.iter().map(|z| z.name.clone()).collect();
        assert_eq!(names.len(), 8, "zone names unique");
        assert!(names.contains("atk0-keytag-collision.example."));
    }

    #[test]
    fn attack_qnames_are_unique_and_deep() {
        let zone = "atk0-deep-chain.example.";
        let q0 = attack_qname(zone, 14, 0);
        let q1 = attack_qname(zone, 14, 1);
        assert_ne!(q0, q1);
        assert!(q0.ends_with(zone));
        // depth labels + the zone's own labels.
        assert_eq!(q0.matches('.').count(), 14 + zone.matches('.').count());
        // No label shared between queries: every level carries q.
        assert!(q0.split('.').take(14).all(|l| l.ends_with("q0")));
        // Stays within DNS limits (255 octets, 63 per label).
        assert!(q0.len() < 255);
        assert!(q0.split('.').all(|l| l.len() < 64));
    }
}
