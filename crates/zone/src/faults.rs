//! Misconfiguration injection: the deliberately-broken zone states the
//! paper's methodology depends on (expired signatures for the `expired` and
//! `it-2501-expired` testbed zones, RFC 5155 consistency violations for the
//! domain census filters).

use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;

use crate::signer::SignedZone;

/// Corrupt (flip one byte of) every RRSIG covering `covered` anywhere in the
/// zone. Validation of those RRsets then fails as *bogus*.
pub fn corrupt_rrsigs_covering(z: &mut SignedZone, covered: RrType) -> usize {
    let names: Vec<Name> = z.zone.names().cloned().collect();
    let mut corrupted = 0;
    for name in names {
        if let Some(sigs) = z.zone.rrset_mut(&name, RrType::RRSIG) {
            for sig in sigs.iter_mut() {
                if let RData::Rrsig {
                    type_covered,
                    signature,
                    ..
                } = &mut sig.rdata
                {
                    if *type_covered == covered && !signature.is_empty() {
                        signature[0] ^= 0xff;
                        corrupted += 1;
                    }
                }
            }
        }
    }
    corrupted
}

/// Set the temporal validity of every RRSIG covering `covered` (or all
/// RRSIGs when `covered` is `None`) to an already-expired window.
///
/// This is how the testbed's `expired` and `it-2501-expired` zones are
/// built: the signatures are cryptographically correct but stale.
pub fn expire_rrsigs(z: &mut SignedZone, covered: Option<RrType>, now: u32) -> usize {
    let names: Vec<Name> = z.zone.names().cloned().collect();
    let mut expired = 0;
    for name in names {
        if let Some(sigs) = z.zone.rrset_mut(&name, RrType::RRSIG) {
            for sig in sigs.iter_mut() {
                if let RData::Rrsig {
                    type_covered,
                    expiration,
                    inception,
                    ..
                } = &mut sig.rdata
                {
                    if covered.map(|c| c == *type_covered).unwrap_or(true) {
                        *inception = now.saturating_sub(60 * 86_400);
                        *expiration = now.saturating_sub(30 * 86_400);
                        expired += 1;
                    }
                }
            }
        }
    }
    // NOTE: the signatures are now invalid (the timestamps are signed
    // fields), which is exactly what a really-expired zone looks like to a
    // validator that checks time first — and a validator that checks the
    // signature first sees bogus. Either way it is not secure.
    expired
}

/// Re-sign nothing, but overwrite the NSEC3PARAM iteration count so it
/// disagrees with the NSEC3 records — an RFC 5155 consistency violation the
/// census methodology (§4.1) filters out.
#[allow(dead_code)] // ROADMAP items 2 and 5 draw this reply
pub(crate) fn desync_nsec3param(z: &mut SignedZone, bogus_iterations: u16) -> bool {
    let apex = z.zone.apex().clone();
    if let Some(params) = z.zone.rrset_mut(&apex, RrType::NSEC3PARAM) {
        for rec in params.iter_mut() {
            if let RData::Nsec3Param { iterations, .. } = &mut rec.rdata {
                *iterations = bogus_iterations;
            }
        }
        return true;
    }
    false
}

/// Add a second NSEC3PARAM record at the apex (the census keeps only
/// domains with exactly one).
#[allow(dead_code)] // ROADMAP items 2 and 5 draw this reply
pub(crate) fn add_second_nsec3param(z: &mut SignedZone, iterations: u16, salt: Vec<u8>) {
    let apex = z.zone.apex().clone();
    let ttl = z.zone.negative_ttl();
    z.zone
        .add(Record::new(
            apex,
            ttl,
            RData::Nsec3Param {
                hash_alg: 1,
                flags: 0,
                iterations,
                salt,
            },
        ))
        .expect("apex is in zone");
}

/// Make one NSEC3 record disagree with the others' parameters (iterations
/// +1) — violates the RFC 5155 requirement that all NSEC3 records in a zone
/// share parameters.
#[allow(dead_code)] // ROADMAP items 2 and 5 draw this reply
pub(crate) fn desync_one_nsec3(z: &mut SignedZone) -> bool {
    let owners: Vec<Name> = z
        .zone
        .names()
        .filter(|n| z.zone.rrset(n, RrType::NSEC3).is_some())
        .cloned()
        .collect();
    if let Some(owner) = owners.first() {
        if let Some(recs) = z.zone.rrset_mut(owner, RrType::NSEC3) {
            for rec in recs.iter_mut() {
                if let RData::Nsec3 { iterations, .. } = &mut rec.rdata {
                    *iterations = iterations.wrapping_add(1);
                    return true;
                }
            }
        }
    }
    false
}

/// Remove every RRSIG covering `covered` — an unsigned-RRset hole.
#[allow(dead_code)] // ROADMAP items 2 and 5 draw this reply
pub(crate) fn strip_rrsigs_covering(z: &mut SignedZone, covered: RrType) -> usize {
    let names: Vec<Name> = z.zone.names().cloned().collect();
    let mut stripped = 0;
    for name in names {
        if let Some(sigs) = z.zone.rrset_mut(&name, RrType::RRSIG) {
            let before = sigs.len();
            sigs.retain(|sig| {
                !matches!(&sig.rdata, RData::Rrsig { type_covered, .. } if *type_covered == covered)
            });
            stripped += before - sigs.len();
        }
    }
    stripped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signer::{sign_zone, verify_rrsig, SignerConfig};
    use crate::zone::Zone;
    use dns_wire::name::name;
    use std::net::Ipv4Addr;

    const NOW: u32 = 1_710_000_000;

    fn signed() -> SignedZone {
        let mut z = Zone::new(name("example."));
        z.add(Record::new(
            name("example."),
            3600,
            RData::Soa {
                mname: name("ns1.example."),
                rname: name("host.example."),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            },
        ))
        .unwrap();
        z.add(Record::new(
            name("www.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ))
        .unwrap();
        sign_zone(&z, &SignerConfig::standard(&name("example."), NOW)).unwrap()
    }

    #[test]
    fn corrupt_breaks_verification() {
        let mut z = signed();
        let n = corrupt_rrsigs_covering(&mut z, RrType::NSEC3);
        assert!(n > 0);
        // Find one NSEC3 RRset and its (corrupted) sig; verification fails.
        let owner = z
            .zone
            .names()
            .find(|nm| z.zone.rrset(nm, RrType::NSEC3).is_some())
            .cloned()
            .unwrap();
        let rrset = z.zone.rrset(&owner, RrType::NSEC3).unwrap().to_vec();
        let sig = z
            .zone
            .rrset(&owner, RrType::RRSIG)
            .unwrap()
            .iter()
            .find(|s| matches!(&s.rdata, RData::Rrsig { type_covered, .. } if *type_covered == RrType::NSEC3))
            .cloned()
            .unwrap();
        let zsk = z.keys.iter().find(|k| !k.is_ksk()).unwrap();
        assert!(!verify_rrsig(
            &sig.rdata,
            &owner,
            &rrset,
            zsk.pair.public_key()
        ));
    }

    #[test]
    fn expire_moves_validity_window() {
        let mut z = signed();
        let n = expire_rrsigs(&mut z, None, NOW);
        assert!(n > 0);
        for rec in z.zone.iter() {
            if let RData::Rrsig { expiration, .. } = &rec.rdata {
                assert!(*expiration < NOW);
            }
        }
    }

    #[test]
    fn expire_only_selected_type() {
        let mut z = signed();
        expire_rrsigs(&mut z, Some(RrType::NSEC3), NOW);
        for rec in z.zone.iter() {
            if let RData::Rrsig {
                type_covered,
                expiration,
                ..
            } = &rec.rdata
            {
                if *type_covered == RrType::NSEC3 {
                    assert!(*expiration < NOW);
                } else {
                    assert!(*expiration > NOW);
                }
            }
        }
    }

    #[test]
    fn desync_param_changes_apex_only() {
        let mut z = signed();
        assert!(desync_nsec3param(&mut z, 999));
        let apex = z.zone.apex().clone();
        match &z.zone.rrset(&apex, RrType::NSEC3PARAM).unwrap()[0].rdata {
            RData::Nsec3Param { iterations, .. } => assert_eq!(*iterations, 999),
            _ => panic!(),
        }
        // NSEC3 records untouched.
        for rec in z.zone.iter() {
            if let RData::Nsec3 { iterations, .. } = &rec.rdata {
                assert_eq!(*iterations, 0);
            }
        }
    }

    #[test]
    fn second_param_added() {
        let mut z = signed();
        add_second_nsec3param(&mut z, 5, vec![1, 2]);
        let apex = z.zone.apex().clone();
        assert_eq!(z.zone.rrset(&apex, RrType::NSEC3PARAM).unwrap().len(), 2);
    }

    #[test]
    fn desync_one_nsec3_record() {
        let mut z = signed();
        assert!(desync_one_nsec3(&mut z));
        let mut seen = std::collections::HashSet::new();
        for rec in z.zone.iter() {
            if let RData::Nsec3 { iterations, .. } = &rec.rdata {
                seen.insert(*iterations);
            }
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn strip_removes_only_selected() {
        let mut z = signed();
        let n = strip_rrsigs_covering(&mut z, RrType::SOA);
        assert_eq!(n, 1);
        for rec in z.zone.iter() {
            if let RData::Rrsig { type_covered, .. } = &rec.rdata {
                assert_ne!(*type_covered, RrType::SOA);
            }
        }
    }
}
