//! Misconfiguration injection: the deliberately-broken zone states the
//! paper's methodology depends on (expired signatures for the `expired` and
//! `it-2501-expired` testbed zones, corrupted signatures for bogus
//! answers).

use dns_wire::name::Name;
use dns_wire::rdata::RData;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signer::{sign_zone, verify_rrsig, SignerConfig};
    use crate::zone::Zone;
    use dns_wire::name::name;
    use dns_wire::record::Record;
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
}
