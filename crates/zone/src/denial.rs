//! Authoritative-side denial-of-existence proof synthesis
//! (RFC 4035 §3.1.3, RFC 5155 §7.2).
//!
//! Given a signed zone and a query that has no positive answer, these
//! functions pick the NSEC/NSEC3 records (plus their RRSIGs) that prove
//! the negative — the records a validating resolver will burn CPU on when
//! iteration counts are high. A proof borrows its records from the zone;
//! nothing is copied until a caller asks for an owned message.

use std::ops::Bound;

use dns_wire::name::Name;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;

use crate::nsec3hash::nsec3_hash_cached;
use crate::signer::{Denial, SignedZone};
use crate::zone::ZoneNode;
use crate::ZoneError;

/// What kind of negative answer the proof supports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DenialKind {
    /// The name does not exist at all.
    NxDomain,
    /// The name exists but not with the queried type.
    NoData,
    /// The answer was synthesized from a wildcard; the proof shows the
    /// exact name does not exist.
    WildcardExpansion,
}

/// A denial proof: the authority-section records to attach, borrowed from
/// the zone.
#[derive(Clone, Debug)]
pub struct DenialProof<'z> {
    /// Proof classification.
    pub kind: DenialKind,
    /// NSEC/NSEC3 records with their RRSIGs, ready for the authority
    /// section.
    pub records: Vec<&'z Record>,
    /// The closest encloser used (NSEC3 NXDOMAIN proofs).
    pub closest_encloser: Option<Name>,
}

/// The `rrtype` denial record and its RRSIGs at each distinct owner, in
/// the order given. A proof names at most three owners and two often
/// coincide (one NSEC3 covering both the next closer and the wildcard).
/// Dropping the repeated *owner* is dropping the repeated *records*: the
/// records of one owner are the same records, and those of two owners
/// differ in their owner name.
fn records_at<'z>(z: &'z SignedZone, rrtype: RrType, owners: &[Option<&Name>]) -> Vec<&'z Record> {
    let mut records = Vec::with_capacity(2 * owners.len());
    for (i, owner) in owners.iter().enumerate() {
        let fresh = owner.filter(|_| !owners[..i].contains(owner));
        if let Some(node) = fresh.and_then(|o| z.zone.node(o)) {
            records.extend(node.with_sigs(rrtype, true));
        }
    }
    records
}

/// The NSEC3 owner whose hash equals the hash of `name`, if any.
pub(crate) fn nsec3_matching<'z>(z: &'z SignedZone, name: &Name) -> Option<&'z Name> {
    let params = z.nsec3_params()?;
    // Denial proofs re-hash the same closest enclosers for every negative
    // answer an auth server synthesizes; the thread cache absorbs that.
    let h = nsec3_hash_cached(name, params).digest;
    z.nsec3_index
        .binary_search_by(|(hash, _)| hash.cmp(&h))
        .ok()
        .map(|i| &z.nsec3_index[i].1)
}

/// The NSEC3 owner whose (circular) hash interval strictly covers the hash
/// of `name`. Returns `None` if the hash collides with an existing owner
/// (then a *matching* record exists instead) or the index is empty.
pub fn nsec3_covering<'z>(z: &'z SignedZone, name: &Name) -> Option<&'z Name> {
    let params = z.nsec3_params()?;
    let h = nsec3_hash_cached(name, params).digest;
    match z.nsec3_index.binary_search_by(|(hash, _)| hash.cmp(&h)) {
        Ok(_) => None, // exact match: not "covered", it's "matched"
        // Predecessor in circular order; index 0 wraps to the last.
        Err(0) => z.nsec3_index.last().map(|(_, owner)| owner),
        Err(insert_at) => Some(&z.nsec3_index[insert_at - 1].1),
    }
}

/// Assemble the NXDOMAIN proof for `qname`.
///
/// NSEC3 zones (RFC 5155 §7.2.2) need three records: one *matching* the
/// closest encloser, one *covering* the next-closer name, and one *covering*
/// the wildcard at the closest encloser. NSEC zones need the NSEC covering
/// `qname` and the one covering the wildcard.
pub fn nxdomain_proof<'z>(z: &'z SignedZone, qname: &Name) -> Result<DenialProof<'z>, ZoneError> {
    nxdomain_proof_below(z, qname, z.zone.closest_encloser(qname))
}

/// [`nxdomain_proof`] for a caller that already knows `qname`'s closest
/// encloser `ce` (the authoritative server finds it while ruling out a
/// wildcard answer).
pub fn nxdomain_proof_below<'z>(
    z: &'z SignedZone,
    qname: &Name,
    ce: Name,
) -> Result<DenialProof<'z>, ZoneError> {
    let wildcard = ce.prepend(b"*").map_err(|_| ZoneError::NameTooLong)?;
    let (records, ce) = match &z.denial {
        Denial::Nsec3 { .. } => {
            let next_closer = next_closer_name(qname, &ce)?;
            let owners = [
                nsec3_matching(z, &ce),
                nsec3_covering(z, &next_closer),
                nsec3_covering(z, &wildcard),
            ];
            (records_at(z, RrType::NSEC3, &owners), ce)
        }
        Denial::Nsec => {
            let owners = [nsec_covering(z, qname), nsec_covering(z, &wildcard)];
            (records_at(z, RrType::NSEC, &owners), ce)
        }
    };
    Ok(DenialProof {
        kind: DenialKind::NxDomain,
        records,
        closest_encloser: Some(ce),
    })
}

/// Assemble the NODATA proof: `qname` exists but lacks `qtype`.
pub fn nodata_proof<'z>(z: &'z SignedZone, qname: &Name) -> Result<DenialProof<'z>, ZoneError> {
    let records = match &z.denial {
        // Opt-out zones may have no NSEC3 for an insecure delegation; the
        // covering record (with opt-out set) proves the DS absence
        // instead (RFC 5155 §7.2.4).
        Denial::Nsec3 { .. } => {
            let owner = nsec3_matching(z, qname).or_else(|| nsec3_covering(z, qname));
            records_at(z, RrType::NSEC3, &[owner])
        }
        Denial::Nsec => {
            let own = z.zone.rrset(qname, RrType::NSEC).map(|_| qname);
            records_at(z, RrType::NSEC, &[own.or_else(|| nsec_covering(z, qname))])
        }
    };
    Ok(DenialProof {
        kind: DenialKind::NoData,
        records,
        closest_encloser: None,
    })
}

/// Proof accompanying a wildcard-expanded answer: the exact `qname` does not
/// exist (NSEC3 covering the next-closer name; NSEC covering `qname`).
pub fn wildcard_expansion_proof<'z>(
    z: &'z SignedZone,
    qname: &Name,
    closest_encloser: &Name,
) -> Result<DenialProof<'z>, ZoneError> {
    let records = match &z.denial {
        Denial::Nsec3 { .. } => {
            let next_closer = next_closer_name(qname, closest_encloser)?;
            records_at(z, RrType::NSEC3, &[nsec3_covering(z, &next_closer)])
        }
        Denial::Nsec => records_at(z, RrType::NSEC, &[nsec_covering(z, qname)]),
    };
    Ok(DenialProof {
        kind: DenialKind::WildcardExpansion,
        records,
        closest_encloser: Some(closest_encloser.clone()),
    })
}

/// The *next closer* name: the ancestor of `qname` exactly one label longer
/// than the closest encloser (RFC 5155 §1.3).
pub(crate) fn next_closer_name(qname: &Name, closest_encloser: &Name) -> Result<Name, ZoneError> {
    if qname == closest_encloser || !qname.is_subdomain_of(closest_encloser) {
        return Err(ZoneError::NotBelowEncloser);
    }
    let extra = qname.label_count() - closest_encloser.label_count();
    Ok(qname
        .ancestor(extra - 1)
        .expect("a strict descendant has the extra labels"))
}

/// The NSEC owner whose (circular, canonical-order) interval covers `name`:
/// its predecessor among the NSEC owners, wrapping to the last one when
/// `name` precedes them all.
pub fn nsec_covering<'z>(z: &'z SignedZone, name: &Name) -> Option<&'z Name> {
    // The owner is read off its NSEC record.
    let nsec_owner = |node: ZoneNode<'z>| Some(&node.rrset(RrType::NSEC)?.first()?.name);
    let before = name.with_sort_key(|key| {
        z.zone
            .nodes_in((Bound::Unbounded, Bound::Excluded(key)))
            .rev()
            .find_map(nsec_owner)
    });
    let owner = before.or_else(|| {
        z.zone
            .nodes_in((Bound::Unbounded, Bound::Unbounded))
            .rev()
            .find_map(nsec_owner)
    })?;
    // The wrap can land on `name` itself: it exists, so it is matched,
    // not covered.
    (owner != name).then_some(owner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signer::{sign_zone, Denial, SignerConfig};
    use crate::zone::Zone;
    use dns_wire::name::name;
    use dns_wire::rdata::RData;
    use std::net::Ipv4Addr;

    const NOW: u32 = 1_710_000_000;

    fn build_signed(denial: Denial) -> SignedZone {
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
            name("example."),
            3600,
            RData::Ns(name("ns1.example.")),
        ))
        .unwrap();
        z.add(Record::new(
            name("ns1.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ))
        .unwrap();
        z.add(Record::new(
            name("www.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ))
        .unwrap();
        z.add(Record::new(
            name("a.b.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 2)),
        ))
        .unwrap();
        let cfg = SignerConfig {
            denial,
            ..SignerConfig::standard(&name("example."), NOW)
        };
        sign_zone(&z, &cfg).unwrap()
    }

    #[test]
    fn next_closer_computation() {
        let ce = name("example.");
        assert_eq!(
            next_closer_name(&name("x.example."), &ce).unwrap(),
            name("x.example.")
        );
        assert_eq!(
            next_closer_name(&name("a.b.x.example."), &ce).unwrap(),
            name("x.example.")
        );
        assert!(next_closer_name(&ce, &ce).is_err());
    }

    #[test]
    fn nsec3_nxdomain_proof_has_three_distinct_nsec3s() {
        let z = build_signed(Denial::nsec3_rfc9276());
        let proof = nxdomain_proof(&z, &name("nx.example.")).unwrap();
        assert_eq!(proof.kind, DenialKind::NxDomain);
        assert_eq!(proof.closest_encloser, Some(name("example.")));
        let nsec3s: Vec<_> = proof
            .records
            .iter()
            .filter(|r| r.rrtype() == RrType::NSEC3)
            .collect();
        let rrsigs: Vec<_> = proof
            .records
            .iter()
            .filter(|r| r.rrtype() == RrType::RRSIG)
            .collect();
        assert!(
            (1..=3).contains(&nsec3s.len()),
            "expected 1..=3 NSEC3 records, got {}",
            nsec3s.len()
        );
        assert_eq!(
            nsec3s.len(),
            rrsigs.len(),
            "each NSEC3 travels with its RRSIG"
        );
    }

    #[test]
    fn nsec3_matching_and_covering_are_disjoint() {
        let z = build_signed(Denial::nsec3_rfc9276());
        let existing = name("www.example.");
        assert!(nsec3_matching(&z, &existing).is_some());
        assert!(nsec3_covering(&z, &existing).is_none());
        let missing = name("nx.example.");
        assert!(nsec3_matching(&z, &missing).is_none());
        assert!(nsec3_covering(&z, &missing).is_some());
    }

    #[test]
    fn nodata_proof_matches_qname() {
        let z = build_signed(Denial::nsec3_rfc9276());
        let proof = nodata_proof(&z, &name("www.example.")).unwrap();
        assert_eq!(proof.kind, DenialKind::NoData);
        let nsec3s: Vec<_> = proof
            .records
            .iter()
            .filter(|r| r.rrtype() == RrType::NSEC3)
            .collect();
        assert_eq!(nsec3s.len(), 1);
        // Its bitmap must show A but (say) not TXT.
        match &nsec3s[0].rdata {
            RData::Nsec3 { types, .. } => {
                assert!(types.contains(RrType::A));
                assert!(!types.contains(RrType::TXT));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn nxdomain_proof_for_deep_name_uses_ent_closest_encloser() {
        let z = build_signed(Denial::nsec3_rfc9276());
        // b.example. is an ENT (only a.b.example. exists under it).
        let proof = nxdomain_proof(&z, &name("zz.b.example.")).unwrap();
        assert_eq!(proof.closest_encloser, Some(name("b.example.")));
    }

    #[test]
    fn nsec_nxdomain_proof() {
        let z = build_signed(Denial::Nsec);
        let proof = nxdomain_proof(&z, &name("nx.example.")).unwrap();
        let nsecs: Vec<_> = proof
            .records
            .iter()
            .filter(|r| r.rrtype() == RrType::NSEC)
            .collect();
        assert!(!nsecs.is_empty() && nsecs.len() <= 2);
        // Each NSEC must actually cover nx.example. or *.example.
        for rec in &nsecs {
            match &rec.rdata {
                RData::Nsec { next, .. } => {
                    let covers = |target: &Name| {
                        let after_owner =
                            rec.name.canonical_cmp(target) == std::cmp::Ordering::Less;
                        let before_next = target.canonical_cmp(next) == std::cmp::Ordering::Less
                            || next == z.zone.apex(); // wrap
                        after_owner && before_next
                    };
                    assert!(covers(&name("nx.example.")) || covers(&name("*.example.")));
                }
                _ => panic!(),
            }
        }
    }

    #[test]
    fn nsec_covering_wraps_circularly() {
        let z = build_signed(Denial::Nsec);
        // A name canonically before the apex's first successor but "below"
        // everything — e.g. a name after the last owner wraps to last NSEC.
        let covering = nsec_covering(&z, &name("zzz.example.")).unwrap();
        assert!(z.zone.rrset(covering, RrType::NSEC).is_some());
    }

    #[test]
    fn wildcard_expansion_proof_covers_next_closer() {
        let mut zone = Zone::new(name("example."));
        zone.add(Record::new(
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
        zone.add(Record::new(
            name("*.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 9)),
        ))
        .unwrap();
        let z = sign_zone(&zone, &SignerConfig::standard(&name("example."), NOW)).unwrap();
        let proof =
            wildcard_expansion_proof(&z, &name("anything.example."), &name("example.")).unwrap();
        assert_eq!(proof.kind, DenialKind::WildcardExpansion);
        assert!(proof.records.iter().any(|r| r.rrtype() == RrType::NSEC3));
    }
}
