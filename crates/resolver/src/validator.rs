//! Resolver-side DNSSEC validation: RRset signature checking and
//! NSEC/NSEC3 denial-proof verification (RFC 4035 §5, RFC 5155 §8).
//!
//! The NSEC3 paths charge every hash chain they compute to a
//! [`CostMeter`] — verifying a closest-encloser proof is exactly the code
//! path CVE-2023-50868 abuses.

use std::borrow::Borrow;

use dns_crypto::simsig;
use dns_wire::base32;
use dns_wire::name::Name;
use dns_wire::rdata::{RData, NSEC3_FLAG_OPT_OUT, NSEC3_HASH_SHA1};
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use dns_zone::nsec3hash::{nsec3_hash_cached, Nsec3Params};
use dns_zone::signer::verify_rrsig_with;

use crate::cost::CostMeter;

/// A validated DNSKEY set for one zone.
#[derive(Clone, Debug)]
pub(crate) struct ZoneKeys {
    /// The zone apex these keys belong to.
    pub(crate) apex: Name,
    /// `(key_tag, verification context)` per DNSKEY, in RRset order. The
    /// context holds the key schedule, derived here once instead of once
    /// per signature checked.
    keys: Vec<(u16, simsig::Context)>,
}

impl ZoneKeys {
    /// Build from a DNSKEY RRset (does not validate it; the caller chains
    /// trust via DS first).
    pub(crate) fn from_dnskeys<R: Borrow<Record>>(apex: Name, records: &[R]) -> Self {
        let keys = records
            .iter()
            .filter_map(|r| match &r.borrow().rdata {
                rdata @ RData::Dnskey { public_key, .. } => Some((
                    dns_crypto::keytag::key_tag(&rdata.canonical_bytes()),
                    simsig::Context::new(public_key),
                )),
                _ => None,
            })
            .collect();
        ZoneKeys { apex, keys }
    }
}

/// Why validation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValidationError {
    /// No RRSIG covering the RRset from the expected signer.
    MissingSignature,
    /// Signature exists but the current time is outside its validity.
    Expired,
    /// Signature exists but does not verify.
    BadSignature,
    /// The denial proof is structurally wrong or incomplete.
    BadDenialProof,
    /// NSEC3 records in one response disagree on parameters (RFC 5155
    /// requires them identical).
    InconsistentNsec3,
    /// NSEC3 uses an unknown hash algorithm (the resolver ignores those).
    UnknownNsec3Algorithm,
    /// A configured trust anchor covers the zone apex but no served
    /// DNSKEY matches its tag + digest — a mis-anchored zone. Kept
    /// distinct from [`ValidationError::BadSignature`] so chain-of-trust
    /// studies can tell anchor misconfiguration from on-path tampering.
    AnchorMismatch,
    /// The per-query [`WorkBudget`](crate::policy::WorkBudget) armed on the
    /// meter ran out before validation finished: the response demanded more
    /// hashing or signature checking than the resolver is willing to spend.
    BudgetExceeded,
}

/// Validate one RRset against `keys`: find a temporally-valid RRSIG from
/// the zone's signer and verify it.
pub(crate) fn validate_rrset<R: Borrow<Record>>(
    owner: &Name,
    records: &[R],
    rrsigs: &[R],
    keys: &ZoneKeys,
    now: u32,
    meter: &CostMeter,
) -> Result<(), ValidationError> {
    let rrtype = match records.first() {
        Some(r) => r.borrow().rrtype(),
        None => return Err(ValidationError::MissingSignature),
    };
    let mut saw_candidate = false;
    let mut saw_expired = false;
    for sig in rrsigs {
        let sig = sig.borrow();
        let (covered, key_tag, signer, inception, expiration) = match &sig.rdata {
            RData::Rrsig {
                type_covered,
                key_tag,
                signer_name,
                inception,
                expiration,
                ..
            } => (
                *type_covered,
                *key_tag,
                signer_name,
                *inception,
                *expiration,
            ),
            _ => continue,
        };
        if covered != rrtype || signer != &keys.apex {
            continue;
        }
        saw_candidate = true;
        if now < inception || now > expiration {
            saw_expired = true;
            continue;
        }
        for (tag, key) in &keys.keys {
            if *tag != key_tag {
                continue;
            }
            // Colliding-keytag DNSKEY sets (KeyTrap) force this loop to try
            // every key; the budget check bounds the attempts per query.
            if meter.budget_exhausted() {
                return Err(ValidationError::BudgetExceeded);
            }
            meter.add_signature();
            if verify_rrsig_with(&sig.rdata, owner, records, key) {
                return Ok(());
            }
        }
    }
    if saw_expired {
        Err(ValidationError::Expired)
    } else if saw_candidate {
        Err(ValidationError::BadSignature)
    } else {
        Err(ValidationError::MissingSignature)
    }
}

/// One NSEC3 record, parsed for proof checking.
#[derive(Clone, Debug)]
pub struct Nsec3View {
    /// The hash encoded in the owner name's first label.
    pub owner_hash: Vec<u8>,
    /// Next hashed owner.
    pub next_hash: Vec<u8>,
    /// Opt-out flag.
    pub opt_out: bool,
    /// Types present at the matched name.
    pub types: dns_wire::typebitmap::TypeBitmap,
}

/// May a proof use `rec`? Not if it is an NSEC3 of unknown hash (RFC 5155 §8.1).
pub(crate) fn usable(rec: &Record) -> bool {
    !matches!(rec.rdata, RData::Nsec3 { hash_alg, .. } if hash_alg != NSEC3_HASH_SHA1)
}

/// Parse and cross-check the NSEC3 records of one response.
///
/// Returns the shared parameters and the parsed views. Fails if parameters
/// disagree (RFC 5155 §8.2) or the algorithm is unknown.
pub fn parse_nsec3_set(
    records: &[&Record],
) -> Result<(Nsec3Params, Vec<Nsec3View>), ValidationError> {
    // The first record's parameters, borrowed; every later record must
    // repeat them.
    let mut shared: Option<(u16, &[u8])> = None;
    let mut views = Vec::with_capacity(records.len());
    for rec in records {
        let RData::Nsec3 {
            hash_alg,
            flags,
            iterations,
            salt,
            next_hashed,
            types,
        } = &rec.rdata
        else {
            continue;
        };
        if *hash_alg != NSEC3_HASH_SHA1 {
            return Err(ValidationError::UnknownNsec3Algorithm);
        }
        if *shared.get_or_insert((*iterations, salt.as_slice())) != (*iterations, salt.as_slice()) {
            return Err(ValidationError::InconsistentNsec3);
        }
        // A label that is not base32hex (non-ASCII included) decodes to
        // nothing.
        let owner_hash = rec
            .name
            .labels()
            .next()
            .and_then(base32::decode)
            .ok_or(ValidationError::BadDenialProof)?;
        views.push(Nsec3View {
            owner_hash,
            next_hash: next_hashed.clone(),
            opt_out: flags & NSEC3_FLAG_OPT_OUT != 0,
            types: types.clone(),
        });
    }
    let (iterations, salt) = shared.ok_or(ValidationError::BadDenialProof)?;
    Ok((Nsec3Params::new(iterations, salt.to_vec()), views))
}

/// Does `hash` fall strictly inside the circular interval
/// `(owner_hash, next_hash)`?
pub(crate) fn covers(view: &Nsec3View, hash: &[u8]) -> bool {
    let o = view.owner_hash.as_slice();
    let n = view.next_hash.as_slice();
    if o < n {
        o < hash && hash < n
    } else {
        // Wrap-around interval (or degenerate single-record chain).
        hash > o || hash < n
    }
}

/// Find the NSEC3 whose owner hash equals the hash of `name`.
fn find_matching<'a>(
    views: &'a [Nsec3View],
    name: &Name,
    params: &Nsec3Params,
    meter: &CostMeter,
) -> Option<&'a Nsec3View> {
    // The closest-encloser search hashes overlapping ancestor chains for
    // every denial a resolver validates; the thread cache memoizes them.
    // A hit replays the stored compressions count, so the CVE-2023-50868
    // cost meter is cache-oblivious.
    let h = nsec3_hash_cached(name, params);
    meter.add_nsec3_hash(h.compressions);
    views.iter().find(|v| v.owner_hash == h.digest)
}

/// Find the NSEC3 covering the hash of `name`.
fn find_covering<'a>(
    views: &'a [Nsec3View],
    name: &Name,
    params: &Nsec3Params,
    meter: &CostMeter,
) -> Option<&'a Nsec3View> {
    let h = nsec3_hash_cached(name, params);
    meter.add_nsec3_hash(h.compressions);
    views.iter().find(|v| covers(v, &h.digest))
}

/// Result of a verified closest-encloser proof.
#[derive(Clone, Debug)]
pub struct EncloserProof {
    /// The proven closest encloser.
    pub closest_encloser: Name,
    /// The next-closer name (its nonexistence is what was proven).
    pub next_closer: Name,
    /// Whether the NSEC3 covering the next closer had opt-out set.
    pub opt_out: bool,
}

/// Verify the closest-encloser proof for `qname` (RFC 5155 §8.3).
///
/// Walks candidate enclosers from `qname` toward `apex`; each candidate
/// costs a full NSEC3 hash chain — this loop is the CVE-2023-50868
/// amplifier.
pub(crate) fn verify_closest_encloser(
    qname: &Name,
    apex: &Name,
    params: &Nsec3Params,
    views: &[Nsec3View],
    meter: &CostMeter,
) -> Result<EncloserProof, ValidationError> {
    if !qname.is_subdomain_of(apex) {
        return Err(ValidationError::BadDenialProof);
    }
    let mut next_closer = qname.clone();
    let mut candidate = qname.clone();
    loop {
        // Checked before each candidate hash: a crafted deep chain cannot
        // spend more than one chain past the armed budget.
        if meter.budget_exhausted() {
            return Err(ValidationError::BudgetExceeded);
        }
        if let Some(m) = find_matching(views, &candidate, params, meter) {
            // candidate exists; next_closer must be covered.
            if candidate == *qname {
                // qname itself exists: not an NXDOMAIN situation.
                return Err(ValidationError::BadDenialProof);
            }
            let cover = find_covering(views, &next_closer, params, meter)
                .ok_or(ValidationError::BadDenialProof)?;
            let _ = m;
            return Ok(EncloserProof {
                closest_encloser: candidate,
                next_closer,
                opt_out: cover.opt_out,
            });
        }
        if candidate == *apex {
            return Err(ValidationError::BadDenialProof);
        }
        next_closer = candidate.clone();
        candidate = candidate.parent().ok_or(ValidationError::BadDenialProof)?;
    }
}

/// Verify a full NXDOMAIN proof (closest encloser + wildcard denial),
/// RFC 5155 §8.4.
pub fn verify_nxdomain(
    qname: &Name,
    apex: &Name,
    params: &Nsec3Params,
    views: &[Nsec3View],
    meter: &CostMeter,
) -> Result<EncloserProof, ValidationError> {
    let proof = verify_closest_encloser(qname, apex, params, views, meter)?;
    let wildcard = proof
        .closest_encloser
        .prepend(b"*")
        .map_err(|_| ValidationError::BadDenialProof)?;
    if meter.budget_exhausted() {
        return Err(ValidationError::BudgetExceeded);
    }
    // The wildcard must be proven absent (covered). With opt-out the
    // covering record may be the same as the next-closer one.
    find_covering(views, &wildcard, params, meter).ok_or(ValidationError::BadDenialProof)?;
    Ok(proof)
}

/// Verify a NODATA proof for `qname` in zone `apex`: an NSEC3 matches
/// `qname` and its bitmap lacks `qtype` (and CNAME), RFC 5155 §8.5; for
/// DS, an opt-out NSEC3 covering `qname` (§8.6); for a wildcard NODATA,
/// an NSEC3 matching `*.ce` lacks `qtype` and CNAME and one covers the
/// next closer below `ce` (§8.7) — the wildcard's existence proves `ce`'s,
/// so no NSEC3 matching `ce` itself is needed.
pub(crate) fn verify_nodata(
    qname: &Name,
    qtype: RrType,
    apex: &Name,
    params: &Nsec3Params,
    views: &[Nsec3View],
    meter: &CostMeter,
) -> Result<(), ValidationError> {
    let lacks_qtype = |m: &Nsec3View| !m.types.contains(qtype) && !m.types.contains(RrType::CNAME);
    if meter.budget_exhausted() {
        return Err(ValidationError::BudgetExceeded);
    }
    if let Some(m) = find_matching(views, qname, params, meter) {
        return proven(lacks_qtype(m));
    }
    if qtype == RrType::DS && find_covering(views, qname, params, meter).is_some_and(|c| c.opt_out)
    {
        return Ok(());
    }
    // Walk the candidate closest enclosers up to the apex: the first
    // whose wildcard is matched decides.
    let mut next_closer = qname.clone();
    while next_closer != *apex && next_closer.is_subdomain_of(apex) {
        let ce = next_closer
            .parent()
            .ok_or(ValidationError::BadDenialProof)?;
        let wildcard = ce
            .prepend(b"*")
            .map_err(|_| ValidationError::BadDenialProof)?;
        if meter.budget_exhausted() {
            return Err(ValidationError::BudgetExceeded);
        }
        if let Some(m) = find_matching(views, &wildcard, params, meter) {
            let covered = find_covering(views, &next_closer, params, meter).is_some();
            return proven(covered && lacks_qtype(m));
        }
        next_closer = ce;
    }
    Err(ValidationError::BadDenialProof)
}

/// `Ok` when a denial check held, else [`ValidationError::BadDenialProof`].
fn proven(held: bool) -> Result<(), ValidationError> {
    held.then_some(()).ok_or(ValidationError::BadDenialProof)
}

/// Verify the denial part of a wildcard-expanded answer: the RRSIG labels
/// field says the answer came from a wildcard; an NSEC3 must cover the
/// next-closer name derived from that labels count (RFC 5155 §8.8).
pub(crate) fn verify_wildcard_expansion(
    qname: &Name,
    rrsig_labels: u8,
    params: &Nsec3Params,
    views: &[Nsec3View],
    meter: &CostMeter,
) -> Result<(), ValidationError> {
    // closest encloser has `rrsig_labels` labels; next closer one more.
    let qlabels = qname.label_count() as u8;
    if rrsig_labels >= qlabels {
        return Err(ValidationError::BadDenialProof);
    }
    let mut next_closer = qname.clone();
    while next_closer.label_count() as u8 > rrsig_labels + 1 {
        next_closer = next_closer
            .parent()
            .ok_or(ValidationError::BadDenialProof)?;
    }
    if meter.budget_exhausted() {
        return Err(ValidationError::BudgetExceeded);
    }
    find_covering(views, &next_closer, params, meter).ok_or(ValidationError::BadDenialProof)?;
    Ok(())
}

/// NSEC (unhashed) denial checks, RFC 4035 §5.4.
pub(crate) mod nsec {
    use super::*;
    use dns_wire::typebitmap::TypeBitmap;

    /// Does this NSEC record (owner, next) cover `name` in canonical order?
    pub(crate) fn nsec_covers(owner: &Name, next: &Name, name: &Name) -> bool {
        use std::cmp::Ordering::Less;
        let after_owner = owner.canonical_cmp(name) == Less;
        if owner.canonical_cmp(next) == Less {
            after_owner && name.canonical_cmp(next) == Less
        } else {
            // Wrap: next is the apex.
            after_owner || name.canonical_cmp(next) == Less
        }
    }

    /// The `(owner, next)` of the NSEC among `nsec_records` covering `name`.
    fn covering<'r>(nsec_records: &[&'r Record], name: &Name) -> Option<(&'r Name, &'r Name)> {
        nsec_records.iter().find_map(|rec| match &rec.rdata {
            RData::Nsec { next, .. } if nsec_covers(&rec.name, next, name) => {
                Some((&rec.name, next))
            }
            _ => None,
        })
    }

    /// The type bitmap of the NSEC owned by `name`, if one is present.
    fn bitmap_at<'r>(nsec_records: &[&'r Record], name: &Name) -> Option<&'r TypeBitmap> {
        nsec_records.iter().find_map(|rec| match &rec.rdata {
            RData::Nsec { types, .. } if rec.name == *name => Some(types),
            _ => None,
        })
    }

    /// The source-of-synthesis wildcard for a `qname` the NSEC owned by
    /// `covering_owner` proves absent: `*` at their longest common
    /// ancestor, the closest encloser.
    fn wildcard_for(covering_owner: &Name, qname: &Name) -> Result<Name, ValidationError> {
        longest_common_ancestor(covering_owner, qname)
            .prepend(b"*")
            .map_err(|_| ValidationError::BadDenialProof)
    }

    /// Verify an NSEC NXDOMAIN proof: some NSEC covers `qname` and some
    /// NSEC covers (or owns) the source-of-synthesis wildcard.
    pub(crate) fn verify_nxdomain(
        qname: &Name,
        nsec_records: &[&Record],
    ) -> Result<(), ValidationError> {
        let (owner, _) = covering(nsec_records, qname).ok_or(ValidationError::BadDenialProof)?;
        let wildcard = wildcard_for(owner, qname)?;
        proven(
            covering(nsec_records, &wildcard).is_some()
                || bitmap_at(nsec_records, &wildcard).is_some(),
        )
    }

    /// Verify an NSEC NODATA proof in the shapes an authoritative serves:
    /// the NSEC at `qname` lacks `qtype` and CNAME; an empty non-terminal's
    /// covering NSEC has its next name below `qname`; or, for a wildcard
    /// NODATA, an NSEC covers `qname` and the NSEC at the wildcard of the
    /// closest encloser lacks `qtype` and CNAME.
    pub(crate) fn verify_nodata(
        qname: &Name,
        qtype: RrType,
        nsec_records: &[&Record],
    ) -> Result<(), ValidationError> {
        let lacks_qtype =
            |types: &TypeBitmap| !types.contains(qtype) && !types.contains(RrType::CNAME);
        proven(match bitmap_at(nsec_records, qname) {
            Some(types) => lacks_qtype(types),
            None => match covering(nsec_records, qname) {
                Some((_, next)) if next.is_subdomain_of(qname) => true,
                Some((owner, _)) => {
                    let wildcard = wildcard_for(owner, qname)?;
                    bitmap_at(nsec_records, &wildcard).is_some_and(lacks_qtype)
                }
                None => false,
            },
        })
    }

    /// Verify the denial part of a wildcard-expanded answer: an NSEC
    /// covers `qname`, so the answer could not come from `qname` itself.
    pub(crate) fn verify_wildcard_expansion(
        qname: &Name,
        nsec_records: &[&Record],
    ) -> Result<(), ValidationError> {
        proven(covering(nsec_records, qname).is_some())
    }

    fn longest_common_ancestor(a: &Name, b: &Name) -> Name {
        let la: Vec<&[u8]> = a.labels().collect();
        let lb: Vec<&[u8]> = b.labels().collect();
        let mut common: Vec<Vec<u8>> = Vec::new();
        for (x, y) in la.iter().rev().zip(lb.iter().rev()) {
            if x.eq_ignore_ascii_case(y) {
                common.push(x.to_vec());
            } else {
                break;
            }
        }
        common.reverse();
        Name::from_labels(common).unwrap_or_else(|_| Name::root())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name::name;
    use dns_wire::rrtype::RrType;
    use dns_zone::denial;
    use dns_zone::signer::{sign_zone, SignerConfig};
    use dns_zone::Zone;
    use std::net::Ipv4Addr;

    const NOW: u32 = 1_710_000_000;

    fn signed_zone(params: Nsec3Params) -> dns_zone::SignedZone {
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
        z.add(Record::new(
            name("a.b.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 2)),
        ))
        .unwrap();
        sign_zone(
            &z,
            &SignerConfig::with_nsec3(&name("example."), NOW, params, false),
        )
        .unwrap()
    }

    fn nxdomain_views(z: &dns_zone::SignedZone, qname: &Name) -> (Nsec3Params, Vec<Nsec3View>) {
        let proof = denial::nxdomain_proof(z, qname).unwrap();
        let nsec3s: Vec<&Record> = proof
            .records
            .iter()
            .copied()
            .filter(|r| r.rrtype() == RrType::NSEC3)
            .collect();
        parse_nsec3_set(&nsec3s).unwrap()
    }

    #[test]
    fn rrset_validation_accepts_good_and_rejects_bad() {
        let z = signed_zone(Nsec3Params::rfc9276());
        let keys = ZoneKeys::from_dnskeys(
            name("example."),
            z.zone.rrset(&name("example."), RrType::DNSKEY).unwrap(),
        );
        let owner = name("www.example.");
        let rrset = z.zone.rrset(&owner, RrType::A).unwrap().to_vec();
        let sigs = z.zone.rrset(&owner, RrType::RRSIG).unwrap().to_vec();
        let meter = CostMeter::new();
        assert!(validate_rrset(&owner, &rrset, &sigs, &keys, NOW, &meter).is_ok());
        assert!(meter.snapshot().signatures_verified >= 1);
        // Expired clock.
        assert_eq!(
            validate_rrset(&owner, &rrset, &sigs, &keys, NOW + 100 * 86_400, &meter),
            Err(ValidationError::Expired)
        );
        // Tampered data.
        let mut bad = rrset.clone();
        bad[0].rdata = RData::A(Ipv4Addr::new(9, 9, 9, 9));
        assert_eq!(
            validate_rrset(&owner, &bad, &sigs, &keys, NOW, &meter),
            Err(ValidationError::BadSignature)
        );
        // No signature at all.
        assert_eq!(
            validate_rrset(&owner, &rrset, &[], &keys, NOW, &meter),
            Err(ValidationError::MissingSignature)
        );
    }

    #[test]
    fn nxdomain_proof_verifies() {
        let z = signed_zone(Nsec3Params::rfc9276());
        let qname = name("nx.example.");
        let (params, views) = nxdomain_views(&z, &qname);
        let meter = CostMeter::new();
        let proof = verify_nxdomain(&qname, &name("example."), &params, &views, &meter).unwrap();
        assert_eq!(proof.closest_encloser, name("example."));
        assert_eq!(proof.next_closer, name("nx.example."));
        assert!(meter.nsec3_hashes() >= 3);
    }

    #[test]
    fn nxdomain_proof_cost_scales_with_iterations() {
        let base = {
            let z = signed_zone(Nsec3Params::rfc9276());
            let qname = name("a.very.deep.name.example.");
            let (params, views) = nxdomain_views(&z, &qname);
            let meter = CostMeter::new();
            verify_nxdomain(&qname, &name("example."), &params, &views, &meter).unwrap();
            meter.sha1_compressions()
        };
        let heavy = {
            let z = signed_zone(Nsec3Params::new(150, vec![0xab; 8]));
            let qname = name("a.very.deep.name.example.");
            let (params, views) = nxdomain_views(&z, &qname);
            let meter = CostMeter::new();
            verify_nxdomain(&qname, &name("example."), &params, &views, &meter).unwrap();
            meter.sha1_compressions()
        };
        assert!(
            heavy > base * 100,
            "expected >100x blow-up, got {heavy} vs {base}"
        );
    }

    #[test]
    fn budget_aborts_deep_encloser_walk_with_bounded_overshoot() {
        use crate::policy::WorkBudget;
        let z = signed_zone(Nsec3Params::new(150, vec![0xab; 8]));
        let qname = name("a.very.deep.name.example.");
        let (params, views) = nxdomain_views(&z, &qname);
        let meter = CostMeter::with_budget(&WorkBudget {
            max_compressions: Some(200),
            max_signatures: None,
        });
        assert_eq!(
            verify_nxdomain(&qname, &name("example."), &params, &views, &meter).map(|_| ()),
            Err(ValidationError::BudgetExceeded)
        );
        // Each chain at 150 iterations / 8-byte salt costs 151 compressions;
        // the pre-chain check bounds overshoot to a single chain.
        assert!(
            meter.sha1_compressions() <= 200 + 151,
            "overshoot beyond one chain: {}",
            meter.sha1_compressions()
        );
        // The same proof verifies on a meter without a budget.
        let unbudgeted = CostMeter::new();
        assert!(verify_nxdomain(&qname, &name("example."), &params, &views, &unbudgeted).is_ok());
    }

    #[test]
    fn budget_aborts_signature_attempts() {
        use crate::policy::WorkBudget;
        let z = signed_zone(Nsec3Params::rfc9276());
        let keys = ZoneKeys::from_dnskeys(
            name("example."),
            z.zone.rrset(&name("example."), RrType::DNSKEY).unwrap(),
        );
        let owner = name("www.example.");
        let rrset = z.zone.rrset(&owner, RrType::A).unwrap().to_vec();
        let sigs = z.zone.rrset(&owner, RrType::RRSIG).unwrap().to_vec();
        let meter = CostMeter::with_budget(&WorkBudget {
            max_compressions: None,
            max_signatures: Some(0),
        });
        assert_eq!(
            validate_rrset(&owner, &rrset, &sigs, &keys, NOW, &meter),
            Err(ValidationError::BudgetExceeded)
        );
        assert_eq!(meter.snapshot().signatures_verified, 0);
    }

    #[test]
    fn nodata_proof_verifies_and_detects_lies() {
        let z = signed_zone(Nsec3Params::rfc9276());
        let qname = name("www.example.");
        let proof = denial::nodata_proof(&z, &qname).unwrap();
        let nsec3s: Vec<&Record> = proof
            .records
            .iter()
            .copied()
            .filter(|r| r.rrtype() == RrType::NSEC3)
            .collect();
        let (params, views) = parse_nsec3_set(&nsec3s).unwrap();
        let meter = CostMeter::new();
        // TXT absent: proof valid.
        let apex = name("example.");
        assert!(verify_nodata(&qname, RrType::TXT, &apex, &params, &views, &meter).is_ok());
        // A present: the same proof must NOT validate a NODATA for A.
        assert!(verify_nodata(&qname, RrType::A, &apex, &params, &views, &meter).is_err());
    }

    #[test]
    fn forged_nodata_costs_one_hash_per_label_and_stops_at_the_budget() {
        use crate::policy::WorkBudget;
        // www's NODATA proof offered for a deep name it says nothing
        // about: no NSEC3 matches the qname or any `*.ce` on the way up.
        let z = signed_zone(Nsec3Params::new(150, vec![0xab; 8]));
        let nsec3s: Vec<&Record> = denial::nodata_proof(&z, &name("www.example."))
            .unwrap()
            .records
            .into_iter()
            .filter(|r| r.rrtype() == RrType::NSEC3)
            .collect();
        let (params, views) = parse_nsec3_set(&nsec3s).unwrap();
        let (qname, apex) = (name("a.very.deep.name.example."), name("example."));
        let meter = CostMeter::new();
        assert_eq!(
            verify_nodata(&qname, RrType::TXT, &apex, &params, &views, &meter),
            Err(ValidationError::BadDenialProof)
        );
        // The qname, then `*.very.deep.name`, `*.deep.name`, `*.name` and
        // `*` at the apex: the encloser walk's length, no more.
        assert_eq!(meter.nsec3_hashes(), 5);
        // A budget stops the walk within one chain, as it stops the
        // closest-encloser walk.
        let meter = CostMeter::with_budget(&WorkBudget {
            max_compressions: Some(200),
            max_signatures: None,
        });
        assert_eq!(
            verify_nodata(&qname, RrType::TXT, &apex, &params, &views, &meter),
            Err(ValidationError::BudgetExceeded)
        );
        assert!(meter.sha1_compressions() <= 200 + 151);
    }

    #[test]
    fn inconsistent_params_rejected() {
        let z = signed_zone(Nsec3Params::rfc9276());
        let qname = name("nx.example.");
        let proof = denial::nxdomain_proof(&z, &qname).unwrap();
        let mut recs: Vec<Record> = proof
            .records
            .iter()
            .filter(|r| r.rrtype() == RrType::NSEC3)
            .map(|r| (*r).clone())
            .collect();
        if let RData::Nsec3 { iterations, .. } = &mut recs[0].rdata {
            *iterations += 1;
        }
        if recs.len() > 1 {
            let refs: Vec<&Record> = recs.iter().collect();
            assert!(matches!(
                parse_nsec3_set(&refs),
                Err(ValidationError::InconsistentNsec3)
            ));
        }
    }

    #[test]
    fn unknown_hash_algorithm_flagged() {
        let rec = Record::new(
            name("abcd0123.example."),
            300,
            RData::Nsec3 {
                hash_alg: 7,
                flags: 0,
                iterations: 0,
                salt: vec![],
                next_hashed: vec![0; 20],
                types: Default::default(),
            },
        );
        assert!(matches!(
            parse_nsec3_set(&[&rec]),
            Err(ValidationError::UnknownNsec3Algorithm)
        ));
    }

    #[test]
    fn proof_for_existing_name_rejected() {
        let z = signed_zone(Nsec3Params::rfc9276());
        // Take a valid NXDOMAIN proof but claim it denies www.example.
        let (params, views) = nxdomain_views(&z, &name("nx.example."));
        let meter = CostMeter::new();
        assert!(verify_nxdomain(
            &name("www.example."),
            &name("example."),
            &params,
            &views,
            &meter
        )
        .is_err());
    }

    #[test]
    fn covers_handles_wraparound() {
        let v = Nsec3View {
            owner_hash: vec![0xf0; 20],
            next_hash: vec![0x10; 20],
            opt_out: false,
            types: Default::default(),
        };
        assert!(covers(&v, &[0xff; 20]));
        assert!(covers(&v, &[0x00; 20]));
        assert!(!covers(&v, &[0x20; 20]));
        assert!(!covers(&v, &[0xf0; 20])); // owner itself not covered
    }

    #[test]
    fn nsec_cover_logic() {
        use super::nsec::nsec_covers;
        // owner=a.example., next=c.example. covers b.example.
        assert!(nsec_covers(
            &name("a.example."),
            &name("c.example."),
            &name("b.example.")
        ));
        assert!(!nsec_covers(
            &name("a.example."),
            &name("c.example."),
            &name("d.example.")
        ));
        // Wrap: owner=z.example., next=example. covers zz.example.
        assert!(nsec_covers(
            &name("z.example."),
            &name("example."),
            &name("zz.example.")
        ));
    }

    #[test]
    fn wildcard_expansion_denial_verifies() {
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
            name("*.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 9)),
        ))
        .unwrap();
        let s = sign_zone(&z, &SignerConfig::standard(&name("example."), NOW)).unwrap();
        let qname = name("synth.example.");
        let proof = denial::wildcard_expansion_proof(&s, &qname, &name("example.")).unwrap();
        let nsec3s: Vec<&Record> = proof
            .records
            .iter()
            .copied()
            .filter(|r| r.rrtype() == RrType::NSEC3)
            .collect();
        let (params, views) = parse_nsec3_set(&nsec3s).unwrap();
        let meter = CostMeter::new();
        // RRSIG over *.example. has labels=1; qname has 2.
        assert!(verify_wildcard_expansion(&qname, 1, &params, &views, &meter).is_ok());
        assert!(verify_wildcard_expansion(&qname, 2, &params, &views, &meter).is_err());
    }
}
