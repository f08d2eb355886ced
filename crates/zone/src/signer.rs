//! Zone signing: DNSKEY publication, NSEC/NSEC3 chain construction, and
//! RRSIG generation (RFC 4034/4035/5155), over the SimSig scheme.

use std::borrow::{Borrow, Cow};

use dns_crypto::keytag::key_tag;
use dns_crypto::sha256::sha256;
use dns_crypto::simsig::{self, KeyPair};
use dns_wire::base32;
use dns_wire::buf::Writer;
use dns_wire::name::Name;
use dns_wire::rdata::{RData, NSEC3_FLAG_OPT_OUT};
use dns_wire::record::{canonical_rrset_order, Record};
use dns_wire::rrtype::RrType;
use dns_wire::typebitmap::TypeBitmap;

use crate::nsec3hash::{nsec3_hash_cached, Nsec3Params};
use crate::zone::Zone;
use crate::ZoneError;

/// DNSKEY flags value for a zone-signing key.
pub(crate) const FLAGS_ZSK: u16 = 256;
/// DNSKEY flags value for a key-signing key (SEP bit set).
pub(crate) const FLAGS_KSK: u16 = 257;

/// A signing key: the SimSig pair plus its DNSKEY presentation.
#[derive(Clone, Debug)]
pub struct SigningKey {
    /// The key material.
    pub pair: KeyPair,
    /// DNSKEY flags (256 = ZSK, 257 = KSK).
    pub flags: u16,
    /// Algorithm number stamped on DNSKEY/RRSIG records (a label only; the
    /// math is always SimSig — see `dns_crypto::simsig`).
    pub algorithm: u8,
}

impl SigningKey {
    /// Deterministic ZSK for a zone.
    pub fn zsk(apex: &Name) -> Self {
        SigningKey {
            pair: KeyPair::from_seed(format!("zsk:{apex}").as_bytes()),
            flags: FLAGS_ZSK,
            algorithm: simsig::SIMSIG_ALGORITHM,
        }
    }

    /// Deterministic KSK for a zone.
    pub fn ksk(apex: &Name) -> Self {
        SigningKey {
            pair: KeyPair::from_seed(format!("ksk:{apex}").as_bytes()),
            flags: FLAGS_KSK,
            algorithm: simsig::SIMSIG_ALGORITHM,
        }
    }

    /// The DNSKEY RDATA for this key.
    pub fn dnskey_rdata(&self) -> RData {
        RData::Dnskey {
            flags: self.flags,
            protocol: 3,
            algorithm: self.algorithm,
            public_key: self.pair.public_key().to_vec(),
        }
    }

    /// The RFC 4034 key tag of this key's DNSKEY RDATA.
    pub fn key_tag(&self) -> u16 {
        key_tag(&self.dnskey_rdata().canonical_bytes())
    }

    /// Is this a KSK (SEP flag)?
    pub fn is_ksk(&self) -> bool {
        self.flags & 0x0001 != 0
    }
}

/// Build `count` decoy DNSKEY RDATAs whose key tags all collide with the
/// zone's real ZSK tag — the KeyTrap ingredient (arXiv 2406.03133).
///
/// Each decoy carries a full-length public key (so a validator actually
/// runs — and fails — the verification instead of rejecting the key by
/// shape) derived deterministically from the apex and index, with the last
/// two bytes tuned via [`dns_crypto::keytag::colliding_tail`]. Colliding
/// with the ZSK rather than the KSK maximizes damage: every RRSIG over
/// zone data names the ZSK tag, so every RRset validation tries all the
/// decoys, while the DS match keeping the chain of trust alive stays on
/// the untouched KSK.
pub fn decoy_dnskeys(apex: &Name, count: usize) -> Vec<RData> {
    let target = SigningKey::zsk(apex).key_tag();
    (0..count)
        .map(|i| {
            // Perturbation byte handles the (at most one) unreachable
            // residue per prefix; in practice the first attempt lands.
            for perturb in 0..=255u8 {
                let seed = sha256(format!("decoy:{i}:{perturb}:{apex}").as_bytes());
                let mut public_key = seed.to_vec();
                let rdata = RData::Dnskey {
                    flags: FLAGS_ZSK,
                    protocol: 3,
                    algorithm: simsig::SIMSIG_ALGORITHM,
                    public_key: public_key.clone(),
                };
                let canonical = rdata.canonical_bytes();
                let prefix = &canonical[..canonical.len() - 2];
                if let Some(tail) = dns_crypto::keytag::colliding_tail(prefix, target) {
                    let n = public_key.len();
                    public_key[n - 2..].copy_from_slice(&tail);
                    let rdata = RData::Dnskey {
                        flags: FLAGS_ZSK,
                        protocol: 3,
                        algorithm: simsig::SIMSIG_ALGORITHM,
                        public_key,
                    };
                    debug_assert_eq!(key_tag(&rdata.canonical_bytes()), target);
                    return rdata;
                }
            }
            unreachable!("no colliding tail over 256 prefixes");
        })
        .collect()
}

/// Which denial-of-existence mechanism a zone uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Denial {
    /// Plain NSEC (RFC 4034).
    Nsec,
    /// Hashed denial (RFC 5155) with the given parameters.
    Nsec3 {
        /// Hash parameters (algorithm, iterations, salt).
        params: Nsec3Params,
        /// Whether NSEC3 records set the opt-out flag.
        opt_out: bool,
    },
}

impl Denial {
    /// NSEC3 with RFC 9276-compliant parameters and no opt-out.
    pub fn nsec3_rfc9276() -> Self {
        Denial::Nsec3 {
            params: Nsec3Params::rfc9276(),
            opt_out: false,
        }
    }
}

/// Signer configuration.
#[derive(Clone, Debug)]
pub struct SignerConfig {
    /// Keys; at least one. If both KSKs and ZSKs are present, the DNSKEY
    /// RRset is signed by KSKs and everything else by ZSKs; with a single
    /// kind, it signs everything.
    pub keys: Vec<SigningKey>,
    /// RRSIG inception (epoch seconds).
    pub inception: u32,
    /// RRSIG expiration (epoch seconds).
    pub expiration: u32,
    /// Denial mechanism.
    pub denial: Denial,
    /// Extra DNSKEY RDATAs published verbatim (no private halves, so they
    /// never sign anything) *ahead of* the real keys in the RRset. The
    /// adversarial workloads use [`decoy_dnskeys`] here to build
    /// colliding-keytag DNSKEY sets: a validator matching RRSIGs by tag
    /// tries every decoy before reaching the real key.
    pub extra_dnskeys: Vec<RData>,
}

impl SignerConfig {
    /// A conventional setup for `apex`: deterministic KSK+ZSK, validity
    /// `[now - 1h, now + 30d]`, NSEC3 per RFC 9276.
    pub fn standard(apex: &Name, now: u32) -> Self {
        SignerConfig {
            keys: vec![SigningKey::ksk(apex), SigningKey::zsk(apex)],
            inception: now.saturating_sub(3600),
            expiration: now + 30 * 86_400,
            denial: Denial::nsec3_rfc9276(),
            extra_dnskeys: Vec::new(),
        }
    }

    /// Same but with explicit NSEC3 parameters (the wild populations).
    pub fn with_nsec3(apex: &Name, now: u32, params: Nsec3Params, opt_out: bool) -> Self {
        SignerConfig {
            denial: Denial::Nsec3 { params, opt_out },
            ..Self::standard(apex, now)
        }
    }
}

/// A zone after signing: records plus the indexes servers need.
#[derive(Clone, Debug)]
pub struct SignedZone {
    /// The zone, now containing DNSKEY/RRSIG/NSEC(3)/NSEC3PARAM records.
    pub zone: Zone,
    /// The denial mechanism in force.
    pub denial: Denial,
    /// The signing keys (servers re-sign nothing; this supports DS export
    /// and test assertions).
    pub keys: Vec<SigningKey>,
    /// For NSEC3 zones: `(hash, nsec3-owner-name)` sorted by hash.
    pub nsec3_index: Vec<([u8; 20], Name)>,
}

impl SignedZone {
    /// The NSEC3 parameters, if this zone is NSEC3-signed.
    pub fn nsec3_params(&self) -> Option<&Nsec3Params> {
        match &self.denial {
            Denial::Nsec3 { params, .. } => Some(params),
            Denial::Nsec => None,
        }
    }
}

/// Build the RFC 4034 §3.1.8.1 signing buffer: RRSIG RDATA (sans signature)
/// followed by each RR in canonical form and order.
///
/// Shared verbatim by signer and validator, so any disagreement is a bug in
/// exactly one place.
pub(crate) fn signing_buffer<R: Borrow<Record>>(
    rrsig_fields: &RData,
    owner: &Name,
    records: &[R],
) -> Result<Vec<u8>, ZoneError> {
    let (
        type_covered,
        algorithm,
        labels,
        original_ttl,
        expiration,
        inception,
        key_tag,
        signer_name,
    ) = match rrsig_fields {
        RData::Rrsig {
            type_covered,
            algorithm,
            labels,
            original_ttl,
            expiration,
            inception,
            key_tag,
            signer_name,
            ..
        } => (
            *type_covered,
            *algorithm,
            *labels,
            *original_ttl,
            *expiration,
            *inception,
            *key_tag,
            signer_name,
        ),
        _ => return Err(ZoneError::NotAnRrsig),
    };
    let mut out = Vec::with_capacity(256);
    let mut w = Writer::plain(&mut out);
    w.u16(type_covered.0);
    w.u8(algorithm);
    w.u8(labels);
    w.u32(original_ttl);
    w.u32(expiration);
    w.u32(inception);
    w.u16(key_tag);
    let mut name_buf = [0u8; dns_wire::name::MAX_NAME_LEN];
    let len = signer_name.write_canonical_wire(&mut name_buf);
    w.bytes(&name_buf[..len]);
    // RFC 4035 §5.3.2: if the RRSIG labels field is less than the owner's
    // label count, the owner is replaced by the wildcard-expanded source
    // (`*.<labels rightmost labels>`). The non-wildcard case writes the
    // owner from a stack buffer instead of cloning it.
    let owner_len = if (labels as usize) < significant_labels(owner) {
        effective_owner(owner, labels).write_canonical_wire(&mut name_buf)
    } else {
        owner.write_canonical_wire(&mut name_buf)
    };
    let owner_wire = &name_buf[..owner_len];
    let rr_header = |w: &mut Writer<'_>, rec: &Record| {
        w.bytes(owner_wire);
        w.u16(rec.rrtype().0);
        w.u16(rec.class.0);
        w.u32(original_ttl);
    };
    // Single-record RRsets (the overwhelmingly common case) need no sort
    // and no copy: the RDATA is encoded in place, its length patched in.
    if let [rec] = records {
        let rec = rec.borrow();
        rr_header(&mut w, rec);
        let len_at = w.len();
        w.u16(0);
        rec.rdata.encode(&mut w, true);
        w.patch_u16(len_at, (w.len() - len_at - 2) as u16);
        return Ok(out);
    }
    for (rdata, rec) in &canonical_rrset_order(records.iter().map(Borrow::borrow)) {
        rr_header(&mut w, rec);
        w.u16(rdata.len() as u16);
        w.bytes(rdata);
    }
    Ok(out)
}

/// Owner name as covered by a signature with `labels`: either the owner
/// itself or the wildcard source it was expanded from.
fn effective_owner(owner: &Name, labels: u8) -> Name {
    let own = significant_labels(owner);
    if (labels as usize) < own {
        // Reconstruct *.<rightmost `labels` labels>.
        let mut n = owner.clone();
        while significant_labels(&n) > labels as usize {
            n = n.parent().expect("label count > 0");
        }
        n.prepend(b"*").expect("wildcard fits")
    } else {
        owner.clone()
    }
}

/// The RRSIG `labels` value for an owner: label count, not counting the
/// root or a leading `*`.
pub(crate) fn significant_labels(owner: &Name) -> usize {
    owner.label_count() - usize::from(owner.is_wildcard())
}

/// Sign one RRset with one key, producing the RRSIG record.
pub fn sign_rrset(
    records: &[Record],
    key: &SigningKey,
    signer_name: &Name,
    inception: u32,
    expiration: u32,
) -> Result<Record, ZoneError> {
    rrsig(
        records,
        key,
        key.key_tag(),
        &key.pair.signing_context(),
        signer_name,
        (inception, expiration),
    )
}

/// The RRSIG by `key` over `records`, owned by the first record's name:
/// the canonical signing buffer, signed with `ctx`. `tag` and `ctx` are
/// pure functions of the key, so whole-zone signing derives them once
/// per key instead of once per RRset.
fn rrsig(
    records: &[Record],
    key: &SigningKey,
    tag: u16,
    ctx: &simsig::Context,
    signer: &Name,
    (inception, expiration): (u32, u32),
) -> Result<Record, ZoneError> {
    let first = records.first().ok_or(ZoneError::EmptyRrset)?;
    let owner = &first.name;
    let mut rdata = RData::Rrsig {
        type_covered: first.rrtype(),
        algorithm: key.algorithm,
        labels: significant_labels(owner) as u8,
        original_ttl: first.ttl,
        expiration,
        inception,
        key_tag: tag,
        signer_name: signer.clone(),
        signature: Vec::new(),
    };
    let sig = ctx.sign(&signing_buffer(&rdata, owner, records)?);
    if let RData::Rrsig { signature, .. } = &mut rdata {
        *signature = sig;
    }
    Ok(Record::new(owner.clone(), first.ttl, rdata))
}

/// Verify one RRSIG over an RRset against a DNSKEY public key.
///
/// Checks the cryptographic binding only; temporal validity and chain
/// placement are the resolver's job.
pub fn verify_rrsig<R: Borrow<Record>>(
    rrsig: &RData,
    owner: &Name,
    records: &[R],
    public_key: &[u8],
) -> bool {
    verify_rrsig_with(rrsig, owner, records, &simsig::Context::new(public_key))
}

/// [`verify_rrsig`] against a key whose [`simsig::Context`] is already
/// built — what a validator holding a zone's DNSKEY set uses, so the key
/// schedule is derived once per key and not once per signature.
pub fn verify_rrsig_with<R: Borrow<Record>>(
    rrsig: &RData,
    owner: &Name,
    records: &[R],
    key: &simsig::Context,
) -> bool {
    let RData::Rrsig { signature, .. } = rrsig else {
        return false;
    };
    signing_buffer(rrsig, owner, records).is_ok_and(|buffer| key.verify(&buffer, signature))
}

/// A zone to sign, lent (signing works on a copy) or given (signing
/// works on it in place).
impl<'a> From<&'a Zone> for Cow<'a, Zone> {
    fn from(zone: &'a Zone) -> Self {
        Cow::Borrowed(zone)
    }
}

impl From<Zone> for Cow<'_, Zone> {
    fn from(zone: Zone) -> Self {
        Cow::Owned(zone)
    }
}

/// Sign `zone` according to `config`, producing a [`SignedZone`]. A zone
/// passed by value is signed in place; a borrowed one is copied first.
///
/// Runs on the calling thread and reads no environment: the drivers shard
/// across zones, nothing shards inside one.
pub fn sign_zone<'a>(
    zone: impl Into<Cow<'a, Zone>>,
    config: &SignerConfig,
) -> Result<SignedZone, ZoneError> {
    if config.keys.is_empty() {
        return Err(ZoneError::NoKeys);
    }
    let mut out = zone.into().into_owned();
    let apex = out.apex().clone();
    let negative_ttl = out.negative_ttl();
    let dnskey_ttl = 3600;

    // 1. Publish DNSKEYs — decoys first, so a tag-matching validator
    // burns a verification attempt on each decoy before the real key.
    for rdata in &config.extra_dnskeys {
        out.add(Record::new(apex.clone(), dnskey_ttl, rdata.clone()))?;
    }
    for key in &config.keys {
        out.add(Record::new(apex.clone(), dnskey_ttl, key.dnskey_rdata()))?;
    }

    // 2. Build the denial chain.
    let mut nsec3_index = Vec::new();
    match &config.denial {
        Denial::Nsec3 { params, opt_out } => {
            // NSEC3PARAM at the apex (flags MUST be zero there, RFC 5155 §4.1.2).
            out.add(Record::new(
                apex.clone(),
                negative_ttl,
                RData::Nsec3Param {
                    hash_alg: params.hash_alg,
                    flags: 0,
                    iterations: params.iterations,
                    salt: params.salt.clone(),
                },
            ))?;
            // One canonical-order pass yields the chain members together
            // with their type lists and signability, so record assembly
            // below needs no per-name tree lookups.
            let entries = out.denial_entries(*opt_out);
            // Hash through the thread cache: what is inserted here is what
            // denial proofs and validators on this thread hit afterwards,
            // and re-signing (key rollover) replays memoized digests.
            let mut hashed: Vec<([u8; 20], &crate::zone::DenialEntry)> = entries
                .iter()
                .map(|e| (nsec3_hash_cached(&e.name, params).digest, e))
                .collect();
            hashed.sort_by_key(|a| a.0);
            let count = hashed.len();
            let flags = if *opt_out { NSEC3_FLAG_OPT_OUT } else { 0 };
            let mut chain: Vec<Record> = Vec::with_capacity(count);
            for (i, (hash, entry)) in hashed.iter().enumerate() {
                let next = &hashed[(i + 1) % count].0;
                let owner = apex
                    .prepend(base32::encode(hash).as_bytes())
                    .expect("base32 label fits");
                let mut types = TypeBitmap::from_types(entry.types.iter().copied());
                if entry.will_sign {
                    types.insert(RrType::RRSIG);
                }
                chain.push(Record::new(
                    owner.clone(),
                    negative_ttl,
                    RData::Nsec3 {
                        hash_alg: params.hash_alg,
                        flags,
                        iterations: params.iterations,
                        salt: params.salt.clone(),
                        next_hashed: next.to_vec(),
                        types,
                    },
                ));
                nsec3_index.push((*hash, owner));
            }
            // The chain is sorted by hash, hence (base32hex) by owner:
            // merge it into the zone with one linear walk.
            out.merge_sorted_owners(chain)?;
        }
        Denial::Nsec => {
            let names = out.denial_names(false);
            let count = names.len();
            for (i, owner) in names.iter().enumerate() {
                let next = names[(i + 1) % count].clone();
                let mut types = TypeBitmap::from_types(out.types_at(owner));
                types.insert(RrType::NSEC);
                // Every NSEC owner carries at least the RRSIG of its NSEC.
                types.insert(RrType::RRSIG);
                out.add(Record::new(
                    owner.clone(),
                    negative_ttl,
                    RData::Nsec { next, types },
                ))?;
            }
        }
    }

    // 3. Sign every authoritative RRset. Key tags and HMAC pad schedules
    // are hoisted (one DNSKEY serialization and one pad derivation per key,
    // not per RRset), and the work list carries each RRset's record slice
    // so signing never walks the zone tree.
    let signers: Vec<(&SigningKey, u16, simsig::Context)> = config
        .keys
        .iter()
        .map(|k| (k, k.key_tag(), k.pair.signing_context()))
        .collect();
    let kss_idx: Vec<usize> = (0..signers.len())
        .filter(|&i| signers[i].0.is_ksk())
        .collect();
    let zss_idx: Vec<usize> = (0..signers.len())
        .filter(|&i| !signers[i].0.is_ksk())
        .collect();
    // Canonical order visits a delegation point before everything beneath
    // it, so a running cut marker replaces the per-owner `is_occluded`
    // ancestor walk.
    let mut work: Vec<(RrType, &[Record])> = Vec::new();
    let mut cut: Option<&[u8]> = None;
    for (key, node) in out.nodes() {
        if cut.is_some_and(|c| key.starts_with(c)) {
            continue; // occluded
        }
        let is_delegation = node.owner() != &apex && node.rrset(RrType::NS).is_some();
        cut = is_delegation.then_some(key);
        // At a delegation point only the DS RRset is signed.
        work.extend(
            node.rrsets()
                .filter(|&(rrtype, _)| !is_delegation || rrtype == RrType::DS),
        );
    }
    // One RRSIG per (RRset, key) pair, in work order. The work list was
    // produced by an in-order scan of `out`, so the signature stream is
    // already in canonical owner order: merge it with one linear walk.
    let validity = (config.inception, config.expiration);
    let mut sigs: Vec<Record> = Vec::with_capacity(work.len() * 2);
    for &(rrtype, rrset) in &work {
        let chosen: &[usize] = if rrtype == RrType::DNSKEY && !kss_idx.is_empty() {
            &kss_idx
        } else if !zss_idx.is_empty() {
            &zss_idx
        } else {
            &kss_idx
        };
        for &ki in chosen {
            let (key, tag, ctx) = &signers[ki];
            sigs.push(rrsig(rrset, key, *tag, ctx, &apex, validity)?);
        }
    }
    out.merge_in_order(sigs)?;
    out.shrink_to_fit();

    Ok(SignedZone {
        zone: out,
        denial: config.denial.clone(),
        keys: config.keys.clone(),
        nsec3_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsec3hash::nsec3_hash;
    use dns_wire::name::name;
    use std::net::Ipv4Addr;

    const NOW: u32 = 1_710_000_000;

    fn build_zone() -> Zone {
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
            name("*.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 99)),
        ))
        .unwrap();
        z
    }

    fn signed() -> SignedZone {
        sign_zone(
            build_zone(),
            &SignerConfig::standard(&name("example."), NOW),
        )
        .unwrap()
    }

    #[test]
    fn signing_adds_dnssec_records() {
        let s = signed();
        assert!(s.zone.rrset(&name("example."), RrType::DNSKEY).is_some());
        assert!(s
            .zone
            .rrset(&name("example."), RrType::NSEC3PARAM)
            .is_some());
        assert!(s.zone.rrset(&name("example."), RrType::RRSIG).is_some());
        assert_eq!(s.nsec3_index.len(), 4); // apex, ns1, www, *
    }

    #[test]
    fn decoy_dnskeys_collide_with_zsk_and_publish_first() {
        let apex = name("example.");
        let decoys = decoy_dnskeys(&apex, 8);
        assert_eq!(decoys.len(), 8);
        let zsk_tag = SigningKey::zsk(&apex).key_tag();
        let ksk_tag = SigningKey::ksk(&apex).key_tag();
        for d in &decoys {
            assert_eq!(key_tag(&d.canonical_bytes()), zsk_tag);
            assert_ne!(key_tag(&d.canonical_bytes()), ksk_tag);
            match d {
                RData::Dnskey { public_key, .. } => {
                    assert_eq!(public_key.len(), simsig::PUBLIC_KEY_LEN)
                }
                _ => panic!("not a DNSKEY"),
            }
        }
        // Distinct keys (the validator tries each one individually).
        let mut uniq: Vec<Vec<u8>> = decoys.iter().map(|d| d.canonical_bytes()).collect();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 8);
        // Published ahead of the real keys, same owner/ttl, zone signs fine.
        let cfg = SignerConfig {
            extra_dnskeys: decoys.clone(),
            ..SignerConfig::standard(&apex, NOW)
        };
        let s = sign_zone(build_zone(), &cfg).unwrap();
        let dnskeys = s.zone.rrset(&apex, RrType::DNSKEY).unwrap();
        assert_eq!(dnskeys.len(), 8 + 2);
        for (i, d) in decoys.iter().enumerate() {
            assert_eq!(&dnskeys[i].rdata, d, "decoy {i} not published in order");
        }
        // The DNSKEY RRSIG (by the KSK) covers the whole 10-key set.
        assert!(s.zone.rrset(&apex, RrType::RRSIG).unwrap().iter().any(
            |r| matches!(&r.rdata, RData::Rrsig { type_covered, key_tag: t, .. }
                    if *type_covered == RrType::DNSKEY && *t == ksk_tag)
        ));
    }

    #[test]
    fn nsec3_chain_is_circular_and_sorted() {
        let s = signed();
        let hashes: Vec<[u8; 20]> = s.nsec3_index.iter().map(|(h, _)| *h).collect();
        let mut sorted = hashes.clone();
        sorted.sort();
        assert_eq!(hashes, sorted);
        // Each NSEC3's next_hashed is the following hash, wrapping.
        for (i, (_, owner)) in s.nsec3_index.iter().enumerate() {
            let rec = &s.zone.rrset(owner, RrType::NSEC3).unwrap()[0];
            match &rec.rdata {
                RData::Nsec3 { next_hashed, .. } => {
                    assert_eq!(
                        next_hashed.as_slice(),
                        &hashes[(i + 1) % hashes.len()],
                        "chain at {owner}"
                    );
                }
                _ => panic!("not NSEC3"),
            }
        }
    }

    #[test]
    fn rrsig_verifies_and_rejects_tamper() {
        let s = signed();
        let www = name("www.example.");
        let rrset = s.zone.rrset(&www, RrType::A).unwrap().to_vec();
        let sigs = s.zone.rrset(&www, RrType::RRSIG).unwrap();
        let sig = sigs
            .iter()
            .find(|r| matches!(&r.rdata, RData::Rrsig { type_covered, .. } if *type_covered == RrType::A))
            .unwrap();
        let zsk = s.keys.iter().find(|k| !k.is_ksk()).unwrap();
        assert!(verify_rrsig(
            &sig.rdata,
            &www,
            &rrset,
            zsk.pair.public_key()
        ));
        // Tampered record must fail.
        let mut bad = rrset.clone();
        bad[0].rdata = RData::A(Ipv4Addr::new(10, 0, 0, 1));
        assert!(!verify_rrsig(&sig.rdata, &www, &bad, zsk.pair.public_key()));
        // Wrong key must fail.
        let ksk = s.keys.iter().find(|k| k.is_ksk()).unwrap();
        assert!(!verify_rrsig(
            &sig.rdata,
            &www,
            &rrset,
            ksk.pair.public_key()
        ));
    }

    #[test]
    fn dnskey_signed_by_ksk_everything_else_by_zsk() {
        let s = signed();
        let apex = name("example.");
        let ksk_tag = s.keys.iter().find(|k| k.is_ksk()).unwrap().key_tag();
        let zsk_tag = s.keys.iter().find(|k| !k.is_ksk()).unwrap().key_tag();
        let sigs = s.zone.rrset(&apex, RrType::RRSIG).unwrap();
        for sig in sigs {
            if let RData::Rrsig {
                type_covered,
                key_tag,
                ..
            } = &sig.rdata
            {
                if *type_covered == RrType::DNSKEY {
                    assert_eq!(*key_tag, ksk_tag);
                } else {
                    assert_eq!(*key_tag, zsk_tag);
                }
            }
        }
    }

    #[test]
    fn wildcard_expansion_verifies() {
        // Signature made over *.example. must verify for an expanded owner
        // via the labels-field reconstruction.
        let s = signed();
        let wild = name("*.example.");
        let rrset = s.zone.rrset(&wild, RrType::A).unwrap().to_vec();
        let sigs = s.zone.rrset(&wild, RrType::RRSIG).unwrap();
        let sig = sigs
            .iter()
            .find(|r| matches!(&r.rdata, RData::Rrsig { type_covered, .. } if *type_covered == RrType::A))
            .unwrap();
        let zsk = s.keys.iter().find(|k| !k.is_ksk()).unwrap();
        // Expanded: pretend the answer was synthesized for q.example.
        let expanded: Vec<Record> = rrset
            .iter()
            .map(|r| Record::new(name("q.example."), r.ttl, r.rdata.clone()))
            .collect();
        assert!(verify_rrsig(
            &sig.rdata,
            &name("q.example."),
            &expanded,
            zsk.pair.public_key()
        ));
        // And for a deeper expansion.
        let deeper: Vec<Record> = rrset
            .iter()
            .map(|r| Record::new(name("a.b.example."), r.ttl, r.rdata.clone()))
            .collect();
        assert!(verify_rrsig(
            &sig.rdata,
            &name("a.b.example."),
            &deeper,
            zsk.pair.public_key()
        ));
    }

    #[test]
    fn nsec_signing_builds_linear_chain() {
        let cfg = SignerConfig {
            denial: Denial::Nsec,
            ..SignerConfig::standard(&name("example."), NOW)
        };
        let s = sign_zone(build_zone(), &cfg).unwrap();
        // Walk the chain from the apex; it must return to the apex after
        // covering every denial name.
        let start = name("example.");
        let mut cur = start.clone();
        let mut seen = 0;
        loop {
            let nsec = &s.zone.rrset(&cur, RrType::NSEC).unwrap()[0];
            let next = match &nsec.rdata {
                RData::Nsec { next, .. } => next.clone(),
                _ => panic!(),
            };
            seen += 1;
            cur = next;
            if cur == start {
                break;
            }
            assert!(seen < 100, "chain does not close");
        }
        assert_eq!(seen, 4);
    }

    #[test]
    fn apex_nsec3_bitmap_contains_zone_keys() {
        let s = signed();
        let apex_hash = nsec3_hash(&name("example."), s.nsec3_params().unwrap()).digest;
        let (_, owner) = s
            .nsec3_index
            .iter()
            .find(|(h, _)| *h == apex_hash)
            .expect("apex in index");
        let rec = &s.zone.rrset(owner, RrType::NSEC3).unwrap()[0];
        match &rec.rdata {
            RData::Nsec3 { types, .. } => {
                for t in [
                    RrType::SOA,
                    RrType::NS,
                    RrType::DNSKEY,
                    RrType::NSEC3PARAM,
                    RrType::RRSIG,
                ] {
                    assert!(types.contains(t), "apex bitmap missing {t}");
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn signing_requires_keys() {
        let cfg = SignerConfig {
            keys: vec![],
            ..SignerConfig::standard(&name("example."), NOW)
        };
        assert!(sign_zone(build_zone(), &cfg).is_err());
    }
}
