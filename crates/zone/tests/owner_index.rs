//! The zone's owner index against `canonical_cmp` and against the
//! `Name`-ordered implementations it replaced. The index is keyed by
//! canonical sort keys and its ancestor walks probe key prefixes; these
//! properties hold it to the definitions written over plain names: a
//! `canonical_cmp` sort of the inserted owners, and the former
//! `name_exists` / `closest_encloser` / `is_occluded` / `nsec_covering`
//! kept here as oracles over that sorted list.

use std::cmp::Ordering;

use sim_check::{gens, props, Gen};

use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use dns_zone::denial::nsec_covering;
use dns_zone::signer::{sign_zone, Denial, SignerConfig};
use dns_zone::Zone;

const NOW: u32 = 1_710_000_000;

fn apex() -> Name {
    Name::parse("p.example.").unwrap()
}

/// A few short labels — both cases of one letter, a shared prefix, the
/// octets the sort key escapes and the top of the byte range — so that
/// random names collide, nest and differ in case only.
fn odd_label() -> impl Gen<Vec<u8>> {
    gens::map(gens::usizes(0..9), |i| {
        let labels: [&[u8]; 9] = [
            b"a",
            b"A",
            b"b",
            b"ab",
            b"\x00",
            b"\x01",
            b"\x01\x00",
            b"z",
            b"\xFF",
        ];
        labels[i].to_vec()
    })
}

/// A name 0–4 labels below the apex, or (one time in eight) outside it.
fn name_near_zone() -> impl Gen<Name> {
    gens::map(
        (gens::vec_of(odd_label(), 0..=4), gens::usizes(0..8)),
        |(labels, outside)| {
            let suffix: [&[u8]; 2] = if outside == 0 {
                [b"q", b"example"]
            } else {
                [b"P", b"EXAMPLE"]
            };
            Name::from_labels(labels.iter().map(Vec::as_slice).chain(suffix)).unwrap()
        },
    )
}

/// Owners with the type each gets a record of: mostly addresses, now and
/// then an NS (a delegation, occluding what lies below it).
fn owners() -> impl Gen<Vec<(Name, usize)>> {
    gens::vec_of((name_near_zone(), gens::usizes(0..8)), 1..=24)
}

fn record(owner: &Name, kind: usize, serial: usize) -> Record {
    let rdata = match kind {
        0 => RData::Ns(Name::parse("ns.elsewhere.").unwrap()),
        1 | 2 => RData::Aaaa(std::net::Ipv6Addr::new(
            0x2001,
            0xdb8,
            0,
            0,
            0,
            0,
            0,
            serial as u16,
        )),
        _ => RData::A(std::net::Ipv4Addr::new(192, 0, 2, serial as u8)),
    };
    Record::new(owner.clone(), 300, rdata)
}

/// The zone, and the records it accepted in insertion order.
fn build(owners: &[(Name, usize)]) -> (Zone, Vec<Record>) {
    let mut zone = Zone::new(apex());
    let mut kept = Vec::new();
    for (serial, (owner, kind)) in owners.iter().enumerate() {
        let r = record(owner, *kind, serial);
        assert_eq!(zone.add(r.clone()).is_ok(), owner.is_subdomain_of(&apex()));
        if owner.is_subdomain_of(&apex()) {
            kept.push(r);
        }
    }
    (zone, kept)
}

/// The distinct owners of `records` in canonical order.
fn sorted_owners(records: &[Record]) -> Vec<Name> {
    let mut owners: Vec<Name> = records.iter().map(|r| r.name.clone()).collect();
    owners.sort_by(|a, b| a.canonical_cmp(b));
    owners.dedup();
    owners
}

// The implementations this PR's parent had, over a `canonical_cmp`-sorted
// owner list instead of a `BTreeMap<Name, _>`.

fn name_exists_oracle(owners: &[Name], name: &Name) -> bool {
    let at = owners.partition_point(|o| o.canonical_cmp(name) == Ordering::Less);
    owners
        .get(at)
        .is_some_and(|first| first.is_subdomain_of(name))
}

fn depth_below_apex(name: &Name) -> usize {
    if name.is_subdomain_of(&apex()) {
        name.label_count() - apex().label_count()
    } else {
        0
    }
}

fn closest_encloser_oracle(owners: &[Name], qname: &Name) -> Name {
    let depth = depth_below_apex(qname);
    if depth > 0 && name_exists_oracle(owners, qname) {
        return qname.clone();
    }
    qname
        .ancestors()
        .take(depth)
        .find(|candidate| name_exists_oracle(owners, candidate))
        .unwrap_or_else(apex)
}

fn is_occluded_oracle(cuts: &[Name], name: &Name) -> bool {
    name.ancestors()
        .take(depth_below_apex(name).saturating_sub(1))
        .any(|n| n != apex() && cuts.contains(&n))
}

fn nsec_covering_oracle<'a>(nsec_owners: &'a [Name], name: &Name) -> Option<&'a Name> {
    let before = nsec_owners.partition_point(|o| o.canonical_cmp(name) == Ordering::Less);
    let owner = match before {
        0 => nsec_owners.last()?,
        n => &nsec_owners[n - 1],
    };
    (owner != name).then_some(owner)
}

props! {
    #![cases = 96]

    fn names_and_iter_are_a_canonical_sort_of_the_inserted_owners(owners in owners()) {
        let (zone, kept) = build(&owners);
        let expect = sorted_owners(&kept);
        let names: Vec<Name> = zone.names().cloned().collect();
        assert_eq!(names, expect);
        // Records come out owner by owner in that order, types ascending
        // within an owner, insertion order within a type.
        let mut by_owner = kept.clone();
        by_owner.sort_by(|a, b| a.name.canonical_cmp(&b.name).then(a.rrtype().cmp(&b.rrtype())));
        let walked: Vec<&Record> = zone.iter().collect();
        assert_eq!(walked.len(), zone.len());
        assert_eq!(walked, by_owner.iter().collect::<Vec<_>>());
        for owner in &expect {
            let node = zone.node(owner).expect("an inserted owner has a node");
            assert_eq!(node.owner(), owner);
            let upper = Name::from_labels(owner.labels().map(<[u8]>::to_ascii_uppercase)).unwrap();
            assert!(zone.node(&upper).is_some(), "{owner} in upper case");
        }
    }

    fn structural_queries_agree_with_the_name_ordered_oracles(
        owners in owners(),
        probes in gens::vec_of(name_near_zone(), 1..=12),
    ) {
        let (zone, kept) = build(&owners);
        let sorted = sorted_owners(&kept);
        let cuts: Vec<Name> = kept
            .iter()
            .filter(|r| r.rrtype() == RrType::NS)
            .map(|r| r.name.clone())
            .collect();
        let ancestors = sorted.iter().flat_map(|o| o.ancestors());
        for q in probes.iter().chain(&sorted).cloned().chain(ancestors) {
            let exists = q.with_sort_key(|key| zone.name_exists_by_key(key));
            assert_eq!(exists, name_exists_oracle(&sorted, &q), "name_exists({q})");
            assert_eq!(
                zone.closest_encloser(&q),
                closest_encloser_oracle(&sorted, &q),
                "closest_encloser({q})"
            );
            assert_eq!(zone.is_occluded(&q), is_occluded_oracle(&cuts, &q), "is_occluded({q})");
        }
        // Empty non-terminals: the recordless names strictly between an
        // owner and the apex, once each, in canonical order.
        let mut ents: Vec<Name> = sorted
            .iter()
            .flat_map(|o| o.ancestors().take(depth_below_apex(o).saturating_sub(1)))
            .filter(|a| !sorted.contains(a))
            .collect();
        ents.sort_by(|a, b| a.canonical_cmp(b));
        ents.dedup();
        assert_eq!(zone.empty_non_terminals(), ents);
    }

    fn nsec_covering_agrees_with_the_name_ordered_oracle(
        owners in owners(),
        probes in gens::vec_of(name_near_zone(), 1..=12),
    ) {
        let (zone, _) = build(&owners);
        let cfg = SignerConfig { denial: Denial::Nsec, ..SignerConfig::standard(&apex(), NOW) };
        let signed = sign_zone(&zone, &cfg).unwrap();
        let nsec_owners: Vec<Name> = signed
            .zone
            .names()
            .filter(|n| signed.zone.rrset(n, RrType::NSEC).is_some())
            .cloned()
            .collect();
        assert!(!nsec_owners.is_empty());
        for q in probes.iter().chain(&nsec_owners) {
            assert_eq!(
                nsec_covering(&signed, q),
                nsec_covering_oracle(&nsec_owners, q),
                "nsec_covering({q})"
            );
        }
    }

    /// Records are only ever added, and a fault injector edits them in
    /// place through `rrset_mut`, so no owner is left without a record to
    /// name it: every stored owner is listed, has a node and a type, and
    /// keeps all of its records — after an edit and after signing.
    fn every_stored_owner_has_a_record(owners in owners(), pick in gens::usizes(0..24)) {
        let (mut zone, kept) = build(&owners);
        let sorted = sorted_owners(&kept);
        if sorted.is_empty() {
            return;
        }
        let edited = &sorted[pick % sorted.len()];
        for t in zone.types_at(edited) {
            for r in zone.rrset_mut(edited, t).expect("a listed type") {
                r.ttl += 1;
            }
        }
        assert!(zone.iter().filter(|r| r.name == *edited).all(|r| r.ttl == 301));
        assert_eq!(zone.names().cloned().collect::<Vec<_>>(), sorted);
        assert_eq!(zone.len(), kept.len());
        let signed = sign_zone(zone, &SignerConfig::standard(&apex(), NOW)).unwrap();
        for owner in signed.zone.names() {
            let node = signed.zone.node(owner).expect("a listed owner has a node");
            assert_eq!(node.owner(), owner);
            assert!(!signed.zone.types_at(owner).is_empty(), "{owner} has no type");
        }
        assert_eq!(signed.zone.iter().count(), signed.zone.len());
    }
}
