//! An owner's records against the naive model of them: the records added
//! at that owner, filtered by type, in the order they were added. Owners
//! are built from random interleavings of `add`s across types, RRSIGs
//! included, and then signed; every RRset query the zone answers
//! (`rrset`, `with_sigs`, `types_at`, `iter`, `len`) must read as that
//! filter over the insertion sequence, before signing and after.

use sim_check::{gens, props, Gen};

use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use dns_zone::signer::{sign_zone, Denial, SignerConfig};
use dns_zone::Zone;

const NOW: u32 = 1_710_000_000;

const OWNERS: [&str; 4] = [
    "p.example.",
    "a.p.example.",
    "b.p.example.",
    "x.a.p.example.",
];

fn apex() -> Name {
    Name::parse(OWNERS[0]).unwrap()
}

/// Every type a generated record can have; RRSIGs cover the others.
const TYPES: [RrType; 6] = [
    RrType::A,
    RrType::NS,
    RrType::MX,
    RrType::TXT,
    RrType::AAAA,
    RrType::RRSIG,
];

/// One `add`: an owner, a type out of [`TYPES`], and a serial that makes
/// the record distinct from every other one of its RRset.
fn adds() -> impl Gen<Vec<(usize, usize, u8)>> {
    gens::vec_of(
        (
            gens::usizes(0..OWNERS.len()),
            gens::usizes(0..TYPES.len()),
            gens::u8s(..),
        ),
        1..=40,
    )
}

fn record(owner: usize, kind: usize, serial: u8) -> Record {
    let name = Name::parse(OWNERS[owner]).unwrap();
    let target = Name::parse("ns.elsewhere.").unwrap();
    let rdata = match TYPES[kind] {
        RrType::A => RData::A(std::net::Ipv4Addr::new(192, 0, 2, serial)),
        RrType::NS => RData::Ns(target.prepend(&[b'n', serial]).unwrap()),
        RrType::MX => RData::Mx {
            preference: u16::from(serial),
            exchange: target,
        },
        RrType::TXT => RData::Txt(vec![vec![serial]]),
        RrType::AAAA => RData::Aaaa(std::net::Ipv6Addr::new(
            0x2001,
            0xdb8,
            0,
            0,
            0,
            0,
            0,
            u16::from(serial),
        )),
        _ => RData::Rrsig {
            type_covered: TYPES[usize::from(serial) % (TYPES.len() - 1)],
            algorithm: 8,
            labels: name.label_count() as u8,
            original_ttl: 300,
            expiration: NOW + 86_400,
            inception: NOW - 86_400,
            key_tag: u16::from(serial),
            signer_name: apex(),
            signature: vec![serial; 4],
        },
    };
    Record::new(name, 300, rdata)
}

fn covers(sig: &Record, rrtype: RrType) -> bool {
    matches!(&sig.rdata, RData::Rrsig { type_covered, .. } if *type_covered == rrtype)
}

/// The records of `records` at `owner` of `rrtype`, in their order.
fn filtered<'r>(records: &'r [Record], owner: &Name, rrtype: RrType) -> Vec<&'r Record> {
    records
        .iter()
        .filter(|r| r.name == *owner && r.rrtype() == rrtype)
        .collect()
}

/// `zone` answers every RRset query as the filter of `model`, the
/// sequence of records added to it: each RRset in insertion order, the
/// types of an owner ascending, owners in canonical order.
fn agrees_with(zone: &Zone, model: &[Record]) {
    assert_eq!(zone.len(), model.len());
    let mut owners: Vec<&Name> = model.iter().map(|r| &r.name).collect();
    owners.sort_by(|a, b| a.canonical_cmp(b));
    owners.dedup();
    let mut types: Vec<RrType> = model.iter().map(Record::rrtype).collect();
    types.sort();
    types.dedup();
    let mut in_order: Vec<&Record> = Vec::with_capacity(model.len());
    for &owner in &owners {
        let node = zone.node(owner).expect("an owner with records has a node");
        let present: Vec<RrType> = types
            .iter()
            .copied()
            .filter(|&t| !filtered(model, owner, t).is_empty())
            .collect();
        assert_eq!(zone.types_at(owner), present, "types at {owner}");
        for &t in &types {
            let rrset = filtered(model, owner, t);
            let got: Vec<&Record> = zone.rrset(owner, t).into_iter().flatten().collect();
            assert_eq!(got, rrset, "{t} at {owner}");
            assert_eq!(node.rrset(t).is_some(), !rrset.is_empty());
            let sigs = filtered(model, owner, RrType::RRSIG);
            let with_sigs: Vec<&Record> = rrset
                .iter()
                .copied()
                .chain(sigs.into_iter().filter(|s| covers(s, t)))
                .collect();
            assert_eq!(node.with_sigs(t, true).collect::<Vec<_>>(), with_sigs);
            assert_eq!(node.with_sigs(t, false).collect::<Vec<_>>(), rrset);
            in_order.extend(rrset);
        }
    }
    assert_eq!(zone.iter().collect::<Vec<_>>(), in_order);
}

props! {
    fn every_rrset_reads_as_its_records_in_insertion_order(adds in adds()) {
        let mut zone = Zone::new(apex());
        let mut model = Vec::new();
        for &(owner, kind, serial) in &adds {
            let r = record(owner, kind, serial);
            zone.add(r.clone()).unwrap();
            model.push(r);
        }
        agrees_with(&zone, &model);

        // Signing adds to the same owners (and new NSEC owners) after
        // what was there; the signed zone reads as the filter of the
        // insertion sequence extended by what signing added, in the order
        // of its own listing.
        let cfg = SignerConfig { denial: Denial::Nsec, ..SignerConfig::standard(&apex(), NOW) };
        let lent = sign_zone(&zone, &cfg).unwrap();
        let signed = sign_zone(zone, &cfg).unwrap();
        assert_eq!(
            lent.zone.iter().collect::<Vec<_>>(),
            signed.zone.iter().collect::<Vec<_>>(),
            "signing in place and signing a copy differ"
        );
        let mut after: Vec<Record> = signed.zone.iter().cloned().collect();
        for r in &model {
            let at = after.iter().position(|s| s == r).expect("signing keeps every record");
            after.remove(at);
        }
        model.extend(after);
        agrees_with(&signed.zone, &model);
    }
}
