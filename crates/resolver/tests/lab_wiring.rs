//! Where [`LabBuilder`] wires each delegation, that the lab and its
//! servers hold one copy of every signed zone, and that labs deployed from
//! one signing share those zones and nothing else.
//!
//! The builder finds a zone's parent by probing an apex index with the
//! zone's ancestors, nearest first; these tests pin the rule that lookup
//! implements — the nearest enclosing apex among the specs, whatever
//! order they were added in — and the per-spec switches that decide what
//! the parent publishes.

use std::net::IpAddr;
use std::rc::Rc;

use dns_resolver::lab::{ds_record, simple_zone_contents, Lab, LabBuilder, ZoneSpec};
use dns_resolver::{Resolver, ResolverConfig};
use dns_wire::name::{name, Name};
use dns_wire::rdata::RData;
use dns_wire::rrtype::{Rcode, RrType};
use dns_zone::signer::{Denial, SigningKey};

const NOW: u32 = 1_710_000_000;

fn spec(apex: &str) -> ZoneSpec {
    ZoneSpec::new(simple_zone_contents(&name(apex)), Denial::nsec3_rfc9276())
}

fn lab_of(apexes: &[&str]) -> Lab {
    apexes
        .iter()
        .fold(LabBuilder::new(NOW), |b, apex| b.zone(spec(apex)))
        .build()
}

/// Apexes of the zones (other than `child`'s own) that publish an NS
/// RRset at `child`, sorted.
fn delegated_from(lab: &Lab, child: &Name) -> Vec<Name> {
    let mut parents: Vec<Name> = lab
        .zones
        .iter()
        .filter(|(apex, z)| *apex != child && z.zone.rrset(child, RrType::NS).is_some())
        .map(|(apex, _)| apex.clone())
        .collect();
    parents.sort();
    parents
}

/// The delegation of `child` sits in `parent` and nowhere else, complete:
/// NS naming `ns1.<child>`, glue at the child's server addresses, and a DS
/// matching the child's KSK.
fn assert_delegated(lab: &Lab, child: &str, parent: &str) {
    let (child, parent) = (name(child), name(parent));
    assert_eq!(
        delegated_from(lab, &child),
        std::slice::from_ref(&parent),
        "{child}"
    );
    let z = &lab.zones[&parent].zone;
    let ns1 = child.prepend(b"ns1").unwrap();
    let ns = z.rrset(&child, RrType::NS).unwrap();
    assert_eq!(ns.len(), 1);
    assert_eq!(ns[0].rdata, RData::Ns(ns1.clone()));
    let (IpAddr::V4(v4), IpAddr::V6(v6)) = lab.servers[&child] else {
        panic!("servers are (v4, v6)");
    };
    let glue = z.node(&ns1).expect("glue owner");
    assert_eq!(glue.rrset(RrType::A).unwrap()[0].rdata, RData::A(v4));
    assert_eq!(glue.rrset(RrType::AAAA).unwrap()[0].rdata, RData::Aaaa(v6));
    let ds = z.rrset(&child, RrType::DS).expect("secure delegation");
    assert_eq!(ds, [ds_record(&child, &SigningKey::ksk(&child))]);
}

#[test]
fn nested_zones_delegate_from_the_nearest_enclosing_apex() {
    let lab = lab_of(&["tld.", "a.tld.", "b.a.tld.", "c.b.a.tld."]);
    assert_eq!(lab.zones.len(), 5, "the root is added");
    assert_delegated(&lab, "tld.", ".");
    assert_delegated(&lab, "a.tld.", "tld.");
    assert_delegated(&lab, "b.a.tld.", "a.tld.");
    assert_delegated(&lab, "c.b.a.tld.", "b.a.tld.");
}

#[test]
fn spec_order_does_not_move_a_delegation() {
    // Children before parents, siblings interleaved, an explicit root last.
    let lab = LabBuilder::new(NOW)
        .zone(spec("b.a.tld."))
        .zone(spec("x.other."))
        .zone(spec("a.tld."))
        .zone(spec("other."))
        .zone(spec("tld."))
        .zone(spec("."))
        .build();
    assert_eq!(lab.zones.len(), 6);
    assert_delegated(&lab, "b.a.tld.", "a.tld.");
    assert_delegated(&lab, "a.tld.", "tld.");
    assert_delegated(&lab, "x.other.", "other.");
    assert_delegated(&lab, "tld.", ".");
    assert_delegated(&lab, "other.", ".");
}

#[test]
fn a_missing_intermediate_zone_is_skipped_over() {
    // No `y.tld.` zone: `x.y.tld.` hangs off `tld.`, and a zone with no
    // enclosing spec at all hangs off the root.
    let lab = lab_of(&["x.y.tld.", "tld.", "deep.under.nothing."]);
    assert_delegated(&lab, "x.y.tld.", "tld.");
    assert_delegated(&lab, "deep.under.nothing.", ".");
    let tld = &lab.zones[&name("tld.")].zone;
    assert!(tld.node(&name("y.tld.")).is_none(), "an empty non-terminal");
    assert!(name("y.tld.").with_sort_key(|key| tld.name_exists_by_key(key)));
}

#[test]
fn delegation_switches_decide_what_the_parent_publishes() {
    let flagged = |apex: &str, set: fn(&mut ZoneSpec)| {
        let mut s = spec(apex);
        set(&mut s);
        s
    };
    let lab = LabBuilder::new(NOW)
        .zone(spec("tld."))
        .zone(flagged("broken.tld.", |s| s.broken_ds = true))
        .zone(flagged("island.tld.", |s| s.unsigned_delegation = true))
        .zone(ZoneSpec::unsigned(simple_zone_contents(&name(
            "plain.tld.",
        ))))
        .zone(flagged("lame.tld.", |s| s.lame = true))
        .build();
    let tld = &lab.zones[&name("tld.")].zone;

    // broken_ds: a DS is published, one digest byte off the real one.
    let broken = name("broken.tld.");
    let mut expect = ds_record(&broken, &SigningKey::ksk(&broken));
    if let RData::Ds { digest, .. } = &mut expect.rdata {
        digest[0] ^= 0xFF;
    }
    assert_eq!(tld.rrset(&broken, RrType::DS).unwrap(), [expect]);
    assert!(!lab.zones[&broken].keys.is_empty());

    // unsigned_delegation: signed child, no DS in the parent.
    let island = name("island.tld.");
    assert!(tld.rrset(&island, RrType::NS).is_some() && tld.rrset(&island, RrType::DS).is_none());
    assert!(!lab.zones[&island].keys.is_empty());

    // unsigned: no DS, no keys, no denial chain.
    let plain = name("plain.tld.");
    assert!(tld.rrset(&plain, RrType::NS).is_some() && tld.rrset(&plain, RrType::DS).is_none());
    let z = &lab.zones[&plain];
    assert!(z.keys.is_empty() && z.nsec3_index.is_empty());
    assert!(z.zone.rrset(&plain, RrType::DNSKEY).is_none());

    // lame: delegated like any other zone, but nothing answers.
    assert_delegated(&lab, "lame.tld.", "tld.");
    let (v4, v6) = lab.servers[&name("lame.tld.")];
    assert!(!lab.net.is_registered(v4) && !lab.net.is_registered(v6));
    let (v4, v6) = lab.servers[&broken];
    assert!(lab.net.is_registered(v4) && lab.net.is_registered(v6));
}

#[test]
fn labs_deployed_from_one_signing_share_zones_and_nothing_else() {
    let signed = ["tld.", "a.tld."]
        .iter()
        .fold(LabBuilder::new(NOW), |b, apex| b.zone(spec(apex)))
        .sign();
    let (mut one, mut two) = (signed.deploy(1), signed.deploy(2));
    assert!(!Rc::ptr_eq(&one.net, &two.net));
    assert_eq!(one.zones.len(), 3);
    for (apex, zone) in &one.zones {
        assert!(Rc::ptr_eq(zone, &two.zones[apex]), "{apex} signed twice");
        assert!(
            !Rc::ptr_eq(&one.auths[apex], &two.auths[apex]),
            "{apex} served once"
        );
        assert_eq!(one.servers[apex], two.servers[apex]);
    }
    let resolver = |lab: &mut Lab| {
        let mut cfg =
            ResolverConfig::validating(lab.alloc.v4(), lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        Resolver::new(cfg)
    };
    let (r1, r2) = (resolver(&mut one), resolver(&mut two));
    let qname = name("www.a.tld.");
    let first = r1.resolve(&one.net, &qname, RrType::A);
    assert!(one.net.delivered_count() > 0);
    assert_eq!(
        two.net.delivered_count(),
        0,
        "a query on one lab reached the other"
    );
    let second = r2.resolve(&two.net, &qname, RrType::A);
    assert_eq!(second.rcode, Rcode::NoError);
    assert!(second.authenticated);
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    assert_eq!(one.net.delivered_count(), two.net.delivered_count());
}

#[test]
fn lab_and_server_share_one_copy_of_each_zone() {
    let lab = lab_of(&["tld.", "a.tld.", "b.a.tld."]);
    assert_eq!(lab.auths.len(), lab.zones.len());
    // Two handles on one allocation: the lab's and its server's. A server
    // that held a copy would leave the lab's the only one.
    for (apex, zone) in &lab.zones {
        assert_eq!(Rc::strong_count(zone), 2, "{apex} is held twice");
    }
}
