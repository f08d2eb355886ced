//! Resolution with no network in scope: a stub resolver's recursion is
//! fed reply bytes built by hand, and answers each with what it wants
//! next — the shape every caller of [`Recursion::advance`] has, the
//! netsim adaptor included.
//!
//! [`Recursion::advance`]: dns_resolver::Recursion::advance

use std::net::IpAddr;
use std::rc::Rc;

use dns_resolver::resolver::{Exchanged, Reply, Want};
use dns_resolver::{ResolveOutcome, Resolver, ResolverConfig};
use dns_wire::buf::Writer;
use dns_wire::message::{unframe_tcp, Message, Question};
use dns_wire::name::name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::{Class, Rcode, RrType};

const ROOT: &str = "198.41.0.4";
const LEAF: &str = "192.0.2.53";

/// The server and bytes of a [`Want::Send`].
fn expect_send(want: Want) -> (IpAddr, Vec<u8>) {
    match want {
        Want::Send { server, bytes } => (server, bytes),
        Want::Done(outcome) => panic!("finished early: {outcome:?}"),
    }
}

/// `reply` came back on the first attempt.
fn reply(bytes: Vec<u8>) -> Option<Exchanged> {
    Some(Exchanged {
        attempts: 1,
        reply: Reply::Bytes(bytes),
    })
}

#[test]
fn stub_resolves_from_hand_fed_bytes_and_retries_truncation_over_tcp() {
    let root: IpAddr = ROOT.parse().unwrap();
    let leaf: IpAddr = LEAF.parse().unwrap();
    let resolver = Resolver::new(ResolverConfig::stub(
        "10.0.0.1".parse().unwrap(),
        vec![root],
    ));
    let qname = name("www.example.");
    let mut recursion = resolver.recursion(0, &qname, RrType::A);

    // The root is asked first, by datagram; it refers to example. with glue.
    let (server, bytes) = expect_send(recursion.advance(0, None));
    assert_eq!(server, root);
    let query = Message::decode(&bytes).unwrap();
    assert_eq!(query.question().unwrap().qname, qname);
    let mut referral = Message::response_to(&query);
    referral.authorities.push(Record::new(
        name("example."),
        3600,
        RData::Ns(name("ns.example.")),
    ));
    referral.additionals.push(Record::new(
        name("ns.example."),
        3600,
        RData::A("192.0.2.53".parse().unwrap()),
    ));

    // The glue address is asked next; its datagram reply is truncated.
    let (server, udp) = expect_send(recursion.advance(20_000, reply(referral.encode())));
    assert_eq!(server, leaf);
    let query = Message::decode(&udp).unwrap();
    let mut truncated = Message::response_to(&query);
    truncated.flags.aa = true;
    truncated.flags.tc = true;

    // The same server again, over TCP, with the same query bytes framed.
    let (server, tcp) = expect_send(recursion.advance(40_000, reply(truncated.encode())));
    assert_eq!(server, leaf);
    assert_eq!(unframe_tcp(&tcp), Some(&udp[..]));
    let mut answer = Message::response_to(&query);
    answer.flags.aa = true;
    answer.answers.push(Record::new(
        qname.clone(),
        300,
        RData::A("192.0.2.80".parse().unwrap()),
    ));

    let mut framed = Vec::new();
    answer.encode_framed_append(&mut framed);
    let Want::Done(out) = recursion.advance(60_000, reply(framed)) else {
        panic!("the authoritative answer ends the resolution");
    };
    assert_eq!(out.rcode, Rcode::NoError);
    assert!(!out.authenticated, "a stub never authenticates");
    assert_eq!(out.answers.len(), 1);
    assert_eq!(
        out.answers[0].rdata,
        RData::A("192.0.2.80".parse().unwrap())
    );
    assert_eq!(
        out.cost.messages_sent, 3,
        "root, leaf by datagram, leaf by TCP"
    );
    assert_eq!(out.cost.timeouts, 0);

    // The answer went into the cache: asking again wants nothing sent.
    let mut again = resolver.recursion(80_000, &qname, RrType::A);
    let Want::Done(hit) = again.advance(80_000, None) else {
        panic!("a cache hit finishes on its first advance");
    };
    assert_eq!(hit.answers, out.answers);
    assert_eq!(hit.cost.messages_sent, 0);
}

#[test]
fn silence_is_metered_and_ends_in_servfail() {
    // With one root hint and no reply, the walk has nowhere else to ask.
    let root: IpAddr = ROOT.parse().unwrap();
    let resolver = Resolver::new(ResolverConfig::stub(
        "10.0.0.1".parse().unwrap(),
        vec![root],
    ));
    let mut recursion = resolver.recursion(0, &name("www.example."), RrType::A);
    let (server, _) = expect_send(recursion.advance(0, None));
    assert_eq!(server, root);
    let silence = Exchanged {
        attempts: 2,
        reply: Reply::TimedOut,
    };
    let Want::Done(out) = recursion.advance(4_000_000, Some(silence)) else {
        panic!("no server left to ask");
    };
    assert_eq!(out.rcode, Rcode::ServFail);
    assert_eq!(
        (out.cost.messages_sent, out.cost.timeouts, out.cost.retries),
        (1, 1, 1)
    );
    assert!(out.probe_lost(), "a SERVFAIL that spent a timeout is loss");
}

#[test]
fn reply_echoing_another_question_type_or_class_is_rejected() {
    // The root answers authoritatively, but its echoed question differs
    // from the one sent in its type or its class: the answer belongs to
    // someone else's question, and the walk has nowhere else to ask.
    let mangles: [fn(&mut Question); 2] = [|q| q.qtype = RrType::AAAA, |q| q.qclass = Class::CH];
    for mangle in mangles {
        let root: IpAddr = ROOT.parse().unwrap();
        let resolver = Resolver::new(ResolverConfig::stub(
            "10.0.0.1".parse().unwrap(),
            vec![root],
        ));
        let qname = name("www.example.");
        let mut recursion = resolver.recursion(0, &qname, RrType::A);
        let (_, bytes) = expect_send(recursion.advance(0, None));
        let query = Message::decode(&bytes).unwrap();
        let mut answer = Message::response_to(&query);
        answer.flags.aa = true;
        answer.answers.push(Record::new(
            qname.clone(),
            300,
            RData::A("192.0.2.80".parse().unwrap()),
        ));
        mangle(&mut answer.questions[0]);
        let Want::Done(out) = recursion.advance(20_000, reply(answer.encode())) else {
            panic!("no other server to ask");
        };
        assert_eq!(out.rcode, Rcode::ServFail);
        assert!(out.answers.is_empty());
    }
}

/// `records` on the wire, uncompressed and in their case.
fn octets(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = Writer::plain(&mut out);
    for record in records {
        record.encode(&mut w);
    }
    out
}

/// Ask `resolver` (a stub) for `qname`/A and have the root answer
/// authoritatively with what `fill` puts into its reply. The outcome,
/// and the reply as the resolver decoded it.
fn answered(
    resolver: &Resolver,
    qname: &str,
    fill: impl FnOnce(&mut Message),
) -> (ResolveOutcome, Message) {
    let mut recursion = resolver.recursion(0, &name(qname), RrType::A);
    let (_, bytes) = expect_send(recursion.advance(0, None));
    let query = Message::decode(&bytes).unwrap();
    let mut answer = Message::response_to(&query);
    answer.flags.aa = true;
    fill(&mut answer);
    let bytes = answer.encode();
    let Want::Done(out) = recursion.advance(20_000, reply(bytes.clone())) else {
        panic!("the root's answer is final");
    };
    (out, Message::decode(&bytes).unwrap())
}

/// The root's NXDOMAIN proof that a TLD does not exist: its SOA, an
/// NSEC3 and their RRSIGs, with the NSEC3 owned by `hashed` and the SOA
/// naming `mname`, each spelled in the case given. No name in it is a
/// suffix of a question under a TLD, so name compression leaves its case
/// alone.
fn proof(hashed: &str, mname: &str) -> Vec<Record> {
    let sig = |covered| RData::Rrsig {
        type_covered: covered,
        algorithm: 253,
        labels: 1,
        original_ttl: 86_400,
        expiration: 1_720_000_000,
        inception: 1_700_000_000,
        key_tag: 4_711,
        signer_name: name("."),
        signature: vec![0xA5; 32],
    };
    let soa = RData::Soa {
        mname: name(mname),
        rname: name("nstld.verisign-grs.com."),
        serial: 1,
        refresh: 1_800,
        retry: 900,
        expire: 604_800,
        minimum: 86_400,
    };
    let nsec3 = RData::Nsec3 {
        hash_alg: 1,
        flags: 0,
        iterations: 0,
        salt: Vec::new(),
        next_hashed: vec![0x5A; 20],
        types: Default::default(),
    };
    vec![
        Record::new(name("."), 86_400, soa),
        Record::new(name("."), 86_400, sig(RrType::SOA)),
        Record::new(name(hashed), 86_400, nsec3),
        Record::new(name(hashed), 86_400, sig(RrType::NSEC3)),
    ]
}

const HASHED: &str = "b4um86eghhds6nea196smvmlo4ors995.";
const MNAME: &str = "a.root-servers.net.";

#[test]
fn outcome_sections_are_the_reply_octets_and_equal_ones_are_one_allocation() {
    let resolver = Resolver::new(ResolverConfig::stub(
        "10.0.0.1".parse().unwrap(),
        vec![ROOT.parse().unwrap()],
    ));
    let nxdomain = |authorities: Vec<Record>| {
        move |reply: &mut Message| {
            reply.rcode = Rcode::NxDomain;
            reply.authorities = authorities;
        }
    };
    let upper = HASHED.to_ascii_uppercase();
    let asked = [
        answered(&resolver, "a.example.", nxdomain(proof(HASHED, MNAME))),
        answered(&resolver, "b.example.", nxdomain(proof(HASHED, MNAME))),
        // Equal to the first under `==`, which ignores the case of names.
        answered(&resolver, "c.example.", nxdomain(proof(&upper, MNAME))),
        answered(
            &resolver,
            "d.example.",
            nxdomain(proof(HASHED, "A.root-servers.NET.")),
        ),
        // The answer's owner echoes the qname as asked, dns-0x20 case
        // and all.
        answered(&resolver, "www.example.", |reply| {
            let owner = reply.questions[0].qname.clone();
            let a = RData::A("192.0.2.80".parse().unwrap());
            reply.answers.push(Record::new(owner, 300, a));
        }),
    ];
    for (out, reply) in &asked {
        assert_eq!(octets(&out.answers), octets(&reply.answers), "{out:?}");
        assert_eq!(
            octets(&out.authorities),
            octets(&reply.authorities),
            "{out:?}"
        );
    }
    let authorities = |i: usize| &asked[i].0.authorities;
    assert!(Rc::ptr_eq(authorities(0), authorities(1)), "equal proofs");
    for i in [2, 3] {
        assert_eq!(authorities(i), authorities(0), "equal under `==`");
        assert!(!Rc::ptr_eq(authorities(i), authorities(0)), "case {i}");
    }
}
