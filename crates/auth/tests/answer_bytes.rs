//! Byte-identity pins for the authoritative wire path.
//!
//! `tests/determinism.rs` and `tests/driver_equivalence.rs` pin rendered
//! reports; nothing there would notice a response whose records moved or
//! whose compression pointers changed while every classification stayed
//! the same. This file pins the bytes: one FNV-1a over every
//! `Node::handle` reply for a fixed corpus that reaches each arm of the
//! answer algorithm, and a property that `handle` equals
//! `answer(&query).encode()` on a template-cache miss and on the hit
//! that follows it.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use sim_check::{gens, props, Gen};

use dns_auth::AuthServer;
use dns_wire::edns::Edns;
use dns_wire::message::{Message, Question};
use dns_wire::name::{name, Name};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use dns_zone::nsec3hash::Nsec3Params;
use dns_zone::signer::{sign_zone, Denial, SignerConfig};
use dns_zone::Zone;
use netsim::{Network, Node};

const NOW: u32 = 1_710_000_000;

fn soa(apex: &Name) -> Record {
    Record::new(
        apex.clone(),
        3600,
        RData::Soa {
            mname: name("ns1").concat(apex).unwrap(),
            rname: name("hostmaster").concat(apex).unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        },
    )
}

fn a(owner: &str, last: u8) -> Record {
    Record::new(name(owner), 300, RData::A(Ipv4Addr::new(192, 0, 2, last)))
}

fn aaaa(owner: &str, last: u16) -> Record {
    Record::new(
        name(owner),
        300,
        RData::Aaaa(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, last)),
    )
}

fn ns(owner: &str, target: &str) -> Record {
    Record::new(name(owner), 3600, RData::Ns(name(target)))
}

fn ds(owner: &str) -> Record {
    Record::new(
        name(owner),
        3600,
        RData::Ds {
            key_tag: 12345,
            algorithm: 253,
            digest_type: 2,
            digest: vec![7; 32],
        },
    )
}

/// One zone per denial mechanism, each with every structure the answer
/// algorithm branches on: CNAME, wildcard, empty non-terminal, secure and
/// insecure delegations with glue, and one RRset too big for 512 bytes.
fn zone(apex: &str, denial: Denial) -> dns_zone::SignedZone {
    let apex_name = name(apex);
    let at = |rel: &str| format!("{rel}.{apex}");
    let mut z = Zone::new(apex_name.clone());
    let records = vec![
        soa(&apex_name),
        ns(apex, &at("ns1")),
        a(&at("ns1"), 53),
        a(&at("www"), 1),
        aaaa(&at("www"), 1),
        Record::new(name(&at("alias")), 300, RData::Cname(name(&at("www")))),
        a(&at("*.wild"), 9),
        a(&at("a.b.ent"), 2),
        ns(&at("sub"), &at("ns1.sub")),
        a(&at("ns1.sub"), 60),
        ns(&at("secure"), &at("ns1.secure")),
        ns(&at("secure"), &at("ns2.secure")),
        ds(&at("secure")),
        a(&at("ns1.secure"), 61),
        aaaa(&at("ns1.secure"), 61),
        a(&at("ns2.secure"), 62),
        ns(&at("other"), &at("ns1.other")),
        a(&at("ns1.other"), 63),
        Record::new(
            name(&at("big")),
            300,
            RData::Txt(vec![vec![b'x'; 200], vec![b'y'; 200], vec![b'z'; 200]]),
        ),
    ];
    for r in records {
        z.add(r).unwrap();
    }
    let cfg = SignerConfig {
        denial,
        ..SignerConfig::standard(&apex_name, NOW)
    };
    sign_zone(&z, &cfg).unwrap()
}

fn server() -> AuthServer {
    let s = AuthServer::new();
    s.add_zone(zone("example.", Denial::nsec3_rfc9276()));
    s.add_zone(zone("plain.test.", Denial::Nsec));
    s.add_zone(zone(
        "optout.test.",
        Denial::Nsec3 {
            params: Nsec3Params::new(5, vec![0xab, 0xcd]),
            opt_out: true,
        },
    ));
    s.allow_axfr(&name("example."));
    s
}

/// How a corpus query is sent.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// EDNS with DO (what `Message::query` builds).
    Do,
    /// EDNS present, DO clear.
    DoClear,
    /// No OPT record.
    NoEdns,
    /// DO, RFC 7766 length-framed.
    Tcp,
    /// DO with a 512-byte payload limit.
    Small,
}

fn encode_query(id: u16, qname: Name, qtype: RrType, shape: Shape) -> Vec<u8> {
    let mut q = Message::query(id, qname, qtype);
    match shape {
        Shape::Do | Shape::Tcp => {}
        Shape::DoClear => q.edns = Some(Edns::default()),
        Shape::NoEdns => q.edns = None,
        Shape::Small => {
            q.edns = Some(Edns {
                udp_payload_size: 512,
                ..Edns::with_do()
            })
        }
    }
    let mut wire = Vec::new();
    match shape {
        Shape::Tcp => q.encode_framed_append(&mut wire),
        _ => q.encode_append(&mut wire),
    }
    wire
}

fn handle(s: &AuthServer, net: &Network, payload: &[u8]) -> Option<Vec<u8>> {
    let mut reply = Vec::new();
    let src = IpAddr::V4(Ipv4Addr::new(10, 9, 9, 9));
    s.handle(net, src, payload, &mut reply).map(|()| reply)
}

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fixed corpus: every query as raw bytes.
fn corpus() -> Vec<Vec<u8>> {
    use RrType as T;
    let mut out = Vec::new();
    let mut id = 0x1000u16;
    let mut push = |qname: &str, qtype: RrType, shape: Shape| {
        id += 1;
        out.push(encode_query(id, name(qname), qtype, shape));
    };
    for apex in ["example.", "plain.test.", "optout.test."] {
        let at = |rel: &str| format!("{rel}.{apex}");
        // Positive, CNAME, NODATA, empty non-terminal.
        push(&at("www"), T::A, Shape::Do);
        push(&at("www"), T::AAAA, Shape::Do);
        push(&at("alias"), T::A, Shape::Do);
        push(&at("alias"), T::CNAME, Shape::Do);
        push(&at("www"), T::TXT, Shape::Do);
        push(&at("b.ent"), T::A, Shape::Do);
        push(&at("ent"), T::A, Shape::Do);
        // Wildcard expansion and wildcard NODATA.
        push(&at("anything.wild"), T::A, Shape::Do);
        push(&at("deep.er.wild"), T::A, Shape::Do);
        push(&at("anything.wild"), T::TXT, Shape::Do);
        // NXDOMAIN at three depths (apex, ENT and name closest enclosers).
        push(&at("nx"), T::A, Shape::Do);
        push(&at("zz.b.ent"), T::A, Shape::Do);
        push(&at("x.y.www"), T::A, Shape::Do);
        // Referrals: secure (DS) and insecure (DS-absence proof), glue.
        push(&at("host.secure"), T::A, Shape::Do);
        push(&at("secure"), T::A, Shape::Do);
        push(&at("deep.sub"), T::A, Shape::Do);
        push(&at("other"), T::NS, Shape::Do);
        push(&at("ns1.sub"), T::A, Shape::Do);
        // DS at the cut is the parent's to answer.
        push(&at("secure"), T::DS, Shape::Do);
        push(&at("sub"), T::DS, Shape::Do);
        // Apex material.
        push(apex, T::DNSKEY, Shape::Do);
        push(apex, T::NSEC3PARAM, Shape::Do);
        push(apex, T::SOA, Shape::Do);
        push(apex, T::NS, Shape::Do);
        // AXFR: allowed for example. only; never below the apex.
        push(apex, T::AXFR, Shape::Tcp);
        push(&at("www"), T::AXFR, Shape::Tcp);
        // The same arms without DNSSEC records.
        for shape in [Shape::NoEdns, Shape::DoClear] {
            push(&at("www"), T::A, shape);
            push(&at("nx"), T::A, shape);
            push(&at("www"), T::TXT, shape);
            push(&at("host.secure"), T::A, shape);
            push(&at("anything.wild"), T::A, shape);
        }
        // 0x20 echo, TCP framing, and the UDP size limit (TC).
        push(&at("WwW"), T::A, Shape::Do);
        push(&at("nX"), T::A, Shape::Do);
        push(&at("www"), T::A, Shape::Tcp);
        push(&at("nx"), T::A, Shape::Tcp);
        push(&at("big"), T::TXT, Shape::Do);
        push(&at("big"), T::TXT, Shape::Small);
        push(&at("big"), T::TXT, Shape::NoEdns);
        push(&at("big"), T::TXT, Shape::Tcp);
        push(&at("nx"), T::A, Shape::Small);
    }
    push("www.elsewhere.", T::A, Shape::Do);
    push(".", T::NS, Shape::Do);
    // Not single-question: these bypass the template cache.
    let mut none = Message::query(0x2001, name("www.example."), T::A);
    none.questions.clear();
    out.push(none.encode());
    let mut two = Message::query(0x2002, name("nx.example."), T::A);
    two.questions
        .push(Question::new(name("www.example."), T::TXT));
    out.push(two.encode());
    // A response is not a query: no reply at all.
    let mut response = Message::query(0x2003, name("www.example."), T::A);
    response.flags.qr = true;
    out.push(response.encode());
    // Opcode and RD are echoed from the query.
    let mut norec = Message::query(0x2004, name("nx.example."), T::A);
    norec.flags.rd = false;
    out.push(norec.encode());
    out
}

/// Recorded at the parent commit (owned `Message` assembly, `to_message`
/// per query) before the answer path was made to borrow. Two passes over
/// the corpus, so every cacheable query is seen as a template miss and
/// then as a hit.
const CORPUS_DIGEST: u64 = 0xddcd_d345_14f3_f2b5;

#[test]
fn corpus_reply_bytes_are_pinned() {
    let s = server();
    let net = Network::new(1);
    let queries = corpus();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut replies = 0usize;
    let mut bytes = 0usize;
    for _pass in 0..2 {
        for q in &queries {
            match handle(&s, &net, q) {
                Some(reply) => {
                    h = fnv1a(&(reply.len() as u32).to_be_bytes(), h);
                    h = fnv1a(&reply, h);
                    replies += 1;
                    bytes += reply.len();
                }
                None => h = fnv1a(&[0xff; 4], h),
            }
        }
    }
    assert_eq!(
        h, CORPUS_DIGEST,
        "reply bytes moved: digest {h:#018x} over {replies} replies, {bytes} bytes"
    );
}

/// What `handle` must send for `payload`, derived from the owned API only:
/// decode, `answer`, encode, then the UDP size rule.
fn expected(s: &AuthServer, payload: &[u8], tcp: bool) -> Vec<u8> {
    let datagram = if tcp { &payload[2..] } else { payload };
    let query = Message::decode(datagram).unwrap();
    let response = s.answer(&query);
    if tcp {
        let mut framed = Vec::new();
        response.encode_framed_append(&mut framed);
        return framed;
    }
    let wire = response.encode();
    let limit = query
        .edns
        .as_ref()
        .map_or(512, |e| e.udp_payload_size as usize)
        .max(512);
    if wire.len() <= limit {
        return wire;
    }
    let mut truncated = Message::response_to(&query);
    truncated.flags.aa = response.flags.aa;
    truncated.flags.tc = true;
    truncated.rcode = response.rcode;
    truncated.encode()
}

/// Labels from a tiny alphabet, so random owners and random query names
/// collide, nest and hit wildcards often.
fn small_name() -> impl Gen<Name> {
    gens::map(
        gens::vec_of(gens::usizes(0..5), 1..=3),
        |picks: Vec<usize>| {
            let labels: Vec<&str> = picks
                .iter()
                .map(|&i| ["a", "b", "c", "*", "d"][i])
                .collect();
            name(&format!("{}.p.example.", labels.join(".")))
        },
    )
}

fn random_case(n: &Name, bits: u64) -> Name {
    let mut bits = bits;
    let labels: Vec<Vec<u8>> = n
        .labels()
        .map(|l| {
            l.iter()
                .map(|&b| {
                    bits = bits.rotate_left(7) ^ 0x9e37_79b9;
                    if b.is_ascii_alphabetic() && bits & 1 == 1 {
                        b ^ 0x20
                    } else {
                        b
                    }
                })
                .collect()
        })
        .collect();
    Name::from_labels(labels).unwrap()
}

props! {
    #![cases = 48]

    /// On random zones and queries, the wire path is the owned path: the
    /// reply on a template miss and the reply on the hit right after both
    /// equal `answer(&query).encode()` (with the size rule applied).
    fn handle_equals_encoded_answer(
        owners in gens::vec_of((small_name(), gens::usizes(0..6)), 1..10),
        denial in gens::usizes(0..3),
        queries in gens::vec_of(
            (small_name(), gens::usizes(0..8), gens::usizes(0..5), gens::u64s(..)),
            1..12,
        ),
    ) {
        let apex = name("p.example.");
        let mut z = Zone::new(apex.clone());
        z.add(soa(&apex)).unwrap();
        for (i, (owner, kind)) in owners.iter().enumerate() {
            let rdata = match kind {
                0 | 1 => RData::A(Ipv4Addr::new(192, 0, 2, i as u8)),
                2 => RData::Txt(vec![vec![b't'; 20 * (i + 1)]]),
                3 => RData::Cname(name("a.p.example.")),
                _ => RData::Ns(name("ns1.elsewhere.")),
            };
            z.add(Record::new(owner.clone(), 300, rdata)).unwrap();
            if *kind == 5 {
                z.add(Record::new(
                    owner.clone(),
                    300,
                    RData::Ds { key_tag: 1, algorithm: 253, digest_type: 2, digest: vec![i as u8; 32] },
                ))
                .unwrap();
            }
        }
        let denial = match denial {
            0 => Denial::nsec3_rfc9276(),
            1 => Denial::Nsec3 { params: Nsec3Params::new(3, vec![0x5a]), opt_out: true },
            _ => Denial::Nsec,
        };
        let cfg = SignerConfig { denial, ..SignerConfig::standard(&apex, NOW) };
        let s = AuthServer::new();
        s.add_zone(sign_zone(&z, &cfg).unwrap());
        let net = Network::new(1);
        for (i, (qname, qtype, shape, case_bits)) in queries.iter().enumerate() {
            let qtype = [
                RrType::A, RrType::TXT, RrType::NS, RrType::DS,
                RrType::CNAME, RrType::DNSKEY, RrType::SOA, RrType::RRSIG,
            ][*qtype];
            let shape = [Shape::Do, Shape::DoClear, Shape::NoEdns, Shape::Tcp, Shape::Small][*shape];
            let payload = encode_query(i as u16 + 1, random_case(qname, *case_bits), qtype, shape);
            let tcp = matches!(shape, Shape::Tcp);
            let want = expected(&s, &payload, tcp);
            let miss = handle(&s, &net, &payload).unwrap();
            assert_eq!(miss, want, "miss: {qname} {qtype} {shape:?}");
            let hit = handle(&s, &net, &payload).unwrap();
            assert_eq!(hit, want, "hit: {qname} {qtype} {shape:?}");
        }
    }
}
