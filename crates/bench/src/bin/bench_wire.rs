//! Bench: message encode/decode throughput, the pooled-buffer encode
//! path, the auth server answering a fresh name (NXDOMAIN and referral),
//! and the name compression trade-off (DESIGN.md ablation 3). Writes
//! `BENCH_wire.json`.

use std::hash::BuildHasher;
use std::hint::black_box;
use std::net::IpAddr;

use dns_crypto::hash::KeyedState;
use dns_wire::buf::{WireBuf, Writer};
use dns_wire::message::Message;
use dns_wire::name::name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use heroes_bench::microbench::Suite;
use netsim::{Network, Node};

fn sample_response() -> Message {
    let q = Message::query(7, name("host.service.dept.example.com."), RrType::A);
    let mut resp = Message::response_to(&q);
    resp.flags.aa = true;
    for i in 0..8 {
        resp.answers.push(Record::new(
            name("host.service.dept.example.com."),
            300,
            RData::A(format!("192.0.2.{i}").parse().unwrap()),
        ));
    }
    for i in 0..4 {
        resp.authorities.push(Record::new(
            name("example.com."),
            3600,
            RData::Ns(name(&format!("ns{i}.dns.example.com."))),
        ));
        resp.additionals.push(Record::new(
            name(&format!("ns{i}.dns.example.com.")),
            3600,
            RData::A(format!("198.51.100.{i}").parse().unwrap()),
        ));
    }
    resp
}

fn main() {
    let mut suite = Suite::new("wire");

    let resp = sample_response();
    suite.bench("encode_response", || black_box(&resp).encode());
    let encoded = resp.encode();
    suite.bench("decode_response", || {
        Message::decode(black_box(&encoded)).unwrap()
    });
    // Encode through the thread-local buffer pool instead of a fresh Vec.
    suite.bench("encode_pooled", || {
        dns_wire::with_pooled(|buf| {
            black_box(&resp).encode_into(buf);
            black_box(buf.len())
        })
    });

    // The auth server on a name it has never seen, which is every query
    // of a scan. The pool is far larger than the NSEC3 hash cache (4,096
    // slots), so a name that comes round again finds nothing of itself.
    let server = auth_fixture();
    let net = Network::new(1);
    let src: IpAddr = "10.9.9.9".parse().unwrap();
    let mut reply = Vec::new();
    for (row, under) in [
        ("auth_answer_nxdomain_unique", "bench.example."),
        ("auth_answer_referral_unique", "secure.bench.example."),
    ] {
        let queries: Vec<Vec<u8>> = (0..65_536)
            .map(|i| Message::query(i as u16, name(&format!("u{i}.{under}")), RrType::A).encode())
            .collect();
        let mut next = 0usize;
        suite.bench(row, || {
            next = (next + 1) % queries.len();
            reply.clear();
            server.handle(&net, src, black_box(&queries[next]), &mut reply);
            black_box(reply.len())
        });
    }

    // What a sort of names pays per comparison — `canonical_cmp` of two
    // owners under the same TLD (they differ in the leftmost label, after
    // one shared label): two sort keys built on the stack and compared.
    let siblings: Vec<_> = (0..64)
        .map(|i| name(&format!("domain-{i:04}.example.")))
        .collect();
    let mut at = 0usize;
    suite.bench("name_cmp_same_tld", || {
        at = (at + 1) % (siblings.len() - 1);
        black_box(&siblings[at]).canonical_cmp(black_box(&siblings[at + 1]))
    });
    // What a probe of a keyed map pays instead: one key built on the
    // stack for the whole descent, then one slice comparison per level
    // against a stored key.
    suite.bench("name_sort_key_build", || {
        at = (at + 1) % siblings.len();
        black_box(&siblings[at]).with_sort_key(|key| black_box(key).len())
    });
    let keys: Vec<_> = siblings.iter().map(|n| n.sort_key()).collect();
    suite.bench("sort_key_cmp_same_tld", || {
        at = (at + 1) % (keys.len() - 1);
        black_box(&keys[at]).cmp(black_box(&keys[at + 1]))
    });
    // What a name table pays per probe: the name's 21-octet wire key
    // built on the stack and hashed under the tables' `KeyedState`.
    let state = KeyedState::new(42);
    let hashed = name("domain-0042.example.");
    suite.bench("name_hash", || {
        black_box(&hashed).with_wire_key(&[], |key| state.hash_one(key))
    });

    // Same 20 names written with and without compression.
    let names: Vec<_> = (0..20)
        .map(|i| name(&format!("host{i}.sub.department.example.com.")))
        .collect();
    let mut comp_out = Vec::new();
    let mut comp_scratch = WireBuf::new();
    suite.bench("write_names_compressing", || {
        comp_out.clear();
        let mut w = Writer::compressing(&mut comp_out, &mut comp_scratch);
        for n in &names {
            w.name(black_box(n));
        }
        black_box(comp_out.len())
    });
    let mut plain_out = Vec::new();
    suite.bench("write_names_plain", || {
        plain_out.clear();
        let mut w = Writer::plain(&mut plain_out);
        for n in &names {
            w.name(black_box(n));
        }
        black_box(plain_out.len())
    });
    // Size comparison printed once for the record.
    let (mut wc_out, mut wc_scratch, mut wp_out) = (Vec::new(), WireBuf::new(), Vec::new());
    {
        let mut wc = Writer::compressing(&mut wc_out, &mut wc_scratch);
        let mut wp = Writer::plain(&mut wp_out);
        for n in &names {
            wc.name(n);
            wp.name(n);
        }
    }
    eprintln!(
        "compression saves {} of {} bytes on 20 sibling names",
        wp_out.len() - wc_out.len(),
        wp_out.len()
    );

    let rec = Record::new(
        name("0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.example."),
        300,
        RData::Nsec3 {
            hash_alg: 1,
            flags: 1,
            iterations: 100,
            salt: vec![0xaa, 0xbb, 0xcc, 0xdd],
            next_hashed: vec![0x33; 20],
            types: [RrType::A, RrType::RRSIG].into_iter().collect(),
        },
    );
    let mut rec_out = Vec::new();
    suite.bench("nsec3_record_encode", || {
        rec_out.clear();
        let mut w = Writer::plain(&mut rec_out);
        black_box(&rec).encode(&mut w);
        black_box(rec_out.len())
    });

    suite.finish();
}

/// A signed single-zone server for the two answer rows.
fn auth_fixture() -> dns_auth::AuthServer {
    use dns_zone::signer::{sign_zone, SignerConfig};
    use dns_zone::Zone;
    let mut z = Zone::new(name("bench.example."));
    z.add(Record::new(
        name("bench.example."),
        3600,
        RData::Soa {
            mname: name("ns1.bench.example."),
            rname: name("host.bench.example."),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        },
    ))
    .unwrap();
    z.add(Record::new(
        name("bench.example."),
        3600,
        RData::Ns(name("ns1.bench.example.")),
    ))
    .unwrap();
    z.add(Record::new(
        name("host.bench.example."),
        300,
        RData::A("192.0.2.1".parse().unwrap()),
    ))
    .unwrap();
    // A secure delegation with glue, for the referral row.
    z.add(Record::new(
        name("secure.bench.example."),
        3600,
        RData::Ns(name("ns1.secure.bench.example.")),
    ))
    .unwrap();
    z.add(Record::new(
        name("secure.bench.example."),
        3600,
        RData::Ds {
            key_tag: 12345,
            algorithm: 253,
            digest_type: 2,
            digest: vec![7; 32],
        },
    ))
    .unwrap();
    z.add(Record::new(
        name("ns1.secure.bench.example."),
        3600,
        RData::A("192.0.2.61".parse().unwrap()),
    ))
    .unwrap();
    let signed = sign_zone(
        &z,
        &SignerConfig::standard(&name("bench.example."), 1_710_000_000),
    )
    .unwrap();
    let server = dns_auth::AuthServer::new();
    server.add_zone(signed);
    server
}
