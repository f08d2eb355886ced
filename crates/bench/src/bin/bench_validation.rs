//! Bench: end-to-end resolution cost through the full chain
//! (root → com → leaf), positive and negative, what each RFC 9276
//! policy makes of an over-limit zone, and one signature check with and
//! without the signature memo's help. Writes `BENCH_validation.json`.
//!
//! The limit-check order (DESIGN.md §13 item 5) is fixed, limits first,
//! and has no row here: `check_limits_first_saves_work`
//! (`crates/resolver/src/lib.rs`) pins it at zero NSEC3 hashes.

use std::hint::black_box;

use dns_crypto::simsig::verify_memo_stats;
use dns_resolver::lab::LabBuilder;
use dns_resolver::resolver::{Resolver, ResolverConfig};
use dns_resolver::Rfc9276Policy;
use dns_wire::message::Message;
use dns_wire::name::name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use dns_zone::nsec3hash::Nsec3Params;
use dns_zone::signer::{sign_rrset, verify_rrsig_with, Denial, SigningKey};
use heroes_bench::microbench::Suite;
use heroes_bench::EXPERIMENT_NOW as NOW;

fn lab_and_resolver(
    leaf_iterations: u16,
    policy: Rfc9276Policy,
) -> (dns_resolver::lab::Lab, Resolver) {
    let mut lab = LabBuilder::new(NOW)
        .simple_zone(&name("com."), Denial::nsec3_rfc9276())
        .simple_zone(
            &name("target.com."),
            Denial::Nsec3 {
                params: Nsec3Params::new(leaf_iterations, vec![]),
                opt_out: false,
            },
        )
        .build();
    let addr = lab.alloc.v4();
    let mut cfg = ResolverConfig::validating(addr, lab.root_hints.clone(), lab.anchor.clone());
    cfg.now = lab.now;
    cfg.policy = policy;
    (lab, Resolver::new(cfg))
}

fn main() {
    let mut suite = Suite::new("validation");

    let (lab, r) = lab_and_resolver(0, Rfc9276Policy::unlimited());
    suite.bench("resolve/positive_secure", || {
        r.resolve(&lab.net, black_box(&name("www.target.com.")), RrType::A)
    });
    let mut i = 0u64;
    suite.bench("resolve/nxdomain_secure_it0", || {
        i += 1;
        let q = name(&format!("q{i}.target.com."));
        r.resolve(&lab.net, black_box(&q), RrType::A)
    });

    for it in [0u16, 150, 500] {
        let (lab, r) = lab_and_resolver(it, Rfc9276Policy::unlimited());
        let mut i = 0u64;
        suite.bench(&format!("resolve/nxdomain_by_iterations/it{it}"), || {
            i += 1;
            let q = name(&format!("q{i}.target.com."));
            r.resolve(&lab.net, black_box(&q), RrType::A)
        });
    }

    // Over-limit zone (it=500). Every end-to-end row pays the
    // authoritative building an it-500 proof for a fresh name, whatever
    // the resolver's policy; the first row times that alone. What a
    // limit-enforcing resolver saves is the difference to `unlimited` —
    // its own hashing, which it skips entirely.
    let (lab, _) = lab_and_resolver(500, Rfc9276Policy::unlimited());
    let auth = &lab.auths[&name("target.com.")];
    let mut i = 0u64;
    suite.bench("auth_nxdomain_proof_it500_fresh", || {
        i += 1;
        let q = Message::query(7, name(&format!("q{i}.target.com.")), RrType::A);
        auth.answer(black_box(&q))
    });
    for (label, policy) in [
        ("unlimited", Rfc9276Policy::unlimited()),
        ("servfail_above_150", Rfc9276Policy::servfail_above(150)),
        ("insecure_above_150", Rfc9276Policy::insecure_above(150)),
    ] {
        let (lab, r) = lab_and_resolver(500, policy);
        let mut i = 0u64;
        suite.bench(
            &format!("resolve/over_limit_policy/end_to_end_{label}"),
            || {
                i += 1;
                let q = name(&format!("q{i}.target.com."));
                r.resolve(&lab.net, black_box(&q), RrType::A)
            },
        );
    }

    // Cold: every query unique (cache useless).
    let (lab, r) = lab_and_resolver(0, Rfc9276Policy::unlimited());
    let mut i = 0u64;
    suite.bench("resolve/caching/unique_names_cold_path", || {
        i += 1;
        r.resolve(
            &lab.net,
            black_box(&name(&format!("c{i}.target.com."))),
            RrType::A,
        )
    });
    // Warm: the same name repeatedly (answer-cache hit).
    let (lab, r) = lab_and_resolver(0, Rfc9276Policy::unlimited());
    let q = name("www.target.com.");
    let _ = r.resolve(&lab.net, &q, RrType::A);
    suite.bench("resolve/caching/repeated_name_cache_hit", || {
        r.resolve(&lab.net, black_box(&q), RrType::A)
    });
    // RFC 8198: unique nonexistent names, synthesized from one proof.
    let mut lab3 = LabBuilder::new(NOW)
        .simple_zone(&name("com."), Denial::nsec3_rfc9276())
        .simple_zone(
            &name("target.com."),
            Denial::Nsec3 {
                params: Nsec3Params::new(0, vec![]),
                opt_out: false,
            },
        )
        .build();
    let addr = lab3.alloc.v4();
    let mut cfg = ResolverConfig::validating(addr, lab3.root_hints.clone(), lab3.anchor.clone());
    cfg.now = lab3.now;
    cfg.aggressive_nsec3 = true;
    let r3 = Resolver::new(cfg);
    let _ = r3.resolve(&lab3.net, &name("warmup.target.com."), RrType::A);
    let mut j = 0u64;
    suite.bench("resolve/caching/unique_nxdomains_rfc8198_synthesis", || {
        j += 1;
        r3.resolve(
            &lab3.net,
            black_box(&name(&format!("s{j}.target.com."))),
            RrType::A,
        )
    });

    // One RRSIG check, `validate_rrset`'s unit of work. Fresh: 4,096
    // RRsets in rotation, eight to a slot of the signature memo, so each
    // has been displaced by the time it comes round and the row is the
    // signing buffer plus the whole HMAC. Repeated: one RRset, so the row
    // is the signing buffer plus a memo read. The hit ratios say which
    // of the two each row really timed.
    let apex = name("target.com.");
    let zsk = SigningKey::zsk(&apex);
    let key = zsk.pair.signing_context();
    let signed: Vec<(Record, Record)> = (0..4096u32)
        .map(|i| {
            let a = RData::A(std::net::Ipv4Addr::from(0xC000_0200 | (i & 0xFF)));
            let rec = Record::new(name(&format!("h{i}.target.com.")), 300, a);
            let sig = sign_rrset(
                std::slice::from_ref(&rec),
                &zsk,
                &apex,
                NOW - 60,
                NOW + 3600,
            );
            (rec, sig.expect("one A record signs"))
        })
        .collect();
    let mut next = 0usize;
    for (row, rotation) in [("fresh_message", signed.len()), ("repeated_message", 1)] {
        let before = verify_memo_stats();
        suite.bench(&format!("verify_rrsig/{row}"), || {
            next = (next + 1) % rotation;
            let (rec, sig) = black_box(&signed[next]);
            verify_rrsig_with(&sig.rdata, &rec.name, std::slice::from_ref(rec), &key)
        });
        let after = verify_memo_stats();
        let (hits, misses) = (after.0 - before.0, after.1 - before.1);
        let ratio = hits as f64 / (hits + misses) as f64;
        suite.record(
            &format!("verify_rrsig/{row}_memo_hit_ratio"),
            ratio,
            "ratio",
        );
    }

    suite.finish();
}
