//! Bench: denial-of-existence proof synthesis (server side) and
//! verification (resolver side), by query-name depth and iteration count
//! (DESIGN.md ablation 2: the closest-encloser walk multiplier).
//! Writes `BENCH_denial_proofs.json`.

use std::hint::black_box;

use dns_resolver::cost::CostMeter;
use dns_resolver::validator::{parse_nsec3_set, verify_nxdomain, Nsec3View};
use dns_wire::name::{name, Name};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use dns_zone::denial::{nsec3_covering, nxdomain_proof};
use dns_zone::nsec3hash::{Nsec3HashCache, Nsec3Params};
use dns_zone::signer::{sign_zone, SignedZone, SignerConfig};
use dns_zone::Zone;
use heroes_bench::microbench::Suite;
use heroes_bench::EXPERIMENT_NOW as NOW;

fn make_signed(iterations: u16) -> SignedZone {
    let apex = name("bench.example.");
    let mut z = Zone::new(apex.clone());
    z.add(Record::new(
        apex.clone(),
        3600,
        RData::Soa {
            mname: name("ns1.bench.example."),
            rname: name("host.bench.example."),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        },
    ))
    .unwrap();
    for i in 0..50 {
        let owner = Name::parse(&format!("host{i}.bench.example.")).unwrap();
        z.add(Record::new(
            owner,
            300,
            RData::A("10.0.0.1".parse().unwrap()),
        ))
        .unwrap();
    }
    sign_zone(
        &z,
        &SignerConfig::with_nsec3(
            &apex,
            NOW,
            Nsec3Params::new(iterations, vec![0xab; 8]),
            false,
        ),
    )
    .unwrap()
}

/// The NXDOMAIN proof for `qname` as a validator holds it: the shared
/// parameters and one parsed view per NSEC3 record.
fn parsed_proof(z: &SignedZone, qname: &Name) -> (Nsec3Params, Vec<Nsec3View>) {
    let proof = nxdomain_proof(z, qname).unwrap();
    let nsec3s: Vec<&Record> = proof
        .records
        .iter()
        .copied()
        .filter(|r| r.rrtype() == RrType::NSEC3)
        .collect();
    parse_nsec3_set(&nsec3s).unwrap()
}

fn main() {
    let mut suite = Suite::new("denial_proofs");
    let apex = name("bench.example.");

    let fresh: Vec<Name> = (0..16 * Nsec3HashCache::DEFAULT_CAPACITY)
        .map(|i| name(&format!("nx{i}.bench.example.")))
        .collect();
    for iterations in [0u16, 150] {
        let z = make_signed(iterations);
        let qname = name("nx.bench.example.");
        suite.bench(&format!("nxdomain_proof_synthesis/{iterations}"), || {
            nxdomain_proof(black_box(&z), black_box(&qname)).unwrap()
        });
        // The warm row above re-asks one name, so the thread-local NSEC3
        // hash cache absorbs all three hashes and the iteration count does
        // not show. The cold row asks a name it has not hashed: the pool
        // is 16x the cache's slot count, so by the time a name comes
        // round again its entry has been overwritten, and the next-closer
        // hash is computed on every call (the closest encloser and its
        // wildcard stay cached, as they do for a server under a scan).
        let mut next = 0usize;
        suite.bench(
            &format!("nxdomain_proof_synthesis_cold/{iterations}"),
            || {
                next = (next + 1) % fresh.len();
                nxdomain_proof(black_box(&z), black_box(&fresh[next])).unwrap()
            },
        );
    }

    let z = make_signed(150);
    for depth in [1usize, 3, 6, 10] {
        let labels: Vec<String> = (0..depth).map(|i| format!("l{i}")).collect();
        let qname = Name::parse(&format!("{}.bench.example.", labels.join("."))).unwrap();
        let (params, views) = parsed_proof(&z, &qname);
        suite.bench(
            &format!("nxdomain_verify_by_label_depth_it150/{depth}"),
            || {
                let meter = CostMeter::new();
                verify_nxdomain(black_box(&qname), &apex, &params, &views, &meter).unwrap()
            },
        );
    }

    for iterations in [0u16, 50, 150, 500] {
        let z = make_signed(iterations);
        let qname = name("a.b.c.nx.bench.example.");
        let (params, views) = parsed_proof(&z, &qname);
        suite.bench(
            &format!("nxdomain_verify_by_iterations/{iterations}"),
            || {
                let meter = CostMeter::new();
                verify_nxdomain(black_box(&qname), &apex, &params, &views, &meter).unwrap()
            },
        );
    }

    // The rows above re-verify one proof, so the thread-local NSEC3 hash
    // cache absorbs every hash and the iteration count does not show. The
    // cold rows verify a name never hashed before, from the same pool as
    // the cold synthesis rows: the next closer's chain is computed on
    // every call, the closest encloser and its wildcard stay cached. Which
    // proof a name needs depends only on the NSEC3 record covering it, so
    // one parsed proof per record of the chain serves the whole pool.
    for iterations in [0u16, 150, 500] {
        let z = make_signed(iterations);
        let mut proofs = vec![None; z.nsec3_index.len()];
        let cover: Vec<usize> = fresh
            .iter()
            .map(|qname| {
                let owner = nsec3_covering(&z, qname).expect("a fresh name is covered");
                let at = z.nsec3_index.iter().position(|(_, o)| o == owner).unwrap();
                proofs[at].get_or_insert_with(|| parsed_proof(&z, qname));
                at
            })
            .collect();
        let mut next = 0usize;
        suite.bench(
            &format!("nxdomain_verify_by_iterations_cold/{iterations}"),
            || {
                next = (next + 1) % fresh.len();
                let (params, views) = proofs[cover[next]].as_ref().unwrap();
                let meter = CostMeter::new();
                verify_nxdomain(black_box(&fresh[next]), &apex, params, views, &meter).unwrap()
            },
        );
    }

    suite.finish();
}
