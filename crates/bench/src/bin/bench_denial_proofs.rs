//! Bench: denial-of-existence proof synthesis (server side) and
//! verification (resolver side), by query-name depth and iteration count
//! (DESIGN.md ablation 2: the closest-encloser walk multiplier).
//! Writes `BENCH_denial_proofs.json`.

use std::hint::black_box;

use dns_resolver::cost::CostMeter;
use dns_resolver::validator::{parse_nsec3_set, verify_nxdomain};
use dns_wire::name::{name, Name};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use dns_zone::denial::nxdomain_proof;
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

fn main() {
    let mut suite = Suite::new("denial_proofs");

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
        let proof = nxdomain_proof(&z, &qname).unwrap();
        let nsec3s: Vec<&Record> = proof
            .records
            .iter()
            .copied()
            .filter(|r| r.rrtype() == RrType::NSEC3)
            .collect();
        let (params, views) = parse_nsec3_set(&nsec3s).unwrap();
        suite.bench(
            &format!("nxdomain_verify_by_label_depth_it150/{depth}"),
            || {
                let meter = CostMeter::new();
                verify_nxdomain(
                    black_box(&qname),
                    &name("bench.example."),
                    &params,
                    &views,
                    &meter,
                )
                .unwrap()
            },
        );
    }

    for iterations in [0u16, 50, 150, 500] {
        let z = make_signed(iterations);
        let qname = name("a.b.c.nx.bench.example.");
        let proof = nxdomain_proof(&z, &qname).unwrap();
        let nsec3s: Vec<&Record> = proof
            .records
            .iter()
            .copied()
            .filter(|r| r.rrtype() == RrType::NSEC3)
            .collect();
        let (params, views) = parse_nsec3_set(&nsec3s).unwrap();
        suite.bench(
            &format!("nxdomain_verify_by_iterations/{iterations}"),
            || {
                let meter = CostMeter::new();
                verify_nxdomain(
                    black_box(&qname),
                    &name("bench.example."),
                    &params,
                    &views,
                    &meter,
                )
                .unwrap()
            },
        );
    }

    suite.finish();
}
