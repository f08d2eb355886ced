//! Bench: zone signing cost by zone size and denial mechanism
//! (DESIGN.md ablation 4: opt-out vs full chain, NSEC vs NSEC3).
//! Writes `BENCH_zone_signing.json`.

use std::hint::black_box;

use dns_wire::name::{name, Name};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_zone::nsec3hash::{clear_thread_cache, Nsec3Params};
use dns_zone::signer::{sign_zone, Denial, SignerConfig};
use dns_zone::Zone;
use heroes_bench::microbench::Suite;
use heroes_bench::EXPERIMENT_NOW as NOW;

/// A zone with `n` hosts plus `n/4` insecure delegations.
fn make_zone(n: usize) -> Zone {
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
    for i in 0..n {
        let owner = Name::parse(&format!("host{i}.bench.example.")).unwrap();
        z.add(Record::new(
            owner,
            300,
            RData::A(format!("10.1.{}.{}", i / 256, i % 256).parse().unwrap()),
        ))
        .unwrap();
    }
    for i in 0..n / 4 {
        let cut = Name::parse(&format!("sub{i}.bench.example.")).unwrap();
        z.add(Record::new(cut, 3600, RData::Ns(name("ns.other.example."))))
            .unwrap();
    }
    z
}

fn main() {
    let mut suite = Suite::new("zone_signing");

    for n in [10usize, 100, 1000] {
        let zone = make_zone(n);
        let cfg = SignerConfig::standard(zone.apex(), NOW);
        suite.bench(&format!("size_nsec3_rfc9276/{n}"), || {
            sign_zone(black_box(&zone), &cfg).unwrap()
        });
    }

    let zone = make_zone(200);
    let variants: Vec<(&str, Denial)> = vec![
        ("nsec", Denial::Nsec),
        ("nsec3_it0", Denial::nsec3_rfc9276()),
        (
            "nsec3_it0_optout",
            Denial::Nsec3 {
                params: Nsec3Params::rfc9276(),
                opt_out: true,
            },
        ),
        (
            "nsec3_it100_salt8",
            Denial::Nsec3 {
                params: Nsec3Params::new(100, vec![0xab; 8]),
                opt_out: false,
            },
        ),
    ];
    for (label, denial) in variants {
        let cfg = SignerConfig {
            denial,
            ..SignerConfig::standard(zone.apex(), NOW)
        };
        // Every call signs from an empty hash cache, as a driver signing
        // a zone for the first time does. Left warm, the cache absorbs the
        // iteration count — or, for a non-compliant parameter set, does
        // not, wherever an earlier row's RFC 9276 entries hold the slot
        // (the admission rule), and the row reads what those rows left.
        suite.bench(&format!("denial_mechanism_200_names/{label}"), || {
            clear_thread_cache();
            sign_zone(black_box(&zone), &cfg).unwrap()
        });
    }

    suite.finish();
}
