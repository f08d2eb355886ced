//! Quickstart: sign a zone with NSEC3, answer a query with a denial
//! proof, and validate it — the whole DNSSEC denial-of-existence path in
//! one file.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use dns_resolver::cost::CostMeter;
use dns_resolver::validator::{parse_nsec3_set, verify_nxdomain};
use dns_wire::name::name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use dns_zone::denial::nxdomain_proof;
use dns_zone::nsec3hash::{nsec3_hash, Nsec3Params};
use dns_zone::signer::{sign_zone, SignerConfig};
use dns_zone::Zone;

fn main() {
    let now = 1_710_000_000;

    // 1. Build a zone.
    let apex = name("example.org.");
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(
        apex.clone(),
        3600,
        RData::Soa {
            mname: name("ns1.example.org."),
            rname: name("hostmaster.example.org."),
            serial: 2024030501,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        },
    ))
    .unwrap();
    for (label, ip) in [
        ("www", "192.0.2.1"),
        ("api", "192.0.2.2"),
        ("mail", "192.0.2.3"),
    ] {
        zone.add(Record::new(
            name(&format!("{label}.example.org.")),
            300,
            RData::A(ip.parse().unwrap()),
        ))
        .unwrap();
    }

    // 2. Sign it, RFC 9276-style (0 additional iterations, no salt).
    let config = SignerConfig::standard(&apex, now);
    let signed = sign_zone(&zone, &config).unwrap();
    println!(
        "signed zone holds {} records, including:",
        signed.zone.len()
    );
    for rec in signed
        .zone
        .iter()
        .filter(|r| matches!(r.rrtype(), t if t == RrType::NSEC3PARAM || t == RrType::NSEC3))
    {
        println!("  {rec}");
    }

    // 3. The NSEC3 hash of a name (RFC 5155 §5).
    let params = Nsec3Params::rfc9276();
    let h = nsec3_hash(&name("www.example.org."), &params);
    println!(
        "\nNSEC3(www.example.org.) = {} ({} SHA-1 compressions)",
        dns_wire::base32::encode(&h.digest),
        h.compressions
    );

    // 4. Produce an authenticated denial for a name that does not exist.
    let qname = name("nonexistent.example.org.");
    let proof = nxdomain_proof(&signed, &qname).unwrap();
    println!("\nNXDOMAIN proof for {qname}:");
    for rec in &proof.records {
        println!("  {rec}");
    }

    // 5. Validate it the way a resolver would, metering the hash cost.
    let nsec3s: Vec<&Record> = proof
        .records
        .iter()
        .copied()
        .filter(|r| r.rrtype() == RrType::NSEC3)
        .collect();
    let (proof_params, views) = parse_nsec3_set(&nsec3s).unwrap();
    let meter = CostMeter::new();
    let verified = verify_nxdomain(&qname, &apex, &proof_params, &views, &meter).unwrap();
    println!(
        "\nproof verified: closest encloser {}, next closer {}",
        verified.closest_encloser, verified.next_closer
    );
    println!(
        "validation cost: {} hash chains, {} SHA-1 compressions",
        meter.nsec3_hashes(),
        meter.sha1_compressions()
    );
    println!("\nWith 150 additional iterations the same proof would cost 151x the compressions —");
    println!("that is CVE-2023-50868, and why RFC 9276 says: zeros are heroes.");
}
