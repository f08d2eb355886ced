//! Zone walking: why NSEC3 exists, and why RFC 9276 argues hashing often
//! is not worth it anyway (Table 1 item 1).
//!
//! Walks an NSEC-signed zone record by record (full enumeration), then
//! shows that the NSEC3 version only leaks hashes — and then breaks those
//! hashes with a dictionary of guessable labels, the paper's §2.3
//! argument: "subdomains are often easily predictable (www, ftp, api)".
//!
//! ```sh
//! cargo run --release --example zone_walking
//! ```

use dns_wire::base32;
use dns_wire::name::{name, Name};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use dns_zone::nsec3hash::nsec3_hash;
use dns_zone::signer::{sign_zone, Denial, SignerConfig};
use dns_zone::Zone;

fn build_zone() -> Zone {
    let apex = name("victim.example.");
    let mut z = Zone::new(apex.clone());
    z.add(Record::new(
        apex.clone(),
        3600,
        RData::Soa {
            mname: name("ns1.victim.example."),
            rname: name("hostmaster.victim.example."),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        },
    ))
    .unwrap();
    // A mix of guessable and secret subdomains.
    for label in [
        "www",
        "api",
        "mail",
        "vpn",
        "internal-dashboard-x7k2",
        "secret-project-zeta",
    ] {
        z.add(Record::new(
            name(&format!("{label}.victim.example.")),
            300,
            RData::A("192.0.2.1".parse().unwrap()),
        ))
        .unwrap();
    }
    z
}

fn main() {
    let now = 1_710_000_000;
    let apex = name("victim.example.");

    // --- NSEC: full enumeration by following the chain. ---
    let nsec_signed = sign_zone(
        build_zone(),
        &SignerConfig {
            denial: Denial::Nsec,
            ..SignerConfig::standard(&apex, now)
        },
    )
    .unwrap();
    println!("NSEC zone walk (each NSEC record names its successor):");
    let mut cur = apex.clone();
    let mut walked = Vec::new();
    loop {
        let rec = &nsec_signed.zone.rrset(&cur, RrType::NSEC).unwrap()[0];
        let next = match &rec.rdata {
            RData::Nsec { next, .. } => next.clone(),
            _ => unreachable!(),
        };
        walked.push(cur.to_string());
        if next == apex {
            break;
        }
        cur = next;
    }
    for n in &walked {
        println!("  {n}");
    }
    println!(
        "  -> the whole zone, including the secret names, in {} steps\n",
        walked.len()
    );

    // --- NSEC3: the chain only leaks hashes… ---
    let nsec3_signed = sign_zone(build_zone(), &SignerConfig::standard(&apex, now)).unwrap();
    println!("NSEC3 chain (hashes only):");
    for (hash, _) in &nsec3_signed.nsec3_index {
        println!("  {}", base32::encode(hash));
    }

    // --- …but a dictionary breaks the guessable ones offline. ---
    let params = nsec3_signed.nsec3_params().unwrap().clone();
    let dictionary = [
        "www", "api", "mail", "ftp", "vpn", "smtp", "ns1", "dev", "staging", "admin", "webmail",
        "portal", "shop", "blog", "cdn",
    ];
    println!(
        "\noffline dictionary attack against the hashes ({} candidates):",
        dictionary.len()
    );
    let mut cracked = 0;
    for word in dictionary {
        let candidate: Name = name(&format!("{word}.victim.example."));
        let h = nsec3_hash(&candidate, &params).digest;
        if nsec3_signed
            .nsec3_index
            .binary_search_by(|(x, _)| x.cmp(&h))
            .is_ok()
        {
            println!("  cracked: {candidate}");
            cracked += 1;
        }
    }
    println!(
        "\n{} of 6 subdomains recovered by guessing; only the unguessable names stay hidden.",
        cracked
    );

    // --- The same attack over the network, with the scanner toolkit. ---
    use dns_scanner::walk;
    use std::rc::Rc;
    let net = netsim::Network::new(7);
    let server_addr: std::net::IpAddr = "10.0.0.53".parse().unwrap();
    let attacker: std::net::IpAddr = "10.6.6.6".parse().unwrap();
    let server = dns_auth::AuthServer::new();
    server.add_zone(nsec3_signed.clone());
    net.register(server_addr, Rc::new(server));
    let harvest = walk::nsec3_collect(&net, attacker, server_addr, &apex, 60)
        .expect("NXDOMAIN responses leak the chain");
    println!(
        "\nnetwork harvest: {} distinct hashes collected from 60 probe queries",
        harvest.hashes.len()
    );
    let cracked = walk::dictionary_attack(&harvest, &apex, &dictionary);
    println!(
        "network-side dictionary attack cracked {} names:",
        cracked.len()
    );
    for (name, work) in &cracked {
        println!("  {name} (after {work} SHA-1 compressions of attacker work)");
    }
    println!("That asymmetry is RFC 9276's item 1 argument: if an attacker can afford a");
    println!("dictionary pass, extra hash iterations only punish legitimate validators —");
    println!("prefer NSEC (or zero iterations) unless zone confidentiality really matters.");
}
