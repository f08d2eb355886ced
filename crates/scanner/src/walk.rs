//! Zone enumeration over the network: AXFR transfers, NSEC chain walking,
//! NSEC3 hash collection, and offline dictionary attacks — the §6
//! discussion made executable ("It was shown that hashing does not
//! prevent deliberate attackers from obtaining the contents of zone
//! files").

use std::collections::BTreeSet;
use std::net::IpAddr;

use dns_wire::message::{unframe_tcp, Message};
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::{Rcode, RrType};
use dns_zone::nsec3hash::{nsec3_hash_cached, Nsec3Params};
use netsim::{Network, Outcome, RetryPolicy};

use crate::reply_to;

/// Ask `server` `qname`/`qtype`; the reply, if one answers the query
/// ([`reply_to`]).
fn query(
    net: &Network,
    src: IpAddr,
    server: IpAddr,
    qname: &Name,
    qtype: RrType,
) -> Option<Message> {
    let msg = Message::query(0x4a1d, qname.clone(), qtype);
    dns_wire::with_pooled(|buf| {
        msg.encode_into(buf);
        match net
            .send_query_with_policy(src, server, buf.as_slice(), &RetryPolicy::fixed(2))
            .outcome
        {
            Outcome::Response { payload, .. } => reply_to(&msg, &payload),
            _ => None,
        }
    })
}

/// Request a full zone transfer. AXFR is a stream-transport operation
/// (RFC 5936 §4.2), so the query goes out TCP-framed. Returns the records
/// (without the trailing SOA duplicate) or `None` if refused/unanswered.
pub fn axfr(net: &Network, src: IpAddr, server: IpAddr, apex: &Name) -> Option<Vec<Record>> {
    let query = Message::query(0xaf42, apex.clone(), RrType::AXFR);
    let mut q = Vec::new();
    query.encode_framed_append(&mut q);
    let resp = match net
        .send_query_with_policy(src, server, &q, &RetryPolicy::fixed(2))
        .outcome
    {
        Outcome::Response { payload, .. } => reply_to(&query, unframe_tcp(&payload)?)?,
        _ => return None,
    };
    if resp.rcode != Rcode::NoError || resp.answers.is_empty() {
        return None;
    }
    let mut records = resp.answers;
    // Strip the RFC 5936 trailing SOA.
    if records.len() >= 2 && records.last().map(|r| r.rrtype()) == Some(RrType::SOA) {
        records.pop();
    }
    Some(records)
}

/// The hashes harvested from NSEC3 denial responses.
#[derive(Clone, Debug)]
pub struct Nsec3Harvest {
    /// The zone's NSEC3 parameters as observed.
    pub params: Nsec3Params,
    /// Distinct owner hashes seen (each is one existing name).
    pub hashes: BTreeSet<Vec<u8>>,
}

/// Collect NSEC3 owner hashes by firing `probes` random nonexistent
/// queries at the zone: each NXDOMAIN leaks up to three chain links
/// (RFC 5155's enumeration weakness in practice).
pub fn nsec3_collect(
    net: &Network,
    src: IpAddr,
    server: IpAddr,
    apex: &Name,
    probes: usize,
) -> Option<Nsec3Harvest> {
    let mut params: Option<Nsec3Params> = None;
    let mut hashes = BTreeSet::new();
    for i in 0..probes {
        let probe = Name::parse(&format!("walk-probe-{i:04x}"))
            .ok()?
            .concat(apex)
            .ok()?;
        let resp = query(net, src, server, &probe, RrType::A)?;
        for rec in resp.authorities.iter().chain(resp.answers.iter()) {
            if let RData::Nsec3 { next_hashed, .. } = &rec.rdata {
                if params.is_none() {
                    params = Nsec3Params::from_rdata(&rec.rdata);
                }
                // Owner hash from the first label…
                if let Some(label) = rec.name.labels().next() {
                    if let Some(h) = dns_wire::base32::decode(label) {
                        hashes.insert(h);
                    }
                }
                // …and the next-hashed field leaks one more.
                hashes.insert(next_hashed.clone());
            }
        }
    }
    params.map(|params| Nsec3Harvest { params, hashes })
}

/// Offline dictionary attack on harvested hashes: hash each candidate
/// label under the zone's parameters and report the matches — exactly the
/// GPU attack of Wander et al. scaled to a word list.
pub fn dictionary_attack(
    harvest: &Nsec3Harvest,
    apex: &Name,
    dictionary: &[&str],
) -> Vec<(Name, u64)> {
    let mut cracked = Vec::new();
    let mut work = 0u64;
    let mut candidates: Vec<Name> = vec![apex.clone()];
    for word in dictionary {
        if let Ok(rel) = Name::parse(word) {
            if let Ok(full) = rel.concat(apex) {
                candidates.push(full);
            }
        }
    }
    // Through the thread cache: repeat attacks against the same zone (or
    // shared dictionary words) replay memoized chains. `work` still accounts
    // the full attacker cost in candidate order — a cache hit replays the
    // stored compressions.
    for candidate in candidates {
        let h = nsec3_hash_cached(&candidate, &harvest.params);
        work += h.compressions;
        if harvest.hashes.contains(h.digest.as_slice()) {
            cracked.push((candidate, work));
        }
    }
    cracked
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_auth::AuthServer;
    use dns_wire::name::name;
    use dns_zone::signer::{sign_zone, Denial, SignerConfig};
    use dns_zone::Zone;
    use std::rc::Rc;

    const NOW: u32 = 1_710_000_000;

    fn victim_zone(denial: Denial) -> dns_zone::SignedZone {
        let apex = name("victim.test.");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            3600,
            RData::Soa {
                mname: name("ns1.victim.test."),
                rname: name("host.victim.test."),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            },
        ))
        .unwrap();
        for label in ["www", "api", "mail", "hidden-xk42"] {
            z.add(Record::new(
                name(&format!("{label}.victim.test.")),
                300,
                RData::A("192.0.2.1".parse().unwrap()),
            ))
            .unwrap();
        }
        sign_zone(
            &z,
            &SignerConfig {
                denial,
                ..SignerConfig::standard(&apex, NOW)
            },
        )
        .unwrap()
    }

    fn setup(denial: Denial, allow_axfr: bool) -> (Network, IpAddr, IpAddr) {
        let net = Network::new(5);
        let server_addr: IpAddr = "10.0.0.53".parse().unwrap();
        let src: IpAddr = "10.0.0.99".parse().unwrap();
        let server = AuthServer::new();
        server.add_zone(victim_zone(denial));
        if allow_axfr {
            server.allow_axfr(&name("victim.test."));
        }
        net.register(server_addr, Rc::new(server));
        (net, src, server_addr)
    }

    #[test]
    fn axfr_dumps_or_refuses() {
        let (net, src, server) = setup(Denial::nsec3_rfc9276(), true);
        let records = axfr(&net, src, server, &name("victim.test.")).unwrap();
        assert!(records.len() > 10);
        assert_eq!(records[0].rrtype(), RrType::SOA);
        let (net2, src2, server2) = setup(Denial::nsec3_rfc9276(), false);
        assert!(axfr(&net2, src2, server2, &name("victim.test.")).is_none());
    }

    #[test]
    fn a_transfer_answering_another_query_is_refused() {
        // Each mangler relays a real transfer with one header bit wrong:
        // a rewritten ID, then QR cleared (the stream frame's first two
        // octets are its length, so the header starts at octet 2).
        struct Mangler(AuthServer, fn(&mut [u8]));
        impl netsim::Node for Mangler {
            fn handle(
                &self,
                net: &Network,
                src: IpAddr,
                payload: &[u8],
                reply: &mut Vec<u8>,
            ) -> Option<()> {
                self.0.handle(net, src, payload, reply)?;
                (self.1)(&mut reply[2..]);
                Some(())
            }
        }
        let transfer = |mangle| {
            let net = Network::new(5);
            let (src, server) = ("10.0.0.99".parse().unwrap(), "10.0.0.53".parse().unwrap());
            let auth = AuthServer::new();
            auth.add_zone(victim_zone(Denial::nsec3_rfc9276()));
            auth.allow_axfr(&name("victim.test."));
            net.register(server, Rc::new(Mangler(auth, mangle)));
            axfr(&net, src, server, &name("victim.test."))
        };
        assert!(
            transfer(|_| {}).is_some(),
            "the relay alone changes nothing"
        );
        assert!(transfer(|m| m[0] ^= 0xff).is_none(), "another ID");
        assert!(transfer(|m| m[2] &= 0x7f).is_none(), "QR clear");
    }

    #[test]
    fn nsec3_collect_and_crack() {
        let (net, src, server) = setup(
            Denial::Nsec3 {
                params: Nsec3Params::new(2, vec![0xab, 0xcd]),
                opt_out: false,
            },
            false,
        );
        let harvest = nsec3_collect(&net, src, server, &name("victim.test."), 40).unwrap();
        assert_eq!(harvest.params.iterations, 2);
        // 5 existing names → at most 5 distinct hashes; probes should find
        // most of the small chain.
        assert!(harvest.hashes.len() >= 3, "{}", harvest.hashes.len());
        let cracked = dictionary_attack(
            &harvest,
            &name("victim.test."),
            &["www", "api", "ftp", "mail", "smtp"],
        );
        let cracked_names: Vec<String> = cracked.iter().map(|(n, _)| n.to_string()).collect();
        assert!(cracked_names.contains(&"www.victim.test.".to_string()));
        assert!(!cracked_names.iter().any(|n| n.contains("hidden")));
        // Work accounting is monotone.
        for w in cracked.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }
}
