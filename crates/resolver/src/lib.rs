//! A validating recursive DNS resolver with configurable RFC 9276
//! behaviour, vendor profiles, and CVE-2023-50868 cost accounting.
//!
//! * [`resolver`] — iterative resolution + DNSSEC chain validation, as a
//!   recursion that yields at every upstream exchange.
//! * `net` — the netsim adaptor that feeds the recursion from the
//!   simulated network (`Resolver::resolve`, `Recursion::step`) and the
//!   crate's one network node, the resolver, whose
//!   [`ResolverConfig::quirk`] makes it a query copier or a flaky
//!   resolver.
//! * [`validator`] — RRset signature checks and NSEC/NSEC3 proof
//!   verification (the CVE cost center).
//! * [`policy`] — the RFC 9276 items 6–12 knobs.
//! * [`profiles`] — BIND/Unbound/Knot/PowerDNS/Google/Cloudflare/Quad9/
//!   OpenDNS/Technitium behaviour presets.
//! * [`broken`] — what the §5.2 classifier reads off a reply.
//! * [`cost`] — compression-count cost model.
//! * [`lab`] — a signed root→TLD→child hierarchy on the simulated network,
//!   shared by tests, the testbed, and benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod aggressive;
pub mod broken;
pub(crate) mod cache;
pub mod cost;
pub(crate) mod delegation;
pub mod lab;
mod net;
pub mod policy;
pub mod profiles;
pub mod resolver;
pub mod validator;

pub use broken::ObservedResponse;
pub use cache::TtlCache;
pub use cost::{CostMeter, CostSnapshot};
pub use lab::{Lab, LabBuilder, ZoneSpec};
pub use policy::{LimitAction, Rfc9276Policy, WorkBudget};
pub use profiles::VendorProfile;
pub use resolver::{
    Quirk, Recursion, RecursionStep, ResolveOutcome, Resolver, ResolverConfig, TrustAnchor,
};

#[cfg(test)]
mod e2e {
    use super::*;
    use dns_wire::edns::EdeCode;
    use dns_wire::name::{name, Name};
    use dns_wire::rrtype::{Rcode, RrType};
    use dns_zone::nsec3hash::Nsec3Params;
    use dns_zone::signer::Denial;
    use dns_zone::{faults, Zone};
    use std::net::IpAddr;
    use std::rc::Rc;

    const NOW: u32 = 1_710_000_000;

    fn lab_with_params(params_list: &[(&str, Nsec3Params)]) -> Lab {
        let mut b = LabBuilder::new(NOW).simple_zone(&name("com."), Denial::nsec3_rfc9276());
        for (apex, params) in params_list {
            b = b.simple_zone(
                &name(apex),
                Denial::Nsec3 {
                    params: params.clone(),
                    opt_out: false,
                },
            );
        }
        b.build()
    }

    /// A client's one datagram to `server`, read the classifier's way.
    fn dig(net: &netsim::Network, client: IpAddr, server: IpAddr, q: &[u8]) -> ObservedResponse {
        ObservedResponse::from_message(&ask(net, client, server, q))
    }

    /// A client's one datagram to `server`, decoded.
    fn ask(net: &netsim::Network, client: IpAddr, server: IpAddr, q: &[u8]) -> dns_wire::Message {
        let once = netsim::RetryPolicy::fixed(1);
        match net::exchange(net, client, server, q, &once).reply {
            resolver::Reply::Bytes(reply) => dns_wire::Message::decode(&reply).unwrap(),
            silence => panic!("{server} did not answer: {silence:?}"),
        }
    }

    fn resolver_for(lab: &mut Lab, policy: Rfc9276Policy) -> Resolver {
        let addr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(addr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.policy = policy;
        Resolver::new(cfg)
    }

    #[test]
    fn positive_answer_is_secure() {
        let mut lab = lab_with_params(&[("example.com.", Nsec3Params::rfc9276())]);
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &name("www.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NoError);
        assert!(
            out.authenticated,
            "chain root→com→example.com must validate"
        );
        assert_eq!(out.answers.len(), 1);
    }

    #[test]
    fn nxdomain_is_secure_with_compliant_params() {
        let mut lab = lab_with_params(&[("example.com.", Nsec3Params::rfc9276())]);
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &name("nope.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert!(out.authenticated);
        assert!(out.cost.nsec3_hashes >= 3);
    }

    #[test]
    fn high_iterations_with_unlimited_policy_still_validates() {
        let mut lab = lab_with_params(&[("it-500.example.com.", Nsec3Params::new(500, vec![]))]);
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &name("probe.it-500.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert!(out.authenticated);
        // The cost blow-up: each hash chain is 501 compressions.
        assert!(out.cost.sha1_compressions > 1000, "{:?}", out.cost);
    }

    #[test]
    fn item6_insecure_above_threshold() {
        let mut lab = lab_with_params(&[("it-200.example.com.", Nsec3Params::new(200, vec![]))]);
        let r = resolver_for(&mut lab, Rfc9276Policy::insecure_above(150));
        let out = r.resolve(&lab.net, &name("probe.it-200.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert!(!out.authenticated, "above the limit: NXDOMAIN without AD");
        assert_eq!(
            out.ede.as_ref().map(|e| e.0),
            Some(EdeCode::UNSUPPORTED_NSEC3_ITERATIONS)
        );
    }

    #[test]
    fn item6_below_threshold_still_secure() {
        let mut lab = lab_with_params(&[("it-100.example.com.", Nsec3Params::new(100, vec![]))]);
        let r = resolver_for(&mut lab, Rfc9276Policy::insecure_above(150));
        let out = r.resolve(&lab.net, &name("probe.it-100.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert!(out.authenticated);
    }

    #[test]
    fn item8_servfail_above_threshold() {
        let mut lab = lab_with_params(&[("it-200.example.com.", Nsec3Params::new(200, vec![]))]);
        let r = resolver_for(&mut lab, Rfc9276Policy::servfail_above(150));
        let out = r.resolve(&lab.net, &name("probe.it-200.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail);
        assert_eq!(
            out.ede.as_ref().map(|e| e.0),
            Some(EdeCode::UNSUPPORTED_NSEC3_ITERATIONS)
        );
    }

    #[test]
    fn expired_signatures_servfail() {
        let mut b = LabBuilder::new(NOW).simple_zone(&name("com."), Denial::nsec3_rfc9276());
        let mut spec = ZoneSpec::new(
            lab::simple_zone_contents(&name("expired.example.com.")),
            Denial::nsec3_rfc9276(),
        );
        spec.expired = true;
        b = b
            .simple_zone(&name("example.com."), Denial::nsec3_rfc9276())
            .zone(spec);
        let mut lab = b.build();
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &name("www.expired.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail);
    }

    #[test]
    fn item7_compliant_resolver_catches_expired_nsec3_despite_limit() {
        // The it-2501-expired scenario: iterations over every limit AND
        // expired RRSIGs over the NSEC3 records. A compliant resolver
        // (verify_nsec3_rrsig = true) must SERVFAIL, not downgrade.
        let mut b = LabBuilder::new(NOW).simple_zone(&name("com."), Denial::nsec3_rfc9276());
        let mut spec = ZoneSpec::new(
            lab::simple_zone_contents(&name("it-2501-expired.example.com.")),
            Denial::Nsec3 {
                params: Nsec3Params::new(2501, vec![]),
                opt_out: false,
            },
        );
        spec.post_sign = Some(Box::new(|z| {
            faults::expire_rrsigs(z, Some(RrType::NSEC3), NOW);
        }));
        b = b
            .simple_zone(&name("example.com."), Denial::nsec3_rfc9276())
            .zone(spec);
        let mut lab = b.build();

        let compliant = resolver_for(&mut lab, Rfc9276Policy::insecure_above(150));
        let out = compliant.resolve(
            &lab.net,
            &name("probe.it-2501-expired.example.com."),
            RrType::A,
        );
        assert_eq!(
            out.rcode,
            Rcode::ServFail,
            "item 7: must verify NSEC3 RRSIG first"
        );

        // The 0.2 % violator skips the check and returns insecure NXDOMAIN.
        let mut violator_policy = Rfc9276Policy::insecure_above(150);
        violator_policy.verify_nsec3_rrsig = false;
        let violator = resolver_for(&mut lab, violator_policy);
        let out = violator.resolve(
            &lab.net,
            &name("probe2.it-2501-expired.example.com."),
            RrType::A,
        );
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert!(!out.authenticated);
    }

    #[test]
    fn insecure_delegation_resolves_without_ad() {
        let mut b = LabBuilder::new(NOW).simple_zone(&name("com."), Denial::nsec3_rfc9276());
        let mut spec = ZoneSpec::new(
            lab::simple_zone_contents(&name("unsigned.example.com.")),
            Denial::nsec3_rfc9276(),
        );
        spec.unsigned_delegation = true;
        b = b
            .simple_zone(&name("example.com."), Denial::nsec3_rfc9276())
            .zone(spec);
        let mut lab = b.build();
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &name("www.unsigned.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NoError);
        assert!(!out.authenticated, "insecure island: no AD");
        assert_eq!(out.answers.len(), 1);
    }

    #[test]
    fn non_validating_resolver_never_authenticates() {
        let mut lab = lab_with_params(&[("example.com.", Nsec3Params::rfc9276())]);
        let addr = lab.alloc.v4();
        let mut cfg = ResolverConfig::stub(addr, lab.root_hints.clone());
        cfg.now = lab.now;
        let r = Resolver::new(cfg);
        let out = r.resolve(&lab.net, &name("www.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NoError);
        assert!(!out.authenticated);
    }

    #[test]
    fn resolver_as_node_sets_ad_and_ra() {
        let mut lab = lab_with_params(&[("example.com.", Nsec3Params::rfc9276())]);
        let raddr = lab.alloc.v4();
        let client = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        lab.net.register(raddr, Rc::new(Resolver::new(cfg)));
        let q = dns_wire::Message::query(5, name("nope.example.com."), RrType::A).encode();
        let obs = dig(&lab.net, client, raddr, &q);
        assert_eq!(obs.rcode, Rcode::NxDomain);
        assert!(obs.ad);
        assert!(obs.ra);
    }

    /// A resolver at the next free address, serving as `quirk` under
    /// `policy`.
    fn node_for(lab: &mut Lab, policy: Rfc9276Policy, quirk: Quirk) -> IpAddr {
        let addr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(addr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.policy = policy;
        cfg.quirk = quirk;
        lab.net.register(addr, Rc::new(Resolver::new(cfg)));
        addr
    }

    /// A DO query for `qname`/A, with RA set as `ra` says.
    fn query_bytes(qname: &str, ra: bool) -> Vec<u8> {
        let mut q = dns_wire::Message::query(5, name(qname), RrType::A);
        q.flags.ra = ra;
        q.encode()
    }

    #[test]
    fn query_copier_servfails_any_iterations_and_copies_ra() {
        let mut lab = lab_with_params(&[
            ("it-0.example.com.", Nsec3Params::new(0, vec![])),
            ("it-1.example.com.", Nsec3Params::new(1, vec![])),
        ]);
        let client = lab.alloc.v4();
        // The copier's policy with EDE left on: the outcome carries one,
        // and only the reply shape keeps it from the client.
        let policy = Rfc9276Policy::servfail_above(0);
        let copier = node_for(&mut lab, policy.clone(), Quirk::QueryCopier);
        let plain = node_for(&mut lab, policy, Quirk::Plain);
        let net = &lab.net;
        let q = query_bytes("p1.it-1.example.com.", false);
        let obs = dig(net, client, copier, &q);
        assert_eq!(obs.rcode, Rcode::ServFail);
        assert!(!obs.ra, "copier mirrors the query's (unset) RA bit");
        let q = query_bytes("p2.it-1.example.com.", true);
        let reply = ask(net, client, copier, &q);
        assert_eq!(reply.rcode, Rcode::ServFail);
        assert!(reply.flags.ra, "copier mirrors the query's (set) RA bit");
        assert!(reply.authorities.is_empty(), "{reply:?}");
        assert!(reply.edns.unwrap().ede().is_none(), "copier relays no EDE");
        assert!(ask(net, client, plain, &q).edns.unwrap().ede().is_some());
        // A secure NXDOMAIN under DO: a resolver relays the proof, the
        // copier drops it.
        let q = query_bytes("nope.it-0.example.com.", false);
        let control = ask(net, client, plain, &q);
        assert_eq!(control.rcode, Rcode::NxDomain);
        assert!(control.flags.ra && !control.authorities.is_empty());
        let reply = ask(net, client, copier, &q);
        assert_eq!(reply.rcode, Rcode::NxDomain);
        assert!(!reply.flags.ra && reply.authorities.is_empty(), "{reply:?}");
    }

    #[test]
    fn tampered_answer_is_bogus() {
        let mut b = LabBuilder::new(NOW).simple_zone(&name("com."), Denial::nsec3_rfc9276());
        let mut spec = ZoneSpec::new(
            lab::simple_zone_contents(&name("tampered.example.com.")),
            Denial::nsec3_rfc9276(),
        );
        spec.post_sign = Some(Box::new(|z| {
            faults::corrupt_rrsigs_covering(z, RrType::A);
        }));
        b = b
            .simple_zone(&name("example.com."), Denial::nsec3_rfc9276())
            .zone(spec);
        let mut lab = b.build();
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &name("www.tampered.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail);
    }

    #[test]
    fn check_limits_first_saves_work() {
        // The limits are checked before any proof work: the resolver
        // spends no hash work on an over-limit zone.
        let mut lab = lab_with_params(&[("it-500.example.com.", Nsec3Params::new(500, vec![]))]);
        let fast = resolver_for(&mut lab, Rfc9276Policy::servfail_above(150));
        let out = fast.resolve(&lab.net, &name("p1.it-500.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail);
        assert_eq!(
            out.cost.nsec3_hashes, 0,
            "limit check shortcuts all hashing"
        );
    }

    #[test]
    fn caching_answers_and_keys() {
        let mut lab = lab_with_params(&[("example.com.", Nsec3Params::rfc9276())]);
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let q = name("www.example.com.");
        let first = r.resolve(&lab.net, &q, RrType::A);
        assert!(first.cost.messages_sent > 0);
        // Same question again: answered from cache, zero network cost.
        let second = r.resolve(&lab.net, &q, RrType::A);
        assert_eq!(second.rcode, first.rcode);
        assert_eq!(second.answers, first.answers);
        assert_eq!(second.cost.messages_sent, 0);
        assert!(r.cache_hits() >= 1);
        // A different name under the same zone reuses validated keys:
        // fewer messages than the cold resolution.
        let third = r.resolve(&lab.net, &name("nope.example.com."), RrType::A);
        assert!(third.cost.messages_sent < first.cost.messages_sent);
        // After the TTL (300 s for this zone) the answer expires.
        lab.net.advance(400 * 1_000_000);
        let fourth = r.resolve(&lab.net, &q, RrType::A);
        assert!(
            fourth.cost.messages_sent > 0,
            "cache entry expired with TTL"
        );
    }

    /// A hit is the miss minus its cost: the same verdict, the same
    /// shared sections and the same reply bytes, for a positive answer, a
    /// secure NXDOMAIN with its proof and a policy SERVFAIL with EDE.
    #[test]
    fn cache_hit_is_the_miss_without_its_cost() {
        let mut lab = lab_with_params(&[
            ("example.com.", Nsec3Params::rfc9276()),
            ("it-200.example.com.", Nsec3Params::new(200, vec![])),
        ]);
        let r = resolver_for(&mut lab, Rfc9276Policy::servfail_above(150));
        for (qname, rcode) in [
            ("www.example.com.", Rcode::NoError),
            ("nope.example.com.", Rcode::NxDomain),
            ("probe.it-200.example.com.", Rcode::ServFail),
        ] {
            let qname = name(qname);
            let miss = r.resolve(&lab.net, &qname, RrType::A);
            let hits = r.cache_hits();
            let hit = r.resolve(&lab.net, &qname, RrType::A);
            assert_eq!(r.cache_hits(), hits + 1, "{qname}: answered from the cache");
            assert_eq!(miss.rcode, rcode, "{qname}");
            assert_eq!(hit.rcode, miss.rcode, "{qname}");
            assert_eq!(hit.authenticated, miss.authenticated, "{qname}");
            assert_eq!(hit.ede, miss.ede, "{qname}");
            assert_eq!(hit.answers, miss.answers, "{qname}");
            assert_eq!(hit.authorities, miss.authorities, "{qname}");
            let query = dns_wire::Message::query(7, qname.clone(), RrType::A);
            let reply = |outcome| {
                let mut bytes = Vec::new();
                net::write_reply(&query, outcome, Quirk::Plain, &mut bytes);
                bytes
            };
            assert_eq!(reply(&hit), reply(&miss), "{qname}: reply bytes");
            assert_eq!(hit.cost, CostSnapshot::default(), "{qname}: a hit is free");
            assert_ne!(miss.cost, CostSnapshot::default(), "{qname}: a miss is not");
            match rcode {
                Rcode::NoError => assert!(miss.authenticated && miss.answers.len() == 1),
                Rcode::NxDomain => {
                    assert!(miss.authenticated);
                    let proof = miss
                        .authorities
                        .iter()
                        .filter(|a| a.rrtype() == RrType::NSEC3);
                    assert!(proof.count() >= 2, "the proof rides along");
                }
                _ => assert_eq!(
                    miss.ede.as_ref().map(|e| e.0),
                    Some(EdeCode::UNSUPPORTED_NSEC3_ITERATIONS)
                ),
            }
        }
    }

    #[test]
    fn oversized_nsec3_answers_fall_back_to_tcp() {
        // A 255-byte salt makes the three-NSEC3 NXDOMAIN proof overflow
        // the 1232-byte UDP budget: the server truncates, the resolver
        // retries over TCP framing, and validation still succeeds.
        let mut lab =
            lab_with_params(&[("fat.example.com.", Nsec3Params::new(3, vec![0xEE; 255]))]);
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &name("nope.fat.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NxDomain);
        assert!(out.authenticated, "TCP fallback preserved the proof");
        // The denial actually came back oversized.
        let proof_bytes: usize = out
            .authorities
            .iter()
            .map(|rec| rec.rdata.canonical_bytes().len())
            .sum();
        // RDATA alone nears the UDP budget; with owner names, RRSIGs and
        // the SOA the encoded message exceeds 1232 (hence the TC retry
        // asserted below).
        assert!(
            proof_bytes > 1000,
            "proof is genuinely oversized: {proof_bytes}"
        );
        // The TC exchange cost an extra message on the final hop.
        let slim = lab_with_params(&[("slim.example.com.", Nsec3Params::new(3, vec![]))]);
        let mut lab2 = slim;
        let r2 = resolver_for(&mut lab2, Rfc9276Policy::unlimited());
        let slim_out = r2.resolve(&lab2.net, &name("nope.slim.example.com."), RrType::A);
        assert!(
            out.cost.messages_sent > slim_out.cost.messages_sent,
            "{} vs {}",
            out.cost.messages_sent,
            slim_out.cost.messages_sent
        );
    }

    #[test]
    fn dns0x20_rejects_case_mangling_servers() {
        // A middlebox that rewrites the echoed question to lowercase
        // defeats the 0x20 check; the resolver must treat its answers as
        // spoofed (and, with no other server, fail).
        let mut lab = lab_with_params(&[("example.com.", Nsec3Params::rfc9276())]);
        interpose(&lab, "example.com.", |reply| {
            for q in &mut reply.questions {
                q.qname = q.qname.to_lowercase();
            }
        });
        let strict = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = strict.resolve(&lab.net, &name("www.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail, "mangled echo treated as spoof");
    }

    #[test]
    fn reply_to_a_different_question_is_rejected() {
        // An upstream that echoes the ID but answers some other question.
        // The ID alone must not make it the answer.
        struct WrongQuestion;
        impl netsim::Node for WrongQuestion {
            fn handle(
                &self,
                _net: &netsim::Network,
                _src: std::net::IpAddr,
                payload: &[u8],
                reply: &mut Vec<u8>,
            ) -> Option<()> {
                let mut query = dns_wire::Message::decode(payload).ok()?;
                query.questions[0].qname = name("other.example.");
                let mut resp = dns_wire::Message::response_to(&query);
                resp.flags.aa = true;
                resp.answers.push(dns_wire::Record::new(
                    name("other.example."),
                    300,
                    dns_wire::RData::A("192.0.2.66".parse().unwrap()),
                ));
                resp.encode_append(reply);
                Some(())
            }
        }
        let net = netsim::Network::new(1);
        let upstream: std::net::IpAddr = "10.0.0.53".parse().unwrap();
        net.register(upstream, Rc::new(WrongQuestion));
        let cfg = ResolverConfig::stub("10.0.0.1".parse().unwrap(), vec![upstream]);
        let out = Resolver::new(cfg).resolve(&net, &name("www.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail, "foreign answer not relayed");
        assert!(out.answers.is_empty());
    }

    #[test]
    fn reply_echoing_another_qtype_is_rejected() {
        // An upstream whose replies come back with the echoed qtype octet
        // flipped answers a question nobody asked: none may be accepted.
        struct QtypeFlipper(Rc<dyn netsim::Node>);
        impl netsim::Node for QtypeFlipper {
            fn handle(
                &self,
                net: &netsim::Network,
                src: IpAddr,
                payload: &[u8],
                reply: &mut Vec<u8>,
            ) -> Option<()> {
                self.0.handle(net, src, payload, reply)?;
                // The question's name follows the 12-octet header
                // uncompressed; the qtype's low octet is two past its end.
                let mut at = 12;
                while reply[at] != 0 {
                    at += 1 + usize::from(reply[at]);
                }
                reply[at + 2] ^= 0x1d;
                Some(())
            }
        }
        let mut lab = lab_with_params(&[("example.com.", Nsec3Params::rfc9276())]);
        let (v4, v6) = lab.servers[&name("example.com.")];
        let flipper: Rc<dyn netsim::Node> =
            Rc::new(QtypeFlipper(lab.auths[&name("example.com.")].clone()));
        for addr in [v4, v6] {
            lab.net.unregister(addr);
            lab.net.register(addr, flipper.clone());
        }
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &name("www.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail, "an answer to another qtype");
        assert!(out.answers.is_empty());
    }

    #[test]
    fn aggressive_nsec3_synthesizes_second_nxdomain() {
        let mut lab = lab_with_params(&[("example.com.", Nsec3Params::rfc9276())]);
        let addr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(addr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.aggressive_nsec3 = true;
        let r = Resolver::new(cfg);
        // First miss: full recursion, chain cached.
        let first = r.resolve(&lab.net, &name("miss-one.example.com."), RrType::A);
        assert_eq!(first.rcode, Rcode::NxDomain);
        assert!(first.cost.messages_sent > 0);
        // Second (different) miss: synthesized without any network I/O,
        // but the hash work remains — RFC 8198 §5.4's caveat.
        let second = r.resolve(&lab.net, &name("miss-two.example.com."), RrType::A);
        assert_eq!(second.rcode, Rcode::NxDomain);
        assert!(second.authenticated);
        assert_eq!(second.cost.messages_sent, 0, "no upstream queries");
        assert!(second.cost.nsec3_hashes >= 3, "synthesis still hashes");
        assert_eq!(r.synthesized_nxdomains(), 1);
        // Existing names are never wrongly denied.
        let pos = r.resolve(&lab.net, &name("www.example.com."), RrType::A);
        assert_eq!(pos.rcode, Rcode::NoError);
        assert_eq!(pos.answers.len(), 1);
    }

    #[test]
    fn rfc8198_zone_index_is_bounded_and_drops_expired_sets() {
        let apexes: Vec<String> = (0..12).map(|i| format!("z{i}.example.com.")).collect();
        let zones: Vec<(&str, Nsec3Params)> = apexes
            .iter()
            .map(|a| (a.as_str(), Nsec3Params::rfc9276()))
            .collect();
        let mut lab = lab_with_params(&zones);
        let addr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(addr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.cache_size = 8;
        cfg.aggressive_nsec3 = true;
        let r = Resolver::new(cfg);
        for apex in &apexes {
            let out = r.resolve(&lab.net, &name(&format!("miss.{apex}")), RrType::A);
            assert_eq!((out.rcode, out.authenticated), (Rcode::NxDomain, true));
        }
        assert_eq!(
            r.denial_sets(),
            8,
            "one set per zone, at most cache_size.min(512)"
        );
        // The four oldest went; the newest still synthesize.
        let now = lab.net.now_micros();
        let other = |i: usize| name(&format!("other.z{i}.example.com."));
        assert!(r.fast_path(now, &other(0), RrType::A).is_none());
        let synthesized = r
            .fast_path(now, &other(11), RrType::A)
            .expect("z11's set is held");
        assert_eq!(synthesized.rcode, Rcode::NxDomain);
        // Past the TTL, a probe removes the expired set it meets.
        let later = now + 301_000_000;
        assert!(r.fast_path(later, &other(11), RrType::A).is_none());
        assert_eq!(r.denial_sets(), 7);
    }

    #[test]
    fn cache_disabled_with_zero_capacity() {
        let mut lab = lab_with_params(&[("example.com.", Nsec3Params::rfc9276())]);
        let addr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(addr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.cache_size = 0;
        let r = Resolver::new(cfg);
        let q = name("www.example.com.");
        let first = r.resolve(&lab.net, &q, RrType::A);
        let second = r.resolve(&lab.net, &q, RrType::A);
        assert_eq!(second.cost.messages_sent, first.cost.messages_sent);
        assert_eq!(r.cache_hits(), 0);
    }

    #[test]
    fn nsec_zone_validates_too() {
        let mut b = LabBuilder::new(NOW).simple_zone(&name("com."), Denial::nsec3_rfc9276());
        b = b.simple_zone(&name("nsec.example.com."), Denial::Nsec);
        b = b.simple_zone(&name("example.com."), Denial::nsec3_rfc9276());
        let mut lab = b.build();
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let pos = r.resolve(&lab.net, &name("www.nsec.example.com."), RrType::A);
        assert_eq!(pos.rcode, Rcode::NoError);
        assert!(pos.authenticated);
        let neg = r.resolve(&lab.net, &name("nope.nsec.example.com."), RrType::A);
        assert_eq!(neg.rcode, Rcode::NxDomain);
        assert!(neg.authenticated);
        assert_eq!(neg.cost.nsec3_hashes, 0, "NSEC denial needs no hashing");
    }

    #[test]
    fn flaky_resolver_varies_between_queries() {
        let mut lab = lab_with_params(&[
            ("it-120.example.com.", Nsec3Params::new(120, vec![])),
            ("it-200.example.com.", Nsec3Params::new(200, vec![])),
        ]);
        let client = lab.alloc.v4();
        let gap = Quirk::FlakyGap {
            insecure_above: 100,
            servfail_above: 150,
        };
        let flaky = node_for(&mut lab, Rfc9276Policy::insecure_above(100), gap);
        let ede27 = Some(EdeCode::UNSUPPORTED_NSEC3_ITERATIONS.0);
        let insecure = (Rcode::NxDomain, false, ede27);
        let servfail = (Rcode::ServFail, false, ede27);
        // Phases a (both limits), b (insecure above 100 alone) and c
        // (SERVFAIL above 150 alone) in turn, asked it-120 and it-200 by
        // turns: only b answers it-200 insecure and only c validates
        // it-120, so the replies pin the sequence a, b, c, a, b, c, a.
        let validated = (Rcode::NxDomain, true, None);
        let expected = [
            ("it-120", insecure),
            ("it-200", insecure),
            ("it-120", validated),
            ("it-200", servfail),
            ("it-120", insecure),
            ("it-200", servfail),
            ("it-120", insecure),
        ];
        for (i, (zone, want)) in expected.into_iter().enumerate() {
            let before = lab.net.delivered_count();
            let q = query_bytes(&format!("p.{zone}.example.com."), false);
            let obs = dig(&lab.net, client, flaky, &q);
            assert_eq!((obs.rcode, obs.ad, obs.ede), want, "query {i}");
            // Each qname repeats, also within a phase (queries 0 and 6),
            // and is resolved again from the root: far more than the
            // client's own query and reply cross the network.
            let carried = lab.net.delivered_count() - before;
            assert!(
                carried > 2,
                "query {i} answered from a cache ({carried} datagrams)"
            );
        }
    }

    #[test]
    fn wildcard_answer_validates_securely() {
        let mut b = LabBuilder::new(NOW).simple_zone(&name("com."), Denial::nsec3_rfc9276());
        let apex = name("wild.example.com.");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            name("*.wild.example.com."),
            300,
            RData::A("192.0.2.42".parse().unwrap()),
        ))
        .unwrap();
        b = b
            .simple_zone(&name("example.com."), Denial::nsec3_rfc9276())
            .zone(ZoneSpec::new(z, Denial::nsec3_rfc9276()));
        let mut lab = b.build();
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &name("anything.wild.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NoError);
        assert!(out.authenticated);
        assert_eq!(out.answers[0].name, name("anything.wild.example.com."));
    }

    use dns_wire::rdata::RData;
    use dns_wire::record::Record;
    use dns_zone::signer::SigningKey;

    /// Stands at a leaf's server addresses: the real `AuthServer` answers
    /// and `rewrite` edits its reply on the way back.
    struct Interposer {
        auth: Rc<dyn netsim::Node>,
        rewrite: Box<dyn Fn(&mut dns_wire::Message)>,
    }

    impl netsim::Node for Interposer {
        fn handle(
            &self,
            net: &netsim::Network,
            src: IpAddr,
            payload: &[u8],
            reply: &mut Vec<u8>,
        ) -> Option<()> {
            self.auth.handle(net, src, payload, reply)?;
            let mut msg = dns_wire::Message::decode(reply).ok()?;
            (self.rewrite)(&mut msg);
            reply.clear();
            msg.encode_append(reply);
            Some(())
        }
    }

    /// Put an [`Interposer`] applying `rewrite` in front of `apex`'s
    /// server, on both of its addresses (the resolver otherwise falls back
    /// to the clean dual-stack twin).
    fn interpose(lab: &Lab, apex: &str, rewrite: impl Fn(&mut dns_wire::Message) + 'static) {
        let apex = name(apex);
        let node: Rc<dyn netsim::Node> = Rc::new(Interposer {
            auth: lab.auths[&apex].clone(),
            rewrite: Box::new(rewrite),
        });
        let (v4, v6) = lab.servers[&apex];
        for addr in [v4, v6] {
            lab.net.unregister(addr);
            lab.net.register(addr, node.clone());
        }
    }

    /// com. and example.com. (NSEC3 at RFC 9276 parameters) and `leaf`.
    fn lab_with_leaf(leaf: ZoneSpec) -> Lab {
        LabBuilder::new(NOW)
            .simple_zone(&name("com."), Denial::nsec3_rfc9276())
            .simple_zone(&name("example.com."), Denial::nsec3_rfc9276())
            .zone(leaf)
            .build()
    }

    /// The simple zone at `apex` plus an A record at `wildcard`.
    fn zone_with_wildcard(apex: &str, wildcard: &str) -> Zone {
        let mut z = lab::simple_zone_contents(&name(apex));
        let a = RData::A("192.0.2.42".parse().unwrap());
        z.add(Record::new(name(wildcard), 300, a)).unwrap();
        z
    }

    /// The signed NSEC at `owner` in the lab's zone `apex`, with its RRSIG.
    fn signed_nsec(lab: &Lab, apex: &str, owner: &Name) -> Vec<Record> {
        let zone = &lab.zones[&name(apex)].zone;
        let sigs = zone.rrset(owner, RrType::RRSIG).unwrap().iter().filter(|sig| {
            matches!(sig.rdata, RData::Rrsig { type_covered, .. } if type_covered == RrType::NSEC)
        });
        let nsec = zone.rrset(owner, RrType::NSEC).unwrap();
        nsec.iter().chain(sigs).cloned().collect()
    }

    #[test]
    fn wildcard_answer_without_its_proof_is_bogus() {
        for denial in [Denial::nsec3_rfc9276(), Denial::Nsec] {
            let leaf = zone_with_wildcard("wild.example.com.", "*.wild.example.com.");
            let mut lab = lab_with_leaf(ZoneSpec::new(leaf, denial.clone()));
            let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
            let proven = r.resolve(&lab.net, &name("a.wild.example.com."), RrType::A);
            assert_eq!(proven.rcode, Rcode::NoError, "{denial:?}");
            assert!(proven.authenticated, "{denial:?}: expansion with its proof");
            // Every reply loses its authority section, the proof with it.
            interpose(&lab, "wild.example.com.", |reply| reply.authorities.clear());
            let bare = r.resolve(&lab.net, &name("b.wild.example.com."), RrType::A);
            assert_eq!(
                bare.rcode,
                Rcode::ServFail,
                "{denial:?}: expansion without proof"
            );
        }
    }

    #[test]
    fn nsec_nodata_must_lack_the_type() {
        let apex = "nsec.example.com.";
        let leaf = ZoneSpec::new(lab::simple_zone_contents(&name(apex)), Denial::Nsec);
        let mut lab = lab_with_leaf(leaf);
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let www = name("www.nsec.example.com.");
        let honest = r.resolve(&lab.net, &www, RrType::TXT);
        assert_eq!(honest.rcode, Rcode::NoError);
        assert!(honest.authenticated, "the NSEC at www lacks TXT");
        // A forged NODATA for www A: the zone's own signed NSEC at www,
        // whose bitmap lists A, in place of the answer.
        let forged = signed_nsec(&lab, apex, &www);
        interpose(&lab, apex, move |reply| {
            if reply.answers.iter().any(|r| r.rrtype() == RrType::A) {
                reply.answers.clear();
                reply.authorities = forged.clone();
            }
        });
        let out = r.resolve(&lab.net, &www, RrType::A);
        assert_eq!(
            out.rcode,
            Rcode::ServFail,
            "NODATA for a type the NSEC lists"
        );
    }

    #[test]
    fn ds_absence_needs_an_nsec_that_proves_it() {
        let mut lab = LabBuilder::new(NOW)
            .simple_zone(&name("com."), Denial::nsec3_rfc9276())
            .simple_zone(&name("example.com."), Denial::Nsec)
            .simple_zone(&name("signed.example.com."), Denial::nsec3_rfc9276())
            .build();
        // A signed referral loses its DS set and carries the signed NSEC
        // at www.example.com. instead, which says nothing of the cut.
        let unrelated = signed_nsec(&lab, "example.com.", &name("www.example.com."));
        interpose(&lab, "example.com.", move |reply| {
            if strip_ds(reply) {
                reply.authorities.extend(unrelated.iter().cloned());
            }
        });
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &name("www.signed.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail, "DS absence left unproven");
    }

    /// Drop the DS set and its RRSIGs from `reply`; whether it had any.
    fn strip_ds(reply: &mut dns_wire::Message) -> bool {
        let ds = |r: &Record| match &r.rdata {
            RData::Rrsig { type_covered, .. } => *type_covered == RrType::DS,
            _ => r.rrtype() == RrType::DS,
        };
        let had = reply.authorities.iter().any(ds);
        reply.authorities.retain(|r| !ds(r));
        had
    }

    /// An unsigned NSEC3 in zone `apex` with hash algorithm 2, which no
    /// validator knows.
    fn unknown_hash_nsec3(apex: &str) -> Record {
        let rdata = RData::Nsec3 {
            hash_alg: 2,
            flags: 0,
            iterations: 0,
            salt: vec![],
            next_hashed: vec![0xff; 20],
            types: Default::default(),
        };
        let owner = name(&format!("0123456789abcdefghijklmnopqrstuv.{apex}"));
        Record::new(owner, 300, rdata)
    }

    #[test]
    fn unknown_hash_nsec3_cannot_prove_ds_absence() {
        let leaf = "leaf.example.com.";
        let contents = lab::simple_zone_contents(&name(leaf));
        let mut lab = lab_with_leaf(ZoneSpec::new(contents, Denial::nsec3_rfc9276()));
        let qname = name("www.leaf.example.com.");
        let clean = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = clean.resolve(&lab.net, &qname, RrType::A);
        assert!(out.authenticated, "the signed delegation validates");
        // The referral to leaf loses its DS set and gains one fabricated
        // NSEC3 whose hash algorithm the validator cannot check.
        interpose(&lab, "example.com.", |reply| {
            if strip_ds(reply) {
                reply.authorities.push(unknown_hash_nsec3("example.com."));
            }
        });
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &qname, RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail, "no downgrade to insecure");
    }

    #[test]
    fn unknown_hash_nsec3_does_not_excuse_an_answer() {
        let leaf = "leaf.example.com.";
        let contents = lab::simple_zone_contents(&name(leaf));
        let mut lab = lab_with_leaf(ZoneSpec::new(contents, Denial::nsec3_rfc9276()));
        let qname = name("www.leaf.example.com.");
        // Every leaf reply carries an unsigned NSEC3 of an unknown hash
        // algorithm: ignored, the answer still validates.
        interpose(&lab, leaf, |reply| {
            reply.authorities.push(unknown_hash_nsec3(leaf))
        });
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &qname, RrType::A);
        assert_eq!(out.rcode, Rcode::NoError);
        assert!(out.authenticated, "the ignored record changes nothing");
        // The same record beside a forged address does not skip the
        // answer's signature check.
        interpose(&lab, leaf, |reply| {
            reply.authorities.push(unknown_hash_nsec3(leaf));
            for rec in &mut reply.answers {
                if let RData::A(a) = &mut rec.rdata {
                    *a = "203.0.113.66".parse().unwrap();
                }
            }
        });
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &qname, RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail, "forged answer relayed");
    }

    #[test]
    fn nsec3_wildcard_nodata_validates() {
        let leaf = zone_with_wildcard("leaf.example.com.", "*.wc.leaf.example.com.");
        let mut lab = lab_with_leaf(ZoneSpec::new(leaf, Denial::nsec3_rfc9276()));
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        for qname in ["x.wc.leaf.example.com.", "y.x.wc.leaf.example.com."] {
            let out = r.resolve(&lab.net, &name(qname), RrType::TXT);
            assert_eq!(out.rcode, Rcode::NoError, "{qname}");
            assert!(
                out.authenticated,
                "{qname}: *.wc matched, next closer covered"
            );
            assert!(out.answers.is_empty(), "{qname}");
        }
        // The same proof does not deny a type the wildcard owns.
        let a = r.resolve(&lab.net, &name("x.wc.leaf.example.com."), RrType::A);
        assert_eq!((a.rcode, a.answers.len()), (Rcode::NoError, 1));
    }

    #[test]
    fn item7_rules_a_ds_less_referral_as_it_rules_an_answer() {
        // example.com.'s NSEC3 chain is over the limit and its NSEC3
        // RRSIGs are expired; its delegation to insecure.example.com.
        // carries no DS, so the referral's proof is that chain.
        let mut parent = ZoneSpec::new(
            lab::simple_zone_contents(&name("example.com.")),
            Denial::Nsec3 {
                params: Nsec3Params::new(200, vec![]),
                opt_out: false,
            },
        );
        parent.post_sign = Some(Box::new(|z| {
            faults::expire_rrsigs(z, Some(RrType::NSEC3), NOW);
        }));
        let mut child = ZoneSpec::new(
            lab::simple_zone_contents(&name("insecure.example.com.")),
            Denial::nsec3_rfc9276(),
        );
        child.unsigned_delegation = true;
        let mut lab = LabBuilder::new(NOW)
            .simple_zone(&name("com."), Denial::nsec3_rfc9276())
            .zone(parent)
            .zone(child)
            .build();
        let qname = name("www.insecure.example.com.");
        let limit_ede = |out: &ResolveOutcome| out.ede.as_ref().map(|e| e.0);

        let compliant = resolver_for(&mut lab, Rfc9276Policy::insecure_above(150));
        let out = compliant.resolve(&lab.net, &qname, RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail, "item 7 at the referral");
        assert_eq!(limit_ede(&out), Some(EdeCode::UNSUPPORTED_NSEC3_ITERATIONS));

        let mut violator_policy = Rfc9276Policy::insecure_above(150);
        violator_policy.verify_nsec3_rrsig = false;
        let violator = resolver_for(&mut lab, violator_policy);
        let out = violator.resolve(&lab.net, &qname, RrType::A);
        assert_eq!((out.rcode, out.answers.len()), (Rcode::NoError, 1));
        assert!(!out.authenticated, "downgraded: the child is insecure");
        assert_eq!(out.ede, None, "a downgraded referral attaches no EDE");

        let strict = resolver_for(&mut lab, Rfc9276Policy::servfail_above(150));
        let out = strict.resolve(&lab.net, &qname, RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail, "item 8 at the referral");
        assert_eq!(limit_ede(&out), Some(EdeCode::UNSUPPORTED_NSEC3_ITERATIONS));
    }

    /// The genuine trust anchor for a lab zone (the lab derives every
    /// KSK deterministically from the apex).
    fn real_anchor(apex: &Name) -> TrustAnchor {
        let ksk = SigningKey::ksk(apex);
        let RData::Ds {
            key_tag, digest, ..
        } = lab::ds_record(apex, &ksk).rdata
        else {
            unreachable!("ds_record yields DS rdata");
        };
        TrustAnchor {
            zone: apex.clone(),
            key_tag,
            digest,
        }
    }

    #[test]
    fn anchors_match_per_zone_apex_not_first_entry() {
        // Regression: the validator used to consult only the FIRST
        // configured anchor. With the example.com anchor listed before
        // the root anchor, the root DNSKEY fetch must still find the
        // root entry by apex.
        let mut lab = lab_with_params(&[("example.com.", Nsec3Params::rfc9276())]);
        let raddr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.trust_anchors = vec![real_anchor(&name("example.com.")), lab.anchor.clone()];
        let r = Resolver::new(cfg);
        let out = r.resolve(&lab.net, &name("www.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NoError);
        assert!(out.authenticated, "multi-anchor config must validate");
    }

    #[test]
    fn island_of_trust_validates_below_insecure_delegation() {
        // example.com is signed but its delegation from com. carries no
        // DS. Without an extra anchor the chain is provably insecure;
        // with an anchor at the island's apex it authenticates.
        let build = || {
            let b = LabBuilder::new(NOW).simple_zone(&name("com."), Denial::nsec3_rfc9276());
            let mut zs = ZoneSpec::new(
                lab::simple_zone_contents(&name("example.com.")),
                Denial::nsec3_rfc9276(),
            );
            zs.unsigned_delegation = true;
            b.zone(zs).build()
        };
        let mut lab = build();
        let plain = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = plain.resolve(&lab.net, &name("www.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NoError);
        assert!(!out.authenticated, "no DS and no island anchor: insecure");

        let mut lab = build();
        let raddr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.trust_anchors.push(real_anchor(&name("example.com.")));
        let island = Resolver::new(cfg);
        let out = island.resolve(&lab.net, &name("www.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NoError);
        assert!(out.authenticated, "island anchor re-secures the chain");
    }

    #[test]
    fn mis_anchored_zone_fails_as_anchor_mismatch() {
        // A configured anchor whose digest matches no served DNSKEY must
        // fail closed with the dedicated EDE, not chain on via the DS.
        let mut lab = lab_with_params(&[("example.com.", Nsec3Params::rfc9276())]);
        let raddr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        let mut bad = real_anchor(&name("example.com."));
        bad.digest[0] ^= 0xFF;
        cfg.trust_anchors.push(bad);
        let r = Resolver::new(cfg);
        let out = r.resolve(&lab.net, &name("www.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::ServFail);
        let (code, text) = out.ede.expect("anchor mismatch carries an EDE");
        assert_eq!(code, EdeCode::DNSSEC_BOGUS);
        assert_eq!(text, "trust anchor mismatch");
    }

    #[test]
    fn delegation_cache_is_off_by_default() {
        let mut lab = lab_with_params(&[("example.com.", Nsec3Params::rfc9276())]);
        let r = resolver_for(&mut lab, Rfc9276Policy::unlimited());
        let out = r.resolve(&lab.net, &name("www.example.com."), RrType::A);
        assert_eq!(out.rcode, Rcode::NoError);
        assert_eq!(r.delegation_hits(), 0);
        assert_eq!(r.delegation_misses(), 0);
        assert_eq!(r.delegation_len(), 0);
    }

    #[test]
    fn warm_delegation_cache_saves_upstream_queries() {
        // Two sibling zones under com.: the second walk restarts at the
        // cached com. cut instead of the root and must send strictly
        // fewer upstream messages.
        let mut lab = lab_with_params(&[
            ("alpha.com.", Nsec3Params::rfc9276()),
            ("beta.com.", Nsec3Params::rfc9276()),
        ]);
        let raddr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.delegation_cache = true;
        let r = Resolver::new(cfg);
        let cold = r.resolve(&lab.net, &name("www.alpha.com."), RrType::A);
        assert!(cold.authenticated);
        assert_eq!(r.delegation_hits(), 0, "first walk has nothing cached");
        assert!(r.delegation_misses() > 0);
        assert!(r.delegation_len() > 0);
        let warm = r.resolve(&lab.net, &name("www.beta.com."), RrType::A);
        assert!(warm.authenticated);
        assert!(r.delegation_hits() > 0, "second walk restarts at com.");
        assert!(
            warm.cost.messages_sent < cold.cost.messages_sent,
            "warm walk must be strictly cheaper: {} vs {}",
            warm.cost.messages_sent,
            cold.cost.messages_sent
        );
        assert_eq!(r.delegation_evictions(), 0);
    }
}
