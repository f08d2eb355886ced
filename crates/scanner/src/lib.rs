//! The measurement toolkit: a zdns-style bulk census pipeline (§4.1), the
//! resolver-classification prober (§4.2), RIPE-Atlas-style closed-resolver
//! probing, and zone-enumeration tooling (AXFR, NSEC walking, NSEC3 hash
//! harvesting + dictionary attacks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atlas;
pub mod census;
pub mod prober;
pub(crate) mod ratelimit;
pub mod retry;
pub mod walk;

pub use atlas::{classify_via_probe, AtlasProbe, ClosedResolver};
pub use prober::{derive_limits, ProbePlan, Prober, ResolverClassification};
pub use retry::{BreakerConfig, ProbeStats, ScanSession};

use dns_wire::message::Message;

/// `bytes` as the reply to `query`, if they are one: QR set, the ID sent
/// and the question asked echoed back. Anything else — a spoof, a
/// mangler, an answer to another question — answers nothing.
pub(crate) fn reply_to(query: &Message, bytes: &[u8]) -> Option<Message> {
    let reply = Message::decode(bytes).ok()?;
    (reply.flags.qr && reply.id == query.id && reply.question() == query.question())
        .then_some(reply)
}

#[cfg(test)]
mod e2e {
    use super::*;
    use crate::census::{Census, DomainClass};
    use dns_resolver::lab::LabBuilder;
    use dns_resolver::{Resolver, ResolverConfig, Rfc9276Policy};
    use dns_wire::name::name;
    use dns_zone::nsec3hash::Nsec3Params;
    use dns_zone::signer::Denial;
    use std::rc::Rc;

    const NOW: u32 = 1_710_000_000;

    #[test]
    fn census_classifies_live_zones() {
        let mut lab = LabBuilder::new(NOW)
            .simple_zone(&name("com."), Denial::nsec3_rfc9276())
            .simple_zone(
                &name("compliant.com."),
                Denial::Nsec3 {
                    params: Nsec3Params::rfc9276(),
                    opt_out: false,
                },
            )
            .simple_zone(
                &name("dirty.com."),
                Denial::Nsec3 {
                    params: Nsec3Params::new(10, vec![0xab; 8]),
                    opt_out: true,
                },
            )
            .simple_zone(&name("nsec.com."), Denial::Nsec)
            .build();
        let raddr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.policy = Rfc9276Policy::unlimited();
        let resolver = Resolver::new(cfg);
        let census = Census::new(&lab.net, &resolver, "t1");

        let compliant = census.observe(&name("compliant.com."));
        assert!(compliant.dnssec_enabled);
        let p = compliant.class.nsec3_enabled().expect("NSEC3-enabled");
        assert_eq!(p.iterations, 0);
        assert!(p.salt.is_empty());
        assert!(!compliant.opt_out);

        let dirty = census.observe(&name("dirty.com."));
        let p = dirty.class.nsec3_enabled().expect("NSEC3-enabled");
        assert_eq!(p.iterations, 10);
        assert_eq!(p.salt.len(), 8);
        assert!(dirty.opt_out);
        assert!(!dirty.ns_targets.is_empty());

        let nsec = census.observe(&name("nsec.com."));
        assert_eq!(nsec.class, DomainClass::DnssecNsec);

        // A nonexistent domain: not DNSSEC-enabled (no DNSKEY answer).
        let nothing = census.observe(&name("missing.com."));
        assert_eq!(nothing.class, DomainClass::NotDnssec);
    }

    #[test]
    fn a_census_step_runs_one_phase() {
        let mut lab = LabBuilder::new(NOW)
            .simple_zone(&name("com."), Denial::nsec3_rfc9276())
            .simple_zone(&name("signed.com."), Denial::nsec3_rfc9276())
            .build();
        let raddr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        let resolver = Resolver::new(cfg);
        let session = ScanSession::new(BreakerConfig::default());
        let census = Census::new(&lab.net, &resolver, "t1").with_session(&session);
        // Each step books the one phase it ran: four for a signed domain,
        // one for a domain without DNSKEY.
        for (domain, phases) in [("signed.com.", 4), ("missing.com.", 1)] {
            let mut probe = census::CensusProbe::new(name(domain));
            let before = session.stats().sent;
            for phase in 1..=phases {
                assert_eq!(
                    probe.step(&census),
                    phase == phases,
                    "{domain} phase {phase}"
                );
                assert_eq!(
                    session.stats().sent - before,
                    phase,
                    "{domain} phase {phase}"
                );
            }
        }
    }

    #[test]
    fn prober_classifies_a_bind_like_validator() {
        // Testbed: valid, expired, and three it-N zones.
        let mut b = LabBuilder::new(NOW)
            .simple_zone(&name("com."), Denial::nsec3_rfc9276())
            .simple_zone(&name("tb.com."), Denial::nsec3_rfc9276())
            .simple_zone(&name("valid.tb.com."), Denial::nsec3_rfc9276());
        let mut expired_spec = dns_resolver::ZoneSpec::new(
            dns_resolver::lab::simple_zone_contents(&name("expired.tb.com.")),
            Denial::nsec3_rfc9276(),
        );
        expired_spec.expired = true;
        b = b.zone(expired_spec);
        let its: Vec<(u16, &str)> = vec![
            (100, "it-100.tb.com."),
            (150, "it-150.tb.com."),
            (151, "it-151.tb.com."),
            (200, "it-200.tb.com."),
        ];
        for (n, apex) in &its {
            b = b.simple_zone(
                &name(apex),
                Denial::Nsec3 {
                    params: Nsec3Params::new(*n, vec![]),
                    opt_out: false,
                },
            );
        }
        let mut lab = b.build();

        let raddr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.policy = Rfc9276Policy::insecure_above(150); // BIND-2021-like
        lab.net.register(raddr, Rc::new(Resolver::new(cfg)));

        let plan = ProbePlan {
            valid: name("www.valid.tb.com."),
            expired: name("www.expired.tb.com."),
            it_zones: its.iter().map(|(n, a)| (*n, name(a))).collect(),
            it_2501_expired: None,
        };
        let probe_src = lab.alloc.v4();
        let prober = Prober::new(&lab.net, probe_src, &plan);
        let c = prober.classify(raddr);
        assert!(!c.unreachable, "resolver answered");
        assert!(!c.partial, "full per-N coverage on a clean network");
        assert!(c.is_validator);
        assert_eq!(c.insecure_limit, Some(150));
        assert_eq!(c.servfail_start, None);
        assert!(c.ede27_on_limit, "EDE 27 expected on limited responses");
        assert!(!c.flaky);
    }

    #[test]
    fn a_reply_to_another_query_is_no_answer() {
        // Each impostor relays a real validator's verdicts, each time
        // under one wrong header field or question: none of its replies
        // answers the probe that was sent, so nothing is classified.
        struct Impostor(Rc<dyn netsim::Node>, fn(&mut dns_wire::Message));
        impl netsim::Node for Impostor {
            fn handle(
                &self,
                net: &netsim::Network,
                src: std::net::IpAddr,
                payload: &[u8],
                reply: &mut Vec<u8>,
            ) -> Option<()> {
                self.0.handle(net, src, payload, reply)?;
                let mut msg = dns_wire::Message::decode(reply).ok()?;
                (self.1)(&mut msg);
                reply.clear();
                msg.encode_append(reply);
                Some(())
            }
        }
        let manglers: [fn(&mut dns_wire::Message); 4] = [
            |m| m.id ^= 0xffff,
            |m| m.flags.qr = false,
            |m| m.questions[0].qname = name("www.elsewhere.example."),
            |m| m.questions[0].qtype = dns_wire::rrtype::RrType::AAAA,
        ];
        let mut b = LabBuilder::new(NOW)
            .simple_zone(&name("com."), Denial::nsec3_rfc9276())
            .simple_zone(&name("tb.com."), Denial::nsec3_rfc9276())
            .simple_zone(&name("valid.tb.com."), Denial::nsec3_rfc9276());
        let mut expired_spec = dns_resolver::ZoneSpec::new(
            dns_resolver::lab::simple_zone_contents(&name("expired.tb.com.")),
            Denial::nsec3_rfc9276(),
        );
        expired_spec.expired = true;
        b = b.zone(expired_spec).simple_zone(
            &name("it-150.tb.com."),
            Denial::Nsec3 {
                params: Nsec3Params::new(150, vec![]),
                opt_out: false,
            },
        );
        let mut lab = b.build();
        let plan = ProbePlan {
            valid: name("www.valid.tb.com."),
            expired: name("www.expired.tb.com."),
            it_zones: vec![(150, name("it-150.tb.com."))],
            it_2501_expired: None,
        };
        let src = lab.alloc.v4();
        for mangle in manglers {
            let raddr = lab.alloc.v4();
            let mut cfg =
                ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
            cfg.now = lab.now;
            cfg.policy = Rfc9276Policy::servfail_above(100);
            let inner: Rc<dyn netsim::Node> = Rc::new(Resolver::new(cfg));
            lab.net.register(raddr, Rc::new(Impostor(inner, mangle)));
            let session = ScanSession::new(BreakerConfig::default());
            let c = Prober::new(&lab.net, src, &plan)
                .with_session(&session, netsim::RetryPolicy::fixed(2))
                .classify(raddr);
            assert!(c.unreachable, "{c:?}");
            assert!(!c.is_validator);
            // Booked as no answer, and not asked again.
            let stats = session.stats();
            assert_eq!((stats.answered, stats.timed_out, stats.retried), (0, 2, 0));
        }
    }

    #[test]
    fn prober_detects_non_validator() {
        let mut b = LabBuilder::new(NOW)
            .simple_zone(&name("com."), Denial::nsec3_rfc9276())
            .simple_zone(&name("valid.tb.com."), Denial::nsec3_rfc9276())
            .simple_zone(&name("tb.com."), Denial::nsec3_rfc9276());
        let mut expired_spec = dns_resolver::ZoneSpec::new(
            dns_resolver::lab::simple_zone_contents(&name("expired.tb.com.")),
            Denial::nsec3_rfc9276(),
        );
        expired_spec.expired = true;
        b = b.zone(expired_spec);
        let mut lab = b.build();
        let raddr = lab.alloc.v4();
        let mut cfg = ResolverConfig::stub(raddr, lab.root_hints.clone());
        cfg.now = lab.now;
        lab.net.register(raddr, Rc::new(Resolver::new(cfg)));
        let plan = ProbePlan {
            valid: name("www.valid.tb.com."),
            expired: name("www.expired.tb.com."),
            it_zones: vec![],
            it_2501_expired: None,
        };
        let probe_src = lab.alloc.v4();
        let c = Prober::new(&lab.net, probe_src, &plan).classify(raddr);
        assert!(!c.unreachable);
        assert!(
            !c.is_validator,
            "stub resolves expired zones fine and sets no AD"
        );
    }

    #[test]
    fn closed_resolver_probed_only_via_atlas() {
        let mut b = LabBuilder::new(NOW)
            .simple_zone(&name("com."), Denial::nsec3_rfc9276())
            .simple_zone(&name("valid.tb.com."), Denial::nsec3_rfc9276())
            .simple_zone(&name("tb.com."), Denial::nsec3_rfc9276());
        let mut expired_spec = dns_resolver::ZoneSpec::new(
            dns_resolver::lab::simple_zone_contents(&name("expired.tb.com.")),
            Denial::nsec3_rfc9276(),
        );
        expired_spec.expired = true;
        b = b.zone(expired_spec);
        let mut lab = b.build();
        let raddr = lab.alloc.v4();
        let probe_addr = lab.alloc.v4();
        let outside = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        let closed = ClosedResolver::new(Rc::new(Resolver::new(cfg)), [probe_addr]);
        lab.net.register(raddr, Rc::new(closed));
        let plan = ProbePlan {
            valid: name("www.valid.tb.com."),
            expired: name("www.expired.tb.com."),
            it_zones: vec![],
            it_2501_expired: None,
        };
        // Open-Internet prober: the closed resolver looks unreachable —
        // and stays in the denominator as such rather than vanishing.
        let from_outside = Prober::new(&lab.net, outside, &plan).classify(raddr);
        assert!(from_outside.unreachable);
        assert!(!from_outside.is_validator);
        // Atlas probe: full classification, EDE suppressed.
        let probe = AtlasProbe {
            addr: probe_addr,
            local_resolver: raddr,
        };
        let c = classify_via_probe(&lab.net, &probe, &plan);
        assert!(!c.unreachable);
        assert!(c.is_validator);
    }
}
