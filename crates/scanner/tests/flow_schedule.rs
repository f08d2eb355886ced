//! The step schedule of a §4.2 classification flow, pinned.
//!
//! `Prober::classification_flow` is stepped by hand, the way the event
//! core steps a flow at a window of one, against every kind of target
//! the resolver study meets: three validators, a flaky resolver, a node
//! that never answers, an address nothing is registered at and a closed
//! resolver. Each target runs with and without a retry/breaker session,
//! under both retry policies and with EDE capture on and off, and is
//! classified twice so that a tripped breaker skips probes. Every step's
//! `FlowStep` with the lab clock and the datagram count after it, each
//! classification and each session's `ProbeStats` go into one FNV
//! digest. A change to the flow that keeps the digest parks at the same
//! points, sends the same attempts and classifies the same way.
//!
//! If a deliberate behaviour change moves the pin, re-capture it with
//! `cargo test -p dns-scanner --test flow_schedule -- --nocapture`.

use std::net::IpAddr;
use std::rc::Rc;

use dns_resolver::lab::simple_zone_contents;
use dns_resolver::{
    FlakyResolver, Lab, LabBuilder, Resolver, ResolverConfig, Rfc9276Policy, ZoneSpec,
};
use dns_scanner::{BreakerConfig, ClosedResolver, ProbePlan, Prober, ScanSession};
use dns_wire::name::{name, Name};
use dns_wire::rrtype::RrType;
use dns_zone::faults::expire_rrsigs;
use dns_zone::nsec3hash::Nsec3Params;
use dns_zone::signer::Denial;
use netsim::event::FlowStep;
use netsim::{Network, Node, RetryPolicy};

const NOW: u32 = 1_710_000_000;

/// Swallows every datagram: the sender only ever sees timeouts.
struct Silent;

impl Node for Silent {
    fn handle(&self, _: &Network, _: IpAddr, _: &[u8], _: &mut Vec<u8>) -> Option<()> {
        None
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `valid`, `expired`, four `it-N` zones and `it-2501-expired` under
/// `tb.com.`, with the plan that probes them.
fn testbed() -> (Lab, ProbePlan) {
    let zone = |apex: &Name, denial| ZoneSpec::new(simple_zone_contents(apex), denial);
    let mut expired = zone(&name("expired.tb.com."), Denial::nsec3_rfc9276());
    expired.expired = true;
    let mut it2501 = zone(
        &name("it-2501-expired.tb.com."),
        Denial::Nsec3 {
            params: Nsec3Params::new(2501, vec![]),
            opt_out: false,
        },
    );
    it2501.post_sign = Some(Box::new(|z| {
        expire_rrsigs(z, Some(RrType::NSEC3), NOW);
    }));
    let mut b = LabBuilder::new(NOW)
        .simple_zone(&name("com."), Denial::nsec3_rfc9276())
        .simple_zone(&name("tb.com."), Denial::nsec3_rfc9276())
        .simple_zone(&name("valid.tb.com."), Denial::nsec3_rfc9276())
        .zone(expired)
        .zone(it2501);
    let mut it_zones = Vec::new();
    for n in [50u16, 100, 150, 200] {
        let apex = name(&format!("it-{n}.tb.com."));
        b = b.simple_zone(
            &apex,
            Denial::Nsec3 {
                params: Nsec3Params::new(n, vec![]),
                opt_out: false,
            },
        );
        it_zones.push((n, apex));
    }
    let plan = ProbePlan {
        valid: name("www.valid.tb.com."),
        expired: name("www.expired.tb.com."),
        it_zones,
        it_2501_expired: Some(name("it-2501-expired.tb.com.")),
    };
    (b.build(), plan)
}

/// What the run saw besides the digest, so a moved pin says where.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    steps: u64,
    backoff_parks: u64,
    skipped: u64,
}

#[test]
fn classification_flow_step_schedule_is_pinned() {
    let (mut lab, plan) = testbed();
    let mut log = String::new();
    let mut tally = Tally::default();
    for with_session in [false, true] {
        for policy in [RetryPolicy::adaptive(0x9276), RetryPolicy::fixed(2)] {
            for capture_ede in [true, false] {
                // Fresh targets at fresh addresses for every combination.
                let mut targets: Vec<IpAddr> = Vec::new();
                let validator = |lab: &mut Lab, policy| {
                    let addr = lab.alloc.v4();
                    let mut cfg = ResolverConfig::validating(
                        addr,
                        lab.root_hints.clone(),
                        lab.anchor.clone(),
                    );
                    cfg.now = lab.now;
                    cfg.policy = policy;
                    (addr, Resolver::new(cfg))
                };
                for limits in [
                    Rfc9276Policy::insecure_above(150),
                    Rfc9276Policy::servfail_above(100),
                    Rfc9276Policy::unlimited(),
                ] {
                    let (addr, resolver) = validator(&mut lab, limits);
                    lab.net.register(addr, Rc::new(resolver));
                    targets.push(addr);
                }
                let (addr, inner) = validator(&mut lab, Rfc9276Policy::unlimited());
                lab.net
                    .register(addr, Rc::new(FlakyResolver::with_gap(inner, 100, 150)));
                targets.push(addr);
                let silent = lab.alloc.v4();
                lab.net.register(silent, Rc::new(Silent));
                targets.push(silent);
                targets.push(lab.alloc.v4()); // nothing registered here
                let (addr, inner) = validator(&mut lab, Rfc9276Policy::unlimited());
                let closed = ClosedResolver::new(Rc::new(inner), []);
                lab.net.register(addr, Rc::new(closed));
                targets.push(addr);

                let session = ScanSession::new(BreakerConfig {
                    failure_threshold: 2,
                    ..BreakerConfig::default()
                });
                let src = lab.alloc.v4();
                let mut prober = Prober::new(&lab.net, src, &plan);
                if with_session {
                    prober = prober.with_session(&session, policy);
                } else {
                    prober.policy = policy;
                }
                prober.capture_ede = capture_ede;
                log.push_str(&format!(
                    "== session {with_session} {policy:?} ede {capture_ede}\n"
                ));
                for pass in 0..2 {
                    for &target in &targets {
                        let mut flow = prober.classification_flow(target);
                        let classification = loop {
                            let step = flow.step();
                            tally.steps += 1;
                            let now = lab.net.now_micros();
                            log.push_str(&format!(
                                "{step:?} {now} {}\n",
                                lab.net.delivered_count()
                            ));
                            match step {
                                FlowStep::Park { at_micros } => {
                                    if at_micros > now {
                                        tally.backoff_parks += 1;
                                    }
                                    lab.net.advance_to(at_micros);
                                }
                                FlowStep::Done => break flow.into_classification(),
                            }
                        };
                        log.push_str(&format!("pass {pass} {classification:?}\n"));
                    }
                }
                let stats = session.stats();
                assert!(stats.is_consistent(), "{stats:?}");
                tally.skipped += stats.circuit_skipped;
                log.push_str(&format!("{stats:?}\n"));
            }
        }
    }
    let digest = fnv1a(&log);
    eprintln!(
        "flow schedule: {tally:?}, digest {digest:#018x} over {} bytes",
        log.len()
    );
    assert_eq!(
        tally,
        Tally {
            steps: 656,
            backoff_parks: 104,
            skipped: 20,
        }
    );
    assert_eq!(
        digest, 0x6fae_5c22_28b5_90dc,
        "the classification flow's schedule moved"
    );
}
