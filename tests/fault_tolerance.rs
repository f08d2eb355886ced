//! The measurement pipelines under adverse network conditions — loss,
//! duplication, corruption — in the smoltcp fault-injection spirit. The
//! methodology must degrade gracefully, not misclassify.

use analysis::DomainStats;
use dns_resolver::resolver::{Resolver, ResolverConfig};
use dns_resolver::{LabBuilder, Rfc9276Policy};
use dns_scanner::census::Census;
use dns_scanner::prober::{ProbePlan, Prober};
use dns_wire::name::name;
use dns_zone::nsec3hash::Nsec3Params;
use dns_zone::signer::Denial;
use netsim::{FaultConfig, FaultSchedule, RetryPolicy};
use std::rc::Rc;

const NOW: u32 = 1_710_000_000;

#[test]
fn census_survives_packet_loss_via_retries() {
    let mut lab = LabBuilder::new(NOW)
        .simple_zone(&name("com."), Denial::nsec3_rfc9276())
        .simple_zone(
            &name("lossy.com."),
            Denial::Nsec3 {
                params: Nsec3Params::new(7, vec![0xaa; 4]),
                opt_out: false,
            },
        )
        .build();
    lab.net.set_schedule(FaultSchedule {
        base: FaultConfig {
            drop_chance: 0.15,
            ..Default::default()
        },
        ..Default::default()
    });
    let raddr = lab.alloc.v4();
    let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
    cfg.now = lab.now;
    cfg.retry = RetryPolicy::fixed(6);
    let resolver = Resolver::new(cfg);
    let census = Census::new(&lab.net, &resolver, "lossy");
    // Scan the same domain repeatedly: with 15 % loss and 6 retries, the
    // parameters must come back identical every time they come back.
    let mut seen = Vec::new();
    for _ in 0..10 {
        let obs = census.observe(&name("lossy.com."));
        if let Some(p) = obs.class.nsec3_enabled() {
            seen.push((p.iterations, p.salt.len()));
        }
    }
    assert!(seen.len() >= 7, "most scans succeed: {}/10", seen.len());
    assert!(
        seen.iter().all(|&p| p == (7, 4)),
        "never a wrong parameter: {seen:?}"
    );
}

#[test]
fn prober_classification_stable_under_duplication() {
    let mut b = LabBuilder::new(NOW)
        .simple_zone(&name("com."), Denial::nsec3_rfc9276())
        .simple_zone(&name("tb.com."), Denial::nsec3_rfc9276())
        .simple_zone(&name("valid.tb.com."), Denial::nsec3_rfc9276());
    let mut expired = dns_resolver::ZoneSpec::new(
        dns_resolver::lab::simple_zone_contents(&name("expired.tb.com.")),
        Denial::nsec3_rfc9276(),
    );
    expired.expired = true;
    b = b.zone(expired);
    for n in [100u16, 150, 151, 200] {
        b = b.simple_zone(
            &name(&format!("it-{n}.tb.com.")),
            Denial::Nsec3 {
                params: Nsec3Params::new(n, vec![]),
                opt_out: false,
            },
        );
    }
    let mut lab = b.build();
    lab.net.set_schedule(FaultSchedule {
        base: FaultConfig {
            duplicate_chance: 0.3,
            ..Default::default()
        },
        ..Default::default()
    });
    let raddr = lab.alloc.v4();
    let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
    cfg.now = lab.now;
    cfg.policy = Rfc9276Policy::insecure_above(150);
    lab.net.register(raddr, Rc::new(Resolver::new(cfg)));
    let plan = ProbePlan {
        valid: name("www.valid.tb.com."),
        expired: name("www.expired.tb.com."),
        it_zones: [100u16, 150, 151, 200]
            .iter()
            .map(|n| (*n, name(&format!("it-{n}.tb.com."))))
            .collect(),
        it_2501_expired: None,
    };
    let src = lab.alloc.v4();
    let c = Prober::new(&lab.net, src, &plan).classify(raddr);
    assert!(!c.unreachable);
    assert!(c.is_validator);
    assert_eq!(
        c.insecure_limit,
        Some(150),
        "duplication must not shift the threshold"
    );
    assert!(!c.flaky);
}

#[test]
fn corruption_leads_to_retries_not_misclassification() {
    // Corrupted responses fail to decode or fail id checks; the resolver
    // retries. A census over a corrupting network either gets the right
    // answer or none.
    let mut lab = LabBuilder::new(NOW)
        .simple_zone(&name("com."), Denial::nsec3_rfc9276())
        .simple_zone(
            &name("noisy.com."),
            Denial::Nsec3 {
                params: Nsec3Params::new(3, vec![]),
                opt_out: false,
            },
        )
        .build();
    lab.net.set_schedule(FaultSchedule {
        base: FaultConfig {
            corrupt_chance: 0.10,
            ..Default::default()
        },
        ..Default::default()
    });
    let raddr = lab.alloc.v4();
    let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
    cfg.now = lab.now;
    cfg.retry = RetryPolicy::fixed(6);
    // Corruption can flip signature bits: validation fails (SERVFAIL), but
    // it must never report *different parameters*.
    let resolver = Resolver::new(cfg);
    let census = Census::new(&lab.net, &resolver, "noisy");
    let mut params_seen = std::collections::HashSet::new();
    for _ in 0..10 {
        let obs = census.observe(&name("noisy.com."));
        if let Some(p) = obs.class.nsec3_enabled() {
            params_seen.insert((p.iterations, p.salt.len()));
        }
    }
    assert!(
        params_seen.len() <= 1,
        "no wrong parameters: {params_seen:?}"
    );
    // Statistics computed over whatever was measured are still well formed.
    let stats = DomainStats::compute(&[]);
    assert_eq!(stats.total, 0);
}
