//! Cross-crate integration: the complete §4.2 pipeline — testbed, mixed
//! fleet, probing, classification, aggregation — on one small network.

use analysis::{figure3_series, ResolverStats};
use nsec3_core::experiments::{run_resolver_study_cfg, DriverConfig};
use nsec3_core::testbed::build_testbed;
use popgen::resolvers::{Access, Behavior, Family, ResolverSpec};

const NOW: u32 = 1_710_000_000;

fn spec(idx: u64, behavior: Behavior) -> ResolverSpec {
    ResolverSpec {
        idx,
        family: Family::V4,
        access: Access::Open,
        behavior,
        ede_visible: true,
    }
}

#[test]
fn mixed_fleet_classifies_exactly() {
    let fleet = vec![
        spec(0, Behavior::ValidatorUnlimited),
        spec(
            1,
            Behavior::InsecureAt {
                limit: 150,
                google_style: false,
            },
        ),
        spec(
            2,
            Behavior::InsecureAt {
                limit: 100,
                google_style: true,
            },
        ),
        spec(
            3,
            Behavior::InsecureAt {
                limit: 50,
                google_style: false,
            },
        ),
        spec(
            4,
            Behavior::ServfailFrom {
                first: 151,
                technitium: false,
            },
        ),
        spec(
            5,
            Behavior::ServfailFrom {
                first: 101,
                technitium: true,
            },
        ),
        spec(6, Behavior::QueryCopier),
        spec(7, Behavior::Item7Violator { limit: 150 }),
        spec(8, Behavior::NonValidator),
    ];
    let study = run_resolver_study_cfg(&fleet, &DriverConfig::from_env(NOW));
    let all = study.all();
    assert_eq!(all.len(), 9, "every resolver answered the prober");

    let stats = ResolverStats::compute(&all);
    assert_eq!(stats.validators, 8);
    // Items 6: the three InsecureAt + the Item7Violator.
    assert_eq!(stats.item6, 4, "{:?}", stats.insecure_limits);
    // Item 8: two ServfailFrom + the copier.
    assert_eq!(stats.item8, 3, "{:?}", stats.servfail_starts);
    assert_eq!(stats.limiting, 7);
    // Exact thresholds recovered from behaviour alone.
    assert_eq!(stats.insecure_limits.get(&150), Some(&2)); // incl. violator
    assert_eq!(stats.insecure_limits.get(&100), Some(&1));
    assert_eq!(stats.insecure_limits.get(&50), Some(&1));
    assert_eq!(stats.servfail_starts.get(&151), Some(&1));
    assert_eq!(stats.servfail_starts.get(&101), Some(&1));
    assert_eq!(stats.servfail_starts.get(&1), Some(&1));
    // The item 7 violator is caught by the it-2501-expired probe.
    assert_eq!(stats.item7_violations, 1);
    assert!(stats.item7_tested >= 4);
    // The copier's RA fingerprint.
    assert_eq!(stats.ra_missing, 1);
    // EDE 27 present for the non-Google limiting resolvers with visible
    // EDE (BIND-like ×2 incl. violator, 50-limit, both SERVFAILers — the
    // copier suppresses EDE by construction).
    assert!(stats.ede27 >= 4, "{}", stats.ede27);
}

#[test]
fn figure3_curves_have_paper_shape() {
    // A fleet shaped like §5.2: mostly 150-limits, some Google-100s, a
    // SERVFAIL-at-151 block.
    let mut fleet = Vec::new();
    for i in 0..6 {
        fleet.push(spec(
            i,
            Behavior::InsecureAt {
                limit: 150,
                google_style: false,
            },
        ));
    }
    for i in 6..10 {
        fleet.push(spec(
            i,
            Behavior::InsecureAt {
                limit: 100,
                google_style: true,
            },
        ));
    }
    for i in 10..13 {
        fleet.push(spec(
            i,
            Behavior::ServfailFrom {
                first: 151,
                technitium: false,
            },
        ));
    }
    let study = run_resolver_study_cfg(&fleet, &DriverConfig::from_env(NOW));
    let series = figure3_series(&study.all());
    let at = |n: u16| series.iter().find(|p| p.n == n).copied().unwrap();

    // All validators secure at it-1.
    assert_eq!(at(1).ad_nxdomain, 100.0);
    assert_eq!(at(1).servfail, 0.0);
    // Google block drops AD after 100.
    assert!(at(101).ad_nxdomain < at(100).ad_nxdomain);
    // Everyone else drops after 150; SERVFAIL block appears at 151.
    assert!(at(151).ad_nxdomain < at(101).ad_nxdomain);
    assert_eq!(at(150).servfail, 0.0);
    assert!((at(151).servfail - 3.0 / 13.0 * 100.0).abs() < 0.1);
    // NXDOMAIN share shrinks exactly by the SERVFAIL share.
    assert!((at(151).nxdomain + at(151).servfail - 100.0).abs() < 0.1);
    // And the state persists to 500.
    assert_eq!(at(500).ad_nxdomain, 0.0);
    assert!((at(500).servfail - at(151).servfail).abs() < 0.1);
}

#[test]
fn closed_resolvers_only_reachable_via_their_probes() {
    let mut tb = build_testbed(NOW);
    let fleet = vec![ResolverSpec {
        idx: 0,
        family: Family::V4,
        access: Access::Closed,
        behavior: Behavior::InsecureAt {
            limit: 150,
            google_style: false,
        },
        ede_visible: true,
    }];
    let deployed = nsec3_core::deploy_fleet(&mut tb.lab, &fleet);
    let probe = deployed[0]
        .probe
        .clone()
        .expect("closed resolver has a probe");
    // Direct prober from a random address: silence.
    let outsider = tb.lab.alloc.v4();
    let direct = dns_scanner::prober::Prober::new(&tb.lab.net, outsider, &tb.plan)
        .classify(deployed[0].addr);
    assert!(direct.unreachable, "closed resolver is silent from outside");
    // Via the Atlas probe: full classification, EDE hidden.
    let c = dns_scanner::classify_via_probe(&tb.lab.net, &probe, &tb.plan);
    assert!(!c.unreachable);
    assert!(c.is_validator);
    assert_eq!(c.insecure_limit, Some(150));
    assert!(!c.ede27_on_limit, "Atlas supplies no EDE data");
}
