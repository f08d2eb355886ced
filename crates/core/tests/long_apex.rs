//! Specs whose apex is too long to be a lab zone are skipped, not
//! panicked on: an NSEC3-signed zone owns `<32-octet label>.<apex>`
//! names, so an apex over 222 wire octets cannot be signed (and one over
//! 245 cannot even take the lab's `hostmaster` name). Such a spec gets
//! no zone and no probe, and its neighbours are measured as usual. The
//! domain census's case is a unit test beside its batch step
//! (`census_skips_unservable_apexes` in `experiments.rs`).

use nsec3_core::experiments::{
    run_tld_census_cfg, run_unreachability_cfg, DriverConfig, DEFAULT_LAB_SEED,
};
use nsec3_core::serving::{run_serving_cfg, ServingScenario};
use popgen::domains::{DnssecKind, DomainSpec};
use popgen::tlds::TldSpec;
use popgen::traffic::TrafficModel;

const NOW: u32 = 1_710_000_000;

/// A name under `com.` that is exactly `wire_len` octets on the wire.
fn name_of_wire_len(wire_len: usize) -> String {
    // "com" (4 octets) and the root (1), then full 63-octet labels and
    // one shorter label making up the rest.
    let mut rest = wire_len - 5;
    let mut name = String::new();
    while rest > 0 {
        let label = (rest - 1).min(63);
        name.push_str(&"a".repeat(label));
        name.push('.');
        rest -= label + 1;
    }
    name.push_str("com.");
    assert_eq!(
        dns_wire::name::Name::parse(&name).unwrap().wire_len(),
        wire_len
    );
    name
}

fn nsec3_spec(name: String, iterations: u16) -> DomainSpec {
    DomainSpec {
        name,
        operator: None,
        dnssec: DnssecKind::Nsec3 {
            iterations,
            salt_len: 4,
            opt_out: false,
        },
    }
}

/// `[ok, 223-octet apex, 250-octet apex, ok]`, all NSEC3-enabled.
fn specs() -> Vec<DomainSpec> {
    vec![
        nsec3_spec("first.com.".into(), 0),
        nsec3_spec(name_of_wire_len(223), 0),
        nsec3_spec(name_of_wire_len(250), 0),
        nsec3_spec("last.com.".into(), 5),
    ]
}

fn cfg() -> DriverConfig {
    DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED)
}

#[test]
fn longest_signable_apex_is_still_measured() {
    let spec = nsec3_spec(name_of_wire_len(222), 3);
    let (result, _) = run_unreachability_cfg(&[spec], 8, &cfg());
    assert_eq!((result.probed, result.unreachable), (1, 1));
}

#[test]
fn unreachability_probes_only_specs_that_got_a_zone() {
    let (result, stats) = run_unreachability_cfg(&specs(), 8, &cfg());
    assert_eq!(result.probed, 2);
    assert_eq!(result.reachable, 1, "first.com. has zero iterations");
    assert_eq!(result.unreachable, 1, "last.com. has five");
    assert_eq!(stats.sent, 2);
}

#[test]
fn serving_serves_only_specs_that_got_a_zone() {
    let traffic = TrafficModel::new(4, 50, 42);
    let scenario = ServingScenario::new(specs(), traffic).with_fleet(2);
    let report = run_serving_cfg(&scenario, &cfg());
    let t = &report.tally;
    assert!(t.queries > 0 && t.queries < 200, "{t:?}");
    assert_eq!(t.servfail, 0, "only zones that exist are asked: {t:?}");
    assert_eq!(report.probe_stats.sent, t.queries);
}

#[test]
fn tld_census_skips_unservable_apexes() {
    let tld = |name: String| TldSpec {
        name,
        dnssec: DnssecKind::Nsec3 {
            iterations: 1,
            salt_len: 0,
            opt_out: true,
        },
        registry_provider: None,
        shares_zone: true,
        est_domains: 300_000,
    };
    let tlds = [tld("shop.".into()), tld(name_of_wire_len(223))];
    let (observed, _) = run_tld_census_cfg(&tlds, 1.0 / 100_000.0, &cfg());
    assert_eq!(observed.len(), 1);
    assert_eq!(observed[0].name, "shop.");
    assert_eq!(observed[0].delegations, Some(3));
}
