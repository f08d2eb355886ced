//! The serving driver's memory claim: the query stream is regenerated
//! per index and every cache is capacity-bounded, so ten times the
//! traffic must not mean ten times the memory. One `#[test]` in this
//! binary because `VmHWM` is per process and monotonic — the second, ten
//! times longer run may raise it by at most [`SLACK_KB`].

use heroes_bench::{peak_rss_kb, EXPERIMENT_NOW};
use nsec3_core::experiments::{DriverConfig, DEFAULT_LAB_SEED};
use nsec3_core::serving::{run_serving_cfg, ServingScenario};
use popgen::domains::{DnssecKind, DomainSpec};
use popgen::traffic::{QueryMix, TrafficModel};
use popgen::{DomainGenerator, Scale};

const SLACK_KB: u64 = 16 * 1024;

/// The first 24 non-opt-out NSEC3 zones of the calibrated population —
/// `bench_serving`'s population.
fn population() -> Vec<DomainSpec> {
    let generator = DomainGenerator::new(Scale(1.0 / 3_020.0), 42);
    (0..generator.len())
        .map(|i| generator.get(i))
        .filter(|spec| matches!(spec.dnssec, DnssecKind::Nsec3 { opt_out: false, .. }))
        .take(24)
        .collect()
}

#[test]
fn nxdomain_heavy_serving_peak_rss_is_flat_against_traffic() {
    if peak_rss_kb().is_none() {
        println!("skipped: no VmHWM in /proc/self/status on this platform");
        return;
    }
    let peak_after = |queries_per_client: u64| {
        let traffic =
            TrafficModel::new(200, queries_per_client, 42).with_mix(QueryMix::nxdomain_heavy());
        let scenario = ServingScenario::new(population(), traffic).with_fleet(4);
        let cfg = DriverConfig::clean(EXPERIMENT_NOW, 1, DEFAULT_LAB_SEED);
        let report = run_serving_cfg(&scenario, &cfg);
        assert_eq!(report.tally.queries, 200 * queries_per_client);
        peak_rss_kb().expect("VmHWM was readable a moment ago")
    };
    let small = peak_after(50); // 10 K queries
    let large = peak_after(500); // 100 K queries
    println!("peak RSS {small} KB after 10 K queries, {large} KB after 100 K");
    assert!(
        large <= small + SLACK_KB,
        "peak RSS grew with the traffic: {small} KB -> {large} KB"
    );
}
