//! The streaming census's memory claim: peak RSS is set by the
//! batch/window geometry, not the population. One `#[test]` in this
//! binary because `VmHWM` is per process and monotonic — the second,
//! ten times larger run may raise it by at most [`SLACK_KB`]. A lab that
//! is not freed costs ≈ 12 KB a zone, ≈ 110 MB over the second run.

use heroes_bench::{peak_rss_kb, EXPERIMENT_NOW};
use nsec3_core::experiments::{DriverConfig, DEFAULT_LAB_SEED};
use nsec3_core::run_domain_census_stream;
use popgen::Scale;

const SLACK_KB: u64 = 16 * 1024;

#[test]
fn streaming_census_peak_rss_is_flat_against_population() {
    if peak_rss_kb().is_none() {
        println!("skipped: no VmHWM in /proc/self/status on this platform");
        return;
    }
    let peak_after = |denom: f64| {
        let cfg = DriverConfig::clean(EXPERIMENT_NOW, 1, DEFAULT_LAB_SEED);
        let report = run_domain_census_stream(Scale(1.0 / denom), 42, 512, &cfg);
        assert_eq!(report.in_flight_high_water, 512);
        peak_rss_kb().expect("VmHWM was readable a moment ago")
    };
    let small = peak_after(302_000.0); // ≈ 1 K domains
    let large = peak_after(30_200.0); // ≈ 10 K domains
    println!("peak RSS {small} KB after ≈ 1 K domains, {large} KB after ≈ 10 K");
    assert!(
        large <= small + SLACK_KB,
        "peak RSS grew with the population: {small} KB -> {large} KB"
    );
}
