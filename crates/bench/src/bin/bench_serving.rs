//! Production-serving benchmark: Zipf client traffic through the
//! caching resolver fleet. Records what only this suite reports about
//! the RFC 8198 fast path — upstream NXDOMAIN and messages with
//! aggressive NSEC3 synthesis on and off and the collapse factor between
//! them, the warm and the cold (cacheless) fleet's virtual p50/p99, and
//! the warm fleet's answer-cache hit ratio and local-answer share — all
//! pure functions of the seed. Results land in `BENCH_serving.json`.
//!
//! Throughput, peak RSS and the event core's per-step cost are the
//! repository benchmark's `serving_hit/items_per_s`, `peak_rss_mb` and
//! `netsim.drive_ns_per_step` (`benchmark/`). The claims are tests beside
//! the drivers: collapse ≥ 2× is `aggressive_collapses_upstream_nxdomain`
//! and warm p99 < cold p50 `warm_fleet_beats_cold_fleet_latency`
//! (`crates/core/src/serving.rs`), thread-count identity is
//! `tests/determinism.rs`, flat memory is
//! `crates/bench/tests/serving_memory.rs`, and a flat per-step queue cost
//! is `drive_step_cost_is_flat_against_the_window`
//! (`crates/netsim/src/event.rs`); this bin only reports.

use heroes_bench::microbench::Suite;
use heroes_bench::report::{serving_scenario as scenario, SERVING_FLEET, SERVING_ZONES};
use heroes_bench::EXPERIMENT_NOW;
use nsec3_core::experiments::{DriverConfig, DEFAULT_LAB_SEED};
use nsec3_core::serving::{run_serving_cfg, ServingScenario, ServingTally};
use popgen::traffic::QueryMix;

fn run(scenario: &ServingScenario) -> ServingTally {
    let cfg = DriverConfig::clean(EXPERIMENT_NOW, 1, DEFAULT_LAB_SEED);
    run_serving_cfg(scenario, &cfg).tally
}

fn main() {
    println!(
        "production serving benchmark ({SERVING_ZONES} zones, fleet of {SERVING_FLEET}, Zipf skew 1.0)"
    );
    let mut suite = Suite::new("serving");

    // Upstream collapse under the water-torture mix.
    let heavy = scenario(64, 1_000, QueryMix::nxdomain_heavy());
    let on = run(&heavy);
    let off = run(&heavy.with_aggressive(false));
    suite.record(
        "collapse/upstream_nxdomain_off",
        off.upstream_nxdomain as f64,
        "count",
    );
    suite.record(
        "collapse/upstream_nxdomain_on",
        on.upstream_nxdomain as f64,
        "count",
    );
    suite.record(
        "collapse/upstream_messages_off",
        off.upstream_messages as f64,
        "msgs",
    );
    suite.record(
        "collapse/upstream_messages_on",
        on.upstream_messages as f64,
        "msgs",
    );
    suite.record(
        "collapse/factor",
        off.upstream_nxdomain as f64 / on.upstream_nxdomain.max(1) as f64,
        "x",
    );

    // Virtual latency, warm fleet against a cacheless one.
    let warm = run(&scenario(64, 1_000, QueryMix::browsing()));
    let cold = run(&scenario(8, 100, QueryMix::browsing()).cold());
    suite.record("warm/p50_us", warm.p50_micros() as f64, "us");
    suite.record("warm/p99_us", warm.p99_micros() as f64, "us");
    suite.record("warm/answer_hit_ratio", warm.answer_hit_ratio(), "ratio");
    suite.record(
        "warm/local_answer_share",
        warm.local_answer_share(),
        "ratio",
    );
    suite.record("cold/p50_us", cold.p50_micros() as f64, "us");
    suite.record("cold/p99_us", cold.p99_micros() as f64, "us");

    suite.finish();
}
