//! Memory/scale sweep for the streaming census: run the event-driven
//! census at 10 K, 100 K, and 1 M domains on one thread, recording wall
//! time, peak RSS, and the event core's in-flight high-water mark per
//! point. Results land in `BENCH_census_scale.json`.
//!
//! Peak RSS (`VmHWM`) is monotonic for the life of a process, so the
//! sweep re-executes itself once per point (`--point`) and reads the
//! child's high-water mark — each point gets a fresh address space and
//! the numbers are comparable. The streaming pipeline's whole claim is
//! that the peak is set by the batch/window geometry, not the
//! population: the 1 M row should match the 10 K row. The claim itself
//! is the test `crates/bench/tests/census_memory.rs`; what a worker
//! thread adds is the repository benchmark's `par.rss_mb_per_thread`,
//! and thread-count identity is `tests/determinism.rs`.

use heroes_bench::microbench::Suite;
use heroes_bench::{peak_rss_kb, EXPERIMENT_NOW};
use nsec3_core::experiments::{DriverConfig, DEFAULT_LAB_SEED};
use nsec3_core::run_domain_census_stream;
use popgen::Scale;

const POPULATION_SEED: u64 = 42;
const BATCH_SIZE: usize = 512;
/// `(label, scale denominator)` — `domain_count` at these scales lands
/// on 10 213, 100 213, and 1 000 213 domains respectively.
const SCALES: [(&str, f64); 3] = [("10k", 30_200.0), ("100k", 3_020.0), ("1M", 302.0)];

/// Child mode: one point, its four measurements on one stdout line.
fn child_main(denom: f64) {
    let scale = Scale(1.0 / denom);
    let cfg = DriverConfig::clean(EXPERIMENT_NOW, 1, DEFAULT_LAB_SEED);
    let t0 = std::time::Instant::now();
    let report = run_domain_census_stream(scale, POPULATION_SEED, BATCH_SIZE, &cfg);
    println!(
        "POINT {} {:.1} {} {}",
        popgen::domain_count(scale),
        t0.elapsed().as_secs_f64() * 1e3,
        peak_rss_kb().unwrap_or(0),
        report.in_flight_high_water
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--point") {
        child_main(args[i + 1].parse().expect("--point <denom>"));
        return;
    }

    println!(
        "streaming-census scale sweep (batch {BATCH_SIZE}, seed {POPULATION_SEED}, one thread)"
    );
    println!("each point runs in a child process so VmHWM is per-point");
    let exe = std::env::current_exe().expect("own executable path");
    let mut suite = Suite::new("census_scale");
    for (label, denom) in SCALES {
        let out = std::process::Command::new(&exe)
            .args(["--point", &denom.to_string()])
            .output()
            .expect("spawn sweep point");
        assert!(
            out.status.success(),
            "point {label} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<f64> = stdout
            .lines()
            .find_map(|l| l.strip_prefix("POINT "))
            .unwrap_or_else(|| panic!("no POINT line from {label}"))
            .split_whitespace()
            .map(|v| v.parse().expect("numeric POINT field"))
            .collect();
        let [domains, wall_ms, peak_rss_kb, high_water] = fields[..] else {
            panic!("POINT line from {label} has {} fields", fields.len());
        };
        suite.record(&format!("{label}/domains"), domains, "count");
        suite.record(&format!("{label}/wall_ms"), wall_ms, "ms");
        suite.record(&format!("{label}/peak_rss_mb"), peak_rss_kb / 1024.0, "MB");
        suite.record(
            &format!("{label}/in_flight_high_water"),
            high_water,
            "count",
        );
    }
    suite.finish();
}
