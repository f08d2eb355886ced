//! Census: generate a small calibrated domain population, instantiate
//! every domain as a real signed zone on the simulated Internet, scan
//! them zdns-style through a validating resolver, and report RFC 9276
//! compliance — the §4.1/§5.1 pipeline end to end.
//!
//! Two passes over the same pipeline:
//!
//! 1. a record-level census (`run_domain_census_cfg`) small enough to
//!    hold every [`analysis::DomainRecord`], feeding the operator table;
//! 2. a fully streaming census (`run_domain_census_stream`) over a 10×
//!    larger population that never materialises a spec list — each shard
//!    walks a `DomainGenerator` and folds records into a tally, so
//!    memory stays flat no matter the population.
//!
//! ```sh
//! cargo run --release --example census
//! ```

use analysis::{fmt_pct, operator_table, render_table2, DomainStats};
use nsec3_core::experiments::{records_from_specs, run_domain_census_cfg, DriverConfig};
use nsec3_core::{run_domain_census_stream, DEFAULT_LAB_SEED};
use popgen::{generate_domains, Scale};

const NOW: u32 = 1_710_000_000;

fn main() {
    let scale = Scale(1.0 / 200_000.0); // ~1.5 K domains: quick but meaningful
    let specs = generate_domains(scale, 42);
    println!(
        "population: {} registered domains (scale 1/200000)",
        specs.len()
    );

    let cfg = DriverConfig::clean(NOW, sim_par::default_threads(), DEFAULT_LAB_SEED);
    let t0 = std::time::Instant::now();
    let (measured, probe_stats) = run_domain_census_cfg(&specs, 250, &cfg);
    println!(
        "census: scanned {} domains over the simulated network in {:?} ({} queries sent)",
        measured.len(),
        t0.elapsed(),
        probe_stats.sent
    );

    let stats = DomainStats::compute(&measured);
    println!("\n--- measured (paper values in parentheses) ---");
    println!(
        "DNSSEC-enabled:      {} (8.8 %)",
        fmt_pct(stats.dnssec_pct())
    );
    println!(
        "NSEC3 of DNSSEC:     {} (58.9 %)",
        fmt_pct(stats.nsec3_of_dnssec_pct())
    );
    println!(
        "RFC 9276 violations: {} (87.8 %)",
        fmt_pct(stats.non_compliant_pct())
    );
    println!(
        "zero iterations:     {} (12.2 %)",
        fmt_pct(stats.zero_iteration_pct())
    );
    println!(
        "no salt:             {} (8.6 %)",
        fmt_pct(stats.no_salt_pct())
    );
    println!(
        "opt-out set:         {} (6.4 %)",
        fmt_pct(stats.opt_out_pct())
    );

    println!("\n--- top operators (measured from NS records) ---");
    print!("{}", render_table2(&operator_table(&stats, 5)));

    // Closed loop: measured == declared?
    let declared = DomainStats::compute(&records_from_specs(&specs));
    let drift = (stats.zero_iteration_pct() - declared.zero_iteration_pct()).abs();
    println!("\nclosed-loop drift on the it=0 share: {drift:.3} points (expect ~0)");

    // The same pipeline, streaming: 10× the population, no spec list,
    // no record list — shards pull domains from the O(1) generator and
    // fold straight into a tally.
    let stream_scale = Scale(1.0 / 20_000.0);
    println!(
        "\n--- streaming census (scale 1/20000, {} domains) ---",
        popgen::domain_count(stream_scale)
    );
    let t1 = std::time::Instant::now();
    let report = run_domain_census_stream(stream_scale, 42, 512, &cfg);
    println!(
        "streamed {} domains in {:?}: RFC 9276 violations {} , at most {} probes in flight per shard",
        report.stats.total,
        t1.elapsed(),
        fmt_pct(report.stats.non_compliant_pct()),
        report.in_flight_high_water
    );
}
