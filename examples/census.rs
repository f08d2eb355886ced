//! Census: generate a small calibrated domain population, instantiate
//! every domain as a real signed zone on the simulated Internet, scan
//! them zdns-style through a validating resolver, and report RFC 9276
//! compliance — the §4.1/§5.1 pipeline end to end.
//!
//! The census (`run_domain_census_stream`) never materialises a spec
//! list or a record list: each shard walks a `DomainGenerator` and folds
//! every record into a tally, so memory stays flat no matter the
//! population. The tally carries the §5.1 shares and the Table 2
//! operator breakdown.
//!
//! ```sh
//! cargo run --release --example census
//! ```

use analysis::{fmt_pct, operator_table, render_table2, DomainStats};
use nsec3_core::experiments::{records_from_specs, DriverConfig};
use nsec3_core::{run_domain_census_stream, DEFAULT_LAB_SEED};
use popgen::{domain_count, generate_domains, Scale};

const NOW: u32 = 1_710_000_000;

fn main() {
    let scale = Scale(1.0 / 200_000.0); // ~1.7 K domains: quick but meaningful
    println!(
        "population: {} registered domains (scale 1/200000)",
        domain_count(scale)
    );

    let cfg = DriverConfig::clean(NOW, sim_par::default_threads(), DEFAULT_LAB_SEED);
    let t0 = std::time::Instant::now();
    let report = run_domain_census_stream(scale, 42, 250, &cfg);
    let stats = report.stats;
    println!(
        "census: scanned {} domains over the simulated network in {:?} \
         ({} queries sent, at most {} probes in flight per shard)",
        stats.total,
        t0.elapsed(),
        report.probe_stats.sent,
        report.in_flight_high_water
    );
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
    let declared = DomainStats::compute(&records_from_specs(&generate_domains(scale, 42)));
    let drift = (stats.zero_iteration_pct() - declared.zero_iteration_pct()).abs();
    println!("\nclosed-loop drift on the it=0 share: {drift:.3} points (expect ~0)");
}
