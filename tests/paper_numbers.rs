//! The paper's numbers at the test scales, over a sweep of seeds: every
//! row of `heroes_bench::claims` that a debug build can afford to
//! measure, held to the tolerance the table states for `At::Test`. `cargo test --test paper_numbers -- --nocapture`
//! prints the sweep (seed × row) the tolerances were read off.

use analysis::DomainStats;
use heroes_bench::claims::{
    rows, At, Claim, ResolverReport, TldReport, TrancoStats, CENSUS, RESOLVERS, TEST_SCALE, TLDS,
    TRANCO,
};
use nsec3_core::experiments::{
    records_from_specs, run_resolver_tally_cfg, DriverConfig, StreamCensusReport,
};
use popgen::{generate_domains, generate_fleet, generate_tranco, Scale};

const NOW: u32 = 1_710_000_000;

/// Walk `claims` against the report each seed yields, print one line a
/// row with the value measured at every seed, and fail on any row that
/// is outside its test-scale tolerance at any seed.
fn sweep<R>(claims: &[Claim<R>], seeds: &[u64], report: impl Fn(u64) -> R) {
    let per_seed: Vec<_> = seeds
        .iter()
        .map(|&seed| rows(claims, &report(seed), At::Test))
        .collect();
    eprintln!("seeds {seeds:?}");
    for (i, claim) in claims.iter().enumerate() {
        let measured: Vec<&str> = per_seed.iter().map(|r| r[i].cells[1].as_str()).collect();
        eprintln!("E{} {}: {}", claim.id, claim.label, measured.join(" | "));
    }
    for (seed, rows) in seeds.iter().zip(&per_seed) {
        for row in rows {
            assert!(row.ok, "seed {seed}: {row:?}");
        }
    }
}

#[test]
fn section_5_1_domain_marginals() {
    // Ten population seeds. The oracle stands in for the scan (151 K
    // zones a seed are beyond a debug build); that the scan measures
    // what the oracle declares is `census_measures_what_popgen_declares`.
    sweep(CENSUS, &[42, 1, 2, 3, 4, 5, 6, 7, 8, 9], |seed| {
        let specs = generate_domains(TEST_SCALE, seed);
        StreamCensusReport {
            stats: DomainStats::compute(&records_from_specs(&specs)),
            probe_stats: Default::default(),
            in_flight_high_water: 0,
        }
    });
}

#[test]
fn section_5_1_tld_exact_numbers() {
    // The TLD population has no seed and no scale: all 1,449 zones stood
    // up, scanned and transferred once.
    let report = TldReport::run(&DriverConfig::from_env(NOW));
    for row in rows(TLDS, &report, At::Test) {
        assert!(row.ok, "{row:?}");
    }
}

#[test]
fn section_5_2_resolver_shares_end_to_end() {
    // The full pipeline at 1/2000 — about a thousand resolvers, 58
    // validators, fifty testbed queries each — at as many fleet seeds
    // as ten seconds of debug time hold.
    sweep(RESOLVERS, &[42, 1, 2, 3, 7], |seed| {
        let fleet = generate_fleet(TEST_SCALE, seed);
        let (tally, _) = run_resolver_tally_cfg(&fleet, &DriverConfig::from_env(NOW));
        ResolverReport::from_tally(&tally)
    });
}

#[test]
fn figure_2_tranco_uniformity() {
    // The list is generated whole at either scale; every row is sampled.
    sweep(TRANCO, &[42, 7, 11], |seed| {
        TrancoStats::compute(&generate_tranco(Scale(1.0), seed))
    });
}
