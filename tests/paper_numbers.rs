//! The paper's headline numbers, reproduced at test scale with sampling
//! tolerances. The bench harnesses print the same comparisons at larger
//! scales; this test keeps the calibration honest in CI.

use analysis::{DomainStats, ResolverStats};
use nsec3_core::experiments::{records_from_specs, run_resolver_study_cfg, DriverConfig};
use popgen::{generate_domains, generate_fleet, generate_tlds, Scale};

const NOW: u32 = 1_710_000_000;

#[test]
fn section_5_1_domain_marginals() {
    let specs = generate_domains(Scale(1.0 / 2_000.0), 42); // 151K domains
    let stats = DomainStats::compute(&records_from_specs(&specs));
    let close = |measured: f64, paper: f64, tol: f64, what: &str| {
        assert!(
            (measured - paper).abs() <= tol,
            "{what}: measured {measured:.2}, paper {paper}, tol {tol}"
        );
    };
    close(stats.dnssec_pct(), 8.8, 0.7, "DNSSEC share");
    close(stats.nsec3_of_dnssec_pct(), 58.9, 2.0, "NSEC3 of DNSSEC");
    close(
        stats.non_compliant_pct(),
        87.8,
        2.0,
        "headline non-compliance",
    );
    close(stats.zero_iteration_pct(), 12.2, 2.0, "zero iterations");
    close(stats.no_salt_pct(), 8.6, 2.0, "no salt");
    close(stats.opt_out_pct(), 6.4, 1.5, "opt-out");
    // Long-tail absolutes.
    assert_eq!(stats.iterations_cdf.count_over(150), 43);
    assert_eq!(stats.iterations_cdf.max(), Some(500));
    assert_eq!(stats.salt_cdf.count_over(45), 170);
    assert_eq!(stats.salt_cdf.max(), Some(160));
}

#[test]
fn section_5_1_tld_exact_numbers() {
    use popgen::domains::DnssecKind;
    let tlds = generate_tlds();
    assert_eq!(tlds.len(), 1449);
    let nsec3: Vec<_> = tlds
        .iter()
        .filter_map(|t| match t.dnssec {
            DnssecKind::Nsec3 { iterations, .. } => Some(iterations),
            _ => None,
        })
        .collect();
    assert_eq!(nsec3.len(), 1302);
    assert_eq!(nsec3.iter().filter(|&&i| i == 0).count(), 688);
    assert_eq!(nsec3.iter().filter(|&&i| i == 100).count(), 447);
    // 47.2 % of NSEC3 TLDs non-compliant.
    let pct = (1302 - 688) as f64 / 1302.0 * 100.0;
    assert!((pct - 47.2).abs() < 0.3, "{pct}");
}

#[test]
fn section_5_2_resolver_shares_end_to_end() {
    // Full pipeline at a scale that still finishes quickly: ~1 K
    // resolvers, ~115 validators, each probed with 50 testbed queries.
    let fleet = generate_fleet(Scale(1.0 / 2_000.0), 7);
    let study = run_resolver_study_cfg(&fleet, &DriverConfig::from_env(NOW));
    let stats = ResolverStats::compute(&study.all());
    assert!(
        stats.validators >= 40,
        "enough validators: {}",
        stats.validators
    );

    let close = |measured: f64, paper: f64, tol: f64, what: &str| {
        assert!(
            (measured - paper).abs() <= tol,
            "{what}: measured {measured:.2}, paper {paper}, tol {tol}"
        );
    };
    // Generous tolerances: N is small and the tiny behavioural groups are
    // inflated by the min-1 survival rule.
    close(stats.item6_pct(), 59.9, 12.0, "item 6 share");
    close(stats.item8_pct(), 18.4, 10.0, "item 8 share");
    close(stats.limiting_pct(), 78.3, 12.0, "limiting share");
    // Threshold ordering (who wins): 150 and 100 dominate 50.
    let at150 = stats.insecure_limits.get(&150).copied().unwrap_or(0);
    let at100 = stats.insecure_limits.get(&100).copied().unwrap_or(0);
    let at50 = stats.insecure_limits.get(&50).copied().unwrap_or(0);
    assert!(at100 > at50, "100 ({at100}) > 50 ({at50})");
    assert!(at150 > at50, "150 ({at150}) > 50 ({at50})");
    // SERVFAIL mostly starts at 151.
    let sf151 = stats.servfail_starts.get(&151).copied().unwrap_or(0);
    let sf_other: u64 = stats
        .servfail_starts
        .iter()
        .filter(|(k, _)| **k != 151)
        .map(|(_, v)| *v)
        .sum();
    assert!(sf151 >= sf_other, "151 dominates: {sf151} vs {sf_other}");
    // The special groups exist.
    assert!(stats.servfail_starts.contains_key(&1), "copiers present");
    assert!(
        stats.servfail_starts.contains_key(&101),
        "Technitium present"
    );
    assert!(stats.ra_missing >= 1, "copier RA fingerprint observed");
}

#[test]
fn figure_2_tranco_uniformity() {
    use popgen::domains::DnssecKind;
    let list = popgen::generate_tranco(Scale(0.2), 11);
    let nsec3: Vec<(u64, u16)> = list
        .iter()
        .filter_map(|e| match e.dnssec {
            DnssecKind::Nsec3 { iterations, .. } => Some((e.rank, iterations)),
            _ => None,
        })
        .collect();
    // Compliance share in each third of the rank space stays flat.
    let third = list.len() as u64 / 3;
    let share = |lo: u64, hi: u64| {
        let in_range: Vec<_> = nsec3.iter().filter(|(r, _)| *r >= lo && *r < hi).collect();
        let zero = in_range.iter().filter(|(_, it)| *it == 0).count() as f64;
        zero / in_range.len().max(1) as f64
    };
    let a = share(0, third);
    let b = share(third, 2 * third);
    let c = share(2 * third, 3 * third);
    assert!(
        (a - b).abs() < 0.06 && (b - c).abs() < 0.06,
        "{a:.3} {b:.3} {c:.3}"
    );
}
