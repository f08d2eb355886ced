//! Property-based tests for the statistics toolkit.

use sim_check::{gens, props, Gen};

use analysis::domains::{operator_table, DomainRecord, DomainStats};
use analysis::resolvers::{figure3_series, Figure3Counts, Panel, ResolverStats, ResolverTally};
use analysis::stats::{pct, Cdf};
use dns_resolver::broken::ObservedResponse;
use dns_scanner::prober::ResolverClassification;
use dns_wire::rrtype::Rcode;

/// A classification with every field the folds read drawn at random: a
/// few iteration counts and limits, so per-N and histogram keys collide
/// across resolvers.
fn classification() -> impl Gen<ResolverClassification> {
    let responses = gens::vec_of((gens::u16s(0..5), gens::u8s(0..3), gens::bools()), 0..6);
    let shape = (
        gens::u16s(..),
        responses,
        gens::u16s(0..4),
        gens::u16s(0..4),
    );
    gens::map(shape, |(flags, responses, limit, start)| {
        let bit = |i: u32| flags & (1 << i) != 0;
        let mut c = ResolverClassification::empty("192.0.2.1".parse().unwrap());
        c.is_validator = bit(0);
        c.unreachable = bit(1);
        c.partial = bit(2);
        c.has_insecure_band = bit(3);
        c.ede27_on_limit = bit(4);
        c.item12_gap = bit(5);
        c.flaky = bit(6);
        c.ra_missing = bit(7);
        c.item7_violation = bit(8).then_some(bit(9));
        c.insecure_limit = (limit > 0).then_some(limit * 50);
        c.servfail_start = (start > 0).then_some(start * 50 + 1);
        c.responses = responses
            .into_iter()
            .map(|(n, rcode, ad)| {
                let rcode = [Rcode::NxDomain, Rcode::ServFail, Rcode::NoError][rcode as usize];
                let obs = ObservedResponse {
                    rcode,
                    ad,
                    ra: true,
                    ede: None,
                    ede_has_text: false,
                };
                (n * 50, obs)
            })
            .collect();
        c
    })
}

props! {
    /// CDF fractions are monotone non-decreasing and bounded in [0, 1].
    fn cdf_monotone_bounded(samples in gens::vec_of(gens::u32s(..), 0..200)) {
        let cdf = Cdf::from_samples(samples.clone());
        let mut last = 0.0f64;
        for x in [0u32, 1, 10, 100, 1000, u32::MAX / 2, u32::MAX] {
            let f = cdf.fraction_at_most(x);
            assert!((0.0..=1.0).contains(&f));
            assert!(f >= last);
            last = f;
        }
        if !samples.is_empty() {
            assert_eq!(cdf.fraction_at_most(u32::MAX), 1.0);
        }
    }

    /// count_over + count_at_most == len.
    fn cdf_counts_partition(samples in gens::vec_of(gens::u32s(..), 0..200), x in gens::u32s(..)) {
        let cdf = Cdf::from_samples(samples.clone());
        let at_most = (cdf.fraction_at_most(x) * samples.len() as f64).round() as usize;
        assert_eq!(at_most + cdf.count_over(x), samples.len());
    }

    /// points() ends at 100 % and is strictly increasing in x.
    fn cdf_points_well_formed(samples in gens::vec_of(gens::u32s(..), 1..100)) {
        let cdf = Cdf::from_samples(samples);
        let pts = cdf.points();
        assert!(!pts.is_empty());
        assert!((pts.last().unwrap().1 - 100.0).abs() < 1e-9);
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1 + 1e-12);
        }
    }

    /// pct stays in range.
    fn pct_bounded(part in gens::u32s(..), whole in gens::u32s(..)) {
        let p = pct(part.min(whole) as u64, whole as u64);
        assert!((0.0..=100.0).contains(&p));
    }

    /// Operator table shares sum to at most 100 % and counts are sane.
    fn operator_table_invariants(
        assignments in gens::vec_of((gens::u8s(0..6), gens::u16s(0..10), gens::u8s(0..10)), 1..100),
    ) {
        let records: Vec<DomainRecord> = assignments
            .iter()
            .enumerate()
            .map(|(i, (op, it, salt))| DomainRecord {
                name: format!("d{i}.com."),
                dnssec: true,
                nsec3: Some((*it, *salt)),
                opt_out: false,
                operator: Some(format!("op{op}.example.")),
                probe_loss: false,
            })
            .collect();
        let stats = DomainStats::compute(&records);
        let table = operator_table(&stats, 10);
        let total_share: f64 = table.iter().map(|r| r.share_pct).sum();
        assert!(total_share <= 100.0 + 1e-9);
        let total_count: u64 = table.iter().map(|r| r.count).sum();
        assert_eq!(total_count, records.len() as u64);
        // Rows sorted by count descending.
        for w in table.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
        // Per-row parameter shares sum to 100.
        for row in &table {
            let s: f64 = row.params.iter().map(|(_, _, p)| *p).sum();
            assert!((s - 100.0).abs() < 1e-6);
        }
        // Stats agree with raw counting.
        assert_eq!(stats.nsec3, records.len() as u64);
    }

    /// Any split of a classification list into parts, each folded on its
    /// own and merged in any order, equals the fold of the whole list:
    /// `ResolverStats::compute`, `figure3_series`, and per panel.
    fn resolver_folds_merge_in_any_order(
        parts in gens::vec_of((gens::u32s(..), gens::vec_of((gens::u8s(0..4), classification()), 0..8)), 0..6),
    ) {
        let panel = |p: u8| [Panel::OpenV4, Panel::OpenV6, Panel::ClosedV4, Panel::ClosedV6][p as usize];
        let whole: Vec<ResolverClassification> =
            parts.iter().flat_map(|(_, part)| part.iter().map(|(_, c)| c.clone())).collect();
        let mut order: Vec<&(u32, Vec<(u8, ResolverClassification)>)> = parts.iter().collect();
        order.sort_by_key(|(key, _)| *key);
        let (mut stats, mut figure3, mut tally) =
            (ResolverStats::default(), Figure3Counts::default(), ResolverTally::default());
        for (_, part) in order {
            let (mut s, mut f, mut t) =
                (ResolverStats::default(), Figure3Counts::default(), ResolverTally::default());
            for (p, c) in part {
                s.add(c);
                f.add(c);
                t.add(panel(*p), c);
            }
            stats.merge(s);
            figure3.merge(f);
            tally.merge(t);
        }
        assert_eq!(stats, ResolverStats::compute(&whole));
        assert_eq!(figure3.series(), figure3_series(&whole));
        assert_eq!(tally.all(), stats);
        for (p, (panel_stats, panel_figure3)) in &tally.per_panel {
            let members: Vec<ResolverClassification> = parts
                .iter()
                .flat_map(|(_, part)| part.iter().filter(|(q, _)| panel(*q) == *p))
                .map(|(_, c)| c.clone())
                .collect();
            assert_eq!(*panel_stats, ResolverStats::compute(&members));
            assert_eq!(panel_figure3.series(), figure3_series(&members));
        }
    }
}
