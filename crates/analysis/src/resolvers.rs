//! §5.2 aggregation: validator discovery counts, RFC 9276 item 6/8/7/10/12
//! adoption, threshold histograms, and the Figure 3 RCODE-share series.

use std::collections::BTreeMap;

use dns_scanner::prober::ResolverClassification;
use dns_wire::rrtype::Rcode;

use crate::stats::pct;

/// Which of the four Figure 3 panels a resolver belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Panel {
    /// Figure 3a.
    OpenV4,
    /// Figure 3b.
    OpenV6,
    /// Figure 3c.
    ClosedV4,
    /// Figure 3d.
    ClosedV6,
}

impl Panel {
    /// Panel title as in the paper.
    pub fn title(self) -> &'static str {
        match self {
            Panel::OpenV4 => "(a) Open, IPv4",
            Panel::OpenV6 => "(b) Open, IPv6",
            Panel::ClosedV4 => "(c) Closed, IPv4",
            Panel::ClosedV6 => "(d) Closed, IPv6",
        }
    }
}

/// One point of a Figure 3 series: response-kind shares at iteration
/// count N, in percent of validators.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RcodeShares {
    /// Additional-iteration count.
    pub n: u16,
    /// NXDOMAIN share (with or without AD — the paper's solid line).
    pub nxdomain: f64,
    /// NXDOMAIN with AD set (subset of `nxdomain`).
    pub ad_nxdomain: f64,
    /// SERVFAIL share.
    pub servfail: f64,
}

/// Aggregated §5.2 statistics over one set of classifications: a fold.
/// [`ResolverStats::add`] takes one classification and
/// [`ResolverStats::merge`] another fold's totals; every field is a count
/// or a count map, so any split of a list merged in any order equals
/// [`ResolverStats::compute`] over the whole.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Resolvers that answered probes at all (classified minus
    /// unreachable).
    pub responsive: u64,
    /// Resolvers whose baseline probes never got an answer. They stay in
    /// the study denominator instead of silently vanishing.
    pub unreachable: u64,
    /// Resolvers with incomplete per-N coverage (probe loss): observed
    /// responses are tallied but no thresholds were derived for them.
    pub partial: u64,
    /// Validators found.
    pub validators: u64,
    /// Validators limiting iterations in any way (paper: 78.3 %).
    pub limiting: u64,
    /// Item 6 implementers (paper: 59.9 %).
    pub item6: u64,
    /// Item 8 implementers (paper: 18.4 %).
    pub item8: u64,
    /// Histogram of insecure-limit values (item 6 thresholds).
    pub insecure_limits: BTreeMap<u16, u64>,
    /// Histogram of first-SERVFAIL values (item 8 starts).
    pub servfail_starts: BTreeMap<u16, u64>,
    /// Limiting resolvers attaching EDE 27.
    pub ede27: u64,
    /// Item 7 violators (of those tested).
    pub item7_violations: u64,
    /// Item 7 tested.
    pub item7_tested: u64,
    /// Item 12 gaps observed.
    pub item12_gaps: u64,
    /// Flaky resolvers.
    pub flaky: u64,
    /// Validators whose responses never set RA (query-copier signature).
    pub ra_missing: u64,
}

impl ResolverStats {
    /// Aggregate a batch of classifications: [`ResolverStats::add`] over
    /// each.
    pub fn compute(classifications: &[ResolverClassification]) -> Self {
        let mut stats = ResolverStats::default();
        classifications.iter().for_each(|c| stats.add(c));
        stats
    }

    /// Fold one classification in.
    pub fn add(&mut self, c: &ResolverClassification) {
        if c.unreachable {
            self.unreachable += 1;
        } else {
            self.responsive += 1;
        }
        if c.partial {
            self.partial += 1;
        }
        if !c.is_validator {
            return;
        }
        self.validators += 1;
        // The paper's 78.3 % headline is exactly item 6 + item 8
        // (59.9 + 18.4): resolvers with a *clean* limit. Flaky
        // resolvers show limits too but the paper counts them out.
        if c.implements_item6() || c.implements_item8() {
            self.limiting += 1;
        }
        if c.implements_item6() {
            self.item6 += 1;
            if let Some(l) = c.insecure_limit {
                *self.insecure_limits.entry(l).or_default() += 1;
            }
        }
        if c.implements_item8() {
            self.item8 += 1;
            if let Some(s) = c.servfail_start {
                *self.servfail_starts.entry(s).or_default() += 1;
            }
        }
        if let Some(violated) = c.item7_violation {
            self.item7_tested += 1;
            self.item7_violations += u64::from(violated);
        }
        self.ede27 += u64::from(c.ede27_on_limit);
        self.item12_gaps += u64::from(c.item12_gap);
        self.flaky += u64::from(c.flaky);
        self.ra_missing += u64::from(c.ra_missing);
    }

    /// Combine another fold in (shard merge). Order-insensitive: every
    /// field is a sum or a count map.
    pub fn merge(&mut self, other: ResolverStats) {
        // Destructured, so a new field cannot be left out of the merge.
        let ResolverStats {
            responsive,
            unreachable,
            partial,
            validators,
            limiting,
            item6,
            item8,
            insecure_limits,
            servfail_starts,
            ede27,
            item7_violations,
            item7_tested,
            item12_gaps,
            flaky,
            ra_missing,
        } = other;
        self.responsive += responsive;
        self.unreachable += unreachable;
        self.partial += partial;
        self.validators += validators;
        self.limiting += limiting;
        self.item6 += item6;
        self.item8 += item8;
        self.ede27 += ede27;
        self.item7_violations += item7_violations;
        self.item7_tested += item7_tested;
        self.item12_gaps += item12_gaps;
        self.flaky += flaky;
        self.ra_missing += ra_missing;
        for (limit, n) in insecure_limits {
            *self.insecure_limits.entry(limit).or_default() += n;
        }
        for (start, n) in servfail_starts {
            *self.servfail_starts.entry(start).or_default() += n;
        }
    }

    /// Share of validators limiting iterations (paper: 78.3 %).
    pub fn limiting_pct(&self) -> f64 {
        pct(self.limiting, self.validators)
    }

    /// Item 6 share (paper: 59.9 %).
    pub fn item6_pct(&self) -> f64 {
        pct(self.item6, self.validators)
    }

    /// Item 8 share (paper: 18.4 %).
    pub fn item8_pct(&self) -> f64 {
        pct(self.item8, self.validators)
    }

    /// EDE 27 share among limiting validators (paper: < 18 % for open).
    pub fn ede27_of_limiting_pct(&self) -> f64 {
        pct(self.ede27, self.limiting)
    }

    /// Item 7 violation share among tested (paper: 0.2 %).
    pub fn item7_violation_pct(&self) -> f64 {
        pct(self.item7_violations, self.item7_tested)
    }

    /// Item 12 gap share of validators (paper: 4.3 %).
    pub fn item12_gap_pct(&self) -> f64 {
        pct(self.item12_gaps, self.validators)
    }
}

/// The fold behind [`figure3_series`]: for each probed N, how many
/// validators answered NXDOMAIN, AD+NXDOMAIN and SERVFAIL there, of how
/// many answered at all. Sums only, so folds merge in any order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Figure3Counts {
    /// N → `[nxdomain, ad_nxdomain, servfail, answered]`.
    per_n: BTreeMap<u16, [u64; 4]>,
}

impl Figure3Counts {
    /// Fold one classification in; a non-validator adds nothing.
    pub fn add(&mut self, c: &ResolverClassification) {
        if !c.is_validator {
            return;
        }
        for (n, obs) in &c.responses {
            let [nx, adnx, sf, answered] = self.per_n.entry(*n).or_default();
            *answered += 1;
            match (obs.rcode, obs.ad) {
                (Rcode::NxDomain, ad) => {
                    *nx += 1;
                    *adnx += u64::from(ad);
                }
                (Rcode::ServFail, _) => *sf += 1,
                _ => {}
            }
        }
    }

    /// Combine another fold in (shard merge).
    pub fn merge(&mut self, other: Figure3Counts) {
        for (n, counts) in other.per_n {
            let mine = self.per_n.entry(n).or_default();
            for (mine, theirs) in mine.iter_mut().zip(counts) {
                *mine += theirs;
            }
        }
    }

    /// The panel's series: the counts as shares, ascending by N.
    pub fn series(&self) -> Vec<RcodeShares> {
        let share = |(&n, &[nx, adnx, sf, answered]): (&u16, &[u64; 4])| RcodeShares {
            n,
            nxdomain: pct(nx, answered),
            ad_nxdomain: pct(adnx, answered),
            servfail: pct(sf, answered),
        };
        self.per_n.iter().map(share).collect()
    }
}

/// Build one Figure 3 panel's series from validator classifications: for
/// each probed N, the share of validators answering NXDOMAIN,
/// AD+NXDOMAIN, and SERVFAIL. A fold through [`Figure3Counts`].
pub fn figure3_series(classifications: &[ResolverClassification]) -> Vec<RcodeShares> {
    let mut counts = Figure3Counts::default();
    classifications.iter().for_each(|c| counts.add(c));
    counts.series()
}

/// The §5.2 study folded per Figure 3 panel: everything the report reads
/// of the classifications, without keeping them. Folds merge in any order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResolverTally {
    /// Per panel, its statistics and its Figure 3 counts.
    pub per_panel: BTreeMap<Panel, (ResolverStats, Figure3Counts)>,
}

impl ResolverTally {
    /// Fold one classification of `panel` in.
    pub fn add(&mut self, panel: Panel, c: &ResolverClassification) {
        let (stats, figure3) = self.per_panel.entry(panel).or_default();
        stats.add(c);
        figure3.add(c);
    }

    /// Combine another fold in (shard merge).
    pub fn merge(&mut self, other: ResolverTally) {
        for (panel, (stats, figure3)) in other.per_panel {
            let mine = self.per_panel.entry(panel).or_default();
            mine.0.merge(stats);
            mine.1.merge(figure3);
        }
    }

    /// Statistics over every panel.
    pub fn all(&self) -> ResolverStats {
        let mut all = ResolverStats::default();
        for (stats, _) in self.per_panel.values() {
            all.merge(stats.clone());
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_resolver::broken::ObservedResponse;

    fn mk(responses: Vec<(u16, Rcode, bool)>, validator: bool) -> ResolverClassification {
        let mut c = ResolverClassification::empty("10.0.0.1".parse().unwrap());
        c.is_validator = validator;
        c.responses = responses
            .into_iter()
            .map(|(n, rcode, ad)| {
                (
                    n,
                    ObservedResponse {
                        rcode,
                        ad,
                        ra: true,
                        ede: None,
                        ede_has_text: false,
                    },
                )
            })
            .collect();
        dns_scanner::prober::derive_limits(&mut c);
        c
    }

    #[test]
    fn stats_aggregate() {
        let classifications = vec![
            mk(
                vec![(1, Rcode::NxDomain, true), (151, Rcode::NxDomain, false)],
                true,
            ),
            mk(
                vec![(1, Rcode::NxDomain, true), (151, Rcode::ServFail, false)],
                true,
            ),
            mk(
                vec![(1, Rcode::NxDomain, true), (151, Rcode::NxDomain, true)],
                true,
            ),
            mk(vec![], false),
        ];
        let s = ResolverStats::compute(&classifications);
        assert_eq!(s.responsive, 4);
        assert_eq!(s.unreachable, 0);
        assert_eq!(s.partial, 0);
        assert_eq!(s.validators, 3);
        assert_eq!(s.item6, 1);
        assert_eq!(s.item8, 1);
        assert_eq!(s.limiting, 2);
        assert!((s.limiting_pct() - 66.666).abs() < 0.01);
        assert_eq!(s.insecure_limits.get(&1), Some(&1));
        assert_eq!(s.servfail_starts.get(&151), Some(&1));
    }

    #[test]
    fn unreachable_and_partial_stay_in_the_denominator() {
        let mut dead = ResolverClassification::empty("10.0.0.9".parse().unwrap());
        dead.unreachable = true;
        let mut part = mk(vec![(1, Rcode::NxDomain, true)], true);
        part.partial = true;
        let fine = mk(
            vec![(1, Rcode::NxDomain, true), (151, Rcode::NxDomain, false)],
            true,
        );
        let s = ResolverStats::compute(&[dead, part, fine]);
        assert_eq!(s.responsive, 2);
        assert_eq!(s.unreachable, 1);
        assert_eq!(s.partial, 1);
        assert_eq!(s.validators, 2);
    }

    #[test]
    fn figure3_shares() {
        let classifications = vec![
            mk(
                vec![(100, Rcode::NxDomain, true), (200, Rcode::NxDomain, false)],
                true,
            ),
            mk(
                vec![(100, Rcode::NxDomain, true), (200, Rcode::ServFail, false)],
                true,
            ),
        ];
        let series = figure3_series(&classifications);
        assert_eq!(series.len(), 2);
        let at100 = series.iter().find(|p| p.n == 100).unwrap();
        assert_eq!(at100.nxdomain, 100.0);
        assert_eq!(at100.ad_nxdomain, 100.0);
        assert_eq!(at100.servfail, 0.0);
        let at200 = series.iter().find(|p| p.n == 200).unwrap();
        assert_eq!(at200.nxdomain, 50.0);
        assert_eq!(at200.ad_nxdomain, 0.0);
        assert_eq!(at200.servfail, 50.0);
    }

    #[test]
    fn non_validators_excluded_from_series() {
        let classifications = vec![mk(vec![(100, Rcode::NxDomain, false)], false)];
        assert!(figure3_series(&classifications).is_empty());
    }
}
