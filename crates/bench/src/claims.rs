//! The paper's claims, each written once: the experiment it belongs to,
//! the value as published, how close a measured value must come, and the
//! function from a driver's report to that measured value.
//!
//! `paper_report` walks every table here against one run of every driver
//! and prints EXPERIMENTS.md; `tests/paper_numbers.rs` walks the §5.1 and
//! §5.2 tables at the test scales over a sweep of seeds. No other file
//! spells a published number.
//!
//! Tolerances are measured, not chosen. The domain and resolver
//! populations are apportioned, so all but two of their rows are
//! identical at every seed and differ from the paper by a fixed scale
//! offset (long-tail outliers are injected with absolute counts, small
//! behavioural groups survive with at least one member): those rows are
//! held to that offset plus 0.1, rounded up to a tenth — counts to the
//! offset itself, exact populations to the 0.1 the paper rounds to. The
//! sampled rows (opt-out, EDE 27, the Tranco list) are held to the
//! largest deviation a ten-seed sweep showed, plus 0.1.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use analysis::{
    ks_uniform, operator_table, pct, Cdf, Figure3Counts, OperatorRow, Panel, RcodeShares,
    ResolverStats, ResolverTally,
};
use nsec3_core::experiments::{
    run_tld_census_cfg, CvePoint, DriverConfig, StreamCensusReport, TldObservation, Unreachability,
};
use nsec3_core::testbed::paper_subdomain_count;
use nsec3_core::{AdversarialReport, ChainReport, ServingTally};
use popgen::domains::DnssecKind;
use popgen::{
    generate_tlds, generate_tlds_after_remediation, AttackFamily, ChainScenario, Scale, TldSpec,
    TrancoEntry,
};

/// A value with the unit it is printed in, published or measured.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A share, printed to one decimal as the paper does.
    Pct(f64),
    /// A difference between two shares, in percentage points.
    Points(f64),
    /// An absolute count.
    Count(u64),
    /// A ratio of two costs or counts.
    Times(f64),
    /// A unitless number.
    Num(f64),
    /// Parameter sets, `iterations/salt bytes`.
    Text(Cow<'static, str>),
}
use Value::{Count, Num, Pct, Points, Text, Times};

impl Value {
    /// The value as a number; `None` for text.
    fn number(&self) -> Option<f64> {
        match self {
            Pct(x) | Points(x) | Times(x) | Num(x) => Some(*x),
            Count(n) => Some(*n as f64),
            Text(_) => None,
        }
    }

    /// `x` in this value's unit (a bound or a tolerance beside it).
    fn with(&self, x: f64) -> Value {
        match self {
            Pct(_) => Pct(x),
            Points(_) => Points(x),
            Count(_) => Count(x.round() as u64),
            Times(_) => Times(x),
            Num(_) | Text(_) => Num(x),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pct(x) => write!(f, "{x:.1} %"),
            Points(x) => write!(f, "{x:.1} points"),
            Times(x) => write!(f, "{x:.1}×"),
            Num(x) => write!(f, "{x:.3}"),
            Text(t) => f.write_str(t),
            Count(n) => {
                let digits = n.to_string();
                for (i, d) in digits.chars().enumerate() {
                    if i > 0 && (digits.len() - i) % 3 == 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
        }
    }
}

/// How a claim was published, which is also what a measured value is
/// held to. A tolerance is in the value's unit, at [`At::Report`] and at
/// [`At::Test`]; `EXACT` where the populations reproduce the value at
/// every scale.
#[derive(Clone, Debug)]
pub enum Paper {
    /// As this value: measured within the tolerance of it.
    Is(Value, [f64; 2]),
    /// As a lower bound ("≥ 1,105").
    AtLeast(Value),
    /// As an upper bound ("< 18 %"), with the slack a sampled row needs.
    Below(Value, [f64; 2]),
    /// In words — or, as "—", not by the paper at all: a closed-loop
    /// statement of this repository — and held to this repository's
    /// reading of them, in the measured value's unit.
    Words(&'static str, Ours),
}
use Paper::{AtLeast, Below, Is, Words};

/// This repository's reading of a claim made in words.
#[derive(Clone, Copy, Debug)]
pub enum Ours {
    /// At least this much.
    Min(f64),
    /// Less than this.
    Max(f64),
    /// Exactly this.
    Exactly(f64),
}
use Ours::{Exactly, Max, Min};

/// No tolerance at either scale.
const EXACT: [f64; 2] = [0.0, 0.0];

/// Which of a claim's two tolerances applies.
#[derive(Clone, Copy, Debug)]
pub enum At {
    /// `paper_report`: domains at [`REPORT_DOMAINS`], fleet at
    /// `REPORT_FLEET`.
    Report = 0,
    /// `tests/paper_numbers.rs`: both at [`TEST_SCALE`]; and the
    /// resolver rows of `paper_report --fleet-scale 2000`.
    Test = 1,
}

/// Registered domains in `paper_report`, of the paper's 302 M.
pub const REPORT_DOMAINS: Scale = Scale(1.0 / 1_000.0);
/// The resolver fleet in `paper_report`, of 1.9 M open + 2.5 K closed.
pub(crate) const REPORT_FLEET: Scale = Scale(1.0 / 200.0);
/// Domains and fleet in a debug-build test.
pub const TEST_SCALE: Scale = Scale(1.0 / 2_000.0);
/// Registry contents inside each TLD zone (capped at 200 a zone).
pub(crate) const TLD_CONTENTS: f64 = 1.0 / 1_000.0;

/// One claim over a driver report of type `R`.
pub struct Claim<R: ?Sized> {
    /// Experiment number: the `E<id>` section the row is printed in.
    pub id: u8,
    /// What is claimed.
    pub label: &'static str,
    /// The RFC 9276 item the row measures, where it measures one.
    pub item: Option<u8>,
    /// The value as published.
    pub paper: Paper,
    /// The measured value.
    pub measure: fn(&R) -> Value,
}

/// One evaluated claim: a line of a report table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Experiment number.
    pub id: u8,
    /// What is claimed.
    pub label: &'static str,
    /// The RFC 9276 item measured, if one.
    pub item: Option<u8>,
    /// The Paper, Measured and Held-to cells.
    pub cells: [String; 3],
    /// Whether the measured value held.
    pub ok: bool,
}

/// Evaluate every claim of `claims` against `report`.
pub fn rows<R: ?Sized>(claims: &[Claim<R>], report: &R, at: At) -> Vec<Row> {
    let evaluate = |claim: &Claim<R>| {
        let measured = (claim.measure)(report);
        // Text is only ever compared for equality: NaN fails every bound.
        let m = measured.number().unwrap_or(f64::NAN);
        let bound = |v: &Value| {
            v.number()
                .expect("a bound or a tolerance is about a number")
        };
        let (paper, held_to, ok) = match &claim.paper {
            Is(v, tol) => match tol[at as usize] {
                0.0 => (v.to_string(), "exact".to_string(), measured == *v),
                tol => {
                    let held_to = format!("± {}", v.with(tol));
                    (v.to_string(), held_to, (m - bound(v)).abs() <= tol)
                }
            },
            AtLeast(v) => (format!("≥ {v}"), format!("≥ {v}"), m >= bound(v)),
            Below(v, slack) => {
                let slack = slack[at as usize];
                let held_to = format!("< {v} + {} (sampled)", v.with(slack));
                (format!("< {v}"), held_to, m < bound(v) + slack)
            }
            Words(words, ours) => {
                let (held_to, ok) = match *ours {
                    Min(x) => (format!("≥ {}", measured.with(x)), m >= x),
                    Max(x) => (format!("< {}", measured.with(x)), m < x),
                    Exactly(x) => (format!("= {}", measured.with(x)), m == x),
                };
                (words.to_string(), held_to, ok)
            }
        };
        Row {
            id: claim.id,
            label: claim.label,
            item: claim.item,
            cells: [paper, measured.to_string(), held_to],
            ok,
        }
    };
    claims.iter().map(evaluate).collect()
}

/// Samples at exactly `x`.
fn exactly_at(cdf: &Cdf, x: u32) -> u64 {
    (cdf.count_over(x - 1) - cdf.count_over(x)) as u64
}

/// Table 2 off the census: the ten largest exclusive operators.
pub(crate) fn table2(census: &StreamCensusReport) -> Vec<OperatorRow> {
    operator_table(&census.stats, 10)
}

/// An operator's parameter sets as Table 2 lists them (those at or above
/// 0.05 % of its domains), largest first.
fn parameter_sets(row: Option<&OperatorRow>) -> Value {
    let listed = row.iter().flat_map(|row| &row.params);
    let listed = listed.filter(|(_, _, share)| *share >= 0.05);
    let sets: Vec<String> = listed.map(|(it, salt, _)| format!("{it}/{salt}")).collect();
    Text(sets.join(", ").into())
}

/// §5.1 registered domains — Figure 1, Table 2 and the headline shares —
/// over the streaming census: every zone instantiated, signed and
/// scanned through a validating resolver.
pub static CENSUS: &[Claim<StreamCensusReport>] = &[
    Claim {
        id: 1,
        label: "NSEC3-enabled domains at ≤ 25 additional iterations",
        item: Some(2),
        paper: Is(Pct(99.9), [0.4, 0.6]),
        measure: |c| Pct(c.stats.iterations_cdf.fraction_at_most(25) * 100.0),
    },
    Claim {
        id: 1,
        label: "domains at exactly 500 iterations (the maximum)",
        item: Some(2),
        paper: Is(Count(12), EXACT),
        measure: |c| Count(exactly_at(&c.stats.iterations_cdf, 500)),
    },
    Claim {
        id: 1,
        label: "salts of at most 10 bytes",
        item: Some(3),
        paper: Is(Pct(97.2), [0.8, 1.8]),
        measure: |c| Pct(c.stats.salt_cdf.fraction_at_most(10) * 100.0),
    },
    Claim {
        id: 1,
        label: "salts of exactly 160 bytes (the maximum, one operator)",
        item: Some(3),
        paper: Is(Count(9), EXACT),
        measure: |c| Count(exactly_at(&c.stats.salt_cdf, 160)),
    },
    Claim {
        id: 5,
        label: "top-10 operators' exclusive share of NSEC3-enabled domains",
        item: None,
        paper: Is(Pct(77.7), [1.2, 2.2]),
        measure: |c| Pct(table2(c).iter().map(|row| row.share_pct).sum()),
    },
    Claim {
        id: 5,
        label: "largest operator's share (Squarespace)",
        item: None,
        paper: Is(Pct(39.4), [0.7, 1.2]),
        measure: |c| Pct(table2(c).first().map_or(0.0, |row| row.share_pct)),
    },
    Claim {
        id: 5,
        label: "its parameter set (iterations/salt bytes)",
        item: None,
        paper: Is(Text(Cow::Borrowed("1/8")), EXACT),
        measure: |c| parameter_sets(table2(c).first()),
    },
    Claim {
        id: 5,
        label: "second operator's parameter sets (one.com)",
        item: None,
        paper: Is(Text(Cow::Borrowed("5/5, 5/4, 1/2, 1/4")), EXACT),
        measure: |c| parameter_sets(table2(c).get(1)),
    },
    Claim {
        id: 6,
        label: "DNSSEC-enabled, of registered domains",
        item: None,
        paper: Is(Pct(8.8), [0.2, 0.3]),
        measure: |c| Pct(c.stats.dnssec_pct()),
    },
    Claim {
        id: 6,
        label: "NSEC3-enabled, of DNSSEC-enabled",
        item: Some(1),
        paper: Is(Pct(58.9), [0.4, 0.2]),
        measure: |c| Pct(c.stats.nsec3_of_dnssec_pct()),
    },
    Claim {
        id: 6,
        label: "non-compliant with RFC 9276 item 2 (the headline)",
        item: Some(2),
        paper: Is(Pct(87.8), [0.3, 0.5]),
        measure: |c| Pct(c.stats.non_compliant_pct()),
    },
    Claim {
        id: 6,
        label: "zero additional iterations (Figure 1 at 0)",
        item: Some(2),
        paper: Is(Pct(12.2), [0.3, 0.5]),
        measure: |c| Pct(c.stats.zero_iteration_pct()),
    },
    Claim {
        id: 6,
        label: "no salt (Figure 1 at 0 bytes)",
        item: Some(3),
        paper: Is(Pct(8.6), [0.3, 0.4]),
        measure: |c| Pct(c.stats.no_salt_pct()),
    },
    Claim {
        id: 6,
        label: "opt-out flag set (sampled per domain)",
        item: Some(4),
        paper: Is(Pct(6.4), [0.7, 0.9]),
        measure: |c| Pct(c.stats.opt_out_pct()),
    },
    Claim {
        id: 6,
        label: "domains with more than 150 iterations",
        item: Some(2),
        paper: Is(Count(43), EXACT),
        measure: |c| Count(c.stats.iterations_cdf.count_over(150) as u64),
    },
    Claim {
        id: 6,
        label: "maximum iterations observed",
        item: Some(2),
        paper: Is(Count(500), EXACT),
        measure: |c| Count(c.stats.iterations_cdf.max().unwrap_or(0).into()),
    },
    Claim {
        id: 6,
        label: "salts longer than 45 bytes",
        item: Some(3),
        paper: Is(Count(170), EXACT),
        measure: |c| Count(c.stats.salt_cdf.count_over(45) as u64),
    },
    Claim {
        id: 6,
        label: "zones the scan lost (`DomainStats::lost`)",
        item: None,
        paper: Words("—", Exactly(0.0)),
        measure: |c| Count(c.stats.lost),
    },
    Claim {
        id: 6,
        label: "probes unaccounted for (`ProbeStats::is_consistent`)",
        item: None,
        paper: Words("—", Exactly(0.0)),
        measure: |c| {
            let p = &c.probe_stats;
            Count(
                p.sent
                    .abs_diff(p.answered + p.timed_out + p.circuit_skipped),
            )
        },
    },
];

/// The TLD population as declared, as it would be after Identity
/// Digital's fix, and as the end-to-end TLD census observed it.
pub struct TldReport {
    /// `popgen::generate_tlds`: carries what no scan can see (the
    /// registry provider, the estimated registrations).
    pub declared: Vec<TldSpec>,
    /// The same population with the one provider's TLDs at 0 iterations.
    pub remediated: Vec<TldSpec>,
    /// What scanning and AXFR of every TLD zone returned.
    pub observed: Vec<TldObservation>,
}

impl TldReport {
    /// Stand all 1,449 TLDs up as signed zones, registry contents scaled
    /// by `TLD_CONTENTS`, and scan them.
    pub fn run(cfg: &DriverConfig) -> TldReport {
        let declared = generate_tlds();
        TldReport {
            observed: run_tld_census_cfg(&declared, TLD_CONTENTS, cfg).0,
            remediated: generate_tlds_after_remediation(),
            declared,
        }
    }

    /// Observed TLDs whose NSEC3 parameters satisfy `keep`.
    fn nsec3_where(&self, keep: impl Fn(u16, u8) -> bool) -> u64 {
        let matching = self.observed.iter().filter_map(|t| t.nsec3);
        matching.filter(|&(it, salt)| keep(it, salt)).count() as u64
    }
}

/// `(DNSSEC, NSEC3 parameters, opt-out)` as a scan would see `dnssec`.
fn as_scanned(dnssec: &DnssecKind) -> (bool, Option<(u16, u8)>, bool) {
    match *dnssec {
        DnssecKind::None => (false, None, false),
        DnssecKind::Nsec => (true, None, false),
        DnssecKind::Nsec3 {
            iterations,
            salt_len,
            opt_out,
        } => (true, Some((iterations, salt_len)), opt_out),
    }
}

/// §5.1 TLDs: exact at every scale, and measured by the scan, not read
/// back from the generator, wherever a scan can see the value.
pub static TLDS: &[Claim<TldReport>] = &[
    Claim {
        id: 7,
        label: "delegated TLDs scanned",
        item: None,
        paper: Is(Count(1_449), EXACT),
        measure: |t| Count(t.observed.len() as u64),
    },
    Claim {
        id: 7,
        label: "DNSSEC-enabled TLDs",
        item: None,
        paper: Is(Count(1_354), EXACT),
        measure: |t| Count(t.observed.iter().filter(|o| o.dnssec).count() as u64),
    },
    Claim {
        id: 7,
        label: "NSEC3-enabled TLDs",
        item: Some(1),
        paper: Is(Count(1_302), EXACT),
        measure: |t| Count(t.nsec3_where(|_, _| true)),
    },
    Claim {
        id: 7,
        label: "TLDs with zero iterations (the other 47.2 % are non-compliant)",
        item: Some(2),
        paper: Is(Count(688), EXACT),
        measure: |t| Count(t.nsec3_where(|it, _| it == 0)),
    },
    Claim {
        id: 7,
        label: "TLDs with 100 iterations (one registry provider)",
        item: Some(2),
        paper: Is(Count(447), EXACT),
        measure: |t| Count(t.nsec3_where(|it, _| it == 100)),
    },
    Claim {
        id: 7,
        label: "TLDs without salt",
        item: Some(3),
        paper: Is(Count(672), EXACT),
        measure: |t| Count(t.nsec3_where(|_, salt| salt == 0)),
    },
    Claim {
        id: 7,
        label: "TLDs with an 8-byte salt",
        item: Some(3),
        paper: Is(Count(558), EXACT),
        measure: |t| Count(t.nsec3_where(|_, salt| salt == 8)),
    },
    Claim {
        id: 7,
        label: "TLDs with a 10-byte salt (the maximum)",
        item: Some(3),
        paper: Is(Count(7), EXACT),
        measure: |t| Count(t.nsec3_where(|_, salt| salt == 10)),
    },
    Claim {
        id: 7,
        label: "opt-out among NSEC3-enabled TLDs",
        item: Some(5),
        paper: Is(Pct(85.4), [0.1, 0.1]),
        measure: |t| {
            let opt_out = t.observed.iter().filter(|o| o.nsec3.is_some() && o.opt_out);
            Pct(pct(opt_out.count() as u64, t.nsec3_where(|_, _| true)))
        },
    },
    Claim {
        id: 7,
        label: "domains registered under the 447 TLDs (declared estimate)",
        item: None,
        paper: AtLeast(Count(12_600_000)),
        measure: |t| {
            let provider = t.declared.iter().filter(|d| d.registry_provider.is_some());
            Count(provider.map(|d| d.est_domains).sum())
        },
    },
    Claim {
        id: 7,
        label: "compliant TLDs once that one provider moved to 0 iterations (declared)",
        item: Some(2),
        paper: Is(Pct(87.2), [0.1, 0.1]),
        measure: |t| {
            let nsec3 = t.remediated.iter().filter_map(|d| as_scanned(&d.dnssec).1);
            let (zero, all) = nsec3.fold((0, 0), |(z, n), (it, _)| (z + u64::from(it == 0), n + 1));
            Pct(pct(zero, all))
        },
    },
    Claim {
        id: 14,
        label: "TLDs whose scanned parameters differ from the declared ones",
        item: None,
        paper: Words("—", Exactly(0.0)),
        measure: |t| {
            let declared = t.declared.iter().map(|d| as_scanned(&d.dnssec));
            let observed = t.observed.iter().map(|o| (o.dnssec, o.nsec3, o.opt_out));
            Count(declared.zip(observed).filter(|(d, o)| d != o).count() as u64)
        },
    },
    Claim {
        id: 14,
        label: "TLD zones retrievable by AXFR (the CZDS substitute)",
        item: None,
        paper: AtLeast(Count(1_105)),
        measure: |t| Count(t.observed.iter().filter(|o| o.axfr_ok).count() as u64),
    },
    Claim {
        id: 14,
        label: "domains counted in the transferred 100-iteration zones, scaled up",
        item: None,
        paper: Is(Count(12_600_000), [924_000.0, 924_000.0]),
        measure: |t| {
            let at_100 = t
                .observed
                .iter()
                .filter(|o| o.nsec3.is_some_and(|p| p.0 == 100));
            let counted: u64 = at_100.filter_map(|o| o.delegations).sum();
            Count((counted as f64 / TLD_CONTENTS).round() as u64)
        },
    },
];

/// Figure 2 folded off the Tranco list.
pub struct TrancoStats {
    /// DNSSEC-enabled entries.
    pub dnssec: u64,
    /// `(rank in units of 10 K, iterations, salt length)` of each
    /// NSEC3-enabled entry; 10 K so the CDF's `u32` samples stay small.
    nsec3: Vec<(u32, u16, u8)>,
    /// The list's last 10 K-rank bucket: the x-axis maximum.
    pub max_bucket: u32,
}

impl TrancoStats {
    /// Fold the list.
    pub fn compute(list: &[TrancoEntry]) -> TrancoStats {
        let bucket = |rank: u64| (rank / 10_000) as u32;
        let nsec3 = |e: &TrancoEntry| {
            let (_, params, _) = as_scanned(&e.dnssec);
            params.map(|(it, salt)| (bucket(e.rank), it, salt))
        };
        TrancoStats {
            dnssec: list.iter().filter(|e| e.dnssec != DnssecKind::None).count() as u64,
            nsec3: list.iter().filter_map(nsec3).collect(),
            max_bucket: bucket(list.len() as u64),
        }
    }

    /// The rank CDF of the NSEC3-enabled entries `keep` holds for.
    pub(crate) fn ranks(&self, keep: fn(u16, u8) -> bool) -> Cdf {
        let kept = self.nsec3.iter().filter(|&&(_, it, salt)| keep(it, salt));
        Cdf::from_samples(kept.map(|&(rank, _, _)| rank))
    }

    /// Their share of the NSEC3-enabled entries.
    fn share(&self, keep: fn(u16, u8) -> bool) -> Value {
        let kept = self.nsec3.iter().filter(|&&(_, it, salt)| keep(it, salt));
        Pct(pct(kept.count() as u64, self.nsec3.len() as u64))
    }
}

/// Figure 2: the Tranco 1 M list, generated whole; every row is sampled.
pub static TRANCO: &[Claim<TrancoStats>] = &[
    Claim {
        id: 2,
        label: "DNSSEC-enabled entries",
        item: None,
        paper: Is(Count(66_600), [510.0, 510.0]),
        measure: |t| Count(t.dnssec),
    },
    Claim {
        id: 2,
        label: "NSEC3-enabled, of DNSSEC-enabled (27.2 K entries)",
        item: Some(1),
        paper: Is(Pct(40.8), [0.6, 0.6]),
        measure: |t| Pct(pct(t.nsec3.len() as u64, t.dnssec)),
    },
    Claim {
        id: 2,
        label: "zero iterations, of NSEC3-enabled",
        item: Some(2),
        paper: Is(Pct(22.8), [0.6, 0.6]),
        measure: |t| t.share(|it, _| it == 0),
    },
    Claim {
        id: 2,
        label: "no salt, of NSEC3-enabled",
        item: Some(3),
        paper: Is(Pct(23.6), [0.9, 0.9]),
        measure: |t| t.share(|_, salt| salt == 0),
    },
    Claim {
        id: 2,
        label: "compliant with both",
        item: None,
        paper: Is(Pct(12.7), [0.5, 0.5]),
        measure: |t| t.share(|it, salt| it == 0 && salt == 0),
    },
    Claim {
        id: 2,
        label: "KS distance of the zero-iteration ranks from uniform",
        item: Some(2),
        paper: Words("grows uniformly with rank", Max(0.05)),
        measure: |t| Num(ks_uniform(&t.ranks(|it, _| it == 0), t.max_bucket)),
    },
    Claim {
        id: 2,
        label: "KS distance of the saltless ranks from uniform",
        item: Some(3),
        paper: Words("grows uniformly with rank", Max(0.05)),
        measure: |t| Num(ks_uniform(&t.ranks(|_, salt| salt == 0), t.max_bucket)),
    },
];

/// The §4.2 resolver study folded for the tables.
pub struct ResolverReport {
    /// Statistics over all four pools.
    pub all: ResolverStats,
    /// Validators and the Figure 3 series, per pool.
    pub panels: BTreeMap<Panel, (u64, Vec<RcodeShares>)>,
}

impl ResolverReport {
    /// The tables' reading of a folded study.
    pub fn from_tally(tally: &ResolverTally) -> ResolverReport {
        let panel = |(&panel, (stats, figure3)): (&Panel, &(ResolverStats, Figure3Counts))| {
            (panel, (stats.validators, figure3.series()))
        };
        ResolverReport {
            all: tally.all(),
            panels: tally.per_panel.iter().map(panel).collect(),
        }
    }

    /// The open IPv4 panel of Figure 3 at iteration count `n`.
    fn open_v4(&self, n: u16) -> RcodeShares {
        let series = self.panels.get(&Panel::OpenV4).map(|(_, series)| series);
        let point = series.and_then(|s| s.iter().find(|p| p.n == n));
        // A count no validator answered at (a lossy network) reads as zero.
        point.copied().unwrap_or(RcodeShares {
            n,
            nxdomain: 0.0,
            ad_nxdomain: 0.0,
            servfail: 0.0,
        })
    }
}

/// §5.2: the fleet classified against the testbed by the §4.2 prober.
pub static RESOLVERS: &[Claim<ResolverReport>] = &[
    Claim {
        id: 3,
        label: "open IPv4: AD share lost at 100 → 101 (Google's limit)",
        item: Some(6),
        paper: Words("collapses at the vendor limits", Min(20.0)),
        measure: |r| Points(r.open_v4(100).ad_nxdomain - r.open_v4(101).ad_nxdomain),
    },
    Claim {
        id: 3,
        label: "open IPv4: AD share lost at 150 → 151 (BIND, Unbound, Knot, PowerDNS)",
        item: Some(6),
        paper: Words("collapses at the vendor limits", Min(20.0)),
        measure: |r| Points(r.open_v4(150).ad_nxdomain - r.open_v4(151).ad_nxdomain),
    },
    Claim {
        id: 3,
        label: "open IPv4: SERVFAIL share gained at 150 → 151",
        item: Some(8),
        paper: Words("jumps at 151 and stays high", Min(10.0)),
        measure: |r| Points(r.open_v4(151).servfail - r.open_v4(150).servfail),
    },
    Claim {
        id: 8,
        label: "validators limiting iterations at all",
        item: None,
        paper: Is(Pct(78.3), [0.2, 2.9]),
        measure: |r| Pct(r.all.limiting_pct()),
    },
    Claim {
        id: 8,
        label: "item 6: insecure response above a limit",
        item: Some(6),
        paper: Is(Pct(59.9), [0.6, 1.4]),
        measure: |r| Pct(r.all.item6_pct()),
    },
    Claim {
        id: 8,
        label: "item 8: SERVFAIL above a limit",
        item: Some(8),
        paper: Is(Pct(18.4), [0.6, 4.2]),
        measure: |r| Pct(r.all.item8_pct()),
    },
    Claim {
        id: 8,
        label: "validators with the insecure limit at 150, per validator at 50",
        item: Some(6),
        paper: Is(Times(12.5), [0.1, 1.6]),
        measure: |r| {
            let at = |limit| r.all.insecure_limits.get(&limit).copied().unwrap_or(0);
            Times(at(150) as f64 / at(50).max(1) as f64)
        },
    },
    Claim {
        id: 8,
        label: "SERVFAIL from it-1 on (query copiers; kept alive at any scale)",
        item: Some(8),
        paper: Words("418 resolvers", Min(1.0)),
        measure: |r| Count(r.all.servfail_starts.get(&1).copied().unwrap_or(0)),
    },
    Claim {
        id: 8,
        label: "SERVFAIL from it-101 on (Technitium; kept alive at any scale)",
        item: Some(8),
        paper: Words("92 resolvers", Min(1.0)),
        measure: |r| Count(r.all.servfail_starts.get(&101).copied().unwrap_or(0)),
    },
    Claim {
        id: 8,
        label: "validators that never set RA (the copiers' fingerprint)",
        item: None,
        paper: Words("RA only when the query set it", Min(1.0)),
        measure: |r| Count(r.all.ra_missing),
    },
    Claim {
        id: 9,
        label: "EDE 27 among limiting validators (sampled per resolver)",
        item: Some(10),
        paper: Below(Pct(18.0), [1.0, 1.2]),
        measure: |r| Pct(r.all.ede27_of_limiting_pct()),
    },
    Claim {
        id: 10,
        label: "item 7 violators, of insecure responders (kept alive at any scale)",
        item: Some(7),
        paper: Is(Pct(0.2), [0.4, 2.1]),
        measure: |r| Pct(r.all.item7_violation_pct()),
    },
    Claim {
        id: 11,
        label: "item 12 gap: insecure, then SERVFAIL from a higher count",
        item: Some(12),
        paper: Is(Pct(4.3), [0.2, 1.0]),
        measure: |r| Pct(r.all.item12_gap_pct()),
    },
    Claim {
        id: 13,
        label: "testbed subdomains, `it-2501-expired` aside",
        item: None,
        paper: Is(Count(49), EXACT),
        measure: |_| Count(paper_subdomain_count() as u64),
    },
];

/// The abstract's claim: 13.6 M of 15.5 M NSEC3-enabled domains fail
/// through a resolver that accepts no additional iteration.
pub(crate) static UNREACHABILITY: &[Claim<Unreachability>] = &[Claim {
    id: 15,
    label: "NSEC3-enabled domains unresolvable through a SERVFAIL-from-it-1 resolver",
    item: Some(8),
    paper: Is(Pct(87.8), [1.6, 1.6]),
    measure: |u| Pct(u.unreachable_pct()),
}];

/// `(iterations, salt bytes)` of the CVE-2023-50868 sweep: iterations at
/// no salt, then salt lengths at 150 iterations.
pub(crate) fn cve_points() -> Vec<(u16, u8)> {
    let unsalted = [0, 1, 10, 50, 100, 150, 500, 1000, 2500].map(|it| (it, 0));
    let salted = [8, 64, 128, 255].map(|salt| (150, salt));
    [&unsalted[..], &salted[..]].concat()
}

/// Compressions at one sweep point, as a multiple of another's.
fn cost_ratio(sweep: &[CvePoint], of: (u16, u8), over: (u16, u8)) -> Value {
    let at = |(it, salt)| {
        let point = sweep
            .iter()
            .find(|p| (p.iterations, p.salt_len) == (it, salt));
        point.map_or(0, |p| p.compressions)
    };
    Times(at(of) as f64 / at(over).max(1) as f64)
}

/// CVE-2023-50868: SHA-1 compressions an unlimited validator spends on
/// one NXDOMAIN. Gruza et al. measured CPU instructions on production
/// resolvers; the compression count is the same mechanism at the hash
/// layer, which is a super-linear share of the instruction count.
pub(crate) static CVE: &[Claim<[CvePoint]>] = &[
    Claim {
        id: 12,
        label: "compressions at it-2500 against it-0 (no salt)",
        item: Some(2),
        paper: Words("linear: iterations + 1 hashes a chain", Exactly(2501.0)),
        measure: |s| cost_ratio(s, (2500, 0), (0, 0)),
    },
    Claim {
        id: 12,
        label: "compressions with a 255-byte salt against none (it-150)",
        item: Some(3),
        paper: Words("one more block per 64 salt bytes", Exactly(5.0)),
        measure: |s| cost_ratio(s, (150, 255), (150, 0)),
    },
    Claim {
        id: 12,
        label: "it-150 with a 255-byte salt against RFC 9276's 0/0",
        item: None,
        paper: Words("up to 72× CPU instructions (Gruza et al.)", Min(72.0)),
        measure: |s| cost_ratio(s, (150, 255), (0, 0)),
    },
];

/// The adversarial driver run twice over the same attack zones.
pub struct Defense {
    /// `DefenseProfile::undefended`: no iteration limit, no budget.
    pub undefended: AdversarialReport,
    /// `DefenseProfile::defended`: SERVFAIL above 150 iterations plus
    /// `WorkBudget::hardened`.
    pub defended: AdversarialReport,
}

impl Defense {
    /// What the defence saves on `family`: the whole bill per query
    /// (budget-aborted spend included) undefended, per unit defended.
    fn saving(&self, family: AttackFamily) -> Value {
        let bill = |report: &AdversarialReport| report.family(family).total_work_units_per_query();
        Times(bill(&self.undefended) / bill(&self.defended).max(1.0))
    }
}

/// Extension: crafted denial-of-existence zones against a budgeted
/// validator, beside what the two attack papers measured undefended
/// (theirs are CPU instructions on production resolvers; neither figure
/// is reproduced).
pub(crate) static ADVERSARIAL: &[Claim<Defense>] = &[
    Claim {
        id: 18,
        label: "max-iterations (2,500 / 255 B): work per query undefended, per unit defended",
        item: Some(8),
        paper: Words("72× CPU instructions undefended (Gruza et al.)", Min(72.0)),
        measure: |d| d.saving(AttackFamily::MaxIterations),
    },
    Claim {
        id: 18,
        label: "deep-chain (150 iterations, under the clamp): the same ratio",
        item: None,
        paper: Words(
            "encloser walks multiply the hashing (Gruza et al.)",
            Min(1.2),
        ),
        measure: |d| d.saving(AttackFamily::DeepChain),
    },
    Claim {
        id: 18,
        label: "keytag-collision (compliant NSEC3, colliding DNSKEYs): the same ratio",
        item: None,
        paper: Words("2,000,000× CPU instructions undefended (KeyTrap)", Min(1.2)),
        measure: |d| d.saving(AttackFamily::KeytagCollision),
    },
];

/// Extension: a warm caching fleet under the browsing mix.
pub(crate) static SERVING: &[Claim<ServingTally>] = &[
    Claim {
        id: 19,
        label: "answer-cache hit ratio",
        item: None,
        paper: Words("—", Min(80.0)),
        measure: |t| Pct(t.answer_hit_ratio() * 100.0),
    },
    Claim {
        id: 19,
        label: "upstream messages per client query",
        item: None,
        paper: Words("—", Max(0.1)),
        measure: |t| Num(t.upstream_messages as f64 / t.queries.max(1) as f64),
    },
];

/// Share of a scenario's queries that ended in the verdict the scenario
/// should end in.
fn expected_verdict_pct(chain: &ChainReport, scenario: ChainScenario) -> f64 {
    let Some(t) = chain.per_scenario.get(scenario.key()) else {
        return 0.0;
    };
    let expected = match scenario {
        // An unsigned TLD resolves insecurely through a proven-absent DS.
        ChainScenario::Intact => t.secure + t.insecure,
        ChainScenario::MisAnchoredTld => t.bogus_anchor,
        ChainScenario::BrokenDs => t.bogus,
        ChainScenario::InsecureDelegation => t.insecure,
        ChainScenario::LameDelegation => t.lame,
    };
    pct(expected, t.queries)
}

/// Extension: iterative recursion over a root→TLD→leaf graph with a
/// fault injected at every third signed delegation.
pub(crate) static CHAIN: &[Claim<ChainReport>] = &[
    Claim {
        id: 20,
        label: "intact chains ending secure or (unsigned TLD) insecure",
        item: None,
        paper: Words("—", Exactly(100.0)),
        measure: |c| Pct(expected_verdict_pct(c, ChainScenario::Intact)),
    },
    Claim {
        id: 20,
        label: "faulted chains whose verdict names the injected fault, least of four",
        item: None,
        paper: Words("—", Exactly(100.0)),
        measure: |c| {
            let faulted = [
                ChainScenario::MisAnchoredTld,
                ChainScenario::BrokenDs,
                ChainScenario::InsecureDelegation,
                ChainScenario::LameDelegation,
            ];
            let shares = faulted.map(|scenario| expected_verdict_pct(c, scenario));
            Pct(shares.into_iter().fold(100.0, f64::min))
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// What a row over `paper` reads when `measured` percent is measured.
    fn row(paper: Paper, measured: f64, at: At) -> Row {
        let claim = Claim {
            id: 1,
            label: "x",
            item: None,
            paper,
            measure: |x: &f64| Pct(*x),
        };
        rows(&[claim], &measured, at).remove(0)
    }

    #[test]
    fn a_row_holds_exactly_when_it_is_within_what_it_is_held_to() {
        assert!(row(Is(Pct(50.0), [0.3, 0.5]), 50.3, At::Report).ok);
        assert!(!row(Is(Pct(50.0), [0.3, 0.5]), 50.4, At::Report).ok);
        assert!(row(Is(Pct(50.0), [0.3, 0.5]), 50.4, At::Test).ok);
        assert!(!row(Is(Pct(10.0), EXACT), 10.01, At::Report).ok);
        assert!(!row(Is(Text("10.0 %".into()), EXACT), 10.0, At::Report).ok);
        assert!(row(AtLeast(Pct(10.0)), 10.0, At::Report).ok);
        assert!(!row(AtLeast(Pct(10.0)), 9.9, At::Report).ok);
        assert!(!row(Below(Pct(18.0), [1.0, 3.4]), 19.0, At::Report).ok);
        assert!(row(Words("—", Exactly(0.0)), 0.0, At::Test).ok);
        assert!(!row(Words("—", Max(0.0)), 0.0, At::Test).ok);
    }

    #[test]
    fn cells_read_as_the_document_prints_them() {
        let sampled = row(Below(Pct(18.0), [1.0, 3.4]), 16.63, At::Report);
        let cells = ["< 18.0 %", "16.6 %", "< 18.0 % + 1.0 % (sampled)"];
        assert!(sampled.ok && sampled.cells == cells, "{sampled:?}");
        assert_eq!(Count(12_600_036).to_string(), "12,600,036");
        assert_eq!(Count(688).to_string(), "688");
    }
}
