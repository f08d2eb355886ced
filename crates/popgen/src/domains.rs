//! The registered-domain population, calibrated to §5.1 of the paper:
//!
//! * 302 M registered domains, 26.6 M (8.8 %) DNSSEC-enabled,
//!   15.5 M (58.3 % of DNSSEC) NSEC3-enabled;
//! * operator structure per Table 2 (the top-10 operators exclusively
//!   serve 77.7 % of NSEC3-enabled domains, each with its parameter mix);
//! * iteration/salt marginals per Figure 1 (12.2 % zero iterations,
//!   99.9 % ≤ 25, 8.6 % no salt, 97.2 % ≤ 10-byte salt);
//! * absolute long-tail outliers (43 domains > 150 iterations of which 12
//!   at 500; 170 salts > 45 bytes of which 9 at 160 bytes from a single
//!   operator).

use sim_rng::{Permutation, Rng, SplitMix64, Xoshiro256pp};

use crate::scale::{allocate, Scale};

/// Denial configuration of one registered domain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DnssecKind {
    /// No DNSKEY records.
    None,
    /// Signed with NSEC denial.
    Nsec,
    /// Signed with NSEC3 denial.
    Nsec3 {
        /// Additional iterations.
        iterations: u16,
        /// Salt length in bytes (contents are irrelevant to the analysis).
        salt_len: u8,
        /// Opt-out flag set on its NSEC3 records.
        opt_out: bool,
    },
}

/// One registered domain.
#[derive(Clone, Debug)]
pub struct DomainSpec {
    /// Fully qualified name (e.g. `d123456.com.`).
    pub name: String,
    /// The exclusive NS operator's registered domain (e.g.
    /// `squarespacedns.example.`), or `None` for multi-operator setups.
    pub operator: Option<&'static str>,
    /// DNSSEC state.
    pub dnssec: DnssecKind,
}

impl DomainSpec {
    /// Is the domain NSEC3-enabled?
    pub fn nsec3(&self) -> Option<(u16, u8, bool)> {
        match self.dnssec {
            DnssecKind::Nsec3 {
                iterations,
                salt_len,
                opt_out,
            } => Some((iterations, salt_len, opt_out)),
            _ => None,
        }
    }
}

/// One operator's parameter mix: `(iterations, salt bytes, weight)`.
pub(crate) type ParamMix = &'static [(u16, u8, f64)];

/// Table 2: `(operator registered-domain, display name, share % of
/// NSEC3-enabled domains, parameter mix)`.
pub(crate) const TABLE2_OPERATORS: &[(&str, &str, f64, ParamMix)] = &[
    (
        "squarespacedns.example.",
        "Squarespace",
        39.4,
        &[(1, 8, 1.0)],
    ),
    (
        "onecom-dns.example.",
        "one.com",
        9.5,
        &[(5, 5, 0.40), (5, 4, 0.30), (1, 2, 0.15), (1, 4, 0.15)],
    ),
    ("ovhcloud-dns.example.", "OVHcloud", 8.4, &[(8, 8, 1.0)]),
    ("wix-dns.example.", "Wix.com", 5.0, &[(1, 8, 1.0)]),
    // TransIP: 0.3 % stragglers still on the pre-2021 value of 100.
    (
        "transip-dns.example.",
        "TransIP",
        4.2,
        &[(0, 8, 0.997), (100, 8, 0.003)],
    ),
    ("loopia-dns.example.", "Loopia", 3.6, &[(1, 1, 1.0)]),
    (
        "domainnameshop-dns.example.",
        "domainname.shop",
        2.7,
        &[(0, 0, 1.0)],
    ),
    ("timeweb-dns.example.", "TimeWeb", 2.1, &[(3, 0, 1.0)]),
    (
        "hostnet-dns.example.",
        "Hostnet",
        1.5,
        &[(1, 4, 0.5), (0, 0, 0.5)],
    ),
    ("hostpoint-dns.example.", "Hostpoint", 1.3, &[(1, 40, 1.0)]),
];

/// The non-top-10 remainder (22.3 % of NSEC3-enabled domains): a mix
/// calibrated so the *aggregate* marginals reproduce Figure 1
/// (12.2 % iterations = 0, 99.9 % ≤ 25; 8.6 % no salt, 97.2 % ≤ 10 B).
const OTHER_MIX: &[(u16, u8, f64)] = &[
    (0, 0, 0.13),
    (0, 8, 0.075),
    (1, 0, 0.007),
    (1, 8, 0.35),
    (1, 16, 0.05),
    (2, 8, 0.05),
    (5, 8, 0.08),
    (10, 4, 0.08),
    (12, 8, 0.06),
    (15, 2, 0.04),
    (20, 8, 0.03),
    (25, 10, 0.047),
    (50, 8, 0.0005),
    (100, 8, 0.0003),
    (150, 12, 0.0002),
];

/// Absolute long-tail outliers (injected unscaled; see DESIGN.md §5):
/// `(iterations, salt_len, count, operator)`.
const ITERATION_TAIL: &[(u16, u8, u64)] = &[
    (200, 8, 10),
    (300, 8, 10),
    (400, 8, 11),
    (500, 8, 12), // the twelve record holders
];

/// Salt long tail: 170 domains over 45 bytes, 9 of them at 160 bytes from
/// one operator.
const SALT_TAIL: &[(u16, u8, u64)] = &[
    (1, 46, 80),
    (1, 64, 50),
    (1, 100, 31),
    (1, 160, 9), // single-operator record holders
];

/// Operator name for the 160-byte-salt domains (one operator serves all 9).
pub(crate) const SALTY_OPERATOR: &str = "salty-dns.example.";
/// Operator for the >150-iteration stragglers.
pub const TAIL_OPERATOR: &str = "iteration-tail-dns.example.";

/// Paper §5.1 totals.
pub(crate) mod totals {
    /// Registered domains analyzed.
    pub(crate) const REGISTERED: u64 = 302_000_000;
    /// DNSSEC-enabled (8.8 %).
    pub(crate) const DNSSEC: u64 = 26_600_000;
    /// NSEC3-enabled.
    pub(crate) const NSEC3: u64 = 15_500_000;
    /// Share of NSEC3-enabled domains with the opt-out flag (6.4 %).
    pub(crate) const OPT_OUT_PCT: f64 = 6.4;
}

/// TLD labels domains are spread over (cosmetic).
const TLD_MIX: &[(&str, f64)] = &[
    ("com", 45.0),
    ("net", 10.0),
    ("org", 8.0),
    ("de", 7.0),
    ("nl", 5.0),
    ("se", 4.0),
    ("ch", 3.0),
    ("fr", 3.0),
    ("uk", 3.0),
    ("info", 2.0),
    ("xyz", 10.0),
];

/// Per-domain denial template shared by every member of a [`Block`].
#[derive(Clone, Copy, Debug)]
enum Template {
    Plain,
    Nsec,
    Nsec3 {
        iterations: u16,
        salt_len: u8,
        /// Mix-block domains draw the opt-out flag per domain at the
        /// paper's 6.4 % rate; tail-block domains never set it.
        random_opt_out: bool,
    },
}

/// A contiguous run of identically configured domains in canonical
/// (pre-permutation) index order.
#[derive(Clone, Copy, Debug)]
struct Block {
    count: u64,
    operator: Option<&'static str>,
    template: Template,
}

/// The population layout at one scale: every block with its canonical
/// start index. Marginals live entirely here — generation only reads it
/// — so the shard-stable path and the legacy full-list path cannot
/// disagree on counts.
struct Layout {
    blocks: Vec<Block>,
    /// `starts[i]` = canonical index of the first domain in `blocks[i]`.
    starts: Vec<u64>,
    total: u64,
}

impl Layout {
    fn new(scale: Scale) -> Self {
        let total = scale.apply(totals::REGISTERED);
        let dnssec = scale.apply(totals::DNSSEC).min(total);
        let nsec3_bulk = scale.apply(totals::NSEC3).min(dnssec);
        let nsec = dnssec - nsec3_bulk;
        let plain = total - dnssec;

        let mut blocks = Vec::new();
        blocks.push(Block {
            count: plain,
            operator: None,
            template: Template::Plain,
        });
        blocks.push(Block {
            count: nsec,
            operator: None,
            template: Template::Nsec,
        });

        // NSEC3-enabled: operator-structured per Table 2.
        let mut op_weights: Vec<f64> = TABLE2_OPERATORS.iter().map(|(_, _, w, _)| *w).collect();
        op_weights.push(22.3); // "other"
        let op_counts = allocate(nsec3_bulk, &op_weights);
        for (op_idx, &count) in op_counts.iter().enumerate() {
            let (operator, mix): (Option<&'static str>, &[(u16, u8, f64)]) =
                if op_idx < TABLE2_OPERATORS.len() {
                    let (domain, _, _, mix) = TABLE2_OPERATORS[op_idx];
                    (Some(domain), mix)
                } else {
                    (None, OTHER_MIX)
                };
            let mix_weights: Vec<f64> = mix.iter().map(|(_, _, w)| *w).collect();
            let mix_counts = allocate(count, &mix_weights);
            for (m_idx, &m_count) in mix_counts.iter().enumerate() {
                let (iterations, salt_len, _) = mix[m_idx];
                blocks.push(Block {
                    count: m_count,
                    operator,
                    template: Template::Nsec3 {
                        iterations,
                        salt_len,
                        random_opt_out: true,
                    },
                });
            }
        }

        // Absolute long tails (unscaled; see DESIGN.md §5).
        for &(iterations, salt_len, count) in ITERATION_TAIL {
            blocks.push(Block {
                count,
                operator: Some(TAIL_OPERATOR),
                template: Template::Nsec3 {
                    iterations,
                    salt_len,
                    random_opt_out: false,
                },
            });
        }
        for &(iterations, salt_len, count) in SALT_TAIL {
            blocks.push(Block {
                count,
                operator: if salt_len == 160 {
                    Some(SALTY_OPERATOR)
                } else {
                    None
                },
                template: Template::Nsec3 {
                    iterations,
                    salt_len,
                    random_opt_out: false,
                },
            });
        }

        // Zero-count blocks (tiny scales) would break `locate`'s
        // partition-point arithmetic: drop them.
        blocks.retain(|b| b.count > 0);
        let mut starts = Vec::with_capacity(blocks.len());
        let mut acc = 0u64;
        for b in &blocks {
            starts.push(acc);
            acc += b.count;
        }
        Layout {
            blocks,
            starts,
            total: acc,
        }
    }

    /// The block containing canonical index `j`. O(log blocks).
    fn locate(&self, j: u64) -> &Block {
        debug_assert!(j < self.total);
        let idx = self.starts.partition_point(|&s| s <= j) - 1;
        &self.blocks[idx]
    }
}

/// Total population size at `scale`, tails included — the `len` that
/// `generate_domains_range` ranges over.
pub fn domain_count(scale: Scale) -> u64 {
    Layout::new(scale).total
}

/// Random-access handle over the whole population at one `(scale, seed)`
/// — the streaming census's view of §5.1's 302 M domains. Construction
/// builds only the block `Layout` (a few hundred entries) and the
/// keyed [`Permutation`]; [`DomainGenerator::get`] then materialises any
/// output position in O(1) with no state spanning positions, so a
/// million-domain scan holds exactly one `DomainSpec` at a time.
///
/// `get(i)` equals `generate_domains(scale, seed)[i]` by construction:
/// both paths go through this type.
pub struct DomainGenerator {
    layout: Layout,
    perm: Permutation,
    /// Per-domain RNG base, mixed with the canonical index per `get`.
    base: u64,
}

impl DomainGenerator {
    /// The population at `scale`, ordered by the keyed permutation for
    /// `seed`.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let layout = Layout::new(scale);
        let perm = Permutation::new(layout.total, SplitMix64::new(seed ^ 0x7e57_ab1e).next_u64());
        let base = SplitMix64::new(seed ^ 0xd05a1e5u64).next_u64();
        DomainGenerator { layout, perm, base }
    }

    /// Population size, tails included.
    #[allow(clippy::len_without_is_empty)] // nothing asks whether it is empty
    pub fn len(&self) -> u64 {
        self.layout.total
    }

    /// The domain at output position `i` — `perm.apply(i)` picks the
    /// canonical index, the layout supplies the template, and a private
    /// RNG seeded from `(seed, canonical index)` draws the cosmetic TLD
    /// and the opt-out flag.
    pub fn get(&self, i: u64) -> DomainSpec {
        assert!(
            i < self.layout.total,
            "index {i} exceeds population {}",
            self.layout.total
        );
        let j = self.perm.apply(i);
        let block = self.layout.locate(j);
        let mut rng = Xoshiro256pp::seed_from_u64(
            self.base
                .wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let pick: f64 = rng.gen_range(0.0..100.0);
        let mut acc = 0.0;
        let mut tld = TLD_MIX[0].0;
        for (t, w) in TLD_MIX {
            acc += w;
            if pick < acc {
                tld = t;
                break;
            }
        }
        let dnssec = match block.template {
            Template::Plain => DnssecKind::None,
            Template::Nsec => DnssecKind::Nsec,
            Template::Nsec3 {
                iterations,
                salt_len,
                random_opt_out,
            } => DnssecKind::Nsec3 {
                iterations,
                salt_len,
                opt_out: random_opt_out && rng.gen_bool(totals::OPT_OUT_PCT / 100.0),
            },
        };
        DomainSpec {
            name: format!("d{}.{tld}.", j + 1),
            operator: block.operator,
            dnssec,
        }
    }
}

/// Generate output positions `range` of the population at `scale` —
/// exactly the slice `generate_domains(scale, seed)[range]`, computed in
/// O(|range|) regardless of where the range starts.
///
/// A convenience over [`DomainGenerator`]; no state spans positions, so
/// any sharding of `0..domain_count(scale)` concatenates to the full
/// list.
pub(crate) fn generate_domains_range(
    scale: Scale,
    seed: u64,
    range: std::ops::Range<u64>,
) -> Vec<DomainSpec> {
    let gen = DomainGenerator::new(scale, seed);
    assert!(
        range.end <= gen.len(),
        "range {range:?} exceeds population {}",
        gen.len()
    );
    range.map(|i| gen.get(i)).collect()
}

/// Generate the registered-domain population at `scale`.
///
/// Deterministic for a given `(scale, seed)`. The output order is a
/// keyed permutation of the block layout, so consumers can take prefixes
/// as unbiased samples — and any contiguous slice can be regenerated
/// independently with `generate_domains_range`.
pub fn generate_domains(scale: Scale, seed: u64) -> Vec<DomainSpec> {
    let total = domain_count(scale);
    generate_domains_range(scale, seed, 0..total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop() -> Vec<DomainSpec> {
        // Bench scale: large enough that the absolute tail injections
        // (~213 domains) do not distort the percentage marginals.
        generate_domains(Scale(1.0 / 1_000.0), 7)
    }

    #[test]
    fn totals_scale() {
        let p = pop();
        // 302M / 1k = 302K bulk + ~213 tail outliers.
        assert!(
            (301_500..303_000).contains(&(p.len() as u64)),
            "{}",
            p.len()
        );
        let dnssec = p.iter().filter(|d| d.dnssec != DnssecKind::None).count() as f64;
        let pct = dnssec / p.len() as f64 * 100.0;
        assert!((8.0..10.5).contains(&pct), "DNSSEC share {pct}");
    }

    #[test]
    fn nsec3_share_of_dnssec() {
        let p = pop();
        let dnssec = p.iter().filter(|d| d.dnssec != DnssecKind::None).count() as f64;
        let nsec3 = p.iter().filter(|d| d.nsec3().is_some()).count() as f64;
        let pct = nsec3 / dnssec * 100.0;
        assert!((55.0..65.0).contains(&pct), "NSEC3 share of DNSSEC: {pct}");
    }

    #[test]
    fn zero_iteration_share_matches_figure1() {
        let p = pop();
        let nsec3: Vec<_> = p.iter().filter_map(|d| d.nsec3()).collect();
        let zero = nsec3.iter().filter(|(it, _, _)| *it == 0).count() as f64;
        let pct = zero / nsec3.len() as f64 * 100.0;
        assert!(
            (10.5..14.0).contains(&pct),
            "it=0 share {pct} (paper: 12.2)"
        );
    }

    #[test]
    fn no_salt_share_matches_figure1() {
        let p = pop();
        let nsec3: Vec<_> = p.iter().filter_map(|d| d.nsec3()).collect();
        let none = nsec3.iter().filter(|(_, s, _)| *s == 0).count() as f64;
        let pct = none / nsec3.len() as f64 * 100.0;
        assert!(
            (7.0..10.5).contains(&pct),
            "no-salt share {pct} (paper: 8.6)"
        );
    }

    #[test]
    fn tail_outliers_present_at_any_scale() {
        let p = generate_domains(Scale(1.0 / 100_000.0), 1);
        let at_500 = p
            .iter()
            .filter(|d| matches!(d.nsec3(), Some((500, _, _))))
            .count();
        assert_eq!(at_500, 12, "the twelve 500-iteration domains");
        let salt160 = p
            .iter()
            .filter(|d| matches!(d.nsec3(), Some((_, 160, _))))
            .collect::<Vec<_>>();
        assert_eq!(salt160.len(), 9);
        assert!(salt160.iter().all(|d| d.operator == Some(SALTY_OPERATOR)));
        let over_150 = p
            .iter()
            .filter(|d| matches!(d.nsec3(), Some((it, _, _)) if it > 150))
            .count();
        assert_eq!(over_150, 43, "43 domains above 150 iterations");
    }

    #[test]
    fn opt_out_rate() {
        let p = pop();
        let nsec3: Vec<_> = p.iter().filter_map(|d| d.nsec3()).collect();
        let oo = nsec3.iter().filter(|(_, _, o)| *o).count() as f64;
        let pct = oo / nsec3.len() as f64 * 100.0;
        assert!(
            (4.5..8.5).contains(&pct),
            "opt-out share {pct} (paper: 6.4)"
        );
    }

    #[test]
    fn squarespace_dominates() {
        let p = pop();
        let nsec3_total = p.iter().filter(|d| d.nsec3().is_some()).count() as f64;
        let sq = p
            .iter()
            .filter(|d| d.operator == Some("squarespacedns.example."))
            .count() as f64;
        let pct = sq / nsec3_total * 100.0;
        assert!(
            (37.0..41.0).contains(&pct),
            "Squarespace share {pct} (paper: 39.4)"
        );
        // Its parameters are 1/8.
        assert!(p
            .iter()
            .filter(|d| d.operator == Some("squarespacedns.example."))
            .all(|d| matches!(d.nsec3(), Some((1, 8, _)))));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate_domains(Scale(1.0 / 100_000.0), 5);
        let b = generate_domains(Scale(1.0 / 100_000.0), 5);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x.name == y.name));
    }

    #[test]
    fn different_seed_different_order() {
        let a = generate_domains(Scale(1.0 / 100_000.0), 5);
        let b = generate_domains(Scale(1.0 / 100_000.0), 6);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b.iter()).any(|(x, y)| x.name != y.name));
    }

    #[test]
    fn names_are_unique() {
        let p = generate_domains(Scale(1.0 / 10_000.0), 3);
        let mut names: Vec<&str> = p.iter().map(|d| d.name.as_str()).collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }

    #[test]
    fn range_generation_matches_full_list_slices() {
        let scale = Scale(1.0 / 100_000.0);
        let seed = 11;
        let total = domain_count(scale);
        let full = generate_domains(scale, seed);
        assert_eq!(full.len() as u64, total);
        // Arbitrary shard boundaries, including empty and whole-list.
        let cuts = [
            0..0,
            0..1,
            0..total / 3,
            total / 3..total / 2,
            total / 2..total,
            total - 1..total,
            0..total,
        ];
        for range in cuts {
            let part = generate_domains_range(scale, seed, range.clone());
            let expect = &full[range.start as usize..range.end as usize];
            assert_eq!(part.len(), expect.len(), "{range:?}");
            for (a, b) in part.iter().zip(expect) {
                assert_eq!(a.name, b.name, "{range:?}");
                assert_eq!(a.operator, b.operator, "{range:?}");
                assert_eq!(a.dnssec, b.dnssec, "{range:?}");
            }
        }
    }

    #[test]
    fn generator_random_access_matches_full_list() {
        let scale = Scale(1.0 / 100_000.0);
        let seed = 11;
        let full = generate_domains(scale, seed);
        let gen = DomainGenerator::new(scale, seed);
        assert_eq!(gen.len(), full.len() as u64);
        assert!(gen.len() > 0);
        // Arbitrary positions, including both ends — and out of order,
        // since random access must not depend on visit order.
        for i in [gen.len() - 1, 0, gen.len() / 2, 17, gen.len() / 3] {
            let d = gen.get(i);
            let e = &full[i as usize];
            assert_eq!(d.name, e.name, "position {i}");
            assert_eq!(d.operator, e.operator, "position {i}");
            assert_eq!(d.dnssec, e.dnssec, "position {i}");
        }
    }

    #[test]
    fn iterations_99_9_pct_at_most_25() {
        let p = pop();
        let nsec3: Vec<_> = p.iter().filter_map(|d| d.nsec3()).collect();
        let le25 = nsec3.iter().filter(|(it, _, _)| *it <= 25).count() as f64;
        let pct = le25 / nsec3.len() as f64 * 100.0;
        assert!(pct < 100.0);
        assert!(pct > 99.0, "≤25 iterations share {pct} (paper: 99.9)");
    }
}
