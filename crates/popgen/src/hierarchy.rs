//! The signed root→TLD→leaf delegation graph the iterative recursor
//! walks — a deterministic, index-stable description of a miniature
//! Internet: which census TLDs are stood up, which chain-of-trust
//! scenario each delegation exercises, and which NSEC3 parameters every
//! leaf zone beneath them signs with.
//!
//! This module only *describes* the hierarchy (pure data, no network);
//! the `nsec3-core` testbed turns a [`HierarchyModel`] into live
//! authoritative nodes. Keeping description and stand-up separate is
//! what lets sharded drivers build per-TLD private labs from the same
//! model without coordination: `tld(i)` depends on nothing but the model
//! and `i`.

use sim_rng::SplitMix64;

use crate::domains::DnssecKind;
use crate::tlds::{generate_tlds, totals, TldSpec};

/// Chain-of-trust scenario applied to one TLD-level delegation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChainScenario {
    /// Chain intact: signed TLDs validate end-to-end, unsigned TLDs
    /// resolve insecurely through a proven-absent DS.
    Intact,
    /// The resolver carries a trust anchor for the TLD apex whose digest
    /// matches no served DNSKEY (anchor rot / hijacked-anchor study).
    MisAnchoredTld,
    /// The parent publishes a DS whose digest matches no child DNSKEY.
    BrokenDs,
    /// The parent publishes no DS although the child is signed (opt-out
    /// style insecure delegation).
    InsecureDelegation,
    /// NS and glue exist in the parent but no server answers at the glue
    /// addresses.
    LameDelegation,
}

impl ChainScenario {
    /// Stable report/bucket key.
    pub fn key(self) -> &'static str {
        match self {
            ChainScenario::Intact => "intact",
            ChainScenario::MisAnchoredTld => "mis_anchored_tld",
            ChainScenario::BrokenDs => "broken_ds",
            ChainScenario::InsecureDelegation => "insecure_delegation",
            ChainScenario::LameDelegation => "lame_delegation",
        }
    }
}

/// One leaf zone beneath a TLD.
#[derive(Clone, Debug)]
pub struct HierarchyLeaf {
    /// Fully qualified apex, e.g. `leaf00.tld0042.`.
    pub name: String,
    /// DNSSEC state drawn from the census-style leaf marginals.
    pub dnssec: DnssecKind,
}

/// One TLD-level delegation in the synthetic hierarchy.
#[derive(Clone, Debug)]
pub struct HierarchyTld {
    /// Index into the full 1,449-TLD census population this TLD was
    /// drawn from (strided, so small hierarchies mix NSEC3/NSEC/unsigned
    /// proportionally).
    pub census_index: usize,
    /// The census TLD at that index (name, denial parameters, opt-out).
    pub spec: TldSpec,
    /// The chain-of-trust scenario this delegation exercises.
    pub scenario: ChainScenario,
    /// Leaf zones delegated beneath the TLD.
    pub leaves: Vec<HierarchyLeaf>,
}

/// Model of the root→TLD→leaf graph: how many TLDs (strided out of the
/// 1,449), how many leaves under each, and how fault scenarios are
/// sprinkled over the signed delegations.
#[derive(Clone, Debug)]
pub struct HierarchyModel {
    /// TLD-level delegations to stand up (clamped to 1,449).
    pub tld_count: usize,
    /// Leaf zones under every TLD.
    pub leaves_per_tld: usize,
    /// Seed for the per-leaf parameter draws (never consulted for
    /// anything index-crossing, so generation shards freely).
    pub seed: u64,
    /// Every `fault_period`-th *signed* TLD cycles through the fault
    /// scenarios (every [`ChainScenario`] but `Intact`); `0` keeps every
    /// delegation intact. Unsigned TLDs always stay `Intact` — they are
    /// already the insecure arm by construction.
    pub fault_period: usize,
}

impl HierarchyModel {
    /// An all-intact hierarchy.
    pub fn intact(tld_count: usize, leaves_per_tld: usize, seed: u64) -> Self {
        HierarchyModel {
            tld_count,
            leaves_per_tld,
            seed,
            fault_period: 0,
        }
    }

    /// A hierarchy that cycles the fault scenarios over every
    /// `fault_period`-th signed TLD.
    pub fn with_faults(mut self, fault_period: usize) -> Self {
        self.fault_period = fault_period;
        self
    }
}

/// Deterministic generator over a [`HierarchyModel`]: `tld(i)` is a pure
/// function of the model, so shards can draw disjoint index ranges with
/// no shared state.
pub struct HierarchyGenerator {
    model: HierarchyModel,
    census: Vec<TldSpec>,
}

impl HierarchyGenerator {
    /// Build a generator (materializes the 1,449-entry census once).
    pub fn new(model: HierarchyModel) -> Self {
        HierarchyGenerator {
            model,
            census: generate_tlds(),
        }
    }

    /// Number of TLD-level delegations this hierarchy stands up.
    pub(crate) fn tld_count(&self) -> usize {
        self.model.tld_count.min(totals::TLDS as usize)
    }

    /// The census index the `i`-th hierarchy TLD is drawn from: a stride
    /// over the full population, so any `tld_count` keeps the census
    /// ordering (NSEC3 block, then NSEC, then unsigned) proportionally
    /// represented.
    pub(crate) fn census_index(&self, i: usize) -> usize {
        let count = self.tld_count().max(1);
        (i * totals::TLDS as usize) / count
    }

    /// The `i`-th TLD-level delegation (panics if `i >= tld_count()`).
    pub(crate) fn tld(&self, i: usize) -> HierarchyTld {
        assert!(i < self.tld_count(), "TLD index {i} out of range");
        let census_index = self.census_index(i);
        let spec = self.census[census_index].clone();
        let scenario = self.scenario_for(i, &spec);
        let leaves = (0..self.model.leaves_per_tld)
            .map(|leaf| self.leaf(census_index, &spec.name, leaf))
            .collect();
        HierarchyTld {
            census_index,
            spec,
            scenario,
            leaves,
        }
    }

    /// All TLDs, in index order (small hierarchies only; sharded drivers
    /// call [`HierarchyGenerator::tld`] per index instead).
    pub fn tlds(&self) -> Vec<HierarchyTld> {
        (0..self.tld_count()).map(|i| self.tld(i)).collect()
    }

    fn scenario_for(&self, i: usize, spec: &TldSpec) -> ChainScenario {
        let period = self.model.fault_period;
        if period == 0 || !i.is_multiple_of(period) || spec.dnssec == DnssecKind::None {
            return ChainScenario::Intact;
        }
        // Cycle through the four fault scenarios in ALL order.
        match (i / period) % 4 {
            0 => ChainScenario::MisAnchoredTld,
            1 => ChainScenario::BrokenDs,
            2 => ChainScenario::InsecureDelegation,
            _ => ChainScenario::LameDelegation,
        }
    }

    /// The `leaf`-th zone under the TLD at `census_index`. Parameters
    /// come from a census-style leaf marginal (dominated by low
    /// iteration counts and 0/8-byte salts, with the paper's 6.4 %
    /// opt-out rate), keyed by `(seed, census_index, leaf)` so the draw
    /// is index-stable regardless of how generation is sharded.
    fn leaf(&self, census_index: usize, tld_name: &str, leaf: usize) -> HierarchyLeaf {
        let mut rng = SplitMix64::new(
            self.model.seed
                ^ (census_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (leaf as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let name = format!("leaf{leaf:02}.{tld_name}");
        // 8.8 % of registered domains are DNSSEC-enabled in the census;
        // the hierarchy leans secure (50 %) because chain effects are
        // what it exists to measure — the census-faithful population
        // stays the business of `crate::domains`.
        let roll = rng.next_u64() % 100;
        let dnssec = if roll < 50 {
            let iterations = match rng.next_u64() % 100 {
                0..=59 => 0,
                60..=79 => 1,
                80..=89 => 5,
                90..=97 => 10,
                _ => 100,
            };
            let salt_len = match rng.next_u64() % 100 {
                0..=49 => 0,
                50..=89 => 8,
                _ => 4,
            };
            let opt_out = rng.next_u64() % 1000 < 64;
            DnssecKind::Nsec3 {
                iterations,
                salt_len,
                opt_out,
            }
        } else if roll < 60 {
            DnssecKind::Nsec
        } else {
            DnssecKind::None
        };
        HierarchyLeaf { name, dnssec }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_census_is_covered_in_order() {
        let g = HierarchyGenerator::new(HierarchyModel::intact(1_449, 0, 7));
        assert_eq!(g.tld_count(), 1_449);
        for i in [0usize, 1, 700, 1_448] {
            assert_eq!(g.census_index(i), i, "identity stride at full scale");
        }
    }

    #[test]
    fn stride_mixes_census_blocks() {
        // 32 TLDs out of 1,449 must still include NSEC (index ≥ 1302)
        // and unsigned (index ≥ 1354) census entries.
        let g = HierarchyGenerator::new(HierarchyModel::intact(32, 1, 7));
        let tlds = g.tlds();
        assert!(tlds
            .iter()
            .any(|t| matches!(t.spec.dnssec, DnssecKind::Nsec3 { .. })));
        assert!(tlds.iter().any(|t| t.spec.dnssec == DnssecKind::Nsec));
        assert!(tlds.iter().any(|t| t.spec.dnssec == DnssecKind::None));
        // Strictly increasing census indices: no TLD stood up twice.
        for w in tlds.windows(2) {
            assert!(w[0].census_index < w[1].census_index);
        }
    }

    #[test]
    fn generation_is_index_stable() {
        let g = HierarchyGenerator::new(HierarchyModel::intact(32, 3, 7).with_faults(4));
        let all = g.tlds();
        // Drawing any single index reproduces the same TLD bit-for-bit.
        for (i, tld) in all.iter().enumerate() {
            let redraw = g.tld(i);
            assert_eq!(format!("{tld:?}"), format!("{redraw:?}"));
        }
    }

    #[test]
    fn faults_cycle_and_skip_unsigned() {
        let g = HierarchyGenerator::new(HierarchyModel::intact(64, 1, 7).with_faults(3));
        let tlds = g.tlds();
        let mut seen = std::collections::BTreeSet::new();
        for t in &tlds {
            if t.scenario != ChainScenario::Intact {
                assert_ne!(t.spec.dnssec, DnssecKind::None, "faults only on signed");
                seen.insert(t.scenario);
            }
        }
        assert_eq!(seen.len(), 4, "all four fault scenarios appear: {seen:?}");
    }

    #[test]
    fn leaves_have_census_flavored_params() {
        let g = HierarchyGenerator::new(HierarchyModel::intact(64, 4, 7));
        let leaves: Vec<_> = g.tlds().into_iter().flat_map(|t| t.leaves).collect();
        assert_eq!(leaves.len(), 256);
        let nsec3 = leaves
            .iter()
            .filter(|l| matches!(l.dnssec, DnssecKind::Nsec3 { .. }))
            .count();
        // ~50 % signed with NSEC3 by construction.
        assert!((64..192).contains(&nsec3), "{nsec3}");
        assert!(leaves.iter().all(|l| match l.dnssec {
            DnssecKind::Nsec3 { iterations, .. } => iterations <= 100,
            _ => true,
        }));
    }
}
