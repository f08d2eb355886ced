//! The chain-of-trust study: iterative recursion over the signed
//! root→TLD→leaf delegation graph.
//!
//! [`popgen::hierarchy`] describes the graph; this driver stands it up
//! ([`build_hierarchy`] for one full lab, or per-TLD private labs when
//! sharding) and walks it with resolvers whose multi-hop recursion runs
//! as a [`dns_resolver::Recursion`] on the event core — one upstream
//! exchange per step, parked between exchanges under the bounded
//! in-flight window. Each [`popgen::ChainScenario`] lands in its
//! own report bucket:
//!
//! | scenario | observable |
//! |---|---|
//! | intact (signed) | answers authenticated end-to-end |
//! | intact (unsigned TLD) | proven-insecure, resolves without AD |
//! | mis-anchored TLD | SERVFAIL + EDE "trust anchor mismatch" |
//! | broken DS | SERVFAIL + DNSSEC-bogus EDE |
//! | insecure delegation | resolves without AD despite a signed child |
//! | lame delegation | SERVFAIL, key fetch dead-ends (`DNSKEY_MISSING`) |

use std::collections::BTreeMap;

use dns_resolver::lab::{ds_record, simple_zone_contents, Lab, LabBuilder};
use dns_resolver::resolver::{RecursionStep, TrustAnchor};
use dns_scanner::retry::ProbeStats;
use dns_wire::edns::EdeCode;
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::rrtype::{Rcode, RrType};
use dns_zone::signer::SigningKey;
use dns_zone::Zone;
use netsim::event::FlowStep;
use popgen::hierarchy::{ChainScenario, HierarchyGenerator, HierarchyModel, HierarchyTld};

use crate::experiments::{zone_spec, DriverConfig};
use crate::study::{run_study, ShardRun};

/// The EDE text [`dns_resolver`] attaches to anchor-mismatch SERVFAILs —
/// the classification hook for the mis-anchored bucket.
const ANCHOR_MISMATCH_TEXT: &str = "trust anchor mismatch";

/// One chain study: which hierarchy, and how it is probed.
#[derive(Clone, Debug)]
pub struct ChainStudy {
    /// The delegation-graph model (TLD count, leaves, fault sprinkling).
    pub model: HierarchyModel,
    /// Also probe one non-existent name directly under every TLD, so
    /// the study exercises TLD-level denial (opt-out and all) alongside
    /// the leaf walks.
    pub probe_nxdomain: bool,
}

impl ChainStudy {
    /// A study over `model` probing every leaf plus a TLD-level miss.
    pub fn new(model: HierarchyModel) -> Self {
        ChainStudy {
            model,
            probe_nxdomain: true,
        }
    }
}

/// Per-scenario accounting. All counters are plain sums, so shard merges
/// are order-independent. The invariant
/// `queries == secure + insecure + bogus + bogus_anchor + lame + lost +
/// budget_exceeded` always holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainTally {
    /// Client queries issued.
    pub queries: u64,
    /// Authenticated verdicts (NOERROR or NXDOMAIN with AD).
    pub secure: u64,
    /// Unauthenticated verdicts (chain proven insecure somewhere).
    pub insecure: u64,
    /// Validation failures other than anchor mismatches (broken DS,
    /// bogus signatures, missing proofs).
    pub bogus: u64,
    /// Anchor-mismatch failures (the mis-anchored-TLD signal).
    pub bogus_anchor: u64,
    /// Walks that died at an unresponsive delegation without spending
    /// timeouts: no route to any glue address, so the child DNSKEY (or
    /// the answer itself) was never fetchable — the lame-delegation
    /// signature (SERVFAIL with `DNSKEY_MISSING` or no EDE at all).
    pub lame: u64,
    /// Queries lost to network faults (SERVFAIL that spent timeouts).
    pub lost: u64,
    /// Queries aborted by the per-query work budget.
    pub budget_exceeded: u64,
    /// Upstream messages the resolvers sent for these queries.
    pub upstream_messages: u64,
    /// Delegation-cache hits across the scenario's resolvers.
    pub delegation_hits: u64,
    /// Delegation-cache misses across the scenario's resolvers.
    pub delegation_misses: u64,
    /// Delegation-cache evictions across the scenario's resolvers.
    pub delegation_evictions: u64,
}

impl ChainTally {
    fn merge(&mut self, other: &ChainTally) {
        self.queries += other.queries;
        self.secure += other.secure;
        self.insecure += other.insecure;
        self.bogus += other.bogus;
        self.bogus_anchor += other.bogus_anchor;
        self.lame += other.lame;
        self.lost += other.lost;
        self.budget_exceeded += other.budget_exceeded;
        self.upstream_messages += other.upstream_messages;
        self.delegation_hits += other.delegation_hits;
        self.delegation_misses += other.delegation_misses;
        self.delegation_evictions += other.delegation_evictions;
    }
}

/// Result of a chain study: per-scenario tallies plus loss-accounted
/// probe traffic.
#[derive(Clone, Debug)]
pub struct ChainReport {
    /// Tallies keyed by [`ChainScenario::key`].
    pub per_scenario: BTreeMap<String, ChainTally>,
    /// Merged probe accounting across shards.
    pub probe_stats: ProbeStats,
}

impl ChainReport {
    /// The tally for `scenario` (zero tally if the hierarchy had none).
    #[allow(dead_code)] // `scenarios_classify_into_distinct_buckets`: unit tests only
    pub(crate) fn scenario(&self, scenario: ChainScenario) -> ChainTally {
        self.per_scenario
            .get(scenario.key())
            .copied()
            .unwrap_or_default()
    }

    /// Sum over every scenario bucket.
    pub fn total(&self) -> ChainTally {
        let mut t = ChainTally::default();
        for tally in self.per_scenario.values() {
            t.merge(tally);
        }
        t
    }
}

/// Queue one TLD and its leaves onto a lab builder, applying the TLD's
/// chain scenario (the mis-anchor scenario is resolver-side; see
/// [`mis_anchor`]).
fn add_tld_to_lab(mut builder: LabBuilder, tld: &HierarchyTld) -> LabBuilder {
    let apex = Name::parse(&tld.spec.name).expect("TLD apex parses");
    let mut zs = zone_spec(Zone::new(apex), &tld.spec.dnssec);
    match tld.scenario {
        ChainScenario::BrokenDs => zs.broken_ds = true,
        ChainScenario::InsecureDelegation => zs.unsigned_delegation = true,
        ChainScenario::LameDelegation => zs.lame = true,
        ChainScenario::Intact | ChainScenario::MisAnchoredTld => {}
    }
    builder = builder.zone(zs);
    for leaf in &tld.leaves {
        let leaf_apex = Name::parse(&leaf.name).expect("leaf apex parses");
        builder = builder.zone(zone_spec(simple_zone_contents(&leaf_apex), &leaf.dnssec));
    }
    builder
}

/// A deliberately wrong trust anchor for `apex`: the real KSK's key tag
/// with a corrupted digest, so the served DNSKEY set can never match —
/// the resolver-side half of [`ChainScenario::MisAnchoredTld`].
pub fn mis_anchor(apex: &Name) -> TrustAnchor {
    let ksk = SigningKey::ksk(apex);
    let RData::Ds {
        key_tag,
        mut digest,
        ..
    } = ds_record(apex, &ksk).rdata
    else {
        unreachable!("ds_record yields DS rdata");
    };
    digest[0] ^= 0xFF;
    TrustAnchor {
        zone: apex.clone(),
        key_tag,
        digest,
    }
}

/// The built hierarchy: one lab holding the root, every TLD delegation
/// and every leaf as distinct authoritative nodes on the simulated
/// network, plus the model's TLD descriptions for probing.
pub struct Hierarchy {
    /// The live lab (root hints, trust anchor, address allocator).
    pub lab: Lab,
    /// The TLD-level delegations stood up, in index order.
    pub tlds: Vec<HierarchyTld>,
}

/// Stand the whole root→TLD→leaf graph up in one lab (bench and
/// full-scale use; the sharded study builds per-TLD private labs
/// instead, so observations never depend on shard composition).
pub fn build_hierarchy(model: &HierarchyModel, now: u32, lab_seed: u64) -> Hierarchy {
    let generator = HierarchyGenerator::new(model.clone());
    let tlds = generator.tlds();
    let mut builder = LabBuilder::new(now).seed(lab_seed);
    for tld in &tlds {
        builder = add_tld_to_lab(builder, tld);
    }
    Hierarchy {
        lab: builder.build(),
        tlds,
    }
}

/// The probe list for one TLD: every leaf's `www` name, then (optionally)
/// a name that cannot exist directly under the TLD.
fn probes_for(tld: &HierarchyTld, probe_nxdomain: bool) -> Vec<Name> {
    let mut probes: Vec<Name> = tld
        .leaves
        .iter()
        .filter_map(|l| Name::parse(&format!("www.{}", l.name)).ok())
        .collect();
    if probe_nxdomain {
        if let Ok(n) = Name::parse(&format!("does-not-exist.{}", tld.spec.name)) {
            probes.push(n);
        }
    }
    probes
}

/// Run `study` under `cfg`. TLDs shard like every other driver; each TLD
/// gets its **own** private lab (root plus TLD plus leaves) and its own
/// resolver, so no observation depends on which TLDs share a shard and
/// every thread count produces identical tallies. Within a TLD, the
/// probes run as ONE multi-step flow that steps the resolver's
/// [`dns_resolver::Recursion`] through the event core — one upstream
/// exchange per event — so the walk itself is scheduled by the
/// bounded window, not hidden inside a blocking call.
pub fn run_chain_study_cfg(study: &ChainStudy, cfg: &DriverConfig) -> ChainReport {
    let tlds = HierarchyGenerator::new(study.model.clone()).tlds();
    let run = run_study(tlds.len(), cfg, |shard, range| {
        chain_shard(shard, &tlds[range], study)
    });
    let mut per_scenario: BTreeMap<String, ChainTally> = BTreeMap::new();
    for (key, tally) in run.parts.into_iter().flatten() {
        per_scenario.entry(key).or_default().merge(&tally);
    }
    ChainReport {
        per_scenario,
        probe_stats: run.probe_stats,
    }
}

/// One shard: every TLD in `slice`, each in a private lab with its own
/// recursing resolver.
fn chain_shard(
    shard: &ShardRun<'_>,
    slice: &[HierarchyTld],
    study: &ChainStudy,
) -> BTreeMap<String, ChainTally> {
    let mut tallies: BTreeMap<String, ChainTally> = BTreeMap::new();
    for tld in slice {
        let builder = LabBuilder::new(shard.cfg.now).seed(shard.seed);
        let mut lab = add_tld_to_lab(builder, tld).build();
        let resolver = shard.resolver(&mut lab, |rcfg| {
            rcfg.delegation_cache = true;
            if tld.scenario == ChainScenario::MisAnchoredTld {
                let apex = Name::parse(&tld.spec.name).expect("TLD apex parses");
                rcfg.trust_anchors.push(mis_anchor(&apex));
            }
        });
        let probes = probes_for(tld, study.probe_nxdomain);
        let tally = tallies.entry(tld.scenario.key().to_string()).or_default();
        let net = &lab.net;
        // One multi-step flow (next probe, its machine) walks the whole
        // probe list, one upstream exchange per event-core step. A single
        // flow per independent net makes window-invariance trivial while
        // still exercising the park/resume machinery of the scheduler.
        let mut walk = (!probes.is_empty()).then_some((0usize, None));
        shard.drive(
            net,
            || walk.take(),
            |(probe_idx, machine)| {
                let begin = || resolver.begin_recursion(net, &probes[*probe_idx], RrType::A);
                let step = machine.get_or_insert_with(begin).step(net);
                if let RecursionStep::Done(out) = step {
                    *machine = None;
                    *probe_idx += 1;
                    tally.queries += 1;
                    tally.upstream_messages += out.cost.messages_sent;
                    if shard.lost(&out) {
                        tally.lost += 1;
                    } else if out.budget_exceeded {
                        tally.budget_exceeded += 1;
                    } else if out.rcode != Rcode::ServFail {
                        if out.authenticated {
                            tally.secure += 1;
                        } else {
                            tally.insecure += 1;
                        }
                    } else {
                        match &out.ede {
                            Some((_, text)) if text.as_str() == ANCHOR_MISMATCH_TEXT => {
                                tally.bogus_anchor += 1
                            }
                            Some((code, _)) if *code != EdeCode::DNSKEY_MISSING => tally.bogus += 1,
                            _ => tally.lame += 1,
                        }
                    }
                    if *probe_idx >= probes.len() {
                        return FlowStep::Done;
                    }
                }
                FlowStep::Park {
                    at_micros: net.now_micros(),
                }
            },
        );
        tally.delegation_hits += resolver.delegation_hits();
        tally.delegation_misses += resolver.delegation_misses();
        tally.delegation_evictions += resolver.delegation_evictions();
    }
    tallies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_LAB_SEED;
    use dns_resolver::resolver::{Resolver, ResolverConfig};

    const NOW: u32 = 1_710_000_000;

    fn faulted_study() -> ChainStudy {
        // 24 TLDs, fault every 3rd signed one: all four fault scenarios
        // appear alongside intact signed and unsigned delegations.
        ChainStudy::new(HierarchyModel::intact(24, 2, 7).with_faults(3))
    }

    #[test]
    fn scenarios_classify_into_distinct_buckets() {
        let report = run_chain_study_cfg(&faulted_study(), &DriverConfig::from_env(NOW));
        let intact = report.scenario(ChainScenario::Intact);
        assert!(intact.secure > 0, "signed intact TLDs authenticate");
        assert!(
            intact.insecure > 0,
            "unsigned TLDs resolve insecurely under intact"
        );
        assert_eq!(intact.bogus + intact.bogus_anchor + intact.lame, 0);

        let mis = report.scenario(ChainScenario::MisAnchoredTld);
        assert!(
            mis.queries > 0 && mis.bogus_anchor == mis.queries,
            "{mis:?}"
        );

        let broken = report.scenario(ChainScenario::BrokenDs);
        assert!(
            broken.queries > 0 && broken.bogus == broken.queries,
            "{broken:?}"
        );

        let insecure = report.scenario(ChainScenario::InsecureDelegation);
        assert!(
            insecure.queries > 0 && insecure.insecure == insecure.queries,
            "{insecure:?}"
        );

        let lame = report.scenario(ChainScenario::LameDelegation);
        assert!(lame.queries > 0 && lame.lame == lame.queries, "{lame:?}");

        // Accounting invariant per bucket.
        for (key, t) in &report.per_scenario {
            assert_eq!(
                t.queries,
                t.secure
                    + t.insecure
                    + t.bogus
                    + t.bogus_anchor
                    + t.lame
                    + t.lost
                    + t.budget_exceeded,
                "{key}: accounting invariant"
            );
        }
    }

    #[test]
    fn delegation_cache_warms_within_a_tld() {
        let report = run_chain_study_cfg(&faulted_study(), &DriverConfig::from_env(NOW));
        let total = report.total();
        // First walk per TLD misses, later leaf walks hit the cached cut.
        assert!(total.delegation_hits > 0, "{total:?}");
        assert!(total.delegation_misses > 0, "{total:?}");
    }

    #[test]
    fn chain_study_is_thread_invariant() {
        let study = faulted_study();
        let sequential =
            run_chain_study_cfg(&study, &DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED));
        for threads in [2usize, 4] {
            let sharded =
                run_chain_study_cfg(&study, &DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED));
            assert_eq!(
                format!("{:?}", sharded.per_scenario),
                format!("{:?}", sequential.per_scenario),
                "threads = {threads}"
            );
            assert_eq!(sharded.probe_stats, sequential.probe_stats);
        }
    }

    #[test]
    fn full_hierarchy_stands_up_and_resolves() {
        // One lab with every TLD: a single resolver with the delegation
        // cache on walks leaves under different TLDs; warm repeats under
        // the same TLD restart at the cached cut.
        let model = HierarchyModel::intact(6, 2, 7);
        let h = build_hierarchy(&model, NOW, DEFAULT_LAB_SEED);
        let mut lab = h.lab;
        let raddr = lab.alloc.v4();
        let mut rcfg =
            ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
        rcfg.now = lab.now;
        rcfg.delegation_cache = true;
        let resolver = Resolver::new(rcfg);
        let mut answered = 0;
        for tld in &h.tlds {
            for leaf in &tld.leaves {
                let q = Name::parse(&format!("www.{}", leaf.name)).unwrap();
                let out = resolver.resolve(&lab.net, &q, RrType::A);
                assert_ne!(out.rcode, Rcode::ServFail, "{q}: {:?}", out.ede);
                answered += 1;
            }
        }
        assert_eq!(answered, 12);
        assert!(resolver.delegation_hits() > 0);

        // Deep chains amplify: cold and cacheless, the extra zone level
        // of a root→TLD→leaf walk costs at least a fifth more upstream
        // messages than a root→TLD walk (NXDOMAIN at the TLD). A fresh
        // resolver per depth, so neither rides on keys the other validated.
        let mut msgs_per_walk = |names: Vec<String>| {
            let mut rcfg = ResolverConfig::validating(
                lab.alloc.v4(),
                lab.root_hints.clone(),
                lab.anchor.clone(),
            );
            rcfg.now = lab.now;
            let cacheless = Resolver::new(rcfg);
            let msgs: u64 = names
                .iter()
                .map(|n| {
                    let out = cacheless.resolve(&lab.net, &Name::parse(n).unwrap(), RrType::A);
                    assert_ne!(out.rcode, Rcode::ServFail, "{n}: {:?}", out.ede);
                    out.cost.messages_sent
                })
                .sum();
            assert_eq!(
                cacheless.delegation_hits() + cacheless.delegation_misses(),
                0,
                "a cacheless resolver does not touch the delegation counters"
            );
            msgs as f64 / names.len() as f64
        };
        let tlds = h.tlds.iter();
        let shallow = msgs_per_walk(
            tlds.clone()
                .map(|t| format!("does-not-exist.{}", t.spec.name))
                .collect(),
        );
        let deep = msgs_per_walk(tlds.map(|t| format!("www.{}", t.leaves[0].name)).collect());
        assert!(
            deep >= 1.2 * shallow,
            "deep {deep:.2} vs shallow {shallow:.2} msgs per walk"
        );
    }
}
