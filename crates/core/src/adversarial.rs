//! Adversarial denial-of-existence workloads against budgeted resolvers.
//!
//! The paper's §7 mitigation discussion (and RFC 9276's rationale) is
//! really about resource exhaustion: an attacker who controls NSEC3
//! parameters — or a sheaf of colliding-keytag DNSKEYs — controls how
//! much CPU a validating resolver burns per NXDOMAIN. This driver pushes
//! resolvers through the [`popgen::adversarial`] attack families on the
//! event core and measures the cost per query, with and without the
//! work-budget defense ([`dns_resolver::WorkBudget`]).
//!
//! # Accounting
//!
//! Queries aborted by the budget (SERVFAIL + EDE, `budget_exceeded`)
//! are **graceful degradation**, not measurements: they land in
//! [`FamilyTally::budget_exceeded`] with their spend tallied in the
//! `exceeded_*` counters, and never skew the completed-query cost
//! averages the paper-number pipeline reads — mirroring how lost probes
//! stay out of census denominators. The invariant
//! `queries == completed + budget_exceeded + lost` always holds.

use std::collections::BTreeMap;

use dns_resolver::lab::{LabBuilder, ZoneSpec};
use dns_resolver::{Rfc9276Policy, WorkBudget};
use dns_scanner::retry::ProbeStats;
use dns_wire::name::Name;
use dns_wire::rrtype::RrType;
use dns_zone::nsec3hash::Nsec3Params;
use dns_zone::signer::{decoy_dnskeys, Denial};
use netsim::event::FlowStep;
use popgen::adversarial::{attack_qname, AdversarialZoneSpec, AttackFamily};

use crate::experiments::{apex_zone, lab_apex, ratio, DriverConfig};
use crate::study::{run_study, ShardRun};

/// How the resolver under test defends itself.
#[derive(Clone, Debug, PartialEq)]
pub struct DefenseProfile {
    /// RFC 9276 iteration policy (clamps *declared* cost).
    pub policy: Rfc9276Policy,
    /// Per-query work budget (bounds *spent* cost).
    pub budget: WorkBudget,
}

impl DefenseProfile {
    /// No defenses: unlimited iterations, unlimited budget — the
    /// maximally vulnerable validator the cost sweep measures.
    pub fn undefended() -> Self {
        DefenseProfile {
            policy: Rfc9276Policy::unlimited(),
            budget: WorkBudget::unlimited(),
        }
    }

    /// Layered defenses: SERVFAIL above the RFC 5155 §10.3 cap of 150
    /// iterations (catching declared-cost attacks) plus the hardened
    /// work budget (catching attacks that keep declared parameters
    /// modest — deep encloser chains, keytag collisions).
    pub fn defended() -> Self {
        DefenseProfile {
            policy: Rfc9276Policy::servfail_above(150),
            budget: WorkBudget::hardened(),
        }
    }
}

/// One adversarial run: which zones, how many queries each, under which
/// defense.
#[derive(Clone, Debug)]
pub struct AdversarialScenario {
    /// The attack zones (see [`popgen::generate_attack_zones`]).
    pub zones: Vec<AdversarialZoneSpec>,
    /// Unique cache-busting NXDOMAIN queries per zone.
    pub queries_per_zone: u64,
    /// The resolver's defense configuration.
    pub defense: DefenseProfile,
}

/// Per-family accounting. All counters are plain sums, so shard merges
/// are order-independent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FamilyTally {
    /// Queries issued.
    pub queries: u64,
    /// Queries that ran to a verdict (NXDOMAIN, or a *policy* SERVFAIL
    /// such as the iteration clamp's — a verdict on the zone, not an
    /// abort).
    pub completed: u64,
    /// Queries aborted by the work budget (SERVFAIL + EDE): degraded
    /// service, tallied separately so they never skew cost averages.
    pub budget_exceeded: u64,
    /// Queries lost to network faults (SERVFAIL that spent timeouts).
    pub lost: u64,
    /// SHA-1 compressions spent on *completed* queries.
    pub compressions: u64,
    /// Signature verifications spent on *completed* queries.
    pub signatures: u64,
    /// SHA-1 compressions spent on budget-aborted queries.
    pub exceeded_compressions: u64,
    /// Signature verifications spent on budget-aborted queries.
    pub exceeded_signatures: u64,
}

/// Weight of one signature verification in work units, relative to one
/// SHA-1 compression — the same coarse exchange rate the hardened
/// budget's two axes imply (1,000 compressions : 16 signatures ≈ 60,
/// rounded down to a round number that undercounts signatures).
pub(crate) const SIGNATURE_WORK_UNITS: u64 = 20;

impl FamilyTally {
    fn merge(&mut self, other: &FamilyTally) {
        self.queries += other.queries;
        self.completed += other.completed;
        self.budget_exceeded += other.budget_exceeded;
        self.lost += other.lost;
        self.compressions += other.compressions;
        self.signatures += other.signatures;
        self.exceeded_compressions += other.exceeded_compressions;
        self.exceeded_signatures += other.exceeded_signatures;
    }

    /// SHA-1 compressions per completed query.
    pub fn compressions_per_query(&self) -> f64 {
        ratio(self.compressions, self.completed)
    }

    /// Signature verifications per completed query.
    pub fn signatures_per_query(&self) -> f64 {
        ratio(self.signatures, self.completed)
    }

    /// Work units (compressions + `SIGNATURE_WORK_UNITS` × signature
    /// verifications) per completed query.
    pub fn work_units_per_query(&self) -> f64 {
        ratio(
            self.compressions + SIGNATURE_WORK_UNITS * self.signatures,
            self.completed,
        )
    }

    /// SHA-1 compressions per issued query, budget-aborted spend
    /// included.
    pub fn total_compressions_per_query(&self) -> f64 {
        ratio(self.compressions + self.exceeded_compressions, self.queries)
    }

    /// Total CPU actually spent per issued query, budget-aborted spend
    /// included — the defender's bill, which is what the defense bounds.
    pub fn total_work_units_per_query(&self) -> f64 {
        ratio(
            self.compressions
                + self.exceeded_compressions
                + SIGNATURE_WORK_UNITS * (self.signatures + self.exceeded_signatures),
            self.queries,
        )
    }
}

/// Result of an adversarial run: per-family tallies plus loss-accounted
/// probe traffic.
#[derive(Clone, Debug)]
pub struct AdversarialReport {
    /// Tallies keyed by [`AttackFamily::label`].
    pub per_family: BTreeMap<String, FamilyTally>,
    /// Merged probe accounting across shards.
    pub probe_stats: ProbeStats,
}

impl AdversarialReport {
    /// The tally for `family` (zero tally if the scenario had no such
    /// zones).
    pub fn family(&self, family: AttackFamily) -> FamilyTally {
        self.per_family
            .get(family.label())
            .copied()
            .unwrap_or_default()
    }
}

/// Lab zone contents for one attack spec under its parsed name.
fn zone_spec_for_attack(spec: &AdversarialZoneSpec, apex: &Name) -> ZoneSpec {
    let mut zs = ZoneSpec::new(
        apex_zone(apex, 66),
        Denial::Nsec3 {
            params: Nsec3Params::new(spec.iterations, vec![0x5a; spec.salt_len]),
            opt_out: false,
        },
    );
    if spec.decoy_keys > 0 {
        zs.extra_dnskeys = decoy_dnskeys(apex, spec.decoy_keys);
    }
    zs
}

/// Run `scenario` under `cfg`. A zone is the unit: it gets its **own**
/// lab (root + parent TLD + the attack zone) and faults, so every thread
/// count produces identical tallies. Within a zone, queries run as
/// single-step flows on the event core in issue order.
pub fn run_adversarial_cfg(
    scenario: &AdversarialScenario,
    cfg: &DriverConfig,
) -> AdversarialReport {
    let run = run_study(scenario.zones.len(), 1, cfg, |shard, range| {
        adversarial_shard(shard, range.start, &scenario.zones[range], scenario)
    });
    let mut per_family: BTreeMap<String, FamilyTally> = BTreeMap::new();
    for (label, tally) in run.parts.into_iter().flatten() {
        per_family.entry(label).or_default().merge(&tally);
    }
    AdversarialReport {
        per_family,
        probe_stats: run.probe_stats,
    }
}

/// One shard: every zone in `slice`, the zones from index `first` on,
/// each in a private lab.
fn adversarial_shard(
    shard: &ShardRun<'_>,
    first: usize,
    slice: &[AdversarialZoneSpec],
    scenario: &AdversarialScenario,
) -> BTreeMap<String, FamilyTally> {
    let mut tallies: BTreeMap<String, FamilyTally> = BTreeMap::new();
    for (i, spec) in (first..).zip(slice) {
        let apex_and_parent = lab_apex(&spec.name).and_then(|a| a.parent().map(|p| (a, p)));
        let Some((apex, parent)) = apex_and_parent else {
            continue;
        };
        let mut builder = LabBuilder::new(shard.cfg.now).seed(shard.seed);
        if !parent.is_root() {
            builder = builder.simple_zone(&parent, Denial::nsec3_rfc9276());
        }
        let mut lab = builder.zone(zone_spec_for_attack(spec, &apex)).build();
        let resolver = shard.resolver(&mut lab, i, |rcfg| {
            rcfg.policy = scenario.defense.policy.clone();
            rcfg.budget = scenario.defense.budget;
        });
        let tally = tallies.entry(spec.family.label().to_string()).or_default();
        // One single-step flow per query: the whole resolution runs
        // inside its first step (see the unreachability driver for the
        // window-invariance argument).
        let mut qnames = (0..scenario.queries_per_zone)
            .filter_map(|q| Name::parse(&attack_qname(&spec.name, spec.label_depth, q)).ok());
        shard.drive(
            &lab.net,
            || qnames.next(),
            |qname: &mut Name| {
                let out = resolver.resolve(&lab.net, qname, RrType::A);
                tally.queries += 1;
                if shard.session.book(&out) {
                    tally.lost += 1;
                } else if out.budget_exceeded {
                    // Degraded, not lost: the resolver answered (with
                    // SERVFAIL + EDE), it just refused to keep paying.
                    tally.budget_exceeded += 1;
                    tally.exceeded_compressions += out.cost.sha1_compressions;
                    tally.exceeded_signatures += out.cost.signatures_verified;
                } else {
                    tally.completed += 1;
                    tally.compressions += out.cost.sha1_compressions;
                    tally.signatures += out.cost.signatures_verified;
                }
                FlowStep::Done
            },
        );
    }
    tallies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_LAB_SEED;
    use dns_resolver::resolver::{RecursionStep, Resolver, ResolverConfig};
    use dns_wire::edns::EdeCode;
    use dns_wire::message::Message;
    use dns_wire::rrtype::Rcode;
    use popgen::generate_attack_zones;
    use std::rc::Rc;

    const NOW: u32 = 1_710_000_000;

    fn scenario(defense: DefenseProfile) -> AdversarialScenario {
        AdversarialScenario {
            zones: generate_attack_zones("example.", 1),
            queries_per_zone: 4,
            defense,
        }
    }

    #[test]
    fn undefended_attacks_dwarf_baseline() {
        let report = run_adversarial_cfg(
            &scenario(DefenseProfile::undefended()),
            &DriverConfig::from_env(NOW),
        );
        let base = report.family(AttackFamily::Baseline);
        assert_eq!(base.completed, base.queries, "baseline all complete");
        assert_eq!(base.budget_exceeded, 0);
        // Every attack family costs an undefended resolver at least ten
        // times the RFC 9276 baseline per query, in work units.
        for family in &AttackFamily::ALL[1..] {
            let t = report.family(*family);
            assert!(
                t.work_units_per_query() >= 10.0 * base.work_units_per_query().max(1.0),
                "{}: {} vs baseline {}",
                family.label(),
                t.work_units_per_query(),
                base.work_units_per_query()
            );
        }
        let maxit = report.family(AttackFamily::MaxIterations);
        assert_eq!(maxit.completed, maxit.queries, "undefended never aborts");
        assert!(
            maxit.compressions_per_query() >= 10.0 * base.compressions_per_query().max(1.0),
            "max-iterations {} vs baseline {}",
            maxit.compressions_per_query(),
            base.compressions_per_query()
        );
        let deep = report.family(AttackFamily::DeepChain);
        assert!(
            deep.compressions_per_query() >= 10.0 * base.compressions_per_query().max(1.0),
            "deep-chain {} vs baseline {}",
            deep.compressions_per_query(),
            base.compressions_per_query()
        );
        let keytag = report.family(AttackFamily::KeytagCollision);
        assert!(
            keytag.signatures_per_query() >= 3.0 * base.signatures_per_query().max(1.0),
            "keytag {} vs baseline {}",
            keytag.signatures_per_query(),
            base.signatures_per_query()
        );
    }

    #[test]
    fn defense_bounds_every_family_and_accounts_aborts() {
        let report = run_adversarial_cfg(
            &scenario(DefenseProfile::defended()),
            &DriverConfig::from_env(NOW),
        );
        for (label, tally) in &report.per_family {
            assert_eq!(
                tally.queries,
                tally.completed + tally.budget_exceeded + tally.lost,
                "{label}: accounting invariant"
            );
            assert_eq!(tally.lost, 0, "{label}: clean network loses nothing");
        }
        // Baseline sails under both defenses.
        let base = report.family(AttackFamily::Baseline);
        assert_eq!(base.budget_exceeded, 0, "compliant zone never trips budget");
        assert_eq!(base.completed, base.queries);
        // MaxIterations dies on the declared-cost clamp — a completed
        // policy verdict, cheap because no hashing happens.
        let maxit = report.family(AttackFamily::MaxIterations);
        assert_eq!(maxit.budget_exceeded, 0, "clamp fires before any hashing");
        assert_eq!(maxit.completed, maxit.queries);
        // DeepChain evades the clamp (150 ≤ 150) but trips the
        // compression budget; KeytagCollision trips the signature budget.
        let deep = report.family(AttackFamily::DeepChain);
        assert_eq!(
            deep.budget_exceeded, deep.queries,
            "budget aborts deep chains"
        );
        let keytag = report.family(AttackFamily::KeytagCollision);
        assert_eq!(
            keytag.budget_exceeded, keytag.queries,
            "budget aborts keytrap"
        );
        // The defender's total bill stays bounded: budget + one-chain
        // overshoot per query, in work units.
        let bound = (1_000 + 151 + SIGNATURE_WORK_UNITS * (16 + 13)) as f64;
        for family in [AttackFamily::DeepChain, AttackFamily::KeytagCollision] {
            let t = report.family(family);
            assert!(
                t.total_work_units_per_query() <= bound,
                "{}: {} > {bound}",
                family.label(),
                t.total_work_units_per_query()
            );
        }
        // Against the same zones undefended: every family's defended bill
        // stays within 32x the baseline, and the defense saves at least a
        // fifth of the hash-heavy families' compressions (the keytag
        // family attacks signatures, so only the ceiling covers it).
        let undefended = run_adversarial_cfg(
            &scenario(DefenseProfile::undefended()),
            &DriverConfig::from_env(NOW),
        );
        let base_work = undefended
            .family(AttackFamily::Baseline)
            .work_units_per_query()
            .max(1.0);
        for family in AttackFamily::ALL {
            let (u, d) = (undefended.family(family), report.family(family));
            assert!(
                d.total_work_units_per_query() <= 32.0 * base_work,
                "{}: defended bill {} vs baseline {base_work}",
                family.label(),
                d.total_work_units_per_query()
            );
            if matches!(
                family,
                AttackFamily::MaxIterations | AttackFamily::DeepChain
            ) {
                assert!(
                    u.total_compressions_per_query() >= 1.2 * d.total_compressions_per_query(),
                    "{}: {} compressions undefended vs {} defended",
                    family.label(),
                    u.total_compressions_per_query(),
                    d.total_compressions_per_query()
                );
            }
        }
    }

    #[test]
    fn budget_servfail_carries_ede_on_the_wire() {
        // End to end: a stub client queries a defended resolver *over the
        // simulated network* about a deep-chain attack zone, and the
        // SERVFAIL arrives with the budget EDE in the OPT record.
        let zones = generate_attack_zones("example.", 1);
        let spec = zones
            .iter()
            .find(|z| z.family == AttackFamily::DeepChain)
            .unwrap();
        let mut lab = LabBuilder::new(NOW)
            .seed(DEFAULT_LAB_SEED)
            .simple_zone(&Name::parse("example.").unwrap(), Denial::nsec3_rfc9276())
            .zone(zone_spec_for_attack(
                spec,
                &Name::parse(&spec.name).unwrap(),
            ))
            .build();
        let raddr = lab.alloc.v4();
        let mut rcfg =
            ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
        rcfg.now = lab.now;
        let defense = DefenseProfile::defended();
        rcfg.policy = defense.policy;
        rcfg.budget = defense.budget;
        let resolver = Rc::new(Resolver::new(rcfg));
        lab.net.register(raddr, resolver);
        let client = lab.alloc.v4();
        let qname = Name::parse(&attack_qname(&spec.name, spec.label_depth, 0)).unwrap();
        let query = Message::query(0x4242, qname, RrType::A);
        let outcome = lab.net.send_query(client, raddr, &query.encode());
        let netsim::Outcome::Response { payload, .. } = outcome else {
            panic!("stub query answered: {outcome:?}");
        };
        let msg = Message::decode(&payload).expect("reply decodes");
        assert_eq!(msg.rcode, Rcode::ServFail);
        let ede = msg.edns.as_ref().and_then(|e| e.ede());
        let (code, text) = ede.expect("budget SERVFAIL carries EDE");
        assert_eq!(*code, EdeCode::OTHER);
        assert_eq!(text, "work budget exceeded");
    }

    #[test]
    fn interleaved_recursions_each_spend_their_own_budget() {
        // Two client queries in flight on one defended resolver, stepped
        // alternately: the deep-chain one trips its own budget, and the
        // benign one ends exactly as it does alone — verdict and bill.
        let zones = generate_attack_zones("example.", 1);
        let spec = |family| zones.iter().find(|z| z.family == family).unwrap();
        let (deep, benign) = (spec(AttackFamily::DeepChain), spec(AttackFamily::Baseline));
        let probe = |s: &AdversarialZoneSpec| {
            Name::parse(&attack_qname(&s.name, s.label_depth, 0)).unwrap()
        };
        let stand_up = || {
            let mut builder = LabBuilder::new(NOW)
                .seed(DEFAULT_LAB_SEED)
                .simple_zone(&Name::parse("example.").unwrap(), Denial::nsec3_rfc9276());
            for s in [deep, benign] {
                builder = builder.zone(zone_spec_for_attack(s, &Name::parse(&s.name).unwrap()));
            }
            let mut lab = builder.build();
            let raddr = lab.alloc.v4();
            let mut rcfg =
                ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
            rcfg.now = lab.now;
            rcfg.policy = DefenseProfile::defended().policy;
            rcfg.budget = WorkBudget::hardened();
            // No key cache: each query's bill is its own walk, whichever
            // of the two fetched a key first.
            rcfg.cache_size = 0;
            let resolver = Resolver::new(rcfg);
            (lab, resolver)
        };
        let (lab, resolver) = stand_up();
        let alone = resolver.resolve(&lab.net, &probe(benign), RrType::A);
        assert_eq!((alone.rcode, alone.authenticated), (Rcode::NxDomain, true));
        let (lab, resolver) = stand_up();
        let mut attack = resolver.begin_recursion(&lab.net, &probe(deep), RrType::A);
        let mut query = resolver.begin_recursion(&lab.net, &probe(benign), RrType::A);
        let (mut attacked, mut answered) = (None, None);
        while attacked.is_none() || answered.is_none() {
            for (machine, out) in [(&mut attack, &mut attacked), (&mut query, &mut answered)] {
                if out.is_none() {
                    if let RecursionStep::Done(done) = machine.step(&lab.net) {
                        *out = Some(done);
                    }
                }
            }
        }
        let (attacked, answered) = (attacked.unwrap(), answered.unwrap());
        assert!(attacked.budget_exceeded, "deep chain: {attacked:?}");
        assert!(!answered.budget_exceeded, "benign: {answered:?}");
        assert_eq!(
            (
                answered.rcode,
                answered.authenticated,
                &answered.ede,
                answered.cost
            ),
            (alone.rcode, alone.authenticated, &alone.ede, alone.cost)
        );
    }

    #[test]
    fn adversarial_driver_is_thread_invariant() {
        let sc = scenario(DefenseProfile::defended());
        let sequential = run_adversarial_cfg(&sc, &DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED));
        for threads in [2usize, 4] {
            let sharded =
                run_adversarial_cfg(&sc, &DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED));
            assert_eq!(
                format!("{:?}", sharded.per_family),
                format!("{:?}", sequential.per_family),
                "threads = {threads}"
            );
            assert_eq!(sharded.probe_stats, sequential.probe_stats);
        }
    }
}
