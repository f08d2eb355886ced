//! The production serving driver: Zipf client traffic through the
//! resolver fleet, with the RFC 8198 negative-cache fast path.
//!
//! Where the census and study drivers *probe* (one query per target, no
//! cache reuse by design), this driver *serves*: a client population
//! ([`popgen::traffic`]) issues millions of Zipf-distributed queries
//! against a fixed domain population, and a fleet of caching validating
//! resolvers answers them. The interesting numbers are the ones the
//! paper's parameters move — how much upstream NXDOMAIN traffic
//! aggressive NSEC3 caching collapses, and what the per-query hash bill
//! of that synthesis is at each iteration count.
//!
//! # Fleet sharding and determinism
//!
//! The unit of work is one **fleet member**, not one thread: clients
//! partition contiguously across `fleet` resolver instances, each
//! instance owns a private lab (every zone of the population, deployed
//! from its shard's one signed copy) and serves its clients' queries in
//! stream order on the event core. A tally
//! depends only on its resolver's own query slice, so merging per-
//! resolver tallies is order-free and the report is byte-identical for
//! every `HEROES_THREADS` and every in-flight window (each query is a
//! single-step flow; see the unreachability driver for the argument).
//!
//! # Accounting
//!
//! Every query lands in exactly one of four buckets:
//! `served_cache` (answer-cache hit, zero virtual latency),
//! `synthesized` (RFC 8198 NXDOMAIN from cached NSEC3 ranges — CPU but
//! no network), `forwarded` (full recursion upstream), or `lost`
//! (network faults ate it: SERVFAIL that spent timeouts). The invariant
//! `queries == served_cache + synthesized + forwarded + lost` always
//! holds, and virtual latency percentiles come from an exact
//! microsecond histogram that merges across shards by summation.

use std::collections::BTreeMap;

use dns_resolver::lab::SignedLab;
use dns_scanner::retry::ProbeStats;
use dns_wire::name::Name;
use dns_wire::rrtype::{Rcode, RrType};
use netsim::event::FlowStep;
use popgen::domains::DomainSpec;
use popgen::traffic::{TrafficGenerator, TrafficModel};
use sim_rng::SplitMix64;

use crate::experiments::{domain_lab, ratio, DriverConfig};
use crate::study::{run_study, ShardRun};

/// One serving run: the domain population, who queries it, and how the
/// fleet caches.
#[derive(Clone, Debug)]
pub struct ServingScenario {
    /// The zone population every fleet member is authoritative-adjacent
    /// to (each spec becomes a signed lab zone).
    pub domains: Vec<DomainSpec>,
    /// The client population and its query mix.
    pub traffic: TrafficModel,
    /// Resolver instances in the fleet; clients partition contiguously
    /// across them. Tallies are per-instance, so the count changes the
    /// numbers (cache locality) but never the determinism.
    pub fleet: usize,
    /// RFC 8198 aggressive NSEC3 synthesis on the fleet.
    pub aggressive: bool,
    /// Answer-cache capacity per resolver (0 disables caching — the
    /// cold path).
    pub cache_size: usize,
    /// Delegation (referral) caching on the fleet: warm queries restart
    /// recursion at the deepest cached cut instead of the root. Off by
    /// default so the pinned serving scenarios keep their historical
    /// upstream timing; the chain-of-trust drivers run it on.
    pub delegation_cache: bool,
}

impl ServingScenario {
    /// A warm-fleet scenario: 4 resolvers, aggressive NSEC3 on, the
    /// resolver's default cache geometry.
    pub fn new(domains: Vec<DomainSpec>, traffic: TrafficModel) -> Self {
        ServingScenario {
            domains,
            traffic,
            fleet: 4,
            aggressive: true,
            cache_size: 4096,
            delegation_cache: false,
        }
    }

    /// The same scenario with an explicit fleet size.
    pub fn with_fleet(mut self, fleet: usize) -> Self {
        self.fleet = fleet.max(1);
        self
    }

    /// The same traffic through cacheless resolvers — every query pays
    /// full recursion. The baseline the warm percentiles compare to.
    pub fn cold(mut self) -> Self {
        self.aggressive = false;
        self.cache_size = 0;
        self.delegation_cache = false;
        self
    }

    /// The same scenario with aggressive synthesis toggled — the
    /// upstream-collapse comparison arm.
    pub fn with_aggressive(mut self, aggressive: bool) -> Self {
        self.aggressive = aggressive;
        self
    }
}

/// Serving counters. Plain sums plus a summable latency histogram, so
/// shard merges are order-independent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServingTally {
    /// Client queries served.
    pub queries: u64,
    /// Answered from the answer cache (positive or negative).
    pub served_cache: u64,
    /// NXDOMAIN synthesized from cached NSEC3 ranges (RFC 8198).
    pub synthesized: u64,
    /// Full recursion upstream.
    pub forwarded: u64,
    /// Lost to network faults (SERVFAIL that spent timeouts).
    pub lost: u64,
    /// NoError answers.
    pub noerror: u64,
    /// NXDOMAIN answers (cached, synthesized, or recursed).
    pub nxdomain: u64,
    /// SERVFAIL answers.
    pub servfail: u64,
    /// Messages the fleet sent upstream (the authoritative-side bill).
    pub upstream_messages: u64,
    /// Forwarded queries that came back NXDOMAIN — the traffic RFC 8198
    /// exists to collapse.
    pub upstream_nxdomain: u64,
    /// SHA-1 compressions spent (synthesis + validation).
    pub sha1_compressions: u64,
    /// NSEC3 hash chains computed.
    pub nsec3_hashes: u64,
    /// Answer-cache hits across the fleet.
    pub answer_hits: u64,
    /// Answer-cache misses across the fleet.
    pub answer_misses: u64,
    /// Validated-key-cache hits across the fleet.
    pub key_hits: u64,
    /// Validated-key-cache misses across the fleet.
    pub key_misses: u64,
    /// Delegation-cache hits across the fleet (warm referral restarts).
    pub delegation_hits: u64,
    /// Delegation-cache misses across the fleet (root-hint walks).
    pub delegation_misses: u64,
    /// Delegation-cache evictions across the fleet.
    pub delegation_evictions: u64,
    /// Virtual latency histogram: exact microseconds → query count.
    pub latency_hist: BTreeMap<u64, u64>,
}

impl ServingTally {
    fn merge(&mut self, other: &ServingTally) {
        self.queries += other.queries;
        self.served_cache += other.served_cache;
        self.synthesized += other.synthesized;
        self.forwarded += other.forwarded;
        self.lost += other.lost;
        self.noerror += other.noerror;
        self.nxdomain += other.nxdomain;
        self.servfail += other.servfail;
        self.upstream_messages += other.upstream_messages;
        self.upstream_nxdomain += other.upstream_nxdomain;
        self.sha1_compressions += other.sha1_compressions;
        self.nsec3_hashes += other.nsec3_hashes;
        self.answer_hits += other.answer_hits;
        self.answer_misses += other.answer_misses;
        self.key_hits += other.key_hits;
        self.key_misses += other.key_misses;
        self.delegation_hits += other.delegation_hits;
        self.delegation_misses += other.delegation_misses;
        self.delegation_evictions += other.delegation_evictions;
        for (&micros, &count) in &other.latency_hist {
            *self.latency_hist.entry(micros).or_default() += count;
        }
    }

    /// The `pct`-th percentile of virtual latency, in microseconds
    /// (nearest-rank over the exact histogram).
    pub(crate) fn latency_percentile(&self, pct: f64) -> u64 {
        let total: u64 = self.latency_hist.values().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((pct / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&micros, &count) in &self.latency_hist {
            seen += count;
            if seen >= rank {
                return micros;
            }
        }
        *self.latency_hist.keys().next_back().expect("nonempty hist")
    }

    /// Median virtual latency (µs).
    pub fn p50_micros(&self) -> u64 {
        self.latency_percentile(50.0)
    }

    /// 99th-percentile virtual latency (µs).
    pub fn p99_micros(&self) -> u64 {
        self.latency_percentile(99.0)
    }

    /// Answer-cache hit ratio across the fleet.
    pub fn answer_hit_ratio(&self) -> f64 {
        ratio(self.answer_hits, self.answer_hits + self.answer_misses)
    }

    /// Share of queries answered without touching the network (cache
    /// hits plus RFC 8198 synthesis).
    pub fn local_answer_share(&self) -> f64 {
        ratio(self.served_cache + self.synthesized, self.queries)
    }
}

/// Result of a serving run: the merged tally, loss-accounted probe
/// traffic, and the event core's high-water mark.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// Merged counters across the fleet.
    pub tally: ServingTally,
    /// Loss-accounted query traffic (merged shard-wise).
    pub probe_stats: ProbeStats,
    /// Deepest in-flight backlog any fleet member saw (window-dependent;
    /// excluded from determinism pins).
    pub in_flight_high_water: usize,
}

impl ServingReport {
    /// The rendered form the determinism pins compare: everything except
    /// the window-dependent high-water mark.
    pub fn rendered(&self) -> String {
        format!("{:?}\n{:?}", self.tally, self.probe_stats)
    }
}

/// Run `scenario` under `cfg`. Fleet members shard across threads; each
/// member's lab seed derives from `(lab_seed, member index)` — never the
/// shard — so every thread count produces identical tallies.
pub fn run_serving_cfg(scenario: &ServingScenario, cfg: &DriverConfig) -> ServingReport {
    assert!(!scenario.domains.is_empty(), "serving needs zones");
    let fleet = scenario.fleet.max(1);
    let run = run_study(fleet, cfg, |shard, range| {
        // Signed zones depend on the apexes and `now`, not on a member's
        // seed: the shard signs once, each member deploys. Apexes come
        // parsed once per shard; a spec that got no zone has `None`.
        let (builder, apexes) = domain_lab(&scenario.domains, shard.cfg.now);
        let signed = builder.sign();
        let mut tally = ServingTally::default();
        for member in range {
            serving_unit(shard, scenario, &signed, &apexes, member as u64, &mut tally);
        }
        tally
    });
    let mut tally = ServingTally::default();
    for part in &run.parts {
        tally.merge(part);
    }
    ServingReport {
        tally,
        probe_stats: run.probe_stats,
        in_flight_high_water: run.in_flight_high_water,
    }
}

/// The contiguous client block fleet member `member` serves, balanced
/// like [`sim_par::range_shards`]: the first `clients % fleet` members
/// take one extra client.
fn client_block(clients: u64, fleet: u64, member: u64) -> (u64, u64) {
    let base = clients / fleet;
    let extra = clients % fleet;
    let start = member * base + member.min(extra);
    let end = start + base + u64::from(member < extra);
    (start, end)
}

/// One fleet member: a private lab deployed from the shard's signed
/// population, one caching resolver, and its client block's query slice
/// in stream order as single-step flows on the event core.
fn serving_unit(
    shard: &ShardRun<'_>,
    scenario: &ServingScenario,
    signed: &SignedLab,
    apexes: &[Option<Name>],
    member: u64,
    tally: &mut ServingTally,
) {
    let fleet = scenario.fleet.max(1) as u64;
    let (c_lo, c_hi) = client_block(scenario.traffic.clients, fleet, member);
    let qpc = scenario.traffic.queries_per_client;
    let (q_lo, q_hi) = (c_lo * qpc, c_hi * qpc);
    if q_lo >= q_hi {
        return;
    }
    // Per-member lab seed: a function of (lab_seed, member), never of
    // the shard plan — thread counts must not move a member's stream.
    let member_seed =
        SplitMix64::new(shard.cfg.lab_seed ^ member.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    let mut lab = signed.deploy(member_seed);
    let resolver = shard.resolver(&mut lab, |rcfg| {
        rcfg.cache_size = scenario.cache_size;
        rcfg.aggressive_nsec3 = scenario.aggressive;
        rcfg.delegation_cache = scenario.delegation_cache;
    });
    let generator = TrafficGenerator::new(scenario.traffic.clone(), scenario.domains.len() as u64);
    let net = &lab.net;
    let mut qnames = (q_lo..q_hi).filter_map(|i| {
        let q = generator.get(i);
        let apex = apexes[q.domain as usize]
            .as_ref()
            .filter(|a| !a.is_root())?;
        q.qname_under(apex).ok()
    });
    shard.drive(
        net,
        || qnames.next(),
        |qname: &mut Name| {
            let hits_before = resolver.cache_hits();
            let synth_before = resolver.synthesized_nxdomains();
            let issued_at = net.now_micros();
            let out = resolver.resolve(net, qname, RrType::A);
            let latency = net.now_micros() - issued_at;
            tally.queries += 1;
            *tally.latency_hist.entry(latency).or_default() += 1;
            tally.upstream_messages += out.cost.messages_sent;
            tally.sha1_compressions += out.cost.sha1_compressions;
            tally.nsec3_hashes += out.cost.nsec3_hashes;
            match out.rcode {
                Rcode::NoError => tally.noerror += 1,
                Rcode::NxDomain => tally.nxdomain += 1,
                _ => tally.servfail += 1,
            }
            // A cache hit or a synthesized answer spent nothing on the
            // network, so it is never lost.
            let lost = shard.lost(&out);
            if resolver.cache_hits() > hits_before {
                tally.served_cache += 1;
            } else if resolver.synthesized_nxdomains() > synth_before {
                tally.synthesized += 1;
            } else if lost {
                tally.lost += 1;
            } else {
                tally.forwarded += 1;
                if out.rcode == Rcode::NxDomain {
                    tally.upstream_nxdomain += 1;
                }
            }
            FlowStep::Done
        },
    );
    tally.answer_hits += resolver.cache_hits();
    tally.answer_misses += resolver.cache_misses();
    tally.key_hits += resolver.key_cache_hits();
    tally.key_misses += resolver.key_cache_misses();
    tally.delegation_hits += resolver.delegation_hits();
    tally.delegation_misses += resolver.delegation_misses();
    tally.delegation_evictions += resolver.delegation_evictions();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{DEFAULT_LAB_SEED, DEFAULT_WINDOW};
    use popgen::domains::DnssecKind;
    use popgen::traffic::QueryMix;
    use popgen::DomainGenerator;
    use popgen::Scale;

    const NOW: u32 = 1_710_000_000;

    /// A small NSEC3-heavy zone population from the calibrated
    /// generator.
    fn nsec3_domains(count: usize) -> Vec<DomainSpec> {
        let generator = DomainGenerator::new(Scale(1.0 / 3_020.0), 42);
        let mut out = Vec::with_capacity(count);
        let mut i = 0u64;
        while out.len() < count && i < generator.len() {
            let spec = generator.get(i);
            if matches!(spec.dnssec, DnssecKind::Nsec3 { opt_out: false, .. }) {
                out.push(spec);
            }
            i += 1;
        }
        assert_eq!(out.len(), count, "population too small for {count} zones");
        out
    }

    fn small_scenario() -> ServingScenario {
        ServingScenario::new(
            nsec3_domains(6),
            TrafficModel::new(8, 30, 42).with_mix(QueryMix::nxdomain_heavy()),
        )
        .with_fleet(2)
    }

    #[test]
    fn serving_accounting_invariants() {
        let report = run_serving_cfg(
            &small_scenario(),
            &DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED),
        );
        let t = &report.tally;
        assert_eq!(t.queries, 240);
        assert_eq!(
            t.queries,
            t.served_cache + t.synthesized + t.forwarded + t.lost,
            "every query lands in exactly one bucket"
        );
        assert_eq!(t.queries, t.noerror + t.nxdomain + t.servfail);
        assert_eq!(t.latency_hist.values().sum::<u64>(), t.queries);
        assert_eq!(t.lost, 0, "clean network loses nothing");
        assert!(t.synthesized > 0, "aggressive fleet must synthesize");
        assert!(t.served_cache > 0, "Zipf head must produce cache hits");
        assert!(t.answer_hit_ratio() > 0.0);
    }

    #[test]
    fn aggressive_collapses_upstream_nxdomain() {
        let on = run_serving_cfg(
            &small_scenario(),
            &DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED),
        );
        let off = run_serving_cfg(
            &small_scenario().with_aggressive(false),
            &DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED),
        );
        assert!(
            off.tally.upstream_nxdomain >= 2 * on.tally.upstream_nxdomain.max(1),
            "aggressive caching must collapse upstream NXDOMAIN: off {} vs on {}",
            off.tally.upstream_nxdomain,
            on.tally.upstream_nxdomain
        );
        // Synthesis pays in hashes what it saves in messages.
        assert!(on.tally.upstream_messages < off.tally.upstream_messages);
    }

    #[test]
    fn warm_fleet_beats_cold_fleet_latency() {
        let warm = run_serving_cfg(
            &small_scenario(),
            &DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED),
        );
        let cold = run_serving_cfg(
            &small_scenario().cold(),
            &DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED),
        );
        assert_eq!(cold.tally.served_cache, 0);
        assert_eq!(cold.tally.synthesized, 0);
        assert!(cold.tally.p50_micros() > 0, "cold queries pay the network");
        assert!(
            warm.tally.p99_micros() < cold.tally.p50_micros(),
            "warm p99 {} must undercut cold p50 {}",
            warm.tally.p99_micros(),
            cold.tally.p50_micros()
        );
    }

    #[test]
    fn serving_driver_is_thread_and_window_invariant() {
        let scenario = small_scenario();
        let baseline = run_serving_cfg(&scenario, &DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED));
        for threads in [2usize, 4] {
            let sharded = run_serving_cfg(
                &scenario,
                &DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED),
            );
            assert_eq!(
                sharded.rendered(),
                baseline.rendered(),
                "threads = {threads}"
            );
        }
        for window in [1usize, 7] {
            let windowed = run_serving_cfg(
                &scenario,
                &DriverConfig::clean(NOW, 2, DEFAULT_LAB_SEED).with_window(window),
            );
            assert_eq!(
                windowed.rendered(),
                baseline.rendered(),
                "window = {window}"
            );
        }
    }

    /// The same invariance with a deep queue: at the default window a
    /// member admits its whole 2 400-query slice at virtual time 0, at
    /// window 1 the queue never holds more than one entry.
    #[test]
    fn serving_report_is_window_invariant_with_thousands_in_flight() {
        let scenario =
            ServingScenario::new(nsec3_domains(6), TrafficModel::new(8, 600, 42)).with_fleet(2);
        let windowed = |window| {
            let cfg = DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED).with_window(window);
            run_serving_cfg(&scenario, &cfg)
        };
        let (wide, narrow) = (windowed(DEFAULT_WINDOW), windowed(1));
        assert_eq!(wide.tally.queries, 4_800);
        assert_eq!(wide.in_flight_high_water, 2_400);
        assert_eq!(narrow.in_flight_high_water, 1);
        assert_eq!(wide.rendered(), narrow.rendered());
    }

    #[test]
    fn delegation_cache_saves_upstream_and_stays_invariant() {
        let cached = ServingScenario {
            delegation_cache: true,
            ..small_scenario()
        };
        let plain = small_scenario();
        let base = |threads| DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED);
        let with_cache = run_serving_cfg(&cached, &base(1));
        let without = run_serving_cfg(&plain, &base(1));
        assert!(
            with_cache.tally.delegation_hits > 0,
            "warm fleet walks must hit cached cuts"
        );
        assert_eq!(
            without.tally.delegation_hits + without.tally.delegation_misses,
            0,
            "disabled cache must not record counter noise"
        );
        assert!(
            with_cache.tally.upstream_messages < without.tally.upstream_messages,
            "delegation cache must cut the upstream bill: {} vs {}",
            with_cache.tally.upstream_messages,
            without.tally.upstream_messages
        );
        // Still byte-identical across thread counts with the cache on.
        let sharded = run_serving_cfg(&cached, &base(4));
        assert_eq!(sharded.rendered(), with_cache.rendered());
    }

    #[test]
    fn fleet_size_changes_locality_not_totals() {
        let one = run_serving_cfg(
            &small_scenario().with_fleet(1),
            &DriverConfig::clean(NOW, 2, DEFAULT_LAB_SEED),
        );
        let four = run_serving_cfg(
            &small_scenario().with_fleet(4),
            &DriverConfig::clean(NOW, 2, DEFAULT_LAB_SEED),
        );
        assert_eq!(one.tally.queries, four.tally.queries);
        // A monolithic cache sees every repeat; a split fleet re-pays
        // cold misses per member.
        assert!(one.tally.served_cache >= four.tally.served_cache);
    }

    #[test]
    fn client_blocks_partition_exactly() {
        for (clients, fleet) in [(10u64, 3u64), (8, 4), (1, 4), (0, 2), (7, 7)] {
            let mut expected = 0u64;
            for member in 0..fleet {
                let (lo, hi) = client_block(clients, fleet, member);
                assert_eq!(lo, expected, "clients={clients} fleet={fleet}");
                expected = hi;
            }
            assert_eq!(expected, clients);
        }
    }
}
