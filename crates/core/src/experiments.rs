//! End-to-end experiment drivers: the §4.1 domain census, the §4.2
//! resolver study, and the CVE-2023-50868 cost sweep — each runs the full
//! pipeline (generate → instantiate zones/resolvers → scan over the
//! simulated network → aggregate).
//!
//! # Parallelism and determinism
//!
//! Every driver is a `run_*_cfg` function taking an explicit
//! [`DriverConfig`]; [`DriverConfig::from_env`] is the one place the
//! environment (`HEROES_THREADS`, `HEROES_FAULTS`) is read. Work is cut
//! into units of fixed index ranges (a census batch, a fleet batch, one
//! zone), each shard runs whole units on labs of its **own** (the
//! `Rc`-based simulation is deliberately not `Send`), and results merge
//! in index order. `threads = 1` and `threads = N` are byte-identical
//! because a unit's observations never depend on the units beside it,
//! no fault decision reads a lab's seed, and the resolver study pins
//! every address (see [`run_resolver_study_cfg`]).
//!
//! # Faults and loss accounting
//!
//! Every [`DriverConfig`] carries a [`ScanProfile`]: a
//! [`FaultSchedule`] layered onto each lab network, a [`RetryPolicy`]
//! for every probe, and a circuit-breaker config. Probe traffic is
//! accounted in a [`ProbeStats`] (merged shard-wise by plain sums)
//! satisfying `sent = answered + timed_out + circuit_skipped`.
//! Every fault is an [`EpisodeKind`] whose decisions hash the schedule
//! seed with the episode and the flow. A unit's lab starts its clock and
//! flow counters at zero, and the unit's first index is mixed into its
//! schedule seed, so loss, corruption, duplication, latency, outages and
//! rate limits replay identically across thread counts and lab seeds at
//! every batch size. The resolver study's one testbed per shard is the
//! exception: under time windows its retry counts (never its
//! classifications) follow the thread count.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::ops::Range;

use analysis::domains::{DomainRecord, DomainStats, DomainTally};
use analysis::resolvers::{Panel, ResolverTally};
use dns_resolver::lab::{LabBuilder, ZoneSpec};
use dns_resolver::resolver::{Resolver, ResolverConfig};
use dns_resolver::Rfc9276Policy;
use dns_scanner::atlas::classification_flow_via_probe;
use dns_scanner::census::{exclusive_operator, Census, CensusProbe, DomainObservation};
use dns_scanner::prober::{ProbeFlow, Prober, ResolverClassification};
use dns_scanner::retry::{BreakerConfig, ProbeStats};
use dns_wire::name::{Name, MAX_NAME_LEN};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::{Rcode, RrType};
use dns_zone::nsec3hash::Nsec3Params;
use dns_zone::signer::Denial;
use dns_zone::Zone;
use netsim::event::FlowStep;
use netsim::{Episode, EpisodeKind, FaultSchedule, Network, RetryPolicy, Scope};
use popgen::domains::{DnssecKind, DomainGenerator, DomainSpec};
use popgen::resolvers::{Access, Family, ResolverSpec};
use popgen::tlds::TldSpec;
use popgen::Scale;

use crate::fleet::deploy_fleet;
use crate::study::{run_study, ShardRun};
use crate::testbed::build_testbed_seeded;

/// Default lab-network seed for every experiment driver — the value the
/// sequential drivers have always used.
pub const DEFAULT_LAB_SEED: u64 = 42;

/// Default in-flight window for the event-driven drivers: how many probe
/// flows one shard keeps live at once on a fault-free network. Large
/// enough that admission never starves the event queue, small enough
/// that a shard's live state stays a few megabytes.
pub const DEFAULT_WINDOW: usize = 32_768;

/// How a scan run deals with an imperfect network: the faults to inject,
/// the retry policy every probe uses, and the per-target circuit
/// breaker. [`ScanProfile::clean`] reproduces the historical drivers
/// byte for byte.
#[derive(Clone, Debug)]
pub struct ScanProfile {
    /// Fault schedule installed on every lab network the driver builds.
    pub schedule: FaultSchedule,
    /// Retry policy for every probe (resolver upstream queries included).
    pub retry: RetryPolicy,
    /// Circuit-breaker configuration for direct prober traffic.
    pub breaker: BreakerConfig,
}

impl ScanProfile {
    /// No faults, the historical fixed two-attempt retry, breaker off —
    /// behaviorally identical to the pre-profile drivers.
    pub fn clean() -> Self {
        ScanProfile {
            schedule: FaultSchedule::default(),
            retry: RetryPolicy::fixed(2),
            breaker: BreakerConfig::disabled(),
        }
    }

    /// A reproducible lossy Internet: 5 % flow-keyed loss plus a small
    /// jittered latency spike everywhere, adaptive backoff, breaker on.
    /// Every driver replays it identically across thread counts.
    pub(crate) fn lossy(seed: u64) -> Self {
        ScanProfile {
            schedule: FaultSchedule {
                size_limit: None,
                seed,
                episodes: vec![
                    Episode::always(EpisodeKind::Flap {
                        scope: Scope::All,
                        drop_chance: 0.05,
                    }),
                    Episode::always(EpisodeKind::LatencySpike {
                        scope: Scope::All,
                        extra_micros: 2_000,
                        jitter_micros: 1_000,
                    }),
                ],
            },
            retry: RetryPolicy::adaptive(seed ^ 0x9276),
            breaker: BreakerConfig::default(),
        }
    }

    /// The profile a `HEROES_FAULTS` value names: `lossy` (seeded from
    /// [`DEFAULT_LAB_SEED`]), or clean when the variable is unset or empty.
    fn named(faults: &str) -> Self {
        match faults.trim() {
            "" => ScanProfile::clean(),
            "lossy" => ScanProfile::lossy(DEFAULT_LAB_SEED),
            other => panic!("HEROES_FAULTS={other:?} is not a fault profile: use \"lossy\", or leave it unset for the clean network"),
        }
    }
}

/// Every knob the experiment drivers share: each `run_*_cfg` entry point
/// takes one of these.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Validation epoch the labs are built at.
    pub now: u32,
    /// Worker count for the sharded pipelines; output is identical for
    /// every value.
    pub threads: usize,
    /// Seed every lab network derives from. It decides no fault (the
    /// profile's schedule seeds those), so no output depends on it.
    pub lab_seed: u64,
    /// Fault schedule + retry policy + breaker for every probe.
    pub profile: ScanProfile,
    /// Requested in-flight window per shard for the event-driven
    /// pipelines. The *effective* window is this value on fault-free
    /// networks and 1 under any fault schedule (see
    /// [`DriverConfig::effective_window`]); output is identical for
    /// every value.
    pub window: usize,
}

impl DriverConfig {
    /// Explicit parallelism on a clean network. `lab_seed` reaches every
    /// lab network and decides nothing there (see
    /// [`DriverConfig::lab_seed`]).
    pub fn clean(now: u32, threads: usize, lab_seed: u64) -> Self {
        DriverConfig {
            now,
            threads,
            lab_seed,
            profile: ScanProfile::clean(),
            window: DEFAULT_WINDOW,
        }
    }

    /// Environment-driven configuration: `HEROES_THREADS` picks the
    /// worker count (default 1), `HEROES_FAULTS=lossy` selects
    /// `ScanProfile::lossy` seeded from [`DEFAULT_LAB_SEED`] (unset or
    /// empty, the clean profile); the lab seed is [`DEFAULT_LAB_SEED`]
    /// and the window [`DEFAULT_WINDOW`].
    ///
    /// # Panics
    ///
    /// Panics on any other `HEROES_FAULTS` value: a mistyped profile must
    /// not run, and pass, as the clean one.
    #[allow(clippy::disallowed_methods)] // the drivers' one environment read
    pub fn from_env(now: u32) -> Self {
        let faults = std::env::var("HEROES_FAULTS").unwrap_or_default();
        DriverConfig::clean(now, sim_par::default_threads(), DEFAULT_LAB_SEED)
            .with_profile(ScanProfile::named(&faults))
    }

    /// The same configuration under `profile`.
    pub fn with_profile(mut self, profile: ScanProfile) -> Self {
        self.profile = profile;
        self
    }

    /// The same configuration with an explicit in-flight window.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// The in-flight window the event core actually runs: the full
    /// requested window when the fault schedule is inert, and 1 — the
    /// exact sequential schedule — under faults. Fault decisions key off
    /// per-flow counters *and* the virtual clock, and the clock's
    /// trajectory depends on interleaving; a window of 1 replays every
    /// [`RetryPolicy`] and [`FaultSchedule`] decision precisely as the
    /// blocking pipeline made them. An inert schedule makes no fault
    /// decision and fault-free networks produce no clock-dependent
    /// output, so the wide window is output-invariant there.
    pub fn effective_window(&self) -> usize {
        if self.profile.schedule.is_inert() {
            self.window.max(1)
        } else {
            1
        }
    }
}

/// `num / den`, or 0 when nothing was counted — every per-query average
/// and share the reports offer.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `name` as the apex of a lab zone, or `None` when it cannot be one: it
/// has to parse, and it has to leave room for a 32-octet label, because
/// an NSEC3-signed zone owns `<base32 hash>.<apex>` names (which also
/// covers the `ns1` and `hostmaster` names every lab zone gets).
pub(crate) fn lab_apex(name: &str) -> Option<Name> {
    let apex = Name::parse(name).ok()?;
    (apex.wire_len() + 33 <= MAX_NAME_LEN).then_some(apex)
}

/// `zone` as lab zone contents, signed (or not) the way `dnssec` says.
pub(crate) fn zone_spec(zone: Zone, dnssec: &DnssecKind) -> ZoneSpec {
    match dnssec {
        DnssecKind::None => ZoneSpec::unsigned(zone),
        DnssecKind::Nsec => ZoneSpec::new(zone, Denial::Nsec),
        DnssecKind::Nsec3 {
            iterations,
            salt_len,
            opt_out,
        } => ZoneSpec::new(
            zone,
            Denial::Nsec3 {
                params: Nsec3Params::new(*iterations, vec![0xA5; *salt_len as usize]),
                opt_out: *opt_out,
            },
        ),
    }
}

/// The zone every lab zone starts from: `apex` with one address record,
/// `192.0.2.<host>`.
pub(crate) fn apex_zone(apex: &Name, host: u8) -> Zone {
    let mut zone = Zone::new(apex.clone());
    let address = RData::A(Ipv4Addr::new(192, 0, 2, host));
    zone.add(Record::new(apex.clone(), 300, address))
        .expect("an apex is inside its own zone");
    zone
}

/// Turn a population spec into lab zone contents under `apex`, a name
/// [`lab_apex`] accepted: it leaves room for the `www` label, and the
/// operator names are the population's static, short ones.
fn zone_spec_for_domain(spec: &DomainSpec, apex: &Name) -> ZoneSpec {
    let mut zone = apex_zone(apex, 10);
    let www = apex
        .prepend(b"www")
        .expect("a lab apex leaves room for www");
    zone.add(Record::new(
        www,
        300,
        RData::A(Ipv4Addr::new(192, 0, 2, 11)),
    ))
    .expect("www is inside its zone");
    // Operator attribution travels in the apex NS RRset (child side), as
    // the census reads it. Parent-side delegation NS records are wired by
    // the lab independently (mismatched parent/child NS is routine in the
    // wild).
    if let Some(op) = spec.operator {
        let op = Name::parse(op).expect("an operator name parses");
        for ns in [b"ns1", b"ns2"] {
            let target = op.prepend(ns).expect("an operator name is short");
            zone.add(Record::new(apex.clone(), 3600, RData::Ns(target)))
                .expect("the apex is inside its zone");
        }
    }
    zone_spec(zone, &spec.dnssec)
}

/// A lab builder holding `specs` as zones under their TLDs (RFC 9276
/// NSEC3 zones), plus every spec's apex, parsed once for the builder and
/// the caller alike: `None` where the spec yields no zone (its name does
/// not parse, or leaves no room for a 32-octet NSEC3 owner label).
pub(crate) fn domain_lab(specs: &[DomainSpec], now: u32) -> (LabBuilder, Vec<Option<Name>>) {
    let apexes: Vec<Option<Name>> = specs.iter().map(|s| lab_apex(&s.name)).collect();
    let tlds: BTreeSet<Name> = apexes
        .iter()
        .flatten()
        .filter_map(Name::parent)
        .filter(|p| !p.is_root())
        .collect();
    let mut builder = LabBuilder::new(now);
    for tld in &tlds {
        builder = builder.simple_zone(tld, Denial::nsec3_rfc9276());
    }
    for (spec, apex) in specs.iter().zip(&apexes) {
        if let Some(apex) = apex {
            builder = builder.zone(zone_spec_for_domain(spec, apex));
        }
    }
    (builder, apexes)
}

/// The analysis record one census observation yields for `spec`.
fn record_from_observation(spec: &DomainSpec, obs: DomainObservation) -> DomainRecord {
    DomainRecord {
        name: spec.name.clone(),
        dnssec: obs.dnssec_enabled,
        nsec3: obs
            .class
            .nsec3_enabled()
            .map(|p| (p.iterations, p.salt.len() as u8)),
        opt_out: obs.opt_out,
        operator: exclusive_operator(&obs.ns_targets).map(|n| n.to_string()),
        probe_loss: obs.probe_loss,
    }
}

/// One event-core step of a census probe: run its next phase, and park
/// it at the lab's current time unless that was the last one.
fn census_step(census: &Census<'_>, net: &Network, probe: &mut CensusProbe) -> FlowStep {
    if probe.step(census) {
        FlowStep::Done
    } else {
        FlowStep::Park {
            at_micros: net.now_micros(),
        }
    }
}

/// Run one census batch through the event core: instantiate the batch's
/// zones in a private lab, admit one [`CensusProbe`] flow per domain
/// under the run's window, and return the finished records **in batch
/// order**. A spec that yielded no zone gets no probe either.
///
/// With a window of 1 the event queue degenerates to the exact
/// sequential schedule of the historical blocking loop: admit one probe,
/// step it to completion, admit the next. `first` is the batch's first
/// index in the population, the key of its lab's faults.
fn census_batch(shard: &ShardRun<'_>, first: usize, batch: &[DomainSpec]) -> Vec<DomainRecord> {
    let (builder, mut apexes) = domain_lab(batch, shard.cfg.now);
    let mut lab = builder.seed(shard.seed).build();
    let resolver = shard.resolver(&mut lab, first, |_| {});
    let census = Census::new(&lab.net, &resolver, "census").with_session(&shard.session);
    shard.drive_indexed(
        &lab.net,
        batch.len(),
        |i| apexes[i].take().map(CensusProbe::new),
        |probe| census_step(&census, &lab.net, probe),
        |i, probe| record_from_observation(&batch[i], probe.into_observation()),
    )
}

/// The census's oracle: declared specs as the analysis records a
/// faultless scan of them yields (`census_measures_what_popgen_declares`
/// compares the two), and the source of §5.1 statistics where
/// instantiating every zone is too slow — a debug-build test.
pub fn records_from_specs(specs: &[DomainSpec]) -> Vec<DomainRecord> {
    specs
        .iter()
        .map(|s| DomainRecord {
            name: s.name.clone(),
            dnssec: s.dnssec != DnssecKind::None,
            nsec3: s.nsec3().map(|(it, salt, _)| (it, salt)),
            opt_out: s.nsec3().map(|(_, _, o)| o).unwrap_or(false),
            operator: s.operator.map(String::from),
            probe_loss: false,
        })
        .collect()
}

/// Aggregate outcome of a [`run_domain_census_stream`] run. The full
/// record list is never materialized — only these order-insensitive
/// aggregates leave the pipeline.
#[derive(Clone, Debug)]
pub struct StreamCensusReport {
    /// §5.1 statistics over every record the census produced.
    pub stats: DomainStats,
    /// Loss-accounted probe traffic, merged across shards.
    pub probe_stats: ProbeStats,
    /// Maximum probe flows simultaneously in flight in any one shard —
    /// the event core's high-water mark.
    pub in_flight_high_water: usize,
}

/// The §4.1 census over the whole population at `scale`, fully
/// streaming: each shard walks its index range through a
/// [`DomainGenerator`] (O(1) random access), materializes one
/// `batch_size` batch of specs and its lab at a time, pumps the batch
/// through the event core, and folds every record straight into a
/// [`DomainTally`]. Peak memory is O(batch + window), independent of the
/// population size, so a million-domain census runs with the same
/// footprint as a ten-thousand-domain one.
///
/// Batch `k` is population indices `[k·b, (k+1)·b)` with faults of its
/// own at every thread count and the tally merge is order-insensitive, so
/// at a given batch size the report is the same at every thread count
/// under any fault profile; a spec that yields no lab zone (its apex is
/// too long to sign) gets no probe and no record.
pub fn run_domain_census_stream(
    scale: Scale,
    population_seed: u64,
    batch_size: usize,
    cfg: &DriverConfig,
) -> StreamCensusReport {
    let total = usize::try_from(popgen::domain_count(scale)).expect("population fits in memory");
    let run = run_study(total, batch_size, cfg, |shard, _| {
        let generator = DomainGenerator::new(scale, population_seed);
        let mut tally = DomainTally::new();
        for batch in shard.units() {
            let first = batch.start;
            let batch: Vec<DomainSpec> = batch.map(|i| generator.get(i as u64)).collect();
            for record in census_batch(shard, first, &batch) {
                tally.add(&record);
            }
        }
        tally
    });
    let mut tally = DomainTally::new();
    for part in run.parts {
        tally.merge(part);
    }
    StreamCensusReport {
        stats: tally.finish(),
        probe_stats: run.probe_stats,
        in_flight_high_water: run.in_flight_high_water,
    }
}

/// What the end-to-end TLD census measured for one TLD.
#[derive(Clone, Debug)]
pub struct TldObservation {
    /// The TLD.
    pub name: String,
    /// DNSKEY present.
    pub dnssec: bool,
    /// Measured NSEC3 parameters `(iterations, salt_len)`.
    pub nsec3: Option<(u16, u8)>,
    /// Opt-out flag observed on NSEC3 records.
    pub opt_out: bool,
    /// Zone transfer succeeded (the CZDS/AXFR sharing signal).
    pub axfr_ok: bool,
    /// Delegations counted from the transferred zone (scaled), if shared.
    pub delegations: Option<u64>,
}

/// Run the TLD census end to end: instantiate every TLD as a real signed
/// zone under the root (with `domains_scale`-scaled delegations inside),
/// scan each one, and attempt the paper's zone-file collection via AXFR
/// for the TLDs that share zone data. Returns the merged per-shard
/// [`ProbeStats`] alongside the observations. Each batch of `TLD_BATCH`
/// TLDs shares a private lab and root, the same batches at every thread
/// count, so the output equals the sequential one under any faults.
pub fn run_tld_census_cfg(
    tlds: &[TldSpec],
    domains_scale: f64,
    cfg: &DriverConfig,
) -> (Vec<TldObservation>, ProbeStats) {
    let run = run_study(tlds.len(), TLD_BATCH, cfg, |shard, _| {
        let batch = |b: Range<usize>| tld_batch(shard, b.start, &tlds[b], domains_scale);
        shard.units().flat_map(batch).collect::<Vec<_>>()
    });
    (run.parts.into_iter().flatten().collect(), run.probe_stats)
}

/// TLDs the TLD census stands up in one lab, under one root.
const TLD_BATCH: usize = 8;

/// Lab zone contents for one TLD under its parsed name: an apex address
/// plus the scaled registry contents — insecure delegations, the bulk of
/// a real TLD zone (and what opt-out exists for).
fn zone_spec_for_tld(tld: &TldSpec, apex: &Name, domains_scale: f64) -> Option<ZoneSpec> {
    let mut zone = apex_zone(apex, 77);
    let delegations = ((tld.est_domains as f64 * domains_scale).round() as u64).min(200);
    for i in 0..delegations {
        let child = apex.prepend(format!("reg{i}").as_bytes()).ok()?;
        let ns = child.prepend(b"ns").ok()?;
        zone.add(Record::new(child, 3600, RData::Ns(ns))).ok()?;
    }
    Some(zone_spec(zone, &tld.dnssec))
}

/// One batch of the TLD census, the TLDs from population index `first`
/// on: the event-driven pipeline over `tlds` in a lab of their own.
fn tld_batch(
    shard: &ShardRun<'_>,
    first: usize,
    tlds: &[TldSpec],
    domains_scale: f64,
) -> Vec<TldObservation> {
    // Every TLD name is parsed once; a TLD that yields no zone gets no
    // probe either.
    let mut apexes: Vec<Option<Name>> = tlds.iter().map(|t| lab_apex(&t.name)).collect();
    let mut builder = LabBuilder::new(shard.cfg.now).seed(shard.seed);
    for (tld, apex) in tlds.iter().zip(&mut apexes) {
        let zs = apex
            .as_ref()
            .and_then(|a| zone_spec_for_tld(tld, a, domains_scale));
        match zs {
            Some(zs) => builder = builder.zone(zs),
            None => *apex = None,
        }
    }
    let mut lab = builder.build();
    // Enable AXFR on the sharing TLDs' servers.
    for (tld, apex) in tlds.iter().zip(&apexes) {
        if let (true, Some(apex)) = (tld.shares_zone, apex) {
            lab.auths[apex].allow_axfr(apex);
        }
    }
    let resolver = shard.resolver(&mut lab, first, |_| {});
    let census = Census::new(&lab.net, &resolver, "tlds").with_session(&shard.session);
    let xfer_src = lab.alloc.v4();
    // One flow per TLD: the census probe phases, then — preserving the
    // blocking pipeline's per-TLD order — the AXFR attempt inside the
    // step that completes the probe.
    shard.drive_indexed(
        &lab.net,
        tlds.len(),
        |i| {
            let apex = apexes[i].take()?;
            Some((CensusProbe::new(apex.clone()), apex))
        },
        |(probe, _)| census_step(&census, &lab.net, probe),
        |i, (probe, apex)| {
            let obs = probe.into_observation();
            let (v4, _) = lab.servers[&apex];
            let transferred = dns_scanner::walk::axfr(&lab.net, xfer_src, v4, &apex);
            let delegations = transferred.as_ref().map(|records| {
                let cuts: BTreeSet<&Name> = records
                    .iter()
                    .filter(|rec| rec.rrtype() == RrType::NS && rec.name != apex)
                    .map(|rec| &rec.name)
                    .collect();
                cuts.len() as u64
            });
            TldObservation {
                name: tlds[i].name.clone(),
                dnssec: obs.dnssec_enabled,
                nsec3: obs
                    .class
                    .nsec3_enabled()
                    .map(|p| (p.iterations, p.salt.len() as u8)),
                opt_out: obs.opt_out,
                axfr_ok: transferred.is_some(),
                delegations,
            }
        },
    )
}

/// Results of the §4.2 resolver study, grouped into Figure 3 panels.
pub struct ResolverStudy {
    /// Classifications per panel. Unreachable and partially-probed
    /// resolvers are included — they stay in the study denominator.
    pub per_panel: BTreeMap<Panel, Vec<ResolverClassification>>,
    /// Loss-accounted probe traffic, merged across shards.
    pub stats: ProbeStats,
}

impl ResolverStudy {
    /// All classifications across panels. This copies every one of them;
    /// a report that reads only counts folds with
    /// [`run_resolver_tally_cfg`] instead.
    pub fn all(&self) -> Vec<ResolverClassification> {
        self.per_panel.values().flatten().cloned().collect()
    }
}

/// The resolver study's unit: fleet members a shard deploys and
/// classifies at a time on its one testbed. A member is unregistered, and
/// its caches freed, once its unit is classified.
const FLEET_BATCH: usize = 256;

/// Lab addresses `deploy_fleet` consumes for `specs`, per family: one
/// per open resolver, two per closed resolver (resolver + Atlas probe).
/// A shard pre-skips the amounts its predecessors would consume so every
/// resolver receives the same address regardless of sharding.
fn fleet_addr_consumption(specs: &[ResolverSpec]) -> (u32, u128) {
    let mut v4 = 0u32;
    let mut v6 = 0u128;
    for s in specs {
        let n = match s.access {
            Access::Open => 1u32,
            Access::Closed => 2,
        };
        match s.family {
            Family::V4 => v4 += n,
            Family::V6 => v6 += u128::from(n),
        }
    }
    (v4, v6)
}

/// Build a fresh `rfc9276-in-the-wild.com` testbed at `cfg.now`, deploy
/// `specs` against it, and classify every resolver: open ones from the
/// scanner's vantage, closed ones through their Atlas probes. A shard's
/// one testbed hands each resolver the address a sequential run would,
/// so its probe labels and classification do not depend on the thread
/// count. Every classification is kept — resolvers whose probes were all
/// lost come back `unreachable`, partially-covered ones `partial` — and
/// the merged [`ProbeStats`] ride along in [`ResolverStudy::stats`].
pub fn run_resolver_study_cfg(specs: &[ResolverSpec], cfg: &DriverConfig) -> ResolverStudy {
    let run = run_study(specs.len(), FLEET_BATCH, cfg, |shard, range| {
        let mut part = Vec::with_capacity(range.len());
        resolver_shard(shard, specs, range, |panel, c| part.push((panel, c)));
        part
    });
    let mut per_panel: BTreeMap<Panel, Vec<ResolverClassification>> = BTreeMap::new();
    for (panel, classification) in run.parts.into_iter().flatten() {
        per_panel.entry(panel).or_default().push(classification);
    }
    ResolverStudy {
        per_panel,
        stats: run.probe_stats,
    }
}

/// [`run_resolver_study_cfg`] folded as it runs: each classification goes
/// into its panel's [`ResolverTally`] the moment its flow finishes and is
/// dropped, so the study's memory does not grow with the fleet. At every
/// thread count it equals the collected study's classifications folded
/// per panel.
pub fn run_resolver_tally_cfg(
    specs: &[ResolverSpec],
    cfg: &DriverConfig,
) -> (ResolverTally, ProbeStats) {
    let run = run_study(specs.len(), FLEET_BATCH, cfg, |shard, range| {
        let mut part = ResolverTally::default();
        resolver_shard(shard, specs, range, |panel, c| part.add(panel, &c));
        part
    });
    let mut tally = ResolverTally::default();
    run.parts.into_iter().for_each(|part| tally.merge(part));
    (tally, run.probe_stats)
}

/// One shard of the resolver study: classify `specs[range]` on a private
/// testbed, a unit at a time, every classification a [`ProbeFlow`]
/// stepped through the event core at wire-attempt granularity and handed
/// to `sink` in index order. The testbed's faults are the profile's as
/// they are: each resolver's traffic runs on flows of its own.
fn resolver_shard(
    shard: &ShardRun<'_>,
    specs: &[ResolverSpec],
    range: Range<usize>,
    mut sink: impl FnMut(Panel, ResolverClassification),
) {
    let profile = &shard.cfg.profile;
    let mut tb = build_testbed_seeded(shard.cfg.now, shard.seed);
    tb.lab.net.set_schedule(profile.schedule.clone());
    // Scanner vantages first (before the fleet, at a fixed offset), then
    // pre-skip the predecessors' fleet allocations: both keep every
    // address shard-invariant. Scanner source addresses never appear in
    // the output, only resolver addresses do.
    let scanner_v4 = tb.lab.alloc.v4();
    let scanner_v6 = tb.lab.alloc.v6();
    let (consumed_v4, consumed_v6) = fleet_addr_consumption(&specs[..range.start]);
    tb.lab.alloc.skip_v4(consumed_v4);
    tb.lab.alloc.skip_v6(consumed_v6);
    for batch in shard.units() {
        let deployed = deploy_fleet(&mut tb.lab, &specs[batch]);
        let net = &tb.lab.net;
        let classified = shard.drive_indexed(
            net,
            deployed.len(),
            |i| {
                let d = &deployed[i];
                Some(match &d.probe {
                    Some(probe) => classification_flow_via_probe(
                        net,
                        probe,
                        &tb.plan,
                        profile.retry,
                        &shard.session,
                    ),
                    None => {
                        let src = match d.spec.family {
                            Family::V4 => scanner_v4,
                            Family::V6 => scanner_v6,
                        };
                        Prober::new(net, src, &tb.plan)
                            .with_session(&shard.session, profile.retry)
                            .classification_flow(d.addr)
                    }
                })
            },
            ProbeFlow::step,
            |i, flow| {
                let spec = &deployed[i].spec;
                let panel = match (spec.access, spec.family) {
                    (Access::Open, Family::V4) => Panel::OpenV4,
                    (Access::Open, Family::V6) => Panel::OpenV6,
                    (Access::Closed, Family::V4) => Panel::ClosedV4,
                    (Access::Closed, Family::V6) => Panel::ClosedV6,
                };
                (panel, flow.into_classification())
            },
        );
        deployed.iter().for_each(|d| net.unregister(d.addr));
        for (panel, classification) in classified {
            sink(panel, classification);
        }
    }
}

/// Result of the unreachability experiment (§5.2 / abstract: "as 418
/// resolvers do not accept any additional iteration count higher than 0,
/// they potentially render 13.6 M domains unavailable to end users").
#[derive(Clone, Copy, Debug, Default)]
pub struct Unreachability {
    /// NSEC3-enabled domains probed.
    pub probed: u64,
    /// Domains whose negative lookups SERVFAIL through the strict resolver.
    pub unreachable: u64,
    /// Domains that keep working (zero additional iterations).
    pub reachable: u64,
    /// Domains whose probes were lost to network faults: neither
    /// reachable nor unreachable, just unmeasured.
    /// `reachable + unreachable + lost == probed` always holds.
    pub lost: u64,
}

impl Unreachability {
    /// Share of NSEC3-enabled domains rendered unreachable (paper: 87.8 %).
    pub fn unreachable_pct(&self) -> f64 {
        ratio(self.unreachable, self.probed) * 100.0
    }
}

/// Measure the abstract's unreachability claim end to end: instantiate a
/// sample of NSEC3-enabled domains as real zones, resolve a nonexistent
/// name under each through a SERVFAIL-from-it-1 resolver (the 418
/// query-copier class), `batch_size` domains to a lab, and count the
/// failures. Lost probes land in [`Unreachability::lost`] instead of
/// inflating the unreachable count, and the merged [`ProbeStats`] ride
/// along. Shards return partial counts which sum to the sequential totals
/// (addition is order-independent, so this driver needs no merge-order
/// argument).
pub fn run_unreachability_cfg(
    specs: &[DomainSpec],
    batch_size: usize,
    cfg: &DriverConfig,
) -> (Unreachability, ProbeStats) {
    let sample: Vec<DomainSpec> = specs
        .iter()
        .filter(|s| s.nsec3().is_some())
        .cloned()
        .collect();
    let run = run_study(sample.len(), batch_size, cfg, |shard, _| {
        let mut result = Unreachability::default();
        for batch in shard.units() {
            let first = batch.start;
            let (builder, apexes) = domain_lab(&sample[batch], shard.cfg.now);
            let mut lab = builder.seed(shard.seed).build();
            // The strict class: SERVFAIL for any NSEC3 iteration count > 0.
            let strict = |rcfg: &mut ResolverConfig| rcfg.policy = Rfc9276Policy::servfail_above(0);
            let resolver = shard.resolver(&mut lab, first, strict);
            // One single-step flow per domain that got a zone: the whole
            // strict-resolver lookup runs inside its first step, so any
            // window yields the sequential order (all flows are due at
            // admission time and the queue is FIFO at equal times) — the
            // counts are plain sums regardless.
            let mut probes = apexes
                .iter()
                .flatten()
                .filter_map(|apex| apex.prepend(b"does-not-exist").ok());
            shard.drive(
                &lab.net,
                || probes.next(),
                |probe: &mut Name| {
                    let out = resolver.resolve(&lab.net, probe, RrType::A);
                    result.probed += 1;
                    if shard.session.book(&out) {
                        result.lost += 1;
                    } else if out.rcode == Rcode::ServFail {
                        result.unreachable += 1;
                    } else {
                        result.reachable += 1;
                    }
                    FlowStep::Done
                },
            );
        }
        result
    });
    let mut result = Unreachability::default();
    for part in run.parts {
        result.probed += part.probed;
        result.unreachable += part.unreachable;
        result.reachable += part.reachable;
        result.lost += part.lost;
    }
    (result, run.probe_stats)
}

/// One point of the CVE-2023-50868 cost sweep.
#[derive(Clone, Copy, Debug)]
pub struct CvePoint {
    /// Additional iterations of the target zone.
    pub iterations: u16,
    /// Salt length of the target zone.
    pub salt_len: u8,
    /// SHA-1 compressions the resolver spent validating one NXDOMAIN.
    pub compressions: u64,
    /// NSEC3 hash chains computed.
    pub hashes: u64,
    /// Virtual time spent, microseconds.
    pub virtual_micros: u64,
}

/// Sweep validation cost across iteration counts and salt lengths,
/// querying one unique nonexistent (deep) name per configuration through
/// an unlimited validating resolver.
pub fn cve_cost_sweep(points: &[(u16, u8)], now: u32) -> Vec<CvePoint> {
    let mut out = Vec::with_capacity(points.len());
    for &(iterations, salt_len) in points {
        let apex = Name::parse("victim.example.").unwrap();
        let lab_builder = LabBuilder::new(now)
            .simple_zone(&Name::parse("example.").unwrap(), Denial::nsec3_rfc9276())
            .zone(ZoneSpec::new(
                apex_zone(&apex, 10),
                Denial::Nsec3 {
                    params: Nsec3Params::new(iterations, vec![0x5a; salt_len as usize]),
                    opt_out: false,
                },
            ));
        let mut lab = lab_builder.build();
        let raddr = lab.alloc.v4();
        let mut cfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.policy = Rfc9276Policy::unlimited();
        let resolver = Resolver::new(cfg);
        let qname = Name::parse("a.b.c.d.attack.victim.example.").unwrap();
        let t0 = lab.net.now_micros();
        let outcome = resolver.resolve(&lab.net, &qname, RrType::A);
        assert_eq!(outcome.rcode, dns_wire::rrtype::Rcode::NxDomain);
        out.push(CvePoint {
            iterations,
            salt_len,
            compressions: outcome.cost.sha1_compressions,
            hashes: outcome.cost.nsec3_hashes,
            virtual_micros: lab.net.now_micros() - t0,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use popgen::Scale;

    const NOW: u32 = 1_710_000_000;

    #[test]
    fn fault_profiles_are_named_exactly() {
        assert!(ScanProfile::named("").schedule.is_inert());
        assert!(!ScanProfile::named("lossy").schedule.is_inert());
        assert!(!ScanProfile::named(" lossy\n").schedule.is_inert());
    }

    #[test]
    #[should_panic(expected = "is not a fault profile")]
    fn a_mistyped_fault_profile_does_not_run_clean() {
        ScanProfile::named("lossey");
    }

    /// A census report rendered for comparison: the §5.1 statistics, the
    /// Table 2 attribution `DomainStats`' `Debug` leaves out, and the
    /// probe accounting.
    fn census_digest(report: &StreamCensusReport) -> String {
        let operators = analysis::operator_table(&report.stats, usize::MAX);
        format!(
            "{:?}\n{operators:?}\n{:?}",
            report.stats, report.probe_stats
        )
    }

    #[test]
    fn census_measures_what_popgen_declares() {
        let scale = Scale(1.0 / 2_000_000.0);
        let report = run_domain_census_stream(scale, 3, 40, &DriverConfig::from_env(NOW));
        let declared =
            DomainStats::compute(&records_from_specs(&popgen::generate_domains(scale, 3)));
        assert_eq!(format!("{:?}", report.stats), format!("{declared:?}"));
        // A domain declared without an operator may still be attributed
        // one from its lab NS records: compare the declared operators.
        let declared = analysis::operator_table(&declared, usize::MAX);
        let mut measured = analysis::operator_table(&report.stats, usize::MAX);
        measured.retain(|row| declared.iter().any(|d| d.operator == row.operator));
        assert!(!declared.is_empty(), "the sample declares operators");
        assert_eq!(format!("{measured:?}"), format!("{declared:?}"));
    }

    #[test]
    fn unreachability_matches_non_compliance_share() {
        // The strict resolver breaks negative lookups for exactly the
        // non-zero-iteration domains: the unreachable share must equal the
        // non-compliance share of the sample.
        let specs = popgen::generate_domains(Scale(1.0 / 1_000_000.0), 9);
        let nsec3: Vec<_> = specs.iter().filter(|s| s.nsec3().is_some()).collect();
        assert!(nsec3.len() >= 10, "sample large enough: {}", nsec3.len());
        let expected_unreachable = nsec3.iter().filter(|s| s.nsec3().unwrap().0 > 0).count() as u64;
        let result = run_unreachability_cfg(&specs, 100, &DriverConfig::from_env(NOW)).0;
        assert_eq!(result.probed, nsec3.len() as u64);
        assert_eq!(result.unreachable, expected_unreachable);
        assert_eq!(result.lost, 0, "clean network loses nothing");
        assert_eq!(
            result.reachable + result.unreachable + result.lost,
            result.probed
        );
    }

    #[test]
    fn wide_window_matches_sequential_schedule_and_accounts_probes() {
        // The event core's whole correctness claim in one test: a wide
        // in-flight window (interleaved probe flows) must reproduce the
        // window-of-one sequential schedule byte for byte on a clean
        // network.
        let scale = Scale(1.0 / 2_000_000.0);
        let base = DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED);
        let sequential = run_domain_census_stream(scale, 3, 10, &base.clone().with_window(1));
        let wide = run_domain_census_stream(scale, 3, 10, &base.with_window(DEFAULT_WINDOW));
        assert_eq!(census_digest(&wide), census_digest(&sequential));
        assert_eq!(sequential.in_flight_high_water, 1);
        assert!(wide.in_flight_high_water > 1, "the wide window interleaves");
        assert_eq!(wide.stats.lost, 0, "clean network never loses probes");
        let stats = wide.probe_stats;
        assert!(stats.is_consistent(), "{stats:?}");
        assert!(stats.sent > 0, "census probes are accounted");
        assert_eq!(stats.timed_out, 0, "clean network times nothing out");
        assert_eq!(stats.circuit_skipped, 0);
    }

    #[test]
    fn tld_census_measures_declared_parameters() {
        // A slice of the real TLD population, scanned end to end.
        let tlds: Vec<_> = popgen::generate_tlds().into_iter().step_by(37).collect();
        let observed = run_tld_census_cfg(&tlds, 1.0 / 100_000.0, &DriverConfig::from_env(NOW)).0;
        assert_eq!(observed.len(), tlds.len());
        for (obs, spec) in observed.iter().zip(tlds.iter()) {
            assert_eq!(obs.name, spec.name);
            match &spec.dnssec {
                popgen::domains::DnssecKind::None => assert!(!obs.dnssec, "{}", obs.name),
                popgen::domains::DnssecKind::Nsec => {
                    assert!(obs.dnssec);
                    assert_eq!(obs.nsec3, None, "{}", obs.name);
                }
                popgen::domains::DnssecKind::Nsec3 {
                    iterations,
                    salt_len,
                    opt_out,
                } => {
                    assert_eq!(obs.nsec3, Some((*iterations, *salt_len)), "{}", obs.name);
                    // Opt-out observable only when an NSEC3 record was
                    // returned with the flag (needs the probe to hit an
                    // NXDOMAIN with records) — flag equality holds when
                    // observed.
                    if obs.opt_out {
                        assert!(*opt_out, "{}", obs.name);
                    }
                }
            }
            assert_eq!(obs.axfr_ok, spec.shares_zone, "{}", obs.name);
            if spec.shares_zone {
                assert!(obs.delegations.is_some());
            }
        }
    }

    /// A name under `com.` that is exactly `wire_len` octets on the wire.
    fn name_of_wire_len(wire_len: usize) -> String {
        // "com" (4 octets) and the root (1), then full 63-octet labels and
        // one shorter label making up the rest.
        let mut rest = wire_len - 5;
        let mut name = String::new();
        while rest > 0 {
            let label = (rest - 1).min(63);
            name.push_str(&"a".repeat(label));
            name.push('.');
            rest -= label + 1;
        }
        name.push_str("com.");
        assert_eq!(Name::parse(&name).unwrap().wire_len(), wire_len);
        name
    }

    #[test]
    fn census_skips_unservable_apexes() {
        // An NSEC3-signed zone owns `<32-octet label>.<apex>` names, so an
        // apex over 222 wire octets cannot be signed (and one over 245
        // cannot even take the lab's `hostmaster` name): `domain_lab`
        // gives such a spec no zone, and the census skips its index.
        let spec = |name: String, iterations| DomainSpec {
            name,
            operator: None,
            dnssec: DnssecKind::Nsec3 {
                iterations,
                salt_len: 4,
                opt_out: false,
            },
        };
        let census = |specs: &[DomainSpec]| {
            let cfg = DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED);
            let run = run_study(specs.len(), specs.len(), &cfg, |shard, range| {
                census_batch(shard, range.start, &specs[range])
            });
            assert!(run.probe_stats.is_consistent(), "{:?}", run.probe_stats);
            let records = run.parts.into_iter().flatten();
            records.map(|r| (r.name, r.nsec3)).collect::<Vec<_>>()
        };
        let specs = [
            spec("first.com.".into(), 0),
            spec(name_of_wire_len(223), 0),
            spec(name_of_wire_len(250), 0),
            spec("last.com.".into(), 5),
        ];
        assert_eq!(
            census(&specs),
            [
                ("first.com.".to_string(), Some((0, 4))),
                ("last.com.".to_string(), Some((5, 4)))
            ]
        );
        let longest = name_of_wire_len(222);
        assert_eq!(
            census(&[spec(longest.clone(), 3)]),
            [(longest, Some((3, 4)))],
            "the longest signable apex is still measured"
        );
    }

    #[test]
    fn cve_sweep_shows_linear_blowup() {
        let points = cve_cost_sweep(&[(0, 0), (150, 8), (500, 8)], NOW);
        assert_eq!(points.len(), 3);
        let base = points[0].compressions;
        let mid = points[1].compressions;
        let high = points[2].compressions;
        assert!(mid > base * 50, "150 iterations: {mid} vs {base}");
        assert!(high > mid * 2, "500 iterations: {high} vs {mid}");
    }
}
