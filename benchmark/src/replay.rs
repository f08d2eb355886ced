//! The traced replay: each driver's single-shard pipeline rebuilt from
//! the public layer APIs, with a span around every call into a layer.
//!
//! The drivers' shard bodies are private, so the pipelines are restated
//! here — lab stand-up, resolver configuration, the `drive` loop, the
//! tally — following `crates/core` line for line. What keeps the copy
//! honest is the check at the end of a traced run: the replay must return
//! a report whose [`crate::workloads::Outcome`] (items, messages, probe
//! accounting, rendered-report digest) equals the real driver's on the
//! same inputs. A refactor of a driver that changes what it does shows
//! up as `trace.replay_matches_driver = 0` until the replay is adapted.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use analysis::domains::{DomainRecord, DomainTally};
use analysis::resolvers::Panel;
use analysis::ResolverStats;
use dns_resolver::broken::{FlakyResolver, QueryCopier};
use dns_resolver::lab::{simple_zone_contents, Lab, LabBuilder, ZoneSpec};
use dns_resolver::resolver::{RecursionStep, Resolver, ResolverConfig};
use dns_resolver::Rfc9276Policy;
use dns_scanner::atlas::{classification_flow_via_probe, AtlasProbe, ClosedResolver};
use dns_scanner::census::{exclusive_operator, Census, CensusProbe};
use dns_scanner::prober::{ProbeFlow, Prober, ResolverClassification};
use dns_scanner::retry::ScanSession;
use dns_wire::edns::EdeCode;
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::{Rcode, RrType};
use dns_zone::nsec3hash::Nsec3Params;
use dns_zone::signer::{Denial, SignerConfig};
use dns_zone::Zone;
use netsim::event::{drive, DriveStats, FlowStep};
use netsim::Node;
use nsec3_core::experiments::{DriverConfig, ResolverStudy, StreamCensusReport};
use nsec3_core::fleet::{policy_for, DeployedResolver};
use nsec3_core::hierarchy::{mis_anchor, ChainReport, ChainStudy, ChainTally};
use nsec3_core::serving::{ServingReport, ServingScenario, ServingTally};
use nsec3_core::testbed::build_testbed_seeded;
use popgen::domains::{DnssecKind, DomainSpec};
use popgen::hierarchy::{ChainScenario, HierarchyGenerator, HierarchyTld};
use popgen::resolvers::{Access, Behavior, Family, ResolverSpec};
use popgen::traffic::TrafficGenerator;
use popgen::{DomainGenerator, Scale};
use sim_rng::SplitMix64;

use crate::trace::{NodeStats, TimedNode, Tracer, WireCapture};
use crate::workloads::{build_inputs, driver_config, Inputs, Report, Size, Workload};

/// Span names. The part before the first `.` is the layer a span's self
/// time is billed to.
pub mod span {
    /// The whole replay; its self time is what no layer span covers.
    pub const ROOT: &str = "replay";
    /// A `popgen` generator call.
    pub const POPGEN: &str = "popgen";
    /// Population spec → `ZoneSpec` and `LabBuilder` queueing.
    pub const LAB_SPEC: &str = "lab.spec";
    /// `LabBuilder::build` (or `build_testbed_seeded`): wiring, signing,
    /// server stand-up.
    pub const LAB_BUILD: &str = "lab.build";
    /// Freeing a finished lab (zones, servers, network).
    pub const LAB_DROP: &str = "lab.drop";
    /// Fleet deployment onto a lab (`Resolver::new` per member).
    pub const LAB_DEPLOY: &str = "lab.deploy";
    /// `CensusProbe::step` / `ProbeFlow::step`.
    pub const SCANNER: &str = "scanner.step";
    /// `Resolver::resolve` answered from the answer cache.
    pub const RESOLVER_HIT: &str = "resolver.hit";
    /// `Resolver::resolve` answered by RFC 8198 synthesis.
    pub const RESOLVER_SYNTH: &str = "resolver.synth";
    /// `Resolver::resolve` that recursed upstream.
    pub const RESOLVER_FORWARD: &str = "resolver.forward";
    /// One `Recursion::step` (or `begin_recursion`) of the chain study.
    pub const RESOLVER_STEP: &str = "resolver.step";
    /// A fleet resolver's `Node::handle` on the network.
    pub const RESOLVER_NODE: &str = "resolver.node";
    /// An authoritative server's `Node::handle`.
    pub const AUTH: &str = "auth";
    /// `DomainTally::add` / `finish`, `ResolverStats::compute`.
    pub const ANALYSIS: &str = "analysis";
    /// One `netsim::event::drive` call; its self time is the event core
    /// plus the driver's own closure code that no inner span covers.
    pub const DRIVE: &str = "netsim.drive";
    /// The replay's own bookkeeping per lab (re-registering servers
    /// behind `TimedNode`s, keeping zones for the sign replay): tracing
    /// overhead, billed to no layer.
    pub const ADOPT: &str = "trace.adopt";
}

/// Deterministic counts the replay gathers next to its spans.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Specs, queries or TLDs the `popgen` generators produced.
    pub popgen_items: u64,
    /// Labs stood up.
    pub lab_builds: u64,
    /// Zones across those labs (roots and TLDs included).
    pub lab_zones: u64,
    /// Datagrams the lab networks delivered.
    pub datagrams: u64,
    /// Datagrams the lab networks lost.
    pub lost: u64,
    /// Virtual time across the lab networks, µs.
    pub virt_micros: u64,
    /// Steps the event core executed.
    pub drive_steps: u64,
    /// Deepest in-flight backlog.
    pub in_flight_high_water: u64,
    /// Records folded by the analysis layer.
    pub analysis_records: u64,
    /// `Resolver::resolve` calls (or recursions begun) made directly by
    /// the pipeline; fleet nodes count in `NodeStats` instead.
    pub resolver_calls: u64,
    /// SHA-1 compressions metered by the resolvers.
    pub sha1_compressions: u64,
    /// NSEC3 hash chains metered by the resolvers.
    pub nsec3_hashes: u64,
    /// Signature verifications metered by the resolvers.
    pub signatures: u64,
    /// Upstream messages metered by the resolvers.
    pub upstream_messages: u64,
    /// Answer-cache hits / misses.
    pub answer_hits: u64,
    /// Answer-cache misses.
    pub answer_misses: u64,
    /// Validated-key-cache hits.
    pub key_hits: u64,
    /// Validated-key-cache misses.
    pub key_misses: u64,
    /// RFC 8198 synthesized NXDOMAINs.
    pub synthesized: u64,
    /// Delegation-cache hits.
    pub delegation_hits: u64,
    /// Delegation-cache misses.
    pub delegation_misses: u64,
    /// Delegation-cache evictions.
    pub delegation_evictions: u64,
    /// Resolvers whose meters could not be read (they are owned by a
    /// `QueryCopier`/`FlakyResolver` wrapper).
    pub unmetered_resolvers: u64,
}

/// Everything one traced replay shares between its closures.
pub struct Ctx {
    /// The span recorder.
    pub tracer: Rc<Tracer>,
    /// Datagrams seen at every wrapped node.
    pub wire: Rc<WireCapture>,
    /// Authoritative-server traffic.
    pub auth: Rc<NodeStats>,
    /// Fleet-resolver traffic (resolver study only).
    pub fleet: Rc<NodeStats>,
    counters: RefCell<Counters>,
    /// Per-item virtual latency, µs.
    item_virt_us: RefCell<Vec<u64>>,
    /// Every signed zone stood up, unsigned again, with its signer
    /// configuration — the `zone` layer's replay input.
    sign_jobs: RefCell<Vec<(Zone, SignerConfig)>>,
    cfg: DriverConfig,
}

impl Ctx {
    /// A fresh context on the clean single-thread driver configuration.
    pub fn new() -> Self {
        Ctx {
            tracer: Rc::new(Tracer::new()),
            wire: Rc::default(),
            auth: Rc::default(),
            fleet: Rc::default(),
            counters: RefCell::default(),
            item_virt_us: RefCell::default(),
            sign_jobs: RefCell::default(),
            cfg: driver_config(1),
        }
    }

    /// The counters gathered so far.
    pub fn counters(&self) -> Counters {
        self.counters.borrow().clone()
    }

    /// Take the per-item virtual latencies, sorted.
    pub fn take_item_virt_us_sorted(&self) -> Vec<u64> {
        let mut v = std::mem::take(&mut *self.item_virt_us.borrow_mut());
        v.sort_unstable();
        v
    }

    /// Take the sign-replay jobs.
    pub fn take_sign_jobs(&self) -> Vec<(Zone, SignerConfig)> {
        std::mem::take(&mut self.sign_jobs.borrow_mut())
    }

    fn count(&self, f: impl FnOnce(&mut Counters)) {
        f(&mut self.counters.borrow_mut());
    }

    fn timed(
        &self,
        inner: Rc<dyn Node>,
        name: &'static str,
        stats: &Rc<NodeStats>,
    ) -> Rc<dyn Node> {
        Rc::new(TimedNode::new(
            inner,
            name,
            self.tracer.clone(),
            stats.clone(),
            self.wire.clone(),
        ))
    }

    /// Count a freshly built lab, put every live authoritative server
    /// behind a [`TimedNode`], and queue its signed zones for the sign
    /// replay. Lame zones stay unregistered.
    fn adopt_lab(&self, lab: &Lab) {
        let id = self.tracer.enter(span::ADOPT);
        self.count(|c| {
            c.lab_builds += 1;
            c.lab_zones += lab.zones.len() as u64;
        });
        for (apex, &(v4, v6)) in &lab.servers {
            if !lab.net.is_registered(v4) {
                continue;
            }
            let auth: Rc<dyn Node> = lab.auths[apex].clone();
            let timed = self.timed(auth, span::AUTH, &self.auth);
            for addr in [v4, v6] {
                lab.net.unregister(addr);
                lab.net.register(addr, timed.clone());
            }
        }
        let mut jobs = self.sign_jobs.borrow_mut();
        for (apex, signed) in &lab.zones {
            if signed.keys.is_empty() {
                continue;
            }
            let mut unsigned = Zone::new(apex.clone());
            for rec in signed.zone.iter() {
                let generated = matches!(
                    rec.rrtype(),
                    RrType::RRSIG
                        | RrType::NSEC
                        | RrType::NSEC3
                        | RrType::NSEC3PARAM
                        | RrType::DNSKEY
                );
                if !generated {
                    unsigned
                        .add(rec.clone())
                        .expect("a signed zone's own records re-add");
                }
            }
            jobs.push((
                unsigned,
                SignerConfig {
                    denial: signed.denial.clone(),
                    ..SignerConfig::standard(apex, lab.now)
                },
            ));
        }
        drop(jobs);
        self.tracer.exit(id);
    }

    /// Read a finished lab's network counters and tear it down.
    fn retire_lab(&self, lab: Lab) {
        self.count(|c| {
            c.datagrams += lab.net.delivered_count();
            c.lost += lab.net.lost_count();
            c.virt_micros += lab.net.now_micros();
        });
        self.tracer.span(span::LAB_DROP, || drop(lab));
    }

    /// Read a finished resolver's meters and cache counters.
    fn retire_resolver(&self, r: &Resolver) {
        let cost = r.total_cost();
        self.count(|c| {
            c.sha1_compressions += cost.sha1_compressions;
            c.nsec3_hashes += cost.nsec3_hashes;
            c.signatures += cost.signatures_verified;
            c.upstream_messages += cost.messages_sent;
            c.answer_hits += r.cache_hits();
            c.answer_misses += r.cache_misses();
            c.key_hits += r.key_cache_hits();
            c.key_misses += r.key_cache_misses();
            c.synthesized += r.synthesized_nxdomains();
            c.delegation_hits += r.delegation_hits();
            c.delegation_misses += r.delegation_misses();
            c.delegation_evictions += r.delegation_evictions();
        });
    }

    fn note_drive(&self, stats: &DriveStats) {
        self.count(|c| {
            c.drive_steps += stats.steps;
            c.in_flight_high_water = c
                .in_flight_high_water
                .max(stats.in_flight_high_water as u64);
        });
    }

    fn note_item_latency(&self, micros: u64) {
        self.item_virt_us.borrow_mut().push(micros);
    }
}

/// Replay `workload` under `ctx` — input generation included — and
/// return the report the real driver produces at `threads = 1`.
pub fn replay(ctx: &Ctx, workload: Workload, size: Size, seed: u64) -> Report {
    ctx.tracer.span(span::ROOT, || {
        let inputs = ctx
            .tracer
            .span(span::POPGEN, || build_inputs(workload, size, seed));
        match &inputs {
            Inputs::Census { scale, seed, batch } => {
                Report::Census(census_stream(ctx, *scale, *seed, *batch))
            }
            Inputs::Resolvers(specs) => {
                ctx.count(|c| c.popgen_items += specs.len() as u64);
                let study = resolver_study(ctx, specs);
                ctx.count(|c| c.analysis_records += specs.len() as u64);
                let stats = ctx
                    .tracer
                    .span(span::ANALYSIS, || ResolverStats::compute(&study.all()));
                Report::Study(study, stats)
            }
            Inputs::Serving(scenario) => {
                ctx.count(|c| c.popgen_items += scenario.domains.len() as u64);
                Report::Serving(serving(ctx, scenario))
            }
            Inputs::Chain(study) => Report::Chain(chain_study(ctx, study)),
        }
    })
}

/// Lab zone spec for `zone` signed (or not) per `dnssec` — the rule both
/// `experiments::zone_spec_for_domain` and `hierarchy::zone_spec_for`
/// apply.
fn zone_spec_for(zone: Zone, dnssec: &DnssecKind) -> ZoneSpec {
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

/// `experiments::zone_spec_for_domain`: a population spec as lab zone
/// contents (apex and `www` A records, operator NS targets).
fn zone_spec_for_domain(spec: &DomainSpec) -> Option<ZoneSpec> {
    let apex = Name::parse(&spec.name).ok()?;
    let mut zone = Zone::new(apex.clone());
    let a = |ip: &str| RData::A(ip.parse().expect("literal address"));
    zone.add(Record::new(apex.clone(), 300, a("192.0.2.10")))
        .ok()?;
    let www = Name::parse("www").ok()?.concat(&apex).ok()?;
    zone.add(Record::new(www, 300, a("192.0.2.11"))).ok()?;
    if let Some(op) = spec.operator {
        for ns in ["ns1", "ns2"] {
            let target = Name::parse(ns).ok()?.concat(&Name::parse(op).ok()?).ok()?;
            zone.add(Record::new(apex.clone(), 3600, RData::Ns(target)))
                .ok()?;
        }
    }
    Some(zone_spec_for(zone, &spec.dnssec))
}

/// The TLD zones `domains` hang under (what every census batch and
/// serving lab adds as RFC 9276 NSEC3 zones).
fn parent_tlds(domains: &[DomainSpec]) -> BTreeSet<Name> {
    domains
        .iter()
        .filter_map(|s| Name::parse(&s.name).ok()?.parent())
        .filter(|p| !p.is_root())
        .collect()
}

/// A lab holding `domains` under their TLDs: the stand-up shared by
/// `census_batch` and `serving_unit`. Returns the lab and the names that
/// produced no zone.
fn domain_lab(ctx: &Ctx, domains: &[DomainSpec], lab_seed: u64) -> (Lab, BTreeSet<String>) {
    let mut skipped = BTreeSet::new();
    let builder = ctx.tracer.span(span::LAB_SPEC, || {
        let mut builder = LabBuilder::new(ctx.cfg.now).seed(lab_seed);
        for tld in &parent_tlds(domains) {
            builder = builder.simple_zone(tld, Denial::nsec3_rfc9276());
        }
        for spec in domains {
            match zone_spec_for_domain(spec) {
                Some(zs) => builder = builder.zone(zs),
                None => {
                    skipped.insert(spec.name.clone());
                }
            }
        }
        builder
    });
    let lab = ctx.tracer.span(span::LAB_BUILD, || builder.build());
    ctx.adopt_lab(&lab);
    lab.net.set_schedule(ctx.cfg.profile.schedule.clone());
    (lab, skipped)
}

/// The unlimited validating resolver the census and serving pipelines
/// put in front of a lab.
fn lab_resolver_config(ctx: &Ctx, lab: &mut Lab) -> ResolverConfig {
    let raddr = lab.alloc.v4();
    let mut rcfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
    rcfg.now = lab.now;
    rcfg.policy = Rfc9276Policy::unlimited();
    rcfg.retry = ctx.cfg.profile.retry;
    rcfg
}

/// `experiments::run_domain_census_stream` on one shard.
fn census_stream(ctx: &Ctx, scale: Scale, seed: u64, batch_size: usize) -> StreamCensusReport {
    let total = popgen::domain_count(scale);
    let plan = sim_par::range_shards(total, 1, ctx.cfg.lab_seed);
    let window = ctx.cfg.effective_window();
    let session = ScanSession::new(ctx.cfg.profile.breaker);
    let mut tally = DomainTally::new();
    let mut high_water = 0usize;
    for shard in &plan {
        let generator = ctx
            .tracer
            .span(span::POPGEN, || DomainGenerator::new(scale, seed));
        let batch_size = batch_size.max(1) as u64;
        let mut start = shard.start;
        while start < shard.end {
            let end = (start + batch_size).min(shard.end);
            let batch: Vec<DomainSpec> = ctx.tracer.span(span::POPGEN, || {
                (start..end).map(|i| generator.get(i)).collect()
            });
            ctx.count(|c| c.popgen_items += batch.len() as u64);
            let stats = census_batch(ctx, &batch, shard.seed, window, &session, &mut |rec| {
                ctx.count(|c| c.analysis_records += 1);
                ctx.tracer.span(span::ANALYSIS, || tally.add(&rec));
            });
            high_water = high_water.max(stats.in_flight_high_water);
            start = end;
        }
    }
    // On a clean network every accounted probe phase is one
    // `Resolver::resolve` call.
    ctx.count(|c| c.resolver_calls += session.stats().sent);
    StreamCensusReport {
        stats: ctx.tracer.span(span::ANALYSIS, || tally.finish()),
        probe_stats: session.stats(),
        in_flight_high_water: high_water,
    }
}

/// `experiments::census_batch`.
fn census_batch(
    ctx: &Ctx,
    batch: &[DomainSpec],
    lab_seed: u64,
    window: usize,
    session: &ScanSession,
    sink: &mut dyn FnMut(DomainRecord),
) -> DriveStats {
    let (mut lab, skipped) = domain_lab(ctx, batch, lab_seed);
    let resolver = Resolver::new(lab_resolver_config(ctx, &mut lab));
    let census = Census::new(&lab.net, &resolver, "census").with_session(session);
    let mut slots: Vec<Option<DomainRecord>> = Vec::new();
    slots.resize_with(batch.len(), || None);
    let mut next = 0usize;
    let net = &lab.net;
    let drive_span = ctx.tracer.enter(span::DRIVE);
    let stats = drive(
        window,
        || {
            while next < batch.len() {
                let i = next;
                next += 1;
                if skipped.contains(&batch[i].name) {
                    continue;
                }
                match Name::parse(&batch[i].name) {
                    Ok(domain) => {
                        return Some((i, Some(CensusProbe::new(domain)), net.now_micros()))
                    }
                    Err(_) => continue,
                }
            }
            None
        },
        |(i, probe, admitted): &mut (usize, Option<CensusProbe>, u64), due| {
            let vnow = net.now_micros();
            if due > vnow {
                net.advance(due - vnow);
            }
            let p = probe.as_mut().expect("live census probe");
            if ctx.tracer.span(span::SCANNER, || p.step(&census)) {
                let obs = probe
                    .take()
                    .expect("finished census probe")
                    .into_observation();
                ctx.note_item_latency(net.now_micros() - *admitted);
                let spec = &batch[*i];
                slots[*i] = Some(DomainRecord {
                    name: spec.name.clone(),
                    dnssec: obs.dnssec_enabled,
                    nsec3: obs
                        .class
                        .nsec3_enabled()
                        .map(|p| (p.iterations, p.salt.len() as u8)),
                    opt_out: obs.opt_out,
                    operator: exclusive_operator(&obs.ns_targets).map(|n| n.to_string()),
                    probe_loss: obs.probe_loss,
                });
                FlowStep::Done
            } else {
                FlowStep::Park {
                    at_micros: net.now_micros(),
                }
            }
        },
    );
    ctx.tracer.exit(drive_span);
    for slot in &mut slots {
        if let Some(record) = slot.take() {
            sink(record);
        }
    }
    ctx.note_drive(&stats);
    ctx.retire_resolver(&resolver);
    ctx.retire_lab(lab);
    stats
}

/// `fleet::deploy_fleet`, with every member's node behind a
/// [`TimedNode`]. Plain resolvers stay reachable for their meters;
/// copier and flaky members own theirs.
fn deploy_fleet_timed(
    ctx: &Ctx,
    lab: &mut Lab,
    specs: &[ResolverSpec],
) -> (Vec<DeployedResolver>, Vec<Rc<Resolver>>) {
    let mut out = Vec::with_capacity(specs.len());
    let mut metered = Vec::new();
    for spec in specs {
        let addr = match spec.family {
            Family::V4 => lab.alloc.v4(),
            Family::V6 => lab.alloc.v6(),
        };
        let mut cfg = ResolverConfig::validating(addr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.policy = policy_for(&spec.behavior, spec.ede_visible);
        if spec.behavior == Behavior::NonValidator {
            cfg.validate = false;
            cfg.trust_anchors.clear();
        }
        let node: Rc<dyn Node> = match spec.behavior {
            Behavior::QueryCopier => {
                ctx.count(|c| c.unmetered_resolvers += 1);
                Rc::new(QueryCopier::new(Resolver::new(cfg)))
            }
            Behavior::FlakyGap {
                insecure,
                servfail_from,
            } => {
                ctx.count(|c| c.unmetered_resolvers += 1);
                Rc::new(FlakyResolver::with_gap(
                    Resolver::new(cfg),
                    insecure,
                    servfail_from.saturating_sub(1),
                ))
            }
            _ => {
                let resolver = Rc::new(Resolver::new(cfg));
                metered.push(resolver.clone());
                resolver
            }
        };
        let node = ctx.timed(node, span::RESOLVER_NODE, &ctx.fleet);
        let probe = match spec.access {
            Access::Open => {
                lab.net.register(addr, node);
                None
            }
            Access::Closed => {
                let probe_addr = match spec.family {
                    Family::V4 => lab.alloc.v4(),
                    Family::V6 => lab.alloc.v6(),
                };
                lab.net
                    .register(addr, Rc::new(ClosedResolver::new(node, [probe_addr])));
                Some(AtlasProbe {
                    addr: probe_addr,
                    local_resolver: addr,
                })
            }
        };
        out.push(DeployedResolver {
            spec: spec.clone(),
            addr,
            probe,
        });
    }
    (out, metered)
}

/// `experiments::run_resolver_study_cfg` on one shard (so no fleet
/// addresses are pre-skipped).
fn resolver_study(ctx: &Ctx, specs: &[ResolverSpec]) -> ResolverStudy {
    let mut per_panel: BTreeMap<Panel, Vec<ResolverClassification>> = BTreeMap::new();
    let mut probe_stats = dns_scanner::retry::ProbeStats::default();
    for shard in sim_par::shards(specs.len(), 1, ctx.cfg.lab_seed) {
        let slice = &specs[shard.start..shard.end];
        let mut tb = ctx.tracer.span(span::LAB_BUILD, || {
            build_testbed_seeded(ctx.cfg.now, shard.seed)
        });
        ctx.adopt_lab(&tb.lab);
        tb.lab.net.set_schedule(ctx.cfg.profile.schedule.clone());
        let session = ScanSession::new(ctx.cfg.profile.breaker);
        let scanner_v4 = tb.lab.alloc.v4();
        let scanner_v6 = tb.lab.alloc.v6();
        let (deployed, metered) = ctx.tracer.span(span::LAB_DEPLOY, || {
            deploy_fleet_timed(ctx, &mut tb.lab, slice)
        });
        let mut slots: Vec<Option<(Panel, ResolverClassification)>> = Vec::new();
        slots.resize_with(deployed.len(), || None);
        let mut next = 0usize;
        let net = &tb.lab.net;
        let retry = ctx.cfg.profile.retry;
        let drive_span = ctx.tracer.enter(span::DRIVE);
        let stats = drive(
            ctx.cfg.effective_window(),
            || {
                if next >= deployed.len() {
                    return None;
                }
                let i = next;
                next += 1;
                let d = &deployed[i];
                let panel = match (d.spec.access, d.spec.family) {
                    (Access::Open, Family::V4) => Panel::OpenV4,
                    (Access::Open, Family::V6) => Panel::OpenV6,
                    (Access::Closed, Family::V4) => Panel::ClosedV4,
                    (Access::Closed, Family::V6) => Panel::ClosedV6,
                };
                let flow = match &d.probe {
                    Some(probe) => {
                        classification_flow_via_probe(net, probe, &tb.plan, retry, &session)
                    }
                    None => {
                        let src = match d.spec.family {
                            Family::V4 => scanner_v4,
                            Family::V6 => scanner_v6,
                        };
                        Prober::new(net, src, &tb.plan)
                            .with_session(&session, retry)
                            .classification_flow(d.addr)
                    }
                };
                Some((i, panel, Some(flow), net.now_micros()))
            },
            |(i, panel, flow, admitted): &mut (usize, Panel, Option<ProbeFlow<'_>>, u64), due| {
                let vnow = net.now_micros();
                if due > vnow {
                    net.advance(due - vnow);
                }
                let live = flow.as_mut().expect("live classification flow");
                match ctx.tracer.span(span::SCANNER, || live.step()) {
                    FlowStep::Park { at_micros } => FlowStep::Park { at_micros },
                    FlowStep::Done => {
                        let classification = flow
                            .take()
                            .expect("finished classification flow")
                            .into_classification();
                        ctx.note_item_latency(net.now_micros() - *admitted);
                        slots[*i] = Some((*panel, classification));
                        FlowStep::Done
                    }
                }
            },
        );
        ctx.tracer.exit(drive_span);
        ctx.note_drive(&stats);
        for (panel, classification) in slots.into_iter().flatten() {
            per_panel.entry(panel).or_default().push(classification);
        }
        probe_stats.merge(&session.stats());
        for resolver in &metered {
            ctx.retire_resolver(resolver);
        }
        ctx.retire_lab(tb.lab);
    }
    ResolverStudy {
        per_panel,
        stats: probe_stats,
    }
}

/// `serving::client_block`: the contiguous client block of one member.
fn client_block(clients: u64, fleet: u64, member: u64) -> (u64, u64) {
    let base = clients / fleet;
    let extra = clients % fleet;
    let start = member * base + member.min(extra);
    (start, start + base + u64::from(member < extra))
}

/// `serving::run_serving_cfg` on one shard: every fleet member in turn.
fn serving(ctx: &Ctx, scenario: &ServingScenario) -> ServingReport {
    let fleet = scenario.fleet.max(1) as u64;
    let session = ScanSession::new(ctx.cfg.profile.breaker);
    let mut tally = ServingTally::default();
    let mut high_water = 0usize;
    for member in 0..fleet {
        high_water = high_water.max(serving_unit(
            ctx, scenario, member, fleet, &session, &mut tally,
        ));
    }
    ServingReport {
        tally,
        probe_stats: session.stats(),
        in_flight_high_water: high_water,
    }
}

/// `serving::serving_unit`.
fn serving_unit(
    ctx: &Ctx,
    scenario: &ServingScenario,
    member: u64,
    fleet: u64,
    session: &ScanSession,
    tally: &mut ServingTally,
) -> usize {
    let (c_lo, c_hi) = client_block(scenario.traffic.clients, fleet, member);
    let qpc = scenario.traffic.queries_per_client;
    let (q_lo, q_hi) = (c_lo * qpc, c_hi * qpc);
    if q_lo >= q_hi {
        return 0;
    }
    let member_seed =
        SplitMix64::new(ctx.cfg.lab_seed ^ member.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    let (mut lab, _) = domain_lab(ctx, &scenario.domains, member_seed);
    let mut rcfg = lab_resolver_config(ctx, &mut lab);
    rcfg.cache_size = scenario.cache_size;
    rcfg.aggressive_nsec3 = scenario.aggressive;
    rcfg.delegation_cache = scenario.delegation_cache;
    let resolver = Resolver::new(rcfg);
    let generator = ctx.tracer.span(span::POPGEN, || {
        TrafficGenerator::new(scenario.traffic.clone(), scenario.domains.len() as u64)
    });
    let mut next = q_lo;
    let net = &lab.net;
    let drive_span = ctx.tracer.enter(span::DRIVE);
    let stats = drive(
        ctx.cfg.effective_window(),
        || {
            while next < q_hi {
                let qname = ctx.tracer.span(span::POPGEN, || {
                    let q = generator.get(next);
                    q.qname(&scenario.domains[q.domain as usize].name)
                });
                ctx.count(|c| c.popgen_items += 1);
                next += 1;
                if let Ok(parsed) = Name::parse(&qname) {
                    return Some(parsed);
                }
            }
            None
        },
        |qname: &mut Name, due| {
            let vnow = net.now_micros();
            if due > vnow {
                net.advance(due - vnow);
            }
            let hits_before = resolver.cache_hits();
            let synth_before = resolver.synthesized_nxdomains();
            let issued_at = net.now_micros();
            let id = ctx.tracer.enter(span::RESOLVER_FORWARD);
            let out = resolver.resolve(net, qname, RrType::A);
            let hit = resolver.cache_hits() > hits_before;
            let synth = resolver.synthesized_nxdomains() > synth_before;
            ctx.tracer.exit_as(
                id,
                if hit {
                    span::RESOLVER_HIT
                } else if synth {
                    span::RESOLVER_SYNTH
                } else {
                    span::RESOLVER_FORWARD
                },
            );
            let latency = net.now_micros() - issued_at;
            ctx.note_item_latency(latency);
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
            if hit {
                tally.served_cache += 1;
                session.note_answered(out.cost.retries);
            } else if synth {
                tally.synthesized += 1;
                session.note_answered(out.cost.retries);
            } else if out.rcode == Rcode::ServFail && out.cost.timeouts > 0 {
                session.note_timed_out(out.cost.retries);
                tally.lost += 1;
            } else {
                tally.forwarded += 1;
                if out.rcode == Rcode::NxDomain {
                    tally.upstream_nxdomain += 1;
                }
                session.note_answered(out.cost.retries);
            }
            FlowStep::Done
        },
    );
    ctx.tracer.exit(drive_span);
    tally.answer_hits += resolver.cache_hits();
    tally.answer_misses += resolver.cache_misses();
    tally.key_hits += resolver.key_cache_hits();
    tally.key_misses += resolver.key_cache_misses();
    tally.delegation_hits += resolver.delegation_hits();
    tally.delegation_misses += resolver.delegation_misses();
    tally.delegation_evictions += resolver.delegation_evictions();
    ctx.note_drive(&stats);
    ctx.count(|c| c.resolver_calls += stats.completed);
    ctx.retire_resolver(&resolver);
    ctx.retire_lab(lab);
    stats.in_flight_high_water
}

/// The EDE text `dns_resolver` attaches to anchor-mismatch SERVFAILs.
const ANCHOR_MISMATCH_TEXT: &str = "trust anchor mismatch";

/// `hierarchy::add_tld_to_lab`.
fn add_tld_to_lab(mut builder: LabBuilder, tld: &HierarchyTld) -> LabBuilder {
    let apex = Name::parse(&tld.spec.name).expect("TLD apex parses");
    let mut zs = zone_spec_for(Zone::new(apex), &tld.spec.dnssec);
    match tld.scenario {
        ChainScenario::BrokenDs => zs.broken_ds = true,
        ChainScenario::InsecureDelegation => zs.unsigned_delegation = true,
        ChainScenario::LameDelegation => zs.lame = true,
        ChainScenario::Intact | ChainScenario::MisAnchoredTld => {}
    }
    builder = builder.zone(zs);
    for leaf in &tld.leaves {
        let leaf_apex = Name::parse(&leaf.name).expect("leaf apex parses");
        builder = builder.zone(zone_spec_for(
            simple_zone_contents(&leaf_apex),
            &leaf.dnssec,
        ));
    }
    builder
}

/// `hierarchy::probes_for`.
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

/// `hierarchy::run_chain_study_cfg` on one shard: one private lab and
/// one recursing resolver per TLD.
fn chain_study(ctx: &Ctx, study: &ChainStudy) -> ChainReport {
    let tlds = ctx.tracer.span(span::POPGEN, || {
        HierarchyGenerator::new(study.model.clone()).tlds()
    });
    ctx.count(|c| c.popgen_items += tlds.len() as u64);
    let window = ctx.cfg.effective_window();
    let session = ScanSession::new(ctx.cfg.profile.breaker);
    let mut tallies: BTreeMap<String, ChainTally> = BTreeMap::new();
    for shard in sim_par::shards(tlds.len(), 1, ctx.cfg.lab_seed) {
        for tld in &tlds[shard.start..shard.end] {
            let builder = ctx.tracer.span(span::LAB_SPEC, || {
                add_tld_to_lab(LabBuilder::new(ctx.cfg.now).seed(shard.seed), tld)
            });
            let mut lab = ctx.tracer.span(span::LAB_BUILD, || builder.build());
            ctx.adopt_lab(&lab);
            lab.net.set_schedule(ctx.cfg.profile.schedule.clone());
            let raddr = lab.alloc.v4();
            let mut rcfg =
                ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
            rcfg.now = lab.now;
            rcfg.retry = ctx.cfg.profile.retry;
            rcfg.delegation_cache = true;
            if tld.scenario == ChainScenario::MisAnchoredTld {
                let apex = Name::parse(&tld.spec.name).expect("TLD apex parses");
                rcfg.trust_anchors.push(mis_anchor(&apex));
            }
            let resolver = Resolver::new(rcfg);
            let probes = probes_for(tld, study.probe_nxdomain);
            let tally = tallies.entry(tld.scenario.key().to_string()).or_default();
            let net = &lab.net;
            let mut machine = None;
            let mut probe_idx = 0usize;
            let mut admitted = false;
            let mut begun_at = 0u64;
            let drive_span = ctx.tracer.enter(span::DRIVE);
            let stats = drive(
                window,
                || {
                    if admitted || probes.is_empty() {
                        return None;
                    }
                    admitted = true;
                    Some(())
                },
                |_flow: &mut (), due| {
                    let vnow = net.now_micros();
                    if due > vnow {
                        net.advance(due - vnow);
                    }
                    let step = ctx.tracer.span(span::RESOLVER_STEP, || {
                        if machine.is_none() {
                            begun_at = net.now_micros();
                            machine =
                                Some(resolver.begin_recursion(net, &probes[probe_idx], RrType::A));
                        }
                        machine.as_mut().expect("machine in place").step(net)
                    });
                    match step {
                        RecursionStep::Pending => FlowStep::Park {
                            at_micros: net.now_micros(),
                        },
                        RecursionStep::Done(out) => {
                            machine = None;
                            ctx.note_item_latency(net.now_micros() - begun_at);
                            tally.queries += 1;
                            tally.upstream_messages += out.cost.messages_sent;
                            if out.budget_exceeded {
                                session.note_answered(out.cost.retries);
                                tally.budget_exceeded += 1;
                            } else if out.rcode == Rcode::ServFail {
                                if out.cost.timeouts > 0 {
                                    session.note_timed_out(out.cost.retries);
                                    tally.lost += 1;
                                } else {
                                    session.note_answered(out.cost.retries);
                                    match &out.ede {
                                        Some((_, text))
                                            if text.as_str() == ANCHOR_MISMATCH_TEXT =>
                                        {
                                            tally.bogus_anchor += 1
                                        }
                                        Some((code, _)) if *code == EdeCode::DNSKEY_MISSING => {
                                            tally.lame += 1
                                        }
                                        Some(_) => tally.bogus += 1,
                                        None => tally.lame += 1,
                                    }
                                }
                            } else {
                                session.note_answered(out.cost.retries);
                                if out.authenticated {
                                    tally.secure += 1;
                                } else {
                                    tally.insecure += 1;
                                }
                            }
                            probe_idx += 1;
                            if probe_idx >= probes.len() {
                                FlowStep::Done
                            } else {
                                FlowStep::Park {
                                    at_micros: net.now_micros(),
                                }
                            }
                        }
                    }
                },
            );
            ctx.tracer.exit(drive_span);
            tally.delegation_hits += resolver.delegation_hits();
            tally.delegation_misses += resolver.delegation_misses();
            tally.delegation_evictions += resolver.delegation_evictions();
            ctx.note_drive(&stats);
            ctx.count(|c| c.resolver_calls += probes.len() as u64);
            ctx.retire_resolver(&resolver);
            ctx.retire_lab(lab);
        }
    }
    ChainReport {
        per_scenario: tallies,
        probe_stats: session.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::totals_by_name;
    use crate::workloads::{run_driver, summarize};

    /// The replay restates private driver code; this is what notices when
    /// the two drift apart. Two seeds, so nothing rides on seed 42.
    fn assert_replay_equals_driver(workload: Workload) {
        for seed in [42, 7] {
            let driver = summarize(&run_driver(&build_inputs(workload, Size::Smoke, seed), 1));
            let ctx = Ctx::new();
            let replayed = summarize(&replay(&ctx, workload, Size::Smoke, seed));
            assert_eq!(replayed, driver, "{} seed {seed}", workload.name());
            assert!(driver.invariant_failures.is_empty(), "{driver:?}");
            assert_eq!(driver.failed, 0, "clean network loses nothing");
            // The spans partition the replay: self times sum to the root.
            let spans = ctx.tracer.finish();
            let totals = totals_by_name(&spans);
            let self_sum: f64 = totals.values().map(|t| t.self_s).sum();
            let root = &totals[span::ROOT];
            assert_eq!(root.count, 1);
            assert!(
                (self_sum - root.busy_s).abs() < 1e-6,
                "{self_sum} vs {}",
                root.busy_s
            );
            // Every datagram the labs delivered crossed a wrapped node.
            let c = ctx.counters();
            assert_eq!(ctx.wire.msgs(), c.datagrams, "{}", workload.name());
            assert_eq!(c.lost, 0);
        }
    }

    #[test]
    fn census_stream_replay_equals_driver() {
        assert_replay_equals_driver(Workload::CensusStream);
    }

    #[test]
    fn resolver_study_replay_equals_driver() {
        assert_replay_equals_driver(Workload::ResolverStudy);
    }

    #[test]
    fn serving_hit_replay_equals_driver() {
        assert_replay_equals_driver(Workload::ServingHit);
    }

    #[test]
    fn serving_synth_replay_equals_driver() {
        assert_replay_equals_driver(Workload::ServingSynth);
    }

    #[test]
    fn serving_forward_replay_equals_driver() {
        assert_replay_equals_driver(Workload::ServingForward);
    }

    #[test]
    fn chain_study_replay_equals_driver() {
        assert_replay_equals_driver(Workload::ChainStudy);
    }

    #[test]
    fn serving_spans_carry_the_outcome_class() {
        let ctx = Ctx::new();
        let Report::Serving(report) = replay(&ctx, Workload::ServingSynth, Size::Smoke, 42) else {
            panic!("serving workload yields a serving report");
        };
        let totals = totals_by_name(&ctx.tracer.finish());
        let count = |name: &str| totals.get(name).map_or(0, |t| t.count);
        assert_eq!(count(span::RESOLVER_HIT), report.tally.served_cache);
        assert_eq!(count(span::RESOLVER_SYNTH), report.tally.synthesized);
        assert_eq!(count(span::RESOLVER_FORWARD), report.tally.forwarded);
        assert!(
            report.tally.synthesized > 0,
            "the synth workload synthesizes"
        );
    }
}
