//! The six workloads: their sizes, how `--seed` becomes inputs, the one
//! public driver call each makes, and what is read off the report.
//!
//! Every workload goes through a public `nsec3_core` driver with an
//! explicit [`DriverConfig::clean`]; the benchmark never reads
//! `HEROES_*` from the environment. The seed selects the *population*
//! (domains, resolvers, traffic, leaf parameters); the lab-network seed
//! stays at the drivers' default because fault-free labs never consume
//! it.

use std::fmt::Write as _;

use analysis::ResolverStats;
use dns_scanner::retry::ProbeStats;
use nsec3_core::experiments::{
    run_domain_census_stream, run_resolver_study_cfg, DriverConfig, ResolverStudy,
    StreamCensusReport, DEFAULT_LAB_SEED,
};
use nsec3_core::hierarchy::{run_chain_study_cfg, ChainReport, ChainStudy};
use nsec3_core::serving::{run_serving_cfg, ServingReport, ServingScenario};
use popgen::domains::{DnssecKind, DomainSpec};
use popgen::hierarchy::HierarchyModel;
use popgen::resolvers::ResolverSpec;
use popgen::traffic::{QueryMix, TrafficModel};
use popgen::{generate_fleet, DomainGenerator, Scale};

use crate::stats::{ratio, Fnv};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §4.1: the streaming domain census.
    CensusStream,
    /// §4.2: the resolver study against the 49-subdomain testbed.
    ResolverStudy,
    /// Serving, browsing mix: the answer-cache read path.
    ServingHit,
    /// Serving, NXDOMAIN-heavy mix with RFC 8198 synthesis on.
    ServingSynth,
    /// Serving, NXDOMAIN-heavy mix with synthesis off: the write-heavy
    /// use of the answer cache.
    ServingForward,
    /// Iterative root→TLD→leaf recursion with all five fault scenarios.
    ChainStudy,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 6] = [
        Workload::CensusStream,
        Workload::ResolverStudy,
        Workload::ServingHit,
        Workload::ServingSynth,
        Workload::ServingForward,
        Workload::ChainStudy,
    ];

    /// The workloads `BENCHMARK.json` lists, which the driver runs and
    /// bounds. Four, so that each run can last 30 s inside the driver's
    /// hour; the other two are measured by the all-workloads run only.
    pub const GATED: [Workload; 4] = [
        Workload::CensusStream,
        Workload::ResolverStudy,
        Workload::ServingHit,
        Workload::ServingForward,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CensusStream => "census_stream",
            Workload::ResolverStudy => "resolver_study",
            Workload::ServingHit => "serving_hit",
            Workload::ServingSynth => "serving_synth",
            Workload::ServingForward => "serving_forward",
            Workload::ChainStudy => "chain_study",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What the driver counts as items.
    pub fn items(self) -> &'static str {
        match self {
            Workload::CensusStream => "domains",
            Workload::ResolverStudy => "resolvers",
            Workload::ServingHit
            | Workload::ServingSynth
            | Workload::ServingForward
            | Workload::ChainStudy => "queries",
        }
    }
}

/// Input sizes. `Full` is what the benchmark measures; `Smoke` is small
/// enough for a debug-build unit test and a sub-10 s release run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes (see `benchmark/README.md` for the table).
    Full,
    /// Tiny sizes for `--smoke` and the unit tests.
    Smoke,
}

/// Inputs built from the seed before the first driver call.
pub enum Inputs {
    /// The census streams its population: only the handle is input.
    Census {
        /// Population scale (share of the paper's 302 M domains).
        scale: Scale,
        /// Population seed.
        seed: u64,
        /// Domains per lab batch.
        batch: usize,
    },
    /// A materialized resolver fleet.
    Resolvers(Vec<ResolverSpec>),
    /// A serving scenario (zones + traffic model + fleet geometry).
    Serving(ServingScenario),
    /// A chain study (hierarchy model).
    Chain(ChainStudy),
}

/// The first `count` non-opt-out NSEC3 zones of the calibrated
/// population at `seed` — the zones whose denial chains a fleet can cache
/// aggressively (same selection rule as `bench_serving`).
fn nsec3_population(count: usize, seed: u64) -> Vec<DomainSpec> {
    let generator = DomainGenerator::new(Scale(1.0 / 3_020.0), seed);
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

fn serving(size: Size, seed: u64, mix: QueryMix, qpc_full: u64, aggressive: bool) -> Inputs {
    let (zones, clients, qpc, fleet) = match size {
        Size::Full => (24, 64, qpc_full, 4),
        Size::Smoke => (6, 8, 30, 2),
    };
    Inputs::Serving(
        ServingScenario::new(
            nsec3_population(zones, seed),
            TrafficModel::new(clients, qpc, seed).with_mix(mix),
        )
        .with_fleet(fleet)
        .with_aggressive(aggressive),
    )
}

/// Build `workload`'s inputs from `seed` — the work `setup_s` times
/// together with the first driver call.
pub fn build_inputs(workload: Workload, size: Size, seed: u64) -> Inputs {
    match (workload, size) {
        (Workload::CensusStream, Size::Full) => Inputs::Census {
            scale: Scale(1.0 / 40_000.0),
            seed,
            batch: 512,
        },
        (Workload::CensusStream, Size::Smoke) => Inputs::Census {
            scale: Scale(1.0 / 2_000_000.0),
            seed,
            batch: 40,
        },
        (Workload::ResolverStudy, Size::Full) => {
            Inputs::Resolvers(generate_fleet(Scale(1.0 / 800.0), seed))
        }
        (Workload::ResolverStudy, Size::Smoke) => {
            Inputs::Resolvers(generate_fleet(Scale(1.0 / 40_000.0), seed))
        }
        (Workload::ServingHit, _) => serving(size, seed, QueryMix::browsing(), 500, true),
        (Workload::ServingSynth, _) => serving(size, seed, QueryMix::nxdomain_heavy(), 500, true),
        (Workload::ServingForward, _) => {
            serving(size, seed, QueryMix::nxdomain_heavy(), 250, false)
        }
        (Workload::ChainStudy, Size::Full) => Inputs::Chain(ChainStudy::new(
            HierarchyModel::intact(1449, 4, seed).with_faults(5),
        )),
        (Workload::ChainStudy, Size::Smoke) => Inputs::Chain(ChainStudy::new(
            HierarchyModel::intact(24, 2, seed).with_faults(3),
        )),
    }
}

/// What a driver (or the traced replay of it) returned.
pub enum Report {
    /// `run_domain_census_stream`.
    Census(StreamCensusReport),
    /// `run_resolver_study_cfg` folded through `ResolverStats::compute`.
    Study(ResolverStudy, ResolverStats),
    /// `run_serving_cfg`.
    Serving(ServingReport),
    /// `run_chain_study_cfg`.
    Chain(ChainReport),
}

/// The clean-network configuration every run uses.
pub fn driver_config(threads: usize) -> DriverConfig {
    DriverConfig::clean(heroes_bench::EXPERIMENT_NOW, threads, DEFAULT_LAB_SEED)
}

/// One driver call on `inputs` at `threads` — the timed region of a rep.
pub fn run_driver(inputs: &Inputs, threads: usize) -> Report {
    let cfg = driver_config(threads);
    match inputs {
        Inputs::Census { scale, seed, batch } => {
            Report::Census(run_domain_census_stream(*scale, *seed, *batch, &cfg))
        }
        Inputs::Resolvers(specs) => {
            let study = run_resolver_study_cfg(specs, &cfg);
            let stats = ResolverStats::compute(&study.all());
            Report::Study(study, stats)
        }
        Inputs::Serving(scenario) => Report::Serving(run_serving_cfg(scenario, &cfg)),
        Inputs::Chain(study) => Report::Chain(run_chain_study_cfg(study, &cfg)),
    }
}

/// Everything the benchmark reads off a [`Report`]. All fields are
/// deterministic in the inputs, so the traced replay must reproduce them
/// exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Items the driver counted (domains, resolvers, client queries).
    pub items: u64,
    /// Simulated messages the report accounts for: probe wire attempts
    /// (`ProbeStats::sent + retried`; for serving and the chain study
    /// these are the client queries themselves) plus the upstream
    /// messages the resolvers sent, where the report tallies them.
    pub wire_msgs: u64,
    /// Logical probes attempted (`ProbeStats::sent`).
    pub attempted: u64,
    /// Probes timed out + circuit-skipped + items tallied lost.
    pub failed: u64,
    /// FNV-1a over the rendered report (the form the repository's
    /// determinism pins compare).
    pub digest: u64,
    /// Failed accounting invariants, one line each.
    pub invariant_failures: Vec<String>,
}

fn probe_failures(stats: &ProbeStats) -> u64 {
    stats.timed_out + stats.circuit_skipped
}

fn check_probe_stats(stats: &ProbeStats, failures: &mut Vec<String>) {
    if !stats.is_consistent() {
        failures.push(format!("ProbeStats inconsistent: {stats:?}"));
    }
}

/// Read the benchmark's numbers off `report` and run the accounting
/// invariants.
pub fn summarize(report: &Report) -> Outcome {
    let mut failures = Vec::new();
    let mut digest = Fnv::new();
    let (items, upstream, stats, lost) = match report {
        Report::Census(r) => {
            write!(digest, "{:?}\n{:?}", r.stats, r.probe_stats).expect("hashing cannot fail");
            (r.stats.total, 0, r.probe_stats, r.stats.lost)
        }
        Report::Study(study, stats) => {
            write!(
                digest,
                "{:?}\n{:?}\n{:?}",
                study.per_panel, study.stats, stats
            )
            .expect("hashing cannot fail");
            let resolvers: usize = study.per_panel.values().map(Vec::len).sum();
            (
                resolvers as u64,
                0,
                study.stats,
                stats.unreachable + stats.partial,
            )
        }
        Report::Serving(r) => {
            write!(digest, "{}", r.rendered()).expect("hashing cannot fail");
            let t = &r.tally;
            if t.queries != t.served_cache + t.synthesized + t.forwarded + t.lost {
                failures.push(format!(
                    "serving buckets: {} != {} + {} + {} + {}",
                    t.queries, t.served_cache, t.synthesized, t.forwarded, t.lost
                ));
            }
            if t.queries != t.noerror + t.nxdomain + t.servfail {
                failures.push("serving rcodes do not sum to queries".to_string());
            }
            if t.latency_hist.values().sum::<u64>() != t.queries {
                failures.push("serving latency histogram does not sum to queries".to_string());
            }
            (t.queries, t.upstream_messages, r.probe_stats, t.lost)
        }
        Report::Chain(r) => {
            write!(digest, "{:?}\n{:?}", r.per_scenario, r.probe_stats)
                .expect("hashing cannot fail");
            for (key, t) in &r.per_scenario {
                let buckets = t.secure
                    + t.insecure
                    + t.bogus
                    + t.bogus_anchor
                    + t.lame
                    + t.lost
                    + t.budget_exceeded;
                if t.queries != buckets {
                    failures.push(format!("chain {key}: {} queries != {buckets}", t.queries));
                }
            }
            let t = r.total();
            (t.queries, t.upstream_messages, r.probe_stats, t.lost)
        }
    };
    check_probe_stats(&stats, &mut failures);
    if items == 0 {
        failures.push("driver reported no items".to_string());
    }
    Outcome {
        items,
        wire_msgs: stats.sent + stats.retried + upstream,
        attempted: stats.sent,
        failed: probe_failures(&stats) + lost,
        digest: digest.finish(),
        invariant_failures: failures,
    }
}

/// Paper landmarks at the full sizes, with the sampling tolerances of
/// `tests/paper_numbers.rs` (EXPERIMENTS.md records the measured values).
/// Returns one line per landmark that does not hold.
///
/// The census population injects its long tails with *absolute* counts
/// (43 domains above 150 iterations, 170 salts above 45 bytes), which is
/// why EXPERIMENTS.md warns that shares inflate below 1/10 000. So the
/// tails are checked exactly, and the three shares are taken over the
/// bulk population with the tail domains (all NSEC3-enabled) removed.
pub fn landmark_failures(report: &Report) -> Vec<String> {
    let mut out = Vec::new();
    let mut close = |measured: f64, paper: f64, tol: f64, what: &str| {
        if (measured - paper).abs() > tol {
            out.push(format!(
                "{what}: measured {measured:.2}, paper {paper}, tolerance {tol}"
            ));
        }
    };
    match report {
        Report::Census(r) => {
            let s = &r.stats;
            let over_150 = s.iterations_cdf.count_over(150);
            let long_salts = s.salt_cdf.count_over(45);
            close(
                over_150 as f64,
                43.0,
                0.0,
                "census domains above 150 iterations",
            );
            close(long_salts as f64, 170.0, 0.0, "census salts above 45 bytes");
            close(
                s.iterations_cdf.max().unwrap_or(0) as f64,
                500.0,
                0.0,
                "census maximum iterations",
            );
            let tail = (over_150 + long_salts) as u64;
            let pct = |num: u64, den: u64| 100.0 * ratio(num as f64, den as f64);
            let bulk = |n: u64| n.saturating_sub(tail);
            close(
                pct(bulk(s.dnssec), bulk(s.total)),
                8.8,
                0.7,
                "census DNSSEC share (bulk)",
            );
            close(
                pct(bulk(s.nsec3), bulk(s.dnssec)),
                58.9,
                2.0,
                "census NSEC3-of-DNSSEC share (bulk)",
            );
            close(
                pct(s.zero_iterations, bulk(s.nsec3)),
                12.2,
                2.0,
                "census zero-iteration share (bulk)",
            );
        }
        Report::Study(_, stats) => {
            close(stats.item6_pct(), 59.9, 12.0, "resolver-study item 6 share");
            close(stats.item8_pct(), 18.4, 10.0, "resolver-study item 8 share");
        }
        Report::Serving(_) | Report::Chain(_) => {}
    }
    out
}
