//! Equivalence pins for the message path: every experiment driver's
//! rendered output is hashed and compared against constants captured
//! from the first owned implementation (`Message::decode` everywhere,
//! per-call `Vec` encodes, copying `frame_tcp`). Pooled encode buffers,
//! the borrowed answer assembly and the authoritative answer-template
//! cache must reproduce these bytes exactly — on clean networks and
//! under a fault profile that drops *and corrupts* datagrams (corruption
//! exercises the parse-acceptance boundary, which no change to the wire
//! path may move).
//!
//! The two census pins hash `run_domain_census_stream`'s report, the
//! census's one driver: statistics, the whole Table 2 operator table and
//! the probe accounting. They were captured when a record-level batch
//! driver still ran beside it and was pinned record by record; the two
//! were tested equal on these populations, so the census's pinned
//! behaviour did not move when that driver went.
//!
//! If a deliberate behaviour change ever invalidates these constants,
//! re-capture them by running this test with `--nocapture` and copying
//! the printed values — but do that only when the change is intended.

use analysis::{operator_table, ResolverStats};
use dns_scanner::retry::BreakerConfig;
use netsim::{Episode, EpisodeKind, FaultConfig, FaultSchedule, RetryPolicy, Scope};
use nsec3_core::experiments::{
    run_domain_census_stream, run_resolver_study_cfg, run_tld_census_cfg, run_unreachability_cfg,
    DriverConfig, ScanProfile, StreamCensusReport, DEFAULT_LAB_SEED,
};
use popgen::domains::DomainSpec;
use popgen::{generate_domains, generate_fleet, generate_tlds, Scale};

const NOW: u32 = 1_710_000_000;

/// A two-thread config carrying `profile` — the shape every pin uses.
fn cfg_with(profile: ScanProfile) -> DriverConfig {
    DriverConfig::clean(NOW, 2, DEFAULT_LAB_SEED).with_profile(profile)
}

/// FNV-1a over the rendered report: stable, dependency-free, and enough
/// to pin byte identity.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The census pins' population (with seed 42): 817 domains.
const CENSUS_SCALE: Scale = Scale(1.0 / 500_000.0);

fn census_specs() -> Vec<DomainSpec> {
    generate_domains(CENSUS_SCALE, 42)
}

/// A profile that loses *and corrupts* datagrams: corrupted queries and
/// responses probe the decoder-acceptance boundary on both ends.
fn corrupting_profile() -> ScanProfile {
    ScanProfile {
        schedule: FaultSchedule {
            base: FaultConfig {
                drop_chance: 0.02,
                corrupt_chance: 0.10,
                duplicate_chance: 0.05,
                size_limit: None,
            },
            seed: 0x5155,
            episodes: vec![
                Episode::always(EpisodeKind::Flap {
                    scope: Scope::All,
                    drop_chance: 0.05,
                }),
                Episode::always(EpisodeKind::LatencySpike {
                    scope: Scope::All,
                    extra_micros: 1_500,
                    jitter_micros: 700,
                }),
            ],
        },
        retry: RetryPolicy::adaptive(0x9276),
        breaker: BreakerConfig::default(),
    }
}

/// The census report rendered for a pin: the §5.1 statistics, the
/// Table 2 attribution (`DomainStats`' `Debug` leaves the operators out)
/// and the probe accounting.
fn census_digest(report: &StreamCensusReport) -> String {
    format!(
        "{:?}\n{:?}\n{:?}",
        report.stats,
        operator_table(&report.stats, usize::MAX),
        report.probe_stats
    )
}

#[test]
fn clean_domain_census_output_is_pinned() {
    let cfg = cfg_with(ScanProfile::clean());
    let report = run_domain_census_stream(CENSUS_SCALE, 42, 64, &cfg);
    assert!(report.in_flight_high_water >= 1);
    let digest = census_digest(&report);
    let hash = fnv1a(&digest);
    eprintln!(
        "clean_domain_census hash: {hash:#018x} over {} bytes",
        digest.len()
    );
    assert_eq!(hash, 0xac12_ade9_1207_e7c7, "clean census output moved");
}

/// The pinned clean census runs batches of 64 domains per lab; how the
/// population is cut into batches must not move a byte of the report.
/// At one domain per lab and at one batch per shard the digest equals
/// the pinned batch-64 run's, so the pin holds for every batch size.
#[test]
fn streaming_census_matches_pinned_batch_path() {
    let cfg = cfg_with(ScanProfile::clean());
    let pinned = census_digest(&run_domain_census_stream(CENSUS_SCALE, 42, 64, &cfg));
    for batch in [1, 500] {
        assert_eq!(
            census_digest(&run_domain_census_stream(CENSUS_SCALE, 42, batch, &cfg)),
            pinned,
            "the clean census at batch {batch} diverged from the pinned batch-64 run"
        );
    }
}

/// Loss costs retries, never a measurement: with the corrupting
/// profile's base faults off, only its flow-keyed episodes (loss and
/// jittered latency) remain, and the census at batch 1 and at the pinned
/// batch 64 measures exactly what the pinned clean run measures (no
/// domain lost, the same statistics and operator table).
#[test]
fn streaming_census_matches_batch_path_under_faults() {
    let measured = |r: &StreamCensusReport| {
        let operators = operator_table(&r.stats, usize::MAX);
        (format!("{:?}\n{operators:?}", r.stats), r.probe_stats)
    };
    let clean = run_domain_census_stream(CENSUS_SCALE, 42, 64, &cfg_with(ScanProfile::clean()));
    let (clean, clean_probes) = measured(&clean);
    let mut profile = corrupting_profile();
    profile.schedule.base = FaultConfig::default();
    for batch in [1, 64] {
        let report = run_domain_census_stream(CENSUS_SCALE, 42, batch, &cfg_with(profile.clone()));
        let (lossy, probes) = measured(&report);
        assert_eq!(
            lossy, clean,
            "lossy census at batch {batch} measured otherwise"
        );
        assert!(probes.is_consistent() && probes.retried > 0, "{probes:?}");
        assert_eq!(probes.sent, clean_probes.sent, "no probe may be dropped");
    }
}

/// The census under the corrupting profile at `batch_size = 1`, the
/// shard-invariant geometry: losses, retries and breaker skips are part
/// of the pinned bytes.
#[test]
fn faulty_domain_census_output_is_pinned() {
    let cfg = cfg_with(corrupting_profile());
    let digest = census_digest(&run_domain_census_stream(CENSUS_SCALE, 42, 1, &cfg));
    let hash = fnv1a(&digest);
    eprintln!(
        "faulty_domain_census hash: {hash:#018x} over {} bytes",
        digest.len()
    );
    assert_eq!(hash, 0x44a4_da52_796d_e41e, "faulty census output moved");
}

#[test]
fn resolver_study_output_is_pinned() {
    let fleet = generate_fleet(Scale(1.0 / 100_000.0), 42);
    let study = run_resolver_study_cfg(&fleet, &cfg_with(ScanProfile::clean()));
    let all = study.all();
    let report = format!(
        "{all:?}\n{:?}\n{:?}",
        ResolverStats::compute(&all),
        study.stats
    );
    let hash = fnv1a(&report);
    eprintln!(
        "resolver_study hash: {hash:#018x} over {} bytes",
        report.len()
    );
    assert_eq!(hash, 0x9f6a_1260_c582_fa6f, "resolver study output moved");
}

#[test]
fn faulty_resolver_study_output_is_pinned() {
    let fleet = generate_fleet(Scale(1.0 / 100_000.0), 42);
    let profile = corrupting_profile();
    let study = run_resolver_study_cfg(&fleet, &cfg_with(profile));
    let all = study.all();
    let report = format!("{all:?}\n{:?}", study.stats);
    let hash = fnv1a(&report);
    eprintln!(
        "faulty_resolver_study hash: {hash:#018x} over {} bytes",
        report.len()
    );
    assert_eq!(
        hash, 0x76b4_38c1_65d0_6ee2,
        "faulty resolver study output moved"
    );
}

#[test]
fn tld_census_output_is_pinned() {
    let tlds: Vec<_> = generate_tlds().into_iter().step_by(29).collect();
    let (obs, stats) = run_tld_census_cfg(&tlds, 1.0 / 100_000.0, &cfg_with(ScanProfile::clean()));
    let report = format!("{obs:?}\n{stats:?}");
    let hash = fnv1a(&report);
    eprintln!("tld_census hash: {hash:#018x} over {} bytes", report.len());
    assert_eq!(hash, 0x5fab_0506_fb3e_7e9d, "TLD census output moved");
}

#[test]
fn unreachability_output_is_pinned() {
    let specs = census_specs();
    let (result, stats) = run_unreachability_cfg(&specs, 32, &cfg_with(ScanProfile::clean()));
    let report = format!("{result:?}\n{stats:?}");
    let hash = fnv1a(&report);
    eprintln!(
        "unreachability hash: {hash:#018x} over {} bytes",
        report.len()
    );
    assert_eq!(hash, 0x3515_4b9e_cac9_0208, "unreachability output moved");
}

#[test]
fn stepped_recursion_reproduces_blocking_resolution() {
    // The recursion-machine refactor's contract: driving a walk one
    // level at a time through `begin_recursion`/`step` produces the
    // same outcomes — rcode, AD, answers, cost — as the blocking
    // `resolve` path, including when the hierarchy collapses to a
    // single zone (the old one-hop shape). Two identically seeded
    // hierarchies, one walked each way.
    use dns_resolver::resolver::{RecursionStep, Resolver, ResolverConfig};
    use dns_wire::name::Name;
    use dns_wire::rrtype::RrType;
    use nsec3_core::hierarchy::build_hierarchy;
    use popgen::hierarchy::HierarchyModel;

    for (tld_count, leaves) in [(1usize, 1usize), (4, 2)] {
        let model = HierarchyModel::intact(tld_count, leaves, 7);
        let probes: Vec<Name> = {
            let h = build_hierarchy(&model, NOW, DEFAULT_LAB_SEED);
            let mut names = Vec::new();
            for tld in &h.tlds {
                for leaf in &tld.leaves {
                    names.push(Name::parse(&format!("www.{}", leaf.name)).unwrap());
                    names.push(Name::parse(&format!("nope.{}", leaf.name)).unwrap());
                }
            }
            names
        };
        let walk = |stepped: bool| -> String {
            let h = build_hierarchy(&model, NOW, DEFAULT_LAB_SEED);
            let mut lab = h.lab;
            let raddr = lab.alloc.v4();
            let mut rcfg =
                ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
            rcfg.now = lab.now;
            rcfg.delegation_cache = true;
            let resolver = Resolver::new(rcfg);
            let mut rendered = String::new();
            for probe in &probes {
                let out = if stepped {
                    let mut machine = resolver.begin_recursion(&lab.net, probe, RrType::A);
                    loop {
                        if let RecursionStep::Done(out) = machine.step(&lab.net) {
                            break out;
                        }
                    }
                } else {
                    resolver.resolve(&lab.net, probe, RrType::A)
                };
                rendered.push_str(&format!("{probe} {out:?}\n"));
            }
            rendered
        };
        let blocking = walk(false);
        let stepped = walk(true);
        assert_eq!(
            fnv1a(&blocking),
            fnv1a(&stepped),
            "tld_count = {tld_count}: stepped walk diverged from blocking walk"
        );
        assert!(blocking.contains("rcode: NoError"));
    }
}
