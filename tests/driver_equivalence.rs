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
use dns_scanner::prober::ResolverClassification;
use dns_scanner::retry::BreakerConfig;
use netsim::{Episode, EpisodeKind, FaultSchedule, RetryPolicy, Scope};
use nsec3_core::experiments::{
    run_domain_census_stream, run_resolver_study_cfg, run_tld_census_cfg, run_unreachability_cfg,
    DriverConfig, ScanProfile, StreamCensusReport, DEFAULT_LAB_SEED,
};
use popgen::domains::DomainSpec;
use popgen::resolvers::{Behavior, ResolverSpec};
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

/// A profile that loses, corrupts *and duplicates* datagrams: corrupted
/// queries and responses probe the decoder-acceptance boundary on both
/// ends. The first two episodes are the loss and jittered latency
/// [`LOSS_AND_LATENCY`] keeps; the last three add loss, corruption and
/// duplication.
fn corrupting_profile() -> ScanProfile {
    ScanProfile {
        schedule: FaultSchedule {
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
                Episode::always(EpisodeKind::Flap {
                    scope: Scope::All,
                    drop_chance: 0.02,
                }),
                Episode::always(EpisodeKind::Corrupt {
                    scope: Scope::All,
                    chance: 0.10,
                }),
                Episode::always(EpisodeKind::Duplicate {
                    scope: Scope::All,
                    chance: 0.05,
                }),
            ],
            size_limit: None,
        },
        retry: RetryPolicy::adaptive(0x9276),
        breaker: BreakerConfig::default(),
    }
}

/// How many of [`corrupting_profile`]'s episodes are its loss and
/// jittered latency.
const LOSS_AND_LATENCY: usize = 2;

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
/// profile's corruption, duplication and extra loss stripped, only its
/// loss and jittered-latency episodes remain, and the census at batch 1
/// and at the pinned batch 64 measures exactly what the pinned clean run
/// measures (no domain lost, the same statistics and operator table).
#[test]
fn streaming_census_matches_batch_path_under_faults() {
    let measured = |r: &StreamCensusReport| {
        let operators = operator_table(&r.stats, usize::MAX);
        (format!("{:?}\n{operators:?}", r.stats), r.probe_stats)
    };
    let clean = run_domain_census_stream(CENSUS_SCALE, 42, 64, &cfg_with(ScanProfile::clean()));
    let (clean, clean_probes) = measured(&clean);
    let mut profile = corrupting_profile();
    profile.schedule.episodes.truncate(LOSS_AND_LATENCY);
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

/// The census under the corrupting profile at `batch_size = 1`: every
/// domain gets a fresh lab, every fault decision is keyed by the flow and
/// the schedule seed is mixed with the domain's index, so each domain
/// meets faults of its own. Like every batch size, it renders the same at
/// every thread count (`tests/determinism.rs`,
/// `faulty_streaming_census_is_identical_across_thread_counts`). Losses,
/// retries, breaker skips and the domains corruption misreads (ROADMAP
/// item 24) are part of the pinned bytes.
#[test]
fn faulty_domain_census_output_is_pinned() {
    let cfg = cfg_with(corrupting_profile());
    let digest = census_digest(&run_domain_census_stream(CENSUS_SCALE, 42, 1, &cfg));
    let hash = fnv1a(&digest);
    eprintln!(
        "faulty_domain_census hash: {hash:#018x} over {} bytes",
        digest.len()
    );
    assert_eq!(hash, 0x2c8a_f2f5_631c_698b, "faulty census output moved");
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

/// What the prober concluded about one resolver, in one line: its
/// address, then each verdict that holds.
fn verdicts(c: &ResolverClassification) -> String {
    let mut line = c.resolver.to_string();
    let flags = [
        (c.is_validator, "validator"),
        (c.unreachable, "unreachable"),
        (c.has_insecure_band, "insecure band"),
        (c.item12_gap, "item-12 gap"),
        (c.flaky, "flaky"),
        (c.ra_missing, "RA missing"),
    ];
    for (_, verdict) in flags.iter().filter(|(holds, _)| *holds) {
        line += &format!(", {verdict}");
    }
    if let Some(limit) = c.insecure_limit {
        line += &format!(", AD up to {limit}");
    }
    if let Some(first) = c.servfail_start {
        line += &format!(", SERVFAIL from {first}");
    }
    if !c.limit_ede_codes.is_empty() {
        line += &format!(", EDE {:?}", c.limit_ede_codes);
    }
    line
}

/// The two rare §5.2 behaviours, which the 1/100,000 fleets above do not
/// hold: the one query copier and the seven flaky two-threshold members
/// of the 1/800 fleet, each with the verdicts the prober reaches, and
/// every response it saw hashed.
#[test]
fn rare_fleet_behaviours_are_pinned() {
    let rare: Vec<ResolverSpec> = generate_fleet(Scale(1.0 / 800.0), 42)
        .into_iter()
        .filter(|s| {
            matches!(
                s.behavior,
                Behavior::QueryCopier | Behavior::FlakyGap { .. }
            )
        })
        .collect();
    let copiers = rare.iter().filter(|s| s.behavior == Behavior::QueryCopier);
    assert_eq!((rare.len(), copiers.count()), (8, 1));
    let study = run_resolver_study_cfg(&rare, &cfg_with(ScanProfile::clean()));
    let all = study.all();
    let flaky = ", validator, insecure band, item-12 gap, flaky, SERVFAIL from 175";
    let mut expected: Vec<String> = (55..=60).map(|i| format!("10.0.0.{i}{flaky}")).collect();
    expected.push("10.0.0.61, validator, RA missing, SERVFAIL from 1".into());
    expected.push(format!("fd00::37{flaky}, EDE [27]"));
    assert_eq!(all.iter().map(verdicts).collect::<Vec<_>>(), expected);
    let report = format!("{all:?}\n{:?}", study.stats);
    let hash = fnv1a(&report);
    eprintln!(
        "rare fleet behaviours hash: {hash:#018x} over {} bytes",
        report.len()
    );
    assert_eq!(hash, 0x1638_ccd9_0ca9_995a, "rare fleet behaviours moved");
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
        hash, 0xec53_ff86_4228_dcb5,
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
