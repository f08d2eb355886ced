//! End-to-end determinism: the whole pipeline is a pure function of its
//! seed. Running the domain census and the resolver study twice with the
//! same seed must produce byte-identical reports; a different seed must
//! produce a different population.
//!
//! This is the contract that makes every experiment in this repository
//! reproducible from its command line alone (see "Seed threading" in the
//! README) — and, since the drivers went parallel, the contract extends
//! across thread counts: `threads = 1` and `threads = N` must render to
//! the same bytes. `scripts/ci.sh` runs this suite under both
//! `HEROES_THREADS=1` and `HEROES_THREADS=4` to pin the environment
//! plumbing as well as the explicit [`DriverConfig`] paths exercised here.

use analysis::{operator_table, ResolverStats, ResolverTally};
use dns_scanner::retry::BreakerConfig;
use netsim::{Episode, EpisodeKind, FaultSchedule, RetryPolicy, Scope};
use nsec3_core::experiments::{
    run_domain_census_stream, run_resolver_study_cfg, run_resolver_tally_cfg, run_tld_census_cfg,
    run_unreachability_cfg, DriverConfig, ScanProfile, StreamCensusReport, DEFAULT_LAB_SEED,
};
use popgen::{generate_domains, generate_fleet, generate_tlds, Scale};

mod serving_support {
    pub(crate) use nsec3_core::serving::{run_serving_cfg, ServingScenario};
    pub(crate) use popgen::domains::{DnssecKind, DomainSpec};
    pub(crate) use popgen::traffic::{diurnal_schedule, QueryMix, TrafficModel};
    pub(crate) use popgen::DomainGenerator;

    /// The first `count` non-opt-out NSEC3 zones of the calibrated
    /// population — the serving driver's cacheable domain set.
    pub(crate) fn nsec3_population(count: usize) -> Vec<DomainSpec> {
        let generator = DomainGenerator::new(popgen::Scale(1.0 / 3_020.0), 42);
        let mut out = Vec::with_capacity(count);
        let mut i = 0u64;
        while out.len() < count && i < generator.len() {
            let spec = generator.get(i);
            if matches!(spec.dnssec, DnssecKind::Nsec3 { opt_out: false, .. }) {
                out.push(spec);
            }
            i += 1;
        }
        out
    }
}

const NOW: u32 = 1_710_000_000;

/// A census report rendered to one comparable string: the §5.1
/// statistics, the Table 2 attribution (`DomainStats`' `Debug` leaves the
/// operators out) and the probe accounting.
fn render(report: &StreamCensusReport) -> String {
    let operators = operator_table(&report.stats, usize::MAX);
    format!(
        "{:?}\n{operators:?}\n{:?}",
        report.stats, report.probe_stats
    )
}

/// The census of the population `seed` draws, rendered.
fn census_report(seed: u64) -> String {
    let cfg = DriverConfig::from_env(NOW);
    render(&run_domain_census_stream(
        Scale(1.0 / 50_000.0),
        seed,
        64,
        &cfg,
    ))
}

/// A resolver study rendered to one comparable string.
fn resolver_report(seed: u64) -> String {
    let fleet = generate_fleet(Scale(1.0 / 20_000.0), seed);
    let study = run_resolver_study_cfg(&fleet, &DriverConfig::from_env(NOW));
    let all = study.all();
    let stats = ResolverStats::compute(&all);
    format!("{all:?}\n{stats:?}")
}

#[test]
fn domain_census_is_deterministic_per_seed() {
    let a = census_report(7);
    let b = census_report(7);
    assert_eq!(a, b, "same seed must reproduce the census byte for byte");

    let c = census_report(8);
    assert_ne!(a, c, "different seeds must sample different populations");
}

#[test]
fn resolver_study_is_deterministic_per_seed() {
    let a = resolver_report(7);
    let b = resolver_report(7);
    assert_eq!(a, b, "same seed must reproduce the study byte for byte");

    let c = resolver_report(8);
    assert_ne!(a, c, "different seeds must sample different fleets");
}

#[test]
fn resolver_study_is_identical_across_thread_counts() {
    let fleet = generate_fleet(Scale(1.0 / 20_000.0), 42);
    let sequential = run_resolver_study_cfg(&fleet, &DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED));
    let sharded = run_resolver_study_cfg(&fleet, &DriverConfig::clean(NOW, 4, DEFAULT_LAB_SEED));
    assert_eq!(
        format!("{:?}", sequential.all()),
        format!("{:?}", sharded.all()),
        "resolver classifications (addresses included) must not depend on sharding"
    );
    assert_eq!(
        format!("{:?}", ResolverStats::compute(&sequential.all())),
        format!("{:?}", ResolverStats::compute(&sharded.all())),
    );
}

/// Flow-keyed faults only (loss + jittered latency): shard-invariant for
/// every driver, because decisions hash the schedule seed with the flow,
/// never the shard-local clock or RNG.
fn flow_keyed_lossy() -> ScanProfile {
    ScanProfile {
        schedule: FaultSchedule {
            base: Default::default(),
            seed: 0x9276,
            episodes: vec![
                Episode::always(EpisodeKind::Flap {
                    scope: Scope::All,
                    drop_chance: 0.2,
                }),
                Episode::always(EpisodeKind::LatencySpike {
                    scope: Scope::All,
                    extra_micros: 3_000,
                    jitter_micros: 2_000,
                }),
            ],
        },
        retry: RetryPolicy::adaptive(7),
        breaker: BreakerConfig::default(),
    }
}

#[test]
fn faulty_resolver_study_is_identical_across_thread_counts() {
    let fleet = generate_fleet(Scale(1.0 / 20_000.0), 42);
    let profile = flow_keyed_lossy();
    let cfg =
        |threads| DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED).with_profile(profile.clone());
    let s1 = run_resolver_study_cfg(&fleet, &cfg(1));
    let s2 = run_resolver_study_cfg(&fleet, &cfg(2));
    let s4 = run_resolver_study_cfg(&fleet, &cfg(4));
    assert_eq!(
        format!("{:?}", s1.all()),
        format!("{:?}", s2.all()),
        "faulty study must render byte-identically at threads=1 and 2"
    );
    assert_eq!(
        format!("{:?}", s1.all()),
        format!("{:?}", s4.all()),
        "faulty study must render byte-identically at threads=1 and 4"
    );
    assert_eq!(s1.stats, s2.stats);
    assert_eq!(s1.stats, s4.stats);
    assert!(s1.stats.is_consistent());
    assert!(
        s1.stats.retried > 0,
        "a lossy profile must show retries: {:?}",
        s1.stats
    );
    assert_eq!(
        s1.all().len(),
        fleet.len(),
        "every resolver keeps a classification, reachable or not"
    );
}

#[test]
fn resolver_tally_is_the_folded_study_at_every_thread_count() {
    // Four fleet batches at one thread, two at two and one a shard at
    // four, so the batch cuts differ across the thread counts too.
    let fleet = generate_fleet(Scale(1.0 / 2_000.0), 42);
    for profile in [ScanProfile::clean(), flow_keyed_lossy()] {
        let cfg = |threads| {
            DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED).with_profile(profile.clone())
        };
        let study = run_resolver_study_cfg(&fleet, &cfg(1));
        let mut folded = ResolverTally::default();
        for (&panel, classifications) in &study.per_panel {
            classifications.iter().for_each(|c| folded.add(panel, c));
        }
        for threads in [1, 2, 4] {
            let (tally, stats) = run_resolver_tally_cfg(&fleet, &cfg(threads));
            assert_eq!(tally, folded, "threads = {threads}");
            assert_eq!(stats, study.stats, "threads = {threads}");
        }
    }
}

#[test]
fn faulty_tld_census_and_unreachability_account_probes() {
    let profile = flow_keyed_lossy();

    // The TLD census shares one registry lab per shard, so under faults
    // the slicing is part of the experiment input: a fixed thread count
    // replays byte for byte, and the loss accounting always balances.
    let tlds: Vec<_> = generate_tlds().into_iter().step_by(97).collect();
    let cfg = DriverConfig::clean(NOW, 3, DEFAULT_LAB_SEED).with_profile(profile.clone());
    let (obs_a, tld_st_a) = run_tld_census_cfg(&tlds, 1.0 / 100_000.0, &cfg);
    let (obs_b, tld_st_b) = run_tld_census_cfg(&tlds, 1.0 / 100_000.0, &cfg);
    assert_eq!(
        format!("{obs_a:?}"),
        format!("{obs_b:?}"),
        "a faulty TLD census must replay byte for byte at a fixed thread count"
    );
    assert_eq!(tld_st_a, tld_st_b);
    assert!(tld_st_a.is_consistent());

    // Unreachability at batch_size = 1 is shard-invariant like the
    // census: every NSEC3 domain gets a fresh zero-clock lab.
    let specs: Vec<_> = generate_domains(Scale(1.0 / 100_000.0), 42)
        .into_iter()
        .take(60)
        .collect();
    let cfg =
        |threads| DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED).with_profile(profile.clone());
    let (un1, un_st1) = run_unreachability_cfg(&specs, 1, &cfg(1));
    let (un4, un_st4) = run_unreachability_cfg(&specs, 1, &cfg(4));
    assert_eq!(format!("{un1:?}"), format!("{un4:?}"));
    assert_eq!(un_st1, un_st4);
    assert!(un_st1.is_consistent());
    assert_eq!(
        un1.reachable + un1.unreachable + un1.lost,
        un1.probed,
        "unreachability accounting must cover every probe"
    );
}

#[test]
fn streaming_census_is_identical_across_thread_counts() {
    // The census shards an index range and merges one tally per shard:
    // the statistics, the operator attribution and the probe accounting
    // are byte-identical at every thread count. ~1.5 K domains keeps
    // shard cuts that do not align with the 64-domain batch boundaries.
    let scale = Scale(1.0 / 200_000.0);
    let census = |threads| {
        let cfg = DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED);
        render(&run_domain_census_stream(scale, 42, 64, &cfg))
    };
    let one = census(1);
    assert_eq!(
        one,
        census(4),
        "streaming census must render byte-identically at threads=1 and 4"
    );
    assert_eq!(
        one,
        census(8),
        "streaming census must render byte-identically at threads=1 and 8"
    );
}

#[test]
fn faulty_streaming_census_is_identical_across_thread_counts() {
    // Flow-keyed faults at batch_size = 1: every domain gets a fresh
    // zero-clock lab, so the fault schedule replays identically however
    // the index range is sharded.
    let scale = Scale(1.0 / 500_000.0);
    let profile = flow_keyed_lossy();
    let census = |threads| {
        let cfg = DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED).with_profile(profile.clone());
        render(&run_domain_census_stream(scale, 42, 1, &cfg))
    };
    assert_eq!(
        census(1),
        census(4),
        "faulty streaming census must render byte-identically at threads=1 and 4"
    );
}

#[test]
fn faulty_census_is_identical_across_thread_counts() {
    // Time-windowed and stateful episodes (an outage window, token-bucket
    // rate limiting) are clock-sensitive, so the census runs them at
    // `batch_size = 1`: every domain gets a fresh lab whose virtual clock
    // starts at zero, and the schedule replays identically however the
    // index range is sharded.
    let scale = Scale(1.0 / 500_000.0);
    let mut profile = flow_keyed_lossy();
    profile.schedule.episodes.push(Episode::window(
        0,
        25_000,
        EpisodeKind::Outage { scope: Scope::All },
    ));
    profile
        .schedule
        .episodes
        .push(Episode::always(EpisodeKind::RateLimit {
            scope: Scope::All,
            capacity: 6,
            refill_interval_micros: 40_000,
        }));
    let census = |threads| {
        let cfg = DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED).with_profile(profile.clone());
        run_domain_census_stream(scale, 42, 1, &cfg)
    };
    let one = census(1);
    let rendered = render(&one);
    for threads in [2, 4] {
        assert_eq!(
            rendered,
            render(&census(threads)),
            "faulty census must render byte-identically at threads=1 and {threads}"
        );
    }
    let stats = one.probe_stats;
    assert!(
        stats.is_consistent(),
        "sent = answered + timed_out + skipped"
    );
    assert!(
        stats.retried > 0,
        "a lossy profile must show retries: {stats:?}"
    );
    assert_eq!(
        one.stats.total,
        popgen::domain_count(scale),
        "no record may be dropped"
    );
}

#[test]
fn signed_zone_is_identical_with_hash_cache_cold_and_warm() {
    // The signer hashes its denial names through this thread's NSEC3 hash
    // cache; whether the cache is empty or already holds every name, the
    // signed zone must come out the same.
    use dns_wire::name::Name;
    use dns_wire::rdata::RData;
    use dns_wire::record::Record;
    use dns_zone::nsec3hash::{clear_thread_cache, thread_cache_stats};
    use dns_zone::signer::{sign_zone, SignerConfig};
    use dns_zone::Zone;

    let apex = Name::parse("big.example.").unwrap();
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(
        apex.clone(),
        3600,
        RData::Soa {
            mname: Name::parse("ns1.big.example.").unwrap(),
            rname: Name::parse("host.big.example.").unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        },
    ))
    .unwrap();
    for i in 0..300 {
        zone.add(Record::new(
            Name::parse(&format!("host-{i:03}.big.example.")).unwrap(),
            300,
            RData::A(
                format!("192.0.{}.{}", i / 250, i % 250 + 1)
                    .parse()
                    .unwrap(),
            ),
        ))
        .unwrap();
    }
    let config = SignerConfig::standard(&apex, NOW);
    let render = || format!("{:?}", sign_zone(&zone, &config).unwrap().zone);
    clear_thread_cache();
    let cold = render();
    assert_eq!(
        thread_cache_stats(),
        (0, 301),
        "a cold cache hashes every denial name"
    );
    let warm = render();
    let (hits, misses) = thread_cache_stats();
    assert_eq!(hits + misses, 602);
    // Not all 301: names sharing a slot of the direct-mapped table evict
    // each other.
    assert!(hits > 250, "a warm cache replays most names ({hits} hits)");
    assert_eq!(
        cold, warm,
        "signed zone must render byte-identically with the hash cache cold and warm"
    );
}

#[test]
fn tld_census_is_identical_across_thread_counts() {
    let tlds: Vec<_> = generate_tlds().into_iter().step_by(97).collect();
    let sequential = run_tld_census_cfg(
        &tlds,
        1.0 / 100_000.0,
        &DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED),
    )
    .0;
    let sharded = run_tld_census_cfg(
        &tlds,
        1.0 / 100_000.0,
        &DriverConfig::clean(NOW, 3, DEFAULT_LAB_SEED),
    )
    .0;
    assert_eq!(
        format!("{sequential:?}"),
        format!("{sharded:?}"),
        "threads=1 and threads=3 must render byte-identically"
    );
}

#[test]
fn serving_driver_is_identical_across_thread_counts_and_windows() {
    // The serving driver shards the resolver fleet, not the query
    // stream: every fleet member regenerates its own client block from
    // the index-stable traffic generator, so tallies must be
    // byte-identical at every thread count and in-flight window. The
    // cache layers are part of the claim — answer-cache eviction at
    // capacity used to be hash-order-dependent, and this pin is what
    // keeps it honest.
    use serving_support::*;
    let scenario = ServingScenario::new(
        nsec3_population(8),
        TrafficModel::new(12, 40, 42).with_mix(QueryMix::nxdomain_heavy()),
    )
    .with_fleet(3);
    let base = |threads| DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED);
    let r1 = run_serving_cfg(&scenario, &base(1));
    let t = &r1.tally;
    assert_eq!(t.queries, 480);
    assert_eq!(
        t.queries,
        t.served_cache + t.synthesized + t.forwarded + t.lost,
        "serving accounting invariant"
    );
    assert_eq!(t.lost, 0, "clean network loses nothing");
    assert!(t.synthesized > 0, "aggressive fleet must synthesize");
    for threads in [2usize, 4, 8] {
        let rn = run_serving_cfg(&scenario, &base(threads));
        assert_eq!(
            r1.rendered(),
            rn.rendered(),
            "serving run must render byte-identically at threads = {threads}"
        );
    }
    for window in [1usize, 4] {
        let rw = run_serving_cfg(&scenario, &base(4).with_window(window));
        assert_eq!(
            r1.rendered(),
            rw.rendered(),
            "window = {window} must match the default window"
        );
    }
}

#[test]
fn diurnal_serving_is_identical_across_thread_counts() {
    // Diurnal bursts are time-windowed latency episodes; each fleet
    // member replays them against its own zero-based virtual clock, so
    // the member remains an atomic unit of determinism and sharding
    // cannot move a burst.
    use serving_support::*;
    let scenario =
        ServingScenario::new(nsec3_population(6), TrafficModel::new(8, 25, 42)).with_fleet(2);
    let profile = ScanProfile {
        schedule: diurnal_schedule(0xd1a1, 2, 40_000),
        ..ScanProfile::clean()
    };
    let base = |threads: usize| {
        DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED).with_profile(profile.clone())
    };
    let r1 = run_serving_cfg(&scenario, &base(1));
    let r4 = run_serving_cfg(&scenario, &base(4));
    assert_eq!(
        r1.rendered(),
        r4.rendered(),
        "diurnal serving must render byte-identically at threads = 1 and 4"
    );
    assert!(r1.probe_stats.is_consistent());
    // The burst windows must actually bite: peak-hour queries pay the
    // latency spike, so the slowest answer is slower than the clean run's.
    let clean = run_serving_cfg(&scenario, &DriverConfig::clean(NOW, 1, DEFAULT_LAB_SEED));
    let max_latency = |r: &nsec3_core::serving::ServingReport| {
        r.tally
            .latency_hist
            .keys()
            .next_back()
            .copied()
            .unwrap_or(0)
    };
    assert!(
        max_latency(&r1) > max_latency(&clean),
        "diurnal spikes must surface in the latency tail"
    );
}

#[test]
fn adversarial_driver_is_identical_across_thread_counts_and_windows() {
    // The adversarial driver gives every zone its own lab, so tallies
    // are shard-invariant by construction — pin it anyway, clean and
    // lossy, across threads and windows, with the degradation
    // accounting invariant along for the ride.
    use nsec3_core::adversarial::{run_adversarial_cfg, AdversarialScenario, DefenseProfile};
    use popgen::generate_attack_zones;
    let scenario = AdversarialScenario {
        zones: generate_attack_zones("example.", 2),
        queries_per_zone: 2,
        defense: DefenseProfile::defended(),
    };
    let base = |threads| DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED);
    let r1 = run_adversarial_cfg(&scenario, &base(1));
    for threads in [2usize, 4] {
        let rn = run_adversarial_cfg(&scenario, &base(threads));
        assert_eq!(
            format!("{:?}", r1.per_family),
            format!("{:?}", rn.per_family),
            "clean run must render byte-identically at threads = {threads}"
        );
        assert_eq!(r1.probe_stats, rn.probe_stats);
    }
    let narrow = run_adversarial_cfg(&scenario, &base(1).with_window(1));
    assert_eq!(
        format!("{:?}", r1.per_family),
        format!("{:?}", narrow.per_family),
        "window = 1 must match the default window"
    );
    for (label, t) in &r1.per_family {
        assert_eq!(
            t.queries,
            t.completed + t.budget_exceeded + t.lost,
            "{label}: accounting invariant"
        );
        assert_eq!(t.lost, 0, "{label}: clean network loses nothing");
    }

    // Flow-keyed lossy profile: still byte-identical across thread
    // counts, with lost queries accounted but never classified.
    let lossy = |threads: usize| {
        DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED).with_profile(flow_keyed_lossy())
    };
    let l1 = run_adversarial_cfg(&scenario, &lossy(1));
    let l4 = run_adversarial_cfg(&scenario, &lossy(4));
    assert_eq!(
        format!("{:?}", l1.per_family),
        format!("{:?}", l4.per_family),
        "lossy run must render byte-identically at threads = 1 and 4"
    );
    assert_eq!(l1.probe_stats, l4.probe_stats);
    assert!(l1.probe_stats.is_consistent());
    for (label, t) in &l1.per_family {
        assert_eq!(
            t.queries,
            t.completed + t.budget_exceeded + t.lost,
            "{label}: lossy accounting invariant"
        );
    }
}

#[test]
fn chain_study_is_identical_across_thread_counts_and_windows() {
    // The chain-of-trust study gives every TLD its own lab and walks it
    // with a steppable recursion machine, so tallies are shard- and
    // window-invariant by construction — pin it anyway, clean and
    // lossy, with the per-bucket accounting invariant along.
    use nsec3_core::hierarchy::{run_chain_study_cfg, ChainStudy};
    use popgen::hierarchy::HierarchyModel;
    let study = ChainStudy::new(HierarchyModel::intact(16, 2, 7).with_faults(3));
    let base = |threads| DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED);
    let r1 = run_chain_study_cfg(&study, &base(1));
    for threads in [2usize, 4, 8] {
        let rn = run_chain_study_cfg(&study, &base(threads));
        assert_eq!(
            format!("{:?}", r1.per_scenario),
            format!("{:?}", rn.per_scenario),
            "clean chain study must render byte-identically at threads = {threads}"
        );
        assert_eq!(r1.probe_stats, rn.probe_stats);
    }
    let narrow = run_chain_study_cfg(&study, &base(4).with_window(1));
    assert_eq!(
        format!("{:?}", r1.per_scenario),
        format!("{:?}", narrow.per_scenario),
        "window = 1 must match the default window"
    );
    let total = r1.total();
    assert!(total.secure > 0, "signed intact chains authenticate");
    assert!(total.delegation_hits > 0, "warm leaf walks hit cached cuts");
    assert_eq!(total.lost, 0, "clean network loses nothing");
    for (key, t) in &r1.per_scenario {
        assert_eq!(
            t.queries,
            t.secure + t.insecure + t.bogus + t.bogus_anchor + t.lame + t.lost + t.budget_exceeded,
            "{key}: accounting invariant"
        );
    }

    // Flow-keyed lossy profile: still byte-identical, losses accounted
    // but never classified into a verdict bucket.
    let lossy = |threads: usize| base(threads).with_profile(flow_keyed_lossy());
    let l1 = run_chain_study_cfg(&study, &lossy(1));
    let l4 = run_chain_study_cfg(&study, &lossy(4));
    assert_eq!(
        format!("{:?}", l1.per_scenario),
        format!("{:?}", l4.per_scenario),
        "lossy chain study must render byte-identically at threads = 1 and 4"
    );
    assert_eq!(l1.probe_stats, l4.probe_stats);
    assert!(l1.probe_stats.is_consistent());
    for (key, t) in &l1.per_scenario {
        assert_eq!(
            t.queries,
            t.secure + t.insecure + t.bogus + t.bogus_anchor + t.lame + t.lost + t.budget_exceeded,
            "{key}: lossy accounting invariant"
        );
    }
}
