//! Property tests for the fault-episode engine seen through the
//! experiment drivers: a [`FaultSchedule`] is part of the experiment
//! input, so a faulty run must replay byte for byte regardless of how
//! the work is sharded across threads. Every fault decision is derived
//! by hashing the schedule seed with the flow — these properties pin
//! that contract for arbitrary seeds, not just the one the unit tests
//! happen to use.

use analysis::operator_table;
use dns_scanner::retry::BreakerConfig;
use netsim::{Episode, EpisodeKind, FaultSchedule, RetryPolicy, Scope};
use nsec3_core::experiments::{
    run_domain_census_stream, run_resolver_study_cfg, DriverConfig, ScanProfile, DEFAULT_LAB_SEED,
};
use popgen::{domain_count, generate_fleet, Scale};
use sim_check::{gens, props};

const NOW: u32 = 1_710_000_000;

/// The faulty census's population scale: every population carries
/// `popgen`'s 213 unscaled tail domains, and this scale adds 50 scaled
/// ones (263 in all; 46 without DNSSEC, 54 with a declared operator).
const SCALE: Scale = Scale(1.0 / 6_000_000.0);

/// Shorthand: a clean config at `threads` carrying `profile`.
fn cfg_with(threads: usize, profile: &ScanProfile) -> DriverConfig {
    DriverConfig::clean(NOW, threads, DEFAULT_LAB_SEED).with_profile(profile.clone())
}

/// A deliberately nasty flow-keyed profile: random loss, jittered
/// latency, adaptive backoff, breaker armed — everything derived from
/// `seed`. Only flow-keyed episode kinds (no time windows, no rate
/// limits), so the schedule is shard-invariant for every driver.
fn flow_keyed_profile(seed: u64) -> ScanProfile {
    ScanProfile {
        schedule: FaultSchedule {
            size_limit: None,
            seed,
            episodes: vec![
                Episode::always(EpisodeKind::Flap {
                    scope: Scope::All,
                    drop_chance: 0.15,
                }),
                Episode::always(EpisodeKind::LatencySpike {
                    scope: Scope::All,
                    extra_micros: 4_000,
                    jitter_micros: 2_500,
                }),
            ],
        },
        retry: RetryPolicy::adaptive(seed.rotate_left(17)),
        breaker: BreakerConfig::default(),
    }
}

props! {
    #![cases = 4]

    /// A faulty census replays identically across thread counts: the
    /// statistics, the operator attribution and the loss accounting are
    /// a pure function of the population seed, the schedule seed and the
    /// batch size. Batch `k` is the same domains on a fresh zero-clock
    /// lab at every thread count, so no fault state leaks across shards.
    fn faulty_census_replays_across_threads(seed in gens::u64s(..), batch in gens::usizes(1..=64)) {
        let profile = flow_keyed_profile(seed);
        let census = |threads| {
            run_domain_census_stream(SCALE, seed ^ 1, batch, &cfg_with(threads, &profile))
        };
        let (one, four) = (census(1), census(4));
        let render = |stats| format!("{stats:?}\n{:?}", operator_table(stats, usize::MAX));
        assert_eq!(
            render(&one.stats),
            render(&four.stats),
            "faulty census statistics must not depend on sharding"
        );
        let stats = one.probe_stats;
        assert_eq!(stats, four.probe_stats, "probe accounting must not depend on sharding");
        assert!(stats.is_consistent(), "sent = answered + timed_out + skipped");
        assert_eq!(one.stats.total, domain_count(SCALE), "no record is ever silently dropped");
    }

    /// A faulty resolver study replays identically across thread counts
    /// under flow-keyed episodes, and unreachable resolvers stay in the
    /// output instead of vanishing.
    fn faulty_resolver_study_replays_across_threads(seed in gens::u64s(..)) {
        // 320 resolvers: two 256-member units, so two shards at 4 threads.
        let fleet = generate_fleet(Scale(1.0 / 6_000.0), seed ^ 2);
        let profile = flow_keyed_profile(seed);
        let s1 = run_resolver_study_cfg(&fleet, &cfg_with(1, &profile));
        let s4 = run_resolver_study_cfg(&fleet, &cfg_with(4, &profile));
        assert_eq!(
            format!("{:?}", s1.all()),
            format!("{:?}", s4.all()),
            "faulty classifications must not depend on sharding"
        );
        assert_eq!(s1.stats, s4.stats, "probe accounting must not depend on sharding");
        assert!(s1.stats.is_consistent());
        assert_eq!(
            s1.all().len(),
            fleet.len(),
            "every resolver keeps a classification, reachable or not"
        );
    }
}
