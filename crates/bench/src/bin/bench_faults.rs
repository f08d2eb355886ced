//! Fault-tolerance sweep: what does packet loss cost the census, and how
//! fast does the adaptive retry policy recover from an outage?
//!
//! Two experiments, both written to `BENCH_faults.json`:
//!
//! * **Loss sweep** — the domain census under flow-keyed loss at 0 %,
//!   1 %, 5 % and 20 % drop chance, same adaptive retry policy at every
//!   point. Reports wall-clock per point (best of [`REPS`] runs), the
//!   retry volume, and the answered share from the merged
//!   [`ProbeStats`], so retry overhead is the ratio against the 0 % row.
//! * **Outage recovery** — a lone probe target behind a scheduled
//!   outage of 1 s / 5 s / 15 s of virtual time. The client re-probes
//!   under the adaptive policy until the first response and the sweep
//!   reports how much *virtual* time past the outage end that took —
//!   the latency cost of backing off (timeouts cost 2 s, backoff up to
//!   4 s, so recovery is never instant).

use std::net::IpAddr;
use std::rc::Rc;

use dns_scanner::retry::{BreakerConfig, ProbeStats};
use heroes_bench::microbench::Suite;
use heroes_bench::{fmt_scale, Options, EXPERIMENT_NOW};
use netsim::{Episode, EpisodeKind, FaultSchedule, Network, Node, Outcome, RetryPolicy, Scope};
use nsec3_core::experiments::{
    run_domain_census_stream, DriverConfig, ScanProfile, DEFAULT_LAB_SEED,
};
use popgen::{domain_count, Scale};

const LOSS_SWEEP: [f64; 4] = [0.0, 0.01, 0.05, 0.20];
const OUTAGES_MICROS: [u64; 3] = [1_000_000, 5_000_000, 15_000_000];
/// Census runs per loss point; the fastest counts.
const REPS: usize = 3;

/// Answers every datagram with its own payload — the cheapest possible
/// responder, so the recovery experiment measures only the fault engine
/// and the retry policy.
struct Echo;

impl Node for Echo {
    fn handle(
        &self,
        _net: &Network,
        _src: IpAddr,
        payload: &[u8],
        reply: &mut Vec<u8>,
    ) -> Option<()> {
        reply.extend_from_slice(payload);
        Some(())
    }
}

fn loss_profile(drop_chance: f64) -> ScanProfile {
    let mut episodes = Vec::new();
    if drop_chance > 0.0 {
        episodes.push(Episode::always(EpisodeKind::Flap {
            scope: Scope::All,
            drop_chance,
        }));
    }
    ScanProfile {
        schedule: FaultSchedule {
            size_limit: None,
            seed: DEFAULT_LAB_SEED,
            episodes,
        },
        retry: RetryPolicy::adaptive(DEFAULT_LAB_SEED ^ 0x9276),
        breaker: BreakerConfig::default(),
    }
}

fn main() {
    let opts = Options::parse(Scale(1.0 / 200_000.0));
    println!(
        "fault-tolerance sweep at scale {} (seed {}, {REPS} reps per loss point)",
        fmt_scale(opts.scale),
        opts.seed,
    );
    let domains = domain_count(opts.scale);
    println!("population: {domains} domains, batch size 200, adaptive retry + breaker");
    let mut suite = Suite::new("faults");
    suite.record("domains", domains as f64, "count");

    // Census under loss.
    for &drop in &LOSS_SWEEP {
        let profile = loss_profile(drop);
        let mut best_ms = f64::INFINITY;
        let mut stats = ProbeStats::default();
        for _ in 0..REPS {
            let t0 = std::time::Instant::now();
            let cfg = DriverConfig::clean(EXPERIMENT_NOW, 1, DEFAULT_LAB_SEED)
                .with_profile(profile.clone());
            stats = run_domain_census_stream(opts.scale, opts.seed, 200, &cfg).probe_stats;
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            assert!(
                stats.is_consistent(),
                "loss accounting must balance at {drop}"
            );
        }
        let mut row = |metric: &str, value: f64, unit: &str| {
            suite.record(&format!("loss/{drop}/{metric}"), value, unit);
        };
        row("best_ms", best_ms, "ms");
        row("sent", stats.sent as f64, "count");
        row("answered", stats.answered as f64, "count");
        row("retried", stats.retried as f64, "count");
        row("timed_out", stats.timed_out as f64, "count");
        row("circuit_skipped", stats.circuit_skipped as f64, "count");
        row("answered_share", stats.answered_share(), "ratio");
    }

    // Outage recovery: virtual time past the outage end until the first
    // answer.
    let target: IpAddr = "10.0.0.1".parse().unwrap();
    let client: IpAddr = "10.0.0.9".parse().unwrap();
    let policy = RetryPolicy::adaptive(DEFAULT_LAB_SEED ^ 0x9276);
    for &outage in &OUTAGES_MICROS {
        let net = Network::new(DEFAULT_LAB_SEED);
        net.register(target, Rc::new(Echo));
        net.set_schedule(FaultSchedule {
            size_limit: None,
            seed: DEFAULT_LAB_SEED,
            episodes: vec![Episode::window(
                0,
                outage,
                EpisodeKind::Outage {
                    scope: Scope::Addr(target),
                },
            )],
        });
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            let report = net.send_query_with_policy(client, target, b"ping", &policy);
            if matches!(report.outcome, Outcome::Response { .. }) {
                break;
            }
            assert!(
                net.now_micros() < outage + 120_000_000,
                "no recovery within 2 virtual minutes of a {outage} us outage"
            );
        }
        let recovery = net.now_micros().saturating_sub(outage);
        suite.record(
            &format!("outage/{outage}us/recovery_us"),
            recovery as f64,
            "us",
        );
        suite.record(
            &format!("outage/{outage}us/probe_rounds"),
            f64::from(rounds),
            "count",
        );
    }

    suite.finish();
}
