//! Production-serving benchmark: Zipf client traffic through the
//! caching resolver fleet, gating the RFC 8198 fast path's three
//! headline claims in-binary. Results land in `BENCH_serving.json`.
//!
//! The gates (any failure aborts the run):
//!
//! 1. **Upstream collapse** — with an NXDOMAIN-heavy mix at Zipf skew
//!    1.0, aggressive NSEC3 caching must cut forwarded NXDOMAIN traffic
//!    by at least [`COLLAPSE_FLOOR`]× versus the same fleet with
//!    synthesis off.
//! 2. **Latency** — the warm fleet's p99 virtual latency must undercut
//!    the cold (cacheless) fleet's p50, and warm throughput must clear
//!    [`QPS_FLOOR`] queries/s of host wall time.
//! 3. **Flat memory** — a 1 M-query run must hold peak RSS flat against
//!    a 100 K-query run (each measured in a fresh child process, since
//!    `VmHWM` is monotonic): the query stream is regenerated per index
//!    and every cache is capacity-bounded, so ten times the traffic must
//!    not mean ten times the memory.
//!
//! 4. **Event core** — a no-op `netsim::event::drive` step with 32 768
//!    flows in flight at one instant may cost at most
//!    [`DRIVE_RATIO_CEILING`]× the step at 64 in flight. A serving fleet
//!    member admits its whole query slice at virtual time 0, so a queue
//!    whose pop cost grows with the window shows up as the driver's
//!    largest line item; the ratio is independent of host speed.
//!
//! Every serving arm also digests its merged tally at 1, 2, and 4
//! threads and aborts on divergence — the fleet merge is byte-identical
//! or it is wrong.
//!
//! `--smoke --rss-ceiling-mb N [--threads T]` runs a reduced-sample
//! collapse check, the event-core gate, and an absolute RSS ceiling —
//! the CI gate.

use std::hint::black_box;

use heroes_bench::microbench::summarize;
use heroes_bench::{peak_rss_kb, EXPERIMENT_NOW};
use netsim::event::{drive, FlowStep};
use nsec3_core::experiments::{DriverConfig, DEFAULT_LAB_SEED};
use nsec3_core::serving::{run_serving_cfg, ServingReport, ServingScenario};
use popgen::domains::{DnssecKind, DomainSpec};
use popgen::traffic::{QueryMix, TrafficModel};
use popgen::{DomainGenerator, Scale};

const POPULATION_SEED: u64 = 42;
/// Signed NSEC3 zones in the serving population.
const ZONES: usize = 24;
/// Resolver instances the clients partition across.
const FLEET: usize = 4;
/// Minimum upstream-NXDOMAIN reduction the aggressive fleet must show.
const COLLAPSE_FLOOR: f64 = 2.0;
/// Minimum warm-fleet throughput, queries per second of host wall time.
const QPS_FLOOR: f64 = 150_000.0;
/// In-flight windows of the `event_core/drive_ns_per_step` rows.
const DRIVE_WINDOWS: [usize; 3] = [64, 8_192, 32_768];
/// Most a step may cost at the widest window, relative to the narrowest.
const DRIVE_RATIO_CEILING: f64 = 8.0;

/// FNV-1a over the rendered report — the cross-thread identity check,
/// same construction as the census scale sweep.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The first `ZONES` non-opt-out NSEC3 zones of the calibrated
/// population — the domains whose denial chains the fleet can cache
/// aggressively.
fn population() -> Vec<DomainSpec> {
    let generator = DomainGenerator::new(Scale(1.0 / 3_020.0), POPULATION_SEED);
    let mut out = Vec::with_capacity(ZONES);
    let mut i = 0u64;
    while out.len() < ZONES && i < generator.len() {
        let spec = generator.get(i);
        if matches!(spec.dnssec, DnssecKind::Nsec3 { opt_out: false, .. }) {
            out.push(spec);
        }
        i += 1;
    }
    assert_eq!(out.len(), ZONES, "population too small");
    out
}

fn traffic(clients: u64, qpc: u64, mix: QueryMix) -> TrafficModel {
    TrafficModel::new(clients, qpc, POPULATION_SEED).with_mix(mix)
}

/// Nanoseconds per `drive` step over flows that do nothing: each parks
/// once and finishes, and every admission and wake-up falls on virtual
/// instant 0, so `window` entries contend for the head of the queue.
fn drive_ns_per_step(window: usize) -> f64 {
    const FLOWS: usize = 131_072;
    const ROUNDS: usize = 7;
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut admitted = 0usize;
            let t0 = std::time::Instant::now();
            let stats = drive(
                window,
                || {
                    (admitted < FLOWS).then(|| {
                        admitted += 1;
                        false
                    })
                },
                |parked: &mut bool, due| {
                    if std::mem::replace(parked, true) {
                        FlowStep::Done
                    } else {
                        FlowStep::Park { at_micros: due }
                    }
                },
            );
            let stats = black_box(stats);
            assert_eq!(stats.in_flight_high_water, window);
            t0.elapsed().as_nanos() as f64 / stats.steps as f64
        })
        .collect();
    summarize(&rounds).median_ns
}

/// Gate 4: measure every [`DRIVE_WINDOWS`] row and fail unless the
/// widest stays within [`DRIVE_RATIO_CEILING`]× of the narrowest.
fn event_core_gate() -> [f64; 3] {
    let ns = DRIVE_WINDOWS.map(drive_ns_per_step);
    let ratio = ns[2] / ns[0];
    println!(
        "  event core: {:.0} / {:.0} / {:.0} ns per no-op step at {} / {} / {} in flight ({ratio:.1}x)",
        ns[0], ns[1], ns[2], DRIVE_WINDOWS[0], DRIVE_WINDOWS[1], DRIVE_WINDOWS[2]
    );
    if ratio > DRIVE_RATIO_CEILING {
        eprintln!(
            "error: a drive step at {} in flight costs {ratio:.1}x the step at {} (ceiling {DRIVE_RATIO_CEILING}x)",
            DRIVE_WINDOWS[2], DRIVE_WINDOWS[0]
        );
        std::process::exit(1);
    }
    ns
}

/// Run one arm, timing it and checking the 1/2/4-thread digests agree.
fn run_arm(name: &str, scenario: &ServingScenario) -> (ServingReport, f64, u64) {
    let t0 = std::time::Instant::now();
    let report = run_serving_cfg(
        scenario,
        &DriverConfig::clean(EXPERIMENT_NOW, 1, DEFAULT_LAB_SEED),
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let digest = fnv1a(&report.rendered());
    for threads in [2usize, 4] {
        let again = run_serving_cfg(
            scenario,
            &DriverConfig::clean(EXPERIMENT_NOW, threads, DEFAULT_LAB_SEED),
        );
        assert_eq!(
            fnv1a(&again.rendered()),
            digest,
            "{name}: threads={threads} diverged from threads=1"
        );
    }
    (report, wall_s, digest)
}

/// Child mode: one serving run, one machine-readable line — fresh
/// address space so `VmHWM` is per-point.
fn child_main(clients: u64, qpc: u64, threads: usize) {
    let scenario = ServingScenario::new(
        population(),
        traffic(clients, qpc, QueryMix::nxdomain_heavy()),
    )
    .with_fleet(FLEET);
    let t0 = std::time::Instant::now();
    let report = run_serving_cfg(
        &scenario,
        &DriverConfig::clean(EXPERIMENT_NOW, threads, DEFAULT_LAB_SEED),
    );
    println!(
        "POINT queries={} wall_ms={:.1} peak_rss_kb={} digest={:#018x}",
        report.tally.queries,
        t0.elapsed().as_secs_f64() * 1e3,
        peak_rss_kb().unwrap_or(0),
        fnv1a(&report.rendered())
    );
}

struct RssPoint {
    queries: u64,
    wall_ms: f64,
    peak_rss_kb: u64,
}

/// Re-exec ourselves for one RSS point and parse the `POINT` line.
fn rss_point(clients: u64, qpc: u64, threads: usize) -> RssPoint {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(&exe)
        .args([
            "--point",
            &clients.to_string(),
            &qpc.to_string(),
            &threads.to_string(),
        ])
        .output()
        .expect("spawn serving point");
    assert!(
        out.status.success(),
        "serving point {clients}x{qpc} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("POINT "))
        .unwrap_or_else(|| panic!("no POINT line from {clients}x{qpc}"));
    let mut p = RssPoint {
        queries: 0,
        wall_ms: 0.0,
        peak_rss_kb: 0,
    };
    for field in line.trim_start_matches("POINT ").split_whitespace() {
        match field.split_once('=') {
            Some(("queries", v)) => p.queries = v.parse().expect("queries"),
            Some(("wall_ms", v)) => p.wall_ms = v.parse().expect("wall_ms"),
            Some(("peak_rss_kb", v)) => p.peak_rss_kb = v.parse().expect("peak_rss_kb"),
            _ => {}
        }
    }
    p
}

/// Reduced-sample CI gate: collapse factor plus an absolute RSS ceiling.
fn smoke(threads: usize, ceiling_mb: u64) -> ! {
    let base = ServingScenario::new(population(), traffic(16, 100, QueryMix::nxdomain_heavy()))
        .with_fleet(FLEET);
    let cfg = DriverConfig::clean(EXPERIMENT_NOW, threads, DEFAULT_LAB_SEED);
    let on = run_serving_cfg(&base, &cfg);
    let off = run_serving_cfg(&base.clone().with_aggressive(false), &cfg);
    let factor = off.tally.upstream_nxdomain as f64 / on.tally.upstream_nxdomain.max(1) as f64;
    let peak_kb = peak_rss_kb().unwrap_or(0);
    println!(
        "smoke: {} queries, {} thread(s): upstream NXDOMAIN {} -> {} ({factor:.1}x), \
         local answers {:.1} %, peak RSS {} MB (ceiling {ceiling_mb} MB)",
        on.tally.queries,
        threads,
        off.tally.upstream_nxdomain,
        on.tally.upstream_nxdomain,
        on.tally.local_answer_share() * 100.0,
        peak_kb / 1024,
    );
    if factor < COLLAPSE_FLOOR {
        eprintln!("error: upstream-NXDOMAIN collapse {factor:.2}x is below {COLLAPSE_FLOOR}x");
        std::process::exit(1);
    }
    event_core_gate();
    if peak_kb > ceiling_mb * 1024 {
        eprintln!(
            "error: serving smoke peak RSS {} MB exceeds the {ceiling_mb} MB ceiling",
            peak_kb / 1024
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--point") {
        let clients: u64 = args[i + 1]
            .parse()
            .expect("--point <clients> <qpc> <threads>");
        let qpc: u64 = args[i + 2]
            .parse()
            .expect("--point <clients> <qpc> <threads>");
        let threads: usize = args[i + 3]
            .parse()
            .expect("--point <clients> <qpc> <threads>");
        child_main(clients, qpc, threads);
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        let mut threads = sim_par::default_threads();
        let mut ceiling_mb = 512u64;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--threads" if i + 1 < args.len() => {
                    threads = args[i + 1].parse().unwrap_or(threads);
                    i += 2;
                }
                "--rss-ceiling-mb" if i + 1 < args.len() => {
                    ceiling_mb = args[i + 1].parse().unwrap_or(ceiling_mb);
                    i += 2;
                }
                _ => i += 1,
            }
        }
        smoke(threads, ceiling_mb);
    }

    println!("production serving benchmark ({ZONES} zones, fleet of {FLEET}, Zipf skew 1.0)\n");

    // Gate 1: upstream-NXDOMAIN collapse under the water-torture mix.
    let collapse_base =
        ServingScenario::new(population(), traffic(64, 1_000, QueryMix::nxdomain_heavy()))
            .with_fleet(FLEET);
    let (on, on_wall, on_digest) = run_arm("collapse/aggressive-on", &collapse_base);
    let (off, off_wall, _) = run_arm(
        "collapse/aggressive-off",
        &collapse_base.clone().with_aggressive(false),
    );
    let collapse = off.tally.upstream_nxdomain as f64 / on.tally.upstream_nxdomain.max(1) as f64;
    println!(
        "  collapse: upstream NXDOMAIN {} -> {} ({collapse:.1}x), upstream messages {} -> {}",
        off.tally.upstream_nxdomain,
        on.tally.upstream_nxdomain,
        off.tally.upstream_messages,
        on.tally.upstream_messages
    );
    println!(
        "  hash bill: {} NSEC3 hashes on vs {} off (RFC 8198 trades CPU for wire)",
        on.tally.nsec3_hashes, off.tally.nsec3_hashes
    );
    assert!(
        collapse >= COLLAPSE_FLOOR,
        "aggressive caching collapsed upstream NXDOMAIN only {collapse:.2}x (< {COLLAPSE_FLOOR}x)"
    );

    // Gate 2: warm p99 vs cold p50, plus the throughput floor.
    let warm_base = ServingScenario::new(population(), traffic(64, 1_000, QueryMix::browsing()))
        .with_fleet(FLEET);
    let (warm, warm_wall, warm_digest) = run_arm("latency/warm", &warm_base);
    let (cold, _, _) = run_arm(
        "latency/cold",
        &ServingScenario::new(population(), traffic(8, 100, QueryMix::browsing()))
            .with_fleet(FLEET)
            .cold(),
    );
    let warm_qps = warm.tally.queries as f64 / warm_wall;
    println!(
        "\n  latency: warm p50/p99 {}/{} us vs cold p50/p99 {}/{} us",
        warm.tally.p50_micros(),
        warm.tally.p99_micros(),
        cold.tally.p50_micros(),
        cold.tally.p99_micros()
    );
    println!(
        "  warm fleet: {:.0} q/s wall, answer-cache hit ratio {:.1} %, {:.1} % answered locally",
        warm_qps,
        warm.tally.answer_hit_ratio() * 100.0,
        warm.tally.local_answer_share() * 100.0
    );
    assert!(
        warm.tally.p99_micros() < cold.tally.p50_micros(),
        "warm p99 {} us must undercut cold p50 {} us",
        warm.tally.p99_micros(),
        cold.tally.p50_micros()
    );
    assert!(
        warm_qps >= QPS_FLOOR,
        "warm fleet served {warm_qps:.0} q/s, below the {QPS_FLOOR} q/s floor"
    );

    // Gate 3: flat RSS from 100 K to 1 M queries (fresh child per point).
    let small = rss_point(200, 500, 2);
    let large = rss_point(200, 5_000, 2);
    assert_eq!(small.queries, 100_000);
    assert_eq!(large.queries, 1_000_000);
    println!(
        "\n  memory: {} queries at {:.1} MB peak -> {} queries at {:.1} MB peak ({:.1} ms -> {:.1} ms)",
        small.queries,
        small.peak_rss_kb as f64 / 1024.0,
        large.queries,
        large.peak_rss_kb as f64 / 1024.0,
        small.wall_ms,
        large.wall_ms
    );
    let slack_kb = (small.peak_rss_kb / 2).max(64 * 1024);
    assert!(
        large.peak_rss_kb <= small.peak_rss_kb + slack_kb,
        "1M-query peak RSS {} KB is not flat against the 100K-query {} KB",
        large.peak_rss_kb,
        small.peak_rss_kb
    );

    // Gate 4: the queue's per-step cost must not grow with the window.
    println!();
    let drive_ns = event_core_gate();

    println!("\n  [digests identical at 1/2/4 threads on every arm]");

    let json = format!(
        "{{\n  \"suite\": \"serving\",\n  \"zones\": {ZONES},\n  \"fleet\": {FLEET},\n  \"results\": [\n    \
         {{\"name\": \"collapse/upstream_nxdomain_off\", \"value\": {}}},\n    \
         {{\"name\": \"collapse/upstream_nxdomain_on\", \"value\": {}}},\n    \
         {{\"name\": \"collapse/factor\", \"value\": {collapse:.2}}},\n    \
         {{\"name\": \"collapse/wall_s_on\", \"value\": {on_wall:.2}}},\n    \
         {{\"name\": \"collapse/wall_s_off\", \"value\": {off_wall:.2}}},\n    \
         {{\"name\": \"warm/qps\", \"value\": {warm_qps:.0}}},\n    \
         {{\"name\": \"warm/p50_us\", \"value\": {}}},\n    \
         {{\"name\": \"warm/p99_us\", \"value\": {}}},\n    \
         {{\"name\": \"warm/answer_hit_ratio\", \"value\": {:.4}}},\n    \
         {{\"name\": \"warm/local_answer_share\", \"value\": {:.4}}},\n    \
         {{\"name\": \"cold/p50_us\", \"value\": {}}},\n    \
         {{\"name\": \"cold/p99_us\", \"value\": {}}},\n    \
         {{\"name\": \"rss/peak_kb_100k\", \"value\": {}}},\n    \
         {{\"name\": \"rss/peak_kb_1m\", \"value\": {}}},\n    \
         {{\"name\": \"event_core/drive_ns_per_step/64\", \"value\": {:.1}}},\n    \
         {{\"name\": \"event_core/drive_ns_per_step/8192\", \"value\": {:.1}}},\n    \
         {{\"name\": \"event_core/drive_ns_per_step/32768\", \"value\": {:.1}}},\n    \
         {{\"name\": \"digest/collapse_on\", \"value\": \"{on_digest:#018x}\"}},\n    \
         {{\"name\": \"digest/warm\", \"value\": \"{warm_digest:#018x}\"}}\n  ]\n}}\n",
        off.tally.upstream_nxdomain,
        on.tally.upstream_nxdomain,
        warm.tally.p50_micros(),
        warm.tally.p99_micros(),
        warm.tally.answer_hit_ratio(),
        warm.tally.local_answer_share(),
        cold.tally.p50_micros(),
        cold.tally.p99_micros(),
        small.peak_rss_kb,
        large.peak_rss_kb,
        drive_ns[0],
        drive_ns[1],
        drive_ns[2],
    );
    match std::fs::write("BENCH_serving.json", &json) {
        Ok(()) => println!("  [wrote BENCH_serving.json]"),
        Err(e) => eprintln!("  [failed to write BENCH_serving.json: {e}]"),
    }
}
