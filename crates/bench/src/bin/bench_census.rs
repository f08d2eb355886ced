//! Thread-scaling sweep for the sharded domain census: run the same
//! end-to-end census at 1, 2, 4, and 8 worker threads, verify every
//! sweep point reproduces the single-threaded output byte for byte, and
//! write the wall-clock numbers to `BENCH_census.json`.
//!
//! Speedup is hardware-bound, so nothing here asserts on it, and a point
//! with more threads than the host has cores measures the scheduler: its
//! row is marked `"oversubscribed": true` and carries no `speedup_vs_1`.
//! The determinism check, by contrast, is absolute and always enforced.
//!
//! The `lab_standup/{64,512,2048}` rows time what every census batch pays
//! before its first probe and after its last: `LabBuilder::build` and the
//! drop of the finished lab, in µs per zone stood up, for the first N
//! domains of the 1/100 000 population under their TLDs. `--smoke` runs
//! only the 64- and 2,048-domain points and exits 1 if a zone costs more
//! than twice as much to build in the large lab as in the small one —
//! the CI gate against stand-up that grows faster than the batch.
//!
//! `MICROBENCH_SAMPLES` overrides the repetitions per sweep point
//! (default 3; the best run counts, standard practice for wall-clock
//! sweeps).

use std::time::Instant;

use heroes_bench::{fmt_scale, header, Options, EXPERIMENT_NOW};
use nsec3_core::experiments::{domain_lab, run_domain_census_cfg, DriverConfig, DEFAULT_LAB_SEED};
use popgen::domains::{DomainGenerator, DomainSpec};
use popgen::{generate_domains, Scale};

const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Batch sizes of the lab stand-up rows: below, at and above the census
/// driver's 512-domain batch.
const STANDUP: [usize; 3] = [64, 512, 2048];

/// A zone may cost this many times more to build in the 2,048-domain lab
/// than in the 64-domain one before `--smoke` fails.
const STANDUP_GROWTH_CEILING: f64 = 2.0;

/// One lab stand-up point: fastest build and fastest drop over the reps.
struct Standup {
    domains: usize,
    zones: usize,
    build_us_per_zone: f64,
    drop_us_per_zone: f64,
}

fn lab_standup(generator: &DomainGenerator, domains: usize, reps: usize) -> Standup {
    let specs: Vec<DomainSpec> = (0..domains as u64).map(|i| generator.get(i)).collect();
    let mut point = Standup {
        domains,
        zones: 0,
        build_us_per_zone: f64::INFINITY,
        drop_us_per_zone: f64::INFINITY,
    };
    for _ in 0..reps {
        let (builder, _) = domain_lab(&specs, EXPERIMENT_NOW, DEFAULT_LAB_SEED);
        let t0 = Instant::now();
        let lab = builder.build();
        let build_us = t0.elapsed().as_secs_f64() * 1e6;
        point.zones = lab.zones.len();
        let t0 = Instant::now();
        drop(lab);
        let drop_us = t0.elapsed().as_secs_f64() * 1e6;
        let per_zone = |us: f64| us / point.zones as f64;
        point.build_us_per_zone = point.build_us_per_zone.min(per_zone(build_us));
        point.drop_us_per_zone = point.drop_us_per_zone.min(per_zone(drop_us));
    }
    println!(
        "  {domains:>5} domains ({:>4} zones): build {:>6.2} us/zone   drop {:>5.2} us/zone",
        point.zones, point.build_us_per_zone, point.drop_us_per_zone
    );
    point
}

fn main() {
    let opts = Options::parse(Scale(1.0 / 200_000.0));
    let reps: usize = std::env::var("MICROBENCH_SAMPLES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(3)
        .max(1);
    let standup_population = DomainGenerator::new(Scale(1.0 / 100_000.0), opts.seed);
    if std::env::args().any(|a| a == "--smoke") {
        let small = lab_standup(&standup_population, STANDUP[0], 4 * reps);
        let large = lab_standup(&standup_population, STANDUP[2], reps);
        let growth = large.build_us_per_zone / small.build_us_per_zone;
        println!("smoke: a zone costs {growth:.2}x as much to build among 2,048 as among 64");
        if growth > STANDUP_GROWTH_CEILING {
            eprintln!("error: lab stand-up grows faster than its batch ({growth:.2}x > {STANDUP_GROWTH_CEILING}x)");
            std::process::exit(1);
        }
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "census thread-scaling sweep at scale {} (seed {}, {} reps per point, host has {} core(s))",
        fmt_scale(opts.scale),
        opts.seed,
        reps,
        cores
    );
    let specs = generate_domains(opts.scale, opts.seed);
    println!("population: {} domains, batch size 200", specs.len());

    header("Sweep (best of reps per point)");
    let reference = run_domain_census_cfg(
        &specs,
        200,
        &DriverConfig::clean(EXPERIMENT_NOW, 1, DEFAULT_LAB_SEED),
    )
    .0;
    let mut rows: Vec<(usize, f64, String)> = Vec::new();
    for &threads in &SWEEP {
        let mut best_ms = f64::INFINITY;
        for _ in 0..reps {
            let t0 = std::time::Instant::now();
            let cfg = DriverConfig::clean(EXPERIMENT_NOW, threads, DEFAULT_LAB_SEED);
            let out = run_domain_census_cfg(&specs, 200, &cfg).0;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            best_ms = best_ms.min(ms);
            // The whole point of fixed sharding: every thread count
            // yields the single-threaded output, byte for byte.
            assert_eq!(
                format!("{out:?}"),
                format!("{reference:?}"),
                "threads={threads} diverged from the sequential census"
            );
        }
        // More threads than cores time the scheduler, not the sharding:
        // such a point reports its wall time and no speedup.
        let verdict = if threads > cores {
            "\"oversubscribed\": true".to_string()
        } else {
            let t1 = rows.first().map_or(best_ms, |(_, t1, _)| *t1);
            format!("\"speedup_vs_1\": {:.3}", t1 / best_ms)
        };
        println!("  threads {threads}: best {best_ms:>9.1} ms   {verdict}   output identical: yes");
        rows.push((threads, best_ms, verdict));
    }

    header("Lab stand-up (best of reps per point)");
    let standups: Vec<Standup> = STANDUP
        .iter()
        .map(|&domains| lab_standup(&standup_population, domains, reps.max(5)))
        .collect();

    let mut json = String::from("{\n  \"suite\": \"census\",\n");
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"domains\": {},\n  \"results\": [\n",
        specs.len()
    ));
    for (threads, best_ms, verdict) in &rows {
        json.push_str(&format!(
            "    {{\"name\": \"threads/{threads}\", \"threads\": {threads}, \"best_ms\": {best_ms:.1}, {verdict}}},\n",
        ));
    }
    for (i, s) in standups.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"lab_standup/{}\", \"zones\": {}, \"build_us_per_zone\": {:.2}, \"drop_us_per_zone\": {:.2}}}{}\n",
            s.domains,
            s.zones,
            s.build_us_per_zone,
            s.drop_us_per_zone,
            if i + 1 < standups.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::write("BENCH_census.json", &json) {
        Ok(()) => println!("  [wrote BENCH_census.json]"),
        Err(e) => eprintln!("  [failed to write BENCH_census.json: {e}]"),
    }
}
