//! A minimal benchmark runner — the in-workspace replacement for the
//! external `criterion` crate.
//!
//! Each `src/bin/bench_*.rs` harness builds a [`Suite`], registers timed
//! closures with [`Suite::bench`] and values it measured once (counts,
//! ratios, MB, virtual µs, wall ms) with [`Suite::record`], and calls
//! [`Suite::finish`], which writes machine-readable JSON to
//! `BENCH_<suite>.json` in the working directory so runs can be diffed
//! over time. This is the only writer of a `BENCH_*.json`, so every file
//! has one shape: `{"suite", "host_cores", "results": [row]}` where a row
//! is a timed row or `{"name", "value", "unit"}`. A bench bin asserts
//! nothing about behaviour — claims are `cargo test`s beside the driver
//! they are about (`scripts/ci.sh` guards both rules).
//!
//! Methodology per benchmark:
//!
//! 1. warm up for a fixed wall-clock budget,
//! 2. calibrate a batch size so one timed sample lasts ≈2 ms (amortising
//!    `Instant` overhead),
//! 3. time ~30 batches and report per-iteration min / median / p99 /
//!    mean nanoseconds.
//!
//! `MICROBENCH_SAMPLES` overrides the sample count (e.g. in CI smoke
//! runs).

use std::hint::black_box;
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(60);
const TARGET_SAMPLE: Duration = Duration::from_millis(2);
const DEFAULT_SAMPLES: usize = 30;

/// Per-iteration summary statistics, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Stats {
    /// Fastest observed sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 99th-percentile sample (nearest-rank).
    pub p99_ns: f64,
    /// Mean across samples.
    pub mean_ns: f64,
}

/// Summarize per-iteration timings (ns). Panics on an empty slice.
pub(crate) fn summarize(samples_ns: &[f64]) -> Stats {
    assert!(!samples_ns.is_empty(), "no samples");
    let mut sorted = samples_ns.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let rank = |q: f64| {
        let idx = (q * sorted.len() as f64).ceil() as usize;
        sorted[idx.clamp(1, sorted.len()) - 1]
    };
    Stats {
        min_ns: sorted[0],
        median_ns: rank(0.50),
        p99_ns: rank(0.99),
        mean_ns: sorted.iter().sum::<f64>() / sorted.len() as f64,
    }
}

/// One finished benchmark within a suite.
#[derive(Clone, Debug)]
pub(crate) struct BenchResult {
    /// Benchmark id, e.g. `"iterations/150"`.
    pub name: String,
    /// Iterations per timed sample (after calibration).
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Per-iteration statistics.
    pub stats: Stats,
}

/// One row of a suite's artifact.
enum Row {
    /// A closure timed by [`Suite::bench`].
    Timed(BenchResult),
    /// A value measured once, handed to [`Suite::record`].
    Value {
        name: String,
        value: f64,
        unit: String,
    },
}

/// A named collection of benchmarks sharing one JSON artifact.
pub struct Suite {
    name: String,
    samples: usize,
    results: Vec<Row>,
}

impl Suite {
    /// Start a suite; `name` becomes the `BENCH_<name>.json` artifact.
    #[allow(clippy::disallowed_methods)] // the crate's one environment read
    pub fn new(name: &str) -> Suite {
        let samples = std::env::var("MICROBENCH_SAMPLES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_SAMPLES)
            .max(1);
        Suite {
            name: name.to_string(),
            samples,
            results: Vec::new(),
        }
    }

    /// Time `f` (its return value is black-boxed so work is not
    /// optimised away) and record the result under `id`.
    pub fn bench<T>(&mut self, id: &str, mut f: impl FnMut() -> T) {
        // Warm up: caches, allocator, branch predictors.
        let start = Instant::now();
        while start.elapsed() < WARMUP {
            black_box(f());
        }

        // Calibrate the batch size from a single measured iteration.
        let once = Instant::now();
        black_box(f());
        let per_iter = once.elapsed().max(Duration::from_nanos(1));
        let batch = (TARGET_SAMPLE.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000_000) as u64;

        let mut samples_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples_ns.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        let stats = summarize(&samples_ns);
        println!(
            "  {:<44} min {:>12}  median {:>12}  p99 {:>12}",
            id,
            fmt_ns(stats.min_ns),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p99_ns),
        );
        self.results.push(Row::Timed(BenchResult {
            name: id.to_string(),
            iters_per_sample: batch,
            samples: self.samples,
            stats,
        }));
    }

    /// Record a value the harness measured once — a count, a ratio, MB,
    /// virtual µs, wall ms — under `id`, rounded to four decimals.
    pub fn record(&mut self, id: &str, value: f64, unit: &str) {
        let value = (value * 1e4).round() / 1e4;
        println!("  {id:<44} {value:>16} {unit}");
        self.results.push(Row::Value {
            name: id.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Render the suite as JSON (stable key order, no external deps).
    /// `host_cores` records where the numbers came from: rows from hosts
    /// of different widths are not comparable.
    pub(crate) fn to_json(&self) -> String {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"suite\": \"{}\",\n  \"host_cores\": {cores},\n  \"results\": [\n",
            self.name
        ));
        for (i, row) in self.results.iter().enumerate() {
            let row = match row {
                Row::Timed(r) => format!(
                    "{{\"name\": \"{}\", \"iters_per_sample\": {}, \"samples\": {}, \
                     \"min_ns\": {:.1}, \"median_ns\": {:.1}, \"p99_ns\": {:.1}, \"mean_ns\": {:.1}}}",
                    r.name,
                    r.iters_per_sample,
                    r.samples,
                    r.stats.min_ns,
                    r.stats.median_ns,
                    r.stats.p99_ns,
                    r.stats.mean_ns,
                ),
                Row::Value { name, value, unit } => {
                    format!("{{\"name\": \"{name}\", \"value\": {value}, \"unit\": \"{unit}\"}}")
                }
            };
            let sep = if i + 1 < self.results.len() { "," } else { "" };
            out.push_str(&format!("    {row}{sep}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `BENCH_<suite>.json` and report the path. Consumes the
    /// suite; call last.
    #[allow(clippy::disallowed_methods)] // the one BENCH_*.json writer
    pub fn finish(self) {
        let path = format!("BENCH_{}.json", self.name);
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("  [wrote {path}]"),
            Err(e) => eprintln!("  [failed to write {path}: {e}]"),
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_known_distribution() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = summarize(&samples);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.median_ns, 50.0);
        assert_eq!(s.p99_ns, 99.0);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
    }

    #[test]
    fn summarize_single_sample() {
        let s = summarize(&[7.0]);
        assert_eq!(s.min_ns, 7.0);
        assert_eq!(s.median_ns, 7.0);
        assert_eq!(s.p99_ns, 7.0);
        assert_eq!(s.mean_ns, 7.0);
    }

    #[test]
    fn json_shape_is_machine_readable() {
        let mut suite = Suite {
            name: "unit".to_string(),
            samples: 3,
            results: vec![Row::Timed(BenchResult {
                name: "op/1".to_string(),
                iters_per_sample: 10,
                samples: 3,
                stats: Stats {
                    min_ns: 1.0,
                    median_ns: 2.0,
                    p99_ns: 3.0,
                    mean_ns: 2.0,
                },
            })],
        };
        suite.record("collapse/factor", 337.089_96, "x");
        suite.record("upstream/messages", 43_147.0, "count");
        let json = suite.to_json();
        assert!(json.contains("\"suite\": \"unit\""));
        assert!(json.contains("\"host_cores\": "));
        assert!(json.contains("\"name\": \"op/1\""));
        assert!(json.contains("\"median_ns\": 2.0"));
        assert!(
            json.contains("{\"name\": \"collapse/factor\", \"value\": 337.09, \"unit\": \"x\"},\n")
        );
        assert!(json.contains(
            "{\"name\": \"upstream/messages\", \"value\": 43147, \"unit\": \"count\"}\n"
        ));
        assert_eq!(json.matches("{\"name\"").count(), 3);
        // Trailing-comma discipline: exactly two separators for three rows.
        assert_eq!(json.matches("},\n").count(), 2);
    }

    #[test]
    fn bench_records_plausible_timings() {
        let mut suite = Suite {
            name: "selftest".to_string(),
            samples: 5,
            results: vec![],
        };
        let mut acc = 0u64;
        suite.bench("wrapping_sum", || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        let Row::Timed(r) = &suite.results[0] else {
            panic!("bench pushes a timed row");
        };
        assert_eq!(r.samples, 5);
        assert!(r.iters_per_sample >= 1);
        assert!(r.stats.min_ns > 0.0);
        assert!(r.stats.min_ns <= r.stats.median_ns);
        assert!(r.stats.median_ns <= r.stats.p99_ns);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00 s");
    }
}
