//! The untraced measurement: child processes that time driver reps, and
//! the parent that pools them into the end-to-end metrics.
//!
//! One child = one process lifetime of one workload at one thread count:
//! build the inputs from the seed, make the first (cold) driver call,
//! then time warm reps until the child's share of the run is spent. A
//! fresh process per child keeps `VmHWM` per workload and makes every
//! `setup_s` sample a genuinely cold start.
//!
//! The end-to-end run is `threads = 1` throughout. This host's speed
//! steps between levels up to 30 % apart that last from seconds to
//! minutes, and the steps only ever add time: the reps are the same
//! deterministic work, so the fastest rep of a run is its least disturbed
//! one, and `items_per_s` is taken from it. Runs at `min(nproc, 4)`
//! threads fill every core of a shared host and measure its scheduler;
//! they are left to the traced run's `par.*` numbers, which carry no
//! bound.

use std::process::Command;
use std::time::{Duration, Instant};

use crate::host::peak_rss_mb;
use crate::stats::{median, ratio, summary, Summary};
use crate::workloads::{
    build_inputs, landmark_failures, run_driver, summarize, Outcome, Size, Workload,
};

/// Children per run, one after the other, each with an equal share of
/// `--seconds` for its whole life. Their reps pool into one sample and
/// their cold starts are the `setup_s` samples.
const CHILDREN: usize = 6;
/// Fewest timed reps a child makes, however short its budget.
const MIN_REPS: usize = 3;

/// What one child measured.
#[derive(Clone, Debug)]
pub struct ChildResult {
    /// Input generation plus the first (cold) driver call, seconds.
    pub setup_s: f64,
    /// The child's `VmHWM` at exit, MB.
    pub rss_mb: f64,
    /// The report every rep produced (they are checked to be identical).
    pub outcome: Outcome,
    /// Driver calls made (cold call included).
    pub calls: u64,
    /// Wall seconds of each timed rep.
    pub times_s: Vec<f64>,
    /// Failed output checks, one line each.
    pub check_failures: Vec<String>,
}

/// Arguments of one child, as passed on its command line.
#[derive(Clone, Copy, Debug)]
pub struct ChildArgs {
    /// Workload to run.
    pub workload: Workload,
    /// Input sizes.
    pub size: Size,
    /// Input seed.
    pub seed: u64,
    /// Driver thread count.
    pub threads: usize,
    /// Time budget for the child's whole life: cold start, then timed
    /// reps until the next one would overrun it.
    pub budget: Duration,
}

/// The body of a `--child` process: measure and print one `CHILD` line
/// (plus one `CHECK` line per failed check).
pub fn child_main(args: ChildArgs) {
    let t0 = Instant::now();
    let inputs = build_inputs(args.workload, args.size, args.seed);
    let report = run_driver(&inputs, args.threads);
    let setup_s = t0.elapsed().as_secs_f64();
    let first = summarize(&report);
    let mut checks = first.invariant_failures.clone();
    if args.size == Size::Full {
        checks.extend(landmark_failures(&report));
    }
    drop(report);

    let mut times_s = Vec::new();
    loop {
        let t = Instant::now();
        let report = run_driver(&inputs, args.threads);
        let dt = t.elapsed().as_secs_f64();
        times_s.push(dt);
        let again = summarize(&report);
        if again != first {
            checks.push(format!(
                "rep {} differs from the first call: digest {:016x} vs {:016x}",
                times_s.len(),
                again.digest,
                first.digest
            ));
        }
        // Stop once the next rep would overrun the budget.
        let spent = t0.elapsed().as_secs_f64();
        if times_s.len() >= MIN_REPS && spent + median(&times_s) > args.budget.as_secs_f64() {
            break;
        }
    }
    let times: Vec<String> = times_s.iter().map(|t| format!("{t:.9}")).collect();
    println!(
        "CHILD setup_s={setup_s:.9} rss_mb={:.3} items={} wire_msgs={} attempted={} failed={} digest={:016x} calls={} times_s={}",
        peak_rss_mb(),
        first.items,
        first.wire_msgs,
        first.attempted,
        first.failed,
        first.digest,
        times_s.len() + 1,
        times.join(",")
    );
    for check in checks {
        println!("CHECK {}", check.replace('\n', " "));
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

/// Parse a child's standard output.
fn parse_child(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("CHILD "))
        .ok_or("child printed no CHILD line")?;
    let num = |key: &str| -> Result<f64, String> {
        field(line, key)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("child line lacks {key}"))
    };
    let int = |key: &str| -> Result<u64, String> {
        field(line, key)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("child line lacks {key}"))
    };
    let digest = field(line, "digest")
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or("child line lacks digest")?;
    let times_s = field(line, "times_s")
        .ok_or("child line lacks times_s")?
        .split(',')
        .map(|t| t.parse::<f64>().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ChildResult {
        setup_s: num("setup_s")?,
        rss_mb: num("rss_mb")?,
        outcome: Outcome {
            items: int("items")?,
            wire_msgs: int("wire_msgs")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            digest,
            invariant_failures: Vec::new(),
        },
        calls: int("calls")?,
        times_s,
        check_failures: stdout
            .lines()
            .filter_map(|l| l.strip_prefix("CHECK "))
            .map(str::to_string)
            .collect(),
    })
}

/// Run one child to completion and parse what it printed.
pub fn spawn_child(args: ChildArgs) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--threads",
            &args.threads.to_string(),
            "--budget-ms",
            &args.budget.as_millis().to_string(),
        ])
        .args((args.size == Size::Smoke).then_some("--smoke"))
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {} threads={} exited with {}: {}",
            args.workload.name(),
            args.threads,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    parse_child(&String::from_utf8_lossy(&out.stdout))
}

/// The end-to-end metrics of one workload, from untraced runs only.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// The workload measured.
    pub workload: Workload,
    /// Items per rep (what `items_per_s` divides).
    pub items: u64,
    /// Items per second of host wall time at `threads = 1`: items over
    /// the fastest rep of the run.
    pub items_per_s: f64,
    /// The pooled rep times, seconds, in the order they were made.
    pub reps_s: Vec<f64>,
    /// Their summary.
    pub reps: Summary,
    /// Median `VmHWM` of the children, MB.
    pub peak_rss_mb: f64,
    /// Median cold start (inputs + first driver call), seconds.
    pub setup_s: f64,
    /// The individual cold starts, in order.
    pub setups_s: Vec<f64>,
    /// Their summary.
    pub setup: Summary,
    /// Simulated messages per item, from the report's own accounting.
    pub wire_msgs_per_item: f64,
    /// Probes attempted across every driver call of the run.
    pub attempted: u64,
    /// Probes failed (timed out, circuit-skipped, tallied lost).
    pub failed: u64,
    /// FNV-1a of the rendered report (information only, never pinned).
    pub digest: u64,
    /// Failed output checks, one line each.
    pub check_failures: Vec<String>,
}

impl EndToEnd {
    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Measure `workload` for about `seconds` of wall time: [`CHILDREN`]
/// fresh `threads = 1` processes, one after the other.
pub fn measure(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
) -> Result<EndToEnd, String> {
    let budget = Duration::from_secs_f64((seconds / CHILDREN as f64).max(0.0));
    let mut children = Vec::with_capacity(CHILDREN);
    for _ in 0..CHILDREN {
        children.push(spawn_child(ChildArgs {
            workload,
            size,
            seed,
            threads: 1,
            budget,
        })?);
    }

    let reference = &children[0].outcome;
    let mut check_failures = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for (i, c) in children.iter().enumerate() {
        check_failures.extend(c.check_failures.iter().map(|f| format!("[child {i}] {f}")));
        if c.outcome != *reference {
            check_failures.push(format!(
                "[child {i}] digest {:016x} differs from the first child's {:016x}",
                c.outcome.digest, reference.digest
            ));
        }
        attempted += c.outcome.attempted * c.calls;
        failed += c.outcome.failed * c.calls;
    }

    let reps_s: Vec<f64> = children.iter().flat_map(|c| c.times_s.clone()).collect();
    let setups_s: Vec<f64> = children.iter().map(|c| c.setup_s).collect();
    let rss: Vec<f64> = children.iter().map(|c| c.rss_mb).collect();
    let reps = summary(&reps_s).ok_or("no timed reps")?;
    let setup = summary(&setups_s).ok_or("no setup samples")?;
    let items = reference.items;
    Ok(EndToEnd {
        workload,
        items,
        items_per_s: ratio(items as f64, reps.min),
        reps_s,
        reps,
        peak_rss_mb: median(&rss),
        setup_s: setup.median,
        setups_s,
        setup,
        wire_msgs_per_item: ratio(reference.wire_msgs as f64, items as f64),
        attempted,
        failed,
        digest: reference.digest,
        check_failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_line_round_trips() {
        let stdout = "noise\nCHILD setup_s=0.500000000 rss_mb=12.250 items=10 wire_msgs=25 \
                      attempted=20 failed=1 digest=00000000deadbeef calls=4 \
                      times_s=0.100000000,0.200000000,0.300000000\nCHECK serving buckets: 1 != 2\n";
        let c = parse_child(stdout).unwrap();
        assert_eq!(c.setup_s, 0.5);
        assert_eq!(c.rss_mb, 12.25);
        assert_eq!(c.outcome.items, 10);
        assert_eq!(c.outcome.wire_msgs, 25);
        assert_eq!(c.outcome.attempted, 20);
        assert_eq!(c.outcome.failed, 1);
        assert_eq!(c.outcome.digest, 0xdead_beef);
        assert_eq!(c.calls, 4);
        assert_eq!(c.times_s, vec![0.1, 0.2, 0.3]);
        assert_eq!(c.check_failures, vec!["serving buckets: 1 != 2"]);
        assert!(parse_child("nothing here").is_err());
        assert!(parse_child("CHILD setup_s=1").is_err());
    }
}
