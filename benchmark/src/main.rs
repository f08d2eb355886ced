//! The repository benchmark.
//!
//! ```text
//! heroes-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! heroes-benchmark [--seed N] [--seconds S] [--smoke]              every workload, untraced then traced
//! heroes-benchmark --selfcheck [--seed N] [--seconds S] [--smoke]  every workload twice, compared
//! ```
//!
//! `benchmark/run.sh` builds this binary and passes its arguments
//! through. See `benchmark/README.md` for the metric definitions.

mod host;
mod layers;
mod measure;
mod perlayer;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use host::Host;
use measure::{child_main, measure, ChildArgs, EndToEnd};
use perlayer::{traced, Better, PER_LAYER};
use report::{end_to_end_values, json_line, print_end_to_end, print_per_layer, END_TO_END};
use workloads::{Size, Workload};

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    selfcheck: bool,
    child: bool,
    threads: usize,
    budget_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        selfcheck: false,
        child: false,
        threads: 1,
        budget_ms: 0,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = parse(&value("a number")?)?,
            "--seconds" => seconds = Some(parse(&value("a number")?)?),
            "--trace" => args.trace = parse::<u8>(&value("0 or 1")?)? != 0,
            "--threads" => args.threads = parse(&value("a number")?)?,
            "--budget-ms" => args.budget_ms = parse(&value("a number")?)?,
            "--smoke" => args.size = Size::Smoke,
            "--selfcheck" => args.selfcheck = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // A smoke run is about the checks, not the timings.
    let default_seconds = if args.size == Size::Smoke { 0.5 } else { 10.0 };
    args.seconds = seconds.unwrap_or(default_seconds);
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {s:?}"))
}

/// Where a traced run leaves its raw spans: beside the executable, which
/// is inside the (ignored) build directory.
fn spans_path(workload: Workload) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.join(format!("trace-{}.tsv", workload.name())))
}

fn print_host(host: &Host) {
    println!("host: {host}");
    if let Some(warning) = host.load_warning() {
        println!("{warning}");
    }
}

/// `--workload W --trace 0|1`: measure one workload and end with the
/// result line.
fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let host = Host::read();
    print_host(&host);
    if args.trace {
        let path = spans_path(workload);
        let p = traced(
            workload,
            args.size,
            args.seed,
            args.seconds,
            &host,
            path.as_deref(),
        )?;
        print_per_layer(&p, args.seed);
        let correct = p.check_failures.is_empty();
        let metrics = PER_LAYER
            .iter()
            .zip(&p.values)
            .map(|((name, unit, _), v)| (*name, *v, *unit));
        println!(
            "{}",
            json_line(correct, p.attempted.max(1), p.failed, metrics)
        );
        Ok(correct)
    } else {
        let e = measure(workload, args.size, args.seed, args.seconds)?;
        print_end_to_end(&e, args.seed);
        let correct = e.check_failures.is_empty();
        let metrics = END_TO_END
            .iter()
            .zip(end_to_end_values(&e))
            .map(|((name, unit, _, _), v)| (*name, v, *unit));
        println!(
            "{}",
            json_line(correct, e.attempted.max(1), e.failed, metrics)
        );
        Ok(correct)
    }
}

/// No `--workload`: every workload, untraced then traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let host = Host::read();
    print_host(&host);
    println!(
        "sizes: {:?}; seed {}; {} s of timed reps per workload",
        args.size, args.seed, args.seconds
    );
    let mut failures = 0;
    for workload in Workload::ALL {
        let e = measure(workload, args.size, args.seed, args.seconds)?;
        print_end_to_end(&e, args.seed);
        let path = spans_path(workload);
        let p = traced(
            workload,
            args.size,
            args.seed,
            args.seconds,
            &host,
            path.as_deref(),
        )?;
        print_per_layer(&p, args.seed);
        failures += e.check_failures.len() + p.check_failures.len();
        if e.failed > 0 {
            failures += 1;
            println!(
                "FAILED CHECK: failed_share is {} on a clean network",
                e.failed_share()
            );
        }
    }
    println!("total check_failures: {failures}");
    Ok(failures == 0)
}

/// Whether `b` is within `bound` of `a`, whichever way is worse.
fn within(a: f64, b: f64, bound: f64) -> bool {
    (a - b).abs() <= bound * a.abs().max(b.abs())
}

/// `--selfcheck`: the full untraced set twice on this build, side by
/// side, failing on any end-to-end metric that moves by more than its
/// own bound; then one workload at a second seed.
fn run_selfcheck(args: &Args) -> Result<bool, String> {
    let host = Host::read();
    print_host(&host);
    let mut ok = true;
    let mut fail = |what: String| {
        ok = false;
        println!("SELFCHECK FAILED: {what}");
    };
    for workload in Workload::ALL {
        let a = measure(workload, args.size, args.seed, args.seconds)?;
        let b = measure(workload, args.size, args.seed, args.seconds)?;
        println!("== {}: run A | run B ==", workload.name());
        for (((name, unit, better, bound), va), vb) in END_TO_END
            .iter()
            .zip(end_to_end_values(&a))
            .zip(end_to_end_values(&b))
        {
            let worse = match better {
                Better::Higher => (va - vb) / va,
                Better::Lower => (vb - va) / va,
            };
            println!(
                "  {name:<20} {va:>14.4} | {vb:>14.4} {unit:<10} B worse by {:+.2} % (bound {:.1} %)",
                worse * 100.0,
                bound * 100.0
            );
            if !within(va, vb, *bound) {
                fail(format!(
                    "{}: {name} moved by more than its bound",
                    workload.name()
                ));
            }
        }
        println!(
            "  {:<20} {:>14} | {:>14}",
            "failed_share",
            a.failed_share(),
            b.failed_share()
        );
        println!("  {:<20} {:>14x} | {:>14x}", "digest", a.digest, b.digest);
        if a.wire_msgs_per_item != b.wire_msgs_per_item {
            fail(format!(
                "{}: wire_msgs_per_item is not exact",
                workload.name()
            ));
        }
        if a.failed_share() != b.failed_share() || a.failed != 0 {
            fail(format!(
                "{}: failed_share differs or is not 0",
                workload.name()
            ));
        }
        if a.digest != b.digest {
            fail(format!("{}: digests differ between runs", workload.name()));
        }
        for e in [&a, &b] {
            for failure in &e.check_failures {
                fail(format!("{}: {failure}", workload.name()));
            }
        }
    }
    // Nothing may be hard-coded to one seed: another seed must pass the
    // same checks and produce a different report.
    let other_seed = args.seed.wrapping_add(1);
    let base: EndToEnd = measure(Workload::ServingSynth, args.size, args.seed, args.seconds)?;
    let other = measure(Workload::ServingSynth, args.size, other_seed, args.seconds)?;
    println!(
        "== serving_synth at seed {other_seed}: digest {:016x} (seed {}: {:016x}), {} failed checks ==",
        other.digest,
        args.seed,
        base.digest,
        other.check_failures.len()
    );
    if other.digest == base.digest {
        fail("a second seed produced the same report".to_string());
    }
    for failure in &other.check_failures {
        fail(format!("seed {other_seed}: {failure}"));
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("heroes-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let Some(workload) = args.workload else {
            eprintln!("heroes-benchmark: --child needs --workload");
            return ExitCode::from(2);
        };
        child_main(ChildArgs {
            workload,
            size: args.size,
            seed: args.seed,
            threads: args.threads.max(1),
            budget: Duration::from_millis(args.budget_ms),
        });
        return ExitCode::SUCCESS;
    }
    let outcome = match (args.selfcheck, args.workload) {
        (true, _) => run_selfcheck(&args),
        (false, Some(workload)) => run_one(&args, workload),
        (false, None) => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("heroes-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
