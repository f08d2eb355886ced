//! Every experiment of the paper, run once and printed as EXPERIMENTS.md.
//!
//! Standard output at the defaults *is* the committed EXPERIMENTS.md,
//! byte for byte and at every thread count, so it carries no wall-clock
//! time and no path: progress, the `[wrote …]` lines of the CSV/SVG
//! artefacts (`target/experiments/`) and the process's peak RSS go to
//! stderr. The exit status is nonzero when a row is outside what it is
//! held to. `HEROES_FAULTS` selects the network every driver scans over,
//! as in the tests.

use std::process::ExitCode;

use heroes_bench::claims::REPORT_DOMAINS;
use heroes_bench::report::{render, Measured};
use heroes_bench::{peak_rss_kb, Options, EXPERIMENT_NOW};
use nsec3_core::experiments::DriverConfig;

fn main() -> ExitCode {
    let opts = Options::parse(REPORT_DOMAINS);
    let mut cfg = DriverConfig::from_env(EXPERIMENT_NOW);
    cfg.threads = opts.threads;
    let measured = Measured::run(opts.scale, opts.fleet, opts.seed, &cfg);
    let rows = measured.rows();
    print!("{}", render(&measured, &rows));
    measured.write_artifacts();
    if let Some(kb) = peak_rss_kb() {
        eprintln!("[paper_report] peak RSS {:.1} MB", kb as f64 / 1024.0);
    }
    let off = rows.iter().filter(|row| !row.ok).count();
    if off > 0 {
        eprintln!(
            "paper_report: {off} of {} rows are outside what they are held to",
            rows.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
