//! The paper's claims ([`claims`]), the one run of every experiment
//! driver that measures them and EXPERIMENTS.md rendered from it
//! ([`report`]; `paper_report` is the binary), the bench harness
//! ([`microbench`]), and what they share: CLI parsing, the canonical
//! experiment timestamp, the artefact writer. DESIGN.md §4 is the index
//! of experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use popgen::Scale;

pub mod claims;
pub mod microbench;
pub mod report;

/// The fixed "now" all experiments sign and validate at (March 2024-ish,
/// matching the paper's measurement window; any fixed value works — the
/// simulation has no wall clock).
pub const EXPERIMENT_NOW: u32 = 1_710_000_000;

/// Parsed common CLI options.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Registered-domain population scale.
    pub scale: Scale,
    /// Resolver fleet scale of the §5.2 study (default:
    /// `claims::REPORT_FLEET`).
    pub fleet: Scale,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the sharded experiment drivers (default: the
    /// `HEROES_THREADS` environment variable, else 1). Output is
    /// byte-identical for every value.
    pub threads: usize,
}

impl Options {
    /// Parse `--scale 1/1000`, `--fleet-scale 200` (the fleet at 1/200),
    /// `--seed N`, `--threads N` from argv.
    /// `--help` prints the usage line and exits 0; an unknown option or a
    /// value that does not parse prints it and exits 2 — a mistyped knob
    /// is never silently the default.
    #[allow(clippy::disallowed_methods)] // the harnesses' one exit
    pub fn parse(default_scale: Scale) -> Options {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Options::parse_args(&args, default_scale).unwrap_or_else(|complaint| {
            if let Some(complaint) = &complaint {
                eprintln!("error: {complaint}");
            }
            eprintln!(
                "options: --scale 1/N | --fleet-scale N (the fleet at 1/N) | --seed N | --threads N (defaults: scale {}, fleet scale {}, seed 42, threads from HEROES_THREADS else 1)",
                fmt_scale(default_scale),
                fmt_scale(claims::REPORT_FLEET)
            );
            std::process::exit(if complaint.is_some() { 2 } else { 0 })
        })
    }

    /// [`Options::parse`] over explicit arguments (the program name
    /// already dropped). `Err(None)` asks for the usage line,
    /// `Err(Some(_))` says what was wrong.
    fn parse_args(args: &[String], default_scale: Scale) -> Result<Options, Option<String>> {
        let mut opts = Options {
            scale: default_scale,
            fleet: claims::REPORT_FLEET,
            seed: 42,
            threads: sim_par::default_threads(),
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--scale" => opts.scale = value_of(flag, &mut args, parse_scale)?,
                "--fleet-scale" => opts.fleet = value_of(flag, &mut args, parse_denominator)?,
                "--seed" => opts.seed = value_of(flag, &mut args, |v| v.parse().ok())?,
                "--threads" => {
                    let threads: usize = value_of(flag, &mut args, |v| v.parse().ok())?;
                    opts.threads = threads.clamp(1, sim_par::MAX_THREADS);
                }
                "--help" | "-h" => return Err(None),
                _ => return Err(Some(format!("unknown option {flag}"))),
            }
        }
        Ok(opts)
    }
}

/// The value that follows `flag`, parsed — or what was wrong with it.
fn value_of<T>(
    flag: &str,
    args: &mut std::slice::Iter<'_, String>,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    parse(value).ok_or_else(|| format!("{flag} {value}: not a valid value"))
}

/// Parse `1/1000` or a plain float.
pub(crate) fn parse_scale(s: &str) -> Option<Scale> {
    if let Some((num, den)) = s.split_once('/') {
        let n: f64 = num.trim().parse().ok()?;
        let d: f64 = den.trim().parse().ok()?;
        if d > 0.0 {
            return Some(Scale(n / d));
        }
        return None;
    }
    s.trim().parse::<f64>().ok().map(Scale)
}

/// Parse a positive integer `N` as the scale 1/N.
fn parse_denominator(s: &str) -> Option<Scale> {
    let n: u32 = s.trim().parse().ok()?;
    (n > 0).then(|| Scale(1.0 / f64::from(n)))
}

/// Format a scale as `1/N`.
pub fn fmt_scale(scale: Scale) -> String {
    if scale.0 >= 1.0 {
        "1/1".to_string()
    } else {
        format!("1/{}", (1.0 / scale.0).round() as u64)
    }
}

/// Peak resident-set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux. The high-water mark is
/// monotonic for the life of the process, so harnesses that compare RSS
/// across sweep points must run each point in its own child process.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Write `contents` to `target/experiments/<name>` and report the path
/// on stderr (stdout is the report).
#[allow(clippy::disallowed_methods)] // the harnesses' one file writer
pub(crate) fn write_artifact(name: &str, contents: &str) {
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if std::fs::write(&path, contents).is_ok() {
            eprintln!("  [wrote {}]", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("1/1000").unwrap().0, 0.001);
        assert_eq!(parse_scale("0.01").unwrap().0, 0.01);
        assert!(parse_scale("1/0").is_none());
        assert!(parse_scale("x").is_none());
    }

    fn parse(args: &[&str]) -> Result<Options, Option<String>> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Options::parse_args(&args, Scale(0.5))
    }

    #[test]
    fn options_parse_what_they_are_given() {
        let opts = parse(&["--seed", "7", "--scale", "1/1000", "--threads", "999"]).unwrap();
        assert_eq!((opts.seed, opts.scale.0), (7, 0.001));
        assert_eq!(opts.fleet.0, claims::REPORT_FLEET.0);
        assert_eq!(parse(&["--fleet-scale", "1"]).unwrap().fleet.0, 1.0);
        assert_eq!(parse(&["--fleet-scale", "20"]).unwrap().fleet.0, 0.05);
        assert_eq!(opts.threads, sim_par::MAX_THREADS, "clamped, not rejected");
        assert_eq!(parse(&[]).unwrap().scale.0, 0.5);
        assert_eq!(parse(&["--seed", "1", "-h"]).unwrap_err(), None);
    }

    #[test]
    fn a_mistyped_option_is_an_error_not_the_default() {
        for bad in [
            &["--scale", "x"][..],
            &["--fleet-scale", "0"],
            &["--fleet-scale", "0.5"],
            &["--fleet-scale", "1/20"],
            &["--seed", "abc"],
            &["--e2e-sample", "600"],
            &["--threads", "four"],
            &["--seed"],
            &["--sead", "7"],
            &["7"],
        ] {
            let complaint = parse(bad)
                .unwrap_err()
                .expect("a complaint, not the usage line");
            assert!(complaint.contains(bad[0]), "{complaint}");
        }
    }

    #[test]
    fn scale_formatting() {
        assert_eq!(fmt_scale(Scale(0.001)), "1/1000");
        assert_eq!(fmt_scale(Scale(1.0)), "1/1");
    }
}
