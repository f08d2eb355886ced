//! What the host looked like when the numbers were taken.

use std::fmt;

/// Host facts recorded with every result.
#[derive(Clone, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Worker threads the parallel runs use: `min(cores, 4)`, so a run
    /// never has more threads than cores and never reports an
    /// oversubscribed speed-up.
    pub par_threads: usize,
    /// `/proc/loadavg` when the run started, if readable.
    pub loadavg: Option<String>,
}

impl Host {
    /// Read the host facts now.
    pub fn read() -> Host {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            cores,
            par_threads: cores.min(4),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .map(|s| s.trim().to_string()),
        }
    }

    /// The 1-minute load average, if known.
    pub fn load1(&self) -> Option<f64> {
        self.loadavg
            .as_ref()?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    }

    /// A warning when the host was already busy: timings taken next to
    /// other load are not comparable.
    pub fn load_warning(&self) -> Option<String> {
        let load = self.load1()?;
        (load > 0.5 * self.cores as f64).then(|| {
            format!(
                "WARNING: 1-minute load {load:.2} exceeds half of {} core(s); timings are suspect",
                self.cores
            )
        })
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "host_cores={} par_threads={} oversubscribed={} loadavg=\"{}\"",
            self.cores,
            self.par_threads,
            self.par_threads > self.cores,
            self.loadavg.as_deref().unwrap_or("unknown")
        )
    }
}

/// Peak resident-set size of this process in MB (`VmHWM`), 0 when
/// `/proc` is unavailable. Monotonic for the life of the process, which
/// is why every measurement runs in its own child.
pub fn peak_rss_mb() -> f64 {
    heroes_bench::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_warning_fires_only_above_half_the_cores() {
        let host = |load: &str| Host {
            cores: 2,
            par_threads: 2,
            loadavg: Some(format!("{load} 0.10 0.05 1/100 4242")),
        };
        assert!(host("0.90").load_warning().is_none());
        assert!(host("1.10").load_warning().is_some());
        let unknown = Host {
            cores: 2,
            par_threads: 2,
            loadavg: None,
        };
        assert!(unknown.load_warning().is_none());
        assert!(unknown.to_string().contains("oversubscribed=false"));
    }
}
