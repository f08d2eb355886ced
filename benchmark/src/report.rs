//! Printing: the named metrics with their units for a reader, and the
//! one-line JSON object the driver parses.

use crate::measure::EndToEnd;
use crate::perlayer::{Better, PerLayer, PER_LAYER, REPLAYED};
use crate::stats::Summary;
use crate::workloads::Workload;

/// Every end-to-end metric `BENCHMARK.json` bounds: name, unit,
/// direction, and the share of the parent's median by which it may get
/// worse. `failed_share` and `check_failures` are end-to-end too, but
/// they are 0 on every accepted run, so they travel in the result's
/// `failed`/`attempted` and `correct` fields instead of this list.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("items_per_s", "items/s", Better::Higher, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.15),
    ("setup_s", "s", Better::Lower, 0.25),
    ("wire_msgs_per_item", "msgs/item", Better::Lower, 0.02),
];

/// The values of [`END_TO_END`], in order.
pub fn end_to_end_values(e: &EndToEnd) -> [f64; 4] {
    [
        e.items_per_s,
        e.peak_rss_mb,
        e.setup_s,
        e.wire_msgs_per_item,
    ]
}

fn samples(s: &Summary, unit: &str) -> String {
    format!(
        "n={} min {:.4} median {:.4} max {:.4} {unit}",
        s.n, s.min, s.median, s.max
    )
}

/// Print `e` by metric name, with units and the samples behind each
/// timing.
pub fn print_end_to_end(e: &EndToEnd, seed: u64) {
    let w = e.workload;
    println!(
        "== {} (seed {seed}): end to end, tracing off{} ==",
        w.name(),
        if Workload::GATED.contains(&w) {
            ""
        } else {
            "; not in BENCHMARK.json, so no bound applies"
        }
    );
    println!(
        "  items_per_s         {:>14.2} items/s    {} {} per rep at threads=1; rep {}",
        e.items_per_s,
        e.items,
        w.items(),
        samples(&e.reps, "s")
    );
    println!(
        "  peak_rss_mb         {:>14.2} MB         VmHWM, median of the children",
        e.peak_rss_mb
    );
    println!(
        "  setup_s             {:>14.4} s          inputs + first (cold) driver call; {}",
        e.setup_s,
        samples(&e.setup, "s")
    );
    println!(
        "  wire_msgs_per_item  {:>14.5} msgs/item  simulated, repeats exactly per seed",
        e.wire_msgs_per_item
    );
    println!(
        "  failed_share        {:>14} share      {} of {} probes",
        e.failed_share(),
        e.failed,
        e.attempted
    );
    println!("  check_failures      {:>14} count", e.check_failures.len());
    for failure in &e.check_failures {
        println!("    FAILED CHECK: {failure}");
    }
    let ms = |xs: &[f64]| {
        let xs: Vec<String> = xs.iter().map(|x| format!("{:.1}", x * 1e3)).collect();
        xs.join(" ")
    };
    println!("  reps_ms             {}", ms(&e.reps_s));
    println!("  setups_ms           {}", ms(&e.setups_s));
    println!(
        "  digest              {:016x}            FNV-1a of the rendered report; information only",
        e.digest
    );
}

/// Print `p`: every per-layer metric by name, the span breakdown, and
/// the notes.
pub fn print_per_layer(p: &PerLayer, seed: u64) {
    println!(
        "== {} (seed {seed}): per layer, from one traced single-shard replay of {} {} ==",
        p.workload.name(),
        p.items,
        p.workload.items()
    );
    println!("  (end-to-end numbers never come from this run; layer replays are marked)");
    for ((name, unit, _), value) in PER_LAYER.iter().zip(&p.values) {
        println!(
            "  {name:<32} {value:>16.4} {unit:<8}{}",
            if REPLAYED.contains(name) {
                " (replay)"
            } else {
                ""
            }
        );
    }
    println!("  self time by span (sums to trace.wall_s):");
    let total: f64 = p.by_name.iter().map(|(_, t)| t.self_s).sum();
    for (name, t) in &p.by_name {
        println!(
            "    {name:<18} {:>9} spans  self {:>8.4} s ({:>5.1} %)  busy {:>8.4} s",
            t.count,
            t.self_s,
            100.0 * t.self_s / total.max(f64::MIN_POSITIVE),
            t.busy_s
        );
    }
    for note in &p.notes {
        println!("  note: {note}");
    }
    for failure in &p.check_failures {
        println!("  FAILED CHECK: {failure}");
    }
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, on one line.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'static str, f64, &'static str)>,
) -> String {
    let metrics: Vec<String> = metrics
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let line = json_line(
            true,
            10,
            0,
            [("a_s", 1.5, "s"), ("b", f64::NAN, "count")].into_iter(),
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    /// `BENCHMARK.json` must list exactly the metrics this binary prints,
    /// with the bounds the self-check enforces.
    #[test]
    fn benchmark_json_lists_these_metrics_and_bounds() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit, better, bound) in END_TO_END {
            let better = if *better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let better = if *better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            manifest.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + Workload::GATED.len()
        );
        for w in Workload::GATED {
            assert!(manifest.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
        }
    }
}
