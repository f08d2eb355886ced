//! The traced run: one replay of the workload under spans, the layer
//! replays, and a short serial/parallel pair — folded into the per-layer
//! metrics.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::time::{Duration, Instant};

use dns_zone::nsec3hash::thread_cache_stats;

use crate::host::Host;
use crate::layers;
use crate::measure::{spawn_child, ChildArgs};
use crate::replay::{replay, span, Ctx};
use crate::stats::{median, percentile_sorted, ratio};
use crate::trace::{totals_by_name, write_spans, NameTotals, CAPTURE};
use crate::workloads::{build_inputs, run_driver, summarize, Report, Size, Workload};

/// Which way a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// Every per-layer metric: name (the prefix is the module), unit, and
/// direction. `BENCHMARK.json` lists exactly these, in this order.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("popgen.items", "count", Better::Lower),
    ("popgen.busy_s", "s", Better::Lower),
    ("popgen.ns_per_item", "ns", Better::Lower),
    ("lab.builds", "count", Better::Lower),
    ("lab.zones", "count", Better::Lower),
    ("lab.busy_s", "s", Better::Lower),
    ("lab.us_per_zone", "us", Better::Lower),
    ("zone.sign_busy_s", "s", Better::Lower),
    ("zone.sign_us_per_zone", "us", Better::Lower),
    ("zone.nsec3_hash_ns_it0", "ns", Better::Lower),
    ("zone.nsec3_hash_ns_it150", "ns", Better::Lower),
    ("zone.nsec3_hashes_per_item", "1/item", Better::Lower),
    ("zone.nsec3_lookups_per_item", "1/item", Better::Lower),
    ("zone.nsec3_cache_hit_ratio", "ratio", Better::Higher),
    ("crypto.sha1_per_item", "1/item", Better::Lower),
    ("crypto.sigs_per_item", "1/item", Better::Lower),
    ("crypto.sha1_ns_per_compression", "ns", Better::Lower),
    ("crypto.est_hash_s", "s", Better::Lower),
    ("wire.msgs", "count", Better::Lower),
    ("wire.bytes_per_msg", "B", Better::Lower),
    ("wire.decode_ns_per_msg", "ns", Better::Lower),
    ("wire.encode_ns_per_msg", "ns", Better::Lower),
    ("netsim.datagrams", "count", Better::Lower),
    ("netsim.lost", "count", Better::Lower),
    ("netsim.echo_ns_per_datagram", "ns", Better::Lower),
    ("netsim.drive_steps", "count", Better::Lower),
    ("netsim.drive_ns_per_step", "ns", Better::Lower),
    ("netsim.drive_self_s", "s", Better::Lower),
    ("netsim.in_flight_high_water", "count", Better::Lower),
    ("netsim.virt_s", "s", Better::Lower),
    ("netsim.virt_p50_us", "us", Better::Lower),
    ("netsim.virt_p99_us", "us", Better::Lower),
    ("auth.queries", "count", Better::Lower),
    ("auth.busy_s", "s", Better::Lower),
    ("auth.ns_per_query", "ns", Better::Lower),
    ("auth.reply_bytes_per_query", "B", Better::Lower),
    ("resolver.queries", "count", Better::Lower),
    ("resolver.busy_s", "s", Better::Lower),
    ("resolver.self_s", "s", Better::Lower),
    ("resolver.self_us_per_query", "us", Better::Lower),
    ("resolver.hit_us", "us", Better::Lower),
    ("resolver.synth_us", "us", Better::Lower),
    ("resolver.forward_us", "us", Better::Lower),
    ("resolver.upstream_per_query", "1/query", Better::Lower),
    ("resolver.answer_hit_ratio", "ratio", Better::Higher),
    ("resolver.key_hit_ratio", "ratio", Better::Higher),
    ("resolver.synth_share", "ratio", Better::Higher),
    ("resolver.delegation_hit_ratio", "ratio", Better::Higher),
    ("resolver.delegation_evictions", "count", Better::Lower),
    ("scanner.probes", "count", Better::Lower),
    ("scanner.steps", "count", Better::Lower),
    ("scanner.self_s", "s", Better::Lower),
    ("scanner.us_per_probe", "us", Better::Lower),
    ("scanner.retries", "count", Better::Lower),
    ("scanner.timed_out", "count", Better::Lower),
    ("analysis.records", "count", Better::Lower),
    ("analysis.busy_s", "s", Better::Lower),
    ("analysis.ns_per_record", "ns", Better::Lower),
    ("par.threads", "count", Better::Higher),
    ("par.items_per_s", "items/s", Better::Higher),
    ("par.speedup", "ratio", Better::Higher),
    ("par.rss_mb_per_thread", "MB", Better::Lower),
    ("trace.wall_s", "s", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.unattributed_share", "ratio", Better::Lower),
    ("trace.replay_matches_driver", "count", Better::Higher),
];

/// The metrics that come from replaying a layer's entry point after the
/// traced run, not from spans inside it; the output marks them.
pub const REPLAYED: &[&str] = &[
    "zone.sign_busy_s",
    "zone.sign_us_per_zone",
    "zone.nsec3_hash_ns_it0",
    "zone.nsec3_hash_ns_it150",
    "crypto.sha1_ns_per_compression",
    "crypto.est_hash_s",
    "wire.decode_ns_per_msg",
    "wire.encode_ns_per_msg",
    "netsim.echo_ns_per_datagram",
    "netsim.drive_ns_per_step",
];

/// The result of one traced run.
#[derive(Clone, Debug)]
pub struct PerLayer {
    /// The workload traced.
    pub workload: Workload,
    /// One value per [`PER_LAYER`] entry, in the same order.
    pub values: Vec<f64>,
    /// Items the replay processed.
    pub items: u64,
    /// Probes attempted by the replay.
    pub attempted: u64,
    /// Probes failed in the replay.
    pub failed: u64,
    /// Self time per span name, for the printed breakdown.
    pub by_name: Vec<(&'static str, NameTotals)>,
    /// Things a reader of the numbers must know.
    pub notes: Vec<String>,
    /// Failed checks (replay ≠ driver, child failures), one line each.
    pub check_failures: Vec<String>,
}

/// Sum of `pick` over every span name in `layer` (`layer` itself or
/// `layer.*`).
fn layer_sum(
    by_name: &[(&'static str, NameTotals)],
    layer: &str,
    pick: impl Fn(&NameTotals) -> f64,
) -> f64 {
    by_name
        .iter()
        .filter(|(name, _)| name.split('.').next() == Some(layer))
        .map(|(_, t)| pick(t))
        .fold(0.0, |sum, x| sum + x) // `sum()` of nothing is -0.0
}

fn named<'a>(by_name: &'a [(&'static str, NameTotals)], name: &str) -> Option<&'a NameTotals> {
    by_name.iter().find(|(n, _)| *n == name).map(|(_, t)| t)
}

fn probe_stats(report: &Report) -> dns_scanner::retry::ProbeStats {
    match report {
        Report::Census(r) => r.probe_stats,
        Report::Study(study, _) => study.stats,
        Report::Serving(r) => r.probe_stats,
        Report::Chain(r) => r.probe_stats,
    }
}

/// Trace `workload`: an untraced reference, the traced replay, the layer
/// replays, and a short serial/parallel pair of children. `seconds`
/// bounds the children; `spans_out`, when set, receives the raw spans.
pub fn traced(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    host: &Host,
    spans_out: Option<&Path>,
) -> Result<PerLayer, String> {
    let mut notes = Vec::new();
    let mut check_failures = Vec::new();

    // Untraced reference on this process: one warm-up, then three timed
    // passes of exactly what the replay covers (inputs + pipeline).
    let untraced = || {
        let t0 = Instant::now();
        let inputs = build_inputs(workload, size, seed);
        let report = run_driver(&inputs, 1);
        (t0.elapsed().as_secs_f64(), report)
    };
    let (_, driver_report) = untraced();
    let untraced_s = median(&[untraced().0, untraced().0, untraced().0]);
    let driver = summarize(&driver_report);
    drop(driver_report);

    // The traced replay.
    let ctx = Ctx::new();
    let (hash_hits0, hash_misses0) = thread_cache_stats();
    let t0 = Instant::now();
    let report = replay(&ctx, workload, size, seed);
    let traced_s = t0.elapsed().as_secs_f64();
    let (hash_hits1, hash_misses1) = thread_cache_stats();
    let replayed = summarize(&report);
    let matches = replayed == driver;
    if !matches {
        check_failures.push(format!(
            "replay differs from the driver: {replayed:?} vs {driver:?}"
        ));
    }
    let probes = probe_stats(&report);
    drop(report);

    let spans = ctx.tracer.finish();
    if let Some(path) = spans_out {
        let written = File::create(path).and_then(|f| write_spans(&spans, &mut BufWriter::new(f)));
        match written {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
        }
    }
    let by_name: Vec<(&'static str, NameTotals)> = totals_by_name(&spans).into_iter().collect();
    drop(spans);
    let c = ctx.counters();
    let items = replayed.items as f64;

    // Layer replays.
    let jobs = ctx.take_sign_jobs();
    let sign_s = layers::sign_replay_s(&jobs);
    let signed_zones = jobs.len() as f64;
    drop(jobs);
    let (decode_ns, encode_ns) = layers::wire_replay_ns(&ctx.wire.take_samples());
    let bytes_per_msg = ratio(ctx.wire.bytes() as f64, ctx.wire.msgs() as f64);
    let echo_ns = layers::echo_ns_per_datagram(bytes_per_msg as usize);
    let drive_ns = layers::drive_ns_per_step(c.in_flight_high_water.max(1) as usize);
    let (hash0_ns, _) = layers::nsec3_hash_ns(0);
    let (hash150_ns, compressions150) = layers::nsec3_hash_ns(150);
    let sha1_ns = ratio(hash150_ns, compressions150);

    // A short serial/parallel pair for the `par` layer.
    let child = |threads: usize| {
        spawn_child(ChildArgs {
            workload,
            size,
            seed,
            threads,
            budget: Duration::from_secs_f64(seconds * 0.2),
        })
    };
    let serial = child(1)?;
    let par = child(host.par_threads)?;
    for c in [&serial, &par] {
        check_failures.extend(c.check_failures.iter().cloned());
        if c.outcome.digest != driver.digest {
            check_failures.push(format!(
                "child digest {:016x} differs from this process's {:016x}",
                c.outcome.digest, driver.digest
            ));
        }
    }
    // Fastest rep of each child, as `items_per_s` takes it.
    let fastest = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
    let par_items_per_s = ratio(items, fastest(&par.times_s));
    let speedup = if host.par_threads > 1 {
        ratio(fastest(&serial.times_s), fastest(&par.times_s))
    } else {
        notes.push("par.speedup is 0: one core, so the parallel run had one thread".to_string());
        0.0
    };
    let rss_per_thread = ratio(
        par.rss_mb - serial.rss_mb,
        host.par_threads.saturating_sub(1) as f64,
    );

    let root = named(&by_name, span::ROOT).cloned().unwrap_or_default();
    let busy = |layer: &str| layer_sum(&by_name, layer, |t| t.busy_s);
    let self_s = |layer: &str| layer_sum(&by_name, layer, |t| t.self_s);
    let class_us = |name: &str| named(&by_name, name).map_or(0.0, |t| t.median_self_us);
    let resolver_queries = match workload {
        Workload::ResolverStudy => ctx.fleet.queries.get(),
        _ => c.resolver_calls,
    } as f64;
    if workload == Workload::CensusStream {
        notes.push(
            "census_stream: the resolver runs inside CensusProbe::step, so scanner.self_s \
             includes it and resolver.busy_s/self_s are 0"
                .to_string(),
        );
    }
    if c.unmetered_resolvers > 0 {
        notes.push(format!(
            "{} copier/flaky fleet members own their resolvers: their hashing and signature \
             checks are missing from crypto.* and zone.nsec3_hashes_per_item",
            c.unmetered_resolvers
        ));
    }
    let virt = ctx.take_item_virt_us_sorted();
    let scanner_steps = named(&by_name, span::SCANNER).map_or(0, |t| t.count) as f64;
    let hash_lookups = ((hash_hits1 - hash_hits0) + (hash_misses1 - hash_misses0)) as f64;

    let mut values = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &str, value: f64| {
        assert_eq!(PER_LAYER[values.len()].0, name, "metrics out of order");
        values.push(value);
    };
    put("popgen.items", c.popgen_items as f64);
    put("popgen.busy_s", busy("popgen"));
    put(
        "popgen.ns_per_item",
        ratio(busy("popgen") * 1e9, c.popgen_items as f64),
    );
    put("lab.builds", c.lab_builds as f64);
    put("lab.zones", c.lab_zones as f64);
    put("lab.busy_s", busy("lab"));
    put(
        "lab.us_per_zone",
        ratio(busy("lab") * 1e6, c.lab_zones as f64),
    );
    put("zone.sign_busy_s", sign_s);
    put("zone.sign_us_per_zone", ratio(sign_s * 1e6, signed_zones));
    put("zone.nsec3_hash_ns_it0", hash0_ns);
    put("zone.nsec3_hash_ns_it150", hash150_ns);
    put(
        "zone.nsec3_hashes_per_item",
        ratio(c.nsec3_hashes as f64, items),
    );
    put("zone.nsec3_lookups_per_item", ratio(hash_lookups, items));
    put(
        "zone.nsec3_cache_hit_ratio",
        ratio((hash_hits1 - hash_hits0) as f64, hash_lookups),
    );
    put(
        "crypto.sha1_per_item",
        ratio(c.sha1_compressions as f64, items),
    );
    put("crypto.sigs_per_item", ratio(c.signatures as f64, items));
    put("crypto.sha1_ns_per_compression", sha1_ns);
    put(
        "crypto.est_hash_s",
        c.sha1_compressions as f64 * sha1_ns / 1e9,
    );
    put("wire.msgs", ctx.wire.msgs() as f64);
    put("wire.bytes_per_msg", bytes_per_msg);
    put("wire.decode_ns_per_msg", decode_ns);
    put("wire.encode_ns_per_msg", encode_ns);
    put("netsim.datagrams", c.datagrams as f64);
    put("netsim.lost", c.lost as f64);
    put("netsim.echo_ns_per_datagram", echo_ns);
    put("netsim.drive_steps", c.drive_steps as f64);
    put("netsim.drive_ns_per_step", drive_ns);
    put(
        "netsim.drive_self_s",
        named(&by_name, span::DRIVE).map_or(0.0, |t| t.self_s),
    );
    put("netsim.in_flight_high_water", c.in_flight_high_water as f64);
    put("netsim.virt_s", c.virt_micros as f64 / 1e6);
    put("netsim.virt_p50_us", percentile_sorted(&virt, 50.0) as f64);
    put("netsim.virt_p99_us", percentile_sorted(&virt, 99.0) as f64);
    let auth_queries = ctx.auth.queries.get() as f64;
    put("auth.queries", auth_queries);
    put("auth.busy_s", busy("auth"));
    put("auth.ns_per_query", ratio(busy("auth") * 1e9, auth_queries));
    put(
        "auth.reply_bytes_per_query",
        ratio(ctx.auth.reply_bytes.get() as f64, auth_queries),
    );
    put("resolver.queries", resolver_queries);
    put("resolver.busy_s", busy("resolver"));
    put("resolver.self_s", self_s("resolver"));
    put(
        "resolver.self_us_per_query",
        ratio(self_s("resolver") * 1e6, resolver_queries),
    );
    put("resolver.hit_us", class_us(span::RESOLVER_HIT));
    put("resolver.synth_us", class_us(span::RESOLVER_SYNTH));
    put("resolver.forward_us", class_us(span::RESOLVER_FORWARD));
    put(
        "resolver.upstream_per_query",
        ratio(c.upstream_messages as f64, resolver_queries),
    );
    put(
        "resolver.answer_hit_ratio",
        ratio(
            c.answer_hits as f64,
            (c.answer_hits + c.answer_misses) as f64,
        ),
    );
    put(
        "resolver.key_hit_ratio",
        ratio(c.key_hits as f64, (c.key_hits + c.key_misses) as f64),
    );
    put(
        "resolver.synth_share",
        ratio(c.synthesized as f64, resolver_queries),
    );
    put(
        "resolver.delegation_hit_ratio",
        ratio(
            c.delegation_hits as f64,
            (c.delegation_hits + c.delegation_misses) as f64,
        ),
    );
    put(
        "resolver.delegation_evictions",
        c.delegation_evictions as f64,
    );
    let scans = matches!(workload, Workload::CensusStream | Workload::ResolverStudy);
    let scanner_probes = if scans { probes.sent as f64 } else { 0.0 };
    put("scanner.probes", scanner_probes);
    put("scanner.steps", scanner_steps);
    put("scanner.self_s", self_s("scanner"));
    put(
        "scanner.us_per_probe",
        ratio(self_s("scanner") * 1e6, scanner_probes),
    );
    put(
        "scanner.retries",
        if scans { probes.retried as f64 } else { 0.0 },
    );
    put(
        "scanner.timed_out",
        if scans { probes.timed_out as f64 } else { 0.0 },
    );
    put("analysis.records", c.analysis_records as f64);
    put("analysis.busy_s", busy("analysis"));
    put(
        "analysis.ns_per_record",
        ratio(busy("analysis") * 1e9, c.analysis_records as f64),
    );
    put("par.threads", host.par_threads as f64);
    put("par.items_per_s", par_items_per_s);
    put("par.speedup", speedup);
    put("par.rss_mb_per_thread", rss_per_thread);
    put("trace.wall_s", traced_s);
    put(
        "trace.overhead_pct",
        (ratio(traced_s, untraced_s) - 1.0) * 100.0,
    );
    put("trace.unattributed_share", ratio(root.self_s, root.busy_s));
    put("trace.replay_matches_driver", f64::from(u8::from(matches)));
    assert_eq!(values.len(), PER_LAYER.len(), "every metric has a value");
    notes.push(format!(
        "tracing's own spans ({CAPTURE}, trace.adopt) took {:.4} s of trace.wall_s",
        self_s("trace")
    ));

    Ok(PerLayer {
        workload,
        values,
        items: replayed.items,
        attempted: replayed.attempted,
        failed: replayed.failed,
        by_name,
        notes,
        check_failures,
    })
}
