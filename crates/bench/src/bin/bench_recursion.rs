//! Iterative-recursion cost sweep over the signed root→TLD→leaf
//! delegation graph: what does a full cold walk cost, how much does the
//! delegation cache save on warm walks, and how does the bill grow with
//! chain depth?
//!
//! Stands the whole [`popgen::HierarchyModel`] up in one lab
//! ([`nsec3_core::build_hierarchy`]) and walks every leaf with a
//! validating resolver, recording upstream messages and crypto work per
//! walk. Results land in `BENCH_recursion.json`.
//!
//! `walks_cached_ms` / `walks_cacheless_ms` time the 96 walks alone: the
//! hierarchy is stood up outside the timed region, and each row is the
//! fastest of [`ROUNDS`] alternating sweeps, so neither arm pays for a
//! cold process or fills the thread's NSEC3 hash cache for the other (a
//! single 3 ms reading moves by a third on a shared host).
//!
//! The paper-facing claims — warm walks hit the delegation cache and
//! undercut the cacheless upstream bill, and a root→TLD→leaf walk costs
//! ≥ 1.2× the messages of a root→TLD walk — are tests beside the
//! drivers: `full_hierarchy_stands_up_and_resolves` and
//! `delegation_cache_warms_within_a_tld` (`crates/core/src/hierarchy.rs`),
//! `delegation_cache_saves_upstream_and_stays_invariant`
//! (`crates/core/src/serving.rs`); this bin only reports.

use dns_resolver::resolver::{RecursionStep, Resolver, ResolverConfig};
use dns_wire::name::Name;
use dns_wire::rrtype::{Rcode, RrType};
use heroes_bench::microbench::Suite;
use heroes_bench::EXPERIMENT_NOW;
use nsec3_core::experiments::DEFAULT_LAB_SEED;
use nsec3_core::hierarchy::build_hierarchy;
use popgen::hierarchy::HierarchyModel;

const TLDS: usize = 24;
const LEAVES_PER_TLD: usize = 4;
const ROUNDS: usize = 5;

/// Per-pass accounting for one probe sweep.
#[derive(Default)]
struct Sweep {
    walks: u64,
    messages: u64,
    sha1: u64,
    signatures: u64,
    virtual_micros: u64,
}

impl Sweep {
    fn per_walk(&self, v: u64) -> f64 {
        v as f64 / (self.walks.max(1)) as f64
    }

    fn record(&self, suite: &mut Suite, label: &str) {
        let mut row = |metric: &str, value: f64, unit: &str| {
            suite.record(&format!("{label}/{metric}"), value, unit);
        };
        row("walks", self.walks as f64, "count");
        row("messages_per_walk", self.per_walk(self.messages), "msgs");
        row("sha1_per_walk", self.per_walk(self.sha1), "compressions");
        row(
            "signatures_per_walk",
            self.per_walk(self.signatures),
            "signatures",
        );
        row(
            "virtual_us_per_walk",
            self.per_walk(self.virtual_micros),
            "us",
        );
    }
}

/// One sweep's outcome: the first walk per TLD, the repeat walks, the
/// resolver that made them and the wall time of the walks alone.
struct Swept {
    cold: Sweep,
    warm: Sweep,
    resolver: Resolver,
    walks_ms: f64,
}

/// Walk every leaf on a fresh resolver over a freshly built hierarchy,
/// stepping the recursion by hand, one upstream exchange per step, as
/// the chain-study driver does.
fn sweep(model: &HierarchyModel, delegation_cache: bool) -> Swept {
    let h = build_hierarchy(model, EXPERIMENT_NOW, DEFAULT_LAB_SEED);
    let mut lab = h.lab;
    let raddr = lab.alloc.v4();
    let mut rcfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
    rcfg.now = lab.now;
    rcfg.delegation_cache = delegation_cache;
    let resolver = Resolver::new(rcfg);
    let mut cold = Sweep::default();
    let mut warm = Sweep::default();
    let t0 = std::time::Instant::now();
    for tld in &h.tlds {
        for (i, leaf) in tld.leaves.iter().enumerate() {
            let q = Name::parse(&format!("www.{}", leaf.name)).expect("probe parses");
            let sweep = if i == 0 { &mut cold } else { &mut warm };
            let started = lab.net.now_micros();
            let mut machine = resolver.begin_recursion(&lab.net, &q, RrType::A);
            let out = loop {
                if let RecursionStep::Done(out) = machine.step(&lab.net) {
                    break out;
                }
            };
            assert_ne!(
                out.rcode,
                Rcode::ServFail,
                "intact hierarchy must resolve {q}: {:?}",
                out.ede
            );
            sweep.walks += 1;
            sweep.messages += out.cost.messages_sent;
            sweep.sha1 += out.cost.sha1_compressions;
            sweep.signatures += out.cost.signatures_verified;
            sweep.virtual_micros += lab.net.now_micros() - started;
        }
    }
    let walks_ms = t0.elapsed().as_secs_f64() * 1e3;
    Swept {
        cold,
        warm,
        resolver,
        walks_ms,
    }
}

/// Upstream messages per root→TLD walk (NXDOMAIN at the TLD apex) on a
/// fresh cacheless resolver over the same hierarchy.
fn shallow_msgs_per_walk(model: &HierarchyModel) -> f64 {
    let h = build_hierarchy(model, EXPERIMENT_NOW, DEFAULT_LAB_SEED);
    let mut lab = h.lab;
    let raddr = lab.alloc.v4();
    let mut rcfg = ResolverConfig::validating(raddr, lab.root_hints.clone(), lab.anchor.clone());
    rcfg.now = lab.now;
    let resolver = Resolver::new(rcfg);
    let mut msgs = 0u64;
    for tld in &h.tlds {
        let q = Name::parse(&format!("does-not-exist.{}", tld.spec.name)).expect("probe parses");
        let out = resolver.resolve(&lab.net, &q, RrType::A);
        assert_ne!(out.rcode, Rcode::ServFail, "shallow probe must resolve");
        msgs += out.cost.messages_sent;
    }
    msgs as f64 / h.tlds.len() as f64
}

fn main() {
    let model = HierarchyModel::intact(TLDS, LEAVES_PER_TLD, 7);
    println!("iterative recursion sweep: {TLDS} TLDs, {LEAVES_PER_TLD} leaf zones each");
    let mut suite = Suite::new("recursion");

    // Counts are a pure function of the model; only the timings differ
    // between rounds.
    let mut cached = sweep(&model, true);
    let mut cacheless = sweep(&model, false);
    for _ in 1..ROUNDS {
        cached.walks_ms = cached.walks_ms.min(sweep(&model, true).walks_ms);
        cacheless.walks_ms = cacheless.walks_ms.min(sweep(&model, false).walks_ms);
    }
    suite.record("walks_cached_ms", cached.walks_ms, "ms");
    suite.record("walks_cacheless_ms", cacheless.walks_ms, "ms");
    cached.cold.record(&mut suite, "cold");
    cached.warm.record(&mut suite, "warm");
    cacheless.cold.record(&mut suite, "cacheless_cold");
    cacheless.warm.record(&mut suite, "cacheless_warm");

    let r = &cached.resolver;
    suite.record("delegation/hits", r.delegation_hits() as f64, "count");
    suite.record("delegation/misses", r.delegation_misses() as f64, "count");
    suite.record(
        "delegation/evictions",
        r.delegation_evictions() as f64,
        "count",
    );
    suite.record(
        "upstream_total/cached",
        (cached.cold.messages + cached.warm.messages) as f64,
        "msgs",
    );
    suite.record(
        "upstream_total/cacheless",
        (cacheless.cold.messages + cacheless.warm.messages) as f64,
        "msgs",
    );

    // Depth amplification, cold and cacheless: the full root→TLD→leaf
    // walk against a root→TLD walk over the same hierarchy.
    let shallow = shallow_msgs_per_walk(&model);
    let deep = cacheless.cold.per_walk(cacheless.cold.messages);
    suite.record("depth/shallow_msgs_per_walk", shallow, "msgs");
    suite.record("depth/deep_msgs_per_walk", deep, "msgs");
    suite.record("depth/amplification", deep / shallow, "x");

    suite.finish();
}
