//! Adversarial denial-of-existence cost sweep: what does each attack
//! family cost a validating resolver per query, undefended versus behind
//! the layered defense (RFC 9276 iteration clamp + per-query work
//! budget)?
//!
//! Runs every [`popgen::adversarial::AttackFamily`] twice — once with
//! [`DefenseProfile::undefended`], once with
//! [`DefenseProfile::defended`] — and records SHA-1 compressions,
//! signature verifications and combined work units per query, plus the
//! budget-abort tallies (degraded queries are accounted separately and
//! never pollute completed-query averages). Results land in
//! `BENCH_adversarial.json`.
//!
//! The paper-facing claims — every attack family costs an undefended
//! resolver ≥ 10× the RFC 9276 baseline, the defense holds every
//! family's total bill under 32× baseline and saves ≥ 1.2× of the
//! hash-heavy families' compressions — are the tests
//! `undefended_attacks_dwarf_baseline` and
//! `defense_bounds_every_family_and_accounts_aborts` beside the driver
//! (`crates/core/src/adversarial.rs`); this bin only reports.

use heroes_bench::microbench::Suite;
use heroes_bench::report::adversarial_scenario;
use heroes_bench::EXPERIMENT_NOW;
use nsec3_core::adversarial::{run_adversarial_cfg, DefenseProfile, FamilyTally};
use nsec3_core::experiments::{DriverConfig, DEFAULT_LAB_SEED};
use popgen::adversarial::AttackFamily;

/// One run of every family under `defense`: tallies in
/// [`AttackFamily::ALL`] order, and the wall time in ms.
fn run(defense: DefenseProfile) -> (Vec<FamilyTally>, f64) {
    let scenario = adversarial_scenario(defense);
    let cfg = DriverConfig::clean(EXPERIMENT_NOW, 1, DEFAULT_LAB_SEED);
    let t0 = std::time::Instant::now();
    let report = run_adversarial_cfg(&scenario, &cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let tallies = AttackFamily::ALL
        .iter()
        .map(|f| report.family(*f))
        .collect();
    (tallies, wall_ms)
}

fn main() {
    println!("adversarial workload sweep: 2 zones per family, 6 queries per zone");
    let mut suite = Suite::new("adversarial");
    let (undefended, undefended_ms) = run(DefenseProfile::undefended());
    let (defended, defended_ms) = run(DefenseProfile::defended());
    suite.record("undefended/wall_ms", undefended_ms, "ms");
    suite.record("defended/wall_ms", defended_ms, "ms");

    let base = &undefended[0];
    assert_eq!(
        base.completed, base.queries,
        "baseline completes undefended"
    );
    let base_work = base.work_units_per_query().max(1.0);

    for (i, family) in AttackFamily::ALL.iter().enumerate() {
        let label = family.label();
        for (arm, t) in [("undefended", &undefended[i]), ("defended", &defended[i])] {
            let mut row = |metric: &str, value: f64, unit: &str| {
                suite.record(&format!("{label}/{arm}/{metric}"), value, unit);
            };
            row("queries", t.queries as f64, "count");
            row("completed", t.completed as f64, "count");
            row("budget_exceeded", t.budget_exceeded as f64, "count");
            row("lost", t.lost as f64, "count");
            row(
                "compressions_per_query",
                t.compressions_per_query(),
                "compressions",
            );
            row(
                "signatures_per_query",
                t.signatures_per_query(),
                "signatures",
            );
            row(
                "work_units_per_query",
                t.work_units_per_query(),
                "work units",
            );
            // Budget-aborted spend included: the defender's whole bill.
            row(
                "total_compressions_per_query",
                t.total_compressions_per_query(),
                "compressions",
            );
            row(
                "total_work_units_per_query",
                t.total_work_units_per_query(),
                "work units",
            );
        }
        suite.record(
            &format!("{label}/amplification_vs_baseline"),
            undefended[i].total_work_units_per_query() / base_work,
            "x",
        );
        suite.record(
            &format!("{label}/defended_bill_vs_baseline"),
            defended[i].total_work_units_per_query() / base_work,
            "x",
        );
    }

    suite.finish();
}
