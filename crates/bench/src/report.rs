//! One run of every experiment driver, and EXPERIMENTS.md rendered from
//! it: each `E<n>` section's text and figures are here, its table comes
//! from the rows of [`crate::claims`].

use std::fmt::Write as _;

use analysis::rfc9276::ITEMS;
use analysis::{
    cdf_csv, cdf_svg, figure3_csv, figure3_svg, render_cdf, render_figure3_panel, render_table2,
    Panel, ResolverStats,
};
use nsec3_core::adversarial::{run_adversarial_cfg, AdversarialScenario, DefenseProfile};
use nsec3_core::experiments::{
    cve_cost_sweep, run_domain_census_stream, run_resolver_tally_cfg, run_unreachability_cfg,
    CvePoint, DriverConfig, StreamCensusReport, Unreachability,
};
use nsec3_core::hierarchy::{run_chain_study_cfg, ChainStudy};
use nsec3_core::serving::{run_serving_cfg, ServingScenario};
use nsec3_core::{ChainReport, ServingTally};
use popgen::domains::{DnssecKind, DomainSpec};
use popgen::hierarchy::HierarchyModel;
use popgen::resolvers::generate_fleet_with_mix;
use popgen::traffic::{QueryMix, TrafficModel};
use popgen::{
    eras, generate_attack_zones, generate_domains, generate_fleet, generate_tranco,
    DomainGenerator, Era, Scale,
};

use crate::claims::{
    cve_points, rows, table2, At, Defense, ResolverReport, Row, TldReport, TrancoStats, Value,
    ADVERSARIAL, CENSUS, CHAIN, CVE, RESOLVERS, SERVING, TEST_SCALE, TLDS, TLD_CONTENTS, TRANCO,
    UNREACHABILITY,
};
use crate::{fmt_scale, write_artifact};

/// Each era's fleet in the adoption timeline.
const ERA_FLEETS: Scale = Scale(1.0 / 500.0);
/// The domain sample probed through a strict resolver: small, so the 213
/// absolute tail domains stay a small share of it.
const UNREACHABILITY_SAMPLE: Scale = Scale(1.0 / 10_000.0);
/// Domains per lab in the streaming census and the unreachability probe.
const CENSUS_BATCH: usize = 512;

/// The attack zones `bench_adversarial` and the report run: two zones a
/// family, six queries a zone.
pub fn adversarial_scenario(defense: DefenseProfile) -> AdversarialScenario {
    AdversarialScenario {
        zones: generate_attack_zones("example.", 2),
        queries_per_zone: 6,
        defense,
    }
}

/// Signed NSEC3 zones in the serving population.
pub const SERVING_ZONES: usize = 24;
/// Resolver instances the serving clients partition across.
pub const SERVING_FLEET: usize = 4;

/// The serving fixture `bench_serving` and the report share: `clients`
/// clients of `queries_per_client` queries each against the first
/// [`SERVING_ZONES`] non-opt-out NSEC3 zones of the calibrated population
/// (the domains whose denial chains a fleet can cache aggressively),
/// through a fleet of [`SERVING_FLEET`].
pub fn serving_scenario(clients: u64, queries_per_client: u64, mix: QueryMix) -> ServingScenario {
    const SEED: u64 = 42;
    let generator = DomainGenerator::new(Scale(1.0 / 3_020.0), SEED);
    let zones: Vec<DomainSpec> = (0..generator.len())
        .map(|i| generator.get(i))
        .filter(|spec| matches!(spec.dnssec, DnssecKind::Nsec3 { opt_out: false, .. }))
        .take(SERVING_ZONES)
        .collect();
    assert_eq!(zones.len(), SERVING_ZONES, "population too small");
    let traffic = TrafficModel::new(clients, queries_per_client, SEED).with_mix(mix);
    ServingScenario::new(zones, traffic).with_fleet(SERVING_FLEET)
}

/// What one run of every driver measured.
pub struct Measured {
    /// Scale of the registered-domain population.
    pub domains: Scale,
    /// Scale of the §5.2 resolver fleet.
    pub fleet: Scale,
    /// Population and fleet seed.
    pub seed: u64,
    /// §5.1 domains: the streaming census over the whole population.
    pub census: StreamCensusReport,
    /// §5.1 TLDs, end to end.
    pub tlds: TldReport,
    /// Figure 2.
    pub tranco: TrancoStats,
    /// §5.2: the fleet against the testbed.
    pub resolvers: ResolverReport,
    /// The abstract's unreachability claim.
    pub unreachability: Unreachability,
    /// The CVE-2023-50868 cost sweep over `cve_points`.
    pub cve: Vec<CvePoint>,
    /// The adoption timeline: each era's fleet, classified.
    pub eras: Vec<(ResolverStats, Era)>,
    /// The adversarial driver, undefended and defended.
    pub defense: Defense,
    /// The serving driver: a warm fleet under the browsing mix.
    pub serving: ServingTally,
    /// The chain study over a faulted hierarchy.
    pub chain: ChainReport,
}

impl Measured {
    /// Run every driver once. Progress goes to stderr.
    pub fn run(domains: Scale, fleet: Scale, seed: u64, cfg: &DriverConfig) -> Measured {
        let step = |what: &str| eprintln!("[paper_report] {what}…");
        step("resolver study");
        let (resolvers, _) = run_resolver_tally_cfg(&generate_fleet(fleet, seed), cfg);
        step("era fleets");
        let classified = |era: Era| {
            let fleet = generate_fleet_with_mix(ERA_FLEETS, seed, era.mix);
            (run_resolver_tally_cfg(&fleet, cfg).0.all(), era)
        };
        let eras = eras().into_iter().map(classified).collect();
        step("adversarial driver");
        let attack = |defense| run_adversarial_cfg(&adversarial_scenario(defense), cfg);
        let defense = Defense {
            undefended: attack(DefenseProfile::undefended()),
            defended: attack(DefenseProfile::defended()),
        };
        step("unreachability");
        let sample = generate_domains(UNREACHABILITY_SAMPLE, seed);
        let unreachability = run_unreachability_cfg(&sample, CENSUS_BATCH, cfg).0;
        step("serving driver");
        let warm = serving_scenario(64, 1_000, QueryMix::browsing());
        let serving = run_serving_cfg(&warm, cfg).tally;
        step("chain study");
        let faulted = ChainStudy::new(HierarchyModel::intact(24, 2, 7).with_faults(3));
        let chain = run_chain_study_cfg(&faulted, cfg);
        step("CVE sweep");
        let cve = cve_cost_sweep(&cve_points(), cfg.now);
        step("Tranco list");
        let tranco = TrancoStats::compute(&generate_tranco(Scale(1.0), seed));
        step("TLD census");
        let tlds = TldReport::run(cfg);
        step("domain census");
        let census = run_domain_census_stream(domains, seed, CENSUS_BATCH, cfg);
        Measured {
            domains,
            fleet,
            seed,
            resolvers: ResolverReport::from_tally(&resolvers),
            eras,
            defense,
            serving,
            chain,
            cve,
            tranco,
            tlds,
            unreachability,
            census,
        }
    }

    /// Every claim table against its report, in E-order.
    pub fn rows(&self) -> Vec<Row> {
        let at = At::Report;
        let mut all = rows(CENSUS, &self.census, at);
        all.extend(rows(TLDS, &self.tlds, at));
        all.extend(rows(TRANCO, &self.tranco, at));
        // The resolver rows carry a second tolerance, read with the fleet
        // at TEST_SCALE; any other fleet is held to the report's.
        let fleet_at = if self.fleet == TEST_SCALE {
            At::Test
        } else {
            at
        };
        all.extend(rows(RESOLVERS, &self.resolvers, fleet_at));
        all.extend(rows(UNREACHABILITY, &self.unreachability, at));
        all.extend(rows(CVE, &self.cve[..], at));
        all.extend(rows(ADVERSARIAL, &self.defense, at));
        all.extend(rows(SERVING, &self.serving, at));
        all.extend(rows(CHAIN, &self.chain, at));
        all.sort_by_key(|row| row.id);
        all
    }

    /// The CSV and SVG series behind Figures 1–3, Table 2 and the CVE
    /// sweep, into `target/experiments/`.
    pub fn write_artifacts(&self) {
        let (stats, tranco) = (&self.census.stats, &self.tranco);
        let (it0, no_salt) = (
            tranco.ranks(|it, _| it == 0),
            tranco.ranks(|_, salt| salt == 0),
        );
        let figure1 = "(NSEC3-enabled domains)";
        let cdfs = [
            (
                "fig1_iterations_cdf",
                format!("Figure 1: CDF of additional iterations {figure1}"),
                "No. of add. it.",
                &stats.iterations_cdf,
                50,
            ),
            (
                "fig1_salt_cdf",
                format!("Figure 1: CDF of salt length {figure1}"),
                "Salt length (B)",
                &stats.salt_cdf,
                50,
            ),
            (
                "fig2_it0_rank_cdf",
                "Figure 2: CDF of popularity ranks (it = 0)".into(),
                "Rank (in 10K)",
                &it0,
                tranco.max_bucket,
            ),
            (
                "fig2_nosalt_rank_cdf",
                "Figure 2: CDF of popularity ranks (no salt)".into(),
                "Rank (in 10K)",
                &no_salt,
                tranco.max_bucket,
            ),
        ];
        for (file, title, axis, cdf, x_max) in cdfs {
            write_artifact(&format!("{file}.csv"), &cdf_csv(cdf));
            write_artifact(&format!("{file}.svg"), &cdf_svg(&title, axis, cdf, x_max));
        }
        for (panel, (_, series)) in &self.resolvers.panels {
            let file = match panel {
                Panel::OpenV4 => "fig3a_open_v4",
                Panel::OpenV6 => "fig3b_open_v6",
                Panel::ClosedV4 => "fig3c_closed_v4",
                Panel::ClosedV6 => "fig3d_closed_v6",
            };
            write_artifact(&format!("{file}.csv"), &figure3_csv(series));
            write_artifact(&format!("{file}.svg"), &figure3_svg(panel.title(), series));
        }
        let mut operators = String::from("operator,count,share_pct,top_params\n");
        for row in table2(&self.census) {
            let sets = row.params.iter().take(4);
            let sets: Vec<String> = sets.map(|(it, s, p)| format!("{it}/{s}:{p:.1}%")).collect();
            let (name, count, share) = (&row.operator, row.count, row.share_pct);
            let _ = writeln!(operators, "{name},{count},{share:.2},{}", sets.join(" "));
        }
        write_artifact("table2_operators.csv", &operators);
        let mut cost = String::from("iterations,salt_len,compressions,hashes\n");
        for p in &self.cve {
            let (it, salt) = (p.iterations, p.salt_len);
            let _ = writeln!(cost, "{it},{salt},{},{}", p.compressions, p.hashes);
        }
        write_artifact("cve_cost.csv", &cost);
    }
}

/// `text` as a fenced block.
fn fenced(text: &str) -> String {
    format!("```text\n{text}```\n")
}

/// A markdown table: `header` and each of `lines` are cells joined by `|`.
fn table(header: &str, lines: impl Iterator<Item = String>) -> String {
    let rule = "---|".repeat(header.split('|').count());
    let body: String = lines.map(|line| format!("| {line} |\n")).collect();
    format!("| {header} |\n|{rule}\n{body}")
}

fn figure1(m: &Measured, _: &[Row]) -> String {
    let stats = &m.census.stats;
    let iterations = render_cdf("No. of additional iterations", &stats.iterations_cdf, 50);
    fenced(&(iterations + "\n" + &render_cdf("Salt length (bytes)", &stats.salt_cdf, 50)))
}

/// Iteration counts the Figure 3 panels are printed at: the vendor
/// limits, their successors, and the ends of the testbed's range.
const LANDMARKS: [u16; 12] = [1, 25, 50, 51, 100, 101, 150, 151, 200, 300, 400, 500];

fn figure3(m: &Measured, _: &[Row]) -> String {
    let mut panels = String::new();
    for (panel, (validators, series)) in &m.resolvers.panels {
        let shown = series.iter().filter(|p| LANDMARKS.contains(&p.n));
        let title = format!("{} — {validators} validators", panel.title());
        panels += &render_figure3_panel(&title, &shown.copied().collect::<Vec<_>>());
    }
    fenced(&panels)
}

/// Table 1 with, per item, what decides it and the rows that measure it.
fn table1(_: &Measured, all: &[Row]) -> String {
    let line = |item: &analysis::Item| {
        let measuring = all.iter().filter(|row| row.item == Some(item.number));
        let measuring: Vec<String> = measuring
            .map(|r| format!("E{} {}", r.id, r.label))
            .collect();
        let (n, keyword, rows) = (item.number, item.keyword.as_str(), measuring.join("; "));
        format!(
            "{n} | {keyword} | {} | {} | {rows}",
            item.guidance, item.checker
        )
    };
    table(
        "Item | Keyword | Guidance | Decided by | Rows",
        ITEMS.iter().map(line),
    )
}

fn table2_figure(m: &Measured, _: &[Row]) -> String {
    fenced(&render_table2(&table2(&m.census)))
}

/// Validators per enforced limit: the thresholds 150 ≫ 100 ≫ 50.
fn limits(m: &Measured, _: &[Row]) -> String {
    let histogram = |counts: &std::collections::BTreeMap<u16, u64>| {
        let bins: Vec<String> = counts.iter().map(|(at, n)| format!("{at}: {n}")).collect();
        bins.join(", ")
    };
    let (insecure, servfail) = (
        &m.resolvers.all.insecure_limits,
        &m.resolvers.all.servfail_starts,
    );
    let (insecure, servfail) = (histogram(insecure), histogram(servfail));
    format!("Validators per insecure limit: {insecure}. Per first SERVFAIL: {servfail}.\n")
}

fn cve_table(m: &Measured, _: &[Row]) -> String {
    let base = m.cve.first().map_or(1, |p| p.compressions.max(1)) as f64;
    let line = |p: &CvePoint| {
        let (it, salt, factor) = (p.iterations, p.salt_len, p.compressions as f64 / base);
        format!(
            "{it} | {salt} | {} | {} | {factor:.0}×",
            p.compressions, p.hashes
        )
    };
    let header = "Iterations | Salt bytes | SHA-1 compressions | Hash chains | Against 0/0";
    table(header, m.cve.iter().map(line))
}

fn probed(m: &Measured, _: &[Row]) -> String {
    let u = &m.unreachability;
    let (probed, failed, lost) = (u.probed, u.unreachable, u.lost);
    format!("{probed} NSEC3-enabled zones instantiated and probed: {failed} unresolvable, {lost} lost.\n")
}

fn timeline(m: &Measured, _: &[Row]) -> String {
    let line = |(stats, era): &(ResolverStats, Era)| {
        let limits = stats.insecure_limits.iter().chain(&stats.servfail_starts);
        // The lowest of equally common limits: `max_by_key` alone keeps the last.
        let dominant = limits.rev().max_by_key(|(_, count)| **count);
        let dominant = dominant.map_or("—".to_string(), |(limit, _)| limit.to_string());
        let (limiting, item6, item8) = (stats.limiting_pct(), stats.item6_pct(), stats.item8_pct());
        let era = format!("{} ({})", era.label, era.year);
        format!("{era} | {limiting:.1} % | {item6:.1} % | {item8:.1} % | {dominant}")
    };
    table(
        "Era | Limiting | Item 6 | Item 8 | Dominant limit",
        m.eras.iter().map(line),
    )
}

/// One `E<id>` section of the document: its title, what has to be said
/// about how it was measured, and the figure that is not a claim row.
type Section = (
    u8,
    &'static str,
    &'static str,
    Option<fn(&Measured, &[Row]) -> String>,
);

/// The sections in E-order. E17, the capstone report of DESIGN.md §4, is
/// the document itself.
const SECTIONS: &[Section] = &[
    (
        1,
        "Figure 1: CDFs of additional iterations and salt length",
        "The long tails (43 domains above 150 iterations, 170 salts above 45 bytes) are injected \
         with absolute counts: exact at every scale, while their share — 1.4 % of the NSEC3-enabled \
         domains here — pulls the ≤ 25 and ≤ 10 landmarks below the paper's by that much.",
        Some(figure1),
    ),
    (
        2,
        "Figure 2: popularity ranks of NSEC3-enabled Tranco domains",
        "All 1 M ranks. The paper reads uniformity off the plot (`target/experiments/fig2_*.svg`); \
         here it is the Kolmogorov–Smirnov distance of each rank CDF from the uniform one.",
        None,
    ),
    (
        3,
        "Figure 3: RCODE shares against the iteration count, four pools",
        "Printed at the vendor limits and their successors; the full series are \
         `target/experiments/fig3[a-d]_*.csv`.",
        Some(figure3),
    ),
    (
        4,
        "Table 1: the twelve RFC 9276 items",
        "What decides each item for one domain or one resolver, and the rows that measure it.",
        Some(table1),
    ),
    (
        5,
        "Table 2: operators of NSEC3-enabled domains",
        "Exclusive operators, read by the census from each zone's apex NS RRset; equal shares are \
         ordered by name and by (iterations, salt).",
        Some(table2_figure),
    ),
    (
        6,
        "§5.1 registered domains",
        "Every domain is instantiated as a zone, signed as declared, and scanned through a \
         validating resolver in batches of 512; nothing is read back from the generator. The \
         shares are apportioned, not sampled — the same at every seed — except opt-out.",
        None,
    ),
    (
        7,
        "§5.1 TLDs",
        "The population is exact. Counts are what E14's scan observed; the two rows marked \
         declared read what no scan can see.",
        None,
    ),
    (
        8,
        "§5.2 validators and the limits they enforce",
        "Small behavioural groups (query copiers, Technitium-style resolvers, item 7 violators) are \
         kept alive at every scale by a min-1 survival rule, which inflates their shares at small \
         scales; their behaviour — the thing classified — is exact.",
        Some(limits),
    ),
    (
        9,
        "§5.2 EDE 27",
        "EDE visibility is drawn per resolver: over seeds 1–10 the row read 11.0–14.8 % with 445 \
         limiting validators (fleet 1/200) and 6.4–19.1 % with 47 (1/2000). The paper's bound is two \
         standard errors from the 1/200 sweep's mean, ≈ 12.7 %, from about 150 limiting validators \
         (a fleet at about 1/600), so a smaller fleet is held to the bound plus the sweep's excess \
         over it.",
        None,
    ),
    (
        10,
        "§5.2 item 7: `it-2501-expired`",
        "Expired NSEC3 RRSIGs beyond every limit: a compliant insecure-downgrade resolver answers \
         SERVFAIL, a violator NXDOMAIN. One violator survives per pool (min-1).",
        None,
    ),
    (11, "§5.2 item 12", "", None),
    (
        12,
        "CVE-2023-50868: validation cost",
        "SHA-1 compressions an unlimited validator spends on one NXDOMAIN (eight hash chains).",
        Some(cve_table),
    ),
    (
        13,
        "§4.2 testbed",
        "`rfc9276-in-the-wild.com`: valid, expired, it-1 … it-25, it-50 … it-500 in steps of 25, \
         it-51, it-101, it-151, and `it-2501-expired` for E10. E3 and E8–E11 run against it.",
        None,
    ),
    (
        14,
        "§5.1 TLD census, end to end",
        "All TLDs as signed zones with scaled registry contents, scanned, and transferred by AXFR \
         where the TLD shares its zone. Counting registrations from transferred zones is a lower \
         bound exactly as the paper's was: TLDs that do not share cannot be counted that way.",
        None,
    ),
    (
        15,
        "Unreachability through a strict resolver",
        "The abstract's 13.6 M domains: NSEC3-enabled zones asked for a nonexistent name through a \
         resolver that answers SERVFAIL from one additional iteration on. The 213 absolute tail \
         domains are all non-compliant and 12 % of this sample: the offset from the paper's share.",
        Some(probed),
    ),
    (
        16,
        "Extension: adoption timeline (§6, future work ii)",
        "Era mixes calibrated to the vendor release history the paper cites, classified by the \
         same prober. The 2024 mix is E8's at a smaller scale, hence its different shares.",
        Some(timeline),
    ),
    (
        18,
        "Extension: crafted zones against a work budget",
        "Three attack families, two zones each, six queries a zone, against a validator with no \
         limits and one with a 150-iteration SERVFAIL clamp and `WorkBudget::hardened`. A work \
         unit is one SHA-1 compression; a signature check counts twenty.",
        None,
    ),
    (
        19,
        "Extension: a serving fleet",
        "64 clients × 1,000 Zipf-distributed queries (browsing mix) over 24 NSEC3 zones through \
         four caching resolvers.",
        None,
    ),
    (
        20,
        "Extension: chains of trust under injected faults",
        "24 TLDs with two leaves each under a signed root, every third signed TLD carrying one of \
         four faults; each leaf and one nonexistent name per TLD is resolved iteratively.",
        None,
    ),
];

/// EXPERIMENTS.md for `m`, whose claims evaluated to `all`.
pub fn render(m: &Measured, all: &[Row]) -> String {
    let mut out = format!(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Every table and figure of *Zeros Are Heroes: NSEC3 Parameter Settings in the Wild* (IMC \
         2024) beside what this repository measures. This file is the standard output of \
         `target/release/paper_report`, which runs every experiment driver once; \
         `scripts/ci.sh` fails when the two differ. Regenerate it with\n\n\
         ```sh\ncargo build --release --offline --workspace && target/release/paper_report > EXPERIMENTS.md\n```\n\n\
         Scales: registered domains {} ({} zones), resolver fleet {}, era fleets {}, \
         unreachability sample {}, registry contents inside TLD zones {}; TLDs, the Tranco list \
         and the testbed are exact. Seed {}. The output is the same at every `--threads`.\n\n\
         Each row is one claim from `crates/bench/src/claims.rs`: the value as published, the \
         value measured, and what the measured value is held to — the row's deterministic \
         offset at this scale plus 0.1, or for the sampled rows (opt-out, EDE 27, the Tranco \
         list) the largest deviation of a ten-seed sweep plus 0.1. A “—” in the Paper column \
         marks a statement of this repository, not of the paper. {} of {} rows hold.\n",
        fmt_scale(m.domains),
        Value::Count(m.census.stats.total),
        fmt_scale(m.fleet),
        fmt_scale(ERA_FLEETS),
        fmt_scale(UNREACHABILITY_SAMPLE),
        fmt_scale(Scale(TLD_CONTENTS)),
        m.seed,
        all.iter().filter(|row| row.ok).count(),
        all.len(),
    );
    for &(id, title, text, figure) in SECTIONS {
        let _ = writeln!(out, "\n## E{id} — {title}");
        if !text.is_empty() {
            let _ = writeln!(out, "\n{text}");
        }
        if let Some(figure) = figure {
            let _ = write!(out, "\n{}", figure(m, all));
        }
        let line = |row: &Row| {
            let verdict = if row.ok { "ok" } else { "**off**" };
            format!("{} | {} | {verdict}", row.label, row.cells.join(" | "))
        };
        let mut claims = all.iter().filter(|row| row.id == id).map(line).peekable();
        if claims.peek().is_some() {
            let _ = write!(
                out,
                "\n{}",
                table("Claim | Paper | Measured | Held to | Holds", claims)
            );
        }
    }
    out
}
