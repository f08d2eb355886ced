//! `nsec3-core`: the public facade of the *Zeros Are Heroes* reproduction.
//!
//! This crate ties the substrates together into the paper's experiments:
//!
//! * [`testbed`] — the 49-subdomain `rfc9276-in-the-wild.com` testbed
//!   (plus `it-2501-expired`) on the simulated network.
//! * [`fleet`] — instantiating calibrated resolver populations as live
//!   resolver nodes with RFC 9276 policies.
//! * [`experiments`] — end-to-end drivers: the §4.1 domain census, the
//!   §4.2 resolver study, and the CVE-2023-50868 cost sweep.
//! * [`adversarial`] — crafted denial-of-existence workloads against
//!   budgeted resolvers (per-query work budgets, SERVFAIL + EDE).
//! * [`serving`] — the production serving driver: Zipf client traffic
//!   through a caching resolver fleet with the RFC 8198 negative-cache
//!   fast path.
//! * [`hierarchy`] — the chain-of-trust study: iterative recursion over
//!   a signed root→TLD→leaf delegation graph with per-delegation fault
//!   scenarios (mis-anchored, broken DS, insecure, lame).
//!
//! Every driver is a `run_*_cfg` function taking an explicit
//! [`DriverConfig`] (thread count, lab seed, fault profile);
//! [`DriverConfig::from_env`] reads `HEROES_THREADS`/`HEROES_FAULTS` from
//! the environment. Output is byte-identical for every thread count.
//!
//! ```no_run
//! use nsec3_core::experiments::{run_resolver_tally_cfg, DriverConfig};
//! use popgen::{generate_fleet, Scale};
//!
//! let fleet = generate_fleet(Scale(1.0 / 10_000.0), 42);
//! let (tally, _) = run_resolver_tally_cfg(&fleet, &DriverConfig::from_env(1_710_000_000));
//! let stats = tally.all();
//! println!("item 6: {:.1} % (paper: 59.9 %)", stats.item6_pct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod experiments;
pub mod fleet;
pub mod hierarchy;
pub mod serving;
mod study;
pub mod testbed;

pub use adversarial::{
    run_adversarial_cfg, AdversarialReport, AdversarialScenario, DefenseProfile, FamilyTally,
};
pub use experiments::{
    cve_cost_sweep, records_from_specs, run_domain_census_stream, run_resolver_study_cfg,
    run_resolver_tally_cfg, run_tld_census_cfg, run_unreachability_cfg, CvePoint, DriverConfig,
    ResolverStudy, StreamCensusReport, TldObservation, Unreachability, DEFAULT_LAB_SEED,
    DEFAULT_WINDOW,
};
pub use fleet::{deploy_fleet, policy_for, DeployedResolver};
pub use hierarchy::{
    build_hierarchy, mis_anchor, run_chain_study_cfg, ChainReport, ChainStudy, ChainTally,
    Hierarchy,
};
pub use serving::{run_serving_cfg, ServingReport, ServingScenario, ServingTally};
pub use testbed::{build_testbed, build_testbed_seeded, Testbed, TEST_DOMAIN};
