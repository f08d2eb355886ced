//! Synthetic populations calibrated to the published marginals of
//! *Zeros Are Heroes* (IMC 2024) — the substitution for the paper's
//! proprietary data feeds (CZDS, AXFR, CT logs, SIE passive DNS, open
//! resolver scans, RIPE Atlas). See DESIGN.md §2 for the substitution
//! argument and §5 for the scaling model.
//!
//! * [`domains`] — 302 M registered domains (Table 2 operators, Figure 1
//!   marginals, absolute long tails).
//! * [`tlds`] — the 1,449 TLDs, exact.
//! * `tranco` — the popularity list of Figure 2.
//! * [`resolvers`] — the 1.9 M open + 2.5 K closed resolver fleet of §5.2.
//! * `scale` — the scaling model and exact allocation helpers.
//! * [`adversarial`] — crafted denial-of-existence attack workloads
//!   (max-parameter zones, deep encloser chains, keytag collisions).
//! * [`traffic`] — the client-population serving workload: O(1)
//!   alias-table Zipf sampling, per-client query mixes, diurnal bursts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod domains;
pub mod hierarchy;
pub mod resolvers;
pub(crate) mod scale;
pub(crate) mod timeline;
pub mod tlds;
pub mod traffic;
pub(crate) mod tranco;

pub use adversarial::{attack_qname, generate_attack_zones, AdversarialZoneSpec, AttackFamily};
pub use domains::{domain_count, generate_domains, DnssecKind, DomainGenerator, DomainSpec};
pub use hierarchy::{
    ChainScenario, HierarchyGenerator, HierarchyLeaf, HierarchyModel, HierarchyTld,
};
pub use resolvers::{
    generate_fleet, generate_fleet_with_mix, Access, Behavior, Family, ResolverSpec,
};
pub use scale::{allocate, Scale};
pub use timeline::{eras, Era};
pub use tlds::{generate_tlds, generate_tlds_after_remediation, TldSpec};
pub use traffic::{
    diurnal_schedule, ClientQuery, QueryKind, QueryMix, TrafficGenerator, TrafficModel, ZipfAlias,
};
pub use tranco::{generate_tranco, TrancoEntry};
