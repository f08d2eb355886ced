//! RFC 9276 compliance analysis: the paper's Table 1 items as checkable
//! predicates, §5.1/§5.2 aggregation, and text/CSV renderers for every
//! table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domains;
pub(crate) mod render;
pub mod resolvers;
pub mod rfc9276;
pub mod stats;
pub(crate) mod svg;

pub use domains::{operator_table, DomainRecord, DomainStats, DomainTally, OperatorRow};
pub use render::{cdf_csv, figure3_csv, render_cdf, render_figure3_panel, render_table2};
pub use resolvers::{
    figure3_series, Figure3Counts, Panel, RcodeShares, ResolverStats, ResolverTally,
};
pub use rfc9276::{Item, Keyword, ITEMS};
pub use stats::{fmt_count, fmt_pct, ks_uniform, pct, Cdf};
pub use svg::{cdf_svg, figure3_svg};
