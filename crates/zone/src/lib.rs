//! DNS zones with DNSSEC: the authoritative-side substrate of the `heroes`
//! reproduction.
//!
//! * `zone` — the canonically-ordered zone model (RRsets, delegations,
//!   empty non-terminals, closest enclosers).
//! * [`nsec3hash`] — the RFC 5155 §5 hash with cost accounting, verified
//!   against the RFC's Appendix A vectors.
//! * [`signer`] — DNSKEY publication, NSEC/NSEC3 chain building, RRSIG
//!   generation and verification (shared signing buffer).
//! * [`denial`] — NXDOMAIN/NODATA/wildcard denial-of-existence proof
//!   synthesis.
//! * [`faults`] — misconfiguration injection (expired signatures,
//!   parameter desynchronization) for the paper's methodology.
//! * [`zonefile`] — master-file parsing/printing (the CZDS/AXFR format).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod denial;
pub mod faults;
pub mod nsec3hash;
pub mod signer;
pub(crate) mod zone;
pub mod zonefile;

pub use signer::{sign_zone, verify_rrsig, Denial, SignedZone, SignerConfig, SigningKey};
pub use zone::{Zone, ZoneNode};

use dns_wire::name::Name;

/// Errors from zone construction, signing, or proof synthesis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ZoneError {
    /// Record owner not under the zone apex.
    OutOfZone(Name),
    /// Attempted to sign with no keys configured.
    NoKeys,
    /// Attempted to sign an empty RRset.
    EmptyRrset,
    /// Expected RRSIG RDATA.
    NotAnRrsig,
    /// A constructed name exceeded DNS limits.
    NameTooLong,
    /// `qname` was not strictly below the closest encloser.
    NotBelowEncloser,
}

impl std::fmt::Display for ZoneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZoneError::OutOfZone(n) => write!(f, "record owner {n} is outside the zone"),
            ZoneError::NoKeys => f.write_str("no signing keys configured"),
            ZoneError::EmptyRrset => f.write_str("cannot sign an empty RRset"),
            ZoneError::NotAnRrsig => f.write_str("expected RRSIG rdata"),
            ZoneError::NameTooLong => f.write_str("constructed name exceeds 255 octets"),
            ZoneError::NotBelowEncloser => {
                f.write_str("query name is not below the closest encloser")
            }
        }
    }
}

impl std::error::Error for ZoneError {}
