//! DNS wire format, from scratch: names, records, messages, EDNS.
//!
//! This crate is the substrate everything else in the `heroes` workspace
//! builds on. It implements the subset of the DNS protocol the IMC 2024
//! *Zeros Are Heroes* reproduction needs, faithfully:
//!
//! * [`name`] — domain names with RFC 4034 canonical form and ordering.
//! * [`base32`] / [`base64`] — the encodings NSEC3 and DNSSEC presentation
//!   formats require (RFC 4648).
//! * [`rrtype`] — RR types, classes, opcodes, RCODEs.
//! * [`rdata`] — typed RDATA for A/AAAA/NS/CNAME/SOA/MX/TXT/PTR and the
//!   DNSSEC family (DNSKEY, RRSIG, DS, NSEC, NSEC3, NSEC3PARAM).
//! * [`typebitmap`] — NSEC/NSEC3 type bitmaps.
//! * [`record`] — resource records and canonical RRset ordering.
//! * [`message`] — full messages with name compression; every encode
//!   appends to a caller's `Vec` ([`Message::encode_append`],
//!   [`MessageHead::encode_append`]) and [`Message::decode`] is the only
//!   parser of received bytes.
//! * [`edns`] — EDNS(0) and Extended DNS Errors, including INFO-CODE 27.
//!
//! Everything round-trips: `decode(encode(x)) == x` is property-tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base32;
pub mod base64;
pub mod buf;
pub mod edns;
pub mod message;
pub mod name;
pub mod rdata;
pub mod record;
pub mod rrtype;
pub mod typebitmap;

pub use message::{Flags, Message, MessageHead, Question};
pub use rdata::{RData, NSEC3_FLAG_OPT_OUT, NSEC3_HASH_SHA1};
pub use record::Record;

/// Errors arising from parsing or constructing wire-format data.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Ran out of bytes.
    Truncated,
    /// A malformed domain name; the payload describes how.
    BadName(&'static str),
    /// Malformed RDATA; the payload describes how.
    BadRdata(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("message truncated"),
            WireError::BadName(why) => write!(f, "bad name: {why}"),
            WireError::BadRdata(why) => write!(f, "bad rdata: {why}"),
        }
    }
}

impl std::error::Error for WireError {}
