//! What the §5.2 classifier reads off a reply ([`ObservedResponse`]),
//! and the names the frozen benchmark still builds the two rare fleet
//! behaviours by. Both behaviours are a [`Quirk`] of the one resolver
//! node.

use dns_wire::message::Message;
use dns_wire::rrtype::Rcode;

use crate::policy::Rfc9276Policy;
use crate::resolver::{Quirk, Resolver};

/// The query-copying middlebox, as the frozen `benchmark/` replay names
/// it: a [`Resolver`] with [`Quirk::QueryCopier`].
pub enum QueryCopier {}

impl QueryCopier {
    /// `resolver` as a query copier that SERVFAILs above 0 iterations and
    /// attaches no EDE. The frozen `benchmark/` replay is the only caller.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(mut resolver: Resolver) -> Resolver {
        resolver.config.quirk = Quirk::QueryCopier;
        resolver.config.policy = Rfc9276Policy {
            emit_ede: false,
            ..Rfc9276Policy::servfail_above(0)
        };
        resolver
    }
}

/// The flaky two-threshold resolver, as the frozen `benchmark/` replay
/// names it: a [`Resolver`] with [`Quirk::FlakyGap`].
pub enum FlakyResolver {}

impl FlakyResolver {
    /// `resolver` as a flaky resolver, insecure above `n` and SERVFAIL
    /// above `m` in the phases that limit. The frozen `benchmark/` replay
    /// is the only caller.
    pub fn with_gap(mut resolver: Resolver, n: u16, m: u16) -> Resolver {
        resolver.config.quirk = Quirk::FlakyGap {
            insecure_above: n,
            servfail_above: m,
        };
        resolver
    }
}

/// Helper for experiments: interpret a client-visible response the way the
/// paper's classifier does (§5.2): rcode, AD bit, EDE.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservedResponse {
    /// Response code.
    pub rcode: Rcode,
    /// AD bit.
    pub ad: bool,
    /// RA bit (the copier fingerprint).
    pub ra: bool,
    /// EDE info-code, if present.
    pub ede: Option<u16>,
    /// EXTRA-TEXT non-empty?
    pub ede_has_text: bool,
}

impl ObservedResponse {
    /// The classifier's three observables, read off a decoded response.
    pub fn from_message(msg: &Message) -> Self {
        let (ede, ede_has_text) = match msg.edns.as_ref().and_then(|e| e.ede()) {
            Some((code, text)) => (Some(code.0), !text.is_empty()),
            None => (None, false),
        };
        ObservedResponse {
            rcode: msg.rcode,
            ad: msg.flags.ad,
            ra: msg.flags.ra,
            ede,
            ede_has_text,
        }
    }
}
