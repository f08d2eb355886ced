//! The aberrant resolver behaviours §5.2 observed in the wild:
//! query-copying middleboxes that SERVFAIL from `it-1`, resolvers that skip
//! NSEC3 RRSIG verification (item 7 violators), and flaky two-threshold
//! resolvers (item 12).

use std::cell::Cell;
use std::net::IpAddr;

use dns_wire::message::Message;
use dns_wire::rrtype::Rcode;
use netsim::{Network, Node};

use crate::net::{serve, ReplyShape};
use crate::policy::Rfc9276Policy;
use crate::resolver::Resolver;

/// The "query copier" middlebox: claims to resolve, SERVFAILs any domain
/// whose denial uses even one additional NSEC3 iteration, and — the
/// fingerprint the paper reports — builds its response by copying the query
/// header, so RA is only set if the *query* carried RA.
pub struct QueryCopier {
    inner: Resolver,
}

impl QueryCopier {
    /// Wrap a resolver; its policy is forced to SERVFAIL above 0
    /// iterations.
    pub fn new(mut inner: Resolver) -> Self {
        inner.config.policy = Rfc9276Policy {
            emit_ede: false,
            ..Rfc9276Policy::servfail_above(0)
        };
        QueryCopier { inner }
    }
}

impl Node for QueryCopier {
    fn handle(
        &self,
        net: &Network,
        _src: IpAddr,
        payload: &[u8],
        reply: &mut Vec<u8>,
    ) -> Option<()> {
        // The copier quirk: header flags are copied from the query, so RA
        // mirrors whatever the client set (normally: nothing); no
        // authorities and no EDE are relayed.
        let shape = ReplyShape {
            copy_ra: true,
            authorities: false,
            ede: false,
        };
        serve(payload, reply, shape, |qname, qtype| {
            self.inner.resolve(net, qname, qtype)
        })
    }
}

/// A flaky resolver whose effective thresholds wobble between queries —
/// the paper attributes the apparent item 12 violations (insecure at N,
/// SERVFAIL at M > N, different on re-query) to such instability.
pub struct FlakyResolver {
    inner: Resolver,
    /// Policies cycled per query.
    pub phases: Vec<Rfc9276Policy>,
    counter: Cell<usize>,
}

impl FlakyResolver {
    /// Cycle through `phases` on successive queries.
    pub(crate) fn new(inner: Resolver, phases: Vec<Rfc9276Policy>) -> Self {
        assert!(!phases.is_empty());
        FlakyResolver {
            inner,
            phases,
            counter: Cell::new(0),
        }
    }

    /// The classic gap: insecure above `n`, SERVFAIL above `m` (> n), with
    /// the exact split drifting between queries.
    pub fn with_gap(inner: Resolver, n: u16, m: u16) -> Self {
        let a = Rfc9276Policy {
            insecure_above: Some(n),
            ..Rfc9276Policy::servfail_above(m)
        };
        let b = Rfc9276Policy {
            insecure_above: Some(n),
            ..Rfc9276Policy::unlimited()
        };
        let c = Rfc9276Policy::servfail_above(m);
        Self::new(inner, vec![a, b, c])
    }
}

impl Node for FlakyResolver {
    fn handle(
        &self,
        net: &Network,
        _src: IpAddr,
        payload: &[u8],
        reply: &mut Vec<u8>,
    ) -> Option<()> {
        // RA and the EDE as a resolver sends them, but no authorities.
        let shape = ReplyShape {
            authorities: false,
            ..ReplyShape::RESOLVER
        };
        serve(payload, reply, shape, |qname, qtype| {
            let phase = self.counter.get();
            self.counter.set(phase + 1);
            let policy = self.phases[phase % self.phases.len()].clone();
            // Re-run the inner resolver under the phase policy.
            let mut cfg = self.inner.config.clone();
            cfg.policy = policy;
            Resolver::new(cfg).resolve(net, qname, qtype)
        })
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
