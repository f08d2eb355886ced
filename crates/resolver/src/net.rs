//! The netsim adaptor: the only code in this crate that carries a
//! recursion's bytes over a [`Network`]. Both drivers live here —
//! [`Resolver::resolve`] runs a recursion pinned on its own stack frame
//! to the answer, [`Recursion::step`] advances a boxed one by one
//! upstream exchange per call — and both go through [`exchange`], the
//! crate's one call into the network's retry loop. So does the crate's
//! one network node, `impl Node for Resolver`, which serves stub
//! clients as [`ResolverConfig::quirk`] says: plainly, as a query copier
//! or as a flaky resolver.
//!
//! [`ResolverConfig::quirk`]: crate::resolver::ResolverConfig::quirk

use std::net::IpAddr;
use std::pin::pin;

use dns_wire::edns::Edns;
use dns_wire::message::{Flags, Message, MessageHead};
use dns_wire::name::Name;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use netsim::{Network, Node, Outcome, RetryPolicy};

use crate::policy::Rfc9276Policy;
use crate::resolver::{Exchanged, Query, Quirk, Recursion, Reply, ResolveOutcome, Resolver, Want};

/// What a [`Recursion::step`] left behind.
#[derive(Debug)]
pub enum RecursionStep {
    /// One upstream exchange was made and the recursion needs more; call
    /// [`Recursion::step`] again (event-core drivers park the flow here).
    Pending,
    /// The resolution finished with this outcome (already entered into
    /// the answer cache).
    Done(ResolveOutcome),
}

impl Resolver {
    /// Full recursive resolution of `qname`/`qtype` over `net`.
    pub fn resolve(&self, net: &Network, qname: &Name, qtype: RrType) -> ResolveOutcome {
        if let Some(outcome) = self.fast_path(net.now_micros(), qname, qtype) {
            return outcome;
        }
        let (config, query) = (&self.config, Query::new(&self.config.budget));
        let mut recursion = pin!(self.recurse(&query, qname, qtype));
        let mut got = None;
        loop {
            match query.advance(recursion.as_mut(), net.now_micros(), got.take()) {
                Want::Done(outcome) => return outcome,
                Want::Send { server, bytes } => {
                    got = Some(exchange(net, config.addr, server, &bytes, &config.retry));
                }
            }
        }
    }

    /// Start a resolution that event-core drivers advance over `net` one
    /// upstream exchange per [`Recursion::step`], parking the walk between
    /// exchanges. Answer-cache hits and RFC 8198 synthesis finish on the
    /// first step.
    pub fn begin_recursion(&self, net: &Network, qname: &Name, qtype: RrType) -> Recursion<'_> {
        self.recursion(net.now_micros(), qname, qtype)
    }
}

impl Recursion<'_> {
    /// Advance over `net` by one upstream exchange, or to the answer.
    pub fn step(&mut self, net: &Network) -> RecursionStep {
        let got = self.got.take();
        match self.advance(net.now_micros(), got) {
            Want::Done(outcome) => RecursionStep::Done(outcome),
            Want::Send { server, bytes } => {
                let config = &self.resolver.config;
                self.got = Some(exchange(net, config.addr, server, &bytes, &config.retry));
                RecursionStep::Pending
            }
        }
    }
}

/// Carry `bytes` from `src` to `server` under `retry` — attempts, backoff
/// and the timeout are netsim's `exchange` — and report what came back.
#[allow(clippy::disallowed_methods)] // this crate's one exchange loop (clippy.toml)
pub(crate) fn exchange(
    net: &Network,
    src: IpAddr,
    server: IpAddr,
    bytes: &[u8],
    retry: &RetryPolicy,
) -> Exchanged {
    let report = net.send_query_with_policy(src, server, bytes, retry);
    let reply = match report.outcome {
        Outcome::Response { payload, .. } => Reply::Bytes(payload),
        Outcome::Timeout => Reply::TimedOut,
        Outcome::NoRoute => Reply::NoRoute,
    };
    Exchanged {
        attempts: report.attempts,
        reply,
    }
}

impl Node for Resolver {
    /// Serve a stub client: decode its query, resolve the question and
    /// reply in the shape [`ResolverConfig::quirk`] gives. Nothing
    /// answers a response or a question-less query.
    ///
    /// [`ResolverConfig::quirk`]: crate::resolver::ResolverConfig::quirk
    fn handle(
        &self,
        net: &Network,
        _src: IpAddr,
        payload: &[u8],
        reply: &mut Vec<u8>,
    ) -> Option<()> {
        let query = Message::decode(payload).ok()?;
        if query.flags.qr {
            return None;
        }
        let question = query.question()?;
        let (qname, qtype) = (&question.qname, question.qtype);
        let outcome = match self.config.quirk {
            Quirk::Plain | Quirk::QueryCopier => self.resolve(net, qname, qtype),
            Quirk::FlakyGap {
                insecure_above,
                servfail_above,
            } => {
                let mut config = self.config.clone();
                config.policy = self.flaky_phase(insecure_above, servfail_above);
                Resolver::new(config).resolve(net, qname, qtype)
            }
        };
        write_reply(&query, &outcome, self.config.quirk, reply);
        Some(())
    }
}

impl Resolver {
    /// The policy a [`Quirk::FlakyGap`] node answers its next query
    /// under: the configured one with its limits swapped by the
    /// served-query count. Three phases take turns — both limits, the
    /// insecure limit alone, the SERVFAIL limit alone — so where insecure
    /// ends and SERVFAIL begins drifts between queries; what the policy
    /// attaches (EDE on or off, its code and text) does not.
    fn flaky_phase(&self, insecure_above: u16, servfail_above: u16) -> Rfc9276Policy {
        let served = self.served.get();
        self.served.set(served + 1);
        let (insecure_above, servfail_above) = match served % 3 {
            0 => (Some(insecure_above), Some(servfail_above)),
            1 => (Some(insecure_above), None),
            _ => (None, Some(servfail_above)),
        };
        Rfc9276Policy {
            insecure_above,
            servfail_above,
            ..self.config.policy.clone()
        }
    }
}

/// Encode the reply to `query` carrying `outcome` in the shape `quirk`
/// gives (AD only under DO, always; authorities only under DO): the
/// question is the query's own and the sections are the outcome's
/// shared ones, so no record is copied.
pub(crate) fn write_reply(
    query: &Message,
    outcome: &ResolveOutcome,
    quirk: Quirk,
    reply: &mut Vec<u8>,
) {
    let copier = quirk == Quirk::QueryCopier;
    let dnssec_ok = query.dnssec_ok();
    let mut edns = query.edns.as_ref().map(|_| Edns::default());
    if let (false, Some((code, text))) = (copier, &outcome.ede) {
        edns.get_or_insert_with(Edns::default)
            .push_ede(*code, text.as_str());
    }
    let head = MessageHead {
        id: query.id,
        flags: Flags {
            qr: true,
            opcode: query.flags.opcode,
            rd: query.flags.rd,
            ra: !copier || query.flags.ra,
            ad: outcome.authenticated && dnssec_ok,
            ..Flags::default()
        },
        rcode: outcome.rcode,
        questions: &query.questions,
        edns: edns.as_ref(),
    };
    let authorities: &[Record] = if quirk == Quirk::Plain && dnssec_ok {
        &outcome.authorities
    } else {
        &[]
    };
    head.encode_append(reply, &outcome.answers, authorities, &[]);
}
