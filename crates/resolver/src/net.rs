//! The netsim adaptor: the only code in this crate that carries a
//! recursion's bytes over a [`Network`]. Both drivers live here —
//! [`Resolver::resolve`] runs a recursion pinned on its own stack frame
//! to the answer, [`Recursion::step`] advances a boxed one by one
//! upstream exchange per call — and both go through [`exchange`], the
//! crate's one call into the network's retry loop.

use std::net::IpAddr;
use std::pin::pin;

use dns_wire::edns::Edns;
use dns_wire::message::{Flags, Message, MessageHead};
use dns_wire::name::Name;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use netsim::{Network, Node, Outcome, RetryPolicy};

use crate::resolver::{Exchanged, Query, Recursion, Reply, ResolveOutcome, Resolver, Want};

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
    /// Serve a stub client: run recursion, translate the outcome into a
    /// response message.
    fn handle(
        &self,
        net: &Network,
        _src: IpAddr,
        payload: &[u8],
        reply: &mut Vec<u8>,
    ) -> Option<()> {
        serve(payload, reply, ReplyShape::RESOLVER, |qname, qtype| {
            self.resolve(net, qname, qtype)
        })
    }
}

/// What a resolver-side node puts in its reply beyond the outcome's
/// rcode, answers and AD bit (AD only under DO, always).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReplyShape {
    /// Mirror the query's RA bit instead of setting RA: the query
    /// copier's fingerprint.
    pub(crate) copy_ra: bool,
    /// Relay the outcome's authority section, under DO only.
    pub(crate) authorities: bool,
    /// Relay the outcome's EDE, when it carries one.
    pub(crate) ede: bool,
}

impl ReplyShape {
    /// A recursive resolver's reply: RA set, everything relayed.
    pub(crate) const RESOLVER: ReplyShape = ReplyShape {
        copy_ra: false,
        authorities: true,
        ede: true,
    };
}

/// The one front end of the resolver-side nodes ([`Resolver`] and
/// `broken`'s copier and flaky resolver): decode the client's query,
/// answer its question with `resolve`, and write the reply with
/// [`write_reply`]. Nothing answers a response or a question-less query.
pub(crate) fn serve(
    payload: &[u8],
    reply: &mut Vec<u8>,
    shape: ReplyShape,
    resolve: impl FnOnce(&Name, RrType) -> ResolveOutcome,
) -> Option<()> {
    let query = Message::decode(payload).ok()?;
    if query.flags.qr {
        return None;
    }
    let question = query.question()?;
    let outcome = resolve(&question.qname, question.qtype);
    write_reply(&query, &outcome, shape, reply);
    Some(())
}

/// Encode the reply to `query` carrying `outcome`, shaped by `shape`:
/// the question is the query's own and the sections are the outcome's
/// shared ones, so no record is copied.
pub(crate) fn write_reply(
    query: &Message,
    outcome: &ResolveOutcome,
    shape: ReplyShape,
    reply: &mut Vec<u8>,
) {
    let dnssec_ok = query.dnssec_ok();
    let mut edns = query.edns.as_ref().map(|_| Edns::default());
    if let (true, Some((code, text))) = (shape.ede, &outcome.ede) {
        edns.get_or_insert_with(Edns::default)
            .push_ede(*code, text.as_str());
    }
    let head = MessageHead {
        id: query.id,
        flags: Flags {
            qr: true,
            opcode: query.flags.opcode,
            rd: query.flags.rd,
            ra: !shape.copy_ra || query.flags.ra,
            ad: outcome.authenticated && dnssec_ok,
            ..Flags::default()
        },
        rcode: outcome.rcode,
        questions: &query.questions,
        edns: edns.as_ref(),
    };
    let authorities: &[Record] = if shape.authorities && dnssec_ok {
        &outcome.authorities
    } else {
        &[]
    };
    head.encode_append(reply, &outcome.answers, authorities, &[]);
}
