//! The netsim adaptor: the only code in this crate that carries a
//! recursion's bytes over a [`Network`]. Both drivers live here —
//! [`Resolver::resolve`] runs a recursion pinned on its own stack frame
//! to the answer, [`Recursion::step`] advances a boxed one by one
//! upstream exchange per call — and both go through [`exchange`], the
//! crate's one call into the network's retry loop.

use std::net::IpAddr;
use std::pin::pin;

use dns_wire::message::Message;
use dns_wire::name::Name;
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
                Want::Send { server, bytes, .. } => {
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
            Want::Send { server, bytes, .. } => {
                let config = &self.resolver.config;
                self.got = Some(exchange(net, config.addr, server, &bytes, &config.retry));
                RecursionStep::Pending
            }
        }
    }
}

/// Carry `bytes` from `src` to `server` under `retry` — attempts, backoff
/// and the timeout are netsim's `ExchangeMachine` — and report what came
/// back.
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
        let query = Message::decode(payload).ok()?;
        if query.flags.qr {
            return None;
        }
        let q = query.question()?.clone();
        let outcome = self.resolve(net, &q.qname, q.qtype);
        let mut resp = Message::response_to(&query);
        resp.flags.ra = true;
        resp.rcode = outcome.rcode;
        resp.flags.ad = outcome.authenticated && query.dnssec_ok();
        resp.answers = outcome.answers;
        if query.dnssec_ok() {
            resp.authorities = outcome.authorities;
        }
        if let Some((code, text)) = outcome.ede {
            let mut edns = resp.edns.take().unwrap_or_default();
            edns.push_ede(code, text);
            resp.edns = Some(edns);
        }
        resp.encode_append(reply);
        Some(())
    }
}
