//! The validating recursive resolver.
//!
//! Implements full iterative resolution over the simulated network —
//! root hints, referrals with glue, DS/DNSKEY chain building — and DNSSEC
//! validation with the RFC 9276 policy knobs applied exactly where real
//! resolvers apply them (before or while verifying NSEC3 proofs).

use std::borrow::Borrow;
use std::cell::RefCell;
use std::net::IpAddr;
use std::rc::Rc;

use dns_crypto::sha256::sha256;
use dns_wire::edns::EdeCode;
use dns_wire::message::{unframe_tcp, Message};
use dns_wire::name::{Name, SortKey};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::{Rcode, RrType};
use dns_zone::nsec3hash::Nsec3Params;
use netsim::{Network, Node, Outcome, RetryPolicy};

use crate::aggressive::AggressiveCache;
use crate::cache::TtlCache;
use crate::cost::{CostMeter, CostSnapshot};
use crate::delegation::{Delegation, DelegationCache};
use crate::policy::{LimitAction, Rfc9276Policy, WorkBudget};
use crate::validator::{
    self, parse_nsec3_set, validate_rrset, verify_nodata, verify_nxdomain,
    verify_wildcard_expansion, ValidationError, ZoneKeys,
};

/// A trust anchor: the DS-style digest of a zone's KSK. Anchors are
/// matched per zone apex ([`ResolverConfig::trust_anchors`] may hold
/// several — the root plus islands of trust at deeper cuts), and an
/// anchor configured for a cut takes precedence over the parent's DS
/// set, which is what makes mis-anchored zones observable.
#[derive(Clone, Debug)]
pub struct TrustAnchor {
    /// The anchored zone apex (the root, in most experiments here).
    pub zone: Name,
    /// Expected key tag.
    pub key_tag: u16,
    /// SHA-256 digest over `owner | DNSKEY rdata` (digest type 2).
    pub digest: Vec<u8>,
}

/// Resolver configuration.
#[derive(Clone, Debug)]
pub struct ResolverConfig {
    /// The egress address queries are sent from (also the service address).
    pub addr: IpAddr,
    /// Root server addresses.
    pub root_hints: Vec<IpAddr>,
    /// Trust anchors (empty = non-validating).
    pub trust_anchors: Vec<TrustAnchor>,
    /// Whether DNSSEC validation is enabled at all.
    pub validate: bool,
    /// The RFC 9276 policy.
    pub policy: Rfc9276Policy,
    /// Wall-clock now (epoch seconds) for temporal signature checks.
    pub now: u32,
    /// Per-upstream-query retry schedule (attempts, backoff, budget).
    /// [`RetryPolicy::fixed`] reproduces the legacy flat retry loop.
    pub retry: RetryPolicy,
    /// Check iteration limits before verifying NSEC3 RRSIGs (the cheap
    /// order everyone implements). `false` is the ablation arm: full
    /// signature verification before the limit check.
    pub check_limits_first: bool,
    /// Answer/key cache capacity (entries); 0 disables caching.
    pub cache_size: usize,
    /// RFC 8198 aggressive use of validated NSEC3: synthesize NXDOMAINs
    /// from cached, verified denial chains (costs hashing per query; see
    /// `crate::aggressive`).
    pub aggressive_nsec3: bool,
    /// Cache referral state per zone cut ([`DelegationCache`]) so warm
    /// resolutions restart at the deepest known cut instead of the root
    /// hints. Off by default so every calibrated probe driver keeps its
    /// historical query pattern; the serving and chain-study drivers
    /// turn it on.
    pub delegation_cache: bool,
    /// 0x20 case randomization (dns-0x20): encode the qname of upstream
    /// queries with per-query random case and reject responses that do not
    /// echo it — the classic anti-spoofing hardening the paper's Kaminsky
    /// citation motivates.
    pub case_randomization: bool,
    /// QNAME minimization (RFC 9156): expose only one extra label per
    /// zone while walking the delegation tree. Off by default so the
    /// calibrated experiments keep the classic query pattern.
    pub qname_minimization: bool,
    /// Per-client-query validator work budget (compressions + signature
    /// attempts). Armed for the span of one `resolve` including CNAME
    /// chasing and key fetches; unlimited by default so every calibrated
    /// experiment is untouched.
    pub budget: WorkBudget,
}

impl ResolverConfig {
    /// A validating resolver with the given address, hints and anchor.
    pub fn validating(addr: IpAddr, root_hints: Vec<IpAddr>, anchor: TrustAnchor) -> Self {
        ResolverConfig {
            addr,
            root_hints,
            trust_anchors: vec![anchor],
            validate: true,
            policy: Rfc9276Policy::unlimited(),
            now: 0,
            retry: RetryPolicy::fixed(2),
            check_limits_first: true,
            cache_size: 4096,
            aggressive_nsec3: false,
            delegation_cache: false,
            case_randomization: true,
            qname_minimization: false,
            budget: WorkBudget::unlimited(),
        }
    }

    /// A non-validating resolver.
    pub fn stub(addr: IpAddr, root_hints: Vec<IpAddr>) -> Self {
        ResolverConfig {
            addr,
            root_hints,
            trust_anchors: Vec::new(),
            validate: false,
            policy: Rfc9276Policy::unlimited(),
            now: 0,
            retry: RetryPolicy::fixed(2),
            check_limits_first: true,
            cache_size: 4096,
            aggressive_nsec3: false,
            delegation_cache: false,
            case_randomization: true,
            qname_minimization: false,
            budget: WorkBudget::unlimited(),
        }
    }
}

/// The result the resolver hands to its client.
#[derive(Clone, Debug)]
pub struct ResolveOutcome {
    /// Response code.
    pub rcode: Rcode,
    /// Whether the data was DNSSEC-authenticated (AD bit).
    pub authenticated: bool,
    /// Answer records.
    pub answers: Vec<Record>,
    /// Authority-section records relayed to the client (SOA, NSEC/NSEC3
    /// proofs) — the zdns-style census reads NSEC3 parameters from here.
    pub authorities: Vec<Record>,
    /// Extended DNS error attached, if any.
    pub ede: Option<(EdeCode, String)>,
    /// The SERVFAIL was a work-budget abort, not a verdict on the data:
    /// experiment drivers tally these separately so degraded queries never
    /// skew the paper-number denominators.
    pub budget_exceeded: bool,
    /// Validation cost spent on this resolution.
    pub cost: CostSnapshot,
}

impl ResolveOutcome {
    /// Did this resolution lose its probe, rather than observe a genuine
    /// answer? The rule, for every scan and driver: a SERVFAIL that spent
    /// upstream timeouts is probe loss, not a verdict on the zone — except
    /// a work-budget abort, which the resolver answered on purpose. A
    /// SERVFAIL resolved entirely from answered traffic (validation
    /// failure, policy SERVFAIL) is a real observation, and fault-free
    /// networks never spend timeouts, so nothing is lost on them.
    pub fn probe_lost(&self) -> bool {
        !self.budget_exceeded && self.rcode == Rcode::ServFail && self.cost.timeouts > 0
    }

    fn servfail(ede: Option<(EdeCode, String)>, cost: CostSnapshot) -> Self {
        ResolveOutcome {
            rcode: Rcode::ServFail,
            authenticated: false,
            answers: Vec::new(),
            authorities: Vec::new(),
            ede,
            budget_exceeded: false,
            cost,
        }
    }
}

/// Security state of the validation chain at the current zone.
#[derive(Clone, Debug)]
enum Chain {
    /// Chain of trust intact; we hold validated keys for the zone (shared
    /// with the key cache, not copied out of it).
    Secure(Rc<ZoneKeys>),
    /// Provably insecure (opt-out or missing DS): no validation expected.
    Insecure,
}

/// A validating recursive resolver, usable directly (via
/// [`Resolver::resolve`]) or as a network [`Node`] serving clients.
pub struct Resolver {
    /// Configuration (public for inspection in experiments).
    pub config: ResolverConfig,
    meter: CostMeter,
    /// Query counter for deterministic message ids.
    next_id: RefCell<u16>,
    /// Final-answer cache (RFC 2308-style negative caching included):
    /// outcomes with their cost zeroed — a hit costs nothing. Behind an
    /// `Rc` so the cache's tree nodes hold pointers, not 136-byte
    /// outcomes (a resolver fleet's peak RSS is mostly these trees).
    ///
    /// Keyed by [`Name::rrset_sort_key`], which orders as `(Name, RrType)`
    /// does: eviction victims are what they were under that pair, and a
    /// probe compares bytes.
    answer_cache: TtlCache<SortKey, Rc<ResolveOutcome>>,
    /// Validated DNSKEY sets per zone (the big recursion saver), keyed by
    /// [`Name::sort_key`].
    key_cache: TtlCache<SortKey, Rc<ZoneKeys>>,
    /// Referral state per zone cut, for warm-restart recursion (inert
    /// unless [`ResolverConfig::delegation_cache`] is set).
    delegations: DelegationCache,
    /// RFC 8198 store of verified NSEC3 chains.
    aggressive: AggressiveCache,
}

impl Resolver {
    /// Build a resolver.
    pub fn new(config: ResolverConfig) -> Self {
        let cache_size = config.cache_size;
        let delegation_capacity = if config.delegation_cache {
            cache_size.min(512)
        } else {
            0
        };
        Resolver {
            config,
            meter: CostMeter::new(),
            next_id: RefCell::new(1),
            answer_cache: TtlCache::new(cache_size),
            key_cache: TtlCache::new(cache_size.min(512)),
            delegations: DelegationCache::new(delegation_capacity),
            aggressive: AggressiveCache::new(),
        }
    }

    /// Cumulative cost across all resolutions.
    pub fn total_cost(&self) -> CostSnapshot {
        self.meter.snapshot()
    }

    /// Answer-cache hit count (experiment instrumentation).
    pub fn cache_hits(&self) -> u64 {
        self.answer_cache.hits()
    }

    /// Answer-cache miss count (serving instrumentation).
    pub fn cache_misses(&self) -> u64 {
        self.answer_cache.misses()
    }

    /// Validated-key-cache hit count (serving instrumentation).
    pub fn key_cache_hits(&self) -> u64 {
        self.key_cache.hits()
    }

    /// Validated-key-cache miss count (serving instrumentation).
    pub fn key_cache_misses(&self) -> u64 {
        self.key_cache.misses()
    }

    /// NXDOMAINs synthesized via RFC 8198 so far.
    pub fn synthesized_nxdomains(&self) -> u64 {
        self.aggressive.synthesized_count()
    }

    /// Delegation-cache hit count: resolutions that restarted at a
    /// cached zone cut instead of walking from the root hints.
    pub fn delegation_hits(&self) -> u64 {
        self.delegations.hits()
    }

    /// Delegation-cache miss count: walks that found no usable cut.
    pub fn delegation_misses(&self) -> u64 {
        self.delegations.misses()
    }

    /// Delegation-cache at-capacity evictions.
    pub fn delegation_evictions(&self) -> u64 {
        self.delegations.evictions()
    }

    /// Zone cuts currently cached in the delegation cache.
    #[allow(dead_code)] // `delegation_cache_is_off_by_default`: unit tests only
    pub(crate) fn delegation_len(&self) -> usize {
        self.delegations.len()
    }

    fn fresh_id(&self) -> u16 {
        let mut id = self.next_id.borrow_mut();
        *id = id.wrapping_add(1);
        *id
    }

    /// Send one upstream query, with retries, and decode the reply.
    fn ask(&self, net: &Network, server: IpAddr, qname: &Name, qtype: RrType) -> Option<Message> {
        let id = self.fresh_id();
        let sent_qname = if self.config.case_randomization {
            randomize_case(qname, id)
        } else {
            qname.clone()
        };
        let query = Message::query(id, sent_qname, qtype);
        let sent_qname = &query.questions[0].qname;
        // Encode once, TCP-framed: the UDP datagram is the framed buffer
        // minus its 2-byte length prefix, so a TC fallback reuses the
        // same bytes instead of re-encoding.
        let mut framed = Vec::with_capacity(64);
        query.encode_framed_append(&mut framed);
        let wire = &framed[2..];
        self.meter.add_message();
        let report = net.send_query_with_policy(self.config.addr, server, wire, &self.config.retry);
        self.meter
            .add_retries(u64::from(report.attempts.saturating_sub(1)));
        let resp = match report.outcome {
            Outcome::Response { payload, .. } => Message::decode(&payload).ok()?,
            // NoRoute is a definitive "no path" (wrong address family,
            // unregistered server) that clean networks produce too — only
            // genuine timeouts count as spent loss budget.
            Outcome::NoRoute => return None,
            Outcome::Timeout => {
                self.meter.add_timeout();
                return None;
            }
        };
        // Truncated over UDP: retry the exchange over "TCP" (RFC 7766
        // length framing, no size limit).
        let resp = if resp.flags.tc {
            self.meter.add_message();
            let report =
                net.send_query_with_policy(self.config.addr, server, &framed, &self.config.retry);
            self.meter
                .add_retries(u64::from(report.attempts.saturating_sub(1)));
            match report.outcome {
                Outcome::Response { payload, .. } => {
                    Message::decode(unframe_tcp(&payload)?).ok()?
                }
                Outcome::NoRoute => return None,
                Outcome::Timeout => {
                    self.meter.add_timeout();
                    return None;
                }
            }
        } else {
            resp
        };
        if resp.id != query.id || !resp.flags.qr {
            return None;
        }
        // The echoed question must name what was asked, and under
        // dns-0x20 in the sent case exactly; anything else is a spoof, a
        // mangler, or an answer to someone else's question.
        let echoed = &resp.question()?.qname;
        let matches = if self.config.case_randomization {
            echoed.wire_bytes() == sent_qname.wire_bytes()
        } else {
            echoed == sent_qname
        };
        matches.then_some(resp)
    }

    /// Try every server in order until one responds.
    fn ask_any(
        &self,
        net: &Network,
        servers: &[IpAddr],
        qname: &Name,
        qtype: RrType,
    ) -> Option<Message> {
        servers.iter().find_map(|s| self.ask(net, *s, qname, qtype))
    }

    /// Full recursive resolution of `qname`/`qtype`.
    ///
    /// Implemented by driving a [`Recursion`] machine to completion, so
    /// the blocking path and the event-core stepped path are the same
    /// code executing the same operations in the same order.
    pub fn resolve(&self, net: &Network, qname: &Name, qtype: RrType) -> ResolveOutcome {
        let mut recursion = self.begin_recursion(net, qname, qtype);
        loop {
            if let RecursionStep::Done(outcome) = recursion.step(net) {
                return outcome;
            }
        }
    }

    /// Start a resolution as a steppable [`Recursion`] machine: each
    /// [`Recursion::step`] performs at most one delegation level (one
    /// upstream exchange plus the DS/DNSKEY chain work it triggers), so
    /// event-core drivers can park a multi-hop walk between levels and
    /// interleave many walks under a bounded in-flight window.
    /// Answer-cache hits and RFC 8198 synthesis settle on the first
    /// step. Drive one machine at a time per resolver: the per-query
    /// work budget is armed on the shared meter for the machine's
    /// lifetime.
    pub fn begin_recursion<'a>(
        &'a self,
        net: &Network,
        qname: &Name,
        qtype: RrType,
    ) -> Recursion<'a> {
        let hit =
            qname.with_rrset_sort_key(qtype, |key| self.answer_cache.get(key, net.now_micros()));
        if let Some(hit) = hit {
            return Recursion::settled(self, (*hit).clone());
        }
        if self.config.aggressive_nsec3 {
            let before = self.meter.snapshot();
            if let Some(zone) = self.aggressive.zone_for(qname, net.now_micros()) {
                if self
                    .aggressive
                    .synthesize_nxdomain(&zone, qname, net.now_micros(), &self.meter)
                {
                    return Recursion::settled(
                        self,
                        ResolveOutcome {
                            rcode: Rcode::NxDomain,
                            authenticated: true,
                            answers: Vec::new(),
                            authorities: Vec::new(),
                            ede: None,
                            budget_exceeded: false,
                            cost: self.meter.snapshot().since(&before),
                        },
                    );
                }
            }
        }
        // Arm the per-query work budget for the machine's lifetime: the
        // allowance covers everything one client query triggers — the
        // delegation walk, key fetches, CNAME chasing, proof validation.
        self.meter.arm_budget(&self.config.budget);
        let before = self.meter.snapshot();
        Recursion {
            resolver: self,
            cache_key: qname.rrset_sort_key(qtype),
            qtype,
            before,
            target: qname.clone(),
            hops: 0,
            answers: Vec::new(),
            walk: None,
            settled: None,
            armed: true,
        }
    }

    /// The deepest cached cut covering `target`, when the delegation
    /// cache is enabled (counters stay untouched when it is not).
    fn lookup_delegation(&self, net: &Network, target: &Name) -> Option<(Name, Delegation)> {
        if !self.config.delegation_cache {
            return None;
        }
        self.delegations.deepest(target, net.now_micros())
    }

    /// Start one iterative walk for `target`: from the deepest cached
    /// delegation cut when one is usable, from the root hints otherwise.
    /// The `Err` arm is a settled [`ResolveOutcome`] handed straight to
    /// the caller; it is only built on terminal failures, so its size
    /// never taxes the happy path.
    #[allow(clippy::result_large_err)]
    fn start_walk(
        &self,
        net: &Network,
        target: &Name,
        cost_base: &CostSnapshot,
    ) -> Result<Walk, ResolveOutcome> {
        if let Some((apex, d)) = self.lookup_delegation(net, target) {
            if !self.config.validate || !d.secure {
                return Ok(Walk::at(d.servers, apex, Chain::Insecure));
            }
            // Re-establish the secure chain at the cut: via the cut's
            // own anchor if one is configured, else by re-validating the
            // child keys against the DS set stored with the delegation
            // (a key-cache hit makes both free).
            let keys = match self.anchor_for(&apex) {
                Some(anchor) => self.cached_anchor_keys(net, &d.servers, &anchor),
                None => self.cached_child_keys(net, &d.servers, &apex, &d.ds),
            };
            if let Ok(keys) = keys {
                return Ok(Walk::at(d.servers, apex, Chain::Secure(keys)));
            }
            // A cut whose chain no longer re-validates is abandoned and
            // the walk restarts from the root as if cold.
        }
        let servers = self.config.root_hints.clone();
        let chain = if !self.config.validate {
            Chain::Insecure
        } else {
            match self.anchor_for(&Name::root()) {
                Some(anchor) => match self.cached_anchor_keys(net, &servers, &anchor) {
                    Ok(keys) => Chain::Secure(keys),
                    Err(e) => {
                        return Err(
                            self.validation_failure(e, self.meter.snapshot().since(cost_base))
                        )
                    }
                },
                // No root anchor: the walk starts insecure, but a deeper
                // anchor may still establish an island of trust at its cut.
                None => Chain::Insecure,
            }
        };
        Ok(Walk::at(servers, Name::root(), chain))
    }

    /// One delegation level of the iterative walk: send the (possibly
    /// minimized) question, follow a referral — DS/DNSKEY chain work
    /// included — or classify the authoritative answer.
    fn walk_level(
        &self,
        net: &Network,
        walk: &mut Walk,
        qname: &Name,
        qtype: RrType,
        cost_base: &CostSnapshot,
    ) -> LevelOutcome {
        let fail = |ede: Option<(EdeCode, String)>, meter: &CostMeter| {
            LevelOutcome::Finished(ResolveOutcome::servfail(
                ede,
                meter.snapshot().since(cost_base),
            ))
        };
        if walk.depth >= 24 {
            return fail(None, &self.meter);
        }
        walk.depth += 1;
        // Compute the (possibly minimized) question for this step.
        let (send_name, send_type) = if self.config.qname_minimization {
            match ancestor_below(qname, &walk.zone, walk.min_labels) {
                Some(partial) if partial != *qname => (partial, RrType::NS),
                _ => (qname.clone(), qtype),
            }
        } else {
            (qname.clone(), qtype)
        };
        let minimized = send_name != *qname;
        let resp = match self.ask_any(net, &walk.servers, &send_name, send_type) {
            Some(r) => r,
            None => return fail(None, &self.meter),
        };
        // Referral: authority NS below current zone, not authoritative.
        let referral_cut = resp
            .authorities
            .iter()
            .find(|r| r.rrtype() == RrType::NS && r.name != walk.zone)
            .map(|r| r.name.clone())
            .filter(|_| resp.answers.is_empty() && resp.rcode == Rcode::NoError && !resp.flags.aa);
        if let Some(cut) = referral_cut {
            // Collect glue.
            let mut next_servers: Vec<IpAddr> = Vec::new();
            for rec in &resp.additionals {
                match &rec.rdata {
                    RData::A(a) => next_servers.push(IpAddr::V4(*a)),
                    RData::Aaaa(a) => next_servers.push(IpAddr::V6(*a)),
                    _ => {}
                }
            }
            if next_servers.is_empty() {
                return fail(None, &self.meter);
            }
            // The DS set that validated at this cut, kept for the
            // delegation cache (empty when the delegation is insecure or
            // anchor-secured).
            let mut validated_ds: Vec<Record> = Vec::new();
            // An anchor configured for the child apex takes precedence
            // over the parent's DS set — this both enables islands of
            // trust below insecure parents and makes a mis-anchored cut
            // fail as AnchorMismatch instead of silently chaining on.
            let child_anchor = if self.config.validate {
                self.anchor_for(&cut)
            } else {
                None
            };
            let next_chain = if let Some(anchor) = child_anchor {
                match self.cached_anchor_keys(net, &next_servers, &anchor) {
                    Ok(keys) => Chain::Secure(keys),
                    Err(e) => {
                        return LevelOutcome::Finished(
                            self.validation_failure(e, self.meter.snapshot().since(cost_base)),
                        )
                    }
                }
            } else {
                match &walk.chain {
                    Chain::Secure(parent_keys) => {
                        let ds_records: Vec<&Record> = resp
                            .authorities
                            .iter()
                            .filter(|r| r.rrtype() == RrType::DS && r.name == cut)
                            .collect();
                        if !ds_records.is_empty() {
                            let sigs = rrsigs_at(&resp.authorities, &cut);
                            if let Err(e) = validate_rrset(
                                &cut,
                                &ds_records,
                                &sigs,
                                parent_keys,
                                self.config.now,
                                &self.meter,
                            ) {
                                // Budget aborts keep their identity; every
                                // other DS failure stays the generic bogus
                                // verdict it always was.
                                let e = if e == ValidationError::BudgetExceeded {
                                    e
                                } else {
                                    ValidationError::BadSignature
                                };
                                return LevelOutcome::Finished(self.validation_failure(
                                    e,
                                    self.meter.snapshot().since(cost_base),
                                ));
                            }
                            match self.cached_child_keys(net, &next_servers, &cut, &ds_records) {
                                Ok(keys) => {
                                    if self.config.delegation_cache {
                                        validated_ds = ds_records.into_iter().cloned().collect();
                                    }
                                    Chain::Secure(keys)
                                }
                                Err(e) => {
                                    return LevelOutcome::Finished(self.validation_failure(
                                        e,
                                        self.meter.snapshot().since(cost_base),
                                    ))
                                }
                            }
                        } else {
                            // No DS: must be proven absent.
                            match self.check_insecure_delegation(&resp, &cut, parent_keys) {
                                Ok(LimitFlow::Continue) => Chain::Insecure,
                                Ok(LimitFlow::ServFail) => {
                                    return fail(self.limit_ede(), &self.meter)
                                }
                                Ok(LimitFlow::Insecure) => Chain::Insecure,
                                Err(e) => {
                                    return LevelOutcome::Finished(self.validation_failure(
                                        e,
                                        self.meter.snapshot().since(cost_base),
                                    ))
                                }
                            }
                        }
                    }
                    Chain::Insecure => Chain::Insecure,
                }
            };
            // Remember the cut for warm restarts (NS TTL bounds it).
            if self.config.delegation_cache {
                let ttl = resp
                    .authorities
                    .iter()
                    .filter(|r| r.rrtype() == RrType::NS && r.name == cut)
                    .map(|r| r.ttl)
                    .min()
                    .unwrap_or(3600);
                self.delegations.insert(
                    &cut,
                    Delegation {
                        servers: next_servers.clone(),
                        secure: matches!(next_chain, Chain::Secure(_)),
                        ds: validated_ds,
                    },
                    net.now_micros(),
                    ttl,
                );
            }
            walk.servers = next_servers;
            walk.zone = cut;
            walk.chain = next_chain;
            walk.min_labels = 1;
            return LevelOutcome::Descend;
        }

        if minimized {
            match resp.rcode {
                // The partial name exists (NODATA or an in-zone NS
                // answer): reveal one more label to the same servers.
                Rcode::NoError => {
                    walk.min_labels += 1;
                    return LevelOutcome::Descend;
                }
                // The partial name does not exist: neither does the
                // full qname. Validate the denial of the *partial*
                // name — that is what the proof in hand covers.
                Rcode::NxDomain => {
                    let mut out = self.finish(
                        net,
                        resp,
                        &send_name,
                        send_type,
                        &walk.zone,
                        &walk.chain,
                        cost_base,
                    );
                    out.answers.clear();
                    return LevelOutcome::Finished(out);
                }
                _ => return fail(None, &self.meter),
            }
        }

        // Final response from the authoritative side.
        LevelOutcome::Finished(self.finish(
            net,
            resp,
            qname,
            qtype,
            &walk.zone,
            &walk.chain,
            cost_base,
        ))
    }

    /// Validate and classify the authoritative response, then hand its
    /// sections to the outcome: the records decoded from the wire are the
    /// records the client (and the answer cache) get, not copies of them.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        net: &Network,
        resp: Message,
        qname: &Name,
        qtype: RrType,
        zone: &Name,
        chain: &Chain,
        cost_base: &CostSnapshot,
    ) -> ResolveOutcome {
        let cost = |m: &CostMeter| m.snapshot().since(cost_base);
        match self.judge(net, &resp, qname, qtype, zone, chain) {
            Ok(Relay { authenticated, ede }) => {
                let mut answers = resp.answers;
                answers.retain(|r| r.rrtype() != RrType::RRSIG);
                ResolveOutcome {
                    rcode: resp.rcode,
                    authenticated,
                    answers,
                    authorities: resp.authorities,
                    ede,
                    budget_exceeded: false,
                    cost: cost(&self.meter),
                }
            }
            Err(Refusal::Limit) => ResolveOutcome::servfail(self.limit_ede(), cost(&self.meter)),
            Err(Refusal::Invalid(e)) => self.validation_failure(e, cost(&self.meter)),
        }
    }

    /// Decide what to do with the authoritative response: relay it
    /// (authenticated or not) or refuse it.
    fn judge(
        &self,
        net: &Network,
        resp: &Message,
        qname: &Name,
        qtype: RrType,
        zone: &Name,
        chain: &Chain,
    ) -> Result<Relay, Refusal> {
        const INSECURE: Relay = Relay {
            authenticated: false,
            ede: None,
        };
        const SECURE: Relay = Relay {
            authenticated: true,
            ede: None,
        };
        let keys = match chain {
            // No validation possible: relay as-is, never authenticated.
            Chain::Insecure => return Ok(INSECURE),
            Chain::Secure(keys) => keys,
        };

        // Gather NSEC3/NSEC material early: the limit check may shortcut.
        let nsec3_refs: Vec<&Record> = resp
            .authorities
            .iter()
            .chain(resp.answers.iter())
            .filter(|r| r.rrtype() == RrType::NSEC3)
            .collect();
        let parsed_nsec3 = if nsec3_refs.is_empty() {
            None
        } else {
            match parse_nsec3_set(&nsec3_refs) {
                Ok(x) => Some(x),
                // Unknown algorithm: zone is insecure for us.
                Err(ValidationError::UnknownNsec3Algorithm) => return Ok(INSECURE),
                Err(e) => return Err(Refusal::Invalid(e)),
            }
        };

        // RFC 9276 limit enforcement (items 6/8).
        if let Some((params, _)) = &parsed_nsec3 {
            // Ablation arm (DESIGN.md ablation 5): verify the NSEC3 RRSIGs
            // *before* consulting the limits. Strictly more item-7-safe,
            // strictly more expensive — the cost difference is what the
            // `validation` bench quantifies.
            if !self.config.check_limits_first {
                self.validate_proof_sigs(resp, keys)?;
            }
            match self.apply_limits(params, resp, zone, keys)? {
                LimitFlow::Continue => {}
                LimitFlow::ServFail => return Err(Refusal::Limit),
                LimitFlow::Insecure => {
                    return Ok(Relay {
                        authenticated: false,
                        ede: self.limit_ede(),
                    });
                }
            }
        }

        // Positive answers: validate each RRset.
        let sets = dns_wire::record::group_rrsets(
            resp.answers.iter().filter(|r| r.rrtype() != RrType::RRSIG),
        );
        for set in &sets {
            let owner = &set[0].name;
            let sigs = rrsigs_at(&resp.answers, owner);
            validate_rrset(owner, set, &sigs, keys, self.config.now, &self.meter)?;
            // Wildcard expansion: labels < owner label count means the
            // denial part must also be present and valid.
            if let Some(labels) = wildcard_labels(&sigs, owner, set[0].rrtype()) {
                if let Some((params, views)) = &parsed_nsec3 {
                    self.validate_proof_sigs(resp, keys)
                        .and_then(|()| {
                            verify_wildcard_expansion(owner, labels, params, views, &self.meter)
                        })
                        .map_err(|e| match e {
                            ValidationError::BudgetExceeded => e,
                            _ => ValidationError::BadDenialProof,
                        })?;
                }
            }
        }
        if !sets.is_empty() {
            return Ok(SECURE);
        }

        // Negative answers: validate the denial.
        if let Some((params, views)) = &parsed_nsec3 {
            self.validate_proof_sigs(resp, keys)?;
            match resp.rcode {
                Rcode::NxDomain => {
                    verify_nxdomain(qname, zone, params, views, &self.meter)?;
                }
                _ => verify_nodata(qname, qtype, params, views, &self.meter)?,
            }
            // RFC 8198: a verified denial chain is synthesis material.
            if self.config.aggressive_nsec3 {
                self.aggressive
                    .insert(zone, params, views, net.now_micros(), 300);
            }
        } else {
            // NSEC-based or proofless denial.
            let nsec_refs: Vec<&Record> = resp
                .authorities
                .iter()
                .filter(|r| r.rrtype() == RrType::NSEC)
                .collect();
            if nsec_refs.is_empty() {
                return Err(Refusal::Invalid(ValidationError::BadDenialProof));
            }
            self.validate_nsec_sigs(resp, keys)?;
            // NODATA via NSEC is a bitmap check the signatures cover.
            if resp.rcode == Rcode::NxDomain {
                validator::nsec::verify_nxdomain(qname, &nsec_refs)?;
            }
        }
        Ok(SECURE)
    }

    /// Apply the iteration/salt limits; the item-7 subtlety lives here.
    fn apply_limits(
        &self,
        params: &Nsec3Params,
        resp: &Message,
        _zone: &Name,
        keys: &ZoneKeys,
    ) -> Result<LimitFlow, ValidationError> {
        match self
            .config
            .policy
            .action_for(params.iterations, params.salt.len())
        {
            LimitAction::Process => Ok(LimitFlow::Continue),
            LimitAction::ServFail => Ok(LimitFlow::ServFail),
            LimitAction::TreatInsecure => {
                if self.config.policy.verify_nsec3_rrsig {
                    // Item 7: the downgrade decision must rest on
                    // *authenticated* NSEC3 parameters. A budget abort
                    // during that verification keeps its identity; any
                    // other failure stays the limit-policy SERVFAIL.
                    match self.validate_proof_sigs(resp, keys) {
                        Ok(()) => {}
                        Err(ValidationError::BudgetExceeded) => {
                            return Err(ValidationError::BudgetExceeded)
                        }
                        Err(_) => return Ok(LimitFlow::ServFail),
                    }
                }
                Ok(LimitFlow::Insecure)
            }
        }
    }

    /// Verify the RRSIGs over every NSEC3 RRset in the response.
    fn validate_proof_sigs(&self, resp: &Message, keys: &ZoneKeys) -> Result<(), ValidationError> {
        self.validate_denial_sigs(
            resp.authorities.iter().chain(&resp.answers),
            RrType::NSEC3,
            keys,
        )
    }

    /// Verify the RRSIGs over every NSEC RRset in the response.
    fn validate_nsec_sigs(&self, resp: &Message, keys: &ZoneKeys) -> Result<(), ValidationError> {
        self.validate_denial_sigs(resp.authorities.iter(), RrType::NSEC, keys)
    }

    /// Verify, owner by owner, the `denial` (NSEC or NSEC3) RRsets among
    /// `records` against the RRSIGs found at the same owner.
    fn validate_denial_sigs<'r>(
        &self,
        records: impl Iterator<Item = &'r Record> + Clone,
        denial: RrType,
        keys: &ZoneKeys,
    ) -> Result<(), ValidationError> {
        let at = |owner: &'r Name, rrtype: RrType| -> Vec<&'r Record> {
            records
                .clone()
                .filter(|r| r.rrtype() == rrtype && r.name == *owner)
                .collect()
        };
        let mut previous: Option<&Name> = None;
        for rec in records.clone().filter(|r| r.rrtype() == denial) {
            // An owner's records arrive together; check each owner once.
            if previous.replace(&rec.name) == Some(&rec.name) {
                continue;
            }
            let owner = &rec.name;
            validate_rrset(
                owner,
                &at(owner, denial),
                &at(owner, RrType::RRSIG),
                keys,
                self.config.now,
                &self.meter,
            )?;
        }
        Ok(())
    }

    /// Handle a referral without DS records: validate the DS-absence proof
    /// and apply limits to it.
    fn check_insecure_delegation(
        &self,
        resp: &Message,
        cut: &Name,
        parent_keys: &ZoneKeys,
    ) -> Result<LimitFlow, ValidationError> {
        let nsec3_refs: Vec<&Record> = resp
            .authorities
            .iter()
            .filter(|r| r.rrtype() == RrType::NSEC3)
            .collect();
        if nsec3_refs.is_empty() {
            let nsec_refs: Vec<&Record> = resp
                .authorities
                .iter()
                .filter(|r| r.rrtype() == RrType::NSEC)
                .collect();
            if nsec_refs.is_empty() {
                // No proof at all: a strict validator would treat this as
                // bogus; we match common practice and fail.
                return Err(ValidationError::BadDenialProof);
            }
            self.validate_nsec_sigs(resp, parent_keys)?;
            return Ok(LimitFlow::Continue);
        }
        let (params, views) = parse_nsec3_set(&nsec3_refs)?;
        match self
            .config
            .policy
            .action_for(params.iterations, params.salt.len())
        {
            LimitAction::ServFail => return Ok(LimitFlow::ServFail),
            LimitAction::TreatInsecure => {
                if self.config.policy.verify_nsec3_rrsig {
                    self.validate_proof_sigs(resp, parent_keys)?;
                }
                return Ok(LimitFlow::Insecure);
            }
            LimitAction::Process => {}
        }
        self.validate_proof_sigs(resp, parent_keys)?;
        verify_nodata(cut, RrType::DS, &params, &views, &self.meter)?;
        Ok(LimitFlow::Continue)
    }

    /// The configured trust anchor covering exactly `zone`'s apex, if any.
    fn anchor_for(&self, zone: &Name) -> Option<TrustAnchor> {
        self.config
            .trust_anchors
            .iter()
            .find(|a| a.zone == *zone)
            .cloned()
    }

    /// Key-cache wrapper around [`Resolver::fetch_keys_via_anchor`].
    fn cached_anchor_keys(
        &self,
        net: &Network,
        servers: &[IpAddr],
        anchor: &TrustAnchor,
    ) -> Result<Rc<ZoneKeys>, ValidationError> {
        let cached = anchor
            .zone
            .with_sort_key(|key| self.key_cache.get(key, net.now_micros()));
        if let Some(keys) = cached {
            return Ok(keys);
        }
        let keys = Rc::new(self.fetch_keys_via_anchor(net, servers, anchor)?);
        self.key_cache
            .put(anchor.zone.sort_key(), keys.clone(), net.now_micros(), 3600);
        Ok(keys)
    }

    /// Key-cache wrapper around [`Resolver::fetch_child_keys`].
    fn cached_child_keys<R: Borrow<Record>>(
        &self,
        net: &Network,
        servers: &[IpAddr],
        child: &Name,
        ds_records: &[R],
    ) -> Result<Rc<ZoneKeys>, ValidationError> {
        let cached = child.with_sort_key(|key| self.key_cache.get(key, net.now_micros()));
        if let Some(keys) = cached {
            return Ok(keys);
        }
        let keys = Rc::new(self.fetch_child_keys(net, servers, child, ds_records)?);
        self.key_cache
            .put(child.sort_key(), keys.clone(), net.now_micros(), 3600);
        Ok(keys)
    }

    /// Fetch the anchored zone's DNSKEY RRset and validate it against
    /// `anchor`. A served key set that does not contain the anchored key
    /// is [`ValidationError::AnchorMismatch`] — the mis-anchored-zone
    /// signal, kept distinct from on-path tampering verdicts.
    fn fetch_keys_via_anchor(
        &self,
        net: &Network,
        servers: &[IpAddr],
        anchor: &TrustAnchor,
    ) -> Result<ZoneKeys, ValidationError> {
        let resp = self
            .ask_any(net, servers, &anchor.zone, RrType::DNSKEY)
            .ok_or(ValidationError::MissingSignature)?;
        let dnskeys: Vec<&Record> = resp
            .answers
            .iter()
            .filter(|r| r.rrtype() == RrType::DNSKEY)
            .collect();
        // Anchor match.
        let anchored = dnskeys.iter().any(|r| {
            let tag = dns_crypto::keytag::key_tag(&r.rdata.canonical_bytes());
            if tag != anchor.key_tag {
                return false;
            }
            let mut buf = anchor.zone.to_canonical_wire();
            buf.extend_from_slice(&r.rdata.canonical_bytes());
            sha256(&buf).to_vec() == anchor.digest
        });
        if !anchored {
            return Err(ValidationError::AnchorMismatch);
        }
        let keys = ZoneKeys::from_dnskeys(anchor.zone.clone(), &dnskeys);
        let sigs = rrsigs_at(&resp.answers, &anchor.zone);
        validate_rrset(
            &anchor.zone,
            &dnskeys,
            &sigs,
            &keys,
            self.config.now,
            &self.meter,
        )?;
        Ok(keys)
    }

    /// Fetch the child zone's DNSKEY RRset and validate it against the DS
    /// set obtained from the parent.
    fn fetch_child_keys<R: Borrow<Record>>(
        &self,
        net: &Network,
        servers: &[IpAddr],
        child: &Name,
        ds_records: &[R],
    ) -> Result<ZoneKeys, ValidationError> {
        let resp = self
            .ask_any(net, servers, child, RrType::DNSKEY)
            .ok_or(ValidationError::MissingSignature)?;
        let dnskeys: Vec<&Record> = resp
            .answers
            .iter()
            .filter(|r| r.rrtype() == RrType::DNSKEY)
            .collect();
        if dnskeys.is_empty() {
            return Err(ValidationError::MissingSignature);
        }
        // One DNSKEY must match a DS digest.
        let sep_ok = dnskeys.iter().any(|dnskey| {
            let tag = dns_crypto::keytag::key_tag(&dnskey.rdata.canonical_bytes());
            ds_records.iter().any(|ds| match &ds.borrow().rdata {
                RData::Ds {
                    key_tag,
                    digest_type: 2,
                    digest,
                    ..
                } if *key_tag == tag => {
                    let mut buf = child.to_canonical_wire();
                    buf.extend_from_slice(&dnskey.rdata.canonical_bytes());
                    sha256(&buf).to_vec() == *digest
                }
                _ => false,
            })
        });
        if !sep_ok {
            return Err(ValidationError::BadSignature);
        }
        let keys = ZoneKeys::from_dnskeys(child.clone(), &dnskeys);
        let sigs = rrsigs_at(&resp.answers, child);
        validate_rrset(child, &dnskeys, &sigs, &keys, self.config.now, &self.meter)?;
        Ok(keys)
    }

    /// SERVFAIL outcome for a validation error, carrying the EDE mapping
    /// and — crucially for the adversarial drivers — the budget flag when
    /// the error was a work-budget abort rather than a verdict on the data.
    fn validation_failure(&self, e: ValidationError, cost: CostSnapshot) -> ResolveOutcome {
        let mut out = ResolveOutcome::servfail(self.ede_for(e), cost);
        out.budget_exceeded = e == ValidationError::BudgetExceeded;
        out
    }

    fn ede_for(&self, e: ValidationError) -> Option<(EdeCode, String)> {
        if !self.config.policy.emit_ede && !self.config.validate {
            return None;
        }
        let (code, text) = match e {
            ValidationError::Expired => (EdeCode::SIGNATURE_EXPIRED, ""),
            ValidationError::MissingSignature => (EdeCode::DNSKEY_MISSING, ""),
            ValidationError::BadDenialProof => (EdeCode::NSEC_MISSING, ""),
            ValidationError::InconsistentNsec3 | ValidationError::UnknownNsec3Algorithm => {
                (EdeCode::DNSSEC_BOGUS, "")
            }
            ValidationError::BadSignature => (EdeCode::DNSSEC_BOGUS, ""),
            // Mis-anchored zone: the served DNSKEY set never matched the
            // configured anchor. Same RFC 8914 code as bogus, but the
            // text lets chain-of-trust reports bucket it separately.
            ValidationError::AnchorMismatch => (EdeCode::DNSSEC_BOGUS, "trust anchor mismatch"),
            // RFC 8914 has no dedicated code for resource-limit aborts;
            // real deployments use 0 (Other) with explanatory text.
            ValidationError::BudgetExceeded => (EdeCode::OTHER, "work budget exceeded"),
        };
        Some((code, text.to_string()))
    }

    fn limit_ede(&self) -> Option<(EdeCode, String)> {
        if self.config.policy.emit_ede {
            Some((
                self.config.policy.ede_code,
                self.config.policy.ede_extra_text.clone(),
            ))
        } else {
            None
        }
    }
}

/// What a limit check decided for control flow.
enum LimitFlow {
    Continue,
    Insecure,
    ServFail,
}

/// An authoritative response accepted for relay to the client.
struct Relay {
    /// Whether the AD bit is earned.
    authenticated: bool,
    /// EDE to attach (an RFC 9276 downgrade announces itself).
    ede: Option<(EdeCode, String)>,
}

/// Why an authoritative response is answered with SERVFAIL instead.
enum Refusal {
    /// The RFC 9276 limit policy says SERVFAIL.
    Limit,
    /// Validation failed.
    Invalid(ValidationError),
}

impl From<ValidationError> for Refusal {
    fn from(e: ValidationError) -> Self {
        Refusal::Invalid(e)
    }
}

/// In-flight state of one iterative walk (one hop of CNAME chasing).
struct Walk {
    servers: Vec<IpAddr>,
    zone: Name,
    chain: Chain,
    /// RFC 9156: how many labels below the current zone we reveal.
    min_labels: usize,
    /// Delegation levels executed on this walk (24 caps runaway loops).
    depth: usize,
}

impl Walk {
    fn at(servers: Vec<IpAddr>, zone: Name, chain: Chain) -> Self {
        Walk {
            servers,
            zone,
            chain,
            min_labels: 1,
            depth: 0,
        }
    }
}

/// What one delegation level decided.
enum LevelOutcome {
    /// Referral followed or minimized label revealed; the walk continues.
    Descend,
    /// The walk reached a verdict for its current target.
    Finished(ResolveOutcome),
}

/// What a [`Recursion::step`] left behind.
#[derive(Debug)]
pub enum RecursionStep {
    /// More delegation levels remain; call [`Recursion::step`] again
    /// (event-core drivers park the flow here).
    Pending,
    /// The resolution finished with this outcome (already entered into
    /// the answer cache).
    Done(ResolveOutcome),
}

/// One client resolution reified as a steppable machine — the
/// `Iterator`-style recursion engine. Every [`Recursion::step`] performs
/// at most one delegation level (one upstream exchange plus the
/// DS/DNSKEY chain work it triggers), so event-core drivers can
/// interleave many multi-hop walks under a bounded window, while
/// [`Resolver::resolve`] drives the very same machine to completion in a
/// loop: one code path, so blocking and stepped execution are identical
/// by construction.
///
/// The per-query work budget is armed on the resolver's shared meter for
/// the machine's lifetime (dropped machines disarm it), so drive one
/// machine at a time per resolver.
pub struct Recursion<'a> {
    resolver: &'a Resolver,
    /// Where the outcome goes in the answer cache: the question's
    /// [`Name::rrset_sort_key`].
    cache_key: SortKey,
    qtype: RrType,
    /// Cost snapshot when the budget was armed.
    before: CostSnapshot,
    /// Current resolution target (advances along the CNAME chain).
    target: Name,
    /// CNAME hops taken so far (8 caps the chain).
    hops: usize,
    /// Answer records accumulated across CNAME hops.
    answers: Vec<Record>,
    walk: Option<Walk>,
    /// Outcome decided at `begin_recursion` time (cache hit, RFC 8198
    /// synthesis): returned by the first `step` without touching the
    /// network or the answer cache.
    settled: Option<ResolveOutcome>,
    armed: bool,
}

impl<'a> Recursion<'a> {
    /// A machine that already holds its outcome. It never walks or
    /// caches, so it carries no copy of the question (the empty key and
    /// the root name allocate nothing).
    fn settled(resolver: &'a Resolver, outcome: ResolveOutcome) -> Self {
        Recursion {
            resolver,
            cache_key: SortKey::default(),
            qtype: RrType::A,
            before: CostSnapshot::default(),
            target: Name::root(),
            hops: 0,
            answers: Vec::new(),
            walk: None,
            settled: Some(outcome),
            armed: false,
        }
    }

    /// Advance by at most one delegation level.
    pub fn step(&mut self, net: &Network) -> RecursionStep {
        if let Some(outcome) = self.settled.take() {
            return RecursionStep::Done(outcome);
        }
        if self.walk.is_none() {
            match self.resolver.start_walk(net, &self.target, &self.before) {
                Ok(walk) => {
                    self.walk = Some(walk);
                    return RecursionStep::Pending;
                }
                Err(outcome) => return self.finish_resolution(net, outcome),
            }
        }
        let walk = self.walk.as_mut().expect("walk just ensured");
        match self
            .resolver
            .walk_level(net, walk, &self.target, self.qtype, &self.before)
        {
            LevelOutcome::Descend => RecursionStep::Pending,
            LevelOutcome::Finished(outcome) => self.after_walk(net, outcome),
        }
    }

    /// CNAME bookkeeping after one walk finished: chase an in-answer
    /// CNAME (up to 8 hops) or conclude the resolution.
    fn after_walk(&mut self, net: &Network, mut outcome: ResolveOutcome) -> RecursionStep {
        let cname = outcome.answers.iter().find_map(|r| {
            match (
                &r.rdata,
                r.rrtype() == RrType::CNAME && self.qtype != RrType::CNAME,
            ) {
                (RData::Cname(next), true) => Some(next.clone()),
                _ => None,
            }
        });
        let has_final = outcome.answers.iter().any(|r| r.rrtype() == self.qtype);
        self.answers.append(&mut outcome.answers);
        let authorities = std::mem::take(&mut outcome.authorities);
        match cname {
            Some(next) if !has_final && outcome.rcode == Rcode::NoError => {
                self.hops += 1;
                if self.hops >= 8 {
                    let cost = self.resolver.meter.snapshot().since(&self.before);
                    return self.finish_resolution(net, ResolveOutcome::servfail(None, cost));
                }
                self.target = next;
                self.walk = None;
                RecursionStep::Pending
            }
            _ => {
                let outcome = ResolveOutcome {
                    answers: std::mem::take(&mut self.answers),
                    authorities,
                    cost: self.resolver.meter.snapshot().since(&self.before),
                    ..outcome
                };
                self.finish_resolution(net, outcome)
            }
        }
    }

    /// Disarm the budget, cache the outcome, and hand it out.
    fn finish_resolution(&mut self, net: &Network, outcome: ResolveOutcome) -> RecursionStep {
        self.resolver.meter.disarm_budget();
        self.armed = false;
        // The cache keeps its own copy of the outcome (minus the cost):
        // the one clone on this path.
        self.resolver.answer_cache.put(
            std::mem::take(&mut self.cache_key),
            Rc::new(ResolveOutcome {
                cost: CostSnapshot::default(),
                ..outcome.clone()
            }),
            net.now_micros(),
            answer_ttl(&outcome),
        );
        RecursionStep::Done(outcome)
    }
}

impl Drop for Recursion<'_> {
    fn drop(&mut self) {
        // An abandoned in-flight machine must not leave the per-query
        // budget armed on the resolver's shared meter.
        if self.armed {
            self.resolver.meter.disarm_budget();
        }
    }
}

/// RRSIGs at `owner` within a section.
fn rrsigs_at<'r>(section: &'r [Record], owner: &Name) -> Vec<&'r Record> {
    section
        .iter()
        .filter(|r| r.rrtype() == RrType::RRSIG && r.name == *owner)
        .collect()
}

/// If the RRSIG covering (owner, rrtype) proves wildcard expansion, return
/// its labels field.
fn wildcard_labels(sigs: &[&Record], owner: &Name, rrtype: RrType) -> Option<u8> {
    sigs.iter().find_map(|s| match &s.rdata {
        RData::Rrsig {
            type_covered,
            labels,
            ..
        } if *type_covered == rrtype && (*labels as usize) < owner.label_count() => Some(*labels),
        _ => None,
    })
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

/// The ancestor of `qname` exactly `below` labels below `zone`, or `None`
/// when `qname` is not strictly below `zone`.
fn ancestor_below(qname: &Name, zone: &Name, below: usize) -> Option<Name> {
    if !qname.is_subdomain_of(zone) || qname == zone {
        return None;
    }
    let want = zone.label_count() + below;
    qname.ancestor(qname.label_count().saturating_sub(want))
}

/// dns-0x20: flip the case of each letter of `name` according to bits
/// derived deterministically from the name and the query id.
fn randomize_case(name: &Name, id: u16) -> Name {
    let mut bits = 0x9e37_79b9u32 ^ (id as u32) << 7;
    name.map_label_octets(|b| {
        bits = bits.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        if b.is_ascii_alphabetic() && bits & 0x10000 != 0 {
            b ^ 0x20
        } else {
            b
        }
    })
}

/// Cache TTL for an outcome: the minimum answer TTL, 300 s for negatives
/// (the lab zones' SOA minimum), 30 s for SERVFAIL (RFC 2308 §7 caps
/// failure caching at 5 minutes; resolvers commonly use far less).
fn answer_ttl(outcome: &ResolveOutcome) -> u32 {
    match outcome.rcode {
        Rcode::ServFail => 30,
        _ if outcome.answers.is_empty() => 300,
        _ => outcome
            .answers
            .iter()
            .map(|r| r.ttl)
            .min()
            .unwrap_or(300)
            .min(86_400),
    }
}
