//! The validating recursive resolver.
//!
//! Implements full iterative resolution — root hints, referrals with
//! glue, DS/DNSKEY chain building — and DNSSEC validation with the
//! RFC 9276 policy knobs applied exactly where real resolvers apply them:
//! the iteration limits before any NSEC3 proof work.
//!
//! The recursion never touches a network. It is `async` code that
//! yields a [`Want::Send`] at every upstream exchange and is resumed with
//! what came back ([`Exchanged`]); [`Recursion`] is that code as a value
//! any caller can feed bytes to, and `crate::net` is the adaptor that
//! feeds it from `netsim`.

use std::borrow::Borrow;
use std::cell::Cell;
use std::future::Future;
use std::hash::BuildHasher;
use std::net::IpAddr;
use std::ops::ControlFlow;
use std::pin::Pin;
use std::rc::Rc;

use dns_crypto::hash::KeyedState;
use dns_crypto::sha256::sha256;
use dns_wire::edns::EdeCode;
use dns_wire::message::{unframe_tcp, Message};
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::{Rcode, RrType};
use dns_zone::nsec3hash::Nsec3Params;
use netsim::event::Port;
use netsim::RetryPolicy;

use crate::aggressive::AggressiveCache;
use crate::cache::{no_records, SectionStore, TtlCache};
use crate::cost::{CostMeter, CostSnapshot};
use crate::delegation::{Delegation, DelegationCache};
pub use crate::net::RecursionStep;
use crate::policy::{LimitAction, Rfc9276Policy, WorkBudget};
use crate::validator::{
    self, parse_nsec3_set, validate_rrset, verify_nodata, verify_nxdomain,
    verify_wildcard_expansion, Nsec3View, ValidationError, ZoneKeys,
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
    /// Answer-cache capacity (entries); the per-zone caches (keys, cuts,
    /// RFC 8198 denial sets) hold `cache_size.min(512)`. 0 disables
    /// caching.
    pub cache_size: usize,
    /// RFC 8198 aggressive use of validated NSEC3: synthesize NXDOMAINs
    /// from cached, verified denial chains (costs hashing per query; see
    /// `crate::aggressive`).
    pub aggressive_nsec3: bool,
    /// Cache referral state per zone cut (`DelegationCache`) so warm
    /// resolutions restart at the deepest known cut instead of the root
    /// hints. Off by default so every calibrated probe driver keeps its
    /// historical query pattern; the serving and chain-study drivers
    /// turn it on.
    pub delegation_cache: bool,
    /// Per-client-query validator work budget (compressions + signature
    /// attempts). Each client query's meter is created with it and covers
    /// the whole recursion, CNAME chasing and key fetches included;
    /// unlimited by default so every calibrated experiment is untouched.
    pub budget: WorkBudget,
    /// How the resolver serves a client as a network node: plainly, or
    /// as one of the two rare behaviours §5.2 observed. Only the
    /// `Node` impl reads it; [`Resolver::resolve`] does not.
    pub quirk: Quirk,
}

/// A resolver node's serving behaviour (§5.2). The traffic has three
/// shapes, so this has three values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Quirk {
    /// A recursive resolver's reply: RA set, authorities and EDE relayed.
    #[default]
    Plain,
    /// The query-copying middlebox: it builds its reply from the query's
    /// header, so RA is set only if the *query* carried RA, and it relays
    /// no authority section and no EDE. The paper's copiers SERVFAIL
    /// from `it-1`, which is their policy's business, not the quirk's.
    QueryCopier,
    /// A resolver whose thresholds wobble between queries (the apparent
    /// item 12 violations): each query is resolved afresh, by a resolver
    /// with empty caches, under the phase policy for the node's
    /// served-query count, and the reply relays no authority section.
    FlakyGap {
        /// Insecure above this many iterations, in the phases that limit.
        insecure_above: u16,
        /// SERVFAIL above this many iterations, in the phases that limit.
        servfail_above: u16,
    },
}

impl ResolverConfig {
    /// A validating resolver with the given address, hints and anchor.
    pub fn validating(addr: IpAddr, root_hints: Vec<IpAddr>, anchor: TrustAnchor) -> Self {
        ResolverConfig {
            trust_anchors: vec![anchor],
            validate: true,
            ..Self::stub(addr, root_hints)
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
            cache_size: 4096,
            aggressive_nsec3: false,
            delegation_cache: false,
            budget: WorkBudget::unlimited(),
            quirk: Quirk::Plain,
        }
    }
}

/// The result the resolver hands to its client.
///
/// The record sections are immutable and shared: the answer cache and
/// every caller handed the same answer hold the same records, so a clone
/// of an outcome is two reference-count bumps, not a copy of a record.
/// Two outcomes of one caching resolver whose sections are equal octet
/// for octet share one allocation too.
#[derive(Clone, Debug)]
pub struct ResolveOutcome {
    /// Response code.
    pub rcode: Rcode,
    /// Whether the data was DNSSEC-authenticated (AD bit).
    pub authenticated: bool,
    /// Answer records.
    pub answers: Rc<[Record]>,
    /// Authority-section records relayed to the client (SOA, NSEC/NSEC3
    /// proofs) — the zdns-style census reads NSEC3 parameters from here.
    pub authorities: Rc<[Record]>,
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

    /// A SERVFAIL; its cost is filled in when the resolution finishes.
    fn servfail(ede: Option<(EdeCode, String)>) -> Self {
        ResolveOutcome {
            rcode: Rcode::ServFail,
            authenticated: false,
            answers: no_records(),
            authorities: no_records(),
            ede,
            budget_exceeded: false,
            cost: CostSnapshot::default(),
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

/// What a [`Recursion`] wants next from whoever drives it.
#[derive(Debug)]
pub enum Want {
    /// Carry `bytes` to `server` and feed back what came of it.
    Send {
        /// The upstream server.
        server: IpAddr,
        /// The query on the wire: one datagram, or RFC 7766
        /// length-framed for a stream after a truncated datagram reply.
        bytes: Vec<u8>,
    },
    /// The resolution finished with this outcome (already entered into
    /// the answer cache).
    Done(ResolveOutcome),
}

/// How a [`Want::Send`] travels: decides how its bytes are framed and
/// how the reply's are unframed.
#[derive(Clone, Copy)]
enum Transport {
    /// One datagram: every question's first try.
    Udp,
    /// RFC 7766 length framing, no size limit: the same query again after
    /// a truncated (TC) datagram reply.
    Tcp,
}

/// What one [`Want::Send`] came back with.
#[derive(Debug)]
pub struct Exchanged {
    /// Wire attempts the caller made (retries are the caller's; the
    /// meter counts them).
    pub attempts: u32,
    /// The reply, or why there is none.
    pub reply: Reply,
}

/// The end of one upstream exchange.
#[derive(Debug)]
pub enum Reply {
    /// These bytes came back (length-framed when the query was).
    Bytes(Vec<u8>),
    /// Every attempt went unanswered: spent loss budget.
    TimedOut,
    /// A definitive "no path" (wrong address family, unregistered
    /// server) that clean networks produce too, so not counted as loss.
    NoRoute,
}

/// A validating recursive resolver, usable directly (via
/// [`Resolver::resolve`]) or as a network [`netsim::Node`] serving clients.
pub struct Resolver {
    /// Configuration (public for inspection in experiments).
    pub config: ResolverConfig,
    /// The cost of every finished resolution, summed.
    total: Cell<CostSnapshot>,
    /// Query counter for deterministic message ids.
    next_id: Cell<u16>,
    /// Client queries served as a [`Quirk::FlakyGap`] node: the phase
    /// clock.
    pub(crate) served: Cell<usize>,
    /// Final-answer cache (RFC 2308-style negative caching included):
    /// outcomes with their cost zeroed — a hit costs nothing. Behind an
    /// `Rc` so the table's entries hold pointers, not whole outcomes; the
    /// record sections inside are the ones the miss handed its caller,
    /// taken from `sections`, so an insert copies no record, a hit
    /// allocates nothing, and the many NXDOMAINs that carry one proof
    /// hold it once.
    ///
    /// Keyed by the qname's wire key with the type after it
    /// ([`Name::with_wire_key`]).
    answer_cache: TtlCache<Box<[u8]>, Rc<ResolveOutcome>>,
    /// Every non-empty outcome section, held once: the records the
    /// answer cache's outcomes point into (none when `cache_size` is 0).
    sections: SectionStore,
    /// Validated DNSKEY sets per zone (the big recursion saver), keyed by
    /// the apex's wire key.
    key_cache: TtlCache<Box<[u8]>, Rc<ZoneKeys>>,
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
        // Caches with one entry per zone.
        let zones = cache_size.min(512);
        let delegation_capacity = if config.delegation_cache { zones } else { 0 };
        // Every table hashes under a key of this resolver's own.
        let hasher = KeyedState::new(KeyedState::default().hash_one(config.addr));
        Resolver {
            config,
            total: Cell::default(),
            next_id: Cell::new(1),
            served: Cell::new(0),
            answer_cache: TtlCache::new(cache_size, hasher),
            sections: SectionStore::new(cache_size > 0, hasher),
            key_cache: TtlCache::new(zones, hasher),
            delegations: DelegationCache::new(delegation_capacity, hasher),
            aggressive: AggressiveCache::new(zones, hasher),
        }
    }

    /// Cumulative cost across all finished resolutions.
    pub fn total_cost(&self) -> CostSnapshot {
        self.total.get()
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

    fn fresh_id(&self) -> u16 {
        let id = self.next_id.get().wrapping_add(1);
        self.next_id.set(id);
        id
    }

    /// Start resolving `qname`/`qtype` at `now_micros` (the caller's
    /// virtual clock) as a [`Recursion`] the caller feeds. An answer-cache
    /// hit or an RFC 8198 synthesis is decided here: that recursion
    /// finishes on its first [`Recursion::advance`] without asking for
    /// anything.
    pub fn recursion(&self, now_micros: u64, qname: &Name, qtype: RrType) -> Recursion<'_> {
        let settled = self.fast_path(now_micros, qname, qtype);
        let query = Rc::new(Query::new(&self.config.budget));
        let (own, qname) = (query.clone(), qname.clone());
        Recursion {
            resolver: self,
            query,
            future: Box::pin(async move {
                match settled {
                    Some(outcome) => outcome,
                    None => self.recurse(&own, &qname, qtype).await,
                }
            }),
            got: None,
        }
    }

    /// The answers ahead of any recursion, decided synchronously: an
    /// answer-cache hit, or an NXDOMAIN synthesized from a cached,
    /// verified NSEC3 chain (RFC 8198), which still pays its hashing.
    pub(crate) fn fast_path(
        &self,
        now_micros: u64,
        qname: &Name,
        qtype: RrType,
    ) -> Option<ResolveOutcome> {
        // One key for the answer cache, the zone lookup and synthesis:
        // the qname's wire form is the key without the type.
        qname.with_wire_key(&qtype.0.to_be_bytes(), |key| {
            if let Some(hit) = self.answer_cache.get(key, now_micros) {
                return Some((*hit).clone());
            }
            if !self.config.aggressive_nsec3 {
                return None;
            }
            self.synthesize(&key[..key.len() - 2], now_micros)
        })
    }

    /// An NXDOMAIN synthesized for the name whose wire key is `qname`
    /// from a cached, verified NSEC3 chain (RFC 8198), which still pays
    /// its hashing.
    fn synthesize(&self, qname: &[u8], now_micros: u64) -> Option<ResolveOutcome> {
        let zone_up = self.aggressive.zone_for(qname, now_micros)?;
        let meter = CostMeter::new();
        let synthesized = self
            .aggressive
            .synthesize_nxdomain(qname, zone_up, now_micros, &meter);
        // A synthesis that fails half-way hashed for this query too.
        self.total.set(self.total.get() + meter.snapshot());
        synthesized.then(|| ResolveOutcome {
            rcode: Rcode::NxDomain,
            authenticated: true,
            answers: no_records(),
            authorities: no_records(),
            ede: None,
            budget_exceeded: false,
            cost: meter.snapshot(),
        })
    }

    /// The recursion proper, from the first upstream question to the
    /// answer-cache insert: iterative walks, chasing an in-answer CNAME
    /// up to 8 hops. It waits on nothing but `query`'s port.
    pub(crate) async fn recurse(
        &self,
        query: &Query,
        qname: &Name,
        qtype: RrType,
    ) -> ResolveOutcome {
        let mut target = qname.clone();
        // The answers of every hop so far, filled only once a CNAME is
        // chased: an answer without one is the last hop's section as is.
        let mut chased = Vec::new();
        let mut hops = 0;
        let outcome = loop {
            let mut walk = match self.start_walk(query, &target).await {
                Ok(walk) => walk,
                Err(outcome) => break outcome,
            };
            let outcome = loop {
                let level = self.walk_level(query, &mut walk, &target, qtype).await;
                if let ControlFlow::Break(outcome) = level {
                    break outcome;
                }
            };
            let cname = outcome.answers.iter().find_map(|r| match &r.rdata {
                RData::Cname(next) if qtype != RrType::CNAME => Some(next.clone()),
                _ => None,
            });
            let has_final = outcome.answers.iter().any(|r| r.rrtype() == qtype);
            match cname {
                Some(next) if !has_final && outcome.rcode == Rcode::NoError => {
                    hops += 1;
                    if hops >= 8 {
                        break ResolveOutcome::servfail(None);
                    }
                    chased.extend_from_slice(&outcome.answers);
                    target = next;
                }
                _ if chased.is_empty() => break outcome,
                _ => {
                    chased.extend_from_slice(&outcome.answers);
                    break ResolveOutcome {
                        answers: self.sections.share(chased),
                        ..outcome
                    };
                }
            }
        };
        let outcome = ResolveOutcome {
            cost: query.meter.snapshot(),
            ..outcome
        };
        self.total.set(self.total.get() + outcome.cost);
        // The cache shares the outcome's sections (minus the cost): two
        // reference counts, no record copied.
        self.answer_cache.put(
            qname.wire_key(&qtype.0.to_be_bytes()),
            Rc::new(ResolveOutcome {
                cost: CostSnapshot::default(),
                ..outcome.clone()
            }),
            query.now.get(),
            answer_ttl(&outcome),
        );
        outcome
    }

    /// Ask `server` one question: a datagram first, and the same query
    /// again over "TCP" when that reply comes back truncated. The reply
    /// must echo the ID, QR and — in the sent dns-0x20 case exactly —
    /// the question.
    async fn ask(
        &self,
        query: &Query,
        server: IpAddr,
        qname: &Name,
        qtype: RrType,
    ) -> Option<Message> {
        let id = self.fresh_id();
        let msg = Message::query(id, randomize_case(qname, id), qtype);
        let mut resp = self.send(query, server, &msg, Transport::Udp).await?;
        if resp.flags.tc {
            resp = self.send(query, server, &msg, Transport::Tcp).await?;
        }
        if resp.id != id || !resp.flags.qr {
            return None;
        }
        // The echoed question must be the one asked — the name in the
        // sent case exactly, the type and the class; anything else is a
        // spoof, a mangler, or an answer to someone else's question.
        let (sent, echoed) = (&msg.questions[0], resp.question()?);
        let same = echoed.qname.wire_bytes() == sent.qname.wire_bytes()
            && (echoed.qtype, echoed.qclass) == (sent.qtype, sent.qclass);
        same.then_some(resp)
    }

    /// One exchange of `msg` with `server` over `transport`, metered:
    /// the bytes leave through `query`'s port and what comes back is
    /// decoded. `None` when nothing decodable came back.
    async fn send(
        &self,
        query: &Query,
        server: IpAddr,
        msg: &Message,
        transport: Transport,
    ) -> Option<Message> {
        let mut bytes = Vec::with_capacity(64);
        match transport {
            Transport::Udp => msg.encode_append(&mut bytes),
            Transport::Tcp => msg.encode_framed_append(&mut bytes),
        }
        query.meter.add_message();
        let got = query.exchange(server, bytes).await;
        query
            .meter
            .add_retries(u64::from(got.attempts.saturating_sub(1)));
        let payload = match got.reply {
            Reply::Bytes(payload) => payload,
            Reply::NoRoute => return None,
            Reply::TimedOut => {
                query.meter.add_timeout();
                return None;
            }
        };
        let wire = match transport {
            Transport::Udp => &payload[..],
            Transport::Tcp => unframe_tcp(&payload)?,
        };
        Message::decode(wire).ok()
    }

    /// Try every server in order until one responds.
    async fn ask_any(
        &self,
        query: &Query,
        servers: &[IpAddr],
        qname: &Name,
        qtype: RrType,
    ) -> Option<Message> {
        for &server in servers {
            if let Some(resp) = self.ask(query, server, qname, qtype).await {
                return Some(resp);
            }
        }
        None
    }

    /// Start one iterative walk for `target`: from the deepest cached
    /// delegation cut when one is usable, from the root hints otherwise.
    /// The `Err` arm is a settled [`ResolveOutcome`] handed straight to
    /// the caller; it is only built on terminal failures, so its size
    /// never taxes the happy path.
    #[allow(clippy::result_large_err)]
    async fn start_walk(&self, query: &Query, target: &Name) -> Result<Walk, ResolveOutcome> {
        // The deepest cached cut covering `target`; the delegation
        // cache's counters stay untouched when it is off.
        let cut = self
            .config
            .delegation_cache
            .then(|| self.delegations.deepest(target, query.now.get()));
        if let Some((apex, d)) = cut.flatten() {
            if !self.config.validate || !d.secure {
                return Ok(Walk::at(d.servers, apex, Chain::Insecure));
            }
            // Re-establish the secure chain at the cut: via the cut's
            // own anchor if one is configured, else by re-validating the
            // child keys against the DS set stored with the delegation
            // (a key-cache hit makes both free).
            if let Ok(keys) = self.zone_keys(query, &d.servers, &apex, &d.ds).await {
                return Ok(Walk::at(d.servers, apex, Chain::Secure(keys)));
            }
            // A cut whose chain no longer re-validates is abandoned and
            // the walk restarts from the root as if cold.
        }
        let servers = self.config.root_hints.clone();
        // No root anchor: the walk starts insecure, but a deeper anchor
        // may still establish an island of trust at its cut.
        let chain = if self.config.validate && self.anchor_for(&Name::root()).is_some() {
            let keys = self.zone_keys(query, &servers, &Name::root(), NO_DS).await;
            Chain::Secure(keys.map_err(|e| self.validation_failure(e))?)
        } else {
            Chain::Insecure
        };
        Ok(Walk::at(servers, Name::root(), chain))
    }

    /// One delegation level of the iterative walk: send the question,
    /// follow a referral — DS/DNSKEY chain work included — and continue,
    /// or break with the verdict on the authoritative answer.
    async fn walk_level(
        &self,
        query: &Query,
        walk: &mut Walk,
        qname: &Name,
        qtype: RrType,
    ) -> ControlFlow<ResolveOutcome> {
        let servfail = |ede| ControlFlow::Break(ResolveOutcome::servfail(ede));
        if walk.depth >= 24 {
            return servfail(None);
        }
        walk.depth += 1;
        let Some(resp) = self.ask_any(query, &walk.servers, qname, qtype).await else {
            return servfail(None);
        };
        // Referral: authority NS below current zone, not authoritative.
        let referral_cut = resp
            .authorities
            .iter()
            .find(|r| r.rrtype() == RrType::NS && r.name != walk.zone)
            .map(|r| r.name.clone())
            .filter(|_| resp.answers.is_empty() && resp.rcode == Rcode::NoError && !resp.flags.aa);
        let Some(cut) = referral_cut else {
            // Final response from the authoritative side.
            let outcome = self.finish(query, resp, qname, qtype, &walk.zone, &walk.chain);
            return ControlFlow::Break(outcome);
        };
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
            return servfail(None);
        }
        let (next_chain, validated_ds) = self
            .cut_chain(query, &walk.chain, &resp, &cut, &next_servers)
            .await
            .map_or_else(ControlFlow::Break, ControlFlow::Continue)?;
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
                query.now.get(),
                ttl,
            );
        }
        walk.servers = next_servers;
        walk.zone = cut;
        walk.chain = next_chain;
        ControlFlow::Continue(())
    }

    /// The chain state below the referral `resp` makes to `cut`, and the
    /// DS set that validated there, kept for the delegation cache (empty
    /// when the delegation is insecure or anchor-secured). `Err` is the
    /// SERVFAIL the walk ends with.
    #[allow(clippy::result_large_err)]
    async fn cut_chain(
        &self,
        query: &Query,
        parent: &Chain,
        resp: &Message,
        cut: &Name,
        servers: &[IpAddr],
    ) -> Result<(Chain, Vec<Record>), ResolveOutcome> {
        let refuse = |e| self.validation_failure(e);
        // An anchor configured for the child apex takes precedence over
        // the parent's DS set — this both enables islands of trust below
        // insecure parents and makes a mis-anchored cut fail as
        // AnchorMismatch instead of silently chaining on.
        if self.config.validate && self.anchor_for(cut).is_some() {
            let keys = self.zone_keys(query, servers, cut, NO_DS).await;
            return Ok((Chain::Secure(keys.map_err(refuse)?), Vec::new()));
        }
        let Chain::Secure(parent_keys) = parent else {
            return Ok((Chain::Insecure, Vec::new()));
        };
        let ds_records: Vec<&Record> = resp
            .authorities
            .iter()
            .filter(|r| r.rrtype() == RrType::DS && r.name == *cut)
            .collect();
        if ds_records.is_empty() {
            // No DS: the referral is a NODATA answer for (cut, DS), judged
            // as one. Proven or downgraded, the child is insecure; the
            // downgrade's EDE is the final answer's to attach, not this.
            let verdict = self.judge(&query.meter, resp, cut, RrType::DS, parent_keys);
            verdict.map_err(|refusal| self.refused(refusal))?;
            return Ok((Chain::Insecure, Vec::new()));
        }
        let sigs = rrsigs_at(&resp.authorities, cut);
        let now = self.config.now;
        validate_rrset(cut, &ds_records, &sigs, parent_keys, now, &query.meter).map_err(|e| {
            // Budget aborts keep their identity; every other DS failure
            // stays the generic bogus verdict it always was.
            refuse(if e == ValidationError::BudgetExceeded {
                e
            } else {
                ValidationError::BadSignature
            })
        })?;
        let keys = self.zone_keys(query, servers, cut, &ds_records).await;
        let keys = keys.map_err(refuse)?;
        let validated_ds = if self.config.delegation_cache {
            ds_records.into_iter().cloned().collect()
        } else {
            Vec::new()
        };
        Ok((Chain::Secure(keys), validated_ds))
    }

    /// Validate and classify the authoritative response, then hand its
    /// sections to the outcome: the records decoded from the wire are the
    /// records the client (and the answer cache) get, not copies of them.
    fn finish(
        &self,
        query: &Query,
        resp: Message,
        qname: &Name,
        qtype: RrType,
        zone: &Name,
        chain: &Chain,
    ) -> ResolveOutcome {
        let verdict = match chain {
            // No validation possible: relay as-is, never authenticated.
            Chain::Insecure => Ok(Relay::INSECURE),
            Chain::Secure(keys) => self.judge(&query.meter, &resp, qname, qtype, keys),
        };
        match verdict {
            Ok(relay) => {
                // RFC 8198: a verified denial chain of a final answer is
                // synthesis material (a referral's never is).
                if let (true, Some((params, views))) = (self.config.aggressive_nsec3, &relay.denial)
                {
                    self.aggressive
                        .insert(zone, params, views, query.now.get(), 300);
                }
                let mut answers = resp.answers;
                answers.retain(|r| r.rrtype() != RrType::RRSIG);
                ResolveOutcome {
                    rcode: resp.rcode,
                    authenticated: relay.authenticated,
                    answers: self.sections.share(answers),
                    authorities: self.sections.share(resp.authorities),
                    ede: relay.ede,
                    budget_exceeded: false,
                    cost: CostSnapshot::default(),
                }
            }
            Err(refusal) => self.refused(refusal),
        }
    }

    /// The SERVFAIL a refused response ends the resolution with.
    fn refused(&self, refusal: Refusal) -> ResolveOutcome {
        match refusal {
            Refusal::Limit => ResolveOutcome::servfail(self.limit_ede()),
            Refusal::Invalid(e) => self.validation_failure(e),
        }
    }

    /// Decide what to do with an authoritative response for `qname`/`qtype`
    /// from the zone `keys` belong to: relay it (authenticated or not) or
    /// refuse it. A referral without DS comes here too, as the NODATA
    /// answer for (cut, DS) it is.
    fn judge(
        &self,
        meter: &CostMeter,
        resp: &Message,
        qname: &Name,
        qtype: RrType,
        keys: &ZoneKeys,
    ) -> Result<Relay, Refusal> {
        // Gather NSEC3/NSEC material early: the limit check may shortcut.
        // NSEC3 of unknown hash is ignored (RFC 5155 §8.1), never insecure.
        let nsec3_refs: Vec<&Record> = resp
            .authorities
            .iter()
            .chain(resp.answers.iter())
            .filter(|r| r.rrtype() == RrType::NSEC3 && validator::usable(r))
            .collect();
        let parsed_nsec3 = (!nsec3_refs.is_empty())
            .then(|| parse_nsec3_set(&nsec3_refs))
            .transpose()?;
        let nsec_refs = || -> Vec<&Record> {
            let section = resp.authorities.iter();
            section.filter(|r| r.rrtype() == RrType::NSEC).collect()
        };

        // The RFC 9276 gate (items 6–8), ahead of any proof work.
        if let Some((params, _)) = &parsed_nsec3 {
            let policy = &self.config.policy;
            match policy.action_for(params.iterations, params.salt.len()) {
                LimitAction::Process => {}
                LimitAction::ServFail => return Err(Refusal::Limit),
                LimitAction::TreatInsecure => {
                    // Item 7: the downgrade must rest on *authenticated*
                    // NSEC3 parameters. A budget abort during that check
                    // keeps its identity; any other failure is the limit
                    // SERVFAIL.
                    if policy.verify_nsec3_rrsig {
                        self.validate_proof_sigs(meter, resp, keys)
                            .map_err(|e| match e {
                                ValidationError::BudgetExceeded => Refusal::Invalid(e),
                                _ => Refusal::Limit,
                            })?;
                    }
                    return Ok(Relay {
                        ede: self.limit_ede(),
                        ..Relay::INSECURE
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
            validate_rrset(owner, set, &sigs, keys, self.config.now, meter)?;
            // Wildcard expansion (labels < owner label count): the answer
            // needs its proof that `owner` itself does not exist — NSEC3
            // covering the next closer, else an NSEC covering `owner`.
            let Some(labels) = wildcard_labels(&sigs, owner, set[0].rrtype()) else {
                continue;
            };
            let proof = match &parsed_nsec3 {
                Some((params, views)) => self
                    .validate_proof_sigs(meter, resp, keys)
                    .and_then(|()| verify_wildcard_expansion(owner, labels, params, views, meter)),
                None => self
                    .validate_denial_sigs(meter, resp.authorities.iter(), RrType::NSEC, keys)
                    .and_then(|()| validator::nsec::verify_wildcard_expansion(owner, &nsec_refs())),
            };
            proof.map_err(|e| match e {
                ValidationError::BudgetExceeded => e,
                _ => ValidationError::BadDenialProof,
            })?;
        }
        if !sets.is_empty() {
            return Ok(Relay::SECURE);
        }

        // Negative answers: validate the denial.
        let Some((params, views)) = parsed_nsec3 else {
            // NSEC-based or proofless denial.
            let nsec_refs = nsec_refs();
            if nsec_refs.is_empty() {
                return Err(Refusal::Invalid(ValidationError::BadDenialProof));
            }
            self.validate_denial_sigs(meter, resp.authorities.iter(), RrType::NSEC, keys)?;
            match resp.rcode {
                Rcode::NxDomain => validator::nsec::verify_nxdomain(qname, &nsec_refs)?,
                _ => validator::nsec::verify_nodata(qname, qtype, &nsec_refs)?,
            }
            return Ok(Relay::SECURE);
        };
        self.validate_proof_sigs(meter, resp, keys)?;
        let zone = &keys.apex;
        match resp.rcode {
            Rcode::NxDomain => drop(verify_nxdomain(qname, zone, &params, &views, meter)?),
            _ => verify_nodata(qname, qtype, zone, &params, &views, meter)?,
        }
        Ok(Relay {
            denial: Some((params, views)),
            ..Relay::SECURE
        })
    }

    /// Verify the RRSIGs over every usable NSEC3 RRset in the response.
    fn validate_proof_sigs(
        &self,
        meter: &CostMeter,
        resp: &Message,
        keys: &ZoneKeys,
    ) -> Result<(), ValidationError> {
        let records = resp.authorities.iter().chain(&resp.answers);
        let usable = records.filter(|r| validator::usable(r));
        self.validate_denial_sigs(meter, usable, RrType::NSEC3, keys)
    }

    /// Verify, owner by owner, the `denial` (NSEC or NSEC3) RRsets among
    /// `records` against the RRSIGs found at the same owner.
    fn validate_denial_sigs<'r>(
        &self,
        meter: &CostMeter,
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
                meter,
            )?;
        }
        Ok(())
    }

    /// The configured trust anchor covering exactly `zone`'s apex, if any.
    fn anchor_for(&self, zone: &Name) -> Option<&TrustAnchor> {
        self.config.trust_anchors.iter().find(|a| a.zone == *zone)
    }

    /// `zone`'s DNSKEY set fetched from `servers` and validated, through
    /// the key cache. The trust anchor configured for `zone` vouches for
    /// it when there is one — it takes precedence — else the parent's
    /// `ds` set does. A served key set without the anchored key is
    /// [`ValidationError::AnchorMismatch`] — the mis-anchored-zone
    /// signal, kept distinct from on-path tampering verdicts.
    async fn zone_keys<R: Borrow<Record>>(
        &self,
        query: &Query,
        servers: &[IpAddr],
        zone: &Name,
        ds: &[R],
    ) -> Result<Rc<ZoneKeys>, ValidationError> {
        let cached = zone.with_wire_key(&[], |key| self.key_cache.get(key, query.now.get()));
        if let Some(keys) = cached {
            return Ok(keys);
        }
        let resp = self
            .ask_any(query, servers, zone, RrType::DNSKEY)
            .await
            .ok_or(ValidationError::MissingSignature)?;
        let dnskeys: Vec<&Record> = resp
            .answers
            .iter()
            .filter(|r| r.rrtype() == RrType::DNSKEY)
            .collect();
        // Does a served key carry this tag and this SHA-256 digest over
        // `owner | DNSKEY rdata`?
        let vouched = |tag: u16, digest: &[u8]| {
            dnskeys.iter().any(|dnskey| {
                let rdata = dnskey.rdata.canonical_bytes();
                dns_crypto::keytag::key_tag(&rdata) == tag && {
                    let mut buf = zone.to_canonical_wire();
                    buf.extend_from_slice(&rdata);
                    sha256(&buf)[..] == *digest
                }
            })
        };
        match self.anchor_for(zone) {
            Some(anchor) if !vouched(anchor.key_tag, &anchor.digest) => {
                return Err(ValidationError::AnchorMismatch)
            }
            Some(_) => {}
            None if dnskeys.is_empty() => return Err(ValidationError::MissingSignature),
            // One DNSKEY must match a DS digest.
            None => {
                let sep_ok = ds.iter().any(|ds| match &ds.borrow().rdata {
                    RData::Ds {
                        key_tag,
                        digest_type: 2,
                        digest,
                        ..
                    } => vouched(*key_tag, digest),
                    _ => false,
                });
                if !sep_ok {
                    return Err(ValidationError::BadSignature);
                }
            }
        }
        let keys = ZoneKeys::from_dnskeys(zone.clone(), &dnskeys);
        let sigs = rrsigs_at(&resp.answers, zone);
        validate_rrset(zone, &dnskeys, &sigs, &keys, self.config.now, &query.meter)?;
        let keys = Rc::new(keys);
        self.key_cache
            .put(zone.wire_key(&[]), keys.clone(), query.now.get(), 3600);
        Ok(keys)
    }

    /// SERVFAIL outcome for a validation error, carrying the EDE mapping
    /// and — crucially for the adversarial drivers — the budget flag when
    /// the error was a work-budget abort rather than a verdict on the data.
    fn validation_failure(&self, e: ValidationError) -> ResolveOutcome {
        let mut out = ResolveOutcome::servfail(self.ede_for(e));
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
        let policy = &self.config.policy;
        policy
            .emit_ede
            .then(|| (policy.ede_code, policy.ede_extra_text.clone()))
    }
}

/// The DS set of a zone whose trust anchor vouches for it instead.
const NO_DS: &[Record] = &[];

/// An authoritative response accepted for relay to the client.
struct Relay {
    /// Whether the AD bit is earned.
    authenticated: bool,
    /// EDE to attach (an RFC 9276 downgrade announces itself).
    ede: Option<(EdeCode, String)>,
    /// The NSEC3 denial chain the verdict verified, if it rested on one.
    denial: Option<(Nsec3Params, Vec<Nsec3View>)>,
}

impl Relay {
    const INSECURE: Relay = Relay {
        authenticated: false,
        ede: None,
        denial: None,
    };
    const SECURE: Relay = Relay {
        authenticated: true,
        ..Relay::INSECURE
    };
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
    /// Delegation levels executed on this walk (24 caps runaway loops).
    depth: usize,
}

impl Walk {
    fn at(servers: Vec<IpAddr>, zone: Name, chain: Chain) -> Self {
        Walk {
            servers,
            zone,
            chain,
            depth: 0,
        }
    }
}

/// One client query in flight: what its recursion shares with the caller
/// that drives it.
pub(crate) struct Query {
    /// Where the recursion waits: a [`Want::Send`] goes out, what came of
    /// it comes back (`None` only on the first resume).
    port: Port<Want, Option<Exchanged>>,
    /// The caller's clock (virtual µs), set with every input.
    now: Cell<u64>,
    /// This query's work, metered against its own budget.
    meter: CostMeter,
}

impl Query {
    pub(crate) fn new(budget: &WorkBudget) -> Self {
        Query {
            port: Port::default(),
            now: Cell::new(0),
            meter: CostMeter::with_budget(budget),
        }
    }

    /// Feed `got` — what the last [`Want::Send`] came back with, `None`
    /// on the first call — to `recursion` at `now_micros`, and run it to
    /// its next want.
    pub(crate) fn advance(
        &self,
        recursion: Pin<&mut dyn Future<Output = ResolveOutcome>>,
        now_micros: u64,
        got: Option<Exchanged>,
    ) -> Want {
        self.now.set(now_micros);
        match self.port.resume(recursion, got) {
            Ok(outcome) => Want::Done(outcome),
            Err(send) => send,
        }
    }

    /// Ask the caller to carry `bytes` to `server`; wait for what came back.
    async fn exchange(&self, server: IpAddr, bytes: Vec<u8>) -> Exchanged {
        let got = self.port.wait(Want::Send { server, bytes }).await;
        got.expect("a Want::Send is answered with what came of it")
    }
}

/// One client resolution as a value, without I/O: each
/// [`advance`](Recursion::advance) runs it to its next upstream exchange
/// ([`Want::Send`]) or to its answer ([`Want::Done`]), and the caller
/// carries the bytes — retries, backoff and the clock are the caller's.
/// The continuation at each exchange is the compiler's (the recursion is
/// `async` code), and each recursion meters its own work against its own
/// [`WorkBudget`], so any number may be in flight on one resolver.
pub struct Recursion<'a> {
    pub(crate) resolver: &'a Resolver,
    query: Rc<Query>,
    future: Pin<Box<dyn Future<Output = ResolveOutcome> + 'a>>,
    /// What the netsim adaptor's last exchange came back with.
    pub(crate) got: Option<Exchanged>,
}

impl Recursion<'_> {
    /// Feed the recursion `got` — what its last [`Want::Send`] came back
    /// with, `None` on the first call — at the caller's clock
    /// `now_micros`, and run it to its next want.
    ///
    /// # Panics
    ///
    /// Panics when a [`Want::Send`] is answered with `None`, or when
    /// called again after [`Want::Done`].
    pub fn advance(&mut self, now_micros: u64, got: Option<Exchanged>) -> Want {
        self.query.advance(self.future.as_mut(), now_micros, got)
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

#[cfg(test)]
impl Resolver {
    /// Zone cuts currently cached in the delegation cache.
    pub(crate) fn delegation_len(&self) -> usize {
        self.delegations.len()
    }

    /// Zones whose RFC 8198 denial sets are held.
    pub(crate) fn denial_sets(&self) -> usize {
        self.aggressive.zone_count()
    }

    /// Record sections the section store holds, and how many of them
    /// something else (a cached outcome) holds too.
    pub(crate) fn section_counts(&self) -> (usize, usize) {
        self.sections.counts()
    }
}
