//! A deterministic, event-driven simulated Internet.
//!
//! This crate substitutes for the live network in the *Zeros Are Heroes*
//! reproduction (DESIGN.md §2). It follows the smoltcp school of design:
//! synchronous, explicit, no hidden concurrency, with first-class fault
//! injection: a [`FaultSchedule`] of episodes (loss, corruption,
//! duplication, latency, outages, rate limits, partitions) whose every
//! decision is keyed by the flow it falls on.
//!
//! # Model
//!
//! * Every host is a [`Node`] registered under one or more [`std::net::IpAddr`]s.
//! * Communication is datagram request/response, like DNS over UDP: the
//!   sender calls [`Network::send_query`], the receiving node's
//!   [`Node::handle`] optionally returns a reply payload.
//! * A node handling a datagram may itself send queries through the same
//!   network (that is how the recursive resolver reaches authoritative
//!   servers). Cycles (a node querying itself) are detected and dropped.
//! * Time is virtual: a monotonic microsecond clock advanced by a fixed
//!   per-leg latency, fault episodes and timeouts. Runs are exactly
//!   reproducible for a given fault schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::pin::pin;
use std::rc::Rc;

use sim_rng::SplitMix64;

pub mod event;

use event::Port;

/// A host on the simulated network.
///
/// Implementations take `&self`; use interior mutability for state (query
/// logs, caches). This keeps the network re-entrant: a node may send
/// queries from inside `handle`.
pub trait Node {
    /// Handle a datagram sent to this node, appending any response to
    /// `reply` (which arrives empty: `send_query` hands each datagram a
    /// fresh `Vec::with_capacity(512)`, and that vector moves to the
    /// sender as the reply, so handlers encode straight into it with no
    /// intermediate buffer). Return `Some(())` to send `reply`'s
    /// contents back; `None` means no response (a timeout from the
    /// sender's perspective), and whatever was appended is discarded.
    fn handle(&self, net: &Network, src: IpAddr, payload: &[u8], reply: &mut Vec<u8>)
        -> Option<()>;
}

/// Which destinations a fault episode applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Every address.
    All,
    /// Exactly one address.
    Addr(IpAddr),
    /// An IPv4 prefix, `bits` leading bits.
    V4Prefix(Ipv4Addr, u8),
    /// An IPv6 prefix, `bits` leading bits.
    V6Prefix(Ipv6Addr, u8),
}

impl Scope {
    /// Does `ip` fall inside this scope?
    pub(crate) fn matches(&self, ip: IpAddr) -> bool {
        match (self, ip) {
            (Scope::All, _) => true,
            (Scope::Addr(a), ip) => *a == ip,
            (Scope::V4Prefix(p, bits), IpAddr::V4(v)) => {
                let bits = (*bits).min(32) as u32;
                if bits == 0 {
                    return true;
                }
                let mask = u32::MAX << (32 - bits);
                (u32::from(*p) & mask) == (u32::from(v) & mask)
            }
            (Scope::V6Prefix(p, bits), IpAddr::V6(v)) => {
                let bits = (*bits).min(128) as u32;
                if bits == 0 {
                    return true;
                }
                let mask = u128::MAX << (128 - bits);
                (u128::from(*p) & mask) == (u128::from(v) & mask)
            }
            _ => false,
        }
    }
}

/// What a fault episode does to traffic it matches.
#[derive(Clone, Debug)]
pub enum EpisodeKind {
    /// Destinations in `scope` are completely unreachable: every datagram
    /// toward them is silently dropped.
    Outage {
        /// Affected destinations.
        scope: Scope,
    },
    /// Destinations in `scope` lose each datagram with `drop_chance`
    /// probability. `Flap { scope: Scope::All, .. }` is plain random loss.
    Flap {
        /// Affected destinations.
        scope: Scope,
        /// Per-datagram loss probability in `[0, 1]`.
        drop_chance: f64,
    },
    /// A non-empty datagram toward `scope` arrives, with `chance`
    /// probability, with one bit of one octet flipped; the octet and the
    /// bit are hashed from the flow like the hit. A corrupted datagram
    /// is still a delivered one, and a leg takes at most one flip (the
    /// first matching `Corrupt` episode that hits).
    Corrupt {
        /// Affected destinations.
        scope: Scope,
        /// Per-datagram corruption probability in `[0, 1]`.
        chance: f64,
    },
    /// A request toward `scope` is delivered twice with `chance`
    /// probability (UDP duplication): the receiver's handler runs for
    /// each copy, so its side effects (query logs, counters) double,
    /// while the sender keeps the first reply — the failure mode that
    /// makes cache-busting probe names necessary. Reply legs are never
    /// duplicated.
    Duplicate {
        /// Affected destinations.
        scope: Scope,
        /// Per-request duplication probability in `[0, 1]`.
        chance: f64,
    },
    /// Deliveries toward `scope` take `extra_micros` longer, plus a
    /// seeded jitter in `[0, jitter_micros]`.
    LatencySpike {
        /// Affected destinations.
        scope: Scope,
        /// Fixed extra one-way delay in µs.
        extra_micros: u64,
        /// Upper bound on additional hash-derived jitter in µs.
        jitter_micros: u64,
    },
    /// Per-destination response-rate limiting: a token bucket holding
    /// `capacity` tokens, one regained every `refill_interval_micros`.
    /// A request toward a limited destination with an empty bucket is
    /// answered with silence (the datagram vanishes). Response legs are
    /// never limited — the model is an authoritative answering only so
    /// many queries per second.
    RateLimit {
        /// Affected destinations.
        scope: Scope,
        /// Bucket size (burst allowance).
        capacity: u64,
        /// Virtual µs to regain one token.
        refill_interval_micros: u64,
    },
    /// Traffic between `a` and `b` (either direction) is dropped; traffic
    /// inside each side is unaffected.
    Partition {
        /// One side of the cut.
        a: Scope,
        /// The other side.
        b: Scope,
    },
}

/// One virtual-time window during which an [`EpisodeKind`] is active.
#[derive(Clone, Debug)]
pub struct Episode {
    /// Virtual timestamp (µs) at which the episode starts (inclusive).
    pub from_micros: u64,
    /// Virtual timestamp (µs) at which it ends (exclusive).
    pub until_micros: u64,
    /// The fault applied while active.
    pub kind: EpisodeKind,
}

impl Episode {
    /// An episode active for the whole run.
    pub fn always(kind: EpisodeKind) -> Self {
        Episode {
            from_micros: 0,
            until_micros: u64::MAX,
            kind,
        }
    }

    /// An episode active in `[from_micros, until_micros)`.
    pub fn window(from_micros: u64, until_micros: u64, kind: EpisodeKind) -> Self {
        Episode {
            from_micros,
            until_micros,
            kind,
        }
    }

    fn active_at(&self, at: u64) -> bool {
        at >= self.from_micros && at < self.until_micros
    }
}

/// A full fault plan: time-scheduled [`Episode`]s, every decision
/// reproducible from `seed`, and one size rule.
///
/// Every probabilistic decision — a flap loss, a corruption's hit, octet
/// and bit, a duplicated request, latency jitter — hashes `seed` (salted
/// per kind) with the episode index, the flow's source and destination
/// and the flow's datagram counter. No decision depends on another
/// flow's traffic, so adding or removing an episode never perturbs
/// decisions made elsewhere, and a schedule replays identically wherever
/// the same flows occur.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    /// Seed for the hash-derived episode decisions.
    pub seed: u64,
    /// Time-scheduled fault episodes, evaluated in order.
    pub episodes: Vec<Episode>,
    /// Datagrams larger than this are dropped (an MTU-like rule, no draw).
    pub size_limit: Option<usize>,
}

impl FaultSchedule {
    /// True when this schedule can never touch a datagram: no episodes
    /// and no size limit. An inert schedule makes no flow-keyed
    /// decisions, so probe flows sharing a lab may interleave in any
    /// order without perturbing each other — the condition the event
    /// driver checks before opening its in-flight window past 1
    /// (DESIGN.md §8).
    pub fn is_inert(&self) -> bool {
        self.episodes.is_empty() && self.size_limit.is_none()
    }
}

/// Deterministic retry schedule for one query exchange: exponential
/// backoff with seeded jitter, bounded by an attempt count and an
/// optional virtual-time budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of attempts (at least 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in virtual µs. Doubles per retry.
    pub base_backoff_micros: u64,
    /// Upper bound on a single backoff interval.
    pub max_backoff_micros: u64,
    /// Upper bound on hash-derived jitter added to each backoff.
    pub jitter_micros: u64,
    /// Total virtual-time budget for the exchange (0 = unlimited): once
    /// this much virtual time has elapsed, no further attempts are made.
    pub budget_micros: u64,
    /// Seed for the deterministic jitter hash.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy that reproduces the legacy fixed-retry loop exactly:
    /// `attempts` tries, no backoff, no budget.
    pub fn fixed(attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: attempts.max(1),
            base_backoff_micros: 0,
            max_backoff_micros: 0,
            jitter_micros: 0,
            budget_micros: 0,
            seed: 0,
        }
    }

    /// The default adaptive policy used by the fault-aware scanners:
    /// 5 attempts, 250 ms base backoff doubling to a 4 s cap, 50 ms
    /// jitter, 30 s total budget.
    pub fn adaptive(seed: u64) -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_micros: 250_000,
            max_backoff_micros: 4_000_000,
            jitter_micros: 50_000,
            budget_micros: 30_000_000,
            seed,
        }
    }

    /// Backoff before retry number `retry` (1-based), jitter included.
    pub(crate) fn backoff_micros(&self, dst: IpAddr, retry: u32) -> u64 {
        let exp = retry.saturating_sub(1).min(32);
        let base = self
            .base_backoff_micros
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_micros.max(self.base_backoff_micros));
        let jitter = if self.jitter_micros == 0 {
            0
        } else {
            hash_mix(&[self.seed, addr_key(dst), retry as u64]) % (self.jitter_micros + 1)
        };
        base + jitter
    }
}

/// What one policy-driven exchange did, beyond its [`Outcome`]: how many
/// attempts were actually sent on the wire.
#[derive(Clone, Debug)]
pub struct ExchangeReport {
    /// Final outcome (first response, or the last failure).
    pub outcome: Outcome,
    /// Attempts actually made (at least one).
    pub attempts: u32,
}

/// One policy-driven exchange of `payload` from `src` to `dst`, the only
/// implementation of the retry semantics: an attempt; a stop on a
/// response, on no route, after the last attempt or once the budget
/// counted from the first attempt is spent; else a wait on `port` until
/// the backoff is due. [`Network::send_query_with_policy`] drives it
/// blocking; a flow on the event core awaits it and parks there instead.
pub async fn exchange(
    net: &Network,
    src: IpAddr,
    dst: IpAddr,
    payload: &[u8],
    policy: &RetryPolicy,
    port: &Port<u64, ()>,
) -> ExchangeReport {
    let start = net.now_micros();
    let mut attempts = 0;
    loop {
        attempts += 1;
        let outcome = net.send_query(src, dst, payload);
        if matches!(outcome, Outcome::Response { .. } | Outcome::NoRoute)
            || attempts >= policy.max_attempts.max(1)
            || (policy.budget_micros > 0
                && net.now_micros().saturating_sub(start) >= policy.budget_micros)
        {
            return ExchangeReport { outcome, attempts };
        }
        let backoff = policy.backoff_micros(dst, attempts);
        port.wait(net.now_micros().saturating_add(backoff)).await;
    }
}

/// Fold an address into a hashable word.
fn addr_key(ip: IpAddr) -> u64 {
    match ip {
        IpAddr::V4(v) => u64::from(u32::from(v)),
        IpAddr::V6(v) => {
            let x = u128::from(v);
            (x as u64) ^ ((x >> 64) as u64) ^ 0x6c62_272e_07bb_0142
        }
    }
}

/// Deterministic mixing of several words into one, via chained SplitMix64
/// steps. Used for every hash-derived fault decision.
fn hash_mix(parts: &[u64]) -> u64 {
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    for &p in parts {
        acc = SplitMix64::new(acc ^ p).next_u64();
    }
    acc
}

/// Does hash word `h`, read as a point of `[0, 1)`, fall under `chance`?
fn hits(h: u64, chance: f64) -> bool {
    ((h >> 11) as f64 / (1u64 << 53) as f64) < chance
}

/// Outcome of one query exchange.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// A response arrived.
    Response {
        /// The reply payload.
        payload: Vec<u8>,
        /// Round-trip time in virtual microseconds.
        rtt_micros: u64,
    },
    /// The query or the response was lost, or the responder stayed silent;
    /// the sender sees a timeout.
    Timeout,
    /// No node is registered at the destination address.
    NoRoute,
}

/// One-way delivery time of a datagram: 5 ms at each end.
const LEG_LATENCY_MICROS: u64 = 10_000;

/// The simulated Internet.
pub struct Network {
    nodes: RefCell<HashMap<IpAddr, Rc<dyn Node>>>,
    schedule: RefCell<FaultSchedule>,
    /// Per-(src, dst) datagram counter; feeds the hash behind every
    /// episode decision, so decisions replay identically for a given
    /// flow regardless of what other flows exist.
    flow_seq: RefCell<HashMap<(IpAddr, IpAddr), u64>>,
    /// Token buckets for `RateLimit` episodes, keyed by (episode index,
    /// destination).
    buckets: RefCell<HashMap<(usize, IpAddr), Bucket>>,
    clock: Cell<u64>,
    in_flight: RefCell<Vec<IpAddr>>,
    delivered: Cell<u64>,
    lost: Cell<u64>,
}

/// Token-bucket state for one rate-limited destination.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: u64,
    last_refill_micros: u64,
}

/// Salts of the per-kind decision hashes (`Flap` hashes the bare seed).
const JITTER_SALT: u64 = 0x1a7e;
const CORRUPT_SALT: u64 = 0xc0_4409;
const DUPLICATE_SALT: u64 = 0xd0_0b1e;

impl Network {
    /// A fault-free network. The seed decides no fault: every fault
    /// decision hashes the installed [`FaultSchedule`]'s own seed with the
    /// flow, so two networks given different seeds carry the same traffic
    /// identically.
    pub fn new(_seed: u64) -> Self {
        Network {
            nodes: RefCell::new(HashMap::new()),
            schedule: RefCell::new(FaultSchedule::default()),
            flow_seq: RefCell::new(HashMap::new()),
            buckets: RefCell::new(HashMap::new()),
            clock: Cell::new(0),
            in_flight: RefCell::new(Vec::new()),
            delivered: Cell::new(0),
            lost: Cell::new(0),
        }
    }

    /// Install a full [`FaultSchedule`], replacing the previous one; flow
    /// counters and token buckets start fresh.
    pub fn set_schedule(&self, schedule: FaultSchedule) {
        *self.schedule.borrow_mut() = schedule;
        self.flow_seq.borrow_mut().clear();
        self.buckets.borrow_mut().clear();
    }

    /// Register `node` at `addr`. A node may hold many addresses
    /// (dual-stack hosts register twice). Returns `false` if the address
    /// was already taken.
    pub fn register(&self, addr: IpAddr, node: Rc<dyn Node>) -> bool {
        use std::collections::hash_map::Entry;
        match self.nodes.borrow_mut().entry(addr) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(node);
                true
            }
        }
    }

    /// Remove the node at `addr`.
    pub fn unregister(&self, addr: IpAddr) {
        self.nodes.borrow_mut().remove(&addr);
    }

    /// Is anything registered at `addr`?
    pub fn is_registered(&self, addr: IpAddr) -> bool {
        self.nodes.borrow().contains_key(&addr)
    }

    /// Current virtual time in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.clock.get()
    }

    /// Advance the virtual clock (rate limiters and schedulers use this to
    /// model pacing without wall-clock sleeps).
    pub fn advance(&self, micros: u64) {
        self.clock.set(self.clock.get() + micros);
    }

    /// Bring the virtual clock up to `due_micros`; a due time already
    /// in the past leaves it alone (the clock never runs backwards).
    /// This is how a blocking caller waits out a backoff and how an
    /// event-driven flow catches its lab up to the event it was woken
    /// for.
    pub fn advance_to(&self, due_micros: u64) {
        self.clock.set(self.clock.get().max(due_micros));
    }

    /// Datagrams delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered.get()
    }

    /// Datagrams lost (all causes) so far.
    pub fn lost_count(&self) -> u64 {
        self.lost.get()
    }

    /// Send `payload` from `src` to `dst` and wait (virtually) for the
    /// response.
    pub fn send_query(&self, src: IpAddr, dst: IpAddr, payload: &[u8]) -> Outcome {
        let start = self.clock.get();
        let fate = match self.transmit(src, dst, payload, true) {
            Leg::Delivered(fate) => fate,
            Leg::Lost => return self.timeout(),
            Leg::NoRoute => return Outcome::NoRoute,
        };
        let Some(node) = self.nodes.borrow().get(&dst).cloned() else {
            return Outcome::NoRoute;
        };
        // The handler borrows the sender's payload directly; only a
        // corrupted delivery needs its own copy.
        let corrupted;
        let datagram: &[u8] = match fate.corrupt {
            Some((idx, mask)) => {
                let mut v = payload.to_vec();
                v[idx] ^= mask;
                corrupted = v;
                &corrupted
            }
            None => payload,
        };
        self.in_flight.borrow_mut().push(dst);
        let mut reply = Vec::with_capacity(512);
        let answered = node.handle(self, src, datagram, &mut reply);
        if fate.duplicate {
            // The duplicate's reply is dropped; its side effects (logs,
            // counters) are not.
            let _ = node.handle(self, src, datagram, &mut Vec::with_capacity(512));
        }
        self.in_flight.borrow_mut().pop();
        if answered.is_none() {
            return self.timeout();
        }
        // The response leg flows back to a waiting socket, not a
        // registered node: no routing check.
        match self.transmit(dst, src, &reply, false) {
            Leg::Delivered(fate) => {
                if let Some((idx, mask)) = fate.corrupt {
                    reply[idx] ^= mask;
                }
                // The reply buffer moves to the caller whole: the
                // handler's bytes are never copied per hop.
                Outcome::Response {
                    payload: reply,
                    rtt_micros: self.clock.get() - start,
                }
            }
            _ => self.timeout(),
        }
    }

    /// Policy-driven exchange: [`exchange`] run to its report on the
    /// calling thread, the virtual clock advanced across each backoff.
    pub fn send_query_with_policy(
        &self,
        src: IpAddr,
        dst: IpAddr,
        payload: &[u8],
        policy: &RetryPolicy,
    ) -> ExchangeReport {
        let port = Port::default();
        let mut flow = pin!(exchange(self, src, dst, payload, policy, &port));
        loop {
            match port.resume(flow.as_mut(), ()) {
                Ok(report) => return report,
                Err(at_micros) => self.advance_to(at_micros),
            }
        }
    }

    /// A lost exchange costs the sender a timeout (2 s of virtual time —
    /// a typical stub retry interval).
    fn timeout(&self) -> Outcome {
        self.clock.set(self.clock.get() + 2_000_000);
        Outcome::Timeout
    }

    /// Put one leg on the wire. A request leg (`request_leg`) needs a
    /// registered destination not already handling a datagram (a handler
    /// loop is dropped); a reply leg returns to a waiting socket.
    fn transmit(&self, src: IpAddr, dst: IpAddr, payload: &[u8], request_leg: bool) -> Leg {
        let at = self.clock.get();
        let schedule = self.schedule.borrow();
        if schedule
            .size_limit
            .is_some_and(|limit| payload.len() > limit)
        {
            self.lost.set(self.lost.get() + 1);
            return Leg::Lost;
        }
        if request_leg && !self.nodes.borrow().contains_key(&dst) {
            return Leg::NoRoute;
        }
        let looped = request_leg && self.in_flight.borrow().contains(&dst);
        let fate = if looped {
            None
        } else {
            self.fate(&schedule, src, dst, at, request_leg, payload.len())
        };
        let Some(fate) = fate else {
            self.lost.set(self.lost.get() + 1);
            return Leg::Lost;
        };
        self.clock.set(at + LEG_LATENCY_MICROS + fate.extra_micros);
        self.delivered.set(self.delivered.get() + 1);
        Leg::Delivered(fate)
    }

    /// What the active episodes of `schedule` do to one datagram of `len`
    /// octets, or `None` when one of them kills it. Every probabilistic
    /// decision hashes the schedule seed (salted per kind) with the
    /// episode index, both endpoints and the per-(src, dst) flow counter.
    fn fate(
        &self,
        schedule: &FaultSchedule,
        src: IpAddr,
        dst: IpAddr,
        at: u64,
        request_leg: bool,
        len: usize,
    ) -> Option<Fate> {
        let mut fate = Fate::default();
        if schedule.episodes.is_empty() {
            return Some(fate);
        }
        let seq = {
            let mut flows = self.flow_seq.borrow_mut();
            let counter = flows.entry((src, dst)).or_insert(0);
            let seq = *counter;
            *counter += 1;
            seq
        };
        let flow_hash = |salt: u64, idx: usize| {
            hash_mix(&[
                schedule.seed ^ salt,
                idx as u64,
                addr_key(src),
                addr_key(dst),
                seq,
            ])
        };
        for (idx, episode) in schedule.episodes.iter().enumerate() {
            if !episode.active_at(at) {
                continue;
            }
            match &episode.kind {
                EpisodeKind::Outage { scope } => {
                    if scope.matches(dst) {
                        return None;
                    }
                }
                EpisodeKind::Flap { scope, drop_chance } => {
                    if scope.matches(dst) && hits(flow_hash(0, idx), *drop_chance) {
                        return None;
                    }
                }
                EpisodeKind::Corrupt { scope, chance } => {
                    if fate.corrupt.is_none() && len > 0 && scope.matches(dst) {
                        let h = flow_hash(CORRUPT_SALT, idx);
                        if hits(h, *chance) {
                            // The octet from `pick` modulo the length, the
                            // bit from its top three bits.
                            let pick = hash_mix(&[h]);
                            fate.corrupt = Some(((pick % len as u64) as usize, 1 << (pick >> 61)));
                        }
                    }
                }
                EpisodeKind::Duplicate { scope, chance } => {
                    if request_leg
                        && scope.matches(dst)
                        && hits(flow_hash(DUPLICATE_SALT, idx), *chance)
                    {
                        fate.duplicate = true;
                    }
                }
                EpisodeKind::LatencySpike {
                    scope,
                    extra_micros,
                    jitter_micros,
                } => {
                    if scope.matches(dst) {
                        let jitter = if *jitter_micros == 0 {
                            0
                        } else {
                            flow_hash(JITTER_SALT, idx) % (*jitter_micros + 1)
                        };
                        fate.extra_micros = fate.extra_micros.saturating_add(extra_micros + jitter);
                    }
                }
                EpisodeKind::RateLimit {
                    scope,
                    capacity,
                    refill_interval_micros,
                } => {
                    // Responses flow back to a waiting socket; only
                    // requests consume the destination's answer budget.
                    if request_leg && scope.matches(dst) {
                        let interval = (*refill_interval_micros).max(1);
                        let mut buckets = self.buckets.borrow_mut();
                        let bucket = buckets.entry((idx, dst)).or_insert(Bucket {
                            tokens: *capacity,
                            last_refill_micros: at,
                        });
                        let refills = at.saturating_sub(bucket.last_refill_micros) / interval;
                        if refills > 0 {
                            bucket.tokens = bucket.tokens.saturating_add(refills).min(*capacity);
                            bucket.last_refill_micros += refills * interval;
                        }
                        if bucket.tokens == 0 {
                            return None;
                        }
                        bucket.tokens -= 1;
                    }
                }
                EpisodeKind::Partition { a, b } => {
                    if (a.matches(src) && b.matches(dst)) || (b.matches(src) && a.matches(dst)) {
                        return None;
                    }
                }
            }
        }
        Some(fate)
    }
}

/// What the episodes did to one delivered datagram.
#[derive(Default)]
struct Fate {
    /// Extra one-way latency in µs.
    extra_micros: u64,
    /// The receiver XORs `mask` into octet `idx`.
    corrupt: Option<(usize, u8)>,
    /// A request leg the receiver handles twice.
    duplicate: bool,
}

enum Leg {
    Delivered(Fate),
    Lost,
    NoRoute,
}

/// Sequential allocator for unique simulation addresses.
#[derive(Clone, Debug)]
pub struct AddrAlloc {
    next_v4: u32,
    next_v6: u128,
}

impl Default for AddrAlloc {
    fn default() -> Self {
        Self::new()
    }
}

impl AddrAlloc {
    /// Allocate from `10.0.0.0/8` and `fd00::/8`.
    pub fn new() -> Self {
        AddrAlloc {
            next_v4: u32::from(Ipv4Addr::new(10, 0, 0, 1)),
            next_v6: u128::from_be_bytes([0xfd, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
        }
    }

    /// Next unique IPv4 address.
    pub fn v4(&mut self) -> IpAddr {
        let addr = Ipv4Addr::from(self.next_v4);
        self.next_v4 += 1;
        IpAddr::V4(addr)
    }

    /// Next unique IPv6 address.
    pub fn v6(&mut self) -> IpAddr {
        let addr = Ipv6Addr::from(self.next_v6);
        self.next_v6 += 1;
        IpAddr::V6(addr)
    }

    /// Advance the IPv4 sequence by `n` without handing out addresses.
    /// Parallel shards use this to pre-skip the allocations earlier
    /// shards perform, so every consumer receives the same address no
    /// matter how the work list is sharded.
    pub fn skip_v4(&mut self, n: u32) {
        self.next_v4 += n;
    }

    /// Advance the IPv6 sequence by `n` without handing out addresses.
    pub fn skip_v6(&mut self, n: u128) {
        self.next_v6 += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that echoes the payload reversed.
    struct Echo;
    impl Node for Echo {
        fn handle(
            &self,
            _net: &Network,
            _src: IpAddr,
            payload: &[u8],
            reply: &mut Vec<u8>,
        ) -> Option<()> {
            reply.extend(payload.iter().rev());
            Some(())
        }
    }

    /// A node that forwards to another address and relays the reply.
    struct Relay {
        target: IpAddr,
        own: IpAddr,
    }
    impl Node for Relay {
        fn handle(
            &self,
            net: &Network,
            _src: IpAddr,
            payload: &[u8],
            reply: &mut Vec<u8>,
        ) -> Option<()> {
            match net.send_query(self.own, self.target, payload) {
                Outcome::Response { payload, .. } => {
                    reply.extend_from_slice(&payload);
                    Some(())
                }
                _ => None,
            }
        }
    }

    /// A node that never answers.
    struct Silent;
    impl Node for Silent {
        fn handle(
            &self,
            _net: &Network,
            _src: IpAddr,
            _payload: &[u8],
            _reply: &mut Vec<u8>,
        ) -> Option<()> {
            None
        }
    }

    fn addr(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
    }

    fn always(kind: EpisodeKind) -> FaultSchedule {
        FaultSchedule {
            episodes: vec![Episode::always(kind)],
            ..Default::default()
        }
    }

    #[test]
    fn echo_roundtrip_advances_clock() {
        let net = Network::new(1);
        net.register(addr(2), Rc::new(Echo));
        let out = net.send_query(addr(1), addr(2), b"hello");
        match out {
            Outcome::Response {
                payload,
                rtt_micros,
            } => {
                assert_eq!(payload, b"olleh");
                assert_eq!(rtt_micros, 2 * 2 * 5_000); // two legs, 5ms+5ms each
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(net.delivered_count(), 2);
    }

    #[test]
    fn no_route() {
        let net = Network::new(1);
        assert_eq!(net.send_query(addr(1), addr(9), b"x"), Outcome::NoRoute);
    }

    #[test]
    fn silent_node_times_out() {
        let net = Network::new(1);
        net.register(addr(2), Rc::new(Silent));
        let before = net.now_micros();
        assert_eq!(net.send_query(addr(1), addr(2), b"x"), Outcome::Timeout);
        assert!(net.now_micros() > before);
    }

    #[test]
    fn relay_reaches_target_through_intermediate() {
        let net = Network::new(1);
        net.register(addr(3), Rc::new(Echo));
        net.register(
            addr(2),
            Rc::new(Relay {
                target: addr(3),
                own: addr(2),
            }),
        );
        let out = net.send_query(addr(1), addr(2), b"ab");
        assert!(matches!(out, Outcome::Response { payload, .. } if payload == b"ba"));
    }

    #[test]
    fn loop_is_dropped_not_stack_overflowed() {
        let net = Network::new(1);
        // A relay that forwards to itself.
        net.register(
            addr(2),
            Rc::new(Relay {
                target: addr(2),
                own: addr(2),
            }),
        );
        assert_eq!(net.send_query(addr(1), addr(2), b"x"), Outcome::Timeout);
    }

    #[test]
    fn full_drop_rate_loses_everything() {
        let net = Network::new(1);
        net.register(addr(2), Rc::new(Echo));
        net.set_schedule(always(EpisodeKind::Flap {
            scope: Scope::All,
            drop_chance: 1.0,
        }));
        assert_eq!(net.send_query(addr(1), addr(2), b"x"), Outcome::Timeout);
        assert_eq!(net.lost_count(), 1);
    }

    #[test]
    fn advance_to_never_moves_the_clock_backwards() {
        let net = Network::new(42);
        net.advance_to(5_000);
        assert_eq!(net.now_micros(), 5_000);
        net.advance_to(1_000);
        assert_eq!(net.now_micros(), 5_000, "a due time in the past is a no-op");
        net.advance_to(5_000);
        assert_eq!(net.now_micros(), 5_000);
        net.advance(10);
        net.advance_to(u64::MAX);
        assert_eq!(net.now_micros(), u64::MAX);
    }

    #[test]
    fn retries_can_survive_partial_loss() {
        let net = Network::new(42);
        net.register(addr(2), Rc::new(Echo));
        net.set_schedule(always(EpisodeKind::Flap {
            scope: Scope::All,
            drop_chance: 0.5,
        }));
        let mut got = 0;
        for _ in 0..50 {
            let report =
                net.send_query_with_policy(addr(1), addr(2), b"x", &RetryPolicy::fixed(10));
            if let Outcome::Response { .. } = report.outcome {
                got += 1;
            }
        }
        assert!(got >= 45, "retries should mask most loss, got {got}/50");
    }

    #[test]
    fn corruption_changes_exactly_one_bit() {
        let net = Network::new(7);
        net.register(addr(2), Rc::new(Echo));
        net.set_schedule(always(EpisodeKind::Corrupt {
            scope: Scope::All,
            chance: 1.0,
        }));
        let out = net.send_query(addr(1), addr(2), b"aaaa");
        // Both legs corrupt one bit each; the reversed reply differs from
        // clean "aaaa" in at most 2 bits.
        let Outcome::Response { payload, .. } = out else {
            panic!("{out:?}");
        };
        let diff: u32 = payload
            .iter()
            .zip(b"aaaa".iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!((1..=2).contains(&diff), "diff {diff}");
    }

    #[test]
    fn size_limit_drops_large_datagrams() {
        let net = Network::new(1);
        net.register(addr(2), Rc::new(Echo));
        net.set_schedule(FaultSchedule {
            size_limit: Some(4),
            ..Default::default()
        });
        assert_eq!(net.send_query(addr(1), addr(2), b"small"), Outcome::Timeout);
        assert!(matches!(
            net.send_query(addr(1), addr(2), b"ok"),
            Outcome::Response { .. }
        ));
    }

    #[test]
    fn outage_episode_window_controls_reachability() {
        let net = Network::new(1);
        net.register(addr(2), Rc::new(Echo));
        net.set_schedule(FaultSchedule {
            episodes: vec![Episode::window(
                1_000_000,
                50_000_000,
                EpisodeKind::Outage {
                    scope: Scope::Addr(addr(2)),
                },
            )],
            ..Default::default()
        });
        // Before the window: reachable.
        assert!(matches!(
            net.send_query(addr(1), addr(2), b"x"),
            Outcome::Response { .. }
        ));
        net.advance(2_000_000);
        // Inside the window: silence.
        assert_eq!(net.send_query(addr(1), addr(2), b"x"), Outcome::Timeout);
        let trace_free = net.send_query(addr(1), addr(3), b"x");
        assert_eq!(trace_free, Outcome::NoRoute, "other dsts unaffected");
        // After the window: recovered.
        while net.now_micros() < 50_000_000 {
            net.advance(10_000_000);
        }
        assert!(matches!(
            net.send_query(addr(1), addr(2), b"x"),
            Outcome::Response { .. }
        ));
    }

    /// What the flow from `addr(1)` to `addr(2)` sees over 40 exchanges
    /// under `schedule` — each reply (`None` for a timeout) and the
    /// handler runs behind them — with or without another flow's traffic
    /// in between.
    fn flow_view(
        schedule: FaultSchedule,
        net_seed: u64,
        extra_traffic: bool,
    ) -> (Vec<Option<Vec<u8>>>, u64) {
        let net = Network::new(net_seed);
        let counter = Rc::new(Counter(Cell::new(0)));
        net.register(addr(2), counter.clone());
        net.register(addr(3), Rc::new(Echo));
        net.set_schedule(schedule);
        let replies = (0..40)
            .map(|i| {
                if extra_traffic && i % 3 == 0 {
                    // Unrelated flow: must not shift addr(2)'s decisions.
                    let _ = net.send_query(addr(1), addr(3), b"noise");
                }
                match net.send_query(addr(1), addr(2), b"payload") {
                    Outcome::Response { payload, .. } => Some(payload),
                    _ => None,
                }
            })
            .collect();
        (replies, counter.0.get())
    }

    #[test]
    fn flap_decisions_replay_per_flow_not_per_network_history() {
        let flap = || FaultSchedule {
            seed: 77,
            episodes: vec![Episode::always(EpisodeKind::Flap {
                scope: Scope::Addr(addr(2)),
                drop_chance: 0.5,
            })],
            ..Default::default()
        };
        let seeded = |kind| FaultSchedule {
            seed: 77,
            ..always(kind)
        };
        let clean = flow_view(FaultSchedule::default(), 9, false);
        for (kind, schedule) in [
            ("flap", flap()),
            (
                "corrupt",
                seeded(EpisodeKind::Corrupt {
                    scope: Scope::All,
                    chance: 0.5,
                }),
            ),
            (
                "duplicate",
                seeded(EpisodeKind::Duplicate {
                    scope: Scope::All,
                    chance: 0.5,
                }),
            ),
        ] {
            let quiet = flow_view(schedule.clone(), 9, false);
            assert_eq!(
                quiet,
                flow_view(schedule, 9, true),
                "{kind} decisions are flow-keyed"
            );
            assert_ne!(quiet, clean, "{kind} touches some exchanges");
        }
        let (flapped, _) = flow_view(flap(), 9, false);
        assert!(flapped.iter().any(Option::is_some) && flapped.iter().any(Option::is_none));
        // A different schedule seed flips some decisions.
        assert_ne!(
            flow_view(flap(), 9, false),
            flow_view(FaultSchedule { seed: 78, ..flap() }, 9, false)
        );
    }

    #[test]
    fn latency_spike_slows_matching_destinations() {
        let net = Network::new(1);
        net.register(addr(2), Rc::new(Echo));
        net.register(addr(3), Rc::new(Echo));
        net.set_schedule(FaultSchedule {
            episodes: vec![Episode::always(EpisodeKind::LatencySpike {
                scope: Scope::Addr(addr(2)),
                extra_micros: 100_000,
                jitter_micros: 0,
            })],
            ..Default::default()
        });
        // Only the request leg matches dst = addr(2).
        match net.send_query(addr(1), addr(2), b"x") {
            Outcome::Response { rtt_micros, .. } => assert_eq!(rtt_micros, 20_000 + 100_000),
            other => panic!("{other:?}"),
        }
        match net.send_query(addr(1), addr(3), b"x") {
            Outcome::Response { rtt_micros, .. } => assert_eq!(rtt_micros, 20_000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rate_limit_answers_burst_then_goes_silent_then_refills() {
        let net = Network::new(1);
        net.register(addr(2), Rc::new(Echo));
        net.set_schedule(FaultSchedule {
            episodes: vec![Episode::always(EpisodeKind::RateLimit {
                scope: Scope::Addr(addr(2)),
                capacity: 3,
                refill_interval_micros: 60_000_000,
            })],
            ..Default::default()
        });
        let mut answered = 0;
        for _ in 0..5 {
            if matches!(
                net.send_query(addr(1), addr(2), b"x"),
                Outcome::Response { .. }
            ) {
                answered += 1;
            }
        }
        assert_eq!(answered, 3, "burst capacity, then silence");
        net.advance(120_000_000); // two refill intervals
        let mut recovered = 0;
        for _ in 0..3 {
            if matches!(
                net.send_query(addr(1), addr(2), b"x"),
                Outcome::Response { .. }
            ) {
                recovered += 1;
            }
        }
        assert_eq!(recovered, 2, "tokens regained at the refill rate");
    }

    #[test]
    fn partition_cuts_both_directions_but_not_inside() {
        let net = Network::new(1);
        net.register(addr(2), Rc::new(Echo));
        net.register(addr(12), Rc::new(Echo));
        let left = Scope::V4Prefix(Ipv4Addr::new(10, 0, 0, 0), 29); // .0-.7
        let right = Scope::V4Prefix(Ipv4Addr::new(10, 0, 0, 8), 29); // .8-.15
        net.set_schedule(FaultSchedule {
            episodes: vec![Episode::always(EpisodeKind::Partition {
                a: left,
                b: right,
            })],
            ..Default::default()
        });
        assert_eq!(
            net.send_query(addr(1), addr(12), b"x"),
            Outcome::Timeout,
            "across the cut"
        );
        assert_eq!(
            net.send_query(addr(9), addr(2), b"x"),
            Outcome::Timeout,
            "reverse direction"
        );
        assert!(
            matches!(
                net.send_query(addr(1), addr(2), b"x"),
                Outcome::Response { .. }
            ),
            "same side unaffected"
        );
    }

    #[test]
    fn scope_prefix_matching() {
        let v4 = |a, b, c, d| IpAddr::V4(Ipv4Addr::new(a, b, c, d));
        let p = Scope::V4Prefix(Ipv4Addr::new(10, 1, 0, 0), 16);
        assert!(p.matches(v4(10, 1, 200, 7)));
        assert!(!p.matches(v4(10, 2, 0, 1)));
        assert!(!p.matches("fd00::1".parse().unwrap()));
        let p6 = Scope::V6Prefix("fd00::".parse().unwrap(), 8);
        assert!(p6.matches("fd00::42".parse().unwrap()));
        assert!(!p6.matches(v4(10, 0, 0, 1)));
        assert!(Scope::All.matches(v4(1, 2, 3, 4)));
        assert!(Scope::V4Prefix(Ipv4Addr::new(0, 0, 0, 0), 0).matches(v4(9, 9, 9, 9)));
    }

    #[test]
    fn fixed_policy_reproduces_legacy_retry_loop() {
        let run_legacy = || {
            let net = Network::new(42);
            net.register(addr(2), Rc::new(Echo));
            net.set_schedule(always(EpisodeKind::Flap {
                scope: Scope::All,
                drop_chance: 0.5,
            }));
            (0..30)
                .map(|_| {
                    // The legacy loop, written out: up to four tries,
                    // first response wins, no waiting in between.
                    let answered = (0..4).any(|_| {
                        matches!(
                            net.send_query(addr(1), addr(2), b"x"),
                            Outcome::Response { .. }
                        )
                    });
                    (answered, net.now_micros())
                })
                .collect::<Vec<_>>()
        };
        let run_policy = || {
            let net = Network::new(42);
            net.register(addr(2), Rc::new(Echo));
            net.set_schedule(always(EpisodeKind::Flap {
                scope: Scope::All,
                drop_chance: 0.5,
            }));
            let policy = RetryPolicy::fixed(4);
            (0..30)
                .map(|_| {
                    let report = net.send_query_with_policy(addr(1), addr(2), b"x", &policy);
                    (
                        matches!(report.outcome, Outcome::Response { .. }),
                        net.now_micros(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run_legacy(), run_policy());
    }

    #[test]
    fn adaptive_policy_backs_off_and_respects_budget() {
        let net = Network::new(1);
        net.register(addr(2), Rc::new(Silent));
        let policy = RetryPolicy::adaptive(7);
        let before = net.now_micros();
        let report = net.send_query_with_policy(addr(1), addr(2), b"x", &policy);
        assert!(matches!(report.outcome, Outcome::Timeout));
        assert!(report.attempts >= 2, "silent target is retried");
        let elapsed = net.now_micros() - before;
        // Budget bounds total virtual time: attempts stop once 30 s elapse,
        // so the whole exchange stays under budget + one timeout + max backoff.
        assert!(
            elapsed
                <= policy.budget_micros
                    + 2_000_000
                    + policy.max_backoff_micros
                    + policy.jitter_micros,
            "elapsed {elapsed}"
        );
        // Backoff grows: the same dst/attempt pair always jitters identically.
        assert_eq!(
            policy.backoff_micros(addr(2), 1),
            policy.backoff_micros(addr(2), 1)
        );
        assert!(policy.backoff_micros(addr(2), 3) >= policy.backoff_micros(addr(2), 1));
    }

    #[test]
    fn budget_counts_from_the_first_attempt() {
        // Each silent attempt costs its 10 ms request leg and a 2 s
        // timeout, each backoff 1 s: the second attempt ends 5.02 s after
        // the first began, which spends the 5 s budget, though no single
        // attempt comes near it.
        let net = Network::new(1);
        net.register(addr(2), Rc::new(Silent));
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_micros: 1_000_000,
            max_backoff_micros: 1_000_000,
            budget_micros: 5_000_000,
            ..RetryPolicy::fixed(1)
        };
        let report = net.send_query_with_policy(addr(1), addr(2), b"x", &policy);
        assert_eq!((report.attempts, net.now_micros()), (2, 5_020_000));
    }

    #[test]
    fn no_route_short_circuits_policy_retries() {
        let net = Network::new(1);
        let report = net.send_query_with_policy(addr(1), addr(9), b"x", &RetryPolicy::adaptive(1));
        assert!(matches!(report.outcome, Outcome::NoRoute));
        assert_eq!(report.attempts, 1, "dead routes are not retried");
    }

    #[test]
    fn schedule_replays_identically_for_same_seed() {
        let run = |seed: u64| {
            let net = Network::new(5);
            net.register(addr(2), Rc::new(Echo));
            net.set_schedule(FaultSchedule {
                seed,
                episodes: vec![
                    Episode::always(EpisodeKind::Flap {
                        scope: Scope::All,
                        drop_chance: 0.3,
                    }),
                    Episode::window(
                        3_000_000,
                        9_000_000,
                        EpisodeKind::Outage {
                            scope: Scope::Addr(addr(2)),
                        },
                    ),
                ],
                ..Default::default()
            });
            (0..60)
                .map(|_| {
                    matches!(
                        net.send_query(addr(1), addr(2), b"x"),
                        Outcome::Response { .. }
                    )
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    /// A node that counts how many datagrams it handled.
    struct Counter(std::cell::Cell<u64>);
    impl Node for Counter {
        fn handle(
            &self,
            _net: &Network,
            _src: IpAddr,
            payload: &[u8],
            reply: &mut Vec<u8>,
        ) -> Option<()> {
            self.0.set(self.0.get() + 1);
            reply.extend_from_slice(payload);
            Some(())
        }
    }

    #[test]
    fn duplication_reruns_the_handler_once_per_copy() {
        let net = Network::new(3);
        let counter = Rc::new(Counter(std::cell::Cell::new(0)));
        net.register(addr(2), counter.clone());
        net.set_schedule(always(EpisodeKind::Duplicate {
            scope: Scope::All,
            chance: 1.0,
        }));
        let out = net.send_query(addr(1), addr(2), b"q");
        assert!(
            matches!(out, Outcome::Response { .. }),
            "sender still gets one reply"
        );
        assert_eq!(counter.0.get(), 2, "handler ran for both copies");
        net.set_schedule(FaultSchedule::default());
        let _ = net.send_query(addr(1), addr(2), b"q");
        assert_eq!(counter.0.get(), 3);
    }

    #[test]
    fn network_seed_decides_no_fault() {
        let schedule = FaultSchedule {
            seed: 99,
            episodes: vec![
                Episode::always(EpisodeKind::Flap {
                    scope: Scope::All,
                    drop_chance: 0.3,
                }),
                Episode::always(EpisodeKind::Corrupt {
                    scope: Scope::All,
                    chance: 0.3,
                }),
                Episode::always(EpisodeKind::Duplicate {
                    scope: Scope::All,
                    chance: 0.3,
                }),
            ],
            ..Default::default()
        };
        let faulty = flow_view(schedule.clone(), 99, false);
        assert_ne!(faulty, flow_view(FaultSchedule::default(), 99, false));
        assert_eq!(faulty, flow_view(schedule, 100, false));
    }

    #[test]
    fn addr_alloc_unique() {
        let mut alloc = AddrAlloc::new();
        let a = alloc.v4();
        let b = alloc.v4();
        let c = alloc.v6();
        let d = alloc.v6();
        assert_ne!(a, b);
        assert_ne!(c, d);
        assert!(matches!(c, IpAddr::V6(_)));
    }

    #[test]
    fn addr_alloc_skip_equals_discarded_allocs() {
        let mut skipped = AddrAlloc::new();
        skipped.skip_v4(5);
        skipped.skip_v6(3);
        let mut walked = AddrAlloc::new();
        for _ in 0..5 {
            walked.v4();
        }
        for _ in 0..3 {
            walked.v6();
        }
        assert_eq!(skipped.v4(), walked.v4());
        assert_eq!(skipped.v6(), walked.v6());
    }

    #[test]
    fn register_rejects_duplicates() {
        let net = Network::new(1);
        assert!(net.register(addr(2), Rc::new(Echo)));
        assert!(!net.register(addr(2), Rc::new(Echo)));
        net.unregister(addr(2));
        assert!(net.register(addr(2), Rc::new(Echo)));
    }
}
