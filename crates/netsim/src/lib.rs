//! A deterministic, event-driven simulated Internet.
//!
//! This crate substitutes for the live network in the *Zeros Are Heroes*
//! reproduction (DESIGN.md §2). It follows the smoltcp school of design:
//! synchronous, explicit, no hidden concurrency, with first-class fault
//! injection (`--drop-chance` / `--corrupt-chance` style knobs).
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
//!   reproducible for a given seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::pin::pin;
use std::rc::Rc;

use sim_rng::{Rng, SplitMix64, Xoshiro256pp};

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

/// Fault-injection configuration, in the style of smoltcp's example knobs.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that any datagram (either direction) is
    /// silently dropped.
    pub drop_chance: f64,
    /// Probability in `[0, 1]` that one octet of a datagram is corrupted.
    pub corrupt_chance: f64,
    /// Probability in `[0, 1]` that a *request* is delivered twice (UDP
    /// duplication); the receiver's handler runs for each copy, so side
    /// effects (query logs, counters) double, while the sender keeps the
    /// first reply — exactly the failure mode that makes cache-busting
    /// probe names necessary.
    pub duplicate_chance: f64,
    /// Datagrams larger than this are dropped (MTU-ish limit).
    pub size_limit: Option<usize>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            duplicate_chance: 0.0,
            size_limit: None,
        }
    }
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
    /// probability, decided by a seeded hash of the flow (never the
    /// network RNG, so observations elsewhere are unaffected).
    Flap {
        /// Affected destinations.
        scope: Scope,
        /// Per-datagram loss probability in `[0, 1]`.
        drop_chance: f64,
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

/// A full fault plan: the global [`FaultConfig`] knobs layered under a
/// list of time-scheduled [`Episode`]s, all reproducible from `seed`.
///
/// Episode decisions (flap losses, latency jitter) are derived by hashing
/// `seed` with the episode index and the flow — **not** drawn from the
/// network's RNG stream — so adding or removing an episode never perturbs
/// fault decisions made elsewhere, and a schedule replays identically
/// wherever the same flows occur.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    /// The always-on global knobs (drop / corrupt / duplicate / MTU).
    pub base: FaultConfig,
    /// Seed for hash-derived episode decisions.
    pub seed: u64,
    /// Time-scheduled fault episodes, evaluated in order.
    pub episodes: Vec<Episode>,
}

impl FaultSchedule {
    /// True when this schedule can never touch a datagram: no base-knob
    /// probabilities, no size limit, no episodes. An inert schedule
    /// consumes no network RNG and makes no flow-keyed decisions, so
    /// probe flows sharing a lab may interleave in any order without
    /// perturbing each other — the condition the event driver checks
    /// before opening its in-flight window past 1 (DESIGN.md §8).
    pub fn is_inert(&self) -> bool {
        self.base.drop_chance == 0.0
            && self.base.corrupt_chance == 0.0
            && self.base.duplicate_chance == 0.0
            && self.base.size_limit.is_none()
            && self.episodes.is_empty()
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

/// Map a hash word onto `[0, 1)` for probability decisions.
fn hash_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
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
    faults: RefCell<FaultConfig>,
    episodes: RefCell<Vec<Episode>>,
    episode_seed: Cell<u64>,
    /// Per-(src, dst) datagram counter; feeds the hash that decides flap
    /// losses and latency jitter, so decisions replay identically for a
    /// given flow regardless of what other flows exist.
    flow_seq: RefCell<HashMap<(IpAddr, IpAddr), u64>>,
    /// Token buckets for `RateLimit` episodes, keyed by (episode index,
    /// destination).
    buckets: RefCell<HashMap<(usize, IpAddr), Bucket>>,
    rng: RefCell<Xoshiro256pp>,
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

impl Network {
    /// A fault-free network with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: RefCell::new(HashMap::new()),
            faults: RefCell::new(FaultConfig::default()),
            episodes: RefCell::new(Vec::new()),
            episode_seed: Cell::new(0),
            flow_seq: RefCell::new(HashMap::new()),
            buckets: RefCell::new(HashMap::new()),
            rng: RefCell::new(Xoshiro256pp::seed_from_u64(seed)),
            clock: Cell::new(0),
            in_flight: RefCell::new(Vec::new()),
            delivered: Cell::new(0),
            lost: Cell::new(0),
        }
    }

    /// Install a full [`FaultSchedule`]: the base knobs replace the
    /// current [`FaultConfig`], the episodes replace any previous ones,
    /// and flow counters / token buckets start fresh.
    pub fn set_schedule(&self, schedule: FaultSchedule) {
        *self.faults.borrow_mut() = schedule.base;
        *self.episodes.borrow_mut() = schedule.episodes;
        self.episode_seed.set(schedule.seed);
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
        // Request leg.
        match self.transmit(src, dst, payload, true) {
            Leg::Lost => {
                self.advance_timeout();
                Outcome::Timeout
            }
            Leg::NoRoute => Outcome::NoRoute,
            Leg::LoopDrop => {
                self.advance_timeout();
                Outcome::Timeout
            }
            Leg::Delivered { corrupt } => {
                let node = self.nodes.borrow().get(&dst).cloned();
                let node = match node {
                    Some(n) => n,
                    None => return Outcome::NoRoute,
                };
                let duplicate = {
                    let faults = self.faults.borrow();
                    faults.duplicate_chance > 0.0
                        && self
                            .rng
                            .borrow_mut()
                            .gen_bool(faults.duplicate_chance.clamp(0.0, 1.0))
                };
                // The handler borrows the sender's payload directly; only
                // the (rare) corrupted delivery needs its own copy.
                let corrupted;
                let datagram: &[u8] = match corrupt {
                    Some((idx, mask)) => {
                        let mut v = payload.to_vec();
                        v[idx] ^= mask;
                        corrupted = v;
                        &corrupted
                    }
                    None => payload,
                };
                self.in_flight.borrow_mut().push(dst);
                let mut reply_buf = Vec::with_capacity(512);
                let reply = node.handle(self, src, datagram, &mut reply_buf);
                if duplicate {
                    // The duplicate's reply is dropped; its side effects
                    // (logs, counters) are not.
                    let mut scratch = Vec::with_capacity(512);
                    let _ = node.handle(self, src, datagram, &mut scratch);
                }
                self.in_flight.borrow_mut().pop();
                match reply {
                    None => {
                        self.advance_timeout();
                        Outcome::Timeout
                    }
                    // The response leg flows back to a waiting socket, not a
                    // registered node: no routing check.
                    Some(()) => match self.transmit(dst, src, &reply_buf, false) {
                        Leg::Delivered { corrupt } => {
                            if let Some((idx, mask)) = corrupt {
                                reply_buf[idx] ^= mask;
                            }
                            let rtt = self.clock.get() - start;
                            // The reply buffer moves to the caller whole:
                            // the handler's bytes are never copied per hop.
                            Outcome::Response {
                                payload: reply_buf,
                                rtt_micros: rtt,
                            }
                        }
                        _ => {
                            self.advance_timeout();
                            Outcome::Timeout
                        }
                    },
                }
            }
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

    fn advance_timeout(&self) {
        // A lost exchange costs the sender a timeout (2 s of virtual time —
        // a typical stub retry interval).
        self.clock.set(self.clock.get() + 2_000_000);
    }

    fn transmit(&self, src: IpAddr, dst: IpAddr, payload: &[u8], require_route: bool) -> Leg {
        let at = self.clock.get();
        let faults = self.faults.borrow().clone();
        if let Some(limit) = faults.size_limit {
            if payload.len() > limit {
                self.lost.set(self.lost.get() + 1);
                return Leg::Lost;
            }
        }
        if require_route && !self.nodes.borrow().contains_key(&dst) {
            return Leg::NoRoute;
        }
        // Re-entry protection only matters when we are about to invoke the
        // destination's handler (request legs); responses flow back to a
        // node that is legitimately on the stack awaiting them.
        if require_route && self.in_flight.borrow().contains(&dst) {
            self.lost.set(self.lost.get() + 1);
            return Leg::LoopDrop;
        }
        let Some(episode_extra) = self.evaluate_episodes(src, dst, at, require_route) else {
            self.lost.set(self.lost.get() + 1);
            return Leg::Lost;
        };
        let mut rng = self.rng.borrow_mut();
        if faults.drop_chance > 0.0 && rng.gen_bool(faults.drop_chance.clamp(0.0, 1.0)) {
            self.lost.set(self.lost.get() + 1);
            return Leg::Lost;
        }
        // The datagram itself is not copied: corruption is decided here
        // (preserving the historical RNG draw order exactly — one
        // `gen_bool`, then byte index, then bit) but applied by the
        // caller, which can flip the bit in place or borrow the payload
        // untouched.
        let mut corrupt = None;
        if faults.corrupt_chance > 0.0
            && !payload.is_empty()
            && rng.gen_bool(faults.corrupt_chance.clamp(0.0, 1.0))
        {
            let idx = rng.gen_range(0..payload.len());
            corrupt = Some((idx, 1u8 << rng.gen_range(0u32..8)));
        }
        drop(rng);
        self.clock.set(at + LEG_LATENCY_MICROS + episode_extra);
        self.delivered.set(self.delivered.get() + 1);
        Leg::Delivered { corrupt }
    }

    /// Evaluate the active fault episodes for one datagram. Returns the
    /// extra one-way latency to apply, or `None` when an episode kills
    /// the datagram. Decisions hash the schedule seed with the
    /// episode index and the per-(src, dst) flow counter — the network
    /// RNG is never consulted, so episode evaluation cannot perturb the
    /// base fault stream or any observation made elsewhere.
    fn evaluate_episodes(
        &self,
        src: IpAddr,
        dst: IpAddr,
        at: u64,
        request_leg: bool,
    ) -> Option<u64> {
        let episodes = self.episodes.borrow();
        if episodes.is_empty() {
            return Some(0);
        }
        let seq = {
            let mut flows = self.flow_seq.borrow_mut();
            let counter = flows.entry((src, dst)).or_insert(0);
            let seq = *counter;
            *counter += 1;
            seq
        };
        let seed = self.episode_seed.get();
        let mut extra_latency = 0u64;
        for (idx, episode) in episodes.iter().enumerate() {
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
                    if scope.matches(dst) {
                        let h = hash_mix(&[seed, idx as u64, addr_key(src), addr_key(dst), seq]);
                        if hash_unit(h) < drop_chance.clamp(0.0, 1.0) {
                            return None;
                        }
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
                            hash_mix(&[
                                seed ^ 0x1a7e,
                                idx as u64,
                                addr_key(src),
                                addr_key(dst),
                                seq,
                            ]) % (*jitter_micros + 1)
                        };
                        extra_latency = extra_latency.saturating_add(extra_micros + jitter);
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
        Some(extra_latency)
    }
}

enum Leg {
    /// Delivered; if `corrupt` is set the receiver must XOR `mask` into
    /// byte `idx` of the payload (decided centrally so the RNG stream
    /// matches the historical copy-then-corrupt implementation).
    Delivered {
        corrupt: Option<(usize, u8)>,
    },
    Lost,
    NoRoute,
    LoopDrop,
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
        net.set_schedule(FaultSchedule {
            base: FaultConfig {
                drop_chance: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
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
        net.set_schedule(FaultSchedule {
            base: FaultConfig {
                drop_chance: 0.5,
                ..Default::default()
            },
            ..Default::default()
        });
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
        net.set_schedule(FaultSchedule {
            base: FaultConfig {
                corrupt_chance: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
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
            base: FaultConfig {
                size_limit: Some(4),
                ..Default::default()
            },
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

    #[test]
    fn flap_decisions_replay_per_flow_not_per_network_history() {
        let schedule = || FaultSchedule {
            seed: 77,
            episodes: vec![Episode::always(EpisodeKind::Flap {
                scope: Scope::Addr(addr(2)),
                drop_chance: 0.5,
            })],
            ..Default::default()
        };
        let run = |extra_traffic: bool| {
            let net = Network::new(9);
            net.register(addr(2), Rc::new(Echo));
            net.register(addr(3), Rc::new(Echo));
            net.set_schedule(schedule());
            (0..40)
                .map(|i| {
                    if extra_traffic && i % 3 == 0 {
                        // Unrelated flow: must not shift addr(2) decisions.
                        let _ = net.send_query(addr(1), addr(3), b"noise");
                    }
                    matches!(
                        net.send_query(addr(1), addr(2), b"x"),
                        Outcome::Response { .. }
                    )
                })
                .collect::<Vec<bool>>()
        };
        let quiet = run(false);
        assert_eq!(quiet, run(true), "flap decisions are flow-keyed");
        assert!(quiet.iter().any(|ok| *ok) && quiet.iter().any(|ok| !*ok));
        // A different schedule seed flips some decisions.
        let net = Network::new(9);
        net.register(addr(2), Rc::new(Echo));
        net.set_schedule(FaultSchedule {
            seed: 78,
            ..schedule()
        });
        let other: Vec<bool> = (0..40)
            .map(|_| {
                matches!(
                    net.send_query(addr(1), addr(2), b"x"),
                    Outcome::Response { .. }
                )
            })
            .collect();
        assert_ne!(quiet, other);
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
            net.set_schedule(FaultSchedule {
                base: FaultConfig {
                    drop_chance: 0.5,
                    ..Default::default()
                },
                ..Default::default()
            });
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
            net.set_schedule(FaultSchedule {
                base: FaultConfig {
                    drop_chance: 0.5,
                    ..Default::default()
                },
                ..Default::default()
            });
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
        net.set_schedule(FaultSchedule {
            base: FaultConfig {
                duplicate_chance: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
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
    fn determinism_same_seed_same_outcomes() {
        let run = |seed| {
            let net = Network::new(seed);
            net.register(addr(2), Rc::new(Echo));
            net.set_schedule(FaultSchedule {
                base: FaultConfig {
                    drop_chance: 0.3,
                    ..Default::default()
                },
                ..Default::default()
            });
            (0..30)
                .map(|_| {
                    matches!(
                        net.send_query(addr(1), addr(2), b"x"),
                        Outcome::Response { .. }
                    )
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100)); // overwhelmingly likely
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
