//! Adaptive retry and loss accounting for the scan pipeline.
//!
//! Real measurement campaigns (§5.2 of the paper) face unresponsive
//! resolvers, rate-limited authoritatives, and transient outages. This
//! module gives every scanner the same three tools:
//!
//! * a deterministic [`RetryPolicy`] (re-exported from `netsim`) driving
//!   exponential backoff per query,
//! * a per-target **circuit breaker** ([`ScanSession`]) so a dead
//!   resolver stops consuming probe budget after a few failures, and
//! * [`ProbeStats`] — explicit loss accounting carried through every
//!   experiment driver, so coverage is reported instead of denominators
//!   silently shrinking.
//!
//! The accounting identity every driver upholds (pinned by
//! `tests/determinism.rs`):
//!
//! ```text
//! sent = answered + timed_out + circuit_skipped
//! ```
//!
//! where `sent` counts **logical queries** (a probe the scan wanted an
//! answer to), `retried` counts extra wire attempts beyond each first
//! try, and `gave_up` counts breaker-open transitions. All fields are
//! plain sums, so shard-wise merging is order-independent and the totals
//! are byte-identical at every thread count.

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::IpAddr;

use netsim::event::FlowStep;
use netsim::{ExchangeMachine, Network, Outcome, RetryPolicy};

/// Loss-accounted probe counters for one scan (or one shard of one).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Logical queries the scan wanted answered.
    pub sent: u64,
    /// Logical queries that got a usable response.
    pub answered: u64,
    /// Extra wire attempts beyond the first, summed over queries.
    pub retried: u64,
    /// Logical queries that exhausted their retry budget in silence.
    pub timed_out: u64,
    /// Logical queries never put on the wire because the target's
    /// circuit breaker was open (or the scan had already given up on
    /// the target).
    pub circuit_skipped: u64,
    /// Breaker-open transitions: how many times a target was declared
    /// dead and further probes short-circuited.
    pub gave_up: u64,
}

impl ProbeStats {
    /// Fold `other` into `self` (field-wise sums — order-independent,
    /// which is what makes shard-wise merging deterministic).
    pub fn merge(&mut self, other: &ProbeStats) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.retried += other.retried;
        self.timed_out += other.timed_out;
        self.circuit_skipped += other.circuit_skipped;
        self.gave_up += other.gave_up;
    }

    /// The accounting identity: every logical query is answered, timed
    /// out, or skipped — nothing vanishes.
    pub fn is_consistent(&self) -> bool {
        self.sent == self.answered + self.timed_out + self.circuit_skipped
    }

    /// Fraction of logical queries that got an answer (1.0 for an empty
    /// scan: nothing was lost).
    pub fn answered_share(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.answered as f64 / self.sent as f64
        }
    }
}

/// Circuit-breaker tuning for a [`ScanSession`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker. 0 disables the
    /// breaker entirely (every probe goes on the wire).
    pub failure_threshold: u32,
    /// Virtual µs the breaker stays open before one half-open trial
    /// probe is allowed through.
    pub cooldown_micros: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_micros: 30_000_000, // 30 s of virtual time
        }
    }
}

impl BreakerConfig {
    /// No breaker: every probe is sent regardless of target health.
    pub fn disabled() -> Self {
        BreakerConfig {
            failure_threshold: 0,
            cooldown_micros: 0,
        }
    }
}

/// Per-target health as seen by the breaker.
#[derive(Clone, Copy, Debug, Default)]
struct TargetHealth {
    consecutive_failures: u32,
    /// When `Some`, the breaker is open until this virtual timestamp;
    /// afterwards the next probe runs as a half-open trial.
    open_until_micros: Option<u64>,
}

/// One scan's retry/breaker state and loss accounting.
///
/// The session is deliberately `&self`-only (interior mutability), so a
/// prober or census can thread one session through many probes without
/// borrow gymnastics. Health is keyed by target address; the map is only
/// ever point-queried, never iterated, so its ordering cannot leak into
/// results.
#[derive(Debug, Default)]
pub struct ScanSession {
    breaker: BreakerConfig,
    health: RefCell<HashMap<IpAddr, TargetHealth>>,
    stats: RefCell<ProbeStats>,
}

impl ScanSession {
    /// A session with the given breaker tuning.
    pub fn new(breaker: BreakerConfig) -> Self {
        ScanSession {
            breaker,
            health: RefCell::new(HashMap::new()),
            stats: RefCell::new(ProbeStats::default()),
        }
    }

    /// Snapshot of the accumulated counters.
    pub fn stats(&self) -> ProbeStats {
        *self.stats.borrow()
    }

    /// Is the breaker currently open for `target` (probe would be
    /// skipped)?
    pub(crate) fn is_open(&self, net: &Network, target: IpAddr) -> bool {
        self.breaker.failure_threshold > 0
            && self
                .health
                .borrow()
                .get(&target)
                .and_then(|h| h.open_until_micros)
                .is_some_and(|until| net.now_micros() < until)
    }

    /// One logical query through the session: consult the breaker, send
    /// with `policy`, account the outcome. An open breaker returns
    /// [`Outcome::Timeout`] without touching the wire.
    ///
    /// This is the blocking driver of [`ScanSession::begin_exchange`]:
    /// it advances the virtual clock across every backoff itself, where
    /// an event-driven flow would park on the event queue instead. Both
    /// replay the same breaker and retry transitions.
    #[allow(dead_code)] // the blocking twin the breaker's unit tests drive
    pub(crate) fn exchange(
        &self,
        net: &Network,
        src: IpAddr,
        dst: IpAddr,
        payload: &[u8],
        policy: &RetryPolicy,
    ) -> Outcome {
        let mut ex = self.begin_exchange(net, src, dst, policy);
        while let FlowStep::Park { at_micros } = ex.step(net, payload) {
            net.advance_to(at_micros);
        }
        ex.finish(self, net)
    }

    /// Open one logical query as a parkable state machine: the breaker
    /// verdict is taken here (an open breaker accounts the skip
    /// immediately and yields an already-finished exchange), then each
    /// [`SessionExchange::step`] sends one wire attempt.
    pub(crate) fn begin_exchange(
        &self,
        net: &Network,
        src: IpAddr,
        dst: IpAddr,
        policy: &RetryPolicy,
    ) -> SessionExchange {
        if self.is_open(net, dst) {
            self.note_skipped();
            SessionExchange { machine: None, dst }
        } else {
            SessionExchange {
                machine: Some(ExchangeMachine::new(src, dst, *policy)),
                dst,
            }
        }
    }

    /// Account one logical query that got a usable answer without going
    /// through [`ScanSession::exchange`] (e.g. a phase resolved through
    /// an in-process recursive resolver), with `retries` extra wire
    /// attempts observed underneath it.
    pub fn note_answered(&self, retries: u64) {
        let mut stats = self.stats.borrow_mut();
        stats.sent += 1;
        stats.answered += 1;
        stats.retried += retries;
    }

    /// Account one logical query lost to timeouts.
    pub fn note_timed_out(&self, retries: u64) {
        let mut stats = self.stats.borrow_mut();
        stats.sent += 1;
        stats.timed_out += 1;
        stats.retried += retries;
    }

    /// Account one logical query never attempted (breaker open, or the
    /// scan already gave up on the target).
    pub(crate) fn note_skipped(&self) {
        let mut stats = self.stats.borrow_mut();
        stats.sent += 1;
        stats.circuit_skipped += 1;
    }

    fn clear_health(&self, dst: IpAddr) {
        self.health.borrow_mut().remove(&dst);
    }

    fn record_failure(&self, net: &Network, dst: IpAddr) {
        if self.breaker.failure_threshold == 0 {
            return;
        }
        let mut health = self.health.borrow_mut();
        let entry = health.entry(dst).or_default();
        // A failed half-open trial reopens immediately.
        let reopened_trial = entry
            .open_until_micros
            .is_some_and(|until| net.now_micros() >= until);
        entry.consecutive_failures += 1;
        if reopened_trial || entry.consecutive_failures >= self.breaker.failure_threshold {
            entry.open_until_micros = Some(net.now_micros() + self.breaker.cooldown_micros);
            entry.consecutive_failures = 0;
            self.stats.borrow_mut().gave_up += 1;
        }
    }
}

/// One in-flight logical query opened by [`ScanSession::begin_exchange`]:
/// a [`netsim::ExchangeMachine`] plus the session's breaker bookkeeping.
/// The caller owns the encoded payload across parks and hands it to each
/// [`SessionExchange::step`].
#[derive(Debug)]
pub(crate) struct SessionExchange {
    /// `None` when the breaker was open at begin time: the skip is
    /// already accounted and the exchange is born finished.
    machine: Option<ExchangeMachine>,
    dst: IpAddr,
}

impl SessionExchange {
    /// Send one wire attempt: [`FlowStep::Park`] until the backoff is
    /// due (an event flow parks on the queue, the blocking driver
    /// advances the clock), or [`FlowStep::Done`] — collect the outcome
    /// with [`SessionExchange::finish`]. A breaker-skipped exchange is
    /// done without touching the wire.
    pub(crate) fn step(&mut self, net: &Network, payload: &[u8]) -> FlowStep {
        match &mut self.machine {
            None => FlowStep::Done,
            Some(machine) => machine.step(net, payload),
        }
    }

    /// Account the finished exchange in `session` (answered/timed-out
    /// counters, breaker health) and return its [`Outcome`] — exactly
    /// the bookkeeping the blocking [`ScanSession::exchange`] performs.
    pub(crate) fn finish(self, session: &ScanSession, net: &Network) -> Outcome {
        let machine = match self.machine {
            None => return Outcome::Timeout,
            Some(m) => m,
        };
        let report = machine.into_report();
        let retries = u64::from(report.attempts.saturating_sub(1));
        match report.outcome {
            Outcome::Response { .. } => {
                session.note_answered(retries);
                session.clear_health(self.dst);
            }
            Outcome::Timeout | Outcome::NoRoute => {
                session.note_timed_out(retries);
                session.record_failure(net, self.dst);
            }
        }
        report.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use std::rc::Rc;

    use netsim::{Episode, EpisodeKind, FaultSchedule, Node, Scope};

    struct Echo;
    impl Node for Echo {
        fn handle(
            &self,
            _net: &Network,
            _src: IpAddr,
            payload: &[u8],
            reply: &mut Vec<u8>,
        ) -> Option<()> {
            reply.extend_from_slice(payload);
            Some(())
        }
    }

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
    fn stats_identity_holds_for_mixed_outcomes() {
        let net = Network::new(1);
        net.register(addr(2), Rc::new(Echo));
        net.register(addr(3), Rc::new(Silent));
        let session = ScanSession::new(BreakerConfig::default());
        let policy = RetryPolicy::fixed(2);
        for _ in 0..5 {
            let _ = session.exchange(&net, addr(1), addr(2), b"q", &policy);
        }
        for _ in 0..6 {
            let _ = session.exchange(&net, addr(1), addr(3), b"q", &policy);
        }
        let stats = session.stats();
        assert!(stats.is_consistent(), "{stats:?}");
        assert_eq!(stats.sent, 11);
        assert_eq!(stats.answered, 5);
        assert!(stats.circuit_skipped > 0, "breaker kicked in: {stats:?}");
        assert!(stats.retried > 0, "silent target was retried");
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_after_cooldown() {
        let net = Network::new(1);
        net.register(addr(3), Rc::new(Silent));
        let session = ScanSession::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_micros: 1_000_000,
        });
        let policy = RetryPolicy::fixed(1);
        let _ = session.exchange(&net, addr(1), addr(3), b"q", &policy);
        assert!(!session.is_open(&net, addr(3)), "one failure, still closed");
        let _ = session.exchange(&net, addr(1), addr(3), b"q", &policy);
        assert!(session.is_open(&net, addr(3)), "threshold reached");
        assert_eq!(session.stats().gave_up, 1);
        // Skipped while open.
        let _ = session.exchange(&net, addr(1), addr(3), b"q", &policy);
        assert_eq!(session.stats().circuit_skipped, 1);
        // After the cooldown the half-open trial goes on the wire again
        // and, failing, re-opens the breaker immediately.
        net.advance(2_000_000);
        assert!(!session.is_open(&net, addr(3)));
        let _ = session.exchange(&net, addr(1), addr(3), b"q", &policy);
        assert!(session.is_open(&net, addr(3)), "failed trial reopens");
        assert_eq!(session.stats().gave_up, 2);
        // A recovered target closes the breaker for good.
        net.advance(2_000_000);
        net.unregister(addr(3));
        net.register(addr(3), Rc::new(Echo));
        let _ = session.exchange(&net, addr(1), addr(3), b"q", &policy);
        assert!(!session.is_open(&net, addr(3)));
        let stats = session.stats();
        assert!(stats.is_consistent(), "{stats:?}");
    }

    #[test]
    fn disabled_breaker_never_skips() {
        let net = Network::new(1);
        net.register(addr(3), Rc::new(Silent));
        let session = ScanSession::new(BreakerConfig::disabled());
        for _ in 0..10 {
            let _ = session.exchange(&net, addr(1), addr(3), b"q", &RetryPolicy::fixed(1));
        }
        let stats = session.stats();
        assert_eq!(stats.circuit_skipped, 0);
        assert_eq!(stats.timed_out, 10);
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn breaker_rides_out_an_outage_episode() {
        let net = Network::new(1);
        net.register(addr(2), Rc::new(Echo));
        net.set_schedule(FaultSchedule {
            episodes: vec![Episode::window(
                0,
                10_000_000,
                EpisodeKind::Outage {
                    scope: Scope::Addr(addr(2)),
                },
            )],
            ..Default::default()
        });
        let session = ScanSession::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_micros: 4_000_000,
        });
        let policy = RetryPolicy::fixed(1);
        let mut answered = 0;
        for _ in 0..12 {
            if matches!(
                session.exchange(&net, addr(1), addr(2), b"q", &policy),
                Outcome::Response { .. }
            ) {
                answered += 1;
            }
            // The scan works through other targets in between; skipped
            // probes themselves cost no virtual time.
            net.advance(1_500_000);
        }
        let stats = session.stats();
        assert!(stats.is_consistent(), "{stats:?}");
        assert!(answered > 0, "recovered after the outage: {stats:?}");
        assert!(stats.circuit_skipped > 0, "breaker saved budget: {stats:?}");
        assert_eq!(stats.answered, answered);
    }

    #[test]
    fn merge_is_field_wise_sum() {
        let mut a = ProbeStats {
            sent: 5,
            answered: 3,
            retried: 2,
            timed_out: 1,
            circuit_skipped: 1,
            gave_up: 1,
        };
        let b = ProbeStats {
            sent: 2,
            answered: 2,
            retried: 0,
            timed_out: 0,
            circuit_skipped: 0,
            gave_up: 0,
        };
        a.merge(&b);
        assert_eq!(a.sent, 7);
        assert_eq!(a.answered, 5);
        assert!(a.is_consistent());
        assert_eq!(ProbeStats::default().answered_share(), 1.0);
    }
}
