//! Adaptive retry and loss accounting for the scan pipeline.
//!
//! Real measurement campaigns (§5.2 of the paper) face unresponsive
//! resolvers, rate-limited authoritatives, and transient outages. This
//! module gives every scanner the same three tools:
//!
//! * a deterministic [`netsim::RetryPolicy`] driving exponential backoff
//!   per query,
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

use dns_resolver::resolver::ResolveOutcome;
use netsim::Network;

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
    fn is_open(&self, net: &Network, target: IpAddr) -> bool {
        self.breaker.failure_threshold > 0
            && self
                .health
                .borrow()
                .get(&target)
                .and_then(|h| h.open_until_micros)
                .is_some_and(|until| net.now_micros() < until)
    }

    /// May a query to `target` go on the wire now? An open breaker says
    /// no, and the query is booked as skipped.
    pub(crate) fn admit(&self, net: &Network, target: IpAddr) -> bool {
        let open = self.is_open(net, target);
        if open {
            self.note_skipped();
        }
        !open
    }

    /// Book one admitted query once its wire attempts are over:
    /// `answered` or timed out after `attempts` attempts, and `dst`'s
    /// breaker health with it.
    pub(crate) fn settle(&self, net: &Network, dst: IpAddr, attempts: u32, answered: bool) {
        let retries = u64::from(attempts.saturating_sub(1));
        if answered {
            self.note_answered(retries);
            self.health.borrow_mut().remove(&dst);
        } else {
            self.note_timed_out(retries);
            self.record_failure(net, dst);
        }
    }

    /// Book one logical query answered by an in-process recursive
    /// resolver, with the retries it spent underneath, and say whether its
    /// probe was lost (the rule is [`ResolveOutcome::probe_lost`]).
    pub fn book(&self, out: &ResolveOutcome) -> bool {
        let lost = out.probe_lost();
        if lost {
            self.note_timed_out(out.cost.retries);
        } else {
            self.note_answered(out.cost.retries);
        }
        lost
    }

    /// Account one logical query that got a usable answer, with
    /// `retries` extra wire attempts observed underneath it (a phase
    /// resolved through an in-process recursive resolver books itself
    /// here).
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use std::rc::Rc;

    use netsim::event::FlowStep;
    use netsim::{
        Episode, EpisodeKind, ExchangeMachine, FaultSchedule, Node, Outcome, RetryPolicy, Scope,
    };

    /// One logical query from `addr(1)` to `dst` through `session`,
    /// blocking: the breaker's verdict, the policy's attempts with the
    /// clock advanced across each backoff, then the booking.
    fn exchange(session: &ScanSession, net: &Network, dst: IpAddr, policy: RetryPolicy) -> Outcome {
        if !session.admit(net, dst) {
            return Outcome::Timeout;
        }
        let mut machine = ExchangeMachine::new(addr(1), dst, policy);
        while let FlowStep::Park { at_micros } = machine.step(net, b"q") {
            net.advance_to(at_micros);
        }
        let report = machine.into_report();
        let answered = matches!(report.outcome, Outcome::Response { .. });
        session.settle(net, dst, report.attempts, answered);
        report.outcome
    }

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
            exchange(&session, &net, addr(2), policy);
        }
        for _ in 0..6 {
            exchange(&session, &net, addr(3), policy);
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
        exchange(&session, &net, addr(3), policy);
        assert!(!session.is_open(&net, addr(3)), "one failure, still closed");
        exchange(&session, &net, addr(3), policy);
        assert!(session.is_open(&net, addr(3)), "threshold reached");
        assert_eq!(session.stats().gave_up, 1);
        // Skipped while open.
        exchange(&session, &net, addr(3), policy);
        assert_eq!(session.stats().circuit_skipped, 1);
        // After the cooldown the half-open trial goes on the wire again
        // and, failing, re-opens the breaker immediately.
        net.advance(2_000_000);
        assert!(!session.is_open(&net, addr(3)));
        exchange(&session, &net, addr(3), policy);
        assert!(session.is_open(&net, addr(3)), "failed trial reopens");
        assert_eq!(session.stats().gave_up, 2);
        // A recovered target closes the breaker for good.
        net.advance(2_000_000);
        net.unregister(addr(3));
        net.register(addr(3), Rc::new(Echo));
        exchange(&session, &net, addr(3), policy);
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
            exchange(&session, &net, addr(3), RetryPolicy::fixed(1));
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
                exchange(&session, &net, addr(2), policy),
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
    fn only_a_servfail_that_spent_timeouts_is_booked_as_lost() {
        use dns_resolver::CostSnapshot;
        use dns_wire::rrtype::Rcode;
        let outcome = |rcode, budget_exceeded, timeouts| ResolveOutcome {
            rcode,
            authenticated: false,
            answers: Vec::new().into(),
            authorities: Vec::new().into(),
            ede: None,
            budget_exceeded,
            cost: CostSnapshot {
                timeouts,
                retries: 2,
                ..CostSnapshot::default()
            },
        };
        let session = ScanSession::default();
        // A budget abort is the resolver answering on purpose: an
        // observation, not loss, whatever timeouts it spent.
        let booked = [
            session.book(&outcome(Rcode::ServFail, true, 3)),
            session.book(&outcome(Rcode::ServFail, false, 3)),
            session.book(&outcome(Rcode::ServFail, false, 0)),
            session.book(&outcome(Rcode::NoError, false, 3)),
        ];
        assert_eq!(booked, [false, true, false, false]);
        let stats = session.stats();
        let counts = (stats.sent, stats.answered, stats.timed_out, stats.retried);
        assert_eq!(counts, (4, 3, 1, 8));
        assert!(stats.is_consistent(), "{stats:?}");
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
