//! Message accounting closes: for every way the network can treat a
//! datagram, `delivered_count() + lost_count()` equals the legs the
//! endpoints put on the wire, and the sender sees the `Outcome` that
//! treatment implies.
//!
//! The terms, stated once. A `send_query` puts one request leg on the
//! wire, and one reply leg if the handler ran and answered. A leg is
//! counted delivered or lost, never both — except a request toward an
//! address with no node, which is counted as neither (the sender learns
//! `NoRoute` at once; nothing travelled). A duplicated request runs the
//! handler twice but is one delivered leg, and the duplicate's reply is
//! discarded before it becomes a leg: `handler runs = request legs
//! delivered + duplicates`.

use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;

use netsim::{Episode, EpisodeKind, FaultSchedule, Network, Node, Outcome, Scope};

const EXCHANGES: u64 = 20;

/// Echoes the payload and counts how often its handler ran.
#[derive(Default)]
struct CountingEcho {
    handled: Cell<u64>,
}

impl Node for CountingEcho {
    fn handle(&self, _: &Network, _: IpAddr, payload: &[u8], reply: &mut Vec<u8>) -> Option<()> {
        self.handled.set(self.handled.get() + 1);
        reply.extend_from_slice(payload);
        Some(())
    }
}

/// Forwards every datagram to itself: the handler loop.
struct SelfRelay(IpAddr);

impl Node for SelfRelay {
    fn handle(&self, net: &Network, _: IpAddr, payload: &[u8], _: &mut Vec<u8>) -> Option<()> {
        let inner = net.send_query(self.0, self.0, payload);
        assert_eq!(
            inner,
            Outcome::Timeout,
            "re-entry is dropped, not recursed into"
        );
        None
    }
}

fn addr(last: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
}

/// What `EXCHANGES` queries from `addr(1)` to `addr(2)` must add up to.
#[derive(Default)]
struct Expect {
    /// Exchanges answered; the rest time out (or, with `no_route`, are refused a route).
    responses: u64,
    delivered: u64,
    lost: u64,
    /// Handler runs at `addr(2)`.
    handled: u64,
    /// Duplicated requests: handler runs that are not legs.
    duplicates: u64,
    /// Request legs toward an unregistered address: counted by neither side.
    no_route: u64,
}

fn always(kind: EpisodeKind) -> FaultSchedule {
    FaultSchedule {
        episodes: vec![Episode::always(kind)],
        ..FaultSchedule::default()
    }
}

fn run(kind: &str, schedule: FaultSchedule, register: bool, payload: &[u8], expect: Expect) {
    let net = Network::new(7);
    let node = Rc::new(CountingEcho::default());
    if register {
        net.register(addr(2), node.clone());
    }
    net.set_schedule(schedule);
    let mut responses = 0;
    for _ in 0..EXCHANGES {
        match net.send_query(addr(1), addr(2), payload) {
            Outcome::Response { .. } => responses += 1,
            Outcome::Timeout => assert_eq!(expect.no_route, 0, "{kind}: timeout without a route"),
            Outcome::NoRoute => assert!(expect.no_route > 0, "{kind}: route expected"),
        }
    }
    assert_eq!(responses, expect.responses, "{kind}: responses");
    assert_eq!(net.delivered_count(), expect.delivered, "{kind}: delivered");
    assert_eq!(net.lost_count(), expect.lost, "{kind}: lost");
    assert_eq!(node.handled.get(), expect.handled, "{kind}: handler runs");
    let reply_legs = expect.handled - expect.duplicates;
    assert_eq!(
        net.delivered_count() + net.lost_count() + expect.no_route,
        EXCHANGES + reply_legs,
        "{kind}: delivered + lost closes against request legs + reply legs"
    );
}

#[test]
fn accounting_closes_per_fault_kind() {
    let n = EXCHANGES;
    let all_lost_on_request = || Expect {
        lost: n,
        ..Expect::default()
    };
    let dst = Scope::Addr(addr(2));

    run(
        "clean",
        FaultSchedule::default(),
        true,
        b"query",
        Expect {
            responses: n,
            delivered: 2 * n,
            handled: n,
            ..Expect::default()
        },
    );
    run(
        "drop",
        always(EpisodeKind::Flap {
            scope: Scope::All,
            drop_chance: 1.0,
        }),
        true,
        b"query",
        all_lost_on_request(),
    );
    // A corrupted datagram is still a delivered one.
    run(
        "corrupt",
        always(EpisodeKind::Corrupt {
            scope: Scope::All,
            chance: 1.0,
        }),
        true,
        b"query",
        Expect {
            responses: n,
            delivered: 2 * n,
            handled: n,
            ..Expect::default()
        },
    );
    // The duplicate term: twice the handler runs, the same legs.
    run(
        "duplicate",
        always(EpisodeKind::Duplicate {
            scope: Scope::All,
            chance: 1.0,
        }),
        true,
        b"query",
        Expect {
            responses: n,
            delivered: 2 * n,
            handled: 2 * n,
            duplicates: n,
            ..Expect::default()
        },
    );
    run(
        "size limit",
        FaultSchedule {
            size_limit: Some(4),
            ..FaultSchedule::default()
        },
        true,
        b"query",
        all_lost_on_request(),
    );
    run(
        "outage",
        always(EpisodeKind::Outage { scope: dst }),
        true,
        b"query",
        all_lost_on_request(),
    );
    run(
        "flap",
        always(EpisodeKind::Flap {
            scope: dst,
            drop_chance: 1.0,
        }),
        true,
        b"query",
        all_lost_on_request(),
    );
    // Five tokens and no refill inside the run: five exchanges complete,
    // the other requests vanish at the limiter. Replies are never limited.
    run(
        "rate limit",
        always(EpisodeKind::RateLimit {
            scope: dst,
            capacity: 5,
            refill_interval_micros: u64::MAX / 2,
        }),
        true,
        b"query",
        Expect {
            responses: 5,
            delivered: 10,
            lost: n - 5,
            handled: 5,
            ..Expect::default()
        },
    );
    run(
        "partition",
        always(EpisodeKind::Partition {
            a: Scope::Addr(addr(1)),
            b: dst,
        }),
        true,
        b"query",
        all_lost_on_request(),
    );
    run(
        "no route",
        FaultSchedule::default(),
        false,
        b"query",
        Expect {
            no_route: n,
            ..Expect::default()
        },
    );
}

/// The handler loop: the outer request is delivered, the relay's request
/// to itself is dropped as a loop, the relay stays silent and the sender
/// times out — two legs per exchange, one delivered and one lost.
#[test]
fn accounting_closes_under_a_handler_loop() {
    let net = Network::new(7);
    net.register(addr(2), Rc::new(SelfRelay(addr(2))));
    for _ in 0..EXCHANGES {
        assert_eq!(net.send_query(addr(1), addr(2), b"query"), Outcome::Timeout);
    }
    assert_eq!(net.delivered_count(), EXCHANGES);
    assert_eq!(net.lost_count(), EXCHANGES);
}
