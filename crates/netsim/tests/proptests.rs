//! Property-based tests for the simulated network: determinism, loss
//! statistics, and clock monotonicity under arbitrary fault configs.

use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;

use netsim::{Episode, EpisodeKind, FaultSchedule, Network, Node, Outcome, Scope};
use sim_check::{gens, props};

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

fn addr(last: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
}

/// Random loss at `drop` and corruption at `corrupt` on every leg, every
/// decision keyed by `seed` and the flow.
fn noisy(seed: u64, drop: f64, corrupt: f64) -> FaultSchedule {
    FaultSchedule {
        seed,
        episodes: vec![
            Episode::always(EpisodeKind::Flap {
                scope: Scope::All,
                drop_chance: drop,
            }),
            Episode::always(EpisodeKind::Corrupt {
                scope: Scope::All,
                chance: corrupt,
            }),
        ],
        ..Default::default()
    }
}

props! {
    /// Identical seeds and fault configs produce identical outcome
    /// sequences; the virtual clock never goes backwards.
    fn deterministic_and_monotone(
        seed in gens::u64s(..),
        drop in gens::f64s(0.0..0.9),
        corrupt in gens::f64s(0.0..0.9),
        n in gens::usizes(1..40),
    ) {
        let run = || {
            let net = Network::new(seed);
            net.register(addr(2), Rc::new(Echo));
            net.set_schedule(noisy(seed, drop, corrupt));
            let mut outcomes = Vec::new();
            let mut last_clock = 0;
            for _ in 0..n {
                let o = matches!(net.send_query(addr(1), addr(2), b"payload"), Outcome::Response { .. });
                assert!(net.now_micros() >= last_clock);
                last_clock = net.now_micros();
                outcomes.push(o);
            }
            outcomes
        };
        assert_eq!(run(), run());
    }

    /// With zero faults every exchange succeeds; with certain loss nothing
    /// does.
    fn loss_extremes(seed in gens::u64s(..), n in gens::usizes(1..20)) {
        let net = Network::new(seed);
        net.register(addr(2), Rc::new(Echo));
        for _ in 0..n {
            let ok = matches!(net.send_query(addr(1), addr(2), b"x"), Outcome::Response { .. });
            assert!(ok);
        }
        net.set_schedule(noisy(seed, 1.0, 0.0));
        for _ in 0..n {
            assert_eq!(net.send_query(addr(1), addr(2), b"x"), Outcome::Timeout);
        }
    }

    /// Observed loss rate over many samples lands near the configured
    /// probability (per-exchange success = both legs survive).
    fn loss_rate_statistics(seed in gens::u64s(..)) {
        let net = Network::new(seed);
        net.register(addr(2), Rc::new(Echo));
        let p = 0.2f64;
        net.set_schedule(noisy(seed, p, 0.0));
        let trials = 600;
        let mut ok = 0;
        for _ in 0..trials {
            if matches!(net.send_query(addr(1), addr(2), b"x"), Outcome::Response { .. }) {
                ok += 1;
            }
        }
        let expected = (1.0 - p) * (1.0 - p);
        let observed = ok as f64 / trials as f64;
        assert!((observed - expected).abs() < 0.08, "observed {observed}, expected {expected}");
    }

    /// Corruption preserves length and flips at most one bit per leg.
    fn corruption_is_single_bit_per_leg(seed in gens::u64s(..), len in gens::usizes(1..64)) {
        let net = Network::new(seed);
        net.register(addr(2), Rc::new(Echo));
        net.set_schedule(noisy(seed, 0.0, 1.0));
        let payload = vec![0u8; len];
        if let Outcome::Response { payload: got, .. } = net.send_query(addr(1), addr(2), &payload) {
            assert_eq!(got.len(), len);
            let flipped: u32 = got.iter().map(|b| b.count_ones()).sum();
            // Each leg flips exactly one bit; the two flips may cancel.
            assert!(flipped <= 2, "at most one bit per leg: {flipped}");
        }
    }
}
