//! Replays of the layers that cannot be wrapped from outside: each runs
//! the layer's public entry point on the traced workload's own data (or
//! on a fixed synthetic input where the layer has no data-dependent
//! cost) and reports a unit cost. Every number from here is a *replay*,
//! not a measurement taken inside the driver, and is labelled so.

use std::hint::black_box;
use std::net::IpAddr;
use std::rc::Rc;
use std::time::Instant;

use dns_wire::message::Message;
use dns_wire::name::Name;
use dns_zone::nsec3hash::{clear_thread_cache, nsec3_hash, Nsec3Params};
use dns_zone::signer::{sign_zone, SignerConfig};
use dns_zone::Zone;
use netsim::event::{drive, FlowStep};
use netsim::{Network, Node};

use crate::stats::{median, ratio};

/// Rounds each unit-cost loop is repeated; the median round is reported.
const ROUNDS: usize = 5;

fn median_round_ns(mut round: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS).map(|_| round()).collect();
    median(&samples)
}

/// Re-sign every zone the traced run stood up, from a cold hash cache
/// (labs in the drivers sign names they have not seen before). Returns
/// total seconds.
pub fn sign_replay_s(jobs: &[(Zone, SignerConfig)]) -> f64 {
    clear_thread_cache();
    let t0 = Instant::now();
    for (zone, cfg) in jobs {
        black_box(sign_zone(black_box(zone), cfg).expect("lab zone signs"));
    }
    t0.elapsed().as_secs_f64()
}

/// `Message::decode` then `Message::encode` over the captured payloads:
/// `(decode ns per message, encode ns per message)`. Zero when nothing
/// was captured.
pub fn wire_replay_ns(payloads: &[Vec<u8>]) -> (f64, f64) {
    if payloads.is_empty() {
        return (0.0, 0.0);
    }
    let n = payloads.len() as f64;
    let mut decoded: Vec<Message> = Vec::with_capacity(payloads.len());
    let decode = median_round_ns(|| {
        decoded.clear();
        let t0 = Instant::now();
        for p in payloads {
            if let Ok(m) = Message::decode(black_box(p)) {
                decoded.push(m);
            }
        }
        t0.elapsed().as_nanos() as f64 / n
    });
    let mut buf = Vec::with_capacity(4096);
    let encode = median_round_ns(|| {
        let t0 = Instant::now();
        for m in &decoded {
            buf.clear();
            black_box(m).encode_append(&mut buf);
            black_box(&buf);
        }
        t0.elapsed().as_nanos() as f64 / decoded.len().max(1) as f64
    });
    (decode, encode)
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

/// `Network::send_query` against an echo node with a `payload_len`-byte
/// payload: nanoseconds per datagram (two per exchange).
pub fn echo_ns_per_datagram(payload_len: usize) -> f64 {
    const EXCHANGES: usize = 20_000;
    let net = Network::new(1);
    let src: IpAddr = "192.0.2.1".parse().expect("literal address");
    let dst: IpAddr = "192.0.2.2".parse().expect("literal address");
    net.register(dst, Rc::new(Echo));
    let payload = vec![0xA5u8; payload_len.max(12)];
    median_round_ns(|| {
        let t0 = Instant::now();
        for _ in 0..EXCHANGES {
            black_box(net.send_query(src, dst, black_box(&payload)));
        }
        t0.elapsed().as_nanos() as f64 / (2 * EXCHANGES) as f64
    })
}

/// `netsim::event::drive` over flows that park once and then finish,
/// `window` in flight: nanoseconds per step with no work in the step.
pub fn drive_ns_per_step(window: usize) -> f64 {
    const FLOWS: u64 = 50_000;
    median_round_ns(|| {
        let mut admitted = 0u64;
        let t0 = Instant::now();
        let stats = drive(
            window,
            || {
                (admitted < FLOWS).then(|| {
                    admitted += 1;
                    false
                })
            },
            |parked: &mut bool, due| {
                if *parked {
                    FlowStep::Done
                } else {
                    *parked = true;
                    FlowStep::Park { at_micros: due + 1 }
                }
            },
        );
        t0.elapsed().as_nanos() as f64 / black_box(stats).steps as f64
    })
}

/// Uncached `dns_zone::nsec3_hash` of distinct two-label names at
/// `iterations` with an empty salt: `(ns per hash, SHA-1 compressions
/// per hash)`.
pub fn nsec3_hash_ns(iterations: u16) -> (f64, f64) {
    const NAMES: usize = 256;
    let params = Nsec3Params::new(iterations, Vec::new());
    let names: Vec<Name> = (0..NAMES)
        .map(|i| Name::parse(&format!("host-{i:04}.example.")).expect("literal name"))
        .collect();
    let mut compressions = 0u64;
    let ns = median_round_ns(|| {
        compressions = 0;
        let t0 = Instant::now();
        for name in &names {
            compressions += black_box(nsec3_hash(black_box(name), &params)).compressions;
        }
        t0.elapsed().as_nanos() as f64 / NAMES as f64
    });
    (ns, ratio(compressions as f64, NAMES as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::rrtype::RrType;

    #[test]
    fn wire_replay_handles_empty_and_undecodable_payloads() {
        assert_eq!(wire_replay_ns(&[]), (0.0, 0.0));
        let query = Message::query(7, Name::parse("www.example.").unwrap(), RrType::A).encode();
        let (decode, encode) = wire_replay_ns(&[query, vec![0xFF; 3]]);
        assert!(decode > 0.0 && encode > 0.0);
    }

    #[test]
    fn hash_replay_counts_one_compression_per_iteration_on_short_names() {
        let (ns0, c0) = nsec3_hash_ns(0);
        let (ns150, c150) = nsec3_hash_ns(150);
        assert_eq!(c0, 1.0);
        assert_eq!(c150, 151.0);
        assert!(ns0 > 0.0 && ns150 > ns0);
    }

    #[test]
    fn unit_cost_loops_report_positive_times() {
        assert!(echo_ns_per_datagram(64) > 0.0);
        assert!(drive_ns_per_step(1) > 0.0);
        assert!(drive_ns_per_step(1024) > 0.0);
    }
}
