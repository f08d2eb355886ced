//! Query pacing, modeled on the paper's ethics section: the zdns scan ran
//! at 14.7 K requests/second on average, far below Cloudflare's capacity.
//!
//! In the simulation the limiter converts a target rate into virtual-clock
//! advancement, so experiment timelines reflect the configured pace.

use netsim::Network;

/// A token-style pacer: each `RateLimiter::pace` call advances the
/// virtual clock enough to hold the configured average rate.
#[derive(Debug)]
pub struct RateLimiter {
    interval_micros: u64,
}

impl RateLimiter {
    /// Limit to `per_second` queries per (virtual) second.
    pub(crate) fn new(per_second: u64) -> Self {
        let per_second = per_second.max(1);
        RateLimiter {
            interval_micros: 1_000_000 / per_second,
        }
    }

    /// Account for one query about to be sent, advancing virtual time.
    pub(crate) fn pace(&self, net: &Network) {
        if self.interval_micros > 0 {
            net.advance(self.interval_micros);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_advances_virtual_time() {
        let net = Network::new(1);
        let rl = RateLimiter::new(1000); // 1 ms per query
        let t0 = net.now_micros();
        for _ in 0..10 {
            rl.pace(&net);
        }
        assert_eq!(net.now_micros() - t0, 10_000);
    }

    #[test]
    fn zero_rate_clamped() {
        let rl = RateLimiter::new(0);
        assert_eq!(rl.interval_micros, 1_000_000);
    }
}
