//! The driver skeleton: what every study in this crate does the same
//! way, written once (DESIGN.md §8, "Driver skeleton").
//!
//! A driver is [`run_study`] plus a closure that turns one shard's index
//! range into that shard's part of the result. The closure gets a
//! [`ShardRun`], which owns the pieces no driver should write for
//! itself: the resolver stand-up on a fresh lab, the one call to the
//! event core, the park-by-index/drain-in-order discipline, and the
//! session whose [`ScanSession::book`] tells probe loss from a verdict.

use std::cell::Cell;
use std::ops::Range;

use dns_crypto::simsig::clear_verify_memo;
use dns_resolver::lab::Lab;
use dns_resolver::resolver::{Resolver, ResolverConfig};
use dns_scanner::retry::{ProbeStats, ScanSession};
use dns_zone::nsec3hash::clear_thread_cache;
use netsim::event::{drive, FlowStep};
use netsim::Network;

use crate::experiments::DriverConfig;

/// One shard of one study: the run's configuration, the shard's lab
/// seed, and the session every probe of the shard is booked in.
pub(crate) struct ShardRun<'a> {
    /// The run's configuration.
    pub cfg: &'a DriverConfig,
    /// Seed for this shard's labs.
    pub seed: u64,
    /// Loss accounting (and breaker state) for this shard's probes.
    pub session: ScanSession,
    high_water: Cell<usize>,
}

/// What [`run_study`] hands back: the shards' parts in shard order, and
/// the two things every report merges the same way.
pub(crate) struct StudyRun<P> {
    /// One part per shard, in shard (= index) order.
    pub parts: Vec<P>,
    /// Every shard's [`ProbeStats`], summed.
    pub probe_stats: ProbeStats,
    /// The deepest in-flight backlog any one drive saw.
    pub in_flight_high_water: usize,
}

/// Split `0..len` into contiguous shards over `cfg.threads` workers and
/// run `work` on each with its own [`ShardRun`]. The cut is the one
/// `sim_par` makes for a slice of the same length, so a driver over a
/// materialised list indexes `items[range]`.
///
/// A shard first empties its thread's NSEC3 hash cache and signature
/// memo, so no study's speed depends on what ran on the thread before.
pub(crate) fn run_study<P: Send>(
    len: usize,
    cfg: &DriverConfig,
    work: impl Fn(&ShardRun<'_>, Range<usize>) -> P + Sync,
) -> StudyRun<P> {
    let shards = sim_par::run_sharded_range(len as u64, cfg.threads, cfg.lab_seed, |shard| {
        clear_thread_cache();
        clear_verify_memo();
        let run = ShardRun {
            cfg,
            seed: shard.seed,
            session: ScanSession::new(cfg.profile.breaker),
            high_water: Cell::new(0),
        };
        let part = work(&run, shard.start as usize..shard.end as usize);
        (part, run.session.stats(), run.high_water.get())
    });
    let mut study = StudyRun {
        parts: Vec::with_capacity(shards.len()),
        probe_stats: ProbeStats::default(),
        in_flight_high_water: 0,
    };
    for (part, stats, high_water) in shards {
        study.parts.push(part);
        study.probe_stats.merge(&stats);
        study.in_flight_high_water = study.in_flight_high_water.max(high_water);
    }
    study
}

impl ShardRun<'_> {
    /// Put the profile's fault schedule on `lab`'s network and stand a
    /// validating resolver up in it: next free address, the lab's hints,
    /// anchor and epoch, the profile's retry policy, an unlimited
    /// RFC 9276 policy — then whatever `tune` changes.
    pub(crate) fn resolver(
        &self,
        lab: &mut Lab,
        tune: impl FnOnce(&mut ResolverConfig),
    ) -> Resolver {
        lab.net.set_schedule(self.cfg.profile.schedule.clone());
        let addr = lab.alloc.v4();
        let mut rcfg = ResolverConfig::validating(addr, lab.root_hints.clone(), lab.anchor.clone());
        rcfg.now = lab.now;
        rcfg.retry = self.cfg.profile.retry;
        tune(&mut rcfg);
        Resolver::new(rcfg)
    }

    /// Pump the flows `admit` yields through the event core under the
    /// run's effective window. Before each step `net`'s clock is brought
    /// up to the event's due time — the wait a blocking loop would have
    /// slept through.
    #[allow(clippy::disallowed_methods)] // the drivers' one event loop
    pub(crate) fn drive<F>(
        &self,
        net: &Network,
        admit: impl FnMut() -> Option<F>,
        mut step: impl FnMut(&mut F) -> FlowStep,
    ) {
        let stats = drive(self.cfg.effective_window(), admit, |flow, due| {
            net.advance_to(due);
            step(flow)
        });
        self.high_water
            .set(self.high_water.get().max(stats.in_flight_high_water));
    }

    /// [`ShardRun::drive`] over the indices `0..len`, results in index
    /// order however the flows interleave: `admit(i)` opens index `i`'s
    /// flow (`None` skips the index), and when a step reports
    /// [`FlowStep::Done`] `finish(i, flow)` turns the flow into its
    /// result inside that same step. Results wait in per-index slots, so
    /// completion order never leaks out.
    pub(crate) fn drive_indexed<F, T>(
        &self,
        net: &Network,
        len: usize,
        mut admit: impl FnMut(usize) -> Option<F>,
        mut step: impl FnMut(&mut F) -> FlowStep,
        mut finish: impl FnMut(usize, F) -> T,
    ) -> Vec<T> {
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(len, || None);
        let mut indices = 0..len;
        self.drive(
            net,
            || indices.find_map(|i| admit(i).map(|flow| (i, Some(flow)))),
            |(i, flow): &mut (usize, Option<F>)| {
                let next = step(flow.as_mut().expect("a finished flow is never stepped"));
                if next == FlowStep::Done {
                    slots[*i] = flow.take().map(|flow| finish(*i, flow));
                }
                next
            },
        );
        slots.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{DEFAULT_LAB_SEED, DEFAULT_WINDOW};

    fn cfg(threads: usize) -> DriverConfig {
        DriverConfig::clean(1_710_000_000, threads, DEFAULT_LAB_SEED)
    }

    #[test]
    fn drive_indexed_returns_index_order_whatever_the_completion_order() {
        // Index `i` of 9 needs `9 - i` steps a millisecond apart, so with
        // every flow in flight at once the highest index finishes first;
        // every third index is never admitted.
        let admitted = [0usize, 2, 3, 5, 6, 8];
        for (window, high_water) in [(1, 1), (DEFAULT_WINDOW, admitted.len())] {
            let run = run_study(1, &cfg(1).with_window(window), |shard, _| {
                let net = Network::new(shard.seed);
                let mut completed = Vec::new();
                let results = shard.drive_indexed(
                    &net,
                    9,
                    |i| (i % 3 != 1).then_some(9 - i),
                    |steps_left| {
                        *steps_left -= 1;
                        match *steps_left {
                            0 => FlowStep::Done,
                            _ => FlowStep::Park {
                                at_micros: net.now_micros() + 1_000,
                            },
                        }
                    },
                    |i, _| {
                        completed.push(i);
                        i * 10
                    },
                );
                (results, completed)
            });
            let (results, mut completed) = run.parts.into_iter().next().unwrap();
            assert_eq!(results, admitted.map(|i| i * 10), "window = {window}");
            assert_eq!(run.in_flight_high_water, high_water);
            if window > 1 {
                completed.reverse();
            }
            assert_eq!(completed, admitted, "window = {window}");
        }
    }

    #[test]
    fn run_study_merges_parts_in_shard_order_and_sums_probe_stats() {
        for threads in [1usize, 3, 64] {
            let run = run_study(5, &cfg(threads), |shard, range| {
                range.clone().for_each(|_| shard.session.note_answered(1));
                range
            });
            assert_eq!(run.parts.len(), threads.min(5), "threads = {threads}");
            let covered: Vec<usize> = run.parts.into_iter().flatten().collect();
            assert_eq!(covered, [0, 1, 2, 3, 4], "threads = {threads}");
            assert_eq!((run.probe_stats.sent, run.probe_stats.retried), (5, 5));
        }
        assert!(run_study(0, &cfg(4), |_, _| ()).parts.is_empty());
    }
}
