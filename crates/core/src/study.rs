//! The driver skeleton: what every study in this crate does the same
//! way, written once (DESIGN.md §8, "Driver skeleton").
//!
//! A driver is [`run_study`] plus a closure that turns one shard's index
//! range into that shard's part of the result. The closure gets a
//! [`ShardRun`], which owns the pieces no driver should write for
//! itself: the cut into units, the fault key of a unit's lab, the
//! resolver stand-up on a fresh lab, the one call to the event core, the
//! park-by-index/drain-in-order discipline, and the session whose
//! [`ScanSession::book`] tells probe loss from a verdict.

use std::cell::Cell;
use std::ops::Range;

use dns_crypto::simsig::clear_verify_memo;
use dns_resolver::lab::Lab;
use dns_resolver::resolver::{Resolver, ResolverConfig};
use dns_scanner::retry::{ProbeStats, ScanSession};
use dns_zone::nsec3hash::clear_thread_cache;
use netsim::event::{drive, FlowStep};
use netsim::{FaultSchedule, Network};
use sim_rng::SplitMix64;

use crate::experiments::DriverConfig;

/// One shard of one study: the run's configuration, the shard's lab
/// seed and units, and the session every probe of the shard is booked in.
pub(crate) struct ShardRun<'a> {
    /// The run's configuration.
    pub cfg: &'a DriverConfig,
    /// Seed for this shard's labs.
    pub seed: u64,
    /// Loss accounting (and breaker state) for this shard's probes.
    pub session: ScanSession,
    range: Range<usize>,
    unit: usize,
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

/// Cut `0..len` into units, unit `k` being `[k·unit, (k+1)·unit)` at
/// every thread count, and run `work` on each of at most `cfg.threads`
/// shards of whole units with the shard's index range and [`ShardRun`].
/// A shard first empties its thread's NSEC3 hash cache and signature
/// memo, so no study's speed depends on what ran on the thread before.
pub(crate) fn run_study<P: Send>(
    len: usize,
    unit: usize,
    cfg: &DriverConfig,
    work: impl Fn(&ShardRun<'_>, Range<usize>) -> P + Sync,
) -> StudyRun<P> {
    let unit = unit.max(1);
    let units = len.div_ceil(unit) as u64;
    let shards = sim_par::run_sharded_range(units, cfg.threads, cfg.lab_seed, |shard| {
        clear_thread_cache();
        clear_verify_memo();
        let range = shard.start as usize * unit..len.min(shard.end as usize * unit);
        let run = ShardRun {
            cfg,
            seed: shard.seed,
            session: ScanSession::new(cfg.profile.breaker),
            range: range.clone(),
            unit,
            high_water: Cell::new(0),
        };
        let part = work(&run, range);
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
    /// The shard's units in index order, each as its population indices.
    pub(crate) fn units(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let firsts = self.range.clone().step_by(self.unit);
        firsts.map(|first| first..self.range.end.min(first + self.unit))
    }

    /// The profile's fault schedule for the unit starting at index
    /// `first`, which one `SplitMix64` step mixes into the seed: every
    /// unit's lab hands out the same addresses and flow counters, so
    /// without it each unit would meet the same flow-keyed faults.
    fn schedule(&self, first: usize) -> FaultSchedule {
        debug_assert_eq!(first % self.unit, 0, "index {first} starts no unit");
        let mut schedule = self.cfg.profile.schedule.clone();
        schedule.seed = SplitMix64::new(schedule.seed.wrapping_add(first as u64)).next_u64();
        schedule
    }

    /// Put the profile's fault schedule, keyed by the unit that starts
    /// at population index `first`, on `lab`'s network and stand a
    /// validating resolver up in it: next free address, the lab's hints,
    /// anchor and epoch, the profile's retry policy, an unlimited
    /// RFC 9276 policy — then whatever `tune` changes.
    pub(crate) fn resolver(
        &self,
        lab: &mut Lab,
        first: usize,
        tune: impl FnOnce(&mut ResolverConfig),
    ) -> Resolver {
        lab.net.set_schedule(self.schedule(first));
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
            let run = run_study(1, 1, &cfg(1).with_window(window), |shard, _| {
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
        // 200 items: 200 units of 1, 29 of 7 (the last of 4), 4 of 64
        // (the last of 8).
        for unit in [1usize, 7, 64] {
            let units = 200usize.div_ceil(unit);
            for threads in [1usize, 3, 64] {
                let run = run_study(200, unit, &cfg(threads), |shard, range| {
                    range.clone().for_each(|_| shard.session.note_answered(1));
                    let units: Vec<Range<usize>> = shard.units().collect();
                    assert!(units.iter().cloned().flatten().eq(range.clone()));
                    (range, units)
                });
                let at = format!("unit = {unit}, threads = {threads}");
                assert_eq!(run.parts.len(), threads.min(units), "{at}");
                let mut next = 0;
                for (range, _) in &run.parts {
                    assert_eq!(range.start, next, "{at}");
                    assert!(range.end % unit == 0 || range.end == 200, "{at}: {range:?}");
                    next = range.end;
                }
                assert_eq!(next, 200, "{at}");
                let cut: Vec<Range<usize>> = run.parts.into_iter().flat_map(|(_, u)| u).collect();
                let whole: Vec<Range<usize>> = (0..units)
                    .map(|k| k * unit..200.min((k + 1) * unit))
                    .collect();
                assert_eq!(cut, whole, "{at}");
                assert_eq!((run.probe_stats.sent, run.probe_stats.retried), (200, 200));
            }
        }
        assert!(run_study(0, 7, &cfg(4), |_, _| ()).parts.is_empty());
    }

    #[test]
    fn a_units_fault_seed_is_its_own_whichever_shard_runs_it() {
        let mut lossy = cfg(1).profile;
        lossy.schedule.seed = 0x9276;
        // Each unit's first index and fault seed, in index order.
        let seeds = |threads| {
            let cfg = cfg(threads).with_profile(lossy.clone());
            let run = run_study(20, 7, &cfg, |shard, _| {
                let firsts = shard.units().map(|unit| unit.start);
                firsts
                    .map(|first| (first, shard.schedule(first).seed))
                    .collect::<Vec<_>>()
            });
            run.parts.concat()
        };
        let one = seeds(1);
        assert_eq!(
            one.iter().map(|(first, _)| *first).collect::<Vec<_>>(),
            [0, 7, 14]
        );
        let distinct: std::collections::BTreeSet<u64> = one.iter().map(|(_, seed)| *seed).collect();
        assert_eq!(
            distinct.len(),
            3,
            "units of one shard share a fault seed: {one:?}"
        );
        assert!(
            !distinct.contains(&0x9276),
            "a unit runs under the bare profile seed"
        );
        for threads in [2, 3] {
            assert_eq!(seeds(threads), one, "threads = {threads}");
        }
    }
}
