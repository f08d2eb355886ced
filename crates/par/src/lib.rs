//! `sim-par` — deterministic fixed-shard parallelism, the workspace's
//! zero-dependency substitute for a rayon-style thread pool.
//!
//! The experiment drivers split their work list into **contiguous index
//! ranges** (shards), one per worker thread, instead of feeding a
//! work-stealing queue. Fixed sharding costs a little load balance but
//! buys the property the whole repository is built around: with results
//! merged strictly in shard order (= spec-index order), `threads = 1`
//! and `threads = N` produce **byte-identical output**. Completion order
//! never influences the result.
//!
//! Each shard carries its own seed, derived with [`sim_rng::SplitMix64`]
//! from the experiment seed and the shard index, so a worker can build
//! private randomized state (a lab network, an RNG stream) without
//! coordinating with its siblings. Consumers must keep per-item results
//! independent of shard composition for the byte-identity contract to
//! hold; `tests/determinism.rs` at the workspace root pins it end to end.
//!
//! Threads come from [`std::thread::scope`], so `work` may borrow from
//! the caller's stack and nothing outlives the call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

use sim_rng::SplitMix64;

/// Environment variable holding the default worker-thread count used by
/// [`default_threads`] (and therefore by every experiment driver whose
/// caller does not pass `--threads`).
pub(crate) const THREADS_ENV: &str = "HEROES_THREADS";

/// Upper bound on worker threads accepted from the environment or CLI.
pub const MAX_THREADS: usize = 64;

/// One contiguous slice of a work list, with its derived seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Shard position, 0-based. Also the merge position: shard 0's
    /// results come first in the merged output.
    pub index: usize,
    /// Total number of shards in this run.
    pub count: usize,
    /// First item index covered by this shard (inclusive).
    pub start: usize,
    /// One past the last item index covered by this shard.
    pub end: usize,
    /// Per-shard seed derived via `shard_seed`.
    pub seed: u64,
}

/// Derive the seed for shard `index` from the experiment seed: one
/// SplitMix64 step mixes the experiment seed, a second mixes in the
/// shard index. Distinct indices yield decorrelated streams even for
/// adjacent experiment seeds.
pub(crate) fn shard_seed(experiment_seed: u64, index: usize) -> u64 {
    let mixed = SplitMix64::new(experiment_seed).next_u64();
    SplitMix64::new(mixed.wrapping_add(index as u64)).next_u64()
}

/// Split `0..len` into at most `threads` balanced contiguous ranges.
/// Every range is non-empty; the first `len % shards` ranges hold one
/// extra item. Returns fewer ranges than `threads` when there are fewer
/// items than workers, and none at all for an empty list.
pub fn shard_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = threads.clamp(1, len);
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// The full shard plan for `len` items over `threads` workers, seeds
/// included.
pub fn shards(len: usize, threads: usize, experiment_seed: u64) -> Vec<Shard> {
    let ranges = shard_ranges(len, threads);
    let count = ranges.len();
    ranges
        .into_iter()
        .enumerate()
        .map(|(index, r)| Shard {
            index,
            count,
            start: r.start,
            end: r.end,
            seed: shard_seed(experiment_seed, index),
        })
        .collect()
}

/// One contiguous **index range** of a virtual work list, with its
/// derived seed — the streaming counterpart of [`Shard`] for work lists
/// that are generated on the fly (a Feistel-indexed population) rather
/// than materialised as a slice. Ranges are `u64` so a single shard plan
/// can span populations far larger than memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeShard {
    /// Shard position, 0-based. Also the merge position.
    pub index: usize,
    /// Total number of shards in this run.
    pub count: usize,
    /// First item index covered by this shard (inclusive).
    pub start: u64,
    /// One past the last item index covered by this shard.
    pub end: u64,
    /// Per-shard seed derived via `shard_seed`.
    pub seed: u64,
}

/// The full shard plan for a virtual work list of `len` items over
/// `threads` workers. Same balancing rule as [`shard_ranges`] (first
/// `len % shards` ranges get one extra item) and the same seed
/// derivation as [`shards`], so a [`RangeShard`] plan over `0..len` maps
/// one-to-one onto the [`Shard`] plan for a materialised list of the
/// same length.
pub fn range_shards(len: u64, threads: usize, experiment_seed: u64) -> Vec<RangeShard> {
    if len == 0 {
        return Vec::new();
    }
    let count = (threads as u64).clamp(1, len) as usize;
    let base = len / count as u64;
    let extra = len % count as u64;
    let mut out = Vec::with_capacity(count);
    let mut start = 0u64;
    for index in 0..count {
        let size = base + u64::from((index as u64) < extra);
        out.push(RangeShard {
            index,
            count,
            start,
            end: start + size,
            seed: shard_seed(experiment_seed, index),
        });
        start += size;
    }
    out
}

/// Run `work` over the virtual range `0..len` split into at most
/// `threads` contiguous [`RangeShard`]s, merging per-shard outputs **in
/// shard order** (never in completion order). A driver over a
/// materialised list indexes it with the shard's range. With one shard
/// the closure runs inline on the caller's thread; otherwise each shard
/// gets its own scoped thread, and a panic in any worker is re-raised
/// on the calling thread after the scope unwinds.
pub fn run_sharded_range<R, F>(len: u64, threads: usize, experiment_seed: u64, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(&RangeShard) -> R + Sync,
{
    let plan = range_shards(len, threads, experiment_seed);
    match plan.len() {
        0 => Vec::new(),
        1 => vec![work(&plan[0])],
        _ => {
            let mut merged = Vec::with_capacity(plan.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = plan
                    .iter()
                    .map(|shard| {
                        let work = &work;
                        scope.spawn(move || work(shard))
                    })
                    .collect();
                // Joining in spawn order IS the merge contract: parts
                // come out in shard order because ranges are contiguous
                // and ascending.
                for handle in handles {
                    match handle.join() {
                        Ok(part) => merged.push(part),
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
            });
            merged
        }
    }
}

/// Worker-thread count from the `HEROES_THREADS` environment variable,
/// clamped to `1..=`[`MAX_THREADS`]. Defaults to 1 (fully sequential)
/// when unset or unparsable — parallelism is strictly opt-in so plain
/// `cargo test` runs stay single-threaded and comparable.
#[allow(clippy::disallowed_methods)] // HEROES_THREADS is read here and nowhere else
pub fn default_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.clamp(1, MAX_THREADS))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_contiguously_and_balanced() {
        for len in [0usize, 1, 2, 5, 17, 64, 1000] {
            for threads in [0usize, 1, 2, 3, 8, 13] {
                let ranges = shard_ranges(len, threads);
                if len == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert_eq!(ranges.len(), threads.clamp(1, len));
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                    assert!(w[0].len() >= w[1].len(), "front-loaded balance");
                }
                let min = ranges.iter().map(Range::len).min().unwrap();
                let max = ranges.iter().map(Range::len).max().unwrap();
                assert!(max - min <= 1, "len {len} threads {threads}: {ranges:?}");
                assert!(min >= 1, "no empty shards");
            }
        }
    }

    #[test]
    fn fewer_items_than_threads_yields_one_item_shards() {
        let plan = shards(3, 8, 42);
        assert_eq!(plan.len(), 3);
        for (i, s) in plan.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.count, 3);
            assert_eq!(s.end - s.start, 1);
        }
        // And the degenerate empty list.
        assert!(shards(0, 8, 42).is_empty());
        assert_eq!(run_sharded_range(0, 8, 42, |_| 0u8), vec![]);
    }

    #[test]
    fn shard_seeds_are_distinct_and_deterministic() {
        let plan = shards(100, 8, 7);
        let mut seeds: Vec<u64> = plan.iter().map(|s| s.seed).collect();
        assert_eq!(
            seeds,
            shards(100, 8, 7).iter().map(|s| s.seed).collect::<Vec<_>>()
        );
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "8 distinct per-shard seeds");
        // A different experiment seed moves every shard seed.
        let other = shards(100, 8, 8);
        assert!(plan.iter().zip(&other).all(|(a, b)| a.seed != b.seed));
        // And the shard seed matches the documented derivation.
        assert_eq!(plan[3].seed, shard_seed(7, 3));
    }

    #[test]
    fn range_shards_match_slice_shards() {
        for len in [1u64, 2, 5, 17, 64, 1000] {
            for threads in [1usize, 2, 3, 8, 13] {
                let slice_plan = shards(len as usize, threads, 42);
                let range_plan = range_shards(len, threads, 42);
                assert_eq!(range_plan.len(), slice_plan.len());
                for (r, s) in range_plan.iter().zip(&slice_plan) {
                    assert_eq!(r.index, s.index);
                    assert_eq!(r.count, s.count);
                    assert_eq!(r.start, s.start as u64);
                    assert_eq!(r.end, s.end as u64);
                    assert_eq!(r.seed, s.seed);
                    assert!(r.start < r.end);
                }
            }
        }
        assert!(range_shards(0, 8, 42).is_empty());
    }

    #[test]
    fn range_merge_is_in_shard_order_for_any_thread_count() {
        let expected: u64 = (0..1000u64).map(|x| x * 3 + 1).sum();
        for threads in 1..=9 {
            let parts = run_sharded_range(1000, threads, 42, |shard| {
                (shard.start..shard.end).map(|x| x * 3 + 1).sum::<u64>()
            });
            assert_eq!(parts.len(), threads.clamp(1, 9).min(1000));
            assert_eq!(parts.iter().sum::<u64>(), expected, "threads = {threads}");
        }
        // Shard order, not completion order: tag parts by index.
        let tags = run_sharded_range(64, 8, 42, |shard| shard.index);
        assert_eq!(tags, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            run_sharded_range(16, 4, 42, |shard| {
                if shard.index == 2 {
                    panic!("shard 2 exploded");
                }
                shard.end - shard.start
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn default_threads_reads_env() {
        // Serial by construction: this is the only test touching the var.
        std::env::remove_var(THREADS_ENV);
        assert_eq!(default_threads(), 1);
        std::env::set_var(THREADS_ENV, "4");
        assert_eq!(default_threads(), 4);
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(default_threads(), 1, "clamped up");
        std::env::set_var(THREADS_ENV, "9999");
        assert_eq!(default_threads(), MAX_THREADS, "clamped down");
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(default_threads(), 1);
        std::env::remove_var(THREADS_ENV);
    }
}
