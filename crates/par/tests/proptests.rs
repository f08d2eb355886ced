//! Property tests for the fixed-shard scheduler: for arbitrary work
//! lists and thread counts, the sharded merge must equal the sequential
//! result element for element — the contract the experiment drivers'
//! byte-identity guarantee rests on.

use sim_check::{gens, props};
use sim_par::{run_sharded_range, shard_ranges, shards};

props! {
    #![cases = 64]

    /// Sharded map + merge equals the sequential map, in order, for any
    /// item list and 1–8 threads. Each shard indexes the list with its
    /// own range, as the drivers do, and the per-item function depends on
    /// the global item index to prove shards see their true positions.
    fn sharded_merge_matches_sequential(
        items in gens::vec_of(gens::u64s(..), 0..120),
        threads in gens::u64s(1..9),
    ) {
        let sequential: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x.wrapping_mul(31).wrapping_add(i as u64))
            .collect();
        let parts = run_sharded_range(items.len() as u64, threads as usize, 42, |shard| {
            (shard.start as usize..shard.end as usize)
                .map(|i| items[i].wrapping_mul(31).wrapping_add(i as u64))
                .collect::<Vec<u64>>()
        });
        assert_eq!(parts.concat(), sequential, "threads = {threads}");
    }

    /// Shard ranges partition `0..len` exactly for any len and thread
    /// count, with sizes differing by at most one.
    fn ranges_partition_exactly(
        len in gens::u64s(0..2_000),
        threads in gens::u64s(0..40),
    ) {
        let len = len as usize;
        let ranges = shard_ranges(len, threads as usize);
        let covered: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, len);
        let mut next = 0;
        for r in &ranges {
            assert_eq!(r.start, next, "contiguous ascending");
            assert!(!r.is_empty(), "no empty shards");
            next = r.end;
        }
        if let (Some(min), Some(max)) = (
            ranges.iter().map(|r| r.len()).min(),
            ranges.iter().map(|r| r.len()).max(),
        ) {
            assert!(max - min <= 1, "balanced: {ranges:?}");
        }
    }

    /// The shard plan is a pure function of (len, threads, seed), and
    /// per-shard seeds never collide within a plan.
    fn plan_is_deterministic_with_distinct_seeds(
        len in gens::u64s(1..500),
        threads in gens::u64s(1..9),
        seed in gens::u64s(..),
    ) {
        let a = shards(len as usize, threads as usize, seed);
        let b = shards(len as usize, threads as usize, seed);
        assert_eq!(a, b);
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        let count = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), count, "distinct per-shard seeds");
    }
}
