//! The workspace's own deterministic random-number generator — the
//! substitute for the external `rand` crate, keeping the build 100 %
//! offline and every simulation bit-reproducible by seed.
//!
//! * [`Xoshiro256pp`] — xoshiro256++ (Blackman & Vigna), the workhorse
//!   generator: 256-bit state, fast, and with well-studied statistical
//!   quality. Seeded from a single `u64` through [`SplitMix64`] exactly as
//!   the reference implementation recommends.
//! * [`Rng`] — the sampling surface every consumer programs against:
//!   uniform ranges, booleans, floats, Fisher–Yates [`Rng::shuffle`],
//!   [`Rng::choose`]/[`Rng::choose_weighted`], and exponential jitter for
//!   latency models.
//!
//! # Seed-threading convention
//!
//! Nothing in this workspace ever seeds itself from the environment.
//! Every randomized component takes an explicit `u64` seed from its
//! caller and derives per-subsystem generators with
//! [`Xoshiro256pp::seed_from_u64`] (optionally XOR-ing a fixed
//! per-subsystem tag so two subsystems sharing a seed do not share a
//! stream). Two runs with the same seed are bit-identical; that is the
//! reproduction guarantee the experiments rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// SplitMix64 (Steele, Lea & Flood): a tiny, fast generator whose main
/// job here is turning one `u64` seed into well-mixed xoshiro state. The
/// reference xoshiro seeding procedure is exactly this.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a SplitMix64 stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the core generator (public domain reference by David
/// Blackman and Sebastiano Vigna). 2^256 − 1 period, passes BigCrush.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed from a single `u64` by taking four SplitMix64 outputs as the
    /// initial state — the reference-recommended procedure, and the one
    /// every call site in this workspace uses.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl Rng for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// A keyed pseudorandom **bijection** over `0..len`, evaluable in O(1)
/// per index — the random-access replacement for materialising a
/// Fisher–Yates shuffle of `0..len`.
///
/// Built as a 4-round Feistel network over the smallest balanced bit
/// width covering `len`, with cycle-walking to stay inside the domain:
/// if a round output lands at or beyond `len`, it is re-encrypted until
/// it falls inside. Because the underlying Feistel permutation is a
/// bijection on the padded power-of-two domain, cycle-walking preserves
/// bijectivity on `0..len` (Black & Rogaway, "Ciphers with Arbitrary
/// Finite Domains").
///
/// Population generation uses this to answer "which domain sits at
/// output position `i`?" without generating positions `0..i` first —
/// the property that makes sharded generation start mid-list.
#[derive(Clone, Copy, Debug)]
pub struct Permutation {
    len: u64,
    half_bits: u32,
    keys: [u64; 4],
}

impl Permutation {
    /// A permutation of `0..len` keyed by `key`. `len = 0` is allowed
    /// (the empty permutation; `apply` must then never be called).
    pub fn new(len: u64, key: u64) -> Self {
        let bits = 64 - len.saturating_sub(1).leading_zeros();
        let half_bits = bits.div_ceil(2).max(1);
        let mut sm = SplitMix64::new(key);
        Permutation {
            len,
            half_bits,
            keys: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    fn round(&self, r: u64, key: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        SplitMix64::new(r ^ key).next_u64() & mask
    }

    fn encrypt(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut left = (x >> self.half_bits) & mask;
        let mut right = x & mask;
        for &key in &self.keys {
            let next = left ^ self.round(right, key);
            left = right;
            right = next;
        }
        (left << self.half_bits) | right
    }

    /// The position `index` maps to. Panics if `index >= len`.
    pub fn apply(&self, index: u64) -> u64 {
        assert!(index < self.len, "Permutation::apply out of range");
        let mut x = self.encrypt(index);
        // Cycle-walk: the Feistel domain is the padded power of two, so
        // re-encrypt until we land back inside 0..len. Expected walk
        // length is < 4 because the padded domain is < 4·len.
        while x >= self.len {
            x = self.encrypt(x);
        }
        x
    }
}

/// Types that can be sampled uniformly from a half-open `lo..hi` range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Draw uniformly from `lo..hi`. Panics if the range is empty.
    fn sample<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add(bounded_u64(rng, span) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i32, i64);

impl SampleUniform for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range: empty range");
        let v = lo + next_f64(rng) * (hi - lo);
        // Floating rounding can land exactly on `hi`; clamp back inside.
        if v < hi {
            v
        } else {
            lo.max(prev_down(hi))
        }
    }
}

fn prev_down(x: f64) -> f64 {
    // Largest f64 strictly below a finite positive-or-negative x.
    if x == 0.0 {
        -f64::MIN_POSITIVE
    } else {
        let bits = x.to_bits();
        f64::from_bits(if x > 0.0 { bits - 1 } else { bits + 1 })
    }
}

/// Unbiased `0..span` via Lemire's multiply-shift rejection method
/// (`span == 0` means the full 64-bit range).
fn bounded_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    let mut x = rng.next_u64();
    let mut m = (x as u128) * (span as u128);
    let mut lo = m as u64;
    if lo < span {
        let threshold = span.wrapping_neg() % span;
        while lo < threshold {
            x = rng.next_u64();
            m = (x as u128) * (span as u128);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

fn next_f64<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // 53 random mantissa bits → uniform in [0, 1).
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The sampling interface. Only [`Rng::next_u64`] is required; everything
/// else derives from it, so any generator plugged in underneath yields
/// the same distributions.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        next_f64(self)
    }

    /// Uniform draw from the half-open range `r`. Panics on empty ranges.
    fn gen_range<T: SampleUniform>(&mut self, r: std::ops::Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample(self, r.start, r.end)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            true
        } else if p <= 0.0 {
            false
        } else {
            next_f64(self) < p
        }
    }

    /// Fisher–Yates shuffle in place.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = bounded_u64(self, i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` if the slice is empty.
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[bounded_u64(self, slice.len() as u64) as usize])
        }
    }

    /// An element chosen with probability proportional to `weight(item)`.
    /// Non-positive weights are never chosen; returns `None` if the slice
    /// is empty or all weights are non-positive.
    fn choose_weighted<'a, T, F>(&mut self, slice: &'a [T], weight: F) -> Option<&'a T>
    where
        F: Fn(&T) -> f64,
    {
        let total: f64 = slice.iter().map(|t| weight(t).max(0.0)).sum();
        // NaN totals (from NaN weights) must also bail out.
        if total.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return None;
        }
        let mut pick = next_f64(self) * total;
        let mut last = None;
        for item in slice {
            let w = weight(item).max(0.0);
            if w <= 0.0 {
                continue;
            }
            last = Some(item);
            if pick < w {
                return Some(item);
            }
            pick -= w;
        }
        last // floating-point slack lands on the last positive-weight item
    }

    /// An exponentially distributed jitter with the given mean — the
    /// standard model for network latency spread and retry backoff.
    fn exp_jitter(&mut self, mean: f64) -> f64 {
        assert!(mean >= 0.0, "exp_jitter: negative mean");
        -mean * (1.0 - next_f64(self)).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors for SplitMix64 computed from the published
    /// algorithm definition (the seed-0 head value 0xE220A8397B1DCDAF is
    /// the widely published test vector).
    #[test]
    fn splitmix64_reference_vectors() {
        let mut sm = SplitMix64::new(0);
        let head: Vec<u64> = (0..5).map(|_| sm.next_u64()).collect();
        assert_eq!(
            head,
            [
                0xE220A8397B1DCDAF,
                0x6E789E6AA1B965F4,
                0x06C45D188009454F,
                0xF88BB8A8724C81EC,
                0x1B39896A51A8749B,
            ]
        );
        let mut sm = SplitMix64::new(0x42);
        assert_eq!(sm.next_u64(), 0x2C1C719D2C17B759);
        assert_eq!(sm.next_u64(), 0xA211B519D9A09A1C);
        assert_eq!(sm.next_u64(), 0x747A952A1F10BFF5);
    }

    /// xoshiro256++ from the state {1, 2, 3, 4}, against outputs computed
    /// from the reference algorithm definition.
    #[test]
    fn xoshiro256pp_reference_vectors() {
        let mut rng = Xoshiro256pp { s: [1, 2, 3, 4] };
        let head: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(
            head,
            [
                0x0000000002800001,
                0x0000000003800067,
                0x000CC00003800067,
                0x000CC201994400B2,
                0x8012A2019AC433CD,
                0x8A69978ACDEE33BA,
                0xC271134733154ABD,
                0xAC2BA09179169E97,
            ]
        );
    }

    /// The u64-seeding path (SplitMix64 state fill) pinned end to end.
    #[test]
    fn seed_from_u64_pins_state_and_stream() {
        let rng = Xoshiro256pp::seed_from_u64(12345);
        assert_eq!(
            rng.s,
            [
                0x22118258A9D111A0,
                0x346EDCE5F713F8ED,
                0x1E9A57BC80E6721D,
                0x2D160E7E5C3F42CA
            ]
        );
        let mut rng = rng;
        let head: Vec<u64> = (0..6).map(|_| rng.next_u64()).collect();
        assert_eq!(
            head,
            [
                0x8D948A82DEF8A568,
                0x3477F953796702A0,
                0x15CAA2FCE6DB8D69,
                0x2CEF8853C20C6DD0,
                0x43FF3FFF9C039CD9,
                0xB9C18B4A72333287,
            ]
        );
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(7);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(8);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gen_range_respects_bounds_across_types() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let v = rng.gen_range(0usize..1);
            assert_eq!(v, 0);
            let v = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&v));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f), "{f}");
        }
    }

    #[test]
    fn gen_range_covers_small_ranges_uniformly() {
        // Chi-square-ish sanity: 8 buckets, 80k draws, each bucket within
        // 5 % of the expected 10k.
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_500..=10_500).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn gen_bool_frequency_matches_probability() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for &p in &[0.1, 0.5, 0.9] {
            let hits = (0..50_000).filter(|_| rng.gen_bool(p)).count() as f64;
            let rate = hits / 50_000.0;
            assert!((rate - p).abs() < 0.01, "p={p} observed {rate}");
        }
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(2.0));
        assert!(!rng.gen_bool(-1.0));
    }

    #[test]
    fn next_f64_is_half_open_unit() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for _ in 0..100_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            min = min.min(f);
            max = max.max(f);
        }
        assert!(min < 0.01 && max > 0.99, "range exercised: [{min}, {max}]");
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_stable() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<u32>>(),
            "100 elements left in place"
        );
        // Seed-stable.
        let mut rng2 = Xoshiro256pp::seed_from_u64(11);
        let mut v2: Vec<u32> = (0..100).collect();
        rng2.shuffle(&mut v2);
        assert_eq!(v, v2);
    }

    #[test]
    fn choose_uniform_and_empty() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        assert_eq!(rng.choose::<u8>(&[]), None);
        let items = [10u8, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &v = rng.choose(&items).unwrap();
            seen[(v / 10 - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weighted_choice_frequencies_within_tolerance() {
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let items = [("a", 70.0), ("b", 20.0), ("c", 10.0), ("zero", 0.0)];
        let trials = 100_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..trials {
            let (tag, _) = rng.choose_weighted(&items, |(_, w)| *w).unwrap();
            *counts.entry(*tag).or_insert(0u32) += 1;
        }
        assert_eq!(counts.get("zero"), None, "zero-weight item never chosen");
        for (tag, expected) in [("a", 0.70), ("b", 0.20), ("c", 0.10)] {
            let observed = *counts.get(tag).unwrap() as f64 / trials as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "{tag}: {observed} vs {expected}"
            );
        }
    }

    #[test]
    fn weighted_choice_degenerate_inputs() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert_eq!(rng.choose_weighted::<u8, _>(&[], |_| 1.0), None);
        assert_eq!(rng.choose_weighted(&[1u8, 2], |_| 0.0), None);
        assert_eq!(rng.choose_weighted(&[1u8, 2], |_| -3.0), None);
        assert_eq!(
            rng.choose_weighted(&[1u8, 2], |&v| f64::from(v == 2)),
            Some(&2)
        );
    }

    #[test]
    fn exp_jitter_mean_and_positivity() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let trials = 200_000;
        let mut sum = 0.0;
        for _ in 0..trials {
            let j = rng.exp_jitter(5.0);
            assert!(j >= 0.0);
            sum += j;
        }
        let mean = sum / trials as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert_eq!(rng.exp_jitter(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let _ = rng.gen_range(5u32..5);
    }

    #[test]
    fn permutation_is_a_bijection_for_awkward_lengths() {
        // Powers of two, one-off-powers, primes, and tiny domains.
        for len in [1u64, 2, 3, 4, 5, 7, 8, 9, 16, 17, 63, 64, 65, 97, 1000] {
            let perm = Permutation::new(len, 0xfeed);
            let mut seen = vec![false; len as usize];
            for i in 0..len {
                let j = perm.apply(i);
                assert!(j < len, "len {len}: {i} -> {j} out of range");
                assert!(!seen[j as usize], "len {len}: {j} hit twice");
                seen[j as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "len {len}: not surjective");
        }
    }

    #[test]
    fn permutation_is_keyed_and_deterministic() {
        let a = Permutation::new(500, 1);
        let b = Permutation::new(500, 1);
        let c = Permutation::new(500, 2);
        let va: Vec<u64> = (0..500).map(|i| a.apply(i)).collect();
        let vb: Vec<u64> = (0..500).map(|i| b.apply(i)).collect();
        let vc: Vec<u64> = (0..500).map(|i| c.apply(i)).collect();
        assert_eq!(va, vb, "same key, same permutation");
        assert_ne!(va, vc, "different key, different permutation");
        // And it actually scrambles: the identity would defeat the point.
        assert_ne!(va, (0..500).collect::<Vec<u64>>());
    }

    #[test]
    fn permutation_empty_and_singleton() {
        let _empty = Permutation::new(0, 9);
        let one = Permutation::new(1, 9);
        assert_eq!(one.apply(0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn permutation_apply_out_of_range_panics() {
        Permutation::new(10, 3).apply(10);
    }
}
