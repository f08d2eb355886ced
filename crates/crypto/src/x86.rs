//! SHA-1 and SHA-256 on the x86 SHA extensions: a SHA-1 block
//! compression, the NSEC3 iteration chain for single-block salts, and a
//! SHA-256 block compression. Each computes exactly what the portable code
//! in [`crate::sha1`] and [`crate::sha256`] computes; that code stays as
//! the fallback for other CPUs and as the oracle of the tests.
//!
//! **The transition hazard.** The SHA instructions have only legacy-SSE
//! encodings, and each one executed while a `ymm` upper half is dirty pays
//! an AVX→SSE transition. The workspace builds for the x86-64 baseline,
//! which has no AVX, and libc's AVX routines clear the upper halves before
//! they return; so no upper half is dirty here and the kernels carry no
//! guard. Built with `-C target-cpu=native` on an AVX host, LLVM built the
//! operands of a first kernel with 256-bit shuffles and kept them live
//! across the rounds: it ran ~45× slower than the portable code.
//! `bench_nsec3_hash`'s rows are what shows it.
//!
//! The three `unsafe` blocks are the workspace's only ones: calling a
//! `#[target_feature]` function is `unsafe` from code that does not enable
//! its features, and each call follows [`available`].

use core::arch::x86_64::*;

/// Whether this CPU runs the kernels: the SHA extensions, SSSE3
/// (`palignr`) and SSE4.1 (blends and extracts); SSE2 is baseline.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// `sha1::compress_block` on the SHA unit; `None` on a CPU without one.
pub(crate) fn sha1_compress(state: [u32; 5], block: &[u8; 64]) -> Option<[u32; 5]> {
    #[allow(unsafe_code)]
    // SAFETY: `available()` has found every feature `sha1_block` enables.
    available().then(|| unsafe { sha1_block(state, block) })
}

/// `iterations` compressions of the single padded block `template`, each
/// with the previous digest in its first five words and starting from
/// `H0`; `None` on a CPU without a SHA unit.
pub(crate) fn sha1_iterate(
    digest: [u32; 5],
    template: &[u8; 64],
    iterations: u16,
) -> Option<[u32; 5]> {
    #[allow(unsafe_code)]
    // SAFETY: `available()` has found every feature `sha1_chain` enables.
    available().then(|| unsafe { sha1_chain(digest, template, iterations) })
}

/// `sha256::compress_block` on the SHA unit; `None` on a CPU without one.
pub(crate) fn sha256_compress(state: [u32; 8], block: &[u8; 64]) -> Option<[u32; 8]> {
    #[allow(unsafe_code)]
    // SAFETY: `available()` has found every feature `sha256_block` enables.
    available().then(|| unsafe { sha256_block(state, block) })
}

/// Big-endian word `i` of `block`.
fn be(block: &[u8; 64], i: usize) -> i32 {
    i32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 octets"))
}

/// Words `i..i + 4` of `block`, the first in the top lane: how the SHA-1
/// instructions read the message and `abcd`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn sha1_words(block: &[u8; 64], i: usize) -> __m128i {
    _mm_set_epi32(
        be(block, i),
        be(block, i + 1),
        be(block, i + 2),
        be(block, i + 3),
    )
}

/// The four lanes of `v`, top lane first.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn lanes(v: __m128i) -> [u32; 4] {
    [
        _mm_extract_epi32::<3>(v) as u32,
        _mm_extract_epi32::<2>(v) as u32,
        _mm_extract_epi32::<1>(v) as u32,
        _mm_extract_epi32::<0>(v) as u32,
    ]
}

/// The 80 SHA-1 rounds over the message vectors `w` from `abcd` and `e`
/// (top lane), feed-forward included: the next `(abcd, e)`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn sha1_rounds(abcd: __m128i, e: __m128i, mut w: [__m128i; 4]) -> (__m128i, __m128i) {
    // Four rounds a step, unrolled. `cur` is the state the step starts
    // from and `prev` the one four rounds earlier, whose rotated `a` is
    // the `e` the step adds; `w[q % 4]` is message vector `q`, computed
    // from the four before it.
    let (mut prev, mut cur) = (abcd, abcd);
    macro_rules! steps {
        ($($q:literal)*) => {$(
            if $q >= 4 {
                let x = _mm_sha1msg1_epu32(w[$q % 4], w[($q + 1) % 4]);
                w[$q % 4] = _mm_sha1msg2_epu32(_mm_xor_si128(x, w[($q + 2) % 4]), w[($q + 3) % 4]);
            }
            let x = match $q {
                0 => _mm_add_epi32(e, w[0]),
                _ => _mm_sha1nexte_epu32(prev, w[$q % 4]),
            };
            (prev, cur) = (cur, _mm_sha1rnds4_epu32::<{ $q / 5 }>(cur, x));
        )*};
    }
    steps!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19);
    (_mm_add_epi32(abcd, cur), _mm_sha1nexte_epu32(prev, e))
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn sha1_block(state: [u32; 5], block: &[u8; 64]) -> [u32; 5] {
    let [a, b, c, d, e] = state.map(|s| s as i32);
    let w = [0, 4, 8, 12].map(|i| sha1_words(block, i));
    let (abcd, e) = sha1_rounds(_mm_set_epi32(a, b, c, d), _mm_set_epi32(e, 0, 0, 0), w);
    let [a, b, c, d] = lanes(abcd);
    [a, b, c, d, lanes(e)[0]]
}

/// The NSEC3 chain in registers. One compression's output `abcd` has the
/// layout of the next block's first message vector, and its `e` is
/// blended into the top lane of the second, beside salt words the
/// template fixes.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn sha1_chain(digest: [u32; 5], template: &[u8; 64], iterations: u16) -> [u32; 5] {
    let [a, b, c, d, e] = digest.map(|s| s as i32);
    let [h0, h1, h2, h3, h4] = crate::sha1::H0.map(|s| s as i32);
    let t = |i| be(template, i);
    let mut w0 = _mm_set_epi32(a, b, c, d);
    let mut w1 = _mm_set_epi32(e, t(5), t(6), t(7));
    let (w2, w3) = (sha1_words(template, 8), sha1_words(template, 12));
    let (h_abcd, h_e) = (_mm_set_epi32(h0, h1, h2, h3), _mm_set_epi32(h4, 0, 0, 0));
    for _ in 0..iterations {
        let (abcd, e) = sha1_rounds(h_abcd, h_e, [w0, w1, w2, w3]);
        w0 = abcd;
        // 16-bit lanes 6 and 7: the top word, `e`.
        w1 = _mm_blend_epi16::<0xC0>(w1, e);
    }
    let [a, b, c, d] = lanes(w0);
    [a, b, c, d, lanes(w1)[0]]
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn sha256_block(state: [u32; 8], block: &[u8; 64]) -> [u32; 8] {
    use crate::sha256::K;
    let [a, b, c, d, e, f, g, h] = state.map(|s| s as i32);
    // SHA-256 reads message words bottom lane first.
    let words = |i| {
        _mm_set_epi32(
            be(block, i + 3),
            be(block, i + 2),
            be(block, i + 1),
            be(block, i),
        )
    };
    let (abef_in, cdgh_in) = (_mm_set_epi32(a, b, e, f), _mm_set_epi32(c, d, g, h));
    let (mut abef, mut cdgh, mut w) = (abef_in, cdgh_in, [0, 4, 8, 12].map(words));
    // Four rounds a step, unrolled; `w[q % 4]` is message vector `q`,
    // computed from the four before it.
    macro_rules! steps {
        ($($q:literal)*) => {$(
            if $q >= 4 {
                let x = _mm_sha256msg1_epu32(w[$q % 4], w[($q + 1) % 4]);
                let x = _mm_add_epi32(x, _mm_alignr_epi8::<4>(w[($q + 3) % 4], w[($q + 2) % 4]));
                w[$q % 4] = _mm_sha256msg2_epu32(x, w[($q + 3) % 4]);
            }
            let k = |i: usize| K[4 * $q + i] as i32;
            let wk = _mm_add_epi32(w[$q % 4], _mm_set_epi32(k(3), k(2), k(1), k(0)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        )*};
    }
    steps!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
    let (abef, cdgh) = (_mm_add_epi32(abef, abef_in), _mm_add_epi32(cdgh, cdgh_in));
    let ([a, b, e, f], [c, d, g, h]) = (lanes(abef), lanes(cdgh));
    [a, b, c, d, e, f, g, h]
}
