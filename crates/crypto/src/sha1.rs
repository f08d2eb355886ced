//! SHA-1 (FIPS 180-4), implemented from scratch.
//!
//! SHA-1 is cryptographically broken for collision resistance, but it is the
//! *only* hash algorithm assigned for NSEC3 (RFC 5155 §11, algorithm 1), so a
//! faithful NSEC3 implementation must carry it. Two implementations share
//! one compression function, which runs on the CPU's SHA unit where it has
//! one (see the crate docs):
//!
//! * [`IteratedSha1`] — the hot-path API used by NSEC3 hashing, which
//!   avoids per-call hasher construction and byte-at-a-time padding
//!   entirely. Cost is accounted arithmetically, and exactly: padding
//!   appends `0x80`, zeros to 56 mod 64, and an 8-byte length, so a
//!   `len`-byte message always occupies `(len + 9).div_ceil(64)` blocks.
//! * [`Sha1`] — the streaming Merkle–Damgård construction, written
//!   independently of the engine so that the NSEC3 oracle
//!   (`dns_zone::nsec3hash::nsec3_hash_reference`) built on it keeps the
//!   differential tests meaningful.

pub(crate) const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Run the SHA-1 compression function over one 64-byte block, updating
/// `state` in place: on the CPU's SHA unit where it has one, else
/// [`compress_words_portable`].
pub(crate) fn compress_block(state: &mut [u32; 5], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(next) = crate::x86::sha1_compress(*state, block) {
        *state = next;
        return;
    }
    compress_words_portable(state, &block_words(block));
}

/// A block as sixteen big-endian words.
fn block_words(block: &[u8; 64]) -> [u32; 16] {
    core::array::from_fn(|i| {
        u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 octets"))
    })
}

/// The compression function in plain Rust, over a block already split
/// into words: the fallback on CPUs without a SHA unit and the oracle the
/// hardware kernels are tested against.
///
/// The round function is unrolled into its four 20-round phases so the
/// per-round `f`/`k` selection compiles away. The message schedule is a
/// rolling 16-word window computed inside the round loops
/// (`w[i] ≡ w[i mod 16]`, with `i-3 ≡ i+13`, `i-8 ≡ i+8`, `i-14 ≡ i+2`
/// mod 16) instead of a precomputed 80-word array.
fn compress_words_portable(state: &mut [u32; 5], words: &[u32; 16]) {
    let mut w = *words;
    let [mut a, mut b, mut c, mut d, mut e] = *state;

    macro_rules! schedule {
        ($i:expr) => {{
            let t = (w[($i + 13) & 15] ^ w[($i + 8) & 15] ^ w[($i + 2) & 15] ^ w[$i & 15])
                .rotate_left(1);
            w[$i & 15] = t;
            t
        }};
    }
    macro_rules! round {
        ($f:expr, $k:expr, $wi:expr) => {{
            let wi = $wi;
            let tmp = a
                .rotate_left(5)
                .wrapping_add($f)
                .wrapping_add(e)
                .wrapping_add($k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }};
    }

    for &wi in words.iter() {
        round!((b & c) | ((!b) & d), 0x5A827999, wi);
    }
    for i in 16..20 {
        round!((b & c) | ((!b) & d), 0x5A827999, schedule!(i));
    }
    for i in 20..40 {
        round!(b ^ c ^ d, 0x6ED9EBA1, schedule!(i));
    }
    for i in 40..60 {
        round!((b & c) | (b & d) | (c & d), 0x8F1BBCDC, schedule!(i));
    }
    for i in 60..80 {
        round!(b ^ c ^ d, 0xCA62C1D6, schedule!(i));
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// Number of 64-byte SHA-1 blocks a `len`-byte message occupies once padded:
/// the currency of the CVE-2023-50868 cost model, computed without hashing.
pub(crate) const fn padded_blocks(len: usize) -> u64 {
    (len + 9).div_ceil(64) as u64
}

fn digest_bytes(state: &[u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One-shot SHA-1 state over a slice with no hasher construction and
/// slice-copy padding. Equal to what [`sha1`] computes; costs
/// [`padded_blocks`]`(data.len())` compressions.
fn sha1_oneshot_state(data: &[u8]) -> [u32; 5] {
    let mut state = H0;
    let mut chunks = data.chunks_exact(64);
    for block in &mut chunks {
        let arr: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
        compress_block(&mut state, arr);
    }
    let rest = chunks.remainder();
    let mut block = [0u8; 64];
    block[..rest.len()].copy_from_slice(rest);
    block[rest.len()] = 0x80;
    if rest.len() + 9 > 64 {
        compress_block(&mut state, &block);
        block = [0u8; 64];
    }
    let bit_len = (data.len() as u64).wrapping_mul(8);
    block[56..].copy_from_slice(&bit_len.to_be_bytes());
    compress_block(&mut state, &block);
    state
}

/// The NSEC3 iterated-hash engine (RFC 5155 §5): repeated SHA-1 over
/// `digest || salt` with the padding precomputed.
///
/// The padded iteration message (digest slot, salt, `0x80`, bit length)
/// is built **once** per parameter set; each iteration only writes the
/// digest into its head. For salt ≤ `MAX_SINGLE_BLOCK_SALT` (35)
/// bytes — every parameter set observed in the wild uses 0–16 — that
/// message is `20 + salt_len ≤ 55` bytes, exactly one padded block, and
/// the whole chain runs as one compression per iteration (in registers on
/// a CPU with a SHA unit). Longer salts run every block of the message.
#[derive(Clone, Debug)]
pub struct IteratedSha1 {
    /// The padded iteration message: the digest slot `[0..20]` zeroed, the
    /// salt at `[20..20 + salt_len]`.
    message: Padded,
    salt_len: usize,
}

/// A padded iteration message, one block or several. One block is held
/// inline because `nsec3_hash` builds an engine per name: a heap buffer
/// would allocate per name, and an inline one sized for the longest salt
/// (320 octets) slowed an iteration-0 hash by a sixth.
#[derive(Clone, Debug)]
enum Padded {
    Block([u8; 64]),
    Blocks(Box<[u8]>),
}

impl IteratedSha1 {
    /// Longest salt for which `20 + salt_len + 9 ≤ 64`, i.e. one padded
    /// block per iteration.
    pub(crate) const MAX_SINGLE_BLOCK_SALT: usize = 35;

    /// Build the engine for one parameter set (one salt).
    pub fn new(salt: &[u8]) -> Self {
        let total = 20 + salt.len();
        let pad = |message: &mut [u8]| {
            message[20..total].copy_from_slice(salt);
            message[total] = 0x80;
            let tail = message.len() - 8;
            message[tail..].copy_from_slice(&(total as u64 * 8).to_be_bytes());
        };
        let message = if salt.len() <= Self::MAX_SINGLE_BLOCK_SALT {
            let mut block = [0u8; 64];
            pad(&mut block);
            Padded::Block(block)
        } else {
            let mut blocks = vec![0u8; padded_blocks(total) as usize * 64].into_boxed_slice();
            pad(&mut blocks);
            Padded::Blocks(blocks)
        };
        IteratedSha1 {
            message,
            salt_len: salt.len(),
        }
    }

    fn salt(&self) -> &[u8] {
        let message: &[u8] = match &self.message {
            Padded::Block(block) => block,
            Padded::Blocks(blocks) => blocks,
        };
        &message[20..20 + self.salt_len]
    }

    /// `H(... H(H(input || salt) || salt) ...)` with `iterations`
    /// *additional* iterations, returning the digest and the exact number of
    /// compression-function invocations spent (identical to what the
    /// streaming reference performs).
    pub fn hash(&self, input: &[u8], iterations: u16) -> ([u8; 20], u64) {
        let compressions = padded_blocks(input.len() + self.salt_len)
            + u64::from(iterations) * padded_blocks(20 + self.salt_len);
        let mut dw = self.initial(input);
        match &self.message {
            Padded::Block(template) => dw = chain(template, dw, iterations),
            Padded::Blocks(message) => {
                let mut message = message.clone();
                for _ in 0..iterations {
                    message[..20].copy_from_slice(&digest_bytes(&dw));
                    dw = H0;
                    for block in message.chunks_exact(64) {
                        compress_block(&mut dw, block.try_into().expect("64-octet blocks"));
                    }
                }
            }
        }
        (digest_bytes(&dw), compressions)
    }

    /// `H(input || salt)` — the iteration-0 hash, as state words.
    fn initial(&self, input: &[u8]) -> [u32; 5] {
        let total = input.len() + self.salt_len;
        if total <= 55 {
            // `input || salt` fits one padded block: build it in place.
            let mut block = [0u8; 64];
            block[..input.len()].copy_from_slice(input);
            block[input.len()..total].copy_from_slice(self.salt());
            block[total] = 0x80;
            let bit_len = (total as u64) * 8;
            block[56..].copy_from_slice(&bit_len.to_be_bytes());
            let mut state = H0;
            compress_block(&mut state, &block);
            state
        } else if total <= 512 {
            // Wire name (≤ 255) + salt (≤ 255) always lands here: hash from
            // a stack buffer, no allocation.
            let mut buf = [0u8; 512];
            buf[..input.len()].copy_from_slice(input);
            buf[input.len()..total].copy_from_slice(self.salt());
            sha1_oneshot_state(&buf[..total])
        } else {
            let mut buf = Vec::with_capacity(total);
            buf.extend_from_slice(input);
            buf.extend_from_slice(self.salt());
            sha1_oneshot_state(&buf)
        }
    }
}

/// `iterations` compressions of the single padded block `template`, each
/// with the previous digest in its first five words: on the CPU's SHA unit
/// with the whole chain in registers where it has one, else
/// [`chain_portable`].
fn chain(template: &[u8; 64], digest: [u32; 5], iterations: u16) -> [u32; 5] {
    #[cfg(target_arch = "x86_64")]
    if let Some(digest) = crate::x86::sha1_iterate(digest, template, iterations) {
        return digest;
    }
    chain_portable(template, digest, iterations)
}

/// [`chain`] in plain Rust. The digest is carried as five state words: the
/// output words of one compression are exactly the first five message
/// words of the next, so the chain never round-trips through bytes.
fn chain_portable(template: &[u8; 64], digest: [u32; 5], iterations: u16) -> [u32; 5] {
    let mut dw = digest;
    let mut w = block_words(template);
    for _ in 0..iterations {
        w[..5].copy_from_slice(&dw);
        dw = H0;
        compress_words_portable(&mut dw, &w);
    }
    dw
}

/// Streaming SHA-1 hasher.
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes, mod 2^64.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
    compressions: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
            compressions: 0,
        }
    }
}

impl Sha1 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    fn compress(&mut self, block: &[u8; 64]) {
        self.compressions += 1;
        compress_block(&mut self.state, block);
    }

    /// Consume the hasher and return the digest.
    pub fn finalize_fixed(mut self) -> [u8; 20] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, a zero run to 56 mod 64 (written as slice fills,
        // not byte-at-a-time), 64-bit big-endian bit length.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n + 9 > 64 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        digest_bytes(&self.state)
    }

    /// Total compressions this hasher will have performed once finalized:
    /// the count so far plus the blocks implied by padding. Lets cost models
    /// account for a finalize without consuming the hasher.
    pub fn padded_compressions(&self) -> u64 {
        // Padding appends 1 byte (0x80), zeros to 56 mod 64, and 8 length
        // bytes; so the buffered remainder plus 9, rounded up to blocks.
        let tail_blocks = (self.buf_len + 9).div_ceil(64) as u64;
        self.compressions + tail_blocks
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        // Fast path: feed whole blocks directly once the buffer is aligned.
        let mut rest = data;
        if self.buf_len != 0 {
            let take = (64 - self.buf_len).min(rest.len());
            let (head, tail) = rest.split_at(take);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(head);
            self.buf_len += take;
            rest = tail;
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut arr = [0u8; 64];
            arr.copy_from_slice(block);
            self.compress(&arr);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }
}

/// One-shot SHA-1 returning the fixed-size digest.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize_fixed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_lower;
    use sim_check::{gens, props};

    /// SHA-1 of `data` through the portable compression only, and the
    /// blocks it took: the oracle of the kernel this CPU runs.
    fn portable_sha1(data: &[u8]) -> ([u8; 20], u64) {
        let mut message = data.to_vec();
        message.push(0x80);
        message.resize(data.len() + 1 + (119 - data.len() % 64) % 64, 0);
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in message.chunks_exact(64) {
            compress_words_portable(&mut state, &block_words(block.try_into().unwrap()));
        }
        (digest_bytes(&state), message.len() as u64 / 64)
    }

    props! {
        /// The block compression this CPU runs (the SHA unit where there
        /// is one) equals the portable one.
        fn block_kernel_matches_portable(
            state in gens::array_of(gens::u32s(..)),
            block in gens::array_of(gens::u8s(..)),
        ) {
            let (mut kernel, mut portable) = (state, state);
            compress_block(&mut kernel, &block);
            compress_words_portable(&mut portable, &block_words(&block));
            assert_eq!(kernel, portable);
        }

        /// The engine (a register-resident chain for salts up to 35
        /// octets, the block kernel beyond) equals a chain of portable
        /// compressions, digest and compression count both; so does
        /// `chain_portable`, which `hash` skips on a CPU with a SHA unit.
        fn iterated_engine_matches_portable_chain(
            salt_len in gens::one_of(vec![
                gens::boxed(gens::usizes(0..=35)),
                gens::boxed(gens::usizes(36..=255)),
                gens::boxed(gens::just(35)),
                gens::boxed(gens::just(36)),
            ]),
            iterations in gens::map(gens::usizes(0..6), |i| [0u16, 1, 2, 150, 500, 2500][i]),
            input in gens::vec_of(gens::u8s(..), 1..=255),
            fill in gens::u8s(..),
        ) {
            let salt: Vec<u8> = (0..salt_len).map(|i| fill.wrapping_add(i as u8)).collect();
            let (mut digest, mut cost) = portable_sha1(&[&input[..], &salt].concat());
            for _ in 0..iterations {
                let (next, blocks) = portable_sha1(&[&digest[..], &salt].concat());
                (digest, cost) = (next, cost + blocks);
            }
            let engine = IteratedSha1::new(&salt);
            assert_eq!(engine.hash(&input, iterations), (digest, cost));
            if let Padded::Block(template) = &engine.message {
                let chained = chain_portable(template, engine.initial(&input), iterations);
                assert_eq!(digest_bytes(&chained), digest);
            }
        }
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex_lower(&sha1(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex_lower(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(
            hex_lower(&sha1(msg)),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex_lower(&h.finalize_fixed()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1031).collect();
        let oneshot = sha1(&data);
        for split in [0usize, 1, 63, 64, 65, 500, 1030, 1031] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize_fixed(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn sha1_oneshot_equals_streaming_at_padding_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(200).collect();
        for len in [0usize, 1, 54, 55, 56, 63, 64, 65, 119, 120, 128, 200] {
            let oneshot = digest_bytes(&sha1_oneshot_state(&data[..len]));
            assert_eq!(oneshot, sha1(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn compression_count_matches_block_math() {
        // A message of `len` bytes plus 9 padding/length bytes, rounded up to
        // 64-byte blocks, is the expected number of compressions — both as
        // predicted (padded_compressions, padded_blocks) and as performed.
        for len in [0usize, 1, 55, 56, 63, 64, 119, 120, 1000] {
            let mut h = Sha1::new();
            h.update(&vec![0u8; len]);
            let expected = (len + 9).div_ceil(64) as u64;
            assert_eq!(h.padded_compressions(), expected, "predicted, len {len}");
            assert_eq!(padded_blocks(len), expected, "arithmetic, len {len}");
            // Count what finalize actually performs: whole blocks absorbed so
            // far plus the padding tail.
            let absorbed = h.compressions;
            assert_eq!(absorbed, (len / 64) as u64, "absorbed, len {len}");
            h.finalize_fixed();
        }
    }

    #[test]
    fn iterated_engine_matches_streaming_chain() {
        for salt_len in [0usize, 4, 16, 35, 36, 64, 255] {
            let salt: Vec<u8> = (0..salt_len as u8).collect();
            let engine = IteratedSha1::new(&salt);
            let input = b"\x03www\x07example\x03com\x00";
            for iterations in [0u16, 1, 2, 13, 150] {
                let (digest, cost) = engine.hash(input, iterations);
                // Streaming reference.
                let mut expected_cost = 0u64;
                let mut h = Sha1::new();
                h.update(input);
                h.update(&salt);
                expected_cost += h.padded_compressions();
                let mut expected = h.finalize_fixed();
                for _ in 0..iterations {
                    let mut h = Sha1::new();
                    h.update(&expected);
                    h.update(&salt);
                    expected_cost += h.padded_compressions();
                    expected = h.finalize_fixed();
                }
                assert_eq!(digest, expected, "salt {salt_len}, it {iterations}");
                assert_eq!(cost, expected_cost, "salt {salt_len}, it {iterations}");
            }
        }
    }
}
