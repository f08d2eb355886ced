//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Used for DS record digests (digest type 2) and as the PRF inside the
//! [`crate::simsig`] simulated signature scheme.

use crate::Digest;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Run the SHA-256 compression function over one 64-byte block, updating
/// `state` in place.
fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Run L independent SHA-256 compressions in lockstep over lane-major state
/// (`states[v][j]` = state word `v` of lane `j`): element-wise loops over
/// `[u32; L]` that LLVM vectorizes, with the schedule kept as a rolling
/// 16-word window. Per-lane arithmetic is identical to [`compress_block`].
fn compress_words_lanes<const L: usize>(states: &mut [[u32; L]; 8], words: &[[u32; L]; 16]) {
    let mut w = *words;
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *states;
    for i in 0..64 {
        let wi = if i < 16 {
            w[i]
        } else {
            // w[i-16] + s0(w[i-15]) + w[i-7] + s1(w[i-2]), indices mod 16.
            let w0 = w[i & 15];
            let w1 = w[(i + 1) & 15];
            let w9 = w[(i + 9) & 15];
            let w14 = w[(i + 14) & 15];
            let mut t = [0u32; L];
            for j in 0..L {
                let s0 = w1[j].rotate_right(7) ^ w1[j].rotate_right(18) ^ (w1[j] >> 3);
                let s1 = w14[j].rotate_right(17) ^ w14[j].rotate_right(19) ^ (w14[j] >> 10);
                t[j] = w0[j].wrapping_add(s0).wrapping_add(w9[j]).wrapping_add(s1);
            }
            w[i & 15] = t;
            t
        };
        let mut t1 = [0u32; L];
        for j in 0..L {
            let s1 = e[j].rotate_right(6) ^ e[j].rotate_right(11) ^ e[j].rotate_right(25);
            let ch = (e[j] & f[j]) ^ ((!e[j]) & g[j]);
            t1[j] = h[j]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(wi[j]);
        }
        let mut t2 = [0u32; L];
        for j in 0..L {
            let s0 = a[j].rotate_right(2) ^ a[j].rotate_right(13) ^ a[j].rotate_right(22);
            let maj = (a[j] & b[j]) ^ (a[j] & c[j]) ^ (b[j] & c[j]);
            t2[j] = s0.wrapping_add(maj);
        }
        h = g;
        g = f;
        f = e;
        let mut ne = [0u32; L];
        let mut na = [0u32; L];
        for j in 0..L {
            ne[j] = d[j].wrapping_add(t1[j]);
            na[j] = t1[j].wrapping_add(t2[j]);
        }
        e = ne;
        d = c;
        c = b;
        b = a;
        a = na;
    }
    let new = [a, b, c, d, e, f, g, h];
    for (sv, nv) in states.iter_mut().zip(new) {
        for j in 0..L {
            sv[j] = sv[j].wrapping_add(nv[j]);
        }
    }
}

/// Build tail block `b` (64 bytes) of the padded stream for `msg` appended
/// at a block-aligned midstate: message bytes, then `0x80`, zeros, and — in
/// the final block — the 64-bit total bit length.
fn tail_block(msg: &[u8], total_bits: u64, b: usize, last: bool) -> [u8; 64] {
    let start = b * 64;
    let mut block = [0u8; 64];
    let len = msg.len();
    if start < len {
        let n = (len - start).min(64);
        block[..n].copy_from_slice(&msg[start..start + n]);
    }
    if len >= start && len < start + 64 {
        block[len - start] = 0x80;
    }
    if last {
        block[56..].copy_from_slice(&total_bits.to_be_bytes());
    }
    block
}

/// Finish a batch of messages appended to one shared block-aligned midstate
/// (`state` after `absorbed` bytes), exactly as `update(msg)` +
/// `finalize_fixed()` would per message — the engine under the batched HMAC.
///
/// Messages are grouped by padded tail-block count (equal-length groups run
/// in lockstep; the batched-signing workload is dominated by near-identical
/// canonical RRset buffers) and each group is driven through the lane kernel
/// eight then four wide, with a scalar tail.
pub(crate) fn finish_midstate_batch(
    state: [u32; 8],
    absorbed: u64,
    msgs: &[&[u8]],
    out: &mut [[u8; 32]],
) {
    use crate::sha1::padded_blocks;
    debug_assert_eq!(absorbed % 64, 0, "midstate must be block-aligned");
    debug_assert_eq!(msgs.len(), out.len());
    let mut order: Vec<u32> = (0..msgs.len() as u32).collect();
    order.sort_unstable_by_key(|&i| msgs[i as usize].len());
    let mut group = order.as_slice();
    while !group.is_empty() {
        let blocks = padded_blocks(msgs[group[0] as usize].len());
        let n = group
            .iter()
            .take_while(|&&i| padded_blocks(msgs[i as usize].len()) == blocks)
            .count();
        let (mut idxs, rest) = group.split_at(n);
        group = rest;
        while idxs.len() >= 8 {
            let (chunk, tail) = idxs.split_at(8);
            finish_lanes::<8>(state, absorbed, chunk, msgs, out, blocks);
            idxs = tail;
        }
        if idxs.len() >= 4 {
            let (chunk, tail) = idxs.split_at(4);
            finish_lanes::<4>(state, absorbed, chunk, msgs, out, blocks);
            idxs = tail;
        }
        for &i in idxs {
            let msg = msgs[i as usize];
            let total_bits = (absorbed + msg.len() as u64) * 8;
            let mut s = state;
            for b in 0..blocks {
                let block = tail_block(msg, total_bits, b as usize, b + 1 == blocks);
                compress_block(&mut s, &block);
            }
            write_digest(&s, &mut out[i as usize]);
        }
    }
}

/// Lane-interleaved arm of [`finish_midstate_batch`]: L same-block-count
/// messages from one midstate.
fn finish_lanes<const L: usize>(
    state: [u32; 8],
    absorbed: u64,
    idxs: &[u32],
    msgs: &[&[u8]],
    out: &mut [[u8; 32]],
    blocks: u64,
) {
    debug_assert_eq!(idxs.len(), L);
    let mut lanes = [[0u32; L]; 8];
    for (v, s) in state.iter().enumerate() {
        lanes[v] = [*s; L];
    }
    for b in 0..blocks {
        let mut words = [[0u32; L]; 16];
        for (j, &i) in idxs.iter().enumerate() {
            let msg = msgs[i as usize];
            let total_bits = (absorbed + msg.len() as u64) * 8;
            let block = tail_block(msg, total_bits, b as usize, b + 1 == blocks);
            for (wv, chunk) in words.iter_mut().zip(block.chunks_exact(4)) {
                wv[j] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
        }
        compress_words_lanes(&mut lanes, &words);
    }
    for (j, &i) in idxs.iter().enumerate() {
        let s: [u32; 8] = core::array::from_fn(|v| lanes[v][j]);
        write_digest(&s, &mut out[i as usize]);
    }
}

fn write_digest(state: &[u32; 8], out: &mut [u8; 32]) {
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
}

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
    compressions: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
            compressions: 0,
        }
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    fn compress(&mut self, block: &[u8; 64]) {
        self.compressions += 1;
        compress_block(&mut self.state, block);
    }

    /// The `(state, absorbed bytes)` midstate of a block-aligned hasher —
    /// the seed for [`finish_midstate_batch`]. Debug-asserts alignment.
    pub(crate) fn midstate_aligned(&self) -> ([u32; 8], u64) {
        debug_assert_eq!(self.buf_len, 0, "midstate requires block alignment");
        (self.state, self.len)
    }

    /// The hasher [`Sha256::midstate_aligned`] was taken from: 40 bytes
    /// stand in for the 120-byte streaming state wherever many keyed
    /// hashers are kept for long.
    pub(crate) fn from_midstate(state: [u32; 8], len: u64) -> Self {
        debug_assert_eq!(len % 64, 0, "midstate requires block alignment");
        Sha256 {
            state,
            len,
            compressions: len / 64,
            ..Self::default()
        }
    }

    /// Finalize into a fixed-size array.
    pub fn finalize_fixed(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, a zero run to 56 mod 64 (slice fills, not
        // byte-at-a-time), 64-bit big-endian bit length.
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
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

impl Digest for Sha256 {
    const OUTPUT_LEN: usize = 32;
    const BLOCK_LEN: usize = 64;

    fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
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

    fn finalize(self) -> Vec<u8> {
        self.finalize_fixed().to_vec()
    }

    fn finalize_into(self, out: &mut [u8]) {
        out.copy_from_slice(&self.finalize_fixed());
    }

    fn compressions(&self) -> u64 {
        self.compressions
    }
}

/// One-shot SHA-256 returning the fixed-size digest.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize_fixed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_lower;

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex_lower(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex_lower(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(
            hex_lower(&sha256(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex_lower(&h.finalize_fixed()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(777).collect();
        let oneshot = sha256(&data);
        for split in [0usize, 1, 63, 64, 65, 400, 776, 777] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize_fixed(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn midstate_batch_matches_streaming() {
        // Ragged batch sizes and message lengths spanning padding
        // boundaries, finished from a one-block midstate.
        let prefix = [0x36u8; 64];
        let mut seed = Sha256::new();
        seed.update(&prefix);
        let (state, absorbed) = seed.midstate_aligned();
        let msgs: Vec<Vec<u8>> = (0..21u8)
            .map(|i| {
                let len = [0, 1, 31, 32, 54, 55, 56, 63, 64, 65, 119, 120, 200][i as usize % 13]
                    + i as usize;
                vec![i ^ 0xc3; len]
            })
            .collect();
        for n in [0usize, 1, 3, 4, 5, 8, 11, 16, 21] {
            let refs: Vec<&[u8]> = msgs[..n].iter().map(|m| m.as_slice()).collect();
            let mut out = vec![[0u8; 32]; n];
            finish_midstate_batch(state, absorbed, &refs, &mut out);
            for (msg, got) in refs.iter().zip(&out) {
                let mut h = Sha256::new();
                h.update(&prefix);
                h.update(msg);
                assert_eq!(*got, h.finalize_fixed(), "len {}", msg.len());
            }
        }
    }
}
