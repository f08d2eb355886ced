//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Used for DS record digests (digest type 2) and as the PRF inside the
//! [`crate::simsig`] simulated signature scheme.

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

pub(crate) const K: [u32; 64] = [
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
/// `state` in place: on the CPU's SHA unit where it has one, else
/// [`compress_block_portable`].
fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(next) = crate::x86::sha256_compress(*state, block) {
        *state = next;
        return;
    }
    compress_block_portable(state, block);
}

/// The compression function in plain Rust: the fallback on CPUs without a
/// SHA unit and the oracle the hardware kernel is tested against.
fn compress_block_portable(state: &mut [u32; 8], block: &[u8; 64]) {
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

/// SHA-256 of a message whose first `prefix_len` octets (a whole number
/// of blocks) are already compressed into `state`, and whose rest is
/// `data`: whole blocks compress straight from the slice and only the tail
/// is copied to be padded. [`sha256`] starts from the initial state;
/// HMAC starts from a key's pad midstates.
pub(crate) fn sha256_from(mut state: [u32; 8], prefix_len: usize, data: &[u8]) -> [u8; 32] {
    debug_assert_eq!(prefix_len % 64, 0, "a prefix is whole blocks");
    let mut chunks = data.chunks_exact(64);
    for block in &mut chunks {
        compress_block(&mut state, block.try_into().expect("chunks_exact(64)"));
    }
    let rest = chunks.remainder();
    let mut block = [0u8; 64];
    block[..rest.len()].copy_from_slice(rest);
    block[rest.len()] = 0x80;
    if rest.len() + 9 > 64 {
        compress_block(&mut state, &block);
        block = [0u8; 64];
    }
    let bit_len = ((prefix_len + data.len()) as u64).wrapping_mul(8);
    block[56..].copy_from_slice(&bit_len.to_be_bytes());
    compress_block(&mut state, &block);
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The chaining state after one block: what [`sha256_from`] resumes from
/// with a `prefix_len` of 64.
pub(crate) fn midstate(block: &[u8; 64]) -> [u32; 8] {
    let mut state = H0;
    compress_block(&mut state, block);
    state
}

/// SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    sha256_from(H0, 0, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_lower;
    use sim_check::{gens, props};

    props! {
        /// The block compression this CPU runs (the SHA unit where there
        /// is one) equals the portable one.
        fn block_kernel_matches_portable(
            state in gens::array_of(gens::u32s(..)),
            block in gens::array_of(gens::u8s(..)),
        ) {
            let (mut kernel, mut portable) = (state, state);
            compress_block(&mut kernel, &block);
            compress_block_portable(&mut portable, &block);
            assert_eq!(kernel, portable);
        }
    }

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
        assert_eq!(
            hex_lower(&sha256(&vec![b'a'; 1_000_000])),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn resuming_from_a_midstate_equals_the_whole_message() {
        let data: Vec<u8> = (0..=255u8).cycle().take(264).collect();
        let head: &[u8; 64] = data[..64].try_into().unwrap();
        for len in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 128, 200] {
            let tail = &data[64..64 + len];
            assert_eq!(
                sha256_from(midstate(head), 64, tail),
                sha256(&data[..64 + len]),
                "tail of {len}"
            );
        }
    }
}
