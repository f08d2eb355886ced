//! HMAC-SHA-256 (RFC 2104, RFC 4231), computed from a key's two pad
//! midstates.
//!
//! A key enters the MAC only through the SHA-256 state after its
//! `key ⊕ ipad` block and the state after its `key ⊕ opad` block, so
//! `pads` derives those once (64 bytes, what a [`crate::simsig::Context`]
//! keeps per key) and `mac` resumes from them for every message.

use crate::sha256::{midstate, sha256, sha256_from};

/// The SHA-256 midstates after `key ⊕ ipad` and after `key ⊕ opad`, in
/// that order, each as its eight words big-endian: 64 octets a memo can
/// hash and compare as they lie. A key longer than the 64-octet block is
/// hashed first (RFC 2104 §2).
pub(crate) fn pads(key: &[u8]) -> [u8; 64] {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block[..32].copy_from_slice(&sha256(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let mut pads = [0u8; 64];
    for (half, pad) in pads.chunks_exact_mut(32).zip([0x36, 0x5c]) {
        half.copy_from_slice(
            midstate(&block.map(|b| b ^ pad))
                .map(u32::to_be_bytes)
                .as_flattened(),
        );
    }
    pads
}

/// HMAC-SHA-256 of `message` under the key whose [`pads`] these are.
pub(crate) fn mac(pads: &[u8; 64], message: &[u8]) -> [u8; 32] {
    let words = pads.as_chunks::<4>().0;
    let state = |half: usize| std::array::from_fn(|i| u32::from_be_bytes(words[8 * half + i]));
    let inner = sha256_from(state(0), 64, message);
    sha256_from(state(1), 64, &inner)
}

/// HMAC-SHA-256 of `message` under `key`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    mac(&pads(key), message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_parse;

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1_sha256() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_vec(),
            hex_parse("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7").unwrap()
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2_sha256() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_vec(),
            hex_parse("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843").unwrap()
        );
    }

    // RFC 4231 test case 6: key longer than block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_vec(),
            hex_parse("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54").unwrap()
        );
    }

    /// RFC 2104 §2 as written, with the one-shot hash and no midstates:
    /// `H(K ⊕ opad ‖ H(K ⊕ ipad ‖ text))`.
    fn rfc2104(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut k = if key.len() > 64 {
            sha256(key).to_vec()
        } else {
            key.to_vec()
        };
        k.resize(64, 0);
        let padded = |pad: u8, text: &[u8]| {
            let mut buf: Vec<u8> = k.iter().map(|b| b ^ pad).collect();
            buf.extend_from_slice(text);
            buf
        };
        sha256(&padded(0x5c, &sha256(&padded(0x36, message))))
    }

    #[test]
    fn midstate_route_equals_rfc2104() {
        let bytes =
            |len: usize, salt: u8| -> Vec<u8> { (0..len).map(|i| i as u8 ^ salt).collect() };
        // Keys on both sides of the block (hashed above 64 octets);
        // messages across the block and padding boundaries and on both
        // sides of the signature memo's 256-octet cap.
        for key_len in [0, 1, 31, 32, 63, 64, 65, 131, 200] {
            let key = bytes(key_len, 0xa5);
            let pads = pads(&key);
            for len in [0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 255, 256, 257, 300] {
                let message = bytes(len, 0x3c);
                assert_eq!(
                    mac(&pads, &message),
                    rfc2104(&key, &message),
                    "key of {key_len}, message of {len}"
                );
            }
        }
    }
}
