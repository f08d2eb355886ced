//! HMAC (RFC 2104) over any [`Digest`] implementation.

use crate::{ct_eq, Digest};

/// A precomputed HMAC key: the inner and outer hashers with their pad
/// blocks already absorbed. One key authenticating many messages (the
/// zone signer: one ZSK, thousands of RRsets) pays the key schedule and
/// the two pad compressions once instead of per message.
#[derive(Clone)]
pub struct HmacKey<D: Digest> {
    inner: D,
    outer: D,
}

impl<D: Digest> HmacKey<D> {
    /// Derive the pad states for `key` (any length; keys longer than the
    /// digest block length are hashed first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = vec![0u8; D::BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            let mut h = D::default();
            h.update(key);
            h.finalize_into(&mut key_block[..D::OUTPUT_LEN]);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let ipad: Vec<u8> = key_block.iter().map(|b| b ^ 0x36).collect();
        let opad: Vec<u8> = key_block.iter().map(|b| b ^ 0x5c).collect();
        let mut inner = D::default();
        inner.update(&ipad);
        let mut outer = D::default();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// Start a streaming MAC under this key.
    pub(crate) fn begin(&self) -> Hmac<D> {
        Hmac {
            inner: self.inner.clone(),
            outer: self.outer.clone(),
        }
    }

    /// MAC `data` into `out` (exactly `D::OUTPUT_LEN` bytes) without
    /// allocating.
    pub(crate) fn mac_into(&self, data: &[u8], out: &mut [u8]) {
        let mut h = self.begin();
        h.update(data);
        h.finalize_into(out);
    }

    /// MAC `data`, returning the tag.
    pub fn mac(&self, data: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; D::OUTPUT_LEN];
        self.mac_into(data, &mut out);
        out
    }
}

impl HmacKey<crate::sha256::Sha256> {
    /// The two pad midstates, from which [`HmacKey::from_midstates`]
    /// rebuilds this key without touching the key bytes again.
    pub(crate) fn midstates(&self) -> [[u32; 8]; 2] {
        [
            self.inner.midstate_aligned().0,
            self.outer.midstate_aligned().0,
        ]
    }

    /// Inverse of [`HmacKey::midstates`]: each pad is exactly one block.
    pub(crate) fn from_midstates([inner, outer]: [[u32; 8]; 2]) -> Self {
        let restore = |state| crate::sha256::Sha256::from_midstate(state, 64);
        HmacKey {
            inner: restore(inner),
            outer: restore(outer),
        }
    }

    /// MAC a batch of messages under this key, interleaving the SHA-256
    /// compressions across lanes (see `sha256::finish_midstate_batch`).
    /// `out[i]` is byte-identical to [`HmacKey::mac`]`(msgs[i])`.
    ///
    /// Both HMAC passes batch: the inner pass finishes every message from
    /// the shared key-XOR-ipad midstate, and the outer pass is a uniform
    /// single-tail-block batch over the 32-byte inner digests.
    pub fn mac_batch_into(&self, msgs: &[&[u8]], out: &mut [[u8; 32]]) {
        assert_eq!(msgs.len(), out.len());
        let (istate, ilen) = self.inner.midstate_aligned();
        crate::sha256::finish_midstate_batch(istate, ilen, msgs, out);
        let inner_digests = out.to_vec();
        let refs: Vec<&[u8]> = inner_digests.iter().map(|d| d.as_slice()).collect();
        let (ostate, olen) = self.outer.midstate_aligned();
        crate::sha256::finish_midstate_batch(ostate, olen, &refs, out);
    }
}

/// Streaming HMAC computation.
///
/// ```
/// use dns_crypto::{hmac::Hmac, sha256::Sha256, Digest};
/// let tag = Hmac::<Sha256>::mac(b"key", b"message");
/// assert_eq!(tag.len(), Sha256::OUTPUT_LEN);
/// assert!(Hmac::<Sha256>::verify(b"key", b"message", &tag));
/// ```
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    /// The outer hasher with key XOR opad absorbed, kept for the outer pass.
    outer: D,
}

impl<D: Digest> Hmac<D> {
    /// Create an HMAC instance keyed with `key` (any length; keys longer than
    /// the digest block length are hashed first, per RFC 2104).
    pub(crate) fn new(key: &[u8]) -> Self {
        HmacKey::new(key).begin()
    }

    /// Absorb message data.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produce the authentication tag.
    pub(crate) fn finalize(self) -> Vec<u8> {
        self.finalize_outer().finalize()
    }

    /// Produce the tag into `out` (exactly `D::OUTPUT_LEN` bytes) without
    /// allocating.
    pub(crate) fn finalize_into(self, out: &mut [u8]) {
        self.finalize_outer().finalize_into(out);
    }

    /// The outer hasher with the inner digest absorbed; the inner digest
    /// passes through a stack buffer, never a `Vec`.
    fn finalize_outer(self) -> D {
        debug_assert!(D::OUTPUT_LEN <= 64, "stack scratch sized for SHA-2");
        let mut inner_digest = [0u8; 64];
        self.inner.finalize_into(&mut inner_digest[..D::OUTPUT_LEN]);
        let mut outer = self.outer;
        outer.update(&inner_digest[..D::OUTPUT_LEN]);
        outer
    }

    /// One-shot convenience.
    pub fn mac(key: &[u8], data: &[u8]) -> Vec<u8> {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }

    /// Verify `tag` against the MAC of `data` in constant time.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        ct_eq(&Self::mac(key, data), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;
    use crate::sha256::Sha256;
    use crate::{hex_lower, hex_parse};

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1_sha256() {
        let key = [0x0b; 20];
        let tag = Hmac::<Sha256>::mac(&key, b"Hi There");
        assert_eq!(
            hex_lower(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2_sha256() {
        let tag = Hmac::<Sha256>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex_lower(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 6: key longer than block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let tag = Hmac::<Sha256>::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex_lower(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 2202 test case 1 for HMAC-SHA1.
    #[test]
    fn rfc2202_case1_sha1() {
        let key = [0x0b; 20];
        let tag = Hmac::<Sha1>::mac(&key, b"Hi There");
        assert_eq!(hex_lower(&tag), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    // RFC 2202 test case 2 for HMAC-SHA1.
    #[test]
    fn rfc2202_case2_sha1() {
        let tag = Hmac::<Sha1>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex_lower(&tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = Hmac::<Sha256>::mac(b"k", b"data");
        assert!(Hmac::<Sha256>::verify(b"k", b"data", &tag));
        assert!(!Hmac::<Sha256>::verify(b"k", b"datb", &tag));
        assert!(!Hmac::<Sha256>::verify(b"j", b"data", &tag));
        let _ = hex_parse("00"); // keep import used in all cfgs
    }

    #[test]
    fn streaming_equals_oneshot() {
        let mut mac = Hmac::<Sha256>::new(b"key");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), Hmac::<Sha256>::mac(b"key", b"hello world"));
    }

    #[test]
    fn mac_batch_matches_scalar() {
        let key = HmacKey::<Sha256>::new(b"batch-key");
        let msgs: Vec<Vec<u8>> = (0..13u8).map(|i| vec![i; i as usize * 17]).collect();
        for n in [0usize, 1, 2, 4, 7, 8, 9, 13] {
            let refs: Vec<&[u8]> = msgs[..n].iter().map(|m| m.as_slice()).collect();
            let mut out = vec![[0u8; 32]; n];
            key.mac_batch_into(&refs, &mut out);
            for (msg, got) in refs.iter().zip(&out) {
                assert_eq!(got.to_vec(), key.mac(msg), "len {}", msg.len());
            }
        }
    }
}
