//! *SimSig*: a deterministic simulated DNSSEC signature scheme.
//!
//! # Substitution rationale (see DESIGN.md §2)
//!
//! The paper's infrastructure signs zones with real RSA/ECDSA keys. For the
//! reproduction, the only properties of the signature scheme that the
//! measurement exercises are:
//!
//! 1. a signature over the RFC 4034 canonical RRset buffer either verifies or
//!    does not (valid vs. bogus),
//! 2. temporal validity (inception/expiration) is enforced independently of
//!    the math (the `expired` and `it-2501-expired` testbed zones), and
//! 3. DNSKEY records are linked upward via DS digests.
//!
//! SimSig preserves all three while staying deterministic and dependency-free:
//! the "public key" is a 32-byte value derived from the secret, and a
//! signature is `HMAC-SHA-256(public_key, message)`. Anyone holding the public
//! key could forge signatures — that is irrelevant here because the simulation
//! is a closed loop with no adversary outside our own fault injectors, and the
//! fault injectors corrupt signatures explicitly rather than forging them.
//!
//! SimSig identifies itself with DNSSEC algorithm number 253 (`PRIVATEDNS`,
//! reserved by RFC 4034 §A.1.1 for private algorithms), though the zone signer
//! may label keys with any algorithm number to mimic populations in the wild.

use std::cell::{Cell, RefCell};

use crate::ct_eq;
use crate::hmac::{Hmac, HmacKey};
use crate::sha256::{sha256, Sha256};

/// DNSSEC algorithm number SimSig identifies itself with (PRIVATEDNS).
pub const SIMSIG_ALGORITHM: u8 = 253;

/// Length in bytes of a SimSig public key.
pub const PUBLIC_KEY_LEN: usize = 32;

/// Length in bytes of a SimSig signature.
pub(crate) const SIGNATURE_LEN: usize = 32;

/// Domain-separation suffix for public-key derivation.
const PK_DERIVE: &[u8] = b"heroes-simsig-public-v1";

/// A SimSig key pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyPair {
    secret: [u8; 32],
    public: [u8; 32],
}

impl KeyPair {
    /// Derive a key pair deterministically from a seed. The same seed always
    /// yields the same pair, which keeps whole-population experiments
    /// reproducible.
    pub fn from_seed(seed: &[u8]) -> Self {
        let secret = sha256(seed);
        let mut buf = Vec::with_capacity(32 + PK_DERIVE.len());
        buf.extend_from_slice(&secret);
        buf.extend_from_slice(PK_DERIVE);
        let public = sha256(&buf);
        KeyPair { secret, public }
    }

    /// The public key bytes, as stored in a DNSKEY RDATA public-key field.
    pub fn public_key(&self) -> &[u8; 32] {
        &self.public
    }

    /// Sign `message` (the RFC 4034 canonical signing buffer).
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        sign_with_public(&self.public, message)
    }

    /// A reusable signing context for this key. Whole-zone signing creates
    /// one per key instead of re-deriving the HMAC pad schedule for every
    /// RRset.
    pub fn signing_context(&self) -> Context {
        Context::new(&self.public)
    }
}

/// Precomputed per-key state for signing and verifying: the HMAC pad
/// schedule, derived once and kept as its two SHA-256 midstates (64
/// bytes — a resolver holds one of these per DNSKEY of every zone it has
/// validated, so the size is what its key cache costs).
#[derive(Clone, Debug)]
pub struct Context {
    pads: [[u32; 8]; 2],
    /// Whether the key has the SimSig public-key length; a key of any
    /// other length verifies nothing.
    well_formed: bool,
}

impl Context {
    /// Build the context for the key identified by `public_key`.
    pub fn new(public_key: &[u8]) -> Self {
        Context {
            pads: HmacKey::<Sha256>::new(public_key).midstates(),
            well_formed: public_key.len() == PUBLIC_KEY_LEN,
        }
    }

    fn key(&self) -> HmacKey<Sha256> {
        HmacKey::from_midstates(self.pads)
    }

    /// Verify `signature` over `message`; identical verdict to [`verify`]
    /// under the key this context was built from, without re-deriving the
    /// pad schedule. The expected tag comes through this thread's
    /// `TagMemo`: computed the first time a (key, message) pair is
    /// seen, read back afterwards, and compared with `signature` here
    /// either way.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        if !self.well_formed || signature.len() != SIGNATURE_LEN {
            return false;
        }
        let tag = TAG_MEMO.with(|memo| memo.tag(&self.pads, message));
        ct_eq(&tag, signature)
    }

    /// Sign `message`; identical output to [`KeyPair::sign`].
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        self.key().mac(message)
    }

    /// Sign a batch of messages, interleaving the HMAC-SHA-256 compressions
    /// across lanes; `out[i]` is byte-identical to
    /// [`Context::sign`]`(messages[i])`. The zone signer's RRSIG pass feeds
    /// each shard's canonical signing buffers through this in one call.
    pub fn sign_batch_into(&self, messages: &[&[u8]], out: &mut [[u8; 32]]) {
        self.key().mac_batch_into(messages, out);
    }
}

/// Longest message the memo stores; a longer one (a KeyTrap-sized DNSKEY
/// set) is MACed on every verify.
const MEMO_MAX_MESSAGE: usize = 256;

/// Slots in a thread's memo: a power of two, the top bits of the index
/// hash pick one.
const MEMO_SLOTS: usize = 512;

/// A thread's memo of the deterministic function `(key, message) → tag`
/// that every signature check evaluates (DESIGN.md §6, "Signature memo").
///
/// What is stored is the tag the MAC computes, never a verdict: the
/// caller still compares it with the signature it was handed, so a
/// corrupted, truncated or re-keyed signature over a memoised message is
/// rejected exactly as without the memo. The table is direct-mapped and
/// a colliding store overwrites; a hit requires the whole key state (both
/// pad midstates — they *are* the MAC function) and the whole message to
/// compare equal, so the slot hash only ever decides where to look, never
/// what is returned.
struct TagMemo {
    /// Direct-mapped; a slot's storage is allocated when it is first
    /// stored to, so a thread pays for the slots it uses (a serving fleet
    /// that validates three answers in a hundred uses few) and allocates
    /// nothing once they exist.
    slots: RefCell<Vec<Option<Box<MemoSlot>>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

struct MemoSlot {
    pads: [[u32; 8]; 2],
    /// Octets of `message` in use.
    len: u16,
    message: [u8; MEMO_MAX_MESSAGE],
    tag: [u8; SIGNATURE_LEN],
}

impl TagMemo {
    fn new() -> Self {
        TagMemo {
            slots: RefCell::new((0..MEMO_SLOTS).map(|_| None).collect()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// `HMAC-SHA-256` of `message` under the key whose pad midstates are
    /// `pads`. The miss arm below is the only place a verify computes it.
    fn tag(&self, pads: &[[u32; 8]; 2], message: &[u8]) -> [u8; SIGNATURE_LEN] {
        let mut slots = self.slots.borrow_mut();
        let slot = (message.len() <= MEMO_MAX_MESSAGE)
            .then(|| &mut slots[Self::slot_index(pads, message)]);
        if let Some(Some(slot)) = &slot {
            if usize::from(slot.len) == message.len()
                && slot.pads == *pads
                && slot.message[..message.len()] == *message
            {
                self.hits.set(self.hits.get() + 1);
                return slot.tag;
            }
        }
        self.misses.set(self.misses.get() + 1);
        let mut tag = [0u8; SIGNATURE_LEN];
        HmacKey::from_midstates(*pads).mac_into(message, &mut tag);
        if let Some(slot) = slot {
            let mut stored = [0u8; MEMO_MAX_MESSAGE];
            stored[..message.len()].copy_from_slice(message);
            let entry = MemoSlot {
                pads: *pads,
                len: message.len() as u16,
                message: stored,
                tag,
            };
            match slot {
                Some(held) => **held = entry,
                None => *slot = Some(Box::new(entry)),
            }
        }
        tag
    }

    /// A multiply-mix over the message eight octets at a time, seeded by
    /// one word of each pad. It only spreads entries over slots — equality
    /// is decided by the full compare — so it need not resist anything.
    fn slot_index(pads: &[[u32; 8]; 2], message: &[u8]) -> usize {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mix = |h: u64, word: u64| {
            let h = (h ^ word).wrapping_mul(K);
            h ^ (h >> 32)
        };
        let seed = u64::from(pads[0][0]) << 32 | u64::from(pads[1][0]);
        let mut chunks = message.chunks_exact(8);
        let mut h = mix(seed, message.len() as u64);
        for chunk in &mut chunks {
            h = mix(h, u64::from_le_bytes(chunk.try_into().expect("8 octets")));
        }
        let mut last = [0u8; 8];
        last[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        h = mix(h, u64::from_le_bytes(last)).wrapping_mul(K);
        (h >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }
}

thread_local! {
    /// One memo per thread, like the NSEC3 hash cache: no shard's output
    /// or cost depends on what another thread has verified.
    static TAG_MEMO: TagMemo = TagMemo::new();
}

/// `(hits, misses)` of this thread's signature memo — observability for
/// `crates/crypto/tests` and `bench_validation`; nothing decides by it.
pub fn verify_memo_stats() -> (u64, u64) {
    TAG_MEMO.with(|memo| (memo.hits.get(), memo.misses.get()))
}

/// Produce the signature for `message` under the key identified by
/// `public_key`.
///
/// Exposed so that fault injectors can mint signatures for *any* key when
/// constructing deliberately inconsistent zones; regular code paths should go
/// through [`KeyPair::sign`].
pub(crate) fn sign_with_public(public_key: &[u8], message: &[u8]) -> Vec<u8> {
    Hmac::<Sha256>::mac(public_key, message)
}

/// Verify `signature` over `message` under `public_key`.
pub fn verify(public_key: &[u8], message: &[u8], signature: &[u8]) -> bool {
    Context::new(public_key).verify(message, signature)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let a = KeyPair::from_seed(b"zone: example.");
        let b = KeyPair::from_seed(b"zone: example.");
        let c = KeyPair::from_seed(b"zone: example.com.");
        assert_eq!(a, b);
        assert_ne!(a.public_key(), c.public_key());
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(b"k1");
        let sig = kp.sign(b"message");
        assert!(verify(kp.public_key(), b"message", &sig));
        assert!(!verify(kp.public_key(), b"messagf", &sig));
        let other = KeyPair::from_seed(b"k2");
        assert!(!verify(other.public_key(), b"message", &sig));
    }

    #[test]
    fn corrupted_signature_rejected() {
        let kp = KeyPair::from_seed(b"k1");
        let mut sig = kp.sign(b"message");
        sig[0] ^= 0x01;
        assert!(!verify(kp.public_key(), b"message", &sig));
    }

    #[test]
    fn wrong_length_inputs_rejected() {
        let kp = KeyPair::from_seed(b"k1");
        let sig = kp.sign(b"m");
        assert!(!verify(&kp.public_key()[..31], b"m", &sig));
        assert!(!verify(kp.public_key(), b"m", &sig[..31]));
    }

    #[test]
    fn context_verdicts_match_one_shot_verify() {
        let kp = KeyPair::from_seed(b"k1");
        let ctx = kp.signing_context();
        let sig = ctx.sign(b"message");
        assert!(ctx.verify(b"message", &sig));
        assert!(!ctx.verify(b"messagf", &sig));
        assert!(!ctx.verify(b"message", &sig[..31]));
        // A 31-byte key can mint a MAC but never verifies one.
        let short = &kp.public_key()[..31];
        let forged = sign_with_public(short, b"m");
        assert!(!Context::new(short).verify(b"m", &forged));
        assert!(!verify(short, b"m", &forged));
    }

    #[test]
    fn signature_len_is_declared() {
        let kp = KeyPair::from_seed(b"k1");
        assert_eq!(kp.sign(b"x").len(), SIGNATURE_LEN);
        assert_eq!(kp.public_key().len(), PUBLIC_KEY_LEN);
    }
}
