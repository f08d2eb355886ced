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
//!
//! [`Context::verify`] reads the tag through this thread's [`Memo`], which
//! a study shard empties first ([`clear_verify_memo`]).

use std::cell::RefCell;

use crate::ct_eq;
use crate::hash::KeyedState;
use crate::hmac::{mac, pads};
use crate::memo::Memo;
use crate::sha256::sha256;

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
        self.signing_context().sign(message)
    }

    /// A reusable signing context for this key. Whole-zone signing creates
    /// one per key instead of re-deriving the HMAC pad schedule for every
    /// RRset.
    pub fn signing_context(&self) -> Context {
        Context::new(&self.public)
    }
}

/// Precomputed per-key state for signing and verifying: the key's two
/// HMAC pad midstates, derived once by `hmac::pads` (64 octets — a
/// resolver holds one of these per DNSKEY of every zone it has
/// validated, so the size is what its key cache costs).
#[derive(Clone, Debug)]
pub struct Context {
    pads: [u8; 64],
    /// Whether the key has the SimSig public-key length; a key of any
    /// other length verifies nothing.
    well_formed: bool,
}

impl Context {
    /// Build the context for the key identified by `public_key`.
    pub fn new(public_key: &[u8]) -> Self {
        Context {
            pads: pads(public_key),
            well_formed: public_key.len() == PUBLIC_KEY_LEN,
        }
    }

    /// Verify `signature` over `message`; identical verdict to [`verify`]
    /// under the key this context was built from, without re-deriving the
    /// pad schedule. The expected tag comes through this thread's
    /// signature memo, keyed by the pads and the message: computed the
    /// first time a (key, message) pair is seen, read back afterwards,
    /// and compared with `signature` here either way.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        if !self.well_formed || signature.len() != SIGNATURE_LEN {
            return false;
        }
        let tag = TAG_MEMO.with_borrow_mut(|memo| {
            memo.get_or_compute(&[&self.pads, message], || mac(&self.pads, message))
        });
        ct_eq(&tag, signature)
    }

    /// Sign `message`: its HMAC-SHA-256, resumed from the pads.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        mac(&self.pads, message).to_vec()
    }
}

/// Longest message the memo stores; a longer one (a KeyTrap-sized DNSKEY
/// set) is MACed on every verify.
const MEMO_MAX_MESSAGE: usize = 256;

thread_local! {
    /// This thread's memo of the deterministic function
    /// `(key, message) → tag` that every signature check evaluates
    /// (DESIGN.md §6, "One memo"). What is stored is the tag the MAC
    /// computes, never a verdict: the caller still compares it with the
    /// signature it was handed, so a corrupted, truncated or re-keyed
    /// signature over a memoised message is rejected exactly as without
    /// the memo. A hit needs both pad midstates (they *are* the MAC
    /// function) and the whole message to compare equal; a colliding
    /// store always replaces. One memo per thread, like the NSEC3 hash
    /// cache: no shard's output or cost depends on what another thread
    /// has verified.
    static TAG_MEMO: RefCell<Memo<[u8; SIGNATURE_LEN]>> = RefCell::new(Memo::new(
        512,
        KeyedState::default(),
        64 + MEMO_MAX_MESSAGE,
        |_, _| true,
    ));
}

/// `(hits, misses)` of this thread's signature memo since it was last
/// emptied — observability for `crates/crypto/tests` and
/// `bench_validation`; nothing decides by it.
pub fn verify_memo_stats() -> (u64, u64) {
    TAG_MEMO.with_borrow(Memo::stats)
}

/// Empty this thread's signature memo and zero its counters: a study
/// shard starts from here, so its speed does not depend on what the
/// thread verified before.
pub fn clear_verify_memo() {
    TAG_MEMO.with_borrow_mut(Memo::clear);
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
        let forged = Context::new(short).sign(b"m");
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
