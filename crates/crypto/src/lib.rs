//! From-scratch cryptographic primitives for the `heroes` DNSSEC substrate.
//!
//! This crate deliberately implements everything it needs rather than pulling
//! in external cryptography dependencies:
//!
//! * [`sha1`] — SHA-1 (FIPS 180-4), the only hash algorithm defined for NSEC3
//!   (RFC 5155 §11 assigns algorithm number 1 to SHA-1).
//! * [`sha256`] — SHA-256 (FIPS 180-4), used for DS digests and the simulated
//!   signature scheme.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), resumed from a key's pad midstates.
//! * [`simsig`] — *SimSig*, a deterministic stand-in for RSA/ECDSA DNSSEC
//!   signatures. See the module docs for the exact substitution argument.
//! * [`keytag`] — the RFC 4034 Appendix B key-tag computation.
//! * [`hash`] — the keyed word-at-a-time hasher of every table in the
//!   workspace.
//! * [`memo`] — the direct-mapped memo under the NSEC3 hash cache
//!   (`dns_zone::nsec3hash`) and [`simsig`]'s signature memo.
//!
//! # Cost accounting
//!
//! CVE-2023-50868 is an algorithmic-complexity attack whose cost is the
//! number of hash *compression-function* invocations a validating resolver
//! performs while checking NSEC3 closest-encloser proofs. The SHA-1 engine
//! therefore returns the compressions each hash spent
//! ([`sha1::IteratedSha1::hash`]), and the resolver's cost model aggregates
//! them. The count is of blocks, not time, so it is the same on every kernel.
//!
//! # Kernels and `unsafe`
//!
//! On an x86-64 CPU with the SHA extensions, SHA-1 and SHA-256 compress on
//! the SHA unit (`x86.rs`), with the NSEC3 iteration chain kept in
//! registers; elsewhere they run the portable Rust, which is also the
//! oracle the hardware kernels are tested against ([`sha_kernel`] says
//! which one this CPU runs). `unsafe` is denied crate-wide and forbidden
//! in every other crate: the three calls into `#[target_feature]`
//! kernels in `x86.rs` are the only exception, each right after the
//! runtime feature check and under a `// SAFETY:` line (`scripts/ci.sh`
//! enforces all three rules).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod hmac;
pub mod keytag;
pub mod memo;
pub mod sha1;
pub mod sha256;
pub mod simsig;
#[cfg(target_arch = "x86_64")]
mod x86;

/// Which SHA-1/SHA-256 compression this CPU runs: `"x86 SHA extensions"`
/// or `"portable"`. Every kernel computes the same digests and counts.
pub fn sha_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        return "x86 SHA extensions";
    }
    "portable"
}

/// Constant-time byte-slice equality.
///
/// Not security-critical in a simulation, but signature and MAC comparisons
/// use it anyway so the code reads like production code.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

/// Render bytes as lowercase hex (test helpers and presentation formats).
pub fn hex_lower(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

/// Parse lowercase/uppercase hex into bytes. Returns `None` on odd length or
/// non-hex characters.
pub fn hex_parse(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn hex_roundtrip() {
        let bytes = [0x00, 0x01, 0xab, 0xff, 0x7f];
        let s = hex_lower(&bytes);
        assert_eq!(s, "0001abff7f");
        assert_eq!(hex_parse(&s).unwrap(), bytes);
    }

    #[test]
    fn hex_parse_rejects_bad_input() {
        assert!(hex_parse("abc").is_none());
        assert!(hex_parse("zz").is_none());
        assert_eq!(hex_parse("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn hex_parse_accepts_uppercase() {
        assert_eq!(hex_parse("AABB").unwrap(), vec![0xaa, 0xbb]);
    }
}
