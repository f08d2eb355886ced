//! Property-based tests for the crypto layer.

use sim_check::{gens, props};

use dns_crypto::hmac::{Hmac, HmacKey};
use dns_crypto::keytag::key_tag;
use dns_crypto::sha1::{sha1, Sha1};
use dns_crypto::sha256::{sha256, Sha256};
use dns_crypto::simsig::{verify, KeyPair};
use dns_crypto::{ct_eq, hex_lower, hex_parse, Digest};

props! {
    /// Streaming in arbitrary chunkings equals the one-shot digest.
    fn sha1_chunking_invariance(
        data in gens::vec_of(gens::u8s(..), 0..512),
        splits in gens::vec_of(gens::usizes(..), 0..6),
    ) {
        let expected = sha1(&data);
        let mut h = Sha1::new();
        let mut rest: &[u8] = &data;
        for s in splits {
            if rest.is_empty() {
                break;
            }
            let cut = s % rest.len().max(1);
            let (head, tail) = rest.split_at(cut.min(rest.len()));
            h.update(head);
            rest = tail;
        }
        h.update(rest);
        assert_eq!(h.finalize_fixed(), expected);
    }

    fn sha256_chunking_invariance(
        data in gens::vec_of(gens::u8s(..), 0..512),
        cut in gens::usizes(..),
    ) {
        let expected = sha256(&data);
        let cut = cut % (data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        assert_eq!(h.finalize_fixed(), expected);
    }

    /// padded_compressions predicts exactly what finalize performs.
    fn padded_compressions_exact(len in gens::usizes(0..600)) {
        let data = vec![0xabu8; len];
        let mut h = Sha1::new();
        h.update(&data);
        let predicted = h.padded_compressions();
        let expected = (len + 9).div_ceil(64) as u64;
        assert_eq!(predicted, expected);
    }

    /// Different inputs yield different digests (collision smoke).
    fn sha1_injective_smoke(a in gens::vec_of(gens::u8s(..), 0..64),
                            b in gens::vec_of(gens::u8s(..), 0..64)) {
        if a != b {
            assert_ne!(sha1(&a), sha1(&b));
        }
    }

    /// HMAC verifies its own tags and rejects modified ones.
    fn hmac_verify_roundtrip(
        key in gens::vec_of(gens::u8s(..), 0..100),
        data in gens::vec_of(gens::u8s(..), 0..100),
        flip in gens::u8s(..),
    ) {
        let tag = Hmac::<Sha256>::mac(&key, &data);
        assert!(Hmac::<Sha256>::verify(&key, &data, &tag));
        let mut bad = tag.clone();
        let idx = (flip as usize) % bad.len();
        bad[idx] ^= 0x01;
        assert!(!Hmac::<Sha256>::verify(&key, &data, &bad));
    }

    /// SimSig: sign/verify holds for any seed and message; cross-key
    /// verification fails.
    fn simsig_soundness(
        seed_a in gens::vec_of(gens::u8s(..), 1..32),
        seed_b in gens::vec_of(gens::u8s(..), 1..32),
        msg in gens::vec_of(gens::u8s(..), 0..200),
    ) {
        let a = KeyPair::from_seed(&seed_a);
        let sig = a.sign(&msg);
        assert!(verify(a.public_key(), &msg, &sig));
        if seed_a != seed_b {
            let b = KeyPair::from_seed(&seed_b);
            assert!(!verify(b.public_key(), &msg, &sig));
        }
    }

    /// Key tags: deterministic and within u16.
    fn keytag_deterministic(rdata in gens::vec_of(gens::u8s(..), 0..200)) {
        assert_eq!(key_tag(&rdata), key_tag(&rdata));
    }

    /// Hex round trip.
    fn hex_roundtrip(data in gens::vec_of(gens::u8s(..), 0..64)) {
        assert_eq!(hex_parse(&hex_lower(&data)).unwrap(), data);
    }

    /// ct_eq agrees with ==.
    fn ct_eq_matches_eq(a in gens::vec_of(gens::u8s(..), 0..32),
                        b in gens::vec_of(gens::u8s(..), 0..32)) {
        assert_eq!(ct_eq(&a, &b), a == b);
    }

    /// Batched HMAC-SHA-256 (the signer's RRSIG engine) equals scalar MACs
    /// for any key and ragged message batch.
    fn hmac_batch_matches_scalar(
        key in gens::vec_of(gens::u8s(..), 0..80),
        msgs in gens::vec_of(gens::vec_of(gens::u8s(..), 0..300), 0..17),
    ) {
        let key = HmacKey::<Sha256>::new(&key);
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let mut out = vec![[0u8; 32]; refs.len()];
        key.mac_batch_into(&refs, &mut out);
        for (msg, got) in refs.iter().zip(&out) {
            assert_eq!(got.to_vec(), key.mac(msg), "len {}", msg.len());
        }
    }
}
