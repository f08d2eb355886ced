//! Property-based tests for the crypto layer.

use sim_check::{gens, props, Rng, Xoshiro256pp};

use dns_crypto::hmac::hmac_sha256;
use dns_crypto::keytag::key_tag;
use dns_crypto::sha1::{sha1, Sha1};
use dns_crypto::simsig::{verify, verify_memo_stats, Context, KeyPair};
use dns_crypto::{ct_eq, hex_lower, hex_parse};

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
        let tag = hmac_sha256(&key, &data);
        assert!(ct_eq(&hmac_sha256(&key, &data), &tag));
        let mut bad = tag;
        let idx = (flip as usize) % bad.len();
        bad[idx] ^= 0x01;
        assert!(!ct_eq(&hmac_sha256(&key, &data), &bad));
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

}

/// One stream of signature checks drawn from `seed`, each verdict of
/// `Context::verify` (the memoised route) asserted equal to the one-shot
/// HMAC oracle, which no memo sits in front of. Six keys (one of them a
/// 31-octet key, which verifies nothing), 2,000 messages — twenty times
/// the memo's slots, so entries collide and evict — with lengths on both
/// sides of the 256-octet cap, and four kinds of signature.
fn memo_stream_verdicts(seed: u64) -> Vec<bool> {
    const DRAWS: usize = 6_000;
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut keys: Vec<Vec<u8>> = (0..5u8)
        .map(|i| KeyPair::from_seed(&[i, seed as u8]).public_key().to_vec())
        .collect();
    keys.push(keys[0][..31].to_vec());
    let contexts: Vec<Context> = keys.iter().map(|k| Context::new(k)).collect();
    let messages: Vec<Vec<u8>> = (0..2_000)
        .map(|_| {
            let len = match rng.gen_range(0..8u8) {
                0 => 255,
                1 => 256,
                2 => 257,
                3 => rng.gen_range(258..600usize),
                _ => rng.gen_range(0..200usize),
            };
            (0..len).map(|_| rng.next_u64() as u8).collect()
        })
        .collect();
    (0..DRAWS)
        .map(|_| {
            let k = rng.gen_range(0..keys.len());
            // Half the draws revisit a few messages, so entries are read
            // back before a collision replaces them.
            let m = if rng.gen_bool(0.5) {
                rng.gen_range(0..24usize)
            } else {
                rng.gen_range(0..messages.len())
            };
            let (key, msg) = (&keys[k], &messages[m]);
            let mut sig = hmac_sha256(key, msg).to_vec();
            match rng.gen_range(0..4u8) {
                0 => {}
                1 => sig[rng.gen_range(0..32usize)] ^= 1 << rng.gen_range(0..8u8),
                2 => sig.truncate(rng.gen_range(0..32usize)),
                _ => sig = hmac_sha256(&keys[(k + 1) % keys.len()], msg).to_vec(),
            }
            let oracle = key.len() == 32 && ct_eq(&hmac_sha256(key, msg), &sig);
            let got = contexts[k].verify(msg, &sig);
            assert_eq!(got, oracle, "key {k}, message {m} ({} octets)", msg.len());
            got
        })
        .collect()
}

props! {
    #![cases = 3]

    /// The signature memo is a memo: every verdict equals the uncached
    /// oracle's, a second thread (its own, cold memo) replays the same
    /// verdicts, and the memo is observably in use on this one.
    fn verify_memo_equals_one_shot_hmac(seed in gens::u64s(..)) {
        let before = verify_memo_stats();
        let here = memo_stream_verdicts(seed);
        let after = verify_memo_stats();
        let (hits, misses) = (after.0 - before.0, after.1 - before.1);
        assert!(hits > 500 && misses > 500, "{hits} hits, {misses} misses");
        assert!(here.iter().any(|v| *v) && here.iter().any(|v| !*v));
        let there = std::thread::scope(|s| {
            s.spawn(|| memo_stream_verdicts(seed)).join().expect("replay thread")
        });
        assert_eq!(here, there);
    }
}
