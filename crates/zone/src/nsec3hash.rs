//! The NSEC3 hash computation (RFC 5155 §5) and its cost accounting.
//!
//! ```text
//! IH(salt, x, 0) = H(x || salt)
//! IH(salt, x, k) = H(IH(salt, x, k-1) || salt)   for k > 0
//! hash = IH(salt, owner-name-in-canonical-wire-form, iterations)
//! ```
//!
//! where `H` is SHA-1 (the only defined algorithm) and `iterations` is the
//! number of *additional* iterations — the parameter RFC 9276 item 2
//! requires to be zero, and the lever CVE-2023-50868 pulls.
//!
//! Two engines compute the same function:
//!
//! * [`nsec3_hash`] — the fast path, built on
//!   [`dns_crypto::sha1::IteratedSha1`]: one prebuilt padded block per
//!   parameter set, no per-iteration hasher construction, no allocation for
//!   the canonical wire form.
//! * [`nsec3_hash_reference`] — the original streaming construction, kept
//!   as the differential-testing oracle (`crates/zone/tests/proptests.rs`
//!   pins byte identity and compression-count equality across salt lengths
//!   and iteration counts).
//!
//! [`Nsec3HashCache`] memoizes results across a signing run or a resolver's
//! closest-encloser search: `dns_crypto`'s one direct-mapped [`Memo`] with
//! the admission rule that keeps compliant entries. Cache hits return the
//! stored [`Nsec3Hash`] verbatim — *including* its `compressions` count —
//! so the CVE-2023-50868 cost model sees identical numbers whether or not
//! a cache sat in front of the engine. Each thread has one, emptied when a
//! study shard starts ([`clear_thread_cache`]).
//!
//! # Entry points
//!
//! | entry point | what it is | used by |
//! |---|---|---|
//! | [`nsec3_hash_cached`] | [`nsec3_hash`] behind this thread's [`Nsec3HashCache`] | the signer's denial pass, denial proof synthesis, validator closest-encloser loops, zone walks — what the signer inserts is what the proofs and the validator hit afterwards; RFC 8198 synthesis reaches the same cache with wire suffixes ([`with_thread_cache`], [`Nsec3HashCache::lookup_wire`]) |
//! | [`nsec3_hash`] | the engine, uncached | benches, cold one-offs, and [`Nsec3HashCache::lookup`] on a miss |
//! | [`nsec3_hash_reference`] | the RFC 5155 §5 recurrence as written | tests and the bench parity gate |

use std::cell::RefCell;

use dns_crypto::hash::KeyedState;
use dns_crypto::memo::Memo;
use dns_crypto::sha1::{IteratedSha1, Sha1};
#[cfg(test)]
use dns_wire::base32;
use dns_wire::name::{Name, MAX_NAME_LEN};
use dns_wire::rdata::{RData, NSEC3_HASH_SHA1};

/// Per-zone NSEC3 parameters, as carried in NSEC3PARAM and in every NSEC3
/// record of a zone.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Nsec3Params {
    /// Hash algorithm (1 = SHA-1; anything else is treated as unknown and
    /// the zone as insecure, per RFC 5155 §8.1).
    pub hash_alg: u8,
    /// Number of *additional* hash iterations.
    pub iterations: u16,
    /// Salt appended to the name (and every intermediate digest).
    pub salt: Vec<u8>,
}

impl Nsec3Params {
    /// The RFC 9276-compliant parameter set: SHA-1, zero additional
    /// iterations, empty salt ("1 0 0 -").
    pub fn rfc9276() -> Self {
        Nsec3Params {
            hash_alg: NSEC3_HASH_SHA1,
            iterations: 0,
            salt: Vec::new(),
        }
    }

    /// Arbitrary parameters (the populations in the wild).
    pub fn new(iterations: u16, salt: Vec<u8>) -> Self {
        Nsec3Params {
            hash_alg: NSEC3_HASH_SHA1,
            iterations,
            salt,
        }
    }

    /// Extract parameters from an NSEC3 or NSEC3PARAM RDATA.
    pub fn from_rdata(rdata: &RData) -> Option<Self> {
        match rdata {
            RData::Nsec3 {
                hash_alg,
                iterations,
                salt,
                ..
            }
            | RData::Nsec3Param {
                hash_alg,
                iterations,
                salt,
                ..
            } => Some(Nsec3Params {
                hash_alg: *hash_alg,
                iterations: *iterations,
                salt: salt.clone(),
            }),
            _ => None,
        }
    }

    /// Does this parameter set comply with RFC 9276 (items 2 and 3)?
    /// Item 2 (MUST, iterations == 0) and item 3 (SHOULD NOT, salt) are
    /// reported separately by the analysis crate; *full* compliance is both.
    pub fn rfc9276_compliant(&self) -> bool {
        self.iterations == 0 && self.salt.is_empty()
    }
}

impl Default for Nsec3Params {
    fn default() -> Self {
        Self::rfc9276()
    }
}

/// Result of hashing one name: the digest and what it cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Nsec3Hash {
    /// The 20-byte SHA-1 based NSEC3 hash.
    pub digest: [u8; 20],
    /// SHA-1 compression-function invocations spent computing it — the
    /// currency of CVE-2023-50868.
    pub compressions: u64,
}

/// Compute the NSEC3 hash of `name` under `params`.
///
/// The name is hashed in canonical (lowercased, uncompressed) wire form per
/// RFC 5155 §5. The wire form is written to a stack buffer and handed to the
/// single-block fast engine — no allocation on this path.
pub fn nsec3_hash(name: &Name, params: &Nsec3Params) -> Nsec3Hash {
    let mut buf = [0u8; MAX_NAME_LEN];
    let len = name.write_canonical_wire(&mut buf);
    hash_wire(&buf[..len], params)
}

/// The engine over a name already in canonical wire form.
fn hash_wire(wire: &[u8], params: &Nsec3Params) -> Nsec3Hash {
    let engine = IteratedSha1::new(&params.salt);
    let (digest, compressions) = engine.hash(wire, params.iterations);
    Nsec3Hash {
        digest,
        compressions,
    }
}

/// The streaming reference implementation of [`nsec3_hash`]: a fresh
/// [`Sha1`] per step, exactly as RFC 5155 §5 writes the recurrence. Kept as
/// the oracle for differential tests and the baseline of the
/// `fastpath_vs_reference` bench rows.
pub fn nsec3_hash_reference(name: &Name, params: &Nsec3Params) -> Nsec3Hash {
    let mut compressions = 0u64;
    let mut h = Sha1::new();
    h.update(&name.to_canonical_wire());
    h.update(&params.salt);
    compressions += h.padded_compressions();
    let mut digest = h.finalize_fixed();
    for _ in 0..params.iterations {
        let mut h = Sha1::new();
        h.update(&digest);
        h.update(&params.salt);
        compressions += h.padded_compressions();
        digest = h.finalize_fixed();
    }
    Nsec3Hash {
        digest,
        compressions,
    }
}

/// A bounded, seeded memo of NSEC3 hashes, keyed by
/// `(hash algorithm, canonical wire name, salt, iterations)`: a
/// [`Memo`] (DESIGN.md §6, "One memo") with one admission rule.
///
/// A colliding store replaces the slot's entry (newest wins), with one
/// cost-aware carve-out: an entry computed under RFC 9276-compliant
/// parameters (zero iterations, empty salt: one compression to
/// recompute) is never evicted by a non-compliant store. An adversarial
/// flood of distinct max-iteration names therefore cannot purge the
/// cheap entries legitimate traffic relies on; expensive entries compete
/// only for slots cheap traffic is not using. The rule depends only on
/// the store sequence, so replays stay deterministic, and a hit compares
/// the complete key, so it can never return the hash of a different
/// name — the byte-identity contract of `tests/determinism.rs` does not
/// bend for slot collisions.
///
/// A hit returns the stored [`Nsec3Hash`] verbatim, `compressions`
/// included: the cost model (CVE-2023-50868) observes identical totals with
/// or without the cache, which only ever changes wall-clock time.
pub struct Nsec3HashCache {
    memo: RefCell<Memo<Entry>>,
}

/// A stored hash, and whether its parameters were RFC 9276-compliant.
type Entry = (Nsec3Hash, bool);

/// The admission rule: a compliant entry is displaced only by another.
fn admit((_, held_cheap): &Entry, (_, cheap): &Entry) -> bool {
    *cheap || !*held_cheap
}

/// Longest salt the one-octet length field of an NSEC3 record can carry.
const MAX_SALT_LEN: usize = 255;

/// Longest key: the algorithm and iteration-count octets, a maximal wire
/// name and a maximal salt. The head has a fixed width and the wire form
/// is self-delimiting (it ends at its root label), so the concatenation
/// is unambiguous.
const MAX_KEY_LEN: usize = 3 + MAX_NAME_LEN + MAX_SALT_LEN;

impl Nsec3HashCache {
    /// Default slot count (a power of two).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A cache with [`Nsec3HashCache::DEFAULT_CAPACITY`] slots and a fixed
    /// seed.
    pub(crate) fn new() -> Self {
        Self::with_capacity_and_seed(Self::DEFAULT_CAPACITY, 0x9276_5155)
    }

    /// A cache with `capacity` slots (rounded up to a power of two, minimum
    /// 1) whose slot mapping is keyed by `seed`.
    pub fn with_capacity_and_seed(capacity: usize, seed: u64) -> Self {
        Nsec3HashCache {
            memo: RefCell::new(Memo::new(
                capacity,
                KeyedState::new(seed),
                MAX_KEY_LEN,
                admit,
            )),
        }
    }

    /// Hash `name` under `params`, memoized.
    pub fn lookup(&self, name: &Name, params: &Nsec3Params) -> Nsec3Hash {
        let mut wire = [0u8; MAX_NAME_LEN];
        let len = name.write_canonical_wire(&mut wire);
        self.lookup_wire(&wire[..len], params)
    }

    /// [`Nsec3HashCache::lookup`] of a name given in canonical wire form
    /// (lowercase, root octet included, at most [`MAX_NAME_LEN`] octets):
    /// a caller holding a name's wire form hashes its ancestors as
    /// suffixes of it, without building a [`Name`] for each.
    pub fn lookup_wire(&self, wire: &[u8], params: &Nsec3Params) -> Nsec3Hash {
        if params.salt.len() > MAX_SALT_LEN {
            // A salt no NSEC3 record can carry: compute without caching or
            // counting.
            return hash_wire(wire, params);
        }
        let [low, high] = params.iterations.to_le_bytes();
        let key = [&[params.hash_alg, low, high][..], wire, &params.salt];
        let compute = || (hash_wire(wire, params), params.rfc9276_compliant());
        self.memo.borrow_mut().get_or_compute(&key, compute).0
    }

    /// Lookups answered from the table.
    pub(crate) fn hits(&self) -> u64 {
        self.memo.borrow().stats().0
    }

    /// Lookups that ran the engine.
    pub(crate) fn misses(&self) -> u64 {
        self.memo.borrow().stats().1
    }

    /// Drop every entry and zero the counters.
    pub(crate) fn clear(&self) {
        self.memo.borrow_mut().clear();
    }
}

thread_local! {
    /// One cache per worker thread. Thread-locality keeps the sharded
    /// drivers coordination-free: shard output never depends on what any
    /// other thread has cached, so byte identity across `HEROES_THREADS`
    /// values is preserved by construction.
    static THREAD_CACHE: Nsec3HashCache = Nsec3HashCache::new();
}

/// [`nsec3_hash`] through this thread's shared [`Nsec3HashCache`].
pub fn nsec3_hash_cached(name: &Name, params: &Nsec3Params) -> Nsec3Hash {
    THREAD_CACHE.with(|c| c.lookup(name, params))
}

/// Lend this thread's shared [`Nsec3HashCache`] to `f` — the route to
/// [`Nsec3HashCache::lookup_wire`] for callers hashing wire suffixes.
pub fn with_thread_cache<R>(f: impl FnOnce(&Nsec3HashCache) -> R) -> R {
    THREAD_CACHE.with(f)
}

/// `(hits, misses)` of this thread's shared cache since it was last
/// emptied — observability for benches and tests.
pub fn thread_cache_stats() -> (u64, u64) {
    THREAD_CACHE.with(|c| (c.hits(), c.misses()))
}

/// Empty this thread's shared cache and zero its counters: cold-path
/// measurements start here, and so does every study shard.
pub fn clear_thread_cache() {
    THREAD_CACHE.with(|c| c.clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name::name;

    /// RFC 5155 Appendix A: zone `example.`, salt `aabbccdd`, 12 additional
    /// iterations.
    fn appendix_a_params() -> Nsec3Params {
        Nsec3Params::new(12, vec![0xaa, 0xbb, 0xcc, 0xdd])
    }

    fn hash_b32(n: &str) -> String {
        base32::encode(&nsec3_hash(&name(n), &appendix_a_params()).digest)
    }

    #[test]
    fn rfc5155_appendix_a_vectors() {
        // Every (name, hash) pair published in RFC 5155 Appendix A.
        let vectors = [
            ("example.", "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom"),
            ("a.example.", "35mthgpgcu1qg68fab165klnsnk3dpvl"),
            ("ai.example.", "gjeqe526plbf1g8mklp59enfd789njgi"),
            ("ns1.example.", "2t7b4g4vsa5smi47k61mv5bv1a22bojr"),
            ("ns2.example.", "q04jkcevqvmu85r014c7dkba38o0ji5r"),
            ("w.example.", "k8udemvp1j2f7eg6jebps17vp3n8i58h"),
            ("*.w.example.", "r53bq7cc2uvmubfu5ocmm6pers9tk9en"),
            ("x.w.example.", "b4um86eghhds6nea196smvmlo4ors995"),
            ("y.w.example.", "ji6neoaepv8b5o6k4ev33abha8ht9fgc"),
            ("x.y.w.example.", "2vptu5timamqttgl4luu9kg21e0aor3s"),
            ("xx.example.", "t644ebqk9bibcna874givr6joj62mlhv"),
        ];
        for (n, expected) in vectors {
            assert_eq!(hash_b32(n), expected, "hash of {n}");
        }
    }

    #[test]
    fn hash_is_case_insensitive() {
        let p = appendix_a_params();
        assert_eq!(
            nsec3_hash(&name("A.Example."), &p).digest,
            nsec3_hash(&name("a.example."), &p).digest
        );
    }

    #[test]
    fn zero_iterations_is_one_hash() {
        let p = Nsec3Params::rfc9276();
        let h = nsec3_hash(&name("example.com."), &p);
        // Short input: one compression.
        assert_eq!(h.compressions, 1);
    }

    #[test]
    fn compressions_scale_linearly_with_iterations() {
        let short_salt = Nsec3Params::new(100, vec![0xab; 4]);
        let h = nsec3_hash(&name("example.com."), &short_salt);
        // 1 initial + 100 iterations, each 20+4+9 = 33 bytes = 1 block.
        assert_eq!(h.compressions, 101);
        // A big salt forces 2 blocks per iteration: 20+64+9 = 93 bytes.
        let big_salt = Nsec3Params::new(100, vec![0xab; 64]);
        let h2 = nsec3_hash(&name("example.com."), &big_salt);
        assert_eq!(h2.compressions, 202);
        // The CVE's lever: cost ratio vs the RFC 9276 setting.
        let base = nsec3_hash(&name("example.com."), &Nsec3Params::rfc9276());
        assert!(h2.compressions / base.compressions >= 100);
    }

    #[test]
    fn salt_changes_hash() {
        let a = nsec3_hash(&name("x.example."), &Nsec3Params::new(0, vec![]));
        let b = nsec3_hash(&name("x.example."), &Nsec3Params::new(0, vec![1]));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn iterations_change_hash() {
        let a = nsec3_hash(&name("x.example."), &Nsec3Params::new(0, vec![]));
        let b = nsec3_hash(&name("x.example."), &Nsec3Params::new(1, vec![]));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn rfc9276_compliance_predicate() {
        assert!(Nsec3Params::rfc9276().rfc9276_compliant());
        assert!(!Nsec3Params::new(1, vec![]).rfc9276_compliant());
        assert!(!Nsec3Params::new(0, vec![1]).rfc9276_compliant());
    }

    #[test]
    fn fast_engine_matches_reference_on_appendix_a() {
        let p = appendix_a_params();
        for n in ["example.", "a.example.", "*.w.example.", "x.y.w.example."] {
            let n = name(n);
            assert_eq!(nsec3_hash(&n, &p), nsec3_hash_reference(&n, &p));
        }
    }

    #[test]
    fn cache_hit_returns_identical_hash_and_compressions() {
        let cache = Nsec3HashCache::with_capacity_and_seed(64, 1);
        let p = Nsec3Params::new(150, vec![0xab; 8]);
        let n = name("cached.example.");
        let miss = cache.lookup(&n, &p);
        let hit = cache.lookup(&n, &p);
        assert_eq!(miss, hit, "a hit must replay the miss byte for byte");
        assert_eq!(miss, nsec3_hash_reference(&n, &p));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn cache_distinguishes_params_and_names() {
        let cache = Nsec3HashCache::new();
        let n = name("x.example.");
        let a = cache.lookup(&n, &Nsec3Params::new(0, vec![]));
        let b = cache.lookup(&n, &Nsec3Params::new(1, vec![]));
        let c = cache.lookup(&n, &Nsec3Params::new(0, vec![1]));
        let d = cache.lookup(&name("y.example."), &Nsec3Params::new(0, vec![]));
        assert_ne!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert_ne!(a.digest, d.digest);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn tiny_cache_evicts_deterministically_and_stays_correct() {
        // A one-slot cache is pure eviction pressure: every entry fights for
        // the same slot, and results must still match the engine exactly.
        let cache = Nsec3HashCache::with_capacity_and_seed(1, 9);
        let p = Nsec3Params::rfc9276();
        for round in 0..3 {
            for i in 0..20 {
                let n = name(&format!("host{i}.example."));
                assert_eq!(cache.lookup(&n, &p), nsec3_hash(&n, &p), "round {round}");
            }
        }
        let (h1, m1) = (cache.hits(), cache.misses());
        // Replay from scratch: identical stats, because eviction depends
        // only on the insert sequence and the seed.
        let replay = Nsec3HashCache::with_capacity_and_seed(1, 9);
        for _ in 0..3 {
            for i in 0..20 {
                let n = name(&format!("host{i}.example."));
                replay.lookup(&n, &p);
            }
        }
        assert_eq!((replay.hits(), replay.misses()), (h1, m1));
    }

    #[test]
    fn adversarial_flood_cannot_evict_cheap_entries() {
        // Warm the cache with RFC 9276-compliant names (the census/signing
        // hot set), measure its steady-state hit pattern, then flood with
        // thousands of distinct max-iteration names — the CVE-2023-50868
        // access pattern. The flood must leave the cheap traffic's hit
        // pattern exactly as it was. (Warm names may collide with *each
        // other* in the direct-mapped table, so per-pass hit counts — not
        // "all 32 hit" — are the invariant.)
        let cache = Nsec3HashCache::with_capacity_and_seed(64, 5);
        let cheap = Nsec3Params::rfc9276();
        let warm: Vec<Name> = (0..32).map(|i| name(&format!("w{i}.example."))).collect();
        let warm_pass = |c: &Nsec3HashCache| {
            let before = c.hits();
            for n in &warm {
                assert_eq!(c.lookup(n, &cheap), nsec3_hash(n, &cheap));
            }
            c.hits() - before
        };
        warm_pass(&cache);
        let baseline_hits = warm_pass(&cache);
        assert!(baseline_hits > 0, "nothing resident after warming");
        let expensive = Nsec3Params::new(2500, vec![0x5a; 16]);
        for i in 0..512 {
            let n = name(&format!("atk{i}.attack.example."));
            // Results stay correct even when admission is refused.
            assert_eq!(cache.lookup(&n, &expensive), nsec3_hash(&n, &expensive));
        }
        assert_eq!(
            warm_pass(&cache),
            baseline_hits,
            "flood changed the cheap hit pattern"
        );
        // Control: without the admission rule this flood *would* purge the
        // table — show it displaces entries when the incumbents are also
        // expensive (newest-wins still applies among expensive entries).
        let atk0 = name("atk0.attack.example.");
        let (h0, m0) = (cache.hits(), cache.misses());
        cache.lookup(&atk0, &expensive);
        assert!(
            cache.hits() == h0 || cache.misses() == m0 + 1,
            "sanity: lookup neither hit nor missed"
        );
    }

    #[test]
    fn thread_cache_matches_uncached() {
        let p = Nsec3Params::new(5, vec![0xcd; 4]);
        let n = name("tls.example.");
        assert_eq!(nsec3_hash_cached(&n, &p), nsec3_hash(&n, &p));
        assert_eq!(nsec3_hash_cached(&n, &p), nsec3_hash(&n, &p));
    }

    #[test]
    fn oversized_salt_is_computed_uncached_and_uncounted() {
        // 256 bytes is one more than an NSEC3 record's salt field holds.
        let cache = Nsec3HashCache::with_capacity_and_seed(64, 1);
        let p = Nsec3Params::new(3, vec![0x5a; 256]);
        let n = name("oversized.example.");
        for _ in 0..2 {
            assert_eq!(cache.lookup(&n, &p), nsec3_hash(&n, &p));
            assert_eq!((cache.hits(), cache.misses()), (0, 0));
        }
    }

    #[test]
    fn params_from_rdata() {
        let rd = RData::Nsec3Param {
            hash_alg: 1,
            flags: 0,
            iterations: 5,
            salt: vec![9],
        };
        let p = Nsec3Params::from_rdata(&rd).unwrap();
        assert_eq!(p.iterations, 5);
        assert_eq!(p.salt, vec![9]);
        assert!(Nsec3Params::from_rdata(&RData::Txt(vec![])).is_none());
    }
}
