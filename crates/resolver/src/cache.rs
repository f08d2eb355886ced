//! TTL-bounded caching, driven by the simulation's virtual clock.
//!
//! Real resolvers cache aggressively — that is why the paper's probing
//! methodology uses a unique label per resolver and why its census
//! expected "a fraction of our queries \[to\] be resolved from \[Cloudflare's\]
//! internal cache" (Appendix A). The resolver keeps:
//!
//! - one [`TtlCache`] each for final answers, validated zone keys, zone
//!   cuts and RFC 8198 denial sets, each keyed by a name's lowercase
//!   canonical wire form ([`dns_wire::name::Name::with_wire_key`]; the
//!   answer cache appends the type), so a probe is one key built on the
//!   stack, one hash and, on a hit, one `memcmp`;
//! - one [`SectionStore`] under the answer cache, holding each distinct
//!   record section its outcomes carry once — the split of Unbound's
//!   message cache, whose entries point into its RRset cache.

use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::rc::Rc;

use dns_crypto::hash::KeyedState;
use dns_wire::record::Record;

/// How many of the oldest live entries an at-capacity insert probes for
/// an expired victim before it settles for the oldest.
const EVICTION_PROBE: usize = 8;

/// The end of the insertion-order list.
const NIL: u32 = u32::MAX;

/// A capacity- and TTL-bounded map over the virtual clock (microseconds).
///
/// Storage is a hash table under a [`KeyedState`] the owner chooses (a
/// resolver keys its tables from its own address), and eviction follows
/// **insertion order**, never the table's layout: an insert at capacity
/// evicts the first expired entry among the eight oldest, else the
/// oldest. So the victim is a pure function of the sequence of
/// operations — sharded drivers that overflow a cache stay
/// byte-identical at every thread count — and an insert costs O(1)
/// amortized. Overwriting a key keeps its place in that order.
///
/// One table holds each key once: entries sit in a `Vec`, threaded into
/// a doubly linked insertion-order list by index, and an open-addressed,
/// linearly probed index of `u64` slots (the key's 32-bit hash beside its
/// entry's position) finds them. A removal moves the last entry into the
/// hole, so the `Vec` never holds a dead entry.
#[derive(Debug)]
pub struct TtlCache<K, V> {
    table: RefCell<Table<K, V>>,
    capacity: usize,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
}

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    expiry: u64,
    /// The key's hash: its home slot and the tag its slot carries.
    hash: u32,
    /// Insertion-order neighbours, [`NIL`] at the ends.
    older: u32,
    newer: u32,
}

#[derive(Debug)]
struct Table<K, V> {
    hasher: KeyedState,
    entries: Vec<Entry<K, V>>,
    /// 0 for an empty slot, else `hash << 32 | (position + 1)`; the
    /// length is a power of two at least twice the entry count.
    slots: Vec<u64>,
    oldest: u32,
    newest: u32,
}

fn slot(hash: u32, position: usize) -> u64 {
    (u64::from(hash) << 32) | (position as u64 + 1)
}

/// Put `slot` in the first free slot from its home on.
fn place(slots: &mut [u64], slot: u64) {
    let mask = slots.len() - 1;
    let mut at = (slot >> 32) as usize & mask;
    while slots[at] != 0 {
        at = (at + 1) & mask;
    }
    slots[at] = slot;
}

impl<K: Hash + Eq, V> Table<K, V> {
    fn hash<Q: Hash + ?Sized>(&self, key: &Q) -> u32 {
        self.hasher.hash_one(key) as u32
    }

    /// The position of the entry holding `key`.
    fn find<Q>(&self, hash: u32, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let mask = self.slots.len().checked_sub(1)?;
        let mut index = hash as usize & mask;
        loop {
            let s = self.slots[index];
            if s == 0 {
                return None;
            }
            let at = (s as u32 - 1) as usize;
            if (s >> 32) as u32 == hash && self.entries[at].key.borrow() == key {
                return Some(at);
            }
            index = (index + 1) & mask;
        }
    }

    /// The index of the slot that holds the entry at `at`.
    fn slot_of(&self, hash: u32, at: usize) -> usize {
        let mask = self.slots.len() - 1;
        let mut index = hash as usize & mask;
        while self.slots[index] != slot(hash, at) {
            index = (index + 1) & mask;
        }
        index
    }

    /// Make `newer` follow `older` in insertion order ([`NIL`] for an end).
    fn join(&mut self, older: u32, newer: u32) {
        match older {
            NIL => self.oldest = newer,
            o => self.entries[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.entries[n as usize].older = older,
        }
    }

    /// Append a new newest entry.
    fn push(&mut self, hash: u32, key: K, value: V, expiry: u64) {
        if 2 * (self.entries.len() + 1) > self.slots.len() {
            self.slots = vec![0; (2 * self.slots.len()).max(16)];
            for (at, entry) in self.entries.iter().enumerate() {
                place(&mut self.slots, slot(entry.hash, at));
            }
        }
        let at = self.entries.len();
        self.entries.push(Entry {
            key,
            value,
            expiry,
            hash,
            older: NIL,
            newer: NIL,
        });
        place(&mut self.slots, slot(hash, at));
        self.join(self.newest, at as u32);
        self.join(at as u32, NIL);
    }

    /// Remove the entry at `at`. The last entry moves into its place.
    fn remove(&mut self, at: usize) {
        let Entry {
            hash, older, newer, ..
        } = self.entries[at];
        self.join(older, newer);
        self.vacate(self.slot_of(hash, at));
        let last = self.entries.len() - 1;
        self.entries.swap_remove(at);
        if at < last {
            let Entry {
                hash, older, newer, ..
            } = self.entries[at];
            self.join(older, at as u32);
            self.join(at as u32, newer);
            let index = self.slot_of(hash, last);
            self.slots[index] = slot(hash, at);
        }
    }

    /// Empty slot `index`, shifting back every later slot of its probe
    /// run that may sit there, so no lookup meets a hole it should pass.
    fn vacate(&mut self, mut index: usize) {
        let mask = self.slots.len() - 1;
        let mut next = (index + 1) & mask;
        while self.slots[next] != 0 {
            let home = (self.slots[next] >> 32) as usize & mask;
            // Movable unless its home lies cyclically in (index, next].
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(index) & mask {
                self.slots[index] = self.slots[next];
                index = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[index] = 0;
    }

    /// The first expired entry among the [`EVICTION_PROBE`] oldest, else
    /// the oldest.
    fn victim(&self, now_micros: u64) -> usize {
        let mut at = self.oldest;
        for _ in 0..EVICTION_PROBE {
            let Some(entry) = self.entries.get(at as usize) else {
                break;
            };
            if entry.expiry <= now_micros {
                return at as usize;
            }
            at = entry.newer;
        }
        self.oldest as usize
    }
}

impl<K: Hash + Eq, V> TtlCache<K, V> {
    /// A cache holding at most `capacity` live entries (0 disables it),
    /// hashing its keys under `hasher`.
    pub fn new(capacity: usize, hasher: KeyedState) -> Self {
        TtlCache {
            table: RefCell::new(Table {
                hasher,
                entries: Vec::new(),
                slots: Vec::new(),
                oldest: NIL,
                newest: NIL,
            }),
            capacity,
            hits: Cell::new(0),
            misses: Cell::new(0),
            evictions: Cell::new(0),
        }
    }

    /// Run `f` on the value of `key` if present and not expired at
    /// `now_micros`, counting a hit; an expired entry is removed and
    /// counts a miss, as an absent one does. Takes any borrowed form of
    /// the key: the resolver's caches store boxed wire keys and are
    /// probed with key bytes built on the stack.
    pub(crate) fn with_live<Q, R>(
        &self,
        key: &Q,
        now_micros: u64,
        f: impl FnOnce(&mut V) -> R,
    ) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.capacity == 0 {
            return None;
        }
        let mut table = self.table.borrow_mut();
        let found = table.find(table.hash(key), key);
        match found {
            Some(at) if table.entries[at].expiry > now_micros => {
                self.hits.set(self.hits.get() + 1);
                return Some(f(&mut table.entries[at].value));
            }
            Some(at) => table.remove(at),
            None => {}
        }
        self.misses.set(self.misses.get() + 1);
        None
    }

    /// Store `value` until `now_micros + ttl_secs`.
    pub fn put(&self, key: K, value: V, now_micros: u64, ttl_secs: u32) {
        if self.capacity == 0 || ttl_secs == 0 {
            return;
        }
        let expiry = now_micros + ttl_secs as u64 * 1_000_000;
        let mut table = self.table.borrow_mut();
        let hash = table.hash(&key);
        if let Some(at) = table.find(hash, &key) {
            let entry = &mut table.entries[at];
            (entry.value, entry.expiry) = (value, expiry);
            return;
        }
        if table.entries.len() >= self.capacity {
            let victim = table.victim(now_micros);
            table.remove(victim);
            self.evictions.set(self.evictions.get() + 1);
        }
        table.push(hash, key, value, expiry);
    }

    /// Live entry count (may include expired entries not yet collected).
    #[allow(clippy::len_without_is_empty)] // nothing asks whether it is empty
    pub fn len(&self) -> usize {
        self.table.borrow().entries.len()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// At-capacity evictions so far (expired-entry removal on `get` is
    /// not an eviction; only the insert path displacing a victim counts).
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }
}

impl<K: Hash + Eq, V: Clone> TtlCache<K, V> {
    /// Fetch `key` if present and not expired at `now_micros`. An expired
    /// entry is removed and counts a miss, as an absent one does. Takes
    /// any borrowed form of the key.
    pub fn get<Q>(&self, key: &Q, now_micros: u64) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.with_live(key, now_micros, |v| v.clone())
    }
}

thread_local! {
    /// The one empty section every outcome without records shares.
    static NO_RECORDS: Rc<[Record]> = Rc::from(Vec::new());
}

/// An empty record section: a reference count, no allocation.
pub(crate) fn no_records() -> Rc<[Record]> {
    NO_RECORDS.with(Rc::clone)
}

/// The size below which a [`SectionStore`] never sweeps.
const FIRST_SWEEP: usize = 16;

/// One allocation per distinct record section: the answer and authority
/// sections of a resolver's outcomes, so the answer cache's entries
/// point at shared records instead of each holding a decoded copy.
/// Under NXDOMAIN-heavy traffic most outcomes carry one of a zone's few
/// NSEC3 proofs, so most sections are found here already.
///
/// A section is filed under one 64-bit hash of its records' owner
/// octets (case kept), TTLs and types, and a held section is handed out
/// only if it equals the newcomer exactly ([`Record::eq_exact`]): the
/// resolver asks dns-0x20 qnames and a wildcard answer echoes their
/// case, so sections that `==` calls equal may differ in octets a client
/// sees. A newcomer that meets a different section under its hash stays
/// unshared — correct, only not deduplicated — unless nothing but the
/// store holds that section, which it then replaces. The store decides
/// no answer, only which allocation holds its records.
///
/// Sections only the store still holds are swept once it has doubled
/// since the last sweep (and holds at least [`FIRST_SWEEP`]), so it
/// holds at most twice what was still in use at the last sweep, and a
/// sweep costs O(1) a store, amortized.
#[derive(Debug)]
pub(crate) struct SectionStore {
    /// `None` for a resolver that caches nothing: every section is its
    /// own allocation.
    table: Option<RefCell<Sections>>,
}

#[derive(Debug)]
struct Sections {
    hasher: KeyedState,
    held: HashMap<u64, Rc<[Record]>, KeyedState>,
    /// The size at which the next store sweeps first.
    sweep_at: usize,
}

impl SectionStore {
    /// A store hashing under `hasher`, or none at all unless `enabled`.
    pub(crate) fn new(enabled: bool, hasher: KeyedState) -> Self {
        SectionStore {
            table: enabled.then(|| {
                RefCell::new(Sections {
                    hasher,
                    held: HashMap::with_hasher(hasher),
                    sweep_at: FIRST_SWEEP,
                })
            }),
        }
    }

    /// `records` as an outcome section: the held section equal to it,
    /// else `records` moved into a new shared allocation (and held), or
    /// the shared empty section.
    pub(crate) fn share(&self, records: Vec<Record>) -> Rc<[Record]> {
        if records.is_empty() {
            return no_records();
        }
        let Some(table) = &self.table else {
            return records.into();
        };
        let mut table = table.borrow_mut();
        let hash = table.hash(&records);
        if let Some(held) = table.held.get(&hash) {
            let equal = held.len() == records.len()
                && held.iter().zip(&records).all(|(a, b)| a.eq_exact(b));
            if equal {
                return Rc::clone(held);
            }
            if Rc::strong_count(held) > 1 {
                return records.into();
            }
        }
        if table.held.len() >= table.sweep_at {
            table.sweep();
        }
        let section: Rc<[Record]> = records.into();
        table.held.insert(hash, Rc::clone(&section));
        section
    }
}

impl Sections {
    /// Each record's owner (case kept), TTL and type: what tells a
    /// zone's sections apart, cheaply; the RDATA is left to the compare.
    fn hash(&self, records: &[Record]) -> u64 {
        let mut state = self.hasher.build_hasher();
        for record in records {
            record.name.wire_bytes().hash(&mut state);
            state.write_u32(record.ttl);
            state.write_u16(record.rrtype().0);
        }
        state.finish()
    }

    /// Drop the sections nothing outside the store holds.
    fn sweep(&mut self) {
        self.held.retain(|_, section| Rc::strong_count(section) > 1);
        self.sweep_at = (2 * self.held.len()).max(FIRST_SWEEP);
    }
}

#[cfg(test)]
impl SectionStore {
    /// Sections held, and how many of them something else holds too.
    pub(crate) fn counts(&self) -> (usize, usize) {
        self.table.as_ref().map_or((0, 0), |table| {
            let held = &table.borrow().held;
            let shared = held.values().filter(|s| Rc::strong_count(s) > 1);
            (held.len(), shared.count())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name::name;
    use dns_wire::rdata::RData;
    use dns_wire::rrtype::RrType;
    use dns_wire::typebitmap::TypeBitmap;

    /// A signed NXDOMAIN proof as a leaf zone serves it: the SOA and one
    /// NSEC3, each with its RRSIG. `owner` spells the NSEC3 owner (its
    /// case kept) and `signer` the signer name of both signatures.
    fn proof(owner: &str, signer: &str, ttl: u32, signature: u8) -> Vec<Record> {
        let sig = |covered| RData::Rrsig {
            type_covered: covered,
            algorithm: 253,
            labels: 2,
            original_ttl: 300,
            expiration: 1_720_000_000,
            inception: 1_700_000_000,
            key_tag: 4_711,
            signer_name: name(signer),
            signature: vec![signature; 32],
        };
        let soa = RData::Soa {
            mname: name("ns1.example.com."),
            rname: name("hostmaster.example.com."),
            serial: 1,
            refresh: 3_600,
            retry: 600,
            expire: 86_400,
            minimum: 300,
        };
        let nsec3 = RData::Nsec3 {
            hash_alg: 1,
            flags: 0,
            iterations: 0,
            salt: Vec::new(),
            next_hashed: vec![0x5A; 20],
            types: TypeBitmap::from_types([RrType::A, RrType::RRSIG]),
        };
        vec![
            Record::new(name("example.com."), ttl, soa),
            Record::new(name("example.com."), ttl, sig(RrType::SOA)),
            Record::new(name(owner), ttl, nsec3),
            Record::new(name(owner), ttl, sig(RrType::NSEC3)),
        ]
    }

    const OWNER: &str = "b4um86eghhds6nea196smvmlo4ors995.example.com.";
    const SIGNER: &str = "example.com.";

    fn store() -> SectionStore {
        SectionStore::new(true, KeyedState::new(7))
    }

    /// `section` holds exactly `records`, octet for octet.
    fn holds_exactly(section: &[Record], records: &[Record]) -> bool {
        section.len() == records.len() && section.iter().zip(records).all(|(a, b)| a.eq_exact(b))
    }

    #[test]
    fn equal_sections_share_one_allocation() {
        let store = store();
        let first = store.share(proof(OWNER, SIGNER, 300, 1));
        let second = store.share(proof(OWNER, SIGNER, 300, 1));
        assert!(Rc::ptr_eq(&first, &second));
        assert!(holds_exactly(&second, &proof(OWNER, SIGNER, 300, 1)));
        assert_eq!(store.counts(), (1, 1));
        // Empty sections are the one shared empty section, never held.
        assert!(Rc::ptr_eq(&store.share(Vec::new()), &no_records()));
        assert_eq!(store.counts(), (1, 1));
    }

    #[test]
    fn sections_differing_in_any_octet_stay_apart() {
        let upper = OWNER.to_ascii_uppercase();
        // The two case variants are equal under `==`, which ignores the
        // case of names; the store must not be.
        let variants = [
            ("owner-name case", proof(&upper, SIGNER, 300, 1), true),
            (
                "RDATA-name case",
                proof(OWNER, "Example.COM.", 300, 1),
                true,
            ),
            ("TTL by one", proof(OWNER, SIGNER, 301, 1), false),
            ("one signature octet", proof(OWNER, SIGNER, 300, 2), false),
        ];
        for (differs_in, variant, dns_equal) in variants {
            let store = store();
            let first = store.share(proof(OWNER, SIGNER, 300, 1));
            assert_eq!(variant == proof(OWNER, SIGNER, 300, 1), dns_equal);
            let other = store.share(variant.clone());
            assert!(!Rc::ptr_eq(&first, &other), "{differs_in}: shared");
            assert!(holds_exactly(&other, &variant), "{differs_in}: changed");
            assert!(holds_exactly(&first, &proof(OWNER, SIGNER, 300, 1)));
        }
    }

    #[test]
    fn a_hash_collision_leaves_the_newcomer_unshared() {
        // The hash reads owners, TTLs and types, not RDATA: two proofs
        // that differ in a signature collide.
        let store = store();
        let held = store.share(proof(OWNER, SIGNER, 300, 1));
        let newcomer = store.share(proof(OWNER, SIGNER, 300, 2));
        assert!(holds_exactly(&newcomer, &proof(OWNER, SIGNER, 300, 2)));
        assert!(!Rc::ptr_eq(&held, &newcomer));
        assert_eq!(store.counts(), (1, 1), "the held section stays");
        // Its twin still finds the held one; the newcomer's twin is as
        // unshared as the newcomer was.
        assert!(Rc::ptr_eq(
            &held,
            &store.share(proof(OWNER, SIGNER, 300, 1))
        ));
        let twin = store.share(proof(OWNER, SIGNER, 300, 2));
        assert!(!Rc::ptr_eq(&newcomer, &twin));
        // Once only the store holds a section, a newcomer takes its place.
        drop(held);
        let successor = store.share(proof(OWNER, SIGNER, 300, 2));
        assert!(Rc::ptr_eq(
            &successor,
            &store.share(proof(OWNER, SIGNER, 300, 2))
        ));
        assert_eq!(store.counts(), (1, 1));
    }

    fn cache<K: Hash + Eq>(capacity: usize) -> TtlCache<K, u32> {
        TtlCache::new(capacity, KeyedState::default())
    }

    #[test]
    fn get_put_expiry() {
        let cache = cache(8);
        assert_eq!(cache.get(&"k", 0), None);
        cache.put("k", 7, 0, 300);
        assert_eq!(cache.get(&"k", 1_000), Some(7));
        // 300 s later: expired.
        assert_eq!(cache.get(&"k", 300_000_001), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = cache(0);
        cache.put("k", 7, 0, 300);
        assert_eq!(cache.get(&"k", 1), None);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn zero_ttl_not_stored() {
        let cache = cache(8);
        cache.put("k", 7, 0, 0);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn capacity_bounded_with_expired_eviction_first() {
        let cache = cache(2);
        cache.put(2, 2, 0, 1000);
        cache.put(1, 1, 0, 1); // expires at 1s
                               // At t=2s entry 1 is expired; inserting 3 evicts it, keeps the
                               // older but live 2.
        cache.put(3, 3, 2_000_000, 1000);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&2, 2_000_001), Some(2));
        assert_eq!(cache.get(&3, 2_000_001), Some(3));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn all_live_evicts_the_oldest() {
        let cache = cache(3);
        for k in [5, 1, 9] {
            cache.put(k, k, 0, 1000);
        }
        cache.put(4, 4, 1, 1000);
        assert_eq!(cache.get(&5, 2), None);
        for k in [1, 9, 4] {
            assert_eq!(cache.get(&k, 2), Some(k));
        }
    }

    #[test]
    fn overwrite_updates_expiry() {
        let cache = cache(2);
        cache.put("k", 1, 0, 1);
        cache.put("k", 2, 0, 1000);
        assert_eq!(cache.get(&"k", 500_000_000), Some(2));
    }

    #[test]
    fn removals_keep_every_other_entry_reachable() {
        // Evictions from the front while the table grows, then expired
        // entries removed from the middle: every survivor is still found.
        let cache = cache(300);
        for k in 0..1_000u32 {
            cache.put(k, k, u64::from(k), if k % 3 == 0 { 1 } else { 10_000 });
        }
        assert_eq!(cache.evictions(), 700, "the oldest went first");
        let now = 2_000_000;
        for k in 0..1_000 {
            let live = k >= 700 && k % 3 != 0;
            assert_eq!(cache.get(&k, now), live.then_some(k), "key {k}");
        }
        assert_eq!(cache.len(), 200);
        for k in 1_000..1_150u32 {
            cache.put(k, k, now, 10_000);
        }
        // 350 keys for 300 places: the 50 oldest live ones left.
        let kept: Vec<u32> = (700..1_150)
            .filter(|k| cache.get(k, now).is_some())
            .collect();
        assert_eq!(kept.len(), 300);
        assert_eq!(kept[0], 775);
    }
}
