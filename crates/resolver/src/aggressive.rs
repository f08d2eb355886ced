//! Aggressive use of DNSSEC-validated denial (RFC 8198), NSEC3 flavor.
//!
//! A validating resolver that has already verified an NSEC3 closest-
//! encloser proof holds enough information to *synthesize* NXDOMAIN
//! answers for other names in the covered hash intervals — without asking
//! the authoritative server again. This is the standard mitigation for
//! random-subdomain (water-torture) attacks, and the serving driver's
//! negative-cache fast path.
//!
//! # Hot-path shape
//!
//! Each zone's views are kept **sorted by owner hash**, so the two
//! predicates synthesis needs — "does this hash match a cached owner"
//! and "does a cached interval cover this hash" — are binary searches,
//! not linear scans, and [`AggressiveCache::insert`] is a sorted merge
//! instead of an O(views²) `iter().any()` dedup. Because every cached
//! view comes from one *validated* chain, intervals are disjoint and the
//! only candidates that can cover a hash are its sorted predecessor and
//! the (unique, maximal-owner) wrap-around interval.
//!
//! The RFC 9276 connection makes it interesting here: synthesis still
//! costs one NSEC3 hash chain *per candidate closest encloser* per query,
//! so a zone with high iteration counts taxes even the cache path —
//! aggressive caching shifts CVE-2023-50868 work from "per miss" to
//! "per query", it does not remove it. RFC 8198 §5.4 explicitly warns
//! about this trade-off. The `aggressive_cache_cost` test pins it down.

use std::cell::RefCell;
use std::collections::HashMap;

use dns_wire::name::{ancestor_keys, Name, SortKey, MAX_NAME_LEN};
use dns_zone::nsec3hash::{with_thread_cache, Nsec3Params};

use crate::cost::CostMeter;
use crate::validator::{covers, Nsec3View};

/// One zone's verified denial material; `views` sorted by `owner_hash`.
#[derive(Clone, Debug)]
struct ZoneDenials {
    params: Nsec3Params,
    views: Vec<Nsec3View>,
    expires_micros: u64,
}

/// Binary-search membership: is `hash` a cached owner hash?
fn matches_owner(views: &[Nsec3View], hash: &[u8]) -> bool {
    views
        .binary_search_by(|v| v.owner_hash.as_slice().cmp(hash))
        .is_ok()
}

/// Binary-search coverage: the validated interval strictly containing
/// `hash`, if cached. Intervals from one chain are disjoint, so only two
/// candidates exist — the view with the greatest owner ≤ `hash`, and the
/// wrap-around view (whose owner is the chain maximum, sorting last).
fn covering_view<'a>(views: &'a [Nsec3View], hash: &[u8]) -> Option<&'a Nsec3View> {
    let last = views.last()?;
    let idx = views.partition_point(|v| v.owner_hash.as_slice() <= hash);
    if idx > 0 && covers(&views[idx - 1], hash) {
        return Some(&views[idx - 1]);
    }
    if covers(last, hash) {
        return Some(last);
    }
    None
}

/// Merge `incoming` into the sorted `existing`, dropping duplicate
/// owner hashes — one linear pass, no per-view membership scan.
fn merge_views(existing: &mut Vec<Nsec3View>, incoming: &[Nsec3View]) {
    let mut add = incoming.to_vec();
    sort_views(&mut add);
    let mut out = Vec::with_capacity(existing.len() + add.len());
    let mut a = existing.drain(..).peekable();
    let mut b = add.into_iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => match x.owner_hash.cmp(&y.owner_hash) {
                std::cmp::Ordering::Less => out.push(a.next().unwrap()),
                std::cmp::Ordering::Greater => out.push(b.next().unwrap()),
                std::cmp::Ordering::Equal => {
                    out.push(a.next().unwrap());
                    b.next();
                }
            },
            (Some(_), None) => out.push(a.next().unwrap()),
            (None, Some(_)) => out.push(b.next().unwrap()),
            (None, None) => break,
        }
    }
    drop(a);
    *existing = out;
}

/// Sort by owner hash and drop duplicates.
fn sort_views(views: &mut Vec<Nsec3View>) {
    views.sort_by(|x, y| x.owner_hash.cmp(&y.owner_hash));
    views.dedup_by(|x, y| x.owner_hash == y.owner_hash);
}

/// A per-resolver store of *validated* NSEC3 records, usable for
/// RFC 8198 synthesis.
#[derive(Debug, Default)]
pub(crate) struct AggressiveCache {
    /// Keyed by the apex's canonical sort key, so the zone above a name
    /// is found by probing the prefixes of that name's key.
    zones: RefCell<HashMap<SortKey, ZoneDenials>>,
    synthesized: std::cell::Cell<u64>,
}

impl AggressiveCache {
    /// Empty cache.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Remember verified NSEC3 views for `zone` until `now + ttl`.
    /// Material with different parameters replaces the old set (a zone has
    /// one parameter set at a time).
    pub(crate) fn insert(
        &self,
        zone: &Name,
        params: &Nsec3Params,
        views: &[Nsec3View],
        now_micros: u64,
        ttl_secs: u32,
    ) {
        let mut zones = self.zones.borrow_mut();
        let expires_micros = now_micros + ttl_secs as u64 * 1_000_000;
        match zone.with_sort_key(|key| zones.get_mut(key)) {
            Some(existing) if existing.params == *params => {
                existing.expires_micros = expires_micros;
                merge_views(&mut existing.views, views);
            }
            _ => {
                let mut sorted = views.to_vec();
                sort_views(&mut sorted);
                zones.insert(
                    zone.sort_key(),
                    ZoneDenials {
                        params: params.clone(),
                        views: sorted,
                        expires_micros,
                    },
                );
            }
        }
    }

    /// Try to prove `qname` nonexistent from cache alone (RFC 8198 §5.1),
    /// under the cached zone `zone_up` labels above it (what
    /// [`AggressiveCache::zone_for`] found).
    ///
    /// The closest encloser is found by walking `qname`'s ancestors from
    /// the longest down to the zone and taking the first whose hash
    /// *matches* a cached owner; the next closer must then fall in a
    /// cached covered interval, as must the encloser's wildcard. Every
    /// candidate costs one hash chain, charged to `meter` — the RFC 8198
    /// §5.4 trade-off: high iteration counts tax even the cache path.
    /// The ancestors are hashed as suffixes of `qname`'s canonical wire
    /// form and the wildcard is written beside it on the stack, so no
    /// name is built.
    ///
    /// Opt-out intervals never prove nonexistence (they may span real,
    /// insecurely-delegated names), so a next closer covered only by an
    /// opt-out view refuses to synthesize.
    pub(crate) fn synthesize_nxdomain(
        &self,
        qname: &Name,
        zone_up: usize,
        now_micros: u64,
        meter: &CostMeter,
    ) -> bool {
        let zones = self.zones.borrow();
        let denials = qname.with_sort_key(|key| {
            let apex = ancestor_keys(key).nth(zone_up)?;
            zones.get(apex).filter(|d| d.expires_micros > now_micros)
        });
        let Some(denials) = denials else {
            return false;
        };
        let hash_of = |wire: &[u8]| {
            let h = with_thread_cache(|cache| cache.lookup_wire(wire, &denials.params));
            meter.add_nsec3_hash(h.compressions);
            h.digest
        };
        let mut buf = [0u8; MAX_NAME_LEN];
        let len = qname.write_canonical_wire(&mut buf);
        let wire = &buf[..len];
        // Longest ancestor with a matched owner hash is the closest
        // encloser. A shallower match can never rescue a failed deeper
        // one: its next closer would be an ancestor of the deeper matched
        // (existing) name, which no validated interval covers. Both are
        // suffixes of `wire`, each starting on a length octet.
        let (mut next_closer, mut encloser) = (0, 1 + usize::from(wire[0]));
        for _ in 0..zone_up {
            if !matches_owner(&denials.views, &hash_of(&wire[encloser..])) {
                next_closer = encloser;
                encloser += 1 + usize::from(wire[encloser]);
                continue;
            }
            match covering_view(&denials.views, &hash_of(&wire[next_closer..])) {
                Some(v) if !v.opt_out => {}
                _ => return false,
            }
            // `*.` and the encloser: never longer than `qname`, whose
            // first label (one octet at least) the `*` stands in for.
            let suffix = &wire[encloser..];
            let mut wildcard = [0u8; MAX_NAME_LEN];
            wildcard[..2].copy_from_slice(&[1, b'*']);
            wildcard[2..2 + suffix.len()].copy_from_slice(suffix);
            let wildcard_hash = hash_of(&wildcard[..2 + suffix.len()]);
            if covering_view(&denials.views, &wildcard_hash).is_none() {
                return false;
            }
            self.synthesized.set(self.synthesized.get() + 1);
            return true;
        }
        false
    }

    /// The longest cached (and unexpired) zone that is a strict ancestor
    /// of `qname`, as the number of labels it lies above `qname`: one
    /// probe per label of `qname`, deepest first, however many zones are
    /// cached.
    pub(crate) fn zone_for(&self, qname: &Name, now_micros: u64) -> Option<usize> {
        let zones = self.zones.borrow();
        let up = qname.with_sort_key(|key| {
            ancestor_keys(key).skip(1).position(|apex| {
                zones
                    .get(apex)
                    .is_some_and(|d| d.expires_micros > now_micros)
            })
        })?;
        Some(up + 1)
    }

    /// NXDOMAINs synthesized so far.
    pub(crate) fn synthesized_count(&self) -> u64 {
        self.synthesized.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::parse_nsec3_set;
    use dns_wire::name::name;
    use dns_wire::record::Record;
    use dns_wire::rrtype::RrType;
    use dns_zone::denial::nxdomain_proof;
    use dns_zone::signer::{sign_zone, Denial, SignerConfig};
    use dns_zone::Zone;

    const NOW: u32 = 1_710_000_000;

    impl AggressiveCache {
        /// [`AggressiveCache::synthesize_nxdomain`] under the cached
        /// `zone`, which must be an ancestor of `qname`.
        fn synthesize_under(&self, zone: &Name, qname: &Name, now: u64, meter: &CostMeter) -> bool {
            assert!(qname.is_subdomain_of(zone));
            let up = qname.label_count() - zone.label_count();
            self.synthesize_nxdomain(qname, up, now, meter)
        }

        /// Number of distinct views cached for `zone` (0 when absent):
        /// observes `insert`'s merge.
        fn view_count(&self, zone: &Name) -> usize {
            zone.with_sort_key(|key| self.zones.borrow().get(key).map(|d| d.views.len()))
                .unwrap_or(0)
        }
    }

    fn signed(params: Nsec3Params) -> dns_zone::SignedZone {
        let apex = name("agg.example.");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            3600,
            dns_wire::rdata::RData::Soa {
                mname: name("ns1.agg.example."),
                rname: name("h.agg.example."),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            },
        ))
        .unwrap();
        z.add(Record::new(
            name("www.agg.example."),
            300,
            dns_wire::rdata::RData::A("192.0.2.1".parse().unwrap()),
        ))
        .unwrap();
        sign_zone(
            &z,
            &SignerConfig {
                denial: Denial::Nsec3 {
                    params,
                    opt_out: false,
                },
                ..SignerConfig::standard(&apex, NOW)
            },
        )
        .unwrap()
    }

    /// A zone with interior structure below the apex, for synthesis at a
    /// closest encloser that is *not* the apex.
    fn signed_deep() -> dns_zone::SignedZone {
        let apex = name("agg.example.");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            3600,
            dns_wire::rdata::RData::Soa {
                mname: name("ns1.agg.example."),
                rname: name("h.agg.example."),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            },
        ))
        .unwrap();
        z.add(Record::new(
            name("host.dept.agg.example."),
            300,
            dns_wire::rdata::RData::A("192.0.2.2".parse().unwrap()),
        ))
        .unwrap();
        sign_zone(
            &z,
            &SignerConfig {
                denial: Denial::Nsec3 {
                    params: Nsec3Params::rfc9276(),
                    opt_out: false,
                },
                ..SignerConfig::standard(&apex, NOW)
            },
        )
        .unwrap()
    }

    fn harvest(z: &dns_zone::SignedZone, qname: &Name) -> (Nsec3Params, Vec<Nsec3View>) {
        let proof = nxdomain_proof(z, qname).unwrap();
        let nsec3s: Vec<&Record> = proof
            .records
            .iter()
            .copied()
            .filter(|r| r.rrtype() == RrType::NSEC3)
            .collect();
        parse_nsec3_set(&nsec3s).unwrap()
    }

    #[test]
    fn synthesizes_from_one_observed_proof() {
        let z = signed(Nsec3Params::rfc9276());
        let apex = name("agg.example.");
        let (params, views) = harvest(&z, &name("first-miss.agg.example."));
        let cache = AggressiveCache::new();
        cache.insert(&apex, &params, &views, 0, 300);
        let meter = CostMeter::new();
        // A *different* nonexistent name: covered by the same chain
        // (3 names in the zone → one proof covers most of hash space).
        let hit = cache.synthesize_under(&apex, &name("second-miss.agg.example."), 1, &meter);
        assert!(hit, "synthesis should succeed from the cached chain");
        assert_eq!(cache.synthesized_count(), 1);
        assert!(meter.nsec3_hashes() >= 3, "synthesis still hashes");
    }

    #[test]
    fn synthesizes_below_an_interior_closest_encloser() {
        // The closest encloser is dept.agg.example (an empty non-terminal
        // on the chain), two labels below the zone apex — the case the
        // apex-only synthesizer used to forward upstream.
        let z = signed_deep();
        let apex = name("agg.example.");
        let (params, views) = harvest(&z, &name("ghost.dept.agg.example."));
        let cache = AggressiveCache::new();
        cache.insert(&apex, &params, &views, 0, 300);
        let meter = CostMeter::new();
        let hit = cache.synthesize_under(&apex, &name("phantom.dept.agg.example."), 1, &meter);
        assert!(hit, "interior closest encloser must synthesize");
        // And existing names below that encloser are never denied.
        assert!(!cache.synthesize_under(&apex, &name("host.dept.agg.example."), 1, &meter));
    }

    #[test]
    fn does_not_synthesize_for_existing_names() {
        let z = signed(Nsec3Params::rfc9276());
        let apex = name("agg.example.");
        let (params, views) = harvest(&z, &name("miss.agg.example."));
        let cache = AggressiveCache::new();
        cache.insert(&apex, &params, &views, 0, 300);
        let meter = CostMeter::new();
        // www exists: its hash matches an owner, never covered.
        assert!(!cache.synthesize_under(&apex, &name("www.agg.example."), 1, &meter));
    }

    #[test]
    fn expires_with_ttl() {
        let z = signed(Nsec3Params::rfc9276());
        let apex = name("agg.example.");
        let (params, views) = harvest(&z, &name("miss.agg.example."));
        let cache = AggressiveCache::new();
        cache.insert(&apex, &params, &views, 0, 300);
        let meter = CostMeter::new();
        assert!(!cache.synthesize_under(&apex, &name("x.agg.example."), 301_000_000, &meter));
    }

    #[test]
    fn synthesis_cost_scales_with_iterations() {
        // The RFC 8198 §5.4 warning quantified: synthesis from cache costs
        // (iterations + 1) × 3 compressions per query.
        let cheap = {
            let z = signed(Nsec3Params::rfc9276());
            let apex = name("agg.example.");
            let (params, views) = harvest(&z, &name("m.agg.example."));
            let cache = AggressiveCache::new();
            cache.insert(&apex, &params, &views, 0, 300);
            let meter = CostMeter::new();
            cache.synthesize_under(&apex, &name("q.agg.example."), 1, &meter);
            meter.sha1_compressions()
        };
        let costly = {
            let z = signed(Nsec3Params::new(150, vec![]));
            let apex = name("agg.example.");
            let (params, views) = harvest(&z, &name("m.agg.example."));
            let cache = AggressiveCache::new();
            cache.insert(&apex, &params, &views, 0, 300);
            let meter = CostMeter::new();
            cache.synthesize_under(&apex, &name("q.agg.example."), 1, &meter);
            meter.sha1_compressions()
        };
        assert!(costly >= cheap * 100, "{costly} vs {cheap}");
    }

    #[test]
    fn accumulates_views_for_same_params() {
        let z = signed(Nsec3Params::rfc9276());
        let apex = name("agg.example.");
        let (params, v1) = harvest(&z, &name("a-miss.agg.example."));
        let (_, v2) = harvest(&z, &name("zz-miss.agg.example."));
        let cache = AggressiveCache::new();
        cache.insert(&apex, &params, &v1, 0, 300);
        cache.insert(&apex, &params, &v2, 0, 300);
        // The merge keeps one copy per owner hash, never fewer views
        // than either proof alone contributed.
        let merged = cache.view_count(&apex);
        assert!(merged >= v1.len().max(v2.len()), "merged {merged} views");
        // Re-inserting the same material is idempotent.
        cache.insert(&apex, &params, &v1, 0, 300);
        assert_eq!(cache.view_count(&apex), merged);
        // Changing params replaces the set.
        cache.insert(&apex, &Nsec3Params::new(5, vec![]), &v1, 0, 300);
        assert_eq!(cache.view_count(&apex), v1.len());
    }

    #[test]
    fn zone_for_finds_the_deepest_live_ancestor() {
        let cache = AggressiveCache::new();
        let params = Nsec3Params::rfc9276();
        for (zone, ttl) in [("example.", 300), ("b.example.", 300), ("c.b.example.", 1)] {
            cache.insert(&name(zone), &params, &[], 0, ttl);
        }
        let zone_for = |q: &str, now| {
            let q = name(q);
            cache.zone_for(&q, now).and_then(|up| q.ancestor(up))
        };
        assert_eq!(zone_for("x.C.B.example.", 1), Some(name("c.b.example.")));
        // Expired: the next live zone up. Strict ancestors only.
        assert_eq!(
            zone_for("x.c.b.example.", 2_000_000),
            Some(name("b.example."))
        );
        assert_eq!(zone_for("b.example.", 1), Some(name("example.")));
        assert_eq!(zone_for("xb.example.", 1), Some(name("example.")));
        assert_eq!(zone_for("example.", 1), None);
        assert_eq!(zone_for("x.example.org.", 1), None);
    }

    /// `zone_for` runs on every answer-cache miss, so its cost must not
    /// grow with the number of zones a resolver has seen: it probes one
    /// key per label of the name, it does not scan the zones.
    #[test]
    fn zone_for_cost_is_flat_in_cached_zones() {
        fn ns_per_lookup(zones: usize) -> f64 {
            let cache = AggressiveCache::new();
            let params = Nsec3Params::rfc9276();
            for i in 0..zones {
                cache.insert(&name(&format!("z{i}.example.")), &params, &[], 0, 300);
            }
            // Half the names sit under a cached zone, half under none.
            let probes: Vec<Name> = (0..zones.min(64))
                .flat_map(|i| [format!("www.z{i}.example."), format!("www.y{i}.example.")])
                .map(|q| name(&q))
                .collect();
            let rounds = 40_000 / probes.len();
            (0..9)
                .map(|_| {
                    let start = std::time::Instant::now();
                    let mut found = 0;
                    for _ in 0..rounds {
                        for q in &probes {
                            found += usize::from(cache.zone_for(q, 1).is_some());
                        }
                    }
                    assert_eq!(found, rounds * probes.len() / 2);
                    start.elapsed().as_nanos() as f64 / (rounds * probes.len()) as f64
                })
                .fold(f64::INFINITY, f64::min)
        }
        let (few, many) = (ns_per_lookup(20), ns_per_lookup(2_000));
        println!("zone_for: {few:.0} ns at 20 zones, {many:.0} ns at 2,000");
        assert!(
            many <= 4.0 * few,
            "zone_for costs {many:.0} ns at 2,000 zones against {few:.0} ns at 20"
        );
    }

    #[test]
    fn sorted_probes_agree_with_linear_scans() {
        // Differential check of the binary-search hot path against the
        // obvious linear predicates, across every inserted chain hash
        // and a spread of synthetic probes.
        let z = signed_deep();
        let apex = name("agg.example.");
        let (params, views) = {
            let (p, mut v) = harvest(&z, &name("no1.agg.example."));
            let (_, v2) = harvest(&z, &name("zz.dept.agg.example."));
            v.extend(v2);
            (p, v)
        };
        let cache = AggressiveCache::new();
        cache.insert(&apex, &params, &views, 0, 300);
        let zones = cache.zones.borrow();
        let sorted = &zones.get(&apex.sort_key()).unwrap().views;
        assert!(
            sorted.windows(2).all(|w| w[0].owner_hash < w[1].owner_hash),
            "views must be strictly sorted by owner hash"
        );
        let mut probes: Vec<Vec<u8>> = sorted.iter().map(|v| v.owner_hash.clone()).collect();
        for step in 0..=255u8 {
            probes.push(vec![step; 20]);
        }
        for h in &probes {
            let lin_match = sorted.iter().any(|v| v.owner_hash == *h);
            assert_eq!(matches_owner(sorted, h), lin_match);
            let lin_cover = sorted.iter().find(|v| covers(v, h));
            assert_eq!(
                covering_view(sorted, h).map(|v| &v.owner_hash),
                lin_cover.map(|v| &v.owner_hash)
            );
        }
    }
}
