//! The zone model: a canonically-ordered collection of RRsets with the
//! structural queries zone signing and denial-of-existence need.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;

use crate::ZoneError;

/// An (owner, type)-indexed zone. The owner index is a `BTreeMap` over
/// [`Name`]'s RFC 4034 canonical ordering, so iteration *is* canonical
/// order — exactly what NSEC chain building needs.
#[derive(Clone, Debug)]
pub struct Zone {
    apex: Name,
    rrsets: BTreeMap<Name, BTreeMap<RrType, Vec<Record>>>,
}

/// The records of one owner name, borrowed from the zone: what
/// [`Zone::node`] finds in one descent of the owner index, so a caller
/// that needs several RRsets of one owner (a referral takes NS, DS and
/// their RRSIGs from the cut) pays for the name comparisons once.
#[derive(Clone, Copy, Debug)]
pub struct ZoneNode<'z> {
    types: &'z BTreeMap<RrType, Vec<Record>>,
}

impl<'z> ZoneNode<'z> {
    /// The RRset of `rrtype` at this owner, if present.
    pub fn rrset(self, rrtype: RrType) -> Option<&'z [Record]> {
        self.types.get(&rrtype).map(Vec::as_slice)
    }

    /// The RRset of `rrtype` followed, when `with_sigs`, by the RRSIGs
    /// covering it — the unit DNSSEC response sections and denial proofs
    /// are assembled from.
    pub fn with_sigs(self, rrtype: RrType, with_sigs: bool) -> impl Iterator<Item = &'z Record> {
        let of = |t| self.rrset(t).unwrap_or_default();
        let sigs = if with_sigs { of(RrType::RRSIG) } else { &[] };
        of(rrtype).iter().chain(sigs.iter().filter(
            move |s| matches!(&s.rdata, RData::Rrsig { type_covered, .. } if *type_covered == rrtype),
        ))
    }
}

/// One member of the denial chain, with the per-name facts the signer
/// needs to build its NSEC3 record without further zone lookups.
pub(crate) struct DenialEntry {
    pub name: Name,
    /// RR types present at the name (empty for an empty non-terminal).
    pub types: Vec<RrType>,
    /// Will the name carry an RRSIG after signing?
    pub will_sign: bool,
}

impl Zone {
    /// An empty zone rooted at `apex`.
    pub fn new(apex: Name) -> Self {
        Zone {
            apex,
            rrsets: BTreeMap::new(),
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Insert a record. Rejects out-of-bailiwick owners.
    pub fn add(&mut self, record: Record) -> Result<(), ZoneError> {
        if !record.name.is_subdomain_of(&self.apex) {
            return Err(ZoneError::OutOfZone(record.name.clone()));
        }
        // Adding to an existing owner (the common case when signing: every
        // RRSIG lands on a name already present) must not clone the
        // per-label-allocated `Name` key.
        match self.rrsets.get_mut(&record.name) {
            Some(types) => types.entry(record.rrtype()).or_default().push(record),
            None => {
                let name = record.name.clone();
                let mut types = BTreeMap::new();
                types.insert(record.rrtype(), vec![record]);
                self.rrsets.insert(name, types);
            }
        }
        Ok(())
    }

    /// The owner-indexed RRset map itself, for same-crate code (the signer)
    /// that scans the zone in canonical order without per-name lookups.
    pub(crate) fn rrsets(&self) -> &BTreeMap<Name, BTreeMap<RrType, Vec<Record>>> {
        &self.rrsets
    }

    /// Merge records whose owners arrive in canonical (map) order with one
    /// linear walk over the zone instead of a tree lookup per record. The
    /// signer's RRSIG stream qualifies: it is produced from an in-order
    /// scan of this very map. Records whose owner is missing (or out of
    /// order) fall back to [`Zone::add`], so the fast path is only an
    /// optimization, never a behavior change.
    pub(crate) fn merge_in_order(&mut self, records: Vec<Record>) -> Result<(), ZoneError> {
        let mut it = records.into_iter().peekable();
        for (name, types) in self.rrsets.iter_mut() {
            if it.peek().is_none() {
                break;
            }
            while it.peek().is_some_and(|r| r.name == *name) {
                let r = it.next().expect("peeked");
                types.entry(r.rrtype()).or_default().push(r);
            }
        }
        for leftover in it {
            self.add(leftover)?;
        }
        Ok(())
    }

    /// Insert records whose owners are mostly *new* to the zone and arrive
    /// in canonical order — the signer's NSEC3 chain qualifies, because it
    /// is sorted by hash and base32hex preserves that order (RFC 5155
    /// chose the alphabet for exactly this property). Rebuilds the owner
    /// map with one linear merge of two sorted streams and a bulk build,
    /// instead of a logarithmic insert per record. Owners that do collide
    /// with an existing name are merged exactly like [`Zone::add`] would;
    /// records arriving out of order fall back to [`Zone::add`].
    pub(crate) fn merge_sorted_owners(&mut self, records: Vec<Record>) -> Result<(), ZoneError> {
        fn push(merged: &mut Vec<(Name, BTreeMap<RrType, Vec<Record>>)>, r: Record) {
            match merged.last_mut() {
                Some((name, types)) if *name == r.name => {
                    types.entry(r.rrtype()).or_default().push(r);
                }
                _ => {
                    let name = r.name.clone();
                    let mut types = BTreeMap::new();
                    types.insert(r.rrtype(), vec![r]);
                    merged.push((name, types));
                }
            }
        }
        // Split off anything that would invalidate the linear merge (out of
        // zone, or not in non-decreasing canonical order); `add` handles
        // those afterwards with its usual checks.
        let mut leftovers: Vec<Record> = Vec::new();
        let mut stream: Vec<Record> = Vec::with_capacity(records.len());
        for r in records {
            let fits = r.name.is_subdomain_of(&self.apex)
                && stream.last().is_none_or(|p| p.name <= r.name);
            if fits {
                stream.push(r);
            } else {
                leftovers.push(r);
            }
        }
        let old = std::mem::take(&mut self.rrsets);
        let mut merged: Vec<(Name, BTreeMap<RrType, Vec<Record>>)> =
            Vec::with_capacity(old.len() + stream.len());
        let mut it = stream.into_iter().peekable();
        for (name, types) in old {
            while it.peek().is_some_and(|r| r.name < name) {
                push(&mut merged, it.next().expect("peeked"));
            }
            match merged.last_mut() {
                // A new owner collided with an existing one: unify them.
                Some((last, last_types)) if *last == name => {
                    for (t, mut recs) in types {
                        let slot = last_types.entry(t).or_default();
                        // Existing records precede newly merged ones, as
                        // they would under repeated `add`.
                        recs.append(slot);
                        *slot = recs;
                    }
                }
                _ => merged.push((name, types)),
            }
        }
        for r in it {
            push(&mut merged, r);
        }
        self.rrsets = merged.into_iter().collect();
        for r in leftovers {
            self.add(r)?;
        }
        Ok(())
    }

    /// Everything stored at exactly `owner`, if any record is.
    pub fn node(&self, owner: &Name) -> Option<ZoneNode<'_>> {
        self.rrsets.get(owner).map(|types| ZoneNode { types })
    }

    /// The RRset of `rrtype` at `name`, if present.
    pub fn rrset(&self, name: &Name, rrtype: RrType) -> Option<&[Record]> {
        self.node(name)?.rrset(rrtype)
    }

    /// Mutable access to an RRset (used by fault injectors).
    pub fn rrset_mut(&mut self, name: &Name, rrtype: RrType) -> Option<&mut Vec<Record>> {
        self.rrsets.get_mut(name).and_then(|t| t.get_mut(&rrtype))
    }

    /// Does any record exist at exactly `name`?
    pub fn has_name(&self, name: &Name) -> bool {
        self.rrsets.contains_key(name)
    }

    /// RR types present at `name`, ascending.
    pub fn types_at(&self, name: &Name) -> Vec<RrType> {
        self.rrsets
            .get(name)
            .map(|t| t.keys().copied().collect())
            .unwrap_or_default()
    }

    /// All records at `name` across types.
    pub fn records_at(&self, name: &Name) -> Vec<&Record> {
        self.rrsets
            .get(name)
            .map(|t| t.values().flatten().collect())
            .unwrap_or_default()
    }

    /// Owner names with explicit records, canonical order.
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.rrsets.keys()
    }

    /// Every record in the zone, canonical owner order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.rrsets.values().flat_map(|t| t.values().flatten())
    }

    /// Total record count.
    pub fn len(&self) -> usize {
        self.rrsets
            .values()
            .map(|t| t.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// True if the zone holds no records.
    pub fn is_empty(&self) -> bool {
        self.rrsets.is_empty()
    }

    /// The node at `name` if it is a delegation point (an NS RRset below
    /// the apex).
    pub fn delegation(&self, name: &Name) -> Option<ZoneNode<'_>> {
        self.node(name)
            .filter(|node| name != &self.apex && node.rrset(RrType::NS).is_some())
    }

    /// Is `name` a delegation point (NS RRset below the apex)?
    pub fn is_delegation(&self, name: &Name) -> bool {
        self.delegation(name).is_some()
    }

    /// Is `name` a *secure* delegation (has a DS RRset)?
    pub fn is_signed_delegation(&self, name: &Name) -> bool {
        self.delegation(name)
            .is_some_and(|node| node.rrset(RrType::DS).is_some())
    }

    /// [`ZoneNode::with_sigs`] at `owner`; empty when nothing is stored
    /// there.
    pub fn rrset_with_sigs<'z>(
        &'z self,
        owner: &Name,
        rrtype: RrType,
        with_sigs: bool,
    ) -> impl Iterator<Item = &'z Record> {
        self.node(owner)
            .into_iter()
            .flat_map(move |node| node.with_sigs(rrtype, with_sigs))
    }

    /// Is `name` occluded — strictly below a delegation point (glue and
    /// anything else under a zone cut), and therefore not authoritative?
    pub fn is_occluded(&self, name: &Name) -> bool {
        // Only the ancestors strictly between `name` and the apex can be
        // cuts above it; a name directly under the apex has none.
        name.ancestors()
            .take(self.depth_below_apex(name).saturating_sub(1))
            .any(|n| self.is_delegation(&n))
    }

    /// How many labels `name` sits below the apex (0 for the apex itself
    /// and for names outside the zone).
    pub fn depth_below_apex(&self, name: &Name) -> usize {
        if name.is_subdomain_of(&self.apex) {
            name.label_count() - self.apex.label_count()
        } else {
            0
        }
    }

    /// Empty non-terminals: names with no records of their own that
    /// nevertheless exist because a descendant does (RFC 5155 needs NSEC3
    /// records for these).
    pub fn empty_non_terminals(&self) -> Vec<Name> {
        let mut ents = BTreeSet::new();
        let floor = self.apex.label_count() + 1;
        for name in self.rrsets.keys() {
            // A name directly under (or at/above) the apex has no room for
            // an ENT between itself and the apex — the common case in
            // flat zones, worth skipping the allocating parent() walk.
            if name.label_count() <= floor {
                continue;
            }
            let mut cur = name.parent();
            while let Some(n) = cur {
                if !n.is_subdomain_of(&self.apex) || n == self.apex {
                    break;
                }
                if !self.rrsets.contains_key(&n) {
                    ents.insert(n.clone());
                }
                cur = n.parent();
            }
        }
        ents.into_iter().collect()
    }

    /// Does `name` "exist" in the zone in the RFC 4035 sense — it has
    /// records, or it is an empty non-terminal?
    pub fn name_exists(&self, name: &Name) -> bool {
        // Canonical order puts a name's descendants directly after it, so
        // the first stored name at or after `name` is `name` itself, a
        // descendant (then `name` is an empty non-terminal), or proof
        // that neither is stored.
        self.rrsets
            .range::<Name, _>((Bound::Included(name), Bound::Unbounded))
            .next()
            .is_some_and(|(first, _)| first.is_subdomain_of(name))
    }

    /// The names that get denial-of-existence records (RFC 5155 §7.1):
    /// every authoritative name and delegation point plus empty
    /// non-terminals; occluded names excluded. With `opt_out`, *insecure*
    /// delegations (and ENTs that only exist because of them) are skipped.
    pub fn denial_names(&self, opt_out: bool) -> Vec<Name> {
        self.denial_entries(opt_out)
            .into_iter()
            .map(|e| e.name)
            .collect()
    }

    /// The denial chain with everything the signer needs per member —
    /// present RR types and whether the name will carry an RRSIG — computed
    /// in the same single canonical-order pass, so building NSEC3 records
    /// costs no per-name tree lookups afterwards.
    pub(crate) fn denial_entries(&self, opt_out: bool) -> Vec<DenialEntry> {
        // One pass in canonical order. A name is occluded iff it sits
        // strictly below a delegation point, and canonical order visits the
        // delegation before everything beneath it — so tracking the most
        // recent cut replaces the per-name ancestor walk (and its
        // per-label allocations) that `is_occluded` would cost. The tree
        // iterates in canonical order already, so the chain accumulates
        // into a Vec directly instead of re-sorting through a second
        // BTreeMap of cloned names.
        let mut main: Vec<DenialEntry> = Vec::with_capacity(self.rrsets.len());
        let mut cut: Option<&Name> = None;
        for (name, types) in &self.rrsets {
            if let Some(c) = cut {
                if name != c && name.is_subdomain_of(c) {
                    continue; // occluded
                }
                cut = None;
            }
            let is_delegation = name != &self.apex && types.contains_key(&RrType::NS);
            if is_delegation {
                cut = Some(name);
            }
            let signed_delegation = is_delegation && types.contains_key(&RrType::DS);
            if opt_out && is_delegation && !signed_delegation {
                continue;
            }
            // At a delegation only a DS RRset is signed; everywhere else
            // every authoritative name carries at least one RRSIG.
            let will_sign = !is_delegation || signed_delegation;
            main.push(DenialEntry {
                name: name.clone(),
                types: types.keys().copied().collect(),
                will_sign,
            });
        }
        // Empty non-terminals arrive sorted (BTreeSet) and are disjoint
        // from `main` (an ENT owns no records), so a single sorted merge
        // finishes the chain. An ENT kept under opt-out needs a signed
        // (i.e. surviving) name beneath it; descendants are contiguous
        // right after the ENT's insertion point in canonical order.
        let ents: Vec<Name> = self
            .empty_non_terminals()
            .into_iter()
            .filter(|ent| !self.is_occluded(ent))
            .filter(|ent| {
                if !opt_out {
                    return true;
                }
                let idx = main.partition_point(|e| e.name < *ent);
                idx < main.len() && main[idx].name.is_subdomain_of(ent)
            })
            .collect();
        if ents.is_empty() {
            return main;
        }
        let mut out = Vec::with_capacity(main.len() + ents.len());
        let mut main = main.into_iter().peekable();
        let mut ents = ents.into_iter().peekable();
        let ent_entry = |name: Name| DenialEntry {
            name,
            types: Vec::new(),
            will_sign: false,
        };
        loop {
            let take_main = match (main.peek(), ents.peek()) {
                (Some(m), Some(e)) => m.name < *e,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_main {
                out.push(main.next().expect("peeked"));
            } else {
                out.push(ent_entry(ents.next().expect("peeked")));
            }
        }
        out
    }

    /// The closest encloser of `qname`: the longest existing (per
    /// [`Zone::name_exists`]) ancestor-or-self of `qname` inside the zone.
    pub fn closest_encloser(&self, qname: &Name) -> Name {
        let depth = self.depth_below_apex(qname);
        if depth > 0 && self.name_exists(qname) {
            return qname.clone();
        }
        qname
            .ancestors()
            .take(depth)
            .find(|candidate| self.name_exists(candidate))
            .unwrap_or_else(|| self.apex.clone())
    }

    /// The SOA minimum TTL (used as the TTL of denial records, RFC 2308).
    pub fn negative_ttl(&self) -> u32 {
        match self.rrset(&self.apex, RrType::SOA) {
            Some([rec, ..]) => match &rec.rdata {
                RData::Soa { minimum, .. } => (*minimum).min(rec.ttl),
                _ => 3600,
            },
            _ => 3600,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name::name;
    use std::net::Ipv4Addr;

    fn a(n: &str, last: u8) -> Record {
        Record::new(name(n), 300, RData::A(Ipv4Addr::new(192, 0, 2, last)))
    }

    fn soa(apex: &str) -> Record {
        Record::new(
            name(apex),
            3600,
            RData::Soa {
                mname: name("ns1.example."),
                rname: name("hostmaster.example."),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 900,
            },
        )
    }

    fn ns(owner: &str, target: &str) -> Record {
        Record::new(name(owner), 3600, RData::Ns(name(target)))
    }

    fn sample_zone() -> Zone {
        let mut z = Zone::new(name("example."));
        z.add(soa("example.")).unwrap();
        z.add(ns("example.", "ns1.example.")).unwrap();
        z.add(a("ns1.example.", 53)).unwrap();
        z.add(a("www.example.", 1)).unwrap();
        z.add(a("a.b.c.example.", 2)).unwrap(); // creates ENTs b.c and c
        z.add(ns("sub.example.", "ns1.sub.example.")).unwrap(); // insecure delegation
        z.add(a("ns1.sub.example.", 54)).unwrap(); // glue (occluded)
        z
    }

    #[test]
    fn add_rejects_out_of_zone() {
        let mut z = Zone::new(name("example."));
        assert!(z.add(a("www.other.", 1)).is_err());
    }

    #[test]
    fn rrset_lookup() {
        let z = sample_zone();
        assert_eq!(z.rrset(&name("www.example."), RrType::A).unwrap().len(), 1);
        assert!(z.rrset(&name("www.example."), RrType::TXT).is_none());
        assert!(z.rrset(&name("nx.example."), RrType::A).is_none());
    }

    #[test]
    fn delegation_and_occlusion() {
        let z = sample_zone();
        assert!(z.is_delegation(&name("sub.example.")));
        assert!(!z.is_delegation(&name("example.")));
        assert!(!z.is_signed_delegation(&name("sub.example.")));
        assert!(z.is_occluded(&name("ns1.sub.example.")));
        assert!(!z.is_occluded(&name("www.example.")));
    }

    #[test]
    fn empty_non_terminals_found() {
        let z = sample_zone();
        let ents = z.empty_non_terminals();
        assert_eq!(ents, vec![name("c.example."), name("b.c.example.")]);
    }

    #[test]
    fn name_exists_includes_ents() {
        let z = sample_zone();
        assert!(z.name_exists(&name("www.example.")));
        assert!(z.name_exists(&name("b.c.example.")));
        assert!(z.name_exists(&name("c.example.")));
        assert!(!z.name_exists(&name("nx.example.")));
        assert!(!z.name_exists(&name("z.b.c.example.")));
    }

    #[test]
    fn closest_encloser_walks_up() {
        let z = sample_zone();
        assert_eq!(z.closest_encloser(&name("nx.example.")), name("example."));
        assert_eq!(
            z.closest_encloser(&name("x.y.www.example.")),
            name("www.example.")
        );
        assert_eq!(
            z.closest_encloser(&name("q.b.c.example.")),
            name("b.c.example.")
        );
    }

    #[test]
    fn denial_names_full_chain() {
        let z = sample_zone();
        let names = z.denial_names(false);
        // apex, ns1, www, a.b.c, b.c (ENT), c (ENT), sub (delegation);
        // glue excluded.
        assert!(names.contains(&name("example.")));
        assert!(names.contains(&name("sub.example.")));
        assert!(names.contains(&name("b.c.example.")));
        assert!(!names.contains(&name("ns1.sub.example.")));
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn denial_names_opt_out_skips_insecure_delegations() {
        let z = sample_zone();
        let names = z.denial_names(true);
        assert!(!names.contains(&name("sub.example.")));
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn negative_ttl_is_min_of_soa_minimum_and_ttl() {
        let z = sample_zone();
        assert_eq!(z.negative_ttl(), 900);
        let z2 = Zone::new(name("x."));
        assert_eq!(z2.negative_ttl(), 3600);
    }

    #[test]
    fn len_and_iter() {
        let z = sample_zone();
        assert_eq!(z.len(), 7);
        assert_eq!(z.iter().count(), 7);
        assert!(!z.is_empty());
    }
}
