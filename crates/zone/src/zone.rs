//! The zone model: a canonically-ordered collection of RRsets with the
//! structural queries zone signing and denial-of-existence need.

use std::collections::BTreeMap;
use std::ops::{Bound, Range};

use dns_wire::name::{ancestor_keys, Name, SortKey};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;

use crate::ZoneError;

/// An (owner, type)-indexed zone. The owner index is a `BTreeMap` over
/// the owners' canonical sort keys ([`SortKey`]), so iteration *is*
/// RFC 4034 canonical order — exactly what NSEC chain building needs — a
/// lookup builds one key and compares bytes on the way down, and the
/// ancestors of a name are probed as prefixes of its key.
///
/// Each owner holds its records in one vector ordered by type, the
/// records of one type in the order they were added, so an RRset is a
/// contiguous run of it and a one-record owner costs one record. The
/// index stores no `Name`: an owner's name is read off its first record
/// ([`ZoneNode::owner`]), so a new owner costs its key and its vector.
/// Records are only ever added, and [`Zone::rrset_mut`] edits them in
/// place, so every stored owner has a record.
#[derive(Clone, Debug)]
pub struct Zone {
    apex: Name,
    /// Length of the apex's sort key, which every in-zone key starts with.
    apex_key_len: usize,
    owners: BTreeMap<SortKey, Vec<Record>>,
}

/// The records of one owner name, borrowed from the zone: what
/// [`Zone::node`] finds in one descent of the owner index, so a caller
/// that needs several RRsets of one owner (a referral takes NS, DS and
/// their RRSIGs from the cut) pays for the descent once.
#[derive(Clone, Copy, Debug)]
pub struct ZoneNode<'z> {
    /// Never empty; ordered by type.
    records: &'z [Record],
}

/// Where the run of `rrtype` lies in an owner's type-ordered records
/// (empty, at the place it would go, when there is none). A linear scan:
/// an owner holds a handful of records.
fn run_of(records: &[Record], rrtype: RrType) -> Range<usize> {
    let start = records
        .iter()
        .position(|r| r.rrtype() >= rrtype)
        .unwrap_or(records.len());
    let len = records[start..]
        .iter()
        .take_while(|r| r.rrtype() == rrtype)
        .count();
    start..start + len
}

/// Add `record` to an owner's records after every record of its type.
fn insert(records: &mut Vec<Record>, record: Record) {
    let at = run_of(records, record.rrtype()).end;
    records.insert(at, record);
}

impl<'z> ZoneNode<'z> {
    /// The owner name, in the case of the first record stored here.
    pub fn owner(self) -> &'z Name {
        &self.records[0].name
    }

    /// The RRset of `rrtype` at this owner, if present.
    pub fn rrset(self, rrtype: RrType) -> Option<&'z [Record]> {
        let run = run_of(self.records, rrtype);
        (!run.is_empty()).then(|| &self.records[run])
    }

    /// The RRsets at this owner, ascending by type.
    pub(crate) fn rrsets(self) -> impl Iterator<Item = (RrType, &'z [Record])> {
        self.records
            .chunk_by(|a, b| a.rrtype() == b.rrtype())
            .map(|rrset| (rrset[0].rrtype(), rrset))
    }

    /// The RR types present at this owner, ascending.
    pub(crate) fn types(self) -> impl Iterator<Item = RrType> + 'z {
        self.rrsets().map(|(rrtype, _)| rrtype)
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
            apex_key_len: apex.with_sort_key(<[u8]>::len),
            apex,
            owners: BTreeMap::new(),
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
        // RRSIG lands on a name already present) copies no key.
        let owners = &mut self.owners;
        let slot = record.name.with_sort_key(|key| match owners.get_mut(key) {
            Some(records) => Ok(records),
            None => Err(SortKey::from_bytes(key)),
        });
        match slot {
            Ok(records) => insert(records, record),
            Err(key) => {
                self.owners.insert(key, vec![record]);
            }
        }
        Ok(())
    }

    /// Release every owner's spare capacity: what a zone that will only
    /// be read from now on (signed, or served unsigned) keeps.
    pub fn shrink_to_fit(&mut self) {
        self.owners.values_mut().for_each(Vec::shrink_to_fit);
    }

    /// Merge records whose owners arrive in canonical (map) order with one
    /// linear walk over the zone instead of a tree lookup per record. The
    /// signer's RRSIG stream qualifies: it is produced from an in-order
    /// scan of this very map. Records whose owner is missing (or out of
    /// order) fall back to [`Zone::add`], so the fast path is only an
    /// optimization, never a behavior change.
    pub(crate) fn merge_in_order(&mut self, records: Vec<Record>) -> Result<(), ZoneError> {
        let mut it = records.into_iter().peekable();
        for records in self.owners.values_mut() {
            if it.peek().is_none() {
                break;
            }
            while let Some(r) = it.next_if(|r| r.name == records[0].name) {
                insert(records, r);
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
    /// instead of a logarithmic insert per record; each record is keyed
    /// once and the key travels with it into the map. Owners that do
    /// collide with an existing name are merged exactly like [`Zone::add`]
    /// would; records arriving out of order fall back to [`Zone::add`].
    pub(crate) fn merge_sorted_owners(&mut self, records: Vec<Record>) -> Result<(), ZoneError> {
        fn push(merged: &mut Vec<(SortKey, Vec<Record>)>, key: SortKey, r: Record) {
            match merged.last_mut() {
                Some((last, records)) if *last == key => insert(records, r),
                _ => merged.push((key, vec![r])),
            }
        }
        // Split off anything that would invalidate the linear merge (out of
        // zone, or not in non-decreasing canonical order); `add` handles
        // those afterwards with its usual checks.
        let mut leftovers: Vec<Record> = Vec::new();
        let mut stream: Vec<(SortKey, Record)> = Vec::with_capacity(records.len());
        for r in records {
            let key = r.name.sort_key();
            let fits = r.name.is_subdomain_of(&self.apex)
                && stream.last().is_none_or(|(prev, _)| *prev <= key);
            if fits {
                stream.push((key, r));
            } else {
                leftovers.push(r);
            }
        }
        let old = std::mem::take(&mut self.owners);
        let mut merged: Vec<(SortKey, Vec<Record>)> = Vec::with_capacity(old.len() + stream.len());
        let mut it = stream.into_iter().peekable();
        for (key, records) in old {
            while let Some((new_key, r)) = it.next_if(|(new_key, _)| *new_key < key) {
                push(&mut merged, new_key, r);
            }
            match merged.last_mut() {
                // A new owner collided with an existing one: unify them.
                // Existing records precede newly merged ones, as they
                // would under repeated `add`.
                Some((last, last_records)) if *last == key => {
                    for r in std::mem::replace(last_records, records) {
                        insert(last_records, r);
                    }
                }
                _ => merged.push((key, records)),
            }
        }
        for (key, r) in it {
            push(&mut merged, key, r);
        }
        self.owners = merged.into_iter().collect();
        for r in leftovers {
            self.add(r)?;
        }
        Ok(())
    }

    /// Everything stored at exactly `owner`, if any record is.
    pub fn node(&self, owner: &Name) -> Option<ZoneNode<'_>> {
        owner.with_sort_key(|key| self.node_by_key(key))
    }

    /// [`Zone::node`] for a caller that holds the owner's sort key — the
    /// authoritative server builds one key per query and probes the name
    /// and its ancestors with it.
    pub fn node_by_key(&self, key: &[u8]) -> Option<ZoneNode<'_>> {
        self.owners.get(key).map(|records| ZoneNode { records })
    }

    /// The RRset of `rrtype` at `name`, if present.
    pub fn rrset(&self, name: &Name, rrtype: RrType) -> Option<&[Record]> {
        self.node(name)?.rrset(rrtype)
    }

    /// Mutable access to an RRset's records, in place (used by fault
    /// injectors).
    pub fn rrset_mut(&mut self, name: &Name, rrtype: RrType) -> Option<&mut [Record]> {
        let owners = &mut self.owners;
        let records = name.with_sort_key(|key| owners.get_mut(key))?;
        let run = run_of(records, rrtype);
        (!run.is_empty()).then(|| &mut records[run])
    }

    /// RR types present at `name`, ascending.
    pub fn types_at(&self, name: &Name) -> Vec<RrType> {
        self.node(name)
            .map(|node| node.types().collect())
            .unwrap_or_default()
    }

    /// Owner names with explicit records, canonical order.
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.nodes().map(|(_, node)| node.owner())
    }

    /// Every owner with its sort key, canonical order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = (&[u8], ZoneNode<'_>)> {
        self.owners
            .iter()
            .map(|(key, records)| (key.as_bytes(), ZoneNode { records }))
    }

    /// The owners whose keys fall in `range`, canonical order.
    pub(crate) fn nodes_in<'z>(
        &'z self,
        range: (Bound<&[u8]>, Bound<&[u8]>),
    ) -> impl DoubleEndedIterator<Item = ZoneNode<'z>> {
        self.owners
            .range::<[u8], _>(range)
            .map(|(_, records)| ZoneNode { records })
    }

    /// Every record in the zone, canonical owner order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.owners.values().flatten()
    }

    /// Total record count.
    #[allow(clippy::len_without_is_empty)] // nothing asks whether it is empty
    pub fn len(&self) -> usize {
        self.owners.values().map(Vec::len).sum()
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

    /// The sort keys of `name`'s ancestors strictly between it and the
    /// apex, nearest first, as prefixes of `name`'s own `key` (with their
    /// distance from `name` in labels); none for a name outside the zone.
    /// No `Name` is built per level.
    fn keys_below_apex<'k>(
        &self,
        name: &Name,
        key: &'k [u8],
    ) -> impl Iterator<Item = (usize, &'k [u8])> {
        let floor = if name.is_subdomain_of(&self.apex) {
            self.apex_key_len
        } else {
            usize::MAX
        };
        ancestor_keys(key)
            .enumerate()
            .skip(1)
            .take_while(move |(_, ancestor)| ancestor.len() > floor)
    }

    /// The delegation points at the keys [`Zone::keys_below_apex`] yields.
    fn cuts_above<'z: 'k, 'k>(
        &'z self,
        name: &Name,
        key: &'k [u8],
    ) -> impl Iterator<Item = ZoneNode<'z>> + 'k {
        self.keys_below_apex(name, key)
            .filter_map(|(_, ancestor)| self.node_by_key(ancestor))
            .filter(|node| node.rrset(RrType::NS).is_some())
    }

    /// Is `name` occluded — strictly below a delegation point (glue and
    /// anything else under a zone cut), and therefore not authoritative?
    pub fn is_occluded(&self, name: &Name) -> bool {
        // Only the ancestors strictly between `name` and the apex can be
        // cuts above it; a name directly under the apex has none.
        name.with_sort_key(|key| self.cuts_above(name, key).next().is_some())
    }

    /// The delegation cut at or above `qname` inside the zone, if any
    /// (nearest to the apex wins — a resolver descends one cut at a time).
    /// `key` is `qname`'s sort key and `own` its node, which the caller
    /// has looked up already.
    pub fn delegation_cut<'z>(
        &'z self,
        qname: &Name,
        key: &[u8],
        own: Option<ZoneNode<'z>>,
    ) -> Option<ZoneNode<'z>> {
        // Walking up from `qname`, the last cut seen is the one nearest the
        // apex; the apex itself is never a cut.
        let own = own.filter(|node| *qname != self.apex && node.rrset(RrType::NS).is_some());
        self.cuts_above(qname, key).last().or(own)
    }

    /// Empty non-terminals: names with no records of their own that
    /// nevertheless exist because a descendant does (RFC 5155 needs NSEC3
    /// records for these).
    pub fn empty_non_terminals(&self) -> Vec<Name> {
        // Keyed by the prefix of a stored key that names the ENT, so the
        // set sorts canonically and a repeated ENT builds no second name.
        let mut ents: BTreeMap<&[u8], Name> = BTreeMap::new();
        for (key, node) in self.nodes() {
            for (up, ancestor) in self.keys_below_apex(node.owner(), key) {
                if self.node_by_key(ancestor).is_none() {
                    ents.entry(ancestor)
                        .or_insert_with(|| node.owner().ancestor(up).expect("counted label"));
                }
            }
        }
        ents.into_values().collect()
    }

    /// Does the name whose sort key is `key` "exist" in the zone in the
    /// RFC 4035 sense — it has records, or it is an empty non-terminal?
    pub fn name_exists_by_key(&self, key: &[u8]) -> bool {
        // A name's descendants are the keys its own key is a prefix of,
        // one contiguous range starting at the name itself: the first
        // stored key at or after `key` is the name, a descendant (then the
        // name is an empty non-terminal), or proof that neither is stored.
        self.owners
            .range::<[u8], _>((Bound::Included(key), Bound::Unbounded))
            .next()
            .is_some_and(|(first, _)| first.as_bytes().starts_with(key))
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
        // recent cut's key, which prefixes exactly what it occludes,
        // replaces the per-name ancestor walk `is_occluded` would cost.
        // The tree iterates in canonical order already, so the chain
        // accumulates into a Vec directly.
        let mut main: Vec<DenialEntry> = Vec::with_capacity(self.owners.len());
        let mut cut: Option<&[u8]> = None;
        for (key, node) in self.nodes() {
            if cut.is_some_and(|c| key.starts_with(c)) {
                continue; // occluded
            }
            let is_delegation = key.len() > self.apex_key_len && node.rrset(RrType::NS).is_some();
            cut = is_delegation.then_some(key);
            let signed_delegation = is_delegation && node.rrset(RrType::DS).is_some();
            if opt_out && is_delegation && !signed_delegation {
                continue;
            }
            // At a delegation only a DS RRset is signed; everywhere else
            // every authoritative name carries at least one RRSIG.
            let will_sign = !is_delegation || signed_delegation;
            main.push(DenialEntry {
                name: node.owner().clone(),
                types: node.types().collect(),
                will_sign,
            });
        }
        // Empty non-terminals arrive sorted and are disjoint from `main`
        // (an ENT owns no records), so a single sorted merge finishes the
        // chain. An ENT kept under opt-out needs a signed (i.e. surviving)
        // name beneath it; descendants are contiguous right after the
        // ENT's insertion point in canonical order.
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
    /// [`Zone::name_exists_by_key`]) ancestor-or-self of `qname` inside the zone.
    pub fn closest_encloser(&self, qname: &Name) -> Name {
        qname.with_sort_key(|key| {
            if key.len() > self.apex_key_len
                && qname.is_subdomain_of(&self.apex)
                && self.name_exists_by_key(key)
            {
                return qname.clone();
            }
            self.encloser_of_missing(qname, key)
        })
    }

    /// [`Zone::closest_encloser`] of a `qname` known not to exist, by its
    /// sort key: the nearest existing strict ancestor, else the apex.
    pub fn encloser_of_missing(&self, qname: &Name, key: &[u8]) -> Name {
        self.keys_below_apex(qname, key)
            .find(|(_, ancestor)| self.name_exists_by_key(ancestor))
            .map(|(up, _)| qname.ancestor(up).expect("counted label"))
            .unwrap_or_else(|| self.apex.clone())
    }

    /// The SOA minimum TTL (used as the TTL of denial records, RFC 2308).
    pub(crate) fn negative_ttl(&self) -> u32 {
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
        let cut = |q: &str| {
            let q = name(q);
            let own = z.node(&q);
            q.with_sort_key(|key| z.delegation_cut(&q, key, own).map(|n| n.owner().clone()))
        };
        assert_eq!(cut("sub.example."), Some(name("sub.example.")));
        assert_eq!(cut("example."), None, "the apex is no cut");
        assert!(z.rrset(&name("sub.example."), RrType::DS).is_none());
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
        let exists = |q: &str| name(q).with_sort_key(|key| z.name_exists_by_key(key));
        assert!(exists("www.example."));
        assert!(exists("b.c.example."));
        assert!(exists("c.example."));
        assert!(!exists("nx.example."));
        assert!(!exists("z.b.c.example."));
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
    }
}
