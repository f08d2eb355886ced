//! Domain names: presentation format, wire format, canonical form and
//! canonical ordering (RFC 1035 §3.1, RFC 4034 §6.1).
//!
//! `Name` stores labels in their original case but compares, hashes, and
//! orders case-insensitively, as DNS requires. The *canonical form* used for
//! DNSSEC signing and NSEC3 hashing is the lowercased, uncompressed wire
//! form (RFC 4034 §6.2).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::rrtype::RrType;
use crate::WireError;

/// Maximum length of a single label, in bytes.
pub(crate) const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name in wire format, in bytes (including the root
/// zero octet).
pub const MAX_NAME_LEN: usize = 255;

/// A fully-qualified domain name.
///
/// Internally the uncompressed wire form *without* the trailing root
/// octet: length-prefixed labels in original case, the root name being
/// the empty buffer. Labels are arbitrary bytes (DNS is 8-bit clean),
/// though in practice they are ASCII hostnames. One buffer means clone
/// and drop are a single allocation each — names are the most-copied
/// value in the workspace, and per-label boxes dominated the signing and
/// census profiles.
///
/// The byte stream is a self-delimiting prefix code (each length octet
/// positions the next), so equality and hashing work directly on the
/// buffer: length octets are ≤ 63 and therefore never case-fold or
/// collide with an ASCII letter.
#[derive(Clone, Eq)]
pub struct Name {
    wire: Box<[u8]>,
}

/// The canonical sort key of a name: its labels right to left, each
/// octet ASCII-lowercased, `0x00` and `0x01` escaped as `01 01` and
/// `01 02`, every label closed by `0x00`. The root's key is empty.
///
/// This is the one definition of RFC 4034 §6.1 order in the workspace.
/// Comparing two keys bytewise *is* [`Name::canonical_cmp`] of the names;
/// equal names have equal keys; the key of an ancestor is a byte prefix
/// of its descendants' keys, ending on a terminator; and so the
/// descendants of a name are one contiguous key range. The escape is
/// what lets `0x00` terminate a label although labels are 8-bit clean:
/// a label that is a prefix of another ends in the smallest octet there
/// is, and shifting `0x00`/`0x01` up behind a `0x01` lead keeps every
/// other octet — and the order among those two — where it was.
///
/// Every ordered map of names is keyed by this type and probed with a
/// borrowed `&[u8]` built on the stack ([`Name::with_sort_key`]), so a
/// probe allocates nothing and each comparison of its descent is a
/// `memcmp`. An RRset key ([`Name::rrset_sort_key`]) appends `00` and the
/// type, big-endian, and sorts exactly as `(Name, RrType)` does.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SortKey(Box<[u8]>);

impl SortKey {
    /// An owned copy of a key built on the stack, or of one of its
    /// [`ancestor_keys`].
    pub fn from_bytes(key: &[u8]) -> Self {
        SortKey(key.into())
    }

    /// The key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl Borrow<[u8]> for SortKey {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

/// The keys of a name and of its ancestors, given the name's own key:
/// the key itself first, then one label fewer each time, the root's empty
/// key last. The `n`-th item is the key of [`Name::ancestor`]`(n)`. An
/// unescaped `0x00` only ever closes a label, so no name is rebuilt.
pub fn ancestor_keys(key: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut next = Some(key);
    std::iter::from_fn(move || {
        let key = next?;
        next = key.split_last().map(|(_, open)| {
            let parent = open.iter().rposition(|&b| b == 0).map_or(0, |at| at + 1);
            &key[..parent]
        });
        Some(key)
    })
}

/// Write the sort key of `wire` so that it ends where `buf` ends, and
/// return where it starts. `buf` must hold `2 * wire.len()` octets: a
/// label of `n` octets takes at most `2n + 1`.
fn write_sort_key(wire: &[u8], buf: &mut [u8]) -> usize {
    // Labels are stored left to right and keyed right to left, so the
    // key is filled from its end and no table of label starts is needed.
    let mut at = buf.len();
    let mut rest = wire;
    while let Some((&len, tail)) = rest.split_first() {
        let (label, tail) = tail.split_at(len as usize);
        rest = tail;
        at -= 1;
        buf[at] = 0;
        let plain = at - label.len();
        let mut escapes = false;
        for (dst, &b) in buf[plain..at].iter_mut().zip(label) {
            *dst = b.to_ascii_lowercase();
            escapes |= b <= 1;
        }
        if !escapes {
            at = plain;
            continue;
        }
        for &b in label.iter().rev() {
            if b <= 1 {
                at -= 2;
                buf[at..at + 2].copy_from_slice(&[1, b + 1]);
            } else {
                at -= 1;
                buf[at] = b.to_ascii_lowercase();
            }
        }
    }
    at
}

struct LabelIter<'a> {
    wire: &'a [u8],
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = &'a [u8];
    fn next(&mut self) -> Option<&'a [u8]> {
        if self.wire.is_empty() {
            return None;
        }
        let len = self.wire[0] as usize;
        let (head, tail) = self.wire[1..].split_at(len);
        self.wire = tail;
        Some(head)
    }
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name {
            wire: Box::default(),
        }
    }

    /// Build a name from raw labels. Fails if any label is empty or too
    /// long, or the total wire length exceeds [`MAX_NAME_LEN`].
    pub fn from_labels<I, L>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut wire = Vec::new();
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(WireError::BadName("empty label"));
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(WireError::BadName("label longer than 63 octets"));
            }
            wire.push(l.len() as u8);
            wire.extend_from_slice(l);
        }
        if wire.len() + 1 > MAX_NAME_LEN {
            return Err(WireError::BadName("name longer than 255 octets"));
        }
        Ok(Name {
            wire: wire.into_boxed_slice(),
        })
    }

    /// Parse presentation format (`www.example.com`, trailing dot optional;
    /// `\.` and `\DDD` escapes supported).
    pub fn parse(s: &str) -> Result<Self, WireError> {
        if s == "." || s.is_empty() {
            return Ok(Name::root());
        }
        let bytes = s.as_bytes();
        let mut labels: Vec<Vec<u8>> = Vec::new();
        let mut cur: Vec<u8> = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => {
                    i += 1;
                    if i >= bytes.len() {
                        return Err(WireError::BadName("dangling escape"));
                    }
                    if bytes[i].is_ascii_digit() {
                        if i + 2 >= bytes.len()
                            || !bytes[i + 1].is_ascii_digit()
                            || !bytes[i + 2].is_ascii_digit()
                        {
                            return Err(WireError::BadName("bad \\DDD escape"));
                        }
                        let v = (bytes[i] - b'0') as u32 * 100
                            + (bytes[i + 1] - b'0') as u32 * 10
                            + (bytes[i + 2] - b'0') as u32;
                        if v > 255 {
                            return Err(WireError::BadName("\\DDD escape out of range"));
                        }
                        cur.push(v as u8);
                        i += 3;
                    } else {
                        cur.push(bytes[i]);
                        i += 1;
                    }
                }
                b'.' => {
                    if cur.is_empty() {
                        return Err(WireError::BadName("empty label"));
                    }
                    labels.push(std::mem::take(&mut cur));
                    i += 1;
                }
                b => {
                    cur.push(b);
                    i += 1;
                }
            }
        }
        if !cur.is_empty() {
            labels.push(cur);
        }
        Name::from_labels(labels)
    }

    /// Number of labels (the root has 0, `example.com` has 2).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// The labels, leftmost (least significant) first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        LabelIter { wire: &self.wire }
    }

    /// Is this the root name?
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Is the leftmost label `*` (a wildcard owner name)?
    pub fn is_wildcard(&self) -> bool {
        self.wire.starts_with(&[1, b'*'])
    }

    /// Length of this name in (uncompressed) wire format.
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// The parent name (one label removed from the left); `None` for the
    /// root.
    pub fn parent(&self) -> Option<Name> {
        if self.is_root() {
            return None;
        }
        self.ancestor(1)
    }

    /// This name with its `n` leftmost labels removed (`ancestor(0)` is
    /// the name itself); `None` when it has fewer than `n` labels. One
    /// allocation however far up, where chained [`Name::parent`] calls
    /// cost one a level.
    pub fn ancestor(&self, n: usize) -> Option<Name> {
        let mut rest: &[u8] = &self.wire;
        for _ in 0..n {
            let (&len, tail) = rest.split_first()?;
            rest = &tail[len as usize..];
        }
        Some(Name { wire: rest.into() })
    }

    /// A copy with `f` applied to every label octet, length octets left
    /// alone, in wire order (dns-0x20 flips letter case this way).
    pub fn map_label_octets(&self, mut f: impl FnMut(u8) -> u8) -> Name {
        let mut wire = self.wire.clone();
        let mut pos = 0;
        while pos < wire.len() {
            let end = pos + 1 + wire[pos] as usize;
            for b in &mut wire[pos + 1..end] {
                *b = f(*b);
            }
            pos = end;
        }
        Name { wire }
    }

    /// `true` if `self` is `other` or a descendant of `other`.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.wire.len() > self.wire.len() {
            return false;
        }
        let split = self.wire.len() - other.wire.len();
        if !self.wire[split..]
            .iter()
            .zip(other.wire.iter())
            .all(|(a, b)| a.eq_ignore_ascii_case(b))
        {
            return false;
        }
        // The suffix must start on a label boundary of `self`.
        let mut pos = 0;
        while pos < split {
            pos += 1 + self.wire[pos] as usize;
        }
        pos == split
    }

    /// Prepend a single label, returning the child name.
    pub fn prepend(&self, label: &[u8]) -> Result<Name, WireError> {
        if label.is_empty() {
            return Err(WireError::BadName("empty label"));
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(WireError::BadName("label longer than 63 octets"));
        }
        let mut wire = Vec::with_capacity(1 + label.len() + self.wire.len());
        wire.push(label.len() as u8);
        wire.extend_from_slice(label);
        wire.extend_from_slice(&self.wire);
        if wire.len() + 1 > MAX_NAME_LEN {
            return Err(WireError::BadName("name longer than 255 octets"));
        }
        Ok(Name {
            wire: wire.into_boxed_slice(),
        })
    }

    /// Concatenate: `self` becomes a prefix of `suffix`
    /// (`a.b` + `example.com` = `a.b.example.com`).
    pub fn concat(&self, suffix: &Name) -> Result<Name, WireError> {
        let mut wire = Vec::with_capacity(self.wire.len() + suffix.wire.len());
        wire.extend_from_slice(&self.wire);
        wire.extend_from_slice(&suffix.wire);
        if wire.len() + 1 > MAX_NAME_LEN {
            return Err(WireError::BadName("name longer than 255 octets"));
        }
        Ok(Name {
            wire: wire.into_boxed_slice(),
        })
    }

    /// The internal wire buffer in original case, *without* the trailing
    /// root octet (length-prefixed labels; empty for the root). This is
    /// the borrow hot paths write from.
    pub fn wire_bytes(&self) -> &[u8] {
        &self.wire
    }

    /// Canonical wire format (RFC 4034 §6.2): lowercase, uncompressed.
    /// This is the exact input to NSEC3 hashing and RRSIG signing.
    /// (Length octets are ≤ 63, so lowercasing the whole buffer is exact.)
    pub fn to_canonical_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire.len() + 1);
        out.extend(self.wire.iter().map(|b| b.to_ascii_lowercase()));
        out.push(0);
        out
    }

    /// Write the canonical wire format into `out`, returning the number of
    /// bytes written (= [`Name::wire_len`]). Lets hot paths hash names from
    /// a stack buffer instead of allocating with [`Name::to_canonical_wire`];
    /// a `[u8; MAX_NAME_LEN]` buffer always fits.
    ///
    /// # Panics
    /// Panics if `out` is shorter than the wire length.
    pub fn write_canonical_wire(&self, out: &mut [u8]) -> usize {
        for (dst, b) in out[..self.wire.len()].iter_mut().zip(self.wire.iter()) {
            *dst = b.to_ascii_lowercase();
        }
        out[self.wire.len()] = 0;
        self.wire.len() + 1
    }

    /// A lowercased copy (for canonical display and map keys).
    pub fn to_lowercase(&self) -> Name {
        Name {
            wire: self
                .wire
                .iter()
                .map(|b| b.to_ascii_lowercase())
                .collect::<Vec<u8>>()
                .into_boxed_slice(),
        }
    }

    /// RFC 4034 §6.1 canonical ordering.
    ///
    /// Names are ordered by comparing labels right-to-left; the absence of a
    /// label sorts before any label; labels compare as case-folded byte
    /// strings. [`SortKey`] is that definition: this is two keys on the
    /// stack and one slice comparison.
    pub fn canonical_cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.with_sort_key(|a| other.with_sort_key(|b| a.cmp(b)))
    }

    /// Build this name's [`SortKey`] bytes in a stack buffer sized to the
    /// name and lend them to `f` — the allocation-free form every map
    /// probe uses.
    pub fn with_sort_key<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        self.with_suffixed_key([], f)
    }

    /// [`Name::with_sort_key`] for the RRset key of `(self, rrtype)`.
    pub fn with_rrset_sort_key<R>(&self, rrtype: RrType, f: impl FnOnce(&[u8]) -> R) -> R {
        let [hi, lo] = rrtype.0.to_be_bytes();
        self.with_suffixed_key([0, hi, lo], f)
    }

    /// This name's sort key, owned: what a map stores.
    pub fn sort_key(&self) -> SortKey {
        self.with_sort_key(SortKey::from_bytes)
    }

    /// The owned key of the RRset `(self, rrtype)`: the name's key, `00`,
    /// the type big-endian. `00` sorts it before every descendant of the
    /// name (no label is empty and none starts below `01`), so these keys
    /// order as `(Name, RrType)` pairs do.
    pub fn rrset_sort_key(&self, rrtype: RrType) -> SortKey {
        self.with_rrset_sort_key(rrtype, SortKey::from_bytes)
    }

    /// The key, then `suffix`, in the smallest of three stack buffers that
    /// holds them: zero-filling the largest for every probe would cost
    /// more than building the key of a census or serving name, which fits
    /// the first (a hashed NSEC3 owner fits the second).
    fn with_suffixed_key<const S: usize, R>(
        &self,
        suffix: [u8; S],
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        fn build<const N: usize, const S: usize, R>(
            wire: &[u8],
            suffix: [u8; S],
            f: impl FnOnce(&[u8]) -> R,
        ) -> R {
            let mut buf = [0u8; N];
            buf[N - S..].copy_from_slice(&suffix);
            let start = write_sort_key(wire, &mut buf[..N - S]);
            f(&buf[start..])
        }
        match 2 * self.wire.len() + S {
            0..=64 => build::<64, S, R>(&self.wire, suffix, f),
            65..=192 => build::<192, S, R>(&self.wire, suffix, f),
            _ => build::<{ 2 * MAX_NAME_LEN }, S, R>(&self.wire, suffix, f),
        }
    }

    /// The strict ancestors of `self`, nearest first, ending with the root
    /// (`a.b.example.` yields `b.example.`, `example.`, `.`). Each name is
    /// built only when the iterator reaches it, so a walk that stops at
    /// the zone apex never pays for the labels above it.
    pub fn ancestors(&self) -> impl Iterator<Item = Name> + '_ {
        let mut rest: &[u8] = &self.wire;
        std::iter::from_fn(move || {
            let (&len, tail) = rest.split_first()?;
            rest = &tail[len as usize..];
            Some(Name { wire: rest.into() })
        })
    }

    /// A name from wire bytes the caller has already checked: labels of
    /// 1..=63 octets, no root octet, at most 254 octets in all.
    pub(crate) fn from_checked_wire(wire: &[u8]) -> Name {
        debug_assert!(wire.len() < MAX_NAME_LEN);
        Name { wire: wire.into() }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Length octets are ≤ 63, so a case-insensitive whole-buffer
        // compare can never confuse a length with a letter.
        self.wire.len() == other.wire.len()
            && self
                .wire
                .iter()
                .zip(other.wire.iter())
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One `write` per 64 octets, not one per octet. Names equal under
        // the case-insensitive `Eq` are equally long, so they are cut into
        // the same chunks and feed the hasher the same bytes.
        let mut lower = [0u8; 64];
        for chunk in self.wire.chunks(lower.len()) {
            let lower = &mut lower[..chunk.len()];
            for (dst, b) in lower.iter_mut().zip(chunk) {
                *dst = b.to_ascii_lowercase();
            }
            state.write(lower);
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Total order = RFC 4034 canonical order, for sorting a handful of
    /// names. A map of names is keyed by [`SortKey`] instead, so that a
    /// lookup builds one key and compares bytes, where a `BTreeMap<Name, _>`
    /// would build two keys per comparison of its descent.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.canonical_cmp(other)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for l in self.labels() {
            for &b in l.iter() {
                match b {
                    b'.' | b'\\' => write!(f, "\\{}", b as char)?,
                    0x21..=0x7e => write!(f, "{}", b as char)?,
                    _ => write!(f, "\\{b:03}")?,
                }
            }
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

/// Shorthand used pervasively in tests and examples: parse a name, panicking
/// on invalid input.
pub fn name(s: &str) -> Name {
    Name::parse(s).unwrap_or_else(|e| panic!("bad name {s:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["example.", "www.example.com.", "a.b.c.d.e."] {
            assert_eq!(name(s).to_string(), s);
        }
        assert_eq!(name("example.com").to_string(), "example.com.");
        assert_eq!(name(".").to_string(), ".");
    }

    #[test]
    fn escapes() {
        let n = name(r"ex\.ample.com");
        assert_eq!(n.label_count(), 2);
        assert_eq!(n.labels().next().unwrap(), b"ex.ample");
        assert_eq!(n.to_string(), r"ex\.ample.com.");
        let d = name(r"\065bc.com"); // \065 = 'A'
        assert_eq!(d.labels().next().unwrap(), b"Abc");
    }

    #[test]
    fn rejects_invalid() {
        assert!(Name::parse("a..b").is_err());
        assert!(Name::parse(&"a".repeat(64)).is_err());
        let long = vec!["a".repeat(63); 4].join(".") + "." + &"b".repeat(10);
        assert!(Name::parse(&long).is_err());
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::HashSet;
        let a = name("WWW.Example.COM");
        let b = name("www.example.com");
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn wire_and_canonical_wire() {
        let n = name("Ab.cD");
        assert_eq!(n.wire_bytes(), b"\x02Ab\x02cD");
        assert_eq!(n.to_canonical_wire(), b"\x02ab\x02cd\x00");
        assert_eq!(Name::root().wire_bytes(), b"");
        assert_eq!(n.wire_len(), 7);
    }

    #[test]
    fn rfc4034_canonical_order_example() {
        // The exact ordering example from RFC 4034 §6.1.
        let ordered = [
            "example.",
            "a.example.",
            "yljkjljk.a.example.",
            "Z.a.example.",
            "zABC.a.EXAMPLE.",
            "z.example.",
            r"\001.z.example.",
            "*.z.example.",
            r"\200.z.example.",
        ];
        let names: Vec<Name> = ordered.iter().map(|s| name(s)).collect();
        for w in names.windows(2) {
            assert_eq!(
                w[0].canonical_cmp(&w[1]),
                Ordering::Less,
                "{} should sort before {}",
                w[0],
                w[1]
            );
        }
        let mut shuffled = names.clone();
        shuffled.reverse();
        shuffled.sort();
        assert_eq!(shuffled, names);
    }

    #[test]
    fn subdomain_relationships() {
        let apex = name("example.com");
        assert!(name("www.example.com").is_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&Name::root()));
        assert!(!name("example.org").is_subdomain_of(&apex));
        assert!(!name("badexample.com").is_subdomain_of(&apex));
        assert!(name("WWW.EXAMPLE.COM").is_subdomain_of(&apex));
    }

    #[test]
    fn parent_and_prepend() {
        let n = name("a.b.c");
        assert_eq!(n.parent().unwrap(), name("b.c"));
        assert_eq!(Name::root().parent(), None);
        assert_eq!(name("b.c").prepend(b"a").unwrap(), n);
    }

    #[test]
    fn wildcard_handling() {
        assert!(name("*.example.com").is_wildcard());
        assert!(!name("x.example.com").is_wildcard());
    }

    #[test]
    fn ancestors_order() {
        let chain: Vec<Name> = name("a.b.example.").ancestors().collect();
        let expect = ["b.example.", "example.", "."];
        assert_eq!(chain.len(), expect.len());
        for (c, e) in chain.iter().zip(expect.iter()) {
            assert_eq!(&c.to_string(), e);
        }
        assert_eq!(Name::root().ancestors().count(), 0);
    }

    #[test]
    fn concat_names() {
        assert_eq!(
            name("www").concat(&name("example.com")).unwrap(),
            name("www.example.com")
        );
    }
}
