//! Resource records and RRset helpers.

use std::fmt;

use crate::buf::Writer;
use crate::name::Name;
use crate::rdata::RData;
use crate::rrtype::{Class, RrType};

/// A resource record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Class (IN everywhere in this system).
    pub class: Class,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Typed record data.
    pub rdata: RData,
}

impl Record {
    /// Convenience constructor for class IN.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        Record {
            name,
            class: Class::IN,
            ttl,
            rdata,
        }
    }

    /// The record type.
    pub fn rrtype(&self) -> RrType {
        self.rdata.rrtype()
    }

    /// Whether `other` is this record octet for octet. `==` compares
    /// names as DNS does, ignoring case; this compares the owner and
    /// every name in the RDATA in their case too, so a relay that hands
    /// out one record for the other changes no octet of a reply.
    pub fn eq_exact(&self, other: &Record) -> bool {
        self.name.wire_bytes() == other.name.wire_bytes()
            && self.ttl == other.ttl
            && self.class == other.class
            && self.rdata.eq_exact(&other.rdata)
    }

    /// Encode into `w` (whose compression setting governs the owner name).
    pub fn encode(&self, w: &mut Writer) {
        w.name(&self.name);
        w.u16(self.rrtype().0);
        w.u16(self.class.0);
        w.u32(self.ttl);
        let len_at = w.len();
        w.u16(0);
        let start = w.len();
        self.rdata.encode(w, false);
        let rdlen = w.len() - start;
        w.patch_u16(len_at, rdlen as u16);
    }
}

impl fmt::Display for Record {
    /// Zone-file-like presentation (sufficient for logs and zone printing).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}",
            self.name,
            self.ttl,
            self.class,
            self.rrtype()
        )?;
        match &self.rdata {
            RData::A(a) => write!(f, " {a}"),
            RData::Aaaa(a) => write!(f, " {a}"),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => write!(f, " {n}"),
            RData::Mx { preference, exchange } => write!(f, " {preference} {exchange}"),
            RData::Txt(strings) => {
                for s in strings {
                    write!(f, " \"{}\"", String::from_utf8_lossy(s))?;
                }
                Ok(())
            }
            RData::Soa { mname, rname, serial, refresh, retry, expire, minimum } => write!(
                f,
                " {mname} {rname} {serial} {refresh} {retry} {expire} {minimum}"
            ),
            RData::Dnskey { flags, protocol, algorithm, public_key } => write!(
                f,
                " {flags} {protocol} {algorithm} {}",
                crate::base64::encode(public_key)
            ),
            RData::Rrsig {
                type_covered,
                algorithm,
                labels,
                original_ttl,
                expiration,
                inception,
                key_tag,
                signer_name,
                signature,
            } => write!(
                f,
                " {type_covered} {algorithm} {labels} {original_ttl} {expiration} {inception} {key_tag} {signer_name} {}",
                crate::base64::encode(signature)
            ),
            RData::Ds { key_tag, algorithm, digest_type, digest } => {
                write!(f, " {key_tag} {algorithm} {digest_type} ")?;
                for b in digest {
                    write!(f, "{b:02x}")?;
                }
                Ok(())
            }
            RData::Nsec { next, types } => write!(f, " {next} {types}"),
            RData::Nsec3 { hash_alg, flags, iterations, salt, next_hashed, types } => {
                write!(f, " {hash_alg} {flags} {iterations} ")?;
                if salt.is_empty() {
                    write!(f, "-")?;
                } else {
                    for b in salt {
                        write!(f, "{b:02x}")?;
                    }
                }
                write!(f, " {} {types}", crate::base32::encode(next_hashed).to_uppercase())
            }
            RData::Nsec3Param { hash_alg, flags, iterations, salt } => {
                write!(f, " {hash_alg} {flags} {iterations} ")?;
                if salt.is_empty() {
                    write!(f, "-")
                } else {
                    for b in salt {
                        write!(f, "{b:02x}")?;
                    }
                    Ok(())
                }
            }
            RData::Unknown { data, .. } => {
                write!(f, " \\# {}", data.len())?;
                for b in data {
                    write!(f, " {b:02x}")?;
                }
                Ok(())
            }
        }
    }
}

/// The records of one RRset in RFC 4034 §6.3 canonical order (ascending
/// canonical RDATA, duplicates removed), as required before signing or
/// verifying. Each record comes paired with the canonical RDATA it was
/// ordered by, which is also what the signing buffer writes.
pub fn canonical_rrset_order<'a>(
    records: impl IntoIterator<Item = &'a Record>,
) -> Vec<(Vec<u8>, &'a Record)> {
    let mut set: Vec<(Vec<u8>, &Record)> = records
        .into_iter()
        .map(|r| (r.rdata.canonical_bytes(), r))
        .collect();
    set.sort_by(|a, b| a.0.cmp(&b.0));
    set.dedup_by(|a, b| a.0 == b.0);
    set
}

/// Group records into RRsets keyed by (owner, type), preserving first-seen
/// key order. The sets borrow the records; responses hold a handful of
/// RRsets, so a linear scan beats hashing cloned keys.
pub fn group_rrsets<'a>(records: impl IntoIterator<Item = &'a Record>) -> Vec<Vec<&'a Record>> {
    let mut sets: Vec<Vec<&Record>> = Vec::new();
    for rec in records {
        let same =
            |set: &&mut Vec<&Record>| set[0].name == rec.name && set[0].rrtype() == rec.rrtype();
        match sets.iter_mut().find(same) {
            Some(set) => set.push(rec),
            None => sets.push(vec![rec]),
        }
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use std::net::Ipv4Addr;

    fn a(n: &str, ip: [u8; 4]) -> Record {
        Record::new(name(n), 300, RData::A(Ipv4Addr::from(ip)))
    }

    #[test]
    fn canonical_order_sorts_by_rdata() {
        let set = vec![
            a("x.example.", [10, 0, 0, 2]),
            a("x.example.", [10, 0, 0, 1]),
            a("x.example.", [10, 0, 0, 2]), // duplicate
        ];
        let ordered = canonical_rrset_order(&set);
        assert_eq!(ordered.len(), 2);
        assert_eq!(ordered[0].1.rdata, RData::A(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(ordered[1].0, [10, 0, 0, 2]);
    }

    #[test]
    fn group_rrsets_by_owner_and_type() {
        let recs = vec![
            a("x.example.", [1, 1, 1, 1]),
            Record::new(name("x.example."), 300, RData::Ns(name("ns.example."))),
            a("x.example.", [2, 2, 2, 2]),
            a("y.example.", [3, 3, 3, 3]),
        ];
        let sets = group_rrsets(&recs);
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].len(), 2); // the two A records at x
        assert_eq!(sets[1][0].rrtype(), RrType::NS);
    }

    #[test]
    fn display_formats() {
        let rec = Record::new(
            name("example."),
            3600,
            RData::Nsec3Param {
                hash_alg: 1,
                flags: 0,
                iterations: 5,
                salt: vec![0xab, 0xcd],
            },
        );
        assert_eq!(rec.to_string(), "example. 3600 IN NSEC3PARAM 1 0 5 abcd");
        let rec2 = Record::new(
            name("example."),
            3600,
            RData::Nsec3Param {
                hash_alg: 1,
                flags: 0,
                iterations: 0,
                salt: vec![],
            },
        );
        assert!(rec2.to_string().ends_with("1 0 0 -"));
    }
}
