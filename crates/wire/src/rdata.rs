//! Typed RDATA for every record type this system handles, with wire
//! encode/decode and RFC 4034 §6.2 canonical encoding.

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::buf::{Reader, Writer};
use crate::name::{Name, MAX_NAME_LEN};
use crate::rrtype::RrType;
use crate::typebitmap::TypeBitmap;
use crate::WireError;

/// NSEC3 flags bit: opt-out (RFC 5155 §3.1.2.1).
pub const NSEC3_FLAG_OPT_OUT: u8 = 0x01;

/// NSEC3/NSEC3PARAM hash algorithm number for SHA-1 (the only one defined).
pub const NSEC3_HASH_SHA1: u8 = 1;

/// Typed record data.
#[derive(Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // field meanings are the RFC field names
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Authoritative name server.
    Ns(Name),
    /// Canonical name alias.
    Cname(Name),
    /// Pointer.
    Ptr(Name),
    /// Mail exchange.
    Mx { preference: u16, exchange: Name },
    /// Text strings (each ≤ 255 bytes on the wire).
    Txt(Vec<Vec<u8>>),
    /// Start of authority.
    Soa {
        mname: Name,
        rname: Name,
        serial: u32,
        refresh: u32,
        retry: u32,
        expire: u32,
        minimum: u32,
    },
    /// DNSSEC public key (RFC 4034 §2).
    Dnskey {
        flags: u16,
        protocol: u8,
        algorithm: u8,
        public_key: Vec<u8>,
    },
    /// DNSSEC signature (RFC 4034 §3).
    Rrsig {
        type_covered: RrType,
        algorithm: u8,
        labels: u8,
        original_ttl: u32,
        expiration: u32,
        inception: u32,
        key_tag: u16,
        signer_name: Name,
        signature: Vec<u8>,
    },
    /// Delegation signer (RFC 4034 §5).
    Ds {
        key_tag: u16,
        algorithm: u8,
        digest_type: u8,
        digest: Vec<u8>,
    },
    /// Authenticated denial of existence (RFC 4034 §4).
    Nsec { next: Name, types: TypeBitmap },
    /// Hashed authenticated denial of existence (RFC 5155 §3).
    Nsec3 {
        hash_alg: u8,
        flags: u8,
        iterations: u16,
        salt: Vec<u8>,
        next_hashed: Vec<u8>,
        types: TypeBitmap,
    },
    /// NSEC3 parameters advertised at the zone apex (RFC 5155 §4).
    Nsec3Param {
        hash_alg: u8,
        flags: u8,
        iterations: u16,
        salt: Vec<u8>,
    },
    /// Anything else, kept verbatim (RFC 3597).
    Unknown { rtype: u16, data: Vec<u8> },
}

impl RData {
    /// The RR type of this data.
    pub(crate) fn rrtype(&self) -> RrType {
        match self {
            RData::A(_) => RrType::A,
            RData::Aaaa(_) => RrType::AAAA,
            RData::Ns(_) => RrType::NS,
            RData::Cname(_) => RrType::CNAME,
            RData::Ptr(_) => RrType::PTR,
            RData::Mx { .. } => RrType::MX,
            RData::Txt(_) => RrType::TXT,
            RData::Soa { .. } => RrType::SOA,
            RData::Dnskey { .. } => RrType::DNSKEY,
            RData::Rrsig { .. } => RrType::RRSIG,
            RData::Ds { .. } => RrType::DS,
            RData::Nsec { .. } => RrType::NSEC,
            RData::Nsec3 { .. } => RrType::NSEC3,
            RData::Nsec3Param { .. } => RrType::NSEC3PARAM,
            RData::Unknown { rtype, .. } => RrType(*rtype),
        }
    }

    /// Encode RDATA (without the RDLENGTH prefix) into `w`.
    ///
    /// `canonical` selects the RFC 4034 §6.2 canonical form: names inside
    /// the RDATA are lowercased and never compressed. Non-canonical encoding
    /// also never compresses RDATA names (permitted, and required for
    /// DNSSEC-aware processing per RFC 3597 §4).
    pub fn encode(&self, w: &mut Writer, canonical: bool) {
        let put_name = |w: &mut Writer, n: &Name| {
            if canonical {
                let mut buf = [0u8; MAX_NAME_LEN];
                let len = n.write_canonical_wire(&mut buf);
                w.bytes(&buf[..len]);
            } else {
                w.bytes(n.wire_bytes());
                w.u8(0);
            }
        };
        match self {
            RData::A(addr) => w.bytes(&addr.octets()),
            RData::Aaaa(addr) => w.bytes(&addr.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => put_name(w, n),
            RData::Mx {
                preference,
                exchange,
            } => {
                w.u16(*preference);
                put_name(w, exchange);
            }
            RData::Txt(strings) => {
                for s in strings {
                    w.u8(s.len() as u8);
                    w.bytes(s);
                }
            }
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                put_name(w, mname);
                put_name(w, rname);
                w.u32(*serial);
                w.u32(*refresh);
                w.u32(*retry);
                w.u32(*expire);
                w.u32(*minimum);
            }
            RData::Dnskey {
                flags,
                protocol,
                algorithm,
                public_key,
            } => {
                w.u16(*flags);
                w.u8(*protocol);
                w.u8(*algorithm);
                w.bytes(public_key);
            }
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
            } => {
                w.u16(type_covered.0);
                w.u8(*algorithm);
                w.u8(*labels);
                w.u32(*original_ttl);
                w.u32(*expiration);
                w.u32(*inception);
                w.u16(*key_tag);
                put_name(w, signer_name);
                w.bytes(signature);
            }
            RData::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            } => {
                w.u16(*key_tag);
                w.u8(*algorithm);
                w.u8(*digest_type);
                w.bytes(digest);
            }
            RData::Nsec { next, types } => {
                put_name(w, next);
                types.encode(w);
            }
            RData::Nsec3 {
                hash_alg,
                flags,
                iterations,
                salt,
                next_hashed,
                types,
            } => {
                w.u8(*hash_alg);
                w.u8(*flags);
                w.u16(*iterations);
                w.u8(salt.len() as u8);
                w.bytes(salt);
                w.u8(next_hashed.len() as u8);
                w.bytes(next_hashed);
                types.encode(w);
            }
            RData::Nsec3Param {
                hash_alg,
                flags,
                iterations,
                salt,
            } => {
                w.u8(*hash_alg);
                w.u8(*flags);
                w.u16(*iterations);
                w.u8(salt.len() as u8);
                w.bytes(salt);
            }
            RData::Unknown { data, .. } => w.bytes(data),
        }
    }

    /// Canonical wire form of the RDATA, used for RRset ordering and the
    /// RRSIG signing buffer.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut Writer::plain(&mut out), true);
        out
    }

    /// Decode an RDATA of type `rtype` spanning exactly `rdlength` bytes.
    pub(crate) fn decode(
        r: &mut Reader<'_>,
        rtype: RrType,
        rdlength: usize,
    ) -> Result<Self, WireError> {
        let end = r.pos() + rdlength;
        let out = match rtype {
            RrType::A => {
                let o = r.bytes(4)?;
                RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
            }
            RrType::AAAA => {
                let o = r.bytes(16)?;
                let mut a = [0u8; 16];
                a.copy_from_slice(o);
                RData::Aaaa(Ipv6Addr::from(a))
            }
            RrType::NS => RData::Ns(r.name()?),
            RrType::CNAME => RData::Cname(r.name()?),
            RrType::PTR => RData::Ptr(r.name()?),
            RrType::MX => RData::Mx {
                preference: r.u16()?,
                exchange: r.name()?,
            },
            RrType::TXT => {
                let mut strings = Vec::new();
                while r.pos() < end {
                    let len = r.u8()? as usize;
                    strings.push(r.bytes(len)?.to_vec());
                }
                RData::Txt(strings)
            }
            RrType::SOA => RData::Soa {
                mname: r.name()?,
                rname: r.name()?,
                serial: r.u32()?,
                refresh: r.u32()?,
                retry: r.u32()?,
                expire: r.u32()?,
                minimum: r.u32()?,
            },
            RrType::DNSKEY => {
                let flags = r.u16()?;
                let protocol = r.u8()?;
                let algorithm = r.u8()?;
                let key_len = end
                    .checked_sub(r.pos())
                    .ok_or(WireError::BadRdata("DNSKEY rdlength too small"))?;
                RData::Dnskey {
                    flags,
                    protocol,
                    algorithm,
                    public_key: r.bytes(key_len)?.to_vec(),
                }
            }
            RrType::RRSIG => {
                let type_covered = RrType(r.u16()?);
                let algorithm = r.u8()?;
                let labels = r.u8()?;
                let original_ttl = r.u32()?;
                let expiration = r.u32()?;
                let inception = r.u32()?;
                let key_tag = r.u16()?;
                let signer_name = r.name()?;
                let sig_len = end
                    .checked_sub(r.pos())
                    .ok_or(WireError::BadRdata("RRSIG rdlength too small"))?;
                RData::Rrsig {
                    type_covered,
                    algorithm,
                    labels,
                    original_ttl,
                    expiration,
                    inception,
                    key_tag,
                    signer_name,
                    signature: r.bytes(sig_len)?.to_vec(),
                }
            }
            RrType::DS => {
                let key_tag = r.u16()?;
                let algorithm = r.u8()?;
                let digest_type = r.u8()?;
                let dig_len = end
                    .checked_sub(r.pos())
                    .ok_or(WireError::BadRdata("DS rdlength too small"))?;
                RData::Ds {
                    key_tag,
                    algorithm,
                    digest_type,
                    digest: r.bytes(dig_len)?.to_vec(),
                }
            }
            RrType::NSEC => {
                let next = r.name()?;
                let bm_len = end
                    .checked_sub(r.pos())
                    .ok_or(WireError::BadRdata("NSEC rdlength too small"))?;
                RData::Nsec {
                    next,
                    types: TypeBitmap::decode(r, bm_len)?,
                }
            }
            RrType::NSEC3 => {
                let hash_alg = r.u8()?;
                let flags = r.u8()?;
                let iterations = r.u16()?;
                let salt_len = r.u8()? as usize;
                let salt = r.bytes(salt_len)?.to_vec();
                let hash_len = r.u8()? as usize;
                let next_hashed = r.bytes(hash_len)?.to_vec();
                let bm_len = end
                    .checked_sub(r.pos())
                    .ok_or(WireError::BadRdata("NSEC3 rdlength too small"))?;
                RData::Nsec3 {
                    hash_alg,
                    flags,
                    iterations,
                    salt,
                    next_hashed,
                    types: TypeBitmap::decode(r, bm_len)?,
                }
            }
            RrType::NSEC3PARAM => {
                let hash_alg = r.u8()?;
                let flags = r.u8()?;
                let iterations = r.u16()?;
                let salt_len = r.u8()? as usize;
                let salt = r.bytes(salt_len)?.to_vec();
                RData::Nsec3Param {
                    hash_alg,
                    flags,
                    iterations,
                    salt,
                }
            }
            RrType(other) => RData::Unknown {
                rtype: other,
                data: r.bytes(rdlength)?.to_vec(),
            },
        };
        if r.pos() != end {
            return Err(WireError::BadRdata("rdata length mismatch"));
        }
        Ok(out)
    }

    /// For NSEC3 records: is the opt-out flag set?
    pub fn nsec3_opt_out(&self) -> Option<bool> {
        match self {
            RData::Nsec3 { flags, .. } => Some(flags & NSEC3_FLAG_OPT_OUT != 0),
            _ => None,
        }
    }

    /// `==` with the names inside compared octet for octet, case
    /// included (see [`Record::eq_exact`](crate::Record::eq_exact)).
    pub(crate) fn eq_exact(&self, other: &RData) -> bool {
        let same = |a: &Name, b: &Name| a.wire_bytes() == b.wire_bytes();
        match (self, other) {
            (RData::Ns(a), RData::Ns(b))
            | (RData::Cname(a), RData::Cname(b))
            | (RData::Ptr(a), RData::Ptr(b)) => same(a, b),
            (
                RData::Mx {
                    preference,
                    exchange,
                },
                RData::Mx {
                    preference: p,
                    exchange: e,
                },
            ) => preference == p && same(exchange, e),
            (
                RData::Soa {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                },
                RData::Soa {
                    mname: m,
                    rname: r,
                    serial: s,
                    refresh: f,
                    retry: t,
                    expire: x,
                    minimum: n,
                },
            ) => {
                (serial, refresh, retry, expire, minimum) == (s, f, t, x, n)
                    && same(mname, m)
                    && same(rname, r)
            }
            (
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
                },
                RData::Rrsig {
                    type_covered: c,
                    algorithm: a,
                    labels: l,
                    original_ttl: o,
                    expiration: x,
                    inception: i,
                    key_tag: k,
                    signer_name: n,
                    signature: s,
                },
            ) => {
                (type_covered, algorithm, labels, original_ttl) == (c, a, l, o)
                    && (expiration, inception, key_tag) == (x, i, k)
                    && signature == s
                    && same(signer_name, n)
            }
            (RData::Nsec { next, types }, RData::Nsec { next: n, types: t }) => {
                types == t && same(next, n)
            }
            // Every other variant holds no name, so `==` is exact.
            _ => self == other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;

    fn roundtrip(rd: &RData) -> RData {
        let mut buf = Vec::new();
        rd.encode(&mut Writer::plain(&mut buf), false);
        let mut r = Reader::new(&buf);
        RData::decode(&mut r, rd.rrtype(), buf.len()).unwrap()
    }

    #[test]
    fn a_roundtrip() {
        let rd = RData::A(Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn aaaa_roundtrip() {
        let rd = RData::Aaaa("2001:db8::1".parse().unwrap());
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn soa_roundtrip() {
        let rd = RData::Soa {
            mname: name("ns1.example."),
            rname: name("hostmaster.example."),
            serial: 2024030501,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 3600,
        };
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn dnskey_roundtrip() {
        let rd = RData::Dnskey {
            flags: 257,
            protocol: 3,
            algorithm: 253,
            public_key: vec![1, 2, 3, 4],
        };
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn rrsig_roundtrip() {
        let rd = RData::Rrsig {
            type_covered: RrType::NSEC3,
            algorithm: 253,
            labels: 2,
            original_ttl: 3600,
            expiration: 1700000000,
            inception: 1690000000,
            key_tag: 12345,
            signer_name: name("example."),
            signature: vec![9; 32],
        };
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn nsec3_roundtrip_and_optout() {
        let rd = RData::Nsec3 {
            hash_alg: NSEC3_HASH_SHA1,
            flags: NSEC3_FLAG_OPT_OUT,
            iterations: 100,
            salt: vec![0xaa, 0xbb, 0xcc, 0xdd],
            next_hashed: vec![0x11; 20],
            types: TypeBitmap::from_types([RrType::A, RrType::RRSIG]),
        };
        assert_eq!(roundtrip(&rd), rd);
        assert_eq!(rd.nsec3_opt_out(), Some(true));
        assert_eq!(RData::A(Ipv4Addr::LOCALHOST).nsec3_opt_out(), None);
    }

    #[test]
    fn nsec3param_roundtrip_zero_salt() {
        let rd = RData::Nsec3Param {
            hash_alg: NSEC3_HASH_SHA1,
            flags: 0,
            iterations: 0,
            salt: vec![],
        };
        assert_eq!(roundtrip(&rd), rd);
        // Wire: alg=1 flags=0 iter=0 saltlen=0.
        let mut buf = Vec::new();
        rd.encode(&mut Writer::plain(&mut buf), false);
        assert_eq!(buf, vec![1, 0, 0, 0, 0]);
    }

    #[test]
    fn nsec_roundtrip() {
        let rd = RData::Nsec {
            next: name("b.example."),
            types: TypeBitmap::from_types([RrType::A, RrType::NSEC, RrType::RRSIG]),
        };
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn txt_roundtrip_multiple_strings() {
        let rd = RData::Txt(vec![b"hello".to_vec(), b"world".to_vec(), vec![]]);
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn mx_and_unknown_roundtrip() {
        let rd = RData::Mx {
            preference: 10,
            exchange: name("mx.example."),
        };
        assert_eq!(roundtrip(&rd), rd);
        let rd = RData::Unknown {
            rtype: 9999,
            data: vec![1, 2, 3],
        };
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn canonical_lowercases_rdata_names() {
        let rd = RData::Ns(name("NS1.Example.COM"));
        let canon = rd.canonical_bytes();
        assert_eq!(canon, b"\x03ns1\x07example\x03com\x00");
    }

    #[test]
    fn eq_exact_is_eq_with_the_case_of_every_name() {
        // Every name-bearing variant, then its names respelled: `==`
        // still holds, `eq_exact` does not; the encodings tell them apart.
        let spelled = |n: &str| {
            [
                RData::Ns(name(n)),
                RData::Cname(name(n)),
                RData::Ptr(name(n)),
                RData::Mx {
                    preference: 10,
                    exchange: name(n),
                },
                RData::Soa {
                    mname: name(n),
                    rname: name("hostmaster.example."),
                    serial: 1,
                    refresh: 2,
                    retry: 3,
                    expire: 4,
                    minimum: 5,
                },
                RData::Soa {
                    mname: name("ns.example."),
                    rname: name(n),
                    serial: 1,
                    refresh: 2,
                    retry: 3,
                    expire: 4,
                    minimum: 5,
                },
                RData::Rrsig {
                    type_covered: RrType::A,
                    algorithm: 13,
                    labels: 2,
                    original_ttl: 300,
                    expiration: 2,
                    inception: 1,
                    key_tag: 7,
                    signer_name: name(n),
                    signature: vec![1, 2, 3],
                },
                RData::Nsec {
                    next: name(n),
                    types: TypeBitmap::from_types([RrType::A]),
                },
            ]
        };
        let plain = spelled("ns.example.");
        for (a, b) in plain.iter().zip(&spelled("NS.Example.")) {
            assert!(a.eq_exact(a), "{a:?}");
            assert_eq!(a, b);
            assert!(!a.eq_exact(b), "{a:?} against {b:?}");
            assert_ne!(encoded(a), encoded(b));
        }
        // No variant is exactly another, and a name-free one is its `==`.
        for (i, a) in plain.iter().enumerate() {
            for (j, b) in plain.iter().enumerate() {
                assert_eq!(a.eq_exact(b), i == j, "{a:?} against {b:?}");
            }
        }
        let txt = RData::Txt(vec![b"v=spf1".to_vec()]);
        assert!(txt.eq_exact(&txt.clone()));
        assert!(!txt.eq_exact(&RData::Txt(vec![b"V=spf1".to_vec()])));
    }

    /// `rd` on the wire as sent, names in their case.
    fn encoded(rd: &RData) -> Vec<u8> {
        let mut out = Vec::new();
        rd.encode(&mut Writer::plain(&mut out), false);
        out
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        // An A record with 5 bytes of rdata.
        let buf = [1u8, 2, 3, 4, 5];
        let mut r = Reader::new(&buf);
        assert!(RData::decode(&mut r, RrType::A, 5).is_err());
    }

    #[test]
    fn decode_rejects_truncated_nsec3() {
        let buf = [1u8, 0, 0, 10, 4]; // salt_len=4 but no salt bytes
        let mut r = Reader::new(&buf);
        assert!(RData::decode(&mut r, RrType::NSEC3, buf.len()).is_err());
    }
}
