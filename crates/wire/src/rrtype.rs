//! RR types, classes, opcodes, and response codes.

use std::fmt;

/// A resource-record type (RFC 1035 §3.2.2 and successors).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RrType(pub u16);

#[allow(missing_docs)]
impl RrType {
    pub const A: RrType = RrType(1);
    pub const NS: RrType = RrType(2);
    pub const CNAME: RrType = RrType(5);
    pub const SOA: RrType = RrType(6);
    pub const PTR: RrType = RrType(12);
    pub const MX: RrType = RrType(15);
    pub const TXT: RrType = RrType(16);
    pub const AAAA: RrType = RrType(28);
    pub(crate) const OPT: RrType = RrType(41);
    pub const DS: RrType = RrType(43);
    pub const RRSIG: RrType = RrType(46);
    pub const NSEC: RrType = RrType(47);
    pub const DNSKEY: RrType = RrType(48);
    pub const NSEC3: RrType = RrType(50);
    pub const NSEC3PARAM: RrType = RrType(51);
    /// Pseudo-type requesting a full zone transfer.
    pub const AXFR: RrType = RrType(252);
    /// Pseudo-type for queries requesting any type.
    pub(crate) const ANY: RrType = RrType(255);

    /// Mnemonic if known, else `TYPE{n}` (RFC 3597 presentation).
    pub(crate) fn mnemonic(self) -> String {
        match self {
            RrType::A => "A".into(),
            RrType::NS => "NS".into(),
            RrType::CNAME => "CNAME".into(),
            RrType::SOA => "SOA".into(),
            RrType::PTR => "PTR".into(),
            RrType::MX => "MX".into(),
            RrType::TXT => "TXT".into(),
            RrType::AAAA => "AAAA".into(),
            RrType::OPT => "OPT".into(),
            RrType::AXFR => "AXFR".into(),
            RrType::DS => "DS".into(),
            RrType::RRSIG => "RRSIG".into(),
            RrType::NSEC => "NSEC".into(),
            RrType::DNSKEY => "DNSKEY".into(),
            RrType::NSEC3 => "NSEC3".into(),
            RrType::NSEC3PARAM => "NSEC3PARAM".into(),
            RrType::ANY => "ANY".into(),
            RrType(n) => format!("TYPE{n}"),
        }
    }

    /// Parse a mnemonic or `TYPE{n}` string.
    pub fn from_mnemonic(s: &str) -> Option<RrType> {
        let t = match s.to_ascii_uppercase().as_str() {
            "A" => RrType::A,
            "NS" => RrType::NS,
            "CNAME" => RrType::CNAME,
            "SOA" => RrType::SOA,
            "PTR" => RrType::PTR,
            "MX" => RrType::MX,
            "TXT" => RrType::TXT,
            "AAAA" => RrType::AAAA,
            "OPT" => RrType::OPT,
            "AXFR" => RrType::AXFR,
            "DS" => RrType::DS,
            "RRSIG" => RrType::RRSIG,
            "NSEC" => RrType::NSEC,
            "DNSKEY" => RrType::DNSKEY,
            "NSEC3" => RrType::NSEC3,
            "NSEC3PARAM" => RrType::NSEC3PARAM,
            "ANY" => RrType::ANY,
            other => {
                let n = other.strip_prefix("TYPE")?.parse().ok()?;
                RrType(n)
            }
        };
        Some(t)
    }
}

impl fmt::Display for RrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

/// DNS class. Only IN is used in practice.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Class(pub u16);

#[allow(missing_docs)]
impl Class {
    pub const IN: Class = Class(1);
    pub const CH: Class = Class(3);
    pub(crate) const ANY: Class = Class(255);
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Class::IN => f.write_str("IN"),
            Class::CH => f.write_str("CH"),
            Class::ANY => f.write_str("ANY"),
            Class(n) => write!(f, "CLASS{n}"),
        }
    }
}

/// Message opcode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Opcode {
    /// Standard query.
    #[default]
    Query,
    /// Other/unsupported opcode, kept verbatim.
    Other(u8),
}

impl Opcode {
    /// 4-bit wire value.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::Other(n) => n & 0x0f,
        }
    }

    /// From the 4-bit wire value.
    pub(crate) fn from_u8(n: u8) -> Opcode {
        match n & 0x0f {
            0 => Opcode::Query,
            other => Opcode::Other(other),
        }
    }
}

/// Response code, including values only reachable via EDNS extended RCODE.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Rcode {
    /// No error.
    #[default]
    NoError,
    /// Format error.
    FormErr,
    /// Server failure — the blanket failure code DNSSEC validation problems
    /// surface as, and the code RFC 9276 items 8/9 lead to.
    ServFail,
    /// Name does not exist (authoritative denial).
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused.
    Refused,
    /// Any other value.
    Other(u16),
}

impl Rcode {
    /// Full 12-bit value (low 4 bits in the header, high 8 via EDNS).
    pub fn to_u16(self) -> u16 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(n) => n,
        }
    }

    /// From the full 12-bit value.
    pub fn from_u16(n: u16) -> Rcode {
        match n {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => f.write_str("NOERROR"),
            Rcode::FormErr => f.write_str("FORMERR"),
            Rcode::ServFail => f.write_str("SERVFAIL"),
            Rcode::NxDomain => f.write_str("NXDOMAIN"),
            Rcode::NotImp => f.write_str("NOTIMP"),
            Rcode::Refused => f.write_str("REFUSED"),
            Rcode::Other(n) => write!(f, "RCODE{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_roundtrip() {
        for t in [
            RrType::A,
            RrType::NS,
            RrType::SOA,
            RrType::DNSKEY,
            RrType::NSEC3,
            RrType::NSEC3PARAM,
            RrType::RRSIG,
            RrType(4242),
        ] {
            assert_eq!(RrType::from_mnemonic(&t.mnemonic()).unwrap(), t);
        }
        assert_eq!(RrType::from_mnemonic("nsec3").unwrap(), RrType::NSEC3);
        assert!(RrType::from_mnemonic("BOGUS").is_none());
    }

    #[test]
    fn rcode_roundtrip() {
        for n in [0u16, 1, 2, 3, 4, 5, 16, 23, 4095] {
            assert_eq!(Rcode::from_u16(n).to_u16(), n);
        }
        assert_eq!(Rcode::ServFail.to_string(), "SERVFAIL");
        assert_eq!(Rcode::NxDomain.to_string(), "NXDOMAIN");
    }

    #[test]
    fn opcode_roundtrip() {
        assert_eq!(Opcode::from_u8(0), Opcode::Query);
        assert_eq!(Opcode::from_u8(5), Opcode::Other(5));
        assert_eq!(Opcode::Other(5).to_u8(), 5);
    }
}
