//! EDNS(0) (RFC 6891) and Extended DNS Errors (RFC 8914).
//!
//! The paper's resolver measurements hinge on two EDNS features: the DO bit
//! (signalling DNSSEC support) and the EDE option — in particular
//! INFO-CODE 27 *Unsupported NSEC3 Iterations Value*, which RFC 9276
//! items 10–11 govern.

use crate::buf::{Reader, Writer};
use crate::name::Name;
use crate::rrtype::RrType;
use crate::WireError;

/// Extended DNS Error codes (RFC 8914) observed in the study.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EdeCode(pub u16);

#[allow(missing_docs)]
impl EdeCode {
    pub const OTHER: EdeCode = EdeCode(0);
    pub const DNSSEC_INDETERMINATE: EdeCode = EdeCode(5);
    pub const DNSSEC_BOGUS: EdeCode = EdeCode(6);
    pub const SIGNATURE_EXPIRED: EdeCode = EdeCode(7);
    pub const DNSKEY_MISSING: EdeCode = EdeCode(9);
    pub const NSEC_MISSING: EdeCode = EdeCode(12);
    /// The code RFC 9276 items 10–11 are about.
    pub const UNSUPPORTED_NSEC3_ITERATIONS: EdeCode = EdeCode(27);
}

/// A single EDNS option.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EdnsOption {
    /// Extended DNS Error (option code 15).
    Ede {
        /// The INFO-CODE.
        code: EdeCode,
        /// UTF-8 EXTRA-TEXT (optional, possibly empty).
        extra_text: String,
    },
    /// Any other option, kept verbatim.
    Unknown {
        /// Option code.
        code: u16,
        /// Option data.
        data: Vec<u8>,
    },
}

/// EDNS option code for Extended DNS Errors.
const OPTION_EDE: u16 = 15;

/// Decoded OPT pseudo-record state carried on a message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Edns {
    /// Requestor's/responder's UDP payload size.
    pub udp_payload_size: u16,
    /// Upper 8 bits of the extended RCODE.
    pub extended_rcode_hi: u8,
    /// EDNS version (0).
    pub version: u8,
    /// DNSSEC OK bit.
    pub dnssec_ok: bool,
    /// Options, in order.
    pub options: Vec<EdnsOption>,
}

impl Default for Edns {
    fn default() -> Self {
        Edns {
            udp_payload_size: 1232,
            extended_rcode_hi: 0,
            version: 0,
            dnssec_ok: false,
            options: Vec::new(),
        }
    }
}

impl Edns {
    /// An EDNS block with the DO bit set — what a validating resolver sends.
    pub fn with_do() -> Self {
        Edns {
            dnssec_ok: true,
            ..Default::default()
        }
    }

    /// Append an EDE option.
    pub fn push_ede(&mut self, code: EdeCode, extra_text: impl Into<String>) {
        self.options.push(EdnsOption::Ede {
            code,
            extra_text: extra_text.into(),
        });
    }

    /// First EDE option, if any.
    pub fn ede(&self) -> Option<(&EdeCode, &str)> {
        self.options.iter().find_map(|o| match o {
            EdnsOption::Ede { code, extra_text } => Some((code, extra_text.as_str())),
            _ => None,
        })
    }

    /// Encode as an OPT pseudo-record appended to the additional section.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.name(&Name::root());
        w.u16(RrType::OPT.0);
        w.u16(self.udp_payload_size);
        w.u8(self.extended_rcode_hi);
        w.u8(self.version);
        w.u16(if self.dnssec_ok { 0x8000 } else { 0 });
        let len_at = w.len();
        w.u16(0);
        let start = w.len();
        for opt in &self.options {
            match opt {
                EdnsOption::Ede { code, extra_text } => {
                    w.u16(OPTION_EDE);
                    w.u16((2 + extra_text.len()) as u16);
                    w.u16(code.0);
                    w.bytes(extra_text.as_bytes());
                }
                EdnsOption::Unknown { code, data } => {
                    w.u16(*code);
                    w.u16(data.len() as u16);
                    w.bytes(data);
                }
            }
        }
        let rdlen = w.len() - start;
        w.patch_u16(len_at, rdlen as u16);
    }

    /// Decode the body of an OPT record whose owner/type have already been
    /// consumed. `class`/`ttl` are the raw fields that OPT repurposes.
    pub(crate) fn decode_body(r: &mut Reader<'_>, class: u16, ttl: u32) -> Result<Self, WireError> {
        let udp_payload_size = class;
        let extended_rcode_hi = (ttl >> 24) as u8;
        let version = (ttl >> 16) as u8;
        let dnssec_ok = ttl & 0x8000 != 0;
        let rdlength = r.u16()? as usize;
        let end = r.pos() + rdlength;
        let mut options = Vec::new();
        while r.pos() < end {
            let code = r.u16()?;
            let olen = r.u16()? as usize;
            if r.pos() + olen > end {
                return Err(WireError::Truncated);
            }
            if code == OPTION_EDE {
                if olen < 2 {
                    return Err(WireError::BadRdata("EDE option too short"));
                }
                let info = r.u16()?;
                let text = r.bytes(olen - 2)?;
                options.push(EdnsOption::Ede {
                    code: EdeCode(info),
                    extra_text: String::from_utf8_lossy(text).into_owned(),
                });
            } else {
                options.push(EdnsOption::Unknown {
                    code,
                    data: r.bytes(olen)?.to_vec(),
                });
            }
        }
        if r.pos() != end {
            return Err(WireError::BadRdata("OPT rdata overrun"));
        }
        Ok(Edns {
            udp_payload_size,
            extended_rcode_hi,
            version,
            dnssec_ok,
            options,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_with_ede() {
        let mut edns = Edns::with_do();
        edns.push_ede(EdeCode::UNSUPPORTED_NSEC3_ITERATIONS, "too many iterations");
        let mut buf = Vec::new();
        edns.encode(&mut Writer::plain(&mut buf));
        let mut r = Reader::new(&buf);
        // Skip owner (root) + type.
        assert!(r.name().unwrap().is_root());
        assert_eq!(r.u16().unwrap(), RrType::OPT.0);
        let class = r.u16().unwrap();
        let ttl = r.u32().unwrap();
        let decoded = Edns::decode_body(&mut r, class, ttl).unwrap();
        assert_eq!(decoded, edns);
        let (code, text) = decoded.ede().unwrap();
        assert_eq!(*code, EdeCode::UNSUPPORTED_NSEC3_ITERATIONS);
        assert_eq!(text, "too many iterations");
    }

    #[test]
    fn do_bit_roundtrips() {
        for do_bit in [false, true] {
            let edns = Edns {
                dnssec_ok: do_bit,
                ..Default::default()
            };
            let mut buf = Vec::new();
            edns.encode(&mut Writer::plain(&mut buf));
            let mut r = Reader::new(&buf);
            let _ = r.name().unwrap();
            let _ = r.u16().unwrap();
            let class = r.u16().unwrap();
            let ttl = r.u32().unwrap();
            let decoded = Edns::decode_body(&mut r, class, ttl).unwrap();
            assert_eq!(decoded.dnssec_ok, do_bit);
        }
    }

    #[test]
    fn unknown_options_preserved() {
        let edns = Edns {
            options: vec![EdnsOption::Unknown {
                code: 10,
                data: vec![1, 2, 3],
            }],
            ..Default::default()
        };
        let mut buf = Vec::new();
        edns.encode(&mut Writer::plain(&mut buf));
        let mut r = Reader::new(&buf);
        let _ = r.name().unwrap();
        let _ = r.u16().unwrap();
        let class = r.u16().unwrap();
        let ttl = r.u32().unwrap();
        assert_eq!(Edns::decode_body(&mut r, class, ttl).unwrap(), edns);
    }
}
