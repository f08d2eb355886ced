//! Full DNS messages: header, question, sections, EDNS pseudo-section.

use std::borrow::Borrow;

use crate::buf::{with_pooled, Reader, WireBuf, Writer};
use crate::edns::Edns;
use crate::name::Name;
use crate::rdata::RData;
use crate::record::Record;
use crate::rrtype::{Class, Opcode, Rcode, RrType};
use crate::WireError;

/// Header flag state (the 16-bit flags word, decomposed).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Flags {
    /// Response (vs query).
    pub qr: bool,
    /// Opcode.
    pub opcode: Opcode,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Authenticated data — the bit the paper's resolver classification
    /// watches to distinguish secure from insecure NXDOMAINs.
    pub ad: bool,
    /// Checking disabled.
    pub cd: bool,
}

/// A question section entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Question {
    /// Queried name.
    pub qname: Name,
    /// Queried type.
    pub qtype: RrType,
    /// Queried class.
    pub qclass: Class,
}

impl Question {
    /// Convenience constructor for class IN.
    pub fn new(qname: Name, qtype: RrType) -> Self {
        Question {
            qname,
            qtype,
            qclass: Class::IN,
        }
    }
}

/// A DNS message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// Header flags.
    pub flags: Flags,
    /// Response code (full 12-bit value; the high bits travel in EDNS).
    pub rcode: Rcode,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section (excluding the OPT pseudo-record).
    pub additionals: Vec<Record>,
    /// EDNS state, if an OPT record is present.
    pub edns: Option<Edns>,
}

impl Message {
    /// A recursive query for `qname`/`qtype` with the DO bit set.
    pub fn query(id: u16, qname: Name, qtype: RrType) -> Self {
        Message {
            id,
            flags: Flags {
                rd: true,
                ..Default::default()
            },
            rcode: Rcode::NoError,
            questions: vec![Question::new(qname, qtype)],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: Some(Edns::with_do()),
        }
    }

    /// Start a response to `query`, echoing id and question.
    pub fn response_to(query: &Message) -> Self {
        Message {
            id: query.id,
            flags: Flags {
                qr: true,
                opcode: query.flags.opcode,
                rd: query.flags.rd,
                ..Default::default()
            },
            rcode: Rcode::NoError,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: query.edns.as_ref().map(|_| Edns::default()),
        }
    }

    /// The first question (all our traffic is single-question).
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Did the querier set the DO bit?
    pub fn dnssec_ok(&self) -> bool {
        self.edns.as_ref().map(|e| e.dnssec_ok).unwrap_or(false)
    }

    /// All records in answer+authority matching a type, lazily.
    pub fn records_of_type(&self, t: RrType) -> impl Iterator<Item = &Record> + '_ {
        self.answers
            .iter()
            .chain(self.authorities.iter())
            .filter(move |r| r.rrtype() == t)
    }

    /// Serialize to wire format with name compression, into an owned
    /// buffer. Thin wrapper over [`Message::encode_append`] — hot paths
    /// should encode into a reused buffer instead.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        self.encode_append(&mut out);
        out
    }

    /// Serialize into a reusable [`WireBuf`], replacing its contents.
    pub fn encode_into(&self, buf: &mut WireBuf) {
        buf.clear();
        self.head().encode(
            &mut buf.writer(),
            &self.answers,
            &self.authorities,
            &self.additionals,
        );
    }

    /// Serialize to wire format, appending to `out`. Compression state
    /// comes from a pooled thread-local scratch buffer, so this
    /// allocates nothing beyond what `out` needs to grow.
    pub fn encode_append(&self, out: &mut Vec<u8>) {
        self.head()
            .encode_append(out, &self.answers, &self.authorities, &self.additionals);
    }

    fn head(&self) -> MessageHead<'_> {
        MessageHead {
            id: self.id,
            flags: self.flags,
            rcode: self.rcode,
            questions: &self.questions,
            edns: self.edns.as_ref(),
        }
    }

    /// Serialize with the RFC 7766 stream framing
    /// ([`MessageHead::encode_framed_append`]). The frame is appended to
    /// `out`; `&out[start + 2..]` is the bare datagram.
    pub fn encode_framed_append(&self, out: &mut Vec<u8>) {
        self.head()
            .encode_framed_append(out, &self.answers, &self.authorities, &self.additionals);
    }

    /// Parse from wire format.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let id = r.u16()?;
        let flags_word = r.u16()?;
        let qdcount = r.u16()? as usize;
        let ancount = r.u16()? as usize;
        let nscount = r.u16()? as usize;
        let arcount = r.u16()? as usize;
        let flags = Flags {
            qr: flags_word & 0x8000 != 0,
            opcode: Opcode::from_u8(((flags_word >> 11) & 0x0f) as u8),
            aa: flags_word & 0x0400 != 0,
            tc: flags_word & 0x0200 != 0,
            rd: flags_word & 0x0100 != 0,
            ra: flags_word & 0x0080 != 0,
            ad: flags_word & 0x0020 != 0,
            cd: flags_word & 0x0010 != 0,
        };
        // Header counts are unchecked input: reserve no more than the
        // bytes left could hold (a question is at least 5 octets, a
        // record 11), or a 12-byte datagram could claim megabytes.
        let mut questions = Vec::with_capacity(qdcount.min(r.remaining() / 5));
        for _ in 0..qdcount {
            questions.push(Question {
                qname: r.name()?,
                qtype: RrType(r.u16()?),
                qclass: Class(r.u16()?),
            });
        }
        let read_section = |r: &mut Reader<'_>,
                            count: usize,
                            reserve: usize,
                            edns: &mut Option<Edns>|
         -> Result<Vec<Record>, WireError> {
            let mut out = Vec::with_capacity(reserve.min(r.remaining() / 11));
            for _ in 0..count {
                // Peek for OPT: owner + type.
                let name = r.name()?;
                let rtype = RrType(r.u16()?);
                if rtype == RrType::OPT {
                    if !name.is_root() {
                        return Err(WireError::BadRdata("OPT owner must be root"));
                    }
                    if edns.is_some() {
                        return Err(WireError::BadRdata("duplicate OPT record"));
                    }
                    let class = r.u16()?;
                    let ttl = r.u32()?;
                    *edns = Some(Edns::decode_body(r, class, ttl)?);
                } else {
                    let class = Class(r.u16()?);
                    let ttl = r.u32()?;
                    let rdlength = r.u16()? as usize;
                    let rdata = RData::decode(r, rtype, rdlength)?;
                    out.push(Record {
                        name,
                        class,
                        ttl,
                        rdata,
                    });
                }
            }
            Ok(out)
        };
        let mut edns = None;
        let answers = read_section(&mut r, ancount, ancount, &mut edns)?;
        let authorities = read_section(&mut r, nscount, nscount, &mut edns)?;
        // The additional section usually holds the OPT record alone, which
        // lands in `edns`: start it empty.
        let additionals = read_section(&mut r, arcount, 0, &mut edns)?;
        let rcode_lo = flags_word & 0x000f;
        let rcode_hi = edns.as_ref().map(|e| e.extended_rcode_hi).unwrap_or(0) as u16;
        let rcode = Rcode::from_u16((rcode_hi << 4) | rcode_lo);
        Ok(Message {
            id,
            flags,
            rcode,
            questions,
            answers,
            authorities,
            additionals,
            edns,
        })
    }
}

/// Everything a message carries besides its three record sections.
#[derive(Clone, Copy, Debug)]
pub struct MessageHead<'a> {
    /// Transaction id.
    pub id: u16,
    /// Header flags.
    pub flags: Flags,
    /// Response code (the high bits travel in the OPT record).
    pub rcode: Rcode,
    /// Question section.
    pub questions: &'a [Question],
    /// EDNS state, if an OPT record is to be written.
    pub edns: Option<&'a Edns>,
}

impl MessageHead<'_> {
    /// Write a whole message: header, questions, the three record
    /// sections and the OPT record. This is the only message encoder —
    /// [`Message`] passes its owned sections, the authoritative server
    /// passes references into its zones — so the two cannot drift apart
    /// by a byte.
    pub(crate) fn encode<R: Borrow<Record>>(
        &self,
        w: &mut Writer<'_>,
        answers: &[R],
        authorities: &[R],
        additionals: &[R],
    ) {
        w.u16(self.id);
        let rcode = self.rcode.to_u16();
        let mut flags: u16 = 0;
        if self.flags.qr {
            flags |= 0x8000;
        }
        flags |= (self.flags.opcode.to_u8() as u16) << 11;
        if self.flags.aa {
            flags |= 0x0400;
        }
        if self.flags.tc {
            flags |= 0x0200;
        }
        if self.flags.rd {
            flags |= 0x0100;
        }
        if self.flags.ra {
            flags |= 0x0080;
        }
        if self.flags.ad {
            flags |= 0x0020;
        }
        if self.flags.cd {
            flags |= 0x0010;
        }
        flags |= rcode & 0x000f;
        w.u16(flags);
        w.u16(self.questions.len() as u16);
        w.u16(answers.len() as u16);
        w.u16(authorities.len() as u16);
        let arcount = additionals.len() + usize::from(self.edns.is_some());
        w.u16(arcount as u16);
        for q in self.questions {
            w.name(&q.qname);
            w.u16(q.qtype.0);
            w.u16(q.qclass.0);
        }
        for rec in answers.iter().chain(authorities).chain(additionals) {
            rec.borrow().encode(w);
        }
        if let Some(edns) = self.edns {
            let mut e = edns.clone();
            e.extended_rcode_hi = (rcode >> 4) as u8;
            e.encode(w);
        }
    }

    /// `MessageHead::encode` with name compression, appending to `out`;
    /// compression state comes from a pooled thread-local scratch buffer.
    pub fn encode_append<R: Borrow<Record>>(
        &self,
        out: &mut Vec<u8>,
        answers: &[R],
        authorities: &[R],
        additionals: &[R],
    ) {
        with_pooled(|scratch| {
            let mut w = Writer::compressing(out, scratch);
            self.encode(&mut w, answers, authorities, additionals);
        });
    }

    /// [`MessageHead::encode_append`] behind the RFC 7766 two-octet
    /// length prefix, reserved up front and patched, so — unlike
    /// [`frame_tcp`] — the message bytes are written exactly once. The
    /// prefix can state at most 65,535 octets: a longer message (an AXFR
    /// of a large zone; multi-message transfers, RFC 5936 §2.2, are not
    /// modelled) is replaced by SERVFAIL with empty sections, so a frame
    /// whose prefix disagrees with its body never leaves here.
    pub fn encode_framed_append<R: Borrow<Record>>(
        &self,
        out: &mut Vec<u8>,
        answers: &[R],
        authorities: &[R],
        additionals: &[R],
    ) {
        let start = out.len();
        out.extend_from_slice(&[0, 0]);
        self.encode_append(out, answers, authorities, additionals);
        if out.len() - start - 2 > usize::from(u16::MAX) {
            out.truncate(start + 2);
            let failed = MessageHead {
                rcode: Rcode::ServFail,
                ..*self
            };
            failed.encode_append::<R>(out, &[], &[], &[]);
        }
        let len =
            u16::try_from(out.len() - start - 2).expect("a message without records fits a frame");
        out[start..start + 2].copy_from_slice(&len.to_be_bytes());
    }
}

/// Frame a message for stream transport (RFC 7766 §8): a two-octet
/// big-endian length prefix. The simulated network carries datagrams
/// either way; the framing is how endpoints distinguish "TCP" exchanges
/// (no size limit) from UDP ones.
///
/// # Panics
///
/// Panics if `message` is longer than the prefix can state.
pub fn frame_tcp(message: &[u8]) -> Vec<u8> {
    let len = u16::try_from(message.len()).expect("a stream frame holds at most 65,535 octets");
    let mut out = Vec::with_capacity(message.len() + 2);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(message);
    out
}

/// Strip a stream-transport frame, returning the message when the length
/// prefix is exact. DNS headers put a 16-bit id first, so a UDP datagram
/// is only misparsed as a frame if its id happens to equal its length-2;
/// the question-echo check catches that residue.
pub fn unframe_tcp(payload: &[u8]) -> Option<&[u8]> {
    if payload.len() < 2 {
        return None;
    }
    let len = u16::from_be_bytes([payload[0], payload[1]]) as usize;
    if payload.len() == len + 2 {
        Some(&payload[2..])
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edns::EdeCode;
    use crate::name::name;
    use std::net::Ipv4Addr;

    fn roundtrip(m: &Message) -> Message {
        Message::decode(&m.encode()).unwrap()
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x1234, name("www.example.com"), RrType::A);
        let rt = roundtrip(&q);
        assert_eq!(rt.id, 0x1234);
        assert!(rt.flags.rd);
        assert!(!rt.flags.qr);
        assert!(rt.dnssec_ok());
        assert_eq!(rt.question().unwrap().qname, name("www.example.com"));
    }

    #[test]
    fn response_roundtrip_with_all_sections() {
        let q = Message::query(7, name("x.example."), RrType::A);
        let mut resp = Message::response_to(&q);
        resp.flags.aa = true;
        resp.flags.ad = true;
        resp.answers.push(Record::new(
            name("x.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        resp.authorities.push(Record::new(
            name("example."),
            3600,
            RData::Ns(name("ns1.example.")),
        ));
        resp.additionals.push(Record::new(
            name("ns1.example."),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ));
        let rt = roundtrip(&resp);
        assert_eq!(rt, resp);
        assert!(rt.flags.ad);
        assert!(rt.flags.aa);
    }

    #[test]
    fn servfail_with_ede_roundtrip() {
        let q = Message::query(9, name("it-151.test."), RrType::A);
        let mut resp = Message::response_to(&q);
        resp.rcode = Rcode::ServFail;
        let mut edns = Edns::default();
        edns.push_ede(EdeCode::UNSUPPORTED_NSEC3_ITERATIONS, "");
        resp.edns = Some(edns);
        let rt = roundtrip(&resp);
        assert_eq!(rt.rcode, Rcode::ServFail);
        assert_eq!(
            rt.edns.unwrap().ede().unwrap().0,
            &EdeCode::UNSUPPORTED_NSEC3_ITERATIONS
        );
    }

    #[test]
    fn extended_rcode_via_edns() {
        let q = Message::query(1, name("x."), RrType::A);
        let mut resp = Message::response_to(&q);
        resp.rcode = Rcode::Other(23); // BADCOOKIE, needs extended bits
        let rt = roundtrip(&resp);
        assert_eq!(rt.rcode, Rcode::Other(23));
    }

    #[test]
    fn compression_reduces_size() {
        let q = Message::query(7, name("aaaa.example."), RrType::NS);
        let mut resp = Message::response_to(&q);
        for i in 0..5 {
            resp.answers.push(Record::new(
                name("aaaa.example."),
                300,
                RData::Ns(name(&format!("ns{i}.aaaa.example."))),
            ));
        }
        let encoded = resp.encode();
        // Owner names compress to 2-byte pointers (RDATA names stay
        // uncompressed for RFC 3597 safety): 5 owners save 12 bytes each.
        // A pointer-free encoding of the same message is 60 bytes larger.
        assert!(encoded.len() < 200, "compressed len {}", encoded.len());
        assert_eq!(Message::decode(&encoded).unwrap(), resp);
    }

    #[test]
    fn rejects_duplicate_opt() {
        let q = Message::query(1, name("x."), RrType::A);
        let mut buf = q.encode();
        // Append a second OPT record: root, OPT, class 1232, ttl 0, rdlen 0.
        buf.extend_from_slice(&[0x00, 0x00, 41, 0x04, 0xD0, 0, 0, 0, 0, 0, 0]);
        // Bump ARCOUNT.
        let arcount = u16::from_be_bytes([buf[10], buf[11]]) + 1;
        buf[10..12].copy_from_slice(&arcount.to_be_bytes());
        assert!(Message::decode(&buf).is_err());
    }

    #[test]
    fn tcp_framing_roundtrip() {
        let msg = Message::query(5, name("x.example."), RrType::A).encode();
        let framed = frame_tcp(&msg);
        assert_eq!(unframe_tcp(&framed).unwrap(), msg.as_slice());
        // A plain datagram is (almost) never a valid frame.
        assert!(unframe_tcp(&msg).is_none() || msg[0] == 0);
        assert!(unframe_tcp(&[]).is_none());
        assert!(unframe_tcp(&[0, 5, 1]).is_none());
    }

    #[test]
    fn truncated_message_rejected() {
        let q = Message::query(1, name("example.com."), RrType::A).encode();
        for cut in [0, 5, 11, q.len() - 1] {
            assert!(Message::decode(&q[..cut]).is_err(), "cut {cut}");
        }
    }
}
