//! Lazy, borrowed message views: parse the header and question eagerly,
//! walk the record sections on demand without allocating.
//!
//! [`Message::decode`](crate::Message::decode) materializes every record
//! — owner `Name`s, typed `RData`, `Vec`s per section — even when the
//! caller only wants the header bits or one record type. A
//! [`MessageView`] borrows the packet instead: records come back as
//! [`RecordView`]s (offsets into the packet, fields read in place,
//! compression resolved against the packet on demand), and nothing is
//! allocated until the caller asks for an owned value.
//!
//! Two strictness levels matter:
//!
//! * [`MessageView::parse`] validates the header and question section
//!   only. Record iteration validates structure (name well-formedness,
//!   RDATA bounds) as it goes. This is the cheap path for peeking at
//!   flags, counts, or a single section.
//! * [`MessageView::validate`] additionally decodes every RDATA and the
//!   OPT record with exactly the checks `Message::decode` applies, so
//!   accept/reject decisions made on a view are *identical* to decisions
//!   made on a full decode — load-bearing for the authoritative server,
//!   whose drop-or-answer behaviour under corrupted input is pinned by
//!   the driver-equivalence tests.

use crate::buf::Reader;
use crate::edns::Edns;
use crate::message::{Flags, Message, Question};
use crate::name::{Name, MAX_NAME_LEN};
use crate::rdata::RData;
use crate::record::Record;
use crate::rrtype::{Class, Opcode, Rcode, RrType};
use crate::WireError;

/// Outcome of skipping over one (possibly compressed) name in place.
struct NameSpan {
    /// Offset just past the name as it appears here (after the first
    /// pointer, or after the root octet).
    end: usize,
    /// Whether the name was stored inline with no compression pointers.
    pointer_free: bool,
}

/// Walk a name starting at `pos` without materializing labels, applying
/// exactly the validity rules of [`Reader::name`]: truncation, reserved
/// label types, strictly-backward pointers, the 127-jump bound, and the
/// 255-octet length cap (the same cap `Name::from_labels` re-checks on
/// the decode path — so a name this walk accepts is a name `Reader::name`
/// accepts, and vice versa).
fn skip_name(packet: &[u8], start: usize) -> Result<NameSpan, WireError> {
    let mut jumps = 0usize;
    let mut pos = start;
    let mut end_of_name: Option<usize> = None;
    let mut total_len = 1usize;
    loop {
        let len = *packet.get(pos).ok_or(WireError::Truncated)?;
        match len {
            0 => {
                pos += 1;
                break;
            }
            1..=63 => {
                let len = len as usize;
                let start = pos + 1;
                if packet.get(start..start + len).is_none() {
                    return Err(WireError::Truncated);
                }
                total_len += 1 + len;
                if total_len > MAX_NAME_LEN {
                    return Err(WireError::BadName("compressed name too long"));
                }
                pos = start + len;
            }
            0xC0..=0xFF => {
                let lo = *packet.get(pos + 1).ok_or(WireError::Truncated)?;
                let target = ((len as usize & 0x3f) << 8) | lo as usize;
                if target >= pos {
                    return Err(WireError::BadName("forward compression pointer"));
                }
                if end_of_name.is_none() {
                    end_of_name = Some(pos + 2);
                }
                jumps += 1;
                if jumps > 127 {
                    return Err(WireError::BadName("too many compression pointers"));
                }
                pos = target;
            }
            _ => return Err(WireError::BadName("reserved label type")),
        }
    }
    Ok(NameSpan {
        end: end_of_name.unwrap_or(pos),
        pointer_free: jumps == 0,
    })
}

/// The first question of a message, borrowed from the packet.
#[derive(Clone, Copy)]
pub struct QuestionView<'a> {
    packet: &'a [u8],
    name_off: usize,
    /// Offset just past qclass.
    end: usize,
    pointer_free: bool,
    qtype: RrType,
    qclass: Class,
}

impl<'a> QuestionView<'a> {
    /// Queried type.
    pub fn qtype(&self) -> RrType {
        self.qtype
    }

    /// Queried class.
    pub fn qclass(&self) -> Class {
        self.qclass
    }

    /// Decode the queried name (allocates the owned `Name`).
    pub fn qname(&self) -> Result<Name, WireError> {
        Reader::at(self.packet, self.name_off).name()
    }

    /// The literal wire bytes of this question entry — name, qtype and
    /// qclass exactly as the querier spelled them — when the name is
    /// stored inline without compression pointers (always, for queries
    /// our encoder produced). This is what lets an answer template echo
    /// the querier's 0x20-randomized casing with a plain copy.
    pub fn raw_entry(&self) -> Option<&'a [u8]> {
        self.pointer_free
            .then(|| &self.packet[self.name_off..self.end])
    }
}

/// Which message section a record came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Section {
    /// Answer section.
    Answer,
    /// Authority section.
    Authority,
    /// Additional section.
    Additional,
}

/// One resource record, borrowed from the packet: fixed fields read
/// eagerly, owner name and RDATA left in place until asked for.
#[derive(Clone, Copy)]
pub struct RecordView<'a> {
    packet: &'a [u8],
    name_off: usize,
    rtype: RrType,
    /// Raw class field (the UDP payload size, for OPT).
    class: u16,
    /// Raw TTL field (extended RCODE/flags, for OPT).
    ttl: u32,
    rdata_off: usize,
    rdata_len: usize,
}

impl<'a> RecordView<'a> {
    /// Record type.
    pub fn rrtype(&self) -> RrType {
        self.rtype
    }

    /// Raw class field (OPT repurposes this as the UDP payload size).
    pub fn class(&self) -> Class {
        Class(self.class)
    }

    /// Raw TTL field (OPT repurposes this as extended RCODE + flags).
    pub fn ttl(&self) -> u32 {
        self.ttl
    }

    /// Decode the owner name (allocates the owned `Name`).
    pub fn name(&self) -> Result<Name, WireError> {
        Reader::at(self.packet, self.name_off).name()
    }

    /// The raw RDATA bytes in place. Names inside may be compressed;
    /// use [`RecordView::to_record`] for typed access.
    pub fn rdata_bytes(&self) -> &'a [u8] {
        &self.packet[self.rdata_off..self.rdata_off + self.rdata_len]
    }

    /// Materialize an owned [`Record`], decoding the RDATA with the same
    /// rules as `Message::decode`. Not meaningful for OPT pseudo-records
    /// (those decode via [`MessageView::edns`]).
    pub fn to_record(&self) -> Result<Record, WireError> {
        let name = self.name()?;
        let mut r = Reader::at(self.packet, self.rdata_off);
        let rdata = RData::decode(&mut r, self.rtype, self.rdata_len)?;
        Ok(Record {
            name,
            class: Class(self.class),
            ttl: self.ttl,
            rdata,
        })
    }
}

/// Iterator over the record sections of a [`MessageView`], walking the
/// packet in place. Yields `Err` once and then stops if the packet's
/// record structure is malformed.
pub struct RecordIter<'a> {
    packet: &'a [u8],
    pos: usize,
    /// Records left in [answer, authority, additional].
    remaining: [u16; 3],
    section: usize,
    failed: bool,
}

impl<'a> Iterator for RecordIter<'a> {
    type Item = Result<(Section, RecordView<'a>), WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        while self.section < 3 && self.remaining[self.section] == 0 {
            self.section += 1;
        }
        if self.section == 3 {
            return None;
        }
        self.remaining[self.section] -= 1;
        let section = match self.section {
            0 => Section::Answer,
            1 => Section::Authority,
            _ => Section::Additional,
        };
        match parse_record(self.packet, self.pos) {
            Ok((view, end)) => {
                self.pos = end;
                Some(Ok((section, view)))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Parse one record's envelope at `pos`: validated owner name, fixed
/// fields, bounds-checked RDATA span. Returns the view and the offset
/// just past the record.
fn parse_record(packet: &[u8], pos: usize) -> Result<(RecordView<'_>, usize), WireError> {
    let span = skip_name(packet, pos)?;
    let mut r = Reader::at(packet, span.end);
    let rtype = RrType(r.u16()?);
    let class = r.u16()?;
    let ttl = r.u32()?;
    let rdata_len = r.u16()? as usize;
    let rdata_off = r.pos();
    if packet.len() < rdata_off + rdata_len {
        return Err(WireError::Truncated);
    }
    Ok((
        RecordView {
            packet,
            name_off: pos,
            rtype,
            class,
            ttl,
            rdata_off,
            rdata_len,
        },
        rdata_off + rdata_len,
    ))
}

/// A lazily-parsed DNS message borrowed from its packet.
pub struct MessageView<'a> {
    packet: &'a [u8],
    id: u16,
    flags_word: u16,
    qdcount: u16,
    ancount: u16,
    nscount: u16,
    arcount: u16,
    question: Option<QuestionView<'a>>,
    /// Offset where the answer section starts.
    body_off: usize,
}

impl<'a> MessageView<'a> {
    /// Parse the header and question section; record sections are only
    /// structure-checked when iterated. Fails exactly when
    /// `Message::decode` would fail on the header or questions.
    pub fn parse(packet: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(packet);
        let id = r.u16()?;
        let flags_word = r.u16()?;
        let qdcount = r.u16()?;
        let ancount = r.u16()?;
        let nscount = r.u16()?;
        let arcount = r.u16()?;
        let mut question = None;
        let mut pos = r.pos();
        for i in 0..qdcount {
            let span = skip_name(packet, pos)?;
            let mut f = Reader::at(packet, span.end);
            let qtype = RrType(f.u16()?);
            let qclass = Class(f.u16()?);
            if i == 0 {
                question = Some(QuestionView {
                    packet,
                    name_off: pos,
                    end: f.pos(),
                    pointer_free: span.pointer_free,
                    qtype,
                    qclass,
                });
            }
            pos = f.pos();
        }
        Ok(MessageView {
            packet,
            id,
            flags_word,
            qdcount,
            ancount,
            nscount,
            arcount,
            question,
            body_off: pos,
        })
    }

    /// Transaction id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Decomposed header flags.
    pub fn flags(&self) -> Flags {
        let w = self.flags_word;
        Flags {
            qr: w & 0x8000 != 0,
            opcode: Opcode::from_u8(((w >> 11) & 0x0f) as u8),
            aa: w & 0x0400 != 0,
            tc: w & 0x0200 != 0,
            rd: w & 0x0100 != 0,
            ra: w & 0x0080 != 0,
            ad: w & 0x0020 != 0,
            cd: w & 0x0010 != 0,
        }
    }

    /// Number of questions.
    pub fn qdcount(&self) -> u16 {
        self.qdcount
    }

    /// Number of answer records.
    pub fn ancount(&self) -> u16 {
        self.ancount
    }

    /// Number of authority records.
    pub fn nscount(&self) -> u16 {
        self.nscount
    }

    /// Number of additional records (including any OPT).
    pub fn arcount(&self) -> u16 {
        self.arcount
    }

    /// The first question, if present.
    pub fn question(&self) -> Option<&QuestionView<'a>> {
        self.question.as_ref()
    }

    /// Iterate all records across answer/authority/additional, lazily.
    pub fn records(&self) -> RecordIter<'a> {
        RecordIter {
            packet: self.packet,
            pos: self.body_off,
            remaining: [self.ancount, self.nscount, self.arcount],
            section: 0,
            failed: false,
        }
    }

    /// Walk the additional section for an OPT record and decode it.
    /// Returns `Ok(None)` for a message without EDNS; structural errors
    /// on the walk surface as `Err`.
    pub fn edns(&self) -> Result<Option<Edns>, WireError> {
        for item in self.records() {
            let (section, rec) = item?;
            if section == Section::Additional && rec.rrtype() == RrType::OPT {
                let mut r = Reader::at(self.packet, rec.rdata_off - 2);
                return Ok(Some(Edns::decode_body(&mut r, rec.class, rec.ttl)?));
            }
        }
        Ok(None)
    }

    /// The full 12-bit response code; the high bits require finding the
    /// OPT record, so this walks the sections.
    pub fn rcode(&self) -> Result<Rcode, WireError> {
        let hi = self.edns()?.map(|e| e.extended_rcode_hi).unwrap_or(0) as u16;
        Ok(Rcode::from_u16((hi << 4) | (self.flags_word & 0x000f)))
    }

    /// Fully validate the message with exactly the rules of
    /// `Message::decode` — every owner name, every RDATA, OPT placement
    /// (root owner, no duplicate) — without materializing records.
    /// Returns the decoded EDNS state, the only owned piece. A packet
    /// passes `validate` if and only if `Message::decode` accepts it.
    pub fn validate(&self) -> Result<Option<Edns>, WireError> {
        let mut edns: Option<Edns> = None;
        for item in self.records() {
            let (_, rec) = item?;
            if rec.rrtype() == RrType::OPT {
                if !rec.name()?.is_root() {
                    return Err(WireError::BadRdata("OPT owner must be root"));
                }
                if edns.is_some() {
                    return Err(WireError::BadRdata("duplicate OPT record"));
                }
                let mut r = Reader::at(self.packet, rec.rdata_off - 2);
                edns = Some(Edns::decode_body(&mut r, rec.class, rec.ttl)?);
            } else {
                rec.name()?;
                let mut r = Reader::at(self.packet, rec.rdata_off);
                RData::decode(&mut r, rec.rrtype(), rec.rdata_len)?;
            }
        }
        Ok(edns)
    }

    /// Decode the whole question section (allocates the owned names).
    pub fn questions(&self) -> Result<Vec<Question>, WireError> {
        let mut questions = Vec::with_capacity(self.qdcount as usize);
        let mut r = Reader::at(self.packet, 12);
        for _ in 0..self.qdcount {
            questions.push(Question {
                qname: r.name()?,
                qtype: RrType(r.u16()?),
                qclass: Class(r.u16()?),
            });
        }
        Ok(questions)
    }

    /// Materialize the whole message. Produces exactly what
    /// `Message::decode` on the same packet produces (the CI parity gate
    /// asserts this over a generated corpus).
    pub fn to_message(&self) -> Result<Message, WireError> {
        let questions = self.questions()?;
        let mut edns: Option<Edns> = None;
        let mut answers = Vec::with_capacity(self.ancount as usize);
        let mut authorities = Vec::with_capacity(self.nscount as usize);
        let mut additionals = Vec::new();
        for item in self.records() {
            let (section, rec) = item?;
            if rec.rrtype() == RrType::OPT {
                if !rec.name()?.is_root() {
                    return Err(WireError::BadRdata("OPT owner must be root"));
                }
                if edns.is_some() {
                    return Err(WireError::BadRdata("duplicate OPT record"));
                }
                let mut r = Reader::at(self.packet, rec.rdata_off - 2);
                edns = Some(Edns::decode_body(&mut r, rec.class, rec.ttl)?);
            } else {
                let out = match section {
                    Section::Answer => &mut answers,
                    Section::Authority => &mut authorities,
                    Section::Additional => &mut additionals,
                };
                out.push(rec.to_record()?);
            }
        }
        let rcode_lo = self.flags_word & 0x000f;
        let rcode_hi = edns.as_ref().map(|e| e.extended_rcode_hi).unwrap_or(0) as u16;
        Ok(Message {
            id: self.id,
            flags: self.flags(),
            rcode: Rcode::from_u16((rcode_hi << 4) | rcode_lo),
            questions,
            answers,
            authorities,
            additionals,
            edns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;
    use std::net::Ipv4Addr;

    fn sample_response() -> Message {
        let q = Message::query(0x77aa, name("Host.Example.COM"), RrType::A);
        let mut resp = Message::response_to(&q);
        resp.flags.aa = true;
        resp.rcode = Rcode::NoError;
        resp.answers.push(Record::new(
            name("host.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        resp.authorities.push(Record::new(
            name("example.com"),
            3600,
            RData::Ns(name("ns1.example.com")),
        ));
        resp.additionals.push(Record::new(
            name("ns1.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ));
        resp
    }

    #[test]
    fn view_matches_decode_on_sample() {
        let wire = sample_response().encode();
        let view = MessageView::parse(&wire).unwrap();
        let full = Message::decode(&wire).unwrap();
        assert_eq!(view.id(), full.id);
        assert_eq!(view.flags(), full.flags);
        assert_eq!(
            view.question().unwrap().qname().unwrap(),
            full.question().unwrap().qname
        );
        assert_eq!(view.rcode().unwrap(), full.rcode);
        assert_eq!(view.edns().unwrap(), full.edns);
        assert_eq!(view.to_message().unwrap(), full);
        assert_eq!(
            view.records().count(),
            full.answers.len()
                + full.authorities.len()
                + full.additionals.len()
                + usize::from(full.edns.is_some())
        );
    }

    #[test]
    fn lazy_iteration_resolves_compressed_owners() {
        let wire = sample_response().encode();
        let view = MessageView::parse(&wire).unwrap();
        let owners: Vec<Name> = view
            .records()
            .map(|r| r.unwrap().1.name().unwrap())
            .collect();
        assert_eq!(owners[0], name("host.example.com"));
        assert_eq!(owners[1], name("example.com"));
        assert_eq!(owners[2], name("ns1.example.com"));
    }

    #[test]
    fn question_raw_entry_preserves_case() {
        let q = Message::query(9, name("WwW.ExAmPlE.cOm"), RrType::A);
        let wire = q.encode();
        let view = MessageView::parse(&wire).unwrap();
        let raw = view.question().unwrap().raw_entry().unwrap();
        assert_eq!(&raw[..17], b"\x03WwW\x07ExAmPlE\x03cOm\x00");
        assert_eq!(raw.len(), 17 + 4, "name + qtype + qclass");
    }

    #[test]
    fn validate_agrees_with_decode_on_truncations() {
        let wire = sample_response().encode();
        for cut in 0..wire.len() {
            let decode_ok = Message::decode(&wire[..cut]).is_ok();
            let view_ok = MessageView::parse(&wire[..cut])
                .and_then(|v| v.validate())
                .is_ok();
            assert_eq!(decode_ok, view_ok, "cut {cut}");
        }
    }

    #[test]
    fn validate_rejects_duplicate_opt() {
        let q = Message::query(1, name("x."), RrType::A);
        let mut buf = q.encode();
        buf.extend_from_slice(&[0x00, 0x00, 41, 0x04, 0xD0, 0, 0, 0, 0, 0, 0]);
        let arcount = u16::from_be_bytes([buf[10], buf[11]]) + 1;
        buf[10..12].copy_from_slice(&arcount.to_be_bytes());
        assert!(Message::decode(&buf).is_err());
        let view = MessageView::parse(&buf).unwrap();
        assert!(view.validate().is_err());
        assert!(view.to_message().is_err());
    }
}
