//! Wire-format reader/writer with DNS name compression support
//! (RFC 1035 §4.1.4), plus the reusable compression table ([`WireBuf`])
//! and the thread-local pool of them that every message encode draws on.

use std::cell::RefCell;

use crate::name::{Name, MAX_NAME_LEN};
use crate::WireError;

/// Cursor over a received message buffer.
///
/// Name decompression needs random access to the whole message, so the
/// reader keeps the full slice and a position rather than consuming a slice.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a message buffer.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Current offset.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Read one octet.
    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.data.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a big-endian u16.
    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes([self.u8()?, self.u8()?]))
    }

    /// Read a big-endian u32.
    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes([
            self.u8()?,
            self.u8()?,
            self.u8()?,
            self.u8()?,
        ]))
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a possibly-compressed domain name.
    ///
    /// Compression pointers must point strictly backwards, which also bounds
    /// the number of jumps and defeats pointer loops.
    pub fn name(&mut self) -> Result<Name, WireError> {
        // Labels are gathered in a stack buffer (a valid name never
        // exceeds it), so decoding allocates once, for the name itself.
        let mut wire = [0u8; MAX_NAME_LEN];
        let mut wire_len = 0usize;
        let mut jumps = 0usize;
        let mut pos = self.pos;
        let mut end_of_name: Option<usize> = None; // position after first pointer
        loop {
            let len = *self.data.get(pos).ok_or(WireError::Truncated)?;
            match len {
                0 => {
                    pos += 1;
                    break;
                }
                1..=63 => {
                    let end = pos + 1 + len as usize;
                    let label = self.data.get(pos..end).ok_or(WireError::Truncated)?;
                    // The root octet counts toward the 255-octet limit.
                    if wire_len + label.len() + 1 > MAX_NAME_LEN {
                        return Err(WireError::BadName("compressed name too long"));
                    }
                    wire[wire_len..wire_len + label.len()].copy_from_slice(label);
                    wire_len += label.len();
                    pos = end;
                }
                0xC0..=0xFF => {
                    let lo = *self.data.get(pos + 1).ok_or(WireError::Truncated)?;
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
        self.pos = end_of_name.unwrap_or(pos);
        Ok(Name::from_checked_wire(&wire[..wire_len]))
    }
}

/// The name-compression table of one message: every name suffix a later
/// name may point at. A reply has at most a few dozen, so the table is a
/// list probed linearly — by length, then `memcmp` — with nothing hashed
/// and nothing allocated per suffix. It keeps its capacity across
/// messages; [`Writer::compressing`] clears it, so compression never
/// spans messages.
#[derive(Default)]
pub struct WireBuf {
    /// One lowercased copy of each name that was written with a literal
    /// part; every suffix of that name is a tail of its copy.
    arena: Vec<u8>,
    /// One entry per label written below offset `0x4000`, in write order.
    entries: Vec<Suffix>,
}

#[derive(Clone, Copy)]
struct Suffix {
    /// The suffix is `arena[start..start + len]`.
    start: u32,
    len: u8,
    /// Message-relative offset of the suffix's first label.
    at: u16,
}

impl WireBuf {
    fn clear(&mut self) {
        self.arena.clear();
        self.entries.clear();
    }

    /// Where `suffix` (lowercased wire form, no root octet) was written.
    fn find(&self, suffix: &[u8]) -> Option<u16> {
        self.entries
            .iter()
            .filter(|e| usize::from(e.len) == suffix.len())
            .find(|e| {
                let stored = &self.arena[e.start as usize..][..suffix.len()];
                // Names of one length in one message are mostly siblings
                // or hashed owners, which differ in their first label:
                // eight octets compared inline turn most of them away
                // without a call to `memcmp`.
                match (stored.first_chunk::<8>(), suffix.first_chunk::<8>()) {
                    (Some(a), Some(b)) if a != b => false,
                    _ => stored == suffix,
                }
            })
            .map(|e| e.at)
    }
}

thread_local! {
    /// Per-thread stack of spare compression tables. A stack (rather than
    /// a single slot) keeps re-entrant encodes — a handler encoding a
    /// reply while a caller's encode is still borrowed — allocation-free
    /// too.
    static ENCODE_POOL: RefCell<Vec<WireBuf>> = const { RefCell::new(Vec::new()) };
}

/// How many spare tables a thread keeps. Deep re-entrancy beyond this
/// falls back to plain allocation.
const ENCODE_POOL_CAP: usize = 8;

/// Run `f` with a pooled thread-local [`WireBuf`], returning it to the
/// pool afterwards. The pool only recycles allocations — the writer
/// clears the table it is given — so pooled encodes are byte-identical to
/// fresh ones at any thread count.
pub(crate) fn with_pooled<R>(f: impl FnOnce(&mut WireBuf) -> R) -> R {
    let mut buf = ENCODE_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default();
    let out = f(&mut buf);
    ENCODE_POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < ENCODE_POOL_CAP {
            p.push(buf);
        }
    });
    out
}

/// Message writer with optional name compression.
///
/// The writer borrows its output buffer (and, when compressing, the
/// suffix table) so callers control allocation: a fresh `Vec` or a
/// caller-provided reply buffer encode through the same code.
/// Compression offsets are relative to the buffer position at
/// construction (`base`), so a message can be appended after existing
/// bytes — e.g. a reserved 2-byte TCP length prefix — and still emit
/// message-relative pointers.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// The suffixes written so far, when compression is on.
    compress: Option<&'a mut WireBuf>,
    base: usize,
}

impl<'a> Writer<'a> {
    /// A writer that never compresses (canonical forms, digests, signing
    /// buffers), appending to `out`.
    pub fn plain(out: &'a mut Vec<u8>) -> Self {
        let base = out.len();
        Writer {
            out,
            compress: None,
            base,
        }
    }

    /// A writer that compresses names (normal responses), appending to
    /// `out` and using `table` for suffix tracking. The table is
    /// cleared: compression never spans messages.
    pub fn compressing(out: &'a mut Vec<u8>, table: &'a mut WireBuf) -> Self {
        table.clear();
        let base = out.len();
        Writer {
            out,
            compress: Some(table),
            base,
        }
    }

    /// Current length relative to this writer's base (== next write
    /// offset, and == the final message length once done).
    #[allow(clippy::len_without_is_empty)] // nothing asks whether it is empty
    pub fn len(&self) -> usize {
        self.out.len() - self.base
    }

    /// Append one octet.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Append a big-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.out.extend_from_slice(v);
    }

    /// Overwrite a previously-written big-endian u16 at a base-relative
    /// offset (e.g. RDLENGTH back-patching).
    pub fn patch_u16(&mut self, at: usize, v: u16) {
        let at = self.base + at;
        self.out[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Append a domain name, compressing against earlier names when this
    /// writer was created with [`Writer::compressing`].
    pub fn name(&mut self, name: &Name) {
        let wire = name.wire_bytes();
        let Some(suffixes) = self.compress.as_deref_mut() else {
            self.out.extend_from_slice(wire);
            self.out.push(0);
            return;
        };
        // One lowercased copy of the whole name on the stack; every
        // suffix of it is a tail of that copy.
        let mut key = [0u8; MAX_NAME_LEN];
        let key = &mut key[..wire.len()];
        for (dst, src) in key.iter_mut().zip(wire.iter()) {
            *dst = src.to_ascii_lowercase();
        }
        // Find the leftmost suffix already written (if any): everything
        // before it is emitted literally, the rest becomes a pointer.
        let mut pointer: Option<u16> = None;
        let mut literal_len = wire.len();
        let mut pos = 0usize;
        while pos < wire.len() {
            if let Some(off) = suffixes.find(&key[pos..]) {
                pointer = Some(off);
                literal_len = pos;
                break;
            }
            pos += 1 + wire[pos] as usize;
        }
        // Record the freshly-written suffixes for future compression, if
        // they fit in a 14-bit pointer. Labels land contiguously, so a
        // label at name-offset `p` sits at message-offset `here + p`.
        // None of them is in the table yet — the search above stopped at
        // the leftmost one that is — so the first writer of a suffix
        // stays the only one.
        let here = self.out.len() - self.base;
        if literal_len > 0 && here < 0x4000 {
            let start = suffixes.arena.len();
            suffixes.arena.extend_from_slice(key);
            let mut pos = 0usize;
            while pos < literal_len && here + pos < 0x4000 {
                suffixes.entries.push(Suffix {
                    start: (start + pos) as u32,
                    len: (wire.len() - pos) as u8,
                    at: (here + pos) as u16,
                });
                pos += 1 + wire[pos] as usize;
            }
        }
        self.out.extend_from_slice(&wire[..literal_len]);
        match pointer {
            Some(off) => self.u16(0xC000 | off),
            None => self.u8(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        let mut w = Writer::plain(&mut buf);
        w.u8(0xab);
        w.u16(0x1234);
        w.u32(0xdeadbeef);
        w.bytes(b"xyz");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xdeadbeef);
        assert_eq!(r.bytes(3).unwrap(), b"xyz");
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err());
    }

    #[test]
    fn name_roundtrip_uncompressed() {
        let mut buf = Vec::new();
        let mut w = Writer::plain(&mut buf);
        w.name(&name("www.example.com"));
        assert_eq!(buf, b"\x03www\x07example\x03com\x00");
        let mut r = Reader::new(&buf);
        assert_eq!(r.name().unwrap(), name("www.example.com"));
    }

    #[test]
    fn compression_shares_suffixes() {
        let (mut buf, mut table) = (Vec::new(), WireBuf::default());
        let mut w = Writer::compressing(&mut buf, &mut table);
        w.name(&name("www.example.com"));
        let first_len = w.len();
        w.name(&name("mail.example.com"));
        // Second name: 1+4 for "mail" + 2-byte pointer = 7 bytes.
        assert_eq!(buf.len(), first_len + 7);
        let mut r = Reader::new(&buf);
        assert_eq!(r.name().unwrap(), name("www.example.com"));
        assert_eq!(r.name().unwrap(), name("mail.example.com"));
    }

    #[test]
    fn compression_is_case_insensitive() {
        let (mut buf, mut table) = (Vec::new(), WireBuf::default());
        let mut w = Writer::compressing(&mut buf, &mut table);
        w.name(&name("EXAMPLE.com"));
        let first_len = w.len();
        w.name(&name("example.COM"));
        assert_eq!(buf.len(), first_len + 2, "full name should be a pointer");
        let mut r = Reader::new(&buf);
        let _ = r.name().unwrap();
        // Decompressed second name takes the case of the *first* occurrence,
        // which is fine: names compare case-insensitively.
        assert_eq!(r.name().unwrap(), name("example.com"));
    }

    #[test]
    fn whole_name_pointer() {
        let (mut buf, mut table) = (Vec::new(), WireBuf::default());
        let mut w = Writer::compressing(&mut buf, &mut table);
        w.name(&name("example.com"));
        w.name(&name("example.com"));
        assert_eq!(buf.len(), 13 + 2, "the second name is one pointer");
        let mut r = Reader::new(&buf);
        assert_eq!(r.name().unwrap(), name("example.com"));
        assert_eq!(r.name().unwrap(), name("example.com"));
    }

    #[test]
    fn compression_offsets_are_base_relative() {
        // Appending after existing bytes (a 2-byte frame prefix, say) must
        // emit pointers relative to the message start, not the buffer start.
        let mut plainbuf = Vec::new();
        let mut w = Writer::plain(&mut plainbuf);
        w.name(&name("a.example.com"));
        w.name(&name("b.example.com"));

        let mut out = vec![0u8, 0u8]; // reserved prefix
        let mut table = WireBuf::default();
        let mut w = Writer::compressing(&mut out, &mut table);
        w.name(&name("a.example.com"));
        w.name(&name("b.example.com"));
        assert!(w.len() < plainbuf.len(), "second name should compress");
        // Pointers resolve against the *message*, i.e. after the prefix.
        let mut r = Reader::new(&out[2..]);
        assert_eq!(r.name().unwrap(), name("a.example.com"));
        assert_eq!(r.name().unwrap(), name("b.example.com"));
    }

    #[test]
    fn pooled_tables_carry_nothing_between_messages() {
        let encode = || {
            let mut out = Vec::new();
            with_pooled(|table| Writer::compressing(&mut out, table).name(&name("example.com")));
            out
        };
        let first = encode();
        assert_eq!(first, b"\x07example\x03com\x00");
        assert_eq!(
            encode(),
            first,
            "a reused table must not point into the last message"
        );
    }

    #[test]
    fn rejects_forward_pointer_loop() {
        // A name that points at itself.
        let buf = [0xC0u8, 0x00];
        let mut r = Reader::new(&buf);
        assert!(r.name().is_err());
    }

    #[test]
    fn rejects_reserved_label_type() {
        let buf = [0x80u8, 0x00];
        let mut r = Reader::new(&buf);
        assert!(r.name().is_err());
    }

    #[test]
    fn root_name_roundtrip() {
        let mut buf = Vec::new();
        let mut w = Writer::plain(&mut buf);
        w.name(&Name::root());
        assert_eq!(buf, b"\x00");
        let mut r = Reader::new(&buf);
        assert!(r.name().unwrap().is_root());
    }

    #[test]
    fn patch_u16_works() {
        let mut buf = Vec::new();
        let mut w = Writer::plain(&mut buf);
        w.u16(0);
        w.bytes(b"abc");
        w.patch_u16(0, 3);
        assert_eq!(buf, b"\x00\x03abc");
    }
}
