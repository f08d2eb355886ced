//! NSEC/NSEC3 type bitmaps (RFC 4034 §4.1.2, RFC 5155 §3.2.1).
//!
//! A type bitmap encodes the set of RR types present at a name as a sequence
//! of `(window, length, bitmap)` blocks. Windows with no set bits are
//! omitted, and each window's bitmap is truncated to the last non-zero byte.

use crate::buf::{Reader, Writer};
use crate::rrtype::RrType;
use crate::WireError;

/// An ordered set of RR types as carried in NSEC/NSEC3 records.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TypeBitmap {
    /// Sorted, deduplicated type values.
    types: Vec<u16>,
}

impl TypeBitmap {
    /// Empty bitmap (legal in NSEC3 records for empty non-terminals and
    /// opt-out side effects).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from any iterator of types.
    pub fn from_types<I: IntoIterator<Item = RrType>>(iter: I) -> Self {
        let mut types: Vec<u16> = iter.into_iter().map(|t| t.0).collect();
        types.sort_unstable();
        types.dedup();
        TypeBitmap { types }
    }

    /// Insert a type.
    pub fn insert(&mut self, t: RrType) {
        if let Err(at) = self.types.binary_search(&t.0) {
            self.types.insert(at, t.0);
        }
    }

    /// Membership test.
    pub fn contains(&self, t: RrType) -> bool {
        self.types.binary_search(&t.0).is_ok()
    }

    /// The types, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = RrType> + '_ {
        self.types.iter().map(|&t| RrType(t))
    }

    /// Wire-encode into `w`.
    pub fn encode(&self, w: &mut Writer) {
        let mut i = 0;
        while i < self.types.len() {
            let window = (self.types[i] >> 8) as u8;
            let mut bitmap = [0u8; 32];
            let mut max_byte = 0usize;
            while i < self.types.len() && (self.types[i] >> 8) as u8 == window {
                let low = (self.types[i] & 0xff) as usize;
                bitmap[low / 8] |= 0x80 >> (low % 8);
                max_byte = low / 8;
                i += 1;
            }
            w.u8(window);
            w.u8((max_byte + 1) as u8);
            w.bytes(&bitmap[..=max_byte]);
        }
    }

    /// Decode from `r`, consuming exactly `len` bytes.
    pub fn decode(r: &mut Reader<'_>, len: usize) -> Result<Self, WireError> {
        let end = r.pos() + len;
        let mut types = Vec::new();
        let mut last_window: Option<u8> = None;
        while r.pos() < end {
            let window = r.u8()?;
            if let Some(lw) = last_window {
                if window <= lw {
                    return Err(WireError::BadRdata("type bitmap windows out of order"));
                }
            }
            last_window = Some(window);
            let blen = r.u8()? as usize;
            if blen == 0 || blen > 32 {
                return Err(WireError::BadRdata("type bitmap block length out of range"));
            }
            if r.pos() + blen > end {
                return Err(WireError::Truncated);
            }
            let block = r.bytes(blen)?;
            for (byte_idx, &byte) in block.iter().enumerate() {
                for bit in 0..8 {
                    if byte & (0x80 >> bit) != 0 {
                        types.push(((window as u16) << 8) | ((byte_idx * 8 + bit) as u16));
                    }
                }
            }
        }
        if r.pos() != end {
            return Err(WireError::BadRdata("type bitmap overrun"));
        }
        Ok(TypeBitmap { types })
    }
}

impl FromIterator<RrType> for TypeBitmap {
    fn from_iter<I: IntoIterator<Item = RrType>>(iter: I) -> Self {
        Self::from_types(iter)
    }
}

impl std::fmt::Display for TypeBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for t in self.iter() {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{t}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(bm: &TypeBitmap) -> TypeBitmap {
        let mut buf = Vec::new();
        bm.encode(&mut Writer::plain(&mut buf));
        let mut r = Reader::new(&buf);
        TypeBitmap::decode(&mut r, buf.len()).unwrap()
    }

    #[test]
    fn basic_roundtrip() {
        let bm = TypeBitmap::from_types([RrType::A, RrType::NS, RrType::SOA, RrType::RRSIG]);
        assert_eq!(roundtrip(&bm), bm);
        assert!(bm.contains(RrType::A));
        assert!(!bm.contains(RrType::TXT));
    }

    #[test]
    fn known_wire_encoding() {
        // RFC 4034 §4.3 example: "A MX RRSIG NSEC TYPE1234" encodes to
        // 0x00 0x06 0x40 0x01 0x00 0x00 0x00 0x03  0x04 0x1b 0x00 0x00 0x00 0x00 0x00 0x00 ...
        let bm = TypeBitmap::from_types([
            RrType::A,
            RrType::MX,
            RrType::RRSIG,
            RrType::NSEC,
            RrType(1234),
        ]);
        let mut buf = Vec::new();
        bm.encode(&mut Writer::plain(&mut buf));
        let mut expected = vec![0x00u8, 0x06, 0x40, 0x01, 0x00, 0x00, 0x00, 0x03];
        // Window 4 (types 1024..1279): 1234 = 4*256 + 210; byte 26, bit 2.
        let mut win4 = vec![0x04u8, 27];
        win4.extend(std::iter::repeat_n(0u8, 26));
        win4.push(0x20);
        expected.extend(win4);
        assert_eq!(buf, expected);
    }

    #[test]
    fn empty_bitmap_is_empty_wire() {
        let bm = TypeBitmap::new();
        let mut buf = Vec::new();
        bm.encode(&mut Writer::plain(&mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn multiple_windows() {
        let bm = TypeBitmap::from_types([RrType::A, RrType(256), RrType(65280)]);
        assert_eq!(roundtrip(&bm), bm);
    }

    #[test]
    fn insert_maintains_order() {
        let mut bm = TypeBitmap::new();
        bm.insert(RrType::TXT);
        bm.insert(RrType::A);
        bm.insert(RrType::TXT);
        let types: Vec<_> = bm.iter().collect();
        assert_eq!(types, vec![RrType::A, RrType::TXT]);
    }

    #[test]
    fn decode_rejects_bad_blocks() {
        // Zero block length.
        let buf = [0x00u8, 0x00];
        assert!(TypeBitmap::decode(&mut Reader::new(&buf), 2).is_err());
        // Block length 33.
        let mut buf = vec![0x00u8, 33];
        buf.extend([0u8; 33]);
        assert!(TypeBitmap::decode(&mut Reader::new(&buf), buf.len()).is_err());
        // Out-of-order windows.
        let buf = [0x01u8, 0x01, 0x80, 0x00, 0x01, 0x80];
        assert!(TypeBitmap::decode(&mut Reader::new(&buf), buf.len()).is_err());
    }

    #[test]
    fn display_lists_mnemonics() {
        let bm = TypeBitmap::from_types([RrType::A, RrType::RRSIG]);
        assert_eq!(bm.to_string(), "A RRSIG");
    }
}
