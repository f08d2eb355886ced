//! Base 32 encoding with extended hex alphabet, RFC 4648 §7
//! ("base32hex"), as used by NSEC3 owner names (RFC 5155 §1.3).
//!
//! NSEC3 hashes are always 20 bytes (SHA-1), which encodes to exactly
//! 32 characters with no padding, and DNS uses the lowercase form.

/// The base32hex alphabet (RFC 4648 §7), lowercase as used in DNS.
const ALPHABET: &[u8; 32] = b"0123456789abcdefghijklmnopqrstuv";

/// Encode bytes as unpadded lowercase base32hex.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity((data.len() * 8).div_ceil(5));
    let mut buffer: u64 = 0;
    let mut bits: u32 = 0;
    for &b in data {
        buffer = (buffer << 8) | u64::from(b);
        bits += 8;
        while bits >= 5 {
            bits -= 5;
            out.push(ALPHABET[((buffer >> bits) & 0x1f) as usize] as char);
        }
    }
    if bits > 0 {
        out.push(ALPHABET[((buffer << (5 - bits)) & 0x1f) as usize] as char);
    }
    out
}

/// Decode unpadded base32hex (case-insensitive), from text or straight
/// from label bytes. Returns `None` on invalid characters or an
/// impossible length.
pub fn decode(s: impl AsRef<[u8]>) -> Option<Vec<u8>> {
    let s = s.as_ref();
    // Lengths congruent to 1, 3 or 6 mod 8 cannot occur.
    if matches!(s.len() % 8, 1 | 3 | 6) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() * 5 / 8);
    let mut buffer: u64 = 0;
    let mut bits: u32 = 0;
    for &c in s {
        let v = match c {
            b'0'..=b'9' => c - b'0',
            b'a'..=b'v' => c - b'a' + 10,
            b'A'..=b'V' => c - b'A' + 10,
            _ => return None,
        };
        buffer = (buffer << 5) | u64::from(v);
        bits += 5;
        if bits >= 8 {
            bits -= 8;
            out.push(((buffer >> bits) & 0xff) as u8);
        }
    }
    // Remaining bits must be zero padding.
    if bits > 0 && (buffer & ((1 << bits) - 1)) != 0 {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4648 §10 test vectors (given uppercase + padded there; we are
    // lowercase + unpadded).
    #[test]
    fn rfc4648_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "co");
        assert_eq!(encode(b"fo"), "cpng");
        assert_eq!(encode(b"foo"), "cpnmu");
        assert_eq!(encode(b"foob"), "cpnmuog");
        assert_eq!(encode(b"fooba"), "cpnmuoj1");
        assert_eq!(encode(b"foobar"), "cpnmuoj1e8");
    }

    #[test]
    fn decode_vectors() {
        assert_eq!(decode("").unwrap(), b"");
        assert_eq!(decode("cpnmuoj1e8").unwrap(), b"foobar");
        assert_eq!(decode("CPNMUOJ1E8").unwrap(), b"foobar");
    }

    #[test]
    fn twenty_bytes_is_32_chars() {
        let h = [0u8; 20];
        assert_eq!(encode(&h).len(), 32);
        let h = [0xffu8; 20];
        assert_eq!(encode(&h).len(), 32);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode("w").is_none()); // 'w' not in alphabet
        assert!(decode("0").is_none()); // impossible length
        assert!(decode("0!").is_none());
        assert!(decode([0xc3u8, 0xa9]).is_none()); // non-ASCII label bytes
    }

    #[test]
    fn roundtrip_all_lengths() {
        for len in 0..40 {
            let data: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37)).collect();
            assert_eq!(decode(encode(&data)).unwrap(), data, "len {len}");
        }
    }
}
