//! Property-based tests for the wire layer: every encode has a decode
//! that returns the original, orderings are lawful, codecs round-trip.

use std::collections::HashMap;

use sim_check::{gens, props, Gen, Rng, Xoshiro256pp};

use dns_wire::base32;
use dns_wire::base64;
use dns_wire::buf::{Reader, WireBuf, Writer};
use dns_wire::message::{Flags, Message, Question};
use dns_wire::name::{ancestor_keys, wire_suffixes, Name};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::{Class, Opcode, Rcode, RrType};
use dns_wire::typebitmap::TypeBitmap;

/// A DNS label: 1–63 bytes. Generation sticks to letters/digits/hyphens
/// plus a few oddballs to exercise escaping.
fn label() -> impl Gen<Vec<u8>> {
    gens::vec_of(
        gens::weighted(vec![
            (
                96.0,
                gens::boxed(gens::map(gens::char_range('a', 'z'), |c| c as u8)),
            ),
            (2.0, gens::boxed(gens::just(b'-'))),
            (1.0, gens::boxed(gens::just(b'.'))),
            (1.0, gens::boxed(gens::just(0xC3u8))),
        ]),
        1..=20,
    )
}

fn name() -> impl Gen<Name> {
    gens::filter_map(
        gens::vec_of(label(), 0..=6),
        |labels| Name::from_labels(labels).ok(),
        "name too long",
    )
}

/// Labels of 1–3 arbitrary-looking octets: both letter cases, digits, the
/// two extremes of the byte range and the octets the sort key escapes or
/// escapes to.
fn odd_label() -> impl Gen<Vec<u8>> {
    gens::vec_of(
        gens::map(gens::usizes(0..=9), |i| b"aAbZz0\x00\x01\x02\xFF"[i]),
        1..=3,
    )
}

/// Two names that share a suffix, with the case of the second one's
/// copy flipped at random — the pairs a zone's owner index compares. Up
/// to 24 labels each; some keys outgrow the smallest stack buffer.
fn suffix_sharing_names() -> impl Gen<(Name, Name)> {
    gens::filter_map(
        (
            gens::vec_of(odd_label(), 0..=12),
            gens::vec_of(odd_label(), 0..=12),
            gens::vec_of(odd_label(), 0..=12),
            gens::vec_of(gens::bools(), 36..=36),
        ),
        |(suffix, left, right, flips)| {
            let mut flips = flips.iter();
            let flipped = suffix.iter().map(|label| {
                label
                    .iter()
                    .map(|b| match flips.next() {
                        Some(true) if b.is_ascii_lowercase() => b.to_ascii_uppercase(),
                        Some(true) => b.to_ascii_lowercase(),
                        _ => *b,
                    })
                    .collect::<Vec<u8>>()
            });
            let a = Name::from_labels(left.iter().chain(&suffix)).ok()?;
            let b = Name::from_labels(right.into_iter().chain(flipped)).ok()?;
            Some((a, b))
        },
        "name too long",
    )
}

/// RFC 4034 §6.1 written down naively: the lower-cased labels, most
/// significant first, compared as a sequence of byte strings.
fn reversed_lowercase_labels(n: &Name) -> Vec<Vec<u8>> {
    let mut labels: Vec<Vec<u8>> = n.labels().map(<[u8]>::to_ascii_lowercase).collect();
    labels.reverse();
    labels
}

fn rdata() -> impl Gen<RData> {
    gens::one_of(vec![
        gens::boxed(gens::map(gens::array_of::<u8, 4>(gens::u8s(..)), |o| {
            RData::A(o.into())
        })),
        gens::boxed(gens::map(gens::array_of::<u8, 16>(gens::u8s(..)), |o| {
            RData::Aaaa(o.into())
        })),
        gens::boxed(gens::map(name(), RData::Ns)),
        gens::boxed(gens::map(name(), RData::Cname)),
        gens::boxed(gens::map(
            (gens::u16s(..), name()),
            |(preference, exchange)| RData::Mx {
                preference,
                exchange,
            },
        )),
        gens::boxed(gens::map(
            gens::vec_of(gens::vec_of(gens::u8s(..), 0..40), 0..3),
            RData::Txt,
        )),
        gens::boxed(gens::map(
            (
                gens::u16s(..),
                gens::u8s(..),
                gens::vec_of(gens::u8s(..), 0..40),
            ),
            |(flags, algorithm, public_key)| RData::Dnskey {
                flags,
                protocol: 3,
                algorithm,
                public_key,
            },
        )),
        gens::boxed(gens::map(
            (
                gens::u8s(..),
                gens::u16s(..),
                gens::vec_of(gens::u8s(..), 0..16),
                gens::vec_of(gens::u8s(..), 20),
                gens::vec_of(gens::u16s(..), 0..6),
            ),
            |(flags, iterations, salt, next_hashed, types)| RData::Nsec3 {
                hash_alg: 1,
                flags,
                iterations,
                salt,
                next_hashed,
                types: types.into_iter().map(RrType).collect(),
            },
        )),
        gens::boxed(gens::map(
            (gens::u16s(..), gens::vec_of(gens::u8s(..), 0..16)),
            |(iterations, salt)| RData::Nsec3Param {
                hash_alg: 1,
                flags: 0,
                iterations,
                salt,
            },
        )),
    ])
}

/// One step of writing a message: a name, or filler that moves the
/// next name's offset (RDATA, as far as the compressor is concerned).
#[derive(Debug)]
enum WriteOp {
    Name(Name),
    Fill(usize),
}

/// A message's worth of names that share suffixes in mixed case, the
/// root among them, with filler that often carries the write offset
/// across `0x3FFF`, the last one a 14-bit pointer can name.
fn compressible_message() -> impl Gen<Vec<WriteOp>> {
    |rng: &mut Xoshiro256pp, size: usize| {
        const LABELS: [&[u8]; 8] = [
            b"a", b"b", b"www", b"ns1", b"example", b"com", b"x-y", b"\xC3z",
        ];
        let mut names: Vec<Name> = Vec::new();
        let mut ops = Vec::new();
        let mut offset = 0usize;
        for _ in 0..rng.gen_range(1..size.max(1) + 2) {
            match rng.gen_range(0..20u8) {
                0 => {
                    ops.push(WriteOp::Name(Name::root()));
                    offset += 1;
                }
                1 | 2 => {
                    let fill = if rng.gen_bool(0.5) {
                        (0x3FF0 + rng.gen_range(0..0x20usize)).saturating_sub(offset)
                    } else {
                        rng.gen_range(0..3000usize)
                    };
                    ops.push(WriteOp::Fill(fill));
                    offset += fill;
                }
                _ => {
                    // A tail of an earlier name under zero to three new
                    // labels, every letter's case redrawn.
                    let mut labels: Vec<Vec<u8>> = (0..rng.gen_range(0..4u8))
                        .map(|_| LABELS[rng.gen_range(0..LABELS.len())].to_vec())
                        .collect();
                    if let Some(earlier) = rng.choose(&names) {
                        let tail: Vec<_> = earlier.labels().map(<[u8]>::to_vec).collect();
                        labels.extend_from_slice(&tail[rng.gen_range(0..tail.len() + 1)..]);
                    }
                    // A chain of tails can outgrow 255 octets; skip those.
                    let Ok(name) = Name::from_labels(labels) else {
                        continue;
                    };
                    let name = name.map_label_octets(|b| {
                        if rng.gen_bool(0.5) {
                            b.to_ascii_uppercase()
                        } else {
                            b.to_ascii_lowercase()
                        }
                    });
                    offset += name.wire_len();
                    names.push(name.clone());
                    ops.push(WriteOp::Name(name));
                }
            }
        }
        ops
    }
}

/// The compressor `Writer::name` replaced, kept as its oracle: a map from
/// every lowercased suffix written so far to its message offset, one
/// owned key per suffix.
fn reference_compressed_name(out: &mut Vec<u8>, map: &mut HashMap<Vec<u8>, u16>, name: &Name) {
    let wire = name.wire_bytes();
    let key = wire.to_ascii_lowercase();
    let mut label_starts = Vec::new();
    let mut pos = 0usize;
    while pos < wire.len() {
        label_starts.push(pos);
        pos += 1 + wire[pos] as usize;
    }
    let known = label_starts.iter().find(|p| map.contains_key(&key[**p..]));
    let literal_len = known.copied().unwrap_or(wire.len());
    for p in label_starts.iter().filter(|p| **p < literal_len) {
        if out.len() + p < 0x4000 {
            map.insert(key[*p..].to_vec(), (out.len() + p) as u16);
        }
    }
    out.extend_from_slice(&wire[..literal_len]);
    match known {
        Some(p) => out.extend_from_slice(&(0xC000 | map[&key[*p..]]).to_be_bytes()),
        None => out.push(0),
    }
}

props! {
    fn name_wire_roundtrip(n in name()) {
        let mut buf = Vec::new();
        Writer::plain(&mut buf).name(&n);
        let mut r = Reader::new(&buf);
        assert_eq!(r.name().unwrap(), n);
    }

    fn name_display_parse_roundtrip(n in name()) {
        let shown = n.to_string();
        let parsed = Name::parse(&shown).unwrap();
        assert_eq!(parsed, n);
    }

    fn name_compressed_roundtrip(names in gens::vec_of(name(), 1..6)) {
        let mut wb = WireBuf::new();
        let mut w = wb.writer();
        for n in &names {
            w.name(n);
        }
        let buf = wb.take();
        let mut r = Reader::new(&buf);
        for n in &names {
            assert_eq!(&r.name().unwrap(), n);
        }
        assert_eq!(r.remaining(), 0);
    }

    /// The suffix table writes what the suffix map wrote, byte for byte
    /// — also behind a frame prefix, where offsets are base-relative —
    /// and what it writes decodes to the names written.
    fn compressed_names_equal_the_map_reference(ops in compressible_message(), framed in gens::bools()) {
        let prefix: &[u8] = if framed { &[0xAB, 0xCD] } else { &[] };
        let (mut out, mut scratch) = (prefix.to_vec(), WireBuf::new());
        let mut w = Writer::compressing(&mut out, &mut scratch);
        let (mut want, mut map) = (Vec::new(), HashMap::new());
        for op in &ops {
            match op {
                WriteOp::Name(n) => {
                    w.name(n);
                    reference_compressed_name(&mut want, &mut map, n);
                }
                WriteOp::Fill(len) => {
                    w.bytes(&vec![0xEE; *len]);
                    want.resize(want.len() + len, 0xEE);
                }
            }
        }
        assert_eq!(&out[..prefix.len()], prefix);
        assert_eq!(&out[prefix.len()..], want.as_slice());
        let mut r = Reader::new(&want);
        for op in &ops {
            match op {
                WriteOp::Name(n) => assert_eq!(&r.name().unwrap(), n),
                WriteOp::Fill(len) => assert_eq!(r.bytes(*len).unwrap().len(), *len),
            }
        }
        assert_eq!(r.remaining(), 0);
    }

    fn canonical_order_is_total_and_consistent(names in gens::vec_of(name(), 2..8)) {
        let mut names = names;
        names.sort();
        // Sorted ⇒ pairwise ordered (antisymmetry + transitivity smoke).
        for w in names.windows(2) {
            assert_ne!(w[0].canonical_cmp(&w[1]), std::cmp::Ordering::Greater);
        }
        // Equal names compare equal regardless of case.
        for n in &names {
            assert_eq!(n.canonical_cmp(&n.to_lowercase()), std::cmp::Ordering::Equal);
        }
    }

    fn canonical_cmp_matches_the_naive_reference(pair in suffix_sharing_names()) {
        let (a, b) = pair;
        let expect = reversed_lowercase_labels(&a).cmp(&reversed_lowercase_labels(&b));
        assert_eq!(a.canonical_cmp(&b), expect, "{a} vs {b}");
        assert_eq!(b.canonical_cmp(&a), expect.reverse(), "{b} vs {a}");
        assert_eq!(a == b, expect == std::cmp::Ordering::Equal);
    }

    fn sort_key_is_the_canonical_order(
        pair in suffix_sharing_names(),
        types in (gens::u16s(..), gens::u16s(..)),
    ) {
        let (a, b) = pair;
        let expect = reversed_lowercase_labels(&a).cmp(&reversed_lowercase_labels(&b));
        let (ka, kb) = (a.sort_key(), b.sort_key());
        assert_eq!(ka.cmp(&kb), expect, "{a} vs {b}");
        assert_eq!(ka.cmp(&kb), a.canonical_cmp(&b), "{a} vs {b}");
        assert_eq!(a == b, ka == kb, "{a} vs {b}");
        // An ancestor's key is a prefix of its descendants' and of nothing
        // else's, and stripping labels walks those prefixes.
        assert_eq!(
            a.is_subdomain_of(&b),
            ka.as_bytes().starts_with(kb.as_bytes()),
            "{a} under {b}"
        );
        let walked: Vec<&[u8]> = ancestor_keys(ka.as_bytes()).collect();
        assert_eq!(walked.len(), a.label_count() + 1, "{a}");
        for (n, key) in walked.iter().enumerate() {
            assert_eq!(*key, a.ancestor(n).unwrap().sort_key().as_bytes(), "{a} up {n}");
        }
        assert_eq!(a.ancestor(a.label_count() + 1), None);
        // The stack form is the owned form.
        a.with_sort_key(|key| assert_eq!(key, ka.as_bytes()));
        // Wire keys, a type after the root octet, are equal exactly when
        // names and types are, and their suffixes are the ancestors' keys.
        let (ta, tb) = (types.0.to_be_bytes(), types.1.to_be_bytes());
        let wa = a.with_wire_key(&ta, <[u8]>::to_vec);
        let wb = b.with_wire_key(&tb, <[u8]>::to_vec);
        assert_eq!(wa == wb, a == b && ta == tb, "({a}, {ta:?}) vs ({b}, {tb:?})");
        let walked: Vec<&[u8]> = wire_suffixes(&wa).collect();
        assert_eq!(walked.len(), a.label_count() + 1, "{a}");
        for (n, key) in walked.iter().enumerate() {
            a.ancestor(n).unwrap().with_wire_key(&ta, |k| assert_eq!(*key, k, "{a} up {n}"));
        }
    }

    fn hash_agrees_with_case_insensitive_eq(pair in suffix_sharing_names()) {
        use std::hash::{Hash, Hasher};
        let hash = |n: &Name| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            n.hash(&mut h);
            h.finish()
        };
        // Long enough to cross the hasher's 64-octet staging buffer.
        let (a, _) = pair;
        let upper = Name::from_labels(a.labels().map(<[u8]>::to_ascii_uppercase)).unwrap();
        assert_eq!(a, upper);
        assert_eq!(hash(&a), hash(&upper), "{a}");
        assert_eq!(hash(&a), hash(&a.to_lowercase()), "{a}");
    }

    fn subdomain_of_concat_holds(a in name(), b in name()) {
        if let Ok(joined) = a.concat(&b) {
            assert!(joined.is_subdomain_of(&b));
        }
    }

    fn message_roundtrip(
        id in gens::u16s(..),
        qname in name(),
        answers in gens::vec_of((name(), gens::u32s(..), rdata()), 0..5),
        authorities in gens::vec_of((name(), gens::u32s(..), rdata()), 0..3),
        additionals in gens::vec_of((name(), gens::u32s(..), rdata()), 0..3),
        rcode in gens::u16s(0..16),
        ad in gens::bools(),
    ) {
        let msg = Message {
            id,
            flags: Flags { qr: true, opcode: Opcode::Query, ad, rd: true, ra: true, ..Default::default() },
            rcode: Rcode::from_u16(rcode),
            questions: vec![Question::new(qname, RrType::A)],
            answers: records(answers),
            authorities: records(authorities),
            additionals: records(additionals),
            edns: Some(Default::default()),
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    fn base32_roundtrip(data in gens::vec_of(gens::u8s(..), 0..64)) {
        assert_eq!(base32::decode(base32::encode(&data)).unwrap(), data);
    }

    fn base64_roundtrip(data in gens::vec_of(gens::u8s(..), 0..96)) {
        assert_eq!(base64::decode(&base64::encode(&data)).unwrap(), data);
    }

    fn base32_encoding_is_canonical(data in gens::vec_of(gens::u8s(..), 0..32)) {
        // Same bytes → same string; different bytes → different string.
        let a = base32::encode(&data);
        let mut data2 = data.clone();
        if let Some(first) = data2.first_mut() {
            *first ^= 1;
            assert_ne!(base32::encode(&data2), a);
        }
        assert_eq!(base32::encode(&data), a);
    }

    fn typebitmap_roundtrip(types in gens::vec_of(gens::u16s(..), 0..24)) {
        let bm: TypeBitmap = types.into_iter().map(RrType).collect();
        let mut buf = Vec::new();
        bm.encode(&mut Writer::plain(&mut buf));
        let mut r = Reader::new(&buf);
        assert_eq!(TypeBitmap::decode(&mut r, buf.len()).unwrap(), bm);
    }

    fn decoder_never_panics_on_garbage(data in gens::vec_of(gens::u8s(..), 0..200)) {
        let _ = Message::decode(&data); // must not panic
        let mut r = Reader::new(&data);
        let _ = r.name();
    }

    fn truncations_never_panic(qname in name()) {
        let msg = Message::query(1, qname, RrType::A).encode();
        for cut in 0..msg.len() {
            let _ = Message::decode(&msg[..cut]); // must not panic
        }
    }

    // ---- Decode robustness: on every hostile input the decoder returns
    // without panicking, and anything it accepts is in normal form.

    /// Every truncation prefix of a real response.
    fn truncations_decode_cleanly(
        qname in name(),
        answers in gens::vec_of((name(), gens::u32s(..), rdata()), 0..4),
    ) {
        let msg = response_with(qname, answers);
        let wire = msg.encode();
        for cut in 0..=wire.len() {
            assert_decode_is_clean(&wire[..cut]);
        }
    }

    /// Seeded bit flips anywhere in the packet — header, names, RDATA,
    /// EDNS.
    fn bit_flips_decode_cleanly(
        qname in name(),
        answers in gens::vec_of((name(), gens::u32s(..), rdata()), 0..4),
        flips in gens::vec_of((gens::u16s(..), gens::u8s(0..8)), 1..5),
    ) {
        assert_decode_is_clean(&flip_bits(&response_with(qname, answers), flips));
    }

    /// Corrupting the header section counts (the length fields that drive
    /// the parse loop) must fail cleanly: overstated counts hit the end of
    /// the packet, understated ones leave trailing bytes — never a panic.
    fn count_field_corruptions_fail_cleanly(
        qname in name(),
        answers in gens::vec_of((name(), gens::u32s(..), rdata()), 0..4),
        field in gens::u16s(2..6),
        value in gens::u16s(..),
    ) {
        let msg = response_with(qname, answers);
        let mut wire = msg.encode();
        let off = 2 * field as usize; // qd/an/ns/ar count at offsets 4/6/8/10
        wire[off] = (value >> 8) as u8;
        wire[off + 1] = value as u8;
        assert_decode_is_clean(&wire);
    }

    /// Corrupting a record's RDLENGTH makes the RDATA reader over- or
    /// under-run its slice. The flip lands on a seeded byte pair in the
    /// record region (past the header and question), which covers
    /// RDLENGTH fields among the other record bytes without needing
    /// offset bookkeeping here.
    fn rdlength_region_corruptions_fail_cleanly(
        qname in name(),
        answers in gens::vec_of((name(), gens::u32s(..), rdata()), 1..4),
        pos in gens::u16s(..),
        value in gens::u16s(..),
    ) {
        let msg = response_with(qname, answers);
        let mut wire = msg.encode();
        let records_start = 12 + msg.questions[0].qname.wire_len() + 4;
        if records_start + 2 <= wire.len() {
            let span = wire.len() - records_start - 1;
            let off = records_start + pos as usize % span;
            wire[off] = (value >> 8) as u8;
            wire[off + 1] = value as u8;
        }
        assert_decode_is_clean(&wire);
    }

    /// The same on lightly mutated and unmutated packets, which decode
    /// more often than the heavier corruptions above.
    fn accepted_messages_reencode_equal(
        qname in name(),
        answers in gens::vec_of((name(), gens::u32s(..), rdata()), 0..4),
        flips in gens::vec_of((gens::u16s(..), gens::u8s(0..8)), 0..3),
    ) {
        assert_decode_is_clean(&flip_bits(&response_with(qname, answers), flips));
    }

    /// EDE options (RFC 8914) in the OPT record survive the round-trip
    /// verbatim — arbitrary codes, extra-text payloads, and stacked
    /// options.
    fn ede_options_roundtrip_verbatim(
        qname in name(),
        codes in gens::vec_of(gens::u16s(..), 1..4),
        text in gens::vec_of(gens::map(gens::char_range('a', 'z'), |c| c as u8), 0..32),
    ) {
        use dns_wire::edns::{EdeCode, Edns};
        let mut msg = response_with(qname, vec![]);
        msg.rcode = Rcode::ServFail;
        let mut edns = Edns::with_do();
        let text = String::from_utf8(text).unwrap();
        for (i, code) in codes.iter().enumerate() {
            // First option carries the text, the rest are bare codes.
            edns.push_ede(EdeCode(*code), if i == 0 { text.as_str() } else { "" });
        }
        msg.edns = Some(edns.clone());
        let wire = msg.encode();
        assert_decode_is_clean(&wire);
        let decoded = Message::decode(&wire).unwrap();
        let owned = decoded.edns.as_ref().expect("EDNS survives");
        assert_eq!(owned.options, edns.options, "options survive verbatim");
        assert_eq!(owned.ede(), Some((&EdeCode(codes[0]), text.as_str())));
    }
}

fn records(parts: Vec<(Name, u32, RData)>) -> Vec<Record> {
    parts
        .into_iter()
        .map(|(name, ttl, rdata)| Record {
            name,
            class: Class::IN,
            ttl,
            rdata,
        })
        .collect()
}

/// A realistic response for robustness inputs: one question, generated
/// answers, EDNS present.
fn response_with(qname: Name, answers: Vec<(Name, u32, RData)>) -> Message {
    let q = Message::query(0x1dea, qname, RrType::A);
    let mut resp = Message::response_to(&q);
    resp.flags.aa = true;
    resp.answers = records(answers);
    resp
}

/// `msg` encoded, then each `(position, bit)` flipped; positions wrap.
fn flip_bits(msg: &Message, flips: Vec<(u16, u8)>) -> Vec<u8> {
    let mut wire = msg.encode();
    for (pos, bit) in flips {
        let idx = pos as usize % wire.len();
        wire[idx] ^= 1u8 << bit;
    }
    wire
}

/// The decoder's contract on hostile bytes: it returns without
/// panicking, and whatever it accepts is in normal form — re-encoding
/// and decoding again is the identity.
fn assert_decode_is_clean(wire: &[u8]) {
    if let Ok(decoded) = Message::decode(wire) {
        assert_eq!(
            Message::decode(&decoded.encode()).as_ref(),
            Ok(&decoded),
            "decode ∘ encode must be the identity on decoded messages"
        );
    }
}

/// The two EDE shapes the resolver actually emits, pinned end to end:
/// code 27 (Unsupported NSEC3 Iterations) for the RFC 9276 clamp and
/// code 0 (Other) with explanatory text for work-budget aborts.
#[test]
fn resolver_facing_ede_codes_roundtrip() {
    use dns_wire::edns::{EdeCode, Edns};
    for (code, text) in [
        (EdeCode::UNSUPPORTED_NSEC3_ITERATIONS, ""),
        (EdeCode::OTHER, "work budget exceeded"),
    ] {
        let mut msg = response_with(Name::parse("atk0.example.").unwrap(), vec![]);
        msg.rcode = Rcode::ServFail;
        let mut edns = Edns::with_do();
        edns.push_ede(code, text);
        msg.edns = Some(edns);
        let wire = msg.encode();
        assert_decode_is_clean(&wire);
        let decoded = Message::decode(&wire).unwrap();
        assert_eq!(decoded.edns.as_ref().unwrap().ede(), Some((&code, text)));
        assert!(!code.name().is_empty());
    }
}
