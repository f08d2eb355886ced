//! Property-based tests for the zone layer: NSEC3 chain invariants,
//! signing/verification round trips, and denial-proof soundness on
//! arbitrary zones and query names.

use sim_check::{gens, props, Gen};

use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::RrType;
use dns_zone::denial::{nodata_proof, nxdomain_proof};
use dns_zone::nsec3hash::{nsec3_hash, nsec3_hash_reference, Nsec3HashCache, Nsec3Params};
use dns_zone::signer::{sign_zone, verify_rrsig, Denial, SignedZone, SignerConfig};
use dns_zone::Zone;

const NOW: u32 = 1_710_000_000;

fn label() -> impl Gen<String> {
    gens::string_of(gens::char_range('a', 'z'), 1..=10)
}

/// Names under the fixed apex `p.example.`.
fn in_zone_name() -> impl Gen<Name> {
    gens::filter_map(
        gens::vec_of(label(), 1..=3),
        |labels| {
            let rel = labels.join(".");
            Name::parse(&format!("{rel}.p.example.")).ok()
        },
        "too long",
    )
}

/// The iteration counts the issue's differential suite pins: the RFC 9276
/// recommendation (0), trivial chains, the paper's real-world tail (150,
/// 500), and the CVE-2023-50868 stress point (2500).
fn iterations_choice() -> impl Gen<u16> {
    gens::map(gens::usizes(0..=5), |i| [0u16, 1, 2, 150, 500, 2500][i])
}

fn params() -> impl Gen<Nsec3Params> {
    gens::map(
        (gens::u16s(0..30), gens::vec_of(gens::u8s(..), 0..12)),
        |(iterations, salt)| Nsec3Params::new(iterations, salt),
    )
}

fn build_signed(names: &[Name], params: Nsec3Params, opt_out: bool) -> SignedZone {
    let apex = Name::parse("p.example.").unwrap();
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(
        apex.clone(),
        3600,
        RData::Soa {
            mname: Name::parse("ns1.p.example.").unwrap(),
            rname: Name::parse("host.p.example.").unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        },
    ))
    .unwrap();
    for n in names {
        let _ = zone.add(Record::new(
            n.clone(),
            300,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
    }
    sign_zone(
        &zone,
        &SignerConfig {
            denial: Denial::Nsec3 { params, opt_out },
            ..SignerConfig::standard(&apex, NOW)
        },
    )
    .unwrap()
}

props! {
    #![cases = 64]

    /// The NSEC3 chain partitions hash space: every possible hash is
    /// either an owner hash or covered by exactly one interval.
    fn nsec3_chain_partitions_hash_space(
        names in gens::vec_of(in_zone_name(), 1..10),
        probe in in_zone_name(),
        p in params(),
    ) {
        let signed = build_signed(&names, p.clone(), false);
        let h = nsec3_hash(&probe, &p).digest;
        let owners: Vec<[u8; 20]> = signed.nsec3_index.iter().map(|(x, _)| *x).collect();
        let is_owner = owners.contains(&h);
        // Count intervals covering h.
        let n = owners.len();
        let mut covering = 0;
        for i in 0..n {
            let (a, b) = (owners[i], owners[(i + 1) % n]);
            let covered = if a < b { a < h && h < b } else { h > a || h < b };
            if covered {
                covering += 1;
            }
        }
        if is_owner {
            assert_eq!(covering, 0, "owner hash must not also be covered");
        } else if n == 1 {
            // Single-record chains cover everything except the owner.
            assert_eq!(covering, 1);
        } else {
            assert_eq!(covering, 1, "exactly one covering interval");
        }
    }

    /// `Zone::node` is one descent standing in for several: at every
    /// owner of a signed zone it hands out exactly the records a scan of
    /// the whole zone finds for each type, with and without signatures,
    /// and the by-name lookups built on it agree.
    fn node_agrees_with_a_scan_of_the_zone(
        names in gens::vec_of(in_zone_name(), 1..8),
        absent in in_zone_name(),
        p in params(),
        opt_out in gens::bools(),
    ) {
        let zone = build_signed(&names, p, opt_out).zone;
        let covers = |r: &Record, t: RrType| {
            matches!(&r.rdata, RData::Rrsig { type_covered, .. } if *type_covered == t)
        };
        for owner in zone.names() {
            let node = zone.node(owner).expect("a stored owner has a node");
            let here: Vec<&Record> = zone.iter().filter(|r| r.name == *owner).collect();
            let mut types = zone.types_at(owner);
            types.push(RrType::TXT); // a type no generated zone holds
            for t in types {
                let plain: Vec<&Record> =
                    here.iter().copied().filter(|r| r.rrtype() == t).collect();
                let signed: Vec<&Record> = plain
                    .iter()
                    .copied()
                    .chain(here.iter().copied().filter(|r| covers(r, t)))
                    .collect();
                let found = node.rrset(t).map(|rs| rs.iter().collect::<Vec<_>>());
                assert_eq!(found, (!plain.is_empty()).then_some(plain.clone()), "{owner} {t:?}");
                assert_eq!(node.rrset(t), zone.rrset(owner, t));
                for (with_sigs, expect) in [(false, &plain), (true, &signed)] {
                    assert_eq!(&node.with_sigs(t, with_sigs).collect::<Vec<_>>(), expect);
                    assert_eq!(
                        &zone.rrset_with_sigs(owner, t, with_sigs).collect::<Vec<_>>(),
                        expect
                    );
                }
            }
        }
        if zone.node(&absent).is_none() {
            assert!(zone.rrset(&absent, RrType::A).is_none());
            assert_eq!(zone.rrset_with_sigs(&absent, RrType::A, true).count(), 0);
        }
    }

    /// Every RRSIG the signer produces verifies against the matching key,
    /// regardless of zone contents.
    fn all_signatures_verify(
        names in gens::vec_of(in_zone_name(), 1..8),
        p in params(),
    ) {
        let signed = build_signed(&names, p, false);
        let owners: Vec<Name> = signed.zone.names().cloned().collect();
        for owner in owners {
            let sigs = match signed.zone.rrset(&owner, RrType::RRSIG) {
                Some(s) => s.to_vec(),
                None => continue,
            };
            for sig in sigs {
                let (covered, tag) = match &sig.rdata {
                    RData::Rrsig { type_covered, key_tag, .. } => (*type_covered, *key_tag),
                    _ => unreachable!(),
                };
                let rrset = signed.zone.rrset(&owner, covered).unwrap().to_vec();
                let key = signed
                    .keys
                    .iter()
                    .find(|k| k.key_tag() == tag)
                    .expect("signing key present");
                assert!(
                    verify_rrsig(&sig.rdata, &owner, &rrset, key.pair.public_key()),
                    "RRSIG over {} {} must verify",
                    owner,
                    covered
                );
            }
        }
    }

    /// For any name not in the zone, the NXDOMAIN proof synthesizes and
    /// passes resolver-side verification; for any name in the zone, the
    /// NODATA proof for an absent type does.
    fn denial_proofs_always_verify(
        names in gens::vec_of(in_zone_name(), 1..8),
        probe in in_zone_name(),
        p in params(),
        opt_out in gens::bools(),
    ) {
        let signed = build_signed(&names, p.clone(), opt_out);
        let apex = Name::parse("p.example.").unwrap();
        if probe.with_sort_key(|key| signed.zone.name_exists_by_key(key)) {
            if signed.zone.node(&probe).is_some() {
                let proof = nodata_proof(&signed, &probe).unwrap();
                assert!(!proof.records.is_empty());
            }
        } else {
            let proof = nxdomain_proof(&signed, &probe).unwrap();
            let nsec3s: Vec<&Record> = proof
                .records
                .iter()
            .copied()
                .filter(|r| r.rrtype() == RrType::NSEC3)
                .collect();
            assert!(!nsec3s.is_empty());
            // Resolver-side check must accept it.
            use dns_resolver::cost::CostMeter;
            use dns_resolver::validator::{parse_nsec3_set, verify_nxdomain};
            let (vp, views) = parse_nsec3_set(&nsec3s).unwrap();
            assert_eq!(&vp, &p);
            let meter = CostMeter::new();
            assert!(
                verify_nxdomain(&probe, &apex, &vp, &views, &meter).is_ok(),
                "NXDOMAIN proof for {} must verify",
                probe
            );
            // Cost is bounded by (labels + 2) chains of (iterations + 1)
            // hashes... loosely: it is nonzero and scales with params.
            assert!(meter.sha1_compressions() >= (p.iterations as u64 + 1) * 3);
        }
    }

    /// Any signed zone survives a print → parse round trip through the
    /// master-file format, record for record.
    fn zonefile_roundtrip_for_signed_zones(
        names in gens::vec_of(in_zone_name(), 1..8),
        p in params(),
        opt_out in gens::bools(),
    ) {
        use dns_zone::zonefile::{parse_zone, print_zone};
        let signed = build_signed(&names, p, opt_out);
        let text = print_zone(&signed.zone);
        let reparsed = parse_zone(&text, &Name::root()).expect("printed zone parses");
        assert_eq!(reparsed.len(), signed.zone.len());
        let a: Vec<String> = signed.zone.iter().map(|r| r.to_string()).collect();
        let b: Vec<String> = reparsed.iter().map(|r| r.to_string()).collect();
        assert_eq!(a, b);
    }

    /// Hashing is deterministic and 20 bytes, for any params.
    fn nsec3_hash_shape(n in in_zone_name(), p in params()) {
        let a = nsec3_hash(&n, &p);
        let b = nsec3_hash(&n, &p);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.compressions, b.compressions);
        assert!(a.compressions > p.iterations as u64);
    }

    /// The single-block fast engine is byte-identical to the streaming
    /// reference — digest *and* compressions — for any salt length in
    /// 0..=255 and the iteration counts the paper's cost model cares
    /// about. The compressions half pins the CVE-2023-50868 accounting:
    /// a faster engine must not change what work gets *counted*.
    fn fast_engine_is_byte_identical_to_reference(
        n in in_zone_name(),
        salt in gens::vec_of(gens::u8s(..), 0..=255),
        it in iterations_choice(),
    ) {
        let p = Nsec3Params::new(it, salt);
        let fast = nsec3_hash(&n, &p);
        let reference = nsec3_hash_reference(&n, &p);
        assert_eq!(fast.digest, reference.digest, "digest drift at salt_len={} it={}", p.salt.len(), it);
        assert_eq!(fast.compressions, reference.compressions, "cost-model drift at salt_len={} it={}", p.salt.len(), it);
    }

    /// The single/double-block boundary: salt length 35 is the largest
    /// where each iteration input (20 + salt ≤ 55 bytes) pads into one
    /// 64-byte block; 36 is the first that needs two. Both sides must
    /// agree with the reference for arbitrary iteration counts.
    fn single_block_boundary_is_exact(
        n in in_zone_name(),
        it in gens::u16s(0..=200),
        fill in gens::u8s(..),
    ) {
        for salt_len in [34usize, 35, 36, 37] {
            let p = Nsec3Params::new(it, vec![fill; salt_len]);
            let fast = nsec3_hash(&n, &p);
            let reference = nsec3_hash_reference(&n, &p);
            assert_eq!(fast.digest, reference.digest, "salt_len={salt_len} it={it}");
            assert_eq!(fast.compressions, reference.compressions, "salt_len={salt_len} it={it}");
            // Per-iteration block count is visible in the total: each
            // iteration adds one block at salt ≤ 35 and two at 36+.
            let per_iter = if salt_len <= 35 { 1 } else { 2 };
            let base = nsec3_hash(&n, &Nsec3Params::new(0, vec![fill; salt_len]));
            assert_eq!(
                fast.compressions,
                base.compressions + u64::from(it) * per_iter,
                "accounting must be exactly linear in iterations (salt_len={salt_len})"
            );
        }
    }

    /// denial_names is stable under opt-out: opting out only removes
    /// names, never adds.
    fn opt_out_shrinks_chain(names in gens::vec_of(in_zone_name(), 1..8)) {
        let apex = Name::parse("p.example.").unwrap();
        let mut zone = Zone::new(apex.clone());
        zone.add(Record::new(
            apex.clone(),
            3600,
            RData::Soa {
                mname: Name::parse("ns1.p.example.").unwrap(),
                rname: Name::parse("h.p.example.").unwrap(),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            },
        ))
        .unwrap();
        for (i, n) in names.iter().enumerate() {
            if i % 2 == 0 {
                let _ = zone.add(Record::new(n.clone(), 300, RData::A("192.0.2.1".parse().unwrap())));
            } else {
                // insecure delegation
                let _ = zone.add(Record::new(n.clone(), 300, RData::Ns(Name::parse("ns.other.").unwrap())));
            }
        }
        let full = zone.denial_names(false);
        let thin = zone.denial_names(true);
        assert!(thin.len() <= full.len());
        for n in &thin {
            assert!(full.contains(n));
        }
    }

    /// The cache returns exactly the uncached answers — digest *and*
    /// `compressions` — no matter which subset of the names is already
    /// cached, duplicates included, and a second pass replays identical
    /// results from cache.
    fn cache_matches_uncached_for_any_warm_subset(
        names in gens::vec_of(in_zone_name(), 1..=16),
        warm in gens::usizes(..),
        p in params(),
    ) {
        let cache = Nsec3HashCache::with_capacity_and_seed(64, 9);
        for (i, n) in names.iter().enumerate() {
            if warm & (1 << (i % 16)) != 0 {
                cache.lookup(n, &p);
            }
        }
        for pass in ["first", "cached replay"] {
            for n in &names {
                assert_eq!(cache.lookup(n, &p), nsec3_hash(n, &p), "{n} ({pass})");
            }
        }
    }
}

/// Exhaustive sweep of every legal salt length (the wire field is one
/// byte, so 0..=255) at cheap iteration counts, with the full issue
/// iteration set at the 35→36 single/double-block boundary. Deterministic
/// on purpose: the props above sample this space, this test *covers* it.
#[test]
fn fast_engine_matches_reference_for_every_salt_length() {
    let n = Name::parse("sweep.p.example.").unwrap();
    for salt_len in 0..=255usize {
        let salt: Vec<u8> = (0..salt_len).map(|i| (i * 7 + salt_len) as u8).collect();
        let iteration_set: &[u16] = if (35..=36).contains(&salt_len) {
            &[0, 1, 2, 150, 500, 2500]
        } else {
            &[0, 2]
        };
        for &it in iteration_set {
            let p = Nsec3Params::new(it, salt.clone());
            let fast = nsec3_hash(&n, &p);
            let reference = nsec3_hash_reference(&n, &p);
            assert_eq!(fast.digest, reference.digest, "salt_len={salt_len} it={it}");
            assert_eq!(
                fast.compressions, reference.compressions,
                "salt_len={salt_len} it={it}"
            );
        }
    }
}

/// The full RFC 5155 Appendix A vector set, fast engine vs streaming
/// reference vs the published base32 digests — all three must agree.
#[test]
fn fast_engine_matches_reference_on_rfc5155_appendix_a() {
    let p = Nsec3Params::new(12, vec![0xaa, 0xbb, 0xcc, 0xdd]);
    let vectors = [
        ("example.", "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom"),
        ("a.example.", "35mthgpgcu1qg68fab165klnsnk3dpvl"),
        ("ai.example.", "gjeqe526plbf1g8mklp59enfd789njgi"),
        ("ns1.example.", "2t7b4g4vsa5smi47k61mv5bv1a22bojr"),
        ("ns2.example.", "q04jkcevqvmu85r014c7dkba38o0ji5r"),
        ("w.example.", "k8udemvp1j2f7eg6jebps17vp3n8i58h"),
        ("*.w.example.", "r53bq7cc2uvmubfu5ocmm6pers9tk9en"),
        ("x.w.example.", "b4um86eghhds6nea196smvmlo4ors995"),
        ("y.w.example.", "ji6neoaepv8b5o6k4ev33abha8ht9fgc"),
        ("x.y.w.example.", "2vptu5timamqttgl4luu9kg21e0aor3s"),
        ("xx.example.", "t644ebqk9bibcna874givr6joj62mlhv"),
    ];
    for (name_text, expected_b32) in vectors {
        let n = Name::parse(name_text).unwrap();
        let fast = nsec3_hash(&n, &p);
        let reference = nsec3_hash_reference(&n, &p);
        assert_eq!(fast, reference, "engines disagree on {name_text}");
        assert_eq!(
            dns_wire::base32::encode(&fast.digest),
            expected_b32,
            "published vector for {name_text}"
        );
    }
}
