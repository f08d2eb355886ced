//! A miniature signed DNS hierarchy on the simulated network — the shared
//! lab that resolver tests, the scanner, the `rfc9276-in-the-wild` testbed
//! and the benchmarks all build on.
//!
//! [`LabBuilder`] takes zone specifications, wires them into a root → TLD →
//! child delegation tree with automatic SOA/NS/glue/DS records, signs
//! everything (optionally with injected faults), stands up one
//! authoritative server per zone, and hands back the [`Lab`] with root
//! hints and a trust anchor ready for [`crate::resolver::Resolver`]s.

use std::collections::HashMap;
use std::net::IpAddr;
use std::rc::Rc;

use dns_auth::AuthServer;
use dns_crypto::hash::KeyedState;
use dns_crypto::sha256::sha256;
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_zone::signer::{sign_zone, Denial, SignedZone, SignerConfig, SigningKey};
use dns_zone::Zone;
use netsim::{AddrAlloc, Network};

use crate::resolver::TrustAnchor;

/// Post-signing mutation hook (fault injection).
pub(crate) type PostSign = Box<dyn FnOnce(&mut SignedZone)>;

/// Specification of one zone in the lab.
pub struct ZoneSpec {
    /// The zone contents (SOA/NS/glue added automatically if missing).
    pub zone: Zone,
    /// Denial mechanism and parameters.
    pub denial: Denial,
    /// Sign with an already-expired validity window.
    pub expired: bool,
    /// Parent publishes no DS (insecure delegation) despite signing.
    pub unsigned_delegation: bool,
    /// Do not sign at all: no DNSKEY, no denial chain (implies an
    /// unsigned delegation).
    pub unsigned: bool,
    /// Parent publishes a DS whose digest is corrupted (one byte
    /// flipped): the delegation looks secure but the child's DNSKEYs can
    /// never match — the broken-DS chain-of-trust scenario.
    pub broken_ds: bool,
    /// Delegated but not stood up: NS+glue exist in the parent, yet no
    /// server answers at the glue addresses (a lame delegation).
    pub lame: bool,
    /// Arbitrary post-signing mutation (fault injection).
    pub post_sign: Option<PostSign>,
    /// Extra DNSKEY RDATAs published verbatim ahead of the real keys
    /// (keytag-collision workloads; see `dns_zone::signer::decoy_dnskeys`).
    pub extra_dnskeys: Vec<RData>,
}

impl ZoneSpec {
    /// A plainly-signed zone with the given denial config.
    pub fn new(zone: Zone, denial: Denial) -> Self {
        ZoneSpec {
            zone,
            denial,
            expired: false,
            unsigned_delegation: false,
            unsigned: false,
            broken_ds: false,
            lame: false,
            post_sign: None,
            extra_dnskeys: Vec::new(),
        }
    }

    /// An entirely unsigned zone.
    pub fn unsigned(zone: Zone) -> Self {
        ZoneSpec {
            unsigned: true,
            unsigned_delegation: true,
            ..Self::new(zone, Denial::Nsec)
        }
    }
}

/// The built lab.
pub struct Lab {
    /// The simulated network.
    pub net: Rc<Network>,
    /// Root server addresses for resolver configuration.
    pub root_hints: Vec<IpAddr>,
    /// Trust anchor over the root KSK.
    pub anchor: TrustAnchor,
    /// Per-zone server addresses `(v4, v6)`.
    pub servers: HashMap<Name, (IpAddr, IpAddr), KeyedState>,
    /// Per-zone authoritative server handles.
    pub auths: HashMap<Name, Rc<AuthServer>, KeyedState>,
    /// The signed zones, by apex — each the very copy its [`AuthServer`]
    /// answers from.
    pub zones: HashMap<Name, Rc<SignedZone>, KeyedState>,
    /// Address allocator for clients/resolvers joining the lab.
    pub alloc: AddrAlloc,
    /// The `now` timestamp the lab was signed at.
    pub now: u32,
}

/// Builder for [`Lab`].
pub struct LabBuilder {
    now: u32,
    seed: u64,
    specs: Vec<ZoneSpec>,
}

impl LabBuilder {
    /// Start a lab signed at `now` (epoch seconds).
    pub fn new(now: u32) -> Self {
        LabBuilder {
            now,
            seed: 42,
            specs: Vec::new(),
        }
    }

    /// Network RNG seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Add a zone (the root is added automatically if absent).
    pub fn zone(mut self, spec: ZoneSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Convenience: a leaf zone holding one `www` A record, with the given
    /// denial config.
    pub fn simple_zone(self, apex: &Name, denial: Denial) -> Self {
        self.zone(ZoneSpec::new(simple_zone_contents(apex), denial))
    }

    /// Wire, sign, and register everything.
    pub fn build(self) -> Lab {
        let seed = self.seed;
        self.sign().into_lab(seed)
    }

    /// Wire and sign everything, allocate the server addresses and derive
    /// the trust anchor, with no network: [`SignedLab::deploy`] stands
    /// the result up as many times as wanted.
    pub fn sign(mut self) -> SignedLab {
        let mut alloc = AddrAlloc::new();
        let now = self.now;

        // Ensure a root spec exists.
        if !self.specs.iter().any(|s| s.zone.apex().is_root()) {
            self.specs.insert(
                0,
                ZoneSpec::new(Zone::new(Name::root()), Denial::nsec3_rfc9276()),
            );
        }

        // Allocate servers and index specs by apex (the first spec wins a
        // repeated apex).
        let n = self.specs.len();
        let mut addrs = HashMap::with_capacity_and_hasher(n, KeyedState::default());
        let mut by_apex = HashMap::with_capacity_and_hasher(n, KeyedState::default());
        for (i, spec) in self.specs.iter().enumerate() {
            addrs.insert(spec.zone.apex().clone(), (alloc.v4(), alloc.v6()));
            by_apex.entry(spec.zone.apex().clone()).or_insert(i);
        }

        // Add SOA/NS/glue to every zone, then delegations into parents.
        for spec in &mut self.specs {
            let apex = spec.zone.apex().clone();
            let (v4, v6) = addrs[&apex];
            ensure_infrastructure(&mut spec.zone, &apex, v4, v6);
        }
        // Delegations: each non-root zone gets NS+glue(+DS) in its parent,
        // the nearest enclosing apex among the specs.
        for i in 0..self.specs.len() {
            let spec = &self.specs[i];
            let apex = spec.zone.apex().clone();
            if apex.is_root() {
                continue;
            }
            let parent = apex
                .ancestors()
                .find_map(|a| by_apex.get(&a).copied())
                .expect("root exists");
            let (IpAddr::V4(a4), IpAddr::V6(a6)) = addrs[&apex] else {
                unreachable!("alloc order");
            };
            let ns_name = ns1_of(&apex);
            let ds = (!spec.unsigned_delegation && !spec.unsigned).then(|| {
                let mut ds = ds_record(&apex, &SigningKey::ksk(&apex));
                if spec.broken_ds {
                    // Flip one digest byte: the DS RRset still validates
                    // under the parent's signatures (it is what the
                    // parent serves), but no child DNSKEY can match it.
                    if let RData::Ds { digest, .. } = &mut ds.rdata {
                        digest[0] ^= 0xFF;
                    }
                }
                ds
            });
            let delegation = [
                Record::new(apex, 3600, RData::Ns(ns_name.clone())),
                Record::new(ns_name.clone(), 3600, RData::A(a4)),
                Record::new(ns_name, 3600, RData::Aaaa(a6)),
            ];
            let parent = &mut self.specs[parent].zone;
            for record in delegation.into_iter().chain(ds) {
                parent.add(record).expect("a parent encloses its child");
            }
        }

        // Sign (parents before children is irrelevant for signing itself).
        let mut zones = Vec::with_capacity(self.specs.len());
        for mut spec in self.specs {
            let apex = spec.zone.apex().clone();
            let mut signed = if spec.unsigned {
                spec.zone.shrink_to_fit();
                SignedZone {
                    zone: spec.zone,
                    denial: spec.denial,
                    keys: Vec::new(),
                    nsec3_index: Vec::new(),
                }
            } else {
                let mut cfg = SignerConfig {
                    denial: spec.denial,
                    extra_dnskeys: spec.extra_dnskeys,
                    ..SignerConfig::standard(&apex, now)
                };
                if spec.expired {
                    cfg.inception = now.saturating_sub(60 * 86_400);
                    cfg.expiration = now.saturating_sub(30 * 86_400);
                }
                sign_zone(spec.zone, &cfg).expect("lab zone signs")
            };
            if let Some(post) = spec.post_sign {
                post(&mut signed);
            }
            zones.push((apex, Rc::new(signed), spec.lame));
        }

        // Trust anchor over the root KSK.
        let root_ksk = SigningKey::ksk(&Name::root());
        let anchor = TrustAnchor {
            zone: Name::root(),
            key_tag: root_ksk.key_tag(),
            digest: {
                let mut buf = Name::root().to_canonical_wire();
                buf.extend_from_slice(&root_ksk.dnskey_rdata().canonical_bytes());
                sha256(&buf).to_vec()
            },
        };
        let root_hints = vec![addrs[&Name::root()].0, addrs[&Name::root()].1];
        SignedLab {
            zones,
            root_hints,
            anchor,
            servers: addrs,
            alloc,
            now,
        }
    }
}

/// A wired, signed zone set with its addresses and trust anchor, and no
/// network: signed content never depends on a lab's seed.
#[derive(Clone)]
pub struct SignedLab {
    /// `(apex, zone, lame)` in spec order: the order servers register in.
    zones: Vec<(Name, Rc<SignedZone>, bool)>,
    root_hints: Vec<IpAddr>,
    anchor: TrustAnchor,
    servers: HashMap<Name, (IpAddr, IpAddr), KeyedState>,
    alloc: AddrAlloc,
    now: u32,
}

impl SignedLab {
    /// A fresh [`Network`] seeded with `seed`, with one fresh
    /// [`AuthServer`] per zone over the shared signed zones.
    pub fn deploy(&self, seed: u64) -> Lab {
        self.clone().into_lab(seed)
    }

    fn into_lab(self, seed: u64) -> Lab {
        let net = Rc::new(Network::new(seed));
        let n = self.zones.len();
        let mut zones = HashMap::with_capacity_and_hasher(n, KeyedState::default());
        let mut auths = HashMap::with_capacity_and_hasher(n, KeyedState::default());
        for (apex, signed, lame) in self.zones {
            let server = Rc::new(AuthServer::new());
            server.add_zone(signed.clone());
            if !lame {
                let (v4, v6) = self.servers[&apex];
                net.register(v4, server.clone());
                net.register(v6, server.clone());
            }
            zones.insert(apex.clone(), signed);
            auths.insert(apex, server);
        }
        Lab {
            net,
            root_hints: self.root_hints,
            anchor: self.anchor,
            servers: self.servers,
            auths,
            zones,
            alloc: self.alloc,
            now: self.now,
        }
    }
}

/// The name every lab zone's primary server goes by: `ns1.<apex>`.
fn ns1_of(apex: &Name) -> Name {
    apex.prepend(b"ns1").expect("lab apexes leave room for ns1")
}

/// Give a zone SOA, apex NS and glue if it lacks them.
fn ensure_infrastructure(zone: &mut Zone, apex: &Name, v4: IpAddr, v6: IpAddr) {
    use dns_wire::rrtype::RrType;
    let ns_name = ns1_of(apex);
    if zone.rrset(apex, RrType::SOA).is_none() {
        zone.add(Record::new(
            apex.clone(),
            3600,
            RData::Soa {
                mname: ns_name.clone(),
                rname: apex
                    .prepend(b"hostmaster")
                    .expect("lab apexes leave room for hostmaster"),
                serial: 2024030501,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            },
        ))
        .unwrap();
    }
    if zone.rrset(apex, RrType::NS).is_none() {
        zone.add(Record::new(apex.clone(), 3600, RData::Ns(ns_name.clone())))
            .unwrap();
        if let (IpAddr::V4(a4), IpAddr::V6(a6)) = (v4, v6) {
            zone.add(Record::new(ns_name.clone(), 3600, RData::A(a4)))
                .unwrap();
            zone.add(Record::new(ns_name, 3600, RData::Aaaa(a6)))
                .unwrap();
        }
    }
}

/// The DS record the parent publishes for a child's KSK.
pub fn ds_record(child_apex: &Name, ksk: &SigningKey) -> Record {
    let rdata = ksk.dnskey_rdata();
    let mut buf = child_apex.to_canonical_wire();
    buf.extend_from_slice(&rdata.canonical_bytes());
    Record::new(
        child_apex.clone(),
        3600,
        RData::Ds {
            key_tag: ksk.key_tag(),
            algorithm: ksk.algorithm,
            digest_type: 2,
            digest: sha256(&buf).to_vec(),
        },
    )
}

/// Leaf-zone contents used by [`LabBuilder::simple_zone`]: a `www` A record
/// and an apex A record.
pub fn simple_zone_contents(apex: &Name) -> Zone {
    let mut z = Zone::new(apex.clone());
    let www = Name::parse("www").unwrap().concat(apex).unwrap();
    z.add(Record::new(
        apex.clone(),
        300,
        RData::A("192.0.2.80".parse().unwrap()),
    ))
    .unwrap();
    z.add(Record::new(
        www,
        300,
        RData::A("192.0.2.81".parse().unwrap()),
    ))
    .unwrap();
    z
}
