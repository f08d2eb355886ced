//! An authoritative DNS server engine over the simulated network.
//!
//! [`AuthServer`] serves any number of signed zones, implements the
//! RFC 4035/5155 answer algorithm (positive answers, referrals, NODATA,
//! NXDOMAIN with NSEC/NSEC3 proofs, wildcard synthesis), and keeps the
//! query log the paper's methodology uses to attribute forwarders
//! ("We enable server-side logging to track source IP addresses
//! interacting with our name server", §4.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::IpAddr;
use std::rc::Rc;

use dns_wire::edns::Edns;
use dns_wire::message::{unframe_tcp, Flags, Message, MessageHead, Question};
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::{Class, Rcode, RrType};
use dns_zone::denial::{self, DenialProof};
use dns_zone::signer::SignedZone;
use dns_zone::ZoneError;
use netsim::{Network, Node};

/// One logged query, as the paper's server-side logging captures it.
#[derive(Clone, Debug)]
pub struct QueryLogEntry {
    /// Source address the query arrived from (the forwarder's egress, not
    /// necessarily the original client).
    pub src: IpAddr,
    /// Queried name.
    pub qname: Name,
    /// Queried type.
    pub qtype: RrType,
    /// Whether the query had the DO bit.
    pub dnssec_ok: bool,
}

/// The EDNS facet of a query that can change the bytes of the answer.
/// Payload size is deliberately absent: it only bounds delivery (the
/// truncation check), never the answer itself.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum EdnsState {
    /// No OPT record at all: plain DNS, no DNSSEC records in the answer.
    Absent,
    /// EDNS present, DO clear.
    Plain,
    /// EDNS present, DO set: the answer carries RRSIGs and denial proofs.
    Do,
}

/// Key identifying one cacheable answer template: everything about a
/// query that the encoded response bytes depend on, except the ID, the
/// opcode/RD flag bits, and the literal (case-preserving) question bytes
/// — those three are patched into the template per query.
type TemplateKey = (Name, RrType, Class, EdnsState);

/// Bound on distinct templates kept per server. When full the whole map
/// is dropped (deterministic, unlike per-entry LRU under HashMap order).
const TEMPLATE_CACHE_CAP: usize = 1024;

/// An authoritative name server holding one or more signed zones.
pub struct AuthServer {
    zones: RefCell<HashMap<Name, Rc<SignedZone>>>,
    log: RefCell<Vec<QueryLogEntry>>,
    log_cap: usize,
    /// Apexes whose zones may be transferred (the CZDS/open-AXFR TLDs the
    /// paper counts: 1,105 of the 1,302 NSEC3-enabled TLDs share zone
    /// data).
    axfr_allowed: RefCell<std::collections::HashSet<Name>>,
    /// Encoded full responses keyed by the answer-determining parts of a
    /// query; served with ID/flags/question patched in place. Invalidated
    /// whenever zone data or transfer policy changes.
    templates: RefCell<HashMap<TemplateKey, Vec<u8>>>,
}

impl AuthServer {
    /// An empty server; add zones with [`AuthServer::add_zone`].
    pub fn new() -> Self {
        AuthServer {
            zones: RefCell::new(HashMap::new()),
            log: RefCell::new(Vec::new()),
            log_cap: 100_000,
            axfr_allowed: RefCell::new(std::collections::HashSet::new()),
            templates: RefCell::new(HashMap::new()),
        }
    }

    /// Permit zone transfers (`AXFR`) for `apex`.
    pub fn allow_axfr(&self, apex: &Name) {
        self.axfr_allowed.borrow_mut().insert(apex.clone());
        self.templates.borrow_mut().clear();
    }

    /// Install (or replace) a zone. A caller that keeps the zone as well
    /// (the lab does, for inspection) passes an `Rc` and shares the one
    /// copy with the server.
    pub fn add_zone(&self, zone: impl Into<Rc<SignedZone>>) {
        let zone = zone.into();
        self.zones
            .borrow_mut()
            .insert(zone.zone.apex().clone(), zone);
        self.templates.borrow_mut().clear();
    }

    /// The installed zone with exactly this apex — the shared copy, not a
    /// clone of its records.
    pub fn zone(&self, apex: &Name) -> Option<Rc<SignedZone>> {
        self.zones.borrow().get(apex).cloned()
    }

    /// Remove a zone by apex.
    pub fn remove_zone(&self, apex: &Name) {
        self.zones.borrow_mut().remove(apex);
        self.templates.borrow_mut().clear();
    }

    fn store_template(&self, key: TemplateKey, wire: &[u8]) {
        let mut templates = self.templates.borrow_mut();
        if templates.len() >= TEMPLATE_CACHE_CAP && !templates.contains_key(&key) {
            templates.clear();
        }
        templates.insert(key, wire.to_vec());
    }

    /// Snapshot of the query log.
    pub fn query_log(&self) -> Vec<QueryLogEntry> {
        self.log.borrow().clone()
    }

    /// Answer one question against the installed zones: the owned
    /// materialisation of [`AuthServer::assemble`], which [`Node::handle`]
    /// encodes without this copy.
    pub fn answer(&self, query: &Message) -> Message {
        let zones = self.zones.borrow();
        let mut expanded = Vec::new();
        let assembled = self.assemble(&zones, query.question(), query.dnssec_ok(), &mut expanded);
        let owned = |section: &[&Record]| section.iter().copied().cloned().collect();
        let mut resp = Message::response_to(query);
        resp.rcode = assembled.rcode;
        resp.flags.aa = assembled.aa;
        resp.answers = owned(&assembled.answers);
        resp.authorities = owned(&assembled.authorities);
        resp.additionals = owned(&assembled.additionals);
        resp
    }

    /// The answer algorithm. Every record of the result is a reference
    /// into `zones`, except wildcard-expanded answers, which are built
    /// into the caller's `expanded` buffer and referenced from there.
    fn assemble<'a>(
        &self,
        zones: &'a HashMap<Name, Rc<SignedZone>>,
        question: Option<&Question>,
        dnssec: bool,
        expanded: &'a mut Vec<Record>,
    ) -> Assembly<'a> {
        let mut resp = Assembly::default();
        let Some(question) = question else {
            resp.rcode = Rcode::FormErr;
            return resp;
        };
        let Some(zone) = best_zone(zones, &question.qname) else {
            resp.rcode = Rcode::Refused;
            return resp;
        };
        resp.aa = true;
        // Zone transfer: all records, SOA first and last (RFC 5936 §2.2),
        // if the zone's policy allows it.
        if question.qtype == RrType::AXFR {
            let z = &zone.zone;
            if question.qname == *z.apex() && self.axfr_allowed.borrow().contains(z.apex()) {
                let soa = z.rrset(z.apex(), RrType::SOA).unwrap_or_default();
                resp.answers.extend(soa);
                resp.answers
                    .extend(z.iter().filter(|r| r.rrtype() != RrType::SOA));
                resp.answers.extend(soa);
            } else {
                resp.rcode = Rcode::Refused;
            }
            return resp;
        }
        // One sort key serves every probe of the owner index this answer
        // makes for `qname` and its ancestors.
        question
            .qname
            .with_sort_key(|key| answer_in_zone(zone, question, key, dnssec, &mut resp, expanded));
        resp
    }
}

/// One assembled response: the verdict bits plus record sections borrowed
/// from the zone (or the wildcard side buffer) they were found in.
#[derive(Default)]
struct Assembly<'a> {
    rcode: Rcode,
    aa: bool,
    answers: Vec<&'a Record>,
    authorities: Vec<&'a Record>,
    additionals: Vec<&'a Record>,
}

/// Attach a denial proof when the query had DO. The proof is built only
/// then, and one that cannot be built is left out, not an error.
fn prove<'a>(
    resp: &mut Assembly<'a>,
    dnssec: bool,
    proof: impl FnOnce() -> Result<DenialProof<'a>, ZoneError>,
) {
    if dnssec {
        if let Ok(proof) = proof() {
            resp.authorities.extend(proof.records);
        }
    }
}

fn answer_in_zone<'a>(
    zone: &'a SignedZone,
    question: &Question,
    qname_key: &[u8],
    dnssec: bool,
    resp: &mut Assembly<'a>,
    expanded: &'a mut Vec<Record>,
) {
    let qname = &question.qname;
    let qtype = question.qtype;
    let z = &zone.zone;
    // Negative answers carry the SOA and, with DNSSEC, a denial proof.
    let soa = |resp: &mut Assembly<'a>| {
        resp.authorities
            .extend(z.rrset_with_sigs(z.apex(), RrType::SOA, dnssec));
    };

    // 1. Referral if qname sits at or under a delegation (but a query
    //    *for* the DS of a delegation is answered authoritatively by
    //    the parent). NS, DS and their RRSIGs all come from the cut's
    //    node; A and AAAA glue from one node per target.
    let own = z.node_by_key(qname_key);
    if let Some(node) = z.delegation_cut(qname, qname_key, own) {
        let cut = node.owner();
        if !(cut == qname && qtype == RrType::DS) {
            resp.aa = false;
            resp.authorities.extend(node.with_sigs(RrType::NS, dnssec));
            if node.rrset(RrType::DS).is_none() {
                // Opt-out/insecure delegation: prove DS absence.
                prove(resp, dnssec, || denial::nodata_proof(zone, cut));
            } else if dnssec {
                resp.authorities.extend(node.with_sigs(RrType::DS, true));
            }
            for ns in node.rrset(RrType::NS).unwrap_or_default() {
                let RData::Ns(target) = &ns.rdata else {
                    continue;
                };
                if let Some(glue) = z.node(target) {
                    for t in [RrType::A, RrType::AAAA] {
                        resp.additionals.extend(glue.rrset(t).unwrap_or_default());
                    }
                }
            }
            return;
        }
    }

    // 2. Exact-name cases. No cut lies above `qname` (step 1 would have
    //    referred), so a name stored here is not occluded.
    if let Some(node) = own {
        let found = [qtype, RrType::CNAME]
            .into_iter()
            .find(|t| node.rrset(*t).is_some());
        match found {
            Some(t) => resp.answers.extend(node.with_sigs(t, dnssec)),
            None => {
                // NODATA.
                soa(resp);
                prove(resp, dnssec, || denial::nodata_proof(zone, qname));
            }
        }
        return;
    }

    // 3. Empty non-terminal => NODATA with empty bitmap proof.
    if z.name_exists_by_key(qname_key) {
        soa(resp);
        prove(resp, dnssec, || denial::nodata_proof(zone, qname));
        return;
    }

    // 4. Wildcard synthesis. `qname` does not exist, so its closest
    //    encloser is a strict ancestor.
    let ce = z.encloser_of_missing(qname, qname_key);
    if let Some((wildcard, node)) = ce
        .prepend(b"*")
        .ok()
        .and_then(|w| z.node(&w).map(|node| (w, node)))
    {
        if node.rrset(qtype).is_some() {
            // Expand: answers take the query name, signatures keep the
            // wildcard labels count (that is the expansion signal).
            expanded.extend(
                node.with_sigs(qtype, dnssec)
                    .map(|rec| Record::new(qname.clone(), rec.ttl, rec.rdata.clone())),
            );
            let expanded: &'a [Record] = expanded;
            resp.answers.extend(expanded);
        } else {
            // Wildcard exists but lacks qtype: NODATA via the wildcard.
            soa(resp);
            prove(resp, dnssec, || denial::nodata_proof(zone, &wildcard));
        }
        prove(resp, dnssec, || {
            denial::wildcard_expansion_proof(zone, qname, &ce)
        });
        return;
    }

    // 5. NXDOMAIN.
    resp.rcode = Rcode::NxDomain;
    soa(resp);
    prove(resp, dnssec, || {
        denial::nxdomain_proof_below(zone, qname, ce)
    });
}

impl Default for AuthServer {
    fn default() -> Self {
        Self::new()
    }
}

/// Zone with the longest apex that is an ancestor-or-self of `qname`.
fn best_zone<'a>(zones: &'a HashMap<Name, Rc<SignedZone>>, qname: &Name) -> Option<&'a SignedZone> {
    zones
        .get(qname)
        .or_else(|| {
            qname
                .ancestors()
                .find_map(|candidate| zones.get(&candidate))
        })
        .map(Rc::as_ref)
}

impl Node for AuthServer {
    fn handle(
        &self,
        _net: &Network,
        src: IpAddr,
        payload: &[u8],
        reply: &mut Vec<u8>,
    ) -> Option<()> {
        // RFC 7766: a length-framed payload is a stream ("TCP") exchange —
        // no size limit and a framed response. The length prefix is the
        // only framing signal, and a UDP message whose ID bytes happen to
        // equal its length minus two looks framed as well — so fall back
        // to the raw reading when the framed one does not decode, instead
        // of answering such queries with silence.
        let framed = unframe_tcp(payload)
            .and_then(|inner| Message::decode(inner).ok().map(|query| (query, inner)));
        let (query, datagram, tcp) = match framed {
            Some((query, inner)) => (query, inner, true),
            None => (Message::decode(payload).ok()?, payload, false),
        };
        let flags = query.flags;
        if flags.qr {
            return None; // not a query
        }
        let edns = query.edns.as_ref();
        let dnssec = query.dnssec_ok();
        if let Some(q) = query.question() {
            let mut log = self.log.borrow_mut();
            if log.len() < self.log_cap {
                log.push(QueryLogEntry {
                    src,
                    qname: q.qname.clone(),
                    qtype: q.qtype,
                    dnssec_ok: dnssec,
                });
            }
        }
        // A query is template-cacheable when the answer bytes are a pure
        // function of (qname, qtype, qclass, EDNS state): exactly one
        // question, written literally (no compression pointers — its raw
        // bytes get copied into the template verbatim to preserve 0x20
        // case echoing), and not a zone transfer. The name is literal
        // exactly when the datagram spells the decoded name's own bytes
        // and then the root octet: a pointer octet (>= 0xC0) is never a
        // label length.
        let template = match query.questions.as_slice() {
            [q] if q.qtype != RrType::AXFR => {
                let spelled = q.qname.wire_bytes();
                let entry = &datagram[12..];
                let literal = entry.starts_with(spelled) && entry.get(spelled.len()) == Some(&0);
                literal.then(|| {
                    let state = match edns {
                        None => EdnsState::Absent,
                        Some(_) if dnssec => EdnsState::Do,
                        Some(_) => EdnsState::Plain,
                    };
                    let key = (q.qname.clone(), q.qtype, q.qclass, state);
                    (key, &entry[..spelled.len() + 5])
                })
            }
            _ => None,
        };
        // UDP truncation bound: the requester's EDNS payload size (512
        // without EDNS) bounds the response; over it, send TC with empty
        // sections. Payload size is per-query, so the check runs against
        // the template length on hits too.
        let limit = edns
            .map(|e| e.udp_payload_size as usize)
            .unwrap_or(512)
            .max(512);
        if let Some((key, raw)) = &template {
            let templates = self.templates.borrow();
            if let Some(wire) = templates.get(key) {
                if tcp || wire.len() <= limit {
                    if tcp {
                        reply.extend_from_slice(&(wire.len() as u16).to_be_bytes());
                    }
                    let off = reply.len();
                    reply.extend_from_slice(wire);
                    // Patch the query-specific bytes: ID, opcode + RD in
                    // the upper flags byte (QR/AA/TC stay as encoded), and
                    // the literal question (case echo). Everything else in
                    // the packet — counts, sections, OPT — is fixed by the
                    // key, and compression pointers into the question stay
                    // valid because the name's length is part of the key.
                    reply[off..off + 2].copy_from_slice(&query.id.to_be_bytes());
                    reply[off + 2] =
                        (reply[off + 2] & !0x79) | (flags.opcode.to_u8() << 3) | u8::from(flags.rd);
                    reply[off + 12..off + 12 + raw.len()].copy_from_slice(raw);
                    return Some(());
                }
                // Over the requester's size limit: fall through and build
                // the truncated response fresh (it is tiny).
            }
        }
        // Miss: assemble by reference and encode once, straight into
        // `reply` — no owned response.
        let zones = self.zones.borrow();
        let mut expanded = Vec::new();
        let assembled = self.assemble(&zones, query.question(), dnssec, &mut expanded);
        let reply_edns = edns.map(|_| Edns::default());
        let mut head = MessageHead {
            id: query.id,
            flags: Flags {
                qr: true,
                opcode: flags.opcode,
                rd: flags.rd,
                aa: assembled.aa,
                ..Flags::default()
            },
            rcode: assembled.rcode,
            questions: &query.questions,
            edns: reply_edns.as_ref(),
        };
        let start = reply.len();
        if tcp {
            reply.extend_from_slice(&[0, 0]);
        }
        let body = reply.len();
        head.encode_append(
            reply,
            &assembled.answers,
            &assembled.authorities,
            &assembled.additionals,
        );
        if let Some((key, _)) = template {
            self.store_template(key, &reply[body..]);
        }
        let len = reply.len() - body;
        if tcp {
            reply[start..body].copy_from_slice(&(len as u16).to_be_bytes());
        } else if len > limit {
            reply.truncate(start);
            head.flags.tc = true;
            head.encode_append::<&Record>(reply, &[], &[], &[]);
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name::name;
    use dns_zone::signer::{sign_zone, SignerConfig};
    use dns_zone::Zone;
    use std::net::Ipv4Addr;
    use std::rc::Rc;

    const NOW: u32 = 1_710_000_000;

    fn build_server() -> AuthServer {
        let mut z = Zone::new(name("example."));
        z.add(Record::new(
            name("example."),
            3600,
            RData::Soa {
                mname: name("ns1.example."),
                rname: name("host.example."),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            },
        ))
        .unwrap();
        z.add(Record::new(
            name("example."),
            3600,
            RData::Ns(name("ns1.example.")),
        ))
        .unwrap();
        z.add(Record::new(
            name("ns1.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ))
        .unwrap();
        z.add(Record::new(
            name("www.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ))
        .unwrap();
        z.add(Record::new(
            name("alias.example."),
            300,
            RData::Cname(name("www.example.")),
        ))
        .unwrap();
        z.add(Record::new(
            name("*.wild.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 9)),
        ))
        .unwrap();
        // Insecure delegation.
        z.add(Record::new(
            name("sub.example."),
            3600,
            RData::Ns(name("ns1.sub.example.")),
        ))
        .unwrap();
        z.add(Record::new(
            name("ns1.sub.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 60)),
        ))
        .unwrap();
        let signed = sign_zone(&z, &SignerConfig::standard(&name("example."), NOW)).unwrap();
        let server = AuthServer::new();
        server.add_zone(signed);
        server
    }

    fn ask(server: &AuthServer, qname: &str, qtype: RrType) -> Message {
        server.answer(&Message::query(1, name(qname), qtype))
    }

    #[test]
    fn positive_answer_with_rrsig() {
        let s = build_server();
        let resp = ask(&s, "www.example.", RrType::A);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.flags.aa);
        assert_eq!(resp.records_of_type(RrType::A).count(), 1);
        assert_eq!(resp.records_of_type(RrType::RRSIG).count(), 1);
    }

    #[test]
    fn plain_dns_omits_dnssec_records() {
        let s = build_server();
        let mut q = Message::query(1, name("www.example."), RrType::A);
        q.edns = None;
        let resp = s.answer(&q);
        assert_eq!(resp.records_of_type(RrType::A).count(), 1);
        assert!(resp.records_of_type(RrType::RRSIG).next().is_none());
    }

    #[test]
    fn plain_dns_negatives_build_no_proof() {
        use dns_zone::nsec3hash::thread_cache_stats;
        let s = build_server();
        let lookups = thread_cache_stats();
        for qname in ["nx.example.", "deep.sub.example.", "x.wild.example."] {
            let mut q = Message::query(1, name(qname), RrType::TXT);
            q.edns = None;
            let resp = s.answer(&q);
            assert!(resp.records_of_type(RrType::NSEC3).next().is_none());
        }
        assert_eq!(thread_cache_stats(), lookups, "no DO, no NSEC3 hashing");
    }

    #[test]
    fn nxdomain_carries_proof() {
        let s = build_server();
        let resp = ask(&s, "nx.example.", RrType::A);
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert!(resp.records_of_type(RrType::SOA).next().is_some());
        let nsec3 = resp.records_of_type(RrType::NSEC3).count();
        assert!((1..=3).contains(&nsec3), "{nsec3} NSEC3s");
    }

    #[test]
    fn nodata_carries_matching_nsec3() {
        let s = build_server();
        let resp = ask(&s, "www.example.", RrType::TXT);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
        assert!(resp.records_of_type(RrType::SOA).next().is_some());
        assert_eq!(resp.records_of_type(RrType::NSEC3).count(), 1);
    }

    #[test]
    fn cname_returned_without_chasing() {
        let s = build_server();
        let resp = ask(&s, "alias.example.", RrType::A);
        assert_eq!(resp.records_of_type(RrType::CNAME).count(), 1);
        assert!(resp.records_of_type(RrType::A).next().is_none());
    }

    #[test]
    fn wildcard_expansion_synthesizes_qname() {
        let s = build_server();
        let resp = ask(&s, "anything.wild.example.", RrType::A);
        assert_eq!(resp.rcode, Rcode::NoError);
        let answers: Vec<_> = resp.records_of_type(RrType::A).collect();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].name, name("anything.wild.example."));
        // Expansion proof: NSEC3 covering the next closer.
        assert!(resp.records_of_type(RrType::NSEC3).next().is_some());
        // The RRSIG's labels field is smaller than the owner's label count.
        let sig = resp
            .answers
            .iter()
            .find(|r| r.rrtype() == RrType::RRSIG)
            .expect("expanded RRSIG");
        match &sig.rdata {
            RData::Rrsig { labels, .. } => {
                assert!((*labels as usize) < sig.name.label_count());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn referral_for_insecure_delegation() {
        let s = build_server();
        let resp = ask(&s, "deep.sub.example.", RrType::A);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert!(!resp.flags.aa);
        assert!(resp.answers.is_empty());
        assert!(resp.records_of_type(RrType::NS).next().is_some());
        // Glue present.
        assert!(resp.additionals.iter().any(|r| r.rrtype() == RrType::A));
        // DS-absence proof (NSEC3) present since query had DO.
        assert!(resp.records_of_type(RrType::NSEC3).next().is_some());
    }

    #[test]
    fn ds_query_at_cut_answered_by_parent() {
        let s = build_server();
        let resp = ask(&s, "sub.example.", RrType::DS);
        // Insecure delegation: NODATA with proof, authoritative.
        assert!(resp.flags.aa);
        assert!(resp.answers.is_empty());
        assert!(resp.records_of_type(RrType::SOA).next().is_some());
    }

    #[test]
    fn refused_outside_zones() {
        let s = build_server();
        let resp = ask(&s, "www.other.", RrType::A);
        assert_eq!(resp.rcode, Rcode::Refused);
    }

    #[test]
    fn query_log_records_sources() {
        let s = build_server();
        let net = Network::new(1);
        let server = Rc::new(s);
        let addr: IpAddr = "10.0.0.53".parse().unwrap();
        let client: IpAddr = "10.9.9.9".parse().unwrap();
        net.register(addr, server.clone());
        let q = Message::query(7, name("www.example."), RrType::A).encode();
        let out = net.send_query(client, addr, &q);
        assert!(out.payload().is_some());
        let log = server.query_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].src, client);
        assert_eq!(log[0].qname, name("www.example."));
        assert!(log[0].dnssec_ok);
    }

    #[test]
    fn dnskey_and_nsec3param_queries_answered() {
        let s = build_server();
        let dk = ask(&s, "example.", RrType::DNSKEY);
        assert_eq!(dk.records_of_type(RrType::DNSKEY).count(), 2);
        let np = ask(&s, "example.", RrType::NSEC3PARAM);
        assert_eq!(np.records_of_type(RrType::NSEC3PARAM).count(), 1);
    }

    #[test]
    fn formerr_on_empty_question() {
        let s = build_server();
        let mut q = Message::query(1, name("www.example."), RrType::A);
        q.questions.clear();
        assert_eq!(s.answer(&q).rcode, Rcode::FormErr);
    }

    #[test]
    fn queries_are_case_insensitive() {
        let s = build_server();
        let resp = ask(&s, "WWW.EXAMPLE.", RrType::A);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.records_of_type(RrType::A).count(), 1);
    }

    #[test]
    fn empty_non_terminal_gets_nodata_not_nxdomain() {
        let s = build_server();
        // a.b.c.example. exists in a fresh zone with an ENT at b.c.example..
        let mut z = Zone::new(name("ent.example."));
        z.add(Record::new(
            name("ent.example."),
            3600,
            RData::Soa {
                mname: name("ns1.ent.example."),
                rname: name("h.ent.example."),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            },
        ))
        .unwrap();
        z.add(Record::new(
            name("a.b.ent.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ))
        .unwrap();
        s.add_zone(sign_zone(&z, &SignerConfig::standard(&name("ent.example."), NOW)).unwrap());
        let resp = ask(&s, "b.ent.example.", RrType::A);
        assert_eq!(
            resp.rcode,
            Rcode::NoError,
            "ENTs exist: NODATA, not NXDOMAIN"
        );
        assert!(resp.answers.is_empty());
        let resp = ask(&s, "zz.b.ent.example.", RrType::A);
        assert_eq!(resp.rcode, Rcode::NxDomain);
    }

    #[test]
    fn nsec_signed_zone_serves_nsec_proofs() {
        let s = AuthServer::new();
        let mut z = Zone::new(name("plain.example."));
        z.add(Record::new(
            name("plain.example."),
            3600,
            RData::Soa {
                mname: name("ns1.plain.example."),
                rname: name("h.plain.example."),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            },
        ))
        .unwrap();
        z.add(Record::new(
            name("www.plain.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ))
        .unwrap();
        let cfg = SignerConfig {
            denial: dns_zone::signer::Denial::Nsec,
            ..SignerConfig::standard(&name("plain.example."), NOW)
        };
        s.add_zone(sign_zone(&z, &cfg).unwrap());
        let resp = s.answer(&Message::query(1, name("nope.plain.example."), RrType::A));
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert!(resp.records_of_type(RrType::NSEC).next().is_some());
        assert!(resp.records_of_type(RrType::NSEC3).next().is_none());
    }

    #[test]
    fn responses_to_responses_are_dropped() {
        let s = build_server();
        let net = Network::new(1);
        let addr: IpAddr = "10.0.0.53".parse().unwrap();
        net.register(addr, Rc::new(s));
        let mut q = Message::query(5, name("www.example."), RrType::A);
        q.flags.qr = true; // a response, not a query
        let out = net.send_query("10.9.9.9".parse().unwrap(), addr, &q.encode());
        assert!(out.payload().is_none(), "servers must not answer responses");
    }

    #[test]
    fn axfr_refused_by_default_allowed_when_enabled() {
        let s = build_server();
        let refused = ask(&s, "example.", RrType::AXFR);
        assert_eq!(refused.rcode, Rcode::Refused);
        assert!(refused.answers.is_empty());

        s.allow_axfr(&name("example."));
        let xfer = ask(&s, "example.", RrType::AXFR);
        assert_eq!(xfer.rcode, Rcode::NoError);
        // SOA first and last.
        assert_eq!(xfer.answers.first().unwrap().rrtype(), RrType::SOA);
        assert_eq!(xfer.answers.last().unwrap().rrtype(), RrType::SOA);
        // The whole zone (every record + the duplicated SOA).
        let zone_len = {
            // Rebuild to count: the server holds one zone.
            xfer.answers.len() - 1
        };
        assert!(zone_len > 10, "{zone_len}");
        // AXFR for a non-apex name is refused even when enabled.
        let sub = ask(&s, "www.example.", RrType::AXFR);
        assert_eq!(sub.rcode, Rcode::Refused);
    }

    #[test]
    fn multiple_zones_longest_match() {
        let s = build_server();
        // Add a second, deeper zone: sub2.example. served here too.
        let mut z = Zone::new(name("sub2.example."));
        z.add(Record::new(
            name("sub2.example."),
            3600,
            RData::Soa {
                mname: name("ns1.sub2.example."),
                rname: name("host.sub2.example."),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            },
        ))
        .unwrap();
        z.add(Record::new(
            name("x.sub2.example."),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 77)),
        ))
        .unwrap();
        s.add_zone(sign_zone(&z, &SignerConfig::standard(&name("sub2.example."), NOW)).unwrap());
        let resp = ask(&s, "x.sub2.example.", RrType::A);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.records_of_type(RrType::A).count(), 1);
    }

    /// Drive the wire-level entry point directly.
    fn handle_raw(s: &AuthServer, net: &Network, payload: &[u8]) -> Option<Vec<u8>> {
        let mut reply = Vec::new();
        let src: IpAddr = "10.9.9.9".parse().unwrap();
        s.handle(net, src, payload, &mut reply).map(|()| reply)
    }

    #[test]
    fn template_cache_serves_identical_bytes() {
        let s = build_server();
        let net = Network::new(1);
        let cold_q = Message::query(7, name("www.example."), RrType::A);
        let cold = handle_raw(&s, &net, &cold_q.encode()).unwrap();
        assert_eq!(s.templates.borrow().len(), 1);
        // Second query: different ID and 0x20-style mixed case. The warm
        // path must patch both and produce exactly what a fresh encode of
        // a fresh answer would.
        let warm_q = Message::query(991, name("WwW.eXaMpLe."), RrType::A);
        let warm = handle_raw(&s, &net, &warm_q.encode()).unwrap();
        assert_eq!(s.templates.borrow().len(), 1, "same key, one template");
        let fresh = s.answer(&warm_q).encode();
        assert_eq!(warm, fresh);
        assert_ne!(cold, warm, "ID and question case differ");
        assert_eq!(cold.len(), warm.len());
        // The cold (miss) response itself must equal a fresh encode too.
        assert_eq!(cold, s.answer(&cold_q).encode());
    }

    #[test]
    fn template_cache_tcp_framing_and_key_separation() {
        let s = build_server();
        let net = Network::new(1);
        let q = Message::query(3, name("www.example."), RrType::A);
        let udp = handle_raw(&s, &net, &q.encode()).unwrap();
        // Same key over "TCP": framed reply, same datagram bytes.
        let framed = handle_raw(&s, &net, &dns_wire::message::frame_tcp(&q.encode())).unwrap();
        assert_eq!(&framed[..2], (udp.len() as u16).to_be_bytes().as_slice());
        assert_eq!(&framed[2..], udp.as_slice());
        // DO off is a different EDNS state: separate template, no RRSIGs.
        let mut plain = Message::query(3, name("www.example."), RrType::A);
        plain.edns = None;
        let plain_resp = handle_raw(&s, &net, &plain.encode()).unwrap();
        assert_eq!(s.templates.borrow().len(), 2);
        let decoded = Message::decode(&plain_resp).unwrap();
        assert!(decoded.records_of_type(RrType::RRSIG).next().is_none());
    }

    #[test]
    fn pointer_written_question_is_answered_and_never_templated() {
        let s = build_server();
        let net = Network::new(1);
        // A query for `.` with the name written as a pointer to header
        // octet 4: QDCOUNT is `00 01`, so the pointer lands on a root
        // octet. Its question bytes cannot be patched into a template.
        let literal_q = Message::query(11, Name::root(), RrType::NS);
        let literal = literal_q.encode();
        assert_eq!(literal[12], 0, "literal root name");
        let mut pointed = literal[..12].to_vec();
        pointed.extend_from_slice(&[0xC0, 0x04]);
        pointed.extend_from_slice(&literal[13..]);
        assert_eq!(Message::decode(&pointed).unwrap(), literal_q);
        let reply = handle_raw(&s, &net, &pointed).unwrap();
        assert_eq!(reply, s.answer(&literal_q).encode());
        assert!(s.templates.borrow().is_empty(), "pointer query not cached");
        let again = handle_raw(&s, &net, &pointed).unwrap();
        assert_eq!(again, reply);
        assert!(s.templates.borrow().is_empty());
        // The literal spelling is templated as usual, miss and hit.
        for id in [12, 13] {
            let q = Message::query(id, Name::root(), RrType::NS);
            let reply = handle_raw(&s, &net, &q.encode()).unwrap();
            assert_eq!(reply, s.answer(&q).encode());
            assert_eq!(s.templates.borrow().len(), 1);
        }
    }

    #[test]
    fn framed_looking_datagram_falls_back_to_the_raw_reading() {
        let s = build_server();
        let net = Network::new(1);
        // A UDP query whose ID equals its length minus two passes for an
        // RFC 7766 frame, but what follows the "prefix" is no message.
        let mut q = Message::query(0, name("www.example."), RrType::A);
        q.id = q.encode().len() as u16 - 2;
        let wire = q.encode();
        assert!(dns_wire::message::unframe_tcp(&wire).is_some());
        let reply = handle_raw(&s, &net, &wire).unwrap();
        assert_eq!(reply, s.answer(&q).encode(), "answered raw, unframed");
        // Undecodable under either reading: dropped.
        assert!(handle_raw(&s, &net, &wire[..wire.len() - 1]).is_none());
        let framed_junk = dns_wire::message::frame_tcp(&wire[..wire.len() - 1]);
        assert!(handle_raw(&s, &net, &framed_junk).is_none());
    }

    #[test]
    fn template_cache_respects_truncation_limit() {
        let s = build_server();
        let net = Network::new(1);
        // Inflate www.example./TXT well past 512 bytes so the no-EDNS
        // limit forces truncation.
        let mut z = Zone::new(name("big.example."));
        z.add(Record::new(
            name("big.example."),
            3600,
            RData::Soa {
                mname: name("ns1.big.example."),
                rname: name("h.big.example."),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            },
        ))
        .unwrap();
        z.add(Record::new(
            name("www.big.example."),
            300,
            RData::Txt(vec![vec![b'x'; 200], vec![b'y'; 200], vec![b'z'; 200]]),
        ))
        .unwrap();
        s.add_zone(sign_zone(&z, &SignerConfig::standard(&name("big.example."), NOW)).unwrap());
        // Warm the template with a roomy EDNS payload size.
        let mut big = Message::query(1, name("www.big.example."), RrType::TXT);
        big.edns = Some(dns_wire::edns::Edns {
            udp_payload_size: 4096,
            ..dns_wire::edns::Edns::default()
        });
        let full = handle_raw(&s, &net, &big.encode()).unwrap();
        assert!(full.len() > 512, "test premise: {} bytes", full.len());
        // Same key again but via a 512-limit query: must truncate even
        // though the template is warm.
        let mut small = Message::query(2, name("www.big.example."), RrType::TXT);
        small.edns = Some(dns_wire::edns::Edns {
            udp_payload_size: 512,
            ..dns_wire::edns::Edns::default()
        });
        let tc = handle_raw(&s, &net, &small.encode()).unwrap();
        let decoded = Message::decode(&tc).unwrap();
        assert!(decoded.flags.tc);
        assert!(decoded.answers.is_empty());
        // Byte-for-byte what the pure path would have sent.
        let query = Message::decode(&small.encode()).unwrap();
        let response = s.answer(&query);
        let mut expect = Message::response_to(&query);
        expect.flags.aa = response.flags.aa;
        expect.flags.tc = true;
        expect.rcode = response.rcode;
        assert_eq!(tc, expect.encode());
    }

    #[test]
    fn template_cache_invalidated_on_zone_change() {
        let s = build_server();
        let net = Network::new(1);
        let q = Message::query(9, name("www.example."), RrType::A).encode();
        handle_raw(&s, &net, &q).unwrap();
        assert!(!s.templates.borrow().is_empty());
        s.remove_zone(&name("example."));
        assert!(s.templates.borrow().is_empty(), "zone change must flush");
        let refused = handle_raw(&s, &net, &q).unwrap();
        assert_eq!(Message::decode(&refused).unwrap().rcode, Rcode::Refused);
    }
}
