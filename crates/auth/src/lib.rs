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
use std::collections::{HashMap, VecDeque};
use std::net::IpAddr;
use std::rc::Rc;

use dns_crypto::hash::KeyedState;
use dns_wire::edns::Edns;
use dns_wire::message::{unframe_tcp, Flags, Message, MessageHead, Question};
use dns_wire::name::{ancestor_keys, Name, SortKey};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::{Rcode, RrType};
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

/// Queries the log remembers: the most recent ones. The paper's
/// attribution reads the handful a probe has just caused, so the bound is
/// a constant, not a setting.
pub(crate) const QUERY_LOG_LEN: usize = 256;

/// The installed zones by apex.
type ApexIndex = HashMap<SortKey, Rc<SignedZone>, KeyedState>;

/// An authoritative name server holding one or more signed zones.
pub struct AuthServer {
    /// By apex sort key, so that a query's zone is found by probing the
    /// prefixes of its one key (the owner index takes the same key), and
    /// hashed with the workspace's keyed word hasher: one probe per label
    /// of every answer.
    zones: RefCell<ApexIndex>,
    /// The last [`QUERY_LOG_LEN`] queries, oldest first.
    log: RefCell<VecDeque<QueryLogEntry>>,
    /// Apexes whose zones may be transferred (the CZDS/open-AXFR TLDs the
    /// paper counts: 1,105 of the 1,302 NSEC3-enabled TLDs share zone
    /// data).
    axfr_allowed: RefCell<std::collections::HashSet<Name>>,
}

impl AuthServer {
    /// An empty server; add zones with [`AuthServer::add_zone`].
    pub fn new() -> Self {
        AuthServer {
            zones: RefCell::new(ApexIndex::default()),
            log: RefCell::new(VecDeque::new()),
            axfr_allowed: RefCell::new(std::collections::HashSet::new()),
        }
    }

    /// Permit zone transfers (`AXFR`) for `apex`.
    pub fn allow_axfr(&self, apex: &Name) {
        self.axfr_allowed.borrow_mut().insert(apex.clone());
    }

    /// Install (or replace) a zone. A caller that keeps the zone as well
    /// (the lab does, for inspection) passes an `Rc` and shares the one
    /// copy with the server.
    pub fn add_zone(&self, zone: impl Into<Rc<SignedZone>>) {
        let zone = zone.into();
        let key = zone.zone.apex().sort_key();
        self.zones.borrow_mut().insert(key, zone);
    }

    /// The installed zone with exactly this apex — the shared copy, not a
    /// clone of its records.
    pub fn zone(&self, apex: &Name) -> Option<Rc<SignedZone>> {
        apex.with_sort_key(|key| self.zones.borrow().get(key).cloned())
    }

    /// Snapshot of the query log: the most recent `QUERY_LOG_LEN`
    /// queries in arrival order.
    pub fn query_log(&self) -> Vec<QueryLogEntry> {
        self.log.borrow().iter().cloned().collect()
    }

    /// Answer one question against the installed zones: the owned
    /// materialisation of `AuthServer::assemble`, which [`Node::handle`]
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
        zones: &'a ApexIndex,
        question: Option<&Question>,
        dnssec: bool,
        expanded: &'a mut Vec<Record>,
    ) -> Assembly<'a> {
        let mut resp = Assembly::default();
        let Some(question) = question else {
            resp.rcode = Rcode::FormErr;
            return resp;
        };
        // One sort key finds the zone and serves every probe of the owner
        // index this answer makes for `qname` and its ancestors.
        question.qname.with_sort_key(|key| {
            let Some(zone) = best_zone(zones, key) else {
                resp.rcode = Rcode::Refused;
                return;
            };
            resp.aa = true;
            if question.qtype != RrType::AXFR {
                return answer_in_zone(zone, question, key, dnssec, &mut resp, expanded);
            }
            // Zone transfer: all records, SOA first and last (RFC 5936
            // §2.2), if the zone's policy allows it.
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
        });
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

/// Zone with the longest apex that is an ancestor-or-self of the name
/// whose sort key is `qname_key`: its key's prefixes, probed as borrowed
/// bytes, so no name is built.
fn best_zone<'a>(zones: &'a ApexIndex, qname_key: &[u8]) -> Option<&'a SignedZone> {
    ancestor_keys(qname_key)
        .find_map(|key| zones.get(key))
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
        let framed = unframe_tcp(payload).and_then(|inner| Message::decode(inner).ok());
        let (query, tcp) = match framed {
            Some(query) => (query, true),
            None => (Message::decode(payload).ok()?, false),
        };
        let flags = query.flags;
        if flags.qr {
            return None; // not a query
        }
        let edns = query.edns.as_ref();
        let dnssec = query.dnssec_ok();
        // UDP truncation bound: the requester's EDNS payload size (512
        // without EDNS) bounds the response; over it, send TC with empty
        // sections.
        let limit = edns
            .map(|e| e.udp_payload_size as usize)
            .unwrap_or(512)
            .max(512);
        // Assemble by reference and encode once, straight into `reply` —
        // no owned response.
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
            head.encode_framed_append(
                reply,
                &assembled.answers,
                &assembled.authorities,
                &assembled.additionals,
            );
        } else {
            head.encode_append(
                reply,
                &assembled.answers,
                &assembled.authorities,
                &assembled.additionals,
            );
            if reply.len() - start > limit {
                reply.truncate(start);
                head.flags.tc = true;
                head.encode_append::<&Record>(reply, &[], &[], &[]);
            }
        }
        // Log last, once nothing borrows the query: the entry takes the
        // decoded question's own name and the entry it displaces frees
        // one, so logging allocates nothing once the ring is full.
        if let Some(q) = query.questions.into_iter().next() {
            let mut log = self.log.borrow_mut();
            if log.len() == QUERY_LOG_LEN {
                log.pop_front();
            }
            log.push_back(QueryLogEntry {
                src,
                qname: q.qname,
                qtype: q.qtype,
                dnssec_ok: dnssec,
            });
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
    fn query_log_keeps_the_most_recent_queries_in_arrival_order() {
        let s = build_server();
        let net = Network::new(1);
        let logged = |s: &AuthServer| -> Vec<u16> {
            let ids = s.query_log().into_iter().map(|e| {
                let label = e.qname.labels().next().expect("q<n>").to_vec();
                String::from_utf8(label).unwrap()[1..].parse().unwrap()
            });
            ids.collect()
        };
        let ask_n = |s: &AuthServer, n: u16| {
            let q = Message::query(n, name(&format!("q{n}.example.")), RrType::A);
            handle_raw(s, &net, &q.encode()).unwrap();
        };
        for n in 0..QUERY_LOG_LEN as u16 {
            ask_n(&s, n);
        }
        assert_eq!(logged(&s), (0..QUERY_LOG_LEN as u16).collect::<Vec<_>>());
        // One more displaces the oldest; many more wrap the ring more
        // than once and the order is still arrival order.
        ask_n(&s, 256);
        assert_eq!(logged(&s), (1..=256).collect::<Vec<_>>());
        for n in 257..1000 {
            ask_n(&s, n);
        }
        assert_eq!(logged(&s), (1000 - 256..1000).collect::<Vec<_>>());
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
    fn pointer_written_question_is_answered() {
        let s = build_server();
        let net = Network::new(1);
        // A query for `.` with the name written as a pointer to header
        // octet 4: QDCOUNT is `00 01`, so the pointer lands on a root
        // octet.
        let literal_q = Message::query(11, Name::root(), RrType::NS);
        let literal = literal_q.encode();
        assert_eq!(literal[12], 0, "literal root name");
        let mut pointed = literal[..12].to_vec();
        pointed.extend_from_slice(&[0xC0, 0x04]);
        pointed.extend_from_slice(&literal[13..]);
        assert_eq!(Message::decode(&pointed).unwrap(), literal_q);
        let reply = handle_raw(&s, &net, &pointed).unwrap();
        assert_eq!(reply, s.answer(&literal_q).encode());
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
}
