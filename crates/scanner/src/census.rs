//! The §4.1 domain-census methodology, zdns-style.
//!
//! For every registered domain: query `DNSKEY` (through the configured
//! recursive resolver, as the paper did through Cloudflare); if present,
//! query `NSEC3PARAM` and `NS`; then query a random nonexistent subdomain
//! to elicit NSEC3 records, and apply the paper's consistency filters
//! (exactly one NSEC3PARAM; all NSEC3 records agree with each other and
//! with the NSEC3PARAM).

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use dns_resolver::resolver::{ResolveOutcome, Resolver};
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::rrtype::RrType;
use dns_zone::nsec3hash::Nsec3Params;
use netsim::event::Port;
use netsim::Network;

use crate::ratelimit::RateLimiter;
use crate::retry::ScanSession;

/// Everything the census learned about one domain.
#[derive(Clone, Debug)]
pub struct DomainObservation {
    /// The domain.
    pub domain: Name,
    /// DNSKEY records were returned.
    pub dnssec_enabled: bool,
    /// All NSEC3PARAM records seen at the apex.
    pub nsec3params: Vec<Nsec3Params>,
    /// NSEC3 parameter sets observed on the negative probe.
    pub nsec3_observed: Vec<Nsec3Params>,
    /// Any NSEC3 record had the opt-out flag.
    pub opt_out: bool,
    /// NSEC records seen instead (NSEC-signed domain).
    pub uses_nsec: bool,
    /// NS target names.
    pub ns_targets: Vec<Name>,
    /// At least one probe phase was lost to timeouts (detected as a
    /// SERVFAIL whose resolution spent upstream timeouts): the
    /// observation is incomplete and must not be classified.
    pub probe_loss: bool,
    /// Final classification.
    pub class: DomainClass,
}

/// The census classification (§4.1's filtering rules).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DomainClass {
    /// No DNSKEY records: not DNSSEC-enabled.
    NotDnssec,
    /// DNSSEC-enabled, NSEC denial.
    DnssecNsec,
    /// DNSSEC-enabled, no denial records observed (lame, unreachable, …).
    DnssecUnknownDenial,
    /// More than one NSEC3PARAM record — excluded from NSEC3 analysis.
    MultipleNsec3Params,
    /// NSEC3/NSEC3PARAM inconsistency (violates RFC 5155) — excluded.
    InconsistentNsec3,
    /// NSEC3-enabled with these parameters: the analysis population.
    Nsec3Enabled(Nsec3Params),
    /// Probe traffic was lost before the domain could be observed: the
    /// domain is reported as *lost coverage*, never misclassified as
    /// NotDnssec (graceful degradation).
    Unprobed,
}

impl DomainClass {
    /// Is the domain in the paper's "NSEC3-enabled" analysis set?
    pub fn nsec3_enabled(&self) -> Option<&Nsec3Params> {
        match self {
            DomainClass::Nsec3Enabled(p) => Some(p),
            _ => None,
        }
    }
}

/// The census scanner.
pub struct Census<'a> {
    /// The network.
    pub net: &'a Network,
    /// The recursive resolver queries go through.
    pub resolver: &'a Resolver,
    /// Source address label for the probe names (cache busting).
    pub scan_id: String,
    /// Paces queries like the paper's zdns configuration.
    pub rate: RateLimiter,
    /// When set, every probe phase is loss-accounted in this session's
    /// [`crate::retry::ProbeStats`].
    pub session: Option<&'a ScanSession>,
}

impl<'a> Census<'a> {
    /// Build a census using `resolver` (already registered or used
    /// directly) as the vantage point.
    pub fn new(net: &'a Network, resolver: &'a Resolver, scan_id: impl Into<String>) -> Self {
        Census {
            net,
            resolver,
            scan_id: scan_id.into(),
            rate: RateLimiter::new(14_700),
            session: None,
        }
    }

    /// The same census, loss-accounted through `session`.
    pub fn with_session(mut self, session: &'a ScanSession) -> Self {
        self.session = Some(session);
        self
    }

    /// Run the §4.1 scan for one domain: drive a [`CensusProbe`] to
    /// completion inline. Event-driven pipelines step the same flow one
    /// phase at a time instead.
    pub fn observe(&self, domain: &Name) -> DomainObservation {
        let mut probe = CensusProbe::new(domain.clone());
        while !probe.step(self) {}
        probe.into_observation()
    }
}

/// What a census scan asks next about its domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ask {
    /// The apex's records of this type.
    Apex(RrType),
    /// The A records of a nonexistent name under the apex: the negative
    /// probe that elicits the denial records.
    Nonexistent,
}

/// The port a scan waits on: an [`Ask`] out, its outcome back (`None`
/// only on the first resume, which runs the scan to its first ask).
type ScanPort = Port<Ask, Option<ResolveOutcome>>;

/// The §4.1 scan for one domain as a flow: each [`CensusProbe::step`]
/// paces, resolves and books exactly one phase. The phases are one
/// `async fn` that decides the next question from the previous answers;
/// [`Census::observe`] drives it inline, and the event-driven census
/// parks the flow between phases, interleaving many domains.
pub struct CensusProbe {
    domain: Name,
    port: Rc<ScanPort>,
    /// The scan; it ends with its observation and the phases given up.
    scan: Pin<Box<dyn Future<Output = (DomainObservation, u32)>>>,
    /// What the scan waits on, or its finished observation.
    next: Result<DomainObservation, Ask>,
}

impl CensusProbe {
    /// A fresh probe for `domain`, waiting on its DNSKEY phase.
    pub fn new(domain: Name) -> Self {
        let port = Rc::<ScanPort>::default();
        let mut scan = Box::pin(scan(port.clone()));
        let next = port.resume(scan.as_mut(), None).map(|(obs, _)| obs);
        CensusProbe {
            domain,
            port,
            scan,
            next,
        }
    }

    /// Run one phase through `census` (its pacer, resolver, and session).
    /// Returns `true` once the observation is final.
    pub fn step(&mut self, census: &Census<'_>) -> bool {
        let Err(ask) = self.next else {
            return true;
        };
        census.rate.pace(census.net);
        let out = match ask {
            Ask::Apex(qtype) => census.resolver.resolve(census.net, &self.domain, qtype),
            Ask::Nonexistent => {
                let probe = Name::parse(&format!("zz-{}-probe", census.scan_id))
                    .and_then(|p| p.concat(&self.domain))
                    .unwrap_or_else(|_| self.domain.clone());
                census.resolver.resolve(census.net, &probe, RrType::A)
            }
        };
        self.answer(census.session, out)
    }

    /// Book `out` in `session`, if any, and resume the scan with it; once
    /// the scan ends, book the phases it gave up on as skipped. Returns
    /// `true` once the observation is final.
    fn answer(&mut self, session: Option<&ScanSession>, out: ResolveOutcome) -> bool {
        if let Some(session) = session {
            session.book(&out);
        }
        self.next = self
            .port
            .resume(self.scan.as_mut(), Some(out))
            .map(|(obs, given_up)| {
                if let Some(session) = session {
                    (0..given_up).for_each(|_| session.note_skipped());
                }
                obs
            });
        self.next.is_ok()
    }

    /// The finished observation.
    ///
    /// # Panics
    ///
    /// Panics unless [`CensusProbe::step`] returned `true`.
    pub fn into_observation(self) -> DomainObservation {
        let obs = self.next.expect("census probe stepped to its end");
        DomainObservation {
            domain: self.domain,
            ..obs
        }
    }
}

/// The §4.1 phases for one domain, top to bottom, each an [`Ask`] on
/// `port`: DNSKEY; for a signed domain then NSEC3PARAM, NS and the
/// nonexistent name; then the paper's filters. A phase lost to timeouts
/// ([`ResolveOutcome::probe_lost`], the rule `ScanSession::book` applies)
/// marks the observation incomplete. The domain is the driver's, so the
/// observation comes back with a blank one.
async fn scan(port: Rc<ScanPort>) -> (DomainObservation, u32) {
    let port = &*port;
    let ask = |ask| async move { port.wait(ask).await.expect("an ask is answered") };
    let mut obs = DomainObservation {
        domain: Name::root(),
        dnssec_enabled: false,
        nsec3params: Vec::new(),
        nsec3_observed: Vec::new(),
        opt_out: false,
        uses_nsec: false,
        ns_targets: Vec::new(),
        probe_loss: false,
        class: DomainClass::NotDnssec,
    };
    let dnskey = ask(Ask::Apex(RrType::DNSKEY)).await;
    if dnskey.probe_lost() {
        // The bootstrap phase never completed: without it we cannot even
        // tell DNSSEC from plain DNS, so the domain is lost coverage, not
        // "NotDnssec". The three remaining phases are given up on
        // (accounted as skipped, not silently dropped).
        obs.probe_loss = true;
        obs.class = DomainClass::Unprobed;
        return (obs, 3);
    }
    obs.dnssec_enabled = dnskey.answers.iter().any(|r| r.rrtype() == RrType::DNSKEY);
    if !obs.dnssec_enabled {
        // A plain-DNS domain needs no further phases and keeps the
        // default NotDnssec class.
        return (obs, 0);
    }
    let params = ask(Ask::Apex(RrType::NSEC3PARAM)).await;
    obs.probe_loss |= params.probe_lost();
    for rec in params.answers.iter() {
        obs.nsec3params.extend(Nsec3Params::from_rdata(&rec.rdata));
    }
    let ns = ask(Ask::Apex(RrType::NS)).await;
    obs.probe_loss |= ns.probe_lost();
    for rec in ns.answers.iter() {
        if let RData::Ns(target) = &rec.rdata {
            obs.ns_targets.push(target.clone());
        }
    }
    let neg = ask(Ask::Nonexistent).await;
    obs.probe_loss |= neg.probe_lost();
    // Any rcode will do: NXDOMAIN and wildcard NOERROR both carry denials.
    for rec in neg.authorities.iter().chain(neg.answers.iter()) {
        match &rec.rdata {
            RData::Nsec3 { .. } => {
                obs.nsec3_observed
                    .extend(Nsec3Params::from_rdata(&rec.rdata));
                obs.opt_out |= rec.rdata.nsec3_opt_out() == Some(true);
            }
            RData::Nsec { .. } => obs.uses_nsec = true,
            _ => {}
        }
    }
    obs.class = classify(&obs);
    (obs, 0)
}

/// Apply the paper's filters to raw observations.
pub(crate) fn classify(obs: &DomainObservation) -> DomainClass {
    if obs.probe_loss {
        // Incomplete observations are never classified: a domain whose
        // probes were lost would otherwise masquerade as NotDnssec or
        // DnssecUnknownDenial and silently skew every share.
        return DomainClass::Unprobed;
    }
    if !obs.dnssec_enabled {
        return DomainClass::NotDnssec;
    }
    if obs.uses_nsec && obs.nsec3params.is_empty() && obs.nsec3_observed.is_empty() {
        return DomainClass::DnssecNsec;
    }
    if obs.nsec3params.is_empty() && obs.nsec3_observed.is_empty() {
        return DomainClass::DnssecUnknownDenial;
    }
    if obs.nsec3params.len() > 1 {
        return DomainClass::MultipleNsec3Params;
    }
    // All NSEC3 records must agree among themselves…
    let mut iter = obs.nsec3_observed.iter();
    let first = iter.next();
    if let Some(first) = first {
        if iter.any(|p| p != first) {
            return DomainClass::InconsistentNsec3;
        }
        // …and with the NSEC3PARAM (when we saw one).
        if let Some(param) = obs.nsec3params.first() {
            if param != first {
                return DomainClass::InconsistentNsec3;
            }
        }
        return DomainClass::Nsec3Enabled(first.clone());
    }
    // Only an NSEC3PARAM, no NSEC3 observed (e.g. wildcard swallowed the
    // probe): accept the advertised parameters, as the paper's pipeline
    // does when the one-to-one mapping holds.
    DomainClass::Nsec3Enabled(obs.nsec3params[0].clone())
}

/// Extract the "name server operator" for aggregation: the registered
/// domain of an NS target, approximated as the last two labels (we carry
/// no public-suffix list; the synthetic populations use two-label
/// operator domains so the approximation is exact there).
pub(crate) fn ns_operator(target: &Name) -> Option<Name> {
    let labels: Vec<&[u8]> = target.labels().collect();
    if labels.len() < 2 {
        return None;
    }
    Name::from_labels(labels[labels.len() - 2..].iter().map(|l| l.to_vec()))
        .ok()
        .map(|n| n.to_lowercase())
}

/// Which operators serve a domain *exclusively* (all NS targets under one
/// registered domain)? Returns that operator, else `None`.
pub fn exclusive_operator(ns_targets: &[Name]) -> Option<Name> {
    let mut ops: Vec<Name> = ns_targets.iter().filter_map(ns_operator).collect();
    ops.sort();
    ops.dedup();
    match ops.len() {
        1 => Some(ops.remove(0)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::{BreakerConfig, ProbeStats};
    use dns_resolver::CostSnapshot;
    use dns_wire::name::name;
    use dns_wire::record::Record;
    use dns_wire::rrtype::Rcode;
    use dns_wire::typebitmap::TypeBitmap;

    /// A hand-built resolution: `rcode` with these sections, after
    /// `timeouts` silent upstream exchanges.
    fn outcome(
        rcode: Rcode,
        answers: Vec<RData>,
        authorities: Vec<RData>,
        timeouts: u64,
    ) -> ResolveOutcome {
        let records = |rdata: Vec<RData>| -> Rc<[Record]> {
            rdata
                .into_iter()
                .map(|rd| Record::new(name("example.com."), 300, rd))
                .collect()
        };
        ResolveOutcome {
            rcode,
            authenticated: false,
            answers: records(answers),
            authorities: records(authorities),
            ede: None,
            budget_exceeded: false,
            cost: CostSnapshot {
                timeouts,
                ..CostSnapshot::default()
            },
        }
    }

    /// Feed `probe` one outcome per phase, checking each ask on the way,
    /// with the bookings in a fresh session; the observation and the
    /// session's counters.
    fn scan_by_hand(phases: Vec<(Ask, ResolveOutcome)>) -> (DomainObservation, ProbeStats) {
        let session = ScanSession::new(BreakerConfig::default());
        let mut probe = CensusProbe::new(name("example.com."));
        let last = phases.len() - 1;
        for (i, (ask, out)) in phases.into_iter().enumerate() {
            assert_eq!(probe.next.as_ref().err(), Some(&ask), "phase {i}");
            assert_eq!(probe.answer(Some(&session), out), i == last, "phase {i}");
        }
        (probe.into_observation(), session.stats())
    }

    #[test]
    fn a_lost_bootstrap_gives_up_the_three_other_phases() {
        let lost = outcome(Rcode::ServFail, vec![], vec![], 2);
        let (obs, stats) = scan_by_hand(vec![(Ask::Apex(RrType::DNSKEY), lost)]);
        assert_eq!(obs.class, DomainClass::Unprobed);
        assert!(obs.probe_loss);
        assert_eq!(obs.domain, name("example.com."));
        assert_eq!(
            (stats.sent, stats.timed_out, stats.circuit_skipped),
            (4, 1, 3)
        );
    }

    #[test]
    fn an_unsigned_domain_takes_one_phase() {
        let plain = outcome(Rcode::NoError, vec![], vec![], 0);
        let (obs, stats) = scan_by_hand(vec![(Ask::Apex(RrType::DNSKEY), plain)]);
        assert_eq!(obs.class, DomainClass::NotDnssec);
        assert_eq!(
            (stats.sent, stats.answered, stats.circuit_skipped),
            (1, 1, 0)
        );
    }

    #[test]
    fn an_nsec3_domain_takes_four_phases_and_yields_its_parameters() {
        let dnskey = RData::Dnskey {
            flags: 257,
            protocol: 3,
            algorithm: 8,
            public_key: vec![1, 2, 3],
        };
        let param = RData::Nsec3Param {
            hash_alg: 1,
            flags: 0,
            iterations: 10,
            salt: vec![0xab],
        };
        let nsec3 = RData::Nsec3 {
            hash_alg: 1,
            flags: 1,
            iterations: 10,
            salt: vec![0xab],
            next_hashed: vec![7; 20],
            types: TypeBitmap::from_types([RrType::A]),
        };
        let (obs, stats) = scan_by_hand(vec![
            (
                Ask::Apex(RrType::DNSKEY),
                outcome(Rcode::NoError, vec![dnskey], vec![], 0),
            ),
            (
                Ask::Apex(RrType::NSEC3PARAM),
                outcome(Rcode::NoError, vec![param], vec![], 0),
            ),
            (
                Ask::Apex(RrType::NS),
                outcome(
                    Rcode::NoError,
                    vec![RData::Ns(name("ns1.op.net."))],
                    vec![],
                    0,
                ),
            ),
            (
                Ask::Nonexistent,
                outcome(Rcode::NxDomain, vec![], vec![nsec3], 0),
            ),
        ]);
        let params = Nsec3Params::new(10, vec![0xab]);
        assert_eq!(obs.class, DomainClass::Nsec3Enabled(params.clone()));
        assert_eq!(
            (obs.nsec3params, obs.nsec3_observed),
            (vec![params.clone()], vec![params])
        );
        assert!(obs.dnssec_enabled && obs.opt_out && !obs.probe_loss);
        assert_eq!(obs.ns_targets, vec![name("ns1.op.net.")]);
        assert_eq!((stats.sent, stats.answered), (4, 4));
    }

    fn obs(
        dnssec: bool,
        params: Vec<Nsec3Params>,
        observed: Vec<Nsec3Params>,
        nsec: bool,
    ) -> DomainObservation {
        DomainObservation {
            domain: name("example.com."),
            dnssec_enabled: dnssec,
            nsec3params: params,
            nsec3_observed: observed,
            opt_out: false,
            uses_nsec: nsec,
            ns_targets: vec![],
            probe_loss: false,
            class: DomainClass::NotDnssec,
        }
    }

    #[test]
    fn classification_rules() {
        let p0 = Nsec3Params::rfc9276();
        let p1 = Nsec3Params::new(1, vec![1]);
        assert_eq!(
            classify(&obs(false, vec![], vec![], false)),
            DomainClass::NotDnssec
        );
        assert_eq!(
            classify(&obs(true, vec![], vec![], true)),
            DomainClass::DnssecNsec
        );
        assert_eq!(
            classify(&obs(true, vec![], vec![], false)),
            DomainClass::DnssecUnknownDenial
        );
        assert_eq!(
            classify(&obs(true, vec![p0.clone(), p1.clone()], vec![], false)),
            DomainClass::MultipleNsec3Params
        );
        assert_eq!(
            classify(&obs(
                true,
                vec![p0.clone()],
                vec![p0.clone(), p1.clone()],
                false
            )),
            DomainClass::InconsistentNsec3
        );
        assert_eq!(
            classify(&obs(true, vec![p0.clone()], vec![p1.clone()], false)),
            DomainClass::InconsistentNsec3
        );
        assert_eq!(
            classify(&obs(true, vec![p1.clone()], vec![p1.clone()], false)),
            DomainClass::Nsec3Enabled(p1.clone())
        );
        assert_eq!(
            classify(&obs(true, vec![p0.clone()], vec![], false)),
            DomainClass::Nsec3Enabled(p0)
        );
    }

    #[test]
    fn probe_loss_is_never_misclassified() {
        // Even an observation that "looks" NotDnssec or NSEC3-enabled is
        // reported as lost coverage once any phase went unanswered.
        let mut lossy = obs(false, vec![], vec![], false);
        lossy.probe_loss = true;
        assert_eq!(classify(&lossy), DomainClass::Unprobed);
        let mut lossy = obs(true, vec![Nsec3Params::rfc9276()], vec![], false);
        lossy.probe_loss = true;
        assert_eq!(classify(&lossy), DomainClass::Unprobed);
        assert!(classify(&lossy).nsec3_enabled().is_none());
    }

    #[test]
    fn operator_extraction() {
        assert_eq!(
            ns_operator(&name("ns1.dns.squarespace-dns.com.")).unwrap(),
            name("squarespace-dns.com.")
        );
        assert_eq!(ns_operator(&name("com.")), None);
        assert_eq!(
            exclusive_operator(&[name("ns1.one.com."), name("NS2.ONE.COM."),]).unwrap(),
            name("one.com.")
        );
        assert_eq!(
            exclusive_operator(&[name("ns1.one.com."), name("ns1.two.net.")]),
            None
        );
        assert_eq!(exclusive_operator(&[]), None);
    }
}
