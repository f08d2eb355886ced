//! The §4.1 domain-census methodology, zdns-style.
//!
//! For every registered domain: query `DNSKEY` (through the configured
//! recursive resolver, as the paper did through Cloudflare); if present,
//! query `NSEC3PARAM` and `NS`; then query a random nonexistent subdomain
//! to elicit NSEC3 records, and apply the paper's consistency filters
//! (exactly one NSEC3PARAM; all NSEC3 records agree with each other and
//! with the NSEC3PARAM).

use dns_resolver::resolver::{ResolveOutcome, Resolver};
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::rrtype::RrType;
use dns_zone::nsec3hash::Nsec3Params;
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

    /// Book one phase's outcome in the session, if any, and say whether
    /// its probe was lost (the rule is [`ScanSession::book`]).
    fn note_phase(&self, out: &ResolveOutcome) -> bool {
        self.session
            .map_or_else(|| out.probe_lost(), |session| session.book(out))
    }

    /// Run the three-phase §4.1 scan for one domain: drive a
    /// [`CensusProbe`] to completion inline. Event-driven pipelines step
    /// the same machine one phase at a time instead.
    pub fn observe(&self, domain: &Name) -> DomainObservation {
        let mut probe = CensusProbe::new(domain.clone());
        while !probe.step(self) {}
        probe.into_observation()
    }
}

/// Which phase a [`CensusProbe`] runs next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CensusPhase {
    /// Phase 1: DNSKEY bootstrap.
    Dnskey,
    /// Phase 2a: NSEC3PARAM at the apex.
    Params,
    /// Phase 2b: NS targets.
    Ns,
    /// Phase 3: random-subdomain negative probe.
    Negative,
    /// All phases ran (or an early exit fired); the observation is final.
    Done,
}

/// The §4.1 scan for one domain as an explicit per-flow state machine:
/// each [`CensusProbe::step`] paces and runs exactly one probe phase.
/// [`Census::observe`] drives it inline; the event-driven census parks
/// the flow between phases instead, interleaving many domains. Both
/// orders of phases-within-a-domain are identical by construction — this
/// machine is the only implementation.
#[derive(Debug)]
pub struct CensusProbe {
    obs: DomainObservation,
    phase: CensusPhase,
}

impl CensusProbe {
    /// A fresh three-phase probe for `domain`.
    pub fn new(domain: Name) -> Self {
        CensusProbe {
            obs: DomainObservation {
                domain,
                dnssec_enabled: false,
                nsec3params: Vec::new(),
                nsec3_observed: Vec::new(),
                opt_out: false,
                uses_nsec: false,
                ns_targets: Vec::new(),
                probe_loss: false,
                class: DomainClass::NotDnssec,
            },
            phase: CensusPhase::Dnskey,
        }
    }

    /// All phases complete?
    pub(crate) fn done(&self) -> bool {
        self.phase == CensusPhase::Done
    }

    /// Run one phase through `census` (its pacer, resolver, and session).
    /// Returns `true` once the observation is final.
    pub fn step(&mut self, census: &Census<'_>) -> bool {
        let obs = &mut self.obs;
        match self.phase {
            CensusPhase::Dnskey => {
                census.rate.pace(census.net);
                let dnskey = census
                    .resolver
                    .resolve(census.net, &obs.domain, RrType::DNSKEY);
                if census.note_phase(&dnskey) {
                    // The bootstrap phase never completed: without it we
                    // cannot even tell DNSSEC from plain DNS, so the
                    // domain is lost coverage, not "NotDnssec". The
                    // remaining phases are given up on (accounted as
                    // skipped, not silently dropped).
                    if let Some(session) = census.session {
                        for _ in 0..3 {
                            session.note_skipped();
                        }
                    }
                    obs.probe_loss = true;
                    obs.class = DomainClass::Unprobed;
                    self.phase = CensusPhase::Done;
                } else {
                    obs.dnssec_enabled =
                        dnskey.answers.iter().any(|r| r.rrtype() == RrType::DNSKEY);
                    // A plain-DNS domain needs no further phases and
                    // keeps the default NotDnssec class.
                    self.phase = if obs.dnssec_enabled {
                        CensusPhase::Params
                    } else {
                        CensusPhase::Done
                    };
                }
            }
            CensusPhase::Params => {
                census.rate.pace(census.net);
                let params = census
                    .resolver
                    .resolve(census.net, &obs.domain, RrType::NSEC3PARAM);
                obs.probe_loss |= census.note_phase(&params);
                for rec in params.answers.iter() {
                    if let Some(p) = Nsec3Params::from_rdata(&rec.rdata) {
                        obs.nsec3params.push(p);
                    }
                }
                self.phase = CensusPhase::Ns;
            }
            CensusPhase::Ns => {
                census.rate.pace(census.net);
                let ns = census.resolver.resolve(census.net, &obs.domain, RrType::NS);
                obs.probe_loss |= census.note_phase(&ns);
                for rec in ns.answers.iter() {
                    if let RData::Ns(target) = &rec.rdata {
                        obs.ns_targets.push(target.clone());
                    }
                }
                self.phase = CensusPhase::Negative;
            }
            CensusPhase::Negative => {
                census.rate.pace(census.net);
                let probe = Name::parse(&format!("zz-{}-probe", census.scan_id))
                    .and_then(|p| p.concat(&obs.domain))
                    .unwrap_or_else(|_| obs.domain.clone());
                let neg = census.resolver.resolve(census.net, &probe, RrType::A);
                obs.probe_loss |= census.note_phase(&neg);
                // Any rcode will do: NXDOMAIN and wildcard NOERROR both carry denials.
                let denial_records = neg.authorities.iter().chain(neg.answers.iter());
                for rec in denial_records {
                    match &rec.rdata {
                        RData::Nsec3 { .. } => {
                            if let Some(p) = Nsec3Params::from_rdata(&rec.rdata) {
                                obs.nsec3_observed.push(p);
                            }
                            if rec.rdata.nsec3_opt_out() == Some(true) {
                                obs.opt_out = true;
                            }
                        }
                        RData::Nsec { .. } => obs.uses_nsec = true,
                        _ => {}
                    }
                }
                obs.class = classify(obs);
                self.phase = CensusPhase::Done;
            }
            CensusPhase::Done => {}
        }
        self.done()
    }

    /// The finished (or abandoned) observation.
    pub fn into_observation(self) -> DomainObservation {
        self.obs
    }
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
    use dns_wire::name::name;

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
