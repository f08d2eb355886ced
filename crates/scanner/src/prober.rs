//! The §4.2 resolver-classification methodology: probe each resolver with
//! the `rfc9276-in-the-wild.com` testbed names and classify its RFC 9276
//! behaviour from the observed RCODEs, AD bits, and EDEs.

use std::future::Future;
use std::net::IpAddr;
use std::pin::Pin;
use std::rc::Rc;

use dns_resolver::broken::ObservedResponse;
use dns_wire::message::Message;
use dns_wire::name::Name;
use dns_wire::rrtype::{Rcode, RrType};
use netsim::event::{FlowStep, Port};
use netsim::{exchange, Network, Outcome, RetryPolicy};

use crate::reply_to;
use crate::retry::ScanSession;

/// The probe plan derived from the testbed: which names to query.
#[derive(Clone, Debug)]
pub struct ProbePlan {
    /// An existing, correctly-signed name (expect NOERROR + AD from a
    /// validator).
    pub valid: Name,
    /// An existing name under the expired-signature zone (expect SERVFAIL
    /// from a validator).
    pub expired: Name,
    /// `(additional iterations, zone apex)` pairs, ascending by N.
    pub it_zones: Vec<(u16, Name)>,
    /// The `it-2501-expired` zone apex (iterations beyond every RFC 5155
    /// limit *and* expired NSEC3 RRSIGs), if deployed.
    pub it_2501_expired: Option<Name>,
}

/// One resolver's full classification.
#[derive(Clone, Debug)]
pub struct ResolverClassification {
    /// The probed resolver.
    pub resolver: IpAddr,
    /// Passed the validator test (AD on valid, SERVFAIL on expired).
    pub is_validator: bool,
    /// Per-N observation (N, response), ascending by N.
    pub responses: Vec<(u16, ObservedResponse)>,
    /// The delimiting value: AD set up to here, clear above (clean
    /// threshold behaviour). Present for item 6 *and* clean item 8
    /// resolvers; combine with [`ResolverClassification::has_insecure_band`]
    /// to tell them apart.
    pub insecure_limit: Option<u16>,
    /// Some responses were plain NXDOMAIN without AD — the item 6
    /// "insecure" band exists.
    pub has_insecure_band: bool,
    /// Item 8: first N answered with SERVFAIL (monotonically above).
    pub servfail_start: Option<u16>,
    /// Attached EDE 27 when limiting.
    pub ede27_on_limit: bool,
    /// Any EDE code observed on limited responses.
    pub limit_ede_codes: Vec<u16>,
    /// Item 7 violation: returned NXDOMAIN for `it-2501-expired` despite
    /// implementing the insecure downgrade. `None` = not tested.
    pub item7_violation: Option<bool>,
    /// Item 12: a gap of insecure responses between the AD limit and the
    /// SERVFAIL start.
    pub item12_gap: bool,
    /// Responses were non-monotone in N (the paper's "flaky" resolvers).
    pub flaky: bool,
    /// RA bit was clear on responses (query-copier fingerprint).
    pub ra_missing: bool,
    /// Every N the plan intended to probe (ascending). Compared against
    /// `responses` to detect coverage gaps.
    pub probed_ns: Vec<u16>,
    /// The bootstrap probes (`valid` / `expired`) never got an answer:
    /// the resolver could not be classified at all. It still counts in
    /// the study denominator — unreachable, not absent.
    pub unreachable: bool,
    /// Some per-N probes went unanswered: the observation is incomplete
    /// and derived limits are suppressed rather than guessed from a
    /// subset (graceful degradation).
    pub partial: bool,
}

impl ResolverClassification {
    /// A blank classification for `resolver`: nothing observed yet.
    pub fn empty(resolver: IpAddr) -> Self {
        ResolverClassification {
            resolver,
            is_validator: false,
            responses: Vec::new(),
            insecure_limit: None,
            has_insecure_band: false,
            servfail_start: None,
            ede27_on_limit: false,
            limit_ede_codes: Vec::new(),
            item7_violation: None,
            item12_gap: false,
            flaky: false,
            ra_missing: false,
            probed_ns: Vec::new(),
            unreachable: false,
            partial: false,
        }
    }

    /// RFC 9276 item 6: a delimiting value above which responses are
    /// insecure NXDOMAINs.
    pub fn implements_item6(&self) -> bool {
        self.has_insecure_band && self.insecure_limit.is_some() && !self.flaky
    }

    /// RFC 9276 item 8: SERVFAIL above a threshold.
    pub fn implements_item8(&self) -> bool {
        self.servfail_start.is_some() && !self.flaky
    }
}

/// The prober: one vantage address plus the plan.
#[derive(Clone, Copy)]
pub struct Prober<'a> {
    /// The network.
    pub net: &'a Network,
    /// Source address for probe queries.
    pub src: IpAddr,
    /// The testbed name plan.
    pub plan: &'a ProbePlan,
    /// Capture EDE data (false when probing through RIPE-Atlas-style
    /// vantage points, which do not expose EDE).
    pub capture_ede: bool,
    /// Per-query retry schedule. [`RetryPolicy::fixed`] reproduces the
    /// legacy flat retry loop exactly.
    pub policy: RetryPolicy,
    /// Shared retry/breaker session: when set, every probe is accounted
    /// in its [`crate::retry::ProbeStats`] and dead resolvers are
    /// short-circuited by its breaker.
    pub session: Option<&'a ScanSession>,
}

impl<'a> Prober<'a> {
    /// Build a prober.
    pub fn new(net: &'a Network, src: IpAddr, plan: &'a ProbePlan) -> Self {
        Prober {
            net,
            src,
            plan,
            capture_ede: true,
            policy: RetryPolicy::fixed(2),
            session: None,
        }
    }

    /// The same prober, threaded through a [`ScanSession`] with `policy`.
    pub fn with_session(mut self, session: &'a ScanSession, policy: RetryPolicy) -> Self {
        self.session = Some(session);
        self.policy = policy;
        self
    }

    /// The observation the classifier consumes (EDE stripped for
    /// Atlas-style vantage points), read off the reply to `query`; a
    /// reply that does not answer `query` ([`reply_to`]) is no answer.
    fn interpret(&self, query: &Message, outcome: Outcome) -> Option<ObservedResponse> {
        let Outcome::Response { payload, .. } = outcome else {
            return None;
        };
        let reply = reply_to(query, &payload)?;
        let mut obs = ObservedResponse::from_message(&reply);
        if !self.capture_ede {
            obs.ede = None;
            obs.ede_has_text = false;
        }
        Some(obs)
    }

    /// A unique probe name under `apex` for this resolver (cache busting,
    /// and the way the paper tied log lines to resolvers).
    fn probe_name(&self, apex: &Name, resolver: IpAddr, tag: &str) -> Name {
        let id = match resolver {
            IpAddr::V4(a) => u32::from(a) as u64,
            IpAddr::V6(a) => u128::from(a) as u64,
        };
        Name::parse(&format!("p{tag}-{id:x}"))
            .and_then(|p| p.concat(apex))
            .unwrap_or_else(|_| apex.clone())
    }

    /// Run the full §4.2 classification against one resolver. Always
    /// returns a classification: a resolver whose bootstrap probes stay
    /// silent comes back with `unreachable = true` (it stays in the
    /// study denominator), and one with per-N coverage gaps comes back
    /// `partial` with derived limits suppressed.
    ///
    /// Implemented by driving a [`ProbeFlow`] inline — the event-driven
    /// study steps the identical flow, parking between attempts.
    pub fn classify(&self, resolver: IpAddr) -> ResolverClassification {
        self.drive_flow(self.classification_flow(resolver))
    }

    /// The full classification as a steppable [`ProbeFlow`] — what
    /// [`Prober::classify`] drives inline, handed out so an event driver
    /// can keep many classifications in flight at once.
    pub fn classification_flow(&self, resolver: IpAddr) -> ProbeFlow<'a> {
        ProbeFlow::new(*self, resolver)
    }

    /// Drive `flow` to completion on the calling thread, advancing the
    /// virtual clock across each park (what the event queue does for
    /// event-driven flows).
    fn drive_flow(&self, mut flow: ProbeFlow<'a>) -> ResolverClassification {
        while let FlowStep::Park { at_micros } = flow.step() {
            self.net.advance_to(at_micros);
        }
        flow.into_classification()
    }

    /// The §4.2 probe sequence against `resolver`, top to bottom: the two
    /// bootstrap probes, one probe per `it-N` zone, the derived limits,
    /// and — for an insecure-downgrade resolver — the `it-2501-expired`
    /// follow-up.
    /// Between two probes it parks at *now* on `port`, so an event driver
    /// can interleave other flows there.
    async fn classification(
        self,
        resolver: IpAddr,
        port: Rc<Port<u64, ()>>,
    ) -> ResolverClassification {
        let mut out = ResolverClassification::empty(resolver);
        let valid = self.probe(resolver, &self.plan.valid, &port).await;
        port.wait(self.net.now_micros()).await;
        let expired = self.probe(resolver, &self.plan.expired, &port).await;
        let (Some(valid), Some(expired)) = (valid, expired) else {
            // Bootstrap probes lost: no basis for any classification.
            out.unreachable = true;
            return out;
        };
        out.is_validator =
            valid.ad && valid.rcode == Rcode::NoError && expired.rcode == Rcode::ServFail;
        out.ra_missing = !valid.ra;
        if !out.is_validator {
            // A non-validator is final: nothing further to probe.
            return out;
        }
        for (n, apex) in &self.plan.it_zones {
            port.wait(self.net.now_micros()).await;
            // The plan's intent is recorded as the probe is sent —
            // coverage gaps are detected against it.
            out.probed_ns.push(*n);
            let qname = self.probe_name(apex, resolver, "a");
            if let Some(obs) = self.probe(resolver, &qname, &port).await {
                out.responses.push((*n, obs));
            }
        }
        derive_limits(&mut out);
        // The item 7 test only makes sense for insecure-downgrade
        // resolvers.
        if out.insecure_limit.is_some() {
            if let Some(apex) = &self.plan.it_2501_expired {
                port.wait(self.net.now_micros()).await;
                let qname = self.probe_name(apex, resolver, "b");
                if let Some(obs) = self.probe(resolver, &qname, &port).await {
                    out.item7_violation = Some(obs.rcode == Rcode::NxDomain);
                }
            }
        }
        out
    }

    /// One logical query for `qname`: the session breaker's verdict (a
    /// skipped query is no answer), the policy's wire attempts with a
    /// park on `port` across every backoff, then the session booking.
    async fn probe(
        &self,
        resolver: IpAddr,
        qname: &Name,
        port: &Port<u64, ()>,
    ) -> Option<ObservedResponse> {
        if self.session.is_some_and(|s| !s.admit(self.net, resolver)) {
            return None;
        }
        let query = Message::query((qname.wire_len() as u16) ^ 0x5aa5, qname.clone(), RrType::A);
        let bytes = query.encode();
        let report = exchange(self.net, self.src, resolver, &bytes, &self.policy, port).await;
        let obs = self.interpret(&query, report.outcome);
        if let Some(session) = self.session {
            // A reply that answers nothing is booked as none, not retried.
            session.settle(self.net, resolver, report.attempts, obs.is_some());
        }
        obs
    }
}

/// The full §4.2 classification of one resolver as a steppable flow: each
/// [`ProbeFlow::step`] sends at most one wire attempt, parking across
/// retry backoffs and at *now* between probes, so an event driver can
/// keep thousands of classifications in flight. The probe sequence is
/// one `async fn` (`Prober::classification`) that waits on a [`Port`]
/// with the due time of each park; [`Prober::classify`] drives the same
/// flow inline (window of one).
pub struct ProbeFlow<'a> {
    /// Where the classification parks: the due time out, nothing back.
    port: Rc<Port<u64, ()>>,
    /// The classification, run to its next park by each step.
    future: Pin<Box<dyn Future<Output = ResolverClassification> + 'a>>,
    out: Option<ResolverClassification>,
}

impl<'a> ProbeFlow<'a> {
    /// A fresh classification flow for `resolver`.
    fn new(prober: Prober<'a>, resolver: IpAddr) -> Self {
        let port = Rc::<Port<u64, ()>>::default();
        let future = prober.classification(resolver, port.clone());
        ProbeFlow {
            port,
            future: Box::pin(future),
            out: None,
        }
    }

    /// The finished classification.
    ///
    /// # Panics
    ///
    /// Panics unless [`ProbeFlow::step`] returned [`FlowStep::Done`].
    pub fn into_classification(self) -> ResolverClassification {
        self.out.expect("classification flow stepped to Done")
    }

    /// Advance by at most one wire attempt. Returns
    /// [`FlowStep::Park`] with the next due time (a retry backoff, or
    /// *now* between probes) until the classification is final.
    ///
    /// # Panics
    ///
    /// Panics when called again after [`FlowStep::Done`].
    pub fn step(&mut self) -> FlowStep {
        match self.port.resume(self.future.as_mut(), ()) {
            Ok(out) => {
                self.out = Some(out);
                FlowStep::Done
            }
            Err(at_micros) => FlowStep::Park { at_micros },
        }
    }
}

/// Derive the limit values and compliance bits from raw per-N responses.
///
/// Graceful degradation: when `probed_ns` records the plan's intent and
/// some of those probes went unanswered, the classification is marked
/// `partial` and the derived limits (`insecure_limit`, `servfail_start`,
/// and everything downstream of them) are **suppressed** — a subset of
/// responses must never invent a limit the missing responses could
/// contradict. Flakiness detection still runs on whatever was observed:
/// an out-of-order pattern is flaky no matter how incomplete.
pub fn derive_limits(c: &mut ResolverClassification) {
    c.partial = !c.probed_ns.is_empty() && c.responses.len() < c.probed_ns.len();
    #[derive(PartialEq, Clone, Copy, Debug)]
    enum Kind {
        AdNx,
        Nx,
        ServFail,
        Other,
    }
    let kinds: Vec<(u16, Kind)> = c
        .responses
        .iter()
        .map(|(n, o)| {
            let k = match (o.rcode, o.ad) {
                (Rcode::NxDomain, true) => Kind::AdNx,
                (Rcode::NxDomain, false) => Kind::Nx,
                (Rcode::ServFail, _) => Kind::ServFail,
                _ => Kind::Other,
            };
            (*n, k)
        })
        .collect();
    if kinds.is_empty() {
        return;
    }
    // Monotonicity check: AD+NXDOMAIN* then NXDOMAIN* then SERVFAIL*.
    let rank = |k: Kind| match k {
        Kind::AdNx => 0,
        Kind::Nx => 1,
        Kind::ServFail => 2,
        Kind::Other => 3,
    };
    let mut last_rank = 0;
    for (_, k) in &kinds {
        let r = rank(*k);
        if r == 3 {
            continue;
        }
        if r < last_rank {
            c.flaky = true;
        }
        last_rank = last_rank.max(r);
    }
    // Delimiting AD value.
    let last_ad = kinds
        .iter()
        .filter(|(_, k)| *k == Kind::AdNx)
        .map(|(n, _)| *n)
        .max();
    let first_nonad = kinds
        .iter()
        .filter(|(_, k)| matches!(k, Kind::Nx | Kind::ServFail))
        .map(|(n, _)| *n)
        .min();
    c.has_insecure_band = kinds.iter().any(|(_, k)| *k == Kind::Nx);
    if let (Some(hi), Some(lo)) = (last_ad, first_nonad) {
        if hi < lo {
            c.insecure_limit = Some(hi);
        }
    } else if last_ad.is_none() && kinds.first().map(|(_, k)| *k == Kind::Nx).unwrap_or(false) {
        // Never AD on any it-N yet NXDOMAINs throughout (but a validator
        // on `valid`): the delimiting value is effectively 0.
        c.insecure_limit = Some(0);
    }
    // SERVFAIL start.
    c.servfail_start = kinds
        .iter()
        .filter(|(_, k)| *k == Kind::ServFail)
        .map(|(n, _)| *n)
        .min();
    if let Some(start) = c.servfail_start {
        // Confirm it holds above (otherwise flaky).
        if kinds
            .iter()
            .any(|(n, k)| *n > start && *k != Kind::ServFail)
        {
            c.flaky = true;
        }
    }
    // Item 12 gap: plain-NXDOMAIN band strictly between the AD limit and
    // the SERVFAIL band.
    if let Some(start) = c.servfail_start {
        let gap_exists = kinds.iter().any(|(n, k)| *k == Kind::Nx && *n < start);
        if gap_exists {
            c.item12_gap = true;
        }
    }
    // EDE on the first limited response.
    let limited = c
        .responses
        .iter()
        .find(|(n, o)| {
            let past_insecure = c.insecure_limit.map(|l| *n > l).unwrap_or(false);
            let past_servfail = c.servfail_start.map(|s| *n >= s).unwrap_or(false);
            (past_insecure || past_servfail) && o.ede.is_some()
        })
        .and_then(|(_, o)| o.ede);
    if let Some(code) = limited {
        c.limit_ede_codes.push(code);
        if code == 27 {
            c.ede27_on_limit = true;
        }
    }
    if c.partial {
        c.insecure_limit = None;
        c.servfail_start = None;
        c.item12_gap = false;
        c.ede27_on_limit = false;
        c.limit_ede_codes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(rcode: Rcode, ad: bool, ede: Option<u16>) -> ObservedResponse {
        ObservedResponse {
            rcode,
            ad,
            ra: true,
            ede,
            ede_has_text: false,
        }
    }

    fn classification(responses: Vec<(u16, ObservedResponse)>) -> ResolverClassification {
        let mut c = ResolverClassification::empty("10.0.0.1".parse().unwrap());
        c.is_validator = true;
        c.responses = responses;
        derive_limits(&mut c);
        c
    }

    #[test]
    fn clean_item6_at_150() {
        let mut rs = Vec::new();
        for n in [1u16, 50, 100, 150] {
            rs.push((n, obs(Rcode::NxDomain, true, None)));
        }
        for n in [151u16, 200, 500] {
            rs.push((n, obs(Rcode::NxDomain, false, Some(27))));
        }
        let c = classification(rs);
        assert_eq!(c.insecure_limit, Some(150));
        assert_eq!(c.servfail_start, None);
        assert!(c.ede27_on_limit);
        assert!(c.implements_item6());
        assert!(!c.implements_item8());
        assert!(!c.item12_gap);
        assert!(!c.flaky);
    }

    #[test]
    fn clean_item8_at_151() {
        let mut rs = Vec::new();
        for n in [1u16, 100, 150] {
            rs.push((n, obs(Rcode::NxDomain, true, None)));
        }
        for n in [151u16, 200, 500] {
            rs.push((n, obs(Rcode::ServFail, false, None)));
        }
        let c = classification(rs);
        assert_eq!(c.servfail_start, Some(151));
        assert_eq!(c.insecure_limit, Some(150));
        assert!(!c.has_insecure_band);
        assert!(c.implements_item8());
        assert!(!c.implements_item6());
        assert!(!c.item12_gap);
    }

    #[test]
    fn servfail_from_it1() {
        let mut rs = Vec::new();
        for n in [1u16, 2, 50, 500] {
            rs.push((n, obs(Rcode::ServFail, false, None)));
        }
        let c = classification(rs);
        assert_eq!(c.servfail_start, Some(1));
        assert_eq!(c.insecure_limit, None);
        assert!(c.implements_item8());
        assert!(!c.implements_item6());
    }

    #[test]
    fn item12_gap_detected() {
        let rs = vec![
            (50u16, obs(Rcode::NxDomain, true, None)),
            (100, obs(Rcode::NxDomain, false, None)),
            (150, obs(Rcode::NxDomain, false, None)),
            (151, obs(Rcode::ServFail, false, None)),
            (200, obs(Rcode::ServFail, false, None)),
        ];
        let c = classification(rs);
        assert_eq!(c.insecure_limit, Some(50));
        assert_eq!(c.servfail_start, Some(151));
        assert!(c.item12_gap);
    }

    #[test]
    fn flaky_non_monotone() {
        let rs = vec![
            (50u16, obs(Rcode::NxDomain, true, None)),
            (100, obs(Rcode::ServFail, false, None)),
            (150, obs(Rcode::NxDomain, true, None)),
        ];
        let c = classification(rs);
        assert!(c.flaky);
    }

    #[test]
    fn no_limit_resolver() {
        let mut rs = Vec::new();
        for n in [1u16, 150, 500] {
            rs.push((n, obs(Rcode::NxDomain, true, None)));
        }
        let c = classification(rs);
        assert_eq!(c.insecure_limit, None);
        assert_eq!(c.servfail_start, None);
    }

    #[test]
    fn partial_coverage_suppresses_derived_limits() {
        let mut c = ResolverClassification::empty("10.0.0.1".parse().unwrap());
        c.is_validator = true;
        c.probed_ns = vec![1, 50, 100, 150, 151, 200, 500];
        // Looks exactly like a clean item-6 resolver at 50 — but three
        // probes never came back, so 50 must not be presented as the
        // limit (the missing 100/150 answers could contradict it).
        c.responses = vec![
            (1, obs(Rcode::NxDomain, true, None)),
            (50, obs(Rcode::NxDomain, true, None)),
            (151, obs(Rcode::NxDomain, false, Some(27))),
            (200, obs(Rcode::NxDomain, false, None)),
        ];
        derive_limits(&mut c);
        assert!(c.partial);
        assert_eq!(c.insecure_limit, None);
        assert_eq!(c.servfail_start, None);
        assert!(!c.ede27_on_limit);
        assert!(c.limit_ede_codes.is_empty());
        assert!(!c.implements_item6());
        assert!(!c.implements_item8());
    }

    #[test]
    fn full_coverage_with_probed_ns_classifies_normally() {
        let mut c = ResolverClassification::empty("10.0.0.1".parse().unwrap());
        c.is_validator = true;
        c.probed_ns = vec![1, 150, 151];
        c.responses = vec![
            (1, obs(Rcode::NxDomain, true, None)),
            (150, obs(Rcode::NxDomain, true, None)),
            (151, obs(Rcode::NxDomain, false, None)),
        ];
        derive_limits(&mut c);
        assert!(!c.partial);
        assert_eq!(c.insecure_limit, Some(150));
    }

    #[test]
    fn partial_observation_still_detects_flakiness() {
        let mut c = ResolverClassification::empty("10.0.0.1".parse().unwrap());
        c.is_validator = true;
        c.probed_ns = vec![1, 50, 100, 150];
        c.responses = vec![
            (50, obs(Rcode::ServFail, false, None)),
            (150, obs(Rcode::NxDomain, true, None)),
        ];
        derive_limits(&mut c);
        assert!(c.partial);
        assert!(c.flaky, "out-of-order even on the observed subset");
    }

    #[test]
    fn ad_never_set_means_limit_zero() {
        let mut rs = Vec::new();
        for n in [1u16, 25, 500] {
            rs.push((n, obs(Rcode::NxDomain, false, None)));
        }
        let c = classification(rs);
        assert_eq!(c.insecure_limit, Some(0));
    }
}
