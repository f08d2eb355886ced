//! RIPE-Atlas-style measurement of *closed* resolvers (§4.2).
//!
//! Closed resolvers only answer clients inside their own network. The
//! paper reached them through RIPE Atlas probes configured with those
//! resolvers as their local DNS; the probe API does not expose EDE data,
//! which is why the paper's EDE analysis covers open resolvers only.
//! Both constraints are modeled here.

use std::collections::HashSet;
use std::net::IpAddr;
use std::rc::Rc;

use netsim::{Network, Node, RetryPolicy};

use crate::prober::{ProbeFlow, ProbePlan, Prober, ResolverClassification};
use crate::retry::ScanSession;

/// A wrapper that makes any resolver node *closed*: datagrams from
/// addresses outside the allowlist are silently dropped.
pub struct ClosedResolver {
    inner: Rc<dyn Node>,
    allowed: HashSet<IpAddr>,
}

impl ClosedResolver {
    /// Close `inner` to everyone except `allowed`.
    pub fn new(inner: Rc<dyn Node>, allowed: impl IntoIterator<Item = IpAddr>) -> Self {
        ClosedResolver {
            inner,
            allowed: allowed.into_iter().collect(),
        }
    }
}

impl Node for ClosedResolver {
    fn handle(
        &self,
        net: &Network,
        src: IpAddr,
        payload: &[u8],
        reply: &mut Vec<u8>,
    ) -> Option<()> {
        if !self.allowed.contains(&src) {
            return None; // closed: drop silently
        }
        self.inner.handle(net, src, payload, reply)
    }
}

/// A RIPE-Atlas-like probe: a vantage point inside some network, bound to
/// its local (closed) resolver.
#[derive(Clone, Debug)]
pub struct AtlasProbe {
    /// The probe's own address (must be allow-listed on the resolver).
    pub addr: IpAddr,
    /// The probe's local resolver.
    pub local_resolver: IpAddr,
}

/// Run the §4.2 classification from an Atlas probe. EDE data is not
/// captured (the Atlas API does not supply it). A resolver that never
/// answers comes back with `unreachable = true` — it stays in the study
/// denominator.
pub fn classify_via_probe(
    net: &Network,
    probe: &AtlasProbe,
    plan: &ProbePlan,
) -> ResolverClassification {
    let mut prober = Prober::new(net, probe.addr, plan);
    prober.capture_ede = false;
    prober.classify(probe.local_resolver)
}

/// [`classify_via_probe`] threaded through a retry/breaker session (so
/// the probe's traffic is loss-accounted alongside the open-resolver
/// scan), as a steppable [`ProbeFlow`] an event driver can hold in
/// flight alongside thousands of others.
pub fn classification_flow_via_probe<'a>(
    net: &'a Network,
    probe: &AtlasProbe,
    plan: &'a ProbePlan,
    policy: RetryPolicy,
    session: &'a ScanSession,
) -> ProbeFlow<'a> {
    let mut prober = Prober::new(net, probe.addr, plan).with_session(session, policy);
    prober.capture_ede = false;
    prober.classification_flow(probe.local_resolver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Outcome;

    struct Echo;
    impl Node for Echo {
        fn handle(
            &self,
            _net: &Network,
            _src: IpAddr,
            payload: &[u8],
            reply: &mut Vec<u8>,
        ) -> Option<()> {
            reply.extend_from_slice(payload);
            Some(())
        }
    }

    #[test]
    fn closed_resolver_drops_outsiders() {
        let net = Network::new(1);
        let inside: IpAddr = "10.1.0.2".parse().unwrap();
        let outside: IpAddr = "10.2.0.2".parse().unwrap();
        let raddr: IpAddr = "10.1.0.53".parse().unwrap();
        let closed = ClosedResolver::new(Rc::new(Echo), [inside]);
        net.register(raddr, Rc::new(closed));
        let answered = |src| matches!(net.send_query(src, raddr, b"q"), Outcome::Response { .. });
        assert!(answered(inside));
        assert!(!answered(outside));
    }
}
