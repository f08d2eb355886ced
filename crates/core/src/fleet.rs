//! Deploying a `popgen` resolver fleet onto a lab network: every
//! behavioural archetype becomes a real resolver node whose
//! configuration carries the corresponding RFC 9276 policy and, for the
//! query copiers and flaky resolvers, its [`Quirk`].

use std::net::IpAddr;
use std::rc::Rc;

use dns_resolver::lab::Lab;
use dns_resolver::policy::Rfc9276Policy;
use dns_resolver::resolver::{Quirk, Resolver, ResolverConfig};
use dns_scanner::atlas::{AtlasProbe, ClosedResolver};
use dns_wire::edns::EdeCode;
use popgen::resolvers::{Access, Behavior, Family, ResolverSpec};

/// One fleet member on the network.
#[derive(Clone, Debug)]
pub struct DeployedResolver {
    /// The generating spec.
    pub spec: ResolverSpec,
    /// Service address.
    pub addr: IpAddr,
    /// For closed resolvers: the Atlas-style probe that can reach it.
    pub probe: Option<AtlasProbe>,
}

/// The policy a behavioural archetype ships with. `ede_visible` models
/// forwarding middleboxes that strip EDE options.
pub fn policy_for(behavior: &Behavior, ede_visible: bool) -> Rfc9276Policy {
    let mut policy = match behavior {
        Behavior::NonValidator | Behavior::ValidatorUnlimited => Rfc9276Policy::unlimited(),
        Behavior::InsecureAt {
            limit,
            google_style,
        } => {
            let mut p = Rfc9276Policy::insecure_above(*limit);
            if *google_style {
                p.ede_code = EdeCode::DNSSEC_INDETERMINATE;
            }
            p
        }
        Behavior::ServfailFrom { first, technitium } => {
            let mut p = Rfc9276Policy::servfail_above(first.saturating_sub(1));
            if *technitium {
                p.ede_extra_text =
                    "NSEC3 iterations count is greater than the allowed maximum".into();
            }
            p
        }
        Behavior::QueryCopier => Rfc9276Policy {
            emit_ede: false,
            ..Rfc9276Policy::servfail_above(0)
        },
        Behavior::FlakyGap { insecure, .. } => Rfc9276Policy::insecure_above(*insecure),
        Behavior::Item7Violator { limit } => {
            let mut p = Rfc9276Policy::insecure_above(*limit);
            p.verify_nsec3_rrsig = false;
            p
        }
    };
    if !ede_visible {
        policy.emit_ede = false;
    }
    policy
}

/// Instantiate `specs` on the lab network. Every resolver gets a unique
/// address in its family; closed resolvers additionally get an in-network
/// Atlas probe address.
pub fn deploy_fleet(lab: &mut Lab, specs: &[ResolverSpec]) -> Vec<DeployedResolver> {
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let addr = match spec.family {
            Family::V4 => lab.alloc.v4(),
            Family::V6 => lab.alloc.v6(),
        };
        let mut cfg = ResolverConfig::validating(addr, lab.root_hints.clone(), lab.anchor.clone());
        cfg.now = lab.now;
        cfg.policy = policy_for(&spec.behavior, spec.ede_visible);
        match spec.behavior {
            Behavior::NonValidator => {
                cfg.validate = false;
                cfg.trust_anchors.clear();
            }
            Behavior::QueryCopier => cfg.quirk = Quirk::QueryCopier,
            Behavior::FlakyGap {
                insecure,
                servfail_from,
            } => {
                cfg.quirk = Quirk::FlakyGap {
                    insecure_above: insecure,
                    servfail_above: servfail_from.saturating_sub(1),
                };
            }
            _ => {}
        }
        let node = Rc::new(Resolver::new(cfg));
        let probe = match spec.access {
            Access::Open => {
                lab.net.register(addr, node);
                None
            }
            Access::Closed => {
                let probe_addr = match spec.family {
                    Family::V4 => lab.alloc.v4(),
                    Family::V6 => lab.alloc.v6(),
                };
                let closed = ClosedResolver::new(node, [probe_addr]);
                lab.net.register(addr, Rc::new(closed));
                Some(AtlasProbe {
                    addr: probe_addr,
                    local_resolver: addr,
                })
            }
        };
        out.push(DeployedResolver {
            spec: spec.clone(),
            addr,
            probe,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_match_behaviors() {
        let p = policy_for(
            &Behavior::InsecureAt {
                limit: 150,
                google_style: false,
            },
            true,
        );
        assert_eq!(p.insecure_above, Some(150));
        assert!(p.emit_ede);

        let p = policy_for(
            &Behavior::InsecureAt {
                limit: 100,
                google_style: true,
            },
            true,
        );
        assert_eq!(p.ede_code, EdeCode::DNSSEC_INDETERMINATE);

        let p = policy_for(
            &Behavior::ServfailFrom {
                first: 151,
                technitium: false,
            },
            true,
        );
        assert_eq!(p.servfail_above, Some(150));

        let p = policy_for(
            &Behavior::ServfailFrom {
                first: 101,
                technitium: true,
            },
            true,
        );
        assert_eq!(p.servfail_above, Some(100));
        assert!(!p.ede_extra_text.is_empty());

        let p = policy_for(&Behavior::QueryCopier, true);
        assert_eq!(p.servfail_above, Some(0));
        assert!(!p.emit_ede, "a copier relays no EDE, so it makes none");

        let p = policy_for(&Behavior::Item7Violator { limit: 150 }, true);
        assert!(!p.verify_nsec3_rrsig);

        let p = policy_for(
            &Behavior::InsecureAt {
                limit: 150,
                google_style: false,
            },
            false,
        );
        assert!(!p.emit_ede, "stripped EDE");
    }
}
