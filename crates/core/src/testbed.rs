//! The `rfc9276-in-the-wild.com` testbed (§4.2).
//!
//! 49 specially-signed child zones under the test domain, plus the
//! out-of-band `it-2501-expired` zone:
//!
//! * `valid` — RFC 9276-compliant (0 iterations, no salt), correct
//!   signatures; a validator answers its names NOERROR with AD.
//! * `expired` — same parameters but expired RRSIGs; a validator answers
//!   SERVFAIL.
//! * `it-1` … `it-25` — every iteration count the bulk of the wild uses
//!   (99.9 % of NSEC3-enabled domains are ≤ 25).
//! * `it-50`, `it-75`, …, `it-500` — steps of 25 up to the highest value
//!   observed in the wild.
//! * `it-51`, `it-101`, `it-151` — successors of the vendor limits
//!   (50/100/150), to pin down exact thresholds.
//! * `it-2501-expired` — beyond every RFC 5155 limit *and* with expired
//!   signatures over the NSEC3 records: distinguishes validators that
//!   honor item 7 (verify the NSEC3 RRSIG before downgrading) from the
//!   0.2 % that do not.
//!
//! Every zone carries a wildcard branch (`*.wc.<zone>`) and dual-stack
//! service; probe queries use per-resolver unique labels, exactly like the
//! paper's cache-busting methodology. The probes that populate Figure 3
//! ask for unique *nonexistent* names, so the authoritative answer is an
//! NXDOMAIN whose proof uses the zone's iteration count.

use dns_resolver::lab::{Lab, LabBuilder, ZoneSpec};
use dns_scanner::prober::ProbePlan;
use dns_wire::name::{name, Name};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_zone::faults;
use dns_zone::nsec3hash::Nsec3Params;
use dns_zone::signer::Denial;
use dns_zone::Zone;

use crate::experiments::apex_zone;

/// The test domain, as in the paper.
pub const TEST_DOMAIN: &str = "rfc9276-in-the-wild.com.";

/// The deployed testbed: the lab plus the probe plan.
pub struct Testbed {
    /// The signed hierarchy on the simulated network.
    pub lab: Lab,
    /// The §4.2 probe plan over the testbed names.
    pub plan: ProbePlan,
    /// The iteration values deployed (ascending).
    pub iteration_values: Vec<u16>,
}

/// The 47 `it-N` values of the paper's methodology: 1–25, then steps of
/// 25 to 500, plus the limit successors 51, 101, 151.
pub(crate) fn iteration_values() -> Vec<u16> {
    let mut v: Vec<u16> = (1..=25).collect();
    v.extend((2..=20).map(|k| k * 25)); // 50, 75, …, 500
    v.extend([51, 101, 151]);
    v.sort_unstable();
    v.dedup();
    v
}

/// Contents of one testbed child zone: website A record, `www`, and a
/// wildcard branch.
fn testbed_zone(apex: &Name) -> Zone {
    let mut z = apex_zone(apex, 80);
    let www = name("www").concat(apex).unwrap();
    z.add(Record::new(
        www,
        300,
        RData::A("192.0.2.81".parse().unwrap()),
    ))
    .unwrap();
    // The wildcard branch: *.wc.<apex> answers any name beneath it.
    let wc = name("*.wc").concat(apex).unwrap();
    z.add(Record::new(
        wc,
        300,
        RData::A("192.0.2.82".parse().unwrap()),
    ))
    .unwrap();
    z
}

/// Build the full testbed at `now` with the default lab seed (42).
pub fn build_testbed(now: u32) -> Testbed {
    build_testbed_seeded(now, 42)
}

/// Build the full testbed at `now` with an explicit lab seed. The zone
/// hierarchy and address allocation sequence are seed-independent, and
/// the seed decides no fault (the installed `FaultSchedule` seeds those),
/// so the testbed behaves the same under every seed.
pub fn build_testbed_seeded(now: u32, seed: u64) -> Testbed {
    let parent = name(TEST_DOMAIN);
    let mut b = LabBuilder::new(now)
        .seed(seed)
        .simple_zone(&name("com."), Denial::nsec3_rfc9276())
        .zone(ZoneSpec::new(
            testbed_zone(&parent),
            Denial::nsec3_rfc9276(),
        ));

    // valid.
    let valid_apex = name("valid").concat(&parent).unwrap();
    b = b.zone(ZoneSpec::new(
        testbed_zone(&valid_apex),
        Denial::nsec3_rfc9276(),
    ));

    // expired.
    let expired_apex = name("expired").concat(&parent).unwrap();
    let mut expired_spec = ZoneSpec::new(testbed_zone(&expired_apex), Denial::nsec3_rfc9276());
    expired_spec.expired = true;
    b = b.zone(expired_spec);

    // it-N.
    let values = iteration_values();
    let mut it_zones = Vec::with_capacity(values.len());
    for &n in &values {
        let apex = name(&format!("it-{n}")).concat(&parent).unwrap();
        b = b.zone(ZoneSpec::new(
            testbed_zone(&apex),
            Denial::Nsec3 {
                params: Nsec3Params::new(n, Vec::new()),
                opt_out: false,
            },
        ));
        it_zones.push((n, apex));
    }

    // it-2501-expired: over every RFC 5155 limit, with expired NSEC3
    // RRSIGs (the other RRsets stay valid so only item 7 distinguishes).
    let it2501_apex = name("it-2501-expired").concat(&parent).unwrap();
    let mut it2501 = ZoneSpec::new(
        testbed_zone(&it2501_apex),
        Denial::Nsec3 {
            params: Nsec3Params::new(2501, Vec::new()),
            opt_out: false,
        },
    );
    it2501.post_sign = Some(Box::new(move |z| {
        faults::expire_rrsigs(z, Some(dns_wire::rrtype::RrType::NSEC3), now);
    }));
    b = b.zone(it2501);

    let lab = b.build();
    let plan = ProbePlan {
        valid: name("www").concat(&valid_apex).unwrap(),
        expired: name("www").concat(&expired_apex).unwrap(),
        it_zones,
        it_2501_expired: Some(it2501_apex),
    };
    Testbed {
        lab,
        plan,
        iteration_values: values,
    }
}

/// The number of subdomains the paper deploys (excluding
/// `it-2501-expired`, which §4.2 describes separately): 49.
pub fn paper_subdomain_count() -> usize {
    iteration_values().len() + 2 // + valid + expired
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_nine_subdomains_as_in_the_paper() {
        assert_eq!(paper_subdomain_count(), 49);
        let values = iteration_values();
        assert_eq!(values.len(), 47);
        assert!(values.contains(&1));
        assert!(values.contains(&25));
        assert!(values.contains(&50));
        assert!(values.contains(&51));
        assert!(values.contains(&101));
        assert!(values.contains(&151));
        assert!(values.contains(&500));
        assert!(!values.contains(&26));
        assert_eq!(*values.last().unwrap(), 500);
    }

    #[test]
    fn testbed_builds_and_serves() {
        let tb = build_testbed(1_710_000_000);
        // 1 root + 1 com + parent + valid + expired + 47 it-N + it-2501.
        assert_eq!(tb.lab.zones.len(), 52 + 1);
        // Every it zone advertises its iteration count.
        for (n, apex) in &tb.plan.it_zones {
            let z = &tb.lab.zones[apex];
            assert_eq!(z.nsec3_params().unwrap().iterations, *n, "{apex}");
            assert!(
                z.nsec3_params().unwrap().salt.is_empty(),
                "no salt per §4.2"
            );
        }
        // Dual stack.
        for (apex, (v4, v6)) in &tb.lab.servers {
            assert!(v4.is_ipv4(), "{apex}");
            assert!(v6.is_ipv6(), "{apex}");
        }
    }

    #[test]
    fn it2501_zone_has_expired_nsec3_sigs_only() {
        let now = 1_710_000_000;
        let tb = build_testbed(now);
        let apex = tb.plan.it_2501_expired.clone().unwrap();
        let z = &tb.lab.zones[&apex];
        assert_eq!(z.nsec3_params().unwrap().iterations, 2501);
        let mut saw_nsec3_sig = false;
        for rec in z.zone.iter() {
            if let RData::Rrsig {
                type_covered,
                expiration,
                ..
            } = &rec.rdata
            {
                if *type_covered == dns_wire::rrtype::RrType::NSEC3 {
                    assert!(*expiration < now, "NSEC3 sigs expired");
                    saw_nsec3_sig = true;
                } else {
                    assert!(*expiration > now, "other sigs valid");
                }
            }
        }
        assert!(saw_nsec3_sig);
    }
}
