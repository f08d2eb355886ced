//! Allocation budget for the authoritative answer path on names it has
//! never seen — the path every scan driver lives on — and the heap a
//! server holds after a long run of them.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one `#[test]`: nothing else may allocate while a query is counted.
//! Reproduce the counts with
//! `cargo test --offline -p dns-auth --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use dns_auth::AuthServer;
use dns_wire::message::Message;
use dns_wire::name::{name, Name};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::{Rcode, RrType};
use dns_zone::signer::{sign_zone, SignerConfig};
use dns_zone::Zone;
use netsim::{Network, Node};

/// Counts every `alloc` and `realloc` call (frees are not counted) and
/// the bytes currently allocated.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics
// that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const NOW: u32 = 1_710_000_000;

/// One DO NXDOMAIN reply: what this corpus reads, so that an allocation
/// creeping back into the zone lookup, proof, encode or logging path
/// fails the test.
const NXDOMAIN_BUDGET: u64 = 10;
/// One secure referral, same corpus.
const REFERRAL_BUDGET: u64 = 4;

fn server() -> AuthServer {
    let apex = name("example.");
    let mut z = Zone::new(apex.clone());
    let mut add = |owner: &str, ttl: u32, rdata: RData| {
        z.add(Record::new(name(owner), ttl, rdata)).unwrap();
    };
    add(
        "example.",
        3600,
        RData::Soa {
            mname: name("ns1.example."),
            rname: name("hostmaster.example."),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        },
    );
    add("example.", 3600, RData::Ns(name("ns1.example.")));
    add("ns1.example.", 300, RData::A(Ipv4Addr::new(192, 0, 2, 53)));
    add("www.example.", 300, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
    add("mail.example.", 300, RData::A(Ipv4Addr::new(192, 0, 2, 2)));
    add(
        "secure.example.",
        3600,
        RData::Ns(name("ns1.secure.example.")),
    );
    add(
        "secure.example.",
        3600,
        RData::Ds {
            key_tag: 12345,
            algorithm: 253,
            digest_type: 2,
            digest: vec![7; 32],
        },
    );
    add(
        "ns1.secure.example.",
        3600,
        RData::A(Ipv4Addr::new(192, 0, 2, 61)),
    );
    add(
        "ns1.secure.example.",
        3600,
        RData::Aaaa("2001:db8::61".parse().unwrap()),
    );
    let s = AuthServer::new();
    s.add_zone(sign_zone(&z, &SignerConfig::standard(&apex, NOW)).unwrap());
    s
}

/// Median allocation count of one `handle` call over fresh names. The
/// median, not the minimum: a rare growth step of a pool or a cache is
/// not what a query costs.
fn median_allocations(
    s: &AuthServer,
    net: &Network,
    qname: impl Fn(usize) -> Name,
    rcode: Rcode,
) -> u64 {
    let src = IpAddr::V4(Ipv4Addr::new(10, 9, 9, 9));
    let mut reply = Vec::with_capacity(4096);
    let mut counts = Vec::with_capacity(64);
    for i in 0..64 + 33 {
        let query = Message::query(i as u16, qname(i), RrType::A).encode();
        reply.clear();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        s.handle(net, src, &query, &mut reply).unwrap();
        let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
        // The first 64 calls warm pools and the NSEC3 hash cache.
        if i >= 64 {
            counts.push(spent);
        }
        let decoded = Message::decode(&reply).unwrap();
        assert_eq!(decoded.rcode, rcode);
        assert!(decoded
            .authorities
            .iter()
            .any(|r| r.rrtype() == RrType::RRSIG));
    }
    counts.sort_unstable();
    counts[counts.len() / 2]
}

/// Bytes allocated process-wide after `queries` more fresh-name queries.
/// Plain DNS (no OPT), so no denial proof is built and the thread's NSEC3
/// hash cache — which would grow on its own — is not touched: what is
/// left to grow is the server.
fn live_bytes_after(s: &AuthServer, net: &Network, queries: std::ops::Range<usize>) -> i64 {
    let src = IpAddr::V4(Ipv4Addr::new(10, 9, 9, 9));
    let mut reply = Vec::with_capacity(4096);
    for i in queries {
        let mut query = Message::query(i as u16, name(&format!("nx-{i:05}.example.")), RrType::A);
        query.edns = None;
        let query = query.encode();
        reply.clear();
        s.handle(net, src, &query, &mut reply).unwrap();
    }
    drop(reply);
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[test]
fn fresh_name_replies_stay_within_their_allocation_budgets() {
    let s = server();
    let net = Network::new(1);
    let nxdomain = median_allocations(
        &s,
        &net,
        |i| name(&format!("nx-{i}.example.")),
        Rcode::NxDomain,
    );
    let referral = median_allocations(
        &s,
        &net,
        |i| name(&format!("host-{i}.secure.example.")),
        Rcode::NoError,
    );
    println!("allocations per reply: nxdomain {nxdomain}, secure referral {referral}");
    assert!(
        nxdomain <= NXDOMAIN_BUDGET,
        "NXDOMAIN reply: {nxdomain} allocations, budget {NXDOMAIN_BUDGET}"
    );
    assert!(
        referral <= REFERRAL_BUDGET,
        "secure referral: {referral} allocations, budget {REFERRAL_BUDGET}"
    );

    // A server keeps nothing per query: one that has answered 10,000 more
    // queries holds no more heap than it did after its first 256.
    let s = server();
    let filled = live_bytes_after(&s, &net, 0..256);
    let later = live_bytes_after(&s, &net, 256..10_256);
    println!("allocations: heap after 256 queries {filled} B, 10,000 queries later {later} B");
    assert!(
        later <= filled,
        "server heap grew: {filled} -> {later} bytes"
    );
}
