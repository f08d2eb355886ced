//! A stream reply never carries a length prefix that disagrees with its
//! body. The prefix is two octets, so a message over 65,535 octets — an
//! AXFR of a signed zone with a few hundred hosts — cannot be framed
//! whole; it used to go out under its length modulo 65,536, which
//! `unframe_tcp` rejects and a scanner books as a refused transfer.

use std::net::{IpAddr, Ipv4Addr};

use dns_auth::AuthServer;
use dns_wire::message::{unframe_tcp, Message};
use dns_wire::name::{name, Name};
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::rrtype::{Rcode, RrType};
use dns_zone::signer::{sign_zone, SignerConfig};
use dns_zone::Zone;
use netsim::{Network, Node};

const NOW: u32 = 1_710_000_000;

/// The framed AXFR reply of a signed zone with `hosts` address records.
fn transfer(hosts: u32) -> Vec<u8> {
    let apex: Name = name("big.example.");
    let mut zone = Zone::new(apex.clone());
    let soa = RData::Soa {
        mname: name("ns1.big.example."),
        rname: name("hostmaster.big.example."),
        serial: 1,
        refresh: 7200,
        retry: 3600,
        expire: 1_209_600,
        minimum: 300,
    };
    zone.add(Record::new(apex.clone(), 3600, soa)).unwrap();
    zone.add(Record::new(
        apex.clone(),
        3600,
        RData::Ns(name("ns1.big.example.")),
    ))
    .unwrap();
    for i in 0..hosts {
        let owner = name(&format!("host-{i}.big.example."));
        let addr = Ipv4Addr::from(0xc000_0200 + i);
        zone.add(Record::new(owner, 300, RData::A(addr))).unwrap();
    }
    let server = AuthServer::new();
    server.add_zone(sign_zone(&zone, &SignerConfig::standard(&apex, NOW)).unwrap());
    server.allow_axfr(&apex);
    let mut query = Vec::new();
    Message::query(0xaf42, apex, RrType::AXFR).encode_framed_append(&mut query);
    let mut reply = Vec::new();
    let src = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1));
    server
        .handle(&Network::new(1), src, &query, &mut reply)
        .expect("a transfer query is answered");
    reply
}

#[test]
fn a_transfer_that_fits_is_framed_whole() {
    let reply = transfer(20);
    let message = Message::decode(unframe_tcp(&reply).expect("prefix states the body")).unwrap();
    assert_eq!(message.rcode, Rcode::NoError);
    assert!(message.answers.len() > 40, "records and their signatures");
    assert_eq!(message.answers.first().unwrap().rrtype(), RrType::SOA);
    assert_eq!(message.answers.last().unwrap().rrtype(), RrType::SOA);
}

#[test]
fn a_transfer_over_the_frame_limit_is_servfail_not_a_wrapped_prefix() {
    let reply = transfer(700);
    let body = unframe_tcp(&reply).expect("prefix states the body");
    let message = Message::decode(body).expect("the body is a message");
    assert_eq!(message.id, 0xaf42);
    assert_eq!(message.rcode, Rcode::ServFail);
    assert!(message.answers.is_empty() && message.authorities.is_empty());
    assert_eq!(message.question().map(|q| q.qtype), Some(RrType::AXFR));
}
