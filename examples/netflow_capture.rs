//! Wire-format end-to-end example: build real NetFlow v5/v9 packets and
//! DNS response messages, parse them with the protocol substrates, and
//! push the extracted records through the correlator — the path a live
//! deployment would take.
//!
//! Run with: `cargo run --example netflow_capture`

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns::core::{Correlator, CorrelatorConfig};
use flowdns::dns::message::DnsClass;
use flowdns::dns::{records_from_message, DnsMessage, Question, ResourceRecord, ResponseFilter};
use flowdns::netflow::v9::{encode_standard_ipv4_record, V9PacketBuilder};
use flowdns::netflow::{ExporterDecoder, ExtractorConfig, Template};
use flowdns::types::{DomainName, RecordType, SimTime};
use std::net::Ipv4Addr;

fn main() {
    println!("== wire-format ingestion example ==");

    // --- DNS side: a resolver response on the wire. ----------------------
    let shop = DomainName::literal("www.shop.example");
    let cdn = DomainName::literal("edge3.cdn.example.net");
    let response = DnsMessage::response(
        77,
        Question {
            name: shop.clone(),
            qtype: RecordType::A,
            qclass: DnsClass::In,
        },
        vec![
            ResourceRecord::cname(shop, cdn.clone(), 600),
            ResourceRecord::a(cdn, Ipv4Addr::new(100, 64, 9, 9), 120),
        ],
    );
    let wire = response.encode().expect("encode DNS response");
    println!("DNS response encoded to {} bytes on the wire", wire.len());

    let parsed = DnsMessage::decode(&wire).expect("decode DNS response");
    let mut filter = ResponseFilter::new();
    assert!(filter.accept(&parsed));
    let dns_records = records_from_message(&parsed, SimTime::from_secs(5));
    println!("parsed into {} correlator records", dns_records.len());

    // --- NetFlow side: a v9 export packet with a template + data. --------
    let template = Template::standard_ipv4(256);
    let mut builder = V9PacketBuilder::new(42, 1, 10);
    builder.add_templates(std::slice::from_ref(&template));
    let data = vec![
        encode_standard_ipv4_record(
            Ipv4Addr::new(100, 64, 9, 9),
            Ipv4Addr::new(10, 1, 2, 3),
            443,
            52_001,
            6,
            2_500_000,
            1_800,
            0,
            1,
        ),
        encode_standard_ipv4_record(
            Ipv4Addr::new(192, 0, 2, 200),
            Ipv4Addr::new(10, 1, 2, 4),
            443,
            52_002,
            6,
            90_000,
            80,
            0,
            1,
        ),
    ];
    builder.add_data(&template, &data).expect("encode v9 data");
    let packet = builder.build(1_000);
    println!("NetFlow v9 packet encoded to {} bytes", packet.len());

    let mut decoder = ExporterDecoder::new(ExtractorConfig::default());
    let flows = decoder.decode_datagram(&packet).expect("decode v9 packet");
    println!("extracted {} flow records", flows.len());

    // --- Correlate. -------------------------------------------------------
    let correlator = Correlator::start(CorrelatorConfig::default()).expect("start pipeline");
    for record in dns_records {
        correlator.push_dns(record);
    }
    while correlator.queue_depths().0 > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    std::thread::sleep(std::time::Duration::from_millis(20));
    for flow in flows {
        correlator.push_flow(flow);
    }
    let report = correlator.finish().expect("clean shutdown");
    println!("\n{}", report.summary());
    println!("(the 100.64.9.9 flow is attributed to www.shop.example via the CNAME chain;");
    println!(" the 192.0.2.200 flow has no DNS record and stays uncorrelated)");
}
