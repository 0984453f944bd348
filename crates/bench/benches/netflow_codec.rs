//! Criterion benchmarks for the NetFlow v5, v9 and IPFIX codecs. The v9
//! and IPFIX arms run the production path: `ExporterDecoder` decoding a
//! datagram with a cached template into a reused record vector.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flowdns_netflow::v5::{V5Header, V5Packet, V5Record};
use flowdns_netflow::v9::{encode_standard_ipv4_record, V9PacketBuilder};
use flowdns_netflow::{
    ExporterDecoder, ExtractorConfig, FlowExtractor, IpfixMessageBuilder, Template,
};
use std::net::Ipv4Addr;

fn v5_packet() -> V5Packet {
    V5Packet {
        header: V5Header {
            unix_secs: 1_700_000_000,
            ..V5Header::default()
        },
        records: (0..30)
            .map(|i| V5Record {
                src_addr: Ipv4Addr::new(100, 64, 0, i as u8),
                dst_addr: Ipv4Addr::new(10, 0, 0, i as u8),
                packets: 100,
                octets: 150_000,
                src_port: 443,
                dst_port: 50_000 + i as u16,
                proto: 6,
                ..V5Record::default()
            })
            .collect(),
    }
}

/// Thirty standard IPv4 records.
fn records() -> Vec<Vec<u8>> {
    (0..30)
        .map(|i| {
            encode_standard_ipv4_record(
                Ipv4Addr::new(100, 64, 0, i as u8),
                Ipv4Addr::new(10, 0, 0, i as u8),
                443,
                50_000 + i as u16,
                6,
                150_000,
                100,
                0,
                1,
            )
        })
        .collect()
}

/// A v9 packet (`with_template`: announcing its template) of 30 records.
fn v9_packet(with_template: bool) -> Vec<u8> {
    let template = Template::standard_ipv4(256);
    let mut builder = V9PacketBuilder::new(1, 1, 1_700_000_000);
    if with_template {
        builder.add_templates(std::slice::from_ref(&template));
    }
    builder.add_data(&template, &records()).unwrap();
    builder.build(0)
}

/// An IPFIX message (`with_template`: announcing its template) of 30
/// records.
fn ipfix_message(with_template: bool) -> Vec<u8> {
    let template = Template::standard_ipv4(256);
    let mut builder = IpfixMessageBuilder::new(1, 1, 1_700_000_000);
    if with_template {
        builder.add_templates(std::slice::from_ref(&template));
    }
    builder.add_data(&template, &records()).unwrap();
    builder.build()
}

/// Decode a data-only datagram with the template already cached, into a
/// reused vector — the listeners' steady state.
fn bench_decode_into(c: &mut Criterion, group: &str, datagram: fn(bool) -> Vec<u8>) {
    let mut group = c.benchmark_group(group);
    group.sample_size(50);
    let mut decoder = ExporterDecoder::new(ExtractorConfig::default());
    let mut out = Vec::with_capacity(30);
    decoder
        .decode_datagram_into(&datagram(true), &mut out)
        .unwrap();
    let bytes = datagram(false);
    group.bench_function("decode_into_30_records", |b| {
        b.iter(|| {
            out.clear();
            black_box(decoder.decode_datagram_into(&bytes, &mut out).unwrap())
        })
    });
    group.finish();
}

fn bench_v5(c: &mut Criterion) {
    let mut group = c.benchmark_group("netflow_v5");
    group.sample_size(50);
    let packet = v5_packet();
    let bytes = packet.encode().unwrap();
    group.bench_function("encode_30_records", |b| {
        b.iter(|| black_box(packet.encode().unwrap()))
    });
    group.bench_function("decode_30_records", |b| {
        b.iter(|| black_box(V5Packet::decode(&bytes).unwrap()))
    });
    group.bench_function("extract_30_records", |b| {
        let mut extractor = FlowExtractor::new(ExtractorConfig::default());
        b.iter(|| black_box(extractor.from_v5(&packet)))
    });
    group.finish();
}

fn bench_v9(c: &mut Criterion) {
    bench_decode_into(c, "netflow_v9", v9_packet);
}

fn bench_ipfix(c: &mut Criterion) {
    bench_decode_into(c, "netflow_ipfix", ipfix_message);
}

criterion_group!(benches, bench_v5, bench_v9, bench_ipfix);
criterion_main!(benches);
