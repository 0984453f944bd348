//! Property-based tests for the NetFlow codecs: v5 packets round-trip,
//! v9 template+data pipelines recover the encoded field values, and the
//! decoders never panic on arbitrary input.

use flowdns_netflow::v5::{V5Header, V5Packet, V5Record};
use flowdns_netflow::v9::{encode_standard_ipv4_record, V9PacketBuilder};
use flowdns_netflow::{ExporterDecoder, ExtractorConfig, Template};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn v5_record() -> impl Strategy<Value = V5Record> {
    (
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<u16>(),
        1u32..10_000,
        1u32..100_000_000,
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(
            |(src, dst, sport, dport, packets, octets, proto, sas, das)| V5Record {
                src_addr: Ipv4Addr::from(src),
                dst_addr: Ipv4Addr::from(dst),
                next_hop: Ipv4Addr::UNSPECIFIED,
                input_if: 1,
                output_if: 2,
                packets,
                octets,
                first: 0,
                last: 1,
                src_port: sport,
                dst_port: dport,
                tcp_flags: 0,
                proto,
                tos: 0,
                src_as: sas,
                dst_as: das,
                src_mask: 24,
                dst_mask: 24,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn v5_round_trips(records in proptest::collection::vec(v5_record(), 1..=30),
                      uptime in any::<u32>(), secs in any::<u32>(), seq in any::<u32>()) {
        let pkt = V5Packet {
            header: V5Header {
                sys_uptime_ms: uptime,
                unix_secs: secs,
                unix_nsecs: 0,
                flow_sequence: seq,
                engine_type: 0,
                engine_id: 0,
                sampling: 0,
            },
            records,
        };
        let bytes = pkt.encode().unwrap();
        prop_assert_eq!(V5Packet::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn v5_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = V5Packet::decode(&bytes);
    }

    #[test]
    fn v9_field_values_survive(
        flows in proptest::collection::vec(
            (any::<[u8; 4]>(), any::<[u8; 4]>(), any::<u16>(), any::<u16>(), any::<u8>(), 10_000u32..1_000_000, 1u32..10_000),
            1..20)
    ) {
        let template = Template::standard_ipv4(256);
        let mut builder = V9PacketBuilder::new(1, 0, 1000);
        builder.add_templates(std::slice::from_ref(&template));
        let records: Vec<Vec<u8>> = flows
            .iter()
            .map(|(s, d, sp, dp, proto, bytes, pkts)| {
                encode_standard_ipv4_record(
                    Ipv4Addr::from(*s),
                    Ipv4Addr::from(*d),
                    *sp,
                    *dp,
                    *proto,
                    *bytes,
                    *pkts,
                    0,
                    1,
                )
            })
            .collect();
        builder.add_data(&template, &records).unwrap();
        let mut decoder = ExporterDecoder::new(ExtractorConfig::default());
        let decoded = decoder.decode_datagram(&builder.build(0)).unwrap();
        prop_assert_eq!(decoded.len(), flows.len());
        for (flow, (s, _, _, _, proto, bytes, pkts)) in decoded.iter().zip(&flows) {
            prop_assert_eq!(flow.key.src_ip, std::net::IpAddr::from(*s));
            prop_assert_eq!(flow.key.proto.to_u8(), *proto);
            prop_assert_eq!(flow.bytes, *bytes as u64);
            prop_assert_eq!(flow.packets, *pkts as u64);
        }
    }

    #[test]
    fn v9_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        // The version word steers every input past the header check.
        let datagram = [&[0u8, 9][..], &bytes].concat();
        let _ = ExporterDecoder::new(ExtractorConfig::default()).decode_datagram(&datagram);
    }

    #[test]
    fn ipfix_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        // Version word and a matching length field, then arbitrary sets.
        let datagram = [&[0u8, 10][..], &(bytes.len() as u16 + 4).to_be_bytes(), &bytes].concat();
        let _ = ExporterDecoder::new(ExtractorConfig::default()).decode_datagram(&datagram);
    }
}
