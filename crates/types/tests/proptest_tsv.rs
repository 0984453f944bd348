//! `CorrelatedRecord::write_tsv` against the `format!` line it replaced.
//!
//! The oracle below is the original `to_tsv`: temporary `String`s per
//! column joined by one `format!`. The direct encoder must produce the
//! same bytes for every record — v4 and v6 addresses (`::`, IPv4-mapped,
//! zero runs), present and absent ASNs, and every outcome shape.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use flowdns_types::{CorrelatedRecord, CorrelationOutcome, DomainName, FlowRecord, SimTime};
use proptest::prelude::*;

fn format_line(r: &CorrelatedRecord) -> String {
    let query = r
        .outcome
        .first_name()
        .map(|n| n.as_str().to_string())
        .unwrap_or_else(|| "-".to_string());
    let final_name = r
        .outcome
        .final_name()
        .map(|n| n.as_str().to_string())
        .unwrap_or_else(|| "-".to_string());
    let asn_col = |asn: Option<u32>| match asn {
        Some(asn) => asn.to_string(),
        None => "-".to_string(),
    };
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        r.flow.ts.as_secs(),
        r.flow.key.src_ip,
        r.flow.key.dst_ip,
        r.flow.bytes,
        asn_col(r.src_asn),
        asn_col(r.dst_asn),
        query,
        final_name
    )
}

fn ip() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        any::<u32>().prop_map(|v| IpAddr::V4(Ipv4Addr::from(v))),
        Just(IpAddr::V4(Ipv4Addr::UNSPECIFIED)),
        Just(IpAddr::V6(Ipv6Addr::UNSPECIFIED)),
        any::<u32>().prop_map(|v| IpAddr::V6(Ipv4Addr::from(v).to_ipv6_mapped())),
        any::<u128>().prop_map(|v| IpAddr::V6(Ipv6Addr::from(v))),
        // Segments zeroed at random: runs of zeros in every position.
        (any::<[u8; 16]>(), any::<u8>()).prop_map(|(bytes, mask)| {
            let mut segments = [0u16; 8];
            for (i, segment) in segments.iter_mut().enumerate() {
                if mask & (1 << i) != 0 {
                    *segment = u16::from_be_bytes([bytes[2 * i], bytes[2 * i + 1]]);
                }
            }
            IpAddr::V6(Ipv6Addr::from(segments))
        }),
    ]
}

fn name() -> impl Strategy<Value = DomainName> {
    let label = || proptest::string::string_regex("[a-z0-9][a-z0-9-]{0,12}").unwrap();
    (
        label(),
        label(),
        proptest::string::string_regex("[a-z]{2,6}").unwrap(),
    )
        .prop_map(|(host, zone, tld)| DomainName::literal(&format!("{host}.{zone}.{tld}")))
}

fn outcome() -> impl Strategy<Value = CorrelationOutcome> {
    prop_oneof![
        Just(CorrelationOutcome::NotFound),
        name().prop_map(CorrelationOutcome::Name),
        proptest::collection::vec(name(), 1..5).prop_map(CorrelationOutcome::Chain),
    ]
}

fn asn() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), any::<u32>().prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn write_tsv_matches_the_format_line(
        secs in any::<u32>(),
        src in ip(),
        dst in ip(),
        bytes in any::<u64>(),
        outcome in outcome(),
        asns in (asn(), asn()),
    ) {
        let flow = FlowRecord::inbound(SimTime::from_secs(secs as u64), src, dst, bytes);
        let record = CorrelatedRecord::new(flow, outcome).with_asns(asns.0, asns.1);
        let expected = format_line(&record);
        // Appends after whatever the buffer already holds.
        let mut line = b"prefix|".to_vec();
        record.write_tsv(&mut line);
        prop_assert_eq!(&line[7..], expected.as_bytes());
        prop_assert_eq!(record.to_tsv(), expected);
    }
}
