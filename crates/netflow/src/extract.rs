//! The generic flow-extraction layer.
//!
//! FlowDNS "is not bound to NetFlow data and can be adapted to use other
//! data formats containing IP addresses and timestamps in a configuration
//! file" (Section 3). This module is that adaptation layer: it converts
//! parsed NetFlow v5 packets into [`FlowRecord`]s according to an
//! [`ExtractorConfig`] that says which address to correlate on and which
//! direction and stream the flows carry. v9/IPFIX records are extracted
//! under the same configuration by their compiled
//! [`RecordLayout`](crate::template::RecordLayout).

use std::net::IpAddr;

use flowdns_types::{FlowDirection, FlowKey, FlowRecord, Protocol, SimTime, StreamId};

use crate::v5::V5Packet;

/// Which IP address the correlator should use when looking flows up in the
/// DNS store. The paper uses the **source** address ("we are interested in
/// analyzing the source of the traffic, hence we use the source IP
/// address. Nonetheless, destination address or both ... can be used").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorrelationAddress {
    /// Correlate on the flow's source address (paper default).
    #[default]
    Source,
    /// Correlate on the flow's destination address.
    Destination,
}

/// Configuration of the extraction layer (the paper's "configuration
/// file" knob, as a struct).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractorConfig {
    /// Which address the downstream correlation uses.
    pub correlation_address: CorrelationAddress,
    /// Direction label attached to extracted flows.
    pub direction: FlowDirection,
    /// Stream id attached to extracted flows.
    pub stream: StreamId,
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        ExtractorConfig {
            correlation_address: CorrelationAddress::Source,
            direction: FlowDirection::Inbound,
            stream: StreamId::new(0),
        }
    }
}

/// Converts parsed export packets into [`FlowRecord`]s.
#[derive(Debug, Default)]
pub struct FlowExtractor {
    config: ExtractorConfig,
    /// Records successfully extracted.
    pub extracted: u64,
    /// Records skipped because mandatory fields were missing.
    pub skipped: u64,
}

impl FlowExtractor {
    /// An extractor with the given configuration.
    pub fn new(config: ExtractorConfig) -> Self {
        FlowExtractor {
            config,
            extracted: 0,
            skipped: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> ExtractorConfig {
        self.config
    }

    /// The address of `record` the correlator should look up, according to
    /// the configuration.
    pub fn correlation_ip(&self, record: &FlowRecord) -> IpAddr {
        match self.config.correlation_address {
            CorrelationAddress::Source => record.key.src_ip,
            CorrelationAddress::Destination => record.key.dst_ip,
        }
    }

    /// Extract flow records from a NetFlow v5 packet. The export timestamp
    /// of the packet is used as the record timestamp (v5 per-flow times
    /// are router-uptime-relative).
    pub fn from_v5(&mut self, packet: &V5Packet) -> Vec<FlowRecord> {
        let ts = SimTime::from_secs(packet.header.unix_secs as u64);
        let mut out = Vec::with_capacity(packet.records.len());
        for r in &packet.records {
            let flow = FlowRecord {
                ts,
                key: FlowKey {
                    src_ip: IpAddr::V4(r.src_addr),
                    dst_ip: IpAddr::V4(r.dst_addr),
                    src_port: r.src_port,
                    dst_port: r.dst_port,
                    proto: Protocol::from_u8(r.proto),
                },
                packets: r.packets as u64,
                bytes: r.octets as u64,
                stream: self.config.stream,
                direction: self.config.direction,
                trace: None,
            };
            if flow.is_valid() {
                self.extracted += 1;
                out.push(flow);
            } else {
                self.skipped += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::v5::{V5Header, V5Record};
    use std::net::Ipv4Addr;

    #[test]
    fn v5_extraction_preserves_fields() {
        let packet = V5Packet {
            header: V5Header {
                unix_secs: 1000,
                ..V5Header::default()
            },
            records: vec![V5Record {
                src_addr: Ipv4Addr::new(203, 0, 113, 4),
                dst_addr: Ipv4Addr::new(10, 0, 0, 9),
                src_port: 443,
                dst_port: 54000,
                proto: 6,
                packets: 10,
                octets: 15_000,
                ..V5Record::default()
            }],
        };
        let mut ex = FlowExtractor::new(ExtractorConfig::default());
        let flows = ex.from_v5(&packet);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].ts, SimTime::from_secs(1000));
        assert_eq!(flows[0].src_ip(), IpAddr::from([203, 0, 113, 4]));
        assert_eq!(flows[0].bytes, 15_000);
        assert_eq!(ex.extracted, 1);
        assert_eq!(ex.correlation_ip(&flows[0]), IpAddr::from([203, 0, 113, 4]));
    }

    #[test]
    fn destination_correlation_config() {
        let cfg = ExtractorConfig {
            correlation_address: CorrelationAddress::Destination,
            ..ExtractorConfig::default()
        };
        let ex = FlowExtractor::new(cfg);
        let flow = FlowRecord::inbound(
            SimTime::ZERO,
            Ipv4Addr::new(1, 1, 1, 1).into(),
            Ipv4Addr::new(2, 2, 2, 2).into(),
            100,
        );
        assert_eq!(ex.correlation_ip(&flow), IpAddr::from([2, 2, 2, 2]));
    }

    #[test]
    fn invalid_v5_records_are_skipped() {
        let packet = V5Packet {
            header: V5Header::default(),
            records: vec![V5Record {
                octets: 0, // invalid
                packets: 5,
                ..V5Record::default()
            }],
        };
        let mut ex = FlowExtractor::new(ExtractorConfig::default());
        assert!(ex.from_v5(&packet).is_empty());
        assert_eq!(ex.skipped, 1);
    }
}
