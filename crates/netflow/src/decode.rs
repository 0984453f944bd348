//! Per-exporter datagram decoding with protocol auto-detection.
//!
//! A collector socket receives export datagrams from many exporters, and
//! nothing but the first two bytes says which protocol a datagram speaks:
//! the version word is 5 for NetFlow v5, 9 for NetFlow v9 and 10 for
//! IPFIX. [`ExporterDecoder`] sniffs that word and dispatches to the
//! right codec while keeping **per-exporter** parser state (template
//! registries, counters), so the ingest layer can hold one decoder per
//! peer address and two exporters can never corrupt each other's
//! templates — even when they reuse the same source id and template id
//! with different field layouts.
//!
//! v9 flowsets and IPFIX sets share one walker, `decode_sets`: template
//! sets are compiled into [`RecordLayout`]s as they arrive, and data sets
//! decode record by record at the compiled offsets straight into the
//! caller's `Vec<FlowRecord>` — no per-record map, no intermediate vector.

use flowdns_types::{FlowDnsError, FlowRecord, SimTime};

use crate::extract::{ExtractorConfig, FlowExtractor};
use crate::template::{RecordLayout, TemplateRegistry};
use crate::v5::V5Packet;
use crate::{ipfix, v9};

pub(crate) fn err(msg: impl Into<String>) -> FlowDnsError {
    FlowDnsError::NetflowParse(msg.into())
}

pub(crate) fn be16(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

pub(crate) fn be32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// The export protocol spoken by a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowProtocol {
    /// Fixed-layout NetFlow version 5.
    V5,
    /// Template-based NetFlow version 9 (RFC 3954).
    V9,
    /// IPFIX (RFC 7011).
    Ipfix,
}

impl FlowProtocol {
    /// Sniff the protocol from the version word of a datagram. Returns
    /// `None` when the datagram is too short or the version is unknown.
    pub fn detect(bytes: &[u8]) -> Option<FlowProtocol> {
        if bytes.len() < 2 {
            return None;
        }
        match u16::from_be_bytes([bytes[0], bytes[1]]) {
            5 => Some(FlowProtocol::V5),
            9 => Some(FlowProtocol::V9),
            10 => Some(FlowProtocol::Ipfix),
            _ => None,
        }
    }

    /// The label used in logs and stats lines.
    pub fn label(&self) -> &'static str {
        match self {
            FlowProtocol::V5 => "v5",
            FlowProtocol::V9 => "v9",
            FlowProtocol::Ipfix => "ipfix",
        }
    }
}

impl std::fmt::Display for FlowProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Counters of one exporter's decode state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Datagrams successfully decoded.
    pub datagrams: u64,
    /// Flow records extracted from decoded datagrams.
    pub flows: u64,
    /// Datagrams rejected as malformed (bad version word, truncation,
    /// corrupt flowsets, ...).
    pub malformed: u64,
    /// Data flowsets/sets dropped because their template was not (yet)
    /// known — the paper's warm-up loss, counted as drops, not errors.
    pub unknown_template_drops: u64,
}

impl DecodeStats {
    /// Fold another exporter's counters into this one.
    pub fn merge(&mut self, other: &DecodeStats) {
        self.datagrams += other.datagrams;
        self.flows += other.flows;
        self.malformed += other.malformed;
        self.unknown_template_drops += other.unknown_template_drops;
    }
}

/// How a template-based protocol spells its sets.
pub(crate) struct Dialect {
    /// Set id carrying templates.
    pub template_set: u16,
    /// Set id carrying options templates (recognized, not interpreted).
    pub options_set: u16,
    /// IPFIX: enterprise-specific elements carry a 4-byte enterprise
    /// number after their (type, length) pair.
    pub enterprise_numbers: bool,
    /// v9: bytes after the last record of a data flowset must be zero
    /// padding, and no bytes may follow the last flowset.
    pub strict_padding: bool,
}

/// What the sets of one datagram held.
pub(crate) struct SetsDecoded {
    /// Data records decoded (before the extractor's validity filter).
    pub records: usize,
    /// Data sets dropped because their template was unknown.
    pub unknown_sets: u64,
}

/// Walk the sets of one datagram of `source`: compile template sets into
/// `templates` and append the flows of data sets to `out`. On error `out`
/// may hold part of the datagram's flows; the caller truncates it.
pub(crate) fn decode_sets(
    dialect: &Dialect,
    templates: &mut TemplateRegistry,
    source: u32,
    ts: SimTime,
    config: &ExtractorConfig,
    mut sets: &[u8],
    out: &mut Vec<FlowRecord>,
) -> Result<SetsDecoded, FlowDnsError> {
    let mut decoded = SetsDecoded {
        records: 0,
        unknown_sets: 0,
    };
    while sets.len() >= 4 {
        let (id, len) = (be16(sets, 0), be16(sets, 2) as usize);
        if len < 4 {
            return Err(err(format!("set length {len} too small")));
        }
        let Some(body) = sets.get(4..len) else {
            return Err(err("set runs past end of datagram"));
        };
        if id == dialect.template_set {
            // Validate the whole set before caching any of its templates.
            parse_templates(body, dialect.enterprise_numbers, |_, _| {})?;
            parse_templates(body, dialect.enterprise_numbers, |tid, layout| {
                templates.insert(source, tid, layout)
            })?;
        } else if id == dialect.options_set {
            // Recognized, not interpreted.
        } else if id < 256 {
            return Err(err(format!("reserved set id {id}")));
        } else if let Some(layout) = templates.get(source, id) {
            let rec_len = layout.record_len();
            if rec_len == 0 {
                return Err(err("template describes zero-length records"));
            }
            let mut records = body.chunks_exact(rec_len);
            decoded.records += records.len();
            out.extend((&mut records).filter_map(|r| layout.flow(r, ts, config)));
            let rest = records.remainder();
            if dialect.strict_padding && rest.len() >= 4 && rest.iter().any(|b| *b != 0) {
                return Err(err("trailing non-padding bytes in data flowset"));
            }
        } else {
            decoded.unknown_sets += 1;
        }
        sets = &sets[len..];
    }
    if dialect.strict_padding && !sets.is_empty() {
        return Err(err(format!("{} trailing bytes after last set", sets.len())));
    }
    Ok(decoded)
}

/// Parse a template set, handing each template's id and compiled layout
/// to `insert`.
fn parse_templates(
    body: &[u8],
    enterprise_numbers: bool,
    mut insert: impl FnMut(u16, RecordLayout),
) -> Result<(), FlowDnsError> {
    let mut found = false;
    let mut off = 0usize;
    // Template sets may carry padding at the end; stop when fewer than
    // 4 bytes remain or at an all-zero header.
    while off + 4 <= body.len() {
        let (id, field_count) = (be16(body, off), be16(body, off + 2));
        if id == 0 && field_count == 0 {
            break;
        }
        if id < 256 {
            return Err(err(format!("template id {id} below 256")));
        }
        if field_count == 0 || field_count > 128 {
            return Err(err(format!("implausible field count {field_count}")));
        }
        off += 4;
        let mut layout = RecordLayout::default();
        for _ in 0..field_count {
            if off + 4 > body.len() {
                return Err(err("template set truncated"));
            }
            let (element, length) = (be16(body, off), be16(body, off + 2));
            off += 4;
            let enterprise = enterprise_numbers && element & 0x8000 != 0;
            if enterprise {
                if off + 4 > body.len() {
                    return Err(err("enterprise field truncated"));
                }
                off += 4;
            }
            if length == 0 {
                return Err(err("zero-length template field"));
            }
            layout.push(element, length, enterprise);
        }
        insert(id, layout);
        found = true;
    }
    if !found {
        return Err(err("template set carries no templates"));
    }
    Ok(())
}

/// Stateful decoder for **one** exporter peer.
///
/// Keeps independent v9 and IPFIX template state (each a per-source
/// [`TemplateRegistry`]) plus a [`FlowExtractor`], and turns raw
/// datagrams into [`FlowRecord`]s.
#[derive(Debug, Default)]
pub struct ExporterDecoder {
    v9: TemplateRegistry,
    ipfix: TemplateRegistry,
    extractor: FlowExtractor,
    /// Decode counters for this exporter.
    pub stats: DecodeStats,
}

impl ExporterDecoder {
    /// A fresh decoder with empty template state.
    pub fn new(config: ExtractorConfig) -> Self {
        ExporterDecoder {
            extractor: FlowExtractor::new(config),
            ..ExporterDecoder::default()
        }
    }

    /// Decode one datagram into a fresh vector of flow records; see
    /// [`decode_datagram_into`](Self::decode_datagram_into).
    pub fn decode_datagram(&mut self, bytes: &[u8]) -> Result<Vec<FlowRecord>, FlowDnsError> {
        let mut flows = Vec::new();
        self.decode_datagram_into(bytes, &mut flows)?;
        Ok(flows)
    }

    /// Decode one datagram, auto-detecting the protocol, and append its
    /// flow records to `out` — the batched listeners decode a whole
    /// socket drain into one reusable buffer and push it to the pipeline
    /// in a single batch. Returns how many records this datagram
    /// contributed.
    ///
    /// Malformed datagrams return an error, increment
    /// [`DecodeStats::malformed`] and leave `out` as it was on entry;
    /// data arriving before its template is not an error — it yields
    /// fewer (possibly zero) records and increments
    /// [`DecodeStats::unknown_template_drops`].
    pub fn decode_datagram_into(
        &mut self,
        bytes: &[u8],
        out: &mut Vec<FlowRecord>,
    ) -> Result<usize, FlowDnsError> {
        let start = out.len();
        let config = self.extractor.config();
        let result = match FlowProtocol::detect(bytes) {
            Some(FlowProtocol::V5) => V5Packet::decode(bytes).map(|p| {
                out.extend(self.extractor.from_v5(&p));
                0
            }),
            Some(FlowProtocol::V9) => v9::decode(&mut self.v9, &config, bytes, out),
            Some(FlowProtocol::Ipfix) => ipfix::decode(&mut self.ipfix, &config, bytes, out),
            None => Err(err("unrecognized export protocol version")),
        };
        match result {
            Ok(unknown_sets) => {
                let flows = out.len() - start;
                self.stats.datagrams += 1;
                self.stats.flows += flows as u64;
                self.stats.unknown_template_drops += unknown_sets;
                Ok(flows)
            }
            Err(e) => {
                out.truncate(start);
                self.stats.malformed += 1;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use crate::v9::{encode_standard_ipv4_record, V9PacketBuilder};
    use crate::IpfixMessageBuilder;
    use std::net::Ipv4Addr;

    fn v9_packet(with_template: bool, bytes: u32) -> Vec<u8> {
        let template = Template::standard_ipv4(256);
        let mut b = V9PacketBuilder::new(7, 1, 1_700_000_000);
        if with_template {
            b.add_templates(std::slice::from_ref(&template));
        }
        let rec = encode_standard_ipv4_record(
            Ipv4Addr::new(203, 0, 113, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            443,
            51000,
            6,
            bytes,
            10,
            0,
            1,
        );
        b.add_data(&template, &[rec]).unwrap();
        b.build(1)
    }

    #[test]
    fn detects_all_three_protocols() {
        assert_eq!(FlowProtocol::detect(&[0, 5, 0, 0]), Some(FlowProtocol::V5));
        assert_eq!(FlowProtocol::detect(&[0, 9, 0, 0]), Some(FlowProtocol::V9));
        assert_eq!(
            FlowProtocol::detect(&[0, 10, 0, 0]),
            Some(FlowProtocol::Ipfix)
        );
        assert_eq!(FlowProtocol::detect(&[0, 11]), None);
        assert_eq!(FlowProtocol::detect(&[5]), None);
        assert_eq!(FlowProtocol::detect(&[]), None);
    }

    #[test]
    fn decodes_v5_v9_and_ipfix_through_one_decoder() {
        let mut d = ExporterDecoder::new(ExtractorConfig::default());

        let v5 = V5Packet {
            header: crate::v5::V5Header {
                unix_secs: 100,
                ..Default::default()
            },
            records: vec![crate::v5::V5Record {
                src_addr: Ipv4Addr::new(198, 51, 100, 1),
                dst_addr: Ipv4Addr::new(10, 0, 0, 2),
                packets: 3,
                octets: 900,
                ..Default::default()
            }],
        };
        let flows = d.decode_datagram(&v5.encode().unwrap()).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].bytes, 900);

        let flows = d.decode_datagram(&v9_packet(true, 5_000)).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].bytes, 5_000);

        let template = Template::standard_ipv4(400);
        let mut b = IpfixMessageBuilder::new(55, 1, 200);
        b.add_templates(std::slice::from_ref(&template));
        let rec = encode_standard_ipv4_record(
            Ipv4Addr::new(203, 0, 113, 9),
            Ipv4Addr::new(10, 0, 0, 3),
            443,
            50000,
            17,
            7_000,
            5,
            0,
            1,
        );
        b.add_data(&template, &[rec]).unwrap();
        let flows = d.decode_datagram(&b.build()).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].bytes, 7_000);

        assert_eq!(d.stats.datagrams, 3);
        assert_eq!(d.stats.flows, 3);
        assert_eq!(d.stats.malformed, 0);
    }

    #[test]
    fn data_before_template_is_a_drop_not_an_error() {
        let mut d = ExporterDecoder::new(ExtractorConfig::default());
        let flows = d.decode_datagram(&v9_packet(false, 1_000)).unwrap();
        assert!(flows.is_empty());
        assert_eq!(d.stats.unknown_template_drops, 1);
        assert_eq!(d.stats.malformed, 0);
        // Once the template arrives, data decodes.
        let flows = d.decode_datagram(&v9_packet(true, 1_000)).unwrap();
        assert_eq!(flows.len(), 1);
    }

    #[test]
    fn malformed_datagrams_are_counted() {
        let mut d = ExporterDecoder::new(ExtractorConfig::default());
        assert!(d.decode_datagram(&[0xde, 0xad, 0xbe, 0xef]).is_err());
        assert!(d.decode_datagram(&[]).is_err());
        let truncated = &v9_packet(true, 1)[..10];
        assert!(d.decode_datagram(truncated).is_err());
        assert_eq!(d.stats.malformed, 3);
        assert_eq!(d.stats.datagrams, 0);
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = DecodeStats {
            datagrams: 1,
            flows: 2,
            malformed: 3,
            unknown_template_drops: 4,
        };
        a.merge(&DecodeStats {
            datagrams: 10,
            flows: 20,
            malformed: 30,
            unknown_template_drops: 40,
        });
        assert_eq!(a.datagrams, 11);
        assert_eq!(a.flows, 22);
        assert_eq!(a.malformed, 33);
        assert_eq!(a.unknown_template_drops, 44);
    }
}
