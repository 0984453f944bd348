//! NetFlow version 9 packet codec (RFC 3954).
//!
//! A v9 packet is a 20-byte header followed by *flowsets*. A template
//! flowset (id 0) announces templates; a data flowset (id ≥ 256) carries
//! records laid out according to a previously announced template. The
//! decoder keeps a [`TemplateRegistry`] across packets, exactly like a
//! real collector, so data flowsets arriving before their templates are
//! counted instead of crashing the decode.

use flowdns_types::{FlowDnsError, FlowRecord, SimTime};

use crate::decode::{be16, be32, decode_sets, err, Dialect};
use crate::extract::ExtractorConfig;
use crate::template::{Template, TemplateRegistry};

/// Size of the v9 packet header in bytes.
pub const V9_HEADER_LEN: usize = 20;
/// Flowset id announcing data templates.
pub const TEMPLATE_FLOWSET_ID: u16 = 0;
/// Flowset id announcing options templates (parsed and skipped).
pub const OPTIONS_TEMPLATE_FLOWSET_ID: u16 = 1;

const V9: Dialect = Dialect {
    template_set: TEMPLATE_FLOWSET_ID,
    options_set: OPTIONS_TEMPLATE_FLOWSET_ID,
    enterprise_numbers: false,
    strict_padding: true,
};

/// Decode one export packet straight into `out`, updating `templates`.
/// Returns the number of data flowsets dropped for an unknown template.
pub(crate) fn decode(
    templates: &mut TemplateRegistry,
    config: &ExtractorConfig,
    bytes: &[u8],
    out: &mut Vec<FlowRecord>,
) -> Result<u64, FlowDnsError> {
    if bytes.len() < V9_HEADER_LEN {
        return Err(err("packet shorter than v9 header"));
    }
    let version = be16(bytes, 0);
    if version != 9 {
        return Err(err(format!("not a v9 packet (version {version})")));
    }
    let declared_count = be16(bytes, 2) as usize;
    let ts = SimTime::from_secs(be32(bytes, 8) as u64);
    let source_id = be32(bytes, 16);
    let sets = &bytes[V9_HEADER_LEN..];
    let decoded = decode_sets(&V9, templates, source_id, ts, config, sets, out)?;

    // The header count field counts both data records and templates; a
    // strict check is impossible when templates are unknown, but a
    // decoded-record count wildly exceeding the declared count means
    // corruption.
    if declared_count > 0 && decoded.records > declared_count * 4 {
        return Err(err(format!(
            "decoded {} records but header declares {declared_count}",
            decoded.records
        )));
    }
    Ok(decoded.unknown_sets)
}

/// Builder for NetFlow v9 export packets (used by the synthetic exporter
/// and by tests).
#[derive(Debug)]
pub struct V9PacketBuilder {
    source_id: u32,
    sequence: u32,
    unix_secs: u32,
    flowsets: Vec<u8>,
    count: u16,
}

impl V9PacketBuilder {
    /// Start a packet for `source_id` exported at `unix_secs`.
    pub fn new(source_id: u32, sequence: u32, unix_secs: u32) -> Self {
        V9PacketBuilder {
            source_id,
            sequence,
            unix_secs,
            flowsets: Vec::new(),
            count: 0,
        }
    }

    /// Append a template flowset announcing `templates`.
    pub fn add_templates(&mut self, templates: &[Template]) {
        let mut body = Vec::new();
        for t in templates {
            body.extend_from_slice(&t.id.to_be_bytes());
            body.extend_from_slice(&(t.fields.len() as u16).to_be_bytes());
            for f in &t.fields {
                body.extend_from_slice(&f.ftype.to_u16().to_be_bytes());
                body.extend_from_slice(&f.length.to_be_bytes());
            }
            self.count += 1;
        }
        self.push_flowset(TEMPLATE_FLOWSET_ID, &body);
    }

    /// Append a data flowset with pre-encoded records following `template`.
    /// Each record must be exactly `template.record_len()` bytes.
    pub fn add_data(
        &mut self,
        template: &Template,
        records: &[Vec<u8>],
    ) -> Result<(), FlowDnsError> {
        let rec_len = template.record_len();
        let mut body = Vec::with_capacity(records.len() * rec_len);
        for r in records {
            if r.len() != rec_len {
                return Err(err(format!(
                    "record length {} does not match template record length {rec_len}",
                    r.len()
                )));
            }
            body.extend_from_slice(r);
            self.count += 1;
        }
        // Pad to a 4-byte boundary as the RFC recommends.
        while (body.len() + 4) % 4 != 0 {
            body.push(0);
        }
        self.push_flowset(template.id, &body);
        Ok(())
    }

    fn push_flowset(&mut self, id: u16, body: &[u8]) {
        self.flowsets.extend_from_slice(&id.to_be_bytes());
        self.flowsets
            .extend_from_slice(&((body.len() + 4) as u16).to_be_bytes());
        self.flowsets.extend_from_slice(body);
    }

    /// Finish the packet, producing wire bytes.
    pub fn build(self, sys_uptime_ms: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(V9_HEADER_LEN + self.flowsets.len());
        out.extend_from_slice(&9u16.to_be_bytes());
        out.extend_from_slice(&self.count.to_be_bytes());
        out.extend_from_slice(&sys_uptime_ms.to_be_bytes());
        out.extend_from_slice(&self.unix_secs.to_be_bytes());
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.source_id.to_be_bytes());
        out.extend_from_slice(&self.flowsets);
        out
    }
}

/// Encode one IPv4 flow record for [`Template::standard_ipv4`].
///
/// One argument per template field, in template order — splitting them
/// into a struct would obscure the 1:1 mapping to the wire layout.
#[allow(clippy::too_many_arguments)]
pub fn encode_standard_ipv4_record(
    src: std::net::Ipv4Addr,
    dst: std::net::Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    proto: u8,
    bytes: u32,
    packets: u32,
    first_ms: u32,
    last_ms: u32,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(29);
    out.extend_from_slice(&src.octets());
    out.extend_from_slice(&dst.octets());
    out.extend_from_slice(&src_port.to_be_bytes());
    out.extend_from_slice(&dst_port.to_be_bytes());
    out.push(proto);
    out.extend_from_slice(&bytes.to_be_bytes());
    out.extend_from_slice(&packets.to_be_bytes());
    out.extend_from_slice(&first_ms.to_be_bytes());
    out.extend_from_slice(&last_ms.to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    fn template() -> Template {
        Template::standard_ipv4(256)
    }

    fn sample_packet(with_template: bool) -> Vec<u8> {
        let mut b = V9PacketBuilder::new(7, 1, 1_700_000_000);
        if with_template {
            b.add_templates(&[template()]);
        }
        let rec1 = encode_standard_ipv4_record(
            Ipv4Addr::new(203, 0, 113, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            443,
            51000,
            6,
            150_000,
            120,
            1000,
            2000,
        );
        let rec2 = encode_standard_ipv4_record(
            Ipv4Addr::new(198, 51, 100, 9),
            Ipv4Addr::new(10, 0, 0, 2),
            443,
            51001,
            17,
            9_000,
            12,
            1500,
            2500,
        );
        b.add_data(&template(), &[rec1, rec2]).unwrap();
        b.build(123)
    }

    /// Decode `bytes` with `templates`: the flows, or the error.
    fn run(
        templates: &mut TemplateRegistry,
        bytes: &[u8],
    ) -> Result<Vec<FlowRecord>, FlowDnsError> {
        let mut out = Vec::new();
        decode(templates, &ExtractorConfig::default(), bytes, &mut out)?;
        Ok(out)
    }

    #[test]
    fn template_then_data_round_trip() {
        let mut templates = TemplateRegistry::new();
        let flows = run(&mut templates, &sample_packet(true)).unwrap();
        assert!(templates.get(7, 256).is_some());
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].ts, SimTime::from_secs(1_700_000_000));
        assert_eq!(flows[0].key.src_ip, IpAddr::from([203, 0, 113, 1]));
        assert_eq!(flows[0].bytes, 150_000);
        assert_eq!(flows[0].key.proto.to_u8(), 6);
        assert_eq!(flows[1].key.dst_port, 51001);
    }

    #[test]
    fn data_before_template_is_counted_not_fatal() {
        let mut templates = TemplateRegistry::new();
        let mut out = Vec::new();
        let config = ExtractorConfig::default();
        let unknown = decode(&mut templates, &config, &sample_packet(false), &mut out).unwrap();
        assert_eq!((unknown, out.len()), (1, 0));
        // After the template arrives, subsequent data decodes.
        assert_eq!(run(&mut templates, &sample_packet(true)).unwrap().len(), 2);
    }

    #[test]
    fn templates_persist_across_packets() {
        let mut templates = TemplateRegistry::new();
        run(&mut templates, &sample_packet(true)).unwrap();
        // Second packet has no template flowset but decodes via the cache.
        assert_eq!(run(&mut templates, &sample_packet(false)).unwrap().len(), 2);
    }

    #[test]
    fn wrong_version_and_truncation_are_errors() {
        let mut templates = TemplateRegistry::new();
        let mut bytes = sample_packet(true);
        assert!(run(&mut templates, &bytes[..10]).is_err());
        assert!(run(&mut templates, &bytes[..V9_HEADER_LEN + 2]).is_err());
        bytes[1] = 5;
        assert!(run(&mut templates, &bytes).is_err());
    }

    #[test]
    fn flowset_overrun_is_an_error() {
        let mut bytes = sample_packet(true);
        // Inflate the first flowset length beyond the packet.
        let len_off = V9_HEADER_LEN + 2;
        bytes[len_off] = 0xFF;
        bytes[len_off + 1] = 0xFF;
        assert!(run(&mut TemplateRegistry::new(), &bytes).is_err());
    }

    #[test]
    fn malformed_templates_are_rejected() {
        let mut b = V9PacketBuilder::new(1, 1, 0);
        b.add_templates(&[Template {
            id: 300,
            fields: vec![crate::FieldSpec::standard(crate::FieldType::InBytes)],
        }]);
        let mut bytes = b.build(0);
        // Patch template id to 5 (offset: header 20 + flowset hdr 4 = 24).
        bytes[24] = 0;
        bytes[25] = 5;
        assert!(run(&mut TemplateRegistry::new(), &bytes).is_err());
    }

    #[test]
    fn non_zero_padding_and_declared_count_overrun_are_errors() {
        let mut bytes = sample_packet(true);
        let last = bytes.len() - 1;
        // Fewer than 4 trailing bytes are padding whatever they hold; 4 or
        // more must be zero.
        bytes[last] = 0xAB;
        assert!(
            run(&mut TemplateRegistry::new(), &bytes).is_ok(),
            "short padding is ignored"
        );
        let mut padded = sample_packet(true);
        padded.extend_from_slice(&[0, 0, 0, 0xAB]);
        // The data flowset (2 × 29-byte records + 2 padding bytes) is last.
        let len_off = padded.len() - 4 - 64 + 2;
        padded[len_off..len_off + 2].copy_from_slice(&68u16.to_be_bytes());
        assert!(run(&mut TemplateRegistry::new(), &padded).is_err());
        // Nine records against a declared count of 2 is corruption.
        let mut b = V9PacketBuilder::new(7, 1, 0);
        b.add_templates(&[template()]);
        let zeros: Vec<Vec<u8>> = (0..9).map(|_| vec![0u8; 29]).collect();
        b.add_data(&template(), &zeros).unwrap();
        let mut overrun = b.build(0);
        overrun[2..4].copy_from_slice(&2u16.to_be_bytes());
        assert!(run(&mut TemplateRegistry::new(), &overrun).is_err());
    }

    #[test]
    fn ipv6_template_round_trip() {
        let t6 = Template::standard_ipv6(260);
        let mut b = V9PacketBuilder::new(3, 9, 1_700_000_100);
        b.add_templates(std::slice::from_ref(&t6));
        let mut rec = Vec::new();
        let src: std::net::Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: std::net::Ipv6Addr = "2001:db8::2".parse().unwrap();
        rec.extend_from_slice(&src.octets());
        rec.extend_from_slice(&dst.octets());
        rec.extend_from_slice(&443u16.to_be_bytes());
        rec.extend_from_slice(&55555u16.to_be_bytes());
        rec.push(6);
        rec.extend_from_slice(&1_000_000u32.to_be_bytes());
        rec.extend_from_slice(&800u32.to_be_bytes());
        b.add_data(&t6, &[rec]).unwrap();
        let flows = run(&mut TemplateRegistry::new(), &b.build(1)).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].key.src_ip, IpAddr::from(src));
        assert_eq!(flows[0].bytes, 1_000_000);
    }

    #[test]
    fn builder_rejects_mismatched_record_length() {
        let mut b = V9PacketBuilder::new(1, 1, 0);
        assert!(b.add_data(&template(), &[vec![0u8; 5]]).is_err());
    }
}
