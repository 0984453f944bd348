//! Field and template definitions shared by NetFlow v9 and IPFIX.
//!
//! Both formats describe data records via *templates*: an ordered list of
//! (field type, field length) pairs announced in template flowsets/sets
//! and referenced by id from data flowsets/sets. Exporters may emit data
//! before templates or refresh templates periodically, so decoders keep a
//! [`TemplateRegistry`] — one [`TemplateCache`] (keyed by template id)
//! per source id, so sources can never clobber each other's layouts.
//!
//! A cached template is *compiled*: the cache holds a [`RecordLayout`]
//! with the offset and length of each field the flow extractor reads, so
//! data records decode at fixed offsets straight into flow records.

use std::collections::HashMap;
use std::net::IpAddr;

use flowdns_types::{FlowKey, FlowRecord, Protocol, SimTime};

use crate::extract::ExtractorConfig;

/// The field types FlowDNS cares about (a subset of the IANA IPFIX
/// registry / Cisco NetFlow v9 field types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// IN_BYTES (1): bytes of the flow.
    InBytes,
    /// IN_PKTS (2): packets of the flow.
    InPkts,
    /// PROTOCOL (4).
    Protocol,
    /// L4_SRC_PORT (7).
    L4SrcPort,
    /// IPV4_SRC_ADDR (8).
    Ipv4SrcAddr,
    /// L4_DST_PORT (11).
    L4DstPort,
    /// IPV4_DST_ADDR (12).
    Ipv4DstAddr,
    /// LAST_SWITCHED (21).
    LastSwitched,
    /// FIRST_SWITCHED (22).
    FirstSwitched,
    /// IPV6_SRC_ADDR (27).
    Ipv6SrcAddr,
    /// IPV6_DST_ADDR (28).
    Ipv6DstAddr,
    /// Any other field type (carried opaquely).
    Other(u16),
}

impl FieldType {
    /// The wire value of the field type.
    pub fn to_u16(self) -> u16 {
        match self {
            FieldType::InBytes => 1,
            FieldType::InPkts => 2,
            FieldType::Protocol => 4,
            FieldType::L4SrcPort => 7,
            FieldType::Ipv4SrcAddr => 8,
            FieldType::L4DstPort => 11,
            FieldType::Ipv4DstAddr => 12,
            FieldType::LastSwitched => 21,
            FieldType::FirstSwitched => 22,
            FieldType::Ipv6SrcAddr => 27,
            FieldType::Ipv6DstAddr => 28,
            FieldType::Other(v) => v,
        }
    }

    /// Build from the wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => FieldType::InBytes,
            2 => FieldType::InPkts,
            4 => FieldType::Protocol,
            7 => FieldType::L4SrcPort,
            8 => FieldType::Ipv4SrcAddr,
            11 => FieldType::L4DstPort,
            12 => FieldType::Ipv4DstAddr,
            21 => FieldType::LastSwitched,
            22 => FieldType::FirstSwitched,
            27 => FieldType::Ipv6SrcAddr,
            28 => FieldType::Ipv6DstAddr,
            other => FieldType::Other(other),
        }
    }

    /// The conventional wire length of this field in bytes (used by the
    /// standard template builder; exporters may choose other lengths).
    pub fn default_len(self) -> u16 {
        match self {
            FieldType::InBytes | FieldType::InPkts => 4,
            FieldType::Protocol => 1,
            FieldType::L4SrcPort | FieldType::L4DstPort => 2,
            FieldType::Ipv4SrcAddr | FieldType::Ipv4DstAddr => 4,
            FieldType::LastSwitched | FieldType::FirstSwitched => 4,
            FieldType::Ipv6SrcAddr | FieldType::Ipv6DstAddr => 16,
            FieldType::Other(_) => 4,
        }
    }
}

/// One (type, length) entry of a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// The field type.
    pub ftype: FieldType,
    /// The field length in bytes.
    pub length: u16,
}

impl FieldSpec {
    /// A field spec with the conventional length for its type.
    pub fn standard(ftype: FieldType) -> Self {
        FieldSpec {
            ftype,
            length: ftype.default_len(),
        }
    }
}

/// A template: an id plus an ordered list of field specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// Template id (>= 256 for data templates).
    pub id: u16,
    /// Ordered field specs.
    pub fields: Vec<FieldSpec>,
}

impl Template {
    /// The standard IPv4 flow template used by the synthetic exporter:
    /// srcIP, dstIP, srcPort, dstPort, protocol, bytes, packets,
    /// first/last switched.
    pub fn standard_ipv4(id: u16) -> Self {
        Template {
            id,
            fields: vec![
                FieldSpec::standard(FieldType::Ipv4SrcAddr),
                FieldSpec::standard(FieldType::Ipv4DstAddr),
                FieldSpec::standard(FieldType::L4SrcPort),
                FieldSpec::standard(FieldType::L4DstPort),
                FieldSpec::standard(FieldType::Protocol),
                FieldSpec::standard(FieldType::InBytes),
                FieldSpec::standard(FieldType::InPkts),
                FieldSpec::standard(FieldType::FirstSwitched),
                FieldSpec::standard(FieldType::LastSwitched),
            ],
        }
    }

    /// The standard IPv6 flow template.
    pub fn standard_ipv6(id: u16) -> Self {
        Template {
            id,
            fields: vec![
                FieldSpec::standard(FieldType::Ipv6SrcAddr),
                FieldSpec::standard(FieldType::Ipv6DstAddr),
                FieldSpec::standard(FieldType::L4SrcPort),
                FieldSpec::standard(FieldType::L4DstPort),
                FieldSpec::standard(FieldType::Protocol),
                FieldSpec::standard(FieldType::InBytes),
                FieldSpec::standard(FieldType::InPkts),
            ],
        }
    }

    /// Total length in bytes of one data record described by this template.
    pub fn record_len(&self) -> usize {
        self.fields.iter().map(|f| f.length as usize).sum()
    }

    /// Compile the template into the layout the decoder caches.
    pub fn layout(&self) -> RecordLayout {
        let mut layout = RecordLayout::default();
        for f in &self.fields {
            layout.push(f.ftype.to_u16(), f.length, false);
        }
        layout
    }
}

/// The element ids of the fields the flow extractor reads, in slot order.
const SLOT_ELEMENTS: [u16; 9] = [
    8,  // IPV4_SRC_ADDR
    27, // IPV6_SRC_ADDR
    12, // IPV4_DST_ADDR
    28, // IPV6_DST_ADDR
    1,  // IN_BYTES
    2,  // IN_PKTS
    7,  // L4_SRC_PORT
    11, // L4_DST_PORT
    4,  // PROTOCOL
];
const SRC_V4: usize = 0;
const SRC_V6: usize = 1;
const DST_V4: usize = 2;
const DST_V6: usize = 3;
const BYTES: usize = 4;
const PKTS: usize = 5;
const SRC_PORT: usize = 6;
const DST_PORT: usize = 7;
const PROTO: usize = 8;

/// A template compiled for decoding: the record length plus the
/// (offset, length) slot of each field the flow extractor reads. A slot
/// of length 0 is a field the template does not carry. When a template
/// repeats a field type, the last occurrence fills the slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordLayout {
    rec_len: usize,
    slots: [(usize, usize); SLOT_ELEMENTS.len()],
}

impl RecordLayout {
    /// Append a field of `length` bytes. Enterprise-specific IPFIX
    /// elements only take space: they never fill a slot, whatever their
    /// element number.
    pub(crate) fn push(&mut self, element: u16, length: u16, enterprise: bool) {
        if let Some(slot) = SLOT_ELEMENTS.iter().position(|e| *e == element) {
            if !enterprise {
                self.slots[slot] = (self.rec_len, length as usize);
            }
        }
        self.rec_len += length as usize;
    }

    /// Length in bytes of one data record.
    pub fn record_len(&self) -> usize {
        self.rec_len
    }

    fn field<'a>(&self, slot: usize, record: &'a [u8]) -> Option<&'a [u8]> {
        let (off, len) = self.slots[slot];
        (len > 0).then(|| &record[off..off + len])
    }

    /// A 1–8 byte big-endian unsigned field.
    fn uint(&self, slot: usize, record: &[u8]) -> Option<u64> {
        let raw = self.field(slot, record).filter(|raw| raw.len() <= 8)?;
        Some(raw.iter().fold(0, |v, b| (v << 8) | u64::from(*b)))
    }

    /// A 4- or 16-byte address field.
    fn ip(&self, slot: usize, record: &[u8]) -> Option<IpAddr> {
        let raw = self.field(slot, record)?;
        if let Ok(v4) = <[u8; 4]>::try_from(raw) {
            return Some(v4.into());
        }
        <[u8; 16]>::try_from(raw).ok().map(IpAddr::from)
    }

    /// Decode one `record_len()`-byte record into a flow. `None` when the
    /// record lacks a readable source, destination or byte count, or the
    /// flow is invalid.
    pub(crate) fn flow(
        &self,
        record: &[u8],
        ts: SimTime,
        config: &ExtractorConfig,
    ) -> Option<FlowRecord> {
        let src_ip = self
            .ip(SRC_V4, record)
            .or_else(|| self.ip(SRC_V6, record))?;
        let dst_ip = self
            .ip(DST_V4, record)
            .or_else(|| self.ip(DST_V6, record))?;
        let flow = FlowRecord {
            ts,
            key: FlowKey {
                src_ip,
                dst_ip,
                src_port: self.uint(SRC_PORT, record).unwrap_or(0) as u16,
                dst_port: self.uint(DST_PORT, record).unwrap_or(0) as u16,
                proto: Protocol::from_u8(self.uint(PROTO, record).unwrap_or(6) as u8),
            },
            packets: self.uint(PKTS, record).unwrap_or(1).max(1),
            bytes: self.uint(BYTES, record)?,
            stream: config.stream,
            direction: config.direction,
            trace: None,
        };
        flow.is_valid().then_some(flow)
    }
}

/// Cache of the templates announced by **one** source (one NetFlow v9
/// source id / IPFIX observation domain), keyed by template id.
///
/// Template ids are only unique within a source, so a cache never mixes
/// sources; [`TemplateRegistry`] holds one cache per source. Data sets
/// received before their template are counted by the decoder
/// ([`DecodeStats::unknown_template_drops`](crate::DecodeStats)) so
/// operators can see the warm-up loss.
#[derive(Debug, Default, Clone)]
pub struct TemplateCache {
    templates: HashMap<u16, RecordLayout>,
}

impl TemplateCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        TemplateCache::default()
    }

    /// Insert or refresh (recompile) a template.
    pub fn insert(&mut self, template_id: u16, layout: RecordLayout) {
        self.templates.insert(template_id, layout);
    }

    /// Look up a template's compiled layout.
    pub fn get(&self, template_id: u16) -> Option<&RecordLayout> {
        self.templates.get(&template_id)
    }

    /// Number of cached templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }
}

/// Per-source template state for one transport peer.
///
/// A collector socket receives packets from many exporters, and each
/// exporter may use several source ids (v9) or observation domains
/// (IPFIX). The registry keeps one [`TemplateCache`] per source id so two
/// sources reusing the same template id with different field layouts can
/// never clobber each other. The ingest layer goes one step further and
/// keeps a whole registry per exporter *address*, mirroring how production
/// collectors isolate decode state per peer.
#[derive(Debug, Default, Clone)]
pub struct TemplateRegistry {
    sources: HashMap<u32, TemplateCache>,
}

impl TemplateRegistry {
    /// A fresh registry with no sources.
    pub fn new() -> Self {
        TemplateRegistry::default()
    }

    /// The cache for `source_id`, created empty on first use.
    pub fn source_mut(&mut self, source_id: u32) -> &mut TemplateCache {
        self.sources.entry(source_id).or_default()
    }

    /// The cache for `source_id`, if any template was ever cached for it.
    pub fn source(&self, source_id: u32) -> Option<&TemplateCache> {
        self.sources.get(&source_id)
    }

    /// Insert or refresh a template for a source.
    pub fn insert(&mut self, source_id: u32, template_id: u16, layout: RecordLayout) {
        self.source_mut(source_id).insert(template_id, layout);
    }

    /// Look up the compiled layout of a source's template.
    pub fn get(&self, source_id: u32, template_id: u16) -> Option<&RecordLayout> {
        self.sources.get(&source_id)?.get(template_id)
    }

    /// Total templates cached across all sources.
    pub fn len(&self) -> usize {
        self.sources.values().map(TemplateCache::len).sum()
    }

    /// Is the registry empty of templates?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct sources seen.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_type_round_trip() {
        for v in [1u16, 2, 4, 7, 8, 11, 12, 21, 22, 27, 28, 150, 65535] {
            assert_eq!(FieldType::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn standard_templates_have_expected_layout() {
        let t4 = Template::standard_ipv4(256);
        assert_eq!(t4.record_len(), 4 + 4 + 2 + 2 + 1 + 4 + 4 + 4 + 4);
        let t6 = Template::standard_ipv6(257);
        assert_eq!(t6.record_len(), 16 + 16 + 2 + 2 + 1 + 4 + 4);
    }

    #[test]
    fn registry_is_keyed_by_source_and_id() {
        let mut reg = TemplateRegistry::new();
        let (t4, t6) = (Template::standard_ipv4(256), Template::standard_ipv6(256));
        reg.insert(1, 256, t4.layout());
        reg.insert(2, 256, t6.layout());
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.source_count(), 2);
        assert_eq!(reg.get(1, 256), Some(&t4.layout()));
        assert_eq!(reg.get(2, 256), Some(&t6.layout()));
        assert!(reg.get(3, 256).is_none());
        assert!(reg.source(3).is_none());
        assert!(!reg.is_empty());
    }

    #[test]
    fn template_refresh_overwrites() {
        let mut reg = TemplateRegistry::new();
        reg.insert(1, 300, Template::standard_ipv4(300).layout());
        reg.insert(1, 300, Template::standard_ipv6(300).layout());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get(1, 300).unwrap().record_len(), 45);
    }

    #[test]
    fn per_source_cache_stands_alone() {
        let mut cache = TemplateCache::new();
        cache.insert(256, Template::standard_ipv4(256).layout());
        cache.insert(256, Template::standard_ipv6(256).layout());
        // Same id: the refresh wins; a cache never holds two layouts.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(256).unwrap().record_len(), 45);
        assert!(cache.get(300).is_none());
    }

    #[test]
    fn layout_reads_fields_at_compiled_offsets() {
        let mut t = Template::standard_ipv6(256);
        // A second, later byte counter wins; an enterprise element with
        // the byte counter's number only takes space.
        t.fields.push(FieldSpec {
            ftype: FieldType::InBytes,
            length: 8,
        });
        let mut layout = t.layout();
        layout.push(1, 4, true);
        assert_eq!(layout.record_len(), t.record_len() + 4);
        let mut rec = vec![0u8; layout.record_len()];
        rec[15] = 1; // src ::1
        rec[31] = 2; // dst ::2
        rec[32..34].copy_from_slice(&443u16.to_be_bytes());
        rec[36] = 17;
        rec[41..45].copy_from_slice(&3u32.to_be_bytes());
        rec[45..53].copy_from_slice(&(1u64 << 40).to_be_bytes());
        rec[53..57].copy_from_slice(&7u32.to_be_bytes());
        let flow = layout
            .flow(&rec, SimTime::from_secs(9), &ExtractorConfig::default())
            .unwrap();
        assert_eq!(flow.key.src_ip, "::1".parse::<IpAddr>().unwrap());
        assert_eq!(flow.key.dst_ip, "::2".parse::<IpAddr>().unwrap());
        assert_eq!(flow.key.src_port, 443);
        assert_eq!(flow.key.proto, Protocol::Udp);
        assert_eq!((flow.bytes, flow.packets), (1 << 40, 3));
        // A zero byte count is an invalid flow.
        rec[45..53].fill(0);
        assert!(layout
            .flow(&rec, SimTime::ZERO, &ExtractorConfig::default())
            .is_none());
    }
}
