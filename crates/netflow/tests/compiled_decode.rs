//! The compiled template decoder against a map-based oracle.
//!
//! [`oracle::MapDecoder`] is the decoder this crate used before templates
//! were compiled into fixed layouts: every data record becomes a
//! field-type → bytes map and the extractor reads the map. The properties
//! below drive it and [`ExporterDecoder`] with the same random v9/IPFIX
//! sessions — random templates (field order, duplicate types, odd
//! lengths, v4/v6 mixes, enterprise elements), padding, mid-stream
//! redefinition, unknown templates and corrupted or truncated datagrams —
//! and require identical records, errors and counters.

use std::net::Ipv4Addr;

use flowdns_netflow::{ExporterDecoder, ExtractorConfig};
use flowdns_types::FlowRecord;
use proptest::prelude::*;

mod oracle {
    use std::collections::{BTreeMap, HashMap};
    use std::net::IpAddr;

    use flowdns_netflow::ExtractorConfig;
    use flowdns_types::{FlowKey, FlowRecord, Protocol, SimTime};

    /// Field values keyed by element: the IANA/v9 type, or
    /// `0x1_0000 | type` for an IPFIX enterprise-specific element so it
    /// can never stand in for the IANA element of the same number.
    type Record = BTreeMap<u32, Vec<u8>>;
    type Fields = Vec<(u32, usize)>;

    fn be16(b: &[u8], at: usize) -> u16 {
        u16::from_be_bytes([b[at], b[at + 1]])
    }

    fn be32(b: &[u8], at: usize) -> u32 {
        u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
    }

    #[derive(Default)]
    pub struct MapDecoder {
        v9: HashMap<(u32, u16), Fields>,
        ipfix: HashMap<(u32, u16), Fields>,
        config: ExtractorConfig,
    }

    impl MapDecoder {
        /// Decode one datagram: the flows and the number of data sets
        /// dropped for an unknown template, or `Err` when malformed.
        pub fn decode(&mut self, b: &[u8]) -> Result<(Vec<FlowRecord>, u64), ()> {
            match b.get(..2) {
                Some([0, 9]) => self.v9(b),
                Some([0, 10]) => self.ipfix(b),
                _ => Err(()),
            }
        }

        fn v9(&mut self, b: &[u8]) -> Result<(Vec<FlowRecord>, u64), ()> {
            if b.len() < 20 {
                return Err(());
            }
            let declared = be16(b, 2) as usize;
            let (secs, source) = (be32(b, 8), be32(b, 16));
            let (mut records, mut unknown) = (Vec::new(), 0);
            let mut off = 20;
            while off + 4 <= b.len() {
                let (id, len) = (be16(b, off), be16(b, off + 2) as usize);
                if len < 4 || off + len > b.len() {
                    return Err(());
                }
                let body = &b[off + 4..off + len];
                match id {
                    0 => {
                        for (tid, fields) in templates(body, false)? {
                            self.v9.insert((source, tid), fields);
                        }
                    }
                    1 => {}
                    id if id >= 256 => match self.v9.get(&(source, id)) {
                        Some(fields) => {
                            let rest = split(body, fields, &mut records)?;
                            if rest.len() >= 4 && rest.iter().any(|x| *x != 0) {
                                return Err(());
                            }
                        }
                        None => unknown += 1,
                    },
                    _ => return Err(()),
                }
                off += len;
            }
            if off != b.len() || (declared > 0 && records.len() > declared * 4) {
                return Err(());
            }
            Ok((self.flows(secs, &records), unknown))
        }

        fn ipfix(&mut self, b: &[u8]) -> Result<(Vec<FlowRecord>, u64), ()> {
            if b.len() < 16 || be16(b, 2) as usize != b.len() {
                return Err(());
            }
            let (secs, domain) = (be32(b, 4), be32(b, 12));
            let (mut records, mut unknown) = (Vec::new(), 0);
            let mut off = 16;
            while off + 4 <= b.len() {
                let (id, len) = (be16(b, off), be16(b, off + 2) as usize);
                if len < 4 || off + len > b.len() {
                    return Err(());
                }
                let body = &b[off + 4..off + len];
                match id {
                    2 => {
                        for (tid, fields) in templates(body, true)? {
                            self.ipfix.insert((domain, tid), fields);
                        }
                    }
                    3 => {}
                    id if id >= 256 => match self.ipfix.get(&(domain, id)) {
                        Some(fields) => {
                            split(body, fields, &mut records)?;
                        }
                        None => unknown += 1,
                    },
                    _ => return Err(()),
                }
                off += len;
            }
            Ok((self.flows(secs, &records), unknown))
        }

        fn flows(&self, secs: u32, records: &[Record]) -> Vec<FlowRecord> {
            let ts = SimTime::from_secs(secs as u64);
            records
                .iter()
                .filter_map(|r| self.flow(ts, r))
                .filter(FlowRecord::is_valid)
                .collect()
        }

        fn flow(&self, ts: SimTime, r: &Record) -> Option<FlowRecord> {
            let src_ip = ip(r, 8).or_else(|| ip(r, 27))?;
            let dst_ip = ip(r, 12).or_else(|| ip(r, 28))?;
            let bytes = uint(r, 1)?;
            Some(FlowRecord {
                ts,
                key: FlowKey {
                    src_ip,
                    dst_ip,
                    src_port: uint(r, 7).unwrap_or(0) as u16,
                    dst_port: uint(r, 11).unwrap_or(0) as u16,
                    proto: Protocol::from_u8(uint(r, 4).unwrap_or(6) as u8),
                },
                packets: uint(r, 2).unwrap_or(1).max(1),
                bytes,
                stream: self.config.stream,
                direction: self.config.direction,
                trace: None,
            })
        }
    }

    fn uint(r: &Record, key: u32) -> Option<u64> {
        let raw = r.get(&key)?;
        if raw.is_empty() || raw.len() > 8 {
            return None;
        }
        Some(raw.iter().fold(0u64, |v, b| (v << 8) | *b as u64))
    }

    fn ip(r: &Record, key: u32) -> Option<IpAddr> {
        let raw = r.get(&key)?;
        match raw.len() {
            4 => Some(IpAddr::from(<[u8; 4]>::try_from(raw.as_slice()).ok()?)),
            16 => Some(IpAddr::from(<[u8; 16]>::try_from(raw.as_slice()).ok()?)),
            _ => None,
        }
    }

    fn templates(body: &[u8], ipfix: bool) -> Result<Vec<(u16, Fields)>, ()> {
        let mut out = Vec::new();
        let mut off = 0;
        while off + 4 <= body.len() {
            let (id, count) = (be16(body, off), be16(body, off + 2) as usize);
            if id == 0 && count == 0 {
                break;
            }
            if id < 256 || count == 0 || count > 128 {
                return Err(());
            }
            off += 4;
            let mut fields = Vec::new();
            for _ in 0..count {
                if off + 4 > body.len() {
                    return Err(());
                }
                let (raw, len) = (be16(body, off), be16(body, off + 2) as usize);
                off += 4;
                let mut key = raw as u32;
                if ipfix && raw & 0x8000 != 0 {
                    if off + 4 > body.len() {
                        return Err(());
                    }
                    off += 4;
                    key = 0x1_0000 | raw as u32;
                }
                if len == 0 {
                    return Err(());
                }
                fields.push((key, len));
            }
            out.push((id, fields));
        }
        if out.is_empty() {
            return Err(());
        }
        Ok(out)
    }

    /// Split a data set into records; returns the bytes after the last
    /// whole record.
    fn split<'a>(body: &'a [u8], fields: &Fields, out: &mut Vec<Record>) -> Result<&'a [u8], ()> {
        let rec_len: usize = fields.iter().map(|(_, len)| len).sum();
        if rec_len == 0 {
            return Err(());
        }
        let mut chunks = body.chunks_exact(rec_len);
        for chunk in &mut chunks {
            let mut record = Record::new();
            let mut pos = 0;
            for (key, len) in fields {
                record.insert(*key, chunk[pos..pos + len].to_vec());
                pos += len;
            }
            out.push(record);
        }
        Ok(chunks.remainder())
    }
}

/// A small deterministic generator driven by one proptest seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// One template field on the wire: element id, length, enterprise number.
type WireField = (u16, u16, Option<u32>);

/// Element ids the extractor reads, plus two it ignores.
const ELEMENTS: [u16; 13] = [8, 12, 27, 28, 1, 2, 7, 11, 4, 21, 22, 150, 61];

fn random_template(g: &mut Gen, ipfix: bool) -> Vec<WireField> {
    // Most templates carry the mandatory source, destination and byte
    // count (v4 or v6 per address) so records extract; the rest are
    // random. Extra elements add duplicates, then the order is shuffled.
    let mut ids: Vec<u16> = Vec::new();
    if g.chance(75) {
        ids.push(if g.chance(50) { 8 } else { 27 });
        ids.push(if g.chance(50) { 12 } else { 28 });
        ids.push(1);
    }
    for _ in 0..1 + g.below(7) {
        ids.push(ELEMENTS[g.below(ELEMENTS.len() as u64) as usize]);
    }
    for i in (1..ids.len()).rev() {
        ids.swap(i, g.below(i as u64 + 1) as usize);
    }
    ids.into_iter()
        .map(|mut id| {
            let mut len = match id {
                8 | 12 => 4,
                27 | 28 => 16,
                4 => 1,
                7 | 11 => 2,
                _ => 4,
            };
            if g.chance(15) {
                // Non-standard lengths: 8-byte counters, over-8-byte
                // integers, 3-byte ports, v4 slots carrying 16 bytes.
                len = [1, 2, 3, 4, 8, 9, 16][g.below(7) as usize];
            }
            let mut pen = None;
            if ipfix && g.chance(10) {
                id |= 0x8000;
                pen = Some(g.next() as u32);
            }
            (id, len, pen)
        })
        .collect()
}

fn template_body(id: u16, fields: &[WireField]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&id.to_be_bytes());
    body.extend_from_slice(&(fields.len() as u16).to_be_bytes());
    for (element, len, pen) in fields {
        body.extend_from_slice(&element.to_be_bytes());
        body.extend_from_slice(&len.to_be_bytes());
        if let Some(pen) = pen {
            body.extend_from_slice(&pen.to_be_bytes());
        }
    }
    body
}

fn push_set(out: &mut Vec<u8>, id: u16, body: &[u8]) {
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&((body.len() + 4) as u16).to_be_bytes());
    out.extend_from_slice(body);
}

/// Build one random datagram of an exporter session. `known` remembers
/// the record length of each template the session announced.
fn random_datagram(g: &mut Gen, known: &mut Vec<(bool, u32, u16, usize)>) -> Vec<u8> {
    let ipfix = g.chance(50);
    let source = 1 + g.below(2) as u32;
    let mut sets = Vec::new();
    let mut records = 0u16;
    for _ in 0..1 + g.below(3) {
        if known.is_empty() || g.chance(25) {
            // A template set, possibly redefining an id mid-stream.
            let id = [256u16, 257, 300][g.below(3) as usize];
            let fields = random_template(g, ipfix);
            let rec_len = fields.iter().map(|f| f.1 as usize).sum();
            known.retain(|k| (k.0, k.1, k.2) != (ipfix, source, id));
            known.push((ipfix, source, id, rec_len));
            push_set(
                &mut sets,
                if ipfix { 2 } else { 0 },
                &template_body(id, &fields),
            );
        } else if g.chance(10) {
            // Options template set: skipped by both decoders.
            push_set(&mut sets, if ipfix { 3 } else { 1 }, &g.bytes(8));
        } else {
            let candidates: Vec<_> = known
                .iter()
                .filter(|k| k.0 == ipfix && k.1 == source)
                .collect();
            let pick = g.below(candidates.len() as u64 + 1) as usize;
            let (id, rec_len) = match candidates.get(pick).filter(|_| g.chance(90)) {
                Some(k) => (k.2, k.3),
                // A template this source never announced.
                None => (258 + g.below(3) as u16, 1 + g.below(40) as usize),
            };
            let n = g.below(6) as usize;
            records += n as u16;
            let mut body = g.bytes(n * rec_len);
            // Trailing bytes: junk, zero padding, or none.
            let tail = g.below(8) as usize;
            match g.below(10) {
                0 => body.extend(g.bytes(1 + tail)),
                1..=3 => body.resize(body.len() + tail, 0),
                _ => {}
            }
            push_set(&mut sets, id, &body);
        }
    }
    let mut datagram = Vec::new();
    if ipfix {
        datagram.extend_from_slice(&10u16.to_be_bytes());
        datagram.extend_from_slice(&((16 + sets.len()) as u16).to_be_bytes());
        datagram.extend_from_slice(&(1_700_000_000 + g.below(100) as u32).to_be_bytes());
        datagram.extend_from_slice(&0u32.to_be_bytes());
        datagram.extend_from_slice(&source.to_be_bytes());
    } else {
        let count = if g.chance(10) {
            g.below(3) as u16
        } else {
            records
        };
        datagram.extend_from_slice(&9u16.to_be_bytes());
        datagram.extend_from_slice(&count.to_be_bytes());
        datagram.extend_from_slice(&0u32.to_be_bytes());
        datagram.extend_from_slice(&(1_700_000_000 + g.below(100) as u32).to_be_bytes());
        datagram.extend_from_slice(&0u32.to_be_bytes());
        datagram.extend_from_slice(&source.to_be_bytes());
    }
    datagram.extend_from_slice(&sets);
    match g.below(20) {
        0 => datagram.truncate(g.below(datagram.len() as u64 + 1) as usize),
        1 => {
            let at = g.below(datagram.len() as u64) as usize;
            datagram[at] = g.next() as u8;
        }
        _ => {}
    }
    datagram
}

/// The placeholder flow already in `out` before each decode call.
fn sentinel() -> FlowRecord {
    FlowRecord::inbound(
        flowdns_types::SimTime::ZERO,
        Ipv4Addr::LOCALHOST.into(),
        Ipv4Addr::LOCALHOST.into(),
        1,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compiled_decoder_matches_the_map_decoder(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut known = Vec::new();
        let mut decoder = ExporterDecoder::new(ExtractorConfig::default());
        let mut oracle = oracle::MapDecoder::default();
        let (mut malformed, mut unknown, mut flows) = (0, 0, 0);
        for _ in 0..12 {
            let datagram = random_datagram(&mut g, &mut known);
            let mut out = vec![sentinel()];
            let got = decoder.decode_datagram_into(&datagram, &mut out);
            match oracle.decode(&datagram) {
                Ok((expected, drops)) => {
                    prop_assert_eq!(got.ok(), Some(expected.len()));
                    prop_assert_eq!(&out[1..], expected.as_slice());
                    unknown += drops;
                    flows += expected.len() as u64;
                }
                Err(()) => {
                    prop_assert!(got.is_err());
                    malformed += 1;
                }
            }
            prop_assert_eq!(&out[0], &sentinel());
            prop_assert_eq!(decoder.stats.malformed, malformed);
            prop_assert_eq!(decoder.stats.unknown_template_drops, unknown);
            prop_assert_eq!(decoder.stats.flows, flows);
        }
    }

    #[test]
    fn truncated_datagrams_leave_out_unchanged(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut known = Vec::new();
        let mut decoder = ExporterDecoder::new(ExtractorConfig::default());
        let mut datagram = random_datagram(&mut g, &mut known);
        // Cut inside the header, or one byte short of the end, which
        // overruns the last set (unless the generator already corrupted
        // the datagram into some other shape).
        let cut = if g.chance(50) { g.below(16) as usize } else { datagram.len().saturating_sub(1) };
        datagram.truncate(cut);
        let mut out = vec![sentinel()];
        let got = decoder.decode_datagram_into(&datagram, &mut out);
        prop_assert!(cut >= 16 || got.is_err());
        if got.is_err() {
            prop_assert_eq!(out.as_slice(), &[sentinel()][..]);
            prop_assert_eq!(decoder.stats.malformed, 1);
        }
    }
}

#[test]
fn ipfix_enterprise_element_never_aliases_an_iana_field() {
    // Template 300: sourceIPv4Address, destinationIPv4Address,
    // octetDeltaCount, then enterprise element 1 of PEN 9 — the same
    // element number as octetDeltaCount once the enterprise bit is masked.
    let mut template = Vec::new();
    for word in [300u16, 4, 8, 4, 12, 4, 1, 4, 0x8001, 4] {
        template.extend_from_slice(&word.to_be_bytes());
    }
    template.extend_from_slice(&9u32.to_be_bytes());
    let mut data = Vec::new();
    data.extend_from_slice(&Ipv4Addr::new(203, 0, 113, 5).octets());
    data.extend_from_slice(&Ipv4Addr::new(10, 0, 0, 1).octets());
    data.extend_from_slice(&1000u32.to_be_bytes());
    data.extend_from_slice(&7u32.to_be_bytes());
    let mut msg = Vec::new();
    push_set(&mut msg, 2, &template);
    push_set(&mut msg, 300, &data);
    let mut header = Vec::new();
    header.extend_from_slice(&10u16.to_be_bytes());
    header.extend_from_slice(&((16 + msg.len()) as u16).to_be_bytes());
    header.extend_from_slice(&[0; 8]);
    header.extend_from_slice(&1u32.to_be_bytes());
    header.extend_from_slice(&msg);

    let mut decoder = ExporterDecoder::new(ExtractorConfig::default());
    let flows = decoder.decode_datagram(&header).unwrap();
    assert_eq!(flows.len(), 1);
    assert_eq!(
        flows[0].bytes, 1000,
        "the enterprise element overwrote InBytes"
    );
}
