//! Seeded workload inputs: the ISP workloads, the wire encoding of
//! their flows and DNS records, and the send schedule.
//!
//! The generator process and the traced replay both build their inputs
//! here, so a seed yields byte-identical datagrams and DNS frames in both.
//!
//! Every flow carries a 32-bit sequence number in its two port fields
//! (`src_port` = high half, `dst_port` = low half). The pipeline passes
//! ports through decode, lookup and egress unchanged and nothing in it
//! filters on them, unlike `packets`, which the extractor's validity
//! filter compares against `bytes`. The sequence number names the phase,
//! the datagram and the record slot, so the egress side can recover each
//! flow's scheduled send time without a side channel. The flow's class
//! (workload content flow or other workload flow) rides in the protocol
//! field for the same reason.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Duration;

use flowdns_dns::FrameEncoder;
use flowdns_gen::{
    StreamEvent, SubscriberPopulation, UniverseConfig, Workload, WorkloadConfig, WorkloadIter,
};
use flowdns_netflow::v9::encode_standard_ipv4_record;
use flowdns_netflow::{
    IpfixMessageBuilder, Template, V5Header, V5Packet, V5Record, V9PacketBuilder,
};
use flowdns_types::{
    DnsRecord, DomainName, FlowDirection, FlowRecord, Protocol, SimDuration, SimTime,
};

/// NetFlow exporter sockets of the generator (one per core of the
/// two-core reference host; fixed so inputs never depend on the host).
pub const EXPORTERS: usize = 2;
/// DNS-feed TCP connections: the paper's two resolver streams.
pub const DNS_CONNS: usize = 2;
/// Simulated time 0 maps to this Unix second on the wire.
pub const SIM_EPOCH_SECS: u64 = 1_700_000_000;
/// DNS records leave this long before the flows that follow them in the
/// generated trace, so a record reaches the store before any flow that
/// could use it, even across the separate TCP and UDP ingress paths and
/// while a freshly started daemon is still warming up.
pub const DNS_LEAD: Duration = Duration::from_millis(100);
/// Least time between an address record that moves an address to another
/// name and any flow from that address, in either order: well above the
/// daemon's ingress-to-egress jitter at the probe rates.
pub const DNS_GUARD: Duration = Duration::from_millis(30);
/// v9/IPFIX exporters repeat their templates every this many datagrams.
const TEMPLATE_REFRESH: u64 = 64;
const TEMPLATE_V4: u16 = 256;
const TEMPLATE_V6: u16 = 257;

/// Flow class of a workload content flow (inbound, generator port 443):
/// the population `Workload::expected_correlation_fraction` speaks of.
pub const CLASS_CONTENT: u8 = 6;
/// Flow class of every other workload flow (DNS queries, return traffic).
pub const CLASS_OTHER: u8 = 17;
/// Flow classes: content, other.
pub const CLASSES: usize = 2;

const PHASE_BITS: u32 = 6;
const INDEX_BITS: u32 = 21;
const SLOT_BITS: u32 = 5;
/// Most phases one run can schedule.
pub const MAX_PHASES: usize = 1 << PHASE_BITS;
/// Most datagrams one phase can schedule.
pub const MAX_DATAGRAMS: usize = 1 << INDEX_BITS;

/// Pack (phase, datagram index, record slot) into a sequence number.
pub fn encode_seq(phase: usize, index: usize, slot: usize) -> u32 {
    debug_assert!(phase < MAX_PHASES && index < MAX_DATAGRAMS && slot < (1 << SLOT_BITS));
    ((phase as u32) << (INDEX_BITS + SLOT_BITS)) | ((index as u32) << SLOT_BITS) | slot as u32
}

/// Unpack a sequence number into (phase, datagram index, record slot).
pub fn decode_seq(seq: u32) -> (usize, usize, usize) {
    (
        (seq >> (INDEX_BITS + SLOT_BITS)) as usize,
        ((seq >> SLOT_BITS) & ((1 << INDEX_BITS) - 1)) as usize,
        (seq & ((1 << SLOT_BITS) - 1)) as usize,
    )
}

/// The sequence number a decoded or egressed flow carries.
pub fn seq_of(flow: &FlowRecord) -> u32 {
    (u32::from(flow.key.src_port) << 16) | u32::from(flow.key.dst_port)
}

/// Wire codec of one exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// NetFlow v5 (IPv4 only).
    V5,
    /// NetFlow v9 with the standard v4/v6 templates.
    V9,
    /// IPFIX with the same templates.
    Ipfix,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Codec of exporter `i`.
    pub codecs: [Codec; EXPORTERS],
    /// Flow records per datagram.
    pub records_per_datagram: usize,
    /// Drop the universe's IPv6 flows (NetFlow v5 cannot carry them).
    pub ipv4_only: bool,
    /// Service-concentration exponent replacing the population's own.
    pub concentration: Option<f64>,
    /// Offered flow rate of the fixed-rate probe, flows per second. Set
    /// once, well under the seed commit's knee, and never derived from
    /// a run: a faster commit is probed at the same rate.
    pub probe_flows_per_s: f64,
    /// First rung of the SLO-knee ladder, flows per second: near the seed
    /// commit's knee, so the ladder needs few rungs. Fixed, like the probe
    /// rate, so every commit climbs the same ladder.
    pub knee_first_rung_flows_per_s: f64,
    /// Generator flow rate at the diurnal peak, per simulated second.
    /// With the probe rate it fixes how fast simulated time runs.
    pub sim_peak_flows_per_s: f64,
    /// Generator background DNS rate at the diurnal peak.
    pub background_dns_per_s: f64,
    /// Load the universe's BGP announcements into the daemon.
    pub bgp: bool,
}

/// The workloads. Every one runs a live DNS feed beside its flows.
pub const SPECS: [Spec; 2] = [
    // Many small v5 datagrams over a small, cache-hot store: per-datagram
    // receive, routing and hand-off dominate.
    Spec {
        name: "edge-v5",
        codecs: [Codec::V5, Codec::V5],
        records_per_datagram: 5,
        ipv4_only: true,
        concentration: None,
        probe_flows_per_s: 60_000.0,
        knee_first_rung_flows_per_s: 400_000.0,
        sim_peak_flows_per_s: 5_000.0,
        background_dns_per_s: 600.0,
        bgp: false,
    },
    // Full v9 and IPFIX datagrams with IPv6, CDN-heavy traffic (long
    // CNAME chains) and ASN stamping: decode, chase and encode dominate.
    Spec {
        name: "cdn-v9",
        codecs: [Codec::V9, Codec::Ipfix],
        records_per_datagram: 30,
        ipv4_only: false,
        concentration: Some(1.4),
        probe_flows_per_s: 50_000.0,
        knee_first_rung_flows_per_s: 300_000.0,
        sim_peak_flows_per_s: 5_000.0,
        background_dns_per_s: 600.0,
        bgp: true,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The generator configuration of a workload.
pub fn workload_for(spec: &Spec, seed: u64) -> Workload {
    let mut population = SubscriberPopulation::mixed();
    if let Some(c) = spec.concentration {
        population.service_concentration = c;
    }
    Workload::new(WorkloadConfig {
        universe: UniverseConfig::default(),
        population,
        // Far longer than any run consumes.
        duration: SimDuration::from_hours(24 * 365 * 10),
        peak_flows_per_sec: spec.sim_peak_flows_per_s,
        background_dns_per_sec: spec.background_dns_per_s,
        seed,
        ..WorkloadConfig::default()
    })
}

/// The analytic share of content flows that should correlate: the
/// generator's own `Workload::expected_correlation_fraction`, or its
/// model restricted to IPv4 edge addresses when the workload drops IPv6
/// flows.
pub fn expected_content_correlation(workload: &Workload, ipv4_only: bool) -> f64 {
    if ipv4_only {
        correlation_model(workload, IpAddr::is_ipv4)
    } else {
        workload.expected_correlation_fraction()
    }
}

/// The generator's correlation model over the edge addresses `keep`
/// admits: each service weighs `popularity ^ concentration`, spread evenly
/// over its edge addresses; addresses the DNS feed never shows (hidden,
/// or of services without DNS) do not correlate.
fn correlation_model(workload: &Workload, keep: impl Fn(&IpAddr) -> bool) -> f64 {
    let exponent = workload.population().service_concentration;
    let hidden = workload.hidden_ips();
    let (mut visible, mut total) = (0.0, 0.0);
    for s in &workload.universe().services {
        let weight = s.popularity.powf(exponent);
        if s.edge_ips.is_empty() {
            continue;
        }
        let n = s.edge_ips.len() as f64;
        let kept = s.edge_ips.iter().filter(|ip| keep(ip)).count() as f64;
        total += weight * kept / n;
        if s.dns_related {
            let shown = s
                .edge_ips
                .iter()
                .filter(|ip| keep(ip) && !hidden.contains(ip))
                .count() as f64;
            visible += weight * shown / n;
        }
    }
    visible / total
}

/// One scheduled phase: a fixed offered rate for a fixed time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Offered flow rate.
    pub flows_per_s: f64,
    /// Sending time.
    pub duration: Duration,
}

impl Phase {
    /// Datagrams the phase sends at `records_per_datagram`.
    pub fn datagrams(&self, records_per_datagram: usize) -> usize {
        let n = (self.flows_per_s * self.duration.as_secs_f64() / records_per_datagram as f64)
            .round() as usize;
        n.clamp(1, MAX_DATAGRAMS - 1)
    }

    /// Due time of datagram slot `j`, nanoseconds after the phase start. Slot
    /// 0 waits `DNS_LEAD` so the DNS records before the first flow lead it
    /// like every later one.
    pub fn slot_due_ns(&self, records_per_datagram: usize, j: usize) -> f64 {
        DNS_LEAD.as_nanos() as f64 + j as f64 * self.interval_ns(records_per_datagram)
    }

    /// Time between datagram send slots, nanoseconds.
    pub fn interval_ns(&self, records_per_datagram: usize) -> f64 {
        self.duration.as_nanos() as f64 / self.datagrams(records_per_datagram) as f64
    }
}

/// The encoded inputs of one phase.
#[derive(Debug, Default)]
pub struct PhaseInputs {
    /// All datagrams back to back; datagram `j` is
    /// `datagrams[offsets[j]..offsets[j + 1]]`, sent by exporter
    /// `j % EXPORTERS` at slot `j`.
    pub datagrams: Vec<u8>,
    /// Datagram boundaries (`len = count + 1`).
    pub offsets: Vec<usize>,
    /// Per DNS connection: the encoded frames back to back.
    pub dns_bytes: [Vec<u8>; DNS_CONNS],
    /// Per DNS connection, per record: (due offset from phase start in
    /// ns, end offset of its frame in `dns_bytes`).
    pub dns_frames: [Vec<(u64, usize)>; DNS_CONNS],
    /// Flows per class: content, other.
    pub flows_by_class: [u64; CLASSES],
    /// IPv6 flows.
    pub ipv6_flows: u64,
}

impl PhaseInputs {
    /// Datagrams in the phase.
    pub fn datagram_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Bytes of datagram `j`.
    pub fn datagram(&self, j: usize) -> &[u8] {
        &self.datagrams[self.offsets[j]..self.offsets[j + 1]]
    }

    /// DNS records in the phase.
    pub fn dns_records(&self) -> usize {
        self.dns_frames.iter().map(Vec::len).sum()
    }

    /// Flows in the phase.
    pub fn flows(&self) -> u64 {
        self.flows_by_class.iter().sum()
    }
}

/// Index of a class in [`PhaseInputs::flows_by_class`].
pub fn class_index(class: u8) -> usize {
    usize::from(class != CLASS_CONTENT)
}

/// A flow waiting for its datagram.
struct PendingFlow {
    flow: FlowRecord,
    class: u8,
}

/// Per-exporter wire state.
#[derive(Debug, Default, Clone, Copy)]
struct ExporterState {
    sequence: u32,
    datagrams: u64,
}

/// Builds phase after phase of inputs from one continuing workload trace.
pub struct InputGen<'a> {
    spec: &'a Spec,
    events: WorkloadIter<'a>,
    exporters: [ExporterState; EXPORTERS],
    encoder: FrameEncoder,
    dns_counter: usize,
    /// Per workload edge address, the name its latest address record
    /// carried.
    owner: HashMap<IpAddr, DomainName>,
}

impl<'a> InputGen<'a> {
    /// Start at the beginning of `workload`'s trace.
    pub fn new(spec: &'a Spec, workload: &'a Workload) -> Self {
        InputGen {
            spec,
            events: workload.events(),
            exporters: [ExporterState::default(); EXPORTERS],
            encoder: FrameEncoder::new(),
            dns_counter: 0,
            owner: HashMap::new(),
        }
    }

    /// Encode `record` onto its connection, due at `due_ns` or later.
    /// `slots` holds the sorted slot times of each address's flows in the
    /// phase, `conn_due` each connection's latest due time.
    fn push_dns(
        &mut self,
        out: &mut PhaseInputs,
        mut record: DnsRecord,
        due_ns: u64,
        slots: &HashMap<IpAddr, Vec<u64>>,
        conn_due: &mut [u64; DNS_CONNS],
    ) {
        record.ts = SimTime::from_micros(record.ts.as_micros() + SIM_EPOCH_SECS * 1_000_000);
        // Every address record of one address rides the same connection,
        // so the daemon applies them in the order they were generated;
        // across two connections a record moving the address to another
        // name could overtake the one before it.
        let conn = match record.answer.as_ip() {
            Some(ip) => conn_of(ip),
            None => {
                self.dns_counter += 1;
                self.dns_counter % DNS_CONNS
            }
        };
        // Frames of one connection leave in order, so due times never
        // decrease. An address record that moves a shared address to
        // another name, sent within `DNS_GUARD` of a flow from that
        // address, would race the flow through the two ingress paths and
        // the flow could resolve to either name; such a record waits
        // until it is clear of the address's flows before and after it,
        // which keeps the egress a function of the seed.
        let mut due = due_ns.max(conn_due[conn]);
        if let Some(ip) = record.answer.as_ip() {
            let previous = self.owner.insert(ip, record.query.clone());
            let moved = previous.is_some_and(|p| p != record.query);
            if let Some(slots) = slots.get(&ip).filter(|_| moved) {
                due = clear_of(slots, due, DNS_GUARD.as_nanos() as u64);
            }
        }
        conn_due[conn] = due;
        let frame = self
            .encoder
            .encode_batch(std::slice::from_ref(&record))
            .expect("generated DNS records are frameable");
        out.dns_bytes[conn].extend_from_slice(&frame[..]);
        out.dns_frames[conn].push((due, out.dns_bytes[conn].len()));
    }

    /// Generate the inputs of `phase` (phase id `id`): exactly
    /// `phase.datagrams(rpd) * rpd` flows, with the DNS records the
    /// trace interleaves among them.
    pub fn phase(&mut self, id: usize, phase: &Phase) -> PhaseInputs {
        let rpd = self.spec.records_per_datagram;
        let count = phase.datagrams(rpd);
        let interval = phase.interval_ns(rpd);
        let mut out = PhaseInputs {
            offsets: vec![0],
            ..PhaseInputs::default()
        };
        let mut pending: Vec<PendingFlow> = Vec::with_capacity(rpd);
        let mut records: Vec<(u64, DnsRecord)> = Vec::new();
        let mut slots: HashMap<IpAddr, Vec<u64>> = HashMap::new();
        let mut index = 0usize;
        while index < count {
            // DNS records leave `DNS_LEAD` before the slot of the datagram
            // that will carry the next flow.
            let due_ns = (index as f64 * interval) as u64;
            let event = self
                .events
                .next()
                .expect("the ten-year trace outlasts any run");
            let flow = match event {
                StreamEvent::Dns(record) => {
                    records.push((due_ns, record));
                    continue;
                }
                StreamEvent::Flow(flow) => flow,
            };
            if self.spec.ipv4_only && flow.key.src_ip.is_ipv6() {
                continue;
            }
            let class = if flow.direction == FlowDirection::Inbound && flow.key.dst_port == 443 {
                CLASS_CONTENT
            } else {
                CLASS_OTHER
            };
            pending.push(PendingFlow { flow, class });
            while pending.len() >= rpd && index < count {
                let batch: Vec<PendingFlow> = pending.drain(..rpd).collect();
                let slot = phase.slot_due_ns(rpd, index) as u64;
                for f in &batch {
                    slots.entry(f.flow.key.src_ip).or_default().push(slot);
                }
                self.pack_datagram(&mut out, id, index, &batch);
                index += 1;
            }
        }
        // Records are scheduled once every flow of the phase has its slot,
        // so the guard sees the flows after a record as well as before it.
        let mut conn_due = [0; DNS_CONNS];
        for (due_ns, record) in records {
            self.push_dns(&mut out, record, due_ns, &slots, &mut conn_due);
        }
        out
    }

    fn pack_datagram(
        &mut self,
        out: &mut PhaseInputs,
        phase: usize,
        index: usize,
        flows: &[PendingFlow],
    ) {
        let exporter = index % EXPORTERS;
        let codec = self.spec.codecs[exporter];
        let unix_secs = (SIM_EPOCH_SECS + flows[0].flow.ts.as_secs()) as u32;
        let stamped: Vec<FlowRecord> = flows
            .iter()
            .enumerate()
            .map(|(slot, f)| {
                out.flows_by_class[class_index(f.class)] += 1;
                if f.flow.key.src_ip.is_ipv6() {
                    out.ipv6_flows += 1;
                }
                let seq = encode_seq(phase, index, slot);
                let mut flow = f.flow.clone();
                flow.key.src_port = (seq >> 16) as u16;
                flow.key.dst_port = seq as u16;
                flow.key.proto = Protocol::from_u8(f.class);
                flow
            })
            .collect();
        let state = &mut self.exporters[exporter];
        let with_templates = state.datagrams.is_multiple_of(TEMPLATE_REFRESH);
        let bytes = encode_datagram(
            codec,
            exporter,
            &stamped,
            unix_secs,
            state.sequence,
            with_templates,
        );
        state.sequence = state.sequence.wrapping_add(match codec {
            Codec::V9 => 1,
            _ => stamped.len() as u32,
        });
        state.datagrams += 1;
        out.datagrams.extend_from_slice(&bytes);
        out.offsets.push(out.datagrams.len());
    }
}

/// The earliest time at or after `due` that lies at least `guard` away
/// from every one of the sorted `slots`.
fn clear_of(slots: &[u64], mut due: u64, guard: u64) -> u64 {
    let mut next = slots.partition_point(|&s| s + guard <= due);
    while let Some(&s) = slots.get(next) {
        if s >= due + guard {
            break;
        }
        due = s + guard;
        next += 1;
    }
    due
}

/// The DNS connection that carries the address records of `ip`.
fn conn_of(ip: IpAddr) -> usize {
    let bits = match ip {
        IpAddr::V4(v4) => u128::from(u32::from(v4)),
        IpAddr::V6(v6) => u128::from(v6),
    };
    let folded = (bits as u64) ^ ((bits >> 64) as u64);
    (folded.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % DNS_CONNS
}

fn wire_bytes(flow: &FlowRecord) -> (u32, u32) {
    let bytes = flow.bytes.clamp(1, u64::from(u32::MAX)) as u32;
    (bytes, (bytes / 1_400).max(1))
}

/// Encode `flows` (ports and protocol already carrying sequence number and
/// class) as one datagram of `codec` from `exporter`. v5 cannot carry
/// IPv6 addresses; callers pass it IPv4 flows only.
pub fn encode_datagram(
    codec: Codec,
    exporter: usize,
    flows: &[FlowRecord],
    unix_secs: u32,
    sequence: u32,
    with_templates: bool,
) -> Vec<u8> {
    match codec {
        Codec::V5 => encode_v5(flows, unix_secs, sequence),
        Codec::V9 | Codec::Ipfix => {
            encode_templated(codec, exporter, flows, unix_secs, sequence, with_templates)
        }
    }
}

fn encode_v5(flows: &[FlowRecord], unix_secs: u32, sequence: u32) -> Vec<u8> {
    let v4 = |ip: IpAddr| match ip {
        IpAddr::V4(v4) => v4,
        IpAddr::V6(_) => Ipv4Addr::UNSPECIFIED,
    };
    let records = flows
        .iter()
        .map(|f| {
            let (octets, packets) = wire_bytes(f);
            V5Record {
                src_addr: v4(f.key.src_ip),
                dst_addr: v4(f.key.dst_ip),
                src_port: f.key.src_port,
                dst_port: f.key.dst_port,
                proto: f.key.proto.to_u8(),
                packets,
                octets,
                ..V5Record::default()
            }
        })
        .collect();
    V5Packet {
        header: V5Header {
            unix_secs,
            flow_sequence: sequence,
            ..V5Header::default()
        },
        records,
    }
    .encode()
    .expect("1..=30 records per v5 datagram")
}

fn encode_v6_record(f: &FlowRecord) -> Vec<u8> {
    let (bytes, packets) = wire_bytes(f);
    let octets = |ip: IpAddr| match ip {
        IpAddr::V6(v6) => v6.octets(),
        IpAddr::V4(v4) => v4.to_ipv6_mapped().octets(),
    };
    let mut out = Vec::with_capacity(45);
    out.extend_from_slice(&octets(f.key.src_ip));
    out.extend_from_slice(&octets(f.key.dst_ip));
    out.extend_from_slice(&f.key.src_port.to_be_bytes());
    out.extend_from_slice(&f.key.dst_port.to_be_bytes());
    out.push(f.key.proto.to_u8());
    out.extend_from_slice(&bytes.to_be_bytes());
    out.extend_from_slice(&packets.to_be_bytes());
    out
}

fn encode_templated(
    codec: Codec,
    exporter: usize,
    flows: &[FlowRecord],
    unix_secs: u32,
    sequence: u32,
    with_templates: bool,
) -> Vec<u8> {
    let v4_template = Template::standard_ipv4(TEMPLATE_V4);
    let v6_template = Template::standard_ipv6(TEMPLATE_V6);
    let mut v4 = Vec::new();
    let mut v6 = Vec::new();
    for f in flows {
        match (f.key.src_ip, f.key.dst_ip) {
            (IpAddr::V4(src), IpAddr::V4(dst)) => {
                let (bytes, packets) = wire_bytes(f);
                v4.push(encode_standard_ipv4_record(
                    src,
                    dst,
                    f.key.src_port,
                    f.key.dst_port,
                    f.key.proto.to_u8(),
                    bytes,
                    packets,
                    0,
                    0,
                ));
            }
            _ => v6.push(encode_v6_record(f)),
        }
    }
    let source = 100 + exporter as u32;
    let templates = [v4_template.clone(), v6_template.clone()];
    match codec {
        Codec::V9 => {
            let mut b = V9PacketBuilder::new(source, sequence, unix_secs);
            if with_templates {
                b.add_templates(&templates);
            }
            if !v4.is_empty() {
                b.add_data(&v4_template, &v4)
                    .expect("v4 records match the template");
            }
            if !v6.is_empty() {
                b.add_data(&v6_template, &v6)
                    .expect("v6 records match the template");
            }
            b.build(0)
        }
        _ => {
            let mut b = IpfixMessageBuilder::new(source, sequence, unix_secs);
            if with_templates {
                b.add_templates(&templates);
            }
            if !v4.is_empty() {
                b.add_data(&v4_template, &v4)
                    .expect("v4 records match the template");
            }
            if !v6.is_empty() {
                b.add_data(&v6_template, &v6)
                    .expect("v6 records match the template");
            }
            b.build()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdns_netflow::{ExporterDecoder, ExtractorConfig};

    fn decode_all(spec: &Spec, inputs: &PhaseInputs) -> Vec<FlowRecord> {
        let mut decoders: Vec<ExporterDecoder> = (0..EXPORTERS)
            .map(|_| ExporterDecoder::new(ExtractorConfig::default()))
            .collect();
        let mut flows = Vec::new();
        for j in 0..inputs.datagram_count() {
            decoders[j % EXPORTERS]
                .decode_datagram_into(inputs.datagram(j), &mut flows)
                .expect("generated datagrams decode");
        }
        assert_eq!(
            flows.len(),
            inputs.datagram_count() * spec.records_per_datagram,
            "{}: every encoded flow survives decode and extraction",
            spec.name
        );
        flows
    }

    /// The sequence carrier survives v5, v9 and IPFIX decode and the
    /// extractor's validity filter: every slot of every datagram comes
    /// back exactly once, with its class.
    #[test]
    fn sequence_numbers_survive_decode_and_extract() {
        for spec in &SPECS {
            let workload = workload_for(spec, 7);
            let mut gen = InputGen::new(spec, &workload);
            let phase = Phase {
                flows_per_s: 20_000.0,
                duration: Duration::from_millis(200),
            };
            let inputs = gen.phase(3, &phase);
            let flows = decode_all(spec, &inputs);
            let mut seen = std::collections::HashSet::new();
            let mut by_class = [0u64; CLASSES];
            for f in &flows {
                let (p, index, slot) = decode_seq(seq_of(f));
                assert_eq!(p, 3);
                assert!(index < inputs.datagram_count() && slot < spec.records_per_datagram);
                assert!(seen.insert(seq_of(f)), "duplicate sequence number");
                by_class[class_index(f.key.proto.to_u8())] += 1;
            }
            assert_eq!(by_class, inputs.flows_by_class, "{}", spec.name);
            if spec.codecs.contains(&Codec::V9) {
                assert!(inputs.ipv6_flows > 0, "cdn-v9 carries IPv6 flows");
            }
        }
    }

    #[test]
    fn guarded_records_clear_flows_on_both_sides() {
        let slots = [100, 100, 130, 200, 400];
        assert_eq!(clear_of(&slots, 50, 20), 50);
        assert_eq!(clear_of(&slots, 95, 20), 150);
        assert_eq!(clear_of(&slots, 125, 20), 150);
        assert_eq!(clear_of(&slots, 185, 20), 220);
        assert_eq!(clear_of(&slots, 300, 20), 300);
        assert_eq!(clear_of(&slots, 390, 20), 420);
    }

    #[test]
    fn sequence_layout_round_trips() {
        for (p, i, s) in [(0, 0, 0), (31, MAX_DATAGRAMS - 1, 31), (5, 12_345, 29)] {
            assert_eq!(decode_seq(encode_seq(p, i, s)), (p, i, s));
        }
    }

    /// The IPv4-restricted model is the generator's own model: without
    /// the restriction the two agree.
    #[test]
    fn correlation_model_matches_the_generator_without_a_filter() {
        let workload = workload_for(&SPECS[1], 11);
        let ours = correlation_model(&workload, |_| true);
        assert!((ours - workload.expected_correlation_fraction()).abs() < 1e-9);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let spec = &SPECS[0];
        let phase = Phase {
            flows_per_s: 10_000.0,
            duration: Duration::from_millis(100),
        };
        let run = |seed| {
            let workload = workload_for(spec, seed);
            let mut gen = InputGen::new(spec, &workload);
            gen.phase(0, &phase).datagrams
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
