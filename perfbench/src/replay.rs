//! The traced replay: the untraced run's exact inputs (warm-up and probe
//! datagrams and DNS frames) fed single-threaded through each layer's
//! public entry point, with a span around every call.
//!
//! Layers, in the order a record meets them:
//!
//! 1. `ExporterDecoder::decode_datagram_into` (NetFlow v5/v9/IPFIX),
//! 2. `FrameDecoder::feed` (DNS frames),
//! 3. `shard_of_flow` / `shard_of_dns` (routing),
//! 4. `ShardPartition::process_dns` (FillUp) and `process_flow` (LookUp
//!    with the CNAME chase) on a `ShardedStore`,
//! 5. `AsnReader::origin_as` (ASN stamping),
//! 6. `CorrelatedRecord::to_tsv` and `TsvFileSink::write_record` (egress),
//! 7. `export_image` / `encode_snapshot` / `write_snapshot` /
//!    `import_image` once at the end (snapshot).
//!
//! The same replay also runs once without spans; the difference is the
//! tracing overhead. Spans are kept in memory and written out at the end.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use flowdns_bgp::{AsnReader, AsnView, RoutingTable};
use flowdns_core::shard::{shard_of_dns, shard_of_flow};
use flowdns_core::write::{OutputSink, TsvFileSink};
use flowdns_core::{FillUpStats, LookUpStats, ShardedStore};
use flowdns_dns::FrameDecoder;
use flowdns_netflow::{ExporterDecoder, ExtractorConfig};
use flowdns_types::{DnsRecord, FlowRecord};

use crate::daemon::{daemon_config, SegmentReport, WARMUP};
use crate::inputs::{self, Codec, InputGen, Phase, PhaseInputs, Spec, DNS_CONNS, EXPORTERS};
use crate::measure::{metric, Metric};
use crate::{allocations, count_allocations};

/// Raw spans kept for the span file (the ledger counts every call).
const SPAN_KEEP: usize = 200_000;
/// Flows re-encoded per codec the workload does not send itself.
const TRANSCODE_FLOWS: usize = 30_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    NetflowV5,
    NetflowV9,
    NetflowIpfix,
    DnsDecode,
    Route,
    FillUp,
    LookUp,
    Asn,
    Encode,
    SinkWrite,
}

const LAYERS: [Layer; 10] = [
    Layer::NetflowV5,
    Layer::NetflowV9,
    Layer::NetflowIpfix,
    Layer::DnsDecode,
    Layer::Route,
    Layer::FillUp,
    Layer::LookUp,
    Layer::Asn,
    Layer::Encode,
    Layer::SinkWrite,
];

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::NetflowV5 => "netflow.v5",
            Layer::NetflowV9 => "netflow.v9",
            Layer::NetflowIpfix => "netflow.ipfix",
            Layer::DnsDecode => "dns.decode",
            Layer::Route => "shard.route",
            Layer::FillUp => "fillup",
            Layer::LookUp => "lookup",
            Layer::Asn => "asn",
            Layer::Encode => "egress.encode",
            Layer::SinkWrite => "sink.write",
        }
    }

    fn of_codec(codec: Codec) -> Layer {
        match codec {
            Codec::V5 => Layer::NetflowV5,
            Codec::V9 => Layer::NetflowV9,
            Codec::Ipfix => Layer::NetflowIpfix,
        }
    }
}

/// One recorded span: a layer call on behalf of one record (or one
/// datagram / DNS read), linked to the span that caused it.
#[derive(Debug, Clone, Copy)]
struct Span {
    request: u64,
    parent: u32,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

const NO_PARENT: u32 = u32::MAX;

/// Per-layer totals: calls, records, self time, allocations, slowest call.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    calls: u64,
    records: u64,
    ns: u64,
    allocs: u64,
    max_ns: u64,
}

struct Tracer {
    on: bool,
    base: Instant,
    totals: [Totals; 10],
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            base: Instant::now(),
            totals: [Totals::default(); 10],
            spans: Vec::new(),
        }
    }

    fn slot(layer: Layer) -> usize {
        LAYERS
            .iter()
            .position(|l| *l == layer)
            .expect("known layer")
    }

    /// Run `f` as one call of `layer` for `records` records; returns its
    /// result, its duration and the id of its span.
    fn span<T>(
        &mut self,
        layer: Layer,
        records: u64,
        request: u64,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64, u32) {
        if !self.on {
            return (f(), 0, NO_PARENT);
        }
        let a0 = allocations();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let allocs = allocations() - a0;
        let ns = (t1 - t0).as_nanos() as u64;
        let t = &mut self.totals[Self::slot(layer)];
        t.calls += 1;
        t.records += records;
        t.ns += ns;
        t.allocs += allocs;
        t.max_ns = t.max_ns.max(ns);
        let id = if self.spans.len() < SPAN_KEEP {
            self.spans.push(Span {
                request,
                parent,
                layer,
                start_ns: (t0 - self.base).as_nanos() as u64,
                end_ns: (t1 - self.base).as_nanos() as u64,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        (out, ns, id)
    }

    /// Take `ns` of `layer`'s self time away (a callee timed on its own).
    fn subtract(&mut self, layer: Layer, ns: u64) {
        let t = &mut self.totals[Self::slot(layer)];
        t.ns = t.ns.saturating_sub(ns);
    }

    fn get(&self, layer: Layer) -> Totals {
        self.totals[Self::slot(layer)]
    }
}

/// Counters the replay keeps besides time.
#[derive(Debug, Default)]
struct Counts {
    flows: u64,
    expected_records: u64,
    dns_records: u64,
    per_shard: Vec<u64>,
    fillup: FillUpStats,
    lookup: LookUpStats,
    asn_stamped: u64,
    egress_bytes: u64,
}

struct Replayer<'a> {
    spec: &'a Spec,
    store: ShardedStore,
    decoders: Vec<ExporterDecoder>,
    dns: Vec<FrameDecoder>,
    asn: Option<AsnReader>,
    sink: TsvFileSink,
    flows: Vec<FlowRecord>,
    counts: Counts,
    tracer: Tracer,
    sample: Vec<FlowRecord>,
}

impl Replayer<'_> {
    fn feed_dns(&mut self, conn: usize, bytes: &[u8], request: u64) {
        let decoder = &mut self.dns[conn];
        let (records, _, parent) =
            self.tracer
                .span(Layer::DnsDecode, 0, request, NO_PARENT, || {
                    decoder.feed(bytes).expect("generated DNS frames decode")
                });
        let n = records.len() as u64;
        if self.tracer.on {
            self.tracer.totals[Tracer::slot(Layer::DnsDecode)].records += n;
        }
        self.counts.dns_records += n;
        for record in &records {
            self.process_dns(record, request, parent);
        }
    }

    fn process_dns(&mut self, record: &DnsRecord, request: u64, parent: u32) {
        let shards = self.store.shards();
        let (shard, _, _) = self.tracer.span(Layer::Route, 1, request, parent, || {
            shard_of_dns(record, shards)
        });
        self.counts.per_shard[shard] += 1;
        let store = &self.store;
        let stats = &mut self.counts.fillup;
        let mut partition = store.partition(shard).lock();
        self.tracer.span(Layer::FillUp, 1, request, parent, || {
            partition.process_dns(store, record, stats)
        });
    }

    fn datagram(&mut self, exporter: usize, codec: Codec, bytes: &[u8], request: u64) {
        self.flows.clear();
        let decoder = &mut self.decoders[exporter];
        let flows = &mut self.flows;
        let (decoded, _, parent) =
            self.tracer
                .span(Layer::of_codec(codec), 0, request, NO_PARENT, || {
                    decoder.decode_datagram_into(bytes, flows)
                });
        let n = decoded.unwrap_or(0) as u64;
        if self.tracer.on {
            self.tracer.totals[Tracer::slot(Layer::of_codec(codec))].records += n;
        }
        self.counts.expected_records += self.spec.records_per_datagram as u64;
        let flows = std::mem::take(&mut self.flows);
        for flow in &flows {
            if self.sample.len() < TRANSCODE_FLOWS {
                self.sample.push(flow.clone());
            }
            self.process_flow(flow.clone(), parent);
        }
        self.flows = flows;
    }

    fn process_flow(&mut self, flow: FlowRecord, parent: u32) {
        let request = u64::from(inputs::seq_of(&flow));
        let shards = self.store.shards();
        let (shard, _, _) = self.tracer.span(Layer::Route, 1, request, parent, || {
            shard_of_flow(&flow, shards)
        });
        self.counts.per_shard[shard] += 1;
        self.counts.flows += 1;
        let (src, dst) = (flow.key.src_ip, flow.key.dst_ip);
        let store = &self.store;
        let stats = &mut self.counts.lookup;
        let mut none = None;
        let record = {
            let mut partition = store.partition(shard).lock();
            self.tracer
                .span(Layer::LookUp, 1, request, parent, || {
                    partition.process_flow(store, &mut none, flow, stats)
                })
                .0
        };
        let asn = &mut self.asn;
        let ((src_asn, dst_asn), _, _) =
            self.tracer
                .span(Layer::Asn, 1, request, parent, || match asn {
                    Some(reader) => (reader.origin_as(src), reader.origin_as(dst)),
                    None => (None, None),
                });
        if src_asn.is_some() {
            self.counts.asn_stamped += 1;
        }
        let record = record.with_asns(src_asn, dst_asn);
        let (line, encode_ns, _) = self
            .tracer
            .span(Layer::Encode, 1, request, parent, || record.to_tsv());
        self.counts.egress_bytes += line.len() as u64 + 1;
        let sink = &mut self.sink;
        self.tracer.span(Layer::SinkWrite, 1, request, parent, || {
            sink.write_record(&record)
                .expect("replay egress file is writable")
        });
        // `write_record` encodes the line itself: its self time is the
        // call minus the encode measured just before.
        self.tracer.subtract(Layer::SinkWrite, encode_ns);
    }

    /// Feed one phase: datagrams at their slots, with every DNS frame due
    /// by a slot delivered before it, per connection as one read.
    fn phase(&mut self, phase: &Phase, built: &PhaseInputs) {
        let mut next = [0usize; DNS_CONNS];
        let mut offset = [0usize; DNS_CONNS];
        let mut dns_request = 1u64 << 63;
        for j in 0..built.datagram_count() {
            let due = phase.slot_due_ns(self.spec.records_per_datagram, j) as u64;
            for c in 0..DNS_CONNS {
                let frames = &built.dns_frames[c];
                let mut end = next[c];
                while end < frames.len() && frames[end].0 <= due {
                    end += 1;
                }
                if end > next[c] {
                    let to = frames[end - 1].1;
                    let bytes = built.dns_bytes[c][offset[c]..to].to_vec();
                    self.feed_dns(c, &bytes, dns_request);
                    dns_request += 1;
                    offset[c] = to;
                    next[c] = end;
                }
            }
            let exporter = j % EXPORTERS;
            let codec = self.spec.codecs[exporter];
            self.datagram(exporter, codec, built.datagram(j), j as u64);
        }
        for (c, &from) in offset.iter().enumerate() {
            if from < built.dns_bytes[c].len() {
                let bytes = built.dns_bytes[c][from..].to_vec();
                self.feed_dns(c, &bytes, dns_request);
                dns_request += 1;
            }
        }
    }
}

struct Pass {
    wall: Duration,
    tracer: Tracer,
    counts: Counts,
    store: ShardedStore,
    sample: Vec<FlowRecord>,
}

fn replay_pass(
    spec: &Spec,
    work: &Path,
    phases: &[(Phase, PhaseInputs)],
    asn: Option<&AsnView>,
    traced: bool,
) -> Result<Pass, String> {
    let store = ShardedStore::new(&daemon_config(spec, work).correlator);
    let shards = store.shards();
    let mut r = Replayer {
        spec,
        store,
        decoders: (0..EXPORTERS)
            .map(|_| ExporterDecoder::new(ExtractorConfig::default()))
            .collect(),
        dns: (0..DNS_CONNS).map(|_| FrameDecoder::new()).collect(),
        asn: asn.map(AsnView::reader),
        sink: TsvFileSink::create(work.join(format!("replay-{traced}.tsv")))
            .map_err(|e| e.to_string())?,
        flows: Vec::with_capacity(64),
        counts: Counts {
            per_shard: vec![0; shards],
            ..Counts::default()
        },
        tracer: Tracer::new(traced),
        sample: Vec::new(),
    };
    count_allocations(traced);
    let t0 = Instant::now();
    for (phase, built) in phases {
        r.phase(phase, built);
    }
    r.sink.finalize().map_err(|e| e.to_string())?;
    let wall = t0.elapsed();
    count_allocations(false);
    Ok(Pass {
        wall,
        tracer: r.tracer,
        counts: r.counts,
        store: r.store,
        sample: r.sample,
    })
}

/// Decode cost of a codec the workload does not send: the replayed flows
/// re-encoded as that codec (IPv4 only for v5). Returns (ns, allocs,
/// records).
fn transcoded(codec: Codec, sample: &[FlowRecord]) -> (u64, u64, u64) {
    let flows: Vec<FlowRecord> = sample
        .iter()
        .filter(|f| codec != Codec::V5 || (f.key.src_ip.is_ipv4() && f.key.dst_ip.is_ipv4()))
        .cloned()
        .collect();
    let datagrams: Vec<Vec<u8>> = flows
        .chunks(30)
        .enumerate()
        .map(|(i, chunk)| {
            inputs::encode_datagram(
                codec,
                0,
                chunk,
                inputs::SIM_EPOCH_SECS as u32,
                i as u32,
                i % 64 == 0,
            )
        })
        .collect();
    let mut decoder = ExporterDecoder::new(ExtractorConfig::default());
    let mut out = Vec::with_capacity(30);
    let (mut ns, mut allocs, mut records) = (0u64, 0u64, 0u64);
    count_allocations(true);
    for d in &datagrams {
        out.clear();
        let a0 = allocations();
        let t0 = Instant::now();
        let n = decoder.decode_datagram_into(d, &mut out).unwrap_or(0);
        ns += t0.elapsed().as_nanos() as u64;
        allocs += allocations() - a0;
        records += n as u64;
    }
    count_allocations(false);
    (ns, allocs, records)
}

fn spans_path(spec: &Spec, seed: u64) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    root.join("perfbench-spans")
        .join(format!("{}-{seed}.tsv", spec.name))
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| e.to_string();
    writeln!(out, "span\trequest\tparent\tlayer\tstart_ns\tend_ns").map_err(io)?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{}\t{parent}\t{}\t{}\t{}",
            s.request,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)
}

/// Run the untraced and traced replays and derive every per-layer metric.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    work: &Path,
    untraced: &SegmentReport,
) -> Result<Vec<Metric>, String> {
    let cpu_ns_per_flow = untraced.cpu_ns_per_flow;
    let workload = inputs::workload_for(spec, seed);
    let mut gen = InputGen::new(spec, &workload);
    let rate = spec.probe_flows_per_s;
    let phases: Vec<(Phase, PhaseInputs)> = [
        Phase {
            flows_per_s: rate,
            duration: WARMUP,
        },
        Phase {
            flows_per_s: rate,
            duration: Duration::from_secs(seconds),
        },
    ]
    .into_iter()
    .enumerate()
    .map(|(id, phase)| (phase, gen.phase(id, &phase)))
    .collect();
    let asn = if spec.bgp {
        let table =
            RoutingTable::from_announcements_text(&workload.universe().announcements_text())
                .map_err(|e| e.to_string())?;
        Some(AsnView::new(table.freeze()))
    } else {
        None
    };
    drop(gen);

    let plain = replay_pass(spec, work, &phases, asn.as_ref(), false)?;
    let traced = replay_pass(spec, work, &phases, asn.as_ref(), true)?;
    let t = &traced.tracer;
    let c = &traced.counts;
    let flows = c.flows.max(1) as f64;
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;

    // Snapshot layer, once on the replayed store.
    let store = &traced.store;
    let t0 = Instant::now();
    let image = store.export_image();
    let export = t0.elapsed();
    let t0 = Instant::now();
    let encoded = flowdns_snapshot::encode_snapshot(&image);
    let encode = t0.elapsed();
    let snap_path = work.join("replay.snap");
    let t0 = Instant::now();
    let bytes = flowdns_snapshot::write_snapshot(&snap_path, &image).map_err(|e| e.to_string())?;
    let write = t0.elapsed().saturating_sub(encode);
    drop(encoded);
    let config = daemon_config(spec, work);
    let t0 = Instant::now();
    let reread = flowdns_snapshot::read_snapshot(&snap_path).map_err(|e| e.to_string())?;
    ShardedStore::new(&config.correlator)
        .import_image(&reread, None)
        .map_err(|e| e.to_string())?;
    let import = t0.elapsed();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    let mut m = Vec::new();
    let mut layer_ns = 0u64;
    for codec in [Codec::V5, Codec::V9, Codec::Ipfix] {
        let layer = Layer::of_codec(codec);
        let own = t.get(layer);
        let (ns, allocs, records) = if own.records > 0 {
            (own.ns, own.allocs, own.records)
        } else {
            transcoded(codec, &traced.sample)
        };
        layer_ns += own.ns;
        m.push(metric(
            &format!("{}.ns_per_record", layer.name()),
            per(ns, records),
            "ns",
        ));
        m.push(metric(
            &format!("{}.allocs_per_record", layer.name()),
            per(allocs, records),
            "count",
        ));
    }
    m.push(metric(
        "netflow.rejected_records",
        c.expected_records.saturating_sub(
            t.get(Layer::NetflowV5).records
                + t.get(Layer::NetflowV9).records
                + t.get(Layer::NetflowIpfix).records,
        ) as f64,
        "count",
    ));
    let dns = t.get(Layer::DnsDecode);
    m.push(metric(
        "dns.decode_ns_per_record",
        per(dns.ns, dns.records),
        "ns",
    ));
    m.push(metric(
        "dns.decode_allocs_per_record",
        per(dns.allocs, dns.records),
        "count",
    ));
    let route = t.get(Layer::Route);
    m.push(metric(
        "shard.route_ns_per_record",
        per(route.ns, route.records),
        "ns",
    ));
    let max_shard = c.per_shard.iter().copied().max().unwrap_or(0) as f64;
    let mean_shard = c.per_shard.iter().sum::<u64>() as f64 / c.per_shard.len().max(1) as f64;
    m.push(metric(
        "shard.skew",
        max_shard / mean_shard.max(1.0),
        "ratio",
    ));
    let fill = t.get(Layer::FillUp);
    m.push(metric(
        "fillup.ns_per_record",
        per(fill.ns, fill.records),
        "ns",
    ));
    m.push(metric(
        "fillup.allocs_per_record",
        per(fill.allocs, fill.records),
        "count",
    ));
    m.push(metric(
        "fillup.stored_ratio",
        (c.fillup.addresses_stored + c.fillup.cnames_stored) as f64
            / c.fillup.total().max(1) as f64,
        "ratio",
    ));
    m.push(metric("fillup.max_call_us", fill.max_ns as f64 / 1e3, "us"));
    let look = t.get(Layer::LookUp);
    m.push(metric("lookup.ns_per_flow", look.ns as f64 / flows, "ns"));
    m.push(metric(
        "lookup.allocs_per_flow",
        look.allocs as f64 / flows,
        "count",
    ));
    m.push(metric(
        "lookup.hit_ratio",
        c.lookup.ip_hits as f64 / flows,
        "ratio",
    ));
    m.push(metric(
        "lookup.cname_hops_per_flow",
        c.lookup.cname_hops as f64 / flows,
        "count",
    ));
    m.push(metric("lookup.max_call_us", look.max_ns as f64 / 1e3, "us"));
    let asn_t = t.get(Layer::Asn);
    m.push(metric("asn.ns_per_flow", asn_t.ns as f64 / flows, "ns"));
    m.push(metric(
        "asn.stamped_ratio",
        c.asn_stamped as f64 / flows,
        "ratio",
    ));
    let enc = t.get(Layer::Encode);
    m.push(metric(
        "egress.encode_ns_per_record",
        per(enc.ns, enc.records),
        "ns",
    ));
    m.push(metric(
        "egress.encode_allocs_per_record",
        per(enc.allocs, enc.records),
        "count",
    ));
    m.push(metric(
        "egress.bytes_per_record",
        c.egress_bytes as f64 / flows,
        "bytes",
    ));
    let sink = t.get(Layer::SinkWrite);
    m.push(metric(
        "sink.write_ns_per_record",
        per(sink.ns, sink.records),
        "ns",
    ));
    m.push(metric("snapshot.export_ms", ms(export), "ms"));
    m.push(metric("snapshot.encode_ms", ms(encode), "ms"));
    m.push(metric("snapshot.write_ms", ms(write), "ms"));
    m.push(metric("snapshot.bytes", bytes as f64, "bytes"));
    m.push(metric("snapshot.import_ms", ms(import), "ms"));
    let entries = store.total_entries();
    m.push(metric("store.entries_end", entries as f64, "count"));
    m.push(metric(
        "store.bytes_per_entry",
        store.memory_estimate().total_bytes() as f64 / entries.max(1) as f64,
        "bytes",
    ));
    m.push(metric("store.clear_ups", store.clear_ups() as f64, "count"));

    // The ledger: every layer's self time per flow leaves hand-off
    // (queues, wake-ups, syscalls, copies) as the named residual.
    for layer in [
        Layer::DnsDecode,
        Layer::Route,
        Layer::FillUp,
        Layer::LookUp,
        Layer::Asn,
        Layer::Encode,
        Layer::SinkWrite,
    ] {
        layer_ns += t.get(layer).ns;
    }
    let layers_per_flow = layer_ns as f64 / flows;
    m.push(metric("ledger.cpu_ns_per_flow", cpu_ns_per_flow, "ns"));
    m.push(metric("ledger.layers_ns_per_flow", layers_per_flow, "ns"));
    m.push(metric(
        "handoff.ns_per_flow",
        cpu_ns_per_flow - layers_per_flow,
        "ns",
    ));
    m.push(metric(
        "replay.flows_per_s",
        c.flows as f64 / plain.wall.as_secs_f64(),
        "flows/s",
    ));
    m.push(metric(
        "trace.overhead_pct",
        (traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0) * 100.0,
        "%",
    ));
    if plain.counts.flows != c.flows || plain.counts.lookup.ip_hits != c.lookup.ip_hits {
        return Err("the traced and untraced replays disagree on the output".into());
    }
    write_spans(&spans_path(spec, seed), &t.spans)?;
    eprintln!(
        "perfbench: replay ledger ({} flows, {} DNS records):",
        c.flows, c.dns_records
    );
    for layer in LAYERS {
        let l = t.get(layer);
        eprintln!(
            "  {:<14} {:>10.1} ns/flow  {:>9} calls  max {:>8.1} us",
            layer.name(),
            l.ns as f64 / flows,
            l.calls,
            l.max_ns as f64 / 1e3
        );
    }
    Ok(m)
}
