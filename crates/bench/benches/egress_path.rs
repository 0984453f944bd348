//! The egress-path comparison: sharded vs. mutexed write stage, frozen
//! vs. trie longest-prefix-match.
//!
//! Two hot paths changed in the sharded-egress refactor:
//!
//! * **Writer**: the old `SharedWriter` funnelled every write worker
//!   through one `Mutex<Box<dyn OutputSink>>`; the sharded design gives
//!   each worker its own sink, so serialization happens without any
//!   lock. The bench replays the same record batch through both shapes
//!   across several threads.
//! * **LPM**: the old per-record AS attribution walked the bit trie;
//!   the pipeline now reads a [`FrozenTable`] of flat sorted arrays.
//!   The bench probes both with the same address batch.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use parking_lot::Mutex;

use flowdns_bgp::{Announcement, FrozenTable, Prefix, RoutingTable};
use flowdns_core::OutputSink;
use flowdns_types::{
    CorrelatedRecord, CorrelationOutcome, DomainName, FlowDnsError, FlowRecord, SimTime,
};

const RECORDS: usize = 16_384;
const THREADS: usize = 4;
const PREFIXES: u32 = 1_024;
const PROBES: u32 = 1_024;

/// A sink that pays the serialization cost — encoding into a reused
/// line buffer, as the file sinks do — and keeps one counter: the
/// cheapest "real" sink, so the lock (or its absence) dominates.
#[derive(Default)]
struct CountingSink {
    bytes: u64,
    line: Vec<u8>,
}

impl OutputSink for CountingSink {
    fn write_record(&mut self, record: &CorrelatedRecord) -> Result<(), FlowDnsError> {
        self.line.clear();
        record.write_tsv(&mut self.line);
        self.bytes += self.line.len() as u64;
        Ok(())
    }
}

fn record_batch() -> Vec<CorrelatedRecord> {
    (0..RECORDS)
        .map(|i| {
            CorrelatedRecord::new(
                FlowRecord::inbound(
                    SimTime::from_secs(i as u64),
                    Ipv4Addr::new(100, 64, (i >> 8) as u8, i as u8).into(),
                    Ipv4Addr::new(10, 0, 0, 1).into(),
                    1_000 + i as u64,
                ),
                CorrelationOutcome::Name(DomainName::literal(&format!(
                    "edge{}.cdn.example.net",
                    i % 512
                ))),
            )
            .with_asns(Some(64_500), None)
        })
        .collect()
}

fn bench_writers(c: &mut Criterion) {
    let batch = Arc::new(record_batch());
    let mut group = c.benchmark_group("egress_path");
    group.sample_size(30);
    group.throughput(Throughput::Elements(RECORDS as u64));

    // The seed design: every thread funnels through one mutexed sink.
    group.bench_function("mutexed_writer", |b| {
        b.iter(|| {
            let sink: Arc<Mutex<Box<dyn OutputSink>>> =
                Arc::new(Mutex::new(Box::new(CountingSink::default())));
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let sink = Arc::clone(&sink);
                    let batch = Arc::clone(&batch);
                    scope.spawn(move || {
                        for record in batch.iter().skip(t).step_by(THREADS) {
                            sink.lock().write_record(record).unwrap();
                        }
                    });
                }
            });
            black_box(());
        })
    });

    // The sharded design: every thread owns its sink, no lock at all.
    group.bench_function("sharded_writer", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let batch = Arc::clone(&batch);
                    scope.spawn(move || {
                        let mut sink = CountingSink::default();
                        for record in batch.iter().skip(t).step_by(THREADS) {
                            sink.write_record(record).unwrap();
                        }
                        black_box(sink.bytes);
                    });
                }
            });
            black_box(());
        })
    });

    group.finish();
}

fn announcement_set() -> Vec<Announcement> {
    (0..PREFIXES)
        .flat_map(|i| {
            let base = Ipv4Addr::new(100, 64 + (i >> 8) as u8, (i & 0xff) as u8, 0);
            // A /24 plus a nested /28: realistic overlap in every block.
            [(24u8, 64_500 + i % 100), (28, 64_600 + i % 100)]
                .into_iter()
                .map(move |(len, asn)| Announcement {
                    prefix: Prefix::new(IpAddr::V4(base), len).expect("valid len"),
                    origin_as: asn,
                })
        })
        .collect()
}

fn probe_batch() -> Vec<IpAddr> {
    (0..PROBES)
        .map(|i| {
            if i % 5 == 4 {
                // 20% outside the announced space.
                Ipv4Addr::new(198, 51, (i >> 8) as u8, i as u8).into()
            } else {
                Ipv4Addr::new(100, 64 + (i >> 8) as u8, (i & 0xff) as u8, i as u8).into()
            }
        })
        .collect()
}

fn bench_lpm(c: &mut Criterion) {
    let mut trie = RoutingTable::new();
    for a in announcement_set() {
        trie.announce(a);
    }
    let frozen: FrozenTable = trie.freeze();
    let probes = probe_batch();

    let mut group = c.benchmark_group("egress_path");
    group.sample_size(50);
    group.throughput(Throughput::Elements(PROBES as u64));

    group.bench_function("frozen_lpm", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for addr in &probes {
                if frozen.origin_as(*addr).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });

    group.bench_function("trie_lpm", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for addr in &probes {
                if trie.origin_as(*addr).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_writers, bench_lpm);
criterion_main!(benches);
