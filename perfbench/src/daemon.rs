//! The daemon side of the benchmark: set-up, the fixed-rate probe, the
//! SLO-knee ladder, the output checks and the result line.
//!
//! The daemon is an in-process [`IngestRuntime`] with
//! `correlator_shards = nproc` and every other key at its default. Its
//! egress is the production [`TsvFileSink`] writing a real file, wrapped
//! only to timestamp each `write_record` return and to check the flow's
//! sequence number off.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use flowdns_core::write::{OutputSink, TsvFileSink};
use flowdns_ingest::{DaemonConfig, IngestRuntime, IngestSnapshot};
use flowdns_types::{CorrelatedRecord, FlowDnsError};

use crate::gen::instant_of_unix_ns;
use crate::inputs::{self, class_index, decode_seq, seq_of, Phase, Spec, CLASSES, MAX_PHASES};
use crate::measure::{self, median, metric, quantile, Digest, Hist, Metric};
use crate::{replay, Args};

/// Extra cold set-ups per segment; `setup_s` is the median over these
/// and the segments' own starts.
const SETUP_REPS: usize = 7;
/// Probe segments per run, each in a daemon process of its own.
const SEGMENTS: usize = 4;
/// Length of one latency window of the probe. `egress_p99_us` is the
/// median of the per-window p99s: a short burst of host noise moves the
/// windows it lands in, not the figure, while a stall that recurs in half
/// the windows or more does move it.
pub const WINDOW: Duration = Duration::from_millis(250);
/// Latency window of a knee step: the step meets the latency SLO when
/// the median of its ten window p99s does.
const KNEE_WINDOW: Duration = Duration::from_millis(100);
/// The latency SLO of the knee: p99 ingress-to-egress at most 10 ms.
const SLO_P99_NS: f64 = 10_000_000.0;
/// Unmeasured warm-up before the probe, at the probe rate.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Length of one knee step, and of the unjudged warm-up before the first.
const KNEE_STEP: Duration = Duration::from_secs(1);
const KNEE_WARMUP: Duration = Duration::from_secs(1);
/// Growth of the knee ladder per rung, and bisection rounds after it.
const KNEE_GROWTH: f64 = 1.25;
const KNEE_BISECTIONS: usize = 2;
const KNEE_MAX_RUNGS: usize = 12;

/// A probe whose generator ran later than this at p99 is void: the
/// daemon's own p99 at the probe rates is under a millisecond, so such a
/// probe's latency would book a slow sender (a busy host) as daemon
/// latency. Its segment is left out of the run's figures.
pub const VOID_LATE_P99_US: u64 = 1_000;
const PROBE_ATTEMPTS: usize = 2;
/// The content-flow correlation must sit within this many points of the
/// generator's analytic expectation.
const CORRELATION_TOLERANCE_PTS: f64 = 1.0;
/// How long a drain may sit without progress before the rest counts as
/// lost.
const DRAIN_QUIET: Duration = Duration::from_millis(500);
const DRAIN_LIMIT: Duration = Duration::from_secs(20);
/// Most write workers (egress files) the checker tracks.
const MAX_SINKS: usize = 64;

/// Per-phase egress bookkeeping, written by the egress sinks.
#[derive(Debug)]
pub struct PhaseTrack {
    start_ns: AtomicU64,
    interval_ns: f64,
    window_ns: f64,
    datagrams: usize,
    rpd: usize,
    windows: Vec<Hist>,
    seen: Vec<AtomicU64>,
    egressed: AtomicU64,
    duplicates: AtomicU64,
    class_total: [AtomicU64; CLASSES],
    class_correlated: [AtomicU64; CLASSES],
    bytes_total: AtomicU64,
    bytes_correlated: AtomicU64,
}

impl PhaseTrack {
    fn new(phase: &Phase, rpd: usize, window: Duration) -> Self {
        let datagrams = phase.datagrams(rpd);
        let windows = (phase.duration.as_nanos() as f64 / window.as_nanos() as f64).ceil() as usize;
        PhaseTrack {
            start_ns: AtomicU64::new(u64::MAX),
            interval_ns: phase.interval_ns(rpd),
            window_ns: window.as_nanos() as f64,
            datagrams,
            rpd,
            windows: (0..windows.max(1)).map(|_| Hist::default()).collect(),
            seen: (0..(datagrams * rpd).div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            egressed: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            class_total: Default::default(),
            class_correlated: Default::default(),
            bytes_total: AtomicU64::new(0),
            bytes_correlated: AtomicU64::new(0),
        }
    }

    fn egressed(&self) -> u64 {
        self.egressed.load(Ordering::Acquire)
    }

    fn due_by(&self, since_start: Duration) -> u64 {
        let Some(sending) = since_start.checked_sub(inputs::DNS_LEAD) else {
            return 0;
        };
        let slots = (sending.as_nanos() as f64 / self.interval_ns).floor() as u64 + 1;
        slots.min(self.datagrams as u64) * self.rpd as u64
    }

    fn latency_counts(&self) -> Vec<u64> {
        let mut all = Hist::plain();
        for w in &self.windows {
            w.add_to(&mut all);
        }
        all
    }

    fn window_p99s(&self) -> Vec<f64> {
        self.windows
            .iter()
            .filter(|w| w.count() > 0)
            .filter_map(|w| {
                let mut counts = Hist::plain();
                w.add_to(&mut counts);
                quantile(&counts, 0.99)
            })
            .collect()
    }
}

/// Everything the egress sinks report into.
#[derive(Debug)]
pub struct Tracker {
    base: Instant,
    phases: Vec<OnceLock<PhaseTrack>>,
    unknown: AtomicU64,
    /// Lines the warm-up and the first probe attempt wrote to each egress
    /// file. Phases drain one after the other, so they are each file's
    /// first lines.
    digest_lines: Vec<AtomicU64>,
}

impl Tracker {
    fn new() -> Self {
        Tracker {
            base: Instant::now(),
            phases: (0..MAX_PHASES).map(|_| OnceLock::new()).collect(),
            unknown: AtomicU64::new(0),
            digest_lines: (0..MAX_SINKS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn phase(&self, id: usize) -> &PhaseTrack {
        self.phases[id].get().expect("phase registered before use")
    }

    fn on_egress(&self, record: &CorrelatedRecord, now: Instant, sink: usize) {
        let (p, index, slot) = decode_seq(seq_of(&record.flow));
        // ordering: statistics read after the phase has drained; the
        // phase start is published with Release before its first send.
        let Some(track) = self.phases.get(p).and_then(OnceLock::get) else {
            self.unknown.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if index >= track.datagrams || slot >= track.rpd {
            self.unknown.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let bit = index * track.rpd + slot;
        let mask = 1u64 << (bit % 64);
        if track.seen[bit / 64].fetch_or(mask, Ordering::Relaxed) & mask != 0 {
            track.duplicates.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let offset = index as f64 * track.interval_ns;
        let due = track.start_ns.load(Ordering::Acquire) as f64
            + inputs::DNS_LEAD.as_nanos() as f64
            + offset;
        let now_ns = now.saturating_duration_since(self.base).as_nanos() as f64;
        let window = ((offset / track.window_ns) as usize).min(track.windows.len() - 1);
        track.windows[window].record((now_ns - due).max(0.0) as u64);
        let class = class_index(record.flow.key.proto.to_u8());
        track.class_total[class].fetch_add(1, Ordering::Relaxed);
        track
            .bytes_total
            .fetch_add(record.flow.bytes, Ordering::Relaxed);
        if record.is_correlated() {
            track.class_correlated[class].fetch_add(1, Ordering::Relaxed);
            track
                .bytes_correlated
                .fetch_add(record.flow.bytes, Ordering::Relaxed);
        }
        if p < DIGEST_PHASES {
            self.digest_lines[sink.min(MAX_SINKS - 1)].fetch_add(1, Ordering::Relaxed);
        }
        track.egressed.fetch_add(1, Ordering::Release);
    }
}

/// Phase ids: 0 is the warm-up, then up to [`PROBE_ATTEMPTS`] probes,
/// then the knee steps.
const KNEE_FIRST_PHASE: usize = 1 + PROBE_ATTEMPTS;
/// Phases the egress digest covers: the warm-up and the first probe.
const DIGEST_PHASES: usize = 2;

/// The production TSV sink, wrapped to timestamp each `write_record`
/// return and check the flow off.
struct CheckedSink {
    inner: TsvFileSink,
    tracker: Arc<Tracker>,
    sink: usize,
}

impl OutputSink for CheckedSink {
    fn write_record(&mut self, record: &CorrelatedRecord) -> Result<(), FlowDnsError> {
        self.inner.write_record(record)?;
        self.tracker.on_egress(record, Instant::now(), self.sink);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), FlowDnsError> {
        self.inner.flush()
    }

    fn finalize(&mut self) -> Result<(), FlowDnsError> {
        self.inner.finalize()
    }
}

/// Cores of this host: the daemon's shard count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The daemon configuration of a workload: shared-nothing shards, one per
/// core, and only the keys the workload itself needs.
pub fn daemon_config(spec: &Spec, work: &Path) -> DaemonConfig {
    let mut config = DaemonConfig::default();
    config.ingest.netflow_bind = "127.0.0.1:0".parse().expect("loopback address");
    config.ingest.dns_bind = "127.0.0.1:0".parse().expect("loopback address");
    config.correlator.correlator_shards = nproc();
    if spec.bgp {
        config.correlator.routing_table =
            Some(work.join("announcements.txt").display().to_string());
    }
    config
}

/// The run's scratch directory inside the checkout.
fn work_dir(spec: &Spec, seed: u64) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    root.join("perfbench-work")
        .join(format!("{}-{seed}-{}", spec.name, std::process::id()))
}

/// A child process that is killed and reaped however the run ends.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The load generator process and its command channel.
struct Generator {
    child: Reaped,
    stdin: ChildStdin,
    lines: mpsc::Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Generator {
    fn spawn(spec: &Spec, seed: u64, rt: &IngestRuntime) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["gen", "--workload", spec.name, "--seed", &seed.to_string()])
            .args(["--netflow", &rt.netflow_addr().to_string()])
            .args(["--dns", &rt.dns_addr().to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn generator: {e}"))?;
        let stdin = child.stdin.take().ok_or("generator stdin")?;
        let stdout = child.stdout.take().ok_or("generator stdout")?;
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Generator {
            child: Reaped(child),
            stdin,
            lines,
            reader: Some(reader),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("generator command: {e}"))
    }

    fn expect(&self, word: &str, timeout: Duration) -> Result<Vec<u64>, String> {
        let line = self
            .lines
            .recv_timeout(timeout)
            .map_err(|_| format!("generator sent no `{word}`"))?;
        parse_reply(&line, word)
    }

    fn finish(mut self) -> Result<(), String> {
        self.send("quit")?;
        let status = self.child.0.wait().map_err(|e| e.to_string())?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("generator exited with {status}"))
        }
    }
}

fn parse_reply(line: &str, word: &str) -> Result<Vec<u64>, String> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some(word) {
        return Err(format!(
            "expected `{word}` from the generator, got `{line}`"
        ));
    }
    parts
        .map(|p| {
            p.parse()
                .map_err(|_| format!("bad generator reply `{line}`"))
        })
        .collect()
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    pub rate: f64,
    pub flows: u64,
    pub dns_sent: u64,
    pub egressed: u64,
    pub duplicates: u64,
    pub dns_accepted: u64,
    pub latency: Vec<u64>,
    pub window_p99_ns: Vec<f64>,
    pub late_p99_us: u64,
    pub cpu_ns: u64,
    pub backlog_first: f64,
    pub backlog_second: f64,
    pub max_queue_depth: usize,
    pub datagrams_sent: u64,
    pub datagrams_received: u64,
    pub before: Option<IngestSnapshot>,
    pub after: Option<IngestSnapshot>,
    pub class_total: [u64; CLASSES],
    pub class_correlated: [u64; CLASSES],
    pub bytes_total: u64,
    pub bytes_correlated: u64,
}

impl PhaseResult {
    fn p(&self, q: f64) -> f64 {
        quantile(&self.latency, q).unwrap_or(f64::NAN)
    }

    fn lossless(&self) -> bool {
        self.egressed == self.flows && self.duplicates == 0 && self.dns_accepted == self.dns_sent
    }

    /// Median of the per-window p99 latencies, ns. A burst of host noise
    /// shorter than half the phase moves only the windows it lands in; a
    /// stall that recurs in half the windows or more moves the figure.
    fn window_p99(&self) -> f64 {
        median(&mut self.window_p99_ns.clone())
    }

    /// Meets the SLO: lossless, p99 within 10 ms, and a backlog that does
    /// not grow: its median over the second half of the step exceeds the
    /// first half's by less than the SLO's worth of flows.
    fn meets_slo(&self) -> bool {
        let slack = self.rate * SLO_P99_NS / 1e9;
        self.lossless()
            && self.window_p99() <= SLO_P99_NS
            && self.backlog_second <= self.backlog_first + slack
    }

    fn void(&self) -> bool {
        self.late_p99_us > VOID_LATE_P99_US
    }

    fn content_correlation(&self) -> f64 {
        self.class_correlated[0] as f64 / self.class_total[0].max(1) as f64
    }
}

/// One started daemon with its generator.
struct Bench<'a> {
    spec: &'a Spec,
    rt: IngestRuntime,
    tracker: Arc<Tracker>,
    gen: Generator,
}

impl Bench<'_> {
    fn run_phase(
        &mut self,
        id: usize,
        phase: Phase,
        window: Duration,
    ) -> Result<PhaseResult, String> {
        let rpd = self.spec.records_per_datagram;
        self.gen.send(&format!(
            "phase {id} {} {}",
            phase.flows_per_s,
            phase.duration.as_nanos()
        ))?;
        let ready = self.gen.expect("ready", Duration::from_secs(120))?;
        let (datagrams, flows, dns_sent) = (ready[0], ready[1], ready[2]);
        if datagrams as usize != phase.datagrams(rpd) || flows != datagrams * rpd as u64 {
            return Err(format!(
                "generator built {datagrams} datagrams / {flows} flows for phase {id}"
            ));
        }
        self.tracker.phases[id]
            .set(PhaseTrack::new(&phase, rpd, window))
            .map_err(|_| format!("phase {id} scheduled twice"))?;
        let track = self.tracker.phase(id);

        // Let the previous phase's stragglers settle, then start 30 ms
        // out so both processes have the schedule before slot 0.
        let before = self.rt.snapshot();
        let cpu_before = measure::process_cpu_ns();

        let start_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_err(|e| e.to_string())?
            .as_nanos()
            + 30_000_000;
        let start = instant_of_unix_ns(start_unix);
        track.start_ns.store(
            start
                .saturating_duration_since(self.tracker.base)
                .as_nanos() as u64,
            Ordering::Release,
        );
        self.gen.send(&format!("go {start_unix}"))?;

        let mut result = PhaseResult {
            rate: phase.flows_per_s,
            flows,
            dns_sent,
            ..PhaseResult::default()
        };
        // The backlog (flows due but not yet egressed) is sampled once per
        // latency window while the phase sends.
        let sending = start + inputs::DNS_LEAD;
        let mut backlog = Vec::with_capacity(track.windows.len());

        let done = loop {
            match self.gen.lines.recv_timeout(Duration::from_millis(5)) {
                Ok(line) => break parse_reply(&line, "done")?,
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err("generator exited".into()),
            }
            let now = Instant::now();
            let depth = {
                let (dns, flows, write) = self.rt.correlator().queue_depths();
                dns + flows + write
            };
            result.max_queue_depth = result.max_queue_depth.max(depth);
            let next_sample =
                sending + Duration::from_nanos((backlog.len() + 1) as u64 * track.window_ns as u64);
            if backlog.len() < track.windows.len() && now >= next_sample {
                backlog.push(track.due_by(now - start).saturating_sub(track.egressed()) as f64);
            }
        };
        let half = backlog.len() / 2;
        result.backlog_first = median(&mut backlog[..half].to_vec()).max(0.0);
        result.backlog_second = median(&mut backlog[half..].to_vec()).max(0.0);
        result.late_p99_us = done[0];

        // Drain: wait until every flow and DNS record is through, or
        // until nothing has moved for a while (the rest is lost).
        let dns_done = |rt: &IngestRuntime| {
            rt.snapshot().pipeline.fillup.total() - before.pipeline.fillup.total()
        };
        let drain_start = Instant::now();
        let mut last = (u64::MAX, u64::MAX);
        let mut last_change = Instant::now();
        loop {
            let now_state = (track.egressed(), dns_done(&self.rt));
            if now_state.0 + track.duplicates.load(Ordering::Relaxed) >= flows
                && now_state.1 >= dns_sent
            {
                break;
            }
            if now_state != last {
                last = now_state;
                last_change = Instant::now();
            } else if last_change.elapsed() > DRAIN_QUIET || drain_start.elapsed() > DRAIN_LIMIT {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        result.cpu_ns = measure::process_cpu_ns().saturating_sub(cpu_before);
        let after = self.rt.snapshot();
        result.egressed = track.egressed();
        result.duplicates = track.duplicates.load(Ordering::Relaxed);
        result.dns_accepted = after.pipeline.fillup.total() - before.pipeline.fillup.total();
        result.latency = track.latency_counts();
        result.window_p99_ns = track.window_p99s();
        result.datagrams_sent = datagrams;
        result.datagrams_received =
            after.summary.netflow_datagrams - before.summary.netflow_datagrams;
        for c in 0..CLASSES {
            result.class_total[c] = track.class_total[c].load(Ordering::Relaxed);
            result.class_correlated[c] = track.class_correlated[c].load(Ordering::Relaxed);
        }
        result.bytes_total = track.bytes_total.load(Ordering::Relaxed);
        result.bytes_correlated = track.bytes_correlated.load(Ordering::Relaxed);
        result.before = Some(before);
        result.after = Some(after);
        eprintln!(
            "perfbench: phase {id} at {:.0} flows/s: {}/{} flows, {}/{} dns, p50 {:.0} us, p99 {:.0} us \
             (window median {:.0} us of {:?} ms), late p99 {} us, backlog {:.0}→{:.0}",
            phase.flows_per_s,
            result.egressed,
            flows,
            result.dns_accepted,
            dns_sent,
            result.p(0.5) / 1e3,
            result.p(0.99) / 1e3,
            result.window_p99() / 1e3,
            result.window_p99_ns.iter().map(|v| (v / 1e6).round() as u64).collect::<Vec<_>>(),
            result.late_p99_us,
            result.backlog_first,
            result.backlog_second
        );
        Ok(result)
    }

    /// The highest offered rate meeting the SLO, from a ladder that starts
    /// at the workload's first rung and a geometric bisection of the rung
    /// where the verdict flipped.
    fn slo_knee(&mut self, probe: &PhaseResult) -> Result<f64, String> {
        // The daemon's first seconds at a high rate run slower than the
        // ones after them, so the ladder starts after an unjudged warm-up
        // at the first rung.
        self.run_phase(
            KNEE_FIRST_PHASE,
            Phase {
                flows_per_s: self.spec.knee_first_rung_flows_per_s,
                duration: KNEE_WARMUP,
            },
            KNEE_WINDOW,
        )?;
        let mut next_id = KNEE_FIRST_PHASE + 1;
        // One attempt per step: a step that host noise fails lowers this
        // segment's knee, and the run takes its best segment.
        let mut step = |bench: &mut Self, rate: f64| -> Result<bool, String> {
            if next_id >= MAX_PHASES {
                // Out of sequence-number space: the ladder stops here.
                return Ok(false);
            }
            let r = bench.run_phase(
                next_id,
                Phase {
                    flows_per_s: rate,
                    duration: KNEE_STEP,
                },
                KNEE_WINDOW,
            )?;
            next_id += 1;
            if r.duplicates > 0 {
                return Err(format!(
                    "{} flows egressed twice at {rate:.0} flows/s",
                    r.duplicates
                ));
            }
            Ok(r.meets_slo())
        };
        // The ladder starts at the workload's fixed first rung and climbs
        // or descends by `KNEE_GROWTH` until the verdict flips; the probe
        // itself counts as a rung.
        let first = self.spec.knee_first_rung_flows_per_s;
        let (mut lo, mut hi) = if step(self, first)? {
            let mut lo = first;
            let mut hi = None;
            for _ in 0..KNEE_MAX_RUNGS {
                let rate = lo * KNEE_GROWTH;
                if step(self, rate)? {
                    lo = rate;
                } else {
                    hi = Some(rate);
                    break;
                }
            }
            match hi {
                Some(hi) => (lo, hi),
                None => return Ok(lo),
            }
        } else {
            // The descent stops at the probe, whose rate is the floor: a
            // segment that meets the SLO nowhere (a host too busy to
            // measure) reports the probe rate, and the run's best segment
            // outvotes it.
            let floor = self.spec.probe_flows_per_s;
            let mut hi = first;
            loop {
                let rate = hi / KNEE_GROWTH;
                if rate <= floor {
                    if !probe.meets_slo() {
                        eprintln!(
                            "perfbench: no offered rate down to the probe's met the SLO; \
                             the knee is reported at the probe rate"
                        );
                        return Ok(floor);
                    }
                    break (floor, hi);
                }
                if step(self, rate)? {
                    break (rate, hi);
                }
                hi = rate;
            }
        };
        for _ in 0..KNEE_BISECTIONS {
            let mid = (lo * hi).sqrt();
            if step(self, mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }
}

/// Start the daemon with the checked TSV egress.
fn start_runtime(
    config: &DaemonConfig,
    tracker: &Arc<Tracker>,
    out_prefix: &Path,
) -> Result<IngestRuntime, String> {
    let tracker = Arc::clone(tracker);
    let prefix = out_prefix.to_path_buf();
    IngestRuntime::start_with_sink_factory(config, move |sink| {
        let path = PathBuf::from(format!("{}.w{sink}.tsv", prefix.display()));
        Ok(Box::new(CheckedSink {
            inner: TsvFileSink::create(path)?,
            tracker: Arc::clone(&tracker),
            sink,
        }) as Box<dyn OutputSink>)
    })
    .map_err(|e| format!("daemon start: {e}"))
}

/// Digest of the egress lines of the warm-up and the first probe attempt.
/// A retried probe sends further flows of the trace, so the digest leaves
/// retries out and every segment of a seed digests the same flows.
fn egress_digest(out_prefix: &Path, tracker: &Tracker) -> Result<Digest, String> {
    let mut digest = Digest::default();
    for (sink, count) in tracker.digest_lines.iter().enumerate() {
        let count = count.load(Ordering::Relaxed) as usize;
        if count == 0 {
            continue;
        }
        let path = format!("{}.w{sink}.tsv", out_prefix.display());
        let file = std::fs::File::open(&path).map_err(|e| format!("{path}: {e}"))?;
        let mut read = 0;
        for line in BufReader::new(file).split(b'\n').take(count) {
            digest.add(&line.map_err(|e| e.to_string())?);
            read += 1;
        }
        if read < count {
            return Err(format!("{path} is shorter than its egress count"));
        }
    }
    Ok(digest)
}

/// One probe segment: a freshly started daemon and generator, warmed up
/// and probed at the fixed rate.
pub struct Segment {
    pub probe: PhaseResult,
    pub peak_rss_bytes: u64,
    pub digest: Digest,
    pub pool_misses: (u64, u64),
    pub drains: (u64, u64),
}

/// What a segment process reports back, one `seg <key> <value>` line
/// per figure on its standard output.
#[derive(Debug, Default, Clone)]
pub struct SegmentReport {
    pub p50_ns: f64,
    pub window_p99_ns: f64,
    pub cpu_ns_per_flow: f64,
    pub bytes_pct: f64,
    pub peak_rss_bytes: f64,
    pub attempted: u64,
    pub failed: u64,
    pub void: bool,
    pub knee: Option<f64>,
    pub setup_s: Vec<f64>,
    pub layer: Vec<Metric>,
    pub problems: Vec<String>,
    pub info: String,
}

impl SegmentReport {
    fn parse(text: &str) -> Result<SegmentReport, String> {
        let mut r = SegmentReport::default();
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("seg ") else {
                continue;
            };
            let (key, value) = rest.split_once(' ').unwrap_or((rest, ""));
            let num = || -> Result<f64, String> {
                value
                    .parse()
                    .map_err(|_| format!("segment reported a bad {key}: `{value}`"))
            };
            match key {
                "p50_ns" => r.p50_ns = num()?,
                "window_p99_ns" => r.window_p99_ns = num()?,
                "cpu_ns_per_flow" => r.cpu_ns_per_flow = num()?,
                "bytes_pct" => r.bytes_pct = num()?,
                "peak_rss_bytes" => r.peak_rss_bytes = num()?,
                "attempted" => r.attempted = num()? as u64,
                "failed" => r.failed = num()? as u64,
                "void" => r.void = num()? == 1.0,
                "knee" => r.knee = Some(num()?),
                "setup_s" => r.setup_s.push(num()?),
                "problem" => r.problems.push(value.to_string()),
                "info" => r.info = value.to_string(),
                "layer" => {
                    let mut parts = value.splitn(3, ' ');
                    let (name, unit, v) = (parts.next(), parts.next(), parts.next());
                    let (Some(name), Some(unit), Some(v)) = (name, unit, v) else {
                        return Err(format!("segment reported a bad layer line `{value}`"));
                    };
                    let value = v.parse().map_err(|_| format!("bad layer value `{v}`"))?;
                    r.layer.push(Metric {
                        name: name.to_string(),
                        value,
                        unit: layer_unit(unit),
                    });
                }
                _ => return Err(format!("segment reported an unknown key `{key}`")),
            }
        }
        Ok(r)
    }
}

fn layer_unit(unit: &str) -> &'static str {
    ["count", "%", "us"]
        .into_iter()
        .find(|u| *u == unit)
        .unwrap_or("count")
}

/// The untraced run shared by both modes: the probe segments and, in the
/// end-to-end mode, their knee ladders.
pub struct Untraced {
    pub segments: Vec<SegmentReport>,
    pub problems: Vec<String>,
}

impl Untraced {
    /// The segments whose generator kept to its schedule, or all of them
    /// when none did (then every figure includes generator lateness, and
    /// the run says so).
    fn booked(&self) -> Vec<&SegmentReport> {
        let kept: Vec<&SegmentReport> = self.segments.iter().filter(|s| !s.void).collect();
        if kept.is_empty() {
            self.segments.iter().collect()
        } else {
            kept
        }
    }

    fn values(&self, f: impl Fn(&SegmentReport) -> f64) -> Vec<f64> {
        self.booked().into_iter().map(f).collect()
    }

    /// Median of `f` over the booked segments.
    fn median_of(&self, f: impl Fn(&SegmentReport) -> f64) -> f64 {
        median(&mut self.values(f))
    }

    /// Least `f` over the booked segments.
    fn min_of(&self, f: impl Fn(&SegmentReport) -> f64) -> f64 {
        self.values(f).into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Greatest `f` over the booked segments.
    fn max_of(&self, f: impl Fn(&SegmentReport) -> f64) -> f64 {
        self.values(f).into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    /// The booked segment with the median CPU per flow: the per-layer
    /// figures of the untraced run come from it.
    pub fn median_segment(&self) -> &SegmentReport {
        let mut order = self.booked();
        order.sort_by(|a, b| a.cpu_ns_per_flow.total_cmp(&b.cpu_ns_per_flow));
        order[order.len() / 2]
    }
}

/// What every segment shares.
struct SegmentPlan<'a> {
    spec: &'a Spec,
    seed: u64,
    seconds: u64,
    config: DaemonConfig,
    work: &'a Path,
    expected_content: f64,
}

impl<'a> SegmentPlan<'a> {
    fn new(spec: &'a Spec, seed: u64, seconds: u64, work: &'a Path) -> Self {
        let workload = inputs::workload_for(spec, seed);
        SegmentPlan {
            spec,
            seed,
            seconds,
            config: daemon_config(spec, work),
            work,
            expected_content: inputs::expected_content_correlation(&workload, spec.ipv4_only),
        }
    }
}

/// Prepare the run's files, then run each segment in a daemon process of
/// its own. Allocator arenas, thread placement and hand-off timing are
/// fixed when a daemon process starts and move its CPU per flow, capacity
/// and memory by up to a third from one process to the next on a two-core
/// host, so every figure is taken over independent processes.
fn run_untraced(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    knee: bool,
    work: &Path,
) -> Result<Untraced, String> {
    if spec.bgp {
        inputs::workload_for(spec, seed)
            .universe()
            .write_announcements(work.join("announcements.txt"))
            .map_err(|e| e.to_string())?;
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut segments = Vec::with_capacity(SEGMENTS);
    for index in 0..SEGMENTS {
        let out = Command::new(&exe)
            .args(["segment", "--workload", spec.name])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args([
                "--index",
                &index.to_string(),
                "--knee",
                &u8::from(knee).to_string(),
            ])
            .arg("--work")
            .arg(work)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn segment: {e}"))?;
        if !out.status.success() {
            return Err(format!("segment {index} exited with {}", out.status));
        }
        segments.push(SegmentReport::parse(&String::from_utf8_lossy(&out.stdout))?);
    }
    let problems = segments.iter().flat_map(|s| s.problems.clone()).collect();
    Ok(Untraced { segments, problems })
}

/// One segment in this process (`perfbench segment`): the report goes to
/// standard output as `seg <key> <value>` lines.
pub fn segment_main(args: &Args) -> Result<(), String> {
    let spec = inputs::spec(args.get("workload")?).ok_or("unknown workload")?;
    let seed: u64 = args.parsed("seed")?;
    let seconds: u64 = args.parsed("seconds")?;
    let index: usize = args.parsed("index")?;
    let with_knee = args.parsed::<u8>("knee")? == 1;
    let work = PathBuf::from(args.get("work")?);
    let plan = SegmentPlan::new(spec, seed, seconds, &work);

    // Cold starts take well under a millisecond, so they get extra timed
    // set-ups.
    let mut setup_s = Vec::new();
    let tracker = Arc::new(Tracker::new());
    for rep in 0..SETUP_REPS {
        let prefix = work.join(format!("setup-{index}-{rep}"));
        let t = Instant::now();
        let rt = start_runtime(&plan.config, &tracker, &prefix)?;
        setup_s.push(t.elapsed().as_secs_f64());
        rt.shutdown().map_err(|e| e.to_string())?;
    }
    let mut problems = Vec::new();
    let (segment, knee) = run_segment(&plan, index, with_knee, &mut setup_s, &mut problems)?;
    let probe = &segment.probe;
    let mut out = String::new();
    let mut put = |key: &str, value: String| {
        out.push_str(&format!("seg {key} {value}\n"));
    };
    put("p50_ns", probe.p(0.5).to_string());
    put("window_p99_ns", probe.window_p99().to_string());
    put(
        "cpu_ns_per_flow",
        (probe.cpu_ns as f64 / probe.egressed.max(1) as f64).to_string(),
    );
    put(
        "bytes_pct",
        (probe.bytes_correlated as f64 / probe.bytes_total.max(1) as f64 * 100.0).to_string(),
    );
    put("peak_rss_bytes", segment.peak_rss_bytes.to_string());
    put("attempted", probe.flows.to_string());
    put(
        "failed",
        (probe.flows.saturating_sub(probe.egressed) + probe.duplicates).to_string(),
    );
    put("void", u8::from(probe.void()).to_string());
    if let Some(k) = knee {
        put("knee", k.to_string());
    }
    for s in &setup_s {
        put("setup_s", s.to_string());
    }
    for m in untraced_layer_metrics(&segment) {
        put("layer", format!("{} {} {}", m.name, m.unit, m.value));
    }
    for p in &problems {
        put("problem", p.replace('\n', " "));
    }
    put(
        "info",
        format!(
            "workload {} seed {seed} segment {index}: egress digest {:016x} over {} lines; \
             {} latency samples; content correlation {:.3}% (analytic {:.3}%); \
             {:.0} CPU ns per flow; knee {}",
            spec.name,
            segment.digest.sum,
            segment.digest.lines,
            probe.latency.iter().sum::<u64>(),
            probe.content_correlation() * 100.0,
            plan.expected_content * 100.0,
            probe.cpu_ns as f64 / probe.egressed.max(1) as f64,
            knee.map_or("not climbed".to_string(), |k| format!("{k:.0} flows/s"))
        ),
    );
    print!("{out}");
    Ok(())
}

/// Start a daemon and a generator, warm up, probe, optionally climb the
/// knee ladder, shut down and check the output: every flow of the warm-up
/// and of each probe attempt egressed exactly once, every DNS record
/// accepted.
fn run_segment(
    plan: &SegmentPlan,
    index: usize,
    with_knee: bool,
    setup_s: &mut Vec<f64>,
    problems: &mut Vec<String>,
) -> Result<(Segment, Option<f64>), String> {
    let spec = plan.spec;
    let config = &plan.config;
    measure::reset_peak_rss();
    let tracker = Arc::new(Tracker::new());
    let out_prefix = plan.work.join(format!("egress-{index}"));
    let t = Instant::now();
    let rt = start_runtime(config, &tracker, &out_prefix)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let daemon_started = Instant::now();
    let mut report = |p: String| problems.push(format!("segment {index}: {p}"));
    let gen = Generator::spawn(spec, plan.seed, &rt)?;
    let mut bench = Bench {
        spec,
        rt,
        tracker: Arc::clone(&tracker),
        gen,
    };
    let rate = spec.probe_flows_per_s;
    let warm = bench.run_phase(
        0,
        Phase {
            flows_per_s: rate,
            duration: WARMUP,
        },
        WINDOW,
    )?;
    if !warm.lossless() {
        report(format!(
            "warm-up lost flows or DNS: {}/{} flows, {}/{} dns",
            warm.egressed, warm.flows, warm.dns_accepted, warm.dns_sent
        ));
    }
    eprintln!(
        "perfbench: segment {index}: probe starts {:.1} s after the daemon",
        daemon_started.elapsed().as_secs_f64()
    );
    let mut probe = None;
    for attempt in 0..PROBE_ATTEMPTS {
        let r = bench.run_phase(
            1 + attempt,
            Phase {
                flows_per_s: rate,
                duration: Duration::from_secs(plan.seconds),
            },
            WINDOW,
        )?;
        if !r.lossless() {
            report(format!(
                "probe attempt {attempt} lost data: {}/{} flows egressed, {}/{} DNS records accepted",
                r.egressed, r.flows, r.dns_accepted, r.dns_sent
            ));
        }
        let void = r.void();
        probe = Some(r);
        if !void {
            break;
        }
        eprintln!("perfbench: probe void, the generator ran late; probing again");
    }
    let probe = probe.expect("at least one probe");
    // Memory is read before the knee ladder, whose length varies by run.
    let peak_rss_bytes = measure::peak_rss_bytes();
    if probe.void() {
        eprintln!(
            "perfbench: segment {index} is void: the generator ran {} us late at p99 \
             (bound {VOID_LATE_P99_US} us)",
            probe.late_p99_us
        );
    }
    let knee = if with_knee {
        Some(bench.slo_knee(&probe)?)
    } else {
        None
    };

    let Bench { rt, gen, .. } = bench;
    gen.finish()?;
    let snapshot = rt.snapshot();
    rt.shutdown().map_err(|e| format!("daemon shutdown: {e}"))?;
    let digest = egress_digest(&out_prefix, &tracker)?;

    let unknown = tracker.unknown.load(Ordering::Relaxed);
    if unknown > 0 {
        report(format!(
            "{unknown} egressed flows carry no scheduled sequence number"
        ));
    }
    for (id, cell) in tracker.phases.iter().enumerate() {
        if let Some(track) = cell.get() {
            let d = track.duplicates.load(Ordering::Relaxed);
            if d > 0 {
                report(format!("phase {id}: {d} flows egressed more than once"));
            }
        }
    }
    let measured = probe.content_correlation();
    if ((measured - plan.expected_content) * 100.0).abs() > CORRELATION_TOLERANCE_PTS {
        report(format!(
            "content-flow correlation {:.2}% is off the analytic {:.2}% by more than {CORRELATION_TOLERANCE_PTS} point",
            measured * 100.0,
            plan.expected_content * 100.0
        ));
    }
    let before = probe.before.as_ref().expect("probe snapshots");
    let after = probe.after.as_ref().expect("probe snapshots");
    let fold = |s: &IngestSnapshot| {
        s.netflow_listeners
            .iter()
            .fold((0, 0), |(d, w), c| (d + c.datagrams, w + c.drains))
    };
    let (d1, w1) = fold(after);
    let (d0, w0) = fold(before);
    let segment = Segment {
        peak_rss_bytes,
        digest,
        pool_misses: (
            snapshot.buffer_pool.misses,
            snapshot.buffer_pool.hits + snapshot.buffer_pool.misses,
        ),
        drains: (d1 - d0, w1 - w0),
        probe,
    };
    Ok((segment, knee))
}

pub fn bench_main(args: &Args) -> Result<(), String> {
    let spec = inputs::spec(args.get("workload")?).ok_or("unknown workload")?;
    let seed: u64 = args.parsed("seed")?;
    let seconds: u64 = args.parsed("seconds")?;
    let trace: u8 = args.parsed("trace")?;
    if seconds == 0 || seconds > 60 {
        return Err("--seconds must be 1..=60".into());
    }
    let work = work_dir(spec, seed);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let outcome = run(spec, seed, seconds, trace == 1, &work);
    let _ = std::fs::remove_dir_all(&work);
    let (problems, attempted, failed, metrics) = outcome?;
    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    println!(
        "{}",
        measure::result_json(problems.is_empty(), attempted, failed, &metrics)
    );
    Ok(())
}

type Outcome = (Vec<String>, u64, u64, Vec<Metric>);

fn run(spec: &Spec, seed: u64, seconds: u64, traced: bool, work: &Path) -> Result<Outcome, String> {
    let u = run_untraced(spec, seed, seconds, !traced, work)?;
    let attempted: u64 = u.segments.iter().map(|s| s.attempted).sum();
    let failed: u64 = u.segments.iter().map(|s| s.failed).sum();
    for s in &u.segments {
        println!("{}{}", s.info, if s.void { " (void)" } else { "" });
    }
    if u.segments.iter().all(|s| s.void) {
        eprintln!(
            "perfbench: every segment is void: the figures include generator lateness \
             and measure the host, not the daemon"
        );
    }
    let mut metrics = Vec::new();
    if !traced {
        // Each segment is an independent trial in a daemon process of its
        // own. Host noise (other tenants' CPU steal, on a shared virtual
        // machine) only ever lowers capacity and raises latency and memory,
        // and it comes in episodes that can cover whole segments, so those
        // figures take the best segment. CPU per flow moves both ways with
        // thread placement from one process to the next and takes the
        // median.
        metrics.push(metric(
            "slo_knee_flows_per_s",
            u.max_of(|s| s.knee.unwrap_or(0.0)),
            "flows/s",
        ));
        metrics.push(metric("egress_p50_us", u.min_of(|s| s.p50_ns) / 1e3, "us"));
        metrics.push(metric(
            "egress_p99_us",
            u.min_of(|s| s.window_p99_ns) / 1e3,
            "us",
        ));
        metrics.push(metric(
            "cpu_ns_per_flow",
            u.median_of(|s| s.cpu_ns_per_flow),
            "ns",
        ));
        metrics.push(metric(
            "correlated_bytes_pct",
            u.median_of(|s| s.bytes_pct),
            "%",
        ));
        metrics.push(metric(
            "peak_rss_mb",
            u.min_of(|s| s.peak_rss_bytes) / (1 << 20) as f64,
            "MB",
        ));
        let mut setups: Vec<f64> = u.segments.iter().flat_map(|s| s.setup_s.clone()).collect();
        metrics.push(metric("setup_s", median(&mut setups), "s"));
    } else {
        let segment = u.median_segment();
        metrics.extend(segment.layer.iter().cloned());
        metrics.extend(replay::run(spec, seed, seconds, work, segment)?);
    }
    Ok((u.problems.clone(), attempted, failed, metrics))
}

/// The per-layer metrics read from the untraced probe.
fn untraced_layer_metrics(u: &Segment) -> Vec<Metric> {
    let probe = &u.probe;
    let before = probe.before.as_ref().expect("probe snapshots");
    let after = probe.after.as_ref().expect("probe snapshots");
    let wait = after
        .pipeline
        .lookup_queue_latency
        .delta(&before.pipeline.lookup_queue_latency);
    let drops =
        (after.pipeline.flows_dropped + after.pipeline.dns_dropped + after.pipeline.writes_dropped)
            - (before.pipeline.flows_dropped
                + before.pipeline.dns_dropped
                + before.pipeline.writes_dropped);
    let pct = |part: u64, whole: u64| part as f64 / whole.max(1) as f64 * 100.0;
    let samples: u64 = probe.latency.iter().sum();
    vec![
        metric(
            "ingest.datagrams_per_wakeup",
            u.drains.0 as f64 / u.drains.1.max(1) as f64,
            "count",
        ),
        metric(
            "ingest.kernel_drop_pct",
            pct(
                probe
                    .datagrams_sent
                    .saturating_sub(probe.datagrams_received),
                probe.datagrams_sent,
            ),
            "%",
        ),
        metric(
            "ingest.pool_miss_pct",
            pct(u.pool_misses.0, u.pool_misses.1),
            "%",
        ),
        metric("queue.wait_p99_us", wait.p99_us() as f64, "us"),
        metric("queue.max_depth", probe.max_queue_depth as f64, "count"),
        metric("queue.drops", drops as f64, "count"),
        metric(
            "flow_loss_pct",
            pct(probe.flows - probe.egressed.min(probe.flows), probe.flows),
            "%",
        ),
        metric(
            "dns_loss_pct",
            pct(
                probe.dns_sent - probe.dns_accepted.min(probe.dns_sent),
                probe.dns_sent,
            ),
            "%",
        ),
        metric("gen.late_p99_us", probe.late_p99_us as f64, "us"),
        metric("egress.samples", samples as f64, "count"),
        metric("egress.p99_all_us", probe.p(0.99) / 1e3, "us"),
    ]
}
