//! The open-loop load generator process (`perfbench gen`).
//!
//! It connects two UDP exporter sockets and two DNS-feed TCP connections
//! to the daemon, then serves phase commands from standard input:
//!
//! ```text
//! phase <id> <flows_per_s> <duration_ns>  → ready <datagrams> <flows> <dns_records>
//! go <start_unix_ns>                      → done <late_p99_us>
//! ```
//!
//! A phase's inputs are generated and encoded before `go`, so sending is
//! only `sendmmsg` and `write` calls on a fixed schedule that never waits
//! for the daemon. The main thread sends datagrams and one more thread
//! writes DNS frames: two sending threads, one per core of the reference
//! host. Lateness is each datagram's send time minus its due time.

use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::inputs::{self, InputGen, Phase, PhaseInputs, DNS_CONNS, EXPORTERS};
use crate::measure::percentile;
use crate::Args;

/// Most datagrams handed to one `sendmmsg(2)` call.
const SEND_BURST: usize = 32;
/// The datagram sender wakes at most once per tick and sends everything
/// due by then, as an exporter flushing its cache does: the daemon sees
/// the same burst sizes whichever cores the two processes land on.
const PACING_TICK: Duration = Duration::from_micros(500);
/// Longest single sleep. On a virtual machine a longer sleep lets the
/// virtual CPU halt, and waking it can take milliseconds, which would
/// turn into generator lateness.
const NAP: Duration = Duration::from_micros(50);

/// Sleep for `d` in short naps (see [`NAP`]).
fn nap(d: Duration) {
    std::thread::sleep(d.min(NAP));
}

/// Convert a Unix-epoch nanosecond instant to this process's monotonic
/// clock. Both processes derive their schedule from the same wall-clock
/// value, so they agree on it to within the clock-read jitter.
pub fn instant_of_unix_ns(unix_ns: u128) -> Instant {
    let now_inst = Instant::now();
    let now_unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    if unix_ns >= now_unix {
        now_inst + Duration::from_nanos((unix_ns - now_unix) as u64)
    } else {
        now_inst
            .checked_sub(Duration::from_nanos((now_unix - unix_ns) as u64))
            .unwrap_or(now_inst)
    }
}

pub fn main(args: &Args) -> Result<(), String> {
    let spec = inputs::spec(args.get("workload")?).ok_or("unknown workload")?;
    let seed: u64 = args.parsed("seed")?;
    let netflow: SocketAddr = args.parsed("netflow")?;
    let dns: SocketAddr = args.parsed("dns")?;
    let io = |e: std::io::Error| e.to_string();

    let mut exporters = Vec::with_capacity(EXPORTERS);
    for _ in 0..EXPORTERS {
        let socket = UdpSocket::bind("127.0.0.1:0").map_err(io)?;
        socket.connect(netflow).map_err(io)?;
        exporters.push(socket);
    }
    let mut feeds = Vec::with_capacity(DNS_CONNS);
    for _ in 0..DNS_CONNS {
        let conn = TcpStream::connect(dns).map_err(io)?;
        conn.set_nodelay(true).map_err(io)?;
        feeds.push(conn);
    }

    let workload = inputs::workload_for(spec, seed);
    let mut gen = InputGen::new(spec, &workload);
    let rpd = spec.records_per_datagram;
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let mut current: Option<(Phase, PhaseInputs)> = None;
    for line in stdin.lock().lines() {
        let line = line.map_err(io)?;
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["phase", id, rate, dur_ns] => {
                let id: usize = id.parse().map_err(|_| "bad phase id")?;
                let phase = Phase {
                    flows_per_s: rate.parse().map_err(|_| "bad rate")?,
                    duration: Duration::from_nanos(dur_ns.parse().map_err(|_| "bad duration")?),
                };
                let built = gen.phase(id, &phase);
                writeln!(
                    stdout,
                    "ready {} {} {}",
                    built.datagram_count(),
                    built.flows(),
                    built.dns_records()
                )
                .map_err(io)?;
                stdout.flush().map_err(io)?;
                current = Some((phase, built));
            }
            ["go", start] => {
                let (phase, built) = current.take().ok_or("go before phase")?;
                let start = instant_of_unix_ns(start.parse().map_err(|_| "bad start")?);
                let mut late = std::thread::scope(|scope| {
                    let dns = scope.spawn(|| send_dns(&built, &mut feeds, start));
                    let late = send_datagrams(&built, &exporters, start, &phase, rpd);
                    dns.join()
                        .map_err(|_| "DNS sender panicked".to_string())??;
                    Ok::<_, String>(late)
                })?;
                writeln!(stdout, "done {}", percentile(&mut late, 0.99)).map_err(io)?;
                stdout.flush().map_err(io)?;
            }
            ["quit"] => break,
            _ => return Err(format!("unknown command `{line}`")),
        }
    }
    Ok(())
}

/// Send every datagram at its slot; returns each datagram's lateness in
/// microseconds.
fn send_datagrams(
    built: &PhaseInputs,
    exporters: &[UdpSocket],
    start: Instant,
    phase: &Phase,
    rpd: usize,
) -> Vec<u64> {
    let n = built.datagram_count();
    let due = |j: usize| start + Duration::from_nanos(phase.slot_due_ns(rpd, j) as u64);
    let mut late = Vec::with_capacity(n);
    let mut next = 0usize;
    let mut views: [Vec<&[u8]>; EXPORTERS] = Default::default();
    let mut tick = start;
    while next < n {
        let now = Instant::now();
        let wake = due(next).max(tick);
        if wake > now {
            nap(wake - now);
            continue;
        }
        tick = now + PACING_TICK;
        // Everything due by now leaves in per-exporter bursts.
        let mut end = next;
        while end < n && due(end) <= now {
            end += 1;
        }
        for v in views.iter_mut() {
            v.clear();
        }
        for j in next..end {
            views[j % EXPORTERS].push(built.datagram(j));
        }
        for (socket, batch) in exporters.iter().zip(views.iter()) {
            let mut sent = 0;
            while sent < batch.len() {
                let burst = &batch[sent..(sent + SEND_BURST).min(batch.len())];
                match flowdns_ingest::mmsg::send_burst(socket, burst) {
                    Ok(k) if k > 0 => sent += k,
                    // A full socket buffer or transient error: the
                    // datagram is dropped, which the daemon's ingest
                    // accounting then shows as kernel-side loss.
                    _ => sent += 1,
                }
            }
        }
        let sent_at = Instant::now();
        for j in next..end {
            late.push(sent_at.saturating_duration_since(due(j)).as_micros() as u64);
        }
        next = end;
    }
    late
}

/// Write every DNS frame at its due time, per connection in order.
fn send_dns(built: &PhaseInputs, feeds: &mut [TcpStream], start: Instant) -> Result<(), String> {
    let mut next = [0usize; DNS_CONNS];
    let mut offset = [0usize; DNS_CONNS];
    loop {
        let now = Instant::now();
        let mut wake: Option<Instant> = None;
        for c in 0..DNS_CONNS {
            let frames = &built.dns_frames[c];
            let mut end = next[c];
            while end < frames.len() && start + Duration::from_nanos(frames[end].0) <= now {
                end += 1;
            }
            if end > next[c] {
                let to = frames[end - 1].1;
                feeds[c]
                    .write_all(&built.dns_bytes[c][offset[c]..to])
                    .map_err(|e| format!("DNS feed write: {e}"))?;
                offset[c] = to;
                next[c] = end;
            }
            if let Some(&(due, _)) = frames.get(next[c]) {
                let at = start + Duration::from_nanos(due);
                wake = Some(wake.map_or(at, |w: Instant| w.min(at)));
            }
        }
        match wake {
            None => return Ok(()),
            Some(at) => {
                let now = Instant::now();
                if at > now {
                    nap(at - now);
                }
            }
        }
    }
}
