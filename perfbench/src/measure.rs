//! Measurement helpers: a lock-free latency histogram, process CPU and
//! memory readings, quantiles, and the order-independent egress digest.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two above [`EXACT`]: 0.8 % resolution.
const SUB: u64 = 128;
/// Values below this are counted exactly.
const EXACT: u64 = 1024;
/// Buckets up to 2^37 ns (about two minutes).
const BUCKETS: usize = (EXACT + (37 - 10) * SUB) as usize;

fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - u64::from(v.leading_zeros());
    let idx = EXACT + (e - 10) * SUB + ((v >> (e - 7)) & (SUB - 1));
    (idx as usize).min(BUCKETS - 1)
}

/// Lower bound and width of bucket `b`.
fn bucket_range(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < EXACT {
        return (b as f64, 1.0);
    }
    let e = (b - EXACT) / SUB + 10;
    let sub = (b - EXACT) % SUB;
    let lo = (1u64 << e) + (sub << (e - 7));
    (lo as f64, (1u64 << (e - 7)) as f64)
}

#[cfg(test)]
fn bucket_mid(b: usize) -> f64 {
    let (lo, width) = bucket_range(b);
    lo + width / 2.0
}

/// A histogram of nanosecond values, safe to record into from any thread.
#[derive(Debug)]
pub struct Hist {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
        }
    }
}

impl Hist {
    /// Count one value.
    pub fn record(&self, ns: u64) {
        // ordering: counters read only after the writers have drained.
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Values counted.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Add this histogram's counts into `into`.
    pub fn add_to(&self, into: &mut [u64]) {
        for (slot, b) in into.iter_mut().zip(&self.buckets) {
            *slot += b.load(Ordering::Relaxed);
        }
    }

    /// A zeroed plain counter array matching [`Hist::add_to`].
    pub fn plain() -> Vec<u64> {
        vec![0; BUCKETS]
    }
}

/// The `q`-quantile of plain counts, in the recorded unit, spread evenly
/// within its bucket by rank. `None` when empty.
pub fn quantile(counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (b, &c) in counts.iter().enumerate() {
        if seen + c >= rank {
            let (lo, width) = bucket_range(b);
            if width <= 1.0 {
                return Some(lo);
            }
            return Some(lo + width * ((rank - seen) as f64 - 0.5) / c as f64);
        }
        seen += c;
    }
    None
}

/// Median of a list of values.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of unsorted values.
pub fn percentile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// CPU time of every live thread of this process, nanoseconds, from
/// `/proc/self/task/*/schedstat` (nanosecond resolution; the threads of a
/// running daemon outlive any measured interval).
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
        })
        .sum()
}

/// Reset the peak resident set to the current one (Linux
/// `clear_refs` code 5), so the next [`peak_rss_bytes`] covers only what
/// follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Order-independent digest of a set of lines: the wrapping sum of a
/// mixed FNV-1a hash of each line, so the egress of different write
/// orders compares equal.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Lines folded in.
    pub lines: u64,
    /// Wrapping sum of the line hashes.
    pub sum: u64,
}

impl Digest {
    /// Fold one line (without its newline) in.
    pub fn add(&mut self, line: &[u8]) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in line {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        self.sum = self.sum.wrapping_add(h);
        self.lines += 1;
    }
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Build a metric.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Render the result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in [
            0u64,
            1,
            1023,
            1024,
            1500,
            4096,
            1 << 20,
            123_456_789,
            1 << 36,
        ] {
            let b = bucket_of(v);
            assert!(b >= last);
            last = b;
            let mid = bucket_mid(b);
            assert!(
                (mid - v as f64).abs() <= (v as f64 * 0.008).max(0.5),
                "{v} -> {mid}"
            );
        }
    }

    #[test]
    fn quantiles_follow_the_counts() {
        let h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let mut plain = Hist::plain();
        h.add_to(&mut plain);
        assert_eq!(quantile(&plain, 0.5), Some(500.0));
        assert_eq!(quantile(&plain, 0.99), Some(990.0));
        let wide = Hist::default();
        for v in [10_000u64, 10_001, 10_002, 10_003] {
            wide.record(v);
        }
        let mut plain = Hist::plain();
        wide.add_to(&mut plain);
        let (lo, hi) = (
            quantile(&plain, 0.25).unwrap(),
            quantile(&plain, 1.0).unwrap(),
        );
        assert!(lo < hi && (lo - 10_000.0).abs() < 80.0 && (hi - 10_003.0).abs() < 80.0);
    }

    #[test]
    fn digest_ignores_order() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        for l in ["x\t1", "y\t2", "z\t3"] {
            a.add(l.as_bytes());
        }
        for l in ["z\t3", "x\t1", "y\t2"] {
            b.add(l.as_bytes());
        }
        assert_eq!(a, b);
        b.add(b"w");
        assert_ne!(a, b);
    }
}
