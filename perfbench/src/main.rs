//! `perfbench`: the FlowDNS end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <edge-v5|cdn-v9> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The process spawns itself as each probe segment (`segment`), a process
//! that runs the daemon as an in-process `IngestRuntime`, and each segment
//! spawns itself once more as the open-loop load generator (`gen`). The
//! last line of standard output is one JSON object with the verdict and
//! the metrics; see `perfbench/README.md`.

#![allow(clippy::print_stdout)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

mod daemon;
mod gen;
mod inputs;
mod measure;
mod replay;

/// Counts heap allocations while enabled, for the `*.allocs_per_*`
/// metrics of the traced replay.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counter update touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn note_allocation() {
    // ordering: a statistic read by the same single-threaded replay.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Start or stop counting allocations (the traced replay turns it on).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Parsed `--key value` arguments.
#[derive(Debug, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Args { pairs })
    }

    /// The value of `--name`.
    pub fn get(&self, name: &str) -> Result<&str, String> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// The value of `--name`, parsed.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.get(name)?;
        raw.parse()
            .map_err(|_| format!("--{name}: cannot parse `{raw}`"))
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match raw.first().map(String::as_str) {
        Some("gen") => ("gen", &raw[1..]),
        Some("segment") => ("segment", &raw[1..]),
        _ => ("bench", &raw[..]),
    };
    let result = Args::parse(rest).and_then(|args| match mode {
        "gen" => gen::main(&args),
        "segment" => daemon::segment_main(&args),
        _ => daemon::bench_main(&args),
    });
    if let Err(e) = result {
        eprintln!("perfbench {mode}: {e}");
        std::process::exit(1);
    }
}
