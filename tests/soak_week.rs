//! The compressed week-at-an-ISP soak, as a repo-level test.
//!
//! This is the acceptance surface of the soak tier: a scaled-down week
//! (small population, fast clear-ups) streamed through the **real**
//! threaded correlator in both the classic shared-queue layout and the
//! 2-shard shared-nothing layout, with a kill-and-warm-restart in the
//! middle of each. The full-size run (mixed population, 2.4M
//! subscribers, 168 simulated hours, > 13M events per mode) produces the
//! committed `BENCH_soak.json` via `exp_soak`; this test keeps the same
//! three claims — bounded memory across ≥ 3 rotation clear-ups, snapshot
//! continuity across the restart, zero accepted-record loss — green on
//! every `cargo test`.

use flowdns_bench::soak::{self, SoakConfig};

fn scaled_week() -> SoakConfig {
    let mut config = SoakConfig::smoke();
    config
        .apply_file_text(
            "population = small\n\
             subscribers = 20000\n\
             sim_hours = 2\n\
             peak_flows_per_sec = 50\n\
             background_dns_per_sec = 7\n\
             a_clear_up_secs = 600\n\
             c_clear_up_secs = 1200\n\
             restart_at_hour = 1.0\n\
             soak_shards = 2\n",
        )
        .expect("valid soak overrides");
    config
}

#[test]
fn compressed_week_holds_the_three_soak_claims() {
    let report = soak::run(&scaled_week(), |_| {}).expect("soak completes");

    assert_eq!(report.modes.len(), 2, "classic and sharded modes");
    assert_eq!(report.modes[0].label, "classic");
    assert_eq!(report.modes[0].shards, 0);
    assert_eq!(report.modes[1].label, "sharded");
    assert_eq!(report.modes[1].shards, 2);

    for mode in &report.modes {
        // ≥ 3 rotation clear-ups actually observed, each with a memory
        // reading taken right after it.
        assert!(
            mode.memory_samples.len() >= 3,
            "{}: only {} post-clear-up samples",
            mode.label,
            mode.memory_samples.len()
        );
        // Bounded memory: rotation returns the store to its working set.
        assert!(
            mode.memory_bounded(report.config.memory_band_factor),
            "{}: post-clear-up entries outside the band: {:?}",
            mode.label,
            mode.memory_samples
        );
        // Snapshot continuity: the warm restart restored exactly what
        // the shutdown snapshot serialized.
        assert!(mode.restart.warm_started, "{}: no warm start", mode.label);
        assert!(
            mode.restart.continuity,
            "{}: snapshot had {} entries but warm start restored {}",
            mode.label, mode.restart.snapshot_entries, mode.restart.warm_start_entries
        );
        // Zero accepted-record loss, reconciled against the pipeline's
        // own metrics (and in sharded mode the per-shard routed
        // counters).
        assert!(
            mode.loss.zero_accepted_loss(),
            "{}: loss ledger does not reconcile: {:?}",
            mode.label,
            mode.loss
        );
        // The correlator did real work the whole way through.
        assert!(
            mode.correlation_rate_pct > 60.0,
            "{}: correlation collapsed to {:.1}%",
            mode.label,
            mode.correlation_rate_pct
        );
    }

    // Both modes consumed the identical stream.
    assert_eq!(
        report.modes[0].events_streamed, report.modes[1].events_streamed,
        "classic and sharded modes must replay the same workload"
    );
    assert_eq!(
        report.modes[0].loss.dns_offered + report.modes[0].loss.flows_offered,
        report.modes[1].loss.dns_offered + report.modes[1].loss.flows_offered,
    );

    // The emitted document round-trips through its own schema check.
    soak::validate_json(&report.to_json()).expect("soak JSON validates");
}
