//! End-to-end properties of the chaos harness: determinism, thread
//! invariance, oracle health across a seed sweep, fault coverage, and
//! telemetry integration.

use chaos::{run, ChaosConfig, ChaosReport};
use traffic_cs::service::Backpressure;

fn run_cfg(seed: u64, ticks: usize, num_threads: usize) -> ChaosReport {
    let report =
        run(&ChaosConfig { seed, ticks, num_threads, check_counters: false, ..Default::default() })
            .expect("chaos run constructs");
    assert!(report.oracle_ok(), "oracle violations for seed {seed}: {:#?}", report.oracle_failures);
    report
}

fn fingerprint(r: &ChaosReport) -> (u64, u64, u64, u64, u64, String) {
    (
        r.lines_total,
        r.parse_rejected,
        r.estimate_hash,
        r.window_hash,
        r.fault_log_hash,
        r.summary_line(),
    )
}

#[test]
fn same_seed_same_everything() {
    let a = run_cfg(3, 24, 1);
    let b = run_cfg(3, 24, 1);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.fault_log, b.fault_log);
}

#[test]
fn report_is_invariant_across_thread_counts() {
    let one = run_cfg(7, 24, 1);
    let two = run_cfg(7, 24, 2);
    let four = run_cfg(7, 24, 4);
    assert_eq!(fingerprint(&one), fingerprint(&two));
    assert_eq!(fingerprint(&one), fingerprint(&four));
    assert_ne!(one.estimate_hash, 0, "a 24-tick run must produce an estimate");
}

#[test]
fn different_seeds_diverge() {
    let a = run_cfg(100, 16, 1);
    let b = run_cfg(101, 16, 1);
    assert_ne!(
        (a.fault_log_hash, a.window_hash),
        (b.fault_log_hash, b.window_hash),
        "distinct seeds should produce distinct runs"
    );
}

/// The library-level mini-sweep: every seed's oracle must hold, and
/// collectively the seeds must exercise every counter and both
/// backpressure policies — otherwise the harness is quietly testing
/// less than it claims.
#[test]
fn seed_sweep_is_green_and_covers_the_fault_space() {
    let reports: Vec<ChaosReport> = (1..=8).map(|seed| run_cfg(seed, 24, 1)).collect();
    let mut policies = std::collections::HashSet::new();
    let sum = |f: &dyn Fn(&ChaosReport) -> u64| reports.iter().map(f).sum::<u64>();
    for r in &reports {
        policies.insert(r.backpressure == Backpressure::DropNewest);
    }
    assert_eq!(policies.len(), 2, "sweep must cover both backpressure policies");
    assert!(sum(&|r| r.stats.admitted) > 0);
    assert!(sum(&|r| r.stats.rejected) > 0, "semantic line faults must reach the service");
    assert!(sum(&|r| r.stats.dropped_late) > 0, "late reports must land");
    assert!(sum(&|r| r.stats.duplicates) > 0, "duplicate bursts must land");
    assert!(sum(&|r| r.stats.queue_dropped) > 0, "queue spikes must overflow the queue");
    assert!(sum(&|r| r.stats.degraded) > 0, "zero-budget sabotage must degrade a solve");
    assert!(sum(&|r| r.parse_rejected) > 0, "structural line faults must fail parsing");
    assert!(sum(&|r| r.checkpoint_rejections) > 0, "checkpoint corruption must be rejected");
    assert!(sum(&|r| r.fault_log.len() as u64) > 0);
}

/// The warm-pass solve path (the shipped default) and a run that
/// forces a full sweep on every solve must tell the same story line for
/// line: the final audit cold-restarts the estimator and refreshes, so
/// estimate/window hashes are solve-mode invariant, and the
/// solve/degraded counters are mode-independent by construction. CI
/// diffs exactly these summary lines across a 16-seed sweep.
#[test]
fn full_sweep_only_runs_tell_the_same_story() {
    for seed in [2, 9] {
        let incremental = run_cfg(seed, 24, 1);
        let full = run(&ChaosConfig {
            seed,
            ticks: 24,
            num_threads: 1,
            full_sweep_only: true,
            ..Default::default()
        })
        .expect("chaos run constructs");
        assert!(full.oracle_ok(), "full-sweep oracle failed for seed {seed}");
        assert_eq!(
            incremental.summary_line(),
            full.summary_line(),
            "solve mode leaked into the chaos report for seed {seed}"
        );
    }
}

/// A sharded engine under the full fault barrage must still pass the
/// oracle: conservation and the dedup bound always hold, and the final
/// merged estimate must equal the stitched per-shard offline replay.
/// (Mirror-exact counter checks are a single-shard contract — per-shard
/// bounded queues split spikes — so the audit swaps those for the
/// stitched replay; see `sim::audit`.)
#[test]
fn sharded_runs_pass_the_oracle_at_any_thread_count() {
    let run_sharded = |num_threads: usize| {
        let report =
            run(&ChaosConfig { seed: 11, ticks: 16, num_threads, shards: 3, ..Default::default() })
                .expect("sharded chaos run constructs");
        assert!(
            report.oracle_ok(),
            "sharded oracle violations ({num_threads} threads): {:#?}",
            report.oracle_failures
        );
        report
    };
    let one = run_sharded(1);
    let two = run_sharded(2);
    assert_ne!(one.estimate_hash, 0, "a 16-tick sharded run must produce an estimate");
    assert_eq!(fingerprint(&one), fingerprint(&two), "shard workers leaked thread state");
}

/// The connection-level harness: mid-frame cuts, adversarial write
/// boundaries, and slow-loris stalls against a live daemon. The summary
/// line must be byte-identical across solver thread counts, every
/// admission counter the stream was built to exercise must fire, and
/// counter conservation must hold across the dropped connections.
#[test]
fn connection_faults_pass_the_oracle_and_are_thread_invariant() {
    use chaos::{run_net, NetChaosConfig};
    let run_once = |num_threads: usize| {
        let report = run_net(&NetChaosConfig { seed: 5, num_threads, ..Default::default() })
            .expect("net chaos run constructs");
        assert!(
            report.oracle_ok(),
            "net oracle violations ({num_threads} threads): {:#?}",
            report.oracle_failures
        );
        report
    };
    let one = run_once(1);
    let two = run_once(2);
    assert_eq!(one.summary_line(), two.summary_line(), "thread count leaked onto the wire");
    assert_eq!(one.daemon.protocol_errors, 4, "2 cut + 2 loris clients must each cost one error");
    assert!(one.delivered < one.sent, "cuts must strand some reports");
    assert!(one.stats.rejected > 0, "poison reports must cross the wire and be rejected");
    assert!(one.stats.dropped_late > 0, "pre-grid reports must be dropped late");
    assert!(one.stats.duplicates > 0, "duplicate reports must be deduplicated");
    assert_eq!(one.stats.queue_dropped, 0, "the net harness must never overflow a queue");
    assert_ne!(one.estimate_hash, 0, "the delivered stream must produce an estimate");
}

/// Fault injections surface as `chaos.fault` telemetry events. The
/// capture is filtered by this test's unique seed because telemetry
/// state is process-global and other tests in this binary may be
/// emitting concurrently.
#[test]
fn fault_injections_emit_telemetry_events() {
    use std::sync::Arc;
    use telemetry::{CaptureSink, Level, Value};

    const SEED: u64 = 987_654;
    let sink = Arc::new(CaptureSink::new());
    telemetry::add_sink(sink.clone());
    telemetry::set_level(Level::Debug);
    let report = run_cfg(SEED, 24, 1);
    telemetry::set_level(Level::Off);

    let records = sink.records();
    let mine = records
        .iter()
        .filter(|r| {
            r.name == "chaos.fault"
                && r.fields.iter().any(|(k, v)| k == "seed" && *v == Value::UInt(SEED))
        })
        .count();
    assert_eq!(
        mine,
        report.fault_log.len(),
        "every logged fault must emit exactly one chaos.fault event"
    );
}
