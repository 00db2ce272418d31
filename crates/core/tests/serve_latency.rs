//! Regression test: the serve engine must sample tick and solve
//! wall clock into the `serve.tick_us` / `serve.solve_us` histograms
//! whenever metrics are enabled — including with spans off, the
//! `--metrics-out`-only configuration (same trap `metrics_only.rs`
//! pins for `als.complete_us`) — and end-to-end per-report latency
//! (enqueue → settled) into `serve.e2e_us`; with metrics off, nothing
//! is sampled.
//!
//! Telemetry state is process-global, so this file holds exactly one
//! test — adding a second `#[test]` here would race it.

use traffic_cs::cs::CsConfig;
use traffic_cs::service::{Observation, ServeConfig};
use traffic_cs::ShardedService;

#[test]
fn service_samples_latency_histograms_with_metrics_only() {
    telemetry::reset_for_tests();
    telemetry::set_metrics_enabled(true);
    assert!(!telemetry::enabled(telemetry::Level::Debug), "spans must stay off for this test");

    let cfg = ServeConfig::builder()
        .slot_len_s(60)
        .window_slots(4)
        .num_segments(3)
        .cs(CsConfig { rank: 2, lambda: 0.1, ..CsConfig::default() })
        .build()
        .unwrap();
    let mut s = ShardedService::new(cfg).unwrap();

    let tick_us = telemetry::histogram("serve.tick_us");
    let solve_us = telemetry::histogram("serve.solve_us");
    let e2e_us = telemetry::histogram("serve.e2e_us");

    // Empty tick: the tick is sampled, but no solve ran and nothing
    // was admitted, so nothing settled.
    let report = s.tick();
    assert!(!report.solved);
    assert_eq!(report.solve_us, 0);
    assert_eq!(tick_us.count(), 1);
    assert_eq!(solve_us.count(), 0);
    assert_eq!(e2e_us.count(), 0);

    // A data tick solves: both histograms observe, and the report
    // carries the same timings for callers without a sink. Every one
    // of the 8 admitted reports settles with an e2e sample.
    for t in 0..8u64 {
        s.push(Observation { vehicle: t, timestamp_s: t * 30, segment: 0, speed_kmh: 30.0 });
    }
    let report = s.tick();
    assert!(report.solved);
    assert_eq!(tick_us.count(), 2);
    assert_eq!(solve_us.count(), 1);
    assert!(report.tick_us >= report.solve_us, "solve time is part of the tick");
    assert!(solve_us.sum() >= 0.0);
    assert!(tick_us.quantile(0.99).is_some(), "quantiles derivable from the samples");
    assert_eq!(e2e_us.count(), 8, "one e2e sample per admitted report");
    assert!(e2e_us.quantile(0.99).is_some());

    // Rejected reports never settle: no e2e sample.
    s.push(Observation { vehicle: 50, timestamp_s: 60, segment: 0, speed_kmh: -5.0 });
    s.tick();
    assert_eq!(e2e_us.count(), 8, "a rejected report must not produce an e2e sample");

    // Metrics off: the hot path goes silent again.
    telemetry::set_metrics_enabled(false);
    s.push(Observation { vehicle: 99, timestamp_s: 60, segment: 1, speed_kmh: 40.0 });
    s.tick();
    assert_eq!(tick_us.count(), 3, "no sampling while metrics are disabled");
    assert_eq!(solve_us.count(), 1, "no sampling while metrics are disabled");
    assert_eq!(e2e_us.count(), 8, "no metric sampling while metrics are disabled");

    telemetry::reset_for_tests();
}
