//! Property: every report the service admits into the window reaches a
//! terminal trace stage — `solved`, `degraded`, or `checkpointed` — no
//! matter what mix of malformed, late, duplicate, and out-of-order
//! reports surrounds it. An admitted report marks the window dirty, so
//! the same tick always runs a solve and settles it; reports still
//! queued when the service checkpoints are settled by `checkpoint()`.
//!
//! Telemetry state is process-global, so this file holds exactly one
//! test and the property body clears the capture sink per case.

use proptest::prelude::*;
use std::sync::Arc;
use traffic_cs::cs::CsConfig;
use traffic_cs::service::{Observation, ServeConfig};
use traffic_cs::ShardedService;

const TERMINAL: &[&str] = &["solved", "degraded", "checkpointed"];

/// A small report universe: collisions (duplicates), out-of-range
/// segments (rejections), negative speeds (rejections), and timestamps
/// spread far enough to advance the window (lateness) are all likely.
fn report() -> impl Strategy<Value = Observation> {
    (0u64..6, 0u64..600, 0usize..6, -20.0f64..120.0).prop_map(
        |(vehicle, timestamp_s, segment, speed_kmh)| Observation {
            vehicle,
            timestamp_s,
            segment,
            speed_kmh,
        },
    )
}

fn stages_of(sink: &telemetry::CaptureSink) -> Vec<(String, String)> {
    sink.records()
        .iter()
        .filter(|r| r.name == "serve.trace")
        .map(|r| {
            let get = |key: &str| match r.field(key) {
                Some(telemetry::Value::Str(s)) => s.clone(),
                other => panic!("trace record missing string field '{key}': {other:?}"),
            };
            (get("trace"), get("stage"))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_admitted_report_reaches_a_terminal_stage(
        reports in proptest::collection::vec(report(), 1..40),
        ticks_every in 1usize..8,
    ) {
        telemetry::reset_for_tests();
        let sink = Arc::new(telemetry::CaptureSink::new());
        telemetry::add_sink(sink.clone());
        telemetry::set_level(telemetry::Level::Trace);

        let cfg = ServeConfig::builder()
            .slot_len_s(60)
            .window_slots(4)
            .num_segments(4)
            .queue_capacity(8)
            .trace_sample(1)
            .cs(CsConfig { rank: 2, lambda: 0.1, ..CsConfig::default() })
            .build()
            .unwrap();
        let mut s = ShardedService::new(cfg).unwrap();
        for (i, obs) in reports.iter().enumerate() {
            s.push(*obs);
            if (i + 1) % ticks_every == 0 {
                s.tick();
            }
        }
        // Whatever is still queued gets its terminal from checkpoint().
        let _ = s.checkpoint();

        let stages = stages_of(&sink);
        for (id, stage) in &stages {
            if stage == "admitted" {
                let settled = stages
                    .iter()
                    .any(|(other, s)| other == id && TERMINAL.contains(&s.as_str()));
                prop_assert!(settled, "trace {id} admitted but never settled: {stages:?}");
            }
        }
        telemetry::reset_for_tests();
    }
}
