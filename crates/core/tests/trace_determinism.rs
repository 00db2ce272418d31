//! Causal-trace determinism: the set of `serve.trace` records a fixed
//! workload produces — IDs, stages, and field values, in emission
//! order — must be byte-identical at any solver thread count. Trace IDs
//! are FNV-1a over `(vehicle, ts, segment, ingest_seq)`, all of which
//! are ingest-order properties; the solver pool must never leak into
//! them.
//!
//! Telemetry state is process-global, so every test serializes on one
//! mutex and resets the globals first.

use std::sync::{Arc, Mutex, MutexGuard};
use traffic_cs::cs::CsConfig;
use traffic_cs::service::{report_trace_id, Backpressure, Observation, ServeConfig, Service};

fn serialize() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    let guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::reset_for_tests();
    guard
}

fn service(num_threads: usize, backpressure: Backpressure) -> Service {
    let cfg = ServeConfig::builder()
        .slot_len_s(60)
        .window_slots(4)
        .num_segments(4)
        .queue_capacity(4)
        .backpressure(backpressure)
        .trace_sample(1)
        .cs(CsConfig { rank: 2, lambda: 0.1, num_threads, ..CsConfig::default() })
        .build()
        .unwrap();
    Service::new(cfg).unwrap()
}

/// One canonical line per `serve.trace` record: name plus every field in
/// emission order. Deliberately excludes `ts_ms` (wall clock) — every
/// other byte must match across runs.
fn canonical_traces(sink: &telemetry::CaptureSink) -> Vec<String> {
    sink.records()
        .iter()
        .filter(|r| r.name == "serve.trace")
        .map(|r| {
            let fields: Vec<String> = r.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            fields.join(" ")
        })
        .collect()
}

/// A fixed workload exercising every trace stage: ingest, admission,
/// rejection, lateness, duplication, backpressure on both policies, and
/// the queued-at-checkpoint terminal.
fn run_workload(num_threads: usize) -> Vec<String> {
    let sink = Arc::new(telemetry::CaptureSink::new());
    telemetry::add_sink(sink.clone());
    telemetry::set_level(telemetry::Level::Trace);

    let mut s = service(num_threads, Backpressure::DropNewest);
    // Tick 1: three clean admissions.
    for v in 0..3u64 {
        s.push(Observation {
            vehicle: v,
            timestamp_s: v * 30,
            segment: v as usize,
            speed_kmh: 30.0,
        });
    }
    s.tick();
    // Tick 2: a malformed report and an exact duplicate of vehicle 0.
    s.push(Observation { vehicle: 7, timestamp_s: 30, segment: 1, speed_kmh: -1.0 });
    s.push(Observation { vehicle: 0, timestamp_s: 0, segment: 0, speed_kmh: 55.0 });
    s.tick();
    // Tick 3: jump the clock four slots ahead, making ts=0 late.
    s.advance_clock(60 * 8);
    s.push(Observation { vehicle: 9, timestamp_s: 0, segment: 2, speed_kmh: 40.0 });
    s.tick();
    // Tick 4: overflow the 4-slot queue; DropNewest sheds the last two.
    for v in 20..26u64 {
        s.push(Observation { vehicle: v, timestamp_s: 60 * 8, segment: 3, speed_kmh: 25.0 });
    }
    s.tick();
    // Queued but never ticked: terminal stage comes from checkpoint().
    s.push(Observation { vehicle: 30, timestamp_s: 60 * 8, segment: 0, speed_kmh: 35.0 });
    let _ = s.checkpoint();

    // DropOldest evicts a *queued* report's trace instead.
    let mut s = service(num_threads, Backpressure::DropOldest);
    for v in 40..46u64 {
        s.push(Observation { vehicle: v, timestamp_s: 30, segment: 1, speed_kmh: 45.0 });
    }
    s.tick();

    let lines = canonical_traces(&sink);
    telemetry::reset_for_tests();
    lines
}

#[test]
fn trace_records_are_identical_at_any_thread_count() {
    let _g = serialize();
    let t1 = run_workload(1);
    let t2 = run_workload(2);
    let t8 = run_workload(8);
    assert!(!t1.is_empty(), "workload produced no trace records");
    assert_eq!(t1, t2, "thread count 2 changed the trace stream");
    assert_eq!(t1, t8, "thread count 8 changed the trace stream");

    // Every stage the service can emit shows up in the workload.
    let all = t1.join("\n");
    for stage in [
        "ingest",
        "admitted",
        "rejected",
        "dropped_late",
        "duplicate",
        "queue_dropped",
        "solved",
        "checkpointed",
    ] {
        assert!(all.contains(&format!("stage={stage}")), "workload missed stage '{stage}':\n{all}");
    }
}

#[test]
fn trace_ids_are_the_documented_fnv_and_sampling_filters_by_modulus() {
    let _g = serialize();
    // The ID is FNV-1a over the four little-endian u64s, reproducible
    // by any external consumer of a dump.
    let mut h = telemetry::Fnv::new();
    h.write_u64(3);
    h.write_u64(120);
    h.write_u64(2);
    h.write_u64(17);
    assert_eq!(report_trace_id(3, 120, 2, 17), h.finish());

    // Sampling: with trace_sample = 3, only IDs divisible by 3 emit.
    let sink = Arc::new(telemetry::CaptureSink::new());
    telemetry::add_sink(sink.clone());
    telemetry::set_level(telemetry::Level::Trace);
    let cfg = ServeConfig::builder()
        .slot_len_s(60)
        .window_slots(4)
        .num_segments(4)
        .trace_sample(3)
        .cs(CsConfig { rank: 2, lambda: 0.1, ..CsConfig::default() })
        .build()
        .unwrap();
    let mut s = Service::new(cfg).unwrap();
    let mut expected = Vec::new();
    for v in 0..32u64 {
        let id = report_trace_id(v, 30, 1, s.ingest_seq());
        if id.is_multiple_of(3) {
            expected.push(format!("{id:016x}"));
        }
        s.push(Observation { vehicle: v, timestamp_s: 30, segment: 1, speed_kmh: 30.0 });
    }
    let seen: Vec<String> = sink
        .records()
        .iter()
        .filter(|r| r.name == "serve.trace")
        .filter_map(|r| match r.field("trace") {
            Some(telemetry::Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(seen, expected, "sampled trace IDs disagree with the modulus rule");
    assert!(!expected.is_empty(), "sample of 32 pushes selected nothing — weak test");
    assert!(expected.len() < 32, "modulus 3 sampled everything — weak test");
}

#[test]
fn tracing_off_emits_nothing_even_at_trace_level() {
    let _g = serialize();
    let sink = Arc::new(telemetry::CaptureSink::new());
    telemetry::add_sink(sink.clone());
    telemetry::set_level(telemetry::Level::Trace);
    // Default trace_sample (0) means off, whatever the level says.
    let cfg = ServeConfig::builder()
        .slot_len_s(60)
        .window_slots(4)
        .num_segments(4)
        .cs(CsConfig { rank: 2, lambda: 0.1, ..CsConfig::default() })
        .build()
        .unwrap();
    let mut s = Service::new(cfg).unwrap();
    s.push(Observation { vehicle: 1, timestamp_s: 30, segment: 1, speed_kmh: 30.0 });
    s.tick();
    assert_eq!(sink.count_named("serve.trace"), 0, "trace_sample 0 must emit no traces");
}

#[test]
fn each_warm_pass_splits_its_time_into_stages() {
    // At Debug level every warm pass emits one `online.pass` span
    // carrying the wall clock of its `L` step, `R` step and `L·Rᵀ`
    // rewrite — the split the `als_kernel` bench's warm-pass section
    // reads.
    let _g = serialize();
    let sink = Arc::new(telemetry::CaptureSink::new());
    telemetry::add_sink(sink.clone());
    telemetry::set_level(telemetry::Level::Debug);
    let mut s = service(1, Backpressure::DropNewest);
    for round in 0..4u64 {
        for v in 0..8u64 {
            s.push(Observation {
                vehicle: v,
                timestamp_s: 30 + round,
                segment: (v % 4) as usize,
                speed_kmh: 30.0 + (v + round) as f64,
            });
        }
        s.tick();
    }
    let passes: Vec<_> = sink.records().into_iter().filter(|r| r.name == "online.pass").collect();
    assert_eq!(passes.len() as u64, s.solve_stats().incremental_solves);
    assert!(!passes.is_empty(), "the workload never took a warm pass");
    for pass in &passes {
        for key in ["l_step_ms", "r_step_ms", "rewrite_ms"] {
            match pass.field(key) {
                Some(telemetry::Value::Float(ms)) => assert!(*ms >= 0.0, "{key} = {ms}"),
                other => panic!("online.pass lacks a numeric {key}: {other:?}"),
            }
        }
    }
}
