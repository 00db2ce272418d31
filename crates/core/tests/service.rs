//! Integration tests for the streaming estimation service: deterministic
//! replay parity against the offline pipeline, thread-count invariance,
//! and fault injection that must degrade counters — never the process.

use linalg::Matrix;
use probes::tcm::TcmBuilder;
use traffic_cs::cs::{complete_matrix_detailed, CsConfig};
use traffic_cs::service::{Backpressure, Observation, ServeConfig, MAX_SPEED_KMH};
use traffic_cs::sharded::{ShardPlan, ShardedService};
use traffic_cs::{Error, ServeError};

use std::collections::HashMap;
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

const SLOT_LEN: u64 = 60;
const SEGMENTS: usize = 8;

fn cs_cfg(threads: usize) -> CsConfig {
    CsConfig { rank: 2, lambda: 0.1, num_threads: threads, ..CsConfig::default() }
}

/// Deterministic synthetic probe stream: low-rank "traffic" sampled by a
/// hash-scattered subset of (slot, segment, vehicle) triples. No RNG —
/// replays are bit-identical across runs and thread counts.
fn synth_observations(slots: usize) -> Vec<Observation> {
    let mut out = Vec::new();
    for slot in 0..slots {
        for seg in 0..SEGMENTS {
            for probe in 0..3u64 {
                // Scatter ~60% coverage deterministically.
                let h = (slot as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add(seg as u64 * 97 + probe * 131);
                if h % 10 < 6 {
                    let f = (2.0 * std::f64::consts::PI * slot as f64 / 24.0).sin();
                    let speed = 30.0 + 3.0 * (seg % 5) as f64 + 9.0 * f + 0.1 * probe as f64;
                    out.push(Observation {
                        vehicle: 100 * probe + seg as u64,
                        timestamp_s: slot as u64 * SLOT_LEN + 7 + probe,
                        segment: seg,
                        speed_kmh: speed,
                    });
                }
            }
        }
    }
    out
}

fn serve_cfg(window_slots: usize, threads: usize) -> ServeConfig {
    ServeConfig::builder()
        .slot_len_s(SLOT_LEN)
        .window_slots(window_slots)
        .num_segments(SEGMENTS)
        .cs(cs_cfg(threads))
        .queue_capacity(10_000)
        .build()
        .unwrap()
}

/// The IEEE bit patterns of a matrix's entries, row-major.
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Replays observations through a service in chunks, ticking per chunk.
fn replay(cfg: ServeConfig, observations: &[Observation], chunk: usize) -> ShardedService {
    let mut service = ShardedService::new(cfg).unwrap();
    for batch in observations.chunks(chunk.max(1)) {
        for &o in batch {
            assert!(service.push(o));
        }
        service.tick();
    }
    service
}

#[test]
fn replay_matches_offline_estimate_bit_for_bit() {
    // With the window sized to the full replay, the service's final
    // window is the offline TCM and its solve is cold — so the streamed
    // pipeline must reproduce the offline `build-tcm | estimate` result
    // exactly, at any thread count and any chunking.
    let slots = 12;
    let observations = synth_observations(slots);

    // Offline reference: batch TCM + detailed completion.
    let mut builder = TcmBuilder::new(slots, SEGMENTS);
    for o in &observations {
        builder
            .add_observation((o.timestamp_s / SLOT_LEN) as usize, o.segment, o.speed_kmh)
            .unwrap();
    }
    let offline_tcm = builder.build();
    let offline = complete_matrix_detailed(&offline_tcm, &cs_cfg(0)).unwrap();

    // Single tick => the one solve is cold, exactly like the offline
    // pipeline; chunked replays warm-start between ticks, so they are
    // compared across thread counts instead (determinism), not against
    // the cold reference.
    for threads in [1usize, 4] {
        let service = replay(serve_cfg(slots, threads), &observations, observations.len());
        let live = service.latest().expect("replay produced an estimate");
        assert!(!live.stale);
        assert_eq!(
            live.estimate.as_slice(),
            offline.estimate.as_slice(),
            "threads={threads}: streamed estimate diverged from offline"
        );
        assert_eq!(service.stats().admitted, observations.len() as u64);
        assert_eq!(service.stats().rejected, 0);
        assert_eq!(service.stats().dropped_late, 0);
    }
    for chunk in [1usize, 17] {
        let a = replay(serve_cfg(slots, 1), &observations, chunk);
        let b = replay(serve_cfg(slots, 4), &observations, chunk);
        assert_eq!(
            a.latest().unwrap().estimate.as_slice(),
            b.latest().unwrap().estimate.as_slice(),
            "chunk={chunk}: incremental replay must be thread-invariant"
        );
    }
}

#[test]
fn multi_window_replay_is_thread_invariant_and_window_exact() {
    // Sliding window smaller than the replay: solves are warm-started,
    // so they differ from offline cold solves by design — but the final
    // *window content* must equal the offline TCM's last rows exactly,
    // and the estimate stream must be bit-identical across thread counts.
    let slots = 12;
    let window = 4;
    let observations = synth_observations(slots);

    let s1 = replay(serve_cfg(window, 1), &observations, 9);
    let s4 = replay(serve_cfg(window, 4), &observations, 9);
    let e1 = s1.latest().unwrap();
    let e4 = s4.latest().unwrap();
    assert_eq!(e1.estimate.as_slice(), e4.estimate.as_slice(), "thread parity violated");
    assert_eq!(e1.head_slot, slots - 1);

    // Window-content parity with the offline TCM.
    let mut builder = TcmBuilder::new(slots, SEGMENTS);
    for o in &observations {
        builder
            .add_observation((o.timestamp_s / SLOT_LEN) as usize, o.segment, o.speed_kmh)
            .unwrap();
    }
    let offline_window = builder.build().slot_range(slots - window, slots);
    // A single-tick replay cold-solves exactly the final window, so it
    // must agree bit-for-bit with the offline solve of those rows.
    let window_solver = replay(serve_cfg(window, 1), &observations, usize::MAX);
    assert_eq!(window_solver.latest().unwrap().estimate.shape(), (window, SEGMENTS));
    let offline_solve = complete_matrix_detailed(&offline_window, &cs_cfg(0)).unwrap();
    assert_eq!(
        window_solver.latest().unwrap().estimate.as_slice(),
        offline_solve.estimate.as_slice(),
        "single-tick replay over a sliding window must cold-solve the same final window"
    );
}

#[test]
fn fault_injection_degrades_counters_not_the_process() {
    let mut service = ShardedService::new(serve_cfg(4, 1)).unwrap();

    // Healthy traffic first.
    for &o in &synth_observations(4) {
        service.push(o);
    }
    let report = service.tick();
    assert!(report.solved);
    let baseline = service.latest().unwrap().estimate.clone();

    // Malformed: NaN / infinite / negative speeds, unknown segment.
    service.push(Observation { vehicle: 1, timestamp_s: 200, segment: 0, speed_kmh: f64::NAN });
    service.push(Observation {
        vehicle: 1,
        timestamp_s: 201,
        segment: 0,
        speed_kmh: f64::INFINITY,
    });
    service.push(Observation { vehicle: 1, timestamp_s: 202, segment: 0, speed_kmh: -3.0 });
    service.push(Observation { vehicle: 1, timestamp_s: 203, segment: 99, speed_kmh: 30.0 });
    let report = service.tick();
    assert_eq!(report.rejected, 4);
    assert_eq!(service.stats().rejected, 4);

    // Late: advance the clock far, then send an evicted-slot report.
    service.push(Observation {
        vehicle: 2,
        timestamp_s: 100 * SLOT_LEN,
        segment: 0,
        speed_kmh: 30.0,
    });
    service.push(Observation { vehicle: 2, timestamp_s: 0, segment: 0, speed_kmh: 30.0 });
    let report = service.tick();
    assert_eq!(report.dropped_late, 1);
    assert!(service.stats().dropped_late >= 1);

    // Duplicates: exact re-delivery resolves last-write-wins.
    let ts = 100 * SLOT_LEN + 5;
    service.push(Observation { vehicle: 3, timestamp_s: ts, segment: 1, speed_kmh: 50.0 });
    service.tick();
    service.push(Observation { vehicle: 3, timestamp_s: ts, segment: 1, speed_kmh: 40.0 });
    let report = service.tick();
    assert_eq!(report.duplicates, 1);
    assert_eq!(service.stats().duplicates, 1);

    // The service kept answering through all of it.
    assert!(service.latest().is_some());
    assert_ne!(baseline.as_slice(), service.latest().unwrap().estimate.as_slice());
}

#[test]
fn duplicate_redelivery_is_last_write_wins() {
    // One vehicle, one slot: the re-delivered speed fully replaces the
    // original contribution rather than averaging with it.
    let mut service = ShardedService::new(serve_cfg(2, 1)).unwrap();
    service.push(Observation { vehicle: 9, timestamp_s: 10, segment: 0, speed_kmh: 50.0 });
    service.push(Observation { vehicle: 9, timestamp_s: 10, segment: 0, speed_kmh: 30.0 });
    service.tick();
    let live = service.latest().unwrap();
    // Fully-observed single cell in row 0: the estimate there must track
    // the corrected 30, not the 40 average.
    assert!(
        (live.estimate.get(0, 0) - 30.0).abs() < 1.0,
        "expected last-write-wins near 30, got {}",
        live.estimate.get(0, 0)
    );
    assert_eq!(service.stats().duplicates, 1);
}

#[test]
fn solve_failure_keeps_last_good_estimate_with_staleness_flag() {
    let mut service = ShardedService::new(serve_cfg(4, 1)).unwrap();
    for &o in &synth_observations(4) {
        service.push(o);
    }
    assert!(service.tick().solved);
    assert!(!service.latest().unwrap().stale);

    // Force a solve failure: jump the clock so far that the window is
    // completely empty — Algorithm 1 has no observations to fit.
    service.advance_clock(10_000 * SLOT_LEN);
    let report = service.refresh();
    assert!(!report.solved);
    assert!(report.degraded);
    assert_eq!(service.stats().degraded, 1);

    // Still answering: last good estimate, now flagged stale.
    let live = service.latest().expect("service must keep answering");
    assert!(live.stale, "degraded estimate must carry the staleness flag");

    // Repeated failures keep degrading gracefully, never wedge.
    for _ in 0..3 {
        let r = service.refresh();
        assert!(r.degraded);
    }
    assert_eq!(service.stats().degraded, 4);

    // Recovery: fresh in-window data produces a fresh, non-stale answer.
    let base = 10_000 * SLOT_LEN;
    for seg in 0..SEGMENTS {
        for p in 0..3u64 {
            service.push(Observation {
                vehicle: p * 100 + seg as u64,
                timestamp_s: base + p,
                segment: seg,
                speed_kmh: 25.0 + seg as f64 + p as f64,
            });
        }
    }
    let report = service.tick();
    assert!(report.solved, "service must recover once valid data returns");
    assert!(!service.latest().unwrap().stale);
}

#[test]
fn unsolvable_configuration_never_wedges_the_loop() {
    // rank > min(window, segments): every solve fails. The service must
    // keep classifying input and counting degradations indefinitely.
    let cfg = ServeConfig::builder()
        .slot_len_s(SLOT_LEN)
        .window_slots(2)
        .num_segments(3)
        .cs(CsConfig { rank: 5, lambda: 0.1, ..CsConfig::default() })
        .build()
        .unwrap();
    let mut service = ShardedService::new(cfg).unwrap();
    for round in 0..5u64 {
        service.push(Observation {
            vehicle: round,
            timestamp_s: round * SLOT_LEN,
            segment: (round % 3) as usize,
            speed_kmh: 30.0,
        });
        let report = service.tick();
        assert!(!report.solved);
        assert!(report.degraded);
    }
    assert_eq!(service.stats().degraded, 5);
    assert_eq!(service.stats().admitted, 5);
    assert!(service.latest().is_none(), "no good estimate ever existed");
}

#[test]
fn zero_wall_clock_budget_flags_every_solve_stale() {
    let cfg = ServeConfig { solve_budget: Some(std::time::Duration::ZERO), ..serve_cfg(4, 1) };
    let mut service = ShardedService::new(cfg).unwrap();
    for &o in &synth_observations(4) {
        service.push(o);
    }
    let report = service.tick();
    // The solve succeeded — but blew the (impossible) budget.
    assert!(report.solved);
    assert!(report.degraded);
    let live = service.latest().unwrap();
    assert!(live.stale);
    assert_eq!(service.stats().degraded, 1);
    assert_eq!(service.stats().solves, 1);
}

#[test]
fn warm_sweep_cap_bounds_steady_state_latency() {
    let capped = ServeConfig { warm_sweep_cap: Some(2), ..serve_cfg(4, 1) };
    let mut service = ShardedService::new(capped).unwrap();
    let observations = synth_observations(12);
    let mut max_warm_sweeps = 0;
    let mut first = true;
    for batch in observations.chunks(24) {
        for &o in batch {
            service.push(o);
        }
        let report = service.tick();
        if report.solved && !first {
            max_warm_sweeps = max_warm_sweeps.max(service.latest().unwrap().sweeps);
        }
        first = false;
    }
    assert!(service.stats().solves >= 2, "need warm solves to exercise the cap");
    assert!(max_warm_sweeps <= 2, "sweep cap violated: {max_warm_sweeps}");
}

#[test]
fn checkpoint_restore_reproduces_the_uninterrupted_stream() {
    let observations = synth_observations(12);
    let (first_half, second_half) = observations.split_at(observations.len() / 2);

    // Disable the sweep cap so both runs solve with identical budgets
    // (the uninterrupted run has an extra successful solve behind it,
    // which would otherwise have armed the cap).
    let cfg = || ServeConfig { warm_sweep_cap: None, ..serve_cfg(4, 1) };

    // Uninterrupted service over the full stream.
    let mut uninterrupted = ShardedService::new(cfg()).unwrap();
    for &o in first_half {
        uninterrupted.push(o);
    }
    uninterrupted.tick();
    for &o in second_half {
        uninterrupted.push(o);
    }
    uninterrupted.tick();

    // Interrupted service: checkpoint after the first half, restore into
    // a fresh process, replay the full stream (the window refills; the
    // warm factors come from the checkpoint — bit-exact hex round trip).
    let mut before_crash = ShardedService::new(cfg()).unwrap();
    for &o in first_half {
        before_crash.push(o);
    }
    before_crash.tick();
    let snapshot = before_crash.checkpoint();

    let mut restarted = ShardedService::new(cfg()).unwrap();
    restarted.restore(&snapshot).unwrap();
    // Refill the window exactly as a restarted replay would.
    for &o in &observations {
        restarted.push(o);
    }
    restarted.tick();

    assert_eq!(
        uninterrupted.latest().unwrap().estimate.as_slice(),
        restarted.latest().unwrap().estimate.as_slice(),
        "restored warm start must reproduce the uninterrupted estimate bit-for-bit"
    );
}

#[test]
fn checkpoint_file_round_trip_and_io_errors() {
    let dir = std::env::temp_dir().join("cs-serve-ckpt-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.ckpt");

    let mut service = ShardedService::new(serve_cfg(4, 1)).unwrap();
    for &o in &synth_observations(6) {
        service.push(o);
    }
    service.tick();
    service.save_checkpoint(&path).unwrap();

    let mut restored = ShardedService::new(serve_cfg(4, 1)).unwrap();
    restored.load_checkpoint(&path).unwrap();
    assert_eq!(restored.clock_s(), service.clock_s());

    // Missing file surfaces as a typed I/O error, not a panic.
    let missing = dir.join("does-not-exist.ckpt");
    let mut fresh = ShardedService::new(serve_cfg(4, 1)).unwrap();
    assert!(matches!(
        fresh.load_checkpoint(&missing),
        Err(Error::Serve(traffic_cs::ServeError::Io(_)))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// Saves a checkpoint into an empty `dir` twice: once with a directory
/// squatting on the temp file's name, which must fail as I/O and leave
/// the previous file byte for byte, then normally, which must leave no
/// temp file behind.
fn check_crash_safe_save(
    dir: &std::path::Path,
    save: impl Fn(&std::path::Path) -> Result<(), Error>,
) {
    let path = dir.join("serve.ckpt");
    std::fs::write(&path, "previous checkpoint\n").unwrap();
    let tmp = dir.join("serve.ckpt.tmp");
    std::fs::create_dir(&tmp).unwrap();
    let err = save(&path).unwrap_err();
    assert!(matches!(err, Error::Serve(ServeError::Io(_))), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), b"previous checkpoint\n");
    std::fs::remove_dir(&tmp).unwrap();
    save(&path).unwrap();
    let names: Vec<_> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(names, ["serve.ckpt"], "a temp file was left behind");
    assert!(std::fs::read_to_string(&path).unwrap().starts_with("cs-serve-"));
}

#[test]
fn checkpoint_saves_never_truncate_the_previous_file() {
    // A save writes a temp file next to the target, syncs it and renames
    // it over the target, whatever the shard plan.
    let root = std::env::temp_dir().join(format!("cs-serve-ckpt-crash-{}", std::process::id()));
    for shards in [1, 2] {
        let cfg = ServeConfig { shards: ShardPlan::with_count(shards), ..serve_cfg(4, 1) };
        let mut engine = ShardedService::new(cfg).unwrap();
        for &o in &synth_observations(6) {
            engine.push(o);
        }
        engine.tick();
        let dir = root.join(format!("shards-{shards}"));
        std::fs::create_dir_all(&dir).unwrap();
        check_crash_safe_save(&dir, |path| engine.save_checkpoint(path));
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn queue_backpressure_under_burst_load() {
    let cfg = ServeConfig {
        queue_capacity: 16,
        backpressure: Backpressure::DropOldest,
        ..serve_cfg(4, 1)
    };
    let mut service = ShardedService::new(cfg).unwrap();
    let observations = synth_observations(4);
    let burst = observations.len();
    for &o in &observations {
        service.push(o);
    }
    assert_eq!(service.queue_len(), 16, "queue must stay bounded");
    assert_eq!(service.stats().queue_dropped as usize, burst - 16);
    let report = service.tick();
    assert_eq!(report.admitted, 16);
    assert!(service.latest().is_some());
}

/// One admission-table scenario: a fixed input batch pushed into a
/// fresh service under one backpressure policy, with the exact counter
/// deltas the rules must produce.
struct AdmissionCase {
    name: &'static str,
    backpressure: Backpressure,
    queue_capacity: usize,
    input: &'static [Observation],
    queue_dropped: u64,
    rejected: u64,
    dropped_late: u64,
    admitted: u64,
    duplicates: u64,
}

#[test]
fn admission_rules_table() {
    // The classification rules in `admit` (and the queue bound in
    // `push`) pinned as a table: (malformed, late, duplicate, full
    // queue) × both backpressure policies, plus the dedup ring's slot
    // reuse, with exact counter deltas.
    // `duplicates` is a sub-count of `admitted` (a duplicate retracts
    // the old value and is then admitted), so conservation is
    //   pushed == queue_dropped + rejected + dropped_late + admitted.
    const VALID: Observation =
        Observation { vehicle: 1, timestamp_s: 10, segment: 0, speed_kmh: 50.0 };
    const MALFORMED_NAN: Observation =
        Observation { vehicle: 2, timestamp_s: 11, segment: 0, speed_kmh: f64::NAN };
    const MALFORMED_NEG: Observation =
        Observation { vehicle: 2, timestamp_s: 12, segment: 0, speed_kmh: -1.0 };
    const MALFORMED_SEG: Observation =
        Observation { vehicle: 2, timestamp_s: 13, segment: 99, speed_kmh: 30.0 };
    // Finite but absurd speeds are malformed too; the ceiling itself is
    // still a speed.
    const TOO_FAST: Observation =
        Observation { vehicle: 2, timestamp_s: 14, segment: 0, speed_kmh: 1e6 };
    const ABSURD: Observation =
        Observation { vehicle: 2, timestamp_s: 15, segment: 0, speed_kmh: 1e308 };
    const INFINITE: Observation =
        Observation { vehicle: 2, timestamp_s: 16, segment: 0, speed_kmh: f64::INFINITY };
    const AT_CEILING: Observation =
        Observation { vehicle: 6, timestamp_s: 17, segment: 1, speed_kmh: MAX_SPEED_KMH };
    // Slot 100 advances the clock so window 4 puts slot 0 below tail 97.
    const FRESH: Observation =
        Observation { vehicle: 3, timestamp_s: 100 * SLOT_LEN, segment: 0, speed_kmh: 40.0 };
    const STALE: Observation =
        Observation { vehicle: 3, timestamp_s: 0, segment: 1, speed_kmh: 40.0 };
    const DUP: Observation =
        Observation { vehicle: 1, timestamp_s: 10, segment: 0, speed_kmh: 30.0 };
    // The dedup maps form a ring indexed by `slot % window_slots`: slot 5
    // shares ring index 1 with slot 9. A report at slot 8 slides the tail
    // to 5, so slot 5's map survives; one at slot 9 evicts slot 5 and
    // clears that ring index for slot 9.
    const RING_KEY: Observation =
        Observation { vehicle: 4, timestamp_s: 5 * SLOT_LEN + 1, segment: 2, speed_kmh: 45.0 };
    const RING_KEEP: Observation =
        Observation { vehicle: 5, timestamp_s: 8 * SLOT_LEN, segment: 3, speed_kmh: 35.0 };
    const RING_REUSE: Observation =
        Observation { vehicle: 5, timestamp_s: 9 * SLOT_LEN, segment: 3, speed_kmh: 35.0 };

    let cases = [
        AdmissionCase {
            name: "malformed/drop-newest",
            backpressure: Backpressure::DropNewest,
            queue_capacity: 8,
            input: &[MALFORMED_NAN, MALFORMED_NEG, MALFORMED_SEG, VALID],
            queue_dropped: 0,
            rejected: 3,
            dropped_late: 0,
            admitted: 1,
            duplicates: 0,
        },
        AdmissionCase {
            name: "malformed/drop-oldest",
            backpressure: Backpressure::DropOldest,
            queue_capacity: 8,
            input: &[MALFORMED_NAN, MALFORMED_NEG, MALFORMED_SEG, VALID],
            queue_dropped: 0,
            rejected: 3,
            dropped_late: 0,
            admitted: 1,
            duplicates: 0,
        },
        AdmissionCase {
            name: "speed-ceiling/drop-newest",
            backpressure: Backpressure::DropNewest,
            queue_capacity: 8,
            input: &[TOO_FAST, ABSURD, INFINITE, AT_CEILING],
            queue_dropped: 0,
            rejected: 3,
            dropped_late: 0,
            admitted: 1,
            duplicates: 0,
        },
        AdmissionCase {
            name: "late/drop-newest",
            backpressure: Backpressure::DropNewest,
            queue_capacity: 8,
            input: &[FRESH, STALE],
            queue_dropped: 0,
            rejected: 0,
            dropped_late: 1,
            admitted: 1,
            duplicates: 0,
        },
        AdmissionCase {
            name: "late/drop-oldest",
            backpressure: Backpressure::DropOldest,
            queue_capacity: 8,
            input: &[FRESH, STALE],
            queue_dropped: 0,
            rejected: 0,
            dropped_late: 1,
            admitted: 1,
            duplicates: 0,
        },
        AdmissionCase {
            name: "duplicate/drop-newest",
            backpressure: Backpressure::DropNewest,
            queue_capacity: 8,
            input: &[VALID, DUP],
            queue_dropped: 0,
            rejected: 0,
            dropped_late: 0,
            admitted: 2,
            duplicates: 1,
        },
        AdmissionCase {
            name: "duplicate/drop-oldest",
            backpressure: Backpressure::DropOldest,
            queue_capacity: 8,
            input: &[VALID, DUP],
            queue_dropped: 0,
            rejected: 0,
            dropped_late: 0,
            admitted: 2,
            duplicates: 1,
        },
        AdmissionCase {
            name: "ring-slot-survives/duplicate",
            backpressure: Backpressure::DropNewest,
            queue_capacity: 8,
            input: &[RING_KEY, RING_KEEP, RING_KEY],
            queue_dropped: 0,
            rejected: 0,
            dropped_late: 0,
            admitted: 3,
            duplicates: 1,
        },
        AdmissionCase {
            name: "ring-slot-reused/late",
            backpressure: Backpressure::DropNewest,
            queue_capacity: 8,
            input: &[RING_KEY, RING_REUSE, RING_KEY],
            queue_dropped: 0,
            rejected: 0,
            dropped_late: 1,
            admitted: 2,
            duplicates: 0,
        },
        // Capacity 1 with [valid, malformed]: the policies disagree on
        // *which* report dies at the queue, and the survivor is counted
        // by classification — never twice, never zero times.
        AdmissionCase {
            name: "full-queue/drop-newest",
            backpressure: Backpressure::DropNewest,
            queue_capacity: 1,
            input: &[VALID, MALFORMED_NAN],
            queue_dropped: 1, // the malformed newcomer is refused unseen
            rejected: 0,
            dropped_late: 0,
            admitted: 1,
            duplicates: 0,
        },
        AdmissionCase {
            name: "full-queue/drop-oldest",
            backpressure: Backpressure::DropOldest,
            queue_capacity: 1,
            input: &[VALID, MALFORMED_NAN],
            queue_dropped: 1, // the valid report is evicted for the malformed one
            rejected: 1,
            dropped_late: 0,
            admitted: 0,
            duplicates: 0,
        },
    ];

    for case in &cases {
        let cfg = ServeConfig {
            queue_capacity: case.queue_capacity,
            backpressure: case.backpressure,
            ..serve_cfg(4, 1)
        };
        let mut service = ShardedService::new(cfg).unwrap();
        for &o in case.input {
            service.push(o);
        }
        service.tick();
        let s = service.stats();
        assert_eq!(s.queue_dropped, case.queue_dropped, "{}: queue_dropped", case.name);
        assert_eq!(s.rejected, case.rejected, "{}: rejected", case.name);
        assert_eq!(s.dropped_late, case.dropped_late, "{}: dropped_late", case.name);
        assert_eq!(s.admitted, case.admitted, "{}: admitted", case.name);
        assert_eq!(s.duplicates, case.duplicates, "{}: duplicates", case.name);
        assert_eq!(
            s.queue_dropped + s.rejected + s.dropped_late + s.admitted,
            case.input.len() as u64,
            "{}: every pushed report must be counted exactly once",
            case.name
        );
    }
}

#[test]
fn counters_conserve_every_report_exactly_once() {
    // Regression pin for the early-return paths in `admit`: a report
    // that trips one rule (malformed → late → duplicate, in that order)
    // bumps exactly one terminal counter. A mixed stream of all
    // classes, ticked in small chunks under a tight queue, must satisfy
    //   pushed == queue_dropped + rejected + dropped_late + admitted
    // with duplicates ≤ admitted (a sub-count, not a terminal state).
    let cfg = ServeConfig {
        queue_capacity: 8,
        backpressure: Backpressure::DropOldest,
        ..serve_cfg(4, 1)
    };
    let mut service = ShardedService::new(cfg).unwrap();
    let mut pushed = 0u64;
    for round in 0..40u64 {
        let ts = round * SLOT_LEN + 5;
        let batch = [
            Observation { vehicle: round, timestamp_s: ts, segment: 0, speed_kmh: 30.0 },
            // Same key re-delivered: duplicate.
            Observation { vehicle: round, timestamp_s: ts, segment: 0, speed_kmh: 31.0 },
            // Malformed in each of the three ways, alternating.
            Observation {
                vehicle: 500,
                timestamp_s: ts,
                segment: if round % 3 == 0 { 99 } else { 1 },
                speed_kmh: match round % 3 {
                    1 => f64::NAN,
                    2 => -5.0,
                    _ => 30.0,
                },
            },
            // Slot 0 is evicted once the clock passes the window.
            Observation { vehicle: 600, timestamp_s: 0, segment: 2, speed_kmh: 20.0 },
        ];
        for o in batch {
            service.push(o);
            pushed += 1;
        }
        if round % 2 == 0 {
            service.tick();
        }
    }
    service.tick();
    let s = service.stats();
    assert!(s.rejected > 0 && s.dropped_late > 0 && s.duplicates > 0, "stream must mix classes");
    assert_eq!(
        s.queue_dropped + s.rejected + s.dropped_late + s.admitted,
        pushed,
        "conservation violated: some report was double- or zero-counted {s:?}"
    );
    assert!(s.duplicates <= s.admitted, "duplicates is a sub-count of admitted");
}

#[test]
fn estimate_matches_window_average_where_fully_observed() {
    // Sanity: a fully observed window cell is reproduced closely by the
    // completion (the estimate is a low-rank fit, not interpolation, so
    // allow fit error).
    let mut service = ShardedService::new(serve_cfg(4, 1)).unwrap();
    for slot in 0..4u64 {
        for seg in 0..SEGMENTS {
            service.push(Observation {
                vehicle: seg as u64,
                timestamp_s: slot * SLOT_LEN,
                segment: seg,
                speed_kmh: 40.0,
            });
        }
    }
    service.tick();
    let live = service.latest().unwrap();
    for v in live.estimate.as_slice() {
        // λ-regularized least squares shrinks slightly below the data.
        assert!((v - 40.0).abs() < 0.05, "constant traffic must complete to itself: {v}");
    }
    assert_eq!(live.latest_row().len(), SEGMENTS);
}

#[test]
fn incremental_path_is_used_and_thread_invariant() {
    // Once the cold start primes the estimator, every solve of a
    // small-chunk replay is one warm pass — window slides included —
    // and, like every other solve path, it produces bit-identical
    // estimates at any thread count. This window is below the work gate,
    // so the pass runs inline here; the online unit tests pin its parity
    // on a window big enough to start workers.
    let observations = synth_observations(24);
    let mut baseline: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 8] {
        let service = replay(serve_cfg(12, threads), &observations, 3);
        let st = service.solve_stats();
        assert!(st.incremental_solves > 0, "threads={threads}: warm pass never engaged {st:?}");
        assert_eq!(st.full_solves, 1, "threads={threads}: only the cold start sweeps {st:?}");
        // A pass re-solves every unit: 12 slots plus the segments.
        assert_eq!(st.rows_resolved, st.incremental_solves * (12 + SEGMENTS) as u64, "{st:?}");
        let live = service.latest().expect("replay produced an estimate");
        let bits: Vec<u64> = live.estimate.as_slice().iter().map(|v| v.to_bits()).collect();
        match &baseline {
            None => baseline = Some(bits),
            Some(b) => assert_eq!(b, &bits, "threads={threads}: estimate diverged"),
        }
    }
}

#[test]
fn solve_modes_agree_after_cold_restart_correction() {
    // A full-sweep-only service and an incremental one replaying the
    // same stream must hold bit-identical window content, and converge
    // to bit-identical estimates after the cold_restart + refresh
    // correction — the invariant the chaos differential harness checks
    // across modes.
    let observations = synth_observations(20);
    let full_only = ServeConfig { incremental: false, ..serve_cfg(8, 1) };
    let mut a = replay(full_only, &observations, 2);
    let mut b = replay(serve_cfg(8, 1), &observations, 2);
    assert_eq!(a.solve_stats().incremental_solves, 0, "incremental=false disables the delta path");
    assert!(b.solve_stats().incremental_solves > 0, "{:?}", b.solve_stats());
    let (wa, wb) = (a.window_snapshot(), b.window_snapshot());
    assert_eq!(
        bits(wa.values()),
        bits(wb.values()),
        "window content must not depend on solve mode"
    );
    assert_eq!(
        bits(wa.indicator()),
        bits(wb.indicator()),
        "window cells must not depend on solve mode"
    );
    a.cold_restart().unwrap();
    b.cold_restart().unwrap();
    let ra = a.refresh();
    let rb = b.refresh();
    assert!(ra.solved && rb.solved);
    assert_eq!(
        a.latest().unwrap().estimate.as_slice(),
        b.latest().unwrap().estimate.as_slice(),
        "post-correction estimates must agree bit for bit"
    );
}

#[test]
fn failed_or_non_finite_warm_pass_leaves_the_stale_estimate_untouched() {
    // λ = 0, so a unit with fewer observations than the rank is a
    // singular ridge system. Every cell of the first four slots is
    // observed, so the cold full solve succeeds and primes the warm pass.
    let cfg = ServeConfig::builder()
        .slot_len_s(SLOT_LEN)
        .window_slots(4)
        .num_segments(6)
        .cs(CsConfig { rank: 2, lambda: 0.0, num_threads: 1, ..CsConfig::default() })
        .build()
        .unwrap();
    let warm = || {
        let mut s = ShardedService::new(cfg.clone()).unwrap();
        for slot in 0..4u64 {
            for seg in 0..6usize {
                s.push(Observation {
                    vehicle: seg as u64,
                    timestamp_s: slot * SLOT_LEN,
                    segment: seg,
                    speed_kmh: 30.0 + (slot * 6 + seg as u64) as f64,
                });
            }
        }
        let report = s.tick();
        assert!(report.solved && !report.degraded, "{report:?}");
        s
    };
    let served = |s: &ShardedService| {
        let live = s.latest().unwrap();
        (live.head_slot, live.estimate.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
    };
    // (a) One report a slot past the head slides the window; the new
    // row holds one observation, so the pass's L step fails.
    let mut s = warm();
    let before = served(&s);
    s.push(Observation { vehicle: 9, timestamp_s: 4 * SLOT_LEN, segment: 2, speed_kmh: 41.0 });
    let report = s.tick();
    assert!(!report.solved && report.degraded, "{report:?}");
    assert!(s.latest().unwrap().stale);
    assert_eq!(served(&s), before, "a failed pass moved or rewrote the stale estimate");
    // (b) Two 1e308 km/h reports on one cell would overflow its sum to
    // infinity; admission rejects both (above `MAX_SPEED_KMH`), so the
    // tick neither solves nor degrades and the live estimate stays
    // fresh and bit-identical. (The online unit test
    // `non_finite_warm_pass_leaves_estimate_and_factors_untouched`
    // drives such a cell into a window directly.)
    let mut s = warm();
    let before = served(&s);
    for vehicle in [7, 8] {
        s.push(Observation { vehicle, timestamp_s: 3 * SLOT_LEN, segment: 4, speed_kmh: 1e308 });
    }
    let report = s.tick();
    assert_eq!((report.rejected, report.admitted), (2, 0), "{report:?}");
    assert!(!report.solved && !report.degraded, "{report:?}");
    assert!(!s.latest().unwrap().stale);
    assert_eq!(served(&s), before, "rejected reports changed the live estimate");
}

#[test]
fn a_slide_that_empties_the_window_degrades_instead_of_passing() {
    // Every report lands in slot 0 of a 4-slot window, and the cold
    // solve primes the warm pass. Sliding the head one slot evicts
    // slot 0 and leaves the window empty but within a window of the
    // last estimate: the warm pass must not run (it would publish an
    // all-zero estimate as fresh). The full path fails on the empty
    // window, so the tick degrades and the last good estimate keeps
    // answering, flagged stale.
    let mut service = ShardedService::new(serve_cfg(4, 1)).unwrap();
    for seg in 0..SEGMENTS {
        for probe in 0..3u64 {
            service.push(Observation {
                vehicle: 100 * probe + seg as u64,
                timestamp_s: 7 + probe,
                segment: seg,
                speed_kmh: 30.0 + seg as f64 + probe as f64,
            });
        }
    }
    assert!(service.tick().solved);
    let good = service.latest().unwrap().clone();
    assert!(!good.stale);
    assert_eq!(good.head_slot, 3);
    let solves = service.stats().solves;

    service.advance_clock(4 * SLOT_LEN);
    let report = service.tick();
    assert!(report.degraded && !report.solved, "{report:?}");
    let live = service.latest().unwrap();
    assert!(live.stale, "a degraded tick must flag the estimate stale");
    assert_eq!(live.head_slot, good.head_slot);
    assert_eq!(bits(&live.estimate), bits(&good.estimate), "the last good estimate was rewritten");
    assert_eq!(service.stats().solves, solves, "an empty window counted as a solve");
}

/// SplitMix64 step: the long-horizon stream's only randomness.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a hash of `key`.
fn unit(key: u64) -> f64 {
    (mix(key) >> 11) as f64 / (1u64 << 53) as f64
}

#[test]
fn delta_passes_do_not_drift_over_two_simulated_days() {
    // Without a periodic correction sweep, every solve after the cold
    // start is one warm pass. Over 48 simulated hours of a seeded rank-3
    // daily pattern at ~20% coverage, its error on never-observed cells
    // must track a full-sweep-every-solve reference day by day, and the
    // gap must not grow.
    const SLOT: u64 = 900;
    const SLOTS_PER_DAY: usize = 96;
    const DAYS: usize = 2;
    const TICKS_PER_SLOT: u64 = 3;
    const WINDOW: usize = 16;
    const SEGS: usize = 32;
    let seg_coef = |j: usize, k: u64| unit(((j as u64) << 8) | k);
    let truth = |slot: usize, j: usize| {
        let phase = 2.0 * std::f64::consts::PI * slot as f64 / SLOTS_PER_DAY as f64;
        let free_flow = 30.0 + 30.0 * seg_coef(j, 0);
        let congestion =
            0.3 * seg_coef(j, 1) * (1.0 + phase.sin()) + 0.2 * seg_coef(j, 2) * phase.cos();
        free_flow * (1.0 - congestion)
    };
    let cfg = |incremental| ServeConfig {
        slot_len_s: SLOT,
        window_slots: WINDOW,
        num_segments: SEGS,
        cs: CsConfig { rank: 3, lambda: 1.0, num_threads: 1, ..CsConfig::default() },
        queue_capacity: 10_000,
        incremental,
        ..ServeConfig::default()
    };
    let mut services =
        [ShardedService::new(cfg(true)).unwrap(), ShardedService::new(cfg(false)).unwrap()];
    // Per service and day: Σ|estimate − truth| and Σ|truth| over the
    // window cells the stream never reported into, scored once each
    // slot is complete.
    let mut err = [[(0.0f64, 0.0f64); DAYS]; 2];
    for slot in 0..SLOTS_PER_DAY * DAYS {
        for tick in 0..TICKS_PER_SLOT {
            let key = |j: usize| ((slot as u64) << 16) | (j as u64) << 2 | tick;
            let batch: Vec<Observation> = (0..SEGS)
                .filter(|&j| unit(key(j)) < 0.07)
                .map(|j| Observation {
                    vehicle: key(j),
                    timestamp_s: slot as u64 * SLOT + tick * SLOT / TICKS_PER_SLOT,
                    segment: j,
                    speed_kmh: truth(slot, j) * (0.95 + 0.1 * unit(!key(j))),
                })
                .collect();
            for service in &mut services {
                for &o in &batch {
                    assert!(service.push(o));
                }
                assert!(!service.tick().degraded, "slot {slot}: every solve must succeed");
            }
        }
        if slot + 1 < WINDOW {
            continue;
        }
        let tail = slot + 1 - WINDOW;
        for (service, err) in services.iter().zip(&mut err) {
            let window = service.window_snapshot();
            let estimate = &service.latest().unwrap().estimate;
            let (num, den) = &mut err[slot / SLOTS_PER_DAY];
            for i in 0..WINDOW {
                for j in (0..SEGS).filter(|&j| window.indicator().get(i, j) == 0.0) {
                    let want = truth(tail + i, j);
                    *num += (estimate.get(i, j) - want).abs();
                    *den += want;
                }
            }
        }
    }
    let (delta, full) = (services[0].solve_stats(), services[1].solve_stats());
    assert_eq!(delta.full_solves, 1, "only the cold start sweeps: {delta:?}");
    assert_eq!(delta.incremental_solves + 1, services[0].stats().solves, "{delta:?}");
    assert_eq!(full.incremental_solves, 0, "{full:?}");
    let nmae = |(num, den): (f64, f64)| num / den;
    let ratios: Vec<f64> = (0..DAYS).map(|d| nmae(err[0][d]) / nmae(err[1][d])).collect();
    for (day, ratio) in ratios.iter().enumerate() {
        assert!(*ratio <= 1.05, "day {day}: delta-only NMAE is {ratio:.4}× the full sweep's");
    }
    assert!(ratios[1] <= ratios[0] + 0.01, "the delta-only error gap grows: {ratios:?}");
}

/// Runs `f` on its own thread and fails if it has not returned within
/// `limit`, so a stalled engine fails the test instead of hanging it.
/// A panic inside `f` is re-raised here.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            worker.join().expect("the worker sent its value, so it did not panic");
            value
        }
        Err(RecvTimeoutError::Timeout) => panic!("did not return within {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("no value means a panic"))
        }
    }
}

// 60 s slots keep the head slot near u64::MAX / 60, so `head_slot + 1`
// cannot overflow even in a debug build.

#[test]
fn far_future_report_ticks_promptly_and_is_admitted() {
    // One report at the end of the timestamp range evicts every slot at
    // once; it must not slide one slot at a time across ~3·10¹⁷ slots.
    let far = Observation { vehicle: 7, timestamp_s: u64::MAX - 1, segment: 2, speed_kmh: 33.0 };
    let (report, head, warm_window, fresh_window) = within(Duration::from_secs(20), move || {
        let mut warm = ShardedService::new(serve_cfg(4, 1)).unwrap();
        for &o in &synth_observations(6) {
            warm.push(o);
        }
        warm.tick();
        warm.push(far);
        let report = warm.tick();
        let mut fresh = ShardedService::new(serve_cfg(4, 1)).unwrap();
        fresh.push(far);
        fresh.tick();
        (report, warm.head_slot(), warm.window_snapshot(), fresh.window_snapshot())
    });
    assert_eq!(report.admitted, 1);
    assert_eq!(head, ((u64::MAX - 1) / SLOT_LEN) as usize);
    assert_eq!(
        bits(warm_window.values()),
        bits(fresh_window.values()),
        "every earlier cell must have left the window"
    );
    assert_eq!(bits(warm_window.indicator()), bits(fresh_window.indicator()));
}

#[test]
fn checkpoint_with_far_future_clock_restores_promptly() {
    // A corrupted `clock` line must not hang the restore either.
    const CLOCK: u64 = 18_446_744_073_709_551_000;
    let body = format!("cs-serve-checkpoint v1\nclock {CLOCK}\nhead_slot 3\nfactors none\n");
    let text =
        format!("cs-serve-shards v1\nshards 1 segments {SEGMENTS}\nshard 0 {}\n{body}", body.len());
    let restored = within(Duration::from_secs(20), move || {
        let mut service = ShardedService::new(serve_cfg(4, 1)).unwrap();
        for &o in &synth_observations(6) {
            service.push(o);
        }
        service.tick();
        service.restore(&text).map_err(|e| e.to_string())?;
        Ok::<_, String>((service.clock_s(), service.head_slot()))
    });
    assert_eq!(restored, Ok((CLOCK, (CLOCK / SLOT_LEN) as usize)));
}

/// The window a last-write-wins model predicts: per cell, the sum of
/// the model's speeds over their count, for the `slots` slots ending at
/// `head` (grid start `start_s`). Returns the values' and the
/// indicator's bits, row-major.
fn model_window(
    model: &HashMap<(u64, u64, usize), f64>,
    start_s: u64,
    head: usize,
    slots: usize,
    segments: usize,
) -> (Vec<u64>, Vec<u64>) {
    let tail = head + 1 - slots;
    let (mut sums, mut counts) = (vec![0.0; slots * segments], vec![0.0; slots * segments]);
    for (&(_, ts, seg), &speed) in model {
        let slot = ((ts - start_s) / SLOT_LEN) as usize;
        if (tail..=head).contains(&slot) {
            sums[(slot - tail) * segments + seg] += speed;
            counts[(slot - tail) * segments + seg] += 1.0;
        }
    }
    let values = sums.iter().zip(&counts).map(|(&s, &c)| if c > 0.0 { s / c } else { 0.0 });
    let indicator = counts.iter().map(|&c| if c > 0.0 { 1.0f64 } else { 0.0 });
    (values.map(f64::to_bits).collect(), indicator.map(f64::to_bits).collect())
}

#[test]
fn packed_dedup_keys_stay_distinct_at_slot_and_segment_edges() {
    // A dedup key packs a report's second within its slot with its
    // segment. Keys one second apart (a slot's first and last two
    // seconds, so the last second of one slot sits next to the first of
    // the next) and one segment apart (every segment, so every shard's
    // first and last) must stay distinct keys, and a re-delivery of
    // each must replace exactly its own speed. The grid starts off the
    // slot-length multiples. After the first four slots, four more
    // slide them out and reuse their ring slots' maps with the same
    // seconds and segments: those keys are new, not duplicates. Speeds
    // are whole numbers, so every cell's sum is exact in any order.
    const START: u64 = 30;
    const SEGS: usize = 8;
    const SLOTS: usize = 4;
    for shards in [1, 3] {
        let cfg = ServeConfig::builder()
            .start_s(START)
            .slot_len_s(SLOT_LEN)
            .window_slots(SLOTS)
            .num_segments(SEGS)
            .cs(cs_cfg(1))
            .queue_capacity(10_000)
            .shards(ShardPlan::with_count(shards))
            .build()
            .unwrap();
        let mut service = ShardedService::new(cfg).unwrap();
        if shards == 3 {
            let widths: Vec<usize> = (0..3).map(|s| service.shard_range(s).len()).collect();
            assert_eq!(widths, [3, 3, 2], "uneven ranges");
        }
        let mut model: HashMap<(u64, u64, usize), f64> = HashMap::new();
        let (mut admitted, mut duplicates) = (0u64, 0u64);
        for first_slot in [0, SLOTS as u64] {
            let mut keys = Vec::new();
            for slot in first_slot..first_slot + SLOTS as u64 {
                for offset in [0, 1, SLOT_LEN - 2, SLOT_LEN - 1] {
                    for segment in 0..SEGS {
                        for vehicle in [1u64, 2] {
                            keys.push((vehicle, START + slot * SLOT_LEN + offset, segment));
                        }
                    }
                }
            }
            for (round, base) in [(0, 20.0), (1, 60.0)] {
                for (i, &(vehicle, timestamp_s, segment)) in keys.iter().enumerate() {
                    let speed_kmh = base + (i % 37) as f64;
                    assert!(service.push(Observation { vehicle, timestamp_s, segment, speed_kmh }));
                    duplicates += u64::from(
                        model.insert((vehicle, timestamp_s, segment), speed_kmh).is_some(),
                    );
                    admitted += 1;
                }
                service.tick();
                let at = format!("{shards} shard(s), slots from {first_slot}, round {round}");
                let stats = service.stats();
                assert_eq!((stats.admitted, stats.duplicates), (admitted, duplicates), "{at}");
                assert_eq!((stats.rejected, stats.dropped_late), (0, 0), "{at}");
                let head = service.head_slot();
                assert_eq!(head, first_slot as usize + SLOTS - 1, "{at}");
                let (values, indicator) = model_window(&model, START, head, SLOTS, SEGS);
                let window = service.window_snapshot();
                assert_eq!(bits(window.values()), values, "{at}: window values");
                assert_eq!(bits(window.indicator()), indicator, "{at}: window indicator");
            }
        }
        assert_eq!(duplicates, 2 * 4 * 4 * SEGS as u64 * 2, "one re-delivery per key");
    }
}

#[test]
fn slot_length_times_segments_must_fit_in_u64() {
    // The dedup key packs a second within its slot with a segment, so
    // `slot_len_s × num_segments` must fit in u64. u64::MAX is exactly
    // 3 × (u64::MAX / 3): the largest product that fits.
    let fits = u64::MAX / 3;
    assert_eq!(fits * 3, u64::MAX);
    let cfg = |slot_len_s| {
        ServeConfig::builder()
            .slot_len_s(slot_len_s)
            .window_slots(2)
            .num_segments(3)
            .cs(cs_cfg(1))
            .build()
    };
    let err = cfg(fits + 1).unwrap_err();
    assert_eq!(err.field, "slot_len_s", "{err}");
    // A struct literal is refused too, whatever the shard plan splits.
    let literal = ServeConfig {
        slot_len_s: fits + 1,
        num_segments: 3,
        shards: ShardPlan::with_count(3),
        ..ServeConfig::default()
    };
    assert!(
        matches!(ShardedService::new(literal), Err(Error::Config(ref e)) if e.field == "slot_len_s")
    );
    // The largest product builds, and its slot's last second on its
    // last segment is a key of its own.
    let mut service = ShardedService::new(cfg(fits).unwrap()).unwrap();
    let last = fits - 1;
    for (timestamp_s, segment, speed_kmh) in
        [(0, 0, 30.0), (last, 2, 31.0), (last, 1, 32.0), (last - 1, 2, 33.0), (last, 2, 34.0)]
    {
        assert!(service.push(Observation { vehicle: 1, timestamp_s, segment, speed_kmh }));
    }
    let report = service.tick();
    assert_eq!((report.admitted, report.duplicates), (5, 1), "{report:?}");
    let window = service.window_snapshot();
    assert_eq!(window.get(0, 2), Some((33.0 + 34.0) / 2.0));
    assert_eq!(window.get(0, 1), Some(32.0));
}
