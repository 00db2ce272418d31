//! Parity and semantics tests for [`ShardedService`].
//!
//! The two determinism contracts the engine must honor:
//!
//! 1. **Exact stitching** — the merged estimate of a multi-shard plan
//!    is, bit for bit, each range's one-shard engine side by side.
//! 2. **Thread-count invariance** — a multi-shard run produces
//!    byte-identical merged estimates whatever the worker count, since
//!    shards share no state.

use traffic_cs::cs::CsConfig;
use traffic_cs::service::{Observation, ServeConfig};
use traffic_cs::sharded::{ShardPlan, ShardedService};
use traffic_cs::{Error, ServeError};

const SLOT_LEN: u64 = 60;
const SEGMENTS: usize = 10;

/// Deterministic synthetic probe stream across all segment columns.
fn synth_observations(slots: usize) -> Vec<Observation> {
    let mut out = Vec::new();
    for slot in 0..slots {
        for seg in 0..SEGMENTS {
            for probe in 0..3u64 {
                let h = (slot as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add(seg as u64 * 97 + probe * 131);
                if h % 10 < 7 {
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

fn cfg(shards: usize) -> ServeConfig {
    ServeConfig::builder()
        .slot_len_s(SLOT_LEN)
        .window_slots(6)
        .num_segments(SEGMENTS)
        .cs(CsConfig { rank: 2, lambda: 0.1, num_threads: 1, ..CsConfig::default() })
        .queue_capacity(10_000)
        .shards(ShardPlan::with_count(shards))
        .build()
        .unwrap()
}

fn replay_sharded(
    config: ServeConfig,
    observations: &[Observation],
    chunk: usize,
) -> ShardedService {
    let mut service = ShardedService::new(config).unwrap();
    for batch in observations.chunks(chunk) {
        for &o in batch {
            assert!(service.push(o));
        }
        service.tick();
    }
    service
}

fn matrix_bits(m: &linalg::Matrix) -> Vec<u64> {
    (0..m.rows())
        .flat_map(|r| (0..m.cols()).map(move |c| (r, c)))
        .map(|(r, c)| m.get(r, c).to_bits())
        .collect()
}

#[test]
fn merged_estimate_stitches_per_shard_solves_exactly() {
    // Each shard solves its own column block independently; the merged
    // view must be exactly those blocks side by side, aligned on one
    // head slot, with nothing invented in between.
    let observations = synth_observations(12);
    let sharded = replay_sharded(cfg(4), &observations, 23);
    let merged = sharded.latest().expect("solved");
    assert_eq!(merged.estimate.rows(), 6);
    assert_eq!(merged.estimate.cols(), SEGMENTS);
    assert!(!merged.stale, "all shards carry data and share the head");

    // Reference: replay each shard's column range through a one-shard
    // engine over the same local stream, mimicking the clock sync the
    // sharded tick performs (advance to the global stream clock, then
    // re-solve if the window slid).
    for shard in 0..4 {
        let range = sharded.shard_range(shard);
        let local_cfg = ServeConfig { num_segments: range.len(), ..cfg(1) };
        let mut local = ShardedService::new(local_cfg).unwrap();
        let mut global_clock = 0u64;
        for batch in observations.chunks(23) {
            for &o in batch {
                global_clock = global_clock.max(o.timestamp_s);
                if range.contains(&o.segment) {
                    assert!(local.push(Observation { segment: o.segment - range.start, ..o }));
                }
            }
            local.tick();
            let before = local.head_slot();
            local.advance_clock(global_clock);
            if local.head_slot() != before && local.stats().admitted > 0 {
                local.tick();
            }
        }
        let est = local.latest().unwrap();
        assert_eq!(est.head_slot, merged.head_slot, "shard {shard} head");
        for r in 0..est.estimate.rows() {
            for j in 0..range.len() {
                assert_eq!(
                    est.estimate.get(r, j).to_bits(),
                    merged.estimate.get(r, range.start + j).to_bits(),
                    "shard {shard} cell ({r},{j})"
                );
            }
        }
    }
}

#[test]
fn multi_shard_run_is_thread_count_invariant() {
    let observations = synth_observations(12);
    let before = workpool::default_threads();
    workpool::set_default_threads(1);
    let seq = replay_sharded(cfg(4), &observations, 23);
    workpool::set_default_threads(4);
    let par = replay_sharded(cfg(4), &observations, 23);
    workpool::set_default_threads(before);
    assert_eq!(seq.stats(), par.stats());
    assert_eq!(
        matrix_bits(&seq.latest().unwrap().estimate),
        matrix_bits(&par.latest().unwrap().estimate)
    );
    let (ws, wp) = (seq.window_snapshot(), par.window_snapshot());
    assert_eq!(matrix_bits(ws.values()), matrix_bits(wp.values()));
    assert_eq!(matrix_bits(ws.indicator()), matrix_bits(wp.indicator()));
}

#[test]
fn counter_totals_are_plan_independent() {
    // Same stream, spiked with malformed and out-of-range reports: the
    // summed admission counters must not depend on the shard layout.
    // (`solves` legitimately does — each shard solves its own block.)
    let mut observations = synth_observations(10);
    for i in 0..18u64 {
        observations.push(Observation {
            vehicle: 900 + i,
            timestamp_s: 60 * (i % 10) + 3,
            segment: (SEGMENTS + (i as usize % 3)) % (SEGMENTS + 2), // some out of range
            speed_kmh: if i % 4 == 0 { f64::NAN } else { 44.0 },
        });
    }
    let one = replay_sharded(cfg(1), &observations, 31).stats();
    let four = replay_sharded(cfg(4), &observations, 31).stats();
    assert_eq!(
        (one.admitted, one.rejected, one.dropped_late, one.duplicates, one.queue_dropped),
        (four.admitted, four.rejected, four.dropped_late, four.duplicates, four.queue_dropped)
    );
    assert!(one.rejected > 0, "the spike must actually exercise rule-1 rejection");
}

#[test]
fn sharded_checkpoint_round_trips_and_validates() {
    let observations = synth_observations(12);
    let sharded = replay_sharded(cfg(4), &observations, 23);
    let text = sharded.checkpoint();
    assert!(text.starts_with("cs-serve-shards v1\nshards 4 segments 10\n"));

    let mut fresh = ShardedService::new(cfg(4)).unwrap();
    fresh.restore(&text).unwrap();
    assert_eq!(fresh.checkpoint(), text, "restore→checkpoint must be byte-identical");
    assert_eq!(fresh.clock_s(), sharded.clock_s());

    // Plan mismatch is a typed checkpoint error, not a mis-restore.
    let mut two = ShardedService::new(cfg(2)).unwrap();
    let err = two.restore(&text).unwrap_err();
    assert!(err.to_string().contains("checkpoint"), "got: {err}");

    // Truncated container bodies are refused.
    let cut = &text[..text.len() - 20];
    let mut fresh2 = ShardedService::new(cfg(4)).unwrap();
    assert!(fresh2.restore(cut).is_err());

    // Corrupt shard lengths are typed errors, never panics: one that
    // overflows the body offset, and one that ends inside a multi-byte
    // character.
    let header = "cs-serve-shards v1\nshards 4 segments 10\n";
    for corrupt in [
        format!("{header}shard 0 18446744073709551615\ncs-serve-checkpoint v1\n"),
        format!("{header}shard 0 1\n\u{e9}\n"),
    ] {
        let err = ShardedService::new(cfg(4)).unwrap().restore(&corrupt).unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{corrupt:?}: {err}");
    }
}

#[test]
fn bare_sections_are_refused_at_any_plan() {
    // The container is the one checkpoint format: a bare
    // `cs-serve-checkpoint v1` section, what a shard writes inside it,
    // is refused on its first line whatever the plan.
    let observations = synth_observations(12);
    for shards in [1, 4] {
        let text = replay_sharded(cfg(shards), &observations, 23).checkpoint();
        let body_start = text.find("cs-serve-checkpoint v1\n").expect("a section per shard");
        let bare = &text[body_start..];
        let err = ShardedService::new(cfg(shards)).unwrap().restore(bare).unwrap_err();
        assert!(
            matches!(err, Error::Serve(ServeError::Checkpoint { line: 1, .. })),
            "{shards} shards: {err}"
        );
    }
}

#[test]
fn section_errors_name_their_container_line_and_shard() {
    // Shard 3 of 4 over 10 segments owns 2 columns, so its section is
    // the container's lines 27–32, its last factor row on line 32.
    // Break the first hex word of that row, keeping its length (and so
    // the section's byte count).
    let text = replay_sharded(cfg(4), &synth_observations(12), 23).checkpoint();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert!(lines[25].starts_with("shard 3 ") && lines.len() == 32, "{text}");
    lines[31].replace_range(..2, "zz");
    let corrupt = lines.join("\n") + "\n";
    let err = ShardedService::new(cfg(4)).unwrap().restore(&corrupt).unwrap_err();
    assert_eq!(err.to_string(), "serve: bad checkpoint (line 32): shard 3: malformed hex word");
}

#[test]
fn lagging_shard_is_synced_to_the_global_clock() {
    // Feed only the first shard's columns far into the future: the
    // other shards' windows must still slide to the shared head, and
    // the merged estimate must stay aligned rather than mixing epochs.
    let mut service = ShardedService::new(cfg(4)).unwrap();
    let early = synth_observations(6);
    for &o in &early {
        service.push(o);
    }
    service.tick();
    let head_before = service.latest().unwrap().head_slot;

    // Far-future traffic on segment 0 only (shard 0).
    for probe in 0..6u64 {
        service.push(Observation {
            vehicle: 7000 + probe,
            timestamp_s: 40 * SLOT_LEN + probe,
            segment: 0,
            speed_kmh: 25.0 + probe as f64,
        });
    }
    service.tick();
    let merged = service.latest().unwrap();
    assert!(merged.head_slot > head_before);
    assert_eq!(service.clock_s(), 40 * SLOT_LEN + 5);
    // Every shard observed the slide: the snapshot is aligned on the
    // new head, so rows of evicted epochs are gone for all shards.
    let snap = service.window_snapshot();
    assert_eq!(snap.num_slots(), 6);
    assert_eq!(snap.num_segments(), SEGMENTS);
    // Only shard 0 has in-window observations now.
    for (_, col, _) in snap.observed_entries() {
        assert_eq!(col, 0, "stale columns must have been evicted by the sync");
    }
}

#[test]
fn a_shard_that_never_admitted_a_report_never_degrades() {
    // Two shards over 8 segments with a 4-slot window; only shard 0's
    // columns carry traffic. The clock sync slides shard 1's empty
    // window along, which must not make it solve (and fail) on that
    // tick or on any idle tick after it.
    let cfg = ServeConfig::builder()
        .slot_len_s(SLOT_LEN)
        .window_slots(4)
        .num_segments(8)
        .cs(CsConfig { rank: 2, lambda: 0.1, num_threads: 1, ..CsConfig::default() })
        .queue_capacity(10_000)
        .shards(ShardPlan::with_count(2))
        .build()
        .unwrap();
    let mut service = ShardedService::new(cfg).unwrap();
    assert_eq!(service.shard_range(0), 0..4);
    for slot in 0..8u64 {
        for k in 0..12u64 {
            service.push(Observation {
                vehicle: k,
                timestamp_s: slot * SLOT_LEN + k,
                segment: (k % 4) as usize,
                speed_kmh: 30.0 + (slot + k % 5) as f64,
            });
        }
        let report = service.tick();
        assert!(report.solved && !report.degraded, "slot {slot}: {report:?}");
    }
    for idle in 0..5 {
        let report = service.tick();
        assert!(!report.solved && !report.degraded, "idle tick {idle}: {report:?}");
    }
    let per_shard = service.stats_per_shard();
    assert_eq!((per_shard[1].admitted, per_shard[1].degraded), (0, 0), "{per_shard:?}");
    assert_eq!(per_shard[0].degraded, 0, "{per_shard:?}");
}
