//! Property tests of the checkpoint text format, in one-shard containers.
//!
//! The checkpoint contract is stronger than "restore works": factor
//! entries are `f64::to_bits` hex words, so *any* bit pattern — values
//! the solver would never produce included — must survive
//! save → restore → save byte-for-byte, and any truncation of the text
//! must either be rejected outright or restore the complete state. These
//! properties are what the chaos harness's checkpoint faults lean on.

use proptest::prelude::*;
use traffic_cs::cs::CsConfig;
use traffic_cs::service::ServeConfig;
use traffic_cs::ShardedService;

const SLOT_LEN: u64 = 60;
const WINDOW: usize = 4;
const RANK: usize = 2;

/// A one-shard engine over `segments` segments. A checkpoint restores
/// only into one with as many segments as its factor matrix has rows.
fn service(segments: usize) -> ShardedService {
    let cfg = ServeConfig::builder()
        .slot_len_s(SLOT_LEN)
        .window_slots(WINDOW)
        .num_segments(segments)
        .cs(CsConfig { rank: RANK, lambda: 0.1, ..CsConfig::default() })
        .build()
        .unwrap();
    ShardedService::new(cfg).unwrap()
}

/// Builds checkpoint text exactly as `ShardedService::checkpoint` would
/// for the given clock and factor rows, so a restore → checkpoint round
/// trip can be compared byte-for-byte. `head_slot` is derived the same
/// way the engine derives it: `max(window - 1, clock / slot_len)`.
fn checkpoint_text(clock: u64, rows: &[[u64; RANK]]) -> String {
    let head = (WINDOW as u64 - 1).max(clock / SLOT_LEN);
    let mut out = format!("cs-serve-checkpoint v1\nclock {clock}\nhead_slot {head}\n");
    out.push_str(&format!("factors {} {RANK}\n", rows.len()));
    for row in rows {
        let words: Vec<String> = row.iter().map(|b| format!("{b:016x}")).collect();
        out.push_str(&words.join(" "));
        out.push('\n');
    }
    container(rows.len(), &out)
}

/// Wraps one shard's section in the one-shard container.
fn container(segments: usize, section: &str) -> String {
    let len = section.len();
    format!("cs-serve-shards v1\nshards 1 segments {segments}\nshard 0 {len}\n{section}")
}

/// Strategy: one f64 bit pattern, biased toward the extremes the format
/// must preserve exactly (subnormals, infinities, NaN payloads, -0.0,
/// the largest finite value) but also covering arbitrary raw bits.
fn bit_pattern() -> impl Strategy<Value = u64> {
    (0u64..u64::MAX, 0u8..8).prop_map(|(raw, tag)| match tag {
        0 => 0x0000_0000_0000_0001, // smallest positive subnormal
        1 => 0x000f_ffff_ffff_ffff, // largest subnormal
        2 => f64::INFINITY.to_bits(),
        3 => f64::NEG_INFINITY.to_bits(),
        4 => 0x7ff8_0000_0000_0000 | (raw & 0x0007_ffff_ffff_ffff), // NaN, arbitrary payload
        5 => (-0.0f64).to_bits(),
        6 => f64::MAX.to_bits(),
        _ => raw,
    })
}

fn factor_rows() -> impl Strategy<Value = Vec<[u64; RANK]>> {
    proptest::collection::vec((bit_pattern(), bit_pattern()).prop_map(|(a, b)| [a, b]), 1..8usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any factor bit patterns — subnormal, infinite, NaN with payload —
    /// survive restore → checkpoint byte-for-byte.
    #[test]
    fn round_trip_is_byte_identical(clock in 0u64..100_000, rows in factor_rows()) {
        let text = checkpoint_text(clock, &rows);
        let mut svc = service(rows.len());
        svc.restore(&text).unwrap();
        prop_assert_eq!(svc.checkpoint(), text);
        prop_assert_eq!(svc.clock_s(), clock);
    }

    /// Truncation at any byte either fails loudly or restores the full
    /// state (the section's byte count refuses every strict prefix).
    #[test]
    fn truncation_is_detected_or_harmless(
        clock in 0u64..100_000,
        rows in factor_rows(),
        cut_frac in 0.0f64..1.0,
    ) {
        let text = checkpoint_text(clock, &rows);
        // Map the fraction onto a byte offset; the text is pure ASCII so
        // every offset is a char boundary.
        let cut = ((text.len() as f64) * cut_frac) as usize;
        let mut svc = service(rows.len());
        match svc.restore(&text[..cut.min(text.len())]) {
            // The only prefixes allowed to restore are ones encoding the
            // complete state — re-checkpointing must reproduce the whole
            // original text, never a shifted or partial factor matrix.
            Ok(()) => prop_assert_eq!(svc.checkpoint(), text),
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(msg.contains("checkpoint"), "unexpected error class: {}", msg);
            }
        }
    }
}

#[test]
fn every_special_value_round_trips_and_the_service_stays_alive() {
    // One row per special, pinned explicitly (the property test above
    // reaches these probabilistically; this is the deterministic record).
    let specials = [
        [1.0f64.to_bits(), f64::MIN_POSITIVE.to_bits()],
        [0x0000_0000_0000_0001, 0x000f_ffff_ffff_ffff], // subnormal extremes
        [f64::INFINITY.to_bits(), f64::NEG_INFINITY.to_bits()],
        [0x7ff8_0000_0000_dead, 0xfff8_0000_0000_beef], // NaN payloads, both signs
        [(-0.0f64).to_bits(), f64::MAX.to_bits()],
    ];
    let text = checkpoint_text(120, &specials);
    let mut svc = service(specials.len());
    svc.restore(&text).unwrap();
    assert_eq!(svc.checkpoint(), text);

    // Poisoned warm factors must never panic, and never publish: the
    // service has as many segments as the matrix has rows, so the next
    // tick re-solves from them. NaN passes the Cholesky pivot check and
    // the solve goes non-finite, so that tick degrades and the service
    // drops the poison; the retry solves cold and publishes a finite,
    // fresh estimate.
    use traffic_cs::service::Observation;
    for seg in 0..3 {
        svc.push(Observation {
            vehicle: seg as u64,
            timestamp_s: 130,
            segment: seg,
            speed_kmh: 30.0,
        });
    }
    let poisoned = svc.tick();
    assert!(poisoned.degraded && !poisoned.solved, "{poisoned:?}");
    assert!(svc.latest().is_none(), "a non-finite solve must not publish");
    let retry = svc.refresh();
    assert!(retry.solved && !retry.degraded, "{retry:?}");
    let live = svc.latest().expect("the cold retry publishes");
    assert!(!live.stale);
    assert!(live.objective.is_finite());
    assert!(live.estimate.as_slice().iter().all(|v| v.is_finite()));
    assert_eq!(svc.stats().degraded, 1);
}

#[test]
fn head_slot_is_derived_from_clock_not_trusted() {
    // A checkpoint claiming an inconsistent head_slot restores from its
    // clock: the re-checkpointed head is max(window-1, clock/slot_len).
    // Pinning this documents why crafted texts must use the derived head
    // to round-trip byte-identically. (Same length, so the section's
    // byte count still holds.)
    let text = checkpoint_text(600, &[[1.0f64.to_bits(), 2.0f64.to_bits()]])
        .replace("head_slot 10", "head_slot 99");
    let mut svc = service(1);
    svc.restore(&text).unwrap();
    assert!(svc.checkpoint().contains("head_slot 10\n"));
}

#[test]
fn rank_mismatch_is_rejected_as_config_error() {
    // cols != configured rank: factors from another configuration must
    // not silently mis-seed the solver.
    let section = "cs-serve-checkpoint v1\nclock 0\nhead_slot 3\nfactors 2 3\n\
                   3ff0000000000000 3ff0000000000000 3ff0000000000000\n\
                   3ff0000000000000 3ff0000000000000 3ff0000000000000\n";
    let mut svc = service(2);
    let err = svc.restore(&container(2, section)).unwrap_err().to_string();
    assert!(err.contains("rank") || err.contains("warm_factors"), "got: {err}");
}
