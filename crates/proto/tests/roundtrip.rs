//! Property suite for the `cs-wire/v1` codec.
//!
//! Two obligations, per the protocol contract:
//!
//! 1. **Canonical round-trip** — an arbitrary well-formed message
//!    encodes to bytes that decode back to an equal message, and
//!    re-encoding those decoded messages reproduces the bytes
//!    identically. (Floats travel as bit patterns, so NaN payloads are
//!    covered, not special-cased.)
//! 2. **Totality** — truncating or corrupting any encoded frame yields
//!    a typed [`DecodeError`], never a panic. The decoders run over
//!    fully arbitrary byte soup too.
//!
//! Estimates include shapes with a zero dimension and rows of up to 64
//! cells, so the codec's bulk passes meet empty and odd-length tails,
//! and the borrowed `&[f64]` entry point must produce the owned
//! encoding's bytes.

use proptest::collection::vec;
use proptest::prelude::*;

use proto::{
    DecodeError, ErrorCode, EstimateHeader, Request, Response, WireEstimate, WireReport, WireStats,
};

const FULL_U64: std::ops::RangeInclusive<u64> = 0..=u64::MAX;

fn report_strategy() -> impl Strategy<Value = WireReport> {
    (FULL_U64, FULL_U64, FULL_U64, FULL_U64).prop_map(
        |(vehicle, timestamp_s, segment, speed_bits)| WireReport {
            vehicle,
            timestamp_s,
            segment,
            speed_bits,
        },
    )
}

fn stats_strategy() -> impl Strategy<Value = WireStats> {
    (FULL_U64, FULL_U64, FULL_U64, FULL_U64, FULL_U64, FULL_U64, FULL_U64).prop_map(
        |(admitted, rejected, dropped_late, duplicates, queue_dropped, solves, degraded)| {
            WireStats {
                admitted,
                rejected,
                dropped_late,
                duplicates,
                queue_dropped,
                solves,
                degraded,
            }
        },
    )
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (0usize..8, report_strategy(), vec(report_strategy(), 0..5), 0u16..=u16::MAX).prop_map(
        |(pick, one, batch, version)| match pick {
            0 => Request::Hello { version },
            1 => Request::Report(one),
            2 => Request::ReportBatch(batch),
            3 => Request::QueryEstimate,
            4 => Request::QueryStats,
            5 => Request::QueryHealth,
            6 => Request::Sync,
            _ => Request::Shutdown,
        },
    )
}

fn estimate_strategy() -> impl Strategy<Value = WireEstimate> {
    (FULL_U64, FULL_U64, 0u8..=1, FULL_U64, FULL_U64, 0u32..5, 0u32..=64).prop_flat_map(
        |(head_slot, solved_at_s, stale, sweeps, objective_bits, rows, cols)| {
            vec(FULL_U64, (rows * cols) as usize).prop_map(move |values_bits| WireEstimate {
                head_slot,
                solved_at_s,
                stale: stale == 1,
                sweeps,
                objective_bits,
                rows,
                cols,
                values_bits,
            })
        },
    )
}

fn response_strategy() -> impl Strategy<Value = Response> {
    (
        0usize..8,
        estimate_strategy(),
        stats_strategy(),
        vec(stats_strategy(), 0..5),
        0u16..=u16::MAX,
        "[a-z ]{0,24}",
        0usize..5,
        (FULL_U64, FULL_U64, FULL_U64),
    )
        .prop_map(|(pick, est, merged, shards, version, message, code_pick, trip)| {
            let codes = [
                ErrorCode::ExpectedHello,
                ErrorCode::UnsupportedVersion,
                ErrorCode::BadRequest,
                ErrorCode::NotReady,
                ErrorCode::Internal,
            ];
            let (a, b, c) = trip;
            match pick {
                0 => Response::Hello { version },
                1 => Response::Error { code: codes[code_pick], message },
                2 => Response::Estimate(None),
                3 => Response::Estimate(Some(est)),
                4 => Response::Stats { merged, shards },
                5 => Response::Health {
                    ok: a % 2 == 0,
                    shards: (a >> 32) as u32,
                    segments: b,
                    queue_len: c,
                    clock_s: a ^ b,
                },
                6 => Response::Synced { pushed: a, tick_us: b, solve_us: c, stats: merged },
                _ => Response::Bye,
            }
        })
}

proptest! {
    #[test]
    fn request_round_trip_is_byte_identical(req in request_strategy()) {
        let bytes = req.encode();
        let decoded = Request::decode(&bytes).expect("well-formed request must decode");
        prop_assert_eq!(&decoded, &req);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn response_round_trip_is_byte_identical(resp in response_strategy()) {
        let bytes = resp.encode();
        let decoded = Response::decode(&bytes).expect("well-formed response must decode");
        prop_assert_eq!(&decoded, &resp);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn truncated_requests_fail_typed(req in request_strategy(), frac in 0.0f64..1.0) {
        let bytes = req.encode();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        match Request::decode(&bytes[..cut]) {
            // Every strict prefix must fail: the codec has no optional
            // trailing fields.
            Err(
                DecodeError::Empty
                | DecodeError::Truncated { .. }
                | DecodeError::UnknownTag(_)
            ) => {}
            Ok(msg) => return Err(TestCaseError::Fail(format!(
                "prefix of {cut}/{} bytes decoded as {msg:?}", bytes.len()
            ))),
            Err(other) => return Err(TestCaseError::Fail(format!(
                "unexpected error class for truncation: {other:?}"
            ))),
        }
    }

    #[test]
    fn truncated_responses_fail_typed(resp in response_strategy()) {
        let bytes = resp.encode();
        for cut in 0..bytes.len() {
            match Response::decode(&bytes[..cut]) {
                // Every strict prefix must fail: the codec has no
                // optional trailing fields.
                Err(
                    DecodeError::Empty
                    | DecodeError::Truncated { .. }
                    | DecodeError::UnknownTag(_)
                ) => {}
                Ok(msg) => return Err(TestCaseError::Fail(format!(
                    "prefix of {cut}/{} bytes decoded as {msg:?}", bytes.len()
                ))),
                Err(other) => return Err(TestCaseError::Fail(format!(
                    "unexpected error class for truncation at {cut}: {other:?}"
                ))),
            }
        }
    }

    #[test]
    fn borrowed_estimate_encoding_matches_the_owned_one(est in estimate_strategy()) {
        let header = EstimateHeader {
            head_slot: est.head_slot,
            solved_at_s: est.solved_at_s,
            stale: est.stale,
            sweeps: est.sweeps,
            objective_bits: est.objective_bits,
            rows: est.rows,
            cols: est.cols,
        };
        let values: Vec<f64> = est.values_bits.iter().map(|&b| f64::from_bits(b)).collect();
        let borrowed = Response::encode_estimate(&header, &values);
        prop_assert_eq!(borrowed, Response::Estimate(Some(est)).encode());
    }

    #[test]
    fn corrupted_responses_never_panic(
        resp in response_strategy(),
        flip_at in 0usize..4096,
        flip_mask in 1u8..=u8::MAX,
        extra in vec(0u8..=u8::MAX, 0..9),
    ) {
        let mut bytes = resp.encode();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= flip_mask;
        bytes.extend_from_slice(&extra);
        // Any outcome is fine except a panic; if it decodes, the result
        // must still re-encode canonically (no aliased encodings that
        // round-trip to different bytes and a decode success).
        if let Ok(decoded) = Response::decode(&bytes) {
            prop_assert_eq!(decoded.encode(), bytes);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(soup in vec(0u8..=u8::MAX, 0..64)) {
        let _ = Request::decode(&soup);
        let _ = Response::decode(&soup);
    }
}
