//! Golden `cs-wire/v1` bytes.
//!
//! The round-trip properties in `roundtrip.rs` hold for any layout that
//! the encoder and the decoder share, so a change to the layout on both
//! sides would pass them. These tests pin the bytes themselves: small
//! messages are written out field by field, and a full-size 8 × 16,384
//! estimate is pinned by its length and a 64-bit FNV-1a checksum.

use proto::{Request, Response, WireEstimate, WireReport, WireStats};

/// Encodes, compares with the golden bytes, and decodes back.
fn check_response(msg: Response, golden: &[u8]) {
    assert_eq!(msg.encode(), golden, "encoding of {msg:?}");
    assert_eq!(Response::decode(golden).expect("golden bytes decode"), msg);
}

fn check_request(msg: Request, golden: &[u8]) {
    assert_eq!(msg.encode(), golden, "encoding of {msg:?}");
    assert_eq!(Request::decode(golden).expect("golden bytes decode"), msg);
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn absent_estimate_bytes() {
    check_response(Response::Estimate(None), &[0x83, 0x00]);
}

#[test]
fn small_estimate_bytes() {
    let msg = Response::Estimate(Some(WireEstimate {
        head_slot: 9,
        solved_at_s: 8100,
        stale: true,
        sweeps: 4,
        objective_bits: 1.25f64.to_bits(),
        rows: 2,
        cols: 3,
        values_bits: vec![
            1.0f64.to_bits(),
            (-0.0f64).to_bits(),
            0x7ff8_0000_dead_beef, // quiet NaN with a payload
            0x7ff0_0000_0000_0001, // signalling NaN
            f64::INFINITY.to_bits(),
            (-2.5f64).to_bits(),
        ],
    }));
    #[rustfmt::skip]
    let golden = [
        0x83,                                           // tag: Estimate
        0x01,                                           // present
        0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // head_slot 9
        0xa4, 0x1f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // solved_at_s 8100
        0x01,                                           // stale
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // sweeps 4
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf4, 0x3f, // objective 1.25
        0x02, 0x00, 0x00, 0x00,                         // rows 2
        0x03, 0x00, 0x00, 0x00,                         // cols 3
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // 1.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // -0.0
        0xef, 0xbe, 0xad, 0xde, 0x00, 0x00, 0xf8, 0x7f, // NaN payload
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x7f, // signalling NaN
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x7f, // +inf
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xc0, // -2.5
    ];
    check_response(msg, &golden);
}

#[test]
fn report_batch_bytes() {
    let msg = Request::ReportBatch(vec![
        WireReport::new(7, 3600, 4, 52.5),
        WireReport {
            vehicle: u64::MAX,
            timestamp_s: 0x0102_0304_0506_0708,
            segment: 16_383,
            speed_bits: 0xfff8_0000_0000_0001,
        },
    ]);
    #[rustfmt::skip]
    let golden = [
        0x03,                                           // tag: ReportBatch
        0x02, 0x00, 0x00, 0x00,                         // count 2
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // vehicle 7
        0x10, 0x0e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // timestamp_s 3600
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // segment 4
        0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x4a, 0x40, // speed 52.5
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // vehicle u64::MAX
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // timestamp_s
        0xff, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // segment 16,383
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0xff, // speed: negative NaN
    ];
    check_request(msg, &golden);
}

#[test]
fn synced_bytes() {
    let msg = Response::Synced {
        pushed: 12,
        tick_us: 800,
        solve_us: 640,
        stats: WireStats {
            admitted: 5,
            rejected: 1,
            dropped_late: 2,
            duplicates: 3,
            queue_dropped: 0,
            solves: 256,
            degraded: 0x0102_0304,
        },
    };
    #[rustfmt::skip]
    let golden = [
        0x86,                                           // tag: Synced
        0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // pushed 12
        0x20, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // tick_us 800
        0x80, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // solve_us 640
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // admitted 5
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // rejected 1
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // dropped_late 2
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // duplicates 3
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // queue_dropped 0
        0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // solves 256
        0x04, 0x03, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00, // degraded
    ];
    check_response(msg, &golden);
}

/// The `wire-mixed` benchmark's estimate shape: 8 slots × 16,384
/// segments, every cell a distinct bit pattern (NaN payloads included).
#[test]
fn full_size_estimate_checksum() {
    const ROWS: u32 = 8;
    const COLS: u32 = 16_384;
    // SplitMix64 of the cell index: every byte lane varies.
    let values_bits = (0..u64::from(ROWS * COLS))
        .map(|i| {
            let mut z = i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect();
    let msg = Response::Estimate(Some(WireEstimate {
        head_slot: 1_000_003,
        solved_at_s: 900 * 1_000_003 + 899,
        stale: false,
        sweeps: 10,
        objective_bits: 0.5f64.to_bits(),
        rows: ROWS,
        cols: COLS,
        values_bits,
    }));
    let bytes = msg.encode();
    assert_eq!(bytes.len(), 1_048_619);
    assert_eq!(fnv1a(&bytes), 0x519f_8fde_ebaa_67ad, "checksum of the 8 × 16,384 estimate");
    assert_eq!(Response::decode(&bytes).expect("decodes"), msg);
}
