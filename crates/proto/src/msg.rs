//! Typed `cs-wire/v1` messages and their canonical binary encoding.
//!
//! Every message has exactly one valid byte representation: a one-byte
//! tag followed by fixed-width little-endian fields (lengths are `u32`,
//! scalars `u64`, floats are IEEE-754 bit patterns carried as `u64` so
//! NaN payloads survive the wire bit-for-bit). Canonical encoding is
//! what makes the round-trip property testable — `decode(encode(m)) ==
//! m` *and* `encode(decode(b)) == b` — and what lets the chaos harness
//! hash byte streams instead of structures.
//!
//! Decoding never panics. Every malformed input maps to a
//! [`DecodeError`] variant: short buffers are [`DecodeError::Truncated`],
//! long ones [`DecodeError::Trailing`], unknown tags
//! [`DecodeError::UnknownTag`], and semantic violations (a batch count
//! that disagrees with the payload, a non-boolean flag byte)
//! [`DecodeError::BadValue`].

use std::fmt;

/// Human-readable protocol identifier, spoken in docs and error text.
pub const PROTOCOL: &str = "cs-wire/v1";

/// Numeric protocol version carried by the `Hello` handshake.
pub const VERSION: u16 = 1;

/// One probe report on the wire. Speeds travel as raw IEEE-754 bits so
/// the codec is total: every `u64` is encodable, NaN included, and
/// equality is bit equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireReport {
    /// Anonymized vehicle identifier.
    pub vehicle: u64,
    /// Report timestamp, seconds.
    pub timestamp_s: u64,
    /// Global road-segment column index.
    pub segment: u64,
    /// `f64::to_bits` of the speed in km/h.
    pub speed_bits: u64,
}

impl WireReport {
    /// Builds a report from a plain speed.
    pub fn new(vehicle: u64, timestamp_s: u64, segment: u64, speed_kmh: f64) -> Self {
        Self { vehicle, timestamp_s, segment, speed_bits: speed_kmh.to_bits() }
    }

    /// The speed as an `f64`.
    pub fn speed_kmh(&self) -> f64 {
        f64::from_bits(self.speed_bits)
    }
}

/// Admission counters as served over the wire (mirrors the service's
/// `ServeStats` field for field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Reports admitted into the window.
    pub admitted: u64,
    /// Malformed reports rejected.
    pub rejected: u64,
    /// Reports that arrived after their slot was evicted.
    pub dropped_late: u64,
    /// Exact re-deliveries (last write wins; also admitted).
    pub duplicates: u64,
    /// Reports refused by queue backpressure.
    pub queue_dropped: u64,
    /// Successful solves.
    pub solves: u64,
    /// Degraded ticks (solve failure or watchdog overrun).
    pub degraded: u64,
}

/// A merged live estimate on the wire: the window matrix as raw `f64`
/// bit patterns in row-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEstimate {
    /// Absolute slot index of the newest window row.
    pub head_slot: u64,
    /// Stream clock when the estimate was produced.
    pub solved_at_s: u64,
    /// Watchdog staleness / partial-merge flag.
    pub stale: bool,
    /// ALS sweeps the (slowest) solve ran.
    pub sweeps: u64,
    /// `f64::to_bits` of the summed solve objective.
    pub objective_bits: u64,
    /// Window rows (slots).
    pub rows: u32,
    /// Window columns (segments).
    pub cols: u32,
    /// `rows * cols` cell values, row-major, as `f64::to_bits`.
    pub values_bits: Vec<u64>,
}

/// Everything of an estimate response but its cells: the borrowed
/// entry point [`Response::encode_estimate`] takes these fields and the
/// cells as a `&[f64]`. The fields mean what [`WireEstimate`]'s do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimateHeader {
    /// Absolute slot index of the newest window row.
    pub head_slot: u64,
    /// Stream clock when the estimate was produced.
    pub solved_at_s: u64,
    /// Watchdog staleness / partial-merge flag.
    pub stale: bool,
    /// ALS sweeps the (slowest) solve ran.
    pub sweeps: u64,
    /// `f64::to_bits` of the summed solve objective.
    pub objective_bits: u64,
    /// Window rows (slots).
    pub rows: u32,
    /// Window columns (segments).
    pub cols: u32,
}

/// Wire error category, carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// First frame was not a `Hello`.
    ExpectedHello,
    /// The peer speaks a different `cs-wire` version.
    UnsupportedVersion,
    /// The request decoded but cannot be served (bad field values).
    BadRequest,
    /// The server has no estimate yet (distinct from an empty one).
    NotReady,
    /// Internal server failure.
    Internal,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::ExpectedHello => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::NotReady => 4,
            ErrorCode::Internal => 5,
        }
    }

    fn from_u16(v: u16) -> Result<Self, DecodeError> {
        Ok(match v {
            1 => ErrorCode::ExpectedHello,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::NotReady,
            5 => ErrorCode::Internal,
            _ => return Err(DecodeError::BadValue("unknown error code")),
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::ExpectedHello => "expected-hello",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::NotReady => "not-ready",
            ErrorCode::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Version handshake; must be the first frame on every connection.
    Hello {
        /// The client's `cs-wire` version (see [`VERSION`]).
        version: u16,
    },
    /// One probe report (ingest plane, pipelined — no response).
    Report(WireReport),
    /// A batch of probe reports (ingest plane, pipelined — no response).
    ReportBatch(Vec<WireReport>),
    /// Read the merged live estimate (query plane).
    QueryEstimate,
    /// Read merged + per-shard admission counters (query plane).
    QueryStats,
    /// Liveness / readiness probe (query plane).
    QueryHealth,
    /// Barrier: drain and solve everything pushed so far, then report.
    Sync,
    /// Graceful shutdown; the server checkpoints (when configured),
    /// replies [`Response::Bye`], and exits.
    Shutdown,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake acknowledgement carrying the server's version.
    Hello {
        /// The server's `cs-wire` version.
        version: u16,
    },
    /// Typed failure; the connection stays usable unless the error was
    /// a handshake or framing violation.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The merged live estimate, or `None` before the first solve.
    Estimate(Option<WireEstimate>),
    /// Merged counters plus one entry per shard.
    Stats {
        /// Sum over shards (plus router-level rejections).
        merged: WireStats,
        /// Per-shard counters, in shard order.
        shards: Vec<WireStats>,
    },
    /// Health summary.
    Health {
        /// Whether the engine thread is accepting work.
        ok: bool,
        /// Number of shard workers.
        shards: u32,
        /// Total segment columns served.
        segments: u64,
        /// Reports queued across all shards right now.
        queue_len: u64,
        /// The stream clock, seconds.
        clock_s: u64,
    },
    /// Reply to [`Request::Sync`]: everything pushed before the sync is
    /// now reflected in the counters and the estimate.
    Synced {
        /// Reports this connection pushed since its last sync.
        pushed: u64,
        /// Wall micros of the forced tick.
        tick_us: u64,
        /// Wall micros of the solve inside that tick.
        solve_us: u64,
        /// Merged counters after the tick.
        stats: WireStats,
    },
    /// Shutdown acknowledgement; the server closes after sending it.
    Bye,
}

/// Typed decode failure. Every variant is a normal value — decoding
/// never panics, whatever the input bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Zero-length payload (no tag byte).
    Empty,
    /// The tag byte names no known message.
    UnknownTag(u8),
    /// The payload ended before a field did.
    Truncated {
        /// Bytes the field needed.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// Bytes were left over after the last field.
    Trailing {
        /// Count of unconsumed bytes.
        extra: usize,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A field decoded but violates the message's invariants.
    BadValue(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Empty => write!(f, "empty payload"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            DecodeError::Truncated { need, have } => {
                write!(f, "payload truncated: field needs {need} bytes, {have} remain")
            }
            DecodeError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::BadValue(what) => write!(f, "invalid field value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// Message tags. Requests live below 0x80, responses above — a peer that
// confuses the two planes gets `UnknownTag`, not a misparse.
const TAG_HELLO: u8 = 0x01;
const TAG_REPORT: u8 = 0x02;
const TAG_REPORT_BATCH: u8 = 0x03;
const TAG_QUERY_ESTIMATE: u8 = 0x10;
const TAG_QUERY_STATS: u8 = 0x11;
const TAG_QUERY_HEALTH: u8 = 0x12;
const TAG_SYNC: u8 = 0x13;
const TAG_SHUTDOWN: u8 = 0x14;

const TAG_R_HELLO: u8 = 0x81;
const TAG_R_ERROR: u8 = 0x82;
const TAG_R_ESTIMATE: u8 = 0x83;
const TAG_R_STATS: u8 = 0x84;
const TAG_R_HEALTH: u8 = 0x85;
const TAG_R_SYNCED: u8 = 0x86;
const TAG_R_BYE: u8 = 0x87;

/// Wire bytes of one [`WireReport`]: four `u64`s.
const REPORT_LEN: usize = 32;

/// Wire bytes of one [`WireStats`]: seven `u64`s.
const STATS_LEN: usize = 56;

/// Bytes of an `Estimate(Some(..))` payload before its cells: tag,
/// presence, head slot, solve clock, stale flag, sweeps, objective,
/// rows and cols.
const ESTIMATE_HEAD_LEN: usize = 43;

/// The little-endian `u64` in an 8-byte slice.
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte field"))
}

/// The report in one `REPORT_LEN`-byte slice.
fn report_from(bytes: &[u8]) -> WireReport {
    let b: &[u8; REPORT_LEN] = bytes.try_into().expect("32-byte report");
    WireReport {
        vehicle: le_u64(&b[0..8]),
        timestamp_s: le_u64(&b[8..16]),
        segment: le_u64(&b[16..24]),
        speed_bits: le_u64(&b[24..32]),
    }
}

/// Little-endian field writer over a buffer sized once, up front, for
/// the whole payload.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer for a `len`-byte payload that starts with `tag`.
    fn new(tag: u8, len: usize) -> Self {
        let mut buf = Vec::with_capacity(len);
        buf.push(tag);
        Self { buf }
    }

    /// The payload; its length is the one [`Writer::new`] was sized for.
    fn into_bytes(self) -> Vec<u8> {
        debug_assert_eq!(self.buf.len(), self.buf.capacity(), "payload sized exactly");
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `n` zero bytes and hands them out for one bulk pass.
    fn block(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        &mut self.buf[start..]
    }

    /// Every report, `REPORT_LEN` bytes each, in one pass.
    fn reports(&mut self, reports: &[WireReport]) {
        let out = self.block(REPORT_LEN * reports.len());
        for (b, r) in out.chunks_exact_mut(REPORT_LEN).zip(reports) {
            b[0..8].copy_from_slice(&r.vehicle.to_le_bytes());
            b[8..16].copy_from_slice(&r.timestamp_s.to_le_bytes());
            b[16..24].copy_from_slice(&r.segment.to_le_bytes());
            b[24..32].copy_from_slice(&r.speed_bits.to_le_bytes());
        }
    }

    /// Every value as 8 little-endian bytes, in one pass.
    fn words<T: Copy>(&mut self, values: &[T], to_le: impl Fn(T) -> [u8; 8]) {
        let out = self.block(8 * values.len());
        for (b, &v) in out.chunks_exact_mut(8).zip(values) {
            b.copy_from_slice(&to_le(v));
        }
    }

    fn stats(&mut self, s: &WireStats) {
        self.u64(s.admitted);
        self.u64(s.rejected);
        self.u64(s.dropped_late);
        self.u64(s.duplicates);
        self.u64(s.queue_dropped);
        self.u64(s.solves);
        self.u64(s.degraded);
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// The one estimate writer: header fields, then the cells in one pass.
/// `to_le` gives a cell's 8 wire bytes, so `f64` cells
/// (`f64::to_le_bytes`) and bit patterns (`u64::to_le_bytes`) encode
/// alike, NaN payloads included.
fn estimate_payload<T: Copy>(
    h: &EstimateHeader,
    values: &[T],
    to_le: impl Fn(T) -> [u8; 8],
) -> Vec<u8> {
    let mut w = Writer::new(TAG_R_ESTIMATE, ESTIMATE_HEAD_LEN + 8 * values.len());
    w.u8(1);
    w.u64(h.head_slot);
    w.u64(h.solved_at_s);
    w.bool(h.stale);
    w.u64(h.sweeps);
    w.u64(h.objective_bits);
    w.u32(h.rows);
    w.u32(h.cols);
    w.words(values, to_le);
    w.into_bytes()
}

/// Little-endian field reader with typed exhaustion errors.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(DecodeError::Truncated { need: n, have });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::BadValue("flag byte must be 0 or 1")),
        }
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("take(2)")))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take(4)")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(le_u64(self.take(8)?))
    }

    fn stats(&mut self) -> Result<WireStats, DecodeError> {
        Ok(WireStats {
            admitted: self.u64()?,
            rejected: self.u64()?,
            dropped_late: self.u64()?,
            duplicates: self.u64()?,
            queue_dropped: self.u64()?,
            solves: self.u64()?,
            degraded: self.u64()?,
        })
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// Guards a length prefix before any allocation: the remaining
    /// payload must plausibly hold `count` items of `item_len` bytes.
    fn check_len(&self, count: usize, item_len: usize) -> Result<(), DecodeError> {
        let have = self.buf.len() - self.pos;
        let need = count.saturating_mul(item_len);
        if have < need {
            return Err(DecodeError::Truncated { need, have });
        }
        Ok(())
    }

    fn finish(self) -> Result<(), DecodeError> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(DecodeError::Trailing { extra });
        }
        Ok(())
    }
}

impl Request {
    /// Canonical encoding of this request (one frame payload).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Hello { version } => {
                let mut w = Writer::new(TAG_HELLO, 3);
                w.u16(*version);
                w.into_bytes()
            }
            Request::Report(r) => {
                let mut w = Writer::new(TAG_REPORT, 1 + REPORT_LEN);
                w.reports(std::slice::from_ref(r));
                w.into_bytes()
            }
            Request::ReportBatch(reports) => {
                let mut w = Writer::new(TAG_REPORT_BATCH, 5 + REPORT_LEN * reports.len());
                w.u32(reports.len() as u32);
                w.reports(reports);
                w.into_bytes()
            }
            Request::QueryEstimate => vec![TAG_QUERY_ESTIMATE],
            Request::QueryStats => vec![TAG_QUERY_STATS],
            Request::QueryHealth => vec![TAG_QUERY_HEALTH],
            Request::Sync => vec![TAG_SYNC],
            Request::Shutdown => vec![TAG_SHUTDOWN],
        }
    }

    /// Decodes one request payload; total over arbitrary bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let tag = r.u8().map_err(|_| DecodeError::Empty)?;
        let msg = match tag {
            TAG_HELLO => Request::Hello { version: r.u16()? },
            TAG_REPORT => Request::Report(report_from(r.take(REPORT_LEN)?)),
            TAG_REPORT_BATCH => {
                let count = r.u32()? as usize;
                r.check_len(count, REPORT_LEN)?;
                let bytes = r.take(count * REPORT_LEN)?;
                Request::ReportBatch(bytes.chunks_exact(REPORT_LEN).map(report_from).collect())
            }
            TAG_QUERY_ESTIMATE => Request::QueryEstimate,
            TAG_QUERY_STATS => Request::QueryStats,
            TAG_QUERY_HEALTH => Request::QueryHealth,
            TAG_SYNC => Request::Sync,
            TAG_SHUTDOWN => Request::Shutdown,
            other => return Err(DecodeError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(msg)
    }
}

impl Response {
    /// Canonical encoding of this response (one frame payload).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Hello { version } => {
                let mut w = Writer::new(TAG_R_HELLO, 3);
                w.u16(*version);
                w.into_bytes()
            }
            Response::Error { code, message } => {
                let mut w = Writer::new(TAG_R_ERROR, 7 + message.len());
                w.u16(code.to_u16());
                w.str(message);
                w.into_bytes()
            }
            Response::Estimate(None) => vec![TAG_R_ESTIMATE, 0],
            Response::Estimate(Some(e)) => {
                let header = EstimateHeader {
                    head_slot: e.head_slot,
                    solved_at_s: e.solved_at_s,
                    stale: e.stale,
                    sweeps: e.sweeps,
                    objective_bits: e.objective_bits,
                    rows: e.rows,
                    cols: e.cols,
                };
                estimate_payload(&header, &e.values_bits, u64::to_le_bytes)
            }
            Response::Stats { merged, shards } => {
                let mut w = Writer::new(TAG_R_STATS, 5 + STATS_LEN * (1 + shards.len()));
                w.stats(merged);
                w.u32(shards.len() as u32);
                for s in shards {
                    w.stats(s);
                }
                w.into_bytes()
            }
            Response::Health { ok, shards, segments, queue_len, clock_s } => {
                let mut w = Writer::new(TAG_R_HEALTH, 30);
                w.bool(*ok);
                w.u32(*shards);
                w.u64(*segments);
                w.u64(*queue_len);
                w.u64(*clock_s);
                w.into_bytes()
            }
            Response::Synced { pushed, tick_us, solve_us, stats } => {
                let mut w = Writer::new(TAG_R_SYNCED, 25 + STATS_LEN);
                w.u64(*pushed);
                w.u64(*tick_us);
                w.u64(*solve_us);
                w.stats(stats);
                w.into_bytes()
            }
            Response::Bye => vec![TAG_R_BYE],
        }
    }

    /// Encodes `Response::Estimate(Some(..))` straight from borrowed
    /// `f64` cells (row-major, `rows × cols` of them), byte for byte as
    /// [`Response::encode`] encodes the same estimate carried as
    /// `f64::to_bits` patterns — what a server holding the cells in its
    /// own buffer sends without first copying them into a
    /// [`WireEstimate`].
    pub fn encode_estimate(header: &EstimateHeader, values: &[f64]) -> Vec<u8> {
        debug_assert_eq!(
            values.len(),
            header.rows as usize * header.cols as usize,
            "one value per cell"
        );
        estimate_payload(header, values, f64::to_le_bytes)
    }

    /// Decodes one response payload; total over arbitrary bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let tag = r.u8().map_err(|_| DecodeError::Empty)?;
        let msg = match tag {
            TAG_R_HELLO => Response::Hello { version: r.u16()? },
            TAG_R_ERROR => {
                let code = ErrorCode::from_u16(r.u16()?)?;
                let message = r.str()?;
                Response::Error { code, message }
            }
            TAG_R_ESTIMATE => match r.u8()? {
                0 => Response::Estimate(None),
                1 => {
                    let head_slot = r.u64()?;
                    let solved_at_s = r.u64()?;
                    let stale = r.bool()?;
                    let sweeps = r.u64()?;
                    let objective_bits = r.u64()?;
                    let rows = r.u32()?;
                    let cols = r.u32()?;
                    let count = (rows as usize).saturating_mul(cols as usize);
                    r.check_len(count, 8)?;
                    let values_bits = r.take(count * 8)?.chunks_exact(8).map(le_u64).collect();
                    Response::Estimate(Some(WireEstimate {
                        head_slot,
                        solved_at_s,
                        stale,
                        sweeps,
                        objective_bits,
                        rows,
                        cols,
                        values_bits,
                    }))
                }
                _ => return Err(DecodeError::BadValue("estimate presence byte must be 0 or 1")),
            },
            TAG_R_STATS => {
                let merged = r.stats()?;
                let count = r.u32()? as usize;
                r.check_len(count, STATS_LEN)?;
                let mut shards = Vec::with_capacity(count);
                for _ in 0..count {
                    shards.push(r.stats()?);
                }
                Response::Stats { merged, shards }
            }
            TAG_R_HEALTH => Response::Health {
                ok: r.bool()?,
                shards: r.u32()?,
                segments: r.u64()?,
                queue_len: r.u64()?,
                clock_s: r.u64()?,
            },
            TAG_R_SYNCED => Response::Synced {
                pushed: r.u64()?,
                tick_us: r.u64()?,
                solve_us: r.u64()?,
                stats: r.stats()?,
            },
            TAG_R_BYE => Response::Bye,
            other => return Err(DecodeError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let msgs = vec![
            Request::Hello { version: VERSION },
            Request::Report(WireReport::new(7, 3600, 4, 52.5)),
            Request::ReportBatch(vec![
                WireReport::new(1, 10, 0, 1.0),
                WireReport::new(2, 20, 3, f64::NAN),
            ]),
            Request::QueryEstimate,
            Request::QueryStats,
            Request::QueryHealth,
            Request::Sync,
            Request::Shutdown,
        ];
        for msg in msgs {
            let bytes = msg.encode();
            let back = Request::decode(&bytes).unwrap();
            assert_eq!(back, msg);
            assert_eq!(back.encode(), bytes, "canonical encoding for {msg:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let stats = WireStats { admitted: 5, rejected: 1, ..WireStats::default() };
        let msgs = vec![
            Response::Hello { version: VERSION },
            Response::Error { code: ErrorCode::BadRequest, message: "nope".into() },
            Response::Estimate(None),
            Response::Estimate(Some(WireEstimate {
                head_slot: 9,
                solved_at_s: 8100,
                stale: true,
                sweeps: 4,
                objective_bits: 1.25f64.to_bits(),
                rows: 2,
                cols: 3,
                values_bits: vec![0, 1, 2, 3, 4, 5],
            })),
            Response::Stats { merged: stats, shards: vec![stats, WireStats::default()] },
            Response::Health { ok: true, shards: 4, segments: 64, queue_len: 0, clock_s: 7200 },
            Response::Synced { pushed: 12, tick_us: 800, solve_us: 640, stats },
            Response::Bye,
        ];
        for msg in msgs {
            let bytes = msg.encode();
            let back = Response::decode(&bytes).unwrap();
            assert_eq!(back, msg);
            assert_eq!(back.encode(), bytes, "canonical encoding for {msg:?}");
        }
    }

    #[test]
    fn empty_and_unknown_tags_are_typed() {
        assert_eq!(Request::decode(&[]), Err(DecodeError::Empty));
        assert_eq!(Request::decode(&[0x7f]), Err(DecodeError::UnknownTag(0x7f)));
        // A response tag fed to the request decoder is unknown, not UB.
        assert_eq!(Request::decode(&[TAG_R_BYE]), Err(DecodeError::UnknownTag(TAG_R_BYE)));
        assert_eq!(Response::decode(&[TAG_SYNC]), Err(DecodeError::UnknownTag(TAG_SYNC)));
    }

    #[test]
    fn batch_count_must_match_payload() {
        // Claim 1000 reports but supply one: Truncated before allocation.
        let mut bytes = vec![TAG_REPORT_BATCH];
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        match Request::decode(&bytes) {
            Err(DecodeError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::Sync.encode();
        bytes.push(0);
        assert_eq!(Request::decode(&bytes), Err(DecodeError::Trailing { extra: 1 }));
    }
}
