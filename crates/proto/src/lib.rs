//! `proto` — the `cs-wire/v1` wire protocol.
//!
//! The one public surface every network participant shares: the serve
//! daemon, the CLI clients, the socket-transport load generator, and
//! the chaos connection-fault injectors all speak exactly these types.
//!
//! The protocol is deliberately primitive — hand-rolled, zero
//! dependencies, `std::net` only:
//!
//! * **Framing** ([`frame`]): every message travels as a 4-byte
//!   little-endian payload length followed by the payload. Truncation,
//!   oversize, and mid-frame EOF are typed [`FrameError`]s.
//! * **Messages** ([`msg`]): typed [`Request`]/[`Response`] enums with a
//!   canonical binary encoding (one byte of tag, little-endian fields,
//!   floats as IEEE-754 bit patterns). Decoding is total: arbitrary
//!   bytes yield a [`DecodeError`], never a panic.
//! * **Versioning**: the first frame on every connection is
//!   `Request::Hello { version }`; the server answers with its own
//!   version and refuses mismatches with a typed wire error. The
//!   protocol string is [`PROTOCOL`] (`cs-wire/v1`).
//! * **Transport** ([`net`]): `tcp:HOST:PORT` and `unix:/path` behind
//!   one [`Conn`] type; [`client`] is the small blocking client built
//!   on it.
//!
//! Ingest is pipelined: `Report`/`ReportBatch` frames get no response,
//! and a `Sync` barrier forces a tick and returns the counters, so a
//! client can always establish exactly which of its reports are
//! reflected in the estimate — the property the chaos connection-fault
//! oracle checks across dropped connections.

pub mod client;
pub mod frame;
pub mod msg;
pub mod net;

pub use client::{Client, ClientError};
pub use frame::{frame_bytes, read_frame, write_frame, FrameError, HEADER_LEN, MAX_FRAME_LEN};
pub use msg::{
    DecodeError, ErrorCode, EstimateHeader, Request, Response, WireEstimate, WireReport, WireStats,
    PROTOCOL, VERSION,
};
pub use net::{BindAddr, Conn, Listener};
