//! `market::wire` — the length-prefixed binary frame protocol of the
//! acquisition service.
//!
//! Every message on the wire is one **frame**: a fixed 20-byte header
//! followed by an opcode-specific payload, all little-endian:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        0x4543_4E44 ("DNCE" on the wire)
//!      4     2  version      protocol version of the frame (always 2)
//!      6     2  opcode       request opcode; responses set RESP_BIT (0x8000)
//!      8     8  request id   client-chosen tag echoed on the response
//!     16     4  payload len  bytes following the header (capped)
//! ```
//!
//! Every frame carries [`PROTOCOL_VERSION`]; [`peek_header`] rejects any
//! other version as [`WireError::BadVersion`] before the payload is read.
//! The version field stays in the header so a future version can be told
//! apart at the first frame. A connection normally opens with the
//! [`Opcode::Hello`] handshake (offering a version and feature bits), but a
//! well-formed frame is served with or without one. The `OpenSession` reply
//! carries the session's resumption token, which
//! [`Opcode::ResumeSession`] presents to re-attach a parked session to a
//! fresh connection.
//!
//! Requests and responses are tagged by `request id`, so a client may keep
//! many requests in flight on one connection (**pipelining**) and match
//! responses as they come back. Response payloads begin with one status
//! byte: `0` is success, anything else is a [`FaultCode`] followed by a
//! length-prefixed UTF-8 message.
//!
//! Attribute sets travel as interned [`AttrId`] lists (`u16` count +
//! `u32` ids) — the id space is catalog-scoped (published with the free
//! schema metadata), so the hot quote path moves no strings at all.
//!
//! ## Determinism contract
//!
//! Encoding is a pure function of the frame's logical content: the same
//! `(request id, reply)` always serializes to the same bytes. Combined with
//! the session layer's own determinism (pinned snapshot + per-purchase
//! seeding), a session's wire-level response transcript is **byte-identical**
//! to the same call sequence made in-process against the pinned snapshot —
//! `tests/wire_service.rs` pins exactly that, and [`table_digest`] is how
//! purchased tables are bound into the transcript without shipping rows.
//!
//! ## Robustness contract
//!
//! Decoding hostile input never panics and never over-allocates: header
//! validation ([`peek_header`]) rejects bad magic, unknown versions and
//! payload lengths beyond the declared cap before any payload is read, and
//! payload decoding bounds every count it reads against the bytes actually
//! present ([`WireError::Truncated`]).

use crate::catalog::DatasetId;
use crate::session::SessionError;
use dance_relation::hash::stable_hash64;
use dance_relation::{AttrId, AttrSet, Table};
use std::fmt;

/// Frame magic: the bytes `DNCE` once the `u32` is laid out little-endian.
pub const MAGIC: u32 = 0x4543_4E44;

/// The one protocol version this build speaks: every frame header carries
/// it, and a `Hello` negotiates to it.
pub const PROTOCOL_VERSION: u16 = 2;

/// Feature bit: the server parks disconnected sessions and accepts
/// [`Opcode::ResumeSession`].
pub const FEATURE_RESUME: u32 = 1;

/// Feature bit: the server deduplicates retried mutating requests through
/// its per-session replay cache (exactly-once semantics).
pub const FEATURE_REPLAY: u32 = 2;

/// All feature bits this build implements.
pub const SERVER_FEATURES: u32 = FEATURE_RESUME | FEATURE_REPLAY;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 20;

/// Default cap on payload length; larger frames are rejected at the header,
/// before any payload is buffered.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 20;

/// Response frames set this bit on the request opcode they answer.
pub const RESP_BIT: u16 = 0x8000;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Opcode {
    /// Open a session (shopper id, seed, budget) → (session id, version).
    OpenSession = 1,
    /// Quote one projection at the pinned version (free).
    Quote = 2,
    /// Quote a batch of projections in one frame (free).
    QuoteBatch = 3,
    /// Buy a correlated sample (seeded from the session's purchase index).
    BuySample = 4,
    /// Execute a projection purchase.
    Execute = 5,
    /// Re-pin the session to the current catalog version.
    Repin = 6,
    /// Service counters (server + session manager).
    Stats = 7,
    /// Close a session, returning its final report summary.
    CloseSession = 8,
    /// Version/feature handshake: (client version, feature bits) →
    /// (accepted version, granted feature bits).
    Hello = 9,
    /// Re-attach a parked session to this connection by its token.
    ResumeSession = 10,
}

impl Opcode {
    /// All request opcodes, in numeric order.
    pub const ALL: [Opcode; 10] = [
        Opcode::OpenSession,
        Opcode::Quote,
        Opcode::QuoteBatch,
        Opcode::BuySample,
        Opcode::Execute,
        Opcode::Repin,
        Opcode::Stats,
        Opcode::CloseSession,
        Opcode::Hello,
        Opcode::ResumeSession,
    ];

    /// Decode a request opcode (the `RESP_BIT` must already be stripped).
    pub fn from_u16(raw: u16) -> Result<Opcode, WireError> {
        match raw {
            1 => Ok(Opcode::OpenSession),
            2 => Ok(Opcode::Quote),
            3 => Ok(Opcode::QuoteBatch),
            4 => Ok(Opcode::BuySample),
            5 => Ok(Opcode::Execute),
            6 => Ok(Opcode::Repin),
            7 => Ok(Opcode::Stats),
            8 => Ok(Opcode::CloseSession),
            9 => Ok(Opcode::Hello),
            10 => Ok(Opcode::ResumeSession),
            other => Err(WireError::UnknownOpcode(other)),
        }
    }
}

/// Protocol-level failures: framing or payload decoding went wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The magic bytes are wrong — this is not a DANCE frame.
    BadMagic(u32),
    /// The header's protocol version is not supported.
    BadVersion(u16),
    /// The opcode is not one of [`Opcode::ALL`] (request side) or their
    /// response counterparts.
    UnknownOpcode(u16),
    /// The declared payload length exceeds the negotiated cap.
    PayloadTooLarge {
        /// Declared payload length.
        len: u32,
        /// The cap it exceeded.
        cap: u32,
    },
    /// The payload ended before the declared content did.
    Truncated,
    /// The payload is structurally invalid (bad status byte, trailing
    /// bytes, non-UTF-8 message…).
    Malformed(&'static str),
    /// The read deadline expired before a complete frame arrived.
    Timeout,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic 0x{m:08X}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:04X}"),
            WireError::PayloadTooLarge { len, cap } => {
                write!(f, "payload length {len} exceeds cap {cap}")
            }
            WireError::Truncated => write!(f, "truncated payload"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Timeout => write!(f, "read deadline expired before a complete frame"),
        }
    }
}

impl std::error::Error for WireError {}

/// One decoded frame header (magic/version already validated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version this frame is encoded at.
    pub version: u16,
    /// Raw opcode field (`RESP_BIT` included on responses).
    pub opcode: u16,
    /// Client-chosen request tag.
    pub request_id: u64,
    /// Payload byte count following the header.
    pub payload_len: u32,
}

/// A request frame's logical content.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session for `shopper` with the given seed and budget.
    OpenSession {
        /// Shopper identity (the unit of rate limiting).
        shopper: u64,
        /// Session seed (drives per-purchase sample seeds).
        seed: u64,
        /// Session budget.
        budget: f64,
    },
    /// Quote `π_attrs(dataset)` at the session's pinned version.
    Quote {
        /// Target session.
        session: u64,
        /// Target dataset.
        dataset: u32,
        /// Projection attributes.
        attrs: AttrSet,
    },
    /// Quote many projections in one frame.
    QuoteBatch {
        /// Target session.
        session: u64,
        /// `(dataset, attrs)` per quote, answered in order.
        items: Vec<(DatasetId, AttrSet)>,
    },
    /// Buy a correlated sample keyed on `key` at `rate`.
    BuySample {
        /// Target session.
        session: u64,
        /// Target dataset.
        dataset: u32,
        /// Sampling rate.
        rate: f64,
        /// Sample key attributes.
        key: AttrSet,
    },
    /// Execute a projection purchase.
    Execute {
        /// Target session.
        session: u64,
        /// Target dataset.
        dataset: u32,
        /// Projection attributes.
        attrs: AttrSet,
    },
    /// Re-pin the session to the live catalog version.
    Repin {
        /// Target session.
        session: u64,
    },
    /// Service counters.
    Stats,
    /// Close the session and return its report summary.
    CloseSession {
        /// Target session.
        session: u64,
    },
    /// Version/feature handshake.
    Hello {
        /// Newest protocol version the client speaks.
        version: u16,
        /// Feature bits the client wants.
        features: u32,
    },
    /// Re-attach a parked session to this connection.
    Resume {
        /// The [`crate::session::SessionToken`] from the v2 open reply.
        token: u64,
    },
}

impl Request {
    /// The opcode this request travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::OpenSession { .. } => Opcode::OpenSession,
            Request::Quote { .. } => Opcode::Quote,
            Request::QuoteBatch { .. } => Opcode::QuoteBatch,
            Request::BuySample { .. } => Opcode::BuySample,
            Request::Execute { .. } => Opcode::Execute,
            Request::Repin { .. } => Opcode::Repin,
            Request::Stats => Opcode::Stats,
            Request::CloseSession { .. } => Opcode::CloseSession,
            Request::Hello { .. } => Opcode::Hello,
            Request::Resume { .. } => Opcode::ResumeSession,
        }
    }
}

/// A successful response's logical content.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session opened.
    OpenSession {
        /// Server-assigned session id.
        session: u64,
        /// Catalog version the session pinned.
        version: u64,
        /// Resumption token ([`crate::session::SessionToken`]).
        token: u64,
    },
    /// Quoted price.
    Quote {
        /// Price of the projection at the pinned version.
        price: f64,
    },
    /// Batch of quoted prices, in request order.
    QuoteBatch {
        /// One price per requested item.
        prices: Vec<f64>,
    },
    /// Sample purchased.
    BuySample {
        /// Price charged.
        price: f64,
        /// Rows in the purchased sample.
        rows: u64,
        /// [`table_digest`] of the purchased sample — binds the exact
        /// content into the transcript without shipping rows.
        digest: u64,
    },
    /// Projection purchased.
    Execute {
        /// Price charged.
        price: f64,
        /// Rows in the purchased projection.
        rows: u64,
        /// [`table_digest`] of the purchased projection.
        digest: u64,
    },
    /// Session re-pinned.
    Repin {
        /// The new pinned catalog version.
        version: u64,
    },
    /// Service counters.
    Stats(StatsSnapshot),
    /// Session closed.
    CloseSession {
        /// Session seed (echoed from the open).
        seed: u64,
        /// Catalog version the session was pinned at when closed.
        version: u64,
        /// Number of purchases in the ledger.
        purchases: u32,
        /// Total spend.
        spent: f64,
        /// Budget headroom left.
        remaining: f64,
    },
    /// Handshake accepted.
    Hello {
        /// Version the server speaks on this connection
        /// ([`PROTOCOL_VERSION`]).
        version: u16,
        /// Requested feature bits the server grants.
        features: u32,
    },
    /// Session re-attached to this connection.
    Resume {
        /// The session id (unchanged across resumption).
        session: u64,
        /// Catalog version the session is still pinned at.
        version: u64,
        /// Purchases already in the ledger — where the purchase-seed
        /// sequence continues from.
        purchases: u32,
    },
}

impl Response {
    /// The request opcode this response answers.
    pub fn opcode(&self) -> Opcode {
        match self {
            Response::OpenSession { .. } => Opcode::OpenSession,
            Response::Quote { .. } => Opcode::Quote,
            Response::QuoteBatch { .. } => Opcode::QuoteBatch,
            Response::BuySample { .. } => Opcode::BuySample,
            Response::Execute { .. } => Opcode::Execute,
            Response::Repin { .. } => Opcode::Repin,
            Response::Stats(_) => Opcode::Stats,
            Response::CloseSession { .. } => Opcode::CloseSession,
            Response::Hello { .. } => Opcode::Hello,
            Response::Resume { .. } => Opcode::ResumeSession,
        }
    }
}

/// Point-in-time service counters carried by [`Response::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Sessions currently open (manager view).
    pub sessions_open: u64,
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Sessions closed.
    pub sessions_closed: u64,
    /// Session opens rejected at capacity.
    pub sessions_rejected: u64,
    /// High-water mark of simultaneously open sessions.
    pub sessions_peak_open: u64,
    /// Connections accepted onto a worker.
    pub connections_accepted: u64,
    /// Connections turned away by the backlog policy.
    pub connections_rejected: u64,
    /// Request frames handled (including faulted ones).
    pub requests_served: u64,
    /// Requests refused by the per-shopper token bucket.
    pub rate_limited: u64,
    /// Frames that failed protocol validation.
    pub protocol_errors: u64,
    /// Connections closed because a mid-frame read or a write missed the
    /// I/O deadline (slow-loris defense).
    pub timeouts: u64,
    /// Sessions re-attached to a fresh connection via `ResumeSession`.
    pub resumes: u64,
    /// Retried requests answered from a replay cache instead of being
    /// re-executed (exactly-once dedup hits).
    pub replay_hits: u64,
    /// Parked sessions reclaimed after their idle lease expired.
    pub leases_reclaimed: u64,
}

/// Failure classes a response can carry (the non-zero status bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultCode {
    /// Admission control turned the request (or connection) away — retry
    /// later. Used by the rate limiter and the accept backlog.
    Rejected = 1,
    /// The session manager is at capacity.
    AtCapacity = 2,
    /// The session budget refused the purchase.
    Budget = 3,
    /// The marketplace refused the operation (unknown dataset, bad attrs…).
    Market = 4,
    /// The frame failed protocol validation.
    Protocol = 5,
    /// The session id is not open on this connection.
    UnknownSession = 6,
}

impl FaultCode {
    fn from_u8(raw: u8) -> Result<FaultCode, WireError> {
        match raw {
            1 => Ok(FaultCode::Rejected),
            2 => Ok(FaultCode::AtCapacity),
            3 => Ok(FaultCode::Budget),
            4 => Ok(FaultCode::Market),
            5 => Ok(FaultCode::Protocol),
            6 => Ok(FaultCode::UnknownSession),
            _ => Err(WireError::Malformed("unknown fault code")),
        }
    }
}

/// An error response: a [`FaultCode`] plus a human-readable message. The
/// message is a pure function of the underlying error, so fault frames obey
/// the same transcript determinism as success frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Failure class.
    pub code: FaultCode,
    /// Human-readable detail.
    pub message: String,
}

impl Fault {
    /// An admission-control rejection (rate limit / backlog).
    pub fn rejected(message: &str) -> Fault {
        Fault {
            code: FaultCode::Rejected,
            message: message.to_string(),
        }
    }

    /// A protocol fault wrapping a [`WireError`].
    pub fn protocol(e: &WireError) -> Fault {
        Fault {
            code: FaultCode::Protocol,
            message: e.to_string(),
        }
    }

    /// The fault for a session id that is not open on this connection.
    pub fn unknown_session(session: u64) -> Fault {
        Fault {
            code: FaultCode::UnknownSession,
            message: format!("session {session} is not open on this connection"),
        }
    }

    /// The fault for a resumption token that matches no parked session
    /// (never opened, already closed, or reclaimed after its lease expired).
    pub fn unknown_token() -> Fault {
        Fault {
            code: FaultCode::UnknownSession,
            message: "unknown or expired session token".to_string(),
        }
    }

    /// The fault for resuming a session still attached to another live
    /// connection — transient: retry once the old connection parks it.
    pub fn session_busy() -> Fault {
        Fault {
            code: FaultCode::Rejected,
            message: "session is attached to another connection; retry".to_string(),
        }
    }

    /// The fault for a `Hello` offering a version older than
    /// [`PROTOCOL_VERSION`].
    pub fn unsupported_version(version: u16) -> Fault {
        Fault {
            code: FaultCode::Protocol,
            message: format!(
                "client version {version} is older than the supported \
                 version {PROTOCOL_VERSION}"
            ),
        }
    }

    /// Map a session-layer error onto its wire fault.
    pub fn from_session_error(e: &SessionError) -> Fault {
        let code = match e {
            SessionError::AtCapacity { .. } => FaultCode::AtCapacity,
            SessionError::Budget(_) => FaultCode::Budget,
            SessionError::Market(_) => FaultCode::Market,
        };
        Fault {
            code,
            message: e.to_string(),
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

/// What a response frame decodes to: success or fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Success (status byte 0).
    Ok(Response),
    /// Failure (status byte = the fault code).
    Fault(Fault),
}

impl Reply {
    /// The success payload, or `None` on a fault.
    pub fn ok(&self) -> Option<&Response> {
        match self {
            Reply::Ok(r) => Some(r),
            Reply::Fault(_) => None,
        }
    }

    /// The fault, or `None` on success.
    pub fn fault(&self) -> Option<&Fault> {
        match self {
            Reply::Ok(_) => None,
            Reply::Fault(f) => Some(f),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding primitives: append-only writers into a caller-owned buffer, so
// per-connection buffers are reused across requests with no allocation once
// they reach their working size.

#[inline]
fn put_u8(b: &mut Vec<u8>, v: u8) {
    b.push(v);
}

#[inline]
fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_f64(b: &mut Vec<u8>, v: f64) {
    b.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_attrs(b: &mut Vec<u8>, attrs: &AttrSet) {
    debug_assert!(attrs.len() <= u16::MAX as usize, "attr set too large");
    put_u16(b, attrs.len() as u16);
    for id in attrs.iter() {
        put_u32(b, id.0);
    }
}

fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}

/// Append a frame header for `version`/`opcode`/`request_id` with a zero
/// payload length, returning the payload start offset for [`finish_frame`].
fn begin_frame(buf: &mut Vec<u8>, version: u16, opcode: u16, request_id: u64) -> usize {
    put_u32(buf, MAGIC);
    put_u16(buf, version);
    put_u16(buf, opcode);
    put_u64(buf, request_id);
    put_u32(buf, 0);
    buf.len()
}

/// Patch the payload length of the frame begun at `payload_start`.
fn finish_frame(buf: &mut [u8], payload_start: usize) {
    let len = (buf.len() - payload_start) as u32;
    buf[payload_start - 4..payload_start].copy_from_slice(&len.to_le_bytes());
}

/// Append one encoded request frame to `buf` at the given header version
/// ([`PROTOCOL_VERSION`] for every frame a peer will accept).
pub fn encode_request_v(buf: &mut Vec<u8>, version: u16, request_id: u64, req: &Request) {
    let start = begin_frame(buf, version, req.opcode() as u16, request_id);
    match req {
        Request::OpenSession {
            shopper,
            seed,
            budget,
        } => {
            put_u64(buf, *shopper);
            put_u64(buf, *seed);
            put_f64(buf, *budget);
        }
        Request::Quote {
            session,
            dataset,
            attrs,
        }
        | Request::Execute {
            session,
            dataset,
            attrs,
        } => {
            put_u64(buf, *session);
            put_u32(buf, *dataset);
            put_attrs(buf, attrs);
        }
        Request::QuoteBatch { session, items } => {
            put_u64(buf, *session);
            put_u32(buf, items.len() as u32);
            for (id, attrs) in items {
                put_u32(buf, id.0);
                put_attrs(buf, attrs);
            }
        }
        Request::BuySample {
            session,
            dataset,
            rate,
            key,
        } => {
            put_u64(buf, *session);
            put_u32(buf, *dataset);
            put_f64(buf, *rate);
            put_attrs(buf, key);
        }
        Request::Repin { session } | Request::CloseSession { session } => {
            put_u64(buf, *session);
        }
        Request::Stats => {}
        Request::Hello { version, features } => {
            put_u16(buf, *version);
            put_u32(buf, *features);
        }
        Request::Resume { token } => put_u64(buf, *token),
    }
    finish_frame(buf, start);
}

/// Append one encoded response frame to `buf` at the given header version
/// ([`PROTOCOL_VERSION`] for every frame a peer will accept). `req_opcode`
/// is the raw opcode of the request being answered (`0` for
/// connection-level faults, e.g. a backlog rejection before any request
/// was read).
pub fn encode_reply_v(
    buf: &mut Vec<u8>,
    version: u16,
    request_id: u64,
    req_opcode: u16,
    reply: &Reply,
) {
    let start = begin_frame(buf, version, req_opcode | RESP_BIT, request_id);
    match reply {
        Reply::Ok(resp) => {
            debug_assert_eq!(resp.opcode() as u16, req_opcode, "reply/opcode mismatch");
            put_u8(buf, 0);
            match resp {
                Response::OpenSession {
                    session,
                    version: pinned,
                    token,
                } => {
                    put_u64(buf, *session);
                    put_u64(buf, *pinned);
                    put_u64(buf, *token);
                }
                Response::Quote { price } => put_f64(buf, *price),
                Response::QuoteBatch { prices } => {
                    put_u32(buf, prices.len() as u32);
                    for p in prices {
                        put_f64(buf, *p);
                    }
                }
                Response::BuySample {
                    price,
                    rows,
                    digest,
                }
                | Response::Execute {
                    price,
                    rows,
                    digest,
                } => {
                    put_f64(buf, *price);
                    put_u64(buf, *rows);
                    put_u64(buf, *digest);
                }
                Response::Repin { version } => put_u64(buf, *version),
                Response::Stats(s) => {
                    for v in [
                        s.sessions_open,
                        s.sessions_opened,
                        s.sessions_closed,
                        s.sessions_rejected,
                        s.sessions_peak_open,
                        s.connections_accepted,
                        s.connections_rejected,
                        s.requests_served,
                        s.rate_limited,
                        s.protocol_errors,
                        s.timeouts,
                        s.resumes,
                        s.replay_hits,
                        s.leases_reclaimed,
                    ] {
                        put_u64(buf, v);
                    }
                }
                Response::CloseSession {
                    seed,
                    version,
                    purchases,
                    spent,
                    remaining,
                } => {
                    put_u64(buf, *seed);
                    put_u64(buf, *version);
                    put_u32(buf, *purchases);
                    put_f64(buf, *spent);
                    put_f64(buf, *remaining);
                }
                Response::Hello { version, features } => {
                    put_u16(buf, *version);
                    put_u32(buf, *features);
                }
                Response::Resume {
                    session,
                    version,
                    purchases,
                } => {
                    put_u64(buf, *session);
                    put_u64(buf, *version);
                    put_u32(buf, *purchases);
                }
            }
        }
        Reply::Fault(fault) => {
            put_u8(buf, fault.code as u8);
            put_str(buf, &fault.message);
        }
    }
    finish_frame(buf, start);
}

// ---------------------------------------------------------------------------
// Decoding: a bounds-checked little-endian reader over the payload slice.

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn attrs(&mut self) -> Result<AttrSet, WireError> {
        let n = self.u16()? as usize;
        // Bound the allocation by the bytes actually present: `n` ids need
        // `4n` payload bytes, so a hostile count fails before any reserve.
        if self.remaining() < n * 4 {
            return Err(WireError::Truncated);
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(AttrId(self.u32()?));
        }
        Ok(AttrSet::from_ids(ids))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 message"))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes"));
        }
        Ok(())
    }
}

/// Validate and read a frame header from the front of `buf`.
///
/// Returns `Ok(None)` when fewer than [`HEADER_LEN`] bytes are buffered (read
/// more), `Ok(Some(header))` on a valid header, and an error on bad magic,
/// a version other than [`PROTOCOL_VERSION`], or a payload length beyond
/// `max_payload` — all checked **before** any payload is buffered, so a
/// hostile length can never force an allocation.
pub fn peek_header(buf: &[u8], max_payload: u32) -> Result<Option<FrameHeader>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let mut r = Reader::new(&buf[..HEADER_LEN]);
    let magic = r.u32().unwrap();
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u16().unwrap();
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let opcode = r.u16().unwrap();
    let request_id = r.u64().unwrap();
    let payload_len = r.u32().unwrap();
    if payload_len > max_payload {
        return Err(WireError::PayloadTooLarge {
            len: payload_len,
            cap: max_payload,
        });
    }
    Ok(Some(FrameHeader {
        version,
        opcode,
        request_id,
        payload_len,
    }))
}

/// Decode a request payload for the header's raw opcode.
pub fn decode_request(opcode: u16, payload: &[u8]) -> Result<Request, WireError> {
    let op = Opcode::from_u16(opcode)?;
    let mut r = Reader::new(payload);
    let req = match op {
        Opcode::OpenSession => Request::OpenSession {
            shopper: r.u64()?,
            seed: r.u64()?,
            budget: r.f64()?,
        },
        Opcode::Quote => Request::Quote {
            session: r.u64()?,
            dataset: r.u32()?,
            attrs: r.attrs()?,
        },
        Opcode::QuoteBatch => {
            let session = r.u64()?;
            let n = r.u32()? as usize;
            // Each item is at least 6 bytes (dataset id + empty attr set).
            if r.remaining() < n * 6 {
                return Err(WireError::Truncated);
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let id = DatasetId(r.u32()?);
                items.push((id, r.attrs()?));
            }
            Request::QuoteBatch { session, items }
        }
        Opcode::BuySample => Request::BuySample {
            session: r.u64()?,
            dataset: r.u32()?,
            rate: r.f64()?,
            key: r.attrs()?,
        },
        Opcode::Execute => Request::Execute {
            session: r.u64()?,
            dataset: r.u32()?,
            attrs: r.attrs()?,
        },
        Opcode::Repin => Request::Repin { session: r.u64()? },
        Opcode::Stats => Request::Stats,
        Opcode::CloseSession => Request::CloseSession { session: r.u64()? },
        Opcode::Hello => Request::Hello {
            version: r.u16()?,
            features: r.u32()?,
        },
        Opcode::ResumeSession => Request::Resume { token: r.u64()? },
    };
    r.finish()?;
    Ok(req)
}

/// Decode a response payload for the version and raw opcode its frame
/// header carried. The version must be [`PROTOCOL_VERSION`]; the opcode
/// must carry [`RESP_BIT`] (opcode `RESP_BIT | 0` is a connection-level
/// fault frame).
pub fn decode_reply_v(version: u16, opcode: u16, payload: &[u8]) -> Result<Reply, WireError> {
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    if opcode & RESP_BIT == 0 {
        return Err(WireError::UnknownOpcode(opcode));
    }
    let low = opcode & !RESP_BIT;
    let mut r = Reader::new(payload);
    let status = r.u8()?;
    if status != 0 {
        let fault = Fault {
            code: FaultCode::from_u8(status)?,
            message: r.string()?,
        };
        r.finish()?;
        return Ok(Reply::Fault(fault));
    }
    if low == 0 {
        return Err(WireError::Malformed("ok status on a fault-only frame"));
    }
    let resp = match Opcode::from_u16(low)? {
        Opcode::OpenSession => Response::OpenSession {
            session: r.u64()?,
            version: r.u64()?,
            token: r.u64()?,
        },
        Opcode::Quote => Response::Quote { price: r.f64()? },
        Opcode::QuoteBatch => {
            let n = r.u32()? as usize;
            if r.remaining() < n * 8 {
                return Err(WireError::Truncated);
            }
            let mut prices = Vec::with_capacity(n);
            for _ in 0..n {
                prices.push(r.f64()?);
            }
            Response::QuoteBatch { prices }
        }
        Opcode::BuySample => Response::BuySample {
            price: r.f64()?,
            rows: r.u64()?,
            digest: r.u64()?,
        },
        Opcode::Execute => Response::Execute {
            price: r.f64()?,
            rows: r.u64()?,
            digest: r.u64()?,
        },
        Opcode::Repin => Response::Repin { version: r.u64()? },
        Opcode::Stats => {
            let mut vals = [0u64; 14];
            for v in &mut vals {
                *v = r.u64()?;
            }
            Response::Stats(StatsSnapshot {
                sessions_open: vals[0],
                sessions_opened: vals[1],
                sessions_closed: vals[2],
                sessions_rejected: vals[3],
                sessions_peak_open: vals[4],
                connections_accepted: vals[5],
                connections_rejected: vals[6],
                requests_served: vals[7],
                rate_limited: vals[8],
                protocol_errors: vals[9],
                timeouts: vals[10],
                resumes: vals[11],
                replay_hits: vals[12],
                leases_reclaimed: vals[13],
            })
        }
        Opcode::CloseSession => Response::CloseSession {
            seed: r.u64()?,
            version: r.u64()?,
            purchases: r.u32()?,
            spent: r.f64()?,
            remaining: r.f64()?,
        },
        Opcode::Hello => Response::Hello {
            version: r.u16()?,
            features: r.u32()?,
        },
        Opcode::ResumeSession => Response::Resume {
            session: r.u64()?,
            version: r.u64()?,
            purchases: r.u32()?,
        },
    };
    r.finish()?;
    Ok(Reply::Ok(resp))
}

/// A stable content digest of a table: schema attribute names, row count,
/// and every cell value (in row-major order) folded through
/// [`stable_hash64`]. Two tables digest equal iff their shapes, attribute
/// names and cell contents are identical — this is how a
/// purchased table is bound into a wire transcript without shipping rows.
pub fn table_digest(t: &Table) -> u64 {
    let mut acc = stable_hash64(0xD16E_5700, &(t.num_rows() as u64, t.num_attrs() as u64));
    for a in t.schema().attributes() {
        acc = stable_hash64(acc, &*a.id.name());
    }
    for row in 0..t.num_rows() {
        for col in 0..t.num_attrs() {
            acc = stable_hash64(acc, &t.value(row, col));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::{Value, ValueType};

    fn attrs_of(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().map(|&i| AttrId(i)))
    }

    fn frame_of_request(request_id: u64, req: &Request) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_request_v(&mut buf, PROTOCOL_VERSION, request_id, req);
        buf
    }

    fn frame_of_reply(request_id: u64, op: u16, reply: &Reply) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_reply_v(&mut buf, PROTOCOL_VERSION, request_id, op, reply);
        buf
    }

    fn request_roundtrip(req: &Request) {
        let buf = frame_of_request(7, req);
        let h = peek_header(&buf, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
        assert_eq!(h.opcode, req.opcode() as u16);
        assert_eq!(h.request_id, 7);
        assert_eq!(buf.len(), HEADER_LEN + h.payload_len as usize);
        let back = decode_request(h.opcode, &buf[HEADER_LEN..]).unwrap();
        assert_eq!(&back, req);
    }

    fn reply_roundtrip(op: Opcode, reply: &Reply) {
        let buf = frame_of_reply(9, op as u16, reply);
        let h = peek_header(&buf, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
        assert_eq!(h.opcode, op as u16 | RESP_BIT);
        let back = decode_reply_v(h.version, h.opcode, &buf[HEADER_LEN..]).unwrap();
        assert_eq!(&back, reply);
    }

    #[test]
    fn header_layout_is_20_bytes_little_endian() {
        let buf = frame_of_request(0x0102_0304_0506_0708, &Request::Stats);
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(&buf[0..4], b"DNCE");
        assert_eq!(&buf[4..6], &PROTOCOL_VERSION.to_le_bytes());
        assert_eq!(&buf[6..8], &(Opcode::Stats as u16).to_le_bytes());
        assert_eq!(&buf[8..16], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(&buf[16..20], &0u32.to_le_bytes());
    }

    #[test]
    fn every_request_opcode_roundtrips() {
        let a = attrs_of(&[3, 1, 2]);
        for req in [
            Request::OpenSession {
                shopper: 42,
                seed: 7,
                budget: 12.5,
            },
            Request::Quote {
                session: 1,
                dataset: 2,
                attrs: a.clone(),
            },
            Request::QuoteBatch {
                session: 1,
                items: vec![(DatasetId(0), a.clone()), (DatasetId(4), attrs_of(&[9]))],
            },
            Request::BuySample {
                session: 3,
                dataset: 0,
                rate: 0.25,
                key: attrs_of(&[5]),
            },
            Request::Execute {
                session: 3,
                dataset: 1,
                attrs: a.clone(),
            },
            Request::Repin { session: 3 },
            Request::Stats,
            Request::CloseSession { session: 3 },
            Request::Hello {
                version: PROTOCOL_VERSION,
                features: SERVER_FEATURES,
            },
            Request::Resume {
                token: 0xFACE_FEED_DEAD_BEEF,
            },
        ] {
            request_roundtrip(&req);
        }
    }

    #[test]
    fn every_reply_opcode_roundtrips() {
        let cases: Vec<(Opcode, Reply)> = vec![
            (
                Opcode::OpenSession,
                Reply::Ok(Response::OpenSession {
                    session: 8,
                    version: 2,
                    token: 0xABCD_EF01_2345_6789,
                }),
            ),
            (Opcode::Quote, Reply::Ok(Response::Quote { price: 1.75 })),
            (
                Opcode::QuoteBatch,
                Reply::Ok(Response::QuoteBatch {
                    prices: vec![0.5, 2.0, 0.5],
                }),
            ),
            (
                Opcode::BuySample,
                Reply::Ok(Response::BuySample {
                    price: 0.25,
                    rows: 60,
                    digest: 0xDEAD_BEEF,
                }),
            ),
            (
                Opcode::Execute,
                Reply::Ok(Response::Execute {
                    price: 1.0,
                    rows: 40,
                    digest: 1,
                }),
            ),
            (Opcode::Repin, Reply::Ok(Response::Repin { version: 3 })),
            (
                Opcode::Stats,
                Reply::Ok(Response::Stats(StatsSnapshot {
                    sessions_open: 1,
                    sessions_opened: 2,
                    sessions_closed: 3,
                    sessions_rejected: 4,
                    sessions_peak_open: 5,
                    connections_accepted: 6,
                    connections_rejected: 7,
                    requests_served: 8,
                    rate_limited: 9,
                    protocol_errors: 10,
                    timeouts: 11,
                    resumes: 12,
                    replay_hits: 13,
                    leases_reclaimed: 14,
                })),
            ),
            (
                Opcode::CloseSession,
                Reply::Ok(Response::CloseSession {
                    seed: 7,
                    version: 1,
                    purchases: 4,
                    spent: 3.25,
                    remaining: 0.75,
                }),
            ),
            (
                Opcode::Quote,
                Reply::Fault(Fault {
                    code: FaultCode::Market,
                    message: "marketplace: unknown dataset: D9".to_string(),
                }),
            ),
            (
                Opcode::BuySample,
                Reply::Fault(Fault {
                    code: FaultCode::Budget,
                    message: "over budget".to_string(),
                }),
            ),
            (
                Opcode::Hello,
                Reply::Ok(Response::Hello {
                    version: PROTOCOL_VERSION,
                    features: SERVER_FEATURES,
                }),
            ),
            (
                Opcode::ResumeSession,
                Reply::Ok(Response::Resume {
                    session: 8,
                    version: 2,
                    purchases: 5,
                }),
            ),
            (Opcode::ResumeSession, Reply::Fault(Fault::unknown_token())),
            (Opcode::ResumeSession, Reply::Fault(Fault::session_busy())),
            (Opcode::Hello, Reply::Fault(Fault::unsupported_version(0))),
        ];
        for (op, reply) in &cases {
            reply_roundtrip(*op, reply);
        }
    }

    #[test]
    fn open_reply_carries_the_token() {
        let reply = Reply::Ok(Response::OpenSession {
            session: 8,
            version: 3,
            token: 0xABCD_EF01_2345_6789,
        });
        let mut buf = Vec::new();
        encode_reply_v(
            &mut buf,
            PROTOCOL_VERSION,
            9,
            Opcode::OpenSession as u16,
            &reply,
        );
        let h = peek_header(&buf, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
        assert_eq!(h.version, PROTOCOL_VERSION);
        assert_eq!(
            h.payload_len,
            1 + 3 * 8,
            "status + session + version + token"
        );
        assert_eq!(
            decode_reply_v(h.version, h.opcode, &buf[HEADER_LEN..]).unwrap(),
            reply
        );
    }

    #[test]
    fn header_version_is_accepted_and_surfaced() {
        let mut buf = Vec::new();
        encode_request_v(&mut buf, PROTOCOL_VERSION, 1, &Request::Stats);
        let h = peek_header(&buf, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
        assert_eq!(h.version, PROTOCOL_VERSION);
        buf[4..6].copy_from_slice(&0u16.to_le_bytes());
        assert_eq!(
            peek_header(&buf, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadVersion(0))
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let req = Request::Quote {
            session: 5,
            dataset: 1,
            attrs: attrs_of(&[1, 2, 3]),
        };
        assert_eq!(frame_of_request(11, &req), frame_of_request(11, &req));
        let reply = Reply::Ok(Response::Quote { price: 0.125 });
        assert_eq!(
            frame_of_reply(11, Opcode::Quote as u16, &reply),
            frame_of_reply(11, Opcode::Quote as u16, &reply)
        );
    }

    #[test]
    fn truncated_header_asks_for_more_bytes() {
        let buf = frame_of_request(1, &Request::Repin { session: 0 });
        for n in 0..HEADER_LEN {
            assert_eq!(peek_header(&buf[..n], DEFAULT_MAX_PAYLOAD), Ok(None));
        }
    }

    #[test]
    fn garbage_magic_and_version_are_clean_errors() {
        let mut buf = frame_of_request(1, &Request::Stats);
        buf[0] = b'X';
        assert!(matches!(
            peek_header(&buf, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadMagic(_))
        ));
        for version in [1u16, 9] {
            let mut buf = frame_of_request(1, &Request::Stats);
            buf[4..6].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                peek_header(&buf, DEFAULT_MAX_PAYLOAD),
                Err(WireError::BadVersion(version))
            );
            // A reply decoded at any version but the protocol's is refused
            // the same way.
            assert_eq!(
                decode_reply_v(version, Opcode::Stats as u16 | RESP_BIT, &[0]),
                Err(WireError::BadVersion(version))
            );
        }
    }

    #[test]
    fn oversized_payload_length_is_rejected_at_the_header() {
        let mut buf = frame_of_request(1, &Request::Stats);
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            peek_header(&buf, 1024),
            Err(WireError::PayloadTooLarge {
                len: u32::MAX,
                cap: 1024
            })
        );
    }

    #[test]
    fn unknown_opcode_is_a_clean_error() {
        assert_eq!(
            decode_request(0x7777, &[]),
            Err(WireError::UnknownOpcode(0x7777))
        );
        assert_eq!(
            decode_reply_v(PROTOCOL_VERSION, 0x0005, &[0]),
            Err(WireError::UnknownOpcode(5))
        );
    }

    #[test]
    fn truncated_and_trailing_payloads_are_clean_errors() {
        let buf = frame_of_request(
            1,
            &Request::Quote {
                session: 1,
                dataset: 0,
                attrs: attrs_of(&[1, 2]),
            },
        );
        let payload = &buf[HEADER_LEN..];
        for n in 0..payload.len() {
            assert_eq!(
                decode_request(Opcode::Quote as u16, &payload[..n]),
                Err(WireError::Truncated),
                "cut at {n}"
            );
        }
        let mut extended = payload.to_vec();
        extended.push(0);
        assert_eq!(
            decode_request(Opcode::Quote as u16, &extended),
            Err(WireError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn hostile_counts_cannot_force_allocation() {
        // A Quote payload declaring 65535 attrs but carrying none: the count
        // is checked against the bytes present before any Vec is reserved.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_u32(&mut payload, 0);
        put_u16(&mut payload, u16::MAX);
        assert_eq!(
            decode_request(Opcode::Quote as u16, &payload),
            Err(WireError::Truncated)
        );
        // Same for a QuoteBatch declaring u32::MAX items.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_u32(&mut payload, u32::MAX);
        assert_eq!(
            decode_request(Opcode::QuoteBatch as u16, &payload),
            Err(WireError::Truncated)
        );
        // And a batch-quote reply declaring u32::MAX prices.
        let mut payload = vec![0u8];
        put_u32(&mut payload, u32::MAX);
        assert_eq!(
            decode_reply_v(
                PROTOCOL_VERSION,
                Opcode::QuoteBatch as u16 | RESP_BIT,
                &payload
            ),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn bad_status_bytes_are_clean_errors() {
        assert_eq!(
            decode_reply_v(
                PROTOCOL_VERSION,
                Opcode::Quote as u16 | RESP_BIT,
                &[99, 0, 0, 0, 0]
            ),
            Err(WireError::Malformed("unknown fault code"))
        );
        // A fault message that is not UTF-8.
        let mut payload = vec![FaultCode::Market as u8];
        put_u32(&mut payload, 2);
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            decode_reply_v(PROTOCOL_VERSION, Opcode::Quote as u16 | RESP_BIT, &payload),
            Err(WireError::Malformed("non-UTF-8 message"))
        );
    }

    #[test]
    fn table_digest_tracks_content() {
        let t1 = Table::from_rows(
            "wd",
            &[("wd_k", ValueType::Int), ("wd_v", ValueType::Str)],
            (0..10)
                .map(|i| vec![Value::Int(i), Value::str(format!("v{i}"))])
                .collect(),
        )
        .unwrap();
        let t2 = Table::from_rows(
            "wd",
            &[("wd_k", ValueType::Int), ("wd_v", ValueType::Str)],
            (0..10)
                .map(|i| vec![Value::Int(i), Value::str(format!("v{i}"))])
                .collect(),
        )
        .unwrap();
        assert_eq!(table_digest(&t1), table_digest(&t2));
        let t3 = Table::from_rows(
            "wd",
            &[("wd_k", ValueType::Int), ("wd_v", ValueType::Str)],
            (0..10)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::str(if i == 9 { "x".into() } else { format!("v{i}") }),
                    ]
                })
                .collect(),
        )
        .unwrap();
        assert_ne!(table_digest(&t1), table_digest(&t3));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_attrs() -> impl Strategy<Value = AttrSet> {
            prop::collection::vec(0u32..64, 0..6)
                .prop_map(|ids| AttrSet::from_ids(ids.into_iter().map(AttrId)))
        }

        proptest! {
            /// encode → decode is the identity for every request opcode.
            #[test]
            fn request_roundtrip_holds(
                op in 0usize..10,
                session in 0u64..u64::MAX,
                seed in 0u64..u64::MAX,
                dataset in 0u32..1000,
                rate in 0.0f64..1.0,
                attrs in arb_attrs(),
                more in arb_attrs(),
            ) {
                let req = match op {
                    0 => Request::OpenSession { shopper: session, seed, budget: rate * 100.0 },
                    1 => Request::Quote { session, dataset, attrs },
                    2 => Request::QuoteBatch {
                        session,
                        items: vec![(DatasetId(dataset), attrs), (DatasetId(dataset / 2), more)],
                    },
                    3 => Request::BuySample { session, dataset, rate, key: attrs },
                    4 => Request::Execute { session, dataset, attrs },
                    5 => Request::Repin { session },
                    6 => Request::Stats,
                    7 => Request::CloseSession { session },
                    8 => Request::Hello {
                        version: (seed % 7) as u16,
                        features: dataset,
                    },
                    _ => Request::Resume { token: session },
                };
                let mut buf = Vec::new();
                encode_request_v(&mut buf, PROTOCOL_VERSION, seed, &req);
                let h = peek_header(&buf, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
                prop_assert_eq!(h.request_id, seed);
                prop_assert_eq!(buf.len(), HEADER_LEN + h.payload_len as usize);
                let back = decode_request(h.opcode, &buf[HEADER_LEN..]).unwrap();
                prop_assert_eq!(back, req);
            }

            /// encode → decode is the identity for replies, success and fault.
            #[test]
            fn reply_roundtrip_holds(
                op in 0usize..10,
                a in 0u64..u64::MAX,
                b in 0u64..u64::MAX,
                price in 0.0f64..1e6,
                n in 0u32..10,
                fault_kind in 0usize..7,
            ) {
                let (opcode, resp) = match op {
                    0 => (Opcode::OpenSession, Response::OpenSession {
                        session: a,
                        version: b,
                        token: b ^ a,
                    }),
                    1 => (Opcode::Quote, Response::Quote { price }),
                    2 => (Opcode::QuoteBatch, Response::QuoteBatch {
                        prices: (0..n).map(|i| price + i as f64).collect(),
                    }),
                    3 => (Opcode::BuySample, Response::BuySample { price, rows: a, digest: b }),
                    4 => (Opcode::Execute, Response::Execute { price, rows: a, digest: b }),
                    5 => (Opcode::Repin, Response::Repin { version: b }),
                    6 => (Opcode::Stats, Response::Stats(StatsSnapshot {
                        sessions_open: a, requests_served: b, replay_hits: a ^ b,
                        ..StatsSnapshot::default()
                    })),
                    7 => (Opcode::CloseSession, Response::CloseSession {
                        seed: a, version: b, purchases: n, spent: price, remaining: price / 2.0,
                    }),
                    8 => (Opcode::Hello, Response::Hello {
                        version: (a % 8) as u16,
                        features: n,
                    }),
                    _ => (Opcode::ResumeSession, Response::Resume {
                        session: a, version: b, purchases: n,
                    }),
                };
                let reply = match fault_kind {
                    0 => Reply::Fault(Fault { code: FaultCode::Rejected, message: "rl".to_string() }),
                    1 => Reply::Fault(Fault { code: FaultCode::AtCapacity, message: format!("{a}/{b}") }),
                    2 => Reply::Fault(Fault { code: FaultCode::Budget, message: format!("{price}") }),
                    3 => Reply::Fault(Fault { code: FaultCode::Market, message: "unknown".to_string() }),
                    4 => Reply::Fault(Fault { code: FaultCode::Protocol, message: String::new() }),
                    5 => Reply::Fault(Fault::unknown_session(a)),
                    _ => Reply::Ok(resp),
                };
                let mut buf = Vec::new();
                encode_reply_v(&mut buf, PROTOCOL_VERSION, a, opcode as u16, &reply);
                let h = peek_header(&buf, DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
                prop_assert_eq!(h.version, PROTOCOL_VERSION);
                prop_assert_eq!(h.opcode, opcode as u16 | RESP_BIT);
                let back = decode_reply_v(h.version, h.opcode, &buf[HEADER_LEN..]).unwrap();
                prop_assert_eq!(back, reply);
            }
        }
    }
}
