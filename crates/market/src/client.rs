//! `market::client` — a blocking client for the [`crate::wire`] protocol
//! with bounded retries, automatic reconnect-and-resume, and optional
//! fault injection, used by the integration tests, the load harness and
//! the serving benches.
//!
//! The client separates **queueing** from **flushing** so callers can
//! pipeline: [`WireClient::queue`] encodes a request into the send buffer
//! and returns its request id, [`WireClient::flush`] writes the whole batch
//! in one syscall, and [`WireClient::recv_reply`] pops responses one at a
//! time (in arrival order, which the server guarantees equals request order
//! per connection). [`WireClient::call`] is the await-one convenience.
//!
//! **Deadlines.** Every receive path runs under a read deadline (default
//! [`DEFAULT_READ_TIMEOUT`], settable via
//! [`WireClientBuilder::read_timeout`]): a hung or dead-silent server
//! surfaces as [`WireError::Timeout`] wrapped in an `io::Error` of kind
//! `TimedOut` instead of blocking forever.
//!
//! **Handshake.** Every client speaks [`wire::PROTOCOL_VERSION`] and opens
//! its connection with a `Hello` ([`WireClient::connect`] is shorthand for
//! `builder(addr).connect()`). It remembers the
//! [`crate::session::SessionToken`] of every session it opens.
//!
//! **Connection-level faults.** A server that sheds a connection (full
//! accept backlog) or loses its framing answers with one fault frame under
//! request id 0 and closes. [`WireClient::call`] and the handshake turn that
//! frame into an `io::Error` of kind `ConnectionAborted` carrying the
//! fault's text; [`WireClient::recv_reply`] returns it as it came, under
//! id 0.
//!
//! **Resilience.** With a [`RetryPolicy`] attached, [`WireClient::call`]
//! becomes an exactly-once retry loop: each attempt runs under
//! `op_timeout`, failures tear the connection down and reconnect
//! (re-`Hello`, then `ResumeSession` for every remembered token), attempts
//! are bounded, and the backoff between them is exponential with
//! deterministic seeded jitter (the same [`splitmix64`] + golden-ratio
//! recipe the session layer's purchase seeds use — two clients with the
//! same policy seed back off identically). Retried requests reuse their
//! original request id, so the server's replay cache answers duplicates
//! with the recorded bytes and a purchase is never charged twice.
//!
//! Handshake and resumption frames draw their request ids from a separate
//! control-id space ([`CTRL_ID_BASE`] upward) so the *logical* id sequence
//! (1, 2, 3…) is a pure function of the caller's call sequence no matter
//! how many reconnects happened in between — which is what keeps a chaos
//! run's recorded transcript byte-identical to the fault-free run (see
//! `tests/chaos_sweep.rs`).
//!
//! With recording on ([`WireClientBuilder::recording`]), every raw response
//! frame returned to the caller is appended to an in-memory transcript —
//! the byte string the determinism contract is stated over (see
//! `tests/wire_service.rs`). Control frames, connection-level faults and
//! discarded stale duplicates are never recorded.

use crate::chaos::{ChaosConfig, ChaosStream, Transport};
use crate::wire::{self, FaultCode, Reply, Request, Response, WireError, HEADER_LEN};
use dance_relation::hash::splitmix64;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Default read deadline for [`WireClient::recv_reply`] /
/// [`WireClient::call`] when no [`RetryPolicy`] narrows it.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// First request id of the control-frame id space (`Hello`,
/// `ResumeSession`). Logical requests count 1, 2, 3… from below; the two
/// spaces can never collide.
pub const CTRL_ID_BASE: u64 = 1 << 63;

/// The request id of a connection-level fault frame: the server's answer
/// to a shed connection or lost framing, sent before it closes. Neither id
/// space above ever assigns it.
const CONN_FAULT_ID: u64 = 0;

/// Golden-ratio stride of the backoff-jitter sequence (the `splitmix64`
/// recipe shared with `purchase_seed` and `chain_seed`).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Bounded-retry configuration for [`WireClient::call`].
///
/// `attempts` bounds the whole loop (first try included); every attempt
/// runs under `op_timeout`; the pause before attempt `k` is
/// `min(base_backoff · 2^(k−1), max_backoff)` scaled by a deterministic
/// jitter factor in `[½, 1]` drawn from `splitmix64(seed ⊕ k·GOLDEN)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per logical request, first try included (≥ 1).
    pub attempts: u32,
    /// Read deadline for one attempt's reply.
    pub op_timeout: Duration,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            op_timeout: Duration::from_secs(2),
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(250),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The jittered pause before retry `attempt` (1-based): exponential in
    /// the attempt, capped, scaled into `[½, 1]` by the seeded stream.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let nanos = raw.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        let draw = splitmix64(self.seed ^ (attempt as u64).wrapping_mul(GOLDEN));
        let jittered = nanos / 2 + draw % (nanos / 2 + 1);
        Duration::from_nanos(jittered)
    }
}

/// The client's transport: a plain socket, or one wrapped in a seeded
/// fault injector.
#[derive(Debug)]
enum Conn {
    Plain(TcpStream),
    Chaos(ChaosStream<TcpStream>),
}

impl Conn {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Plain(s) => Transport::set_read_timeout(s, dur),
            Conn::Chaos(s) => Transport::set_read_timeout(s, dur),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Plain(s) => s.read(buf),
            Conn::Chaos(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Plain(s) => s.write(buf),
            Conn::Chaos(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Plain(s) => s.flush(),
            Conn::Chaos(s) => s.flush(),
        }
    }
}

fn establish(addr: SocketAddr, chaos: Option<ChaosConfig>, salt: u64) -> io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(match chaos {
        None => Conn::Plain(stream),
        Some(cfg) => Conn::Chaos(ChaosStream::new(stream, cfg.derive(salt))),
    })
}

/// Configures and connects a [`WireClient`]. Every client performs the
/// `Hello` handshake on connect and receives a resumption token with every
/// opened session.
#[derive(Debug)]
pub struct WireClientBuilder {
    addr: Option<SocketAddr>,
    record: bool,
    chaos: Option<ChaosConfig>,
    retry: Option<RetryPolicy>,
    read_timeout: Duration,
}

impl WireClientBuilder {
    /// Record every response frame returned to the caller into the
    /// transcript.
    pub fn recording(mut self) -> Self {
        self.record = true;
        self
    }

    /// Inject deterministic faults into this client's transport: the first
    /// connection runs under `cfg.derive(0)`, reconnect `k` under
    /// `cfg.derive(k)`.
    pub fn chaos(mut self, cfg: ChaosConfig) -> Self {
        self.chaos = Some(cfg);
        self
    }

    /// Attach a bounded retry/reconnect policy to [`WireClient::call`].
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Read deadline for receive paths not governed by a retry policy.
    pub fn read_timeout(mut self, dur: Duration) -> Self {
        self.read_timeout = dur;
        self
    }

    /// Connect and handshake. With a retry policy, the handshake itself is
    /// retried over fresh connections within the policy's attempt bound.
    pub fn connect(self) -> io::Result<WireClient> {
        let addr = self.addr.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address did not resolve")
        })?;
        let conn = establish(addr, self.chaos, 0)?;
        let mut c = WireClient {
            stream: conn,
            addr,
            chaos: self.chaos,
            retry: self.retry,
            read_timeout: self.read_timeout,
            stream_timeout: None,
            send: Vec::with_capacity(4 * 1024),
            recv: Vec::with_capacity(16 * 1024),
            next_id: 1,
            next_ctrl_id: CTRL_ID_BASE,
            broken: false,
            reconnects: 0,
            record: self.record,
            transcript: Vec::new(),
            tokens: BTreeMap::new(),
            closing: BTreeMap::new(),
        };
        let policy = c.retry.unwrap_or(RetryPolicy {
            attempts: 1,
            op_timeout: c.read_timeout,
            ..RetryPolicy::default()
        });
        let mut last: Option<io::Error> = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(policy.backoff(attempt));
                if c.broken {
                    if let Err(e) = c.raw_reconnect() {
                        last = Some(e);
                        continue;
                    }
                }
            }
            match c.hello() {
                Ok(_) => return Ok(c),
                Err(e) => {
                    c.broken = true;
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(timeout_error))
    }
}

/// A blocking, pipelining-capable wire client over one TCP connection
/// (which it transparently re-establishes under a [`RetryPolicy`]).
#[derive(Debug)]
pub struct WireClient {
    stream: Conn,
    addr: SocketAddr,
    chaos: Option<ChaosConfig>,
    retry: Option<RetryPolicy>,
    read_timeout: Duration,
    /// The read timeout currently set on the socket, so the hot receive
    /// path only pays the setsockopt when the deadline actually changes.
    stream_timeout: Option<Duration>,
    send: Vec<u8>,
    recv: Vec<u8>,
    next_id: u64,
    next_ctrl_id: u64,
    /// The connection is known dead; the next retry attempt reconnects.
    broken: bool,
    reconnects: u64,
    record: bool,
    transcript: Vec<u8>,
    /// Session id → resumption token for every session opened through
    /// this client and not yet closed (sorted, so resumption order is
    /// deterministic).
    tokens: BTreeMap<u64, u64>,
    /// Request id → session of every `CloseSession` sent and not yet
    /// answered. Its `Ok` reply forgets the session's token; a retry reuses
    /// the id, so a close whose reply was lost keeps its session resumable.
    closing: BTreeMap<u64, u64>,
}

fn protocol_io_error(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn timeout_error() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, WireError::Timeout)
}

/// The server's transient "session attached to another connection" answer.
fn is_session_busy(reply: &Reply) -> bool {
    matches!(reply.fault(), Some(f) if f.code == FaultCode::Rejected && *f == wire::Fault::session_busy())
}

impl WireClient {
    /// Connect and handshake with the default settings: no recording, no
    /// chaos, no retries. Shorthand for `builder(addr).connect()`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<WireClient> {
        WireClient::builder(addr).connect()
    }

    /// Start configuring a client.
    pub fn builder(addr: impl ToSocketAddrs) -> WireClientBuilder {
        WireClientBuilder {
            addr: addr.to_socket_addrs().ok().and_then(|mut it| it.next()),
            record: false,
            chaos: None,
            retry: None,
            read_timeout: DEFAULT_READ_TIMEOUT,
        }
    }

    /// The raw response-frame transcript recorded so far.
    pub fn transcript(&self) -> &[u8] {
        &self.transcript
    }

    /// The most recently assigned logical request id (0 before the first).
    pub fn last_id(&self) -> u64 {
        self.next_id - 1
    }

    /// Connections re-established by the retry layer.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Encode `req` into the send buffer (no I/O) and return the request id
    /// it will be answered under. Ids are assigned 1, 2, 3… per client —
    /// control frames (handshake/resume) draw from a disjoint space — so
    /// the logical id sequence is deterministic.
    pub fn queue(&mut self, req: &Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.encode(id, req);
        id
    }

    /// Append `req` to the send buffer under `request_id`, remembering which
    /// session a `CloseSession` closes.
    fn encode(&mut self, request_id: u64, req: &Request) {
        if let Request::CloseSession { session } = req {
            self.closing.insert(request_id, *session);
        }
        wire::encode_request_v(&mut self.send, wire::PROTOCOL_VERSION, request_id, req);
    }

    /// Re-encode `req` under an already-assigned request id and flush it —
    /// an explicit retry. The server answers the duplicate id from the
    /// session's replay cache with the originally recorded bytes.
    pub fn resend(&mut self, request_id: u64, req: &Request) -> io::Result<()> {
        self.encode(request_id, req);
        self.flush()
    }

    /// Write every queued frame in one batch.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.send.is_empty() {
            self.stream.write_all(&self.send)?;
            self.send.clear();
        }
        Ok(())
    }

    /// Ensure the socket's read timeout equals `dur` (skipping the syscall
    /// when it already does).
    fn set_stream_timeout(&mut self, dur: Duration) -> io::Result<()> {
        let dur = dur.max(Duration::from_millis(1));
        if self.stream_timeout != Some(dur) {
            self.stream.set_read_timeout(Some(dur))?;
            self.stream_timeout = Some(dur);
        }
        Ok(())
    }

    /// Block until one complete frame heads the receive buffer (deadline
    /// `deadline`), returning its header and total length. The frame stays
    /// in the buffer for [`WireClient::take_reply`] or a discarding drain.
    fn next_frame(&mut self, deadline: Duration) -> io::Result<(wire::FrameHeader, usize)> {
        let start = Instant::now();
        let mut scratch = [0u8; 16 * 1024];
        let mut first = true;
        while first || start.elapsed() < deadline {
            first = false;
            if let Some(h) = wire::peek_header(&self.recv, wire::DEFAULT_MAX_PAYLOAD)
                .map_err(protocol_io_error)?
            {
                let frame_len = HEADER_LEN + h.payload_len as usize;
                if self.recv.len() >= frame_len {
                    return Ok((h, frame_len));
                }
            }
            let remaining = deadline.saturating_sub(start.elapsed());
            if remaining.is_zero() {
                break;
            }
            self.set_stream_timeout(remaining)?;
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.recv.extend_from_slice(&scratch[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break
                }
                Err(e) => return Err(e),
            }
        }
        Err(timeout_error())
    }

    /// Decode the complete frame heading the receive buffer, draining it,
    /// and record it when `record` accepts the decoded reply. Learns
    /// resumption tokens from `OpenSession` replies as they pass through, and
    /// forgets a session's token once its `CloseSession` is answered `Ok`.
    fn take_reply(
        &mut self,
        h: &wire::FrameHeader,
        frame_len: usize,
        record: fn(&Reply) -> bool,
    ) -> io::Result<Reply> {
        let reply = wire::decode_reply_v(h.version, h.opcode, &self.recv[HEADER_LEN..frame_len])
            .map_err(protocol_io_error)?;
        if self.record && h.request_id < CTRL_ID_BASE && record(&reply) {
            self.transcript.extend_from_slice(&self.recv[..frame_len]);
        }
        self.recv.drain(..frame_len);
        if let Reply::Ok(Response::OpenSession { session, token, .. }) = &reply {
            self.tokens.insert(*session, *token);
        }
        // A busy close is retried under the same id; any other answer ends it.
        if !is_session_busy(&reply) {
            if let Some(session) = self.closing.remove(&h.request_id) {
                if reply.ok().is_some() {
                    self.tokens.remove(&session);
                }
            }
        }
        Ok(reply)
    }

    /// Drain the connection-level frame heading the receive buffer (request
    /// id [`CONN_FAULT_ID`]: the server's last word before it closes a shed
    /// or unframeable connection) and turn it into an error carrying the
    /// fault's text. Never recorded.
    fn connection_fault(&mut self, h: &wire::FrameHeader, frame_len: usize) -> io::Error {
        let reply = wire::decode_reply_v(h.version, h.opcode, &self.recv[HEADER_LEN..frame_len]);
        self.recv.drain(..frame_len);
        match reply {
            Ok(Reply::Fault(f)) => io::Error::new(io::ErrorKind::ConnectionAborted, f.to_string()),
            Ok(Reply::Ok(_)) => protocol_io_error(WireError::Malformed(
                "success reply under the connection-level request id",
            )),
            Err(e) => protocol_io_error(e),
        }
    }

    /// Block until one complete response frame is available and decode it,
    /// returning `(request id, reply)`. Returns a `TimedOut` error wrapping
    /// [`WireError::Timeout`] once the read deadline expires.
    pub fn recv_reply(&mut self) -> io::Result<(u64, Reply)> {
        let (h, frame_len) = self.next_frame(self.read_timeout)?;
        let reply = self.take_reply(&h, frame_len, |_| true)?;
        Ok((h.request_id, reply))
    }

    /// Await the reply for `request_id` under `deadline`, draining (without
    /// recording) stale frames from earlier timed-out attempts; `record`
    /// decides whether the reply itself enters the transcript. A
    /// connection-level fault ends the wait with its text.
    fn await_reply(
        &mut self,
        request_id: u64,
        deadline: Duration,
        record: fn(&Reply) -> bool,
    ) -> io::Result<Reply> {
        let start = Instant::now();
        let mut first = true;
        while first || start.elapsed() < deadline {
            first = false;
            let remaining = deadline.saturating_sub(start.elapsed());
            let (h, frame_len) = self.next_frame(remaining.max(Duration::from_millis(1)))?;
            if h.request_id == CONN_FAULT_ID {
                return Err(self.connection_fault(&h, frame_len));
            }
            if h.request_id != request_id {
                // A stale duplicate (or a reply the caller abandoned on a
                // previous timeout): server replays are byte-identical, so
                // dropping it loses nothing.
                self.recv.drain(..frame_len);
                continue;
            }
            return self.take_reply(&h, frame_len, record);
        }
        Err(timeout_error())
    }

    /// Send one request and block for its reply. Without a [`RetryPolicy`]
    /// this is the depth-1 convenience over `queue`/`flush`/`recv_reply`: a
    /// connection-level fault comes back as an error carrying its text, and
    /// any other reply under a different id panics (`call` is only valid
    /// with no other requests in flight). With a policy, failures reconnect,
    /// resume and retry under the original request id, bounded by
    /// `attempts`; so does a [`Fault::session_busy`] answer, which is never
    /// recorded.
    ///
    /// [`Fault::session_busy`]: wire::Fault::session_busy
    pub fn call(&mut self, req: &Request) -> io::Result<Reply> {
        match self.retry {
            None => {
                let id = self.queue(req);
                self.flush()?;
                let (h, frame_len) = self.next_frame(self.read_timeout)?;
                if h.request_id == CONN_FAULT_ID {
                    return Err(self.connection_fault(&h, frame_len));
                }
                assert_eq!(h.request_id, id, "call() used with requests in flight");
                self.take_reply(&h, frame_len, |_| true)
            }
            Some(policy) => self.call_with_retry(req, policy),
        }
    }

    fn call_with_retry(&mut self, req: &Request, policy: RetryPolicy) -> io::Result<Reply> {
        let id = self.next_id;
        self.next_id += 1;
        let mut last: Option<io::Error> = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(policy.backoff(attempt));
            }
            if self.broken {
                if let Err(e) = self.reconnect(&policy) {
                    last = Some(e);
                    continue;
                }
            }
            self.send.clear();
            self.encode(id, req);
            if let Err(e) = self.flush() {
                self.broken = true;
                last = Some(e);
                continue;
            }
            match self.await_reply(id, policy.op_timeout, |r| !is_session_busy(r)) {
                Ok(reply) if is_session_busy(&reply) => {
                    // A retried `OpenSession` reached this connection while
                    // the session is still attached to the one that failed:
                    // back off on this connection until the server parks it,
                    // as `resume_one` does. The fault-free run never sees
                    // this frame, so it stays out of the transcript.
                    last = Some(io::Error::new(
                        io::ErrorKind::ResourceBusy,
                        wire::Fault::session_busy().to_string(),
                    ));
                }
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // Timeouts reconnect too: the attempt's fate is
                    // ambiguous, and the replay cache makes the retry safe.
                    self.broken = true;
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(timeout_error))
    }

    /// The deadline control exchanges run under: the retry policy's
    /// per-attempt timeout if one is set, else the client read deadline.
    fn ctrl_deadline(&self) -> Duration {
        self.retry.map_or(self.read_timeout, |p| p.op_timeout)
    }

    /// Run the `Hello` handshake: offer [`wire::PROTOCOL_VERSION`] and all
    /// feature bits, and return `(version, features)` as granted by the
    /// server.
    pub fn hello(&mut self) -> io::Result<(u16, u32)> {
        let id = self.next_ctrl_id;
        self.next_ctrl_id += 1;
        self.encode(
            id,
            &Request::Hello {
                version: wire::PROTOCOL_VERSION,
                features: wire::SERVER_FEATURES,
            },
        );
        self.flush()?;
        let deadline = self.ctrl_deadline();
        match self.await_reply(id, deadline, |_| false)? {
            Reply::Ok(Response::Hello { version, features }) => Ok((version, features)),
            Reply::Fault(f) => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                f.to_string(),
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected hello reply: {other:?}"),
            )),
        }
    }

    /// Tear down and re-establish the transport without handshaking.
    fn raw_reconnect(&mut self) -> io::Result<()> {
        self.reconnects += 1;
        self.stream = establish(self.addr, self.chaos, self.reconnects)?;
        self.stream_timeout = None;
        self.recv.clear();
        self.send.clear();
        self.broken = false;
        Ok(())
    }

    /// Reconnect fully: fresh transport, re-`Hello`, and `ResumeSession`
    /// for every remembered token (in session-id order). Any failure marks
    /// the connection broken again for the caller's bounded loop.
    fn reconnect(&mut self, policy: &RetryPolicy) -> io::Result<()> {
        self.raw_reconnect()?;
        let r = self.handshake_and_resume(policy);
        if r.is_err() {
            self.broken = true;
        }
        r
    }

    fn handshake_and_resume(&mut self, policy: &RetryPolicy) -> io::Result<()> {
        self.hello()?;
        let tokens: Vec<(u64, u64)> = self.tokens.iter().map(|(s, t)| (*s, *t)).collect();
        for (session, token) in tokens {
            self.resume_one(session, token, policy)?;
        }
        Ok(())
    }

    /// Re-attach one parked session, retrying `session busy` answers (the
    /// dead connection's worker may not have parked it yet) within the
    /// policy's attempt bound.
    fn resume_one(&mut self, session: u64, token: u64, policy: &RetryPolicy) -> io::Result<()> {
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(policy.backoff(attempt));
            }
            let id = self.next_ctrl_id;
            self.next_ctrl_id += 1;
            self.encode(id, &Request::Resume { token });
            self.flush()?;
            match self.await_reply(id, policy.op_timeout, |_| false)? {
                Reply::Ok(Response::Resume { .. }) => return Ok(()),
                Reply::Fault(f) if f.code == FaultCode::Rejected => {
                    // Still attached to the dying connection; back off and
                    // let its worker park the session.
                }
                Reply::Fault(_) => {
                    // Unknown or expired token: the session was closed or
                    // reclaimed — nothing left to resume.
                    self.tokens.remove(&session);
                    return Ok(());
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected resume reply: {other:?}"),
                    ))
                }
            }
        }
        Err(timeout_error())
    }

    /// Queue a frame with an explicit raw opcode and payload — for tests
    /// exercising the server's hostile-input handling.
    pub fn send_raw_frame(&mut self, opcode: u16, request_id: u64, payload: &[u8]) {
        let start = self.send.len();
        self.send.extend_from_slice(&wire::MAGIC.to_le_bytes());
        self.send
            .extend_from_slice(&wire::PROTOCOL_VERSION.to_le_bytes());
        self.send.extend_from_slice(&opcode.to_le_bytes());
        self.send.extend_from_slice(&request_id.to_le_bytes());
        self.send
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.send.extend_from_slice(payload);
        debug_assert_eq!(self.send.len() - start, HEADER_LEN + payload.len());
    }

    /// Queue arbitrary bytes verbatim — for tests sending garbage.
    pub fn send_raw_bytes(&mut self, bytes: &[u8]) {
        self.send.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use crate::session::{SessionManager, SessionManagerConfig};
    use crate::{EntropyPricing, Marketplace};
    use dance_relation::{Table, Value, ValueType};
    use std::sync::Arc;

    fn server() -> Server {
        let t = Table::from_rows(
            "cl_a",
            &[("cl_k", ValueType::Int)],
            (0..20).map(|i| vec![Value::Int(i % 4)]).collect(),
        )
        .unwrap();
        let market = Arc::new(Marketplace::new(vec![t], EntropyPricing::default()));
        let mgr = SessionManager::new(
            market,
            SessionManagerConfig {
                max_sessions: 16,
                lease_secs: Some(30.0),
                token_secret: Some((0xC1, 0xC2)),
            },
        );
        Server::start(Arc::new(mgr), ServerConfig::default()).unwrap()
    }

    fn open(c: &mut WireClient, shopper: u64) -> u64 {
        let reply = c
            .call(&Request::OpenSession {
                shopper,
                seed: shopper,
                budget: 10.0,
            })
            .unwrap();
        match reply {
            Reply::Ok(Response::OpenSession { session, .. }) => session,
            other => panic!("expected open, got {other:?}"),
        }
    }

    /// Kill the transport and let the retry path reconnect, as after a dead
    /// connection. Returns the control frames the reconnect sent: one
    /// `Hello`, then one `ResumeSession` per remembered session (plus any
    /// retries of a busy one).
    fn force_reconnect(c: &mut WireClient) -> u64 {
        let before = c.next_ctrl_id;
        c.broken = true;
        let reply = c.call(&Request::Stats).unwrap();
        assert!(reply.ok().is_some(), "expected stats, got {reply:?}");
        c.next_ctrl_id - before
    }

    #[test]
    fn closed_sessions_are_forgotten_and_in_flight_closes_resume() {
        let server = server();
        let mut c = WireClient::builder(server.addr())
            .retry(RetryPolicy {
                attempts: 40,
                op_timeout: Duration::from_secs(2),
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(50),
                seed: 3,
            })
            .connect()
            .unwrap();
        for shopper in 0..6 {
            let session = open(&mut c, shopper);
            let closed = c.call(&Request::CloseSession { session }).unwrap();
            assert!(closed.ok().is_some(), "expected close, got {closed:?}");
        }
        assert!(c.tokens.is_empty() && c.closing.is_empty());
        assert_eq!(force_reconnect(&mut c), 1, "a Hello and no ResumeSession");

        // A close still in the send buffer when the connection dies: the
        // session stays resumable, and the retried close forgets it.
        let session = open(&mut c, 9);
        let close = Request::CloseSession { session };
        let close_id = c.queue(&close);
        let resumes = server.stats().resumes;
        assert!(force_reconnect(&mut c) >= 2, "a Hello and a ResumeSession");
        assert_eq!(server.stats().resumes, resumes + 1);
        c.resend(close_id, &close).unwrap();
        let (id, closed) = c.recv_reply().unwrap();
        assert_eq!(id, close_id);
        assert!(closed.ok().is_some(), "expected close, got {closed:?}");
        assert!(c.tokens.is_empty() && c.closing.is_empty());
        assert_eq!(force_reconnect(&mut c), 1, "a Hello and no ResumeSession");
        server.shutdown();
    }
}
