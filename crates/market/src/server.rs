//! `market::server` — a multi-worker TCP server exposing the acquisition
//! session service over the [`crate::wire`] protocol.
//!
//! Architecture (std-only, no async runtime):
//!
//! * one **acceptor** thread takes connections off a `TcpListener` and
//!   pushes them onto a bounded backlog queue — when the queue is full it
//!   answers the connection with a single `Rejected` fault frame and drops
//!   it;
//! * a fixed pool of **worker** threads pops connections and serves each to
//!   completion. One connection is owned by one worker at a time, so the
//!   sessions opened on it live in plain worker-local state and the session
//!   layer stays lock-free.
//!
//! **Pipelining:** a client may keep many requests in flight on one
//! connection. The worker drains every complete frame from the receive
//! buffer, handles them in arrival order, and writes all responses back in
//! one batch — responses carry the client's request id and are written in
//! completion order (which, on a single connection, equals request order, so
//! transcripts stay deterministic).
//!
//! **Hot path allocation:** each connection owns a receive buffer, a send
//! buffer and a fixed stack scratch block, all reused across requests — a
//! CI grep-guard keeps per-request allocation and string formatting out of
//! this file (fault-message construction lives in [`crate::wire`]).
//!
//! **Admission control** beyond the session manager's hard `AtCapacity`:
//! per-shopper token buckets (configurable rate + burst; `Stats` requests
//! are exempt) answer over-limit requests with `Rejected` faults rather
//! than hangs, and the bounded accept backlog sheds load at the edge. All
//! of it is surfaced in [`StatsSnapshot`] via [`Server::stats`].
//!
//! **Framing:** every frame is read and answered at
//! [`wire::PROTOCOL_VERSION`]; a header with any other version loses the
//! framing just as bad magic does. Connection-level fault frames (backlog
//! rejection, lost framing) carry request id 0. A `Hello` is answered
//! whenever it arrives but is not required before other requests.
//!
//! **Resilience:** every session survives its connection. When a
//! connection dies, its sessions are **parked** in a token registry (if the
//! manager has an idle lease configured) and a fresh connection re-attaches
//! them with `ResumeSession` + the [`crate::session::SessionToken`] from
//! the open reply; parked sessions whose lease expires are reclaimed,
//! releasing their capacity slot. Every session carries a bounded **replay
//! cache** keyed by request id plus a digest of the request bytes (ids
//! restart when a fresh client resumes a parked session, so the id alone is
//! not a request identity): a retried mutating op (`BuySample`/`Execute`…)
//! after an ambiguous failure is answered with the recorded reply bytes
//! instead of re-executing, so the ledger is never double-charged — and
//! retried `CloseSession` frames (and, under a lease, `OpenSession` frames)
//! are deduplicated the same way through the shared registry. Mid-frame
//! read stalls and slow writes are bounded by [`ServerConfig::io_deadline`]
//! so a slow-loris peer cannot pin a worker (idle connections between
//! frames are unaffected). Workers are generic over [`Transport`], and
//! [`ServerConfig::chaos`] splices a seeded fault-injecting [`ChaosStream`]
//! under every accepted connection for deterministic failure testing.

use crate::chaos::{ChaosConfig, ChaosStream, Transport};
use crate::session::{Session, SessionConfig, SessionManager};
use crate::wire::{
    self, Fault, Reply, Request, Response, StatsSnapshot, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-shopper rate limit: a token bucket refilled at `per_sec`, holding at
/// most `burst` tokens; every request except `Stats` costs one token.
#[derive(Debug, Clone, Copy)]
pub struct RateLimit {
    /// Sustained requests/second per shopper.
    pub per_sec: f64,
    /// Burst capacity (initial fill and cap).
    pub burst: f64,
}

/// Server knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded accept-backlog capacity (connections waiting for a worker).
    /// A connection arriving at a full backlog is answered with one
    /// `Rejected` fault frame and dropped.
    pub backlog: usize,
    /// Optional per-shopper token-bucket rate limit.
    pub rate_limit: Option<RateLimit>,
    /// Frame payload cap enforced at the header.
    pub max_payload: u32,
    /// Slow-loris bound: a connection that leaves a frame incomplete in the
    /// receive buffer (or blocks a response write) longer than this is
    /// closed and counted in [`StatsSnapshot::timeouts`]. Connections idle
    /// *between* frames are never timed out.
    pub io_deadline: Duration,
    /// Deterministic fault injection: wrap every accepted connection in a
    /// [`ChaosStream`] seeded per connection from this config.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            backlog: 64,
            rate_limit: None,
            max_payload: DEFAULT_MAX_PAYLOAD,
            io_deadline: Duration::from_secs(5),
            chaos: None,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    requests_served: AtomicU64,
    rate_limited: AtomicU64,
    protocol_errors: AtomicU64,
    timeouts: AtomicU64,
    resumes: AtomicU64,
    replay_hits: AtomicU64,
}

#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn try_take(&mut self, now: Instant, limit: &RateLimit) -> bool {
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * limit.per_sec).min(limit.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Bounded per-session cache of encoded reply frames keyed by request id
/// *and* a digest of the request bytes — the exactly-once half of the retry
/// contract. The digest matters after a resume: a fresh client re-attaching
/// to a parked session restarts its id sequence, so a new request can wear
/// an id the dead connection already used. Only a true retry — same id,
/// same bytes — replays. Evicted entries donate their buffers to new ones,
/// so a steady-state session allocates nothing here.
#[derive(Debug, Default)]
struct ReplayCache {
    entries: VecDeque<(u64, u64, Vec<u8>)>,
}

/// Replies remembered per session for retried request ids.
const REPLAY_CAP: usize = 64;

impl ReplayCache {
    fn get(&self, request_id: u64, digest: u64) -> Option<&[u8]> {
        self.entries
            .iter()
            .rev()
            .find(|(id, d, _)| *id == request_id && *d == digest)
            .map(|(_, _, frame)| frame.as_slice())
    }

    fn put(&mut self, request_id: u64, digest: u64, frame: &[u8]) {
        let mut buf = if self.entries.len() >= REPLAY_CAP {
            self.entries
                .pop_front()
                .map(|(_, _, b)| b)
                .unwrap_or_default()
        } else {
            Vec::with_capacity(frame.len())
        };
        buf.clear();
        buf.extend_from_slice(frame);
        self.entries.push_back((request_id, digest, buf));
    }
}

/// FNV-1a over the request payload, seeded with the opcode: the identity a
/// retried frame must reproduce (besides its id) to be answered from a
/// replay cache instead of re-executed.
fn request_digest(opcode: u16, payload: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ u64::from(opcode);
    for &b in payload {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A session detached from its (dead) connection, waiting out its lease
/// for a `ResumeSession`.
#[derive(Debug)]
struct Parked {
    shopper: u64,
    session: Session,
    replay: ReplayCache,
    since: Instant,
}

/// Where a resumable session currently lives.
#[derive(Debug)]
enum TokenEntry {
    /// Owned by the worker serving connection `conn`.
    Attached {
        /// Owning connection id.
        conn: u64,
    },
    /// Orphaned; resumable until its lease expires.
    Parked(Box<Parked>),
}

/// One remembered `OpenSession` outcome, for retried opens.
#[derive(Debug)]
struct OpenRecord {
    token: u64,
    digest: u64,
    frame: Vec<u8>,
}

/// One remembered `CloseSession` outcome (a tombstone), for retried closes
/// after the session is gone.
#[derive(Debug)]
struct CloseRecord {
    request_id: u64,
    digest: u64,
    frame: Vec<u8>,
}

/// Retried opens remembered across the whole server (FIFO-bounded).
const OPEN_DEDUP_CAP: usize = 1024;

/// Close tombstones remembered across the whole server (FIFO-bounded).
const CLOSE_DEDUP_CAP: usize = 1024;

/// The resumption registry: token → session location, plus the
/// server-level exactly-once records for opens and closes. One mutex,
/// touched only on open/close/resume/park/sweep — never on the quote or
/// purchase hot path.
#[derive(Debug, Default)]
struct Registry {
    tokens: HashMap<u64, TokenEntry>,
    opens: HashMap<(u64, u64), OpenRecord>,
    open_order: VecDeque<(u64, u64)>,
    closes: HashMap<u64, CloseRecord>,
    close_order: VecDeque<u64>,
}

impl Registry {
    fn record_open(&mut self, key: (u64, u64), token: u64, digest: u64, frame: &[u8]) {
        let mut buf = if self.open_order.len() >= OPEN_DEDUP_CAP {
            match self.open_order.pop_front() {
                Some(old) => self.opens.remove(&old).map(|r| r.frame).unwrap_or_default(),
                None => Vec::with_capacity(frame.len()),
            }
        } else {
            Vec::with_capacity(frame.len())
        };
        buf.clear();
        buf.extend_from_slice(frame);
        if self
            .opens
            .insert(
                key,
                OpenRecord {
                    token,
                    digest,
                    frame: buf,
                },
            )
            .is_none()
        {
            self.open_order.push_back(key);
        }
    }

    fn record_close(&mut self, session: u64, request_id: u64, digest: u64, frame: &[u8]) {
        let mut buf = if self.close_order.len() >= CLOSE_DEDUP_CAP {
            match self.close_order.pop_front() {
                Some(old) => self
                    .closes
                    .remove(&old)
                    .map(|r| r.frame)
                    .unwrap_or_default(),
                None => Vec::with_capacity(frame.len()),
            }
        } else {
            Vec::with_capacity(frame.len())
        };
        buf.clear();
        buf.extend_from_slice(frame);
        if self
            .closes
            .insert(
                session,
                CloseRecord {
                    request_id,
                    digest,
                    frame: buf,
                },
            )
            .is_none()
        {
            self.close_order.push_back(session);
        }
    }
}

/// State shared by the acceptor, the workers and the [`Server`] handle.
#[derive(Debug)]
struct Shared {
    mgr: Arc<SessionManager>,
    cfg: ServerConfig,
    stop: AtomicBool,
    queue: Mutex<VecDeque<(u64, TcpStream)>>,
    not_empty: Condvar,
    counters: Counters,
    buckets: Mutex<HashMap<u64, TokenBucket>>,
    registry: Mutex<Registry>,
    next_conn: AtomicU64,
}

impl Shared {
    fn stats(&self) -> StatsSnapshot {
        // A stats read doubles as a lease sweep, so `sessions_open` never
        // counts sessions whose lease has already lapsed.
        sweep_leases(self);
        let m = self.mgr.stats();
        StatsSnapshot {
            sessions_open: m.open as u64,
            sessions_opened: m.opened as u64,
            sessions_closed: m.closed as u64,
            sessions_rejected: m.rejected as u64,
            sessions_peak_open: m.peak_open as u64,
            connections_accepted: self.counters.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.counters.connections_rejected.load(Ordering::Relaxed),
            requests_served: self.counters.requests_served.load(Ordering::Relaxed),
            rate_limited: self.counters.rate_limited.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            timeouts: self.counters.timeouts.load(Ordering::Relaxed),
            resumes: self.counters.resumes.load(Ordering::Relaxed),
            replay_hits: self.counters.replay_hits.load(Ordering::Relaxed),
            leases_reclaimed: m.reclaimed as u64,
        }
    }

    /// Charge one token to `shopper`'s bucket; `true` means admitted.
    fn admit(&self, shopper: u64) -> bool {
        let Some(limit) = self.cfg.rate_limit else {
            return true;
        };
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap();
        let bucket = buckets.entry(shopper).or_insert(TokenBucket {
            tokens: limit.burst,
            last: now,
        });
        bucket.try_take(now, &limit)
    }
}

/// Reclaim parked sessions whose idle lease has expired. Dropping the
/// parked entry drops its [`Session`], which releases the capacity slot.
fn sweep_leases(shared: &Shared) {
    let Some(lease) = shared.mgr.lease() else {
        return;
    };
    let now = Instant::now();
    let mut reg = shared.registry.lock().unwrap();
    let before = reg.tokens.len();
    reg.tokens.retain(|_, entry| match entry {
        TokenEntry::Parked(p) => now.duration_since(p.since) < lease,
        TokenEntry::Attached { .. } => true,
    });
    let reclaimed = before - reg.tokens.len();
    drop(reg);
    shared.mgr.record_reclaimed(reclaimed);
}

/// A running wire server over one [`SessionManager`]. Dropping the handle
/// without [`Server::shutdown`] leaves the threads running detached — call
/// `shutdown` for a clean stop.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind a loopback listener on an ephemeral port and start the acceptor
    /// plus `cfg.workers` worker threads.
    pub fn start(mgr: Arc<SessionManager>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            mgr,
            cfg,
            stop: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::with_capacity(cfg.backlog)),
            not_empty: Condvar::new(),
            counters: Counters::default(),
            buckets: Mutex::new(HashMap::with_capacity(64)),
            registry: Mutex::new(Registry::default()),
            next_conn: AtomicU64::new(1),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        };
        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for _ in 0..cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Combined service counters: session-manager stats plus the server's
    /// connection/request/admission counters. Reading stats also sweeps
    /// expired leases.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats()
    }

    /// Stop accepting, wake every thread, join them all, and return the
    /// final counters. In-flight connections notice the stop flag at their
    /// next read-timeout tick (≤ ~50ms) and close.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept with a throwaway connect.
        drop(TcpStream::connect(self.addr));
        // Take the queue lock once so no thread can miss the wakeup between
        // its stop-check and its condvar wait.
        drop(self.shared.queue.lock().unwrap());
        self.shared.not_empty.notify_all();
        if let Some(a) = self.acceptor.take() {
            drop(a.join());
        }
        for w in self.workers.drain(..) {
            drop(w.join());
        }
        self.shared.stats()
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    loop {
        let conn = listener.accept();
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let Ok((stream, _)) = conn else { continue };
        let mut q = shared.queue.lock().unwrap();
        if q.len() >= shared.cfg.backlog {
            drop(q);
            shared
                .counters
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            reject_connection(stream);
            continue;
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        q.push_back((conn_id, stream));
        drop(q);
        shared
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        shared.not_empty.notify_one();
    }
}

/// Append a fault reply to the request `request_id` with raw `opcode`.
fn encode_fault(send: &mut Vec<u8>, request_id: u64, opcode: u16, fault: Fault) {
    wire::encode_reply_v(
        send,
        wire::PROTOCOL_VERSION,
        request_id,
        opcode,
        &Reply::Fault(fault),
    );
}

/// Answer a shed connection with one connection-level `Rejected` frame
/// (request id 0, fault-only opcode) so the client sees a clean refusal
/// instead of a silent close.
fn reject_connection(mut stream: TcpStream) {
    use std::io::Write;
    let mut frame = Vec::with_capacity(64);
    encode_fault(
        &mut frame,
        0,
        0,
        Fault::rejected("accept backlog full; retry later"),
    );
    drop(stream.write_all(&frame));
}

fn worker_loop(shared: &Shared) {
    while let Some((conn_id, stream)) = next_connection(shared) {
        drop(stream.set_nodelay(true));
        match shared.cfg.chaos {
            None => serve_connection(shared, stream, conn_id),
            Some(chaos) => serve_connection(
                shared,
                ChaosStream::new(stream, chaos.derive(conn_id)),
                conn_id,
            ),
        }
    }
}

fn next_connection(shared: &Shared) -> Option<(u64, TcpStream)> {
    let mut q = shared.queue.lock().unwrap();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return None;
        }
        if let Some(conn) = q.pop_front() {
            return Some(conn);
        }
        q = shared.not_empty.wait(q).unwrap();
    }
}

/// One shopper session opened over this connection. Its replies are
/// remembered for retry dedup, and it parks on disconnect when a lease is
/// configured.
struct ConnSession {
    shopper: u64,
    session: Session,
    /// The session's resumption token.
    token: u64,
    replay: ReplayCache,
}

/// Serve one connection to completion, then hand its surviving sessions to
/// the parking registry.
fn serve_connection<S: Transport>(shared: &Shared, mut stream: S, conn_id: u64) {
    let mut sessions: HashMap<u64, ConnSession> = HashMap::with_capacity(4);
    drive_connection(shared, &mut stream, conn_id, &mut sessions);
    park_connection(shared, conn_id, sessions);
}

/// The connection's read/handle/write loop: read, drain every complete
/// frame, write all responses back in one batch, repeat. The receive/send
/// buffers and the scratch block are reused for the connection's whole
/// lifetime. A frame left incomplete longer than `io_deadline` (or a write
/// that blocks that long) closes the connection as a slow-loris timeout.
fn drive_connection<S: Transport>(
    shared: &Shared,
    stream: &mut S,
    conn_id: u64,
    sessions: &mut HashMap<u64, ConnSession>,
) {
    drop(stream.set_read_timeout(Some(Duration::from_millis(50))));
    drop(stream.set_write_timeout(Some(shared.cfg.io_deadline)));
    let mut recv: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut send: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut scratch = [0u8; 16 * 1024];
    // When the receive buffer holds a frame prefix, this is the moment the
    // slow-loris clock started; `None` while the buffer sits empty between
    // frames, so idle connections are never timed out.
    let mut partial_since: Option<Instant> = None;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(n) => recv.extend_from_slice(&scratch[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if expired(partial_since, shared.cfg.io_deadline) {
                    shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let mut consumed = 0;
        loop {
            match wire::peek_header(&recv[consumed..], shared.cfg.max_payload) {
                Ok(None) => break,
                Ok(Some(h)) => {
                    let frame_len = HEADER_LEN + h.payload_len as usize;
                    if recv.len() - consumed < frame_len {
                        break;
                    }
                    let payload = &recv[consumed + HEADER_LEN..consumed + frame_len];
                    handle_frame(shared, &h, payload, conn_id, sessions, &mut send);
                    consumed += frame_len;
                }
                Err(e) => {
                    // Framing is lost (bad magic/version/length): answer with
                    // one connection-level protocol fault and close — there
                    // is no way to resynchronize the stream.
                    shared
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    encode_fault(&mut send, 0, 0, Fault::protocol(&e));
                    drop(stream.write_all(&send));
                    return;
                }
            }
        }
        recv.drain(..consumed);
        if recv.is_empty() {
            partial_since = None;
        } else if consumed > 0 || partial_since.is_none() {
            // A fresh partial frame (or forward progress past complete
            // frames) restarts the clock.
            partial_since = Some(Instant::now());
        } else if expired(partial_since, shared.cfg.io_deadline) {
            // Bytes are trickling in but the frame still is not complete:
            // the drip-feed variant of slow-loris.
            shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if !send.is_empty() {
            if let Err(e) = stream.write_all(&send) {
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                {
                    shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            send.clear();
        }
    }
}

fn expired(since: Option<Instant>, deadline: Duration) -> bool {
    since.is_some_and(|t0| t0.elapsed() >= deadline)
}

/// Park the connection's surviving sessions in the registry when a lease
/// is configured; otherwise they drop here (releasing capacity slots
/// immediately).
fn park_connection(shared: &Shared, conn_id: u64, sessions: HashMap<u64, ConnSession>) {
    if sessions.is_empty() || shared.mgr.lease().is_none() {
        return;
    }
    let now = Instant::now();
    let mut reg = shared.registry.lock().unwrap();
    for (_, cs) in sessions {
        if let Some(TokenEntry::Attached { conn }) = reg.tokens.get(&cs.token) {
            if *conn == conn_id {
                reg.tokens.insert(
                    cs.token,
                    TokenEntry::Parked(Box::new(Parked {
                        shopper: cs.shopper,
                        session: cs.session,
                        replay: cs.replay,
                        since: now,
                    })),
                );
            }
        }
    }
}

/// What the post-encode bookkeeping must remember about a dispatched
/// request (exactly-once records).
enum Recorded {
    Nothing,
    Open { shopper: u64, token: u64 },
    Op { session: u64 },
    Close { session: u64, token: u64 },
}

enum OpenDedup {
    Hit,
    Busy,
    Miss,
}

/// Move the session parked under `token` into connection `conn_id`'s
/// `sessions` and mark the token attached to that connection. The caller
/// holds the registry lock and has seen `token` parked.
fn reattach(
    reg: &mut Registry,
    token: u64,
    conn_id: u64,
    sessions: &mut HashMap<u64, ConnSession>,
) {
    let Some(TokenEntry::Parked(parked)) = reg
        .tokens
        .insert(token, TokenEntry::Attached { conn: conn_id })
    else {
        unreachable!("reattach is only called on a parked token");
    };
    let Parked {
        shopper,
        session,
        replay,
        ..
    } = *parked;
    sessions.insert(
        session.id().0,
        ConnSession {
            shopper,
            session,
            token,
            replay,
        },
    );
}

/// Answer a retried `OpenSession` from the registry: re-attach the
/// session if the original connection's death parked it, then replay the
/// recorded open frame byte-for-byte.
fn try_dedup_open(
    shared: &Shared,
    conn_id: u64,
    shopper: u64,
    request_id: u64,
    digest: u64,
    sessions: &mut HashMap<u64, ConnSession>,
    send: &mut Vec<u8>,
) -> OpenDedup {
    sweep_leases(shared);
    let mut reg = shared.registry.lock().unwrap();
    let key = (shopper, request_id);
    let Some(rec) = reg.opens.get(&key) else {
        return OpenDedup::Miss;
    };
    if rec.digest != digest {
        // Same id, different bytes: a new client reusing a low id, not a
        // retry. Open fresh; the record is overwritten on success.
        return OpenDedup::Miss;
    }
    let token = rec.token;
    let attached = match reg.tokens.get(&token) {
        Some(TokenEntry::Attached { conn }) if *conn == conn_id => true,
        Some(TokenEntry::Attached { .. }) => return OpenDedup::Busy,
        Some(TokenEntry::Parked(_)) => {
            reattach(&mut reg, token, conn_id, sessions);
            true
        }
        // The session was closed or its lease reclaimed it: replaying the
        // open would resurrect a dead id, so fall through to a fresh open.
        None => false,
    };
    if !attached {
        return OpenDedup::Miss;
    }
    if let Some(rec) = reg.opens.get(&key) {
        send.extend_from_slice(&rec.frame);
        shared.counters.replay_hits.fetch_add(1, Ordering::Relaxed);
        return OpenDedup::Hit;
    }
    OpenDedup::Miss
}

/// Decode and execute one request frame, appending the response to `send`.
fn handle_frame(
    shared: &Shared,
    h: &wire::FrameHeader,
    payload: &[u8],
    conn_id: u64,
    sessions: &mut HashMap<u64, ConnSession>,
    send: &mut Vec<u8>,
) {
    let (opcode, request_id) = (h.opcode, h.request_id);
    let req = match wire::decode_request(opcode, payload) {
        Ok(req) => req,
        Err(e) => {
            // The frame boundary is intact (header was valid), so a payload
            // decode error faults this request and keeps the connection.
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            encode_fault(send, request_id, opcode, Fault::protocol(&e));
            return;
        }
    };
    shared
        .counters
        .requests_served
        .fetch_add(1, Ordering::Relaxed);

    // What a retried frame must reproduce to be answered from a replay
    // cache: the id alone is not enough once resumption lets a fresh
    // client (whose ids restart at 1) inherit a session.
    let digest = request_digest(opcode, payload);

    // Exactly-once interception: a retried request id is answered with the
    // recorded reply bytes — no re-execution, no second ledger charge,
    // bit-identical frames.
    match &req {
        Request::OpenSession { shopper, .. } => {
            match try_dedup_open(
                shared, conn_id, *shopper, request_id, digest, sessions, send,
            ) {
                OpenDedup::Hit => return,
                OpenDedup::Busy => {
                    encode_fault(send, request_id, opcode, Fault::session_busy());
                    return;
                }
                OpenDedup::Miss => {}
            }
        }
        Request::Quote { session, .. }
        | Request::QuoteBatch { session, .. }
        | Request::BuySample { session, .. }
        | Request::Execute { session, .. }
        | Request::Repin { session }
        | Request::CloseSession { session } => {
            if let Some(cs) = sessions.get(session) {
                if let Some(frame) = cs.replay.get(request_id, digest) {
                    shared.counters.replay_hits.fetch_add(1, Ordering::Relaxed);
                    send.extend_from_slice(frame);
                    return;
                }
            } else if matches!(req, Request::CloseSession { .. }) {
                let reg = shared.registry.lock().unwrap();
                if let Some(rec) = reg.closes.get(session) {
                    if rec.request_id == request_id && rec.digest == digest {
                        shared.counters.replay_hits.fetch_add(1, Ordering::Relaxed);
                        send.extend_from_slice(&rec.frame);
                        return;
                    }
                }
            }
        }
        _ => {}
    }

    // Admission: every request except Stats and the control frames
    // (Hello/Resume) costs one token from the bucket of the shopper it
    // acts for.
    let shopper = match &req {
        Request::OpenSession { shopper, .. } => Some(*shopper),
        Request::Stats | Request::Hello { .. } | Request::Resume { .. } => None,
        Request::Quote { session, .. }
        | Request::QuoteBatch { session, .. }
        | Request::BuySample { session, .. }
        | Request::Execute { session, .. }
        | Request::Repin { session }
        | Request::CloseSession { session } => match sessions.get(session) {
            Some(cs) => Some(cs.shopper),
            None => {
                encode_fault(send, request_id, opcode, Fault::unknown_session(*session));
                return;
            }
        },
    };
    if let Some(shopper) = shopper {
        if !shared.admit(shopper) {
            shared.counters.rate_limited.fetch_add(1, Ordering::Relaxed);
            encode_fault(
                send,
                request_id,
                opcode,
                Fault::rejected("shopper rate limit exceeded; retry later"),
            );
            return;
        }
    }

    let mut record = Recorded::Nothing;
    let reply = match req {
        Request::OpenSession {
            shopper,
            seed,
            budget,
        } => {
            // Reclaim lapsed leases before the capacity check, so parked
            // corpses never crowd out live shoppers.
            sweep_leases(shared);
            match shared.mgr.open(SessionConfig { budget, seed }) {
                Ok(session) => {
                    let id = session.id().0;
                    let version = session.pinned_version();
                    let token = shared.mgr.session_token(session.id()).0;
                    if shared.mgr.lease().is_some() {
                        record = Recorded::Open { shopper, token };
                    }
                    sessions.insert(
                        id,
                        ConnSession {
                            shopper,
                            session,
                            token,
                            replay: ReplayCache::default(),
                        },
                    );
                    Reply::Ok(Response::OpenSession {
                        session: id,
                        version,
                        token,
                    })
                }
                Err(e) => Reply::Fault(Fault::from_session_error(&e)),
            }
        }
        Request::Quote {
            session,
            dataset,
            attrs,
        } => {
            let cs = sessions.get(&session).expect("checked above");
            record = Recorded::Op { session };
            match cs.session.quote(crate::catalog::DatasetId(dataset), &attrs) {
                Ok(price) => Reply::Ok(Response::Quote { price }),
                Err(e) => Reply::Fault(Fault::from_session_error(&e)),
            }
        }
        Request::QuoteBatch { session, items } => {
            let cs = sessions.get(&session).expect("checked above");
            record = Recorded::Op { session };
            match cs.session.quote_batch(&items) {
                Ok(prices) => Reply::Ok(Response::QuoteBatch { prices }),
                Err(e) => Reply::Fault(Fault::from_session_error(&e)),
            }
        }
        Request::BuySample {
            session,
            dataset,
            rate,
            key,
        } => {
            let cs = sessions.get_mut(&session).expect("checked above");
            record = Recorded::Op { session };
            match cs
                .session
                .buy_sample(crate::catalog::DatasetId(dataset), &key, rate)
            {
                Ok((table, price)) => Reply::Ok(Response::BuySample {
                    price,
                    rows: table.num_rows() as u64,
                    digest: wire::table_digest(&table),
                }),
                Err(e) => Reply::Fault(Fault::from_session_error(&e)),
            }
        }
        Request::Execute {
            session,
            dataset,
            attrs,
        } => {
            let cs = sessions.get_mut(&session).expect("checked above");
            record = Recorded::Op { session };
            match cs
                .session
                .execute_by_id(crate::catalog::DatasetId(dataset), &attrs)
            {
                Ok((table, price)) => Reply::Ok(Response::Execute {
                    price,
                    rows: table.num_rows() as u64,
                    digest: wire::table_digest(&table),
                }),
                Err(e) => Reply::Fault(Fault::from_session_error(&e)),
            }
        }
        Request::Repin { session } => {
            let cs = sessions.get_mut(&session).expect("checked above");
            record = Recorded::Op { session };
            Reply::Ok(Response::Repin {
                version: cs.session.repin(),
            })
        }
        Request::Stats => Reply::Ok(Response::Stats(shared.stats())),
        Request::CloseSession { session } => {
            let cs = sessions.remove(&session).expect("checked above");
            record = Recorded::Close {
                session,
                token: cs.token,
            };
            let report = shared.mgr.close(cs.session);
            Reply::Ok(Response::CloseSession {
                seed: report.seed,
                version: report.catalog_version,
                purchases: report.purchases.len() as u32,
                spent: report.spent,
                remaining: report.remaining,
            })
        }
        Request::Hello { version, features } => {
            if version < wire::PROTOCOL_VERSION {
                Reply::Fault(Fault::unsupported_version(version))
            } else {
                Reply::Ok(Response::Hello {
                    version: wire::PROTOCOL_VERSION,
                    features: features & wire::SERVER_FEATURES,
                })
            }
        }
        Request::Resume { token } => {
            sweep_leases(shared);
            let mut reg = shared.registry.lock().unwrap();
            let hit = match reg.tokens.get(&token) {
                None => None,
                Some(TokenEntry::Attached { conn }) if *conn == conn_id => {
                    // Idempotent: the session already lives here (e.g. a
                    // retried resume whose reply was lost).
                    Some(None)
                }
                Some(TokenEntry::Attached { .. }) => Some(Some(Fault::session_busy())),
                Some(TokenEntry::Parked(_)) => {
                    reattach(&mut reg, token, conn_id, sessions);
                    shared.counters.resumes.fetch_add(1, Ordering::Relaxed);
                    Some(None)
                }
            };
            drop(reg);
            match hit {
                None => Reply::Fault(Fault::unknown_token()),
                Some(Some(busy)) => Reply::Fault(busy),
                Some(None) => match sessions.values().find(|cs| cs.token == token) {
                    Some(cs) => Reply::Ok(Response::Resume {
                        session: cs.session.id().0,
                        version: cs.session.pinned_version(),
                        purchases: cs.session.ledger().len() as u32,
                    }),
                    None => Reply::Fault(Fault::unknown_token()),
                },
            }
        }
    };
    let frame_start = send.len();
    wire::encode_reply_v(send, wire::PROTOCOL_VERSION, request_id, opcode, &reply);
    match record {
        Recorded::Nothing => {}
        Recorded::Open { shopper, token } => {
            if reply.ok().is_some() {
                let mut reg = shared.registry.lock().unwrap();
                reg.tokens
                    .insert(token, TokenEntry::Attached { conn: conn_id });
                reg.record_open((shopper, request_id), token, digest, &send[frame_start..]);
            }
        }
        Recorded::Op { session } => {
            if let Some(cs) = sessions.get_mut(&session) {
                cs.replay.put(request_id, digest, &send[frame_start..]);
            }
        }
        Recorded::Close { session, token } => {
            let mut reg = shared.registry.lock().unwrap();
            reg.tokens.remove(&token);
            reg.record_close(session, request_id, digest, &send[frame_start..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::WireClient;
    use crate::pricing::EntropyPricing;
    use crate::session::SessionManagerConfig;
    use crate::Marketplace;
    use dance_relation::{AttrSet, Table, Value, ValueType};

    #[test]
    fn replay_cache_discriminates_reused_ids_by_digest() {
        let mut cache = ReplayCache::default();
        cache.put(2, 0xAAAA, b"first");
        assert_eq!(cache.get(2, 0xAAAA), Some(&b"first"[..]));
        assert_eq!(cache.get(2, 0xBBBB), None, "same id, different bytes");
        cache.put(2, 0xBBBB, b"second");
        assert_eq!(cache.get(2, 0xBBBB), Some(&b"second"[..]));
        assert_eq!(cache.get(2, 0xAAAA), Some(&b"first"[..]));
        assert_ne!(
            request_digest(5, b"abc"),
            request_digest(6, b"abc"),
            "opcode seeds the digest"
        );
    }

    fn service(max_sessions: usize) -> Arc<SessionManager> {
        service_with(SessionManagerConfig {
            max_sessions,
            ..SessionManagerConfig::default()
        })
    }

    fn service_with(cfg: SessionManagerConfig) -> Arc<SessionManager> {
        let t = Table::from_rows(
            "sv_a",
            &[("sv_k", ValueType::Int), ("sv_x", ValueType::Str)],
            (0..60)
                .map(|i| vec![Value::Int(i % 6), Value::str(format!("x{}", i % 4))])
                .collect(),
        )
        .unwrap();
        let market = Arc::new(Marketplace::new(vec![t], EntropyPricing::default()));
        Arc::new(SessionManager::new(market, cfg))
    }

    fn key(names: &[&str]) -> AttrSet {
        AttrSet::from_names(names.iter().copied())
    }

    #[test]
    fn end_to_end_session_over_the_wire() {
        let mgr = service(8);
        let server = Server::start(Arc::clone(&mgr), ServerConfig::default()).unwrap();
        let mut client = WireClient::connect(server.addr()).unwrap();

        let open = client
            .call(&Request::OpenSession {
                shopper: 1,
                seed: 7,
                budget: 100.0,
            })
            .unwrap();
        let Reply::Ok(Response::OpenSession {
            session, version, ..
        }) = open
        else {
            panic!("expected open, got {open:?}");
        };
        assert_eq!(version, 0);

        let quote = client
            .call(&Request::Quote {
                session,
                dataset: 0,
                attrs: key(&["sv_x"]),
            })
            .unwrap();
        let Reply::Ok(Response::Quote { price }) = quote else {
            panic!("expected quote, got {quote:?}");
        };
        assert!(price > 0.0);

        let bought = client
            .call(&Request::BuySample {
                session,
                dataset: 0,
                rate: 0.5,
                key: key(&["sv_k"]),
            })
            .unwrap();
        let Reply::Ok(Response::BuySample { price, rows, .. }) = bought else {
            panic!("expected sample, got {bought:?}");
        };
        assert!(price > 0.0 && rows > 0);

        let closed = client.call(&Request::CloseSession { session }).unwrap();
        let Reply::Ok(Response::CloseSession {
            purchases, spent, ..
        }) = closed
        else {
            panic!("expected close, got {closed:?}");
        };
        assert_eq!(purchases, 1);
        assert!(spent > 0.0);
        // The wire purchase landed in real marketplace revenue.
        assert_eq!(mgr.market().revenue().to_bits(), spent.to_bits());

        let stats = server.shutdown();
        // The connection's Hello plus the four session requests.
        assert_eq!(stats.requests_served, 5);
        assert_eq!(stats.protocol_errors, 0);
        assert_eq!((stats.sessions_opened, stats.sessions_closed), (1, 1));
    }

    #[test]
    fn pipelined_requests_come_back_in_order_with_matching_ids() {
        let mgr = service(8);
        let server = Server::start(mgr, ServerConfig::default()).unwrap();
        let mut client = WireClient::connect(server.addr()).unwrap();
        let open = client
            .call(&Request::OpenSession {
                shopper: 1,
                seed: 7,
                budget: f64::INFINITY,
            })
            .unwrap();
        let Reply::Ok(Response::OpenSession { session, .. }) = open else {
            panic!("expected open");
        };
        // 32 quotes in flight at once.
        let ids: Vec<u64> = (0..32)
            .map(|_| {
                client.queue(&Request::Quote {
                    session,
                    dataset: 0,
                    attrs: key(&["sv_x"]),
                })
            })
            .collect();
        client.flush().unwrap();
        let mut last_price = None;
        for want in ids {
            let (got, reply) = client.recv_reply().unwrap();
            assert_eq!(got, want, "responses arrive in request order");
            let Reply::Ok(Response::Quote { price }) = reply else {
                panic!("expected quote, got {reply:?}");
            };
            if let Some(prev) = last_price.replace(price.to_bits()) {
                assert_eq!(prev, price.to_bits());
            }
        }
        let stats = server.shutdown();
        // Hello, open and the 32 quotes.
        assert_eq!(stats.requests_served, 34);
        assert_eq!(stats.protocol_errors, 0);
    }

    #[test]
    fn unknown_session_and_capacity_fault_cleanly() {
        let mgr = service(1);
        let server = Server::start(mgr, ServerConfig::default()).unwrap();
        let mut client = WireClient::connect(server.addr()).unwrap();

        let reply = client
            .call(&Request::Quote {
                session: 999,
                dataset: 0,
                attrs: key(&["sv_x"]),
            })
            .unwrap();
        assert_eq!(
            reply.fault().map(|f| f.code),
            Some(crate::wire::FaultCode::UnknownSession)
        );

        let open = |c: &mut WireClient| {
            c.call(&Request::OpenSession {
                shopper: 1,
                seed: 1,
                budget: 1.0,
            })
            .unwrap()
        };
        let first = open(&mut client);
        assert!(first.ok().is_some());
        let second = open(&mut client);
        assert_eq!(
            second.fault().map(|f| f.code),
            Some(crate::wire::FaultCode::AtCapacity)
        );
        server.shutdown();
    }

    #[test]
    fn payload_decode_error_faults_but_keeps_the_connection() {
        let mgr = service(8);
        let server = Server::start(mgr, ServerConfig::default()).unwrap();
        let mut client = WireClient::connect(server.addr()).unwrap();
        // A Repin frame whose payload is one byte short of a session id.
        client.send_raw_frame(crate::wire::Opcode::Repin as u16, 5, &[0u8; 7]);
        client.flush().unwrap();
        let (id, reply) = client.recv_reply().unwrap();
        assert_eq!(id, 5);
        assert_eq!(
            reply.fault().map(|f| f.code),
            Some(crate::wire::FaultCode::Protocol)
        );
        // The connection still works.
        let stats = client.call(&Request::Stats).unwrap();
        let Reply::Ok(Response::Stats(s)) = stats else {
            panic!("expected stats");
        };
        assert_eq!(s.protocol_errors, 1);
        server.shutdown();
    }

    #[test]
    fn garbage_magic_gets_a_protocol_fault_then_close() {
        let mgr = service(8);
        let server = Server::start(mgr, ServerConfig::default()).unwrap();
        let mut client = WireClient::connect(server.addr()).unwrap();
        client.send_raw_bytes(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n");
        client.flush().unwrap();
        let (id, reply) = client.recv_reply().unwrap();
        assert_eq!(id, 0, "connection-level fault carries request id 0");
        assert_eq!(
            reply.fault().map(|f| f.code),
            Some(crate::wire::FaultCode::Protocol)
        );
        // The server closed the connection afterwards.
        assert!(client.recv_reply().is_err());
        let stats = server.shutdown();
        assert_eq!(stats.protocol_errors, 1);
    }

    #[test]
    fn call_after_garbage_returns_the_connection_fault_as_an_error() {
        let mgr = service(8);
        let server = Server::start(mgr, ServerConfig::default()).unwrap();
        let mut client = WireClient::connect(server.addr()).unwrap();
        // The garbage goes out in the same write as the Stats request; the
        // server answers the lost framing under request id 0 and closes.
        client.send_raw_bytes(&[0xAB; 20]);
        let err = client.call(&Request::Stats).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
        let text = err.to_string();
        assert!(
            text.contains("Protocol") && text.contains("bad frame magic"),
            "the error carries the fault text: {text}"
        );
        let stats = server.shutdown();
        assert_eq!(stats.protocol_errors, 1);
    }

    #[test]
    fn rate_limited_shoppers_get_rejected_frames_not_hangs() {
        let mgr = service(64);
        let server = Server::start(
            mgr,
            ServerConfig {
                rate_limit: Some(RateLimit {
                    per_sec: 0.0001,
                    burst: 2.0,
                }),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = WireClient::connect(server.addr()).unwrap();
        let open = client
            .call(&Request::OpenSession {
                shopper: 42,
                seed: 1,
                budget: f64::INFINITY,
            })
            .unwrap();
        let Reply::Ok(Response::OpenSession { session, .. }) = open else {
            panic!("expected open");
        };
        // Token 2 of 2 spent on the first quote; the next is rejected.
        assert!(client
            .call(&Request::Quote {
                session,
                dataset: 0,
                attrs: key(&["sv_x"]),
            })
            .unwrap()
            .ok()
            .is_some());
        let rejected = client
            .call(&Request::Quote {
                session,
                dataset: 0,
                attrs: key(&["sv_x"]),
            })
            .unwrap();
        assert_eq!(
            rejected.fault().map(|f| f.code),
            Some(crate::wire::FaultCode::Rejected)
        );
        // Stats is exempt from rate limiting and reports the rejection.
        let stats = client.call(&Request::Stats).unwrap();
        let Reply::Ok(Response::Stats(s)) = stats else {
            panic!("expected stats");
        };
        assert_eq!(s.rate_limited, 1);
        server.shutdown();
    }

    #[test]
    fn full_backlog_rejects_connections_with_a_frame() {
        use std::io::Read;
        let mgr = service(8);
        // No workers able to drain: occupy the single worker with an idle
        // connection, then overflow the 1-slot backlog.
        let server = Server::start(
            mgr,
            ServerConfig {
                workers: 1,
                backlog: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let _occupant = WireClient::connect(server.addr()).unwrap();
        // Give the worker a beat to claim the occupant off the queue, then
        // fill the queue slot and overflow it. A client's handshake needs a
        // free worker, so both later connections are raw streams.
        std::thread::sleep(Duration::from_millis(100));
        let _queued = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let mut shed = TcpStream::connect(server.addr()).unwrap();
        shed.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut frame = Vec::new();
        shed.read_to_end(&mut frame).unwrap();
        let h = wire::peek_header(&frame, DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        assert_eq!(h.request_id, 0);
        assert_eq!(frame.len(), HEADER_LEN + h.payload_len as usize);
        let reply = wire::decode_reply_v(h.version, h.opcode, &frame[HEADER_LEN..]).unwrap();
        assert_eq!(
            reply.fault().map(|f| f.code),
            Some(crate::wire::FaultCode::Rejected)
        );
        // A handshaking client shed the same way reports the fault's text.
        let err = WireClient::connect(server.addr()).unwrap_err();
        assert!(
            err.to_string().contains("accept backlog full"),
            "the error carries the fault text: {err}"
        );
        let stats = server.shutdown();
        assert!(stats.connections_rejected >= 2);
    }

    // --- resilience-layer tests ---

    /// A manager with resumption on: a 30s lease (long enough to never
    /// lapse mid-test) and a pinned token secret.
    fn resilient_service(max_sessions: usize) -> Arc<SessionManager> {
        service_with(SessionManagerConfig {
            max_sessions,
            lease_secs: Some(30.0),
            token_secret: Some((0xA5A5_0001, 0x5C5C_0002)),
        })
    }

    #[test]
    fn hello_negotiates_version_and_features() {
        let mgr = service(8);
        let server = Server::start(mgr, ServerConfig::default()).unwrap();
        let mut client = WireClient::connect(server.addr()).unwrap();
        let (version, features) = client.hello().unwrap();
        assert_eq!(version, wire::PROTOCOL_VERSION);
        assert_eq!(features, wire::SERVER_FEATURES);

        // A futuristic client is answered at the server's newest version;
        // unknown feature bits are masked off.
        let reply = client
            .call(&Request::Hello {
                version: 9,
                features: u32::MAX,
            })
            .unwrap();
        let Reply::Ok(Response::Hello { version, features }) = reply else {
            panic!("expected hello, got {reply:?}");
        };
        assert_eq!(version, wire::PROTOCOL_VERSION);
        assert_eq!(features, wire::SERVER_FEATURES);

        // Any older version gets a Protocol fault.
        for version in [0, 1] {
            let reply = client
                .call(&Request::Hello {
                    version,
                    features: 0,
                })
                .unwrap();
            assert_eq!(
                reply.fault().map(|f| f.code),
                Some(crate::wire::FaultCode::Protocol),
                "version {version}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn open_carries_the_session_token() {
        let mgr = resilient_service(8);
        let server = Server::start(Arc::clone(&mgr), ServerConfig::default()).unwrap();

        let mut client = WireClient::connect(server.addr()).unwrap();
        let open = client
            .call(&Request::OpenSession {
                shopper: 1,
                seed: 7,
                budget: 100.0,
            })
            .unwrap();
        let Reply::Ok(Response::OpenSession { session, token, .. }) = open else {
            panic!("expected open");
        };
        assert_eq!(
            token,
            mgr.session_token(crate::session::SessionId(session)).0,
            "the wire token is the manager's token for this session"
        );
        assert_ne!(token, 0);
        server.shutdown();
    }

    #[test]
    fn killed_connection_resumes_at_pinned_snapshot_with_ledger_intact() {
        let mgr = resilient_service(8);
        let server = Server::start(Arc::clone(&mgr), ServerConfig::default()).unwrap();

        let mut c1 = WireClient::builder(server.addr()).connect().unwrap();
        let open = c1
            .call(&Request::OpenSession {
                shopper: 3,
                seed: 11,
                budget: 100.0,
            })
            .unwrap();
        let Reply::Ok(Response::OpenSession { session, token, .. }) = open else {
            panic!("expected open, got {open:?}");
        };
        let bought = c1
            .call(&Request::BuySample {
                session,
                dataset: 0,
                rate: 0.5,
                key: key(&["sv_k"]),
            })
            .unwrap();
        let Reply::Ok(Response::BuySample { price: p1, .. }) = bought else {
            panic!("expected sample, got {bought:?}");
        };
        // Kill the connection without closing the session.
        drop(c1);

        // A fresh connection re-attaches with the token; the session is at
        // its pinned snapshot with one purchase in the ledger.
        let mut c2 = WireClient::builder(server.addr()).connect().unwrap();
        let resumed = resume_with_retry(&mut c2, token);
        let Reply::Ok(Response::Resume {
            session: rs,
            version,
            purchases,
        }) = resumed
        else {
            panic!("expected resume, got {resumed:?}");
        };
        assert_eq!(rs, session);
        assert_eq!(version, 0);
        assert_eq!(purchases, 1);

        // The second purchase continues the seeded purchase sequence. Its
        // request bytes differ from c1's purchase, so even when c2's fresh
        // id sequence collides with an id c1 already used, the digest check
        // executes it instead of replaying c1's cached reply.
        let bought = c2
            .call(&Request::BuySample {
                session,
                dataset: 0,
                rate: 0.25,
                key: key(&["sv_k", "sv_x"]),
            })
            .unwrap();
        let Reply::Ok(Response::BuySample { price: p2, .. }) = bought else {
            panic!("expected sample, got {bought:?}");
        };
        let closed = c2.call(&Request::CloseSession { session }).unwrap();
        let Reply::Ok(Response::CloseSession {
            purchases, spent, ..
        }) = closed
        else {
            panic!("expected close, got {closed:?}");
        };
        assert_eq!(purchases, 2);
        assert_eq!(spent.to_bits(), (p1 + p2).to_bits());
        assert_eq!(mgr.market().revenue().to_bits(), spent.to_bits());

        let stats = server.shutdown();
        assert_eq!(stats.resumes, 1);
        assert_eq!(stats.sessions_open, 0);
        // A bogus token would have been rejected, not crashed: covered by
        // the fault being UnknownSession below.
    }

    /// Resume, retrying while the dead connection's worker races us to the
    /// park (the server answers `session_busy` until it parks).
    fn resume_with_retry(c: &mut WireClient, token: u64) -> Reply {
        for _ in 0..50 {
            let reply = c.call(&Request::Resume { token }).unwrap();
            match reply.fault() {
                Some(f) if f.code == crate::wire::FaultCode::Rejected => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => return reply,
            }
        }
        panic!("session never parked");
    }

    /// A retried `OpenSession` that reaches a second connection while the
    /// first still holds the session is answered `session_busy`. The retrying
    /// client backs off under the same request id until the first connection
    /// dies and parks the session, then receives the recorded open frame;
    /// the busy frames never reach its transcript.
    #[test]
    fn retried_open_waits_out_session_busy_without_recording_it() {
        let mgr = resilient_service(8);
        let server = Server::start(Arc::clone(&mgr), ServerConfig::default()).unwrap();
        let open = Request::OpenSession {
            shopper: 9,
            seed: 21,
            budget: 100.0,
        };
        let mut c1 = WireClient::builder(server.addr())
            .recording()
            .connect()
            .unwrap();
        let first = c1.call(&open).unwrap();
        assert!(first.ok().is_some(), "expected open, got {first:?}");
        let transcript = c1.transcript().to_vec();

        // c2's first logical request carries c1's id and bytes: exactly what
        // c1's own retry would send after reconnecting.
        let mut c2 = WireClient::builder(server.addr())
            .recording()
            .retry(crate::client::RetryPolicy {
                attempts: 40,
                op_timeout: Duration::from_secs(2),
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(50),
                seed: 7,
            })
            .connect()
            .unwrap();
        let served = server.stats().requests_served;
        let retrier = std::thread::spawn(move || (c2.call(&open), c2));
        // Hold c1 until c2 has sent a second attempt (so the first was
        // answered busy), or until c2 gave up and returned.
        let start = Instant::now();
        while server.stats().requests_served < served + 2 && !retrier.is_finished() {
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "c2 never retried"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(c1);
        let (reply, c2) = retrier.join().unwrap();
        assert_eq!(
            reply.unwrap(),
            first,
            "the replayed open, not the busy fault"
        );
        assert_eq!(c2.transcript(), &transcript[..], "busy frames unrecorded");
        assert_eq!(c2.reconnects(), 0, "busy is retried on the same connection");
        let stats = server.shutdown();
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.replay_hits, 1);
        // Re-attaching through a replayed open is not a resume.
        assert_eq!(stats.resumes, 0);
    }

    #[test]
    fn bogus_tokens_cannot_resume() {
        let mgr = resilient_service(8);
        let server = Server::start(mgr, ServerConfig::default()).unwrap();
        let mut client = WireClient::builder(server.addr()).connect().unwrap();
        let reply = client
            .call(&Request::Resume { token: 0xBAAD_F00D })
            .unwrap();
        assert_eq!(
            reply.fault().map(|f| f.code),
            Some(crate::wire::FaultCode::UnknownSession)
        );
        server.shutdown();
    }

    #[test]
    fn retried_purchase_replays_identical_bytes_without_double_charge() {
        let mgr = resilient_service(8);
        let server = Server::start(Arc::clone(&mgr), ServerConfig::default()).unwrap();
        let mut client = WireClient::builder(server.addr())
            .recording()
            .connect()
            .unwrap();
        let open = client
            .call(&Request::OpenSession {
                shopper: 5,
                seed: 13,
                budget: 100.0,
            })
            .unwrap();
        let Reply::Ok(Response::OpenSession { session, .. }) = open else {
            panic!("expected open");
        };
        let buy = Request::BuySample {
            session,
            dataset: 0,
            rate: 0.4,
            key: key(&["sv_k"]),
        };
        let first = client.call(&buy).unwrap();
        let Reply::Ok(Response::BuySample { price, .. }) = first else {
            panic!("expected sample, got {first:?}");
        };
        let after_first = client.transcript().len();

        // Re-send the purchase under its original request id, twice: the
        // reply frames are byte-identical and the ledger takes one charge.
        let retry_id = client.last_id();
        for _ in 0..2 {
            client.resend(retry_id, &buy).unwrap();
            let (id, reply) = client.recv_reply().unwrap();
            assert_eq!(id, retry_id);
            assert_eq!(reply, first);
        }
        let t = client.transcript();
        let original = &t[after_first - (t.len() - after_first) / 2..after_first];
        assert_eq!(&t[after_first..after_first + original.len()], original);
        assert_eq!(
            &t[after_first + original.len()..],
            original,
            "replayed frames are byte-identical"
        );

        let closed = client.call(&Request::CloseSession { session }).unwrap();
        let Reply::Ok(Response::CloseSession {
            purchases, spent, ..
        }) = closed
        else {
            panic!("expected close");
        };
        assert_eq!(purchases, 1, "no double charge");
        assert_eq!(spent.to_bits(), price.to_bits());
        assert_eq!(mgr.market().revenue().to_bits(), price.to_bits());

        // A retried close replays from the tombstone: still one close.
        client
            .resend(client.last_id(), &Request::CloseSession { session })
            .unwrap();
        let (_, replayed) = client.recv_reply().unwrap();
        assert_eq!(replayed, closed);

        let stats = server.shutdown();
        assert_eq!(stats.replay_hits, 3);
        assert_eq!((stats.sessions_opened, stats.sessions_closed), (1, 1));
    }

    #[test]
    fn retried_open_returns_the_same_session_not_a_second_one() {
        let mgr = resilient_service(8);
        let server = Server::start(Arc::clone(&mgr), ServerConfig::default()).unwrap();
        let mut client = WireClient::builder(server.addr()).connect().unwrap();
        let open = Request::OpenSession {
            shopper: 9,
            seed: 21,
            budget: 50.0,
        };
        let first = client.call(&open).unwrap();
        let Reply::Ok(Response::OpenSession { session, .. }) = first else {
            panic!("expected open");
        };
        let open_id = client.last_id();
        client.resend(open_id, &open).unwrap();
        let (_, retried) = client.recv_reply().unwrap();
        assert_eq!(retried, first, "the dedup'd open is the same reply");
        assert_eq!(mgr.stats().opened, 1, "one session, not two");
        client.call(&Request::CloseSession { session }).unwrap();
        server.shutdown();
    }

    #[test]
    fn expired_lease_reclaims_the_capacity_slot() {
        let mgr = service_with(SessionManagerConfig {
            max_sessions: 1,
            lease_secs: Some(0.0),
            token_secret: Some((1, 2)),
        });
        let server = Server::start(Arc::clone(&mgr), ServerConfig::default()).unwrap();
        let mut c1 = WireClient::builder(server.addr()).connect().unwrap();
        let open = c1
            .call(&Request::OpenSession {
                shopper: 1,
                seed: 1,
                budget: 1.0,
            })
            .unwrap();
        let Reply::Ok(Response::OpenSession { token, .. }) = open else {
            panic!("expected open, got {open:?}");
        };
        drop(c1); // parks the session (lease 0: reclaimable immediately)

        // Capacity is 1: a new open succeeds only once the sweep reclaims
        // the parked slot; the sweep runs inside the open path itself.
        let mut c2 = WireClient::builder(server.addr()).connect().unwrap();
        let opened = (0..50)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(20));
                c2.call(&Request::OpenSession {
                    shopper: 2,
                    seed: 2,
                    budget: 1.0,
                })
                .unwrap()
            })
            .find(|r| r.ok().is_some());
        assert!(opened.is_some(), "reclaim freed the slot");

        // The reclaimed session's token no longer resumes.
        let reply = c2.call(&Request::Resume { token }).unwrap();
        assert_eq!(
            reply.fault().map(|f| f.code),
            Some(crate::wire::FaultCode::UnknownSession)
        );
        let stats = server.shutdown();
        assert!(stats.leases_reclaimed >= 1);
        assert_eq!(mgr.stats().reclaimed as u64, stats.leases_reclaimed);
    }

    #[test]
    fn slow_loris_mid_frame_connection_is_timed_out() {
        let mgr = service(8);
        let server = Server::start(
            mgr,
            ServerConfig {
                io_deadline: Duration::from_millis(150),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // Drip half a header and stall.
        let mut loris = WireClient::connect(server.addr()).unwrap();
        loris.send_raw_bytes(&wire::MAGIC.to_le_bytes());
        loris.send_raw_bytes(&wire::PROTOCOL_VERSION.to_le_bytes());
        loris.flush().unwrap();
        // An idle (zero-byte) connection on the same server is NOT timed
        // out: only mid-frame stalls are.
        let mut idle = WireClient::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(500));
        assert!(
            loris.recv_reply().is_err(),
            "the mid-frame staller was closed"
        );
        let stats = idle.call(&Request::Stats).unwrap();
        let Reply::Ok(Response::Stats(s)) = stats else {
            panic!("expected stats (idle connection survived)");
        };
        assert_eq!(s.timeouts, 1);
        server.shutdown();
    }

    #[test]
    fn server_side_chaos_still_serves_plain_clients_eventually() {
        // Chaos on the server side with only benign faults (fragmented
        // writes + delays): a client without a retry policy still
        // handshakes and completes a session,
        // which pins that the server's frame reassembly and the chaos
        // transport compose.
        let mgr = service(8);
        let server = Server::start(
            mgr,
            ServerConfig {
                chaos: Some(ChaosConfig {
                    seed: 0xC4A05,
                    reset_rate: 0.0,
                    truncate_rate: 0.0,
                    short_write_rate: 0.5,
                    delay_rate: 0.1,
                    max_delay_ms: 2,
                }),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = WireClient::connect(server.addr()).unwrap();
        let open = client
            .call(&Request::OpenSession {
                shopper: 1,
                seed: 7,
                budget: 100.0,
            })
            .unwrap();
        let Reply::Ok(Response::OpenSession { session, .. }) = open else {
            panic!("expected open, got {open:?}");
        };
        let bought = client
            .call(&Request::BuySample {
                session,
                dataset: 0,
                rate: 0.5,
                key: key(&["sv_k"]),
            })
            .unwrap();
        assert!(bought.ok().is_some());
        let closed = client.call(&Request::CloseSession { session }).unwrap();
        assert!(closed.ok().is_some());
        server.shutdown();
    }
}
