//! The `wire_shop` workload: shopper sessions over the wire protocol.
//!
//! A TPC-H-backed `SessionManager` is served by a 2-worker `Server` on
//! loopback, and 2 client connections drive it. Each session opens, then
//! pipelines the "try before you buy" conversation: a batch quote over
//! candidate projections, two re-quotes, a sample of the chosen dataset,
//! the purchase of the chosen projection, and the close.
//!
//! Sessions are drawn from a seeded pool of `SHAPES` distinct
//! conversations in balanced rounds, so every shape repeats many times a
//! run. They first arrive open-loop at `RATE` per second (each timed from
//! the moment it was due), then a closed-loop phase over the same two
//! connections measures capacity, which must exceed `RATE`. The traced run
//! replays every session in-process through `SessionManager::open_at`
//! (timing each session op) and re-runs the codec over the recorded frames;
//! the replayed replies must equal the wire replies bit for bit.

use std::collections::HashSet;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dance_datagen::tpch::TpchConfig;
use dance_datagen::workload::tpch_workload;
use dance_market::wire::{self, table_digest, Reply, Request, Response};
use dance_market::{
    DatasetId, DatasetMeta, EntropyPricing, Marketplace, Server, ServerConfig, SessionConfig,
    SessionError, SessionManager, SessionManagerConfig, WireClient,
};
use dance_relation::{AttrSet, RelationError, Result};

use crate::util::{
    balanced, draw, floors, median, more_setups, peak_rss_mb, percentile, sorted, tail_level,
    Digest, Json, Spans,
};
use crate::Outcome;

/// TPC-H scale of the served marketplace.
const SCALE: f64 = 4.0;
/// Client connections and server workers.
const CONNS: usize = 2;
const WORKERS: usize = 2;
/// Offered open-loop load, sessions per second: a few percent of capacity,
/// so that a session rarely waits behind the previous one on its
/// connection and the tail stays a property of the server.
const RATE: f64 = 100.0;
/// Share of the run spent in the open-loop phase; the rest is closed-loop.
const OPEN_SHARE: f64 = 0.6;
/// Distinct session shapes: four per buyable dataset.
const SHAPES: usize = 28;
/// Candidate projections a shopper quotes before choosing.
const CANDIDATES: usize = 4;
/// Rate of the trial sample.
const SAMPLE_RATE: f64 = 0.05;

const S_SESSION: u64 = 12;
const S_PICK: u64 = 13;
const S_SHAPE: u64 = 14;

/// Seed of the shape pool. The pool is fixed, like the acquisition
/// workloads' request grids: which projections a shape quotes and buys
/// sets its cost, and a pool drawn per run seed would move every figure
/// with the seed. The run seed draws the order of shapes and the session
/// seeds.
const POOL_SEED: u64 = 0x5409;

/// The shape session `j` takes.
fn shape_of(seed: u64, j: usize) -> usize {
    balanced(seed, S_SHAPE, SHAPES, j)
}

/// The session seed of shape `shape`.
fn session_seed(seed: u64, shape: usize) -> u64 {
    draw(seed, S_SESSION, shape as u64)
}

/// Shape `shape`'s requests after the open, addressed to `session`.
fn session_ops(shape: usize, metas: &[DatasetMeta], session: u64) -> Vec<Request> {
    let mut k = 0u64;
    let mut next = || {
        k += 1;
        draw(POOL_SEED, S_PICK, (shape as u64) << 16 | k)
    };
    let mut candidates: Vec<(DatasetId, AttrSet)> = (0..CANDIDATES)
        .map(|_| {
            let meta = &metas[(next() % metas.len() as u64) as usize];
            let attrs = meta.schema.attributes();
            let a = attrs[(next() % attrs.len() as u64) as usize].id;
            let b = attrs[(next() % attrs.len() as u64) as usize].id;
            (meta.id, AttrSet::from_ids([a, b]))
        })
        .collect();
    // Shapes buy every dataset but the smallest equally often: a session's
    // cost depends mostly on the dataset it buys, and a drawn mix would move
    // every percentile with the seed.
    let mut by_size: Vec<&DatasetMeta> = metas.iter().collect();
    by_size.sort_by_key(|m| m.num_rows);
    let buyable = &by_size[1..];
    let target = buyable[shape % buyable.len()];
    let chosen = (next() % CANDIDATES as u64) as usize;
    let attrs = target.schema.attributes();
    let a = attrs[(next() % attrs.len() as u64) as usize].id;
    let b = attrs[(next() % attrs.len() as u64) as usize].id;
    candidates[chosen] = (target.id, AttrSet::from_ids([a, b]));
    let other = (chosen + 1) % CANDIDATES;
    let quote = |c: usize| Request::Quote {
        session,
        dataset: candidates[c].0 .0,
        attrs: candidates[c].1.clone(),
    };
    let (dataset, attrs) = candidates[chosen].clone();
    vec![
        Request::QuoteBatch {
            session,
            items: candidates.clone(),
        },
        quote(other),
        quote(chosen),
        Request::BuySample {
            session,
            dataset: dataset.0,
            rate: SAMPLE_RATE,
            key: metas[dataset.0 as usize].default_key.clone(),
        },
        Request::Execute {
            session,
            dataset: dataset.0,
            attrs,
        },
        Request::CloseSession { session },
    ]
}

/// One session as the client saw it.
struct SessionRun {
    j: usize,
    shape: usize,
    session: u64,
    requests: Vec<Request>,
    replies: Vec<Reply>,
    /// From the due time (open loop) or the start (closed loop) to the
    /// close reply, and how late the session started.
    latency_ms: f64,
    lag_ms: f64,
    request_us: Vec<f64>,
}

impl SessionRun {
    fn faults(&self) -> u64 {
        self.replies.iter().filter(|r| r.fault().is_some()).count() as u64
    }

    /// The close-reported spend (NaN when the session did not close).
    fn spent(&self) -> f64 {
        match self.replies.last() {
            Some(Reply::Ok(Response::CloseSession { spent, .. })) => *spent,
            _ => f64::NAN,
        }
    }
}

/// What the closed-loop phase keeps. A plain run keeps counts, not
/// sessions: their number grows with the server's speed, and the
/// benchmark's own memory must not.
#[derive(Default)]
struct ClosedTally {
    /// `(shape, milliseconds)` of every session.
    times: Vec<(usize, f64)>,
    sent: u64,
    faults: u64,
    /// `(session id, close-reported spend)` of every session.
    spends: Vec<(u64, f64)>,
    /// Full records, traced runs only.
    runs: Vec<SessionRun>,
}

/// Digest of one session's replies without the server-assigned session id
/// and token, which depend on how the two connections interleave.
fn digest_replies(d: &mut Digest, replies: &[Reply]) {
    for r in replies {
        match r {
            Reply::Ok(Response::OpenSession { version, .. }) => d.u64(*version),
            Reply::Ok(Response::Quote { price }) => d.f64(*price),
            Reply::Ok(Response::QuoteBatch { prices }) => prices.iter().for_each(|p| d.f64(*p)),
            Reply::Ok(Response::BuySample {
                price,
                rows,
                digest,
            })
            | Reply::Ok(Response::Execute {
                price,
                rows,
                digest,
            }) => {
                d.f64(*price);
                d.u64(*rows);
                d.u64(*digest);
            }
            Reply::Ok(Response::CloseSession {
                seed,
                version,
                purchases,
                spent,
                remaining,
            }) => {
                d.u64(*seed);
                d.u64(*version);
                d.u64(u64::from(*purchases));
                d.f64(*spent);
                d.f64(*remaining);
            }
            Reply::Ok(other) => d.str(&format!("{other:?}")),
            Reply::Fault(f) => d.str(&f.to_string()),
        }
    }
}

fn io_err(e: io::Error) -> RelationError {
    RelationError::Shape(format!("wire: {e}"))
}

/// Run session `j` on `c`: open, then pipeline the rest in one flush.
fn run_session(
    c: &mut WireClient,
    conn: usize,
    seed: u64,
    j: usize,
    metas: &[DatasetMeta],
    due: Instant,
) -> io::Result<SessionRun> {
    let lag_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
    let shape = shape_of(seed, j);
    let open = Request::OpenSession {
        shopper: conn as u64,
        seed: session_seed(seed, shape),
        budget: f64::INFINITY,
    };
    let mut request_us = Vec::with_capacity(8);
    let t0 = Instant::now();
    c.queue(&open);
    c.flush()?;
    let (_, opened) = c.recv_reply()?;
    request_us.push(t0.elapsed().as_secs_f64() * 1e6);
    let mut run = SessionRun {
        j,
        shape,
        session: 0,
        requests: vec![open],
        replies: vec![opened.clone()],
        latency_ms: 0.0,
        lag_ms,
        request_us,
    };
    if let Reply::Ok(Response::OpenSession { session, .. }) = opened {
        run.session = session;
        let ops = session_ops(shape, metas, session);
        for op in &ops {
            c.queue(op);
        }
        let sent = Instant::now();
        c.flush()?;
        for _ in &ops {
            let (_, reply) = c.recv_reply()?;
            run.request_us.push(sent.elapsed().as_secs_f64() * 1e6);
            run.replies.push(reply);
        }
        run.requests.extend(ops);
    }
    run.latency_ms = due.elapsed().as_secs_f64() * 1e3;
    Ok(run)
}

/// Everything one run serves from.
struct Setup {
    market: Arc<Marketplace>,
    metas: Vec<DatasetMeta>,
    server: Server,
    clients: Vec<WireClient>,
}

impl Setup {
    /// Close the client connections, then stop and join the server.
    fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// The served catalog: fixed, like the acquisition workloads' catalogs;
/// the run seed draws the sessions.
fn market() -> Result<Marketplace> {
    let w = tpch_workload(&TpchConfig {
        scale: SCALE,
        ..TpchConfig::default()
    })?;
    Ok(Marketplace::new(w.tables, EntropyPricing::default()))
}

fn setup(record: bool) -> Result<Setup> {
    let market = Arc::new(market()?);
    let metas = market.catalog();
    let mgr = Arc::new(SessionManager::new(
        Arc::clone(&market),
        SessionManagerConfig::default(),
    ));
    let server = Server::start(
        mgr,
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .map_err(io_err)?;
    let addr: SocketAddr = server.addr();
    let clients = (0..CONNS)
        .map(|_| {
            let b = WireClient::builder(addr);
            if record { b.recording() } else { b }.connect()
        })
        .collect::<io::Result<Vec<_>>>()
        .map_err(io_err)?;
    Ok(Setup {
        market,
        metas,
        server,
        clients,
    })
}

/// What the two phases produced.
struct Served {
    open: Vec<SessionRun>,
    closed: ClosedTally,
    closed_s: f64,
    connect_failures: u64,
}

/// The open-loop phase, then the closed-loop phase, over `s.clients`.
/// Closed-loop sessions keep their records only when `keep` is set.
fn serve(s: &mut Setup, seed: u64, seconds: f64, keep: bool) -> Served {
    let open_s = seconds * OPEN_SHARE;
    let n_open = (RATE * open_s).floor() as usize;
    let metas = &s.metas;
    let mut out = Served {
        open: Vec::new(),
        closed: ClosedTally::default(),
        closed_s: seconds - open_s,
        connect_failures: 0,
    };
    let t0 = Instant::now() + Duration::from_millis(20);
    let results: Vec<io::Result<Vec<SessionRun>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, c)| {
                scope.spawn(move || {
                    let mut runs = Vec::new();
                    for j in (conn..n_open).step_by(CONNS) {
                        let due = t0 + Duration::from_secs_f64(j as f64 / RATE);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        runs.push(run_session(c, conn, seed, j, metas, due)?);
                    }
                    Ok(runs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client"))
            .collect()
    });
    for r in results {
        match r {
            Ok(runs) => out.open.extend(runs),
            Err(_) => out.connect_failures += 1,
        }
    }
    let deadline = Instant::now() + Duration::from_secs_f64(out.closed_s);
    let results: Vec<io::Result<ClosedTally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, c)| {
                scope.spawn(move || {
                    let mut t = ClosedTally::default();
                    let mut j = n_open + conn;
                    while Instant::now() < deadline {
                        let run = run_session(c, conn, seed, j, metas, Instant::now())?;
                        t.times.push((run.shape, run.latency_ms));
                        t.sent += run.requests.len() as u64;
                        t.faults += run.faults();
                        t.spends.push((run.session, run.spent()));
                        if keep {
                            t.runs.push(run);
                        }
                        j += CONNS;
                    }
                    Ok(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client"))
            .collect()
    });
    for r in results {
        match r {
            Ok(t) => {
                let c = &mut out.closed;
                c.times.extend(t.times);
                c.sent += t.sent;
                c.faults += t.faults;
                c.spends.extend(t.spends);
                c.runs.extend(t.runs);
            }
            Err(_) => out.connect_failures += 1,
        }
    }
    out.open.sort_by_key(|r| r.j);
    out
}

/// Session-layer time of each replayed op, by opcode.
#[derive(Default)]
struct Replay {
    spans: Spans,
    mismatches: u64,
}

/// Replay every session in-process on a fresh copy of the marketplace,
/// pinned at the version the wire session saw, and compare replies.
fn replay(runs: &[&SessionRun]) -> Result<Replay> {
    let market = Arc::new(market()?);
    let mgr = SessionManager::new(Arc::clone(&market), SessionManagerConfig::default());
    let snapshot = market.snapshot();
    let mut out = Replay::default();
    for run in runs {
        let sp = &mut out.spans;
        let Request::OpenSession {
            seed: s, budget, ..
        } = run.requests[0]
        else {
            unreachable!("sessions start with an open");
        };
        let mut session = sp
            .time("session.open", || {
                mgr.open_at(SessionConfig { budget, seed: s }, snapshot.clone())
            })
            .map_err(|e| RelationError::Shape(e.to_string()))?;
        let mut replies = vec![Reply::Ok(Response::OpenSession {
            session: run.session,
            version: session.pinned_version(),
            token: 0,
        })];
        let fault = |e: SessionError| Reply::Fault(wire::Fault::from_session_error(&e));
        for op in &run.requests[1..] {
            let reply = match op {
                Request::Quote { dataset, attrs, .. } => sp
                    .time("session.quote", || {
                        session.quote(DatasetId(*dataset), attrs)
                    })
                    .map_or_else(fault, |price| Reply::Ok(Response::Quote { price })),
                Request::QuoteBatch { items, .. } => sp
                    .time("session.quote_batch", || session.quote_batch(items))
                    .map_or_else(fault, |prices| Reply::Ok(Response::QuoteBatch { prices })),
                Request::BuySample {
                    dataset, rate, key, ..
                } => sp
                    .time("session.buy_sample", || {
                        session
                            .buy_sample(DatasetId(*dataset), key, *rate)
                            .map(|(t, price)| (price, t.num_rows() as u64, table_digest(&t)))
                    })
                    .map_or_else(fault, |(price, rows, digest)| {
                        Reply::Ok(Response::BuySample {
                            price,
                            rows,
                            digest,
                        })
                    }),
                Request::Execute { dataset, attrs, .. } => sp
                    .time("session.execute", || {
                        session
                            .execute_by_id(DatasetId(*dataset), attrs)
                            .map(|(t, price)| (price, t.num_rows() as u64, table_digest(&t)))
                    })
                    .map_or_else(fault, |(price, rows, digest)| {
                        Reply::Ok(Response::Execute {
                            price,
                            rows,
                            digest,
                        })
                    }),
                // The close is always the last request.
                Request::CloseSession { .. } => break,
                other => unreachable!("sessions never send {other:?}"),
            };
            replies.push(reply);
        }
        if let Some(Request::CloseSession { .. }) = run.requests.last() {
            let report = sp.time("session.close", || mgr.close(session));
            replies.push(Reply::Ok(Response::CloseSession {
                seed: report.seed,
                version: report.catalog_version,
                purchases: report.purchases.len() as u32,
                spent: report.spent,
                remaining: report.remaining,
            }));
        }
        let (mut a, mut b) = (Digest::default(), Digest::default());
        digest_replies(&mut a, &replies);
        digest_replies(&mut b, &run.replies);
        out.mismatches += u64::from(a.value() != b.value());
    }
    Ok(out)
}

/// Mean per-frame encode and decode time over the run's recorded frames,
/// best of three sweeps, in microseconds.
fn codec_us(runs: &[&SessionRun], transcripts: &[Vec<u8>]) -> (f64, f64, u64) {
    let requests: Vec<&Request> = runs.iter().flat_map(|r| r.requests.iter()).collect();
    let mut buf = Vec::with_capacity(1 << 16);
    let mut encode = f64::INFINITY;
    let mut decode = f64::INFINITY;
    let mut decode_errors = 0u64;
    for _ in 0..3 {
        let t0 = Instant::now();
        for (id, req) in requests.iter().enumerate() {
            buf.clear();
            wire::encode_request_v(&mut buf, wire::PROTOCOL_VERSION, id as u64, req);
            std::hint::black_box(&buf);
        }
        encode = encode.min(t0.elapsed().as_secs_f64() * 1e6 / requests.len().max(1) as f64);
        let t0 = Instant::now();
        let mut frames = 0u64;
        for t in transcripts {
            let mut at = 0;
            while let Ok(Some(h)) = wire::peek_header(&t[at..], wire::DEFAULT_MAX_PAYLOAD) {
                let end = at + wire::HEADER_LEN + h.payload_len as usize;
                let payload = &t[at + wire::HEADER_LEN..end];
                if std::hint::black_box(wire::decode_reply_v(h.version, h.opcode, payload)).is_err()
                {
                    decode_errors += 1;
                }
                frames += 1;
                at = end;
            }
        }
        decode = decode.min(t0.elapsed().as_secs_f64() * 1e6 / frames.max(1) as f64);
    }
    (encode, decode, decode_errors)
}

/// Share of requests whose content, session id aside, repeats an earlier
/// request (the catalog version never moves in this workload).
fn repeat_share(runs: &[&SessionRun]) -> f64 {
    let mut seen = HashSet::new();
    let mut repeats = 0usize;
    let mut total = 0usize;
    for run in runs {
        for req in &run.requests[1..] {
            let key = format!("{:?}", strip_session(req));
            total += 1;
            if !seen.insert(key) {
                repeats += 1;
            }
        }
    }
    repeats as f64 / total.max(1) as f64
}

fn strip_session(req: &Request) -> Request {
    let mut r = req.clone();
    match &mut r {
        Request::Quote { session, .. }
        | Request::QuoteBatch { session, .. }
        | Request::BuySample { session, .. }
        | Request::Execute { session, .. }
        | Request::CloseSession { session } => *session = 0,
        _ => {}
    }
    r
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome> {
    let mut out = Outcome {
        workers: WORKERS,
        ..Outcome::default()
    };
    let mut setup_s = Vec::new();
    let mut s: Option<Setup> = None;
    while more_setups(&setup_s) {
        if let Some(old) = s.take() {
            old.stop();
        }
        let t0 = Instant::now();
        s = Some(setup(trace)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut s = s.expect("set up at least once");
    let served = serve(&mut s, seed, seconds, trace);
    let stats = s.server.stats();
    let transcripts: Vec<Vec<u8>> = s.clients.iter().map(|c| c.transcript().to_vec()).collect();
    let revenue = s.market.revenue();
    s.stop();

    let all: Vec<&SessionRun> = served.open.iter().chain(&served.closed.runs).collect();
    let open_sent: u64 = served.open.iter().map(|r| r.requests.len() as u64).sum();
    let requests = open_sent + served.closed.sent;
    out.attempted = requests + CONNS as u64;
    out.failed = served.open.iter().map(SessionRun::faults).sum::<u64>()
        + served.closed.faults
        + served.connect_failures;

    // Σ close-reported spends, folded in session-id order like the
    // marketplace's per-session revenue stripes.
    let mut spends: Vec<(u64, f64)> = served.open.iter().map(|r| (r.session, r.spent())).collect();
    spends.extend(&served.closed.spends);
    spends.sort_by_key(|s| s.0);
    let spent = spends.iter().fold(0.0, |acc, s| acc + s.1);
    out.check(
        "session spends sum to revenue",
        spent.to_bits() == revenue.to_bits(),
    );
    out.check("no protocol errors", stats.protocol_errors == 0);
    // Each connection's `Hello` is a served request too.
    out.check(
        "every request was served",
        stats.requests_served == requests + CONNS as u64,
    );

    let mut d = Digest::default();
    for r in &served.open {
        digest_replies(&mut d, &r.replies);
    }
    out.digest = Some((
        format!("wire_shop-{seed}-{seconds}-{SCALE}-{RATE}"),
        d.value(),
    ));

    // Open-loop latency, from each session's due time, as the fastest warm
    // repeat of its shape (see `util::floors`); the unfiltered figures go
    // to the report.
    let shapes: Vec<usize> = served.open.iter().map(|r| r.shape).collect();
    let raw: Vec<f64> = served.open.iter().map(|r| r.latency_ms).collect();
    let latency = sorted(floors(&shapes, &raw));
    let raw = sorted(raw);
    let level = tail_level(latency.len());
    let (session_p50, session_tail) = (percentile(&latency, 50.0), percentile(&latency, level));
    // Capacity: both connections kept busy, each session taking the
    // fastest warm repeat of its shape in the closed-loop phase.
    let (shapes, times): (Vec<usize>, Vec<f64>) = served.closed.times.iter().copied().unzip();
    let closed = floors(&shapes, &times);
    let capacity = CONNS as f64 * 1e3 * closed.len() as f64 / closed.iter().sum::<f64>();
    let raw_rate = times.len() as f64 / served.closed_s;
    let mut req_ms: Vec<f64> = served
        .open
        .iter()
        .flat_map(|r| r.request_us.iter().map(|us| us / 1e3))
        .collect();
    req_ms.sort_by(f64::total_cmp);
    let mut lag: Vec<f64> = served.open.iter().map(|r| r.lag_ms).collect();
    lag.sort_by(f64::total_cmp);
    let open: Vec<&SessionRun> = served.open.iter().collect();
    let share = repeat_share(&open);
    out.check("closed-loop rate exceeds the offered rate", raw_rate > RATE);

    let mut report = Json::default();
    report.str("workload", "wire_shop");
    report.num("scale", SCALE);
    report.num("offered_sessions_per_s", RATE);
    report.int("open_loop_sessions", served.open.len() as u64);
    report.int("closed_loop_sessions", served.closed.spends.len() as u64);
    report.num("session_p50_ms", session_p50);
    report.num("session_tail_percentile", level);
    report.num("session_tail_ms", session_tail);
    report.int("session_samples", latency.len() as u64);
    report.num("raw_session_p50_ms", percentile(&raw, 50.0));
    report.num("raw_session_tail_ms", percentile(&raw, level));
    report.num("request_p99_ms", percentile(&req_ms, 99.0));
    report.num("sessions_per_s", capacity);
    report.num("raw_sessions_per_s", raw_rate);
    report.num("lag_p99_ms", percentile(&lag, 99.0));
    report.num("repeat_share", share);

    let m = &mut out.metrics;
    m.put("workload.repeat_share", share, "ratio");
    m.put("request_p99_ms", percentile(&req_ms, 99.0), "ms");
    m.put("gen.lag_p99_ms", percentile(&lag, 99.0), "ms");
    m.put(
        "server.requests_served",
        stats.requests_served as f64,
        "count",
    );
    m.put(
        "server.protocol_errors",
        stats.protocol_errors as f64,
        "count",
    );
    m.put("server.rate_limited", stats.rate_limited as f64, "count");
    m.put("server.timeouts", stats.timeouts as f64, "count");
    if !trace {
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m.put("p50_ms", session_p50, "ms");
        m.put("tail_ms", session_tail, "ms");
        m.put("throughput_per_s", capacity, "1/s");
        out.report = Some(report);
        return Ok(out);
    }

    let rep = replay(&all)?;
    out.check("replayed replies equal wire replies", rep.mismatches == 0);
    let (enc, dec, decode_errors) = codec_us(&all, &transcripts);
    out.check("recorded frames decode", decode_errors == 0);
    let sp = &rep.spans;
    let m = &mut out.metrics;
    m.put("wire.encode_us", enc, "us");
    m.put("wire.decode_us", dec, "us");
    m.put("session.quote_us", sp.mean_ms("session.quote") * 1e3, "us");
    m.put(
        "session.quote_batch_us",
        sp.mean_ms("session.quote_batch") * 1e3,
        "us",
    );
    m.put(
        "session.buy_sample_us",
        sp.mean_ms("session.buy_sample") * 1e3,
        "us",
    );
    m.put(
        "session.execute_us",
        sp.mean_ms("session.execute") * 1e3,
        "us",
    );
    // Per request of the open-loop sessions: the time a session spent on
    // the wire (from its start to the close reply) that the session layer
    // and the codec do not explain — queueing, socket I/O and scheduling
    // in the server and the client.
    let open_requests: usize = served.open.iter().map(|r| r.requests.len()).sum();
    let wire_us = served
        .open
        .iter()
        .map(|r| (r.latency_ms - r.lag_ms) * 1e3)
        .sum::<f64>()
        / open_requests as f64;
    let session_us = sp.sum() * 1e6 / requests as f64;
    let residual_us = wire_us - session_us - enc - dec;
    m.put("server.residual_us", residual_us, "us");
    m.put(
        "trace.residual_s",
        residual_us * open_requests as f64 / 1e6,
        "s",
    );
    m.put("trace.residual_share", residual_us / wire_us, "ratio");
    m.put("trace.overhead_s", 0.0, "s");
    report.num("mean_request_us", wire_us);
    report.num("mean_session_op_us", session_us);
    report.str(
        "trace_note",
        "the live wire path is not instrumented; the traced numbers come from an in-process replay and a codec sweep over the recorded frames, so tracing adds no overhead to the live run",
    );
    out.report = Some(report);
    Ok(out)
}
