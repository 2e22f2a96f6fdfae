//! End-to-end load harness for the wire serving layer: N client threads
//! drive mixed quote / batch-quote / sample / purchase traffic over
//! loopback against a multi-worker [`Server`], with `LOAD_DEPTH` requests
//! pipelined per connection, and report sessions/sec, requests/sec and
//! p50/p99/p999 request latency.
//!
//! ```sh
//! cargo run --release --example load_harness
//! LOAD_WORKERS=4 LOAD_CLIENTS=8 LOAD_SESSIONS=100 LOAD_DEPTH=8 \
//!     cargo run --release --example load_harness
//! ```
//!
//! The PR 8 in-process `session_service` bench (124 sessions/sec, p99
//! 14.7ms on the single-CPU build container) is the floor this serving
//! path is measured against. The harness asserts clean shutdown and zero
//! protocol errors, so CI runs it (with small knobs) as a smoke step.

use std::sync::Arc;
use std::time::Instant;

use dance::market::wire::{Reply, Request, Response};
use dance::market::{DatasetId, Server, ServerConfig, SessionManagerConfig};
use dance::prelude::*;

fn knob(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn marketplace() -> Arc<Marketplace> {
    let a = Table::from_rows(
        "lh_a",
        &[("lh_k", ValueType::Int), ("lh_x", ValueType::Str)],
        (0..240)
            .map(|i| vec![Value::Int(i % 12), Value::str(format!("x{}", i % 7))])
            .collect(),
    )
    .unwrap();
    let b = Table::from_rows(
        "lh_b",
        &[("lh_k", ValueType::Int), ("lh_y", ValueType::Int)],
        (0..180)
            .map(|i| vec![Value::Int(i % 12), Value::Int(i * 5 % 31)])
            .collect(),
    )
    .unwrap();
    Arc::new(Marketplace::new(vec![a, b], EntropyPricing::default()))
}

/// The mixed per-session request stream after the open: quotes dominate,
/// with a batch quote, one sample and one projection purchase mixed in —
/// the "Try Before You Buy" shape.
fn session_ops(session: u64, requests: usize) -> Vec<Request> {
    let key = AttrSet::from_names(["lh_k"]);
    let x = AttrSet::from_names(["lh_x"]);
    let y = AttrSet::from_names(["lh_y"]);
    (0..requests)
        .map(|i| match i % 8 {
            0 => Request::QuoteBatch {
                session,
                items: vec![
                    (DatasetId(0), x.clone()),
                    (DatasetId(1), y.clone()),
                    (DatasetId(0), x.clone()),
                ],
            },
            1 => Request::BuySample {
                session,
                dataset: (i % 2) as u32,
                rate: 0.2,
                key: key.clone(),
            },
            2 => Request::Execute {
                session,
                dataset: 1,
                attrs: y.clone(),
            },
            _ => Request::Quote {
                session,
                dataset: (i % 2) as u32,
                attrs: if i % 2 == 0 { x.clone() } else { y.clone() },
            },
        })
        .collect()
}

fn percentile(sorted: &[u128], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let at = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[at] as f64 / 1e6
}

fn main() {
    let workers = knob("LOAD_WORKERS", 4);
    let clients = knob("LOAD_CLIENTS", 8);
    let sessions_per_client = knob("LOAD_SESSIONS", 50);
    let depth = knob("LOAD_DEPTH", 8);
    let requests_per_session = knob("LOAD_REQUESTS", 16);

    let market = marketplace();
    let mgr = Arc::new(dance::market::SessionManager::new(
        market,
        SessionManagerConfig {
            max_sessions: clients * 2,
            ..SessionManagerConfig::default()
        },
    ));
    let server = Server::start(
        Arc::clone(&mgr),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    println!(
        "load harness: {workers} workers, {clients} clients × {sessions_per_client} sessions × \
         {requests_per_session} requests, pipeline depth {depth}"
    );

    let started = Instant::now();
    // Each client thread returns its per-request latencies (ns).
    let latencies: Vec<Vec<u128>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut lat =
                        Vec::with_capacity(sessions_per_client * (requests_per_session + 2));
                    let mut c = WireClient::connect(addr).unwrap();
                    for s in 0..sessions_per_client {
                        let t0 = Instant::now();
                        let open = c
                            .call(&Request::OpenSession {
                                shopper: client as u64,
                                seed: (client * 1000 + s) as u64,
                                budget: f64::INFINITY,
                            })
                            .unwrap();
                        lat.push(t0.elapsed().as_nanos());
                        let Reply::Ok(Response::OpenSession { session, .. }) = open else {
                            panic!("client {client}: open failed: {open:?}");
                        };
                        // Pipeline the session's ops at the configured depth:
                        // keep `depth` requests in flight, one new request
                        // queued per response received.
                        let ops = session_ops(session, requests_per_session);
                        let mut in_flight: std::collections::VecDeque<Instant> =
                            std::collections::VecDeque::with_capacity(depth);
                        let mut next = 0;
                        while next < ops.len() || !in_flight.is_empty() {
                            while next < ops.len() && in_flight.len() < depth {
                                c.queue(&ops[next]);
                                in_flight.push_back(Instant::now());
                                next += 1;
                            }
                            c.flush().unwrap();
                            let (_, reply) = c.recv_reply().unwrap();
                            assert!(reply.ok().is_some(), "client {client}: fault {reply:?}");
                            lat.push(in_flight.pop_front().unwrap().elapsed().as_nanos());
                        }
                        let t0 = Instant::now();
                        let closed = c.call(&Request::CloseSession { session }).unwrap();
                        lat.push(t0.elapsed().as_nanos());
                        assert!(closed.ok().is_some(), "close failed: {closed:?}");
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut all: Vec<u128> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    let total_sessions = clients * sessions_per_client;
    let total_requests = all.len();
    println!(
        "  {total_sessions} sessions, {total_requests} requests in {elapsed:.2}s \
         ({:.1} sessions/sec, {:.1} requests/sec)",
        total_sessions as f64 / elapsed,
        total_requests as f64 / elapsed,
    );
    println!(
        "  request latency: p50 {:.3}ms  p99 {:.3}ms  p999 {:.3}ms",
        percentile(&all, 0.50),
        percentile(&all, 0.99),
        percentile(&all, 0.999),
    );

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0, "protocol errors during the run");
    assert_eq!(stats.rate_limited, 0);
    // Every request was served, plus one `Hello` per client connection.
    assert_eq!(
        stats.requests_served as usize,
        total_requests + clients,
        "every request was served"
    );
    assert_eq!(stats.sessions_open, 0, "all sessions closed");
    println!(
        "  clean shutdown: {} connections, {} requests served, 0 protocol errors",
        stats.connections_accepted, stats.requests_served
    );
}
