//! Serving-layer benches: wire pipeline throughput (workers × pipelining
//! depth), full wire sessions/sec over loopback, the resilience tax of the
//! retrying client under ~1% injected connection resets, and the
//! per-quote saving of `Session::quote_batch` over per-item `quote` calls.
//!
//! ```sh
//! cargo bench -p dance-bench --bench serving
//! ```
//!
//! The criterion shim reports batch wall-time; each group also prints its
//! service metrics (requests/sec, sessions/sec, percentile latencies)
//! manually, matching the `session_service` group in `kernels.rs`. The PR 8
//! in-process baseline those numbers are measured against: 124 sessions/sec,
//! p99 14.7ms on the single-CPU build container.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dance_market::wire::{Reply, Request, Response};
use dance_market::{
    ChaosConfig, DatasetId, EntropyPricing, Marketplace, RetryPolicy, Server, ServerConfig,
    SessionConfig, SessionManager, SessionManagerConfig, WireClient,
};
use dance_relation::{AttrSet, Table, Value, ValueType};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn marketplace() -> Arc<Marketplace> {
    let a = Table::from_rows(
        "sb_a",
        &[("sb_k", ValueType::Int), ("sb_x", ValueType::Str)],
        (0..240)
            .map(|i| vec![Value::Int(i % 12), Value::str(format!("x{}", i % 7))])
            .collect(),
    )
    .unwrap();
    let b = Table::from_rows(
        "sb_b",
        &[("sb_k", ValueType::Int), ("sb_y", ValueType::Int)],
        (0..180)
            .map(|i| vec![Value::Int(i % 12), Value::Int(i * 5 % 31)])
            .collect(),
    )
    .unwrap();
    Arc::new(Marketplace::new(vec![a, b], EntropyPricing::default()))
}

fn service() -> Arc<SessionManager> {
    Arc::new(SessionManager::new(
        marketplace(),
        SessionManagerConfig {
            max_sessions: 64,
            ..SessionManagerConfig::default()
        },
    ))
}

fn open_session(c: &mut WireClient, shopper: u64, seed: u64) -> u64 {
    let open = c
        .call(&Request::OpenSession {
            shopper,
            seed,
            budget: f64::INFINITY,
        })
        .unwrap();
    let Reply::Ok(Response::OpenSession { session, .. }) = open else {
        panic!("open failed: {open:?}");
    };
    session
}

/// Issue `n` quotes keeping `depth` requests in flight on one connection.
fn quotes_pipelined(c: &mut WireClient, session: u64, attrs: &AttrSet, n: usize, depth: usize) {
    let mut queued = 0;
    let mut received = 0;
    while received < n {
        while queued < n && queued - received < depth {
            c.queue(&Request::Quote {
                session,
                dataset: 0,
                attrs: attrs.clone(),
            });
            queued += 1;
        }
        c.flush().unwrap();
        let (_, reply) = c.recv_reply().unwrap();
        assert!(reply.ok().is_some());
        received += 1;
    }
}

/// Wire throughput: 256 quotes per iteration over loopback, at
/// {1, 4} workers × pipelining depth {1, 8}.
fn bench_wire_pipeline(c: &mut Criterion) {
    let mut c = c.clone().sample_size(10);
    let mut g = c.benchmark_group("wire_pipeline");
    for workers in [1usize, 4] {
        for depth in [1usize, 8] {
            let server = Server::start(
                service(),
                ServerConfig {
                    workers,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let mut client = WireClient::connect(server.addr()).unwrap();
            let session = open_session(&mut client, 1, 7);
            let attrs = AttrSet::from_names(["sb_x"]);

            g.bench_with_input(
                BenchmarkId::new("quotes256", format!("{workers}w_d{depth}")),
                &(),
                |b, _| b.iter(|| quotes_pipelined(&mut client, session, &attrs, 256, depth)),
            );

            let reqs = 4096;
            let t0 = Instant::now();
            quotes_pipelined(&mut client, session, &attrs, reqs, depth);
            let dt = t0.elapsed().as_secs_f64();
            eprintln!(
                "serving/wire_pipeline {workers}w depth {depth}: {:.0} requests/sec",
                reqs as f64 / dt
            );
            drop(client);
            server.shutdown();
        }
    }
    g.finish();
}

/// Full wire sessions (open, batch quote, sample, purchase, close) from 4
/// concurrent client threads against a 4-worker server — the wire-level
/// counterpart of the `session_service` in-process baseline.
fn bench_wire_sessions(c: &mut Criterion) {
    const CLIENTS: usize = 4;
    const SESSIONS_PER_CLIENT: usize = 8;

    fn run_batch(addr: std::net::SocketAddr) -> Vec<std::time::Duration> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(SESSIONS_PER_CLIENT);
                        let mut c = WireClient::connect(addr).unwrap();
                        let key = AttrSet::from_names(["sb_k"]);
                        let x = AttrSet::from_names(["sb_x"]);
                        let y = AttrSet::from_names(["sb_y"]);
                        for s in 0..SESSIONS_PER_CLIENT {
                            let t0 = Instant::now();
                            let session =
                                open_session(&mut c, client as u64, (client * 100 + s) as u64);
                            c.queue(&Request::QuoteBatch {
                                session,
                                items: vec![
                                    (DatasetId(0), x.clone()),
                                    (DatasetId(1), y.clone()),
                                    (DatasetId(0), x.clone()),
                                ],
                            });
                            c.queue(&Request::BuySample {
                                session,
                                dataset: 0,
                                rate: 0.25,
                                key: key.clone(),
                            });
                            c.queue(&Request::Execute {
                                session,
                                dataset: 1,
                                attrs: y.clone(),
                            });
                            c.queue(&Request::CloseSession { session });
                            c.flush().unwrap();
                            for _ in 0..4 {
                                let (_, reply) = c.recv_reply().unwrap();
                                assert!(reply.ok().is_some(), "fault: {reply:?}");
                            }
                            lat.push(t0.elapsed());
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        })
    }

    let mut c = c.clone().sample_size(10);
    let mut g = c.benchmark_group("wire_sessions");
    let server = Server::start(
        service(),
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    g.bench_with_input(BenchmarkId::new("batch32", "4clients_4w"), &(), |b, _| {
        b.iter(|| black_box(run_batch(addr)))
    });

    let t0 = Instant::now();
    let mut lat: Vec<std::time::Duration> = Vec::new();
    let batches = 4;
    for _ in 0..batches {
        lat.extend(run_batch(addr));
    }
    let wall = t0.elapsed();
    lat.sort_unstable();
    let p99 = lat[(lat.len() * 99).div_ceil(100) - 1];
    eprintln!(
        "serving/wire_sessions 4w: {:.1} sessions/sec, p99 session latency {:.3} ms \
         ({} wire sessions of 5 requests)",
        lat.len() as f64 / wall.as_secs_f64(),
        p99.as_secs_f64() * 1e3,
        lat.len(),
    );
    server.shutdown();
    g.finish();
}

/// The resilience tax: full wire sessions driven by retrying clients
/// (handshake, bounded retries, reconnect-and-resume) fault-free vs under ~1% injected
/// connection resets, against a lease-configured server. Reports
/// sessions/sec and p99 session latency for both, so the price of
/// surviving a hostile network is a measured number.
fn bench_resilience(c: &mut Criterion) {
    const CLIENTS: usize = 4;
    const SESSIONS_PER_CLIENT: usize = 8;

    fn resilient_service() -> Arc<SessionManager> {
        Arc::new(SessionManager::new(
            marketplace(),
            SessionManagerConfig {
                max_sessions: 64,
                lease_secs: Some(30.0),
                ..SessionManagerConfig::default()
            },
        ))
    }

    fn run_batch(
        addr: std::net::SocketAddr,
        chaos: Option<ChaosConfig>,
        salt: u64,
    ) -> Vec<std::time::Duration> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    scope.spawn(move || {
                        let policy = RetryPolicy {
                            attempts: 12,
                            op_timeout: std::time::Duration::from_millis(800),
                            base_backoff: std::time::Duration::from_millis(1),
                            max_backoff: std::time::Duration::from_millis(20),
                            seed: salt ^ client as u64,
                        };
                        let mut builder = WireClient::builder(addr).retry(policy);
                        if let Some(cfg) = chaos {
                            builder = builder.chaos(cfg.derive(salt ^ (client as u64) << 8));
                        }
                        let mut c = builder.connect().unwrap();
                        let key = AttrSet::from_names(["sb_k"]);
                        let x = AttrSet::from_names(["sb_x"]);
                        let y = AttrSet::from_names(["sb_y"]);
                        let mut lat = Vec::with_capacity(SESSIONS_PER_CLIENT);
                        for s in 0..SESSIONS_PER_CLIENT {
                            let t0 = Instant::now();
                            let session =
                                open_session(&mut c, client as u64, (client * 100 + s) as u64);
                            for req in [
                                Request::QuoteBatch {
                                    session,
                                    items: vec![
                                        (DatasetId(0), x.clone()),
                                        (DatasetId(1), y.clone()),
                                    ],
                                },
                                Request::BuySample {
                                    session,
                                    dataset: 0,
                                    rate: 0.25,
                                    key: key.clone(),
                                },
                                Request::Execute {
                                    session,
                                    dataset: 1,
                                    attrs: y.clone(),
                                },
                                Request::CloseSession { session },
                            ] {
                                let reply = c.call(&req).unwrap();
                                assert!(reply.ok().is_some(), "fault: {reply:?}");
                            }
                            lat.push(t0.elapsed());
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        })
    }

    let reset_1pct = ChaosConfig {
        seed: 0xBAD_CAB1E,
        reset_rate: 0.01,
        ..ChaosConfig::quiet(0)
    };

    let mut c = c.clone().sample_size(10);
    let mut g = c.benchmark_group("resilience");
    for (label, chaos) in [("fault_free", None), ("reset1pct", Some(reset_1pct))] {
        let server = Server::start(
            resilient_service(),
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let mut salt = 0u64;

        g.bench_with_input(BenchmarkId::new("batch32", label), &(), |b, _| {
            b.iter(|| {
                salt += 1;
                black_box(run_batch(addr, chaos, salt))
            })
        });

        let t0 = Instant::now();
        let mut lat: Vec<std::time::Duration> = Vec::new();
        for batch in 0..4u64 {
            lat.extend(run_batch(addr, chaos, 0x1000 + batch));
        }
        let wall = t0.elapsed();
        lat.sort_unstable();
        let p99 = lat[(lat.len() * 99).div_ceil(100) - 1];
        eprintln!(
            "serving/resilience {label}: {:.1} sessions/sec, p99 session latency {:.3} ms \
             ({} resilient wire sessions of 5 calls)",
            lat.len() as f64 / wall.as_secs_f64(),
            p99.as_secs_f64() * 1e3,
            lat.len(),
        );
        server.shutdown();
    }
    g.finish();
}

/// `Session::quote_batch` vs one `quote` per item: the batch resolves the
/// pinned snapshot's listings once per item and memoizes duplicate
/// `(dataset, attrs)` pairs, so repeated quotes in a batch are free.
fn bench_quote_batch(c: &mut Criterion) {
    let mgr = service();
    let session = mgr.open(SessionConfig::default()).unwrap();
    // 64 items cycling over 6 distinct (dataset, attrs) pairs — the shape a
    // lattice-walking shopper produces (many repeated vertex quotes).
    let combos: Vec<(DatasetId, AttrSet)> = vec![
        (DatasetId(0), AttrSet::from_names(["sb_x"])),
        (DatasetId(0), AttrSet::from_names(["sb_k"])),
        (DatasetId(0), AttrSet::from_names(["sb_k", "sb_x"])),
        (DatasetId(1), AttrSet::from_names(["sb_y"])),
        (DatasetId(1), AttrSet::from_names(["sb_k"])),
        (DatasetId(1), AttrSet::from_names(["sb_k", "sb_y"])),
    ];
    let items: Vec<(DatasetId, AttrSet)> =
        (0..64).map(|i| combos[i % combos.len()].clone()).collect();

    let mut c = c.clone().sample_size(20);
    let mut g = c.benchmark_group("quote_batch");
    g.bench_with_input(BenchmarkId::new("quote_x64", "singly"), &(), |b, _| {
        b.iter(|| {
            items
                .iter()
                .map(|(id, attrs)| session.quote(*id, attrs).unwrap())
                .fold(0.0, |acc, p| acc + black_box(p))
        })
    });
    g.bench_with_input(BenchmarkId::new("quote_x64", "batched"), &(), |b, _| {
        b.iter(|| {
            session
                .quote_batch(black_box(&items))
                .unwrap()
                .into_iter()
                .fold(0.0, |acc, p| acc + p)
        })
    });
    g.finish();

    // Manual per-quote comparison.
    let rounds = 200;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for (id, attrs) in &items {
            black_box(session.quote(*id, attrs).unwrap());
        }
    }
    let singly = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..rounds {
        black_box(session.quote_batch(&items).unwrap());
    }
    let batched = t0.elapsed().as_secs_f64();
    let per_quote_singly = singly / (rounds * items.len()) as f64 * 1e9;
    let per_quote_batched = batched / (rounds * items.len()) as f64 * 1e9;
    eprintln!(
        "serving/quote_batch: {per_quote_singly:.0} ns/quote singly vs \
         {per_quote_batched:.0} ns/quote batched ({:.1}× per-quote saving, 64 items, 6 distinct)",
        per_quote_singly / per_quote_batched
    );
}

criterion_group! {
    name = serving;
    config = Criterion::default();
    targets = bench_wire_pipeline, bench_wire_sessions, bench_resilience, bench_quote_batch
}
criterion_main!(serving);
