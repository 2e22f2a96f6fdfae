//! End-to-end determinism and robustness of the wire serving layer.
//!
//! The contract under test: a session served over the socket protocol is
//! the *same pure function* as a session run in-process — its wire-level
//! response transcript is **byte-identical** to re-encoding the responses
//! an in-process replay produces against the pinned snapshot, even with 8
//! clients hammering the server concurrently and a seller update landing
//! mid-run.

use std::sync::{Arc, Barrier};

use dance::market::wire::{self, Reply, Request, Response};
use dance::market::{
    CatalogSnapshot, DatasetId, FaultCode, RateLimit, Server, ServerConfig, SessionId,
    SessionManager, SessionManagerConfig, WireClient,
};
use dance::prelude::*;
use dance::relation::TableDelta;

fn marketplace() -> Arc<Marketplace> {
    let a = Table::from_rows(
        "ws_a",
        &[("ws_k", ValueType::Int), ("ws_x", ValueType::Str)],
        (0..120)
            .map(|i| vec![Value::Int(i % 8), Value::str(format!("x{}", i % 5))])
            .collect(),
    )
    .unwrap();
    let b = Table::from_rows(
        "ws_b",
        &[("ws_k", ValueType::Int), ("ws_y", ValueType::Int)],
        (0..90)
            .map(|i| vec![Value::Int(i % 8), Value::Int(i * 7 % 23)])
            .collect(),
    )
    .unwrap();
    Arc::new(Marketplace::new(vec![a, b], EntropyPricing::default()))
}

/// The deterministic call sequence every client runs: quotes (single and
/// batched, with a duplicate answered from the batch memo), two seeded
/// sample purchases, a projection purchase, then close.
fn shopping_ops() -> Vec<Request> {
    let key = AttrSet::from_names(["ws_k"]);
    let x = AttrSet::from_names(["ws_x"]);
    let y = AttrSet::from_names(["ws_y"]);
    vec![
        Request::QuoteBatch {
            session: 0, // patched with the real session id
            items: vec![
                (DatasetId(0), x.clone()),
                (DatasetId(1), y.clone()),
                (DatasetId(0), x.clone()),
            ],
        },
        Request::Quote {
            session: 0,
            dataset: 1,
            attrs: y.clone(),
        },
        Request::BuySample {
            session: 0,
            dataset: 0,
            rate: 0.3,
            key: key.clone(),
        },
        Request::Execute {
            session: 0,
            dataset: 1,
            attrs: y,
        },
        Request::BuySample {
            session: 0,
            dataset: 1,
            rate: 0.5,
            key,
        },
    ]
}

fn patch_session(req: &Request, session: u64) -> Request {
    let mut r = req.clone();
    match &mut r {
        Request::Quote { session: s, .. }
        | Request::QuoteBatch { session: s, .. }
        | Request::BuySample { session: s, .. }
        | Request::Execute { session: s, .. }
        | Request::Repin { session: s }
        | Request::CloseSession { session: s } => *s = session,
        Request::OpenSession { .. }
        | Request::Stats
        | Request::Hello { .. }
        | Request::Resume { .. } => {}
    }
    r
}

/// What one wire client brings home: its transcript and enough identity to
/// replay it.
struct ClientRun {
    client: usize,
    wire_session: u64,
    pinned_version: u64,
    spent: f64,
    transcript: Vec<u8>,
}

/// Drive one full session over the wire with pipelining: open (awaited, to
/// learn the session id), then every shopping op queued as one in-flight
/// batch (depth = ops), then close (awaited).
fn run_wire_client(addr: std::net::SocketAddr, client: usize, seed: u64) -> ClientRun {
    let mut c = WireClient::builder(addr).recording().connect().unwrap();
    let open = c
        .call(&Request::OpenSession {
            shopper: client as u64,
            seed,
            budget: 1e6,
        })
        .unwrap();
    let Reply::Ok(Response::OpenSession {
        session,
        version: pinned_version,
        ..
    }) = open
    else {
        panic!("client {client}: expected open, got {open:?}");
    };
    let ops = shopping_ops();
    let ids: Vec<u64> = ops
        .iter()
        .map(|op| c.queue(&patch_session(op, session)))
        .collect();
    c.flush().unwrap();
    for want in ids {
        let (got, reply) = c.recv_reply().unwrap();
        assert_eq!(got, want, "pipelined responses arrive in request order");
        assert!(reply.ok().is_some(), "client {client}: fault {reply:?}");
    }
    let closed = c.call(&Request::CloseSession { session }).unwrap();
    let Reply::Ok(Response::CloseSession { spent, .. }) = closed else {
        panic!("client {client}: expected close, got {closed:?}");
    };
    ClientRun {
        client,
        wire_session: session,
        pinned_version,
        spent,
        transcript: c.transcript().to_vec(),
    }
}

/// Replay one client's calls in-process against the pinned snapshot and
/// re-encode the responses it *should* have seen. Request ids per connection
/// are deterministic (1, 2, 3…), so the whole expected transcript is a pure
/// function of `(snapshot, seed, wire session id)`.
fn replay_transcript(mgr: &SessionManager, run: &ClientRun, snapshot: CatalogSnapshot) -> Vec<u8> {
    assert_eq!(snapshot.version(), run.pinned_version);
    let mut session = mgr
        .open_at(
            SessionConfig {
                budget: 1e6,
                seed: 0xC0FFEE + run.client as u64,
            },
            snapshot,
        )
        .unwrap();
    let mut expected = Vec::new();
    let mut next_id = 1u64;
    let push = |op: wire::Opcode, resp: Response, expected: &mut Vec<u8>, next_id: &mut u64| {
        wire::encode_reply_v(
            expected,
            wire::PROTOCOL_VERSION,
            *next_id,
            op as u16,
            &Reply::Ok(resp),
        );
        *next_id += 1;
    };
    push(
        wire::Opcode::OpenSession,
        Response::OpenSession {
            session: run.wire_session,
            version: session.pinned_version(),
            token: mgr.session_token(SessionId(run.wire_session)).0,
        },
        &mut expected,
        &mut next_id,
    );
    for op in shopping_ops() {
        let resp = match op {
            Request::QuoteBatch { items, .. } => Response::QuoteBatch {
                prices: session.quote_batch(&items).unwrap(),
            },
            Request::Quote { dataset, attrs, .. } => Response::Quote {
                price: session.quote(DatasetId(dataset), &attrs).unwrap(),
            },
            Request::BuySample {
                dataset, rate, key, ..
            } => {
                let (table, price) = session.buy_sample(DatasetId(dataset), &key, rate).unwrap();
                Response::BuySample {
                    price,
                    rows: table.num_rows() as u64,
                    digest: wire::table_digest(&table),
                }
            }
            Request::Execute { dataset, attrs, .. } => {
                let (table, price) = session.execute_by_id(DatasetId(dataset), &attrs).unwrap();
                Response::Execute {
                    price,
                    rows: table.num_rows() as u64,
                    digest: wire::table_digest(&table),
                }
            }
            other => panic!("unexpected op {other:?}"),
        };
        let opcode = match &resp {
            Response::QuoteBatch { .. } => wire::Opcode::QuoteBatch,
            Response::Quote { .. } => wire::Opcode::Quote,
            Response::BuySample { .. } => wire::Opcode::BuySample,
            Response::Execute { .. } => wire::Opcode::Execute,
            _ => unreachable!(),
        };
        push(opcode, resp, &mut expected, &mut next_id);
    }
    let report = mgr.close(session);
    push(
        wire::Opcode::CloseSession,
        Response::CloseSession {
            seed: report.seed,
            version: report.catalog_version,
            purchases: report.purchases.len() as u32,
            spent: report.spent,
            remaining: report.remaining,
        },
        &mut expected,
        &mut next_id,
    );
    expected
}

/// The tentpole pin: 8 concurrent wire clients, a seller update mid-run,
/// transcripts byte-identical to in-process replays at the pinned version,
/// and Σ session spends == marketplace revenue bitwise.
#[test]
fn eight_wire_clients_update_midrun_transcripts_replay_bitwise() {
    let market = marketplace();
    let mgr = Arc::new(SessionManager::new(
        Arc::clone(&market),
        SessionManagerConfig {
            max_sessions: 64,
            ..SessionManagerConfig::default()
        },
    ));
    let server = Server::start(Arc::clone(&mgr), ServerConfig::default()).unwrap();
    let addr = server.addr();
    let snapshot_v0 = market.snapshot();

    // Clients 0–3 open (pinning v0) before the seller update; clients 4–7
    // open after it (pinning v1). Two barriers sequence the three parties.
    let opened_v0 = Barrier::new(5);
    let updated = Barrier::new(9);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|client| {
                let (opened_v0, updated) = (&opened_v0, &updated);
                scope.spawn(move || {
                    let seed = 0xC0FFEE + client as u64;
                    if client < 4 {
                        let mut c = WireClient::builder(addr).recording().connect().unwrap();
                        let open = c
                            .call(&Request::OpenSession {
                                shopper: client as u64,
                                seed,
                                budget: 1e6,
                            })
                            .unwrap();
                        let Reply::Ok(Response::OpenSession {
                            session, version, ..
                        }) = open
                        else {
                            panic!("expected open, got {open:?}");
                        };
                        assert_eq!(version, 0, "pre-update clients pin v0");
                        opened_v0.wait();
                        updated.wait();
                        // Shop *after* the update landed: the pin must hold.
                        let ops = shopping_ops();
                        let ids: Vec<u64> = ops
                            .iter()
                            .map(|op| c.queue(&patch_session(op, session)))
                            .collect();
                        c.flush().unwrap();
                        for want in ids {
                            let (got, reply) = c.recv_reply().unwrap();
                            assert_eq!(got, want);
                            assert!(reply.ok().is_some(), "fault: {reply:?}");
                        }
                        let closed = c.call(&Request::CloseSession { session }).unwrap();
                        let Reply::Ok(Response::CloseSession { spent, .. }) = closed else {
                            panic!("expected close, got {closed:?}");
                        };
                        ClientRun {
                            client,
                            wire_session: session,
                            pinned_version: 0,
                            spent,
                            transcript: c.transcript().to_vec(),
                        }
                    } else {
                        updated.wait();
                        let run = run_wire_client(addr, client, seed);
                        assert_eq!(run.pinned_version, 1, "post-update clients pin v1");
                        run
                    }
                })
            })
            .collect();

        opened_v0.wait();
        // The seller update: delete 40 rows of ws_a while four sessions are
        // open at v0 and four more are about to open at v1.
        let delta = TableDelta::new(Vec::new(), (0..40).collect());
        market.apply_update(DatasetId(0), &delta).unwrap();
        updated.wait();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let snapshot_v1 = market.snapshot();
    assert_eq!(snapshot_v1.version(), 1);

    // Σ session spends (folded in session-id order, matching the
    // marketplace's per-stripe fold) == revenue(), bitwise. Checked before
    // the replays below add their own revenue stripes.
    let mut by_sid: Vec<&ClientRun> = runs.iter().collect();
    by_sid.sort_by_key(|r| r.wire_session);
    let total = by_sid.iter().fold(0.0f64, |acc, r| acc + r.spent);
    assert_eq!(
        total.to_bits(),
        market.revenue().to_bits(),
        "Σ wire-session ledgers reconcile with marketplace revenue bitwise"
    );

    // Byte-identical transcripts: replay every client in-process against its
    // pinned snapshot and compare raw response bytes.
    for run in &runs {
        let snapshot = if run.pinned_version == 0 {
            snapshot_v0.clone()
        } else {
            snapshot_v1.clone()
        };
        let expected = replay_transcript(&mgr, run, snapshot);
        assert_eq!(
            expected, run.transcript,
            "client {} (wire session {}, pinned v{}): transcript differs from in-process replay",
            run.client, run.wire_session, run.pinned_version
        );
    }

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0);
    // Per client: Hello, open, five shopping ops and close.
    assert_eq!(stats.requests_served, 8 * 8);
    assert_eq!(stats.sessions_opened as usize, 8 + 8); // 8 wire + 8 replays
}

/// Rate-limited shoppers get `Rejected` frames, not hangs — and the limit
/// is per shopper, so a well-behaved shopper on the same server is
/// untouched.
#[test]
fn rate_limited_clients_get_rejected_frames_not_hangs() {
    let market = marketplace();
    let mgr = Arc::new(SessionManager::new(
        market,
        SessionManagerConfig {
            max_sessions: 64,
            ..SessionManagerConfig::default()
        },
    ));
    let server = Server::start(
        Arc::clone(&mgr),
        ServerConfig {
            rate_limit: Some(RateLimit {
                per_sec: 0.0001,
                burst: 4.0,
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let results: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|shopper| {
                scope.spawn(move || {
                    let mut c = WireClient::connect(addr).unwrap();
                    let open = c
                        .call(&Request::OpenSession {
                            shopper,
                            seed: 1,
                            budget: 1e6,
                        })
                        .unwrap();
                    let Reply::Ok(Response::OpenSession { session, .. }) = open else {
                        panic!("expected open, got {open:?}");
                    };
                    let attrs = AttrSet::from_names(["ws_x"]);
                    let (mut ok, mut rejected) = (0usize, 0usize);
                    // 10 quotes against a burst of 4 (one token went to the
                    // open): every request gets an answer, over-limit ones a
                    // Rejected fault.
                    for _ in 0..10 {
                        let reply = c
                            .call(&Request::Quote {
                                session,
                                dataset: 0,
                                attrs: attrs.clone(),
                            })
                            .unwrap();
                        match reply {
                            Reply::Ok(_) => ok += 1,
                            Reply::Fault(f) => {
                                assert_eq!(f.code, FaultCode::Rejected, "unexpected {f}");
                                rejected += 1;
                            }
                        }
                    }
                    (ok, rejected)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (shopper, (ok, rejected)) in results.iter().enumerate() {
        assert_eq!(
            ok + rejected,
            10,
            "shopper {shopper}: every request answered"
        );
        assert_eq!(
            *ok, 3,
            "shopper {shopper}: burst admits 3 quotes after open"
        );
        assert_eq!(*rejected, 7);
    }
    let stats = server.shutdown();
    assert_eq!(stats.rate_limited, 14);
    assert_eq!(stats.protocol_errors, 0);
}
