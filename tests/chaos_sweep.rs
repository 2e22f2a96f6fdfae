//! Chaos-seed sweep: the serving layer's determinism contract under a
//! hostile network.
//!
//! For every pinned seed × fault class, a fleet of concurrent resilient
//! clients (bounded retries, reconnect-and-resume) runs a fixed shopping
//! script against the server while a seeded [`ChaosConfig`] injects
//! connection resets, mid-frame truncations, short writes and delays —
//! client-side in most scenarios, server-side in the last. The contract:
//!
//! * every client's **logical reply transcript is byte-identical** to the
//!   fault-free baseline run (retries, reconnects and session resumption
//!   are invisible at the request/reply level);
//! * **no double-charge**: per-session spend and the marketplace revenue
//!   fold match the baseline bitwise — retried `BuySample`/`Execute`
//!   frames are answered from the replay cache, not re-executed;
//! * **no slot leak**: after every client closes its session, the service
//!   reports zero open sessions, however many connections died mid-run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dance::market::{
    ChaosConfig, EntropyPricing, Marketplace, RetryPolicy, Server, ServerConfig, SessionManager,
    SessionManagerConfig, StatsSnapshot, WireClient,
};
use dance::market::{DatasetId, Reply, Request, Response};
use dance::relation::{AttrSet, Table, Value, ValueType};

/// Concurrent clients per run.
const CLIENTS: usize = 4;

/// Master chaos seeds swept per fault class.
const SEEDS: [u64; 3] = [7, 42, 0xC0FFEE];

fn marketplace() -> Arc<Marketplace> {
    let a = Table::from_rows(
        "cs_a",
        &[("cs_k", ValueType::Int), ("cs_x", ValueType::Str)],
        (0..96)
            .map(|i| vec![Value::Int(i % 7), Value::str(format!("x{}", i % 5))])
            .collect(),
    )
    .unwrap();
    let b = Table::from_rows(
        "cs_b",
        &[("cs_k", ValueType::Int), ("cs_y", ValueType::Int)],
        (0..80)
            .map(|i| vec![Value::Int(i % 7), Value::Int(i * 11 % 19)])
            .collect(),
    )
    .unwrap();
    Arc::new(Marketplace::new(vec![a, b], EntropyPricing::default()))
}

fn service() -> Arc<SessionManager> {
    Arc::new(SessionManager::new(
        marketplace(),
        SessionManagerConfig {
            max_sessions: CLIENTS,
            // Parked sessions stay resumable for the whole test; the pinned
            // secret makes tokens a pure function of the session id, so
            // open replies are byte-comparable across runs.
            lease_secs: Some(30.0),
            token_secret: Some((0xC0A5_0001, 0x1E55_0002)),
        },
    ))
}

/// The fixed script every client runs after its `OpenSession` (logical
/// request ids 2..=7 on every run, however many retries it takes).
fn shopping_ops(session: u64) -> Vec<Request> {
    let x = AttrSet::from_names(["cs_x"]);
    let y = AttrSet::from_names(["cs_y"]);
    let k = AttrSet::from_names(["cs_k"]);
    vec![
        Request::Quote {
            session,
            dataset: 0,
            attrs: x.clone(),
        },
        Request::QuoteBatch {
            session,
            items: vec![
                (DatasetId(0), x),
                (DatasetId(1), y.clone()),
                (DatasetId(0), k.clone()),
            ],
        },
        Request::BuySample {
            session,
            dataset: 0,
            rate: 0.5,
            key: k.clone(),
        },
        Request::BuySample {
            session,
            dataset: 1,
            rate: 0.25,
            key: k,
        },
        Request::Execute {
            session,
            dataset: 1,
            attrs: y,
        },
        Request::CloseSession { session },
    ]
}

/// What one client brings home from a run.
struct Outcome {
    session: u64,
    transcript: Vec<u8>,
    spent: f64,
    reconnects: u64,
}

/// Run the full fleet: `CLIENTS` threads, opens turnstiled into client
/// order (so session ids — and with the pinned secret, tokens — are a pure
/// function of the client index), then the shopping script driven
/// concurrently. Returns per-client outcomes, final server stats and the
/// marketplace revenue.
fn run_fleet(
    server_chaos: Option<ChaosConfig>,
    client_chaos: Option<ChaosConfig>,
) -> (Vec<Outcome>, StatsSnapshot, f64) {
    let mgr = service();
    let server = Server::start(
        Arc::clone(&mgr),
        ServerConfig {
            chaos: server_chaos,
            io_deadline: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let turn = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let turn = Arc::clone(&turn);
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    attempts: 12,
                    op_timeout: Duration::from_millis(800),
                    base_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(40),
                    seed: 0x5EED ^ c as u64,
                };
                let mut builder = WireClient::builder(addr).recording().retry(policy);
                if let Some(cfg) = client_chaos {
                    builder = builder.chaos(cfg.derive(c as u64));
                }
                let mut client = builder.connect().unwrap();
                // Turnstile: session ids are handed out in client order on
                // every run, chaotic or not. `call` returns only once the
                // open (retried as needed) has succeeded, so the slot is
                // assigned before the next client proceeds.
                while turn.load(Ordering::Acquire) != c {
                    std::thread::yield_now();
                }
                let open = client
                    .call(&Request::OpenSession {
                        shopper: c as u64,
                        seed: 1000 + c as u64,
                        budget: 100.0,
                    })
                    .unwrap();
                turn.store(c + 1, Ordering::Release);
                let Reply::Ok(Response::OpenSession { session, .. }) = open else {
                    panic!("client {c}: expected open, got {open:?}");
                };

                let mut spent = 0.0f64;
                for op in shopping_ops(session) {
                    let reply = client.call(&op).unwrap();
                    match reply {
                        Reply::Ok(Response::CloseSession {
                            purchases,
                            spent: s,
                            ..
                        }) => {
                            assert_eq!(purchases, 3, "client {c}: two samples + one projection");
                            spent = s;
                        }
                        Reply::Ok(_) => {}
                        Reply::Fault(f) => panic!("client {c}: fault on {op:?}: {f}"),
                    }
                }
                Outcome {
                    session,
                    transcript: client.transcript().to_vec(),
                    spent,
                    reconnects: client.reconnects(),
                }
            })
        })
        .collect();

    let mut outcomes: Vec<Outcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    outcomes.sort_by_key(|o| o.session);
    let revenue = mgr.market().revenue();
    let stats = server.shutdown();
    (outcomes, stats, revenue)
}

/// Assert one chaos run reproduced the baseline bit-for-bit.
fn assert_matches_baseline(
    label: &str,
    baseline: &[Outcome],
    run: &[Outcome],
    revenue0: f64,
    revenue: f64,
) {
    assert_eq!(run.len(), baseline.len());
    for (b, r) in baseline.iter().zip(run) {
        assert_eq!(r.session, b.session, "{label}: session ids are turnstiled");
        assert_eq!(
            r.transcript, b.transcript,
            "{label}: session {} logical transcript must be byte-identical to fault-free",
            b.session
        );
        assert_eq!(
            r.spent.to_bits(),
            b.spent.to_bits(),
            "{label}: session {} spend drifted (double charge?)",
            b.session
        );
    }
    assert_eq!(
        revenue.to_bits(),
        revenue0.to_bits(),
        "{label}: marketplace revenue drifted from the fault-free fold"
    );
    // Σ session spends (in session-id order, matching the revenue fold)
    // == revenue, bitwise: nothing was charged outside the transcripts.
    let total = run.iter().fold(0.0f64, |acc, o| acc + o.spent);
    assert_eq!(
        total.to_bits(),
        revenue.to_bits(),
        "{label}: Σ ledgers != revenue"
    );
}

#[test]
fn chaos_sweep_matches_fault_free_baseline_bitwise() {
    let (baseline, stats0, revenue0) = run_fleet(None, None);
    assert_eq!(stats0.sessions_open, 0);
    assert_eq!(
        stats0.resumes + stats0.replay_hits,
        0,
        "baseline saw no faults"
    );
    for o in &baseline {
        assert_eq!(o.reconnects, 0, "baseline saw no reconnects");
    }

    // (label, per-class rates); `seed` is patched per sweep iteration.
    let classes: [(&str, ChaosConfig); 4] = [
        (
            "resets",
            ChaosConfig {
                reset_rate: 0.02,
                ..ChaosConfig::quiet(0)
            },
        ),
        (
            "truncations",
            ChaosConfig {
                truncate_rate: 0.04,
                ..ChaosConfig::quiet(0)
            },
        ),
        (
            "fragmentation+delays",
            ChaosConfig {
                short_write_rate: 0.25,
                delay_rate: 0.10,
                max_delay_ms: 2,
                ..ChaosConfig::quiet(0)
            },
        ),
        ("hostile", ChaosConfig::hostile(0)),
    ];

    let mut faulted_runs = 0u32;
    for (name, class) in classes {
        for seed in SEEDS {
            let cfg = ChaosConfig { seed, ..class };
            let label = format!("client-chaos {name} seed {seed:#x}");
            let (run, stats, revenue) = run_fleet(None, Some(cfg));
            assert_matches_baseline(&label, &baseline, &run, revenue0, revenue);
            assert_eq!(stats.sessions_open, 0, "{label}: leaked a session slot");
            faulted_runs += u32::from(run.iter().any(|o| o.reconnects > 0));
        }
    }
    // The sweep must actually exercise the resilience path, not vacuously
    // pass because the rates rounded to nothing.
    assert!(
        faulted_runs >= SEEDS.len() as u32,
        "sweep too quiet: only {faulted_runs} runs saw a reconnect"
    );
}

#[test]
fn server_side_chaos_matches_fault_free_baseline_bitwise() {
    let (baseline, _, revenue0) = run_fleet(None, None);
    for seed in SEEDS {
        let cfg = ChaosConfig::hostile(seed);
        let label = format!("server-chaos hostile seed {seed:#x}");
        let (run, stats, revenue) = run_fleet(Some(cfg), None);
        assert_matches_baseline(&label, &baseline, &run, revenue0, revenue);
        assert_eq!(stats.sessions_open, 0, "{label}: leaked a session slot");
    }
}
