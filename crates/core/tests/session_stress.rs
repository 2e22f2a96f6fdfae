//! Threaded stress test of the session service (in the style of
//! `multichain_stress.rs`): N session threads run seeded sample-then-commit
//! loops — multi-chain MCMC searches over one shared `JoinGraph` plus
//! sample/projection purchases through their own `Session` — against one
//! shared `Marketplace`, while a seller update (`apply_update`) lands
//! mid-run from the writer thread. Pins three things:
//!
//! 1. **Determinism:** every per-session report from the concurrent run is
//!    bit-identical to the same session run sequentially (same pinned
//!    catalog version, same seed) — concurrency changes *when* work happens,
//!    never *what* a session buys or pays.
//! 2. **Reconciliation:** Σ per-session ledger spend equals marketplace
//!    revenue exactly (bitwise), because revenue is striped per session and
//!    folded in session order.
//! 3. **Coherence:** no session ever observes a torn catalog version — in
//!    every snapshot any thread takes, Σ listing versions == snapshot
//!    version, and pinned sessions keep their pre-update version while the
//!    live catalog moves on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dance_core::mcmc::find_optimal_target_graph;
use dance_core::target::Cover;
use dance_core::{Constraints, JoinGraph, JoinGraphConfig, McmcConfig, TargetGraph};
use dance_market::{
    DatasetId, DatasetMeta, EntropyPricing, Marketplace, ProjectionQuery, SessionConfig,
    SessionManager, SessionManagerConfig, SessionReport,
};
use dance_relation::{AttrSet, FxHashSet, Table, TableDelta, Value, ValueType};

/// Deterministic 3-instance path catalog: d0(ik, sk, src) — d1(ik, sk, jk,
/// jl) — d2(jk, jl, tgt), every edge with several candidate join sets so the
/// walk really proposes flips (same shape as `multichain_stress.rs`).
fn catalog_tables() -> Vec<Table> {
    let (k, n, seed) = (4u64, 24usize, 7u64);
    let mk_key = |h: u64, shift: u32, idx: usize| {
        let v = (h >> shift) % (k + 1);
        (
            if v == 0 {
                Value::Null
            } else {
                Value::Int(v as i64)
            },
            if (h >> (shift + 3)).is_multiple_of(k + 1) {
                Value::Null
            } else {
                Value::str(format!("s{}", (h >> (shift + 3)) % (k + idx as u64)))
            },
        )
    };
    let specs: [(&str, &[(&str, ValueType)]); 3] = [
        (
            "ss_d0",
            &[
                ("ss_ik", ValueType::Int),
                ("ss_sk", ValueType::Str),
                ("ss_src", ValueType::Int),
            ],
        ),
        (
            "ss_d1",
            &[
                ("ss_ik", ValueType::Int),
                ("ss_sk", ValueType::Str),
                ("ss_jk", ValueType::Int),
                ("ss_jl", ValueType::Str),
            ],
        ),
        (
            "ss_d2",
            &[
                ("ss_jk", ValueType::Int),
                ("ss_jl", ValueType::Str),
                ("ss_tgt", ValueType::Str),
            ],
        ),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(idx, (name, attrs))| {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|r| {
                    let h = dance_relation::hash::stable_hash64(seed + idx as u64, &(r as u64));
                    let (ik, sk) = mk_key(h, 0, idx + 1);
                    let (jk, jl) = mk_key(h, 16, idx + 2);
                    match idx {
                        0 => vec![ik, sk, Value::Int((h % 7) as i64)],
                        1 => vec![ik, sk, jk, jl],
                        _ => vec![jk, jl, Value::str(format!("t{}", h % 5))],
                    }
                })
                .collect();
            Table::from_rows(name, attrs, rows).unwrap()
        })
        .collect()
}

/// The shared shopper-side join graph every session searches: built once
/// over the (free) evaluation tables, with small cache caps so concurrent
/// sessions genuinely churn the eval caches.
fn shared_graph(market: &Marketplace) -> JoinGraph {
    let metas: Vec<DatasetMeta> = market.catalog();
    let tables: Vec<Table> = metas
        .iter()
        .map(|m| {
            market
                .full_table_for_evaluation(m.id)
                .unwrap()
                .as_ref()
                .clone()
        })
        .collect();
    JoinGraph::build(
        metas,
        tables,
        EntropyPricing::default(),
        &JoinGraphConfig {
            cache_cap: 8,
            ..JoinGraphConfig::default()
        },
    )
    .unwrap()
}

fn search(graph: &JoinGraph, seed: u64, chains: usize) -> Option<TargetGraph> {
    let tree_edges = [(0u32, 1u32), (1u32, 2u32)];
    let mut sc = Cover::new();
    sc.insert(0, AttrSet::from_names(["ss_src"]));
    let mut tc = Cover::new();
    tc.insert(2, AttrSet::from_names(["ss_tgt"]));
    find_optimal_target_graph(
        graph,
        &FxHashSet::default(),
        &tree_edges,
        &sc,
        &tc,
        &AttrSet::from_names(["ss_src"]),
        &AttrSet::from_names(["ss_tgt"]),
        &Constraints::unbounded(),
        &McmcConfig {
            iterations: 20,
            seed,
            chains,
            ..McmcConfig::default()
        },
    )
    .unwrap()
}

/// One session's whole scripted life: a few rounds of search → buy a sample
/// of the first plan vertex → purchase every projection the plan names.
/// Everything downstream of `(pinned snapshot, seed)` is deterministic.
fn run_session(mgr: &SessionManager, graph: &JoinGraph, seed: u64, rounds: usize) -> SessionReport {
    let mut session = mgr
        .open(SessionConfig { budget: 1e6, seed })
        .expect("under capacity");
    assert!(
        session.snapshot().is_coherent(),
        "pinned snapshot must never be torn"
    );
    for round in 0..rounds {
        let tg = search(graph, seed.wrapping_add(round as u64), 2).expect("a plan exists");
        let mut vertices: Vec<u32> = tg.projections.keys().copied().collect();
        vertices.sort_unstable();
        let first = DatasetId(vertices[0]);
        let key = session.meta(first).unwrap().default_key.clone();
        session
            .buy_sample(first, &key, 0.5)
            .expect("sample affordable");
        for v in vertices {
            let attrs = tg.projections[&v].clone();
            let name = session.meta(DatasetId(v)).unwrap().name.clone();
            session
                .execute(&ProjectionQuery {
                    dataset: DatasetId(v),
                    dataset_name: name,
                    attrs,
                })
                .expect("projection affordable");
        }
    }
    mgr.close(session)
}

fn assert_reports_bit_equal(a: &SessionReport, b: &SessionReport) {
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.catalog_version, b.catalog_version, "pinned versions");
    assert_eq!(a.spent.to_bits(), b.spent.to_bits(), "spend diverged");
    assert_eq!(a.purchases.len(), b.purchases.len());
    for (x, y) in a.purchases.iter().zip(&b.purchases) {
        assert_eq!(x.dataset, y.dataset);
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.price.to_bits(), y.price.to_bits(), "price diverged");
    }
}

/// The seller-side update: inserts plus deletes against instance 0.
fn update() -> TableDelta {
    TableDelta::new(
        vec![
            vec![Value::Int(3), Value::str("s_fresh"), Value::Int(11)],
            vec![Value::Null, Value::str("s1"), Value::Int(2)],
        ],
        vec![0, 5, 17],
    )
}

#[test]
fn concurrent_sessions_are_bit_identical_to_sequential_and_ledgers_reconcile() {
    const SESSIONS: usize = 6;
    const ROUNDS: usize = 2;

    // ---- Concurrent run: N session threads + a seller update mid-run.
    let market = Arc::new(Marketplace::new(
        catalog_tables(),
        EntropyPricing::default(),
    ));
    let mgr = SessionManager::new(
        Arc::clone(&market),
        SessionManagerConfig {
            max_sessions: SESSIONS,
            ..SessionManagerConfig::default()
        },
    );
    let graph = shared_graph(&market);
    let started = AtomicUsize::new(0);
    let mut concurrent: Vec<SessionReport> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for s in 0..SESSIONS {
            let mgr = &mgr;
            let graph = &graph;
            let started = &started;
            handles.push(scope.spawn(move || {
                started.fetch_add(1, Ordering::SeqCst);
                run_session(mgr, graph, 1000 + s as u64, ROUNDS)
            }));
        }
        // Land the seller update mid-run: after every session thread has
        // started (and pinned v0 inside run_session — sessions that
        // opened before the update keep shopping at v0 regardless of
        // when the swap lands relative to their purchases).
        while started.load(Ordering::SeqCst) < SESSIONS {
            std::hint::spin_loop();
        }
        market
            .apply_update(DatasetId(0), &update())
            .expect("mid-flight update applies");
        // Any snapshot taken after the swap is coherent too.
        assert!(market.snapshot().is_coherent());
        for h in handles {
            concurrent.push(h.join().unwrap());
        }
    });

    // Sessions raced the update: some may have pinned v0, some v1. All
    // snapshots were coherent; replay each session at its pinned version.
    assert_eq!(market.catalog_version(), 1);
    let fresh = market.snapshot();
    assert!(fresh.is_coherent());
    assert_eq!(fresh.meta(DatasetId(0)).unwrap().version, 1);

    // ---- Reconciliation: Σ per-session ledger spend == revenue, bitwise.
    let mut by_id = concurrent.clone();
    by_id.sort_by_key(|r| r.id);
    let ledger_total = by_id.iter().fold(0.0, |acc, r| acc + r.spent);
    assert_eq!(
        ledger_total.to_bits(),
        market.revenue().to_bits(),
        "Σ session ledgers must equal marketplace revenue exactly"
    );
    for r in &by_id {
        assert_eq!(
            market.session_revenue(r.id).to_bits(),
            r.spent.to_bits(),
            "per-session stripe == session ledger"
        );
    }
    let (samples, queries) = market.sales();
    assert_eq!(samples, SESSIONS * ROUNDS);
    assert_eq!(
        queries,
        concurrent
            .iter()
            .map(|r| r.purchases.len() - ROUNDS)
            .sum::<usize>()
    );

    // ---- Determinism: replay every session alone, sequentially, on a
    // marketplace driven to the same pinned version, and require
    // bit-identical reports.
    for report in &concurrent {
        let market2 = Arc::new(Marketplace::new(
            catalog_tables(),
            EntropyPricing::default(),
        ));
        if report.catalog_version == 1 {
            market2.apply_update(DatasetId(0), &update()).unwrap();
        }
        let mgr2 = SessionManager::new(Arc::clone(&market2), SessionManagerConfig::default());
        let graph2 = shared_graph(&market2);
        let solo = run_session(&mgr2, &graph2, report.seed, ROUNDS);
        assert_reports_bit_equal(report, &solo);
    }

    let stats = mgr.stats();
    assert_eq!(stats.opened, SESSIONS);
    assert_eq!(stats.closed, SESSIONS);
    assert_eq!(stats.open, 0);
}
