//! Threaded stress test of the multi-chain search over the graph's locked
//! evaluation caches: several searcher threads hammer 8-chain searches on a
//! shared `RwLock<JoinGraph>` while a seller update (`apply_delta`) lands
//! mid-loop from the writer. Pins three things: no deadlock between the
//! cache locks of searchers sharing one graph, the cache cap invariants
//! under concurrent insert/evict pressure, and that a search after the
//! mid-flight update is bit-identical to a search on a freshly built
//! post-update catalog.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

use dance_core::mcmc::find_optimal_target_graph;
use dance_core::target::Cover;
use dance_core::{Constraints, JoinGraph, JoinGraphConfig, McmcConfig, TargetGraph};
use dance_market::{DatasetId, DatasetMeta, EntropyPricing};
use dance_relation::{AttrSet, FxHashSet, Table, TableDelta, Value, ValueType};

/// Deterministic 3-instance path catalog (the same shape the props suite
/// randomizes): d0(ik, sk, src) — d1(ik, sk, jk, jl) — d2(jk, jl, tgt), every
/// edge with 3 candidate join sets so the walk really proposes flips.
fn catalog() -> (Vec<DatasetMeta>, Vec<Table>) {
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
            "ms_d0",
            &[
                ("ms_ik", ValueType::Int),
                ("ms_sk", ValueType::Str),
                ("ms_src", ValueType::Int),
            ],
        ),
        (
            "ms_d1",
            &[
                ("ms_ik", ValueType::Int),
                ("ms_sk", ValueType::Str),
                ("ms_jk", ValueType::Int),
                ("ms_jl", ValueType::Str),
            ],
        ),
        (
            "ms_d2",
            &[
                ("ms_jk", ValueType::Int),
                ("ms_jl", ValueType::Str),
                ("ms_tgt", ValueType::Str),
            ],
        ),
    ];
    let mut metas = Vec::new();
    let mut samples = Vec::new();
    for (idx, (name, attrs)) in specs.into_iter().enumerate() {
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
        let t = Table::from_rows(name, attrs, rows).unwrap();
        metas.push(DatasetMeta {
            id: DatasetId(idx as u32),
            name: t.name().to_string(),
            schema: t.schema().clone(),
            num_rows: t.num_rows(),
            default_key: AttrSet::singleton(t.schema().attributes()[0].id),
            version: 0,
        });
        samples.push(t);
    }
    (metas, samples)
}

fn search(graph: &JoinGraph, seed: u64, chains: usize) -> Option<TargetGraph> {
    let tree_edges = [(0u32, 1u32), (1u32, 2u32)];
    let mut sc = Cover::new();
    sc.insert(0, AttrSet::from_names(["ms_src"]));
    let mut tc = Cover::new();
    tc.insert(2, AttrSet::from_names(["ms_tgt"]));
    find_optimal_target_graph(
        graph,
        &FxHashSet::default(),
        &tree_edges,
        &sc,
        &tc,
        &AttrSet::from_names(["ms_src"]),
        &AttrSet::from_names(["ms_tgt"]),
        &Constraints::unbounded(),
        &McmcConfig {
            iterations: 25,
            seed,
            chains,
            ..McmcConfig::default()
        },
    )
    .unwrap()
}

fn assert_bit_equal(a: &Option<TargetGraph>, b: &Option<TargetGraph>) {
    match (a, b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.tree_edges, y.tree_edges);
            assert_eq!(x.join_attrs, y.join_attrs);
            assert_eq!(x.projections, y.projections);
            assert_eq!(x.corr.to_bits(), y.corr.to_bits(), "corr diverged");
            assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "weight diverged");
            assert_eq!(x.quality.to_bits(), y.quality.to_bits(), "quality diverged");
            assert_eq!(x.price.to_bits(), y.price.to_bits(), "price diverged");
        }
        _ => panic!("one search found a target graph, the other did not"),
    }
}

/// The seller-side update: a few inserts plus deletes against instance 0.
fn update() -> TableDelta {
    TableDelta::new(
        vec![
            vec![Value::Int(3), Value::str("s_fresh"), Value::Int(11)],
            vec![Value::Null, Value::str("s1"), Value::Int(2)],
            vec![Value::Int(1), Value::Null, Value::Int(5)],
        ],
        vec![0, 5, 17],
    )
}

#[test]
fn concurrent_multi_chain_searches_survive_a_mid_flight_update() {
    let (metas, samples) = catalog();
    let build = |tables: Vec<Table>| {
        JoinGraph::build(
            metas.clone(),
            tables,
            EntropyPricing::default(),
            &JoinGraphConfig {
                // Small caps so the stress actually churns evictions.
                cache_cap: 8,
                ..JoinGraphConfig::default()
            },
        )
        .unwrap()
    };
    let graph = RwLock::new(build(samples.clone()));
    let done = AtomicUsize::new(0);
    const SEARCHERS: usize = 3;
    const ROUNDS: usize = 4;

    std::thread::scope(|scope| {
        for s in 0..SEARCHERS {
            let graph = &graph;
            let done = &done;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let g = graph.read().unwrap();
                    // 8 chains share one memo; the searcher threads
                    // hammer the selection/projection caches
                    // concurrently.
                    let found = search(&g, (s * ROUNDS + round) as u64, 8);
                    assert!(found.is_some(), "unconstrained search found a graph");
                    assert!(
                        g.sel_cache_len() <= g.cache_cap(),
                        "selection cache exceeded its cap under contention"
                    );
                    assert!(g.proj_cache_len() <= 8, "projection cache exceeded its cap");
                    drop(g);
                    done.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        // Land the seller update mid-loop: after the searchers have
        // completed some rounds but before they have finished.
        while done.load(Ordering::SeqCst) < SEARCHERS {
            std::hint::spin_loop();
        }
        graph
            .write()
            .unwrap()
            .apply_delta(0, &update())
            .expect("mid-flight delta applies");
    });

    // Post-update searches on the long-lived graph must equal searches
    // on a catalog freshly built over the patched tables — the update
    // invalidated exactly the stale cache entries and nothing else.
    let updated = graph.into_inner().unwrap();
    let mut patched = samples.clone();
    patched[0] = patched[0].apply_delta(&update()).unwrap();
    let fresh = build(patched);
    for seed in [0u64, 9, 41] {
        for chains in [1usize, 8] {
            assert_bit_equal(
                &search(&updated, seed, chains),
                &search(&fresh, seed, chains),
            );
        }
    }
}
