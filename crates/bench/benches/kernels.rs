//! Microbenchmarks of the computational kernels every experiment rests on:
//! entropy, join informativeness, partitions/quality, joins, sampling, and
//! the per-iteration cost of the MCMC search.
//!
//! Beyond the single-kernel entries, the groups measure every layer's
//! speedup rather than assuming it:
//!
//! * `join_pipeline`: the symbol-native late-materialization tree join on
//!   2- and 4-hop string-keyed chains, shared vs private dictionaries;
//! * `join_graph_build`: the full `JoinGraph::build` (the offline phase of
//!   §4) on a larger TPC-H instance;
//! * `mcmc_search` / `mcmc_multichain`: the MCMC walk from cold caches (one
//!   chain) and on the warm graph-wide memo (one chain and best-of-N chains
//!   run in sequence on the calling thread);
//! * `catalog_update`: delta-based catalog maintenance
//!   (`JoinGraph::apply_delta`) against the full `refresh_sample` rebuild it
//!   replaces;
//! * `session_service`: batches of concurrent acquisition sessions
//!   (sessions/sec, p99 session latency at 1/4 workers with a seller update
//!   landing mid-batch).
//!
//! ```sh
//! cargo bench -p dance-bench --bench kernels
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dance_core::mcmc::find_optimal_target_graph;
use dance_core::target::Cover;
use dance_core::{Constraints, JoinGraph, JoinGraphConfig, McmcConfig};
use dance_datagen::tpch::{tpch, TpchConfig};
use dance_info::{correlation, join_informativeness, shannon_entropy};
use dance_market::{
    DatasetId, DatasetMeta, EntropyPricing, Marketplace, ProjectionQuery, SessionConfig,
    SessionManager, SessionManagerConfig,
};
use dance_quality::{discover_afds, quality, Fd, TaneConfig};
use dance_relation::join::{hash_join, JoinKind};
use dance_relation::{AttrSet, InternerRegistry, Table, TableDelta, Value, ValueType};
use dance_sampling::CorrelatedSampler;
use std::hint::black_box;

fn tables() -> Vec<Table> {
    tpch(&TpchConfig {
        scale: 0.5,
        dirty_fraction: 0.3,
        seed: 42,
    })
    .expect("generation")
}

/// The largest catalog the benches use (lineitem is ~150k rows at scale
/// 100).
fn scale100_tables() -> Vec<Table> {
    tpch(&TpchConfig {
        scale: 100.0,
        dirty_fraction: 0.3,
        seed: 42,
    })
    .expect("generation")
}

fn by_name<'a>(ts: &'a [Table], n: &str) -> &'a Table {
    ts.iter().find(|t| t.name() == n).expect("table exists")
}

fn metas_of(ts: &[Table]) -> Vec<DatasetMeta> {
    ts.iter()
        .enumerate()
        .map(|(i, t)| DatasetMeta {
            id: DatasetId(i as u32),
            name: t.name().to_string(),
            schema: t.schema().clone(),
            num_rows: t.num_rows(),
            default_key: AttrSet::singleton(t.schema().attributes()[0].id),
            version: 0,
        })
        .collect()
}

/// The symbol-native late-materialization join pipeline on string-keyed
/// multi-hop paths: `late/…` composes selection vectors and materializes
/// once (`join_tree_bounded`). The shared-dict entries probe registry-shared
/// `u32` symbols verbatim, the private-dict entries pay one
/// per-distinct-symbol translation per hop.
fn bench_join_pipeline(c: &mut Criterion) {
    use dance_sampling::join_tree_bounded;

    // A (hops+1)-table chain, 1:1 on high-cardinality string keys, with two
    // Int payload columns per table (the output width grows with every hop).
    let n = 20_000usize;
    let chain = |reg: Option<&InternerRegistry>, hops: usize| -> Vec<Table> {
        (0..=hops)
            .map(|i| {
                let mut attrs: Vec<(String, ValueType)> =
                    vec![(format!("jpb_k{i}"), ValueType::Str)];
                if i < hops {
                    attrs.push((format!("jpb_k{}", i + 1), ValueType::Str));
                }
                attrs.push((format!("jpb_p{i}a"), ValueType::Int));
                attrs.push((format!("jpb_p{i}b"), ValueType::Int));
                let attrs_ref: Vec<(&str, ValueType)> =
                    attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                let rows: Vec<Vec<Value>> = (0..n)
                    .map(|r| {
                        let mut row = vec![Value::str(format!("k{i}_{r}"))];
                        if i < hops {
                            row.push(Value::str(format!("k{}_{r}", i + 1)));
                        }
                        row.push(Value::Int(r as i64));
                        row.push(Value::Int((r * 7) as i64));
                        row
                    })
                    .collect();
                match reg {
                    Some(reg) => {
                        Table::from_rows_interned(reg, format!("T{i}"), &attrs_ref, rows).unwrap()
                    }
                    None => Table::from_rows(format!("T{i}"), &attrs_ref, rows).unwrap(),
                }
            })
            .collect()
    };
    let edges = |hops: usize| -> Vec<dance_relation::join::JoinEdge> {
        (0..hops)
            .map(|i| dance_relation::join::JoinEdge {
                a: i,
                b: i + 1,
                on: AttrSet::from_names([format!("jpb_k{}", i + 1).as_str()]),
            })
            .collect()
    };

    let mut g = c.benchmark_group("join_pipeline");
    for hops in [2usize, 4] {
        let reg = InternerRegistry::new();
        for (label, tables) in [
            ("shared_dicts", chain(Some(&reg), hops)),
            ("private_dicts", chain(None, hops)),
        ] {
            let refs: Vec<&Table> = tables.iter().collect();
            let es = edges(hops);
            g.bench_with_input(
                BenchmarkId::new("late", format!("{hops}hop_{label}")),
                &refs,
                |b, refs| b.iter(|| join_tree_bounded(black_box(refs), &es, None).unwrap()),
            );
        }
    }
    g.finish();
}

/// `JoinGraph::build` on the scale-100 TPC-H catalog: every histogram
/// count and JI fold of the offline phase (§4) over the full catalog.
fn bench_join_graph_build(c: &mut Criterion) {
    let ts = scale100_tables();
    let metas = metas_of(&ts);

    let mut g = c.benchmark_group("join_graph_build");

    // `JoinGraph::build` consumes its inputs, so the build entry below pays
    // one catalog clone per iteration. This entry measures that clone
    // alone; subtract it from the build time.
    g.bench_with_input(
        BenchmarkId::new("catalog_clone_baseline", 0),
        &ts,
        |b, ts| b.iter(|| (metas.clone(), ts.to_vec())),
    );
    g.bench_with_input(BenchmarkId::new("scale100", 0), &ts, |b, ts| {
        b.iter(|| {
            JoinGraph::build(
                metas.clone(),
                ts.to_vec(),
                EntropyPricing::default(),
                &JoinGraphConfig::default(),
            )
            .unwrap()
        })
    });
    g.finish();
}

/// One MCMC search workload: a join graph, a tree, covers, and request
/// attribute sets.
struct SearchSetup {
    graph: JoinGraph,
    tree_edges: Vec<(u32, u32)>,
    sc: Cover,
    tc: Cover,
    source: AttrSet,
    target: AttrSet,
}

impl SearchSetup {
    /// A multi-chain search (chains = 1 is exactly the single seeded walk)
    /// with an explicit seed.
    fn run_seeded(&self, seed: u64, chains: usize, iterations: usize) {
        let best = find_optimal_target_graph(
            &self.graph,
            &Default::default(),
            &self.tree_edges,
            &self.sc,
            &self.tc,
            &self.source,
            &self.target,
            &Constraints::unbounded(),
            &McmcConfig {
                iterations,
                seed,
                chains,
                ..McmcConfig::default()
            },
        )
        .unwrap();
        black_box(best);
    }
}

/// The two-instance catalog behind [`two_key_setup`] (and the session
/// service bench's marketplace): L and R share a correlation-preserving and
/// a correlation-killing join attribute.
fn two_key_tables() -> Vec<Table> {
    let n = 240;
    let left: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            vec![
                Value::Int(i % 12),
                Value::Int(i % 5),
                Value::str(format!("s{}", i % 12)),
            ]
        })
        .collect();
    let right: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            vec![
                Value::Int(i % 12),
                Value::Int((i * 7 + 3) % 5),
                Value::str(format!("t{}", i % 12)),
            ]
        })
        .collect();
    let lt = Table::from_rows(
        "L",
        &[
            ("mb_good", ValueType::Int),
            ("mb_noise", ValueType::Int),
            ("mb_src", ValueType::Str),
        ],
        left,
    )
    .unwrap();
    let rt = Table::from_rows(
        "R",
        &[
            ("mb_good", ValueType::Int),
            ("mb_noise", ValueType::Int),
            ("mb_tgt", ValueType::Str),
        ],
        right,
    )
    .unwrap();
    vec![lt, rt]
}

/// The two-key graph the MCMC unit tests search: two instances sharing a
/// correlation-preserving and a correlation-killing join attribute.
fn two_key_setup() -> SearchSetup {
    let tables = two_key_tables();
    let graph = JoinGraph::build(
        metas_of(&tables),
        tables,
        EntropyPricing::default(),
        &JoinGraphConfig::default(),
    )
    .unwrap();
    let mut sc = Cover::new();
    sc.insert(0, AttrSet::from_names(["mb_src"]));
    let mut tc = Cover::new();
    tc.insert(1, AttrSet::from_names(["mb_tgt"]));
    SearchSetup {
        graph,
        tree_edges: vec![(0, 1)],
        sc,
        tc,
        source: AttrSet::from_names(["mb_src"]),
        target: AttrSet::from_names(["mb_tgt"]),
    }
}

/// Scale-100 TPC-H: `lineitem ⋈ partsupp` over the shared
/// `{partkey, suppkey}` pair (3 candidate join sets), `l_quantity` as the
/// source side and `ps_availqty` as the target. `ts` is the pre-generated
/// catalog.
fn tpch_search_setup(ts: &[Table]) -> SearchSetup {
    let tables = vec![
        by_name(ts, "lineitem").clone(),
        by_name(ts, "partsupp").clone(),
    ];
    let graph = JoinGraph::build(
        metas_of(&tables),
        tables,
        EntropyPricing::default(),
        &JoinGraphConfig::default(),
    )
    .unwrap();
    assert!(
        graph.candidate_join_sets(0, 1).len() >= 3,
        "lineitem/partsupp share partkey and suppkey"
    );
    let mut sc = Cover::new();
    sc.insert(0, AttrSet::from_names(["l_quantity"]));
    let mut tc = Cover::new();
    tc.insert(1, AttrSet::from_names(["ps_availqty"]));
    SearchSetup {
        graph,
        tree_edges: vec![(0, 1)],
        sc,
        tc,
        source: AttrSet::from_names(["l_quantity"]),
        target: AttrSet::from_names(["ps_availqty"]),
    }
}

/// `find_optimal_target_graph` throughput (a full seeded walk per
/// iteration) on the two-key toy graph and a scale-100 TPC-H pair. The
/// `*_cold` arms clear every evaluation cache per iteration (selections,
/// projections/prices and the evaluation memo): each walk pays its sample
/// joins, CORR and quality. The warm steady state of a repeated request — a
/// fully memoized walk — is the 1-chain arm of `mcmc_multichain`. The search
/// runs on the calling thread, so there is no worker-count axis.
fn bench_mcmc_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("mcmc_search");
    let two_key = two_key_setup();
    g.bench_with_input(BenchmarkId::new("two_key_cold", "1w"), &two_key, |b, s| {
        b.iter(|| {
            s.graph.clear_eval_caches();
            s.run_seeded(17, 1, 40)
        })
    });
    let tpch = tpch_search_setup(&scale100_tables());
    g.bench_with_input(BenchmarkId::new("tpch_li_ps_cold", "1w"), &tpch, |b, s| {
        b.iter(|| {
            s.graph.clear_eval_caches();
            s.run_seeded(17, 1, 8)
        })
    });
    g.finish();
}

/// Multi-chain search scaling: 1/2/4/8 chains on the two-key toy graph and
/// the scale-100 TPC-H `lineitem ⋈ partsupp` pair, warm shared caches
/// throughout. Chains run one after another through one evaluation engine,
/// and the evaluation memo is graph-wide, so after the first iteration every
/// chain walks fully memoized states: the arms measure walk and lookup
/// overhead, and the 1-chain arms are the warm, fully memoized single walk
/// (the counterpart of `mcmc_search`'s cold arms).
fn bench_mcmc_multichain(c: &mut Criterion) {
    // Full multi-chain searches are seconds each on the TPC-H pair; a
    // smaller sample keeps the CI smoke bounded.
    let mut c = c.clone().sample_size(5);
    let mut g = c.benchmark_group("mcmc_multichain");
    let two_key = two_key_setup();
    let tpch = tpch_search_setup(&scale100_tables());
    for chains in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("two_key", format!("{chains}c1w")),
            &(&two_key, chains),
            |b, (s, n)| b.iter(|| s.run_seeded(17, *n, 40)),
        );
        g.bench_with_input(
            BenchmarkId::new("tpch_li_ps", format!("{chains}c1w")),
            &(&tpch, chains),
            |b, (s, n)| b.iter(|| s.run_seeded(17, *n, 8)),
        );
    }
    g.finish();
}

/// Catalog maintenance under a seller update: the evict-everything
/// `refresh_sample` rebuild vs `JoinGraph::apply_delta`, at delta sizes
/// 0.1% / 1% / 10% of the scale-100 `lineitem` sample (joined to `partsupp`
/// over 3 candidate join sets). Both arms produce bit-identical graphs
/// (pinned by `tests/delta_props.rs`); each iteration applies a churn delta
/// and then its inverse, so every iteration starts from the same base state.
/// The `pair_sel` call after each step charges the rebuild arm for
/// reconstructing the cached selection the delta arm patches in place.
fn bench_catalog_update(c: &mut Criterion) {
    use dance_datagen::churn::churn_delta;

    let ts = scale100_tables();
    let tables = vec![
        by_name(&ts, "lineitem").clone(),
        by_name(&ts, "partsupp").clone(),
    ];
    let metas = metas_of(&tables);
    let cfg = JoinGraphConfig::default();
    let build = |tables: &[Table]| {
        JoinGraph::build(
            metas.clone(),
            tables.to_vec(),
            EntropyPricing::default(),
            &cfg,
        )
        .unwrap()
    };

    let mut g = c.benchmark_group("catalog_update");
    for (label, frac) in [("0.1pct", 0.001), ("1pct", 0.01), ("10pct", 0.1)] {
        let mut rebuild = build(&tables);
        let mut delta_g = build(&tables);
        let on = rebuild.candidate_join_sets(0, 1)[0].clone();
        rebuild.pair_sel(0, 1, &on).unwrap();
        delta_g.pair_sel(0, 1, &on).unwrap();
        let fwd = churn_delta(rebuild.sample(0), frac, frac, 42);
        let bwd = fwd.inverse(rebuild.sample(0)).unwrap();

        g.bench_with_input(BenchmarkId::new("full_rebuild", label), &(), |b, _| {
            b.iter(|| {
                for d in [&fwd, &bwd] {
                    let after = rebuild.sample(0).apply_delta(d).unwrap();
                    rebuild.refresh_sample(0, after).unwrap();
                    black_box(rebuild.pair_sel(0, 1, &on).unwrap());
                }
            })
        });
        g.bench_with_input(BenchmarkId::new("apply_delta", label), &(), |b, _| {
            b.iter(|| {
                for d in [&fwd, &bwd] {
                    delta_g.apply_delta(0, d).unwrap();
                    black_box(delta_g.pair_sel(0, 1, &on).unwrap());
                }
            })
        });
    }
    g.finish();
}

/// The acquisition-session service under load: a batch of sessions — open,
/// seeded 2-chain search over the shared two-key graph, one sample and one
/// projection purchase, close — drained by {1, 4} worker threads off one
/// shared `Marketplace`, with a seller update (`apply_update` + its inverse)
/// landing mid-batch. Criterion times whole batches; a manual pass
/// afterwards prints sessions/sec and p99 session latency per worker count,
/// since the harness reports batch wall-time only.
fn bench_session_service(c: &mut Criterion) {
    use dance_datagen::churn::churn_delta;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const SESSIONS: usize = 16;

    /// Drain one batch of `SESSIONS` sessions across `workers` threads,
    /// landing the seller update (and its inverse, so every batch starts
    /// from the same rows) once half the batch has closed. Returns the
    /// per-session open→close latencies.
    fn run_batch(
        market: &Arc<Marketplace>,
        mgr: &SessionManager,
        setup: &SearchSetup,
        workers: usize,
        fwd: &TableDelta,
        bwd: &TableDelta,
    ) -> Vec<Duration> {
        let done = AtomicUsize::new(0);
        let mut latencies = Vec::with_capacity(SESSIONS);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..workers {
                let done = &done;
                handles.push(scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut s = w;
                    while s < SESSIONS {
                        let t0 = Instant::now();
                        let mut session = mgr
                            .open(SessionConfig {
                                budget: 1e9,
                                seed: 100 + s as u64,
                            })
                            .expect("under capacity");
                        setup.run_seeded(session.seed(), 2, 10);
                        let key = session.meta(DatasetId(0)).unwrap().default_key.clone();
                        session.buy_sample(DatasetId(0), &key, 0.25).unwrap();
                        let name = session.meta(DatasetId(1)).unwrap().name.clone();
                        session
                            .execute(&ProjectionQuery {
                                dataset: DatasetId(1),
                                dataset_name: name,
                                attrs: AttrSet::from_names(["mb_tgt"]),
                            })
                            .unwrap();
                        black_box(mgr.close(session));
                        mine.push(t0.elapsed());
                        done.fetch_add(1, Ordering::SeqCst);
                        s += workers;
                    }
                    mine
                }));
            }
            while done.load(Ordering::SeqCst) < SESSIONS / 2 {
                std::hint::spin_loop();
            }
            market.apply_update(DatasetId(0), fwd).unwrap();
            market.apply_update(DatasetId(0), bwd).unwrap();
            for h in handles {
                latencies.extend(h.join().unwrap());
            }
        });
        latencies
    }

    let mut c = c.clone().sample_size(10);
    let mut g = c.benchmark_group("session_service");
    for workers in [1usize, 4] {
        let market = Arc::new(Marketplace::new(
            two_key_tables(),
            EntropyPricing::default(),
        ));
        let mgr = SessionManager::new(Arc::clone(&market), SessionManagerConfig::default());
        let setup = two_key_setup();
        let base = market.full_table_for_evaluation(DatasetId(0)).unwrap();
        let fwd = churn_delta(&base, 0.01, 0.01, 42);
        let bwd = fwd.inverse(&base).unwrap();

        g.bench_with_input(
            BenchmarkId::new("batch16_with_update", format!("{workers}w")),
            &(),
            |b, _| b.iter(|| run_batch(&market, &mgr, &setup, workers, &fwd, &bwd)),
        );

        // Manual service metrics: criterion's shim reports batch wall-time
        // only, so derive sessions/sec and p99 latency from a few batches.
        let t0 = Instant::now();
        let mut lat: Vec<Duration> = Vec::new();
        let batches = 4;
        for _ in 0..batches {
            lat.extend(run_batch(&market, &mgr, &setup, workers, &fwd, &bwd));
        }
        let wall = t0.elapsed();
        lat.sort_unstable();
        let p99 = lat[(lat.len() * 99).div_ceil(100) - 1];
        eprintln!(
            "session_service/{workers}w: {:.1} sessions/sec, p99 session latency {:.3} ms \
             ({} sessions, seller update mid-batch)",
            (batches * SESSIONS) as f64 / wall.as_secs_f64(),
            p99.as_secs_f64() * 1e3,
            batches * SESSIONS,
        );
    }
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let ts = tables();
    let orders = by_name(&ts, "orders");
    let customer = by_name(&ts, "customer");
    let lineitem = by_name(&ts, "lineitem");

    c.bench_function("entropy/orders_status", |b| {
        let attrs = AttrSet::from_names(["o_orderstatus"]);
        b.iter(|| shannon_entropy(black_box(orders), &attrs).unwrap())
    });

    c.bench_function("ji/orders_customer_custkey", |b| {
        let on = AttrSet::from_names(["custkey"]);
        b.iter(|| join_informativeness(black_box(orders), black_box(customer), &on).unwrap())
    });

    c.bench_function("correlation/totalprice_vs_mktsegment", |b| {
        let j = hash_join(
            orders,
            customer,
            &AttrSet::from_names(["custkey"]),
            JoinKind::Inner,
        )
        .unwrap();
        let x = AttrSet::from_names(["o_totalprice"]);
        let y = AttrSet::from_names(["c_mktsegment"]);
        b.iter(|| correlation(black_box(&j), &x, &y).unwrap())
    });

    c.bench_function("quality/customer_city_state", |b| {
        let fd = Fd::new(["c_city"], "c_state");
        b.iter(|| quality(black_box(customer), &fd).unwrap())
    });

    c.bench_function("tane/customer_lhs2", |b| {
        let cfg = TaneConfig {
            error_threshold: 0.1,
            max_lhs: 2,
            max_attrs: 7,
        };
        b.iter(|| discover_afds(black_box(customer), &cfg).unwrap())
    });

    c.bench_function("join/orders_lineitem", |b| {
        let on = AttrSet::from_names(["orderkey"]);
        b.iter(|| hash_join(black_box(orders), black_box(lineitem), &on, JoinKind::Inner).unwrap())
    });

    c.bench_function("sampling/correlated_lineitem", |b| {
        let s = CorrelatedSampler::new(0.3, 7);
        let on = AttrSet::from_names(["orderkey"]);
        b.iter(|| s.sample(black_box(lineitem), &on).unwrap())
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_join_pipeline, bench_join_graph_build, bench_mcmc_search, bench_mcmc_multichain, bench_catalog_update, bench_session_service, bench_kernels
}
criterion_main!(kernels);
