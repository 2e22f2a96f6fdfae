//! Property tests of the search-layer data structures.

use dance_core::lattice;
use dance_core::mcmc::find_optimal_target_graph;
use dance_core::target::{enumerate_covers, Cover};
use dance_core::{chain_seed, Constraints, JoinGraph, JoinGraphConfig, McmcConfig};
use dance_market::{DatasetId, DatasetMeta, EntropyPricing};
use dance_relation::{
    AttrSet, Executor, FxHashSet, InternerRegistry, Table, TableDelta, Value, ValueType,
};
use proptest::prelude::*;

/// Random small marketplace catalogs: 3 instances over overlapping schemas
/// (`a,b`), (`b,c`), (`a,c`) so every pair shares exactly one attribute and
/// the join graph is a triangle with varying key distributions.
fn arb_catalog() -> impl Strategy<Value = (Vec<DatasetMeta>, Vec<Table>)> {
    (1usize..6, 1usize..50, 0u64..500).prop_map(|(k, n, seed)| {
        let schemas: [(&str, &str); 3] = [("pg_a", "pg_b"), ("pg_b", "pg_c"), ("pg_a", "pg_c")];
        let mut metas = Vec::new();
        let mut samples = Vec::new();
        for (idx, (u, v)) in schemas.into_iter().enumerate() {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|r| {
                    let h = dance_relation::hash::stable_hash64(seed + idx as u64, &(r as u64));
                    vec![
                        Value::Int((h % k as u64) as i64),
                        Value::Int(((h >> 16) % (k as u64 + 1)) as i64),
                    ]
                })
                .collect();
            let t = Table::from_rows(
                format!("pg_d{idx}"),
                &[(u, ValueType::Int), (v, ValueType::Int)],
                rows,
            )
            .unwrap();
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
    })
}

/// Like [`arb_catalog`] but with **string** join attributes (plus NULLs), so
/// cross-instance matching exercises the dictionary paths: shared registry
/// codes, private-dictionary translation, and NULL keys.
fn arb_str_catalog() -> impl Strategy<Value = (Vec<DatasetMeta>, Vec<Table>)> {
    (1usize..6, 1usize..40, 0u64..500).prop_map(|(k, n, seed)| {
        let schemas: [(&str, &str); 3] = [("ps_a", "ps_b"), ("ps_b", "ps_c"), ("ps_a", "ps_c")];
        let mut metas = Vec::new();
        let mut samples = Vec::new();
        for (idx, (u, v)) in schemas.into_iter().enumerate() {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|r| {
                    let h = dance_relation::hash::stable_hash64(seed + idx as u64, &(r as u64));
                    let a = match h % (k as u64 + 1) {
                        0 => Value::Null,
                        x => Value::str(format!("v{x}")),
                    };
                    // Disjoint-ish second domain so some keys never match.
                    let b = Value::str(format!("w{}", (h >> 16) % (k as u64 + idx as u64 + 1)));
                    vec![a, b]
                })
                .collect();
            let t = Table::from_rows(
                format!("ps_d{idx}"),
                &[(u, ValueType::Str), (v, ValueType::Str)],
                rows,
            )
            .unwrap();
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
    })
}

mod search_catalog {
    include!("support/search_catalog.rs");
}
use search_catalog::arb_search_catalog;

/// Bit-exact equality of two optional target graphs.
fn assert_same_target(
    a: &Option<dance_core::TargetGraph>,
    b: &Option<dance_core::TargetGraph>,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (None, None) => Ok(()),
        (Some(x), Some(y)) => {
            prop_assert_eq!(&x.tree_edges, &y.tree_edges);
            prop_assert_eq!(&x.join_attrs, &y.join_attrs);
            prop_assert_eq!(&x.projections, &y.projections);
            prop_assert_eq!(x.corr.to_bits(), y.corr.to_bits(), "corr diverged");
            prop_assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "weight diverged");
            prop_assert_eq!(x.quality.to_bits(), y.quality.to_bits(), "quality diverged");
            prop_assert_eq!(x.price.to_bits(), y.price.to_bits(), "price diverged");
            Ok(())
        }
        _ => {
            prop_assert_eq!(a.is_some(), b.is_some(), "one search found a graph");
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every enumerated cover is an exact partition of the wanted attributes
    /// across offering instances.
    #[test]
    fn covers_partition_the_target(
        n_attrs in 1usize..4,
        offers in prop::collection::vec(prop::collection::vec(0usize..4, 1..4), 1..5),
    ) {
        let names: Vec<String> = (0..4).map(|i| format!("pc_t{i}")).collect();
        let want = AttrSet::from_names(names[..n_attrs].iter().map(String::as_str));
        let available: Vec<(u32, AttrSet)> = offers
            .iter()
            .enumerate()
            .map(|(i, idxs)| {
                (
                    i as u32,
                    AttrSet::from_names(idxs.iter().map(|&x| names[x].as_str())),
                )
            })
            .collect();
        let covers = enumerate_covers(&want, &available, 200);
        for cover in covers {
            let mut union = AttrSet::empty();
            let mut total = 0;
            for (inst, attrs) in &cover {
                prop_assert!(!attrs.is_empty());
                // Contribution must come from the instance's offer.
                let offer = &available.iter().find(|(v, _)| v == inst).unwrap().1;
                prop_assert!(attrs.is_subset(offer));
                total += attrs.len();
                union = union.union(attrs);
            }
            prop_assert_eq!(union, want.clone());
            prop_assert_eq!(total, want.len());
        }
    }

    /// Join graphs whose re-weigh fan-out runs on 4 threads carry
    /// bit-identical edge weights and Property-4.1 weight tables to the
    /// 1-thread build, and refreshing a sample through the persistent
    /// histogram cache equals rebuilding from scratch.
    #[test]
    fn parallel_join_graph_bit_identical(catalog in arb_catalog()) {
        let (metas, samples) = catalog;
        let build = |threads: usize| {
            JoinGraph::build(
                metas.clone(),
                samples.clone(),
                EntropyPricing::default(),
                &JoinGraphConfig {
                    executor: Executor::new(threads),
                    ..JoinGraphConfig::default()
                },
            )
            .unwrap()
        };
        let reference = build(1);
        let g = build(4);
        prop_assert_eq!(g.i_edges().len(), reference.i_edges().len());
        for (a, b) in g.i_edges().iter().zip(reference.i_edges()) {
            prop_assert_eq!((a.a, a.b), (b.a, b.b));
            prop_assert_eq!(&a.common, &b.common);
            prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            for cand in g.candidate_join_sets(a.a, a.b) {
                let wa = g.weight(a.a, a.b, cand).unwrap();
                let wb = reference.weight(a.a, a.b, cand).unwrap();
                prop_assert_eq!(wa.to_bits(), wb.to_bits());
            }
        }
        // Refresh instance 1 with its own (unchanged) sample: cached partner
        // histograms are reused, and every weight must stay bit-identical.
        let mut refreshed = build(4);
        refreshed.refresh_sample(1, samples[1].clone()).unwrap();
        for (a, b) in refreshed.i_edges().iter().zip(reference.i_edges()) {
            prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    /// Interned-catalog builds carry **bit-identical** edge weights to plain
    /// builds, on string-keyed instances with NULLs, at `DANCE_THREADS`-style
    /// executors {1, 4} — and every weight equals the keyed JI reference
    /// directly. This pins the whole symbol path (registry dictionaries,
    /// translator fallback, sorted JI fold) at the graph level.
    #[test]
    fn interned_build_weights_bit_exact(catalog in arb_str_catalog()) {
        let (metas, samples) = catalog;
        let reg = InternerRegistry::new();
        let interned: Vec<Table> = samples.iter().map(|t| t.intern_into(&reg)).collect();
        let build = |tables: &Vec<Table>, threads: usize| {
            JoinGraph::build(
                metas.clone(),
                tables.clone(),
                EntropyPricing::default(),
                &JoinGraphConfig {
                    executor: Executor::new(threads),
                    ..JoinGraphConfig::default()
                },
            )
            .unwrap()
        };
        let plain = build(&samples, 1);
        for threads in [1usize, 4] {
            let g = build(&interned, threads);
            prop_assert_eq!(g.i_edges().len(), plain.i_edges().len());
            for (a, b) in g.i_edges().iter().zip(plain.i_edges()) {
                prop_assert_eq!((a.a, a.b), (b.a, b.b));
                prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits(),
                    "edge ({}, {}) at {} threads", a.a, a.b, threads);
                for cand in g.candidate_join_sets(a.a, a.b) {
                    let w = g.weight(a.a, a.b, cand).unwrap();
                    prop_assert_eq!(w.to_bits(), plain.weight(a.a, a.b, cand).unwrap().to_bits());
                    let keyed = dance_oracle::join_informativeness(
                        &samples[a.a as usize], &samples[a.b as usize], cand).unwrap();
                    prop_assert_eq!(w.to_bits(), keyed.to_bits(), "{} vs keyed {}", w, keyed);
                }
            }
        }
        // Mixed build (interned pairs with plain partner) rides the
        // translator and must still agree.
        let mut mixed = samples.clone();
        mixed[0] = interned[0].clone();
        let g = build(&mixed, 1);
        for (a, b) in g.i_edges().iter().zip(plain.i_edges()) {
            prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    /// The LRU bound holds for arbitrary caps: after build, after a refresh
    /// and across `apply_delta` waves — all three share one re-weigh round —
    /// the cache never exceeds the cap, and weights stay bit-identical to a
    /// from-scratch rebuild over the current samples.
    #[test]
    fn hist_cache_cap_property(catalog in arb_catalog(), cap in 0usize..8, waves in 1usize..4) {
        let (metas, mut samples) = catalog;
        let build = |samples: &[Table], cap: usize| {
            JoinGraph::build(
                metas.clone(),
                samples.to_vec(),
                EntropyPricing::default(),
                &JoinGraphConfig {
                    hist_cache_cap: cap,
                    ..JoinGraphConfig::default()
                },
            )
            .unwrap()
        };
        let assert_rebuilt = |g: &JoinGraph, samples: &[Table]| -> Result<(), TestCaseError> {
            let rebuilt = build(samples, dance_core::DEFAULT_HIST_CACHE_CAP);
            for (a, b) in g.i_edges().iter().zip(rebuilt.i_edges()) {
                prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
                for cand in g.candidate_join_sets(a.a, a.b) {
                    let wa = g.weight(a.a, a.b, cand).unwrap();
                    let wb = rebuilt.weight(a.a, a.b, cand).unwrap();
                    prop_assert_eq!(wa.to_bits(), wb.to_bits());
                }
            }
            Ok(())
        };
        let mut g = build(&samples, cap);
        prop_assert!(g.hist_cache_len() <= cap);
        g.refresh_sample(0, samples[0].clone()).unwrap();
        prop_assert!(g.hist_cache_len() <= cap);
        assert_rebuilt(&g, &samples)?;
        for w in 0..waves {
            let v = w % samples.len();
            // Catalog samples have at least one row, and each wave deletes
            // one row and inserts one.
            let delta = TableDelta::new(
                vec![vec![Value::Int(w as i64), Value::Int(w as i64 + 1)]],
                vec![(w % samples[v].num_rows()) as u32],
            );
            samples[v] = samples[v].apply_delta(&delta).unwrap();
            g.apply_delta(v as u32, &delta).unwrap();
            prop_assert!(g.hist_cache_len() <= cap, "cap {} violated after delta {}", cap, w);
            assert_rebuilt(&g, &samples)?;
        }
    }

    /// Multi-chain search is exactly best-of-N over N *independently run*
    /// single chains with the derived seeds (`chain_seed`), bit-exact on
    /// every metric, on graphs built at executors {1, 4} — i.e. the shared
    /// engine and cross-chain memo change nothing but wall-clock.
    #[test]
    fn multichain_is_best_of_independent_chains(
        catalog in arb_search_catalog(),
        seed in 0u64..1000,
        chains in 2usize..5,
    ) {
        let (metas, samples) = catalog;
        let tree_edges = [(0u32, 1u32), (1u32, 2u32)];
        let mut sc = Cover::new();
        sc.insert(0, AttrSet::from_names(["sc_src"]));
        let mut tc = Cover::new();
        tc.insert(2, AttrSet::from_names(["sc_tgt"]));
        let source = AttrSet::from_names(["sc_src"]);
        let target = AttrSet::from_names(["sc_tgt"]);
        for threads in [1usize, 4] {
            let graph = JoinGraph::build(
                metas.clone(),
                samples.clone(),
                EntropyPricing::default(),
                &JoinGraphConfig {
                    executor: Executor::new(threads),
                    ..JoinGraphConfig::default()
                },
            )
            .unwrap();
            let run = |n: usize, seed: u64| {
                find_optimal_target_graph(
                    &graph,
                    &FxHashSet::default(),
                    &tree_edges,
                    &sc,
                    &tc,
                    &source,
                    &target,
                    &Constraints::unbounded(),
                    &McmcConfig {
                        iterations: 20,
                        seed,
                        chains: n,
                        ..McmcConfig::default()
                    },
                )
                .unwrap()
            };
            let multi = run(chains, seed);
            // Reference: each chain as its own full single-chain search,
            // reduced in chain-index order on strictly-greater corr.
            let mut best: Option<dance_core::TargetGraph> = None;
            for k in 0..chains {
                graph.clear_eval_caches();
                if let Some(tg) = run(1, chain_seed(seed, k)) {
                    if best.as_ref().is_none_or(|b| tg.corr > b.corr) {
                        best = Some(tg);
                    }
                }
            }
            assert_same_target(&multi, &best)?;
        }
    }

    /// The graph-wide evaluation memo's key is complete. On one warm graph,
    /// searches that revisit the same assignments but differ in what an
    /// evaluation reads — `free`, the AFD θ, §3.2 re-sampling (off, on, on
    /// with another seed), the order of the tree edges — or only in what
    /// gates acceptance (budget, α, β) run in sequence, and each equals the
    /// same search on a freshly built cold graph, bit for bit. Dropping any
    /// of those fields from the key would serve a state evaluated under
    /// another setting.
    #[test]
    fn eval_memo_key_is_complete(
        catalog in arb_search_catalog(),
        seed in 0u64..1000,
    ) {
        let (metas, samples) = catalog;
        let build = || {
            JoinGraph::build(
                metas.clone(),
                samples.clone(),
                EntropyPricing::default(),
                &JoinGraphConfig::default(),
            )
            .unwrap()
        };
        let mut sc = Cover::new();
        sc.insert(0, AttrSet::from_names(["sc_src"]));
        let mut tc = Cover::new();
        tc.insert(2, AttrSet::from_names(["sc_tgt"]));
        let source = AttrSet::from_names(["sc_src"]);
        let target = AttrSet::from_names(["sc_tgt"]);
        let forward = [(0u32, 1u32), (1, 2)];
        let reversed = [(1u32, 2u32), (0, 1)];
        let search = |g: &JoinGraph,
                      free: &FxHashSet<u32>,
                      edges: &[(u32, u32)],
                      constraints: &Constraints,
                      cfg: &McmcConfig| {
            find_optimal_target_graph(g, free, edges, &sc, &tc, &source, &target, constraints, cfg)
                .unwrap()
        };
        let base = McmcConfig {
            iterations: 20,
            seed,
            resample: None,
            ..McmcConfig::default()
        };
        let none = FxHashSet::default();
        let unbounded = Constraints::unbounded();
        let top = search(&build(), &none, &forward, &unbounded, &base)
            .expect("the unconstrained initial state is admitted");
        let gated = |alpha: f64, beta: f64, budget: f64| Constraints { alpha, beta, budget };
        let with_tane = |theta: f64| McmcConfig {
            tane: dance_quality::TaneConfig {
                error_threshold: theta,
                ..base.tane
            },
            ..base.clone()
        };
        let with_resample = |rs: u64| McmcConfig {
            resample: Some(dance_sampling::resample::ResampleConfig {
                eta: 16,
                rate: 0.5,
                seed: rs,
            }),
            ..base.clone()
        };
        let free_0: FxHashSet<u32> = [0].into_iter().collect();
        let free_12: FxHashSet<u32> = [1, 2].into_iter().collect();
        type Run<'a> = (&'a FxHashSet<u32>, &'a [(u32, u32)], Constraints, McmcConfig);
        let runs: Vec<Run> = vec![
            (&none, &forward, unbounded, base.clone()),
            (&none, &forward, gated(f64::INFINITY, 0.0, top.price * 0.8), base.clone()),
            (&none, &forward, gated(top.weight, top.quality * 0.5, top.price), base.clone()),
            (&none, &forward, gated(top.weight * 0.9, top.quality, f64::INFINITY), base.clone()),
            (&free_0, &forward, unbounded, base.clone()),
            (&free_12, &forward, unbounded, base.clone()),
            (&none, &forward, unbounded, with_tane(0.0)),
            (&none, &forward, unbounded, with_tane(0.4)),
            (&none, &forward, unbounded, with_resample(seed ^ 7)),
            (&none, &forward, unbounded, with_resample(seed ^ 8)),
            (&none, &reversed, unbounded, base.clone()),
            (&none, &forward, unbounded, base.clone()),
        ];
        let warm = build();
        for (free, edges, constraints, cfg) in &runs {
            let got = search(&warm, free, edges, constraints, cfg);
            let cold = search(&build(), free, edges, constraints, cfg);
            assert_same_target(&got, &cold)?;
        }
        // Later searches were served from earlier ones' evaluations.
        prop_assert!(warm.eval_memo_stats().0 > 0, "the memo was never hit");
    }

    /// Lattice size formula matches enumeration; children add exactly one
    /// attribute and stay inside the universe.
    #[test]
    fn lattice_laws(m in 2usize..7) {
        let names: Vec<String> = (0..m).map(|i| format!("pl_a{i}")).collect();
        let a = AttrSet::from_names(names.iter().map(String::as_str));
        let all = lattice::all_vertices(&a);
        prop_assert_eq!(all.len(), lattice::lattice_size(m));
        for v in all.iter().take(20) {
            for c in lattice::children(v, &a) {
                prop_assert!(lattice::is_child(v, &c));
                prop_assert!(c.is_subset(&a));
            }
        }
    }

    /// Constraint admission is monotone: relaxing any bound never rejects a
    /// previously admitted point.
    #[test]
    fn constraints_monotone(
        alpha in 0.0f64..5.0, beta in 0.0f64..1.0, budget in 0.0f64..100.0,
        w in 0.0f64..5.0, q in 0.0f64..1.0, p in 0.0f64..100.0,
        relax in 0.0f64..2.0,
    ) {
        let tight = Constraints { alpha, beta, budget };
        let loose = Constraints {
            alpha: alpha + relax,
            beta: (beta - relax).max(0.0),
            budget: budget + relax,
        };
        if tight.admits(w, q, p) {
            prop_assert!(loose.admits(w, q, p));
        }
    }
}
