//! The evaluation caches at the whole-pipeline surface: a seeded small-TPC-H
//! `Dance::offline` → `acquire` → `evaluate_true` run over Q1–Q3.
//!
//! * `cache_counters_are_pinned` pins the exact `(hits, misses)` every
//!   cache reports at the default config. Only a lookup that can serve a
//!   value counts; the read-modify-write path that fills an entry's lazy
//!   fields must not, or the traced hit ratios move.
//! * `cache_cap_changes_no_result` reruns the pipeline at several cache
//!   caps, down to 0 (every cache disabled) and 1 (evicting on every
//!   insert), and requires the identical plans and metric bits.

use dance_core::{
    AcquisitionRequest, Dance, DanceConfig, JoinGraphConfig, McmcConfig, TargetGraph,
};
use dance_datagen::tpch::TpchConfig;
use dance_datagen::workload::tpch_workload;
use dance_market::{EntropyPricing, Marketplace};

/// What one run yields per query: the estimated and the true target graph.
type Outcome = Vec<(TargetGraph, TargetGraph)>;

fn run(graph: JoinGraphConfig) -> (Outcome, Dance) {
    let w = tpch_workload(&TpchConfig {
        scale: 0.2,
        dirty_fraction: 0.3,
        seed: 9,
    })
    .unwrap();
    let market = Marketplace::new(w.tables.clone(), EntropyPricing::default());
    let cfg = DanceConfig {
        sampling_rate: 0.8,
        seed: 11,
        refine_rounds: 0,
        graph,
        mcmc: McmcConfig {
            iterations: 40,
            seed: 11,
            chains: 2,
            ..McmcConfig::default()
        },
        ..DanceConfig::default()
    };
    let mut dance = Dance::offline(&market, Vec::new(), cfg).unwrap();
    let mut out = Vec::new();
    for name in ["Q1", "Q2", "Q3", "Q1"] {
        let q = w.query(name).unwrap();
        let req = AcquisitionRequest::new(q.source.clone(), q.target.clone());
        let plan = dance.acquire(&market, &req).unwrap().expect("a plan");
        let truth = dance.evaluate_true(&market, &plan.graph, &req).unwrap();
        out.push((plan.graph, truth));
    }
    (out, dance)
}

#[test]
fn cache_counters_are_pinned() {
    let (_, dance) = run(JoinGraphConfig::default());
    let g = dance.graph();
    let got = [
        g.sel_cache_stats(),
        g.proj_cache_stats(),
        g.eval_memo_stats(),
        g.full_memo_stats(),
    ];
    assert_eq!(
        got,
        [(13, 11), (156, 18), (113, 18), (16, 18)],
        "sel, proj, memo, full"
    );
}

#[test]
fn cache_cap_changes_no_result() {
    let (reference, _) = run(JoinGraphConfig::default());
    for cap in [0usize, 1, 8] {
        let (got, _) = run(JoinGraphConfig {
            cache_cap: cap,
            ..JoinGraphConfig::default()
        });
        assert_eq!(got.len(), reference.len());
        for (q, (a, b)) in got.iter().zip(&reference).enumerate() {
            for (x, y) in [(&a.0, &b.0), (&a.1, &b.1)] {
                let what = format!("cap {cap}, query {q}");
                assert_eq!(x.tree_edges, y.tree_edges, "{what}");
                assert_eq!(x.join_attrs, y.join_attrs, "{what}");
                assert_eq!(x.projections, y.projections, "{what}");
                for (u, v) in [
                    (x.corr, y.corr),
                    (x.weight, y.weight),
                    (x.quality, y.quality),
                    (x.price, y.price),
                ] {
                    assert_eq!(u.to_bits(), v.to_bits(), "{what}");
                }
            }
        }
    }
}
