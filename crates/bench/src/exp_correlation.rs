//! Figures 6, 7 and 8: correlation accuracy of the heuristic.

use crate::fmt::{opt, TextTable};
use crate::setup::{marketplace_subset, offline, price_bounds};
use dance_core::baseline::{brute_force, BaselineConfig};
use dance_core::plan::correlation_difference;
use dance_core::{AcquisitionRequest, Constraints, Dance};
use dance_datagen::tpch::TpchConfig;
use dance_datagen::workload::{tpch_workload, AcquisitionQuery, Workload};
use dance_market::Marketplace;
use dance_relation::Table;
use dance_sampling::resample::ResampleConfig;

fn tpch(scale: f64, seed: u64) -> Workload {
    tpch_workload(&TpchConfig {
        scale,
        dirty_fraction: 0.3,
        seed,
    })
    .expect("tpch generation")
}

/// True correlation of the heuristic's plan, and of the LP and GP optima.
/// All three evaluated on the full data, per the paper's protocol
/// ("we measure the real correlation, not the estimated value").
fn three_way(
    dance: &Dance,
    market: &Marketplace,
    q: &AcquisitionQuery,
    constraints: Constraints,
) -> (Option<f64>, Option<f64>, Option<f64>) {
    let req =
        AcquisitionRequest::new(q.source.clone(), q.target.clone()).with_constraints(constraints);
    let heur = dance.search(&req).expect("heuristic runs").map(|plan| {
        dance
            .evaluate_true(market, &plan.graph, &req)
            .expect("true eval")
            .corr
    });

    let scovers = dance.covers_of(&req.source_attrs);
    let tcovers = dance.covers_of(&req.target_attrs);
    // The paper's LP/GP enumerate *join paths* between source and target;
    // allowing larger trees would let the baselines inflate CORR through
    // join fan-out the heuristic never considers. Cap at the path length.
    let bl_cfg = BaselineConfig {
        max_tree_vertices: q.path_len,
        max_trees: 40,
        max_assignments_per_tree: 48,
        ..BaselineConfig::default()
    };
    let lp = brute_force(
        dance.graph(),
        dance.free_vertices(),
        &scovers,
        &tcovers,
        &req.source_attrs,
        &req.target_attrs,
        &req.constraints,
        None,
        &bl_cfg,
    )
    .expect("LP runs")
    .map(|tg| {
        dance
            .evaluate_true(market, &tg, &req)
            .expect("true eval")
            .corr
    });

    let full = dance.full_tier(market).expect("full tier");
    let gp = brute_force(
        dance.graph(),
        dance.free_vertices(),
        &scovers,
        &tcovers,
        &req.source_attrs,
        &req.target_attrs,
        &req.constraints,
        Some(&full),
        &bl_cfg,
    )
    .expect("GP runs")
    .map(|tg| tg.corr);

    (heur, lp, gp)
}

/// Figure 6: correlation difference CD vs sampling rate, heuristic-vs-LP and
/// heuristic-vs-GP, Q1–Q3.
pub fn fig6(scale: f64, seed: u64) -> String {
    let w = tpch(scale, seed);
    let names: Vec<&str> = w.tables.iter().map(Table::name).collect();
    let mut t = TextTable::new(vec!["query", "sampling rate", "CD vs LP", "CD vs GP"]);
    for rate in [0.1, 0.4, 0.7, 1.0] {
        let market = marketplace_subset(&w.tables, &names);
        let dance = offline(&market, rate, seed).expect("offline");
        for q in &w.queries {
            let (heur, lp, gp) = three_way(&dance, &market, q, Constraints::unbounded());
            let cd = |o: Option<f64>| match (o, heur) {
                (Some(xopt), Some(x)) => Some(correlation_difference(xopt, x)),
                _ => None,
            };
            t.row(vec![
                q.name.to_string(),
                format!("{rate:.1}"),
                opt(cd(lp)),
                opt(cd(gp)),
            ]);
        }
    }
    format!(
        "Figure 6 — correlation difference vs sampling rate (TPC-H-like)\n\
         CD = (X_OPT − X)/X_OPT; smaller is better, paper reports ≤ 0.31\n\n{}",
        t.render()
    )
}

/// Figure 7: true correlation vs budget ratio, heuristic / LP / GP.
pub fn fig7(scale: f64, seed: u64) -> String {
    let w = tpch(scale, seed);
    let names: Vec<&str> = w.tables.iter().map(Table::name).collect();
    let market = marketplace_subset(&w.tables, &names);
    let dance = offline(&market, 0.5, seed).expect("offline");
    let bounds: Vec<Option<(f64, f64)>> =
        w.queries.iter().map(|q| price_bounds(&dance, q)).collect();

    let mut t = TextTable::new(vec!["query", "budget ratio", "heuristic", "LP", "GP"]);
    for ratio in [0.4, 0.6, 0.8, 1.0] {
        for (q, b) in w.queries.iter().zip(&bounds) {
            let Some((_, ub)) = b else {
                continue;
            };
            let c = Constraints {
                alpha: f64::INFINITY,
                beta: 0.0,
                budget: ratio * ub,
            };
            let (heur, lp, gp) = three_way(&dance, &market, q, c);
            t.row(vec![
                q.name.to_string(),
                format!("{ratio:.2}"),
                opt(heur),
                opt(lp),
                opt(gp),
            ]);
        }
    }
    format!(
        "Figure 7 — true correlation vs budget ratio (TPC-H-like)\n\
         correlation rises with budget; heuristic tracks LP/GP\n\n{}",
        t.render()
    )
}

/// Figure 8: heuristic correlation with vs without §3.2 re-sampling, across
/// re-sampling rates.
pub fn fig8(scale: f64, seed: u64) -> String {
    let w = tpch(scale, seed);
    let names: Vec<&str> = w.tables.iter().map(Table::name).collect();
    let mut t = TextTable::new(vec![
        "query",
        "re-sampling rate",
        "with re-sampling",
        "without re-sampling",
    ]);
    // Without: one offline pass, no re-sampling. Per §6.3 the comparison is
    // between the *estimated* correlations of the heuristic's result.
    let market = marketplace_subset(&w.tables, &names);
    let mut plain_cfg = crate::setup::dance_config(0.8, seed);
    plain_cfg.mcmc.resample = None;
    let dance_plain = Dance::offline(&market, Vec::new(), plain_cfg).expect("offline");
    let without: Vec<Option<f64>> = w
        .queries
        .iter()
        .map(|q| {
            let req = AcquisitionRequest::new(q.source.clone(), q.target.clone());
            dance_plain
                .search(&req)
                .expect("search")
                .map(|p| p.estimated.correlation)
        })
        .collect();

    for rr in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let market = marketplace_subset(&w.tables, &names);
        let mut cfg = crate::setup::dance_config(0.8, seed);
        cfg.mcmc.resample = Some(ResampleConfig {
            eta: 60, // low threshold so re-sampling actually triggers
            rate: rr,
            seed,
        });
        let dance = Dance::offline(&market, Vec::new(), cfg).expect("offline");
        for (qi, q) in w.queries.iter().enumerate() {
            let req = AcquisitionRequest::new(q.source.clone(), q.target.clone());
            let with = dance
                .search(&req)
                .expect("search")
                .map(|p| p.estimated.correlation);
            t.row(vec![
                q.name.to_string(),
                format!("{rr:.1}"),
                opt(with),
                opt(without[qi]),
            ]);
        }
    }
    format!(
        "Figure 8 — estimated correlation with vs without re-sampling\n\
         (TPC-H-like, η = 60, sampling rate 0.8); the with-re-sampling series\n\
         oscillates around the without series and converges as the rate → 1\n\n{}",
        t.render()
    )
}
