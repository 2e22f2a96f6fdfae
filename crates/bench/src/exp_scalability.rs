//! Figures 4 and 5: scalability of the heuristic vs the LP/GP baselines.

use crate::fmt::{secs, TextTable};
use crate::setup::{marketplace_subset, offline, price_bounds};
use dance_core::baseline::{brute_force, BaselineConfig};
use dance_core::{AcquisitionRequest, Constraints};
use dance_datagen::tpce::TpceConfig;
use dance_datagen::tpch::TpchConfig;
use dance_datagen::workload::{tpce_workload, tpch_workload};
use std::time::Instant;

/// TPC-H subsets for n ∈ {5..8}: always contain the Q1–Q3 join paths.
pub const TPCH_SUBSETS: [&[&str]; 4] = [
    &["orders", "customer", "supplier", "nation", "region"],
    &["orders", "customer", "supplier", "nation", "region", "part"],
    &[
        "orders", "customer", "supplier", "nation", "region", "part", "partsupp",
    ],
    &[
        "orders", "customer", "supplier", "nation", "region", "part", "partsupp", "lineitem",
    ],
];

/// TPC-E subsets for n ∈ {10, 15, 20, 25, 29}: the first ten cover Q1–Q3.
pub fn tpce_subsets() -> Vec<Vec<&'static str>> {
    let core = vec![
        "sector",
        "industry",
        "company",
        "security",
        "trade",
        "watch_item",
        "watch_list",
        "customer",
        "address",
        "zip_code",
    ];
    let extra = [
        "exchange",
        "status_type",
        "trade_type",
        "taxrate",
        "broker", // → 15
        "customer_account",
        "daily_market",
        "last_trade",
        "news_item",
        "news_xref", // → 20
        "account_permission",
        "customer_taxrate",
        "settlement",
        "cash_transaction",
        "trade_history", // → 25
        "charge",
        "commission_rate",
        "holding",
        "holding_summary", // → 29
    ];
    let mut out = Vec::new();
    for n in [10usize, 15, 20, 25, 29] {
        let mut names = core.clone();
        names.extend(extra.iter().take(n - 10));
        out.push(names);
    }
    out
}

/// Figure 4: time of heuristic vs LP vs GP on TPC-H, n ∈ {5..8}, Q1–Q3.
pub fn fig4(scale: f64, seed: u64) -> String {
    let w = tpch_workload(&TpchConfig {
        scale,
        dirty_fraction: 0.3,
        seed,
    })
    .expect("tpch generation");
    let mut t = TextTable::new(vec!["query", "n", "heuristic", "LP", "GP"]);
    for names in TPCH_SUBSETS {
        let n = names.len();
        let market = marketplace_subset(&w.tables, names);
        let dance = offline(&market, 0.3, seed).expect("offline");
        for q in &w.queries {
            let req = AcquisitionRequest::new(q.source.clone(), q.target.clone());

            let t0 = Instant::now();
            let _ = dance.search(&req).expect("heuristic runs");
            let t_heur = t0.elapsed();

            let scovers = dance.covers_of(&req.source_attrs);
            let tcovers = dance.covers_of(&req.target_attrs);
            let bl_cfg = BaselineConfig {
                max_tree_vertices: q.path_len + 1,
                max_trees: 60,
                max_assignments_per_tree: 64,
                ..BaselineConfig::default()
            };

            let t0 = Instant::now();
            let _ = brute_force(
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
            .expect("LP runs");
            let t_lp = t0.elapsed();

            let full = dance.full_tier(&market).expect("full tier");
            let t0 = Instant::now();
            let _ = brute_force(
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
            .expect("GP runs");
            let t_gp = t0.elapsed();

            t.row(vec![
                q.name.to_string(),
                n.to_string(),
                secs(t_heur),
                secs(t_lp),
                secs(t_gp),
            ]);
        }
    }
    format!(
        "Figure 4 — search time vs #instances (TPC-H-like, scale {scale})\n\
         heuristic ≪ LP ≪ GP is the paper's log-scale ordering\n\n{}",
        t.render()
    )
}

/// Figure 5(a,b): heuristic time and I-graph size on TPC-E, n ∈ {10..29}.
pub fn fig5(scale: f64, seed: u64) -> String {
    let w = tpce_workload(&TpceConfig {
        scale,
        dirty_fraction: 0.2,
        seed,
    })
    .expect("tpce generation");
    let mut time_t = TextTable::new(vec!["n", "Q1", "Q2", "Q3"]);
    let mut size_t = TextTable::new(vec!["n", "Q1", "Q2", "Q3"]);
    for names in tpce_subsets() {
        let n = names.len();
        let market = marketplace_subset(&w.tables, &names);
        let dance = offline(&market, 0.3, seed).expect("offline");
        let mut times = Vec::new();
        let mut sizes = Vec::new();
        for q in &w.queries {
            let req = AcquisitionRequest::new(q.source.clone(), q.target.clone());
            let t0 = Instant::now();
            let _ = dance.search(&req).expect("heuristic runs");
            times.push(secs(t0.elapsed()));
            sizes.push(
                dance
                    .probe_igraph(&req)
                    .map(|(s, _)| s.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        time_t.row(vec![
            n.to_string(),
            times[0].clone(),
            times[1].clone(),
            times[2].clone(),
        ]);
        size_t.row(vec![
            n.to_string(),
            sizes[0].clone(),
            sizes[1].clone(),
            sizes[2].clone(),
        ]);
    }
    format!(
        "Figure 5(a) — heuristic search time vs #instances (TPC-E-like, scale {scale})\n\n{}\n\
         Figure 5(b) — minimal I-graph size (vertices)\n\n{}",
        time_t.render(),
        size_t.render()
    )
}

/// Figure 5(c): heuristic time vs budget ratio on TPC-E; N/A when no target
/// graph is affordable.
pub fn fig5c(scale: f64, seed: u64) -> String {
    let w = tpce_workload(&TpceConfig {
        scale,
        dirty_fraction: 0.2,
        seed,
    })
    .expect("tpce generation");
    let names: Vec<&str> = tpce_subsets().pop().expect("29-subset").clone();
    let market = marketplace_subset(&w.tables, &names);
    let dance = offline(&market, 0.3, seed).expect("offline");

    let mut t = TextTable::new(vec!["budget ratio", "Q1", "Q2", "Q3"]);
    let bounds: Vec<Option<(f64, f64)>> =
        w.queries.iter().map(|q| price_bounds(&dance, q)).collect();
    for ratio in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut cells = vec![format!("{ratio:.2}")];
        for (q, b) in w.queries.iter().zip(&bounds) {
            let Some((_, ub)) = b else {
                cells.push("-".into());
                continue;
            };
            let req = AcquisitionRequest::new(q.source.clone(), q.target.clone()).with_constraints(
                Constraints {
                    alpha: f64::INFINITY,
                    beta: 0.0,
                    budget: ratio * ub,
                },
            );
            let t0 = Instant::now();
            let found = dance.search(&req).expect("search runs");
            cells.push(match found {
                Some(_) => secs(t0.elapsed()),
                None => "N/A".into(),
            });
        }
        t.row(cells);
    }
    format!(
        "Figure 5(c) — heuristic time vs budget ratio (TPC-E-like, n = 29)\n\
         N/A = no affordable target graph at that ratio\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsets_are_well_formed() {
        assert_eq!(TPCH_SUBSETS.map(|s| s.len()), [5, 6, 7, 8]);
        let tpce = tpce_subsets();
        assert_eq!(
            tpce.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![10, 15, 20, 25, 29]
        );
        // Monotone: each subset extends the previous.
        for win in tpce.windows(2) {
            for name in &win[0] {
                assert!(win[1].contains(name));
            }
        }
    }
}
