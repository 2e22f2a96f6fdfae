//! Table 5 (dataset description) and Table 6 (DANCE vs direct purchase).

use crate::fmt::TextTable;
use crate::setup::{marketplace_subset, offline, price_bounds};
use dance_core::baseline::{brute_force, BaselineConfig};
use dance_core::{AcquisitionRequest, Constraints};
use dance_datagen::tpce::TpceConfig;
use dance_datagen::tpch::TpchConfig;
use dance_datagen::workload::{tpce_workload, tpch_workload};
use dance_quality::tane::{discover_afds, TaneConfig};
use dance_relation::Table;

/// Table 5: per-dataset shape statistics, including average AFD count (θ=0.1).
pub fn table5(scale: f64, seed: u64) -> String {
    let tpch = tpch_workload(&TpchConfig {
        scale,
        dirty_fraction: 0.3,
        seed,
    })
    .expect("tpch generation");
    let tpce = tpce_workload(&TpceConfig {
        scale,
        dirty_fraction: 0.2,
        seed,
    })
    .expect("tpce generation");

    let mut t = TextTable::new(vec![
        "dataset",
        "#instances",
        "min rows (table)",
        "max rows (table)",
        "min #attrs",
        "max #attrs",
        "avg #AFDs/table",
    ]);
    for w in [&tpch, &tpce] {
        let min_rows = w.tables.iter().min_by_key(|x| x.num_rows()).unwrap();
        let max_rows = w.tables.iter().max_by_key(|x| x.num_rows()).unwrap();
        let min_attrs = w.tables.iter().map(Table::num_attrs).min().unwrap();
        let max_attrs = w.tables.iter().map(Table::num_attrs).max().unwrap();
        let tane = TaneConfig {
            error_threshold: 0.1,
            max_lhs: 2,
            max_attrs: 12,
        };
        let total_fds: usize = w
            .tables
            .iter()
            .map(|tb| discover_afds(tb, &tane).map(|v| v.len()).unwrap_or(0))
            .sum();
        t.row(vec![
            w.name.to_string(),
            w.tables.len().to_string(),
            format!("{} ({})", min_rows.num_rows(), min_rows.name()),
            format!("{} ({})", max_rows.num_rows(), max_rows.name()),
            min_attrs.to_string(),
            max_attrs.to_string(),
            format!("{:.1}", total_fds as f64 / w.tables.len() as f64),
        ]);
    }
    format!(
        "Table 5 — dataset description (synthetic, scale {scale}, θ = 0.1)\n\n{}",
        t.render()
    )
}

/// Table 6: DANCE vs direct purchase (GP on the full instances), budget
/// ratio 0.13, TPC-H queries Q1–Q3. Reports true metrics for both.
pub fn table6(scale: f64, seed: u64) -> String {
    let w = tpch_workload(&TpchConfig {
        scale,
        dirty_fraction: 0.3,
        seed,
    })
    .expect("tpch generation");
    let names: Vec<&str> = w.tables.iter().map(Table::name).collect();
    let market = marketplace_subset(&w.tables, &names);
    let dance = offline(&market, 0.5, seed).expect("offline");

    let mut t = TextTable::new(vec![
        "query",
        "approach",
        "correlation",
        "quality",
        "join informativeness",
        "price",
    ]);
    for q in &w.queries {
        let Some((_, ub)) = price_bounds(&dance, q) else {
            t.row::<String>(vec![
                q.name.into(),
                "N/A".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        // The paper's ratio r = 0.13 is relative to its own LB/UB spread; our
        // synthetic price spread is narrower, so we pin the budget at 0.9·UB
        // (comfortably feasible, still binding for the most expensive routes).
        let constraints = Constraints {
            alpha: f64::INFINITY,
            beta: 0.0,
            budget: 0.9 * ub,
        };
        let req = AcquisitionRequest::new(q.source.clone(), q.target.clone())
            .with_constraints(constraints);

        // DANCE.
        if let Some(plan) = dance.search(&req).expect("search") {
            let truth = dance
                .evaluate_true(&market, &plan.graph, &req)
                .expect("true eval");
            t.row(vec![
                q.name.to_string(),
                "With DANCE".into(),
                format!("{:.3}", truth.corr),
                format!("{:.4}", truth.quality),
                format!("{:.4}", truth.weight),
                format!("{:.2}", truth.price),
            ]);
        } else {
            t.row::<String>(vec![
                q.name.into(),
                "With DANCE".into(),
                "N/A".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }

        // Direct purchase: GP over the full instances.
        let full = dance.full_tier(&market).expect("full tier");
        let gp = brute_force(
            dance.graph(),
            dance.free_vertices(),
            &dance.covers_of(&req.source_attrs),
            &dance.covers_of(&req.target_attrs),
            &req.source_attrs,
            &req.target_attrs,
            &constraints,
            Some(&full),
            &BaselineConfig {
                max_tree_vertices: q.path_len,
                max_trees: 40,
                max_assignments_per_tree: 32,
                tane: TaneConfig {
                    error_threshold: 0.35,
                    max_lhs: 1,
                    max_attrs: 12,
                },
                ..BaselineConfig::default()
            },
        )
        .expect("GP runs");
        match gp {
            Some(tg) => t.row(vec![
                q.name.to_string(),
                "Purchase from data marketplace".into(),
                format!("{:.3}", tg.corr),
                format!("{:.4}", tg.quality),
                format!("{:.4}", tg.weight),
                format!("{:.2}", tg.price),
            ]),
            None => t.row::<String>(vec![
                q.name.into(),
                "Purchase from data marketplace".into(),
                "N/A".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        };
    }
    format!(
        "Table 6 — acquisition with DANCE vs direct marketplace purchase\n\
         (TPC-H-like, budget ≈ 0.9·UB, true metrics on full data)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_mentions_both_datasets() {
        let s = table5(0.15, 3);
        assert!(s.contains("tpch"));
        assert!(s.contains("tpce"));
        assert!(s.contains("watch_item"), "TPC-E max table");
    }
}
