//! # dance-bench — the DANCE experiment harness
//!
//! One runner per table/figure of the paper's §6 plus the ablations DESIGN.md
//! calls out. Every experiment is a pure function returning a formatted
//! report (so integration tests can assert on shapes) and is reachable from
//! the `experiments` binary:
//!
//! ```sh
//! cargo run -p dance-bench --release --bin experiments -- table5
//! cargo run -p dance-bench --release --bin experiments -- --all
//! ```
//!
//! | Runner | Paper artifact |
//! |--------|----------------|
//! | [`exp_tables::table5`] | Table 5 — dataset description |
//! | [`exp_scalability::fig4`] | Figure 4 — time vs #instances, heuristic/LP/GP (TPC-H) |
//! | [`exp_scalability::fig5`] | Figure 5(a,b) — heuristic time + I-graph size (TPC-E) |
//! | [`exp_scalability::fig5c`] | Figure 5(c) — time vs budget ratio, N/A when unaffordable |
//! | [`exp_correlation::fig6`] | Figure 6 — correlation difference vs sampling rate |
//! | [`exp_correlation::fig7`] | Figure 7 — correlation vs budget ratio |
//! | [`exp_correlation::fig8`] | Figure 8 — correlation with/without re-sampling |
//! | [`exp_tables::table6`] | Table 6 — DANCE vs direct marketplace purchase |
//! | [`exp_ablation`] | Steiner / sampling / clean-before-join ablations |

pub mod exp_ablation;
pub mod exp_correlation;
pub mod exp_scalability;
pub mod exp_tables;
pub mod fmt;
pub mod setup;

/// Scale factor the `experiments` binary runs at unless `--scale` is given.
pub const DEFAULT_SCALE: f64 = 0.3;
/// Seed the `experiments` binary runs with unless `--seed` is given.
pub const DEFAULT_SEED: u64 = 42;
