//! # dance-core — the DANCE middleware
//!
//! The paper's contribution: given a marketplace of priced, dirty, joinable
//! instances and a correlation request `(AS, AT)` with constraints on join
//! informativeness (α), quality (β) and budget (B), find the projection
//! queries whose join maximizes `CORR(AS, AT)` (§2.5, Equation 9).
//!
//! Pipeline (paper section → module):
//!
//! | § | What | Module |
//! |---|------|--------|
//! | 4, Def 4.1 | Attribute-set lattice | [`lattice`] |
//! | 4, Def 4.2 + Prop 4.1 | Two-layer join graph from samples | [`join_graph`] |
//! | 4, Def 4.3 | Source/target AS-vertex covers | [`target`] |
//! | 5.1 | Landmark shortest paths, minimal weighted I-graph | [`landmark`], [`igraph`] |
//! | 5.1 (ablation) | Exact Dreyfus–Wagner Steiner tree | [`steiner`] |
//! | 5.2, Alg 1 | MCMC over AS-layer | [`mcmc`] |
//! | 5.2 (portfolio) | Sequential multi-chain best-of-N ([`McmcConfig::chains`]) | [`mcmc`] |
//! | 6.1 | LP / GP brute-force baselines | [`baseline`] |
//! | 2.1, Fig 1 | Offline/online middleware facade | [`dance`] |
//!
//! The OTG search problem is NP-hard (Theorem 4.1 — by reduction from Steiner
//! tree, which is why [`steiner`] doubles as the exact-but-exponential
//! reference); the [`mcmc`] heuristic is the production path.

pub mod baseline;
mod cache;
pub mod dance;
pub mod delta;
pub mod full_tier;
pub mod igraph;
pub mod join_graph;
pub mod landmark;
pub mod lattice;
pub mod mcmc;
pub mod plan;
pub mod request;
pub mod steiner;
pub mod target;

pub use dance::{Dance, DanceConfig};
pub use full_tier::FullTier;
pub use igraph::IGraph;
pub use join_graph::{
    JoinGraph, JoinGraphConfig, DEFAULT_EVAL_MEMO_CAP, DEFAULT_HIST_CACHE_CAP,
    DEFAULT_PARTIALS_CACHE_CAP, DEFAULT_PROJ_CACHE_CAP, DEFAULT_SEL_CACHE_CAP,
};
pub use mcmc::{chain_seed, McmcConfig, TargetGraph};
pub use plan::{AcquisitionPlan, PlanMetrics};
pub use request::{AcquisitionRequest, Constraints};
