//! # Parallel multi-chain MCMC search (§5.2, Algorithm 1 × N)
//!
//! Every search runs here: [`McmcConfig::chains`](crate::mcmc::McmcConfig)
//! = N runs N independent Metropolis chains over the same candidate space
//! and keeps the best target graph any of them found. Chains differ only in
//! their RNG stream (seeds derived deterministically from the base seed,
//! [`chain_seed`]) and, optionally, their acceptance temperature
//! ([`chain_temperature`]); they share the graph's concurrent evaluation
//! memo, so an assignment evaluated by any chain — or by any earlier search
//! on the same samples — is a cache hit for every other.
//!
//! ## Determinism contract
//!
//! - Chain k's walk is a pure function of `(catalog, chain_seed(seed, k),
//!   chain_temperature(step, k))` — the shared memo can change *when* work
//!   happens, never *what* a chain computes, because a
//!   [`TargetGraph`] is a pure function of the memo key (the search scope
//!   and the assignment).
//! - The reduction scans results in chain-index order and replaces the
//!   incumbent only on a strictly larger `corr`, so ties resolve to the
//!   lowest chain index. Together these make the result bit-identical for a
//!   given `(seed, N)` at every executor thread count.
//! - Chain 0 uses the base seed and temperature 1 verbatim, so a
//!   single-chain search (`chains` of 0 or 1) is exactly the sequential
//!   seeded walk; a one-item fan-out runs inline on the calling thread.
//!
//! The fan-out runs on the graph's [`dance_executor::Executor`] via
//! `par_map_init`, which constructs each chain's RNG from scratch per item —
//! no RNG state ever crosses a work-stealing boundary. This module must not
//! take any mutex directly (CI grep-guards it); all cross-chain shared
//! state lives in the join graph's caches behind the `ShardedLru` facade
//! (`crate::cache`), which owns its shard mutexes internally.

use crate::join_graph::JoinGraph;
use crate::mcmc::{run_single_chain, McmcConfig, TargetGraph};
use crate::request::Constraints;
use crate::target::Cover;
use dance_relation::hash::splitmix64;
use dance_relation::{AttrSet, FxHashSet, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-chain golden-ratio stride fed through `splitmix64`, the standard
/// recipe for decorrelating sequential seed indices.
const CHAIN_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The RNG seed for chain `k` of a search seeded with `base`.
///
/// Chain 0 uses `base` verbatim — that is what keeps a multi-chain search's
/// first chain bit-exact with the single-chain walk. Later chains mix the
/// index through [`splitmix64`] so nearby base seeds do not produce
/// overlapping chain streams.
pub fn chain_seed(base: u64, chain: usize) -> u64 {
    if chain == 0 {
        base
    } else {
        splitmix64(base.wrapping_add((chain as u64).wrapping_mul(CHAIN_SEED_STRIDE)))
    }
}

/// The acceptance temperature for chain `k` on a ladder with the given step:
/// `T_k = 1 + k·step`. Chain 0 is always at `T = 1` (the paper's exact
/// Metropolis rule); a zero step keeps every chain there.
pub fn chain_temperature(step: f64, chain: usize) -> f64 {
    1.0 + step * chain as f64
}

/// Fan N chains over the executor and reduce to the deterministic best.
///
/// Called by [`crate::mcmc::find_optimal_target_graph`] after it has
/// prepared the candidate space and initial assignment (both shared by all
/// chains). `chains` of 0 is treated as 1. Errors surface from the
/// lowest-indexed failing chain.
#[allow(clippy::too_many_arguments)] // mirrors find_optimal_target_graph's surface
pub(crate) fn multichain_search(
    graph: &JoinGraph,
    free: &FxHashSet<u32>,
    tree_edges: &[(u32, u32)],
    cands: &[&[AttrSet]],
    initial: &[u32],
    source_cover: &Cover,
    target_cover: &Cover,
    source_attrs: &AttrSet,
    target_attrs: &AttrSet,
    constraints: &Constraints,
    cfg: &McmcConfig,
) -> Result<Option<TargetGraph>> {
    let chains = cfg.chains.max(1);
    let chain_ids: Vec<usize> = (0..chains).collect();

    let results = graph.executor().par_map_init(
        &chain_ids,
        |k| StdRng::seed_from_u64(chain_seed(cfg.seed, k)),
        |rng, _, &k| {
            run_single_chain(
                graph,
                free,
                tree_edges,
                cands,
                initial,
                source_cover,
                target_cover,
                source_attrs,
                target_attrs,
                constraints,
                cfg,
                chain_temperature(cfg.temperature_step, k),
                rng,
            )
        },
    );

    // Best-of-N in chain-index order; strictly-greater keeps ties on the
    // lowest chain, independent of which chain finished first.
    let mut best: Option<TargetGraph> = None;
    for result in results {
        let Some(tg) = result? else { continue };
        if best.as_ref().is_none_or(|b| tg.corr > b.corr) {
            best = Some(tg);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_zero_uses_the_base_seed_verbatim() {
        for base in [0u64, 42, u64::MAX] {
            assert_eq!(chain_seed(base, 0), base);
        }
    }

    #[test]
    fn later_chains_decorrelate_nearby_bases() {
        // Adjacent base seeds and adjacent chain indices must all map to
        // distinct derived seeds — the whole point of the splitmix mix.
        let mut seen = std::collections::HashSet::new();
        for base in 0..8u64 {
            for chain in 0..8usize {
                assert!(seen.insert(chain_seed(base, chain)));
            }
        }
    }

    #[test]
    fn temperature_ladder_is_affine_from_one() {
        assert_eq!(chain_temperature(0.0, 0), 1.0);
        assert_eq!(chain_temperature(0.0, 7), 1.0);
        assert_eq!(chain_temperature(0.5, 0), 1.0);
        assert_eq!(chain_temperature(0.5, 1), 1.5);
        assert_eq!(chain_temperature(0.25, 4), 2.0);
    }
}
