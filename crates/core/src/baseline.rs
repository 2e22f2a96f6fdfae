//! The LP / GP brute-force baselines (§6.1).
//!
//! Both enumerate candidate target graphs exhaustively — every join tree
//! connecting a source cover to a target cover, times every join-attribute
//! assignment — and keep the constraint-satisfying one with the highest
//! correlation. **LP** (local optimal) evaluates on the offline samples,
//! **GP** (global optimal) on the full marketplace instances; both reuse the
//! same evaluation kernel as the heuristic ([`crate::mcmc::evaluate_assignment`]).
//!
//! The enumeration is exponential (that is the point of the comparison); the
//! caps in [`BaselineConfig`] keep it merely *expensive* rather than
//! unbounded, mirroring the paper's observation that LP/GP do not halt within
//! 10 hours on TPC-E.

use crate::full_tier::FullTier;
use crate::join_graph::JoinGraph;
use crate::mcmc::{evaluate_assignment, TargetGraph};
use crate::request::Constraints;
use crate::target::Cover;
use dance_quality::tane::TaneConfig;
use dance_relation::{AttrSet, FxHashSet, Result};
use dance_sampling::resample::ResampleConfig;

/// Caps for the exhaustive search.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Absolute cap on tree vertices (required vertices may be far apart, so
    /// this bounds total size, not "extra" size).
    pub max_tree_vertices: usize,
    /// Maximum join trees enumerated per cover pair.
    pub max_trees: usize,
    /// Maximum join-attribute assignments evaluated per tree.
    pub max_assignments_per_tree: usize,
    /// Intermediate re-sampling (normally `None`: baselines measure exactly).
    pub resample: Option<ResampleConfig>,
    /// Quality-estimation settings.
    pub tane: TaneConfig,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            max_tree_vertices: 8,
            max_trees: 400,
            max_assignments_per_tree: 256,
            resample: None,
            tane: TaneConfig {
                error_threshold: 0.1,
                max_lhs: 1,
                max_attrs: 12,
            },
        }
    }
}

/// Exhaustive optimal search over cover pairs.
///
/// `full = None` → LP (sample-optimal); `full = Some(tier)` → GP
/// (globally optimal on the original instances, e.g.
/// [`crate::Dance::full_tier`]).
#[allow(clippy::too_many_arguments)]
pub fn brute_force(
    graph: &JoinGraph,
    free: &FxHashSet<u32>,
    source_covers: &[Cover],
    target_covers: &[Cover],
    source_attrs: &AttrSet,
    target_attrs: &AttrSet,
    constraints: &Constraints,
    full: Option<&FullTier>,
    cfg: &BaselineConfig,
) -> Result<Option<TargetGraph>> {
    let mut best: Option<TargetGraph> = None;
    let empty_cover = Cover::new();
    let sources: Vec<&Cover> = if source_covers.is_empty() {
        vec![&empty_cover]
    } else {
        source_covers.iter().collect()
    };
    for sc in &sources {
        for tc in target_covers {
            let mut required: Vec<u32> = sc.keys().chain(tc.keys()).copied().collect();
            required.sort_unstable();
            required.dedup();
            if required.is_empty() {
                continue;
            }
            let trees = enumerate_trees(graph, &required, cfg.max_tree_vertices, cfg.max_trees);
            for tree in &trees {
                for assignment in assignments(graph, tree, cfg.max_assignments_per_tree) {
                    let tg = evaluate_assignment(
                        graph,
                        free,
                        tree,
                        &assignment,
                        sc,
                        tc,
                        source_attrs,
                        target_attrs,
                        full,
                        cfg.resample.as_ref(),
                        &cfg.tane,
                    )?;
                    if !tg.admits(constraints) {
                        continue;
                    }
                    if best.as_ref().is_none_or(|b| tg.corr > b.corr) {
                        best = Some(tg);
                    }
                }
            }
        }
    }
    Ok(best)
}

/// Enumerate join trees (edge lists) containing all `required` vertices and
/// at most `max_vertices` vertices in total, deduplicated, capped.
pub fn enumerate_trees(
    graph: &JoinGraph,
    required: &[u32],
    max_vertices: usize,
    max_trees: usize,
) -> Vec<Vec<(u32, u32)>> {
    let mut out: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut seen: FxHashSet<Vec<(u32, u32)>> = FxHashSet::default();
    if required.len() == 1 {
        // Trivial tree: single vertex, no edges.
        out.push(Vec::new());
        return out;
    }
    // Grow trees from the first required vertex.
    type PartialTree = (Vec<u32>, Vec<(u32, u32)>);
    let mut stack: Vec<PartialTree> = vec![(vec![required[0]], Vec::new())];
    while let Some((verts, edges)) = stack.pop() {
        if out.len() >= max_trees {
            break;
        }
        if required.iter().all(|r| verts.contains(r)) {
            let mut canon = edges.clone();
            canon.sort_unstable();
            if seen.insert(canon.clone()) {
                out.push(canon);
            }
            // Also keep growing: a larger tree may satisfy constraints the
            // smaller one cannot (different join routes).
        }
        if verts.len() >= max_vertices {
            continue;
        }
        for &v in &verts {
            for &ei in graph.incident(v) {
                let e = &graph.i_edges()[ei as usize];
                let next = if e.a == v { e.b } else { e.a };
                if verts.contains(&next) {
                    continue; // would close a cycle
                }
                let mut nv = verts.clone();
                nv.push(next);
                nv.sort_unstable();
                let mut ne = edges.clone();
                ne.push((v.min(next), v.max(next)));
                stack.push((nv, ne));
            }
        }
    }
    out
}

/// Cartesian product of per-edge join-attribute candidates, capped.
fn assignments(graph: &JoinGraph, tree: &[(u32, u32)], cap: usize) -> Vec<Vec<AttrSet>> {
    if tree.is_empty() {
        return vec![Vec::new()];
    }
    let per_edge: Vec<&[AttrSet]> = tree
        .iter()
        .map(|&(a, b)| graph.candidate_join_sets(a, b))
        .collect();
    if per_edge.iter().any(|c| c.is_empty()) {
        return Vec::new();
    }
    let mut out: Vec<Vec<AttrSet>> = vec![Vec::new()];
    for cands in per_edge {
        let mut next = Vec::with_capacity(out.len() * cands.len());
        'outer: for partial in &out {
            for c in cands {
                let mut np = partial.clone();
                np.push(c.clone());
                next.push(np);
                if next.len() >= cap {
                    break 'outer;
                }
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmark::tests::chain_graph;

    #[test]
    fn enumerates_the_chain_tree() {
        let g = chain_graph();
        let trees = enumerate_trees(&g, &[0, 4], 5, 100);
        assert_eq!(
            trees.len(),
            1,
            "a path graph has exactly one connecting tree"
        );
        assert_eq!(trees[0], vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn extra_vertices_do_not_invent_edges() {
        let g = chain_graph();
        let trees = enumerate_trees(&g, &[1, 2], 3, 100);
        // (1,2) alone, plus trees extending to 0 or 3.
        assert!(trees.iter().any(|t| t == &vec![(1, 2)]));
        for t in &trees {
            for &(a, b) in t {
                assert!(g.edge_between(a, b).is_some());
            }
        }
    }

    #[test]
    fn tree_enumeration_respects_cap() {
        let g = chain_graph();
        let trees = enumerate_trees(&g, &[0, 4], 5, 2);
        assert!(trees.len() <= 2);
    }

    #[test]
    fn assignment_product_caps() {
        let g = chain_graph();
        let tree = vec![(0u32, 1u32), (1, 2)];
        let all = assignments(&g, &tree, 1000);
        // Each chain edge shares exactly one attribute → 1 candidate each.
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].len(), 2);
    }

    #[test]
    fn single_required_vertex_gives_empty_tree() {
        let g = chain_graph();
        let trees = enumerate_trees(&g, &[3], 1, 10);
        assert_eq!(trees, vec![Vec::<(u32, u32)>::new()]);
    }
}
