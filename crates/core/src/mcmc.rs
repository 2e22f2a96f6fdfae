//! Step 2 (§5.2, Algorithm 1): MCMC search over the AS-layer.
//!
//! Given the minimal weighted I-graph from Step 1, the remaining choice is
//! *which join attribute set each tree edge uses* — that choice fixes the
//! projection attribute set of every instance (incident join attributes plus
//! contributed source/target attributes), and with it the price, weight,
//! quality and correlation of the candidate purchase.
//!
//! The chain proposes replacing one edge's join attribute set with a
//! different candidate (uniformly), rejects proposals that violate the
//! constraints (Line 8), and otherwise accepts with probability
//! `min(1, CORR'/CORR)` (Line 9) — so the walk drifts toward high-correlation
//! target graphs while recording the best constraint-satisfying state it has
//! visited.
//!
//! [`evaluate_assignment`] is the shared evaluation kernel: it is also what
//! the LP/GP baselines call, with a [`FullTier`] instead of samples for GP.
//!
//! ## Incremental evaluation
//!
//! A proposal flips exactly one edge's join attribute set, and the walk
//! revisits states constantly, so [`find_optimal_target_graph`] evaluates
//! through an incremental engine instead of re-running the whole pipeline
//! per proposal. [`evaluate_assignment`] stays the bit-exact reference: the
//! tests evaluate every state a walk visits through both and compare bits.
//!
//! * **Per-hop selection cache** — each tree hop re-probes a
//!   [`JoinGraph::pair_sel`] cached per `(instance pair, join set)`, so a
//!   flipped edge re-probes only its own hop while unchanged hops re-compose
//!   cached match lists ([`dance_relation::sel::TreeJoin`]).
//! * **Projection / price cache** — projected sample tables and entropy
//!   prices come from [`JoinGraph::projected_for_eval`] /
//!   [`JoinGraph::price_for_eval`], cached per `(instance, attr set)`; only
//!   the flipped edge's endpoints recompute, and the final price/weight
//!   folds re-run over the cached components in canonical order, so every
//!   float is bit-equal to a fresh full re-sum.
//! * **Evaluation memo** — full [`TargetGraph`]s memoized in one sharded
//!   stamped-LRU on the graph ([`JoinGraph::eval_memo_len`], bounded by
//!   [`crate::JoinGraphConfig::eval_memo_cap`]), shared by every search,
//!   chain and request, so a revisited state costs one hash lookup — also
//!   when a shopper repeats a query or sweeps its budget. The key
//!   (`EvalKey`) holds everything an evaluation reads: each participating
//!   vertex with its sample generation and its membership in `free`, the
//!   tree edges in order, the candidate index per edge, both covers, the
//!   source/target attributes, and the §3.2 re-sampling and AFD settings.
//!   Constraints, seed, chain count and iterations stay out of it: they
//!   only steer the walk, never what a state evaluates to.
//!
//! §3.2 re-sampling keeps firing on the *composed* selection via
//! [`dance_sampling::resample::BoundedHook`] with unchanged step/seed
//! derivation, so seeded experiment reports stay byte-identical.

use crate::cache::StampedLru;
use crate::full_tier::FullTier;
use crate::join_graph::JoinGraph;
use crate::request::Constraints;
use crate::target::Cover;
use dance_info::correlation::{correlation_with, CorrOptions};
use dance_quality::tane::TaneConfig;
use dance_relation::hash::{splitmix64, stable_hash64};
use dance_relation::join::JoinEdge;
use dance_relation::sel::TreeJoin;
use dance_relation::{AttrSet, FxHashMap, FxHashSet, RelationError, Result, Table};
use dance_sampling::resample::{join_tree_bounded, BoundedHook, ResampleConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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

/// Tuning for Algorithm 1.
#[derive(Debug, Clone)]
pub struct McmcConfig {
    /// Number of iterations ℓ.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// §3.2 re-sampling of intermediate joins during evaluation.
    pub resample: Option<ResampleConfig>,
    /// AFD discovery settings for the quality estimate (Def 2.3).
    pub tane: TaneConfig,
    /// Number of independent MCMC chains. `1` (the default) is the plain
    /// single-chain walk; `N > 1` runs N chains one after another on the
    /// calling thread, chain `k` seeded with [`chain_seed`]`(seed, k)`, and
    /// returns the best-of-N (first strict correlation maximum in chain
    /// order). `0` is treated as `1`.
    pub chains: usize,
}

impl Default for McmcConfig {
    fn default() -> Self {
        McmcConfig {
            iterations: 120,
            seed: 0x0A16_0417,
            resample: Some(ResampleConfig::default()),
            tane: TaneConfig {
                error_threshold: 0.1,
                max_lhs: 1,
                max_attrs: 12,
            },
            chains: 1,
        }
    }
}

/// A fully specified candidate purchase: tree + join attributes + projections,
/// with its measured metrics.
#[derive(Debug, Clone)]
pub struct TargetGraph {
    /// Tree edges over join-graph vertices.
    pub tree_edges: Vec<(u32, u32)>,
    /// Join attribute set per tree edge (aligned with `tree_edges`).
    pub join_attrs: Vec<AttrSet>,
    /// Projection attribute set per participating instance.
    pub projections: BTreeMap<u32, AttrSet>,
    /// `CORR(AS, AT)` measured on the (sampled or full) join.
    pub corr: f64,
    /// `w(TG)`: sum of per-edge join informativeness.
    pub weight: f64,
    /// `Q(TG)` (Definition 2.3).
    pub quality: f64,
    /// `p(TG)`: total price of the non-free projections.
    pub price: f64,
}

impl TargetGraph {
    /// `true` iff the metrics satisfy `c`.
    pub fn admits(&self, c: &Constraints) -> bool {
        c.admits(self.weight, self.quality, self.price)
    }
}

/// Evaluate one edge-assignment into a full [`TargetGraph`].
///
/// * `full = None` → per-instance data comes from the join-graph samples
///   (the heuristic and LP paths); edge weights come from the Property 4.1
///   table.
/// * `full = Some(tier)` → full-data evaluation (the GP path and final
///   plan reporting); edge weights are exact JI on the full tables and
///   prices are computed from the full tables too, both through the
///   graph's full-tier memo ([`JoinGraph::full_ji`] /
///   [`JoinGraph::full_price`]).
#[allow(clippy::too_many_arguments)]
pub fn evaluate_assignment(
    graph: &JoinGraph,
    free: &FxHashSet<u32>,
    tree_edges: &[(u32, u32)],
    join_attrs: &[AttrSet],
    source_cover: &Cover,
    target_cover: &Cover,
    source_attrs: &AttrSet,
    target_attrs: &AttrSet,
    full: Option<&FullTier>,
    resample: Option<&ResampleConfig>,
    tane: &TaneConfig,
) -> Result<TargetGraph> {
    if tree_edges.len() != join_attrs.len() {
        return Err(RelationError::Shape(format!(
            "{} edges vs {} join attribute sets",
            tree_edges.len(),
            join_attrs.len()
        )));
    }

    // Participating vertices.
    let mut vertices: FxHashSet<u32> = FxHashSet::default();
    for &(a, b) in tree_edges {
        vertices.insert(a);
        vertices.insert(b);
    }
    for v in source_cover.keys().chain(target_cover.keys()) {
        vertices.insert(*v);
    }
    if vertices.is_empty() {
        return Err(RelationError::Shape("empty target graph".into()));
    }

    let attr_refs: Vec<&AttrSet> = join_attrs.iter().collect();
    let projections = projection_sets(
        vertices.iter().copied(),
        tree_edges,
        &attr_refs,
        source_cover,
        target_cover,
    )?;
    let weight = weight_fold(graph, tree_edges, &attr_refs, full)?;
    let price = price_fold(graph, free, &projections, full)?;

    // Join the projected instances along the tree. Projections come from the
    // graph's cache layer: the sample tier returns shared Arc projections so
    // repeated evaluations stop re-cloning column data.
    let order: Vec<u32> = projections.keys().copied().collect();
    let pos: FxHashMap<u32, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let projected: Vec<Arc<Table>> = order
        .iter()
        .map(|&v| match full {
            None => graph.projected_for_eval(v, &projections[&v], None),
            Some(tier) => tier.projected(v, &projections[&v]),
        })
        .collect::<Result<Vec<_>>>()?;
    let refs: Vec<&Table> = projected.iter().map(Arc::as_ref).collect();
    let joined = if tree_edges.is_empty() {
        (*projected[0]).clone()
    } else {
        let edges: Vec<JoinEdge> = tree_edges
            .iter()
            .zip(join_attrs)
            .map(|(&(a, b), on)| JoinEdge {
                a: pos[&a],
                b: pos[&b],
                on: on.clone(),
            })
            .collect();
        // Selection-vector tree join: per-hop JoinSels composed on interned
        // symbols, one materialization.
        join_tree_bounded(&refs, &edges, resample)?.0
    };

    let corr = eval_corr(&joined, source_attrs, target_attrs, full.is_some())?;
    let quality = dance_quality::joint::instance_set_quality(&joined, tane)?;

    Ok(TargetGraph {
        tree_edges: tree_edges.to_vec(),
        join_attrs: join_attrs.to_vec(),
        projections,
        corr,
        weight,
        quality,
        price,
    })
}

/// Projection attribute sets (incident join attrs ∪ cover contributions) of
/// every participating vertex — the one definition [`evaluate_assignment`]
/// and the incremental engine share (a `BTreeMap` makes the caller's vertex
/// iteration order irrelevant).
fn projection_sets(
    vertices: impl Iterator<Item = u32>,
    tree_edges: &[(u32, u32)],
    join_attrs: &[&AttrSet],
    source_cover: &Cover,
    target_cover: &Cover,
) -> Result<BTreeMap<u32, AttrSet>> {
    let mut projections: BTreeMap<u32, AttrSet> = BTreeMap::new();
    for v in vertices {
        let mut p = AttrSet::empty();
        for (e, &(a, b)) in tree_edges.iter().enumerate() {
            if a == v || b == v {
                p = p.union(join_attrs[e]);
            }
        }
        if let Some(s) = source_cover.get(&v) {
            p = p.union(s);
        }
        if let Some(t) = target_cover.get(&v) {
            p = p.union(t);
        }
        if p.is_empty() {
            return Err(RelationError::Shape(format!(
                "instance {v} participates with an empty projection"
            )));
        }
        projections.insert(v, p);
    }
    Ok(projections)
}

/// `w(TG)`: Property 4.1 lookups on the sample tier, exact JI on full data —
/// folded in edge order (the canonical summation order both evaluation paths
/// share, so the result is bit-stable).
fn weight_fold(
    graph: &JoinGraph,
    tree_edges: &[(u32, u32)],
    join_attrs: &[&AttrSet],
    full: Option<&FullTier>,
) -> Result<f64> {
    let mut weight = 0.0;
    for (e, &(a, b)) in tree_edges.iter().enumerate() {
        weight += match full {
            None => graph.weight(a, b, join_attrs[e]).ok_or_else(|| {
                RelationError::InvalidJoin(format!(
                    "no candidate weight for edge ({a},{b}) on {}",
                    join_attrs[e]
                ))
            })?,
            Some(tier) => graph.full_ji(tier, a, b, join_attrs[e])?,
        };
    }
    Ok(weight)
}

/// `p(TG)`: non-free instances only, folded in ascending vertex order (the
/// shared canonical order), each component from the graph's price cache on
/// the sample tier or its full-tier memo.
fn price_fold(
    graph: &JoinGraph,
    free: &FxHashSet<u32>,
    projections: &BTreeMap<u32, AttrSet>,
    full: Option<&FullTier>,
) -> Result<f64> {
    let mut price = 0.0;
    for (&v, attrs) in projections {
        if free.contains(&v) {
            continue;
        }
        price += match full {
            None => graph.price_for_eval(v, attrs, None)?,
            Some(tier) => graph.full_price(tier, v, attrs)?,
        };
    }
    Ok(price)
}

/// `CORR(AS, AT)` on the joined result: the plug-in value on full data.
/// Sample-tier estimates are shrunk by n/(n + 20): plug-in correlation is
/// inflated on tiny joins (few rows per conditioning group force
/// H(X|Y) → 0), which would make the search prefer sparse detours; the
/// shrink vanishes as the sampled join grows and applies uniformly to every
/// candidate the search compares.
fn eval_corr(
    joined: &Table,
    source_attrs: &AttrSet,
    target_attrs: &AttrSet,
    full_data: bool,
) -> Result<f64> {
    if joined.num_rows() == 0 {
        return Ok(0.0);
    }
    let raw = correlation_with(joined, source_attrs, target_attrs, CorrOptions::default())?;
    if full_data {
        return Ok(raw);
    }
    let n = joined.num_rows() as f64;
    Ok(raw * n / (n + 20.0))
}

/// Seed of [`EvalScope`]'s fingerprint (any fixed value works; it only
/// spreads keys over hash buckets and memo shards).
const EVAL_SCOPE_SEED: u64 = 0xE7A1_5C0B_E0F1_2345;

/// The part of an [`EvalKey`] one search fixes: everything
/// [`EvalEngine`] reads besides the per-edge candidate indices. Two scopes
/// compare equal field by field, so a memo hit is exact; only hashing goes
/// through the precomputed `fingerprint`, so a lookup hashes one word plus
/// the assignment instead of the covers and attribute sets.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct EvalScope {
    /// Stable hash of the fields below (compared first: a cheap reject).
    fingerprint: u64,
    /// Participating vertices, ascending: `(vertex, sample generation,
    /// member of free)`.
    vertices: Box<[(u32, u64, bool)]>,
    /// Tree edges in the given order: the order of the weight fold and of
    /// the tree join. Candidate indices refer to these edges' candidate
    /// lists, which are fixed for the graph's lifetime.
    tree_edges: Box<[(u32, u32)]>,
    source_cover: Cover,
    target_cover: Cover,
    source_attrs: AttrSet,
    target_attrs: AttrSet,
    /// §3.2 re-sampling as `(η, rate bits, seed)`, `None` when off.
    resample: Option<(usize, u64, u64)>,
    /// AFD settings as `(θ bits, max_lhs, max_attrs)`.
    tane: (u64, usize, usize),
}

impl Hash for EvalScope {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

impl EvalScope {
    /// `true` iff instance `i` participates — the entries refresh and delta
    /// upkeep sweep for `i`.
    pub(crate) fn touches(&self, i: u32) -> bool {
        self.vertices
            .binary_search_by_key(&i, |&(v, _, _)| v)
            .is_ok()
    }
}

/// Graph-wide evaluation-memo key: the search's [`EvalScope`] plus the
/// candidate index per tree edge.
pub(crate) type EvalKey = (Arc<EvalScope>, Box<[u32]>);

/// The incremental evaluation engine behind [`find_optimal_target_graph`].
///
/// Everything invariant across the walk is computed once at construction:
/// the participating vertex order (and its position map), the candidate
/// list per edge, and the memo scope. Per evaluation, whole
/// [`TargetGraph`]s come from the graph's evaluation memo keyed by scope and
/// assignment (as candidate indices), hop selections from its
/// [`PairSel`](dance_relation::PairSel) cache, projected tables and prices
/// from its projection cache — so a state any search on the graph already
/// evaluated costs one hash lookup, and a fresh state re-probes only hops no
/// cached selection covers.
///
/// Weight and price are folded from cached per-component values (a
/// Property 4.1 lookup per edge, a cached price per vertex): a proposal only
/// recomputes the flipped edge's components, but the final folds always run
/// over all components in the reference's canonical order (edge order /
/// vertex order), keeping every sum bit-equal to a fresh
/// [`evaluate_assignment`].
pub(crate) struct EvalEngine<'a> {
    graph: &'a JoinGraph,
    free: &'a FxHashSet<u32>,
    /// Candidate join sets per edge, fetched once before the walk.
    cands: Vec<&'a [AttrSet]>,
    resample: Option<&'a ResampleConfig>,
    tane: &'a TaneConfig,
    /// Participating vertices, ascending (= the reference's projection
    /// iteration order).
    vertices: Vec<u32>,
    /// vertex id → position in `vertices` (the prebuilt index map).
    pos: FxHashMap<u32, usize>,
    /// This search's half of every memo key, and the engine's copy of its
    /// tree edges, covers and request attributes. Safe to share across
    /// chains, searches and requests because a [`TargetGraph`] is a pure
    /// function of the full key (§3.2 re-sampling seeds derive from the
    /// composed selection, not the walk RNG) — a hit is bit-identical to a
    /// local recomputation.
    scope: Arc<EvalScope>,
    /// `(edge, candidate index, probe base)` → the graph's cached pair
    /// selection, held locally so repeat hops skip the graph lock *and* the
    /// attr-set key clone. Entries are `Arc` handles into
    /// [`JoinGraph::pair_sel`]'s cache (samples are immutable behind
    /// `&JoinGraph` for the walk's lifetime, so a handle can never go
    /// stale), and the table shares the graph's `sel_cache_cap` bound so the
    /// one knob also limits the pair selections a walk keeps resident.
    pair_handles: StampedLru<(usize, u32, usize), Arc<dance_relation::PairSel>>,
}

impl<'a> EvalEngine<'a> {
    #[allow(clippy::too_many_arguments)] // mirrors evaluate_assignment's surface
    fn new(
        graph: &'a JoinGraph,
        free: &'a FxHashSet<u32>,
        tree_edges: &'a [(u32, u32)],
        cands: Vec<&'a [AttrSet]>,
        source_cover: &'a Cover,
        target_cover: &'a Cover,
        source_attrs: &'a AttrSet,
        target_attrs: &'a AttrSet,
        cfg: &'a McmcConfig,
    ) -> Result<EvalEngine<'a>> {
        let mut vs: FxHashSet<u32> = FxHashSet::default();
        for &(a, b) in tree_edges {
            vs.insert(a);
            vs.insert(b);
        }
        for v in source_cover.keys().chain(target_cover.keys()) {
            vs.insert(*v);
        }
        if vs.is_empty() {
            return Err(RelationError::Shape("empty target graph".into()));
        }
        let mut vertices: Vec<u32> = vs.into_iter().collect();
        vertices.sort_unstable();
        let pos: FxHashMap<u32, usize> =
            vertices.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut scope = EvalScope {
            fingerprint: 0,
            vertices: vertices
                .iter()
                .map(|&v| (v, graph.sample_gen(v), free.contains(&v)))
                .collect(),
            tree_edges: tree_edges.into(),
            source_cover: source_cover.clone(),
            target_cover: target_cover.clone(),
            source_attrs: source_attrs.clone(),
            target_attrs: target_attrs.clone(),
            resample: cfg
                .resample
                .as_ref()
                .map(|r| (r.eta, r.rate.to_bits(), r.seed)),
            tane: (
                cfg.tane.error_threshold.to_bits(),
                cfg.tane.max_lhs,
                cfg.tane.max_attrs,
            ),
        };
        scope.fingerprint = stable_hash64(
            EVAL_SCOPE_SEED,
            &(
                &scope.vertices,
                &scope.tree_edges,
                &scope.source_cover,
                &scope.target_cover,
                &scope.source_attrs,
                &scope.target_attrs,
                scope.resample,
                scope.tane,
            ),
        );
        Ok(EvalEngine {
            graph,
            free,
            cands,
            resample: cfg.resample.as_ref(),
            tane: &cfg.tane,
            vertices,
            pos,
            scope: Arc::new(scope),
            pair_handles: StampedLru::new(graph.sel_cache_cap()),
        })
    }

    /// Evaluate one assignment (candidate index per edge) into a
    /// [`TargetGraph`], bit-identical to [`evaluate_assignment`] over the
    /// resolved attribute sets.
    fn evaluate(&mut self, idxs: &[u32]) -> Result<Arc<TargetGraph>> {
        let key: EvalKey = (Arc::clone(&self.scope), Box::from(idxs));
        if let Some(tg) = self.graph.eval_memo.get(&key) {
            return Ok(tg);
        }
        let scope = &*key.0;
        let join_attrs: Vec<&AttrSet> = idxs
            .iter()
            .zip(&self.cands)
            .map(|(&i, c)| &c[i as usize])
            .collect();

        // The reference's exact construction and folds, over cached
        // components (only the flipped edge's components recompute; the
        // folds re-run in canonical order, so every sum is bit-equal).
        let projections = projection_sets(
            self.vertices.iter().copied(),
            &scope.tree_edges,
            &join_attrs,
            &scope.source_cover,
            &scope.target_cover,
        )?;
        let weight = weight_fold(self.graph, &scope.tree_edges, &join_attrs, None)?;
        let price = price_fold(self.graph, self.free, &projections, None)?;

        // Join the projected instances along the tree, sourcing every hop
        // whose probe key lives in one base table from the graph's selection
        // cache (a flipped edge only misses on its own hop).
        let projected: Vec<Arc<Table>> = self
            .vertices
            .iter()
            .map(|&v| self.graph.projected_for_eval(v, &projections[&v], None))
            .collect::<Result<Vec<_>>>()?;
        let refs: Vec<&Table> = projected.iter().map(Arc::as_ref).collect();
        let joined_owned: Option<Table> = if scope.tree_edges.is_empty() {
            None
        } else {
            let edges: Vec<JoinEdge> = scope
                .tree_edges
                .iter()
                .zip(&join_attrs)
                .map(|(&(a, b), on)| JoinEdge {
                    a: self.pos[&a],
                    b: self.pos[&b],
                    on: (*on).clone(),
                })
                .collect();
            let mut tj = TreeJoin::new(&refs, &edges)?;
            let mut hook = BoundedHook::new(self.resample);
            while let Some(hop) = tj.next_hop()? {
                match hop.key_base {
                    Some(kb) => {
                        let key = (hop.edge, idxs[hop.edge], kb);
                        let pair = match self.pair_handles.get(&key) {
                            Some(p) => Arc::clone(p),
                            None => {
                                let p = self.graph.pair_sel(
                                    self.vertices[kb],
                                    self.vertices[hop.right],
                                    hop.on,
                                )?;
                                self.pair_handles.insert(key, Arc::clone(&p));
                                p
                            }
                        };
                        tj.advance_with_pair(&hop, &pair)?;
                    }
                    None => tj.advance(&hop)?,
                }
                tj.map_sel(|s| hook.apply(s));
            }
            Some(tj.materialize()?)
        };
        let joined: &Table = joined_owned.as_ref().unwrap_or_else(|| &projected[0]);

        let corr = eval_corr(joined, &scope.source_attrs, &scope.target_attrs, false)?;
        let quality = dance_quality::joint::instance_set_quality(joined, self.tane)?;

        let tg = Arc::new(TargetGraph {
            tree_edges: scope.tree_edges.to_vec(),
            join_attrs: join_attrs.into_iter().cloned().collect(),
            projections,
            corr,
            weight,
            quality,
            price,
        });
        self.graph.eval_memo.insert(key, Arc::clone(&tg));
        Ok(tg)
    }
}

/// Algorithm 1: find the optimal target graph at the AS-layer of `ig`.
///
/// Returns the best constraint-satisfying state visited, or `None` when no
/// visited state satisfied the constraints. Proposals evaluate through the
/// incremental engine (see the module docs). [`McmcConfig::chains`] = N runs
/// N seeded walks in chain order through one engine and keeps the first
/// strict correlation maximum; chain 0 uses the base seed verbatim, so a
/// single chain is exactly the seeded walk.
#[allow(clippy::too_many_arguments)]
pub fn find_optimal_target_graph(
    graph: &JoinGraph,
    free: &FxHashSet<u32>,
    tree_edges: &[(u32, u32)],
    source_cover: &Cover,
    target_cover: &Cover,
    source_attrs: &AttrSet,
    target_attrs: &AttrSet,
    constraints: &Constraints,
    cfg: &McmcConfig,
) -> Result<Option<TargetGraph>> {
    // Candidate join sets, fetched once per edge before the walk.
    let mut cands: Vec<&[AttrSet]> = Vec::with_capacity(tree_edges.len());
    for &(a, b) in tree_edges {
        let c = graph.candidate_join_sets(a, b);
        if c.is_empty() {
            return Err(RelationError::InvalidJoin(format!(
                "no join candidates between instances {a} and {b}"
            )));
        }
        cands.push(c);
    }

    // Initial assignment: the minimum-weight candidate per edge (the same
    // choice Definition 4.2 uses for I-edge weights; first minimum on ties,
    // as `min_by` with `total_cmp` resolved them).
    let assignment: Vec<u32> = cands
        .iter()
        .zip(tree_edges)
        .map(|(c, &(a, b))| {
            let mut best = 0usize;
            let mut best_w = f64::INFINITY;
            for (i, cand) in c.iter().enumerate() {
                let w = graph.weight(a, b, cand).unwrap_or(f64::INFINITY);
                if w.total_cmp(&best_w) == std::cmp::Ordering::Less {
                    best_w = w;
                    best = i;
                }
            }
            best as u32
        })
        .collect();

    let mut engine = EvalEngine::new(
        graph,
        free,
        tree_edges,
        cands.clone(),
        source_cover,
        target_cover,
        source_attrs,
        target_attrs,
        cfg,
    )?;
    // Best-of-N in chain order; strictly-greater keeps ties on the lowest
    // chain.
    let mut best: Option<TargetGraph> = None;
    for k in 0..cfg.chains.max(1) {
        let found = walk_chain(
            &mut |idxs: &[u32]| engine.evaluate(idxs),
            &cands,
            &assignment,
            constraints,
            cfg.iterations,
            &mut StdRng::seed_from_u64(chain_seed(cfg.seed, k)),
        )?;
        if let Some(tg) = found {
            if best.as_ref().is_none_or(|b| tg.corr > b.corr) {
                best = Some(tg);
            }
        }
    }
    Ok(best)
}

/// The Metropolis walk itself (Algorithm 1 lines 4–13), generic over the
/// evaluation path, accepting with the paper's `min(1, CORR'/CORR)`. States
/// are shared `Arc` handles (memo hits clone no metrics); only the returned
/// best is unwrapped.
fn walk_chain(
    evaluate: &mut impl FnMut(&[u32]) -> Result<Arc<TargetGraph>>,
    cands: &[&[AttrSet]],
    initial: &[u32],
    constraints: &Constraints,
    iterations: usize,
    rng: &mut StdRng,
) -> Result<Option<TargetGraph>> {
    let mut assignment = initial.to_vec();
    let mut current = evaluate(&assignment)?;
    let mut best: Option<Arc<TargetGraph>> = current.admits(constraints).then(|| current.clone());
    if cands.is_empty() {
        return Ok(best.map(Arc::unwrap_or_clone));
    }

    for _ in 0..iterations {
        // Line 5–6: random edge, random different candidate. Candidates are
        // distinct, so "a different candidate" is a draw over k − 1 indices
        // skipping the current one — the same distribution (and the same RNG
        // consumption) as the retired filtered-Vec scheme, without the
        // per-iteration allocation.
        let e = rng.random_range(0..cands.len());
        let k = cands[e].len();
        if k <= 1 {
            continue;
        }
        let draw = rng.random_range(0..k - 1);
        let pick = if draw >= assignment[e] as usize {
            draw + 1
        } else {
            draw
        };
        let mut proposal_assign = assignment.clone();
        proposal_assign[e] = pick as u32;
        let proposal = evaluate(&proposal_assign)?;

        // Line 8: constraint gate.
        if !proposal.admits(constraints) {
            continue;
        }
        // Line 9: Metropolis acceptance on correlation.
        let ratio = proposal.corr / current.corr.max(1e-12);
        if ratio >= 1.0 || rng.random::<f64>() < ratio {
            assignment = proposal_assign;
            current = proposal;
            // Line 11–13: track the best accepted state.
            if best.as_ref().is_none_or(|b| current.corr > b.corr) {
                best = Some(current.clone());
            }
        }
    }
    Ok(best.map(Arc::unwrap_or_clone))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_graph::JoinGraphConfig;
    use dance_market::{DatasetId, DatasetMeta, EntropyPricing};
    use dance_relation::{Executor, Table, Value, ValueType};

    /// Two instances sharing two possible join attributes:
    /// `mc_good` (correlation-preserving) and `mc_noise` (correlation-killing).
    fn two_key_graph() -> JoinGraph {
        let n = 240;
        let left: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i % 12),                 // mc_good
                    Value::Int(i % 5),                  // mc_noise
                    Value::str(format!("s{}", i % 12)), // mc_src (determined by mc_good)
                ]
            })
            .collect();
        let right: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i % 12),
                    Value::Int((i * 7 + 3) % 5),
                    Value::str(format!("t{}", i % 12)), // mc_tgt (determined by mc_good)
                ]
            })
            .collect();
        let lt = Table::from_rows(
            "L",
            &[
                ("mc_good", ValueType::Int),
                ("mc_noise", ValueType::Int),
                ("mc_src", ValueType::Str),
            ],
            left,
        )
        .unwrap();
        let rt = Table::from_rows(
            "R",
            &[
                ("mc_good", ValueType::Int),
                ("mc_noise", ValueType::Int),
                ("mc_tgt", ValueType::Str),
            ],
            right,
        )
        .unwrap();
        let metas = vec![
            DatasetMeta {
                id: DatasetId(0),
                name: "L".into(),
                schema: lt.schema().clone(),
                num_rows: lt.num_rows(),
                default_key: AttrSet::from_names(["mc_good"]),
                version: 0,
            },
            DatasetMeta {
                id: DatasetId(1),
                name: "R".into(),
                schema: rt.schema().clone(),
                num_rows: rt.num_rows(),
                default_key: AttrSet::from_names(["mc_good"]),
                version: 0,
            },
        ];
        JoinGraph::build(
            metas,
            vec![lt, rt],
            EntropyPricing::default(),
            &JoinGraphConfig::default(),
        )
        .unwrap()
    }

    fn covers() -> (Cover, Cover) {
        let mut sc = Cover::new();
        sc.insert(0, AttrSet::from_names(["mc_src"]));
        let mut tc = Cover::new();
        tc.insert(1, AttrSet::from_names(["mc_tgt"]));
        (sc, tc)
    }

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
    fn evaluation_produces_consistent_metrics() {
        let g = two_key_graph();
        let (sc, tc) = covers();
        let tg = evaluate_assignment(
            &g,
            &FxHashSet::default(),
            &[(0, 1)],
            &[AttrSet::from_names(["mc_good"])],
            &sc,
            &tc,
            &AttrSet::from_names(["mc_src"]),
            &AttrSet::from_names(["mc_tgt"]),
            None,
            None,
            &TaneConfig::default(),
        )
        .unwrap();
        assert!(tg.corr > 0.0);
        assert!((0.0..=1.0).contains(&tg.weight));
        assert!((0.0..=1.0).contains(&tg.quality));
        assert!(tg.price > 0.0);
        // Projections include join + contributed attrs.
        assert!(tg.projections[&0].contains(dance_relation::attr("mc_good")));
        assert!(tg.projections[&0].contains(dance_relation::attr("mc_src")));
        assert!(tg.projections[&1].contains(dance_relation::attr("mc_tgt")));
    }

    #[test]
    fn free_instances_cost_nothing() {
        let g = two_key_graph();
        let (sc, tc) = covers();
        let mut free = FxHashSet::default();
        free.insert(0u32);
        let paid = evaluate_assignment(
            &g,
            &FxHashSet::default(),
            &[(0, 1)],
            &[AttrSet::from_names(["mc_good"])],
            &sc,
            &tc,
            &AttrSet::from_names(["mc_src"]),
            &AttrSet::from_names(["mc_tgt"]),
            None,
            None,
            &TaneConfig::default(),
        )
        .unwrap();
        let with_free = evaluate_assignment(
            &g,
            &free,
            &[(0, 1)],
            &[AttrSet::from_names(["mc_good"])],
            &sc,
            &tc,
            &AttrSet::from_names(["mc_src"]),
            &AttrSet::from_names(["mc_tgt"]),
            None,
            None,
            &TaneConfig::default(),
        )
        .unwrap();
        assert!(with_free.price < paid.price);
        assert!(with_free.price > 0.0, "instance 1 still paid");
    }

    #[test]
    fn mcmc_finds_the_correlating_join_attribute() {
        let g = two_key_graph();
        let (sc, tc) = covers();
        let best = find_optimal_target_graph(
            &g,
            &FxHashSet::default(),
            &[(0, 1)],
            &sc,
            &tc,
            &AttrSet::from_names(["mc_src"]),
            &AttrSet::from_names(["mc_tgt"]),
            &Constraints::unbounded(),
            &McmcConfig {
                iterations: 60,
                seed: 5,
                resample: None,
                ..McmcConfig::default()
            },
        )
        .unwrap()
        .expect("unconstrained search finds something");
        // Joining on mc_good keeps src↔tgt correlation (both determined by
        // the key); joining on mc_noise destroys it.
        assert!(
            best.join_attrs[0].contains(dance_relation::attr("mc_good")),
            "best join attrs: {}",
            best.join_attrs[0]
        );
        assert!(best.corr > 1.0, "corr = {}", best.corr);
    }

    #[test]
    fn constraints_filter_results() {
        let g = two_key_graph();
        let (sc, tc) = covers();
        let impossible = Constraints {
            alpha: f64::INFINITY,
            beta: 0.0,
            budget: 1e-9, // nothing is this cheap
        };
        let r = find_optimal_target_graph(
            &g,
            &FxHashSet::default(),
            &[(0, 1)],
            &sc,
            &tc,
            &AttrSet::from_names(["mc_src"]),
            &AttrSet::from_names(["mc_tgt"]),
            &impossible,
            &McmcConfig {
                iterations: 30,
                seed: 5,
                resample: None,
                ..McmcConfig::default()
            },
        )
        .unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = two_key_graph();
        let (sc, tc) = covers();
        let run = |seed| {
            find_optimal_target_graph(
                &g,
                &FxHashSet::default(),
                &[(0, 1)],
                &sc,
                &tc,
                &AttrSet::from_names(["mc_src"]),
                &AttrSet::from_names(["mc_tgt"]),
                &Constraints::unbounded(),
                &McmcConfig {
                    iterations: 40,
                    seed,
                    resample: None,
                    ..McmcConfig::default()
                },
            )
            .unwrap()
            .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.join_attrs, b.join_attrs);
        assert!((a.corr - b.corr).abs() < 1e-12);
    }

    mod search_catalog {
        include!("../tests/support/search_catalog.rs");
    }

    /// Bit-exact equality of two evaluated states.
    fn assert_same_state(a: &TargetGraph, b: &TargetGraph) {
        assert_eq!(a.tree_edges, b.tree_edges);
        assert_eq!(a.join_attrs, b.join_attrs);
        assert_eq!(a.projections, b.projections);
        for (x, y, what) in [
            (a.corr, b.corr, "corr"),
            (a.weight, b.weight, "weight"),
            (a.quality, b.quality, "quality"),
            (a.price, b.price, "price"),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} diverged: {x} vs {y}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Every state a seeded walk visits — accepted or not — evaluates
        /// bit-identically through the incremental engine and through the
        /// fresh `evaluate_assignment` reference, on randomized typed/NULL
        /// catalogs: at graph-configured memo caps {0, 1, 512}, cold and
        /// warm evaluation caches, executors {1, 4}, with and without §3.2
        /// re-sampling (a tiny η forces `TreeSel::retain` on the composed
        /// selection).
        #[test]
        fn engine_matches_reference_on_every_visited_state(
            catalog in search_catalog::arb_search_catalog(),
            seed in 0u64..1000,
            resample_on in 0u64..2,
        ) {
            let (metas, samples) = catalog;
            let tree_edges = [(0u32, 1u32), (1, 2)];
            let mut sc = Cover::new();
            sc.insert(0, AttrSet::from_names(["sc_src"]));
            let mut tc = Cover::new();
            tc.insert(2, AttrSet::from_names(["sc_tgt"]));
            let source = AttrSet::from_names(["sc_src"]);
            let target = AttrSet::from_names(["sc_tgt"]);
            let free = FxHashSet::default();
            let cfg = McmcConfig {
                iterations: 30,
                seed,
                resample: (resample_on == 1).then_some(ResampleConfig {
                    eta: 16,
                    rate: 0.5,
                    seed: seed ^ 7,
                }),
                ..McmcConfig::default()
            };
            for threads in [1usize, 4] {
                for memo_cap in [0usize, 1, 512] {
                    let graph = JoinGraph::build(
                        metas.clone(),
                        samples.clone(),
                        EntropyPricing::default(),
                        &JoinGraphConfig {
                            executor: Executor::new(threads),
                            eval_memo_cap: memo_cap,
                            ..JoinGraphConfig::default()
                        },
                    )
                    .unwrap();
                    let cands: Vec<&[AttrSet]> = tree_edges
                        .iter()
                        .map(|&(a, b)| graph.candidate_join_sets(a, b))
                        .collect();
                    // Cold evaluation caches first, then warm ones.
                    for _ in 0..2 {
                        let mut engine = EvalEngine::new(
                            &graph, &free, &tree_edges, cands.clone(), &sc, &tc, &source,
                            &target, &cfg,
                        )
                        .unwrap();
                        let mut visited = 0;
                        let mut evaluate = |idxs: &[u32]| -> Result<Arc<TargetGraph>> {
                            let tg = engine.evaluate(idxs)?;
                            let attrs: Vec<AttrSet> = idxs
                                .iter()
                                .zip(&cands)
                                .map(|(&i, c)| c[i as usize].clone())
                                .collect();
                            let reference = evaluate_assignment(
                                &graph, &free, &tree_edges, &attrs, &sc, &tc, &source, &target,
                                None, cfg.resample.as_ref(), &cfg.tane,
                            )?;
                            assert_same_state(&tg, &reference);
                            visited += 1;
                            Ok(tg)
                        };
                        walk_chain(
                            &mut evaluate,
                            &cands,
                            &[0, 0],
                            &Constraints::unbounded(),
                            cfg.iterations,
                            &mut StdRng::seed_from_u64(seed),
                        )
                        .unwrap();
                        // Every edge has 3 candidates, so every iteration
                        // proposes (and checks) one state.
                        proptest::prop_assert_eq!(visited, cfg.iterations + 1);
                        proptest::prop_assert!(graph.eval_memo_len() <= memo_cap);
                    }
                    proptest::prop_assert!(graph.sel_cache_len() > 0, "selection cache populated");
                    proptest::prop_assert!(graph.proj_cache_len() > 0, "projection cache populated");
                    // The warm walk revisits only states the cold one
                    // memoized: with room for all 9 states it never misses.
                    let (hits, misses) = graph.eval_memo_stats();
                    proptest::prop_assert_eq!(hits + misses, 2 * (cfg.iterations as u64 + 1));
                    if memo_cap == 512 {
                        proptest::prop_assert!(misses <= 9, "{} misses", misses);
                    }
                    // A clear brings back the cold path: the memo, too.
                    graph.clear_eval_caches();
                    proptest::prop_assert_eq!(
                        graph.eval_memo_len() + graph.sel_cache_len() + graph.proj_cache_len(),
                        0
                    );
                }
            }
        }
    }

    #[test]
    fn mismatched_assignment_length_rejected() {
        let g = two_key_graph();
        let (sc, tc) = covers();
        let r = evaluate_assignment(
            &g,
            &FxHashSet::default(),
            &[(0, 1)],
            &[],
            &sc,
            &tc,
            &AttrSet::from_names(["mc_src"]),
            &AttrSet::from_names(["mc_tgt"]),
            None,
            None,
            &TaneConfig::default(),
        );
        assert!(r.is_err());
    }
}
