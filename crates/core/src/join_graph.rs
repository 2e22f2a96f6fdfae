//! The two-layer join graph (Definition 4.2, Property 4.1).
//!
//! * **I-layer**: one vertex per marketplace instance; an I-edge wherever two
//!   instances share at least one attribute name. The I-edge weight is the
//!   minimum AS-edge weight across all candidate join attribute sets.
//! * **AS-layer**: never materialized. Property 4.1 says all AS-edges between
//!   the same pair of instances with the same join attribute set `J` share
//!   one weight — so the whole AS-layer's edge structure collapses into a map
//!   `(i, j, J) → JI` keyed by the pair and `J`, sized by the number of
//!   *shared*-attribute subsets rather than `2^m` lattice vertices.
//!
//! All weights are §3 estimates from the samples the offline phase bought;
//! AS-vertex prices are estimated from the same samples via the marketplace's
//! (public) pricing model.
//!
//! ## Parallel construction
//!
//! Edge weights come from one re-weigh round over a set of I-edges: first
//! one histogram task per distinct (instance, candidate-join-set) the cache
//! does not hold, then one JI task per (instance-pair, candidate-join-set).
//! Each task runs its counting kernel sequentially inside its worker;
//! results are folded back in the sequential enumeration order, so the
//! produced edges and weights are identical at every thread count.
//! [`JoinGraph::build`] runs the round on every edge and
//! [`JoinGraph::refresh_sample`] on the edges incident to the refreshed
//! instance, both fanned out across the [`Executor`] threaded in through
//! [`JoinGraphConfig`]: they recount whole sample histograms, which is the
//! only work here that pays for spawning threads. [`JoinGraph::apply_delta`]
//! runs the round on the calling thread, since it only folds patched
//! histograms. Refresh and delta rounds draw partner-side histograms from
//! the persistent cache instead of recounting partner samples. Eviction
//! is two-fold: an instance's entries are dropped when its sample is replaced
//! (staleness), and the cache is stamped-LRU bounded by
//! [`JoinGraphConfig::hist_cache_cap`] total entries (memory bound) —
//! evicted histograms are simply recounted on the next round that needs
//! them.
//!
//! ## Interned symbols
//!
//! Histograms are [`SymCounts`]: keys are interned-symbol word vectors, not
//! materialized value tuples. Samples of registry-interned catalogs
//! (`dance_relation::InternerRegistry`) share per-attribute dictionaries, so
//! the JI folds compare dictionary codes verbatim; catalogs with private
//! dictionaries degrade to a per-distinct-value symbol translation inside
//! [`ji_from_sym_counts`]. Either way no boxed key is built anywhere in
//! `build`/`refresh_sample`.

use crate::cache::{ShardedLru, StampedLru};
use crate::full_tier::FullKey;
use crate::mcmc::{EvalKey, TargetGraph};
use dance_info::ji::{ji_from_sym_counts, PairPartials};
use dance_market::{DatasetMeta, EntropyPricing, PricingModel};
use dance_relation::sym::MAX_SYM_KEY_ATTRS;
use dance_relation::{
    pair_sel, sym_counts, AttrSet, Executor, FxHashMap, PairSel, RelationError, Result, SymCounts,
    Table,
};
use std::sync::Arc;

/// Default total-entry bound of the persistent histogram cache.
pub const DEFAULT_HIST_CACHE_CAP: usize = 1024;

/// Default bound on cached per-hop pair selections ([`JoinGraph::pair_sel`]).
pub const DEFAULT_SEL_CACHE_CAP: usize = 256;

/// Default bound on cached per-(instance, attr-set) projections + prices
/// ([`JoinGraph::projected_for_eval`] / [`JoinGraph::price_for_eval`]).
pub const DEFAULT_PROJ_CACHE_CAP: usize = 256;

/// Default bound on materialized per-pair-category partial-sum tables
/// (`apply_delta`'s incident-edge JI maintenance state).
pub const DEFAULT_PARTIALS_CACHE_CAP: usize = 256;

/// Default bound on the graph-wide MCMC evaluation memo
/// ([`JoinGraph::eval_memo_len`]).
pub const DEFAULT_EVAL_MEMO_CAP: usize = 512;

/// Construction knobs for [`JoinGraph::build`].
#[derive(Debug, Clone, Copy)]
pub struct JoinGraphConfig {
    /// Enumerate every non-empty subset of a shared attribute set as a join
    /// candidate while the shared set has at most this many attributes;
    /// larger shared sets fall back to singletons + the full set. Candidates
    /// wider than a symbol key ([`MAX_SYM_KEY_ATTRS`]) are skipped.
    pub max_enum_join_attrs: usize,
    /// Executor the build/refresh fan-outs run on (defaults to
    /// [`Executor::global`], i.e. `DANCE_THREADS`). Stored in the graph so
    /// refinement rounds reuse it.
    pub executor: Executor,
    /// Upper bound on *total* cached histograms across all instances
    /// (stamped-LRU; 0 disables). Without a bound the cache holds every
    /// (instance, candidate-set) histogram ever probed — the build-time peak
    /// made permanent.
    pub hist_cache_cap: usize,
    /// Upper bound on cached per-hop pair selections (the MCMC search's
    /// selection cache, stamped-LRU like the histogram cache; 0 disables).
    pub sel_cache_cap: usize,
    /// Upper bound on cached sample projections / price estimates per
    /// (instance, attribute set) (stamped-LRU; 0 disables). The full-tier
    /// memo of exact prices and edge JIs ([`JoinGraph::full_price`],
    /// [`JoinGraph::full_ji`]) has its own entries under the same bound.
    pub proj_cache_cap: usize,
    /// Upper bound on the materialized per-pair-category partial-sum tables
    /// `apply_delta` maintains for O(changed categories) incident-edge JI
    /// updates (stamped-LRU; 0 disables). An evicted pair transparently falls
    /// back to the patched-histogram fold — same bits, more work per delta.
    pub partials_cache_cap: usize,
    /// Upper bound on the evaluation memo every MCMC search on the graph
    /// shares: fully evaluated target graphs per (search scope, assignment)
    /// (stamped-LRU; 0 disables memoization — the selection and projection
    /// caches still apply).
    pub eval_memo_cap: usize,
}

impl Default for JoinGraphConfig {
    fn default() -> Self {
        JoinGraphConfig {
            max_enum_join_attrs: 4,
            executor: Executor::global(),
            hist_cache_cap: DEFAULT_HIST_CACHE_CAP,
            sel_cache_cap: DEFAULT_SEL_CACHE_CAP,
            proj_cache_cap: DEFAULT_PROJ_CACHE_CAP,
            partials_cache_cap: DEFAULT_PARTIALS_CACHE_CAP,
            eval_memo_cap: DEFAULT_EVAL_MEMO_CAP,
        }
    }
}

/// An I-layer edge.
#[derive(Debug, Clone)]
pub struct IEdge {
    /// Endpoint instance indices (`a < b`).
    pub a: u32,
    /// Second endpoint.
    pub b: u32,
    /// Shared attribute names `AS(v_a) ∩ AS(v_b)`.
    pub common: AttrSet,
    /// `min_J` of the candidate AS-edge weights (Definition 4.2's I-weight).
    pub weight: f64,
}

/// The two-layer join graph built from samples.
#[derive(Debug)]
pub struct JoinGraph {
    pub(crate) metas: Vec<DatasetMeta>,
    pub(crate) samples: Vec<Table>,
    pub(crate) i_edges: Vec<IEdge>,
    /// Adjacency: vertex → indices into `i_edges`.
    pub(crate) adj: Vec<Vec<u32>>,
    /// Property 4.1 weight table: (min(i,j), max(i,j), J) → estimated JI.
    pub(crate) weights: FxHashMap<(u32, u32, AttrSet), f64>,
    /// Candidate join attribute sets per edge (aligned with `i_edges`).
    pub(crate) candidates: Vec<Vec<AttrSet>>,
    pricing: EntropyPricing,
    /// Executor the build ran on; refresh fan-outs reuse it.
    pub(crate) exec: Executor,
    /// Histogram cache: `(instance, candidate join set) → SymCounts` of that
    /// instance's sample, one entry per candidate recently probed. Evicted on
    /// staleness (an instance's entries drop when its sample is refreshed —
    /// delta updates instead *patch* them, see `JoinGraph::apply_delta`) and
    /// stamped-LRU bounded by [`JoinGraphConfig::hist_cache_cap`]. Entries
    /// are `Arc` handles, so a re-weigh round keeps every histogram it reads
    /// alive even when its own inserts evict them.
    pub(crate) hists: StampedLru<(u32, AttrSet), Arc<SymCounts>>,
    /// Per-instance sample **generation**: bumped every time instance `i`'s
    /// sample changes ([`Self::refresh_sample`] and `apply_delta` alike).
    /// Every evaluation-cache key (selection, projection/price, memo) embeds
    /// the generations of the instances it reads, so an entry built against
    /// a replaced sample can never be served again — staleness is
    /// structural, not swept.
    pub(crate) gens: Vec<u64>,
    /// Materialized per-pair-category partial sums for incident-edge JI
    /// re-weighing: `(a, b, J) → PairPartials` (directly-comparable pairs
    /// only). Filled lazily by `apply_delta`, patched from per-candidate
    /// change lists on later deltas, and dropped whenever a full refresh
    /// replaces either endpoint's sample. Stamped-LRU bounded by
    /// [`JoinGraphConfig::partials_cache_cap`]; an evicted pair is rebuilt
    /// from its patched histograms on the next delta that needs it (bit-equal
    /// to the maintained table, just O(histogram) instead of O(delta)).
    pub(crate) partials: StampedLru<(u32, u32, AttrSet), PairPartials>,
    /// Per-hop selection cache: `(probe instance, probe generation, build
    /// instance, build generation, join attrs) → PairSel` over the two
    /// samples. Filled through `&self` during the MCMC search and
    /// stamped-LRU bounded, sharded by key hash (one lock per shard) so
    /// concurrent chains share each other's selections instead of
    /// serializing on one lock. The embedded generations make stale entries
    /// unreachable the moment either side's sample changes;
    /// [`Self::refresh_sample`] additionally sweeps them out eagerly, while
    /// `apply_delta` *patches* them to the new generation instead.
    pub(crate) sel_cache: ShardedLru<SelKey, Arc<PairSel>>,
    /// Projection/price cache per `(instance, generation, attribute set)`:
    /// the projected sample table and its entropy-price estimate, each
    /// filled lazily by whichever evaluation path first needs it. Same
    /// sharding, bounding and staleness rules as `sel_cache`.
    pub(crate) proj_cache: ShardedLru<(u32, u64, AttrSet), ProjEntry>,
    /// The MCMC evaluation memo, shared by every search, chain and request
    /// on the graph: `(search scope, assignment) → TargetGraph` (see
    /// [`crate::mcmc`] for what the key holds). The scope embeds each
    /// participating vertex's generation, so an entry built against a
    /// replaced sample is unreachable; [`Self::refresh_sample`] and
    /// `apply_delta` also sweep the entries touching the changed instance,
    /// to free their memory. Same sharding and bounding as `sel_cache`.
    pub(crate) eval_memo: ShardedLru<EvalKey, Arc<TargetGraph>>,
    /// Full-tier scalars (exact entry prices and edge JIs on full tables),
    /// keyed by the listing versions they read (see [`crate::full_tier`]).
    /// A listing version names one immutable table, so no upkeep ever
    /// touches this memo: a seller update just stops hitting old keys,
    /// which age out. Same sharding as `proj_cache`, same bound.
    pub(crate) full_memo: ShardedLru<FullKey, f64>,
}

/// Selection-cache key: `(probe instance, probe generation, build instance,
/// build generation, join attrs)`.
pub(crate) type SelKey = (u32, u64, u32, u64, AttrSet);

/// One projection-cache entry; both fields fill in lazily. Cloning is two
/// `Option` copies (the table is an `Arc` handle), so the sharded cache's
/// clone-out reads stay cheap.
#[derive(Debug, Default, Clone)]
pub(crate) struct ProjEntry {
    table: Option<Arc<Table>>,
    price: Option<f64>,
}

impl JoinGraph {
    /// Build from per-instance metadata and samples (offline phase, §4).
    ///
    /// `metas[i]` must describe `samples[i]`. Weights are estimated JI values
    /// (Equation 6) computed directly on the samples.
    pub fn build(
        metas: Vec<DatasetMeta>,
        samples: Vec<Table>,
        pricing: EntropyPricing,
        cfg: &JoinGraphConfig,
    ) -> Result<JoinGraph> {
        if metas.len() != samples.len() {
            return Err(RelationError::Shape(format!(
                "{} metas vs {} samples",
                metas.len(),
                samples.len()
            )));
        }
        let n = metas.len();

        // Pair enumeration stays sequential (schema intersections are cheap);
        // it fixes the deterministic edge order every round folds into.
        let mut i_edges = Vec::new();
        let mut adj = vec![Vec::new(); n];
        let mut candidates = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let common = metas[i].schema.common(&metas[j].schema);
                if common.is_empty() {
                    continue;
                }
                let e = i_edges.len() as u32;
                candidates.push(candidate_sets(&common, cfg.max_enum_join_attrs));
                i_edges.push(IEdge {
                    a: i as u32,
                    b: j as u32,
                    common,
                    weight: f64::INFINITY,
                });
                adj[i].push(e);
                adj[j].push(e);
            }
        }
        let mut graph = JoinGraph {
            gens: vec![0; n],
            metas,
            samples,
            i_edges,
            adj,
            weights: FxHashMap::default(),
            candidates,
            pricing,
            exec: cfg.executor,
            hists: StampedLru::new(cfg.hist_cache_cap),
            partials: StampedLru::new(cfg.partials_cache_cap),
            sel_cache: ShardedLru::new(cfg.sel_cache_cap),
            proj_cache: ShardedLru::new(cfg.proj_cache_cap),
            eval_memo: ShardedLru::new(cfg.eval_memo_cap),
            full_memo: ShardedLru::new(cfg.proj_cache_cap),
        };
        let all: Vec<u32> = (0..graph.i_edges.len() as u32).collect();
        graph.reweigh(&all, cfg.executor)?;
        Ok(graph)
    }

    /// The histogram re-weigh round behind [`Self::build`],
    /// [`Self::refresh_sample`] and [`Self::apply_delta`]: estimate the JI of
    /// every candidate join set of `edges` and set each I-edge's weight to
    /// its minimum (Definition 4.2).
    ///
    /// The (instance, candidate) histograms the round reads are enumerated
    /// once each, in edge/candidate/side order. Cached ones are stamped;
    /// missing ones (a refreshed instance, or entries the cap evicted) are
    /// counted over `exec` and inserted. Candidate join sets repeat heavily
    /// across partners (every pair sharing an attribute probes its
    /// singleton), so each distinct histogram is one task and every incident
    /// edge reads the shared result. One JI task per (edge, candidate) then
    /// folds either the maintained [`PairPartials`] table (delta upkeep) or
    /// the two histograms — identical bits either way. `par_map` returns in
    /// item order, so weights are identical at every thread count.
    pub(crate) fn reweigh(&mut self, edges: &[u32], exec: Executor) -> Result<()> {
        let mut slots: FxHashMap<(u32, AttrSet), usize> = FxHashMap::default();
        let mut keys: Vec<(u32, AttrSet)> = Vec::new();
        let mut handles: Vec<Option<Arc<SymCounts>>> = Vec::new();
        let mut items: Vec<(u32, u32, usize, usize)> = Vec::new();
        for &e in edges {
            let edge = &self.i_edges[e as usize];
            for (c, cand) in self.candidates[e as usize].iter().enumerate() {
                let [sa, sb] = [edge.a, edge.b].map(|side| {
                    *slots.entry((side, cand.clone())).or_insert_with_key(|key| {
                        handles.push(self.hists.get(key).cloned());
                        keys.push(key.clone());
                        keys.len() - 1
                    })
                });
                items.push((e, c as u32, sa, sb));
            }
        }

        let needed: Vec<usize> = (0..handles.len())
            .filter(|&s| handles[s].is_none())
            .collect();
        let counted: Vec<SymCounts> = exec
            .par_map(&needed, |_, &s| {
                let (side, cand) = &keys[s];
                sym_counts(&self.samples[*side as usize], cand)
            })
            .into_iter()
            .collect::<Result<_>>()?;
        for (s, hist) in needed.into_iter().zip(counted) {
            let hist = Arc::new(hist);
            self.hists.insert(keys[s].clone(), Arc::clone(&hist));
            handles[s] = Some(hist);
        }
        let handles: Vec<Arc<SymCounts>> = handles
            .into_iter()
            .map(|h| h.expect("every missing histogram was just counted"))
            .collect();

        let jis: Vec<f64> = exec.par_map(&items, |_, &(e, c, sa, sb)| {
            let edge = &self.i_edges[e as usize];
            let cand = &self.candidates[e as usize][c as usize];
            match self.partials.peek(&(edge.a, edge.b, cand.clone())) {
                Some(p) => p.ji(),
                None => ji_from_sym_counts(&handles[sa], &handles[sb]),
            }
        });
        let mut jis = jis.into_iter();
        for &e in edges {
            let edge = &mut self.i_edges[e as usize];
            edge.weight = f64::INFINITY;
            for cand in &self.candidates[e as usize] {
                let w = jis.next().expect("one JI per (edge, candidate)");
                self.weights.insert((edge.a, edge.b, cand.clone()), w);
                edge.weight = edge.weight.min(w);
            }
        }
        Ok(())
    }

    /// `UnknownDataset` unless `i` is an instance of this graph — checked
    /// before an update touches any state.
    pub(crate) fn check_instance(&self, i: u32) -> Result<()> {
        if (i as usize) < self.samples.len() {
            Ok(())
        } else {
            Err(RelationError::UnknownDataset(format!(
                "instance {i} of a {}-instance join graph",
                self.samples.len()
            )))
        }
    }

    /// Total histograms currently held by the persistent cache (bounded by
    /// [`JoinGraphConfig::hist_cache_cap`]).
    pub fn hist_cache_len(&self) -> usize {
        self.hists.len()
    }

    /// Number of I-vertices.
    pub fn num_instances(&self) -> usize {
        self.metas.len()
    }

    /// Instance metadata.
    pub fn meta(&self, i: u32) -> &DatasetMeta {
        &self.metas[i as usize]
    }

    /// All metadata.
    pub fn metas(&self) -> &[DatasetMeta] {
        &self.metas
    }

    /// The sample of instance `i`.
    pub fn sample(&self, i: u32) -> &Table {
        &self.samples[i as usize]
    }

    /// Replace the sample of instance `i` (iterative refinement, §2.1) and
    /// re-estimate the weights of its incident edges, fanning the partner
    /// work items out over the graph's executor. An out-of-range `i` is
    /// `UnknownDataset`, with nothing changed.
    ///
    /// Staleness follows the **generation-stamp model**: the replacement
    /// bumps `i`'s sample generation, and since every evaluation-cache key
    /// embeds the generations of the instances it reads, entries built
    /// against the old sample can never be served again — correctness does
    /// not depend on any sweep. The `retain` passes below are purely a
    /// memory courtesy (unreachable entries would otherwise sit in the
    /// bounded caches until LRU pressure pushed them out). Partner-side
    /// entries survive: their samples, and hence their generations, did not
    /// change. Histograms are the exception — their keys carry no
    /// generation, so `i`'s entries *must* be dropped, and the round
    /// recounts them; partner-side histograms come straight from the
    /// persistent cache. For an *incremental* change to a sample, prefer
    /// [`Self::apply_delta`], which patches all of this state in O(delta)
    /// instead of dropping and recounting it.
    pub fn refresh_sample(&mut self, i: u32, sample: Table) -> Result<()> {
        self.check_instance(i)?;
        self.samples[i as usize] = sample;
        self.gens[i as usize] += 1;
        self.hists.retain(|&(v, _)| v != i);
        self.partials.retain(|&(a, b, _)| a != i && b != i);
        self.sel_cache.retain(|&(a, _, b, _, _)| a != i && b != i);
        self.proj_cache.retain(|&(v, _, _)| v != i);
        self.eval_memo.retain(|(scope, _)| !scope.touches(i));
        let incident = self.adj[i as usize].clone();
        self.reweigh(&incident, self.exec)
    }

    /// All I-edges.
    pub fn i_edges(&self) -> &[IEdge] {
        &self.i_edges
    }

    /// Indices (into [`Self::i_edges`]) of edges incident to `v`.
    pub fn incident(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// The edge between `a` and `b`, if any.
    pub fn edge_between(&self, a: u32, b: u32) -> Option<&IEdge> {
        let (lo, hi) = (a.min(b), a.max(b));
        self.i_edges.iter().find(|e| e.a == lo && e.b == hi)
    }

    /// Candidate join attribute sets of the edge between `a` and `b`.
    pub fn candidate_join_sets(&self, a: u32, b: u32) -> &[AttrSet] {
        let (lo, hi) = (a.min(b), a.max(b));
        self.i_edges
            .iter()
            .position(|e| e.a == lo && e.b == hi)
            .map(|i| self.candidates[i].as_slice())
            .unwrap_or(&[])
    }

    /// Property 4.1 lookup: estimated JI of joining `a`/`b` on `j`.
    pub fn weight(&self, a: u32, b: u32, j: &AttrSet) -> Option<f64> {
        let (lo, hi) = (a.min(b), a.max(b));
        self.weights.get(&(lo, hi, j.clone())).copied()
    }

    /// Estimated price of the AS-vertex `(instance, attrs)` (entropy pricing
    /// evaluated on the sample — unbiased for the full-instance price up to
    /// entropy estimation error).
    pub fn price(&self, i: u32, attrs: &AttrSet) -> Result<f64> {
        self.pricing.price(&self.samples[i as usize], attrs)
    }

    /// The pricing model used for AS-vertex price estimates.
    pub fn pricing(&self) -> &EntropyPricing {
        &self.pricing
    }

    /// Cached inner pair selection between the samples of `probe` and
    /// `build` on `on`: every probe-side row's ascending match list in the
    /// build side. Computed once per `(probe, build, on, sample generation)`
    /// — the key embeds both sides' generations, so entries for replaced
    /// samples are unreachable, and [`Self::apply_delta`] re-keys patched
    /// entries to the new generation — and re-composed by every MCMC
    /// proposal whose tree keeps this hop. Misses recompute transparently
    /// (one build plus probe over the two samples); the cache is
    /// stamped-LRU bounded by
    /// [`JoinGraphConfig::sel_cache_cap`] and sharded by key hash, so
    /// concurrent chains reuse each other's selections with contention only
    /// on same-shard keys.
    pub fn pair_sel(&self, probe: u32, build: u32, on: &AttrSet) -> Result<Arc<PairSel>> {
        let key = (
            probe,
            self.gens[probe as usize],
            build,
            self.gens[build as usize],
            on.clone(),
        );
        if let Some(p) = self.sel_cache.get(&key) {
            return Ok(p);
        }
        // Compute outside any shard lock: a miss costs a full build + probe,
        // and concurrent searches must not serialize on it (a racing
        // duplicate computes the identical selection).
        let pair = Arc::new(pair_sel(
            &self.samples[probe as usize],
            &self.samples[build as usize],
            on,
        )?);
        self.sel_cache.insert(key, Arc::clone(&pair));
        Ok(pair)
    }

    /// The projected table evaluation joins for vertex `v`: a cached `Arc`
    /// projection of the sample when `full` is `None` (the search path —
    /// repeated proposals stop re-cloning column data every iteration), a
    /// fresh projection of the caller's full table otherwise (kept for
    /// callers that trace the full tier layer by layer; truth evaluation
    /// itself reads a [`crate::FullTier`]).
    pub fn projected_for_eval(
        &self,
        v: u32,
        attrs: &AttrSet,
        full: Option<&[Table]>,
    ) -> Result<Arc<Table>> {
        if let Some(full) = full {
            return Ok(Arc::new(full[v as usize].project(attrs)?));
        }
        let key = (v, self.gens[v as usize], attrs.clone());
        if let Some(t) = self.proj_cache.get(&key).and_then(|e| e.table) {
            return Ok(t);
        }
        // Project outside any shard lock; a racing duplicate projects the
        // identical table and the write below folds into whichever entry won.
        let t = Arc::new(self.samples[v as usize].project(attrs)?);
        self.proj_cache.update_or_insert(
            key,
            |e| e.table = Some(Arc::clone(&t)),
            || ProjEntry {
                table: Some(Arc::clone(&t)),
                price: None,
            },
        );
        Ok(t)
    }

    /// The price evaluation charges for `(v, attrs)`: the cached
    /// [`Self::price`] estimate on the sample when `full` is `None`, the
    /// exact, uncached price on the caller's full table otherwise (truth
    /// evaluation uses the memoized [`Self::full_price`] instead). Shares
    /// the projection cache's entries (same key), so one knob bounds both.
    pub fn price_for_eval(&self, v: u32, attrs: &AttrSet, full: Option<&[Table]>) -> Result<f64> {
        if let Some(full) = full {
            return self.pricing.price(&full[v as usize], attrs);
        }
        let key = (v, self.gens[v as usize], attrs.clone());
        if let Some(p) = self.proj_cache.get(&key).and_then(|e| e.price) {
            return Ok(p);
        }
        let p = self.price(v, attrs)?;
        self.proj_cache.update_or_insert(
            key,
            |e| e.price = Some(p),
            || ProjEntry {
                table: None,
                price: Some(p),
            },
        );
        Ok(p)
    }

    /// Current sample generation of instance `i`: 0 at build, bumped by
    /// every [`Self::refresh_sample`] / [`Self::apply_delta`]. Evaluation
    /// caches key on it, so two equal generations guarantee cache entries
    /// for `i` built in between are still servable.
    pub fn sample_gen(&self, i: u32) -> u64 {
        self.gens[i as usize]
    }

    /// Materialized per-pair-category partial-sum tables currently held for
    /// incident-edge JI maintenance (tests/benches), bounded by
    /// [`JoinGraphConfig::partials_cache_cap`].
    pub fn partials_len(&self) -> usize {
        self.partials.len()
    }

    /// Entries currently held by the selection cache (tests/benches),
    /// **aggregated across all shards** — the cache is sharded by key hash
    /// with one lock per shard, and the per-shard caps sum exactly to
    /// [`JoinGraphConfig::sel_cache_cap`], so this total never exceeds the
    /// configured bound.
    pub fn sel_cache_len(&self) -> usize {
        self.sel_cache.len()
    }

    /// The selection cache's **total** entry bound across all shards
    /// ([`JoinGraphConfig::sel_cache_cap`]) — the MCMC engine sizes its
    /// per-walk handle table to it, so the knob bounds resident pair
    /// selections during a walk too.
    pub fn sel_cache_cap(&self) -> usize {
        self.sel_cache.cap()
    }

    /// Entries currently held by the projection/price cache (tests/benches),
    /// aggregated across all shards (same layout as the selection cache).
    pub fn proj_cache_len(&self) -> usize {
        self.proj_cache.len()
    }

    /// Lifetime `(hits, misses)` of the selection cache, summed over shards
    /// (relaxed counters; observability only — hit-rate deltas for the
    /// multi-chain bench evidence).
    pub fn sel_cache_stats(&self) -> (u64, u64) {
        self.sel_cache.stats()
    }

    /// Lifetime `(hits, misses)` of the projection/price cache, summed over
    /// shards (relaxed counters; observability only).
    pub fn proj_cache_stats(&self) -> (u64, u64) {
        self.proj_cache.stats()
    }

    /// Entries currently held by the graph-wide MCMC evaluation memo
    /// (tests/benches), aggregated across shards; never exceeds
    /// [`JoinGraphConfig::eval_memo_cap`].
    pub fn eval_memo_len(&self) -> usize {
        self.eval_memo.len()
    }

    /// Lifetime `(hits, misses)` of the evaluation memo, summed over shards
    /// (relaxed counters; observability only). A miss is one full state
    /// evaluation: sample join, CORR and quality.
    pub fn eval_memo_stats(&self) -> (u64, u64) {
        self.eval_memo.stats()
    }

    /// Drop every cached selection, projection, price, memoized evaluation
    /// and full-tier scalar (every shard of the four caches) — the cold-path
    /// baseline for benches and the fresh-vs-cached pinning tests.
    /// Production code never needs this: stale entries are unreachable by
    /// construction (cache keys embed the sample generations or listing
    /// versions they were built against), so correctness never depends on
    /// clearing anything.
    pub fn clear_eval_caches(&self) {
        self.sel_cache.retain(|_| false);
        self.proj_cache.retain(|_| false);
        self.eval_memo.retain(|_| false);
        self.full_memo.retain(|_| false);
    }

    /// The executor the graph was built on; [`Self::build`] and
    /// [`Self::refresh_sample`] run their re-weigh rounds over it.
    pub fn executor(&self) -> Executor {
        self.exec
    }

    /// Instances whose schema contains **all** of `attrs`.
    pub fn instances_containing(&self, attrs: &AttrSet) -> Vec<u32> {
        (0..self.metas.len() as u32)
            .filter(|&i| attrs.is_subset(&self.metas[i as usize].attr_set()))
            .collect()
    }

    /// Instances containing at least one attribute of `attrs`.
    pub fn instances_touching(&self, attrs: &AttrSet) -> Vec<u32> {
        (0..self.metas.len() as u32)
            .filter(|&i| {
                !attrs
                    .intersect(&self.metas[i as usize].attr_set())
                    .is_empty()
            })
            .collect()
    }
}

/// Candidate join attribute sets for a shared set (see [`JoinGraphConfig`]).
fn candidate_sets(common: &AttrSet, max_enum: usize) -> Vec<AttrSet> {
    let mut v = if common.len() <= max_enum {
        common.nonempty_subsets()
    } else {
        let mut v: Vec<AttrSet> = common.iter().map(AttrSet::singleton).collect();
        v.push(common.clone());
        v
    };
    // Symbol histograms cannot key wider sets; JI would fail the whole build.
    v.retain(|c| c.len() <= MAX_SYM_KEY_ATTRS);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcmc::{find_optimal_target_graph, McmcConfig};
    use crate::request::Constraints;
    use crate::target::Cover;
    use dance_market::DatasetId;
    use dance_relation::{Table, TableDelta, Value, ValueType};

    fn inst(
        name: &str,
        attrs: &[(&str, ValueType)],
        rows: Vec<Vec<Value>>,
    ) -> (DatasetMeta, Table) {
        let t = Table::from_rows(name, attrs, rows).unwrap();
        let meta = DatasetMeta {
            id: DatasetId(0),
            name: name.into(),
            schema: t.schema().clone(),
            num_rows: t.num_rows(),
            default_key: AttrSet::singleton(t.schema().attributes()[0].id),
            version: 0,
        };
        (meta, t)
    }

    fn toy_graph() -> JoinGraph {
        // D1(jg_b, jg_c, jg_x) – D2(jg_b, jg_c, jg_y): shares {b, c};
        // D3(jg_z): isolated.
        let rows1: Vec<Vec<Value>> = (0..40)
            .map(|i| vec![Value::Int(i % 4), Value::Int(i % 8), Value::Int(i)])
            .collect();
        let rows2: Vec<Vec<Value>> = (0..40)
            .map(|i| vec![Value::Int(i % 4), Value::Int(i % 8), Value::Int(i * 2)])
            .collect();
        let (m1, t1) = inst(
            "D1",
            &[
                ("jg_b", ValueType::Int),
                ("jg_c", ValueType::Int),
                ("jg_x", ValueType::Int),
            ],
            rows1,
        );
        let (m2, t2) = inst(
            "D2",
            &[
                ("jg_b", ValueType::Int),
                ("jg_c", ValueType::Int),
                ("jg_y", ValueType::Int),
            ],
            rows2,
        );
        let (m3, t3) = inst(
            "D3",
            &[("jg_z", ValueType::Int)],
            (0..5).map(|i| vec![Value::Int(i)]).collect(),
        );
        let mut metas = vec![m1, m2, m3];
        for (i, m) in metas.iter_mut().enumerate() {
            m.id = DatasetId(i as u32);
        }
        JoinGraph::build(
            metas,
            vec![t1, t2, t3],
            EntropyPricing::default(),
            &JoinGraphConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn edges_follow_shared_names() {
        let g = toy_graph();
        assert_eq!(g.num_instances(), 3);
        assert_eq!(g.i_edges().len(), 1);
        let e = &g.i_edges()[0];
        assert_eq!((e.a, e.b), (0, 1));
        assert_eq!(e.common, AttrSet::from_names(["jg_b", "jg_c"]));
        assert!(g.edge_between(0, 2).is_none());
    }

    #[test]
    fn candidate_join_sets_enumerated() {
        let g = toy_graph();
        // Shared {b, c} → candidates {b}, {c}, {b,c}.
        let cands = g.candidate_join_sets(0, 1);
        assert_eq!(cands.len(), 3);
        for c in cands {
            assert!(g.weight(0, 1, c).is_some());
            // Property 4.1 lookup is symmetric.
            assert_eq!(g.weight(0, 1, c), g.weight(1, 0, c));
        }
    }

    #[test]
    fn i_edge_weight_is_min_over_candidates() {
        let g = toy_graph();
        let e = &g.i_edges()[0];
        let min = g
            .candidate_join_sets(0, 1)
            .iter()
            .map(|c| g.weight(0, 1, c).unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!((e.weight - min).abs() < 1e-12);
    }

    #[test]
    fn weights_are_valid_ji() {
        let g = toy_graph();
        for c in g.candidate_join_sets(0, 1) {
            let w = g.weight(0, 1, c).unwrap();
            assert!((0.0..=1.0).contains(&w), "JI out of range: {w}");
        }
    }

    #[test]
    fn instance_lookup_by_attrs() {
        let g = toy_graph();
        assert_eq!(
            g.instances_containing(&AttrSet::from_names(["jg_b"])),
            vec![0, 1]
        );
        assert_eq!(
            g.instances_containing(&AttrSet::from_names(["jg_x"])),
            vec![0]
        );
        assert_eq!(
            g.instances_touching(&AttrSet::from_names(["jg_x", "jg_z"])),
            vec![0, 2]
        );
        assert!(g
            .instances_containing(&AttrSet::from_names(["jg_nothing"]))
            .is_empty());
    }

    #[test]
    fn prices_positive_and_monotone() {
        let g = toy_graph();
        let pb = g.price(0, &AttrSet::from_names(["jg_b"])).unwrap();
        let pbc = g.price(0, &AttrSet::from_names(["jg_b", "jg_c"])).unwrap();
        assert!(pb > 0.0);
        assert!(pbc >= pb);
    }

    #[test]
    fn refresh_sample_updates_weights() {
        let mut g = toy_graph();
        let before = g.i_edges()[0].weight;
        // Replace D2's sample with one that matches D1 perfectly on both keys.
        let perfect = Table::from_rows(
            "D2",
            &[
                ("jg_b", ValueType::Int),
                ("jg_c", ValueType::Int),
                ("jg_y", ValueType::Int),
            ],
            (0..40)
                .map(|i| vec![Value::Int(i % 4), Value::Int(i % 8), Value::Int(i)])
                .collect(),
        )
        .unwrap();
        g.refresh_sample(1, perfect).unwrap();
        let after = g.i_edges()[0].weight;
        assert!(after <= before + 1e-12, "{after} vs {before}");
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        let build = |threads: usize| {
            let g = toy_graph();
            JoinGraph::build(
                g.metas.clone(),
                g.samples.clone(),
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
        assert_eq!(g.i_edges.len(), reference.i_edges.len());
        for (a, b) in g.i_edges.iter().zip(&reference.i_edges) {
            assert_eq!((a.a, a.b), (b.a, b.b));
            assert_eq!(
                a.weight.to_bits(),
                b.weight.to_bits(),
                "edge weight diverged at 4 threads"
            );
        }
        assert_eq!(g.weights.len(), reference.weights.len());
        for (key, w) in &reference.weights {
            assert_eq!(g.weights[key].to_bits(), w.to_bits());
        }
    }

    /// Histograms instance `v` has cached for its incident edges' candidates.
    fn cached_hists(g: &JoinGraph, v: u32) -> usize {
        g.incident(v)
            .iter()
            .flat_map(|&e| &g.candidates[e as usize])
            .filter(|cand| g.hists.peek(&(v, (*cand).clone())).is_some())
            .count()
    }

    /// Every weight of `g` is bit-equal to a from-scratch build over its
    /// current samples.
    fn assert_weights_match_rebuild(g: &JoinGraph, what: &str) {
        let rebuilt = JoinGraph::build(
            g.metas.clone(),
            g.samples.clone(),
            EntropyPricing::default(),
            &JoinGraphConfig::default(),
        )
        .unwrap();
        assert_eq!(g.weights.len(), rebuilt.weights.len());
        for (key, w) in &rebuilt.weights {
            assert_eq!(g.weights[key].to_bits(), w.to_bits(), "{what}");
        }
        for (a, b) in g.i_edges.iter().zip(&rebuilt.i_edges) {
            assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{what}");
        }
    }

    #[test]
    fn histogram_cache_persists_and_evicts_on_refresh() {
        let mut g = toy_graph();
        // Build populated both endpoint caches of the (0, 1) edge, and
        // nothing else: the isolated vertex has no histograms.
        let probed_0 = cached_hists(&g, 0);
        let probed_1 = cached_hists(&g, 1);
        assert!(probed_0 > 0 && probed_1 > 0, "cache persists past build");
        assert_eq!(g.hist_cache_len(), probed_0 + probed_1);

        let fresh = Table::from_rows(
            "D2",
            &[
                ("jg_b", ValueType::Int),
                ("jg_c", ValueType::Int),
                ("jg_y", ValueType::Int),
            ],
            (0..20)
                .map(|i| vec![Value::Int(i % 2), Value::Int(i % 4), Value::Int(i)])
                .collect(),
        )
        .unwrap();
        g.refresh_sample(1, fresh).unwrap();
        // The refreshed side was evicted and recounted; the partner side kept
        // its entries (refresh does not recount partner samples).
        assert_eq!(cached_hists(&g, 1), probed_1);
        assert_eq!(cached_hists(&g, 0), probed_0);
        assert_eq!(g.hist_cache_len(), probed_0 + probed_1);
        assert_weights_match_rebuild(&g, "refreshed weights");
    }

    /// Searches over `toy_graph`'s instances, warm on `g`'s caches: the
    /// (0, 1) edge with its three candidate join sets, and one
    /// single-instance search on each side.
    fn toy_searches(g: &JoinGraph) -> Vec<Option<TargetGraph>> {
        let specs = [
            (&[(0u32, 1u32)][..], (0u32, "jg_x"), (1u32, "jg_y")),
            (&[][..], (0, "jg_x"), (0, "jg_b")),
            (&[][..], (1, "jg_y"), (1, "jg_c")),
        ];
        specs
            .iter()
            .map(|&(edges, (sv, sa), (tv, ta))| {
                let (source, target) = (AttrSet::from_names([sa]), AttrSet::from_names([ta]));
                let sc: Cover = [(sv, source.clone())].into_iter().collect();
                let tc: Cover = [(tv, target.clone())].into_iter().collect();
                find_optimal_target_graph(
                    g,
                    &Default::default(),
                    edges,
                    &sc,
                    &tc,
                    &source,
                    &target,
                    &Constraints::unbounded(),
                    &McmcConfig {
                        iterations: 12,
                        seed: 3,
                        resample: None,
                        ..McmcConfig::default()
                    },
                )
                .unwrap()
            })
            .collect()
    }

    /// `true` iff some memoized evaluation of `g` reads instance `v`.
    fn memo_touches(g: &JoinGraph, v: u32) -> bool {
        let found = std::cell::Cell::new(false);
        g.eval_memo.retain(|(scope, _)| {
            found.set(found.get() || scope.touches(v));
            true
        });
        found.get()
    }

    /// After an update of `updated`: no memoized evaluation reading it
    /// survived, the memo holds its cap, and the warm searches equal the
    /// same searches on a graph rebuilt from the current samples.
    fn assert_memo_coherent(g: &JoinGraph, updated: u32, cap: usize, what: &str) {
        assert!(
            !memo_touches(g, updated),
            "{what}: stale memo entry survived"
        );
        let rebuilt = JoinGraph::build(
            g.metas.clone(),
            g.samples.clone(),
            EntropyPricing::default(),
            &JoinGraphConfig::default(),
        )
        .unwrap();
        for (warm, cold) in toy_searches(g).iter().zip(toy_searches(&rebuilt)) {
            let (warm, cold) = (warm.as_ref().unwrap(), cold.unwrap());
            assert_eq!(warm.join_attrs, cold.join_attrs, "{what}");
            assert_eq!(warm.projections, cold.projections, "{what}");
            for (x, y) in [
                (warm.corr, cold.corr),
                (warm.weight, cold.weight),
                (warm.quality, cold.quality),
                (warm.price, cold.price),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}");
            }
        }
        assert!(g.eval_memo_len() <= cap, "{what}: memo cap {cap} violated");
    }

    /// The LRU bounds hold after build and across refresh and delta rounds —
    /// all three share one re-weigh round — and evicted histograms are
    /// transparently recounted: weights always equal a from-scratch build
    /// over the same samples. The graph-wide evaluation memo stays coherent
    /// through the same waves: each update sweeps every memoized evaluation
    /// touching the updated instance, the other instance's entries survive
    /// (and are served) when the cap leaves room, and the warm searches
    /// equal searches on a rebuilt graph.
    #[test]
    fn hist_cache_cap_holds_across_refresh_rounds() {
        let base = toy_graph();
        for cap in [0usize, 1, 2, 4, DEFAULT_EVAL_MEMO_CAP] {
            let mut g = JoinGraph::build(
                base.metas.clone(),
                base.samples.clone(),
                EntropyPricing::default(),
                &JoinGraphConfig {
                    hist_cache_cap: cap,
                    eval_memo_cap: cap,
                    ..JoinGraphConfig::default()
                },
            )
            .unwrap();
            assert!(g.hist_cache_len() <= cap, "cap {cap} violated after build");
            for round in 0..3i64 {
                toy_searches(&g);
                let fresh = Table::from_rows(
                    "D2",
                    &[
                        ("jg_b", ValueType::Int),
                        ("jg_c", ValueType::Int),
                        ("jg_y", ValueType::Int),
                    ],
                    (0..30)
                        .map(|i| {
                            vec![
                                Value::Int(i % (2 + round)),
                                Value::Int(i % 4),
                                Value::Int(i),
                            ]
                        })
                        .collect(),
                )
                .unwrap();
                g.refresh_sample(1, fresh).unwrap();
                assert!(
                    g.hist_cache_len() <= cap,
                    "cap {cap} violated after refresh {round}"
                );
                assert_weights_match_rebuild(&g, &format!("refresh at cap {cap} round {round}"));
                if cap == DEFAULT_EVAL_MEMO_CAP {
                    assert!(memo_touches(&g, 0), "instance-0 entries survive");
                }
                assert_memo_coherent(&g, 1, cap, &format!("refresh at cap {cap} round {round}"));

                let delta = TableDelta::new(
                    vec![
                        vec![Value::Int(round), Value::Int(round + 1), Value::Int(100)],
                        vec![Value::Int(7), Value::Int(round), Value::Int(101)],
                    ],
                    vec![round as u32, 11, 12],
                );
                g.apply_delta(0, &delta).unwrap();
                assert!(
                    g.hist_cache_len() <= cap,
                    "cap {cap} violated after delta {round}"
                );
                assert_weights_match_rebuild(&g, &format!("delta at cap {cap} round {round}"));
                if cap == DEFAULT_EVAL_MEMO_CAP {
                    assert!(memo_touches(&g, 1), "instance-1 entries survive");
                }
                assert_memo_coherent(&g, 0, cap, &format!("delta at cap {cap} round {round}"));
            }
        }
    }

    /// The evaluation caches obey their caps, refresh-evict staleness, and
    /// recompute transparently: every cached pair selection and price equals
    /// a fresh computation before and after caps/evictions bite.
    #[test]
    fn eval_caches_capped_and_evicted_on_refresh() {
        let base = toy_graph();
        for cap in [0usize, 1, 2, 8] {
            let mut g = JoinGraph::build(
                base.metas.clone(),
                base.samples.clone(),
                EntropyPricing::default(),
                &JoinGraphConfig {
                    sel_cache_cap: cap,
                    proj_cache_cap: cap,
                    ..JoinGraphConfig::default()
                },
            )
            .unwrap();
            let on_b = AttrSet::from_names(["jg_b"]);
            let on_bc = AttrSet::from_names(["jg_b", "jg_c"]);
            let fresh_pairs = [
                dance_relation::pair_sel(g.sample(0), g.sample(1), &on_b).unwrap(),
                dance_relation::pair_sel(g.sample(0), g.sample(1), &on_bc).unwrap(),
                dance_relation::pair_sel(g.sample(1), g.sample(0), &on_b).unwrap(),
            ];
            for round in 0..3 {
                for (pair, on, (p, b)) in [
                    (&fresh_pairs[0], &on_b, (0u32, 1u32)),
                    (&fresh_pairs[1], &on_bc, (0, 1)),
                    (&fresh_pairs[2], &on_b, (1, 0)),
                ] {
                    let cached = g.pair_sel(p, b, on).unwrap();
                    assert_eq!(cached.num_matches(), pair.num_matches(), "round {round}");
                    for l in 0..pair.num_left() as u32 {
                        assert_eq!(cached.matches_of(l), pair.matches_of(l));
                    }
                    let price = g.price_for_eval(p, on, None).unwrap();
                    assert_eq!(price.to_bits(), g.price(p, on).unwrap().to_bits());
                    let proj = g.projected_for_eval(p, on, None).unwrap();
                    assert_eq!(proj.num_rows(), g.sample(p).num_rows());
                    assert!(g.sel_cache_len() <= cap, "sel cap {cap} violated");
                    assert!(g.proj_cache_len() <= cap, "proj cap {cap} violated");
                }
                // Refreshing instance 1 drops every entry that touches it.
                g.refresh_sample(1, base.samples[1].clone()).unwrap();
                assert_eq!(
                    g.sel_cache_len(),
                    0,
                    "all cached selections touched instance 1"
                );
                let survivors = g.proj_cache_len();
                assert!(survivors <= cap);
                // Only instance-0 entries may survive a refresh of 1.
                g.refresh_sample(0, base.samples[0].clone()).unwrap();
                assert_eq!(g.proj_cache_len(), 0);
            }
        }
    }

    /// `clear_eval_caches` resets to the cold state; recomputation after a
    /// clear equals the original values.
    #[test]
    fn clear_eval_caches_is_transparent() {
        let g = toy_graph();
        let on = AttrSet::from_names(["jg_b"]);
        let first = g.pair_sel(0, 1, &on).unwrap();
        let price = g.price_for_eval(0, &on, None).unwrap();
        assert!(g.sel_cache_len() > 0 && g.proj_cache_len() > 0);
        g.clear_eval_caches();
        assert_eq!(g.sel_cache_len() + g.proj_cache_len(), 0);
        let again = g.pair_sel(0, 1, &on).unwrap();
        assert_eq!(again.num_matches(), first.num_matches());
        assert_eq!(
            g.price_for_eval(0, &on, None).unwrap().to_bits(),
            price.to_bits()
        );
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let (m, t) = inst("X", &[("jg_q", ValueType::Int)], vec![vec![Value::Int(1)]]);
        assert!(JoinGraph::build(
            vec![m],
            vec![t.clone(), t],
            EntropyPricing::default(),
            &JoinGraphConfig::default()
        )
        .is_err());
    }

    #[test]
    fn candidate_sets_cap_large_shared_sets() {
        let big = AttrSet::from_names(["cs_1", "cs_2", "cs_3", "cs_4", "cs_5", "cs_6"]);
        let capped = candidate_sets(&big, 4);
        assert_eq!(capped.len(), 7); // 6 singletons + full set
        let small = AttrSet::from_names(["cs_1", "cs_2"]);
        assert_eq!(candidate_sets(&small, 4).len(), 3);
    }

    /// Two listings sharing more attributes than a symbol key holds still
    /// build: the over-wide full set is no candidate, the singletons are.
    #[test]
    fn shared_sets_wider_than_a_symbol_key_still_build() {
        let shared: Vec<String> = (0..=MAX_SYM_KEY_ATTRS)
            .map(|i| format!("wide_{i}"))
            .collect();
        let make = |name: &str, own: &str| {
            let mut attrs: Vec<(&str, ValueType)> = shared
                .iter()
                .map(|a| (a.as_str(), ValueType::Int))
                .collect();
            attrs.push((own, ValueType::Int));
            let rows = (0..6)
                .map(|r| {
                    (0..attrs.len())
                        .map(|c| Value::Int((r * c % 3) as i64))
                        .collect()
                })
                .collect();
            inst(name, &attrs, rows)
        };
        let (mut m1, t1) = make("W1", "wide_own1");
        let (mut m2, t2) = make("W2", "wide_own2");
        m1.id = DatasetId(0);
        m2.id = DatasetId(1);
        let common = AttrSet::from_names(shared.iter().map(String::as_str));
        assert_eq!(common.len(), MAX_SYM_KEY_ATTRS + 1);
        assert!(dance_info::join_informativeness(&t1, &t2, &common).is_err());

        let g = JoinGraph::build(
            vec![m1, m2],
            vec![t1, t2],
            EntropyPricing::default(),
            &JoinGraphConfig::default(),
        )
        .unwrap();
        let cands = g.candidate_join_sets(0, 1);
        assert_eq!(cands.len(), MAX_SYM_KEY_ATTRS + 1);
        assert!(cands.iter().all(|c| c.len() == 1));
    }
}
