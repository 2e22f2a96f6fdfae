//! The DANCE middleware (Figure 1).
//!
//! **Offline**: buy correlated samples of every catalog dataset, build the
//! two-layer join graph from them, register the shopper's own instances as
//! free vertices.
//!
//! **Online**: for an acquisition request, enumerate source/target covers
//! (Definition 4.3), run Step 1 (minimal weighted I-graph) per cover pair,
//! run Step 2 (MCMC) on the lightest I-graphs, and hand back the best
//! constraint-satisfying plan as SQL projection queries. If no plan exists at
//! the current sample resolution, buy more samples (higher rate), refresh the
//! graph and retry — the iterative loop of §2.1.
//!
//! Every multi-hop join the middleware evaluates — [`Dance::search`]'s MCMC
//! candidates, [`Dance::evaluate_true`]'s full-table ground truth, and the
//! re-joins after [`Dance::refine`] — flows through the selection-vector
//! pipeline (`dance_relation::sel` via `join_tree_bounded`): per-hop joins
//! compose row-id selections on interned symbols and materialize one table
//! for the estimators.
//!
//! The MCMC search additionally rides the graph's bounded evaluation caches
//! (see `crate::mcmc`'s module docs): per-hop pair selections, projected
//! sample tables, price estimates and whole evaluated states persist inside
//! the [`JoinGraph`] across proposals *and* across `search` calls, and
//! [`Dance::refine`] invalidates exactly the refreshed instances' entries
//! via [`JoinGraph::refresh_sample`]. Caching never changes a search result —
//! every state the walk visits is bit-identical to its uncached
//! [`evaluate_assignment`], the reference the tests pin the engine against.

use crate::full_tier::FullTier;
use crate::igraph::minimal_igraph;
use crate::join_graph::{JoinGraph, JoinGraphConfig};
use crate::landmark::LandmarkIndex;
use crate::mcmc::{evaluate_assignment, find_optimal_target_graph, McmcConfig, TargetGraph};
use crate::plan::AcquisitionPlan;
use crate::request::AcquisitionRequest;
use crate::target::{enumerate_covers, Cover};
use dance_market::{Budget, DatasetId, DatasetMeta, Marketplace};
use dance_relation::{AttrSet, FxHashSet, Result, Table, TableDelta};
use std::sync::Arc;

/// Configuration of the middleware.
#[derive(Debug, Clone)]
pub struct DanceConfig {
    /// Offline sampling rate `p`.
    pub sampling_rate: f64,
    /// Master seed (sampling, landmarks, MCMC).
    pub seed: u64,
    /// Number of landmarks for Step 1.
    pub landmarks: usize,
    /// Join-graph construction knobs.
    pub graph: JoinGraphConfig,
    /// Algorithm 1 knobs.
    pub mcmc: McmcConfig,
    /// Cap on enumerated covers per side.
    pub max_covers: usize,
    /// Cap on (source cover, target cover) pairs explored.
    pub max_cover_pairs: usize,
    /// How many of the lightest I-graphs get an MCMC run.
    pub max_igraphs: usize,
    /// Refinement rounds when the first search fails (0 = no refinement).
    pub refine_rounds: usize,
    /// Sampling-rate multiplier per refinement round.
    pub refine_multiplier: f64,
}

impl Default for DanceConfig {
    fn default() -> Self {
        DanceConfig {
            sampling_rate: 0.3,
            seed: 0xDA2CE,
            landmarks: 3,
            graph: JoinGraphConfig::default(),
            mcmc: McmcConfig::default(),
            max_covers: 8,
            max_cover_pairs: 12,
            max_igraphs: 4,
            refine_rounds: 2,
            refine_multiplier: 2.0,
        }
    }
}

/// The middleware: join graph + bookkeeping about sources and spend.
#[derive(Debug)]
pub struct Dance {
    graph: JoinGraph,
    free: FxHashSet<u32>,
    /// Per vertex: marketplace identity, or `None` for shopper-owned sources.
    dataset_ids: Vec<Option<(DatasetId, String)>>,
    /// The shopper's own full instances, in source-vertex order.
    source_tables: Vec<Arc<Table>>,
    cfg: DanceConfig,
    sample_cost: f64,
    current_rate: f64,
}

impl Dance {
    /// Offline phase: buy samples of every listed dataset and build the graph.
    ///
    /// `sources` are the shopper's own instances `S` — they join the graph as
    /// free (price-0) vertices at full resolution.
    pub fn offline(market: &Marketplace, sources: Vec<Table>, cfg: DanceConfig) -> Result<Dance> {
        let catalog: Vec<DatasetMeta> = market.catalog();
        let mut metas = Vec::with_capacity(catalog.len() + sources.len());
        let mut samples = Vec::with_capacity(catalog.len() + sources.len());
        let mut dataset_ids = Vec::with_capacity(catalog.len() + sources.len());
        let mut sample_cost = 0.0;
        for meta in &catalog {
            let (sample, cost) =
                market.buy_sample(meta.id, &meta.default_key, cfg.sampling_rate, cfg.seed)?;
            sample_cost += cost;
            dataset_ids.push(Some((meta.id, meta.name.clone())));
            metas.push(meta.clone());
            samples.push(sample);
        }
        let mut free = FxHashSet::default();
        for (i, s) in sources.iter().enumerate() {
            let v = (catalog.len() + i) as u32;
            free.insert(v);
            dataset_ids.push(None);
            metas.push(DatasetMeta {
                id: DatasetId(v),
                name: s.name().to_string(),
                schema: s.schema().clone(),
                num_rows: s.num_rows(),
                default_key: AttrSet::singleton(s.schema().attributes()[0].id),
                version: 0,
            });
            samples.push(s.clone());
        }
        let graph = JoinGraph::build(metas, samples, *market_pricing(), &cfg.graph)?;
        Ok(Dance {
            graph,
            free,
            dataset_ids,
            source_tables: sources.into_iter().map(Arc::new).collect(),
            current_rate: cfg.sampling_rate,
            cfg,
            sample_cost,
        })
    }

    /// The join graph (read access for diagnostics and experiments).
    pub fn graph(&self) -> &JoinGraph {
        &self.graph
    }

    /// Shopper-owned (free) vertices.
    pub fn free_vertices(&self) -> &FxHashSet<u32> {
        &self.free
    }

    /// Cumulative cost of sample purchases.
    pub fn sample_cost(&self) -> f64 {
        self.sample_cost
    }

    /// Current sampling rate (grows with refinement).
    pub fn current_rate(&self) -> f64 {
        self.current_rate
    }

    /// Covers of `attrs`, free instances offered first.
    pub fn covers_of(&self, attrs: &AttrSet) -> Vec<Cover> {
        if attrs.is_empty() {
            return vec![Cover::new()];
        }
        let mut available: Vec<(u32, AttrSet)> = (0..self.graph.num_instances() as u32)
            .filter_map(|v| {
                let offer = attrs.intersect(&self.graph.meta(v).attr_set());
                (!offer.is_empty()).then_some((v, offer))
            })
            .collect();
        // Free instances first so shopper-owned data is preferred.
        available.sort_by_key(|(v, _)| (!self.free.contains(v), *v));
        enumerate_covers(attrs, &available, self.cfg.max_covers)
    }

    /// Online phase: search; on failure, refine samples and retry.
    pub fn acquire(
        &mut self,
        market: &Marketplace,
        req: &AcquisitionRequest,
    ) -> Result<Option<AcquisitionPlan>> {
        for round in 0..=self.cfg.refine_rounds {
            if round > 0 {
                if self.current_rate >= 1.0 {
                    break;
                }
                self.refine(market)?;
            }
            if let Some(plan) = self.search(req)? {
                return Ok(Some(plan));
            }
        }
        Ok(None)
    }

    /// One search pass at the current sample resolution.
    pub fn search(&self, req: &AcquisitionRequest) -> Result<Option<AcquisitionPlan>> {
        let scovers = self.covers_of(&req.source_attrs);
        let tcovers = self.covers_of(&req.target_attrs);
        if scovers.is_empty() || tcovers.is_empty() {
            return Ok(None);
        }
        let lm = LandmarkIndex::build(&self.graph, self.cfg.landmarks, self.cfg.seed);

        // Step 1 per cover pair.
        let mut candidates: Vec<(f64, crate::igraph::IGraph, &Cover, &Cover)> = Vec::new();
        'pairs: for sc in &scovers {
            for tc in &tcovers {
                if candidates.len() >= self.cfg.max_cover_pairs {
                    break 'pairs;
                }
                let mut required: Vec<u32> = sc.keys().chain(tc.keys()).copied().collect();
                required.sort_unstable();
                required.dedup();
                if required.is_empty() {
                    continue;
                }
                for ig in crate::igraph::candidate_igraphs(
                    &self.graph,
                    &lm,
                    &required,
                    req.constraints.alpha,
                ) {
                    candidates.push((ig.total_weight, ig, sc, tc));
                }
            }
        }
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Step 2 on the lightest I-graphs.
        let mut best: Option<(TargetGraph, Cover, Cover)> = None;
        for (_, ig, sc, tc) in candidates.into_iter().take(self.cfg.max_igraphs) {
            let found = find_optimal_target_graph(
                &self.graph,
                &self.free,
                &ig.edges,
                sc,
                tc,
                &req.source_attrs,
                &req.target_attrs,
                &req.constraints,
                &self.cfg.mcmc,
            )?;
            if let Some(tg) = found {
                if best.as_ref().is_none_or(|(b, _, _)| tg.corr > b.corr) {
                    best = Some((tg, sc.clone(), tc.clone()));
                }
            }
        }
        Ok(best.map(|(tg, _, _)| {
            AcquisitionPlan::from_target_graph(tg, &self.free, |v| {
                self.dataset_ids[v as usize].clone()
            })
        }))
    }

    /// Diagnostic: run Step 1 only and report the minimal I-graph chosen for
    /// the request — `(size, total weight)` — without running MCMC. This is
    /// what Figure 5(b) tabulates.
    pub fn probe_igraph(&self, req: &AcquisitionRequest) -> Option<(usize, f64)> {
        let scovers = self.covers_of(&req.source_attrs);
        let tcovers = self.covers_of(&req.target_attrs);
        let lm = LandmarkIndex::build(&self.graph, self.cfg.landmarks, self.cfg.seed);
        let mut best: Option<(usize, f64)> = None;
        for sc in &scovers {
            for tc in &tcovers {
                let mut required: Vec<u32> = sc.keys().chain(tc.keys()).copied().collect();
                required.sort_unstable();
                required.dedup();
                if required.is_empty() {
                    continue;
                }
                if let Some(ig) = minimal_igraph(&self.graph, &lm, &required, req.constraints.alpha)
                {
                    if best.is_none_or(|(_, w)| ig.total_weight < w) {
                        best = Some((ig.size(), ig.total_weight));
                    }
                }
            }
        }
        best
    }

    /// Fold a seller-side update of vertex `v`'s sample into the join graph
    /// incrementally (`JoinGraph::apply_delta` — O(delta) catalog
    /// maintenance, bit-identical to a full refresh with the patched table).
    /// The delta describes row changes *to the sample*; when the seller
    /// publishes a full-dataset delta via `Marketplace::apply_update`, the
    /// shopper derives the sample-level delta from the rows its sample
    /// holds.
    pub fn apply_sample_delta(&mut self, v: u32, delta: &TableDelta) -> Result<()> {
        self.graph.apply_delta(v, delta)
    }

    /// Buy fresh samples at a higher rate and refresh the graph (§2.1's
    /// iterative refinement).
    pub fn refine(&mut self, market: &Marketplace) -> Result<()> {
        self.current_rate = (self.current_rate * self.cfg.refine_multiplier).min(1.0);
        for v in 0..self.graph.num_instances() as u32 {
            let Some((id, _)) = &self.dataset_ids[v as usize] else {
                continue; // source vertices are already full-resolution
            };
            let key = self.graph.meta(v).default_key.clone();
            let (sample, cost) = market.buy_sample(*id, &key, self.current_rate, self.cfg.seed)?;
            self.sample_cost += cost;
            self.graph.refresh_sample(v, sample)?;
        }
        Ok(())
    }

    /// Execute a plan's queries against the marketplace under a budget
    /// ([`Marketplace::purchase`]: one snapshot, each query priced once).
    ///
    /// Returns the purchased projections; fails (without partial purchase)
    /// if the *actual* total price exceeds the remaining budget.
    pub fn purchase(
        &self,
        market: &Marketplace,
        plan: &AcquisitionPlan,
        budget: &mut Budget,
    ) -> Result<Vec<Table>> {
        market.purchase(&plan.queries, budget)
    }

    /// Every graph vertex's full table, pinned at one snapshot of `market`:
    /// the marketplace's listings (shared, not copied) and the shopper's own
    /// sources. What [`Self::evaluate_true`] and the GP baseline evaluate on.
    pub fn full_tier(&self, market: &Marketplace) -> Result<FullTier> {
        FullTier::pin(
            &market.snapshot(),
            self.dataset_ids
                .iter()
                .map(|d| d.as_ref().map(|(id, _)| *id)),
            &self.source_tables,
        )
    }

    /// Ground-truth evaluation of a target graph on the *full* marketplace
    /// instances (what the shopper actually receives) — used for the paper's
    /// "real correlation, not the estimated value" reporting. Reads one
    /// pinned [`Self::full_tier`]; prices and edge JIs come from the graph's
    /// full-tier memo.
    pub fn evaluate_true(
        &self,
        market: &Marketplace,
        tg: &TargetGraph,
        req: &AcquisitionRequest,
    ) -> Result<TargetGraph> {
        self.evaluate_on(&self.full_tier(market)?, tg, req)
    }

    /// [`Self::evaluate_true`] on an already pinned full tier.
    pub(crate) fn evaluate_on(
        &self,
        tier: &FullTier,
        tg: &TargetGraph,
        req: &AcquisitionRequest,
    ) -> Result<TargetGraph> {
        // Reconstruct covers from the projections (projection = join attrs ∪
        // cover contribution, so intersecting with AS / AT recovers them).
        let mut sc = Cover::new();
        let mut tc = Cover::new();
        for (&v, attrs) in &tg.projections {
            let s = attrs.intersect(&req.source_attrs);
            if !s.is_empty() {
                sc.insert(v, s);
            }
            let t = attrs.intersect(&req.target_attrs);
            if !t.is_empty() {
                tc.insert(v, t);
            }
        }
        evaluate_assignment(
            &self.graph,
            &self.free,
            &tg.tree_edges,
            &tg.join_attrs,
            &sc,
            &tc,
            &req.source_attrs,
            &req.target_attrs,
            Some(tier),
            None,
            &self.cfg.mcmc.tane,
        )
    }
}

/// The pricing model DANCE assumes the marketplace publishes. Kept in sync
/// with [`dance_market::EntropyPricing::default`].
fn market_pricing() -> &'static dance_market::EntropyPricing {
    static PRICING: dance_market::EntropyPricing = dance_market::EntropyPricing {
        scale: 1.0,
        floor: 0.25,
        row_exponent: 0.0,
    };
    &PRICING
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Constraints;
    use dance_market::EntropyPricing;
    use dance_relation::{Table, Value, ValueType};

    /// Marketplace: zip(zipcode,state) and disease(state, disease); shopper
    /// owns DS(age, zipcode).
    fn setup() -> (Marketplace, Vec<Table>) {
        let zip = Table::from_rows(
            "zip",
            &[("dn_zip", ValueType::Int), ("dn_state", ValueType::Int)],
            (0..200)
                .map(|i| vec![Value::Int(i % 50), Value::Int((i % 50) / 10)])
                .collect(),
        )
        .unwrap();
        let disease = Table::from_rows(
            "disease",
            &[("dn_state", ValueType::Int), ("dn_disease", ValueType::Str)],
            (0..100)
                .map(|i| vec![Value::Int(i % 5), Value::str(format!("d{}", i % 5))])
                .collect(),
        )
        .unwrap();
        let market = Marketplace::new(vec![zip, disease], EntropyPricing::default());
        let ds = Table::from_rows(
            "DS",
            &[("dn_age", ValueType::Int), ("dn_zip", ValueType::Int)],
            (0..150)
                .map(|i| vec![Value::Int(20 + (i % 50) / 10), Value::Int(i % 50)])
                .collect(),
        )
        .unwrap();
        (market, vec![ds])
    }

    fn config() -> DanceConfig {
        DanceConfig {
            sampling_rate: 0.6,
            seed: 11,
            mcmc: McmcConfig {
                iterations: 40,
                seed: 11,
                resample: None,
                ..McmcConfig::default()
            },
            ..DanceConfig::default()
        }
    }

    #[test]
    fn offline_builds_graph_with_free_sources() {
        let (market, sources) = setup();
        let d = Dance::offline(&market, sources, config()).unwrap();
        assert_eq!(d.graph().num_instances(), 3);
        assert_eq!(d.free_vertices().len(), 1);
        assert!(d.free_vertices().contains(&2));
        assert!(d.sample_cost() > 0.0);
        assert_eq!(market.sales().0, 2, "one sample per listed dataset");
    }

    #[test]
    fn acquire_finds_age_disease_plan() {
        let (market, sources) = setup();
        let mut d = Dance::offline(&market, sources, config()).unwrap();
        let req = AcquisitionRequest::new(
            AttrSet::from_names(["dn_age"]),
            AttrSet::from_names(["dn_disease"]),
        );
        let plan = d.acquire(&market, &req).unwrap().expect("plan found");
        // DS (free) → zip → disease: two purchases.
        assert_eq!(plan.queries.len(), 2);
        assert!(plan.estimated.price > 0.0);
        assert!(plan.estimated.correlation >= 0.0);
        // Plan projections cover both request sides.
        let all: AttrSet = plan
            .graph
            .projections
            .values()
            .fold(AttrSet::empty(), |acc, a| acc.union(a));
        assert!(AttrSet::from_names(["dn_age"]).is_subset(&all));
        assert!(AttrSet::from_names(["dn_disease"]).is_subset(&all));
    }

    #[test]
    fn purchase_executes_within_budget() {
        let (market, sources) = setup();
        let mut d = Dance::offline(&market, sources, config()).unwrap();
        let req = AcquisitionRequest::new(
            AttrSet::from_names(["dn_age"]),
            AttrSet::from_names(["dn_disease"]),
        );
        let plan = d.acquire(&market, &req).unwrap().unwrap();
        let mut budget = Budget::new(1e6);
        let bought = d.purchase(&market, &plan, &mut budget).unwrap();
        assert_eq!(bought.len(), plan.queries.len());
        assert!(budget.spent() > 0.0);

        let mut tiny = Budget::new(1e-9);
        assert!(d.purchase(&market, &plan, &mut tiny).is_err());
        assert_eq!(tiny.spent(), 0.0, "no partial purchase");
    }

    #[test]
    fn unsatisfiable_target_returns_none() {
        let (market, sources) = setup();
        let mut d = Dance::offline(&market, sources, config()).unwrap();
        let req = AcquisitionRequest::new(
            AttrSet::from_names(["dn_age"]),
            AttrSet::from_names(["dn_not_anywhere"]),
        );
        assert!(d.acquire(&market, &req).unwrap().is_none());
    }

    #[test]
    fn impossible_budget_triggers_refinement_then_none() {
        let (market, sources) = setup();
        let mut d = Dance::offline(&market, sources, config()).unwrap();
        let rate_before = d.current_rate();
        let req = AcquisitionRequest::new(
            AttrSet::from_names(["dn_age"]),
            AttrSet::from_names(["dn_disease"]),
        )
        .with_constraints(Constraints {
            alpha: f64::INFINITY,
            beta: 0.0,
            budget: 1e-9,
        });
        assert!(d.acquire(&market, &req).unwrap().is_none());
        assert!(
            d.current_rate() > rate_before,
            "refinement bought more samples"
        );
    }

    #[test]
    fn true_evaluation_runs_on_full_tables() {
        let (market, sources) = setup();
        let mut d = Dance::offline(&market, sources, config()).unwrap();
        let req = AcquisitionRequest::new(
            AttrSet::from_names(["dn_age"]),
            AttrSet::from_names(["dn_disease"]),
        );
        let plan = d.acquire(&market, &req).unwrap().unwrap();
        let truth = d.evaluate_true(&market, &plan.graph, &req).unwrap();
        assert!(truth.corr.is_finite());
        assert!(
            truth.price >= plan.estimated.price * 0.5,
            "same pricing model scale"
        );
    }

    /// A seller keeps publishing updates of both plan listings while the
    /// shopper buys the plan and evaluates its truth. Every purchase must
    /// price all queries on one snapshot and record exactly what it charged,
    /// and every truth evaluation must read one snapshot. The seller walks
    /// zip and disease through AA → BA → BB → BA → AA, so the mixed state AB
    /// is never published: a torn read shows up as a charge or a truth that
    /// matches no published state.
    #[test]
    fn purchase_and_truth_read_one_snapshot_under_seller_updates() {
        use crate::full_tier::tests::metric_bits;
        use std::sync::atomic::{AtomicBool, Ordering};
        let (market, sources) = setup();
        let mut d = Dance::offline(&market, sources, config()).unwrap();
        let req = AcquisitionRequest::new(
            AttrSet::from_names(["dn_age"]),
            AttrSet::from_names(["dn_disease"]),
        );
        let plan = d.acquire(&market, &req).unwrap().expect("plan found");
        let (zip, disease) = (DatasetId(0), DatasetId(1));
        assert_eq!(
            plan.queries.iter().map(|q| q.dataset).collect::<Vec<_>>(),
            [zip, disease]
        );
        // Appending rows with existing values and then deleting exactly that
        // tail restores each listing's table bit for bit.
        let grow = |id: DatasetId| match id {
            DatasetId(0) => TableDelta::new(
                (0..40)
                    .map(|i| vec![Value::Int(i % 7), Value::Int(0)])
                    .collect(),
                Vec::new(),
            ),
            _ => TableDelta::new(
                (0..30)
                    .map(|_| vec![Value::Int(0), Value::str("d0")])
                    .collect(),
                Vec::new(),
            ),
        };
        let shrink = |id: DatasetId| match id {
            DatasetId(0) => TableDelta::new(Vec::new(), (200..240).collect()),
            _ => TableDelta::new(Vec::new(), (100..130).collect()),
        };
        let steps = [(zip, true), (disease, true), (disease, false), (zip, false)];
        let apply = |(id, up): (DatasetId, bool)| {
            let delta = if up { grow(id) } else { shrink(id) };
            market.apply_update(id, &delta).unwrap();
        };

        // Each published state's per-query prices and uncached truth.
        let state = || {
            let snapshot = market.snapshot();
            let prices: Vec<f64> = plan
                .queries
                .iter()
                .map(|q| snapshot.quote(q.dataset, &q.attrs).unwrap())
                .collect();
            let tier = d.full_tier(&market).unwrap().unversioned();
            (
                prices,
                metric_bits(&d.evaluate_on(&tier, &plan.graph, &req).unwrap()),
            )
        };
        let mut states = vec![state()];
        for step in steps {
            apply(step);
            states.push(state());
        }
        assert_eq!(states[4], states[0], "a full cycle restores AA");
        assert_eq!(states[3], states[1], "shrinking disease restores BA");
        states.truncate(3);
        assert!(states[0].0 != states[1].0 && states[1].0 != states[2].0);
        d.graph().clear_eval_caches();

        /// Stops the seller when the shopper loop ends, also by a panic.
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    steps.into_iter().for_each(apply);
                }
            });
            let _stop = Stop(&stop);
            for _ in 0..150 {
                let before = market.revenue();
                let mut wallet = Budget::new(f64::INFINITY);
                d.purchase(&market, &plan, &mut wallet).unwrap();
                let after = market.revenue();
                let charged = states
                    .iter()
                    .map(|(prices, _)| prices)
                    .find(|p| {
                        p.iter().fold(0.0, |a, x| a + x).to_bits() == wallet.spent().to_bits()
                    })
                    .expect("the charge prices every query on one published state");
                let recorded = charged.iter().fold(before, |a, x| a + x);
                assert_eq!(
                    after.to_bits(),
                    recorded.to_bits(),
                    "revenue moved by the charge"
                );

                let truth = metric_bits(&d.evaluate_true(&market, &plan.graph, &req).unwrap());
                assert!(
                    states.iter().any(|(_, t)| *t == truth),
                    "the truth matches one published state"
                );
                // The tier truth reads: published listing versions only.
                // Zip's version is odd exactly while it is grown, and
                // disease grows and shrinks back inside that window.
                for _ in 0..50 {
                    let tier = d.full_tier(&market).unwrap();
                    let version = |id| tier.listing(id).unwrap().1;
                    let (zv, dv) = (version(0), version(1));
                    assert!(
                        if zv % 2 == 0 {
                            dv == zv
                        } else {
                            dv.abs_diff(zv) <= 1
                        },
                        "zip v{zv} with disease v{dv} was never published"
                    );
                }
            }
        });
    }
}
