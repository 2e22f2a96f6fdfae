//! The acquisition workloads: `tpch_repeat` and `tpce_churn`.
//!
//! A single shopper runs a closed loop of acquisition requests against one
//! marketplace. The plain pass drives the production entry points
//! (`Dance::offline`, `Dance::acquire`, `Dance::purchase`,
//! `Dance::evaluate_true`, `Dance::apply_sample_delta`). The traced pass
//! repeats the same inputs through the public per-layer calls those entry
//! points make, in the same order, timing each call, and must reproduce
//! the plain pass's outputs bit for bit.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use dance_bench::setup::{dance_config, price_bounds};
use dance_core::igraph::candidate_igraphs;
use dance_core::landmark::LandmarkIndex;
use dance_core::mcmc::find_optimal_target_graph;
use dance_core::target::{enumerate_covers, Cover};
use dance_core::{
    AcquisitionPlan, AcquisitionRequest, Constraints, Dance, DanceConfig, JoinGraph, TargetGraph,
};
use dance_datagen::churn::churn_delta;
use dance_datagen::tpce::TpceConfig;
use dance_datagen::tpch::TpchConfig;
use dance_datagen::workload::{tpce_workload, tpch_workload, Workload};
use dance_info::correlation::{correlation_with, CorrOptions};
use dance_info::ji::join_informativeness;
use dance_market::wire::table_digest;
use dance_market::{Budget, DatasetId, DatasetMeta, EntropyPricing, Marketplace};
use dance_quality::joint::instance_set_quality;
use dance_quality::TaneConfig;
use dance_relation::join::JoinEdge;
use dance_relation::{AttrSet, FxHashSet, RelationError, Result, Table, TableDelta};
use dance_sampling::resample::{join_tree_bounded_with, ResampleConfig};
use dance_sampling::CorrelatedSampler;

use crate::util::{
    balanced, draw, floors, median, more_setups, peak_rss_mb, percentile, sorted, tail_level,
    Digest, Json, Spans,
};
use crate::Outcome;

/// One acquisition workload's fixed shape; only the seed varies per run.
#[derive(Debug, Clone, Copy)]
pub struct AcqSpec {
    pub name: &'static str,
    /// TPC-E marketplace (29 instances) instead of TPC-H (8).
    pub tpce: bool,
    pub scale: f64,
    pub sampling_rate: f64,
    pub iterations: usize,
    pub chains: usize,
    /// Budget ratios of the request grid (`budget = ratio × UB`, Fig 7);
    /// empty means unbounded requests.
    pub budget_ratios: &'static [f64],
    /// Run `evaluate_true` after every purchase.
    pub truth: bool,
    /// Seller churn between requests: expected deleted / inserted row
    /// fraction of the updated dataset (0 = no writes).
    pub churn: f64,
    /// The datasets whose sellers publish the deltas.
    pub churn_tables: &'static [&'static str],
    /// Requests every run completes; the digest covers exactly these.
    pub min_requests: usize,
}

pub const TPCH_REPEAT: AcqSpec = AcqSpec {
    name: "tpch_repeat",
    tpce: false,
    scale: 10.0,
    sampling_rate: 0.3,
    iterations: 60,
    chains: 1,
    budget_ratios: &[0.4, 0.6, 0.8, 1.0],
    truth: true,
    churn: 0.0,
    churn_tables: &[],
    min_requests: 108,
};

pub const TPCE_CHURN: AcqSpec = AcqSpec {
    name: "tpce_churn",
    tpce: true,
    scale: 1.0,
    sampling_rate: 0.3,
    iterations: 60,
    chains: 2,
    budget_ratios: &[],
    truth: false,
    churn: 0.01,
    // A fixed set of active sellers, on the paths of all three queries
    // (security, company) or of Q3's long one (customer, watch_item).
    // Which dataset a delta lands on decides which cached work the next
    // search redoes; with a few sellers each (request, seller) pair
    // repeats often enough in a run to be timed by its fastest repeat.
    churn_tables: &["security", "company", "customer", "watch_item"],
    min_requests: 96,
};

/// Seed of the shopper's sampling and MCMC walks.
const DANCE_SEED: u64 = 0xDA2CE;

/// Seeded-stream salts.
const S_ORDER: u64 = 2;
const S_TABLE: u64 = 3;
const S_CHURN: u64 = 4;

/// One entry of the distinct-request grid.
#[derive(Debug, Clone)]
struct GridReq {
    label: String,
    req: AcquisitionRequest,
}

/// Which grid entry request `i` sends: every entry equally often, so the
/// percentiles of a mixed stream do not move with the mix.
fn grid_index(seed: u64, len: usize, i: usize) -> usize {
    balanced(seed, S_ORDER, len, i)
}

/// The marketplace is a fixed catalog (the generators' default seeds at the
/// workload's scale); the run seed draws the request stream and the
/// seller deltas. A catalog drawn per seed would swing search and truth
/// costs by more than an order of magnitude between seeds.
fn generate(spec: &AcqSpec) -> Result<Workload> {
    if spec.tpce {
        tpce_workload(&TpceConfig {
            scale: spec.scale,
            ..TpceConfig::default()
        })
    } else {
        tpch_workload(&TpchConfig {
            scale: spec.scale,
            ..TpchConfig::default()
        })
    }
}

/// The shopper's configuration: the §6 experiment settings with the
/// workload's MCMC knobs, seeded like the catalog.
fn config(spec: &AcqSpec) -> DanceConfig {
    let mut cfg = dance_config(spec.sampling_rate, DANCE_SEED);
    cfg.mcmc.iterations = spec.iterations;
    cfg.mcmc.chains = spec.chains;
    cfg
}

/// The request grid: each query at each budget ratio (or unbounded).
fn grid(spec: &AcqSpec, w: &Workload, dance: &Dance) -> Vec<GridReq> {
    let mut out = Vec::new();
    for q in &w.queries {
        let base = AcquisitionRequest::new(q.source.clone(), q.target.clone());
        if spec.budget_ratios.is_empty() {
            out.push(GridReq {
                label: q.name.to_string(),
                req: base,
            });
            continue;
        }
        let ub = price_bounds(dance, q).map_or(f64::INFINITY, |(_, ub)| ub);
        for &ratio in spec.budget_ratios {
            out.push(GridReq {
                label: format!("{}@{ratio}", q.name),
                req: base.clone().with_constraints(Constraints {
                    alpha: f64::INFINITY,
                    beta: 0.0,
                    budget: ratio * ub,
                }),
            });
        }
    }
    out
}

/// Shopper-side bookkeeping that turns a seller's full-dataset delta into
/// the matching delta of the shopper's sample: a row is in the sample iff
/// its key scores below the sampling rate, and the sample keeps full-table
/// row order, so deletes map through ranks and inserts are scored.
struct SampleMirror {
    sampler: CorrelatedSampler,
    /// Per dataset: sample key columns and the in-sample flag per full row.
    keys: Vec<Vec<usize>>,
    kept: Vec<Vec<bool>>,
    touched: BTreeSet<u32>,
}

impl SampleMirror {
    fn new(market: &Marketplace, cfg: &DanceConfig) -> Result<SampleMirror> {
        let sampler = CorrelatedSampler::new(cfg.sampling_rate, cfg.seed);
        let mut keys = Vec::new();
        let mut kept = Vec::new();
        for meta in market.catalog() {
            let t = market.full_table_for_evaluation(meta.id)?;
            let cols = t.attr_indices(&meta.default_key)?;
            kept.push(
                (0..t.num_rows())
                    .map(|r| sampler.score(&key_of(&t.row(r), &cols)) < sampler.rate)
                    .collect(),
            );
            keys.push(cols);
        }
        Ok(SampleMirror {
            sampler,
            keys,
            kept,
            touched: BTreeSet::new(),
        })
    }

    fn sample_delta(&mut self, id: DatasetId, full: &TableDelta) -> TableDelta {
        let d = id.0 as usize;
        let kept = &self.kept[d];
        let mut rank = Vec::with_capacity(kept.len());
        let mut n = 0u32;
        for &k in kept {
            rank.push(n);
            n += u32::from(k);
        }
        let deleted: Vec<u32> = full
            .deleted()
            .iter()
            .filter(|&&r| kept[r as usize])
            .map(|&r| rank[r as usize])
            .collect();
        let ins_kept: Vec<bool> = full
            .inserted()
            .iter()
            .map(|row| self.sampler.score(&key_of(row, &self.keys[d])) < self.sampler.rate)
            .collect();
        let inserted: Vec<_> = full
            .inserted()
            .iter()
            .zip(&ins_kept)
            .filter(|(_, &k)| k)
            .map(|(row, _)| row.clone())
            .collect();
        let gone: HashSet<u32> = full.deleted().iter().copied().collect();
        let mut next: Vec<bool> = kept
            .iter()
            .enumerate()
            .filter(|(r, _)| !gone.contains(&(*r as u32)))
            .map(|(_, &k)| k)
            .collect();
        next.extend(ins_kept);
        self.kept[d] = next;
        self.touched.insert(id.0);
        TableDelta::new(inserted, deleted)
    }

    /// Delta equals rebuild: every patched sample must equal a fresh sample
    /// of the updated dataset.
    fn matches_rebuild(&self, market: &Marketplace, graph: &JoinGraph) -> Result<bool> {
        for &v in &self.touched {
            let meta = market.meta(DatasetId(v))?;
            let full = market.full_table_for_evaluation(meta.id)?;
            let fresh = self.sampler.sample(&full, &meta.default_key)?;
            if table_digest(&fresh) != table_digest(graph.sample(v)) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

fn key_of(row: &[dance_relation::Value], cols: &[usize]) -> Vec<dance_relation::Value> {
    cols.iter().map(|&c| row[c].clone()).collect()
}

/// The seller update stream (input generation, untimed). Updates come in
/// pairs: a seeded churn delta on one of the workload's seller datasets,
/// drawn in balanced rounds, then its inverse, so sellers retract and
/// restore rows and the catalog's row multiset stays put. The work per
/// request then does not drift with the number of requests a run completes.
struct Churn {
    sellers: Vec<DatasetId>,
    undo: Option<(usize, DatasetId, TableDelta)>,
    pairs: usize,
    /// Whose update came last: 0 before any, else `1 + seller`. A delta
    /// and its inverse invalidate the same cached work.
    state: usize,
}

impl Churn {
    fn new(spec: &AcqSpec, market: &Marketplace) -> Result<Churn> {
        let catalog = market.catalog();
        let sellers = spec
            .churn_tables
            .iter()
            .map(|&name| {
                catalog
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.id)
                    .ok_or_else(|| RelationError::Shape(format!("no dataset {name}")))
            })
            .collect::<Result<_>>()?;
        Ok(Churn {
            sellers,
            undo: None,
            pairs: 0,
            state: 0,
        })
    }

    fn next(
        &mut self,
        spec: &AcqSpec,
        seed: u64,
        market: &Marketplace,
    ) -> Result<(DatasetId, TableDelta)> {
        if let Some((seller, id, undo)) = self.undo.take() {
            self.state = 1 + seller;
            return Ok((id, undo));
        }
        let seller = balanced(seed, S_TABLE, self.sellers.len(), self.pairs);
        let id = self.sellers[seller];
        let t = market.full_table_for_evaluation(id)?;
        let delta = churn_delta(
            &t,
            spec.churn,
            spec.churn,
            draw(seed, S_CHURN, self.pairs as u64),
        );
        self.pairs += 1;
        self.undo = Some((seller, id, delta.inverse(&t)?));
        self.state = 1 + seller;
        Ok((id, delta))
    }
}

fn digest_attrs(d: &mut Digest, a: &AttrSet) {
    let mut names: Vec<String> = a.iter().map(|id| id.name().to_string()).collect();
    names.sort();
    d.u64(names.len() as u64);
    for n in &names {
        d.str(n);
    }
}

fn digest_metrics(d: &mut Digest, tg: &TargetGraph) {
    d.f64(tg.corr);
    d.f64(tg.weight);
    d.f64(tg.quality);
    d.f64(tg.price);
}

fn digest_plan(d: &mut Digest, plan: &AcquisitionPlan) {
    for (&(a, b), j) in plan.graph.tree_edges.iter().zip(&plan.graph.join_attrs) {
        d.u64(u64::from(a) << 32 | u64::from(b));
        digest_attrs(d, j);
    }
    for (v, p) in &plan.graph.projections {
        d.u64(u64::from(*v));
        digest_attrs(d, p);
    }
    digest_metrics(d, &plan.graph);
    for q in &plan.queries {
        d.u64(u64::from(q.dataset.0));
        digest_attrs(d, &q.attrs);
    }
}

/// What one pass produced: outputs (digested) and measurements.
#[derive(Default)]
struct Pass {
    digest: Digest,
    attempted: u64,
    failed: u64,
    checks: Vec<(&'static str, bool)>,
    /// Per request: its grid entry, search time and request time (search,
    /// purchase and, where the workload pays it, truth).
    kinds: Vec<usize>,
    search_ms: Vec<f64>,
    request_ms: Vec<f64>,
    update_ms: Vec<f64>,
    repeats: usize,
    /// Per grid entry: the first (estimated, true) CORR pair seen.
    gaps: BTreeMap<usize, (f64, f64)>,
    wall_s: f64,
    /// Traced pass only: span time inside `wall_s`.
    spans_s: f64,
}

impl Pass {
    fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }
}

/// Everything a plain run needs, built by one timed set-up.
struct Setup {
    market: Marketplace,
    dance: Dance,
    grid: Vec<GridReq>,
    mirror: Option<SampleMirror>,
}

fn setup(spec: &AcqSpec) -> Result<Setup> {
    let w = generate(spec)?;
    let cfg = config(spec);
    let market = Marketplace::new(w.tables.clone(), EntropyPricing::default());
    let mirror = if spec.churn > 0.0 {
        Some(SampleMirror::new(&market, &cfg)?)
    } else {
        None
    };
    let dance = Dance::offline(&market, Vec::new(), cfg)?;
    let grid = grid(spec, &w, &dance);
    Ok(Setup {
        market,
        dance,
        grid,
        mirror,
    })
}

/// Should the loop stop before request `i`?
fn done(i: usize, min: usize, started: Instant, seconds: f64) -> bool {
    i >= min && started.elapsed().as_secs_f64() >= seconds
}

/// The plain pass through the production entry points.
fn plain_pass(spec: &AcqSpec, seed: u64, s: &mut Setup, seconds: f64) -> Pass {
    let mut p = Pass::default();
    let mut ledger = s.dance.sample_cost();
    let mut spends_match = true;
    let mut seen = HashSet::new();
    let mut churn = Churn::new(spec, &s.market).expect("churn sellers");
    let started = Instant::now();
    let mut i = 0;
    while !done(i, spec.min_requests, started, seconds) {
        let in_digest = i < spec.min_requests;
        if let (Some(mirror), true) = (s.mirror.as_mut(), i > 0) {
            let (id, full) = churn.next(spec, seed, &s.market).expect("churn input");
            let t0 = Instant::now();
            let applied = s.market.apply_update(id, &full).and_then(|_| {
                let sd = mirror.sample_delta(id, &full);
                s.dance.apply_sample_delta(id.0, &sd).map(|_| sd)
            });
            p.update_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            p.attempted += 1;
            match applied {
                Ok(sd) if in_digest => {
                    p.digest.u64(u64::from(id.0));
                    p.digest.u64(sd.deleted().len() as u64);
                    p.digest.u64(sd.inserted().len() as u64);
                }
                Ok(_) => {}
                Err(_) => p.failed += 1,
            }
        }
        let k = grid_index(seed, s.grid.len(), i);
        if !seen.insert((k, s.market.catalog_version())) {
            p.repeats += 1;
        }
        let req = &s.grid[k].req;
        let t0 = Instant::now();
        let plan = catch_unwind(AssertUnwindSafe(|| s.dance.acquire(&s.market, req)));
        let search = t0.elapsed().as_secs_f64();
        // Same grid entry after the same seller's update: the same work.
        p.kinds.push(churn.state * s.grid.len() + k);
        p.search_ms.push(search * 1e3);
        p.attempted += 1;
        let mut d = Digest::default();
        d.u64(k as u64);
        match plan {
            Ok(Ok(Some(plan))) => {
                let t1 = Instant::now();
                let mut wallet = Budget::new(f64::INFINITY);
                let bought = s.dance.purchase(&s.market, &plan, &mut wallet);
                let truth = spec
                    .truth
                    .then(|| s.dance.evaluate_true(&s.market, &plan.graph, req));
                p.request_ms
                    .push((search + t1.elapsed().as_secs_f64()) * 1e3);
                digest_plan(&mut d, &plan);
                match bought {
                    Ok(bought) => {
                        let quoted = plan.queries.iter().fold(0.0, |acc, q| {
                            let price = s.market.quote(q.dataset, &q.attrs).expect("quote");
                            ledger += price;
                            acc + price
                        });
                        spends_match &= wallet.spent().to_bits() == quoted.to_bits();
                        d.f64(wallet.spent());
                        for t in &bought {
                            d.u64(t.num_rows() as u64);
                        }
                    }
                    Err(_) => p.failed += 1,
                }
                match truth {
                    Some(Ok(t)) => {
                        digest_metrics(&mut d, &t);
                        p.gaps
                            .entry(k)
                            .or_insert((plan.estimated.correlation, t.corr));
                    }
                    Some(Err(_)) => p.failed += 1,
                    None => {}
                }
            }
            Ok(Ok(None)) => {
                p.request_ms.push(search * 1e3);
                d.u64(0);
            }
            Ok(Err(_)) | Err(_) => {
                p.request_ms.push(search * 1e3);
                p.failed += 1;
            }
        }
        if in_digest {
            p.digest.u64(d.value());
        }
        i += 1;
    }
    p.wall_s = started.elapsed().as_secs_f64();
    p.check("purchase spend equals the sum of quotes", spends_match);
    p.check(
        "revenue equals sample cost plus purchases",
        s.market.revenue().to_bits() == ledger.to_bits(),
    );
    if let Some(m) = &s.mirror {
        p.check(
            "patched samples equal rebuilt samples",
            m.matches_rebuild(&s.market, s.dance.graph())
                .unwrap_or(false),
        );
    }
    p
}

/// Span names of one evaluation tier.
struct Tier {
    project: &'static str,
    weight: &'static str,
    price: &'static str,
    join: &'static str,
    corr: &'static str,
    tane: &'static str,
}

const FULL: Tier = Tier {
    project: "core.project_full_s",
    weight: "info.ji_full_s",
    price: "market.price_full_s",
    join: "sampling.join_full_s",
    corr: "info.corr_full_s",
    tane: "quality.tane_full_s",
};

const SAMPLE: Tier = Tier {
    project: "core.project_sample_s",
    weight: "core.weight_sample_s",
    price: "core.price_sample_s",
    join: "sampling.join_sample_s",
    corr: "info.corr_sample_s",
    tane: "quality.tane_sample_s",
};

/// `evaluate_assignment` through its per-layer calls: projections, weight
/// and price folds, the tree join, CORR and quality. Returns the target
/// graph and the joined row count.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    graph: &JoinGraph,
    free: &FxHashSet<u32>,
    tg: &TargetGraph,
    sc: &Cover,
    tc: &Cover,
    req: &AcquisitionRequest,
    tables: Option<&[Table]>,
    resample: Option<&ResampleConfig>,
    tane: &TaneConfig,
    tier: &Tier,
    sp: &mut Spans,
) -> Result<(TargetGraph, usize)> {
    let mut vertices: BTreeSet<u32> = sc.keys().chain(tc.keys()).copied().collect();
    for &(a, b) in &tg.tree_edges {
        vertices.insert(a);
        vertices.insert(b);
    }
    let mut projections: BTreeMap<u32, AttrSet> = BTreeMap::new();
    for &v in &vertices {
        let mut p = AttrSet::empty();
        for (e, &(a, b)) in tg.tree_edges.iter().enumerate() {
            if a == v || b == v {
                p = p.union(&tg.join_attrs[e]);
            }
        }
        for c in [sc, tc] {
            if let Some(s) = c.get(&v) {
                p = p.union(s);
            }
        }
        projections.insert(v, p);
    }
    let mut weight = 0.0;
    for (&(a, b), j) in tg.tree_edges.iter().zip(&tg.join_attrs) {
        weight += sp.time(tier.weight, || match tables {
            None => graph
                .weight(a, b, j)
                .ok_or_else(|| RelationError::InvalidJoin(format!("no weight for ({a},{b})"))),
            Some(full) => join_informativeness(&full[a as usize], &full[b as usize], j),
        })?;
    }
    let mut price = 0.0;
    for (&v, attrs) in &projections {
        if !free.contains(&v) {
            price += sp.time(tier.price, || graph.price_for_eval(v, attrs, tables))?;
        }
    }
    let order: Vec<u32> = projections.keys().copied().collect();
    let projected = sp.time(tier.project, || {
        order
            .iter()
            .map(|&v| graph.projected_for_eval(v, &projections[&v], tables))
            .collect::<Result<Vec<Arc<Table>>>>()
    })?;
    let refs: Vec<&Table> = projected.iter().map(Arc::as_ref).collect();
    let pos = |v: u32| order.binary_search(&v).expect("tree vertex is projected");
    let joined = sp.time(tier.join, || {
        if tg.tree_edges.is_empty() {
            return Ok((*projected[0]).clone());
        }
        let edges: Vec<JoinEdge> = tg
            .tree_edges
            .iter()
            .zip(&tg.join_attrs)
            .map(|(&(a, b), on)| JoinEdge {
                a: pos(a),
                b: pos(b),
                on: on.clone(),
            })
            .collect();
        join_tree_bounded_with(&graph.executor(), &refs, &edges, resample).map(|j| j.0)
    })?;
    let rows = joined.num_rows();
    let corr = sp.time(tier.corr, || {
        if rows == 0 {
            return Ok(0.0);
        }
        let raw = correlation_with(
            &joined,
            &req.source_attrs,
            &req.target_attrs,
            CorrOptions::default(),
        )?;
        Ok::<f64, RelationError>(match tables {
            Some(_) => raw,
            None => raw * rows as f64 / (rows as f64 + 20.0),
        })
    })?;
    let quality = sp.time(tier.tane, || instance_set_quality(&joined, tane))?;
    Ok((
        TargetGraph {
            tree_edges: tg.tree_edges.clone(),
            join_attrs: tg.join_attrs.clone(),
            projections,
            corr,
            weight,
            quality,
            price,
        },
        rows,
    ))
}

/// Covers of `attrs` over the graph's instances (no shopper-owned sources,
/// so instance order is the preference order).
fn covers_of(graph: &JoinGraph, attrs: &AttrSet, limit: usize) -> Vec<Cover> {
    if attrs.is_empty() {
        return vec![Cover::new()];
    }
    let available: Vec<(u32, AttrSet)> = (0..graph.num_instances() as u32)
        .filter_map(|v| {
            let offer = attrs.intersect(&graph.meta(v).attr_set());
            (!offer.is_empty()).then_some((v, offer))
        })
        .collect();
    enumerate_covers(attrs, &available, limit)
}

/// Covers a target graph's projections imply (what `evaluate_true`
/// reconstructs).
fn implied_covers(tg: &TargetGraph, req: &AcquisitionRequest) -> (Cover, Cover) {
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
    (sc, tc)
}

/// Per-layer counts the traced pass gathers besides span times.
#[derive(Default)]
struct Counts {
    igraphs: u64,
    sel: (u64, u64),
    proj: (u64, u64),
    join_sample_rows: u64,
    join_full_rows: u64,
    empty_sample_joins: u64,
    estimate_mismatches: u64,
}

/// The shopper state of the traced pass: what `Dance` holds, built from
/// the same public calls.
struct Shopper {
    graph: JoinGraph,
    free: FxHashSet<u32>,
    ids: Vec<Option<(DatasetId, String)>>,
    sample_cost: f64,
}

fn traced_offline(market: &Marketplace, cfg: &DanceConfig, sp: &mut Spans) -> Result<Shopper> {
    let catalog: Vec<DatasetMeta> = market.catalog();
    let mut samples = Vec::with_capacity(catalog.len());
    let mut ids = Vec::with_capacity(catalog.len());
    let mut sample_cost = 0.0;
    for meta in &catalog {
        let (sample, cost) = sp.time("market.buy_sample_s", || {
            market.buy_sample(meta.id, &meta.default_key, cfg.sampling_rate, cfg.seed)
        })?;
        sample_cost += cost;
        ids.push(Some((meta.id, meta.name.clone())));
        samples.push(sample);
    }
    let graph = sp.time("core.join_graph_build_s", || {
        JoinGraph::build(catalog, samples, EntropyPricing::default(), &cfg.graph)
    })?;
    Ok(Shopper {
        graph,
        free: FxHashSet::default(),
        ids,
        sample_cost,
    })
}

fn traced_search(
    sh: &Shopper,
    req: &AcquisitionRequest,
    cfg: &DanceConfig,
    sp: &mut Spans,
    n: &mut Counts,
) -> Result<Option<AcquisitionPlan>> {
    let g = &sh.graph;
    let scovers = sp.time("core.covers_s", || {
        covers_of(g, &req.source_attrs, cfg.max_covers)
    });
    let tcovers = sp.time("core.covers_s", || {
        covers_of(g, &req.target_attrs, cfg.max_covers)
    });
    if scovers.is_empty() || tcovers.is_empty() {
        return Ok(None);
    }
    let lm = sp.time("core.step1_s", || {
        LandmarkIndex::build(g, cfg.landmarks, cfg.seed)
    });
    let mut candidates = Vec::new();
    'pairs: for sc in &scovers {
        for tc in &tcovers {
            if candidates.len() >= cfg.max_cover_pairs {
                break 'pairs;
            }
            let mut required: Vec<u32> = sc.keys().chain(tc.keys()).copied().collect();
            required.sort_unstable();
            required.dedup();
            if required.is_empty() {
                continue;
            }
            let igs = sp.time("core.step1_s", || {
                candidate_igraphs(g, &lm, &required, req.constraints.alpha)
            });
            n.igraphs += igs.len() as u64;
            for ig in igs {
                candidates.push((ig.total_weight, ig, sc, tc));
            }
        }
    }
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut best: Option<TargetGraph> = None;
    for (_, ig, sc, tc) in candidates.into_iter().take(cfg.max_igraphs) {
        let (sel0, proj0) = (g.sel_cache_stats(), g.proj_cache_stats());
        let found = sp.time("core.mcmc_s", || {
            find_optimal_target_graph(
                g,
                &sh.free,
                &ig.edges,
                sc,
                tc,
                &req.source_attrs,
                &req.target_attrs,
                &req.constraints,
                &cfg.mcmc,
            )
        })?;
        let (sel1, proj1) = (g.sel_cache_stats(), g.proj_cache_stats());
        n.sel.0 += sel1.0 - sel0.0;
        n.sel.1 += sel1.1 - sel0.1;
        n.proj.0 += proj1.0 - proj0.0;
        n.proj.1 += proj1.1 - proj0.1;
        if let Some(tg) = found {
            if best.as_ref().is_none_or(|b| tg.corr > b.corr) {
                best = Some(tg);
            }
        }
    }
    Ok(best
        .map(|tg| AcquisitionPlan::from_target_graph(tg, &sh.free, |v| sh.ids[v as usize].clone())))
}

/// The traced pass: same inputs, same order, per-layer calls timed.
/// `probe` collects the extra sample-tier evaluation of each chosen plan,
/// which the production path does not run and which is kept out of the
/// pass's own accounting.
fn traced_pass(
    spec: &AcqSpec,
    seed: u64,
    grid: &[GridReq],
    sp: &mut Spans,
    probe: &mut Spans,
    n: &mut Counts,
) -> Result<Pass> {
    let w = generate(spec)?;
    let cfg = config(spec);
    let market = Marketplace::new(w.tables, EntropyPricing::default());
    let mut mirror = if spec.churn > 0.0 {
        Some(SampleMirror::new(&market, &cfg)?)
    } else {
        None
    };
    let mut sh = traced_offline(&market, &cfg, sp)?;
    let offline_s = sp.sum();
    let started = Instant::now();
    let mut p = Pass::default();
    let mut ledger = sh.sample_cost;
    let mut seen = HashSet::new();
    let mut churn = Churn::new(spec, &market)?;
    for i in 0..spec.min_requests {
        if let (Some(mirror), true) = (mirror.as_mut(), i > 0) {
            let (id, full) = churn.next(spec, seed, &market)?;
            let t0 = Instant::now();
            sp.time("market.apply_update_s", || market.apply_update(id, &full))?;
            let sd = sp.time("bench.sample_delta_s", || mirror.sample_delta(id, &full));
            sp.time("core.apply_delta_s", || sh.graph.apply_delta(id.0, &sd))?;
            p.update_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            p.attempted += 1;
            p.digest.u64(u64::from(id.0));
            p.digest.u64(sd.deleted().len() as u64);
            p.digest.u64(sd.inserted().len() as u64);
        }
        let k = grid_index(seed, grid.len(), i);
        if !seen.insert((k, market.catalog_version())) {
            p.repeats += 1;
        }
        let req = &grid[k].req;
        let t0 = Instant::now();
        let plan = traced_search(&sh, req, &cfg, sp, n);
        p.search_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        p.attempted += 1;
        let mut d = Digest::default();
        d.u64(k as u64);
        match plan {
            Ok(Some(plan)) => {
                digest_plan(&mut d, &plan);
                let (sc, tc) = implied_covers(&plan.graph, req);
                let (est, rows) = evaluate(
                    &sh.graph,
                    &sh.free,
                    &plan.graph,
                    &sc,
                    &tc,
                    req,
                    None,
                    cfg.mcmc.resample.as_ref(),
                    &cfg.mcmc.tane,
                    &SAMPLE,
                    probe,
                )?;
                n.join_sample_rows += rows as u64;
                n.empty_sample_joins += u64::from(rows == 0);
                if est.corr.to_bits() != plan.graph.corr.to_bits()
                    || est.quality.to_bits() != plan.graph.quality.to_bits()
                {
                    n.estimate_mismatches += 1;
                }
                // `Dance::purchase`: quote everything, charge once, execute.
                let mut wallet = Budget::new(f64::INFINITY);
                let bought = sp.time("market.purchase_s", || -> Result<Vec<Table>> {
                    let mut total = 0.0;
                    for q in &plan.queries {
                        total += market.quote(q.dataset, &q.attrs)?;
                    }
                    wallet
                        .try_spend(total)
                        .map_err(|e| RelationError::Shape(e.to_string()))?;
                    plan.queries
                        .iter()
                        .map(|q| {
                            market.execute(q).map(|(t, price)| {
                                ledger += price;
                                t
                            })
                        })
                        .collect()
                })?;
                d.f64(wallet.spent());
                for t in &bought {
                    d.u64(t.num_rows() as u64);
                }
                if spec.truth {
                    // `Dance::evaluate_true`: full tables, then the full tier.
                    let tables = sp.time("market.full_fetch_s", || {
                        sh.ids
                            .iter()
                            .map(|id| {
                                let (id, _) = id.as_ref().expect("marketplace vertex");
                                market
                                    .full_table_for_evaluation(*id)
                                    .map(|t| t.as_ref().clone())
                            })
                            .collect::<Result<Vec<Table>>>()
                    })?;
                    let (t, rows) = evaluate(
                        &sh.graph,
                        &sh.free,
                        &plan.graph,
                        &sc,
                        &tc,
                        req,
                        Some(&tables),
                        None,
                        &cfg.mcmc.tane,
                        &FULL,
                        sp,
                    )?;
                    n.join_full_rows += rows as u64;
                    digest_metrics(&mut d, &t);
                    p.gaps
                        .entry(k)
                        .or_insert((plan.estimated.correlation, t.corr));
                }
            }
            Ok(None) => d.u64(0),
            Err(_) => p.failed += 1,
        }
        p.digest.u64(d.value());
    }
    // The plain pass's clock starts after `Dance::offline` too, and the
    // probe evaluations are not part of the production path.
    p.wall_s = started.elapsed().as_secs_f64() - probe.sum();
    p.spans_s = sp.sum() - offline_s;
    p.check(
        "revenue equals sample cost plus purchases",
        market.revenue().to_bits() == ledger.to_bits(),
    );
    if let Some(m) = &mirror {
        p.check(
            "patched samples equal rebuilt samples",
            m.matches_rebuild(&market, &sh.graph)?,
        );
    }
    Ok(p)
}

fn ratio(hm: (u64, u64)) -> f64 {
    match hm.0 + hm.1 {
        0 => 0.0,
        total => hm.0 as f64 / total as f64,
    }
}

pub fn run(spec: &AcqSpec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome> {
    let mut out = Outcome {
        chains: spec.chains,
        ..Outcome::default()
    };
    let mut report = Json::default();
    report.str("workload", spec.name);
    report.num("scale", spec.scale);
    report.int("min_requests", spec.min_requests as u64);
    if !trace {
        let mut setup_s = Vec::new();
        let mut last = None;
        while more_setups(&setup_s) {
            drop(last.take());
            let t0 = Instant::now();
            last = Some(setup(spec)?);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let mut s = last.expect("set up at least once");
        let p = plain_pass(spec, seed, &mut s, seconds);
        // Requests of one kind (grid entry, and the seller whose update came
        // last) repeat the same search, so the figures use each request's
        // fastest warm repeat of its kind (see `util::floors`).
        let search = sorted(floors(&p.kinds, &p.search_ms));
        let raw = sorted(p.search_ms.clone());
        let level = tail_level(spec.min_requests);
        out.metrics.put("setup_s", median(&setup_s), "s");
        out.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
        let p50 = percentile(&search, 50.0);
        let tail = percentile(&search, level);
        let rate = search.len() as f64 * 1e3 / floors(&p.kinds, &p.request_ms).iter().sum::<f64>();
        out.metrics.put("p50_ms", p50, "ms");
        out.metrics.put("tail_ms", tail, "ms");
        out.metrics.put("throughput_per_s", rate, "1/s");
        report.num("search_p50_ms", p50);
        report.num("search_tail_ms", tail);
        report.num("acquisitions_per_s", rate);
        report.num("search_tail_percentile", level);
        report.int("search_samples", search.len() as u64);
        report.num("raw_search_p50_ms", percentile(&raw, 50.0));
        report.num("raw_search_tail_ms", percentile(&raw, level));
        report.num(
            "raw_acquisitions_per_s",
            raw.len() as f64 * 1e3 / p.request_ms.iter().sum::<f64>(),
        );
        if !p.update_ms.is_empty() {
            report.num("update_p50_ms", median(&p.update_ms));
        }
        finish(&mut out, report, spec, seed, &p, &s.grid);
        return Ok(out);
    }

    // Traced run: the plain pass over exactly `min_requests` requests, then
    // the traced pass over the same inputs; outputs must match bit for bit.
    let mut s = setup(spec)?;
    let grid = s.grid.clone();
    let plain = plain_pass(spec, seed, &mut s, 0.0);
    drop(s);
    let (mut sp, mut probe, mut n) = (Spans::default(), Spans::default(), Counts::default());
    let traced = traced_pass(spec, seed, &grid, &mut sp, &mut probe, &mut n)?;
    let identical = traced.digest.value() == plain.digest.value();
    out.check("traced outputs equal plain outputs", identical);
    out.check(
        "plan estimates re-evaluate bit-identically",
        n.estimate_mismatches == 0,
    );
    for (name, ok) in &traced.checks {
        out.check(name, *ok);
    }
    let plans = probe.calls(SAMPLE.tane).max(1) as f64;
    let m = &mut out.metrics;
    m.put("market.buy_sample_s", sp.secs("market.buy_sample_s"), "s");
    m.put(
        "core.join_graph_build_s",
        sp.secs("core.join_graph_build_s"),
        "s",
    );
    m.put("core.step1_s", sp.secs("core.step1_s"), "s");
    m.put("core.igraph_candidates", n.igraphs as f64, "count");
    m.put("core.mcmc_s", sp.secs("core.mcmc_s"), "s");
    m.put("core.mcmc_calls", sp.calls("core.mcmc_s") as f64, "count");
    m.put("core.sel_hit_ratio", ratio(n.sel), "ratio");
    m.put("core.proj_hit_ratio", ratio(n.proj), "ratio");
    m.put("sampling.join_sample_ms", probe.mean_ms(SAMPLE.join), "ms");
    m.put(
        "relation.join_sample_rows",
        n.join_sample_rows as f64 / plans,
        "rows",
    );
    m.put("info.corr_sample_ms", probe.mean_ms(SAMPLE.corr), "ms");
    m.put("quality.tane_sample_ms", probe.mean_ms(SAMPLE.tane), "ms");
    m.put(
        "core.empty_sample_joins",
        n.empty_sample_joins as f64,
        "count",
    );
    m.put("market.purchase_s", sp.secs("market.purchase_s"), "s");
    let truths = sp.calls(FULL.tane).max(1) as f64;
    m.put("market.full_fetch_s", sp.secs("market.full_fetch_s"), "s");
    m.put("core.project_full_s", sp.secs(FULL.project), "s");
    m.put("sampling.join_full_s", sp.secs(FULL.join), "s");
    m.put(
        "relation.join_full_rows",
        n.join_full_rows as f64 / truths,
        "rows",
    );
    m.put("info.corr_full_s", sp.secs(FULL.corr), "s");
    m.put("info.ji_full_s", sp.secs(FULL.weight), "s");
    m.put("market.price_full_s", sp.secs(FULL.price), "s");
    m.put("quality.tane_full_s", sp.secs(FULL.tane), "s");
    m.put(
        "market.apply_update_ms",
        sp.mean_ms("market.apply_update_s"),
        "ms",
    );
    m.put(
        "core.apply_delta_ms",
        sp.mean_ms("core.apply_delta_s"),
        "ms",
    );
    // Accounting: leaf spans against the traced pass's wall time.
    let residual = traced.wall_s - traced.spans_s;
    m.put("trace.residual_s", residual, "s");
    m.put("trace.residual_share", residual / traced.wall_s, "ratio");
    m.put("trace.overhead_s", traced.wall_s - plain.wall_s, "s");
    if !plain.update_ms.is_empty() {
        m.put("update_p50_ms", median(&plain.update_ms), "ms");
    }
    report.num("traced_wall_s", traced.wall_s);
    report.num("plain_wall_s", plain.wall_s);
    report.num("probe_s", probe.sum());
    finish(&mut out, report, spec, seed, &traced, &grid);
    Ok(out)
}

/// Checks, counts and report fields both run kinds share.
fn finish(
    out: &mut Outcome,
    mut report: Json,
    spec: &AcqSpec,
    seed: u64,
    p: &Pass,
    grid: &[GridReq],
) {
    for (name, ok) in &p.checks {
        out.check(name, *ok);
    }
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.digest = Some((format!("{}-{seed}-{:?}", spec.name, spec), p.digest.value()));
    let share = p.repeats as f64 / p.search_ms.len() as f64;
    out.metrics.put("workload.repeat_share", share, "ratio");
    report.num("repeat_share", share);
    report.int("grid", grid.len() as u64);
    let mut gaps = Json::default();
    for (k, (est, truth)) in &p.gaps {
        let mut g = Json::default();
        g.num("estimated_corr", *est);
        g.num("true_corr", *truth);
        gaps.obj(&grid[*k].label, &g);
    }
    report.obj("estimator_gap", &gaps);
    if !p.gaps.is_empty() {
        let ratios: Vec<f64> = p
            .gaps
            .values()
            .filter(|(_, t)| *t > 0.0)
            .map(|(e, t)| e / t)
            .collect();
        out.metrics.put(
            "est.corr_ratio_median",
            if ratios.is_empty() {
                0.0
            } else {
                median(&ratios)
            },
            "ratio",
        );
    }
    out.report = Some(report);
}
