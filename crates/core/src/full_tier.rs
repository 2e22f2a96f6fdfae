//! The full-data tier of an evaluation: what [`crate::Dance::evaluate_true`]
//! and the GP baseline read in place of the join-graph samples.
//!
//! A [`FullTier`] pins every graph vertex's full table at **one** catalog
//! snapshot. It shares the listed tables (`Arc` handles, never deep copies)
//! and carries each listed vertex's `(dataset, listing version)`. A listing
//! version names one immutable table, so the two per-listing scalars an
//! evaluation reads besides the join itself are memoized on the
//! [`JoinGraph`] under keys built from those versions:
//!
//! * the entry price of a projection, keyed `(dataset, version, attrs)`;
//! * the JI of a tree edge, keyed `(a, version a, b, version b, J)` in the
//!   edge's evaluated endpoint order.
//!
//! The memo is exact, and a seller update simply stops hitting the old keys.
//! Shopper-owned sources carry no version and are always recomputed. Full
//! projections and histograms are never cached, so memory stays flat.

use crate::join_graph::JoinGraph;
use dance_info::ji::join_informativeness;
use dance_market::{CatalogSnapshot, DatasetId, PricingModel};
use dance_relation::{AttrSet, RelationError, Result, Table};
use std::sync::Arc;

/// `(dataset, listing version)`: one immutable listed table.
type Listing = (DatasetId, u64);

/// Key of the graph's full-tier memo ([`JoinGraph::full_price`],
/// [`JoinGraph::full_ji`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum FullKey {
    /// Entry price of a projection of one listing.
    Price(Listing, AttrSet),
    /// JI of an edge, endpoints in evaluated order, on one join set.
    Ji(Listing, Listing, AttrSet),
}

/// Every graph vertex's full table, pinned at one catalog snapshot.
#[derive(Debug, Clone)]
pub struct FullTier {
    tables: Vec<Arc<Table>>,
    /// Per vertex: the listing it was pinned at, `None` for shopper-owned
    /// sources (never memoized).
    listings: Vec<Option<Listing>>,
}

impl FullTier {
    /// Pin the full tier at `snapshot`. Vertex `v` is the listed dataset
    /// `vertices[v]`, or for `None` the next table of `owned` in order.
    pub fn pin(
        snapshot: &CatalogSnapshot,
        vertices: impl IntoIterator<Item = Option<DatasetId>>,
        owned: &[Arc<Table>],
    ) -> Result<FullTier> {
        let mut owned = owned.iter();
        let mut tier = FullTier {
            tables: Vec::new(),
            listings: Vec::new(),
        };
        for vertex in vertices {
            let (table, listing) = match vertex {
                Some(id) => (
                    Arc::clone(snapshot.table(id)?),
                    Some((id, snapshot.meta(id)?.version)),
                ),
                None => {
                    let table = owned.next().ok_or_else(|| {
                        RelationError::Shape("fewer shopper-owned tables than sources".into())
                    })?;
                    (Arc::clone(table), None)
                }
            };
            tier.tables.push(table);
            tier.listings.push(listing);
        }
        Ok(tier)
    }

    /// Vertex `v`'s full table.
    pub fn table(&self, v: u32) -> &Table {
        &self.tables[v as usize]
    }

    /// Vertex `v`'s `(dataset, listing version)`, `None` when shopper-owned.
    pub fn listing(&self, v: u32) -> Option<(DatasetId, u64)> {
        self.listings[v as usize]
    }

    /// Project vertex `v`'s full table onto `attrs` (fresh; never cached).
    pub(crate) fn projected(&self, v: u32, attrs: &AttrSet) -> Result<Arc<Table>> {
        Ok(Arc::new(self.table(v).project(attrs)?))
    }

    /// The same tables with every listing forgotten: each price and JI is
    /// recomputed — the uncached reference the memo is pinned against.
    #[cfg(test)]
    pub(crate) fn unversioned(&self) -> FullTier {
        FullTier {
            tables: self.tables.clone(),
            listings: vec![None; self.listings.len()],
        }
    }
}

impl JoinGraph {
    /// Exact entry price of projecting vertex `v`'s full table onto
    /// `attrs`, memoized per `(dataset, listing version, attrs)`.
    pub fn full_price(&self, tier: &FullTier, v: u32, attrs: &AttrSet) -> Result<f64> {
        let key = tier.listing(v).map(|l| FullKey::Price(l, attrs.clone()));
        self.full_memoized(key, || self.pricing().price(tier.table(v), attrs))
    }

    /// Exact JI of edge `(a, b)` on `on` over the full tables, memoized per
    /// `(a, version a, b, version b, on)` in this endpoint order.
    pub fn full_ji(&self, tier: &FullTier, a: u32, b: u32, on: &AttrSet) -> Result<f64> {
        let key = tier
            .listing(a)
            .zip(tier.listing(b))
            .map(|(la, lb)| FullKey::Ji(la, lb, on.clone()));
        self.full_memoized(key, || {
            join_informativeness(tier.table(a), tier.table(b), on)
        })
    }

    /// Serve `key` from the full-tier memo, or compute and remember it. A
    /// `None` key (a shopper-owned endpoint) always computes.
    fn full_memoized(
        &self,
        key: Option<FullKey>,
        compute: impl FnOnce() -> Result<f64>,
    ) -> Result<f64> {
        let Some(key) = key else {
            return compute();
        };
        if let Some(x) = self.full_memo.get(&key) {
            return Ok(x);
        }
        let x = compute()?;
        self.full_memo.insert(key, x);
        Ok(x)
    }

    /// Entries currently held by the full-tier memo (tests/benches),
    /// bounded by [`crate::JoinGraphConfig::proj_cache_cap`].
    pub fn full_memo_len(&self) -> usize {
        self.full_memo.len()
    }

    /// Lifetime `(hits, misses)` of the full-tier memo (relaxed counters;
    /// observability only).
    pub fn full_memo_stats(&self) -> (u64, u64) {
        self.full_memo.stats()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::baseline::enumerate_trees;
    use crate::mcmc::{evaluate_assignment, McmcConfig, TargetGraph};
    use crate::{AcquisitionRequest, Dance, DanceConfig};
    use dance_datagen::churn::churn_delta;
    use dance_datagen::scenario;
    use dance_datagen::tpch::TpchConfig;
    use dance_datagen::workload::tpch_workload;
    use dance_market::{EntropyPricing, Marketplace};
    use proptest::prelude::*;

    /// A small marketplace, the shopper's own sources and one request: the
    /// §1 health scenario (with a shopper-owned source) or small TPC-H.
    fn world(tpch: bool, pick: u64) -> (Marketplace, Vec<Table>, AcquisitionRequest) {
        if !tpch {
            let market =
                Marketplace::new(scenario::marketplace_tables(), EntropyPricing::default());
            let req = AcquisitionRequest::new(
                AttrSet::from_names(["age"]),
                AttrSet::from_names(["disease"]),
            );
            return (market, vec![scenario::source_ds()], req);
        }
        let w = tpch_workload(&TpchConfig {
            scale: 0.1,
            dirty_fraction: 0.3,
            seed: 5,
        })
        .unwrap();
        let q = &w.queries[pick as usize % w.queries.len()];
        let req = AcquisitionRequest::new(q.source.clone(), q.target.clone());
        (
            Marketplace::new(w.tables.clone(), EntropyPricing::default()),
            Vec::new(),
            req,
        )
    }

    /// The four metric bits of a target graph.
    pub(crate) fn metric_bits(tg: &TargetGraph) -> [u64; 4] {
        [tg.corr, tg.weight, tg.quality, tg.price].map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// On random plans, with random seller updates of plan listings
        /// between calls, memoized truth is bit-identical to the uncached
        /// reference — also after the caches are cleared.
        #[test]
        fn memoized_truth_matches_the_uncached_reference(
            tpch in 0u64..2,
            seed in 0u64..100_000,
            rounds in prop::collection::vec((0u64..1_000, 0u64..3), 2..6),
        ) {
            let (market, sources, req) = world(tpch == 1, seed);
            let cfg = DanceConfig {
                sampling_rate: 0.5,
                seed,
                mcmc: McmcConfig { resample: None, ..McmcConfig::default() },
                ..DanceConfig::default()
            };
            let d = Dance::offline(&market, sources, cfg).unwrap();

            // A random plan: a random join tree between random covers, a
            // random candidate join set per edge, evaluated on the samples.
            let scovers = d.covers_of(&req.source_attrs);
            let tcovers = d.covers_of(&req.target_attrs);
            prop_assume!(!scovers.is_empty() && !tcovers.is_empty());
            let sc = &scovers[seed as usize % scovers.len()];
            let tc = &tcovers[(seed / 7) as usize % tcovers.len()];
            let mut required: Vec<u32> = sc.keys().chain(tc.keys()).copied().collect();
            required.sort_unstable();
            required.dedup();
            let trees = enumerate_trees(d.graph(), &required, 4, 16);
            prop_assume!(!trees.is_empty());
            let tree = &trees[(seed / 13) as usize % trees.len()];
            let join_attrs: Vec<AttrSet> = tree
                .iter()
                .enumerate()
                .map(|(e, &(a, b))| {
                    let c = d.graph().candidate_join_sets(a, b);
                    c[(seed >> e) as usize % c.len()].clone()
                })
                .collect();
            let plan = evaluate_assignment(
                d.graph(), d.free_vertices(), tree, &join_attrs, sc, tc,
                &req.source_attrs, &req.target_attrs, None, None, &McmcConfig::default().tane,
            ).unwrap();
            let listed: Vec<u32> = plan
                .projections
                .keys()
                .copied()
                .filter(|&v| (v as usize) < market.len())
                .collect();

            let check = |d: &Dance| -> std::result::Result<(), TestCaseError> {
                let reference = d
                    .evaluate_on(&d.full_tier(&market).unwrap().unversioned(), &plan, &req)
                    .unwrap();
                for _ in 0..2 {
                    let truth = d.evaluate_true(&market, &plan, &req).unwrap();
                    prop_assert_eq!(metric_bits(&truth), metric_bits(&reference));
                }
                Ok(())
            };
            for (i, &(pick, op)) in rounds.iter().enumerate() {
                if op > 0 && !listed.is_empty() {
                    let id = DatasetId(listed[pick as usize % listed.len()]);
                    let full = market.full_table_for_evaluation(id).unwrap();
                    let delta = churn_delta(&full, 0.05 * op as f64, 0.05, seed + i as u64);
                    market.apply_update(id, &delta).unwrap();
                }
                check(&d)?;
            }
            prop_assert!(listed.is_empty() || d.graph().full_memo_stats().0 > 0, "the memo served hits");
            d.graph().clear_eval_caches();
            prop_assert_eq!(d.graph().full_memo_len(), 0);
            check(&d)?;
        }
    }
}
