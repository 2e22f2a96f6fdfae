//! The marketplace `M`: catalog, sample vending, query execution.
//!
//! Mirrors the interaction model of Figure 1: schema metadata is free, sample
//! purchases and projection queries cost money, and every sale is recorded so
//! experiments can report exactly what a strategy paid.
//!
//! ## Concurrency model
//!
//! The marketplace is a **shared-readable core**: every shopper-facing method
//! takes `&self`, so hundreds of concurrent sessions (see [`crate::session`])
//! can browse, quote and purchase against one `Arc<Marketplace>` without a
//! global lock.
//!
//! * The catalog is an immutable [`CatalogSnapshot`] behind an `RwLock<Arc<…>>`
//!   — readers clone the `Arc` (one atomic refcount bump) and then operate
//!   entirely lock-free on frozen listings. Sellers publish new dataset
//!   versions via [`Marketplace::apply_update`], which swaps in a fresh
//!   snapshot; in-flight readers keep the version they pinned, so no reader
//!   ever observes a torn catalog (the invariant `Σ listing versions ==
//!   snapshot version` holds in every snapshot ever vended).
//! * Revenue accounting is **striped per account** (one stripe per session,
//!   plus an anonymous stripe for direct calls): each sale adds its price to
//!   its stripe's running sums under a short-lived mutex, and
//!   [`Marketplace::revenue`] folds stripes in account order. A stripe is a
//!   left fold from 0.0 in purchase order, so per-session subtotals are
//!   bit-identical to the session's own ledger no matter how sessions
//!   interleave, and the total is deterministic for any fixed set of
//!   per-session histories. A stripe holds three sums, not a sale list, so
//!   its size does not grow with the sales it records.
//! * Sales counters are plain atomics.

use crate::budget::Budget;
use crate::catalog::{DatasetId, DatasetMeta};
use crate::pricing::{EntropyPricing, PricingModel};
use crate::query::ProjectionQuery;
use crate::session::SessionId;
use dance_relation::{AttrSet, RelationError, Result, Table, TableDelta};
use dance_sampling::CorrelatedSampler;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One dataset held by the marketplace.
#[derive(Debug)]
struct Listing {
    meta: DatasetMeta,
    table: Arc<Table>,
}

/// One immutable catalog state. Updates never mutate a published state; they
/// build a successor and swap the `Arc`.
#[derive(Debug)]
struct CatalogState {
    listings: Vec<Arc<Listing>>,
    /// Global catalog version: bumped by one on every seller update, so
    /// `version == Σ listing.meta.version` in every coherent state — a
    /// cheap tearing detector for sessions.
    version: u64,
}

/// A pinned, immutable view of the catalog: listings, schema metadata and
/// pricing frozen at one catalog version. Cloning is one `Arc` bump; all
/// methods are lock-free. This is what a [`crate::session::Session`] pins at
/// open time and shops against for its whole lifetime.
#[derive(Debug, Clone)]
pub struct CatalogSnapshot {
    state: Arc<CatalogState>,
    pricing: EntropyPricing,
}

impl CatalogSnapshot {
    /// The global catalog version this snapshot was taken at.
    pub fn version(&self) -> u64 {
        self.state.version
    }

    /// Number of listed datasets.
    pub fn len(&self) -> usize {
        self.state.listings.len()
    }

    /// `true` when nothing is listed.
    pub fn is_empty(&self) -> bool {
        self.state.listings.is_empty()
    }

    fn listing(&self, id: DatasetId) -> Result<&Listing> {
        self.state
            .listings
            .get(id.0 as usize)
            .map(|l| l.as_ref())
            .ok_or_else(|| RelationError::UnknownDataset(id.to_string()))
    }

    /// Free schema-level catalog (what the I-layer is built from).
    pub fn metas(&self) -> Vec<DatasetMeta> {
        self.state.listings.iter().map(|l| l.meta.clone()).collect()
    }

    /// Metadata of one dataset.
    pub fn meta(&self, id: DatasetId) -> Result<&DatasetMeta> {
        Ok(&self.listing(id)?.meta)
    }

    /// The listed table at this snapshot's version (shared, not copied).
    pub fn table(&self, id: DatasetId) -> Result<&Arc<Table>> {
        Ok(&self.listing(id)?.table)
    }

    /// Quote the price of a projection query at this snapshot's prices.
    pub fn quote(&self, id: DatasetId, attrs: &AttrSet) -> Result<f64> {
        let listing = self.listing(id)?;
        self.pricing.price(&listing.table, attrs)
    }

    /// Draw a correlated sample (and price it) from this snapshot — pure:
    /// no revenue is recorded. [`Marketplace::buy_sample`] and
    /// [`crate::session::Session::buy_sample`] wrap this with accounting.
    pub fn sample(
        &self,
        id: DatasetId,
        key_attrs: &AttrSet,
        rate: f64,
        seed: u64,
    ) -> Result<(Table, f64)> {
        let listing = self.listing(id)?;
        let sampler = CorrelatedSampler::new(rate, seed);
        let sample = sampler.sample(&listing.table, key_attrs)?;
        let price = self
            .pricing
            .sample_price(&listing.table, &listing.meta.attr_set(), rate)?;
        Ok((sample, price))
    }

    /// Quote a batch of projections in one call. The listing is resolved
    /// once per item, and prices are memoized per distinct
    /// `(dataset, attrs)` pair — pricing is a pure function of the pinned
    /// listing, so a repeated quote inside a batch is answered from the
    /// memo, bit-identical to per-item [`CatalogSnapshot::quote`] calls.
    /// Prices come back in item order.
    pub fn quote_batch(&self, items: &[(DatasetId, AttrSet)]) -> Result<Vec<f64>> {
        use std::collections::hash_map::Entry;
        let mut memo: std::collections::HashMap<(DatasetId, &AttrSet), f64> =
            std::collections::HashMap::with_capacity(items.len());
        let mut prices = Vec::with_capacity(items.len());
        for (id, attrs) in items {
            let price = match memo.entry((*id, attrs)) {
                Entry::Occupied(hit) => *hit.get(),
                Entry::Vacant(slot) => {
                    let listing = self.listing(*id)?;
                    *slot.insert(self.pricing.price(&listing.table, attrs)?)
                }
            };
            prices.push(price);
        }
        Ok(prices)
    }

    /// Evaluate a projection query (and price it) — pure, no accounting.
    pub fn project(&self, q: &ProjectionQuery) -> Result<(Table, f64)> {
        let price = self.quote(q.dataset, &q.attrs)?;
        let listing = self.listing(q.dataset)?;
        let data = listing.table.project(&q.attrs)?;
        Ok((data, price))
    }

    /// Sanity invariant: the snapshot is coherent iff the per-listing
    /// versions sum to the global version (each update bumps exactly one
    /// listing and the global counter together).
    pub fn is_coherent(&self) -> bool {
        let sum: u64 = self.state.listings.iter().map(|l| l.meta.version).sum();
        sum == self.state.version
    }
}

/// Which kind of purchase a sale records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SaleKind {
    Sample,
    Query,
}

/// One account's revenue as running sums, each a left fold from 0.0 over
/// the account's sales in purchase order: bit-identical to folding the
/// recorded sale list, without keeping it.
#[derive(Debug, Default, Clone, Copy)]
struct Stripe {
    total: f64,
    sample: f64,
    query: f64,
}

impl Stripe {
    fn record(&mut self, kind: SaleKind, price: f64) {
        self.total += price;
        match kind {
            SaleKind::Sample => self.sample += price,
            SaleKind::Query => self.query += price,
        }
    }
}

/// Striped revenue ledger: one stripe per account, updated under a
/// short-lived mutex on the (rare, money-moving) write path only.
#[derive(Debug, Default)]
struct Accounts {
    /// Direct (non-session) sales.
    anonymous: Stripe,
    /// Per-session stripes, keyed by session id, kept sorted by id.
    sessions: Vec<(SessionId, Stripe)>,
}

impl Accounts {
    fn stripe(&mut self, account: Option<SessionId>) -> &mut Stripe {
        match account {
            None => &mut self.anonymous,
            Some(id) => {
                let at = match self.sessions.binary_search_by_key(&id, |(s, _)| *s) {
                    Ok(at) => at,
                    Err(at) => {
                        self.sessions.insert(at, (id, Stripe::default()));
                        at
                    }
                };
                &mut self.sessions[at].1
            }
        }
    }

    /// Deterministic fold of one running sum over all stripes in account
    /// order (anonymous first, then session ids ascending). Each stripe sum
    /// is its buyer's own purchase-order fold, so the result is independent
    /// of cross-session interleaving.
    fn fold(&self, sum: impl Fn(&Stripe) -> f64) -> f64 {
        self.sessions
            .iter()
            .fold(sum(&self.anonymous), |acc, (_, stripe)| acc + sum(stripe))
    }
}

/// An in-memory data marketplace with entropy-based query pricing, safe to
/// share across threads (`&self` everywhere; see the module docs for the
/// concurrency model).
#[derive(Debug)]
pub struct Marketplace {
    catalog: RwLock<Arc<CatalogState>>,
    pricing: EntropyPricing,
    accounts: Mutex<Accounts>,
    samples_sold: AtomicUsize,
    queries_sold: AtomicUsize,
}

impl Marketplace {
    /// List `tables` with the given pricing model. Dataset ids follow input
    /// order; each dataset's default sample key is its first attribute unless
    /// a `default_key` override is supplied via [`Marketplace::with_keys`].
    pub fn new(tables: Vec<Table>, pricing: EntropyPricing) -> Marketplace {
        Self::build(tables, Vec::new(), pricing)
    }

    /// Same as [`Marketplace::new`] with per-dataset sample-key overrides
    /// (aligned with `tables`; `None` keeps the first-attribute default).
    pub fn with_keys(
        tables: Vec<Table>,
        keys: Vec<Option<AttrSet>>,
        pricing: EntropyPricing,
    ) -> Marketplace {
        Self::build(tables, keys, pricing)
    }

    fn build(tables: Vec<Table>, keys: Vec<Option<AttrSet>>, pricing: EntropyPricing) -> Self {
        let mut keys = keys.into_iter();
        let listings = tables
            .into_iter()
            .enumerate()
            .map(|(i, table)| {
                let schema = table.schema().clone();
                let default_key = keys
                    .next()
                    .flatten()
                    .unwrap_or_else(|| AttrSet::singleton(schema.attributes()[0].id));
                Arc::new(Listing {
                    meta: DatasetMeta {
                        id: DatasetId(i as u32),
                        name: table.name().to_string(),
                        schema,
                        num_rows: table.num_rows(),
                        default_key,
                        version: 0,
                    },
                    table: Arc::new(table),
                })
            })
            .collect();
        Marketplace {
            catalog: RwLock::new(Arc::new(CatalogState {
                listings,
                version: 0,
            })),
            pricing,
            accounts: Mutex::new(Accounts::default()),
            samples_sold: AtomicUsize::new(0),
            queries_sold: AtomicUsize::new(0),
        }
    }

    /// Pin the current catalog state. One `Arc` clone under a read lock;
    /// everything on the returned snapshot is lock-free thereafter.
    pub fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            state: Arc::clone(&self.catalog.read().unwrap()),
            pricing: self.pricing,
        }
    }

    /// Number of listed datasets.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// `true` when nothing is listed.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Global catalog version (bumped once per seller update).
    pub fn catalog_version(&self) -> u64 {
        self.snapshot().version()
    }

    /// Free schema-level catalog (what the I-layer is built from).
    pub fn catalog(&self) -> Vec<DatasetMeta> {
        self.snapshot().metas()
    }

    /// Metadata of one dataset (at the current catalog version).
    pub fn meta(&self, id: DatasetId) -> Result<DatasetMeta> {
        self.snapshot().meta(id).cloned()
    }

    /// Full data access **for evaluation only** (the GP baseline and the
    /// "true correlation" reports); real shoppers pay via [`Self::execute`].
    pub fn full_table_for_evaluation(&self, id: DatasetId) -> Result<Arc<Table>> {
        self.snapshot().table(id).cloned()
    }

    /// Quote the price of a projection query without buying it.
    pub fn quote(&self, id: DatasetId, attrs: &AttrSet) -> Result<f64> {
        self.snapshot().quote(id, attrs)
    }

    /// Buy a correlated sample of dataset `id` keyed on `key_attrs` at `rate`.
    ///
    /// Returns the sample and its price (pro-rata of the full-projection
    /// price over the *whole schema*, since samples expose all attributes).
    /// Charged to the anonymous account; sessions buy via
    /// [`crate::session::Session::buy_sample`] instead.
    pub fn buy_sample(
        &self,
        id: DatasetId,
        key_attrs: &AttrSet,
        rate: f64,
        seed: u64,
    ) -> Result<(Table, f64)> {
        let (sample, price) = self.snapshot().sample(id, key_attrs, rate, seed)?;
        self.record_sale(None, SaleKind::Sample, price);
        Ok((sample, price))
    }

    /// Execute a purchase: returns the projected data and charges its price
    /// to the anonymous account.
    pub fn execute(&self, q: &ProjectionQuery) -> Result<(Table, f64)> {
        let (data, price) = self.snapshot().project(q)?;
        self.record_sale(None, SaleKind::Query, price);
        Ok((data, price))
    }

    /// Buy a batch of projections all-or-nothing, charged to `budget` and
    /// the anonymous account.
    ///
    /// One snapshot is pinned and each query priced on it once. The budget
    /// is charged `Σ prices` (a left fold in query order) before anything is
    /// projected; a refusal leaves budget and revenue untouched. Each sale
    /// is then recorded at the price already charged, so the wallet and the
    /// market's revenue agree bit for bit even while sellers publish updates.
    pub fn purchase(&self, queries: &[ProjectionQuery], budget: &mut Budget) -> Result<Vec<Table>> {
        let snapshot = self.snapshot();
        let prices = queries
            .iter()
            .map(|q| snapshot.quote(q.dataset, &q.attrs))
            .collect::<Result<Vec<f64>>>()?;
        budget
            .try_spend(prices.iter().fold(0.0, |acc, p| acc + p))
            .map_err(|e| RelationError::Shape(format!("budget refused purchase: {e}")))?;
        let data = queries
            .iter()
            .map(|q| snapshot.table(q.dataset)?.project(&q.attrs))
            .collect::<Result<Vec<Table>>>()?;
        for price in prices {
            self.record_sale(None, SaleKind::Query, price);
        }
        Ok(data)
    }

    /// Record a sale on an account stripe and bump the sold counters. The
    /// mutex guards only this update — never a catalog read.
    fn record_sale(&self, account: Option<SessionId>, kind: SaleKind, price: f64) {
        self.accounts
            .lock()
            .unwrap()
            .stripe(account)
            .record(kind, price);
        match kind {
            SaleKind::Sample => self.samples_sold.fetch_add(1, Ordering::Relaxed),
            SaleKind::Query => self.queries_sold.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Session-side purchase hooks (called by [`crate::session::Session`]
    /// after the pinned snapshot produced the goods and the session budget
    /// admitted the price).
    pub(crate) fn record_session_sample(&self, id: SessionId, price: f64) {
        self.record_sale(Some(id), SaleKind::Sample, price);
    }

    pub(crate) fn record_session_query(&self, id: SessionId, price: f64) {
        self.record_sale(Some(id), SaleKind::Query, price);
    }

    /// Seller-side update of a listed dataset: apply `delta` to the listing
    /// and bump its catalog [`DatasetMeta::version`] (and advertised row
    /// count). Returns the new version.
    ///
    /// Publishes a fresh immutable catalog state; snapshots pinned earlier
    /// keep shopping at their version. This is the marketplace end of the
    /// incremental-maintenance path: shoppers holding a join graph over
    /// samples of this dataset route the *same* delta through their graph's
    /// `apply_delta` instead of re-buying and recounting the sample.
    pub fn apply_update(&self, id: DatasetId, delta: &TableDelta) -> Result<u64> {
        let mut guard = self.catalog.write().unwrap();
        let cur = guard.as_ref();
        let listing = cur
            .listings
            .get(id.0 as usize)
            .ok_or_else(|| RelationError::UnknownDataset(id.to_string()))?;
        let table = listing.table.apply_delta(delta)?;
        let mut meta = listing.meta.clone();
        meta.num_rows = table.num_rows();
        meta.version += 1;
        let new_version = meta.version;
        let mut listings = cur.listings.clone();
        listings[id.0 as usize] = Arc::new(Listing {
            meta,
            table: Arc::new(table),
        });
        *guard = Arc::new(CatalogState {
            listings,
            version: cur.version + 1,
        });
        Ok(new_version)
    }

    /// Total revenue collected so far: each account's purchase-order fold,
    /// folded in account order (anonymous first, then session ids
    /// ascending), so the total is independent of how sessions interleave.
    pub fn revenue(&self) -> f64 {
        self.accounts.lock().unwrap().fold(|s| s.total)
    }

    /// Revenue split `(samples, queries)` — same deterministic fold as
    /// [`Self::revenue`], restricted per sale kind.
    pub fn revenue_split(&self) -> (f64, f64) {
        let accounts = self.accounts.lock().unwrap();
        (accounts.fold(|s| s.sample), accounts.fold(|s| s.query))
    }

    /// Revenue attributed to one session's stripe (0 if it never bought).
    pub fn session_revenue(&self, id: SessionId) -> f64 {
        let accounts = self.accounts.lock().unwrap();
        match accounts.sessions.binary_search_by_key(&id, |(s, _)| *s) {
            Ok(at) => accounts.sessions[at].1.total,
            Err(_) => 0.0,
        }
    }

    /// `(samples sold, queries sold)`.
    pub fn sales(&self) -> (usize, usize) {
        (
            self.samples_sold.load(Ordering::Relaxed),
            self.queries_sold.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::{Table, Value, ValueType};
    use proptest::prelude::*;

    fn market() -> Marketplace {
        let zip = Table::from_rows(
            "zip",
            &[("mk_zip", ValueType::Str), ("mk_state", ValueType::Str)],
            (0..50)
                .map(|i| {
                    vec![
                        Value::str(format!("z{i}")),
                        Value::str(format!("s{}", i % 5)),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let disease = Table::from_rows(
            "disease",
            &[("mk_state", ValueType::Str), ("mk_cases", ValueType::Int)],
            (0..30)
                .map(|i| vec![Value::str(format!("s{}", i % 5)), Value::Int(i * 10)])
                .collect(),
        )
        .unwrap();
        Marketplace::new(vec![zip, disease], EntropyPricing::default())
    }

    #[test]
    fn catalog_is_free_and_complete() {
        let m = market();
        let cat = m.catalog();
        assert_eq!(cat.len(), 2);
        assert_eq!(cat[0].name, "zip");
        assert_eq!(cat[1].num_rows, 30);
        assert_eq!(m.revenue(), 0.0);
        assert_eq!(m.catalog_version(), 0);
    }

    #[test]
    fn sample_purchase_charges_pro_rata() {
        let m = market();
        let full_price = m
            .quote(DatasetId(0), &AttrSet::from_names(["mk_zip", "mk_state"]))
            .unwrap();
        let (sample, price) = m
            .buy_sample(DatasetId(0), &AttrSet::from_names(["mk_zip"]), 0.4, 7)
            .unwrap();
        assert!(sample.num_rows() < 50);
        assert!((price - 0.4 * full_price).abs() < 1e-9);
        assert!((m.revenue() - price).abs() < 1e-12);
        assert_eq!(m.sales(), (1, 0));
        let (sample_rev, query_rev) = m.revenue_split();
        assert_eq!(sample_rev.to_bits(), price.to_bits());
        assert_eq!(query_rev, 0.0);
    }

    #[test]
    fn query_execution_projects_and_charges() {
        let m = market();
        let q = ProjectionQuery {
            dataset: DatasetId(1),
            dataset_name: "disease".into(),
            attrs: AttrSet::from_names(["mk_cases"]),
        };
        let (data, price) = m.execute(&q).unwrap();
        assert_eq!(data.num_attrs(), 1);
        assert_eq!(data.num_rows(), 30);
        assert!(price > 0.0);
        assert_eq!(m.sales(), (0, 1));
    }

    #[test]
    fn purchase_charges_once_and_records_what_it_charged() {
        let m = market();
        let queries: Vec<ProjectionQuery> = [(0, "zip", "mk_state"), (1, "disease", "mk_cases")]
            .into_iter()
            .map(|(id, name, attr)| ProjectionQuery {
                dataset: DatasetId(id),
                dataset_name: name.into(),
                attrs: AttrSet::from_names([attr]),
            })
            .collect();
        let mut wallet = Budget::new(1e6);
        let bought = m.purchase(&queries, &mut wallet).unwrap();
        assert_eq!(bought.len(), 2);
        assert_eq!((bought[0].num_attrs(), bought[1].num_rows()), (1, 30));
        let quoted = queries
            .iter()
            .fold(0.0, |acc, q| acc + m.quote(q.dataset, &q.attrs).unwrap());
        assert_eq!(wallet.spent().to_bits(), quoted.to_bits());
        assert_eq!(m.revenue().to_bits(), wallet.spent().to_bits());
        assert_eq!(m.sales(), (0, 2));

        // All-or-nothing: a refused purchase charges nothing and sells nothing.
        let mut tiny = Budget::new(1e-9);
        let err = m.purchase(&queries, &mut tiny).unwrap_err();
        assert!(err.to_string().contains("budget refused purchase"), "{err}");
        assert_eq!(tiny.spent(), 0.0);
        assert_eq!(m.revenue().to_bits(), quoted.to_bits());
        assert_eq!(m.sales(), (0, 2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Running-sum stripes answer `revenue`, `revenue_split` and
        /// `session_revenue` bit-identically to folding the recorded sale
        /// list, for any interleaving of anonymous and session sales.
        #[test]
        fn stripes_fold_like_the_sale_list(
            sales in prop::collection::vec((0u64..4, 0u64..2, 0.0f64..50.0), 0..48),
        ) {
            let m = market();
            // Account 0 is anonymous; 1..4 are sessions (opened out of order).
            let account = |a: u64| (a > 0).then(|| SessionId(4 - a));
            let kind = |k: u64| if k == 0 { SaleKind::Sample } else { SaleKind::Query };
            for &(a, k, price) in &sales {
                m.record_sale(account(a), kind(k), price);
            }
            // Reference: the fold over each account's sale list, accounts in
            // order (anonymous, then session ids ascending).
            let fold = |a: u64, keep: &dyn Fn(u64) -> bool| {
                sales
                    .iter()
                    .filter(|(sa, k, _)| *sa == a && keep(*k))
                    .fold(0.0, |acc, (_, _, p)| acc + p)
            };
            let total = |keep: &dyn Fn(u64) -> bool| {
                let opened: Vec<u64> = (1..4u64)
                    .rev()
                    .filter(|a| sales.iter().any(|(sa, _, _)| sa == a))
                    .collect();
                opened.iter().fold(fold(0, keep), |acc, &a| acc + fold(a, keep))
            };
            prop_assert_eq!(m.revenue().to_bits(), total(&|_| true).to_bits());
            let (sample, query) = m.revenue_split();
            prop_assert_eq!(sample.to_bits(), total(&|k| k == 0).to_bits());
            prop_assert_eq!(query.to_bits(), total(&|k| k == 1).to_bits());
            for a in 1..4u64 {
                prop_assert_eq!(
                    m.session_revenue(SessionId(4 - a)).to_bits(),
                    fold(a, &|_| true).to_bits()
                );
            }
        }
    }

    #[test]
    fn unknown_dataset_is_a_dedicated_error() {
        let m = market();
        let attrs = AttrSet::from_names(["mk_zip"]);
        let is_unknown_dataset =
            |e: RelationError| matches!(e, RelationError::UnknownDataset(ref d) if d == "D9");
        assert!(is_unknown_dataset(
            m.quote(DatasetId(9), &attrs).unwrap_err()
        ));
        assert!(is_unknown_dataset(
            m.buy_sample(DatasetId(9), &attrs, 0.5, 1).unwrap_err()
        ));
        assert!(is_unknown_dataset(m.meta(DatasetId(9)).unwrap_err()));
        assert!(is_unknown_dataset(
            m.full_table_for_evaluation(DatasetId(9)).unwrap_err()
        ));
        let q = ProjectionQuery {
            dataset: DatasetId(9),
            dataset_name: "nope".into(),
            attrs,
        };
        assert!(is_unknown_dataset(m.execute(&q).unwrap_err()));
    }

    #[test]
    fn apply_update_bumps_version_and_row_count() {
        let m = market();
        assert_eq!(m.meta(DatasetId(0)).unwrap().version, 0);
        let delta = TableDelta::new(
            vec![vec![Value::str("z_new"), Value::str("s0")]],
            vec![0, 1],
        );
        let v = m.apply_update(DatasetId(0), &delta).unwrap();
        assert_eq!(v, 1);
        let meta = m.meta(DatasetId(0)).unwrap();
        assert_eq!(meta.version, 1);
        assert_eq!(meta.num_rows, 49); // 50 − 2 deleted + 1 inserted
        assert_eq!(
            m.full_table_for_evaluation(DatasetId(0))
                .unwrap()
                .num_rows(),
            49
        );
        // Unknown datasets are rejected with the dedicated variant, and
        // other listings are untouched.
        assert!(matches!(
            m.apply_update(DatasetId(9), &delta).unwrap_err(),
            RelationError::UnknownDataset(ref d) if d == "D9"
        ));
        assert_eq!(m.meta(DatasetId(1)).unwrap().version, 0);
        assert_eq!(m.catalog_version(), 1);
    }

    #[test]
    fn snapshots_pin_a_version_across_updates() {
        let m = market();
        let pinned = m.snapshot();
        assert_eq!(pinned.version(), 0);
        let rows_before = pinned.meta(DatasetId(0)).unwrap().num_rows;
        let quote_before = pinned
            .quote(DatasetId(0), &AttrSet::from_names(["mk_zip"]))
            .unwrap();

        let delta = TableDelta::new(Vec::new(), (0..10).collect());
        m.apply_update(DatasetId(0), &delta).unwrap();

        // The live marketplace moved on; the pinned snapshot did not.
        assert_eq!(m.catalog_version(), 1);
        assert_eq!(pinned.version(), 0);
        assert_eq!(pinned.meta(DatasetId(0)).unwrap().num_rows, rows_before);
        let quote_after = pinned
            .quote(DatasetId(0), &AttrSet::from_names(["mk_zip"]))
            .unwrap();
        assert_eq!(quote_before.to_bits(), quote_after.to_bits());
        assert!(pinned.is_coherent());
        assert!(m.snapshot().is_coherent());
        assert_eq!(m.snapshot().meta(DatasetId(0)).unwrap().num_rows, 40);
    }

    #[test]
    fn projection_price_cheaper_than_whole_dataset() {
        let m = market();
        let part = m
            .quote(DatasetId(0), &AttrSet::from_names(["mk_state"]))
            .unwrap();
        let whole = m
            .quote(DatasetId(0), &AttrSet::from_names(["mk_zip", "mk_state"]))
            .unwrap();
        assert!(part < whole);
    }

    #[test]
    fn with_keys_overrides_default_sample_keys() {
        let m = market();
        let default_key = m.meta(DatasetId(1)).unwrap().default_key.clone();
        let tables: Vec<Table> = (0..2)
            .map(|i| {
                m.full_table_for_evaluation(DatasetId(i))
                    .unwrap()
                    .as_ref()
                    .clone()
            })
            .collect();
        let overridden = Marketplace::with_keys(
            tables,
            vec![None, Some(AttrSet::from_names(["mk_cases"]))],
            EntropyPricing::default(),
        );
        assert_eq!(overridden.meta(DatasetId(0)).unwrap().default_key.len(), 1);
        assert_ne!(
            overridden.meta(DatasetId(1)).unwrap().default_key,
            default_key
        );
    }
}
