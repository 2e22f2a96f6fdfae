//! Long-running, concurrency-safe acquisition sessions over one shared
//! [`Marketplace`].
//!
//! The paper's shopper is a single loop over `Dance::search`; a production
//! marketplace serves **many independent shoppers at once**, each running a
//! sample-then-commit loop ("Try Before You Buy"-style) against one live
//! catalog. A [`Session`] is that boundary:
//!
//! * **Version pinning** — at open time the session pins a
//!   [`CatalogSnapshot`]; every quote, sample and purchase for the session's
//!   lifetime is served at that version, even while sellers keep publishing
//!   updates through [`Marketplace::apply_update`]. A snapshot is one
//!   immutable `Arc`, so no session ever observes a torn catalog.
//! * **Budget + ledger isolation** — each session carries its own
//!   [`Budget`] and purchase ledger (DAVED's multi-buyer setting). Every
//!   purchase is admitted by the session budget first, then recorded both in
//!   the session ledger and on the session's revenue stripe in the
//!   marketplace, so `Σ` per-session ledger spend reconciles exactly with
//!   [`Marketplace::revenue`].
//! * **Determinism** — a session's behaviour is a pure function of
//!   `(pinned snapshot, session seed, the call sequence)`. Sample draws are
//!   seeded per purchase via [`purchase_seed`], so a session run concurrently
//!   with hundreds of others produces a bit-identical [`SessionReport`] to
//!   the same session run alone.
//!
//! The read path is lock-free by construction: a session owns its snapshot,
//! budget and ledger outright, and only the money-moving hooks
//! (`record_session_*` in [`Marketplace`]) ever touch a mutex — a CI
//! grep-guard keeps mutexes out of this file entirely.
//!
//! [`SessionManager`] adds the service shell: open/close, per-session stats,
//! and graceful rejection once `max_sessions` are in flight.

use crate::budget::{Budget, BudgetError};
use crate::catalog::{DatasetId, DatasetMeta};
use crate::marketplace::{CatalogSnapshot, Marketplace};
use crate::query::ProjectionQuery;
use dance_relation::hash::splitmix64;
use dance_relation::{AttrSet, RelationError, Table};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Stable identifier of one acquisition session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// An unguessable handle for re-attaching a live session to a fresh
/// connection (the wire layer's `ResumeSession`).
///
/// The token is derived from the session id and a per-manager secret pair
/// as the XOR of two independent [`splitmix64`] bijections —
/// `sm(s₁ ⊕ f(id)) ⊕ sm(s₂ ⊕ g(id))` — so one observed `(id, token)` pair
/// does not invert to the secret the way a single bijection would. It is
/// *unguessable without the secret*, not cryptographic: the threat model is
/// a shopper probing for other shoppers' session ids, not an adversary
/// with offline compute parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionToken(pub u64);

impl fmt::Display for SessionToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{:016x}", self.0)
    }
}

/// Per-purchase seed stride (the golden-ratio increment, as in
/// `dance_core::chain_seed`): purchase `k` of a session seeded `s` draws its
/// sample with `splitmix64(s ⊕ k·STRIDE)`, so purchase streams are
/// decorrelated across both sessions and purchase indices while staying a
/// pure function of `(session seed, purchase index)`.
const PURCHASE_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The sample-draw seed for purchase number `seq` of a session seeded `seed`.
pub fn purchase_seed(seed: u64, seq: u64) -> u64 {
    splitmix64(seed ^ seq.wrapping_mul(PURCHASE_SEED_STRIDE))
}

/// Errors surfaced by the session layer.
#[derive(Debug)]
pub enum SessionError {
    /// The manager is at capacity; retry later (graceful rejection).
    AtCapacity {
        /// Sessions currently open.
        open: usize,
        /// Configured capacity.
        max: usize,
    },
    /// The session budget refused the purchase.
    Budget(BudgetError),
    /// The marketplace refused the operation (unknown dataset, bad attrs…).
    Market(RelationError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::AtCapacity { open, max } => {
                write!(f, "session manager at capacity: {open}/{max} open")
            }
            SessionError::Budget(e) => write!(f, "session budget: {e}"),
            SessionError::Market(e) => write!(f, "marketplace: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Budget(e) => Some(e),
            SessionError::Market(e) => Some(e),
            SessionError::AtCapacity { .. } => None,
        }
    }
}

impl From<BudgetError> for SessionError {
    fn from(e: BudgetError) -> Self {
        SessionError::Budget(e)
    }
}

impl From<RelationError> for SessionError {
    fn from(e: RelationError) -> Self {
        SessionError::Market(e)
    }
}

/// Convenience alias for session-layer results.
pub type SessionResult<T> = Result<T, SessionError>;

/// What one session purchase bought.
#[derive(Debug, Clone, PartialEq)]
pub enum PurchaseKind {
    /// A correlated sample at the given rate, keyed on the given attributes.
    Sample {
        /// Sampling rate `p`.
        rate: f64,
        /// Key attributes the sample was drawn on.
        key: AttrSet,
    },
    /// A projection-query result.
    Projection {
        /// Projected attributes.
        attrs: AttrSet,
    },
}

/// One entry of a session's purchase ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Purchase {
    /// Which dataset the purchase hit.
    pub dataset: DatasetId,
    /// Sample or projection.
    pub kind: PurchaseKind,
    /// Price paid (at the pinned catalog version).
    pub price: f64,
}

/// Immutable end-of-session summary: the determinism contract is that this
/// report is bit-identical for a given `(pinned version, seed, call
/// sequence)` regardless of what other sessions do concurrently.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Session identity.
    pub id: SessionId,
    /// Session seed.
    pub seed: u64,
    /// Catalog version the session was pinned at.
    pub catalog_version: u64,
    /// Every purchase, in order.
    pub purchases: Vec<Purchase>,
    /// Total spend (`== Budget::spent()` and `== Σ purchase prices` in
    /// ledger order — the same fold the marketplace's stripe performs).
    pub spent: f64,
    /// Budget headroom left at close.
    pub remaining: f64,
}

/// Knobs for one session.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// The session's budget `B`.
    pub budget: f64,
    /// Master seed for the session's sample draws (and, by convention, the
    /// shopper's seeded searches).
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            budget: f64::INFINITY,
            seed: 0xDA2CE,
        }
    }
}

/// One shopper's long-running acquisition session. Not `Sync` by design —
/// a session belongs to one shopper thread; concurrency happens *across*
/// sessions, which share nothing mutable.
#[derive(Debug)]
pub struct Session {
    id: SessionId,
    seed: u64,
    market: Arc<Marketplace>,
    pinned: CatalogSnapshot,
    budget: Budget,
    ledger: Vec<Purchase>,
    shared: Arc<ManagerState>,
}

impl Session {
    /// Session identity.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Session seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The catalog version this session is pinned at.
    pub fn pinned_version(&self) -> u64 {
        self.pinned.version()
    }

    /// The pinned catalog snapshot (shared, lock-free).
    pub fn snapshot(&self) -> &CatalogSnapshot {
        &self.pinned
    }

    /// The session's budget state.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The purchase ledger so far.
    pub fn ledger(&self) -> &[Purchase] {
        &self.ledger
    }

    /// Free schema-level catalog at the pinned version.
    pub fn catalog(&self) -> Vec<DatasetMeta> {
        self.pinned.metas()
    }

    /// Metadata of one dataset at the pinned version.
    pub fn meta(&self, id: DatasetId) -> SessionResult<&DatasetMeta> {
        Ok(self.pinned.meta(id)?)
    }

    /// Quote a projection at the pinned version's prices (free).
    pub fn quote(&self, id: DatasetId, attrs: &AttrSet) -> SessionResult<f64> {
        Ok(self.pinned.quote(id, attrs)?)
    }

    /// Quote a batch of projections in one call (free). The pinned
    /// snapshot's listings are resolved once per item and duplicate
    /// `(dataset, attrs)` pairs are answered from a per-batch memo —
    /// bit-identical to, and cheaper than, one [`Session::quote`] per item.
    /// This is what the wire protocol's `QuoteBatch` opcode lands on.
    pub fn quote_batch(&self, items: &[(DatasetId, AttrSet)]) -> SessionResult<Vec<f64>> {
        Ok(self.pinned.quote_batch(items)?)
    }

    /// Re-pin the session to the marketplace's current catalog version (an
    /// explicit shopper decision — e.g. after learning a seller published a
    /// relevant update). Returns the new pinned version.
    pub fn repin(&mut self) -> u64 {
        self.pinned = self.market.snapshot();
        self.pinned.version()
    }

    /// Buy a correlated sample of `id` keyed on `key_attrs` at `rate`,
    /// seeded deterministically from the session seed and purchase index.
    ///
    /// Admission order: price the goods on the pinned snapshot, charge the
    /// session budget, and only then record revenue — a refused purchase
    /// leaves both the ledger and the marketplace untouched.
    pub fn buy_sample(
        &mut self,
        id: DatasetId,
        key_attrs: &AttrSet,
        rate: f64,
    ) -> SessionResult<(Table, f64)> {
        let seed = purchase_seed(self.seed, self.ledger.len() as u64);
        let (sample, price) = self.pinned.sample(id, key_attrs, rate, seed)?;
        self.budget.try_spend(price)?;
        self.market.record_session_sample(self.id, price);
        self.ledger.push(Purchase {
            dataset: id,
            kind: PurchaseKind::Sample {
                rate,
                key: key_attrs.clone(),
            },
            price,
        });
        Ok((sample, price))
    }

    /// Execute a projection purchase at the pinned version.
    pub fn execute(&mut self, q: &ProjectionQuery) -> SessionResult<(Table, f64)> {
        let (data, price) = self.pinned.project(q)?;
        self.budget.try_spend(price)?;
        self.market.record_session_query(self.id, price);
        self.ledger.push(Purchase {
            dataset: q.dataset,
            kind: PurchaseKind::Projection {
                attrs: q.attrs.clone(),
            },
            price,
        });
        Ok((data, price))
    }

    /// Execute a projection purchase addressed by dataset id alone — the
    /// wire path, where only interned ids travel: the dataset name is
    /// resolved from the pinned snapshot.
    pub fn execute_by_id(&mut self, id: DatasetId, attrs: &AttrSet) -> SessionResult<(Table, f64)> {
        let dataset_name = self.pinned.meta(id)?.name.clone();
        self.execute(&ProjectionQuery {
            dataset: id,
            dataset_name,
            attrs: attrs.clone(),
        })
    }

    /// The session's summary so far (also what [`SessionManager::close`]
    /// returns).
    pub fn report(&self) -> SessionReport {
        SessionReport {
            id: self.id,
            seed: self.seed,
            catalog_version: self.pinned.version(),
            purchases: self.ledger.clone(),
            spent: self.budget.spent(),
            remaining: self.budget.remaining(),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shared.open.fetch_sub(1, Ordering::AcqRel);
        self.shared.closed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shared open/close accounting between a manager and its sessions.
#[derive(Debug, Default)]
struct ManagerState {
    open: AtomicUsize,
    opened: AtomicUsize,
    closed: AtomicUsize,
    rejected: AtomicUsize,
    peak_open: AtomicUsize,
    reclaimed: AtomicUsize,
    next_id: AtomicU64,
}

/// Knobs for the session service.
#[derive(Debug, Clone, Copy)]
pub struct SessionManagerConfig {
    /// Hard cap on simultaneously open sessions; opens beyond it are
    /// rejected gracefully with [`SessionError::AtCapacity`].
    pub max_sessions: usize,
    /// Idle lease for sessions orphaned by a dead connection. `Some(secs)`
    /// lets the serving layer park a disconnected session for resumption,
    /// reclaiming its capacity slot once no connection re-attaches within
    /// the lease. `None` (the default) keeps the pre-resumption behaviour:
    /// a dropped connection drops its sessions immediately.
    pub lease_secs: Option<f64>,
    /// Explicit secret pair for [`SessionManager::session_token`]. `None`
    /// (the default) derives a fresh secret from wall-clock and address
    /// entropy at construction; tests pin it for deterministic tokens.
    pub token_secret: Option<(u64, u64)>,
}

impl Default for SessionManagerConfig {
    fn default() -> Self {
        SessionManagerConfig {
            max_sessions: 1024,
            lease_secs: None,
            token_secret: None,
        }
    }
}

/// Point-in-time service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManagerStats {
    /// Sessions currently open.
    pub open: usize,
    /// Sessions ever opened.
    pub opened: usize,
    /// Sessions closed (explicitly or by drop).
    pub closed: usize,
    /// Opens rejected at capacity.
    pub rejected: usize,
    /// High-water mark of simultaneously open sessions.
    pub peak_open: usize,
    /// Parked sessions reclaimed after their idle lease expired.
    pub reclaimed: usize,
}

/// The acquisition service: opens, closes and counts sessions over one
/// shared marketplace. Cheap to share (`&self` everywhere) — a server would
/// hold one in an `Arc` next to its listener.
#[derive(Debug)]
pub struct SessionManager {
    market: Arc<Marketplace>,
    state: Arc<ManagerState>,
    cfg: SessionManagerConfig,
    secret: (u64, u64),
}

impl SessionManager {
    /// A manager over `market` with the given capacity config.
    pub fn new(market: Arc<Marketplace>, cfg: SessionManagerConfig) -> SessionManager {
        let state = Arc::new(ManagerState::default());
        let secret = cfg.token_secret.unwrap_or_else(|| {
            // Wall-clock nanos plus the state allocation's address: enough
            // entropy that tokens differ across processes and managers,
            // without reaching for an OS randomness dependency.
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            let addr = Arc::as_ptr(&state) as u64;
            (
                splitmix64(nanos ^ 0x5EC2_E700_0000_0001),
                splitmix64(addr ^ nanos.rotate_left(32)),
            )
        });
        SessionManager {
            market,
            state,
            cfg,
            secret,
        }
    }

    /// The marketplace this manager serves.
    pub fn market(&self) -> &Arc<Marketplace> {
        &self.market
    }

    /// The idle lease for orphaned sessions, if resumption is enabled.
    /// Negative or non-finite configs clamp to a zero lease (reclaim at the
    /// first sweep).
    pub fn lease(&self) -> Option<Duration> {
        self.cfg.lease_secs.map(|s| {
            if s.is_finite() && s > 0.0 {
                Duration::from_secs_f64(s)
            } else {
                Duration::ZERO
            }
        })
    }

    /// The resumption token for `id` under this manager's secret — a pure
    /// function, so the same session always presents the same token, and
    /// replays can recompute it from an observed session id.
    pub fn session_token(&self, id: SessionId) -> SessionToken {
        let (s1, s2) = self.secret;
        let a = splitmix64(s1 ^ id.0.wrapping_mul(PURCHASE_SEED_STRIDE));
        let b = splitmix64(s2 ^ id.0.rotate_left(17).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        SessionToken(a ^ b)
    }

    /// Record `n` parked sessions reclaimed by a lease sweep (the serving
    /// layer owns the parking registry; the manager owns the counter so
    /// [`ManagerStats`] pins reclamation).
    pub fn record_reclaimed(&self, n: usize) {
        if n > 0 {
            self.state.reclaimed.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Open a session: admission-check capacity, pin the current catalog
    /// version, allocate an id and a fresh budget.
    pub fn open(&self, cfg: SessionConfig) -> SessionResult<Session> {
        let snapshot = self.market.snapshot();
        self.open_at(cfg, snapshot)
    }

    /// Open a session pinned at an explicit `snapshot` instead of the
    /// marketplace's current version. This is how a transcript replay pins
    /// the exact catalog state a live session saw — sessions are pure
    /// functions of `(pinned snapshot, seed, call sequence)`, so replaying
    /// the calls against the same snapshot reproduces every response
    /// bitwise even after sellers have published further updates.
    pub fn open_at(&self, cfg: SessionConfig, snapshot: CatalogSnapshot) -> SessionResult<Session> {
        // Reserve a slot with a CAS loop so concurrent opens can never
        // overshoot the cap.
        let reserved = self
            .state
            .open
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |open| {
                (open < self.cfg.max_sessions).then_some(open + 1)
            });
        if let Err(open) = reserved {
            self.state.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SessionError::AtCapacity {
                open,
                max: self.cfg.max_sessions,
            });
        }
        self.state.opened.fetch_add(1, Ordering::Relaxed);
        self.state
            .peak_open
            .fetch_max(reserved.unwrap_or(0) + 1, Ordering::Relaxed);
        let id = SessionId(self.state.next_id.fetch_add(1, Ordering::Relaxed));
        Ok(Session {
            id,
            seed: cfg.seed,
            market: Arc::clone(&self.market),
            pinned: snapshot,
            budget: Budget::new(cfg.budget),
            ledger: Vec::new(),
            shared: Arc::clone(&self.state),
        })
    }

    /// Close a session, returning its final report. (Dropping a session
    /// releases its slot too; `close` is the polite way that hands the
    /// report back.)
    pub fn close(&self, session: Session) -> SessionReport {
        session.report()
        // `session` drops here: open−1, closed+1.
    }

    /// Service counters.
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            open: self.state.open.load(Ordering::Acquire),
            opened: self.state.opened.load(Ordering::Relaxed),
            closed: self.state.closed.load(Ordering::Relaxed),
            rejected: self.state.rejected.load(Ordering::Relaxed),
            peak_open: self.state.peak_open.load(Ordering::Relaxed),
            reclaimed: self.state.reclaimed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::EntropyPricing;
    use dance_relation::{TableDelta, Value, ValueType};

    fn market() -> Arc<Marketplace> {
        let a = Table::from_rows(
            "se_a",
            &[("se_k", ValueType::Int), ("se_x", ValueType::Str)],
            (0..60)
                .map(|i| vec![Value::Int(i % 6), Value::str(format!("x{}", i % 4))])
                .collect(),
        )
        .unwrap();
        let b = Table::from_rows(
            "se_b",
            &[("se_k", ValueType::Int), ("se_y", ValueType::Int)],
            (0..40)
                .map(|i| vec![Value::Int(i % 6), Value::Int(i * 3)])
                .collect(),
        )
        .unwrap();
        Arc::new(Marketplace::new(vec![a, b], EntropyPricing::default()))
    }

    fn manager(max: usize) -> SessionManager {
        SessionManager::new(
            market(),
            SessionManagerConfig {
                max_sessions: max,
                ..SessionManagerConfig::default()
            },
        )
    }

    #[test]
    fn lifecycle_open_shop_close() {
        let mgr = manager(4);
        let mut s = mgr
            .open(SessionConfig {
                budget: 100.0,
                seed: 7,
            })
            .unwrap();
        assert_eq!(s.pinned_version(), 0);
        assert_eq!(s.catalog().len(), 2);

        let key = AttrSet::from_names(["se_k"]);
        let (sample, p1) = s.buy_sample(DatasetId(0), &key, 0.5).unwrap();
        assert!(sample.num_rows() > 0 && p1 > 0.0);
        let q = ProjectionQuery {
            dataset: DatasetId(1),
            dataset_name: "se_b".into(),
            attrs: AttrSet::from_names(["se_y"]),
        };
        let (_, p2) = s.execute(&q).unwrap();
        assert!((s.budget().spent() - (p1 + p2)).abs() < 1e-12);
        assert_eq!(s.ledger().len(), 2);

        let report = mgr.close(s);
        assert_eq!(report.purchases.len(), 2);
        assert_eq!(report.spent.to_bits(), (p1 + p2).to_bits());
        // The session stripe reconciles exactly with the session ledger.
        assert_eq!(
            mgr.market().session_revenue(report.id).to_bits(),
            report.spent.to_bits()
        );
        assert_eq!(mgr.market().revenue().to_bits(), report.spent.to_bits());
        let stats = mgr.stats();
        assert_eq!((stats.open, stats.opened, stats.closed), (0, 1, 1));
    }

    #[test]
    fn capacity_rejection_is_graceful_and_slots_recycle() {
        let mgr = manager(2);
        let s0 = mgr.open(SessionConfig::default()).unwrap();
        let _s1 = mgr.open(SessionConfig::default()).unwrap();
        match mgr.open(SessionConfig::default()) {
            Err(SessionError::AtCapacity { open, max }) => {
                assert_eq!((open, max), (2, 2));
            }
            other => panic!("expected AtCapacity, got {other:?}"),
        }
        assert_eq!(mgr.stats().rejected, 1);
        drop(s0); // releasing a slot (even without close) re-admits
        assert!(mgr.open(SessionConfig::default()).is_ok());
        assert_eq!(mgr.stats().peak_open, 2);
    }

    #[test]
    fn budget_isolation_blocks_only_the_poor_session() {
        let mgr = manager(4);
        let mut poor = mgr
            .open(SessionConfig {
                budget: 1e-12,
                seed: 1,
            })
            .unwrap();
        let mut rich = mgr
            .open(SessionConfig {
                budget: 1e6,
                seed: 2,
            })
            .unwrap();
        let key = AttrSet::from_names(["se_k"]);
        let err = poor.buy_sample(DatasetId(0), &key, 0.5).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Budget(BudgetError::OverBudget { .. })
        ));
        assert!(poor.ledger().is_empty(), "refused purchase leaves no trace");
        assert_eq!(mgr.market().revenue(), 0.0);
        rich.buy_sample(DatasetId(0), &key, 0.5).unwrap();
        assert!(mgr.market().revenue() > 0.0);
    }

    #[test]
    fn sessions_pin_versions_and_repin_explicitly() {
        let mgr = manager(4);
        let mut s = mgr
            .open(SessionConfig {
                budget: 100.0,
                seed: 3,
            })
            .unwrap();
        let quote_before = s
            .quote(DatasetId(0), &AttrSet::from_names(["se_x"]))
            .unwrap();

        let delta = TableDelta::new(Vec::new(), (0..30).collect());
        mgr.market().apply_update(DatasetId(0), &delta).unwrap();

        // Pinned: same version, same quote, coherent snapshot.
        assert_eq!(s.pinned_version(), 0);
        let quote_pinned = s
            .quote(DatasetId(0), &AttrSet::from_names(["se_x"]))
            .unwrap();
        assert_eq!(quote_before.to_bits(), quote_pinned.to_bits());
        assert!(s.snapshot().is_coherent());

        // Re-pinning is an explicit shopper decision.
        assert_eq!(s.repin(), 1);
        assert_eq!(s.meta(DatasetId(0)).unwrap().num_rows, 30);
    }

    #[test]
    fn quote_batch_matches_per_item_quotes_bitwise() {
        let mgr = manager(4);
        let s = mgr.open(SessionConfig::default()).unwrap();
        let items = vec![
            (DatasetId(0), AttrSet::from_names(["se_x"])),
            (DatasetId(1), AttrSet::from_names(["se_y"])),
            (DatasetId(0), AttrSet::from_names(["se_k", "se_x"])),
            // Duplicate of item 0: answered from the batch memo.
            (DatasetId(0), AttrSet::from_names(["se_x"])),
        ];
        let batch = s.quote_batch(&items).unwrap();
        assert_eq!(batch.len(), items.len());
        for ((id, attrs), price) in items.iter().zip(&batch) {
            let solo = s.quote(*id, attrs).unwrap();
            assert_eq!(solo.to_bits(), price.to_bits());
        }
        assert_eq!(batch[0].to_bits(), batch[3].to_bits());
        // An unknown dataset anywhere in the batch fails the whole batch.
        let bad = vec![(DatasetId(99), AttrSet::from_names(["se_x"]))];
        assert!(matches!(
            s.quote_batch(&bad),
            Err(SessionError::Market(RelationError::UnknownDataset(_)))
        ));
    }

    #[test]
    fn execute_by_id_matches_execute() {
        let mgr = manager(4);
        let attrs = AttrSet::from_names(["se_y"]);
        let mut by_query = mgr.open(SessionConfig::default()).unwrap();
        let (t1, p1) = by_query
            .execute(&ProjectionQuery {
                dataset: DatasetId(1),
                dataset_name: "se_b".into(),
                attrs: attrs.clone(),
            })
            .unwrap();
        let mut by_id = mgr.open(SessionConfig::default()).unwrap();
        let (t2, p2) = by_id.execute_by_id(DatasetId(1), &attrs).unwrap();
        assert_eq!(p1.to_bits(), p2.to_bits());
        assert_eq!(t1.num_rows(), t2.num_rows());
    }

    #[test]
    fn open_at_pins_an_explicit_snapshot_for_replay() {
        let mgr = manager(4);
        let v0 = mgr.market().snapshot();
        let key = AttrSet::from_names(["se_k"]);
        let cfg = SessionConfig {
            budget: 100.0,
            seed: 17,
        };
        let mut live = mgr.open(cfg).unwrap();
        let (t_live, p_live) = live.buy_sample(DatasetId(0), &key, 0.4).unwrap();

        // A seller update lands; the catalog moves on.
        let delta = TableDelta::new(Vec::new(), (0..30).collect());
        mgr.market().apply_update(DatasetId(0), &delta).unwrap();

        // Replaying the same calls against the captured snapshot reproduces
        // the purchase bitwise; a fresh `open` (pinned at v1) does not.
        let mut replay = mgr.open_at(cfg, v0).unwrap();
        assert_eq!(replay.pinned_version(), 0);
        let (t_replay, p_replay) = replay.buy_sample(DatasetId(0), &key, 0.4).unwrap();
        assert_eq!(p_live.to_bits(), p_replay.to_bits());
        assert_eq!(t_live.num_rows(), t_replay.num_rows());
        let mut fresh = mgr.open(cfg).unwrap();
        assert_eq!(fresh.pinned_version(), 1);
        let (t_fresh, _) = fresh.buy_sample(DatasetId(0), &key, 0.4).unwrap();
        assert_ne!(t_live.num_rows(), t_fresh.num_rows());
    }

    #[test]
    fn session_tokens_are_stable_distinct_and_secret_dependent() {
        let cfg = SessionManagerConfig {
            max_sessions: 4,
            token_secret: Some((0xA5A5_0001, 0x5C5C_0002)),
            ..SessionManagerConfig::default()
        };
        let mgr = SessionManager::new(market(), cfg);
        // Pure function of the id under a fixed secret.
        assert_eq!(
            mgr.session_token(SessionId(3)),
            mgr.session_token(SessionId(3))
        );
        let mut seen = std::collections::HashSet::new();
        for id in 0..64u64 {
            assert!(seen.insert(mgr.session_token(SessionId(id)).0));
        }
        // A different secret yields a different token space.
        let other = SessionManager::new(
            market(),
            SessionManagerConfig {
                token_secret: Some((0xA5A5_0001, 0x5C5C_0003)),
                ..cfg
            },
        );
        assert_ne!(
            mgr.session_token(SessionId(3)),
            other.session_token(SessionId(3))
        );
        // And the default secret is fresh per manager.
        let d1 = SessionManager::new(market(), SessionManagerConfig::default());
        let d2 = SessionManager::new(market(), SessionManagerConfig::default());
        assert_ne!(
            d1.session_token(SessionId(3)),
            d2.session_token(SessionId(3))
        );
    }

    #[test]
    fn lease_config_clamps_and_reclaims_count() {
        let mgr = manager(4);
        assert_eq!(mgr.lease(), None);
        let leased = SessionManager::new(
            market(),
            SessionManagerConfig {
                max_sessions: 4,
                lease_secs: Some(1.5),
                token_secret: None,
            },
        );
        assert_eq!(leased.lease(), Some(Duration::from_millis(1500)));
        let weird = SessionManager::new(
            market(),
            SessionManagerConfig {
                max_sessions: 4,
                lease_secs: Some(-3.0),
                token_secret: None,
            },
        );
        assert_eq!(weird.lease(), Some(Duration::ZERO));
        leased.record_reclaimed(2);
        leased.record_reclaimed(0);
        assert_eq!(leased.stats().reclaimed, 2);
    }

    #[test]
    fn purchase_seeds_are_deterministic_and_decorrelated() {
        assert_eq!(purchase_seed(7, 0), purchase_seed(7, 0));
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            for seq in 0..8u64 {
                assert!(seen.insert(purchase_seed(seed, seq)));
            }
        }

        // Two sessions with the same seed draw bit-identical samples.
        let mgr = manager(4);
        let cfg = SessionConfig {
            budget: 100.0,
            seed: 41,
        };
        let key = AttrSet::from_names(["se_k"]);
        let mut s1 = mgr.open(cfg).unwrap();
        let mut s2 = mgr.open(cfg).unwrap();
        let (t1, p1) = s1.buy_sample(DatasetId(0), &key, 0.4).unwrap();
        let (t2, p2) = s2.buy_sample(DatasetId(0), &key, 0.4).unwrap();
        assert_eq!(p1.to_bits(), p2.to_bits());
        assert_eq!(t1.num_rows(), t2.num_rows());
    }
}
