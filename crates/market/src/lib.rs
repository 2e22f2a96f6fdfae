//! # dance-market — the data-marketplace substrate
//!
//! The paper's setting (§2.1): a marketplace `M` holds relational instances
//! `D = {D₁ … Dₙ}`, exposes **schema-level metadata** for free (that is what
//! the I-layer of the join graph is built from), sells **samples** to DANCE,
//! and sells **projection-query results** (`π_A(D_i)`) to shoppers under a
//! query-based pricing model \[6, 16\].
//!
//! * [`catalog`] — dataset identities and schema-level metadata.
//! * [`pricing`] — the entropy-based pricing model the experiments use \[16\]:
//!   `price(π_A(D)) = scale · (H(A) + floor·|A|) · rows^γ`. Entropy is
//!   monotone and subadditive over attribute sets, so the price satisfies the
//!   arbitrage-freedom conditions of Deep & Koutris \[8\] — property-tested in
//!   this crate.
//! * [`query`] — projection queries and their SQL rendering (what DANCE hands
//!   the shopper to execute against `M`).
//! * [`marketplace`] — the marketplace itself: a shared-readable (`&self`)
//!   core with an immutable, versioned catalog behind snapshot pinning,
//!   sample vending (priced pro-rata by sampling rate), query execution, and
//!   striped per-account revenue accounting.
//! * [`budget`] — the shopper's budget `B` with spend tracking.
//! * [`session`] — long-running acquisition sessions: per-session budgets,
//!   ledgers and seeds over one pinned catalog version, plus the
//!   [`SessionManager`] service shell (open/close, capacity, stats).
//! * [`wire`] — the length-prefixed binary frame protocol serving sessions
//!   over sockets (deterministic encode/decode, faults, table digests).
//! * [`server`] — the multi-worker TCP server: pipelining, bounded accept
//!   backlog with queue-or-reject policy, per-shopper token-bucket rate
//!   limits, combined service stats.
//! * [`client`] — a blocking, pipelining-capable wire client with optional
//!   transcript recording (what the determinism contract is stated over),
//!   bounded retries and automatic reconnect-and-resume.
//! * [`chaos`] — a deterministic, seeded fault-injecting transport for
//!   reproducing every hostile-network failure mode from a `u64` seed.

pub mod budget;
pub mod catalog;
pub mod chaos;
pub mod client;
pub mod marketplace;
pub mod pricing;
pub mod query;
pub mod server;
pub mod session;
pub mod wire;

pub use budget::{Budget, BudgetError};
pub use catalog::{DatasetId, DatasetMeta};
pub use chaos::{ChaosConfig, ChaosStream, InjectedFault, Transport};
pub use client::{RetryPolicy, WireClient, WireClientBuilder};
pub use marketplace::{CatalogSnapshot, Marketplace};
pub use pricing::{EntropyPricing, PricingModel};
pub use query::ProjectionQuery;
pub use server::{RateLimit, Server, ServerConfig};
pub use session::{
    ManagerStats, Purchase, PurchaseKind, Session, SessionConfig, SessionError, SessionId,
    SessionManager, SessionManagerConfig, SessionReport, SessionResult, SessionToken,
};
pub use wire::{Fault, FaultCode, Opcode, Reply, Request, Response, StatsSnapshot, WireError};
