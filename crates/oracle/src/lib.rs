//! # dance-oracle — test-only reference implementations for DANCE
//!
//! The production crates compute every paper quantity on dense group ids and
//! interned symbols. This crate holds **one naive, sequential reference per
//! concept**, written straight from the definitions on materialized
//! [`dance_relation::Value`] keys, so tests can pin the production kernels
//! against it:
//!
//! * [`histogram`] — per-row value histograms: [`value_counts`] and
//!   [`group_rows`];
//! * [`join`] — the value-keyed equi-join [`hash_join`], the per-hop
//!   materializing tree join [`join_tree`] and its §3.2 bounded variant
//!   [`join_tree_bounded`];
//! * [`ji`] — join informativeness (Definition 2.4) on value histograms:
//!   [`ji_from_counts`], [`join_informativeness`];
//! * [`partition`] — stripped partitions (Definition 2.1) with product,
//!   refinement and `g₃` error: [`Partition`].
//!
//! Nothing here is tuned or parallel. The crate is `publish = false` and may
//! only be named under `[dev-dependencies]`. It depends on the crates it
//! checks, so only their integration tests (under `tests/`) can use it: a
//! `src/` unit test would link a second copy of the crate under test.

pub mod histogram;
pub mod ji;
pub mod join;
pub mod partition;

pub use histogram::{group_rows, value_counts, GroupKey};
pub use ji::{ji_from_counts, join_informativeness};
pub use join::{hash_join, join_tree, join_tree_bounded};
pub use partition::{Partition, SINGLETON};
