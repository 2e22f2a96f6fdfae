//! # dance-sampling — correlated sampling and estimation for DANCE
//!
//! DANCE never touches full marketplace instances during search: the offline
//! phase buys *samples* and every quantity the online phase optimizes —
//! correlation, quality, join informativeness — is estimated from them (§3).
//!
//! * [`correlated`] — correlated sampling after Vengerov et al. \[30\]: a tuple
//!   is kept iff a shared hash of its join-key value, mapped uniformly into
//!   `[0, 1)`, falls below the sampling rate `p`. Because the hash is shared
//!   across tables, matching tuples survive *together*, which is what makes
//!   the join-based estimators behave (Theorem 3.1).
//! * [`bernoulli`] — independent per-row sampling, as the ablation baseline
//!   (correlated vs. independent sampling accuracy).
//! * [`resample`] — correlated **re-sampling** (§3.2): along a multi-table
//!   join path, any intermediate result larger than the threshold `η` is
//!   re-sampled at a fixed rate, bounding intermediate sizes while keeping
//!   ratio-type estimators unbiased (Theorem 3.2).
//! * [`estimators`] — the estimators of §3: `ĴI`, `ĈORR`, `Q̂`, packaged over
//!   sampled join paths.

pub mod bernoulli;
pub mod correlated;
pub mod estimators;
pub mod resample;

pub use bernoulli::bernoulli_sample;
pub use correlated::CorrelatedSampler;
pub use estimators::{estimate_correlation, estimate_ji, estimate_quality, SampledPath};
pub use resample::{join_tree_bounded, BoundedHook, ResampleConfig, ResampleStats};
