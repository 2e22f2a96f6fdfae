//! # dance-info — information-theoretic measures for DANCE
//!
//! Implements the three quantities the paper's search optimizes over or
//! constrains:
//!
//! * **Shannon entropy** machinery over attribute sets ([`entropy`]).
//! * **Correlation** `CORR(X, Y)` (Definition 2.5, after Nguyen et al. \[20\]):
//!   `H(X) − H(X|Y)` when `X` is categorical and `h(X) − h(X|Y)` (cumulative
//!   entropy, [`cumulative`]) when `X` is numerical — so mixed categorical /
//!   numerical marketplace data is handled uniformly ([`mod@correlation`]).
//! * **Join informativeness** `JI(D, D')` (Definition 2.4, after Yang et al.
//!   \[33\]): `(H(J,J') − I(J,J')) / H(J,J')` over the joint distribution of the
//!   two join-key columns in the *full outer join*, computed here directly
//!   from per-table key histograms without materializing the join ([`ji`]).
//!
//! All entropies use **log base 2** (bits). Design decisions that the paper
//! leaves open are documented on the items that make them (NULL handling,
//! discretization of numeric conditioning attributes, multi-attribute
//! numerical `X`).

pub mod correlation;
pub mod cumulative;
pub mod discretize;
pub mod entropy;
pub mod ji;

pub use correlation::{correlation, correlation_with, CorrOptions};
pub use cumulative::{conditional_cumulative_entropy, cumulative_entropy};
pub use entropy::{
    conditional_entropy, entropy_from_counts, entropy_from_sym_counts, joint_entropy,
    mi_from_sym_joint, mutual_information, shannon_entropy,
};
pub use ji::{ji_from_sym_counts, join_informativeness, PairPartials};
