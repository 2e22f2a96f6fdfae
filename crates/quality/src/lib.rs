//! # dance-quality — data-quality substrate for DANCE
//!
//! The paper measures data quality as *consistency with functional
//! dependencies* (§2.2). This crate implements:
//!
//! * **FD quality** (Definition 2.2): the correct-record set `C(D, X→Y)` is
//!   the union over `π_X` classes of the largest sub-class in `π_{X∪Y}`,
//!   and `Q(D, F) = |C| / |D|` ([`fd`]).
//! * **Quality of an instance set** (Definition 2.3): the fraction of join
//!   rows simultaneously correct under every approximate FD holding on the
//!   join ([`joint`]).
//! * **Approximate FD discovery** — a TANE-style levelwise search with
//!   `g₃`-error pruning, used to find the AFDs that "hold" on a (joined)
//!   instance under the user threshold θ ([`tane`]).
//! * **One dense-id kernel** under the last three, in place of explicit
//!   partitions (Definition 2.1): each attribute is encoded as dense group
//!   ids once per table, LHSs are counting-sorted into their equivalence
//!   classes, and one counting pass per `(X, A)` gives both the `g₃` error
//!   and the correct-row mask, so discovery and Definition 2.3 share their
//!   work. Tests pin it against a levelwise search over the stripped
//!   partitions of the test-only `dance-oracle` crate.
//! * **A naive cleaner** ([`repair`]) that deletes FD-violating rows; it
//!   exists to *quantify* the paper's §2.2 argument that cleaning before the
//!   join is incorrect (join changes quality in both directions).

pub mod fd;
pub mod joint;
mod kernel;
pub mod repair;
pub mod tane;

pub use fd::{correct_rows, quality, violations, Fd};
pub use joint::{instance_set_quality, joint_correct_rows, joint_quality};
pub use tane::{discover_afds, TaneConfig};
