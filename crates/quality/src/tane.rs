//! TANE-style levelwise discovery of approximate functional dependencies.
//!
//! The paper's quality measure (Definition 2.3) needs "the set of AFDs that
//! hold on `J`" for a join result `J` — so AFD discovery is a substrate, not
//! an optional extra, and it runs once for every candidate join the search
//! evaluates. This is a classic levelwise search (Huhtala et al. \[12\]) over
//! LHS candidates, using the `g₃` error (minimum row deletions) as the
//! approximation measure:
//!
//! * `X → A` *holds* as an AFD iff `g₃(X → A) ≤ θ` — equivalently
//!   `Q(D, X→A) ≥ 1 − θ` with the paper's quality (the experiments use
//!   θ = 0.1, "the amount of records that do not satisfy FDs is less than
//!   10%").
//! * Only **minimal** AFDs are reported: `X → A` is skipped when some proper
//!   subset of `X` already determines `A`.
//! * Superkey LHSs (no class of two or more rows) determine every attribute
//!   exactly; they are reported at their first (minimal) level and never
//!   extended.
//!
//! The search runs on the dense-id quality kernel (`kernel.rs`): each
//! attribute is encoded once, each LHS is counting-sorted into its classes,
//! and each `g₃` is one counting pass over the LHS's class support — the same
//! pass [`crate::joint::instance_set_quality`] takes its correct-row mask
//! from.
//!
//! Complexity is bounded by [`TaneConfig::max_lhs`] and
//! [`TaneConfig::max_attrs`]; marketplace samples are modest, and the
//! experiments only need LHSs of size ≤ 2–3.

use crate::fd::Fd;
use dance_relation::{Result, Table};

/// Bounds and threshold for AFD discovery.
#[derive(Debug, Clone, Copy)]
pub struct TaneConfig {
    /// AFD error threshold θ (AFD holds iff `g₃ ≤ θ`).
    pub error_threshold: f64,
    /// Maximum LHS size explored.
    pub max_lhs: usize,
    /// Maximum number of attributes considered (schema order); bounds the lattice.
    pub max_attrs: usize,
}

impl Default for TaneConfig {
    fn default() -> Self {
        TaneConfig {
            error_threshold: 0.1,
            max_lhs: 2,
            max_attrs: 24,
        }
    }
}

/// An AFD found by [`discover_afds`], with its `g₃` error.
#[derive(Debug, Clone)]
pub struct DiscoveredFd {
    /// The dependency.
    pub fd: Fd,
    /// Its `g₃` error on the input table (`≤ θ`).
    pub error: f64,
}

/// Discover minimal approximate FDs of `t` under `cfg`.
///
/// Output is deterministic: sorted by (LHS size, LHS ids, RHS id).
pub fn discover_afds(t: &Table, cfg: &TaneConfig) -> Result<Vec<DiscoveredFd>> {
    crate::kernel::discover(t, cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::{attr, AttrId, AttrSet, Table, Value, ValueType};

    fn zip_state_city(n_bad: usize) -> Table {
        // zipcode → state holds with `n_bad` violations out of 100 rows.
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                let zip = format!("z{}", i % 10);
                let state = if i < n_bad {
                    "WRONG".to_string()
                } else {
                    format!("s{}", i % 10)
                };
                vec![Value::str(zip), Value::str(state), Value::Int(i as i64)]
            })
            .collect();
        Table::from_rows(
            "zsc",
            &[
                ("tn_zip", ValueType::Str),
                ("tn_state", ValueType::Str),
                ("tn_id", ValueType::Int),
            ],
            rows,
        )
        .unwrap()
    }

    #[test]
    fn finds_exact_fd() {
        let t = zip_state_city(0);
        let found = discover_afds(&t, &TaneConfig::default()).unwrap();
        let has = found
            .iter()
            .any(|d| d.fd.lhs == AttrSet::from_names(["tn_zip"]) && d.fd.rhs == attr("tn_state"));
        assert!(has, "zip→state should be discovered: {found:?}");
    }

    #[test]
    fn threshold_separates_afd_from_noise() {
        let t = zip_state_city(5); // 5% violations
        let strict = TaneConfig {
            error_threshold: 0.01,
            ..TaneConfig::default()
        };
        let loose = TaneConfig {
            error_threshold: 0.1,
            ..TaneConfig::default()
        };
        let zs = |cfg: &TaneConfig| {
            discover_afds(&t, cfg).unwrap().iter().any(|d| {
                d.fd.lhs == AttrSet::from_names(["tn_zip"]) && d.fd.rhs == attr("tn_state")
            })
        };
        assert!(!zs(&strict));
        assert!(zs(&loose));
    }

    #[test]
    fn key_determines_everything() {
        let t = zip_state_city(0);
        // tn_id is a key → id→zip and id→state hold exactly.
        let found = discover_afds(&t, &TaneConfig::default()).unwrap();
        let id = AttrSet::from_names(["tn_id"]);
        let rhs: Vec<AttrId> = found
            .iter()
            .filter(|d| d.fd.lhs == id)
            .map(|d| d.fd.rhs)
            .collect();
        assert!(rhs.contains(&attr("tn_zip")));
        assert!(rhs.contains(&attr("tn_state")));
        // Key LHS is never extended: no FD has a superset of {id} as LHS.
        assert!(found
            .iter()
            .all(|d| !(d.fd.lhs.len() > 1 && id.is_subset(&d.fd.lhs))));
    }

    #[test]
    fn only_minimal_fds_reported() {
        let t = zip_state_city(0);
        let found = discover_afds(
            &t,
            &TaneConfig {
                max_lhs: 2,
                ..TaneConfig::default()
            },
        )
        .unwrap();
        // zip→state holds, so {zip, X}→state must not be reported.
        for d in &found {
            if d.fd.rhs == attr("tn_state") && d.fd.lhs.len() > 1 {
                assert!(
                    !d.fd.lhs.contains(attr("tn_zip")),
                    "non-minimal FD reported: {}",
                    d.fd
                );
            }
        }
    }

    #[test]
    fn reported_errors_match_direct_quality() {
        let t = zip_state_city(7);
        let found = discover_afds(
            &t,
            &TaneConfig {
                error_threshold: 0.2,
                ..TaneConfig::default()
            },
        )
        .unwrap();
        for d in found {
            let q = crate::fd::quality(&t, &d.fd).unwrap();
            assert!(
                (q - (1.0 - d.error)).abs() < 1e-9,
                "{}: TANE error {} vs quality {}",
                d.fd,
                d.error,
                q
            );
        }
    }

    #[test]
    fn degenerate_inputs() {
        let one_col = Table::from_rows(
            "one",
            &[("tn_only", ValueType::Int)],
            vec![vec![Value::Int(1)]],
        )
        .unwrap();
        assert!(discover_afds(&one_col, &TaneConfig::default())
            .unwrap()
            .is_empty());
        let empty = Table::from_rows(
            "e",
            &[("tn_e1", ValueType::Int), ("tn_e2", ValueType::Int)],
            vec![],
        )
        .unwrap();
        assert!(discover_afds(&empty, &TaneConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn deterministic_output_order() {
        let t = zip_state_city(3);
        let a = discover_afds(&t, &TaneConfig::default()).unwrap();
        let b = discover_afds(&t, &TaneConfig::default()).unwrap();
        let fmt = |v: &[DiscoveredFd]| {
            v.iter()
                .map(|d| d.fd.to_string())
                .collect::<Vec<_>>()
                .join(";")
        };
        assert_eq!(fmt(&a), fmt(&b));
    }
}
