//! Join informativeness (Definition 2.4) on value histograms.
//!
//! For a key `v` with multiplicities `n_L(v), n_R(v)`, the full outer join
//! holds `n_L·n_R` pairs `(v, v)` when `v` is on both sides, else `n_L`
//! pairs `(v, NULL)` or `n_R` pairs `(NULL, v)`. Keys containing NULL never
//! match. The fold keeps its own copy of the production rule that sorts each
//! bucket list before summing, so its float sum is the production one bit
//! for bit, whatever order the hash maps yield.

use crate::histogram::{value_counts, GroupKey};
use dance_relation::{AttrSet, FxHashMap, RelationError, Result, Table, Value};

/// `JI(D, D')` on join attributes `j`, from per-row value histograms. Unlike
/// the production symbol path it takes join sets of any width.
pub fn join_informativeness(d1: &Table, d2: &Table, j: &AttrSet) -> Result<f64> {
    if j.is_empty() {
        return Err(RelationError::InvalidJoin(
            "join informativeness needs a non-empty join attribute set".into(),
        ));
    }
    Ok(ji_from_counts(&value_counts(d1, j)?, &value_counts(d2, j)?))
}

/// JI from two per-table key histograms.
pub fn ji_from_counts(left: &FxHashMap<GroupKey, u64>, right: &FxHashMap<GroupKey, u64>) -> f64 {
    let joinable = |k: &GroupKey| !k.iter().any(Value::is_null);
    let mut joint: Vec<u128> = Vec::new();
    let mut left_marginal: Vec<u128> = Vec::new();
    let mut right_marginal: Vec<u128> = Vec::new();
    let (mut left_null, mut right_null, mut matched, mut total) = (0u128, 0u128, 0u128, 0u128);
    for (k, &nl) in left {
        let nl = nl as u128;
        match right.get(k).filter(|_| joinable(k)) {
            Some(&nr) => {
                let c = nl * nr as u128;
                joint.push(c);
                left_marginal.push(c);
                right_marginal.push(c);
                matched += c;
                total += c;
            }
            None => {
                joint.push(nl);
                left_marginal.push(nl);
                right_null += nl;
                total += nl;
            }
        }
    }
    for (k, &nr) in right {
        if !(joinable(k) && left.contains_key(k)) {
            let nr = nr as u128;
            joint.push(nr);
            right_marginal.push(nr);
            left_null += nr;
            total += nr;
        }
    }
    if left_null > 0 {
        left_marginal.push(left_null);
    }
    if right_null > 0 {
        right_marginal.push(right_null);
    }
    for v in [&mut joint, &mut left_marginal, &mut right_marginal] {
        v.sort_unstable();
    }
    let h_joint = entropy(&joint, total);
    if h_joint <= 0.0 {
        // One support point: all matched ⇒ 0, nothing matched or empty ⇒ 1.
        return if total == 0 || matched == 0 { 1.0 } else { 0.0 };
    }
    let mi = (entropy(&left_marginal, total) + entropy(&right_marginal, total) - h_joint).max(0.0);
    ((h_joint - mi) / h_joint).clamp(0.0, 1.0)
}

fn entropy(counts: &[u128], n: u128) -> f64 {
    let nf = n as f64;
    let mut h = 0.0;
    for &c in counts.iter().filter(|&&c| c > 0) {
        let p = c as f64 / nf;
        h -= p * p.log2();
    }
    h.max(0.0)
}
