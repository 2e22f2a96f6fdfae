//! Shannon entropy over attribute sets.
//!
//! All quantities are empirical (plug-in) estimates over a table's rows, in
//! **bits**. NULL is treated as an ordinary category: dirty marketplace data
//! carries information in its missingness, and Definition 2.4 explicitly
//! builds distributions containing NULL coordinates.
//!
//! Entropy only consumes *counts*, never key values, so everything here runs
//! on the dense group-id kernel ([`dance_relation::group_ids`]): no boxed
//! keys are materialized at any point.

use dance_relation::{group_ids, AttrSet, Result, Table};

/// Entropy (bits) of a discrete distribution given by `counts` with total `n`.
///
/// Zero counts are ignored; an empty/degenerate distribution has entropy 0.
pub fn entropy_from_counts(counts: impl IntoIterator<Item = u64>, n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let mut h = 0.0;
    for c in counts {
        if c == 0 {
            continue;
        }
        let p = c as f64 / n;
        h -= p * p.log2();
    }
    // Clamp tiny negative rounding residue.
    h.max(0.0)
}

/// Empirical Shannon entropy `H(attrs)` of a table (compound key).
pub fn shannon_entropy(t: &Table, attrs: &AttrSet) -> Result<f64> {
    let g = group_ids(t, attrs)?;
    Ok(entropy_from_counts(g.counts(), t.num_rows() as u64))
}

/// Joint entropy `H(X, Y)`.
pub fn joint_entropy(t: &Table, x: &AttrSet, y: &AttrSet) -> Result<f64> {
    shannon_entropy(t, &x.union(y))
}

/// Conditional entropy `H(X | Y) = H(X, Y) − H(Y)` (never negative).
pub fn conditional_entropy(t: &Table, x: &AttrSet, y: &AttrSet) -> Result<f64> {
    Ok((joint_entropy(t, x, y)? - shannon_entropy(t, y)?).max(0.0))
}

/// Mutual information `I(X; Y) = H(X) + H(Y) − H(X, Y)` (never negative).
pub fn mutual_information(t: &Table, x: &AttrSet, y: &AttrSet) -> Result<f64> {
    let gx = group_ids(t, x)?;
    let gy = group_ids(t, y)?;
    let joint = gx.zip(&gy);
    let n = t.num_rows() as u64;
    let hx = entropy_from_counts(gx.counts(), n);
    let hy = entropy_from_counts(gy.counts(), n);
    let hxy = entropy_from_counts(joint.counts(), n);
    Ok((hx + hy - hxy).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::{Table, Value, ValueType};

    fn t4() -> Table {
        Table::from_rows(
            "e",
            &[("ent_x", ValueType::Str), ("ent_y", ValueType::Int)],
            vec![
                vec![Value::str("a"), Value::Int(0)],
                vec![Value::str("a"), Value::Int(0)],
                vec![Value::str("b"), Value::Int(1)],
                vec![Value::str("b"), Value::Int(1)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn uniform_two_categories_is_one_bit() {
        let h = shannon_entropy(&t4(), &AttrSet::from_names(["ent_x"])).unwrap();
        assert!((h - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_relation_gives_full_mi() {
        let x = AttrSet::from_names(["ent_x"]);
        let y = AttrSet::from_names(["ent_y"]);
        let i = mutual_information(&t4(), &x, &y).unwrap();
        assert!((i - 1.0).abs() < 1e-12);
        let c = conditional_entropy(&t4(), &x, &y).unwrap();
        assert!(c.abs() < 1e-12);
    }

    #[test]
    fn independent_attributes_have_zero_mi() {
        let t = Table::from_rows(
            "ind",
            &[("ind_x", ValueType::Str), ("ind_y", ValueType::Str)],
            vec![
                vec![Value::str("a"), Value::str("u")],
                vec![Value::str("a"), Value::str("v")],
                vec![Value::str("b"), Value::str("u")],
                vec![Value::str("b"), Value::str("v")],
            ],
        )
        .unwrap();
        let i = mutual_information(
            &t,
            &AttrSet::from_names(["ind_x"]),
            &AttrSet::from_names(["ind_y"]),
        )
        .unwrap();
        assert!(i.abs() < 1e-12);
    }

    #[test]
    fn entropy_bounds() {
        // H ∈ [0, log2(n)] for n rows.
        let t = Table::from_rows(
            "b",
            &[("bnd_x", ValueType::Int)],
            (0..8).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        let h = shannon_entropy(&t, &AttrSet::from_names(["bnd_x"])).unwrap();
        assert!((h - 3.0).abs() < 1e-12);
    }

    #[test]
    fn null_is_a_category() {
        let t = Table::from_rows(
            "n",
            &[("nul_x", ValueType::Str)],
            vec![vec![Value::Null], vec![Value::str("a")]],
        )
        .unwrap();
        let h = shannon_entropy(&t, &AttrSet::from_names(["nul_x"])).unwrap();
        assert!((h - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table_entropy_zero() {
        let t = Table::from_rows("z", &[("emp_x", ValueType::Int)], vec![]).unwrap();
        assert_eq!(
            shannon_entropy(&t, &AttrSet::from_names(["emp_x"])).unwrap(),
            0.0
        );
    }

    #[test]
    fn entropy_from_counts_ignores_zeros() {
        assert_eq!(entropy_from_counts([0, 4, 0, 4], 8), 1.0);
        assert_eq!(entropy_from_counts([], 0), 0.0);
    }
}
