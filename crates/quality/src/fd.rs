//! Functional dependencies and per-FD quality (Definition 2.2).
//!
//! An FD `X → Y` with multi-attribute `Y` decomposes into single-RHS rules
//! (§2.2), so [`Fd`] carries one RHS attribute. The *correct record set*
//! `C(D, X→A)` keeps, for every equivalence class of `π_X`, the largest
//! sub-class of `π_{X∪A}`; Definition 2.2 breaks size ties randomly — we break
//! them deterministically toward the sub-class containing the smallest row id,
//! so quality values are reproducible across runs.

use dance_relation::{AttrId, AttrSet, Result, Table};
use std::fmt;

/// A single-RHS functional dependency `lhs → rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fd {
    /// Determinant attribute set `X`.
    pub lhs: AttrSet,
    /// Dependent attribute `A`.
    pub rhs: AttrId,
}

impl Fd {
    /// Construct from attribute names.
    pub fn new<I, S>(lhs: I, rhs: &str) -> Fd
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Fd {
            lhs: AttrSet::from_names(lhs),
            rhs: dance_relation::attr(rhs),
        }
    }

    /// All attributes mentioned by the FD.
    pub fn attributes(&self) -> AttrSet {
        let mut s = self.lhs.clone();
        s.insert(self.rhs);
        s
    }

    /// `true` if every attribute of the FD exists in `t`'s schema.
    pub fn applies_to(&self, t: &Table) -> bool {
        self.attributes()
            .iter()
            .all(|id| t.schema().index_of(id).is_some())
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {}", self.lhs, self.rhs)
    }
}

/// Membership mask of `C(D, F)` (Definition 2.2): `mask[r]` ⇔ row `r` correct.
pub fn correct_rows(t: &Table, fd: &Fd) -> Result<Vec<bool>> {
    crate::kernel::joint_mask(t, std::slice::from_ref(fd))
}

/// `Q(D, F) = |C(D, F)| / |D|` (Definition 2.2). Empty tables are fully correct.
pub fn quality(t: &Table, fd: &Fd) -> Result<f64> {
    if t.num_rows() == 0 {
        return Ok(1.0);
    }
    let mask = correct_rows(t, fd)?;
    Ok(mask.iter().filter(|&&b| b).count() as f64 / t.num_rows() as f64)
}

/// Number of rows violating the FD (`|D| − |C(D, F)|`).
pub fn violations(t: &Table, fd: &Fd) -> Result<usize> {
    let mask = correct_rows(t, fd)?;
    Ok(mask.iter().filter(|&&b| !b).count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::{Table, Value, ValueType};

    fn paper_table2() -> Table {
        Table::from_rows(
            "D",
            &[("fd2_a", ValueType::Str), ("fd2_b", ValueType::Str)],
            vec![
                vec![Value::str("a1"), Value::str("b1")], // t1
                vec![Value::str("a1"), Value::str("b1")], // t2
                vec![Value::str("a1"), Value::str("b2")], // t3
                vec![Value::str("a1"), Value::str("b3")], // t4
                vec![Value::str("a2"), Value::str("b2")], // t5
            ],
        )
        .unwrap()
    }

    /// Golden test: Example 2.1 — C(D, A→B) = {t1, t2, t5}; t3, t4 are errors.
    #[test]
    fn example_2_1_correct_set() {
        let t = paper_table2();
        let fd = Fd::new(["fd2_a"], "fd2_b");
        let mask = correct_rows(&t, &fd).unwrap();
        assert_eq!(mask, vec![true, true, false, false, true]);
        assert!((quality(&t, &fd).unwrap() - 0.6).abs() < 1e-12);
        assert_eq!(violations(&t, &fd).unwrap(), 2);
    }

    #[test]
    fn exact_fd_all_correct() {
        let t = Table::from_rows(
            "ex",
            &[("fde_x", ValueType::Int), ("fde_y", ValueType::Int)],
            (0..30)
                .map(|i| vec![Value::Int(i % 6), Value::Int((i % 6) * 7)])
                .collect(),
        )
        .unwrap();
        assert_eq!(quality(&t, &Fd::new(["fde_x"], "fde_y")).unwrap(), 1.0);
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Two equally-sized sub-classes: b1 rows {0, 3}, b2 rows {1, 2}.
        let t = Table::from_rows(
            "tie",
            &[("fdt_a", ValueType::Str), ("fdt_b", ValueType::Str)],
            vec![
                vec![Value::str("a"), Value::str("b1")],
                vec![Value::str("a"), Value::str("b2")],
                vec![Value::str("a"), Value::str("b2")],
                vec![Value::str("a"), Value::str("b1")],
            ],
        )
        .unwrap();
        let fd = Fd::new(["fdt_a"], "fdt_b");
        let mask = correct_rows(&t, &fd).unwrap();
        // Smallest-first-row tie-break ⇒ b1 (contains row 0) wins.
        assert_eq!(mask, vec![true, false, false, true]);
        // Stable across calls.
        assert_eq!(mask, correct_rows(&t, &fd).unwrap());
    }

    #[test]
    fn multi_attribute_lhs() {
        let t = Table::from_rows(
            "ml",
            &[
                ("fdm_x", ValueType::Int),
                ("fdm_y", ValueType::Int),
                ("fdm_z", ValueType::Str),
            ],
            vec![
                vec![Value::Int(1), Value::Int(1), Value::str("p")],
                vec![Value::Int(1), Value::Int(1), Value::str("p")],
                vec![Value::Int(1), Value::Int(1), Value::str("q")],
                vec![Value::Int(1), Value::Int(2), Value::str("r")],
            ],
        )
        .unwrap();
        let fd = Fd::new(["fdm_x", "fdm_y"], "fdm_z");
        assert!((quality(&t, &fd).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn singleton_lhs_classes_are_correct() {
        let t = Table::from_rows(
            "s",
            &[("fds_k", ValueType::Int), ("fds_v", ValueType::Int)],
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
                vec![Value::Int(3), Value::Int(30)],
            ],
        )
        .unwrap();
        assert_eq!(quality(&t, &Fd::new(["fds_k"], "fds_v")).unwrap(), 1.0);
    }

    #[test]
    fn applies_to_checks_schema() {
        let t = paper_table2();
        assert!(Fd::new(["fd2_a"], "fd2_b").applies_to(&t));
        assert!(!Fd::new(["fd2_a"], "fd2_missing").applies_to(&t));
    }

    #[test]
    fn empty_table_quality_one() {
        let t = Table::from_rows(
            "e",
            &[("fdq_a", ValueType::Int), ("fdq_b", ValueType::Int)],
            vec![],
        )
        .unwrap();
        assert_eq!(quality(&t, &Fd::new(["fdq_a"], "fdq_b")).unwrap(), 1.0);
    }

    #[test]
    fn null_values_form_classes() {
        // NULL in LHS groups like a value; NULL in RHS is a distinct "value".
        let t = Table::from_rows(
            "n",
            &[("fdn_a", ValueType::Str), ("fdn_b", ValueType::Str)],
            vec![
                vec![Value::Null, Value::str("x")],
                vec![Value::Null, Value::str("x")],
                vec![Value::Null, Value::str("y")],
            ],
        )
        .unwrap();
        let q = quality(&t, &Fd::new(["fdn_a"], "fdn_b")).unwrap();
        assert!((q - 2.0 / 3.0).abs() < 1e-12);
    }
}
