//! Quality of a set of instances (Definition 2.3).
//!
//! For instances `D` with join result `J` and the set `F` of AFDs holding on
//! `J`, the correct records are `C(J, F) = ⋂_{F_i ∈ F} C(J, F_i)` and
//! `Q(D) = |C(J, F)| / |J|`. The quality is measured **on the join result** —
//! §2.2's Example 2.2 shows joins can turn high-quality inputs into
//! low-quality outputs and vice versa, which is why DANCE cannot clean first
//! and must evaluate quality online.

use crate::fd::Fd;
use crate::tane::TaneConfig;
use dance_relation::{Result, Table};

/// Mask of rows correct under **all** of `fds` (`C(J, F)` membership).
///
/// FDs whose attributes are absent from `t` are an error — quality against a
/// dependency the table cannot express is undefined.
pub fn joint_correct_rows(t: &Table, fds: &[Fd]) -> Result<Vec<bool>> {
    crate::kernel::joint_mask(t, fds)
}

/// `Q(J, F)` for an explicit FD set (Definition 2.3 with `F` given).
pub fn joint_quality(t: &Table, fds: &[Fd]) -> Result<f64> {
    if t.num_rows() == 0 {
        return Ok(1.0);
    }
    let mask = joint_correct_rows(t, fds)?;
    Ok(share_correct(&mask))
}

/// Full Definition 2.3: discover the AFDs holding on the join result under
/// `cfg`, then measure the joint quality against them.
///
/// Discovery and the mask share one pass: every AFD clears the rows outside
/// its correct-record set as soon as it is found, so nothing is regrouped.
/// With no AFDs discovered the quality is vacuously 1. Exact FDs (key FDs
/// included) keep all rows and do not affect the intersection.
pub fn instance_set_quality(join: &Table, cfg: &TaneConfig) -> Result<f64> {
    if join.num_rows() == 0 {
        return Ok(1.0);
    }
    let mut mask = vec![true; join.num_rows()];
    crate::kernel::discover(join, cfg, Some(&mut mask))?;
    Ok(share_correct(&mask))
}

/// `|C| / |J|` for a non-empty mask.
fn share_correct(mask: &[bool]) -> f64 {
    mask.iter().filter(|&&b| b).count() as f64 / mask.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::join::{hash_join, JoinKind};
    use dance_relation::{AttrSet, Table, Value, ValueType};

    /// Build the paper's Table 3(a): D1(A, B, C) with Q(D1, A→B) = 0.996.
    fn paper_d1() -> Table {
        let mut rows = Vec::new();
        // t1..t996: (a1, b1, c_{i+3}) → C values c4..c999.
        for i in 0..996 {
            rows.push(vec![
                Value::str("a1"),
                Value::str("b1"),
                Value::str(format!("c{}", i + 4)),
            ]);
        }
        rows.push(vec![Value::str("a1"), Value::str("b2"), Value::str("c1")]); // t997
        rows.push(vec![Value::str("a1"), Value::str("b2"), Value::str("c2")]); // t998
        rows.push(vec![Value::str("a1"), Value::str("b3"), Value::str("c3")]); // t999
        rows.push(vec![Value::str("a1"), Value::str("b3"), Value::str("c3")]); // t1000
        Table::from_rows(
            "D1",
            &[
                ("t3_a", ValueType::Str),
                ("t3_b", ValueType::Str),
                ("t3_c", ValueType::Str),
            ],
            rows,
        )
        .unwrap()
    }

    /// Table 3(b): D2(C, D, E) with Q(D2, D→E) = 0.6.
    ///
    /// The paper prints t5 = (c4, d1, e2), but its stated join result (5
    /// tuples) excludes any c4 match; we use an unmatched key c5000 so the
    /// join reproduces Table 3(c) exactly as printed.
    fn paper_d2() -> Table {
        Table::from_rows(
            "D2",
            &[
                ("t3_c", ValueType::Str),
                ("t3_d", ValueType::Str),
                ("t3_e", ValueType::Str),
            ],
            vec![
                vec![Value::str("c1"), Value::str("d1"), Value::str("e1")],
                vec![Value::str("c1"), Value::str("d1"), Value::str("e1")],
                vec![Value::str("c2"), Value::str("d1"), Value::str("e2")],
                vec![Value::str("c3"), Value::str("d1"), Value::str("e2")],
                vec![Value::str("c5000"), Value::str("d1"), Value::str("e2")],
            ],
        )
        .unwrap()
    }

    /// Golden test: Example 2.2 end to end.
    /// Q(D1) = 0.996 and Q(D2) = 0.6 individually, yet Q(D1 ⋈ D2) = 0.2.
    #[test]
    fn example_2_2_join_degrades_quality() {
        let d1 = paper_d1();
        let d2 = paper_d2();
        let fd_ab = Fd::new(["t3_a"], "t3_b");
        let fd_de = Fd::new(["t3_d"], "t3_e");

        let q1 = crate::fd::quality(&d1, &fd_ab).unwrap();
        assert!((q1 - 0.996).abs() < 1e-12, "Q(D1) = {q1}");
        let q2 = crate::fd::quality(&d2, &fd_de).unwrap();
        assert!((q2 - 0.6).abs() < 1e-12, "Q(D2) = {q2}");

        let j = hash_join(&d1, &d2, &AttrSet::from_names(["t3_c"]), JoinKind::Inner).unwrap();
        assert_eq!(j.num_rows(), 5, "paper's Table 3(c) has 5 tuples");

        let q_join = joint_quality(&j, &[fd_ab, fd_de]).unwrap();
        assert!((q_join - 0.2).abs() < 1e-12, "Q(D1 ⋈ D2) = {q_join}");
    }

    /// The reverse direction of §2.2: a join can *raise* quality, because the
    /// join drops the violating rows.
    #[test]
    fn join_can_improve_quality() {
        let dirty = Table::from_rows(
            "dirty",
            &[
                ("up_k", ValueType::Int),
                ("up_x", ValueType::Str),
                ("up_y", ValueType::Str),
            ],
            vec![
                vec![Value::Int(1), Value::str("x"), Value::str("ok")],
                vec![Value::Int(1), Value::str("x"), Value::str("ok")],
                vec![Value::Int(2), Value::str("x"), Value::str("BAD")],
            ],
        )
        .unwrap();
        let fd = Fd::new(["up_x"], "up_y");
        let q_before = crate::fd::quality(&dirty, &fd).unwrap();
        assert!((q_before - 2.0 / 3.0).abs() < 1e-12);

        // Joining with a filter table that only matches k = 1 drops the violator.
        let filter =
            Table::from_rows("f", &[("up_k", ValueType::Int)], vec![vec![Value::Int(1)]]).unwrap();
        let j = hash_join(
            &dirty,
            &filter,
            &AttrSet::from_names(["up_k"]),
            JoinKind::Inner,
        )
        .unwrap();
        let q_after = joint_quality(&j, &[fd]).unwrap();
        assert_eq!(q_after, 1.0);
    }

    #[test]
    fn joint_quality_intersects_masks() {
        let t = Table::from_rows(
            "ji",
            &[
                ("jq_a", ValueType::Str),
                ("jq_b", ValueType::Str),
                ("jq_c", ValueType::Str),
                ("jq_d", ValueType::Str),
            ],
            vec![
                // a→b violated by row 2; c→d violated by row 0.
                vec![
                    Value::str("a1"),
                    Value::str("b1"),
                    Value::str("c1"),
                    Value::str("dX"),
                ],
                vec![
                    Value::str("a1"),
                    Value::str("b1"),
                    Value::str("c1"),
                    Value::str("d1"),
                ],
                vec![
                    Value::str("a1"),
                    Value::str("b2"),
                    Value::str("c1"),
                    Value::str("d1"),
                ],
            ],
        )
        .unwrap();
        let fd1 = Fd::new(["jq_a"], "jq_b");
        let fd2 = Fd::new(["jq_c"], "jq_d");
        let mask = joint_correct_rows(&t, &[fd1.clone(), fd2.clone()]).unwrap();
        assert_eq!(mask, vec![false, true, false]);
        assert!((joint_quality(&t, &[fd1, fd2]).unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_fd_set_is_vacuously_perfect() {
        let t = paper_d2();
        assert_eq!(joint_quality(&t, &[]).unwrap(), 1.0);
    }

    #[test]
    fn missing_fd_attribute_is_error() {
        let t = paper_d2();
        assert!(joint_quality(&t, &[Fd::new(["nonexistent_lhs"], "t3_e")]).is_err());
    }

    #[test]
    fn instance_set_quality_discovers_and_scores() {
        // Table where zip→state holds approximately; quality < 1 but > 0.8.
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                let state = if i < 8 {
                    "BAD".into()
                } else {
                    format!("s{}", i % 5)
                };
                vec![Value::str(format!("z{}", i % 5)), Value::str(state)]
            })
            .collect();
        let t = Table::from_rows(
            "isq",
            &[("isq_zip", ValueType::Str), ("isq_state", ValueType::Str)],
            rows,
        )
        .unwrap();
        let q = instance_set_quality(&t, &TaneConfig::default()).unwrap();
        assert!(q > 0.8 && q < 1.0, "q = {q}");
    }
}
