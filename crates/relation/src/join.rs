//! Equi-joins.
//!
//! [`hash_join`] implements the two join flavours the paper needs:
//!
//! * **Inner** — the acquisition join `J = ⋈ T_i` (§2.1). NULL keys never
//!   match, per SQL semantics.
//! * **FullOuter** — used only to *measure join informativeness* (Def 2.4),
//!   which penalizes `(val, NULL)` pairs from unmatched rows.
//!
//! Output schema: the join attributes once (coalesced for outer joins), then
//! the left table's remaining attributes, then the right table's remaining
//! attributes. If the sides share a *non-join* attribute name, the left copy
//! wins and the right copy is dropped — the same convention SQL `USING` plus
//! `SELECT left.*` would give. Join-attribute types must agree.
//!
//! Both build and probe run on the **symbol layer** ([`crate::sel`]): keys
//! compare as `u64` words (Int bits, canonical Float bits, `Str` dictionary
//! symbols — with a per-distinct-symbol translator when the two sides hold
//! private dictionaries), and the join first produces a
//! [`crate::sel::JoinSel`] selection vector, materialized by one gather per
//! output column. No boxed `Value` key exists anywhere in this module.
//!
//! Multi-table joins along a join tree (the paper's target graphs are trees)
//! run on the late-materialization tree join [`crate::sel::join_tree_late`];
//! [`JoinEdge`] describes one tree edge and `tree_join_plan` fixes the
//! order in which tables are joined.

use crate::error::{RelationError, Result};
use crate::schema::AttrSet;
use crate::sel::{join_sel_cols, materialize_join_cols, validate_on};
use crate::table::Table;

/// Join flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Matching rows only; NULL keys never match.
    Inner,
    /// All rows; unmatched sides padded with NULL (Def 2.4 measurement).
    FullOuter,
}

/// Hash equi-join of `left ⋈_on right`: a symbol-native selection join
/// ([`crate::sel::join_sel`]) plus one materialization, validated once.
pub fn hash_join(left: &Table, right: &Table, on: &AttrSet, kind: JoinKind) -> Result<Table> {
    let (lcols, rcols) = validate_on(left, right, on)?;
    let sel = join_sel_cols(left, right, &lcols, &rcols, kind);
    materialize_join_cols(left, right, on, &lcols, &rcols, &sel)
}

/// One edge of a join tree: tables `a` and `b` joined on `on`.
#[derive(Debug, Clone)]
pub struct JoinEdge {
    /// Index of the first table.
    pub a: usize,
    /// Index of the second table.
    pub b: usize,
    /// Join attribute set.
    pub on: AttrSet,
}

/// The tree-walk plan: validate `edges` against `num_tables` and fix the
/// exact consumption order — the root table (the first edge's `a`) plus a
/// `(edge index, newly joined table)` sequence where every step joins a new
/// table onto the accumulated result: the first unused edge with exactly one
/// joined endpoint.
pub(crate) fn tree_join_plan(
    num_tables: usize,
    edges: &[JoinEdge],
) -> Result<(usize, Vec<(usize, usize)>)> {
    if edges.len() != num_tables - 1 {
        return Err(RelationError::InvalidJoin(format!(
            "join tree needs {} edges for {num_tables} tables, got {}",
            num_tables - 1,
            edges.len()
        )));
    }
    let mut joined = vec![false; num_tables];
    let mut used = vec![false; edges.len()];
    let start = edges[0].a;
    joined[start] = true;
    let mut plan = Vec::with_capacity(edges.len());
    for _ in 0..edges.len() {
        let next = edges
            .iter()
            .enumerate()
            .find(|(i, e)| !used[*i] && (joined[e.a] ^ joined[e.b]));
        let (i, edge) = next.ok_or_else(|| {
            RelationError::InvalidJoin("join edges do not form a connected tree".into())
        })?;
        used[i] = true;
        let new_side = if joined[edge.a] { edge.b } else { edge.a };
        joined[new_side] = true;
        plan.push((i, new_side));
    }
    if joined.iter().any(|j| !j) {
        return Err(RelationError::InvalidJoin(
            "join edges leave some tables unreached".into(),
        ));
    }
    Ok((start, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::attr;
    use crate::value::{Value, ValueType};

    fn zip_table() -> Table {
        // D1 of Table 1: Zipcode → State with one inconsistent row.
        Table::from_rows(
            "D1",
            &[("join_zip", ValueType::Str), ("join_state", ValueType::Str)],
            vec![
                vec![Value::str("07003"), Value::str("NJ")],
                vec![Value::str("07304"), Value::str("NJ")],
                vec![Value::str("10001"), Value::str("NY")],
                vec![Value::str("10001"), Value::str("NJ")],
            ],
        )
        .unwrap()
    }

    fn disease_table() -> Table {
        Table::from_rows(
            "D2",
            &[
                ("join_state", ValueType::Str),
                ("join_cases", ValueType::Int),
            ],
            vec![
                vec![Value::str("MA"), Value::Int(300)],
                vec![Value::str("NJ"), Value::Int(400)],
                vec![Value::str("NJ"), Value::Int(200)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn inner_join_counts() {
        let j = hash_join(
            &zip_table(),
            &disease_table(),
            &AttrSet::from_names(["join_state"]),
            JoinKind::Inner,
        )
        .unwrap();
        // NJ appears 3× left, 2× right → 6; NY/MA unmatched.
        assert_eq!(j.num_rows(), 6);
        assert_eq!(j.num_attrs(), 3);
        assert_eq!(j.schema().attributes()[0].id, attr("join_state"));
    }

    #[test]
    fn full_outer_keeps_unmatched_both_sides() {
        let j = hash_join(
            &zip_table(),
            &disease_table(),
            &AttrSet::from_names(["join_state"]),
            JoinKind::FullOuter,
        )
        .unwrap();
        // 6 matches + NY (left) + MA (right).
        assert_eq!(j.num_rows(), 8);
        // Coalesced key: the MA row keeps its key value.
        let states: Vec<Value> = (0..j.num_rows())
            .map(|r| j.value_by_attr(r, attr("join_state")).unwrap())
            .collect();
        assert!(states.contains(&Value::str("MA")));
        assert!(states.contains(&Value::str("NY")));
        // Unmatched rows have NULLs in the other side's columns.
        assert!(j.has_nulls());
    }

    #[test]
    fn null_keys_never_match() {
        let l = Table::from_rows(
            "l",
            &[("nj_k", ValueType::Int), ("nj_l", ValueType::Int)],
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Int(7), Value::Int(2)],
            ],
        )
        .unwrap();
        let r = Table::from_rows(
            "r",
            &[("nj_k", ValueType::Int), ("nj_r", ValueType::Int)],
            vec![
                vec![Value::Null, Value::Int(10)],
                vec![Value::Int(7), Value::Int(20)],
            ],
        )
        .unwrap();
        let on = AttrSet::from_names(["nj_k"]);
        let inner = hash_join(&l, &r, &on, JoinKind::Inner).unwrap();
        assert_eq!(inner.num_rows(), 1);
        let outer = hash_join(&l, &r, &on, JoinKind::FullOuter).unwrap();
        // 1 match + 1 left-null + 1 right-null.
        assert_eq!(outer.num_rows(), 3);
    }

    #[test]
    fn join_type_mismatch_rejected() {
        let l =
            Table::from_rows("l", &[("tm_k", ValueType::Int)], vec![vec![Value::Int(1)]]).unwrap();
        let r = Table::from_rows(
            "r",
            &[("tm_k", ValueType::Str)],
            vec![vec![Value::str("1")]],
        )
        .unwrap();
        assert!(hash_join(&l, &r, &AttrSet::from_names(["tm_k"]), JoinKind::Inner).is_err());
    }

    #[test]
    fn empty_or_missing_join_attrs_rejected() {
        let l = zip_table();
        let r = disease_table();
        assert!(hash_join(&l, &r, &AttrSet::empty(), JoinKind::Inner).is_err());
        assert!(hash_join(&l, &r, &AttrSet::from_names(["join_zip"]), JoinKind::Inner).is_err());
    }

    #[test]
    fn duplicate_nonjoin_attr_takes_left_copy() {
        let l = Table::from_rows(
            "l",
            &[("dup_k", ValueType::Int), ("dup_v", ValueType::Int)],
            vec![vec![Value::Int(1), Value::Int(100)]],
        )
        .unwrap();
        let r = Table::from_rows(
            "r",
            &[("dup_k", ValueType::Int), ("dup_v", ValueType::Int)],
            vec![vec![Value::Int(1), Value::Int(200)]],
        )
        .unwrap();
        let j = hash_join(&l, &r, &AttrSet::from_names(["dup_k"]), JoinKind::Inner).unwrap();
        assert_eq!(j.num_attrs(), 2);
        assert_eq!(j.value_by_attr(0, attr("dup_v")).unwrap(), Value::Int(100));
    }
}
