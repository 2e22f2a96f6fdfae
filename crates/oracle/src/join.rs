//! Value-keyed equi-joins and per-hop materializing tree joins.
//!
//! [`hash_join`] materializes one boxed key per row on both sides; every hop
//! of [`join_tree`] gathers a full intermediate table. Output conventions
//! are the production ones: the join attributes once (coalesced for outer
//! joins), then the left remainder, then the right attributes the output
//! does not have yet; matches in left-row, then right-row order; outer joins
//! append the unmatched right rows, those with a NULL key last.

use crate::histogram::{row_key, GroupKey};
use dance_relation::hash::{stable_hash64, unit_interval};
use dance_relation::join::{JoinEdge, JoinKind};
use dance_relation::{
    AttrSet, Attribute, ColumnBuilder, FxHashMap, RelationError, Result, Schema, Table, Value,
};
use dance_sampling::{ResampleConfig, ResampleStats};

/// Hash equi-join `left ⋈_on right` on materialized value keys.
pub fn hash_join(left: &Table, right: &Table, on: &AttrSet, kind: JoinKind) -> Result<Table> {
    if on.is_empty() {
        return Err(RelationError::InvalidJoin(
            "join attribute set is empty".into(),
        ));
    }
    let lcols = left.attr_indices(on)?;
    let rcols = right.attr_indices(on)?;
    for (&l, &r) in lcols.iter().zip(&rcols) {
        let (lt, rt) = (
            left.schema().attributes()[l].ty,
            right.schema().attributes()[r].ty,
        );
        if lt != rt {
            return Err(RelationError::TypeMismatch(format!(
                "join attribute type mismatch: {lt} vs {rt}"
            )));
        }
    }

    let has_null = |k: &GroupKey| k.iter().any(Value::is_null);
    let mut build: FxHashMap<GroupKey, Vec<u32>> = FxHashMap::default();
    let mut right_null_rows: Vec<u32> = Vec::new();
    for r in 0..right.num_rows() {
        let key = row_key(right, r, &rcols);
        if has_null(&key) {
            right_null_rows.push(r as u32);
        } else {
            build.entry(key).or_default().push(r as u32);
        }
    }
    let mut li: Vec<Option<u32>> = Vec::new();
    let mut ri: Vec<Option<u32>> = Vec::new();
    let mut right_matched = vec![false; right.num_rows()];
    for l in 0..left.num_rows() {
        match build.get(&row_key(left, l, &lcols)) {
            Some(matches) => {
                for &r in matches {
                    li.push(Some(l as u32));
                    ri.push(Some(r));
                    right_matched[r as usize] = true;
                }
            }
            None if kind == JoinKind::FullOuter => {
                li.push(Some(l as u32));
                ri.push(None);
            }
            None => {}
        }
    }
    if kind == JoinKind::FullOuter {
        for &r in &right_null_rows {
            right_matched[r as usize] = true;
        }
        let unmatched = (0..right.num_rows() as u32).filter(|&r| !right_matched[r as usize]);
        for r in unmatched.chain(right_null_rows.iter().copied()) {
            li.push(None);
            ri.push(Some(r));
        }
    }

    let mut attrs = Vec::new();
    let mut columns = Vec::new();
    // Join columns: coalesce(left, right) so outer rows keep their key.
    for (id, (&lc, &rc)) in on.iter().zip(lcols.iter().zip(&rcols)) {
        let ty = left.schema().attributes()[lc].ty;
        let mut b = ColumnBuilder::new(ty);
        for (l, r) in li.iter().zip(&ri) {
            let v = match (l, r) {
                (Some(l), _) => left.value(*l as usize, lc),
                (None, Some(r)) => right.value(*r as usize, rc),
                (None, None) => Value::Null,
            };
            b.push(&v)?;
        }
        attrs.push(Attribute { id, ty });
        columns.push(b.finish());
    }
    for (c, a) in left.schema().attributes().iter().enumerate() {
        if !on.contains(a.id) {
            attrs.push(*a);
            columns.push(left.column(c).gather_opt(&li));
        }
    }
    let taken: AttrSet = attrs.iter().map(|a| a.id).collect();
    for (c, a) in right.schema().attributes().iter().enumerate() {
        if !taken.contains(a.id) {
            attrs.push(*a);
            columns.push(right.column(c).gather_opt(&ri));
        }
    }
    let name = format!("{}⋈{}", left.name(), right.name());
    Table::new(name, Schema::new(attrs)?, columns)
}

/// Join `tables` along tree `edges` (inner joins), materializing every hop
/// and passing it through `intermediate`, which may replace it.
///
/// The first edge's `a` is the root; each step takes the first unused edge
/// with exactly one joined endpoint and joins its other endpoint onto the
/// accumulated result.
pub fn join_tree(
    tables: &[&Table],
    edges: &[JoinEdge],
    mut intermediate: impl FnMut(Table) -> Table,
) -> Result<Table> {
    if tables.is_empty() {
        return Err(RelationError::InvalidJoin("no tables to join".into()));
    }
    if tables.len() == 1 {
        return Ok(tables[0].clone());
    }
    if edges.len() != tables.len() - 1 {
        return Err(RelationError::InvalidJoin(format!(
            "join tree needs {} edges for {} tables, got {}",
            tables.len() - 1,
            tables.len(),
            edges.len()
        )));
    }
    let mut joined = vec![false; tables.len()];
    let mut used = vec![false; edges.len()];
    joined[edges[0].a] = true;
    let mut acc = tables[edges[0].a].clone();
    for _ in 0..edges.len() {
        let (i, e) = edges
            .iter()
            .enumerate()
            .find(|(i, e)| !used[*i] && (joined[e.a] ^ joined[e.b]))
            .ok_or_else(|| {
                RelationError::InvalidJoin("join edges do not form a connected tree".into())
            })?;
        used[i] = true;
        let new_side = if joined[e.a] { e.b } else { e.a };
        joined[new_side] = true;
        acc = intermediate(hash_join(&acc, tables[new_side], &e.on, JoinKind::Inner)?);
    }
    Ok(acc)
}

/// [`join_tree`] with §3.2 re-sampling: after hop `s` (from 1), an
/// intermediate result above `cfg.eta` rows keeps row `r` iff
/// `unit_interval(stable_hash64(cfg.seed ^ s, r)) < cfg.rate`.
pub fn join_tree_bounded(
    tables: &[&Table],
    edges: &[JoinEdge],
    cfg: Option<&ResampleConfig>,
) -> Result<(Table, ResampleStats)> {
    let mut stats = ResampleStats {
        cumulative_rate: 1.0,
        ..ResampleStats::default()
    };
    let mut step: u64 = 0;
    let joined = join_tree(tables, edges, |t| {
        step += 1;
        stats.max_intermediate = stats.max_intermediate.max(t.num_rows());
        match cfg {
            Some(c) if t.num_rows() > c.eta => {
                stats.resampled_steps += 1;
                stats.cumulative_rate *= c.rate;
                let keep: Vec<u32> = (0..t.num_rows() as u32)
                    .filter(|&r| unit_interval(stable_hash64(c.seed ^ step, &(r as u64))) < c.rate)
                    .collect();
                t.gather(&keep)
            }
            _ => t,
        }
    })?;
    Ok((joined, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::{attr, ValueType};

    fn int_table(name: &str, cols: [&str; 2], rows: &[[i64; 2]]) -> Table {
        Table::from_rows(
            name,
            &[(cols[0], ValueType::Int), (cols[1], ValueType::Int)],
            rows.iter()
                .map(|r| vec![Value::Int(r[0]), Value::Int(r[1])])
                .collect(),
        )
        .unwrap()
    }

    fn edge(a: usize, b: usize, on: &str) -> JoinEdge {
        JoinEdge {
            a,
            b,
            on: AttrSet::from_names([on]),
        }
    }

    #[test]
    fn three_way_tree_join() {
        let a = int_table("A", ["tw_x", "tw_y"], &[[1, 10], [2, 20]]);
        let b = int_table("B", ["tw_y", "tw_z"], &[[10, 100], [20, 200]]);
        let c = int_table("C", ["tw_z", "tw_w"], &[[100, 7]]);
        let mut hook_calls = 0;
        let j = join_tree(
            &[&a, &b, &c],
            &[edge(0, 1, "tw_y"), edge(1, 2, "tw_z")],
            |t| {
                hook_calls += 1;
                t
            },
        )
        .unwrap();
        assert_eq!(hook_calls, 2);
        assert_eq!(j.num_rows(), 1);
        assert_eq!(j.value_by_attr(0, attr("tw_w")).unwrap(), Value::Int(7));
    }

    #[test]
    fn disconnected_tree_rejected() {
        let a = int_table("A", ["dj_x", "dj_p"], &[[1, 0]]);
        let b = int_table("B", ["dj_x", "dj_q"], &[[1, 0]]);
        let c = int_table("C", ["dj_y", "dj_r"], &[[1, 0]]);
        let edges = [edge(0, 1, "dj_x"), edge(0, 1, "dj_x")];
        assert!(join_tree(&[&a, &b, &c], &edges, |t| t).is_err());
    }

    #[test]
    fn full_outer_appends_unmatched_right_rows_null_keys_last() {
        let l = Table::from_rows(
            "l",
            &[("oj_k", ValueType::Int), ("oj_l", ValueType::Int)],
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Null, Value::Int(11)],
            ],
        )
        .unwrap();
        let r = Table::from_rows(
            "r",
            &[("oj_k", ValueType::Int), ("oj_r", ValueType::Int)],
            vec![
                vec![Value::Null, Value::Int(20)],
                vec![Value::Int(2), Value::Int(21)],
                vec![Value::Int(1), Value::Int(22)],
            ],
        )
        .unwrap();
        let on = AttrSet::from_names(["oj_k"]);
        let j = hash_join(&l, &r, &on, JoinKind::FullOuter).unwrap();
        let rows: Vec<Vec<Value>> = (0..j.num_rows()).map(|i| j.row(i)).collect();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(22)],
                vec![Value::Null, Value::Int(11), Value::Null],
                vec![Value::Int(2), Value::Null, Value::Int(21)],
                vec![Value::Null, Value::Null, Value::Int(20)],
            ]
        );
        assert_eq!(
            hash_join(&l, &r, &on, JoinKind::Inner).unwrap().num_rows(),
            1
        );
    }
}
