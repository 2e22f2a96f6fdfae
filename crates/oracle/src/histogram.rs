//! Per-row value histograms: every row's key over an attribute set is
//! materialized as a boxed [`Value`] tuple and hashed.

use dance_relation::{AttrSet, FxHashMap, Result, Table, Value};

/// Materialized group-by key: one row's values over an attribute set.
pub type GroupKey = Box<[Value]>;

/// The key of `row` over the column positions `cols`.
pub(crate) fn row_key(t: &Table, row: usize, cols: &[usize]) -> GroupKey {
    cols.iter().map(|&c| t.value(row, c)).collect()
}

/// Count of rows per distinct key of `attrs`. NULL is a value of its own.
pub fn value_counts(t: &Table, attrs: &AttrSet) -> Result<FxHashMap<GroupKey, u64>> {
    let cols = t.attr_indices(attrs)?;
    let mut counts: FxHashMap<GroupKey, u64> = FxHashMap::default();
    for r in 0..t.num_rows() {
        *counts.entry(row_key(t, r, &cols)).or_insert(0) += 1;
    }
    Ok(counts)
}

/// Row indices (ascending) per distinct key of `attrs`: the equivalence
/// classes of Definition 2.1.
pub fn group_rows(t: &Table, attrs: &AttrSet) -> Result<FxHashMap<GroupKey, Vec<u32>>> {
    let cols = t.attr_indices(attrs)?;
    let mut groups: FxHashMap<GroupKey, Vec<u32>> = FxHashMap::default();
    for r in 0..t.num_rows() {
        groups
            .entry(row_key(t, r, &cols))
            .or_default()
            .push(r as u32);
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::ValueType;

    fn t() -> Table {
        Table::from_rows(
            "h",
            &[("hist_a", ValueType::Str), ("hist_b", ValueType::Int)],
            vec![
                vec![Value::str("u"), Value::Int(1)],
                vec![Value::str("u"), Value::Int(1)],
                vec![Value::str("u"), Value::Int(2)],
                vec![Value::str("v"), Value::Int(2)],
                vec![Value::Null, Value::Int(2)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn counts_group_nulls_together() {
        let c = value_counts(&t(), &AttrSet::from_names(["hist_a"])).unwrap();
        assert_eq!(c.len(), 3); // u, v, NULL
        assert_eq!(c[&Box::from([Value::str("u")]) as &GroupKey], 3);
        assert_eq!(c[&Box::from([Value::Null]) as &GroupKey], 1);
    }

    #[test]
    fn group_rows_partitions_all_rows() {
        let g = group_rows(&t(), &AttrSet::from_names(["hist_b"])).unwrap();
        let total: usize = g.values().map(Vec::len).sum();
        assert_eq!(total, 5);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn multi_attribute_keys() {
        let c = value_counts(&t(), &AttrSet::from_names(["hist_a", "hist_b"])).unwrap();
        assert_eq!(c.len(), 4);
    }
}
