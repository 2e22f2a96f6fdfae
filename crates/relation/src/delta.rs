//! Row-level deltas for incremental catalog maintenance.
//!
//! A [`TableDelta`] describes one seller update against an immutable
//! [`Table`]: a set of deleted row ids (positions in the *pre-delta* table)
//! plus new rows to append. [`Table::apply_delta`] materializes the
//! post-delta table — survivors keep their relative order, inserted rows land
//! at the tail, and `Str` values intern into the table's existing shared
//! dictionaries so symbol histograms stay directly comparable. The derived
//! layers ([`crate::sym::SymCounts::apply_delta`],
//! [`crate::sel::PairSel::patch_probe`]) patch their state from the same
//! delta in O(|delta|) instead of recounting the whole table.

use crate::error::{RelationError, Result};
use crate::sel::NO_ROW;
use crate::table::Table;
use crate::value::Value;

/// An insert/delete batch against one table.
///
/// Deleted ids are kept sorted and deduplicated; they index rows of the table
/// the delta is applied *to*. Inserted rows are full scalar rows in schema
/// order (NULLs allowed), appended after the survivors in the order given.
#[derive(Debug, Clone, Default)]
pub struct TableDelta {
    inserted: Vec<Vec<Value>>,
    deleted: Vec<u32>,
}

impl TableDelta {
    /// Build a delta. `deleted` is sorted and deduplicated here; bounds and
    /// row arity are checked against the target table at apply time.
    pub fn new(inserted: Vec<Vec<Value>>, mut deleted: Vec<u32>) -> TableDelta {
        deleted.sort_unstable();
        deleted.dedup();
        TableDelta { inserted, deleted }
    }

    /// Rows to append, in schema order.
    pub fn inserted(&self) -> &[Vec<Value>] {
        &self.inserted
    }

    /// Pre-delta row ids to drop (sorted, deduplicated).
    pub fn deleted(&self) -> &[u32] {
        &self.deleted
    }

    /// `true` when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }

    /// Inserted plus deleted row count — the |delta| that incremental
    /// maintenance is linear in.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    fn check_bounds(&self, nrows: usize) -> Result<()> {
        if let Some(&last) = self.deleted.last() {
            if last as usize >= nrows {
                return Err(RelationError::Shape(format!(
                    "deleted row id {last} out of bounds for table with {nrows} rows"
                )));
            }
        }
        Ok(())
    }

    /// Surviving pre-delta row ids, ascending — the gather list that turns
    /// the pre-delta table into the post-delta survivors.
    pub fn kept(&self, nrows: usize) -> Result<Vec<u32>> {
        self.check_bounds(nrows)?;
        let mut kept = Vec::with_capacity(nrows - self.deleted.len());
        let mut del = self.deleted.iter().copied().peekable();
        for r in 0..nrows as u32 {
            if del.peek() == Some(&r) {
                del.next();
            } else {
                kept.push(r);
            }
        }
        Ok(kept)
    }

    /// Surviving pre-delta rows as maximal contiguous `[start, end)` runs —
    /// [`Self::kept`] compressed. Sparse deletions leave long runs, so
    /// [`Table::apply_delta`]'s run-based gather ([`Table::gather_runs`])
    /// copies slices instead of indexing per element.
    pub fn kept_runs(&self, nrows: usize) -> Result<Vec<(u32, u32)>> {
        self.check_bounds(nrows)?;
        let mut runs = Vec::with_capacity(self.deleted.len() + 1);
        let mut start = 0u32;
        for &d in &self.deleted {
            if d > start {
                runs.push((start, d));
            }
            start = d + 1;
        }
        if (start as usize) < nrows {
            runs.push((start, nrows as u32));
        }
        Ok(runs)
    }

    /// Pre-delta row id → post-delta row id; deleted rows map to
    /// [`NO_ROW`]. Monotone on survivors, so patched match lists stay sorted.
    pub fn remap(&self, nrows: usize) -> Result<Vec<u32>> {
        self.check_bounds(nrows)?;
        let mut remap = Vec::with_capacity(nrows);
        let mut del = self.deleted.iter().copied().peekable();
        let mut next = 0u32;
        for r in 0..nrows as u32 {
            if del.peek() == Some(&r) {
                del.next();
                remap.push(NO_ROW);
            } else {
                remap.push(next);
                next += 1;
            }
        }
        Ok(remap)
    }

    /// The delta that undoes this one once it has been applied to `before`:
    /// it deletes the appended tail rows and re-inserts the rows this delta
    /// deleted. Applying it restores `before`'s row *multiset* (re-inserted
    /// rows land at the tail, not at their original positions), which is all
    /// histogram/JI state depends on. Benches use delta/inverse pairs to keep
    /// a steady-state row count across iterations.
    pub fn inverse(&self, before: &Table) -> Result<TableDelta> {
        self.check_bounds(before.num_rows())?;
        let n_after = before.num_rows() - self.deleted.len() + self.inserted.len();
        let tail_start = (n_after - self.inserted.len()) as u32;
        let deleted = (tail_start..n_after as u32).collect();
        let inserted = self
            .deleted
            .iter()
            .map(|&r| before.row(r as usize))
            .collect();
        Ok(TableDelta::new(inserted, deleted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    fn t() -> Table {
        Table::from_rows(
            "d",
            &[("dlt_a", ValueType::Int), ("dlt_s", ValueType::Str)],
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(2), Value::str("y")],
                vec![Value::Int(3), Value::Null],
                vec![Value::Int(4), Value::str("x")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn kept_and_remap_agree() {
        let d = TableDelta::new(vec![], vec![2, 0, 2]);
        assert_eq!(d.deleted(), &[0, 2]);
        assert_eq!(d.kept(4).unwrap(), vec![1, 3]);
        assert_eq!(d.remap(4).unwrap(), vec![NO_ROW, 0, NO_ROW, 1]);
        assert!(d.kept(2).is_err());
    }

    #[test]
    fn apply_deletes_and_appends() {
        let base = t();
        let d = TableDelta::new(vec![vec![Value::Int(9), Value::str("z")]], vec![1]);
        let after = base.apply_delta(&d).unwrap();
        assert_eq!(after.num_rows(), 4);
        assert_eq!(after.row(0), vec![Value::Int(1), Value::str("x")]);
        assert_eq!(after.row(1), vec![Value::Int(3), Value::Null]);
        assert_eq!(after.row(3), vec![Value::Int(9), Value::str("z")]);
    }

    #[test]
    fn apply_rejects_bad_arity_and_type() {
        let base = t();
        let bad_arity = TableDelta::new(vec![vec![Value::Int(1)]], vec![]);
        assert!(base.apply_delta(&bad_arity).is_err());
        let bad_type = TableDelta::new(vec![vec![Value::str("no"), Value::str("x")]], vec![]);
        assert!(base.apply_delta(&bad_type).is_err());
    }

    #[test]
    fn inverse_round_trips_row_multiset() {
        let base = t();
        let d = TableDelta::new(
            vec![
                vec![Value::Int(7), Value::str("w")],
                vec![Value::Null, Value::str("x")],
            ],
            vec![0, 3],
        );
        let after = base.apply_delta(&d).unwrap();
        let inv = d.inverse(&base).unwrap();
        let back = after.apply_delta(&inv).unwrap();
        assert_eq!(back.num_rows(), base.num_rows());
        let multiset = |t: &Table| {
            let mut rows: Vec<String> = (0..t.num_rows())
                .map(|r| format!("{:?}", t.row(r)))
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(multiset(&back), multiset(&base));
    }

    #[test]
    fn empty_delta_is_identity() {
        let base = t();
        let d = TableDelta::default();
        assert!(d.is_empty());
        let after = base.apply_delta(&d).unwrap();
        assert_eq!(after.num_rows(), base.num_rows());
        for r in 0..base.num_rows() {
            assert_eq!(after.row(r), base.row(r));
        }
    }
}
