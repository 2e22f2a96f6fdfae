//! Named relational instances.
//!
//! A [`Table`] is a schema plus equally-long columns. Tables are immutable
//! after construction; every operator (projection, filter, gather, join,
//! sample) produces a new table, sharing string dictionaries via `Arc`.

use crate::column::{Column, ColumnBuilder, ColumnData};
use crate::error::{RelationError, Result};
use crate::interner::InternerRegistry;
use crate::schema::{AttrId, AttrSet, Schema};
use crate::value::{Value, ValueType};
use std::fmt;

/// A named relational instance (the paper's `D_i`).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    nrows: usize,
}

impl Table {
    /// Assemble from schema + columns; lengths must agree.
    pub fn new(name: impl Into<String>, schema: Schema, columns: Vec<Column>) -> Result<Table> {
        if schema.len() != columns.len() {
            return Err(RelationError::Shape(format!(
                "schema has {} attributes but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        let nrows = columns.first().map_or(0, Column::len);
        for (a, c) in schema.attributes().iter().zip(&columns) {
            if c.len() != nrows {
                return Err(RelationError::Shape(format!(
                    "column {} has {} rows, expected {nrows}",
                    a.id,
                    c.len()
                )));
            }
            if c.value_type() != a.ty {
                return Err(RelationError::TypeMismatch(format!(
                    "column {} declared {} but stores {}",
                    a.id,
                    a.ty,
                    c.value_type()
                )));
            }
        }
        Ok(Table {
            name: name.into(),
            schema,
            columns,
            nrows,
        })
    }

    /// Build row-wise from `(name, type)` pairs. Convenient in tests/examples.
    pub fn from_rows(
        name: impl Into<String>,
        attrs: &[(&str, ValueType)],
        rows: Vec<Vec<Value>>,
    ) -> Result<Table> {
        Table::from_rows_impl(None, name, attrs, rows)
    }

    /// [`Table::from_rows`] with `Str` columns interning into the registry's
    /// per-attribute shared dictionaries, so the table's string codes are
    /// directly comparable with every other table interned through `reg`.
    pub fn from_rows_interned(
        reg: &InternerRegistry,
        name: impl Into<String>,
        attrs: &[(&str, ValueType)],
        rows: Vec<Vec<Value>>,
    ) -> Result<Table> {
        Table::from_rows_impl(Some(reg), name, attrs, rows)
    }

    fn from_rows_impl(
        reg: Option<&InternerRegistry>,
        name: impl Into<String>,
        attrs: &[(&str, ValueType)],
        rows: Vec<Vec<Value>>,
    ) -> Result<Table> {
        let schema = Schema::from_pairs(attrs)?;
        let mut builders: Vec<ColumnBuilder> = schema
            .attributes()
            .iter()
            .map(|a| match (a.ty, reg) {
                (ValueType::Str, Some(reg)) => ColumnBuilder::with_dict(a.ty, reg.dict_for(a.id)),
                _ => ColumnBuilder::new(a.ty),
            })
            .collect();
        for (r, row) in rows.iter().enumerate() {
            if row.len() != builders.len() {
                return Err(RelationError::Shape(format!(
                    "row {r} has {} values, expected {}",
                    row.len(),
                    builders.len()
                )));
            }
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v)?;
            }
        }
        Table::new(
            name,
            schema,
            builders.into_iter().map(ColumnBuilder::finish).collect(),
        )
    }

    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename (used when deriving samples / join results).
    pub fn with_name(mut self, name: impl Into<String>) -> Table {
        self.name = name.into();
        self
    }

    /// Re-encode every `Str` column into `reg`'s shared per-attribute
    /// dictionaries (one string lookup per *distinct* value; other columns
    /// are cheap clones). The result's symbol histograms are directly
    /// comparable with every other table interned through `reg`.
    pub fn intern_into(&self, reg: &InternerRegistry) -> Table {
        let columns = self
            .schema
            .attributes()
            .iter()
            .zip(&self.columns)
            .map(|(a, c)| match c.data() {
                ColumnData::Str(..) => c.reencode_strs(reg.dict_for(a.id)),
                _ => c.clone(),
            })
            .collect();
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns,
            nrows: self.nrows,
        }
    }

    /// Schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn num_rows(&self) -> usize {
        self.nrows
    }

    /// Attribute count.
    pub fn num_attrs(&self) -> usize {
        self.schema.len()
    }

    /// `true` when the table has zero rows.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Column by position.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by attribute id.
    pub fn column_by_attr(&self, id: AttrId) -> Result<&Column> {
        Ok(&self.columns[self.schema.require(id)?])
    }

    /// Scalar at `(row, column position)`.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Scalar at `(row, attribute)`.
    pub fn value_by_attr(&self, row: usize, id: AttrId) -> Result<Value> {
        Ok(self.columns[self.schema.require(id)?].value(row))
    }

    /// Column positions of an attribute set, in the set's (sorted) order.
    pub fn attr_indices(&self, set: &AttrSet) -> Result<Vec<usize>> {
        set.iter().map(|id| self.schema.require(id)).collect()
    }

    /// All values of one row, in schema order.
    pub fn row(&self, row: usize) -> Vec<Value> {
        (0..self.columns.len())
            .map(|c| self.value(row, c))
            .collect()
    }

    /// Projection π_A(D). Keeps this table's column order.
    pub fn project(&self, set: &AttrSet) -> Result<Table> {
        let schema = self.schema.project(set)?;
        let columns = schema
            .attributes()
            .iter()
            .map(|a| self.columns[self.schema.index_of(a.id).expect("projected attr")].clone())
            .collect();
        Table::new(self.name.clone(), schema, columns)
    }

    /// Take rows by index (repeats/reorders allowed).
    pub fn gather(&self, indices: &[u32]) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(indices)).collect(),
            nrows: indices.len(),
        }
    }

    /// Take the concatenation of contiguous row ranges `[start, end)` —
    /// the survivor gather of [`Self::apply_delta`], copying column slices
    /// run by run (see [`Column::gather_runs`]).
    pub fn gather_runs(&self, runs: &[(u32, u32)]) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather_runs(runs)).collect(),
            nrows: runs.iter().map(|&(a, b)| (b - a) as usize).sum(),
        }
    }

    /// Apply a [`TableDelta`](crate::TableDelta): drop its deleted row ids (survivors keep their
    /// relative order), then append its inserted rows at the tail. Dictionaries
    /// are shared with `self` via `Arc`, and inserted `Str` values intern into
    /// that existing code space — so the result's symbol histograms stay
    /// directly comparable with every table sharing the same registry.
    pub fn apply_delta(&self, delta: &crate::delta::TableDelta) -> Result<Table> {
        let runs = delta.kept_runs(self.nrows)?;
        let mut out = self.gather_runs(&runs);
        for (r, row) in delta.inserted().iter().enumerate() {
            if row.len() != out.columns.len() {
                return Err(RelationError::Shape(format!(
                    "inserted row {r} has {} values, expected {}",
                    row.len(),
                    out.columns.len()
                )));
            }
            for (c, v) in out.columns.iter_mut().zip(row) {
                c.append_value(v)?;
            }
            out.nrows += 1;
        }
        Ok(out)
    }

    /// Keep rows whose index satisfies `keep`.
    pub fn filter(&self, mut keep: impl FnMut(usize) -> bool) -> Table {
        let idx: Vec<u32> = (0..self.nrows)
            .filter(|&i| keep(i))
            .map(|i| i as u32)
            .collect();
        self.gather(&idx)
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> Table {
        let idx: Vec<u32> = (0..self.nrows.min(n) as u32).collect();
        self.gather(&idx)
    }

    /// `true` if any column stores a NULL.
    pub fn has_nulls(&self) -> bool {
        self.columns.iter().any(|c| c.null_count() > 0)
    }

    /// Rough in-memory cell count (`rows × attrs`), the paper's notion of data volume.
    pub fn cell_count(&self) -> u64 {
        self.nrows as u64 * self.schema.len() as u64
    }

    /// Render at most `limit` rows as an aligned text grid (for examples/demos).
    pub fn pretty(&self, limit: usize) -> String {
        let header: Vec<String> = self
            .schema
            .attributes()
            .iter()
            .map(|a| a.id.name().to_string())
            .collect();
        let mut rows: Vec<Vec<String>> = vec![header];
        for r in 0..self.nrows.min(limit) {
            rows.push(
                (0..self.columns.len())
                    .map(|c| self.value(r, c).to_string())
                    .collect(),
            );
        }
        let ncols = rows[0].len();
        let mut widths = vec![0usize; ncols];
        for row in &rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<width$}  ", cell, width = widths[c]));
            }
            out.push('\n');
            if i == 0 {
                for w in &widths {
                    out.push_str(&"-".repeat(*w));
                    out.push_str("  ");
                }
                out.push('\n');
            }
        }
        if self.nrows > limit {
            out.push_str(&format!("... ({} rows total)\n", self.nrows));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{} [{} rows]", self.name, self.schema, self.nrows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::attr;

    fn sample() -> Table {
        Table::from_rows(
            "t",
            &[
                ("tbl_a", ValueType::Int),
                ("tbl_b", ValueType::Str),
                ("tbl_c", ValueType::Float),
            ],
            vec![
                vec![Value::Int(1), Value::str("x"), Value::Float(0.5)],
                vec![Value::Int(2), Value::str("y"), Value::Null],
                vec![Value::Int(3), Value::str("x"), Value::Float(2.5)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_round_trip() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_attrs(), 3);
        assert_eq!(t.value_by_attr(1, attr("tbl_b")).unwrap(), Value::str("y"));
        assert!(t.value_by_attr(1, attr("tbl_c")).unwrap().is_null());
        assert!(t.has_nulls());
        assert_eq!(t.cell_count(), 9);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let r = Table::from_rows(
            "t",
            &[("one_col", ValueType::Int)],
            vec![vec![Value::Int(1), Value::Int(2)]],
        );
        assert!(r.is_err());
    }

    #[test]
    fn projection_keeps_column_order() {
        let t = sample();
        let p = t.project(&AttrSet::from_names(["tbl_c", "tbl_a"])).unwrap();
        assert_eq!(p.num_attrs(), 2);
        assert_eq!(p.schema().attributes()[0].id, attr("tbl_a"));
        assert!(p.project(&AttrSet::from_names(["tbl_b"])).is_err());
    }

    #[test]
    fn filter_and_gather() {
        let t = sample();
        let f = t.filter(|i| i != 1);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value(1, 0), Value::Int(3));
        let g = t.gather(&[2, 0, 2]);
        assert_eq!(g.num_rows(), 3);
        assert_eq!(g.value(0, 0), Value::Int(3));
        assert_eq!(g.value(2, 0), Value::Int(3));
    }

    #[test]
    fn keys_and_rows() {
        let t = sample();
        let cols = t
            .attr_indices(&AttrSet::from_names(["tbl_a", "tbl_b"]))
            .unwrap();
        let k: Vec<Value> = cols.iter().map(|&c| t.value(0, c)).collect();
        assert_eq!(k, [Value::Int(1), Value::str("x")]);
        assert_eq!(
            t.row(2),
            vec![Value::Int(3), Value::str("x"), Value::Float(2.5)]
        );
    }

    #[test]
    fn pretty_prints_header_and_truncation() {
        let t = sample();
        let s = t.pretty(2);
        assert!(s.contains("tbl_a"));
        assert!(s.contains("3 rows total"));
    }

    #[test]
    fn type_checked_construction() {
        let schema = Schema::from_pairs(&[("bad_col", ValueType::Int)]).unwrap();
        let col = Column::from_strs(["not an int"]);
        assert!(Table::new("t", schema, vec![col]).is_err());
    }
}
