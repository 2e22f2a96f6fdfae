//! Spec DSL + generator for synthetic relational schemas.
//!
//! A [`TableSpec`] lists columns as [`ColSpec`]s; [`generate`] materializes
//! the tables **in order**, so foreign keys can reference any earlier table.
//! Join topology is expressed by *name sharing*: a `Fk` column uses the same
//! attribute name as the referenced table's `Serial` key, which is exactly
//! the condition for an I-edge in the join graph (Definition 4.2).
//!
//! `Derived` columns plant functional dependencies: `Derived { from, card }`
//! computes a deterministic function of another column's value, so
//! `from → derived` holds exactly on clean data (and approximately after
//! [`crate::dirt`] injection).

use crate::zipf::Zipf;
use dance_relation::hash::stable_hash64;
use dance_relation::{
    attr, AttrSet, Column, ColumnBuilder, InternerRegistry, Result, Schema, Table, Value, ValueType,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One column of a synthetic table.
#[derive(Debug, Clone)]
pub enum ColSpec {
    /// Dense integer key `0..rows` (the table's primary key).
    Serial(&'static str),
    /// Foreign key into `table`'s `Serial` domain, Zipf-skewed fan-out.
    Fk {
        /// Attribute name — must equal the referenced `Serial`'s name.
        name: &'static str,
        /// Referenced table name (must appear earlier in the spec list).
        table: &'static str,
        /// Zipf exponent for fan-out skew (0 = uniform).
        skew: f64,
    },
    /// Integer categorical attribute with `card` distinct values.
    Cat {
        /// Attribute name.
        name: &'static str,
        /// Number of distinct values.
        card: usize,
        /// Zipf exponent (0 = uniform).
        skew: f64,
    },
    /// String label drawn from a fixed vocabulary.
    Label {
        /// Attribute name.
        name: &'static str,
        /// Vocabulary.
        labels: &'static [&'static str],
        /// Zipf exponent over the vocabulary (0 = uniform).
        skew: f64,
    },
    /// String column that is a deterministic function of another column in
    /// the same table — plants the exact FD `from → name`.
    Derived {
        /// Attribute name.
        name: &'static str,
        /// Determinant column (must precede this one in the spec).
        from: &'static str,
        /// Cardinality of the derived domain.
        card: usize,
    },
    /// Uniform float in `[lo, hi)` rounded to cents.
    Money {
        /// Attribute name.
        name: &'static str,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Uniform integer in `[lo, hi]`.
    Qty {
        /// Attribute name.
        name: &'static str,
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
}

impl ColSpec {
    /// The attribute name this column produces.
    pub fn name(&self) -> &'static str {
        match self {
            ColSpec::Serial(n) => n,
            ColSpec::Fk { name, .. } => name,
            ColSpec::Cat { name, .. } => name,
            ColSpec::Label { name, .. } => name,
            ColSpec::Derived { name, .. } => name,
            ColSpec::Money { name, .. } => name,
            ColSpec::Qty { name, .. } => name,
        }
    }

    fn value_type(&self) -> ValueType {
        match self {
            ColSpec::Serial(_) | ColSpec::Fk { .. } | ColSpec::Cat { .. } | ColSpec::Qty { .. } => {
                ValueType::Int
            }
            ColSpec::Money { .. } => ValueType::Float,
            ColSpec::Label { .. } | ColSpec::Derived { .. } => ValueType::Str,
        }
    }
}

/// One synthetic table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name.
    pub name: &'static str,
    /// Row count.
    pub rows: usize,
    /// Columns, generated left to right.
    pub cols: Vec<ColSpec>,
}

impl TableSpec {
    /// The table's join-key attribute set: its `Serial` and `Fk` names.
    pub fn key_attrs(&self) -> AttrSet {
        AttrSet::from_ids(self.cols.iter().filter_map(|c| match c {
            ColSpec::Serial(n) => Some(attr(n)),
            ColSpec::Fk { name, .. } => Some(attr(name)),
            _ => None,
        }))
    }

    /// The exact FDs planted by `Derived` columns, as `(lhs, rhs)` name pairs.
    pub fn planted_fds(&self) -> Vec<(&'static str, &'static str)> {
        self.cols
            .iter()
            .filter_map(|c| match c {
                ColSpec::Derived { name, from, .. } => Some((*from, *name)),
                _ => None,
            })
            .collect()
    }
}

/// Materialize `specs` deterministically under `seed` (per-column string
/// dictionaries).
///
/// FK references must point to tables **earlier** in the slice. The same
/// `(specs, seed)` always produces identical data.
pub fn generate(specs: &[TableSpec], seed: u64) -> Result<Vec<Table>> {
    generate_impl(None, specs, seed)
}

/// [`generate`] with `Str` columns interned at generation time into `reg`'s
/// shared per-attribute dictionaries, so every generated table's string codes
/// are directly comparable across the scenario (identical cell values either
/// way).
pub fn generate_interned(
    reg: &InternerRegistry,
    specs: &[TableSpec],
    seed: u64,
) -> Result<Vec<Table>> {
    generate_impl(Some(reg), specs, seed)
}

fn generate_impl(
    reg: Option<&InternerRegistry>,
    specs: &[TableSpec],
    seed: u64,
) -> Result<Vec<Table>> {
    let mut out: Vec<Table> = Vec::with_capacity(specs.len());
    let mut domains: dance_relation::FxHashMap<&'static str, usize> =
        dance_relation::FxHashMap::default();
    for spec in specs {
        let mut rng = StdRng::seed_from_u64(stable_hash64(seed, spec.name));
        let mut attrs: Vec<(&str, ValueType)> = Vec::with_capacity(spec.cols.len());
        for c in &spec.cols {
            attrs.push((c.name(), c.value_type()));
        }
        let schema = Schema::from_pairs(&attrs)?;
        let mut columns: Vec<Column> = Vec::with_capacity(spec.cols.len());
        // Generated raw values per column, kept for Derived lookups.
        let mut generated: Vec<Vec<Value>> = Vec::with_capacity(spec.cols.len());
        for c in &spec.cols {
            let vals = generate_column(c, spec, &generated, &domains, &mut rng)?;
            generated.push(vals);
        }
        for (c, vals) in spec.cols.iter().zip(&generated) {
            let mut b = match (c.value_type(), reg) {
                (ValueType::Str, Some(reg)) => {
                    ColumnBuilder::with_dict(ValueType::Str, reg.dict_for(attr(c.name())))
                }
                (ty, _) => ColumnBuilder::new(ty),
            };
            for v in vals {
                b.push(v)?;
            }
            columns.push(b.finish());
        }
        domains.insert(spec.name, spec.rows);
        out.push(Table::new(spec.name, schema, columns)?);
    }
    Ok(out)
}

fn generate_column(
    c: &ColSpec,
    spec: &TableSpec,
    generated: &[Vec<Value>],
    domains: &dance_relation::FxHashMap<&'static str, usize>,
    rng: &mut StdRng,
) -> Result<Vec<Value>> {
    let n = spec.rows;
    Ok(match c {
        ColSpec::Serial(_) => (0..n).map(|i| Value::Int(i as i64)).collect(),
        ColSpec::Fk { name, table, skew } => {
            let domain = *domains.get(table).ok_or_else(|| {
                dance_relation::RelationError::Shape(format!(
                    "FK {name} references unknown/later table {table}"
                ))
            })?;
            let z = Zipf::new(domain.max(1), *skew);
            (0..n).map(|_| Value::Int(z.sample(rng) as i64)).collect()
        }
        ColSpec::Cat { card, skew, .. } => {
            let z = Zipf::new((*card).max(1), *skew);
            (0..n).map(|_| Value::Int(z.sample(rng) as i64)).collect()
        }
        ColSpec::Label { labels, skew, .. } => {
            assert!(!labels.is_empty(), "Label vocabulary must be non-empty");
            let z = Zipf::new(labels.len(), *skew);
            (0..n).map(|_| Value::str(labels[z.sample(rng)])).collect()
        }
        ColSpec::Derived { name, from, card } => {
            let idx = spec
                .cols
                .iter()
                .position(|cc| cc.name() == *from)
                .filter(|&i| i < generated.len())
                .ok_or_else(|| {
                    dance_relation::RelationError::Shape(format!(
                        "Derived {name} references missing/later column {from}"
                    ))
                })?;
            generated[idx]
                .iter()
                .map(|v| {
                    let code = stable_hash64(0xD0_0D, &(name, v)) % (*card).max(1) as u64;
                    Value::str(format!("{name}_{code}"))
                })
                .collect()
        }
        ColSpec::Money { lo, hi, .. } => (0..n)
            .map(|_| {
                let x: f64 = rng.random_range(*lo..*hi);
                Value::Float((x * 100.0).round() / 100.0)
            })
            .collect(),
        ColSpec::Qty { lo, hi, .. } => (0..n)
            .map(|_| Value::Int(rng.random_range(*lo..=*hi)))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::group_ids;

    fn specs() -> Vec<TableSpec> {
        vec![
            TableSpec {
                name: "dim",
                rows: 20,
                cols: vec![
                    ColSpec::Serial("sp_key"),
                    ColSpec::Cat {
                        name: "sp_city",
                        card: 8,
                        skew: 0.5,
                    },
                    ColSpec::Derived {
                        name: "sp_state",
                        from: "sp_city",
                        card: 4,
                    },
                ],
            },
            TableSpec {
                name: "fact",
                rows: 100,
                cols: vec![
                    ColSpec::Serial("sp_fid"),
                    ColSpec::Fk {
                        name: "sp_key",
                        table: "dim",
                        skew: 0.8,
                    },
                    ColSpec::Money {
                        name: "sp_amount",
                        lo: 1.0,
                        hi: 100.0,
                    },
                    ColSpec::Qty {
                        name: "sp_units",
                        lo: 1,
                        hi: 10,
                    },
                    ColSpec::Label {
                        name: "sp_flag",
                        labels: &["A", "B", "C"],
                        skew: 0.0,
                    },
                ],
            },
        ]
    }

    #[test]
    fn generates_declared_shape() {
        let tables = generate(&specs(), 42).unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].num_rows(), 20);
        assert_eq!(tables[1].num_rows(), 100);
        assert_eq!(tables[1].num_attrs(), 5);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&specs(), 7).unwrap();
        let b = generate(&specs(), 7).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.num_rows(), y.num_rows());
            for r in 0..x.num_rows() {
                assert_eq!(x.row(r), y.row(r));
            }
        }
        let c = generate(&specs(), 8).unwrap();
        assert_ne!(
            (0..100).map(|r| a[1].row(r)).collect::<Vec<_>>(),
            (0..100).map(|r| c[1].row(r)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fk_values_stay_in_domain() {
        let tables = generate(&specs(), 3).unwrap();
        let fact = &tables[1];
        let col = fact.attr_indices(&AttrSet::from_names(["sp_key"])).unwrap()[0];
        for r in 0..fact.num_rows() {
            let v = fact.value(r, col).as_i64().unwrap();
            assert!((0..20).contains(&v));
        }
    }

    #[test]
    fn derived_column_plants_exact_fd() {
        let tables = generate(&specs(), 5).unwrap();
        let dim = &tables[0];
        let fd = dance_quality::Fd::new(["sp_city"], "sp_state");
        assert_eq!(dance_quality::quality(dim, &fd).unwrap(), 1.0);
    }

    #[test]
    fn key_attrs_and_planted_fds_reported() {
        let s = specs();
        assert_eq!(s[1].key_attrs(), AttrSet::from_names(["sp_fid", "sp_key"]));
        assert_eq!(s[0].planted_fds(), vec![("sp_city", "sp_state")]);
    }

    #[test]
    fn fk_to_unknown_table_is_error() {
        let bad = vec![TableSpec {
            name: "orphan",
            rows: 5,
            cols: vec![ColSpec::Fk {
                name: "sp_nokey",
                table: "nowhere",
                skew: 0.0,
            }],
        }];
        assert!(generate(&bad, 1).is_err());
    }

    #[test]
    fn zipf_skew_shapes_fanout() {
        let tables = generate(&specs(), 11).unwrap();
        let counts = group_ids(&tables[1], &AttrSet::from_names(["sp_key"]))
            .unwrap()
            .counts();
        let max = counts.iter().copied().max().unwrap();
        let min = counts.iter().copied().min().unwrap();
        assert!(max > min, "skewed FK should have uneven fan-out");
    }
}
