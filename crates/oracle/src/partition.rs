//! Stripped partitions (Definition 2.1) and the `g₃` error they define.
//!
//! `π_X` groups rows by their `X`-key. As in TANE, singleton classes are
//! dropped: they can neither violate an FD nor change `g₃`.

use crate::histogram::group_rows;
use dance_relation::{AttrSet, FxHashMap, Result, Table};

/// Sentinel class id of rows in singleton classes.
pub const SINGLETON: u32 = u32::MAX;

/// A stripped partition of a table's rows by some attribute set.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Classes with ≥ 2 rows, rows ascending within a class, classes sorted.
    classes: Vec<Vec<u32>>,
    /// Total rows in the underlying table.
    n: usize,
}

impl Partition {
    /// `π_attrs` of `t`, from the per-row value grouping.
    pub fn by(t: &Table, attrs: &AttrSet) -> Result<Partition> {
        let classes = group_rows(t, attrs)?.into_values().collect();
        Ok(Partition::from_classes(classes, t.num_rows()))
    }

    /// Build from classes over `n` rows; singletons are stripped and the
    /// representation is made canonical.
    pub fn from_classes(mut classes: Vec<Vec<u32>>, n: usize) -> Partition {
        classes.retain(|c| c.len() >= 2);
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort_unstable();
        Partition { classes, n }
    }

    /// Stripped classes (each has ≥ 2 rows).
    pub fn classes(&self) -> &[Vec<u32>] {
        &self.classes
    }

    /// Total rows of the underlying table.
    pub fn num_rows(&self) -> usize {
        self.n
    }

    /// Rows covered by stripped classes (`‖π‖` in TANE notation).
    pub fn support(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Number of equivalence classes *including* implicit singletons.
    pub fn num_classes(&self) -> usize {
        self.classes.len() + (self.n - self.support())
    }

    /// Dense row→class map; singletons get [`SINGLETON`].
    pub fn row_class(&self) -> Vec<u32> {
        let mut map = vec![SINGLETON; self.n];
        for (cid, class) in self.classes.iter().enumerate() {
            for &r in class {
                map[r as usize] = cid as u32;
            }
        }
        map
    }

    /// Partition product: `π_X · π_Y = π_{X∪Y}`. Each class of `self` is
    /// split by `other`'s class id; rows that are singletons in `other` stay
    /// singletons.
    pub fn product(&self, other: &Partition) -> Partition {
        assert_eq!(self.n, other.n, "partitions over different tables");
        let other_map = other.row_class();
        let mut out: Vec<Vec<u32>> = Vec::new();
        for class in &self.classes {
            let mut bucket: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
            for &r in class {
                let oc = other_map[r as usize];
                if oc != SINGLETON {
                    bucket.entry(oc).or_default().push(r);
                }
            }
            out.extend(bucket.into_values());
        }
        Partition::from_classes(out, self.n)
    }

    /// `true` iff every class of `self` lies inside one class of `other`.
    pub fn refines(&self, other: &Partition) -> bool {
        let other_map = other.row_class();
        self.classes.iter().all(|class| {
            let first = other_map[class[0] as usize];
            first != SINGLETON && class.iter().all(|&r| other_map[r as usize] == first)
        })
    }

    /// `g₃` error of `X→Y` given `π_X = self` and `π_{X∪Y} = product`: the
    /// fraction of rows outside the largest `π_{X∪Y}` sub-class of their
    /// `π_X` class, i.e. `1 − Q(D, X→Y)` of Definition 2.2.
    pub fn g3_error(&self, product: &Partition) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let prod_map = product.row_class();
        let mut kept = self.n - self.support(); // singleton X-classes are correct
        for class in &self.classes {
            let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
            for &r in class {
                let pc = prod_map[r as usize];
                if pc != SINGLETON {
                    *counts.entry(pc).or_insert(0) += 1;
                }
            }
            // A class with no multi-row sub-class still keeps one row.
            kept += counts.values().copied().max().unwrap_or(1);
        }
        1.0 - kept as f64 / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::{Value, ValueType};

    /// The paper's Table 2: D(A, B) with FD A→B.
    fn paper_table2() -> Table {
        Table::from_rows(
            "D",
            &[("pt2_a", ValueType::Str), ("pt2_b", ValueType::Str)],
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

    fn by(t: &Table, attrs: &[&str]) -> Partition {
        Partition::by(t, &AttrSet::from_names(attrs.iter().copied())).unwrap()
    }

    #[test]
    fn partitions_of_paper_example() {
        let t = paper_table2();
        let pa = by(&t, &["pt2_a"]);
        // π_A = {{t1..t4}, {t5}} → stripped keeps only the 4-row class.
        assert_eq!(pa.classes(), &[vec![0, 1, 2, 3]]);
        assert_eq!(pa.num_classes(), 2);
        assert_eq!(pa.support(), 4);
        let pab = by(&t, &["pt2_a", "pt2_b"]);
        // π_AB = {{t1,t2},{t3},{t4},{t5}} → stripped keeps {t1,t2}.
        assert_eq!(pab.classes(), &[vec![0, 1]]);
        assert_eq!(pab.num_classes(), 4);
        let map = pa.row_class();
        assert_eq!(map[4], SINGLETON);
        assert!(map[..4].iter().all(|&c| c == map[0]));
    }

    #[test]
    fn product_equals_direct_partition() {
        let t = paper_table2();
        let pab = by(&t, &["pt2_a", "pt2_b"]);
        let prod = by(&t, &["pt2_a"]).product(&by(&t, &["pt2_b"]));
        assert_eq!(prod.classes(), pab.classes());
        assert_eq!(prod.num_classes(), pab.num_classes());
        let empty = Partition::from_classes(vec![], 5);
        assert!(pab.product(&empty).classes().is_empty());
    }

    #[test]
    fn g3_error_matches_paper_quality() {
        // Q(D, A→B) = 3/5 (t1, t2, t5 correct) → g₃ = 2/5.
        let t = paper_table2();
        let g3 = by(&t, &["pt2_a"]).g3_error(&by(&t, &["pt2_a", "pt2_b"]));
        assert!((g3 - 0.4).abs() < 1e-12, "g3 = {g3}");
    }

    #[test]
    fn refinement_laws() {
        let t = paper_table2();
        let pa = by(&t, &["pt2_a"]);
        let pab = by(&t, &["pt2_a", "pt2_b"]);
        assert!(pab.refines(&pa));
        assert!(!pa.refines(&pab));
        assert!(pa.refines(&pa));
    }

    #[test]
    fn exact_fd_has_zero_error() {
        let t = Table::from_rows(
            "exact",
            &[("pex_x", ValueType::Int), ("pex_y", ValueType::Int)],
            (0..20)
                .map(|i| vec![Value::Int(i % 5), Value::Int((i % 5) * 10)])
                .collect(),
        )
        .unwrap();
        let px = by(&t, &["pex_x"]);
        let pxy = by(&t, &["pex_x", "pex_y"]);
        assert_eq!(px.g3_error(&pxy), 0.0);
        assert_eq!(px.product(&by(&t, &["pex_y"])).classes(), pxy.classes());
    }

    #[test]
    fn empty_table_partition() {
        let t = Table::from_rows("e", &[("pmt_x", ValueType::Int)], vec![]).unwrap();
        let p = by(&t, &["pmt_x"]);
        assert_eq!(p.num_rows(), 0);
        assert_eq!(p.num_classes(), 0);
        assert_eq!(p.g3_error(&p), 0.0);
    }
}
