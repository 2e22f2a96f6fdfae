//! Partitions and equivalence classes (Definition 2.1).
//!
//! `π_X` groups rows by their `X`-key. We keep the TANE *stripped*
//! representation — singleton classes are dropped, since they can neither
//! violate an FD nor change `g₃` — plus a dense row→class map for products.
//!
//! [`Partition`] is the explicit, self-contained form of Definition 2.1: its
//! classes, refinement test, partition product `π_X · π_Y = π_{X∪Y}` and
//! [`Partition::g3_error`] state the definitions directly, and the property
//! tests pin the production quality kernel (which never materializes a
//! `Partition`) against a levelwise search built from them. The product runs
//! on the same dense id-pair fold as multi-column grouping
//! ([`dance_relation::group::fold_codes`]); the original per-class hash
//! implementation survives under `#[cfg(test)]` as its own pinning reference.

use dance_relation::group::fold_codes_with;
use dance_relation::{group_ids_with, AttrSet, Executor, Result, Table};

/// Sentinel class id for rows in singleton classes.
pub const SINGLETON: u32 = u32::MAX;

/// A (stripped) partition of a table's rows by some attribute set.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Classes with ≥ 2 rows; row ids ascending within a class.
    classes: Vec<Vec<u32>>,
    /// Total rows in the underlying table.
    n: usize,
}

impl Partition {
    /// Build `π_attrs` of `t` via the dense group-id kernel: rows are binned
    /// by compact id and only multi-row groups are materialized, so no keys
    /// are boxed or hashed. Runs on the global executor.
    pub fn by(t: &Table, attrs: &AttrSet) -> Result<Partition> {
        Partition::by_with(&Executor::global(), t, attrs)
    }

    /// [`Partition::by`] on an explicit executor (the grouping and counting
    /// passes are chunked across its workers).
    pub fn by_with(exec: &Executor, t: &Table, attrs: &AttrSet) -> Result<Partition> {
        let g = group_ids_with(exec, t, attrs)?;
        let counts = g.counts_with(exec);
        // Map multi-row groups to class slots; singletons are stripped.
        let mut class_of = vec![u32::MAX; counts.len()];
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for (gid, &c) in counts.iter().enumerate() {
            if c >= 2 {
                class_of[gid] = classes.len() as u32;
                classes.push(Vec::with_capacity(c as usize));
            }
        }
        for (r, &gid) in g.ids().iter().enumerate() {
            let cid = class_of[gid as usize];
            if cid != u32::MAX {
                classes[cid as usize].push(r as u32);
            }
        }
        // Row-order filling leaves each class ascending; only the cross-class
        // order needs normalizing to keep the representation canonical.
        classes.sort_unstable();
        Ok(Partition {
            classes,
            n: t.num_rows(),
        })
    }

    /// Build directly from stripped classes (used by [`Partition::product`]).
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

    /// Partition product: `self · other = π_{X∪Y}` when `self = π_X`, `other = π_Y`.
    ///
    /// Only `self`'s support rows can land in a product class, so the fold
    /// runs over them alone: each support row's `(self class, other class)`
    /// id pair is densified by [`fold_codes`] — the same dense id-pair trick
    /// as multi-column grouping — and multi-row pair groups become the
    /// product's classes. Rows that are singletons in `other` get a unique
    /// synthetic code, which isolates them in the fold exactly as the product
    /// demands. No per-class hash maps are built. Runs on the global
    /// executor.
    pub fn product(&self, other: &Partition) -> Partition {
        self.product_with(&Executor::global(), other)
    }

    /// [`Partition::product`] on an explicit executor (the id-pair fold is
    /// chunked across its workers), so callers that pin a sequential executor
    /// — e.g. to nest TANE's levelwise loop inside their own thread pool —
    /// never fan out behind their back.
    pub fn product_with(&self, exec: &Executor, other: &Partition) -> Partition {
        assert_eq!(self.n, other.n, "partitions over different tables");
        let other_map = other.row_class();
        let support = self.support();
        let mut ids: Vec<u32> = Vec::with_capacity(support);
        let mut rows: Vec<u32> = Vec::with_capacity(support);
        let mut codes: Vec<u32> = Vec::with_capacity(support);
        let other_classes = other.classes.len() as u32;
        for (cid, class) in self.classes.iter().enumerate() {
            for &r in class {
                ids.push(cid as u32);
                rows.push(r);
                let oc = other_map[r as usize];
                codes.push(if oc == SINGLETON {
                    // Unique per row, disjoint from real class ids.
                    other_classes + codes.len() as u32
                } else {
                    oc
                });
            }
        }
        let mut num_groups = self.classes.len() as u32;
        fold_codes_with(exec, &mut ids, &mut num_groups, &codes);
        let mut counts = vec![0u32; num_groups as usize];
        for &g in &ids {
            counts[g as usize] += 1;
        }
        let mut class_of = vec![u32::MAX; num_groups as usize];
        let mut out: Vec<Vec<u32>> = Vec::new();
        for (g, &c) in counts.iter().enumerate() {
            if c >= 2 {
                class_of[g] = out.len() as u32;
                out.push(Vec::with_capacity(c as usize));
            }
        }
        for (k, &g) in ids.iter().enumerate() {
            let cid = class_of[g as usize];
            if cid != u32::MAX {
                out[cid as usize].push(rows[k]);
            }
        }
        Partition::from_classes(out, self.n)
    }

    /// The original per-class hash-map product, retained as the executable
    /// reference the dense fold is pinned against (see
    /// `product_matches_hash_reference` below). Not for production call
    /// sites.
    #[cfg(test)]
    pub fn product_hash(&self, other: &Partition) -> Partition {
        assert_eq!(self.n, other.n, "partitions over different tables");
        let other_map = other.row_class();
        let mut out: Vec<Vec<u32>> = Vec::new();
        // For each class of self, split by other's class id. Singleton rows of
        // `other` are singletons in the product.
        let mut bucket: dance_relation::FxHashMap<u32, Vec<u32>> =
            dance_relation::FxHashMap::default();
        for class in &self.classes {
            bucket.clear();
            for &r in class {
                let oc = other_map[r as usize];
                if oc != SINGLETON {
                    bucket.entry(oc).or_default().push(r);
                }
            }
            for (_, rows) in bucket.drain() {
                if rows.len() >= 2 {
                    out.push(rows);
                }
            }
        }
        Partition::from_classes(out, self.n)
    }

    /// `true` iff every class of `self` is contained in a class of `other`
    /// (i.e. `self` refines `other`).
    pub fn refines(&self, other: &Partition) -> bool {
        let other_map = other.row_class();
        // A stripped class of self must sit inside one class of other …
        for class in &self.classes {
            let first = other_map[class[0] as usize];
            if first == SINGLETON {
                return false; // class of ≥2 rows can't fit in a singleton
            }
            if class.iter().any(|&r| other_map[r as usize] != first) {
                return false;
            }
        }
        true
    }

    /// `g₃` error of the FD `X→Y` given `π_X = self` and `π_{X∪Y} = product`:
    /// the minimum fraction of rows to delete so the FD holds exactly.
    ///
    /// Equals `1 − Q(D, X→Y)` of Definition 2.2: the rows kept per `π_X` class
    /// are exactly the largest `π_{X∪Y}` sub-class.
    pub fn g3_error(&self, product: &Partition) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let prod_map = product.row_class();
        let mut kept = self.n - self.support(); // singleton X-classes are correct
        let mut counts: dance_relation::FxHashMap<u32, usize> =
            dance_relation::FxHashMap::default();
        for class in &self.classes {
            counts.clear();
            let mut singles = 0usize;
            for &r in class {
                let pc = prod_map[r as usize];
                if pc == SINGLETON {
                    singles += 1;
                } else {
                    *counts.entry(pc).or_insert(0) += 1;
                }
            }
            let max_sub = counts.values().copied().max().unwrap_or(0);
            kept += max_sub.max(usize::from(singles > 0));
        }
        1.0 - kept as f64 / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::{Table, Value, ValueType};

    /// The paper's Table 2: D(A, B) with FD A→B.
    pub(crate) fn paper_table2() -> Table {
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

    #[test]
    fn partitions_of_paper_example() {
        let t = paper_table2();
        let pa = Partition::by(&t, &AttrSet::from_names(["pt2_a"])).unwrap();
        // π_A = {{t1..t4}, {t5}} → stripped keeps only the 4-row class.
        assert_eq!(pa.classes().len(), 1);
        assert_eq!(pa.classes()[0], vec![0, 1, 2, 3]);
        assert_eq!(pa.num_classes(), 2);
        assert_eq!(pa.support(), 4);

        let pab = Partition::by(&t, &AttrSet::from_names(["pt2_a", "pt2_b"])).unwrap();
        // π_AB = {{t1,t2},{t3},{t4},{t5}} → stripped keeps {t1,t2}.
        assert_eq!(pab.classes().len(), 1);
        assert_eq!(pab.classes()[0], vec![0, 1]);
        assert_eq!(pab.num_classes(), 4);
    }

    #[test]
    fn product_equals_direct_partition() {
        let t = paper_table2();
        let pa = Partition::by(&t, &AttrSet::from_names(["pt2_a"])).unwrap();
        let pb = Partition::by(&t, &AttrSet::from_names(["pt2_b"])).unwrap();
        let pab = Partition::by(&t, &AttrSet::from_names(["pt2_a", "pt2_b"])).unwrap();
        let prod = pa.product(&pb);
        assert_eq!(prod.classes(), pab.classes());
        assert_eq!(prod.num_classes(), pab.num_classes());
    }

    #[test]
    fn g3_error_matches_paper_quality() {
        // Q(D, A→B) = 3/5 (t1, t2, t5 correct) → g₃ = 2/5.
        let t = paper_table2();
        let pa = Partition::by(&t, &AttrSet::from_names(["pt2_a"])).unwrap();
        let pab = Partition::by(&t, &AttrSet::from_names(["pt2_a", "pt2_b"])).unwrap();
        let g3 = pa.g3_error(&pab);
        assert!((g3 - 0.4).abs() < 1e-12, "g3 = {g3}");
    }

    #[test]
    fn refinement_laws() {
        let t = paper_table2();
        let pa = Partition::by(&t, &AttrSet::from_names(["pt2_a"])).unwrap();
        let pab = Partition::by(&t, &AttrSet::from_names(["pt2_a", "pt2_b"])).unwrap();
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
        let px = Partition::by(&t, &AttrSet::from_names(["pex_x"])).unwrap();
        let pxy = Partition::by(&t, &AttrSet::from_names(["pex_x", "pex_y"])).unwrap();
        assert_eq!(px.g3_error(&pxy), 0.0);
        // And the product of π_X with π_Y equals π_XY here.
        let py = Partition::by(&t, &AttrSet::from_names(["pex_y"])).unwrap();
        assert_eq!(px.product(&py).classes(), pxy.classes());
    }

    #[test]
    fn empty_table_partition() {
        let t = Table::from_rows("e", &[("pmt_x", ValueType::Int)], vec![]).unwrap();
        let p = Partition::by(&t, &AttrSet::from_names(["pmt_x"])).unwrap();
        assert_eq!(p.num_rows(), 0);
        assert_eq!(p.num_classes(), 0);
        assert_eq!(p.g3_error(&p), 0.0);
    }

    #[test]
    fn product_matches_hash_reference() {
        // The dense id-pair fold is pinned to the retained hash-map product
        // on tables exercising singleton isolation in both operands.
        let t = Table::from_rows(
            "pin",
            &[("ppin_x", ValueType::Int), ("ppin_y", ValueType::Int)],
            (0..37)
                .map(|i| vec![Value::Int(i % 7), Value::Int((i * 5) % 11)])
                .collect(),
        )
        .unwrap();
        for (a, b) in [("ppin_x", "ppin_y"), ("ppin_y", "ppin_x")] {
            let pa = Partition::by(&t, &AttrSet::from_names([a])).unwrap();
            let pb = Partition::by(&t, &AttrSet::from_names([b])).unwrap();
            let dense = pa.product(&pb);
            let hash = pa.product_hash(&pb);
            assert_eq!(dense.classes(), hash.classes());
            assert_eq!(dense.num_rows(), hash.num_rows());
        }
        // Degenerate operands: empty partitions and all-singleton partitions.
        let empty = Partition::from_classes(vec![], 37);
        assert_eq!(
            empty.product(&empty).classes(),
            empty.product_hash(&empty).classes()
        );
        let pa = Partition::by(&t, &AttrSet::from_names(["ppin_x"])).unwrap();
        assert_eq!(
            pa.product(&empty).classes(),
            pa.product_hash(&empty).classes()
        );
        assert_eq!(
            empty.product(&pa).classes(),
            empty.product_hash(&pa).classes()
        );
    }

    #[test]
    fn row_class_map_consistency() {
        let t = paper_table2();
        let pa = Partition::by(&t, &AttrSet::from_names(["pt2_a"])).unwrap();
        let map = pa.row_class();
        assert_eq!(map.len(), 5);
        assert_eq!(map[4], SINGLETON);
        assert!(map[0] == map[1] && map[1] == map[2] && map[2] == map[3]);
    }
}
