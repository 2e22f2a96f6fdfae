//! Join informativeness (Definition 2.4).
//!
//! ```text
//! JI(D, D') = [ H(D.J, D'.J) − I(D.J, D'.J) ] / H(D.J, D'.J)   ∈ \[0, 1\]
//! ```
//!
//! where the joint distribution of the two join-key coordinates is taken over
//! the **full outer join** of `D` and `D'` on `J`, so unmatched keys surface
//! as `(val, NULL)` / `(NULL, val)` pairs — the measure penalizes joins with
//! many unmatched values \[31\]. Smaller JI ⇒ more important join connection.
//!
//! The joint distribution has a special structure that lets us avoid
//! materializing the outer join: for a key `v` with multiplicities
//! `n_L(v), n_R(v)`,
//!
//! * `v` in both sides → `n_L(v)·n_R(v)` pairs `(v, v)`,
//! * `v` only left     → `n_L(v)` pairs `(v, NULL)`,
//! * `v` only right    → `n_R(v)` pairs `(NULL, v)`.
//!
//! Keys containing NULL never match (SQL semantics) and land in the unmatched
//! branches. [`ji_from_sym_counts`] works straight off two key histograms —
//! the same code path serves exact computation and sampled estimation
//! (§3.1).
//!
//! Matching happens **across two tables**, whose dense group ids are not
//! comparable, so the histograms are keyed on **interned symbols**
//! ([`dance_relation::sym`]): registry-interned tables compare dictionary
//! codes verbatim, tables with private dictionaries fall back to a
//! per-distinct-value symbol translation, and no boxed key is materialized
//! either way.
//!
//! The folds accumulate the pair-category buckets and **sort them before
//! summing**, so the result is one deterministic float fold regardless of
//! hash-map iteration order. The incremental [`PairPartials`] visits the same
//! sorted multiset, so it is bit-identical to the two-histogram fold, which
//! tests pin against a value-keyed reference bit for bit.

use std::collections::{btree_map, BTreeMap};

use dance_relation::{
    sym_counts_with, sym_joinable, AttrSet, Executor, FxHashMap, FxHashSet, Result, SymCounts,
    SymKey, SymMatch, Table,
};

/// Degenerate-distribution conventions for JI (documented edge cases).
///
/// When the pair distribution has a single support point, `H = 0` and the
/// ratio is 0/0. Taking limits of the matched fraction: all-matched ⇒ `JI = 0`
/// (perfectly informative), all-unmatched ⇒ `JI = 1` (useless join). Two empty
/// inputs give `JI = 1` (there is no join connection at all).
fn degenerate_ji(matched_pairs: u128, total_pairs: u128) -> f64 {
    if total_pairs == 0 || matched_pairs == 0 {
        1.0
    } else {
        0.0
    }
}

/// Accumulator of the outer-join pair categories shared by every JI fold:
/// matched keys contribute `n_L·n_R` pairs, unmatched keys land in the
/// NULL-coordinate buckets of the opposite marginal.
#[derive(Default)]
struct PairBuckets {
    joint: Vec<u128>,
    left_marginal: Vec<u128>,
    right_marginal: Vec<u128>,
    left_null_bucket: u128,  // X = NULL (right-only pairs)
    right_null_bucket: u128, // Y = NULL (left-only pairs)
    matched_pairs: u128,
    total: u128,
}

impl PairBuckets {
    fn matched(&mut self, nl: u64, nr: u64) {
        let c = nl as u128 * nr as u128;
        self.joint.push(c);
        self.left_marginal.push(c);
        self.right_marginal.push(c);
        self.matched_pairs += c;
        self.total += c;
    }

    fn left_only(&mut self, nl: u64) {
        let nl = nl as u128;
        self.joint.push(nl);
        self.left_marginal.push(nl);
        self.right_null_bucket += nl;
        self.total += nl;
    }

    fn right_only(&mut self, nr: u64) {
        let nr = nr as u128;
        self.joint.push(nr);
        self.right_marginal.push(nr);
        self.left_null_bucket += nr;
        self.total += nr;
    }

    /// Sort every bucket list and fold the Def 2.4 formula. Sorting pins the
    /// float summation order to the bucket *multiset*, so two folds that saw
    /// the same categories in different (hash-map) orders produce
    /// bit-identical JI.
    fn finish(mut self) -> f64 {
        if self.left_null_bucket > 0 {
            self.left_marginal.push(self.left_null_bucket);
        }
        if self.right_null_bucket > 0 {
            self.right_marginal.push(self.right_null_bucket);
        }
        self.joint.sort_unstable();
        self.left_marginal.sort_unstable();
        self.right_marginal.sort_unstable();

        let h_joint = entropy_u128(&self.joint, self.total);
        if h_joint <= 0.0 {
            return degenerate_ji(self.matched_pairs, self.total);
        }
        let h_x = entropy_u128(&self.left_marginal, self.total);
        let h_y = entropy_u128(&self.right_marginal, self.total);
        let mi = (h_x + h_y - h_joint).max(0.0);
        ((h_joint - mi) / h_joint).clamp(0.0, 1.0)
    }
}

/// JI from two symbol histograms — the interned hot path (no boxed key
/// anywhere). Registry-shared dictionaries compare codes verbatim; private
/// dictionaries translate each distinct symbol once; mismatched types mean
/// nothing matches, mirroring [`dance_relation::Value`] equality across
/// variants.
pub fn ji_from_sym_counts(left: &SymCounts, right: &SymCounts) -> f64 {
    let mut b = PairBuckets::default();
    let mut l2r = left.match_to(right);
    // On the translator path, record the right keys hit by matched left keys:
    // symbol↔string mappings are bijective per dictionary, so a right key is
    // matched by *some* left key iff the forward pass reached it — no reverse
    // translator (and no second per-distinct-value string lookup) needed.
    let mut matched_right: FxHashSet<Box<[u64]>> = FxHashSet::default();
    for (k, &nl) in left.counts() {
        let nr = if sym_joinable(k) {
            match &mut l2r {
                SymMatch::Direct => right.counts().get(k),
                SymMatch::Translate(tr) => tr.translate(k).and_then(|rk| {
                    let hit = right.counts().get(&rk);
                    if hit.is_some() {
                        matched_right.insert(rk);
                    }
                    hit
                }),
                SymMatch::Never => None,
            }
        } else {
            None
        };
        match nr {
            Some(&nr) => b.matched(nl, nr),
            None => b.left_only(nl),
        }
    }
    for (k, &nr) in right.counts() {
        let matched = sym_joinable(k)
            && match &l2r {
                SymMatch::Direct => left.counts().contains_key(k),
                SymMatch::Translate(_) => matched_right.contains(k),
                SymMatch::Never => false,
            };
        if !matched {
            b.right_only(nr);
        }
    }
    b.finish()
}

/// A bucket multiset held sorted as `count → multiplicity`.
///
/// [`PairBuckets::finish`] pins the float summation order by sorting a
/// `Vec<u128>`; iterating this map in key order visits the identical sorted
/// multiset, and equal counts contribute the identical `−p·log₂p` term, so
/// folding multiplicity-many repeated subtractions is bit-for-bit the same
/// sum — without materializing or sorting anything per call.
#[derive(Debug, Clone, Default)]
struct BucketMultiset {
    counts: BTreeMap<u128, u64>,
}

impl BucketMultiset {
    fn add(&mut self, c: u128) {
        *self.counts.entry(c).or_insert(0) += 1;
    }

    fn remove(&mut self, c: u128) {
        match self.counts.entry(c) {
            btree_map::Entry::Occupied(mut e) => {
                *e.get_mut() -= 1;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            btree_map::Entry::Vacant(_) => {
                panic!("removing a bucket count that was never added")
            }
        }
    }

    /// Entropy of the multiset plus an optional extra bucket (`0` = absent),
    /// merged at its sorted position — the [`entropy_u128`] fold over the
    /// equivalent sorted `Vec`, term-for-term.
    fn entropy(&self, extra: u128, n: u128) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let nf = n as f64;
        let term = |c: u128| {
            let p = c as f64 / nf;
            p * p.log2()
        };
        let mut h = 0.0;
        let mut extra = (extra > 0).then_some(extra);
        for (&c, &m) in &self.counts {
            if let Some(v) = extra {
                if v <= c {
                    h -= term(v);
                    extra = None;
                }
            }
            // One log2 per distinct count; repeating the subtraction is
            // bit-identical to recomputing the (identical) term each time.
            let t = term(c);
            for _ in 0..m {
                h -= t;
            }
        }
        if let Some(v) = extra {
            h -= term(v);
        }
        h.max(0.0)
    }
}

/// The [`PairBuckets`] state in delta-maintainable form: sorted bucket
/// multisets plus the scalar accumulators, patched per changed category.
#[derive(Debug, Clone, Default)]
struct MaintainedBuckets {
    joint: BucketMultiset,
    left_marginal: BucketMultiset,
    right_marginal: BucketMultiset,
    left_null_bucket: u128,
    right_null_bucket: u128,
    matched_pairs: u128,
    total: u128,
}

impl MaintainedBuckets {
    /// Add one category's bucket contributions — the [`PairBuckets::matched`]
    /// / `left_only` / `right_only` classification for a `(n_L, n_R)` pair.
    fn cat_add(&mut self, joinable: bool, nl: u64, nr: u64) {
        if joinable && nl > 0 && nr > 0 {
            let c = nl as u128 * nr as u128;
            self.joint.add(c);
            self.left_marginal.add(c);
            self.right_marginal.add(c);
            self.matched_pairs += c;
            self.total += c;
        } else {
            // A non-joinable (NULL-bearing) key held by both sides is two
            // independent unmatched buckets, exactly as the two-loop fold
            // categorizes it.
            if nl > 0 {
                let c = nl as u128;
                self.joint.add(c);
                self.left_marginal.add(c);
                self.right_null_bucket += c;
                self.total += c;
            }
            if nr > 0 {
                let c = nr as u128;
                self.joint.add(c);
                self.right_marginal.add(c);
                self.left_null_bucket += c;
                self.total += c;
            }
        }
    }

    /// Exact inverse of [`Self::cat_add`]; `(0, 0)` is a no-op.
    fn cat_remove(&mut self, joinable: bool, nl: u64, nr: u64) {
        if joinable && nl > 0 && nr > 0 {
            let c = nl as u128 * nr as u128;
            self.joint.remove(c);
            self.left_marginal.remove(c);
            self.right_marginal.remove(c);
            self.matched_pairs -= c;
            self.total -= c;
        } else {
            if nl > 0 {
                let c = nl as u128;
                self.joint.remove(c);
                self.left_marginal.remove(c);
                self.right_null_bucket -= c;
                self.total -= c;
            }
            if nr > 0 {
                let c = nr as u128;
                self.joint.remove(c);
                self.right_marginal.remove(c);
                self.left_null_bucket -= c;
                self.total -= c;
            }
        }
    }

    /// The [`PairBuckets::finish`] fold over the maintained multisets.
    fn ji(&self) -> f64 {
        let h_joint = self.joint.entropy(0, self.total);
        if h_joint <= 0.0 {
            return degenerate_ji(self.matched_pairs, self.total);
        }
        let h_x = self
            .left_marginal
            .entropy(self.left_null_bucket, self.total);
        let h_y = self
            .right_marginal
            .entropy(self.right_null_bucket, self.total);
        let mi = (h_x + h_y - h_joint).max(0.0);
        ((h_joint - mi) / h_joint).clamp(0.0, 1.0)
    }
}

/// Materialized per-pair-category partial sums `key → (n_L, n_R)` for one
/// (instance pair, join attribute set) — the delta-maintained form of the
/// [`ji_from_sym_counts`] pair loop.
///
/// Only available for **directly comparable** histograms (shared
/// dictionaries): the pre-joined map then stays valid across deltas because
/// dictionary `Arc`s — and hence symbol identity — survive
/// `Table::apply_delta`. [`PairPartials::update_left`] /
/// [`PairPartials::update_right`] patch both the map and the sorted bucket
/// multisets from a histogram's net change list in O(changed categories);
/// [`PairPartials::ji`] folds the maintained multisets in the same sorted
/// order [`ji_from_sym_counts`]'s sort pins, so the result is bit-identical
/// to a full re-pair. Translate/Never pairs return `None` — callers fall back
/// to [`ji_from_sym_counts`] over the patched histograms, which still avoids
/// the O(rows) recount.
#[derive(Debug, Clone)]
pub struct PairPartials {
    cats: FxHashMap<SymKey, (u64, u64)>,
    buckets: MaintainedBuckets,
}

impl PairPartials {
    /// Pre-join two directly comparable histograms; `None` when their keys
    /// don't compare verbatim (private dictionaries or type mismatch).
    pub fn new(left: &SymCounts, right: &SymCounts) -> Option<PairPartials> {
        if !left.directly_comparable(right) {
            return None;
        }
        let mut cats: FxHashMap<SymKey, (u64, u64)> = FxHashMap::default();
        for (k, &nl) in left.counts() {
            cats.entry(k.clone()).or_insert((0, 0)).0 = nl;
        }
        for (k, &nr) in right.counts() {
            cats.entry(k.clone()).or_insert((0, 0)).1 = nr;
        }
        let mut buckets = MaintainedBuckets::default();
        for (k, &(nl, nr)) in &cats {
            buckets.cat_add(sym_joinable(k), nl, nr);
        }
        Some(PairPartials { cats, buckets })
    }

    /// Number of distinct pair categories currently held.
    pub fn len(&self) -> usize {
        self.cats.len()
    }

    /// `true` when no category has a nonzero count on either side.
    pub fn is_empty(&self) -> bool {
        self.cats.is_empty()
    }

    /// Apply a left-histogram net change list
    /// ([`SymCounts::apply_delta`]'s return value).
    pub fn update_left(&mut self, changes: &[(SymKey, i64)]) {
        self.update(changes, true)
    }

    /// Apply a right-histogram net change list.
    pub fn update_right(&mut self, changes: &[(SymKey, i64)]) {
        self.update(changes, false)
    }

    fn update(&mut self, changes: &[(SymKey, i64)], left: bool) {
        for (k, d) in changes {
            if *d == 0 {
                continue;
            }
            let joinable = sym_joinable(k);
            let e = self.cats.entry(k.clone()).or_insert((0, 0));
            let (old_nl, old_nr) = *e;
            let slot = if left { &mut e.0 } else { &mut e.1 };
            let n = *slot as i64 + d;
            assert!(n >= 0, "delta drives a pair-category count negative");
            *slot = n as u64;
            let (nl, nr) = *e;
            if (nl, nr) == (0, 0) {
                self.cats.remove(k);
            }
            self.buckets.cat_remove(joinable, old_nl, old_nr);
            self.buckets.cat_add(joinable, nl, nr);
        }
    }

    /// JI from the maintained sorted bucket multisets — bit-identical to
    /// re-pairing the two histograms from scratch (same sorted summation
    /// order as [`ji_from_sym_counts`]), in O(distinct bucket counts) `log2`
    /// calls with no per-call sort or category pass.
    pub fn ji(&self) -> f64 {
        self.buckets.ji()
    }
}

fn entropy_u128(counts: &[u128], n: u128) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let mut h = 0.0;
    for &c in counts {
        if c == 0 {
            continue;
        }
        let p = c as f64 / nf;
        h -= p * p.log2();
    }
    h.max(0.0)
}

/// `JI(D, D')` on join attributes `j` (Definition 2.4), on the global
/// executor. Runs on interned symbols — no key materialization.
///
/// Bound inherited from the symbol-key layout: at most
/// [`dance_relation::sym::MAX_SYM_KEY_ATTRS`] (63) join attributes, since the
/// NULL mask is one `u64` word; wider sets return an error. The join graph
/// never asks for more: it skips wider candidate join sets.
pub fn join_informativeness(d1: &Table, d2: &Table, j: &AttrSet) -> Result<f64> {
    join_informativeness_with(&Executor::global(), d1, d2, j)
}

/// [`join_informativeness`] on an explicit executor: both per-table symbol
/// histograms are built on its workers; the JI fold itself is a cheap pass
/// over the distinct keys and stays sequential.
pub fn join_informativeness_with(
    exec: &Executor,
    d1: &Table,
    d2: &Table,
    j: &AttrSet,
) -> Result<f64> {
    if j.is_empty() {
        return Err(dance_relation::RelationError::InvalidJoin(
            "join informativeness needs a non-empty join attribute set".into(),
        ));
    }
    let lc = sym_counts_with(exec, d1, j)?;
    let rc = sym_counts_with(exec, d2, j)?;
    Ok(ji_from_sym_counts(&lc, &rc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::join::{hash_join, JoinKind};
    use dance_relation::{attr, Table, Value, ValueType};

    fn table(name: &str, attr_name: &str, keys: &[&str]) -> Table {
        Table::from_rows(
            name,
            &[(attr_name, ValueType::Str)],
            keys.iter().map(|k| vec![Value::str(*k)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn perfect_fk_join_has_zero_ji() {
        let l = table("L", "ji_k", &["a", "b", "c"]);
        let r = table("R", "ji_k", &["a", "a", "b", "b", "c"]);
        let ji = join_informativeness(&l, &r, &AttrSet::from_names(["ji_k"])).unwrap();
        assert!(ji.abs() < 1e-12, "ji = {ji}");
    }

    #[test]
    fn disjoint_keys_approach_ji_one() {
        // For n disjoint keys per side, JI = (log2(2n) − 1)/log2(2n) → 1.
        let keys_l: Vec<String> = (0..64).map(|i| format!("l{i}")).collect();
        let keys_r: Vec<String> = (0..64).map(|i| format!("r{i}")).collect();
        let l = table(
            "L",
            "ji_k",
            &keys_l.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        let r = table(
            "R",
            "ji_k",
            &keys_r.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        let ji = join_informativeness(&l, &r, &AttrSet::from_names(["ji_k"])).unwrap();
        let expected = ((128f64).log2() - 1.0) / (128f64).log2();
        assert!(
            (ji - expected).abs() < 1e-9,
            "ji = {ji}, expected {expected}"
        );
        assert!(ji > 0.85);
    }

    #[test]
    fn partial_overlap_between_zero_and_one() {
        let l = table("L", "ji_k", &["a", "b", "x", "y"]);
        let r = table("R", "ji_k", &["a", "b", "p", "q"]);
        let ji = join_informativeness(&l, &r, &AttrSet::from_names(["ji_k"])).unwrap();
        assert!(ji > 0.0 && ji < 1.0, "ji = {ji}");
    }

    #[test]
    fn more_unmatched_means_higher_ji() {
        let l = table("L", "ji_k", &["a", "b", "c", "d"]);
        let mostly = table("R", "ji_k", &["a", "b", "c", "z"]);
        let barely = table("R", "ji_k", &["a", "x", "y", "z"]);
        let on = AttrSet::from_names(["ji_k"]);
        let ji_mostly = join_informativeness(&l, &mostly, &on).unwrap();
        let ji_barely = join_informativeness(&l, &barely, &on).unwrap();
        assert!(
            ji_barely > ji_mostly,
            "barely {ji_barely} !> mostly {ji_mostly}"
        );
    }

    #[test]
    fn null_keys_behave_like_an_unmatchable_value() {
        // Two left rows with NULL keys form one unmatched bucket, exactly as
        // two rows carrying a distinct value absent from the right side would.
        let with_nulls = Table::from_rows(
            "L",
            &[("jin_k", ValueType::Str)],
            vec![
                vec![Value::str("a")],
                vec![Value::str("b")],
                vec![Value::Null],
                vec![Value::Null],
            ],
        )
        .unwrap();
        let with_stranger = table("L2", "jin_k", &["a", "b", "u", "u"]);
        let r = table("R", "jin_k", &["a", "x", "y"]);
        let on = AttrSet::from_names(["jin_k"]);
        let ji_null = join_informativeness(&with_nulls, &r, &on).unwrap();
        let ji_val = join_informativeness(&with_stranger, &r, &on).unwrap();
        assert!((ji_null - ji_val).abs() < 1e-12, "{ji_null} vs {ji_val}");
        assert!(ji_null > 0.0);
    }

    #[test]
    fn degenerate_cases() {
        // Single matched key on both sides → all pairs matched → 0.
        let l = table("L", "jid_k", &["a", "a"]);
        let r = table("R", "jid_k", &["a"]);
        let on = AttrSet::from_names(["jid_k"]);
        assert_eq!(join_informativeness(&l, &r, &on).unwrap(), 0.0);
        // One unmatched key per side: the NULL buckets are perfectly
        // anti-coordinated, so I = H and the formula yields 0 — a documented
        // small-support artifact of Def 2.4 (JI → 1 as unmatched keys grow).
        let r2 = table("R", "jid_k", &["zz"]);
        let l1 = table("L", "jid_k", &["a"]);
        assert_eq!(join_informativeness(&l1, &r2, &on).unwrap(), 0.0);
        // One side empty → every pair unmatched, H = 0 → convention 1.
        let empty_r = table("R", "jid_k", &[]);
        assert_eq!(join_informativeness(&l1, &empty_r, &on).unwrap(), 1.0);
        // Both empty → 1 (no join connection).
        let e1 = table("L", "jid_k", &[]);
        let e2 = table("R", "jid_k", &[]);
        assert_eq!(join_informativeness(&e1, &e2, &on).unwrap(), 1.0);
    }

    #[test]
    fn pair_partials_pin_ji_across_deltas() {
        use dance_relation::{sym_counts, InternerRegistry, TableDelta};
        let reg = InternerRegistry::new();
        let l = Table::from_rows_interned(
            &reg,
            "L",
            &[("jip_k", ValueType::Str)],
            ["a", "a", "b", "x"]
                .iter()
                .map(|k| vec![Value::str(*k)])
                .chain([vec![Value::Null]])
                .collect(),
        )
        .unwrap();
        let r = Table::from_rows_interned(
            &reg,
            "R",
            &[("jip_k", ValueType::Str)],
            ["a", "b", "b", "y"]
                .iter()
                .map(|k| vec![Value::str(*k)])
                .collect(),
        )
        .unwrap();
        let on = AttrSet::from_names(["jip_k"]);
        let mut lc = sym_counts(&l, &on).unwrap();
        let rc = sym_counts(&r, &on).unwrap();
        let mut p = PairPartials::new(&lc, &rc).expect("interned twins compare directly");
        assert_eq!(p.ji().to_bits(), ji_from_sym_counts(&lc, &rc).to_bits());

        // Delete the NULL row and one matched row, insert a new shared symbol
        // plus a right-only symbol: partials patched from the change list must
        // keep pinning the two-histogram fold bit-for-bit.
        let d = TableDelta::new(
            vec![vec![Value::str("y")], vec![Value::str("zz")]],
            vec![0, 4],
        );
        let changes = lc.apply_delta(&l, &on, &d).unwrap();
        p.update_left(&changes);
        assert_eq!(p.ji().to_bits(), ji_from_sym_counts(&lc, &rc).to_bits());

        // Private dictionaries: partials are unavailable, the fallback stays.
        let priv_r = Table::from_rows(
            "P",
            &[("jip_k", ValueType::Str)],
            vec![vec![Value::str("a")]],
        )
        .unwrap();
        let pc = sym_counts(&priv_r, &on).unwrap();
        assert!(PairPartials::new(&lc, &pc).is_none());
    }

    /// Cross-check the histogram fast path against a materialized outer join.
    #[test]
    fn matches_materialized_outer_join() {
        let l = Table::from_rows(
            "L",
            &[("jim_k", ValueType::Str), ("jim_a", ValueType::Int)],
            vec![
                vec![Value::str("a"), Value::Int(1)],
                vec![Value::str("a"), Value::Int(2)],
                vec![Value::str("b"), Value::Int(3)],
                vec![Value::str("x"), Value::Int(4)],
            ],
        )
        .unwrap();
        let r = Table::from_rows(
            "R",
            &[("jim_k", ValueType::Str), ("jim_b", ValueType::Int)],
            vec![
                vec![Value::str("a"), Value::Int(10)],
                vec![Value::str("b"), Value::Int(20)],
                vec![Value::str("b"), Value::Int(30)],
                vec![Value::str("y"), Value::Int(40)],
            ],
        )
        .unwrap();
        let on = AttrSet::from_names(["jim_k"]);
        let fast = join_informativeness(&l, &r, &on).unwrap();

        // Materialized: joint over (left key presence, right key presence).
        let outer = hash_join(&l, &r, &on, JoinKind::FullOuter).unwrap();
        let n = outer.num_rows() as u64;
        let mut joint: FxHashMap<(Value, Value), u64> = FxHashMap::default();
        let mut mx: FxHashMap<Value, u64> = FxHashMap::default();
        let mut my: FxHashMap<Value, u64> = FxHashMap::default();
        for row in 0..outer.num_rows() {
            let key = outer.value_by_attr(row, attr("jim_k")).unwrap();
            // Left coordinate present iff a left column is non-null … here: jim_a.
            let lv = if outer.value_by_attr(row, attr("jim_a")).unwrap().is_null() {
                Value::Null
            } else {
                key.clone()
            };
            let rv = if outer.value_by_attr(row, attr("jim_b")).unwrap().is_null() {
                Value::Null
            } else {
                key.clone()
            };
            *joint.entry((lv.clone(), rv.clone())).or_insert(0) += 1;
            *mx.entry(lv).or_insert(0) += 1;
            *my.entry(rv).or_insert(0) += 1;
        }
        let h = crate::entropy::entropy_from_counts(joint.values().copied(), n);
        let hx = crate::entropy::entropy_from_counts(mx.values().copied(), n);
        let hy = crate::entropy::entropy_from_counts(my.values().copied(), n);
        let slow = (h - (hx + hy - h).max(0.0)) / h;
        assert!((fast - slow).abs() < 1e-9, "fast {fast} vs slow {slow}");
    }
}
