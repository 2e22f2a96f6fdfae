//! Dense group-id encoding: the counting kernel under every DANCE measure.
//!
//! Entropy (Def 2.5), join informativeness (Def 2.4), join-quality partitions
//! (Defs 2.1–2.3) and the §3 sampling estimators all reduce to "count rows per
//! distinct key of an attribute set". Materializing a boxed key per row and
//! hashing it costs an allocation plus a string-bytes hash per row. This
//! module instead assigns every row a compact
//! **group id** in `0..num_groups` with one cheap pass per column, exploiting
//! the columnar layout:
//!
//! * `Str` columns are already dictionary-encoded, so their codes are group
//!   codes; a `Vec`-indexed remap densifies them without hashing a single
//!   byte.
//! * `Int` / `Float` columns hash fixed-width words (floats by the same
//!   canonical bit pattern [`crate::Value`] uses for `Eq`/`Hash`, so −0.0/+0.0
//!   and all NaNs group exactly as equal [`crate::Value`]s do).
//! * Multi-attribute keys fold column codes pairwise: `(id, code)` pairs pack
//!   into a `u64` and are re-densified, so intermediate ids never grow past
//!   `u32`.
//!
//! Group ids are assigned in order of first occurrence, which makes the
//! encoding deterministic and gives every group a natural representative row
//! (its first row, [`Grouping::representatives`]). Consumers that only need
//! counts ([`Grouping::counts`]) never touch a `Value`; cross-table matching
//! (JI) reads one symbol key per *group* off the representative rows
//! ([`crate::sym`]).
//!
//! Every pass here runs sequentially on the calling thread: DANCE estimates
//! on the samples it bought, and splitting these passes across threads lost
//! to the single pass at every measured thread count.

use crate::column::{Column, ColumnData};
use crate::error::Result;
use crate::hash::FxHashMap;
use crate::schema::AttrSet;
use crate::table::Table;
use crate::value::Value;
use std::hash::Hash;

/// Row → dense group id assignment over some attribute set.
#[derive(Debug, Clone)]
pub struct Grouping {
    ids: Vec<u32>,
    num_groups: u32,
}

impl Grouping {
    /// Per-row group ids (`ids()[r] < num_groups()` for every row `r`).
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of distinct groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups as usize
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Rows per group, indexed by group id (the dense histogram).
    pub fn counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_groups as usize];
        for &g in &self.ids {
            counts[g as usize] += 1;
        }
        counts
    }

    /// First row of each group, indexed by group id.
    ///
    /// Ids are assigned in first-occurrence order, so this is strictly
    /// increasing.
    pub fn representatives(&self) -> Vec<u32> {
        let mut reps = Vec::with_capacity(self.num_groups as usize);
        for (r, &g) in self.ids.iter().enumerate() {
            if g as usize == reps.len() {
                reps.push(r as u32);
            }
        }
        reps
    }

    /// Joint grouping over `(self, other)` id pairs (both must cover the same
    /// rows). The result's groups are the distinct id pairs; use
    /// [`JointGrouping::x_of`]/[`JointGrouping::y_of`] to recover the
    /// marginal ids of each joint group.
    pub fn zip(&self, other: &Grouping) -> JointGrouping {
        assert_eq!(
            self.ids.len(),
            other.ids.len(),
            "groupings cover different row sets"
        );
        let (ids, keys) = encode_with_dict(HashDict::<u64>::default(), self.ids.len(), |r| {
            pack_pair(self.ids[r], other.ids[r])
        });
        JointGrouping {
            grouping: Grouping {
                ids,
                num_groups: keys.len() as u32,
            },
            x_of: keys.iter().map(|&k| (k >> 32) as u32).collect(),
            y_of: keys.iter().map(|&k| k as u32).collect(),
        }
    }
}

/// A [`Grouping`] over id *pairs*, remembering each joint group's marginals.
#[derive(Debug, Clone)]
pub struct JointGrouping {
    grouping: Grouping,
    x_of: Vec<u32>,
    y_of: Vec<u32>,
}

impl JointGrouping {
    /// The joint grouping itself.
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// First-coordinate group id of joint group `g`.
    pub fn x_of(&self, g: usize) -> u32 {
        self.x_of[g]
    }

    /// Second-coordinate group id of joint group `g`.
    pub fn y_of(&self, g: usize) -> u32 {
        self.y_of[g]
    }
}

/// A first-occurrence-order dense id assigner. The two implementations share
/// the encode loop ([`encode_with_dict`]): hash-based for arbitrary
/// fixed-width keys, `Vec`-remap-based for keys that are already small dense
/// codes (`Str` dictionary slots — no hashing at all).
trait Dict {
    type Key: Copy;
    /// Dense id of `k`, assigning the next id on first sight.
    fn intern(&mut self, k: Self::Key) -> u32;
    /// Distinct keys interned so far, in id order.
    fn into_keys(self) -> Vec<Self::Key>;
}

/// Hash-indexed [`Dict`] for word-sized keys (ints, canonical float bits,
/// packed id pairs).
struct HashDict<K> {
    index: FxHashMap<K, u32>,
    keys: Vec<K>,
}

impl<K> Default for HashDict<K> {
    fn default() -> Self {
        HashDict {
            index: FxHashMap::default(),
            keys: Vec::new(),
        }
    }
}

impl<K: Hash + Eq + Copy> Dict for HashDict<K> {
    type Key = K;

    #[inline]
    fn intern(&mut self, k: K) -> u32 {
        let next = self.keys.len() as u32;
        let id = *self.index.entry(k).or_insert(next);
        if id == next {
            self.keys.push(k);
        }
        id
    }

    fn into_keys(self) -> Vec<K> {
        self.keys
    }
}

/// `Vec`-remap [`Dict`] over a bounded slot space (`Str` dictionary codes plus
/// one NULL slot): densifies without hashing a single byte.
struct SlotDict {
    remap: Vec<u32>,
    slots: Vec<u32>,
}

impl SlotDict {
    fn new(bound: usize) -> SlotDict {
        SlotDict {
            remap: vec![u32::MAX; bound],
            slots: Vec::new(),
        }
    }
}

impl Dict for SlotDict {
    type Key = u32;

    #[inline]
    fn intern(&mut self, slot: u32) -> u32 {
        let entry = &mut self.remap[slot as usize];
        if *entry == u32::MAX {
            *entry = self.slots.len() as u32;
            self.slots.push(slot);
        }
        *entry
    }

    fn into_keys(self) -> Vec<u32> {
        self.slots
    }
}

/// The first-occurrence encode shared by every kernel here: interns the key
/// of each row `0..n` through `dict` and returns the per-row dense codes and
/// the distinct keys in id order.
fn encode_with_dict<D: Dict>(
    mut dict: D,
    n: usize,
    key_of: impl Fn(usize) -> D::Key,
) -> (Vec<u32>, Vec<D::Key>) {
    let mut codes = Vec::with_capacity(n);
    for r in 0..n {
        codes.push(dict.intern(key_of(r)));
    }
    (codes, dict.into_keys())
}

/// Dense per-column codes with NULL as its own code; second component is an
/// upper bound on the code space (`codes[r] < cardinality`).
///
/// `Str` columns reuse their dictionary codes via a `Vec` remap (no hashing);
/// `Int`/`Float` columns hash fixed-width words. Float identity follows
/// [`Value`]'s canonicalization (−0.0 ≡ +0.0, all NaNs equal). Codes are
/// assigned in first-occurrence order.
pub fn column_codes(col: &Column) -> (Vec<u32>, u32) {
    let n = col.len();
    // NULL folds into the key space ((true, _) for hashed keys, the extra
    // dictionary slot for Str), so it claims its dense code at its first
    // occurrence exactly like any value.
    let (codes, num) = match col.data() {
        ColumnData::Str(raw, dict) => {
            // The dictionary may be shared across tables (registry interning)
            // and therefore much larger than this column; `dict.len()` is
            // still a valid NULL sentinel because codes stored in the column
            // were assigned while the (append-only) dictionary was no larger.
            let null_slot = dict.len() as u32;
            let slot_of = |r| if col.is_null(r) { null_slot } else { raw[r] };
            if null_slot as usize > 4 * n + 64 {
                // A slot remap would allocate dictionary-sized scratch for a
                // column that cannot contain most of those slots; hash the
                // codes like any other word key instead.
                let (codes, keys) = encode_with_dict(HashDict::<u32>::default(), n, slot_of);
                (codes, keys.len())
            } else {
                let (codes, slots) =
                    encode_with_dict(SlotDict::new(null_slot as usize + 1), n, slot_of);
                (codes, slots.len())
            }
        }
        ColumnData::Int(raw) => {
            let (codes, keys) = encode_with_dict(HashDict::<(bool, i64)>::default(), n, |r| {
                if col.is_null(r) {
                    (true, 0)
                } else {
                    (false, raw[r])
                }
            });
            (codes, keys.len())
        }
        ColumnData::Float(raw) => {
            let (codes, keys) = encode_with_dict(HashDict::<(bool, u64)>::default(), n, |r| {
                if col.is_null(r) {
                    (true, 0)
                } else {
                    (false, Value::canonical_bits(raw[r]))
                }
            });
            (codes, keys.len())
        }
    };
    (codes, num as u32)
}

/// The one place a `(u32, u32)` id pair is packed into a `u64` key — every
/// pairwise combination step ([`fold_codes`], [`Grouping::zip`]) goes through
/// it, so the id-width invariant lives in a single line.
#[inline]
fn pack_pair(a: u32, b: u32) -> u64 {
    (a as u64) << 32 | b as u64
}

/// Fold a second code layer into an existing assignment: distinct
/// `(id, code)` pairs become the new dense ids (first-occurrence order).
/// `ids` and `codes` must cover the same rows. Codes need not be dense. Used
/// here for multi-column grouping, by `dance-info` to combine discretized
/// conditioning columns and joint code distributions, and by `dance-quality`
/// for the dense partition product. The folded id overwrites the old one
/// row by row, in place.
pub fn fold_codes(ids: &mut [u32], num_groups: &mut u32, codes: &[u32]) {
    assert_eq!(
        ids.len(),
        codes.len(),
        "code layers cover different row sets"
    );
    let mut index: FxHashMap<u64, u32> = FxHashMap::default();
    for (id, &c) in ids.iter_mut().zip(codes) {
        let key = pack_pair(*id, c);
        let next = index.len() as u32;
        *id = *index.entry(key).or_insert(next);
    }
    *num_groups = index.len() as u32;
}

/// Dense view of an arbitrary code slice: returns `(labels, num_groups)`
/// with every label `< num_groups` and `num_groups <= codes.len()`.
///
/// Already-dense input (max code < length) is borrowed as-is; sparse input is
/// re-densified through [`fold_codes`], so downstream `Vec`-indexed counting
/// can never allocate more than the row count. Shared by the `dance-info`
/// consumers that accept caller-supplied code vectors.
pub fn ensure_dense(codes: &[u32]) -> (std::borrow::Cow<'_, [u32]>, u32) {
    let max_plus_one = codes.iter().map(|&c| c as u64 + 1).max().unwrap_or(0);
    if max_plus_one <= codes.len() as u64 {
        return (std::borrow::Cow::Borrowed(codes), max_plus_one as u32);
    }
    let mut dense = vec![0u32; codes.len()];
    let mut num = 0u32;
    fold_codes(&mut dense, &mut num, codes);
    (std::borrow::Cow::Owned(dense), num)
}

/// Assign every row of `t` a dense group id over `attrs` (one pass per
/// attribute column). An empty `attrs` puts all rows in a single group
/// (every row has the same, empty, key).
pub fn group_ids(t: &Table, attrs: &AttrSet) -> Result<Grouping> {
    let cols = t.attr_indices(attrs)?;
    let n = t.num_rows();
    if n == 0 {
        return Ok(Grouping {
            ids: Vec::new(),
            num_groups: 0,
        });
    }
    let Some((&first, rest)) = cols.split_first() else {
        return Ok(Grouping {
            ids: vec![0; n],
            num_groups: 1,
        });
    };
    let (mut ids, mut num_groups) = column_codes(t.column(first));
    for &c in rest {
        if num_groups as usize == n {
            break; // already fully distinct; further columns cannot split
        }
        let (codes, _) = column_codes(t.column(c));
        fold_codes(&mut ids, &mut num_groups, &codes);
    }
    Ok(Grouping { ids, num_groups })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    fn t() -> Table {
        Table::from_rows(
            "g",
            &[
                ("grp_s", ValueType::Str),
                ("grp_i", ValueType::Int),
                ("grp_f", ValueType::Float),
            ],
            vec![
                vec![Value::str("u"), Value::Int(1), Value::Float(0.5)],
                vec![Value::str("u"), Value::Int(1), Value::Float(-0.0)],
                vec![Value::str("v"), Value::Int(2), Value::Float(0.0)],
                vec![Value::Null, Value::Null, Value::Float(f64::NAN)],
                vec![Value::str("u"), Value::Int(1), Value::Null],
                vec![Value::Null, Value::Int(2), Value::Float(-f64::NAN)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn single_column_groups_match_values() {
        let g = group_ids(&t(), &AttrSet::from_names(["grp_s"])).unwrap();
        // u, u, v, NULL, u, NULL → ids 0,0,1,2,0,2.
        assert_eq!(g.ids(), &[0, 0, 1, 2, 0, 2]);
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.counts(), vec![3, 1, 2]);
        assert_eq!(g.representatives(), vec![0, 2, 3]);
    }

    #[test]
    fn float_identity_matches_value_semantics() {
        let g = group_ids(&t(), &AttrSet::from_names(["grp_f"])).unwrap();
        // 0.5 | −0.0 | 0.0 (≡ −0.0) | NaN | NULL | −NaN (≡ NaN).
        assert_eq!(g.ids()[1], g.ids()[2], "-0.0 and 0.0 share a group");
        assert_eq!(g.ids()[3], g.ids()[5], "all NaNs share a group");
        assert_ne!(g.ids()[3], g.ids()[4], "NaN and NULL are distinct");
        assert_eq!(g.num_groups(), 4);
    }

    #[test]
    fn multi_column_groups_are_joint_keys() {
        let table = t();
        let g = group_ids(&table, &AttrSet::from_names(["grp_s", "grp_i"])).unwrap();
        // (u,1), (u,1), (v,2), (NULL,NULL), (u,1), (NULL,2).
        assert_eq!(g.num_groups(), 4);
        assert_eq!(g.counts(), vec![3, 1, 1, 1]);
        assert_eq!(g.representatives(), vec![0, 2, 3, 5]);
    }

    #[test]
    fn empty_attrs_and_empty_table() {
        let table = t();
        let g = group_ids(&table, &AttrSet::empty()).unwrap();
        assert_eq!(g.num_groups(), 1);
        assert_eq!(g.counts(), vec![6]);

        let empty = Table::from_rows("e", &[("grp_e", ValueType::Int)], vec![]).unwrap();
        let g = group_ids(&empty, &AttrSet::from_names(["grp_e"])).unwrap();
        assert_eq!(g.num_groups(), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn zip_matches_multi_column_grouping() {
        let table = t();
        let gs = group_ids(&table, &AttrSet::from_names(["grp_s"])).unwrap();
        let gi = group_ids(&table, &AttrSet::from_names(["grp_i"])).unwrap();
        let joint = gs.zip(&gi);
        let direct = group_ids(&table, &AttrSet::from_names(["grp_s", "grp_i"])).unwrap();
        assert_eq!(joint.grouping().num_groups(), direct.num_groups());
        // Same partition of rows (ids may be permuted but both are
        // first-occurrence ordered, hence identical).
        assert_eq!(joint.grouping().ids(), direct.ids());
        // Marginal back-pointers are consistent.
        for (r, &jg) in joint.grouping().ids().iter().enumerate() {
            assert_eq!(joint.x_of(jg as usize), gs.ids()[r]);
            assert_eq!(joint.y_of(jg as usize), gi.ids()[r]);
        }
    }

    #[test]
    fn null_never_collides_with_dictionary_dummy() {
        // A NULL in a Str column stores dummy code 0, which aliases "" in the
        // dictionary; the validity bitmap must keep them apart.
        let table = Table::from_rows(
            "d",
            &[("grp_dummy", ValueType::Str)],
            vec![
                vec![Value::str("")],
                vec![Value::Null],
                vec![Value::str("")],
            ],
        )
        .unwrap();
        let g = group_ids(&table, &AttrSet::from_names(["grp_dummy"])).unwrap();
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.ids()[0], g.ids()[2]);
        assert_ne!(g.ids()[0], g.ids()[1]);
    }

    #[test]
    fn missing_attribute_is_error() {
        assert!(group_ids(&t(), &AttrSet::from_names(["grp_missing"])).is_err());
    }

    /// A registry-shared dictionary can dwarf the column it encodes; past
    /// `4n + 64` entries the Str path switches from the SlotDict remap to
    /// hashed codes. The fallback must produce the identical first-occurrence
    /// encoding — with NULLs.
    #[test]
    fn oversized_shared_dict_hash_fallback_matches_slot_path() {
        use crate::interner::InternerRegistry;

        let rows: Vec<Vec<Value>> = (0..12)
            .map(|i| {
                vec![if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("gfb{}", i % 4))
                }]
            })
            .collect();
        let attrs = [("grp_fallback", ValueType::Str)];
        let small = Table::from_rows("s", &attrs, rows.clone()).unwrap();
        let reference = group_ids(&small, &AttrSet::from_names(["grp_fallback"])).unwrap();

        // Shared dictionary with far more than 4·12 + 64 entries pre-interned.
        let reg = InternerRegistry::new();
        let dict = reg.dict_for(crate::schema::attr("grp_fallback"));
        for i in 0..200 {
            dict.intern(&format!("padding{i}"));
        }
        let big = Table::from_rows_interned(&reg, "b", &attrs, rows).unwrap();
        match big.column(0).data() {
            ColumnData::Str(_, d) => assert!(d.len() > 4 * 12 + 64, "fallback branch not reached"),
            _ => unreachable!(),
        }
        let g = group_ids(&big, &AttrSet::from_names(["grp_fallback"])).unwrap();
        assert_eq!(g.ids(), reference.ids());
        assert_eq!(g.num_groups(), reference.num_groups());
        assert_eq!(g.counts(), reference.counts());
    }
}
