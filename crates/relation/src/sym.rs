//! Cross-table histograms on interned symbols — no boxed [`Value`] key is
//! materialized.
//!
//! A [`SymCounts`] is a per-table key histogram whose keys are fixed-width
//! word vectors instead of boxed [`Value`] tuples: one NULL-bitmask word
//! followed by one payload word per attribute —
//!
//! * `Int` → the value's bits (always cross-table comparable),
//! * `Float` → [`Value`]-canonical bits (−0.0 ≡ +0.0, all NaNs equal),
//! * `Str` → the column's dictionary symbol,
//! * NULL → payload 0 with the attribute's bit set in the mask word.
//!
//! Two histograms over the same attribute set are **directly comparable**
//! when their types match and every `Str` attribute resolves through the
//! *same* dictionary (`Arc` identity) — which is exactly what
//! [`crate::interner::InternerRegistry`]-interned tables guarantee. For
//! tables with private dictionaries, [`SymCounts::match_to`] degrades to a
//! symbol **translator** that resolves each distinct left symbol through the
//! right dictionary once (a per-distinct-value string lookup, still never a
//! boxed key); mismatched types mean no key can match at all, mirroring
//! [`Value`] equality across variants.
//!
//! Keys are built once per *group* off the dense group-id kernel
//! ([`crate::group`]), so the per-row work stays a `u32` id lookup and the
//! per-group work is a handful of word moves — this is the layer that drops
//! the last hash-and-box step from the join-graph and JI hot paths.

use crate::column::{ColumnData, StrDict};
use crate::delta::TableDelta;
use crate::error::{RelationError, Result};
use crate::group::Grouping;
use crate::hash::FxHashMap;
use crate::schema::AttrSet;
use crate::table::Table;
use crate::value::{Value, ValueType};
use std::sync::Arc;

/// A histogram key: `[null_mask, payload_0, …, payload_{k−1}]`.
pub type SymKey = Box<[u64]>;

/// Widest attribute set a symbol key supports: the NULL mask is one `u64`
/// word, one bit per attribute. Wider sets are rejected with an error.
pub const MAX_SYM_KEY_ATTRS: usize = 63;

/// `true` iff no attribute of the key is NULL (NULL keys never join — SQL
/// semantics, as in Definition 2.4's unmatched branches).
#[inline]
pub fn sym_joinable(key: &[u64]) -> bool {
    key[0] == 0
}

/// Per-attribute key metadata: the type, plus the dictionary `Str` symbols
/// resolve through.
#[derive(Debug, Clone)]
struct SymColMeta {
    ty: ValueType,
    dict: Option<Arc<StrDict>>,
}

/// Key histogram of one (table, attribute-set) pair on interned symbols.
#[derive(Debug, Clone)]
pub struct SymCounts {
    metas: Vec<SymColMeta>,
    counts: FxHashMap<SymKey, u64>,
    n: u64,
}

/// How a [`SymCounts`] key translates into another histogram's symbol space
/// (see [`SymCounts::match_to`]).
pub enum SymMatch<'a> {
    /// Same types, shared dictionaries: keys are comparable verbatim.
    Direct,
    /// Same types, private dictionaries: translate `Str` symbols per distinct
    /// value.
    Translate(SymTranslator<'a>),
    /// Type mismatch on some attribute: no key can ever match (mirrors
    /// [`Value`] equality across variants).
    Never,
}

/// Symbol remapper between two dictionaries' code spaces, caching one string
/// lookup per distinct (attribute, symbol).
pub struct SymTranslator<'a> {
    /// Per attribute: `Some((from, to))` when symbols need remapping.
    cols: Vec<Option<(&'a Arc<StrDict>, &'a Arc<StrDict>)>>,
    cache: FxHashMap<(u32, u64), Option<u64>>,
}

impl SymTranslator<'_> {
    /// Translate `key` into the target symbol space; `None` means some value
    /// does not exist over there (the key can match nothing).
    pub fn translate(&mut self, key: &[u64]) -> Option<SymKey> {
        let mask = key[0];
        let mut out: Vec<u64> = key.to_vec();
        for (i, maps) in self.cols.iter().enumerate() {
            let Some((from, to)) = maps else { continue };
            if mask & (1u64 << i) != 0 {
                continue; // NULL cell: payload stays 0
            }
            let sym = key[i + 1];
            let mapped = match self.cache.entry((i as u32, sym)) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let s = from.get(sym as u32);
                    *e.insert(to.lookup(&s).map(|c| c as u64))
                }
            };
            match mapped {
                Some(m) => out[i + 1] = m,
                None => return None,
            }
        }
        Some(out.into_boxed_slice())
    }
}

impl SymCounts {
    /// The key → count map.
    pub fn counts(&self) -> &FxHashMap<SymKey, u64> {
        &self.counts
    }

    /// Total rows counted.
    pub fn total(&self) -> u64 {
        self.n
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` when the table had no rows.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// `true` when keys of `self` and `other` compare verbatim: same types
    /// and, for `Str` attributes, the same (`Arc`-identical) dictionary.
    pub fn directly_comparable(&self, other: &SymCounts) -> bool {
        matches!(self.match_to(other), SymMatch::Direct)
    }

    /// Decide how keys of `self` map into `other`'s symbol space.
    pub fn match_to<'a>(&'a self, other: &'a SymCounts) -> SymMatch<'a> {
        if self.metas.len() != other.metas.len() {
            return SymMatch::Never;
        }
        let mut cols: Vec<Option<(&Arc<StrDict>, &Arc<StrDict>)>> =
            Vec::with_capacity(self.metas.len());
        let mut direct = true;
        for (a, b) in self.metas.iter().zip(&other.metas) {
            if a.ty != b.ty {
                return SymMatch::Never;
            }
            match (&a.dict, &b.dict) {
                (Some(da), Some(db)) if !Arc::ptr_eq(da, db) => {
                    direct = false;
                    cols.push(Some((da, db)));
                }
                _ => cols.push(None),
            }
        }
        if direct {
            SymMatch::Direct
        } else {
            SymMatch::Translate(SymTranslator {
                cols,
                cache: FxHashMap::default(),
            })
        }
    }

    /// Patch this histogram in place for `delta` applied to `before` (the
    /// table it was counted from), returning the net per-key count changes
    /// sorted by key (zero-net keys omitted — a delete-then-reinsert of the
    /// same key cancels out). O(|delta|), not O(table).
    ///
    /// Inserted `Str` values intern through the histogram's existing shared
    /// dictionaries — exactly what [`Table::apply_delta`] does — so a patched
    /// histogram is key-for-key identical to a fresh recount of the patched
    /// table.
    pub fn apply_delta(
        &mut self,
        before: &Table,
        attrs: &AttrSet,
        delta: &TableDelta,
    ) -> Result<Vec<(SymKey, i64)>> {
        let cols = before.attr_indices(attrs)?;
        if cols.len() != self.metas.len() {
            return Err(RelationError::Shape(format!(
                "histogram has {} key attributes but the delta targets {}",
                self.metas.len(),
                cols.len()
            )));
        }
        let (del_keys, ins_keys) = delta_sym_keys(&self.metas, before, &cols, delta)?;
        let mut net: FxHashMap<SymKey, i64> = FxHashMap::default();
        for k in del_keys {
            *net.entry(k).or_insert(0) -= 1;
        }
        for k in ins_keys {
            *net.entry(k).or_insert(0) += 1;
        }
        let mut changes: Vec<(SymKey, i64)> = net.into_iter().filter(|&(_, d)| d != 0).collect();
        changes.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (k, d) in &changes {
            let cur = self.counts.get(k).copied().unwrap_or(0) as i64 + d;
            if cur < 0 {
                return Err(RelationError::Shape(format!(
                    "delta drives count of key {:?} negative",
                    self.decode_key(k)
                )));
            }
            if cur == 0 {
                self.counts.remove(k);
            } else {
                self.counts.insert(k.clone(), cur as u64);
            }
        }
        let removed = delta.deleted().len() as u64;
        if removed > self.n {
            return Err(RelationError::Shape(format!(
                "delta deletes {removed} rows from a {}-row histogram",
                self.n
            )));
        }
        self.n = self.n - removed + delta.inserted().len() as u64;
        Ok(changes)
    }

    /// Decode a key back into the attribute values it stands for, in
    /// attribute-set order — for tests and diagnostics only; the hot paths
    /// never call this.
    pub fn decode_key(&self, key: &[u64]) -> Box<[Value]> {
        self.metas
            .iter()
            .enumerate()
            .map(|(i, m)| {
                if key[0] & (1u64 << i) != 0 {
                    return Value::Null;
                }
                let payload = key[i + 1];
                match m.ty {
                    ValueType::Int => Value::Int(payload as i64),
                    ValueType::Float => Value::Float(f64::from_bits(payload)),
                    ValueType::Str => Value::Str(
                        m.dict
                            .as_ref()
                            .expect("Str meta carries its dictionary")
                            .get(payload as u32),
                    ),
                }
            })
            .collect()
    }
}

/// Per-column payload reader (borrowed raw storage).
enum Payload<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(&'a [u32]),
}

impl Payload<'_> {
    #[inline]
    fn word(&self, row: usize) -> u64 {
        match self {
            Payload::Int(v) => v[row] as u64,
            Payload::Float(v) => Value::canonical_bits(v[row]),
            Payload::Str(v) => v[row] as u64,
        }
    }
}

fn col_metas(t: &Table, cols: &[usize]) -> Result<Vec<SymColMeta>> {
    if cols.len() > MAX_SYM_KEY_ATTRS {
        return Err(RelationError::Shape(format!(
            "symbol keys support at most {MAX_SYM_KEY_ATTRS} attributes, got {}",
            cols.len()
        )));
    }
    Ok(cols
        .iter()
        .map(|&c| {
            let attr = t.schema().attributes()[c];
            let dict = match t.column(c).data() {
                ColumnData::Str(_, d) => Some(Arc::clone(d)),
                _ => None,
            };
            SymColMeta { ty: attr.ty, dict }
        })
        .collect())
}

/// One symbol key per group of `g` (the representative row's words).
fn sym_keys(t: &Table, cols: &[usize], g: &Grouping) -> Vec<SymKey> {
    let payloads: Vec<Payload<'_>> = cols
        .iter()
        .map(|&c| match t.column(c).data() {
            ColumnData::Int(v) => Payload::Int(v),
            ColumnData::Float(v) => Payload::Float(v),
            ColumnData::Str(v, _) => Payload::Str(v),
        })
        .collect();
    g.representatives()
        .into_iter()
        .map(|rep| {
            let rep = rep as usize;
            let mut words = vec![0u64; cols.len() + 1];
            for (i, (&c, p)) in cols.iter().zip(&payloads).enumerate() {
                if t.column(c).is_null(rep) {
                    words[0] |= 1u64 << i;
                } else {
                    words[i + 1] = p.word(rep);
                }
            }
            words.into_boxed_slice()
        })
        .collect()
}

/// Symbol keys of a delta's deleted rows (read straight off `before`'s
/// columns) and inserted rows (built from scalars, mirroring
/// [`crate::column::ColumnBuilder`]'s widening/interning so the words equal
/// what a recount of the patched table would produce).
fn delta_sym_keys(
    metas: &[SymColMeta],
    before: &Table,
    cols: &[usize],
    delta: &TableDelta,
) -> Result<(Vec<SymKey>, Vec<SymKey>)> {
    let nrows = before.num_rows();
    let payloads: Vec<Payload<'_>> = cols
        .iter()
        .map(|&c| match before.column(c).data() {
            ColumnData::Int(v) => Payload::Int(v),
            ColumnData::Float(v) => Payload::Float(v),
            ColumnData::Str(v, _) => Payload::Str(v),
        })
        .collect();
    let mut del_keys = Vec::with_capacity(delta.deleted().len());
    for &r in delta.deleted() {
        if r as usize >= nrows {
            return Err(RelationError::Shape(format!(
                "deleted row id {r} out of bounds for table with {nrows} rows"
            )));
        }
        let mut words = vec![0u64; cols.len() + 1];
        for (i, (&c, p)) in cols.iter().zip(&payloads).enumerate() {
            if before.column(c).is_null(r as usize) {
                words[0] |= 1u64 << i;
            } else {
                words[i + 1] = p.word(r as usize);
            }
        }
        del_keys.push(words.into_boxed_slice());
    }
    let mut ins_keys = Vec::with_capacity(delta.inserted().len());
    for (ri, row) in delta.inserted().iter().enumerate() {
        if row.len() != before.num_attrs() {
            return Err(RelationError::Shape(format!(
                "inserted row {ri} has {} values, expected {}",
                row.len(),
                before.num_attrs()
            )));
        }
        let mut words = vec![0u64; cols.len() + 1];
        for (i, &c) in cols.iter().enumerate() {
            let m = &metas[i];
            match (m.ty, &row[c]) {
                (_, Value::Null) => words[0] |= 1u64 << i,
                (ValueType::Int, Value::Int(x)) => words[i + 1] = *x as u64,
                (ValueType::Float, Value::Float(x)) => words[i + 1] = Value::canonical_bits(*x),
                (ValueType::Float, Value::Int(x)) => {
                    words[i + 1] = Value::canonical_bits(*x as f64)
                }
                (ValueType::Str, Value::Str(s)) => {
                    let d = m.dict.as_ref().expect("Str meta carries its dictionary");
                    words[i + 1] = d.intern(s) as u64;
                }
                (ty, v) => {
                    return Err(RelationError::TypeMismatch(format!(
                        "cannot store {v:?} in {ty} column"
                    )))
                }
            }
        }
        ins_keys.push(words.into_boxed_slice());
    }
    Ok((del_keys, ins_keys))
}

/// Symbol-keyed histogram of `t` over `attrs`: one group-id pass, one count
/// pass, and key assembly per *group*.
pub fn sym_counts(t: &Table, attrs: &AttrSet) -> Result<SymCounts> {
    let cols = t.attr_indices(attrs)?;
    let metas = col_metas(t, &cols)?;
    let g = crate::group::group_ids(t, attrs)?;
    let counts = g.counts();
    let keys = sym_keys(t, &cols, &g);
    Ok(SymCounts {
        metas,
        counts: keys.into_iter().zip(counts).collect(),
        n: t.num_rows() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::InternerRegistry;
    use crate::schema::AttrSet;

    fn t() -> Table {
        Table::from_rows(
            "sy",
            &[
                ("sym_s", ValueType::Str),
                ("sym_i", ValueType::Int),
                ("sym_f", ValueType::Float),
            ],
            vec![
                vec![Value::str("u"), Value::Int(1), Value::Float(0.5)],
                vec![Value::str("u"), Value::Int(1), Value::Float(-0.0)],
                vec![Value::str("v"), Value::Int(-2), Value::Float(0.0)],
                vec![Value::Null, Value::Null, Value::Float(f64::NAN)],
                vec![Value::str("u"), Value::Int(1), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn joinable_tracks_nulls() {
        let table = t();
        let sc = sym_counts(&table, &AttrSet::from_names(["sym_s", "sym_i"])).unwrap();
        for k in sc.counts().keys() {
            let has_null = sc.decode_key(k).iter().any(Value::is_null);
            assert_eq!(sym_joinable(k), !has_null);
        }
    }

    #[test]
    fn registry_tables_compare_directly() {
        let reg = InternerRegistry::new();
        let a = t().intern_into(&reg);
        let b = t().with_name("sy2").intern_into(&reg);
        let on = AttrSet::from_names(["sym_s"]);
        let ca = sym_counts(&a, &on).unwrap();
        let cb = sym_counts(&b, &on).unwrap();
        assert!(ca.directly_comparable(&cb));
        // Identical logical content ⇒ identical symbol histograms.
        assert_eq!(ca.counts(), cb.counts());
    }

    #[test]
    fn private_dictionaries_translate() {
        let a = t();
        let b = Table::from_rows(
            "other",
            &[("sym_s", ValueType::Str)],
            vec![
                vec![Value::str("v")],
                vec![Value::str("w")],
                vec![Value::str("u")],
            ],
        )
        .unwrap();
        let on = AttrSet::from_names(["sym_s"]);
        let ca = sym_counts(&a, &on).unwrap();
        let cb = sym_counts(&b, &on).unwrap();
        match ca.match_to(&cb) {
            SymMatch::Translate(mut tr) => {
                // "u" and "v" exist on both sides; NULL key translates as-is.
                let mut matched = 0;
                for k in ca.counts().keys() {
                    if !sym_joinable(k) {
                        assert!(tr.translate(k).is_some());
                        continue;
                    }
                    if let Some(rk) = tr.translate(k) {
                        assert!(cb.counts().contains_key(&rk));
                        matched += 1;
                    }
                }
                assert_eq!(matched, 2);
            }
            _ => panic!("expected Translate"),
        }
    }

    #[test]
    fn type_mismatch_never_matches() {
        let a = t();
        let b = Table::from_rows(
            "ints",
            &[("sym_s", ValueType::Int)],
            vec![vec![Value::Int(1)]],
        )
        .unwrap();
        let on = AttrSet::from_names(["sym_s"]);
        let ca = sym_counts(&a, &on).unwrap();
        let cb = sym_counts(&b, &on).unwrap();
        assert!(matches!(ca.match_to(&cb), SymMatch::Never));
    }

    #[test]
    fn apply_delta_matches_fresh_recount() {
        use crate::delta::TableDelta;
        let base = t();
        let on = AttrSet::from_names(["sym_s", "sym_i", "sym_f"]);
        // Delete a NULL-bearing row and a repeated-key row, re-insert one of
        // them verbatim, add a brand-new string symbol.
        let d = TableDelta::new(
            vec![
                vec![Value::str("u"), Value::Int(1), Value::Float(-0.0)],
                vec![Value::str("brand_new"), Value::Int(8), Value::Null],
            ],
            vec![1, 3],
        );
        let mut patched = sym_counts(&base, &on).unwrap();
        let changes = patched.apply_delta(&base, &on, &d).unwrap();
        // The verbatim re-insert cancels against its delete.
        assert!(changes.iter().all(|(_, d)| *d != 0));
        let after = base.apply_delta(&d).unwrap();
        let fresh = sym_counts(&after, &on).unwrap();
        assert_eq!(patched.counts(), fresh.counts());
        assert_eq!(patched.total(), fresh.total());
    }

    #[test]
    fn apply_delta_to_empty_and_back() {
        use crate::delta::TableDelta;
        let base = t();
        let on = AttrSet::from_names(["sym_s"]);
        let wipe = TableDelta::new(vec![], (0..base.num_rows() as u32).collect());
        let mut patched = sym_counts(&base, &on).unwrap();
        patched.apply_delta(&base, &on, &wipe).unwrap();
        assert!(patched.is_empty());
        assert_eq!(patched.total(), 0);
        // Over-deleting is rejected.
        let mut again = sym_counts(&base, &on).unwrap();
        again.apply_delta(&base, &on, &wipe).unwrap();
        let empty = base.apply_delta(&wipe).unwrap();
        assert!(again.apply_delta(&empty, &on, &wipe).is_err());
    }
}
