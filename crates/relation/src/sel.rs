//! Selection-vector joins on interned symbols — late materialization.
//!
//! [`crate::join::hash_join`] historically materialized a boxed `Value` key
//! per row on both the build and probe side, and every hop of a multi-table
//! join gathered a full intermediate [`Table`]. This module replaces both
//! steps:
//!
//! * **Symbol-native keys.** Join keys are compared as fixed-width `u64`
//!   words straight off the columnar storage: `Int` bits, [`Value`]-canonical
//!   `Float` bits, and `Str` dictionary symbols. Registry-interned tables
//!   (shared dictionaries, `Arc`-identical) compare codes verbatim; tables
//!   with private dictionaries degrade to a **per-distinct-symbol
//!   translator** that resolves each probe-side symbol into the build side's
//!   code space once (mirroring `SymCounts::match_to`) — no string is hashed
//!   or boxed per row on either path. NULL keys never match (SQL semantics),
//!   so they are excluded before any map is touched and no NULL-mask word is
//!   needed — which also means selection joins have no 63-attribute key
//!   limit.
//! * **Late materialization.** A join produces a [`JoinSel`] — per-output-row
//!   source indices into the two inputs (`NO_ROW` marks a null-extended outer
//!   row) — instead of a gathered table. Along a join tree the per-hop
//!   selections compose into a [`TreeSel`]: one `u32` selection column per
//!   participating base table. Only when the estimator needs actual values is
//!   a table materialized, with **one gather per output column** straight
//!   from the base tables ([`join_tree_late`]).
//!
//! Output row order, schema order and values are identical to joining and
//! materializing hop by hop on value keys; integration tests pin both the
//! pair join and the tree join against such a reference. Build, probe,
//! composition and materialization run sequentially on the calling thread:
//! the joined inputs are samples, and chunking them across threads lost to
//! the single pass at every measured thread count.

use crate::column::{Column, ColumnData, StrDict};
use crate::error::{RelationError, Result};
use crate::hash::FxHashMap;
use crate::join::{JoinEdge, JoinKind};
use crate::schema::{AttrSet, Attribute, Schema};
use crate::table::Table;
use crate::value::Value;
use std::sync::Arc;

/// Row-id sentinel marking a null-extended (outer-join) output row.
pub const NO_ROW: u32 = u32::MAX;

/// Symbol sentinel: a probe-side string that does not exist in the build
/// side's dictionary (the key can match nothing).
const NO_SYM: u32 = u32::MAX;

/// Result of one selection join: aligned per-output-row source indices into
/// the left and right input ([`NO_ROW`] marks the null-extended side of an
/// unmatched outer row). Inner joins never contain [`NO_ROW`].
#[derive(Debug, Clone, Default)]
pub struct JoinSel {
    /// Left source row per output row.
    pub left_rows: Vec<u32>,
    /// Right source row per output row.
    pub right_rows: Vec<u32>,
}

impl JoinSel {
    /// Number of output rows.
    pub fn num_rows(&self) -> usize {
        self.left_rows.len()
    }

    /// `true` when the join produced no rows.
    pub fn is_empty(&self) -> bool {
        self.left_rows.is_empty()
    }
}

/// Per-attribute key-word reader over one base column, in the *build side's*
/// symbol space.
enum Words<'a> {
    /// Integer bits (always cross-table comparable).
    Int(&'a [i64]),
    /// Canonical float bits (−0.0 ≡ +0.0, all NaNs equal — [`Value`] identity).
    Float(&'a [f64]),
    /// Dictionary symbols, directly comparable (same `Arc` dictionary).
    Str(&'a [u32]),
    /// Private-dictionary symbols remapped into the build dictionary
    /// ([`NO_SYM`] = the string does not exist over there).
    StrRemap(&'a [u32], Vec<u32>),
}

/// One key position: the base column plus its word reader.
struct KeySource<'a> {
    col: &'a Column,
    words: Words<'a>,
}

impl KeySource<'_> {
    #[inline]
    fn is_null(&self, row: usize) -> bool {
        self.col.is_null(row)
    }

    /// Key word of a (non-NULL) row; `None` means the value cannot exist on
    /// the build side (untranslatable private-dictionary symbol).
    #[inline]
    fn word(&self, row: usize) -> Option<u64> {
        match &self.words {
            Words::Int(v) => Some(v[row] as u64),
            Words::Float(v) => Some(Value::canonical_bits(v[row])),
            Words::Str(v) => Some(v[row] as u64),
            Words::StrRemap(v, remap) => match remap[v[row] as usize] {
                NO_SYM => None,
                m => Some(m as u64),
            },
        }
    }
}

/// Native (build-side) word reader of one column.
fn native_source(col: &Column) -> KeySource<'_> {
    let words = match col.data() {
        ColumnData::Int(v) => Words::Int(v),
        ColumnData::Float(v) => Words::Float(v),
        ColumnData::Str(v, _) => Words::Str(v),
    };
    KeySource { col, words }
}

/// Probe-side word reader of `col` in `build_dict`'s symbol space: verbatim
/// when the dictionaries are `Arc`-identical, per-distinct-symbol translation
/// otherwise.
fn probe_source<'a>(col: &'a Column, build_col: &'a Column) -> KeySource<'a> {
    probe_source_rows(col, build_col, None)
}

/// [`probe_source`] restricted to the rows a selection actually references:
/// the translation table resolves only symbols of `sel_rows` (the tree
/// driver's composed selection may be a re-sampled sliver of the base
/// column, and translating the whole column would undo the late-
/// materialization saving).
fn probe_source_rows<'a>(
    col: &'a Column,
    build_col: &'a Column,
    sel_rows: Option<&[u32]>,
) -> KeySource<'a> {
    let words = match (col.data(), build_col.data()) {
        (ColumnData::Str(v, from), ColumnData::Str(_, to)) if !Arc::ptr_eq(from, to) => {
            let remap = match sel_rows {
                None => remap_codes(col, v, from, to),
                Some(rows) => {
                    let used = rows
                        .iter()
                        .map(|&r| r as usize)
                        .filter(|&r| !col.is_null(r))
                        .map(|r| v[r]);
                    distinct_code_remap(from, used, |s| to.lookup(s))
                }
            };
            Words::StrRemap(v, remap)
        }
        _ => match col.data() {
            ColumnData::Int(v) => Words::Int(v),
            ColumnData::Float(v) => Words::Float(v),
            ColumnData::Str(v, _) => Words::Str(v),
        },
    };
    KeySource { col, words }
}

/// Two-phase per-distinct-code resolution `from`-code → resolved code
/// ([`NO_SYM`] where `resolve` declines), the one place the cross-dictionary
/// lock discipline lives.
///
/// Phase one collects each distinct code's string under `from`'s reader (an
/// `Arc` clone each, no copy); phase two — with **no reader alive**, per the
/// [`StrDict::reader`] contract — runs `resolve` (a lookup or an intern into
/// another dictionary) per distinct code. `codes` must already exclude NULL
/// rows: their dummy code may not even exist in `from`.
fn distinct_code_remap(
    from: &StrDict,
    codes: impl Iterator<Item = u32>,
    mut resolve: impl FnMut(&str) -> Option<u32>,
) -> Vec<u32> {
    let mut pending: Vec<(u32, Arc<str>)> = Vec::new();
    let mut remap: Vec<u32>;
    {
        let from_r = from.reader();
        remap = vec![NO_SYM; from_r.len()];
        let mut seen = vec![false; from_r.len()];
        for c in codes {
            if !seen[c as usize] {
                seen[c as usize] = true;
                pending.push((c, Arc::clone(from_r.get_arc(c))));
            }
        }
    }
    for (c, s) in pending {
        if let Some(m) = resolve(&s) {
            remap[c as usize] = m;
        }
    }
    remap
}

/// Per-distinct-symbol translation table `from`-code → `to`-code ([`NO_SYM`]
/// when absent), resolving each distinct symbol's string exactly once.
fn remap_codes(col: &Column, codes: &[u32], from: &Arc<StrDict>, to: &Arc<StrDict>) -> Vec<u32> {
    let valid_codes = codes
        .iter()
        .enumerate()
        .filter(|(r, _)| !col.is_null(*r))
        .map(|(_, &c)| c);
    distinct_code_remap(from, valid_codes, |s| to.lookup(s))
}

/// Build-side hash map: key words → right rows (in ascending row order).
/// Single-attribute keys index a plain `u64` map (no per-row allocation);
/// wider keys box the word vector once per row, which is still far cheaper
/// than the retired per-row `Value` key (no string hashing, no `Arc` churn).
enum BuildMap {
    One(FxHashMap<u64, Vec<u32>>),
    Many(FxHashMap<Box<[u64]>, Vec<u32>>),
}

impl BuildMap {
    fn new(width: usize) -> BuildMap {
        if width == 1 {
            BuildMap::One(FxHashMap::default())
        } else {
            BuildMap::Many(FxHashMap::default())
        }
    }

    #[inline]
    fn insert(&mut self, key: &[u64], row: u32) {
        match self {
            BuildMap::One(m) => m.entry(key[0]).or_default().push(row),
            BuildMap::Many(m) => m.entry(Box::from(key)).or_default().push(row),
        }
    }

    #[inline]
    fn get(&self, key: &[u64]) -> Option<&[u32]> {
        match self {
            BuildMap::One(m) => m.get(&key[0]).map(Vec::as_slice),
            BuildMap::Many(m) => m.get(key).map(Vec::as_slice),
        }
    }
}

/// Build the right-side map over `rcols` in the right table's native symbol
/// space. Returns the map plus the right rows with a NULL key (they never
/// match; full-outer joins append them last, in row order).
fn build_side(right: &Table, rcols: &[usize]) -> (BuildMap, Vec<u32>) {
    let sources: Vec<KeySource<'_>> = rcols
        .iter()
        .map(|&c| native_source(right.column(c)))
        .collect();
    let mut map = BuildMap::new(sources.len());
    let mut null_rows: Vec<u32> = Vec::new();
    let mut key = vec![0u64; sources.len()];
    'rows: for r in 0..right.num_rows() {
        for (pos, s) in sources.iter().enumerate() {
            if s.is_null(r) {
                null_rows.push(r as u32);
                continue 'rows;
            }
            key[pos] = s.word(r).expect("native words always resolve");
        }
        map.insert(&key, r as u32);
    }
    (map, null_rows)
}

/// Non-empty `on` check — one error string for both join drivers.
fn ensure_on_nonempty(on: &AttrSet) -> Result<()> {
    if on.is_empty() {
        return Err(RelationError::InvalidJoin(
            "join attribute set is empty".into(),
        ));
    }
    Ok(())
}

/// Per-position join-type agreement — one error string for both join drivers
/// (the pair join resolves both sides in tables; the tree driver's left side
/// is the virtual accumulated schema).
fn check_join_types(lt: crate::value::ValueType, rt: crate::value::ValueType) -> Result<()> {
    if lt != rt {
        return Err(RelationError::TypeMismatch(format!(
            "join attribute type mismatch: {lt} vs {rt}"
        )));
    }
    Ok(())
}

/// Validate `on` against both sides and return the (left, right) column
/// indices — shared by [`join_sel`] and [`crate::join::hash_join`].
pub(crate) fn validate_on(
    left: &Table,
    right: &Table,
    on: &AttrSet,
) -> Result<(Vec<usize>, Vec<usize>)> {
    ensure_on_nonempty(on)?;
    let lcols = left
        .attr_indices(on)
        .map_err(|_| missing(on, left.name()))?;
    let rcols = right
        .attr_indices(on)
        .map_err(|_| missing(on, right.name()))?;
    for (l, r) in lcols.iter().zip(&rcols) {
        check_join_types(
            left.schema().attributes()[*l].ty,
            right.schema().attributes()[*r].ty,
        )?;
    }
    Ok((lcols, rcols))
}

fn missing(on: &AttrSet, name: &str) -> RelationError {
    RelationError::InvalidJoin(format!("join attributes {on} not all present in {name}"))
}

/// Hash equi-join of `left ⋈_on right` at the selection level: symbol-native
/// build/probe, no value is boxed and no column gathered. Output row order is
/// identical to [`crate::join::hash_join`] (which is this plus one
/// [`materialize_join`]).
pub fn join_sel(left: &Table, right: &Table, on: &AttrSet, kind: JoinKind) -> Result<JoinSel> {
    let (lcols, rcols) = validate_on(left, right, on)?;
    Ok(join_sel_cols(left, right, &lcols, &rcols, kind))
}

/// [`join_sel`] over pre-validated column indices (what `hash_join` calls so
/// validation runs once per join, not once per phase).
pub(crate) fn join_sel_cols(
    left: &Table,
    right: &Table,
    lcols: &[usize],
    rcols: &[usize],
    kind: JoinKind,
) -> JoinSel {
    let (map, right_null_rows) = build_side(right, rcols);
    let sources: Vec<KeySource<'_>> = lcols
        .iter()
        .zip(rcols)
        .map(|(&lc, &rc)| probe_source(left.column(lc), right.column(rc)))
        .collect();
    let full_outer = kind == JoinKind::FullOuter;
    let mut li: Vec<u32> = Vec::new();
    let mut ri: Vec<u32> = Vec::new();
    let mut right_matched = vec![false; if full_outer { right.num_rows() } else { 0 }];
    let mut key = vec![0u64; sources.len()];
    for l in 0..left.num_rows() {
        let resolved = sources.iter().enumerate().try_for_each(|(pos, s)| {
            if s.is_null(l) {
                return Err(());
            }
            key[pos] = s.word(l).ok_or(())?;
            Ok(())
        });
        match resolved.ok().and_then(|()| map.get(&key)) {
            Some(matches) => {
                for &r in matches {
                    li.push(l as u32);
                    ri.push(r);
                    if full_outer {
                        right_matched[r as usize] = true;
                    }
                }
            }
            None => {
                if full_outer {
                    li.push(l as u32);
                    ri.push(NO_ROW);
                }
            }
        }
    }
    if full_outer {
        // NULL-keyed rights are appended separately below; pre-marking them
        // "matched" keeps the unmatched scan linear in the row count.
        for &r in &right_null_rows {
            right_matched[r as usize] = true;
        }
        for (r, matched) in right_matched.iter().enumerate() {
            if !matched {
                li.push(NO_ROW);
                ri.push(r as u32);
            }
        }
        for &r in &right_null_rows {
            li.push(NO_ROW);
            ri.push(r);
        }
    }
    JoinSel {
        left_rows: li,
        right_rows: ri,
    }
}

/// Per-left-row match lists of the **inner** pair join `left ⋈_on right`, in
/// CSR form over *all* rows of both base tables: [`PairSel::matches_of`]`(l)`
/// is the ascending list of right rows matching left row `l` (empty for NULL
/// or untranslatable keys).
///
/// This is [`join_sel`] reshaped so a tree driver can re-probe any *subset*
/// of left rows — in any order, any number of times — without touching a
/// build map again: exactly the unit the MCMC search caches per
/// `(instance pair, join attribute set)` and re-composes on every proposal
/// ([`TreeJoin::advance_with_pair`]).
#[derive(Debug, Clone)]
pub struct PairSel {
    /// CSR offsets into `matches`; length = left rows + 1.
    starts: Vec<u32>,
    /// Concatenated match lists, grouped by left row, ascending within each.
    matches: Vec<u32>,
}

impl PairSel {
    /// Number of left-side base rows this selection was built over.
    pub fn num_left(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of matching row pairs.
    pub fn num_matches(&self) -> usize {
        self.matches.len()
    }

    /// Right rows matching left row `l`, ascending.
    #[inline]
    pub fn matches_of(&self, l: u32) -> &[u32] {
        &self.matches[self.starts[l as usize] as usize..self.starts[l as usize + 1] as usize]
    }

    /// Patch for a probe-side (left) delta: survivors keep their cached match
    /// lists verbatim (the build side is untouched), and only the appended
    /// tail rows are joined fresh against `build`. `kept` is the survivor
    /// gather list ([`crate::delta::TableDelta::kept`]); `new_probe` is the
    /// post-delta left table, whose first `kept.len()` rows are the survivors
    /// in order. Bit-identical to rebuilding over `(new_probe, build)`, in
    /// O(survivor matches + tail join) instead of a full hash join.
    pub fn patch_probe(
        &self,
        kept: &[u32],
        new_probe: &Table,
        build: &Table,
        on: &AttrSet,
    ) -> Result<PairSel> {
        let n_surv = kept.len();
        let n_new = new_probe.num_rows();
        if n_surv > n_new {
            return Err(RelationError::Shape(format!(
                "{n_surv} survivors exceed the patched probe's {n_new} rows"
            )));
        }
        if let Some(&max) = kept.iter().max() {
            if max as usize >= self.num_left() {
                return Err(RelationError::Shape(format!(
                    "survivor row {max} out of bounds for a {}-row pair selection",
                    self.num_left()
                )));
            }
        }
        let tail_table = new_probe.gather_runs(&[(n_surv as u32, n_new as u32)]);
        let tail = pair_sel(&tail_table, build, on)?;
        let mut matches: Vec<u32> = Vec::with_capacity(self.matches.len() + tail.num_matches());
        let mut bounds: Vec<usize> = Vec::with_capacity(n_new + 1);
        bounds.push(0);
        // Copy each maximal run of consecutive survivors as one slice (their
        // lists are adjacent in the CSR); per-row bounds are offset shifts.
        let mut k = 0usize;
        while k < n_surv {
            let first = kept[k];
            let mut last = first;
            let mut j = k + 1;
            while j < n_surv && kept[j] == last + 1 {
                last = kept[j];
                j += 1;
            }
            let s = self.starts[first as usize] as usize;
            let e = self.starts[last as usize + 1] as usize;
            let out_start = matches.len();
            matches.extend_from_slice(&self.matches[s..e]);
            for l in first..=last {
                bounds.push(out_start + self.starts[l as usize + 1] as usize - s);
            }
            k = j;
        }
        let out_start = matches.len();
        matches.extend_from_slice(&tail.matches);
        for l in 1..tail.starts.len() {
            bounds.push(out_start + tail.starts[l] as usize);
        }
        finish_patched(bounds, matches)
    }

    /// Patch for a build-side (right) delta: each cached list drops its
    /// deleted right rows and renumbers the survivors through `remap`
    /// ([`crate::delta::TableDelta::remap`] — monotone on survivors, so lists
    /// stay ascending), then gains the matches against the appended build
    /// tail (rows `n_surv..` of `new_build`, whose post-delta ids sort after
    /// every survivor). A probe symbol that only exists because the delta
    /// interned it can match only tail rows, so the tail join also covers
    /// keys that were untranslatable before the update. Bit-identical to
    /// rebuilding over `(probe, new_build)`.
    pub fn patch_build(
        &self,
        remap: &[u32],
        probe: &Table,
        new_build: &Table,
        n_surv: usize,
        on: &AttrSet,
    ) -> Result<PairSel> {
        if self.num_left() != probe.num_rows() {
            return Err(RelationError::Shape(format!(
                "pair selection covers {} probe rows, table has {}",
                self.num_left(),
                probe.num_rows()
            )));
        }
        let n_new = new_build.num_rows();
        if n_surv > n_new {
            return Err(RelationError::Shape(format!(
                "{n_surv} survivors exceed the patched build's {n_new} rows"
            )));
        }
        let tail_idx: Vec<u32> = (n_surv as u32..n_new as u32).collect();
        let tail = pair_sel(probe, &new_build.gather(&tail_idx), on)?;
        let mut matches: Vec<u32> = Vec::new();
        let mut bounds: Vec<usize> = Vec::with_capacity(self.num_left() + 1);
        bounds.push(0);
        for l in 0..self.num_left() as u32 {
            for &r in self.matches_of(l) {
                let m = *remap.get(r as usize).ok_or_else(|| {
                    RelationError::Shape(format!("match row {r} outside the remap table"))
                })?;
                if m != NO_ROW {
                    matches.push(m);
                }
            }
            for &r in tail.matches_of(l) {
                matches.push(n_surv as u32 + r);
            }
            bounds.push(matches.len());
        }
        finish_patched(bounds, matches)
    }
}

/// Convert usize CSR bounds into the u32 form, rejecting overflow the same
/// way [`pair_sel`] does.
fn finish_patched(bounds: Vec<usize>, matches: Vec<u32>) -> Result<PairSel> {
    if matches.len() >= NO_ROW as usize {
        return Err(RelationError::Shape(format!(
            "pair join produced {} matches; selection row ids are u32",
            matches.len()
        )));
    }
    Ok(PairSel {
        starts: bounds.into_iter().map(|b| b as u32).collect(),
        matches,
    })
}

/// Build a [`PairSel`]: the inner [`join_sel`] reshaped into CSR form.
pub fn pair_sel(left: &Table, right: &Table, on: &AttrSet) -> Result<PairSel> {
    let (lcols, rcols) = validate_on(left, right, on)?;
    let sel = join_sel_cols(left, right, &lcols, &rcols, JoinKind::Inner);
    if sel.right_rows.len() >= NO_ROW as usize {
        return Err(RelationError::Shape(format!(
            "pair join produced {} matches; selection row ids are u32",
            sel.right_rows.len()
        )));
    }
    // Inner-join output is grouped by ascending left row, so the right rows
    // are already in CSR order; only the offsets need counting.
    let mut starts = vec![0u32; left.num_rows() + 1];
    for &l in &sel.left_rows {
        starts[l as usize + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    Ok(PairSel {
        starts,
        matches: sel.right_rows,
    })
}

/// Coalesced join-key column: the left value where the left side is present,
/// the right value on right-only (null-extended) rows. Stays in the left
/// column's symbol space; right-only symbols from a different dictionary are
/// interned into it per *distinct* symbol (append-only, codes stay stable).
fn coalesce_key_column(lc: &Column, rc: &Column, li: &[u32], ri: &[u32]) -> Result<Column> {
    if !li.contains(&NO_ROW) {
        // Inner joins (and fully matched outer lefts): plain left gather.
        return Ok(lc.gather(li));
    }
    let pick = |out: usize| -> (bool, u32) {
        // (from_left, source row); every output row has at least one side.
        if li[out] != NO_ROW {
            (true, li[out])
        } else {
            (false, ri[out])
        }
    };
    let n = li.len();
    let mut validity = crate::bitmap::Bitmap::default();
    for out in 0..n {
        let (from_left, row) = pick(out);
        let null = if from_left {
            lc.is_null(row as usize)
        } else {
            rc.is_null(row as usize)
        };
        validity.push(!null);
    }
    let data = match (lc.data(), rc.data()) {
        (ColumnData::Int(lv), ColumnData::Int(rv)) => ColumnData::Int(
            (0..n)
                .map(|out| {
                    let (from_left, row) = pick(out);
                    if from_left {
                        lv[row as usize]
                    } else {
                        rv[row as usize]
                    }
                })
                .collect(),
        ),
        (ColumnData::Float(lv), ColumnData::Float(rv)) => ColumnData::Float(
            (0..n)
                .map(|out| {
                    let (from_left, row) = pick(out);
                    if from_left {
                        lv[row as usize]
                    } else {
                        rv[row as usize]
                    }
                })
                .collect(),
        ),
        (ColumnData::Str(lv, ld), ColumnData::Str(rv, rd)) => {
            // Which dictionary backs the output, and how each side's codes
            // map into it. A join must never mutate its inputs' (possibly
            // registry-shared) dictionaries, so when the sides disagree the
            // mixed symbols go into a *fresh* private dictionary — the
            // ColumnBuilder convention, per distinct symbol instead of per
            // row. The `Arc`-shared case keeps codes (and the dictionary)
            // verbatim.
            let (dict, remaps) = if Arc::ptr_eq(ld, rd) {
                (Arc::clone(ld), None)
            } else {
                let fresh = Arc::new(StrDict::default());
                let used_left = (0..n).filter_map(|out| {
                    let (from_left, row) = pick(out);
                    (from_left && !lc.is_null(row as usize)).then(|| lv[row as usize])
                });
                let remap_l = distinct_code_remap(ld, used_left, |s| Some(fresh.intern(s)));
                let used_right = (0..n).filter_map(|out| {
                    let (from_left, row) = pick(out);
                    (!from_left && !rc.is_null(row as usize)).then(|| rv[row as usize])
                });
                let remap_r = distinct_code_remap(rd, used_right, |s| Some(fresh.intern(s)));
                (fresh, Some((remap_l, remap_r)))
            };
            let mut dummy_ready = false;
            let codes: Vec<u32> = (0..n)
                .map(|out| {
                    let (from_left, row) = pick(out);
                    let row = row as usize;
                    let null = if from_left {
                        lc.is_null(row)
                    } else {
                        rc.is_null(row)
                    };
                    if null {
                        // Mirror ColumnBuilder's invariant: code 0 resolves
                        // whenever NULL rows are present. (On the shared-dict
                        // path this can intern "" into an *empty* shared
                        // dictionary — exactly what ColumnBuilder::with_dict
                        // does when pushing a NULL.)
                        if !dummy_ready {
                            if dict.is_empty() {
                                dict.intern("");
                            }
                            dummy_ready = true;
                        }
                        return 0;
                    }
                    match (&remaps, from_left) {
                        (None, true) => lv[row],
                        (None, false) => rv[row],
                        (Some((remap_l, _)), true) => remap_l[lv[row] as usize],
                        (Some((_, remap_r)), false) => remap_r[rv[row] as usize],
                    }
                })
                .collect();
            ColumnData::Str(codes, dict)
        }
        _ => {
            return Err(RelationError::TypeMismatch(
                "coalesced join columns disagree on type".into(),
            ))
        }
    };
    Column::new(data, Some(validity).filter(|b| !b.all_set()))
}

/// Materialize a [`JoinSel`] into the join's output table: the coalesced
/// join attributes first, then the left remainder, then the right remainder
/// (left copy wins on duplicate non-join names) — the exact schema, order
/// and values of the per-hop materializing pipeline.
pub fn materialize_join(left: &Table, right: &Table, on: &AttrSet, sel: &JoinSel) -> Result<Table> {
    let (lcols, rcols) = validate_on(left, right, on)?;
    materialize_join_cols(left, right, on, &lcols, &rcols, sel)
}

/// [`materialize_join`] over pre-validated column indices.
pub(crate) fn materialize_join_cols(
    left: &Table,
    right: &Table,
    on: &AttrSet,
    lcols: &[usize],
    rcols: &[usize],
    sel: &JoinSel,
) -> Result<Table> {
    let (li, ri) = (&sel.left_rows, &sel.right_rows);

    let mut attrs = Vec::new();
    let mut columns = Vec::new();
    for (pos, id) in on.iter().enumerate() {
        let ty = left.schema().attributes()[lcols[pos]].ty;
        attrs.push(Attribute { id, ty });
        columns.push(coalesce_key_column(
            left.column(lcols[pos]),
            right.column(rcols[pos]),
            li,
            ri,
        )?);
    }
    for (c, a) in left.schema().attributes().iter().enumerate() {
        if on.contains(a.id) {
            continue;
        }
        attrs.push(*a);
        columns.push(left.column(c).gather_sel(li));
    }
    let taken: AttrSet = attrs.iter().map(|a| a.id).collect();
    for (c, a) in right.schema().attributes().iter().enumerate() {
        if taken.contains(a.id) {
            continue;
        }
        attrs.push(*a);
        columns.push(right.column(c).gather_sel(ri));
    }
    let name = format!("{}⋈{}", left.name(), right.name());
    Table::new(name, Schema::new(attrs)?, columns)
}

/// Late-materialization state of a join tree: one selection column per
/// participating base table, every output row mapping to one source row of
/// each (tree joins are inner, so no entry is ever [`NO_ROW`]).
///
/// The intermediate hook of [`join_tree_late`] receives this instead of a
/// materialized table; §3.2 re-sampling is [`TreeSel::retain`].
#[derive(Debug, Clone)]
pub struct TreeSel {
    /// Participating base-table indices (into the caller's slice), join order.
    tabs: Vec<usize>,
    /// `rows[k][out]` = source row in `tables[tabs[k]]` for output row `out`.
    rows: Vec<Vec<u32>>,
    len: usize,
}

impl TreeSel {
    /// Number of (virtual) output rows of the join so far.
    pub fn num_rows(&self) -> usize {
        self.len
    }

    /// `true` when the join so far is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Keep only the output rows in `keep` (ascending or not; indices may
    /// repeat) — the selection-level equivalent of `Table::gather`, used by
    /// §3.2 intermediate re-sampling.
    pub fn retain(&mut self, keep: &[u32]) {
        for col in &mut self.rows {
            *col = keep.iter().map(|&i| col[i as usize]).collect();
        }
        self.len = keep.len();
    }
}

/// One output column of the tree join: its attribute and the base-table
/// source it gathers from (`slot` indexes [`TreeSel::tabs`]).
struct OutCol {
    attr: Attribute,
    slot: usize,
    col: usize,
}

/// Join `tables` along tree `edges` with **late materialization**:
/// per-hop symbol-native selection joins composed into a [`TreeSel`], one
/// gather per output column at the end. `intermediate` is called after every
/// hop with the composed selection (the hook point §3.2 re-sampling uses).
/// Output is identical — schema, row order, values — to chaining
/// [`crate::join::hash_join`] hop by hop over the same inputs. Implemented as
/// the all-direct-hops drive of [`TreeJoin`].
pub fn join_tree_late(
    tables: &[&Table],
    edges: &[JoinEdge],
    mut intermediate: impl FnMut(TreeSel) -> TreeSel,
) -> Result<Table> {
    if tables.is_empty() {
        return Err(RelationError::InvalidJoin("no tables to join".into()));
    }
    if tables.len() == 1 {
        return Ok((*tables[0]).clone());
    }
    let mut tj = TreeJoin::new(tables, edges)?;
    while let Some(hop) = tj.next_hop()? {
        tj.advance(&hop)?;
        tj.map_sel(&mut intermediate);
    }
    tj.materialize()
}

/// Resolved description of one tree-join hop, produced by
/// [`TreeJoin::next_hop`] and consumed by exactly one `advance*` call.
pub struct HopPlan<'a> {
    /// Index (into the driver's `edges`) of the edge this hop consumes —
    /// stable across drives of the same tree, so callers can key per-hop
    /// caches on it.
    pub edge: usize,
    /// Index (into the driver's `tables`) of the base table this hop joins.
    pub right: usize,
    /// When every probe-side key column resolves to a single base table, its
    /// index into the driver's `tables` — the precondition for sourcing the
    /// hop from a cached [`PairSel`] over that table. `None` when the key
    /// spans base tables (only a direct probe is correct then).
    pub key_base: Option<usize>,
    /// The hop's join attribute set.
    pub on: &'a AttrSet,
    /// Which hop this plan was made for (guards against stale reuse).
    step: usize,
    /// Right-side key column indices.
    rcols: Vec<usize>,
    /// Probe-side key positions into the accumulated output columns.
    lpos: Vec<usize>,
}

/// Incremental driver of the late-materialization tree join: one hop at a
/// time, with the per-hop matches sourced either from a direct symbol-native
/// build + probe ([`TreeJoin::advance`]) or from a pre-built [`PairSel`] over
/// the probe-side base table ([`TreeJoin::advance_with_pair`]) — the two
/// produce bit-identical compositions, which is what lets the MCMC search
/// cache pair selections across proposals. [`join_tree_late`] is the
/// all-direct drive of this type; after each hop the caller may filter the
/// composed selection ([`TreeJoin::map_sel`] — §3.2 re-sampling), and
/// [`TreeJoin::materialize`] gathers the final table.
pub struct TreeJoin<'a> {
    tables: &'a [&'a Table],
    edges: &'a [JoinEdge],
    /// `(edge index, newly joined table)` consumption order, from
    /// `join::tree_join_plan`.
    plan: Vec<(usize, usize)>,
    /// Next plan entry to consume.
    step: usize,
    sel: TreeSel,
    cols: Vec<OutCol>,
    name: String,
}

impl<'a> TreeJoin<'a> {
    /// Start a tree join over at least two tables (single-table "joins" are
    /// the caller's early return — there is no hop to drive).
    pub fn new(tables: &'a [&'a Table], edges: &'a [JoinEdge]) -> Result<TreeJoin<'a>> {
        if tables.len() < 2 {
            return Err(RelationError::InvalidJoin(
                "tree join driver needs at least two tables".into(),
            ));
        }
        let (start, plan) = crate::join::tree_join_plan(tables.len(), edges)?;
        let sel = TreeSel {
            tabs: vec![start],
            rows: vec![(0..tables[start].num_rows() as u32).collect()],
            len: tables[start].num_rows(),
        };
        let cols: Vec<OutCol> = tables[start]
            .schema()
            .attributes()
            .iter()
            .enumerate()
            .map(|(c, a)| OutCol {
                attr: *a,
                slot: 0,
                col: c,
            })
            .collect();
        Ok(TreeJoin {
            tables,
            edges,
            plan,
            step: 0,
            sel,
            cols,
            name: tables[start].name().to_string(),
        })
    }

    /// Rows of the composed selection so far.
    pub fn num_rows(&self) -> usize {
        self.sel.num_rows()
    }

    /// Validate and resolve the next hop, or `None` when every edge has been
    /// consumed. The returned plan must be passed to the very next
    /// `advance`/`advance_with_pair` call.
    pub fn next_hop(&self) -> Result<Option<HopPlan<'a>>> {
        let Some(&(i, new_side)) = self.plan.get(self.step) else {
            return Ok(None);
        };
        let edge = &self.edges[i];
        let right = self.tables[new_side];

        // Resolve the join attributes on both sides (left = the accumulated
        // selection's output columns, right = the new base table), through
        // the same validators as the pair join.
        ensure_on_nonempty(&edge.on)?;
        let rcols = right
            .attr_indices(&edge.on)
            .map_err(|_| missing(&edge.on, right.name()))?;
        let lpos: Vec<usize> = edge
            .on
            .iter()
            .map(|id| {
                self.cols
                    .iter()
                    .position(|oc| oc.attr.id == id)
                    .ok_or_else(|| missing(&edge.on, &self.name))
            })
            .collect::<Result<_>>()?;
        for (pos, &rc) in lpos.iter().zip(&rcols) {
            check_join_types(self.cols[*pos].attr.ty, right.schema().attributes()[rc].ty)?;
        }
        let slot = self.cols[lpos[0]].slot;
        let key_base = lpos
            .iter()
            .all(|&p| self.cols[p].slot == slot)
            .then(|| self.sel.tabs[slot]);
        Ok(Some(HopPlan {
            edge: i,
            right: new_side,
            key_base,
            on: &edge.on,
            step: self.step,
            rcols,
            lpos,
        }))
    }

    /// Consume `hop` with a direct build + probe: build the symbol map on the
    /// new base table, probe the accumulated selection.
    pub fn advance(&mut self, hop: &HopPlan<'a>) -> Result<()> {
        self.check_step(hop)?;
        let right = self.tables[hop.right];
        let (map, _) = build_side(right, &hop.rcols);
        let key_slots: Vec<usize> = hop.lpos.iter().map(|&p| self.cols[p].slot).collect();
        let sources: Vec<KeySource<'_>> = hop
            .lpos
            .iter()
            .zip(&hop.rcols)
            .map(|(&p, &rc)| {
                probe_source_rows(
                    self.tables[self.sel.tabs[self.cols[p].slot]].column(self.cols[p].col),
                    right.column(rc),
                    Some(&self.sel.rows[self.cols[p].slot]),
                )
            })
            .collect();
        let sel = &self.sel;
        let mut li = Vec::new();
        let mut ri = Vec::new();
        let mut key = vec![0u64; sources.len()];
        'out: for out in 0..sel.len {
            for (pos, s) in sources.iter().enumerate() {
                let row = sel.rows[key_slots[pos]][out] as usize;
                if s.is_null(row) {
                    continue 'out;
                }
                match s.word(row) {
                    Some(w) => key[pos] = w,
                    None => continue 'out,
                }
            }
            if let Some(matches) = map.get(&key) {
                for &r in matches {
                    li.push(out as u32);
                    ri.push(r);
                }
            }
        }
        self.compose(hop, li, ri)
    }

    /// Consume `hop` by re-probing a pre-built [`PairSel`] between the
    /// probe-side base table (`hop.key_base`, which must be `Some`) and the
    /// new base table on `hop.on`: per accumulated row, the cached match
    /// list replaces the hash-map probe. Produces the identical composition
    /// to [`TreeJoin::advance`] — the cached lists are exactly what the
    /// direct probe would find per base row.
    pub fn advance_with_pair(&mut self, hop: &HopPlan<'a>, pair: &PairSel) -> Result<()> {
        self.check_step(hop)?;
        let Some(key_base) = hop.key_base else {
            return Err(RelationError::InvalidJoin(
                "hop key spans base tables; only a direct probe is correct".into(),
            ));
        };
        if pair.num_left() != self.tables[key_base].num_rows() {
            return Err(RelationError::Shape(format!(
                "pair selection covers {} base rows, probe table has {}",
                pair.num_left(),
                self.tables[key_base].num_rows()
            )));
        }
        let slot = self.cols[hop.lpos[0]].slot;
        let rows = &self.sel.rows[slot];
        let mut li = Vec::new();
        let mut ri = Vec::new();
        for (out, &row) in rows.iter().enumerate() {
            for &r in pair.matches_of(row) {
                li.push(out as u32);
                ri.push(r);
            }
        }
        self.compose(hop, li, ri)
    }

    /// Filter/replace the composed selection (the §3.2 re-sampling hook
    /// point; called between hops and after the last one).
    pub fn map_sel(&mut self, f: impl FnOnce(TreeSel) -> TreeSel) {
        let sel = std::mem::replace(
            &mut self.sel,
            TreeSel {
                tabs: Vec::new(),
                rows: Vec::new(),
                len: 0,
            },
        );
        self.sel = f(sel);
    }

    fn check_step(&self, hop: &HopPlan<'a>) -> Result<()> {
        if hop.step != self.step {
            return Err(RelationError::Shape(format!(
                "stale hop plan: made for hop {}, driver is at hop {}",
                hop.step, self.step
            )));
        }
        Ok(())
    }

    /// Fold this hop's `(out, right-row)` matches into the accumulated
    /// selection and advance the output schema — shared by both match
    /// sources, so the composition is bit-identical regardless of origin.
    fn compose(&mut self, hop: &HopPlan<'a>, li: Vec<u32>, ri: Vec<u32>) -> Result<()> {
        let right = self.tables[hop.right];
        // Selection columns index output rows as u32 (NO_ROW reserved). A
        // per-hop materializing join would OOM long before this; the selection costs only a
        // few bytes per row, so an over-wide fan-out must fail loudly instead
        // of wrapping — re-sample earlier (lower η) or join fewer hops.
        if li.len() >= NO_ROW as usize {
            return Err(RelationError::Shape(format!(
                "join fan-out produced {} intermediate rows; the selection \
                 pipeline supports at most {}",
                li.len(),
                NO_ROW - 1
            )));
        }

        // Compose: route every existing selection column through `li`, then
        // adopt the new table's matches as a fresh column.
        let sel = &mut self.sel;
        for col in &mut sel.rows {
            *col = li.iter().map(|&o| col[o as usize]).collect();
        }
        sel.rows.push(ri);
        sel.tabs.push(hop.right);
        sel.len = li.len();

        // Output schema of this hop: the join attributes first (left copy),
        // then the previous columns, then the new table's remainder — the
        // `hash_join` convention, so the chained schema is reproduced exactly.
        let cols = &self.cols;
        let mut next_cols: Vec<OutCol> = hop
            .lpos
            .iter()
            .map(|&p| OutCol {
                attr: cols[p].attr,
                slot: cols[p].slot,
                col: cols[p].col,
            })
            .collect();
        for (k, oc) in cols.iter().enumerate() {
            if hop.lpos.contains(&k) {
                continue;
            }
            next_cols.push(OutCol {
                attr: oc.attr,
                slot: oc.slot,
                col: oc.col,
            });
        }
        let taken: AttrSet = next_cols.iter().map(|oc| oc.attr.id).collect();
        for (c, a) in right.schema().attributes().iter().enumerate() {
            if taken.contains(a.id) {
                continue;
            }
            next_cols.push(OutCol {
                attr: *a,
                slot: sel.tabs.len() - 1,
                col: c,
            });
        }
        self.cols = next_cols;
        self.name = format!("{}⋈{}", self.name, right.name());
        self.step += 1;
        Ok(())
    }

    /// Materialize once: one gather per output column, straight off the base
    /// tables.
    pub fn materialize(self) -> Result<Table> {
        let (sel, cols) = (&self.sel, &self.cols);
        let columns: Vec<Column> = cols
            .iter()
            .map(|oc| {
                self.tables[sel.tabs[oc.slot]]
                    .column(oc.col)
                    .gather(&sel.rows[oc.slot])
            })
            .collect();
        let attrs: Vec<Attribute> = cols.iter().map(|oc| oc.attr).collect();
        Table::new(self.name, Schema::new(attrs)?, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::InternerRegistry;
    use crate::join::hash_join;
    use crate::value::ValueType;

    fn rows_of(t: &Table) -> Vec<Vec<Value>> {
        (0..t.num_rows()).map(|r| t.row(r)).collect()
    }

    fn assert_tables_equal(a: &Table, b: &Table) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.schema().attributes(), b.schema().attributes());
        assert_eq!(a.num_rows(), b.num_rows());
        assert_eq!(rows_of(a), rows_of(b));
    }

    fn chain() -> (Table, Table, Table) {
        let a = Table::from_rows(
            "A",
            &[("sel_x", ValueType::Int), ("sel_k", ValueType::Str)],
            (0..40)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        if i % 7 == 0 {
                            Value::Null
                        } else {
                            Value::str(format!("k{}", i % 5))
                        },
                    ]
                })
                .collect(),
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[("sel_k", ValueType::Str), ("sel_m", ValueType::Int)],
            (0..20)
                .map(|i| vec![Value::str(format!("k{}", i % 8)), Value::Int(i * 3)])
                .collect(),
        )
        .unwrap();
        let c = Table::from_rows(
            "C",
            &[("sel_m", ValueType::Int), ("sel_w", ValueType::Float)],
            (0..30)
                .map(|i| vec![Value::Int(i % 10 * 3), Value::Float(i as f64 / 2.0)])
                .collect(),
        )
        .unwrap();
        (a, b, c)
    }

    fn chain_edges() -> Vec<JoinEdge> {
        vec![
            JoinEdge {
                a: 0,
                b: 1,
                on: AttrSet::from_names(["sel_k"]),
            },
            JoinEdge {
                a: 1,
                b: 2,
                on: AttrSet::from_names(["sel_m"]),
            },
        ]
    }

    #[test]
    fn join_sel_materializes_to_hash_join() {
        let (a, b, _) = chain();
        let on = AttrSet::from_names(["sel_k"]);
        for kind in [JoinKind::Inner, JoinKind::FullOuter] {
            let sel = join_sel(&a, &b, &on, kind).unwrap();
            let mat = materialize_join(&a, &b, &on, &sel).unwrap();
            let reference = hash_join(&a, &b, &on, kind).unwrap();
            assert_tables_equal(&mat, &reference);
        }
    }

    #[test]
    fn patched_pair_sel_matches_fresh_rebuild() {
        use crate::delta::TableDelta;
        let (a, b, _) = chain();
        let on = AttrSet::from_names(["sel_k"]);
        // Delete a NULL-keyed and two matched rows, insert a survivor dup, a
        // NULL key, and a brand-new symbol (untranslatable before the patch).
        let delta = TableDelta::new(
            vec![
                vec![Value::Int(100), Value::str("k1")],
                vec![Value::Int(101), Value::Null],
                vec![Value::Int(102), Value::str("fresh_sym")],
            ],
            vec![0, 3, 11],
        );

        // Probe-side delta: patch (A ⋈ B) for a change to A.
        let a2 = a.apply_delta(&delta).unwrap();
        let kept = delta.kept(a.num_rows()).unwrap();
        let cached = pair_sel(&a, &b, &on).unwrap();
        let patched = cached.patch_probe(&kept, &a2, &b, &on).unwrap();
        let fresh = pair_sel(&a2, &b, &on).unwrap();
        assert_eq!(patched.starts, fresh.starts);
        assert_eq!(patched.matches, fresh.matches);

        // Build-side delta: patch (B ⋈ A) for the same change to A.
        let remap = delta.remap(a.num_rows()).unwrap();
        let cached = pair_sel(&b, &a, &on).unwrap();
        let patched = cached
            .patch_build(&remap, &b, &a2, kept.len(), &on)
            .unwrap();
        let fresh = pair_sel(&b, &a2, &on).unwrap();
        assert_eq!(patched.starts, fresh.starts);
        assert_eq!(patched.matches, fresh.matches);
    }

    #[test]
    fn patched_pair_sel_matches_on_shared_dictionaries() {
        use crate::delta::TableDelta;
        let reg = InternerRegistry::new();
        let (a, b, _) = chain();
        let (a, b) = (a.intern_into(&reg), b.intern_into(&reg));
        let on = AttrSet::from_names(["sel_k"]);
        let delta = TableDelta::new(vec![vec![Value::str("k6"), Value::Int(999)]], vec![2, 4, 5]);
        let b2 = b.apply_delta(&delta).unwrap();
        let kept = delta.kept(b.num_rows()).unwrap();
        let remap = delta.remap(b.num_rows()).unwrap();
        let cached = pair_sel(&a, &b, &on).unwrap();
        let patched = cached
            .patch_build(&remap, &a, &b2, kept.len(), &on)
            .unwrap();
        let fresh = pair_sel(&a, &b2, &on).unwrap();
        assert_eq!(patched.starts, fresh.starts);
        assert_eq!(patched.matches, fresh.matches);

        let cached = pair_sel(&b, &a, &on).unwrap();
        let patched = cached.patch_probe(&kept, &b2, &a, &on).unwrap();
        let fresh = pair_sel(&b2, &a, &on).unwrap();
        assert_eq!(patched.starts, fresh.starts);
        assert_eq!(patched.matches, fresh.matches);
    }

    #[test]
    fn tree_errors_mirror_join_tree() {
        let (a, b, c) = chain();
        // Wrong edge count.
        assert!(join_tree_late(&[&a, &b, &c], &chain_edges()[..1], |s| s).is_err());
        // Missing attribute on the accumulated side.
        let bad = vec![
            JoinEdge {
                a: 0,
                b: 1,
                on: AttrSet::from_names(["sel_k"]),
            },
            JoinEdge {
                a: 1,
                b: 2,
                on: AttrSet::from_names(["sel_absent"]),
            },
        ];
        assert!(join_tree_late(&[&a, &b, &c], &bad, |s| s).is_err());
        // Single table: a plain clone, no hook call.
        let solo = join_tree_late(&[&a], &[], |s| s).unwrap();
        assert_eq!(rows_of(&solo), rows_of(&a));
    }
}
