//! The quality kernel: AFD discovery and Definition 2.2/2.3 masks on shared
//! dense group ids.
//!
//! Every quantity of the quality layer is a function of two row labelings:
//! the equivalence classes of `π_X` and the values of one RHS attribute `A`.
//! The `g₃` error TANE prunes on counts, per `π_X` class, the rows outside
//! the largest `A`-sub-class; the correct-row mask `C(D, X→A)` keeps exactly
//! that sub-class. So the kernel
//!
//! * encodes each attribute's values as dense group ids once per table
//!   ([`dance_relation::group::column_codes`], NULL is a value of its own);
//! * counting-sorts an LHS into its multi-row classes ([`Classes`]), refining
//!   larger LHSs from smaller ones by folding `(class, A id)` pairs over the
//!   class support alone ([`dance_relation::group::fold_codes`]);
//! * gets `g₃(X→A)` from one pass over `X`'s support with a reused dense
//!   count array and touched list, which also leaves each class's
//!   winning sub-class behind — the largest, ties to the one holding the
//!   smallest row id (Definition 2.2 breaks ties randomly; this rule keeps
//!   quality reproducible);
//! * clears the losing rows of that pass in the joint mask, skipping exact
//!   dependencies (`g₃ = 0`), whose mask is all-true.
//!
//! [`discover`] runs the levelwise search behind
//! [`crate::tane::discover_afds`] and [`crate::joint::instance_set_quality`];
//! [`joint_mask`] backs [`crate::fd::correct_rows`] and
//! [`crate::joint::joint_correct_rows`]. The property tests pin this kernel
//! against a search written on the explicit stripped partitions of
//! Definition 2.1.

use crate::fd::Fd;
use crate::tane::{DiscoveredFd, TaneConfig};
use dance_relation::group::{column_codes_with, fold_codes_with};
use dance_relation::{AttrId, AttrSet, Executor, FxHashSet, Result, Table};

/// Multi-row classes of a partition `π_X` (singletons stripped) in CSR form:
/// class `c` is `rows[bounds[c]..bounds[c + 1]]`, ascending within a class.
/// The order of the classes themselves is unspecified — neither `g₃` nor
/// the masks depend on it.
struct Classes {
    rows: Vec<u32>,
    bounds: Vec<u32>,
}

impl Classes {
    /// Counting-sort positions `0..ids.len()` by their dense id, keeping the
    /// groups of ≥ 2 positions; `row_of` maps a position to its row. The
    /// sort is stable, so ascending positions give ascending rows.
    fn group(ids: &[u32], num_groups: usize, row_of: impl Fn(usize) -> u32) -> Classes {
        let mut slot = vec![0u32; num_groups];
        for &g in ids {
            slot[g as usize] += 1;
        }
        let mut bounds = vec![0u32];
        let mut total = 0u32;
        for s in &mut slot {
            if *s >= 2 {
                let start = total;
                total += *s;
                bounds.push(total);
                *s = start;
            } else {
                *s = u32::MAX;
            }
        }
        let mut rows = vec![0u32; total as usize];
        for (k, &g) in ids.iter().enumerate() {
            let s = &mut slot[g as usize];
            if *s != u32::MAX {
                rows[*s as usize] = row_of(k);
                *s += 1;
            }
        }
        Classes { rows, bounds }
    }

    /// `π_{X∪A}` from `π_X = self` and `A`'s ids: only support rows can share
    /// a class of the product, so `(class, A id)` pairs are folded over them
    /// alone.
    fn refine(&self, exec: &Executor, a: &[u32]) -> Classes {
        let mut ids: Vec<u32> = Vec::with_capacity(self.rows.len());
        for (c, class) in self.iter().enumerate() {
            ids.extend(std::iter::repeat_n(c as u32, class.len()));
        }
        let codes: Vec<u32> = self.rows.iter().map(|&r| a[r as usize]).collect();
        let mut num = self.len() as u32;
        fold_codes_with(exec, &mut ids, &mut num, &codes);
        Classes::group(&ids, num as usize, |k| self.rows[k])
    }

    /// Number of multi-row classes.
    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Rows covered by multi-row classes (`‖π‖`); 0 iff `X` is a superkey.
    fn support(&self) -> usize {
        self.rows.len()
    }

    fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.bounds
            .windows(2)
            .map(|w| &self.rows[w[0] as usize..w[1] as usize])
    }
}

/// Dense ids of one table's attributes, each encoded at most once, plus the
/// counting scratch every `(X, A)` pair shares.
struct Kernel<'t> {
    t: &'t Table,
    exec: Executor,
    /// Per schema column: `(ids, number of distinct ids)` once encoded.
    ids: Vec<Option<(Vec<u32>, usize)>>,
    /// Rows per `A` id within the current class (zero outside it).
    counts: Vec<u32>,
    /// `A` ids seen in the current class, in first-occurrence order.
    touched: Vec<u32>,
    /// The winning `A` id of every class of the last [`Kernel::violations`].
    winners: Vec<u32>,
}

impl<'t> Kernel<'t> {
    fn new(t: &'t Table) -> Kernel<'t> {
        Kernel {
            t,
            exec: Executor::global(),
            ids: vec![None; t.schema().len()],
            counts: Vec::new(),
            touched: Vec::new(),
            winners: Vec::new(),
        }
    }

    /// Schema column of `a`, encoding its ids on first use.
    fn load(&mut self, a: AttrId) -> Result<usize> {
        let col = self.t.schema().require(a)?;
        if self.ids[col].is_none() {
            let (codes, num) = column_codes_with(&self.exec, self.t.column(col));
            self.ids[col] = Some((codes, num as usize));
        }
        Ok(col)
    }

    /// Ids and id count of an already [`Kernel::load`]ed column.
    fn ids(&self, col: usize) -> (&[u32], usize) {
        let (ids, num) = self.ids[col].as_ref().expect("column loaded");
        (ids, *num)
    }

    /// The classes of `π_X` for an arbitrary LHS (empty: one class).
    fn classes(&mut self, lhs: &AttrSet) -> Result<Classes> {
        let Some((&first, rest)) = lhs.as_slice().split_first() else {
            let n = self.t.num_rows();
            return Ok(Classes::group(&vec![0; n], 1, |r| r as u32));
        };
        let col = self.load(first)?;
        let (ids, num) = self.ids(col);
        let mut classes = Classes::group(ids, num, |r| r as u32);
        for &a in rest {
            let col = self.load(a)?;
            classes = classes.refine(&self.exec, self.ids(col).0);
        }
        Ok(classes)
    }

    /// Rows `X→A` must delete given `π_X = classes` (`g₃ · n`), recording
    /// each class's winning sub-class. Rows are scanned in ascending order,
    /// so `touched` lists sub-classes by their smallest row and a strict `>`
    /// keeps the earliest of equally large ones.
    fn violations(&mut self, classes: &Classes, col: usize) -> usize {
        let (a, num) = self.ids[col].as_ref().expect("column loaded");
        if self.counts.len() < *num {
            self.counts.resize(*num, 0);
        }
        self.winners.clear();
        let mut kept = 0usize;
        for class in classes.iter() {
            for &r in class {
                let g = a[r as usize];
                let c = &mut self.counts[g as usize];
                if *c == 0 {
                    self.touched.push(g);
                }
                *c += 1;
            }
            let (mut winner, mut best) = (0u32, 0u32);
            for &g in &self.touched {
                let c = std::mem::take(&mut self.counts[g as usize]);
                if c > best {
                    (winner, best) = (g, c);
                }
            }
            self.touched.clear();
            self.winners.push(winner);
            kept += best as usize;
        }
        classes.support() - kept
    }

    /// Clear every row of `classes` outside the winners of the last
    /// [`Kernel::violations`] over the same `(classes, col)`.
    fn clear_losers(&self, classes: &Classes, col: usize, mask: &mut [bool]) {
        let a = self.ids(col).0;
        for (class, &w) in classes.iter().zip(&self.winners) {
            for &r in class {
                if a[r as usize] != w {
                    mask[r as usize] = false;
                }
            }
        }
    }
}

/// Mask of rows correct under every one of `fds` (`C(J, F)` membership).
///
/// Attributes the table lacks are an error, as for any FD quality.
pub(crate) fn joint_mask(t: &Table, fds: &[Fd]) -> Result<Vec<bool>> {
    let mut k = Kernel::new(t);
    let mut mask = vec![true; t.num_rows()];
    for fd in fds {
        let classes = k.classes(&fd.lhs)?;
        let col = k.load(fd.rhs)?;
        if k.violations(&classes, col) > 0 {
            k.clear_losers(&classes, col, &mut mask);
        }
    }
    Ok(mask)
}

/// TANE-style levelwise discovery of the minimal AFDs of `t` under `cfg`
/// (see [`crate::tane`] for the semantics). With a `mask`, every discovered
/// AFD also clears the rows its correct-record set drops, so the mask ends
/// as `C(t, F)` for the discovered `F` (Definition 2.3) without regrouping
/// anything.
///
/// Output is sorted by (LHS size, LHS ids, RHS id).
pub(crate) fn discover(
    t: &Table,
    cfg: &TaneConfig,
    mut mask: Option<&mut [bool]>,
) -> Result<Vec<DiscoveredFd>> {
    let attrs: Vec<AttrId> = t
        .schema()
        .attributes()
        .iter()
        .take(cfg.max_attrs)
        .map(|a| a.id)
        .collect();
    let n = t.num_rows();
    if attrs.len() < 2 || n == 0 || cfg.max_lhs == 0 {
        return Ok(Vec::new());
    }

    let mut k = Kernel::new(t);
    let mut cols = Vec::with_capacity(attrs.len());
    for &a in &attrs {
        cols.push(k.load(a)?);
    }

    let mut discovered: Vec<DiscoveredFd> = Vec::new();
    let mut holds: FxHashSet<(AttrSet, AttrId)> = FxHashSet::default();

    // Current level: candidate LHSs with their classes.
    let mut level: Vec<(AttrSet, Classes)> = attrs
        .iter()
        .zip(&cols)
        .map(|(&a, &col)| {
            let (ids, num) = k.ids(col);
            (
                AttrSet::singleton(a),
                Classes::group(ids, num, |r| r as u32),
            )
        })
        .collect();

    for lhs_size in 1..=cfg.max_lhs {
        let mut next: Vec<(AttrSet, Classes)> = Vec::new();
        for (x, cx) in &level {
            // A superkey LHS has no multi-row class: every FD holds exactly.
            let superkey = cx.support() == 0;
            for (&a, &col) in attrs.iter().zip(&cols) {
                if x.contains(a) || !minimal(&holds, x, a) {
                    continue;
                }
                let (error, v) = if superkey {
                    (0.0, 0)
                } else {
                    let v = k.violations(cx, col);
                    (1.0 - (n - v) as f64 / n as f64, v)
                };
                if error <= cfg.error_threshold + 1e-12 {
                    if let (Some(mask), true) = (mask.as_deref_mut(), v > 0) {
                        k.clear_losers(cx, col, mask);
                    }
                    holds.insert((x.clone(), a));
                    discovered.push(DiscoveredFd {
                        fd: Fd {
                            lhs: x.clone(),
                            rhs: a,
                        },
                        error,
                    });
                }
            }
            // Extend: X ∪ {a} for a beyond max(X) (each set generated once);
            // superkeys are never extended (supersets are non-minimal keys).
            if lhs_size < cfg.max_lhs && !superkey {
                let max_id = x.as_slice().last().copied().expect("non-empty LHS");
                for (&a, &col) in attrs.iter().zip(&cols) {
                    if a <= max_id || x.contains(a) {
                        continue;
                    }
                    let mut xa = x.clone();
                    xa.insert(a);
                    next.push((xa, cx.refine(&k.exec, k.ids(col).0)));
                }
            }
        }
        level = next;
        if level.is_empty() {
            break;
        }
    }

    discovered.sort_by(|a, b| {
        (a.fd.lhs.len(), a.fd.lhs.as_slice(), a.fd.rhs).cmp(&(
            b.fd.lhs.len(),
            b.fd.lhs.as_slice(),
            b.fd.rhs,
        ))
    });
    Ok(discovered)
}

/// `true` iff no proper subset of `x` is already known to determine `a`.
fn minimal(holds: &FxHashSet<(AttrSet, AttrId)>, x: &AttrSet, a: AttrId) -> bool {
    if x.len() <= 1 {
        return true;
    }
    // All proper non-empty subsets; |x| is ≤ max_lhs (small).
    x.nonempty_subsets()
        .iter()
        .all(|sub| sub.len() == x.len() || !holds.contains(&(sub.clone(), a)))
}
