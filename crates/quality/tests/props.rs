//! Property tests of partitions, FDs and quality.
//!
//! The production quality kernel (AFD discovery, correct-row masks and the
//! Definition 2.3 quality) is pinned bit for bit against [`reference`]: the
//! same levelwise search and masks written directly on the oracle's stripped
//! [`Partition`]s, products and per-class hash maps.

use dance_oracle::Partition;
use dance_quality::tane::DiscoveredFd;
use dance_quality::{
    correct_rows, discover_afds, instance_set_quality, joint_correct_rows, quality, repair, Fd,
    TaneConfig,
};
use dance_relation::hash::stable_hash64;
use dance_relation::{AttrSet, InternerRegistry, Table, Value, ValueType};
use proptest::prelude::*;

/// The partition-based implementation of Definitions 2.2/2.3 and TANE, kept
/// as the executable reference for the dense-id kernel.
mod reference {
    use dance_oracle::{Partition, SINGLETON};
    use dance_quality::tane::{DiscoveredFd, TaneConfig};
    use dance_quality::Fd;
    use dance_relation::{AttrId, AttrSet, FxHashMap, FxHashSet, Table};

    /// Levelwise search over LHS partitions built by products of singleton
    /// partitions, `g₃` from [`Partition::g3_error`].
    pub fn discover_afds(t: &Table, cfg: &TaneConfig) -> Vec<DiscoveredFd> {
        let attrs: Vec<AttrId> = t
            .schema()
            .attributes()
            .iter()
            .take(cfg.max_attrs)
            .map(|a| a.id)
            .collect();
        if attrs.len() < 2 || t.num_rows() == 0 || cfg.max_lhs == 0 {
            return Vec::new();
        }
        let mut singles: FxHashMap<AttrId, Partition> = FxHashMap::default();
        for &a in &attrs {
            singles.insert(a, Partition::by(t, &AttrSet::singleton(a)).unwrap());
        }
        let mut discovered: Vec<DiscoveredFd> = Vec::new();
        let mut holds: FxHashSet<(AttrSet, AttrId)> = FxHashSet::default();
        let mut level: Vec<(AttrSet, Partition)> = attrs
            .iter()
            .map(|&a| (AttrSet::singleton(a), singles[&a].clone()))
            .collect();
        for lhs_size in 1..=cfg.max_lhs {
            let mut next: Vec<(AttrSet, Partition)> = Vec::new();
            for (x, px) in &level {
                let superkey = px.support() == 0;
                for &a in &attrs {
                    if x.contains(a) {
                        continue;
                    }
                    let minimal = x.len() <= 1
                        || x.nonempty_subsets()
                            .iter()
                            .all(|sub| sub.len() == x.len() || !holds.contains(&(sub.clone(), a)));
                    if !minimal {
                        continue;
                    }
                    let error = if superkey {
                        0.0
                    } else {
                        px.g3_error(&px.product(&singles[&a]))
                    };
                    if error <= cfg.error_threshold + 1e-12 {
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
                if lhs_size < cfg.max_lhs && !superkey {
                    let max_id = *x.as_slice().last().unwrap();
                    for &a in &attrs {
                        if a <= max_id || x.contains(a) {
                            continue;
                        }
                        let mut xa = x.clone();
                        xa.insert(a);
                        next.push((xa, px.product(&singles[&a])));
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
        discovered
    }

    /// `C(D, X→A)`: per `π_X` class, the largest `π_{X∪A}` sub-class (ties to
    /// the smallest first row) survives; sub-classes tallied in a hash map.
    pub fn correct_rows(t: &Table, fd: &Fd) -> Vec<bool> {
        let px = Partition::by(t, &fd.lhs).unwrap();
        let pxa = px.product(&Partition::by(t, &AttrSet::singleton(fd.rhs)).unwrap());
        let prod_map = pxa.row_class();
        let mut mask = vec![true; t.num_rows()];
        let mut counts: FxHashMap<u32, (usize, u32)> = FxHashMap::default();
        for class in px.classes() {
            counts.clear();
            // (size, first row, pseudo class id); singletons get unique ids.
            let mut best: Option<(usize, u32, u32)> = None;
            let mut pick = |cand: (usize, u32, u32)| {
                best = match best {
                    Some(b) if !(cand.0 > b.0 || (cand.0 == b.0 && cand.1 < b.1)) => Some(b),
                    _ => Some(cand),
                };
            };
            for &r in class {
                let pc = prod_map[r as usize];
                if pc == SINGLETON {
                    pick((1, r, SINGLETON - 1 - r));
                } else {
                    let e = counts.entry(pc).or_insert((0, r));
                    e.0 += 1;
                    e.1 = e.1.min(r);
                }
            }
            for (&pc, &(size, first)) in counts.iter() {
                pick((size, first, pc));
            }
            let (_, _, winner) = best.unwrap();
            for &r in class {
                let pc = prod_map[r as usize];
                let id = if pc == SINGLETON {
                    SINGLETON - 1 - r
                } else {
                    pc
                };
                if id != winner {
                    mask[r as usize] = false;
                }
            }
        }
        mask
    }

    /// `C(J, F)`: the intersection of the per-FD masks.
    pub fn joint_correct_rows(t: &Table, fds: &[Fd]) -> Vec<bool> {
        let mut mask = vec![true; t.num_rows()];
        for fd in fds {
            for (acc, b) in mask.iter_mut().zip(correct_rows(t, fd)) {
                *acc &= b;
            }
        }
        mask
    }

    /// Definition 2.3: discover, then intersect the masks of every AFD.
    pub fn instance_set_quality(t: &Table, cfg: &TaneConfig) -> f64 {
        if t.num_rows() == 0 {
            return 1.0;
        }
        let fds: Vec<Fd> = discover_afds(t, cfg).into_iter().map(|d| d.fd).collect();
        let mask = joint_correct_rows(t, &fds);
        mask.iter().filter(|&&b| b).count() as f64 / t.num_rows() as f64
    }
}

/// A typed table from `(columns, rows, seed)`: every column draws one kind —
/// low/mid-cardinality Int or Str, a superkey, or all-NULL — and a NULL
/// share; column names are permuted so schema order and attribute-id order
/// disagree. Odd seeds build the Str columns against a registry whose shared
/// dictionaries are much larger than the table (the hashed-code path).
fn typed_table(cols: usize, n: usize, seed: u64) -> Table {
    const NAMES: [&str; 8] = [
        "kq_a", "kq_b", "kq_c", "kq_d", "kq_e", "kq_f", "kq_g", "kq_h",
    ];
    let mut order: Vec<usize> = (0..NAMES.len()).collect();
    order.sort_by_key(|&i| stable_hash64(seed, &(i as u64, "order")));
    let kinds: Vec<u64> = (0..cols)
        .map(|c| stable_hash64(seed, &(c as u64, "kind")) % 6)
        .collect();
    let schema: Vec<(&str, ValueType)> = (0..cols)
        .map(|c| {
            let ty = if matches!(kinds[c], 2 | 3) {
                ValueType::Str
            } else {
                ValueType::Int
            };
            (NAMES[order[c]], ty)
        })
        .collect();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|r| {
            (0..cols)
                .map(|c| {
                    let h = stable_hash64(seed, &(r as u64, c as u64));
                    let null_pct = stable_hash64(seed, &(c as u64, "null")) % 3 * 15;
                    if kinds[c] == 5 || (kinds[c] != 4 && h % 100 < null_pct) {
                        return Value::Null;
                    }
                    let v = (h >> 8) as i64;
                    match kinds[c] {
                        0 => Value::Int(v % 3),
                        1 => Value::Int(v % 17),
                        2 => Value::str(format!("s{}", v % 4)),
                        3 => Value::str(format!("s{}", v % 23)),
                        _ => Value::Int(r as i64 * 7 - 50),
                    }
                })
                .collect()
        })
        .collect();
    if seed.is_multiple_of(2) {
        return Table::from_rows("kq", &schema, rows).unwrap();
    }
    let reg = InternerRegistry::new();
    let filler: Vec<Vec<Value>> = (0..600)
        .map(|i| {
            schema
                .iter()
                .map(|&(_, ty)| match ty {
                    ValueType::Str => Value::str(format!("fill{i}")),
                    _ => Value::Null,
                })
                .collect()
        })
        .collect();
    Table::from_rows_interned(&reg, "kq_fill", &schema, filler).unwrap();
    Table::from_rows_interned(&reg, "kq", &schema, rows).unwrap()
}

fn arb_typed_table() -> impl Strategy<Value = Table> {
    (3usize..9, 0usize..120, 0u64..1_000_000).prop_map(|(cols, n, seed)| typed_table(cols, n, seed))
}

/// `(LHS, RHS, error bits)` of a discovery result.
fn afd_bits(found: &[DiscoveredFd]) -> Vec<(Vec<u32>, u32, u64)> {
    found
        .iter()
        .map(|d| {
            (
                d.fd.lhs.iter().map(|a| a.0).collect(),
                d.fd.rhs.0,
                d.error.to_bits(),
            )
        })
        .collect()
}

fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..8, 1usize..6, 1usize..60, 0u64..500).prop_map(|(kx, ky, n, seed)| {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let h = dance_relation::hash::stable_hash64(seed, &(i as u64));
                vec![
                    Value::Int((h % kx as u64) as i64),
                    Value::Int(((h >> 16) % ky as u64) as i64),
                ]
            })
            .collect();
        Table::from_rows(
            "pq",
            &[("pq_x", ValueType::Int), ("pq_y", ValueType::Int)],
            rows,
        )
        .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Q ∈ \[0, 1\]; Q = 1 − g₃ via partitions; cleaning achieves Q = 1 and is
    /// idempotent.
    #[test]
    fn quality_laws(t in arb_table()) {
        let fd = Fd::new(["pq_x"], "pq_y");
        let q = quality(&t, &fd).unwrap();
        prop_assert!((0.0..=1.0).contains(&q));

        let px = Partition::by(&t, &AttrSet::from_names(["pq_x"])).unwrap();
        let pxy = Partition::by(&t, &AttrSet::from_names(["pq_x", "pq_y"])).unwrap();
        prop_assert!((q - (1.0 - px.g3_error(&pxy))).abs() < 1e-9, "Q = 1 − g₃");

        let cleaned = repair::clean(&t, std::slice::from_ref(&fd)).unwrap();
        prop_assert_eq!(quality(&cleaned, &fd).unwrap(), 1.0);
        let twice = repair::clean(&cleaned, std::slice::from_ref(&fd)).unwrap();
        prop_assert_eq!(twice.num_rows(), cleaned.num_rows());
    }

    /// The correct-row mask keeps, per X-class, exactly one Y-sub-class.
    #[test]
    fn correct_rows_pick_one_subclass_per_class(t in arb_table()) {
        prop_assume!(t.num_rows() > 0);
        let fd = Fd::new(["pq_x"], "pq_y");
        let mask = correct_rows(&t, &fd).unwrap();
        let groups = dance_oracle::group_rows(&t, &AttrSet::from_names(["pq_x"])).unwrap();
        for rows in groups.values() {
            let kept: Vec<u32> = rows.iter().copied().filter(|&r| mask[r as usize]).collect();
            prop_assert!(!kept.is_empty(), "each class keeps at least one row");
            // All kept rows share one Y value.
            let y0 = t.value_by_attr(kept[0] as usize, dance_relation::attr("pq_y")).unwrap();
            for &r in &kept {
                prop_assert_eq!(
                    t.value_by_attr(r as usize, dance_relation::attr("pq_y")).unwrap(),
                    y0.clone()
                );
            }
        }
    }

    /// Partition product is the partition of the union attribute set.
    #[test]
    fn product_law(t in arb_table()) {
        let px = Partition::by(&t, &AttrSet::from_names(["pq_x"])).unwrap();
        let py = Partition::by(&t, &AttrSet::from_names(["pq_y"])).unwrap();
        let pxy = Partition::by(&t, &AttrSet::from_names(["pq_x", "pq_y"])).unwrap();
        let prod = px.product(&py);
        prop_assert_eq!(prod.classes(), pxy.classes());
        prop_assert!(pxy.refines(&px));
        prop_assert!(pxy.refines(&py));
    }

    /// TANE reports only FDs meeting the threshold, with accurate errors.
    #[test]
    fn tane_respects_threshold(t in arb_table(), theta in 0.0f64..0.5) {
        let cfg = TaneConfig { error_threshold: theta, max_lhs: 1, max_attrs: 4 };
        for d in discover_afds(&t, &cfg).unwrap() {
            prop_assert!(d.error <= theta + 1e-9);
            let q = quality(&t, &d.fd).unwrap();
            prop_assert!((q - (1.0 - d.error)).abs() < 1e-9);
        }
    }

    /// The dense-id kernel reproduces the partition reference bit for bit:
    /// the AFD list with its `g₃` bits, the quality of Definition 2.3, and
    /// the per-FD and joint correct-row masks — at every `max_lhs` in 1..=3,
    /// θ ∈ {0, 0.1, 0.35}, and `max_attrs` below, at and above the column
    /// count.
    #[test]
    fn kernel_matches_partition_reference(t in arb_typed_table(), pick in 0u64..1_000_000) {
        let cols = t.schema().len();
        let ids: Vec<_> = t.schema().attributes().iter().map(|a| a.id).collect();
        for max_lhs in 1..=3usize {
            for theta in [0.0, 0.1, 0.35] {
                let below = 1 + (pick as usize + max_lhs) % (cols - 1);
                for max_attrs in [below, cols, 24] {
                    let cfg = TaneConfig { error_threshold: theta, max_lhs, max_attrs };
                    let found = discover_afds(&t, &cfg).unwrap();
                    let expect = reference::discover_afds(&t, &cfg);
                    prop_assert_eq!(afd_bits(&found), afd_bits(&expect), "cfg {:?}", cfg);
                    let q = instance_set_quality(&t, &cfg).unwrap();
                    let q_ref = reference::instance_set_quality(&t, &cfg);
                    prop_assert_eq!(q.to_bits(), q_ref.to_bits(), "cfg {:?}", cfg);
                    let fds: Vec<Fd> = found.into_iter().map(|d| d.fd).collect();
                    prop_assert_eq!(
                        joint_correct_rows(&t, &fds).unwrap(),
                        reference::joint_correct_rows(&t, &fds)
                    );
                }
            }
        }
        // Arbitrary FDs, beyond what discovery reports: LHSs of 0..=3
        // attributes (the RHS may sit inside its own LHS).
        let fds: Vec<Fd> = (0..6u64)
            .map(|i| {
                let h = stable_hash64(pick, &i);
                let lhs_len = (h % 4) as usize;
                let lhs = AttrSet::from_ids(
                    (0..lhs_len).map(|j| ids[(h >> (8 + 4 * j)) as usize % cols]),
                );
                Fd { lhs, rhs: ids[(h >> 40) as usize % cols] }
            })
            .collect();
        for fd in &fds {
            prop_assert_eq!(correct_rows(&t, fd).unwrap(), reference::correct_rows(&t, fd), "{}", fd);
        }
        prop_assert_eq!(
            joint_correct_rows(&t, &fds).unwrap(),
            reference::joint_correct_rows(&t, &fds)
        );
    }
}
