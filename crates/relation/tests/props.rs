//! Property tests of the relational substrate's invariants.

use dance_oracle::{group_rows, value_counts, GroupKey};
use dance_relation::join::{hash_join, JoinKind};
use dance_relation::{
    group_ids, join_sel, pair_sel, sym_counts, AttrSet, FxHashMap, InternerRegistry, SymCounts,
    Table, Value, ValueType,
};
use proptest::prelude::*;

/// Materialize a symbol histogram's keys for comparison with `value_counts`.
fn decode_counts(sc: &SymCounts) -> FxHashMap<GroupKey, u64> {
    sc.counts()
        .iter()
        .map(|(k, &c)| (sc.decode_key(k), c))
        .collect()
}

/// Random small keyed tables: key domain 0..k, n rows, payload column.
fn arb_table(name: &'static str, attr: &'static str) -> impl Strategy<Value = Table> {
    (1usize..12, 0usize..60, 0u64..1000).prop_map(move |(k, n, seed)| {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let h = dance_relation::hash::stable_hash64(seed, &(i as u64));
                vec![Value::Int((h % k as u64) as i64), Value::Int(i as i64)]
            })
            .collect();
        Table::from_rows(
            name,
            &[
                (attr, ValueType::Int),
                (&format!("{attr}_{name}_pl"), ValueType::Int),
            ],
            rows,
        )
        .unwrap()
    })
}

/// Random mixed-type tables exercising every encoding path of the group-id
/// kernel: a string column, an int column and a float column, each with
/// NULLs, plus −0.0 and repeated values.
fn arb_mixed_table() -> impl Strategy<Value = Table> {
    (1usize..6, 1usize..5, 0usize..50, 0u64..1000).prop_map(|(ks, ki, n, seed)| {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let h = dance_relation::hash::stable_hash64(seed, &(i as u64));
                let s = match h % (ks as u64 + 1) {
                    0 => Value::Null,
                    v => Value::str(format!("s{v}")),
                };
                let x = match (h >> 8) % (ki as u64 + 1) {
                    0 => Value::Null,
                    v => Value::Int(v as i64),
                };
                let f = match (h >> 16) % 5 {
                    0 => Value::Null,
                    1 => Value::Float(0.0),
                    2 => Value::Float(-0.0),
                    v => Value::Float(v as f64 / 2.0),
                };
                vec![s, x, f]
            })
            .collect();
        Table::from_rows(
            "mx",
            &[
                ("mx_s", ValueType::Str),
                ("mx_i", ValueType::Int),
                ("mx_f", ValueType::Float),
            ],
            rows,
        )
        .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// |L ⋈ R| = Σ_v n_L(v) · n_R(v) over shared keys.
    #[test]
    fn inner_join_size_matches_histograms(
        l in arb_table("pl", "pj_k"),
        r in arb_table("pr", "pj_k"),
    ) {
        let on = AttrSet::from_names(["pj_k"]);
        let j = hash_join(&l, &r, &on, JoinKind::Inner).unwrap();
        let lc = value_counts(&l, &on).unwrap();
        let rc = value_counts(&r, &on).unwrap();
        let expected: u64 = lc
            .iter()
            .filter_map(|(k, nl)| rc.get(k).map(|nr| nl * nr))
            .sum();
        prop_assert_eq!(j.num_rows() as u64, expected);
    }

    /// Full outer join contains the inner join plus one row per unmatched row.
    #[test]
    fn outer_join_size_decomposition(
        l in arb_table("pl", "pj_k"),
        r in arb_table("pr", "pj_k"),
    ) {
        let on = AttrSet::from_names(["pj_k"]);
        let inner = hash_join(&l, &r, &on, JoinKind::Inner).unwrap();
        let outer = hash_join(&l, &r, &on, JoinKind::FullOuter).unwrap();
        let lc = value_counts(&l, &on).unwrap();
        let rc = value_counts(&r, &on).unwrap();
        let unmatched_l: u64 = lc.iter().filter(|(k, _)| !rc.contains_key(*k)).map(|(_, n)| n).sum();
        let unmatched_r: u64 = rc.iter().filter(|(k, _)| !lc.contains_key(*k)).map(|(_, n)| n).sum();
        prop_assert_eq!(
            outer.num_rows() as u64,
            inner.num_rows() as u64 + unmatched_l + unmatched_r
        );
    }

    /// Join is symmetric in row count.
    #[test]
    fn join_row_count_symmetric(
        l in arb_table("pl", "pj_k"),
        r in arb_table("pr", "pj_k"),
    ) {
        let on = AttrSet::from_names(["pj_k"]);
        let lr = hash_join(&l, &r, &on, JoinKind::Inner).unwrap();
        let rl = hash_join(&r, &l, &on, JoinKind::Inner).unwrap();
        prop_assert_eq!(lr.num_rows(), rl.num_rows());
    }

    /// Projection keeps row count; filter never grows it.
    #[test]
    fn projection_and_filter_laws(t in arb_table("pp", "pf_k")) {
        let p = t.project(&AttrSet::from_names(["pf_k"])).unwrap();
        prop_assert_eq!(p.num_rows(), t.num_rows());
        prop_assert_eq!(p.num_attrs(), 1);
        let f = t.filter(|i| i % 2 == 0);
        prop_assert!(f.num_rows() <= t.num_rows());
    }

    /// A symbol histogram totals the row count.
    #[test]
    fn histogram_total(t in arb_table("ph", "ph_k")) {
        let c = sym_counts(&t, &AttrSet::from_names(["ph_k"])).unwrap();
        prop_assert_eq!(c.counts().values().sum::<u64>(), t.num_rows() as u64);
        prop_assert_eq!(c.total(), t.num_rows() as u64);
    }

    /// The dense group-id kernel groups rows exactly as the per-row value
    /// histogram does, across all type/NULL combinations: keyed by each
    /// group's first row, the per-id counts equal the per-key counts.
    #[test]
    fn dense_kernel_matches_legacy_histograms(t in arb_mixed_table()) {
        for attrs in [
            AttrSet::from_names(["mx_s"]),
            AttrSet::from_names(["mx_i"]),
            AttrSet::from_names(["mx_f"]),
            AttrSet::from_names(["mx_s", "mx_i"]),
            AttrSet::from_names(["mx_s", "mx_i", "mx_f"]),
        ] {
            let g = group_ids(&t, &attrs).unwrap();
            let dense: FxHashMap<u32, u64> =
                g.representatives().into_iter().zip(g.counts()).collect();
            let reference: FxHashMap<u32, u64> = group_rows(&t, &attrs)
                .unwrap()
                .into_values()
                .map(|rows| (rows[0], rows.len() as u64))
                .collect();
            prop_assert_eq!(dense, reference, "group ids diverged on {}", attrs);
        }
    }

    /// Symbol histograms decode to exactly the materialized value histograms
    /// on every type/NULL combination — interned or not.
    #[test]
    fn sym_counts_decode_to_value_counts(t in arb_mixed_table()) {
        let reg = InternerRegistry::new();
        for table in [t.clone(), t.intern_into(&reg)] {
            for attrs in [
                AttrSet::from_names(["mx_s"]),
                AttrSet::from_names(["mx_i"]),
                AttrSet::from_names(["mx_f"]),
                AttrSet::from_names(["mx_s", "mx_i", "mx_f"]),
            ] {
                let reference = value_counts(&table, &attrs).unwrap();
                let sc = sym_counts(&table, &attrs).unwrap();
                prop_assert_eq!(&decode_counts(&sc), &reference, "{}", attrs);
            }
        }
    }

    /// Interning a table never changes its logical content: group ids and
    /// value histograms are identical before and after `intern_into`.
    #[test]
    fn interning_preserves_logical_content(t in arb_mixed_table()) {
        let reg = InternerRegistry::new();
        // Pre-populate shared dictionaries in reverse order so interned codes
        // genuinely differ from the per-column codes.
        for i in (0..8u64).rev() {
            reg.dict_for(dance_relation::attr("mx_s")).intern(&format!("s{i}"));
        }
        let it = t.intern_into(&reg);
        let attrs = AttrSet::from_names(["mx_s", "mx_i", "mx_f"]);
        let ga = group_ids(&t, &attrs).unwrap();
        let gb = group_ids(&it, &attrs).unwrap();
        prop_assert_eq!(ga.ids(), gb.ids());
        prop_assert_eq!(&value_counts(&t, &attrs).unwrap(), &value_counts(&it, &attrs).unwrap());
    }

    /// Structural invariants of the group-id encoding itself: ids are dense,
    /// first-occurrence ordered, and counts total the rows.
    #[test]
    fn group_id_encoding_invariants(t in arb_mixed_table()) {
        let attrs = AttrSet::from_names(["mx_s", "mx_f"]);
        let g = group_ids(&t, &attrs).unwrap();
        prop_assert_eq!(g.len(), t.num_rows());
        let mut seen: u32 = 0;
        for &id in g.ids() {
            prop_assert!(id <= seen, "ids must appear in first-occurrence order");
            if id == seen {
                seen += 1;
            }
        }
        prop_assert_eq!(seen as usize, g.num_groups());
        prop_assert_eq!(g.counts().iter().sum::<u64>(), t.num_rows() as u64);
        prop_assert_eq!(g.representatives().len(), g.num_groups());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AttrSet algebra laws on random small id sets.
    #[test]
    fn attr_set_laws(a in prop::collection::vec(0u32..12, 0..8), b in prop::collection::vec(0u32..12, 0..8)) {
        let names_a: Vec<String> = a.iter().map(|i| format!("law_{i}")).collect();
        let names_b: Vec<String> = b.iter().map(|i| format!("law_{i}")).collect();
        let sa = AttrSet::from_names(names_a.iter().map(String::as_str));
        let sb = AttrSet::from_names(names_b.iter().map(String::as_str));
        // Commutativity / absorption / De-Morgan-ish size sanity.
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
        prop_assert_eq!(sa.intersect(&sb), sb.intersect(&sa));
        prop_assert_eq!(sa.union(&sb).len() + sa.intersect(&sb).len(), sa.len() + sb.len());
        prop_assert!(sa.intersect(&sb).is_subset(&sa));
        prop_assert!(sa.is_subset(&sa.union(&sb)));
        prop_assert_eq!(sa.difference(&sb).len(), sa.len() - sa.intersect(&sb).len());
    }
}

/// Logical table equality: same name, schema (ids + types), and every row's
/// values in order — the contract the symbol-native join pipeline pins
/// against the value-keyed reference (physical dictionary layout may differ).
fn assert_same_table(a: &Table, b: &Table) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.name(), b.name());
    prop_assert_eq!(a.schema().attributes(), b.schema().attributes());
    prop_assert_eq!(a.num_rows(), b.num_rows());
    for r in 0..a.num_rows() {
        prop_assert_eq!(a.row(r), b.row(r), "row {} diverged", r);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The symbol-native selection join equals the value-keyed reference join
    /// bit-exact — every `JoinKind`, NULL join keys, multi-attribute `on`,
    /// and shared (registry) vs private dictionaries.
    #[test]
    fn sel_join_matches_legacy_keyed_join(
        l in arb_mixed_table(),
        r in arb_mixed_table(),
    ) {
        let reg = InternerRegistry::new();
        // (left, right) dictionary sharing: private/private, shared/shared,
        // and mixed — the translator path in both directions.
        let pairs = [
            (l.clone().with_name("L"), r.clone().with_name("R")),
            (
                l.intern_into(&reg).with_name("L"),
                r.intern_into(&reg).with_name("R"),
            ),
            (l.intern_into(&reg).with_name("L"), r.clone().with_name("R")),
            (l.clone().with_name("L"), r.intern_into(&reg).with_name("R")),
        ];
        for (lt, rt) in &pairs {
            for on in [
                AttrSet::from_names(["mx_s"]),
                AttrSet::from_names(["mx_i"]),
                AttrSet::from_names(["mx_s", "mx_i"]),
                AttrSet::from_names(["mx_s", "mx_i", "mx_f"]),
            ] {
                for kind in [JoinKind::Inner, JoinKind::FullOuter] {
                    let sym = hash_join(lt, rt, &on, kind).unwrap();
                    let keyed = dance_oracle::hash_join(lt, rt, &on, kind).unwrap();
                    assert_same_table(&sym, &keyed)?;
                }
            }
        }
    }

    /// A `PairSel`'s CSR match lists expand to exactly the inner selection
    /// join's row pairs, and re-probing any row subset through the cached
    /// lists reproduces what a direct probe of that subset finds.
    #[test]
    fn pair_sel_expands_to_inner_join_sel(
        l in arb_mixed_table(),
        r in arb_mixed_table(),
    ) {
        let reg = InternerRegistry::new();
        let (lt, rt) = (l.with_name("L"), r.intern_into(&reg).with_name("R"));
        let on = AttrSet::from_names(["mx_s", "mx_i"]);
        let pair = pair_sel(&lt, &rt, &on).unwrap();
        let sel = join_sel(&lt, &rt, &on, JoinKind::Inner).unwrap();
        prop_assert_eq!(pair.num_left(), lt.num_rows());
        prop_assert_eq!(pair.num_matches(), sel.left_rows.len());
        let mut li = Vec::new();
        let mut ri = Vec::new();
        for lrow in 0..lt.num_rows() as u32 {
            for &rrow in pair.matches_of(lrow) {
                li.push(lrow);
                ri.push(rrow);
            }
        }
        prop_assert_eq!(li, sel.left_rows);
        prop_assert_eq!(ri, sel.right_rows);
    }

    /// The late-materialization tree join equals the per-hop materializing
    /// chain on random 3-table paths.
    #[test]
    fn late_tree_join_matches_per_hop_chain(
        a in arb_mixed_table(),
        b in arb_mixed_table(),
        c in arb_mixed_table(),
    ) {
        let reg = InternerRegistry::new();
        let (a, c) = (a.with_name("A"), c.with_name("C"));
        let b = b.intern_into(&reg).with_name("B"); // mixed dictionaries mid-path
        let edges = vec![
            dance_relation::join::JoinEdge { a: 0, b: 1, on: AttrSet::from_names(["mx_s"]) },
            dance_relation::join::JoinEdge { a: 1, b: 2, on: AttrSet::from_names(["mx_i"]) },
        ];
        let tables = [&a, &b, &c];
        let per_hop = dance_oracle::join_tree(&tables, &edges, |t| t).unwrap();
        let late = dance_relation::join_tree_late(&tables, &edges, |s| s).unwrap();
        assert_same_table(&late, &per_hop)?;
    }
}
