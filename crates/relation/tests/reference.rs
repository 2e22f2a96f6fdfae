//! Fixture pins of the symbol-native kernels against the value-keyed
//! references in `dance-oracle`: the selection join and the
//! late-materialization tree join against the per-row hash join and the
//! per-hop tree join, and symbol histograms against per-row value
//! histograms.

use dance_oracle::GroupKey;
use dance_relation::join::{hash_join, JoinEdge, JoinKind};
use dance_relation::sel::join_tree_late;
use dance_relation::{
    sym_counts, AttrSet, ColumnData, FxHashMap, InternerRegistry, SymCounts, Table, Value,
    ValueType,
};

fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    (0..t.num_rows()).map(|r| t.row(r)).collect()
}

fn assert_tables_equal(a: &Table, b: &Table) {
    assert_eq!(a.name(), b.name());
    assert_eq!(a.schema().attributes(), b.schema().attributes());
    assert_eq!(rows_of(a), rows_of(b));
}

/// A(x, k) ⋈ B(k, m) ⋈ C(m, w): string keys with NULLs, then Int keys.
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

/// Joining must never mutate the inputs' dictionaries: a full-outer join
/// of a registry-interned left against a private-dictionary right builds
/// its coalesced key column in a fresh dictionary, leaving the shared
/// registry code space untouched.
#[test]
fn outer_join_never_mutates_input_dictionaries() {
    let reg = InternerRegistry::new();
    let (a, b, _) = chain();
    let a = a.intern_into(&reg);
    let on = AttrSet::from_names(["sel_k"]);
    let shared = reg.dict_for(dance_relation::attr("sel_k"));
    let shared_before = shared.len();
    let ColumnData::Str(_, rd) = b.column(0).data() else {
        panic!("expected Str key");
    };
    let right_before = rd.len();

    let j = hash_join(&a, &b, &on, JoinKind::FullOuter).unwrap();
    assert_eq!(shared.len(), shared_before, "shared dictionary mutated");
    assert_eq!(rd.len(), right_before, "right dictionary mutated");
    // And the coalesced key column still carries every value.
    let reference = dance_oracle::hash_join(&a, &b, &on, JoinKind::FullOuter).unwrap();
    assert_tables_equal(&j, &reference);
}

#[test]
fn late_tree_matches_per_hop_tree() {
    let (a, b, c) = chain();
    let per_hop = dance_oracle::join_tree(&[&a, &b, &c], &chain_edges(), |t| t).unwrap();
    let late = join_tree_late(&[&a, &b, &c], &chain_edges(), |s| s).unwrap();
    assert_tables_equal(&late, &per_hop);
}

#[test]
fn late_tree_matches_with_shared_dictionaries() {
    let reg = InternerRegistry::new();
    let (a, b, c) = chain();
    let (ai, bi, ci) = (
        a.intern_into(&reg),
        b.intern_into(&reg),
        c.intern_into(&reg),
    );
    let per_hop = dance_oracle::join_tree(&[&ai, &bi, &ci], &chain_edges(), |t| t).unwrap();
    let late = join_tree_late(&[&ai, &bi, &ci], &chain_edges(), |s| s).unwrap();
    assert_tables_equal(&late, &per_hop);
    // And the interned chain joins exactly like the private-dict chain.
    let plain = join_tree_late(&[&a, &b, &c], &chain_edges(), |s| s).unwrap();
    assert_eq!(rows_of(&late), rows_of(&plain));
}

#[test]
fn retain_is_gather_at_the_selection_level() {
    let (a, b, c) = chain();
    let keep = |n: usize| -> Vec<u32> { (0..n as u32).step_by(3).collect() };
    let per_hop = dance_oracle::join_tree(&[&a, &b, &c], &chain_edges(), |t| {
        t.gather(&keep(t.num_rows()))
    })
    .unwrap();
    let late = join_tree_late(&[&a, &b, &c], &chain_edges(), |mut s| {
        s.retain(&keep(s.num_rows()));
        s
    })
    .unwrap();
    assert_tables_equal(&late, &per_hop);
}

/// Str, Int and Float keys with NULLs, −0.0 ≡ 0.0 and a NaN.
fn typed() -> Table {
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

fn decoded(sc: &SymCounts) -> FxHashMap<GroupKey, u64> {
    sc.counts()
        .iter()
        .map(|(k, &c)| (sc.decode_key(k), c))
        .collect()
}

#[test]
fn sym_counts_decode_to_value_counts() {
    let table = typed();
    for attrs in [
        AttrSet::from_names(["sym_s"]),
        AttrSet::from_names(["sym_i"]),
        AttrSet::from_names(["sym_f"]),
        AttrSet::from_names(["sym_s", "sym_i", "sym_f"]),
    ] {
        let sc = sym_counts(&table, &attrs).unwrap();
        let reference = dance_oracle::value_counts(&table, &attrs).unwrap();
        assert_eq!(decoded(&sc), reference, "{attrs}");
        assert_eq!(sc.total(), 5);
    }
}
