//! The paper's worked examples as cross-crate golden tests — if any layer
//! (values, joins, partitions, quality, lattice) drifts, these break.

use dance::core::lattice;
use dance::prelude::*;
use dance::quality::joint_quality;
use dance::relation::join::{hash_join, JoinKind};

/// Example 2.1 / Table 2: C(D, A→B) = {t1, t2, t5}.
#[test]
fn example_2_1_table_2() {
    let d = Table::from_rows(
        "D",
        &[("gt_a", ValueType::Str), ("gt_b", ValueType::Str)],
        vec![
            vec![Value::str("a1"), Value::str("b1")],
            vec![Value::str("a1"), Value::str("b1")],
            vec![Value::str("a1"), Value::str("b2")],
            vec![Value::str("a1"), Value::str("b3")],
            vec![Value::str("a2"), Value::str("b2")],
        ],
    )
    .unwrap();
    let fd = Fd::new(["gt_a"], "gt_b");
    let mask = dance::quality::correct_rows(&d, &fd).unwrap();
    assert_eq!(mask, vec![true, true, false, false, true]);
    assert!((dance::quality::quality(&d, &fd).unwrap() - 0.6).abs() < 1e-12);
}

/// Example 2.2 / Table 3: Q(D1) = 0.996, Q(D2) = 0.6, Q(D1 ⋈ D2) = 0.2.
#[test]
fn example_2_2_table_3() {
    let mut rows = Vec::new();
    for i in 0..996 {
        rows.push(vec![
            Value::str("a1"),
            Value::str("b1"),
            Value::str(format!("c{}", i + 4)),
        ]);
    }
    rows.push(vec![Value::str("a1"), Value::str("b2"), Value::str("c1")]);
    rows.push(vec![Value::str("a1"), Value::str("b2"), Value::str("c2")]);
    rows.push(vec![Value::str("a1"), Value::str("b3"), Value::str("c3")]);
    rows.push(vec![Value::str("a1"), Value::str("b3"), Value::str("c3")]);
    let d1 = Table::from_rows(
        "D1",
        &[
            ("gt2_a", ValueType::Str),
            ("gt2_b", ValueType::Str),
            ("gt2_c", ValueType::Str),
        ],
        rows,
    )
    .unwrap();
    let d2 = Table::from_rows(
        "D2",
        &[
            ("gt2_c", ValueType::Str),
            ("gt2_d", ValueType::Str),
            ("gt2_e", ValueType::Str),
        ],
        vec![
            vec![Value::str("c1"), Value::str("d1"), Value::str("e1")],
            vec![Value::str("c1"), Value::str("d1"), Value::str("e1")],
            vec![Value::str("c2"), Value::str("d1"), Value::str("e2")],
            vec![Value::str("c3"), Value::str("d1"), Value::str("e2")],
            vec![Value::str("c9999"), Value::str("d1"), Value::str("e2")],
        ],
    )
    .unwrap();
    let fd_ab = Fd::new(["gt2_a"], "gt2_b");
    let fd_de = Fd::new(["gt2_d"], "gt2_e");
    assert!((dance::quality::quality(&d1, &fd_ab).unwrap() - 0.996).abs() < 1e-12);
    assert!((dance::quality::quality(&d2, &fd_de).unwrap() - 0.6).abs() < 1e-12);

    let j = hash_join(&d1, &d2, &AttrSet::from_names(["gt2_c"]), JoinKind::Inner).unwrap();
    assert_eq!(j.num_rows(), 5);
    assert!((joint_quality(&j, &[fd_ab, fd_de]).unwrap() - 0.2).abs() < 1e-12);
}

/// Definition 4.1 / Figure 2: lattice of a 4-attribute instance has
/// 2⁴ − 4 − 1 = 11 vertices; general size formula 2^m − m − 1.
#[test]
fn figure_2_lattice_sizes() {
    assert_eq!(lattice::lattice_size(4), 11);
    for m in 2..=10 {
        let names: Vec<String> = (0..m).map(|i| format!("gt_lat_{i}")).collect();
        let a = AttrSet::from_names(names.iter().map(String::as_str));
        assert_eq!(lattice::all_vertices(&a).len(), lattice::lattice_size(m));
    }
}

/// Property 4.1: AS-edges between the same instance pair with the same join
/// attribute set share one weight — verified against the join-graph API.
#[test]
fn property_4_1_weight_sharing() {
    use dance::market::{DatasetId, DatasetMeta};
    let d1 = Table::from_rows(
        "P1",
        &[
            ("p41_b", ValueType::Int),
            ("p41_c", ValueType::Int),
            ("p41_x", ValueType::Int),
        ],
        (0..50)
            .map(|i| vec![Value::Int(i % 5), Value::Int(i % 7), Value::Int(i)])
            .collect(),
    )
    .unwrap();
    let d2 = Table::from_rows(
        "P2",
        &[
            ("p41_b", ValueType::Int),
            ("p41_c", ValueType::Int),
            ("p41_y", ValueType::Int),
        ],
        (0..50)
            .map(|i| vec![Value::Int(i % 5), Value::Int(i % 7), Value::Int(i * 3)])
            .collect(),
    )
    .unwrap();
    let metas: Vec<DatasetMeta> = [&d1, &d2]
        .iter()
        .enumerate()
        .map(|(i, t)| DatasetMeta {
            id: DatasetId(i as u32),
            name: t.name().into(),
            schema: t.schema().clone(),
            num_rows: t.num_rows(),
            default_key: AttrSet::singleton(t.schema().attributes()[0].id),
            version: 0,
        })
        .collect();
    let g = JoinGraph::build(
        metas,
        vec![d1.clone(), d2.clone()],
        EntropyPricing::default(),
        &JoinGraphConfig::default(),
    )
    .unwrap();
    // The weight for join attrs J is a function of (pair, J) only, equal to
    // the directly computed JI — the lattice-level AS-edges all share it.
    for j in g.candidate_join_sets(0, 1) {
        let w = g.weight(0, 1, j).unwrap();
        let direct = dance::info::join_informativeness(&d1, &d2, j).unwrap();
        assert!((w - direct).abs() < 1e-12);
    }
}

/// Definition 2.4 on **disjoint-domain** join columns: no key ever matches,
/// so the outer-join pair distribution is `2n` uniform unmatched buckets and
/// `JI = (log2(2n) − 1) / log2(2n)` exactly — approaching 1 (a useless join)
/// as the domains grow. Holds identically for string and integer keys, and
/// for the interned twin of the same tables.
#[test]
fn ji_of_disjoint_domain_columns() {
    for n in [4usize, 32, 128] {
        let l = Table::from_rows(
            "L",
            &[("jidd_k", ValueType::Str)],
            (0..n).map(|i| vec![Value::str(format!("l{i}"))]).collect(),
        )
        .unwrap();
        let r = Table::from_rows(
            "R",
            &[("jidd_k", ValueType::Str)],
            (0..n).map(|i| vec![Value::str(format!("r{i}"))]).collect(),
        )
        .unwrap();
        let on = AttrSet::from_names(["jidd_k"]);
        let expected = ((2.0 * n as f64).log2() - 1.0) / (2.0 * n as f64).log2();
        let ji = dance::info::join_informativeness(&l, &r, &on).unwrap();
        assert!((ji - expected).abs() < 1e-12, "n={n}: {ji} vs {expected}");

        // Same formula on Int keys with disjoint ranges.
        let li = Table::from_rows(
            "LI",
            &[("jidd_i", ValueType::Int)],
            (0..n).map(|i| vec![Value::Int(i as i64)]).collect(),
        )
        .unwrap();
        let ri = Table::from_rows(
            "RI",
            &[("jidd_i", ValueType::Int)],
            (0..n).map(|i| vec![Value::Int(-(i as i64) - 1)]).collect(),
        )
        .unwrap();
        let ji_int =
            dance::info::join_informativeness(&li, &ri, &AttrSet::from_names(["jidd_i"])).unwrap();
        assert!((ji_int - expected).abs() < 1e-12, "int n={n}: {ji_int}");

        // Interned twins agree bit-for-bit with the keyed reference.
        let reg = dance::relation::InternerRegistry::new();
        let ji_interned =
            dance::info::join_informativeness(&l.intern_into(&reg), &r.intern_into(&reg), &on)
                .unwrap();
        let keyed = dance_oracle::join_informativeness(&l, &r, &on).unwrap();
        assert_eq!(ji_interned.to_bits(), keyed.to_bits());
    }
}

/// Definition 2.4 on **single-group** (constant) join columns — the 0/0
/// degenerate corner: one shared constant ⇒ everything matches ⇒ `JI = 0`;
/// two different constants ⇒ the two NULL-buckets are perfectly
/// anti-coordinated (`I = H`) ⇒ `JI = 0` by the formula (a documented
/// small-support artifact); a constant against an empty side ⇒ `H = 0` with
/// nothing matched ⇒ convention `JI = 1`. Multiplicities must not change any
/// of it.
#[test]
fn ji_of_single_group_columns() {
    let on = AttrSet::from_names(["jisg_k"]);
    let constant = |name: &str, v: &str, reps: usize| {
        Table::from_rows(
            name,
            &[("jisg_k", ValueType::Str)],
            (0..reps).map(|_| vec![Value::str(v)]).collect(),
        )
        .unwrap()
    };
    // Shared constant, equal and unequal multiplicities.
    for reps in [1usize, 3, 7] {
        let l = constant("L", "only", 5);
        let r = constant("R", "only", reps);
        assert_eq!(
            dance::info::join_informativeness(&l, &r, &on).unwrap(),
            0.0,
            "reps={reps}"
        );
    }
    // Different constants: anti-coordinated NULL buckets, formula gives 0.
    let l = constant("L", "left_only", 4);
    let r = constant("R", "right_only", 6);
    assert_eq!(dance::info::join_informativeness(&l, &r, &on).unwrap(), 0.0);
    // Constant vs empty: no pairs matched and H = 0 ⇒ convention 1.
    let empty = constant("R", "unused", 0);
    assert_eq!(
        dance::info::join_informativeness(&l, &empty, &on).unwrap(),
        1.0
    );
    // All-NULL column behaves as one unmatchable group against a constant:
    // also the anti-coordinated two-bucket artifact.
    let nulls = Table::from_rows(
        "N",
        &[("jisg_k", ValueType::Str)],
        vec![vec![Value::Null], vec![Value::Null]],
    )
    .unwrap();
    assert_eq!(
        dance::info::join_informativeness(&l, &nulls, &on).unwrap(),
        0.0
    );
}

/// Definition 2.4's range and monotonicity-in-mismatch on marketplace-shaped
/// data, plus Definition 2.5's non-negativity for the categorical case.
#[test]
fn measures_behave_on_generated_data() {
    let ts = dance::datagen::tpch::tpch(&dance::datagen::tpch::TpchConfig {
        scale: 0.2,
        dirty_fraction: 0.3,
        seed: 33,
    })
    .unwrap();
    let orders = ts.iter().find(|t| t.name() == "orders").unwrap();
    let customer = ts.iter().find(|t| t.name() == "customer").unwrap();
    let ji = dance::info::join_informativeness(orders, customer, &AttrSet::from_names(["custkey"]))
        .unwrap();
    assert!((0.0..=1.0).contains(&ji));

    let j = hash_join(
        orders,
        customer,
        &AttrSet::from_names(["custkey"]),
        JoinKind::Inner,
    )
    .unwrap();
    let corr = dance::info::correlation(
        &j,
        &AttrSet::from_names(["o_orderstatus"]),
        &AttrSet::from_names(["c_mktsegment"]),
    )
    .unwrap();
    assert!(corr >= 0.0, "categorical CORR = I(X;Y) ≥ 0, got {corr}");
}
