//! Property tests of delta-based incremental catalog maintenance: every
//! delta-patched structure — symbol counts, join informativeness,
//! pair-category partial sums, join-graph edge weights, cached pair
//! selections — must be **bit-identical** to a full
//! rebuild over the patched table, on randomized typed/NULL tables and
//! randomized insert/delete deltas (including delete-then-reinsert and
//! delete-to-empty).

use dance_core::{JoinGraph, JoinGraphConfig};
use dance_info::{ji_from_sym_counts, PairPartials};
use dance_market::{DatasetId, DatasetMeta, EntropyPricing};
use dance_relation::hash::{stable_hash64, unit_interval};
use dance_relation::{sym_counts, AttrSet, InternerRegistry, Table, TableDelta, Value, ValueType};
use proptest::prelude::*;

/// A randomized delta against `t`. `mode` cycles the structural edge cases:
/// 0 = mixed churn (new string symbols included), 1 = delete-then-reinsert
/// (deleted rows re-inserted verbatim, so their net count change is zero),
/// 2 = delete **everything** (drives every group to empty), 3 = insert-only.
fn mk_delta(t: &Table, seed: u64, mode: u64) -> TableDelta {
    let n = t.num_rows();
    let donor = |k: u64| -> Vec<Value> {
        if n == 0 {
            return vec![Value::Null; t.num_attrs()];
        }
        t.row((stable_hash64(seed, &("donor", k)) % n as u64) as usize)
    };
    let perturbed = |k: u64| -> Vec<Value> {
        let mut row = donor(k);
        if !row.is_empty() {
            let c = (stable_hash64(seed, &("col", k)) % row.len() as u64) as usize;
            let m = stable_hash64(seed, &("mut", k));
            row[c] = match &row[c] {
                Value::Int(x) => Value::Int(x + 1 + (m % 3) as i64),
                Value::Float(x) => Value::Float(x + 1.5),
                Value::Str(_) => Value::str(format!("pd_new{}", m % 5)),
                Value::Null => Value::Null,
            };
        }
        row
    };
    match mode % 4 {
        0 => {
            let deleted: Vec<u32> = (0..n as u32)
                .filter(|&r| unit_interval(stable_hash64(seed, &("del", u64::from(r)))) < 0.3)
                .collect();
            TableDelta::new((0..3).map(perturbed).collect(), deleted)
        }
        1 => {
            let deleted: Vec<u32> = (0..n as u32)
                .filter(|&r| unit_interval(stable_hash64(seed, &("dtr", u64::from(r)))) < 0.4)
                .collect();
            // Re-insert every deleted row verbatim: net-zero count changes.
            let inserted = deleted.iter().map(|&r| t.row(r as usize)).collect();
            TableDelta::new(inserted, deleted)
        }
        2 => TableDelta::new((0..2).map(perturbed).collect(), (0..n as u32).collect()),
        _ => TableDelta::new((0..4).map(perturbed).collect(), Vec::new()),
    }
}

/// Random typed tables: Str key (with NULLs), Int key (with NULLs), Float
/// payload — optionally registry-interned.
fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..7, 0usize..40, 0u64..1000).prop_map(|(k, n, seed)| {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|r| {
                let h = stable_hash64(seed, &(r as u64));
                let s = match h % (k as u64 + 1) {
                    0 => Value::Null,
                    x => Value::str(format!("pd_s{x}")),
                };
                let i = match (h >> 8) % (k as u64 + 2) {
                    0 => Value::Null,
                    x => Value::Int(x as i64),
                };
                vec![s, i, Value::Float((h % 97) as f64 / 7.0)]
            })
            .collect();
        Table::from_rows(
            "pd_t",
            &[
                ("pd_a", ValueType::Str),
                ("pd_b", ValueType::Int),
                ("pd_x", ValueType::Float),
            ],
            rows,
        )
        .unwrap()
    })
}

/// Triangle catalogs mixing Str and Int join keys, NULLs included.
fn arb_delta_catalog() -> impl Strategy<Value = (Vec<DatasetMeta>, Vec<Table>)> {
    (1usize..6, 1usize..30, 0u64..500).prop_map(|(k, n, seed)| {
        let specs: [(&str, [(&str, ValueType); 2]); 3] = [
            (
                "pd_d0",
                [("pd_ka", ValueType::Str), ("pd_kb", ValueType::Int)],
            ),
            (
                "pd_d1",
                [("pd_kb", ValueType::Int), ("pd_kc", ValueType::Str)],
            ),
            (
                "pd_d2",
                [("pd_ka", ValueType::Str), ("pd_kc", ValueType::Str)],
            ),
        ];
        let mut metas = Vec::new();
        let mut samples = Vec::new();
        for (idx, (name, attrs)) in specs.into_iter().enumerate() {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|r| {
                    let h = stable_hash64(seed + idx as u64, &(r as u64));
                    let sv = |shift: u32, tag: &str| match (h >> shift) % (k as u64 + 1) {
                        0 => Value::Null,
                        x => Value::str(format!("pd_{tag}{x}")),
                    };
                    let iv = match (h >> 24) % (k as u64 + 2) {
                        0 => Value::Null,
                        x => Value::Int(x as i64),
                    };
                    match idx {
                        0 => vec![sv(0, "ka"), iv],
                        1 => vec![iv, sv(8, "kc")],
                        _ => vec![sv(0, "ka"), sv(8, "kc")],
                    }
                })
                .collect();
            let t = Table::from_rows(name, &attrs, rows).unwrap();
            metas.push(DatasetMeta {
                id: DatasetId(idx as u32),
                name: t.name().to_string(),
                schema: t.schema().clone(),
                num_rows: t.num_rows(),
                default_key: AttrSet::singleton(t.schema().attributes()[0].id),
                version: 0,
            });
            samples.push(t);
        }
        (metas, samples)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Patched symbol counts, JI and pair-category partials are
    /// bit-identical to fresh recounts of the patched table.
    #[test]
    fn patched_counts_entropy_mi_ji_bit_exact(
        t in arb_table(),
        other in arb_table(),
        seed in 0u64..10_000,
        mode in 0u64..4,
    ) {
        let delta = mk_delta(&t, seed, mode);
        let after = t.apply_delta(&delta).unwrap();
        let a = AttrSet::from_names(["pd_a"]);
        let b = AttrSet::from_names(["pd_b"]);

        // Counts: patch vs recount, per attribute set.
        for attrs in [&a, &b, &AttrSet::from_names(["pd_a", "pd_b"])] {
            let mut patched = sym_counts(&t, attrs).unwrap();
            let changes = patched.apply_delta(&t, attrs, &delta).unwrap();
            let fresh = sym_counts(&after, attrs).unwrap();
            prop_assert_eq!(patched.total(), fresh.total());
            prop_assert_eq!(patched.counts(), fresh.counts());
            // Change lists carry the exact net movement of every key.
            let moved: i64 = changes.iter().map(|(_, d)| d).sum();
            prop_assert_eq!(
                moved,
                fresh.total() as i64 - sym_counts(&t, attrs).unwrap().total() as i64
            );
        }

        // JI against an unchanged partner: patched left histogram vs fresh,
        // and the maintained partial-sum fold vs the two-histogram fold.
        // Interned twins share dictionaries, so partials are available.
        let reg = InternerRegistry::new();
        let ti = t.intern_into(&reg);
        let oi = other.intern_into(&reg);
        let mut left = sym_counts(&ti, &a).unwrap();
        let right = sym_counts(&oi, &a).unwrap();
        let mut partials = PairPartials::new(&left, &right).unwrap();
        let changes = left.apply_delta(&ti, &a, &delta).unwrap();
        partials.update_left(&changes);
        let after_i = ti.apply_delta(&delta).unwrap();
        let fresh_left = sym_counts(&after_i, &a).unwrap();
        let reference = ji_from_sym_counts(&fresh_left, &right);
        prop_assert_eq!(ji_from_sym_counts(&left, &right).to_bits(), reference.to_bits());
        prop_assert_eq!(partials.ji().to_bits(), reference.to_bits());
    }

    /// `JoinGraph::apply_delta` equals a from-scratch rebuild over the
    /// patched tables: every Property-4.1 weight, every I-edge weight, and
    /// every cached pair selection, bit-exact, across
    /// two consecutive deltas (the second riding maintained partials), for
    /// plain and registry-interned catalogs.
    #[test]
    fn join_graph_apply_delta_bit_exact(
        catalog in arb_delta_catalog(),
        which in 0u32..3,
        seed in 0u64..10_000,
        mode in 0u64..4,
        interned in 0u64..2,
    ) {
        let (metas, mut samples) = catalog;
        if interned == 1 {
            let reg = InternerRegistry::new();
            samples = samples.iter().map(|t| t.intern_into(&reg)).collect();
        }
        let build = |tables: Vec<Table>| {
            JoinGraph::build(
                metas.clone(),
                tables,
                EntropyPricing::default(),
                &JoinGraphConfig::default(),
            )
            .unwrap()
        };
        let mut g = build(samples.clone());
        // Warm a selection touching the patched instance and one that
        // does not, so both survival paths are exercised.
        let partner = (which + 1) % 3;
        let on = g.candidate_join_sets(which, partner)[0].clone();
        g.pair_sel(which, partner, &on).unwrap();

        let mut truth_tables = samples.clone();
        for round in 0..2u64 {
            let delta = mk_delta(g.sample(which), seed + round, mode + round);
            g.apply_delta(which, &delta).unwrap();
            truth_tables[which as usize] =
                truth_tables[which as usize].apply_delta(&delta).unwrap();
        }
        let truth = build(truth_tables.clone());
        for e in truth.i_edges() {
            prop_assert_eq!(
                g.edge_between(e.a, e.b).unwrap().weight.to_bits(),
                e.weight.to_bits(),
                "I-edge ({}, {}) diverged", e.a, e.b
            );
            for cand in truth.candidate_join_sets(e.a, e.b) {
                prop_assert_eq!(
                    g.weight(e.a, e.b, cand).unwrap().to_bits(),
                    truth.weight(e.a, e.b, cand).unwrap().to_bits()
                );
            }
        }
        // The patched cached selection equals a fresh rebuild.
        let cached = g.pair_sel(which, partner, &on).unwrap();
        let fresh = dance_relation::pair_sel(
            &truth_tables[which as usize],
            &truth_tables[partner as usize],
            &on,
        )
        .unwrap();
        prop_assert_eq!(cached.num_matches(), fresh.num_matches());
        for l in 0..fresh.num_left() as u32 {
            prop_assert_eq!(cached.matches_of(l), fresh.matches_of(l));
        }
    }
}
