//! Property tests of the information-theoretic measures.

use dance_info::{
    conditional_entropy, entropy_from_counts, join_informativeness, join_informativeness_with,
    mutual_information, mutual_information_with, shannon_entropy, shannon_entropy_with,
};
use dance_relation::{AttrSet, Executor, InternerRegistry, Table, Value, ValueType};
use proptest::prelude::*;

fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..10, 1usize..80, 0u64..500).prop_map(|(k, n, seed)| {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let h = dance_relation::hash::stable_hash64(seed, &(i as u64));
                vec![
                    Value::Int((h % k as u64) as i64),
                    Value::Int(((h >> 8) % 5) as i64),
                ]
            })
            .collect();
        Table::from_rows(
            "pi",
            &[("pi_x", ValueType::Int), ("pi_y", ValueType::Int)],
            rows,
        )
        .unwrap()
    })
}

/// Random tables with string/float keys and NULLs, to pin the dense kernels
/// against the per-row reference on every encoding.
fn arb_typed_table() -> impl Strategy<Value = Table> {
    (1usize..8, 1usize..60, 0u64..500).prop_map(|(k, n, seed)| {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let h = dance_relation::hash::stable_hash64(seed, &(i as u64));
                let s = match h % (k as u64 + 1) {
                    0 => Value::Null,
                    v => Value::str(format!("k{v}")),
                };
                let f = match (h >> 24) % 4 {
                    0 => Value::Null,
                    v => Value::Float(v as f64 * 0.5),
                };
                vec![s, f]
            })
            .collect();
        Table::from_rows(
            "pt",
            &[("pt_x", ValueType::Str), ("pt_y", ValueType::Float)],
            rows,
        )
        .unwrap()
    })
}

/// H over the per-row value histogram of the reference oracle.
fn reference_entropy(t: &Table, attrs: &AttrSet) -> f64 {
    let counts = dance_oracle::value_counts(t, attrs).unwrap();
    entropy_from_counts(counts.values().copied(), t.num_rows() as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 0 ≤ H(X) ≤ log₂(n); H(X|Y) ≤ H(X); I(X;Y) ≥ 0 and symmetric.
    #[test]
    fn entropy_inequalities(t in arb_table()) {
        let x = AttrSet::from_names(["pi_x"]);
        let y = AttrSet::from_names(["pi_y"]);
        let hx = shannon_entropy(&t, &x).unwrap();
        prop_assert!(hx >= 0.0);
        prop_assert!(hx <= (t.num_rows().max(1) as f64).log2() + 1e-9);
        let hxy = conditional_entropy(&t, &x, &y).unwrap();
        prop_assert!(hxy <= hx + 1e-9, "conditioning reduces entropy");
        let ixy = mutual_information(&t, &x, &y).unwrap();
        let iyx = mutual_information(&t, &y, &x).unwrap();
        prop_assert!(ixy >= 0.0);
        prop_assert!((ixy - iyx).abs() < 1e-9, "MI is symmetric");
        // I(X;Y) = H(X) − H(X|Y).
        prop_assert!((ixy - (hx - hxy)).abs() < 1e-9);
    }

    /// JI ∈ \[0, 1\] for arbitrary table pairs, and 0 when joined with itself.
    #[test]
    fn ji_bounds(a in arb_table(), b in arb_table()) {
        let j = AttrSet::from_names(["pi_x"]);
        let ji = join_informativeness(&a, &b, &j).unwrap();
        prop_assert!((0.0..=1.0).contains(&ji), "ji = {}", ji);
        if a.num_rows() > 0 {
            let self_ji = join_informativeness(&a, &a, &j).unwrap();
            prop_assert!(self_ji.abs() < 1e-9, "self-join fully matched: {}", self_ji);
        }
    }

    /// Dense-kernel entropies equal the per-row reference exactly:
    /// `H(X)`, `H(Y)`, joint `H(X,Y)` and the derived `I(X;Y)`.
    #[test]
    fn dense_entropy_matches_legacy(t in arb_typed_table()) {
        let x = AttrSet::from_names(["pt_x"]);
        let y = AttrSet::from_names(["pt_y"]);
        let xy = x.union(&y);
        for attrs in [&x, &y, &xy] {
            let dense = shannon_entropy(&t, attrs).unwrap();
            let slow = reference_entropy(&t, attrs);
            prop_assert!((dense - slow).abs() < 1e-12, "H({}) {} vs {}", attrs, dense, slow);
        }
        let mi_dense = mutual_information(&t, &x, &y).unwrap();
        let mi_slow =
            (reference_entropy(&t, &x) + reference_entropy(&t, &y) - reference_entropy(&t, &xy)).max(0.0);
        prop_assert!((mi_dense - mi_slow).abs() < 1e-12, "MI {} vs {}", mi_dense, mi_slow);
    }

    /// Interned-symbol JI is **bit-exact** against the value-keyed reference
    /// on randomized typed/NULL table pairs — on the direct path
    /// (both sides share registry dictionaries), the translator path (one or
    /// both sides keep private dictionaries) and at thread counts {1, 4}
    /// (the CI `DANCE_THREADS` matrix).
    #[test]
    fn interned_ji_bit_exact_vs_keyed(a in arb_typed_table(), b in arb_typed_table()) {
        let reg = InternerRegistry::new();
        // Pre-populate the shared dictionary so interned codes differ from
        // per-column codes.
        for i in (0..9u64).rev() {
            reg.dict_for(dance_relation::attr("pt_x")).intern(&format!("k{i}"));
        }
        let (ia, ib) = (a.intern_into(&reg), b.intern_into(&reg));
        let j = AttrSet::from_names(["pt_x"]);
        let keyed = dance_oracle::join_informativeness(&a, &b, &j).unwrap();
        for (l, r) in [(&ia, &ib), (&ia, &b), (&a, &ib), (&a, &b)] {
            let sym = join_informativeness(l, r, &j).unwrap();
            prop_assert_eq!(sym.to_bits(), keyed.to_bits(),
                "sym {} vs keyed {}", sym, keyed);
        }
        for threads in [1usize, 4] {
            let exec = Executor::with_grain(threads, 1);
            let sym = join_informativeness_with(&exec, &ia, &ib, &j).unwrap();
            prop_assert_eq!(sym.to_bits(), keyed.to_bits(), "at {} threads", threads);
        }
    }

    /// Interning never moves a single bit of the single-table measures: H,
    /// joint H and MI on the interned twin equal the plain table's exactly.
    #[test]
    fn interned_entropies_bit_exact(t in arb_typed_table()) {
        let reg = InternerRegistry::new();
        let it = t.intern_into(&reg);
        let x = AttrSet::from_names(["pt_x"]);
        let y = AttrSet::from_names(["pt_y"]);
        let xy = x.union(&y);
        for attrs in [&x, &y, &xy] {
            let plain = shannon_entropy(&t, attrs).unwrap();
            let interned = shannon_entropy(&it, attrs).unwrap();
            prop_assert_eq!(plain.to_bits(), interned.to_bits(), "H({})", attrs);
        }
        let mi_plain = mutual_information(&t, &x, &y).unwrap();
        let mi_interned = mutual_information(&it, &x, &y).unwrap();
        prop_assert_eq!(mi_plain.to_bits(), mi_interned.to_bits());
    }

    /// Every measure computed on a chunked parallel executor is
    /// **bit-identical** to the sequential result: H, joint H, MI and JI at
    /// thread counts {1, 2, 3, 8} on typed tables with NULLs. The grouping
    /// is identical by construction and every downstream float fold consumes
    /// counts in the same order, so `to_bits` equality must hold.
    #[test]
    fn parallel_measures_bit_identical(a in arb_typed_table(), b in arb_typed_table()) {
        let seq = Executor::sequential();
        let x = AttrSet::from_names(["pt_x"]);
        let y = AttrSet::from_names(["pt_y"]);
        let xy = x.union(&y);
        let h_ref = shannon_entropy_with(&seq, &a, &xy).unwrap();
        let mi_ref = mutual_information_with(&seq, &a, &x, &y).unwrap();
        let ji_ref = join_informativeness_with(&seq, &a, &b, &x).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let exec = Executor::with_grain(threads, 1);
            let h = shannon_entropy_with(&exec, &a, &xy).unwrap();
            prop_assert_eq!(h.to_bits(), h_ref.to_bits(), "H diverged at {} threads", threads);
            let mi = mutual_information_with(&exec, &a, &x, &y).unwrap();
            prop_assert_eq!(mi.to_bits(), mi_ref.to_bits(), "MI diverged at {} threads", threads);
            let ji = join_informativeness_with(&exec, &a, &b, &x).unwrap();
            prop_assert_eq!(ji.to_bits(), ji_ref.to_bits(), "JI diverged at {} threads", threads);
        }
    }

    /// Self-correlation is non-negative and bounded by the relevant entropy:
    /// `pi_x` is numeric, so Definition 2.5 uses *cumulative* entropy, which
    /// upper-bounds `h(X) − h(X|Y)` for any conditioner Y.
    #[test]
    fn correlation_sanity(t in arb_table()) {
        prop_assume!(t.num_rows() >= 4);
        let x = AttrSet::from_names(["pi_x"]);
        let corr_self = dance_info::correlation(&t, &x, &x).unwrap();
        let h_cum =
            dance_info::cumulative_entropy(&t, dance_relation::attr("pi_x")).unwrap();
        prop_assert!(corr_self >= 0.0);
        prop_assert!(corr_self <= h_cum + 1e-9, "corr {} > h {}", corr_self, h_cum);
    }
}
