//! End-to-end pins of the selection-vector join pipeline: the
//! late-materialization path must reproduce the oracle's per-hop
//! materializing reference — tables, re-sampling stats, and estimator
//! outputs — bit-exact, at explicit executors and under whatever
//! `DANCE_THREADS` CI sets.

use dance_quality::tane::TaneConfig;
use dance_relation::join::JoinEdge;
use dance_relation::{AttrSet, Executor, InternerRegistry, Table, Value, ValueType};
use dance_sampling::estimators::{estimate_correlation, estimate_quality, SampledPath};
use dance_sampling::resample::{join_tree_bounded, join_tree_bounded_with, ResampleConfig};

fn assert_same_table(a: &Table, b: &Table) {
    assert_eq!(a.name(), b.name());
    assert_eq!(a.schema().attributes(), b.schema().attributes());
    assert_eq!(a.num_rows(), b.num_rows());
    for r in 0..a.num_rows() {
        assert_eq!(a.row(r), b.row(r), "row {r} diverged");
    }
}

/// A 4-table string-keyed chain with NULL keys, duplicate fan-out and a float
/// payload — interned through `reg` when given.
fn chain(reg: Option<&InternerRegistry>) -> Vec<Table> {
    let make = |name: &str, attrs: &[(&str, ValueType)], rows: Vec<Vec<Value>>| match reg {
        Some(reg) => Table::from_rows_interned(reg, name, attrs, rows).unwrap(),
        None => Table::from_rows(name, attrs, rows).unwrap(),
    };
    let a = make(
        "A",
        &[("jp_k1", ValueType::Str), ("jp_x", ValueType::Int)],
        (0..120)
            .map(|i| {
                vec![
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("a{}", i % 15))
                    },
                    Value::Int(i),
                ]
            })
            .collect(),
    );
    let b = make(
        "B",
        &[("jp_k1", ValueType::Str), ("jp_k2", ValueType::Str)],
        (0..90)
            .map(|i| {
                vec![
                    Value::str(format!("a{}", i % 20)),
                    Value::str(format!("b{}", i % 9)),
                ]
            })
            .collect(),
    );
    let c = make(
        "C",
        &[("jp_k2", ValueType::Str), ("jp_k3", ValueType::Int)],
        (0..60)
            .map(|i| vec![Value::str(format!("b{}", i % 12)), Value::Int(i % 7)])
            .collect(),
    );
    let d = make(
        "D",
        &[("jp_k3", ValueType::Int), ("jp_w", ValueType::Float)],
        (0..40)
            .map(|i| vec![Value::Int(i % 7), Value::Float(i as f64 / 3.0)])
            .collect(),
    );
    vec![a, b, c, d]
}

fn chain_edges() -> Vec<JoinEdge> {
    vec![
        JoinEdge {
            a: 0,
            b: 1,
            on: AttrSet::from_names(["jp_k1"]),
        },
        JoinEdge {
            a: 1,
            b: 2,
            on: AttrSet::from_names(["jp_k2"]),
        },
        JoinEdge {
            a: 2,
            b: 3,
            on: AttrSet::from_names(["jp_k3"]),
        },
    ]
}

/// Selection pipeline == per-hop pipeline: joined table and §3.2 stats, with
/// and without re-sampling, shared and private dictionaries, at explicit
/// forced-chunking executors.
#[test]
fn bounded_tree_join_matches_materializing_reference() {
    let reg = InternerRegistry::new();
    for tables in [chain(None), chain(Some(&reg))] {
        let refs: Vec<&Table> = tables.iter().collect();
        for cfg in [
            None,
            Some(ResampleConfig {
                eta: 100,
                rate: 0.5,
                seed: 42,
            }),
            Some(ResampleConfig {
                eta: 10,
                rate: 0.25,
                seed: 7,
            }),
        ] {
            let (reference, ref_stats) =
                dance_oracle::join_tree_bounded(&refs, &chain_edges(), cfg.as_ref()).unwrap();
            let (late, stats) = join_tree_bounded(&refs, &chain_edges(), cfg.as_ref()).unwrap();
            assert_same_table(&late, &reference);
            assert_eq!(stats, ref_stats);
            for threads in [1usize, 4] {
                let exec = Executor::with_grain(threads, 1);
                let (late, stats) =
                    join_tree_bounded_with(&exec, &refs, &chain_edges(), cfg.as_ref()).unwrap();
                assert_same_table(&late, &reference);
                assert_eq!(stats, ref_stats);
            }
        }
    }
}

/// A `SampledPath`'s estimator outputs are unchanged by late materialization:
/// ĈORR and Q̂ on the selection-joined path equal the per-hop reference
/// bit-for-bit.
#[test]
fn sampled_path_estimator_outputs_pinned() {
    let tables = chain(None);
    let refs: Vec<&Table> = tables.iter().collect();
    let resample = Some(ResampleConfig {
        eta: 150,
        rate: 0.5,
        seed: 3,
    });
    for seed in [1u64, 9, 23] {
        let path = SampledPath::from_tables(&refs, &chain_edges(), 0.7, seed, resample).unwrap();
        let (late, stats) = path.join().unwrap();
        let sample_refs: Vec<&Table> = path.samples.iter().collect();
        let (reference, ref_stats) =
            dance_oracle::join_tree_bounded(&sample_refs, &path.edges, path.resample.as_ref())
                .unwrap();
        assert_same_table(&late, &reference);
        assert_eq!(stats, ref_stats);
        if late.is_empty() {
            continue;
        }
        let x = AttrSet::from_names(["jp_x"]);
        let y = AttrSet::from_names(["jp_w"]);
        let corr_late = estimate_correlation(&late, &x, &y).unwrap();
        let corr_ref = estimate_correlation(&reference, &x, &y).unwrap();
        assert_eq!(corr_late.to_bits(), corr_ref.to_bits(), "seed {seed}");
        let cfg = TaneConfig {
            error_threshold: 0.2,
            max_lhs: 1,
            max_attrs: 8,
        };
        let q_late = estimate_quality(&late, &cfg).unwrap();
        let q_ref = estimate_quality(&reference, &cfg).unwrap();
        assert_eq!(q_late.to_bits(), q_ref.to_bits(), "seed {seed}");
    }
}
