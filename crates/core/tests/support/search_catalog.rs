// Random search catalogs shared by the in-crate MCMC tests
// (`src/mcmc.rs`) and `tests/props.rs`; each `include!`s this file inside
// its own module, so the imports below stay local to it.

use dance_market::{DatasetId, DatasetMeta};
use dance_relation::{AttrSet, Table, Value, ValueType};
use proptest::prelude::*;

/// Random 3-instance catalogs shaped for the MCMC search: both path edges
/// share **two** attributes (one Int, one Str, both with NULLs and private
/// per-table dictionaries), so every edge has 3 candidate join sets and the
/// walk actually proposes flips; instance 0 carries the source attribute,
/// instance 2 the target.
pub fn arb_search_catalog() -> impl Strategy<Value = (Vec<DatasetMeta>, Vec<Table>)> {
    (2usize..7, 8usize..40, 0u64..500).prop_map(|(k, n, seed)| {
        let mk_key = |h: u64, shift: u32, idx: usize| {
            let v = (h >> shift) % (k as u64 + 1);
            (
                if v == 0 {
                    Value::Null
                } else {
                    Value::Int(v as i64)
                },
                if (h >> (shift + 3)).is_multiple_of(k as u64 + 1) {
                    Value::Null
                } else {
                    Value::str(format!("s{}", (h >> (shift + 3)) % (k as u64 + idx as u64)))
                },
            )
        };
        let mut metas = Vec::new();
        let mut samples = Vec::new();
        // d0(ik, sk, src) — d1(ik, sk, jk, jl) — d2(jk, jl, tgt).
        let specs: [(&str, &[(&str, ValueType)]); 3] = [
            (
                "sc_d0",
                &[
                    ("sc_ik", ValueType::Int),
                    ("sc_sk", ValueType::Str),
                    ("sc_src", ValueType::Int),
                ],
            ),
            (
                "sc_d1",
                &[
                    ("sc_ik", ValueType::Int),
                    ("sc_sk", ValueType::Str),
                    ("sc_jk", ValueType::Int),
                    ("sc_jl", ValueType::Str),
                ],
            ),
            (
                "sc_d2",
                &[
                    ("sc_jk", ValueType::Int),
                    ("sc_jl", ValueType::Str),
                    ("sc_tgt", ValueType::Str),
                ],
            ),
        ];
        for (idx, (name, attrs)) in specs.into_iter().enumerate() {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|r| {
                    let h = dance_relation::hash::stable_hash64(seed + idx as u64, &(r as u64));
                    let (ik, sk) = mk_key(h, 0, idx + 1);
                    let (jk, jl) = mk_key(h, 16, idx + 2);
                    match idx {
                        0 => vec![ik, sk, Value::Int((h % 7) as i64)],
                        1 => vec![ik, sk, jk, jl],
                        _ => vec![jk, jl, Value::str(format!("t{}", h % 5))],
                    }
                })
                .collect();
            let t = Table::from_rows(name, attrs, rows).unwrap();
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
