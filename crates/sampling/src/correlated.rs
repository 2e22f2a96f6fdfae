//! Correlated sampling (Vengerov et al. \[30\], §3 of the paper).
//!
//! For a tuple `t` with join-key value `t[J]`, include `t` in the sample iff
//! `h(t[J]) ≤ p`, where `h` maps key values uniformly into `[0, 1)` and `p`
//! is the sampling rate. The hash is **shared across tables** (same seed), so
//! for any key value either *all* carriers of that value survive in every
//! table or none do — joins of samples are exactly the sampled joins, the
//! property behind the unbiasedness of the §3 estimators.

use dance_relation::hash::{stable_hash64, unit_interval, FxHasher};
use dance_relation::{group_ids, AttrSet, ColumnCells, Result, Table, Value};
use std::hash::Hasher;

/// Deterministic correlated sampler: `rate` ∈ \[0, 1\], shared `seed`.
#[derive(Debug, Clone, Copy)]
pub struct CorrelatedSampler {
    /// Sampling rate `p`: expected fraction of *key values* kept.
    pub rate: f64,
    /// Hash seed; two samplers correlate iff their seeds are equal.
    pub seed: u64,
}

impl CorrelatedSampler {
    /// Construct (clamps rate into `\[0, 1\]`).
    pub fn new(rate: f64, seed: u64) -> CorrelatedSampler {
        CorrelatedSampler {
            rate: rate.clamp(0.0, 1.0),
            seed,
        }
    }

    /// The inclusion score of one key (uniform in `[0,1)` over keys).
    ///
    /// Depends only on the key's *values* (strings, not dictionary codes), so
    /// it is identical across tables, registries and runs — the property
    /// correlated sampling rests on. [`Self::sample`] computes the same score
    /// straight off the columnar storage; the two paths are pinned
    /// bit-identical by `columnar_scores_match_value_scores`.
    pub fn score(&self, key: &[dance_relation::Value]) -> f64 {
        unit_interval(stable_hash64(self.seed, key))
    }

    /// Sample `t` on join attributes `key_attrs` (the `t[J]` of §3).
    ///
    /// Rows whose key hashes below `rate` survive; duplicates of a key live or
    /// die together, here and in every other table sampled with the same seed.
    ///
    /// Duplicates share their key's fate by construction, so the key is
    /// scored once per *distinct* group (via the dense group-id kernel)
    /// rather than once per row — the per-row work is a `u32` table lookup.
    /// Scoring streams each group's representative cells into the seeded
    /// hasher directly (dictionary strings resolved under one read lock), so
    /// no boxed key is materialized; the byte stream fed to the hasher is
    /// exactly what hashing the materialized `[Value]` key would feed, so the
    /// kept set equals scoring every row.
    pub fn sample(&self, t: &Table, key_attrs: &AttrSet) -> Result<Table> {
        let g = group_ids(t, key_attrs)?;
        let cols = t.attr_indices(key_attrs)?;
        let cells: Vec<ColumnCells<'_>> = cols.iter().map(|&c| t.column(c).cells()).collect();
        let group_kept: Vec<bool> = g
            .representatives()
            .into_iter()
            .map(|rep| self.score_row(t, &cols, &cells, rep as usize) < self.rate)
            .collect();
        let keep: Vec<u32> = g
            .ids()
            .iter()
            .enumerate()
            .filter(|&(_, &gid)| group_kept[gid as usize])
            .map(|(r, _)| r as u32)
            .collect();
        Ok(t.gather(&keep)
            .with_name(format!("{}@{:.2}", t.name(), self.rate)))
    }

    /// Columnar twin of [`Self::score`]: reproduces, write for write, what
    /// `stable_hash64(seed, &[Value])` feeds the hasher (slice length prefix,
    /// then [`Value`]'s tag + payload per cell).
    fn score_row(&self, t: &Table, cols: &[usize], cells: &[ColumnCells<'_>], row: usize) -> f64 {
        let mut h = FxHasher::with_seed(self.seed);
        h.write_usize(cols.len());
        for (&c, cell) in cols.iter().zip(cells) {
            if t.column(c).is_null(row) {
                h.write_u8(0);
                continue;
            }
            match cell {
                ColumnCells::Int(v) => {
                    h.write_u8(1);
                    h.write_u64(v[row] as u64);
                }
                ColumnCells::Float(v) => {
                    h.write_u8(2);
                    h.write_u64(Value::canonical_bits(v[row]));
                }
                ColumnCells::Str(codes, dict) => {
                    h.write_u8(3);
                    h.write(dict.get(codes[row]).as_bytes());
                }
            }
        }
        unit_interval(dance_relation::hash::splitmix64(h.finish()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::join::{hash_join, JoinKind};
    use dance_relation::{Table, Value, ValueType};

    fn keyed_table(name: &str, attr: &str, n: usize, dup: usize) -> Table {
        let rows = (0..n)
            .flat_map(|k| {
                (0..dup).map(move |d| vec![Value::Int(k as i64), Value::Int((k * 100 + d) as i64)])
            })
            .collect();
        Table::from_rows(
            name,
            &[
                (attr, ValueType::Int),
                (&format!("{attr}_payload_{name}"), ValueType::Int),
            ],
            rows,
        )
        .unwrap()
    }

    /// Golden scores: a hasher edit that moved them would silently move
    /// every correlated sample and everything estimated from it.
    #[test]
    fn scores_are_pinned() {
        let s = CorrelatedSampler::new(0.3, 7);
        let cases = [
            (vec![Value::Int(1)], 0x3fe3_51cb_a8f7_3679u64),
            (vec![Value::str("BUILDING")], 0x3fe9_3c29_0abe_cecf),
            (
                vec![Value::Float(1234.56), Value::Int(17)],
                0x3fb1_5ed9_ca7d_bd68,
            ),
            (vec![Value::Null, Value::str("ASIA")], 0x3feb_0741_06fb_0101),
        ];
        for (key, bits) in cases {
            assert_eq!(s.score(&key).to_bits(), bits, "{key:?}");
        }
    }

    #[test]
    fn rate_zero_and_one() {
        let t = keyed_table("t", "cs_k", 50, 2);
        let s = CorrelatedSampler::new(0.0, 7);
        assert_eq!(
            s.sample(&t, &AttrSet::from_names(["cs_k"]))
                .unwrap()
                .num_rows(),
            0
        );
        let s = CorrelatedSampler::new(1.0, 7);
        assert_eq!(
            s.sample(&t, &AttrSet::from_names(["cs_k"]))
                .unwrap()
                .num_rows(),
            t.num_rows()
        );
    }

    #[test]
    fn keys_live_or_die_together() {
        let t = keyed_table("t", "cs_k", 100, 3);
        let s = CorrelatedSampler::new(0.5, 11);
        let sample = s.sample(&t, &AttrSet::from_names(["cs_k"])).unwrap();
        // Every surviving key must appear exactly `dup` times.
        let g = group_ids(&sample, &AttrSet::from_names(["cs_k"])).unwrap();
        for (rep, c) in g.representatives().into_iter().zip(g.counts()) {
            assert_eq!(c, 3, "key of row {rep} survived partially");
        }
    }

    #[test]
    fn sampling_is_deterministic_and_seed_sensitive() {
        let t = keyed_table("t", "cs_k", 200, 1);
        let on = AttrSet::from_names(["cs_k"]);
        let a = CorrelatedSampler::new(0.3, 1).sample(&t, &on).unwrap();
        let b = CorrelatedSampler::new(0.3, 1).sample(&t, &on).unwrap();
        assert_eq!(a.num_rows(), b.num_rows());
        let c = CorrelatedSampler::new(0.3, 2).sample(&t, &on).unwrap();
        // Overwhelmingly likely to differ.
        let keys = |t: &Table| {
            (0..t.num_rows())
                .map(|r| t.value(r, 0))
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_ne!(keys(&a), keys(&c));
    }

    #[test]
    fn expected_rate_is_honored() {
        let t = keyed_table("t", "cs_k", 2000, 1);
        let s = CorrelatedSampler::new(0.25, 3);
        let got = s.sample(&t, &AttrSet::from_names(["cs_k"])).unwrap();
        let frac = got.num_rows() as f64 / t.num_rows() as f64;
        assert!((frac - 0.25).abs() < 0.05, "frac = {frac}");
    }

    /// The defining property: join of samples == correlated sample of the join.
    #[test]
    fn join_of_samples_equals_sample_of_join() {
        let l = keyed_table("L", "cs_j", 300, 2);
        let r = keyed_table("R", "cs_j", 300, 1);
        let on = AttrSet::from_names(["cs_j"]);
        let s = CorrelatedSampler::new(0.4, 99);

        let sl = s.sample(&l, &on).unwrap();
        let sr = s.sample(&r, &on).unwrap();
        let join_of_samples = hash_join(&sl, &sr, &on, JoinKind::Inner).unwrap();

        let full_join = hash_join(&l, &r, &on, JoinKind::Inner).unwrap();
        let cols = full_join.attr_indices(&on).unwrap();
        let key =
            |row: usize| -> Vec<Value> { cols.iter().map(|&c| full_join.value(row, c)).collect() };
        let sampled_join = full_join.filter(|row| s.score(&key(row)) < 0.4);

        assert_eq!(join_of_samples.num_rows(), sampled_join.num_rows());
    }

    #[test]
    fn multi_attribute_keys_supported() {
        let t = Table::from_rows(
            "m",
            &[("cs_k1", ValueType::Int), ("cs_k2", ValueType::Str)],
            (0..100)
                .map(|i| vec![Value::Int(i % 10), Value::str(["p", "q"][i as usize % 2])])
                .collect(),
        )
        .unwrap();
        let s = CorrelatedSampler::new(0.5, 5);
        let sample = s
            .sample(&t, &AttrSet::from_names(["cs_k1", "cs_k2"]))
            .unwrap();
        assert!(sample.num_rows() < t.num_rows());
        assert!(sample.num_rows() > 0);
    }

    #[test]
    fn missing_key_attr_is_error() {
        let t = keyed_table("t", "cs_k", 10, 1);
        let s = CorrelatedSampler::new(0.5, 5);
        assert!(s.sample(&t, &AttrSet::from_names(["cs_absent"])).is_err());
    }

    /// The columnar scoring path must feed the hasher exactly what hashing
    /// the materialized `[Value]` key feeds it — across every type, NULLs,
    /// float canonicalization, and regardless of dictionary sharing.
    #[test]
    fn columnar_scores_match_value_scores() {
        let t = Table::from_rows(
            "mix",
            &[
                ("csc_s", ValueType::Str),
                ("csc_i", ValueType::Int),
                ("csc_f", ValueType::Float),
            ],
            vec![
                vec![Value::str("u"), Value::Int(1), Value::Float(0.5)],
                vec![Value::str("v"), Value::Null, Value::Float(-0.0)],
                vec![Value::Null, Value::Int(-7), Value::Float(f64::NAN)],
                vec![Value::str("u"), Value::Int(1), Value::Null],
                vec![Value::str(""), Value::Int(0), Value::Float(0.0)],
            ],
        )
        .unwrap();
        let reg = dance_relation::InternerRegistry::new();
        for table in [t.clone(), t.intern_into(&reg)] {
            let on = AttrSet::from_names(["csc_s", "csc_i", "csc_f"]);
            let s = CorrelatedSampler::new(0.5, 99);
            let g = dance_relation::group_ids(&table, &on).unwrap();
            let cols = table.attr_indices(&on).unwrap();
            let cells: Vec<ColumnCells<'_>> =
                cols.iter().map(|&c| table.column(c).cells()).collect();
            for rep in g.representatives() {
                let columnar = s.score_row(&table, &cols, &cells, rep as usize);
                let key: Vec<Value> = cols.iter().map(|&c| table.value(rep as usize, c)).collect();
                let keyed = s.score(&key);
                assert_eq!(columnar.to_bits(), keyed.to_bits(), "row {rep}");
            }
        }
    }

    /// Interning must not change which rows a sampler keeps (scores hash
    /// string values, not dictionary codes).
    #[test]
    fn interned_sample_equals_plain_sample() {
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|i| vec![Value::str(format!("k{}", i % 60)), Value::Int(i)])
            .collect();
        let t = Table::from_rows(
            "p",
            &[("csi_k", ValueType::Str), ("csi_v", ValueType::Int)],
            rows,
        )
        .unwrap();
        let reg = dance_relation::InternerRegistry::new();
        // Pre-populate the shared dictionary in a different order so codes
        // genuinely differ from the per-column dictionary's.
        for i in (0..60).rev() {
            reg.dict_for(dance_relation::attr("csi_k"))
                .intern(&format!("k{i}"));
        }
        let it = t.intern_into(&reg);
        let on = AttrSet::from_names(["csi_k"]);
        let s = CorrelatedSampler::new(0.4, 17);
        let a = s.sample(&t, &on).unwrap();
        let b = s.sample(&it, &on).unwrap();
        assert_eq!(a.num_rows(), b.num_rows());
        for r in 0..a.num_rows() {
            assert_eq!(a.row(r), b.row(r));
        }
    }
}
