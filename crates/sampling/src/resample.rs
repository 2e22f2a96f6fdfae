//! Correlated re-sampling of intermediate join results (§3.2).
//!
//! Multi-table joins of samples can still blow up: the join of `p`-rate
//! samples has expected size `p · |D₁ ⋈ D₂|` for shared-key correlated
//! sampling, and a long path multiplies fan-outs. §3.2 bounds this by
//! re-sampling any intermediate result whose size exceeds a threshold `η`
//! with a *fixed re-sampling rate*, and proves (Theorem 3.2) that the ratio
//! estimators stay unbiased regardless of `η`.
//!
//! Re-sampling here is uniform over intermediate rows and deterministic in
//! `(seed, step, row)`, so whole experiments replay bit-for-bit.
//!
//! The bounded join runs on the **selection-vector pipeline**
//! ([`dance_relation::sel`]): every hop composes row-id selections on
//! interned symbols, the size check and the re-sampling filter operate on the
//! composed selection (`TreeSel::num_rows` / `TreeSel::retain`), and one
//! table is materialized at the very end for the estimator. Tests pin the
//! output tables and stats against a per-hop materializing reference.

use dance_relation::hash::{stable_hash64, unit_interval};
use dance_relation::join::JoinEdge;
use dance_relation::sel::{join_tree_late_with, TreeSel};
use dance_relation::{Executor, Result, Table};

/// Configuration of §3.2 re-sampling.
#[derive(Debug, Clone, Copy)]
pub struct ResampleConfig {
    /// Intermediate-size threshold `η`; results larger than this are re-sampled.
    pub eta: usize,
    /// Fixed re-sampling rate applied when the threshold trips.
    pub rate: f64,
    /// Seed for the deterministic row selection.
    pub seed: u64,
}

impl Default for ResampleConfig {
    fn default() -> Self {
        ResampleConfig {
            eta: 100_000,
            rate: 0.5,
            seed: 0xDA_7CE,
        }
    }
}

/// What the bounded join actually did — used by tests and EXPERIMENTS.md.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResampleStats {
    /// How many intermediate results exceeded `η` and were re-sampled.
    pub resampled_steps: usize,
    /// Largest intermediate size *before* any re-sampling.
    pub max_intermediate: usize,
    /// Product of applied re-sampling rates (scale factor for count estimates).
    pub cumulative_rate: f64,
}

/// The §3.2 re-sampling hook at the selection level, factored out of
/// [`join_tree_bounded_with`] so that incremental tree drivers — the MCMC
/// search's cached evaluation engine drives
/// [`dance_relation::sel::TreeJoin`] hop by hop — apply re-sampling with the
/// *same* step numbering and seed derivation as the batch pipeline. Composed
/// selections, stats, and every downstream estimator draw stay byte-identical
/// between the two drivers.
#[derive(Debug)]
pub struct BoundedHook<'a> {
    cfg: Option<&'a ResampleConfig>,
    stats: ResampleStats,
    step: u64,
}

impl<'a> BoundedHook<'a> {
    /// Fresh hook state (step 0, empty stats, cumulative rate 1).
    pub fn new(cfg: Option<&'a ResampleConfig>) -> BoundedHook<'a> {
        BoundedHook {
            cfg,
            stats: ResampleStats {
                cumulative_rate: 1.0,
                ..ResampleStats::default()
            },
            step: 0,
        }
    }

    /// Process one intermediate selection: bump the step counter, record
    /// stats, and re-sample via [`TreeSel::retain`] when the size threshold
    /// trips (seed `cfg.seed ^ step`, exactly as the batch pipeline).
    pub fn apply(&mut self, mut sel: TreeSel) -> TreeSel {
        self.step += 1;
        self.stats.max_intermediate = self.stats.max_intermediate.max(sel.num_rows());
        if let Some(c) = self.cfg {
            if sel.num_rows() > c.eta {
                self.stats.resampled_steps += 1;
                self.stats.cumulative_rate *= c.rate;
                let seed = c.seed ^ self.step;
                let keep: Vec<u32> = (0..sel.num_rows() as u32)
                    .filter(|&r| unit_interval(stable_hash64(seed, &(r as u64))) < c.rate)
                    .collect();
                sel.retain(&keep);
            }
        }
        sel
    }

    /// Stats accumulated so far.
    pub fn stats(&self) -> &ResampleStats {
        &self.stats
    }

    /// Consume the hook, yielding its stats.
    pub fn into_stats(self) -> ResampleStats {
        self.stats
    }
}

/// Join `tables` along `edges` with §3.2 intermediate re-sampling, on the
/// global executor.
///
/// With `cfg = None` this is a plain tree join (the "without re-sampling"
/// branch of Figure 8). Runs on the late-materialization selection pipeline:
/// no intermediate table is ever gathered.
pub fn join_tree_bounded(
    tables: &[&Table],
    edges: &[JoinEdge],
    cfg: Option<&ResampleConfig>,
) -> Result<(Table, ResampleStats)> {
    join_tree_bounded_with(&Executor::global(), tables, edges, cfg)
}

/// [`join_tree_bounded`] on an explicit executor (probe/compose/materialize
/// fan out across its workers; output is bit-identical at every thread
/// count).
pub fn join_tree_bounded_with(
    exec: &Executor,
    tables: &[&Table],
    edges: &[JoinEdge],
    cfg: Option<&ResampleConfig>,
) -> Result<(Table, ResampleStats)> {
    let mut hook = BoundedHook::new(cfg);
    let joined = join_tree_late_with(exec, tables, edges, |sel| hook.apply(sel))?;
    Ok((joined, hook.into_stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_relation::{AttrSet, Table, Value, ValueType};

    /// A chain A(x,y) ⋈ B(y,z) ⋈ C(z,w) with controllable fan-out.
    fn chain(fanout: usize) -> (Table, Table, Table) {
        let a = Table::from_rows(
            "A",
            &[("rs_x", ValueType::Int), ("rs_y", ValueType::Int)],
            (0..50)
                .map(|i| vec![Value::Int(i), Value::Int(i % 10)])
                .collect(),
        )
        .unwrap();
        let b = Table::from_rows(
            "B",
            &[("rs_y", ValueType::Int), ("rs_z", ValueType::Int)],
            (0..10 * fanout)
                .map(|i| vec![Value::Int(i as i64 % 10), Value::Int(i as i64 % 7)])
                .collect(),
        )
        .unwrap();
        let c = Table::from_rows(
            "C",
            &[("rs_z", ValueType::Int), ("rs_w", ValueType::Int)],
            (0..7)
                .map(|i| vec![Value::Int(i), Value::Int(i * 11)])
                .collect(),
        )
        .unwrap();
        (a, b, c)
    }

    fn edges() -> Vec<JoinEdge> {
        vec![
            JoinEdge {
                a: 0,
                b: 1,
                on: AttrSet::from_names(["rs_y"]),
            },
            JoinEdge {
                a: 1,
                b: 2,
                on: AttrSet::from_names(["rs_z"]),
            },
        ]
    }

    #[test]
    fn no_config_means_plain_join() {
        let (a, b, c) = chain(4);
        let (j, stats) = join_tree_bounded(&[&a, &b, &c], &edges(), None).unwrap();
        assert_eq!(stats.resampled_steps, 0);
        assert_eq!(stats.cumulative_rate, 1.0);
        assert!(j.num_rows() > 0);
        assert!(stats.max_intermediate >= j.num_rows() / 2);
    }

    #[test]
    fn threshold_triggers_resampling() {
        let (a, b, c) = chain(8); // A⋈B has 50·8 = 400 rows
        let cfg = ResampleConfig {
            eta: 100,
            rate: 0.25,
            seed: 1,
        };
        let (bounded, stats) = join_tree_bounded(&[&a, &b, &c], &edges(), Some(&cfg)).unwrap();
        assert!(stats.resampled_steps >= 1, "{stats:?}");
        assert!(stats.cumulative_rate < 1.0);
        let (full, _) = join_tree_bounded(&[&a, &b, &c], &edges(), None).unwrap();
        assert!(bounded.num_rows() < full.num_rows());
    }

    #[test]
    fn big_eta_never_triggers() {
        let (a, b, c) = chain(8);
        let cfg = ResampleConfig {
            eta: 10_000_000,
            rate: 0.25,
            seed: 1,
        };
        let (bounded, stats) = join_tree_bounded(&[&a, &b, &c], &edges(), Some(&cfg)).unwrap();
        assert_eq!(stats.resampled_steps, 0);
        let (full, _) = join_tree_bounded(&[&a, &b, &c], &edges(), None).unwrap();
        assert_eq!(bounded.num_rows(), full.num_rows());
    }

    #[test]
    fn deterministic_replay() {
        let (a, b, c) = chain(8);
        let cfg = ResampleConfig {
            eta: 100,
            rate: 0.5,
            seed: 42,
        };
        let (j1, s1) = join_tree_bounded(&[&a, &b, &c], &edges(), Some(&cfg)).unwrap();
        let (j2, s2) = join_tree_bounded(&[&a, &b, &c], &edges(), Some(&cfg)).unwrap();
        assert_eq!(j1.num_rows(), j2.num_rows());
        assert_eq!(s1, s2);
    }

    /// Theorem 3.2 sanity: the *fraction* of rows with a given property is an
    /// unbiased estimate under re-sampling — check the mean over seeds is
    /// close to the full-join fraction.
    #[test]
    fn ratio_estimates_concentrate() {
        let (a, b, c) = chain(10);
        let (full, _) = join_tree_bounded(&[&a, &b, &c], &edges(), None).unwrap();
        let frac_full = fraction_w_zero(&full);
        let mut mean = 0.0;
        let seeds = 30;
        for seed in 0..seeds {
            let cfg = ResampleConfig {
                eta: 120,
                rate: 0.5,
                seed,
            };
            let (bounded, stats) = join_tree_bounded(&[&a, &b, &c], &edges(), Some(&cfg)).unwrap();
            assert!(stats.resampled_steps > 0);
            mean += fraction_w_zero(&bounded);
        }
        mean /= seeds as f64;
        assert!(
            (mean - frac_full).abs() < 0.05,
            "mean over seeds {mean} vs full {frac_full}"
        );
    }

    fn fraction_w_zero(t: &Table) -> f64 {
        let col = t.attr_indices(&AttrSet::from_names(["rs_w"])).unwrap()[0];
        let zeros = (0..t.num_rows())
            .filter(|&r| t.value(r, col) == Value::Int(0))
            .count();
        zeros as f64 / t.num_rows().max(1) as f64
    }
}
