//! Delta-based incremental catalog maintenance.
//!
//! A marketplace dataset rarely changes wholesale: sellers append rows,
//! retract rows, correct values. Before this module the join graph's only
//! answer was [`JoinGraph::refresh_sample`] — swap the sample and recount
//! everything the instance touches (histograms, JI weights, pair
//! selections). [`JoinGraph::apply_delta`] folds a [`TableDelta`] into all
//! of that state **in place**:
//!
//! * the sample table is patched (survivor gather + row-major appends, so
//!   inserted strings intern in exactly the order a full rebuild would —
//!   the code spaces of the delta path and the rebuild path are identical);
//! * every cached histogram of the instance is patched per changed group
//!   ([`dance_relation::SymCounts::apply_delta`], O(delta) each), yielding
//!   the net per-key change lists downstream consumers fold;
//! * incident-edge JI weights are re-derived from materialized per-pair-
//!   category partial sums ([`PairPartials`]) patched by those change lists
//!   — an O(changed categories) update of the category table, folded in the
//!   same canonical order as [`ji_from_sym_counts`];
//! * cached pair selections touching the instance are *patched*, not
//!   rebuilt ([`dance_relation::PairSel::patch_probe`] /
//!   [`dance_relation::PairSel::patch_build`]) and re-keyed to the new
//!   sample generation; untouched instances' evaluation-cache entries
//!   survive verbatim because their generations did not move.
//!
//! Everything stays **bit-identical** to a full [`JoinGraph::refresh_sample`]
//! with the equivalently patched table: same weights, same cached
//! selections, same downstream seeded search results. The win is purely
//! algorithmic — O(delta) patching instead of O(sample) recounting — and
//! the whole update runs on the calling thread, whatever executor the graph
//! was built with: per-update work this small loses to the cost of
//! spawning workers.

use crate::join_graph::JoinGraph;
use dance_info::ji::PairPartials;
use dance_relation::{AttrSet, Executor, FxHashMap, Result, SymKey, TableDelta};
use std::sync::Arc;

impl JoinGraph {
    /// Fold `delta` into instance `i`'s sample and every piece of derived
    /// state the graph holds for it, in O(delta) per maintained structure.
    ///
    /// Equivalent to a full [`JoinGraph::refresh_sample`] over the patched
    /// table bit-for-bit (weights, caches, subsequent seeded searches), except
    /// that evaluation-cache entries touching `i` are patched to the new
    /// sample generation instead of evicted, and histograms are patched
    /// instead of recounted. An empty delta is a no-op (the generation does
    /// not move, so every cache entry stays warm); an out-of-range `i` is
    /// `UnknownDataset`, with nothing changed.
    pub fn apply_delta(&mut self, i: u32, delta: &TableDelta) -> Result<()> {
        self.check_instance(i)?;
        if delta.is_empty() {
            return Ok(());
        }
        let ii = i as usize;
        let n_before = self.samples[ii].num_rows();
        let kept = delta.kept(n_before)?;
        let remap = delta.remap(n_before)?;
        let n_surv = kept.len();

        // Patch the sample table first: inserted rows intern their string
        // payloads row-major through the shared dictionaries, exactly as a
        // rebuild over the patched table would, so every later patching step
        // sees the final code space and interns nothing new.
        let after = self.samples[ii].apply_delta(delta)?;

        // Patch every cached histogram of the instance, collecting the
        // per-candidate net change lists the partial-sum tables fold. The
        // histograms are drained and re-inserted only once all are patched,
        // so a failed patch leaves none of them stale. The cache holds the
        // only handle outside a round, so `make_mut` patches in place.
        let mut changed: FxHashMap<AttrSet, Vec<(SymKey, i64)>> = FxHashMap::default();
        let mut patched = self.hists.take_matching(|&(v, _)| v == i);
        for ((_, cand), hist) in &mut patched {
            let ch = Arc::make_mut(hist).apply_delta(&self.samples[ii], cand, delta)?;
            changed.insert(cand.clone(), ch);
        }
        for (key, hist) in patched {
            self.hists.insert(key, hist);
        }

        // Patch cached pair selections touching `i` and re-key them to the
        // new generation (oldest first, preserving relative LRU age).
        // Partner samples are untouched, so one `patch_probe`/`patch_build`
        // per entry reuses the surviving match lists and joins only the
        // appended tail. Self-join entries would need both sides patched at
        // once; they are simply dropped and recomputed on the next miss.
        let gen_new = self.gens[ii] + 1;
        {
            let taken = self
                .sel_cache
                .take_matching(|&(p, _, b, _, _)| p == i || b == i);
            for ((p, pg, b, bg, on), old) in taken {
                if p == b {
                    continue;
                }
                let (key, patched) = if p == i {
                    let patched = old.patch_probe(&kept, &after, &self.samples[b as usize], &on)?;
                    ((p, gen_new, b, bg, on), patched)
                } else {
                    let patched =
                        old.patch_build(&remap, &self.samples[p as usize], &after, n_surv, &on)?;
                    ((p, pg, b, gen_new, on), patched)
                };
                self.sel_cache.insert(key, Arc::new(patched));
            }
        }

        // Swap in the patched sample and bump the generation. Projection /
        // price entries and memoized evaluations touching `i` are stale and
        // unreachable under the new generation; dropping them eagerly is a
        // memory courtesy only.
        self.samples[ii] = after;
        self.gens[ii] = gen_new;
        self.proj_cache.retain(|&(v, _, _)| v != i);
        self.eval_memo.retain(|(scope, _)| !scope.touches(i));

        // Maintain the per-pair-category partial sums: fold the change list
        // where one exists (the instance-side histogram was patched), else
        // rebuild from the two cached histograms. Directly-comparable pairs
        // only — private-dictionary pairs keep the translation fallback. A
        // pair whose table the `partials_cache_cap` bound evicted, or whose
        // histograms the `hist_cache_cap` bound evicted, is left without a
        // table; the re-weigh round below then folds its (recounted)
        // histograms instead. Either path produces the identical bits.
        let incident: Vec<u32> = self.adj[ii].clone();
        for &e in &incident {
            let (a, b) = (self.i_edges[e as usize].a, self.i_edges[e as usize].b);
            for cand in &self.candidates[e as usize] {
                let key = (a, b, cand.clone());
                if let (Some(ch), Some(p)) = (changed.get(cand), self.partials.get_mut(&key)) {
                    if i == a {
                        p.update_left(ch);
                    } else {
                        p.update_right(ch);
                    }
                    continue;
                }
                self.partials.remove(&key);
                let ha = self.hists.peek(&(a, cand.clone()));
                let hb = self.hists.peek(&(b, cand.clone()));
                if let Some(p) = ha.zip(hb).and_then(|(ha, hb)| PairPartials::new(ha, hb)) {
                    self.partials.insert(key, p);
                }
            }
        }

        // Re-weigh incident edges through the shared round, which folds the
        // maintained category tables wherever they exist. It runs on the
        // calling thread: the round only folds patched histograms, too
        // little work to pay for spawning workers.
        self.reweigh(&incident, Executor::new(1))
    }
}

#[cfg(test)]
mod tests {
    use crate::join_graph::{JoinGraph, JoinGraphConfig};
    use dance_market::{DatasetId, DatasetMeta, EntropyPricing};
    use dance_relation::{AttrSet, Executor, RelationError, Table, TableDelta, Value, ValueType};

    fn inst(
        name: &str,
        attrs: &[(&str, ValueType)],
        rows: Vec<Vec<Value>>,
    ) -> (DatasetMeta, Table) {
        let t = Table::from_rows(name, attrs, rows).unwrap();
        let meta = DatasetMeta {
            id: DatasetId(0),
            name: name.into(),
            schema: t.schema().clone(),
            num_rows: t.num_rows(),
            default_key: AttrSet::singleton(t.schema().attributes()[0].id),
            version: 0,
        };
        (meta, t)
    }

    /// Four instances: A–B share {dl_k, dl_s}, C–D share {dl_m}; A and C
    /// are disconnected, so a delta to A must leave C/D state untouched.
    fn catalog() -> (Vec<DatasetMeta>, Vec<Table>) {
        let a_rows: Vec<Vec<Value>> = (0..60)
            .map(|r| {
                let k = if r % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int(r % 7)
                };
                vec![k, Value::str(format!("s{}", r % 5)), Value::Int(r)]
            })
            .collect();
        let b_rows: Vec<Vec<Value>> = (0..40)
            .map(|r| {
                vec![
                    Value::Int(r % 9),
                    Value::str(format!("s{}", r % 4)),
                    Value::Int(r * 3),
                ]
            })
            .collect();
        let (ma, ta) = inst(
            "A",
            &[
                ("dl_k", ValueType::Int),
                ("dl_s", ValueType::Str),
                ("dl_x", ValueType::Int),
            ],
            a_rows,
        );
        let (mb, tb) = inst(
            "B",
            &[
                ("dl_k", ValueType::Int),
                ("dl_s", ValueType::Str),
                ("dl_y", ValueType::Int),
            ],
            b_rows,
        );
        let (mc, tc) = inst(
            "C",
            &[("dl_m", ValueType::Int), ("dl_u", ValueType::Int)],
            (0..30)
                .map(|r| vec![Value::Int(r % 6), Value::Int(r)])
                .collect(),
        );
        let (md, td) = inst(
            "D",
            &[("dl_m", ValueType::Int), ("dl_v", ValueType::Int)],
            (0..20)
                .map(|r| vec![Value::Int(r % 5), Value::Int(r * 2)])
                .collect(),
        );
        let mut metas = vec![ma, mb, mc, md];
        for (i, m) in metas.iter_mut().enumerate() {
            m.id = DatasetId(i as u32);
        }
        (metas, vec![ta, tb, tc, td])
    }

    /// Deletes (including a NULL-key row), a verbatim re-insert, and a
    /// brand-new string symbol — the cases that stress net-zero cancelling
    /// and delta-time interning.
    fn churny_delta() -> TableDelta {
        TableDelta::new(
            vec![
                vec![Value::Int(3), Value::str("s1"), Value::Int(500)],
                vec![Value::Null, Value::str("s_brand_new"), Value::Int(501)],
                vec![Value::Int(100), Value::str("s0"), Value::Int(502)],
            ],
            vec![0, 7, 21, 22, 59],
        )
    }

    fn build(metas: Vec<DatasetMeta>, samples: Vec<Table>) -> JoinGraph {
        JoinGraph::build(
            metas,
            samples,
            EntropyPricing::default(),
            &JoinGraphConfig {
                executor: Executor::new(4),
                ..JoinGraphConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn apply_delta_matches_full_refresh_bit_exact() {
        let (metas, samples) = catalog();
        let mut g_delta = build(metas.clone(), samples.clone());
        let mut g_full = build(metas, samples);
        let delta = churny_delta();

        let patched = g_full.sample(0).apply_delta(&delta).unwrap();
        g_delta.apply_delta(0, &delta).unwrap();
        g_full.refresh_sample(0, patched).unwrap();

        assert_eq!(g_delta.sample(0).num_rows(), g_full.sample(0).num_rows());
        for e in 0..g_delta.i_edges().len() {
            let (a, b) = (g_delta.i_edges()[e].a, g_delta.i_edges()[e].b);
            assert_eq!(
                g_delta.i_edges()[e].weight.to_bits(),
                g_full.i_edges()[e].weight.to_bits(),
                "edge ({a}, {b}) weight diverged"
            );
            for cand in g_delta.candidate_join_sets(a, b) {
                assert_eq!(
                    g_delta.weight(a, b, cand).unwrap().to_bits(),
                    g_full.weight(a, b, cand).unwrap().to_bits()
                );
            }
        }
        // Cached (patched) selections equal fresh ones over the new samples.
        let on = AttrSet::from_names(["dl_k", "dl_s"]);
        let fresh = dance_relation::pair_sel(g_full.sample(0), g_full.sample(1), &on).unwrap();
        let cached = g_delta.pair_sel(0, 1, &on).unwrap();
        assert_eq!(cached.num_matches(), fresh.num_matches());
        for l in 0..fresh.num_left() as u32 {
            assert_eq!(cached.matches_of(l), fresh.matches_of(l));
        }
    }

    #[test]
    fn second_delta_folds_through_maintained_partials() {
        // The first delta builds the partial-sum tables lazily; the second
        // exercises the O(changed categories) update path against a fresh
        // ground-truth build.
        let (metas, samples) = catalog();
        let mut g = build(metas.clone(), samples.clone());
        let d1 = churny_delta();
        g.apply_delta(0, &d1).unwrap();
        assert!(g.partials_len() > 0, "first delta materialized partials");

        let d2 = TableDelta::new(
            vec![vec![
                Value::Int(2),
                Value::str("s_brand_new"),
                Value::Int(9),
            ]],
            vec![2, 3, 57],
        );
        g.apply_delta(0, &d2).unwrap();

        let truth_sample = samples[0]
            .apply_delta(&d1)
            .unwrap()
            .apply_delta(&d2)
            .unwrap();
        let mut truth_samples = samples;
        truth_samples[0] = truth_sample;
        let truth = build(metas, truth_samples);
        for e in truth.i_edges() {
            for cand in truth.candidate_join_sets(e.a, e.b) {
                assert_eq!(
                    g.weight(e.a, e.b, cand).unwrap().to_bits(),
                    truth.weight(e.a, e.b, cand).unwrap().to_bits()
                );
            }
        }
    }

    /// The `partials_cache_cap` bound holds across consecutive delta waves,
    /// and a capped (even fully disabled) partial-sum table never changes a
    /// weight bit: evicted pairs fall back to the patched-histogram fold,
    /// which is bit-identical to the maintained category table.
    #[test]
    fn partials_cap_holds_across_delta_waves_bit_equal() {
        let (metas, samples) = catalog();
        let mut unbounded = build(metas.clone(), samples.clone());
        let waves = [
            churny_delta(),
            TableDelta::new(
                vec![vec![
                    Value::Int(2),
                    Value::str("s_brand_new"),
                    Value::Int(9),
                ]],
                vec![2, 3, 57],
            ),
            TableDelta::new(
                vec![vec![Value::Int(5), Value::str("s2"), Value::Int(600)]],
                vec![0, 1],
            ),
        ];
        for d in &waves {
            unbounded.apply_delta(0, d).unwrap();
        }
        assert!(
            unbounded.partials_len() > 0,
            "default cap keeps the maintained tables resident"
        );
        for cap in [0usize, 1, 2] {
            let mut g = JoinGraph::build(
                metas.clone(),
                samples.clone(),
                EntropyPricing::default(),
                &JoinGraphConfig {
                    executor: Executor::new(4),
                    partials_cache_cap: cap,
                    ..JoinGraphConfig::default()
                },
            )
            .unwrap();
            for (wave, d) in waves.iter().enumerate() {
                g.apply_delta(0, d).unwrap();
                assert!(
                    g.partials_len() <= cap,
                    "partials cap {cap} violated after wave {wave}: {}",
                    g.partials_len()
                );
                assert_eq!(
                    g.sample(0).num_rows(),
                    unbounded_rows_after(&samples, &waves[..=wave])
                );
            }
            for e in unbounded.i_edges() {
                for cand in unbounded.candidate_join_sets(e.a, e.b) {
                    assert_eq!(
                        g.weight(e.a, e.b, cand).unwrap().to_bits(),
                        unbounded.weight(e.a, e.b, cand).unwrap().to_bits(),
                        "cap {cap} drifted the weight of ({}, {}) on {cand}",
                        e.a,
                        e.b
                    );
                }
            }
        }
    }

    fn unbounded_rows_after(samples: &[Table], waves: &[TableDelta]) -> usize {
        let mut t = samples[0].clone();
        for d in waves {
            t = t.apply_delta(d).unwrap();
        }
        t.num_rows()
    }

    /// Satellite: evaluation-cache entries of untouched instances survive a
    /// delta to a different instance — and entries touching the patched one
    /// are re-keyed (selections) or dropped (projections), never served
    /// stale.
    #[test]
    fn untouched_instances_cache_entries_survive() {
        let (metas, samples) = catalog();
        let mut g = build(metas, samples);
        let on_ab = AttrSet::from_names(["dl_k"]);
        let on_cd = AttrSet::from_names(["dl_m"]);
        g.pair_sel(0, 1, &on_ab).unwrap();
        g.pair_sel(2, 3, &on_cd).unwrap();
        g.price_for_eval(2, &on_cd, None).unwrap();
        g.projected_for_eval(2, &on_cd, None).unwrap();
        g.price_for_eval(0, &on_ab, None).unwrap();
        assert_eq!((g.sel_cache_len(), g.proj_cache_len()), (2, 2));
        let (gen2, gen3) = (g.sample_gen(2), g.sample_gen(3));

        g.apply_delta(0, &churny_delta()).unwrap();

        // The (2, 3) selection and instance-2 projection survived; the
        // (0, 1) selection was patched and re-inserted under the new
        // generation; instance 0's projection entry was dropped.
        assert_eq!(g.sel_cache_len(), 2);
        assert_eq!(g.proj_cache_len(), 1);
        assert_eq!((g.sample_gen(2), g.sample_gen(3)), (gen2, gen3));
        assert_eq!(g.sample_gen(0), 1);
        // Both surviving entries are served for the current generations
        // (a hit does not grow the cache; a stale entry could not be hit).
        g.pair_sel(2, 3, &on_cd).unwrap();
        g.pair_sel(0, 1, &on_ab).unwrap();
        assert_eq!(g.sel_cache_len(), 2);
    }

    /// An out-of-range instance is `UnknownDataset` from both update entry
    /// points — even with an empty delta — and leaves the generations,
    /// weights and every cache exactly as they were.
    #[test]
    fn out_of_range_instance_is_rejected_untouched() {
        let (metas, samples) = catalog();
        let mut g = build(metas, samples.clone());
        g.pair_sel(0, 1, &AttrSet::from_names(["dl_k"])).unwrap();
        g.price_for_eval(2, &AttrSet::from_names(["dl_m"]), None)
            .unwrap();
        g.apply_delta(0, &churny_delta()).unwrap();
        let snapshot = |g: &JoinGraph| {
            let weights: Vec<u64> = g
                .i_edges()
                .iter()
                .flat_map(|e| {
                    let cands = g.candidate_join_sets(e.a, e.b);
                    std::iter::once(e.weight.to_bits()).chain(
                        cands
                            .iter()
                            .map(|c| g.weight(e.a, e.b, c).unwrap().to_bits()),
                    )
                })
                .collect();
            let gens: Vec<u64> = (0..g.num_instances() as u32)
                .map(|v| g.sample_gen(v))
                .collect();
            let lens = [
                g.hist_cache_len(),
                g.partials_len(),
                g.sel_cache_len(),
                g.proj_cache_len(),
            ];
            (gens, weights, lens)
        };
        let before = snapshot(&g);
        let empty = TableDelta::new(Vec::new(), Vec::new());
        for i in [4u32, u32::MAX] {
            for delta in [&churny_delta(), &empty] {
                assert!(matches!(
                    g.apply_delta(i, delta),
                    Err(RelationError::UnknownDataset(_))
                ));
            }
            assert!(matches!(
                g.refresh_sample(i, samples[0].clone()),
                Err(RelationError::UnknownDataset(_))
            ));
        }
        assert_eq!(snapshot(&g), before);
    }
}
