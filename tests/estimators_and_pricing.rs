//! Cross-crate statistical and economic invariants:
//! * Theorem 3.1/3.2-style estimator concentration on generated workloads.
//! * Arbitrage-freedom of marketplace quotes end to end.
//! * Property-based checks tying sampling, pricing and info measures together.

use dance::datagen::tpch::{tpch, TpchConfig};
use dance::info::join_informativeness;
use dance::prelude::*;
use dance::sampling::estimate_ji;
use proptest::prelude::*;

fn tables() -> Vec<Table> {
    tpch(&TpchConfig {
        scale: 0.3,
        dirty_fraction: 0.3,
        seed: 21,
    })
    .unwrap()
}

fn by_name<'a>(ts: &'a [Table], n: &str) -> &'a Table {
    ts.iter().find(|t| t.name() == n).unwrap()
}

/// Theorem 3.1 on a generated FK pair: the sampled JI concentrates on the
/// exact JI as the rate grows.
#[test]
fn ji_estimator_concentrates_with_rate() {
    let ts = tables();
    let orders = by_name(&ts, "orders");
    let customer = by_name(&ts, "customer");
    let on = AttrSet::from_names(["custkey"]);
    let truth = join_informativeness(orders, customer, &on).unwrap();

    let mean_err = |rate: f64| {
        let mut e = 0.0;
        for seed in 0..10 {
            e += (estimate_ji(orders, customer, &on, rate, seed).unwrap() - truth).abs();
        }
        e / 10.0
    };
    let e_low = mean_err(0.2);
    let e_high = mean_err(0.8);
    assert!(
        e_high < e_low,
        "error should shrink with rate: 0.2 → {e_low}, 0.8 → {e_high}"
    );
    assert!(e_high < 0.05, "high-rate error small: {e_high}");
}

/// Marketplace quotes inherit entropy pricing's arbitrage-freedom: splitting
/// a projection query into two cannot be cheaper.
#[test]
fn marketplace_quotes_are_arbitrage_free() {
    let ts = tables();
    let market = Marketplace::new(ts, EntropyPricing::default());
    let id = dance::market::DatasetId(3); // customer
    let full = AttrSet::from_names(["c_city", "c_state", "c_mktsegment"]);
    let part_a = AttrSet::from_names(["c_city"]);
    let part_b = AttrSet::from_names(["c_state", "c_mktsegment"]);
    let p_full = market.quote(id, &full).unwrap();
    let p_a = market.quote(id, &part_a).unwrap();
    let p_b = market.quote(id, &part_b).unwrap();
    assert!(
        p_full <= p_a + p_b + 1e-9,
        "splitting must not be cheaper: {p_full} > {p_a} + {p_b}"
    );
    assert!(p_full >= p_a - 1e-9, "monotonicity");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Correlated samples of any rate keep key groups intact: every surviving
    /// custkey keeps all its order rows.
    #[test]
    fn correlated_sampling_preserves_key_groups(rate in 0.05f64..0.95, seed in 0u64..50) {
        let ts = tables();
        let orders = by_name(&ts, "orders");
        let on = AttrSet::from_names(["custkey"]);
        let sampler = CorrelatedSampler::new(rate, seed);
        let sample = sampler.sample(orders, &on).unwrap();
        let full_counts = dance_oracle::value_counts(orders, &on).unwrap();
        let sample_counts = dance_oracle::value_counts(&sample, &on).unwrap();
        for (k, c) in &sample_counts {
            prop_assert_eq!(full_counts[k], *c, "key survived partially");
        }
    }

    /// JI of any candidate join attribute pair stays in \[0, 1\] on generated
    /// dirty data.
    #[test]
    fn ji_bounded_on_generated_pairs(seed in 0u64..20) {
        let ts = tpch(&TpchConfig { scale: 0.15, dirty_fraction: 0.3, seed }).unwrap();
        let customer = by_name(&ts, "customer");
        let supplier = by_name(&ts, "supplier");
        for j in [AttrSet::from_names(["nationkey"]), AttrSet::from_names(["h"])] {
            let ji = join_informativeness(customer, supplier, &j).unwrap();
            prop_assert!((0.0..=1.0).contains(&ji), "JI {} out of bounds", ji);
        }
    }

    /// Sample prices scale linearly with the rate (pro-rata pricing).
    #[test]
    fn sample_price_linear_in_rate(rate in 0.1f64..1.0) {
        let ts = tables();
        let market = Marketplace::new(ts, EntropyPricing::default());
        let key = AttrSet::from_names(["custkey"]);
        let (_, p) = market.buy_sample(dance::market::DatasetId(3), &key, rate, 5).unwrap();
        let (_, p_full) = market.buy_sample(dance::market::DatasetId(3), &key, 1.0, 5).unwrap();
        prop_assert!((p - rate * p_full).abs() < 1e-9);
    }
}
