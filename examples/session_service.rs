//! The acquisition-session service end to end: a handful of shopper
//! sessions run concurrently against one shared marketplace — each with its
//! own budget, ledger, seed, and pinned catalog version — while a seller
//! publishes an update mid-run. Shows capacity rejection, version pinning
//! vs. explicit repin, budget isolation, and the ledger/revenue
//! reconciliation the service guarantees bitwise.
//!
//! ```sh
//! cargo run --release --example session_service
//! ```

use std::sync::Arc;

use dance::datagen::churn::churn_delta;
use dance::datagen::tpce::TpceConfig;
use dance::datagen::workload::tpce_workload;
use dance::market::{DatasetId, SessionError};
use dance::prelude::*;

fn main() {
    let workload = tpce_workload(&TpceConfig {
        scale: 0.1,
        dirty_fraction: 0.2,
        seed: 5,
    })
    .expect("generation");
    let market = Arc::new(Marketplace::new(workload.tables, EntropyPricing::default()));
    let mgr = SessionManager::new(
        Arc::clone(&market),
        SessionManagerConfig {
            max_sessions: 3,
            ..SessionManagerConfig::default()
        },
    );
    println!(
        "marketplace: {} instances at catalog v{}, capacity {} sessions",
        market.catalog().len(),
        market.catalog_version(),
        3
    );

    // --- Three concurrent shopper sessions. They open on the main thread in
    // shopper order, so session ids follow the seeds; then each shops on its
    // own thread. Every session pins the catalog version it opened at, and
    // purchases are seeded from (session seed, purchase index), so each
    // report is reproducible from its config alone no matter how the threads
    // interleave.
    let sessions: Vec<_> = (0..3)
        .map(|s| {
            mgr.open(SessionConfig {
                budget: 40.0,
                seed: 0xDA2CE + s,
            })
            .expect("under capacity")
        })
        .collect();

    // A fourth shopper is rejected gracefully while all slots are taken.
    match mgr.open(SessionConfig::default()) {
        Err(SessionError::AtCapacity { open, max }) => {
            println!("fourth shopper rejected gracefully: {open}/{max} sessions open")
        }
        Ok(_) => panic!("expected a capacity rejection"),
        Err(e) => panic!("unexpected error: {e}"),
    }

    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(s, mut session)| {
                let mgr = &mgr;
                scope.spawn(move || {
                    let meta = session.meta(DatasetId(s as u32)).unwrap().clone();
                    session
                        .buy_sample(meta.id, &meta.default_key, 0.3)
                        .expect("sample fits the budget");
                    let attrs = AttrSet::singleton(meta.schema.attributes()[0].id);
                    let quoted = session.quote(meta.id, &attrs).unwrap();
                    let (_, paid) = session
                        .execute(&ProjectionQuery {
                            dataset: meta.id,
                            dataset_name: meta.name.clone(),
                            attrs,
                        })
                        .expect("projection fits the budget");
                    assert_eq!(quoted.to_bits(), paid.to_bits(), "quotes are binding");
                    mgr.close(session)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for r in &reports {
        println!(
            "  {}: pinned v{}, {} purchases, spent {:.4} ({:.4} left)",
            r.id,
            r.catalog_version,
            r.purchases.len(),
            r.spent,
            r.remaining
        );
    }

    // --- Ledgers reconcile with marketplace revenue exactly (bitwise): the
    // marketplace stripes revenue per session and folds in session order.
    let total: f64 = {
        let mut by_id = reports.clone();
        by_id.sort_by_key(|r| r.id);
        by_id.iter().fold(0.0, |acc, r| acc + r.spent)
    };
    assert_eq!(total.to_bits(), market.revenue().to_bits());
    println!("Σ session ledgers == revenue == {:.4}", market.revenue());

    // --- A seller update lands; an already-open session keeps shopping at
    // its pinned version until it explicitly repins.
    let mut session = mgr
        .open(SessionConfig::default())
        .expect("slots free again");
    let before = session.pinned_version();
    let biggest = market
        .catalog()
        .into_iter()
        .max_by_key(|m| m.num_rows)
        .unwrap()
        .id;
    let base = market.full_table_for_evaluation(biggest).unwrap();
    let delta = churn_delta(&base, 0.10, 0.02, 9);
    market.apply_update(biggest, &delta).expect("update");
    assert_eq!(session.pinned_version(), before, "pins survive updates");
    let pinned_rows = session.meta(biggest).unwrap().num_rows;
    let repinned = session.repin();
    let fresh_rows = session.meta(biggest).unwrap().num_rows;
    println!(
        "seller update: catalog v{before} -> v{repinned}; \
         session saw {pinned_rows} rows pinned, {fresh_rows} after repin"
    );
    mgr.close(session);

    let stats = mgr.stats();
    println!(
        "service stats: opened {}, closed {}, rejected {}, peak open {}",
        stats.opened, stats.closed, stats.rejected, stats.peak_open
    );
}
