//! Retail customer segmentation — the paper's motivating example.
//!
//! An `Orders` fact table references an `Items` dimension table; soft customer
//! segmentation is performed with a GMM over the joined features, trained
//! directly over the normalized relations with F-GMM.  The example then uses the
//! trained model to assign segments to a few orders.
//!
//! Run with: `cargo run --release -p fml-examples --bin retail_segmentation`

use fml_core::fml_linalg::BlockVec;
use fml_core::prelude::*;
use fml_data::rng::{normal, seeded};
use fml_gmm::Precomputed;
use fml_store::batch::RowBuf;
use fml_store::{Database, JoinSpec, Schema, Tuple};
use rand::Rng;

fn main() {
    let db = Database::in_memory();

    // Items(ItemID, price, size, weight, rating): 300 products in 3 price bands.
    let items = db.create_relation(Schema::dimension("items", 4)).unwrap();
    let mut rng = seeded(7);
    {
        let mut rel = items.lock();
        for item_id in 0..300u64 {
            let band = (item_id % 3) as f64;
            rel.append(&Tuple::dimension(
                item_id,
                vec![
                    normal(&mut rng, 10.0 + 40.0 * band, 4.0), // price
                    normal(&mut rng, 1.0 + band, 0.3),         // size
                    normal(&mut rng, 0.5 + 0.8 * band, 0.1),   // weight
                    normal(&mut rng, 3.0 + 0.5 * band, 0.4),   // rating
                ],
            ))
            .unwrap();
        }
        rel.flush().unwrap();
    }

    // Orders(OrderID, amount, quantity, ItemID): 60k orders.
    let orders = db.create_relation(Schema::fact("orders", 2, 1)).unwrap();
    {
        let mut rel = orders.lock();
        for order_id in 0..60_000u64 {
            let item = rng.gen_range(0..300);
            let band = (item % 3) as f64;
            rel.append(&Tuple::fact(
                order_id,
                vec![item],
                vec![
                    normal(&mut rng, 20.0 + 60.0 * band, 8.0), // amount
                    normal(&mut rng, 1.5 + band, 0.5),         // quantity
                ],
            ))
            .unwrap();
        }
        rel.flush().unwrap();
    }

    let spec = JoinSpec::binary("orders", "items");
    println!(
        "orders ⋈ items: {} order tuples sharing {} items",
        60_000, 300
    );

    // Segment into 3 clusters with the factorized algorithm.
    let trained = Session::new(&db)
        .join(&spec)
        .fit(
            Gmm::with_k(3)
                .iterations(8)
                .algorithm(Algorithm::Factorized),
        )
        .expect("F-GMM");
    println!(
        "trained F-GMM in {:.3}s, log-likelihood {:.1}",
        trained.fit.elapsed.as_secs_f64(),
        trained.final_log_likelihood()
    );
    println!(
        "segment weights: {:?}",
        trained
            .fit
            .model
            .weights
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
    );

    // Assign a few orders to segments using the trained model.
    let pre = Precomputed::from_model(&trained.fit.model, 1e-6);
    // The rows expanded to dense, as the model's `predict` takes them.
    let scan = fml_store::factorized_scan::FactorizedScan::new(&db, &spec, 8).unwrap();
    let mut scan = scan.sparse_mode(SparseMode::Dense);
    let (mut shown, mut buf) = (0, RowBuf::default());
    'outer: while scan.next_window().unwrap() {
        while scan.next_block().unwrap() {
            let block = scan.block();
            for (f, &key) in block.rows().keys().iter().enumerate() {
                let BlockVec::Dense(joined) = block.joined_row(f, scan.cache(), &mut buf) else {
                    unreachable!("an expanded scan hands out dense rows")
                };
                let segment = trained.fit.model.predict(joined, &pre);
                println!(
                    "order {:>6}  amount {:>6.1}  item price {:>6.1}  → segment {}",
                    key, joined[0], joined[2], segment
                );
                shown += 1;
                if shown >= 10 {
                    break 'outer;
                }
            }
        }
    }
}
