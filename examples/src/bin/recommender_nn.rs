//! Rating prediction over a normalized ratings/movies schema — the recommendation
//! scenario from the paper's introduction, trained with F-NN.
//!
//! The emulated Movies dataset (same cardinalities as the paper's Table IV, scaled
//! down) is generated, a one-hidden-layer network is trained with all three
//! strategies, and the timings and losses are compared.
//!
//! Run with: `cargo run --release -p fml-examples --bin recommender_nn`

use fml_core::prelude::*;
use fml_core::report::{secs, speedup, Table};
use fml_data::EmulatedDataset;

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "FML_SCALE_FACTOR is this example's dataset-scale knob"
    )]
    let scale = std::env::var("FML_SCALE_FACTOR")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02);
    let workload = EmulatedDataset::Movies
        .generate(scale, 11)
        .expect("generate");
    println!("{}", workload.name);
    println!(
        "  ratings: {}  movies: {}  features: {:?}",
        workload.n_fact().unwrap(),
        workload.n_dim(0).unwrap(),
        workload.feature_partition().unwrap()
    );

    let config = NnConfig {
        hidden: vec![50],
        epochs: 5,
        ..NnConfig::default()
    };
    let mut table = Table::new(
        "Rating prediction (1 hidden layer, 50 units, 5 epochs)",
        &[
            "algorithm",
            "time (s)",
            "speed-up vs M-NN",
            "final MSE",
            "pages I/O",
        ],
    );
    let session = Session::new(&workload.db).join(&workload.spec);
    let mut baseline = None;
    for alg in Algorithm::all() {
        let fit = session
            .fit(Nn::new(config.clone()).algorithm(alg))
            .expect("train");
        let base = *baseline.get_or_insert(fit.fit.elapsed);
        table.push_row(vec![
            format!("{}-NN", alg.label()),
            secs(fit.fit.elapsed),
            speedup(base, fit.fit.elapsed),
            format!("{:.5}", fit.final_loss()),
            fit.io.total_page_io().to_string(),
        ]);
    }
    println!("\n{}", table.render());
    println!("All three rows are the same model: the factorized variant only changes *how* it is computed.");
}
