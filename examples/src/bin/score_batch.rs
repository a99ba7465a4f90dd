//! Scoring & persistence walkthrough: `Session::fit` → `save` → `load` →
//! `Session::score`, with per-batch telemetry and the factorized-vs-
//! materialized comparison at inference time.
//!
//! Run with: `cargo run --release -p examples --bin score_batch`

use fml_core::prelude::*;
use fml_core::report::secs;
use fml_core::{Session, TrainedGmm, TrainedNn};
use fml_data::SyntheticConfig;
use fml_serve::prelude::*;

fn main() {
    // 1. A normalized workload: fact table S referencing dimension table R.
    let workload = SyntheticConfig {
        n_s: 10_000,
        n_r: 100,
        d_s: 4,
        d_r: 12,
        k: 4,
        noise_std: 0.8,
        with_target: true,
        seed: 42,
    }
    .generate()
    .expect("generate workload");
    println!("workload: {}\n", workload.name);

    // 2. Fit both model families through the Session surface.
    let session = Session::new(&workload.db)
        .join(&workload.spec)
        .exec(ExecPolicy::new().seed(42));
    let gmm = session.fit(Gmm::with_k(4).iterations(5)).expect("fit GMM");
    let nn = session.fit(Nn::with_hidden(20).epochs(5)).expect("fit NN");
    println!(
        "trained F-GMM (ll {:.1}) and F-NN (loss {:.5})\n",
        gmm.final_log_likelihood(),
        nn.final_loss()
    );

    // 3. Persist both fits and load them back — the round-trip is exact to
    //    the bit, including the IoSnapshot/Algorithm metadata.
    let dir = std::env::temp_dir().join("fml-score-batch");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let gmm_path = dir.join("segmentation.fml");
    let nn_path = dir.join("regressor.fml");
    gmm.save(&gmm_path).expect("save GMM");
    nn.save(&nn_path).expect("save NN");
    let gmm_loaded = TrainedGmm::load(&gmm_path).expect("load GMM");
    let nn_loaded = TrainedNn::load(&nn_path).expect("load NN");
    // Bit-exact round-trip: compare through to_bits, the sanctioned form
    // for exact float contracts (see the `clippy::float_cmp` lint).
    let gmm_diff = gmm.fit.model.max_param_diff(&gmm_loaded.fit.model);
    let nn_diff = nn.fit.model.max_param_diff(&nn_loaded.fit.model);
    assert_eq!(gmm_diff.to_bits(), 0.0f64.to_bits());
    assert_eq!(nn_diff.to_bits(), 0.0f64.to_bits());
    println!(
        "persisted + reloaded both models exactly ({} / {})",
        gmm_path.display(),
        nn_path.display()
    );

    // 4. Factorized batch scoring of the *loaded* models over the normalized
    //    relations, with per-batch telemetry.
    let trace = ScoreTrace::new();
    let scores = session
        .score_with(&gmm_loaded, &Scoring::new().observe(trace.clone()))
        .expect("score GMM");
    println!("\nGMM factorized scoring:");
    println!(
        "  {} rows in {}s ({} batches), total log-likelihood {:.1}",
        scores.len(),
        secs(scores.elapsed),
        trace.events().len(),
        scores.total_log_likelihood()
    );
    let mut by_cluster = vec![0usize; 4];
    for r in &scores.rows {
        by_cluster[r.cluster] += 1;
    }
    println!("  cluster sizes: {by_cluster:?}");

    let outputs = session.score(&nn_loaded).expect("score NN");
    println!(
        "NN factorized scoring: {} rows in {}s, mean output {:.4}",
        outputs.len(),
        secs(outputs.elapsed),
        outputs.mean_output()
    );

    // 5. The factorized scorer equals the materialized-join oracle exactly,
    //    at a fraction of the I/O.
    let oracle = session
        .score_with(
            &gmm_loaded,
            &Scoring::new().algorithm(Algorithm::Materialized),
        )
        .expect("oracle score");
    let factorized_io = scores.io;
    let a = scores.into_sorted_by_key();
    let b = oracle.clone().into_sorted_by_key();
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(b.iter()).all(|((k1, x), (k2, y))| k1 == k2
        && x.cluster == y.cluster
        && x.log_likelihood.to_bits() == y.log_likelihood.to_bits()));
    println!(
        "\nfactorized == materialized oracle (bit-exact); fields read: {} vs {}",
        factorized_io.fields_read, oracle.io.fields_read
    );
}
