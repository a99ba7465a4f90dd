//! End-to-end integration tests across the whole workspace: data generation →
//! storage → join → training with all three strategies → model agreement and I/O
//! accounting, for both model families and both join shapes.

use fml_core::cost::ENGINE_PASSES_PER_ITERATION;
use fml_core::prelude::*;
use fml_core::{GmmIoCostModel, SavingRateModel};
use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::{EmulatedDataset, SyntheticConfig};
use fml_linalg::Matrix;
use fml_store::{Database, JoinSpec, Schema, Tuple};

#[test]
fn gmm_binary_end_to_end_all_strategies_agree() {
    let w = SyntheticConfig {
        n_s: 600,
        n_r: 20,
        d_s: 3,
        d_r: 6,
        k: 3,
        noise_std: 0.8,
        with_target: false,
        seed: 71,
    }
    .generate()
    .unwrap();
    let config = GmmConfig {
        k: 3,
        max_iters: 4,
        ..GmmConfig::default()
    };
    let session = Session::new(&w.db).join(&w.spec);
    let mut fits = Vec::new();
    for alg in Algorithm::all() {
        fits.push(
            session
                .fit(Gmm::new(config.clone()).algorithm(alg))
                .unwrap(),
        );
    }
    for f in &fits[1..] {
        assert!(fits[0].fit.model.max_param_diff(&f.fit.model) < 1e-6);
    }
    // weights form a probability distribution
    let sum: f64 = fits[2].fit.model.weights.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
}

#[test]
fn nn_multiway_end_to_end_all_strategies_agree() {
    let w = MultiwayConfig {
        n_s: 400,
        d_s: 2,
        dims: vec![DimSpec::new(16, 3), DimSpec::new(8, 5)],
        k: 2,
        noise_std: 0.6,
        with_target: true,
        seed: 72,
    }
    .generate()
    .unwrap();
    let config = NnConfig {
        hidden: vec![8],
        epochs: 4,
        ..NnConfig::default()
    };
    let session = Session::new(&w.db).join(&w.spec);
    let mut fits = Vec::new();
    for alg in Algorithm::all() {
        fits.push(session.fit(Nn::new(config.clone()).algorithm(alg)).unwrap());
    }
    for f in &fits[1..] {
        assert!(fits[0].fit.model.max_param_diff(&f.fit.model) < 1e-9);
    }
}

#[test]
fn emulated_dataset_trains_with_factorized_gmm() {
    let w = EmulatedDataset::Walmart.generate(0.003, 9).unwrap();
    let config = GmmConfig {
        k: 3,
        max_iters: 2,
        ..GmmConfig::default()
    };
    let fit = Session::new(&w.db)
        .join(&w.spec)
        .fit(Gmm::new(config).algorithm(Algorithm::Factorized))
        .unwrap();
    assert_eq!(fit.fit.model.dim(), 12); // 3 + 9 features
    assert!(fit.final_log_likelihood().is_finite());
}

#[test]
fn emulated_sparse_dataset_trains_with_factorized_nn() {
    let w = EmulatedDataset::MoviesSparse.generate(0.0008, 10).unwrap();
    let config = NnConfig {
        hidden: vec![10],
        epochs: 2,
        ..NnConfig::default()
    };
    let fit = Session::new(&w.db)
        .join(&w.spec)
        .fit(Nn::new(config).algorithm(Algorithm::Factorized))
        .unwrap();
    assert_eq!(fit.fit.model.input_dim(), 22); // 1 + 21
    assert!(fit.final_loss().is_finite());
}

#[test]
fn measured_io_is_bracketed_by_the_cost_model() {
    // The analytic model of Section V-A, at the engine's one pass per EM
    // iteration, should match the measured page I/O of all three strategies
    // exactly (same block-nested-loop plan) — a second scan in any GMM driver
    // fails here — and predict that materialization does more total I/O for
    // a reasonable block size — with R resident in one window, and with R
    // spanning four one-page windows.
    for (n_r, block_pages) in [(40, fml_store::DEFAULT_BLOCK_PAGES), (300, 1)] {
        let w = SyntheticConfig {
            n_s: 4000,
            n_r,
            d_s: 3,
            d_r: 10,
            k: 2,
            noise_std: 0.8,
            with_target: true,
            seed: 73,
        }
        .generate()
        .unwrap();
        let iters = 2usize;
        let config = GmmConfig {
            k: 2,
            max_iters: iters,
            tol: 0.0,
            ..GmmConfig::default()
        };

        let s_pages = w.spec.fact_relation(&w.db).unwrap().lock().num_pages() as u64;
        let r_pages = w.spec.dimension_relations(&w.db).unwrap()[0]
            .lock()
            .num_pages() as u64;
        assert_eq!(
            r_pages.div_ceil(block_pages as u64),
            if n_r == 40 { 1 } else { 4 }
        );

        let session = Session::new(&w.db)
            .join(&w.spec)
            .exec(ExecPolicy::new().block_pages(block_pages));
        let gmm = |alg| {
            session
                .fit(Gmm::new(config.clone()).algorithm(alg))
                .unwrap()
        };
        let streaming = gmm(Algorithm::Streaming);
        let factorized = gmm(Algorithm::Factorized);
        let materialized = gmm(Algorithm::Materialized);
        let t_pages =
            w.db.relation(&fml_gmm::MaterializedGmm::temp_table_name(&w.spec))
                .unwrap()
                .lock()
                .num_pages() as u64;

        let model = GmmIoCostModel {
            s_pages,
            r_pages,
            t_pages,
            block_pages: block_pages as u64,
            iterations: iters as u64,
        };
        // The init pass reads R and S once more than the model's `iter` passes.
        let init_reads = s_pages + r_pages;
        assert_eq!(
            streaming.io.pages_read,
            model.streaming_io(ENGINE_PASSES_PER_ITERATION) + init_reads,
            "streaming I/O does not match the analytic model"
        );
        assert_eq!(factorized.io, streaming.io, "F reads what S reads");
        assert_eq!(
            materialized.io.total_page_io(),
            model.materialized_io(ENGINE_PASSES_PER_ITERATION) + init_reads,
            "materialized I/O does not match the analytic model (reads + writes)"
        );
        assert!(t_pages > 0);
        assert_eq!(
            model.streaming_wins(ENGINE_PASSES_PER_ITERATION),
            streaming.io.total_page_io() < materialized.io.total_page_io()
        );

        // NN: one join pass per epoch, for S and F alike.
        let nn = |alg| {
            let config = NnConfig {
                hidden: vec![4],
                epochs: 3,
                ..NnConfig::default()
            };
            session.fit(Nn::new(config).algorithm(alg)).unwrap()
        };
        let streaming = nn(Algorithm::Streaming);
        assert_eq!(streaming.io.pages_read, 3 * model.join_pass_reads());
        assert_eq!(nn(Algorithm::Factorized).io, streaming.io);
    }
}

#[test]
fn saving_rate_model_predicts_factorized_advantage_direction() {
    // Wider dimension tables and higher tuple ratios must increase the predicted
    // saving — the trend the runtime experiments (Figures 3 and 5) display.
    let narrow = SavingRateModel::unit_costs(100_000, 1_000, 5, 5);
    let wide = SavingRateModel::unit_costs(100_000, 1_000, 5, 15);
    let wider = SavingRateModel::unit_costs(100_000, 1_000, 5, 40);
    assert!(narrow.saving_rate() < wide.saving_rate());
    assert!(wide.saving_rate() < wider.saving_rate());
    let low_rr = SavingRateModel::unit_costs(10_000, 1_000, 5, 15);
    assert!(low_rr.saving_rate() < wide.saving_rate());
}

#[test]
fn factorized_gmm_clusters_match_generating_structure() {
    // Quality check: with well separated generating clusters, the factorized GMM
    // recovers cluster structure (most tuples assigned to a dominant component
    // per generating cluster).
    let w = SyntheticConfig {
        n_s: 900,
        n_r: 30,
        d_s: 2,
        d_r: 3,
        k: 3,
        noise_std: 0.5,
        with_target: false,
        seed: 74,
    }
    .generate()
    .unwrap();
    let config = GmmConfig {
        k: 3,
        max_iters: 12,
        ..GmmConfig::default()
    };
    let trained = Session::new(&w.db)
        .join(&w.spec)
        .fit(Gmm::new(config).algorithm(Algorithm::Factorized))
        .unwrap();
    // all three components should carry non-trivial weight
    assert!(
        trained.fit.model.weights.iter().all(|&p| p > 0.05),
        "weights {:?}",
        trained.fit.model.weights
    );
    // log-likelihood improved over training
    let ll = &trained.fit.log_likelihood;
    assert!(ll.last().unwrap() > ll.first().unwrap());
}

/// Four distinct joined points, each repeated, and five components
/// (`fml-gmm/tests/batched_em.rs`'s rank-deficient fixture, normalized).
/// From the default initialization components collapse onto single points,
/// so the covariances the M-step hands the next E-step are the ridge alone;
/// from widely spread initial means four components starve and take the
/// empty-component reset.  F goes down both paths through `Session` as M does.
#[test]
fn collapsed_and_starved_components_fit_under_f_as_under_m() {
    let points = [
        [0.0, 0.0, 0.0],
        [4.0, 0.0, 1.0],
        [0.0, 5.0, 2.0],
        [3.0, 3.0, 3.0],
    ];
    let db = Database::in_memory();
    let r = db.create_relation(Schema::dimension("R", 2)).unwrap();
    for (key, p) in points.iter().enumerate() {
        r.lock()
            .append(&Tuple::dimension(key as u64, p[1..].to_vec()))
            .unwrap();
    }
    r.lock().flush().unwrap();
    let s = db.create_relation(Schema::fact("S", 1, 1)).unwrap();
    for i in 0..240u64 {
        let p = &points[i as usize % 4];
        s.lock()
            .append(&Tuple::fact(i, vec![i % 4], vec![p[0]]))
            .unwrap();
    }
    s.lock().flush().unwrap();
    let spec = JoinSpec::binary("S", "R");
    let session = Session::new(&db).join(&spec);
    let ridge = GmmConfig::default().ridge;
    for (init_spread, starves) in [(GmmConfig::default().init_spread, false), (30.0, true)] {
        let fit = |alg| {
            let config = GmmConfig {
                k: 5,
                max_iters: 8,
                init_spread,
                ..GmmConfig::default()
            };
            session.fit(Gmm::new(config).algorithm(alg)).unwrap().fit
        };
        let (m, f) = (fit(Algorithm::Materialized), fit(Algorithm::Factorized));
        for (label, fit) in [("M", &m), ("F", &f)] {
            let trace = &fit.log_likelihood;
            assert!(trace.iter().all(|ll| ll.is_finite()), "{label}: {trace:?}");
            for w in trace.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-6 * w[0].abs().max(1.0),
                    "{label}: log-likelihood decreased: {trace:?}"
                );
            }
            // the path this initialization is here for was really taken
            let model = &fit.model;
            if starves {
                let reset = |c: usize| {
                    model.weights[c] < 1e-9 && model.covariances[c] == Matrix::identity(3)
                };
                assert!((0..5).any(reset), "{label}: no component was reset");
            } else {
                let ridge_alone = |cov: &Matrix| cov.trace() <= 3.0 * ridge * (1.0 + 1e-6);
                assert!(
                    model.covariances.iter().any(ridge_alone),
                    "{label}: no component collapsed"
                );
            }
        }
        let (a, b) = (m.final_log_likelihood(), f.final_log_likelihood());
        assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "M {a} vs F {b}");
    }
}
