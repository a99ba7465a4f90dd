//! The factorized trainers over star joins — and over the binary join, the
//! star with one dimension, whose `R` may span several scan windows — under
//! hostile and reordered inputs: dangling foreign keys, an empty fact
//! relation, dimension tuples no fact references (one of them NaN), storage
//! order ≠ key order, a one-hot fact block, and worker-count changes.  Both
//! model families go through the one `Session::fit` surface.

use fml_core::prelude::*;
use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::{SyntheticConfig, Workload};
use fml_linalg::sparse::onehot_kernel_calls;
use fml_store::{Database, JoinSpec, Schema, StoreError, Tuple};

/// Key offset of the never-referenced copies [`rebuild`] adds.
const PAD: u64 = 1 << 40;

fn star(seed: u64, n_s: u64, dims: Vec<DimSpec>, with_target: bool) -> Workload {
    MultiwayConfig {
        n_s,
        d_s: 2,
        dims,
        k: 2,
        noise_std: 0.6,
        with_target,
        seed,
    }
    .generate()
    .unwrap()
}

/// A binary join whose `R` (`8 + 8·46` bytes per tuple, 21 to a page) spans
/// five pages: five scan windows under `block_pages(1)`.  `k·d² = 2·48²`
/// crosses the GMM trainer's fan-out threshold.
fn windowed_binary(seed: u64) -> Workload {
    let w = SyntheticConfig {
        n_s: 900,
        n_r: 90,
        d_s: 2,
        d_r: 46,
        k: 2,
        noise_std: 0.6,
        with_target: true,
        seed,
    }
    .generate()
    .unwrap();
    let r = w.spec.dimension_relations(&w.db).unwrap()[0].clone();
    assert_eq!(r.lock().num_pages(), 5);
    w
}

/// Copies `w`'s star schema into a new database with every feature rounded
/// to a multiple of 1/64.  Column sums and sums of squares over such values
/// are exact in `f64`, so the GMM initializer's base-relation statistics
/// depend neither on the storage order nor on a tuple being stored twice —
/// which lets a *padded* copy start EM from bit-identical parameters.
///
/// `padded` stores each dimension in descending key order and gives it, per
/// original tuple, a copy under `key + PAD` that no fact references, plus one
/// never-referenced tuple of NaNs.
fn rebuild(w: &Workload, padded: bool) -> (Database, JoinSpec) {
    let grid = |t: &Tuple| -> Vec<f64> {
        t.features
            .iter()
            .map(|x| (x * 64.0).round() / 64.0)
            .collect()
    };
    let db = Database::in_memory();
    for name in &w.spec.dimensions {
        let src = w.db.relation(name).unwrap();
        let mut tuples = src.lock().read_all().unwrap();
        let width = src.lock().schema().num_features;
        let rel = db
            .create_relation(Schema::dimension(name.clone(), width))
            .unwrap();
        let mut rel = rel.lock();
        if padded {
            tuples.reverse();
            rel.append(&Tuple::dimension(PAD - 1, vec![f64::NAN; width]))
                .unwrap();
        }
        for t in &tuples {
            if padded {
                rel.append(&Tuple::dimension(t.key + PAD, grid(t))).unwrap();
            }
            rel.append(&Tuple::dimension(t.key, grid(t))).unwrap();
        }
        rel.flush().unwrap();
    }
    let src = w.db.relation(&w.spec.fact).unwrap();
    let schema = src.lock().schema().clone();
    let rel = db.create_relation(schema).unwrap();
    let mut rel = rel.lock();
    for t in src.lock().read_all().unwrap() {
        let mut copy = t.clone();
        copy.features = grid(&t);
        rel.append(&copy).unwrap();
    }
    rel.flush().unwrap();
    (db, w.spec.clone())
}

fn gmm_bits(fit: &GmmFit) -> Vec<u64> {
    let m = &fit.model;
    let mut bits: Vec<u64> = m.weights.iter().map(|x| x.to_bits()).collect();
    for (mean, cov) in m.means.iter().zip(&m.covariances) {
        bits.extend(mean.iter().map(|x| x.to_bits()));
        bits.extend(cov.as_slice().iter().map(|x| x.to_bits()));
    }
    bits.extend(fit.log_likelihood.iter().map(|x| x.to_bits()));
    bits
}

fn nn_bits(fit: &NnFit) -> Vec<u64> {
    let mut bits = Vec::new();
    for layer in fit.model.layers() {
        bits.extend(layer.weights.as_slice().iter().map(|x| x.to_bits()));
        bits.extend(layer.bias.iter().map(|x| x.to_bits()));
    }
    bits.extend(fit.loss_trace.iter().map(|x| x.to_bits()));
    bits
}

fn gmm(alg: Algorithm) -> Gmm {
    Gmm::new(GmmConfig {
        k: 2,
        max_iters: 3,
        ..GmmConfig::default()
    })
    .algorithm(alg)
}

fn nn(alg: Algorithm) -> Nn {
    Nn::new(NnConfig {
        hidden: vec![6],
        epochs: 3,
        ..NnConfig::default()
    })
    .algorithm(alg)
}

/// Three dimensions of widths 3, 5, 3: the wider side of a pair is the
/// higher-numbered dimension for (R1, R2), the lower-numbered one for
/// (R2, R3), and (R1, R3) tie.
fn unequal_dims() -> Vec<DimSpec> {
    vec![DimSpec::new(10, 3), DimSpec::new(6, 5), DimSpec::new(8, 3)]
}

#[test]
fn dangling_fk_is_a_typed_error_for_both_families() {
    let w = star(5, 120, unequal_dims(), true);
    let fact = w.db.relation(&w.spec.fact).unwrap();
    fact.lock()
        .append(&Tuple::fact_with_target(
            9_999,
            vec![0, 777, 0],
            0.5,
            vec![0.0, 0.0],
        ))
        .unwrap();
    fact.lock().flush().unwrap();
    let session = Session::new(&w.db).join(&w.spec);
    let dangling = |e: &StoreError| matches!(e, StoreError::DanglingForeignKey { key: 777, relation } if relation == "R2");
    let Err(err) = session.fit(gmm(Algorithm::Factorized)) else {
        panic!("GMM fit must fail");
    };
    assert!(dangling(&err), "GMM: {err}");
    let Err(err) = session.fit(nn(Algorithm::Factorized)) else {
        panic!("NN fit must fail");
    };
    assert!(dangling(&err), "NN: {err}");
}

#[test]
fn empty_fact_relation_is_a_typed_error_for_every_nn_strategy() {
    // One-tuple dimensions and a fact relation that holds nothing, as a
    // binary join (q = 1) and as a star (q = 2).
    for q in 1..=2usize {
        let db = Database::in_memory();
        let dimensions: Vec<String> = (1..=q).map(|i| format!("R{i}")).collect();
        for name in &dimensions {
            let rel = db
                .create_relation(Schema::dimension(name.clone(), 2))
                .unwrap();
            rel.lock()
                .append(&Tuple::dimension(0, vec![0.5, -1.0]))
                .unwrap();
            rel.lock().flush().unwrap();
        }
        db.create_relation(Schema::fact_with_target("S", 2, q))
            .unwrap();
        let spec = JoinSpec::multiway("S", dimensions);
        let session = Session::new(&db).join(&spec);
        for alg in [
            Algorithm::Materialized,
            Algorithm::Streaming,
            Algorithm::Factorized,
        ] {
            let errors = [
                session.fit(nn(alg)).map(|t| t.fit.n_tuples),
                session.fit(gmm(alg)).map(|t| t.fit.n_tuples),
            ];
            for (family, fit) in ["NN", "GMM"].into_iter().zip(errors) {
                let Err(err) = fit else {
                    panic!("q = {q}, {alg:?}: {family} fit over an empty fact relation must fail");
                };
                assert!(
                    matches!(&err, StoreError::SchemaMismatch { relation, detail }
                        if relation == "S" && detail.contains("empty")),
                    "q = {q}, {alg:?}, {family}: {err}"
                );
            }
        }
    }
}

#[test]
fn unreferenced_and_nan_dimension_tuples_do_not_move_the_fit() {
    let w = star(11, 400, unequal_dims(), true);
    let (lean_db, spec) = rebuild(&w, false);
    let (padded_db, _) = rebuild(&w, true);
    let lean = Session::new(&lean_db).join(&spec);
    let padded = Session::new(&padded_db).join(&spec);

    let f_lean = lean.fit(gmm(Algorithm::Factorized)).unwrap().fit;
    let f_padded = padded.fit(gmm(Algorithm::Factorized)).unwrap().fit;
    assert!(f_lean.log_likelihood.iter().all(|ll| ll.is_finite()));
    assert_eq!(
        gmm_bits(&f_lean),
        gmm_bits(&f_padded),
        "F-GMM: padding changed bits"
    );
    let m_padded = padded.fit(gmm(Algorithm::Materialized)).unwrap().fit;
    let diff = m_padded.model.max_param_diff(&f_padded.model);
    assert!(diff < 1e-7, "M vs F on the padded star: {diff}");

    let n_lean = lean.fit(nn(Algorithm::Factorized)).unwrap().fit;
    let n_padded = padded.fit(nn(Algorithm::Factorized)).unwrap().fit;
    assert_eq!(
        nn_bits(&n_lean),
        nn_bits(&n_padded),
        "F-NN: padding changed bits"
    );
    let m_padded = padded.fit(nn(Algorithm::Materialized)).unwrap().fit;
    assert!(m_padded.model.max_param_diff(&n_padded.model) < 1e-9);
}

#[test]
fn star_fits_repeat_bit_for_bit_at_every_worker_count() {
    // k·d² = 2·46² crosses the GMM trainer's fan-out threshold, so
    // `BlockedParallel` really chunks the E-step.
    let star = star(
        23,
        600,
        vec![
            DimSpec::new(12, 12),
            DimSpec::new(8, 20),
            DimSpec::new(10, 12),
        ],
        true,
    );
    // One window for the star; five for the binary join.
    for (w, block_pages) in [(star, 64), (windowed_binary(29), 1)] {
        let fit_bits = |exec: ExecPolicy| {
            let exec = exec.block_pages(block_pages);
            let session = Session::new(&w.db).join(&w.spec).exec(exec);
            (
                gmm_bits(&session.fit(gmm(Algorithm::Factorized)).unwrap().fit),
                nn_bits(&session.fit(nn(Algorithm::Factorized)).unwrap().fit),
            )
        };
        let reference = fit_bits(ExecPolicy::new());
        assert_eq!(
            reference,
            fit_bits(ExecPolicy::new()),
            "two runs, one process"
        );
        let parallel = |t| {
            ExecPolicy::new()
                .kernel_policy(KernelPolicy::BlockedParallel)
                .threads(t)
        };
        let one = fit_bits(parallel(1));
        assert_eq!(one, fit_bits(parallel(1)), "two parallel-policy runs");
        for t in [2, 4] {
            assert_eq!(one, fit_bits(parallel(t)), "threads({t}) vs threads(1)");
        }
    }
}

/// S sees the rows M materializes, in the same `(window, fact)` order, so
/// the two fits agree bit for bit on every join shape; F stays within the
/// equivalence suites' tolerances of them.
#[test]
fn streaming_fits_equal_materialized_bit_for_bit_on_every_join_shape() {
    let binary = SyntheticConfig {
        n_s: 3000,
        n_r: 75,
        d_s: 4,
        d_r: 36,
        k: 2,
        noise_std: 0.6,
        with_target: true,
        seed: 41,
    }
    .generate()
    .unwrap();
    let shapes = [
        ("binary", binary, 64),
        ("binary, five windows", windowed_binary(43), 1),
        ("star", star(47, 500, unequal_dims(), true), 64),
    ];
    for (shape, w, block_pages) in shapes {
        let session = Session::new(&w.db)
            .join(&w.spec)
            .exec(ExecPolicy::new().block_pages(block_pages));
        let [m, s, f] = Algorithm::all().map(|alg| session.fit(gmm(alg)).unwrap().fit);
        assert_eq!(gmm_bits(&m), gmm_bits(&s), "{shape}: S-GMM vs M-GMM");
        let diff = m.model.max_param_diff(&f.model);
        assert!(diff < 1e-6, "{shape}: F-GMM vs M-GMM {diff}");
        let [m, s, f] = Algorithm::all().map(|alg| session.fit(nn(alg)).unwrap().fit);
        assert_eq!(nn_bits(&m), nn_bits(&s), "{shape}: S-NN vs M-NN");
        let diff = m.model.max_param_diff(&f.model);
        assert!(diff < 1e-9, "{shape}: F-NN vs M-NN {diff}");
    }
}

/// A star whose fact block is one-hot: the factorized trainers detect the
/// facts too, take the sparse fact path, and learn the forced-dense model.
#[test]
fn a_one_hot_fact_block_takes_the_sparse_path_on_a_star() {
    let w = star(31, 400, vec![DimSpec::new(10, 3), DimSpec::new(6, 4)], true);
    // The same star with every fact's features replaced by eight 0/1
    // columns, each set for about one key in five.
    let db = Database::in_memory();
    for name in &w.spec.dimensions {
        let src = w.db.relation(name).unwrap();
        let schema = src.lock().schema().clone();
        let rel = db.create_relation(schema).unwrap();
        rel.lock()
            .append_all(src.lock().read_all().unwrap().iter())
            .unwrap();
        rel.lock().flush().unwrap();
    }
    let rel = db
        .create_relation(Schema::fact_with_target(w.spec.fact.clone(), 8, 2))
        .unwrap();
    for mut fact in
        w.db.relation(&w.spec.fact)
            .unwrap()
            .lock()
            .read_all()
            .unwrap()
    {
        fact.features = (0..8u64)
            .map(|j| f64::from((fact.key * 7 + j * 13) % 5 == 0))
            .collect();
        rel.lock().append(&fact).unwrap();
    }
    rel.lock().flush().unwrap();

    let auto = Session::new(&db).join(&w.spec);
    let dense = auto
        .clone()
        .exec(ExecPolicy::new().sparse_mode(SparseMode::Dense));
    // The dimensions are dense, so only facts can reach a one-hot kernel.
    let before = onehot_kernel_calls();
    let dense_gmm = dense.fit(gmm(Algorithm::Factorized)).unwrap().fit;
    let dense_nn = dense.fit(nn(Algorithm::Factorized)).unwrap().fit;
    assert_eq!(onehot_kernel_calls(), before, "forced dense stays dense");
    let auto_gmm = auto.fit(gmm(Algorithm::Factorized)).unwrap().fit;
    let after_gmm = onehot_kernel_calls();
    assert!(after_gmm > before, "F-GMM must take the sparse fact path");
    let auto_nn = auto.fit(nn(Algorithm::Factorized)).unwrap().fit;
    assert!(
        onehot_kernel_calls() > after_gmm,
        "F-NN must take the sparse fact path"
    );
    let diff = dense_gmm.model.max_param_diff(&auto_gmm.model);
    assert!(diff < 1e-6, "F-GMM sparse vs dense facts: {diff}");
    let diff = dense_nn.model.max_param_diff(&auto_nn.model);
    assert!(diff < 1e-6, "F-NN sparse vs dense facts: {diff}");
}
