//! The batched dense EM driver (`em.rs`: whiten-and-norm E-step, weighted
//! SYRK scatter, one call per 1024-row batch and component) against its
//! oracles:
//!
//! * a hand-rolled per-row **three-pass** EM (`reference::per_row_em`) —
//!   Algorithm 1 as the paper states it, on the `Σ⁻¹` quadratic form over
//!   the sequential `fml_linalg::reference` kernels and one GER per row
//!   around the *new* means — independent of the whitened form, of the
//!   blocked kernels and of the one-pass mean-shifted M-step, and the one
//!   place the three-pass arithmetic survives: the fused drivers (dense and
//!   factorized) are held to it on every GMM fixture of this file, of
//!   `equivalence.rs` and of `fml-core/tests/star_join.rs`;
//! * the forced-dense fit, for batches that mix sparse and dense rows.

mod reference;

use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::{SyntheticConfig, Workload};
use fml_gmm::em::{train_dense_from, DensePassSource, GmmFit, PAR_BATCH_TUPLES};
use fml_gmm::{EStep, FactorizedGmm, FillScratch, GmmConfig, GmmModel, Precomputed};
use fml_linalg::block::BlockPartition;
use fml_linalg::testutil::TestRng;
use fml_linalg::{gemm, vector, BlockVec, ExecPolicy, KernelPolicy, Matrix, SparseMode, Vector};
use fml_store::factorized_scan::FactorizedScan;
use fml_store::{Database, FeatureGroup, OrdinalArena, Schema, StoreResult, DEFAULT_BLOCK_PAGES};
use reference::per_row_em;

/// `n` rows around `k` well-separated centres in `d` dimensions, and an
/// initial model near (not at) the truth: centres nudged, identity
/// covariances, uniform weights.
fn blobs(n: usize, d: usize, k: usize, seed: u64) -> (Vec<Vec<f64>>, GmmModel) {
    let mut rng = TestRng::new(seed);
    let centres: Vec<Vec<f64>> = (0..k).map(|_| rng.vec_in(d, -4.0, 4.0)).collect();
    let rows = (0..n)
        .map(|i| {
            let c = &centres[i % k];
            c.iter().map(|m| m + rng.f64_in(-1.0, 1.0)).collect()
        })
        .collect();
    let means = centres
        .iter()
        .map(|c| Vector::from_vec(c.iter().map(|m| m + rng.f64_in(-0.3, 0.3)).collect()))
        .collect();
    let initial = GmmModel::new(vec![1.0 / k as f64; k], means, vec![Matrix::identity(d); k]);
    (rows, initial)
}

/// How a row of a fixture is stored: its one-hot indices or its nonzero
/// pairs (`Dense` for a dense row).
enum Stored {
    Dense,
    OneHot(Vec<u32>),
    Csr(Vec<u32>, Vec<f64>),
}

/// Fixture rows as the dense driver's source: each in its stored form, or
/// every row dense under [`SparseMode::Dense`] or when `forms` is empty.
struct Rows<'a> {
    rows: &'a [Vec<f64>],
    forms: &'a [Stored],
}

impl DensePassSource for Rows<'_> {
    fn for_each(&mut self, f: &mut dyn FnMut(BlockVec<'_>)) -> StoreResult<()> {
        for (i, x) in self.rows.iter().enumerate() {
            f(match self.forms.get(i) {
                Some(Stored::OneHot(idx)) => BlockVec::OneHot(idx),
                Some(Stored::Csr(idx, vals)) => BlockVec::Csr { idx, vals },
                _ => BlockVec::Dense(x),
            });
        }
        Ok(())
    }

    fn num_tuples(&self) -> u64 {
        self.rows.len() as u64
    }

    fn dim(&self) -> usize {
        self.rows[0].len()
    }
}

fn fit(rows: &[Vec<f64>], initial: &GmmModel, iters: usize) -> GmmFit {
    fit_stored(rows, &[], initial, iters, &ExecPolicy::new())
}

fn fit_stored(
    rows: &[Vec<f64>],
    forms: &[Stored],
    initial: &GmmModel,
    iters: usize,
    exec: &ExecPolicy,
) -> GmmFit {
    let config = GmmConfig {
        k: initial.k(),
        max_iters: iters,
        ..GmmConfig::default()
    };
    let forms = if exec.resolve().sparse == SparseMode::Auto {
        forms
    } else {
        &[]
    };
    let mut source = Rows { rows, forms };
    train_dense_from(&mut source, "rows", &config, exec, initial.clone(), None).expect("fit")
}

/// Parameters within `1e-9`, every per-iteration log-likelihood within
/// `1e-10` relative.
fn assert_same_fit(label: &str, want: &GmmFit, got: &GmmFit) {
    assert_eq!(want.iterations, got.iterations, "{label}: iterations");
    let diff = want.model.max_param_diff(&got.model);
    assert!(diff < 1e-9, "{label}: parameter diff {diff}");
    for (i, (a, b)) in want
        .log_likelihood
        .iter()
        .zip(got.log_likelihood.iter())
        .enumerate()
    {
        assert!(a.is_finite() && b.is_finite(), "{label}: iteration {i}");
        assert!(
            (a - b).abs() <= 1e-10 * a.abs().max(1.0),
            "{label}: log-likelihood at iteration {i}: {a} vs {b}"
        );
    }
}

/// The blocked dense driver against the naive oracle — per-row Algorithm 1
/// over the sequential `fml_linalg::reference` loops — per width one row
/// short of a batch, exactly one, one over, and 2.4 batches.
#[test]
fn blocked_matches_the_naive_oracle_across_widths_and_batch_boundaries() {
    let ridge = GmmConfig::default().ridge;
    for d in [2usize, 26, 85] {
        for n in [1023usize, 1024, 1025, 2500] {
            let (rows, initial) = blobs(n, d, 3, (d * 10_000 + n) as u64);
            let want = per_row_em(&rows, &initial, 3, ridge);
            assert_same_fit(&format!("d={d} n={n}"), &want, &fit(&rows, &initial, 3));
        }
    }
}

/// A small fixture over four iterations: the hand-rolled per-row EM on the
/// naive reference loops, and the blocked driver's fit inline and fanned
/// out, all one model.
#[test]
fn naive_and_blocked_fits_match_the_hand_rolled_per_row_em() {
    let (rows, initial) = blobs(200, 11, 3, 7);
    let want = per_row_em(&rows, &initial, 4, GmmConfig::default().ridge);
    for p in [KernelPolicy::Blocked, KernelPolicy::BlockedParallel] {
        let exec = ExecPolicy::new().kernel_policy(p);
        let got = fit_stored(&rows, &[], &initial, 4, &exec);
        assert_same_fit(&format!("{p} vs per-row EM"), &want, &got);
    }
}

/// Every third row stored one-hot, every third a weighted sparse row (CSR),
/// the rest dense — interleaved, so every batch of dense rows is gathered
/// around the sparse ones — with their stored forms and an initial model on
/// the first three rows.
fn mixed_rows() -> (Vec<Vec<f64>>, Vec<Stored>, GmmModel) {
    let (d, n) = (24usize, 1500usize);
    let mut rng = TestRng::new(31);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| match i % 3 {
            0 => {
                let mut x = vec![0.0; d];
                for b in 0..3 {
                    x[b * 8 + rng.range(0, 8)] = 1.0;
                }
                x
            }
            1 => {
                let mut x = vec![0.0; d];
                for _ in 0..4 {
                    x[rng.range(0, d)] = rng.f64_in(0.5, 2.0);
                }
                x
            }
            _ => rng.vec_in(d, -1.0, 2.0),
        })
        .collect();
    let forms = (rows.iter().enumerate())
        .map(|(i, x)| {
            let nonzero = (0u32..).zip(x.iter().copied()).filter(|&(_, v)| v != 0.0);
            let (idx, vals): (Vec<u32>, Vec<f64>) = nonzero.unzip();
            match i % 3 {
                0 => Stored::OneHot(idx),
                1 => Stored::Csr(idx, vals),
                _ => Stored::Dense,
            }
        })
        .collect();
    let means = (0..3)
        .map(|c| Vector::from_vec(rows[c].iter().map(|v| v + 0.1).collect()))
        .collect();
    let initial = GmmModel::new(vec![1.0 / 3.0; 3], means, vec![Matrix::identity(d); 3]);
    (rows, forms, initial)
}

#[test]
fn a_batch_mixing_sparse_and_dense_rows_matches_the_all_dense_fit() {
    let (rows, forms, initial) = mixed_rows();
    let all_dense = ExecPolicy::new().sparse_mode(SparseMode::Dense);
    let dense = fit_stored(&rows, &forms, &initial, 3, &all_dense);
    let auto = fit_stored(&rows, &forms, &initial, 3, &ExecPolicy::new());
    // the sparse path's own tolerance (tests/sparse_path.rs)
    let diff = dense.model.max_param_diff(&auto.model);
    assert!(diff < 1e-6, "mixed vs all-dense model diff {diff}");
    for (a, b) in dense.log_likelihood.iter().zip(auto.log_likelihood.iter()) {
        assert!(
            (a - b).abs() / a.abs().max(1.0) < 1e-8,
            "log-likelihood diverged: {a} vs {b}"
        );
    }
}

/// Four distinct points, each repeated, and more components than points:
/// components collapse onto single points.  The initial covariances are
/// rank one, so the very first precompute needs the ridge repair.
fn collapsed_points() -> (Vec<Vec<f64>>, GmmModel) {
    let points = [
        [0.0, 0.0, 0.0],
        [4.0, 0.0, 1.0],
        [0.0, 5.0, 2.0],
        [3.0, 3.0, 3.0],
    ];
    let rows: Vec<Vec<f64>> = (0..240).map(|i| points[i % 4].to_vec()).collect();
    let k = 5;
    let rank_one = {
        let mut m = Matrix::zeros(3, 3);
        gemm::ger(1.0, &[1.0, 2.0, -1.0], &[1.0, 2.0, -1.0], &mut m);
        m
    };
    assert!(fml_linalg::Cholesky::factor(&rank_one).is_err());
    let means = (0..k)
        .map(|c| Vector::from_vec(points[c % 4].iter().map(|v| v + 0.5 * c as f64).collect()))
        .collect();
    let initial = GmmModel::new(vec![1.0 / k as f64; k], means, vec![rank_one; k]);
    (rows, initial)
}

#[test]
fn a_repaired_covariance_whitens_with_the_repaired_factor() {
    let (rows, initial) = collapsed_points();
    let k = initial.k();

    // U·Uᵀ is the inverse `Precomputed` reports — same repaired factor.
    let ridge = GmmConfig::default().ridge;
    let pre = Precomputed::from_model(&initial, ridge);
    for c in 0..k {
        let u = pre.whitener(c);
        let uut = gemm::matmul(&u, &u.transpose());
        let scale = pre.inverses[c]
            .as_slice()
            .iter()
            .fold(1.0f64, |m, v| m.max(v.abs()));
        let diff = uut.max_abs_diff(&pre.inverses[c]);
        assert!(
            diff <= 1e-10 * scale,
            "component {c}: {diff} at scale {scale}"
        );
    }

    let want = per_row_em(&rows, &initial, 6, ridge);
    let got = fit(&rows, &initial, 6);
    for f in [&want, &got] {
        assert!(f.log_likelihood.iter().all(|ll| ll.is_finite()));
        for w in f.log_likelihood.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6 * w[0].abs().max(1.0),
                "log-likelihood decreased: {:?}",
                f.log_likelihood
            );
        }
        let sum: f64 = f.model.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
    // Collapsed components have covariances near the ridge, where the
    // density is steep: the driver and the reference agree on the trace,
    // loosely.
    for (a, b) in want.log_likelihood.iter().zip(got.log_likelihood.iter()) {
        assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "{a} vs {b}");
    }
}

// ---------------------------------------------------------------------------
// The fused one-pass drivers against the three-pass oracle
// ---------------------------------------------------------------------------

/// One fixture of the fused-vs-three-pass differential: the denormalized
/// rows, the starting model every side shares and, for a join fixture, the
/// relations (and scan block size) `F-GMM` trains over.
struct Fixture {
    name: String,
    rows: Vec<Vec<f64>>,
    /// The rows' stored forms; empty when every row is dense.
    forms: Vec<Stored>,
    initial: GmmModel,
    join: Option<(Workload, usize)>,
}

fn row_fixture(name: &str, (rows, initial): (Vec<Vec<f64>>, GmmModel)) -> Fixture {
    Fixture {
        name: name.to_string(),
        rows,
        forms: Vec::new(),
        initial,
        join: None,
    }
}

/// A join fixture: the rows `S-GMM` would see and the model
/// `GmmInit::from_relations` starts every strategy from.
fn join_fixture(name: &str, w: Workload, k: usize, block_pages: usize) -> Fixture {
    let (rows, initial) = reference::joined(&w, k, block_pages);
    Fixture {
        name: name.to_string(),
        rows,
        forms: Vec::new(),
        initial,
        join: Some((w, block_pages)),
    }
}

fn binary(
    n_s: u64,
    n_r: u64,
    d_s: usize,
    d_r: usize,
    k: usize,
    noise_std: f64,
    seed: u64,
) -> Workload {
    SyntheticConfig {
        n_s,
        n_r,
        d_s,
        d_r,
        k,
        noise_std,
        with_target: false,
        seed,
    }
    .generate()
    .unwrap()
}

fn star(n_s: u64, dims: Vec<DimSpec>, k: usize, noise_std: f64, seed: u64) -> Workload {
    MultiwayConfig {
        n_s,
        d_s: 2,
        dims,
        k,
        noise_std,
        with_target: false,
        seed,
    }
    .generate()
    .unwrap()
}

/// `w` with every fact's features replaced by two one-hot variables of four
/// categories, stored as codes (`star_join.rs`'s one-hot fact block).
fn with_one_hot_facts(w: &Workload) -> Workload {
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
    let schema = Schema::fact(w.spec.fact.clone(), 8, w.spec.dimensions.len());
    let one_hot = FeatureGroup::OneHot {
        cardinalities: vec![4, 4],
    };
    let rel = db
        .create_relation(schema.with_groups(vec![one_hot]))
        .unwrap();
    let facts =
        w.db.relation(&w.spec.fact)
            .unwrap()
            .lock()
            .read_all()
            .unwrap();
    for mut fact in facts {
        let codes = [fact.key * 7 % 4, 4 + (fact.key * 3 + 1) % 4];
        fact.features = (0..8u64).map(|j| f64::from(codes.contains(&j))).collect();
        fact.target = None;
        rel.lock().append(&fact).unwrap();
    }
    rel.lock().flush().unwrap();
    Workload {
        db,
        spec: w.spec.clone(),
        name: format!("{} with one-hot facts", w.name),
        generating_clusters: w.generating_clusters,
    }
}

/// Every GMM fixture of this file, of `equivalence.rs` and of
/// `fml-core/tests/star_join.rs` (same generator parameters, component
/// counts and scan block sizes).
fn fixtures() -> Vec<Fixture> {
    let mut all = vec![
        row_fixture("blobs d=11", blobs(200, 11, 3, 7)),
        row_fixture("blobs d=2", blobs(1025, 2, 3, 21_025)),
        row_fixture("blobs d=26", blobs(1025, 26, 3, 261_025)),
        row_fixture("blobs d=85", blobs(1025, 85, 3, 851_025)),
        {
            let (rows, forms, initial) = mixed_rows();
            Fixture {
                forms,
                ..row_fixture("mixed sparse/dense rows", (rows, initial))
            }
        },
        row_fixture("k=5 > 4 distinct points", collapsed_points()),
    ];
    let bp = DEFAULT_BLOCK_PAGES;
    let mut join = |name: String, w: Workload, k: usize, block_pages: usize| {
        all.push(join_fixture(&name, w, k, block_pages));
    };
    // equivalence.rs
    for rr in [5u64, 20, 60] {
        let w = binary(12 * rr, 12, 2, 4, 3, 0.8, 100 + rr);
        join(format!("binary rr={rr}"), w, 3, bp);
    }
    for d_r in [2usize, 8, 16] {
        let w = binary(400, 16, 3, d_r, 2, 0.7, 200 + d_r as u64);
        join(format!("binary d_R={d_r}"), w, 2, bp);
    }
    for k in [1usize, 2, 4] {
        let w = binary(350, 14, 2, 5, k.max(2), 0.8, 300 + k as u64);
        join(format!("binary k={k}"), w, k, bp);
    }
    let dims = |shape: &[(u64, usize)]| shape.iter().map(|&(n, d)| DimSpec::new(n, d)).collect();
    join(
        "star 3+5".into(),
        star(500, dims(&[(15, 3), (8, 5)]), 3, 0.8, 55),
        3,
        bp,
    );
    join(
        "binary io".into(),
        binary(2000, 20, 3, 10, 2, 0.8, 77),
        2,
        bp,
    );
    join(
        "binary policies".into(),
        binary(300, 12, 2, 5, 2, 0.8, 77),
        2,
        bp,
    );
    join(
        "star 3+2".into(),
        star(250, dims(&[(10, 3), (5, 2)]), 2, 0.6, 78),
        2,
        bp,
    );
    join(
        "binary d_R=35".into(),
        binary(300, 10, 3, 35, 3, 0.8, 91),
        3,
        bp,
    );
    // star_join.rs
    let unequal = [(10, 3), (6, 5), (8, 3)];
    join(
        "star 3+5+3, seed 11".into(),
        star(400, dims(&unequal), 2, 0.6, 11),
        2,
        bp,
    );
    join(
        "star 3+5+3, seed 47".into(),
        star(500, dims(&unequal), 2, 0.6, 47),
        2,
        bp,
    );
    let wide = star(600, dims(&[(12, 12), (8, 20), (10, 12)]), 2, 0.6, 23);
    join("star 12+20+12".into(), wide, 2, bp);
    for seed in [29, 43] {
        let w = binary(900, 90, 2, 46, 2, 0.6, seed);
        join(format!("binary, five windows, seed {seed}"), w, 2, 1);
    }
    join(
        "binary d_R=36".into(),
        binary(3000, 75, 4, 36, 2, 0.6, 41),
        2,
        bp,
    );
    let one_hot = with_one_hot_facts(&star(400, dims(&[(10, 3), (6, 4)]), 2, 0.6, 31));
    join("star, one-hot facts".into(), one_hot, 2, bp);
    all
}

/// The log-likelihood the dense driver's E-step assigns `model` — the
/// whitened form, row by row (a row's bits do not depend on its batch),
/// summed per [`PAR_BATCH_TUPLES`]-row batch like the driver's one chunk.
fn dense_e_step_ll(rows: &[Vec<f64>], model: &GmmModel, ridge: f64) -> f64 {
    let pre = Precomputed::from_model(model, ridge);
    let whiteners: Vec<Matrix> = (0..model.k()).map(|c| pre.whitener(c)).collect();
    let d = model.dim();
    let (mut centered, mut quad) = (vec![0.0; d], [0.0]);
    let mut ll = 0.0;
    for batch in rows.chunks(PAR_BATCH_TUPLES) {
        let mut batch_ll = 0.0;
        for x in batch {
            let mut log_dens: Vec<f64> = (0..model.k())
                .map(|c| {
                    vector::sub_into(x, pre.means[c].as_slice(), &mut centered);
                    let mut whitened = vec![0.0; d];
                    gemm::matmul_upper_acc(&centered, &whiteners[c], &mut whitened);
                    gemm::row_sq_norms(&whitened, d, &mut quad);
                    pre.log_norm[c] - 0.5 * quad[0]
                })
                .collect();
            batch_ll += pre.finish_responsibilities_in_place(&mut log_dens);
        }
        ll += batch_ll;
    }
    ll
}

/// The log-likelihood the factorized E-step assigns `model`: the scorer's
/// use of [`EStep`] — rows rebuilt per fact, no arena — in scan order.
fn factorized_e_step_ll(w: &Workload, block_pages: usize, model: &GmmModel, ridge: f64) -> f64 {
    let partition = BlockPartition::new(&w.spec.feature_partition(&w.db).unwrap());
    let pre = Precomputed::from_model(model, ridge);
    let estep = EStep::new(pre, &partition, SparseMode::Auto);
    let (k, d_s) = (estep.k(), estep.fact_width());
    let (mut pd_s, mut log_dens) = (vec![0.0; k * d_s], vec![0.0; k]);
    // One single-row arena per dimension, refilled per fact.
    let q = partition.num_blocks() - 1;
    let mut rows: Vec<OrdinalArena> = (0..q)
        .map(|i| OrdinalArena::new(estep.row_len(i)))
        .collect();
    let mut fill = FillScratch::default();
    let mut ll = 0.0;
    let mut scan = FactorizedScan::new(&w.db, &w.spec, block_pages).unwrap();
    while scan.next_window().unwrap() {
        while scan.next_block().unwrap() {
            let block = scan.block();
            for f in 0..block.len() {
                let ords = block.ords_of(f);
                for (i, arena) in rows.iter_mut().enumerate() {
                    let tuple = |_| scan.cache().row(i, ords[i]);
                    estep.fill_rows(i, &[0], tuple, arena, &mut fill);
                }
                let x_s = block.rows().row(f);
                estep.log_densities(x_s, |i| rows[i].row(0), &mut pd_s, &mut log_dens);
                ll += estep.pre.finish_responsibilities_in_place(&mut log_dens);
            }
        }
    }
    ll
}

/// The largest absolute parameter of `model`, at least 1.
fn scale(model: &GmmModel) -> f64 {
    let params = model
        .means
        .iter()
        .flat_map(|m| m.iter())
        .chain(model.covariances.iter().flat_map(|c| c.as_slice().iter()));
    params.fold(1.0f64, |m, v| m.max(v.abs()))
}

/// No amplification: from one shared starting model, one fused iteration of
/// the dense driver and of `F-GMM` against one iteration of the three-pass
/// oracle, on every fixture.  The parameters
/// agree to `1e-10` of the parameter scale; the log-likelihood is that of
/// the starting model, so it is the (unchanged) E-step's bit for bit.
#[test]
fn one_fused_iteration_matches_one_three_pass_iteration_on_every_fixture() {
    let ridge = GmmConfig::default().ridge;
    for fx in fixtures() {
        let want = per_row_em(&fx.rows, &fx.initial, 1, ridge);
        let bound = 1e-10 * scale(&want.model);
        let config = GmmConfig {
            k: fx.initial.k(),
            max_iters: 1,
            ..GmmConfig::default()
        };
        let what = &fx.name;
        let m = fit_stored(&fx.rows, &fx.forms, &fx.initial, 1, &ExecPolicy::new());
        let diff = want.model.max_param_diff(&m.model);
        assert!(diff <= bound, "{what}: dense driver {diff} > {bound}");
        assert_same_fit(what, &want, &m);
        // (sparse rows take the gather form of the E-step instead)
        if fx.forms.is_empty() {
            let e_step = dense_e_step_ll(&fx.rows, &fx.initial, ridge);
            assert_eq!(m.log_likelihood[0].to_bits(), e_step.to_bits(), "{what}");
        }

        let Some((w, block_pages)) = &fx.join else {
            continue;
        };
        let exec = ExecPolicy::new().block_pages(*block_pages);
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &exec).unwrap();
        let diff = want.model.max_param_diff(&f.model);
        assert!(diff <= bound, "{what}: F-GMM {diff} > {bound}");
        assert_same_fit(what, &want, &f);
        let e_step = factorized_e_step_ll(w, *block_pages, &fx.initial, ridge);
        assert_eq!(f.log_likelihood[0].to_bits(), e_step.to_bits(), "{what}");
    }
}

/// The bound the mean-shifted M-step is stated with: the term it subtracts
/// is the squared *step* of the mean, so against the three-pass oracle its
/// covariances are off by `≈ ε·‖µ' − µ‖²` — not by `ε·‖x‖²` like the
/// raw-moment form, and here the data sit `1e4` from the origin.  The first
/// step is far from converged: every initial mean is `≥ 50σ` from every blob.
#[test]
fn the_shifted_m_step_cancels_to_the_squared_step_of_the_mean() {
    let (k, d, n) = (3usize, 6usize, 900usize);
    let mut rng = TestRng::new(97);
    let centre = |c: usize, i: usize| 1e4 + if i % k == c { 150.0 } else { 0.0 };
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|r| {
            (0..d)
                .map(|i| centre(r % k, i) + rng.f64_in(-1.0, 1.0))
                .collect()
        })
        .collect();
    // uniform(−1, 1) noise: σ = 1/√3 per coordinate
    let sigma = 1.0 / 3f64.sqrt();
    let means: Vec<Vector> = (0..k)
        .map(|c| Vector::from_vec((0..d).map(|i| centre(c, i) + 30.0).collect()))
        .collect();
    for (mean, x) in means.iter().flat_map(|m| rows.iter().map(move |x| (m, x))) {
        let diff: Vec<f64> = (0..d).map(|i| mean[i] - x[i]).collect();
        let dist = vector::dot(&diff, &diff).sqrt();
        assert!(dist >= 50.0 * sigma, "an initial mean {dist} from a row");
    }
    let initial = GmmModel::new(vec![1.0 / k as f64; k], means, vec![Matrix::identity(d); k]);
    let ridge = GmmConfig::default().ridge;

    let want = per_row_em(&rows, &initial, 1, ridge);
    let got = fit(&rows, &initial, 1);
    for c in 0..k {
        let step = (0..d)
            .map(|i| want.model.means[c][i] - initial.means[c][i])
            .collect::<Vec<_>>();
        let step_sq = vector::dot(&step, &step);
        assert!(
            step_sq.sqrt() >= 50.0 * sigma,
            "the first step must be long"
        );
        let diff = want.model.covariances[c].max_abs_diff(&got.model.covariances[c]);
        assert!(
            diff <= 1e-12 * step_sq,
            "component {c}: covariance off by {diff} after a step of {step_sq}²"
        );
    }

    // Ten iterations on: the fits agree to `assert_same_fit`'s bounds (the
    // covariance scale is σ² = 1/3, the means sit at 1e4).
    let want = per_row_em(&rows, &initial, 10, ridge);
    let got = fit(&rows, &initial, 10);
    assert_same_fit("offset blobs", &want, &got);
    for (a, b) in want.model.covariances.iter().zip(&got.model.covariances) {
        let diff = a.max_abs_diff(b);
        assert!(diff <= 1e-9 * sigma * sigma, "covariances {diff}");
    }
}
