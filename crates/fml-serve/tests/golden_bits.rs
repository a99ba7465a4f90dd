//! Golden bits: every fit and score of the four benchmark workloads, hashed
//! bit for bit and compared with the committed `golden_bits.txt`.
//!
//! The workloads are built as `benchmark/src/workloads.rs` builds them at its
//! `--smoke` shapes (widths, `q` and the dense / one-hot / CSR mix), on seeds
//! 1 and 2, with the benchmark's model configurations.  Per workload, seed,
//! and [`SparseMode`] the runs are the M, S and F fits, F scoring
//! of each fit and M and S scoring of the F fit.  A run's line holds one hash
//! of its `f64::to_bits` streams — objective trace and parameters for a fit,
//! keys and score rows for a scoring — followed by its [`IoSnapshot`]
//! counters.  A change that claims to move no bit must leave the file as it
//! is; a failure names every run whose line moved and writes the lines it
//! computed next to the test binary's scratch directory.

use fml_core::fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_core::fml_data::{EmulatedDataset, Workload};
use fml_core::prelude::*;
use fml_serve::prelude::*;
use fml_store::IoSnapshot;

/// The committed golden lines.
const GOLDEN: &str = include_str!("golden_bits.txt");

/// EM iterations / training epochs of every fit (the benchmark's).
const ITERATIONS: usize = 2;

/// FNV-1a over 64-bit words: stable across platforms and releases.
struct Hash(u64);

impl Hash {
    fn new() -> Self {
        Hash(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|x| self.word(x.to_bits()));
    }
}

/// One run's golden line.
fn line(name: &str, hash: &Hash, io: &IoSnapshot) -> String {
    format!(
        "{name} {:016x} pages_read={} pages_written={} tuples_read={} tuples_written={} fields_read={} index_probes={}",
        hash.0,
        io.pages_read,
        io.pages_written,
        io.tuples_read,
        io.tuples_written,
        io.fields_read,
        io.index_probes
    )
}

/// A model family as the golden runs drive it.
trait Family {
    type Fit: Scorer;

    fn fit(session: &Session<'_>, algorithm: Algorithm) -> Trained<Self::Fit>;

    /// Objective trace and parameters.
    fn hash_fit(fit: &Self::Fit, h: &mut Hash);

    fn hash_row(row: &<Self::Fit as Scorer>::Row, h: &mut Hash);
}

/// The benchmark's GMM: K = 5, no early stop.
struct GmmRuns;

impl Family for GmmRuns {
    type Fit = GmmFit;

    fn fit(session: &Session<'_>, algorithm: Algorithm) -> Trained<GmmFit> {
        let gmm = Gmm::with_k(5).iterations(ITERATIONS).tolerance(0.0);
        session.fit(gmm.algorithm(algorithm)).unwrap()
    }

    fn hash_fit(fit: &GmmFit, h: &mut Hash) {
        h.floats(&fit.log_likelihood);
        let model = &fit.model;
        h.floats(&model.weights);
        model.means.iter().for_each(|m| h.floats(m.as_slice()));
        model
            .covariances
            .iter()
            .for_each(|c| h.floats(c.as_slice()));
    }

    fn hash_row(row: &GmmScore, h: &mut Hash) {
        h.word(row.cluster as u64);
        h.word(row.log_likelihood.to_bits());
    }
}

/// The benchmark's network: one hidden layer of 50 units.
struct NnRuns;

impl Family for NnRuns {
    type Fit = NnFit;

    fn fit(session: &Session<'_>, algorithm: Algorithm) -> Trained<NnFit> {
        let nn = Nn::with_hidden(50).epochs(ITERATIONS);
        session.fit(nn.algorithm(algorithm)).unwrap()
    }

    fn hash_fit(fit: &NnFit, h: &mut Hash) {
        h.floats(&fit.loss_trace);
        for layer in fit.model.layers() {
            h.floats(layer.weights.as_slice());
            h.floats(&layer.bias);
        }
    }

    fn hash_row(row: &f64, h: &mut Hash) {
        h.word(row.to_bits());
    }
}

/// The runs of one configuration: three fits, F scoring of each, and M and
/// S scoring of the F fit.
fn runs<F: Family>(w: &Workload, tag: &str, exec: ExecPolicy, out: &mut Vec<String>) {
    let session = Session::new(&w.db).join(&w.spec).exec(exec);
    let score = |fit: &Trained<F::Fit>, algorithm: Algorithm, name: String| {
        let scores = (session.score_with(fit, &Scoring::new().algorithm(algorithm))).unwrap();
        let mut h = Hash::new();
        for (key, row) in scores.keys.iter().zip(&scores.rows) {
            h.word(*key);
            F::hash_row(row, &mut h);
        }
        line(&format!("{tag} {name}"), &h, &scores.io)
    };
    let mut fits = Vec::new();
    for algorithm in Algorithm::all() {
        let trained = F::fit(&session, algorithm);
        let mut h = Hash::new();
        F::hash_fit(&trained.fit, &mut h);
        out.push(line(
            &format!("{tag} fit_{}", suffix(algorithm)),
            &h,
            &trained.io,
        ));
        fits.push(trained);
    }
    for (fit, algorithm) in fits.iter().zip(Algorithm::all()) {
        let name = format!("score_f(fit_{})", suffix(algorithm));
        out.push(score(fit, Algorithm::Factorized, name));
    }
    for algorithm in [Algorithm::Materialized, Algorithm::Streaming] {
        let name = format!("score_{}(fit_f)", suffix(algorithm));
        out.push(score(&fits[2], algorithm, name));
    }
}

fn suffix(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Materialized => "m",
        Algorithm::Streaming => "s",
        Algorithm::Factorized => "f",
    }
}

/// The configurations of one workload: seeds 1 and 2 at `SparseMode::Auto`,
/// and with `dense` seed 1 at `SparseMode::Dense`.
fn workload_lines<F: Family>(name: &str, dense: bool, build: fn(u64) -> Workload) -> Vec<String> {
    let mut configs = vec![(1, SparseMode::Auto)];
    if dense {
        configs.push((1, SparseMode::Dense));
    }
    configs.push((2, SparseMode::Auto));
    let mut out = Vec::new();
    let mut w = build(1);
    for (seed, mode) in configs {
        if seed == 2 {
            w = build(2);
        }
        let tag = format!("{name} seed={seed} {mode:?}").to_lowercase();
        let exec = ExecPolicy::new().seed(seed).sparse_mode(mode);
        runs::<F>(&w, &tag, exec, &mut out);
    }
    out
}

/// Compares one workload's lines with the committed ones, naming every run
/// whose line moved.
fn check(name: &str, got: Vec<String>) {
    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| l.split(' ').next() == Some(name))
        .collect();
    let moved: Vec<String> = (0..got.len().max(want.len()))
        .filter(|&i| want.get(i).copied() != got.get(i).map(String::as_str))
        .map(|i| match (want.get(i), got.get(i)) {
            (Some(w), Some(g)) => format!("  golden: {w}\n  now:    {g}"),
            (Some(w), None) => format!("  golden: {w}\n  now:    (missing)"),
            (None, g) => format!("  golden: (missing)\n  now:    {}", g.unwrap()),
        })
        .collect();
    if !moved.is_empty() {
        let path = format!("{}/golden_bits.{name}.txt", env!("CARGO_TARGET_TMPDIR"));
        let _ = std::fs::write(&path, got.join("\n") + "\n");
        panic!(
            "{} of {name}'s golden runs moved (computed lines in {path}):\n{}",
            moved.len(),
            moved.join("\n")
        );
    }
}

/// Expedia4 at half the benchmark's smoke scale: `d_S = 7`, one dense
/// `d_R = 78` dimension, about 950 facts.
fn gmm_wide_binary(seed: u64) -> Workload {
    EmulatedDataset::Expedia4.generate(0.0015, seed).unwrap()
}

/// Movies-3way at scale 0.002: `d_S = 1`, dense dimensions of width 4 and 21.
fn gmm_narrow_star(seed: u64) -> Workload {
    EmulatedDataset::Movies3Way.generate(0.002, seed).unwrap()
}

/// Walmart (sparse) at scale 0.005: 126 one-hot fact columns, 175 one-hot
/// dimension columns.
fn nn_sparse_binary(seed: u64) -> Workload {
    EmulatedDataset::WalmartSparse
        .generate(0.005, seed)
        .unwrap()
}

/// A one-hot, a CSR and a dense dimension side by side.
fn nn_mixed_star(seed: u64) -> Workload {
    MultiwayConfig {
        n_s: 2_000,
        d_s: 4,
        dims: vec![
            DimSpec::categorical(20, 40),
            DimSpec::sparse_numeric(80, 64, 6),
            DimSpec::new(1_000, 16),
        ],
        k: 5,
        noise_std: 1.0,
        with_target: true,
        seed,
    }
    .generate()
    .unwrap()
}

#[test]
fn gmm_wide_binary_keeps_its_bits() {
    let name = "gmm_wide_binary";
    check(
        name,
        workload_lines::<GmmRuns>(name, false, gmm_wide_binary),
    );
}

#[test]
fn gmm_narrow_star_keeps_its_bits() {
    let name = "gmm_narrow_star";
    check(
        name,
        workload_lines::<GmmRuns>(name, false, gmm_narrow_star),
    );
}

#[test]
fn nn_sparse_binary_keeps_its_bits() {
    let name = "nn_sparse_binary";
    check(
        name,
        workload_lines::<NnRuns>(name, false, nn_sparse_binary),
    );
}

#[test]
fn nn_mixed_star_keeps_its_bits() {
    let name = "nn_mixed_star";
    check(name, workload_lines::<NnRuns>(name, true, nn_mixed_star));
}
