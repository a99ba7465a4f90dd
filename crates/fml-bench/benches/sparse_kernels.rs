//! Micro-benchmarks of the sparse kernels against their dense counterparts,
//! swept over block occupancy (1%–50%).  Every sparse kernel has one loop,
//! so it has one row (`variant` `onehot` / `csr`); the dense side has the
//! blocked kernel a fit runs (`dense`) and, where it reduces, its sequential
//! oracle from `fml_linalg::reference` (`dense_reference`).
//!
//! Four kernel families are measured:
//!
//! * `spmm` — one-hot × dense block product: dense GEMM
//!   ([`gemm::matmul_acc`]) vs the index-form gather
//!   ([`sparse::spmm_onehot`]).
//! * `spmm_csr` — **weighted** sparse × dense block product, swept over
//!   occupancy with general values: dense GEMM vs the CSR kernel
//!   ([`csr::spmm_csr`]).
//! * `ger` — the NN first-layer gradient on a `width × n_h` embedding table:
//!   dense GER `x·δᵀ` ([`gemm::ger`], element-wise: no reference row) vs the
//!   one-hot row scatter the trainers run ([`sparse::ger_onehot`]).
//! * `quadratic_form` — `xᵀAx` for one-hot `x`: dense form vs the `s²`-load
//!   pair gather ([`sparse::quadratic_form_onehot_pair`]).
//!
//! The run emits **`BENCH_sparse.json`** at the workspace root with a
//! `machine` stamp (`nproc`, the resolved thread count) and per-row
//! `speedup_vs_dense` (over the blocked `dense` row); CI's sparse-speedup
//! guard asserts the `width126` one-hot block (the WalmartSparse fact
//! layout: 15 active of 126) AND the width-126 CSR block at ≤ 10% occupancy
//! (12 of 126) beat the dense blocked GEMM by ≥ 3×.  Set
//! `FML_BENCH_SMOKE=1` for a single-shot smoke run that still exercises
//! every row.

use fml_bench::timing::smoke;
use fml_linalg::csr::{self, CsrBlock};
use fml_linalg::policy::num_threads;
use fml_linalg::{gemm, reference, sparse, Matrix};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct BenchResult {
    kernel: String,
    size: String,
    occupancy: f64,
    variant: &'static str,
    mean_ns: f64,
}

/// `C += A·B` over a row-major `A`.
type Product = fn(&[f64], &Matrix, &mut [f64]);

/// `xᵀ A y`.
type QuadraticForm = fn(&[f64], &Matrix, &[f64]) -> f64;

/// The dense block product's two arithmetics: the sequential oracle and the
/// blocked kernel.
const DENSE_PRODUCTS: [(&str, Product); 2] = [
    ("dense_reference", reference::matmul_acc),
    ("dense", gemm::matmul_acc),
];

fn pseudo_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut rng = fml_linalg::testutil::TestRng::new(salt);
    Matrix::from_vec(rows, cols, rng.vec_in(rows * cols, -1.0, 1.0))
}

fn pseudo_vec(n: usize, salt: u64) -> Vec<f64> {
    fml_linalg::testutil::TestRng::new(salt).vec_in(n, -1.0, 1.0)
}

/// Mean ns/iter: one warm-up call, then enough repetitions for a stable mean
/// (single call in smoke mode) — same scheme as `linalg_kernels`.
fn measure<F: FnMut()>(mut f: F) -> f64 {
    f();
    if smoke() {
        let t = Instant::now();
        f();
        return t.elapsed().as_nanos() as f64;
    }
    let probe = Instant::now();
    f();
    let per_iter = probe.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.4 / per_iter) as usize).clamp(3, 400);
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

/// A one-hot block: `rows` rows of `nnz` ascending indices over `width`
/// columns (evenly split column sub-ranges, deterministic picks), plus its
/// dense 0/1 expansion.
fn onehot_block(rows: usize, width: usize, nnz: usize, salt: u64) -> (Vec<u32>, Matrix) {
    let mut rng = fml_linalg::testutil::TestRng::new(salt);
    let card = width / nnz;
    let mut idx = Vec::with_capacity(rows * nnz);
    let mut dense = Matrix::zeros(rows, width);
    for r in 0..rows {
        for col in 0..nnz {
            let offset = col * card;
            let pick = offset + rng.range(0, card);
            idx.push(pick as u32);
            dense[(r, pick)] = 1.0;
        }
    }
    (idx, dense)
}

/// Occupancy sweep points `(width, nnz)` — ~1% to 50% — plus the width-126
/// WalmartSparse layout (15 of 126 ≈ 12%) that the CI guard reads.
fn sweep_points() -> Vec<(usize, usize)> {
    if smoke() {
        return vec![(64, 4), (126, 15)];
    }
    vec![
        (256, 2),   // ~1%
        (256, 8),   // ~3%
        (256, 32),  // 12.5%
        (256, 128), // 50%
        (126, 15),  // WalmartSparse fact block (the guard row)
    ]
}

fn bench_spmm(results: &mut Vec<BenchResult>) {
    let rows = if smoke() { 64 } else { 4096 };
    let n = 64; // hidden width scale
    for (width, nnz) in sweep_points() {
        let (idx, x) = onehot_block(rows, width, nnz, 1);
        let b = pseudo_matrix(width, n, 2);
        let mut c = Matrix::zeros(rows, n);
        let size = format!("{rows}x{width}x{n}/width{width}");
        let occupancy = nnz as f64 / width as f64;
        for (variant, product) in DENSE_PRODUCTS {
            let mean_ns = measure(|| {
                c.fill_zero();
                product(x.as_slice(), &b, c.as_mut_slice());
            });
            results.push(BenchResult {
                kernel: "spmm".into(),
                size: size.clone(),
                occupancy,
                variant,
                mean_ns,
            });
        }
        let mean_ns = measure(|| {
            c.fill_zero();
            sparse::spmm_onehot(&idx, nnz, &b, &mut c);
        });
        results.push(BenchResult {
            kernel: "spmm".into(),
            size,
            occupancy,
            variant: "onehot",
            mean_ns,
        });
    }
}

/// A weighted-sparse block: `rows` rows of `nnz` ascending indices over
/// `width` columns with pseudo-random nonzero values (the general-CSR
/// workload: TF-IDF-ish weights, not 0/1), plus its dense expansion.
fn csr_block(rows: usize, width: usize, nnz: usize, salt: u64) -> (CsrBlock, Matrix) {
    let mut rng = fml_linalg::testutil::TestRng::new(salt);
    let card = width / nnz;
    let mut values = Vec::with_capacity(rows * nnz);
    let mut col_idx = Vec::with_capacity(rows * nnz);
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0);
    let mut dense = Matrix::zeros(rows, width);
    for r in 0..rows {
        for col in 0..nnz {
            let offset = col * card;
            let pick = offset + rng.range(0, card);
            let mut v = rng.f64_in(-2.0, 2.0);
            if v == 0.0 {
                v = 1.5;
            }
            col_idx.push(pick as u32);
            values.push(v);
            dense[(r, pick)] = v;
        }
        row_ptr.push(values.len());
    }
    (CsrBlock::new(values, col_idx, row_ptr, width), dense)
}

/// Occupancy sweep points for the CSR family — same densities as the one-hot
/// sweep, plus the width-126 block at ≤ 10% occupancy (12 of 126 ≈ 9.5%)
/// that the CI guard reads.
fn csr_sweep_points() -> Vec<(usize, usize)> {
    if smoke() {
        return vec![(64, 4), (126, 12)];
    }
    vec![
        (256, 2),   // ~1%
        (256, 8),   // ~3%
        (256, 32),  // 12.5%
        (256, 128), // 50%
        (126, 12),  // width-126 at ≤10% occupancy (the guard row)
    ]
}

fn bench_spmm_csr(results: &mut Vec<BenchResult>) {
    let rows = if smoke() { 64 } else { 4096 };
    let n = 64; // hidden width scale
    for (width, nnz) in csr_sweep_points() {
        let (x, dense_x) = csr_block(rows, width, nnz, 7);
        let b = pseudo_matrix(width, n, 8);
        let mut c = Matrix::zeros(rows, n);
        let size = format!("{rows}x{width}x{n}/width{width}");
        let occupancy = nnz as f64 / width as f64;
        for (variant, product) in DENSE_PRODUCTS {
            let mean_ns = measure(|| {
                c.fill_zero();
                product(dense_x.as_slice(), &b, c.as_mut_slice());
            });
            results.push(BenchResult {
                kernel: "spmm_csr".into(),
                size: size.clone(),
                occupancy,
                variant,
                mean_ns,
            });
        }
        let mean_ns = measure(|| {
            c.fill_zero();
            csr::spmm_csr(&x, &b, &mut c);
        });
        results.push(BenchResult {
            kernel: "spmm_csr".into(),
            size,
            occupancy,
            variant: "csr",
            mean_ns,
        });
    }
}

fn bench_ger(results: &mut Vec<BenchResult>) {
    let nh = if smoke() { 16 } else { 64 };
    for (width, nnz) in sweep_points() {
        let (idx_all, x) = onehot_block(1, width, nnz, 3);
        let xrow = x.row(0).to_vec();
        let delta = pseudo_vec(nh, 4);
        let mut a = Matrix::zeros(width, nh);
        let size = format!("{width}x{nh}/width{width}");
        let occupancy = nnz as f64 / width as f64;
        let mean_ns = measure(|| gemm::ger(0.5, &xrow, &delta, &mut a));
        results.push(BenchResult {
            kernel: "ger".into(),
            size: size.clone(),
            occupancy,
            variant: "dense",
            mean_ns,
        });
        let mean_ns = measure(|| sparse::ger_onehot(0.5, &idx_all, &delta, &mut a));
        results.push(BenchResult {
            kernel: "ger".into(),
            size,
            occupancy,
            variant: "onehot",
            mean_ns,
        });
    }
}

fn bench_quadratic_form(results: &mut Vec<BenchResult>) {
    for (width, nnz) in sweep_points() {
        let (idx, x) = onehot_block(1, width, nnz, 5);
        let xrow = x.row(0).to_vec();
        let a = pseudo_matrix(width, width, 6);
        let size = format!("{width}x{width}/width{width}");
        let occupancy = nnz as f64 / width as f64;
        let forms: [(_, QuadraticForm); 2] = [
            ("dense_reference", reference::quadratic_form),
            ("dense", gemm::quadratic_form),
        ];
        for (variant, quadratic_form) in forms {
            let mean_ns = measure(|| {
                std::hint::black_box(quadratic_form(&xrow, &a, &xrow));
            });
            results.push(BenchResult {
                kernel: "quadratic_form".into(),
                size: size.clone(),
                occupancy,
                variant,
                mean_ns,
            });
        }
        let mean_ns = measure(|| {
            std::hint::black_box(sparse::quadratic_form_onehot_pair(&idx, &a, &idx));
        });
        results.push(BenchResult {
            kernel: "quadratic_form".into(),
            size,
            occupancy,
            variant: "onehot",
            mean_ns,
        });
    }
}

/// Speedup of `r` over the blocked dense variant of the same kernel/size
/// (`None` for the dense rows themselves).
fn speedup_vs_dense(results: &[BenchResult], r: &BenchResult) -> Option<f64> {
    if r.variant.starts_with("dense") {
        return None;
    }
    results
        .iter()
        .find(|o| o.kernel == r.kernel && o.size == r.size && o.variant == "dense")
        .map(|dense| dense.mean_ns / r.mean_ns)
}

fn emit_json(results: &[BenchResult]) -> std::io::Result<PathBuf> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."));
    let path = root.join("BENCH_sparse.json");
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"harness\": \"sparse_kernels\",");
    // Machine stamp: a timing row means nothing without what it ran on.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(
        out,
        "  \"machine\": {{\"nproc\": {nproc}, \"threads\": {}}},",
        num_threads()
    );
    let _ = writeln!(
        out,
        "  \"smoke\": {},",
        if smoke() { "true" } else { "false" }
    );
    let _ = writeln!(out, "  \"results\": [");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let speedup = speedup_vs_dense(results, r)
            .map(|s| format!("{s:.3}"))
            .unwrap_or_else(|| "null".into());
        let _ = writeln!(
            out,
            "    {{\"kernel\": \"{}\", \"size\": \"{}\", \"occupancy\": {:.4}, \"variant\": \"{}\", \"mean_ns\": {:.1}, \"speedup_vs_dense\": {}}}{}",
            r.kernel, r.size, r.occupancy, r.variant, r.mean_ns, speedup, sep
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

fn main() {
    let mut results = Vec::new();
    bench_spmm(&mut results);
    bench_spmm_csr(&mut results);
    bench_ger(&mut results);
    bench_quadratic_form(&mut results);

    println!(
        "{:<16} {:>20} {:>6} {:>16} {:>12} {:>9}",
        "kernel", "size", "occ%", "variant", "mean", "vs dense"
    );
    for r in &results {
        let speedup = speedup_vs_dense(&results, r)
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_default();
        println!(
            "{:<16} {:>20} {:>6.1} {:>16} {:>9.3} us {:>9}",
            r.kernel,
            r.size,
            r.occupancy * 100.0,
            r.variant,
            r.mean_ns / 1e3,
            speedup
        );
    }

    match emit_json(&results) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write BENCH_sparse.json: {e}"),
    }

    // Acceptance-criterion ratios: one-hot spmm (15 of 126) and weighted CSR
    // spmm (12 of 126, ≤ 10% occupancy) vs the blocked dense GEMM on the
    // width-126 block.  Enforcement lives in CI.
    for (kernel, variant) in [("spmm", "onehot"), ("spmm_csr", "csr")] {
        if let Some(r) = results
            .iter()
            .find(|r| r.kernel == kernel && r.size.ends_with("width126") && r.variant == variant)
        {
            let speedup = speedup_vs_dense(&results, r).unwrap_or(0.0);
            println!("{kernel} width-126 {variant} speedup over dense blocked GEMM: {speedup:.2}x");
        }
    }
}
