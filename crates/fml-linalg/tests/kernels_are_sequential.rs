//! A kernel is a sequential function of its operands.
//!
//! Every kernel is called at a shape above the FLOP / op cutoffs
//! kernel-granularity fan-out used to engage at, and must never spawn a
//! thread: only the trainers and the scorer fan out.
//!
//! One `#[test]` in its own binary on purpose — the
//! `fml_fanout_threads_total` counter is process-global, so the assertion
//! that it does not move must not share a process with tests that fan out.

use fml_linalg::csr::{self, CsrBlock};
use fml_linalg::testutil::TestRng;
use fml_linalg::{gemm, sparse, Matrix};
use std::hint::black_box;

fn matrix(rng: &mut TestRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, rng.vec_in(rows * cols, -1.0, 1.0))
}

#[test]
fn kernels_never_spawn_a_thread() {
    let spawned = || fml_obs::counter_handle("fml_fanout_threads_total").get();
    let before = spawned();
    let mut rng = TestRng::new(0x5E9);

    // GEMM 256³
    let (a, b) = (matrix(&mut rng, 256, 256), matrix(&mut rng, 256, 256));
    black_box(gemm::matmul(&a, &b));

    // the two structured products and the row norms, 1024×85
    let (m, n) = (1024, 85);
    let x = rng.vec_in(m * n, -1.0, 1.0);
    let u = matrix(&mut rng, n, n);
    let gammas = rng.vec_in(m, 0.0, 1.0);
    let mut c = vec![0.0; m * n];
    gemm::matmul_upper_acc(&x, &u, &mut c);
    let mut scatter = Matrix::zeros(n, n);
    gemm::syrk_upper_acc(&x, &gammas, 1, &mut scatter);
    let mut norms = vec![0.0; m];
    gemm::row_sq_norms(&x, n, &mut norms);
    black_box((c, scatter, norms));

    // GEMV and transposed GEMV 1024², quadratic form 512²
    let a = matrix(&mut rng, 1024, 1024);
    let v = rng.vec_in(1024, -1.0, 1.0);
    black_box(gemm::matvec(&a, &v));
    black_box(gemm::matvec_transposed(&a, &v));
    let q = matrix(&mut rng, 512, 512);
    black_box(gemm::quadratic_form(&v[..512], &q, &v[512..]));

    // GER 2048×3072
    let (gx, gy) = (rng.vec_in(2048, -1.0, 1.0), rng.vec_in(3072, -1.0, 1.0));
    let mut g = Matrix::zeros(2048, 3072);
    gemm::ger(0.5, &gx, &gy, &mut g);
    black_box(g);

    // spmm 4096×126 (15 one-hot / 12 weighted nonzeros per row) into 64 columns
    let (rows, width, cols) = (4096, 126, 64);
    let b = matrix(&mut rng, width, cols);
    let draw_row = |rng: &mut TestRng, nnz: usize| -> Vec<u32> {
        let card = width / nnz;
        (0..nnz)
            .map(|c| (c * card + rng.range(0, card)) as u32)
            .collect()
    };
    let onehot: Vec<u32> = (0..rows).flat_map(|_| draw_row(&mut rng, 15)).collect();
    let mut c = Matrix::zeros(rows, cols);
    sparse::spmm_onehot(&onehot, 15, &b, &mut c);
    let col_idx: Vec<u32> = (0..rows).flat_map(|_| draw_row(&mut rng, 12)).collect();
    let block = CsrBlock::new(
        rng.vec_in(rows * 12, 0.5, 2.0),
        col_idx,
        (0..=rows).map(|r| r * 12).collect(),
        width,
    );
    csr::spmm_csr(&block, &b, &mut c);
    black_box(c);

    // sparse GEMV / transposed GEMV / GER over a 4096-row matrix, 64 nonzeros
    let tall = matrix(&mut rng, 4096, 128);
    let idx: Vec<u32> = (0..64).map(|i| 2 * i).collect();
    let vals = rng.vec_in(64, 0.5, 2.0);
    let y = rng.vec_in(4096, -1.0, 1.0);
    let wide = tall.transpose();
    black_box(sparse::matvec_onehot(&tall, &idx));
    black_box(csr::matvec_csr(&tall, &idx, &vals));
    let mut out = vec![0.0; 4096];
    sparse::matvec_transposed_onehot_into(&wide, &idx, &mut out);
    csr::matvec_transposed_csr_into(&wide, &idx, &vals, &mut out);
    black_box(out);
    let mut g = Matrix::zeros(128, 4096);
    sparse::ger_onehot(0.5, &idx, &y, &mut g);
    csr::ger_csr(0.5, &idx, &vals, &y, &mut g);
    black_box(g);

    assert_eq!(spawned(), before, "a kernel spawned a fan-out thread");
}
