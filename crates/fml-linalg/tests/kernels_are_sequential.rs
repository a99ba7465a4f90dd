//! A kernel is a sequential function of `(policy, operands)`.
//!
//! Every policy-taking kernel is called under `KernelPolicy::BlockedParallel`
//! at a shape above the FLOP / op cutoffs kernel-granularity fan-out used to
//! engage at, and must (a) return the bits of `KernelPolicy::Blocked` and
//! (b) never touch the worker pool: fan-out lives in the drivers only.
//!
//! One `#[test]` in its own binary on purpose — the pool is process-global,
//! so the `worker_count() == 0` assertion must not share a process with tests
//! that dispatch.

use fml_linalg::csr::{self, CsrBlock};
use fml_linalg::testutil::TestRng;
use fml_linalg::KernelPolicy::{Blocked, BlockedParallel};
use fml_linalg::{gemm, pool, sparse, KernelPolicy, Matrix};

fn matrix(rng: &mut TestRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, rng.vec_in(rows * cols, -1.0, 1.0))
}

/// Runs `kernel` under both policies and asserts identical bits.
fn same_bits(what: &str, kernel: impl Fn(KernelPolicy) -> Vec<f64>) {
    let (blocked, parallel) = (kernel(Blocked), kernel(BlockedParallel));
    assert_eq!(blocked.len(), parallel.len(), "{what}: length");
    for (i, (b, p)) in blocked.iter().zip(&parallel).enumerate() {
        assert_eq!(b.to_bits(), p.to_bits(), "{what}: element {i}: {b} vs {p}");
    }
}

#[test]
fn parallel_policy_is_blocked_arithmetic_and_never_dispatches() {
    let mut rng = TestRng::new(0x5E9);

    // GEMM 256³
    let (a, b) = (matrix(&mut rng, 256, 256), matrix(&mut rng, 256, 256));
    same_bits("matmul", |p| gemm::matmul_with(p, &a, &b).into_vec());

    // the two structured products and the row norms, 1024×85
    let (m, n) = (1024, 85);
    let x = rng.vec_in(m * n, -1.0, 1.0);
    let u = matrix(&mut rng, n, n);
    let gammas = rng.vec_in(m, 0.0, 1.0);
    same_bits("matmul_upper_acc", |p| {
        let mut c = vec![0.0; m * n];
        gemm::matmul_upper_acc_with(p, &x, &u, &mut c);
        c
    });
    same_bits("syrk_upper_acc", |p| {
        let mut c = Matrix::zeros(n, n);
        gemm::syrk_upper_acc_with(p, &x, &gammas, 1, &mut c);
        c.into_vec()
    });
    same_bits("row_sq_norms", |p| {
        let mut out = vec![0.0; m];
        gemm::row_sq_norms_with(p, &x, n, &mut out);
        out
    });

    // GEMV and transposed GEMV 1024², quadratic form 512²
    let a = matrix(&mut rng, 1024, 1024);
    let v = rng.vec_in(1024, -1.0, 1.0);
    same_bits("matvec", |p| gemm::matvec_with(p, &a, &v));
    same_bits("matvec_transposed", |p| {
        gemm::matvec_transposed_with(p, &a, &v)
    });
    let q = matrix(&mut rng, 512, 512);
    same_bits("quadratic_form", |p| {
        vec![
            gemm::quadratic_form_with(p, &v[..512], &q, &v[512..]),
            gemm::quadratic_form_sym_with(p, &v[..512], &q),
        ]
    });

    // GER 2048×3072
    let (gx, gy) = (rng.vec_in(2048, -1.0, 1.0), rng.vec_in(3072, -1.0, 1.0));
    same_bits("ger", |p| {
        let mut g = Matrix::zeros(2048, 3072);
        gemm::ger_with(p, 0.5, &gx, &gy, &mut g);
        g.into_vec()
    });

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
    same_bits("spmm_onehot", |p| {
        let mut c = Matrix::zeros(rows, cols);
        sparse::spmm_onehot_with(p, &onehot, 15, &b, &mut c);
        c.into_vec()
    });
    let col_idx: Vec<u32> = (0..rows).flat_map(|_| draw_row(&mut rng, 12)).collect();
    let block = CsrBlock::new(
        rng.vec_in(rows * 12, 0.5, 2.0),
        col_idx,
        (0..=rows).map(|r| r * 12).collect(),
        width,
    );
    same_bits("spmm_csr", |p| {
        let mut c = Matrix::zeros(rows, cols);
        csr::spmm_csr_with(p, &block, &b, &mut c);
        c.into_vec()
    });

    // sparse GEMV / transposed GEMV / GER over a 4096-row matrix, 64 nonzeros
    let tall = matrix(&mut rng, 4096, 128);
    let idx: Vec<u32> = (0..64).map(|i| 2 * i).collect();
    let vals = rng.vec_in(64, 0.5, 2.0);
    let y = rng.vec_in(4096, -1.0, 1.0);
    let wide = tall.transpose();
    same_bits("matvec_onehot", |p| {
        sparse::matvec_onehot_with(p, &tall, &idx)
    });
    same_bits("matvec_csr", |p| {
        csr::matvec_csr_with(p, &tall, &idx, &vals)
    });
    same_bits("matvec_transposed_onehot", |p| {
        let mut out = vec![0.0; 4096];
        sparse::matvec_transposed_onehot_into_with(p, &wide, &idx, &mut out);
        out
    });
    same_bits("matvec_transposed_csr", |p| {
        let mut out = vec![0.0; 4096];
        csr::matvec_transposed_csr_into_with(p, &wide, &idx, &vals, &mut out);
        out
    });
    same_bits("ger_onehot", |p| {
        let mut g = Matrix::zeros(128, 4096);
        sparse::ger_onehot_with(p, 0.5, &idx, &y, &mut g);
        g.into_vec()
    });
    same_bits("ger_csr", |p| {
        let mut g = Matrix::zeros(128, 4096);
        csr::ger_csr_with(p, 0.5, &idx, &vals, &y, &mut g);
        g.into_vec()
    });

    assert_eq!(
        pool::worker_count(),
        0,
        "a kernel dispatched to the worker pool"
    );
}
