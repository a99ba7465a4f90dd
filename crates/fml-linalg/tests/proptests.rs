//! Property-based tests for the linear-algebra kernels.
//!
//! Two families of properties:
//!
//! 1. **Policy equivalence** — the `Blocked` and `BlockedParallel` kernels must
//!    agree with the `Naive` reference (`matmul`, `matvec`, `ger`,
//!    `BlockScatter`) within `TEST_EPS` across randomized shapes, explicitly
//!    including dimensions that are not multiples of the register tile
//!    (`MR=4`/`NR=8`), not multiples of the cache blocks (`KC/MC/NC`), and
//!    empty matrices.
//! 2. **Structural identities** — the block decompositions used by the
//!    factorized algorithms must agree with their dense counterparts, and
//!    Cholesky must invert arbitrary SPD matrices.
//!
//! Cases come from a deterministic splitmix64 stream (the build environment is
//! offline, so no external property-testing crate): every run replays the same
//! inputs and failures reproduce from the case index.

use fml_linalg::block::{BlockPartition, BlockQuadraticForm, BlockScatter};
use fml_linalg::cholesky::Cholesky;
use fml_linalg::csr::{self, CsrBlock};
use fml_linalg::policy::{par_row_bands_map_with_threads, KernelPolicy};
use fml_linalg::simd::{self, SimdLevel};
use fml_linalg::sparse::{self, BlockVec};
use fml_linalg::{approx_eq, gemm, Matrix, TEST_EPS};

struct Gen(fml_linalg::testutil::TestRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(fml_linalg::testutil::TestRng::new(seed))
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.0.range(lo, hi)
    }

    /// Uniform in `[-5, 5)`.
    fn f64(&mut self) -> f64 {
        self.0.f64_in(-5.0, 5.0)
    }

    fn vec(&mut self, n: usize) -> Vec<f64> {
        self.0.vec_in(n, -5.0, 5.0)
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.vec(rows * cols))
    }

    /// A dimension split `[d_S, d_{R_1}, …]` with 1–3 blocks of size 1–3.
    fn partition(&mut self) -> Vec<usize> {
        let blocks = self.range(1, 4);
        (0..blocks).map(|_| self.range(1, 4)).collect()
    }
}

/// Shapes that stress every remainder path of the tiled kernels: smaller than
/// one register tile, straddling tile boundaries, straddling the `KC`/`MC`
/// cache blocks, and empty on each axis.
fn awkward_shapes(g: &mut Gen) -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (0, 0, 0),
        (0, 3, 2),
        (3, 0, 2),
        (3, 2, 0),
        (1, 1, 1),
        (4, 8, 8),     // exactly one register tile
        (5, 9, 17),    // one past a tile on every axis
        (3, 7, 6),     // smaller than a tile
        (67, 70, 130), // past MC=64 with remainders
        (64, 257, 24), // straddles KC=256
    ];
    for _ in 0..12 {
        shapes.push((g.range(0, 40), g.range(0, 40), g.range(0, 40)));
    }
    shapes
}

const POLICIES: [KernelPolicy; 2] = [KernelPolicy::Blocked, KernelPolicy::BlockedParallel];

#[test]
fn matmul_policies_match_naive_across_shapes() {
    let mut g = Gen::new(1);
    for (case, (m, k, n)) in awkward_shapes(&mut g).into_iter().enumerate() {
        let a = g.matrix(m, k);
        let b = g.matrix(k, n);
        let mut reference = g.matrix(m, n); // nonzero C exercises accumulation
        let seed_c = reference.clone();
        gemm::matmul_acc_with(KernelPolicy::Naive, &a, &b, &mut reference);
        for p in POLICIES {
            let mut c = seed_c.clone();
            gemm::matmul_acc_with(p, &a, &b, &mut c);
            let diff = reference.max_abs_diff(&c);
            assert!(
                diff < TEST_EPS * (k as f64 + 1.0),
                "case {case} {p}: {m}x{k}x{n} diff {diff}"
            );
        }
    }
}

/// `(rows, width)` shapes for the structured products: the `awkward_shapes`
/// grid reused as `m × n` (its `k` axis is implied), minus zero widths.
fn batch_shapes(g: &mut Gen) -> Vec<(usize, usize)> {
    let mut shapes: Vec<(usize, usize)> = awkward_shapes(g)
        .into_iter()
        .map(|(m, _, n)| (m, n.max(1)))
        .collect();
    shapes.extend([(257, 26), (300, 85), (1, 9)]);
    shapes
}

/// Runs `f` under both bit-exact SIMD levels and asserts identical bits.
fn same_bits_at_both_exact_levels(label: &str, f: impl Fn() -> Vec<f64>) {
    let scalar = simd::with_level(SimdLevel::Scalar, &f);
    let lanes = simd::with_level(SimdLevel::Lanes, &f);
    let same = scalar
        .iter()
        .zip(lanes.iter())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "{label}: SIMD off and lanes differ");
}

#[test]
fn upper_triangular_product_matches_naive_across_shapes() {
    let mut g = Gen::new(21);
    for (case, (m, n)) in batch_shapes(&mut g).into_iter().enumerate() {
        let a = g.vec(m * n);
        let mut u = g.matrix(n, n);
        for i in 0..n {
            for j in 0..i {
                u[(i, j)] = f64::NAN; // never read
            }
        }
        let seed_c = g.vec(m * n);
        let mut reference = seed_c.clone();
        gemm::matmul_upper_acc_with(KernelPolicy::Naive, &a, &u, &mut reference);
        let run = |p: KernelPolicy| {
            let mut c = seed_c.clone();
            gemm::matmul_upper_acc_with(p, &a, &u, &mut c);
            c
        };
        let blocked = run(KernelPolicy::Blocked);
        for (r, v) in reference.iter().zip(blocked.iter()) {
            assert!(
                (r - v).abs() < TEST_EPS * (n as f64 + 1.0),
                "case {case} {m}x{n}: {r} vs {v}"
            );
        }
        // a forced 3-way row-band split — one kernel call per band, the way
        // the dense trainer fans a batch out — must not move a bit
        let mut banded = seed_c.clone();
        par_row_bands_map_with_threads(3, &mut banded, n, gemm::MR, |first_row, band| {
            let rows = first_row * n..first_row * n + band.len();
            gemm::matmul_upper_acc_with(KernelPolicy::Blocked, &a[rows], &u, band);
        });
        assert_eq!(blocked, banded, "case {case} {m}x{n}: banding changed bits");
        assert_eq!(blocked, run(KernelPolicy::BlockedParallel), "case {case}");
        same_bits_at_both_exact_levels("upper product", || run(KernelPolicy::Blocked));
    }
}

#[test]
fn weighted_syrk_matches_naive_across_shapes_and_strides() {
    let mut g = Gen::new(22);
    for (case, (m, n)) in batch_shapes(&mut g).into_iter().enumerate() {
        let x = g.vec(m * n);
        let stride = g.range(1, 6);
        let offset = g.range(0, stride);
        // non-negative weights with exact zeros mixed in, read strided
        let wbuf: Vec<f64> = (0..m * stride + offset + 1)
            .map(|_| {
                if g.range(0, 4) == 0 {
                    0.0
                } else {
                    g.f64().abs()
                }
            })
            .collect();
        let weights = &wbuf[offset..];
        let seed_c = g.matrix(n, n);
        let mut reference = seed_c.clone();
        gemm::syrk_upper_acc_with(KernelPolicy::Naive, &x, weights, stride, &mut reference);
        let run = |p: KernelPolicy| {
            let mut c = seed_c.clone();
            gemm::syrk_upper_acc_with(p, &x, weights, stride, &mut c);
            c.into_vec()
        };
        let blocked = run(KernelPolicy::Blocked);
        for i in 0..n {
            for j in 0..n {
                let (r, v) = (reference[(i, j)], blocked[i * n + j]);
                if j < i {
                    // below the diagonal: untouched under every policy
                    assert_eq!(v.to_bits(), seed_c[(i, j)].to_bits(), "case {case}");
                    assert_eq!(r.to_bits(), seed_c[(i, j)].to_bits(), "case {case}");
                } else {
                    assert!(
                        (r - v).abs() < TEST_EPS * (m as f64 + 1.0),
                        "case {case} {m}x{n} ({i},{j}): {r} vs {v}"
                    );
                }
            }
        }
        assert_eq!(blocked, run(KernelPolicy::BlockedParallel), "case {case}");
        same_bits_at_both_exact_levels("weighted syrk", || run(KernelPolicy::Blocked));
    }
}

#[test]
fn matvec_policies_match_naive_across_shapes() {
    let mut g = Gen::new(2);
    for (case, (m, k, _)) in awkward_shapes(&mut g).into_iter().enumerate() {
        let a = g.matrix(m, k);
        let x = g.vec(k);
        let reference = gemm::matvec_with(KernelPolicy::Naive, &a, &x);
        for p in POLICIES {
            let y = gemm::matvec_with(p, &a, &x);
            assert_eq!(y.len(), reference.len());
            for (i, (&r, &v)) in reference.iter().zip(y.iter()).enumerate() {
                assert!(
                    approx_eq(r, v, TEST_EPS),
                    "case {case} {p}: row {i}: {r} vs {v}"
                );
            }
            let t_ref = gemm::matvec_transposed_with(KernelPolicy::Naive, &a, &reference);
            let t = gemm::matvec_transposed_with(p, &a, &reference);
            for (&r, &v) in t_ref.iter().zip(t.iter()) {
                assert!(approx_eq(r, v, TEST_EPS), "case {case} {p} transposed");
            }
        }
    }
}

#[test]
fn ger_policies_match_naive_across_shapes() {
    let mut g = Gen::new(3);
    for (case, (m, n, _)) in awkward_shapes(&mut g).into_iter().enumerate() {
        let x = g.vec(m);
        let y = g.vec(n);
        let alpha = g.f64();
        let seed_a = g.matrix(m, n);
        let mut reference = seed_a.clone();
        gemm::ger_with(KernelPolicy::Naive, alpha, &x, &y, &mut reference);
        for p in POLICIES {
            let mut a = seed_a.clone();
            gemm::ger_with(p, alpha, &x, &y, &mut a);
            let diff = reference.max_abs_diff(&a);
            assert!(diff < TEST_EPS, "case {case} {p}: {m}x{n} diff {diff}");
        }
    }
}

/// The policy-equivalence property re-checked under each forced bit-exact
/// SIMD level: `Blocked`/`BlockedParallel` agree with `Naive` within tolerance
/// whether the lane kernels run through AVX2 or the scalar fallback — and the
/// two levels agree with *each other* bit-for-bit (the SIMD layer's core
/// contract; `tests/simd_equivalence.rs` covers it kernel by kernel).
#[test]
fn policy_equivalence_holds_under_every_bit_exact_simd_level() {
    let mut g = Gen::new(42);
    for (case, (m, k, n)) in awkward_shapes(&mut g).into_iter().enumerate() {
        let a = g.matrix(m, k);
        let b = g.matrix(k, n);
        let seed_c = g.matrix(m, n);
        let x = g.vec(k);
        let mut reference = seed_c.clone();
        gemm::matmul_acc_with(KernelPolicy::Naive, &a, &b, &mut reference);
        let mv_ref = gemm::matvec_with(KernelPolicy::Naive, &a, &x);
        for p in POLICIES {
            let mut per_level: Vec<(Matrix, Vec<f64>)> = Vec::new();
            for lv in [SimdLevel::Scalar, SimdLevel::Lanes] {
                simd::with_level(lv, || {
                    let mut c = seed_c.clone();
                    gemm::matmul_acc_with(p, &a, &b, &mut c);
                    let diff = reference.max_abs_diff(&c);
                    assert!(
                        diff < TEST_EPS * (k as f64 + 1.0),
                        "case {case} {p} {lv}: {m}x{k}x{n} diff {diff}"
                    );
                    let mv = gemm::matvec_with(p, &a, &x);
                    for (i, (&r, &v)) in mv_ref.iter().zip(mv.iter()).enumerate() {
                        assert!(
                            approx_eq(r, v, TEST_EPS),
                            "case {case} {p} {lv}: row {i}: {r} vs {v}"
                        );
                    }
                    per_level.push((c, mv));
                });
            }
            let (c_scalar, mv_scalar) = &per_level[0];
            let (c_lanes, mv_lanes) = &per_level[1];
            for (s, l) in c_scalar
                .as_slice()
                .iter()
                .chain(mv_scalar.iter())
                .zip(c_lanes.as_slice().iter().chain(mv_lanes.iter()))
            {
                assert_eq!(
                    s.to_bits(),
                    l.to_bits(),
                    "case {case} {p}: scalar vs lanes bit mismatch: {s} vs {l}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One-hot kernels: bit-exact against the dense naive oracle under EVERY policy
// ---------------------------------------------------------------------------

/// A randomized one-hot layout: per-column cardinalities of 1–4 (so
/// cardinality-1 "always on" columns occur regularly), possibly zero columns
/// (the empty block).
fn onehot_layout(g: &mut Gen) -> Vec<usize> {
    let columns = g.range(0, 5);
    (0..columns).map(|_| g.range(1, 5)).collect()
}

/// Draws one row over a layout: one active absolute index per column.
fn draw_onehot_row(g: &mut Gen, cards: &[usize]) -> Vec<u32> {
    let mut idx = Vec::with_capacity(cards.len());
    let mut offset = 0usize;
    for &card in cards {
        idx.push((offset + g.range(0, card)) as u32);
        offset += card;
    }
    idx
}

/// `(encoded width, active indices)` of a fresh layout and row.
fn onehot_row(g: &mut Gen) -> (usize, Vec<u32>) {
    let cards = onehot_layout(g);
    let width = cards.iter().sum();
    (width, draw_onehot_row(g, &cards))
}

fn densify(idx: &[u32], width: usize) -> Vec<f64> {
    let mut v = vec![0.0; width];
    for &i in idx {
        v[i as usize] = 1.0;
    }
    v
}

#[test]
fn onehot_gathers_are_bit_exact_against_naive_dense() {
    let mut g = Gen::new(11);
    for case in 0..64 {
        let (width, idx) = onehot_row(&mut g);
        let x = densify(&idx, width);
        let cols = g.range(1, 8);
        let a = g.matrix(width, cols);
        let at = a.transpose();
        for p in KernelPolicy::ALL {
            // Aᵀ·x (row gather) vs naive dense transposed GEMV
            let dense_t = gemm::matvec_transposed_with(KernelPolicy::Naive, &a, &x);
            let mut gathered = vec![f64::NAN; cols];
            sparse::matvec_transposed_onehot_into_with(p, &a, &idx, &mut gathered);
            assert_eq!(gathered, dense_t, "case {case} {p} transposed");
            // A·x (column gather) vs naive dense GEMV
            let dense = gemm::matvec_with(KernelPolicy::Naive, &at, &x);
            assert_eq!(
                sparse::matvec_onehot_with(p, &at, &idx),
                dense,
                "case {case} {p} gemv"
            );
        }
    }
}

#[test]
fn spmm_onehot_is_bit_exact_against_naive_dense_gemm() {
    let mut g = Gen::new(12);
    for case in 0..48 {
        // A shared per-column layout (like a relation's one-hot schema): every
        // row draws one fresh index per column sub-range.  Includes zero-row
        // blocks; zero-column widths are skipped (no block to multiply).
        let cards = onehot_layout(&mut g);
        let width: usize = cards.iter().sum();
        if width == 0 {
            continue;
        }
        let nnz = cards.len();
        let rows = g.range(0, 12);
        let mut rows_idx = Vec::with_capacity(rows * nnz);
        let mut x = Matrix::zeros(rows, width);
        for r in 0..rows {
            for j in draw_onehot_row(&mut g, &cards) {
                rows_idx.push(j);
                x[(r, j as usize)] = 1.0;
            }
        }
        let n = g.range(1, 9);
        let b = g.matrix(width, n);
        let seed_c = g.matrix(rows, n);
        let mut reference = seed_c.clone();
        gemm::matmul_acc_with(KernelPolicy::Naive, &x, &b, &mut reference);
        for p in KernelPolicy::ALL {
            let mut c = seed_c.clone();
            sparse::spmm_onehot_with(p, &rows_idx, nnz, &b, &mut c);
            assert_eq!(c, reference, "case {case} {p}: {rows}x{width}x{n}");
        }
    }
}

#[test]
fn onehot_scatters_are_bit_exact_against_naive_dense_ger() {
    let mut g = Gen::new(13);
    for case in 0..64 {
        let (width, idx) = onehot_row(&mut g);
        let other = g.range(1, 8);
        let y = g.vec(other);
        let alpha = g.f64();
        // row scatter
        let seed = g.matrix(width, other);
        let x_rows = densify(&idx, width);
        let mut reference = seed.clone();
        gemm::ger_with(KernelPolicy::Naive, alpha, &x_rows, &y, &mut reference);
        for p in KernelPolicy::ALL {
            let mut a = seed.clone();
            sparse::ger_onehot_with(p, alpha, &idx, &y, &mut a);
            assert_eq!(a, reference, "case {case} {p} rows");
        }
        // table scatter (the NN first-layer gradient): the unit-alpha row
        // scatter into the transposed accumulator is the dense GER `y·xᵀ` of
        // the weight layout
        let seed = g.matrix(other, width);
        let mut reference = seed.clone();
        gemm::ger_with(KernelPolicy::Naive, 1.0, &y, &x_rows, &mut reference);
        for p in KernelPolicy::ALL {
            let mut table = seed.transpose();
            sparse::ger_onehot_with(p, 1.0, &idx, &y, &mut table);
            assert_eq!(table.transpose(), reference, "case {case} {p} table");
        }
    }
}

#[test]
fn onehot_quadratic_forms_match_naive_dense() {
    let mut g = Gen::new(14);
    for case in 0..64 {
        let (width, idx) = onehot_row(&mut g);
        if width == 0 {
            continue;
        }
        let x = densify(&idx, width);
        let a = g.matrix(width, width);
        // both sides one-hot
        let (_, jdx_raw) = onehot_row(&mut g);
        let jdx: Vec<u32> = jdx_raw
            .into_iter()
            .filter(|&j| (j as usize) < width)
            .collect();
        let yj = densify(&jdx, width);
        let dense_pair = gemm::quadratic_form_with(KernelPolicy::Naive, &x, &a, &yj);
        let sparse_pair = sparse::quadratic_form_onehot_pair(&idx, &a, &jdx);
        assert!(
            approx_eq(dense_pair, sparse_pair, 1e-12),
            "case {case} pair: {dense_pair} vs {sparse_pair}"
        );
    }
}

#[test]
fn block_dispatch_matches_dense_blocks_for_onehot_representations() {
    let mut g = Gen::new(15);
    for case in 0..48 {
        let d_s = g.range(1, 4);
        let (d_r, idx) = onehot_row(&mut g);
        if d_r == 0 {
            continue;
        }
        let partition = BlockPartition::binary(d_s, d_r);
        let u = g.vec(d_s);
        let x = densify(&idx, d_r);
        let alpha = g.f64();

        for p in KernelPolicy::ALL {
            // add_outer_rep vs dense add_outer
            let mut dense_sc = BlockScatter::new_with(partition.clone(), p);
            dense_sc.add_outer(0, 1, alpha, &u, &x);
            dense_sc.add_outer(1, 0, alpha, &x, &u);
            dense_sc.add_outer(1, 1, alpha, &x, &x);
            let mut rep_sc = BlockScatter::new_with(partition.clone(), p);
            rep_sc.add_outer_rep(0, 1, alpha, BlockVec::Dense(&u), BlockVec::OneHot(&idx));
            rep_sc.add_outer_rep(1, 0, alpha, BlockVec::OneHot(&idx), BlockVec::Dense(&u));
            rep_sc.add_outer_rep(1, 1, alpha, BlockVec::OneHot(&idx), BlockVec::OneHot(&idx));
            assert_eq!(
                dense_sc.matrix(),
                rep_sc.matrix(),
                "case {case} {p} scatter"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// General CSR kernels: equal to the dense naive oracle under EVERY policy
// (same multiplications in the same ascending order; skipped terms are exact
// zeros).  Cases deliberately include empty rows, all-zero blocks and
// single-element blocks.
// ---------------------------------------------------------------------------

/// Draws a sparse row over `width` columns: ascending indices, ~25% of the
/// positions nonzero, values in `[-5, 5)` (never exactly 0 for kept entries).
fn draw_csr_row(g: &mut Gen, width: usize) -> (Vec<u32>, Vec<f64>) {
    let mut idx = Vec::new();
    let mut vals = Vec::new();
    for j in 0..width {
        if g.range(0, 4) == 0 {
            let mut v = g.f64();
            if v == 0.0 {
                v = 1.0;
            }
            idx.push(j as u32);
            vals.push(v);
        }
    }
    (idx, vals)
}

fn densify_csr(idx: &[u32], vals: &[f64], width: usize) -> Vec<f64> {
    let mut v = vec![0.0; width];
    for (&i, &w) in idx.iter().zip(vals.iter()) {
        v[i as usize] = w;
    }
    v
}

/// Edge-shape sparse rows every CSR property sweep must include: the empty
/// row, the all-zero width-`w` row, and a single-element block.
fn csr_edge_rows(g: &mut Gen) -> Vec<(usize, Vec<u32>, Vec<f64>)> {
    let mut rows = vec![
        (0, vec![], vec![]),                  // zero-width block
        (7, vec![], vec![]),                  // all-zero row
        (1, vec![0u32], vec![2.5]),           // single-element block, occupied
        (1, vec![], vec![]),                  // single-element block, empty
        (9, vec![3u32, 8], vec![-1.25, 0.5]), // fixed awkward row
    ];
    for _ in 0..12 {
        let width = g.range(1, 24);
        let (idx, vals) = draw_csr_row(g, width);
        rows.push((width, idx, vals));
    }
    rows
}

#[test]
fn csr_gathers_are_exact_against_naive_dense() {
    let mut g = Gen::new(21);
    for (case, (width, idx, vals)) in csr_edge_rows(&mut g).into_iter().enumerate() {
        let x = densify_csr(&idx, &vals, width);
        let cols = g.range(1, 8);
        let a = g.matrix(width, cols);
        let at = a.transpose();
        for p in KernelPolicy::ALL {
            let dense_t = gemm::matvec_transposed_with(KernelPolicy::Naive, &a, &x);
            let mut gathered = vec![f64::NAN; cols];
            csr::matvec_transposed_csr_into_with(p, &a, &idx, &vals, &mut gathered);
            assert_eq!(gathered, dense_t, "case {case} {p} transposed");
            let dense = gemm::matvec_with(KernelPolicy::Naive, &at, &x);
            assert_eq!(
                csr::matvec_csr_with(p, &at, &idx, &vals),
                dense,
                "case {case} {p} gemv"
            );
        }
    }
}

#[test]
fn spmm_csr_is_exact_against_naive_dense_gemm() {
    let mut g = Gen::new(22);
    for case in 0..48 {
        let width = g.range(1, 20);
        let rows = g.range(0, 12); // includes zero-row blocks
        let mut values = Vec::new();
        let mut col_idx = Vec::new();
        let mut row_ptr = vec![0usize];
        let mut x = Matrix::zeros(rows, width);
        for r in 0..rows {
            // every few rows stay completely empty
            if g.range(0, 4) != 0 {
                let (idx, vals) = draw_csr_row(&mut g, width);
                for (&j, &v) in idx.iter().zip(vals.iter()) {
                    x[(r, j as usize)] = v;
                }
                col_idx.extend_from_slice(&idx);
                values.extend_from_slice(&vals);
            }
            row_ptr.push(values.len());
        }
        let block = CsrBlock::new(values, col_idx, row_ptr, width);
        assert_eq!(block.to_matrix(), x, "case {case}: round trip");
        let n = g.range(1, 9);
        let b = g.matrix(width, n);
        let seed_c = g.matrix(rows, n);
        let mut reference = seed_c.clone();
        gemm::matmul_acc_with(KernelPolicy::Naive, &x, &b, &mut reference);
        for p in KernelPolicy::ALL {
            let mut c = seed_c.clone();
            csr::spmm_csr_with(p, &block, &b, &mut c);
            assert_eq!(c, reference, "case {case} {p}: {rows}x{width}x{n}");
        }
    }
}

#[test]
fn csr_scatters_are_exact_against_naive_dense_ger() {
    let mut g = Gen::new(23);
    for (case, (width, idx, vals)) in csr_edge_rows(&mut g).into_iter().enumerate() {
        let other = g.range(1, 8);
        let y = g.vec(other);
        let alpha = g.f64();
        let x = densify_csr(&idx, &vals, width);
        // row scatter
        let seed = g.matrix(width, other);
        let mut reference = seed.clone();
        gemm::ger_with(KernelPolicy::Naive, alpha, &x, &y, &mut reference);
        for p in KernelPolicy::ALL {
            let mut a = seed.clone();
            csr::ger_csr_with(p, alpha, &idx, &vals, &y, &mut a);
            assert_eq!(a, reference, "case {case} {p} rows");
        }
        // table scatter (the NN first-layer gradient): the unit-alpha row
        // scatter into the transposed accumulator is the dense GER `y·xᵀ` of
        // the weight layout (`y_i·x_j == x_j·y_i` bitwise)
        let seed = g.matrix(other, width);
        let mut reference = seed.clone();
        gemm::ger_with(KernelPolicy::Naive, 1.0, &y, &x, &mut reference);
        for p in KernelPolicy::ALL {
            let mut table = seed.transpose();
            csr::ger_csr_with(p, 1.0, &idx, &vals, &y, &mut table);
            assert_eq!(table.transpose(), reference, "case {case} {p} table");
        }
    }
}

#[test]
fn csr_quadratic_forms_are_exact_against_naive_dense() {
    let mut g = Gen::new(24);
    for (case, (width, idx, vals)) in csr_edge_rows(&mut g).into_iter().enumerate() {
        if width == 0 {
            continue;
        }
        let x = densify_csr(&idx, &vals, width);
        let a = g.matrix(width, width);
        // both sides sparse
        let (jdx, jvals) = draw_csr_row(&mut g, width);
        let yj = densify_csr(&jdx, &jvals, width);
        let dense_pair = gemm::quadratic_form_with(KernelPolicy::Naive, &x, &a, &yj);
        assert_eq!(
            csr::quadratic_form_csr_pair(&idx, &vals, &a, &jdx, &jvals),
            dense_pair,
            "case {case} pair"
        );
    }
}

#[test]
fn block_dispatch_matches_dense_blocks_for_csr_representations() {
    let mut g = Gen::new(25);
    for case in 0..48 {
        let d_s = g.range(1, 4);
        let d_r = g.range(1, 12);
        let (idx, vals) = draw_csr_row(&mut g, d_r);
        let partition = BlockPartition::binary(d_s, d_r);
        let u = g.vec(d_s);
        let x = densify_csr(&idx, &vals, d_r);
        let alpha = g.f64();
        let rep = BlockVec::Csr {
            idx: &idx,
            vals: &vals,
        };

        for p in KernelPolicy::ALL {
            let mut dense_sc = BlockScatter::new_with(partition.clone(), p);
            dense_sc.add_outer(0, 1, alpha, &u, &x);
            dense_sc.add_outer(1, 0, alpha, &x, &u);
            dense_sc.add_outer(1, 1, alpha, &x, &x);
            let mut rep_sc = BlockScatter::new_with(partition.clone(), p);
            rep_sc.add_outer_rep(0, 1, alpha, BlockVec::Dense(&u), rep);
            rep_sc.add_outer_rep(1, 0, alpha, rep, BlockVec::Dense(&u));
            rep_sc.add_outer_rep(1, 1, alpha, rep, rep);
            assert_eq!(
                dense_sc.matrix(),
                rep_sc.matrix(),
                "case {case} {p} scatter"
            );
        }
    }
}

#[test]
fn block_dispatch_handles_mixed_onehot_csr_pairs() {
    let mut g = Gen::new(26);
    for case in 0..32 {
        let d = g.range(2, 10);
        let (cidx, cvals) = draw_csr_row(&mut g, d);
        let oidx: Vec<u32> = (0..d as u32).filter(|_| g.range(0, 3) == 0).collect();
        let xo = densify(&oidx, d);
        let xc = densify_csr(&cidx, &cvals, d);
        let partition = BlockPartition::binary(d, d);
        let alpha = g.f64();
        let onehot = BlockVec::OneHot(&oidx);
        let csr_rep = BlockVec::Csr {
            idx: &cidx,
            vals: &cvals,
        };
        for p in KernelPolicy::ALL {
            let mut dense_sc = BlockScatter::new_with(partition.clone(), p);
            dense_sc.add_outer(0, 1, alpha, &xo, &xc);
            dense_sc.add_outer(1, 0, alpha, &xc, &xo);
            let mut rep_sc = BlockScatter::new_with(partition.clone(), p);
            rep_sc.add_outer_rep(0, 1, alpha, onehot, csr_rep);
            rep_sc.add_outer_rep(1, 0, alpha, csr_rep, onehot);
            assert_eq!(
                dense_sc.matrix(),
                rep_sc.matrix(),
                "case {case} {p} mixed scatter"
            );
        }
    }
}

#[test]
fn block_scatter_policies_match_naive() {
    let mut g = Gen::new(4);
    for case in 0..48 {
        let sizes = g.partition();
        let partition = BlockPartition::new(&sizes);
        let d = partition.total_dim();
        let x = g.vec(d);
        let gamma = g.f64().abs();

        let mut reference = BlockScatter::new_with(partition.clone(), KernelPolicy::Naive);
        reference.add_dense(gamma, &x);

        for p in POLICIES {
            // dense accumulation under the policy
            let mut dense = BlockScatter::new_with(partition.clone(), p);
            dense.add_dense(gamma, &x);
            assert!(
                reference.matrix().max_abs_diff(dense.matrix()) < TEST_EPS,
                "case {case} {p} dense"
            );
            // factorized tile-by-tile accumulation under the policy
            let parts = partition.split(&x);
            let mut fact = BlockScatter::new_with(partition.clone(), p);
            for i in 0..parts.len() {
                for j in 0..parts.len() {
                    fact.add_outer(i, j, gamma, parts[i], parts[j]);
                }
            }
            assert!(
                reference.matrix().max_abs_diff(fact.matrix()) < TEST_EPS,
                "case {case} {p} tiled"
            );
        }
    }
}

#[test]
fn blocked_quadratic_form_matches_dense() {
    let mut g = Gen::new(6);
    for case in 0..64 {
        let sizes = g.partition();
        let partition = BlockPartition::new(&sizes);
        let d = partition.total_dim();
        let m = g.matrix(d, d);
        let x = g.vec(d);
        let dense = gemm::quadratic_form_sym_with(KernelPolicy::Naive, &x, &m);
        for p in [
            KernelPolicy::Naive,
            KernelPolicy::Blocked,
            KernelPolicy::BlockedParallel,
        ] {
            let blocked = BlockQuadraticForm::new_with(partition.clone(), &m, p).eval_dense(&x);
            assert!(
                approx_eq(dense, blocked, 1e-9),
                "case {case} {p}: {dense} vs {blocked}"
            );
        }
    }
}

#[test]
fn cholesky_inverts_spd_matrices() {
    let mut g = Gen::new(7);
    for case in 0..64 {
        let dim = g.range(1, 6);
        // Build an SPD matrix A = B·Bᵀ + I from arbitrary B.
        let b = g.matrix(dim, dim);
        let mut a = gemm::matmul_with(KernelPolicy::Blocked, &b, &b.transpose());
        a.add_diag(1.0);
        let ch = Cholesky::factor(&a).unwrap();
        let inv = ch.inverse();
        let prod = gemm::matmul_with(KernelPolicy::Blocked, &inv, &a);
        assert!(
            prod.max_abs_diff(&Matrix::identity(dim)) < 1e-8,
            "case {case}"
        );
        assert!(ch.log_det().is_finite(), "case {case}");
    }
}

#[test]
fn matmul_distributes_over_addition() {
    let mut g = Gen::new(8);
    for case in 0..64 {
        let dim = g.range(1, 5);
        let a = g.matrix(dim, dim);
        let x = g.vec(dim);
        let y = g.vec(dim);
        // A(x + y) == Ax + Ay
        let sum: Vec<f64> = x.iter().zip(y.iter()).map(|(a, b)| a + b).collect();
        let lhs = gemm::matvec_with(KernelPolicy::Blocked, &a, &sum);
        let ax = gemm::matvec_with(KernelPolicy::Blocked, &a, &x);
        let ay = gemm::matvec_with(KernelPolicy::Blocked, &a, &y);
        for i in 0..dim {
            assert!(
                approx_eq(lhs[i], ax[i] + ay[i], 1e-9),
                "case {case} row {i}"
            );
        }
    }
}

#[test]
fn transpose_is_involutive_and_preserves_frobenius() {
    let mut g = Gen::new(9);
    for case in 0..64 {
        let rows = g.range(1, 6);
        let cols = g.range(1, 6);
        let m = g.matrix(rows, cols);
        let t = m.transpose();
        assert_eq!(t.transpose(), m, "case {case}");
        assert!((m.frobenius_norm() - t.frobenius_norm()).abs() < 1e-12);
    }
}
