//! SIMD-level equivalence tests.
//!
//! The `simd` layer's contract is that the bit-exact levels (`Scalar`, the
//! forced fallback, and `Lanes`, the default AVX2 path) produce **bit-for-bit
//! identical** results for every kernel under every [`KernelPolicy`] and every
//! sparse representation, while the opt-in `LanesFma` fast mode is only
//! tolerance-equal (it fuses each multiply-add into one rounding).
//!
//! The levels are forced per-thread with [`simd::override_level`], so these
//! tests pin the contract regardless of the host CPU or the `FML_SIMD`
//! environment (on non-AVX2 hardware `Lanes` degrades to the scalar fallback
//! and the bit assertions hold trivially).  The CI job additionally reruns the
//! whole suite under `FML_SIMD=off`, which routes the *default* level through
//! the fallback — [`default_level_agrees_with_forced_scalar_fallback`] is the
//! test that turns that run into a scalar-vs-SIMD bit-agreement proof.
//!
//! Comparisons go through `f64::to_bits` (not `==`) so `-0.0` vs `0.0` and
//! NaN payload differences would be caught.
//!
//! Shapes deliberately include `n % 4 != 0` remainders (the lane width is 4),
//! empty inputs, and length-1 inputs, as required by the kernel contract.

use fml_linalg::block::{BlockPartition, BlockScatter};
use fml_linalg::csr;
use fml_linalg::policy::KernelPolicy;
use fml_linalg::simd::{self, SimdLevel};
use fml_linalg::sparse::{self, BlockVec, SparseMode};
use fml_linalg::testutil::TestRng;
use fml_linalg::{approx_eq, gemm, Matrix};

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// Shapes stressing the lane remainder paths: empty, length-1, below one
/// 4-lane, exactly one lane, `% 4 != 0` on every axis, and big enough to
/// cross the register tile and a parallel band.
fn shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (0, 0, 0),
        (1, 1, 1),
        (2, 3, 1),
        (3, 4, 5),   // one axis lane-aligned, two with remainders
        (4, 8, 8),   // exactly one register tile
        (5, 9, 17),  // one past a tile everywhere
        (7, 13, 11), // all-odd
        (19, 23, 29),
    ]
}

#[test]
fn dense_kernels_bit_identical_across_bit_exact_levels_and_policies() {
    let mut rng = TestRng::new(0x51D0);
    for (case, (m, k, n)) in shapes().into_iter().enumerate() {
        let a = Matrix::from_vec(m, k, rng.vec_in(m * k, -4.0, 4.0));
        let b = Matrix::from_vec(k, n, rng.vec_in(k * n, -4.0, 4.0));
        let seed_c = Matrix::from_vec(m, n, rng.vec_in(m * n, -4.0, 4.0));
        let x = rng.vec_in(k, -4.0, 4.0);
        let xm = rng.vec_in(m, -4.0, 4.0);
        let alpha = rng.f64_in(-3.0, 3.0);

        for p in KernelPolicy::ALL {
            let run = |lv: SimdLevel| {
                simd::with_level(lv, || {
                    let mut c = seed_c.clone();
                    gemm::matmul_acc_with(p, a.as_slice(), &b, c.as_mut_slice());
                    let mv = gemm::matvec_with(p, &a, &x);
                    let mvt = gemm::matvec_transposed_with(p, &a, &xm);
                    let mut g = seed_c.clone();
                    gemm::ger_with(p, alpha, &xm, &rng_free_y(&x, n), &mut g);
                    let qf = gemm::quadratic_form_with(p, &xm, &a, &x);
                    (c, mv, mvt, g, qf)
                })
            };
            let (c0, mv0, mvt0, g0, qf0) = run(SimdLevel::Scalar);
            let (c1, mv1, mvt1, g1, qf1) = run(SimdLevel::Lanes);
            assert_bits_eq(
                c0.as_slice(),
                c1.as_slice(),
                &format!("case {case} {p} matmul"),
            );
            assert_bits_eq(&mv0, &mv1, &format!("case {case} {p} matvec"));
            assert_bits_eq(&mvt0, &mvt1, &format!("case {case} {p} matvec_t"));
            assert_bits_eq(
                g0.as_slice(),
                g1.as_slice(),
                &format!("case {case} {p} ger"),
            );
            assert_bits_eq(&[qf0], &[qf1], &format!("case {case} {p} quadratic_form"));
        }
    }
}

/// First `n` entries of `x` cycled — a deterministic length-`n` vector without
/// threading another RNG draw through the level closure.
fn rng_free_y(x: &[f64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if x.is_empty() {
                0.0
            } else {
                x[i % x.len()] + i as f64 * 0.125
            }
        })
        .collect()
}

#[test]
fn sparse_and_csr_kernels_bit_identical_across_bit_exact_levels_and_policies() {
    let mut rng = TestRng::new(0x51D1);
    // (width, one-hot idx, csr idx, csr vals) fixtures covering empty,
    // length-1 and lane-remainder blocks.
    type SparseFixture = (usize, Vec<u32>, Vec<u32>, Vec<f64>);
    let fixtures: Vec<SparseFixture> = vec![
        (0, vec![], vec![], vec![]),
        (1, vec![0], vec![0], vec![1.5]),
        (1, vec![], vec![], vec![]),
        (5, vec![1, 4], vec![0, 3], vec![-2.0, 0.75]),
        (9, vec![0, 2, 7], vec![1, 5, 8], vec![0.5, -1.25, 3.0]),
        (16, vec![3, 4, 11, 15], vec![0, 7, 9], vec![2.0, -0.5, 1.0]),
    ];
    for (case, (width, oidx, cidx, cvals)) in fixtures.into_iter().enumerate() {
        let cols = 7; // odd → remainder in every row op
        let a = Matrix::from_vec(width, cols, rng.vec_in(width * cols, -4.0, 4.0));
        let sq = Matrix::from_vec(width, width, rng.vec_in(width * width, -4.0, 4.0));
        let y = rng.vec_in(cols, -4.0, 4.0);
        let ones = vec![1.0; oidx.len()];
        let alpha = rng.f64_in(-3.0, 3.0);

        for p in KernelPolicy::ALL {
            let run = |lv: SimdLevel| {
                simd::with_level(lv, || {
                    let (mut g1, mut g2) = (vec![f64::NAN; cols], vec![f64::NAN; cols]);
                    sparse::matvec_transposed_onehot_into_with(p, &a, &oidx, &mut g1);
                    csr::matvec_transposed_csr_into_with(p, &a, &cidx, &cvals, &mut g2);
                    let mut s1 = a.clone();
                    sparse::ger_onehot_with(p, alpha, &oidx, &y, &mut s1);
                    let mut s2 = a.clone();
                    csr::ger_csr_with(p, alpha, &cidx, &cvals, &y, &mut s2);
                    let q = csr::quadratic_form_csr_pair(&cidx, &cvals, &sq, &oidx, &ones);
                    (g1, g2, s1, s2, q)
                })
            };
            let r0 = run(SimdLevel::Scalar);
            let r1 = run(SimdLevel::Lanes);
            assert_bits_eq(&r0.0, &r1.0, &format!("case {case} {p} onehot gather"));
            assert_bits_eq(&r0.1, &r1.1, &format!("case {case} {p} csr gather"));
            assert_bits_eq(
                r0.2.as_slice(),
                r1.2.as_slice(),
                &format!("case {case} {p} onehot scatter"),
            );
            assert_bits_eq(
                r0.3.as_slice(),
                r1.3.as_slice(),
                &format!("case {case} {p} csr scatter"),
            );
            assert_bits_eq(&[r0.4], &[r1.4], &format!("case {case} {p} quadratic form"));
        }
    }
}

/// Every `KernelPolicy × SparseMode` combination through the block-dispatch
/// surface the trainers actually use: the row in the form the mode hands
/// out — stored one-hot under `Auto`, expanded under `Dense` — then
/// `add_outer_rep` over it.  Bit-exact levels must agree bit-for-bit on all
/// of it.
#[test]
fn block_dispatch_bit_identical_under_every_policy_and_sparse_mode() {
    let mut rng = TestRng::new(0x51D2);
    let d_s = 3usize;
    let d_r = 9usize; // % 4 != 0
    let mut xr = vec![0.0; d_r];
    xr[2] = 1.0;
    xr[7] = 1.0;
    let u = rng.vec_in(d_s, -4.0, 4.0);
    let partition = BlockPartition::binary(d_s, d_r);
    let alpha = 1.75;

    for mode in [SparseMode::Auto, SparseMode::Dense] {
        let bv = match mode {
            SparseMode::Auto => BlockVec::OneHot(&[2, 7]),
            SparseMode::Dense => BlockVec::Dense(&xr),
        };
        for p in KernelPolicy::ALL {
            let run = |lv: SimdLevel| {
                simd::with_level(lv, || {
                    let mut sc = BlockScatter::new_with(partition.clone(), p);
                    sc.add_outer_rep(0, 1, alpha, BlockVec::Dense(&u), bv);
                    sc.add_outer_rep(1, 0, alpha, bv, BlockVec::Dense(&u));
                    sc.add_outer_rep(1, 1, alpha, bv, bv);
                    sc.matrix().clone()
                })
            };
            let r0 = run(SimdLevel::Scalar);
            let r1 = run(SimdLevel::Lanes);
            let tag = format!("{p} {}", mode.label());
            assert_bits_eq(r0.as_slice(), r1.as_slice(), &format!("{tag} scatter"));
        }
    }
}

/// The forced-fallback agreement test: whatever level the process resolved as
/// its default (AVX2 `Lanes` on capable hardware, `Scalar` under
/// `FML_SIMD=off` or on older CPUs), its results must bit-agree with an
/// explicitly forced scalar fallback — unless the user opted into the `fma`
/// fast mode, which is exempt from the bit contract by design.
///
/// Run once normally and once under `FML_SIMD=off` (CI does both), this pins
/// scalar/SIMD bit-agreement from both directions.
#[test]
fn default_level_agrees_with_forced_scalar_fallback() {
    let lv = simd::current_level();
    if !lv.is_bit_exact() {
        eprintln!("skipping: FML_SIMD=fma opts out of the bit contract");
        return;
    }
    let mut rng = TestRng::new(0x51D3);
    let (m, k, n) = (17, 23, 13);
    let a = Matrix::from_vec(m, k, rng.vec_in(m * k, -4.0, 4.0));
    let b = Matrix::from_vec(k, n, rng.vec_in(k * n, -4.0, 4.0));
    let x = rng.vec_in(k, -4.0, 4.0);
    for p in KernelPolicy::ALL {
        let (c_def, v_def) = {
            let mut c = Matrix::zeros(m, n);
            gemm::matmul_acc_with(p, a.as_slice(), &b, c.as_mut_slice());
            (c, gemm::matvec_with(p, &a, &x))
        };
        let (c_sc, v_sc) = simd::with_level(SimdLevel::Scalar, || {
            let mut c = Matrix::zeros(m, n);
            gemm::matmul_acc_with(p, a.as_slice(), &b, c.as_mut_slice());
            (c, gemm::matvec_with(p, &a, &x))
        });
        assert_bits_eq(
            c_def.as_slice(),
            c_sc.as_slice(),
            &format!("{p} matmul default={lv}"),
        );
        assert_bits_eq(&v_def, &v_sc, &format!("{p} matvec default={lv}"));
    }
}

/// The `fma` fast mode is NOT bit-exact but must stay within a few ULPs of
/// the scalar oracle (one rounding saved per multiply-add).
#[test]
fn fma_level_is_tolerance_equal_to_scalar_oracle() {
    let mut rng = TestRng::new(0x51D4);
    for (case, (m, k, n)) in shapes().into_iter().enumerate() {
        let a = Matrix::from_vec(m, k, rng.vec_in(m * k, -4.0, 4.0));
        let b = Matrix::from_vec(k, n, rng.vec_in(k * n, -4.0, 4.0));
        let x = rng.vec_in(k, -4.0, 4.0);
        for p in KernelPolicy::ALL {
            let run = |lv: SimdLevel| {
                simd::with_level(lv, || {
                    let mut c = Matrix::zeros(m, n);
                    gemm::matmul_acc_with(p, a.as_slice(), &b, c.as_mut_slice());
                    (c, gemm::matvec_with(p, &a, &x))
                })
            };
            let (c0, v0) = run(SimdLevel::Scalar);
            let (c1, v1) = run(SimdLevel::LanesFma);
            for (i, (s, f)) in c0.as_slice().iter().zip(c1.as_slice().iter()).enumerate() {
                assert!(
                    approx_eq(*s, *f, 1e-12 * (k as f64 + 1.0)),
                    "case {case} {p} matmul elem {i}: {s} vs {f}"
                );
            }
            for (i, (s, f)) in v0.iter().zip(v1.iter()).enumerate() {
                assert!(
                    approx_eq(*s, *f, 1e-12 * (k as f64 + 1.0)),
                    "case {case} {p} matvec elem {i}: {s} vs {f}"
                );
            }
        }
    }
}
