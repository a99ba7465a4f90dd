//! The blocked kernels' one arithmetic: portable scalar code in `f64x4` shape.
//!
//! Every hot kernel in [`crate::gemm`], [`crate::csr`] and [`crate::sparse`]
//! funnels its inner loop through the five functions here.  They emulate a
//! 4-lane vector with fixed-size arrays — four independent accumulators,
//! lane-wise multiply-then-add, and the fixed reduction tree
//! `(l0+l1)+(l2+l3)` — so the compiler can map a lane group onto one vector
//! register (the crate builds with `-C target-cpu=native`), while the bits
//! stay those of the written scalar order.  Rust never contracts `a*b + c`
//! into a fused multiply-add on its own, so there is one result per input on
//! every CPU.
//!
//! The sparse gather and scatter are strictly sequential: the CSR kernels'
//! exactness contract against the dense [`crate::reference`] loops fixes their
//! accumulation order, and a 4-lane regrouping would break it.  Element-wise
//! AXPYs have no order to emulate, so they run [`crate::vector::axpy`].

use crate::gemm::{MR, NR};

/// 4-lane dot product: four independent accumulators merged by the fixed tree
/// `(l0+l1)+(l2+l3)`, then the `n % 4` remainder in order.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "simd::dot: dimension mismatch");
    let quads = a.len() / 4 * 4;
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a[..quads].chunks_exact(4).zip(b[..quads].chunks_exact(4)) {
        for l in 0..4 {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a[quads..].iter().zip(b[quads..].iter()) {
        s += x * y;
    }
    s
}

/// `dst += src`, element-wise.  Multiply-free, which is what lets the one-hot
/// kernels stay bit-exact against the dense [`crate::reference`] loops.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline]
pub fn add_assign(dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "simd::add_assign: dimension mismatch");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d += s;
    }
}

/// The `MR×NR` GEMM micro-kernel: accumulates `kb` packed outer products into
/// a register tile (`acc[r][cc] += a[r]·b[cc]` in k-order), then adds the tile
/// to the `C` block at `(i0, j0)` with leading dimension `ldc`.
#[inline]
pub fn microkernel(
    pa: &[f64],
    pb: &[f64],
    kb: usize,
    c: &mut [f64],
    ldc: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    let pa = &pa[..kb * MR];
    let pb = &pb[..kb * NR];
    for (ak, bk) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
        for r in 0..MR {
            let arv = ak[r];
            for cc in 0..NR {
                acc[r][cc] += arv * bk[cc];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let base = (i0 + r) * ldc + j0;
        let crow = &mut c[base..base + NR];
        for (dst, &v) in crow.iter_mut().zip(acc_row.iter()) {
            *dst += v;
        }
    }
}

/// Strictly sequential sparse gather `Σ_t vals[t]·v[idx[t]]`.
///
/// # Panics
/// Panics when `idx` and `vals` have different lengths, or an index is out of
/// range for `v`.
#[inline]
pub fn gather_dot(v: &[f64], idx: &[u32], vals: &[f64]) -> f64 {
    assert_eq!(
        idx.len(),
        vals.len(),
        "simd::gather_dot: index/value length mismatch"
    );
    let mut acc = 0.0;
    for (&i, &w) in idx.iter().zip(vals.iter()) {
        acc += w * v[i as usize];
    }
    acc
}

/// Sparse scatter `x[idx[t]] += alpha·vals[t]`, in order.
///
/// # Panics
/// Panics when `idx` and `vals` have different lengths, or an index is out of
/// range for `x`.
#[inline]
pub fn scatter_axpy(alpha: f64, idx: &[u32], vals: &[f64], x: &mut [f64]) {
    assert_eq!(
        idx.len(),
        vals.len(),
        "simd::scatter_axpy: index/value length mismatch"
    );
    for (&i, &w) in idx.iter().zip(vals.iter()) {
        x[i as usize] += alpha * w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, salt: u64) -> Vec<f64> {
        crate::testutil::TestRng::new(salt).vec_in(n, -1.0, 1.0)
    }

    /// Lengths chosen to hit every remainder path: empty, below one lane
    /// group, exact groups and `n % 4 ≠ 0`.
    const LENS: [usize; 10] = [0, 1, 2, 3, 4, 5, 7, 16, 17, 61];

    #[test]
    fn dot_sums_four_lanes_by_a_fixed_tree() {
        for &n in &LENS {
            let a = pseudo(n, 100 + n as u64);
            let b = pseudo(n, 200 + n as u64);
            let quads = n / 4 * 4;
            let lane = |l: usize| (l..quads).step_by(4).fold(0.0, |s, i| s + a[i] * b[i]);
            let mut want = (lane(0) + lane(1)) + (lane(2) + lane(3));
            for i in quads..n {
                want += a[i] * b[i];
            }
            let got = dot(&a, &b);
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn add_assign_matches_its_scalar_definition() {
        for &n in &LENS {
            let x = pseudo(n, 500 + n as u64);
            let y0 = pseudo(n, 600 + n as u64);
            let mut d = y0.clone();
            add_assign(&mut d, &x);
            let want: Vec<f64> = y0.iter().zip(&x).map(|(a, b)| a + b).collect();
            assert_eq!(d, want, "add n={n}");
        }
    }

    #[test]
    fn microkernel_accumulates_in_k_order() {
        let kb = 13; // odd depth exercises the k-loop without alignment help
        let pa = pseudo(kb * MR, 7);
        let pb = pseudo(kb * NR, 8);
        let c0 = pseudo(MR * NR, 9);
        let mut c = c0.clone();
        microkernel(&pa, &pb, kb, &mut c, NR, 0, 0);
        for r in 0..MR {
            for cc in 0..NR {
                let acc = (0..kb).fold(0.0, |s, k| s + pa[k * MR + r] * pb[k * NR + cc]);
                let want = c0[r * NR + cc] + acc;
                assert_eq!(c[r * NR + cc].to_bits(), want.to_bits(), "({r}, {cc})");
            }
        }
    }

    #[test]
    fn gather_and_scatter_run_in_index_order() {
        let v = pseudo(50, 10);
        let idx: Vec<u32> = vec![0, 3, 7, 11, 19, 23, 31, 42, 49];
        let vals = pseudo(idx.len(), 11);
        let want = idx
            .iter()
            .zip(&vals)
            .fold(0.0, |s, (&i, &w)| s + w * v[i as usize]);
        assert_eq!(gather_dot(&v, &idx, &vals).to_bits(), want.to_bits());

        let mut x = v.clone();
        scatter_axpy(0.9, &idx, &vals, &mut x);
        for (t, &i) in idx.iter().enumerate() {
            let i = i as usize;
            assert_eq!(x[i].to_bits(), (v[i] + 0.9 * vals[t]).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_out_of_range_panics() {
        gather_dot(&[1.0, 2.0], &[5], &[1.0]);
    }
}
