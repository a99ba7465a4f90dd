//! Sparse-path machinery shared by the factorized E-step ([`crate::estep`]),
//! the dense driver and the factorized M-step, generalized over
//! both sparse representations ([`SparseRep`]):
//! one-hot index sets and weighted CSR rows.
//!
//! The EM quantities the factorized trainers compute per dimension tuple all
//! involve the **centered** vector `PD = x − µ`, which is dense even when `x`
//! is sparse.  The trick is to expand around the mean once per component and
//! iteration, leaving only gathers/scatters on `x` itself in the per-tuple hot
//! path:
//!
//! * quadratic term (E-step `LR` / diagonal terms):
//!   `(x−µ)ᵀ A (x−µ) = xᵀAx − Σ_i x_i·((A+Aᵀ)µ)_i + µᵀAµ`
//!   (for one-hot `x` the raw form degenerates to `Σ_{i,j∈x} A[i][j]`)
//! * fact-side cross vector (E-step `w`):
//!   `(A₀ᵦ + Aᵦ₀ᵀ)(x−µ) = A₀ᵦ·x + Aᵦ₀ᵀ·x − (A₀ᵦ + Aᵦ₀ᵀ)µ`
//! * scatter blocks (M-step, summed over dimension tuples `g` with the
//!   responsibility mass `γ_g` and weighted fact sum `w_g` of their facts):
//!   `Σ_g γ_g (x_g−µ)(x_g−µ)ᵀ = Σ_g γ_g x_g x_gᵀ − (Σ_g γ_g x_g)µᵀ − µ(Σ_g γ_g x_g)ᵀ + (Σ_g γ_g)µµᵀ`
//!   `Σ_g w_g (x_g−µ)ᵀ      = Σ_g w_g x_gᵀ − (Σ_g w_g)µᵀ`
//!
//! [`SparseFormPre`] holds the `O(d²)` per-component constants (built **once
//! per iteration**, not per tuple); [`SparseScatterAcc`] accumulates the
//! `x`-only scatter sums sparsely and applies the dense mean corrections
//! **once per window or pass, around the iteration's starting means**, in
//! [`finalize`](SparseScatterAcc::finalize).  The
//! decomposition is exact in real arithmetic; in floating point it regroups
//! additions, so sparse-path models agree with the dense path within the same
//! rounding tolerances the cross-variant equivalence tests already use.

use fml_linalg::block::{BlockQuadraticForm, BlockScatter};
use fml_linalg::sparse::SparseRep;
use fml_linalg::{gemm, vector, KernelPolicy, Matrix};

/// Per-component, per-dimension-block constants for the sparse decomposition
/// of the centered E-step quantities.  `block` is the partition index of the
/// dimension block (`≥ 1`); block `0` is the fact side.
pub struct SparseFormPre {
    /// `(A_bb + A_bbᵀ) · µ_b`.
    a_mu_sum: Vec<f64>,
    /// `µ_bᵀ A_bb µ_b`.
    mu_a_mu: f64,
    /// `A_0b·µ_b + A_b0ᵀ·µ_b` — the mean part of the fact-side cross vector.
    cross_mu: Vec<f64>,
}

impl SparseFormPre {
    /// Builds the constants for one component (`form` is its partitioned
    /// `Σ⁻¹`) and one dimension block, under the given sequential policy.
    pub fn build(form: &BlockQuadraticForm, block: usize, mu_b: &[f64], kp: KernelPolicy) -> Self {
        let mut pre = Self::build_diag(form, block, mu_b, kp);
        let mut cross_mu = gemm::matvec_with(kp, form.block(0, block), mu_b);
        let w2 = gemm::matvec_transposed_with(kp, form.block(block, 0), mu_b);
        vector::axpy(1.0, &w2, &mut cross_mu);
        pre.cross_mu = cross_mu;
        pre
    }

    /// Diagonal-only constants for any block — including the **fact block**
    /// (`block == 0`, which has no fact-side cross vector; only
    /// [`diag_term`](Self::diag_term) is valid on the result).
    pub fn build_diag(
        form: &BlockQuadraticForm,
        block: usize,
        mu_b: &[f64],
        kp: KernelPolicy,
    ) -> Self {
        Self::build_flat(form.block(block, block), mu_b, kp)
    }

    /// Diagonal constants computed directly from a flat (unpartitioned)
    /// matrix — the dense-pass trainers' "block" is the whole feature space,
    /// so `M-GMM`/`S-GMM` share this exact expansion with the factorized
    /// trainers (pair it with [`quad_flat`](Self::quad_flat)).
    ///
    /// `(A + Aᵀ)·µ` is formed from two GEMVs rather than `2·(A·µ)` on
    /// purpose: the expansion is then exact for *any* square `A`, without
    /// assuming the Cholesky-derived inverse is bitwise symmetric.
    pub fn build_flat(a: &Matrix, mu: &[f64], kp: KernelPolicy) -> Self {
        let mut a_mu_sum = gemm::matvec_with(kp, a, mu);
        let at_mu = gemm::matvec_transposed_with(kp, a, mu);
        vector::axpy(1.0, &at_mu, &mut a_mu_sum);
        let mu_a_mu = gemm::quadratic_form_with(kp, mu, a, mu);
        Self {
            a_mu_sum,
            mu_a_mu,
            cross_mu: Vec::new(),
        }
    }

    /// Builds the constants for every component and every dimension block:
    /// `result[c][b-1]` serves component `c`, partition block `b`.
    pub fn build_all(
        forms: &[BlockQuadraticForm],
        means_split: &[Vec<Vec<f64>>],
        num_blocks: usize,
        kp: KernelPolicy,
    ) -> Vec<Vec<SparseFormPre>> {
        forms
            .iter()
            .enumerate()
            .map(|(c, form)| {
                (1..num_blocks)
                    .map(|b| SparseFormPre::build(form, b, &means_split[c][b], kp))
                    .collect()
            })
            .collect()
    }

    /// `(x−µ)ᵀ A_bb (x−µ)` for sparse `x` — `nnz²` loads/multiply-adds plus
    /// one gather.
    pub fn diag_term(&self, form: &BlockQuadraticForm, block: usize, rep: &SparseRep) -> f64 {
        self.quad_flat(form.block(block, block), rep)
    }

    /// `(x−µ)ᵀ A (x−µ)` against a flat matrix (see [`Self::build_flat`]).
    pub fn quad_flat(&self, a: &Matrix, rep: &SparseRep) -> f64 {
        rep.quadratic_form_pair(a) - rep.gather_dot(&self.a_mu_sum) + self.mu_a_mu
    }

    /// The fact-side cross vector `A_0b·(x−µ) + A_b0ᵀ·(x−µ)` for sparse `x` —
    /// `nnz` column/row gathers plus one dense AXPY of length `d_S`.
    pub fn cross_vector(
        &self,
        form: &BlockQuadraticForm,
        block: usize,
        rep: &SparseRep,
        kp: KernelPolicy,
    ) -> Vec<f64> {
        let mut w = rep.matvec(kp, form.block(0, block));
        let w2 = rep.matvec_transposed(kp, form.block(block, 0));
        vector::axpy(1.0, &w2, &mut w);
        vector::axpy(-1.0, &self.cross_mu, &mut w);
        w
    }
}

/// Sparse accumulator for one component's dimension-side scatter blocks: the
/// per-tuple contributions touch only active indices; the dense mean
/// corrections are deferred to [`finalize`](Self::finalize), applied once per
/// window instead of once per dimension tuple.
#[derive(Debug, Clone)]
pub struct SparseScatterAcc {
    /// `Σ_g γ_g x_g` over the sparse dimension tuples (dimension-block width).
    gx: Vec<f64>,
    /// `Σ_g w_g` where `w_g = Σ_{facts in g} γ PD_S` (fact-block width).
    w_total: Vec<f64>,
    /// `Σ_g γ_g`.
    gamma_total: f64,
    /// Whether any tuple was recorded (skips the zero-valued corrections).
    touched: bool,
}

impl SparseScatterAcc {
    /// Creates a zeroed accumulator for fact width `d_s` and dimension-block
    /// width `d_b`.
    pub fn new(d_s: usize, d_b: usize) -> Self {
        Self {
            gx: vec![0.0; d_b],
            w_total: vec![0.0; d_s],
            gamma_total: 0.0,
            touched: false,
        }
    }

    /// Records one dimension tuple that is sparse with representation `rep`,
    /// the responsibility mass `group_gamma` and the weighted fact sum
    /// `weighted_pd_s` of its facts: scatters the raw-`x` parts of the `(0,b)`,
    /// `(b,0)` and `(b,b)` blocks into `scatter` and accumulates the
    /// correction sums.
    pub fn record(
        &mut self,
        scatter: &mut BlockScatter,
        block: usize,
        group_gamma: f64,
        weighted_pd_s: &[f64],
        rep: &SparseRep,
    ) {
        let bv = rep.as_block_vec();
        scatter.add_outer_rep(
            0,
            block,
            1.0,
            fml_linalg::BlockVec::Dense(weighted_pd_s),
            bv,
        );
        scatter.add_outer_rep(
            block,
            0,
            1.0,
            bv,
            fml_linalg::BlockVec::Dense(weighted_pd_s),
        );
        scatter.add_outer_rep(block, block, group_gamma, bv, bv);
        rep.axpy_into(group_gamma, &mut self.gx);
        vector::axpy(1.0, weighted_pd_s, &mut self.w_total);
        self.gamma_total += group_gamma;
        self.touched = true;
    }

    /// Applies the dense mean corrections for this window around `mu_b`, the
    /// mean the recorded `weighted_pd_s` were centred with (the iteration's
    /// starting mean): `−(Σw)µᵀ` / `−µ(Σw)ᵀ` on the cross blocks and
    /// `−(Σγx)µᵀ − µ(Σγx)ᵀ + (Σγ)µµᵀ` on the diagonal block.
    pub fn finalize(&self, scatter: &mut BlockScatter, block: usize, mu_b: &[f64]) {
        if !self.touched {
            return;
        }
        scatter.add_outer(0, block, -1.0, &self.w_total, mu_b);
        scatter.add_outer(block, 0, -1.0, mu_b, &self.w_total);
        scatter.add_outer(block, block, -1.0, &self.gx, mu_b);
        scatter.add_outer(block, block, -1.0, mu_b, &self.gx);
        scatter.add_outer(block, block, self.gamma_total, mu_b, mu_b);
    }

    /// Adds the recorded tuples' share of the mean shift,
    /// `Σ_g γ_g (x_g − µ) = Σ_g γ_g x_g − (Σ_g γ_g)µ`, into `out`.
    pub fn add_shift_sum(&self, mu_b: &[f64], out: &mut [f64]) {
        vector::axpy(1.0, &self.gx, out);
        vector::axpy(-self.gamma_total, mu_b, out);
    }
}

/// Sparse accumulator for a block's **diagonal** scatter contributions only —
/// used for the fact block, whose per-tuple term
/// `Σ_t γ_t (x_t−µ)(x_t−µ)ᵀ` decomposes exactly like the dimension diagonal:
/// raw `x xᵀ` pair scatters per tuple, mean corrections once per pass.
#[derive(Debug, Clone)]
pub struct SparseDiagAcc {
    /// `Σ_t γ_t x_t` over the sparse tuples.
    gx: Vec<f64>,
    /// `Σ_t γ_t`.
    gamma_total: f64,
    touched: bool,
}

impl SparseDiagAcc {
    /// Creates a zeroed accumulator for a block of width `d_b`.
    pub fn new(d_b: usize) -> Self {
        Self {
            gx: vec![0.0; d_b],
            gamma_total: 0.0,
            touched: false,
        }
    }

    /// Records one sparse tuple with weight `gamma`: scatters the raw
    /// `γ·x xᵀ` into block `(block, block)` and accumulates the corrections.
    pub fn record(
        &mut self,
        scatter: &mut BlockScatter,
        block: usize,
        gamma: f64,
        rep: &SparseRep,
    ) {
        let bv = rep.as_block_vec();
        scatter.add_outer_rep(block, block, gamma, bv, bv);
        rep.axpy_into(gamma, &mut self.gx);
        self.gamma_total += gamma;
        self.touched = true;
    }

    /// Applies `−(Σγx)µᵀ − µ(Σγx)ᵀ + (Σγ)µµᵀ` on the diagonal block, for the
    /// mean `mu_b` the scatter is centred on (the iteration's starting mean).
    pub fn finalize(&self, scatter: &mut BlockScatter, block: usize, mu_b: &[f64]) {
        if !self.touched {
            return;
        }
        scatter.add_outer(block, block, -1.0, &self.gx, mu_b);
        scatter.add_outer(block, block, -1.0, mu_b, &self.gx);
        scatter.add_outer(block, block, self.gamma_total, mu_b, mu_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_linalg::block::BlockPartition;
    use fml_linalg::Matrix;

    fn pseudo(rows: usize, cols: usize, salt: u64) -> Matrix {
        let mut rng = fml_linalg::testutil::TestRng::new(salt);
        Matrix::from_vec(rows, cols, rng.vec_in(rows * cols, -1.0, 1.0))
    }

    fn densify(rep: &SparseRep, width: usize) -> Vec<f64> {
        let mut v = vec![0.0; width];
        match rep {
            SparseRep::OneHot(idx) => {
                for &i in idx {
                    v[i as usize] = 1.0;
                }
            }
            SparseRep::Csr { idx, vals } => {
                for (&i, &w) in idx.iter().zip(vals.iter()) {
                    v[i as usize] = w;
                }
            }
        }
        v
    }

    fn onehot(idx: &[u32]) -> SparseRep {
        SparseRep::OneHot(idx.to_vec())
    }

    fn csr(idx: &[u32], vals: &[f64]) -> SparseRep {
        SparseRep::Csr {
            idx: idx.to_vec(),
            vals: vals.to_vec(),
        }
    }

    fn symmetrize(raw: &Matrix) -> Matrix {
        let mut a = raw.clone();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                a[(i, j)] = 0.5 * (raw[(i, j)] + raw[(j, i)]);
            }
        }
        a
    }

    #[test]
    fn sparse_decomposition_matches_dense_centered_terms() {
        let (d_s, d_r) = (3usize, 8usize);
        let p = BlockPartition::binary(d_s, d_r);
        let a = symmetrize(&pseudo(d_s + d_r, d_s + d_r, 1));
        let form = BlockQuadraticForm::new_with(p, &a, KernelPolicy::Naive);
        let mu: Vec<f64> = fml_linalg::testutil::TestRng::new(2).vec_in(d_r, -0.5, 0.5);
        let pre = SparseFormPre::build(&form, 1, &mu, KernelPolicy::Naive);

        for rep in [
            onehot(&[1, 4, 6]),
            csr(&[0, 3, 7], &[1.5, -0.75, 2.25]),
            csr(&[2], &[-3.0]),
            csr(&[], &[]),
        ] {
            let x = densify(&rep, d_r);
            let pd: Vec<f64> = x.iter().zip(mu.iter()).map(|(a, b)| a - b).collect();

            // diagonal quadratic term
            let dense = form.term(1, 1, &pd, &pd);
            let sparse_val = pre.diag_term(&form, 1, &rep);
            assert!(
                (dense - sparse_val).abs() < 1e-12,
                "{rep:?}: {dense} vs {sparse_val}"
            );

            // fact-side cross vector
            let mut w_dense = gemm::matvec_with(KernelPolicy::Naive, form.block(0, 1), &pd);
            let w2 = gemm::matvec_transposed_with(KernelPolicy::Naive, form.block(1, 0), &pd);
            vector::axpy(1.0, &w2, &mut w_dense);
            let w_sparse = pre.cross_vector(&form, 1, &rep, KernelPolicy::Naive);
            for (a, b) in w_dense.iter().zip(w_sparse.iter()) {
                assert!((a - b).abs() < 1e-12, "{rep:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scatter_acc_matches_dense_centered_outer_products() {
        let (d_s, d_r) = (2usize, 8usize);
        let p = BlockPartition::binary(d_s, d_r);
        let mu: Vec<f64> = fml_linalg::testutil::TestRng::new(7).vec_in(d_r, -0.5, 0.5);
        let groups: Vec<(f64, Vec<f64>, SparseRep)> = vec![
            (0.8, vec![0.3, -0.2], onehot(&[0, 3])),
            (1.7, vec![-1.0, 0.4], csr(&[2, 5], &[2.0, -0.5])),
            (0.0, vec![0.5, 0.5], csr(&[1], &[1.25])),
            (0.6, vec![0.1, 0.9], csr(&[], &[])),
        ];

        let mut dense = BlockScatter::new_with(p.clone(), KernelPolicy::Naive);
        for (g, w, rep) in &groups {
            let x = densify(rep, d_r);
            let pd: Vec<f64> = x.iter().zip(mu.iter()).map(|(a, b)| a - b).collect();
            dense.add_outer(0, 1, 1.0, w, &pd);
            dense.add_outer(1, 0, 1.0, &pd, w);
            dense.add_outer(1, 1, *g, &pd, &pd);
        }

        let mut sparse_sc = BlockScatter::new_with(p, KernelPolicy::Naive);
        let mut acc = SparseScatterAcc::new(d_s, d_r);
        for (g, w, rep) in &groups {
            acc.record(&mut sparse_sc, 1, *g, w, rep);
        }
        acc.finalize(&mut sparse_sc, 1, &mu);

        let diff = dense.matrix().max_abs_diff(sparse_sc.matrix());
        assert!(diff < 1e-12, "scatter decomposition diverged: {diff}");
    }

    #[test]
    fn fact_block_decomposition_matches_dense_centered_terms() {
        let (d_s, d_r) = (8usize, 3usize);
        let p = BlockPartition::binary(d_s, d_r);
        let a = symmetrize(&pseudo(d_s + d_r, d_s + d_r, 9));
        let form = BlockQuadraticForm::new_with(p.clone(), &a, KernelPolicy::Naive);
        let mu: Vec<f64> = fml_linalg::testutil::TestRng::new(10).vec_in(d_s, -0.5, 0.5);
        let pre = SparseFormPre::build_diag(&form, 0, &mu, KernelPolicy::Naive);

        let tuples: Vec<(f64, SparseRep)> = vec![
            (0.4, onehot(&[0, 3])),
            (1.1, csr(&[2, 4], &[1.25, -2.0])),
            (0.7, csr(&[1], &[0.5])),
        ];

        // E-step diagonal term per tuple
        for (_, rep) in &tuples {
            let x = densify(rep, d_s);
            let pd: Vec<f64> = x.iter().zip(mu.iter()).map(|(a, b)| a - b).collect();
            let dense = form.term(0, 0, &pd, &pd);
            let sparse_val = pre.diag_term(&form, 0, rep);
            assert!(
                (dense - sparse_val).abs() < 1e-12,
                "{rep:?}: {dense} vs {sparse_val}"
            );
        }

        // M-step diagonal scatter with deferred corrections
        let mut dense_sc = BlockScatter::new_with(p.clone(), KernelPolicy::Naive);
        for (g, rep) in &tuples {
            let x = densify(rep, d_s);
            let pd: Vec<f64> = x.iter().zip(mu.iter()).map(|(a, b)| a - b).collect();
            dense_sc.add_outer(0, 0, *g, &pd, &pd);
        }
        let mut sparse_sc = BlockScatter::new_with(p, KernelPolicy::Naive);
        let mut acc = SparseDiagAcc::new(d_s);
        for (g, rep) in &tuples {
            acc.record(&mut sparse_sc, 0, *g, rep);
        }
        acc.finalize(&mut sparse_sc, 0, &mu);
        let diff = dense_sc.matrix().max_abs_diff(sparse_sc.matrix());
        assert!(diff < 1e-12, "fact diagonal decomposition diverged: {diff}");
    }

    #[test]
    fn untouched_acc_finalize_is_a_noop() {
        let p = BlockPartition::binary(1, 2);
        let mut sc = BlockScatter::new_with(p, KernelPolicy::Naive);
        let acc = SparseScatterAcc::new(1, 2);
        acc.finalize(&mut sc, 1, &[5.0, 5.0]);
        assert_eq!(sc.matrix().frobenius_norm(), 0.0);
    }
}
