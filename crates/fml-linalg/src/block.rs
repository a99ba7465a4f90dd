//! Block decompositions along relation boundaries.
//!
//! The factorized algorithms of the paper never materialize the denormalized
//! feature vector `x = [x_S  x_{R_1} … x_{R_q}]`.  Instead every d-dimensional
//! quantity is partitioned along the relation boundaries
//! `[d_S, d_{R_1}, …, d_{R_q}]`:
//!
//! * the quadratic form `(x−µ)ᵀ Σ⁻¹ (x−µ)` becomes the sum
//!   `Σ_{i,j} PD_iᵀ I_{ij} PD_j` over sub-blocks of the covariance inverse
//!   (Equations 7–12 for the binary case, Equation 19 for multi-way joins);
//! * the scatter matrix `(x−µ)(x−µ)ᵀ` becomes the `(q+1)×(q+1)` grid of outer
//!   products `M_{ij} = PD_i PD_jᵀ` (Equations 14–18 and 23–24).
//!
//! [`BlockPartition`] describes the split, [`BlockQuadraticForm`] evaluates the
//! partitioned quadratic form (with per-block access so that the `R`-only terms can
//! be cached per distinct `R` tuple), and [`BlockScatter`] assembles a full `d×d`
//! matrix from per-block outer-product contributions.

use crate::csr;
use crate::gemm;
use crate::matrix::Matrix;
use crate::sparse::{self, BlockVec};
use std::ops::Range;

/// A partition of a `d`-dimensional feature space into contiguous segments, one per
/// relation participating in the join (`S` first, then `R_1 … R_q`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPartition {
    sizes: Vec<usize>,
    offsets: Vec<usize>,
}

impl BlockPartition {
    /// Creates a partition from the per-relation feature counts.
    ///
    /// # Panics
    /// Panics when `sizes` is empty.
    pub fn new(sizes: &[usize]) -> Self {
        assert!(
            !sizes.is_empty(),
            "BlockPartition: at least one block required"
        );
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut acc = 0;
        for &s in sizes {
            offsets.push(acc);
            acc += s;
        }
        Self {
            sizes: sizes.to_vec(),
            offsets,
        }
    }

    /// Convenience constructor for the binary-join case `[d_S, d_R]`.
    pub fn binary(d_s: usize, d_r: usize) -> Self {
        Self::new(&[d_s, d_r])
    }

    /// Number of blocks (`q + 1` for a join of `S` with `q` dimension tables).
    pub fn num_blocks(&self) -> usize {
        self.sizes.len()
    }

    /// Total dimension `d = Σ sizes`.
    pub fn total_dim(&self) -> usize {
        self.offsets.last().unwrap() + self.sizes.last().unwrap()
    }

    /// Size of block `i`.
    pub fn size(&self, i: usize) -> usize {
        self.sizes[i]
    }

    /// Offset of block `i` within the concatenated feature vector.
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Index range of block `i`.
    pub fn range(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i] + self.sizes[i]
    }

    /// All block sizes.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Splits a full `d`-dimensional slice into per-block sub-slices.
    pub fn split<'a>(&self, x: &'a [f64]) -> Vec<&'a [f64]> {
        assert_eq!(
            x.len(),
            self.total_dim(),
            "BlockPartition::split: vector length {} != partition dim {}",
            x.len(),
            self.total_dim()
        );
        (0..self.num_blocks()).map(|i| &x[self.range(i)]).collect()
    }

    /// Extracts the `(i, j)` sub-block of a `d×d` matrix.
    fn matrix_block(&self, m: &Matrix, i: usize, j: usize) -> Matrix {
        let ri = self.range(i);
        let rj = self.range(j);
        m.sub_block(ri.start, ri.end, rj.start, rj.end)
    }

    /// Partitions a square `d×d` matrix into the full grid of sub-blocks.
    fn partition_matrix(&self, m: &Matrix) -> Vec<Vec<Matrix>> {
        assert_eq!(
            m.rows(),
            self.total_dim(),
            "partition_matrix: row dim mismatch"
        );
        assert_eq!(
            m.cols(),
            self.total_dim(),
            "partition_matrix: col dim mismatch"
        );
        (0..self.num_blocks())
            .map(|i| {
                (0..self.num_blocks())
                    .map(|j| self.matrix_block(m, i, j))
                    .collect()
            })
            .collect()
    }
}

/// A quadratic form `vᵀ A v` pre-partitioned into blocks, so that individual terms
/// `PD_iᵀ A_{ij} PD_j` can be evaluated (and cached) independently.
#[derive(Debug, Clone)]
pub struct BlockQuadraticForm {
    partition: BlockPartition,
    blocks: Vec<Vec<Matrix>>,
}

impl BlockQuadraticForm {
    /// Partitions the (typically `Σ⁻¹`) matrix `a` according to `partition`.
    pub fn new(partition: BlockPartition, a: &Matrix) -> Self {
        let blocks = partition.partition_matrix(a);
        Self { partition, blocks }
    }

    /// The underlying partition.
    pub fn partition(&self) -> &BlockPartition {
        &self.partition
    }

    /// Borrows the `(i, j)` block of the partitioned matrix.
    pub fn block(&self, i: usize, j: usize) -> &Matrix {
        &self.blocks[i][j]
    }

    /// Evaluates the single term `pd_iᵀ A_{ij} pd_j` (one tile of the
    /// partitioned form).
    pub fn term(&self, i: usize, j: usize, pd_i: &[f64], pd_j: &[f64]) -> f64 {
        gemm::quadratic_form(pd_i, &self.blocks[i][j], pd_j)
    }

    /// Pre-multiplies block `(i, j)` with `pd_j`: returns `A_{ij} · pd_j`.
    ///
    /// The factorized E-step caches, per distinct `R` tuple, the vector
    /// `A_{S,R} · PD_R` so that each matching `S` tuple only needs a `d_S`-length
    /// dot product for the cross terms.
    pub fn block_times(&self, i: usize, j: usize, pd_j: &[f64]) -> Vec<f64> {
        gemm::matvec(&self.blocks[i][j], pd_j)
    }

    /// Evaluates the full quadratic form `Σ_{ij} pd_iᵀ A_{ij} pd_j`
    /// (Equation 19) on an unpartitioned dense vector, splitting it
    /// internally.  Useful in tests comparing against
    /// [`gemm::quadratic_form`].
    pub fn eval_dense(&self, x: &[f64]) -> f64 {
        let parts = self.partition.split(x);
        let mut acc = 0.0;
        for (i, pd_i) in parts.iter().enumerate() {
            for (j, pd_j) in parts.iter().enumerate() {
                acc += self.term(i, j, pd_i, pd_j);
            }
        }
        acc
    }
}

/// Accumulates a `d×d` matrix from weighted outer products of partition segments.
///
/// `BlockScatter` is how the factorized M-step assembles
/// `Σ_n γ_n (x_n−µ)(x_n−µ)ᵀ` without ever forming the centered denormalized
/// vectors: each contribution is added block-by-block with
/// [`add_outer`](Self::add_outer), and the per-`R`-tuple blocks are added once per
/// distinct `R` tuple with an aggregated weight.
#[derive(Debug, Clone)]
pub struct BlockScatter {
    partition: BlockPartition,
    acc: Matrix,
}

impl BlockScatter {
    /// Creates a zeroed accumulator for the given partition.
    pub fn new(partition: BlockPartition) -> Self {
        let d = partition.total_dim();
        Self {
            partition,
            acc: Matrix::zeros(d, d),
        }
    }

    /// The underlying partition.
    pub fn partition(&self) -> &BlockPartition {
        &self.partition
    }

    /// Adds `alpha · u vᵀ` into block `(i, j)`.
    ///
    /// `u` must have the length of block `i` and `v` the length of block `j`.
    pub fn add_outer(&mut self, i: usize, j: usize, alpha: f64, u: &[f64], v: &[f64]) {
        assert_eq!(u.len(), self.partition.size(i), "add_outer: bad u length");
        assert_eq!(v.len(), self.partition.size(j), "add_outer: bad v length");
        let r0 = self.partition.offset(i);
        let c0 = self.partition.offset(j);
        // Branch-free tile update: one scaled AXPY per tile row.  The centered
        // vectors this receives are dense, so per-element zero tests cost more
        // than they save; one-hot blocks go through `add_outer_rep`, which
        // scatters only the active rows/columns.
        for (bi, &ui) in u.iter().enumerate() {
            let row = &mut self.acc.row_mut(r0 + bi)[c0..c0 + v.len()];
            let s = alpha * ui;
            for (dst, &vj) in row.iter_mut().zip(v.iter()) {
                *dst += s * vj;
            }
        }
    }

    /// [`add_outer`](Self::add_outer) dispatching on the block representation.
    ///
    /// One-hot sides turn the rank-1 update into a row scatter
    /// ([`sparse::ger_onehot`]-style), a column scatter, or — when both sides
    /// are one-hot — `nnz_u × nnz_v` scalar adds ([`sparse::scatter_onehot_pair`]).
    /// CSR sides do the same with the weighted values multiplied through
    /// ([`csr::ger_csr`]-style), using the dense GER's scaling order
    /// (`alpha·u_i` first, then times `v_j`).  Sparse inputs reproduce the
    /// dense update bit-for-bit.
    pub fn add_outer_rep(
        &mut self,
        i: usize,
        j: usize,
        alpha: f64,
        u: BlockVec<'_>,
        v: BlockVec<'_>,
    ) {
        let r0 = self.partition.offset(i);
        let c0 = self.partition.offset(j);
        let (di, dj) = (self.partition.size(i), self.partition.size(j));
        match (u, v) {
            (BlockVec::Dense(u), BlockVec::Dense(v)) => self.add_outer(i, j, alpha, u, v),
            (BlockVec::OneHot(idx), BlockVec::Dense(v)) => {
                assert_eq!(v.len(), dj, "add_outer_rep: bad v length");
                sparse::check_indices(idx, di, "add_outer_rep u");
                sparse::record_onehot_call();
                for &bi in idx {
                    let row = &mut self.acc.row_mut(r0 + bi as usize)[c0..c0 + dj];
                    crate::vector::axpy(alpha, v, row);
                }
            }
            (BlockVec::Csr { idx, vals }, BlockVec::Dense(v)) => {
                assert_eq!(v.len(), dj, "add_outer_rep: bad v length");
                sparse::check_indices(idx, di, "add_outer_rep u");
                csr::record_csr_call();
                for (&bi, &ui) in idx.iter().zip(vals.iter()) {
                    let row = &mut self.acc.row_mut(r0 + bi as usize)[c0..c0 + dj];
                    crate::vector::axpy(alpha * ui, v, row);
                }
            }
            (BlockVec::Dense(u), BlockVec::OneHot(idx)) => {
                assert_eq!(u.len(), di, "add_outer_rep: bad u length");
                sparse::check_indices(idx, dj, "add_outer_rep v");
                sparse::record_onehot_call();
                for (bi, &ui) in u.iter().enumerate() {
                    let row = self.acc.row_mut(r0 + bi);
                    let s = alpha * ui;
                    for &bj in idx {
                        row[c0 + bj as usize] += s;
                    }
                }
            }
            (BlockVec::Dense(u), BlockVec::Csr { idx, vals }) => {
                assert_eq!(u.len(), di, "add_outer_rep: bad u length");
                sparse::check_indices(idx, dj, "add_outer_rep v");
                csr::record_csr_call();
                for (bi, &ui) in u.iter().enumerate() {
                    let row = self.acc.row_mut(r0 + bi);
                    let s = alpha * ui;
                    for (&bj, &vj) in idx.iter().zip(vals.iter()) {
                        row[c0 + bj as usize] += s * vj;
                    }
                }
            }
            (BlockVec::OneHot(ridx), BlockVec::OneHot(cidx)) => {
                sparse::check_indices(ridx, di, "add_outer_rep u");
                sparse::check_indices(cidx, dj, "add_outer_rep v");
                sparse::record_onehot_call();
                for &bi in ridx {
                    let row = self.acc.row_mut(r0 + bi as usize);
                    for &bj in cidx {
                        row[c0 + bj as usize] += alpha;
                    }
                }
            }
            (u, v) => {
                // Remaining sparse×sparse mixes (CSR on either or both sides):
                // one generic weighted pair scatter, treating one-hot values
                // as 1.0 (`alpha·1.0` and `s·1.0` are bitwise no-ops, so the
                // specialized arms above remain exact shortcuts of this loop).
                let (ridx, rvals) = match u {
                    BlockVec::OneHot(idx) => (idx, None),
                    BlockVec::Csr { idx, vals } => (idx, Some(vals)),
                    BlockVec::Dense(_) => unreachable!("dense pairs handled above"),
                };
                let (cidx, cvals) = match v {
                    BlockVec::OneHot(idx) => (idx, None),
                    BlockVec::Csr { idx, vals } => (idx, Some(vals)),
                    BlockVec::Dense(_) => unreachable!("dense pairs handled above"),
                };
                sparse::check_indices(ridx, di, "add_outer_rep u");
                sparse::check_indices(cidx, dj, "add_outer_rep v");
                csr::record_csr_call();
                for (t, &bi) in ridx.iter().enumerate() {
                    let row = self.acc.row_mut(r0 + bi as usize);
                    let s = alpha * rvals.map_or(1.0, |v| v[t]);
                    for (uu, &bj) in cidx.iter().enumerate() {
                        row[c0 + bj as usize] += s * cvals.map_or(1.0, |v| v[uu]);
                    }
                }
            }
        }
    }

    /// Current accumulated matrix (borrow).
    pub fn matrix(&self) -> &Matrix {
        &self.acc
    }

    /// Consumes the accumulator returning the assembled matrix.
    pub fn into_matrix(self) -> Matrix {
        self.acc
    }

    /// Resets the accumulator to zero, keeping the allocation.
    pub fn reset(&mut self) {
        self.acc.fill_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn partition_3way() -> BlockPartition {
        BlockPartition::new(&[2, 3, 1])
    }

    #[test]
    fn partition_geometry() {
        let p = partition_3way();
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(p.total_dim(), 6);
        assert_eq!(p.size(1), 3);
        assert_eq!(p.offset(2), 5);
        assert_eq!(p.range(1), 2..5);
        assert_eq!(p.sizes(), &[2, 3, 1]);
        let bin = BlockPartition::binary(5, 15);
        assert_eq!(bin.total_dim(), 20);
        assert_eq!(bin.num_blocks(), 2);
    }

    #[test]
    fn split_vector() {
        let p = partition_3way();
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let parts = p.split(&x);
        assert_eq!(parts[0], &[1.0, 2.0]);
        assert_eq!(parts[1], &[3.0, 4.0, 5.0]);
        assert_eq!(parts[2], &[6.0]);
    }

    #[test]
    #[should_panic(expected = "vector length")]
    fn split_wrong_length_panics() {
        partition_3way().split(&[1.0, 2.0]);
    }

    #[test]
    fn matrix_block_extraction() {
        let p = BlockPartition::binary(1, 2);
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let blocks = p.partition_matrix(&m);
        assert_eq!(blocks[0][0].shape(), (1, 1));
        assert_eq!(blocks[0][1].row(0), &[2.0, 3.0]);
        assert_eq!(blocks[1][0].col(0), vec![4.0, 7.0]);
        assert_eq!(blocks[1][1].row(1), &[8.0, 9.0]);
    }

    #[test]
    fn block_quadratic_form_matches_dense() {
        // Symmetric positive-ish matrix; the block decomposition must be exact for
        // any square matrix, symmetry is not required.
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5, 0.2],
            vec![1.0, 3.0, 0.1, 0.4],
            vec![0.5, 0.1, 2.0, 0.3],
            vec![0.2, 0.4, 0.3, 5.0],
        ]);
        let x = [0.7, -1.1, 2.3, 0.9];
        let dense = gemm::quadratic_form(&x, &m, &x);

        for sizes in [vec![2, 2], vec![1, 3], vec![1, 1, 2], vec![4]] {
            let p = BlockPartition::new(&sizes);
            let q = BlockQuadraticForm::new(p, &m);
            let blocked = q.eval_dense(&x);
            assert!(
                approx_eq(dense, blocked, 1e-12),
                "partition {:?}: {} vs {}",
                sizes,
                dense,
                blocked
            );
        }
    }

    #[test]
    fn block_times_caches_cross_term() {
        let m = Matrix::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 0.5],
            vec![0.0, 0.5, 4.0],
        ]);
        let p = BlockPartition::binary(1, 2);
        let q = BlockQuadraticForm::new(p, &m);
        let pd_s = [2.0];
        let pd_r = [1.0, -1.0];
        // cached vector A_{S,R} · pd_r
        let w = q.block_times(0, 1, &pd_r);
        let cross_via_cache: f64 = pd_s.iter().zip(w.iter()).map(|(a, b)| a * b).sum();
        let cross_direct = q.term(0, 1, &pd_s, &pd_r);
        assert!(approx_eq(cross_via_cache, cross_direct, 1e-14));
    }

    #[test]
    fn block_scatter_matches_dense_outer() {
        let p = BlockPartition::binary(2, 2);
        let x = [1.0, 2.0, 3.0, 4.0];
        let gamma = 0.7;

        // dense accumulation
        let mut dense = Matrix::zeros(4, 4);
        gemm::ger(gamma, &x, &x, &mut dense);

        // factorized accumulation block by block
        let parts = p.split(&x);
        let mut fact = BlockScatter::new(p.clone());
        for i in 0..2 {
            for j in 0..2 {
                fact.add_outer(i, j, gamma, parts[i], parts[j]);
            }
        }
        assert!(dense.max_abs_diff(fact.matrix()) < 1e-14);
    }

    #[test]
    fn add_outer_rep_matches_dense_add_outer() {
        let p = BlockPartition::binary(2, 3);
        let idx = [0u32, 2];
        let onehot = [1.0, 0.0, 1.0];
        let u = [0.7, -1.2];
        for (i, j, urep, vrep, udense, vdense) in [
            (
                0usize,
                1usize,
                BlockVec::Dense(&u[..]),
                BlockVec::OneHot(&idx[..]),
                &u[..],
                &onehot[..],
            ),
            (
                1,
                0,
                BlockVec::OneHot(&idx[..]),
                BlockVec::Dense(&u[..]),
                &onehot[..],
                &u[..],
            ),
            (
                1,
                1,
                BlockVec::OneHot(&idx[..]),
                BlockVec::OneHot(&idx[..]),
                &onehot[..],
                &onehot[..],
            ),
        ] {
            let mut dense = BlockScatter::new(p.clone());
            dense.add_outer(i, j, 0.9, udense, vdense);
            let mut rep = BlockScatter::new(p.clone());
            rep.add_outer_rep(i, j, 0.9, urep, vrep);
            assert_eq!(dense.matrix(), rep.matrix(), "block ({i},{j})");
        }
    }

    #[test]
    fn block_scatter_reset() {
        let p = BlockPartition::binary(1, 1);
        let mut sc = BlockScatter::new(p);
        sc.add_outer(0, 1, 1.0, &[1.0], &[1.0]);
        assert!(sc.matrix().frobenius_norm() > 0.0);
        sc.reset();
        assert_eq!(sc.matrix().frobenius_norm(), 0.0);
    }
}
