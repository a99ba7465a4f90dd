//! Typed feature blocks: the representation categorical data keeps end to end.
//!
//! [`FeatureBlock`] makes the representation explicit: a relation's feature
//! block for a batch of rows is a dense row-major [`Matrix`], a set of
//! **active column indices** per row plus the [`OneHotSpec`] that defines the
//! block layout, or weighted CSR rows.  The generators ([`crate::emulated`],
//! [`crate::multiway`]) build blocks directly in these forms and append each
//! row as it is ([`FeatureBlock::row`]) to a relation whose schema stores the
//! same form ([`FeatureBlock`]'s layout as an `fml_store::FeatureGroup`): a
//! categorical row is stored as its codes, a weighted-sparse row as its
//! nonzero pairs, from the generator through the page to the kernels.

use crate::onehot::OneHotSpec;
use crate::rng::normal;
use fml_linalg::{BlockVec, CsrBlock, Matrix};
use rand::Rng;

/// A batch of feature rows for one relation, in its natural representation.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureBlock {
    /// Dense numeric features: an `n × width` row-major matrix.
    Dense(Matrix),
    /// One-hot categorical features: each row activates exactly one column per
    /// categorical attribute.  `indices` holds the ascending **absolute**
    /// column indices of every row, `spec.num_columns()` per row
    /// (`indices.len() == rows · spec.num_columns()`).
    OneHot {
        /// Active column indices, `spec.num_columns()` consecutive entries per row.
        indices: Vec<u32>,
        /// The categorical layout (per-attribute cardinalities and offsets).
        spec: OneHotSpec,
    },
    /// Weighted-sparse numeric features (TF-IDF-ish encodings, scaled
    /// indicators): arbitrary nonzero values with variable row support, kept
    /// in compressed-sparse-row form, and stored as such.
    Csr(CsrBlock),
}

impl FeatureBlock {
    /// Number of rows in the block.
    pub fn rows(&self) -> usize {
        match self {
            FeatureBlock::Dense(m) => m.rows(),
            FeatureBlock::OneHot { indices, spec } => {
                let nnz = spec.num_columns();
                debug_assert!(indices.len().is_multiple_of(nnz));
                indices.len() / nnz
            }
            FeatureBlock::Csr(b) => b.rows(),
        }
    }

    /// Encoded width of each row.
    pub fn width(&self) -> usize {
        match self {
            FeatureBlock::Dense(m) => m.cols(),
            FeatureBlock::OneHot { spec, .. } => spec.encoded_width(),
            FeatureBlock::Csr(b) => b.cols(),
        }
    }

    /// Nonzeros per row: the dense width for `Dense`, the number of
    /// categorical attributes for `OneHot`, the *average* stored nonzeros for
    /// `Csr` (row supports may differ).
    pub fn nnz_per_row(&self) -> usize {
        match self {
            FeatureBlock::Dense(m) => m.cols(),
            FeatureBlock::OneHot { spec, .. } => spec.num_columns(),
            FeatureBlock::Csr(b) => {
                if b.rows() == 0 {
                    0
                } else {
                    b.nnz() / b.rows()
                }
            }
        }
    }

    /// Fraction of stored values that are nonzero (`1.0` for dense blocks).
    pub fn occupancy(&self) -> f64 {
        match self {
            FeatureBlock::Csr(b) => b.occupancy(),
            _ => {
                let w = self.width();
                if w == 0 {
                    return 1.0;
                }
                self.nnz_per_row() as f64 / w as f64
            }
        }
    }

    /// Whether the block is stored in one-hot index form.
    pub fn is_onehot(&self) -> bool {
        matches!(self, FeatureBlock::OneHot { .. })
    }

    /// Whether the block is stored in weighted CSR form.
    pub fn is_csr(&self) -> bool {
        matches!(self, FeatureBlock::Csr(_))
    }

    /// The active indices of row `r` (one-hot and CSR blocks).
    pub fn row_indices(&self, r: usize) -> Option<&[u32]> {
        match self {
            FeatureBlock::Dense(_) => None,
            FeatureBlock::OneHot { indices, spec } => {
                let nnz = spec.num_columns();
                Some(&indices[r * nnz..(r + 1) * nnz])
            }
            FeatureBlock::Csr(b) => Some(b.row(r).0),
        }
    }

    /// Row `r` in the block's own form — what the generators append.
    pub fn row(&self, r: usize) -> BlockVec<'_> {
        match self {
            FeatureBlock::Dense(m) => BlockVec::Dense(m.row(r)),
            FeatureBlock::OneHot { indices, spec } => {
                let nnz = spec.num_columns();
                BlockVec::OneHot(&indices[r * nnz..(r + 1) * nnz])
            }
            FeatureBlock::Csr(b) => {
                let (idx, vals) = b.row(r);
                BlockVec::Csr { idx, vals }
            }
        }
    }

    /// Row `r` expanded to a dense vector (tests and oracles).
    pub fn dense_row(&self, r: usize) -> Vec<f64> {
        match self {
            FeatureBlock::Dense(m) => m.row(r).to_vec(),
            FeatureBlock::OneHot { spec, .. } => {
                let mut out = vec![0.0; spec.encoded_width()];
                for &i in self.row_indices(r).expect("one-hot block") {
                    out[i as usize] = 1.0;
                }
                out
            }
            FeatureBlock::Csr(b) => {
                let mut out = vec![0.0; b.cols()];
                let (idx, vals) = b.row(r);
                for (&i, &v) in idx.iter().zip(vals.iter()) {
                    out[i as usize] = v;
                }
                out
            }
        }
    }

    /// Arithmetic mean of row `r` (used by the target functions; exact without
    /// densifying — every active one-hot value is `1.0`, and CSR rows sum only
    /// their stored nonzeros).
    pub fn row_mean(&self, r: usize) -> f64 {
        match self {
            FeatureBlock::Dense(m) => {
                let row = m.row(r);
                if row.is_empty() {
                    0.0
                } else {
                    row.iter().sum::<f64>() / row.len() as f64
                }
            }
            FeatureBlock::OneHot { spec, .. } => {
                let w = spec.encoded_width();
                if w == 0 {
                    0.0
                } else {
                    spec.num_columns() as f64 / w as f64
                }
            }
            FeatureBlock::Csr(b) => {
                if b.cols() == 0 {
                    0.0
                } else {
                    b.row(r).1.iter().sum::<f64>() / b.cols() as f64
                }
            }
        }
    }

    /// Expands the whole block to a dense matrix (tests and oracles).
    pub fn to_matrix(&self) -> Matrix {
        match self {
            FeatureBlock::Dense(m) => m.clone(),
            FeatureBlock::Csr(b) => b.to_matrix(),
            FeatureBlock::OneHot { .. } => {
                let rows: Vec<Vec<f64>> = (0..self.rows()).map(|r| self.dense_row(r)).collect();
                if rows.is_empty() {
                    Matrix::zeros(0, self.width())
                } else {
                    Matrix::from_rows(&rows)
                }
            }
        }
    }

    /// Generates a dense block: row `r` is a normal draw around
    /// `centers[clusters[r]]` with the given noise.
    pub fn generate_dense<R: Rng + ?Sized>(
        rng: &mut R,
        centers: &[Vec<f64>],
        clusters: &[usize],
        noise_std: f64,
    ) -> Self {
        let width = centers.first().map(|c| c.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(clusters.len() * width);
        for &c in clusters {
            for &m in &centers[c] {
                data.push(normal(rng, m, noise_std));
            }
        }
        FeatureBlock::Dense(Matrix::from_vec(clusters.len(), width, data))
    }

    /// Generates a weighted-sparse numeric block directly in CSR form — the
    /// TF-IDF-ish scenario: each row activates about `nnz` of `width` columns
    /// (one per stratified sub-range, biased by the row's cluster, with the
    /// last slot occasionally dropped so row supports vary), and each active
    /// value is a cluster-shifted normal draw (never exactly `0.0`, and not
    /// 0/1-valued, so a row is weighted CSR, never one-hot).
    ///
    /// # Panics
    /// Panics when `nnz` is zero, exceeds `width`, or exceeds a quarter of
    /// `width` (`4·nnz > width`) — the scenario exists to exercise the
    /// weighted sparse path, so shapes too dense to profit from it are
    /// construction errors.
    pub fn generate_sparse_numeric<R: Rng + ?Sized>(
        rng: &mut R,
        width: usize,
        nnz: usize,
        clusters: &[usize],
        noise_std: f64,
    ) -> Self {
        assert!(nnz > 0, "sparse_numeric: nnz must be positive");
        assert!(
            nnz * 4 <= width,
            "sparse_numeric: nnz {nnz} exceeds the ¼-occupancy cutoff for width {width}"
        );
        let card = width / nnz;
        let mut values = Vec::new();
        let mut col_idx = Vec::new();
        let mut row_ptr = Vec::with_capacity(clusters.len() + 1);
        row_ptr.push(0);
        for &cluster in clusters {
            // roughly one row in six drops its last slot: variable support
            let slots = if nnz > 1 && rng.gen_range(0..6usize) == 0 {
                nnz - 1
            } else {
                nnz
            };
            for slot in 0..slots {
                let offset = slot * card;
                let pick = offset + (rng.gen_range(0..card) + cluster) % card;
                let center = 1.5 + cluster as f64;
                let mut v = normal(rng, center, noise_std);
                if v == 0.0 {
                    v = center; // measure-zero draw; keep the entry nonzero
                }
                col_idx.push(pick as u32);
                values.push(v);
            }
            row_ptr.push(values.len());
        }
        FeatureBlock::Csr(CsrBlock::new(values, col_idx, row_ptr, width))
    }

    /// Generates a one-hot block directly in index form: for each row and each
    /// categorical attribute, the category choice is biased by the row's
    /// cluster so the data keeps exploitable structure after encoding — the
    /// same construction the dense emulation used, minus the densification.
    pub fn generate_onehot<R: Rng + ?Sized>(
        rng: &mut R,
        spec: &OneHotSpec,
        clusters: &[usize],
    ) -> Self {
        let nnz = spec.num_columns();
        let mut indices = Vec::with_capacity(clusters.len() * nnz);
        let mut values = vec![0usize; nnz];
        for &cluster in clusters {
            for (col, v) in values.iter_mut().enumerate() {
                let card = spec.cardinality(col);
                *v = (rng.gen_range(0..card) + cluster) % card;
            }
            indices.extend(spec.encode_indices(&values));
        }
        FeatureBlock::OneHot {
            indices,
            spec: spec.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{cluster_centers, seeded};

    #[test]
    fn onehot_block_geometry_and_densification() {
        let spec = OneHotSpec::new(vec![3, 2]);
        let block = FeatureBlock::OneHot {
            indices: vec![1, 4, 2, 3],
            spec,
        };
        assert_eq!(block.rows(), 2);
        assert_eq!(block.width(), 5);
        assert_eq!(block.nnz_per_row(), 2);
        assert!(block.is_onehot());
        assert_eq!(block.occupancy(), 0.4);
        assert_eq!(block.row_indices(0), Some(&[1u32, 4][..]));
        assert_eq!(block.dense_row(0), vec![0.0, 1.0, 0.0, 0.0, 1.0]);
        assert_eq!(block.dense_row(1), vec![0.0, 0.0, 1.0, 1.0, 0.0]);
        assert_eq!(block.row_mean(1), 0.4);
        let m = block.to_matrix();
        assert_eq!(m.shape(), (2, 5));
        assert_eq!(m.row(0), block.dense_row(0).as_slice());
    }

    #[test]
    fn dense_block_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let block = FeatureBlock::Dense(m.clone());
        assert_eq!(block.rows(), 2);
        assert!(!block.is_onehot());
        assert_eq!(block.occupancy(), 1.0);
        assert_eq!(block.row_indices(0), None);
        assert_eq!(block.dense_row(1), vec![3.0, 4.0]);
        assert_eq!(block.row_mean(0), 1.5);
        assert_eq!(block.to_matrix(), m);
    }

    #[test]
    fn generated_onehot_blocks_activate_one_index_per_attribute() {
        let mut rng = seeded(3);
        let spec = OneHotSpec::with_total_width(10, 3);
        let clusters: Vec<usize> = (0..20).map(|i| i % 4).collect();
        let block = FeatureBlock::generate_onehot(&mut rng, &spec, &clusters);
        assert_eq!(block.rows(), 20);
        assert_eq!(block.width(), 10);
        for r in 0..20 {
            let idx = block.row_indices(r).unwrap();
            assert_eq!(idx.len(), 3);
            // ascending and inside the per-attribute sub-ranges
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
            let dense = block.dense_row(r);
            assert_eq!(dense.iter().filter(|&&v| v == 1.0).count(), 3);
            assert!(dense.iter().all(|&v| v == 0.0 || v == 1.0));
        }
    }

    #[test]
    fn csr_block_geometry_and_densification() {
        let block = FeatureBlock::Csr(CsrBlock::new(
            vec![1.5, -0.5, 2.0],
            vec![1, 6, 3],
            vec![0, 2, 2, 3],
            8,
        ));
        assert_eq!(block.rows(), 3);
        assert_eq!(block.width(), 8);
        assert!(block.is_csr());
        assert!(!block.is_onehot());
        assert_eq!(block.nnz_per_row(), 1); // 3 nnz over 3 rows
        assert_eq!(block.occupancy(), 3.0 / 24.0);
        assert_eq!(block.row_indices(0), Some(&[1u32, 6][..]));
        assert_eq!(block.row_indices(1), Some(&[][..]));
        assert_eq!(
            block.dense_row(0),
            vec![0.0, 1.5, 0.0, 0.0, 0.0, 0.0, -0.5, 0.0]
        );
        assert_eq!(block.dense_row(1), vec![0.0; 8]);
        assert_eq!(block.row_mean(2), 2.0 / 8.0);
        let m = block.to_matrix();
        assert_eq!(m.shape(), (3, 8));
        assert_eq!(m.row(0), block.dense_row(0).as_slice());
    }

    #[test]
    fn generated_sparse_numeric_blocks_detect_as_csr() {
        let mut rng = seeded(7);
        let clusters: Vec<usize> = (0..40).map(|i| i % 3).collect();
        let block = FeatureBlock::generate_sparse_numeric(&mut rng, 16, 3, &clusters, 0.3);
        assert_eq!(block.rows(), 40);
        assert_eq!(block.width(), 16);
        assert!(block.occupancy() <= 3.0 / 16.0 + 1e-12);
        let mut saw_short_row = false;
        for r in 0..40 {
            // weighted values ⇒ a CSR row, never a one-hot one
            let BlockVec::Csr { idx, vals } = block.row(r) else {
                panic!("row {r} is {:?}", block.row(r));
            };
            assert!(
                vals.iter().all(|&v| v != 0.0 && v != 1.0),
                "row {r}: {vals:?}"
            );
            assert!(idx.len() <= 3);
            saw_short_row |= idx.len() < 3;
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
            let dense = block.dense_row(r);
            assert!(dense.iter().filter(|&&v| v != 0.0).count() == idx.len());
        }
        assert!(saw_short_row, "row supports must vary");
    }

    #[test]
    #[should_panic(expected = "occupancy cutoff")]
    fn sparse_numeric_generator_rejects_dense_shapes() {
        let mut rng = seeded(1);
        let _ = FeatureBlock::generate_sparse_numeric(&mut rng, 8, 3, &[0], 0.1);
    }

    #[test]
    fn generated_dense_blocks_follow_centers() {
        let mut rng = seeded(5);
        let centers = cluster_centers(&mut rng, 2, 4, 10.0);
        let block = FeatureBlock::generate_dense(&mut rng, &centers, &[0, 1, 0], 0.0);
        assert_eq!(block.rows(), 3);
        assert_eq!(block.dense_row(0), centers[0]);
        assert_eq!(block.dense_row(1), centers[1]);
    }
}
