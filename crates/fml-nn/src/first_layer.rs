//! The first layer as one **embedding table per relation**: the one place
//! the column split of `W¹` and its per-relation products live (Equations
//! 26–32), for `M-NN`, `S-NN`, `F-NN` and the batch scorer.
//!
//! With the feature space partitioned `[d_S | d_{R_1} | … | d_{R_q}]`, the
//! first-layer pre-activation is a sum of per-relation partial products,
//! `a¹ = W¹_S·x_S + b¹ + Σ_i W¹_{R_i}·x_{R_i}` ([`FirstLayer::partial`]), and
//! the first-layer weight gradient is a row of per-relation blocks
//! `[PG_S  PG_{R_1} … PG_{R_q}]`, each an outer product with that relation's
//! features ([`FirstLayerGrad::add`]).  A dimension tuple's partial product
//! is computed once and reused for every matching fact; its gradient block
//! takes one outer product with the tuple's summed `δ¹`.  `M-NN` and `S-NN`
//! are the one-block partition `[d]`.
//!
//! ## Layout
//!
//! Block `b` is stored as the table `W¹_bᵀ` (`d_b × n_h`): row `j` holds the
//! `n_h` weights of input column `j`, contiguously.  A partial product is
//! then "sum the table rows the operand selects", whatever the operand's
//! representation, and the gradient — accumulated in the same layout, and
//! transposed back once per epoch by [`FirstLayerGrad::add_into`] — is a
//! scatter of `δ¹` into those rows:
//!
//! | operand | `partial` | `FirstLayerGrad::add` |
//! |---------|-----------|------------------------|
//! | one-hot | `sparse::matvec_transposed_onehot_into` (one `n_h`-wide add per active index) | `sparse::ger_onehot` |
//! | CSR     | `csr::matvec_transposed_csr_into` (one AXPY per nonzero) | `csr::ger_csr` |
//! | dense   | `gemm::matvec_transposed_into` (one AXPY per column) | `gemm::ger(x, δ¹, table)` |
//!
//! ## Bit contract
//!
//! * **One-hot** partial products are, per lane, `0 + W[j₁] + W[j₂] + …` in
//!   ascending `j` — pure adds.
//! * **CSR and dense** partial products are one sequential AXPY per nonzero /
//!   per column, `0 + x_{j₁}·W[j₁] + x_{j₂}·W[j₂] + …` — the order of the
//!   sequential [`fml_linalg::reference::matvec`], not the 4-lane tree of
//!   the blocked dot product the row-major layout used for dense operands.
//! * So every partial product is `to_bits`-equal to the reference dense
//!   GEMV on the densified row (skipped terms are exact `±0`), and every
//!   **gradient** is `to_bits`-equal to the dense GER `δ¹·xᵀ`: each
//!   entry receives the same single product per example
//!   (`δ_i·x_j == x_j·δ_i` bitwise), in the same order.
//!
//! Every strategy and the scorer take their products from here, so they move
//! together: scores stay bit-identical across `M`/`S`/`F`.

use crate::layer::LayerGradient;
use crate::mlp::Mlp;
use fml_linalg::{vector, BlockVec, Matrix};

/// `W¹` as one embedding table per relation, plus `b¹` — hoisted once per
/// epoch by the trainers (weights are constant within a full-batch epoch) and
/// once per batch by the scorer.
pub struct FirstLayer {
    tables: Vec<Matrix>,
    bias: Vec<f64>,
}

impl FirstLayer {
    /// Splits the first layer of `model` along the partition `sizes`
    /// (`[d_S, d_{R_1}, …]`).
    pub fn split(model: &Mlp, sizes: &[usize]) -> Self {
        let first = &model.layers()[0];
        assert_eq!(
            sizes.iter().sum::<usize>(),
            first.in_dim(),
            "partition does not cover the first layer's inputs"
        );
        let mut start = 0;
        let tables = sizes
            .iter()
            .map(|&width| {
                let block = first
                    .weights
                    .sub_block(0, first.out_dim(), start, start + width);
                start += width;
                block.transpose()
            })
            .collect();
        Self {
            tables,
            bias: first.bias.clone(),
        }
    }

    /// Hidden width `n_h` (the length of every partial product).
    pub fn width(&self) -> usize {
        self.bias.len()
    }

    /// A zeroed gradient accumulator with this layer's table shapes.
    pub fn zero_grad(&self) -> FirstLayerGrad {
        FirstLayerGrad {
            tables: self
                .tables
                .iter()
                .map(|t| Matrix::zeros(t.rows(), t.cols()))
                .collect(),
        }
    }

    /// Writes the partial product `W¹_b·x` of partition block `block` (0 =
    /// fact side) into `out` (`n_h` values, overwritten) — the sum of the
    /// table rows `x` selects, a gather when `x` is stored sparse.
    pub fn partial(&self, block: usize, x: BlockVec<'_>, out: &mut [f64]) {
        x.matvec_transposed_into(&self.tables[block], out);
    }

    /// Assembles `a¹ = (W¹_S·x_S + b¹) + Σ_i t_i` into `a1` from the fact
    /// block and the (cached) partial products `t_i` of its dimension tuples,
    /// in partition order — the one association every strategy and the
    /// scorer share.
    pub fn pre_activation<'a>(
        &self,
        fact: BlockVec<'_>,
        dims: impl IntoIterator<Item = &'a [f64]>,
        a1: &mut [f64],
    ) {
        self.partial(0, fact, a1);
        vector::axpy(1.0, &self.bias, a1);
        for partial in dims {
            vector::axpy(1.0, partial, a1);
        }
    }
}

/// The first layer's weight gradient, accumulated per relation in the
/// embedding-table layout (`d_b × n_h`).
pub struct FirstLayerGrad {
    tables: Vec<Matrix>,
}

impl FirstLayerGrad {
    /// `PG_b += δ·xᵀ` — `δ` scatter-added into the table rows `x` selects.
    pub fn add(&mut self, block: usize, delta: &[f64], x: BlockVec<'_>) {
        x.ger(1.0, delta, &mut self.tables[block]);
    }

    /// Adds the tables, transposed back, into the first layer's full-width
    /// (`n_h × d`) weight gradient — once per epoch.
    pub fn add_into(&self, grad: &mut LayerGradient) {
        let mut start = 0;
        for table in &self.tables {
            for j in 0..table.rows() {
                for (i, &g) in table.row(j).iter().enumerate() {
                    grad.d_weights[(i, start + j)] += g;
                }
            }
            start += table.rows();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use fml_linalg::{gemm, reference};

    const SIZES: [usize; 3] = [3, 4, 2];

    /// A fact block (dense) and two dimension blocks (one-hot, CSR), each
    /// expanded and in the form its relation would store it.
    fn blocks() -> Vec<(Vec<f64>, BlockVec<'static>)> {
        vec![
            (vec![0.4, -1.5, 2.0], BlockVec::Dense(&[0.4, -1.5, 2.0])),
            (vec![0.0, 1.0, 0.0, 1.0], BlockVec::OneHot(&[1, 3])),
            (
                vec![0.0, -2.5],
                BlockVec::Csr {
                    idx: &[1],
                    vals: &[-2.5],
                },
            ),
        ]
    }

    fn joined(blocks: &[(Vec<f64>, BlockVec<'static>)]) -> Vec<f64> {
        blocks.iter().flat_map(|(x, _)| x.clone()).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn partial_products_and_bias_sum_to_the_dense_pre_activation() {
        let model = Mlp::new(9, &[5], Activation::Tanh, 3);
        let blocks = blocks();
        let joined = joined(&blocks);
        let first = FirstLayer::split(&model, &SIZES);
        assert_eq!(first.width(), 5);
        // every block once through its sparse form, once densely
        for sparse in [true, false] {
            let mut terms = vec![vec![f64::NAN; 5]; 2];
            for (term, (b, (x, rep))) in terms.iter_mut().zip(blocks.iter().enumerate().skip(1)) {
                first.partial(b, if sparse { *rep } else { BlockVec::Dense(x) }, term);
            }
            let mut a1 = vec![f64::NAN; 5];
            let terms = terms.iter().map(Vec::as_slice);
            first.pre_activation(blocks[0].1, terms, &mut a1);
            let want = model.layers()[0].pre_activation(&joined);
            assert!(vector::max_abs_diff(&a1, &want) < 1e-12, "{sparse}");
        }
    }

    #[test]
    fn table_partials_keep_the_bits_of_the_naive_dense_gemv() {
        let model = Mlp::new(9, &[5], Activation::Tanh, 3);
        let weights = &model.layers()[0].weights;
        let blocks = blocks();
        let first = FirstLayer::split(&model, &SIZES);
        let mut start = 0;
        for (b, (x, rep)) in blocks.iter().enumerate() {
            let block = weights.sub_block(0, 5, start, start + x.len());
            start += x.len();
            let want = reference::matvec(&block, x);
            let mut got = vec![f64::NAN; 5];
            first.partial(b, *rep, &mut got);
            assert_eq!(bits(&got), bits(&want), "block {b}");
        }
    }

    #[test]
    fn block_gradients_assemble_into_the_full_outer_product() {
        let model = Mlp::new(9, &[5], Activation::Tanh, 3);
        let blocks = blocks();
        let joined = joined(&blocks);
        let delta = [0.3, -0.7, 1.1, 0.0, -0.2];
        let mut want = Matrix::zeros(5, 9);
        gemm::ger(1.0, &delta, &joined, &mut want);
        let first = FirstLayer::split(&model, &SIZES);
        let mut grad = first.zero_grad();
        for (b, (_, rep)) in blocks.iter().enumerate() {
            grad.add(b, &delta, *rep);
        }
        let mut grads = model.zero_grads();
        grad.add_into(&mut grads[0]);
        let got = &grads[0].d_weights;
        assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
    }
}
