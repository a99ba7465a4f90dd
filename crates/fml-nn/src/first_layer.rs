//! The factorized first layer: the one place the column split of `W¹` and
//! its per-relation products live (Equations 26–32).
//!
//! With the feature space partitioned `[d_S | d_{R_1} | … | d_{R_q}]`, the
//! first-layer pre-activation is a sum of per-relation partial products,
//! `a¹ = W¹_S·x_S + b¹ + Σ_i W¹_{R_i}·x_{R_i}` ([`FirstLayer::partial`]), and
//! the first-layer weight gradient is a row of per-relation blocks
//! `[PG_S  PG_{R_1} … PG_{R_q}]`, each an outer product with that relation's
//! features ([`FirstLayerGrad::add`]).  A dimension tuple's partial product
//! is computed once and reused for every matching fact; its gradient block
//! takes one outer product with the tuple's summed `δ¹`.  Sparse blocks
//! (one-hot / CSR) gather or scatter-add only the active columns.
//!
//! Callers: both `F-NN` trainers and the batch scorer (whose materialized and
//! streaming strategies rebuild the same partial products per joined row).

use crate::layer::LayerGradient;
use crate::mlp::Mlp;
use fml_linalg::{gemm, vector, KernelPolicy, Matrix, SparseRep};

/// `W¹` as one column block per relation, plus `b¹` — hoisted once per epoch
/// by the trainers (weights are constant within a full-batch epoch) and once
/// per batch by the scorer.
pub struct FirstLayer {
    blocks: Vec<Matrix>,
    bias: Vec<f64>,
    kp: KernelPolicy,
}

impl FirstLayer {
    /// Splits the first layer of `model` along the partition `sizes`
    /// (`[d_S, d_{R_1}, …]`); products run under the sequential policy `kp`.
    pub fn split(model: &Mlp, sizes: &[usize], kp: KernelPolicy) -> Self {
        let first = &model.layers()[0];
        assert_eq!(
            sizes.iter().sum::<usize>(),
            first.in_dim(),
            "partition does not cover the first layer's inputs"
        );
        let mut start = 0;
        let blocks = sizes
            .iter()
            .map(|&width| {
                let block = first
                    .weights
                    .sub_block(0, first.out_dim(), start, start + width);
                start += width;
                block
            })
            .collect();
        Self {
            blocks,
            bias: first.bias.clone(),
            kp,
        }
    }

    /// Hidden width `n_h` (the length of every partial product).
    pub fn width(&self) -> usize {
        self.bias.len()
    }

    /// The bias `b¹`.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// A zeroed gradient accumulator with this layer's block shapes.
    pub fn zero_grad(&self) -> FirstLayerGrad {
        FirstLayerGrad {
            blocks: self
                .blocks
                .iter()
                .map(|b| Matrix::zeros(b.rows(), b.cols()))
                .collect(),
            kp: self.kp,
        }
    }

    /// The partial product `W¹_b·x` of partition block `block` (0 = fact
    /// side) — a column gather when `rep` says `x` is sparse.
    pub fn partial(&self, block: usize, x: &[f64], rep: Option<&SparseRep>) -> Vec<f64> {
        match rep {
            Some(rep) => rep.matvec(self.kp, &self.blocks[block]),
            None => gemm::matvec_with(self.kp, &self.blocks[block], x),
        }
    }
}

/// The first layer's weight gradient, accumulated block-wise.
pub struct FirstLayerGrad {
    blocks: Vec<Matrix>,
    kp: KernelPolicy,
}

impl FirstLayerGrad {
    /// `PG_b += δ·xᵀ` — a column scatter-add when `rep` says `x` is sparse.
    pub fn add(&mut self, block: usize, delta: &[f64], x: &[f64], rep: Option<&SparseRep>) {
        match rep {
            Some(rep) => rep.ger_cols(self.kp, 1.0, delta, &mut self.blocks[block]),
            None => gemm::ger_with(self.kp, 1.0, delta, x, &mut self.blocks[block]),
        }
    }

    /// Block-wise addition of another accumulator (parallel chunk partials,
    /// merged in chunk order).
    pub fn merge_from(&mut self, other: &FirstLayerGrad) {
        for (dst, src) in self.blocks.iter_mut().zip(&other.blocks) {
            dst.add_assign(src);
        }
    }

    /// Adds the blocks into the first layer's full-width weight gradient.
    pub fn add_into(&self, grad: &mut LayerGradient) {
        for i in 0..grad.d_weights.rows() {
            let row = grad.d_weights.row_mut(i);
            let mut start = 0;
            for block in &self.blocks {
                let end = start + block.cols();
                vector::axpy(1.0, block.row(i), &mut row[start..end]);
                start = end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;

    const SIZES: [usize; 3] = [3, 4, 2];

    /// A fact block (dense) and two dimension blocks (one-hot, CSR) with the
    /// representations detection would hand the engine.
    fn blocks() -> Vec<(Vec<f64>, Option<SparseRep>)> {
        vec![
            (vec![0.4, -1.5, 2.0], None),
            (
                vec![0.0, 1.0, 0.0, 1.0],
                Some(SparseRep::OneHot(vec![1, 3])),
            ),
            (
                vec![0.0, -2.5],
                Some(SparseRep::Csr {
                    idx: vec![1],
                    vals: vec![-2.5],
                }),
            ),
        ]
    }

    fn joined(blocks: &[(Vec<f64>, Option<SparseRep>)]) -> Vec<f64> {
        blocks.iter().flat_map(|(x, _)| x.clone()).collect()
    }

    #[test]
    fn partial_products_and_bias_sum_to_the_dense_pre_activation() {
        let model = Mlp::new(9, &[5], Activation::Tanh, 3);
        let blocks = blocks();
        let joined = joined(&blocks);
        for kp in [KernelPolicy::Naive, KernelPolicy::Blocked] {
            let first = FirstLayer::split(&model, &SIZES, kp);
            assert_eq!(first.width(), 5);
            // every block once through its sparse form, once densely
            for sparse in [true, false] {
                let mut a1 = first.bias().to_vec();
                for (b, (x, rep)) in blocks.iter().enumerate() {
                    let rep = rep.as_ref().filter(|_| sparse);
                    vector::axpy(1.0, &first.partial(b, x, rep), &mut a1);
                }
                let want = model.layers()[0].pre_activation_with(kp, &joined);
                assert!(vector::max_abs_diff(&a1, &want) < 1e-12, "{kp:?}/{sparse}");
            }
        }
    }

    #[test]
    fn block_gradients_assemble_into_the_full_outer_product() {
        let model = Mlp::new(9, &[5], Activation::Tanh, 3);
        let kp = KernelPolicy::Naive;
        let first = FirstLayer::split(&model, &SIZES, kp);
        let blocks = blocks();
        let joined = joined(&blocks);
        let delta = [0.3, -0.7, 1.1, 0.0, -0.2];
        let mut grad = first.zero_grad();
        for (b, (x, rep)) in blocks.iter().enumerate() {
            grad.add(b, &delta, x, rep.as_ref());
        }
        let mut grads = model.zero_grads();
        grad.add_into(&mut grads[0]);
        let mut want = Matrix::zeros(5, 9);
        gemm::ger_with(kp, 1.0, &delta, &joined, &mut want);
        assert!(grads[0].d_weights.max_abs_diff(&want) < 1e-12);

        // merge_from is block-wise addition: merging the accumulator into a
        // copy of itself doubles every block.
        let mut twice = first.zero_grad();
        twice.merge_from(&grad);
        twice.merge_from(&grad);
        let mut doubled = model.zero_grads();
        twice.add_into(&mut doubled[0]);
        want.scale(2.0);
        assert!(doubled[0].d_weights.max_abs_diff(&want) < 1e-12);
    }
}
