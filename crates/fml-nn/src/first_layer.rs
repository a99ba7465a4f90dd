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
//! | one-hot | `sparse::matvec_transposed_onehot_into_with` (one `n_h`-wide add per active index) | `sparse::ger_onehot_with` |
//! | CSR     | `csr::matvec_transposed_csr_into_with` (one AXPY per nonzero) | `csr::ger_csr_with` |
//! | dense   | `gemm::matvec_transposed_into_with` (one AXPY per column) | `gemm::ger_with(x, δ¹, table)` |
//!
//! ## Bit contract
//!
//! At the bit-exact SIMD levels (`FML_SIMD=off|auto`) and under every
//! sequential kernel policy:
//!
//! * **One-hot** partial products are, per lane, `0 + W[j₁] + W[j₂] + …` in
//!   ascending `j` — pure adds, also under `FML_SIMD=fma`.
//! * **CSR and dense** partial products are one sequential AXPY per nonzero /
//!   per column, `0 + x_{j₁}·W[j₁] + x_{j₂}·W[j₂] + …` — the order of the
//!   `KernelPolicy::Naive` GEMV, not the 4-lane tree of the blocked dot
//!   product the row-major layout used for dense operands.
//! * So every partial product is `to_bits`-equal to the `Naive` dense GEMV
//!   on the densified row (skipped terms are exact `±0`), and every
//!   **gradient** is `to_bits`-equal to the `Naive` dense GER `δ¹·xᵀ`: each
//!   entry receives the same single product per example
//!   (`δ_i·x_j == x_j·δ_i` bitwise), in the same order.
//!
//! Every strategy and the scorer take their products from here, so they move
//! together: scores stay bit-identical across `M`/`S`/`F`.

use crate::layer::LayerGradient;
use crate::mlp::Mlp;
use fml_linalg::{gemm, vector, KernelPolicy, Matrix, SparseRep};

/// `W¹` as one embedding table per relation, plus `b¹` — hoisted once per
/// epoch by the trainers (weights are constant within a full-batch epoch) and
/// once per batch by the scorer.
pub struct FirstLayer {
    tables: Vec<Matrix>,
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
            kp,
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
            kp: self.kp,
        }
    }

    /// Writes the partial product `W¹_b·x` of partition block `block` (0 =
    /// fact side) into `out` (`n_h` values, overwritten) — the sum of the
    /// table rows `x` selects, a gather when `rep` says `x` is sparse.
    pub fn partial(&self, block: usize, x: &[f64], rep: Option<&SparseRep>, out: &mut [f64]) {
        let table = &self.tables[block];
        match rep {
            Some(rep) => rep.matvec_transposed_into(self.kp, table, out),
            None => gemm::matvec_transposed_into_with(self.kp, table, x, out),
        }
    }

    /// Assembles `a¹ = (W¹_S·x_S + b¹) + Σ_i t_i` into `a1` from the fact
    /// block and the (cached) partial products `t_i` of its dimension tuples,
    /// in partition order — the one association every strategy and the
    /// scorer share.
    pub fn pre_activation<'a>(
        &self,
        fact: &[f64],
        fact_rep: Option<&SparseRep>,
        dims: impl IntoIterator<Item = &'a [f64]>,
        a1: &mut [f64],
    ) {
        self.partial(0, fact, fact_rep, a1);
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
    kp: KernelPolicy,
}

impl FirstLayerGrad {
    /// `PG_b += δ·xᵀ` — `δ` scatter-added into the table rows `x` selects.
    pub fn add(&mut self, block: usize, delta: &[f64], x: &[f64], rep: Option<&SparseRep>) {
        let table = &mut self.tables[block];
        match rep {
            Some(rep) => rep.ger(self.kp, 1.0, delta, table),
            None => gemm::ger_with(self.kp, 1.0, x, delta, table),
        }
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
    use fml_linalg::simd::{self, SimdLevel};

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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `check` under both sequential policies, at the process's SIMD
    /// level and with SIMD off (`FML_SIMD=off`).
    fn under_every_policy_and_level(check: impl Fn(KernelPolicy)) {
        for kp in [KernelPolicy::Naive, KernelPolicy::Blocked] {
            check(kp);
            simd::with_level(SimdLevel::Scalar, || check(kp));
        }
    }

    #[test]
    fn partial_products_and_bias_sum_to_the_dense_pre_activation() {
        let model = Mlp::new(9, &[5], Activation::Tanh, 3);
        let blocks = blocks();
        let joined = joined(&blocks);
        under_every_policy_and_level(|kp| {
            let first = FirstLayer::split(&model, &SIZES, kp);
            assert_eq!(first.width(), 5);
            // every block once through its sparse form, once densely
            for sparse in [true, false] {
                let mut terms = vec![vec![f64::NAN; 5]; 2];
                for (term, (b, (x, rep))) in terms.iter_mut().zip(blocks.iter().enumerate().skip(1))
                {
                    first.partial(b, x, rep.as_ref().filter(|_| sparse), term);
                }
                let (fact, fact_rep) = &blocks[0];
                let mut a1 = vec![f64::NAN; 5];
                let terms = terms.iter().map(Vec::as_slice);
                first.pre_activation(fact, fact_rep.as_ref(), terms, &mut a1);
                let want = model.layers()[0].pre_activation_with(kp, &joined);
                assert!(vector::max_abs_diff(&a1, &want) < 1e-12, "{kp:?}/{sparse}");
            }
        });
    }

    #[test]
    fn table_partials_keep_the_bits_of_the_naive_dense_gemv() {
        let model = Mlp::new(9, &[5], Activation::Tanh, 3);
        let weights = &model.layers()[0].weights;
        let blocks = blocks();
        under_every_policy_and_level(|kp| {
            let first = FirstLayer::split(&model, &SIZES, kp);
            let mut start = 0;
            for (b, (x, rep)) in blocks.iter().enumerate() {
                let block = weights.sub_block(0, 5, start, start + x.len());
                start += x.len();
                let want = gemm::matvec_with(KernelPolicy::Naive, &block, x);
                let mut got = vec![f64::NAN; 5];
                first.partial(b, x, rep.as_ref(), &mut got);
                let onehot = matches!(rep, Some(SparseRep::OneHot(_)));
                if onehot || simd::current_level().is_bit_exact() {
                    assert_eq!(bits(&got), bits(&want), "{kp:?} block {b}");
                } else {
                    assert!(vector::max_abs_diff(&got, &want) < 1e-12, "{kp:?} {b}");
                }
            }
        });
    }

    #[test]
    fn block_gradients_assemble_into_the_full_outer_product() {
        let model = Mlp::new(9, &[5], Activation::Tanh, 3);
        let blocks = blocks();
        let joined = joined(&blocks);
        let delta = [0.3, -0.7, 1.1, 0.0, -0.2];
        let mut want = Matrix::zeros(5, 9);
        gemm::ger_with(KernelPolicy::Naive, 1.0, &delta, &joined, &mut want);
        under_every_policy_and_level(|kp| {
            let first = FirstLayer::split(&model, &SIZES, kp);
            let mut grad = first.zero_grad();
            for (b, (x, rep)) in blocks.iter().enumerate() {
                grad.add(b, &delta, x, rep.as_ref());
            }
            let mut grads = model.zero_grads();
            grad.add_into(&mut grads[0]);
            let got = &grads[0].d_weights;
            if simd::current_level().is_bit_exact() {
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{kp:?}");
            } else {
                // fused multiply-adds round the CSR / dense columns once
                // less; the one-hot columns are pure adds at every level
                assert!(got.max_abs_diff(&want) < 1e-12, "{kp:?}");
                assert_eq!(bits(&got.col(4)), bits(&want.col(4)), "{kp:?}");
                assert_eq!(bits(&got.col(6)), bits(&want.col(6)), "{kp:?}");
            }
        });
    }
}
