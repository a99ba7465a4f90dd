//! The multi-layer perceptron: forward pass, back-propagation, parameter updates.

use crate::activation::Activation;
use crate::layer::{DenseLayer, LayerGradient};
use crate::loss::output_gradient;
use fml_linalg::{gemm, vector, KernelPolicy, SparseRep};
use serde::{Deserialize, Serialize};

/// A feed-forward network with dense layers.  The output layer uses the identity
/// activation (scalar regression against the fact table's target `Y`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

/// Cached per-layer `(pre_activation, activation)` pairs from a forward pass,
/// needed by back-propagation.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    /// `(a_l, h_l)` for every layer, in order.
    pub layers: Vec<(Vec<f64>, Vec<f64>)>,
}

impl ForwardTrace {
    /// Network output (last layer's activation).
    pub fn output(&self) -> f64 {
        self.layers.last().expect("at least one layer").1[0]
    }
}

impl Mlp {
    /// Builds a network with the given hidden layer sizes and hidden activation.
    /// `input_dim → hidden[0] → … → hidden[last] → 1`.
    pub fn new(input_dim: usize, hidden: &[usize], activation: Activation, seed: u64) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut in_dim = input_dim;
        for (i, &h) in hidden.iter().enumerate() {
            assert!(h > 0, "hidden layer sizes must be positive");
            layers.push(DenseLayer::init(
                in_dim,
                h,
                activation,
                seed.wrapping_add(i as u64),
            ));
            in_dim = h;
        }
        layers.push(DenseLayer::init(
            in_dim,
            1,
            Activation::Identity,
            seed.wrapping_add(hidden.len() as u64),
        ));
        Self { layers }
    }

    /// Builds a network from explicit layers (used by tests).
    pub fn from_layers(layers: Vec<DenseLayer>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        Self { layers }
    }

    /// The layers, input to output.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Mutable access to the layers (used by the factorized trainer's updates).
    pub fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Full forward pass, keeping per-layer caches for back-propagation.
    pub fn forward_trace(&self, x: &[f64]) -> ForwardTrace {
        self.forward_trace_with(KernelPolicy::default(), x)
    }

    /// [`Self::forward_trace`] under an explicit kernel policy.
    pub fn forward_trace_with(&self, kp: KernelPolicy, x: &[f64]) -> ForwardTrace {
        let mut layers: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(self.layers.len());
        for (l, layer) in self.layers.iter().enumerate() {
            let input: &[f64] = if l == 0 { x } else { &layers[l - 1].1 };
            let (a, h) = layer.forward_with(kp, input);
            layers.push((a, h));
        }
        ForwardTrace { layers }
    }

    /// Prediction for a single (joined) feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.forward_trace(x).output()
    }

    /// [`Self::predict`] under an explicit kernel policy.
    pub fn predict_with(&self, kp: KernelPolicy, x: &[f64]) -> f64 {
        self.forward_trace_with(kp, x).output()
    }

    /// Completes a forward pass from an externally assembled **first-layer
    /// pre-activation** `a¹ = W¹·x + b¹`: applies the first layer's
    /// activation, runs the remaining layers densely, and returns the output.
    ///
    /// This is the inference-side seam of the paper's factorized first layer:
    /// the factorized scorer assembles `a¹` from per-relation partial
    /// products (`W¹_S·x_S + b¹` plus one cached `W¹_{R_i}·x_{R_i}` per
    /// dimension tuple) and hands it here, so layers ≥ 2 — where the paper
    /// shows exact reuse is impossible for non-additive activations — share
    /// one code path with every other variant.
    pub fn forward_from_first_preactivation_with(&self, kp: KernelPolicy, a1: Vec<f64>) -> f64 {
        assert_eq!(
            a1.len(),
            self.layers[0].out_dim(),
            "first-layer pre-activation width mismatch"
        );
        let mut h = a1;
        self.layers[0].activation.apply_slice(&mut h);
        for layer in &self.layers[1..] {
            let (_, next) = layer.forward_with(kp, &h);
            h = next;
        }
        h[0]
    }

    /// Back-propagates one example's error into the gradient accumulators,
    /// starting from an already computed forward trace.
    ///
    /// Returns the example's squared-error contribution `½(o − y)²`.
    pub fn backward_into(
        &self,
        x: &[f64],
        trace: &ForwardTrace,
        target: f64,
        grads: &mut [LayerGradient],
    ) -> f64 {
        self.backward_into_with(KernelPolicy::default(), x, trace, target, grads)
    }

    /// [`Self::backward_into`] under an explicit kernel policy.
    pub fn backward_into_with(
        &self,
        kp: KernelPolicy,
        x: &[f64],
        trace: &ForwardTrace,
        target: f64,
        grads: &mut [LayerGradient],
    ) -> f64 {
        assert_eq!(
            grads.len(),
            self.layers.len(),
            "gradient accumulator mismatch"
        );
        let output = trace.output();
        // delta of the output layer (identity activation).
        let mut delta = vec![output_gradient(output, target)];
        for l in (0..self.layers.len()).rev() {
            let input: &[f64] = if l == 0 { x } else { &trace.layers[l - 1].1 };
            // dW_l += delta ⊗ input ; db_l += delta
            gemm::ger_with(kp, 1.0, &delta, input, &mut grads[l].d_weights);
            vector::axpy(1.0, &delta, &mut grads[l].d_bias);
            if l > 0 {
                // delta_{l-1} = (W_lᵀ · delta) ⊙ f'(a_{l-1})
                let mut prev = gemm::matvec_transposed_with(kp, &self.layers[l].weights, &delta);
                let a_prev = &trace.layers[l - 1].0;
                for (p, a) in prev.iter_mut().zip(a_prev.iter()) {
                    *p *= self.layers[l - 1].activation.derivative(*a);
                }
                delta = prev;
            }
        }
        0.5 * (output - target).powi(2)
    }

    /// Forward and backward pass of one example from an externally assembled
    /// **first-layer pre-activation** `a¹ = W¹·x + b¹` — the training-side
    /// twin of [`Self::forward_from_first_preactivation_with`].  Identical to
    /// [`backward_into`](Self::backward_into) except that the **first layer's
    /// weight gradient is not touched**: the caller accumulates it block-wise
    /// from the base relations (`∂E/∂W¹ = [PG_S  PG_{R_1} … PG_{R_q}]`,
    /// Equations 28–32, see [`crate::first_layer::FirstLayerGrad`]) from the
    /// first layer's delta, which is returned instead.
    ///
    /// Returns `(δ¹, ½(o−y)²)`.
    pub fn backward_from_first_preactivation_with(
        &self,
        kp: KernelPolicy,
        a1: Vec<f64>,
        target: f64,
        grads: &mut [LayerGradient],
    ) -> (Vec<f64>, f64) {
        assert_eq!(
            grads.len(),
            self.layers.len(),
            "gradient accumulator mismatch"
        );
        let mut h1 = a1.clone();
        self.layers[0].activation.apply_slice(&mut h1);
        let mut trace = Vec::with_capacity(self.layers.len());
        trace.push((a1, h1));
        for layer in &self.layers[1..] {
            let next = layer.forward_with(kp, &trace[trace.len() - 1].1);
            trace.push(next);
        }
        let output = trace[trace.len() - 1].1[0];
        let mut delta = vec![output_gradient(output, target)];
        for l in (1..self.layers.len()).rev() {
            let (a_prev, input) = &trace[l - 1];
            gemm::ger_with(kp, 1.0, &delta, input, &mut grads[l].d_weights);
            vector::axpy(1.0, &delta, &mut grads[l].d_bias);
            // delta_{l-1} = (W_lᵀ · delta) ⊙ f'(a_{l-1})
            let mut prev = gemm::matvec_transposed_with(kp, &self.layers[l].weights, &delta);
            for (p, a) in prev.iter_mut().zip(a_prev.iter()) {
                *p *= self.layers[l - 1].activation.derivative(*a);
            }
            delta = prev;
        }
        // first layer: bias gradient only; weight gradient handled by the caller
        vector::axpy(1.0, &delta, &mut grads[0].d_bias);
        (delta, 0.5 * (output - target).powi(2))
    }

    /// Convenience: forward + backward for one example.
    pub fn accumulate_example(&self, x: &[f64], target: f64, grads: &mut [LayerGradient]) -> f64 {
        self.accumulate_example_with(KernelPolicy::default(), x, target, grads)
    }

    /// [`Self::accumulate_example`] under an explicit kernel policy — the
    /// trainers pass `config.kernel_policy.sequential()` so worker threads
    /// never re-enter the thread pool from inside a per-example kernel.
    pub fn accumulate_example_with(
        &self,
        kp: KernelPolicy,
        x: &[f64],
        target: f64,
        grads: &mut [LayerGradient],
    ) -> f64 {
        let trace = self.forward_trace_with(kp, x);
        self.backward_into_with(kp, x, &trace, target, grads)
    }

    /// [`Self::accumulate_example_with`] for a **sparse** input row: the first
    /// layer runs as a gather forward (`a¹ = W¹·x + b¹` reads only the active
    /// columns) and a column scatter-add backward (`∂E/∂W¹ += δ¹·xᵀ` writes
    /// only the active columns); layers ≥ 2 are dense as usual.  The
    /// dense-pass trainers (`M-NN` / `S-NN`) use this to honor
    /// [`fml_linalg::SparseMode::Auto`] on sparse denormalized rows.
    ///
    /// The gathers perform the dense kernels' nonzero multiplications in the
    /// same order, so the accumulated gradient matches the dense path to the
    /// usual rounding tolerances.
    pub fn accumulate_sparse_example_with(
        &self,
        kp: KernelPolicy,
        rep: &SparseRep,
        target: f64,
        grads: &mut [LayerGradient],
    ) -> f64 {
        let first = &self.layers[0];
        let mut a1 = rep.matvec(kp, &first.weights);
        vector::axpy(1.0, &first.bias, &mut a1);
        let (delta1, loss) = self.backward_from_first_preactivation_with(kp, a1, target, grads);
        rep.ger_cols(kp, 1.0, &delta1, &mut grads[0].d_weights);
        loss
    }

    /// Creates zeroed gradient accumulators matching the network's layers.
    pub fn zero_grads(&self) -> Vec<LayerGradient> {
        self.layers.iter().map(LayerGradient::zeros_like).collect()
    }

    /// Applies accumulated gradients with learning rate `lr`, scaling by `1/n`.
    pub fn apply_grads(&mut self, grads: &[LayerGradient], lr: f64, n: f64) {
        assert_eq!(
            grads.len(),
            self.layers.len(),
            "gradient accumulator mismatch"
        );
        for (layer, grad) in self.layers.iter_mut().zip(grads.iter()) {
            grad.apply(layer, lr, n);
        }
    }

    /// Largest absolute parameter difference against another network — used by the
    /// equivalence tests between `M-NN`, `S-NN` and `F-NN`.
    pub fn max_param_diff(&self, other: &Mlp) -> f64 {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "layer count mismatch"
        );
        self.layers
            .iter()
            .zip(other.layers.iter())
            .map(|(a, b)| a.max_param_diff(b))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use fml_linalg::Matrix;

    #[test]
    fn construction_shapes() {
        let net = Mlp::new(7, &[10, 4], Activation::Tanh, 5);
        assert_eq!(net.layers().len(), 3);
        assert_eq!(net.input_dim(), 7);
        assert_eq!(net.layers()[0].out_dim(), 10);
        assert_eq!(net.layers()[2].out_dim(), 1);
        assert_eq!(net.num_params(), 7 * 10 + 10 + 10 * 4 + 4 + 4 + 1);
    }

    #[test]
    fn forward_of_known_tiny_network() {
        // one hidden unit, identity everywhere: o = w2*(w1·x + b1) + b2
        let l1 = DenseLayer::new(
            Matrix::from_rows(&[vec![2.0, -1.0]]),
            vec![0.5],
            Activation::Identity,
        );
        let l2 = DenseLayer::new(
            Matrix::from_rows(&[vec![3.0]]),
            vec![1.0],
            Activation::Identity,
        );
        let net = Mlp::from_layers(vec![l1, l2]);
        // a1 = 2*1 - 1*2 + 0.5 = 0.5 ; o = 3*0.5 + 1 = 2.5
        assert!((net.predict(&[1.0, 2.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn gradients_match_finite_differences_for_all_activations() {
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::Relu] {
            let net = Mlp::new(4, &[6, 3], act, 11);
            let x = [0.3, -1.2, 0.8, 0.1];
            let max_err = check_gradients(&net, &x, 0.7);
            assert!(max_err < 1e-5, "{act:?}: gradient check error {max_err}");
        }
    }

    #[test]
    fn full_batch_training_reduces_loss() {
        // Learn y = x0 - 2*x1 on a small grid.
        let data: Vec<(Vec<f64>, f64)> = (0..50)
            .map(|i| {
                let x0 = (i % 10) as f64 / 10.0;
                let x1 = (i / 10) as f64 / 5.0;
                (vec![x0, x1], x0 - 2.0 * x1)
            })
            .collect();
        let mut net = Mlp::new(2, &[8], Activation::Tanh, 3);
        let loss_at = |net: &Mlp| -> f64 {
            data.iter()
                .map(|(x, y)| 0.5 * (net.predict(x) - y).powi(2))
                .sum::<f64>()
                / data.len() as f64
        };
        let initial = loss_at(&net);
        for _ in 0..200 {
            let mut grads = net.zero_grads();
            for (x, y) in &data {
                net.accumulate_example(x, *y, &mut grads);
            }
            net.apply_grads(&grads, 0.5, data.len() as f64);
        }
        let fin = loss_at(&net);
        assert!(
            fin < initial * 0.1,
            "training did not reduce loss: {initial} -> {fin}"
        );
    }

    #[test]
    fn forward_from_first_preactivation_matches_dense_forward() {
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::Relu] {
            let net = Mlp::new(5, &[7, 3], act, 9);
            let x = [0.4, -0.9, 0.2, 1.1, -0.3];
            let kp = KernelPolicy::Naive;
            // assemble a1 exactly as the dense forward does
            let a1 = net.layers()[0].pre_activation_with(kp, &x);
            let out = net.forward_from_first_preactivation_with(kp, a1);
            assert_eq!(out, net.predict_with(kp, &x), "{act:?}");
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn forward_from_first_preactivation_rejects_wrong_width() {
        let net = Mlp::new(3, &[4], Activation::Tanh, 1);
        let _ = net.forward_from_first_preactivation_with(KernelPolicy::Naive, vec![0.0; 3]);
    }

    #[test]
    fn max_param_diff_detects_updates() {
        let a = Mlp::new(3, &[4], Activation::Sigmoid, 1);
        let mut b = a.clone();
        assert_eq!(a.max_param_diff(&b), 0.0);
        b.layers_mut()[0].bias[0] += 0.5;
        assert!((a.max_param_diff(&b) - 0.5).abs() < 1e-12);
    }
}
