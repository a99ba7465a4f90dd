//! The multi-layer perceptron: forward pass, back-propagation, parameter updates.

use crate::activation::Activation;
use crate::layer::{DenseLayer, LayerGradient};
use crate::loss::output_gradient;
use fml_linalg::{gemm, vector, KernelPolicy};

/// A feed-forward network with dense layers.  The output layer uses the identity
/// activation (scalar regression against the fact table's target `Y`).
#[derive(Debug, Clone, PartialEq)]
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

/// Reusable buffers of the per-example pass from an assembled first-layer
/// pre-activation: every layer's activation `h_l` and delta `δ_l`, allocated
/// once per worker ([`Mlp::workspace`]) so that
/// [`Mlp::forward_from_first_preactivation_with`] and
/// [`Mlp::backward_from_first_preactivation_with`] allocate nothing per
/// example.  Every pass overwrites every buffer it reads, so a reused
/// workspace gives the bits of a fresh one.
#[derive(Debug, Clone)]
pub struct Workspace {
    h: Vec<Vec<f64>>,
    delta: Vec<Vec<f64>>,
}

impl Workspace {
    /// The first layer's buffer: the caller assembles `a¹ = W¹·x + b¹` here
    /// before a pass, which activates it in place.
    pub fn first_preactivation(&mut self) -> &mut [f64] {
        &mut self.h[0]
    }

    /// The first layer's delta `δ¹` left by the last backward pass.
    pub fn first_delta(&self) -> &[f64] {
        &self.delta[0]
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
    pub fn forward_trace_with(&self, kp: KernelPolicy, x: &[f64]) -> ForwardTrace {
        let mut layers: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(self.layers.len());
        for (l, layer) in self.layers.iter().enumerate() {
            let input: &[f64] = if l == 0 { x } else { &layers[l - 1].1 };
            let (a, h) = layer.forward_with(kp, input);
            layers.push((a, h));
        }
        ForwardTrace { layers }
    }

    /// Prediction for a single (joined) feature vector, under the default
    /// `Blocked` arithmetic.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.predict_with(KernelPolicy::Blocked, x)
    }

    /// [`Self::predict`] under an explicit kernel policy.
    pub fn predict_with(&self, kp: KernelPolicy, x: &[f64]) -> f64 {
        self.forward_trace_with(kp, x).output()
    }

    /// A [`Workspace`] shaped for this network.
    pub fn workspace(&self) -> Workspace {
        let buffers = || self.layers.iter().map(|l| vec![0.0; l.out_dim()]).collect();
        Workspace {
            h: buffers(),
            delta: buffers(),
        }
    }

    /// Completes a forward pass from the externally assembled **first-layer
    /// pre-activation** `a¹ = W¹·x + b¹` in
    /// [`ws.first_preactivation()`](Workspace::first_preactivation): applies
    /// the first layer's activation, runs the remaining layers densely, and
    /// returns the output.
    ///
    /// This is the inference-side seam of the paper's factorized first layer:
    /// the factorized scorer assembles `a¹` from per-relation partial
    /// products (`W¹_S·x_S + b¹` plus one cached `W¹_{R_i}·x_{R_i}` per
    /// dimension tuple) and hands it here, so layers ≥ 2 — where the paper
    /// shows exact reuse is impossible for non-additive activations — share
    /// one code path with every other variant.
    pub fn forward_from_first_preactivation_with(
        &self,
        kp: KernelPolicy,
        ws: &mut Workspace,
    ) -> f64 {
        assert_eq!(
            ws.h[0].len(),
            self.layers[0].out_dim(),
            "first-layer pre-activation width mismatch"
        );
        self.layers[0].activation.apply_slice(&mut ws.h[0]);
        for (l, layer) in self.layers.iter().enumerate().skip(1) {
            let (input, output) = ws.h.split_at_mut(l);
            let h = &mut output[0];
            gemm::matvec_into_with(kp, &layer.weights, &input[l - 1], h);
            vector::axpy(1.0, &layer.bias, h);
            layer.activation.apply_slice(h);
        }
        ws.h[self.layers.len() - 1][0]
    }

    /// Back-propagates one example's error into the gradient accumulators,
    /// starting from an already computed forward trace.
    ///
    /// Returns the example's squared-error contribution `½(o − y)²`.
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
                // delta_{l-1} = (W_lᵀ · delta) ⊙ f'(a_{l-1}), f' from h_{l-1}
                let mut prev = gemm::matvec_transposed_with(kp, &self.layers[l].weights, &delta);
                let h_prev = &trace.layers[l - 1].1;
                for (p, h) in prev.iter_mut().zip(h_prev.iter()) {
                    *p *= self.layers[l - 1].activation.derivative_from_output(*h);
                }
                delta = prev;
            }
        }
        0.5 * (output - target).powi(2)
    }

    /// Forward and backward pass of one example from the externally assembled
    /// **first-layer pre-activation** in
    /// [`ws.first_preactivation()`](Workspace::first_preactivation) — the
    /// training-side twin of [`Self::forward_from_first_preactivation_with`].
    /// Identical to [`Self::backward_into_with`] except that the
    /// **first layer's weight gradient is not touched**: the caller
    /// accumulates it block-wise from the base relations
    /// (`∂E/∂W¹ = [PG_S  PG_{R_1} … PG_{R_q}]`, Equations 28–32, see
    /// [`crate::first_layer::FirstLayerGrad`]) from the first layer's delta,
    /// which is left in [`ws.first_delta()`](Workspace::first_delta).
    ///
    /// Returns the example's squared-error contribution `½(o−y)²`.
    pub fn backward_from_first_preactivation_with(
        &self,
        kp: KernelPolicy,
        ws: &mut Workspace,
        target: f64,
        grads: &mut [LayerGradient],
    ) -> f64 {
        assert_eq!(
            grads.len(),
            self.layers.len(),
            "gradient accumulator mismatch"
        );
        let output = self.forward_from_first_preactivation_with(kp, ws);
        let last = self.layers.len() - 1;
        ws.delta[last][0] = output_gradient(output, target);
        for l in (1..=last).rev() {
            let (lower, upper) = ws.delta.split_at_mut(l);
            let (prev, delta) = (&mut lower[l - 1], &upper[0]);
            let input = &ws.h[l - 1];
            gemm::ger_with(kp, 1.0, delta, input, &mut grads[l].d_weights);
            vector::axpy(1.0, delta, &mut grads[l].d_bias);
            // delta_{l-1} = (W_lᵀ · delta) ⊙ f'(a_{l-1}), f' from h_{l-1}
            gemm::matvec_transposed_into_with(kp, &self.layers[l].weights, delta, prev);
            for (p, h) in prev.iter_mut().zip(input.iter()) {
                *p *= self.layers[l - 1].activation.derivative_from_output(*h);
            }
        }
        // first layer: bias gradient only; weight gradient handled by the caller
        vector::axpy(1.0, &ws.delta[0], &mut grads[0].d_bias);
        0.5 * (output - target).powi(2)
    }

    /// Convenience: forward + backward for one example, under the default
    /// `Blocked` arithmetic.
    pub fn accumulate_example(&self, x: &[f64], target: f64, grads: &mut [LayerGradient]) -> f64 {
        self.accumulate_example_with(KernelPolicy::Blocked, x, target, grads)
    }

    /// [`Self::accumulate_example`] under an explicit kernel policy — the
    /// row-major dense reference the trainers' embedding-table engine
    /// ([`crate::first_layer`]) is tested against.
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
            let mut ws = net.workspace();
            ws.first_preactivation()
                .copy_from_slice(&net.layers()[0].pre_activation_with(kp, &x));
            let out = net.forward_from_first_preactivation_with(kp, &mut ws);
            assert_eq!(out, net.predict_with(kp, &x), "{act:?}");
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn forward_from_first_preactivation_rejects_wrong_width() {
        let net = Mlp::new(3, &[4], Activation::Tanh, 1);
        let mut narrower = Mlp::new(3, &[3], Activation::Tanh, 1).workspace();
        let _ = net.forward_from_first_preactivation_with(KernelPolicy::Naive, &mut narrower);
    }

    #[test]
    fn a_reused_workspace_gives_the_bits_of_fresh_ones() {
        let kp = KernelPolicy::Naive;
        let examples = [([0.4, -0.9, 0.2], 0.7), ([-1.3, 0.5, 2.1], -0.2)];
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::Relu] {
            let net = Mlp::new(3, &[6, 4], act, 17);
            // One pass per example: (loss, δ¹, accumulated gradients) as bits.
            let pass =
                |ws: &mut Workspace, grads: &mut [LayerGradient], (x, y): ([f64; 3], f64)| {
                    ws.first_preactivation()
                        .copy_from_slice(&net.layers()[0].pre_activation_with(kp, &x));
                    let loss = net.backward_from_first_preactivation_with(kp, ws, y, grads);
                    let mut bits = vec![loss.to_bits()];
                    bits.extend(ws.first_delta().iter().map(|v| v.to_bits()));
                    for g in grads.iter() {
                        bits.extend(g.d_weights.as_slice().iter().map(|v| v.to_bits()));
                        bits.extend(g.d_bias.iter().map(|v| v.to_bits()));
                    }
                    bits
                };
            let (mut reused, mut reused_grads) = (net.workspace(), net.zero_grads());
            let mut fresh_grads = net.zero_grads();
            for example in examples {
                let got = pass(&mut reused, &mut reused_grads, example);
                let want = pass(&mut net.workspace(), &mut fresh_grads, example);
                assert_eq!(got, want, "{act:?}");
            }
            // ... and the workspace pass is the dense reference's layers ≥ 2.
            let mut reference = net.zero_grads();
            for (x, y) in examples {
                net.accumulate_example_with(kp, &x, y, &mut reference);
            }
            for (got, want) in reused_grads.iter().zip(&reference).skip(1) {
                assert_eq!(got.d_weights, want.d_weights, "{act:?}");
                assert_eq!(got.d_bias, want.d_bias, "{act:?}");
            }
        }
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
