//! A fully connected layer.

use crate::activation::Activation;
use fml_linalg::{gemm, vector, Matrix};

/// A dense layer `h = f(W·x + b)` with `W ∈ ℝ^{out×in}`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    /// Weight matrix (`out_dim × in_dim`).
    pub weights: Matrix,
    /// Bias vector (`out_dim`).
    pub bias: Vec<f64>,
    /// Activation applied to the pre-activation values.
    pub activation: Activation,
}

impl DenseLayer {
    /// Creates a layer with the given parameters.
    pub fn new(weights: Matrix, bias: Vec<f64>, activation: Activation) -> Self {
        assert_eq!(
            weights.rows(),
            bias.len(),
            "weights/bias dimension mismatch"
        );
        Self {
            weights,
            bias,
            activation,
        }
    }

    /// Deterministically initializes a layer with small seeded pseudo-random
    /// weights (scaled by `1/√in_dim`, the usual fan-in scaling).
    pub fn init(in_dim: usize, out_dim: usize, activation: Activation, seed: u64) -> Self {
        // Small deterministic generator (SplitMix64) — keeps initialization
        // identical for every training variant without threading an RNG through.
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z = z ^ (z >> 31);
            // map to (-0.5, 0.5)
            (z as f64 / u64::MAX as f64) - 0.5
        };
        let scale = 1.0 / (in_dim as f64).sqrt();
        let mut w = Matrix::zeros(out_dim, in_dim);
        for i in 0..out_dim {
            for j in 0..in_dim {
                w[(i, j)] = next() * scale;
            }
        }
        let bias = (0..out_dim).map(|_| next() * 0.1).collect();
        Self::new(w, bias, activation)
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimensionality (number of units).
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Computes the pre-activation `a = W·x + b`.
    pub fn pre_activation_with(&self, kp: fml_linalg::KernelPolicy, x: &[f64]) -> Vec<f64> {
        let mut a = gemm::matvec_with(kp, &self.weights, x);
        vector::axpy(1.0, &self.bias, &mut a);
        a
    }

    /// Forward pass returning `(a, h)` — pre-activation and activated output.
    pub fn forward_with(&self, kp: fml_linalg::KernelPolicy, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let a = self.pre_activation_with(kp, x);
        let mut h = a.clone();
        self.activation.apply_slice(&mut h);
        (a, h)
    }

    /// Largest absolute parameter difference against another layer.
    pub fn max_param_diff(&self, other: &DenseLayer) -> f64 {
        self.weights
            .max_abs_diff(&other.weights)
            .max(vector::max_abs_diff(&self.bias, &other.bias))
    }
}

/// Accumulated gradients for one layer.
#[derive(Debug, Clone)]
pub struct LayerGradient {
    /// Gradient of the (summed) loss with respect to the weights.
    pub d_weights: Matrix,
    /// Gradient with respect to the bias.
    pub d_bias: Vec<f64>,
}

impl LayerGradient {
    /// Creates a zeroed gradient accumulator for the given layer.
    pub fn zeros_like(layer: &DenseLayer) -> Self {
        Self {
            d_weights: Matrix::zeros(layer.out_dim(), layer.in_dim()),
            d_bias: vec![0.0; layer.out_dim()],
        }
    }

    /// Resets the accumulator.
    pub fn reset(&mut self) {
        self.d_weights.fill_zero();
        self.d_bias.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Applies the accumulated gradient to a layer: `θ -= lr/n · dθ`.
    pub fn apply(&self, layer: &mut DenseLayer, learning_rate: f64, n: f64) {
        let step = -learning_rate / n;
        layer.weights.axpy(step, &self.d_weights);
        vector::axpy(step, &self.d_bias, &mut layer.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_computation() {
        let w = Matrix::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.5]]);
        let layer = DenseLayer::new(w, vec![0.5, -0.5], Activation::Relu);
        let (a, h) = layer.forward_with(fml_linalg::KernelPolicy::Blocked, &[1.0, 1.0]);
        assert_eq!(a, vec![3.5, -1.0]);
        assert_eq!(h, vec![3.5, 0.0]);
        assert_eq!(layer.in_dim(), 2);
        assert_eq!(layer.out_dim(), 2);
        assert_eq!(layer.num_params(), 6);
    }

    #[test]
    fn init_is_deterministic_and_seed_sensitive() {
        let a = DenseLayer::init(4, 3, Activation::Sigmoid, 1);
        let b = DenseLayer::init(4, 3, Activation::Sigmoid, 1);
        let c = DenseLayer::init(4, 3, Activation::Sigmoid, 2);
        assert_eq!(a.max_param_diff(&b), 0.0);
        assert!(a.max_param_diff(&c) > 0.0);
        // weights bounded by the fan-in scaling
        assert!(a.weights.as_slice().iter().all(|w| w.abs() <= 0.5));
    }

    #[test]
    fn gradient_apply_moves_parameters() {
        let mut layer = DenseLayer::init(2, 2, Activation::Identity, 3);
        let before = layer.clone();
        let mut grad = LayerGradient::zeros_like(&layer);
        grad.d_weights[(0, 0)] = 1.0;
        grad.d_bias[1] = 2.0;
        grad.apply(&mut layer, 0.1, 1.0);
        assert!((layer.weights[(0, 0)] - (before.weights[(0, 0)] - 0.1)).abs() < 1e-12);
        assert!((layer.bias[1] - (before.bias[1] - 0.2)).abs() < 1e-12);
        grad.reset();
        assert_eq!(grad.d_weights.frobenius_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_bias_rejected() {
        DenseLayer::new(Matrix::zeros(2, 2), vec![0.0], Activation::Identity);
    }
}
