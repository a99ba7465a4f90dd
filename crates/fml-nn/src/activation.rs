//! Activation functions and the additivity property the paper's second-layer
//! analysis hinges on.

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `σ(a) = 1 / (1 + e^{-a})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit `max(0, a)`.
    Relu,
    /// Identity (used at the output layer for regression, and the only activation
    /// in this list that is *additive* — `f(x+y) = f(x)+f(y)` — which Section
    /// VI-A2 shows is required for exact computation sharing beyond layer 1).
    Identity,
}

impl Activation {
    /// Applies the activation.
    #[inline]
    pub fn apply(&self, a: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-a).exp()),
            Activation::Tanh => a.tanh(),
            // `max` alone would turn NaN into 0: a NaN feature must score NaN.
            Activation::Relu if a.is_nan() => a,
            Activation::Relu => a.max(0.0),
            Activation::Identity => a,
        }
    }

    /// Derivative with respect to the pre-activation `a`, from the
    /// activation's **output** `h = f(a)` — back-propagation has `h` cached,
    /// so no `exp`/`tanh` is evaluated twice (`σ′ = h(1−h)`, `tanh′ = 1−h²`,
    /// ReLU′ = `[h > 0]`).
    #[inline]
    pub fn derivative_from_output(&self, h: f64) -> f64 {
        match self {
            Activation::Sigmoid => h * (1.0 - h),
            Activation::Tanh => 1.0 - h.powi(2),
            Activation::Relu => {
                if h > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }

    /// Applies the activation elementwise in place.
    pub fn apply_slice(&self, a: &mut [f64]) {
        for v in a.iter_mut() {
            *v = self.apply(*v);
        }
    }

    /// Whether `f(x + y) = f(x) + f(y)` holds for all inputs — a solution of the
    /// Cauchy functional equation.  Only such activations admit exact reuse of
    /// partial sums beyond the first hidden layer (Section VI-A2).  `ReLU` is
    /// additive only when both terms share a sign, so it does not qualify in
    /// general.
    pub fn is_additive(&self) -> bool {
        matches!(self, Activation::Identity)
    }

    /// Whether `f(x + y) = f(x) + f(y)` holds for the *specific* pair `(x, y)` —
    /// used to demonstrate the ReLU same-sign special case the paper mentions.
    pub fn is_additive_at(&self, x: f64, y: f64) -> bool {
        (self.apply(x + y) - (self.apply(x) + self.apply(y))).abs() < 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 4] = [
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Relu,
        Activation::Identity,
    ];

    /// `f′(a)` as back-propagation computes it: from the cached output.
    fn derivative(act: Activation, a: f64) -> f64 {
        act.derivative_from_output(act.apply(a))
    }

    #[test]
    fn sigmoid_values_and_derivative() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(s.apply(10.0) > 0.9999);
        assert!(s.apply(-10.0) < 0.0001);
        assert!((derivative(s, 0.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tanh_and_relu_and_identity() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(derivative(Activation::Relu, -1.0), 0.0);
        assert_eq!(derivative(Activation::Relu, 1.0), 1.0);
        assert!((Activation::Tanh.apply(0.5) - 0.5f64.tanh()).abs() < 1e-15);
        assert_eq!(Activation::Identity.apply(7.0), 7.0);
        assert_eq!(derivative(Activation::Identity, 7.0), 1.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in ALL {
            for &a in &[-2.0, -0.5, 0.3, 1.7] {
                let fd = (act.apply(a + eps) - act.apply(a - eps)) / (2.0 * eps);
                assert!(
                    (derivative(act, a) - fd).abs() < 1e-5,
                    "{act:?} at {a}: {} vs {}",
                    derivative(act, a),
                    fd
                );
            }
        }
    }

    #[test]
    fn derivative_from_output_keeps_the_bits_of_the_pre_activation_form() {
        // The form this replaced: `f′` evaluated from the pre-activation.
        fn from_pre_activation(act: Activation, a: f64) -> f64 {
            match act {
                Activation::Sigmoid => {
                    let s = act.apply(a);
                    s * (1.0 - s)
                }
                Activation::Tanh => 1.0 - a.tanh().powi(2),
                Activation::Relu => f64::from(a > 0.0),
                Activation::Identity => 1.0,
            }
        }
        let mut grid = vec![
            0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0, 1e308,
        ];
        grid.extend((-64..=64).map(|i| f64::from(i) / 8.0));
        for act in ALL {
            for &a in &grid {
                assert_eq!(
                    derivative(act, a).to_bits(),
                    from_pre_activation(act, a).to_bits(),
                    "{act:?} at {a}"
                );
            }
        }
    }

    #[test]
    fn only_identity_is_additive() {
        assert!(Activation::Identity.is_additive());
        assert!(!Activation::Sigmoid.is_additive());
        assert!(!Activation::Tanh.is_additive());
        assert!(!Activation::Relu.is_additive());
    }

    #[test]
    fn relu_is_additive_only_for_same_sign_terms() {
        let r = Activation::Relu;
        assert!(r.is_additive_at(1.0, 2.0)); // both positive
        assert!(r.is_additive_at(-1.0, -2.0)); // both negative (all zero)
        assert!(!r.is_additive_at(3.0, -1.0)); // mixed signs break additivity
        assert!(!Activation::Sigmoid.is_additive_at(0.5, 0.5));
        assert!(Activation::Identity.is_additive_at(3.0, -1.0));
    }

    #[test]
    fn apply_slice_applies_elementwise() {
        let mut v = vec![-1.0, 0.0, 2.0];
        Activation::Relu.apply_slice(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 2.0]);
    }
}
