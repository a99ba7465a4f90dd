//! Dense vectors and slice kernels.
//!
//! Most numerical inner loops in the training algorithms operate on borrowed
//! `&[f64]` slices (feature vectors read straight out of storage pages), so the
//! primitive kernels here are free functions over slices.  [`Vector`] is a thin
//! owned wrapper that adds convenience constructors and operators on top.
//!
//! The kernels here are the **frozen sequential reference**: strictly
//! left-to-right accumulation with no unrolling, the arithmetic
//! [`crate::reference`] and the sparse exactness contracts are defined
//! against.  Their reductions must never be reassociated — the 4-lane twins
//! the blocked kernels run on live in [`crate::simd`]; the element-wise
//! kernels here serve both.

use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

/// Dot product of two equally sized slices.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// `y += alpha * x` (the BLAS AXPY kernel).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: dimension mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Elementwise `out = a - b`.
#[inline]
pub fn sub_into(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), b.len(), "sub_into: dimension mismatch");
    assert_eq!(a.len(), out.len(), "sub_into: output dimension mismatch");
    for ((o, x), y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x - y;
    }
}

/// Elementwise `out = a + b`.
#[inline]
pub fn add_into(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), b.len(), "add_into: dimension mismatch");
    assert_eq!(a.len(), out.len(), "add_into: output dimension mismatch");
    for ((o, x), y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x + y;
    }
}

/// Scales every element of `x` in place by `alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean (L2) norm.
#[inline]
pub(crate) fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Sum of all elements.
#[inline]
pub fn sum(x: &[f64]) -> f64 {
    x.iter().sum()
}

/// Arithmetic mean; returns 0 for an empty slice.
#[inline]
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        sum(x) / x.len() as f64
    }
}

/// Maximum absolute difference between two slices — handy in convergence checks
/// and tests that compare models produced by different algorithm variants.
#[inline]
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: dimension mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// An owned dense `f64` vector.
///
/// `Vector` dereferences to `[f64]`, so all the free kernels above apply to it
/// directly.  It implements the arithmetic operators needed for readable model
/// update code (`+`, `-`, scalar `*`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![0.0; n] }
    }

    /// Wraps an existing `Vec<f64>`.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Self { data }
    }

    /// Builds a vector from a slice.
    pub fn from_slice(data: &[f64]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Dot product with another vector.
    pub fn dot(&self, other: &Vector) -> f64 {
        dot(&self.data, &other.data)
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        axpy(alpha, &other.data, &mut self.data);
    }

    /// Scales the vector in place.
    pub fn scale(&mut self, alpha: f64) {
        scale(alpha, &mut self.data);
    }

    /// Iterator over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }
}

impl std::ops::Deref for Vector {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.data
    }
}

impl std::ops::DerefMut for Vector {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        let mut out = self.clone();
        axpy(1.0, rhs.as_slice(), out.as_mut_slice());
        out
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        let mut out = self.clone();
        axpy(-1.0, rhs.as_slice(), out.as_mut_slice());
        out
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        axpy(1.0, rhs.as_slice(), self.as_mut_slice());
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        axpy(-1.0, rhs.as_slice(), self.as_mut_slice());
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        let mut out = self.clone();
        out.scale(rhs);
        out
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn sub_add_into() {
        let mut out = vec![0.0; 3];
        sub_into(&[5.0, 6.0, 7.0], &[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, vec![4.0, 4.0, 4.0]);
        add_into(&[5.0, 6.0, 7.0], &[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, vec![6.0, 8.0, 10.0]);
    }

    #[test]
    fn norms_and_stats() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[2.0, 3.0]), 2.0);
    }

    #[test]
    fn vector_ops() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.dot(&b), 13.0);
        let mut c = Vector::zeros(2);
        c += &a;
        c -= &b;
        assert_eq!(c.as_slice(), &[-2.0, -3.0]);
    }

    #[test]
    fn fill_zero_keeps_len() {
        let mut v = Vector::from_slice(&[7.0; 4]);
        v.fill_zero();
        assert_eq!(v.as_slice(), &[0.0; 4]);
    }
}
