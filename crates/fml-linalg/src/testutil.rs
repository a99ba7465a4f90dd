//! Deterministic pseudo-random streams for tests and benches.
//!
//! One SplitMix64 implementation shared by the property-test suites and the
//! bench harness, so the constants and any bias fixes live in exactly one
//! place.  Not part of the crate's public API surface (`doc(hidden)` at the
//! re-export); semver guarantees do not apply.

/// Deterministic SplitMix64 stream for deriving arbitrary test inputs.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates a stream; equal seeds give equal sequences.
    pub fn new(seed: u64) -> Self {
        TestRng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "TestRng::range_u64: empty range");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit_f64() * (hi - lo)
    }

    /// Fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A vector of uniform draws from `[lo, hi)`.
    pub fn vec_in(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.f64_in(lo, hi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let mut a = TestRng::new(3);
        let mut b = TestRng::new(3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..1000 {
            let v = a.range(2, 9);
            assert!((2..9).contains(&v));
            let f = a.f64_in(-5.0, 5.0);
            assert!((-5.0..5.0).contains(&f));
        }
        assert_eq!(a.vec_in(7, 0.0, 1.0).len(), 7);
    }
}
