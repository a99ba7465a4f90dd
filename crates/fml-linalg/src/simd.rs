//! Explicit `f64x4` SIMD kernel layer: AVX2/FMA micro-kernels with runtime
//! dispatch, plus a scalar fallback that emulates the 4-lane shape exactly.
//!
//! Every hot kernel in [`crate::gemm`], [`crate::csr`] and [`crate::sparse`]
//! funnels its inner loop through the dispatchers in this module.  The layer
//! has three levels, resolved **once per process** (and overridable per
//! thread for tests and benchmarks):
//!
//! * [`SimdLevel::Scalar`] — the portable fallback.  Emulates the 4-lane
//!   vector shape with fixed-size arrays: four independent accumulators,
//!   lane-wise multiply-then-add, and the fixed reduction tree
//!   `(l0+l1)+(l2+l3)`.  This is byte-for-byte the arithmetic the blocked
//!   kernels have always used.
//! * [`SimdLevel::Lanes`] — AVX2 `f64x4` intrinsics doing *exactly the same
//!   arithmetic*: one `ymm` accumulator per 4-lane group, vertical
//!   `_mm256_mul_pd` + `_mm256_add_pd` (no FMA contraction — Rust never
//!   contracts `a*b + c` on its own, and neither do we here), and a horizontal
//!   reduce that mirrors the scalar tree.  **Bit-identical to `Scalar` on
//!   every input** — the `simd_equivalence` tests and the policy proptests
//!   pin this with `f64::to_bits` comparisons.
//! * [`SimdLevel::LanesFma`] — the opt-in fast mode (`FML_SIMD=fma`): multiple
//!   `ymm` accumulators fed by `_mm256_fmadd_pd`.  Fusing the multiply-add
//!   changes rounding (one rounding step instead of two) and the wider
//!   accumulator fan changes grouping, so this level is **allowed to differ**
//!   from the oracle; it is tolerance-tested (≤ a few ULPs relative) instead
//!   of bit-tested.
//!
//! ## Level selection
//!
//! The process-wide level is chosen on first use from the `FML_SIMD`
//! environment variable and CPU feature detection
//! (`is_x86_feature_detected!`):
//!
//! | `FML_SIMD` | resolved level |
//! |------------|----------------|
//! | unset / `auto` | `Lanes` when AVX2 is available, else `Scalar` |
//! | `off` / `scalar` / `0` | `Scalar` (forced fallback, any CPU) |
//! | `fma` | `LanesFma` when AVX2+FMA are available (else degrade + warn) |
//!
//! Invalid values fall back to `auto` with a one-time warning, mirroring
//! `FML_KERNEL_POLICY` / `FML_THREADS` resolution in [`crate::policy`].
//!
//! Kernels read the level **once at entry** ([`current_level`]), so a call
//! never observes a mid-kernel level change.
//!
//! ## Why the default mode changes no bits
//!
//! The blocked kernels' scalar inner loops were already written in 4-lane
//! shape (see `dot_unrolled` and the `MR×NR` micro-kernel in the original
//! `gemm.rs`).  IEEE-754 addition and multiplication are deterministic, and a
//! vertical AVX2 lane op performs the same scalar operation per lane in the
//! same order — so as long as the lane grouping and the reduction tree match,
//! the vector and scalar paths produce identical bits.  That is what lets
//! `FML_SIMD=off` serve as a true differential-testing oracle, and what keeps
//! the repo's `Naive`/`Blocked`/`BlockedParallel` cross-policy contracts
//! intact with SIMD on or off.
//!
//! On non-x86_64 targets every level degrades to the scalar fallback, so the
//! crate stays portable; the dispatchers also re-verify CPU features behind a
//! cached check, so even a hand-constructed `Lanes` level on a non-AVX2
//! machine safely runs the scalar path instead of hitting illegal
//! instructions.

use crate::gemm::{MR, NR};
use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------------
// Modes and levels
// ---------------------------------------------------------------------------

/// User-facing SIMD mode, parsed from `FML_SIMD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdMode {
    /// Force the scalar 4-lane-emulating fallback.
    Off,
    /// Use bit-exact AVX2 lanes when the CPU has them (the default).
    Auto,
    /// Opt into the FMA fast mode (results may differ from the oracle by a
    /// few ULPs).
    Fma,
}

impl SimdMode {
    /// Short lowercase label (`off` / `auto` / `fma`).
    pub fn label(self) -> &'static str {
        match self {
            SimdMode::Off => "off",
            SimdMode::Auto => "auto",
            SimdMode::Fma => "fma",
        }
    }
}

impl std::str::FromStr for SimdMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "scalar" | "0" | "none" => Ok(SimdMode::Off),
            "auto" | "on" | "lanes" => Ok(SimdMode::Auto),
            "fma" | "fast" => Ok(SimdMode::Fma),
            other => Err(format!(
                "unknown SIMD mode {other:?} (expected off|auto|fma)"
            )),
        }
    }
}

impl std::fmt::Display for SimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The resolved instruction level the dispatchers run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable scalar code in 4-lane shape (the bit-exact fallback).
    Scalar,
    /// AVX2 `f64x4` lanes, multiply-then-add — bit-identical to `Scalar`.
    Lanes,
    /// AVX2 + FMA fast mode — tolerance-equal to the oracle, not bit-equal.
    LanesFma,
}

impl SimdLevel {
    /// All levels, in increasing order of sophistication.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Lanes, SimdLevel::LanesFma];

    /// Short lowercase label (`scalar` / `lanes` / `fma`).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Lanes => "lanes",
            SimdLevel::LanesFma => "fma",
        }
    }

    /// Whether this level is guaranteed bit-identical to the scalar fallback.
    pub fn is_bit_exact(self) -> bool {
        !matches!(self, SimdLevel::LanesFma)
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Resolves a raw `FML_SIMD` value to a mode, with a warning for rejected
/// values (mirrors `resolve_policy_env` — typos must not silently change
/// which kernels benchmark).
pub(crate) fn resolve_simd_env(raw: Option<&str>) -> (SimdMode, Option<String>) {
    match raw {
        None => (SimdMode::Auto, None),
        Some(s) => match s.parse::<SimdMode>() {
            Ok(m) => (m, None),
            Err(e) => (
                SimdMode::Auto,
                Some(format!("FML_SIMD: {e}; falling back to `auto`")),
            ),
        },
    }
}

/// Maps a mode onto the level the detected CPU supports, warning when an
/// explicit request has to degrade (asking for `fma` on a CPU without it must
/// not be silent).
pub(crate) fn level_for(mode: SimdMode, avx2: bool, fma: bool) -> (SimdLevel, Option<String>) {
    match mode {
        SimdMode::Off => (SimdLevel::Scalar, None),
        SimdMode::Auto => {
            if avx2 {
                (SimdLevel::Lanes, None)
            } else {
                (SimdLevel::Scalar, None)
            }
        }
        SimdMode::Fma => {
            if avx2 && fma {
                (SimdLevel::LanesFma, None)
            } else if avx2 {
                (
                    SimdLevel::Lanes,
                    Some("FML_SIMD=fma: CPU lacks FMA; using bit-exact AVX2 lanes".to_string()),
                )
            } else {
                (
                    SimdLevel::Scalar,
                    Some("FML_SIMD=fma: CPU lacks AVX2; using the scalar fallback".to_string()),
                )
            }
        }
    }
}

const LEVEL_UNSET: u8 = u8::MAX;

static DEFAULT_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn level_to_u8(l: SimdLevel) -> u8 {
    match l {
        SimdLevel::Scalar => 0,
        SimdLevel::Lanes => 1,
        SimdLevel::LanesFma => 2,
    }
}

fn level_from_u8(v: u8) -> SimdLevel {
    match v {
        1 => SimdLevel::Lanes,
        2 => SimdLevel::LanesFma,
        _ => SimdLevel::Scalar,
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_features() -> (bool, bool) {
    (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_features() -> (bool, bool) {
    (false, false)
}

/// The process-wide SIMD level, resolved on first use from `FML_SIMD` and CPU
/// feature detection (tests and benches force a level with the scoped
/// [`override_level`]).
pub fn default_level() -> SimdLevel {
    let v = DEFAULT_LEVEL.load(Ordering::Relaxed);
    if v != LEVEL_UNSET {
        return level_from_u8(v);
    }
    static SIMD_WARNED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    let raw = std::env::var("FML_SIMD").ok();
    let (mode, mode_warning) = resolve_simd_env(raw.as_deref());
    let (avx2, fma) = detect_features();
    let (level, level_warning) = level_for(mode, avx2, fma);
    if let Some(msg) = mode_warning.or(level_warning) {
        fml_obs::warn_once(&SIMD_WARNED, &msg);
    }
    // Racing initializations agree (env and CPUID are stable), so a relaxed
    // store is fine.
    DEFAULT_LEVEL.store(level_to_u8(level), Ordering::Relaxed);
    // Unconditional gauge: the resolved level is a one-time scalar the
    // registry should always report, not per-record telemetry.
    fml_obs::gauge!("fml_simd_level").set(level_to_u8(level) as i64);
    level
}

std::thread_local! {
    /// Per-thread level override installed by [`override_level`].
    /// Thread-local so `cargo test`'s parallel test threads can force
    /// different levels without racing each other.
    static LEVEL_OVERRIDE: std::cell::Cell<Option<SimdLevel>> =
        const { std::cell::Cell::new(None) };
}

/// RAII guard for a scoped SIMD-level override (see [`override_level`]).
/// Dropping the guard restores the previous override, so guards nest.
#[derive(Debug)]
#[must_use = "the override is removed when the guard drops"]
pub struct SimdLevelGuard {
    prev: Option<SimdLevel>,
}

impl Drop for SimdLevelGuard {
    fn drop(&mut self) {
        LEVEL_OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Installs a SIMD-level override for the current thread until the returned
/// guard drops.  It does not follow work onto other threads: chunks a driver
/// dispatches to pool workers run at [`default_level`].
pub fn override_level(level: SimdLevel) -> SimdLevelGuard {
    let prev = LEVEL_OVERRIDE.with(|c| c.replace(Some(level)));
    SimdLevelGuard { prev }
}

/// Convenience wrapper running `f` under [`override_level`].
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    let _guard = override_level(level);
    f()
}

/// The level a kernel entered on this thread should use: the scoped override
/// when present, otherwise the process-wide [`default_level`].
pub fn current_level() -> SimdLevel {
    LEVEL_OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(default_level)
}

// ---------------------------------------------------------------------------
// Scalar fallback: the 4-lane shape in portable code
// ---------------------------------------------------------------------------

mod scalar {
    use super::{MR, NR};

    /// 4-lane dot product: four independent accumulators merged by the fixed
    /// tree `(l0+l1)+(l2+l3)`, sequential remainder.  This is the arithmetic
    /// `gemm::dot_unrolled` has used since PR 1 — one AVX2 `ymm` accumulator
    /// in scalar clothing.
    #[inline]
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        let quads = a.len() / 4 * 4;
        let mut acc = [0.0f64; 4];
        for (ca, cb) in a[..quads].chunks_exact(4).zip(b[..quads].chunks_exact(4)) {
            for l in 0..4 {
                acc[l] += ca[l] * cb[l];
            }
        }
        let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for (x, y) in a[quads..].iter().zip(b[quads..].iter()) {
            s += x * y;
        }
        s
    }

    /// `y += alpha * x`, element-wise (no accumulator grouping to mirror).
    #[inline]
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, xi) in y.iter_mut().zip(x.iter()) {
            *yi += alpha * xi;
        }
    }

    /// `dst += src`, element-wise.
    #[inline]
    pub fn add_assign(dst: &mut [f64], src: &[f64]) {
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d += s;
        }
    }

    /// `x *= alpha`, element-wise.
    #[inline]
    pub fn scale(alpha: f64, x: &mut [f64]) {
        for xi in x.iter_mut() {
            *xi *= alpha;
        }
    }

    /// The register-blocked `MR×NR` GEMM micro-kernel over packed panels —
    /// verbatim the scalar tile accumulation from `gemm.rs`.
    #[inline]
    pub fn microkernel(
        pa: &[f64],
        pb: &[f64],
        kb: usize,
        c: &mut [f64],
        ldc: usize,
        i0: usize,
        j0: usize,
    ) {
        let mut acc = [[0.0f64; NR]; MR];
        let pa = &pa[..kb * MR];
        let pb = &pb[..kb * NR];
        for (ak, bk) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
            for r in 0..MR {
                let arv = ak[r];
                for cc in 0..NR {
                    acc[r][cc] += arv * bk[cc];
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let base = (i0 + r) * ldc + j0;
            let crow = &mut c[base..base + NR];
            for (dst, &v) in crow.iter_mut().zip(acc_row.iter()) {
                *dst += v;
            }
        }
    }

    /// Strictly sequential sparse gather `Σ_t vals[t]·v[idx[t]]` — the CSR
    /// kernels' bit contract against the dense naive oracle requires this
    /// exact accumulation order.
    #[inline]
    pub fn gather_dot(v: &[f64], idx: &[u32], vals: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&i, &w) in idx.iter().zip(vals.iter()) {
            acc += w * v[i as usize];
        }
        acc
    }

    /// Sparse scatter `x[idx[t]] += alpha·vals[t]`.
    #[inline]
    pub fn scatter_axpy(alpha: f64, idx: &[u32], vals: &[f64], x: &mut [f64]) {
        for (&i, &w) in idx.iter().zip(vals.iter()) {
            x[i as usize] += alpha * w;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 / FMA lanes
// ---------------------------------------------------------------------------

/// The one module allowed to use `unsafe`: every function is an
/// `#[target_feature]` intrinsic body behind a safe wrapper that re-checks
/// CPU support (cached by `std`) and degrades to the scalar fallback instead
/// of faulting.  The wrappers keep the unsafety local and un-leakable: no
/// raw pointer or feature assumption escapes this module.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{scalar, MR, NR};
    use std::arch::is_x86_feature_detected;
    use std::arch::x86_64::*;

    #[inline]
    fn has_avx2() -> bool {
        // `is_x86_feature_detected!` caches in a std-internal atomic; this is
        // a relaxed load + test per call, noise next to any kernel body.
        is_x86_feature_detected!("avx2")
    }

    #[inline]
    fn has_fma() -> bool {
        is_x86_feature_detected!("fma") && has_avx2()
    }

    /// Horizontal reduce of one `ymm` with the fixed tree `(l0+l1)+(l2+l3)` —
    /// the exact merge order of the scalar 4-lane fallback.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum_tree(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v); // l0, l1
        let hi = _mm256_extractf128_pd(v, 1); // l2, l3
        let lo_sum = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)); // l0 + l1
        let hi_sum = _mm_add_sd(hi, _mm_unpackhi_pd(hi, hi)); // l2 + l3
        _mm_cvtsd_f64(_mm_add_sd(lo_sum, hi_sum))
    }

    /// Bit-exact lanes dot: one `ymm` accumulator, vertical mul-then-add —
    /// per lane the same `acc[l] += a[l]*b[l]` as the scalar fallback, and
    /// the same reduction tree.
    #[target_feature(enable = "avx2")]
    fn dot_lanes_impl(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let quads = n / 4 * 4;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_pd();
        let mut k = 0;
        while k < quads {
            // SAFETY: k+3 < quads <= n for both equally sized slices.
            let (va, vb) = unsafe { (_mm256_loadu_pd(pa.add(k)), _mm256_loadu_pd(pb.add(k))) };
            acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
            k += 4;
        }
        let mut s = hsum_tree(acc);
        for (x, y) in a[quads..].iter().zip(b[quads..].iter()) {
            s += x * y;
        }
        s
    }

    /// FMA fast-mode dot: four `ymm` accumulators (16 elements in flight)
    /// fed by `_mm256_fmadd_pd`, tree-merged, with a 4-wide then scalar
    /// `mul_add` remainder.  Different grouping and fused rounding — this is
    /// the level that is tolerance-equal, not bit-equal.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn dot_fma_impl(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let wide = n / 16 * 16;
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut k = 0;
        while k < wide {
            // SAFETY: k+15 < wide <= n for both equally sized slices.
            unsafe {
                acc0 =
                    _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(k)), _mm256_loadu_pd(pb.add(k)), acc0);
                acc1 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(pa.add(k + 4)),
                    _mm256_loadu_pd(pb.add(k + 4)),
                    acc1,
                );
                acc2 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(pa.add(k + 8)),
                    _mm256_loadu_pd(pb.add(k + 8)),
                    acc2,
                );
                acc3 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(pa.add(k + 12)),
                    _mm256_loadu_pd(pb.add(k + 12)),
                    acc3,
                );
            }
            k += 16;
        }
        let quads = n / 4 * 4;
        while k < quads {
            // SAFETY: k+3 < quads <= n.
            unsafe {
                acc0 =
                    _mm256_fmadd_pd(_mm256_loadu_pd(pa.add(k)), _mm256_loadu_pd(pb.add(k)), acc0);
            }
            k += 4;
        }
        let acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
        let mut s = hsum_tree(acc);
        for (x, y) in a[quads..].iter().zip(b[quads..].iter()) {
            s = x.mul_add(*y, s);
        }
        s
    }

    /// Bit-exact lanes AXPY: per element `y[i] += alpha*x[i]`, two roundings,
    /// exactly the scalar loop.  The main loop runs 16 elements (4 ymm) per
    /// iteration to keep the load/store ports busy; elementwise ops have no
    /// reduction order, so the unroll cannot change any bit of the result.
    #[target_feature(enable = "avx2")]
    fn axpy_lanes_impl(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let sixteens = n / 16 * 16;
        let quads = n / 4 * 4;
        let va = _mm256_set1_pd(alpha);
        let (px, py) = (x.as_ptr(), y.as_mut_ptr());
        let mut k = 0;
        while k < sixteens {
            // SAFETY: k+15 < sixteens <= n for both equally sized slices.
            unsafe {
                let p0 = _mm256_mul_pd(va, _mm256_loadu_pd(px.add(k)));
                let p1 = _mm256_mul_pd(va, _mm256_loadu_pd(px.add(k + 4)));
                let p2 = _mm256_mul_pd(va, _mm256_loadu_pd(px.add(k + 8)));
                let p3 = _mm256_mul_pd(va, _mm256_loadu_pd(px.add(k + 12)));
                _mm256_storeu_pd(py.add(k), _mm256_add_pd(_mm256_loadu_pd(py.add(k)), p0));
                _mm256_storeu_pd(
                    py.add(k + 4),
                    _mm256_add_pd(_mm256_loadu_pd(py.add(k + 4)), p1),
                );
                _mm256_storeu_pd(
                    py.add(k + 8),
                    _mm256_add_pd(_mm256_loadu_pd(py.add(k + 8)), p2),
                );
                _mm256_storeu_pd(
                    py.add(k + 12),
                    _mm256_add_pd(_mm256_loadu_pd(py.add(k + 12)), p3),
                );
            }
            k += 16;
        }
        while k < quads {
            // SAFETY: k+3 < quads <= n for both equally sized slices.
            unsafe {
                let prod = _mm256_mul_pd(va, _mm256_loadu_pd(px.add(k)));
                _mm256_storeu_pd(py.add(k), _mm256_add_pd(_mm256_loadu_pd(py.add(k)), prod));
            }
            k += 4;
        }
        for (yi, xi) in y[quads..].iter_mut().zip(x[quads..].iter()) {
            *yi += alpha * xi;
        }
    }

    /// FMA AXPY: `y[i] = fma(alpha, x[i], y[i])` — one rounding per element,
    /// 16 elements (4 ymm) per main-loop iteration.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn axpy_fma_impl(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let sixteens = n / 16 * 16;
        let quads = n / 4 * 4;
        let va = _mm256_set1_pd(alpha);
        let (px, py) = (x.as_ptr(), y.as_mut_ptr());
        let mut k = 0;
        while k < sixteens {
            // SAFETY: k+15 < sixteens <= n for both equally sized slices.
            unsafe {
                let r0 =
                    _mm256_fmadd_pd(va, _mm256_loadu_pd(px.add(k)), _mm256_loadu_pd(py.add(k)));
                let r1 = _mm256_fmadd_pd(
                    va,
                    _mm256_loadu_pd(px.add(k + 4)),
                    _mm256_loadu_pd(py.add(k + 4)),
                );
                let r2 = _mm256_fmadd_pd(
                    va,
                    _mm256_loadu_pd(px.add(k + 8)),
                    _mm256_loadu_pd(py.add(k + 8)),
                );
                let r3 = _mm256_fmadd_pd(
                    va,
                    _mm256_loadu_pd(px.add(k + 12)),
                    _mm256_loadu_pd(py.add(k + 12)),
                );
                _mm256_storeu_pd(py.add(k), r0);
                _mm256_storeu_pd(py.add(k + 4), r1);
                _mm256_storeu_pd(py.add(k + 8), r2);
                _mm256_storeu_pd(py.add(k + 12), r3);
            }
            k += 16;
        }
        while k < quads {
            // SAFETY: k+3 < quads <= n for both equally sized slices.
            unsafe {
                let r = _mm256_fmadd_pd(va, _mm256_loadu_pd(px.add(k)), _mm256_loadu_pd(py.add(k)));
                _mm256_storeu_pd(py.add(k), r);
            }
            k += 4;
        }
        for (yi, xi) in y[quads..].iter_mut().zip(x[quads..].iter()) {
            *yi = alpha.mul_add(*xi, *yi);
        }
    }

    /// `dst += src`, 4 lanes at a time (pure adds — identical at every level).
    #[target_feature(enable = "avx2")]
    fn add_assign_impl(dst: &mut [f64], src: &[f64]) {
        let n = dst.len();
        let quads = n / 4 * 4;
        let (pd, ps) = (dst.as_mut_ptr(), src.as_ptr());
        let mut k = 0;
        while k < quads {
            // SAFETY: k+3 < quads <= n for both equally sized slices.
            unsafe {
                let sum = _mm256_add_pd(_mm256_loadu_pd(pd.add(k)), _mm256_loadu_pd(ps.add(k)));
                _mm256_storeu_pd(pd.add(k), sum);
            }
            k += 4;
        }
        for (d, s) in dst[quads..].iter_mut().zip(src[quads..].iter()) {
            *d += s;
        }
    }

    /// `x *= alpha`, 4 lanes at a time (pure muls — identical at every level).
    #[target_feature(enable = "avx2")]
    fn scale_impl(alpha: f64, x: &mut [f64]) {
        let n = x.len();
        let quads = n / 4 * 4;
        let va = _mm256_set1_pd(alpha);
        let px = x.as_mut_ptr();
        let mut k = 0;
        while k < quads {
            // SAFETY: k+3 < quads <= n.
            unsafe {
                _mm256_storeu_pd(px.add(k), _mm256_mul_pd(va, _mm256_loadu_pd(px.add(k))));
            }
            k += 4;
        }
        for xi in x[quads..].iter_mut() {
            *xi *= alpha;
        }
    }

    /// Adds the finished register tile to `C` — shared by both micro-kernel
    /// variants; the tile add is a plain lane add at every level.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_tile(acc: &[[__m256d; 2]; MR], c: &mut [f64], ldc: usize, i0: usize, j0: usize) {
        for (r, acc_r) in acc.iter().enumerate() {
            let base = (i0 + r) * ldc + j0;
            let crow = c[base..base + NR].as_mut_ptr();
            // SAFETY: the slice above proves NR elements are in range.
            unsafe {
                _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), acc_r[0]));
                _mm256_storeu_pd(
                    crow.add(4),
                    _mm256_add_pd(_mm256_loadu_pd(crow.add(4)), acc_r[1]),
                );
            }
        }
    }

    /// Bit-exact lanes micro-kernel: the k-loop accumulates `MR` broadcast
    /// rows against two 4-lane halves of the packed B panel — per element
    /// the same `acc[r][cc] += a[r]*b[cc]` recurrence in the same k-order as
    /// the scalar tile.
    #[target_feature(enable = "avx2")]
    fn microkernel_lanes_impl(
        pa: &[f64],
        pb: &[f64],
        kb: usize,
        c: &mut [f64],
        ldc: usize,
        i0: usize,
        j0: usize,
    ) {
        debug_assert!(pa.len() >= kb * MR && pb.len() >= kb * NR);
        let mut acc = [[_mm256_setzero_pd(); 2]; MR];
        let (ppa, ppb) = (pa.as_ptr(), pb.as_ptr());
        for k in 0..kb {
            // SAFETY: k < kb, so k*NR+7 < kb*NR <= pb.len() and
            // k*MR+MR-1 < kb*MR <= pa.len().
            let (b0, b1) = unsafe {
                (
                    _mm256_loadu_pd(ppb.add(k * NR)),
                    _mm256_loadu_pd(ppb.add(k * NR + 4)),
                )
            };
            for (r, acc_r) in acc.iter_mut().enumerate() {
                // SAFETY: r < MR, covered by the bound above.
                let a = unsafe { _mm256_set1_pd(*ppa.add(k * MR + r)) };
                acc_r[0] = _mm256_add_pd(acc_r[0], _mm256_mul_pd(a, b0));
                acc_r[1] = _mm256_add_pd(acc_r[1], _mm256_mul_pd(a, b1));
            }
        }
        store_tile(&acc, c, ldc, i0, j0);
    }

    /// FMA micro-kernel: identical structure, fused multiply-adds in the
    /// k-loop.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn microkernel_fma_impl(
        pa: &[f64],
        pb: &[f64],
        kb: usize,
        c: &mut [f64],
        ldc: usize,
        i0: usize,
        j0: usize,
    ) {
        debug_assert!(pa.len() >= kb * MR && pb.len() >= kb * NR);
        let mut acc = [[_mm256_setzero_pd(); 2]; MR];
        let (ppa, ppb) = (pa.as_ptr(), pb.as_ptr());
        for k in 0..kb {
            // SAFETY: same bounds as the lanes variant.
            let (b0, b1) = unsafe {
                (
                    _mm256_loadu_pd(ppb.add(k * NR)),
                    _mm256_loadu_pd(ppb.add(k * NR + 4)),
                )
            };
            for (r, acc_r) in acc.iter_mut().enumerate() {
                // SAFETY: r < MR, covered by the bound above.
                let a = unsafe { _mm256_set1_pd(*ppa.add(k * MR + r)) };
                acc_r[0] = _mm256_fmadd_pd(a, b0, acc_r[0]);
                acc_r[1] = _mm256_fmadd_pd(a, b1, acc_r[1]);
            }
        }
        store_tile(&acc, c, ldc, i0, j0);
    }

    /// FMA sparse gather: 4 values at a time against a manually gathered
    /// 4-lane group of `v`, fused accumulate, fixed-tree reduce, `mul_add`
    /// remainder.  Only used at the `LanesFma` level — the bit-exact levels
    /// need the strictly sequential scalar order.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn gather_dot_fma_impl(v: &[f64], idx: &[u32], vals: &[f64]) -> f64 {
        let n = idx.len();
        let quads = n / 4 * 4;
        let mut acc = _mm256_setzero_pd();
        let mut t = 0;
        while t < quads {
            // Indexing through the safe `[]` operator keeps the documented
            // out-of-range panic; `_mm256_set_pd` takes lanes high-to-low.
            let g = _mm256_set_pd(
                v[idx[t + 3] as usize],
                v[idx[t + 2] as usize],
                v[idx[t + 1] as usize],
                v[idx[t] as usize],
            );
            // SAFETY: t+3 < quads <= vals.len() (checked by the caller's
            // idx/vals length contract).
            let w = unsafe { _mm256_loadu_pd(vals.as_ptr().add(t)) };
            acc = _mm256_fmadd_pd(w, g, acc);
            t += 4;
        }
        let mut s = hsum_tree(acc);
        for (&i, &w) in idx[quads..].iter().zip(vals[quads..].iter()) {
            s = w.mul_add(v[i as usize], s);
        }
        s
    }

    // ---- safe wrappers -----------------------------------------------------

    /// `a·b` via the AVX2 lane kernel, falling back to scalar off-AVX2.
    pub fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
        if has_avx2() {
            // SAFETY: AVX2 support verified at runtime.
            unsafe { dot_lanes_impl(a, b) }
        } else {
            scalar::dot(a, b)
        }
    }

    /// `a·b` via the FMA kernel, falling back to scalar off-FMA.
    pub fn dot_fma(a: &[f64], b: &[f64]) -> f64 {
        if has_fma() {
            // SAFETY: AVX2+FMA support verified at runtime.
            unsafe { dot_fma_impl(a, b) }
        } else {
            scalar::dot(a, b)
        }
    }

    /// `y += alpha·x` via the AVX2 lane kernel, scalar off-AVX2.
    pub fn axpy_lanes(alpha: f64, x: &[f64], y: &mut [f64]) {
        if has_avx2() {
            // SAFETY: AVX2 support verified at runtime.
            unsafe { axpy_lanes_impl(alpha, x, y) }
        } else {
            scalar::axpy(alpha, x, y);
        }
    }

    /// `y += alpha·x` via the FMA kernel, scalar off-FMA.
    pub fn axpy_fma(alpha: f64, x: &[f64], y: &mut [f64]) {
        if has_fma() {
            // SAFETY: AVX2+FMA support verified at runtime.
            unsafe { axpy_fma_impl(alpha, x, y) }
        } else {
            scalar::axpy(alpha, x, y);
        }
    }

    /// `dst += src` via the AVX2 lane kernel, scalar off-AVX2.
    pub fn add_assign(dst: &mut [f64], src: &[f64]) {
        if has_avx2() {
            // SAFETY: AVX2 support verified at runtime.
            unsafe { add_assign_impl(dst, src) }
        } else {
            scalar::add_assign(dst, src);
        }
    }

    /// `x *= alpha` via the AVX2 lane kernel, scalar off-AVX2.
    pub fn scale(alpha: f64, x: &mut [f64]) {
        if has_avx2() {
            // SAFETY: AVX2 support verified at runtime.
            unsafe { scale_impl(alpha, x) }
        } else {
            scalar::scale(alpha, x);
        }
    }

    /// The 4×4 GEMM microkernel via AVX2 lanes, scalar off-AVX2.
    pub fn microkernel_lanes(
        pa: &[f64],
        pb: &[f64],
        kb: usize,
        c: &mut [f64],
        ldc: usize,
        i0: usize,
        j0: usize,
    ) {
        if has_avx2() {
            // SAFETY: AVX2 support verified at runtime.
            unsafe { microkernel_lanes_impl(pa, pb, kb, c, ldc, i0, j0) }
        } else {
            scalar::microkernel(pa, pb, kb, c, ldc, i0, j0);
        }
    }

    /// The 4×4 GEMM microkernel via FMA, scalar off-FMA.
    pub fn microkernel_fma(
        pa: &[f64],
        pb: &[f64],
        kb: usize,
        c: &mut [f64],
        ldc: usize,
        i0: usize,
        j0: usize,
    ) {
        if has_fma() {
            // SAFETY: AVX2+FMA support verified at runtime.
            unsafe { microkernel_fma_impl(pa, pb, kb, c, ldc, i0, j0) }
        } else {
            scalar::microkernel(pa, pb, kb, c, ldc, i0, j0);
        }
    }

    /// Sparse gather-dot `Σ vals[t]·v[idx[t]]` via FMA, scalar off-FMA.
    pub fn gather_dot_fma(v: &[f64], idx: &[u32], vals: &[f64]) -> f64 {
        if has_fma() {
            // SAFETY: AVX2+FMA support verified at runtime.
            unsafe { gather_dot_fma_impl(v, idx, vals) }
        } else {
            scalar::gather_dot(v, idx, vals)
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatchers
// ---------------------------------------------------------------------------

/// Dot product at an explicit level.
///
/// `Scalar` and `Lanes` produce identical bits (4-lane groups, mul-then-add,
/// fixed reduction tree); `LanesFma` uses wide fused accumulators and is
/// tolerance-equal only.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline]
pub fn dot(level: SimdLevel, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "simd::dot: dimension mismatch");
    match level {
        SimdLevel::Scalar => scalar::dot(a, b),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Lanes => x86::dot_lanes(a, b),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::LanesFma => x86::dot_fma(a, b),
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::dot(a, b),
    }
}

/// `y += alpha * x` at an explicit level.  Element-wise, so `Scalar` and
/// `Lanes` are bit-identical; `LanesFma` fuses the multiply-add (one rounding
/// per element instead of two).
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline]
pub fn axpy(level: SimdLevel, alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "simd::axpy: dimension mismatch");
    match level {
        SimdLevel::Scalar => scalar::axpy(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Lanes => x86::axpy_lanes(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::LanesFma => x86::axpy_fma(alpha, x, y),
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::axpy(alpha, x, y),
    }
}

/// `dst += src` at an explicit level.  Pure lane-wise adds — identical bits
/// at **every** level, including `LanesFma` (there is nothing to fuse), which
/// is what lets the multiply-free one-hot kernels keep their exactness
/// contract even in fast mode.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline]
pub fn add_assign(level: SimdLevel, dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "simd::add_assign: dimension mismatch");
    match level {
        SimdLevel::Scalar => scalar::add_assign(dst, src),
        #[cfg(target_arch = "x86_64")]
        _ => x86::add_assign(dst, src),
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::add_assign(dst, src),
    }
}

/// `x *= alpha` at an explicit level.  Pure lane-wise muls — identical bits
/// at every level.
#[inline]
pub fn scale(level: SimdLevel, alpha: f64, x: &mut [f64]) {
    match level {
        SimdLevel::Scalar => scalar::scale(alpha, x),
        #[cfg(target_arch = "x86_64")]
        _ => x86::scale(alpha, x),
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::scale(alpha, x),
    }
}

/// The `MR×NR` GEMM micro-kernel at an explicit level: accumulates `kb`
/// packed outer products into a register tile, then adds the tile to `C`.
///
/// `Scalar` and `Lanes` perform the identical per-element
/// `acc[r][cc] += a[r]·b[cc]` recurrence in the same k-order, so they are
/// bit-identical; `LanesFma` fuses the k-loop multiply-adds.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the BLIS micro-kernel ABI: packed panels + C tile coords
pub fn microkernel(
    level: SimdLevel,
    pa: &[f64],
    pb: &[f64],
    kb: usize,
    c: &mut [f64],
    ldc: usize,
    i0: usize,
    j0: usize,
) {
    match level {
        SimdLevel::Scalar => scalar::microkernel(pa, pb, kb, c, ldc, i0, j0),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Lanes => x86::microkernel_lanes(pa, pb, kb, c, ldc, i0, j0),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::LanesFma => x86::microkernel_fma(pa, pb, kb, c, ldc, i0, j0),
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::microkernel(pa, pb, kb, c, ldc, i0, j0),
    }
}

/// Sparse gather `Σ_t vals[t]·v[idx[t]]` at an explicit level.
///
/// The bit-exact levels (`Scalar`, `Lanes`) both run the strictly sequential
/// scalar loop — the CSR exactness contract against the dense naive oracle
/// fixes the accumulation order, and a 4-lane regrouping would break it.
/// `LanesFma` vectorizes the gather with fused accumulates (tolerance-equal).
///
/// # Panics
/// Panics when `idx` and `vals` have different lengths, or an index is out of
/// range for `v`.
#[inline]
pub fn gather_dot(level: SimdLevel, v: &[f64], idx: &[u32], vals: &[f64]) -> f64 {
    assert_eq!(
        idx.len(),
        vals.len(),
        "simd::gather_dot: index/value length mismatch"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::LanesFma => x86::gather_dot_fma(v, idx, vals),
        _ => scalar::gather_dot(v, idx, vals),
    }
}

/// Sparse scatter `x[idx[t]] += alpha·vals[t]` at an explicit level.
///
/// Scatters have no vector form worth having on AVX2 (no scatter store), so
/// every level runs the scalar loop; `LanesFma` fuses the per-element
/// multiply-add, which is the only difference.
///
/// # Panics
/// Panics when `idx` and `vals` have different lengths, or an index is out of
/// range for `x`.
#[inline]
pub fn scatter_axpy(level: SimdLevel, alpha: f64, idx: &[u32], vals: &[f64], x: &mut [f64]) {
    assert_eq!(
        idx.len(),
        vals.len(),
        "simd::scatter_axpy: index/value length mismatch"
    );
    match level {
        SimdLevel::LanesFma => {
            for (&i, &w) in idx.iter().zip(vals.iter()) {
                x[i as usize] = alpha.mul_add(w, x[i as usize]);
            }
        }
        _ => scalar::scatter_axpy(alpha, idx, vals, x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, salt: u64) -> Vec<f64> {
        crate::testutil::TestRng::new(salt).vec_in(n, -1.0, 1.0)
    }

    /// Lengths chosen to hit every remainder path: empty, below one lane
    /// group, exact groups, `n % 4 ≠ 0`, and the 16-wide FMA boundary.
    const LENS: [usize; 10] = [0, 1, 2, 3, 4, 5, 7, 16, 17, 61];

    #[test]
    fn mode_labels_and_parsing_roundtrip() {
        for m in [SimdMode::Off, SimdMode::Auto, SimdMode::Fma] {
            assert_eq!(m.label().parse::<SimdMode>().unwrap(), m);
        }
        assert_eq!("scalar".parse::<SimdMode>().unwrap(), SimdMode::Off);
        assert!("bogus".parse::<SimdMode>().is_err());
    }

    #[test]
    fn env_resolution_warns_on_invalid_values() {
        assert_eq!(resolve_simd_env(None), (SimdMode::Auto, None));
        assert_eq!(resolve_simd_env(Some("off")), (SimdMode::Off, None));
        assert_eq!(resolve_simd_env(Some("fma")), (SimdMode::Fma, None));
        let (m, warning) = resolve_simd_env(Some("avx512"));
        assert_eq!(m, SimdMode::Auto);
        let msg = warning.expect("invalid mode must warn");
        assert!(msg.contains("avx512"), "warning must name the value: {msg}");
    }

    #[test]
    fn level_resolution_degrades_with_missing_features() {
        assert_eq!(level_for(SimdMode::Off, true, true).0, SimdLevel::Scalar);
        assert_eq!(level_for(SimdMode::Auto, true, true).0, SimdLevel::Lanes);
        assert_eq!(level_for(SimdMode::Auto, false, false).0, SimdLevel::Scalar);
        assert_eq!(level_for(SimdMode::Fma, true, true).0, SimdLevel::LanesFma);
        // asking for fma without the features degrades loudly
        let (l, w) = level_for(SimdMode::Fma, true, false);
        assert_eq!(l, SimdLevel::Lanes);
        assert!(w.expect("degrade must warn").contains("FMA"));
        let (l, w) = level_for(SimdMode::Fma, false, false);
        assert_eq!(l, SimdLevel::Scalar);
        assert!(w.expect("degrade must warn").contains("AVX2"));
    }

    #[test]
    fn override_guard_nests_and_restores() {
        let before = current_level();
        {
            let _outer = override_level(SimdLevel::Scalar);
            assert_eq!(current_level(), SimdLevel::Scalar);
            {
                let _inner = override_level(SimdLevel::LanesFma);
                assert_eq!(current_level(), SimdLevel::LanesFma);
            }
            assert_eq!(current_level(), SimdLevel::Scalar);
        }
        assert_eq!(current_level(), before);
    }

    #[test]
    fn override_is_thread_local() {
        let _guard = override_level(SimdLevel::Scalar);
        let seen = std::thread::spawn(current_level).join().unwrap();
        assert_eq!(seen, default_level());
    }

    #[test]
    fn lanes_dot_is_bit_identical_to_scalar() {
        for &n in &LENS {
            let a = pseudo(n, 100 + n as u64);
            let b = pseudo(n, 200 + n as u64);
            let s = dot(SimdLevel::Scalar, &a, &b);
            let l = dot(SimdLevel::Lanes, &a, &b);
            assert_eq!(s.to_bits(), l.to_bits(), "n={n}: {s} vs {l}");
        }
    }

    #[test]
    fn fma_dot_is_tolerance_equal_to_scalar() {
        for &n in &LENS {
            let a = pseudo(n, 300 + n as u64);
            let b = pseudo(n, 400 + n as u64);
            let s = dot(SimdLevel::Scalar, &a, &b);
            let f = dot(SimdLevel::LanesFma, &a, &b);
            assert!(
                crate::approx_eq(s, f, 1e-12),
                "n={n}: {s} vs {f} differ beyond tolerance"
            );
        }
    }

    #[test]
    fn lanes_axpy_scale_add_are_bit_identical_to_scalar() {
        for &n in &LENS {
            let x = pseudo(n, 500 + n as u64);
            let y0 = pseudo(n, 600 + n as u64);
            let mut ys = y0.clone();
            let mut yl = y0.clone();
            axpy(SimdLevel::Scalar, 0.37, &x, &mut ys);
            axpy(SimdLevel::Lanes, 0.37, &x, &mut yl);
            assert_eq!(ys, yl, "axpy n={n}");

            let mut ds = y0.clone();
            let mut dl = y0.clone();
            add_assign(SimdLevel::Scalar, &mut ds, &x);
            add_assign(SimdLevel::Lanes, &mut dl, &x);
            // add_assign is add-only, so even the FMA level matches exactly
            let mut df = y0.clone();
            add_assign(SimdLevel::LanesFma, &mut df, &x);
            assert_eq!(ds, dl, "add n={n}");
            assert_eq!(ds, df, "add fma n={n}");

            let mut ss = y0.clone();
            let mut sl = y0.clone();
            let mut sf = y0.clone();
            scale(SimdLevel::Scalar, -1.75, &mut ss);
            scale(SimdLevel::Lanes, -1.75, &mut sl);
            scale(SimdLevel::LanesFma, -1.75, &mut sf);
            assert_eq!(ss, sl, "scale n={n}");
            assert_eq!(ss, sf, "scale fma n={n}");
        }
    }

    #[test]
    fn microkernel_levels_agree() {
        let kb = 13; // odd depth exercises the k-loop without alignment help
        let pa = pseudo(kb * MR, 7);
        let pb = pseudo(kb * NR, 8);
        let c0 = pseudo(MR * NR, 9);
        let run = |level| {
            let mut c = c0.clone();
            microkernel(level, &pa, &pb, kb, &mut c, NR, 0, 0);
            c
        };
        let s = run(SimdLevel::Scalar);
        let l = run(SimdLevel::Lanes);
        assert_eq!(s, l, "lanes micro-kernel must match scalar bits");
        let f = run(SimdLevel::LanesFma);
        for (a, b) in s.iter().zip(f.iter()) {
            assert!(
                crate::approx_eq(*a, *b, 1e-12),
                "fma tile diverged: {a} vs {b}"
            );
        }
    }

    #[test]
    fn gather_and_scatter_levels_agree() {
        let v = pseudo(50, 10);
        let idx: Vec<u32> = vec![0, 3, 7, 11, 19, 23, 31, 42, 49];
        let vals = pseudo(idx.len(), 11);
        let s = gather_dot(SimdLevel::Scalar, &v, &idx, &vals);
        let l = gather_dot(SimdLevel::Lanes, &v, &idx, &vals);
        assert_eq!(
            s.to_bits(),
            l.to_bits(),
            "lanes gather must keep scalar order"
        );
        let f = gather_dot(SimdLevel::LanesFma, &v, &idx, &vals);
        assert!(crate::approx_eq(s, f, 1e-12), "{s} vs {f}");

        let mut xs = v.clone();
        let mut xl = v.clone();
        scatter_axpy(SimdLevel::Scalar, 0.9, &idx, &vals, &mut xs);
        scatter_axpy(SimdLevel::Lanes, 0.9, &idx, &vals, &mut xl);
        assert_eq!(xs, xl);
        let mut xf = v.clone();
        scatter_axpy(SimdLevel::LanesFma, 0.9, &idx, &vals, &mut xf);
        for (a, b) in xs.iter().zip(xf.iter()) {
            assert!(crate::approx_eq(*a, *b, 1e-12));
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_mismatch_panics() {
        dot(SimdLevel::Scalar, &[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_out_of_range_panics() {
        gather_dot(current_level(), &[1.0, 2.0], &[5], &[1.0]);
    }
}
