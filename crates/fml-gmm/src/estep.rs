//! The factorized E-step: the one place the `UL + PD_Sᵀw + LR` arithmetic of
//! Equations 7–12 (binary joins) and 19–21 (star joins) lives.
//!
//! The Mahalanobis form of a joined row decomposes along the relation
//! partition `[d_S | d_{R_1} | … | d_{R_q}]` into a `(q+1)×(q+1)` grid.  Every
//! cell that depends only on a dimension tuple is evaluated **once per
//! distinct tuple** into a flat row ([`EStep::fill_row`]) and reused per
//! matching fact ([`EStep::log_densities`]); this is where each cell is paid:
//!
//! | grid cell | paid in `fill_row` | per-fact remainder |
//! |---|---|---|
//! | `(0,0)` fact × fact | — | a `d_S×d_S` form (gathers for a sparse fact) |
//! | `(0,i)`, `(i,0)` fact × dimension | the cross vector `w = I_{0i}·PD_i + I_{i0}ᵀ·PD_i` and `µ_Sᵀ·w` | one dot of length `d_S` (`gather(w) − µ_Sᵀw` for a sparse fact) |
//! | `(i,i)` dimension diagonal | `PD_iᵀ I_{ii} PD_i` | one scalar add |
//! | `(i,j)`, `(j,i)` dimension × dimension | per tuple of the **wider** dimension `w`: the partner vector `I_{n,w}·PD_w + I_{w,n}ᵀ·PD_w` | one dot of the **narrower** width `d_n` |
//!
//! So a fact costs `O(d_S² + q·d_S + Σ_{i<j} min(d_i, d_j))` per component,
//! against `O(d²)` for the joined row (`d = d_S + Σ d_i`); the `d_i × d_j`
//! blocks are touched once per distinct tuple of the wider side.
//!
//! Callers: the `F-GMM` trainer (one arena row per dimension-tuple ordinal,
//! for every `q`) and the batch scorer, whose materialized and streaming
//! strategies rebuild the same rows per joined row through the same two
//! functions — which is why all three scoring strategies agree bit for bit.

use crate::model::Precomputed;
use crate::sparse::SparseFormPre;
use fml_linalg::block::{BlockPartition, BlockQuadraticForm};
use fml_linalg::sparse::{SparseMode, SparseRep};
use fml_linalg::{gemm, vector, KernelPolicy};
use std::ops::Range;

/// Where one dimension's per-(tuple, component) quantities sit inside its
/// rows.  A referenced tuple owns two: the E-step row [`EStep::fill_row`]
/// writes, and the aggregate row the trainer sums into during the same scan
/// — the same slots without `pd` (the `agg_*` accessors), because what a
/// fact's terms are dotted with in the E-step is what they are accumulated
/// into for the M-step.  Every `PD` is centred on the iteration's starting
/// means:
///
/// | slot | E-step row | aggregate row |
/// |---|---|---|
/// | `pd` (`d_i`) | `PD_i` | — |
/// | `fact` (`d_S`) | `w = I_{0i}·PD_i + I_{i0}ᵀ·PD_i` | `Σ γ·PD_S` over the dense facts `+ Σ γ·x_S` over the sparse ones |
/// | `scalar` | `PD_iᵀ I_{ii} PD_i` | `Σ γ` |
/// | `mu_dot` | `µ_Sᵀ·w` | `Σ γ` over the sparse facts (what `fact` still owes `µ_S`) |
/// | one per partner `n` (`d_n`) | `I_{n,i}·PD_i + I_{i,n}ᵀ·PD_i` | `Σ γ·PD_n` |
pub(crate) struct DimLayout {
    /// Block width `d_i`.
    pub(crate) d: usize,
    /// Fact block width `d_S`.
    d_s: usize,
    /// `(dimension, slot offset)` of every narrower-or-equal dimension this
    /// one is the wide side of; each unordered dimension pair appears under
    /// exactly one of its two dimensions (the lower index on a tie).
    pub(crate) partners: Vec<(usize, usize)>,
    /// Values per (tuple, component).
    pub(crate) len: usize,
}

impl DimLayout {
    /// Layouts of all `q` dimensions for the partition `[d_S, d_1, …, d_q]`.
    pub(crate) fn all(sizes: &[usize]) -> Vec<DimLayout> {
        let q = sizes.len() - 1;
        (0..q)
            .map(|i| {
                let (d, d_s) = (sizes[i + 1], sizes[0]);
                let mut len = d + d_s + 2;
                let mut partners = Vec::new();
                for n in 0..q {
                    let d_n = sizes[n + 1];
                    let wide = d > d_n || (d == d_n && i < n);
                    if wide {
                        partners.push((n, len));
                        len += d_n;
                    }
                }
                DimLayout {
                    d,
                    d_s,
                    partners,
                    len,
                }
            })
            .collect()
    }

    pub(crate) fn pd(&self) -> Range<usize> {
        0..self.d
    }

    pub(crate) fn fact(&self) -> Range<usize> {
        self.d..self.d + self.d_s
    }

    pub(crate) fn scalar(&self) -> usize {
        self.d + self.d_s
    }

    pub(crate) fn mu_dot(&self) -> usize {
        self.d + self.d_s + 1
    }

    /// Values per (tuple, component) of the aggregate row.
    pub(crate) fn agg_len(&self) -> usize {
        self.len - self.d
    }

    pub(crate) fn agg_fact(&self) -> Range<usize> {
        0..self.d_s
    }

    pub(crate) fn agg_scalar(&self) -> usize {
        self.d_s
    }

    pub(crate) fn agg_mu_dot(&self) -> usize {
        self.d_s + 1
    }

    /// The aggregate slot of `partner`, which sits at `off` in the E-step row.
    pub(crate) fn agg_partner(&self, off: usize, partner: &DimLayout) -> Range<usize> {
        off - self.d..off - self.d + partner.d
    }
}

/// `I_{to,from}·pd + I_{from,to}ᵀ·pd`: all that block `to` needs from a
/// `from`-block tuple to evaluate both of their cross cells with one dot.
fn cross_vector(
    form: &BlockQuadraticForm,
    to: usize,
    from: usize,
    pd: &[f64],
    kp: KernelPolicy,
) -> Vec<f64> {
    let mut w = form.block_times(to, from, pd);
    let w2 = gemm::matvec_transposed_with(kp, form.block(from, to), pd);
    vector::axpy(1.0, &w2, &mut w);
    w
}

/// One model's E-step over one relation partition: the covariance inverses
/// and log-normalizers ([`Precomputed`]), their relation-aligned blocks, the
/// split means and (under [`SparseMode::Auto`]) the sparse decomposition
/// constants — built once per EM iteration by the trainers, once per batch by
/// the scorer.
pub struct EStep {
    /// The unpartitioned precomputation; callers finish each fact with
    /// [`Precomputed::finish_responsibilities`].
    pub pre: Precomputed,
    forms: Vec<BlockQuadraticForm>,
    means_split: Vec<Vec<Vec<f64>>>,
    layouts: Vec<DimLayout>,
    /// `sparse_pre[c][i]` serves component `c`, dimension `i`; empty unless
    /// the run detects sparse tuples.
    sparse_pre: Vec<Vec<SparseFormPre>>,
    /// Fact-block diagonal constants per component; empty like `sparse_pre`.
    fact_pre: Vec<SparseFormPre>,
    kp: KernelPolicy,
}

impl EStep {
    /// Partitions `pre` along `partition` under the sequential kernel policy
    /// `kp`.  `sparse` is the run's detection mode: under
    /// [`SparseMode::Dense`] no tuple ever carries a [`SparseRep`], so the
    /// `O(k·d²)` sparse constants are not built.
    pub fn new(
        pre: Precomputed,
        partition: &BlockPartition,
        sparse: SparseMode,
        kp: KernelPolicy,
    ) -> Self {
        let forms = pre.block_forms_with(partition, kp);
        let means_split = pre.split_means(partition);
        let (sparse_pre, fact_pre) = if sparse == SparseMode::Auto {
            (
                SparseFormPre::build_all(&forms, &means_split, partition.num_blocks(), kp),
                forms
                    .iter()
                    .zip(&means_split)
                    .map(|(form, mu)| SparseFormPre::build_diag(form, 0, &mu[0], kp))
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Self {
            pre,
            forms,
            means_split,
            layouts: DimLayout::all(partition.sizes()),
            sparse_pre,
            fact_pre,
            kp,
        }
    }

    /// Number of mixture components.
    pub fn k(&self) -> usize {
        self.forms.len()
    }

    /// Width `d_S` of the fact block (the `pd_s` scratch of
    /// [`EStep::log_densities`]).
    pub fn fact_width(&self) -> usize {
        self.means_split[0][0].len()
    }

    /// Length of dimension `i`'s row (0-based; all components).
    pub fn row_len(&self, i: usize) -> usize {
        self.k() * self.layouts[i].len
    }

    /// Fills the row of one tuple of dimension `i` (all components).  Sparse
    /// tuples (`rep` given) compute the diagonal and fact-cross quantities
    /// through the mean decomposition (gathers only); in a star join the
    /// centered vector is still materialized, because the partner vectors
    /// towards other dimension blocks evaluate densely.
    pub fn fill_row(&self, i: usize, features: &[f64], rep: Option<&SparseRep>, row: &mut [f64]) {
        let (lay, block) = (&self.layouts[i], i + 1);
        for (c, entry) in row.chunks_exact_mut(lay.len).enumerate() {
            let form = &self.forms[c];
            let (pd, rest) = entry.split_at_mut(lay.d);
            if rep.is_none() || self.layouts.len() > 1 {
                vector::sub_into(features, &self.means_split[c][block], pd);
            }
            let (diag, cross_s) = match rep {
                Some(rep) => {
                    let pre = &self.sparse_pre[c][i];
                    (
                        pre.diag_term(form, block, rep),
                        pre.cross_vector(form, block, rep, self.kp),
                    )
                }
                None => (
                    form.term(block, block, pd, pd),
                    cross_vector(form, 0, block, pd, self.kp),
                ),
            };
            rest[..lay.d_s].copy_from_slice(&cross_s);
            rest[lay.d_s] = diag;
            rest[lay.d_s + 1] = vector::dot(&self.means_split[c][0], &cross_s);
            for &(n, off) in &lay.partners {
                let u = cross_vector(form, n + 1, block, pd, self.kp);
                rest[off - lay.d..off - lay.d + u.len()].copy_from_slice(&u);
            }
        }
    }

    /// Per-component log-densities of one fact into `out`, given the filled
    /// row of every dimension tuple it references (`rows[i]` for dimension
    /// `i`).  `pd_s` is scratch of [`EStep::fact_width`] values.  The terms
    /// are added in one fixed order — fact diagonal, then per dimension its
    /// diagonal, fact cross and partner cells — whoever the caller is.
    pub fn log_densities(
        &self,
        fact: &[f64],
        fact_rep: Option<&SparseRep>,
        rows: &[&[f64]],
        pd_s: &mut [f64],
        out: &mut [f64],
    ) {
        for (c, ld) in out.iter_mut().enumerate() {
            let mut quad = match fact_rep {
                Some(rep) => self.fact_pre[c].diag_term(&self.forms[c], 0, rep),
                None => {
                    vector::sub_into(fact, &self.means_split[c][0], pd_s);
                    self.forms[c].term(0, 0, pd_s, pd_s)
                }
            };
            for (lay, row) in self.layouts.iter().zip(rows) {
                let e = &row[c * lay.len..(c + 1) * lay.len];
                let w = &e[lay.fact()];
                quad += e[lay.scalar()]
                    + match fact_rep {
                        Some(rep) => rep.gather_dot(w) - e[lay.mu_dot()],
                        None => vector::dot(pd_s, w),
                    };
                // cross cells towards the narrower dimensions
                for &(n, off) in &lay.partners {
                    let ln = &self.layouts[n];
                    let en = &rows[n][c * ln.len..];
                    quad += vector::dot(&en[ln.pd()], &e[off..off + ln.d]);
                }
            }
            *ld = self.pre.log_norm[c] - 0.5 * quad;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GmmModel;
    use fml_linalg::testutil::TestRng;
    use fml_linalg::{Matrix, Vector};

    /// A `k`-component model over `d` features with random means and
    /// well-conditioned full covariances `A·Aᵀ/d + I`.
    fn model(rng: &mut TestRng, k: usize, d: usize) -> GmmModel {
        let covariance = |rng: &mut TestRng| {
            let a = Matrix::from_vec(d, d, rng.vec_in(d * d, -1.0, 1.0));
            let mut cov = Matrix::identity(d);
            for i in 0..d {
                for j in 0..d {
                    cov[(i, j)] += vector::dot(a.row(i), a.row(j)) / d as f64;
                }
            }
            cov
        };
        GmmModel::new(
            (1..=k)
                .map(|c| c as f64 / (k * (k + 1) / 2) as f64)
                .collect(),
            (0..k)
                .map(|_| Vector::from_vec(rng.vec_in(d, -1.0, 1.0)))
                .collect(),
            (0..k).map(|_| covariance(rng)).collect(),
        )
    }

    /// One block of width `w`: dense (`kind` 0), one-hot (1) or CSR (2), with
    /// the representation the trainers' detection would hand the engine.
    fn block(rng: &mut TestRng, w: usize, kind: usize) -> (Vec<f64>, Option<SparseRep>) {
        if kind == 0 {
            return (rng.vec_in(w, -2.0, 2.0), None);
        }
        let idx: Vec<u32> = (0..w as u32).filter(|_| rng.bool()).collect();
        let vals: Vec<f64> = idx
            .iter()
            .map(|_| if kind == 1 { 1.0 } else { rng.f64_in(0.5, 3.0) })
            .collect();
        let mut x = vec![0.0; w];
        for (&i, &v) in idx.iter().zip(&vals) {
            x[i as usize] = v;
        }
        let rep = if kind == 1 {
            SparseRep::OneHot(idx)
        } else {
            SparseRep::Csr { idx, vals }
        };
        (x, Some(rep))
    }

    /// `log_densities` over `fill_row` rows equals the dense reference on the
    /// joined row, for `q ∈ {1, 2, 3}` (either dimension the wide side, a
    /// width tie), every tuple flavor, dense and one-hot facts.
    #[test]
    fn factorized_e_step_matches_the_dense_reference() {
        let partitions: [&[usize]; 5] =
            [&[3, 5], &[2, 3, 5], &[2, 5, 3], &[2, 4, 4], &[1, 3, 5, 3]];
        let mut rng = TestRng::new(41);
        for sizes in partitions {
            let partition = BlockPartition::new(sizes);
            let (k, q) = (3, sizes.len() - 1);
            let pre = Precomputed::from_model(&model(&mut rng, k, partition.total_dim()), 0.0);
            for kp in [KernelPolicy::Naive, KernelPolicy::Blocked] {
                let estep = EStep::new(pre.clone(), &partition, SparseMode::Auto, kp);
                assert_eq!((estep.k(), estep.fact_width()), (k, sizes[0]));
                for trial in 0..18 {
                    let (fact, fact_rep) = block(&mut rng, sizes[0], trial % 2);
                    let mut joined = fact.clone();
                    let mut rows: Vec<Vec<f64>> = Vec::new();
                    for i in 0..q {
                        let (x, rep) = block(&mut rng, sizes[i + 1], (trial / 2 + i) % 3);
                        let mut row = vec![f64::NAN; estep.row_len(i)];
                        estep.fill_row(i, &x, rep.as_ref(), &mut row);
                        rows.push(row);
                        joined.extend_from_slice(&x);
                    }
                    let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
                    let mut log_dens = vec![0.0; k];
                    let mut pd_s = vec![0.0; sizes[0]];
                    estep.log_densities(&fact, fact_rep.as_ref(), &rows, &mut pd_s, &mut log_dens);
                    let (resp, ll) = estep.pre.finish_responsibilities(&mut log_dens);
                    let (want_resp, want_ll) = pre.responsibilities_dense(&joined);
                    let what = format!("{sizes:?}/{kp:?}/trial {trial}");
                    assert!((ll - want_ll).abs() < 1e-9, "{what}: {ll} vs {want_ll}");
                    assert!(vector::max_abs_diff(&resp, &want_resp) < 1e-9, "{what}");
                }
            }
        }
    }
}
