//! The factorized E-step: the one place the `UL + PD_Sᵀw + LR` arithmetic of
//! Equations 7–12 (binary joins) and 19–21 (star joins) lives.
//!
//! The Mahalanobis form of a joined row decomposes along the relation
//! partition `[d_S | d_{R_1} | … | d_{R_q}]` into a `(q+1)×(q+1)` grid.  Every
//! cell that depends only on a dimension tuple is evaluated **once per
//! distinct tuple** into a flat row ([`EStep::fill_rows`]) and reused per
//! matching fact ([`EStep::log_densities`]); this is where each cell is paid:
//!
//! | grid cell | paid in `fill_rows`, per panel of tuples and component | per-fact remainder |
//! |---|---|---|
//! | `(0,0)` fact × fact | — | a `d_S×d_S` form (gathers for a sparse fact) |
//! | `(0,i)`, `(i,0)` fact × dimension | the cross vector `w = I_{0i}·PD_i + I_{i0}ᵀ·PD_i` (the GEMM below) and `µ_Sᵀ·w` | one dot of length `d_S` (`gather(w) − µ_Sᵀw` for a sparse fact) |
//! | `(i,i)` dimension diagonal | `PD_iᵀ I_{ii} PD_i = ⟨PD_i·U, PD_i⟩` (the triangular product below) | one scalar add |
//! | `(i,j)`, `(j,i)` dimension × dimension | per tuple of the **wider** dimension `w`: the partner vector `I_{n,w}·PD_w + I_{w,n}ᵀ·PD_w` (the same GEMM) | one dot of the **narrower** width `d_n` |
//!
//! So a fact costs `O(d_S² + q·d_S + Σ_{i<j} min(d_i, d_j))` per component,
//! against `O(d²)` for the joined row (`d = d_S + Σ d_i`); the `d_i × d_j`
//! blocks are touched once per distinct tuple of the wider side.
//!
//! Dense tuples go in panels of up to 256 centred rows `PD`.  With
//! `U = diag(I_ii) + 2·strict_upper(I_ii)`, `PDᵀ I_ii PD = Σ_j I_jj PD_j² +
//! 2·Σ_{j<k} I_jk PD_j PD_k = ⟨PD·U, PD⟩` exactly for the symmetric `I_ii`: one
//! triangular product, half the multiply-adds of the full form.  One GEMM
//! against `[I_{0i}ᵀ + I_{i0} | I_{n,i}ᵀ + I_{i,n} …]` gives `w` and every
//! partner vector.  A product row's bits do not depend on the panel (the
//! kernels tile only the widths), so a tuple's row is the same filled alone,
//! with a block's first references, or in a scorer's panel.  One-hot and CSR
//! tuples go one by one through [`crate::sparse`]'s mean decomposition.
//!
//! Callers: the `F-GMM` trainer and the factorized scorer (one arena row per
//! dimension-tuple ordinal, for every `q`, filled for each fact block's first
//! references), and the materialized and streaming scorers, which rebuild the
//! same rows per panel of joined rows through the same two functions — which
//! is why all three scoring strategies agree bit for bit.

use crate::model::Precomputed;
use crate::sparse::SparseFormPre;
use fml_linalg::block::{BlockPartition, BlockQuadraticForm};
use fml_linalg::{gemm, vector, BlockVec, Matrix, SparseMode};
use fml_store::OrdinalArena;
use std::ops::Range;

/// Dense tuples per panel of [`EStep::fill_rows`]'s products.
const PANEL: usize = 256;

/// Where one dimension's per-(tuple, component) quantities sit inside its
/// rows.  A referenced tuple owns two: the E-step row [`EStep::fill_rows`]
/// writes, and the aggregate row the trainer sums into during the same scan
/// — the same slots without `pd` (the `agg_*` accessors), because what a
/// fact's terms are dotted with in the E-step is what they are accumulated
/// into for the M-step.  Every `PD` is centred on the iteration's starting
/// means:
///
/// | slot | E-step row | aggregate row |
/// |---|---|---|
/// | `pd` (`d_i`) | `PD_i` | — |
/// | `scalar` | `PD_iᵀ I_{ii} PD_i` | `Σ γ` |
/// | `mu_dot` | `µ_Sᵀ·w` | `Σ γ` over the sparse facts (what `fact` still owes `µ_S`) |
/// | `fact` (`d_S`) | `w = I_{0i}·PD_i + I_{i0}ᵀ·PD_i` | `Σ γ·PD_S` over the dense facts `+ Σ γ·x_S` over the sparse ones |
/// | one per partner `n` (`d_n`) | `I_{n,i}·PD_i + I_{i,n}ᵀ·PD_i` | `Σ γ·PD_n` |
///
/// `fact` and the partner slots are contiguous ([`Self::cross`]): one row of
/// the cross product [`EStep::fill_rows`] computes.
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
                let mut len = d + 2 + d_s;
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

    pub(crate) fn scalar(&self) -> usize {
        self.d
    }

    pub(crate) fn mu_dot(&self) -> usize {
        self.d + 1
    }

    pub(crate) fn fact(&self) -> Range<usize> {
        self.d + 2..self.d + 2 + self.d_s
    }

    /// The fact slot and every partner slot, in that order.
    fn cross(&self) -> Range<usize> {
        self.d + 2..self.len
    }

    /// Values per (tuple, component) of the aggregate row.
    pub(crate) fn agg_len(&self) -> usize {
        self.len - self.d
    }

    pub(crate) fn agg_scalar(&self) -> usize {
        0
    }

    pub(crate) fn agg_mu_dot(&self) -> usize {
        1
    }

    pub(crate) fn agg_fact(&self) -> Range<usize> {
        2..2 + self.d_s
    }

    /// The aggregate slot of `partner`, which sits at `off` in the E-step row.
    pub(crate) fn agg_partner(&self, off: usize, partner: &DimLayout) -> Range<usize> {
        off - self.d..off - self.d + partner.d
    }
}

/// What [`EStep::fill_rows`] multiplies one component's centred tuples `PD`
/// of one dimension `i` by.
struct DimProducts {
    /// `U = diag(I_ii) + strict_upper(I_ii) + strict_lower(I_ii)ᵀ`, so that
    /// `PDᵀ I_ii PD = ⟨PD·U, PD⟩` (for the symmetric `I_ii`,
    /// `diag(I_ii) + 2·strict_upper(I_ii)`).
    upper: Matrix,
    /// `[I_{0i}ᵀ + I_{i0} | I_{n,i}ᵀ + I_{i,n} …]` (`d_i × (d_S + Σ d_n)`):
    /// `PD` times it is the tuple's [`DimLayout::cross`] slots.
    cross: Matrix,
    /// `µ_iᵀ·cross`, what a sparse tuple's cross slots owe its mean.
    mean_cross: Vec<f64>,
}

impl DimProducts {
    /// The products of partition block `block` (layout `lay`, mean `mu`) for
    /// one component's partitioned inverse `form`.
    fn new(form: &BlockQuadraticForm, lay: &DimLayout, block: usize, mu: &[f64]) -> Self {
        let (diag, d) = (form.block(block, block), lay.d);
        let mut upper = Matrix::zeros(d, d);
        for j in 0..d {
            upper[(j, j)] = diag[(j, j)];
            for k in j + 1..d {
                upper[(j, k)] = diag[(j, k)] + diag[(k, j)];
            }
        }
        let mut cross = Matrix::zeros(d, lay.cross().len());
        let partners = (lay.partners.iter()).map(|&(n, off)| (n + 1, off - d - 2));
        for (to, col) in std::iter::once((0, 0)).chain(partners) {
            let (into, from) = (form.block(to, block), form.block(block, to));
            for a in 0..d {
                for t in 0..into.rows() {
                    cross[(a, col + t)] = into[(t, a)] + from[(a, t)];
                }
            }
        }
        let mean_cross = gemm::matvec_transposed(&cross, mu);
        Self {
            upper,
            cross,
            mean_cross,
        }
    }
}

/// Reusable buffers of [`EStep::fill_rows`]: the dense tuples of one call and
/// one panel's centred rows and products.
#[derive(Debug, Default)]
pub struct FillScratch {
    dense: Vec<u32>,
    pd: Vec<f64>,
    pu: Vec<f64>,
    cross: Vec<f64>,
}

/// One model's E-step over one relation partition: the covariance inverses
/// and log-normalizers ([`Precomputed`]), their relation-aligned blocks, the
/// split means, the per-dimension product matrices of [`EStep::fill_rows`]
/// and (under [`SparseMode::Auto`]) the sparse decomposition constants —
/// built once per EM iteration by the trainers, once per batch by the scorer.
pub struct EStep {
    /// The unpartitioned precomputation; callers finish each fact with
    /// [`Precomputed::finish_responsibilities_in_place`].
    pub pre: Precomputed,
    forms: Vec<BlockQuadraticForm>,
    means_split: Vec<Vec<Vec<f64>>>,
    layouts: Vec<DimLayout>,
    /// `products[c][i]` serves component `c`, dimension `i`.
    products: Vec<Vec<DimProducts>>,
    /// `sparse_pre[c][b]`: the diagonal constants of component `c`,
    /// partition block `b` (0 = fact); empty under [`SparseMode::Dense`].
    sparse_pre: Vec<Vec<SparseFormPre>>,
}

impl EStep {
    /// Partitions `pre` along `partition`.  `sparse` is the run's mode:
    /// under [`SparseMode::Dense`] every row is dense, so the `O(k·d²)`
    /// sparse constants are not built.
    pub fn new(pre: Precomputed, partition: &BlockPartition, sparse: SparseMode) -> Self {
        let forms = pre.block_forms(partition);
        let means_split = pre.split_means(partition);
        let layouts = DimLayout::all(partition.sizes());
        let products = (forms.iter().zip(&means_split))
            .map(|(form, mu)| {
                let dims = layouts.iter().enumerate();
                dims.map(|(i, lay)| DimProducts::new(form, lay, i + 1, &mu[i + 1]))
                    .collect()
            })
            .collect();
        let sparse_pre = match sparse {
            SparseMode::Auto => (forms.iter().zip(&means_split))
                .map(|(form, mu)| {
                    let blocks = mu.iter().enumerate();
                    blocks
                        .map(|(b, mu_b)| SparseFormPre::build_diag(form, b, mu_b))
                        .collect()
                })
                .collect(),
            SparseMode::Dense => Vec::new(),
        };
        Self {
            pre,
            forms,
            means_split,
            layouts,
            products,
            sparse_pre,
        }
    }

    /// Number of mixture components.
    pub fn k(&self) -> usize {
        self.forms.len()
    }

    /// Width `d_S` of the fact block ([`EStep::log_densities`] takes `k`
    /// times this in scratch).
    pub fn fact_width(&self) -> usize {
        self.means_split[0][0].len()
    }

    /// Length of dimension `i`'s row (0-based; all components).
    pub fn row_len(&self, i: usize) -> usize {
        self.k() * self.layouts[i].len
    }

    /// Fills the rows of `out` at the ordinals `ords` with the E-step rows
    /// of those tuples of dimension `i` (all components); `tuple(o)` is tuple
    /// `o`'s block in its stored form.  Dense tuples are filled in panels
    /// through two level-3 products per component, sparse ones one by one
    /// (see the module docs); either way a tuple's row does not depend on
    /// which other tuples share the call.
    pub fn fill_rows<'t>(
        &self,
        i: usize,
        ords: &[u32],
        tuple: impl Fn(u32) -> BlockVec<'t>,
        out: &mut OrdinalArena,
        scratch: &mut FillScratch,
    ) {
        let (lay, s) = (&self.layouts[i], scratch);
        s.dense.clear();
        for &o in ords {
            match tuple(o) {
                BlockVec::Dense(_) => s.dense.push(o),
                rep => self.fill_sparse(i, rep, out.row_mut(o)),
            }
        }
        let (d, wx) = (lay.d, lay.cross().len());
        for panel in s.dense.chunks(PANEL) {
            let m = panel.len();
            s.pd.resize(m * d, 0.0);
            s.pu.resize(m * d, 0.0);
            s.cross.resize(m * wx, 0.0);
            for (c, (mu, products)) in self.means_split.iter().zip(&self.products).enumerate() {
                let DimProducts { upper, cross, .. } = &products[i];
                for (r, &o) in panel.iter().enumerate() {
                    tuple(o).sub_into(&mu[i + 1], &mut s.pd[r * d..(r + 1) * d]);
                }
                s.pu.fill(0.0);
                s.cross.fill(0.0);
                gemm::matmul_upper_acc(&s.pd, upper, &mut s.pu);
                gemm::matmul_acc(&s.pd, cross, &mut s.cross);
                for (r, &o) in panel.iter().enumerate() {
                    let e = &mut out.row_mut(o)[c * lay.len..(c + 1) * lay.len];
                    let p = &s.pd[r * d..(r + 1) * d];
                    e[lay.pd()].copy_from_slice(p);
                    e[lay.scalar()] = vector::dot(&s.pu[r * d..(r + 1) * d], p);
                    e[lay.cross()].copy_from_slice(&s.cross[r * wx..(r + 1) * wx]);
                    e[lay.mu_dot()] = vector::dot(&mu[0], &e[lay.fact()]);
                }
            }
        }
    }

    /// The row of one sparse tuple of dimension `i` through the mean
    /// decomposition: the diagonal from `nnz²` loads and a gather, the cross
    /// slots as the row gather `xᵀ·cross` less its mean part.  In a
    /// star the centred vector is still written: the wider partners' cross
    /// cells are dotted with it.
    fn fill_sparse(&self, i: usize, x: BlockVec<'_>, row: &mut [f64]) {
        let lay = &self.layouts[i];
        for (c, e) in row.chunks_exact_mut(lay.len).enumerate() {
            if self.layouts.len() > 1 {
                x.sub_into(&self.means_split[c][i + 1], &mut e[lay.pd()]);
            }
            e[lay.scalar()] = self.sparse_pre[c][i + 1].diag_term(&self.forms[c], i + 1, x);
            let (w, products) = (&mut e[lay.cross()], &self.products[c][i]);
            x.matvec_transposed_into(&products.cross, w);
            vector::axpy(-1.0, &products.mean_cross, w);
            e[lay.mu_dot()] = vector::dot(&self.means_split[c][0], &e[lay.fact()]);
        }
    }

    /// Per-component log-densities of one fact into `out`, given the filled
    /// row of every dimension tuple it references (`rows(i)` for dimension
    /// `i`, asked once per fact).  `pd_s` is scratch of `k·d_S` values
    /// ([`EStep::fact_width`] per component).  Each component's terms are
    /// added in one fixed order — fact diagonal, then per dimension its
    /// diagonal, fact cross and partner cells — whoever the caller is.
    pub fn log_densities<'r>(
        &self,
        fact: BlockVec<'_>,
        rows: impl Fn(usize) -> &'r [f64],
        pd_s: &mut [f64],
        out: &mut [f64],
    ) {
        let d_s = self.fact_width();
        // `out` holds each component's quadratic form until the last loop
        for (c, quad) in out.iter_mut().enumerate() {
            let pd = &mut pd_s[c * d_s..(c + 1) * d_s];
            *quad = match fact {
                BlockVec::Dense(x) => {
                    vector::sub_into(x, &self.means_split[c][0], pd);
                    self.forms[c].term(0, 0, pd, pd)
                }
                rep => self.sparse_pre[c][0].diag_term(&self.forms[c], 0, rep),
            };
        }
        for (i, lay) in self.layouts.iter().enumerate() {
            let row = rows(i);
            for (c, quad) in out.iter_mut().enumerate() {
                let e = &row[c * lay.len..(c + 1) * lay.len];
                let w = &e[lay.fact()];
                *quad += e[lay.scalar()]
                    + match fact {
                        BlockVec::Dense(_) => vector::dot(&pd_s[c * d_s..(c + 1) * d_s], w),
                        rep => rep.gather_dot(w) - e[lay.mu_dot()],
                    };
            }
            // cross cells towards the narrower dimensions
            for &(n, off) in &lay.partners {
                let (ln, narrow) = (&self.layouts[n], rows(n));
                for (c, quad) in out.iter_mut().enumerate() {
                    let (e, en) = (&row[c * lay.len..], &narrow[c * ln.len..]);
                    *quad += vector::dot(&en[ln.pd()], &e[off..off + ln.d]);
                }
            }
        }
        for (ld, norm) in out.iter_mut().zip(&self.pre.log_norm) {
            *ld = norm - 0.5 * *ld;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GmmModel;
    use fml_linalg::testutil::TestRng;
    use fml_linalg::Vector;

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

    /// One block of width `w`: dense (`kind` 0), one-hot (1) or CSR (2), as
    /// `(expanded, indices, values)`.
    fn block(rng: &mut TestRng, w: usize, kind: usize) -> (Vec<f64>, Vec<u32>, Vec<f64>) {
        if kind == 0 {
            return (rng.vec_in(w, -2.0, 2.0), Vec::new(), Vec::new());
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
        (x, idx, vals)
    }

    /// The stored form of a [`block`] of `kind`.
    fn view<'a>(kind: usize, (x, idx, vals): &'a (Vec<f64>, Vec<u32>, Vec<f64>)) -> BlockVec<'a> {
        match kind {
            0 => BlockVec::Dense(x),
            1 => BlockVec::OneHot(idx),
            _ => BlockVec::Csr { idx, vals },
        }
    }

    /// Partitions `[d_S, d_1, …]` for `q ∈ {1, 2, 3}`: either dimension the
    /// wide side, a width tie, `d_S = 1`, width-1 dimensions, and widths that
    /// are not a multiple of 4 on both sides of the micro-kernel's 8 columns.
    const PARTITIONS: [&[usize]; 9] = [
        &[3, 5],
        &[1, 7],
        &[5, 13],
        &[2, 3, 5],
        &[2, 5, 3],
        &[2, 4, 4],
        &[3, 1, 6],
        &[1, 3, 5, 3],
        &[1, 9, 1, 2],
    ];

    /// The kind of tuple `r` in a fill of `kind` 0–2, or of mixed kinds (3).
    fn kind_of(kind: usize, r: usize) -> usize {
        if kind == 3 {
            r % 3
        } else {
            kind
        }
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// A tuple's row has the same bits whether `fill_rows` fills it alone or
    /// among `n` tuples of any mix of kinds — the panel cut moves no bit.
    #[test]
    fn fill_rows_gives_each_tuple_the_bits_of_a_single_tuple_call() {
        let mut rng = TestRng::new(43);
        for sizes in PARTITIONS {
            let partition = BlockPartition::new(sizes);
            let pre = Precomputed::from_model(&model(&mut rng, 3, partition.total_dim()), 0.0);
            let estep = EStep::new(pre, &partition, SparseMode::Auto);
            let mut fill = FillScratch::default();
            for i in 0..sizes.len() - 1 {
                let runs = [1, 3, 4, 5, 257, 600]
                    .into_iter()
                    .flat_map(|n| (0..4).map(move |kind| (n, kind)));
                for (n, kind) in runs {
                    let xs: Vec<_> = (0..n)
                        .map(|r| block(&mut rng, sizes[i + 1], kind_of(kind, r)))
                        .collect();
                    let tuple = |o: u32| view(kind_of(kind, o as usize), &xs[o as usize]);
                    let ords: Vec<u32> = (0..n as u32).collect();
                    let mut batch = OrdinalArena::new(estep.row_len(i));
                    estep.fill_rows(i, &ords, tuple, &mut batch, &mut fill);
                    let mut single = OrdinalArena::new(estep.row_len(i));
                    for o in ords {
                        // zeroed, as `batch` is: a sparse tuple of a
                        // binary join leaves its `pd` slot unwritten
                        single.row_mut(0).fill(0.0);
                        estep.fill_rows(i, &[0], |_| tuple(o), &mut single, &mut fill);
                        assert_eq!(
                            bits(single.row(0)),
                            bits(batch.row(o)),
                            "{sizes:?}/dim {i}/n {n}/kind {kind}/tuple {o}"
                        );
                    }
                }
            }
        }
    }

    /// `log_densities` over `fill_rows` rows equals the dense reference on
    /// the joined row, for every partition of [`PARTITIONS`], every tuple
    /// flavor (the rows filled in one call of mixed kinds), and dense,
    /// one-hot and CSR facts.
    #[test]
    fn factorized_e_step_matches_the_dense_reference() {
        let mut rng = TestRng::new(41);
        for sizes in PARTITIONS {
            let partition = BlockPartition::new(sizes);
            let (k, q, n) = (3, sizes.len() - 1, 7);
            let pre = Precomputed::from_model(&model(&mut rng, k, partition.total_dim()), 0.0);
            let estep = EStep::new(pre.clone(), &partition, SparseMode::Auto);
            assert_eq!((estep.k(), estep.fact_width()), (k, sizes[0]));
            let mut fill = FillScratch::default();
            let ords: Vec<u32> = (0..n as u32).collect();
            // `n` tuples per dimension, of mixed kinds, filled in one call
            let dims: Vec<Vec<_>> = (0..q)
                .map(|i| {
                    (0..n)
                        .map(|r| block(&mut rng, sizes[i + 1], (r + i) % 3))
                        .collect()
                })
                .collect();
            let rows: Vec<OrdinalArena> = (0..q)
                .map(|i| {
                    let mut rows = OrdinalArena::new(estep.row_len(i));
                    let tuple = |o: u32| view((o as usize + i) % 3, &dims[i][o as usize]);
                    estep.fill_rows(i, &ords, tuple, &mut rows, &mut fill);
                    rows
                })
                .collect();
            for trial in 0..18 {
                let fact = block(&mut rng, sizes[0], trial % 3);
                let picks: Vec<usize> = (0..q).map(|i| (trial * 5 + i) % n).collect();
                let mut joined = fact.0.clone();
                for (i, &r) in picks.iter().enumerate() {
                    joined.extend_from_slice(&dims[i][r].0);
                }
                let mut log_dens = vec![0.0; k];
                let mut pd_s = vec![0.0; k * sizes[0]];
                let fact = view(trial % 3, &fact);
                let row = |i: usize| rows[i].row(picks[i] as u32);
                estep.log_densities(fact, row, &mut pd_s, &mut log_dens);
                let ll = estep.pre.finish_responsibilities_in_place(&mut log_dens);
                let (want_resp, want_ll) = pre.responsibilities_dense(&joined);
                let what = format!("{sizes:?}/trial {trial}");
                assert!((ll - want_ll).abs() < 1e-9, "{what}: {ll} vs {want_ll}");
                assert!(vector::max_abs_diff(&log_dens, &want_resp) < 1e-9, "{what}");
            }
        }
    }
}
