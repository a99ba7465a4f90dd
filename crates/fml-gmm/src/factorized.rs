//! `F-GMM`: EM pushed through the join (Sections V-B and V-C) — one driver
//! for every join shape; a binary join is the star with `q = 1`.
//!
//! With `q` dimension tables the feature space is partitioned into `q + 1` blocks
//! `[d_S | d_{R_1} | … | d_{R_q}]` and the EM quantities decompose into a
//! `(q+1)×(q+1)` grid (Equations 19–24, which are Equations 7–18 at `q = 1`).
//! Every cell that depends only on dimension tuples is paid once per
//! *distinct tuple* and reused per matching fact.  The E-step half of that
//! grid is [`crate::estep`] (shared with the scorer); the M-step mirrors it
//! cell for cell:
//!
//! | grid cell | M-step, paid per | per-fact remainder |
//! |---|---|---|
//! | `(0,0)` fact × fact | fact | a `d_S×d_S` outer product (an `nnz²` pair scatter for a sparse fact) |
//! | `(0,i)`, `(i,0)` fact × dimension | `R_i` tuple: two outer products with `Σγ·PD_S` | one AXPY of length `d_S` (`nnz` adds for a sparse fact) |
//! | `(i,i)` dimension diagonal | `R_i` tuple: one outer product weighted `Σγ` | one scalar add |
//! | `(i,j)`, `(j,i)` dimension × dimension | tuple of the **wider** dimension: two outer products with `Σγ·PD_n` | one AXPY of the **narrower** width `d_n` |
//!
//! **One scan per iteration.**  Every `PD` above is centred on the
//! iteration's *starting* means — the vectors the E-step has already formed —
//! so the M-step accumulates in the E-step's own scan and
//! [`finalize_m_step`] closes the iteration from the shifted statistics
//! (`µ' = µ + s/N`, `Σ' = S/N − (s/N)(s/N)ᵀ`; see [`crate::em`]).  The mean
//! shift `s = Σγ·PD` needs no pass of its own (Equations 13 / 22): its fact
//! block is the `Σγ·PD_S` aggregate of the first dimension's tuples, and
//! dimension block `i` is `(Σγ)·PD_i` once per tuple.
//!
//! **Scan.**  The iteration is one [`FactorizedScan`] pass: per fact block
//! the foreign keys arrive resolved to dense ordinals and the rows of the
//! block's first references are filled, and at the end of a window the
//! aggregates of the referenced tuples are folded into the iteration's
//! totals.  Every per-tuple quantity lives in a flat [`OrdinalArena`] row
//! `[ordinal][component][…]` — the E-step row [`EStep::fill_rows`] writes, and
//! next to it the aggregate row the M-step sums into (see
//! `estep::DimLayout`) — so dimension tuples no fact references are never read.
//! A star is one window; a binary join whose `R` spans several `block_pages`
//! windows pays the dimension-side work once per tuple all the same, and
//! reads exactly the pages `S-GMM` reads.
//!
//! **Sparse tuples** ([`fml_linalg::SparseMode::Auto`]).  A tuple comes out
//! of the scan in the form its relation stores it ([`BlockVec`]: one-hot,
//! weighted CSR, or dense) — nothing is classified or cached per tuple.
//! Sparse tuples contribute through the mean decomposition of
//! [`crate::sparse`]: raw-`x` gathers and scatters per tuple, dense mean
//! corrections once per window or pass, around the iteration's starting
//! means.
//!
//! **Execution shape.**  Per fact block a sequential sweep fills the arena
//! rows of the block's first references — one [`EStep::fill_rows`] call
//! per dimension, whose dense tuples run on level-3 kernels — and then each
//! fact, in fact order, gets its responsibilities and adds its M-step
//! remainder, all on the driving thread.  The fit does not fan out under
//! any policy: at two workers the per-fact E-step's fan-out did not pay
//! against this serial fold.
//!
//! **Bit contract.**  The decomposition is exact — no approximation — so the
//! model matches `M-GMM` / `S-GMM` up to floating-point rounding (objective
//! within 1e-6).  Ordinals ascend with the key, so the per-tuple merges run
//! in one fixed order and a fit is bit-reproducible run to run; every sum
//! over facts is folded in fact order.  Sums run fact-major for every `q`.

use crate::em::{converged, finalize_m_step, GmmFit};
use crate::estep::{DimLayout, EStep, FillScratch};
use crate::init::GmmInit;
use crate::model::Precomputed;
use crate::sparse::{SparseDiagAcc, SparseScatterAcc};
use crate::GmmConfig;
use fml_linalg::block::{BlockPartition, BlockScatter};
use fml_linalg::exec::{ExecPolicy, FitNotifier};
use fml_linalg::{vector, BlockVec, Matrix, Vector};
use fml_store::factorized_scan::FactorizedScan;
use fml_store::{Database, JoinSpec, OrdinalArena, StoreError, StoreResult};
use std::time::Instant;

/// The factorized training strategy (the paper's proposal).
pub struct FactorizedGmm;

impl FactorizedGmm {
    /// Trains a GMM over the normalized relations of a join of `q ≥ 1`
    /// dimension tables, without materializing the join and without
    /// repeating dimension-side computation.
    pub fn train(
        db: &Database,
        spec: &JoinSpec,
        config: &GmmConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<GmmFit> {
        let start = Instant::now();
        let ex = exec.resolve();
        // The resolved observability mode governs instrumentation on every
        // thread this run touches.
        let _obs = ex.obs_scope();
        spec.validate(db)?;
        let sizes = spec.feature_partition(db)?;
        let partition = BlockPartition::new(&sizes);
        let d = partition.total_dim();
        let d_s = sizes[0];
        let n = spec.fact_relation(db)?.lock().num_tuples();
        let k = config.k;

        let mut model = GmmInit::new(ex.seed, config.init_spread).from_relations(db, spec, k)?;
        assert_eq!(model.dim(), d, "initial model dimension mismatch");
        // After the init scan, so event 0 brackets exactly the first
        // iteration (matches the M/S trainers' accounting).
        let probe = db.stats().io_probe();
        let mut notifier = FitNotifier::new(exec, Some(&probe));
        let mut log_likelihood = Vec::with_capacity(config.max_iters);
        let mut iterations = 0;

        // Per-dimension arenas, filled together on first reference: `terms`
        // holds the E-step rows, `aggs` the M-step aggregate rows (see
        // [`DimLayout`]).
        let layouts = DimLayout::all(&sizes);
        let mut terms: Vec<OrdinalArena> = layouts
            .iter()
            .map(|lay| OrdinalArena::new(k * lay.len))
            .collect();
        let mut aggs: Vec<OrdinalArena> = layouts
            .iter()
            .map(|lay| OrdinalArena::new(k * lay.agg_len()))
            .collect();
        let (mut pd_s, mut w_s, mut g) = (vec![0.0; k * d_s], vec![0.0; d_s], vec![0.0; k]);
        let mut fill = FillScratch::default();
        // Per dimension and component, the sparse tuples' scatter sums of
        // one window, reset before each window's dimension-side pass.
        let mut sparse_accs: Vec<Vec<SparseScatterAcc>> = layouts
            .iter()
            .map(|lay| (0..k).map(|_| SparseScatterAcc::new(d_s, lay.d)).collect())
            .collect();

        for _iter in 0..config.max_iters {
            let estep = EStep::new(
                Precomputed::from_model(&model, config.ridge),
                &partition,
                ex.sparse,
            );
            let means_split = estep.pre.split_means(&partition);

            // The shifted statistics `N`, `s`, `S` of this iteration and its
            // log-likelihood (Equations 19 and 22–24 in one scan).
            let mut nk = vec![0.0; k];
            let mut ll = 0.0;
            let mut shift_sums = vec![Vector::zeros(d); k];
            let mut scatter: Vec<BlockScatter> = (0..k)
                .map(|_| BlockScatter::new(partition.clone()))
                .collect();
            // Sparse facts: raw `γ·x xᵀ` pair scatters into the (0,0) block
            // and raw `γ·x` sums into the fact × dimension aggregates; the
            // mean corrections follow once per pass / per dimension tuple.
            let mut fact_acc: Vec<SparseDiagAcc> =
                (0..k).map(|_| SparseDiagAcc::new(d_s)).collect();
            let mut any_sparse_fact = false;
            let scan = FactorizedScan::new(db, spec, ex.block_pages)?;
            let mut scan = scan.sparse_mode(ex.sparse);
            while scan.next_window()? {
                while scan.next_block()? {
                    let (block, cache) = (scan.block(), scan.cache());
                    let facts = block.rows();
                    // A sequential sweep fills the E-step rows of the tuples
                    // first referenced in this block (one row per *distinct*
                    // tuple — the factorized reuse) and zeroes their
                    // aggregates.
                    for (i, (terms, aggs)) in terms.iter_mut().zip(&mut aggs).enumerate() {
                        let first = block.first_refs(i);
                        estep.fill_rows(i, first, |o| cache.row(i, o), terms, &mut fill);
                        first.iter().for_each(|&ord| aggs.row_mut(ord).fill(0.0));
                    }
                    // Per fact, in fact order: its responsibilities, then
                    // its M-step remainder.  `pd_s` keeps the `PD_S` the
                    // E-step formed under every component.
                    for f in 0..block.len() {
                        let (x_s, ords) = (facts.row(f), block.ords_of(f));
                        estep.log_densities(x_s, |i| terms[i].row(ords[i]), &mut pd_s, &mut g);
                        ll += estep.pre.finish_responsibilities_in_place(&mut g);
                        vector::axpy(1.0, &g, &mut nk);
                        any_sparse_fact |= !x_s.is_dense();
                        // fact-fact block, per fact
                        for c in 0..k {
                            match x_s {
                                BlockVec::Dense(_) => {
                                    let pd = &pd_s[c * d_s..(c + 1) * d_s];
                                    scatter[c].add_outer(0, 0, g[c], pd, pd);
                                }
                                rep => fact_acc[c].record(&mut scatter[c], 0, g[c], rep),
                            }
                        }
                        for (i, lay) in layouts.iter().enumerate() {
                            let row = aggs[i].row_mut(ords[i]);
                            for (c, a) in row.chunks_exact_mut(lay.agg_len()).enumerate() {
                                a[lay.agg_scalar()] += g[c];
                                let sum_s = &mut a[lay.agg_fact()];
                                match x_s {
                                    BlockVec::Dense(_) => {
                                        vector::axpy(g[c], &pd_s[c * d_s..(c + 1) * d_s], sum_s)
                                    }
                                    rep => {
                                        rep.axpy_into(g[c], sum_s);
                                        a[lay.agg_mu_dot()] += g[c];
                                    }
                                }
                            }
                            // the wider side gathers `Σ γ·PD_n` per partner
                            for &(n, off) in &lay.partners {
                                let ln = &layouts[n];
                                let sum_n = lay.agg_partner(off, ln);
                                let narrow = terms[n].row(ords[n]).chunks_exact(ln.len);
                                let wide = row.chunks_exact_mut(lay.agg_len());
                                for ((a, e_n), &gamma) in wide.zip(narrow).zip(&g) {
                                    vector::axpy(gamma, &e_n[ln.pd()], &mut a[sum_n.clone()]);
                                }
                            }
                        }
                    }
                }
                // Dimension-side blocks, once per referenced dimension tuple.
                // Sparse tuples go through the sparse decomposition: raw-x
                // scatters here, dense mean corrections once per (component,
                // block) after the loop.
                for ((i, lay), acc) in layouts.iter().enumerate().zip(&mut sparse_accs) {
                    let b = i + 1;
                    acc.iter_mut().for_each(SparseScatterAcc::reset);
                    for ord in scan.referenced(i) {
                        let x = scan.cache().row(i, ord);
                        let rows = terms[i].row(ord).chunks_exact(lay.len);
                        let agg_rows = aggs[i].row(ord).chunks_exact(lay.agg_len());
                        for (c, (e, a)) in rows.zip(agg_rows).enumerate() {
                            let (pd, gamma) = (&e[lay.pd()], a[lay.agg_scalar()]);
                            // Σγ·PD_S = Σγ·x_S − (Σγ)·µ_S over the sparse facts
                            let w_s: &[f64] = if any_sparse_fact {
                                w_s.copy_from_slice(&a[lay.agg_fact()]);
                                vector::axpy(-a[lay.agg_mu_dot()], &means_split[c][0], &mut w_s);
                                &w_s
                            } else {
                                &a[lay.agg_fact()]
                            };
                            let shift = shift_sums[c].as_mut_slice();
                            if i == 0 {
                                vector::axpy(1.0, w_s, &mut shift[..d_s]);
                            }
                            match x {
                                BlockVec::Dense(_) => {
                                    scatter[c].add_outer(0, b, 1.0, w_s, pd);
                                    scatter[c].add_outer(b, 0, 1.0, pd, w_s);
                                    scatter[c].add_outer(b, b, gamma, pd, pd);
                                    vector::axpy(gamma, pd, &mut shift[partition.range(b)]);
                                }
                                rep => acc[c].record(&mut scatter[c], b, gamma, w_s, rep),
                            }
                            // both cross cells of each pair, once per wide tuple
                            for &(n, off) in &lay.partners {
                                let w_n = &a[lay.agg_partner(off, &layouts[n])];
                                scatter[c].add_outer(n + 1, b, 1.0, w_n, pd);
                                scatter[c].add_outer(b, n + 1, 1.0, pd, w_n);
                            }
                        }
                    }
                    for (c, acc) in acc.iter().enumerate() {
                        let mu_b = &means_split[c][b];
                        acc.finalize(&mut scatter[c], b, mu_b);
                        acc.add_shift_sum(
                            mu_b,
                            &mut shift_sums[c].as_mut_slice()[partition.range(b)],
                        );
                    }
                }
            }
            for (c, acc) in fact_acc.iter().enumerate() {
                acc.finalize(&mut scatter[c], 0, &means_split[c][0]);
            }
            if !ll.is_finite() {
                return Err(StoreError::NonFiniteFeature {
                    relation: spec.fact.clone(),
                });
            }
            let scatter_mats: Vec<Matrix> =
                scatter.into_iter().map(BlockScatter::into_matrix).collect();
            model = finalize_m_step(&model.means, &nk, shift_sums, scatter_mats, n, config.ridge);
            iterations += 1;
            notifier.notify(ll);

            let prev = log_likelihood.last().copied();
            log_likelihood.push(ll);
            if converged(prev, ll, config.tol) {
                break;
            }
        }

        Ok(GmmFit {
            model,
            iterations,
            log_likelihood,
            n_tuples: n,
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialized::MaterializedGmm;
    use crate::streaming::StreamingGmm;
    use fml_data::multiway::{DimSpec, MultiwayConfig};
    use fml_data::SyntheticConfig;

    fn workload(n_s: u64, n_r: u64, d_s: usize, d_r: usize, k: usize) -> fml_data::Workload {
        SyntheticConfig {
            n_s,
            n_r,
            d_s,
            d_r,
            k,
            noise_std: 0.8,
            with_target: false,
            seed: 21,
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn factorized_matches_materialized_and_streaming() {
        let w = workload(400, 16, 2, 4, 2);
        let config = GmmConfig {
            k: 2,
            max_iters: 5,
            ..GmmConfig::default()
        };
        let m = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let s = StreamingGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(
            m.model.max_param_diff(&f.model) < 1e-7,
            "M vs F diff {}",
            m.model.max_param_diff(&f.model)
        );
        assert!(s.model.max_param_diff(&f.model) < 1e-7);
        assert_eq!(m.iterations, f.iterations);
        // log-likelihood traces agree too
        for (a, b) in m.log_likelihood.iter().zip(f.log_likelihood.iter()) {
            assert!((a - b).abs() / a.abs().max(1.0) < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn factorized_matches_on_wider_dimension_tables() {
        // Larger d_R relative to d_S is where the factorization matters most.
        let w = workload(300, 10, 3, 12, 3);
        let config = GmmConfig {
            k: 3,
            max_iters: 4,
            ..GmmConfig::default()
        };
        let m = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        // Four EM iterations on this workload amplify summation-order
        // rounding to ~1e-7 between any two strategies; 1e-6 is the bound the
        // equivalence suite holds M vs F to.
        let diff = m.model.max_param_diff(&f.model);
        assert!(diff < 1e-6, "M vs F diff {diff}");
    }

    #[test]
    fn log_likelihood_monotone() {
        let w = workload(300, 12, 2, 5, 2);
        let config = GmmConfig {
            k: 2,
            max_iters: 8,
            ..GmmConfig::default()
        };
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        for pair in f.log_likelihood.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-6, "{:?}", f.log_likelihood);
        }
    }

    #[test]
    fn early_stopping_applies() {
        let w = workload(200, 10, 2, 3, 2);
        let config = GmmConfig {
            k: 2,
            max_iters: 60,
            tol: 1e-3,
            ..GmmConfig::default()
        };
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(f.iterations < 60);
        assert_eq!(f.iterations, f.log_likelihood.len());
    }

    #[test]
    fn dispatches_multiway_specs() {
        let w = fml_data::multiway::MultiwayConfig {
            n_s: 200,
            d_s: 2,
            dims: vec![
                fml_data::multiway::DimSpec::new(8, 2),
                fml_data::multiway::DimSpec::new(4, 3),
            ],
            k: 2,
            noise_std: 0.5,
            with_target: false,
            seed: 2,
        }
        .generate()
        .unwrap();
        let config = GmmConfig {
            k: 2,
            max_iters: 2,
            ..GmmConfig::default()
        };
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(f.model.dim(), 7);
    }

    #[test]
    fn multiway_factorized_matches_materialized() {
        let w = MultiwayConfig {
            n_s: 400,
            d_s: 2,
            dims: vec![DimSpec::new(12, 3), DimSpec::new(6, 4)],
            k: 2,
            noise_std: 0.7,
            with_target: false,
            seed: 17,
        }
        .generate()
        .unwrap();
        let config = GmmConfig {
            k: 2,
            max_iters: 4,
            ..GmmConfig::default()
        };
        let m = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let s = StreamingGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(
            m.model.max_param_diff(&f.model) < 1e-7,
            "M vs F-multiway diff {}",
            m.model.max_param_diff(&f.model)
        );
        assert!(s.model.max_param_diff(&f.model) < 1e-7);
    }

    #[test]
    fn multiway_with_three_dimension_tables() {
        let w = MultiwayConfig {
            n_s: 300,
            d_s: 1,
            dims: vec![DimSpec::new(10, 2), DimSpec::new(5, 3), DimSpec::new(4, 2)],
            k: 2,
            noise_std: 0.5,
            with_target: false,
            seed: 8,
        }
        .generate()
        .unwrap();
        let config = GmmConfig {
            k: 2,
            max_iters: 3,
            ..GmmConfig::default()
        };
        let m = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&f.model) < 1e-7);
        assert_eq!(f.model.dim(), 8);
    }

    #[test]
    fn multiway_reduces_to_binary_when_q_is_one() {
        // The same relations named as a binary join and as a one-dimension
        // star are one code path: the fits agree bit for bit, and match the
        // materialized baseline.
        let w = SyntheticConfig {
            n_s: 250,
            n_r: 10,
            d_s: 2,
            d_r: 4,
            k: 2,
            noise_std: 0.6,
            with_target: false,
            seed: 31,
        }
        .generate()
        .unwrap();
        let config = GmmConfig {
            k: 2,
            max_iters: 4,
            ..GmmConfig::default()
        };
        let star = fml_store::JoinSpec::multiway(&w.spec.fact, w.spec.dimensions.clone());
        let binary = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let multi = FactorizedGmm::train(&w.db, &star, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(binary.model.max_param_diff(&multi.model), 0.0);
        let m = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&multi.model) < 1e-8);
    }

    #[test]
    fn log_likelihood_monotone_multiway() {
        let w = MultiwayConfig {
            n_s: 300,
            d_s: 2,
            dims: vec![DimSpec::new(9, 2), DimSpec::new(6, 2)],
            k: 2,
            noise_std: 0.5,
            with_target: false,
            seed: 13,
        }
        .generate()
        .unwrap();
        let config = GmmConfig {
            k: 2,
            max_iters: 6,
            ..GmmConfig::default()
        };
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        for pair in f.log_likelihood.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-6);
        }
    }
}
