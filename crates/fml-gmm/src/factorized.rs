//! `F-GMM` for binary joins: EM pushed through the join (Section V-B).
//!
//! The computation of every EM quantity is decomposed along the relation boundary
//! `[d_S | d_R]` so that the parts depending only on the dimension tuple `x_R` are
//! computed **once per dimension tuple** and reused for all `n_S/n_R` matching fact
//! tuples:
//!
//! * **E-step** (Equations 7–12): the Mahalanobis form splits into
//!   `UL + UR + LL + LR`.  Per dimension tuple we compute the centered vector
//!   `PD_R`, the scalar `LR = PD_Rᵀ I_RR PD_R` and the cross-term vector
//!   `w = I_SR·PD_R + I_RSᵀ·PD_R`; each matching fact tuple then only needs the
//!   `d_S×d_S` form `UL` plus a `d_S`-length dot product with `w`.  This is the
//!   `q = 1` case of the shared engine in [`crate::estep`].
//! * **M-step means** (Equation 13): `Σ γ x` splits into a fact part (accumulated
//!   per tuple) and a dimension part (`(Σ_group γ)·x_R`, one AXPY per group).
//! * **M-step covariances** (Equations 14–18): the scatter splits into the four
//!   blocks `UL / UR / LL / LR`; the `R`-only block is added once per group with
//!   the group's responsibility mass, and the cross blocks use the group-level
//!   weighted sum of `PD_S`.
//!
//! The decomposition is exact — no approximation — so the resulting model matches
//! `M-GMM` / `S-GMM` up to floating-point rounding.
//!
//! **Sparse detection is cached.**  Under [`fml_linalg::SparseMode::Auto`] a
//! single prepass scans the join once and records each tuple's representation
//! ([`fml_linalg::SparseRep`]: one-hot, weighted CSR, or dense) in scan order
//! via the shared [`RepCache`] protocol; every EM iteration and pass then
//! reads the cached form instead of rescanning the immutable feature data
//! (detection runs at most **once per tuple** per training run — the
//! regression tests pin this with [`fml_linalg::sparse::detect_calls`]).

use crate::em::{converged, finalize_m_step, means_from_sums, GmmFit};
use crate::estep::EStep;
use crate::init::GmmInit;
use crate::model::{split_means, Precomputed};
use crate::multiway::FactorizedMultiwayGmm;
use crate::sparse::{SparseDiagAcc, SparseScatterAcc};
use crate::GmmConfig;
use fml_linalg::block::{BlockPartition, BlockScatter};
use fml_linalg::exec::{ExecPolicy, FitNotifier};
use fml_linalg::policy::par_chunks_with_threads;
use fml_linalg::repcache::RepCache;
use fml_linalg::{vector, Matrix, Vector};
use fml_store::factorized_scan::GroupScan;
use fml_store::{Database, JoinSpec, StoreResult};
use std::time::Instant;

/// Minimum per-tuple work (≈ `k·d²` flops) below which the parallel policy
/// processes join groups inline instead of fanning out.
pub(crate) const PAR_MIN_GROUP_FLOPS: usize = 1 << 12;

/// The factorized training strategy (the paper's proposal).
pub struct FactorizedGmm;

impl FactorizedGmm {
    /// Trains a GMM over the normalized relations without materializing the join
    /// and without repeating dimension-side computation.
    ///
    /// Multi-way joins are dispatched to [`FactorizedMultiwayGmm`].
    pub fn train(
        db: &Database,
        spec: &JoinSpec,
        config: &GmmConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<GmmFit> {
        spec.validate(db)?;
        if spec.num_dimensions() > 1 {
            return FactorizedMultiwayGmm::train(db, spec, config, exec);
        }
        Self::train_binary(db, spec, config, exec)
    }

    fn train_binary(
        db: &Database,
        spec: &JoinSpec,
        config: &GmmConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<GmmFit> {
        let start = Instant::now();
        let ex = exec.resolve();
        // Kernels invoked under a parallel policy on this thread fan out to
        // exactly the resolved thread count while training runs.
        let _kernel_threads = ex.kernel_thread_scope();
        // The resolved observability mode governs instrumentation on every
        // thread this run touches (pool workers, storage scans).
        let _obs = ex.obs_scope();
        let sizes = spec.feature_partition(db)?;
        let partition = BlockPartition::new(&sizes);
        let d = partition.total_dim();
        let d_s = sizes[0];
        let n = spec.fact_relation(db)?.lock().num_tuples();
        let k = config.k;

        let mut model = GmmInit::new(ex.seed, config.init_spread).from_relations(db, spec, k)?;
        assert_eq!(model.dim(), d, "initial model dimension mismatch");
        // Created after the init scan so event 0's I/O delta covers exactly
        // the first EM iteration — the same bracketing as the M/S trainers
        // (whose notifier is created inside the shared dense driver).
        let probe = db.stats().io_probe();
        let mut notifier = FitNotifier::new(exec, Some(&probe));
        let mut log_likelihood = Vec::with_capacity(config.max_iters);
        let mut iterations = 0;
        let mut gammas: Vec<f64> = Vec::with_capacity(n as usize * k);

        // Kernels inside the per-chunk workers run single-threaded; parallelism
        // lives at the join-group level, and only engages when per-group work is
        // large enough to amortize the scoped-thread fan-out.
        let kp = ex.kernel_policy.sequential();
        let par = ex.kernel_policy.is_parallel() && k * d * d >= PAR_MIN_GROUP_FLOPS;
        let workers = ex.workers(par);

        // ---- Per-tuple representation caches ----
        // Filled lazily during the first E-step pass (no extra scan — F-GMM
        // reads exactly the same pages as S-GMM).  The EM passes re-read the
        // same immutable tuples in the same deterministic scan order, so the
        // caches are indexed by group / fact scan position and reused by every
        // later pass and iteration: detection runs at most once per tuple
        // (the shared [`RepCache`] protocol).
        let mut group_reps = RepCache::new(ex.sparse);
        let mut fact_reps = RepCache::new(ex.sparse);

        for _iter in 0..config.max_iters {
            // Partitioned inverses plus (auto-sparse) decomposition
            // constants: O(k·d²) once per iteration, so the per-group hot
            // path below runs pure gathers on the sparse path.
            let estep = EStep::new(
                Precomputed::from_model(&model, config.ridge),
                &partition,
                ex.sparse,
                kp,
            );

            // ---- Pass 1: E-step ----
            // Each scan block is a set of independent join groups: chunks of
            // groups are processed in parallel and their partial statistics are
            // merged in chunk order (fixed reduction tree).
            gammas.clear();
            let mut nk = vec![0.0; k];
            let mut ll = 0.0;
            let mut group_cursor = 0usize;
            let mut fact_cursor = 0usize;
            let scan = GroupScan::from_spec(db, spec, ex.block_pages)?;
            for block in scan {
                let groups = block?;
                // Per-group fact offsets into the (global) fact scan order, so
                // chunks can read the representation caches independently.
                let fact_offsets: Vec<usize> = groups
                    .iter()
                    .scan(fact_cursor, |acc, g| {
                        let o = *acc;
                        *acc += g.s_tuples.len();
                        Some(o)
                    })
                    .collect();
                let group_base = group_cursor;
                let (group_reps_ref, fact_reps_ref) = (&group_reps, &fact_reps);
                let parts = par_chunks_with_threads(workers, groups.len(), 1, |range| {
                    let mut local_gammas = Vec::new();
                    let mut group_seg = group_reps_ref.segment(group_base + range.start);
                    let mut fact_seg = fact_reps_ref.segment(fact_offsets[range.start]);
                    let mut local_nk = vec![0.0; k];
                    let mut local_ll = 0.0;
                    let mut log_dens = vec![0.0; k];
                    let mut pd_s = vec![0.0; d_s];
                    let mut row = vec![0.0; estep.row_len(0)];
                    for gi in range {
                        let group = &groups[gi];
                        // Reused per dimension tuple: the LR term and the
                        // combined cross-term vector w = I_SR·PD_R + I_RSᵀ·PD_R
                        // (gathers only for a sparse dimension tuple).
                        let r_rep =
                            group_seg.rep_or_detect(group_base + gi, &group.r_tuple.features);
                        estep.fill_row(0, &group.r_tuple.features, r_rep, &mut row);
                        for (fi, s_tuple) in group.s_tuples.iter().enumerate() {
                            let s_rep =
                                fact_seg.rep_or_detect(fact_offsets[gi] + fi, &s_tuple.features);
                            estep.log_densities(
                                &s_tuple.features,
                                s_rep,
                                &[&row],
                                &mut pd_s,
                                &mut log_dens,
                            );
                            let (resp, tuple_ll) = estep.pre.finish_responsibilities(&mut log_dens);
                            for c in 0..k {
                                local_nk[c] += resp[c];
                            }
                            local_ll += tuple_ll;
                            local_gammas.extend_from_slice(&resp);
                        }
                    }
                    (
                        local_gammas,
                        local_nk,
                        local_ll,
                        group_seg.into_detected(),
                        fact_seg.into_detected(),
                    )
                });
                for (local_gammas, local_nk, local_ll, group_detected, fact_detected) in parts {
                    gammas.extend_from_slice(&local_gammas);
                    vector::axpy(1.0, &local_nk, &mut nk);
                    ll += local_ll;
                    group_reps.merge(group_detected);
                    fact_reps.merge(fact_detected);
                }
                group_cursor += groups.len();
                fact_cursor += groups.iter().map(|g| g.s_tuples.len()).sum::<usize>();
            }
            group_reps.finish_fill();
            fact_reps.finish_fill();

            // ---- Pass 2: M-step, means (Equation 13) ----
            let mut mean_sums = vec![Vector::zeros(d); k];
            let mut group_cursor = 0usize;
            let mut fact_cursor = 0usize;
            let scan = GroupScan::from_spec(db, spec, ex.block_pages)?;
            for block in scan {
                let groups = block?;
                // Per-group cursor offsets into the responsibility stream, so
                // chunks can be processed independently.
                let fact_offsets: Vec<usize> = groups
                    .iter()
                    .scan(fact_cursor, |acc, g| {
                        let o = *acc;
                        *acc += g.s_tuples.len();
                        Some(o)
                    })
                    .collect();
                let group_base = group_cursor;
                let parts = par_chunks_with_threads(workers, groups.len(), 1, |range| {
                    let mut local = vec![Vector::zeros(d); k];
                    for gi in range {
                        let group = &groups[gi];
                        let mut cur = fact_offsets[gi] * k;
                        let mut group_gamma = vec![0.0; k];
                        for (fi, s_tuple) in group.s_tuples.iter().enumerate() {
                            let g = &gammas[cur..cur + k];
                            match fact_reps.get(fact_offsets[gi] + fi) {
                                Some(rep) => {
                                    for c in 0..k {
                                        rep.axpy_into(g[c], &mut local[c].as_mut_slice()[..d_s]);
                                        group_gamma[c] += g[c];
                                    }
                                }
                                None => {
                                    for c in 0..k {
                                        vector::axpy(
                                            g[c],
                                            &s_tuple.features,
                                            &mut local[c].as_mut_slice()[..d_s],
                                        );
                                        group_gamma[c] += g[c];
                                    }
                                }
                            }
                            cur += k;
                        }
                        // Dimension part: one scatter-add per active index
                        // for sparse tuples, one AXPY otherwise.
                        match group_reps.get(group_base + gi) {
                            Some(rep) => {
                                for c in 0..k {
                                    rep.axpy_into(
                                        group_gamma[c],
                                        &mut local[c].as_mut_slice()[d_s..],
                                    );
                                }
                            }
                            None => {
                                for c in 0..k {
                                    vector::axpy(
                                        group_gamma[c],
                                        &group.r_tuple.features,
                                        &mut local[c].as_mut_slice()[d_s..],
                                    );
                                }
                            }
                        }
                    }
                    local
                });
                for local in parts {
                    for c in 0..k {
                        mean_sums[c].axpy(1.0, &local[c]);
                    }
                }
                group_cursor += groups.len();
                fact_cursor += groups.iter().map(|g| g.s_tuples.len()).sum::<usize>();
            }
            let new_means = means_from_sums(&nk, &mean_sums);
            let new_means_split = split_means(&new_means, &partition);

            // ---- Pass 3: M-step, covariances (Equations 14–18) ----
            // Chunks of groups accumulate into private BlockScatter grids which
            // are merged in chunk order (`BlockScatter::merge_from`).  Sparse
            // dimension tuples contribute through the sparse decomposition:
            // raw-x scatters per group, dense mean corrections once per pass.
            let mut scatter: Vec<BlockScatter> = (0..k)
                .map(|_| BlockScatter::new_with(partition.clone(), kp))
                .collect();
            let mut sparse_acc: Vec<SparseScatterAcc> = (0..k)
                .map(|_| SparseScatterAcc::new(d_s, d - d_s))
                .collect();
            let mut fact_acc: Vec<SparseDiagAcc> =
                (0..k).map(|_| SparseDiagAcc::new(d_s)).collect();
            let mut group_cursor = 0usize;
            let mut fact_cursor = 0usize;
            let scan = GroupScan::from_spec(db, spec, ex.block_pages)?;
            for block in scan {
                let groups = block?;
                let fact_offsets: Vec<usize> = groups
                    .iter()
                    .scan(fact_cursor, |acc, g| {
                        let o = *acc;
                        *acc += g.s_tuples.len();
                        Some(o)
                    })
                    .collect();
                let group_base = group_cursor;
                let parts = par_chunks_with_threads(workers, groups.len(), 1, |range| {
                    let mut local: Vec<BlockScatter> = (0..k)
                        .map(|_| BlockScatter::new_with(partition.clone(), kp))
                        .collect();
                    let mut local_acc: Vec<SparseScatterAcc> = (0..k)
                        .map(|_| SparseScatterAcc::new(d_s, d - d_s))
                        .collect();
                    let mut local_fact: Vec<SparseDiagAcc> =
                        (0..k).map(|_| SparseDiagAcc::new(d_s)).collect();
                    let mut pd_s = vec![0.0; d_s];
                    for gi in range {
                        let group = &groups[gi];
                        let mut cur = fact_offsets[gi] * k;
                        let mut group_gamma = vec![0.0; k];
                        let mut weighted_pd_s = vec![vec![0.0; d_s]; k];
                        // Raw sums over the group's *sparse* facts, folded
                        // into `weighted_pd_s` once per group below
                        // (Σ γ(x−µ) = Σ γx − (Σ γ)µ).
                        let mut wg_sparse = vec![vec![0.0; d_s]; k];
                        let mut wg_gamma = vec![0.0; k];
                        let mut any_sparse_fact = false;
                        for (fi, s_tuple) in group.s_tuples.iter().enumerate() {
                            let g = &gammas[cur..cur + k];
                            match fact_reps.get(fact_offsets[gi] + fi) {
                                Some(rep) => {
                                    // UL block: raw γ·x xᵀ pair scatter; the
                                    // mean corrections apply once per pass.
                                    any_sparse_fact = true;
                                    for c in 0..k {
                                        local_fact[c].record(&mut local[c], 0, g[c], rep);
                                        rep.axpy_into(g[c], &mut wg_sparse[c]);
                                        wg_gamma[c] += g[c];
                                        group_gamma[c] += g[c];
                                    }
                                }
                                None => {
                                    for c in 0..k {
                                        vector::sub_into(
                                            &s_tuple.features,
                                            &new_means_split[c][0],
                                            &mut pd_s,
                                        );
                                        // UL block: must be accumulated per fact tuple.
                                        local[c].add_outer(0, 0, g[c], &pd_s, &pd_s);
                                        vector::axpy(g[c], &pd_s, &mut weighted_pd_s[c]);
                                        group_gamma[c] += g[c];
                                    }
                                }
                            }
                            cur += k;
                        }
                        if any_sparse_fact {
                            for c in 0..k {
                                vector::axpy(1.0, &wg_sparse[c], &mut weighted_pd_s[c]);
                                vector::axpy(
                                    -wg_gamma[c],
                                    &new_means_split[c][0],
                                    &mut weighted_pd_s[c],
                                );
                            }
                        }
                        if let Some(rep) = group_reps.get(group_base + gi) {
                            // UR / LL / LR blocks: sparse raw-x scatters; the
                            // mean corrections are applied once after the pass.
                            for c in 0..k {
                                local_acc[c].record(
                                    &mut local[c],
                                    1,
                                    group_gamma[c],
                                    &weighted_pd_s[c],
                                    rep,
                                );
                            }
                            continue;
                        }
                        for c in 0..k {
                            let pd_r: Vec<f64> = group
                                .r_tuple
                                .features
                                .iter()
                                .zip(new_means_split[c][1].iter())
                                .map(|(x, m)| x - m)
                                .collect();
                            // UR / LL blocks from the group-level weighted PD_S sum.
                            local[c].add_outer(0, 1, 1.0, &weighted_pd_s[c], &pd_r);
                            local[c].add_outer(1, 0, 1.0, &pd_r, &weighted_pd_s[c]);
                            // LR block: one outer product per group, reused for
                            // the whole responsibility mass of the group.
                            local[c].add_outer(1, 1, group_gamma[c], &pd_r, &pd_r);
                        }
                    }
                    (local, local_acc, local_fact)
                });
                for (local, local_acc, local_fact) in parts {
                    for c in 0..k {
                        scatter[c].merge_from(&local[c]);
                        sparse_acc[c].merge_from(&local_acc[c]);
                        fact_acc[c].merge_from(&local_fact[c]);
                    }
                }
                group_cursor += groups.len();
                fact_cursor += groups.iter().map(|g| g.s_tuples.len()).sum::<usize>();
            }
            for (c, acc) in sparse_acc.iter().enumerate() {
                acc.finalize(&mut scatter[c], 1, &new_means_split[c][1]);
            }
            for (c, acc) in fact_acc.iter().enumerate() {
                acc.finalize(&mut scatter[c], 0, &new_means_split[c][0]);
            }
            let scatter_mats: Vec<Matrix> =
                scatter.into_iter().map(BlockScatter::into_matrix).collect();
            model = finalize_m_step(&nk, mean_sums, scatter_mats, n, config.ridge);
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
        assert!(m.model.max_param_diff(&f.model) < 1e-7);
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
}
