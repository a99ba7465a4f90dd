//! `F-GMM` for multi-way joins (Section V-C).
//!
//! With `q` dimension tables the feature space is partitioned into `q + 1` blocks
//! `[d_S | d_{R_1} | … | d_{R_q}]` and the EM quantities decompose into a
//! `(q+1)×(q+1)` grid (Equations 19–24).  Every cell that depends only on
//! dimension tuples is paid once per *distinct tuple* and reused per matching
//! fact.  The E-step half of that grid is [`crate::estep`] (shared with the
//! binary trainer and the scorer); the M-step mirrors it cell for cell:
//!
//! | grid cell | M-step, paid per | per-fact remainder |
//! |---|---|---|
//! | `(0,0)` fact × fact | fact | a `d_S×d_S` outer product |
//! | `(0,i)`, `(i,0)` fact × dimension | `R_i` tuple: two outer products with `Σγ·PD_S` | one AXPY of length `d_S` |
//! | `(i,i)` dimension diagonal | `R_i` tuple: one outer product weighted `Σγ` | one scalar add |
//! | `(i,j)`, `(j,i)` dimension × dimension | tuple of the **wider** dimension: two outer products with `Σγ·PD_n` | one AXPY of the **narrower** width `d_n` |
//!
//! Foreign keys are resolved to dense per-dimension ordinals once per fact
//! and pass ([`fml_store::join::DimCache::ordinals`]); every per-tuple
//! quantity lives in a flat [`OrdinalArena`] row `[ordinal][component][…]`
//! filled on first reference, so dimension tuples no fact references are
//! never read.  Ordinals ascend with the key, so the per-tuple merges run in
//! one fixed order and a fit is bit-reproducible run to run; the E-step's
//! per-fact sums are folded in fact order, so it is also independent of the
//! worker count.

use crate::em::{converged, finalize_m_step, means_from_sums, GmmFit};
use crate::estep::{DimLayout, EStep};
use crate::init::GmmInit;
use crate::model::{split_means, Precomputed};
use crate::sparse::SparseScatterAcc;
use crate::GmmConfig;
use fml_linalg::block::{BlockPartition, BlockScatter};
use fml_linalg::exec::{ExecPolicy, FitNotifier};
use fml_linalg::policy::par_chunks_with_threads;
use fml_linalg::repcache::{KeyedRepCache, OrdinalArena};
use fml_linalg::{vector, Matrix, Vector};
use fml_store::factorized_scan::StarScan;
use fml_store::{Database, JoinSpec, StoreResult};
use std::time::Instant;

/// The factorized training strategy for star (multi-way) joins.
pub struct FactorizedMultiwayGmm;

/// Borrows arena `wide` mutably and arena `narrow` immutably (`wide != narrow`).
fn wide_and_narrow(
    arenas: &mut [OrdinalArena],
    wide: usize,
    narrow: usize,
) -> (&mut OrdinalArena, &OrdinalArena) {
    if wide < narrow {
        let (lo, hi) = arenas.split_at_mut(narrow);
        (&mut lo[wide], &hi[0])
    } else {
        let (lo, hi) = arenas.split_at_mut(wide);
        (&mut hi[0], &lo[narrow])
    }
}

impl FactorizedMultiwayGmm {
    /// Trains a GMM over a star join of `q ≥ 1` dimension tables.
    pub fn train(
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
        spec.validate(db)?;
        let sizes = spec.feature_partition(db)?;
        let partition = BlockPartition::new(&sizes);
        let d = partition.total_dim();
        let d_s = sizes[0];
        let q = sizes.len() - 1;
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
        let mut gammas: Vec<f64> = Vec::with_capacity(n as usize * k);

        let kp = ex.kernel_policy.sequential();
        // Fan out only when per-fact work can amortize the thread spawns.
        let par =
            ex.kernel_policy.is_parallel() && k * d * d >= crate::factorized::PAR_MIN_GROUP_FLOPS;
        let workers = ex.workers(par);
        // Per-dimension detection caches, keyed by ordinal and **hoisted out
        // of the EM loop**: the dimension tuples are immutable, so detection
        // runs at most once per distinct tuple for the whole training run
        // (the E-step fills the cache on first encounter; the M-step passes
        // and every later iteration reuse it).
        let mut dim_reps: Vec<KeyedRepCache> =
            (0..q).map(|_| KeyedRepCache::new(ex.sparse)).collect();
        // Per-dimension arenas, re-sized and cleared at the start of each
        // pass: `terms` holds the E-step cache in pass 1 and the covariance
        // aggregate in pass 3 (see [`DimLayout`]), `gamma_sums` the pass-2
        // responsibility mass per tuple.
        let layouts = DimLayout::all(&sizes);
        let mut terms: Vec<OrdinalArena> = layouts
            .iter()
            .map(|lay| OrdinalArena::new(k * lay.len))
            .collect();
        let mut gamma_sums: Vec<OrdinalArena> = (0..q).map(|_| OrdinalArena::new(k)).collect();
        // Resolved ordinals: of a whole fact block in pass 1 (the chunked
        // evaluation reads them), of the current fact in passes 2–3.
        let mut block_ords: Vec<u32> = Vec::new();
        let mut ords: Vec<u32> = vec![0; q];

        for _iter in 0..config.max_iters {
            let estep = EStep::new(
                Precomputed::from_model(&model, config.ridge),
                &partition,
                ex.sparse,
                kp,
            );

            // ---- Pass 1: E-step (Equation 19) ----
            // Per block: a sequential sweep resolves every fact's ordinals
            // and fills the arena rows of newly referenced dimension tuples
            // (one row per *distinct* tuple — the factorized reuse), then the
            // per-fact evaluation fans out over chunks that read the arenas
            // immutably; per-fact results fold in fact order.
            gammas.clear();
            let mut nk = vec![0.0; k];
            let mut ll = 0.0;
            let scan = StarScan::new(db, spec, ex.block_pages)?;
            for (i, arena) in terms.iter_mut().enumerate() {
                arena.reset(scan.cache().dim_len(i));
            }
            for block in scan.blocks() {
                let facts = block?;
                block_ords.resize(facts.len() * q, 0);
                for (f, fact) in facts.iter().enumerate() {
                    let fact_ords = &mut block_ords[f * q..(f + 1) * q];
                    scan.cache().ordinals(fact, fact_ords)?;
                    for (i, &ord) in fact_ords.iter().enumerate() {
                        if terms[i].claim(ord) {
                            let features = &scan.cache().tuple(i, ord).features;
                            // Detection persists across iterations; only the
                            // first encounter of a tuple ever scans it.
                            let rep = dim_reps[i].rep_or_detect(ord, features);
                            estep.fill_row(i, features, rep, terms[i].row_mut(ord));
                        }
                    }
                }
                let parts = par_chunks_with_threads(workers, facts.len(), 1, |range| {
                    let mut local_gammas = Vec::with_capacity(range.len() * k);
                    let mut local_lls = Vec::with_capacity(range.len());
                    let mut log_dens = vec![0.0; k];
                    let mut pd_s = vec![0.0; d_s];
                    let mut rows: Vec<&[f64]> = Vec::with_capacity(q);
                    for f in range {
                        rows.clear();
                        rows.extend(
                            terms
                                .iter()
                                .zip(&block_ords[f * q..(f + 1) * q])
                                .map(|(arena, &ord)| arena.row(ord)),
                        );
                        estep.log_densities(
                            &facts[f].features,
                            None,
                            &rows,
                            &mut pd_s,
                            &mut log_dens,
                        );
                        let (resp, tuple_ll) = estep.pre.finish_responsibilities(&mut log_dens);
                        local_lls.push(tuple_ll);
                        local_gammas.extend_from_slice(&resp);
                    }
                    (local_gammas, local_lls)
                });
                // Fact-order fold: the sums do not depend on how the block
                // was chunked, hence not on the worker count.
                for (local_gammas, local_lls) in parts {
                    for (resp, tuple_ll) in local_gammas.chunks_exact(k).zip(local_lls) {
                        vector::axpy(1.0, resp, &mut nk);
                        ll += tuple_ll;
                    }
                    gammas.extend_from_slice(&local_gammas);
                }
            }

            // ---- Pass 2: M-step, means (Equation 22) ----
            let mut mean_sums = vec![Vector::zeros(d); k];
            let mut cursor = 0usize;
            let scan = StarScan::new(db, spec, ex.block_pages)?;
            for (i, arena) in gamma_sums.iter_mut().enumerate() {
                arena.reset(scan.cache().dim_len(i));
            }
            for block in scan.blocks() {
                for fact in block? {
                    scan.cache().ordinals(&fact, &mut ords)?;
                    let g = &gammas[cursor..cursor + k];
                    for c in 0..k {
                        vector::axpy(
                            g[c],
                            &fact.features,
                            &mut mean_sums[c].as_mut_slice()[..d_s],
                        );
                    }
                    for (arena, &ord) in gamma_sums.iter_mut().zip(&ords) {
                        if arena.claim(ord) {
                            arena.row_mut(ord).fill(0.0);
                        }
                        vector::axpy(1.0, g, arena.row_mut(ord));
                    }
                    cursor += k;
                }
            }
            for (i, arena) in gamma_sums.iter().enumerate() {
                let range = partition.range(i + 1);
                for ord in arena.referenced() {
                    let sums = arena.row(ord);
                    let rep = dim_reps[i].get(ord);
                    let features = &scan.cache().tuple(i, ord).features;
                    for c in 0..k {
                        let dst = &mut mean_sums[c].as_mut_slice()[range.clone()];
                        match rep {
                            Some(rep) => rep.axpy_into(sums[c], dst),
                            None => vector::axpy(sums[c], features, dst),
                        }
                    }
                }
            }
            let new_means = means_from_sums(&nk, &mean_sums);
            let new_means_split = split_means(&new_means, &partition);

            // ---- Pass 3: M-step, covariances (Equations 23–24) ----
            let mut pd_s = vec![0.0; d_s];
            let mut scatter: Vec<BlockScatter> = (0..k)
                .map(|_| BlockScatter::new_with(partition.clone(), kp))
                .collect();
            let mut cursor = 0usize;
            let scan = StarScan::new(db, spec, ex.block_pages)?;
            for (i, arena) in terms.iter_mut().enumerate() {
                arena.reset(scan.cache().dim_len(i));
            }
            for block in scan.blocks() {
                for fact in block? {
                    scan.cache().ordinals(&fact, &mut ords)?;
                    let g = &gammas[cursor..cursor + k];
                    // First reference: centered dimension vectors under the
                    // *new* means, zeroed aggregates.
                    for (i, lay) in layouts.iter().enumerate() {
                        if terms[i].claim(ords[i]) {
                            let features = &scan.cache().tuple(i, ords[i]).features;
                            let row = terms[i].row_mut(ords[i]);
                            for (c, e) in row.chunks_exact_mut(lay.len).enumerate() {
                                let (pd, aggregates) = e.split_at_mut(lay.d);
                                vector::sub_into(features, &new_means_split[c][i + 1], pd);
                                aggregates.fill(0.0);
                            }
                        }
                    }
                    for c in 0..k {
                        vector::sub_into(&fact.features, &new_means_split[c][0], &mut pd_s);
                        // fact-fact block, per fact
                        scatter[c].add_outer(0, 0, g[c], &pd_s, &pd_s);
                        for (i, lay) in layouts.iter().enumerate() {
                            let at = c * lay.len;
                            let e = &mut terms[i].row_mut(ords[i])[at..at + lay.len];
                            e[lay.scalar()] += g[c];
                            vector::axpy(g[c], &pd_s, &mut e[lay.fact()]);
                            // the wider side gathers `Σ γ·PD_n` per partner
                            for &(n, off) in &lay.partners {
                                let ln = &layouts[n];
                                let (wide, narrow) = wide_and_narrow(&mut terms, i, n);
                                let pd_n = &narrow.row(ords[n])[c * ln.len..c * ln.len + ln.d];
                                let sum_n = &mut wide.row_mut(ords[i])[at + off..at + off + ln.d];
                                vector::axpy(g[c], pd_n, sum_n);
                            }
                        }
                    }
                    cursor += k;
                }
            }
            // Dimension-side blocks, once per referenced dimension tuple.
            // Sparse tuples go through the sparse decomposition: raw-x
            // scatters here, dense mean corrections once per (component,
            // block) after the loop.
            for (i, lay) in layouts.iter().enumerate() {
                let b = i + 1;
                let mut acc: Vec<SparseScatterAcc> =
                    (0..k).map(|_| SparseScatterAcc::new(d_s, lay.d)).collect();
                for ord in terms[i].referenced() {
                    let rep = dim_reps[i].get(ord);
                    for (c, e) in terms[i].row(ord).chunks_exact(lay.len).enumerate() {
                        let (pd, w_s, gamma) = (&e[lay.pd()], &e[lay.fact()], e[lay.scalar()]);
                        match rep {
                            Some(rep) => acc[c].record(&mut scatter[c], b, gamma, w_s, rep),
                            None => {
                                scatter[c].add_outer(0, b, 1.0, w_s, pd);
                                scatter[c].add_outer(b, 0, 1.0, pd, w_s);
                                scatter[c].add_outer(b, b, gamma, pd, pd);
                            }
                        }
                        // both cross cells of each pair, once per wide tuple
                        for &(n, off) in &lay.partners {
                            let w_n = &e[off..off + layouts[n].d];
                            scatter[c].add_outer(n + 1, b, 1.0, w_n, pd);
                            scatter[c].add_outer(b, n + 1, 1.0, pd, w_n);
                        }
                    }
                }
                for (c, acc) in acc.iter().enumerate() {
                    acc.finalize(&mut scatter[c], b, &new_means_split[c][b]);
                }
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
    use fml_data::multiway::{DimSpec, MultiwayConfig};
    use fml_data::SyntheticConfig;

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
        let f = FactorizedMultiwayGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
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
        let f = FactorizedMultiwayGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&f.model) < 1e-7);
        assert_eq!(f.model.dim(), 8);
    }

    #[test]
    fn multiway_reduces_to_binary_when_q_is_one() {
        // A star join with a single dimension table must match the dedicated
        // binary implementation exactly.
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
        let binary =
            crate::FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let multi =
            FactorizedMultiwayGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(binary.model.max_param_diff(&multi.model) < 1e-8);
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
        let f = FactorizedMultiwayGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        for pair in f.log_likelihood.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-6);
        }
    }
}
