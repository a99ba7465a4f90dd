//! `F-NN` for multi-way joins (Section VI-B).
//!
//! With `q` dimension tables the first-layer pre-activation splits as
//! `a¹ = W¹_S·x_S + Σ_i W¹_{R_i}·x_{R_i} + b¹` (Equation 31); each per-dimension
//! partial product is computed once per dimension tuple per epoch and cached.  The
//! first-layer weight gradient splits into `q + 1` blocks
//! `[PG_S  PG_{R_1} … PG_{R_q}]` (Equation 32); each dimension block accumulates
//! the per-dimension-tuple sum of `δ¹` and performs one outer product with
//! `x_{R_i}` per dimension tuple.
//!
//! As in the star GMM trainer, each fact resolves its foreign keys to dense
//! per-dimension ordinals once ([`fml_store::join::DimCache::ordinals`]) and
//! both per-tuple quantities live in one flat [`OrdinalArena`] row per
//! dimension tuple, `[W¹_{R_i}·x_{R_i} | Σ δ¹]`, initialized on first
//! reference; the gradient merge walks the referenced rows in ascending
//! ordinal (= key) order, so an epoch has one fixed floating-point order.

use crate::first_layer::FirstLayer;
use crate::mlp::Mlp;
use crate::trainer::{ensure_trainable, NnConfig, NnFit};
use fml_linalg::exec::{ExecPolicy, FitNotifier};
use fml_linalg::repcache::{KeyedRepCache, OrdinalArena};
use fml_linalg::vector;
use fml_store::factorized_scan::StarScan;
use fml_store::{Database, JoinSpec, StoreResult};
use std::time::Instant;

/// The factorized NN training strategy for star (multi-way) joins.
pub struct FactorizedMultiwayNn;

impl FactorizedMultiwayNn {
    /// Trains the network over a star join of `q ≥ 1` dimension tables.
    pub fn train(
        db: &Database,
        spec: &JoinSpec,
        config: &NnConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<NnFit> {
        let start = Instant::now();
        let ex = exec.resolve();
        // Kernels invoked under a parallel policy on this thread fan out to
        // exactly the resolved thread count while training runs.
        let _kernel_threads = ex.kernel_thread_scope();
        // The resolved observability mode governs instrumentation on every
        // thread this run touches (pool workers, storage scans).
        let _obs = ex.obs_scope();
        spec.validate(db)?;
        let n = ensure_trainable(db, spec)?;
        let sizes = spec.feature_partition(db)?;
        let d: usize = sizes.iter().sum();
        let q = sizes.len() - 1;
        let mut model = Mlp::new(d, &config.hidden, config.activation, ex.seed);
        let mut loss_trace = Vec::with_capacity(config.epochs);
        let probe = db.stats().io_probe();
        let mut notifier = FitNotifier::new(exec, Some(&probe));

        // Per-dimension detection caches, keyed by ordinal and hoisted out of
        // the epoch loop: dimension tuples are immutable, so detection runs
        // at most once per distinct tuple for the whole training run (the
        // shared [`KeyedRepCache`] protocol).
        let mut dim_reps: Vec<KeyedRepCache> =
            (0..q).map(|_| KeyedRepCache::new(ex.sparse)).collect();
        // Per dimension tuple, cleared each epoch: the partial product
        // W¹_{R_i}·x_{R_i} (a column gather of W¹_{R_i} when x_{R_i} is
        // sparse) followed by the accumulated sum of first-layer deltas.
        let nh = model.layers()[0].out_dim();
        let mut arenas: Vec<OrdinalArena> = (0..q).map(|_| OrdinalArena::new(2 * nh)).collect();
        let mut ords: Vec<u32> = vec![0; q];
        let mut ws = model.workspace();

        for _epoch in 0..config.epochs {
            let kp = ex.kernel_policy.sequential();
            let first = FirstLayer::split(&model, &sizes, kp);
            let mut grads = model.zero_grads();
            let mut grad_w1 = first.zero_grad();
            let mut loss_sum = 0.0;

            let scan = StarScan::new(db, spec, ex.block_pages)?;
            for (i, arena) in arenas.iter_mut().enumerate() {
                arena.reset(scan.cache().dim_len(i));
            }

            for block in scan.blocks() {
                for fact in block? {
                    scan.cache().ordinals(&fact, &mut ords)?;
                    // ---- forward, first layer (factorized) ----
                    for (i, &ord) in ords.iter().enumerate() {
                        if arenas[i].claim(ord) {
                            let features = &scan.cache().tuple(i, ord).features;
                            // Detection persists across epochs; only the
                            // first encounter of a tuple ever scans it.
                            let rep = dim_reps[i].rep_or_detect(ord, features);
                            let (cached, delta_sum) = arenas[i].row_mut(ord).split_at_mut(nh);
                            first.partial(i + 1, features, rep, cached);
                            delta_sum.fill(0.0);
                        }
                    }
                    let cached = arenas.iter().zip(&ords).map(|(a, &ord)| &a.row(ord)[..nh]);
                    first.pre_activation(&fact.features, None, cached, ws.first_preactivation());
                    // ---- layers ≥ 2 forward, all layers backward ----
                    let y = fact.target.unwrap_or(0.0);
                    loss_sum +=
                        model.backward_from_first_preactivation_with(kp, &mut ws, y, &mut grads);
                    grad_w1.add(0, ws.first_delta(), &fact.features, None);
                    for (arena, &ord) in arenas.iter_mut().zip(&ords) {
                        vector::axpy(1.0, ws.first_delta(), &mut arena.row_mut(ord)[nh..]);
                    }
                }
            }

            // Dimension blocks of the first-layer gradient: one outer product
            // (a column scatter-add for sparse tuples) per referenced
            // dimension tuple, in ascending ordinal order.
            for (i, arena) in arenas.iter().enumerate() {
                for ord in arena.referenced() {
                    let features = &scan.cache().tuple(i, ord).features;
                    grad_w1.add(i + 1, &arena.row(ord)[nh..], features, dim_reps[i].get(ord));
                }
            }
            grad_w1.add_into(&mut grads[0]);
            model.apply_grads(&grads, config.learning_rate, n as f64);
            loss_trace.push(loss_sum / n as f64);
            notifier.notify(loss_sum / n as f64);
        }

        Ok(NnFit {
            model,
            epochs: config.epochs,
            loss_trace,
            n_tuples: n,
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialized::MaterializedNn;
    use crate::streaming::StreamingNn;
    use fml_data::multiway::{DimSpec, MultiwayConfig};
    use fml_data::SyntheticConfig;

    #[test]
    fn multiway_factorized_matches_materialized() {
        let w = MultiwayConfig {
            n_s: 300,
            d_s: 2,
            dims: vec![DimSpec::new(12, 3), DimSpec::new(6, 5)],
            k: 2,
            noise_std: 0.5,
            with_target: true,
            seed: 23,
        }
        .generate()
        .unwrap();
        let config = NnConfig {
            hidden: vec![8],
            epochs: 4,
            ..NnConfig::default()
        };
        let m = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let s = StreamingNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedMultiwayNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(
            m.model.max_param_diff(&f.model) < 1e-9,
            "M vs F diff {}",
            m.model.max_param_diff(&f.model)
        );
        assert!(s.model.max_param_diff(&f.model) < 1e-9);
    }

    #[test]
    fn multiway_three_dimensions() {
        let w = MultiwayConfig {
            n_s: 250,
            d_s: 1,
            dims: vec![DimSpec::new(8, 2), DimSpec::new(4, 3), DimSpec::new(3, 2)],
            k: 2,
            noise_std: 0.5,
            with_target: true,
            seed: 29,
        }
        .generate()
        .unwrap();
        let config = NnConfig {
            hidden: vec![5],
            epochs: 3,
            ..NnConfig::default()
        };
        let m = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedMultiwayNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&f.model) < 1e-9);
        assert_eq!(f.model.input_dim(), 8);
    }

    #[test]
    fn multiway_reduces_to_binary_when_q_is_one() {
        let w = SyntheticConfig {
            n_s: 200,
            n_r: 10,
            d_s: 2,
            d_r: 4,
            k: 2,
            noise_std: 0.5,
            with_target: true,
            seed: 31,
        }
        .generate()
        .unwrap();
        let config = NnConfig {
            hidden: vec![6],
            epochs: 3,
            ..NnConfig::default()
        };
        let binary =
            crate::FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let multi =
            FactorizedMultiwayNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(binary.model.max_param_diff(&multi.model) < 1e-10);
    }
}
