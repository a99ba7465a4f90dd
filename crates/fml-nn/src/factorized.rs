//! `F-NN` for binary joins: back-propagation pushed through the join
//! (Sections VI-A1 and VI-A3).
//!
//! * **Forward, first layer**: the pre-activation splits as
//!   `a¹ = W¹_S·x_S + (W¹_R·x_R + b¹)`.  The parenthesized term depends only on
//!   the dimension tuple and the (epoch-constant) weights, so it is computed once
//!   per dimension tuple per epoch and reused for every matching fact tuple.
//! * **Forward/backward, layers ≥ 2**: evaluated exactly as in the dense variants
//!   — the paper shows that sharing computation there is only exact for additive
//!   activations and never cheaper (see [`crate::layer_reuse`]).
//! * **Backward, first layer**: `∂E/∂W¹ = δ¹·xᵀ = [PG_S  PG_R]` (Equation 29).
//!   The fact-side block accumulates per tuple; the dimension-side block
//!   accumulates the per-group sum of `δ¹` and performs a single outer product
//!   with `x_R` per dimension tuple.  Either way the features are read from the
//!   base relations (`n_S·d_S + n_R·d_R` fields instead of `N·d`), the I/O saving
//!   of Section VI-A3.

use crate::first_layer::FirstLayer;
use crate::mlp::Mlp;
use crate::multiway::FactorizedMultiwayNn;
use crate::trainer::{ensure_trainable, NnConfig, NnFit};
use fml_linalg::exec::{ExecPolicy, FitNotifier};
use fml_linalg::policy::par_chunks_with_threads;
use fml_linalg::repcache::RepCache;
use fml_linalg::vector;
use fml_store::factorized_scan::GroupScan;
use fml_store::{Database, JoinSpec, StoreResult};
use std::time::Instant;

/// Minimum per-example work (≈ `4·|θ|` flops) below which the parallel policy
/// processes join groups inline instead of fanning out (mirrors the GMM
/// trainers' `PAR_MIN_GROUP_FLOPS`).
const PAR_MIN_GROUP_FLOPS: usize = 1 << 12;

/// The factorized NN training strategy (the paper's proposal).
pub struct FactorizedNn;

impl FactorizedNn {
    /// Trains the network without materializing the join, reusing the
    /// dimension-side first-layer computation.  Multi-way joins are dispatched to
    /// [`FactorizedMultiwayNn`].
    pub fn train(
        db: &Database,
        spec: &JoinSpec,
        config: &NnConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<NnFit> {
        spec.validate(db)?;
        if spec.num_dimensions() > 1 {
            return FactorizedMultiwayNn::train(db, spec, config, exec);
        }
        Self::train_binary(db, spec, config, exec)
    }

    fn train_binary(
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
        let n = ensure_trainable(db, spec)?;
        let sizes = spec.feature_partition(db)?;
        let d: usize = sizes.iter().sum();
        let mut model = Mlp::new(d, &config.hidden, config.activation, ex.seed);
        let mut loss_trace = Vec::with_capacity(config.epochs);
        let probe = db.stats().io_probe();
        let mut notifier = FitNotifier::new(exec, Some(&probe));

        // Per-tuple representation caches (one-hot / weighted CSR / dense),
        // filled lazily during the first epoch's scan and indexed by group /
        // fact scan position — detection runs at most once per tuple for the
        // whole training run instead of once per epoch (the shared
        // [`RepCache`] protocol).
        let mut group_reps = RepCache::new(ex.sparse);
        let mut fact_reps = RepCache::new(ex.sparse);

        for _epoch in 0..config.epochs {
            // Weights are constant within an epoch (full-batch update at the end),
            // so the column split of W¹ is hoisted out of the scan.
            let kp = ex.kernel_policy.sequential();
            let first = FirstLayer::split(&model, &sizes, kp);
            let nh = first.width();

            let mut grads = model.zero_grads();
            // First-layer weight gradient, accumulated block-wise.
            let mut grad_w1 = first.zero_grad();
            let mut loss_sum = 0.0;

            // Fan out over join groups only when per-example work can amortize
            // the scoped-thread spawns.
            let par =
                ex.kernel_policy.is_parallel() && 4 * model.num_params() >= PAR_MIN_GROUP_FLOPS;
            let workers = ex.workers(par);
            let mut group_cursor = 0usize;
            let mut fact_cursor = 0usize;
            let scan = GroupScan::from_spec(db, spec, ex.block_pages)?;
            for block in scan {
                // Join groups are independent within a block: chunks of groups
                // accumulate private gradients that merge in chunk order.
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
                let (group_reps_ref, fact_reps_ref) = (&group_reps, &fact_reps);
                let parts = par_chunks_with_threads(workers, groups.len(), 1, |range| {
                    let mut local_grads = model.zero_grads();
                    let mut local_w1 = first.zero_grad();
                    let mut ws = model.workspace();
                    // Per dimension tuple: W¹_R·x_R and the sum of its
                    // facts' first-layer deltas.
                    let (mut t_r, mut delta_sum) = (vec![0.0; nh], vec![0.0; nh]);
                    let mut group_seg = group_reps_ref.segment(group_base + range.start);
                    let mut fact_seg = fact_reps_ref.segment(fact_offsets[range.start]);
                    let mut local_loss = 0.0;
                    for gi in range {
                        let group = &groups[gi];
                        // Reused per dimension tuple: W¹_R·x_R (a gather of
                        // the table rows a sparse x_R selects).
                        let r_rep =
                            group_seg.rep_or_detect(group_base + gi, &group.r_tuple.features);
                        first.partial(1, &group.r_tuple.features, r_rep, &mut t_r);
                        delta_sum.fill(0.0);

                        for (fi, s_tuple) in group.s_tuples.iter().enumerate() {
                            // ---- forward, first layer (factorized) ----
                            let x_s = &s_tuple.features;
                            let s_rep = fact_seg.rep_or_detect(fact_offsets[gi] + fi, x_s);
                            first.pre_activation(x_s, s_rep, [&t_r[..]], ws.first_preactivation());
                            // ---- layers ≥ 2 forward, all layers backward ----
                            let y = s_tuple.target.unwrap_or(0.0);
                            local_loss += model.backward_from_first_preactivation_with(
                                kp,
                                &mut ws,
                                y,
                                &mut local_grads,
                            );
                            // PG_S: per fact tuple.
                            local_w1.add(0, ws.first_delta(), x_s, s_rep);
                            vector::axpy(1.0, ws.first_delta(), &mut delta_sum);
                        }
                        // PG_R: one outer product per dimension tuple.
                        local_w1.add(1, &delta_sum, &group.r_tuple.features, r_rep);
                    }
                    (
                        local_grads,
                        local_w1,
                        local_loss,
                        group_seg.into_detected(),
                        fact_seg.into_detected(),
                    )
                });
                for (local_grads, local_w1, local_loss, group_detected, fact_detected) in parts {
                    for (dst, src) in grads.iter_mut().zip(local_grads.iter()) {
                        dst.merge_from(src);
                    }
                    grad_w1.merge_from(&local_w1);
                    loss_sum += local_loss;
                    group_reps.merge(group_detected);
                    fact_reps.merge(fact_detected);
                }
                group_cursor += groups.len();
                fact_cursor += groups.iter().map(|g| g.s_tuples.len()).sum::<usize>();
            }
            group_reps.finish_fill();
            fact_reps.finish_fill();

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
    use crate::activation::Activation;
    use crate::materialized::MaterializedNn;
    use crate::streaming::StreamingNn;
    use fml_data::SyntheticConfig;

    fn workload(n_s: u64, n_r: u64, d_s: usize, d_r: usize) -> fml_data::Workload {
        SyntheticConfig {
            n_s,
            n_r,
            d_s,
            d_r,
            k: 2,
            noise_std: 0.5,
            with_target: true,
            seed: 19,
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn factorized_matches_materialized_and_streaming() {
        let w = workload(300, 12, 2, 5);
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::Relu] {
            let config = NnConfig {
                hidden: vec![7],
                epochs: 4,
                activation: act,
                ..NnConfig::default()
            };
            let m = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
            let s = StreamingNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
            let f = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
            assert!(
                m.model.max_param_diff(&f.model) < 1e-9,
                "{act:?}: M vs F diff {}",
                m.model.max_param_diff(&f.model)
            );
            assert!(s.model.max_param_diff(&f.model) < 1e-9);
            for (a, b) in m.loss_trace.iter().zip(f.loss_trace.iter()) {
                assert!((a - b).abs() < 1e-9, "loss traces diverged: {a} vs {b}");
            }
        }
    }

    #[test]
    fn factorized_matches_with_two_hidden_layers() {
        let w = workload(200, 10, 3, 6);
        let config = NnConfig {
            hidden: vec![6, 4],
            epochs: 3,
            ..NnConfig::default()
        };
        let m = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&f.model) < 1e-9);
    }

    #[test]
    fn loss_decreases_during_training() {
        let w = workload(400, 16, 2, 4);
        let config = NnConfig {
            hidden: vec![10],
            epochs: 30,
            learning_rate: 0.1,
            ..NnConfig::default()
        };
        let f = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(
            f.final_loss() < f.loss_trace[0],
            "loss did not decrease: {:?}",
            f.loss_trace
        );
    }

    #[test]
    fn factorized_reads_fewer_fields_than_materialized() {
        let w = workload(1000, 10, 2, 10);
        let config = NnConfig {
            hidden: vec![5],
            epochs: 2,
            ..NnConfig::default()
        };
        w.db.stats().reset();
        let _ = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f_fields = w.db.stats().snapshot().fields_read;
        w.db.stats().reset();
        let _ = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let m_fields = w.db.stats().snapshot().fields_read;
        assert!(
            f_fields < m_fields,
            "factorized read {f_fields} fields, materialized {m_fields}"
        );
    }
}
