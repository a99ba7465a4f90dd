//! `F-NN`: back-propagation pushed through the join (Sections VI-A and
//! VI-B) — and the one epoch driver of every NN strategy; a binary join is
//! the star with `q = 1`.
//!
//! With `q` dimension tables the work of the first layer splits along the
//! partition `[d_S | d_{R_1} | … | d_{R_q}]` (Equations 31–32, which are
//! Equations 26–29 at `q = 1`); everything above it is evaluated per fact
//! exactly as in the dense variants — the paper shows that sharing
//! computation there is only exact for additive activations and never
//! cheaper (see [`crate::layer_reuse`]):
//!
//! | first-layer term | paid per `R_i` tuple, per epoch | per-fact remainder |
//! |---|---|---|
//! | forward, `a¹ = W¹_S·x_S + b¹ + Σ_i W¹_{R_i}·x_{R_i}` | the partial product `W¹_{R_i}·x_{R_i}` | `W¹_S·x_S` plus `q` adds of width `n_h` |
//! | backward, `∂E/∂W¹ = [PG_S  PG_{R_1} … PG_{R_q}]` | one outer product `(Σδ¹)·x_{R_i}ᵀ` | `δ¹·x_Sᵀ` plus `q` adds of width `n_h` into `Σδ¹` |
//!
//! Either way the features are read from the base relations
//! (`n_S·d_S + Σ n_{R_i}·d_{R_i}` fields instead of `N·d`), the I/O saving of
//! Section VI-A3.
//!
//! **One driver, three strategies.**  The strategy is a choice of scan, not
//! of driver:
//!
//! * `F-NN` factorizes every dimension, as above;
//! * `S-NN` ([`crate::StreamingNn`]) inlines every dimension: each fact's
//!   denormalized row ([`fml_store::factorized_scan::FactBlock::joined_row`])
//!   is block 0 of the partition `[d]` and there are no arenas;
//! * `M-NN` ([`crate::MaterializedNn`]) runs over its materialized table as
//!   the fact-only join (`q = 0`), whose partition is `[d]` already.
//!
//! `M-NN` and `S-NN` see the same rows in the same `(window, fact)` order —
//! the order `materialize_join` writes — so their fits are bit-identical.
//!
//! **Scan.**  An epoch is one [`FactorizedScan`]: per window the per-tuple
//! arenas are reset, per fact block the foreign keys arrive resolved to dense
//! ordinals, and at the end of a window the dimension blocks of the gradient
//! are folded in.  Both per-tuple quantities live in one flat
//! [`OrdinalArena`] row per dimension tuple, `[W¹_{R_i}·x_{R_i} | Σ δ¹]`,
//! initialized on first reference.  A star is one window; a binary join whose
//! `R` spans several `block_pages` windows pays the dimension-side work once
//! per tuple all the same, and reads exactly the pages `S-NN` reads.
//!
//! **Sparse tuples** ([`fml_linalg::SparseMode::Auto`]).  Representations
//! (one-hot / weighted CSR / dense) are detected during the first epoch's
//! scan and cached for the whole run — dimension tuples by ordinal
//! ([`KeyedRepCache`], keyed by [`FactorizedScan::ordinal_base`]` + ordinal`),
//! facts by scan position ([`RepCache`]) — so detection runs at most once per
//! tuple, and a sparse tuple's products are gathers and scatters of
//! embedding-table rows ([`crate::first_layer`]).
//!
//! **Bit contract.**  The split is exact, so the model matches `M-NN` /
//! `S-NN` up to floating-point rounding (loss within 1e-6).  The whole epoch
//! runs on the driving thread in `(window, fact)` order and the gradient
//! merge walks the referenced rows in ascending ordinal (= key) order, so a
//! fit has one fixed floating-point order whatever the worker count.
//! Binary-join fits made before the two drivers merged accumulated the
//! gradient group-major and differ from today's in the last bits.

use crate::first_layer::FirstLayer;
use crate::mlp::Mlp;
use crate::trainer::{ensure_trainable, NnConfig, NnFit};
use fml_linalg::exec::{ExecPolicy, FitNotifier};
use fml_linalg::repcache::{KeyedRepCache, OrdinalArena, RepCache};
use fml_linalg::vector;
use fml_store::factorized_scan::FactorizedScan;
use fml_store::{Database, JoinSpec, StoreResult};
use std::time::Instant;

/// The factorized NN training strategy (the paper's proposal).
pub struct FactorizedNn;

impl FactorizedNn {
    /// Trains the network over a join of `q ≥ 1` dimension tables without
    /// materializing it, reusing the dimension-side first-layer computation.
    pub fn train(
        db: &Database,
        spec: &JoinSpec,
        config: &NnConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<NnFit> {
        train_epochs(db, spec, config, exec, false)
    }
}

/// The one NN epoch driver: full-batch gradient descent, one
/// [`FactorizedScan`] pass per epoch.  `inline` merges every dimension into
/// block 0 (the `S-NN` scan, see the module docs); otherwise every
/// dimension is factorized.
pub(crate) fn train_epochs(
    db: &Database,
    spec: &JoinSpec,
    config: &NnConfig,
    exec: &ExecPolicy,
    inline: bool,
) -> StoreResult<NnFit> {
    let start = Instant::now();
    let ex = exec.resolve();
    // The resolved observability mode governs instrumentation on every
    // thread this run touches (pool workers, storage scans).
    let _obs = ex.obs_scope();
    spec.validate(db)?;
    let n = ensure_trainable(db, spec)?;
    let mut sizes = spec.feature_partition(db)?;
    if inline {
        sizes = vec![sizes.iter().sum()];
    }
    let d: usize = sizes.iter().sum();
    // The factorized dimensions: none when every one is inlined.
    let q = sizes.len() - 1;
    let mut model = Mlp::new(d, &config.hidden, config.activation, ex.seed);
    let mut loss_trace = Vec::with_capacity(config.epochs);
    let probe = db.stats().io_probe();
    let mut notifier = FitNotifier::new(exec, Some(&probe));

    // Detection caches, hoisted out of the epoch loop: the tuples are
    // immutable and every epoch replays them in the same order, so the
    // first epoch fills the caches and every later one reads them.
    let mut dim_reps: Vec<KeyedRepCache> = (0..q).map(|_| KeyedRepCache::new(ex.sparse)).collect();
    let mut fact_reps = RepCache::new(ex.sparse);
    // Per dimension tuple, cleared each window: the partial product
    // W¹_{R_i}·x_{R_i} (a gather of the table rows a sparse x_{R_i}
    // selects) followed by the accumulated sum of first-layer deltas.
    let nh = model.layers()[0].out_dim();
    let mut arenas: Vec<OrdinalArena> = (0..q).map(|_| OrdinalArena::new(2 * nh)).collect();
    let mut ws = model.workspace();
    // An inlined fact's block 0: its denormalized row.
    let mut joined = Vec::new();

    for _epoch in 0..config.epochs {
        // Weights are constant within an epoch (full-batch update at the
        // end), so the split of W¹ is hoisted out of the scan.
        let kp = ex.kernel_policy;
        let first = FirstLayer::split(&model, &sizes, kp);
        let mut grads = model.zero_grads();
        let mut grad_w1 = first.zero_grad();
        let mut loss_sum = 0.0;
        let mut cursor = 0usize;

        let mut scan = FactorizedScan::new(db, spec, ex.block_pages)?;
        while scan.next_window()? {
            for (i, arena) in arenas.iter_mut().enumerate() {
                arena.reset(scan.cache().dim_len(i));
            }
            while scan.next_block()? {
                let (block, cache) = (scan.block(), scan.cache());
                let facts = block.rows();
                for f in 0..block.len() {
                    // Inlined dimensions have no arena: their ordinals go
                    // unused.
                    let ords = &block.ords_of(f)[..q];
                    // ---- forward, first layer (factorized) ----
                    for (i, &ord) in ords.iter().enumerate() {
                        if arenas[i].claim(ord) {
                            let features = cache.row(i, ord);
                            // Detection persists across epochs; only the
                            // first encounter of a tuple ever scans it.
                            let key = scan.ordinal_base(i) + ord;
                            let rep = dim_reps[i].rep_or_detect(key, features);
                            let (cached, delta_sum) = arenas[i].row_mut(ord).split_at_mut(nh);
                            first.partial(i + 1, features, rep, cached);
                            delta_sum.fill(0.0);
                        }
                    }
                    let x_s = if inline {
                        block.joined_row(f, cache, &mut joined)
                    } else {
                        facts.features(f)
                    };
                    let s_rep = fact_reps.rep_or_detect(cursor, x_s);
                    let cached = arenas.iter().zip(ords).map(|(a, &ord)| &a.row(ord)[..nh]);
                    first.pre_activation(x_s, s_rep, cached, ws.first_preactivation());
                    // ---- layers ≥ 2 forward, all layers backward ----
                    let y = facts.target(f).unwrap_or(0.0);
                    loss_sum +=
                        model.backward_from_first_preactivation_with(kp, &mut ws, y, &mut grads);
                    // PG_S: per fact.
                    grad_w1.add(0, ws.first_delta(), x_s, s_rep);
                    for (arena, &ord) in arenas.iter_mut().zip(ords) {
                        vector::axpy(1.0, ws.first_delta(), &mut arena.row_mut(ord)[nh..]);
                    }
                    cursor += 1;
                }
            }
            // PG_{R_i}: one outer product (a row scatter-add for sparse
            // tuples) per referenced dimension tuple, in ascending
            // ordinal order.
            for (i, arena) in arenas.iter().enumerate() {
                for ord in arena.referenced() {
                    let features = scan.cache().row(i, ord);
                    let rep = dim_reps[i].get(scan.ordinal_base(i) + ord);
                    grad_w1.add(i + 1, &arena.row(ord)[nh..], features, rep);
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::{MaterializedNn, StreamingNn};
    use fml_data::multiway::{DimSpec, MultiwayConfig};
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
            assert_eq!(m.model, s.model, "{act:?}: M vs S");
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

    #[test]
    fn multiway_fit_matches_materialized_and_streaming() {
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
        let f = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(
            m.model.max_param_diff(&f.model) < 1e-9,
            "M vs F diff {}",
            m.model.max_param_diff(&f.model)
        );
        assert_eq!(m.model, s.model, "M vs S");
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
        let f = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&f.model) < 1e-9);
        assert_eq!(f.model.input_dim(), 8);
    }

    #[test]
    fn multiway_with_one_dimension_is_the_binary_fit() {
        // The same relations named as a binary join and as a one-dimension
        // star are one code path: the fits agree bit for bit, and match the
        // materialized baseline.
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
        let star = JoinSpec::multiway(&w.spec.fact, w.spec.dimensions.clone());
        let binary = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let multi = FactorizedNn::train(&w.db, &star, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(binary.model.max_param_diff(&multi.model), 0.0);
        let m = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&multi.model) < 1e-10);
    }
}
