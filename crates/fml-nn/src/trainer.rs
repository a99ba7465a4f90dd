//! Shared training configuration, result type, and the dense full-batch trainer
//! used by `M-NN` and `S-NN`.

use crate::activation::Activation;
use crate::first_layer::FirstLayer;
use crate::mlp::Mlp;
use fml_linalg::exec::{ExecPolicy, FitNotifier, IoProbe};
use fml_linalg::policy::par_chunks_with_threads;
use fml_linalg::repcache::RepCache;
use fml_store::join::RowSource;
use fml_store::{Database, JoinSpec, StoreError, StoreResult};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Number of examples buffered per parallel batch: each batch fans out over
/// deterministic chunks whose gradient partials merge in chunk order.
pub const PAR_BATCH_EXAMPLES: usize = 1024;

/// Minimum per-batch flops below which the parallel policy stays inline.
pub const PAR_MIN_BATCH_FLOPS: usize = 1 << 22;

/// Model configuration shared by every NN training variant.
///
/// Holds only *model* concerns.  Execution knobs (kernel policy, sparse mode,
/// block size, threads, seed) live on [`fml_linalg::ExecPolicy`], which every
/// trainer takes alongside this config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NnConfig {
    /// Hidden layer sizes (the paper uses a single hidden layer of `n_h` units).
    pub hidden: Vec<usize>,
    /// Hidden activation function.
    pub activation: Activation,
    /// Number of training epochs (the paper uses 10).
    pub epochs: usize,
    /// Learning rate for the full-batch gradient-descent update.
    pub learning_rate: f64,
}

impl Default for NnConfig {
    fn default() -> Self {
        Self {
            hidden: vec![50],
            activation: Activation::Sigmoid,
            epochs: 10,
            learning_rate: 0.05,
        }
    }
}

impl NnConfig {
    /// Convenience constructor fixing the hidden width `n_h`.
    pub fn with_hidden(n_h: usize) -> Self {
        Self {
            hidden: vec![n_h],
            ..Self::default()
        }
    }

    /// Returns a copy with a different epoch budget.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Returns a copy with a different activation.
    pub fn activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }
}

/// The result of training a network.
#[derive(Debug, Clone)]
pub struct NnFit {
    /// The trained network.
    pub model: Mlp,
    /// Number of epochs performed.
    pub epochs: usize,
    /// Mean squared error after each epoch (`E` of Section VI-A3).
    pub loss_trace: Vec<f64>,
    /// Number of training tuples `N`.
    pub n_tuples: u64,
    /// Wall-clock training time (includes any join / materialization work).
    pub elapsed: Duration,
}

impl NnFit {
    /// Final training loss.
    pub fn final_loss(&self) -> f64 {
        self.loss_trace.last().copied().unwrap_or(f64::NAN)
    }
}

/// The one precondition check of every NN strategy: the fact relation carries
/// a target column `Y` and holds at least one tuple (a full-batch epoch over
/// nothing has no gradient to average).  Returns the fact count `N`.
pub fn ensure_trainable(db: &Database, spec: &JoinSpec) -> StoreResult<u64> {
    let fact = spec.fact_relation(db)?;
    let guard = fact.lock();
    let refuse = |detail: &str| {
        Err(StoreError::SchemaMismatch {
            relation: guard.name().to_string(),
            detail: detail.to_string(),
        })
    };
    if !guard.schema().has_target {
        return refuse("NN training requires a target column Y on the fact table");
    }
    if guard.num_tuples() == 0 {
        return refuse("NN training requires at least one fact tuple, the relation is empty");
    }
    Ok(guard.num_tuples())
}

/// A source of `(joined features, target)` pairs that can be replayed once per
/// epoch — the supervised analogue of the GMM crate's dense pass source.
pub trait SupervisedSource {
    /// Invokes `f` once per example.
    fn for_each(&mut self, f: &mut dyn FnMut(&[f64], f64)) -> StoreResult<()>;
    /// Number of examples per epoch.
    fn num_tuples(&self) -> u64;
    /// Dimensionality of the joined feature vectors.
    fn dim(&self) -> usize;
}

/// Full-batch gradient-descent training over a dense supervised source, starting
/// from the given initial network.  `M-NN` and `S-NN` share this loop.
///
/// Under a parallel [`fml_linalg::KernelPolicy`] the per-example forward/backward work is
/// buffered into batches of [`PAR_BATCH_EXAMPLES`] and fanned out over chunks;
/// each chunk accumulates into a private gradient set and the partials merge in
/// chunk order ([`crate::layer::LayerGradient::merge_from`]), so the epoch's gradient — and
/// therefore the learned model — is deterministic for a given thread count and
/// agrees with the sequential policies within rounding tolerances.
pub fn train_supervised_from(
    source: &mut dyn SupervisedSource,
    config: &NnConfig,
    exec: &ExecPolicy,
    initial: Mlp,
    io: IoProbe<'_>,
) -> StoreResult<NnFit> {
    let start = Instant::now();
    let ex = exec.resolve();
    // The resolved observability mode governs instrumentation on every
    // thread this run touches (pool workers, storage scans).
    let _obs = ex.obs_scope();
    let mut notifier = FitNotifier::new(exec, io);
    let n = source.num_tuples();
    assert_eq!(
        initial.input_dim(),
        source.dim(),
        "initial model dimension mismatch"
    );
    let mut model = initial;
    let mut loss_trace = Vec::with_capacity(config.epochs);
    // Kernels are sequential; forward+backward is ~4·|θ| flops per example,
    // so fan out only when a batch carries enough work to amortize the pool
    // dispatch — otherwise, and under every sequential policy, each batch
    // runs inline as one chunk.
    let kp = ex.kernel_policy;
    let par = ex.kernel_policy.is_parallel()
        && 4 * model.num_params() * PAR_BATCH_EXAMPLES >= PAR_MIN_BATCH_FLOPS;
    let workers = ex.workers(par);
    let dim = source.dim();
    // Per-example representation cache, filled lazily during the first epoch
    // (the source replays examples in a deterministic order) — sparse
    // denormalized rows gather / scatter only their active table rows, and
    // detection runs at most once per example (the shared [`RepCache`]
    // protocol).  Memory is O(total nnz) — the sparse rows' nonzeros,
    // strictly smaller than one dense copy of the dataset.
    let mut reps = RepCache::new(ex.sparse);
    let mut xs: Vec<f64> = Vec::with_capacity(dim * PAR_BATCH_EXAMPLES);
    let mut ys: Vec<f64> = Vec::with_capacity(PAR_BATCH_EXAMPLES);
    for _epoch in 0..config.epochs {
        // The denormalized row is the one-block partition `[d]` of the
        // factorized first layer: same tables, same kernels, no reuse.
        let first = FirstLayer::split(&model, &[dim], kp);
        let mut grads = model.zero_grads();
        let mut grad_w1 = first.zero_grad();
        let mut loss_sum = 0.0;
        let mut row_cursor = 0usize;
        let mut flush = |xs: &[f64], ys: &[f64]| {
            let base = row_cursor;
            let reps_ref: &RepCache = &reps;
            let parts = par_chunks_with_threads(workers, ys.len(), 1, |range| {
                let mut local_grads = model.zero_grads();
                let mut local_w1 = first.zero_grad();
                let mut ws = model.workspace();
                let mut seg = reps_ref.segment(base + range.start);
                let mut local_loss = 0.0;
                for r in range {
                    let x = &xs[r * dim..(r + 1) * dim];
                    let rep = seg.rep_or_detect(base + r, x);
                    first.pre_activation(x, rep, [], ws.first_preactivation());
                    local_loss += model.backward_from_first_preactivation_with(
                        kp,
                        &mut ws,
                        ys[r],
                        &mut local_grads,
                    );
                    local_w1.add(0, ws.first_delta(), x, rep);
                }
                (local_grads, local_w1, local_loss, seg.into_detected())
            });
            for (local_grads, local_w1, local_loss, detected) in parts {
                for (dst, src) in grads.iter_mut().zip(local_grads.iter()) {
                    dst.merge_from(src);
                }
                grad_w1.merge_from(&local_w1);
                loss_sum += local_loss;
                reps.merge(detected);
            }
            row_cursor += ys.len();
        };
        xs.clear();
        ys.clear();
        source.for_each(&mut |x: &[f64], y: f64| {
            xs.extend_from_slice(x);
            ys.push(y);
            if ys.len() >= PAR_BATCH_EXAMPLES {
                flush(&xs, &ys);
                xs.clear();
                ys.clear();
            }
        })?;
        if !ys.is_empty() {
            flush(&xs, &ys);
        }
        reps.finish_fill();
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

/// Full-batch training with the default seeded initialization.
pub fn train_supervised(
    source: &mut dyn SupervisedSource,
    config: &NnConfig,
    exec: &ExecPolicy,
) -> StoreResult<NnFit> {
    let initial = Mlp::new(
        source.dim(),
        &config.hidden,
        config.activation,
        exec.resolve().seed,
    );
    train_supervised_from(source, config, exec, initial, None)
}

/// An in-memory supervised source for tests.
pub struct VecSupervisedSource {
    rows: Vec<(Vec<f64>, f64)>,
    dim: usize,
}

impl VecSupervisedSource {
    /// Creates a source over in-memory `(x, y)` pairs.
    pub fn new(rows: Vec<(Vec<f64>, f64)>) -> Self {
        let dim = rows.first().map(|(x, _)| x.len()).unwrap_or(0);
        assert!(rows.iter().all(|(x, _)| x.len() == dim), "ragged rows");
        Self { rows, dim }
    }
}

/// The `M-NN` / `S-NN` source: the join's rows, from its materialized table
/// or joined on the fly.
impl SupervisedSource for RowSource<'_> {
    fn for_each(&mut self, f: &mut dyn FnMut(&[f64], f64)) -> StoreResult<()> {
        self.for_each_row(&mut |x, y| f(x, y.unwrap_or(0.0)))
    }

    fn num_tuples(&self) -> u64 {
        self.num_rows()
    }

    fn dim(&self) -> usize {
        self.width()
    }
}

impl SupervisedSource for VecSupervisedSource {
    fn for_each(&mut self, f: &mut dyn FnMut(&[f64], f64)) -> StoreResult<()> {
        for (x, y) in &self.rows {
            f(x, *y);
        }
        Ok(())
    }

    fn num_tuples(&self) -> u64 {
        self.rows.len() as u64
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> Vec<(Vec<f64>, f64)> {
        (0..60)
            .map(|i| {
                let x0 = (i % 6) as f64 / 6.0;
                let x1 = (i / 6) as f64 / 10.0;
                (vec![x0, x1], 2.0 * x0 - x1 + 0.5)
            })
            .collect()
    }

    #[test]
    fn defaults_match_paper_settings() {
        let c = NnConfig::default();
        assert_eq!(c.hidden, vec![50]);
        assert_eq!(c.epochs, 10);
        assert_eq!(c.activation, Activation::Sigmoid);
    }

    #[test]
    fn builders() {
        let c = NnConfig::with_hidden(30)
            .epochs(5)
            .activation(Activation::Relu);
        assert_eq!(c.hidden, vec![30]);
        assert_eq!(c.epochs, 5);
        assert_eq!(c.activation, Activation::Relu);
    }

    #[test]
    fn training_reduces_loss_on_learnable_data() {
        let mut source = VecSupervisedSource::new(linear_data());
        let config = NnConfig {
            hidden: vec![8],
            activation: Activation::Tanh,
            epochs: 150,
            learning_rate: 0.5,
        };
        let fit = train_supervised(&mut source, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(fit.epochs, 150);
        assert_eq!(fit.n_tuples, 60);
        assert!(
            fit.final_loss() < fit.loss_trace[0] * 0.2,
            "loss did not drop: {} -> {}",
            fit.loss_trace[0],
            fit.final_loss()
        );
    }

    #[test]
    fn loss_trace_has_one_entry_per_epoch() {
        let mut source = VecSupervisedSource::new(linear_data());
        let config = NnConfig {
            hidden: vec![4],
            epochs: 7,
            ..NnConfig::default()
        };
        let fit = train_supervised(&mut source, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(fit.loss_trace.len(), 7);
        assert!(fit.loss_trace.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn table_engine_matches_the_row_major_reference_per_parameter() {
        // One-hot, CSR and dense row sets (the three representations
        // detection hands the engine), each against the plain per-example
        // loop over the row-major dense kernels.
        let onehot = |i: usize| {
            let mut x = vec![0.0; 12];
            x[i % 5] = 1.0;
            x[5 + i % 7] = 1.0;
            x
        };
        let csr = |i: usize| {
            let mut x = vec![0.0; 12];
            x[(3 * i) % 12] = 0.25 * (i % 9) as f64 - 1.0;
            x[(3 * i + 5) % 12] = 1.5 - 0.5 * (i % 4) as f64;
            x
        };
        let dense = |i: usize| {
            (0..12)
                .map(|j| ((i * 7 + j * 3) % 11) as f64 / 5.0 - 1.0)
                .collect()
        };
        let row_sets: [(&str, Vec<Vec<f64>>); 3] = [
            ("one-hot", (0..40).map(onehot).collect()),
            ("csr", (0..40).map(csr).collect()),
            ("dense", (0..40).map(dense).collect()),
        ];
        let config = NnConfig {
            hidden: vec![6, 4],
            activation: Activation::Sigmoid,
            epochs: 3,
            learning_rate: 0.3,
        };
        for (label, xs) in row_sets {
            let rows: Vec<(Vec<f64>, f64)> = xs
                .into_iter()
                .enumerate()
                .map(|(i, x)| (x, (i % 5) as f64 / 4.0))
                .collect();
            for kp in [
                fml_linalg::KernelPolicy::Naive,
                fml_linalg::KernelPolicy::Blocked,
            ] {
                let exec = ExecPolicy::new().kernel_policy(kp);
                let initial = Mlp::new(12, &config.hidden, config.activation, 5);
                let mut reference = initial.clone();
                for _ in 0..config.epochs {
                    let mut grads = reference.zero_grads();
                    for (x, y) in &rows {
                        reference.accumulate_example_with(kp, x, *y, &mut grads);
                    }
                    reference.apply_grads(&grads, config.learning_rate, rows.len() as f64);
                }
                let mut source = VecSupervisedSource::new(rows.clone());
                let fit = train_supervised_from(&mut source, &config, &exec, initial, None)
                    .expect("in-memory source");
                let diff = fit.model.max_param_diff(&reference);
                assert!(diff < 1e-12, "{label} under {kp:?}: {diff}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn empty_source_rejected() {
        let mut source = VecSupervisedSource::new(vec![]);
        let _ = train_supervised(&mut source, &NnConfig::default(), &ExecPolicy::new());
    }
}
