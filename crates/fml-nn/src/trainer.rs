//! Shared training configuration, result type, and the `M-NN` / `S-NN`
//! entry points: both run `F-NN`'s epoch driver ([`crate::factorized`]), `M`
//! over its materialized table as the fact-only join (`q = 0`), `S` over the
//! join with every dimension inlined.

use crate::activation::Activation;
use crate::factorized::train_epochs;
use crate::mlp::Mlp;
use fml_linalg::exec::ExecPolicy;
use fml_store::join::materialize_join;
use fml_store::{Database, JoinSpec, StoreError, StoreResult};
use std::time::{Duration, Instant};

/// Model configuration shared by every NN training variant.
///
/// Holds only *model* concerns.  Execution knobs (kernel policy, sparse mode,
/// block size, threads, seed) live on [`fml_linalg::ExecPolicy`], which every
/// trainer takes alongside this config.
#[derive(Debug, Clone, PartialEq)]
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

/// The materialized-join NN training strategy (`M-NN`).
pub struct MaterializedNn;

impl MaterializedNn {
    /// Name of the temporary join table created for a spec.
    pub fn temp_table_name(spec: &JoinSpec) -> String {
        format!("__T_nn_{}", spec.fact)
    }

    /// Materializes the join as `T`, then trains over `T` as the fact-only
    /// join (`q = 0`).  The reported elapsed time includes the join and
    /// materialization.
    pub fn train(
        db: &Database,
        spec: &JoinSpec,
        config: &NnConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<NnFit> {
        let start = Instant::now();
        spec.validate(db)?;
        ensure_trainable(db, spec)?;
        let t_name = Self::temp_table_name(spec);
        if db.contains(&t_name) {
            db.drop_relation(&t_name)?;
        }
        materialize_join(db, spec, t_name.clone(), exec.resolve().block_pages)?;
        let table = JoinSpec::multiway(t_name, vec![]);
        let mut fit = train_epochs(db, &table, config, exec, false)?;
        fit.elapsed = start.elapsed();
        Ok(fit)
    }
}

/// The streaming (join-on-the-fly) NN training strategy (`S-NN`).
pub struct StreamingNn;

impl StreamingNn {
    /// Trains joining the base relations on the fly each epoch, every
    /// dimension inlined into the fact's row.
    pub fn train(
        db: &Database,
        spec: &JoinSpec,
        config: &NnConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<NnFit> {
        train_epochs(db, spec, config, exec, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FactorizedNn;
    use fml_data::multiway::{DimSpec, MultiwayConfig};
    use fml_data::SyntheticConfig;
    use fml_store::{Schema, Tuple};

    fn linear_data() -> Vec<(Vec<f64>, f64)> {
        (0..60)
            .map(|i| {
                let x0 = (i % 6) as f64 / 6.0;
                let x1 = (i / 6) as f64 / 10.0;
                (vec![x0, x1], 2.0 * x0 - x1 + 0.5)
            })
            .collect()
    }

    /// `rows` stored as a fact relation with no foreign keys: the `q = 0`
    /// join, which the one epoch driver trains as the partition `[d]`.
    fn fact_only(rows: &[(Vec<f64>, f64)]) -> (Database, JoinSpec) {
        let db = Database::in_memory();
        let rel = db
            .create_relation(Schema::fact_with_target("S", rows[0].0.len(), 0))
            .unwrap();
        let mut rel = rel.lock();
        for (key, (x, y)) in (0u64..).zip(rows) {
            rel.append(&Tuple::fact_with_target(key, vec![], *y, x.clone()))
                .unwrap();
        }
        rel.flush().unwrap();
        drop(rel);
        (db, JoinSpec::multiway("S", vec![]))
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
        let (db, spec) = fact_only(&linear_data());
        let config = NnConfig {
            hidden: vec![8],
            activation: Activation::Tanh,
            epochs: 150,
            learning_rate: 0.5,
        };
        let fit = FactorizedNn::train(&db, &spec, &config, &ExecPolicy::new()).unwrap();
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
        let (db, spec) = fact_only(&linear_data());
        let config = NnConfig {
            hidden: vec![4],
            epochs: 7,
            ..NnConfig::default()
        };
        let fit = FactorizedNn::train(&db, &spec, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(fit.loss_trace.len(), 7);
        assert!(fit.loss_trace.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn table_engine_matches_the_row_major_reference_per_parameter() {
        // One-hot, CSR and dense row sets (the three representations
        // detection hands the engine), each trained as a fact-only relation
        // through the one epoch driver, against the plain per-example loop
        // over the row-major dense kernels.
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
            let (db, spec) = fact_only(&rows);
            for kp in [
                fml_linalg::KernelPolicy::Naive,
                fml_linalg::KernelPolicy::Blocked,
            ] {
                let exec = ExecPolicy::new().kernel_policy(kp).seed(5);
                let mut reference = Mlp::new(12, &config.hidden, config.activation, 5);
                for _ in 0..config.epochs {
                    let mut grads = reference.zero_grads();
                    for (x, y) in &rows {
                        reference.accumulate_example_with(kp, x, *y, &mut grads);
                    }
                    reference.apply_grads(&grads, config.learning_rate, rows.len() as f64);
                }
                let fit = FactorizedNn::train(&db, &spec, &config, &exec).unwrap();
                let diff = fit.model.max_param_diff(&reference);
                assert!(diff < 1e-12, "{label} under {kp:?}: {diff}");
            }
        }
    }

    #[test]
    fn trains_over_materialized_table() {
        let w = SyntheticConfig {
            n_s: 300,
            n_r: 15,
            d_s: 2,
            d_r: 3,
            k: 2,
            noise_std: 0.5,
            with_target: true,
            seed: 3,
        }
        .generate()
        .unwrap();
        let config = NnConfig {
            hidden: vec![6],
            epochs: 5,
            ..NnConfig::default()
        };
        let fit = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(fit.epochs, 5);
        assert_eq!(fit.n_tuples, 300);
        assert_eq!(fit.model.input_dim(), 5);
        assert!(w.db.contains(&MaterializedNn::temp_table_name(&w.spec)));
        assert!(fit.final_loss().is_finite());
    }

    #[test]
    fn missing_target_is_rejected() {
        let w = SyntheticConfig {
            n_s: 50,
            n_r: 5,
            d_s: 2,
            d_r: 2,
            k: 2,
            noise_std: 0.5,
            with_target: false,
            seed: 1,
        }
        .generate()
        .unwrap();
        for train in [MaterializedNn::train, StreamingNn::train] {
            let err = train(&w.db, &w.spec, &NnConfig::default(), &ExecPolicy::new()).unwrap_err();
            assert!(matches!(err, StoreError::SchemaMismatch { .. }));
        }
    }

    #[test]
    fn streaming_matches_materialized_binary() {
        let w = SyntheticConfig {
            n_s: 250,
            n_r: 10,
            d_s: 2,
            d_r: 4,
            k: 2,
            noise_std: 0.5,
            with_target: true,
            seed: 9,
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
        assert_eq!(m.model, s.model);
        assert_eq!(m.loss_trace, s.loss_trace);
    }

    #[test]
    fn streaming_multiway() {
        let w = MultiwayConfig {
            n_s: 200,
            d_s: 2,
            dims: vec![DimSpec::new(10, 2), DimSpec::new(5, 3)],
            k: 2,
            noise_std: 0.5,
            with_target: true,
            seed: 12,
        }
        .generate()
        .unwrap();
        let config = NnConfig {
            hidden: vec![6],
            epochs: 3,
            ..NnConfig::default()
        };
        let m = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let s = StreamingNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(m.model, s.model);
        assert_eq!(s.model.input_dim(), 7);
    }
}
