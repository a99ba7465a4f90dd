//! `M-NN`: materialize the join, then train the network over the denormalized
//! table (the baseline of Section VI).

use crate::mlp::Mlp;
use crate::trainer::{ensure_trainable, train_supervised_from, NnConfig, NnFit};
use fml_linalg::exec::ExecPolicy;
use fml_store::join::{materialize_join, RowSource};
use fml_store::{Database, JoinSpec, StoreResult};
use std::time::Instant;

/// The materialized-join NN training strategy.
pub struct MaterializedNn;

impl MaterializedNn {
    /// Name of the temporary join table created for a spec.
    pub fn temp_table_name(spec: &JoinSpec) -> String {
        format!("__T_nn_{}", spec.fact)
    }

    /// Trains the network after materializing the join result.  The reported
    /// elapsed time includes the join and materialization.
    pub fn train(
        db: &Database,
        spec: &JoinSpec,
        config: &NnConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<NnFit> {
        let start = Instant::now();
        let ex = exec.resolve();
        spec.validate(db)?;
        ensure_trainable(db, spec)?;
        let d = spec.total_features(db)?;
        let initial = Mlp::new(d, &config.hidden, config.activation, ex.seed);
        let t_name = Self::temp_table_name(spec);
        if db.contains(&t_name) {
            db.drop_relation(&t_name)?;
        }
        let table = materialize_join(db, spec, t_name, ex.block_pages)?;
        let mut source = RowSource::table(table, ex.block_pages);
        let probe = db.stats().io_probe();
        let mut fit = train_supervised_from(&mut source, config, exec, initial, Some(&probe))?;
        fit.elapsed = start.elapsed();
        Ok(fit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_data::SyntheticConfig;
    use fml_store::StoreError;

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
        let err = MaterializedNn::train(&w.db, &w.spec, &NnConfig::default(), &ExecPolicy::new())
            .unwrap_err();
        assert!(matches!(err, StoreError::SchemaMismatch { .. }));
    }
}
