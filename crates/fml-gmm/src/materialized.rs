//! `M-GMM`: the materialize-then-train baseline (Algorithm 1 as written).
//!
//! The PK/FK join is computed once and written to storage as a table `T`; every EM
//! pass then scans `T`.  This is what an analyst gets today by exporting the join
//! result and pointing a standard GMM implementation at it.  The I/O cost is
//! `|R| + |R|/BlockSize·|S|` (join) `+ |T|` (materialization) plus the training
//! passes over `T` — `iter` passes in this engine, `3·iter` in the paper's
//! Algorithm 1 (Section V-A); see `GmmIoCostModel`.

use crate::em::{train_dense_from, GmmFit};
use crate::init::GmmInit;
use crate::GmmConfig;
use fml_linalg::exec::ExecPolicy;
use fml_store::join::{materialize_join, RowSource};
use fml_store::{Database, JoinSpec, StoreResult};
use std::time::Instant;

/// The materialized-join training strategy.
pub struct MaterializedGmm;

impl MaterializedGmm {
    /// Name of the temporary join table created for a spec.
    pub fn temp_table_name(spec: &JoinSpec) -> String {
        format!("__T_gmm_{}", spec.fact)
    }

    /// Trains a GMM by materializing the join and scanning the result each
    /// pass, as the fact-only join (`q = 0`).
    ///
    /// The reported [`GmmFit::elapsed`] includes join computation and
    /// materialization, exactly like the paper's M-GMM timings.
    pub fn train(
        db: &Database,
        spec: &JoinSpec,
        config: &GmmConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<GmmFit> {
        let start = Instant::now();
        let ex = exec.resolve();
        spec.validate(db)?;
        let initial =
            GmmInit::new(ex.seed, config.init_spread).from_relations(db, spec, config.k)?;
        let t_name = Self::temp_table_name(spec);
        if db.contains(&t_name) {
            db.drop_relation(&t_name)?;
        }
        materialize_join(db, spec, t_name.clone(), ex.block_pages)?;
        let table = JoinSpec::multiway(t_name, vec![]);
        let mut source = RowSource::join(db, table, ex.block_pages)?;
        let probe = db.stats().io_probe();
        let mut fit = train_dense_from(&mut source, config, exec, initial, Some(&probe))?;
        fit.elapsed = start.elapsed();
        Ok(fit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_data::SyntheticConfig;

    fn workload() -> fml_data::Workload {
        SyntheticConfig {
            n_s: 400,
            n_r: 20,
            d_s: 2,
            d_r: 3,
            k: 2,
            noise_std: 0.5,
            with_target: false,
            seed: 3,
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn trains_and_materializes_temp_table() {
        let w = workload();
        let config = GmmConfig {
            k: 2,
            max_iters: 3,
            ..GmmConfig::default()
        };
        let fit = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(fit.iterations, 3);
        assert_eq!(fit.n_tuples, 400);
        assert_eq!(fit.model.dim(), 5);
        assert!(w.db.contains(&MaterializedGmm::temp_table_name(&w.spec)));
    }

    #[test]
    fn retraining_replaces_the_temp_table() {
        let w = workload();
        let config = GmmConfig {
            k: 2,
            max_iters: 1,
            ..GmmConfig::default()
        };
        let a = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let b = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(a.model.max_param_diff(&b.model), 0.0);
    }

    #[test]
    fn source_reports_shape() {
        let w = workload();
        materialize_join(&w.db, &w.spec, "T_shape", 8).unwrap();
        let table = JoinSpec::multiway("T_shape", vec![]);
        let src = RowSource::join(&w.db, table, 8).unwrap();
        assert_eq!(src.width(), 5);
        assert_eq!(src.num_rows(), 400);
    }
}
