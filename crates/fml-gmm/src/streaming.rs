//! `S-GMM`: join on the fly, train on the denormalized stream.
//!
//! Identical EM computation to `M-GMM`, but the join result is never written to
//! storage: each pass is one `FactorizedScan` over the base relations whose
//! fact blocks are denormalized and fed straight to the learner — the rows
//! `materialize_join` would write, in the same `(window, fact)` order, so an
//! `S-GMM` fit is **bit-identical** to the `M-GMM` fit of the same join.  Each
//! pass reads `|R| + ⌈|R|/BlockSize⌉·|S|` pages — `iter` passes in this
//! engine, `3·iter` in the paper's Algorithm 1 (Section V-A); see
//! `GmmIoCostModel` — while the
//! computation cost equals `M-GMM`'s: the redundant dimension features are still
//! multiplied through the full `d×d` quadratic forms for every fact tuple.

use crate::em::{train_dense_from, GmmFit};
use crate::init::GmmInit;
use crate::GmmConfig;
use fml_linalg::exec::ExecPolicy;
use fml_store::join::RowSource;
use fml_store::{Database, JoinSpec, StoreResult};
use std::time::Instant;

/// The streaming (join-on-the-fly) training strategy.
pub struct StreamingGmm;

impl StreamingGmm {
    /// Trains a GMM joining the base relations on the fly each pass.
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
        let probe = db.stats().io_probe();
        let mut source = RowSource::join(db, spec.clone(), ex.block_pages)?.sparse_mode(ex.sparse);
        let mut fit =
            train_dense_from(&mut source, &spec.fact, config, exec, initial, Some(&probe))?;
        fit.elapsed = start.elapsed();
        Ok(fit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialized::MaterializedGmm;
    use fml_data::multiway::{DimSpec, MultiwayConfig};
    use fml_data::SyntheticConfig;

    #[test]
    fn streaming_matches_materialized_binary() {
        let w = SyntheticConfig {
            n_s: 300,
            n_r: 15,
            d_s: 2,
            d_r: 3,
            k: 2,
            noise_std: 0.6,
            with_target: false,
            seed: 11,
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
        assert!(
            m.model.max_param_diff(&s.model) < 1e-8,
            "M-GMM and S-GMM diverged: {}",
            m.model.max_param_diff(&s.model)
        );
        assert_eq!(m.iterations, s.iterations);
    }

    #[test]
    fn streaming_handles_multiway_joins() {
        let w = MultiwayConfig {
            n_s: 300,
            d_s: 2,
            dims: vec![DimSpec::new(10, 2), DimSpec::new(5, 3)],
            k: 2,
            noise_std: 0.6,
            with_target: false,
            seed: 4,
        }
        .generate()
        .unwrap();
        let config = GmmConfig {
            k: 2,
            max_iters: 3,
            ..GmmConfig::default()
        };
        let m = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let s = StreamingGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&s.model) < 1e-8);
        assert_eq!(s.model.dim(), 7);
    }

    #[test]
    fn source_shapes() {
        let w = SyntheticConfig {
            n_s: 100,
            n_r: 10,
            d_s: 2,
            d_r: 3,
            k: 2,
            noise_std: 0.5,
            with_target: false,
            seed: 1,
        }
        .generate()
        .unwrap();
        let src = RowSource::join(&w.db, w.spec.clone(), 8).unwrap();
        assert_eq!(src.width(), 5);
        assert_eq!(src.num_rows(), 100);
    }
}
