//! Star-join (`q > 1`) unit tests of [`crate::factorized::FactorizedGmm`],
//! the one factorized driver for every join shape.

#[cfg(test)]
mod tests {
    use crate::factorized::FactorizedGmm;
    use crate::materialized::MaterializedGmm;
    use crate::streaming::StreamingGmm;
    use crate::GmmConfig;
    use fml_data::multiway::{DimSpec, MultiwayConfig};
    use fml_data::SyntheticConfig;
    use fml_linalg::ExecPolicy;

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
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
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
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&f.model) < 1e-7);
        assert_eq!(f.model.dim(), 8);
    }

    #[test]
    fn multiway_reduces_to_binary_when_q_is_one() {
        // The same relations named as a binary join and as a one-dimension
        // star are one code path: the fits agree bit for bit, and match the
        // materialized baseline.
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
        let star = fml_store::JoinSpec::multiway(&w.spec.fact, w.spec.dimensions.clone());
        let binary = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let multi = FactorizedGmm::train(&w.db, &star, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(binary.model.max_param_diff(&multi.model), 0.0);
        let m = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&multi.model) < 1e-8);
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
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        for pair in f.log_likelihood.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-6);
        }
    }
}
