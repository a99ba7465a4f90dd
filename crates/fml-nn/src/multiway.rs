//! Star-join (`q > 1`) unit tests of [`crate::factorized::FactorizedNn`],
//! the one factorized driver for every join shape.

#[cfg(test)]
mod tests {
    use crate::factorized::FactorizedNn;
    use crate::materialized::MaterializedNn;
    use crate::streaming::StreamingNn;
    use crate::trainer::NnConfig;
    use fml_data::multiway::{DimSpec, MultiwayConfig};
    use fml_data::SyntheticConfig;
    use fml_linalg::ExecPolicy;

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
        let f = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
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
        let f = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&f.model) < 1e-9);
        assert_eq!(f.model.input_dim(), 8);
    }

    #[test]
    fn multiway_reduces_to_binary_when_q_is_one() {
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
        let star = fml_store::JoinSpec::multiway(&w.spec.fact, w.spec.dimensions.clone());
        let binary = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let multi = FactorizedNn::train(&w.db, &star, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(binary.model.max_param_diff(&multi.model), 0.0);
        let m = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&multi.model) < 1e-10);
    }
}
