//! Synthetic binary-join workloads (Tables II and III of the paper).
//!
//! Two relations are generated:
//!
//! * `R(RID, x_R)` with `n_R` tuples and `d_R` features — each tuple is assigned to
//!   one of `K` clusters and its features are drawn from that cluster's center;
//! * `S(SID, [Y,] x_S, FK)` with `n_S` tuples and `d_S` features — each fact tuple
//!   references a uniformly chosen `R` tuple and draws its own features from the
//!   *same* cluster, so the joined feature vectors form a `K`-component mixture
//!   (the paper: "sampling from multiple Gaussian distributions and adding random
//!   noise").
//!
//! For supervised (NN) workloads a scalar target is generated as a smooth nonlinear
//! function of the joined features plus noise.

use crate::rng::{self, cluster_centers, normal_vector, seeded};
use crate::workload::Workload;
use fml_store::{Database, JoinSpec, Schema, StoreResult, Tuple};
use rand::Rng;

/// Configuration of a synthetic binary-join dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of fact tuples `n_S`.
    pub n_s: u64,
    /// Number of dimension tuples `n_R`.
    pub n_r: u64,
    /// Fact-table feature count `d_S`.
    pub d_s: usize,
    /// Dimension-table feature count `d_R`.
    pub d_r: usize,
    /// Number of generating mixture components `K`.
    pub k: usize,
    /// Standard deviation of the within-cluster noise.
    pub noise_std: f64,
    /// Whether to generate a supervised target `Y` on the fact table.
    pub with_target: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            n_s: 10_000,
            n_r: 100,
            d_s: 5,
            d_r: 15,
            k: 5,
            noise_std: 1.0,
            with_target: false,
            seed: 42,
        }
    }
}

impl SyntheticConfig {
    /// The paper's GMM defaults at laptop scale: `d_S = 5`, `n_R = 1000`, `K = 5`.
    pub fn gmm_default() -> Self {
        Self {
            n_s: 100_000,
            n_r: 1000,
            d_s: 5,
            d_r: 15,
            k: 5,
            with_target: false,
            ..Self::default()
        }
    }

    /// The paper's NN defaults at laptop scale (target included).
    pub fn nn_default() -> Self {
        Self {
            with_target: true,
            ..Self::gmm_default()
        }
    }

    /// Tuple ratio `rr = n_S / n_R`.
    pub fn tuple_ratio(&self) -> f64 {
        self.n_s as f64 / self.n_r as f64
    }

    /// Returns a copy with the tuple ratio set by adjusting `n_S` (keeping `n_R`).
    pub fn with_tuple_ratio(mut self, rr: u64) -> Self {
        self.n_s = self.n_r * rr;
        self
    }

    /// Returns a copy with a different dimension-table feature count.
    pub fn with_d_r(mut self, d_r: usize) -> Self {
        self.d_r = d_r;
        self
    }

    /// Returns a copy with a different component count.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the dataset into a fresh in-memory database.
    pub fn generate(&self) -> StoreResult<Workload> {
        assert!(self.n_r > 0, "n_r must be positive");
        assert!(self.n_s > 0, "n_s must be positive");
        assert!(self.k > 0, "k must be positive");
        let db = Database::in_memory();
        let mut rng = seeded(self.seed);

        let r_centers = cluster_centers(&mut rng, self.k, self.d_r, 8.0);
        let s_centers = cluster_centers(&mut rng, self.k, self.d_s, 8.0);

        // Dimension table R: cluster assignment round-robin so every cluster is
        // populated even for tiny n_r.
        let r_rel = db.create_relation(Schema::dimension("R", self.d_r))?;
        let mut r_cluster = Vec::with_capacity(self.n_r as usize);
        {
            let mut rel = r_rel.lock();
            for key in 0..self.n_r {
                let c = (key as usize) % self.k;
                r_cluster.push(c);
                let features = normal_vector(&mut rng, &r_centers[c], self.noise_std);
                rel.append(&Tuple::dimension(key, features))?;
            }
            rel.flush()?;
        }

        // Fact table S.
        let s_schema = if self.with_target {
            Schema::fact_with_target("S", self.d_s, 1)
        } else {
            Schema::fact("S", self.d_s, 1)
        };
        let s_rel = db.create_relation(s_schema)?;
        {
            let mut rel = s_rel.lock();
            for key in 0..self.n_s {
                let fk = rng.gen_range(0..self.n_r);
                let c = r_cluster[fk as usize];
                let features = normal_vector(&mut rng, &s_centers[c], self.noise_std);
                let tuple = if self.with_target {
                    let y = target_fn(&features, c, self.k) + rng::normal(&mut rng, 0.0, 0.05);
                    Tuple::fact_with_target(key, vec![fk], y, features)
                } else {
                    Tuple::fact(key, vec![fk], features)
                };
                rel.append(&tuple)?;
            }
            rel.flush()?;
        }

        Ok(Workload {
            db,
            spec: JoinSpec::binary("S", "R"),
            name: format!(
                "synthetic(nS={}, nR={}, dS={}, dR={}, K={}, rr={:.0})",
                self.n_s,
                self.n_r,
                self.d_s,
                self.d_r,
                self.k,
                self.tuple_ratio()
            ),
            generating_clusters: Some(self.k),
        })
    }
}

/// Smooth nonlinear target used for supervised workloads: a squashed mean of the
/// fact features shifted per generating cluster.
fn target_fn(features: &[f64], cluster: usize, k: usize) -> f64 {
    let m = if features.is_empty() {
        0.0
    } else {
        features.iter().sum::<f64>() / features.len() as f64
    };
    (m / 4.0).tanh() + cluster as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_store::batch::scan_all;

    fn small() -> SyntheticConfig {
        SyntheticConfig {
            n_s: 500,
            n_r: 20,
            d_s: 3,
            d_r: 4,
            k: 3,
            noise_std: 0.5,
            with_target: false,
            seed: 7,
        }
    }

    #[test]
    fn cardinalities_match_config() {
        let w = small().generate().unwrap();
        assert_eq!(w.n_fact().unwrap(), 500);
        assert_eq!(w.n_dim(0).unwrap(), 20);
        assert_eq!(w.tuple_ratio().unwrap(), 25.0);
        assert_eq!(w.feature_partition().unwrap(), vec![3, 4]);
        assert_eq!(w.total_features().unwrap(), 7);
        assert_eq!(w.generating_clusters, Some(3));
    }

    #[test]
    fn foreign_keys_reference_existing_dimension_tuples() {
        let w = small().generate().unwrap();
        let s = w.spec.fact_relation(&w.db).unwrap();
        let tuples = scan_all(&s, 16).unwrap();
        assert!(tuples.iter().all(|t| t.fks[0] < 20));
        assert!(tuples.iter().all(|t| t.target.is_none()));
        assert!(tuples.iter().all(|t| t.features.len() == 3));
    }

    #[test]
    fn target_generated_when_requested() {
        let cfg = SyntheticConfig {
            with_target: true,
            ..small()
        };
        let w = cfg.generate().unwrap();
        let s = w.spec.fact_relation(&w.db).unwrap();
        let tuples = scan_all(&s, 16).unwrap();
        assert!(tuples.iter().all(|t| t.target.is_some()));
        // targets are bounded by construction (tanh + cluster offset + noise)
        assert!(tuples.iter().all(|t| t.target.unwrap().abs() < 3.0));
    }

    #[test]
    fn same_seed_same_data_different_seed_different_data() {
        let a = small().generate().unwrap();
        let b = small().generate().unwrap();
        let c = small().with_seed(8).generate().unwrap();
        let read = |w: &Workload| scan_all(&w.spec.fact_relation(&w.db).unwrap(), 64).unwrap();
        assert_eq!(read(&a), read(&b));
        assert_ne!(read(&a), read(&c));
    }

    #[test]
    fn builders_adjust_parameters() {
        let cfg = small().with_tuple_ratio(50).with_d_r(9).with_k(4);
        assert_eq!(cfg.n_s, 20 * 50);
        assert_eq!(cfg.d_r, 9);
        assert_eq!(cfg.k, 4);
        assert_eq!(cfg.tuple_ratio(), 50.0);
    }

    #[test]
    fn defaults_reflect_paper_settings() {
        let g = SyntheticConfig::gmm_default();
        assert_eq!(g.d_s, 5);
        assert_eq!(g.n_r, 1000);
        assert_eq!(g.k, 5);
        assert!(!g.with_target);
        let n = SyntheticConfig::nn_default();
        assert!(n.with_target);
    }
}
