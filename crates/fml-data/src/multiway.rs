//! Synthetic multi-way (star-schema) workloads.
//!
//! A fact table `S` references `q` dimension tables `R_1 … R_q`.  The construction
//! mirrors how the paper builds its Movies-3way experiments (Section VII-A):
//! dimension tables with independent sizes and widths, fact tuples that pick one
//! key from every dimension table, and cluster structure carried by the first
//! dimension so GMM training remains well-posed.

use crate::feature_block::FeatureBlock;
use crate::onehot::OneHotSpec;
use crate::rng::{cluster_centers, normal, normal_vector, seeded};
use crate::workload::Workload;
use fml_store::{Database, FeatureGroup, JoinSpec, Schema, StoreResult, Tuple};
use rand::Rng;

/// The feature representation a dimension table is generated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DimKind {
    /// Dense numeric features (normal draws around cluster centers).
    #[default]
    Dense,
    /// One-hot encoded categorical attributes, generated directly in index
    /// form as a [`FeatureBlock::OneHot`].
    Categorical,
    /// Weighted-sparse numeric features (TF-IDF-ish), generated directly in
    /// CSR form as a [`FeatureBlock::Csr`] with about `nnz` nonzeros per row.
    SparseNumeric {
        /// Nonzeros per row, at most (must satisfy `4·nnz ≤ d`).
        nnz: usize,
    },
}

/// Size and width of one dimension table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimSpec {
    /// Number of tuples `n_{R_i}`.
    pub n: u64,
    /// Number of features `d_{R_i}`.
    pub d: usize,
    /// How the features are represented (dense / one-hot / weighted-sparse).
    pub kind: DimKind,
}

impl DimSpec {
    /// Creates a dense numeric dimension spec.
    pub fn new(n: u64, d: usize) -> Self {
        Self {
            n,
            d,
            kind: DimKind::Dense,
        }
    }

    /// Creates a one-hot categorical dimension spec of encoded width `d`
    /// (layout chosen by [`OneHotSpec::auto`]).
    pub fn categorical(n: u64, d: usize) -> Self {
        Self {
            n,
            d,
            kind: DimKind::Categorical,
        }
    }

    /// Creates a weighted-sparse numeric dimension spec of width `d` with
    /// about `nnz` nonzeros per row — the general-CSR workload scenario.
    pub fn sparse_numeric(n: u64, d: usize, nnz: usize) -> Self {
        Self {
            n,
            d,
            kind: DimKind::SparseNumeric { nnz },
        }
    }

    /// The one-hot layout of this dimension's feature block, if categorical.
    pub fn onehot_spec(&self) -> Option<OneHotSpec> {
        matches!(self.kind, DimKind::Categorical).then(|| OneHotSpec::auto(self.d))
    }

    /// The feature group the dimension's relation stores its block as.
    pub(crate) fn group(&self) -> FeatureGroup {
        match (self.kind, self.onehot_spec()) {
            (_, Some(spec)) => spec.group(),
            (DimKind::SparseNumeric { nnz }, _) => FeatureGroup::SparseNumeric {
                width: self.d,
                max_nnz: nnz,
            },
            _ => FeatureGroup::Dense(self.d),
        }
    }
}

/// Configuration of a synthetic multi-way workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiwayConfig {
    /// Number of fact tuples `n_S`.
    pub n_s: u64,
    /// Fact-table feature count `d_S`.
    pub d_s: usize,
    /// Dimension tables `R_1 … R_q`.
    pub dims: Vec<DimSpec>,
    /// Number of generating mixture components `K`.
    pub k: usize,
    /// Within-cluster noise standard deviation.
    pub noise_std: f64,
    /// Whether to generate a supervised target.
    pub with_target: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MultiwayConfig {
    fn default() -> Self {
        Self {
            n_s: 20_000,
            d_s: 3,
            dims: vec![DimSpec::new(200, 8), DimSpec::new(100, 6)],
            k: 5,
            noise_std: 1.0,
            with_target: false,
            seed: 42,
        }
    }
}

impl MultiwayConfig {
    /// A three-relation star mirroring the Movies-3way setup at laptop scale:
    /// `S_ratings ⋈ R1_users ⋈ R2_movies`.
    pub fn movies_3way_like() -> Self {
        Self {
            n_s: 50_000,
            d_s: 1,
            dims: vec![DimSpec::new(1000, 4), DimSpec::new(500, 21)],
            k: 5,
            noise_std: 1.0,
            with_target: false,
            seed: 42,
        }
    }

    /// Number of dimension tables `q`.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Tuple ratio against the first dimension table.
    pub fn tuple_ratio(&self) -> f64 {
        self.n_s as f64 / self.dims[0].n as f64
    }

    /// Returns a copy with the tuple ratio set by adjusting `n_S` relative to the
    /// first dimension table.
    pub fn with_tuple_ratio(mut self, rr: u64) -> Self {
        self.n_s = self.dims[0].n * rr;
        self
    }

    /// Returns a copy with a different width for dimension `i`.
    pub fn with_dim_width(mut self, i: usize, d: usize) -> Self {
        self.dims[i].d = d;
        self
    }

    /// Returns a copy with a different component count.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Returns a copy requesting a supervised target.
    pub fn with_target(mut self, with_target: bool) -> Self {
        self.with_target = with_target;
        self
    }

    /// Generates the star schema into a fresh in-memory database.
    ///
    /// Relations are named `S`, `R1`, `R2`, … and the returned [`JoinSpec`] joins
    /// them in that order.
    pub fn generate(&self) -> StoreResult<Workload> {
        assert!(
            !self.dims.is_empty(),
            "at least one dimension table required"
        );
        assert!(self.k > 0, "k must be positive");
        let db = Database::in_memory();
        let mut rng = seeded(self.seed);

        // Per-dimension cluster centers and per-tuple cluster assignments.
        let mut dim_names = Vec::with_capacity(self.dims.len());
        let mut dim_clusters: Vec<Vec<usize>> = Vec::with_capacity(self.dims.len());
        for (i, dim) in self.dims.iter().enumerate() {
            assert!(dim.n > 0, "dimension table {i} must have tuples");
            let name = format!("R{}", i + 1);
            let centers = cluster_centers(&mut rng, self.k, dim.d, 8.0);
            let spec = dim.onehot_spec();
            let schema = Schema::dimension(name.clone(), dim.d).with_groups(vec![dim.group()]);
            let rel = db.create_relation(schema)?;
            let clusters: Vec<usize> = (0..dim.n as usize).map(|key| key % self.k).collect();
            // Categorical and weighted-sparse dimensions are generated
            // straight into index/CSR form and stored as such.
            let block = match dim.kind {
                DimKind::Categorical => FeatureBlock::generate_onehot(
                    &mut rng,
                    spec.as_ref().expect("categorical layout"),
                    &clusters,
                ),
                DimKind::SparseNumeric { nnz } => FeatureBlock::generate_sparse_numeric(
                    &mut rng,
                    dim.d,
                    nnz,
                    &clusters,
                    self.noise_std.max(0.05),
                ),
                DimKind::Dense => {
                    FeatureBlock::generate_dense(&mut rng, &centers, &clusters, self.noise_std)
                }
            };
            {
                let mut rel = rel.lock();
                for key in 0..clusters.len() {
                    rel.append_row(key as u64, &[], None, block.row(key))?;
                }
                rel.flush()?;
            }
            dim_names.push(name);
            dim_clusters.push(clusters);
        }

        let s_centers = cluster_centers(&mut rng, self.k, self.d_s, 8.0);
        let s_schema = if self.with_target {
            Schema::fact_with_target("S", self.d_s, self.dims.len())
        } else {
            Schema::fact("S", self.d_s, self.dims.len())
        };
        let s_rel = db.create_relation(s_schema)?;
        {
            let mut rel = s_rel.lock();
            for key in 0..self.n_s {
                // The first dimension drives the cluster; the rest are drawn from
                // the same cluster so the joined mixture stays coherent.
                let fk0 = rng.gen_range(0..self.dims[0].n);
                let c = dim_clusters[0][fk0 as usize];
                let mut fks = Vec::with_capacity(self.dims.len());
                fks.push(fk0);
                for (i, dim) in self.dims.iter().enumerate().skip(1) {
                    // Pick a tuple of the same cluster when one exists.
                    let candidates: u64 = dim.n / self.k as u64;
                    let fk = if candidates > 0 {
                        let idx = rng.gen_range(0..candidates);
                        let key = idx * self.k as u64 + c as u64;
                        if key < dim.n {
                            key
                        } else {
                            rng.gen_range(0..dim.n)
                        }
                    } else {
                        rng.gen_range(0..dim.n)
                    };
                    debug_assert_eq!(dim_clusters[i][0], 0);
                    fks.push(fk);
                }
                let features = normal_vector(&mut rng, &s_centers[c], self.noise_std);
                let tuple = if self.with_target {
                    let mean = if features.is_empty() {
                        0.0
                    } else {
                        features.iter().sum::<f64>() / features.len() as f64
                    };
                    let y = (mean / 4.0).tanh()
                        + c as f64 / self.k as f64
                        + normal(&mut rng, 0.0, 0.05);
                    Tuple::fact_with_target(key, fks, y, features)
                } else {
                    Tuple::fact(key, fks, features)
                };
                rel.append(&tuple)?;
            }
            rel.flush()?;
        }

        Ok(Workload {
            db,
            spec: JoinSpec::multiway("S", dim_names),
            name: format!(
                "multiway(nS={}, q={}, dims={:?}, K={})",
                self.n_s,
                self.dims.len(),
                self.dims.iter().map(|d| (d.n, d.d)).collect::<Vec<_>>(),
                self.k
            ),
            generating_clusters: Some(self.k),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_store::batch::scan_all;
    use fml_store::factorized_scan::FactorizedScan;

    fn small() -> MultiwayConfig {
        MultiwayConfig {
            n_s: 600,
            d_s: 2,
            dims: vec![DimSpec::new(30, 3), DimSpec::new(12, 4), DimSpec::new(6, 2)],
            k: 3,
            noise_std: 0.5,
            with_target: false,
            seed: 5,
        }
    }

    #[test]
    fn generates_all_relations_with_right_shapes() {
        let w = small().generate().unwrap();
        assert_eq!(w.spec.num_dimensions(), 3);
        assert_eq!(w.n_fact().unwrap(), 600);
        assert_eq!(w.n_dim(0).unwrap(), 30);
        assert_eq!(w.n_dim(2).unwrap(), 6);
        assert_eq!(w.feature_partition().unwrap(), vec![2, 3, 4, 2]);
        assert_eq!(w.total_features().unwrap(), 11);
    }

    #[test]
    fn foreign_keys_are_resolvable() {
        let w = small().generate().unwrap();
        let mut scan = FactorizedScan::new(&w.db, &w.spec, 8).unwrap();
        let mut count = 0;
        while scan.next_window().unwrap() {
            while scan.next_block().unwrap() {
                let block = scan.block();
                assert!((0..block.len()).all(|f| block.ords_of(f).len() == 3));
                count += block.len();
            }
        }
        assert_eq!(count, 600);
    }

    #[test]
    fn with_target_produces_targets() {
        let w = small().with_target(true).generate().unwrap();
        let s = w.spec.fact_relation(&w.db).unwrap();
        assert!(scan_all(&s, 16).unwrap().iter().all(|t| t.target.is_some()));
    }

    #[test]
    fn builders() {
        let cfg = small().with_tuple_ratio(40).with_dim_width(1, 9).with_k(4);
        assert_eq!(cfg.n_s, 30 * 40);
        assert_eq!(cfg.dims[1].d, 9);
        assert_eq!(cfg.k, 4);
        assert_eq!(cfg.tuple_ratio(), 40.0);
        assert_eq!(cfg.num_dims(), 3);
    }

    #[test]
    fn movies_3way_shape() {
        let cfg = MultiwayConfig::movies_3way_like();
        assert_eq!(cfg.num_dims(), 2);
        assert_eq!(cfg.d_s, 1);
        assert_eq!(cfg.dims[1].d, 21);
    }

    #[test]
    fn categorical_dimensions_generate_onehot_blocks() {
        let mut cfg = small();
        cfg.dims[1] = DimSpec::categorical(12, 9);
        let w = cfg.generate().unwrap();
        let group = |name: &str| {
            w.db.relation(name)
                .unwrap()
                .lock()
                .schema()
                .groups()
                .to_vec()
        };
        assert_eq!(group("R2"), [OneHotSpec::auto(9).group()]);
        assert_eq!(group("R1"), [FeatureGroup::Dense(3)]);
        let r2 = w.db.relation("R2").unwrap();
        let spec = OneHotSpec::auto(9);
        for t in scan_all(&r2, 16).unwrap() {
            assert!(t.features.iter().all(|&f| f == 0.0 || f == 1.0));
            let ones = t.features.iter().filter(|&&f| f == 1.0).count();
            assert_eq!(ones, spec.num_columns());
        }
    }

    #[test]
    fn sparse_numeric_dimensions_generate_weighted_rows() {
        let mut cfg = small();
        cfg.dims[1] = DimSpec::sparse_numeric(12, 16, 3);
        let w = cfg.generate().unwrap();
        // stored as up to three (index, value) pairs, not as codes
        let r2 = w.db.relation("R2").unwrap();
        let group = FeatureGroup::SparseNumeric {
            width: 16,
            max_nnz: 3,
        };
        assert_eq!(r2.lock().schema().groups(), [group]);
        for t in scan_all(&r2, 16).unwrap() {
            assert_eq!(t.features.len(), 16);
            let nnz = t.features.iter().filter(|&&f| f != 0.0).count();
            assert!(nnz > 0 && nnz <= 3, "unexpected support {nnz}");
            // weighted values: at least one nonzero that is not 1.0
            assert!(
                t.features.iter().any(|&f| f != 0.0 && f != 1.0),
                "sparse-numeric rows must carry weighted values: {:?}",
                t.features
            );
        }
        // and the stored rows are weighted CSR rows
        let mut scan = FactorizedScan::new(&w.db, &w.spec, 8).unwrap();
        assert!(scan.next_window().unwrap());
        let rep = scan.cache().row(1, 0);
        assert!(matches!(rep, fml_linalg::BlockVec::Csr { .. }), "{rep:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small().generate().unwrap();
        let b = small().generate().unwrap();
        let read = |w: &Workload| scan_all(&w.spec.fact_relation(&w.db).unwrap(), 64).unwrap();
        assert_eq!(read(&a), read(&b));
    }
}
