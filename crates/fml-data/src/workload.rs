//! The `Workload` bundle: a populated database plus the join the model trains over.
//!
//! How each relation's features are stored — dense, one-hot, sparse — is
//! its schema's business ([`fml_store::Schema::groups`]), not the bundle's.

use fml_store::{Database, JoinSpec, StoreResult};

/// A generated training workload.
///
/// Bundles the storage engine instance holding the normalized relations, the join
/// specification the model is learned over, and descriptive metadata used by the
/// benchmark harness when printing tables.
pub struct Workload {
    /// The storage engine instance holding the base relations.
    pub db: Database,
    /// The PK/FK join the model is trained over.
    pub spec: JoinSpec,
    /// Human-readable workload name (e.g. `"synthetic rr=1000 dR=15"`).
    pub name: String,
    /// Number of mixture components used to generate the data (if applicable);
    /// also the natural `K` to train a GMM with.
    pub generating_clusters: Option<usize>,
}

impl Workload {
    /// Number of tuples in the fact table (`n_S`, which equals `N = |T|` rows).
    pub fn n_fact(&self) -> StoreResult<u64> {
        Ok(self.spec.fact_relation(&self.db)?.lock().num_tuples())
    }

    /// Number of tuples in dimension table `i`.
    pub fn n_dim(&self, i: usize) -> StoreResult<u64> {
        Ok(self.spec.dimension_relations(&self.db)?[i]
            .lock()
            .num_tuples())
    }

    /// Tuple ratio `rr = n_S / n_{R_1}` — the redundancy knob of the evaluation.
    pub fn tuple_ratio(&self) -> StoreResult<f64> {
        Ok(self.n_fact()? as f64 / self.n_dim(0)? as f64)
    }

    /// Per-relation feature sizes `[d_S, d_{R_1}, …]`.
    pub fn feature_partition(&self) -> StoreResult<Vec<usize>> {
        self.spec.feature_partition(&self.db)
    }

    /// Total feature dimensionality of the joined tuples.
    pub fn total_features(&self) -> StoreResult<usize> {
        self.spec.total_features(&self.db)
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Workload {{ name: {}, spec: {:?} }}",
            self.name, self.spec
        )
    }
}
