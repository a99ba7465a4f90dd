//! Emulated stand-ins for the real datasets of the paper's evaluation.
//!
//! The original evaluation uses the Hamlet-Plus datasets (Expedia, Walmart,
//! Movies) plus augmented variants.  Those datasets are not redistributable here,
//! so each is **emulated**: a synthetic dataset with exactly the cardinalities and
//! dimensionalities reported in Tables IV and V of the paper.  The performance
//! comparison between the `M-*`, `S-*` and `F-*` algorithms depends on the data
//! only through these shape parameters (tuple ratio, feature split, sparsity), so
//! the emulation preserves the experimental signal while absolute accuracy numbers
//! are obviously not comparable to the originals.
//!
//! Use [`EmulatedDataset::generate`] with a `scale < 1.0` to shrink the fact and
//! dimension tables proportionally (preserving the tuple ratio) for laptop runs.

use crate::feature_block::FeatureBlock;
use crate::onehot::OneHotSpec;
use crate::rng::{cluster_centers, normal, seeded};
use crate::workload::Workload;
use fml_store::{Database, FeatureGroup, JoinSpec, Schema, StoreResult};
use rand::rngs::StdRng;
use rand::Rng;

/// Number of mixture components used when emulating real data.
const EMULATED_CLUSTERS: usize = 5;

/// Rows per generated [`FeatureBlock`]: bounds the staging buffer while
/// keeping block-generation overhead negligible.
const GEN_BLOCK_ROWS: usize = 4096;

/// The real-dataset configurations of Tables IV and V, plus the Movies-3way
/// multi-way join of Section VII-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmulatedDataset {
    /// Expedia `R1_Hotels ⋈ S_Listings` (dense).
    Expedia1,
    /// Expedia `R2_Searches ⋈ S_Listings` (dense).
    Expedia2,
    /// Walmart `R1_Indicators ⋈ S_Sales` (dense).
    Walmart,
    /// Movies `R2_movies ⋈ S_ratings` (dense).
    Movies,
    /// Augmented Expedia with `d_R = 29`.
    Expedia3,
    /// Augmented Expedia with `d_R = 78`.
    Expedia4,
    /// Augmented Expedia with `d_R = 218`.
    Expedia5,
    /// Walmart with one-hot (sparse) encoding, used by the NN experiments.
    WalmartSparse,
    /// Movies with one-hot (sparse) encoding, used by the NN experiments.
    MoviesSparse,
    /// Movies three-way join `S_ratings ⋈ R1_users ⋈ R2_movies`.
    Movies3Way,
}

/// Shape parameters of an emulated dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetShape {
    /// Fact-table cardinality `n_S`.
    pub n_s: u64,
    /// Fact-table feature count `d_S`.
    pub d_s: usize,
    /// Dimension tables as `(n_{R_i}, d_{R_i})` pairs.
    pub dims: Vec<(u64, usize)>,
    /// Whether features are one-hot encoded indicator columns.
    pub sparse: bool,
}

impl EmulatedDataset {
    /// All datasets, in the order the paper's result tables list them.
    pub fn all() -> Vec<EmulatedDataset> {
        use EmulatedDataset::*;
        vec![
            Expedia1,
            Expedia2,
            Walmart,
            Movies,
            Expedia3,
            Expedia4,
            Expedia5,
            WalmartSparse,
            MoviesSparse,
            Movies3Way,
        ]
    }

    /// Datasets used by the GMM experiment of Table VI.
    pub fn gmm_table() -> Vec<EmulatedDataset> {
        use EmulatedDataset::*;
        vec![
            Expedia1, Expedia2, Walmart, Movies, Expedia3, Expedia4, Expedia5, Movies3Way,
        ]
    }

    /// Datasets used by the NN experiment of Table VII.
    pub fn nn_table() -> Vec<EmulatedDataset> {
        use EmulatedDataset::*;
        vec![WalmartSparse, MoviesSparse, Movies3Way]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            EmulatedDataset::Expedia1 => "Expedia1 (Not Sparse)",
            EmulatedDataset::Expedia2 => "Expedia2 (Not Sparse)",
            EmulatedDataset::Walmart => "Walmart (Not Sparse)",
            EmulatedDataset::Movies => "Movies (Not Sparse)",
            EmulatedDataset::Expedia3 => "Expedia3 (Augmented)",
            EmulatedDataset::Expedia4 => "Expedia4 (Augmented)",
            EmulatedDataset::Expedia5 => "Expedia5 (Augmented)",
            EmulatedDataset::WalmartSparse => "Walmart (Sparse)",
            EmulatedDataset::MoviesSparse => "Movies (Sparse)",
            EmulatedDataset::Movies3Way => "Movies-3way",
        }
    }

    /// The published shape parameters (Tables IV and V).
    pub fn shape(&self) -> DatasetShape {
        use EmulatedDataset::*;
        match self {
            Expedia1 => DatasetShape {
                n_s: 942_142,
                d_s: 7,
                dims: vec![(11_938, 8)],
                sparse: false,
            },
            Expedia2 => DatasetShape {
                n_s: 942_142,
                d_s: 7,
                dims: vec![(37_021, 14)],
                sparse: false,
            },
            Walmart => DatasetShape {
                n_s: 421_570,
                d_s: 3,
                dims: vec![(2_340, 9)],
                sparse: false,
            },
            Movies => DatasetShape {
                n_s: 1_000_209,
                d_s: 1,
                dims: vec![(3_706, 21)],
                sparse: false,
            },
            Expedia3 => DatasetShape {
                n_s: 634_133,
                d_s: 7,
                dims: vec![(2_899, 29)],
                sparse: false,
            },
            Expedia4 => DatasetShape {
                n_s: 634_133,
                d_s: 7,
                dims: vec![(2_899, 78)],
                sparse: false,
            },
            Expedia5 => DatasetShape {
                n_s: 634_133,
                d_s: 7,
                dims: vec![(2_899, 218)],
                sparse: false,
            },
            WalmartSparse => DatasetShape {
                n_s: 421_570,
                d_s: 126,
                dims: vec![(2_340, 175)],
                sparse: true,
            },
            MoviesSparse => DatasetShape {
                n_s: 1_000_209,
                d_s: 1,
                dims: vec![(3_706, 21)],
                sparse: true,
            },
            Movies3Way => DatasetShape {
                n_s: 1_000_209,
                d_s: 1,
                dims: vec![(6_040, 4), (3_706, 21)],
                sparse: false,
            },
        }
    }

    /// Generates the emulated dataset scaled by `scale ∈ (0, 1]` (both fact and
    /// dimension cardinalities shrink proportionally, preserving the tuple ratio).
    pub fn generate(&self, scale: f64, seed: u64) -> StoreResult<Workload> {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let shape = self.shape();
        let scaled = DatasetShape {
            n_s: scale_count(shape.n_s, scale, 100),
            d_s: shape.d_s,
            dims: shape
                .dims
                .iter()
                .map(|(n, d)| (scale_count(*n, scale, 10), *d))
                .collect(),
            sparse: shape.sparse,
        };
        let mut workload = generate_from_shape(&scaled, seed)?;
        workload.name = format!("{} (scale {:.3})", self.name(), scale);
        Ok(workload)
    }
}

fn scale_count(n: u64, scale: f64, floor: u64) -> u64 {
    ((n as f64 * scale).round() as u64).max(floor.min(n))
}

/// Generates a feature block for a batch of rows: one-hot in index form
/// when `spec` is given, normal draws otherwise.
fn gen_feature_block(
    rng: &mut StdRng,
    spec: Option<&OneHotSpec>,
    centers: &[Vec<f64>],
    clusters: &[usize],
) -> FeatureBlock {
    match spec {
        Some(spec) => FeatureBlock::generate_onehot(rng, spec, clusters),
        None => FeatureBlock::generate_dense(rng, centers, clusters, 1.0),
    }
}

/// The layout of a width-`d` block: one-hot per [`OneHotSpec::auto`] for a
/// sparse dataset, dense otherwise — with the feature group that stores it.
fn layout(sparse: bool, d: usize) -> (Option<OneHotSpec>, FeatureGroup) {
    match sparse {
        true => {
            let spec = OneHotSpec::auto(d);
            let group = spec.group();
            (Some(spec), group)
        }
        false => (None, FeatureGroup::Dense(d)),
    }
}

fn generate_from_shape(shape: &DatasetShape, seed: u64) -> StoreResult<Workload> {
    let db = Database::in_memory();
    let mut rng = seeded(seed);
    let k = EMULATED_CLUSTERS;

    let mut dim_names = Vec::new();
    let mut dim_clusters: Vec<Vec<usize>> = Vec::new();
    for (i, (n_r, d_r)) in shape.dims.iter().enumerate() {
        let name = format!("R{}", i + 1);
        let centers = cluster_centers(&mut rng, k, *d_r, 6.0);
        let (spec, group) = layout(shape.sparse, *d_r);
        let schema = Schema::dimension(name.clone(), *d_r).with_groups(vec![group]);
        let rel = db.create_relation(schema)?;
        let mut clusters = Vec::with_capacity(*n_r as usize);
        {
            let mut rel = rel.lock();
            let mut key = 0u64;
            while key < *n_r {
                let rows = GEN_BLOCK_ROWS.min((*n_r - key) as usize);
                let chunk: Vec<usize> = (0..rows).map(|r| (key as usize + r) % k).collect();
                let block = gen_feature_block(&mut rng, spec.as_ref(), &centers, &chunk);
                for (r, &c) in chunk.iter().enumerate() {
                    clusters.push(c);
                    rel.append_row(key + r as u64, &[], None, block.row(r))?;
                }
                key += rows as u64;
            }
            rel.flush()?;
        }
        dim_names.push(name);
        dim_clusters.push(clusters);
    }

    let s_centers = cluster_centers(&mut rng, k, shape.d_s, 6.0);
    let (s_spec, s_group) = layout(shape.sparse, shape.d_s);
    let s_schema = Schema::fact_with_target("S", shape.d_s, shape.dims.len());
    let s_rel = db.create_relation(s_schema.with_groups(vec![s_group]))?;
    {
        let mut rel = s_rel.lock();
        let mut key = 0u64;
        while key < shape.n_s {
            let rows = GEN_BLOCK_ROWS.min((shape.n_s - key) as usize);
            // Foreign keys and clusters first (the cluster drives the feature
            // block), then the whole chunk's features in one block.
            let mut fks_chunk = Vec::with_capacity(rows);
            let mut clusters = Vec::with_capacity(rows);
            for _ in 0..rows {
                let fk0 = rng.gen_range(0..shape.dims[0].0);
                let c = dim_clusters[0][fk0 as usize];
                let mut fks = vec![fk0];
                for (n_r, _) in shape.dims.iter().skip(1) {
                    fks.push(rng.gen_range(0..*n_r));
                }
                fks_chunk.push(fks);
                clusters.push(c);
            }
            let block = gen_feature_block(&mut rng, s_spec.as_ref(), &s_centers, &clusters);
            for (r, (fks, &c)) in fks_chunk.into_iter().zip(clusters.iter()).enumerate() {
                let mean = block.row_mean(r);
                let y = (mean / 4.0).tanh() + c as f64 / k as f64 + normal(&mut rng, 0.0, 0.05);
                rel.append_row(key + r as u64, &fks, Some(y), block.row(r))?;
            }
            key += rows as u64;
        }
        rel.flush()?;
    }

    Ok(Workload {
        db,
        spec: if dim_names.len() == 1 {
            JoinSpec::binary("S", dim_names[0].clone())
        } else {
            JoinSpec::multiway("S", dim_names)
        },
        name: "emulated".to_string(),
        generating_clusters: Some(k),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fml_store::batch::scan_all;

    #[test]
    fn shapes_match_tables_iv_and_v() {
        let e1 = EmulatedDataset::Expedia1.shape();
        assert_eq!((e1.n_s, e1.d_s), (942_142, 7));
        assert_eq!(e1.dims, vec![(11_938, 8)]);

        let w = EmulatedDataset::WalmartSparse.shape();
        assert_eq!(w.d_s, 126);
        assert_eq!(w.dims, vec![(2_340, 175)]);
        assert!(w.sparse);

        let e5 = EmulatedDataset::Expedia5.shape();
        assert_eq!(e5.dims[0].1, 218);

        let m3 = EmulatedDataset::Movies3Way.shape();
        assert_eq!(m3.dims.len(), 2);
        assert_eq!(m3.dims[1], (3_706, 21));
    }

    #[test]
    fn table_membership() {
        assert_eq!(EmulatedDataset::gmm_table().len(), 8);
        assert_eq!(EmulatedDataset::nn_table().len(), 3);
        assert_eq!(EmulatedDataset::all().len(), 10);
    }

    #[test]
    fn generate_scaled_preserves_tuple_ratio() {
        let w = EmulatedDataset::Walmart.generate(0.01, 1).unwrap();
        let full = EmulatedDataset::Walmart.shape();
        let rr_full = full.n_s as f64 / full.dims[0].0 as f64;
        let rr = w.tuple_ratio().unwrap();
        assert!(
            (rr - rr_full).abs() / rr_full < 0.05,
            "rr {rr} vs {rr_full}"
        );
        assert_eq!(w.feature_partition().unwrap(), vec![3, 9]);
    }

    #[test]
    fn sparse_generation_is_one_hot() {
        let w = EmulatedDataset::WalmartSparse.generate(0.002, 2).unwrap();
        let s = w.spec.fact_relation(&w.db).unwrap();
        let tuples = scan_all(&s, 32).unwrap();
        assert!(!tuples.is_empty());
        for t in &tuples {
            assert_eq!(t.features.len(), 126);
            assert!(t.features.iter().all(|&f| f == 0.0 || f == 1.0));
            // one-hot blocks: number of ones equals number of categorical columns
            let ones = t.features.iter().filter(|&&f| f == 1.0).count();
            assert_eq!(ones, OneHotSpec::auto(126).num_columns());
            assert!(t.target.is_some());
        }
        // the schemas store the layout: one code per categorical column
        assert_eq!(
            groups(&w),
            [OneHotSpec::auto(126).group(), OneHotSpec::auto(175).group()]
        );
        assert_eq!(s.lock().schema().record_size(), 8 * 3 + 4 * 15);
    }

    /// The one feature group of each relation, in partition order.
    fn groups(w: &Workload) -> Vec<FeatureGroup> {
        let mut relations = vec![w.spec.fact_relation(&w.db).unwrap()];
        relations.extend(w.spec.dimension_relations(&w.db).unwrap());
        let groups = relations
            .iter()
            .map(|r| r.lock().schema().groups().to_vec());
        groups.map(|g| g.into_iter().next().unwrap()).collect()
    }

    #[test]
    fn dense_datasets_carry_no_onehot_metadata() {
        let w = EmulatedDataset::Walmart.generate(0.002, 2).unwrap();
        assert_eq!(groups(&w), [FeatureGroup::Dense(3), FeatureGroup::Dense(9)]);
    }

    #[test]
    fn movies_3way_generates_two_dimension_tables() {
        let w = EmulatedDataset::Movies3Way.generate(0.001, 3).unwrap();
        assert_eq!(w.spec.num_dimensions(), 2);
        assert_eq!(w.feature_partition().unwrap(), vec![1, 4, 21]);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn zero_scale_rejected() {
        let _ = EmulatedDataset::Movies.generate(0.0, 1);
    }

    #[test]
    fn scale_count_floors() {
        assert_eq!(scale_count(1000, 0.5, 10), 500);
        assert_eq!(scale_count(1000, 0.001, 10), 10);
        assert_eq!(scale_count(5, 0.001, 10), 5);
    }
}
