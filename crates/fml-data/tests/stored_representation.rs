//! Representation is a schema fact: on every relation of the four benchmark
//! workloads, at their smoke sizes and on both benchmark seeds, the form a
//! row is stored and decoded in is what the per-row classifier the trainers
//! used to run returns on the row expanded to dense.

use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::{EmulatedDataset, Workload};
use fml_linalg::BlockVec;
use fml_store::batch::{BlockScan, RowBlock};

/// The retired classifier: one-hot when every value is 0 or 1 at ≤ ½
/// occupancy, weighted CSR at ≤ ¼ occupancy, dense otherwise — as
/// `(indices, values)`, the values `None` for a one-hot row.
fn detect(x: &[f64]) -> Option<(Vec<u32>, Option<Vec<f64>>)> {
    let nonzero: Vec<(u32, f64)> = (0u32..)
        .zip(x.iter().copied())
        .filter(|&(_, v)| v != 0.0)
        .collect();
    let (idx, vals): (Vec<u32>, Vec<f64>) = nonzero.into_iter().unzip();
    if vals.iter().all(|&v| v == 1.0) && 2 * idx.len() <= x.len() {
        Some((idx, None))
    } else if 4 * idx.len() <= x.len() {
        Some((idx, Some(vals)))
    } else {
        None
    }
}

/// The benchmark's four workloads at smoke size.
fn workloads(seed: u64) -> [(&'static str, Workload); 4] {
    let mixed_star = MultiwayConfig {
        n_s: 2_000,
        d_s: 4,
        dims: vec![
            DimSpec::categorical(20, 40),
            DimSpec::sparse_numeric(80, 64, 6),
            DimSpec::new(1_000, 16),
        ],
        k: 5,
        noise_std: 1.0,
        with_target: true,
        seed,
    };
    [
        (
            "gmm_wide_binary",
            EmulatedDataset::Expedia4.generate(0.003, seed),
        ),
        (
            "gmm_narrow_star",
            EmulatedDataset::Movies3Way.generate(0.002, seed),
        ),
        (
            "nn_sparse_binary",
            EmulatedDataset::WalmartSparse.generate(0.005, seed),
        ),
        ("nn_mixed_star", mixed_star.generate()),
    ]
    .map(|(name, w)| (name, w.unwrap()))
}

#[test]
fn every_stored_row_is_what_detection_made_of_it() {
    for seed in [1, 2] {
        for (name, w) in workloads(seed) {
            let mut relations = vec![w.spec.fact_relation(&w.db).unwrap()];
            relations.extend(w.spec.dimension_relations(&w.db).unwrap());
            for rel in relations {
                let at = format!("{name}, seed {seed}, {}", rel.lock().name());
                let (mut rows, mut sparse) = (RowBlock::default(), 0);
                let mut scan = BlockScan::new(rel, 8);
                while scan.next_into(&mut rows).unwrap() {
                    for r in 0..rows.len() {
                        let detected = detect(&rows.dense_row(r));
                        match (rows.row(r), &detected) {
                            (BlockVec::Dense(_), None) => {}
                            (BlockVec::OneHot(idx), Some((want, None))) => assert_eq!(idx, want),
                            (BlockVec::Csr { idx, vals }, Some((want, Some(v)))) => {
                                assert_eq!((idx, vals), (&want[..], &v[..]), "{at}")
                            }
                            (row, _) => panic!("{at}: stored {row:?}, detected {detected:?}"),
                        }
                        sparse += usize::from(detected.is_some());
                    }
                }
                let expect_sparse = matches!(rows.kind(), fml_store::RowKind::Dense);
                assert_eq!(sparse == 0, expect_sparse, "{at}: {sparse} sparse rows");
            }
        }
    }
}
