//! Ablation (Section V-B): the factorized scatter computation in isolation —
//! measured speed-up of the blocked (reused) accumulation versus the dense one,
//! to compare against the analytic Δτ/τ model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fml_linalg::block::{BlockPartition, BlockScatter};
use fml_linalg::{gemm, Matrix};

fn scatter_dense(xs: &[Vec<f64>], x_r: &[f64], partition: &BlockPartition) -> Matrix {
    let d = partition.total_dim();
    let mut acc = Matrix::zeros(d, d);
    for x_s in xs {
        let joined: Vec<f64> = x_s.iter().chain(x_r.iter()).copied().collect();
        gemm::ger(0.5, &joined, &joined, &mut acc);
    }
    acc
}

fn scatter_factorized(xs: &[Vec<f64>], x_r: &[f64], partition: &BlockPartition) -> BlockScatter {
    let mut sc = BlockScatter::new(partition.clone());
    let mut gamma_sum = 0.0;
    let mut weighted = vec![0.0; partition.size(0)];
    for x_s in xs {
        sc.add_outer(0, 0, 0.5, x_s, x_s);
        for (w, v) in weighted.iter_mut().zip(x_s.iter()) {
            *w += 0.5 * v;
        }
        gamma_sum += 0.5;
    }
    sc.add_outer(0, 1, 1.0, &weighted, x_r);
    sc.add_outer(1, 0, 1.0, x_r, &weighted);
    sc.add_outer(1, 1, gamma_sum, x_r, x_r);
    sc
}

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_saving_rate");
    let d_s = 5usize;
    for d_r in [5usize, 15, 50] {
        let partition = BlockPartition::binary(d_s, d_r);
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| (0..d_s).map(|j| (i * 7 + j) as f64 / 13.0).collect())
            .collect();
        let x_r: Vec<f64> = (0..d_r).map(|j| j as f64 / 3.0).collect();
        group.bench_with_input(BenchmarkId::new("dense", d_r), &d_r, |b, _| {
            b.iter(|| scatter_dense(&xs, &x_r, &partition))
        });
        group.bench_with_input(BenchmarkId::new("factorized", d_r), &d_r, |b, _| {
            b.iter(|| scatter_factorized(&xs, &x_r, &partition))
        });
    }
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
