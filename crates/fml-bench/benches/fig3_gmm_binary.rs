//! Figure 3: GMM over a synthetic binary join — wall-clock time of M-GMM, S-GMM
//! and F-GMM while varying (a) the tuple ratio `rr`, (b) the dimension-table
//! width `d_R`, and (c) the number of components `K` — plus (d) the
//! categorical one-hot scenario (emulated WalmartSparse) comparing the
//! auto-detected sparse path against the forced-dense kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fml_bench::{bench_gmm_config, binary_vary_dr, binary_vary_k, binary_vary_rr, emulated};
use fml_core::prelude::*;
use fml_data::EmulatedDataset;
use fml_linalg::SparseMode;

fn fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_gmm_binary");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // (a) vary rr at d_R = 15
    for rr in [20u64, 100] {
        let w = binary_vary_rr(rr, 15, false);
        for alg in Algorithm::all() {
            group.bench_with_input(
                BenchmarkId::new(format!("a_rr{}_{}", rr, alg.label()), rr),
                &w,
                |b, w| {
                    b.iter(|| {
                        Session::new(&w.db)
                            .join(&w.spec)
                            .fit(Gmm::new(bench_gmm_config(5)).algorithm(alg))
                            .unwrap()
                    })
                },
            );
        }
    }

    // (b) vary d_R
    for d_r in [5usize, 30] {
        let w = binary_vary_dr(d_r, 1_000_000, false);
        for alg in Algorithm::all() {
            group.bench_with_input(
                BenchmarkId::new(format!("b_dR{}_{}", d_r, alg.label()), d_r),
                &w,
                |b, w| {
                    b.iter(|| {
                        Session::new(&w.db)
                            .join(&w.spec)
                            .fit(Gmm::new(bench_gmm_config(5)).algorithm(alg))
                            .unwrap()
                    })
                },
            );
        }
    }

    // (c) vary K
    let w = binary_vary_k(false, 42);
    for k in [2usize, 8] {
        for alg in Algorithm::all() {
            group.bench_with_input(
                BenchmarkId::new(format!("c_K{}_{}", k, alg.label()), k),
                &w,
                |b, w| {
                    b.iter(|| {
                        Session::new(&w.db)
                            .join(&w.spec)
                            .fit(Gmm::new(bench_gmm_config(k)).algorithm(alg))
                            .unwrap()
                    })
                },
            );
        }
    }

    // (d) categorical one-hot scenario: auto-detected sparse path vs forced
    // dense on the emulated WalmartSparse dataset (126/175 one-hot features)
    let w = emulated(EmulatedDataset::WalmartSparse);
    for mode in [SparseMode::Auto, SparseMode::Dense] {
        group.bench_with_input(
            BenchmarkId::new(
                format!("e_categorical_{}_F-GMM", mode.label()),
                mode.label(),
            ),
            &w,
            |b, w| {
                b.iter(|| {
                    Session::new(&w.db)
                        .join(&w.spec)
                        .exec(ExecPolicy::new().sparse_mode(mode))
                        .fit(Gmm::new(bench_gmm_config(5)))
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, fig3);
criterion_main!(benches);
