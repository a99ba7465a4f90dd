//! Figure 5: NN over a synthetic binary join — M/S/F-NN while varying the tuple
//! ratio `rr`, the dimension-table width `d_R`, and the hidden width `n_h` —
//! plus the categorical one-hot scenario (emulated WalmartSparse, sparse vs
//! forced dense).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fml_bench::{bench_nn_config, binary_vary_dr, binary_vary_k, binary_vary_rr, emulated};
use fml_core::prelude::*;
use fml_data::EmulatedDataset;
use fml_linalg::SparseMode;

fn fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_nn_binary");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for rr in [20u64, 100] {
        let w = binary_vary_rr(rr, 15, true);
        for alg in Algorithm::all() {
            group.bench_with_input(
                BenchmarkId::new(format!("a_rr{}_{}", rr, alg.label()), rr),
                &w,
                |b, w| {
                    b.iter(|| {
                        Session::new(&w.db)
                            .join(&w.spec)
                            .fit(Nn::new(bench_nn_config(50)).algorithm(alg))
                            .unwrap()
                    })
                },
            );
        }
    }

    for d_r in [5usize, 30] {
        let w = binary_vary_dr(d_r, 1_000_000, true);
        for alg in Algorithm::all() {
            group.bench_with_input(
                BenchmarkId::new(format!("b_dR{}_{}", d_r, alg.label()), d_r),
                &w,
                |b, w| {
                    b.iter(|| {
                        Session::new(&w.db)
                            .join(&w.spec)
                            .fit(Nn::new(bench_nn_config(50)).algorithm(alg))
                            .unwrap()
                    })
                },
            );
        }
    }

    let w = binary_vary_k(true, 43);
    for n_h in [20usize, 100] {
        for alg in Algorithm::all() {
            group.bench_with_input(
                BenchmarkId::new(format!("c_nh{}_{}", n_h, alg.label()), n_h),
                &w,
                |b, w| {
                    b.iter(|| {
                        Session::new(&w.db)
                            .join(&w.spec)
                            .fit(Nn::new(bench_nn_config(n_h)).algorithm(alg))
                            .unwrap()
                    })
                },
            );
        }
    }

    // (d) categorical one-hot scenario: gather/scatter first layer vs forced
    // dense on the emulated WalmartSparse dataset (the paper's NN "Sparse"
    // variant, 126/175 one-hot features)
    let w = emulated(EmulatedDataset::WalmartSparse);
    for mode in [SparseMode::Auto, SparseMode::Dense] {
        group.bench_with_input(
            BenchmarkId::new(format!("e_categorical_{}_F-NN", mode.label()), mode.label()),
            &w,
            |b, w| {
                b.iter(|| {
                    Session::new(&w.db)
                        .join(&w.spec)
                        .exec(ExecPolicy::new().sparse_mode(mode))
                        .fit(Nn::new(bench_nn_config(50)))
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, fig5);
criterion_main!(benches);
