//! `reproduce` — regenerates every table and figure of the paper's evaluation
//! (Section VII) as plain-text series/tables, at a configurable scale.
//!
//! Usage:
//!   reproduce [experiment ...]
//!
//! Experiments: fig3a fig3b fig3c fig4a fig4b fig4c fig5a fig5b fig5c
//!              fig6a fig6b fig6c table6 table7 io-crossover all
//!
//! Scale: set `FML_SCALE=paper` for the paper's original sizes (slow) or
//! `FML_SCALE=<factor>` (default 0.02) for proportionally smaller fact tables.

use fml_bench::*;
use fml_core::cost::ENGINE_PASSES_PER_ITERATION;
use fml_core::prelude::*;
use fml_core::report::{secs, speedup, Table};
use fml_core::GmmIoCostModel;
use fml_data::EmulatedDataset;

fn series_table(title: &str, param: &str) -> Table {
    Table::new(
        title,
        &[
            param,
            "M (s)",
            "S (s)",
            "F (s)",
            "F speed-up vs M",
            "F speed-up vs S",
        ],
    )
}

fn push_series_row(table: &mut Table, param: String, results: &[RunResult]) {
    let m = &results[0];
    let s = &results[1];
    let f = &results[2];
    table.push_row(vec![
        param,
        secs(m.elapsed),
        secs(s.elapsed),
        secs(f.elapsed),
        speedup(m.elapsed, f.elapsed),
        speedup(s.elapsed, f.elapsed),
    ]);
}

fn fig3a() {
    let mut t = series_table("Figure 3(a) — GMM binary, vary rr (dS=5, dR=15, K=5)", "rr");
    for rr in [5u64, 20, 50, 100, 200] {
        let w = binary_vary_rr(rr, 15, false);
        let rr_actual = w.tuple_ratio().unwrap();
        let results = run_gmm_all(&w, &bench_gmm_config(5));
        push_series_row(&mut t, format!("{rr_actual:.0}"), &results);
    }
    println!("{}", t.render());
}

fn fig3b() {
    let mut t = series_table("Figure 3(b) — GMM binary, vary dR (dS=5, K=5)", "dR");
    for d_r in [5usize, 15, 30, 60] {
        let w = binary_vary_dr(d_r, 1_000_000, false);
        let results = run_gmm_all(&w, &bench_gmm_config(5));
        push_series_row(&mut t, d_r.to_string(), &results);
    }
    println!("{}", t.render());
}

fn fig3c() {
    let mut t = series_table("Figure 3(c) — GMM binary, vary K (dS=5, dR=15)", "K");
    let w = binary_vary_k(false, 42);
    for k in [2usize, 5, 8, 12] {
        let results = run_gmm_all(&w, &bench_gmm_config(k));
        push_series_row(&mut t, k.to_string(), &results);
    }
    println!("{}", t.render());
}

fn fig4(part: char) {
    match part {
        'a' => {
            let mut t = series_table("Figure 4(a) — GMM multi-way, vary rr", "rr");
            for rr in [5u64, 20, 50] {
                let w = multiway_movies_like(rr, 4, false);
                let results = run_gmm_all(&w, &bench_gmm_config(5));
                push_series_row(&mut t, rr.to_string(), &results);
            }
            println!("{}", t.render());
        }
        'b' => {
            let mut t = series_table("Figure 4(b) — GMM multi-way, vary dR1", "dR1");
            for d_r1 in [4usize, 16, 32] {
                let w = multiway_movies_like(20, d_r1, false);
                let results = run_gmm_all(&w, &bench_gmm_config(5));
                push_series_row(&mut t, d_r1.to_string(), &results);
            }
            println!("{}", t.render());
        }
        _ => {
            let mut t = series_table("Figure 4(c) — GMM multi-way, vary K", "K");
            let w = multiway_movies_like(20, 4, false);
            for k in [2usize, 5, 8] {
                let results = run_gmm_all(&w, &bench_gmm_config(k));
                push_series_row(&mut t, k.to_string(), &results);
            }
            println!("{}", t.render());
        }
    }
}

fn fig5(part: char) {
    match part {
        'a' => {
            let mut t = series_table("Figure 5(a) — NN binary, vary rr (dR=15, nh=50)", "rr");
            for rr in [5u64, 20, 50, 100] {
                let w = binary_vary_rr(rr, 15, true);
                let results = run_nn_all(&w, &bench_nn_config(50));
                push_series_row(&mut t, format!("{:.0}", w.tuple_ratio().unwrap()), &results);
            }
            println!("{}", t.render());
        }
        'b' => {
            let mut t = series_table("Figure 5(b) — NN binary, vary dR (nh=50)", "dR");
            for d_r in [5usize, 15, 30, 60] {
                let w = binary_vary_dr(d_r, 1_000_000, true);
                let results = run_nn_all(&w, &bench_nn_config(50));
                push_series_row(&mut t, d_r.to_string(), &results);
            }
            println!("{}", t.render());
        }
        _ => {
            let mut t = series_table("Figure 5(c) — NN binary, vary nh (dR=15)", "nh");
            let w = binary_vary_k(true, 43);
            for n_h in [20usize, 50, 100, 200] {
                let results = run_nn_all(&w, &bench_nn_config(n_h));
                push_series_row(&mut t, n_h.to_string(), &results);
            }
            println!("{}", t.render());
        }
    }
}

fn fig6(part: char) {
    match part {
        'a' => {
            let mut t = series_table("Figure 6(a) — NN multi-way, vary rr (nh=50)", "rr");
            for rr in [5u64, 20, 50] {
                let w = multiway_movies_like(rr, 4, true);
                let results = run_nn_all(&w, &bench_nn_config(50));
                push_series_row(&mut t, rr.to_string(), &results);
            }
            println!("{}", t.render());
        }
        'b' => {
            let mut t = series_table("Figure 6(b) — NN multi-way, vary dR1 (nh=50)", "dR1");
            for d_r1 in [4usize, 16, 32] {
                let w = multiway_movies_like(20, d_r1, true);
                let results = run_nn_all(&w, &bench_nn_config(50));
                push_series_row(&mut t, d_r1.to_string(), &results);
            }
            println!("{}", t.render());
        }
        _ => {
            let mut t = series_table("Figure 6(c) — NN multi-way, vary nh", "nh");
            let w = multiway_movies_like(20, 4, true);
            for n_h in [20usize, 50, 100] {
                let results = run_nn_all(&w, &bench_nn_config(n_h));
                push_series_row(&mut t, n_h.to_string(), &results);
            }
            println!("{}", t.render());
        }
    }
}

fn table6() {
    let mut t = Table::new(
        "Table VI — GMM on emulated real datasets (times in seconds)",
        &["Dataset", "M-GMM", "S-GMM", "F-GMM", "F speed-up vs M"],
    );
    for dataset in EmulatedDataset::gmm_table() {
        let w = emulated(dataset);
        let results = run_gmm_all(&w, &bench_gmm_config(5));
        t.push_row(vec![
            dataset.name().to_string(),
            secs(results[0].elapsed),
            secs(results[1].elapsed),
            secs(results[2].elapsed),
            speedup(results[0].elapsed, results[2].elapsed),
        ]);
    }
    println!("{}", t.render());
}

fn table7() {
    let mut t = Table::new(
        "Table VII — NN on emulated real datasets (times in seconds)",
        &["Dataset", "M-NN", "S-NN", "F-NN", "F speed-up vs M"],
    );
    for dataset in EmulatedDataset::nn_table() {
        let w = emulated(dataset);
        let results = run_nn_all(&w, &bench_nn_config(50));
        t.push_row(vec![
            dataset.name().to_string(),
            secs(results[0].elapsed),
            secs(results[1].elapsed),
            secs(results[2].elapsed),
            speedup(results[0].elapsed, results[2].elapsed),
        ]);
    }
    println!("{}", t.render());
}

fn io_crossover() {
    let mut t = Table::new(
        "I/O crossover (Section V-A) — measured page I/O vs the analytic model \
         at the engine's one pass per EM iteration",
        &[
            "BlockSize",
            "measured M",
            "model M",
            "measured S",
            "model S",
            "winner",
        ],
    );
    let w = fml_data::SyntheticConfig {
        n_s: scaled(200_000),
        n_r: 500,
        d_s: 5,
        d_r: 15,
        k: 3,
        noise_std: 1.0,
        with_target: false,
        seed: 9,
    }
    .generate()
    .unwrap();
    let iters = 2usize;
    let s_pages = w.spec.fact_relation(&w.db).unwrap().lock().num_pages() as u64;
    let r_pages = w.spec.dimension_relations(&w.db).unwrap()[0]
        .lock()
        .num_pages() as u64;
    for block_pages in [1usize, 4, 16, 64, 256] {
        let config = GmmConfig {
            k: 3,
            max_iters: iters,
            ..GmmConfig::default()
        };
        let session = Session::new(&w.db)
            .join(&w.spec)
            .exec(ExecPolicy::new().block_pages(block_pages));
        w.db.stats().reset();
        let m = session
            .fit(Gmm::new(config.clone()).algorithm(Algorithm::Materialized))
            .unwrap();
        let t_pages =
            w.db.relation(&fml_gmm::MaterializedGmm::temp_table_name(&w.spec))
                .unwrap()
                .lock()
                .num_pages() as u64;
        w.db.stats().reset();
        let s = session
            .fit(Gmm::new(config).algorithm(Algorithm::Streaming))
            .unwrap();
        let model = GmmIoCostModel {
            s_pages,
            r_pages,
            t_pages,
            block_pages: block_pages as u64,
            iterations: iters as u64,
        };
        t.push_row(vec![
            block_pages.to_string(),
            m.io.total_page_io().to_string(),
            model
                .materialized_io(ENGINE_PASSES_PER_ITERATION)
                .to_string(),
            s.io.total_page_io().to_string(),
            model.streaming_io(ENGINE_PASSES_PER_ITERATION).to_string(),
            if s.io.total_page_io() < m.io.total_page_io() {
                "stream"
            } else {
                "materialize"
            }
            .to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "fig3a",
            "fig3b",
            "fig3c",
            "fig4a",
            "fig4b",
            "fig4c",
            "fig5a",
            "fig5b",
            "fig5c",
            "fig6a",
            "fig6b",
            "fig6c",
            "table6",
            "table7",
            "io-crossover",
        ]
        .into_iter()
        .map(String::from)
        .collect()
    } else {
        args
    };
    println!(
        "fml reproduce — scale factor {} (set FML_SCALE=paper for the original sizes)\n",
        scale_factor()
    );
    for exp in wanted {
        match exp.as_str() {
            "fig3a" => fig3a(),
            "fig3b" => fig3b(),
            "fig3c" => fig3c(),
            "fig4a" => fig4('a'),
            "fig4b" => fig4('b'),
            "fig4c" => fig4('c'),
            "fig5a" => fig5('a'),
            "fig5b" => fig5('b'),
            "fig5c" => fig5('c'),
            "fig6a" => fig6('a'),
            "fig6b" => fig6('b'),
            "fig6c" => fig6('c'),
            "table6" => table6(),
            "table7" => table7(),
            "io-crossover" => io_crossover(),
            other => eprintln!("unknown experiment '{other}' (see --help in the source header)"),
        }
    }
}
