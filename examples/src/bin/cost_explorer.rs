//! Explore the paper's analytic cost models (Section V) without training anything:
//! where is the I/O crossover between materializing and streaming, and how does
//! the computation-saving rate of F-GMM scale with the workload shape?
//!
//! Run with: `cargo run --release -p fml-examples --bin cost_explorer`

use fml_core::cost::{ENGINE_PASSES_PER_ITERATION, PAPER_PASSES_PER_ITERATION};
use fml_core::report::Table;
use fml_core::{GmmIoCostModel, SavingRateModel};

fn main() {
    // I/O crossover: vary BlockSize for a fixed workload shape, at the paper's
    // three passes per EM iteration (Algorithm 1) and at this engine's one.
    let example = GmmIoCostModel {
        s_pages: 50_000,
        r_pages: 500,
        t_pages: 120_000,
        block_pages: 64,
        iterations: 10,
    };
    for (label, passes) in [
        ("the paper's Algorithm 1", PAPER_PASSES_PER_ITERATION),
        ("this engine's fused EM", ENGINE_PASSES_PER_ITERATION),
    ] {
        let mut io_table = Table::new(
            format!(
                "I/O cost (pages) — |S|=50k, |R|=500, |T|=120k pages, 10 EM iterations, \
                 {passes} pass(es) per iteration ({label})"
            ),
            &["BlockSize", "M-GMM", "S-GMM / F-GMM", "winner"],
        );
        for block in [1u64, 4, 16, 64, 256, 1024] {
            let m = GmmIoCostModel {
                block_pages: block,
                ..example
            };
            io_table.push_row(vec![
                block.to_string(),
                m.materialized_io(passes).to_string(),
                m.streaming_io(passes).to_string(),
                if m.streaming_wins(passes) {
                    "stream/factorize"
                } else {
                    "materialize"
                }
                .to_string(),
            ]);
        }
        println!("{}", io_table.render());
        if let Some(threshold) = example.crossover_block_pages(passes) {
            println!("analytic crossover BlockSize ≈ {threshold:.1} pages\n");
        }
    }

    // Computation-saving rate of the factorized scatter update (Section V-B).
    let mut save_table = Table::new(
        "F-GMM computation-saving rate Δτ/τ (d_S = 5)",
        &["rr = nS/nR", "d_R = 5", "d_R = 15", "d_R = 50"],
    );
    for rr in [10u64, 100, 1000, 5000] {
        let row: Vec<String> = [5usize, 15, 50]
            .iter()
            .map(|&d_r| {
                let m = SavingRateModel::unit_costs(1000 * rr, 1000, 5, d_r);
                format!(
                    "{:.1}% ({:.2}x)",
                    100.0 * m.saving_rate(),
                    m.predicted_speedup()
                )
            })
            .collect();
        save_table.push_row(vec![
            rr.to_string(),
            row[0].clone(),
            row[1].clone(),
            row[2].clone(),
        ]);
    }
    println!("{}", save_table.render());
    println!("The saving rate — and therefore the expected F-GMM speed-up — grows with the tuple");
    println!("ratio rr and the dimension-table width d_R, which is exactly the trend Figures 3-6");
    println!("of the paper report for the measured runtimes.");
}
