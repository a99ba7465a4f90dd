//! The metric names of the benchmark: the end-to-end table (gated, with
//! bounds) and the per-layer table (attribution, no bounds).
//!
//! `BENCHMARK.json` repeats both tables; the `manifest_matches_the_tables`
//! test keeps the two in step.  Names, sizes and bounds change only in an
//! issue of kind `benchmark`.

use crate::stats::Better;

/// The three strategies' metric suffixes, in the paper's order.
pub const STRATEGIES: [&str; 3] = ["m", "s", "f"];

/// One gated end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Wall-time bound for fits and scoring passes.  Three sets of ten runs over
/// ten seeds on a shared 2-core machine gave quartile spreads of 2–7% of the
/// median in quiet periods and up to 12% in busy ones — whole runs slow down
/// together when a neighbour is busy, on whichever workload is running — so
/// the bound is twice the widest spread seen, the most the contract allows.
const TIME_BOUND: f64 = 0.25;

/// Page counts repeat exactly (the run itself fails if two samples differ);
/// the bound is the smallest step the gate can express, not a tolerance.
const PAGES_BOUND: f64 = 0.001;

/// The end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("fit_m_s", "s", Better::Lower, TIME_BOUND),
    e2e("fit_s_s", "s", Better::Lower, TIME_BOUND),
    e2e("fit_f_s", "s", Better::Lower, TIME_BOUND),
    e2e("score_m_rows_per_s", "rows/s", Better::Higher, TIME_BOUND),
    e2e("score_s_rows_per_s", "rows/s", Better::Higher, TIME_BOUND),
    e2e("score_f_rows_per_s", "rows/s", Better::Higher, TIME_BOUND),
    e2e("fit_m_pages", "pages", Better::Lower, PAGES_BOUND),
    e2e("fit_s_pages", "pages", Better::Lower, PAGES_BOUND),
    e2e("fit_f_pages", "pages", Better::Lower, PAGES_BOUND),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// One per-layer metric family: `name` alone, or `name.<x>` for each listed
/// strategy suffix.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub suffixes: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    suffixes: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        suffixes,
    }
}

const NONE: &[&str] = &[];
const MSF: &[&str] = &STRATEGIES;
const M: &[&str] = &["m"];
const S_F: &[&str] = &["s", "f"];
const M_S: &[&str] = &["m", "s"];
const M_F: &[&str] = &["m", "f"];
const F: &[&str] = &["f"];

use Better::{Higher, Lower};

/// The per-layer metrics, grouped by the module they attribute to.
pub const PER_LAYER: [Layer; 49] = [
    // fml-data
    layer("data.generate_s", "s", Lower, NONE),
    layer("data.fact_rows", "count", Higher, NONE),
    layer("data.dim_rows", "count", Higher, NONE),
    layer("data.tuple_ratio", "ratio", Higher, NONE),
    // fml-store: time of one pass of each scan source, no model math
    layer("store.pass_t_s", "s", Lower, NONE),
    layer("store.pass_join_s", "s", Lower, NONE),
    layer("store.pass_denorm_s", "s", Lower, NONE),
    layer("store.materialize_s", "s", Lower, NONE),
    layer("store.s_pages", "pages", Lower, NONE),
    layer("store.r_pages", "pages", Lower, NONE),
    layer("store.t_pages", "pages", Lower, NONE),
    // fml-store: I/O counted during one fit
    layer("store.pages_read", "pages", Lower, MSF),
    layer("store.pages_written", "pages", Lower, M),
    layer("store.tuples_read", "count", Lower, MSF),
    layer("store.fields_read", "count", Lower, MSF),
    layer("store.index_probes", "count", Lower, F),
    // fml-gmm / fml-nn trainers
    layer("train.init_s", "s", Lower, MSF),
    layer("train.iter_s", "s", Lower, MSF),
    layer("train.first_iter_extra_s", "s", Lower, MSF),
    layer("train.compute_s", "s", Lower, MSF),
    layer("train.iterations", "count", Lower, NONE),
    layer("train.objective_rel_diff", "ratio", Lower, S_F),
    // fml-linalg kernels (registry counters; exact under the sequential policy)
    layer("linalg.flops", "count", Lower, MSF),
    layer("linalg.gemm_calls", "count", Lower, MSF),
    layer("linalg.gemv_calls", "count", Lower, MSF),
    layer("linalg.ger_calls", "count", Lower, MSF),
    layer("linalg.onehot_calls", "count", Lower, MSF),
    layer("linalg.csr_calls", "count", Lower, MSF),
    layer("linalg.detect_calls", "count", Lower, MSF),
    layer("linalg.counted_gflops", "GFLOP/s", Higher, MSF),
    layer("linalg.simd_level", "level", Higher, NONE),
    // fml-linalg pool: factorized fit and score under the parallel policy
    layer("pool.fit_f_par_ratio", "ratio", Lower, NONE),
    layer("pool.score_f_par_ratio", "ratio", Lower, NONE),
    layer("pool.dispatches", "count", Lower, F),
    layer("pool.dispatch_p50_ns", "ns", Lower, NONE),
    layer("pool.inline_steals", "count", Lower, NONE),
    layer("pool.worker_tasks", "count", Higher, NONE),
    // fml-serve
    layer("serve.score_batches", "count", Lower, F),
    layer("serve.score_fields_read", "count", Lower, M_F),
    layer("serve.persist_save_s", "s", Lower, NONE),
    layer("serve.persist_load_s", "s", Lower, NONE),
    layer("serve.model_bytes", "bytes", Lower, NONE),
    // fml-core: ratios and the Section V-A cost model against observed I/O
    layer("core.speedup_f_vs_m", "ratio", Higher, NONE),
    layer("core.speedup_f_vs_s", "ratio", Higher, NONE),
    layer("core.io_model_pred", "pages", Lower, M_S),
    layer("core.io_model_err", "ratio", Lower, M_S),
    // fml-obs
    layer("obs.trace_overhead", "ratio", Lower, F),
    layer("obs.span_vs_events_rel_diff", "ratio", Lower, F),
    layer("obs.dropped_spans", "count", Lower, NONE),
];

/// Every per-layer metric name, suffixes expanded, in table order.
pub fn per_layer_names() -> Vec<(String, &'static Layer)> {
    let mut out = Vec::new();
    for layer in &PER_LAYER {
        if layer.suffixes.is_empty() {
            out.push((layer.name.to_string(), layer));
        } else {
            for x in layer.suffixes {
                out.push((format!("{}.{x}", layer.name), layer));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer_names().into_iter().map(|(n, _)| n));
        names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(per_layer_names().len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is a hand-kept copy of the tables above; this fails
    /// when one is edited without the other.
    #[test]
    fn manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(String::from);

        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name").as_deref(), Some(want.name));
            assert_eq!(field(item, "unit").as_deref(), Some(want.unit));
            assert_eq!(field(item, "better").as_deref(), Some(want.better.label()));
            let bound = item.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(
                (bound - want.bound).abs() < 1e-12,
                "{}: bound {bound}",
                want.name
            );
        }

        let layers = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        let want = per_layer_names();
        assert_eq!(layers.len(), want.len());
        for (item, (name, layer)) in layers.iter().zip(&want) {
            assert_eq!(field(item, "name").as_deref(), Some(name.as_str()));
            assert_eq!(field(item, "unit").as_deref(), Some(layer.unit));
            assert_eq!(field(item, "better").as_deref(), Some(layer.better.label()));
        }

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(item, "name").as_deref(), Some(want.name));
            assert_eq!(field(item, "why").as_deref(), Some(want.why));
            assert!(want.why.len() <= 200 && !want.why.contains('\n'));
        }
        let paths = doc.get("paths").and_then(Json::as_arr).expect("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }
}
