//! The traced run: one fit and score per strategy under
//! `ExecPolicy::obs(ObsMode::Trace)`, bracketed by the benchmark's own spans
//! and by registry-counter and `IoSnapshot` readings, plus probes that time
//! each store scan source with no model math — the per-layer numbers that say
//! *where* an end-to-end metric moved.
//!
//! Every reading is taken from outside the engine: public scan sources,
//! `TraceObserver` events, `Trained::io` / `Scores::io`, and registry metrics
//! looked up **by name**.  End-to-end metrics never come from this run.
//!
//! Model: `fit_x ≈ train.init_s.x + iterations × (passes × store pass of x +
//! train.compute_s.x)`.

use crate::family::{suffix, Family, ITERATIONS};
use crate::metrics::per_layer_names;
use crate::run::{
    open_session, persist_round_trip, sizes, store_err as err, Measured, Ops, Reference, Report,
    RunConfig, Value,
};
use crate::stamp::simd_level;
use crate::stats::{median, rel_diff};
use crate::Args;
use fml_core::cost::GmmIoCostModel;
use fml_core::fml_data::Workload;
use fml_core::fml_store::batch::BatchScan;
use fml_core::fml_store::factorized_scan::{GroupScan, StarScan};
use fml_core::fml_store::join::materialize_join;
use fml_core::fml_store::{IoSnapshot, StoreResult};
use fml_core::prelude::*;
use fml_obs::ObsMode;
use fml_serve::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Registry counters read around each fit, by name: `(metric, counter)`.
/// `fml_kernel_flops_total` counts GEMM/GEMV/GER entries only, so
/// `linalg.flops` and `linalg.counted_gflops` are lower bounds.
const KERNEL_COUNTERS: [(&str, &str); 7] = [
    ("linalg.flops", "fml_kernel_flops_total"),
    ("linalg.gemm_calls", "fml_gemm_calls_total"),
    ("linalg.gemv_calls", "fml_gemv_calls_total"),
    ("linalg.ger_calls", "fml_ger_calls_total"),
    (
        "linalg.onehot_calls",
        "fml_sparse_onehot_kernel_calls_total",
    ),
    ("linalg.csr_calls", "fml_sparse_csr_kernel_calls_total"),
    ("linalg.detect_calls", "fml_sparse_detect_calls_total"),
];

/// Temporary relation the store probes materialize into.
const PROBE_TABLE: &str = "__T_benchmark_probe";

/// Repetitions of each store probe and of the traced/untraced factorized
/// fit pair; the reported time is their median.
const PROBE_REPS: usize = 3;

fn counter(name: &'static str) -> u64 {
    fml_obs::counter_handle(name).get()
}

/// Static span names per strategy (`fml_obs` spans take `&'static str`).
fn span_names(algorithm: Algorithm) -> (&'static str, &'static str) {
    match algorithm {
        Algorithm::Materialized => ("bench.fit.m", "bench.score.m"),
        Algorithm::Streaming => ("bench.fit.s", "bench.score.s"),
        Algorithm::Factorized => ("bench.fit.f", "bench.score.f"),
    }
}

/// The per-layer values gathered so far, keyed by metric name.
#[derive(Default)]
struct Layers(BTreeMap<String, Value>);

impl Layers {
    fn real(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), Value::Real(value));
    }

    fn count(&mut self, name: impl Into<String>, value: u64) {
        self.0.insert(name.into(), Value::Count(value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| v.as_f64())
    }

    /// Every metric of the per-layer table, in table order; a name the run
    /// did not produce, or produced beside the table, is a bug in this file.
    fn into_measured(mut self) -> Result<Vec<Measured>, String> {
        let mut out = Vec::new();
        for (name, layer) in per_layer_names() {
            let value = self
                .0
                .remove(&name)
                .ok_or_else(|| format!("traced run produced no {name}"))?;
            out.push(Measured {
                name,
                unit: layer.unit,
                better: layer.better,
                value,
                samples: None,
            });
        }
        match self.0.keys().next() {
            Some(extra) => Err(format!("traced run produced {extra}, which is in no table")),
            None => Ok(out),
        }
    }
}

/// What one traced fit of strategy `x` yielded.
struct TracedFit {
    elapsed_s: f64,
    /// Pages of I/O of a steady iteration, from the `FitEvent` stream.
    iteration_pages: u64,
    iter_s: f64,
    pages: u64,
}

/// One pass over a store scan source: median seconds and the pages it read.
struct Pass {
    seconds: f64,
    pages: u64,
}

/// Times `pass` [`PROBE_REPS`] times under the span `name`.
fn probe(
    workload: &Workload,
    name: &'static str,
    reps: usize,
    mut pass: impl FnMut() -> StoreResult<u64>,
) -> Result<Pass, String> {
    let mut seconds = Vec::new();
    let mut pages = 0;
    for _ in 0..reps {
        let before = workload.db.stats().snapshot();
        let begin = Instant::now();
        {
            let _span = fml_obs::span(name);
            black_box(pass().map_err(err)?);
        }
        seconds.push(begin.elapsed().as_secs_f64());
        pages = workload
            .db
            .stats()
            .snapshot()
            .delta_since(&before)
            .pages_read;
    }
    Ok(Pass {
        seconds: median(&seconds),
        pages,
    })
}

/// The store probes: each scan source the three strategies train from, read
/// once end to end through the public scan API, with no model math.
fn store_probes(
    workload: &Workload,
    block_pages: usize,
    reps: usize,
    layers: &mut Layers,
) -> Result<[Pass; 3], String> {
    let db = &workload.db;
    let spec = &workload.spec;
    let binary = spec.num_dimensions() == 1;

    let s_pages = spec.fact_relation(db).map_err(err)?.lock().num_pages() as u64;
    let r_pages: u64 = spec
        .dimension_relations(db)
        .map_err(err)?
        .iter()
        .map(|r| r.lock().num_pages() as u64)
        .sum();
    layers.count("store.s_pages", s_pages);
    layers.count("store.r_pages", r_pages);

    // M: materialize the join (timed), then scan T; the table is dropped again.
    let mut t_pages = 0;
    let materialize = probe(workload, "probe.store.materialize", reps, || {
        if db.contains(PROBE_TABLE) {
            db.drop_relation(PROBE_TABLE)?;
        }
        let table = materialize_join(db, spec, PROBE_TABLE, block_pages)?;
        t_pages = table.lock().num_pages() as u64;
        Ok(t_pages)
    })?;
    layers.real("store.materialize_s", materialize.seconds);
    layers.count("store.t_pages", t_pages);
    let table = db.relation(PROBE_TABLE).map_err(err)?;
    let pass_t = probe(workload, "probe.store.pass_t", reps, || {
        let mut tuples = 0u64;
        for batch in BatchScan::new(table.clone(), block_pages) {
            tuples += black_box(batch?).len() as u64;
        }
        Ok(tuples)
    })?;
    drop(table);
    db.drop_relation(PROBE_TABLE).map_err(err)?;

    // F: the join groups only (binary), or fact blocks with every foreign
    // key resolved against the dimension cache (star).
    let pass_join = probe(workload, "probe.store.pass_join", reps, || {
        let mut tuples = 0u64;
        if binary {
            for block in GroupScan::from_spec(db, spec, block_pages)? {
                for group in black_box(block?) {
                    tuples += group.len() as u64;
                }
            }
        } else {
            let scan = StarScan::new(db, spec, block_pages)?;
            for block in scan.blocks() {
                for fact in block? {
                    tuples += black_box(scan.cache().resolve(&fact)?).len() as u64;
                }
            }
        }
        Ok(tuples)
    })?;

    // S: the same pass, plus one denormalized tuple per fact row.
    let pass_denorm = probe(workload, "probe.store.pass_denorm", reps, || {
        let mut fields = 0u64;
        if binary {
            for block in GroupScan::from_spec(db, spec, block_pages)? {
                for group in block? {
                    for joined in black_box(group.denormalize()) {
                        fields += joined.features.len() as u64;
                    }
                }
            }
        } else {
            let scan = StarScan::new(db, spec, block_pages)?;
            for block in scan.blocks() {
                for fact in block? {
                    fields += black_box(scan.denormalize(&fact)?).features.len() as u64;
                }
            }
        }
        Ok(fields)
    })?;

    layers.real("store.pass_t_s", pass_t.seconds);
    layers.real("store.pass_join_s", pass_join.seconds);
    layers.real("store.pass_denorm_s", pass_denorm.seconds);
    Ok([pass_t, pass_denorm, pass_join])
}

/// Sum of the `fit_iteration` spans recorded inside the latest span `outer`.
fn iteration_spans_inside(outer: &str) -> Option<(f64, f64)> {
    let spans = fml_obs::snapshot_spans();
    let window = spans.iter().rev().find(|s| s.name == outer)?;
    let end = window.start_ns + window.dur_ns;
    let inside: u64 = spans
        .iter()
        .filter(|s| s.name == "fit_iteration" && s.tid == window.tid)
        .filter(|s| s.start_ns >= window.start_ns && s.start_ns + s.dur_ns <= end)
        .map(|s| s.dur_ns)
        .sum();
    Some((window.dur_ns as f64 * 1e-9, inside as f64 * 1e-9))
}

/// Runs the traced benchmark on one workload and returns every per-layer
/// metric, in the order of [`crate::metrics::PER_LAYER`].
pub fn traced<Fam: Family>(args: &Args, cfg: &RunConfig, ops: &mut Ops) -> Result<Report, String> {
    let reps = if cfg.smoke { 1 } else { PROBE_REPS };
    let mut layers = Layers::default();
    // The benchmark's own spans record for the whole run; fits and scores
    // that must run untraced say so through their `ExecPolicy`.
    fml_obs::set_mode(ObsMode::Trace);

    // Set-up: generate, then one untimed warm-up fit and score per strategy.
    let setup_span = fml_obs::span("bench.setup");
    let begin = Instant::now();
    let workload = args.workload.generate(cfg.seed, cfg.smoke).map_err(err)?;
    layers.real("data.generate_s", begin.elapsed().as_secs_f64());
    let n_fact = workload.n_fact().map_err(err)?;
    let dim_rows = (0..workload.spec.num_dimensions())
        .map(|i| workload.n_dim(i))
        .sum::<StoreResult<u64>>()
        .map_err(err)?;
    layers.count("data.fact_rows", n_fact);
    layers.count("data.dim_rows", dim_rows);
    layers.real("data.tuple_ratio", workload.tuple_ratio().map_err(err)?);

    let warm = open_session(
        &workload,
        ExecPolicy::new().seed(cfg.seed).obs(ObsMode::Off),
    );
    ops.attempt();
    let model_f = Fam::fit(&warm, Algorithm::Factorized).map_err(err)?;
    ops.attempt();
    let trained_m = Fam::fit(&warm, Algorithm::Materialized).map_err(err)?;
    ops.attempt();
    let scores_m = warm
        .score_with(&model_f, &Scoring::new().algorithm(Algorithm::Materialized))
        .map_err(err)?;
    let reference = Reference::new::<Fam>(&trained_m, scores_m);
    drop(trained_m);
    reference.check_fit::<Fam>(ops, &model_f);
    ops.attempt();
    let trained_s = Fam::fit(&warm, Algorithm::Streaming).map_err(err)?;
    reference.check_fit::<Fam>(ops, &trained_s);
    drop(trained_s);
    for algorithm in [Algorithm::Streaming, Algorithm::Factorized] {
        ops.attempt();
        let scores = warm
            .score_with(&model_f, &Scoring::new().algorithm(algorithm))
            .map_err(err)?;
        reference.check_scores::<Fam>(ops, algorithm.label(), n_fact, scores);
    }
    drop(setup_span);

    // The factorized fit untraced and traced, alternating: their ratio is
    // what the always-on telemetry gate plus the recording costs.
    let tracing = open_session(
        &workload,
        ExecPolicy::new().seed(cfg.seed).obs(ObsMode::Trace),
    );
    let mut fit_f_s = [Vec::new(), Vec::new()];
    for _ in 0..reps {
        for (samples, session) in fit_f_s.iter_mut().zip([&warm, &tracing]) {
            ops.attempt();
            let begin = Instant::now();
            let trained = Fam::fit(session, Algorithm::Factorized).map_err(err)?;
            samples.push(begin.elapsed().as_secs_f64());
            reference.check_fit::<Fam>(ops, &trained);
        }
    }
    layers.real(
        "obs.trace_overhead.f",
        median(&fit_f_s[1]) / median(&fit_f_s[0]),
    );

    // One traced fit and score per strategy.
    let mut fits = Vec::new();
    let mut score_f_s = f64::NAN;
    for algorithm in Algorithm::all() {
        let x = suffix(algorithm);
        let (fit_span, score_span) = span_names(algorithm);
        let observer = TraceObserver::new();
        let session = open_session(
            &workload,
            ExecPolicy::new()
                .seed(cfg.seed)
                .obs(ObsMode::Trace)
                .observe(observer.clone()),
        );
        let before: Vec<u64> = KERNEL_COUNTERS.iter().map(|(_, c)| counter(c)).collect();
        ops.attempt();
        let begin = Instant::now();
        let trained = {
            let _span = fml_obs::span(fit_span);
            Fam::fit(&session, algorithm).map_err(err)?
        };
        let elapsed_s = begin.elapsed().as_secs_f64();
        reference.check_fit::<Fam>(ops, &trained);
        for ((metric, registry), before) in KERNEL_COUNTERS.iter().zip(before) {
            layers.count(format!("{metric}.{x}"), counter(registry) - before);
        }

        let io: IoSnapshot = trained.io;
        layers.count(format!("store.pages_read.{x}"), io.pages_read);
        layers.count(format!("store.tuples_read.{x}"), io.tuples_read);
        layers.count(format!("store.fields_read.{x}"), io.fields_read);
        if algorithm == Algorithm::Materialized {
            layers.count("store.pages_written.m", io.pages_written);
        }
        if algorithm == Algorithm::Factorized {
            layers.count("store.index_probes.f", io.index_probes);
        }

        // Iteration times from the event stream: `elapsed` is cumulative
        // since the training loop started, so what precedes it is init.
        let events = observer.events();
        ops.check(events.len() == ITERATIONS, || {
            format!(
                "{x}: {} fit events for {ITERATIONS} iterations",
                events.len()
            )
        });
        let ends: Vec<f64> = events.iter().map(|e| e.elapsed.as_secs_f64()).collect();
        let Some(&trained_s) = ends.last() else {
            return Err(format!("{x}: the fit emitted no events"));
        };
        let durations: Vec<f64> = ends
            .iter()
            .enumerate()
            .map(|(i, end)| end - if i == 0 { 0.0 } else { ends[i - 1] })
            .collect();
        let steady = if durations.len() > 1 {
            &durations[1..]
        } else {
            &durations[..]
        };
        let iter_s = median(steady);
        layers.real(format!("train.init_s.{x}"), elapsed_s - trained_s);
        layers.real(format!("train.iter_s.{x}"), iter_s);
        layers.real(
            format!("train.first_iter_extra_s.{x}"),
            durations[0] - iter_s,
        );
        if algorithm != Algorithm::Materialized {
            layers.real(
                format!("train.objective_rel_diff.{x}"),
                rel_diff(Fam::objective(&trained), reference.objective()),
            );
        }
        if algorithm == Algorithm::Factorized {
            // The program's `fit_iteration` spans, nested in `bench.fit.f`,
            // must tell the same story as the event stream.
            let (outer, inside) = iteration_spans_inside(fit_span)
                .ok_or_else(|| format!("no {fit_span} span was recorded"))?;
            layers.real(
                "obs.span_vs_events_rel_diff.f",
                rel_diff(outer, (elapsed_s - trained_s) + inside),
            );
        }
        fits.push(TracedFit {
            elapsed_s,
            iteration_pages: events.last().map_or(0, |e| e.pages_io),
            iter_s,
            pages: io.total_page_io(),
        });

        let batches_before = counter("fml_score_batches_total");
        ops.attempt();
        let begin = Instant::now();
        let scores = {
            let _span = fml_obs::span(score_span);
            session
                .score_with(&model_f, &Scoring::new().algorithm(algorithm))
                .map_err(err)?
        };
        let score_s = begin.elapsed().as_secs_f64();
        match algorithm {
            Algorithm::Materialized => {
                layers.count("serve.score_fields_read.m", scores.io.fields_read);
            }
            Algorithm::Streaming => {}
            Algorithm::Factorized => {
                score_f_s = score_s;
                layers.count("serve.score_fields_read.f", scores.io.fields_read);
                layers.count(
                    "serve.score_batches.f",
                    counter("fml_score_batches_total") - batches_before,
                );
            }
        }
        reference.check_scores::<Fam>(ops, algorithm.label(), n_fact, scores);
    }
    layers.count("train.iterations", ITERATIONS as u64);
    layers.count("linalg.simd_level", simd_level().max(0) as u64);
    layers.real("core.speedup_f_vs_m", fits[0].elapsed_s / fits[2].elapsed_s);
    layers.real("core.speedup_f_vs_s", fits[1].elapsed_s / fits[2].elapsed_s);

    // Store probes, then compute = iteration − (passes × store pass).
    let block_pages = warm.exec_settings().block_pages;
    let passes = store_probes(&workload, block_pages, reps, &mut layers)?;
    for ((algorithm, fit), pass) in Algorithm::all().into_iter().zip(&fits).zip(&passes) {
        let x = suffix(algorithm);
        let passes_per_iteration = fit.iteration_pages as f64 / pass.pages.max(1) as f64;
        let compute_s = fit.iter_s - passes_per_iteration * pass.seconds;
        layers.real(format!("train.compute_s.{x}"), compute_s);
        let flops = layers.get(&format!("linalg.flops.{x}"));
        let gflops = if compute_s > 0.0 {
            flops / (ITERATIONS as f64 * compute_s) * 1e-9
        } else {
            0.0
        };
        layers.real(format!("linalg.counted_gflops.{x}"), gflops);
    }

    // Section V-A page-I/O prediction against the observed fit I/O.
    let (s_pages, r_pages, t_pages) = (
        layers.get("store.s_pages") as u64,
        layers.get("store.r_pages") as u64,
        layers.get("store.t_pages") as u64,
    );
    let join_pass_reads = if workload.spec.num_dimensions() == 1 {
        GmmIoCostModel {
            s_pages,
            r_pages,
            t_pages,
            block_pages: block_pages as u64,
            iterations: ITERATIONS as u64,
        }
        .join_pass_reads()
    } else {
        // Star joins cache the dimension tables and scan S once per pass.
        r_pages + s_pages
    };
    let total_passes = ITERATIONS as u64 * Fam::PASSES_PER_ITERATION;
    let predictions = [
        (
            "m",
            join_pass_reads + t_pages + total_passes * t_pages,
            fits[0].pages,
        ),
        ("s", total_passes * join_pass_reads, fits[1].pages),
    ];
    for (x, predicted, observed) in predictions {
        layers.count(format!("core.io_model_pred.{x}"), predicted);
        layers.real(
            format!("core.io_model_err.{x}"),
            (predicted as f64 - observed as f64).abs() / observed as f64,
        );
    }

    // Pool: the factorized fit and score again under the parallel policy.
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    let parallel = open_session(
        &workload,
        ExecPolicy::new()
            .seed(cfg.seed)
            .obs(ObsMode::Trace)
            .kernel_policy(KernelPolicy::BlockedParallel)
            .threads(workers),
    );
    let dispatch_ns = fml_obs::histogram_handle("fml_pool_dispatch_ns");
    let pool_before = (
        dispatch_ns.count(),
        counter("fml_pool_inline_steals_total"),
        counter("fml_pool_worker_tasks_total"),
    );
    ops.attempt();
    let begin = Instant::now();
    let trained = {
        let _span = fml_obs::span("bench.fit.f.parallel");
        Fam::fit(&parallel, Algorithm::Factorized).map_err(err)?
    };
    layers.real(
        "pool.fit_f_par_ratio",
        begin.elapsed().as_secs_f64() / fits[2].elapsed_s,
    );
    reference.check_fit::<Fam>(ops, &trained);
    ops.attempt();
    let begin = Instant::now();
    let scores = {
        let _span = fml_obs::span("bench.score.f.parallel");
        parallel
            .score_with(&model_f, &Scoring::new())
            .map_err(err)?
    };
    layers.real(
        "pool.score_f_par_ratio",
        begin.elapsed().as_secs_f64() / score_f_s,
    );
    reference.check_scores::<Fam>(ops, "parallel F", n_fact, scores);
    layers.count("pool.dispatches.f", dispatch_ns.count() - pool_before.0);
    layers.count("pool.dispatch_p50_ns", dispatch_ns.p50().unwrap_or(0));
    layers.count(
        "pool.inline_steals",
        counter("fml_pool_inline_steals_total") - pool_before.1,
    );
    layers.count(
        "pool.worker_tasks",
        counter("fml_pool_worker_tasks_total") - pool_before.2,
    );

    // Persistence: save, load, and score the reloaded model.
    let persisted = {
        let _span = fml_obs::span("probe.serve.persist");
        persist_round_trip::<Fam>(ops, &warm, &model_f, &reference, n_fact)?
    };
    layers.real("serve.persist_save_s", persisted.save_s);
    layers.real("serve.persist_load_s", persisted.load_s);
    layers.count("serve.model_bytes", persisted.bytes);

    layers.count("obs.dropped_spans", fml_obs::dropped_spans());
    fml_obs::set_mode(ObsMode::Off);
    Ok(Report {
        measured: layers.into_measured()?,
        sizes: sizes(&workload)?,
    })
}
