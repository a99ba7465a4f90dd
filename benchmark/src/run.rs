//! The untraced run: set-up, a discarded warm-up round, then timed rounds of
//! fit and score under M, S and F, with every output checked.
//!
//! One process, one driving thread, the configuration a user gets by default
//! (`ExecPolicy::new().seed(n)`: blocked sequential kernels, sparse `auto`,
//! SIMD `auto`, 64-page blocks, in-memory database).  Strategies alternate
//! M, S, F, M, S, F … so machine drift spreads evenly over them.

use crate::family::{suffix, Family};
use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{rel_diff, Better, Summary};
use crate::workloads::WorkloadSpec;
use fml_core::fml_data::Workload;
use fml_core::fml_store::StoreError;
use fml_core::prelude::*;
use fml_serve::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Timed rounds a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;

/// S and F objectives must agree with M's to this relative tolerance
/// (sizing runs agree to 1e-9).
const OBJECTIVE_TOLERANCE: f64 = 1e-6;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Tiny sizes, one set-up, one round: exercises every path, measures nothing.
    pub smoke: bool,
    /// Process entry, the origin of the first set-up sample.
    pub started: Instant,
}

/// Operations attempted and failed.  Every fit, score, save and load call is
/// one operation; a failed output check counts as a failed operation.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one call into the program under test.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Records an output check; `what` names it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// A measured value: a count (exact) or a real measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Count(u64),
    Real(f64),
}

impl Value {
    /// The value as a float.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Count(n) => n as f64,
            Value::Real(x) => x,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub value: Value,
    /// The samples behind a median, when the value is one.
    pub samples: Option<Summary>,
}

/// What a run reports: its metrics and the shape of the generated workload.
#[derive(Debug)]
pub struct Report {
    pub measured: Vec<Measured>,
    pub sizes: Json,
}

/// A store error as the message the run reports.
pub fn store_err(e: StoreError) -> String {
    e.to_string()
}

/// The generated workload's shape, for the stamp.
pub fn sizes(workload: &Workload) -> Result<Json, String> {
    let err = store_err;
    let count = |n: u64| Json::Int(n);
    let dims = workload.spec.num_dimensions();
    let dim_rows = (0..dims)
        .map(|i| workload.n_dim(i).map(count))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let widths = workload.feature_partition().map_err(err)?;
    Ok(Json::obj([
        ("generator", Json::str(workload.name.clone())),
        ("fact_rows", count(workload.n_fact().map_err(err)?)),
        ("dim_rows", Json::Arr(dim_rows)),
        (
            "feature_widths",
            Json::Arr(widths.into_iter().map(|d| count(d as u64)).collect()),
        ),
    ]))
}

/// The session every fit and score of a run goes through.
pub fn open_session(workload: &Workload, exec: ExecPolicy) -> Session<'_> {
    Session::new(&workload.db).join(&workload.spec).exec(exec)
}

/// M's outputs from the warm-up round: what every later output is held to.
pub struct Reference {
    objective: f64,
    /// `(fact key, row bits)` sorted by key.
    score_bits: Vec<(u64, [u64; 2])>,
}

impl Reference {
    /// Takes M's objective and scores as the reference.
    pub fn new<Fam: Family>(
        trained: &Trained<Fam::Fit>,
        scores: Scores<<Fam::Fit as Scorer>::Row>,
    ) -> Reference {
        Reference {
            objective: Fam::objective(trained),
            score_bits: scores
                .into_sorted_by_key()
                .iter()
                .map(|(key, row)| (*key, Fam::row_bits(row)))
                .collect(),
        }
    }

    /// Rows the reference scored.
    pub fn rows(&self) -> usize {
        self.score_bits.len()
    }

    /// The reference objective.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Checks a fit's objective against M's.
    pub fn check_fit<Fam: Family>(&self, ops: &mut Ops, trained: &Trained<Fam::Fit>) {
        let objective = Fam::objective(trained);
        let diff = rel_diff(objective, self.objective);
        ops.check(objective.is_finite() && diff <= OBJECTIVE_TOLERANCE, || {
            format!(
                "{} objective {objective:e} differs from M's {:e} by {diff:e} relative",
                trained.algorithm.label(),
                self.objective
            )
        });
    }

    /// Checks that `scores` cover exactly the fact rows and equal M's bit for bit.
    pub fn check_scores<Fam: Family>(
        &self,
        ops: &mut Ops,
        what: &str,
        n_fact: u64,
        scores: Scores<<Fam::Fit as Scorer>::Row>,
    ) {
        let rows = scores.len();
        ops.check(rows as u64 == n_fact, || {
            format!("{what} scored {rows} rows, the fact table has {n_fact}")
        });
        let sorted = scores.into_sorted_by_key();
        let mismatch = sorted.len() != self.score_bits.len()
            || sorted
                .iter()
                .zip(&self.score_bits)
                .any(|((key, row), (ref_key, ref_bits))| {
                    key != ref_key || Fam::row_bits(row) != *ref_bits
                });
        ops.check(!mismatch, || {
            format!("{what} scores are not bit-identical to M's")
        });
    }
}

/// Where the save → load check writes its model file: beside the executable,
/// which is inside the build directory of the checkout.
fn model_path() -> Result<PathBuf, String> {
    // Unique per call: the tests run several workloads in one process.
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    Ok(dir.join(format!(
        "benchmark-model-{}-{}.fml",
        std::process::id(),
        SEQUENCE.fetch_add(1, Ordering::Relaxed)
    )))
}

/// What the save → load round trip cost.
pub struct Persisted {
    pub save_s: f64,
    pub load_s: f64,
    pub bytes: u64,
}

/// `save` → `load` → factorized score: the reloaded model must score bit for
/// bit like the in-memory one.  The file is removed again.
pub fn persist_round_trip<Fam: Family>(
    ops: &mut Ops,
    session: &Session<'_>,
    model: &Trained<Fam::Fit>,
    reference: &Reference,
    n_fact: u64,
) -> Result<Persisted, String> {
    let path = model_path()?;
    ops.attempt();
    let begin = Instant::now();
    let saved = Fam::save(model, &path).map_err(|e| e.to_string());
    let save_s = begin.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    ops.attempt();
    let begin = Instant::now();
    let loaded = saved.and_then(|()| Fam::load(&path).map_err(|e| e.to_string()));
    let load_s = begin.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    ops.attempt();
    let scores = session
        .score_with(&loaded?, &Scoring::new())
        .map_err(store_err)?;
    reference.check_scores::<Fam>(ops, "the saved and reloaded model's F", n_fact, scores);
    Ok(Persisted {
        save_s,
        load_s,
        bytes,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// An end-to-end metric, with its unit from [`END_TO_END`].
fn gated(name: String, value: Value, samples: Option<Summary>) -> Measured {
    let metric = END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the end-to-end table"));
    Measured {
        name,
        unit: metric.unit,
        better: metric.better,
        value,
        samples,
    }
}

/// Samples of one strategy per round: F is sampled `f_reps` times.
fn reps_per_round(spec: &WorkloadSpec, algorithm: Algorithm) -> usize {
    if algorithm == Algorithm::Factorized {
        spec.f_reps
    } else {
        1
    }
}

/// Page I/O of every fit of one strategy: the samples must all agree.
fn exact_pages(ops: &mut Ops, algorithm: Algorithm, pages: &[u64]) -> u64 {
    let first = pages[0];
    ops.check(pages.iter().all(|p| *p == first), || {
        format!(
            "{} fit page I/O differs between samples: {pages:?}",
            algorithm.label()
        )
    });
    first
}

/// Runs the untraced benchmark on one workload and returns the end-to-end
/// metrics, in the order of [`crate::metrics::END_TO_END`].
pub fn end_to_end<Fam: Family>(
    spec: &WorkloadSpec,
    cfg: &RunConfig,
    ops: &mut Ops,
) -> Result<Report, String> {
    let err = store_err;
    let exec = ExecPolicy::new().seed(cfg.seed);

    // Set-up: generator → paged store → first factorized fit and score on the
    // cold store.  Repeated on a fresh database each time; the last one stays.
    let mut setup_s = Vec::new();
    let mut state: Option<(Workload, Trained<Fam::Fit>)> = None;
    for rep in 0..if cfg.smoke { 1 } else { SETUP_REPS } {
        drop(state.take());
        let begin = if rep == 0 {
            cfg.started
        } else {
            Instant::now()
        };
        let workload = spec.generate(cfg.seed, cfg.smoke).map_err(err)?;
        let model = {
            let session = open_session(&workload, exec.clone());
            ops.attempt();
            let model = Fam::fit(&session, Algorithm::Factorized).map_err(err)?;
            ops.attempt();
            session.score_with(&model, &Scoring::new()).map_err(err)?;
            model
        };
        setup_s.push(begin.elapsed().as_secs_f64());
        state = Some((workload, model));
    }
    let (workload, model_f) = state.expect("at least one set-up ran");
    let session = open_session(&workload, exec);
    let n_fact = workload.n_fact().map_err(err)?;

    let fit = |ops: &mut Ops, algorithm| {
        ops.attempt();
        let begin = Instant::now();
        let trained = Fam::fit(&session, algorithm).map_err(err)?;
        Ok::<_, String>((begin.elapsed().as_secs_f64(), trained))
    };
    let score = |ops: &mut Ops, algorithm| {
        ops.attempt();
        let begin = Instant::now();
        let scores = session
            .score_with(&model_f, &Scoring::new().algorithm(algorithm))
            .map_err(err)?;
        Ok::<_, String>((begin.elapsed().as_secs_f64(), scores))
    };

    // Warm-up round, untimed: M and S touch their pages for the first time
    // here, and M's outputs become the reference.
    let (_, trained_m) = fit(ops, Algorithm::Materialized)?;
    let (_, scores_m) = score(ops, Algorithm::Materialized)?;
    let reference = Reference::new::<Fam>(&trained_m, scores_m);
    ops.check(reference.rows() as u64 == n_fact, || {
        format!(
            "M scored {} rows, the fact table has {n_fact}",
            reference.rows()
        )
    });
    drop(trained_m);
    reference.check_fit::<Fam>(ops, &model_f);
    for algorithm in [Algorithm::Streaming, Algorithm::Factorized] {
        let (_, trained) = fit(ops, algorithm)?;
        reference.check_fit::<Fam>(ops, &trained);
        let (_, scores) = score(ops, algorithm)?;
        reference.check_scores::<Fam>(ops, algorithm.label(), n_fact, scores);
    }

    // Timed rounds.
    let mut fit_s: [Vec<f64>; 3] = Default::default();
    let mut fit_pages: [Vec<u64>; 3] = Default::default();
    let mut score_s: [Vec<f64>; 3] = Default::default();
    let window = Instant::now();
    let mut rounds = 0;
    while if cfg.smoke {
        rounds < 1
    } else {
        rounds < MIN_ROUNDS || window.elapsed().as_secs_f64() < cfg.seconds
    } {
        for (i, algorithm) in Algorithm::all().into_iter().enumerate() {
            let reps = reps_per_round(spec, algorithm);
            for _ in 0..reps {
                let (elapsed, trained) = fit(ops, algorithm)?;
                fit_s[i].push(elapsed);
                fit_pages[i].push(trained.io.total_page_io());
                reference.check_fit::<Fam>(ops, &trained);
            }
        }
        for (i, algorithm) in Algorithm::all().into_iter().enumerate() {
            let reps = reps_per_round(spec, algorithm);
            for _ in 0..reps {
                let (elapsed, scores) = score(ops, algorithm)?;
                score_s[i].push(elapsed);
                reference.check_scores::<Fam>(ops, algorithm.label(), n_fact, scores);
            }
        }
        rounds += 1;
    }

    persist_round_trip::<Fam>(ops, &session, &model_f, &reference, n_fact)?;

    let mut out = Vec::new();
    let mut pages = [0u64; 3];
    for (i, algorithm) in Algorithm::all().into_iter().enumerate() {
        let summary = Summary::of(&fit_s[i]);
        out.push(gated(
            format!("fit_{}_s", suffix(algorithm)),
            Value::Real(summary.median),
            Some(summary),
        ));
        pages[i] = exact_pages(ops, algorithm, &fit_pages[i]);
    }
    for (i, algorithm) in Algorithm::all().into_iter().enumerate() {
        let summary = Summary::of(&score_s[i]);
        out.push(gated(
            format!("score_{}_rows_per_s", suffix(algorithm)),
            Value::Real(n_fact as f64 / summary.median),
            // The samples are the seconds per pass the rate is computed from.
            Some(summary),
        ));
    }
    ops.check(pages[1] == pages[2], || {
        format!(
            "S and F read the same scan source but S fit I/O is {} pages and F's {}",
            pages[1], pages[2]
        )
    });
    for (i, algorithm) in Algorithm::all().into_iter().enumerate() {
        out.push(gated(
            format!("fit_{}_pages", suffix(algorithm)),
            Value::Count(pages[i]),
            None,
        ));
    }
    out.push(gated(
        "peak_rss_mb".into(),
        Value::Real(peak_rss_mib()?),
        None,
    ));
    let summary = Summary::of(&setup_s);
    out.push(gated(
        "setup_s".into(),
        Value::Real(summary.median),
        Some(summary),
    ));
    Ok(Report {
        measured: out,
        sizes: sizes(&workload)?,
    })
}
