//! `benchmark` — the repository's end-to-end benchmark: fit and score under
//! the materialized, streaming and factorized strategies on one generated
//! workload, with every output checked, plus a separate traced run that
//! attributes the time to layers.  See `README.md` beside `Cargo.toml` and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//!           [--smoke] [--check-repeat] [--trace-out <file>] [--layers-out <file>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod family;
mod json;
mod layers;
mod metrics;
mod repeat;
mod run;
#[cfg(test)]
mod smoke;
mod stamp;
mod stats;
mod workloads;

use family::{GmmFamily, NnFamily};
use json::Json;
use run::{Measured, Ops, Report, RunConfig, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{FamilyKind, WorkloadSpec, WORKLOADS};

/// Length of the timed window when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub check_repeat: bool,
    pub trace_out: Option<PathBuf>,
    pub layers_out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>] \
         [--smoke] [--check-repeat] [--trace-out <file>] [--layers-out <file>]",
        names.join("|")
    )
}

/// Parses the command line (without the program name).
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut check_repeat = false;
    let mut trace_out = None;
    let mut layers_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workloads::find(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                let text = value()?;
                seed = Some(
                    text.parse::<u64>()
                        .map_err(|_| format!("bad --seed {text:?}"))?,
                );
            }
            "--seconds" => {
                let text = value()?;
                seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {text:?} (0 < s <= 600)"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (0 or 1)")),
                };
            }
            "--smoke" => smoke = true,
            "--check-repeat" => check_repeat = true,
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--layers-out" => layers_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if check_repeat && trace {
        return Err(
            "--check-repeat compares end-to-end metrics; it does not go with --trace 1".into(),
        );
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{}", usage()))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{}", usage()))?,
        seconds,
        trace,
        smoke,
        check_repeat,
        trace_out,
        layers_out,
    })
}

/// The `FML_*` variables set in the environment.  Each one silently changes
/// what is measured (threads, kernel policy, SIMD level, telemetry, sizes);
/// the benchmark sets everything through the `ExecPolicy` builder instead.
fn fml_environment() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("FML_"))
        .collect();
    set.sort();
    set
}

/// Runs one workload in this process and returns its metrics.
fn measure(args: &Args, cfg: &RunConfig, ops: &mut Ops) -> Result<Report, String> {
    match (args.trace, args.workload.family) {
        (false, FamilyKind::Gmm) => run::end_to_end::<GmmFamily>(args.workload, cfg, ops),
        (false, FamilyKind::Nn) => run::end_to_end::<NnFamily>(args.workload, cfg, ops),
        (true, FamilyKind::Gmm) => layers::traced::<GmmFamily>(args, cfg, ops),
        (true, FamilyKind::Nn) => layers::traced::<NnFamily>(args, cfg, ops),
    }
}

/// The metrics as `{name: {"value": …, "unit": …}}`.
fn metrics_json(measured: &[Measured]) -> Json {
    Json::obj(measured.iter().map(|m| {
        let value = match m.value {
            Value::Count(n) => Json::Int(n),
            Value::Real(x) => Json::Num(x),
        };
        (
            m.name.clone(),
            Json::obj([("value", value), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(ops: &Ops, measured: &[Measured]) -> Json {
    Json::obj([
        ("correct", Json::Bool(ops.failed == 0)),
        ("attempted", Json::Int(ops.attempted)),
        ("failed", Json::Int(ops.failed)),
        ("metrics", metrics_json(measured)),
    ])
}

/// Prints every metric by name with its unit, and the samples behind medians.
fn print_table(measured: &[Measured]) {
    for m in measured {
        let value = match m.value {
            Value::Count(n) => n.to_string(),
            Value::Real(x) => format!("{x:.6}"),
        };
        let head = format!(
            "{:<34} {:>16} {:<8} {:<6} is better",
            m.name,
            value,
            m.unit,
            m.better.label()
        );
        match m.samples {
            Some(s) => println!(
                "{head}  samples: n={} min={:.6} median={:.6} max={:.6} s",
                s.n, s.min, s.median, s.max
            ),
            None => println!("{head}"),
        }
    }
}

/// Writes the files a traced run was asked for: the spans as Chrome
/// `trace_event` JSON (open in Perfetto) and the per-layer table with its stamp.
fn write_outputs(args: &Args, stamp: &Json, measured: &[Measured]) -> Result<(), String> {
    let write = |path: &PathBuf, text: String| {
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    if let Some(path) = &args.trace_out {
        write(path, fml_obs::chrome_trace_json())?;
    }
    if let Some(path) = &args.layers_out {
        let doc = Json::obj([("stamp", stamp.clone()), ("layers", metrics_json(measured))]);
        write(path, doc.render())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let set = fml_environment();
    if !set.is_empty() {
        eprintln!(
            "refusing to run: {} set in the environment; each FML_* variable silently changes \
             what is measured — unset them",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    if args.check_repeat {
        return repeat::check_repeat(&raw);
    }

    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        started,
    };
    let mut ops = Ops::default();
    let report = measure(&args, &cfg, &mut ops).unwrap_or_else(|message| {
        // A call into the program failed outright: that operation failed and
        // there are no metrics to report.
        ops.failed += 1;
        ops.failures.push(message);
        Report {
            measured: Vec::new(),
            sizes: Json::Null,
        }
    });
    let measured = &report.measured;

    let stamp = stamp::stamp(&args, report.sizes.clone());
    println!("{}", stamp.render());
    print_table(measured);
    if let Err(message) = write_outputs(&args, &stamp, measured) {
        eprintln!("{message}");
        return ExitCode::from(2);
    }
    println!("ops_attempted {} ops_failed {}", ops.attempted, ops.failed);
    for failure in &ops.failures {
        println!("FAILED: {failure}");
    }
    println!("{}", result_json(&ops, measured).render());
    if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "nn_mixed_star",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.name, "nn_mixed_star");
        assert_eq!(args.seed, 7);
        assert!((args.seconds - 12.0).abs() < 1e-12);
        assert!(args.trace && !args.smoke && !args.check_repeat);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "gmm_wide_binary"],
            &["--workload", "nope", "--seed", "1"],
            &["--workload", "gmm_wide_binary", "--seed", "x"],
            &[
                "--workload",
                "gmm_wide_binary",
                "--seed",
                "1",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "gmm_wide_binary",
                "--seed",
                "1",
                "--seconds",
                "0",
            ],
            &[
                "--workload",
                "gmm_wide_binary",
                "--seed",
                "1",
                "--frobnicate",
            ],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let mut ops = Ops::default();
        ops.attempt();
        let measured = vec![
            Measured {
                name: "fit_f_s".into(),
                unit: "s",
                better: stats::Better::Lower,
                value: Value::Real(0.25),
                samples: None,
            },
            Measured {
                name: "fit_f_pages".into(),
                unit: "pages",
                better: stats::Better::Lower,
                value: Value::Count(4096),
                samples: None,
            },
        ];
        let text = result_json(&ops, &measured).render();
        assert_eq!(
            text,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\
             \"fit_f_s\":{\"value\":0.25,\"unit\":\"s\"},\
             \"fit_f_pages\":{\"value\":4096,\"unit\":\"pages\"}}}"
        );
        ops.check(false, || "broken".into());
        let doc = Json::parse(&result_json(&ops, &measured).render()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed"), Some(&Json::Int(1)));
    }
}
