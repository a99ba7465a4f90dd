//! `--check-repeat`: the same workload twice, in two fresh child processes,
//! and a verdict on whether the benchmark can tell a change from its own
//! noise — every end-to-end metric of the two runs must agree within the
//! metric's bound.

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{rel_diff, repeats_within};
use std::process::{Command, ExitCode, Stdio};

/// The end-to-end metric values in a run's result line (its last line).
pub fn metric_values(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let line = stdout
        .lines()
        .next_back()
        .ok_or("the run printed nothing")?;
    let doc = Json::parse(line).map_err(|e| format!("result line does not parse: {e}"))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err("the run reports correct = false".into());
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line has no metrics object".into());
    };
    metrics
        .iter()
        .map(|(name, entry)| {
            entry
                .get("value")
                .and_then(Json::as_f64)
                .map(|value| (name.clone(), value))
                .ok_or_else(|| format!("metric {name} has no numeric value"))
        })
        .collect()
}

/// One line of the verdict per metric; `Err` lines are the disagreements.
pub fn compare(
    table: &[EndToEnd],
    first: &[(String, f64)],
    second: &[(String, f64)],
) -> Vec<Result<String, String>> {
    let find =
        |run: &[(String, f64)], name: &str| run.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    table
        .iter()
        .map(|metric| {
            let (Some(a), Some(b)) = (find(first, metric.name), find(second, metric.name)) else {
                return Err(format!("{}: missing from a run", metric.name));
            };
            let line = format!(
                "{:<22} {:>16.6} {:>16.6} {:<7} differ {:>7.3}%  bound {:>6.2}%",
                metric.name,
                a,
                b,
                metric.unit,
                100.0 * rel_diff(a, b),
                100.0 * metric.bound
            );
            if repeats_within(metric.better, metric.bound, a, b) {
                Ok(line)
            } else {
                Err(line)
            }
        })
        .collect()
}

/// Runs the workload twice in child processes and compares the two results.
pub fn check_repeat(raw_args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("current_exe: {e}");
            return ExitCode::from(2);
        }
    };
    let child_args: Vec<&String> = raw_args.iter().filter(|a| *a != "--check-repeat").collect();
    let mut runs = Vec::new();
    for n in 1..=2 {
        eprintln!("check-repeat: run {n} of 2 …");
        // `output` waits for the child to end.
        let output = Command::new(&exe)
            .args(&child_args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let values = output
            .map_err(|e| format!("cannot start run {n}: {e}"))
            .and_then(|out| {
                let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
                if out.status.success() {
                    metric_values(&stdout)
                } else {
                    Err(format!("run {n} exited with {}:\n{stdout}", out.status))
                }
            });
        match values {
            Ok(values) => runs.push(values),
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{:<22} {:>16} {:>16} {:<7}",
        "metric", "run 1", "run 2", "unit"
    );
    let mut agreed = true;
    for line in compare(&END_TO_END, &runs[0], &runs[1]) {
        match line {
            Ok(line) => println!("{line}  ok"),
            Err(line) => {
                agreed = false;
                println!("{line}  DISAGREE");
            }
        }
    }
    if agreed {
        println!("check-repeat: the two runs agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("check-repeat: the two runs disagree; the benchmark cannot resolve a change of that size here");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Better;

    const TABLE: [EndToEnd; 2] = [
        EndToEnd {
            name: "fit_f_s",
            unit: "s",
            better: Better::Lower,
            bound: 0.10,
        },
        EndToEnd {
            name: "fit_f_pages",
            unit: "pages",
            better: Better::Lower,
            bound: 0.0,
        },
    ];

    fn run(fit: f64, pages: f64) -> Vec<(String, f64)> {
        vec![("fit_f_s".into(), fit), ("fit_f_pages".into(), pages)]
    }

    #[test]
    fn agreeing_runs_pass_and_disagreeing_runs_name_the_metric() {
        let verdict = compare(&TABLE, &run(1.00, 4096.0), &run(1.05, 4096.0));
        assert!(verdict.iter().all(Result::is_ok), "{verdict:?}");

        let verdict = compare(&TABLE, &run(1.00, 4096.0), &run(1.25, 4097.0));
        assert!(verdict[0].as_ref().is_err_and(|l| l.contains("fit_f_s")));
        assert!(verdict[1]
            .as_ref()
            .is_err_and(|l| l.contains("fit_f_pages")));
    }

    #[test]
    fn a_missing_metric_is_a_disagreement() {
        let verdict = compare(&TABLE, &run(1.0, 1.0), &[("fit_f_s".into(), 1.0)]);
        assert!(verdict[0].is_ok());
        assert!(verdict[1].is_err());
    }

    #[test]
    fn reads_the_result_line_and_refuses_an_incorrect_run() {
        let good = "stamp\ntable\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"fit_f_s\":{\"value\":0.5,\"unit\":\"s\"},\"fit_f_pages\":{\"value\":12,\"unit\":\"pages\"}}}";
        assert_eq!(metric_values(good).unwrap(), run(0.5, 12.0));
        let bad = good.replace("\"correct\":true", "\"correct\":false");
        assert!(metric_values(&bad).is_err());
        assert!(metric_values("").is_err());
        assert!(metric_values("not json").is_err());
    }
}
