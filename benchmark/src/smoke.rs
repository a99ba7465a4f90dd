//! The benchmark's own test: every workload × strategy × check × probe at
//! smoke sizes, so the benchmark cannot rot unnoticed, and a deliberately
//! wrong model to show that the checks can fail.

use crate::family::{Family, GmmFamily, NnFamily};
use crate::metrics::{per_layer_names, END_TO_END};
use crate::run::{end_to_end, open_session, Measured, Ops, Reference, RunConfig};
use crate::workloads::{find, FamilyKind, WORKLOADS};
use crate::{layers, parse_args};
use fml_core::prelude::*;
use fml_serve::prelude::*;
use std::time::Instant;

fn smoke_config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        seconds: 1.0,
        smoke: true,
        started: Instant::now(),
    }
}

fn value(measured: &[Measured], name: &str) -> f64 {
    measured
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
        .as_f64()
}

/// One test, so the runs do not share the process-wide registry counters
/// with each other while they are being read.
#[test]
fn every_workload_runs_and_checks_out_on_both_seeds() {
    for spec in &WORKLOADS {
        // Seed 1 is the development seed, seed 2 is held out.
        for seed in [1, 2] {
            let cfg = smoke_config(seed);
            let mut ops = Ops::default();
            let report = match spec.family {
                FamilyKind::Gmm => end_to_end::<GmmFamily>(spec, &cfg, &mut ops),
                FamilyKind::Nn => end_to_end::<NnFamily>(spec, &cfg, &mut ops),
            }
            .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", spec.name));
            assert_eq!(
                ops.failed, 0,
                "{} seed {seed}: {:?}",
                spec.name, ops.failures
            );
            // set-up 2, warm-up round 6, one timed round, save + load + score
            let expected = 2 + 6 + 2 * (2 + spec.f_reps as u64) + 3;
            assert_eq!(ops.attempted, expected, "{}", spec.name);
            let names: Vec<&str> = report.measured.iter().map(|m| m.name.as_str()).collect();
            let table: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, table, "{}", spec.name);
            for m in &report.measured {
                let v = m.value.as_f64();
                assert!(v.is_finite() && v > 0.0, "{} {} = {v}", spec.name, m.name);
            }
        }

        let args = parse_args(&[
            "--workload".into(),
            spec.name.into(),
            "--seed".into(),
            "1".into(),
            "--trace".into(),
            "1".into(),
            "--smoke".into(),
        ])
        .unwrap();
        let cfg = smoke_config(1);
        let mut ops = Ops::default();
        let report = match spec.family {
            FamilyKind::Gmm => layers::traced::<GmmFamily>(&args, &cfg, &mut ops),
            FamilyKind::Nn => layers::traced::<NnFamily>(&args, &cfg, &mut ops),
        }
        .unwrap_or_else(|e| panic!("{} traced: {e}", spec.name));
        assert_eq!(ops.failed, 0, "{} traced: {:?}", spec.name, ops.failures);
        let layers = &report.measured;
        let names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        let table: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, table, "{}", spec.name);
        assert!(
            layers.iter().all(|m| m.value.as_f64().is_finite()),
            "{}",
            spec.name
        );

        assert!(value(layers, "obs.dropped_spans") < 0.5, "{}", spec.name);
        assert!(
            value(layers, "obs.span_vs_events_rel_diff.f") < 0.02,
            "{}",
            spec.name
        );
        assert!(
            value(layers, "train.objective_rel_diff.f") <= 1e-6,
            "{}",
            spec.name
        );
        // The sparse kernels stay silent on dense data and engage on theirs.
        let onehot = value(layers, "linalg.onehot_calls.f");
        let csr = value(layers, "linalg.csr_calls.f");
        match spec.name {
            "gmm_wide_binary" | "gmm_narrow_star" => {
                assert!(onehot < 0.5 && csr < 0.5, "{}: {onehot} {csr}", spec.name)
            }
            "nn_sparse_binary" => assert!(onehot > 0.5, "{}", spec.name),
            "nn_mixed_star" => assert!(onehot > 0.5 && csr > 0.5, "{}", spec.name),
            other => panic!("no sparse-path expectation for {other}"),
        }
        // M pays for its temp table; S and F read the same scan source.
        assert!(
            value(layers, "store.pages_written.m") > 0.5,
            "{}",
            spec.name
        );
        let (s, f) = (
            value(layers, "store.pages_read.s"),
            value(layers, "store.pages_read.f"),
        );
        assert!((s - f).abs() < 0.5, "{}: {s} vs {f}", spec.name);
    }
}

/// Comparing against a model trained with another seed must fail the
/// objective check and the bit-identity check.
#[test]
fn a_model_from_another_seed_fails_the_checks() {
    let spec = find("gmm_wide_binary").unwrap();
    let workload = spec.generate(1, true).unwrap();
    let fit = |seed| {
        let session = open_session(&workload, ExecPolicy::new().seed(seed));
        GmmFamily::fit(&session, Algorithm::Factorized).unwrap()
    };
    let (right, wrong) = (fit(1), fit(2));
    let session = open_session(&workload, ExecPolicy::new().seed(1));
    let score = |model| session.score_with(model, &Scoring::new()).unwrap();
    let n_fact = workload.n_fact().unwrap();
    let reference = Reference::new::<GmmFamily>(&right, score(&right));

    let mut ops = Ops::default();
    reference.check_fit::<GmmFamily>(&mut ops, &right);
    reference.check_scores::<GmmFamily>(&mut ops, "F", n_fact, score(&right));
    assert_eq!(ops.failed, 0, "{:?}", ops.failures);

    reference.check_fit::<GmmFamily>(&mut ops, &wrong);
    assert_eq!(ops.failed, 1, "the objective check must fail");
    reference.check_scores::<GmmFamily>(&mut ops, "F", n_fact, score(&wrong));
    assert_eq!(ops.failed, 2, "the bit-identity check must fail");
    reference.check_scores::<GmmFamily>(&mut ops, "F", n_fact + 1, score(&right));
    assert_eq!(ops.failed, 3, "the row-count check must fail");
    assert_eq!(ops.failures.len(), 3);
}
