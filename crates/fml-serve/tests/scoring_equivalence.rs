//! Scoring-equivalence suite: the factorized batch scorer must equal the
//! materialized-join scoring oracle **bit for bit** (`f64::to_bits`) for both
//! model families, across all three training strategies, every
//! [`KernelPolicy`], sparse and dense modes, and binary as well as star
//! joins.  The streaming strategy sits in between (same row arithmetic, no
//! materialization) and must agree bitwise too.

use fml_core::prelude::*;
use fml_core::Session;
use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::SyntheticConfig;
use fml_gmm::Precomputed;
use fml_serve::prelude::*;

fn dense_workload(with_target: bool) -> fml_data::Workload {
    SyntheticConfig {
        n_s: 240,
        n_r: 12,
        d_s: 3,
        d_r: 5,
        k: 2,
        noise_std: 0.7,
        with_target,
        seed: 11,
    }
    .generate()
    .unwrap()
}

/// A star join mixing every block flavor: dense fact block, a categorical
/// (one-hot) dimension, a near-sparse numeric (CSR) dimension and a dense
/// dimension — so the sparse dispatch is exercised per representation.
fn mixed_star_workload(with_target: bool) -> fml_data::Workload {
    MultiwayConfig {
        n_s: 200,
        d_s: 2,
        dims: vec![
            DimSpec::categorical(10, 8),
            DimSpec::sparse_numeric(6, 12, 2),
            DimSpec::new(5, 3),
        ],
        k: 2,
        noise_std: 0.6,
        with_target,
        seed: 23,
    }
    .generate()
    .unwrap()
}

/// A binary join whose dimension block is categorical (one-hot).
fn categorical_binary_workload(with_target: bool) -> fml_data::Workload {
    MultiwayConfig {
        n_s: 220,
        d_s: 2,
        dims: vec![DimSpec::categorical(12, 10)],
        k: 2,
        noise_std: 0.6,
        with_target,
        seed: 31,
    }
    .generate()
    .unwrap()
}

/// Both driver policies: the scorer fans its fact blocks out under the
/// second, runs them inline under the first.
const POLICIES: [KernelPolicy; 2] = [KernelPolicy::Blocked, KernelPolicy::BlockedParallel];

fn exec(kp: KernelPolicy, sparse: SparseMode) -> ExecPolicy {
    ExecPolicy::new()
        .kernel_policy(kp)
        .sparse_mode(sparse)
        .seed(7)
}

fn gmm_bits(s: &Scores<GmmScore>) -> Vec<(u64, usize, u64)> {
    s.clone()
        .into_sorted_by_key()
        .into_iter()
        .map(|(k, r)| (k, r.cluster, r.log_likelihood.to_bits()))
        .collect()
}

fn nn_bits(s: &Scores<f64>) -> Vec<(u64, u64)> {
    s.clone()
        .into_sorted_by_key()
        .into_iter()
        .map(|(k, r)| (k, r.to_bits()))
        .collect()
}

/// Factorized == materialized == streaming, bit for bit, for a GMM over one
/// workload under one policy/mode pair.
fn assert_gmm_equivalence(w: &fml_data::Workload, kp: KernelPolicy, sparse: SparseMode) {
    let session = Session::new(&w.db).join(&w.spec).exec(exec(kp, sparse));
    let trained = session.fit(Gmm::with_k(2).iterations(2)).unwrap();
    let n = w.n_fact().unwrap() as usize;
    let f = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Factorized))
        .unwrap();
    let m = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Materialized))
        .unwrap();
    let s = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Streaming))
        .unwrap();
    assert_eq!(f.len(), n, "{kp:?}/{sparse:?}: every fact row is scored");
    assert_eq!(
        gmm_bits(&f),
        gmm_bits(&m),
        "{kp:?}/{sparse:?}: factorized must equal the materialized oracle bit for bit"
    );
    assert_eq!(
        gmm_bits(&f),
        gmm_bits(&s),
        "{kp:?}/{sparse:?}: factorized must equal streaming bit for bit"
    );
    assert!(f.rows.iter().all(|r| r.log_likelihood.is_finite()));
    assert!(f.rows.iter().all(|r| r.cluster < 2));
}

fn assert_nn_equivalence(w: &fml_data::Workload, kp: KernelPolicy, sparse: SparseMode) {
    let session = Session::new(&w.db).join(&w.spec).exec(exec(kp, sparse));
    let trained = session.fit(Nn::with_hidden(6).epochs(2)).unwrap();
    let n = w.n_fact().unwrap() as usize;
    let f = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Factorized))
        .unwrap();
    let m = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Materialized))
        .unwrap();
    let s = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Streaming))
        .unwrap();
    assert_eq!(f.len(), n, "{kp:?}/{sparse:?}: every fact row is scored");
    assert_eq!(
        nn_bits(&f),
        nn_bits(&m),
        "{kp:?}/{sparse:?}: factorized must equal the materialized oracle bit for bit"
    );
    assert_eq!(
        nn_bits(&f),
        nn_bits(&s),
        "{kp:?}/{sparse:?}: factorized must equal streaming bit for bit"
    );
    assert!(f.rows.iter().all(|o| o.is_finite()));
}

#[test]
fn gmm_binary_dense_every_policy_and_mode() {
    let w = dense_workload(false);
    for kp in POLICIES {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            assert_gmm_equivalence(&w, kp, sparse);
        }
    }
}

#[test]
fn gmm_binary_categorical_every_policy_and_mode() {
    let w = categorical_binary_workload(false);
    for kp in POLICIES {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            assert_gmm_equivalence(&w, kp, sparse);
        }
    }
}

#[test]
fn gmm_star_mixed_blocks_every_policy_and_mode() {
    let w = mixed_star_workload(false);
    for kp in POLICIES {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            assert_gmm_equivalence(&w, kp, sparse);
        }
    }
}

#[test]
fn nn_binary_dense_every_policy_and_mode() {
    let w = dense_workload(true);
    for kp in POLICIES {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            assert_nn_equivalence(&w, kp, sparse);
        }
    }
}

#[test]
fn nn_binary_categorical_every_policy_and_mode() {
    let w = categorical_binary_workload(true);
    for kp in POLICIES {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            assert_nn_equivalence(&w, kp, sparse);
        }
    }
}

#[test]
fn nn_star_mixed_blocks_every_policy_and_mode() {
    let w = mixed_star_workload(true);
    for kp in POLICIES {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            assert_nn_equivalence(&w, kp, sparse);
        }
    }
}

/// Models trained with *each* of the three training strategies score
/// identically through the factorized and oracle paths — the scorer is
/// agnostic to how the fit was produced.
#[test]
fn every_training_strategy_scores_equivalently() {
    let w = dense_workload(true);
    let session = Session::new(&w.db).join(&w.spec);
    for alg in Algorithm::all() {
        let gmm = session
            .fit(Gmm::with_k(2).iterations(2).algorithm(alg))
            .unwrap();
        let f = session
            .score_with(&gmm, &Scoring::new().algorithm(Algorithm::Factorized))
            .unwrap();
        let m = session
            .score_with(&gmm, &Scoring::new().algorithm(Algorithm::Materialized))
            .unwrap();
        assert_eq!(gmm_bits(&f), gmm_bits(&m), "GMM trained with {alg}");

        let nn = session
            .fit(Nn::with_hidden(5).epochs(2).algorithm(alg))
            .unwrap();
        let f = session
            .score_with(&nn, &Scoring::new().algorithm(Algorithm::Factorized))
            .unwrap();
        let m = session
            .score_with(&nn, &Scoring::new().algorithm(Algorithm::Materialized))
            .unwrap();
        assert_eq!(nn_bits(&f), nn_bits(&m), "NN trained with {alg}");
    }
}

/// The factorized scorer's outputs agree with the dense per-row reference
/// computations (`GmmModel::predict_batch` on the joined rows, `Mlp::predict`
/// per joined row) to floating-point tolerance — the block decomposition
/// regroups additions but never approximates.
#[test]
fn scores_match_dense_reference_within_tolerance() {
    let w = dense_workload(true);
    let session = Session::new(&w.db).join(&w.spec);
    let gmm = session.fit(Gmm::with_k(2).iterations(2)).unwrap();
    let nn = session.fit(Nn::with_hidden(5).epochs(2)).unwrap();
    let gmm_scores = session.score(&gmm).unwrap();
    let nn_scores = session.score(&nn).unwrap();

    // Densify the join via the storage engine and score with the dense APIs.
    let table = fml_core::fml_store::join::materialize_join(&w.db, &w.spec, "T_ref", 16).unwrap();
    let mut rows: Vec<fml_core::fml_store::Tuple> = Vec::new();
    for batch in fml_core::fml_store::batch::BatchScan::new(table, 16) {
        rows.extend(batch.unwrap());
    }
    rows.sort_by_key(|t| t.key);

    let pre = Precomputed::from_model(&gmm.fit.model, 0.0);
    let batch = gmm
        .fit
        .model
        .predict_batch(rows.iter().map(|t| t.features.as_slice()), &pre);
    let sorted = gmm_scores.into_sorted_by_key();
    assert_eq!(sorted.len(), rows.len());
    for (i, ((key, score), t)) in sorted.iter().zip(rows.iter()).enumerate() {
        assert_eq!(*key, t.key);
        assert_eq!(score.cluster, batch.assignments[i], "row {i}");
        let diff = (score.log_likelihood - batch.log_likelihoods[i]).abs();
        assert!(diff < 1e-9, "row {i}: ll diff {diff}");
    }

    let sorted = nn_scores.into_sorted_by_key();
    for ((key, out), t) in sorted.iter().zip(rows.iter()) {
        assert_eq!(*key, t.key);
        let reference = nn.fit.model.predict(&t.features);
        assert!((out - reference).abs() < 1e-9, "key {key}");
    }
}

/// Per-batch [`ScoreTrace`] telemetry: every batch reports its rows, the row
/// total covers the join, batches perform I/O, and elapsed is cumulative.
#[test]
fn score_observer_sees_per_batch_events() {
    let w = dense_workload(false);
    let session = Session::new(&w.db).join(&w.spec);
    let trained = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
    for alg in Algorithm::all() {
        let trace = ScoreTrace::new();
        let scores = session
            .score_with(
                &trained,
                &Scoring::new().algorithm(alg).observe(trace.clone()),
            )
            .unwrap();
        let events = trace.events();
        assert!(!events.is_empty(), "{alg}: at least one batch");
        assert_eq!(trace.total_rows(), scores.len() as u64, "{alg}");
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.batch, i, "{alg}: batch indexes are consecutive");
        }
        assert!(
            events.iter().any(|e| e.pages_io > 0),
            "{alg}: scoring must report storage I/O: {events:?}"
        );
        for pair in events.windows(2) {
            assert!(pair[1].elapsed >= pair[0].elapsed, "{alg}");
        }
        // the run-level accounting is consistent with the strategy
        assert_eq!(scores.strategy, alg);
        assert!(scores.io.pages_read > 0, "{alg}");
        if alg == Algorithm::Materialized {
            assert!(scores.io.pages_written > 0, "materialization writes pages");
        } else {
            assert_eq!(scores.io.pages_written, 0, "{alg} must not write");
        }
    }
}

/// The factorized scorer reads strictly fewer feature fields than the
/// materialized oracle — the Section VI-A3 I/O saving carries over to
/// inference.
#[test]
fn factorized_scoring_reads_fewer_fields_than_materialized() {
    let w = SyntheticConfig {
        n_s: 600,
        n_r: 10,
        d_s: 2,
        d_r: 12,
        k: 2,
        noise_std: 0.6,
        with_target: false,
        seed: 3,
    }
    .generate()
    .unwrap();
    let session = Session::new(&w.db).join(&w.spec);
    let trained = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
    let f = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Factorized))
        .unwrap();
    let m = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Materialized))
        .unwrap();
    assert!(
        f.io.fields_read < m.io.fields_read,
        "factorized read {} fields, materialized {}",
        f.io.fields_read,
        m.io.fields_read
    );
    assert!(f.io.total_page_io() < m.io.total_page_io());
}

/// `.threads(n)` reaches the scoring path (the kernel thread scope is
/// installed), and scoring under the parallel policy with different thread
/// counts stays bit-identical — the sparse kernels only split
/// output-disjoint row bands.
#[test]
fn scoring_is_stable_across_thread_counts() {
    let w = dense_workload(false);
    let base = Session::new(&w.db).join(&w.spec);
    let trained = base.fit(Gmm::with_k(2).iterations(1)).unwrap();
    let score_with_threads = |n: usize| {
        base.clone()
            .exec(
                ExecPolicy::new()
                    .kernel_policy(KernelPolicy::BlockedParallel)
                    .threads(n),
            )
            .score(&trained)
            .unwrap()
    };
    let one = score_with_threads(1);
    let four = score_with_threads(4);
    assert_eq!(gmm_bits(&one), gmm_bits(&four));
}

/// The factorized drivers at 1, 2 and 4 workers (`BlockedParallel` with
/// `.threads(n)`) are bit-identical to the same drivers under the default
/// policy (one inline chunk per block) — including scan order, not just
/// sorted content — for both families, both join shapes, both sparse modes.
/// Together with the suites above (factorized == materialized oracle) this
/// closes the chain: parallel factorized == the oracle, bit for bit, at any
/// thread count.
#[test]
fn parallel_fanout_is_bit_identical_at_every_worker_count() {
    for sparse in [SparseMode::Auto, SparseMode::Dense] {
        // Binary join (group-chunked fan-out), GMM.
        let w = dense_workload(true);
        let base = Session::new(&w.db).join(&w.spec);
        let gmm = base.fit(Gmm::with_k(2).iterations(2)).unwrap();
        let nn = base.fit(Nn::with_hidden(6).epochs(2)).unwrap();
        let star = mixed_star_workload(true);
        let star_base = Session::new(&star.db).join(&star.spec);
        let star_gmm = star_base.fit(Gmm::with_k(2).iterations(2)).unwrap();
        let star_nn = star_base.fit(Nn::with_hidden(6).epochs(2)).unwrap();
        for (name, session, g, n) in [
            ("binary", &base, &gmm, &nn),
            ("star", &star_base, &star_gmm, &star_nn),
        ] {
            let exec_seq = ExecPolicy::new().sparse_mode(sparse);
            let seq_g = session.clone().exec(exec_seq.clone()).score(g).unwrap();
            let seq_n = session.clone().exec(exec_seq).score(n).unwrap();
            for threads in [1usize, 2, 4] {
                let exec_par = ExecPolicy::new()
                    .kernel_policy(KernelPolicy::BlockedParallel)
                    .sparse_mode(sparse)
                    .threads(threads);
                let par_g = session.clone().exec(exec_par.clone()).score(g).unwrap();
                let par_n = session.clone().exec(exec_par).score(n).unwrap();
                assert_eq!(
                    par_g.keys, seq_g.keys,
                    "{name}/{sparse:?}/{threads}t: GMM scan order must survive the chunk merge"
                );
                let seq_bits: Vec<(usize, u64)> = seq_g
                    .rows
                    .iter()
                    .map(|r| (r.cluster, r.log_likelihood.to_bits()))
                    .collect();
                let par_bits: Vec<(usize, u64)> = par_g
                    .rows
                    .iter()
                    .map(|r| (r.cluster, r.log_likelihood.to_bits()))
                    .collect();
                assert_eq!(
                    par_bits, seq_bits,
                    "{name}/{sparse:?}/{threads}t: GMM fan-out must be bit-identical"
                );
                assert_eq!(
                    par_n.keys, seq_n.keys,
                    "{name}/{sparse:?}/{threads}t: NN order"
                );
                let seq_bits: Vec<u64> = seq_n.rows.iter().map(|o| o.to_bits()).collect();
                let par_bits: Vec<u64> = par_n.rows.iter().map(|o| o.to_bits()).collect();
                assert_eq!(
                    par_bits, seq_bits,
                    "{name}/{sparse:?}/{threads}t: NN fan-out must be bit-identical"
                );
            }
        }
    }
}

/// Observer batches follow scan blocks, not chunks: with `block_pages` small
/// enough that the factorized scan spans several blocks, the observer sees
/// the same number of batches under `Blocked` (one inline chunk per block)
/// and under `BlockedParallel` at 4 workers, with consecutive indexes and
/// every row covered.
#[test]
fn observer_batches_follow_scan_blocks_at_every_worker_count() {
    // Large enough that the fact relation spans several one-page blocks
    // (and, for the binary join, R several one-page windows).
    let binary = SyntheticConfig {
        n_s: 2000,
        n_r: 800,
        d_s: 3,
        d_r: 5,
        k: 2,
        noise_std: 0.7,
        with_target: false,
        seed: 11,
    }
    .generate()
    .unwrap();
    let star = MultiwayConfig {
        n_s: 1500,
        d_s: 2,
        dims: vec![DimSpec::categorical(10, 8), DimSpec::new(5, 3)],
        k: 2,
        noise_std: 0.6,
        with_target: false,
        seed: 23,
    }
    .generate()
    .unwrap();
    for (name, w) in [("binary", &binary), ("star", &star)] {
        let trained = Session::new(&w.db)
            .join(&w.spec)
            .fit(Gmm::with_k(2).iterations(1))
            .unwrap();
        let batches = |kp: KernelPolicy| {
            let session = Session::new(&w.db).join(&w.spec).exec(
                ExecPolicy::new()
                    .kernel_policy(kp)
                    .block_pages(1)
                    .threads(4),
            );
            let trace = ScoreTrace::new();
            let scores = session
                .score_with(&trained, &Scoring::new().observe(trace.clone()))
                .unwrap();
            let events = trace.events();
            assert_eq!(trace.total_rows(), scores.len() as u64, "{name}/{kp:?}");
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.batch, i, "{name}/{kp:?}: batch indexes are consecutive");
            }
            events.iter().map(|e| e.rows).collect::<Vec<u64>>()
        };
        let sequential = batches(KernelPolicy::Blocked);
        assert!(
            sequential.len() >= 3,
            "{name}: block_pages(1) must span at least 3 scan blocks, got {sequential:?}"
        );
        assert_eq!(
            sequential,
            batches(KernelPolicy::BlockedParallel),
            "{name}: one observer batch per scan block at every worker count"
        );
    }
}

/// A fact with a foreign key that matches no dimension tuple is the same
/// typed error at every worker count (the sequential sweep resolves keys
/// before any chunk runs), and a dimension tuple no fact references is never
/// read: giving it NaN features leaves every score bit-identical.
#[test]
fn star_scoring_dangling_fk_and_unreferenced_nan_tuple() {
    use fml_core::fml_store::{StoreError, Tuple};
    let w = mixed_star_workload(false);
    let session = Session::new(&w.db).join(&w.spec);
    let trained = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
    let parallel = |t| {
        ExecPolicy::new()
            .kernel_policy(KernelPolicy::BlockedParallel)
            .threads(t)
    };
    let clean = session.score(&trained).unwrap();

    // An unreferenced dimension tuple full of NaNs.
    let dim = w.db.relation(&w.spec.dimensions[2]).unwrap();
    let width = dim.lock().schema().num_features;
    dim.lock()
        .append(&Tuple::dimension(1_000_000, vec![f64::NAN; width]))
        .unwrap();
    dim.lock().flush().unwrap();
    for t in [1usize, 2, 4] {
        let padded = session.clone().exec(parallel(t)).score(&trained).unwrap();
        assert_eq!(padded.keys, clean.keys, "{t}t");
        assert_eq!(gmm_bits(&padded), gmm_bits(&clean), "{t}t: NaN padding");
    }

    // One dangling foreign key into the second dimension.
    let fact = w.db.relation(&w.spec.fact).unwrap();
    fact.lock()
        .append(&Tuple::fact(9_999_999, vec![0, 777_777, 0], vec![0.0, 0.0]))
        .unwrap();
    fact.lock().flush().unwrap();
    for t in [1usize, 2, 4] {
        let err = session
            .clone()
            .exec(parallel(t))
            .score(&trained)
            .map(|s| s.len())
            .unwrap_err();
        assert!(
            matches!(&err, StoreError::DanglingForeignKey { relation, key: 777_777 }
                if *relation == w.spec.dimensions[1]),
            "{t}t: {err}"
        );
    }
}

/// A binary join with one fact whose foreign key matches no dimension tuple,
/// or one primary key stored twice: every fit and every scoring strategy
/// returns the typed error naming the relation and the key — never a model
/// normalized by the wrong `N`, never a short score vector.  With `R`
/// resident in one window the dangling fact fails its block; with `R`
/// spanning several windows the pass ends with the error (a repeated key is
/// only an error across windows — within one, the later tuple wins).
#[test]
fn binary_dangling_fk_fails_every_fit_and_score_strategy() {
    use fml_core::fml_store::{StoreError, Tuple};
    let dangling_fact = Tuple::fact_with_target(9_999_999, vec![555_555], 0.5, vec![0.0; 3]);
    let is_dangling =
        |err: &StoreError| matches!(err, StoreError::DanglingForeignKey { key: 555_555, .. });
    let repeated_key = Tuple::dimension(0, vec![0.0; 5]);
    let is_repeat = |err: &StoreError| matches!(err, StoreError::SchemaMismatch { detail, .. } if detail.contains("a primary key repeats"));
    // (dimension tuples, block pages, hostile tuple, goes into R, expected error)
    type Expect<'a> = &'a dyn Fn(&StoreError) -> bool;
    let cases: [(u64, usize, &Tuple, bool, Expect); 3] = [
        (12, 64, &dangling_fact, false, &is_dangling),
        // 56 bytes per R tuple, 146 to a page: five one-page windows
        (600, 1, &dangling_fact, false, &is_dangling),
        (600, 1, &repeated_key, true, &is_repeat),
    ];
    for (n_r, block_pages, hostile, into_r, expected) in cases {
        let w = SyntheticConfig {
            n_s: 1200,
            n_r,
            d_s: 3,
            d_r: 5,
            k: 2,
            noise_std: 0.7,
            with_target: true,
            seed: 11,
        }
        .generate()
        .unwrap();
        let session = Session::new(&w.db)
            .join(&w.spec)
            .exec(ExecPolicy::new().block_pages(block_pages));
        let gmm = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
        let nn = session.fit(Nn::with_hidden(4).epochs(1)).unwrap();
        let name = if into_r {
            &w.spec.dimensions[0]
        } else {
            &w.spec.fact
        };
        let target = w.db.relation(name).unwrap();
        // appended last: it sits after the first window's pages
        target.lock().append(hostile).unwrap();
        target.lock().flush().unwrap();
        if n_r == 600 {
            let r_pages =
                w.db.relation(&w.spec.dimensions[0])
                    .unwrap()
                    .lock()
                    .num_pages();
            assert!(
                r_pages >= 3,
                "R must span several windows, has {r_pages} pages"
            );
        }
        let check = |what: String, err: StoreError| {
            let names_r = matches!(&err,
                StoreError::DanglingForeignKey { relation, .. } | StoreError::SchemaMismatch { relation, .. }
                    if *relation == w.spec.dimensions[0]);
            assert!(
                expected(&err) && names_r,
                "{n_r} dimension tuples, {what}: {err}"
            );
        };
        for alg in Algorithm::all() {
            let fit = session.fit(Gmm::with_k(2).iterations(1).algorithm(alg));
            check(
                format!("{alg} GMM fit"),
                fit.map(|t| t.fit.n_tuples).unwrap_err(),
            );
            let fit = session.fit(Nn::with_hidden(4).epochs(1).algorithm(alg));
            check(
                format!("{alg} NN fit"),
                fit.map(|t| t.fit.n_tuples).unwrap_err(),
            );
            let opts = Scoring::new().algorithm(alg);
            let scored = session.score_with(&gmm, &opts);
            check(
                format!("{alg} GMM score"),
                scored.map(|s| s.len()).unwrap_err(),
            );
            let scored = session.score_with(&nn, &opts);
            check(
                format!("{alg} NN score"),
                scored.map(|s| s.len()).unwrap_err(),
            );
        }
    }
}

/// Scoring runs dispatched *as bands of an outer fan-out region* — each
/// itself fanning out with parallel kernels requested — complete and stay
/// bit-identical: the nested shape of a server scoring many requests at once.
#[test]
fn scoring_inside_a_pool_region_does_not_deadlock() {
    let w = dense_workload(false);
    let base = Session::new(&w.db).join(&w.spec);
    let trained = base.fit(Gmm::with_k(2).iterations(1)).unwrap();
    let seq_bits = gmm_bits(&base.score(&trained).unwrap());
    let mut results = vec![None, None];
    let bands = fml_linalg::policy::par_row_bands_with_threads(
        2,
        &mut [(); 2],
        1,
        1,
        &mut results,
        |_, _, slot| {
            let parallel = ExecPolicy::new()
                .kernel_policy(KernelPolicy::BlockedParallel)
                .threads(4);
            *slot = Some(base.clone().exec(parallel).score(&trained).unwrap());
        },
    );
    assert_eq!(bands, 2);
    for scores in &results {
        assert_eq!(
            gmm_bits(scores.as_ref().unwrap()),
            seq_bits,
            "nested scoring must match the sequential bits"
        );
    }
}

/// A degenerate model (singular covariance — e.g. a collapsed component or a
/// hand-edited persisted file) is repaired with the trainers' default ridge
/// at scoring time instead of panicking in the public API.
#[test]
fn scoring_repairs_degenerate_covariances_instead_of_panicking() {
    let w = dense_workload(false);
    let session = Session::new(&w.db).join(&w.spec);
    let mut trained = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
    let d = trained.fit.model.dim();
    trained.fit.model.covariances[0] = fml_linalg::Matrix::zeros(d, d);
    let scores = session.score(&trained).unwrap();
    assert_eq!(scores.len(), w.n_fact().unwrap() as usize);
    assert!(scores.rows.iter().all(|r| r.log_likelihood.is_finite()));
}

#[test]
fn scoring_without_join_is_a_typed_error() {
    use fml_core::fml_store::StoreError;
    let w = dense_workload(false);
    let session = Session::new(&w.db).join(&w.spec);
    let trained = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
    let err = Session::new(&w.db).score(&trained).unwrap_err();
    assert!(matches!(err, StoreError::NoJoin), "{err}");
}

/// A model scored over a join of another width — a model file loaded for
/// the wrong join — is a typed schema mismatch naming both widths, for
/// either family, not a panic inside the scorer.
#[test]
fn scoring_a_model_over_the_wrong_join_is_a_schema_mismatch() {
    use fml_core::fml_store::StoreError;
    let w = dense_workload(true);
    let other = SyntheticConfig {
        n_s: 100,
        n_r: 5,
        d_s: 1,
        d_r: 2,
        k: 2,
        noise_std: 0.5,
        with_target: true,
        seed: 9,
    }
    .generate()
    .unwrap();
    let session = Session::new(&w.db).join(&w.spec);
    let gmm = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
    let nn = session.fit(Nn::with_hidden(4).epochs(1)).unwrap();
    let (width, other_width) = (gmm.fit.model.dim(), 3);
    let elsewhere = Session::new(&other.db).join(&other.spec);
    for err in [
        elsewhere.score(&gmm).map(|s| s.len()).unwrap_err(),
        elsewhere.score(&nn).map(|s| s.len()).unwrap_err(),
    ] {
        let msg = err.to_string();
        assert!(
            matches!(&err, StoreError::SchemaMismatch { relation, .. } if *relation == other.spec.fact),
            "{msg}"
        );
        assert!(
            msg.contains(&format!("{width} features"))
                && msg.contains(&format!("has {other_width}")),
            "{msg}"
        );
    }
}

/// The three GMM fixtures — dense binary, categorical binary, mixed star —
/// with 700 facts, so that one block of the scan holds several of the
/// materialized and streaming scorers' 256-row panels.
fn panel_fixtures() -> [(&'static str, fml_data::Workload); 3] {
    let binary = SyntheticConfig {
        n_s: 700,
        n_r: 12,
        d_s: 3,
        d_r: 5,
        k: 2,
        noise_std: 0.7,
        with_target: false,
        seed: 11,
    };
    let star = |dims| MultiwayConfig {
        n_s: 700,
        d_s: 2,
        dims,
        k: 2,
        noise_std: 0.6,
        with_target: false,
        seed: 23,
    };
    [
        ("binary", binary.generate().unwrap()),
        (
            "categorical",
            star(vec![DimSpec::categorical(12, 10)]).generate().unwrap(),
        ),
        (
            "mixed star",
            star(vec![
                DimSpec::categorical(10, 8),
                DimSpec::sparse_numeric(6, 12, 2),
                DimSpec::new(5, 3),
            ])
            .generate()
            .unwrap(),
        ),
    ]
}

/// GMM scores are bit-identical across the three scoring strategies and
/// across `block_pages ∈ {1, 7, 64}`, which cut the scan's blocks — and so
/// the factorized scorer's per-block tuple fills and the materialized and
/// streaming scorers' panels — differently: a tuple's term row does not
/// depend on the batch it was filled in.
#[test]
fn gmm_scores_are_bit_identical_across_strategies_and_block_pages() {
    for (name, w) in panel_fixtures() {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            let session = Session::new(&w.db)
                .join(&w.spec)
                .exec(ExecPolicy::new().sparse_mode(sparse));
            let trained = session.fit(Gmm::with_k(2).iterations(2)).unwrap();
            let reference = gmm_bits(&session.score(&trained).unwrap());
            assert_eq!(reference.len(), 700, "{name}/{sparse:?}");
            for block_pages in [1usize, 7, 64] {
                let exec = ExecPolicy::new()
                    .sparse_mode(sparse)
                    .block_pages(block_pages);
                for algorithm in [
                    Algorithm::Factorized,
                    Algorithm::Materialized,
                    Algorithm::Streaming,
                ] {
                    let scores = session
                        .clone()
                        .exec(exec.clone())
                        .score_with(&trained, &Scoring::new().algorithm(algorithm))
                        .unwrap();
                    assert_eq!(
                        gmm_bits(&scores),
                        reference,
                        "{name}/{sparse:?}/{block_pages} pages/{algorithm:?}"
                    );
                }
            }
        }
    }
}

/// A NaN or infinite feature — in a fact, or in a dimension tuple a fact
/// references — gives that row a defined score instead of a panic: a
/// non-finite log-likelihood (NaN for a NaN feature, with cluster 0 by
/// `argmax`'s rule that NaN never wins), the same bits under M, S and F at 1,
/// 2 and 4 workers, and every other row keeps its clean score.
#[test]
fn gmm_scoring_defines_nan_and_inf_features_under_every_strategy() {
    use fml_core::fml_store::Tuple;
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    // (case, the hostile fact's features, the dimension tuple it references)
    type Case = (&'static str, [f64; 2], Option<[f64; 3]>);
    let cases: [Case; 3] = [
        ("NaN fact", [nan, 0.0], None),
        ("Inf fact", [inf, 0.0], None),
        ("NaN referenced tuple", [0.0, 0.0], Some([0.5, nan, 0.5])),
    ];
    for (case, fact_x, dim_x) in cases {
        let w = SyntheticConfig {
            n_s: 200,
            n_r: 10,
            d_s: 2,
            d_r: 3,
            k: 2,
            noise_std: 0.7,
            with_target: false,
            seed: 5,
        }
        .generate()
        .unwrap();
        let session = Session::new(&w.db).join(&w.spec);
        let trained = session.fit(Gmm::with_k(2).iterations(2)).unwrap();
        let clean = gmm_bits(&session.score(&trained).unwrap());
        let fk = match dim_x {
            Some(x) => {
                let dim = w.db.relation(&w.spec.dimensions[0]).unwrap();
                dim.lock()
                    .append(&Tuple::dimension(1_000_000, x.to_vec()))
                    .unwrap();
                dim.lock().flush().unwrap();
                1_000_000
            }
            None => 0,
        };
        let fact = w.db.relation(&w.spec.fact).unwrap();
        fact.lock()
            .append(&Tuple::fact(9_999_999, vec![fk], fact_x.to_vec()))
            .unwrap();
        fact.lock().flush().unwrap();
        let mut first: Option<Vec<(u64, usize, u64)>> = None;
        for algorithm in [
            Algorithm::Factorized,
            Algorithm::Materialized,
            Algorithm::Streaming,
        ] {
            for threads in [1usize, 2, 4] {
                let exec = ExecPolicy::new()
                    .kernel_policy(KernelPolicy::BlockedParallel)
                    .threads(threads);
                let what = format!("{case}/{algorithm:?}/{threads}t");
                let bits = gmm_bits(
                    &session
                        .clone()
                        .exec(exec)
                        .score_with(&trained, &Scoring::new().algorithm(algorithm))
                        .unwrap(),
                );
                let (key, cluster, ll) = bits[bits.len() - 1];
                let ll = f64::from_bits(ll);
                assert_eq!(key, 9_999_999, "{what}");
                assert!(!ll.is_finite() && cluster < 2, "{what}: {ll}, {cluster}");
                if fact_x[0].is_nan() || dim_x.is_some() {
                    assert!(ll.is_nan() && cluster == 0, "{what}: {ll}, {cluster}");
                }
                assert_eq!(bits[..bits.len() - 1], clean[..], "{what}: other rows");
                match &first {
                    None => first = Some(bits),
                    Some(first) => assert_eq!(&bits, first, "{what}: M ≡ S ≡ F"),
                }
            }
        }
    }
}

/// NN scoring over a NaN or infinite feature — in a fact, or in a dimension
/// tuple a fact references — gives that row a defined score instead of a
/// panic, with the same bits under M, S and F at 1 and 4 workers, and every
/// other row keeps its clean score.  A NaN feature scores NaN under every
/// activation.  An infinite one saturates the default sigmoid hidden layer,
/// so the score is finite; under ReLU the infinities pass through the hidden
/// layer, and on this model the output adds infinities of both signs: NaN.
#[test]
fn nn_scoring_defines_nan_and_inf_features_under_every_strategy() {
    use fml_core::fml_store::Tuple;
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    // (case, the hostile fact's features, the dimension tuple it references)
    type Case = (&'static str, [f64; 2], Option<[f64; 3]>);
    let cases: [Case; 5] = [
        ("NaN fact", [nan, 0.0], None),
        ("+Inf fact", [inf, 0.0], None),
        ("-Inf fact", [-inf, 0.0], None),
        ("NaN referenced tuple", [0.0, 0.0], Some([0.5, nan, 0.5])),
        ("Inf referenced tuple", [0.0, 0.0], Some([0.5, inf, 0.5])),
    ];
    for activation in [Activation::Sigmoid, Activation::Relu] {
        for (case, fact_x, dim_x) in cases {
            let w = SyntheticConfig {
                n_s: 200,
                n_r: 10,
                d_s: 2,
                d_r: 3,
                k: 2,
                noise_std: 0.7,
                with_target: true,
                seed: 5,
            }
            .generate()
            .unwrap();
            let session = Session::new(&w.db).join(&w.spec);
            let nn = Nn::with_hidden(6).epochs(2).activation(activation);
            let trained = session.fit(nn).unwrap();
            let clean = nn_bits(&session.score(&trained).unwrap());
            let fk = match dim_x {
                Some(x) => {
                    let dim = w.db.relation(&w.spec.dimensions[0]).unwrap();
                    dim.lock()
                        .append(&Tuple::dimension(1_000_000, x.to_vec()))
                        .unwrap();
                    dim.lock().flush().unwrap();
                    1_000_000
                }
                None => 0,
            };
            let fact = w.db.relation(&w.spec.fact).unwrap();
            fact.lock()
                .append(&Tuple::fact_with_target(
                    9_999_999,
                    vec![fk],
                    0.0,
                    fact_x.to_vec(),
                ))
                .unwrap();
            fact.lock().flush().unwrap();
            let mut first: Option<Vec<(u64, u64)>> = None;
            for algorithm in Algorithm::all() {
                for threads in [1usize, 4] {
                    let exec = ExecPolicy::new()
                        .kernel_policy(KernelPolicy::BlockedParallel)
                        .threads(threads);
                    let what = format!("{activation:?}/{case}/{algorithm:?}/{threads}t");
                    let bits = nn_bits(
                        &session
                            .clone()
                            .exec(exec)
                            .score_with(&trained, &Scoring::new().algorithm(algorithm))
                            .unwrap(),
                    );
                    let (key, score) = bits[bits.len() - 1];
                    let score = f64::from_bits(score);
                    assert_eq!(key, 9_999_999, "{what}");
                    let nan_feature = fact_x[0].is_nan() || dim_x.is_some_and(|x| x[1].is_nan());
                    if nan_feature || activation == Activation::Relu {
                        assert!(score.is_nan(), "{what}: {score}");
                    } else {
                        assert!(score.is_finite(), "{what}: {score}");
                    }
                    assert_eq!(bits[..bits.len() - 1], clean[..], "{what}: other rows");
                    match &first {
                        None => first = Some(bits),
                        Some(first) => assert_eq!(&bits, first, "{what}: M ≡ S ≡ F"),
                    }
                }
            }
        }
    }
}

/// A ReLU hidden layer that is dead for every fact — every pre-activation
/// negative, so every hidden output and every ReLU derivative is zero — is a
/// defined fit, not a failure: under M, S and F at 1 and 4 workers the fit
/// returns `Ok` with a finite loss, the hidden layer's gradients are exactly
/// zero (its weights and biases keep the bits of the initial model, and so
/// do the output weights, whose inputs are all zero), and only the output
/// bias learns.  Every row then scores the output bias, bit-identical
/// M ≡ S ≡ F.
#[test]
fn all_dead_relu_layers_fit_and_score_alike_under_every_strategy() {
    use fml_core::fml_linalg::{gemm, Cholesky};
    use fml_core::fml_nn::Mlp;
    use fml_core::fml_store::{Database, JoinSpec, Schema, Tuple};
    const SEED: u64 = 11;
    let (d_s, d_r, n_h) = (3, 4, 5);
    // The features `x = Wᵀ(W·Wᵀ)⁻¹(−1 − b)` put every unit of the initial
    // hidden layer at pre-activation −1; every fact carries them.
    let init = Mlp::new(d_s + d_r, &[n_h], Activation::Relu, SEED);
    let hidden = &init.layers()[0];
    let w = &hidden.weights;
    let gram = gemm::matmul(w, &w.transpose());
    let target: Vec<f64> = hidden.bias.iter().map(|b| -1.0 - b).collect();
    let y = gemm::matvec(&Cholesky::factor(&gram).unwrap().inverse(), &target);
    let x = gemm::matvec_transposed(w, &y);
    let a = hidden.pre_activation(&x);
    assert!(a.iter().all(|&v| v < -0.5), "dead by construction: {a:?}");

    let db = Database::in_memory();
    let dim = db.create_relation(Schema::dimension("R", d_r)).unwrap();
    for key in 0..10 {
        dim.lock()
            .append(&Tuple::dimension(key, x[d_s..].to_vec()))
            .unwrap();
    }
    dim.lock().flush().unwrap();
    let fact = db
        .create_relation(Schema::fact_with_target("S", d_s, 1))
        .unwrap();
    for key in 0..200u64 {
        let target = (key % 5) as f64 * 0.25;
        let tuple = Tuple::fact_with_target(key, vec![key % 10], target, x[..d_s].to_vec());
        fact.lock().append(&tuple).unwrap();
    }
    fact.lock().flush().unwrap();
    let spec = JoinSpec::binary("S", "R");

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for fit_with in Algorithm::all() {
        let mut learned = Vec::new();
        for threads in [1usize, 4] {
            let exec = ExecPolicy::new()
                .kernel_policy(KernelPolicy::BlockedParallel)
                .threads(threads)
                .seed(SEED);
            let what = format!("fit {fit_with:?}/{threads}t");
            let session = Session::new(&db).join(&spec).exec(exec);
            let nn = Nn::with_hidden(n_h)
                .activation(Activation::Relu)
                .algorithm(fit_with)
                .epochs(3);
            let trained = session.fit(nn).unwrap();
            let model = &trained.fit.model;
            assert!(trained.fit.final_loss().is_finite(), "{what}");
            let (h0, h1) = (&model.layers()[0], &hidden);
            assert_eq!(
                bits(h0.weights.as_slice()),
                bits(h1.weights.as_slice()),
                "{what}"
            );
            assert_eq!(bits(&h0.bias), bits(&h1.bias), "{what}");
            let (out, out0) = (&model.layers()[1], &init.layers()[1]);
            assert_eq!(
                bits(out.weights.as_slice()),
                bits(out0.weights.as_slice()),
                "{what}"
            );
            assert_ne!(out.bias, out0.bias, "{what}: the output bias learns");
            for algorithm in Algorithm::all() {
                let scored = session
                    .score_with(&trained, &Scoring::new().algorithm(algorithm))
                    .unwrap();
                let scores = nn_bits(&scored);
                assert_eq!(scores.len(), 200, "{what}");
                let bias = out.bias[0].to_bits();
                assert!(
                    scores.iter().all(|&(_, s)| s == bias),
                    "{what}/score {algorithm:?}"
                );
            }
            learned.push(out.bias[0].to_bits());
        }
        assert_eq!(learned[0], learned[1], "fit {fit_with:?}: 1 vs 4 workers");
    }
}
