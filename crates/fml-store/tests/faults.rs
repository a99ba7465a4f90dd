//! Fault injection at the storage boundary: a relation's page file is
//! corrupted on disk underneath an open database — its page header, or the
//! one-hot codes and sparse indices of a typed record — and every read path —
//! the factorized join scan, the `BatchScan` row view, `fetch` and
//! `materialize_join` — must return a typed error.  None may panic or hand
//! out rows decoded from the wrong offsets.

use fml_linalg::BlockVec;
use fml_store::batch::BatchScan;
use fml_store::factorized_scan::FactorizedScan;
use fml_store::join::materialize_join;
use fml_store::page::PAGE_HEADER;
use fml_store::{
    Database, FeatureGroup, JoinSpec, Schema, StoreError, StoreResult, Tuple, TupleId, PAGE_SIZE,
};
use std::path::{Path, PathBuf};

/// `R(key, x0, x1)` with 800 tuples and `S(key, fk, y, x0)` with 1000, both
/// spanning several pages, so page 0 of each is full and flushed to disk.
fn database(dir: &Path) -> (Database, JoinSpec) {
    let db = Database::on_disk(dir).unwrap();
    let r = db.create_relation(Schema::dimension("R", 2)).unwrap();
    let s = db
        .create_relation(Schema::fact_with_target("S", 1, 1))
        .unwrap();
    for k in 0..800u64 {
        let t = Tuple::dimension(k, vec![k as f64, -(k as f64)]);
        r.lock().append(&t).unwrap();
    }
    for i in 0..1000u64 {
        let t = Tuple::fact_with_target(i, vec![i % 800], 0.5, vec![i as f64]);
        s.lock().append(&t).unwrap();
    }
    r.lock().flush().unwrap();
    s.lock().flush().unwrap();
    assert!(r.lock().num_pages() > 2 && s.lock().num_pages() > 2);
    (db, JoinSpec::binary("S", "R"))
}

/// The facts one full `FactorizedScan` pass hands out.
fn factorized_pass(db: &Database, spec: &JoinSpec) -> StoreResult<usize> {
    let mut scan = FactorizedScan::new(db, spec, 64)?;
    let mut facts = 0;
    while scan.next_window()? {
        while scan.next_block()? {
            facts += scan.block().len();
        }
    }
    Ok(facts)
}

/// Every read path over the database, each with its own outcome.
fn read_paths(db: &Database, spec: &JoinSpec, name: &str, run: usize) -> Vec<StoreResult<()>> {
    let rel = db.relation(name).unwrap();
    let scanned: StoreResult<Vec<Vec<Tuple>>> = BatchScan::new(rel.clone(), 64).collect();
    let fetched = rel.lock().fetch(TupleId::new(0, 0));
    let materialized = materialize_join(db, spec, format!("T_{name}_{run}"), 64);
    vec![
        factorized_pass(db, spec).map(|n| assert_eq!(n, 1000)),
        scanned.map(|blocks| assert_eq!(blocks.concat().len(), rel.lock().num_tuples() as usize)),
        fetched.map(|t| assert_eq!(t.key, 0)),
        materialized.map(|t| assert_eq!(t.lock().num_tuples(), 1000)),
    ]
}

#[test]
fn corrupt_and_truncated_pages_are_typed_errors_on_every_read_path() {
    let dir = std::env::temp_dir().join(format!("fml_store_faults_{}", std::process::id()));
    let (db, spec) = database(&dir);
    type Fault = (&'static str, fn(&mut Vec<u8>), &'static str);
    let faults: [Fault; 3] = [
        // a record size larger than the schema's, with a count that still
        // fits the page: the header is consistent with itself, so only the
        // schema check stands between it and garbage rows
        (
            "flipped record size",
            |b| {
                let rs = u16::from_le_bytes([b[2], b[3]]);
                b[2..4].copy_from_slice(&(rs + 8).to_le_bytes());
                b[0..2].copy_from_slice(&1u16.to_le_bytes());
            },
            "-byte records",
        ),
        (
            "count above capacity",
            |b| {
                let rs = u16::from_le_bytes([b[2], b[3]]) as usize;
                let capacity = ((PAGE_SIZE - PAGE_HEADER) / rs) as u16;
                b[0..2].copy_from_slice(&(capacity + 1).to_le_bytes());
            },
            "capacity",
        ),
        (
            "truncated mid-page",
            |b| b.truncate(PAGE_SIZE / 2),
            "truncated",
        ),
    ];
    let mut run = 0;
    for name in ["S", "R"] {
        let path: PathBuf = dir.join(format!("{name}.pages"));
        let pristine = std::fs::read(&path).unwrap();
        for (fault, corrupt, expect) in &faults {
            let mut bytes = pristine.clone();
            corrupt(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            run += 1;
            for (path_no, outcome) in read_paths(&db, &spec, name, run).into_iter().enumerate() {
                let err =
                    outcome.expect_err(&format!("{name}, {fault}: path {path_no} read garbage"));
                assert!(
                    matches!(&err, StoreError::Corrupt(m) if m.contains(expect)),
                    "{name}, {fault}: path {path_no}: {err}"
                );
                if *fault == "flipped record size" {
                    assert!(err.to_string().contains(&format!("'{name}'")), "{err}");
                }
            }
        }
        // restored, every path reads the relation again
        std::fs::write(&path, &pristine).unwrap();
        run += 1;
        for outcome in read_paths(&db, &spec, name, run) {
            outcome.unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `R(key, 2 one-hot codes of 4 categories, 2 sparse pairs over 8 columns)`
/// and `S(key, fk, y, x0)`: 40-byte dimension records, the first at byte
/// `PAGE_HEADER` of page 0 — key, codes at +8 and +12, pair indices at +16
/// and +28.
fn typed_database(dir: &Path) -> (Database, JoinSpec) {
    let db = Database::on_disk(dir).unwrap();
    let schema = Schema::dimension("R", 0).with_groups(vec![
        FeatureGroup::OneHot {
            cardinalities: vec![4, 4],
        },
        FeatureGroup::SparseNumeric {
            width: 8,
            max_nnz: 2,
        },
    ]);
    assert_eq!(schema.record_size(), 40);
    let r = db.create_relation(schema).unwrap();
    let s = db
        .create_relation(Schema::fact_with_target("S", 1, 1))
        .unwrap();
    for k in 0..500u32 {
        let idx = [k % 4, 4 + (k / 4) % 4, 8 + k % 3, 13 + k % 3];
        let vals = [1.0, 1.0, 0.5 + f64::from(k), -1.0];
        let row = BlockVec::Csr {
            idx: &idx,
            vals: &vals,
        };
        r.lock().append_row(u64::from(k), &[], None, row).unwrap();
    }
    for i in 0..1000u64 {
        let t = Tuple::fact_with_target(i, vec![i % 500], 0.5, vec![i as f64]);
        s.lock().append(&t).unwrap();
    }
    r.lock().flush().unwrap();
    s.lock().flush().unwrap();
    (db, JoinSpec::binary("S", "R"))
}

#[test]
fn corrupt_codes_and_sparse_indices_are_typed_errors_on_every_read_path() {
    let dir = std::env::temp_dir().join(format!("fml_store_typed_faults_{}", std::process::id()));
    let (db, spec) = typed_database(&dir);
    let at = |field: usize| PAGE_HEADER + field;
    type Fault = (&'static str, usize, u32, &'static str);
    let faults: [Fault; 3] = [
        (
            "code ≥ cardinality",
            at(12),
            4,
            "one-hot code 4 ≥ cardinality 4",
        ),
        (
            "index ≥ width",
            at(16),
            8,
            "sparse index 8 out of order or ≥ width 8",
        ),
        (
            "indices out of order",
            at(28),
            0,
            "sparse index 0 out of order",
        ),
    ];
    let path = dir.join("R.pages");
    let pristine = std::fs::read(&path).unwrap();
    for (run, (fault, offset, value, expect)) in faults.into_iter().enumerate() {
        let mut bytes = pristine.clone();
        bytes[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        for (path_no, outcome) in read_paths(&db, &spec, "R", run).into_iter().enumerate() {
            let err = outcome.expect_err(&format!("{fault}: path {path_no} read garbage"));
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains(expect) && m.contains("'R'")),
                "{fault}: path {path_no}: {err}"
            );
        }
    }
    std::fs::write(&path, &pristine).unwrap();
    for outcome in read_paths(&db, &spec, "R", 9) {
        outcome.unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
