//! Minimal CSV import/export for relations.
//!
//! The examples use this to show how a real (externally produced) dataset would be
//! loaded into the engine before training; the implementation is intentionally
//! simple (no quoting — all columns are numeric).
//!
//! Column order mirrors the record layout: `key, fk_1 … fk_q, [target,] f_1 … f_d`,
//! the features expanded to dense whatever their groups store: export
//! expands every row, import re-encodes each row into the relation's groups.

use crate::catalog::RelationHandle;
use crate::error::{StoreError, StoreResult};
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Writes a header line for the schema.
fn header(schema: &Schema) -> String {
    let mut cols = vec!["key".to_string()];
    for i in 0..schema.num_foreign_keys {
        cols.push(format!("fk{i}"));
    }
    if schema.has_target {
        cols.push("target".to_string());
    }
    for i in 0..schema.num_features {
        cols.push(format!("x{i}"));
    }
    cols.join(",")
}

/// Exports a relation to a CSV file (with header).
pub fn export_csv(relation: &RelationHandle, path: &Path) -> StoreResult<()> {
    let mut rel = relation.lock();
    let schema = rel.schema().clone();
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "{}", header(&schema))?;
    for p in 0..rel.num_pages() {
        for t in rel.read_page_tuples(p)? {
            let mut cols = Vec::with_capacity(schema.fields_per_record());
            cols.push(t.key.to_string());
            for fk in &t.fks {
                cols.push(fk.to_string());
            }
            if let Some(y) = t.target {
                cols.push(format!("{y}"));
            }
            for f in &t.features {
                cols.push(format!("{f}"));
            }
            writeln!(w, "{}", cols.join(","))?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Parses one CSV line into a tuple for the given schema.
fn parse_line(schema: &Schema, line: &str, line_no: usize) -> StoreResult<Tuple> {
    let expected =
        1 + schema.num_foreign_keys + usize::from(schema.has_target) + schema.num_features;
    let cols: Vec<&str> = line.split(',').map(|c| c.trim()).collect();
    if cols.len() != expected {
        return Err(StoreError::Csv(format!(
            "line {line_no}: expected {expected} columns, got {}",
            cols.len()
        )));
    }
    let parse_u64 = |s: &str| -> StoreResult<u64> {
        s.parse()
            .map_err(|_| StoreError::Csv(format!("line {line_no}: invalid integer '{s}'")))
    };
    let parse_f64 = |s: &str| -> StoreResult<f64> {
        s.parse()
            .map_err(|_| StoreError::Csv(format!("line {line_no}: invalid number '{s}'")))
    };
    let missing = |what: &str| StoreError::Csv(format!("line {line_no}: missing {what} column"));
    let mut it = cols.into_iter();
    let key = parse_u64(it.next().ok_or_else(|| missing("key"))?)?;
    let mut fks = Vec::with_capacity(schema.num_foreign_keys);
    for _ in 0..schema.num_foreign_keys {
        fks.push(parse_u64(it.next().ok_or_else(|| missing("foreign-key"))?)?);
    }
    let target = if schema.has_target {
        Some(parse_f64(it.next().ok_or_else(|| missing("target"))?)?)
    } else {
        None
    };
    let mut features = Vec::with_capacity(schema.num_features);
    for col in it {
        features.push(parse_f64(col)?);
    }
    Ok(Tuple {
        key,
        fks,
        target,
        features,
    })
}

/// Imports a CSV file (with or without header) into an existing relation.
/// Returns the number of tuples loaded.
///
/// # Errors
/// [`StoreError::Csv`] naming the line of a malformed row, including one its
/// feature groups cannot store (a one-hot variable without exactly one
/// `1.0`, more nonzeros than a sparse group holds).
pub fn import_csv(relation: &RelationHandle, path: &Path) -> StoreResult<u64> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    let mut rel = relation.lock();
    let schema = rel.schema().clone();
    let mut count = 0u64;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if i == 0 && trimmed.starts_with("key") {
            continue; // header
        }
        let tuple = parse_line(&schema, trimmed, i + 1)?;
        rel.append(&tuple).map_err(|e| match e {
            StoreError::SchemaMismatch { detail, .. } => {
                StoreError::Csv(format!("line {}: {detail}", i + 1))
            }
            e => e,
        })?;
        count += 1;
    }
    rel.flush()?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::schema::FeatureGroup;
    use fml_linalg::BlockVec;

    #[test]
    fn export_import_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fml_csv_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rel.csv");

        let db = Database::in_memory();
        let schema = Schema::fact_with_target("s", 2, 1);
        let rel = db.create_relation(schema.clone()).unwrap();
        for i in 0..50u64 {
            rel.lock()
                .append(&Tuple::fact_with_target(
                    i,
                    vec![i % 5],
                    i as f64 / 2.0,
                    vec![i as f64, -1.5],
                ))
                .unwrap();
        }
        rel.lock().flush().unwrap();
        export_csv(&rel, &path).unwrap();

        let rel2 = db.create_relation(schema.renamed("s2")).unwrap();
        let n = import_csv(&rel2, &path).unwrap();
        assert_eq!(n, 50);
        let a = rel.lock().read_all().unwrap();
        let b = rel2.lock().read_all().unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_format() {
        let schema = Schema::fact_with_target("s", 2, 1);
        assert_eq!(header(&schema), "key,fk0,target,x0,x1");
        let dim = Schema::dimension("r", 1);
        assert_eq!(header(&dim), "key,x0");
    }

    #[test]
    fn parse_line_errors() {
        let schema = Schema::dimension("r", 2);
        assert!(parse_line(&schema, "1,2.0,3.0", 1).is_ok());
        assert!(parse_line(&schema, "1,2.0", 1).is_err()); // too few columns
        assert!(parse_line(&schema, "x,2.0,3.0", 1).is_err()); // bad key
        assert!(parse_line(&schema, "1,a,3.0", 1).is_err()); // bad feature
    }

    #[test]
    fn typed_relations_export_expanded_and_import_re_encoded() {
        let dir = std::env::temp_dir().join(format!("fml_csv_typed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("typed.csv");
        // x0 dense | x1–x3, x4–x5 one-hot | x6–x9 sparse, at most one nonzero
        let schema = Schema::fact_with_target("s", 0, 1).with_groups(vec![
            FeatureGroup::Dense(1),
            FeatureGroup::OneHot {
                cardinalities: vec![3, 2],
            },
            FeatureGroup::SparseNumeric {
                width: 4,
                max_nnz: 1,
            },
        ]);
        let db = Database::in_memory();
        let rel = db.create_relation(schema.clone()).unwrap();
        for i in 0..30u32 {
            let idx = [0, 1 + i % 3, 4 + i % 2, 6 + i % 4];
            let vals = [f64::from(i) - 7.5, 1.0, 1.0, 0.25 * f64::from(i)];
            let n = 3 + usize::from(i % 5 != 0);
            let row = BlockVec::Csr {
                idx: &idx[..n],
                vals: &vals[..n],
            };
            let mut rel = rel.lock();
            rel.append_row(u64::from(i), &[7], Some(0.5), row).unwrap();
        }
        rel.lock().flush().unwrap();
        export_csv(&rel, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("key,fk0,target,x0,x1,x2,x3,x4,x5,x6,x7,x8,x9\n"));

        let back = db.create_relation(schema.renamed("s2")).unwrap();
        assert_eq!(import_csv(&back, &path).unwrap(), 30);
        let a = rel.lock().read_all().unwrap();
        assert_eq!(a, back.lock().read_all().unwrap());
        assert_eq!(
            a[2].features,
            [-5.5, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.5, 0.0]
        );

        // a one-hot variable that is not exactly one 1.0 names its line
        let bad = "key,fk0,target,x0,x1,x2,x3,x4,x5,x6,x7,x8,x9\n\
                   1,7,0.5,1.0,0,1,0,1,0,0,0,0,0\n\
                   2,7,0.5,1.0,0,1,1,1,0,0,0,0,0\n";
        std::fs::write(&path, bad).unwrap();
        let err = import_csv(&back, &path).unwrap_err();
        assert!(
            matches!(&err, StoreError::Csv(m) if m.starts_with("line 3:")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
