//! Tuples and their fixed-width binary encoding.
//!
//! A [`Tuple`] is the row-at-a-time type of the load / CSV / `fetch` / test
//! surface, its features expanded to dense: loaders append tuples, and the
//! row views of [`crate::rows`] hand decoded rows back as tuples.  No scan
//! decodes into one — scans fill [`crate::batch::RowBlock`]s.  The encoder
//! here stores a row given in any form ([`BlockVec`]) as its relation's
//! feature groups lay it out.

use crate::batch::{entries, PAD};
use crate::error::{StoreError, StoreResult};
use crate::schema::{FeatureGroup, Schema};
use fml_linalg::BlockVec;

/// Physical address of a tuple inside a relation's heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    /// Page index within the heap file.
    pub page: u32,
    /// Slot index within the page.
    pub slot: u16,
}

impl TupleId {
    /// Creates a tuple id.
    pub fn new(page: u32, slot: u16) -> Self {
        Self { page, slot }
    }
}

/// An in-memory tuple.
///
/// The field layout follows the schemas of Section IV of the paper: a primary key,
/// optional foreign keys, an optional supervised target and dense `f64` features.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Primary key (`SID` for fact tables, `RID` for dimension tables).
    pub key: u64,
    /// Foreign keys `FK_1 … FK_q` (empty for dimension tables).
    pub fks: Vec<u64>,
    /// Supervised target `Y` (only present when the schema has a target).
    pub target: Option<f64>,
    /// Feature vector `x`.
    pub features: Vec<f64>,
}

impl Tuple {
    /// Creates a dimension-table tuple `R(RID, x_R)`.
    pub fn dimension(key: u64, features: Vec<f64>) -> Self {
        Self {
            key,
            fks: Vec::new(),
            target: None,
            features,
        }
    }

    /// Creates an unsupervised fact-table tuple `S(SID, x_S, FK…)`.
    pub fn fact(key: u64, fks: Vec<u64>, features: Vec<f64>) -> Self {
        Self {
            key,
            fks,
            target: None,
            features,
        }
    }

    /// Creates a supervised fact-table tuple `S(SID, Y, x_S, FK…)`.
    pub fn fact_with_target(key: u64, fks: Vec<u64>, target: f64, features: Vec<f64>) -> Self {
        Self {
            key,
            fks,
            target: Some(target),
            features,
        }
    }

    /// Builds the joined ("denormalized") tuple for `T(SID, [Y], [x_S x_R1 … x_Rq])`
    /// from a fact tuple and the features of its matching dimension tuples,
    /// concatenated in join order.
    pub fn joined<'a>(fact: &Tuple, dims: impl IntoIterator<Item = &'a [f64]>) -> Tuple {
        let mut features = fact.features.clone();
        for d in dims {
            features.extend_from_slice(d);
        }
        Tuple {
            key: fact.key,
            fks: Vec::new(),
            target: fact.target,
            features,
        }
    }
}

/// The one record-shape check of every append: `fks` foreign keys, a target
/// or none, and `features` feature values must be what `schema` lays out.
pub(crate) fn check_shape(
    schema: &Schema,
    fks: usize,
    target: bool,
    features: usize,
) -> StoreResult<()> {
    let want = (
        schema.num_foreign_keys,
        schema.has_target,
        schema.num_features,
    );
    if (fks, target, features) == want {
        return Ok(());
    }
    Err(StoreError::SchemaMismatch {
        relation: schema.name.clone(),
        detail: format!(
            "(foreign keys, target, features) {:?}, expected {want:?}",
            (fks, target, features)
        ),
    })
}

/// Appends one record in the layout of [`Schema::record_size`]: key,
/// foreign keys, the target if any, then each feature group of `schema`
/// encoded from its columns of `row`.
///
/// # Errors
/// A row the groups cannot store, described: an unsorted or duplicate
/// index, a one-hot variable without exactly one `1.0` (a code ≥ its
/// cardinality, or two codes), more nonzeros than a sparse group's
/// `max_nnz`.
pub(crate) fn encode_record(
    out: &mut Vec<u8>,
    schema: &Schema,
    key: u64,
    fks: &[u64],
    target: Option<f64>,
    row: BlockVec<'_>,
) -> Result<(), String> {
    if let BlockVec::OneHot(idx) | BlockVec::Csr { idx, .. } = row {
        if let Some(w) = idx.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "unsorted or duplicate index {} after {}",
                w[1], w[0]
            ));
        }
        if let Some(&i) = idx.last().filter(|&&i| i as usize >= schema.num_features) {
            return Err(format!("index {i} ≥ width {}", schema.num_features));
        }
    }
    if let BlockVec::Csr { idx, vals } = row {
        if idx.len() != vals.len() {
            return Err(format!("{} indices for {} values", idx.len(), vals.len()));
        }
    }
    out.extend_from_slice(&key.to_le_bytes());
    for fk in fks {
        out.extend_from_slice(&fk.to_le_bytes());
    }
    if let Some(y) = target {
        out.extend_from_slice(&y.to_le_bytes());
    }
    let mut start = 0;
    for group in schema.groups() {
        let cols = start..start + group.width();
        start = cols.end;
        let at = out.len();
        out.resize(at + group.encoded_size(), 0);
        let bytes = &mut out[at..];
        let mut nonzero = entries(row, cols.clone());
        match group {
            FeatureGroup::Dense(_) => match row {
                BlockVec::Dense(x) => {
                    for (b, v) in bytes.chunks_exact_mut(8).zip(&x[cols]) {
                        b.copy_from_slice(&v.to_le_bytes());
                    }
                }
                _ => {
                    for (j, v) in nonzero {
                        bytes[8 * j..8 * j + 8].copy_from_slice(&v.to_le_bytes());
                    }
                }
            },
            FeatureGroup::OneHot { cardinalities } => {
                let mut var = 0;
                for (v, (b, &card)) in bytes.chunks_exact_mut(4).zip(cardinalities).enumerate() {
                    let code = match nonzero.next() {
                        Some((j, x)) if j >= var && x.to_bits() == 1f64.to_bits() => j - var,
                        Some((j, x)) if j >= var => {
                            return Err(format!("one-hot value {x} in column {j}"))
                        }
                        _ => return Err(format!("one-hot variable {v} has no single code")),
                    };
                    if code >= card {
                        return Err(format!(
                            "one-hot variable {v}: code {code} ≥ cardinality {card}"
                        ));
                    }
                    b.copy_from_slice(&(code as u32).to_le_bytes());
                    var += card;
                }
                if nonzero.next().is_some() {
                    return Err("a one-hot variable has two codes".to_string());
                }
            }
            FeatureGroup::SparseNumeric { max_nnz, .. } => {
                for pair in bytes.chunks_exact_mut(12) {
                    let (i, v) = nonzero.next().map_or((PAD, 0.0), |(j, v)| (j as u32, v));
                    pair[..4].copy_from_slice(&i.to_le_bytes());
                    pair[4..].copy_from_slice(&v.to_le_bytes());
                }
                let extra = nonzero.count();
                if extra > 0 {
                    return Err(format!("{} nonzeros > max_nnz {max_nnz}", max_nnz + extra));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::batch::RowBlock;
    use crate::page::Page;
    use crate::{IoStats, Relation};

    /// Decodes every record of `page` through the store's one decoder.
    fn decode(schema: &Schema, page: &Page) -> StoreResult<RowBlock> {
        let mut rows = RowBlock::default();
        rows.decode(schema, page.view(), 0..page.view().len())?;
        Ok(rows)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let schema = Schema::fact_with_target("s", 3, 2);
        let t = Tuple::fact_with_target(7, vec![11, 13], 0.5, vec![1.0, -2.0, 3.5]);
        let mut buf = Vec::new();
        let features = BlockVec::Dense(&t.features);
        encode_record(&mut buf, &schema, t.key, &t.fks, t.target, features).unwrap();
        assert_eq!(buf.len(), schema.record_size());
        let mut page = Page::new(buf.len()).unwrap();
        page.push(&buf).unwrap();
        let back = decode(&schema, &page).unwrap();
        assert_eq!(back.tuple(0), t);
    }

    #[test]
    fn decode_short_buffer_is_error() {
        // records shorter *or longer* than the schema's never decode
        let schema = Schema::dimension("r", 2);
        for record_size in [4, schema.record_size() + 8] {
            let mut page = Page::new(record_size).unwrap();
            page.push(&vec![0u8; record_size]).unwrap();
            let err = decode(&schema, &page).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains("'r'")),
                "{err}"
            );
        }
    }

    #[test]
    fn validate_detects_mismatches() {
        let schema = Schema::fact_with_target("s", 2, 1);
        let mut rel = crate::Relation::in_memory(schema, crate::IoStats::new()).unwrap();
        let ok = Tuple::fact_with_target(1, vec![2], 1.0, vec![0.0, 0.0]);
        assert!(rel.append(&ok).is_ok());
        for bad in [
            Tuple::fact_with_target(1, vec![2], 1.0, vec![0.0]), // wrong feature count
            Tuple::fact_with_target(1, vec![], 1.0, vec![0.0, 0.0]), // wrong fk count
            Tuple::fact(1, vec![2], vec![0.0, 0.0]),             // missing target
        ] {
            let err = rel.append(&bad).unwrap_err();
            assert!(matches!(err, StoreError::SchemaMismatch { .. }), "{err}");
        }
        assert_eq!(rel.num_tuples(), 1, "a rejected tuple is not stored");
    }

    #[test]
    fn joined_concatenates_features_in_order() {
        let s = Tuple::fact_with_target(3, vec![10, 20], 1.5, vec![1.0, 2.0]);
        let r1 = Tuple::dimension(10, vec![3.0]);
        let r2 = Tuple::dimension(20, vec![4.0, 5.0]);
        let t = Tuple::joined(&s, [&r1.features[..], &r2.features[..]]);
        assert_eq!(t.key, 3);
        assert_eq!(t.target, Some(1.5));
        assert!(t.fks.is_empty());
        assert_eq!(t.features, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn tuple_id_ordering() {
        let a = TupleId::new(0, 5);
        let b = TupleId::new(1, 0);
        assert!(a < b);
    }

    #[test]
    fn an_all_dense_record_keeps_its_bytes() {
        // key 7 | fk 3 | target 0.5 | features 1.0, -2.0: five little-endian
        // 8-byte fields, the layout heap files written before typed groups
        // hold, so they still open and decode
        let schema = Schema::fact_with_target("s", 2, 1);
        let mut buf = Vec::new();
        let features = BlockVec::Dense(&[1.0, -2.0]);
        encode_record(&mut buf, &schema, 7, &[3], Some(0.5), features).unwrap();
        #[rustfmt::skip]
        let golden: [u8; 40] = [
            7, 0, 0, 0, 0, 0, 0, 0,
            3, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F,
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F,
            0, 0, 0, 0, 0, 0, 0, 0xC0,
        ];
        assert_eq!(buf, golden);
    }

    /// One group of each kind: 2 dense columns (0–1), one-hot variables of 3
    /// and 2 categories (columns 2–4 and 5–6), 6 sparse columns (7–12) of
    /// which at most 2 are nonzero.
    fn typed() -> Relation {
        let schema = Schema::fact_with_target("s", 0, 1).with_groups(vec![
            FeatureGroup::Dense(2),
            FeatureGroup::OneHot {
                cardinalities: vec![3, 2],
            },
            FeatureGroup::SparseNumeric {
                width: 6,
                max_nnz: 2,
            },
        ]);
        Relation::in_memory(schema, IoStats::new()).unwrap()
    }

    #[test]
    fn typed_groups_store_codes_and_pairs_and_decode_to_the_same_row() {
        let mut rel = typed();
        assert_eq!(rel.schema().record_size(), 24 + 16 + 8 + 24);
        let row = BlockVec::Csr {
            idx: &[0, 1, 3, 6, 8, 12],
            vals: &[1.5, -0.5, 1.0, 1.0, 2.5, -4.0],
        };
        let expanded = [
            1.5, -0.5, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 2.5, 0.0, 0.0, 0.0, -4.0,
        ];
        rel.append_row(9, &[4], Some(1.0), row).unwrap();
        rel.append_row(10, &[4], Some(1.0), BlockVec::Dense(&expanded))
            .unwrap();
        let mut back = RowBlock::default();
        rel.decode_page_into(0, &mut back).unwrap();
        for r in 0..2 {
            assert_eq!(back.row(r), row);
            assert_eq!(back.dense_row(r), expanded);
        }
        let mut expanding = RowBlock::expanding();
        rel.decode_page_into(0, &mut expanding).unwrap();
        assert_eq!(expanding.row(1), BlockVec::Dense(&expanded));
    }

    #[test]
    fn rows_the_groups_cannot_store_are_typed_errors() {
        let mut rel = typed();
        let cases: [(&[u32], &[f64], &str); 6] = [
            (&[5, 6], &[1.0, 1.0], "code 3 ≥ cardinality 3"),
            (&[2, 5, 7, 8, 9], &[1.0; 5], "3 nonzeros > max_nnz 2"),
            (&[5, 2], &[1.0; 2], "unsorted or duplicate index 2 after 5"),
            (
                &[2, 2, 5],
                &[1.0; 3],
                "unsorted or duplicate index 2 after 2",
            ),
            (&[2, 5, 13], &[1.0; 3], "index 13 ≥ width 13"),
            (&[2, 5], &[0.5, 1.0], "one-hot value 0.5 in column 0"),
        ];
        for (idx, vals, want) in cases {
            let err = rel
                .append_row(1, &[0], Some(0.0), BlockVec::Csr { idx, vals })
                .unwrap_err();
            assert!(
                matches!(&err, StoreError::SchemaMismatch { relation, detail }
                    if relation == "s" && detail.contains(want)),
                "{idx:?}: {err}"
            );
        }
        // a dense row whose one-hot variable holds no 1.0
        let mut x = [0.0; 13];
        x[2] = 1.0;
        let err = rel
            .append_row(1, &[0], Some(0.0), BlockVec::Dense(&x))
            .unwrap_err();
        assert!(
            err.to_string().contains("variable 1 has no single code"),
            "{err}"
        );
        assert_eq!(rel.num_tuples(), 0, "a rejected row is not stored");
    }
}
