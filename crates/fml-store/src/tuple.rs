//! Tuples and their fixed-width binary encoding.
//!
//! A [`Tuple`] is the row-at-a-time type of the load / CSV / `fetch` / test
//! surface: generators and loaders append tuples, and the row views of
//! [`crate::rows`] hand decoded rows back as tuples.  No scan decodes into
//! one — scans fill [`crate::batch::RowBlock`]s.

use crate::error::{StoreError, StoreResult};
use crate::schema::Schema;
use bytes::BufMut;

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

/// Appends one record in the layout of [`Schema::record_size`] — key, foreign
/// keys, the target if any, then the feature segments in order — and returns
/// the number of features written.
pub(crate) fn encode_record<'a>(
    out: &mut Vec<u8>,
    key: u64,
    fks: &[u64],
    target: Option<f64>,
    features: impl IntoIterator<Item = &'a [f64]>,
) -> usize {
    out.put_u64_le(key);
    for fk in fks {
        out.put_u64_le(*fk);
    }
    if let Some(y) = target {
        out.put_f64_le(y);
    }
    let mut written = 0;
    for x in features.into_iter().flatten() {
        out.put_f64_le(*x);
        written += 1;
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::batch::RowBlock;
    use crate::page::Page;

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
        encode_record(&mut buf, t.key, &t.fks, t.target, [&t.features[..]]);
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
}
