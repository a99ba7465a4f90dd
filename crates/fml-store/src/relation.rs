//! Relations: a schema plus a heap file of encoded tuples.

use crate::batch::RowBlock;
use crate::error::StoreResult;
use crate::heap::HeapFile;
use crate::schema::Schema;
use crate::stats::IoStats;
use crate::tuple::{check_shape, encode_record, Tuple, TupleId};
use crate::StoreError;
use fml_linalg::BlockVec;

/// A stored relation.
pub struct Relation {
    schema: Schema,
    heap: HeapFile,
    encode_buf: Vec<u8>,
}

impl Relation {
    /// Creates a relation over an existing heap file.
    ///
    /// The heap's record size must match the schema's record size.
    pub fn new(schema: Schema, heap: HeapFile) -> Self {
        assert_eq!(
            heap.record_size(),
            schema.record_size(),
            "heap record size does not match schema '{}'",
            schema.name
        );
        Self {
            schema,
            heap,
            encode_buf: Vec::new(),
        }
    }

    /// Creates an in-memory relation.
    pub fn in_memory(schema: Schema, stats: IoStats) -> StoreResult<Self> {
        let heap = HeapFile::in_memory(schema.record_size(), stats)?;
        Ok(Self::new(schema, heap))
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Shared I/O statistics handle.
    pub fn stats(&self) -> &IoStats {
        self.heap.stats()
    }

    /// Number of tuples stored.
    pub fn num_tuples(&self) -> u64 {
        self.heap.num_records()
    }

    /// Number of pages a full scan must read (the `|S|`, `|R|`, `|T|` of the
    /// paper's I/O cost formulas).
    pub fn num_pages(&self) -> usize {
        self.heap.scan_pages()
    }

    /// Number of tuples that fit in one page.
    pub fn tuples_per_page(&self) -> usize {
        self.heap.records_per_page()
    }

    /// Appends a tuple — its features expanded to dense — after validating
    /// it against the schema.
    pub fn append(&mut self, tuple: &Tuple) -> StoreResult<()> {
        let features = BlockVec::Dense(&tuple.features);
        self.append_row(tuple.key, &tuple.fks, tuple.target, features)
    }

    /// Appends one record given by its fields, the features in any form —
    /// dense, or the active indices / nonzero pairs over all the relation's
    /// columns — stored as the schema's feature groups lay them out.
    ///
    /// # Errors
    /// [`StoreError::SchemaMismatch`] when the fields do not fill the schema
    /// or the groups cannot store the features: an unsorted or duplicate
    /// index, a one-hot variable without exactly one `1.0` (a code ≥ its
    /// cardinality), more nonzeros than a sparse group's `max_nnz`.
    pub fn append_row(
        &mut self,
        key: u64,
        fks: &[u64],
        target: Option<f64>,
        features: BlockVec<'_>,
    ) -> StoreResult<()> {
        let width = match features {
            BlockVec::Dense(x) => x.len(),
            _ => self.schema.num_features,
        };
        check_shape(&self.schema, fks.len(), target.is_some(), width)?;
        self.encode_buf.clear();
        encode_record(
            &mut self.encode_buf,
            &self.schema,
            key,
            fks,
            target,
            features,
        )
        .map_err(|detail| StoreError::SchemaMismatch {
            relation: self.schema.name.clone(),
            detail,
        })?;
        self.heap.append(&self.encode_buf)
    }

    /// Appends many tuples and flushes the tail page.
    pub fn append_all<'a>(
        &mut self,
        tuples: impl IntoIterator<Item = &'a Tuple>,
    ) -> StoreResult<()> {
        for t in tuples {
            self.append(t)?;
        }
        self.flush()
    }

    /// Flushes buffered writes to the backend.
    pub fn flush(&mut self) -> StoreResult<()> {
        self.heap.flush()
    }

    /// Decodes the records of page `page_idx` onto the end of `out`, charging
    /// one page read plus the decoded tuples and fields to the stats.  The
    /// page is borrowed, never copied; `out` must be empty or hold rows of
    /// this relation.
    ///
    /// # Errors
    /// A page whose header fails [`crate::page::PageRef::new`] or whose
    /// record size is not the schema's is [`crate::StoreError::Corrupt`].
    pub fn decode_page_into(&mut self, page_idx: usize, out: &mut RowBlock) -> StoreResult<()> {
        self.decode_into(page_idx, None, out)
    }

    /// [`Self::decode_page_into`] for every slot, or for `slot` alone.
    fn decode_into(
        &mut self,
        page_idx: usize,
        slot: Option<usize>,
        out: &mut RowBlock,
    ) -> StoreResult<()> {
        let page = self.heap.read_page(page_idx)?;
        let slots = match slot {
            Some(s) => page.record(s).map(|_| s..s + 1)?,
            None => 0..page.len(),
        };
        let n = slots.len() as u64;
        out.decode(&self.schema, page, slots)?;
        self.stats().add_tuples_read(n);
        self.stats()
            .add_fields_read(n * self.schema.fields_per_record() as u64);
        Ok(())
    }

    /// Fetches a single tuple by id (reads its whole page, as a real system
    /// would, and decodes the one record).
    pub fn fetch(&mut self, id: TupleId) -> StoreResult<Tuple> {
        let mut row = RowBlock::expanding();
        self.decode_into(id.page as usize, Some(id.slot as usize), &mut row)?;
        Ok(row.tuple(0))
    }

    /// The tuples of page `page_idx`: a row view of [`Self::decode_page_into`].
    pub fn read_page_tuples(&mut self, page_idx: usize) -> StoreResult<Vec<Tuple>> {
        let mut rows = RowBlock::expanding();
        self.decode_page_into(page_idx, &mut rows)?;
        Ok(rows.tuples())
    }

    /// Reads the entire relation as tuples (test / load-surface helper).
    pub fn read_all(&mut self) -> StoreResult<Vec<Tuple>> {
        let mut rows = RowBlock::expanding();
        for p in 0..self.num_pages() {
            self.decode_page_into(p, &mut rows)?;
        }
        Ok(rows.tuples())
    }
}

impl std::fmt::Debug for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Relation {{ name: {}, tuples: {}, pages: {} }}",
            self.name(),
            self.num_tuples(),
            self.num_pages()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreError;

    fn sample_relation(n: u64) -> Relation {
        let schema = Schema::fact_with_target("s", 3, 1);
        let mut rel = Relation::in_memory(schema, IoStats::new()).unwrap();
        for i in 0..n {
            rel.append(&Tuple::fact_with_target(
                i,
                vec![i % 10],
                i as f64,
                vec![i as f64, -(i as f64), 0.5],
            ))
            .unwrap();
        }
        rel.flush().unwrap();
        rel
    }

    #[test]
    fn append_scan_roundtrip() {
        let mut rel = sample_relation(500);
        assert_eq!(rel.num_tuples(), 500);
        let all = rel.read_all().unwrap();
        assert_eq!(all.len(), 500);
        assert_eq!(all[42].key, 42);
        assert_eq!(all[42].fks, vec![2]);
        assert_eq!(all[42].target, Some(42.0));
        assert_eq!(all[42].features[1], -42.0);
    }

    #[test]
    fn schema_violation_rejected() {
        let schema = Schema::dimension("r", 2);
        let mut rel = Relation::in_memory(schema, IoStats::new()).unwrap();
        assert!(rel.append(&Tuple::dimension(1, vec![1.0])).is_err());
        assert!(rel
            .append(&Tuple::fact(1, vec![3], vec![1.0, 2.0]))
            .is_err());
        assert!(rel.append(&Tuple::dimension(1, vec![1.0, 2.0])).is_ok());
    }

    #[test]
    fn page_reads_are_counted() {
        let mut rel = sample_relation(500);
        rel.stats().reset();
        let _ = rel.read_all().unwrap();
        let snap = rel.stats().snapshot();
        assert_eq!(snap.pages_read as usize, rel.num_pages());
        assert_eq!(snap.tuples_read, 500);
        // 1 key + 1 fk + 1 target + 3 features = 6 fields per tuple
        assert_eq!(snap.fields_read, 500 * 6);
    }

    #[test]
    fn fetch_by_tuple_id() {
        let mut rel = sample_relation(300);
        let page = rel.read_page_tuples(1).unwrap();
        rel.stats().reset();
        let fetched = rel.fetch(TupleId::new(1, 7)).unwrap();
        assert_eq!(fetched, page[7]);
        let snap = rel.stats().snapshot();
        assert_eq!(
            (snap.pages_read, snap.tuples_read, snap.fields_read),
            (1, 1, 6)
        );
        let past_end = TupleId::new(1, page.len() as u16);
        assert!(matches!(
            rel.fetch(past_end),
            Err(StoreError::SlotOutOfRange { .. })
        ));
    }

    #[test]
    fn multi_page_relations_report_page_counts() {
        let rel = sample_relation(5000);
        assert!(rel.num_pages() > 1);
        assert_eq!(
            rel.tuples_per_page(),
            (crate::PAGE_SIZE - crate::page::PAGE_HEADER) / rel.schema().record_size()
        );
    }
}
