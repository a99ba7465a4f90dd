//! Fixed-size pages holding fixed-width records.
//!
//! Page layout:
//!
//! ```text
//! +-----------+-----------------+---------------------------------------+
//! | count u16 | record_size u16 | record 0 | record 1 | … | free space  |
//! +-----------+-----------------+---------------------------------------+
//! ```
//!
//! All records in a page have the same width (the schema is fixed per relation),
//! so slot addressing is pure arithmetic.  The 4-byte header keeps the payload
//! capacity at `PAGE_SIZE - 4` bytes.
//!
//! A [`Page`] owns its bytes and is what the write path fills; reads borrow
//! the stored bytes as a [`PageRef`], whose constructor is the one header
//! check every read path makes.

use crate::error::{StoreError, StoreResult};
use crate::PAGE_SIZE;

/// Number of bytes reserved for the page header.
pub const PAGE_HEADER: usize = 4;

/// A single fixed-size page, owned — the unit the write path fills.
#[derive(Clone)]
pub struct Page {
    data: Vec<u8>,
}

impl Page {
    /// Creates an empty page for records of the given size.
    ///
    /// # Errors
    /// Returns [`StoreError::RecordTooLarge`] when a single record cannot fit in
    /// the page payload.
    pub fn new(record_size: usize) -> StoreResult<Self> {
        if record_size == 0 || record_size > PAGE_SIZE - PAGE_HEADER {
            return Err(StoreError::RecordTooLarge {
                record_size,
                capacity: PAGE_SIZE - PAGE_HEADER,
            });
        }
        let mut data = vec![0u8; PAGE_SIZE];
        data[2..4].copy_from_slice(&(record_size as u16).to_le_bytes());
        Ok(Self { data })
    }

    /// Raw page bytes (always `PAGE_SIZE` long).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// The page as a read view (valid by construction).
    pub fn view(&self) -> PageRef<'_> {
        PageRef { data: &self.data }
    }

    /// Whether the page has no free slots left.
    pub fn is_full(&self) -> bool {
        self.view().len() >= self.view().capacity()
    }

    /// Appends an encoded record, returning its slot index.
    ///
    /// # Errors
    /// Returns [`StoreError::SlotOutOfRange`] when the page is full and
    /// [`StoreError::Corrupt`] when the record has the wrong width.
    pub fn push(&mut self, record: &[u8]) -> StoreResult<usize> {
        let (slot, rs) = (self.view().len(), self.view().record_size());
        if record.len() != rs {
            return Err(StoreError::Corrupt(format!(
                "record of {} bytes pushed into page with record size {rs}",
                record.len()
            )));
        }
        if self.is_full() {
            return Err(StoreError::SlotOutOfRange {
                slot,
                slots: self.view().capacity(),
            });
        }
        let start = PAGE_HEADER + slot * rs;
        self.data[start..start + rs].copy_from_slice(record);
        self.data[0..2].copy_from_slice(&(slot as u16 + 1).to_le_bytes());
        Ok(slot)
    }
}

/// A borrowed page whose header has been checked against its own bytes — what
/// every read hands the decoder, without copying the page.
#[derive(Clone, Copy)]
pub struct PageRef<'a> {
    data: &'a [u8],
}

impl<'a> PageRef<'a> {
    /// Checks the header of a page read back from a store: `PAGE_SIZE`
    /// bytes, a record size that fits the payload, a count within capacity.
    /// The one header check of every read path.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] naming the violated condition.
    pub fn new(data: &'a [u8]) -> StoreResult<Self> {
        if data.len() != PAGE_SIZE {
            return Err(StoreError::Corrupt(format!(
                "page must be {PAGE_SIZE} bytes, got {}",
                data.len()
            )));
        }
        let page = Self { data };
        let rs = page.record_size();
        if rs == 0 || rs > PAGE_SIZE - PAGE_HEADER {
            return Err(StoreError::Corrupt(format!("invalid record size {rs}")));
        }
        if page.len() > page.capacity() {
            return Err(StoreError::Corrupt(format!(
                "page claims {} records but capacity is {}",
                page.len(),
                page.capacity()
            )));
        }
        Ok(page)
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        u16::from_le_bytes([self.data[0], self.data[1]]) as usize
    }

    /// Whether the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width in bytes of each record.
    pub fn record_size(&self) -> usize {
        u16::from_le_bytes([self.data[2], self.data[3]]) as usize
    }

    /// Maximum number of records the page can hold.
    pub fn capacity(&self) -> usize {
        (PAGE_SIZE - PAGE_HEADER) / self.record_size()
    }

    /// The occupied payload: `len()` records of `record_size()` bytes.
    pub fn records(&self) -> &'a [u8] {
        &self.data[PAGE_HEADER..PAGE_HEADER + self.len() * self.record_size()]
    }

    /// Borrows the record stored at `slot`.
    pub fn record(&self, slot: usize) -> StoreResult<&'a [u8]> {
        if slot >= self.len() {
            return Err(StoreError::SlotOutOfRange {
                slot,
                slots: self.len(),
            });
        }
        let rs = self.record_size();
        Ok(&self.records()[slot * rs..(slot + 1) * rs])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut page = Page::new(16).unwrap();
        assert!(page.view().is_empty());
        assert_eq!(page.view().capacity(), (PAGE_SIZE - PAGE_HEADER) / 16);
        let rec: Vec<u8> = (0u8..16).collect();
        let slot = page.push(&rec).unwrap();
        assert_eq!(slot, 0);
        assert_eq!(page.view().len(), 1);
        assert_eq!(page.view().record(0).unwrap(), rec.as_slice());
    }

    #[test]
    fn fill_to_capacity() {
        let mut page = Page::new(1024).unwrap();
        let rec = vec![7u8; 1024];
        for i in 0..page.view().capacity() {
            assert_eq!(page.push(&rec).unwrap(), i);
        }
        assert!(page.is_full());
        assert!(page.push(&rec).is_err());
    }

    #[test]
    fn wrong_record_width_rejected() {
        let mut page = Page::new(8).unwrap();
        assert!(page.push(&[0u8; 9]).is_err());
    }

    #[test]
    fn record_too_large_rejected() {
        assert!(Page::new(PAGE_SIZE).is_err());
        assert!(Page::new(0).is_err());
        assert!(Page::new(PAGE_SIZE - PAGE_HEADER).is_ok());
    }

    #[test]
    fn slot_out_of_range() {
        let page = Page::new(8).unwrap();
        assert!(matches!(
            page.view().record(0),
            Err(StoreError::SlotOutOfRange { .. })
        ));
    }

    #[test]
    fn bytes_roundtrip() {
        let mut page = Page::new(24).unwrap();
        page.push(&[1u8; 24]).unwrap();
        page.push(&[2u8; 24]).unwrap();
        let bytes = page.as_bytes().to_vec();
        let view = PageRef::new(&bytes).unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(view.record(1).unwrap(), &[2u8; 24]);
        assert_eq!(view.record_size(), 24);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(PageRef::new(&[0u8; 10]).is_err());
        // valid size but zero record size
        assert!(PageRef::new(&[0u8; PAGE_SIZE]).is_err());
    }

    #[test]
    fn iter_yields_all_records() {
        let mut page = Page::new(8).unwrap();
        for i in 0..5u8 {
            page.push(&[i; 8]).unwrap();
        }
        let records = page.view().records().chunks_exact(8);
        let collected: Vec<Vec<u8>> = records.map(|r| r.to_vec()).collect();
        assert_eq!(collected.len(), 5);
        assert_eq!(collected[3], vec![3u8; 8]);
    }
}
