//! Heap files: ordered sequences of pages, on disk or in memory.
//!
//! A [`HeapFile`] owns a [`PageStore`] backend plus a small tail-page write buffer,
//! and reports every page transfer to a shared [`IoStats`] handle.  Reads
//! borrow: a backend lends the stored bytes and [`HeapFile::read_page`] hands
//! them out as a checked [`PageRef`], so no read copies or allocates a page.
//! Two backends are provided:
//!
//! * [`MemPageStore`] — pages held in a `Vec<Vec<u8>>`, lent in place; used
//!   for unit tests and for experiments where only *counted* I/O matters.
//! * [`FilePageStore`] — pages stored in a regular file, read into one
//!   store-owned page buffer; used by the examples so that the materialized
//!   variants actually pay the cost of writing the join result.

use crate::error::{StoreError, StoreResult};
use crate::page::{Page, PageRef};
use crate::stats::IoStats;
use crate::PAGE_SIZE;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Abstraction over where pages physically live.
pub trait PageStore: Send {
    /// Number of pages currently stored.
    fn num_pages(&self) -> usize;
    /// Borrows the bytes of page `idx`, unchecked ([`HeapFile::read_page`]
    /// checks the header).  No page is copied or allocated per read.
    fn read_page(&mut self, idx: usize) -> StoreResult<&[u8]>;
    /// Overwrites page `idx`, or appends it when `idx == num_pages()`.
    fn write_page(&mut self, idx: usize, page: &Page) -> StoreResult<()>;
}

fn out_of_range(page: usize, pages: usize) -> StoreError {
    StoreError::PageOutOfRange { page, pages }
}

/// In-memory page store.
#[derive(Default)]
pub struct MemPageStore {
    pages: Vec<Vec<u8>>,
}

impl MemPageStore {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageStore for MemPageStore {
    fn num_pages(&self) -> usize {
        self.pages.len()
    }

    fn read_page(&mut self, idx: usize) -> StoreResult<&[u8]> {
        let pages = self.pages.len();
        (self.pages.get(idx).map(Vec::as_slice)).ok_or(out_of_range(idx, pages))
    }

    fn write_page(&mut self, idx: usize, page: &Page) -> StoreResult<()> {
        let (bytes, pages) = (page.as_bytes().to_vec(), self.pages.len());
        match self.pages.get_mut(idx) {
            Some(stored) => *stored = bytes,
            None if idx == pages => self.pages.push(bytes),
            None => return Err(out_of_range(idx, pages)),
        }
        Ok(())
    }
}

/// File-backed page store.  Reads land in one store-owned page buffer.
pub struct FilePageStore {
    file: File,
    num_pages: usize,
    buf: Vec<u8>,
}

impl FilePageStore {
    /// Creates (truncating) a page file at `path`.
    pub fn create(path: &Path) -> StoreResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self::over(file, 0))
    }

    /// Opens an existing page file at `path`.
    pub fn open(path: &Path) -> StoreResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len() as usize;
        if !len.is_multiple_of(PAGE_SIZE) {
            return Err(StoreError::Corrupt(format!(
                "file length {len} is not a multiple of the page size"
            )));
        }
        Ok(Self::over(file, len / PAGE_SIZE))
    }

    fn over(file: File, num_pages: usize) -> Self {
        Self {
            file,
            num_pages,
            buf: vec![0u8; PAGE_SIZE],
        }
    }
}

impl PageStore for FilePageStore {
    fn num_pages(&self) -> usize {
        self.num_pages
    }

    fn read_page(&mut self, idx: usize) -> StoreResult<&[u8]> {
        if idx >= self.num_pages {
            return Err(out_of_range(idx, self.num_pages));
        }
        self.file.seek(SeekFrom::Start((idx * PAGE_SIZE) as u64))?;
        self.file
            .read_exact(&mut self.buf)
            .map_err(|e| match e.kind() {
                ErrorKind::UnexpectedEof => StoreError::Corrupt(format!("page {idx} is truncated")),
                _ => StoreError::Io(e),
            })?;
        Ok(&self.buf)
    }

    fn write_page(&mut self, idx: usize, page: &Page) -> StoreResult<()> {
        if idx > self.num_pages {
            return Err(out_of_range(idx, self.num_pages));
        }
        self.file.seek(SeekFrom::Start((idx * PAGE_SIZE) as u64))?;
        self.file.write_all(page.as_bytes())?;
        self.num_pages = self.num_pages.max(idx + 1);
        Ok(())
    }
}

/// A heap file of fixed-width records with a tail-page append buffer.
pub struct HeapFile {
    store: Box<dyn PageStore>,
    record_size: usize,
    stats: IoStats,
    /// Partially filled tail page not yet flushed, with its page index if it was
    /// already appended once.
    tail: Option<(Option<usize>, Page)>,
    num_records: u64,
}

impl HeapFile {
    /// Creates a heap file for records of `record_size` bytes on the given backend.
    pub fn new(
        mut store: Box<dyn PageStore>,
        record_size: usize,
        stats: IoStats,
    ) -> StoreResult<Self> {
        // Validate record size eagerly (Page::new performs the check).
        Page::new(record_size)?;
        // If reopening an existing store, count records without charging stats.
        let mut num_records = 0u64;
        for i in 0..store.num_pages() {
            num_records += PageRef::new(store.read_page(i)?)?.len() as u64;
        }
        Ok(Self {
            store,
            record_size,
            stats,
            tail: None,
            num_records,
        })
    }

    /// Creates an in-memory heap file.
    pub fn in_memory(record_size: usize, stats: IoStats) -> StoreResult<Self> {
        Self::new(Box::new(MemPageStore::new()), record_size, stats)
    }

    /// Width of each record.
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    /// Shared I/O statistics handle.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Total number of records appended.
    pub fn num_records(&self) -> u64 {
        self.num_records
    }

    /// Maximum number of records per page for this record size.
    pub fn records_per_page(&self) -> usize {
        (PAGE_SIZE - crate::page::PAGE_HEADER) / self.record_size
    }

    /// Appends one encoded record.
    pub fn append(&mut self, record: &[u8]) -> StoreResult<()> {
        let (_, page) = match &mut self.tail {
            Some(tail) => tail,
            empty => empty.insert((None, Page::new(self.record_size)?)),
        };
        page.push(record)?;
        self.num_records += 1;
        self.stats.add_tuples_written(1);
        if page.is_full() {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes the tail page (if any) to the backend.
    pub fn flush(&mut self) -> StoreResult<()> {
        if let Some((idx, page)) = self.tail.take() {
            let i = idx.unwrap_or(self.store.num_pages());
            self.store.write_page(i, &page)?;
            self.stats.add_pages_written(1);
            if !page.is_full() {
                self.tail = Some((Some(i), page));
            }
        }
        Ok(())
    }

    /// Borrows page `idx` after checking its header, charging one page read
    /// to the stats.  The unflushed tail is served from memory and charged
    /// the same, so every algorithm variant pays identically for scanning
    /// its input.
    pub fn read_page(&mut self, idx: usize) -> StoreResult<PageRef<'_>> {
        let bytes = match &self.tail {
            Some((Some(i), page)) if *i == idx => page.as_bytes(),
            Some((None, page)) if idx == self.store.num_pages() => page.as_bytes(),
            _ => self.store.read_page(idx)?,
        };
        let page = PageRef::new(bytes)?;
        self.stats.add_pages_read(1);
        Ok(page)
    }

    /// Number of pages that a scan must touch (flushed pages plus tail).
    pub fn scan_pages(&self) -> usize {
        self.store.num_pages() + usize::from(matches!(self.tail, Some((None, _))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(v: u8, size: usize) -> Vec<u8> {
        vec![v; size]
    }

    #[test]
    fn append_and_read_in_memory() {
        let stats = IoStats::new();
        let mut heap = HeapFile::in_memory(8, stats.clone()).unwrap();
        for i in 0..10u8 {
            heap.append(&record(i, 8)).unwrap();
        }
        heap.flush().unwrap();
        assert_eq!(heap.num_records(), 10);
        assert_eq!(heap.scan_pages(), 1);
        let page = heap.read_page(0).unwrap();
        assert_eq!(page.len(), 10);
        assert_eq!(page.record(3).unwrap(), record(3, 8).as_slice());
        assert!(stats.snapshot().pages_written >= 1);
        assert_eq!(stats.snapshot().tuples_written, 10);
        assert_eq!(stats.snapshot().pages_read, 1);
    }

    #[test]
    fn spills_to_multiple_pages() {
        let stats = IoStats::new();
        // large records so a page fills quickly
        let record_size = 2048;
        let per_page = (PAGE_SIZE - crate::page::PAGE_HEADER) / record_size;
        let mut heap = HeapFile::in_memory(record_size, stats).unwrap();
        let total = per_page * 3 + 1;
        for i in 0..total {
            heap.append(&record(i as u8, record_size)).unwrap();
        }
        heap.flush().unwrap();
        assert_eq!(heap.num_records() as usize, total);
        assert_eq!(heap.scan_pages(), 4);
        // read all pages back and count records
        let mut seen = 0;
        for p in 0..heap.scan_pages() {
            seen += heap.read_page(p).unwrap().len();
        }
        assert_eq!(seen, total);
    }

    #[test]
    fn unflushed_tail_is_readable() {
        let stats = IoStats::new();
        let mut heap = HeapFile::in_memory(8, stats).unwrap();
        heap.append(&record(9, 8)).unwrap();
        // no flush: page 0 lives only in the tail buffer
        assert_eq!(heap.scan_pages(), 1);
        let page = heap.read_page(0).unwrap();
        assert_eq!(page.len(), 1);
    }

    #[test]
    fn file_backed_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fml_store_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap_roundtrip.pages");
        let stats = IoStats::new();
        {
            let store = FilePageStore::create(&path).unwrap();
            let mut heap = HeapFile::new(Box::new(store), 16, stats.clone()).unwrap();
            for i in 0..100u8 {
                heap.append(&record(i, 16)).unwrap();
            }
            heap.flush().unwrap();
        }
        {
            let store = FilePageStore::open(&path).unwrap();
            let mut heap = HeapFile::new(Box::new(store), 16, stats).unwrap();
            assert_eq!(heap.num_records(), 100);
            let page = heap.read_page(0).unwrap();
            assert_eq!(page.record(5).unwrap(), record(5, 16).as_slice());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_past_end_is_error() {
        let stats = IoStats::new();
        let mut heap = HeapFile::in_memory(8, stats).unwrap();
        assert!(heap.read_page(0).is_err());
    }
}
