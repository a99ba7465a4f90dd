//! # fml-store
//!
//! A small paged relational storage engine — the substrate on which the paper's
//! three training strategies (materialize / stream / factorize) are compared.
//! It replaces the PostgreSQL + psycopg2 layer used by the original evaluation
//! with a self-contained Rust implementation that exposes exactly the primitives
//! the algorithms need:
//!
//! * **Slotted pages & heap files** ([`page`], [`heap`]): fixed-size 8 KiB pages
//!   holding fixed-width records, stored either on disk or in memory.  Reads
//!   borrow the stored bytes; no page is copied per read.
//! * **Relations, schemas & catalog** ([`schema`], [`mod@tuple`], [`relation`],
//!   [`catalog`]): typed relations with a `u64` primary key, optional foreign keys,
//!   an optional training target, and `f64` feature columns.
//! * **Block scans** ([`batch`]): block-wise iteration (a "block" is a fixed number
//!   of pages) as assumed by the paper's block-nested-loop cost analysis, each
//!   block decoded straight from the page bytes into a reused struct-of-arrays
//!   [`batch::RowBlock`] — keys, foreign keys, targets, row-major features.
//! * **Joins** ([`join`], [`factorized_scan`]): one pass shape over a PK/FK join —
//!   a window of dimension rows resident, the fact relation scanned against it
//!   in blocks, every foreign key resolved to a dense ordinal — from which the
//!   join is materialized as a new relation (`M-*`), streamed as denormalized
//!   rows (`S-*`) or consumed factorized (`F-*`).
//! * **Row views** ([`rows`]): [`Tuple`] is the row-at-a-time type of the
//!   load / CSV / `fetch` / test surface only.  The `Vec<Tuple>` scans there are
//!   thin views over the blocks, kept for the `benchmark/` package's probes.
//! * **I/O accounting** ([`stats`]): page read/write and field read counters so the
//!   paper's I/O cost formulas can be validated against observed behaviour.
//!
//! The engine is intentionally single-threaded per relation (training is
//! sequential in the paper); interior mutability uses `parking_lot` locks so scans
//! can share the catalog.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod catalog;
pub mod csv;
pub mod error;
pub mod factorized_scan;
pub mod heap;
pub mod join;
pub mod page;
pub mod relation;
pub mod rows;
pub mod schema;
pub mod stats;
pub mod tuple;

pub use catalog::Database;
pub use error::{StoreError, StoreResult};
pub use join::JoinSpec;
pub use relation::Relation;
pub use schema::Schema;
pub use stats::{IoSnapshot, IoStats};
pub use tuple::{Tuple, TupleId};

/// Size of a storage page in bytes (matches the PostgreSQL default the paper's
/// cost analysis implicitly assumes).
pub const PAGE_SIZE: usize = 8192;

/// Default number of pages read together as one "block" by block-nested-loop
/// style scans (`BlockSize` in the paper's I/O cost formulas).
pub const DEFAULT_BLOCK_PAGES: usize = 64;
