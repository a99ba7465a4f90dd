//! Error types for the storage engine.

use std::fmt;

/// Result alias used throughout the crate.
pub type StoreResult<T> = Result<T, StoreError>;

/// Errors raised by the storage engine.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A relation with this name already exists in the catalog.
    RelationExists(String),
    /// No relation with this name exists in the catalog.
    UnknownRelation(String),
    /// A tuple did not match the relation's schema.
    SchemaMismatch {
        /// Relation whose schema was violated.
        relation: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A page index was out of range for the heap file.
    PageOutOfRange {
        /// Requested page index.
        page: usize,
        /// Number of pages in the file.
        pages: usize,
    },
    /// A record slot was out of range within a page.
    SlotOutOfRange {
        /// Requested slot.
        slot: usize,
        /// Number of occupied slots.
        slots: usize,
    },
    /// The record is too large to ever fit in a page.
    RecordTooLarge {
        /// Size of one record in bytes.
        record_size: usize,
        /// Page payload capacity in bytes.
        capacity: usize,
    },
    /// A foreign key referenced a primary key that does not exist.
    DanglingForeignKey {
        /// Referencing relation.
        relation: String,
        /// The missing key value.
        key: u64,
    },
    /// A training pass met a NaN or infinite feature in the join: its
    /// objective or gradient is no longer finite.
    NonFiniteFeature {
        /// The join's fact relation.
        relation: String,
    },
    /// A session was asked to fit or score before it was given a join: it
    /// has nothing to run over.
    NoJoin,
    /// Stored bytes could not be decoded.
    Corrupt(String),
    /// A CSV file could not be parsed.
    Csv(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::RelationExists(n) => write!(f, "relation '{n}' already exists"),
            StoreError::UnknownRelation(n) => write!(f, "unknown relation '{n}'"),
            StoreError::SchemaMismatch { relation, detail } => {
                write!(f, "schema mismatch for relation '{relation}': {detail}")
            }
            StoreError::PageOutOfRange { page, pages } => {
                write!(f, "page {page} out of range (file has {pages} pages)")
            }
            StoreError::SlotOutOfRange { slot, slots } => {
                write!(f, "slot {slot} out of range (page has {slots} slots)")
            }
            StoreError::RecordTooLarge {
                record_size,
                capacity,
            } => write!(
                f,
                "record of {record_size} bytes cannot fit a page payload of {capacity} bytes"
            ),
            StoreError::DanglingForeignKey { relation, key } => {
                write!(
                    f,
                    "foreign key {key} in relation '{relation}' has no referenced tuple"
                )
            }
            StoreError::NonFiniteFeature { relation } => write!(
                f,
                "a feature of the join over fact relation '{relation}' is NaN or infinite"
            ),
            StoreError::NoJoin => write!(
                f,
                "the session has no join to run over: call Session::join(spec) first"
            ),
            StoreError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
            StoreError::Csv(msg) => write!(f, "csv error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StoreError::UnknownRelation("orders".into());
        assert!(e.to_string().contains("orders"));
        let e = StoreError::PageOutOfRange { page: 9, pages: 3 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('3'));
        let e = StoreError::DanglingForeignKey {
            relation: "S".into(),
            key: 42,
        };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn io_error_conversion_preserves_source() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: StoreError = io.into();
        assert!(matches!(e, StoreError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
