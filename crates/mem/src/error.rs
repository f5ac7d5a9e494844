//! Typed errors for fallible memory-substrate operations.
//!
//! The simulator's library paths prefer `Result` over `panic!` so a harness
//! (e.g. the `figures` binary) can report a bad configuration per-experiment
//! instead of aborting the whole run. The panicking constructors remain as
//! thin wrappers for internal callers with already-validated inputs.

use std::fmt;

use crate::address::LINE_SIZE;
use crate::placement::MAX_GPMS;

/// Errors raised by the memory substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The requested GPM count is outside the supported `1..=16` range.
    TooManyGpms {
        /// The rejected count.
        requested: usize,
    },
    /// The page table would exceed its addressable capacity.
    PageTableExhausted {
        /// Pages the caller asked to place.
        requested_pages: u64,
        /// Pages the table can hold.
        capacity_pages: u64,
    },
    /// A cache level has no ways or too little capacity for one set.
    InvalidCache {
        /// `"L1"` or `"L2"`.
        level: &'static str,
        /// The rejected capacity in bytes.
        bytes: u64,
        /// The rejected associativity.
        ways: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::TooManyGpms { requested } => {
                write!(f, "supported GPM counts are 1..={MAX_GPMS}, got {requested}")
            }
            MemError::PageTableExhausted { requested_pages, capacity_pages } => write!(
                f,
                "page table exhausted: {requested_pages} pages requested, \
                 capacity is {capacity_pages}"
            ),
            MemError::InvalidCache { level, bytes, ways } => write!(
                f,
                "{level} cache of {bytes} bytes and {ways} ways cannot hold one set of \
                 {LINE_SIZE}-byte lines"
            ),
        }
    }
}

impl std::error::Error for MemError {}
