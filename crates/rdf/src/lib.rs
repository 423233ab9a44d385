//! # swans-rdf
//!
//! The RDF data model underlying the `swans` reproduction of
//! *"Column-Store Support for RDF Data Management: not all swans are white"*
//! (Sidirourgos et al., VLDB 2008).
//!
//! An RDF data set is a bag of *triples* `(subject, property, object)`.
//! Following the paper (and its appendix: *"the actual queries use integer
//! predicates, since all strings are encoded on a dictionary structure"*),
//! every term is interned in a global [`Dictionary`] and all downstream
//! processing happens on dense integer [`Id`]s.
//!
//! This crate provides:
//!
//! * [`Dictionary`] — string ↔ [`Id`] interning, stored as `Arc`-shared
//!   sealed segments plus a mutable tail so clones share their terms,
//! * [`Triple`] and the six [`SortOrder`] permutations used by the storage
//!   schemes (SPO, PSO, ...),
//! * [`Dataset`] — an in-memory triple bag plus its dictionary,
//! * [`Delta`] — one batch of triple mutations (the currency of the write
//!   path: deletes-before-inserts, set-semantics deletes),
//! * [`stats`] — the data-set statistics of the paper's Table 1 and the
//!   cumulative frequency distributions of Figure 1,
//! * [`ntriples`] — a minimal line-oriented N-Triples-style reader/writer so
//!   real data can be loaded and synthetic data exported.

pub mod dataset;
pub mod delta;
pub mod dict;
pub mod hash;
pub mod ntriples;
pub mod stats;
pub mod triple;

pub use dataset::Dataset;
pub use delta::{Delta, DeltaDecodeError};
pub use dict::Dictionary;
pub use stats::{CfdSeries, DatasetStats};
pub use triple::{SortOrder, Triple};

/// Dense identifier for an interned term (subject, property or object).
///
/// Ids are assigned contiguously from 0 by the [`Dictionary`], so they can be
/// used directly as indexes into side arrays. The paper's full Barton data
/// set interns ~18.5M strings; `u64` leaves ample headroom while keeping
/// column vectors simple (`Vec<Id>`).
pub type Id = u64;
