//! # swans-colstore
//!
//! The column-store engine — the reproduction's MonetDB/SQL stand-in.
//!
//! Architectural commitments, mirroring what the paper observes about
//! MonetDB in §4.3:
//!
//! * **Full-column reads.** A column is the I/O unit: the first touch of a
//!   column in a (cold) run reads the whole column segment into the buffer
//!   pool. This is why, on the column store, the triple-store layout pays a
//!   large up-front read for the big `triples` columns while the vertically
//!   partitioned layout "only \[reads\] the property tables relevant to a
//!   query".
//! * **Vectorized, materializing operators.** Operators consume and produce
//!   column vectors ([`Chunk`]s), processing a column at a time in tight
//!   loops — the architectural counterpoint to the row engine's
//!   tuple-at-a-time iterators.
//! * **Sorted-column selections.** Selections on the leading sort columns
//!   binary-search instead of scanning; the leading column of a sorted
//!   table can be RLE-compressed (`compression`), shrinking its on-disk
//!   segment — the effect the paper attributes to "column-stores with
//!   compression (e.g., RLE or delta-compression)" achieving PSO clustering
//!   without storing the property column.
//! * **Compressed execution.** An RLE-stored column is not decompressed
//!   at the scan boundary: scans emit it as a [`RunCol`] (values + run
//!   ends) that flows through the operator tree as a first-class
//!   representation — selections test once per run, merge joins advance
//!   whole runs and emit run×match blocks, sorted aggregation reads
//!   counts straight off run lengths, and gathers/slices with monotone
//!   selection vectors stay run-encoded. Expansion to flat values happens
//!   lazily, at the result boundary or for an operator that genuinely
//!   needs flat input (hash kernels, unions). [`ExecStatsSnapshot`]
//!   records run scans, run-kernel dispatches, expansions, and
//!   compressed-vs-logical scan bytes.
//! * **Projection pushdown.** Only the columns a query actually consumes
//!   are read and materialized (late materialization).
//! * **Sortedness-aware dispatch.** Physical properties derived from the
//!   layout ([`swans_plan::props`]) pick merge joins, run-based
//!   aggregation and linear distinct over their hash/sort counterparts
//!   whenever the input order allows; every decision is observable through
//!   [`ExecStatsSnapshot`].
//! * **Write-store / read-store split.** The sorted tables above are the
//!   immutable *read store*; mutations land in an unsorted in-memory
//!   *write store* (per-property insert vectors plus a tombstone set, the
//!   C-Store design the paper benchmarks) that every scan unions behind
//!   its sorted rows. [`ColumnEngine::merge`] — explicit, or triggered by
//!   a pending-operation threshold — rebuilds the affected sorted tables
//!   and restores sorted-path dispatch.
//! * **Morsel-driven parallelism, one body per kernel.** Scans,
//!   selections, hash joins, aggregation and distinct split their input
//!   into fixed-size morsels run by a scoped-thread pool ([`parallel`],
//!   sized by [`ColumnEngine::set_threads`]); the sorted kernels (merge
//!   join, run-based aggregation) split at value-run boundaries, so the
//!   sortedness-aware dispatch survives at every width. Barriers merge in
//!   morsel order: output is bit-identical at every width. There is no
//!   separate sequential kernel — one morsel, or one worker, runs the
//!   same body ([`ops`]) inline.
//!
//! [`engine`] is four modules: `store` (tables, write store, load / apply
//! / merge / fork, counters), `scan` (the one base scan), `exec` (the
//! operator dispatch) and `kernels` (the morsel-parallel kernels).

#![warn(missing_docs)]

pub mod chunk;
pub mod column;
pub mod engine;
pub mod ops;
pub mod parallel;

pub use chunk::{Chunk, ColData, RunCol};
pub use column::Column;
pub use engine::{ColumnEngine, ExecStatsSnapshot, DEFAULT_MERGE_THRESHOLD};
pub use parallel::WorkerPool;
