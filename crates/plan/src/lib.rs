#![warn(missing_docs)]

//! # swans-plan
//!
//! The query layer shared by both engines:
//!
//! * [`pattern`] — the paper's Figure 2: the 8 simple triple query patterns
//!   (`p1`–`p8`) and the join patterns (`A`, `B`, `C`, plus the RDF/S
//!   reasoning combinations),
//! * [`algebra`] — a small logical algebra (`scan`, `select`, `join`,
//!   `group-count`, `union`, ...) in dictionary-encoded integer space,
//! * [`queries`] — the benchmark query generator: builds q1–q8 (and the
//!   unrestricted `*` variants) as logical plans for either the
//!   *triple-store* or the *vertically-partitioned* scheme. This is the
//!   analogue of the Perl script the paper used to produce the
//!   vertically-partitioned SQL ("the SQL code for the
//!   vertically-partitioned implementation is produced by a Perl script",
//!   appendix),
//! * [`coverage`] — reproduces Table 2 by analysing which simple/join
//!   patterns each query plan exercises,
//! * [`naive`] — a deliberately simple reference executor defining the
//!   semantics both engines must match (used heavily by the test suites),
//! * [`props`] — physical-property derivation: which output columns every
//!   plan node keeps sorted (and whether rows are distinct), threaded from
//!   the storage layout so executors can dispatch merge joins and
//!   run-based aggregation,
//! * [`stats`] — the per-table statistics catalog engines collect at
//!   load/merge time (row counts, distincts, compressed scan bytes off the
//!   RLE headers) and publish through [`props::PropsContext::stats`],
//! * [`cost`](mod@cost) — the cost model: cardinality estimation and plan pricing
//!   (scans by compressed bytes, joins by merge-vs-hash dispatch),
//!   driving the plan enumerator,
//! * [`mod@optimize`] — a rule-based rewriter (selection pushdown into scans,
//!   through unions, joins and projections) plus cost-based join
//!   enumeration ([`optimize::optimize_cbo`]) with the older order-aware
//!   rotation kept as its cost baseline and its fallback for chains it
//!   declines to enumerate,
//! * [`lower`] — scheme lowering: any triple-store plan rewritten for the
//!   vertically-partitioned layout (the generalized "Perl script"),
//! * [`sparql`] — a miniature SPARQL front-end compiling
//!   `SELECT ... WHERE { BGP }` to logical plans, so *new* queries (the
//!   thing the paper could not do with C-Store) are one string away,
//! * [`mod@verify`] — the static plan verifier: flow typing, physical-property
//!   soundness and executor legality checked before execution, with typed
//!   [`verify::VerifyError`]s naming the offending operator by plan path,
//! * [`exec`] — the [`exec::EngineError`] type every executor reports
//!   through instead of panicking.
//!
//! ## Module map
//!
//! ```text
//!  sparql ──► algebra ◄── queries        (front-ends produce plans)
//!                │
//!     optimize / lower                   (plan → plan rewrites)
//!                │
//!      props ────┴──── coverage          (analyses over plans)
//!                │
//!        naive / exec                    (reference execution, errors)
//! ```
//!
//! The storage engines consuming this crate live in `swans-colstore` and
//! `swans-rowstore`; the user-facing entry point is `swans-core`.

pub mod algebra;
pub mod cost;
pub mod coverage;
pub mod exec;
pub mod lower;
pub mod naive;
pub mod optimize;
pub mod pattern;
pub mod props;
pub mod queries;
pub mod sparql;
pub mod stats;
pub mod verify;

pub use algebra::{CmpOp, ColumnKind, Plan, Predicate};
pub use cost::{cost, estimate_rows};
pub use coverage::{analyze, Coverage};
pub use exec::{CancelReason, EngineError, PartialStats, QueryBudget};
pub use lower::lower_to_vertical;
pub use optimize::{optimize, optimize_cbo, optimize_for, reorder_joins};
pub use pattern::{JoinPattern, SimplePattern};
pub use props::{derive as derive_props, PhysProps, PropsContext};
pub use queries::{build_plan, QueryContext, QueryId, Scheme};
pub use sparql::{compile_sparql, CompiledQuery, SparqlError};
pub use stats::{PropStats, StatsCatalog, TripleStats};
pub use verify::{verify, Claims, PlanPath, VerifyError, VerifyErrorKind, VerifyReport};
