//! # swans-datagen
//!
//! A deterministic synthetic stand-in for the Barton Libraries data set
//! (reference \[2\] in the paper), calibrated against the paper's Table 1 and Figure 1,
//! plus the property-splitting transform of the §4.4 scalability
//! experiment.
//!
//! ## Substitution rationale
//!
//! The real Barton dump (50,255,599 triples from the MIT Simile project) is
//! not available in this environment, and a full-size run would not fit the
//! time budget anyway. Every conclusion the paper draws rests on
//! *distributional* facts, which the generator reproduces:
//!
//! * one `<type>` triple per subject (Barton: 12.3M type triples vs 12.3M
//!   subjects) — `<type>` is the most frequent property at ~24.5% of all
//!   triples;
//! * a highly Zipfian property distribution: the top 28 properties carry
//!   ~94% of the triples, the top 56 ~99% (the step the paper points out in
//!   Figure 6), and a long tail of properties with almost no data ("many
//!   with just a small number of rows");
//! * near-uniform subjects (every subject has a handful of triples, a few
//!   collection-style subjects have many);
//! * a skewed object distribution whose head is dominated by the `<type>`
//!   classes (`<Date>` at ~8% of all triples, `<Text>` among the runners-up)
//!   and whose body mixes entity references (subjects reused as objects —
//!   ~78% of subjects, Table 1's 9.65M overlap) with per-property literal
//!   pools;
//! * the query constants (`<language>`→French, `<origin>`→DLC,
//!   `<Point>`→`"end"`, `<records>` linking subjects to subjects,
//!   `<conferences>` sharing literal objects with other subjects) are all
//!   present with plausible selectivities, so every benchmark query has
//!   non-trivial work and a non-empty answer.
//!
//! [`BartonConfig::scale`] shrinks the triple count (default 1/50); the
//! `swans-bench` harness reports achieved-vs-paper statistics.

pub mod barton;
pub mod rng;
pub mod split;

pub use barton::{generate, BartonConfig, BARTON_TRIPLES};
pub use split::split_properties;
