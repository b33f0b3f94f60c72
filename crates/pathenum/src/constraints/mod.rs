//! Constraint extensions of the HcPE problem (Appendix E).
//!
//! The motivating applications impose extra conditions on results:
//!
//! * [`predicate`] — every edge of a path must satisfy a user predicate
//!   (e-commerce fraud: only monitor particular transaction types);
//! * [`accumulative`] — an associative-commutative accumulation of edge
//!   values must pass a final check (money laundering: total risk above a
//!   threshold), Algorithm 7;
//! * [`automaton`] — the edge-label sequence must be accepted by a finite
//!   automaton (knowledge graphs: action sequences such as
//!   `write -> mention`), Algorithm 8.

pub mod accumulative;
pub mod automaton;
pub mod join_variants;
pub mod predicate;

pub use accumulative::{accumulative_dfs, AccumulativeQuery};
pub use automaton::{automaton_dfs, Automaton, AutomatonError};
pub use join_variants::{accumulative_join, automaton_join, FilterSink};
pub use predicate::filtered_graph;
