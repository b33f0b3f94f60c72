//! Index-based enumeration strategies.
//!
//! * [`dfs`] — Algorithm 4: depth-first search on the index, extending a
//!   single partial result one vertex at a time (equivalent to the
//!   left-deep join order `R_1, ..., R_k`).
//! * [`join`] — Algorithm 6: cut the chain query at position `i*`, evaluate
//!   both sides by DFS on the index, and hash-join the intermediate
//!   relations.
//!
//! The production kernels ([`idx_dfs_iterative`], [`idx_join`]) draw
//! working memory from a per-thread arena (`scratch`) and are pinned
//! byte-identical to retained naive oracles ([`dfs::idx_dfs`],
//! [`join::idx_join_reference`]) by the `kernel_agreement` differential
//! suite and `reproduce perf`.

pub mod dfs;
pub mod dfs_iterative;
pub mod join;
pub(crate) mod scratch;

/// How many search-tree nodes pass between [`crate::sink::PathSink::probe`]
/// calls in the enumeration kernels (power of two; the first node always
/// probes). Keeps the virtual probe call off the per-node hot path while
/// bounding how long a deadline/cancellation rule can go unobserved. On
/// IDX-DFS's count path a last-hop node is counted inside its parent's
/// activation, so the stride counts activations; the stopping rules are
/// also consulted at each bulk count
/// ([`crate::sink::PathSink::emit_count`]).
pub(crate) const PROBE_STRIDE: u32 = 64;

pub use dfs::idx_dfs;
pub use dfs_iterative::{idx_dfs_iterative, idx_dfs_on_demand};
pub use join::{idx_join, idx_join_reference};
pub use scratch::thread_scratch_heap_bytes;
