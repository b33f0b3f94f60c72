//! Baseline hop-constrained s-t path enumeration algorithms.
//!
//! The competitors the paper evaluates PathEnum against (Section 7.1):
//!
//! * [`generic_dfs`](mod@generic_dfs) — the generic backtracking framework of Algorithm 1
//!   with a static distance-to-`t` bound.
//! * [`bc_dfs`](mod@bc_dfs) — the barrier-based polynomial-delay algorithm of Peng et
//!   al. (VLDB 2020): distances to `t` are *maintained* during the search,
//!   raising a barrier whenever a subtree proves fruitless and rolling it
//!   back when the blocking stack prefix unwinds.
//! * [`bc_join`](mod@bc_join) — the join-oriented variant: enumerate path halves
//!   meeting at position `ceil(k/2)` and join on the middle vertex.
//! * [`t_dfs`](mod@t_dfs) — Rizzi et al.'s theoretical algorithm: every extension is
//!   certified by an exact shortest-path query avoiding the current
//!   partial path, guaranteeing each branch leads to a result.
//! * [`yen_ksp`] — the top-K shortest-path adaptation (Yen's loopless
//!   algorithm, the KRE/KPJ family): enumerate simple paths in ascending
//!   length order and stop past `k`.
//! * [`hot_index`] — an HPI-style offline index of paths between
//!   high-degree vertices (Qiu et al., VLDB 2018), demonstrating the
//!   memory blow-up the PathEnum paper criticizes.
//!
//! All of them work directly on the graph (global vertex ids) — none uses
//! the PathEnum index — and each reports the library's own
//! [`RunReport`](pathenum::RunReport), so the experiment harness reads
//! one record for every competitor. A baseline's preprocessing is its
//! distance BFS (`timings.bfs`, also counted in `timings.index_build`);
//! its `cache` is the default `Bypass`, since it never caches.

pub mod bc_dfs;
pub mod bc_join;
pub mod common;
pub mod generic_dfs;
pub mod hot_index;
pub mod t_dfs;
pub mod yen;

pub use bc_dfs::bc_dfs;
pub use bc_join::bc_join;
pub use generic_dfs::generic_dfs;
pub use hot_index::{hot_index_enumerate, HotIndex};
pub use t_dfs::t_dfs;
pub use yen::yen_ksp;
