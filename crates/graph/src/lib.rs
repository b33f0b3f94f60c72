//! Directed-graph substrate for the PathEnum reproduction.
//!
//! This crate provides everything the enumeration algorithms need from a
//! graph store:
//!
//! * [`CsrGraph`]: an immutable, cache-friendly compressed-sparse-row
//!   representation with both forward (out-neighbor) and reverse
//!   (in-neighbor) adjacency, built through [`GraphBuilder`].
//! * [`bfs`]: bounded and vertex-excluding breadth-first searches used for
//!   the paper's distance computations (`S(s, v | G − {t})` etc.).
//! * [`generators`]: synthetic graph generators (Erdős–Rényi, power-law /
//!   Barabási–Albert, complete, grid, layered DAG) standing in for the
//!   paper's real-world datasets.
//! * [`io`]: plain edge-list parsing and serialization.
//! * [`io_binary`]: the `PEG2` binary format, whose sections are
//!   [`CsrGraph`]'s own vectors, the one the library writes and loads
//!   into a [`CsrGraph`]; a `PEG1` (edge list) reader; and a
//!   format-sniffing file loader.
//! * [`handle`]: [`GraphHandle`], one shareable handle over heap and
//!   overlay-backed graphs, and the [`GraphSnapshot`] capability trait
//!   (adjacency + version epoch) the engines consume.
//! * `zerocopy` (crate-private): the storage layer's single `unsafe`
//!   boundary, the byte view through which `PEG2` sections are read
//!   into and written from the CSR vectors (see the lint gate's
//!   allowlist).
//! * [`dynamic`]: an edit buffer layering edge insertions/deletions over a
//!   base graph for the dynamic-graph experiments (Figure 8), queryable in
//!   place through a borrowed [`OverlayView`].
//! * [`view`]: the [`NeighborAccess`] trait giving BFS and the per-query
//!   index build one adjacency surface over CSR graphs and overlays.
//! * [`pll`]: a pruned-landmark-labeling distance oracle — the offline
//!   "global index" the paper's discussion (§7.5) proposes for cutting
//!   per-query preprocessing.
//! * [`hashing`]: a fast FxHash-style hasher for integer keys.
//! * [`epoch`]: epoch-stamped flat maps — O(1)-reset per-query scratch
//!   for the BFS distance maps and the enumeration kernels.
//!
//! Vertices are dense `u32` identifiers in `0..num_vertices`. Parallel edges
//! are deduplicated at build time and self-loops are rejected (the HcPE
//! problem is defined on simple directed graphs).

pub mod bfs;
pub mod builder;
pub mod csr;
pub mod dynamic;
pub mod epoch;
pub mod generators;
pub mod handle;
pub mod hashing;
pub mod io;
pub mod io_binary;
pub mod pll;
pub mod properties;
pub mod types;
pub mod version;
pub mod view;
mod zerocopy;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use dynamic::{DynamicGraph, EdgeMutation, OverlayView};
pub use epoch::{EpochMap, EpochStamps};
pub use handle::{GraphHandle, GraphSnapshot};
pub use pll::DistanceOracle;
pub use types::{VertexId, INFINITE_DISTANCE};
pub use version::GraphVersion;
pub use view::NeighborAccess;

/// The name a `PEG2` load's graph once had. Kept only for
/// `benchmark/src/trace.rs:35,428`, which names it; ROADMAP item 1(h)
/// drops it.
pub type FrozenGraph = CsrGraph;
