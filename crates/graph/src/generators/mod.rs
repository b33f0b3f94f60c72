//! Synthetic graph generators.
//!
//! The paper evaluates on 15 real-world graphs (SNAP / networkrepository).
//! Those datasets are not redistributable inside this repository, so the
//! workload layer substitutes generated graphs whose degree regime matches
//! each dataset's *type* (see `pathenum-workloads::datasets`).
//! The generators here are the primitives that substitution is built from:
//!
//! * [`erdos_renyi`](fn@erdos_renyi) — uniform random digraphs (near-regular degrees), the
//!   stand-in for citation-style graphs.
//! * [`power_law`](fn@power_law) — preferential-attachment digraphs with heavy-tailed
//!   degrees, the stand-in for social/web graphs.
//! * [`structured`] — deterministic families (complete digraph, directed
//!   grid, layered DAG) with analytically known path counts, used by the
//!   correctness and estimator-exactness tests.
//!
//! All generators are deterministic given a seed.

pub mod erdos_renyi;
pub mod power_law;
pub mod small_world;
pub mod structured;

pub use erdos_renyi::erdos_renyi;
pub use power_law::{power_law, PowerLawConfig};
pub use small_world::{watts_strogatz, SmallWorldConfig};
pub use structured::{complete_digraph, directed_grid, layered_dag};
