//! Experiment harness regenerating every table and figure of the PathEnum
//! paper's evaluation (Section 7 + Appendix F) on the dataset proxies,
//! plus the two measurements `benchmark/` cannot take (see
//! [`experiments`]).
//!
//! Each experiment is a module under [`experiments`] with a single
//! `run(&ExperimentConfig)` entry point that prints the corresponding
//! table/series to stdout. The `reproduce` binary dispatches on a
//! subcommand (`table3`, `fig6`, ..., `all`).
//!
//! Absolute numbers differ from the paper (proxy graphs, scaled time
//! limits, Rust vs C++); the *shape* — which algorithm wins, by what
//! order of magnitude, where crossovers happen — is what these harnesses
//! reproduce.

pub mod alloc;
pub mod config;
pub mod experiments;
pub mod output;

pub use config::ExperimentConfig;

/// Count allocation events so `reproduce perf` can assert the warmed
/// enumeration kernels allocate nothing (see [`alloc`]).
#[global_allocator]
static GLOBAL_ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;
