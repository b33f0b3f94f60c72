//! One module per experiment, each exposing `run(&ExperimentConfig)`.
//!
//! What is here and why:
//!
//! * `table3`–`table7`, `fig6`–`fig18`, `ablation`, `scaling` — the
//!   paper's tables and figures. They are the reproduction.
//! * `overload` — the only open-loop measurement in the repo.
//!   `benchmark/` drives closed loops and excludes overload by design
//!   (its README points here), so admission control is judged on this
//!   command.
//! * `perf` — allocation events per warm query. It needs the counting
//!   global allocator's `unsafe`, which `benchmark/` may not carry.
//!
//! Serving-side numbers — cold, warm and replayed sojourns, cache hit
//! ratios, load times, bytes per edge, kernel ns per edge or path — are
//! `benchmark/`'s: one ledger, with an oracle and a noise study.

pub mod ablation;
pub mod fig10_11;
pub mod fig12;
pub mod fig13_15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod overload;
pub mod perf;
pub mod scaling;
pub mod support;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

use crate::config::ExperimentConfig;

/// One registry entry: `(subcommand, description, runner)`.
pub type ExperimentEntry = (&'static str, &'static str, fn(&ExperimentConfig));

/// All experiments with their subcommand names, the paper's first and
/// in its order.
pub fn registry() -> Vec<ExperimentEntry> {
    vec![
        (
            "table3",
            "Overall comparison: query time / throughput / response time",
            table3::run,
        ),
        (
            "table4",
            "Query-time distribution (BC-DFS vs IDX-DFS, k varied)",
            table4::run,
        ),
        (
            "table5",
            "Performance on short vs out-of-time queries (ep, k=8)",
            table5::run,
        ),
        (
            "table6",
            "Average and maximum number of results (k varied)",
            table6::run,
        ),
        (
            "table7",
            "Memory: index vs IDX-JOIN partial results (k varied)",
            table7::run,
        ),
        (
            "fig6",
            "Detailed metrics: #edges, #invalid, #results (k varied)",
            fig6::run,
        ),
        (
            "fig7",
            "Query-time breakdown: preprocessing vs enumeration",
            fig7::run,
        ),
        (
            "fig8",
            "99.9% response latency on dynamic graphs",
            fig8::run,
        ),
        ("fig9", "Spectrum analysis of join plans", fig9::run),
        (
            "fig10_11",
            "Regression: enumeration time vs index size / #results",
            fig10_11::run,
        ),
        (
            "fig12",
            "Scalability on the tm proxy (k = 3..6)",
            fig12::run,
        ),
        (
            "fig13_15",
            "Query time / throughput / response time vs k",
            fig13_15::run,
        ),
        ("fig16", "Cumulative distribution of query time", fig16::run),
        ("fig17", "Per-technique execution time vs k", fig17::run),
        ("fig18", "Cardinality estimation accuracy vs k", fig18::run),
        (
            "ablation",
            "Extra ablations: pruning power, barriers, T-DFS",
            ablation::run,
        ),
        (
            "scaling",
            "Intra-query parallel scaling (threads 1/2/4/8)",
            scaling::run,
        ),
        (
            "overload",
            "Overload serving: cost-based admission control vs unbounded FIFO",
            overload::run,
        ),
        (
            "perf",
            "Allocation events per warm query (must be zero)",
            perf::run,
        ),
    ]
}
